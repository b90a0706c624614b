"""g-Bregman divergence engine: generators, mappings, duality, reversal.

A divergence here is determined by a strictly convex generating function
``A`` on the image of an invertible coordinate map ``g``:

    D(t, y) = (g(y) - g(t)) . grad A(g(y)) - A(g(y)) + A(g(t))

Every divergence owns a dual pair ``{B, f}`` with ``f(y) = grad A(g(y))``
and ``B(f(y)) = g(y) . f(y) - A(g(y))``; ``B`` is the convex conjugate of
``A``. Swapping ``{A, g}`` with ``{B, f}`` reverses the argument order.

The :func:`catalog` holds the standard closed-form instances (squared
Euclidean/Mahalanobis, forward/reverse KL, alpha divergences, the Gaussian
in mean/variance coordinates, Bernoulli KL) plus non-Bregman counterexample
losses (Minkowski powers, L1, 0-1 on a grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BoundaryError,
    CallableLoss,
    ConvergenceError,
    ConvexityError,
    Domain,
    LossFunction,
)

# Divergence values in [-CLAMP_TOL, 0) are treated as floating-point noise
# and clamped to zero; anything more negative raises ConvexityError.
CLAMP_TOL = 1e-12

# Coordinates below this are considered "at the boundary" for log/exp forms.
TINY = 1e-300

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


def xlogx(x: np.ndarray) -> np.ndarray:
    """x * log(x) with the 0 log 0 = 0 convention; negative x gives nan."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return np.where(x < 0, np.nan, out)


@dataclass(frozen=True)
class Generator:
    """Strictly convex potential with value and gradient.

    ``value`` maps (..., d) arrays to (...) values, ``gradient`` to (..., d).
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Mapping:
    """Invertible coordinate map with forward and inverse."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    is_identity: bool = False


def identity_mapping() -> Mapping:
    return Mapping(
        forward=lambda y: np.asarray(y, dtype=float),
        inverse=lambda u: np.asarray(u, dtype=float),
        is_identity=True,
    )


def fd_jacobian(fn: Callable, x: np.ndarray, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector map at a single point."""
    x = np.asarray(x, dtype=float)
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h * (1.0 + abs(x[j]))
        J[:, j] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * e[j])
    return J


def newton_invert(
    fn: Callable,
    target: np.ndarray,
    x0: np.ndarray,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> np.ndarray:
    """Solve fn(x) = target by damped Newton; bisection fallback in 1-D.

    The Jacobian comes from central differences; the residual decides
    convergence. Raises :class:`ConvergenceError` with the last residual on failure.
    """
    target = np.atleast_1d(np.asarray(target, dtype=float))
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    resid = None
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            r = np.atleast_1d(fn(x)) - target
            resid = float(np.max(np.abs(r)))
            if resid <= tol:
                return x
            J = fd_jacobian(fn, x)
            try:
                step = np.linalg.solve(np.atleast_2d(J), r)
            except np.linalg.LinAlgError:
                break
            # Backtrack until the residual actually shrinks.
            alpha = 1.0
            while alpha > 1e-12:
                x_new = x - alpha * step
                r_new = np.atleast_1d(fn(x_new)) - target
                if np.all(np.isfinite(r_new)) and np.max(np.abs(r_new)) < resid:
                    x = x_new
                    break
                alpha *= 0.5
            else:
                break
    if target.size == 1:
        root = _bisect_scalar(lambda s: float(fn(np.array([s]))[0]) - target[0], x[0])
        if root is not None:
            return np.array([root])
    raise ConvergenceError(
        f"Newton inversion did not converge (last residual {resid:.3e})",
        residual=resid,
    )


def _bisect_scalar(g: Callable[[float], float], x0: float) -> float | None:
    """Bracket a sign change around x0 by doubling, then bisect."""
    lo = hi = x0
    width = 1.0
    for _ in range(200):
        lo, hi = x0 - width, x0 + width
        try:
            with np.errstate(all="ignore"):
                glo, ghi = g(lo), g(hi)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return None
        if np.isfinite(glo) and np.isfinite(ghi) and glo * ghi <= 0:
            break
        width *= 2.0
    else:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if not np.isfinite(gmid):
            return None
        if abs(gmid) <= NEWTON_TOL:
            return mid
        if glo * gmid <= 0:
            hi = mid
        else:
            lo, glo = mid, gmid
    return 0.5 * (lo + hi)


class GBregmanDivergence(LossFunction):
    """Loss defined by a generator ``A`` after an invertible map ``g``.

    Parameters
    ----------
    gen, mapping : the pair {A, g}.
    domain : common domain of labels and predictions.
    dual_gen, dual_map : closed-form dual pair {B, f} when known; otherwise
        derived on demand (f by composing grad A with g, its inverse and B
        by Newton-based inversion of grad A).
    direct_eval : optional numerically-stable closed form of the defining
        expression (used for batch evaluation, e.g. to honor the
        0 log 0 = 0 convention at boundary labels).
    check_boundary : optional validator raising BoundaryError for points
        where evaluation cannot work (names the offending coordinate).
    """

    def __init__(
        self,
        gen: Generator,
        mapping: Mapping,
        domain: Domain,
        dual_gen: Generator | None = None,
        dual_map: Mapping | None = None,
        name: str = "gbregman",
        params: dict | None = None,
        direct_eval: Callable | None = None,
        check_boundary: Callable | None = None,
    ):
        super().__init__(domain.dim, domain, name)
        self.gen = gen
        self.map = mapping
        self._dual_gen = dual_gen
        self._dual_map = dual_map
        self._dual_closed_form = dual_gen is not None and dual_map is not None
        self.params = dict(params or {})
        self._direct_eval = direct_eval
        self._check_boundary = check_boundary

    # -- evaluation ---------------------------------------------------

    def eval_defining_batch(self, T, Y):
        """Defining expression (g(y)-g(t)) . grad A(g(y)) - A(g(y)) + A(g(t))."""
        gt = self.map.forward(np.asarray(T, dtype=float))
        gy = self.map.forward(np.asarray(Y, dtype=float))
        grad_y = self.gen.gradient(gy)
        vals = (
            np.sum((gy - gt) * grad_y, axis=-1)
            - self.gen.value(gy)
            + self.gen.value(gt)
        )
        return _clamp(vals)

    def eval_defining(self, t, y) -> float:
        return self._eval_scalar(self.eval_defining_batch, t, y)

    def eval_batch(self, T, Y):
        if self._direct_eval is not None:
            return _clamp(self._direct_eval(np.asarray(T, float), np.asarray(Y, float)))
        return self.eval_defining_batch(T, Y)

    def eval_concise(self, t, y) -> float:
        """Mixed-coordinate form A(g(t)) - f(y) . g(t) + B(f(y))."""
        B, f = self.dual_pair()

        def concise(t, y):
            gt, fy = self.map.forward(t), f.forward(y)
            return _clamp(self.gen.value(gt) - fy @ gt + B.value(fy))

        return self._eval_scalar(concise, t, y)

    # -- duality ------------------------------------------------------

    def dual_pair(self) -> tuple[Generator, Mapping]:
        """The pair {B, f}: moment map f = grad A o g and conjugate B of A."""
        if self._dual_gen is None or self._dual_map is None:
            self._dual_gen, self._dual_map = self._derive_dual()
        return self._dual_gen, self._dual_map

    @property
    def dual_is_closed_form(self) -> bool:
        return self._dual_closed_form

    def _derive_dual(self) -> tuple[Generator, Mapping]:
        gen, mapping = self.gen, self.map

        def f_forward(y):
            return gen.gradient(mapping.forward(np.asarray(y, dtype=float)))

        def grad_a_inverse(v):
            x0 = self._newton_start()
            return newton_invert(gen.gradient, v, x0)

        def f_inverse(v):
            return mapping.inverse(grad_a_inverse(np.asarray(v, dtype=float)))

        def b_row(v):
            u = grad_a_inverse(v)
            return float(u @ v - gen.value(u))

        def per_row(fn):
            # fn maps one (d,) point; stack its results over leading axes.
            def batched(v):
                v = np.asarray(v, dtype=float)
                out = [np.asarray(fn(row)) for row in v.reshape(-1, v.shape[-1])]
                return np.stack(out).reshape(v.shape[:-1] + out[0].shape)

            return batched

        return Generator(per_row(b_row), per_row(grad_a_inverse)), Mapping(f_forward, f_inverse)

    def _newton_start(self) -> np.ndarray:
        dom = self.domain
        lo = np.where(np.isfinite(dom.lower), dom.lower, -1.0) if dom.lower is not None else -np.ones(dom.dim)
        hi = np.where(np.isfinite(dom.upper), dom.upper, 1.0) if dom.upper is not None else np.ones(dom.dim)
        return self.map.forward(0.5 * (lo + hi))

    def reverse(self) -> "GBregmanDivergence":
        """The divergence with arguments interchanged: swaps {A,g} and {B,f}.

        ``eval_batch`` swaps this divergence's own evaluator, finite wherever
        it is (0 log 0 included); ``eval_defining_batch`` runs on {B, f}."""
        dual_gen, dual_map = self.dual_pair()
        forward = self._direct_eval or self.eval_defining_batch
        check = self._check_boundary
        swapped = None if check is None else (lambda t, y: check(y, t))
        return GBregmanDivergence(
            gen=dual_gen,
            mapping=dual_map,
            domain=self.domain,
            dual_gen=self.gen,
            dual_map=self.map,
            name=f"reverse({self.name})",
            params=self.params,
            direct_eval=lambda T, Y: forward(Y, T),
            check_boundary=swapped,
        )

    # -- metadata -----------------------------------------------------

    @property
    def map_is_identity(self) -> bool:
        return self.map.is_identity

    @property
    def dual_map_is_identity(self) -> bool:
        return self._dual_map is not None and self._dual_map.is_identity

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.params.items()
            },
            "domain": self.domain.to_json(),
            "metadata": {
                "dual": "closed_form" if self._dual_closed_form else "newton",
            },
        }


def _clamp(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    with np.errstate(invalid="ignore"):
        bad = np.isfinite(vals) & (vals < -CLAMP_TOL)
    if np.any(bad):
        worst = float(np.min(vals[bad]))
        raise ConvexityError(f"divergence evaluated to {worst:.3e} < -{CLAMP_TOL}")
    return np.where(np.isfinite(vals) & (vals < 0), 0.0, vals)


# -- boundary validators ------------------------------------------------


def _require_positive(p: np.ndarray, other: np.ndarray, which: str, name: str):
    """Coordinates of ``p`` may only vanish where ``other`` vanishes too
    (the 0 log 0 = 0 convention covers exactly that case)."""
    small = np.where((p < TINY) & (other >= TINY))[0]
    if small.size:
        raise BoundaryError(
            f"{name}: {which} coordinate {int(small[0])} = {p[int(small[0])]:.3g} "
            f"is at the domain boundary (needs > 0)"
        )


def _require_interior_unit(p: np.ndarray, other: np.ndarray, which: str, name: str):
    bad = np.where(((p < TINY) & (other >= TINY))
                   | ((1.0 - p < TINY) & (1.0 - other >= TINY)))[0]
    if bad.size:
        raise BoundaryError(
            f"{name}: {which} coordinate {int(bad[0])} = {p[int(bad[0])]:.3g} "
            f"is at the boundary of (0, 1)"
        )


# -- catalog entries ----------------------------------------------------


def _quadratic_pair(K):
    """Generator u.K.u, its conjugate v.K^-1.v/4 and the dual map y -> 2 K y.

    Returns K as a float matrix with the three. K must be symmetric positive
    definite; the identity skips that O(d^3) check, is its own inverse, and
    its forms need no matrix product: sums of squares and scalings.
    """
    K = np.asarray(K, dtype=float)
    identity = K.ndim == 2 and np.array_equal(K, np.eye(K.shape[0]))
    if not identity:
        _check_positive_definite(K)
    Kinv = K if identity else np.linalg.inv(K)

    def quad(M):
        def value(u):
            u = np.asarray(u, dtype=float)
            return np.einsum("...i,...i->...", u if identity else u @ M, u)

        return value

    def linear(M, c):
        def apply(x):
            x = np.asarray(x, dtype=float)
            return c * x if identity else c * x @ M.T

        return apply

    gen = Generator(value=quad(K), gradient=linear(K, 2.0))
    dual_value = quad(Kinv)
    dual_gen = Generator(value=lambda v: 0.25 * dual_value(v), gradient=linear(Kinv, 0.5))
    dual_map = Mapping(forward=linear(K, 2.0), inverse=linear(Kinv, 0.5))
    return K, gen, dual_gen, dual_map


def _check_positive_definite(K: np.ndarray):
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be a square matrix")
    if not np.allclose(K, K.T, atol=1e-12):
        raise ValueError("K must be symmetric")
    if np.any(np.linalg.eigvalsh(K) <= 0):
        raise ValueError("K must be positive definite")


def make_mahalanobis(K, bound: float = 10.0, name: str = "mahalanobis") -> GBregmanDivergence:
    K, gen, dual_gen, dual_map = _quadratic_pair(K)
    d = K.shape[0]
    domain = Domain.box(-bound * np.ones(d), bound * np.ones(d))

    def direct(T, Y):
        return gen.value(np.asarray(T, float) - np.asarray(Y, float))

    return GBregmanDivergence(
        gen=gen,
        mapping=identity_mapping(),
        domain=domain,
        dual_gen=dual_gen,
        dual_map=dual_map,
        name=name,
        params={"K": K, "bound": bound},
        direct_eval=direct,
    )


def make_sq_euclidean(dim: int, bound: float = 10.0) -> GBregmanDivergence:
    div = make_mahalanobis(np.eye(dim), bound=bound, name="sq_euclidean")
    div.params = {"dim": dim, "bound": bound}
    return div


def make_g_mahalanobis(
    mapping: Mapping, K, domain: Domain, name: str = "g_mahalanobis"
) -> GBregmanDivergence:
    """Squared Mahalanobis distance after an invertible change of variables."""
    K, gen, quad_dual_gen, quad_dual_map = _quadratic_pair(K)

    def f_forward(y):
        return quad_dual_map.forward(mapping.forward(np.asarray(y, float)))

    def f_inverse(v):
        return mapping.inverse(quad_dual_map.inverse(v))

    def direct(T, Y):
        return gen.value(
            mapping.forward(np.asarray(T, float)) - mapping.forward(np.asarray(Y, float))
        )

    return GBregmanDivergence(
        gen=gen,
        mapping=mapping,
        domain=domain,
        dual_gen=quad_dual_gen,
        dual_map=Mapping(forward=f_forward, inverse=f_inverse),
        name=name,
        params={"K": K},
        direct_eval=direct,
    )


def _neg_entropy_generator() -> Generator:
    """sum u log u - sum u, the generator of the forward KL divergence."""

    def value(u):
        u = np.asarray(u, dtype=float)
        return np.sum(xlogx(u) - u, axis=-1)

    def gradient(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.asarray(u, dtype=float))

    return Generator(value=value, gradient=gradient)


def _sum_exp_generator() -> Generator:
    def value(u):
        return np.sum(np.exp(np.asarray(u, dtype=float)), axis=-1)

    def gradient(u):
        return np.exp(np.asarray(u, dtype=float))

    return Generator(value=value, gradient=gradient)


def _log_mapping() -> Mapping:
    def forward(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.asarray(y, dtype=float))

    return Mapping(
        forward=forward,
        inverse=lambda u: np.exp(np.asarray(u, dtype=float)),
    )


def _prob_domain(dim: int, simplex: bool) -> Domain:
    if not isinstance(simplex, bool):
        raise TypeError(f"simplex must be true or false, got {simplex!r}")
    return Domain.simplex(dim) if simplex else Domain.unit_box(dim)


def make_kl(dim: int, simplex: bool = False) -> GBregmanDivergence:
    """Forward KL in proper form: sum t log(t/y) + sum y - sum t.

    Labels may have zero coordinates (0 log 0 = 0); predictions must be
    strictly positive.
    """

    def direct(T, Y):
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(T > 0, T * np.log(np.where(T > 0, T, 1.0) / Y), 0.0)
        return np.sum(terms + Y - T, axis=-1)

    def check_boundary(t, y):
        _require_positive(y, t, "prediction", "kl")

    return GBregmanDivergence(
        gen=_neg_entropy_generator(),
        mapping=identity_mapping(),
        domain=_prob_domain(dim, simplex),
        dual_gen=_sum_exp_generator(),
        dual_map=_log_mapping(),
        name="kl",
        params={"dim": dim, "simplex": simplex},
        direct_eval=direct,
        check_boundary=check_boundary,
    )


def make_reverse_kl(dim: int, simplex: bool = False) -> GBregmanDivergence:
    """Reverse KL: sum y log(y/t) + sum t - sum y (labels strictly positive),
    :func:`make_kl` reversed."""
    div = make_kl(dim, simplex).reverse()
    div.name = "reverse_kl"
    div._check_boundary = lambda t, y: _require_positive(t, y, "label", "reverse_kl")
    return div


def _power_pair(p: float, q: float) -> tuple[Generator, Mapping]:
    """Potential q^(q/p) * sum u_i^(1/p) after the map y_i^p / q: alpha's {A, g}
    for (p, q) = (a, 1 - a), its {B, f} for (1 - a, a). q is passed because
    1 - (1 - a) != a in floating point."""
    c = q ** (q / p)
    gen = Generator(
        value=lambda u: c * np.sum(np.asarray(u, float) ** (1.0 / p), axis=-1),
        gradient=lambda u: (c / p) * np.asarray(u, float) ** (q / p),
    )
    mapping = Mapping(
        forward=lambda y: np.asarray(y, float) ** p / q,
        inverse=lambda u: (q * np.asarray(u, float)) ** (1.0 / p),
    )
    return gen, mapping


def make_alpha(alpha: float, dim: int, simplex: bool = False) -> GBregmanDivergence:
    """Alpha divergence for 0 < alpha < 1.

    Interpolates between the reverse KL (alpha -> 0) and the forward KL
    (alpha -> 1). The coordinate map is y_i^alpha / (1 - alpha) with
    generator (1-alpha)^((1-alpha)/alpha) * sum u_i^(1/alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    a = float(alpha)
    gen, mapping = _power_pair(a, 1.0 - a)
    dual_gen, dual_map = _power_pair(1.0 - a, a)

    def direct(T, Y):
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        cross = np.sum(T**a * Y ** (1.0 - a), axis=-1)
        return (
            -cross / (a * (1.0 - a))
            + np.sum(T, axis=-1) / (1.0 - a)
            + np.sum(Y, axis=-1) / a
        )

    return GBregmanDivergence(
        gen=gen,
        mapping=mapping,
        domain=_prob_domain(dim, simplex),
        dual_gen=dual_gen,
        dual_map=dual_map,
        name="alpha",
        params={"alpha": a, "dim": dim, "simplex": simplex},
        direct_eval=direct,
    )


def gaussian_log_partition() -> Generator:
    """Log-partition of the univariate Gaussian in natural parameters.

    Natural parameters are (m/s, -1/(2s)) for mean m and variance s; the
    value includes all additive constants so that
    -log density = -theta . (z, z^2) + value(theta) exactly.
    """

    def value(u):
        u = np.asarray(u, dtype=float)
        u1, u2 = u[..., 0], u[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return -(u1**2) / (4.0 * u2) - 0.5 * np.log(-u2 / np.pi)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        u1, u2 = u[..., 0], u[..., 1]
        return np.stack([-u1 / (2.0 * u2), u1**2 / (4.0 * u2**2) - 0.5 / u2], axis=-1)

    return Generator(value=value, gradient=gradient)


def make_gaussian_canonical(
    mean_bound: float = 5.0, var_min: float = 0.05, var_max: float = 5.0
) -> GBregmanDivergence:
    """KL between univariate Gaussians, as a divergence on (mean, variance).

    Points are (m, s) with s the variance. The coordinate map sends (m, s)
    to the natural parameters (m/s, -1/(2s)), where the generator is the
    :func:`gaussian_log_partition`; the dual map sends it to the moments
    (m, m^2 + s). Central labels average natural parameters, central
    predictions average moments.
    """

    def g_forward(y):
        y = np.asarray(y, dtype=float)
        m, s = y[..., 0], y[..., 1]
        return np.stack([m / s, -0.5 / s], axis=-1)

    def g_inverse(u):
        u = np.asarray(u, dtype=float)
        s = -0.5 / u[..., 1]
        return np.stack([u[..., 0] * s, s], axis=-1)

    def f_forward(y):
        y = np.asarray(y, dtype=float)
        m, s = y[..., 0], y[..., 1]
        return np.stack([m, m**2 + s], axis=-1)

    def f_inverse(v):
        v = np.asarray(v, dtype=float)
        return np.stack([v[..., 0], v[..., 1] - v[..., 0] ** 2], axis=-1)

    def b_value(v):
        v = np.asarray(v, dtype=float)
        s = v[..., 1] - v[..., 0] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return -0.5 * np.log(2.0 * np.pi * s) - 0.5

    def b_gradient(v):
        v = np.asarray(v, dtype=float)
        s = v[..., 1] - v[..., 0] ** 2
        return np.stack([v[..., 0] / s, -0.5 / s], axis=-1)

    def direct(T, Y):
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        mt, st = T[..., 0], T[..., 1]
        my, sy = Y[..., 0], Y[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = sy / st
            return (my - mt) ** 2 / (2.0 * st) - 0.5 * (1.0 - ratio + np.log(ratio))

    def check_boundary(t, y):
        for which, p in (("label", t), ("prediction", y)):
            if p[1] < TINY:
                raise BoundaryError(
                    f"gaussian_canonical: {which} coordinate 1 (variance) = "
                    f"{p[1]:.3g} must be > 0"
                )

    domain = Domain.box(
        np.array([-mean_bound, var_min]), np.array([mean_bound, var_max])
    )
    return GBregmanDivergence(
        gen=gaussian_log_partition(),
        mapping=Mapping(forward=g_forward, inverse=g_inverse),
        domain=domain,
        dual_gen=Generator(value=b_value, gradient=b_gradient),
        dual_map=Mapping(forward=f_forward, inverse=f_inverse),
        name="gaussian_canonical",
        params={"mean_bound": mean_bound, "var_min": var_min, "var_max": var_max},
        direct_eval=direct,
        check_boundary=check_boundary,
    )


def make_bernoulli_kl() -> GBregmanDivergence:
    """Binary KL t log(t/y) + (1-t) log((1-t)/(1-y)) on [0, 1]."""

    def value(u):
        u = np.asarray(u, dtype=float)
        return np.sum(xlogx(u) + xlogx(1.0 - u), axis=-1)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(u / (1.0 - u))

    def expit(v):
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    def b_value(v):
        v = np.asarray(v, dtype=float)
        return np.sum(np.logaddexp(0.0, v), axis=-1)

    def direct(T, Y):
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(T > 0, T * np.log(np.where(T > 0, T, 1.0) / Y), 0.0)
            b = np.where(
                T < 1, (1.0 - T) * np.log(np.where(T < 1, 1.0 - T, 1.0) / (1.0 - Y)), 0.0
            )
        return np.sum(a + b, axis=-1)

    def check_boundary(t, y):
        _require_interior_unit(y, t, "prediction", "bernoulli_kl")

    return GBregmanDivergence(
        gen=Generator(value=value, gradient=gradient),
        mapping=identity_mapping(),
        domain=Domain.unit_box(1),
        dual_gen=Generator(value=b_value, gradient=lambda v: expit(v)),
        dual_map=Mapping(forward=gradient, inverse=lambda v: expit(v)),
        name="bernoulli_kl",
        params={},
        direct_eval=direct,
        check_boundary=check_boundary,
    )


def make_minkowski(epsilon: float, dim: int, bound: float = 10.0) -> LossFunction:
    """sum |t_i - y_i|^epsilon for 0 < epsilon <= 2.

    Only epsilon = 2 is a Bregman divergence; other exponents are shipped
    as counterexample losses with kinks wherever some t_i = y_i.
    """
    if not 0.0 < epsilon <= 2.0:
        raise ValueError("epsilon must lie in (0, 2]")
    if epsilon == 2.0:
        return make_sq_euclidean(dim, bound=bound)

    def fn(T, Y):
        return np.sum(np.abs(T - Y) ** epsilon, axis=-1)

    loss = CallableLoss(
        dim,
        Domain.box(-bound * np.ones(dim), bound * np.ones(dim)),
        fn,
        name=f"minkowski({epsilon:g})",
        has_diagonal_kinks=True,
    )
    loss.params = {"epsilon": epsilon, "dim": dim, "bound": bound}
    return loss


def make_l1(dim: int, bound: float = 10.0) -> LossFunction:
    loss = make_minkowski(1.0, dim, bound=bound)
    loss.name = "l1"
    loss.params = {"dim": dim, "bound": bound}
    return loss


def make_zero_one_grid(dim: int, levels: int = 2) -> LossFunction:
    """0-1 loss on the integer grid {0, ..., levels-1}^dim."""
    if levels < 2:
        raise ValueError("levels must be >= 2")

    def fn(T, Y):
        return (np.max(np.abs(T - Y), axis=-1) > 1e-9).astype(float)

    loss = CallableLoss(
        dim,
        Domain.box(np.zeros(dim), (levels - 1.0) * np.ones(dim)),
        fn,
        name="zero_one_grid",
        has_diagonal_kinks=True,
    )
    loss.params = {"dim": dim, "levels": levels}
    return loss


_CATALOG = {
    "sq_euclidean": make_sq_euclidean,
    "mahalanobis": make_mahalanobis,
    "kl": make_kl,
    "reverse_kl": make_reverse_kl,
    "alpha": make_alpha,
    "gaussian_canonical": make_gaussian_canonical,
    "bernoulli_kl": make_bernoulli_kl,
    "g_mahalanobis": make_g_mahalanobis,
    "minkowski": make_minkowski,
    "l1": make_l1,
    "zero_one_grid": make_zero_one_grid,
}


def catalog(name: str, **params) -> LossFunction:
    """Construct a named divergence or counterexample loss.

    g-Bregman entries return a full :class:`GBregmanDivergence` with
    closed-form duals; ``minkowski`` (epsilon != 2), ``l1`` and
    ``zero_one_grid`` return plain losses.
    """
    try:
        maker = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown divergence {name!r}; available: {sorted(_CATALOG)}"
        ) from None
    return maker(**params)


def catalog_from_json(obj: dict) -> LossFunction:
    """Build a catalog entry from {"name": ..., "params": {...}} JSON."""
    params = dict(obj.get("params") or {})
    if "K" in params:
        params["K"] = np.asarray(params["K"], dtype=float)
    if obj.get("name") == "g_mahalanobis":
        gname = params.pop("g", "log")
        domain = Domain.from_json(params.pop("domain"))
        if gname == "log":
            mapping = _log_mapping()
        elif gname == "identity":
            mapping = identity_mapping()
        else:
            raise ValueError(f"unknown g_mahalanobis map {gname!r}")
        return make_g_mahalanobis(mapping, params["K"], domain)
    return catalog(obj["name"], **params)
