"""g-Bregman divergence engine: generators, mappings, duality, reversal.

A divergence here is determined by a strictly convex generating function
``A`` on the image of an invertible coordinate map ``g``:

    D(t, y) = (g(y) - g(t)) . grad A(g(y)) - A(g(y)) + A(g(t))

Every divergence owns a dual pair ``{B, f}`` with ``f(y) = grad A(g(y))``
and ``B(f(y)) = g(y) . f(y) - A(g(y))``; ``B`` is the convex conjugate of
``A``, so ``g(y) = grad B(f(y))``. Catalog entries therefore state ``A``
and ``B`` by value and ``g`` and ``f`` as maps. Swapping ``{A, g}`` with
``{B, f}`` reverses the argument order.

The :func:`catalog` holds the standard closed-form instances (squared
Euclidean/Mahalanobis, forward/reverse KL, alpha divergences, the Gaussian
in mean/variance coordinates, Bernoulli KL) plus non-Bregman counterexample
losses (Minkowski powers, L1, 0-1 on a grid).
"""

from __future__ import annotations

import functools
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
    json_value,
)

# Divergence values in [-CLAMP_TOL, 0) are treated as floating-point noise
# and clamped to zero; anything more negative raises ConvexityError.
# ``_clamp`` is the one place that applies it.
CLAMP_TOL = 1e-12

# Coordinates below this are considered "at the boundary" for log/exp forms.
TINY = 1e-300

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
FD_STEP = 1e-7


def xlogx(x: np.ndarray) -> np.ndarray:
    """x * log(x) with the 0 log 0 = 0 convention; negative x gives nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return np.where(x < 0, np.nan, out)


@dataclass(frozen=True)
class Generator:
    """Strictly convex potential, stated by its value.

    ``value`` maps (..., d) float arrays to (...) values. ``gradient``,
    mapping (..., d) to (..., d), is needed only to derive a dual pair that
    is not given in closed form; a divergence's gradients are otherwise its
    maps. Like :class:`Mapping`, neither converts its input.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class Mapping:
    """Invertible coordinate map with forward and inverse; ``coordinatewise``
    when each output coordinate depends only on the same input coordinate.
    Both take (..., d) float arrays as they are and return float arrays: the
    public entry points (``eval``, ``eval_batch``, ...) convert outside input."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    is_identity: bool = False
    coordinatewise: bool = False


def identity_mapping() -> Mapping:
    return Mapping(
        forward=lambda y: y,
        inverse=lambda u: u,
        is_identity=True,
        coordinatewise=True,
    )


def fd_jacobian(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector map at one point, the (d,)
    float array ``x``, with relative step ``FD_STEP``."""
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = FD_STEP * (1.0 + abs(x[j]))
        J[:, j] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * e[j])
    return J


def newton_invert(
    fn: Callable,
    target: np.ndarray,
    x0: np.ndarray,
    tol: float = NEWTON_TOL,
) -> np.ndarray:
    """Solve fn(x) = target by damped Newton; bisection fallback in 1-D.

    The Jacobian comes from central differences; the residual decides
    convergence. Raises :class:`ConvergenceError` with the last residual on failure.
    """
    target = np.atleast_1d(np.asarray(target, dtype=float))
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    resid = None
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
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
    dual_gen, dual_map : closed-form dual pair {B, f} when known (both or
        neither); otherwise derived here, at construction, from
        ``gen.gradient`` (f by composing grad A with g, its inverse and B by
        Newton-based inversion of grad A; Newton runs only when they are
        called, from g at the centre of ``domain``'s box, so a later
        ``domain`` reassignment does not move that start). One half alone,
        or neither with no gradient, raises ``ValueError``.
    direct_eval : optional numerically-stable closed form of the defining
        expression (used for batch evaluation, e.g. to honor the
        0 log 0 = 0 convention at boundary labels); :meth:`eval_batch`
        passes it float arrays. Defaults to the defining expression of
        :meth:`eval_defining_batch` on ``gen``, ``mapping`` and the dual map.
    check_boundary : optional validator ``(t, y, name, roles)`` raising
        BoundaryError where evaluation cannot work, naming the divergence,
        the argument by its role (``roles`` names t and y; ``reverse()``
        swaps both) and the coordinate.
    separable : whether the divergence is a sum of one term per coordinate
        (:attr:`LossFunction.separable`); ``reverse()`` keeps it.
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
        separable: bool = False,
    ):
        super().__init__(domain.dim, domain, name)
        self.gen = gen
        self.map = mapping
        if (dual_gen is None) != (dual_map is None):
            missing = "dual_map" if dual_map is None else "dual_gen"
            raise ValueError(f"{name}: the closed-form dual pair {{B, f}} lacks its {missing}")
        self._dual_closed_form = dual_gen is not None
        if not self._dual_closed_form and gen.gradient is None:
            raise ValueError(f"{name}: the generator has no gradient and no closed-form "
                             "dual pair {B, f} is given")
        self._dual = ((dual_gen, dual_map) if self._dual_closed_form
                      else _derived_dual(gen, mapping, domain))
        self.params = dict(params or {})
        # Built from parts, not bound to self: reference counting alone frees
        # a divergence and its cached reverse.
        self._direct_eval = direct_eval or functools.partial(
            _defining_batch, gen, mapping, self._dual[1])
        self._validator = check_boundary
        self.separable = separable
        self._reverse = None

    # -- evaluation ---------------------------------------------------

    def eval_defining_batch(self, T, Y):
        """Defining expression (g(y)-g(t)) . grad A(g(y)) - A(g(y)) + A(g(t)),
        with grad A(g(y)) = f(y)."""
        return _defining_batch(self.gen, self.map, self._dual[1], T, Y)

    def eval_defining(self, t, y) -> float:
        return self._eval_scalar(self.eval_defining_batch, t, y)

    def eval_batch(self, T, Y):
        return _clamp(self._direct_eval(np.asarray(T, float), np.asarray(Y, float)))

    def _check_boundary(self, t, y):
        if self._validator is not None:
            self._validator(t, y, self.name, ("label", "prediction"))

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
        return self._dual

    @property
    def dual_is_closed_form(self) -> bool:
        return self._dual_closed_form

    def reverse(self) -> "GBregmanDivergence":
        """The divergence with arguments interchanged: swaps {A,g} and {B,f}.

        ``eval_batch`` swaps this divergence's own evaluator, finite wherever
        it is (0 log 0 included); ``eval_defining_batch`` runs on {B, f}.
        Built once, and again after a change to this divergence's name,
        ``params`` dict (which the reverse shares), domain, separability or {A, g}."""
        twin = self._reverse
        if (twin is None or twin.name != f"reverse({self.name})" or twin.params is not self.params
                or twin.domain is not self.domain or twin.separable != self.separable
                or twin._dual[0] is not self.gen or twin._dual[1] is not self.map):
            (dual_gen, dual_map), forward = self.dual_pair(), self._direct_eval
            check = self._validator
            swapped = None if check is None else (
                lambda t, y, name, roles: check(y, t, name, roles[::-1]))
            twin = self._reverse = GBregmanDivergence(
                gen=dual_gen,
                mapping=dual_map,
                domain=self.domain,
                dual_gen=self.gen,
                dual_map=self.map,
                name=f"reverse({self.name})",
                direct_eval=lambda T, Y: forward(Y, T),
                check_boundary=swapped,
                separable=self.separable,
            )
            twin.params = self.params
        return twin

    # -- metadata -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": {k: json_value(v) for k, v in self.params.items()},
            "domain": self.domain.to_json(),
            "metadata": {
                "dual": "closed_form" if self._dual_closed_form else "newton",
            },
        }


def _defining_batch(gen: Generator, mapping: Mapping, f: Mapping, T, Y) -> np.ndarray:
    """(g(y)-g(t)) . f(y) - A(g(y)) + A(g(t)) for {A, g} = (gen, mapping)."""
    Y = np.asarray(Y, dtype=float)
    gt = mapping.forward(np.asarray(T, dtype=float))
    gy = mapping.forward(Y)
    return _clamp(np.sum((gy - gt) * f.forward(Y), axis=-1) - gen.value(gy) + gen.value(gt))


def _derived_dual(gen: Generator, mapping: Mapping, domain: Domain) -> tuple[Generator, Mapping]:
    """{B, f} of {A, g} = (gen, mapping) from ``gen.gradient``: f = grad A o g;
    f's inverse and B invert grad A by Newton, from g at the centre of the
    domain's box (a missing or infinite bound read as -1 or 1)."""
    lo = -np.ones(domain.dim) if domain.lower is None else np.where(
        np.isfinite(domain.lower), domain.lower, -1.0)
    hi = np.ones(domain.dim) if domain.upper is None else np.where(
        np.isfinite(domain.upper), domain.upper, 1.0)
    with np.errstate(all="ignore"):
        start = mapping.forward(0.5 * (lo + hi))

    def f_forward(y):
        return gen.gradient(mapping.forward(y))

    def grad_a_inverse(v):
        return newton_invert(gen.gradient, v, start)

    def f_inverse(v):
        return mapping.inverse(grad_a_inverse(v))

    def b_row(v):
        u = grad_a_inverse(v)
        return float(u @ v - gen.value(u))

    def per_row(fn):
        # fn maps one (d,) point; stack its results over leading axes.
        def batched(v):
            out = [np.asarray(fn(row)) for row in v.reshape(-1, v.shape[-1])]
            return np.stack(out).reshape(v.shape[:-1] + out[0].shape)

        return batched

    return Generator(per_row(b_row)), Mapping(f_forward, f_inverse)


def _clamp(vals: np.ndarray) -> np.ndarray:
    """``vals`` with finite values in [-CLAMP_TOL, 0) set to zero; one further
    below raises :class:`ConvexityError`."""
    vals = np.asarray(vals, dtype=float)
    if not (vals < 0).any():  # nan compares false
        return vals
    negative = np.isfinite(vals) & (vals < 0)
    if (negative & (vals < -CLAMP_TOL)).any():
        raise ConvexityError(f"divergence evaluated to {vals[negative].min():.3e}, "
                             f"below -{CLAMP_TOL}")
    return np.where(negative, 0.0, vals)


# -- boundary validators ------------------------------------------------


def _require_positive(t: np.ndarray, y: np.ndarray, name: str, roles: tuple[str, str]):
    """Coordinates of ``y`` may only vanish where ``t`` vanishes too (the
    0 log 0 = 0 convention covers exactly that case)."""
    small = np.where((y < TINY) & (t >= TINY))[0]
    if small.size:
        raise BoundaryError(
            f"{name}: {roles[1]} coordinate {int(small[0])} = {y[int(small[0])]:.3g} "
            f"is at the domain boundary (needs > 0)"
        )


def _require_interior_unit(t: np.ndarray, y: np.ndarray, name: str, roles: tuple[str, str]):
    """Coordinates of ``y`` may only reach 0 or 1 where ``t`` does too."""
    bad = np.where(((y < TINY) & (t >= TINY)) | ((1.0 - y < TINY) & (1.0 - t >= TINY)))[0]
    if bad.size:
        raise BoundaryError(
            f"{name}: {roles[1]} coordinate {int(bad[0])} = {y[int(bad[0])]:.3g} "
            f"is at the boundary of (0, 1)"
        )


# -- catalog entries ----------------------------------------------------


def _quadratic_pair(K):
    """Generator u.K.u, its conjugate v.K^-1.v/4 and the dual map y -> 2 K y.

    Returns K as a float matrix with the three. K must be symmetric positive
    definite; the identity skips that O(d^3) check, is its own inverse, and
    its forms need no matrix product: sums of squares and scalings. Other
    forms, and K's inverse, take fixed-order sums, not BLAS, so that their
    digits do not depend on the BLAS thread count.
    """
    K = np.asarray(K, dtype=float)
    identity = K.ndim == 2 and np.array_equal(K, np.eye(K.shape[0]))
    if not identity:
        _check_positive_definite(K)
    Kinv = K if identity else _inverse(K)

    def quad(M):
        def value(u):
            uM = u if identity else np.einsum("...i,ij->...j", u, M)
            return np.einsum("...i,...i->...", uM, u)

        return value

    def linear(M, c):
        def apply(x):
            return c * x if identity else np.einsum("...j,ij->...i", c * x, M)

        return apply

    dual_value = quad(Kinv)
    gen, dual_gen = Generator(quad(K)), Generator(lambda v: 0.25 * dual_value(v))
    dual_map = Mapping(forward=linear(K, 2.0), inverse=linear(Kinv, 0.5))
    return K, gen, dual_gen, dual_map


def _inverse(K: np.ndarray) -> np.ndarray:
    """K^-1 of a symmetric positive definite K by Gauss-Jordan elimination
    without pivoting, in elementwise updates whose digits, unlike LAPACK's
    blocked inverse, do not depend on the BLAS thread count."""
    d = K.shape[0]
    A = np.concatenate([K, np.eye(d)], axis=1)
    for k in range(d):
        row = A[k, k : d + k + 1] / A[k, k]  # zero outside these columns
        A[:, k : d + k + 1] -= A[:, k, None] * row
        A[k, k : d + k + 1] = row
    return A[:, d:]


def _check_positive_definite(K: np.ndarray):
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be a square matrix")
    if not np.allclose(K, K.T, atol=1e-12):
        raise ValueError("K must be symmetric")
    if np.any(np.linalg.eigvalsh(K) <= 0):
        raise ValueError("K must be positive definite")


def make_mahalanobis(K, bound: float = 10.0, name: str = "mahalanobis") -> GBregmanDivergence:
    """(t - y) . K (t - y) on the box [-bound, bound]^d: the quadratic form
    of :func:`make_g_mahalanobis` with the identity map."""
    K = np.asarray(K, dtype=float)
    box = bound * np.ones(K.shape[0] if K.ndim else 1)
    div = make_g_mahalanobis(identity_mapping(), K, Domain.box(-box, box), name)
    div.params["bound"] = bound
    return div


def make_sq_euclidean(dim: int, bound: float = 10.0) -> GBregmanDivergence:
    div = make_mahalanobis(np.eye(dim), bound=bound, name="sq_euclidean")
    div.params = {"dim": dim, "bound": bound}
    return div


def make_g_mahalanobis(
    mapping: Mapping, K, domain: Domain, name: str = "g_mahalanobis"
) -> GBregmanDivergence:
    """Squared Mahalanobis distance after an invertible change of variables;
    separable when K is diagonal, the map coordinatewise and the domain a box."""
    K, gen, quad_dual_gen, quad_dual_map = _quadratic_pair(K)

    def f_forward(y):
        return quad_dual_map.forward(mapping.forward(y))

    def f_inverse(v):
        return mapping.inverse(quad_dual_map.inverse(v))

    def direct(T, Y):
        return gen.value(mapping.forward(T) - mapping.forward(Y))

    return GBregmanDivergence(
        gen=gen,
        mapping=mapping,
        domain=domain,
        dual_gen=quad_dual_gen,
        dual_map=Mapping(forward=f_forward, inverse=f_inverse),
        name=name,
        params={"K": K},
        direct_eval=direct,
        # K is diagonal when all its nonzeros are on the diagonal; counting
        # them needs no d x d temporary.
        separable=bool(np.count_nonzero(K) == np.count_nonzero(np.diagonal(K))
                       and mapping.coordinatewise and domain.n_constraints == 0),
    )


def _log_mapping() -> Mapping:
    def forward(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(y)

    return Mapping(
        forward=forward,
        inverse=np.exp,
        coordinatewise=True,
    )


def _prob_domain(dim: int, simplex: bool) -> Domain:
    if not isinstance(simplex, bool):
        raise TypeError(f"simplex must be true or false, got {simplex!r}")
    return Domain.simplex(dim) if simplex else Domain.unit_box(dim)


def _kl_direct(T: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum t (log t - log y) + y - t over the last axis, 0 log 0 = 0.

    The logs are taken per point, before ``T`` and ``Y`` broadcast. The
    pairing is computed in place in one full-size buffer; ``Y - T`` is
    added to it as one term, the only other full-size array."""
    pos = T > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        buf = np.log(np.where(pos, T, 1.0)) - np.log(Y)
        buf *= T
    np.copyto(buf, 0.0, where=~pos)
    buf += Y - T
    return buf.sum(axis=-1)


def make_kl(dim: int, simplex: bool = False) -> GBregmanDivergence:
    """Forward KL in proper form: sum t log(t/y) + sum y - sum t.

    Generated by the negative entropy sum u log u - sum u, whose conjugate
    is sum exp(v). Labels may have zero coordinates (0 log 0 = 0);
    predictions must be strictly positive.
    """

    def neg_entropy(u):
        return np.sum(xlogx(u) - u, axis=-1)

    return GBregmanDivergence(
        gen=Generator(neg_entropy),
        mapping=identity_mapping(),
        domain=_prob_domain(dim, simplex),
        dual_gen=Generator(lambda v: np.sum(np.exp(v), axis=-1)),
        dual_map=_log_mapping(),
        name="kl",
        params={"dim": dim, "simplex": simplex},
        direct_eval=_kl_direct,
        check_boundary=_require_positive,
        separable=not simplex,
    )


def make_reverse_kl(dim: int, simplex: bool = False) -> GBregmanDivergence:
    """Reverse KL: sum y log(y/t) + sum t - sum y (labels strictly positive),
    :func:`make_kl` reversed."""
    div = make_kl(dim, simplex).reverse()
    div.name = "reverse_kl"
    return div


def _power_pair(p: float, q: float) -> tuple[Generator, Mapping]:
    """Potential q^(q/p) * sum u_i^(1/p) after the map y_i^p / q: alpha's {A, g}
    for (p, q) = (a, 1 - a), its {B, f} for (1 - a, a). q is passed because
    1 - (1 - a) != a in floating point."""
    c = q ** (q / p)
    gen = Generator(lambda u: c * np.sum(u ** (1.0 / p), axis=-1))
    mapping = Mapping(forward=lambda y: y**p / q, inverse=lambda u: (q * u) ** (1.0 / p))
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
        separable=not simplex,
    )


def gaussian_log_partition() -> Generator:
    """Log-partition of the univariate Gaussian in natural parameters.

    Natural parameters are (m/s, -1/(2s)) for mean m and variance s; the
    value includes all additive constants so that
    -log density = -theta . (z, z^2) + value(theta) exactly.
    """

    def value(u):
        u1, u2 = u[..., 0], u[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return -(u1**2) / (4.0 * u2) - 0.5 * np.log(-u2 / np.pi)

    return Generator(value)


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
        m, s = y[..., 0], y[..., 1]
        return np.stack([m / s, -0.5 / s], axis=-1)

    def g_inverse(u):
        s = -0.5 / u[..., 1]
        return np.stack([u[..., 0] * s, s], axis=-1)

    def f_forward(y):
        m, s = y[..., 0], y[..., 1]
        return np.stack([m, m**2 + s], axis=-1)

    def f_inverse(v):
        return np.stack([v[..., 0], v[..., 1] - v[..., 0] ** 2], axis=-1)

    def b_value(v):
        s = v[..., 1] - v[..., 0] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return -0.5 * np.log(2.0 * np.pi * s) - 0.5

    def direct(T, Y):
        mt, st = T[..., 0], T[..., 1]
        my, sy = Y[..., 0], Y[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = sy / st
            return (my - mt) ** 2 / (2.0 * st) - 0.5 * (1.0 - ratio + np.log(ratio))

    def check_boundary(t, y, name, roles):
        for which, p in zip(roles, (t, y)):
            if p[1] < TINY:
                raise BoundaryError(
                    f"{name}: {which} coordinate 1 (variance) = {p[1]:.3g} must be > 0"
                )

    domain = Domain.box(
        np.array([-mean_bound, var_min]), np.array([mean_bound, var_max])
    )
    return GBregmanDivergence(
        gen=gaussian_log_partition(),
        mapping=Mapping(forward=g_forward, inverse=g_inverse),
        domain=domain,
        dual_gen=Generator(b_value),
        dual_map=Mapping(forward=f_forward, inverse=f_inverse),
        name="gaussian_canonical",
        params={"mean_bound": mean_bound, "var_min": var_min, "var_max": var_max},
        direct_eval=direct,
        check_boundary=check_boundary,
    )


def make_bernoulli_kl() -> GBregmanDivergence:
    """Binary KL t log(t/y) + (1-t) log((1-t)/(1-y)) on [0, 1]."""

    def value(u):
        return np.sum(xlogx(u) + xlogx(1.0 - u), axis=-1)

    def logit(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(u / (1.0 - u))

    def expit(v):
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    def b_value(v):
        return np.sum(np.logaddexp(0.0, v), axis=-1)

    def direct(T, Y):
        # The y - t terms of the two KL kernels cancel.
        return _kl_direct(T, Y) + _kl_direct(1.0 - T, 1.0 - Y)

    return GBregmanDivergence(
        gen=Generator(value),
        mapping=identity_mapping(),
        domain=Domain.unit_box(1),
        dual_gen=Generator(b_value),
        dual_map=Mapping(forward=logit, inverse=expit),
        name="bernoulli_kl",
        params={},
        direct_eval=direct,
        check_boundary=_require_interior_unit,
        separable=True,
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
        separable=True,
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
    if not isinstance(levels, (int, np.integer)) or isinstance(levels, bool) or levels < 2:
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")

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
        unknown = [key for key in params if key not in ("K", "domain", "g")]
        if unknown:
            raise TypeError(f"g_mahalanobis got an unexpected parameter {unknown[0]!r} "
                            "(allowed: K, domain, g)")
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
