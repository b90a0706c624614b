"""Shared domain types: points, weighted ensembles, feasible domains, losses.

Points are plain 1-D numpy arrays. Distributions of labels and predictions
are finite weighted point sets (:class:`WeightedEnsemble`); every quantity
downstream is an expectation over such a set, so no continuous-measure
machinery is needed.

Each input check lives here once and works on whole arrays. An ensemble
is validated by ``WeightedEnsemble.__post_init__`` (which also drops atoms
of zero weight). Domain membership is the row mask :meth:`Domain.feasible`;
``contains``, ``require`` and ``require_points``, which the centroid
solvers and the CLI call, are its cases. Every scalar ``eval`` goes through
``LossFunction._eval_scalar``, which also runs the loss's ``_check_boundary``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

# Absolute feasibility tolerance (infinity norm) for box bounds and linear
# equality constraints.
FEASIBILITY_TOL = 1e-10

# Weights must sum to one within this tolerance after normalization.
WEIGHT_TOL = 1e-12

# Batched evaluations (pair expectations, the oracle's candidates) hand
# ``eval_batch`` at most this many (rows x support x d) float64s (512 KiB)
# at a time, so their temporaries do not grow with the input. Read at call
# time.
BLOCK_FLOATS = 2**16


class BoundaryError(ValueError):
    """Evaluation hit the boundary of a divergence's domain (e.g. log of 0)."""


class ConvexityError(ArithmeticError):
    """A divergence evaluated significantly below zero."""


class ConvergenceError(RuntimeError):
    """An iterative solve (Newton, bisection) failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InfeasibleMeanError(ValueError):
    """A closed-form mean fell outside the domain; use a constrained solver."""


@dataclass(frozen=True)
class Domain:
    """Feasible set: box bounds plus optional linear equality constraints.

    A point ``y`` is feasible iff ``lower - tol <= y <= upper + tol``
    coordinatewise and ``|eq_lhs @ y - eq_rhs|_inf <= tol``. Bounds are
    treated as closed; strict-interior requirements (positive coordinates
    for logarithms, positive variances) are enforced by the evaluators
    themselves, which raise :class:`BoundaryError`.
    """

    dim: int
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for name in ("lower", "upper"):
            b = getattr(self, name)
            if b is not None:
                b = np.asarray(b, dtype=float)
                if b.shape != (self.dim,):
                    raise ValueError(f"{name} must have shape ({self.dim},)")
                if np.isnan(b).any():
                    raise ValueError(f"{name} bound of coordinate {np.argmax(np.isnan(b))} is nan")
                object.__setattr__(self, name, b)
        if self.lower is not None and self.upper is not None and (self.lower > self.upper).any():
            i = np.argmax(self.lower > self.upper)
            raise ValueError(f"coordinate {i} has lower bound {self.lower[i]:g} above "
                             f"its upper bound {self.upper[i]:g}")
        if (self.eq_lhs is None) != (self.eq_rhs is None):
            raise ValueError("eq_lhs and eq_rhs must be given together")
        if self.eq_lhs is not None:
            W = np.atleast_2d(np.asarray(self.eq_lhs, dtype=float))
            b = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
            if W.shape[1] != self.dim or W.shape[0] != b.size:
                raise ValueError("equality constraint shapes inconsistent")
            if W.shape[0] > self.dim:
                raise ValueError("more equality constraints than dimensions")
            if np.linalg.matrix_rank(W) < W.shape[0]:
                raise ValueError("eq_lhs must have full row rank")
            object.__setattr__(self, "eq_lhs", W)
            object.__setattr__(self, "eq_rhs", b)
        # Worked out once and kept out of the fields (and so out of equality).
        object.__setattr__(self, "_within", self._shifted(FEASIBILITY_TOL))
        object.__setattr__(self, "_is_simplex", self.n_constraints == 1 and all(
            np.all(v == c) for v, c in ((self.lower, 0), (self.upper, 1),
                                        (self.eq_lhs, 1), (self.eq_rhs, 1))))

    @property
    def n_constraints(self) -> int:
        return 0 if self.eq_lhs is None else self.eq_lhs.shape[0]

    @property
    def is_bounded(self) -> bool:
        return self._within[2]

    def _shifted(self, tol: float) -> tuple:
        """(lower - tol, upper + tol), a missing bound as -inf or inf, and
        whether both are finite, so that no non-finite value lies between."""
        lower = (-np.inf if self.lower is None else self.lower) - tol
        upper = (np.inf if self.upper is None else self.upper) + tol
        return lower, upper, bool(np.isfinite(lower).all() and np.isfinite(upper).all())

    def feasible(self, Y: np.ndarray, tol: float = FEASIBILITY_TOL) -> np.ndarray:
        """Mask over the rows of the (..., d) array ``Y``: which lie in the
        domain within ``tol``. Rows with a non-finite coordinate never do."""
        Y = np.asarray(Y, dtype=float)
        lower, upper, bounded = self._within if tol == FEASIBILITY_TOL else self._shifted(tol)
        ok = (Y >= lower) & (Y <= upper)  # nan compares false
        if not bounded:
            ok &= np.isfinite(Y)
        ok = ok.all(axis=-1)
        if self.eq_lhs is not None:
            with np.errstate(invalid="ignore"):  # inf - inf in a row already masked
                resid = Y @ self.eq_lhs.T - self.eq_rhs
            ok &= np.abs(resid).max(axis=-1) <= tol
        return ok

    def contains(self, y) -> bool:
        y = np.asarray(y, dtype=float)
        return y.shape == (self.dim,) and bool(self.feasible(y))

    def require_points(self, P: np.ndarray, what: str = "point") -> None:
        """Raise ``ValueError`` unless ``P`` is an (n, d) array of feasible
        points; the message names the dimension or the first infeasible row."""
        if P.ndim != 2 or P.shape[1] != self.dim:
            raise ValueError(f"{what} dimension: expected {self.dim}, got shape {P.shape}")
        ok = self.feasible(P)
        if not ok.all():
            raise ValueError(f"{what} {P[ok.argmin()].tolist()} is infeasible for this domain")

    def require(self, y, what: str = "point") -> np.ndarray:
        """``y`` as a feasible 1-D point: the one-row case of :meth:`require_points`."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        self.require_points(y[None, :], what)
        return y

    def without_equalities(self) -> "Domain":
        return Domain(self.dim, self.lower, self.upper)

    @staticmethod
    def box(lower, upper) -> "Domain":
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        return Domain(lower.size, lower, np.atleast_1d(np.asarray(upper, dtype=float)))

    @staticmethod
    def unit_box(dim: int) -> "Domain":
        return Domain.box(np.zeros(dim), np.ones(dim))

    @staticmethod
    def simplex(dim: int) -> "Domain":
        """Probability simplex: the unit box plus a sum-to-one constraint."""
        return Domain(
            dim,
            lower=np.zeros(dim),
            upper=np.ones(dim),
            eq_lhs=np.ones((1, dim)),
            eq_rhs=np.ones(1),
        )

    def to_json(self) -> dict:
        out: dict = {"dim": self.dim}
        if self.lower is not None:
            out["lower"] = self.lower.tolist()
        if self.upper is not None:
            out["upper"] = self.upper.tolist()
        if self.eq_lhs is not None:
            out["eq"] = {"W": self.eq_lhs.tolist(), "b": self.eq_rhs.tolist()}
        return out

    @staticmethod
    def from_json(obj: dict) -> "Domain":
        unknown = [key for key in obj if key not in ("dim", "lower", "upper", "eq")]
        if unknown:
            raise ValueError(f"unknown domain key {unknown[0]!r} (allowed: dim, lower, upper, eq)")
        dim, eq = obj["dim"], obj.get("eq")
        if eq is not None and sorted(eq) != ["W", "b"]:
            raise ValueError(f"domain eq must hold exactly the keys W and b, got {eq!r:.60}")
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        return Domain(
            dim=dim,
            lower=None if obj.get("lower") is None else np.asarray(obj["lower"], float),
            upper=None if obj.get("upper") is None else np.asarray(obj["upper"], float),
            eq_lhs=None if eq is None else np.asarray(eq["W"], float),
            eq_rhs=None if eq is None else np.asarray(eq["b"], float),
        )


def json_value(value):
    """``value`` as JSON: a numpy array as nested lists, anything else as is."""
    return value.tolist() if isinstance(value, np.ndarray) else value


class Record:
    """Base of the result dataclasses: :meth:`to_json` writes every field in
    declaration order, numpy arrays as nested lists."""

    def to_json(self) -> dict:
        return {f.name: json_value(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class WeightedEnsemble(Record):
    """Finite discrete distribution over points in d-dimensional space.

    ``points`` has shape (n, d) and ``weights`` shape (n,) with nonnegative
    entries summing to one. Use :func:`make_ensemble` to construct with
    normalization.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValueError(f"{w.size} weights for {pts.shape[0]} points")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("non-finite input")
        lightest, total = w.min(), w.sum()
        if lightest < 0:
            raise ValueError("weights must be nonnegative")
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}; make_ensemble normalizes any not all zero")
        # An atom of zero weight is not in the support; dropping it keeps a
        # loss that is infinite there (log 0) out of every expectation.
        if lightest == 0:
            pts, w = pts[w > 0], w[w > 0]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def from_json(obj: dict) -> "WeightedEnsemble":
        return make_ensemble(obj["points"], obj["weights"])


def make_ensemble(points, weights) -> WeightedEnsemble:
    """Build a :class:`WeightedEnsemble`, renormalizing the weights.

    ``points`` is an (n, d) array-like of equal-length coordinate vectors,
    or a 1-D one of n scalars (n points of dimension 1); ``weights`` are
    nonnegative and not all zero. Every other check is the ensemble's own.
    """
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:  # ragged rows or non-numeric entries
        raise ValueError(f"points must be numeric vectors of one dimension ({exc})") from None
    if pts.ndim == 1:
        pts = pts[:, None]
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if 0 < total < np.inf and abs(total - 1.0) > WEIGHT_TOL:
        w = w / total
    return WeightedEnsemble(pts, w)


class LossFunction:
    """A nonnegative loss ``eval(label, prediction)`` on a common domain.

    Subclasses implement ``eval_batch(T, Y)``, the one evaluation contract:
    the last axis of both arrays is d, their leading axes broadcast against
    each other under numpy's rules, and the result has the broadcast leading
    shape. Callers pass each support point once per call, e.g. (n, 1, d)
    labels against (1, m, d) predictions for the (n, m) product, so a
    per-point transform (g(t), log y) runs once per point and call and
    only the final pairing is full size. Non-finite outputs signal
    boundary trouble without raising, which lets grid searches mask bad
    points. The scalar :meth:`eval` path validates feasibility and raises
    instead.
    """

    def __init__(self, dim: int, domain: Domain, name: str = "loss"):
        if domain.dim != dim:
            raise ValueError("domain dimension mismatch")
        self.dim = dim
        self.domain = domain
        self.name = name

    # Losses that are non-smooth where any t_i == y_i (absolute-value style
    # kinks); finite-difference stencils must keep clear of the diagonal.
    has_diagonal_kinks: bool = False

    # Losses that are a sum of one term per coordinate, sum_i l_i(t_i, y_i),
    # on a domain without equality constraints: the oracle then searches
    # one axis at a time.
    separable: bool = False

    def eval_batch(self, T: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reverse(self) -> "LossFunction":
        """The loss with its arguments interchanged."""
        raise NotImplementedError

    def eval(self, t, y) -> float:
        return self._eval_scalar(self.eval_batch, t, y)

    def _check_boundary(self, t: np.ndarray, y: np.ndarray) -> None:
        """Raise ``BoundaryError`` where evaluation cannot work, naming the
        offending coordinate; this default accepts every pair."""

    def _eval_scalar(self, batch: Callable, t, y) -> float:
        """``batch`` at one (label, prediction) pair: both must lie in the
        domain and pass ``_check_boundary``; a non-finite value raises."""
        t = self.domain.require(t, "label")
        y = self.domain.require(y, "prediction")
        self._check_boundary(t, y)
        with np.errstate(all="ignore"):
            v = float(batch(t, y))
        if not np.isfinite(v):
            _not_finite(self, t, y)
        return v

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, dim={self.dim})"


class CallableLoss(LossFunction):
    """Wrap a plain ``(t, y) -> value`` function as a :class:`LossFunction`.

    ``fn`` gets the two float arrays of :meth:`LossFunction.eval_batch` as
    they are and must broadcast them itself (elementwise numpy does).
    ``separable`` declares ``fn`` a sum of one term per coordinate.
    """

    def __init__(self, dim, domain, fn, name="loss", has_diagonal_kinks=False,
                 separable=False):
        super().__init__(dim, domain, name)
        self._fn = fn
        self.has_diagonal_kinks = has_diagonal_kinks
        self.separable = separable

    def eval_batch(self, T, Y):
        return self._fn(np.asarray(T, float), np.asarray(Y, float))

    def reverse(self) -> "CallableLoss":
        fn = self._fn
        return CallableLoss(self.dim, self.domain, lambda T, Y: fn(Y, T),
                            f"reverse({self.name})", self.has_diagonal_kinks, self.separable)


def _require_dim(loss: LossFunction, dim: int, what: str) -> None:
    if dim != loss.dim:
        raise ValueError(f"{what} dimension: expected {loss.dim} for {loss.name}, got {dim}")


def _not_finite(loss: LossFunction, t: np.ndarray, y: np.ndarray):
    """Raise ``BoundaryError`` for a pair, from ``_check_boundary`` if it can."""
    loss._check_boundary(t, y)
    raise BoundaryError(f"{loss.name} is not finite at label={t}, prediction={y}")


def support_product(loss: LossFunction, T: np.ndarray, Y: np.ndarray, used=None) -> np.ndarray:
    """The (nt, ny) matrix of loss(T[i], Y[j]), from ``eval_batch`` in blocks
    of whole rows, at most ``BLOCK_FLOATS`` (rows x ny x d) floats and one
    row at least: the block size bounds memory and changes no value. Only
    the cells of the mask ``used`` (all by default) must be finite; the
    first used non-finite value, in row order, raises ``BoundaryError``."""
    nt, ny = T.shape[0], Y.shape[0]
    rows = max(1, BLOCK_FLOATS // (ny * loss.dim))
    values = np.empty((nt, ny))
    with np.errstate(all="ignore"):
        for i in range(0, nt, rows):
            values[i : i + rows] = loss.eval_batch(T[i : i + rows, None, :], Y[None])
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite if used is None else used & ~finite
        if bad.any():
            i, j = np.argwhere(bad)[0]
            _not_finite(loss, T[i], Y[j])
    return values


def wide_inner_term(loss: LossFunction, labels: WeightedEnsemble, preds: WeightedEnsemble,
                    c: np.ndarray, border: int = 0) -> float | None:
    """(E g(T) - g(c)) . (E f(Y) - f(c)) of a g-Bregman loss, so that E D(T, Y)
    is E D(T, c) + E D(c, Y) minus it (the three-point identity in
    expectation), from fixed-order einsum sums without BLAS; f is closed
    form even for a derived dual. None, and the caller forms the product,
    when the (n + border) x (m + border) product fits one block, when the
    loss has no dual pair or when the term is not finite."""
    if (labels.size + border) * (preds.size + border) * loss.dim <= BLOCK_FLOATS \
            or not hasattr(loss, "dual_pair"):
        return None
    g, f, c = loss.map.forward, loss.dual_pair()[1].forward, c[None, :]
    with np.errstate(all="ignore"):
        # Differences before the sums keep the digits of tight points far out.
        dg = np.einsum("i,id->d", labels.weights, g(labels.points) - g(c))
        df = np.einsum("i,id->d", preds.weights, f(preds.points) - f(c))
        inner = float(np.einsum("d,d->", dg, df))
    return inner if np.isfinite(inner) else None


def pair_expectation(
    loss: LossFunction, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> float:
    """E over independent (label, prediction) pairs of the loss: the weighted
    sum, in a fixed order, of the :func:`support_product` of the labels
    against the predictions, or, where :func:`wide_inner_term` applies at c
    the last prediction, E D(T, c) + E D(c, Y) minus that term, within float
    noise of the product. Both ensembles must have the loss's dimension
    (``ValueError`` otherwise).
    """
    _require_dim(loss, labels.dim, "label")
    _require_dim(loss, preds.dim, "prediction")
    c = preds.points[-1:]
    inner = wide_inner_term(loss, labels, preds, c[0])
    if inner is not None:
        to_c = support_product(loss, labels.points, c)[:, 0]
        from_c = support_product(loss, c, preds.points)[0]
        return float((labels.weights * to_c).sum() + (preds.weights * from_c).sum() - inner)
    values = support_product(loss, labels.points, preds.points)
    return float((labels.weights[:, None] * preds.weights[None, :] * values).sum())


def side_expectation(loss: LossFunction, point: np.ndarray, ens: WeightedEnsemble) -> float:
    """E over the ensemble of loss(point, .), from the :func:`support_product`
    of the point with the ensemble; E loss(., point) is the expectation of
    ``loss.reverse()``. The point and the ensemble must have the loss's
    dimension (``ValueError`` otherwise)."""
    P = np.asarray(point, dtype=float).reshape(1, -1)
    _require_dim(loss, P.shape[1], "point")
    _require_dim(loss, ens.dim, "ensemble")
    return float((ens.weights * support_product(loss, P, ens.points)[0]).sum())
