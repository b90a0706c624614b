"""Central labels and central predictions.

The central label is the single point minimizing the expected divergence to
a label distribution (expectation over the first argument, minimization
over the second); the central prediction minimizes over the first argument
against a prediction distribution. For g-Bregman divergences these are the
g-mean and f-mean; with linear equality constraints they follow from a
Newton solve on the Lagrange multipliers. A grid + multi-start Nelder-Mead
oracle provides an independent check and handles arbitrary losses.
:func:`central_label` and :func:`central_prediction` pick the cheapest of
these that is exact for a given loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .core import (
    ConvergenceError,
    Domain,
    InfeasibleMeanError,
    LossFunction,
    WeightedEnsemble,
    side_expectation,
)
from .divergences import GBregmanDivergence, Mapping

LAGRANGE_TOL = 1e-10
GRID_RESOLUTION = 41
N_RESTARTS = 5
# Candidates whose objective is within this of the best count as ties.
TIE_TOL = 1e-9
# Ties farther apart than this (max-abs) mark the minimizer as non-unique.
DISTINCT_TOL = 1e-4


@dataclass(frozen=True)
class CentroidResult:
    """A centroid with its multipliers, objective value, and provenance."""

    point: np.ndarray
    multipliers: np.ndarray
    objective: float
    method: str
    non_unique: bool = False

    def to_json(self) -> dict:
        return {
            "point": np.asarray(self.point).tolist(),
            "multipliers": np.asarray(self.multipliers).tolist(),
            "objective": self.objective,
            "method": self.method,
            "non_unique": self.non_unique,
        }


def _mean_through(mapping_forward, mapping_inverse, ens: WeightedEnsemble) -> np.ndarray:
    transformed = mapping_forward(ens.points)
    mean = np.einsum("k,kd->d", ens.weights, np.asarray(transformed, dtype=float))
    return np.asarray(mapping_inverse(mean), dtype=float)


def g_mean_label(div: GBregmanDivergence, labels: WeightedEnsemble) -> CentroidResult:
    """Central label: inverse map of the mean of g over the labels.

    Raises :class:`InfeasibleMeanError` when the mean violates the domain's
    constraints (use the constrained solver then).
    """
    point = _mean_through(div.map.forward, div.map.inverse, labels)
    if not div.domain.contains(point):
        raise InfeasibleMeanError(
            f"g-mean label {point} is infeasible; use a constrained solver"
        )
    objective = side_expectation(div, point, labels, point_side="second_arg")
    return CentroidResult(point, np.zeros(0), objective, "closed_form")


def f_mean_prediction(div: GBregmanDivergence, preds: WeightedEnsemble) -> CentroidResult:
    """Central prediction: inverse map of the mean of f over the predictions."""
    _, f = div.dual_pair()
    point = _mean_through(f.forward, f.inverse, preds)
    if not div.domain.contains(point):
        raise InfeasibleMeanError(
            f"f-mean prediction {point} is infeasible; use a constrained solver"
        )
    objective = side_expectation(div, point, preds, point_side="first_arg")
    return CentroidResult(point, np.zeros(0), objective, "closed_form")


def _lagrange_solve(
    mean_coords: np.ndarray,
    mapping: Mapping,
    domain: Domain,
    tol: float = LAGRANGE_TOL,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve map(x) = mean_coords + W^T lam subject to W x = b for (x, lam).

    Newton iteration on the k multipliers, starting at lam = 0. The k x k
    matrix W J W^T, with J the Jacobian of the inverse map, comes from
    central differences of the inverse map along each row of W: O(k d) work
    per step. It only steers; the residual W x - b decides convergence.
    """
    W, b = domain.eq_lhs, domain.eq_rhs
    if W is None:
        raise ValueError("domain has no equality constraints")
    lam = np.zeros(W.shape[0])

    def point_at(l):
        return np.asarray(mapping.inverse(mean_coords + W.T @ l), dtype=float)

    def newton_matrix(l):
        # Coordinates with u = -inf (labels sharing a zero) stay there under
        # the shift and give exact zero columns.
        u = mean_coords + W.T @ l
        h = 1e-6 * (1.0 + np.max(np.abs(u[np.isfinite(u)]), initial=0.0))
        inv = mapping.inverse
        cols = [(inv(u + h * w) - inv(u - h * w)) / (2.0 * h) for w in W]
        return W @ np.stack(cols, axis=-1)

    x = point_at(lam)
    resid = W @ x - b
    res_norm = float(np.max(np.abs(resid)))
    for _ in range(max_iter):
        if res_norm <= tol:
            return x, lam
        J = newton_matrix(lam)
        if not np.all(np.isfinite(J)):
            raise ConvergenceError(
                f"non-finite multiplier system (residual {res_norm:.3e})", res_norm
            )
        try:
            step = np.linalg.solve(J, resid)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular multiplier system (residual {res_norm:.3e})", res_norm
            ) from exc
        alpha = 1.0
        while alpha > 1e-12:
            lam_new = lam - alpha * step
            x_new = point_at(lam_new)
            r_new = W @ x_new - b
            if np.all(np.isfinite(r_new)) and np.max(np.abs(r_new)) < res_norm:
                lam, x, resid = lam_new, x_new, r_new
                res_norm = float(np.max(np.abs(resid)))
                break
            alpha *= 0.5
        else:
            break
    if res_norm <= tol:
        return x, lam
    raise ConvergenceError(
        f"multiplier Newton did not converge (residual {res_norm:.3e})", res_norm
    )


def _constrained_f_mean(
    div: GBregmanDivergence, ens: WeightedEnsemble
) -> tuple[np.ndarray, np.ndarray]:
    """Solve f(x) = mean f(P) + W^T lam, W x = b for the dual map f of ``div``."""
    _, f = div.dual_pair()
    mean_f = np.einsum(
        "k,kd->d", ens.weights, np.asarray(f.forward(ens.points), dtype=float)
    )
    point, lam = _lagrange_solve(mean_f, f, div.domain)
    if not div.domain.without_equalities().contains(point):
        raise ValueError(
            f"constrained centroid {point} violates the box bounds; active-set "
            "handling of inequality constraints is not supported"
        )
    return point, lam


def constrained_central_prediction(
    div: GBregmanDivergence, preds: WeightedEnsemble
) -> CentroidResult:
    """Central prediction under linear equality constraints W y = b.

    Requires a standard Bregman divergence (identity coordinate map): the
    minimizer satisfies f(y*) = mean f(Y) + W^T lam with W y* = b.
    """
    if not div.map_is_identity:
        raise ValueError(
            "constrained central predictions need an identity coordinate map; "
            "for other divergences fall back to brute_force_centroid"
        )
    point, lam = _constrained_f_mean(div, preds)
    objective = side_expectation(div, point, preds, point_side="first_arg")
    return CentroidResult(point, lam, objective, "lagrange")


def constrained_central_label(
    div: GBregmanDivergence, labels: WeightedEnsemble
) -> CentroidResult:
    """Central label under linear equality constraints W t = b.

    By duality this is the constrained central prediction of
    ``div.reverse()``, which needs an identity dual map:
    g(t*) = mean g(T) + W^T lam, W t* = b. The objective is evaluated on
    ``div`` itself: the reversed divergence evaluates its defining form,
    which is not finite where labels vanish (0 log 0).
    """
    if not div.dual_map_is_identity:
        raise ValueError(
            "constrained central labels need an identity dual map; "
            "for other divergences fall back to brute_force_centroid"
        )
    point, lam = _constrained_f_mean(div.reverse(), labels)
    objective = side_expectation(div, point, labels, point_side="second_arg")
    return CentroidResult(point, lam, objective, "lagrange")


def central_label(loss: LossFunction, labels: WeightedEnsemble) -> CentroidResult:
    """Central label from the cheapest exact solver.

    The g-mean when the domain has no equality constraints or the map is
    the identity (the arithmetic mean of feasible points stays feasible
    under linear equalities), the Lagrange solve when the dual map is the
    identity, and the brute-force oracle otherwise or for losses that are
    not g-Bregman.
    """
    if isinstance(loss, GBregmanDivergence):
        if loss.domain.n_constraints == 0 or loss.map_is_identity:
            return g_mean_label(loss, labels)
        if loss.dual_map_is_identity:
            return constrained_central_label(loss, labels)
    return brute_force_centroid(loss, labels, "second_arg")


def central_prediction(loss: LossFunction, preds: WeightedEnsemble) -> CentroidResult:
    """Central prediction from the cheapest exact solver; the mirror of
    :func:`central_label` with the roles of the two maps swapped."""
    if isinstance(loss, GBregmanDivergence):
        if loss.domain.n_constraints == 0 or loss.dual_map_is_identity:
            return f_mean_prediction(loss, preds)
        if loss.map_is_identity:
            return constrained_central_prediction(loss, preds)
    return brute_force_centroid(loss, preds, "first_arg")


def brute_force_centroid(
    loss: LossFunction,
    ens: WeightedEnsemble,
    side: str,
    domain: Domain | None = None,
    grid_resolution: int = GRID_RESOLUTION,
    n_restarts: int = N_RESTARTS,
) -> CentroidResult:
    """Minimize the expected loss over one argument by exhaustive search.

    ``side`` names the free argument: ``"first_arg"`` minimizes
    E loss(x, P) over x (central prediction when P are predictions),
    ``"second_arg"`` minimizes E loss(P, x) (central label).

    The search evaluates a fixed coarse grid (plus the ensemble's own
    support points, which are exact minimizers for piecewise-linear
    losses), then refines the best ``n_restarts`` candidates with
    Nelder-Mead. Equality constraints are eliminated by an affine
    null-space reparameterization. Fully deterministic: no randomness.

    Ties within 1e-9 of the best objective resolve to the
    lexicographically smallest point and set ``non_unique`` when the tied
    candidates are more than 1e-4 apart.
    """
    if side not in ("first_arg", "second_arg"):
        raise ValueError("side must be 'first_arg' or 'second_arg'")
    domain = domain or loss.domain
    if not domain.is_bounded:
        raise ValueError("brute-force search needs a bounded box domain")
    d = domain.dim

    if domain.n_constraints:
        W, b = domain.eq_lhs, domain.eq_rhs
        origin = np.linalg.lstsq(W, b, rcond=None)[0]
        basis = scipy.linalg.null_space(W)
        if basis.shape[1] == 0:
            point = origin
            obj = side_expectation(loss, point, ens, point_side=side)
            return CentroidResult(point, np.zeros(0), obj, "brute_force")
        center = 0.5 * (domain.lower + domain.upper)
        radius = float(
            np.linalg.norm(domain.upper - domain.lower) + np.linalg.norm(center - origin)
        )
        lo = -radius * np.ones(basis.shape[1])
        hi = radius * np.ones(basis.shape[1])
    else:
        origin = np.zeros(d)
        basis = np.eye(d)
        lo, hi = domain.lower.copy(), domain.upper.copy()

    def embed(Z):
        return origin + np.asarray(Z, dtype=float) @ basis.T

    box = domain.without_equalities()

    def objective_batch(Z):
        X = embed(Z)
        feasible = np.all(X >= box.lower - 1e-12, axis=-1) & np.all(
            X <= box.upper + 1e-12, axis=-1
        )
        vals = np.full(X.shape[0], np.inf)
        if np.any(feasible):
            Xf = X[feasible]
            P = ens.points[None, :, :]
            Xp = Xf[:, None, :]
            with np.errstate(all="ignore"):
                if side == "first_arg":
                    raw = loss.eval_batch(
                        np.broadcast_to(Xp, (Xf.shape[0], ens.size, d)),
                        np.broadcast_to(P, (Xf.shape[0], ens.size, d)),
                    )
                else:
                    raw = loss.eval_batch(
                        np.broadcast_to(P, (Xf.shape[0], ens.size, d)),
                        np.broadcast_to(Xp, (Xf.shape[0], ens.size, d)),
                    )
            raw = np.where(np.isfinite(raw), raw, np.inf)
            vals[feasible] = raw @ ens.weights
        return vals

    def objective_single(z):
        return float(objective_batch(np.asarray(z, dtype=float)[None, :])[0])

    axes = [np.linspace(lo[i], hi[i], grid_resolution) for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    Z_grid = np.stack([m.ravel() for m in mesh], axis=-1)
    # The ensemble's support points are natural candidates (medians and
    # modes sit on atoms); include them exactly.
    Z_support = (ens.points - origin) @ basis
    Z_cand = np.vstack([Z_grid, Z_support])
    vals = objective_batch(Z_cand)

    order = np.argsort(vals, kind="stable")
    starts = []
    for idx in order:
        if not np.isfinite(vals[idx]):
            break
        if any(np.max(np.abs(Z_cand[idx] - Z_cand[j])) < 1e-12 for j in starts):
            continue
        starts.append(int(idx))
        if len(starts) >= n_restarts:
            break
    if not starts:
        raise ValueError("no feasible grid point found for brute-force search")

    cand_Z = [Z_cand[i] for i in starts]
    cand_V = [float(vals[i]) for i in starts]
    for i in starts:
        res = scipy.optimize.minimize(
            objective_single,
            Z_cand[i],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "maxfev": 4000},
        )
        if np.isfinite(res.fun):
            cand_Z.append(np.asarray(res.x, dtype=float))
            cand_V.append(float(res.fun))
    # Keep every evaluated point tied with the best (flat minimizers show up
    # as scattered grid candidates), capped to keep clustering cheap.
    f_best = float(np.min(cand_V))
    for idx in order[: 4 * grid_resolution]:
        if vals[idx] <= f_best + TIE_TOL:
            cand_Z.append(Z_cand[idx])
            cand_V.append(float(vals[idx]))

    tied = [
        (embed(z[None, :])[0], v)
        for z, v in zip(cand_Z, cand_V)
        if v <= f_best + TIE_TOL
    ]
    # Cluster ties that describe the same minimizer; within a cluster keep
    # the best objective (support atoms beat Nelder-Mead approximations of
    # themselves), across clusters pick the lexicographically smallest.
    clusters: list[tuple[np.ndarray, float]] = []
    for p, v in tied:
        for ci, (cp, cv) in enumerate(clusters):
            if np.max(np.abs(p - cp)) <= DISTINCT_TOL:
                if v < cv or (v == cv and tuple(p) < tuple(cp)):
                    clusters[ci] = (p, v)
                break
        else:
            clusters.append((p, v))
    point = min(clusters, key=lambda c: tuple(c[0]))[0]
    non_unique = len(clusters) > 1
    obj = side_expectation(loss, point, ens, point_side=side)
    return CentroidResult(point, np.zeros(0), obj, "brute_force", non_unique)


def power_mean_centroids(
    alpha_div: GBregmanDivergence, ens: WeightedEnsemble, side: str
) -> CentroidResult:
    """Normalized power-mean centroid of an alpha divergence on the simplex.

    Minimizes the expected alpha divergence over the requested argument
    subject to the sum-to-one constraint: exponent ``alpha`` on the label
    side (``side="second_arg"``), ``1 - alpha`` on the prediction side.
    Note these constrained minimizers do not produce an additive
    decomposition; the gap they leave is the point of measuring them.
    """
    if alpha_div.name != "alpha":
        raise ValueError("power-mean centroids are defined for alpha divergences")
    a = float(alpha_div.params["alpha"])
    if side == "second_arg":
        expo = a
    elif side == "first_arg":
        expo = 1.0 - a
    else:
        raise ValueError("side must be 'first_arg' or 'second_arg'")
    moments = np.einsum("k,kd->d", ens.weights, ens.points**expo)
    if np.any(moments < 0) or not np.all(np.isfinite(moments)):
        raise ValueError("power mean undefined for this ensemble")
    raised = moments ** (1.0 / expo)
    total = raised.sum()
    if total <= 0:
        raise ValueError("power mean undefined: all coordinates vanish")
    point = raised / total
    obj = side_expectation(alpha_div, point, ens, point_side=side)
    return CentroidResult(point, np.zeros(0), obj, "closed_form")
