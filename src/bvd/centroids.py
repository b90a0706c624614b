"""Central labels and central predictions.

The central label is the single point minimizing the expected divergence to
a label distribution (expectation over the first argument, minimization
over the second); the central prediction minimizes over the first argument
against a prediction distribution. For g-Bregman divergences these are the
g-mean and f-mean; with linear equality constraints they follow from a
Newton solve on the Lagrange multipliers. A grid search refined by a
batched multi-start pattern search provides an independent check and
handles arbitrary losses.
:func:`central_prediction` picks the cheapest that is exact for a loss; each
label-side solve is the prediction-side solve of ``loss.reverse()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Domain,
    InfeasibleMeanError,
    LossFunction,
    WeightedEnsemble,
    side_expectation,
)
from .divergences import GBregmanDivergence, Mapping, newton_invert

LAGRANGE_TOL = 1e-10
GRID_RESOLUTION = 41
N_RESTARTS = 5
# Candidates whose objective is within this of the best count as ties.
TIE_TOL = 1e-9
# Ties farther apart than this (max-abs) mark the minimizer as non-unique.
DISTINCT_TOL = 1e-4
# The oracle refuses grids of more (grid points x support x d) float64s (1 GiB).
MAX_GRID_FLOATS = 2**27


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


def f_mean_prediction(div: GBregmanDivergence, preds: WeightedEnsemble) -> CentroidResult:
    """Central prediction: inverse map of the mean of f over the predictions.

    Raises :class:`InfeasibleMeanError` when the mean violates the domain's
    constraints (use the constrained solver then).
    """
    div.domain.require_points(preds.points, "ensemble point")
    _, f = div.dual_pair()
    mean = np.einsum("k,kd->d", preds.weights, np.asarray(f.forward(preds.points), float))
    point = np.asarray(f.inverse(mean), dtype=float)
    if not div.domain.contains(point):
        raise InfeasibleMeanError(
            f"closed-form centroid {point} is infeasible; use a constrained solver"
        )
    objective = side_expectation(div, point, preds, point_side="first_arg")
    return CentroidResult(point, np.zeros(0), objective, "closed_form")


def g_mean_label(div: GBregmanDivergence, labels: WeightedEnsemble) -> CentroidResult:
    """Central label: inverse map of the mean of g over the labels, the
    f-mean prediction of ``div.reverse()``."""
    return f_mean_prediction(div.reverse(), labels)


def _lagrange_solve(
    mean_coords: np.ndarray, mapping: Mapping, domain: Domain
) -> tuple[np.ndarray, np.ndarray]:
    """Solve map(x) = mean_coords + W^T lam subject to W x = b for (x, lam).

    :func:`newton_invert` on the k multipliers, starting at lam = 0: its
    central-difference Jacobian is the k x k matrix W J W^T (J the Jacobian
    of the inverse map), O(k d) work per step, and the residual W x - b
    decides convergence at ``LAGRANGE_TOL``.
    """
    W, b = domain.eq_lhs, domain.eq_rhs
    if W is None:
        raise ValueError("domain has no equality constraints")

    def point_at(lam):
        return np.asarray(mapping.inverse(mean_coords + W.T @ lam), dtype=float)

    lam = newton_invert(lambda l: W @ point_at(l), b, np.zeros(W.shape[0]), tol=LAGRANGE_TOL)
    return point_at(lam), lam


def constrained_central_prediction(
    div: GBregmanDivergence, preds: WeightedEnsemble
) -> CentroidResult:
    """Central prediction under linear equality constraints W y = b.

    Requires a standard Bregman divergence (identity coordinate map): the
    minimizer satisfies f(y*) = mean f(Y) + W^T lam with W y* = b.
    """
    if not div.map_is_identity:
        raise ValueError(
            "constrained centroids need an identity map on the solved side; "
            "for other divergences fall back to brute_force_centroid"
        )
    div.domain.require_points(preds.points, "ensemble point")
    _, f = div.dual_pair()
    mean_f = np.einsum("k,kd->d", preds.weights, np.asarray(f.forward(preds.points), float))
    point, lam = _lagrange_solve(mean_f, f, div.domain)
    if not div.domain.without_equalities().contains(point):
        raise ValueError(
            f"constrained centroid {point} violates the box bounds; active-set "
            "handling of inequality constraints is not supported"
        )
    objective = side_expectation(div, point, preds, point_side="first_arg")
    return CentroidResult(point, lam, objective, "lagrange")


def constrained_central_label(
    div: GBregmanDivergence, labels: WeightedEnsemble
) -> CentroidResult:
    """Central label under linear equality constraints W t = b: the
    constrained central prediction of ``div.reverse()``, which needs an
    identity dual map (g(t*) = mean g(T) + W^T lam, W t* = b)."""
    return constrained_central_prediction(div.reverse(), labels)


def central_prediction(loss: LossFunction, preds: WeightedEnsemble) -> CentroidResult:
    """Central prediction from the cheapest exact solver.

    The f-mean when the domain has no equality constraints or the dual map
    is the identity (the arithmetic mean of feasible points stays feasible
    under linear equalities), the Lagrange solve when the map is the
    identity, and the brute-force oracle otherwise or for losses that are
    not g-Bregman. Each solver first requires every ensemble point in the
    domain (:meth:`Domain.require_points`), so an ensemble of the wrong
    dimension or with an infeasible point raises ``ValueError`` naming it.
    """
    if isinstance(loss, GBregmanDivergence):
        if loss.domain.n_constraints == 0 or loss.dual_map_is_identity:
            return f_mean_prediction(loss, preds)
        if loss.map_is_identity:
            return constrained_central_prediction(loss, preds)
    return brute_force_centroid(loss, preds, "first_arg")


def central_label(loss: LossFunction, labels: WeightedEnsemble) -> CentroidResult:
    """Central label: the central prediction of ``loss.reverse()``."""
    return central_prediction(loss.reverse(), labels)


def brute_force_centroid(loss: LossFunction, ens: WeightedEnsemble, side: str) -> CentroidResult:
    """Minimize the expected loss over one argument by exhaustive search.

    ``side`` names the free argument: ``"first_arg"`` minimizes
    E loss(x, P) over x (central prediction when P are predictions),
    ``"second_arg"`` minimizes E loss(P, x) (central label), which is the
    ``"first_arg"`` search on ``loss.reverse()``.

    The search evaluates a ``GRID_RESOLUTION``-point grid per axis of the
    loss's bounded domain (plus the ensemble's own support points, which
    are exact minimizers for piecewise-linear losses), then refines the
    best ``N_RESTARTS`` candidates together by a pattern search: each
    moves to the best point of a {-1, 0, 1}^m stencil scaled by its step,
    or halves the step when it is already the best, until every step is
    below 1e-11. Equality constraints are eliminated by an affine
    null-space reparameterization. Fully deterministic: no randomness.

    Ties within 1e-9 of the best objective resolve to the
    lexicographically smallest point and set ``non_unique`` when the tied
    candidates are more than 1e-4 apart. Raises ``ValueError`` before
    building a grid whose evaluation would exceed ``MAX_GRID_FLOATS``.
    """
    if side not in ("first_arg", "second_arg"):
        raise ValueError("side must be 'first_arg' or 'second_arg'")
    if side == "second_arg":
        loss = loss.reverse()
    domain = loss.domain
    domain.require_points(ens.points, "ensemble point")
    if not domain.is_bounded:
        raise ValueError("brute-force search needs a bounded box domain")
    d = domain.dim

    if domain.n_constraints:
        W, b = domain.eq_lhs, domain.eq_rhs
        origin = np.linalg.lstsq(W, b, rcond=None)[0]
        # W has full row rank, so the last d - k right singular vectors
        # span its null space.
        basis = np.linalg.svd(W)[2][W.shape[0]:].T
        if basis.shape[1] == 0:
            point = origin
            obj = side_expectation(loss, point, ens, point_side="first_arg")
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

    m = lo.size
    n_grid = GRID_RESOLUTION**m
    if n_grid * ens.size * d > MAX_GRID_FLOATS:
        raise ValueError(
            f"brute-force grid of {GRID_RESOLUTION}^{m} = {n_grid} points "
            f"x {ens.size} support points x d = {d} exceeds {MAX_GRID_FLOATS} floats"
        )

    def embed(Z):
        return origin + np.asarray(Z, dtype=float) @ basis.T

    box = domain.without_equalities()

    def objective_batch(Z):
        X = embed(Z)
        feasible = box.feasible(X, tol=1e-12)
        vals = np.full(X.shape[0], np.inf)
        if np.any(feasible):
            Xf = X[feasible]
            shape = (Xf.shape[0], ens.size, d)
            with np.errstate(all="ignore"):
                raw = loss.eval_batch(
                    np.broadcast_to(Xf[:, None, :], shape),
                    np.broadcast_to(ens.points[None, :, :], shape),
                )
            raw = np.where(np.isfinite(raw), raw, np.inf)
            vals[feasible] = raw @ ens.weights
        return vals

    axes = [np.linspace(lo[i], hi[i], GRID_RESOLUTION) for i in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    Z_grid = np.stack([g.ravel() for g in mesh], axis=-1)
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
        if len(starts) >= N_RESTARTS:
            break
    if not starts:
        raise ValueError("no feasible grid point found for brute-force search")

    # Pattern search on every start at once. Each start begins with the
    # grid spacing as its step; the stencil's centre (all zeros) wins ties,
    # so a start moves only to a strictly better point. Starts stop once
    # their step is below 1e-11 in the reduced coordinates, all of them
    # after 1000 iterations.
    stencil = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * m, indexing="ij"), -1).reshape(-1, m)
    centre = stencil.shape[0] // 2
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    Z, V = Z_cand[starts], vals[starts]
    scale = np.ones(len(starts))
    for _ in range(1000):
        active = np.flatnonzero(scale * np.max(spacing) >= 1e-11)
        if active.size == 0:
            break
        steps = stencil[None, :, :] * (scale[active, None] * spacing)[:, None, :]
        trial = (Z[active, None, :] + steps).reshape(-1, m)
        tv = objective_batch(trial).reshape(active.size, -1)
        best = np.argmin(tv, axis=1)
        moved = tv[np.arange(active.size), best] < tv[:, centre]
        idx = active[moved]
        Z[idx] = trial.reshape(active.size, -1, m)[moved, best[moved]]
        V[idx] = tv[moved, best[moved]]
        scale[active[~moved]] *= 0.5

    cand_Z = [Z_cand[i] for i in starts] + list(Z)
    cand_V = [float(vals[i]) for i in starts] + [float(v) for v in V]
    # Keep every evaluated point tied with the best (flat minimizers show up
    # as scattered grid candidates), capped to keep clustering cheap.
    f_best = float(np.min(cand_V))
    for idx in order[: 4 * GRID_RESOLUTION]:
        if vals[idx] <= f_best + TIE_TOL:
            cand_Z.append(Z_cand[idx])
            cand_V.append(float(vals[idx]))

    tied = [
        (embed(z[None, :])[0], v)
        for z, v in zip(cand_Z, cand_V)
        if v <= f_best + TIE_TOL
    ]
    # Cluster ties that describe the same minimizer; within a cluster keep
    # the best objective (support atoms beat refined approximations of
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
    obj = side_expectation(loss, point, ens, point_side="first_arg")
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
    alpha_div.domain.require_points(ens.points, "ensemble point")
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
