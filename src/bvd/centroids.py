"""Central labels and central predictions.

The central label is the single point minimizing the expected divergence to
a label distribution (expectation over the first argument, minimization
over the second); the central prediction minimizes over the first argument
against a prediction distribution. For g-Bregman divergences these are the
g-mean and f-mean (normalized for alpha on the simplex); with other linear
equality constraints they follow from a Newton solve on the Lagrange
multipliers. A grid search refined by a batched multi-start pattern search
provides an independent check and handles arbitrary losses.
:func:`central_prediction` picks the cheapest that is exact for a loss; each
label-side solve is the prediction-side solve of ``loss.reverse()``.
"""

from __future__ import annotations

import warnings
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
# The oracle evaluates its candidates in blocks of at most this many
# (rows x support x d) float64s (512 KiB), so its memory does not grow with
# the grid.
BLOCK_FLOATS = 2**16
# The oracle refuses grids of more (grid points x support x d) float64s of
# work: at d = 5 the search would take about 40x as long as at d = 4.
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


def _mean_f(div: GBregmanDivergence, ens: WeightedEnsemble) -> tuple[Mapping, np.ndarray]:
    """The dual map f and the weighted mean of f over the ensemble, whose
    points must lie in the domain."""
    div.domain.require_points(ens.points, "ensemble point")
    _, f = div.dual_pair()
    return f, np.einsum("k,kd->d", ens.weights, np.asarray(f.forward(ens.points), float))


def f_mean_prediction(div: GBregmanDivergence, preds: WeightedEnsemble) -> CentroidResult:
    """Central prediction: inverse map of the mean of f over the predictions.

    Raises :class:`InfeasibleMeanError` when the mean violates the domain's
    constraints (use the constrained solver then).
    """
    f, mean = _mean_f(div, preds)
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
    f, mean_f = _mean_f(div, preds)
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
    identity, the normalized f-mean (:func:`power_mean_centroids`) for alpha
    on the simplex, and the brute-force oracle otherwise: for losses that
    are not g-Bregman, and with a ``UserWarning`` for g-Bregman ones. Each
    solver first requires every ensemble point in the domain
    (:meth:`Domain.require_points`), so an ensemble of the wrong dimension
    or with an infeasible point raises ``ValueError`` naming it.
    """
    if isinstance(loss, GBregmanDivergence):
        if loss.domain.n_constraints == 0 or loss.dual_map_is_identity:
            return f_mean_prediction(loss, preds)
        if loss.map_is_identity:
            return constrained_central_prediction(loss, preds)
        if "alpha" in loss.params and _is_simplex(loss.domain):
            return power_mean_centroids(loss, preds, "first_arg")
        warnings.warn(f"{loss.name}: neither coordinate map is the identity; the constrained "
                      "problem may be nonconvex -- falling back to brute-force centroids")
    return brute_force_centroid(loss, preds, "first_arg")


def _is_simplex(domain: Domain) -> bool:
    """Whether ``domain`` is exactly the probability simplex of :meth:`Domain.simplex`."""
    bounds = ((domain.lower, 0), (domain.upper, 1), (domain.eq_lhs, 1), (domain.eq_rhs, 1))
    return domain.n_constraints == 1 and all(np.all(v == c) for v, c in bounds)


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
    candidates are more than 1e-4 apart.

    Candidates go through the loss in blocks of at most ``BLOCK_FLOATS``
    (rows x support x d) floats and only their objective values are kept,
    so memory is bounded by the block size plus a few floats per candidate;
    the answer does not depend on the block size. ``MAX_GRID_FLOATS``
    bounds the work: a grid whose evaluation would exceed it raises
    ``ValueError`` before any evaluation. A search in which no candidate
    has a finite objective raises ``ValueError`` too.
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
    block = max(1, BLOCK_FLOATS // (ens.size * d))

    def objective_batch(n, rows):
        """Objective at rows 0..n-1, where ``rows(i, j)`` gives the reduced
        coordinates of rows i..j-1, evaluated ``block`` rows at a time."""
        vals = np.full(n, np.inf)
        for i in range(0, n, block):
            X = embed(rows(i, min(i + block, n)))
            feasible = box.feasible(X, tol=1e-12)
            if np.any(feasible):
                Xf = X[feasible]
                shape = (Xf.shape[0], ens.size, d)
                with np.errstate(all="ignore"):
                    raw = loss.eval_batch(
                        np.broadcast_to(Xf[:, None, :], shape),
                        np.broadcast_to(ens.points[None, :, :], shape),
                    )
                raw = np.where(np.isfinite(raw), raw, np.inf)
                if raw.shape[0] == 1 and n > block:
                    # numpy sums a lone row by a dot product, which rounds
                    # differently from the matrix-vector product that the
                    # same row gets among others in an unsplit batch.
                    weighted = (np.vstack([raw, raw]) @ ens.weights)[:1]
                else:
                    weighted = raw @ ens.weights
                vals[i : i + X.shape[0]][feasible] = weighted
        return vals

    # Candidates are the grid points in C order (flat index below n_grid),
    # then the ensemble's support points, which are natural candidates
    # (medians and modes sit on atoms) and are included exactly. Only their
    # objective values are kept; coordinates are rebuilt from the index.
    axes = [np.linspace(lo[i], hi[i], GRID_RESOLUTION) for i in range(m)]
    Z_support = (ens.points - origin) @ basis

    def candidates(idx):
        idx = np.asarray(idx)
        Z = np.empty((idx.size, m))
        on_grid = idx < n_grid
        cells = np.unravel_index(idx[on_grid], (GRID_RESOLUTION,) * m)
        Z[on_grid] = np.stack([ax[c] for ax, c in zip(axes, cells)], axis=-1)
        Z[~on_grid] = Z_support[idx[~on_grid] - n_grid]
        return Z

    vals = objective_batch(n_grid + ens.size, lambda i, j: candidates(np.arange(i, j)))

    # Restarts come from a prefix of the stable ascending order of vals,
    # long enough for the tie window below; it grows only when duplicate
    # candidates use it up.
    order = _stable_prefix(vals, max(N_RESTARTS, 4 * GRID_RESOLUTION))
    window = order[: 4 * GRID_RESOLUTION]
    Z_window = candidates(window)
    starts, start_Z = [], []
    pos = 0
    while len(starts) < N_RESTARTS:
        if pos == order.size:
            if order.size == vals.size:
                break
            order = _stable_prefix(vals, 2 * order.size)
        idx = order[pos]
        z = Z_window[pos] if pos < window.size else candidates([idx])[0]
        pos += 1
        if not np.isfinite(vals[idx]):
            break
        if any(np.max(np.abs(z - s)) < 1e-12 for s in start_Z):
            continue
        starts.append(int(idx))
        start_Z.append(z)
    if not starts:
        raise ValueError("no candidate with a finite objective for brute-force search")

    # Pattern search on every start at once. Each start begins with the
    # grid spacing as its step; the stencil's centre (all zeros) wins ties,
    # so a start moves only to a strictly better point. Starts stop once
    # their step is below 1e-11 in the reduced coordinates, all of them
    # after 1000 iterations.
    stencil = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * m, indexing="ij"), -1).reshape(-1, m)
    centre = stencil.shape[0] // 2
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    Z, V = np.array(start_Z), vals[starts]
    scale = np.ones(len(starts))
    for _ in range(1000):
        active = np.flatnonzero(scale * np.max(spacing) >= 1e-11)
        if active.size == 0:
            break
        steps = stencil[None, :, :] * (scale[active, None] * spacing)[:, None, :]
        trial = (Z[active, None, :] + steps).reshape(-1, m)
        tv = objective_batch(len(trial), lambda i, j: trial[i:j]).reshape(active.size, -1)
        best = np.argmin(tv, axis=1)
        moved = tv[np.arange(active.size), best] < tv[:, centre]
        idx = active[moved]
        Z[idx] = trial.reshape(active.size, -1, m)[moved, best[moved]]
        V[idx] = tv[moved, best[moved]]
        scale[active[~moved]] *= 0.5

    cand_Z = start_Z + list(Z)
    cand_V = [float(vals[i]) for i in starts] + [float(v) for v in V]
    # Keep every evaluated point tied with the best (flat minimizers show up
    # as scattered grid candidates), capped to keep clustering cheap.
    f_best = float(np.min(cand_V))
    tie = vals[window] <= f_best + TIE_TOL
    cand_Z += list(Z_window[tie])
    cand_V += [float(v) for v in vals[window][tie]]

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


def _stable_prefix(vals: np.ndarray, k: int) -> np.ndarray:
    """The first k or more entries of ``np.argsort(vals, kind="stable")``:
    every index whose value is at most the k-th smallest, in stable order,
    so ties at the k-th value are all kept. Needs no NaN in ``vals``."""
    if k >= vals.size:
        return np.argsort(vals, kind="stable")
    kth = np.partition(vals, k - 1)[k - 1]
    idx = np.flatnonzero(vals <= kth)
    return idx[np.argsort(vals[idx], kind="stable")]


def power_mean_centroids(
    alpha_div: GBregmanDivergence, ens: WeightedEnsemble, side: str
) -> CentroidResult:
    """Centroid of an alpha divergence on the probability simplex, the
    normalized alpha-mean (Amari, Neural Computation 2007).

    For ``side="first_arg"`` (the central prediction) it is the f-mean
    ``f.inverse(sum w f(Y))`` rescaled to sum 1, ``f`` from the divergence's
    :meth:`~GBregmanDivergence.dual_pair`: f is a power map, so the
    sum-to-one multiplier only rescales it. ``side="second_arg"`` is the
    same solve on ``alpha_div.reverse()``. Needs ``"alpha"`` in ``params``
    (reversed divergences keep it) and exactly the simplex as domain.
    """
    if "alpha" not in alpha_div.params or not _is_simplex(alpha_div.domain):
        raise ValueError("power-mean centroids are defined for alpha divergences on the simplex")
    if side == "second_arg":
        alpha_div = alpha_div.reverse()
    elif side != "first_arg":
        raise ValueError("side must be 'first_arg' or 'second_arg'")
    f, mean = _mean_f(alpha_div, ens)
    raised = np.asarray(f.inverse(mean), dtype=float)
    point = raised / raised.sum()
    obj = side_expectation(alpha_div, point, ens, point_side="first_arg")
    return CentroidResult(point, np.zeros(0), obj, "closed_form")
