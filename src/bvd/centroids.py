"""Central labels and central predictions.

The central label is the single point minimizing the expected divergence to
a label distribution (expectation over the first argument, minimization
over the second); the central prediction minimizes over the first argument
against a prediction distribution. For g-Bregman divergences these are the
g-mean and f-mean (rescaled to sum 1 for kl, reverse_kl and alpha on the
simplex); with other linear equality constraints they follow from a Newton
solve on the Lagrange multipliers. A grid search refined by a batched
multi-start pattern search provides an independent check and handles
arbitrary losses. :func:`central_prediction` picks the cheapest that is
exact for a loss; each label-side solve is the prediction-side solve of
``loss.reverse()``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import (
    Domain,
    InfeasibleMeanError,
    LossFunction,
    Record,
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
# The pattern search evaluates this many successive halvings of each step
# per loss evaluation.
PATTERN_LEVELS = 4
# The oracle refuses searches of more (grid candidates x support x d)
# float64s of work. The candidates are the full 41^m grid of a non-separable
# loss, which this refuses from d = 5 on (that search would take about 40x as
# long as at d = 4), or the d x 41 axis candidates of a separable one.
MAX_GRID_FLOATS = 2**27
# The ``method`` of a centroid: the solvers from cheapest to costliest. A
# decomposition report names the costlier of its two centroids' methods.
SOLVERS = ("closed_form", "lagrange", "brute_force")


@dataclass(frozen=True)
class CentroidResult(Record):
    """A centroid with its multipliers, objective value, and provenance."""

    point: np.ndarray
    multipliers: np.ndarray
    objective: float
    method: str
    non_unique: bool = False


def _mean_f(div: GBregmanDivergence, ens: WeightedEnsemble) -> tuple[Mapping, np.ndarray]:
    """The dual map f and the weighted mean of f over the ensemble, whose
    points must lie in the domain."""
    div.domain.require_points(ens.points, "ensemble point")
    _, f = div.dual_pair()
    return f, np.einsum("k,kd->d", ens.weights, f.forward(ens.points))


def f_mean_prediction(div: GBregmanDivergence, preds: WeightedEnsemble) -> CentroidResult:
    """Central prediction: inverse map of the mean of f over the predictions.

    For kl, reverse_kl and alpha on the simplex the sum-to-one multiplier
    lam of f(y*) = E f(Y) + lam only shifts log y or rescales a power, so
    y* is the f-mean rescaled to sum 1 (Nielsen & Nock, IEEE Trans. Inf.
    Theory 2009); ``multipliers`` holds lam when the map g is the identity.

    Raises :class:`InfeasibleMeanError` when the mean violates the domain's
    constraints (use the constrained solver then), or on the simplex when
    the expected divergence is infinite everywhere.
    """
    return _scored(div, _f_mean_point(div, preds), preds)


def _scored(loss: LossFunction, res: CentroidResult, ens: WeightedEnsemble) -> CentroidResult:
    """``res`` with its objective, E loss(res.point, .) over ``ens``."""
    return replace(res, objective=side_expectation(loss, res.point, ens))


def _f_mean_point(div: GBregmanDivergence, preds: WeightedEnsemble) -> CentroidResult:
    """The point step of :func:`f_mean_prediction` (objective nan)."""
    f, mean = _mean_f(div, preds)
    point = f.inverse(mean)
    simplex = _simplex_family(div)
    if simplex:
        total = point.sum()
        if not total > 0:  # kl's geometric mean: each coordinate is 0 at some support point
            raise InfeasibleMeanError(
                "no coordinate is positive at every support point, so the expected "
                "divergence is infinite at every point of the simplex")
        point = point / total
    if not div.domain.contains(point):
        raise InfeasibleMeanError(
            f"closed-form centroid {point} is infeasible; use a constrained solver"
        )
    lam = np.zeros(0)
    if simplex and div.map.is_identity:  # f(y*) - E f(Y) = lam wherever y* > 0
        with np.errstate(invalid="ignore"):
            lam = np.array([np.mean((f.forward(point) - mean)[point > 0])])
    return CentroidResult(point, lam, np.nan, "closed_form")


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
        return mapping.inverse(mean_coords + W.T @ lam)

    lam = newton_invert(lambda l: W @ point_at(l), b, np.zeros(W.shape[0]), tol=LAGRANGE_TOL)
    return point_at(lam), lam


def constrained_central_prediction(
    div: GBregmanDivergence, preds: WeightedEnsemble
) -> CentroidResult:
    """Central prediction under linear equality constraints W y = b.

    Requires a standard Bregman divergence (identity coordinate map): the
    minimizer satisfies f(y*) = mean f(Y) + W^T lam with W y* = b.
    """
    return _scored(div, _lagrange_point(div, preds), preds)


def _lagrange_point(div: GBregmanDivergence, preds: WeightedEnsemble) -> CentroidResult:
    """The point step of :func:`constrained_central_prediction` (objective nan)."""
    if not div.map.is_identity:
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
    return CentroidResult(point, lam, np.nan, "lagrange")


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
    under linear equalities), rescaled for kl, reverse_kl and alpha on the
    simplex; the Lagrange solve when the map is the identity; else the
    oracle: for losses that are not g-Bregman, and with a ``UserWarning``
    for g-Bregman ones. Each solver first requires every ensemble point in
    the domain (:meth:`Domain.require_points`), so an ensemble of the wrong
    dimension or with an infeasible point raises ``ValueError`` naming it.
    """
    return _scored(loss, central_point(loss, preds), preds)


def central_point(loss: LossFunction, preds: WeightedEnsemble) -> CentroidResult:
    """:func:`central_prediction` without the objective, unless the oracle ran."""
    if isinstance(loss, GBregmanDivergence):
        if (loss.domain.n_constraints == 0 or loss.dual_pair()[1].is_identity
                or _simplex_family(loss)):
            return _f_mean_point(loss, preds)
        if loss.map.is_identity:
            return _lagrange_point(loss, preds)
        warnings.warn(f"{loss.name}: neither coordinate map is the identity; the constrained "
                      "problem may be nonconvex -- falling back to brute-force centroids")
    return brute_force_centroid(loss, preds, "first_arg")


def _simplex_family(div: GBregmanDivergence) -> bool:
    """Whether ``div`` is kl, reverse_kl or alpha (the catalog families with a
    ``simplex`` parameter; ``reverse()`` keeps ``params``) on exactly
    :meth:`Domain.simplex`."""
    dom = div.domain
    bounds = ((dom.lower, 0), (dom.upper, 1), (dom.eq_lhs, 1), (dom.eq_rhs, 1))
    return "simplex" in div.params and dom.n_constraints == 1 and all(
        np.all(v == c) for v, c in bounds)


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
    null-space reparameterization, and the stencil then also holds the
    edge directions e_i - e_j, which follow the faces of the box that the
    null-space axes cut obliquely (Lewis & Torczon, SIAM J. Optim. 2000).
    Fully deterministic: no randomness.

    A :attr:`~bvd.core.LossFunction.separable` loss on a domain without
    equality constraints is searched one axis at a time: the minimizer over
    a product grid is the product of the per-axis minimizers. Axis i's
    candidates vary coordinate i of both arguments and hold the others at
    the box centre, where their terms are constant. The d 1-D problems
    share each loss evaluation, so the work is d x 41 candidates with a
    3-point stencil instead of 41^d with a 3^d one.

    Ties within 1e-9 of the best objective resolve to the
    lexicographically smallest tied candidate that the search evaluated
    (grid points, support points and pattern-search points), not the
    smallest minimizer of the loss: a flat region's corner that is not a
    candidate is not found, so a separable loss and a non-separable twin
    of it may pick different points of equal objective. ``non_unique`` is
    set when the tied candidates are more than 1e-4 apart (per axis, for a
    separable loss).

    Candidates go through the loss in blocks of at most ``core.BLOCK_FLOATS``
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

    # Each search problem b maps reduced coordinates z to the point
    # origin[b] + basis[b] @ z and is scored against its own support[b]: one
    # 1-D problem per axis for a separable loss, else one problem on the
    # null space of the equality constraints (W has full row rank).
    separable = loss.separable and domain.n_constraints == 0
    n_problems, m = (d, 1) if separable else (1, d - domain.n_constraints)
    n_grid = GRID_RESOLUTION**m
    if n_problems * n_grid * ens.size * d > MAX_GRID_FLOATS:
        axes = f"{n_problems} axes x " if n_problems > 1 else ""
        raise ValueError(
            f"brute-force grid of {axes}{GRID_RESOLUTION}^{m} = {n_problems * n_grid} points "
            f"x {ens.size} support points x d = {d} exceeds {MAX_GRID_FLOATS} floats"
        )
    edges = np.zeros((0, m))
    if separable:
        # Problem i: coordinate i is free, the others sit at the box centre
        # in both arguments.
        own_axis = np.eye(d, dtype=bool)
        centre = 0.5 * (domain.lower + domain.upper)
        origin = np.where(own_axis, 0.0, centre)
        basis = np.eye(d)[:, :, None]
        support = np.where(own_axis[:, None, :], ens.points, centre)
        lo, hi = domain.lower[:, None], domain.upper[:, None]
    elif domain.n_constraints:
        W, b = domain.eq_lhs, domain.eq_rhs
        origin = np.linalg.lstsq(W, b, rcond=None)[0]
        if m == 0:
            obj = side_expectation(loss, origin, ens)
            return CentroidResult(origin, np.zeros(0), obj, "brute_force")
        # The last d - k right singular vectors span the null space of W.
        null = np.linalg.svd(W)[2][W.shape[0]:].T
        radius = float(np.linalg.norm(domain.upper - domain.lower)
                       + np.linalg.norm(0.5 * (domain.lower + domain.upper) - origin))
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
        edges = np.array([null[i] - null[j] for i, j in pairs])
        origin, basis, support = origin[None], null[None], ens.points[None]
        lo, hi = np.full((1, m), -radius), np.full((1, m), radius)
    else:
        origin, basis, support = np.zeros((1, d)), np.eye(d)[None], ens.points[None]
        lo, hi = domain.lower[None], domain.upper[None]
    chosen, non_unique = _search(loss, ens, domain.without_equalities(),
                                 origin, basis, support, lo, hi, edges)
    point = np.diagonal(chosen).copy() if separable else chosen[0]
    obj = side_expectation(loss, point, ens)
    return CentroidResult(point, np.zeros(0), obj, "brute_force", non_unique)


def _search(loss, ens, box, origin, basis, support, lo, hi, edges):
    """The grid, restart, pattern-search and tie steps of
    :func:`brute_force_centroid` on a batch of problems: problem b scores
    the point origin[b] + basis[b] @ z, for reduced coordinates z in the
    box ``lo[b]``, ``hi[b]``, against ``support[b]`` weighted by
    ``ens.weights``. ``edges`` holds extra pattern directions in reduced
    coordinates, one per row. Returns each problem's chosen point, one row
    per problem, and whether any problem has distinct tied minimizers.
    """
    n_problems, m = lo.shape
    d = box.dim
    block = max(1, core.BLOCK_FLOATS // (ens.size * d))

    def objective_batch(n, rows):
        """Objective at rows 0..n-1, where ``rows(i, j)`` gives the points
        and problems of rows i..j-1, evaluated ``block`` rows at a time."""
        vals = np.full(n, np.inf)
        for i in range(0, n, block):
            X, prob = rows(i, min(i + block, n))
            feasible = box.feasible(X, tol=1e-12)
            if np.any(feasible):
                Y = support[prob[feasible]] if n_problems > 1 else support
                with np.errstate(all="ignore"):
                    raw = loss.eval_batch(X[feasible][:, None, :], Y)
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

    # Each problem's candidates are its grid points in C order (local index
    # below n_grid), then the ensemble's support points, which are natural
    # candidates (medians and modes sit on atoms) and are included exactly.
    # Only their objective values are kept; points are rebuilt from the
    # flat index, problem-major.
    n_grid = GRID_RESOLUTION**m
    per = n_grid + ens.size
    axes = np.linspace(lo, hi, GRID_RESOLUTION, axis=-1)
    Z_support = np.einsum("bnd,bdk->bnk", support - origin[:, None, :], basis)

    def candidates(idx):
        prob, local = np.divmod(np.asarray(idx), per)
        Z = np.empty((local.size, m))
        on_grid = local < n_grid
        cells = np.unravel_index(local[on_grid], (GRID_RESOLUTION,) * m)
        Z[on_grid] = np.stack([axes[prob[on_grid], a, c] for a, c in enumerate(cells)], axis=-1)
        Z[~on_grid] = Z_support[prob[~on_grid], local[~on_grid] - n_grid]
        if n_problems == 1:  # the full grid: skip gathering one basis per row
            return origin[0] + Z @ basis[0].T, prob
        return origin[prob] + np.einsum("rk,rdk->rd", Z, basis[prob]), prob

    vals = objective_batch(n_problems * per, lambda i, j: candidates(np.arange(i, j)))
    vals = vals.reshape(n_problems, per)

    # Restarts come from a prefix of the stable ascending order of each
    # problem's vals, long enough for the tie window below; it grows only
    # when duplicate candidates use it up.
    windows, prob, X, V = [], [], [], []
    for b, v in enumerate(vals):
        order = _stable_prefix(v, max(N_RESTARTS, 4 * GRID_RESOLUTION))
        window = order[: 4 * GRID_RESOLUTION]
        X_window = candidates(b * per + window)[0]
        windows.append((v[window], X_window))
        starts = []
        pos = 0
        while len(starts) < N_RESTARTS:
            if pos == order.size:
                if order.size == v.size:
                    break
                order = _stable_prefix(v, 2 * order.size)
            idx = order[pos]
            x = X_window[pos] if pos < window.size else candidates([b * per + idx])[0][0]
            pos += 1
            if not np.isfinite(v[idx]):
                break
            if any(np.max(np.abs(x - s)) < 1e-12 for s in starts):
                continue
            starts.append(x)
            V.append(float(v[idx]))
        if not starts:
            raise ValueError("no candidate with a finite objective for brute-force search")
        prob += [b] * len(starts)
        X += starts

    # Pattern search on every (problem, start) row at once. Each row begins
    # with its grid spacing as its step; the stencil's centre (all zeros)
    # wins ties, so a row moves only to a strictly better point, and a row
    # that does not move halves its step. Rows stop once their step is
    # below 1e-11 in the reduced coordinates, all of them after 1000
    # passes. Rows move in full coordinates, by the stencil mapped through
    # their problem's basis. Each pass evaluates the stencil at
    # PATTERN_LEVELS successive halvings of every row's step and replays
    # that rule on them: a row takes the first level with a strictly
    # better point, after halving once per level before it. So it visits
    # the points it would visit one level per pass, in fewer passes.
    stencil = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * m, indexing="ij"), -1).reshape(-1, m)
    centre = stencil.shape[0] // 2
    stencil = np.vstack([stencil, edges])
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    moves = np.einsum("bsk,bdk->bsd", stencil[None, :, :] * spacing[:, None, :], basis)
    prob, X, V = np.array(prob), np.array(X), np.array(V)
    reach = spacing.max(axis=1)[prob]
    start_X, start_V = X.copy(), V.copy()
    scale = np.ones(len(prob))
    halvings = 0.5 ** np.arange(PATTERN_LEVELS)
    for _ in range(1000):
        active = np.flatnonzero(scale * reach >= 1e-11)
        if active.size == 0:
            break
        level_scale = scale[active, None] * halvings
        trial = (X[active, None, None, :]
                 + level_scale[:, :, None, None] * moves[prob[active], None, :, :])
        trial_prob = np.repeat(prob[active], PATTERN_LEVELS * stencil.shape[0])
        flat = trial.reshape(-1, d)
        tv = objective_batch(len(flat), lambda i, j: (flat[i:j], trial_prob[i:j]))
        tv = tv.reshape(active.size, PATTERN_LEVELS, -1)
        best_v = tv.min(axis=2)
        # A level whose step is below the threshold is never reached.
        better = (best_v < tv[:, :, centre]) & (level_scale * reach[active, None] >= 1e-11)
        moved = better.any(axis=1)
        first = np.where(moved, better.argmax(axis=1), PATTERN_LEVELS)
        idx, level = active[moved], first[moved]
        X[idx] = trial[moved, level, np.argmin(tv[moved, level], axis=1)]
        V[idx] = best_v[moved, level]
        scale[active] *= 0.5**first

    chosen = np.empty((n_problems, d))
    non_unique = False
    for b, (window_vals, X_window) in enumerate(windows):
        mine = prob == b
        cand_X = list(start_X[mine]) + list(X[mine])
        cand_V = [float(v) for v in start_V[mine]] + [float(v) for v in V[mine]]
        # Keep every evaluated point tied with the best (flat minimizers
        # show up as scattered grid candidates), capped to keep clustering
        # cheap.
        f_best = float(np.min(cand_V))
        tie = window_vals <= f_best + TIE_TOL
        cand_X += list(X_window[tie])
        cand_V += [float(v) for v in window_vals[tie]]

        tied = [(p, v) for p, v in zip(cand_X, cand_V) if v <= f_best + TIE_TOL]
        # Cluster ties that describe the same minimizer; within a cluster
        # keep the best objective (support atoms beat refined
        # approximations of themselves), across clusters pick the
        # lexicographically smallest.
        clusters: list[tuple[np.ndarray, float]] = []
        for p, v in tied:
            for ci, (cp, cv) in enumerate(clusters):
                if np.max(np.abs(p - cp)) <= DISTINCT_TOL:
                    if v < cv or (v == cv and tuple(p) < tuple(cp)):
                        clusters[ci] = (p, v)
                    break
            else:
                clusters.append((p, v))
        chosen[b] = min(clusters, key=lambda c: tuple(c[0]))[0]
        non_unique = non_unique or len(clusters) > 1
    return chosen, non_unique


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
    div: GBregmanDivergence, ens: WeightedEnsemble, side: str
) -> CentroidResult:
    """Centroid of kl, reverse_kl or alpha on the probability simplex, the
    rescaled f-mean of :func:`f_mean_prediction`: for alpha the normalized
    power mean (Amari, Neural Computation 2007), for KL the normalized
    geometric mean, the power mean of order 0 (Nielsen & Nock, IEEE Trans.
    Inf. Theory 2009). ``side="second_arg"`` solves on ``div.reverse()``.
    """
    if not _simplex_family(div):
        raise ValueError("power-mean centroids need kl, reverse_kl or alpha on the simplex")
    if side not in ("first_arg", "second_arg"):
        raise ValueError("side must be 'first_arg' or 'second_arg'")
    return f_mean_prediction(div if side == "first_arg" else div.reverse(), ens)
