"""Central labels and central predictions.

The central label is the single point minimizing the expected divergence to
a label distribution (expectation over the first argument, minimization
over the second); the central prediction minimizes over the first argument
against a prediction distribution. For g-Bregman divergences these are the
g-mean and f-mean (rescaled to sum 1 for kl, reverse_kl and alpha on the
simplex); with other linear equality constraints they follow from a Newton
solve on the Lagrange multipliers. A grid search refined by a batched
multi-start pattern search provides an independent check and handles
arbitrary losses. Each solver has a point step (objective nan; the oracle's
runs (loss, ensemble) jobs in lockstep), which the public solver scores.
:func:`central_prediction` picks the cheapest that is exact for a loss;
each label-side solve is the prediction-side solve of ``loss.reverse()``.
"""

from __future__ import annotations

import itertools
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
            lam = np.array([(f.forward(point) - mean)[point > 0].mean()])
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
    :meth:`Domain.simplex`, which the domain decides when it is built."""
    return "simplex" in div.params and div.domain._is_simplex


def central_label(loss: LossFunction, labels: WeightedEnsemble) -> CentroidResult:
    """Central label: the central prediction of ``loss.reverse()``."""
    return central_prediction(loss.reverse(), labels)


def brute_force_centroid(loss: LossFunction, ens: WeightedEnsemble, side: str) -> CentroidResult:
    """Minimize the expected loss over one argument by exhaustive search.

    ``side`` names the free argument: ``"first_arg"`` minimizes
    E loss(x, P) over x (central prediction when P are predictions),
    ``"second_arg"`` minimizes E loss(P, x) (central label), which is the
    ``"first_arg"`` search on ``loss.reverse()``; another ``side`` raises ``ValueError``.

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
    the block size changes no answer.
    ``MAX_GRID_FLOATS`` bounds the work: a grid whose evaluation would
    exceed it raises ``ValueError`` before any evaluation. A search in which
    no candidate has a finite objective raises ``ValueError`` too.

    It scores the one-job case of the lockstep search (unscored points) that
    :func:`~bvd.decomposition.decompose_generic` and :func:`~bvd.uniqueness.classify_loss` run.
    """
    if side not in ("first_arg", "second_arg"):
        raise ValueError("side must be 'first_arg' or 'second_arg'")
    loss = loss.reverse() if side == "second_arg" else loss
    res = _brute_force_batch([(loss, ens)])[0]
    if isinstance(res, Exception):
        raise res
    return _scored(loss, res, ens)


def _brute_force_batch(jobs: list) -> list:
    """The point step of :func:`brute_force_centroid` (objective nan), in
    lockstep, over the first argument of each (loss, ensemble) of ``jobs``:
    per job its point or the exception a lone search raises. The losses are
    a loss and its reverse, which share the domain object and separability."""
    if not jobs:
        return []
    domain, d = jobs[0][0].domain, jobs[0][0].dim
    separable = jobs[0][0].separable and domain.n_constraints == 0
    n_problems, m = (d, 1) if separable else (1, d - domain.n_constraints)
    n_grid = GRID_RESOLUTION**m
    # The jobs of each loss object search together, in order of first appearance.
    results, groups = [None] * len(jobs), {}
    for i, (loss, ens) in enumerate(jobs):
        try:
            domain.require_points(ens.points, "ensemble point")
            if not domain.is_bounded:
                raise ValueError("brute-force search needs a bounded box domain")
            if n_problems * n_grid * ens.size * d > MAX_GRID_FLOATS:
                axes = f"{n_problems} axes x " if n_problems > 1 else ""
                raise ValueError(
                    f"brute-force grid of {axes}{GRID_RESOLUTION}^{m} = {n_problems * n_grid} "
                    f"points x {ens.size} support points x d = {d} exceeds {MAX_GRID_FLOATS} floats"
                )
        except Exception as exc:  # a lone call raises it
            results[i] = exc
        else:
            groups.setdefault(id(loss), []).append(i)
    live = [i for group in groups.values() for i in group]
    if not live:
        return results
    enss = [jobs[i][1] for i in live]

    # Each search problem b maps reduced coordinates z to the point
    # origin[b] + basis[b] @ z and is scored against its own support[b]: one
    # 1-D problem per axis for a separable loss, else one problem on the
    # null space of the equality constraints (W has full row rank).
    edges, supports = np.zeros((0, m)), [ens.points[None] for ens in enss]
    if separable:
        # Problem i: coordinate i is free, the others sit at the box centre
        # in both arguments.
        own_axis = np.eye(d, dtype=bool)
        centre = 0.5 * (domain.lower + domain.upper)
        origin = np.where(own_axis, 0.0, centre)
        basis = np.eye(d)[:, :, None]
        supports = [np.where(own_axis[:, None, :], S, centre) for S in supports]
        lo, hi = domain.lower[:, None], domain.upper[:, None]
    elif domain.n_constraints:
        W, b = domain.eq_lhs, domain.eq_rhs
        origin = np.linalg.lstsq(W, b, rcond=None)[0]
        # The last d - k right singular vectors span the null space of W.
        null = np.linalg.svd(W)[2][W.shape[0]:].T
        radius = float(np.linalg.norm(domain.upper - domain.lower)
                       + np.linalg.norm(0.5 * (domain.lower + domain.upper) - origin))
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
        edges = np.array([null[i] - null[j] for i, j in pairs])
        origin, basis = origin[None], null[None]
        lo, hi = np.full((1, m), -radius), np.full((1, m), radius)
    else:
        origin, basis = np.zeros((1, d)), np.eye(d)[None]
        lo, hi = domain.lower[None], domain.upper[None]
    try:
        with np.errstate(all="ignore"):
            found = [(origin.copy(), False) for _ in live] if m == 0 else _search(
                [(jobs[group[0]][0], len(group)) for group in groups.values()],
                enss, supports, domain, origin, basis, lo, hi, edges)
    except Exception as exc:  # an evaluation raised: each job gets what it raises alone
        return [r or (exc if len(live) == 1 else _brute_force_batch([job])[0])
                for r, job in zip(results, jobs)]
    for i, job in zip(live, found):
        results[i] = job if isinstance(job, Exception) else CentroidResult(
            np.diagonal(job[0]).copy() if separable else job[0][0], np.zeros(0), np.nan,
            "brute_force", job[1])
    return results


def _search(groups, enss, supports, domain, origin, basis, lo, hi, edges):
    """The grid, restart, pattern-search and tie steps of
    :func:`brute_force_centroid` for a batch of jobs. Job s's problem b
    scores origin[b] + basis[b] @ z, z in the box lo[b], hi[b], against
    supports[s][b] weighted by enss[s].weights, under its loss in
    ``groups`` ((loss, number of jobs) pairs in job order); ``edges`` are
    extra pattern directions in z. Per job: its points, one per problem,
    and whether some problem's tied minimizers are distinct; or a
    ``ValueError`` when it has no finite candidate."""
    n_jobs, (n_problems, m), d = len(enss), lo.shape, domain.dim
    sizes, weights = [ens.size for ens in enss], [ens.weights for ens in enss]
    # Problem q = s * n_problems + b is scored against Y[q]: its support padded
    # to the largest by repeating its last point, columns dropped before weighting.
    pad = [np.minimum(np.arange(max(sizes)), n - 1) for n in sizes]
    Y = np.concatenate([S[:, cols] for S, cols in zip(supports, pad)])
    chunk = max(1, core.BLOCK_FLOATS // (Y.shape[1] * d))
    bounds = list(itertools.accumulate((k for _, k in groups), initial=0))
    box_lo, box_hi = domain.lower - 1e-12, domain.upper + 1e-12  # as box.feasible(tol=1e-12)

    def objective_batch(n, rows, starts):
        """Objective, inf where infeasible or not finite, at the rows ``rows(i, j)``
        gives; job s owns the rows from starts[s] on. One ``eval_batch`` per loss and chunk."""
        vals = np.full(n, np.inf)
        for i in range(0, n, chunk):
            X, q = rows(i, min(i + chunk, n))
            inside = (X >= box_lo) & (X <= box_hi)  # a reduction per row costs more
            ok = np.arange(len(X)) if inside.all() else np.flatnonzero(inside.all(axis=1))
            cut, parts = np.searchsorted(ok, [t - i for t in starts]).tolist(), []
            for (loss, _), first, last in zip(groups, bounds, bounds[1:]):
                if cut[first] == cut[last]:
                    continue
                sel = ok[cut[first] : cut[last]]
                raw = loss.eval_batch(X.take(sel, 0)[:, None, :],
                                      Y if len(Y) == 1 else Y.take(q.take(sel), 0))
                for s in range(first, last):
                    # A fixed-order sum per row, which BLAS's products are not:
                    # they round a row by how many rows the block has.
                    piece = raw[cut[s] - cut[first] : cut[s + 1] - cut[first], : sizes[s]]
                    parts.append(np.einsum("ij,j->i", piece, weights[s]))
            if parts:
                vals[i : i + len(X)][ok] = np.concatenate(parts)
        # The weights are positive: a non-finite loss gives a non-finite sum.
        return np.where(np.isfinite(vals), vals, np.inf)

    # Each problem's candidates are its grid points in C order (local index
    # below n_grid), then its job's support points, which are natural
    # candidates (medians and modes sit on atoms) and are included exactly.
    # Only their objective values are kept; points are rebuilt from the
    # flat index, job-major, then problem-major.
    n_grid = GRID_RESOLUTION**m
    per = n_grid + np.array(sizes)
    offset = np.concatenate([[0], np.cumsum(n_problems * per)])
    axes = np.linspace(lo, hi, GRID_RESOLUTION, axis=-1)
    Z_support = np.concatenate([np.einsum("bnd,bdk->bnk", S - origin[:, None, :], basis)[:, cols]
                                for S, cols in zip(supports, pad)])

    def candidates(idx):
        s = np.searchsorted(offset, idx, side="right") - 1
        b, local = np.divmod(idx - offset[s], per[s])
        q = s * n_problems + b
        Z = np.empty((idx.size, m))
        on_grid = local < n_grid
        cells = np.unravel_index(local[on_grid], (GRID_RESOLUTION,) * m)
        Z[on_grid] = np.stack([axes[b[on_grid], a, c] for a, c in enumerate(cells)], axis=-1)
        Z[~on_grid] = Z_support[q[~on_grid], local[~on_grid] - n_grid]
        if n_problems > 1:
            return origin[b] + np.einsum("rk,rdk->rd", Z, basis[b]), q
        return origin[0] + np.einsum("rk,dk->rd", Z, basis[0]), q

    vals = objective_batch(offset[-1], lambda i, j: candidates(np.arange(i, j)), offset.tolist())

    # Restarts come from a prefix of the stable ascending order of each
    # problem's vals, long enough for the tie window below; it grows only when
    # duplicates use it up. They are found on Python floats: numpy costs more.
    window = 4 * GRID_RESOLUTION
    bases = [offset[s] + b * per[s] for s in range(n_jobs) for b in range(n_problems)]
    vs = [vals[k : k + per[q // n_problems]] for q, k in enumerate(bases)]
    orders = [_stable_prefix(v, max(N_RESTARTS, window)) for v in vs]
    X_windows = np.split(
        candidates(np.concatenate([k + order[:window] for k, order in zip(bases, orders)]))[0],
        np.cumsum([min(order.size, window) for order in orders])[:-1])
    n_starts, prob, X, V = [], [], [], []
    for q, (k, v, order, X_window) in enumerate(zip(bases, vs, orders, X_windows)):
        points, values, picked, pos = X_window.tolist(), v[order[:window]].tolist(), [], 0
        while len(picked) < N_RESTARTS:
            if pos == order.size:
                if order.size == v.size:
                    break
                order = _stable_prefix(v, 2 * order.size)
            if pos == len(points):
                points += candidates(k + order[pos : pos + 1])[0].tolist()
                values.append(float(v[order[pos]]))
            x, value = points[pos], values[pos]
            pos += 1
            if not value < np.inf:
                break
            if not any(max(abs(a - c) for a, c in zip(x, s)) < 1e-12 for s in picked):
                picked.append(x)
                V.append(value)
        n_starts.append(len(picked))
        prob += [q] * len(picked)
        X += picked
    prob, X, V = np.array(prob, dtype=int), np.array(X).reshape(-1, d), np.array(V)

    # Pattern search on every (job, problem, start) row at once. Each row
    # begins with its grid spacing as its step; the stencil's centre (all
    # zeros) wins ties, so a row moves only to a strictly better point, and
    # a row that does not move halves its step. Rows stop once their step
    # is below 1e-11 in the reduced coordinates, all of them after 1000
    # passes. Rows move in full coordinates, by the stencil mapped through
    # their problem's basis. Each pass evaluates the stencil at
    # PATTERN_LEVELS successive halvings of every row's step and replays
    # that rule on them: a row takes the first level with a strictly
    # better point, after halving once per level before it. So it visits
    # the points it would visit one level per pass, in fewer passes.
    stencil = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=m)) + list(edges))
    centre = 3**m // 2
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    moves = np.einsum("bsk,bdk->bsd", stencil[None, :, :] * spacing[:, None, :], basis)
    halvings = 0.5 ** np.arange(PATTERN_LEVELS + 1)
    n_trials = PATTERN_LEVELS * stencil.shape[0]
    start_X, start_V = X.copy(), V.copy()
    # The rows still searching, with their moves at every level (exact:
    # steps are powers of 2); a row's X and V are written back as it stops.
    rows, Xa, Va, scale = np.arange(len(prob)), X.copy(), V.copy(), np.ones(len(prob))
    reach = spacing.max(axis=1)[prob % n_problems]
    row_moves = halvings[:-1, None, None] * moves[prob % n_problems][:, None]
    for n_pass in range(1000):
        steps = scale * reach
        if n_pass == 0 or steps.min() < 1e-11:
            live = steps >= 1e-11
            X[rows], V[rows] = Xa, Va
            rows, Xa, Va, scale, reach, row_moves, steps = (
                a[live] for a in (rows, Xa, Va, scale, reach, row_moves, steps))
            if rows.size == 0:
                break
            trial_q = np.repeat(prob[rows], n_trials)
            starts = [n_trials * k for k in itertools.accumulate(
                np.bincount(prob[rows] // n_problems, minlength=n_jobs).tolist(), initial=0)]
        trial = Xa[:, None, None, :] + scale[:, None, None, None] * row_moves
        flat = trial.reshape(-1, d)
        tv = objective_batch(len(flat), lambda i, j: (flat[i:j], trial_q[i:j]), starts)
        tv = tv.reshape(rows.size, PATTERN_LEVELS, -1)
        best_v = np.minimum.reduce(tv, axis=2)
        better = best_v < tv[:, :, centre]
        if steps.min() * halvings[-2] < 1e-11:
            # A level whose step is below the threshold is never reached.
            better &= steps[:, None] * halvings[:-1] >= 1e-11
        first = np.where(better.any(axis=1), better.argmax(axis=1), PATTERN_LEVELS)
        moved = np.flatnonzero(first < PATTERN_LEVELS)  # indices beat a boolean mask
        level = first[moved]
        Xa[moved] = trial[moved, level, np.argmin(tv[moved, level], axis=1)]
        Va[moved] = best_v[moved, level]
        scale *= halvings[first]
    X[rows], V[rows] = Xa, Va

    chosen, non_unique = np.empty((n_jobs, n_problems, d)), [False] * n_jobs
    ends = list(itertools.accumulate(n_starts))
    for q, (a, b, v, order, X_window) in enumerate(zip([0] + ends, ends, vs, orders, X_windows)):
        if a == b:
            continue
        window_vals = v[order[:window]]
        # Keep every evaluated point tied with the best (flat minimizers
        # show up as scattered grid candidates), capped to keep clustering
        # cheap.
        f_best = min(start_V[a:b].min(), V[a:b].min())
        tie = window_vals <= f_best + TIE_TOL
        cand_X = np.concatenate([start_X[a:b], X[a:b], X_window[tie]])
        cand_V = np.concatenate([start_V[a:b], V[a:b], window_vals[tie]])
        points, cand_V = cand_X[cand_V <= f_best + TIE_TOL], cand_V[cand_V <= f_best + TIE_TOL]
        near = (np.max(np.abs(points[:, None] - points[None]), axis=2) <= DISTINCT_TOL).tolist()
        key, cand_V = points.tolist(), cand_V.tolist()
        # Cluster ties that describe the same minimizer; within a cluster
        # keep the best objective (support atoms beat refined
        # approximations of themselves), across clusters pick the
        # lexicographically smallest.
        clusters: list[int] = []
        for i, v_i in enumerate(cand_V):
            for ci, c in enumerate(clusters):
                if near[i][c]:
                    if v_i < cand_V[c] or (v_i == cand_V[c] and key[i] < key[c]):
                        clusters[ci] = i
                    break
            else:
                clusters.append(i)
        chosen[q // n_problems, q % n_problems] = points[min(clusters, key=key.__getitem__)]
        non_unique[q // n_problems] |= len(clusters) > 1
    return [(chosen[s], non_unique[s]) if all(n_starts[s * n_problems : (s + 1) * n_problems])
            else ValueError("no candidate with a finite objective for brute-force search")
            for s in range(n_jobs)]


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
