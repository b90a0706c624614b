"""Numerical separability tests for black-box losses.

A loss with an additive bias-variance decomposition has a mixed second
derivative that factorizes into a prediction part times a label part,
H(t, y) = H2(y) H1(t)^T. Stacking the d x d mixed-derivative blocks over a
grid of labels (columns) and predictions (rows) therefore yields a matrix
of rank at most d. This module estimates the blocks by central finite
differences, runs the rank test via SVD, and combines it with a
decomposition-gap search into an empirical classifier. Verdicts are
evidence, not proofs: they carry grids, seeds, singular values, and
witnesses so that every claim is reproducible.

One helper estimates n pairs at once and holds both finite-difference
checks: stencils inside the box (``Domain.feasible``) and step-halving
reliability. :func:`mixed_hessian_fd` is its one-pair case. The classifier
takes only a seed; its sizes and thresholds are the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import LossFunction, Record, make_ensemble
from .centroids import _brute_force_batch
from .decomposition import _report

DEFAULT_STEP_SCALE = 1e-4
RANK_THRESHOLD = 1e-6
RELIABILITY_TOL = 1e-4
MAX_UNRELIABLE_FRACTION = 0.10
KINK_MARGIN_STEPS = 10.0

# The classifier's probe sizes and gap threshold, the latter relative to the
# expected loss, so that the verdict does not depend on the loss's unit.
GRID_SIZE = 8
N_SEPARABILITY_TRIALS = 2
N_GAP_TRIALS = 6
SUPPORT_SIZE = 4
GAP_THRESHOLD = 1e-3
INTERIOR_MARGIN = 0.08


class UnreliableHessianError(RuntimeError):
    """Too many finite-difference samples failed the step-halving check."""


@dataclass(frozen=True)
class MixedHessianSample:
    """One finite-difference estimate of d2 L / dy_i dt_j at (label, prediction)."""

    label: np.ndarray
    prediction: np.ndarray
    matrix: np.ndarray
    step: float
    reliable: bool


@dataclass(frozen=True)
class SeparabilityVerdict(Record):
    numerical_rank: int
    singular_values: np.ndarray
    threshold: float
    separable: bool
    dim: int
    n_samples: int
    n_unreliable: int
    witness: dict | None = None


def _mixed_hessian_batch(
    loss: LossFunction, T: np.ndarray, Y: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Central-difference mixed blocks for n (label, prediction) pairs.

    Returns (n, d, d) with entry [n, i, j] = d2 L / dy_i dt_j. Each entry
    uses a 4-point stencil. The label stencils have shape (n, 1, d, d) (step
    along axis j) and the prediction stencils (n, d, 1, d) (step along i);
    each of the four sign pairs is one ``eval_batch`` call on their
    broadcast (n, d, d) product, so each stencil point is passed once.
    """
    d = T.shape[1]
    E = np.eye(d)
    hh = h[:, None, None, None]
    Tj_plus = T[:, None, None, :] + hh * E[None, None, :, :]
    Tj_minus = T[:, None, None, :] - hh * E[None, None, :, :]
    Yi_plus = Y[:, None, None, :] + hh * E[None, :, None, :]
    Yi_minus = Y[:, None, None, :] - hh * E[None, :, None, :]
    with np.errstate(all="ignore"):
        l_pp = loss.eval_batch(Tj_plus, Yi_plus)
        l_pm = loss.eval_batch(Tj_plus, Yi_minus)
        l_mp = loss.eval_batch(Tj_minus, Yi_plus)
        l_mm = loss.eval_batch(Tj_minus, Yi_minus)
    denom = (4.0 * h * h)[:, None, None]
    return (l_pp - l_pm - l_mp + l_mm) / denom


def _mixed_hessians(
    loss: LossFunction, T: np.ndarray, Y: np.ndarray, step: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixed blocks of n (label, prediction) pairs, their steps, and which
    are reliable: ``(H, h, reliable)`` with H of shape (n, d, d).

    Every pair gets stencil width ``step``, or by default 1e-4 times one
    plus the pair's largest coordinate magnitude. A pair is unreliable when
    halving its step moves some entry by more than 1e-4 relative to the
    block's scale. Raises ``ValueError`` for a non-positive step or a
    stencil that leaves the domain's box.
    """
    if step is None:
        h = DEFAULT_STEP_SCALE * (
            1.0 + np.maximum(np.max(np.abs(T), axis=1), np.max(np.abs(Y), axis=1))
        )
    elif step > 0:
        h = np.full(T.shape[0], float(step))
    else:
        raise ValueError("step must be positive")
    hc = h[:, None]
    stencil_corners = np.stack([T - hc, T + hc, Y - hc, Y + hc])
    inside = loss.domain.without_equalities().feasible(stencil_corners, tol=0).all(axis=0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(
            f"finite-difference stencil of width {h[i]:.3g} leaves the domain "
            f"at label {T[i]}, prediction {Y[i]}"
        )
    H = _mixed_hessian_batch(loss, T, Y, h)
    H_half = _mixed_hessian_batch(loss, T, Y, h / 2.0)
    scale = 1.0 + np.max(np.abs(H_half), axis=(1, 2))
    finite = np.all(np.isfinite(H), axis=(1, 2)) & np.all(np.isfinite(H_half), axis=(1, 2))
    drift = np.max(np.abs(H - H_half), axis=(1, 2))
    return H, h, finite & (drift <= RELIABILITY_TOL * scale)


def mixed_hessian_fd(
    loss: LossFunction, t, y, step: float | None = None
) -> MixedHessianSample:
    """Estimate the mixed second derivative matrix of the loss at (t, y).

    Entry (i, j) approximates d2 L / dy_i dt_j with a 4-point central
    stencil of width ``step`` (default 1e-4 times one plus the point
    scale): the one-pair case of the estimate :func:`separability_rank_test`
    stacks. The sample is flagged unreliable when halving the step moves
    some entry by more than 1e-4 relative to the matrix scale; callers are
    responsible for keeping kinked losses (e.g. Minkowski exponents below
    2) well away from the diagonal.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    H, h, reliable = _mixed_hessians(loss, t[None, :], y[None, :], step)
    return MixedHessianSample(
        label=t, prediction=y, matrix=H[0], step=float(h[0]), reliable=bool(reliable[0])
    )


def separability_rank_test(
    loss: LossFunction, label_grid, pred_grid, step: float | None = None
) -> SeparabilityVerdict:
    """Rank test of the stacked mixed-derivative blocks over two grids.

    Builds M[(l, i), (k, j)] = d2 L / dy_i dt_j at (t_k, y_l) and counts
    singular values above 1e-6 times the largest. A loss whose mixed
    derivative factorizes as H2(y) H1(t)^T gives rank at most d. The
    verdict is withheld (:class:`UnreliableHessianError`) when more than
    10% of the samples fail the step-halving check.

    For d = 1 a non-separable verdict carries a witness: the two labels
    and two predictions whose 2 x 2 minor has the largest raw |det| (not
    normalized by the entries' scale), the first in (prediction pair,
    label, label) order.
    """
    T_grid = np.atleast_2d(np.asarray(label_grid, dtype=float))
    Y_grid = np.atleast_2d(np.asarray(pred_grid, dtype=float))
    d = loss.dim
    if T_grid.shape[1] != d or Y_grid.shape[1] != d:
        raise ValueError("grid dimension mismatch")
    if T_grid.shape[0] < 2 * d or Y_grid.shape[0] < 2 * d:
        raise ValueError(f"need at least {2 * d} points per grid")
    K, L = T_grid.shape[0], Y_grid.shape[0]

    T = np.repeat(T_grid[None, :, :], L, axis=0).reshape(-1, d)  # pair (l, k)
    Y = np.repeat(Y_grid[:, None, :], K, axis=1).reshape(-1, d)
    H, _, reliable = _mixed_hessians(loss, T, Y, step)
    n_unreliable = int(np.sum(~reliable))
    n_samples = T.shape[0]
    if n_unreliable > MAX_UNRELIABLE_FRACTION * n_samples:
        raise UnreliableHessianError(
            f"{n_unreliable}/{n_samples} mixed-derivative samples failed the "
            "step-halving check; verdict withheld"
        )

    blocks = H.reshape(L, K, d, d)
    M = blocks.transpose(0, 2, 1, 3).reshape(L * d, K * d)
    singular_values = np.linalg.svd(M, compute_uv=False)
    cutoff = RANK_THRESHOLD * singular_values[0] if singular_values[0] > 0 else 0.0
    numerical_rank = int(np.sum(singular_values > cutoff))
    separable = numerical_rank <= d

    witness = None
    if not separable and d == 1:
        det, k1, k2, l1, l2 = _largest_minor(blocks[:, :, 0, 0])
        witness = {
            "labels": [float(T_grid[k1, 0]), float(T_grid[k2, 0])],
            "predictions": [float(Y_grid[l1, 0]), float(Y_grid[l2, 0])],
            "determinant": det,
        }

    return SeparabilityVerdict(
        numerical_rank=numerical_rank,
        singular_values=singular_values,
        threshold=RANK_THRESHOLD,
        separable=separable,
        dim=d,
        n_samples=n_samples,
        n_unreliable=n_unreliable,
        witness=witness,
    )


def _largest_minor(scalar: np.ndarray) -> tuple[float, int, int, int, int]:
    """``(det, k1, k2, l1, l2)`` of the 2 x 2 minor of ``scalar`` on rows
    l1 < l2 and columns k1, k2 that ``np.argmax`` picks from the |det| of
    the whole L(L - 1)/2 x K x K stack: the first largest, or the first NaN.
    The stack is built in chunks of row pairs, at most ``core.BLOCK_FLOATS``
    floats and one pair at least; a later chunk wins by the same rule."""
    l1s, l2s = np.triu_indices(scalar.shape[0], 1)
    pairs = max(1, core.BLOCK_FLOATS // scalar.shape[1] ** 2)
    best = None
    for start in range(0, l1s.size, pairs):
        a, b = l1s[start : start + pairs], l2s[start : start + pairs]
        dets = scalar[a, :, None] * scalar[b, None, :] - scalar[b, :, None] * scalar[a, None, :]
        p, k1, k2 = np.unravel_index(np.argmax(np.abs(dets)), dets.shape)
        if best is None or np.argmax([abs(best[0]), abs(dets[p, k1, k2])]) == 1:
            best = (float(dets[p, k1, k2]), int(k1), int(k2), int(a[p]), int(b[p]))
    return best


@dataclass(frozen=True)
class ClassifierConfig:
    """The classifier's one setting; its sizes and thresholds are the
    module constants above."""

    seed: int = 0


@dataclass(frozen=True)
class ClassificationResult(Record):
    verdict: str  # consistent_with_gbregman | not_gbregman | inconclusive
    evidence: dict


def _sample_grid(rng, lo, hi, n, domain):
    """n uniform rows of the box [lo, hi], projected onto the domain's
    equality set {x : W x = b} when it has one; a projected row that leaves
    the box is redrawn, up to 200 times (one left outside makes its trial
    fail as infeasible)."""
    X = lo + (hi - lo) * rng.random((n, lo.size))
    if domain.n_constraints == 0:
        return X
    W, b = domain.eq_lhs, domain.eq_rhs

    def project(X):
        return X - np.linalg.solve(W @ W.T, (X @ W.T - b).T).T @ W

    X = project(X)
    for _ in range(200):
        out = np.flatnonzero(((X < lo) | (X > hi)).any(axis=1))
        if out.size == 0:
            break
        X[out] = project(lo + (hi - lo) * rng.random((out.size, lo.size)))
    return X


def classify_loss(loss: LossFunction, config: ClassifierConfig | None = None) -> ClassificationResult:
    """Empirically decide whether a loss behaves like a g-Bregman divergence.

    Two independent probes, both seeded and repeatable, on the domain's box
    shrunk by ``INTERIOR_MARGIN`` of its width on each side (points drawn on
    the domain's equality set, when it has one):

    1. separability of the mixed second derivative on
       ``N_SEPARABILITY_TRIALS`` random pairs of ``GRID_SIZE``-point grids
       (kinked losses get grids kept 10 steps away from the diagonal);
    2. decomposition-gap search over ``N_GAP_TRIALS`` random pairs of
       ensembles of 2 to ``SUPPORT_SIZE`` points, with brute-force
       centroids: every pair is drawn first, then all their centroids are
       searched in lockstep.

    ``not_gbregman`` requires a reliable witness (a non-separable rank
    verdict or a gap above ``GAP_THRESHOLD`` times the expected loss);
    ``consistent_with_gbregman`` means every probe passed. Evaluation
    failures make the result ``inconclusive``. The verdict is empirical
    evidence at these sizes, never a proof.
    """
    config = config or ClassifierConfig()
    rng = np.random.default_rng(config.seed)
    domain = loss.domain
    if not domain.is_bounded:
        raise ValueError("classification needs a bounded domain")
    margin = INTERIOR_MARGIN * (domain.upper - domain.lower)
    lo, hi = domain.lower + margin, domain.upper - margin
    d = loss.dim
    evidence: dict = {
        "seed": config.seed,
        "grid_size": GRID_SIZE,
        "n_separability_trials": N_SEPARABILITY_TRIALS,
        "n_gap_trials": N_GAP_TRIALS,
        "gap_threshold": GAP_THRESHOLD,
        "separability": [],
        "gap_search": [],
        "failures": [],
    }
    witness_found = False
    failures = 0

    h_ref = DEFAULT_STEP_SCALE * (1.0 + float(np.max(np.abs([lo, hi]))))
    kink_margin = KINK_MARGIN_STEPS * h_ref

    for trial in range(N_SEPARABILITY_TRIALS):
        label_grid = _sample_grid(rng, lo, hi, max(GRID_SIZE, 2 * d), domain)
        pred_grid = _sample_grid(rng, lo, hi, max(GRID_SIZE, 2 * d), domain)
        if loss.has_diagonal_kinks:
            for row in range(pred_grid.shape[0]):
                for _ in range(200):
                    seps = np.min(np.abs(label_grid - pred_grid[row]), axis=1)
                    if np.all(seps >= kink_margin):
                        break
                    pred_grid[row] = _sample_grid(rng, lo, hi, 1, domain)[0]
        try:
            verdict = separability_rank_test(loss, label_grid, pred_grid)
        except (UnreliableHessianError, ValueError, ArithmeticError) as exc:
            failures += 1
            evidence["failures"].append(f"separability trial {trial}: {exc}")
            continue
        evidence["separability"].append(verdict.to_json())
        if not verdict.separable:
            witness_found = True

    pairs, jobs, rev = [], [], loss.reverse()
    for _ in range(N_GAP_TRIALS):
        n = int(rng.integers(2, SUPPORT_SIZE + 1))
        labels = make_ensemble(_sample_grid(rng, lo, hi, n, domain), rng.random(n) + 0.1)
        m = int(rng.integers(2, SUPPORT_SIZE + 1))
        preds = make_ensemble(_sample_grid(rng, lo, hi, m, domain), rng.random(m) + 0.1)
        pairs.append((labels, preds))
        jobs += [(rev, labels), (loss, preds)]
    centroids = _brute_force_batch(jobs)
    for trial, (labels, preds) in enumerate(pairs):
        try:
            report = _report(loss, labels, preds, *centroids[2 * trial : 2 * trial + 2])
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            failures += 1
            evidence["failures"].append(f"gap trial {trial}: {exc}")
            continue
        entry = {
            "labels": labels.to_json(),
            "preds": preds.to_json(),
            "gap": report.gap,
            "expected_loss": report.expected_loss,
        }
        evidence["gap_search"].append(entry)
        if abs(report.gap) > GAP_THRESHOLD * abs(report.expected_loss):
            witness_found = True

    if witness_found:
        verdict = "not_gbregman"
    elif failures == 0:
        verdict = "consistent_with_gbregman"
    else:
        verdict = "inconclusive"
    return ClassificationResult(verdict=verdict, evidence=evidence)
