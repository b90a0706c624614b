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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Domain, LossFunction, make_ensemble
from .decomposition import decompose_generic

DEFAULT_STEP_SCALE = 1e-4
RANK_THRESHOLD = 1e-6
RELIABILITY_TOL = 1e-4
MAX_UNRELIABLE_FRACTION = 0.10
KINK_MARGIN_STEPS = 10.0


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
class SeparabilityVerdict:
    numerical_rank: int
    singular_values: np.ndarray
    threshold: float
    separable: bool
    dim: int
    n_samples: int
    n_unreliable: int
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "numerical_rank": self.numerical_rank,
            "singular_values": np.asarray(self.singular_values).tolist(),
            "threshold": self.threshold,
            "separable": self.separable,
            "dim": self.dim,
            "n_samples": self.n_samples,
            "n_unreliable": self.n_unreliable,
            "witness": self.witness,
        }


def default_step(t: np.ndarray, y: np.ndarray) -> float:
    scale = max(np.max(np.abs(t)), np.max(np.abs(y)))
    return DEFAULT_STEP_SCALE * (1.0 + scale)


def _stencil_inside(domain: Domain, P: np.ndarray, h: np.ndarray) -> bool:
    """All +-h coordinate perturbations of the rows of P stay in the box."""
    lo = domain.lower if domain.lower is not None else -np.inf
    hi = domain.upper if domain.upper is not None else np.inf
    return bool(np.all(P - h[:, None] >= lo) and np.all(P + h[:, None] <= hi))


def _mixed_hessian_batch(
    loss: LossFunction, T: np.ndarray, Y: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Central-difference mixed blocks for n (label, prediction) pairs.

    Returns (n, d, d) with entry [n, i, j] = d2 L / dy_i dt_j. Each entry
    uses a 4-point stencil; all 4 n d^2 evaluations happen in one
    vectorized call.
    """
    n, d = T.shape
    E = np.eye(d)
    hh = h[:, None, None, None]
    Tj_plus = T[:, None, None, :] + hh * E[None, None, :, :]
    Tj_minus = T[:, None, None, :] - hh * E[None, None, :, :]
    Yi_plus = Y[:, None, None, :] + hh * E[None, :, None, :]
    Yi_minus = Y[:, None, None, :] - hh * E[None, :, None, :]
    shape = (n, d, d, d)
    with np.errstate(all="ignore"):
        l_pp = loss.eval_batch(np.broadcast_to(Tj_plus, shape), np.broadcast_to(Yi_plus, shape))
        l_pm = loss.eval_batch(np.broadcast_to(Tj_plus, shape), np.broadcast_to(Yi_minus, shape))
        l_mp = loss.eval_batch(np.broadcast_to(Tj_minus, shape), np.broadcast_to(Yi_plus, shape))
        l_mm = loss.eval_batch(np.broadcast_to(Tj_minus, shape), np.broadcast_to(Yi_minus, shape))
    denom = (4.0 * h * h)[:, None, None]
    return (l_pp - l_pm - l_mp + l_mm) / denom


def mixed_hessian_fd(
    loss: LossFunction, t, y, step: float | None = None
) -> MixedHessianSample:
    """Estimate the mixed second derivative matrix of the loss at (t, y).

    Entry (i, j) approximates d2 L / dy_i dt_j with a 4-point central
    stencil of width ``step`` (default 1e-4 times one plus the point
    scale). The sample is flagged unreliable when halving the step moves
    some entry by more than 1e-4 relative to the matrix scale; callers are
    responsible for keeping kinked losses (e.g. Minkowski exponents below
    2) well away from the diagonal.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    h = float(step) if step is not None else default_step(t, y)
    if h <= 0:
        raise ValueError("step must be positive")
    box = loss.domain.without_equalities()
    P = np.vstack([t, y])
    if not _stencil_inside(box, P, np.array([h, h])):
        raise ValueError(
            f"finite-difference stencil of width {h:.3g} leaves the domain at ({t}, {y})"
        )
    H = _mixed_hessian_batch(loss, t[None, :], y[None, :], np.array([h]))[0]
    H_half = _mixed_hessian_batch(loss, t[None, :], y[None, :], np.array([h / 2.0]))[0]
    scale = 1.0 + float(np.max(np.abs(H_half)))
    reliable = bool(
        np.all(np.isfinite(H))
        and np.all(np.isfinite(H_half))
        and np.max(np.abs(H - H_half)) <= RELIABILITY_TOL * scale
    )
    return MixedHessianSample(label=t, prediction=y, matrix=H, step=h, reliable=reliable)


def separability_rank_test(
    loss: LossFunction,
    label_grid,
    pred_grid,
    step: float | None = None,
    rank_threshold: float = RANK_THRESHOLD,
    max_unreliable_fraction: float = MAX_UNRELIABLE_FRACTION,
) -> SeparabilityVerdict:
    """Rank test of the stacked mixed-derivative blocks over two grids.

    Builds M[(l, i), (k, j)] = d2 L / dy_i dt_j at (t_k, y_l) and counts
    singular values above ``rank_threshold`` times the largest. A loss
    whose mixed derivative factorizes as H2(y) H1(t)^T gives rank at most
    d. The verdict is withheld (:class:`UnreliableHessianError`) when more
    than 10% of the samples fail the step-halving check.

    For d = 1 a non-separable verdict carries a witness: the two labels
    and two predictions whose 2 x 2 minor has the largest normalized
    determinant.
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
    if step is not None:
        h = np.full(T.shape[0], float(step))
    else:
        h = DEFAULT_STEP_SCALE * (
            1.0 + np.maximum(np.max(np.abs(T), axis=1), np.max(np.abs(Y), axis=1))
        )
    box = loss.domain.without_equalities()
    if not _stencil_inside(box, T, h) or not _stencil_inside(box, Y, h):
        raise ValueError("some finite-difference stencil leaves the domain")

    H = _mixed_hessian_batch(loss, T, Y, h)
    H_half = _mixed_hessian_batch(loss, T, Y, h / 2.0)
    scale = 1.0 + np.max(np.abs(H_half), axis=(1, 2))
    finite = np.all(np.isfinite(H), axis=(1, 2)) & np.all(np.isfinite(H_half), axis=(1, 2))
    drift = np.max(np.abs(H - H_half), axis=(1, 2))
    reliable = finite & (drift <= RELIABILITY_TOL * scale)
    n_unreliable = int(np.sum(~reliable))
    n_samples = T.shape[0]
    if n_unreliable > max_unreliable_fraction * n_samples:
        raise UnreliableHessianError(
            f"{n_unreliable}/{n_samples} mixed-derivative samples failed the "
            "step-halving check; verdict withheld"
        )

    blocks = H.reshape(L, K, d, d)
    M = blocks.transpose(0, 2, 1, 3).reshape(L * d, K * d)
    singular_values = np.linalg.svd(M, compute_uv=False)
    cutoff = rank_threshold * singular_values[0] if singular_values[0] > 0 else 0.0
    numerical_rank = int(np.sum(singular_values > cutoff))
    separable = numerical_rank <= d

    witness = None
    if not separable and d == 1:
        scalar = blocks[:, :, 0, 0]  # (L, K)
        best = None
        for l1 in range(L - 1):
            for l2 in range(l1 + 1, L):
                dets = scalar[l1, :, None] * scalar[l2, None, :] - np.outer(
                    scalar[l2, :], scalar[l1, :]
                )
                k1, k2 = np.unravel_index(np.argmax(np.abs(dets)), dets.shape)
                val = float(dets[k1, k2])
                if best is None or abs(val) > abs(best[0]):
                    best = (val, int(k1), int(k2), l1, l2)
        det, k1, k2, l1, l2 = best
        witness = {
            "labels": [float(T_grid[k1, 0]), float(T_grid[k2, 0])],
            "predictions": [float(Y_grid[l1, 0]), float(Y_grid[l2, 0])],
            "determinant": det,
        }

    return SeparabilityVerdict(
        numerical_rank=numerical_rank,
        singular_values=singular_values,
        threshold=rank_threshold,
        separable=separable,
        dim=d,
        n_samples=n_samples,
        n_unreliable=n_unreliable,
        witness=witness,
    )


@dataclass(frozen=True)
class ClassifierConfig:
    seed: int = 0
    grid_size: int = 8
    n_separability_trials: int = 2
    n_gap_trials: int = 6
    support_size: int = 4
    gap_threshold: float = 1e-3
    rank_threshold: float = RANK_THRESHOLD
    interior_margin: float = 0.08


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str  # consistent_with_gbregman | not_gbregman | inconclusive
    evidence: dict

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "evidence": self.evidence}


def _interior_box(domain: Domain, margin: float) -> tuple[np.ndarray, np.ndarray]:
    if not domain.is_bounded:
        raise ValueError("classification needs a bounded domain")
    width = domain.upper - domain.lower
    return domain.lower + margin * width, domain.upper - margin * width


def _sample_grid(rng, lo, hi, n):
    return lo + (hi - lo) * rng.random((n, lo.size))


def classify_loss(loss: LossFunction, config: ClassifierConfig | None = None) -> ClassificationResult:
    """Empirically decide whether a loss behaves like a g-Bregman divergence.

    Two independent probes, both seeded and repeatable:

    1. separability of the mixed second derivative on random interior
       grids (kinked losses get grids kept 10 steps away from the
       diagonal);
    2. decomposition-gap search over random ensembles with brute-force
       centroids.

    ``not_gbregman`` requires a reliable witness (a non-separable rank
    verdict or a gap above the threshold); ``consistent_with_gbregman``
    means every probe passed. Evaluation failures make the result
    ``inconclusive``. The verdict is empirical evidence at the configured
    sizes, never a proof.
    """
    config = config or ClassifierConfig()
    rng = np.random.default_rng(config.seed)
    lo, hi = _interior_box(loss.domain, config.interior_margin)
    d = loss.dim
    evidence: dict = {
        "seed": config.seed,
        "grid_size": config.grid_size,
        "n_separability_trials": config.n_separability_trials,
        "n_gap_trials": config.n_gap_trials,
        "gap_threshold": config.gap_threshold,
        "separability": [],
        "gap_search": [],
        "failures": [],
    }
    witness_found = False
    failures = 0
    attempts = 0

    h_ref = DEFAULT_STEP_SCALE * (1.0 + float(np.max(np.abs([lo, hi]))))
    kink_margin = KINK_MARGIN_STEPS * h_ref

    for trial in range(config.n_separability_trials):
        attempts += 1
        label_grid = _sample_grid(rng, lo, hi, max(config.grid_size, 2 * d))
        pred_grid = _sample_grid(rng, lo, hi, max(config.grid_size, 2 * d))
        if loss.has_diagonal_kinks:
            for row in range(pred_grid.shape[0]):
                for _ in range(200):
                    seps = np.min(np.abs(label_grid - pred_grid[row]), axis=1)
                    if np.all(seps >= kink_margin):
                        break
                    pred_grid[row] = lo + (hi - lo) * rng.random(d)
        try:
            verdict = separability_rank_test(
                loss, label_grid, pred_grid, rank_threshold=config.rank_threshold
            )
        except (UnreliableHessianError, ValueError, ArithmeticError) as exc:
            failures += 1
            evidence["failures"].append(f"separability trial {trial}: {exc}")
            continue
        evidence["separability"].append(verdict.to_json())
        if not verdict.separable:
            witness_found = True

    for trial in range(config.n_gap_trials):
        attempts += 1
        n = int(rng.integers(2, config.support_size + 1))
        labels = make_ensemble(_sample_grid(rng, lo, hi, n), rng.random(n) + 0.1)
        m = int(rng.integers(2, config.support_size + 1))
        preds = make_ensemble(_sample_grid(rng, lo, hi, m), rng.random(m) + 0.1)
        try:
            report = decompose_generic(loss, labels, preds)
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
        if abs(report.gap) > config.gap_threshold:
            witness_found = True

    if witness_found:
        verdict = "not_gbregman"
    elif failures == 0 and attempts > 0:
        verdict = "consistent_with_gbregman"
    else:
        verdict = "inconclusive"
    return ClassificationResult(verdict=verdict, evidence=evidence)
