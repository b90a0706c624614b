"""Expected loss = intrinsic noise + bias + variance, with the gap reported.

Every decomposition returns all four quantities plus the additivity gap
(expected loss minus the sum of the three terms). The gap is never silently
asserted to vanish: for divergences that admit an additive decomposition it
sits at float noise, and for counterexample losses its magnitude is the
measurement of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (LossFunction, Record, WeightedEnsemble, side_expectation, support_product,
                   wide_inner_term)
from .divergences import (  # noqa: F401 (gaussian_log_partition is re-exported)
    GBregmanDivergence,
    Generator,
    gaussian_log_partition,
)
from .centroids import SOLVERS, CentroidResult, _brute_force_batch, central_point

TERM_FLOOR = -1e-10


@dataclass(frozen=True)
class DecompositionReport(Record):
    expected_loss: float
    intrinsic_noise: float
    bias: float
    variance: float
    gap: float
    central_label: np.ndarray
    central_prediction: np.ndarray
    multipliers: np.ndarray | None = None
    method: str = "generic"


def _gap(expected: float, noise: float, bias: float, variance: float) -> float:
    return expected - noise - bias - variance


def _check_terms(**terms: float):
    for name, value in terms.items():
        if value < TERM_FLOOR:
            raise ArithmeticError(f"{name} = {value:.3e} is significantly negative")


def _report(
    loss: LossFunction,
    labels: WeightedEnsemble,
    preds: WeightedEnsemble,
    t_star: CentroidResult | Exception,
    y_star: CentroidResult | Exception,
) -> DecompositionReport:
    """The decomposition at the given central points, the loss evaluated
    once per cell of rows [T; t*; y*] against columns [Y; t*; y*]: the
    expected loss, noise, bias and variance are weighted sums of cells, and
    only the cells they use must be finite. Where :func:`~bvd.core.wide_inner_term`
    applies at c = y*, the n x m cells are skipped: E D(T, Y) is
    E D(T, y*) + variance minus the term. Under linear equality constraints
    noise and variance equal the potential differences with the lam . b
    correction (Banerjee et al. 2005). A search's exception in place of a
    central point is raised, the label side's first."""
    for res in (t_star, y_star):
        if isinstance(res, Exception):
            raise res
    n, m, c = labels.size, preds.size, np.array([t_star.point, y_star.point])
    lw, pw = labels.weights, preds.weights
    inner = wide_inner_term(loss, labels, preds, y_star.point, border=2)
    if inner is None:
        used = np.zeros((n + 2, m + 2), dtype=bool)
        used[:n, : m + 1] = used[n, m + 1] = used[n + 1, :m] = True
        V = support_product(loss, np.concatenate([labels.points, c]),
                            np.concatenate([preds.points, c]), used)
        expected = float((lw[:, None] * pw[None, :] * V[:n, :m]).sum())
        noise_col, bias, var_row = V[:n, m], float(V[n, m + 1]), V[n + 1, :m]
    else:
        used = np.ones((n + 1, 2), dtype=bool)
        used[n, 0] = False  # D(t*, t*)
        V = support_product(loss, np.concatenate([labels.points, c[:1]]), c, used)
        noise_col, bias = V[:n, 0], float(V[n, 1])
        var_row = support_product(loss, c[1:], preds.points)[0]
        expected = float((lw * V[:n, 1]).sum() + (pw * var_row).sum()) - inner
    loss._check_boundary(t_star.point, y_star.point)
    noise, variance = float((lw * noise_col).sum()), float((pw * var_row).sum())
    _check_terms(intrinsic_noise=noise, bias=bias, variance=variance)
    lams = [r.multipliers for r in (t_star, y_star) if r.multipliers.size]
    return DecompositionReport(
        expected_loss=expected,
        intrinsic_noise=noise,
        bias=bias,
        variance=variance,
        gap=_gap(expected, noise, bias, variance),
        central_label=t_star.point,
        central_prediction=y_star.point,
        multipliers=lams[0] if lams else None,
        method=max(t_star.method, y_star.method, key=SOLVERS.index),
    )


def decompose(
    loss: LossFunction, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> DecompositionReport:
    """Decompose any loss at the points of :func:`~bvd.centroids.central_label`
    and :func:`~bvd.centroids.central_prediction` (closed form, Lagrange, oracle)."""
    return _report(loss, labels, preds, central_point(loss.reverse(), labels),
                   central_point(loss, preds))


def decompose_generic(
    loss: LossFunction, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> DecompositionReport:
    """Decompose any loss using brute-force centroids.

    Works for arbitrary losses; the gap is reported as-is and is nonzero in
    general (that is the point for non-divergence losses such as L1). The
    two centroid searches run in lockstep; when both fail, the label side's
    error is raised.
    """
    return _report(loss, labels, preds,
                   *_brute_force_batch([(loss.reverse(), labels), (loss, preds)]))


def decompose_gbregman(
    div: GBregmanDivergence, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> DecompositionReport:
    """:func:`decompose`, under the name ``bench/workloads.py`` times for
    g-Bregman divergences without equality constraints."""
    return decompose(div, labels, preds)


def decompose_constrained_bregman(
    div: GBregmanDivergence, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> DecompositionReport:
    """:func:`decompose`, under the name ``bench/workloads.py`` times for
    g-Bregman divergences under equality constraints."""
    return decompose(div, labels, preds)


def ordering_violation_gap(
    div: GBregmanDivergence,
    labels: WeightedEnsemble,
    preds: WeightedEnsemble,
    swap: tuple[str, ...] = (),
) -> float:
    """Additivity gap when chosen terms have their arguments interchanged.

    ``swap`` lists any of "noise", "bias", "variance". The unswapped terms
    and the expected loss are those of :func:`decompose`, so with nothing
    swapped this is its gap (zero up to float noise); swapping any term
    breaks additivity for asymmetric divergences while symmetric ones
    cannot tell the difference.
    """
    unknown = set(swap) - {"noise", "bias", "variance"}
    if unknown:
        raise ValueError(f"unknown swap terms {sorted(unknown)}")
    r = decompose(div, labels, preds)
    t_star, y_star = r.central_label, r.central_prediction
    noise, bias, variance = r.intrinsic_noise, r.bias, r.variance
    if "noise" in swap:
        noise = side_expectation(div, t_star, labels)
    if "bias" in swap:
        bias = div.eval(y_star, t_star)
    if "variance" in swap:
        variance = side_expectation(div.reverse(), y_star, preds)
    return _gap(r.expected_loss, noise, bias, variance)


def gaussian_sufficient_stat(z: float) -> np.ndarray:
    return np.array([float(z), float(z) ** 2])


def exp_family_loglik_decompose(
    log_partition: Generator,
    z,
    canonical_preds: WeightedEnsemble,
    sufficient_stat=gaussian_sufficient_stat,
    log_base_measure=None,
) -> DecompositionReport:
    """Bias-variance split of the expected negative log-likelihood.

    Predictions are natural parameters of an exponential family with the
    given log-partition; the observation enters through its sufficient
    statistic. The central parameter is the ensemble mean of the natural
    parameters (equivalently, the normalized geometric mean of the
    predicted densities), giving

        E[-log p(z; theta)] = -log p(z; theta*) + (E B(theta) - B(theta*))

    exactly, for every observation. The first term is the bias and may be
    negative (a log density is not a nonnegative loss); the second is the
    variance and is nonnegative by convexity. All additive constants are
    kept so the two terms sum to the expected loss to float precision.
    A sufficient statistic whose dimension is not the parameters' raises
    ``ValueError`` before the log-partition is evaluated.
    """
    phi = np.asarray(sufficient_stat(z), dtype=float)
    theta = canonical_preds.points
    if phi.shape != theta.shape[1:]:
        raise ValueError(f"the natural parameters have dimension {theta.shape[1]} but the "
                         f"sufficient statistic has dimension {phi.size} (shape {phi.shape})")
    log_h = 0.0 if log_base_measure is None else float(log_base_measure(z))
    w = canonical_preds.weights
    b_vals = np.asarray(log_partition.value(theta), dtype=float)
    if not np.all(np.isfinite(b_vals)):
        raise ValueError("log-partition is not finite at some predicted parameter")
    theta_star = np.einsum("k,kd->d", w, theta)
    b_star = float(log_partition.value(theta_star))
    if not np.isfinite(b_star):
        raise ValueError(f"log-partition is not finite at the central parameter {theta_star}")

    nll = -(theta @ phi) + b_vals - log_h
    expected = float(w @ nll)
    bias = float(-(theta_star @ phi) + b_star - log_h)
    variance = float(w @ b_vals - b_star)
    noise = 0.0
    _check_terms(variance=variance)
    return DecompositionReport(
        expected_loss=expected,
        intrinsic_noise=noise,
        bias=bias,
        variance=variance,
        gap=_gap(expected, noise, bias, variance),
        central_label=phi,
        central_prediction=theta_star,
        multipliers=None,
        method="exp_family",
    )
