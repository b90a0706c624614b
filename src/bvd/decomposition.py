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

from .core import LossFunction, WeightedEnsemble, pair_expectation, side_expectation
from .divergences import (  # noqa: F401 (gaussian_log_partition is re-exported)
    GBregmanDivergence,
    Generator,
    gaussian_log_partition,
)
from .centroids import (
    CentroidResult,
    brute_force_centroid,
    central_label,
    central_prediction,
)

TERM_FLOOR = -1e-10


@dataclass(frozen=True)
class DecompositionReport:
    expected_loss: float
    intrinsic_noise: float
    bias: float
    variance: float
    gap: float
    central_label: np.ndarray
    central_prediction: np.ndarray
    multipliers: np.ndarray | None = None
    method: str = "generic"

    def to_json(self) -> dict:
        return {
            "expected_loss": self.expected_loss,
            "intrinsic_noise": self.intrinsic_noise,
            "bias": self.bias,
            "variance": self.variance,
            "gap": self.gap,
            "central_label": np.asarray(self.central_label).tolist(),
            "central_prediction": np.asarray(self.central_prediction).tolist(),
            "multipliers": None
            if self.multipliers is None
            else np.asarray(self.multipliers).tolist(),
            "method": self.method,
        }


def _gap(expected: float, noise: float, bias: float, variance: float) -> float:
    return expected - noise - bias - variance


def _check_terms(**terms: float):
    for name, value in terms.items():
        if value < TERM_FLOOR:
            raise ArithmeticError(f"{name} = {value:.3e} is significantly negative")


# Centroid solvers from cheapest to costliest; a report names the costliest.
_SOLVER_COST = {"closed_form": 0, "lagrange": 1, "brute_force": 2}


def _report(
    loss: LossFunction,
    labels: WeightedEnsemble,
    preds: WeightedEnsemble,
    t_star: CentroidResult,
    y_star: CentroidResult,
) -> DecompositionReport:
    """The decomposition at the given central label and prediction.

    Intrinsic noise and variance are the centroids' objectives,
    E D(T, t*) and E D(y*, Y): means of non-negative values that need no
    cancellation of potentials. Under linear equality constraints they
    equal the potential differences with the lam . b correction by the
    generalized Pythagorean identity (Banerjee et al., JMLR 2005).
    """
    expected = pair_expectation(loss, labels, preds)
    noise = t_star.objective
    bias = loss.eval(t_star.point, y_star.point)
    variance = y_star.objective
    _check_terms(intrinsic_noise=noise, bias=bias, variance=variance)
    lagrange = [r.multipliers for r in (t_star, y_star) if r.method == "lagrange"]
    return DecompositionReport(
        expected_loss=expected,
        intrinsic_noise=noise,
        bias=bias,
        variance=variance,
        gap=_gap(expected, noise, bias, variance),
        central_label=t_star.point,
        central_prediction=y_star.point,
        multipliers=lagrange[0] if lagrange else None,
        method=max(t_star.method, y_star.method, key=_SOLVER_COST.__getitem__),
    )


def decompose(
    loss: LossFunction, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> DecompositionReport:
    """Decompose any loss at the centroids of :func:`central_label` and
    :func:`central_prediction` (closed form, Lagrange, or the oracle)."""
    return _report(
        loss, labels, preds, central_label(loss, labels), central_prediction(loss, preds)
    )


def decompose_generic(
    loss: LossFunction, labels: WeightedEnsemble, preds: WeightedEnsemble
) -> DecompositionReport:
    """Decompose any loss using brute-force centroids.

    Works for arbitrary losses; the gap is reported as-is and is nonzero in
    general (that is the point for non-divergence losses such as L1).
    """
    t_star = brute_force_centroid(loss, labels, "second_arg")
    y_star = brute_force_centroid(loss, preds, "first_arg")
    return _report(loss, labels, preds, t_star, y_star)


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
        noise = side_expectation(div, t_star, labels, point_side="first_arg")
    if "bias" in swap:
        bias = div.eval(y_star, t_star)
    if "variance" in swap:
        variance = side_expectation(div, y_star, preds, point_side="second_arg")
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
    """
    phi = np.asarray(sufficient_stat(z), dtype=float)
    log_h = 0.0 if log_base_measure is None else float(log_base_measure(z))
    theta = canonical_preds.points
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
    if variance < TERM_FLOOR:
        raise ArithmeticError(f"variance = {variance:.3e} is significantly negative")
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
