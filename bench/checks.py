"""Reference computations the benchmark checks bvd's outputs against.

Everything here is plain numpy written apart from bvd: closed-form means,
per-coordinate weighted medians, the losses' own formulas and a dense grid
search. No function compares against a stored copy of earlier output. Each
check returns ``None`` when the output is right and a message otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np

ADDITIVITY_TOL = 1e-9  # |gap| <= tol * (1 + expected), as in the acceptance suite
CLOSED_FORM_TOL = 1e-9  # relative, for closed-form and Lagrange centroids
ORACLE_TOL = 1e-5  # oracle centroid against the closed form (max-abs)
OBJECTIVE_TOL = 1e-9  # relative, for oracle objectives against references


def weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def arithmetic_mean(points, w) -> np.ndarray:
    return weights(w) @ np.asarray(points, dtype=float)


def geometric_mean(points, w) -> np.ndarray:
    return np.exp(weights(w) @ np.log(np.asarray(points, dtype=float)))


def normalized(x) -> np.ndarray:
    return x / x.sum()


def weighted_median(points, w) -> np.ndarray:
    """Per-coordinate weighted median: the smallest value whose cumulative
    weight reaches one half (a minimizer of the expected L1 distance)."""
    P = np.asarray(points, dtype=float)
    w = weights(w)
    out = np.empty(P.shape[1])
    for i in range(P.shape[1]):
        order = np.argsort(P[:, i], kind="stable")
        cum = np.cumsum(w[order])
        out[i] = P[order[np.searchsorted(cum, 0.5 - 1e-15)], i]
    return out


def minkowski(epsilon: float):
    def loss(T, Y):
        return np.sum(np.abs(T - Y) ** epsilon, axis=-1)

    return loss


def zero_one(T, Y):
    return (np.max(np.abs(T - Y), axis=-1) > 1e-9).astype(float)


def objective(loss, X, points, w) -> np.ndarray:
    """Expected loss between each row of X and the weighted support.

    The benchmark's losses are symmetric, so the argument order does not
    matter here.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    P = np.asarray(points, dtype=float)
    return loss(X[:, None, :], P[None, :, :]) @ weights(w)


def dense_minimum(loss, lower, upper, points, w, per_axis: int) -> float:
    """Smallest expected loss over a grid denser than the oracle's, plus
    the support points themselves."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lower, upper)]
    grid = np.array(list(itertools.product(*axes)))
    cand = np.vstack([grid, np.asarray(points, dtype=float)])
    return float(np.min(objective(loss, cand, points, w)))


def relative(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def additivity(report) -> str | None:
    gap, expected = report.gap, report.expected_loss
    if not abs(gap) <= ADDITIVITY_TOL * (1.0 + abs(expected)):
        return f"additivity: |gap| = {abs(gap):.3e} exceeds {ADDITIVITY_TOL:g} * (1 + {expected:.3e})"
    return None


def point_close(what: str, got, ref, tol: float, relative_to_ref: bool = True) -> str | None:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = 1.0 + float(np.max(np.abs(ref))) if relative_to_ref else 1.0
    err = float(np.max(np.abs(got - ref)))
    if not err <= tol * scale:
        return f"{what}: off the reference by {err:.3e} (tolerance {tol * scale:.1e})"
    return None


def first_error(*messages) -> str | None:
    for m in messages:
        if m is not None:
            return m
    return None
