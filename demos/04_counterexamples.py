"""Losses that cannot split cleanly, and the numerical tests that catch them.

Two independent probes: the additivity gap with brute-force centroids, and
the rank of the mixed second derivative stacked over grids (a separable
derivative H2(y) H1(t)^T has rank at most d). L1, the 0-1 loss, and
Minkowski exponents other than 2 all fail at least one probe, as does the
alpha divergence once the simplex constraint forces power-mean centroids.
"""

import numpy as np

from bvd import catalog, make_ensemble
from bvd.decomposition import decompose, decompose_generic
from bvd.uniqueness import ClassifierConfig, classify_loss, separability_rank_test

print("=== L1: the weighted median does not split the loss ===")
l1 = catalog("l1", dim=1)
labels = make_ensemble([[0.0]], [1])
preds = make_ensemble([[0.0], [1.0]], [1, 2])
r = decompose_generic(l1, labels, preds)
print(f"expected {r.expected_loss:.4f} vs noise+bias+variance "
      f"{r.intrinsic_noise + r.bias + r.variance:.4f}  -> gap = {r.gap:.4f}")

print("\n=== 0-1 loss on a grid: same story ===")
zo = catalog("zero_one_grid", dim=1, levels=2)
r = decompose_generic(zo, labels, preds)
print(f"gap = {r.gap:.4f}")

print("\n=== Minkowski(1.5): the mixed derivative does not factorize ===")
mink = catalog("minkowski", epsilon=1.5, dim=1)
v = separability_rank_test(mink, [[0.0], [1.0]], [[2.0], [4.0]])
print("numerical rank:", v.numerical_rank, "(separable needs <= 1)")
print("witness 2x2 determinant:", v.witness["determinant"],
      "(analytic -0.0516)")

print("\n=== alpha(0.5) on the simplex: power means leave a gap ===")
al = catalog("alpha", alpha=0.5, dim=2, simplex=True)
labels = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 3])
preds = make_ensemble([[0.9, 0.1], [0.3, 0.7]], [1, 1])
r = decompose(al, labels, preds)
print(f"gap with power-mean centroids = {r.gap:.6f}")

print("\n=== the classifier, end to end ===")
for loss in (catalog("kl", dim=2), l1, mink):
    result = classify_loss(loss, ClassifierConfig(seed=3))
    print(f"{loss.name:<16s} -> {result.verdict}")
