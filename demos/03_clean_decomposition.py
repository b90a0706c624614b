"""Additive decompositions: expected loss = noise + bias + variance, gap ~ 0.

Divergences with the dual-pair structure split exactly; the residual gap
is reported, never assumed. On the probability simplex the split stays
exact for the forward and reverse KL: the centroids are the f-means
rescaled to sum 1, and the report carries the simplex multiplier.
"""

import numpy as np

from bvd import catalog, make_ensemble
from bvd.decomposition import (
    decompose_constrained_bregman,
    decompose_gbregman,
    decompose_generic,
    ordering_violation_gap,
)


def show(title, r):
    print(f"{title}:")
    print(f"  expected {r.expected_loss:.6f} = noise {r.intrinsic_noise:.6f} "
          f"+ bias {r.bias:.6f} + variance {r.variance:.6f}   gap = {r.gap:.2e}")


rng = np.random.default_rng(0)

print("=== squared Euclidean, the textbook case ===")
sq = catalog("sq_euclidean", dim=2)
labels = make_ensemble([[0, 0], [2, 2]], [1, 1])
preds = make_ensemble([[1, 1], [3, 3]], [1, 1])
show("squared Euclidean", decompose_gbregman(sq, labels, preds))

print("\n=== forward KL on the unit box (no constraint) ===")
kl = catalog("kl", dim=2)
labels = make_ensemble([[0.5, 0.5]], [1])
preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])
r = decompose_gbregman(kl, labels, preds)
show("KL (box)", r)
print("  central prediction (geometric mean):", r.central_prediction)

print("\n=== the same ensembles on the simplex ===")
kls = catalog("kl", dim=2, simplex=True)
r = decompose_constrained_bregman(kls, labels, preds)
show("KL (simplex)", r)
print("  y* =", r.central_prediction, " lambda =", r.multipliers,
      " variance = lambda . b =", -np.log(0.8))

print("\n=== random ensembles: the gap stays at float noise ===")
for name, d in (("kl", 3), ("alpha", 2), ("gaussian_canonical", 2)):
    if name == "kl":
        div, lo, hi = catalog("kl", dim=d), 0.1, 0.9
        pts = lambda n: rng.uniform(lo, hi, (n, d))
    elif name == "alpha":
        div = catalog("alpha", alpha=0.3, dim=d)
        pts = lambda n: rng.uniform(0.1, 0.9, (n, d))
    else:
        div = catalog("gaussian_canonical")
        pts = lambda n: np.hstack([rng.uniform(-1, 1, (n, 1)),
                                   rng.uniform(0.3, 2.0, (n, 1))])
    labels = make_ensemble(pts(5), rng.random(5) + 0.1)
    preds = make_ensemble(pts(6), rng.random(6) + 0.1)
    r = decompose_gbregman(div, labels, preds)
    print(f"  {name:<20s} gap = {r.gap:+.2e}  (expected {r.expected_loss:.4f})")

print("\n=== the argument order in each term is the only one that works ===")
kl = catalog("kl", dim=2)
labels = make_ensemble([[0.3, 0.7]], [1])
preds = make_ensemble([[0.2, 0.8], [0.6, 0.4]], [1, 1])
print("  identity ordering: gap =",
      f"{ordering_violation_gap(kl, labels, preds):+.2e}")
for swap in (("noise",), ("bias",), ("variance",)):
    g = ordering_violation_gap(kl, labels, preds, swap=swap)
    print(f"  swapped {swap[0]:<9s} gap = {g:+.2e}")

print("\n=== generic brute-force route agrees with the closed forms ===")
r1 = decompose_gbregman(kl, labels, preds)
r2 = decompose_generic(kl, labels, preds)
print("  closed form: bias", f"{r1.bias:.8f}", " variance", f"{r1.variance:.8f}")
print("  brute force: bias", f"{r2.bias:.8f}", " variance", f"{r2.variance:.8f}")
