"""Tour of the divergence catalog: evaluation, dual pairs, reversal.

Every g-Bregman divergence is a strictly convex potential A composed with
an invertible coordinate map g. The dual pair {B, f} gives the same
divergence with the arguments swapped, and the mixed form
A(g(t)) - f(y).g(t) + B(f(y)) must agree with the defining expression.
"""

import numpy as np

from bvd import catalog

print("=== squared Euclidean ===")
sq = catalog("sq_euclidean", dim=2)
print("D((0,0), (3,4)) =", sq.eval([0, 0], [3, 4]))  # 3^2 + 4^2 = 25

print("\n=== forward KL on the unit box ===")
kl = catalog("kl", dim=2)
t, y = [0.3, 0.7], [0.5, 0.5]
print(f"D({t}, {y}) =", kl.eval(t, y))
print("mixed form     =", kl.eval_concise(t, y))
B, f = kl.dual_pair()
print("f(y) = log y  ->", f.forward(np.array(y)))
print("B(f(y)) = sum exp f = sum y ->", B.value(f.forward(np.array(y))))

print("\n=== reversal swaps the roles of the pair ===")
rev = kl.reverse()
print("reverse(KL)(y, t) =", rev.eval(y, t), " == KL(t, y) =", kl.eval(t, y))
# rev.eval swaps KL's own evaluator; the defining form of the reverse runs
# on the swapped pair {B, f} and gives the same value: the paper's duality.
print("through {B, f}:   ", rev.eval_defining(y, t), " == KL(t, y) =", kl.eval(t, y))
print("reverse twice restores the original:",
      rev.reverse().eval(t, y), "==", kl.eval(t, y))

print("\n=== the alpha family interpolates between the two KL directions ===")
for a in (1e-4, 0.3, 0.5, 0.7, 1 - 1e-4):
    div = catalog("alpha", alpha=a, dim=2)
    print(f"alpha={a:<8g} D(t, y) = {div.eval(t, y):.6f}")
print("reverse KL     D(t, y) =", catalog("reverse_kl", dim=2).eval(t, y))
print("forward KL     D(t, y) =", kl.eval(t, y))

print("\n=== Gaussians in (mean, variance) coordinates ===")
gauss = catalog("gaussian_canonical")
print("D((m=0,s=1), (m=1,s=1)) =", gauss.eval([0, 1], [1, 1]))  # (1-0)^2 / 2
print("natural params of (m=1,s=2):", gauss.map.forward(np.array([1.0, 2.0])))
print("moment params  of (m=1,s=2):",
      gauss.dual_pair()[1].forward(np.array([1.0, 2.0])))

print("\n=== counterexample losses carry no dual structure ===")
mink = catalog("minkowski", epsilon=1.5, dim=1)
print("minkowski(1.5)(0, 2) =", mink.eval([0.0], [2.0]))
zo = catalog("zero_one_grid", dim=1, levels=2)
print("zero-one(0, 1) =", zo.eval([0.0], [1.0]), " zero-one(1, 1) =",
      zo.eval([1.0], [1.0]))
