"""Central labels and predictions: closed forms against the brute-force oracle.

The central label minimizes the expected divergence to a label ensemble
(g-mean); the central prediction minimizes it against a prediction
ensemble (f-mean). On the probability simplex the KL central prediction is
the normalized geometric mean in closed form; the sum-to-one Lagrange
multiplier is reported next to it.
"""

import numpy as np

from bvd import catalog, make_ensemble
from bvd.centroids import (
    brute_force_centroid,
    central_prediction,
    f_mean_prediction,
    g_mean_label,
    power_mean_centroids,
)

preds = make_ensemble([[0.2, 0.8], [0.8, 0.2]], [1, 1])

print("=== forward KL: geometric mean of the predictions ===")
kl = catalog("kl", dim=2)
closed = f_mean_prediction(kl, preds)
oracle = brute_force_centroid(kl, preds, "first_arg")
print("closed form:", closed.point, " oracle:", oracle.point)

print("\n=== reverse KL: arithmetic mean ===")
rkl = catalog("reverse_kl", dim=2)
print("closed form:", f_mean_prediction(rkl, preds).point)

print("\n=== KL restricted to the simplex: normalized geometric mean ===")
kls = catalog("kl", dim=2, simplex=True)
res = central_prediction(kls, preds)
print("y* =", res.point, " multiplier =", res.multipliers,
      " (-log 0.8 =", -np.log(0.8), ")")

print("\n=== alpha divergence: power means ===")
al = catalog("alpha", alpha=0.5, dim=2, simplex=True)
uneven = make_ensemble([[0.2, 0.8], [0.5, 0.5]], [1, 1])
pm = power_mean_centroids(al, uneven, "first_arg")
bf = brute_force_centroid(al, uneven, "first_arg")
print("power mean:", pm.point, " constrained oracle:", bf.point)

print("\n=== Gaussians: natural averaging for labels, moment averaging for predictions ===")
gauss = catalog("gaussian_canonical")
labels = make_ensemble([[0.0, 1.0], [2.0, 3.0]], [1, 1])
print("central label (m*, s*):", g_mean_label(gauss, labels).point)
gpreds = make_ensemble([[0.0, 1.0], [2.0, 1.0]], [1, 1])
print("central prediction (m*, s*):", f_mean_prediction(gauss, gpreds).point)

print("\n=== flat minimizers are flagged ===")
l1 = catalog("l1", dim=1)
flat = brute_force_centroid(l1, make_ensemble([[0.0], [1.0]], [1, 1]), "first_arg")
print("even-weight L1 median:", flat.point, " non_unique:", flat.non_unique)
skew = brute_force_centroid(l1, make_ensemble([[0.0], [1.0]], [1, 2]), "first_arg")
print("2/3-weight L1 median:", skew.point, " non_unique:", skew.non_unique)
