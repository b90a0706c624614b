"""Bregman and g-Bregman divergences with clean bias-variance decompositions.

The package provides:

- ``core``: weighted point ensembles, feasible domains, loss interfaces;
- ``divergences``: the g-Bregman engine (duality, reversal) and a catalog of
  closed-form divergences plus counterexample losses;
- ``centroids``: central labels/predictions in closed form, under linear
  equality constraints, and by a brute-force minimization oracle, with one
  dispatcher (``central_label`` / ``central_prediction``) that picks the
  cheapest exact solver;
- ``decomposition``: expected loss = intrinsic noise + bias + variance
  reports (``decompose``), with the additivity gap as a first-class output;
- ``uniqueness``: numerical separability tests of the mixed second
  derivative and an empirical classifier for black-box losses;
- ``cli``: the ``bvd`` batch front end.
"""

from .core import (
    BoundaryError,
    CallableLoss,
    ConvergenceError,
    ConvexityError,
    Domain,
    InfeasibleMeanError,
    LossFunction,
    WeightedEnsemble,
    make_ensemble,
)
from .divergences import (
    GBregmanDivergence,
    Generator,
    Mapping,
    catalog,
    catalog_from_json,
    identity_mapping,
)
from .centroids import (
    CentroidResult,
    brute_force_centroid,
    central_label,
    central_prediction,
    constrained_central_prediction,
    f_mean_prediction,
)
from .decomposition import (
    DecompositionReport,
    decompose,
    decompose_generic,
    exp_family_loglik_decompose,
    ordering_violation_gap,
)
from .uniqueness import (
    ClassifierConfig,
    MixedHessianSample,
    SeparabilityVerdict,
    classify_loss,
    mixed_hessian_fd,
    separability_rank_test,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "CallableLoss",
    "CentroidResult",
    "ClassifierConfig",
    "ConvergenceError",
    "ConvexityError",
    "DecompositionReport",
    "Domain",
    "GBregmanDivergence",
    "Generator",
    "InfeasibleMeanError",
    "LossFunction",
    "Mapping",
    "MixedHessianSample",
    "SeparabilityVerdict",
    "WeightedEnsemble",
    "brute_force_centroid",
    "catalog",
    "catalog_from_json",
    "central_label",
    "central_prediction",
    "classify_loss",
    "constrained_central_prediction",
    "decompose",
    "decompose_generic",
    "exp_family_loglik_decompose",
    "f_mean_prediction",
    "identity_mapping",
    "make_ensemble",
    "mixed_hessian_fd",
    "ordering_violation_gap",
    "separability_rank_test",
]
