"""tripletdist: query-efficient learning of distance functions from triplet comparisons.

A simulated user answers queries "is y or z closer to x?" against a hidden
distance; the learners here recover, with provable query budgets, exact
rankings on finite sets, Mahalanobis matrices and local Hessians up to scale,
and rank/quadratic hybrid models whose triplet answers are correct whenever
the true distances differ by an additive or multiplicative margin.
"""

from .core import (CountingOracle, DiagonalGaussianKL, GroundTruth, SmoothnessParams,
                   SqrtMahalanobis, SquaredMahalanobis, VaryingHessianQuadratic,
                   make_ground_truth)
from .cover import CoverSizeError, Domain, EpsCover, build_cover
from .finite import RankTable, learn_finite_distance, learn_ranking
from .maha import (AdmissibilityError, BinarySearchDivergence, MahaModel,
                   binary_search_coefficient, extended_basis, learn_local_hessian,
                   learn_mahalanobis, sym_vec, sym_unvec)
from .smooth import (AdditiveModel, HybridDistance, MultiplicativeThresholds,
                     additive_radius, learn_additive, learn_multiplicative,
                     learn_multiplicative_autoscale, multiplicative_thresholds)
from .evaluation import (AgreementReport, audit_hessian_band, audit_quadratic_sandwich,
                         audit_taylor, check_additive, check_multiplicative,
                         fixture_smoothness, frobenius_error, near_pair_triplets,
                         query_budget, sample_triplets, truth_answer_batch)

__version__ = "0.1.0"

__all__ = [
    "CountingOracle", "GroundTruth", "SmoothnessParams", "SqrtMahalanobis",
    "SquaredMahalanobis", "VaryingHessianQuadratic", "DiagonalGaussianKL",
    "make_ground_truth",
    "Domain", "EpsCover", "CoverSizeError", "build_cover",
    "RankTable", "learn_finite_distance", "learn_ranking",
    "MahaModel", "learn_mahalanobis", "learn_local_hessian", "extended_basis",
    "sym_vec", "sym_unvec", "binary_search_coefficient", "BinarySearchDivergence",
    "AdmissibilityError",
    "AdditiveModel", "HybridDistance", "MultiplicativeThresholds", "additive_radius",
    "learn_additive", "learn_multiplicative", "learn_multiplicative_autoscale",
    "multiplicative_thresholds",
    "AgreementReport", "check_additive", "check_multiplicative", "frobenius_error",
    "audit_taylor", "audit_quadratic_sandwich", "audit_hessian_band", "query_budget",
    "fixture_smoothness", "sample_triplets", "near_pair_triplets", "truth_answer_batch",
]
