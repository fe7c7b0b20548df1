"""Unsupervised feature ranking.

Two method families score features without a target: ensemble scores read
importances off predictive clustering trees (genie3, symbolic, and the
out-of-bag permutation score), and URelief contrasts neighbor distances.
The evaluate module measures rankings by cross-validated 1NN regression
and compares methods across datasets by average rank.
"""

from .data import (AttributeKind, AttributeStats, ComputationError, Dataset,
                   IngestionError, Nominal, Numeric, compute_stats, load_csv,
                   write_csv)
from .evaluate import (ComparisonReport, CurveReport, FoldPlan,
                       adjusted_rand_index, clustering_hypothesis_ari,
                       compare_methods, comparison_to_csv, curve_points_csv,
                       cv_mse, error_curve, k_grid, kmeans, knn_predict,
                       nemenyi_cd)
from .forest import (BAGGING, EXTRA_TREES, RANDOM_FOREST, SUBSET_RULES,
                     Ensemble, EnsembleConfig, build, subset_size)
from .rankers import METHODS, make_ranker
from .scores import (Ranking, genie3, random_forest_score, ranking_rows,
                     ranking_to_csv, symbolic)
from .synth import SynthSpec, make_planted, write_planted
from .tree import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, FlatTree,
                   SplitSearchPolicy, best_test, grow_tree)
from .urelief import UReliefConfig, UReliefState, urelief, urelief_state

__version__ = "0.1.0"

__all__ = [
    "ALL_THRESHOLDS", "BAGGING", "EXTRA_TREES", "METHODS",
    "ONE_RANDOM_THRESHOLD", "RANDOM_FOREST", "SUBSET_RULES",
    "AttributeKind", "AttributeStats", "ComparisonReport", "ComputationError",
    "CurveReport", "Dataset", "Ensemble", "EnsembleConfig", "FlatTree",
    "FoldPlan", "IngestionError", "Nominal", "Numeric", "Ranking",
    "SplitSearchPolicy", "SynthSpec", "UReliefConfig", "UReliefState",
    "adjusted_rand_index", "best_test", "build", "clustering_hypothesis_ari",
    "compare_methods", "comparison_to_csv", "compute_stats",
    "curve_points_csv", "cv_mse", "error_curve", "genie3", "grow_tree",
    "k_grid", "kmeans", "knn_predict", "load_csv", "make_planted",
    "make_ranker", "nemenyi_cd", "random_forest_score", "ranking_rows",
    "ranking_to_csv", "subset_size", "symbolic", "urelief", "urelief_state",
    "write_csv", "write_planted",
]
