"""Projection-free Mahalanobis metric learning over graph metric matrices.

The search space is the set of positive definite generalized graph
Laplacians (positive diagonals, non-positive off-diagonals, connected
graph).  The PD cone constraint is replaced by linear Gershgorin disc
constraints made tight through disc alignment with scalars 1 / v from the
smallest eigenvector, so diagonal and off-diagonal blocks can be optimized
alternately by Frank-Wolfe iterations whose subproblems are small LPs.
"""

from .classify import (LabeledGraph, build_labeled_graph, graph_classify,
                       knn_classify, knn_vote_scores, one_vs_all_predict)
from .core import (Certificate, GershgorinScalars, GraphMetric,
                   GraphMetricRejection, SymmetricMatrix, alignment_scalars,
                   definition_violations, edge_weight, gershgorin_left_ends,
                   mahalanobis, pairwise_mahalanobis, scaled_left_ends,
                   validate_graph_metric)
from .data import Dataset, Scaler, load_csv, load_feature_matrix, standardize
from .eigen import (EigenPair, LobpcgNonConvergence, smallest_eigenpair_dense,
                    smallest_eigenpair_lobpcg)
from .experiment import ExperimentReport, RunRecord, run_experiment
from .lp import (Constraint, LinearProgram, LPSolution, solve_box_knapsack_lp,
                 solve_diagonal_lp, solve_lp)
from .metric_io import load_metric, save_metric
from .objective import (ConvexObjective, GLRObjective, ObjectiveContext,
                        PairDistances, glr_grad_diag, glr_grad_offdiag_col,
                        glr_value, pair_distances)
from .optimizer import (LearnResult, OptimizerConfig, OptimizerState,
                        diagonal_step, init_metric, learn_metric,
                        offdiag_step, update_scalars)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "Constraint", "ConvexObjective", "Dataset", "EigenPair",
    "ExperimentReport", "GLRObjective", "GershgorinScalars", "GraphMetric",
    "GraphMetricRejection", "LabeledGraph", "LearnResult", "LinearProgram",
    "LobpcgNonConvergence", "LPSolution", "ObjectiveContext",
    "OptimizerConfig", "OptimizerState", "PairDistances", "RunRecord", "Scaler",
    "SymmetricMatrix", "alignment_scalars", "build_labeled_graph",
    "definition_violations", "diagonal_step", "edge_weight",
    "gershgorin_left_ends", "glr_grad_diag", "glr_grad_offdiag_col",
    "glr_value", "graph_classify", "init_metric", "knn_classify",
    "knn_vote_scores", "learn_metric", "load_csv", "load_feature_matrix",
    "load_metric",
    "mahalanobis", "offdiag_step", "one_vs_all_predict", "pair_distances",
    "pairwise_mahalanobis", "run_experiment", "save_metric",
    "scaled_left_ends", "smallest_eigenpair_dense",
    "smallest_eigenpair_lobpcg", "solve_box_knapsack_lp", "solve_diagonal_lp",
    "solve_lp", "standardize", "update_scalars", "validate_graph_metric",
    "__version__",
]
