"""Projection-free Mahalanobis metric learning over graph metric matrices.

The search space is the set of positive definite generalized graph
Laplacians (positive diagonals, non-positive off-diagonals, connected
graph).  The PD cone constraint is replaced by linear Gershgorin disc
constraints made tight through disc alignment with scalars 1 / v from the
smallest eigenvector, so diagonal and off-diagonal blocks can be optimized
alternately by Frank-Wolfe iterations whose subproblems are small LPs.
"""

from .classify import graph_classify, knn_vote_scores, one_vs_all_predict
from .core import (Certificate, GershgorinPolytope, GershgorinScalars,
                   GraphMetric, GraphMetricRejection, SymmetricMatrix,
                   pairwise_mahalanobis, validate_graph_metric)
from .data import Dataset, Scaler, load_csv, load_feature_matrix, standardize
from .eigen import (EigenPair, LobpcgNonConvergence, smallest_eigenpair_dense,
                    smallest_eigenpair_lobpcg)
from .experiment import ExperimentReport, RunRecord, run_experiment
from .metric_io import load_metric, save_metric
from .objective import ConvexObjective, GLRObjective, ObjectiveContext
from .optimizer import (LearnResult, OptimizerConfig, OptimizerState,
                        diagonal_step, learn_metric, offdiag_step,
                        update_scalars)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "ConvexObjective", "Dataset", "EigenPair",
    "ExperimentReport", "GLRObjective", "GershgorinPolytope",
    "GershgorinScalars", "GraphMetric", "GraphMetricRejection", "LearnResult",
    "LobpcgNonConvergence", "ObjectiveContext", "OptimizerConfig",
    "OptimizerState", "RunRecord", "Scaler", "SymmetricMatrix",
    "diagonal_step", "graph_classify", "knn_vote_scores", "learn_metric",
    "load_csv", "load_feature_matrix", "load_metric", "offdiag_step",
    "one_vs_all_predict", "pairwise_mahalanobis", "run_experiment",
    "save_metric", "smallest_eigenpair_dense", "smallest_eigenpair_lobpcg",
    "standardize", "update_scalars", "validate_graph_metric", "__version__",
]
