"""Classifiers driven by a learned metric: kNN votes and graph propagation.

Each classifier scores one class against the rest from +-1 training labels;
``experiment.one_vs_all_scores`` runs them over the classes and
``one_vs_all_predict`` picks the winning class per sample.

The graph classifier is transductive: it builds a dense similarity graph
over labeled and unlabeled samples together (edge weights exp(-distance)
under the learned metric), clamps the known labels, and minimizes z^T L z
exactly by solving the unlabeled block of the Laplacian system.
"""

from __future__ import annotations

import logging
from typing import Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import GraphMetric, pairwise_mahalanobis

log = logging.getLogger(__name__)

_SINGULAR_REG = 1e-10


def graph_classify(all_features: np.ndarray, known_labels: Mapping[int, float],
                   metric: GraphMetric) -> np.ndarray:
    """Propagate +-1 labels over the metric graph; returns length-N scores.

    The graph joins every pair of samples with weight exp(-mahalanobis
    distance) under ``metric`` and has the combinatorial Laplacian
    L = D - W.  Solves L_UU z_U = -L_UL z_L exactly (known entries pass
    through).  A singular unlabeled block (disconnected unlabeled
    component) gets a 1e-10 diagonal regularization and a logged warning.
    """
    if len(known_labels) == 0:
        raise ValueError("need at least one known label")
    f = np.asarray(all_features, dtype=float)
    n = f.shape[0]
    known = {int(i): float(v) for i, v in known_labels.items()}
    for i in known:
        if not 0 <= i < n:
            raise IndexError(f"known-label index {i} out of range for N={n}")
    d = pairwise_mahalanobis(f, f, metric.matrix)
    w = np.exp(-d)  # underflows to exactly 0 for far pairs
    np.fill_diagonal(w, 0.0)
    laplacian = np.diag(np.sum(w, axis=1)) - w
    scores = np.zeros(n)
    labeled = np.array(sorted(known), dtype=int)
    scores[labeled] = [known[int(i)] for i in labeled]
    mask = np.ones(n, dtype=bool)
    mask[labeled] = False
    unlabeled = np.nonzero(mask)[0]
    if unlabeled.size == 0:
        return scores
    l_uu = laplacian[np.ix_(unlabeled, unlabeled)]
    l_ul = laplacian[np.ix_(unlabeled, labeled)]
    rhs = -l_ul @ scores[labeled]
    try:
        factor = cho_factor(l_uu)
    except np.linalg.LinAlgError:
        log.warning("singular unlabeled block (disconnected component); "
                    "adding %g diagonal regularization", _SINGULAR_REG)
        l_uu = l_uu + _SINGULAR_REG * np.eye(unlabeled.size)
        factor = cho_factor(l_uu)
    z = cho_solve(factor, rhs)
    # one refinement step keeps the solution tight on weakly connected graphs
    z += cho_solve(factor, rhs - l_uu @ z)
    scores[unlabeled] = z
    return scores


def knn_vote_scores(train_features: np.ndarray, train_z: np.ndarray,
                    test_features: np.ndarray, metric: GraphMetric,
                    k: int) -> np.ndarray:
    """Mean +-1 training label among each test row's k nearest neighbors.

    Distance ties break toward the lower training index (stable sort).
    Over the classes of one metric, the highest mean is the majority
    class, so ``one_vs_all_predict`` of these scores is a majority vote
    whose ties go to the smallest class.
    """
    train_z = np.asarray(train_z, dtype=float)
    if not 1 <= k <= train_z.size:
        raise ValueError(f"k={k} must be in 1..{train_z.size}")
    d = pairwise_mahalanobis(test_features, train_features, metric.matrix)
    neighbors = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.mean(train_z[neighbors], axis=1)


def one_vs_all_predict(scores: np.ndarray) -> np.ndarray:
    """Winning class per row: argmax of the per-class score columns.

    Ties resolve to the lowest class index (numpy argmax convention).
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    return np.argmax(scores, axis=1)
