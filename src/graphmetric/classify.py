"""Classifiers driven by a learned metric: kNN votes and graph propagation.

Each classifier scores one class against the rest from +-1 training labels;
``experiment.one_vs_all_scores`` runs them over the classes and
``one_vs_all_predict`` picks the winning class per sample.

The graph classifier is transductive: it builds a dense similarity graph
over labeled and unlabeled samples together (edge weights exp(-distance)
under the learned metric), clamps the known labels, and minimizes z^T L z
exactly by solving the unlabeled block of the Laplacian system with
``numpy.linalg.solve`` (LU), after ``numpy.linalg.cholesky`` has tested
the block for positive definiteness.  One solve serves a block of label
columns, one per class scored under the same metric.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

import numpy as np

from .core import GraphMetric, pairwise_mahalanobis

log = logging.getLogger(__name__)

_SINGULAR_REG = 1e-10


def graph_classify(all_features: np.ndarray,
                   known_labels: Mapping[int, float | Sequence[float]],
                   metric: GraphMetric) -> np.ndarray:
    """Propagate +-1 labels over the metric graph; returns the scores.

    The graph joins every pair of samples with weight exp(-mahalanobis
    distance) under ``metric`` and has the combinatorial Laplacian
    L = D - W.  Solves L_UU z_U = -L_UL z_L exactly (known entries pass
    through), with one refinement step.  A known label is a number, which
    gives length-N scores, or a length-C row of labels, which gives (N, C)
    scores from one solve.  An unlabeled block that fails the Cholesky
    test (a disconnected unlabeled component makes it singular) gets a
    1e-10 diagonal regularization and a logged warning.
    """
    if len(known_labels) == 0:
        raise ValueError("need at least one known label")
    f = np.asarray(all_features, dtype=float)
    n = f.shape[0]
    for i in known_labels:
        # int() would keep 1.5 as row 1 and True as row 1
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise TypeError(f"known-label index {i!r} is not an integer")
        if not 0 <= i < n:
            raise IndexError(f"known-label index {i} out of range for N={n}")
    known = {int(i): v for i, v in known_labels.items()}
    d = pairwise_mahalanobis(f, f, metric.matrix)
    w = np.exp(-d)  # underflows to exactly 0 for far pairs
    np.fill_diagonal(w, 0.0)
    laplacian = np.diag(np.sum(w, axis=1)) - w
    labeled = np.array(sorted(known), dtype=int)
    values = np.array([known[i] for i in labeled.tolist()], dtype=float)
    scores = np.zeros((n, *values.shape[1:]))
    scores[labeled] = values
    mask = np.ones(n, dtype=bool)
    mask[labeled] = False
    unlabeled = np.nonzero(mask)[0]
    if unlabeled.size == 0:
        return scores
    l_uu = laplacian[np.ix_(unlabeled, unlabeled)]
    rhs = -laplacian[np.ix_(unlabeled, labeled)] @ values
    try:
        np.linalg.cholesky(l_uu)
    except np.linalg.LinAlgError:
        log.warning("singular unlabeled block (disconnected component); "
                    "adding %g diagonal regularization", _SINGULAR_REG)
        l_uu = l_uu + _SINGULAR_REG * np.eye(unlabeled.size)
    z = np.linalg.solve(l_uu, rhs)
    # one refinement step keeps the solution tight on weakly connected graphs
    z += np.linalg.solve(l_uu, rhs - l_uu @ z)
    scores[unlabeled] = z
    return scores


def knn_vote_scores(train_features: np.ndarray, train_z: np.ndarray,
                    test_features: np.ndarray, metric: GraphMetric,
                    k: int) -> np.ndarray:
    """Mean +-1 training label among each test row's k nearest neighbors.

    ``train_z`` holds one label per training row, or a row of C labels,
    which gives (n_test, C) scores from one neighbor search.  Distance ties
    break toward the lower training index (stable sort).  Over the classes
    of one metric, the highest mean is the majority class, so
    ``one_vs_all_predict`` of these scores is a majority vote whose ties go
    to the smallest class.
    """
    train_z = np.asarray(train_z, dtype=float)
    n_train = train_z.shape[0]
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, not {k!r}")
    if not 1 <= k <= n_train:
        raise ValueError(f"k={k} must be in 1..{n_train}")
    d = pairwise_mahalanobis(test_features, train_features, metric.matrix)
    neighbors = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.mean(train_z[neighbors], axis=1)


def one_vs_all_predict(scores: np.ndarray) -> np.ndarray:
    """Winning class per row: argmax of the per-class score columns.

    Ties resolve to the lowest class index (numpy argmax convention).
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    return np.argmax(scores, axis=1)
