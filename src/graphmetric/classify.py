"""Classifiers driven by a learned metric: kNN and graph label propagation.

The graph classifier is transductive: it builds a dense similarity graph
over labeled and unlabeled samples together (edge weights exp(-distance)
under the learned metric), clamps the known labels, and minimizes z^T L z
exactly by solving the unlabeled block of the Laplacian system.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import GraphMetric, pairwise_mahalanobis
from .data import Dataset

log = logging.getLogger(__name__)

_SINGULAR_REG = 1e-10


@dataclass(frozen=True)
class LabeledGraph:
    """Dense similarity graph with a partial labeling.

    weights: (N, N) symmetric, zero diagonal, entries in [0, 1];
    laplacian: combinatorial D - W (rows sum to zero);
    known: mapping from sample index to its clamped label.
    """

    weights: np.ndarray
    laplacian: np.ndarray
    known: dict[int, float]

    @property
    def num_nodes(self) -> int:
        return self.weights.shape[0]


def build_labeled_graph(features: np.ndarray, metric: GraphMetric,
                        known: Mapping[int, float]) -> LabeledGraph:
    """All-pairs graph from exp(-mahalanobis distance) under ``metric``."""
    f = np.asarray(features, dtype=float)
    d = pairwise_mahalanobis(f, f, metric.matrix)
    w = np.exp(-d)  # underflows to exactly 0 for far pairs
    np.fill_diagonal(w, 0.0)
    lap = np.diag(np.sum(w, axis=1)) - w
    known = {int(i): float(v) for i, v in known.items()}
    n = f.shape[0]
    for i in known:
        if not 0 <= i < n:
            raise IndexError(f"known-label index {i} out of range for N={n}")
    return LabeledGraph(weights=w, laplacian=lap, known=known)


def graph_classify(all_features: np.ndarray, known_labels: Mapping[int, float],
                   metric: GraphMetric) -> np.ndarray:
    """Propagate +-1 labels over the metric graph; returns length-N scores.

    Solves L_UU z_U = -L_UL z_L exactly (known entries pass through).  A
    singular unlabeled block (disconnected unlabeled component) gets a 1e-10
    diagonal regularization and a logged warning.
    """
    if len(known_labels) == 0:
        raise ValueError("need at least one known label")
    graph = build_labeled_graph(all_features, metric, known_labels)
    n = graph.num_nodes
    scores = np.zeros(n)
    labeled = np.array(sorted(graph.known), dtype=int)
    scores[labeled] = [graph.known[int(i)] for i in labeled]
    mask = np.ones(n, dtype=bool)
    mask[labeled] = False
    unlabeled = np.nonzero(mask)[0]
    if unlabeled.size == 0:
        return scores
    l_uu = graph.laplacian[np.ix_(unlabeled, unlabeled)]
    l_ul = graph.laplacian[np.ix_(unlabeled, labeled)]
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


def _k_nearest(train_features: np.ndarray, points: np.ndarray,
               metric: GraphMetric, k: int) -> np.ndarray:
    """Indices of the k nearest training rows per query row.

    Distance ties break toward the lower training index (stable sort).
    """
    d = pairwise_mahalanobis(points, train_features, metric.matrix)
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :k]


def knn_classify(train: Dataset, test_point: np.ndarray, metric: GraphMetric,
                 k: int) -> int:
    """Majority vote among the k metric-nearest training samples.

    Vote ties resolve to the smallest class label.
    """
    n = train.num_samples
    if n == 0:
        raise ValueError("empty training set")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in 1..{n}")
    neighbors = _k_nearest(train.features, np.atleast_2d(test_point), metric, k)[0]
    votes = Counter(int(lbl) for lbl in train.labels[neighbors])
    top = max(votes.values())
    return min(lbl for lbl, cnt in votes.items() if cnt == top)


def knn_vote_scores(train_features: np.ndarray, train_z: np.ndarray,
                    test_features: np.ndarray, metric: GraphMetric,
                    k: int) -> np.ndarray:
    """Mean +-1 training label among each test row's k nearest neighbors.

    The one-vs-all harness uses this as the per-class kNN score.
    """
    train_z = np.asarray(train_z, dtype=float)
    if not 1 <= k <= train_z.size:
        raise ValueError(f"k={k} must be in 1..{train_z.size}")
    neighbors = _k_nearest(np.asarray(train_features, dtype=float),
                           np.atleast_2d(np.asarray(test_features, dtype=float)),
                           metric, k)
    return np.mean(train_z[neighbors], axis=1)


def one_vs_all_predict(scores: np.ndarray) -> np.ndarray:
    """Winning class per row: argmax of the per-class score columns.

    Ties resolve to the lowest class index (numpy argmax convention).
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    return np.argmax(scores, axis=1)
