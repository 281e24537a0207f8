"""Random instances for property suites and synthetic benchmarks."""

from __future__ import annotations

import numpy as np

from .core import GraphMetric, SymmetricMatrix, validate_graph_metric
from .data import Dataset


def random_graph_metric(rng: np.random.Generator, dim: int,
                        extra_edge_prob: float = 0.4,
                        dominance_cut: float = 0.9) -> GraphMetric:
    """Random certified graph metric, usually not diagonally dominant.

    Construction: random connected weighted graph (spanning tree plus extra
    edges), combinatorial Laplacian plus positive self-loops (PD and
    dominant), then a uniform diagonal shift removing up to ``dominance_cut``
    of lambda_min.  The shift keeps PD but generically drives some plain
    Gershgorin left-ends negative, which is the interesting regime for disc
    alignment.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    w = np.zeros((dim, dim))
    order = rng.permutation(dim)
    for a, b in zip(order[:-1], order[1:]):  # random spanning tree
        w[a, b] = w[b, a] = rng.uniform(0.2, 2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            if w[i, j] == 0 and rng.random() < extra_edge_prob:
                w[i, j] = w[j, i] = rng.uniform(0.2, 2.0)
    lap = np.diag(w.sum(axis=1)) - w
    lap += np.diag(rng.uniform(0.1, 1.0, size=dim))
    lam = float(np.linalg.eigvalsh(lap)[0])
    lap -= rng.uniform(0.0, dominance_cut) * lam * np.eye(dim)
    return validate_graph_metric(SymmetricMatrix(lap))


def random_spd(rng: np.random.Generator, dim: int) -> SymmetricMatrix:
    """Random SPD matrix with a resolvable spectral gap (not a graph metric).

    Built from an explicit increasing spectrum under a random rotation, so
    the smallest eigenpair is well defined and iterative solvers are
    expected to match the dense oracle tightly.
    """
    eigs = np.cumsum(rng.uniform(0.1, 1.0, size=dim))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return SymmetricMatrix((q * eigs) @ q.T)


def two_cluster_dataset(rng: np.random.Generator, n_per_class: int = 20,
                        num_features: int = 2, separation: float = 4.0,
                        name: str = "two-cluster") -> Dataset:
    """Two Gaussian blobs separated along feature 0 only.

    Features beyond the first are pure noise, so a good metric up-weights
    feature 0.
    """
    mean_a = np.zeros(num_features)
    mean_b = np.zeros(num_features)
    mean_b[0] = separation
    xa = rng.normal(size=(n_per_class, num_features)) + mean_a
    xb = rng.normal(size=(n_per_class, num_features)) + mean_b
    features = np.vstack([xa, xb])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(name=name, features=features, labels=labels, num_classes=2)


def gaussian_blobs_dataset(rng: np.random.Generator, n_classes: int = 3,
                           n_per_class: int = 12, num_features: int = 4,
                           spread: float = 1.0, separation: float = 3.0,
                           name: str = "blobs") -> Dataset:
    """Multi-class Gaussian blobs with random centers."""
    centers = rng.normal(scale=separation, size=(n_classes, num_features))
    feats = []
    labels = []
    for cls in range(n_classes):
        feats.append(rng.normal(scale=spread,
                                size=(n_per_class, num_features)) + centers[cls])
        labels.extend([cls] * n_per_class)
    return Dataset(name=name, features=np.vstack(feats),
                   labels=np.array(labels), num_classes=n_classes)
