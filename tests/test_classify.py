"""Tests for the kNN and graph label-propagation classifiers."""

import logging

import numpy as np
import pytest

from graphmetric.classify import (build_labeled_graph, graph_classify,
                                  knn_classify, knn_vote_scores,
                                  one_vs_all_predict)
from graphmetric.core import SymmetricMatrix, validate_graph_metric
from graphmetric.data import Dataset
from helpers import euclidean_knn_label, random_graph_metric

IDENTITY_3 = validate_graph_metric(SymmetricMatrix(
    [[1.0, -1e-6, 0.0], [-1e-6, 1.0, -1e-6], [0.0, -1e-6, 1.0]]))
IDENTITY_2 = validate_graph_metric(SymmetricMatrix(
    [[1.0, -1e-6], [-1e-6, 1.0]]))


def _dataset(features, labels):
    labels = np.asarray(labels)
    return Dataset(name="toy", features=np.asarray(features, dtype=float),
                   labels=labels, num_classes=int(labels.max()) + 1)


class TestKnn:
    def test_exact_training_point_k1(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(10, 2))
        labels = rng.integers(0, 3, size=10)
        train = _dataset(feats, labels)
        for i in range(10):
            assert knn_classify(train, feats[i], IDENTITY_2, 1) == labels[i]

    def test_near_identity_matches_euclidean_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 30))
            feats = rng.normal(size=(n, 2))
            labels = rng.integers(0, 3, size=n)
            train = _dataset(feats, np.maximum(labels, 0))
            point = rng.normal(size=2)
            k = int(rng.integers(1, n + 1))
            assert knn_classify(train, point, IDENTITY_2, k) == \
                euclidean_knn_label(feats, train.labels, point, k)

    def test_metric_scaling_invariance(self):
        rng = np.random.default_rng(2)
        g = random_graph_metric(rng, 3)
        scaled = validate_graph_metric(SymmetricMatrix(7.0 * g.matrix.entries))
        feats = rng.normal(size=(20, 3))
        labels = rng.integers(0, 2, size=20)
        train = _dataset(feats, labels)
        for _ in range(20):
            point = rng.normal(size=3)
            assert knn_classify(train, point, g, 5) == \
                knn_classify(train, point, scaled, 5)

    def test_distance_tie_breaks_to_lower_index(self):
        # two training points equidistant from the query; k=1 must pick
        # the earlier one
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0], [5.0, -5.0]])
        labels = np.array([1, 0, 0, 1])
        train = _dataset(feats, labels)
        assert knn_classify(train, np.zeros(2), IDENTITY_2, 1) == 1

    def test_vote_tie_breaks_to_smaller_label(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([1, 1, 2, 2])
        train = _dataset(feats, labels)
        assert knn_classify(train, np.zeros(2), IDENTITY_2, 4) == 1

    def test_k_validation(self):
        train = _dataset(np.zeros((3, 2)), np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            knn_classify(train, np.zeros(2), IDENTITY_2, 0)
        with pytest.raises(ValueError):
            knn_classify(train, np.zeros(2), IDENTITY_2, 4)

    def test_vote_scores_k_validation(self):
        feats, z = np.zeros((3, 3)), np.array([1.0, -1.0, 1.0])
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"k={k} must be in 1..3"):
                knn_vote_scores(feats, z, np.zeros((1, 3)), IDENTITY_3, k)

    def test_vote_scores_shape_and_range(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(12, 3))
        z = rng.choice([-1.0, 1.0], size=12)
        scores = knn_vote_scores(feats, z, rng.normal(size=(5, 3)),
                                 IDENTITY_3, 5)
        assert scores.shape == (5,)
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


class TestGraphClassify:
    def test_all_labels_known_pass_through(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, 3))
        known = {i: (1.0 if i % 2 else -1.0) for i in range(6)}
        scores = graph_classify(feats, known, IDENTITY_3)
        for i, v in known.items():
            assert scores[i] == v

    def test_path_midpoint_is_zero(self):
        # path of 3 nodes with unit edge weights: 2 z2 = z1 + z3 -> z2 = 0.
        # zero pairwise distances give weight exp(0) = 1 on every pair,
        # including the ends, so use the Laplacian route directly instead:
        # equidistant features make a uniform graph; with z1 = +1, z3 = -1
        # symmetry still forces the middle score to 0.
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        scores = graph_classify(feats, {0: 1.0, 2: -1.0}, IDENTITY_2)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_far_cliques_follow_their_label(self):
        # cliques far apart: cross weights underflow to ~0, each unlabeled
        # node follows its own clique's labeled nodes
        a = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        b = a + 60.0
        feats = np.vstack([a, b])
        scores = graph_classify(feats, {0: 1.0, 3: -1.0}, IDENTITY_2)
        assert np.all(scores[1:3] > 0.5)
        assert np.all(scores[4:6] < -0.5)

    def test_maximum_principle(self):
        # moderate feature scale keeps edge weights within a few orders of
        # magnitude; the 1e-9 tolerance is meaningless once the Laplacian
        # block's conditioning exceeds double precision
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            feats = 0.4 * rng.normal(size=(n, 3))
            g = random_graph_metric(rng, 3)
            n_known = int(rng.integers(1, n))
            known = {int(i): float(rng.choice([-1.0, 1.0]))
                     for i in rng.choice(n, size=n_known, replace=False)}
            scores = graph_classify(feats, known, g)
            lo = min(known.values())
            hi = max(known.values())
            assert np.all(scores >= lo - 1e-9)
            assert np.all(scores <= hi + 1e-9)

    def test_quadratic_optimality(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(4, 10))
            feats = rng.normal(size=(n, 3))
            g = random_graph_metric(rng, 3)
            known = {0: 1.0, 1: -1.0}
            graph = build_labeled_graph(feats, g, known)
            scores = graph_classify(feats, known, g)
            base = scores @ graph.laplacian @ scores
            for i in range(2, n):
                for delta in (1e-3, -1e-3):
                    z = scores.copy()
                    z[i] += delta
                    assert z @ graph.laplacian @ z >= base - 1e-12

    def test_needs_a_label(self):
        with pytest.raises(ValueError):
            graph_classify(np.zeros((3, 3)), {}, IDENTITY_3)

    def test_singular_block_regularized_with_warning(self, caplog):
        # one unlabeled node infinitely far away: its row of W underflows
        # to zero, L_UU is singular, and a warning is logged
        feats = np.array([[0.0, 0.0], [0.5, 0.0], [1e4, 1e4]])
        with caplog.at_level(logging.WARNING, logger="graphmetric.classify"):
            scores = graph_classify(feats, {0: 1.0}, IDENTITY_2)
        assert np.all(np.isfinite(scores))
        assert any("singular" in rec.message for rec in caplog.records)


class TestLabeledGraph:
    def test_invariants(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(8, 3))
        g = random_graph_metric(rng, 3)
        graph = build_labeled_graph(feats, g, {0: 1.0})
        w = graph.weights
        assert np.all(np.diag(w) == 0.0)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.allclose(w, w.T)
        assert np.max(np.abs(graph.laplacian.sum(axis=1))) <= 1e-10

    def test_known_index_out_of_range(self):
        with pytest.raises(IndexError):
            build_labeled_graph(np.zeros((3, 3)), IDENTITY_3, {5: 1.0})


class TestOneVsAll:
    def test_argmax_rows(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert one_vs_all_predict(scores).tolist() == [1, 0]

    def test_tie_goes_to_lowest_class(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        assert one_vs_all_predict(scores).tolist() == [0]
