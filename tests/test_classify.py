"""Tests for the kNN and graph label-propagation classifiers."""

import logging

import numpy as np
import pytest

from graphmetric.classify import (graph_classify, knn_vote_scores,
                                  one_vs_all_predict)
from graphmetric.core import SymmetricMatrix, validate_graph_metric
from graphmetric.experiment import one_vs_all_scores
from helpers import (euclidean_knn_label, random_graph_metric,
                     reference_graph_scores, similarity_graph)

IDENTITY_3 = validate_graph_metric(SymmetricMatrix(
    [[1.0, -1e-6, 0.0], [-1e-6, 1.0, -1e-6], [0.0, -1e-6, 1.0]]))
IDENTITY_2 = validate_graph_metric(SymmetricMatrix(
    [[1.0, -1e-6], [-1e-6, 1.0]]))


def _knn_predict(feats, labels, points, metric, k):
    """One-vs-all kNN labels of ``points``: the path the CLI takes."""
    labels = np.asarray(labels)
    scores = one_vs_all_scores(np.asarray(feats, dtype=float), labels,
                               np.atleast_2d(points), int(labels.max()) + 1,
                               metric, ("knn",), k)
    return one_vs_all_predict(scores["knn"]).tolist()


def _assert_relative(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


class TestKnn:
    def test_exact_training_point_k1(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(10, 2))
        labels = rng.integers(0, 3, size=10)
        assert _knn_predict(feats, labels, feats, IDENTITY_2, 1) == \
            labels.tolist()

    def test_near_identity_matches_euclidean_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 30))
            feats = rng.normal(size=(n, 2))
            labels = rng.integers(0, 3, size=n)
            point = rng.normal(size=2)
            k = int(rng.integers(1, n + 1))
            assert _knn_predict(feats, labels, point, IDENTITY_2, k) == \
                [euclidean_knn_label(feats, labels, point, k)]

    def test_metric_scaling_invariance(self):
        rng = np.random.default_rng(2)
        g = random_graph_metric(rng, 3)
        scaled = validate_graph_metric(SymmetricMatrix(7.0 * g.matrix.entries))
        feats = rng.normal(size=(20, 3))
        labels = rng.integers(0, 2, size=20)
        points = rng.normal(size=(20, 3))
        assert _knn_predict(feats, labels, points, g, 5) == \
            _knn_predict(feats, labels, points, scaled, 5)

    def test_distance_tie_breaks_to_lower_index(self):
        # two training points equidistant from the query; k=1 must pick
        # the earlier one
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0], [5.0, -5.0]])
        labels = np.array([1, 0, 0, 1])
        assert _knn_predict(feats, labels, np.zeros(2), IDENTITY_2, 1) == [1]

    def test_vote_tie_breaks_to_smaller_label(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([1, 1, 2, 2])
        assert _knn_predict(feats, labels, np.zeros(2), IDENTITY_2, 4) == [1]

    def test_k_validation(self):
        labels = np.array([0, 1, 1])
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"k={k} must be in 1..3"):
                _knn_predict(np.zeros((3, 2)), labels, np.zeros(2),
                             IDENTITY_2, k)

    def test_vote_scores_k_validation(self):
        feats, z = np.zeros((3, 3)), np.array([1.0, -1.0, 1.0])
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"k={k} must be in 1..3"):
                knn_vote_scores(feats, z, np.zeros((1, 3)), IDENTITY_3, k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.True_])
    def test_vote_scores_k_must_be_an_integer(self, k):
        feats, z = np.zeros((3, 3)), np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=f"k must be an integer, not "
                           f"{k!r}"):
            knn_vote_scores(feats, z, np.zeros((1, 3)), IDENTITY_3, k)

    def test_vote_scores_numpy_integer_k(self):
        feats = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        z = np.array([1.0, -1.0, 1.0])
        scores = knn_vote_scores(feats, z, np.zeros((1, 3)), IDENTITY_3,
                                 np.int64(2))
        assert scores.tolist() == [0.0]

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
        # the scores minimize z^T L z with the known labels clamped, for the
        # Laplacian L = D - W of the weights exp(-d_M) on distinct pairs
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(4, 10))
            feats = rng.normal(size=(n, 3))
            g = random_graph_metric(rng, 3)
            _, laplacian = similarity_graph(feats, g)
            known = {0: 1.0, 1: -1.0}
            scores = graph_classify(feats, known, g)
            base = scores @ laplacian @ scores
            for i in range(2, n):
                for delta in (1e-3, -1e-3):
                    z = scores.copy()
                    z[i] += delta
                    assert z @ laplacian @ z >= base - 1e-12

    def test_needs_a_label(self):
        with pytest.raises(ValueError):
            graph_classify(np.zeros((3, 3)), {}, IDENTITY_3)

    def test_known_index_out_of_range(self):
        for index in (3, 5, -1):
            with pytest.raises(IndexError, match=f"index {index} out of "
                               f"range for N=3"):
                graph_classify(np.zeros((3, 3)), {index: 1.0}, IDENTITY_3)

    def test_fractional_known_index_rejected(self):
        # int() would fold 1.5 onto row 1 and keep one of the two labels
        with pytest.raises(TypeError, match="index 1.5 is not an integer"):
            graph_classify(np.zeros((3, 3)), {1.5: 1.0, 1: -1.0}, IDENTITY_3)

    @pytest.mark.parametrize("index", [True, np.False_])
    def test_bool_known_index_rejected(self, index):
        # int(True) would label row 1
        with pytest.raises(TypeError, match=f"index {index!r} is not an "
                           f"integer"):
            graph_classify(np.zeros((3, 3)), {index: 1.0}, IDENTITY_3)

    def test_numpy_integer_known_index(self):
        feats = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        scores = graph_classify(feats, {np.int64(0): 1.0, np.int32(2): -1.0},
                                IDENTITY_3)
        assert np.array_equal(scores, graph_classify(
            feats, {0: 1.0, 2: -1.0}, IDENTITY_3))

    def test_singular_block_regularized_with_warning(self, caplog):
        # one unlabeled node infinitely far away: its row of W underflows
        # to zero, L_UU is singular, and a warning is logged
        feats = np.array([[0.0, 0.0], [0.5, 0.0], [1e4, 1e4]])
        with caplog.at_level(logging.WARNING, logger="graphmetric.classify"):
            scores = graph_classify(feats, {0: 1.0}, IDENTITY_2)
        assert np.all(np.isfinite(scores))
        assert any("singular" in rec.message for rec in caplog.records)

    def test_matches_cholesky_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            feats = rng.normal(size=(n, 3))
            g = random_graph_metric(rng, 3)
            known = {int(i): float(rng.choice([-1.0, 1.0]))
                     for i in rng.choice(n, size=int(rng.integers(1, n)),
                                         replace=False)}
            _assert_relative(graph_classify(feats, known, g),
                             reference_graph_scores(feats, known, g))

    def test_label_block_matches_cholesky_reference(self):
        # C label columns solved at once give (N, C) scores, each column
        # the scores of that column's labels alone
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(6, 25))
            feats = rng.normal(size=(n, 3))
            g = random_graph_metric(rng, 3)
            classes = rng.integers(0, 3, size=n)
            z = np.where(classes[:, None] == np.arange(3), 1.0, -1.0)
            known = {int(i): z[i] for i in
                     rng.choice(n, size=int(rng.integers(1, n)),
                                replace=False)}
            scores = graph_classify(feats, known, g)
            _assert_relative(scores, reference_graph_scores(feats, known, g))
            for c in range(3):
                column = {i: float(v[c]) for i, v in known.items()}
                _assert_relative(scores[:, c],
                                 graph_classify(feats, column, g))

    def test_singular_block_matches_cholesky_reference(self, caplog):
        # a far unlabeled node makes L_UU singular: both solvers add the
        # 1e-10 regularization, and the far node scores 0
        rng = np.random.default_rng(10)
        feats = np.vstack([rng.normal(size=(6, 3)), [[1e4, 1e4, 1e4]]])
        g = random_graph_metric(rng, 3)
        for known in ({0: 1.0, 3: -1.0},
                      {0: np.array([1.0, -1.0]), 3: np.array([-1.0, 1.0])}):
            caplog.clear()
            with caplog.at_level(logging.WARNING,
                                 logger="graphmetric.classify"):
                scores = graph_classify(feats, known, g)
            assert any("singular" in rec.message for rec in caplog.records)
            assert np.all(scores[6] == 0.0)
            _assert_relative(scores, reference_graph_scores(feats, known, g))


class TestLabeledGraph:
    def test_invariants(self):
        # the graph graph_classify propagates over: zero diagonal, weights
        # in [0, 1], symmetric, Laplacian rows summing to zero; the scores
        # are harmonic on it, so (L z)_u = 0 at every unlabeled node u
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(8, 3))
        g = random_graph_metric(rng, 3)
        w, laplacian = similarity_graph(feats, g)
        assert np.all(np.diag(w) == 0.0)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.allclose(w, w.T)
        assert np.max(np.abs(laplacian.sum(axis=1))) <= 1e-10
        scores = graph_classify(feats, {0: 1.0, 3: -1.0}, g)
        residual = laplacian @ scores
        unlabeled = [i for i in range(8) if i not in (0, 3)]
        assert np.max(np.abs(residual[unlabeled])) <= 1e-10


class TestOneVsAll:
    def test_argmax_rows(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert one_vs_all_predict(scores).tolist() == [1, 0]

    def test_tie_goes_to_lowest_class(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        assert one_vs_all_predict(scores).tolist() == [0]

    def test_shared_metric_scores_every_class_at_once(self):
        # one metric for all classes gives the scores of asking for it
        # class by class
        rng = np.random.default_rng(11)
        g = random_graph_metric(rng, 3)
        x_train, x_test = rng.normal(size=(15, 3)), rng.normal(size=(7, 3))
        y_train = rng.integers(0, 3, size=15)
        shared = one_vs_all_scores(x_train, y_train, x_test, 3, g,
                                   ("knn", "graph"), 5)
        per_class = one_vs_all_scores(x_train, y_train, x_test, 3,
                                      lambda z: g, ("knn", "graph"), 5)
        assert np.array_equal(shared["knn"], per_class["knn"])
        _assert_relative(shared["graph"], per_class["graph"])
