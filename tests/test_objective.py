"""Tests for the GLR objective and its analytic gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphmetric.core import SymmetricMatrix
from graphmetric.objective import (GLRObjective, ObjectiveContext,
                                   PairDistances, glr_grad_diag,
                                   glr_grad_offdiag_col, glr_value,
                                   pair_distances)
from graphmetric.synthetic import random_graph_metric
from graphmetric.verify import (_random_objective_instance, fd_grad_diag,
                                fd_grad_offdiag_col)


def _two_point_ctx(dim=3):
    feats = np.zeros((2, dim))
    feats[0, 0] = 1.0
    return ObjectiveContext(features=feats, labels=np.array([1.0, -1.0]))


class TestValue:
    def test_equal_labels_zero(self):
        ctx = ObjectiveContext(features=np.random.default_rng(0).normal(size=(5, 3)),
                               labels=np.ones(5))
        assert glr_value(ctx, SymmetricMatrix(np.eye(3))) == 0.0

    def test_two_point_hand_value(self):
        # ordered pairs (1,2) and (2,1): 2 * exp(-1) * (1 - (-1))^2 = 8/e
        ctx = _two_point_ctx()
        val = glr_value(ctx, SymmetricMatrix(np.eye(3)))
        assert val == pytest.approx(8.0 / np.e, rel=1e-14)
        assert val == pytest.approx(2.9430, abs=1e-4)

    def test_scaling_metric_non_increasing(self):
        rng = np.random.default_rng(1)
        ctx, m = _random_objective_instance(rng)
        vals = [glr_value(ctx, SymmetricMatrix(t * m.entries))
                for t in (1.0, 2.0, 4.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ctx, m = _random_objective_instance(rng)
            assert glr_value(ctx, m) >= 0.0

    def test_dimension_mismatch(self):
        ctx = _two_point_ctx(3)
        with pytest.raises(Exception):
            glr_value(ctx, SymmetricMatrix(np.eye(4)))


class TestGradDiag:
    def test_equal_labels_zero_gradient(self):
        ctx = ObjectiveContext(features=np.random.default_rng(3).normal(size=(4, 3)),
                               labels=np.full(4, 2.0))
        assert np.array_equal(glr_grad_diag(ctx, SymmetricMatrix(np.eye(3))),
                              np.zeros(3))

    def test_two_point_hand_gradient(self):
        ctx = _two_point_ctx()
        g = glr_grad_diag(ctx, SymmetricMatrix(np.eye(3)))
        assert g[0] == pytest.approx(-8.0 / np.e, rel=1e-14)
        assert g[1] == g[2] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ctx, m = _random_objective_instance(rng)
            ana = glr_grad_diag(ctx, m)
            ref = fd_grad_diag(ctx, m)
            scale = max(1.0, float(np.max(np.abs(ana))))
            assert float(np.max(np.abs(ana - ref))) / scale <= 1e-5


class TestGradOffdiag:
    def test_equal_labels_zero(self):
        ctx = ObjectiveContext(features=np.random.default_rng(5).normal(size=(4, 3)),
                               labels=np.zeros(4))
        g = glr_grad_offdiag_col(ctx, SymmetricMatrix(np.eye(3)), 1)
        assert np.array_equal(g, np.zeros(2))

    def test_constant_feature_column_zero_entry(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(6, 3))
        feats[:, 2] = 7.0  # constant: zero difference factor
        ctx = ObjectiveContext(features=feats,
                               labels=rng.choice([-1.0, 1.0], size=6))
        g = glr_grad_offdiag_col(ctx, SymmetricMatrix(np.eye(3)), 0)
        # rows are (1, 2); entry for row 2 vanishes
        assert g[1] == 0.0

    def test_matches_symmetric_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ctx, m = _random_objective_instance(rng)
            col = int(rng.integers(0, m.dim))
            ana = glr_grad_offdiag_col(ctx, m, col)
            ref = fd_grad_offdiag_col(ctx, m, col)
            scale = max(1.0, float(np.max(np.abs(ana))))
            assert float(np.max(np.abs(ana - ref))) / scale <= 1e-5

    def test_bad_column_index(self):
        ctx = _two_point_ctx()
        with pytest.raises(IndexError):
            glr_grad_offdiag_col(ctx, SymmetricMatrix(np.eye(3)), 3)


class TestConvexity:
    def test_segment_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            ctx, _ = _random_objective_instance(rng)
            k = ctx.num_features
            m1 = random_graph_metric(rng, k).matrix
            m2 = random_graph_metric(rng, k).matrix
            q1, q2 = glr_value(ctx, m1), glr_value(ctx, m2)
            for t in (0.25, 0.5, 0.75):
                mid = SymmetricMatrix(t * m1.entries + (1 - t) * m2.entries)
                assert glr_value(ctx, mid) <= t * q1 + (1 - t) * q2 + 1e-10


class TestContext:
    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ObjectiveContext(features=np.ones((1, 2)), labels=np.ones(1))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ObjectiveContext(features=np.array([[np.nan, 1.0], [0.0, 1.0]]),
                             labels=np.ones(2))

    def test_pair_cache_skips_equal_label_pairs(self):
        feats = np.arange(8.0).reshape(4, 2)
        ctx = ObjectiveContext(features=feats,
                               labels=np.array([1.0, 1.0, -1.0, -1.0]))
        assert ctx.pair_cache.diffs.shape[0] == 4  # only cross pairs

    def test_objective_protocol_wrapper(self):
        ctx = _two_point_ctx()
        obj = GLRObjective(ctx)
        m = SymmetricMatrix(np.eye(3))
        assert obj.value(m) == glr_value(ctx, m)
        assert np.array_equal(obj.grad_diag(m), glr_grad_diag(ctx, m))
        assert np.array_equal(obj.grad_offdiag_col(m, 0),
                              glr_grad_offdiag_col(ctx, m, 0))


def _unit_floats():
    return st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _ray_cases(draw):
    """A context, a diagonally dominant metric, and one Frank-Wolfe move."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, 6))
    feats = draw(arrays(np.float64, (n, k), elements=_unit_floats()))
    labels = draw(arrays(np.float64, n,
                         elements=st.sampled_from([-1.0, 1.0])))
    off = draw(arrays(np.float64, (k, k), elements=_unit_floats()))
    m = SymmetricMatrix(np.triu(off, 1) + np.triu(off, 1).T
                        + (k + 1.0) * np.eye(k))
    col = draw(st.none() | st.integers(0, k - 1))
    size = k if col is None else k - 1
    direction = draw(arrays(np.float64, size, elements=_unit_floats()))
    gamma = draw(st.floats(0.0, 1.0))
    return ObjectiveContext(features=feats, labels=labels), m, col, \
        direction, gamma


def _moved_matrix(m, col, step):
    if col is None:
        return m.with_diagonal(m.diagonal() + step)
    return m.with_offdiag_column(col, np.delete(m.entries[:, col], col) + step)


class TestPairDistances:
    @settings(deadline=None, max_examples=150)
    @given(_ray_cases())
    def test_moved_point_matches_rebuilt_matrix(self, case):
        ctx, m, col, direction, gamma = case
        obj = GLRObjective(ctx)
        point = obj.ray(obj.at(m), direction, col)(gamma)
        rebuilt = _moved_matrix(m, col, gamma * direction)

        want = glr_value(ctx, rebuilt)
        assert abs(obj.value(point) - want) <= 1e-12 * want
        # gradients, relative to the sum of absolute pair contributions
        cache = ctx.pair_cache
        terms = cache.weights * np.exp(-pair_distances(ctx, rebuilt).delta)
        scale = terms @ cache.sq_diffs
        assert np.all(np.abs(obj.grad_diag(point)
                             - glr_grad_diag(ctx, rebuilt)) <= 1e-12 * scale)
        for c in range(ctx.num_features):
            d = np.abs(cache.diffs)
            scale = 2.0 * (terms * d[:, c]) @ np.delete(d, c, axis=1)
            err = np.abs(obj.grad_offdiag_col(point, c)
                         - glr_grad_offdiag_col(ctx, rebuilt, c))
            assert np.all(err <= 1e-12 * scale)

    def test_distances_bound_to_their_context(self):
        ctx, other = _two_point_ctx(), _two_point_ctx()
        point = pair_distances(ctx, SymmetricMatrix(np.eye(3)))
        assert isinstance(point, PairDistances)
        assert glr_value(ctx, point) == pytest.approx(8.0 / np.e, rel=1e-14)
        with pytest.raises(ValueError):
            glr_value(other, point)
