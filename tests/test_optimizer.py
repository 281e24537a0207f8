"""Tests for the alternating Frank-Wolfe metric learner."""

import logging
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from graphmetric.core import (SymmetricMatrix, is_connected, scaled_left_ends,
                              scaled_radii, validate_graph_metric)
from graphmetric.data import load_csv
from graphmetric import eigen
from graphmetric.eigen import smallest_eigenpair_dense
from graphmetric.objective import GLRObjective, ObjectiveContext
from graphmetric import optimizer
from graphmetric.optimizer import (ConfigError, OptimizerConfig,
                                   OptimizerState, SubproblemInfeasibleError,
                                   diagonal_step, init_metric, initial_state,
                                   learn_metric, offdiag_step, update_scalars,
                                   _column_tree_edges, _max_spanning_tree,
                                   _tree_survives)
from helpers import (MatrixObjective, column_tree_edges_by_scan,
                     count_eigensolves, diag_objective_fn, golden_section,
                     grid_search_diag, max_spanning_tree,
                     shifted_path_laplacian, two_cluster_dataset)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])


def _state_for(matrix: SymmetricMatrix) -> OptimizerState:
    """Optimizer state around an arbitrary graph metric with stale scalars."""
    from graphmetric.core import GershgorinScalars
    g = validate_graph_metric(matrix)
    return OptimizerState(metric=g, scalars=GershgorinScalars(np.ones(g.dim)),
                          objective_trace=(0.0,))


def _random_ctx(rng, n, k):
    feats = rng.normal(size=(n, k))
    z = rng.choice([-1.0, 1.0], size=n)
    z[0], z[1] = 1.0, -1.0
    return ObjectiveContext(features=feats, labels=z)


class TestConfig:
    def test_defaults_resolve(self):
        cfg = OptimizerConfig().resolve(4)
        assert cfg.trace_cap == 4.0
        assert cfg.rho == pytest.approx(1e-4)
        assert cfg.epsilon == pytest.approx(1e-3)

    def test_rho_too_large(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(trace_cap=2.0, rho=1.5).resolve(2)

    def test_epsilon_too_large(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(trace_cap=2.0, epsilon=0.5, rho=1e-4).resolve(2)

    @pytest.mark.parametrize("field, value", [
        ("fw_max_iters", 2.5), ("outer_max_iters", True)])
    def test_iteration_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match="must be integers"):
            OptimizerConfig(**{field: value}).resolve(3)


class TestInitMetric:
    def test_worked_example_k3(self):
        cfg = OptimizerConfig(trace_cap=3.0, epsilon=0.1, rho=1e-3).resolve(3)
        g = init_metric(cfg, 3)
        expected = np.array([[1.0, -0.1, 0.0],
                             [-0.1, 1.0, -0.1],
                             [0.0, -0.1, 1.0]])
        assert np.array_equal(g.matrix.entries, expected)

    def test_smallest_case_k2(self):
        cfg = OptimizerConfig(trace_cap=2.0, epsilon=0.1, rho=1e-3).resolve(2)
        g = init_metric(cfg, 2)
        assert np.array_equal(g.matrix.entries,
                              np.array([[1.0, -0.1], [-0.1, 1.0]]))

    def test_trace_exact_and_pd_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            c = float(rng.uniform(0.5, 10.0))
            eps = 1e-3 * c / dim
            cfg = OptimizerConfig(trace_cap=c, epsilon=eps).resolve(dim)
            g = init_metric(cfg, dim)
            assert g.matrix.trace() == c  # exact, by construction
            lam = smallest_eigenpair_dense(g.matrix).value
            assert lam >= c / dim - 2 * eps - 1e-12
            assert lam > 0


class TestUpdateScalars:
    def test_worked_example_alignment(self):
        state = _state_for(EX_MATRIX)
        new = update_scalars(state)
        s = new.scalars.values
        assert np.allclose(s / s[0], np.array([1.3314, 2.0467, 2.2523]) / 1.3314,
                           atol=2e-4)
        ends = scaled_left_ends(EX_MATRIX, new.scalars)
        assert np.allclose(ends, 0.1078, atol=1e-3)
        assert float(np.max(ends) - np.min(ends)) < 1e-8

    def test_symmetric_2x2_uniform(self):
        state = _state_for(SymmetricMatrix([[3.0, -1.0], [-1.0, 3.0]]))
        new = update_scalars(state)
        s = new.scalars.values
        assert s[0] == pytest.approx(s[1], rel=1e-10)

    def test_idempotent(self):
        state = _state_for(EX_MATRIX)
        once = update_scalars(state)
        twice = update_scalars(once)
        assert np.max(np.abs(once.scalars.values
                             - twice.scalars.values)) <= 1e-10

    def test_solves_no_eigenproblem_on_a_certified_state(self, monkeypatch):
        state = _state_for(EX_MATRIX)
        calls = count_eigensolves(monkeypatch)
        new = update_scalars(state)
        assert calls == []
        assert new.metric is state.metric

    def test_aligned_state_is_returned_as_is(self, monkeypatch):
        state = update_scalars(_state_for(EX_MATRIX), rho=0.0)
        solves = count_eigensolves(monkeypatch)
        left_ends = []
        real = optimizer.scaled_left_ends
        monkeypatch.setattr(optimizer, "scaled_left_ends",
                            lambda *a: left_ends.append(a) or real(*a))
        assert update_scalars(state, rho=0.0) is state
        assert solves == [] and left_ends == []
        # another rho, or scalars replaced by hand, align afresh
        assert update_scalars(state, rho=1e-3) is not state
        assert update_scalars(replace(state, scalars=_state_for(
            EX_MATRIX).scalars), rho=0.0) is not state
        assert len(left_ends) == 2


@dataclass
class _LinearDiagObjective:
    """Objective linear in the diagonal; positive slope everywhere."""

    slope: np.ndarray

    def at(self, m):
        return m

    def ray(self, m, direction, col=None):
        assert col is None  # only diagonal steps use this objective
        return lambda gamma: m.with_diagonal(np.diag(m.entries)
                                             + gamma * direction)

    def value(self, m):
        return float(self.slope @ np.diag(m.entries))

    def grad_diag(self, m):
        return self.slope.copy()

    def grad_offdiag_col(self, m, col):
        return np.zeros(m.dim - 1)


class TestDiagonalStep:
    def test_stationary_at_lower_bounds(self):
        # positive gradient, diagonals on their bounds: no movement
        cfg = OptimizerConfig(trace_cap=3.0, epsilon=0.1, rho=1e-3).resolve(3)
        state = update_scalars(initial_state(
            _random_ctx(np.random.default_rng(1), 6, 3), cfg), rho=cfg.rho)
        lb = scaled_radii(state.metric.matrix, state.scalars) + cfg.rho
        pinned = state.metric.matrix.with_diagonal(lb)
        pinned_state = update_scalars(_state_for(pinned), rho=cfg.rho)
        obj = _LinearDiagObjective(slope=np.array([1.0, 2.0, 3.0]))
        ctx = _random_ctx(np.random.default_rng(2), 5, 3)
        out = diagonal_step(pinned_state, ctx, cfg, objective=obj)
        assert np.allclose(out.metric.matrix.diagonal(),
                           pinned_state.metric.matrix.diagonal(), atol=1e-12)

    def test_matches_grid_search_k3(self):
        rng = np.random.default_rng(3)
        ctx = _random_ctx(rng, 8, 3)
        base = SymmetricMatrix([[0.1, -0.03, 0.0],
                                [-0.03, 0.1, -0.03],
                                [0.0, -0.03, 0.1]])
        state = update_scalars(_state_for(base), rho=1e-4)
        lb = scaled_radii(base, state.scalars) + 1e-4
        cap = float(np.sum(lb)) + 0.2
        assert base.trace() <= cap
        cfg = OptimizerConfig(trace_cap=cap, rho=1e-4, epsilon=0.03,
                              fw_max_iters=3000, obj_rel_tol=1e-12).resolve(3)
        out = diagonal_step(state, ctx, cfg)
        grid_best = grid_search_diag(ctx, base, lb, cap, step=1e-3)
        assert np.max(np.abs(out.metric.matrix.diagonal() - grid_best)) <= 5e-3

    def test_step_respects_trace_and_margins(self):
        rng = np.random.default_rng(4)
        ctx = _random_ctx(rng, 10, 4)
        cfg = OptimizerConfig().resolve(4)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        out = diagonal_step(state, ctx, cfg)
        assert out.metric.matrix.trace() <= cfg.trace_cap + 1e-9
        ends = scaled_left_ends(out.metric.matrix, state.scalars)
        assert float(np.min(ends)) >= cfg.rho - 1e-9

    def test_infeasible_cap_raises(self):
        rng = np.random.default_rng(5)
        ctx = _random_ctx(rng, 6, 3)
        cfg = OptimizerConfig().resolve(3)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        tiny_cap = OptimizerConfig(trace_cap=1e-6, rho=1e-9,
                                   epsilon=1e-8).resolve(3)
        with pytest.raises(SubproblemInfeasibleError):
            diagonal_step(state, ctx, tiny_cap)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(6)
        ctx = _random_ctx(rng, 12, 4)
        cfg = OptimizerConfig().resolve(4)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        out = diagonal_step(state, ctx, cfg)
        assert out.objective_trace[-1] <= out.objective_trace[-2] + 1e-10


class TestOffdiagStep:
    def test_k2_matches_golden_section(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(8, 2)) @ np.array([[1.0, 0.6], [0.6, 1.0]])
        z = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        ctx = ObjectiveContext(features=feats, labels=z)
        cfg = OptimizerConfig(trace_cap=2.0, rho=1e-4, epsilon=1e-3,
                              fw_max_iters=500, obj_rel_tol=1e-13).resolve(2)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        out = offdiag_step(state, ctx, cfg, 0)
        x_fw = out.metric.matrix.entries[1, 0]

        matrix = state.metric.matrix
        s = state.scalars.values
        left = scaled_left_ends(matrix, state.scalars)
        u = abs(matrix.entries[1, 0]) + s[0] * (left[1] - cfg.rho) / s[1]
        u = min(u, s[1] * (matrix.entries[0, 0] - cfg.rho) / s[0])
        obj = GLRObjective(ctx)

        def q_of(x):
            return obj.value(matrix.with_offdiag_column(0, np.array([x])))

        x_oracle = golden_section(q_of, -u, -cfg.epsilon, tol=1e-12)
        assert x_fw == pytest.approx(x_oracle, abs=1e-6)

    def test_stationary_when_already_optimal(self):
        rng = np.random.default_rng(8)
        ctx = _random_ctx(rng, 10, 3)
        cfg = OptimizerConfig(fw_max_iters=500, obj_rel_tol=1e-12).resolve(3)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        once = offdiag_step(state, ctx, cfg, 1)
        refreshed = update_scalars(once, rho=cfg.rho)
        twice = offdiag_step(refreshed, ctx, cfg, 1)
        assert np.max(np.abs(twice.metric.matrix.entries
                             - once.metric.matrix.entries)) <= 1e-6

    def test_invariants_after_step(self):
        rng = np.random.default_rng(9)
        ctx = _random_ctx(rng, 12, 4)
        cfg = OptimizerConfig().resolve(4)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        for col in range(4):
            state = update_scalars(state, rho=cfg.rho)
            prev_col = state.metric.matrix.entries[:, col].copy()
            state = offdiag_step(state, ctx, cfg, col)
            m = state.metric.matrix
            assert is_connected(m)
            off = m.entries.copy()
            np.fill_diagonal(off, 0.0)
            assert np.all(off <= 0.0)
            lam = smallest_eigenpair_dense(m).value
            assert lam >= cfg.rho - 1e-9
            rows = [r for r in range(4) if r != col]
            zeta = rows[int(np.argmax(np.abs(prev_col[rows])))]
            assert m.entries[zeta, col] <= -cfg.epsilon + 1e-12


class TestMaxSpanningTree:
    """The key-array Prim picks the same tree as a full cut-matrix search."""

    @staticmethod
    def _tied_matrix(rng, k, eps):
        # few distinct magnitudes, so many edges tie exactly; zeros and -eps
        # entries sit on either side of the usual floor
        levels = np.concatenate([[0.0, eps], rng.uniform(eps, 1.0, 3)])
        upper = -rng.choice(levels, size=(k, k))
        a = np.triu(upper, 1)
        a = a + a.T
        np.fill_diagonal(a, float(k))
        return SymmetricMatrix(a), levels

    @pytest.mark.parametrize("k", [3, 4, 13, 48])
    def test_matches_cut_matrix_prim_on_ties(self, k):
        rng = np.random.default_rng(k)
        eps = 1e-3
        nones = 0
        for _ in range(120 if k < 48 else 40):
            matrix, levels = self._tied_matrix(rng, k, eps)
            # floors at entry values keep exactly-equal edges
            for floor in (eps, float(rng.choice(levels[1:])), 1e-12):
                expected = max_spanning_tree(matrix, floor)
                assert _max_spanning_tree(matrix, floor) == expected
                nones += expected is None
        assert nones > 0 or k == 48


class TestColumnTreeEdges:
    def test_matches_tuple_scan(self):
        rng = np.random.default_rng(17)
        for k in (2, 3, 4, 13, 48):
            for _ in range(20):
                # random spanning tree: each node joins an earlier one
                labels = rng.permutation(k)
                tree = tuple(sorted(
                    (min(labels[v], labels[u]), max(labels[v], labels[u]))
                    for v in range(1, k)
                    for u in [int(rng.integers(v))]))
                for col in range(k):
                    assert (sorted(_column_tree_edges(tree, col))
                            == sorted(column_tree_edges_by_scan(tree, col, k)))


class TestTreeSurvives:
    """Shrinking non-tree entries of one column keeps Prim's tree."""

    @pytest.mark.parametrize("k", [3, 4, 13, 48])
    def test_shrink_only_edits_keep_prims_tree(self, k):
        rng = np.random.default_rng(100 + k)
        eps = 1e-3
        trials = 0
        for _ in range(300 if k < 48 else 60):
            matrix, levels = TestMaxSpanningTree._tied_matrix(rng, k, eps)
            tree = _max_spanning_tree(matrix, eps)
            if tree is None:
                continue
            col = int(rng.integers(k))
            before = np.delete(matrix.entries[:, col], col)
            tree_local = _column_tree_edges(tree, col)
            after = before.copy()
            for idx in set(range(k - 1)) - set(tree_local):
                # shrink to a tied level (0, eps, ...) at or below |entry|
                lower = levels[levels <= -before[idx]]
                if rng.random() < 0.6:
                    after[idx] = -rng.choice(lower)
            current = matrix.with_offdiag_column(col, after)
            assert _tree_survives(tree, tree_local, before, after, current,
                                  eps)
            assert max_spanning_tree(current, eps) == tree
            assert _max_spanning_tree(current, eps) == tree
            trials += 1
        assert trials >= 40

    def test_rejects_other_edits(self):
        eps = 1e-3
        matrix = SymmetricMatrix([[3.0, -0.5, -0.2, 0.0],
                                  [-0.5, 3.0, -0.4, -eps],
                                  [-0.2, -0.4, 3.0, -0.3],
                                  [0.0, -eps, -0.3, 3.0]])
        tree = _max_spanning_tree(matrix, eps)
        assert tree == ((0, 1), (1, 2), (2, 3))
        col = 1
        before = np.delete(matrix.entries[:, col], col)  # rows 0, 2, 3

        def survives(after, tree=tree):
            current = matrix.with_offdiag_column(col, np.array(after))
            kept = _tree_survives(tree, _column_tree_edges(tree, col), before,
                                  np.array(after), current, eps)
            if kept:
                assert _max_spanning_tree(current, eps) == tree
            return kept

        assert survives([-0.5, -0.4, 0.0])
        # a non-tree entry that grows; a tree entry that shrinks, which here
        # lets edge (0, 2) replace (1, 2)
        assert not survives([-0.5, -0.4, -0.6])
        assert not survives([-0.5, -0.1, -eps])
        assert _max_spanning_tree(matrix.with_offdiag_column(
            col, np.array([-0.5, -0.1, -eps])), eps) != tree
        # a tree with an edge below the floor is not Prim's tree
        assert not survives([-0.5, -0.4, 0.0], tree=((0, 1), (0, 3), (1, 2)))
        assert not _tree_survives((), [], before, before, matrix, eps)


class TestCertifyMatrix:
    def test_dense_backstop_certifies_any_size(self, monkeypatch):
        def no_convergence(matrix, warm_start=None, **kwargs):
            pair = eigen.EigenPair(value=0.0, vector=warm_start, residual=1.0)
            raise eigen.LobpcgNonConvergence(pair, 1)
        monkeypatch.setattr(eigen, "smallest_eigenpair_lobpcg", no_convergence)
        matrix = shifted_path_laplacian(600, 0.1)
        metric = optimizer._certify_matrix(matrix, np.ones(600))
        assert metric.matrix is matrix
        assert metric.certificate.lambda_min == pytest.approx(0.1, abs=1e-10)
        assert np.allclose(metric.certificate.eigvec, 600 ** -0.5, rtol=1e-6)


class TestUnchangedBlock:
    """A block step whose Frank-Wolfe gap is already 0 at the incumbent."""

    @staticmethod
    def _stationary():
        # equal labels: Q = 0 and every gradient vanishes
        ctx = ObjectiveContext(
            features=np.random.default_rng(3).normal(size=(6, 4)),
            labels=np.ones(6))
        cfg = OptimizerConfig().resolve(4)
        return ctx, cfg, update_scalars(initial_state(ctx, cfg), rho=cfg.rho)

    @pytest.mark.parametrize("block", ["diagonal", 0, 2])
    def test_keeps_matrix_and_certificate_without_solving(self, monkeypatch,
                                                          block):
        ctx, cfg, state = self._stationary()
        solves = count_eigensolves(monkeypatch)
        trees = []
        real = optimizer._max_spanning_tree
        monkeypatch.setattr(optimizer, "_max_spanning_tree",
                            lambda *a: trees.append(a) or real(*a))
        new = (diagonal_step(state, ctx, cfg) if block == "diagonal"
               else offdiag_step(state, ctx, cfg, block))
        assert solves == [] and trees == []
        assert new.metric is not state.metric
        assert new.metric.matrix is state.metric.matrix
        assert new.metric.certificate is state.metric.certificate
        assert new.protected_edges == state.protected_edges
        assert new.objective_trace == state.objective_trace + (0.0,)
        assert update_scalars(new, rho=cfg.rho) is new


class TestLearnMetric:
    def test_informative_feature_upweighted(self):
        rng = np.random.default_rng(10)
        ds = two_cluster_dataset(rng, n_per_class=20, num_features=2,
                                 separation=4.0)
        z = np.where(ds.labels == 0, 1.0, -1.0)
        ctx = ObjectiveContext(features=ds.features, labels=z)
        result = learn_metric(ctx)
        m = result.metric.matrix.entries
        assert m[0, 0] > m[1, 1]
        assert m[0, 0] > 10 * m[1, 1]  # noise feature pinned near its floor

    def test_final_diagonal_is_grid_optimal(self):
        # after convergence the diagonal should sit at the constrained
        # optimum for the final scalars, up to grid resolution
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(10, 3)) * np.array([1.0, 0.6, 1.4])
        z = rng.choice([-1.0, 1.0], size=10)
        z[:2] = [1.0, -1.0]
        ctx = ObjectiveContext(features=feats, labels=z)
        cfg = OptimizerConfig(trace_cap=0.5, rho=1e-5, epsilon=1e-4,
                              fw_max_iters=2000, obj_rel_tol=1e-10)
        result = learn_metric(ctx, cfg)
        state = update_scalars(_state_for(result.metric.matrix), rho=1e-5)
        lb = scaled_radii(result.metric.matrix, state.scalars) + 1e-5
        grid_best = grid_search_diag(ctx, result.metric.matrix, lb, 0.5,
                                     step=1e-3)
        f = diag_objective_fn(ctx, result.metric.matrix)
        q_learned = f(result.metric.matrix.diagonal()[None, :])[0]
        q_grid = f(grid_best[None, :])[0]
        assert q_learned <= q_grid + 1e-6

    def test_equal_labels_terminate_at_start(self):
        rng = np.random.default_rng(12)
        ctx = ObjectiveContext(features=rng.normal(size=(8, 3)),
                               labels=np.ones(8))
        cfg = OptimizerConfig().resolve(3)
        result = learn_metric(ctx, cfg)
        assert result.outer_iterations == 1
        assert result.converged
        assert np.array_equal(result.metric.matrix.entries,
                              init_metric(cfg, 3).matrix.entries)
        assert all(v == 0.0 for v in result.objective_trace)

    def test_iris_monotone_and_fast(self):
        ds = load_csv("data/iris.csv", label_column="class")
        z = np.where(ds.labels == 0, 1.0, -1.0)
        feats = (ds.features - ds.features.mean(0)) / ds.features.std(0)
        ctx = ObjectiveContext(features=feats, labels=z)
        start = time.perf_counter()
        result = learn_metric(ctx)
        assert time.perf_counter() - start < 60.0
        tr = result.objective_trace
        assert all(tr[i + 1] <= tr[i] + 1e-10 for i in range(len(tr) - 1))

    def test_observer_event_stream(self):
        rng = np.random.default_rng(13)
        ctx = _random_ctx(rng, 8, 3)
        events = []
        learn_metric(ctx, observer=lambda ev, st: events.append(ev))
        assert events[0] == "init"
        assert "scalars" in events and "diagonal" in events
        assert "offdiag" in events and "outer" in events

    def test_never_returns_uncertified(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            ctx = _random_ctx(rng, int(rng.integers(6, 16)),
                              int(rng.integers(2, 6)))
            result = learn_metric(ctx)
            g = result.metric
            resid = np.linalg.norm(
                g.matrix.entries @ g.certificate.eigvec
                - g.certificate.lambda_min * g.certificate.eigvec)
            assert resid <= 1e-8 * max(1.0, abs(g.certificate.lambda_min)) + 1e-10
            assert validate_graph_metric(g.matrix) is not None


class TestPairDistancePath:
    """Block steps on cached pair distances match the matrix-rebuild path."""

    @pytest.mark.parametrize("seed,n,k", [(20, 10, 3), (21, 14, 4),
                                          (22, 18, 6)])
    def test_steps_match_reference_objective(self, seed, n, k):
        ctx = _random_ctx(np.random.default_rng(seed), n, k)
        ref = MatrixObjective(ctx)
        cfg = OptimizerConfig().resolve(k)
        state = update_scalars(initial_state(ctx, cfg), rho=cfg.rho)
        for outer in range(2):
            fast = diagonal_step(state, ctx, cfg)
            slow = diagonal_step(state, ctx, cfg, objective=ref)
            self._assert_same(fast, slow)
            state = fast
            for col in range(k):
                state = update_scalars(state, rho=cfg.rho)
                fast = offdiag_step(state, ctx, cfg, col)
                slow = offdiag_step(state, ctx, cfg, col, objective=ref)
                self._assert_same(fast, slow)
                state = fast

    @staticmethod
    def _assert_same(fast, slow):
        diff = np.max(np.abs(fast.metric.matrix.entries
                             - slow.metric.matrix.entries))
        assert diff <= 1e-10
        assert fast.objective_trace[-1] == pytest.approx(
            slow.objective_trace[-1], rel=1e-12)


def _blob_ctx(seed, k=9, per_class=8):
    """Standardized 3-class Gaussian blobs, class 0 against the rest."""
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(3), per_class)
    centers = rng.normal(0.0, 0.5, (3, k))
    x = centers[y] + rng.normal(size=(y.size, k))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    return ObjectiveContext(features=x, labels=np.where(y == 0, 1.0, -1.0))


class TestLogging:
    LOGGER = "graphmetric.optimizer"

    def test_column_events_summarized_in_one_warning(self, caplog):
        # rho at 0.8 of trace_cap/K presses lambda_min onto the rho floor,
        # so some columns are skipped
        ctx = _blob_ctx(13)
        outcomes = []
        prev = []

        def observe(event, state):
            if event == "offdiag":
                before = prev[-1]
                outcomes.append("skipped" if state is before else
                                "stalled" if state.metric is before.metric
                                else "moved")
            prev.append(state)

        with caplog.at_level(logging.DEBUG, logger=self.LOGGER):
            result = learn_metric(ctx, OptimizerConfig(trace_cap=2.0,
                                                       rho=0.18),
                                  observer=observe)
        assert result.converged
        skipped, stalled = outcomes.count("skipped"), outcomes.count("stalled")
        # an unchanged column keeps its certificate yet counts as a step
        # that ran, not as stalled
        assert (skipped, stalled, len(outcomes)) == (5, 4, 27)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert warnings == [
            f"{skipped} of {len(outcomes)} off-diagonal column steps skipped "
            f"and {stalled} made no progress"]
        per_column = [r for r in caplog.records if r.levelno == logging.DEBUG
                      and r.getMessage().startswith("off-diagonal step")]
        assert len(per_column) == skipped + stalled

    def test_unconverged_stop_warns(self, caplog):
        ctx = _random_ctx(np.random.default_rng(13), 8, 3)
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            result = learn_metric(ctx, OptimizerConfig(outer_max_iters=1))
        assert not result.converged
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith(
            "stopped unconverged at outer_max_iters=1")

    def test_clean_converged_run_is_silent(self, caplog):
        ctx = _random_ctx(np.random.default_rng(1), 10, 3)
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            result = learn_metric(ctx)
        assert result.converged
        assert caplog.records == []
