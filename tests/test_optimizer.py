"""Tests for the alternating Frank-Wolfe metric learner."""

import functools
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from graphmetric.core import (GershgorinScalars, SymmetricMatrix,
                              is_connected, scaled_left_ends, scaled_radii,
                              validate_graph_metric)
from graphmetric.core import max_spanning_tree as prim_tree
from graphmetric.data import load_csv, standardize
from graphmetric import core, eigen, lp, objective
from graphmetric.eigen import smallest_eigenpair_dense
from graphmetric.experiment import stratified_folds
from graphmetric.objective import GLRObjective, ObjectiveContext
from graphmetric import optimizer
from graphmetric.optimizer import (ConfigError, OptimizerConfig,
                                   OptimizerState, SubproblemInfeasibleError,
                                   diagonal_step, init_metric, initial_state,
                                   learn_metric, offdiag_step, update_scalars,
                                   _column_tree_edges, _tree_survives)
from helpers import (MatrixObjective, ReferenceGLRObjective,
                     armijo_backtracking, column_tree_edges_by_scan,
                     count_eigensolves, diag_objective_fn, golden_section,
                     grid_search_diag, key_array_spanning_tree,
                     max_spanning_tree, mirrored_symmetric_init,
                     random_graph_metric, reference_conditioned_scalars,
                     reference_diagonal_lp, reference_knapsack_lp,
                     reference_lobpcg, shifted_path_laplacian,
                     two_cluster_dataset)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])


def _state_for(matrix: SymmetricMatrix) -> OptimizerState:
    """Optimizer state around an arbitrary graph metric with stale scalars."""
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["trace_cap", "rho", "epsilon",
                                       "obj_rel_tol"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            OptimizerConfig(**{field: value}).resolve(4)

    def test_numeric_strings_coerced_to_float(self):
        cfg = OptimizerConfig(trace_cap="4", obj_rel_tol="1e-6").resolve(4)
        assert (cfg.trace_cap, cfg.obj_rel_tol) == (4.0, 1e-6)
        assert type(cfg.obj_rel_tol) is float

    @pytest.mark.parametrize("field, value", [
        ("obj_rel_tol", None), ("obj_rel_tol", "tight"), ("rho", [1]),
        ("epsilon", "1e-3x"), ("trace_cap", 1j)])
    def test_non_numeric_values_raise_config_error(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            OptimizerConfig(**{field: value}).resolve(4)

    @pytest.mark.parametrize("eps", [1e-12, 1e-13])
    def test_epsilon_at_or_below_edge_floor_rejected(self, eps):
        with pytest.raises(ConfigError,
                           match=r"epsilon=.* above the 1e-12 edge floor"):
            OptimizerConfig(epsilon=eps).resolve(4)

    def test_default_epsilon_below_edge_floor_rejected(self):
        # epsilon = 1e-3 * C / K = 2.1e-14 at this trace cap
        with pytest.raises(ConfigError, match="edge floor"):
            OptimizerConfig(trace_cap=1e-9).resolve(48)

    def test_epsilon_just_above_edge_floor_accepted(self):
        eps = math.nextafter(1e-12, math.inf)
        assert OptimizerConfig(epsilon=eps).resolve(4).epsilon == eps

    def test_construction_checks_dimension_free_invariants(self):
        with pytest.raises(ConfigError, match="rho must be positive"):
            OptimizerConfig(rho=-1.0)
        with pytest.raises(ConfigError, match="iteration counts must be >= 1"):
            OptimizerConfig(fw_max_iters=0)

    def test_resolve_returns_a_filled_config_as_is(self):
        cfg = OptimizerConfig().resolve(4)
        assert cfg.resolve(4) is cfg
        with pytest.raises(ConfigError, match="trace_cap/K"):
            cfg.resolve(100_000)  # rho 1e-4 >= trace_cap / K = 4e-5


class TestStepsValidateConfig:
    """Both block steps check a filled config before they use it."""

    BAD = {"rho-negative": dict(rho=-1.0),
           "trace-cap-nan": dict(trace_cap=math.nan),
           "epsilon-negative": dict(epsilon=-1.0),
           "fw-max-iters-zero": dict(fw_max_iters=0),
           "rho-above-trace-cap-over-k": dict(rho=1.5),
           "epsilon-at-edge-floor": dict(epsilon=1e-12)}

    @pytest.mark.parametrize("step", ["diagonal", "offdiag"])
    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_step_raises_config_error(self, step, bad):
        rng = np.random.default_rng(4)
        ctx = _random_ctx(rng, 10, 3)
        cfg = OptimizerConfig().resolve(3)
        state = initial_state(ctx, cfg)
        with pytest.raises(ConfigError):
            if step == "diagonal":
                diagonal_step(state, ctx, replace(cfg, **bad))
            else:
                offdiag_step(state, ctx, replace(cfg, **bad), 1)


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


class TestStepSize:
    """The search from any start exponent accepts backtracking's step."""

    @staticmethod
    def _ray(w, delta, rate):
        """phi(gamma) = sum w exp(-(delta + gamma rate)) and its phi'(0).

        A term that overflows reads inf, which no Armijo test accepts.
        Values are memoized: the 40 searches of one ray share their trials.
        """
        @functools.cache
        def phi(gamma):
            with np.errstate(over="ignore"):
                return float(np.sum(w * np.exp(-(delta + gamma * rate))))
        return phi, float(-np.sum(w * rate * np.exp(-delta)))

    @staticmethod
    def _assert_matches_backtracking(phi, slope):
        phi0 = phi(0.0)
        expected = armijo_backtracking(phi0, slope, phi)
        for j0 in range(40):
            # the point of a trial is its step, so the accepted point is
            # the accepted gamma
            gamma, point, value, j = optimizer._step_size(
                phi0, slope, lambda t: t, phi, j0)
            assert (gamma, value) == expected
            assert point == (None if gamma == 0.0 else gamma)
            assert gamma == 0.0 or gamma == 2.0 ** -j
        return expected

    def test_exponent_range_matches_min_step(self):
        assert optimizer._MAX_HALVINGS == 39
        assert 2.0 ** -39 >= optimizer._MIN_STEP > 2.0 ** -40

    def test_random_rays_match_backtracking(self):
        rng = np.random.default_rng(31)
        accepted = set()
        for _ in range(1500):
            p = int(rng.integers(1, 30))
            w = rng.uniform(0.0, 1.0, p)
            delta = rng.uniform(-1.0, 3.0, p)
            rate = 10.0 ** rng.uniform(-2.0, 6.0) * rng.normal(size=p)
            phi, slope = self._ray(w, delta, rate)
            if slope > 0.0:
                phi, slope = self._ray(w, delta, -rate)
            gamma, _ = self._assert_matches_backtracking(phi, slope)
            accepted.add(gamma)
        # the draws reach full steps and steps many halvings down
        assert 1.0 in accepted and min(accepted - {0.0}) <= 2.0 ** -20
        assert len(accepted) >= 15

    def test_no_acceptable_step(self):
        # slope -1 against curvature 2e14: no gamma >= 2**-39 passes
        phi, slope = self._ray(np.ones(2), np.zeros(2),
                               np.array([1e7 + 1.0, -1e7]))
        assert slope == -1.0
        assert self._assert_matches_backtracking(phi, slope) == (0.0, 2.0)

    def test_round_off_rejection_below_a_passing_step(self):
        # a linear decrease that the smallest steps round up to 1 ulp above
        # phi0: starts at those exponents fail upward, yet gamma = 1 passes
        def phi(gamma):
            return (1.0 - 0.5 * gamma if gamma == 0.0 or gamma >= 2.0 ** -30
                    else math.nextafter(1.0, 2.0))
        assert self._assert_matches_backtracking(phi, -0.5) == (1.0, 0.5)

    def test_full_step_accepted(self):
        phi, slope = self._ray(np.ones(1), np.zeros(1), np.ones(1))
        assert self._assert_matches_backtracking(phi, slope) == (
            1.0, math.exp(-1.0))


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
                assert prim_tree(matrix, floor) == expected
                nones += expected is None
        assert nones > 0 or k == 48

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 13, 48])
    def test_edge_list_matches_key_array_prim(self, k):
        # magnitudes 0 (either sign), eps and a few tied levels; floors at
        # eps, exactly at a level, and at the connectivity floor; then the
        # same entries split into two blocks, which no tree spans
        rng = np.random.default_rng(200 + k)
        eps = 1e-3
        for _ in range(60 if k < 48 else 20):
            levels = np.concatenate([[0.0, -0.0, eps],
                                     rng.uniform(eps, 1.0, 3)])
            a = np.triu(-rng.choice(levels, size=(k, k)), 1)
            a = a + a.T
            np.fill_diagonal(a, float(k))
            half = k // 2
            split = a.copy()
            split[:half, half:] = split[half:, :half] = -0.0
            for entries in (a, split):
                matrix = SymmetricMatrix(entries)
                for floor in (eps, float(rng.choice(levels[2:])), 1e-12):
                    expected = key_array_spanning_tree(matrix, floor)
                    assert prim_tree(matrix, floor) == expected
                    assert max_spanning_tree(matrix, floor) == expected
                    if entries is split and k > 1:
                        assert expected is None


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
            tree = prim_tree(matrix, eps)
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
            assert prim_tree(current, eps) == tree
            trials += 1
        assert trials >= 40

    def test_rejects_other_edits(self):
        eps = 1e-3
        matrix = SymmetricMatrix([[3.0, -0.5, -0.2, 0.0],
                                  [-0.5, 3.0, -0.4, -eps],
                                  [-0.2, -0.4, 3.0, -0.3],
                                  [0.0, -eps, -0.3, 3.0]])
        tree = prim_tree(matrix, eps)
        assert tree == ((0, 1), (1, 2), (2, 3))
        col = 1
        before = np.delete(matrix.entries[:, col], col)  # rows 0, 2, 3

        def survives(after, tree=tree):
            current = matrix.with_offdiag_column(col, np.array(after))
            kept = _tree_survives(tree, _column_tree_edges(tree, col), before,
                                  np.array(after), current, eps)
            if kept:
                assert prim_tree(current, eps) == tree
            return kept

        assert survives([-0.5, -0.4, 0.0])
        # a non-tree entry that grows; a tree entry that shrinks, which here
        # lets edge (0, 2) replace (1, 2)
        assert not survives([-0.5, -0.4, -0.6])
        assert not survives([-0.5, -0.1, -eps])
        assert prim_tree(matrix.with_offdiag_column(
            col, np.array([-0.5, -0.1, -eps])), eps) != tree
        # a tree with an edge below the floor is not Prim's tree
        assert not survives([-0.5, -0.4, 0.0], tree=((0, 1), (0, 3), (1, 2)))
        assert not _tree_survives((), [], before, before, matrix, eps)


class TestCertifyMatrix:
    @staticmethod
    def _iterate(k):
        """A random graph metric and a warm vector near its eigenvector."""
        rng = np.random.default_rng(k)
        g = random_graph_metric(rng, k)
        warm = g.certificate.eigvec + 1e-3 * rng.random(k)
        return g, warm

    @pytest.mark.parametrize("k", [4, 13, 16])
    def test_small_k_is_one_dense_solve(self, monkeypatch, k):
        g, warm = self._iterate(k)
        solves = count_eigensolves(monkeypatch)
        metric, _ = optimizer._certify_matrix(g.matrix, warm, 0.0)
        assert solves == ["smallest_eigenpair_dense"]
        assert metric.certificate.lambda_min == pytest.approx(
            g.certificate.lambda_min, rel=1e-10)

    @pytest.mark.parametrize("k", [17, 48])
    def test_large_k_starts_with_warm_lobpcg(self, monkeypatch, k):
        g, warm = self._iterate(k)
        solves = count_eigensolves(monkeypatch)
        metric, _ = optimizer._certify_matrix(g.matrix, warm, 0.0)
        assert solves[0] == "smallest_eigenpair_lobpcg"
        assert metric.certificate.lambda_min == pytest.approx(
            g.certificate.lambda_min, rel=1e-8)

    @staticmethod
    def _negative_dense(monkeypatch):
        """Make the dense solver return a vector too negative to clamp."""
        real = eigen.smallest_eigenpair_dense

        def negative(matrix):
            pair = real(matrix)
            v = pair.vector.copy()
            v[-1] = -eigen.NEGATIVE_GRACE
            return replace(pair, vector=v)
        monkeypatch.setattr(eigen, "smallest_eigenpair_dense", negative)

    def test_small_k_falls_back_to_warm_lobpcg(self, monkeypatch):
        g, warm = self._iterate(4)
        self._negative_dense(monkeypatch)
        solves = count_eigensolves(monkeypatch)
        metric, _ = optimizer._certify_matrix(g.matrix, warm, 0.0)
        assert solves == ["smallest_eigenpair_dense",
                          "smallest_eigenpair_lobpcg"]
        assert metric.matrix is g.matrix
        assert np.all(metric.certificate.eigvec > 0)
        assert metric.certificate.lambda_min == pytest.approx(
            g.certificate.lambda_min, rel=1e-8)

    @pytest.mark.parametrize("k", [4, 48])
    def test_both_solvers_failing_raises(self, monkeypatch, k):
        def no_convergence(matrix, warm_start=None, **kwargs):
            pair = eigen.EigenPair(value=0.0, vector=warm_start, residual=1.0)
            raise eigen.LobpcgNonConvergence(pair, 1)
        g, warm = self._iterate(k)
        self._negative_dense(monkeypatch)
        monkeypatch.setattr(eigen, "smallest_eigenpair_lobpcg", no_convergence)
        solves = count_eigensolves(monkeypatch)
        with pytest.raises(optimizer.CertificationError):
            optimizer._certify_matrix(g.matrix, warm, 0.0)
        order = ["smallest_eigenpair_dense", "smallest_eigenpair_lobpcg"]
        assert solves == (order if k <= 16 else order[::-1])

    @pytest.mark.parametrize("k", [4, 48])
    @pytest.mark.parametrize("field", ["value", "vector"])
    def test_nan_eigenpair_does_not_certify(self, monkeypatch, k, field):
        def nan_pair(solver):
            def solve(matrix, *args, **kwargs):
                pair = solver(matrix, *args, **kwargs)
                nan = (math.nan if field == "value"
                       else np.full(matrix.dim, math.nan))
                return replace(pair, **{field: nan})
            return solve
        g, warm = self._iterate(k)
        for name in ("smallest_eigenpair_dense", "smallest_eigenpair_lobpcg"):
            monkeypatch.setattr(eigen, name, nan_pair(getattr(eigen, name)))
        with pytest.raises(optimizer.CertificationError):
            optimizer._certify_matrix(g.matrix, warm, 0.0)

    def test_wine_learn_certifies_every_step_densely(self, monkeypatch):
        ds = load_csv("data/wine.csv", label_column="class")
        feats, _, _ = standardize(ds.features, ds.features)
        ctx = ObjectiveContext(features=feats,
                               labels=np.where(ds.labels == 0, 1.0, -1.0))
        assert ctx.num_features == 13
        checked = []
        previous = None

        def observe(event, state):
            nonlocal previous
            cert = state.metric.certificate
            if (event in ("diagonal", "offdiag")
                    and cert is not previous.metric.certificate):
                m = state.metric.matrix
                exact = float(np.linalg.eigvalsh(m.entries)[0])
                checked.append(abs(cert.lambda_min - exact)
                               <= 1e-12 * m.trace())
            previous = state

        solves = count_eigensolves(monkeypatch)
        learn_metric(ctx, observer=observe)
        assert "smallest_eigenpair_lobpcg" not in solves
        assert len(checked) > 0 and all(checked)

    @staticmethod
    def _unverifiable(monkeypatch, name):
        """Make solver ``name`` return its pair with v_0 cut to 1e-13 max(v).

        The vector still clamps, but row 0's scaled radius is then about
        1e6 times too large, so no scalars built from it verify.
        """
        real = getattr(eigen, name)

        def shrunk(matrix, *args, **kwargs):
            pair = real(matrix, *args, **kwargs)
            v = pair.vector.copy()
            v[0] = 1e-13 * np.max(v)
            return replace(pair, vector=v)
        monkeypatch.setattr(eigen, name, shrunk)

    def test_unverified_lobpcg_pair_gives_way_to_dense(self, monkeypatch):
        g, warm = self._iterate(48)
        self._unverifiable(monkeypatch, "smallest_eigenpair_lobpcg")
        solves = count_eigensolves(monkeypatch)
        metric, scalars = optimizer._certify_matrix(g.matrix, warm, 0.0)
        assert solves == ["smallest_eigenpair_lobpcg",
                          "smallest_eigenpair_dense"]
        dense = smallest_eigenpair_dense(g.matrix)
        assert metric.certificate.lambda_min == dense.value
        assert np.array_equal(metric.certificate.eigvec,
                              eigen.clamp_positive(dense.vector))
        expected = optimizer._conditioned_scalars(metric, 0.0, floored=False)
        assert np.array_equal(scalars.values, expected.values)

    @pytest.mark.parametrize("k", [4, 48])
    def test_unverified_dense_pair_is_not_solved_again(self, monkeypatch, k):
        g, warm = self._iterate(k)
        for name in ("smallest_eigenpair_dense", "smallest_eigenpair_lobpcg"):
            self._unverifiable(monkeypatch, name)
        solves = count_eigensolves(monkeypatch)
        metric, scalars = optimizer._certify_matrix(g.matrix, warm, 0.0)
        assert solves == (["smallest_eigenpair_dense"] if k <= 16 else
                          ["smallest_eigenpair_lobpcg",
                           "smallest_eigenpair_dense"])
        assert metric.certificate.lambda_min == smallest_eigenpair_dense(
            g.matrix).value
        assert optimizer._conditioned_scalars(metric, 0.0,
                                              floored=False) is None
        v = metric.certificate.eigvec
        floored = np.maximum(v, optimizer._SCALAR_FLOOR * np.max(v))
        assert np.array_equal(scalars.values, 1.0 / floored)

    @pytest.mark.parametrize("excess, raises", [(0.9e-9, False),
                                                (1.1e-9, True)])
    def test_floored_scalars_need_lambda_min_at_rho(self, monkeypatch,
                                                    excess, raises):
        g, warm = self._iterate(48)
        for name in ("smallest_eigenpair_dense", "smallest_eigenpair_lobpcg"):
            self._unverifiable(monkeypatch, name)
        rho = g.certificate.lambda_min + excess
        if raises:
            with pytest.raises(optimizer.CertificationError,
                               match="left the feasible region"):
                optimizer._certify_matrix(g.matrix, warm, rho)
        else:
            metric, _ = optimizer._certify_matrix(g.matrix, warm, rho)
            assert metric.certificate.lambda_min >= rho - 1e-9

    def test_dense_backstop_certifies_any_size(self, monkeypatch):
        def no_convergence(matrix, warm_start=None, **kwargs):
            pair = eigen.EigenPair(value=0.0, vector=warm_start, residual=1.0)
            raise eigen.LobpcgNonConvergence(pair, 1)
        monkeypatch.setattr(eigen, "smallest_eigenpair_lobpcg", no_convergence)
        matrix = shifted_path_laplacian(600, 0.1)
        metric, _ = optimizer._certify_matrix(matrix, np.ones(600), 0.0)
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
        real = optimizer.max_spanning_tree
        monkeypatch.setattr(optimizer, "max_spanning_tree",
                            lambda *a: trees.append(a) or real(*a))
        new = (diagonal_step(state, ctx, cfg) if block == "diagonal"
               else offdiag_step(state, ctx, cfg, block))
        assert solves == [] and trees == []
        assert new.metric is not state.metric
        assert new.metric.matrix is state.metric.matrix
        assert new.metric.certificate is state.metric.certificate
        assert new.protected_edges == state.protected_edges
        assert new.objective_trace == state.objective_trace + (0.0,)
        assert new.scalars is state.scalars


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
        result = learn_metric(ctx, observer=lambda ev, st: events.append(ev))
        assert events == ["init"] + result.outer_iterations * (
            ["diagonal"] + 3 * ["offdiag"] + ["outer"])

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


def _cv_fold_ctx(name="iris", seed=0, fold=0):
    """One learn of a dataset's CV protocol: class 0 of one CV seed's fold."""
    ds = load_csv(f"data/{name}.csv", label_column="class")
    test = stratified_folds(ds.labels, 2, np.random.default_rng(seed))[fold]
    train = np.setdiff1d(np.arange(ds.num_samples), test)
    x_train, _, _ = standardize(ds.features[train], ds.features[test])
    z = np.where(ds.labels[train] == 0, 1.0, -1.0)
    return ObjectiveContext(features=x_train, labels=z)


def _cold_step_size(phi0, slope, move, value, j0):
    """``_step_size`` as backtracking from gamma = 1; the accepted point
    is rebuilt."""
    gamma, phi = armijo_backtracking(phi0, slope, lambda t: value(move(t)))
    return gamma, move(gamma) if gamma else None, phi, j0


class TestWarmStartedLineSearch:
    """Learns equal cold backtracking's, with fewer evaluations."""

    @staticmethod
    def _learn(monkeypatch, ctx, cold):
        calls = []
        real = objective.glr_value
        with monkeypatch.context() as patch:
            patch.setattr(objective, "glr_value",
                          lambda *a: calls.append(1) or real(*a))
            if cold:
                patch.setattr(optimizer, "_step_size", _cold_step_size)
            result = learn_metric(ctx)
        return result, len(calls)

    @pytest.mark.parametrize("name", ["iris", "blobs"])
    def test_same_learn_at_most_half_the_evaluations(self, monkeypatch,
                                                      name):
        ctx = _cv_fold_ctx() if name == "iris" else _blob_ctx(0)
        warm, warm_calls = self._learn(monkeypatch, ctx, cold=False)
        cold, cold_calls = self._learn(monkeypatch, ctx, cold=True)
        assert np.array_equal(warm.metric.matrix.entries,
                              cold.metric.matrix.entries)
        assert warm.objective_trace == cold.objective_trace
        assert warm.outer_iterations == cold.outer_iterations
        assert warm.converged == cold.converged
        assert warm_calls <= cold_calls / 2


class TestReferenceKernels:
    """A learn through the production kernels gives the same bits as one
    through their plain formulas (tests/helpers.py): pair terms computed
    afresh, a fresh column block per call, the numpy-scalar LP greedy,
    LOBPCG with np.linalg.norm and an eigvalsh basis test, the key-array
    Prim, the triu mirror for every matrix and a fresh scaled_left_ends
    for every rung of the scalar ladder."""

    CASES = {
        "iris K=4": lambda: (_cv_fold_ctx(), OptimizerConfig()),
        "wine K=13": lambda: (_cv_fold_ctx("wine"), OptimizerConfig()),
        # K > 16: disc-certified column steps, warm LOBPCG re-alignment
        "blobs K=20": lambda: (_blob_ctx(0, k=20),
                               OptimizerConfig(trace_cap=2.0)),
        # the benchmark's dimension, where Prim and the ladder run often
        "blobs K=48": lambda: (_blob_ctx(0, k=48),
                               OptimizerConfig(trace_cap=2.0)),
    }

    @staticmethod
    def _learn(patch, ctx, cfg):
        solves = count_eigensolves(patch)
        return learn_metric(ctx, cfg), solves

    @pytest.mark.parametrize("name", list(CASES))
    def test_learn_is_bit_identical(self, monkeypatch, name):
        ctx, cfg = self.CASES[name]()
        with monkeypatch.context() as patch:
            fast, fast_solves = self._learn(patch, ctx, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "GLRObjective", ReferenceGLRObjective)
            patch.setattr(lp, "solve_diagonal_lp", reference_diagonal_lp)
            patch.setattr(lp, "solve_box_knapsack_lp", reference_knapsack_lp)
            patch.setattr(eigen, "smallest_eigenpair_lobpcg", reference_lobpcg)
            patch.setattr(core, "max_spanning_tree", key_array_spanning_tree)
            patch.setattr(optimizer, "max_spanning_tree",
                          key_array_spanning_tree)
            patch.setattr(SymmetricMatrix, "__post_init__",
                          mirrored_symmetric_init)
            patch.setattr(optimizer, "_conditioned_scalars",
                          reference_conditioned_scalars)
            slow, slow_solves = self._learn(patch, ctx, cfg)
        assert fast.metric.matrix.entries.tobytes() == \
            slow.metric.matrix.entries.tobytes()
        assert np.array(fast.objective_trace).tobytes() == \
            np.array(slow.objective_trace).tobytes()
        assert fast.outer_iterations == slow.outer_iterations
        assert fast.converged == slow.converged
        assert fast_solves == slow_solves
        if name.startswith("blobs"):
            assert "smallest_eigenpair_lobpcg" in fast_solves


class TestTracerContract:
    """The per-call invariants that bench/tracer.py counts by: one LP
    vertex per Frank-Wolfe gradient, and one SymmetricMatrix construction
    for M^0 and for each iterate that changes the matrix."""

    def test_one_call_per_event_in_a_k48_learn(self, monkeypatch):
        counts = dict.fromkeys(("glr_grad_diag", "glr_grad_offdiag_col",
                                "solve_diagonal_lp", "solve_box_knapsack_lp",
                                "__post_init__"), 0)

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(objective, "glr_grad_diag")
        count(objective, "glr_grad_offdiag_col")
        count(lp, "solve_diagonal_lp")
        count(lp, "solve_box_knapsack_lp")
        count(SymmetricMatrix, "__post_init__")
        changed = 0
        last = None

        def observe(event, state):
            nonlocal changed, last
            if last is not None:
                changed += not np.array_equal(state.metric.matrix.entries,
                                              last.metric.matrix.entries)
            last = state

        learn_metric(_blob_ctx(0, k=48), OptimizerConfig(trace_cap=2.0),
                     observer=observe)
        assert min(counts.values()) > 0
        assert counts["solve_box_knapsack_lp"] == \
            counts["glr_grad_offdiag_col"]
        assert counts["solve_diagonal_lp"] == counts["glr_grad_diag"]
        assert counts["__post_init__"] == 1 + changed


def _overshooting_state():
    """M^0 at K = 3 with scalars (1, t, 1) whose scaled diagonal lower
    bounds overshoot the trace cap by 1e-4: inside the band where a
    diagonal step skips instead of raising."""
    ctx = _random_ctx(np.random.default_rng(3), 12, 3)
    cfg = OptimizerConfig().resolve(3)
    # the bounds sum to 2 eps (t + 1/t) + 3 rho
    half = (cfg.trace_cap + 1e-4 - 3 * cfg.rho) / (4 * cfg.epsilon)
    t = half + math.sqrt(half * half - 1.0)
    state = initial_state(ctx, cfg)
    scalars = GershgorinScalars(np.array([1.0, t, 1.0]))
    return ctx, cfg, replace(state, scalars=scalars)


class TestLogging:
    LOGGER = "graphmetric.optimizer"

    def test_diagonal_skip_logs_at_debug(self, caplog):
        ctx, cfg, state = _overshooting_state()
        lb = scaled_radii(state.metric.matrix, state.scalars) + cfg.rho
        assert float(np.sum(lb)) - cfg.trace_cap == pytest.approx(1e-4)
        with caplog.at_level(logging.DEBUG, logger=self.LOGGER):
            after = diagonal_step(state, ctx, cfg)
        assert after.metric is state.metric
        assert after.objective_trace == state.objective_trace * 2
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert caplog.records[0].getMessage().startswith(
            "diagonal step skipped")

    def test_diagonal_skips_summarized_in_one_warning(self, monkeypatch,
                                                      caplog):
        ctx, cfg, state = _overshooting_state()
        monkeypatch.setattr(optimizer, "initial_state",
                            lambda *args, **kwargs: state)
        events = []

        def observe(event, st):
            if event in ("diagonal", "offdiag"):
                before = events[-1][1] if events else state
                events.append((event, st,
                               "skipped" if st is before
                               else "kept" if st.metric is before.metric
                               else "ran"))

        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            result = learn_metric(ctx, cfg, observer=observe)
        assert result.converged
        diagonal = [o for e, _, o in events if e == "diagonal"]
        column = [o for e, _, o in events if e == "offdiag"]
        # a skipped diagonal step keeps the metric object
        assert diagonal.count("kept") >= 1
        assert [r.getMessage() for r in caplog.records] == [
            f"{diagonal.count('kept')} of {len(diagonal)} diagonal steps "
            f"skipped (scaled lower bounds over the trace cap); "
            f"{column.count('skipped')} of {len(column)} off-diagonal "
            f"column steps skipped and {column.count('kept')} made no "
            f"progress"]

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
        assert (skipped, stalled, len(outcomes)) == (4, 3, 27)
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


class TestAlignedIterates:
    """A step that changes the matrix certifies and aligns it in one go,
    or, for a column step above K = 16, keeps scalars its discs verify."""

    @pytest.mark.parametrize("name", list(TestReferenceKernels.CASES))
    def test_observed_states_carry_their_own_scalars(self, name):
        ctx, cfg = TestReferenceKernels.CASES[name]()
        rho = cfg.resolve(ctx.num_features).rho
        seen = []

        def observe(event, state):
            if state.metric.certificate.eigenpair:
                expected = optimizer._conditioned_scalars(state.metric, rho)
                ok = np.array_equal(state.scalars.values, expected.values)
            else:
                ok = event == "offdiag" and float(scaled_left_ends(
                    state.metric.matrix, state.scalars).min()) >= rho - 1e-9
            seen.append((event, ok))

        learn_metric(ctx, cfg, observer=observe)
        assert {event for event, _ in seen} == {"init", "diagonal",
                                                "offdiag", "outer"}
        assert all(ok for _, ok in seen)

    def test_unverified_iterate_is_solved_once(self, monkeypatch):
        # wine CV seed 2, fold 1, class 0: an iterate whose dense pair
        # gives scalars that cannot be verified at the rho margin
        ctx = _cv_fold_ctx("wine", seed=2, fold=1)
        rho = OptimizerConfig().resolve(ctx.num_features).rho
        changed = unverified = 0
        previous = None

        def observe(event, state):
            nonlocal changed, unverified, previous
            if event in ("diagonal", "offdiag"):
                changed += not np.array_equal(state.metric.matrix.entries,
                                              previous.metric.matrix.entries)
            unverified += optimizer._conditioned_scalars(
                state.metric, rho, floored=False) is None
            previous = state

        solves = count_eigensolves(monkeypatch)
        learn_metric(ctx, observer=observe)
        assert unverified > 0
        # M^0's validation, then one solve per step that changed the matrix
        assert solves == ["smallest_eigenpair_dense"] * (1 + changed)


@functools.cache
def _k48_learn_states():
    """Observed states of a learn on the benchmark's highdim recipe: blob
    seed 1, class 0 against the rest, trace cap 2."""
    ctx = _blob_ctx(1, k=48, per_class=10)
    cfg = OptimizerConfig(trace_cap=2.0)
    states = []
    learn_metric(ctx, cfg, observer=lambda event, st: states.append(
        (event, st)))
    return cfg.resolve(ctx.num_features).rho, states


class TestDiscCertifiedSteps:
    """Above K = 16 a column step is certified by its own scaled Gershgorin
    discs when it can be, and the learner re-aligns once per sweep."""

    def test_disc_certified_states_are_above_rho(self):
        rho, states = _k48_learn_states()
        discs = [st for _, st in states
                 if not st.metric.certificate.eigenpair]
        assert discs
        for st in discs:
            m = st.metric.matrix
            bound = float(scaled_left_ends(m, st.scalars).min())
            assert bound >= rho - 1e-9
            assert st.metric.certificate.lambda_min == bound
            assert float(np.linalg.eigvalsh(m.entries)[0]) >= rho - 1e-9

    def test_eigenpair_certificates_agree_with_eigvalsh_in_a_k48_learn(self):
        _, states = _k48_learn_states()
        certs = {id(st.metric.certificate): st.metric for _, st in states
                 if st.metric.certificate.eigenpair}
        assert certs
        for metric in certs.values():
            m = metric.matrix
            exact = float(np.linalg.eigvalsh(m.entries)[0])
            assert abs(metric.certificate.lambda_min - exact) \
                <= 1e-10 * m.trace()

    def test_sweeps_end_on_an_eigenpair_of_their_own_matrix(self):
        _, states = _k48_learn_states()
        ends = [st.metric for event, st in states if event == "outer"]
        assert len(ends) > 1
        for metric in ends:
            cert = metric.certificate
            a = metric.matrix.entries
            assert cert.eigenpair
            assert np.linalg.norm(a @ cert.eigvec - cert.lambda_min
                                  * cert.eigvec) <= 1e-9

    def test_failed_disc_check_is_certified_by_an_eigensolve(self,
                                                              monkeypatch):
        # a K = 20 graph metric with all-ones scalars, under which some
        # plain Gershgorin left-ends are negative: column 0's step moves
        # the matrix but cannot mend the other rows' discs
        rng = np.random.default_rng(1)
        g = random_graph_metric(rng, 20)
        ctx = ObjectiveContext(features=0.3 * rng.normal(size=(30, 20)),
                               labels=rng.choice([-1.0, 1.0], size=30))
        cfg = OptimizerConfig(trace_cap=g.matrix.trace()).resolve(20)
        state = OptimizerState(metric=g,
                               scalars=GershgorinScalars(np.ones(20)),
                               objective_trace=(0.0,))
        solves = count_eigensolves(monkeypatch)
        new = offdiag_step(state, ctx, cfg, 0)
        m = new.metric.matrix
        assert not np.array_equal(m.entries, g.matrix.entries)
        assert float(scaled_left_ends(m, state.scalars).min()) < cfg.rho - 1e-9
        assert solves[0] == "smallest_eigenpair_lobpcg"
        cert = new.metric.certificate
        assert cert.eigenpair
        assert cert.lambda_min == pytest.approx(
            float(np.linalg.eigvalsh(m.entries)[0]), rel=1e-10)
        expected = optimizer._conditioned_scalars(new.metric, cfg.rho)
        assert np.array_equal(new.scalars.values, expected.values)
        # the same step under aligned scalars passes the check and solves
        # nothing
        solves.clear()
        aligned = update_scalars(state, rho=cfg.rho)
        lazy = offdiag_step(aligned, ctx, cfg, 0)
        assert solves == []
        assert not np.array_equal(lazy.metric.matrix.entries,
                                  g.matrix.entries)
        assert not lazy.metric.certificate.eigenpair
        assert lazy.scalars is aligned.scalars

    @pytest.mark.parametrize("name", ["iris K=4", "wine K=13"])
    def test_small_k_states_carry_their_own_eigenpair(self, name):
        ctx, cfg = TestReferenceKernels.CASES[name]()
        states = []
        learn_metric(ctx, cfg, observer=lambda event, st: states.append(st))
        for st in states:
            cert = st.metric.certificate
            a = st.metric.matrix.entries
            assert cert.eigenpair
            assert abs(cert.lambda_min - float(np.linalg.eigvalsh(a)[0])) \
                <= 1e-10 * st.metric.matrix.trace()
            assert np.linalg.norm(a @ cert.eigvec - cert.lambda_min
                                  * cert.eigvec) <= 1e-9
