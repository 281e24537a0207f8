"""Tests for the alternating Frank-Wolfe metric learner."""

import functools
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from graphmetric.core import (FEAS_SLACK, Certificate, GershgorinPolytope,
                              GershgorinScalars, SymmetricMatrix,
                              is_connected, validate_graph_metric)
from graphmetric.core import max_spanning_tree as prim_tree
from graphmetric.data import load_csv, standardize
from graphmetric import core, eigen, lp, objective
from graphmetric.eigen import smallest_eigenpair_dense
from graphmetric.experiment import stratified_folds
from graphmetric.objective import (GLRObjective, ObjectiveContext,
                                   glr_value, pair_distances)
from graphmetric import optimizer
from graphmetric.optimizer import (ConfigError, OptimizerConfig,
                                   OptimizerState, SubproblemInfeasibleError,
                                   diagonal_step, init_metric, initial_state,
                                   learn_metric, offdiag_step, update_scalars,
                                   _column_tree_edges, _tree_survives)
from helpers import (FunctionRay, GLRAtMatrix, MatrixObjective,
                     ReferenceGLRObjective, armijo_backtracking,
                     column_tree_edges_by_scan, count_eigensolves,
                     diag_objective_fn, golden_section,
                     grid_search_diag, highdim_blobs,
                     key_array_spanning_tree,
                     max_spanning_tree, mirrored_symmetric_init,
                     random_graph_metric, reference_diagonal_lp,
                     reference_knapsack_lp, reference_lobpcg,
                     shifted_path_laplacian, two_cluster_dataset)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])


def _state_for(matrix: SymmetricMatrix, obj=None) -> OptimizerState:
    """Optimizer state around an arbitrary graph metric with stale scalars.

    Its point is ``obj``'s point of ``matrix``, which a block step run with
    ``obj`` needs; without ``obj`` the state is for scalar updates only.
    """
    g = validate_graph_metric(matrix)
    return OptimizerState(metric=g, scalars=GershgorinScalars(np.ones(g.dim)),
                          objective_trace=(0.0,),
                          point=None if obj is None else obj.at(matrix))


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

    def test_numpy_integer_counts_become_int(self):
        cfg = OptimizerConfig(fw_max_iters=np.int32(7),
                              outer_max_iters=np.int64(2))
        assert (type(cfg.fw_max_iters), type(cfg.outer_max_iters)) == \
            (int, int)
        assert (cfg.fw_max_iters, cfg.outer_max_iters) == (7, 2)

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

    @pytest.mark.parametrize("value", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    @pytest.mark.parametrize("field", ["trace_cap", "rho", "epsilon",
                                       "obj_rel_tol"])
    def test_booleans_are_not_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            OptimizerConfig(**{field: value})

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
        ends = GershgorinPolytope(EX_MATRIX, new.scalars).left_ends
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
    """The search from any start exponent, and from the start the ray's
    curvature picks, accepts backtracking's step."""

    @staticmethod
    def _ray(w, delta, rate):
        """phi(gamma) = sum w exp(-(delta + gamma rate)), phi'(0) and the
        ray gamma -> gamma whose slope is phi' and curvature phi''(0).

        A term that overflows reads inf, which no Armijo test accepts.
        Values are memoized: the searches of one ray share their trials.
        """
        @functools.cache
        def phi(gamma):
            with np.errstate(over="ignore"):
                return float(np.sum(w * np.exp(-(delta + gamma * rate))))

        @functools.cache
        def dphi(gamma):
            with np.errstate(over="ignore"):
                return float(-np.sum(w * rate * np.exp(-(delta
                                                          + gamma * rate))))
        kappa = float(np.sum(w * rate * rate * np.exp(-delta)))
        return phi, dphi(0.0), FunctionRay(lambda t: t, kappa, dphi)

    @staticmethod
    def _search(phi, slope, ray, j0, curvature=None):
        """``_step_size`` along ``ray`` (its curvature replaced when
        ``curvature`` is given) and the steps it evaluated."""
        tried = []
        if curvature is not None:
            ray = FunctionRay(ray.move, curvature, ray.slope_at)
        found = optimizer._step_size(
            phi(0.0), slope, ray, lambda t: tried.append(t) or phi(t), j0)
        return found, tried

    @classmethod
    def _assert_matches_backtracking(cls, phi, slope, ray):
        expected = armijo_backtracking(phi(0.0), slope, phi)
        # a NaN curvature starts the search at j0
        starts = [(j0, math.nan) for j0 in range(40)] + [(0, None)]
        for j0, curvature in starts:
            # the point of a trial is its step, so the accepted point is
            # the accepted gamma
            (gamma, point, value, j), _ = cls._search(phi, slope, ray, j0,
                                                      curvature)
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
            phi, slope, ray = self._ray(w, delta, rate)
            if slope > 0.0:
                phi, slope, ray = self._ray(w, delta, -rate)
            gamma, _ = self._assert_matches_backtracking(phi, slope, ray)
            accepted.add(gamma)
        # the draws reach full steps and steps many halvings down
        assert 1.0 in accepted and min(accepted - {0.0}) <= 2.0 ** -20
        assert len(accepted) >= 15

    def test_no_acceptable_step(self):
        # slope -1 against curvature 2e14: no gamma >= 2**-39 passes
        phi, slope, ray = self._ray(np.ones(2), np.zeros(2),
                                    np.array([1e7 + 1.0, -1e7]))
        assert slope == -1.0
        assert self._assert_matches_backtracking(phi, slope, ray) == (0.0,
                                                                      2.0)

    def test_round_off_rejection_below_a_passing_step(self):
        # a linear decrease that the smallest steps round up to 1 ulp above
        # phi0: starts at those exponents fail upward, yet gamma = 1 passes
        def phi(gamma):
            return (1.0 - 0.5 * gamma if gamma == 0.0 or gamma >= 2.0 ** -30
                    else math.nextafter(1.0, 2.0))
        ray = FunctionRay(lambda t: t, 0.0, lambda t: -0.5)
        assert self._assert_matches_backtracking(phi, -0.5, ray) == (1.0,
                                                                     0.5)

    def test_full_step_accepted(self):
        phi, slope, ray = self._ray(np.ones(1), np.zeros(1), np.ones(1))
        assert self._assert_matches_backtracking(phi, slope, ray) == (
            1.0, math.exp(-1.0))

    def test_tangent_abstains_at_the_armijo_threshold(self):
        """Rays whose phi(2 gamma) sits within a few ulps of the Armijo
        threshold: a cliff term A e^{-a t} that is gone by gamma = 2**-10
        and a nearly linear term e^{-b t}, so the tangent at gamma
        predicts phi(2 gamma) to far below an ulp.  The threshold moves
        with A; near the A where the computed phi(2 gamma) crosses it, the
        search must evaluate 2 gamma whenever gamma passes."""
        gamma, b = 2.0 ** -10, 1e-9 * 2.0 ** 10

        def excess(a_weight):
            phi, slope, _ = self._ray(np.array([a_weight, 1.0]), np.zeros(2),
                                      np.array([1e4 / gamma, b]))
            return phi(2 * gamma) - (phi(0.0) + optimizer._ARMIJO_C
                                     * (2 * gamma) * slope)

        # excess(A) rises through 0 near A = 2 b gamma (1 - c)
        lo, hi = 1e-9, 3e-9
        assert excess(lo) < 0.0 < excess(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
        near = 0
        weights = lo + np.arange(-4, 5) * 2.0 ** -52
        assert {np.sign(excess(a)) for a in weights} >= {-1.0, 1.0}
        for a_weight in weights:
            assert abs(excess(a_weight)) <= 8 * 2.0 ** -52
            phi, slope, ray = self._ray(np.array([a_weight, 1.0]),
                                        np.zeros(2),
                                        np.array([1e4 / gamma, b]))
            self._assert_matches_backtracking(phi, slope, ray)
            for j0, curvature in [(10, math.nan), (0, None)]:
                _, tried = self._search(phi, slope, ray, j0, curvature)
                if gamma in tried and phi(gamma) <= phi(0.0) + (
                        optimizer._ARMIJO_C * gamma * slope):
                    near += 1
                    assert 2 * gamma in tried
        assert near == 2 * weights.size

    @pytest.mark.parametrize("curvature", [0.0, -1.0, math.inf, math.nan])
    def test_degenerate_curvature_starts_at_the_previous_exponent(
            self, curvature):
        phi, slope, ray = self._ray(np.ones(3), np.zeros(3),
                                    np.array([2.0, 0.5, -0.1]))
        for j0 in (0, 7, 39):
            found, tried = self._search(phi, slope, ray, j0, curvature)
            assert tried[0] == 2.0 ** -j0
            assert found[::2] == armijo_backtracking(phi(0.0), slope, phi)

    def test_zero_rate_ray_has_zero_curvature(self):
        # identical features: every pair distance stays 0 along any ray
        ctx = ObjectiveContext(features=np.ones((4, 2)),
                               labels=np.array([1.0, -1.0, 1.0, -1.0]))
        obj = GLRObjective(ctx)
        point = obj.at(SymmetricMatrix(np.eye(2)))
        ray = obj.ray(point, np.array([1.0, -0.5]))
        assert ray.curvature == 0.0
        assert ray.slope(ray(0.5)) == 0.0
        tried = []
        gamma, _, phi, j = optimizer._step_size(
            obj.value(point), -1.0,
            FunctionRay(lambda t: tried.append(t) or ray(t), ray.curvature,
                        ray.slope), obj.value, 7)
        assert tried[0] == 2.0 ** -7
        # phi is flat: only a step whose decrease rounds away passes
        assert phi == obj.value(point) and gamma == 2.0 ** -j


@dataclass
class _LinearDiagObjective:
    """Objective linear in the diagonal; positive slope everywhere."""

    slope: np.ndarray

    def at(self, m):
        return m

    def ray(self, m, direction, col=None):
        assert col is None  # only diagonal steps use this objective
        return FunctionRay(lambda gamma: m.with_diagonal(
            np.diag(m.entries) + gamma * direction), 0.0,
            lambda p: float(self.slope @ direction))

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
        lb = GershgorinPolytope(state.metric.matrix,
                                state.scalars).radii + cfg.rho
        pinned = state.metric.matrix.with_diagonal(lb)
        obj = _LinearDiagObjective(slope=np.array([1.0, 2.0, 3.0]))
        pinned_state = update_scalars(_state_for(pinned, obj), rho=cfg.rho)
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
        state = update_scalars(_state_for(base, GLRObjective(ctx)), rho=1e-4)
        lb = GershgorinPolytope(base, state.scalars).radii + 1e-4
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
        ends = GershgorinPolytope(out.metric.matrix, state.scalars).left_ends
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
    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_out_of_range(self, col):
        ctx = _random_ctx(np.random.default_rng(0), 8, 3)
        cfg = OptimizerConfig().resolve(3)
        state = initial_state(ctx, cfg)
        with pytest.raises(IndexError, match="out of range for dim 3"):
            offdiag_step(state, ctx, cfg, col)

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
        left = GershgorinPolytope(matrix, state.scalars).left_ends
        u = abs(matrix.entries[1, 0]) + s[0] * (left[1] - cfg.rho) / s[1]
        u = min(u, s[1] * (matrix.entries[0, 0] - cfg.rho) / s[0])
        q = GLRAtMatrix(ctx).value

        def q_of(x):
            return q(matrix.with_offdiag_column(0, np.array([x])))

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
            # the floors hold the protected tree; Prim's tree holds each
            # column's heaviest entry (the cut property)
            for i, j in state.protected_edges:
                assert m.entries[i, j] <= -cfg.epsilon
            rows = [r for r in range(4) if r != col]
            zeta = rows[int(np.argmax(np.abs(prev_col[rows])))]
            assert m.entries[zeta, col] <= -cfg.epsilon + 1e-12

    def test_state_without_a_tree_floors_the_heaviest_entry(self):
        # one edge reaches epsilon: no spanning tree of edges >= epsilon
        ctx = _random_ctx(np.random.default_rng(0), 12, 3)
        cfg = OptimizerConfig().resolve(3)
        m = SymmetricMatrix([[1.0, -1e-4, -2e-3],
                             [-1e-4, 1.0, -1e-4],
                             [-2e-3, -1e-4, 1.0]])
        assert prim_tree(m, cfg.epsilon) is None
        state = update_scalars(_state_for(m, GLRObjective(ctx)), rho=cfg.rho)
        after = offdiag_step(state, ctx, cfg, 0)
        # the step drops edge (0, 1); the floored edge (0, 2) keeps vertex
        # 0 connected
        col = after.metric.matrix.entries[:, 0]
        assert col[1] == 0.0 and col[2] <= -cfg.epsilon
        assert is_connected(after.metric.matrix)


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
            v = Certificate.signed(pair.vector).copy()
            v[-1] = -core.NEGATIVE_GRACE
            return replace(pair, vector=v)
        monkeypatch.setattr(eigen, "smallest_eigenpair_dense", negative)

    @pytest.mark.parametrize("k", [4, 48])
    def test_both_solvers_failing_raises(self, monkeypatch, k):
        def no_convergence(matrix, warm_start=None, **kwargs):
            raise eigen.LobpcgNonConvergence("budget spent")
        g, warm = self._iterate(k)
        self._negative_dense(monkeypatch)
        monkeypatch.setattr(eigen, "smallest_eigenpair_lobpcg", no_convergence)
        solves = count_eigensolves(monkeypatch)
        with pytest.raises(optimizer.CertificationError):
            optimizer._certify_matrix(g.matrix, warm, 0.0)
        assert solves == (["smallest_eigenpair_dense"] if k <= 16 else
                          ["smallest_eigenpair_lobpcg",
                           "smallest_eigenpair_dense"])

    @pytest.mark.parametrize("k", [4, 48])
    def test_rayleigh_quotient_above_rho_does_not_certify(self, monkeypatch,
                                                          k):
        """A LOBPCG value only bounds lambda_min from above, so it must not
        stand behind floored scalars when the dense pair fails."""
        g, warm = self._iterate(k)
        lam = float(np.linalg.eigvalsh(g.matrix.entries)[0])

        def overshoot(matrix, warm_start=None, **kwargs):
            return eigen.EigenPair(value=lam + 1.0,
                                   vector=np.full(k, k ** -0.5), residual=0.0)
        self._negative_dense(monkeypatch)
        monkeypatch.setattr(eigen, "smallest_eigenpair_lobpcg", overshoot)
        with pytest.raises(optimizer.CertificationError,
                           match="not certifiable"):
            optimizer._certify_matrix(g.matrix, warm, lam + 0.5)

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
            v = Certificate.signed(pair.vector).copy()
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
                              Certificate.from_pair(dense.value,
                                                    dense.vector).eigvec)
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
            raise eigen.LobpcgNonConvergence("budget spent")
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
        lb = GershgorinPolytope(result.metric.matrix,
                                state.scalars).radii + 1e-5
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
            slow = diagonal_step(self._on(ref, state), ctx, cfg,
                                 objective=ref)
            self._assert_same(fast, slow)
            state = fast
            for col in range(k):
                state = update_scalars(state, rho=cfg.rho)
                fast = offdiag_step(state, ctx, cfg, col)
                slow = offdiag_step(self._on(ref, state), ctx, cfg, col,
                                    objective=ref)
                self._assert_same(fast, slow)
                state = fast

    def test_initial_distances_built_once(self, monkeypatch):
        """A learn builds distances from a matrix once, at M^0; every later
        step starts from the point its predecessor handed on."""
        built = []
        real = objective.pair_distances
        monkeypatch.setattr(objective, "pair_distances",
                            lambda ctx, m: built.append(m) or real(ctx, m))
        init = []
        result = learn_metric(_cv_fold_ctx(),
                              OptimizerConfig(outer_max_iters=3),
                              observer=lambda event, state: event == "init"
                              and init.append(state.metric.matrix))
        assert len(init) == 1
        assert len(result.objective_trace) > 2
        assert len(built) == 1
        assert built[0] is init[0]

    @pytest.mark.parametrize("case", ["wine", "highdim"])
    def test_trace_is_the_value_of_the_carried_point(self, case):
        """Each trace entry is the value of the point the next step starts
        from, and the carried point stays the matrix's distances."""
        if case == "wine":
            ctx, cfg = _cv_fold_ctx("wine"), OptimizerConfig()
        else:
            x, y = highdim_blobs(0)
            ctx = ObjectiveContext(features=x,
                                   labels=np.where(y == 0, 1.0, -1.0))
            cfg = OptimizerConfig(trace_cap=2.0)
        states = []
        learn_metric(ctx, cfg, observer=lambda event, st: states.append(st))
        assert len(states) > 2
        for st in states:
            assert glr_value(ctx, st.point) == st.objective_trace[-1]
        last = states[-1]
        fresh = glr_value(ctx, pair_distances(ctx, last.metric.matrix))
        assert last.objective_trace[-1] == pytest.approx(fresh, rel=1e-12)

    @staticmethod
    def _on(ref, state):
        """``state`` with ``ref``'s point of its matrix."""
        return replace(state, point=ref.at(state.metric.matrix))

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


def _cv_fold_ctx(name="iris", seed=0, fold=0, positive=0):
    """One learn of a dataset's CV protocol: class ``positive`` against the
    rest on one CV seed's fold."""
    ds = load_csv(f"data/{name}.csv", label_column="class")
    test = stratified_folds(ds.labels, 2, np.random.default_rng(seed))[fold]
    train = np.setdiff1d(np.arange(ds.num_samples), test)
    x_train, _, _ = standardize(ds.features[train], ds.features[test])
    z = np.where(ds.labels[train] == positive, 1.0, -1.0)
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


@pytest.mark.parametrize("name", ["iris", "blobs K=48"])
def test_about_one_evaluation_per_frank_wolfe_iteration(monkeypatch, name):
    """The curvature's start and the tangent test leave about one objective
    evaluation per Frank-Wolfe iteration (one gradient each); a search
    from the previous iteration's exponent alone makes 2.3 to 2.9."""
    if name == "iris":
        ctx, cfg = _cv_fold_ctx(), OptimizerConfig()
    else:
        ctx, cfg = _blob_ctx(0, k=48), OptimizerConfig(trace_cap=2.0)
    calls = {"glr_value": 0, "glr_grad_diag": 0, "glr_grad_offdiag_col": 0}
    for kernel in calls:
        real = getattr(objective, kernel)
        monkeypatch.setattr(objective, kernel, lambda *a, k=kernel, real=real:
                            calls.__setitem__(k, calls[k] + 1) or real(*a))
    learn_metric(ctx, cfg)
    iterations = calls["glr_grad_diag"] + calls["glr_grad_offdiag_col"]
    assert iterations > 100
    assert calls["glr_value"] <= 1.6 * iterations


class TestReferenceKernels:
    """A learn through the production kernels gives the same bits as one
    through their plain formulas (tests/helpers.py): pair terms computed
    afresh, a fresh column block per call, the numpy-scalar LP greedy,
    LOBPCG with np.linalg.norm and an eigvalsh basis test, the key-array
    Prim and the triu mirror for every matrix."""

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
            patch.setattr(lp, "solve_diagonal_lp",
                          lambda g, f: reference_diagonal_lp(
                              g, f.lower_bounds, f.trace_cap))
            patch.setattr(lp, "solve_box_knapsack_lp",
                          lambda g, f: reference_knapsack_lp(
                              g, f.lower, f.upper, f.coeffs, f.budget))
            patch.setattr(eigen, "smallest_eigenpair_lobpcg", reference_lobpcg)
            patch.setattr(core, "max_spanning_tree", key_array_spanning_tree)
            patch.setattr(optimizer, "max_spanning_tree",
                          key_array_spanning_tree)
            patch.setattr(SymmetricMatrix, "__post_init__",
                          mirrored_symmetric_init)
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
    for M^0 and for each iterate that changes the matrix.  Each block step
    also sets up its LP at most once."""

    def test_one_call_per_event_in_a_k48_learn(self, monkeypatch):
        counts = dict.fromkeys(("glr_grad_diag", "glr_grad_offdiag_col",
                                "solve_diagonal_lp", "solve_box_knapsack_lp",
                                "diagonal_lp", "knapsack_lp", "diagonal_step",
                                "offdiag_step", "__post_init__"), 0)

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
        count(lp, "diagonal_lp")
        count(lp, "knapsack_lp")
        count(optimizer, "diagonal_step")
        count(optimizer, "offdiag_step")
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
        # a diagonal step's set-up decides its skip; a column is set up
        # only when its incumbent passes
        assert counts["diagonal_lp"] == counts["diagonal_step"]
        assert counts["knapsack_lp"] <= counts["offdiag_step"]
        assert counts["__post_init__"] == 1 + changed


def _overshooting_state(overshoot: float = 1e-4):
    """M^0 at K = 3 with scalars (1, t, 1) whose scaled diagonal lower
    bounds overshoot the trace cap by ``overshoot`` (up to rounding); the
    default 1e-4 is inside the band where a diagonal step skips instead of
    raising."""
    ctx = _random_ctx(np.random.default_rng(3), 12, 3)
    cfg = OptimizerConfig().resolve(3)
    # the bounds sum to 2 eps (t + 1/t) + 3 rho
    half = (cfg.trace_cap + overshoot - 3 * cfg.rho) / (4 * cfg.epsilon)
    t = half + math.sqrt(half * half - 1.0)
    state = initial_state(ctx, cfg)
    scalars = GershgorinScalars(np.array([1.0, t, 1.0]))
    return ctx, cfg, replace(state, scalars=scalars)


@pytest.mark.parametrize("overshoot", [-1e-8, 0.0, 2.9e-9, 3e-9, 3.1e-9,
                                       1e-8, 1e-4])
def test_diagonal_step_skips_exactly_on_an_empty_lp(overshoot):
    # trace_cap = 3, so the LP's emptiness tolerance is 3e-9
    ctx, cfg, state = _overshooting_state(overshoot)
    lb = GershgorinPolytope(state.metric.matrix, state.scalars).radii + cfg.rho
    empty = lp.diagonal_lp(lb, cfg.trace_cap) is None
    if overshoot != 3e-9:  # the boundary itself may round either way
        assert empty == (overshoot > 3e-9)
    after = diagonal_step(state, ctx, cfg)
    # a skipped step keeps the metric object, a step that ran does not;
    # only a step that ran measured a gap
    assert (after.metric is state.metric) == empty
    assert math.isnan(after.fw_gap) == empty


class TestLogging:
    LOGGER = "graphmetric.optimizer"

    def test_diagonal_skip_logs_at_debug(self, caplog):
        ctx, cfg, state = _overshooting_state()
        lb = GershgorinPolytope(state.metric.matrix,
                                state.scalars).radii + cfg.rho
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
        # a skipped diagonal step keeps the metric object; a column step
        # either returns its input state or hands on a new metric object
        assert diagonal.count("kept") >= 1
        assert column.count("skipped") >= 1
        assert "kept" not in column
        assert [r.getMessage() for r in caplog.records] == [
            f"{diagonal.count('kept')} of {len(diagonal)} diagonal steps "
            f"skipped (scaled lower bounds over the trace cap); "
            f"{column.count('skipped')} of {len(column)} off-diagonal "
            f"column steps skipped (empty column LP)"]

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
        # a column step that runs hands on a new metric object, an
        # unchanged column included: only an empty LP keeps the incumbent
        assert (skipped, stalled, len(outcomes)) == (2, 0, 27)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert warnings == [
            f"{skipped} of {len(outcomes)} off-diagonal column steps skipped "
            f"(empty column LP)"]
        per_column = [r for r in caplog.records if r.levelno == logging.DEBUG
                      and r.getMessage().startswith("off-diagonal step")]
        assert len(per_column) == skipped

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
                ok = event == "offdiag" and float(GershgorinPolytope(
                    state.metric.matrix,
                    state.scalars).left_ends.min()) >= rho - 1e-9
            seen.append((event, ok))

        learn_metric(ctx, cfg, observer=observe)
        assert {event for event, _ in seen} == {"init", "diagonal",
                                                "offdiag", "outer"}
        assert all(ok for _, ok in seen)

    def test_unverified_iterate_is_solved_once(self, monkeypatch):
        # wine CV seed 8, fold 1, class 0: iterates whose dense pair gives
        # scalars that cannot be verified at the rho margin
        ctx = _cv_fold_ctx("wine", seed=8, fold=1, positive=0)
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

    def test_column_steps_from_unverified_incumbents_stay_above_rho(self):
        # the benchmark's K = 48 blob 0, class 0: a column step from an
        # incumbent whose floored scalars do not hold its polytope has no
        # convexity argument; its new column must still pass lambda_min >=
        # rho - FEAS_SLACK
        x, y = highdim_blobs(0)
        ctx = ObjectiveContext(features=x, labels=np.where(y == 0, 1.0, -1.0))
        cfg = OptimizerConfig(trace_cap=2.0)
        rho = cfg.resolve(ctx.num_features).rho
        lams = []
        previous = None

        def observe(event, state):
            nonlocal previous
            if (event == "offdiag"
                    and not GershgorinPolytope(previous.metric.matrix,
                                               previous.scalars, rho).holds
                    and not np.array_equal(state.metric.matrix.entries,
                                           previous.metric.matrix.entries)):
                lams.append(np.linalg.eigvalsh(state.metric.matrix.entries)[0])
            previous = state

        learn_metric(ctx, cfg, observer=observe)
        assert lams
        assert min(lams) >= rho - FEAS_SLACK


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
            bound = float(GershgorinPolytope(m, st.scalars).left_ends.min())
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
                               objective_trace=(0.0,),
                               point=pair_distances(ctx, g.matrix))
        solves = count_eigensolves(monkeypatch)
        new = offdiag_step(state, ctx, cfg, 0)
        m = new.metric.matrix
        assert not np.array_equal(m.entries, g.matrix.entries)
        assert float(GershgorinPolytope(
            m, state.scalars).left_ends.min()) < cfg.rho - 1e-9
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


class TestCertificationRoute:
    """Which solver certifies what above K = 16: a diagonal step, which
    moves every disc, is certified by one dense solve; a column step whose
    discs fail and the sweep-end re-alignment try warm LOBPCG first."""

    @staticmethod
    def _spy_solves(monkeypatch, log):
        """Append (solver name, warm start or None) to ``log`` per solve."""
        for name in ("smallest_eigenpair_lobpcg", "smallest_eigenpair_dense"):
            solver = getattr(eigen, name)

            def spied(matrix, *args, _name=name, _solver=solver, **kwargs):
                log.append((_name, kwargs.get("warm_start")))
                return _solver(matrix, *args, **kwargs)
            monkeypatch.setattr(eigen, name, spied)

    def test_k48_diagonal_step_is_one_dense_solve(self, monkeypatch):
        ctx = _blob_ctx(1, k=48, per_class=10)
        cfg = OptimizerConfig(trace_cap=2.0).resolve(48)
        state = initial_state(ctx, cfg)
        solves = count_eigensolves(monkeypatch)
        new = diagonal_step(state, ctx, cfg)
        m = new.metric.matrix
        assert not np.array_equal(m.entries, state.metric.matrix.entries)
        assert solves == ["smallest_eigenpair_dense"]
        assert new.metric.certificate.lambda_min == \
            smallest_eigenpair_dense(m).value
        expected = optimizer._conditioned_scalars(new.metric, cfg.rho)
        assert np.array_equal(new.scalars.values, expected.values)

    @pytest.mark.parametrize("k", [17, 48])
    def test_no_warm_vector_is_one_dense_solve(self, monkeypatch, k):
        g, _ = TestCertifyMatrix._iterate(k)
        solves = count_eigensolves(monkeypatch)
        metric, _ = optimizer._certify_matrix(g.matrix, None, 0.0)
        assert solves == ["smallest_eigenpair_dense"]
        assert metric.certificate.lambda_min == \
            smallest_eigenpair_dense(g.matrix).value

    def test_k48_column_fallback_starts_with_warm_lobpcg(self, monkeypatch):
        # a K = 48 learn's first sweep-end state with its aligned scalars
        # perturbed by 1%: the incumbent leaves its polytope, so column 0's
        # step moves the matrix but cannot be certified by its discs
        _, states = _k48_learn_states()
        outer = next(st for event, st in states if event == "outer")
        g = outer.metric
        ctx = _blob_ctx(1, k=48, per_class=10)
        cfg = OptimizerConfig(trace_cap=2.0).resolve(48)
        jitter = 1.0 + 0.01 * np.random.default_rng(0).standard_normal(48)
        # the cached learn's point belongs to its own context
        state = replace(outer,
                        scalars=GershgorinScalars(outer.scalars.values
                                                  * jitter),
                        point=pair_distances(ctx, g.matrix))
        assert not GershgorinPolytope(g.matrix, state.scalars, cfg.rho).holds
        solves = []
        self._spy_solves(monkeypatch, solves)
        new = offdiag_step(state, ctx, cfg, 0)
        assert not np.array_equal(new.metric.matrix.entries, g.matrix.entries)
        name, warm = solves[0]
        assert name == "smallest_eigenpair_lobpcg"
        assert warm is g.certificate.eigvec
        assert new.metric.certificate.eigenpair

    def test_k48_learn_routes(self, monkeypatch):
        log = []
        self._spy_solves(monkeypatch, log)
        learn_metric(_blob_ctx(1, k=48, per_class=10),
                     OptimizerConfig(trace_cap=2.0),
                     observer=lambda event, st: log.append((event, st)))
        # the solves each observed event follows
        solves, routes = [], {"diagonal": [], "outer": []}
        for name, item in log:
            if name.startswith("smallest_eigenpair"):
                solves.append((name, item))
                continue
            if name in routes and solves:
                routes[name].append(solves)
            solves = []
        assert routes["diagonal"]
        assert all(r == [("smallest_eigenpair_dense", None)]
                   for r in routes["diagonal"])
        assert routes["outer"]
        for r in routes["outer"]:
            assert r[0][0] == "smallest_eigenpair_lobpcg"
            assert r[0][1] is not None


@pytest.mark.parametrize("blob", [3, 6])
def test_k48_learn_ignores_feature_round_off(blob):
    """Features moved by 1e-12 N(0, 1) give the same learned bits at K = 48:
    a column step starts from its incumbent and skips only on an empty LP,
    so no step outcome hangs on a round-off clamp of the incumbent."""
    ctx = _blob_ctx(blob, k=48, per_class=10)
    noise = np.random.default_rng(1000 + blob).standard_normal(
        ctx.features.shape)
    noisy = ObjectiveContext(features=ctx.features + 1e-12 * noise,
                             labels=ctx.labels)
    cfg = OptimizerConfig(trace_cap=2.0)
    clean, moved = learn_metric(ctx, cfg), learn_metric(noisy, cfg)
    assert moved.outer_iterations == clean.outer_iterations
    assert moved.metric.matrix.entries.tobytes() == \
        clean.metric.matrix.entries.tobytes()


def test_localized_perron_vector_certifies():
    """Blob seed 19, class 0 of the benchmark's highdim recipe: the first
    diagonal step's Perron vector is localized, and its first entry above
    1e-14 is round-off of the wrong sign.  Signing by the largest entry
    certifies it; signing by the first non-negligible entry raised
    CertificationError."""
    result = learn_metric(_blob_ctx(19, k=48, per_class=10),
                          OptimizerConfig(trace_cap=2.0))
    assert result.converged
    validate_graph_metric(result.metric.matrix)


@pytest.mark.xfail(strict=True, raises=optimizer.CertificationError,
                   reason="a near-degenerate lambda_min is not certifiable")
def test_near_degenerate_lambda_min_certifies():
    """Center scale 1.0, blob seed 0, class 2 of the benchmark's highdim
    recipe: at the first diagonal step lambda_1 and lambda_2 agree to 8
    digits, the computed vector mixes the two, and its entries reach
    -1.5e-11, past the 1e-12 grace, so certification raises.  The resolvent
    (M - rho I)^-1 1 is positive there.  A fix turns this into an XPASS,
    which fails the suite until the marker goes."""
    x, y = highdim_blobs(0, center_scale=1.0)
    ctx = ObjectiveContext(features=x, labels=np.where(y == 2, 1.0, -1.0))
    result = learn_metric(ctx, OptimizerConfig(trace_cap=2.0))
    validate_graph_metric(result.metric.matrix)
