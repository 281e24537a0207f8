"""Tests for the closed-form LP vertices.

The references are independent of the closed forms: scipy's HiGHS solver
for the random equivalence batches, and brute-force vertex enumeration
(tests/helpers.py) for the vertex property on small instances.  The
batches also hold each vertex bit for bit to the plain-formula reference
in tests/helpers.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import graphmetric
from graphmetric import lp
from graphmetric.lp import (INFEASIBLE, OPTIMAL, solve_box_knapsack_lp,
                            solve_diagonal_lp)
from helpers import (count_active, enumerate_lp_vertices,
                     knapsack_greedy_sorted, reference_diagonal_lp,
                     reference_knapsack_lp)

_HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE}


def _highs(c, a_ub, b_ub, lo, hi):
    """HiGHS (status, value) of min c.x, a_ub x <= b_ub, lo <= x <= hi."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=np.column_stack([lo, hi]),
                  method="highs")
    return _HIGHS_STATUS.get(res.status), res.fun


def _diagonal_program(g, lb, cap):
    """{x >= lb, sum(x) <= cap} as (c, a_ub, b_ub, lo, hi)."""
    return (g, np.ones((1, g.shape[0])), np.array([cap]), lb,
            np.full(g.shape[0], np.inf))


def _knapsack_program(g, lo, up, a, budget):
    """{lo <= x <= up, sum a * (-x) <= budget} as (c, a_ub, b_ub, lo, hi)."""
    return g, -a[None, :], np.array([budget]), lo, up


def _assert_same_bits(sol, ref, g):
    assert sol.status == ref.status
    if ref.point is None:
        assert sol.point is None
    else:
        assert sol.point.tobytes() == ref.point.tobytes()
        assert np.float64(g @ sol.point).tobytes() == \
            np.float64(g @ ref.point).tobytes()


def _random_diagonal(rng, dim):
    g = rng.normal(size=dim)
    lb = rng.uniform(0.0, 1.0, size=dim)
    cap = float(np.sum(lb) + rng.uniform(-0.3, 2.0))
    return g, lb, cap


def _random_knapsack(rng, dim):
    g = rng.normal(size=dim)
    up = -rng.uniform(0.0, 0.3, size=dim)
    up[rng.random(size=dim) < 0.5] = 0.0
    lo = up - rng.uniform(0.1, 2.0, size=dim)
    a = rng.uniform(0.1, 10.0, size=dim)
    budget = float(a @ (-up)) + float(rng.uniform(-0.2, 3.0))
    return g, lo, up, a, budget


class TestDiagonalLP:
    def test_slack_to_most_negative_gradient(self):
        g = np.array([-1.0, -3.0, 2.0])
        sol = solve_diagonal_lp(g, np.array([1.0, 1.0, 1.0]), 6.0)
        assert sol.status == OPTIMAL
        assert sol.point.tolist() == [1.0, 4.0, 1.0]
        _, oracle = _highs(*_diagonal_program(
            g, np.array([1.0, 1.0, 1.0]), 6.0))
        assert g @ sol.point == pytest.approx(oracle, abs=1e-9)

    def test_all_positive_gradient_stays_at_bounds(self):
        sol = solve_diagonal_lp(np.array([0.5, 1.0, 2.0]),
                                np.array([1.0, 2.0, 3.0]), 10.0)
        assert sol.point.tolist() == [1.0, 2.0, 3.0]

    def test_tight_trace(self):
        sol = solve_diagonal_lp(np.array([-1.0, -1.0]),
                                np.array([2.0, 2.0]), 4.0)
        assert sol.point.tolist() == [2.0, 2.0]

    def test_infeasible(self):
        sol = solve_diagonal_lp(np.array([-1.0, -1.0]),
                                np.array([3.0, 3.0]), 4.0)
        assert sol.status == INFEASIBLE

    def test_tie_breaks_to_lowest_index(self):
        sol = solve_diagonal_lp(np.array([-2.0, -2.0]),
                                np.array([0.0, 0.0]), 5.0)
        assert sol.point.tolist() == [5.0, 0.0]

    def test_equivalence_batch(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            g, lb, cap = _random_diagonal(rng, int(rng.integers(2, 9)))
            fast = solve_diagonal_lp(g, lb, cap)
            _assert_same_bits(fast, reference_diagonal_lp(g, lb, cap), g)
            status, value = _highs(*_diagonal_program(g, lb, cap))
            assert fast.status == status
            if fast.status == OPTIMAL:
                assert abs(g @ fast.point - value) <= 1e-9


class TestBoxKnapsackLP:
    def test_no_budget_pressure(self):
        # huge budget: variables follow their gradient signs freely
        sol = solve_box_knapsack_lp(np.array([1.0, -1.0]),
                                    np.array([-2.0, -3.0]),
                                    np.array([0.0, -0.5]),
                                    np.array([1.0, 1.0]), 100.0)
        assert sol.point.tolist() == [-2.0, -0.5]

    def test_budget_goes_to_best_rate(self):
        # both want to drop; index 1 gains twice as much per unit budget
        sol = solve_box_knapsack_lp(np.array([1.0, 2.0]),
                                    np.array([-5.0, -5.0]),
                                    np.array([0.0, 0.0]),
                                    np.array([1.0, 1.0]), 3.0)
        assert sol.point.tolist() == [0.0, -3.0]

    def test_fractional_split(self):
        sol = solve_box_knapsack_lp(np.array([2.0, 1.0]),
                                    np.array([-1.0, -5.0]),
                                    np.array([0.0, 0.0]),
                                    np.array([1.0, 1.0]), 3.0)
        assert sol.point.tolist() == [-1.0, -2.0]

    def test_infeasible_floor(self):
        sol = solve_box_knapsack_lp(np.array([1.0]), np.array([-2.0]),
                                    np.array([-1.0]), np.array([1.0]), 0.5)
        assert sol.status == INFEASIBLE

    def test_equivalence_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            g, lo, up, a, budget = _random_knapsack(rng,
                                                    int(rng.integers(2, 9)))
            fast = solve_box_knapsack_lp(g, lo, up, a, budget)
            _assert_same_bits(fast, reference_knapsack_lp(g, lo, up, a,
                                                          budget), g)
            status, value = _highs(*_knapsack_program(g, lo, up, a, budget))
            assert fast.status == status
            if fast.status == OPTIMAL:
                assert abs(g @ fast.point - value) <= 1e-9
                x = fast.point
                assert a @ (-x) <= budget + 1e-12
                assert np.all(x >= lo - 1e-12) and np.all(x <= up + 1e-12)


    def test_tied_ratios_match_sorted_greedy(self):
        # rounded gradients and coefficients that are powers of two make many
        # gain ratios tie exactly; ties must go to the lower index
        rng = np.random.default_rng(21)
        tied = 0
        for _ in range(2000):
            dim = int(rng.integers(2, 12))
            _, lo, up, _, _ = _random_knapsack(rng, dim)
            g = np.round(rng.normal(size=dim), 1)
            a = (np.ones(dim) if rng.random() < 0.5
                 else rng.choice([0.5, 1.0, 2.0], size=dim))
            budget = float(a @ (-up)) + float(rng.uniform(0.0, 1.5))
            sol = solve_box_knapsack_lp(g, lo, up, a, budget)
            assert sol.status == OPTIMAL
            assert np.array_equal(sol.point,
                                  knapsack_greedy_sorted(g, lo, up, a, budget))
            _assert_same_bits(sol, reference_knapsack_lp(g, lo, up, a,
                                                         budget), g)
            ratios = (g / a)[g > 0]
            tied += np.unique(ratios).size < ratios.size
        assert tied > 300


class TestSetupReuse:
    """Each solver sets up its feasible set once for a run of read-only
    inputs, as a Frank-Wolfe loop passes them; the vertices must not
    depend on whether the set-up was reused."""

    @staticmethod
    def _read_only(*arrays):
        for x in arrays:
            x.setflags(write=False)
        return arrays

    def test_repeated_knapsack_solves_are_fresh_solves(self, monkeypatch):
        setups = []
        real = lp._knapsack_box
        monkeypatch.setattr(lp, "_knapsack_box",
                            lambda *args: setups.append(1) or real(*args))
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            _, lo, up, a, budget = _random_knapsack(rng, dim)
            self._read_only(lo, up, a)
            for _ in range(4):
                g = rng.normal(size=dim)
                sol = solve_box_knapsack_lp(g, lo, up, a, budget)
                _assert_same_bits(sol, solve_box_knapsack_lp(
                    g, lo.copy(), up.copy(), a.copy(), budget), g)
                _assert_same_bits(sol, reference_knapsack_lp(
                    g, lo, up, a, budget), g)
            # one for the read-only box, one per writeable copy
            assert len(setups) == 1 + 4
            setups.clear()

    def test_repeated_diagonal_solves_are_fresh_solves(self, monkeypatch):
        setups = []
        real = lp._diagonal_slack
        monkeypatch.setattr(lp, "_diagonal_slack",
                            lambda *args: setups.append(1) or real(*args))
        rng = np.random.default_rng(32)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            _, lb, cap = _random_diagonal(rng, dim)
            self._read_only(lb)
            for _ in range(4):
                g = rng.normal(size=dim)
                sol = solve_diagonal_lp(g, lb, cap)
                _assert_same_bits(sol, solve_diagonal_lp(g, lb.copy(), cap), g)
                _assert_same_bits(sol, reference_diagonal_lp(g, lb, cap), g)
            assert len(setups) == 1 + 4
            setups.clear()

    @pytest.mark.parametrize("read_only_views", [False, True])
    @pytest.mark.parametrize("change, index, value, point", [
        ("lower", 1, -1.0, [-2.0, -1.0]),
        ("upper", 0, -2.0, [-2.0, -1.0]),
        ("coeffs", 0, 0.5, [-5.0, -0.5]),
    ])
    def test_writeable_knapsack_box_changed_in_place(self, change, index,
                                                     value, point,
                                                     read_only_views):
        g = np.array([1.0, 2.0])
        box = {"lower": np.array([-5.0, -5.0]), "upper": np.zeros(2),
               "coeffs": np.ones(2)}
        args = (box["lower"], box["upper"], box["coeffs"])
        if read_only_views:
            # a read-only view still changes with its writeable base
            args = self._read_only(*(x.view() for x in args))
        args += (3.0,)
        assert solve_box_knapsack_lp(g, *args).point.tolist() == [0.0, -3.0]
        box[change][index] = value
        second = solve_box_knapsack_lp(g, *args)
        assert second.point.tolist() == point
        _assert_same_bits(second, reference_knapsack_lp(g, *args), g)

    def test_writeable_lower_bounds_changed_in_place(self):
        g = np.array([-1.0, -3.0, 2.0])
        lb = np.ones(3)
        assert solve_diagonal_lp(g, lb, 6.0).point.tolist() == [1.0, 4.0, 1.0]
        lb[0] = 3.0
        assert solve_diagonal_lp(g, lb, 6.0).point.tolist() == [3.0, 2.0, 1.0]
        lb[2] = 3.0
        assert solve_diagonal_lp(g, lb, 6.0).status == INFEASIBLE

    def test_new_budget_on_the_same_box(self):
        g = np.array([1.0, 2.0])
        lo, up, a = self._read_only(np.array([-5.0, -5.0]), np.zeros(2),
                                    np.ones(2))
        for budget, point in ((3.0, [0.0, -3.0]), (7.0, [-2.0, -5.0]),
                              (3.0, [0.0, -3.0])):
            assert solve_box_knapsack_lp(g, lo, up, a,
                                         budget).point.tolist() == point


@pytest.mark.parametrize("solve, program, draw", [
    (solve_diagonal_lp, _diagonal_program, _random_diagonal),
    (solve_box_knapsack_lp, _knapsack_program, _random_knapsack),
], ids=["diagonal", "knapsack"])
def test_closed_form_is_enumerated_optimal_vertex(solve, program, draw):
    rng = np.random.default_rng(13)
    for _ in range(150):
        dim = int(rng.integers(1, 6))
        args = draw(rng, dim)
        sol = solve(*args)
        c, a_ub, b_ub, lo, hi = program(*args)
        status, best, _ = enumerate_lp_vertices(c, a_ub, b_ub, lo, hi)
        assert sol.status == status
        if status == OPTIMAL:
            assert c @ sol.point == pytest.approx(best, abs=1e-9)
            assert count_active(a_ub, b_ub, lo, hi, sol.point) >= dim


def test_package_import_leaves_oracle_unloaded():
    # the HiGHS oracle must not add to the package's or the CLI's start-up
    probe = ("import sys, graphmetric, graphmetric.cli; "
             "print('scipy.optimize' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": str(Path(graphmetric.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
