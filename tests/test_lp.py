"""Tests for the closed-form LP vertices.

The references are independent of the closed forms: scipy's HiGHS solver
for the random equivalence batches, brute-force vertex enumeration
(tests/helpers.py) for the vertex property on small instances, and exact
rational arithmetic for the emptiness decisions, which lie below HiGHS's
1e-7 feasibility tolerance.  The batches also hold each vertex bit for bit
to the plain-formula reference in tests/helpers.py.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import graphmetric
from graphmetric.lp import (FEASIBILITY_TOL, OPTIMAL, LPError, diagonal_lp,
                            knapsack_lp, solve_box_knapsack_lp,
                            solve_diagonal_lp)
from helpers import (INFEASIBLE, count_active, enumerate_lp_vertices,
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


def _diagonal(g, lb, cap):
    """Set-up plus one solve: the vertex, or None when the LP is empty."""
    feasible = diagonal_lp(lb, cap)
    return None if feasible is None else solve_diagonal_lp(g, feasible)


def _knapsack(g, lo, up, a, budget):
    """Set-up plus one solve: the vertex, or None when the LP is empty."""
    feasible = knapsack_lp(lo, up, a, budget)
    return None if feasible is None else solve_box_knapsack_lp(g, feasible)


def _assert_same_bits(sol, ref, g):
    if ref is None:
        assert sol is None
    else:
        assert sol.status == ref.status == OPTIMAL
        assert sol.point.tobytes() == ref.point.tobytes()
        assert np.float64(g @ sol.point).tobytes() == \
            np.float64(g @ ref.point).tobytes()


def _assert_matches_highs(sol, program):
    """An empty set-up where HiGHS finds the LP infeasible, else HiGHS's
    optimal value."""
    status, value = _highs(*program)
    assert (sol is None) == (status == INFEASIBLE)
    if sol is not None:
        assert status == OPTIMAL
        assert abs(program[0] @ sol.point - value) <= 1e-9


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
        sol = _diagonal(g, np.array([1.0, 1.0, 1.0]), 6.0)
        assert sol.status == OPTIMAL
        assert sol.point.tolist() == [1.0, 4.0, 1.0]
        _, oracle = _highs(*_diagonal_program(
            g, np.array([1.0, 1.0, 1.0]), 6.0))
        assert g @ sol.point == pytest.approx(oracle, abs=1e-9)

    def test_all_positive_gradient_stays_at_bounds(self):
        sol = _diagonal(np.array([0.5, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]),
                        10.0)
        assert sol.point.tolist() == [1.0, 2.0, 3.0]

    def test_tight_trace(self):
        sol = _diagonal(np.array([-1.0, -1.0]), np.array([2.0, 2.0]), 4.0)
        assert sol.point.tolist() == [2.0, 2.0]

    def test_infeasible(self):
        assert diagonal_lp(np.array([3.0, 3.0]), 4.0) is None

    def test_tie_breaks_to_lowest_index(self):
        sol = _diagonal(np.array([-2.0, -2.0]), np.array([0.0, 0.0]), 5.0)
        assert sol.point.tolist() == [5.0, 0.0]

    def test_equivalence_batch(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            g, lb, cap = _random_diagonal(rng, int(rng.integers(2, 9)))
            fast = _diagonal(g, lb, cap)
            _assert_same_bits(fast, reference_diagonal_lp(g, lb, cap), g)
            _assert_matches_highs(fast, _diagonal_program(g, lb, cap))


class TestBoxKnapsackLP:
    def test_no_budget_pressure(self):
        # huge budget: variables follow their gradient signs freely
        sol = _knapsack(np.array([1.0, -1.0]), np.array([-2.0, -3.0]),
                        np.array([0.0, -0.5]), np.array([1.0, 1.0]), 100.0)
        assert sol.point.tolist() == [-2.0, -0.5]

    def test_budget_goes_to_best_rate(self):
        # both want to drop; index 1 gains twice as much per unit budget
        sol = _knapsack(np.array([1.0, 2.0]), np.array([-5.0, -5.0]),
                        np.array([0.0, 0.0]), np.array([1.0, 1.0]), 3.0)
        assert sol.point.tolist() == [0.0, -3.0]

    def test_fractional_split(self):
        sol = _knapsack(np.array([2.0, 1.0]), np.array([-1.0, -5.0]),
                        np.array([0.0, 0.0]), np.array([1.0, 1.0]), 3.0)
        assert sol.point.tolist() == [-1.0, -2.0]

    def test_infeasible_floor(self):
        assert knapsack_lp(np.array([-2.0]), np.array([-1.0]),
                           np.array([1.0]), 0.5) is None

    def test_bounds_crossed_by_round_off_are_empty(self):
        # an upper bound (a tree edge's epsilon floor) 5e-10 below its lower
        # bound: a vertex at the lower bound would leave the box
        g, a = np.array([1.0]), np.array([1.0])
        lo, up = np.array([-0.5]), np.array([-0.5 - 5e-10])
        assert _knapsack(g, lo, up, a, 10.0) is None
        # the vertex of the box tied at the lower bound lies above up
        assert _knapsack(g, lo, lo, a, 10.0).point[0] > up[0]

    def test_equivalence_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            g, lo, up, a, budget = _random_knapsack(rng,
                                                    int(rng.integers(2, 9)))
            fast = _knapsack(g, lo, up, a, budget)
            _assert_same_bits(fast, reference_knapsack_lp(g, lo, up, a,
                                                          budget), g)
            _assert_matches_highs(fast,
                                  _knapsack_program(g, lo, up, a, budget))
            if fast is not None:
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
            sol = _knapsack(g, lo, up, a, budget)
            assert sol.status == OPTIMAL
            assert np.array_equal(sol.point,
                                  knapsack_greedy_sorted(g, lo, up, a, budget))
            _assert_same_bits(sol, reference_knapsack_lp(g, lo, up, a,
                                                         budget), g)
            ratios = (g / a)[g > 0]
            tied += np.unique(ratios).size < ratios.size
        assert tied > 300


def _exactly_overspent(spent: Fraction, budget: float) -> bool:
    """Whether ``spent`` exceeds ``budget`` by more than FEASIBILITY_TOL
    relative to max(1, |budget|), in exact arithmetic."""
    b = Fraction(budget)
    return spent - b > Fraction(FEASIBILITY_TOL) * max(1, abs(b))


def _exactly_empty_knapsack(lo, up, a, budget) -> bool:
    """The knapsack set-up's emptiness rule in exact arithmetic: a lower
    bound above its upper bound, or a base vertex min(upper, 0) that
    overspends the budget."""
    lo, up, a = ([Fraction(v) for v in vec.tolist()] for vec in (lo, up, a))
    if any(low > high for low, high in zip(lo, up)):
        return True
    return _exactly_overspent(sum(c * -min(high, 0) for c, high in zip(a, up)),
                              budget)


class TestEmptinessDecisions:
    """The set-ups' None / not-None against exact rational arithmetic, for
    bounds crossed and base vertices overspent by 1e-10 to 1e-8: below
    HiGHS's 1e-7 feasibility tolerance, where its cross-check cannot see
    them."""

    # overshoots in units of FEASIBILITY_TOL, clear of its threshold 1;
    # negative ones undershoot
    FACTORS = (-10.0, -0.5, 0.1, 0.5, 2.0, 10.0)

    def test_diagonal_lp(self):
        rng = np.random.default_rng(31)
        decided = set()
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            lb = rng.uniform(0.0, 1.0, size=dim) * rng.choice([0.1, 1.0, 10.0])
            total = float(lb.sum())
            for factor in self.FACTORS:
                cap = total - factor * FEASIBILITY_TOL * max(1.0, total)
                exact = _exactly_overspent(
                    sum(Fraction(v) for v in lb.tolist()), cap)
                assert (diagonal_lp(lb, cap) is None) == exact
                decided.add(exact)
        assert decided == {True, False}

    def test_knapsack_lp_crossed_bounds(self):
        rng = np.random.default_rng(32)
        decided = set()
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            _, lo, up, a, _ = _random_knapsack(rng, dim)
            budget = float(a @ -up) + 1.0
            r = int(rng.integers(dim))
            for cross in (1e-10, 1e-9, 1e-8):
                for sign in (1.0, -1.0):
                    lo[r] = up[r] + sign * cross
                    exact = _exactly_empty_knapsack(lo, up, a, budget)
                    assert (knapsack_lp(lo, up, a, budget) is None) == exact
                    decided.add(exact)
        assert decided == {True, False}

    def test_knapsack_lp_overspent_base(self):
        rng = np.random.default_rng(33)
        decided = set()
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            _, lo, up, a, _ = _random_knapsack(rng, dim)
            up[0] = -rng.uniform(0.05, 0.3)  # a base vertex that spends
            a *= rng.choice([0.1, 1.0, 10.0])
            spent = sum(Fraction(c) * -Fraction(high)
                        for c, high in zip(a.tolist(), up.tolist()))
            for factor in self.FACTORS:
                budget = float(spent) - factor * FEASIBILITY_TOL * max(
                    1.0, float(spent))
                exact = _exactly_empty_knapsack(lo, up, a, budget)
                assert (knapsack_lp(lo, up, a, budget) is None) == exact
                decided.add(exact)
        assert decided == {True, False}


class TestSetupReuse:
    """A block step sets up its feasible set once and solves it for one
    gradient after another; every vertex must be the one a fresh set-up
    gives.  A set is a snapshot: it copies the arrays it is built from."""

    def test_repeated_knapsack_solves_are_fresh_solves(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            _, lo, up, a, budget = _random_knapsack(rng, dim)
            feasible = knapsack_lp(lo, up, a, budget)
            if feasible is None:
                continue
            for _ in range(4):
                g = rng.normal(size=dim)
                sol = solve_box_knapsack_lp(g, feasible)
                _assert_same_bits(sol, _knapsack(g, lo, up, a, budget), g)
                _assert_same_bits(sol, reference_knapsack_lp(
                    g, lo, up, a, budget), g)

    def test_repeated_diagonal_solves_are_fresh_solves(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            _, lb, cap = _random_diagonal(rng, dim)
            feasible = diagonal_lp(lb, cap)
            if feasible is None:
                continue
            for _ in range(4):
                g = rng.normal(size=dim)
                sol = solve_diagonal_lp(g, feasible)
                _assert_same_bits(sol, _diagonal(g, lb, cap), g)
                _assert_same_bits(sol, reference_diagonal_lp(g, lb, cap), g)

    @pytest.mark.parametrize("views", [False, True])
    @pytest.mark.parametrize("change, index, value, point", [
        ("lower", 1, -1.0, [-2.0, -1.0]),
        ("upper", 0, -2.0, [-2.0, -1.0]),
        ("coeffs", 0, 0.5, [-5.0, -0.5]),
    ])
    def test_writeable_knapsack_box_changed_in_place(self, change, index,
                                                     value, point, views):
        g = np.array([1.0, 2.0])
        box = {"lower": np.array([-5.0, -5.0]), "upper": np.zeros(2),
               "coeffs": np.ones(2)}
        args = (box["lower"], box["upper"], box["coeffs"])
        if views:
            args = tuple(x.view() for x in args)
        args += (3.0,)
        feasible = knapsack_lp(*args)
        assert solve_box_knapsack_lp(g, feasible).point.tolist() == [0.0, -3.0]
        box[change][index] = value
        # the set keeps the box it was built from; a new set-up sees the
        # change
        assert solve_box_knapsack_lp(g, feasible).point.tolist() == [0.0, -3.0]
        second = _knapsack(g, *args)
        assert second.point.tolist() == point
        _assert_same_bits(second, reference_knapsack_lp(g, *args), g)

    def test_writeable_lower_bounds_changed_in_place(self):
        g = np.array([-1.0, -3.0, 2.0])
        lb = np.ones(3)
        feasible = diagonal_lp(lb, 6.0)
        lb[0] = 3.0
        assert solve_diagonal_lp(g, feasible).point.tolist() == [1.0, 4.0, 1.0]
        assert _diagonal(g, lb, 6.0).point.tolist() == [3.0, 2.0, 1.0]
        lb[2] = 3.0
        assert diagonal_lp(lb, 6.0) is None

    def test_new_budget_on_the_same_box(self):
        g = np.array([1.0, 2.0])
        lo, up, a = np.array([-5.0, -5.0]), np.zeros(2), np.ones(2)
        for budget, point in ((3.0, [0.0, -3.0]), (7.0, [-2.0, -5.0]),
                              (3.0, [0.0, -3.0])):
            assert _knapsack(g, lo, up, a, budget).point.tolist() == point


def test_malformed_inputs_raise():
    with pytest.raises(LPError, match="1-D"):
        diagonal_lp(np.ones((2, 2)), 4.0)
    with pytest.raises(LPError, match="finite"):
        diagonal_lp(np.array([1.0, np.nan]), 4.0)
    with pytest.raises(LPError, match="1-D"):
        solve_diagonal_lp(np.ones(3), diagonal_lp(np.ones(2), 4.0))
    box = (np.full(2, -1.0), np.zeros(2))
    with pytest.raises(LPError, match="one length"):
        knapsack_lp(*box, np.ones(3), 1.0)
    with pytest.raises(LPError, match="strictly positive"):
        knapsack_lp(*box, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(LPError, match="one length"):
        solve_box_knapsack_lp(np.ones(3), knapsack_lp(*box, np.ones(2), 1.0))


@pytest.mark.parametrize("solve, program, draw", [
    (_diagonal, _diagonal_program, _random_diagonal),
    (_knapsack, _knapsack_program, _random_knapsack),
], ids=["diagonal", "knapsack"])
def test_closed_form_is_enumerated_optimal_vertex(solve, program, draw):
    rng = np.random.default_rng(13)
    for _ in range(150):
        dim = int(rng.integers(1, 6))
        args = draw(rng, dim)
        sol = solve(*args)
        c, a_ub, b_ub, lo, hi = program(*args)
        status, best, _ = enumerate_lp_vertices(c, a_ub, b_ub, lo, hi)
        assert (sol is None) == (status == INFEASIBLE)
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
