"""Closed-form vertices of the two Frank-Wolfe subproblem LPs.

Disc alignment makes both subproblems tiny LPs with exact vertex
solutions, so no general solver is needed:

* the diagonal step minimizes g.x over the lower-bounded simplex slab
  {x >= lb, sum(x) <= C} (``diagonal_lp``, ``solve_diagonal_lp``);
* the off-diagonal column step minimizes g.x over a box with one knapsack
  row (``knapsack_lp``, ``solve_box_knapsack_lp``).

Within a block step the feasible set is fixed and only the gradient
changes, so a step sets up its set once (``diagonal_lp``, ``knapsack_lp``;
None when it is empty, and then the step skips) and solves it for one
gradient after another.

The random batches in ``tests/test_lp.py`` cross-check both vertices
against scipy's HiGHS solver.  Its 1e-7 feasibility tolerance hides the
set-ups' emptiness decisions (bounds crossed by less, FEASIBILITY_TOL),
which ``TestEmptinessDecisions`` checks in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"

FEASIBILITY_TOL = 1e-9


class LPError(RuntimeError):
    """Internal solver failure (malformed input or broken invariant)."""


@dataclass(frozen=True)
class LPSolution:
    point: np.ndarray
    status: str


@dataclass(frozen=True)
class DiagonalLP:
    """The nonempty slab {x >= lower_bounds, sum(x) <= trace_cap} and the
    trace budget ``slack`` left over the bounds."""

    lower_bounds: np.ndarray
    trace_cap: float
    slack: float


@dataclass(frozen=True)
class KnapsackLP:
    """The nonempty set {lower <= x <= upper <= 0, sum coeffs * (-x) <=
    budget} and the greedy's start: the base vertex min(upper, 0), the
    budget it leaves, and Python-float copies of what the greedy reads."""

    lower: np.ndarray
    upper: np.ndarray
    coeffs: np.ndarray
    budget: float
    base: np.ndarray
    remaining: float
    base_list: list
    lower_list: list
    coeffs_list: list


def diagonal_lp(lower_bounds: np.ndarray, trace_cap: float
                ) -> DiagonalLP | None:
    """The diagonal LP's feasible set, set up from a copy of the bounds;
    None when the bounds overshoot the trace cap."""
    lb = np.array(lower_bounds, dtype=float)
    if lb.ndim != 1:
        raise LPError("gradient and lower_bounds must be 1-D and equal length")
    if not np.isfinite(lb).all():
        raise LPError("lower bounds must be finite")
    slack = trace_cap - float(lb.sum())
    if slack < -FEASIBILITY_TOL * max(1.0, abs(trace_cap)):
        return None
    return DiagonalLP(lb, trace_cap, slack)


def solve_diagonal_lp(gradient: np.ndarray,
                      feasible: DiagonalLP) -> LPSolution:
    """Closed-form vertex of min g.x over {x >= lb, sum(x) <= C}.

    Every coordinate sits at its lower bound; the leftover trace budget goes
    entirely to the coordinate with the most negative gradient entry (lowest
    index on ties), or nowhere if the gradient is non-negative.
    """
    g = np.asarray(gradient, dtype=float)
    x = feasible.lower_bounds.copy()
    if g.shape != x.shape:
        raise LPError("gradient and lower_bounds must be 1-D and equal length")
    if feasible.slack > 0:
        best = int(g.argmin())
        if g[best] < 0:
            x[best] += feasible.slack
    return LPSolution(point=x, status=OPTIMAL)


def knapsack_lp(lower: np.ndarray, upper: np.ndarray, coeffs: np.ndarray,
                budget: float) -> KnapsackLP | None:
    """The knapsack LP's feasible set, set up from copies of the box and
    the coefficients; None when it is empty: a lower bound strictly above
    its upper bound, or a base vertex min(upper, 0) that overspends the
    budget by more than FEASIBILITY_TOL relative."""
    lo = np.array(lower, dtype=float)
    up = np.array(upper, dtype=float)
    a = np.array(coeffs, dtype=float)
    if not (lo.ndim == 1 and lo.shape == up.shape == a.shape):
        raise LPError("knapsack LP vectors must share one length")
    if not (a > 0).all():
        raise LPError("knapsack coefficients must be strictly positive")
    if (lo > up).any() or (up > FEASIBILITY_TOL).any():
        return None
    x = np.minimum(up, 0.0)
    spent = float(a @ (-x))
    if spent > budget + FEASIBILITY_TOL * max(1.0, abs(budget)):
        return None
    remaining = max(float(budget) - spent, 0.0)
    return KnapsackLP(lo, up, a, budget, x, remaining, x.tolist(),
                      lo.tolist(), a.tolist())


def solve_box_knapsack_lp(gradient: np.ndarray,
                          feasible: KnapsackLP) -> LPSolution:
    """Exact vertex of min g.x over {lower <= x <= upper <= 0,
    sum coeffs * (-x) <= budget} with strictly positive coeffs.

    The off-diagonal Frank-Wolfe subproblem has this shape: a box from the
    per-row Gershgorin budgets and one coupling row from the optimized
    column's own disc.  One budget constraint over a box is a continuous
    knapsack: start every variable at its upper bound (least budget), then
    spend the remaining budget on positive-gradient variables in order of
    gain per unit budget g_r / a_r (ties toward the lower index).  This is
    the classic greedy optimum and is numerically exact, which matters
    because the coupling coefficients can span many orders of magnitude.
    """
    g = np.asarray(gradient, dtype=float)
    if g.shape != feasible.base.shape:
        raise LPError("knapsack LP vectors must share one length")
    remaining = feasible.remaining
    if remaining > 0.0:
        # the greedy on Python floats does the IEEE operations of numpy
        # scalars without their overhead; sorted is stable, so tied gains
        # stay in index order
        los, coef = feasible.lower_list, feasible.coeffs_list
        gs = g.tolist()
        order = sorted((r for r in range(len(gs)) if gs[r] > 0),
                       key=lambda r: -(gs[r] / coef[r]))
        if order:
            xs = feasible.base_list.copy()
            for r in order:
                step = min(xs[r] - los[r], remaining / coef[r])
                xs[r] -= step
                remaining -= step * coef[r]
                if remaining <= 0.0:
                    break
            return LPSolution(point=np.array(xs), status=OPTIMAL)
    return LPSolution(point=feasible.base.copy(), status=OPTIMAL)
