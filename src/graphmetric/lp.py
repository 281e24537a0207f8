"""Closed-form vertices of the two Frank-Wolfe subproblem LPs.

Disc alignment makes both subproblems tiny LPs with exact vertex
solutions, so no general solver is needed:

* the diagonal step minimizes g.x over the lower-bounded simplex slab
  {x >= lb, sum(x) <= C} (``solve_diagonal_lp``);
* the off-diagonal column step minimizes g.x over a box with one knapsack
  row (``solve_box_knapsack_lp``).

Within a block step the feasible set is fixed and only the gradient
changes, so each solver keeps the set-up of its last read-only inputs
(``_prepared``).

The random equivalence batches in ``tests/test_lp.py``
(``TestDiagonalLP`` and ``TestBoxKnapsackLP``) cross-check both against
scipy's HiGHS solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

FEASIBILITY_TOL = 1e-9


class LPError(RuntimeError):
    """Internal solver failure (malformed input or broken invariant)."""


@dataclass(frozen=True)
class LPSolution:
    point: np.ndarray | None
    status: str


def _prepared(memo: list, arrays: tuple[np.ndarray, ...], scalar: float,
              build):
    """``build()``, reused while the same read-only arrays and scalar come
    back.

    A Frank-Wolfe loop solves its block step's LP for one gradient after
    another over a fixed feasible set, so the set-up that does not depend on
    the gradient runs once per block step.  ``memo`` holds the last inputs
    and their set-up.  An array is matched by identity, so only read-only
    arrays that own their memory are kept: a writeable array, or a view of
    one, may change in place between calls.
    """
    last = memo[0]
    if (last is not None and last[1] == scalar
            and all(x is y for x, y in zip(last[0], arrays))):
        return last[2]
    result = build()
    if all(x.flags.owndata and not x.flags.writeable for x in arrays):
        memo[0] = (arrays, scalar, result)
    return result


# One last-inputs memo per solver.  A hit returns what ``build`` would
# return, so no caller sees another's inputs, and an entry is replaced as
# one tuple, so a thread reads either the old entry or the new one.
_DIAGONAL_MEMO: list = [None]
_KNAPSACK_MEMO: list = [None]


def solve_diagonal_lp(gradient: np.ndarray, lower_bounds: np.ndarray,
                      trace_cap: float) -> LPSolution:
    """Closed-form vertex of min g.x over {x >= lb, sum(x) <= C}.

    Every coordinate sits at its lower bound; the leftover trace budget goes
    entirely to the coordinate with the most negative gradient entry (lowest
    index on ties), or nowhere if the gradient is non-negative.
    """
    g = np.asarray(gradient, dtype=float)
    lb = np.asarray(lower_bounds, dtype=float)
    slack = _prepared(_DIAGONAL_MEMO, (lb,), trace_cap,
                      lambda: _diagonal_slack(lb, trace_cap))
    if g.shape != lb.shape:
        raise LPError("gradient and lower_bounds must be 1-D and equal length")
    if slack is None:
        return LPSolution(point=None, status=INFEASIBLE)
    x = lb.copy()
    if slack > 0:
        best = int(g.argmin())
        if g[best] < 0:
            x[best] += slack
    return LPSolution(point=x, status=OPTIMAL)


def _diagonal_slack(lb: np.ndarray, trace_cap: float) -> float | None:
    """Trace budget left over the lower bounds; None when the LP is empty."""
    if lb.ndim != 1:
        raise LPError("gradient and lower_bounds must be 1-D and equal length")
    if not np.isfinite(lb).all():
        raise LPError("lower bounds must be finite")
    slack = trace_cap - float(lb.sum())
    if slack < -FEASIBILITY_TOL * max(1.0, abs(trace_cap)):
        return None
    return slack


def solve_box_knapsack_lp(gradient: np.ndarray, lower: np.ndarray,
                          upper: np.ndarray, coeffs: np.ndarray,
                          budget: float) -> LPSolution:
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
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    a = np.asarray(coeffs, dtype=float)
    box = _prepared(_KNAPSACK_MEMO, (lo, up, a), budget,
                    lambda: _knapsack_box(lo, up, a, budget))
    if g.shape != lo.shape:
        raise LPError("knapsack LP vectors must share one length")
    if box is None:
        return LPSolution(point=None, status=INFEASIBLE)
    x, remaining, xs, los, coef = box
    if remaining > 0.0:
        # the greedy on Python floats does the IEEE operations of numpy
        # scalars without their overhead; sorted is stable, so tied gains
        # stay in index order
        gs = g.tolist()
        order = sorted((r for r in range(len(gs)) if gs[r] > 0),
                       key=lambda r: -(gs[r] / coef[r]))
        if order:
            xs = xs.copy()
            for r in order:
                step = min(xs[r] - los[r], remaining / coef[r])
                xs[r] -= step
                remaining -= step * coef[r]
                if remaining <= 0.0:
                    break
            return LPSolution(point=np.array(xs), status=OPTIMAL)
    return LPSolution(point=x.copy(), status=OPTIMAL)


def _knapsack_box(lo: np.ndarray, up: np.ndarray, a: np.ndarray,
                  budget: float) -> tuple | None:
    """The gradient-free part of the knapsack LP: the base vertex
    min(upper, 0), the budget it leaves, and the greedy's Python-float
    lists; None when the LP is empty."""
    if not (lo.ndim == 1 and lo.shape == up.shape == a.shape):
        raise LPError("knapsack LP vectors must share one length")
    if not (a > 0).all():
        raise LPError("knapsack coefficients must be strictly positive")
    if (lo > up + FEASIBILITY_TOL).any() or (up > FEASIBILITY_TOL).any():
        return None
    x = np.minimum(up, 0.0)
    spent = float(a @ (-x))
    if spent > budget + FEASIBILITY_TOL * max(1.0, abs(budget)):
        return None
    remaining = max(float(budget) - spent, 0.0)
    return x, remaining, x.tolist(), lo.tolist(), a.tolist()
