"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force (enumeration,
golden section, dense grids) so the tests never trust the code paths they
check.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from graphmetric.lp import OPTIMAL, INFEASIBLE, LinearProgram
from graphmetric.objective import ObjectiveContext


def enumerate_lp_vertices(lp: LinearProgram, tol: float = 1e-9):
    """All basic feasible points by intersecting n constraint hyperplanes.

    Returns (status, best_value, best_point) with status in
    {"optimal", "infeasible"}; assumes a bounded feasible region.
    """
    n = lp.num_vars
    planes = []  # (row, rhs)
    for con in lp.constraints:
        planes.append((np.asarray(con.coeffs, dtype=float), float(con.rhs)))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lower_bounds[j]):
            planes.append((e.copy(), float(lp.lower_bounds[j])))
        if np.isfinite(lp.upper_bounds[j]):
            planes.append((e.copy(), float(lp.upper_bounds[j])))

    best_val, best_pt = np.inf, None
    for combo in combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if np.linalg.matrix_rank(a, tol=1e-10) < n:
            continue
        x = np.linalg.solve(a, b)
        if _feasible(lp, x, tol):
            val = float(lp.objective @ x)
            if val < best_val:
                best_val, best_pt = val, x
    if best_pt is None:
        return INFEASIBLE, np.nan, None
    return OPTIMAL, best_val, best_pt


def _feasible(lp: LinearProgram, x: np.ndarray, tol: float) -> bool:
    for con in lp.constraints:
        val = float(con.coeffs @ x)
        if con.sense == "<=" and val > con.rhs + tol:
            return False
        if con.sense == ">=" and val < con.rhs - tol:
            return False
    return bool(np.all(x >= lp.lower_bounds - tol)
                and np.all(x <= lp.upper_bounds + tol))


def count_active(lp: LinearProgram, x: np.ndarray, tol: float = 1e-7) -> int:
    active = 0
    for con in lp.constraints:
        if abs(float(con.coeffs @ x) - con.rhs) <= tol:
            active += 1
    active += int(np.sum(np.abs(x - lp.lower_bounds) <= tol))
    active += int(np.sum(np.abs(x - lp.upper_bounds) <= tol))
    return active


def golden_section(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Minimizer of a unimodal function on [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def diag_objective_fn(ctx: ObjectiveContext, matrix):
    """Vectorized Q over diagonal vectors with off-diagonals held fixed.

    Returns f(X) for X of shape (n_points, K).
    """
    cache = ctx.pair_cache
    off = matrix.entries.copy()
    np.fill_diagonal(off, 0.0)
    base = np.einsum("pk,kl,pl->p", cache.diffs, off, cache.diffs)
    d2 = cache.sq_diffs
    w = cache.weights

    def f(x_batch: np.ndarray) -> np.ndarray:
        delta = base[None, :] + x_batch @ d2.T
        return np.exp(-np.clip(delta, -745.0, 745.0)) @ w

    return f


def grid_search_diag(ctx: ObjectiveContext, matrix, lb: np.ndarray,
                     trace_cap: float, step: float = 1e-3) -> np.ndarray:
    """Exhaustive grid minimizer of Q over {x >= lb, sum(x) <= C} for K=3."""
    assert lb.shape == (3,)
    f = diag_objective_fn(ctx, matrix)
    slack = trace_cap - float(np.sum(lb))
    axes = [lb[i] + np.arange(0.0, slack + step / 2, step) for i in range(3)]
    best_val, best_pt = np.inf, None
    for x0 in axes[0]:
        g1, g2 = np.meshgrid(axes[1], axes[2], indexing="ij")
        pts = np.column_stack([np.full(g1.size, x0), g1.ravel(), g2.ravel()])
        mask = pts.sum(axis=1) <= trace_cap + 1e-12
        if not np.any(mask):
            continue
        pts = pts[mask]
        vals = f(pts)
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val, best_pt = float(vals[idx]), pts[idx]
    return best_pt


class MatrixObjective:
    """The GLR objective on explicitly rebuilt matrices (ConvexObjective).

    Points are the matrices themselves: every line-search trial builds
    M + gamma * dM and sums the pair terms over a fresh einsum, the way the
    optimizer worked before it cached per-pair distances.
    """

    def __init__(self, ctx: ObjectiveContext):
        self.ctx = ctx

    def _terms(self, m) -> np.ndarray:
        cache = self.ctx.pair_cache
        delta = np.einsum("pk,kl,pl->p", cache.diffs, m.entries, cache.diffs)
        return cache.weights * np.exp(-np.clip(delta, -745.0, 745.0))

    def at(self, m):
        return m

    def ray(self, m, direction, col=None):
        if col is None:
            return lambda gamma: m.with_diagonal(m.diagonal()
                                                 + gamma * direction)
        x = np.delete(m.entries[:, col], col)
        return lambda gamma: m.with_offdiag_column(col, x + gamma * direction)

    def value(self, m) -> float:
        return float(np.sum(self._terms(m)))

    def grad_diag(self, m) -> np.ndarray:
        return -(self._terms(m) @ self.ctx.pair_cache.sq_diffs)

    def grad_offdiag_col(self, m, col: int) -> np.ndarray:
        d = self.ctx.pair_cache.diffs
        return -2.0 * ((self._terms(m) * d[:, col]) @ np.delete(d, col, axis=1))


def max_spanning_tree(matrix, floor: float):
    """Maximum-weight spanning tree over edges with |m_ij| >= floor.

    Prim over the full cut submatrix at each step: the heaviest edge from
    the tree, first in row-major order (lowest tree node, then lowest new
    node).  Returns the sorted edge tuple, or None when those edges do not
    span the graph.
    """
    k = matrix.dim
    w = np.abs(matrix.entries).copy()
    np.fill_diagonal(w, 0.0)
    w[w < floor] = 0.0
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    edges = []
    for _ in range(k - 1):
        rows = np.nonzero(in_tree)[0]
        sub = w[np.ix_(rows, ~in_tree)]
        if sub.size == 0 or float(np.max(sub)) <= 0.0:
            return None
        i_loc, j_loc = divmod(int(np.argmax(sub)), sub.shape[1])
        i = int(rows[i_loc])
        j = int(np.nonzero(~in_tree)[0][j_loc])
        in_tree[j] = True
        edges.append((min(i, j), max(i, j)))
    return tuple(sorted(edges))


def euclidean_knn_label(train_x: np.ndarray, train_y: np.ndarray,
                        point: np.ndarray, k: int) -> int:
    """Reference Euclidean kNN with the same tie rules as the package."""
    d = np.sum((train_x - point) ** 2, axis=1)
    order = np.argsort(d, kind="stable")[:k]
    votes = {}
    for idx in order:
        votes[int(train_y[idx])] = votes.get(int(train_y[idx]), 0) + 1
    top = max(votes.values())
    return min(lbl for lbl, cnt in votes.items() if cnt == top)
