"""Random instances and independent oracles shared by the test modules.

The generators draw seeded random graph metrics, SPD matrices, objective
instances and labelled datasets.  The oracles recompute expected values
by brute force (enumeration, golden section, dense grids, finite
differences, plain formulas) so the tests never trust the code paths
they check.  ``ReferenceGLRObjective``, ``reference_diagonal_lp``,
``reference_knapsack_lp``, ``reference_basis`` and ``reference_lobpcg``
are the production kernels' plain formulas without their caches and
shortcuts: a learn through them must give the same bits.
``key_array_spanning_tree``, ``mirrored_symmetric_init`` and
``reference_conditioned_scalars`` are the earlier forms of Prim's tree,
``SymmetricMatrix`` construction and the optimizer's scalar ladder.
``alignment_scalars`` is the paper's bare disc-alignment rule s = 1/v.
``reference_graph_scores`` solves the graph classifier's system by
scipy's Cholesky routines.  ``count_eigensolves`` is the one spy: it
records solver calls.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from graphmetric import eigen
from graphmetric.core import (DimensionMismatchError, GershgorinScalars,
                              GraphMetric, SymmetricMatrix, scaled_left_ends,
                              validate_graph_metric)
from graphmetric.data import Dataset
from graphmetric.lp import INFEASIBLE, OPTIMAL, LPError, LPSolution
from graphmetric.objective import ObjectiveContext, glr_value
from graphmetric.optimizer import (_ARMIJO_C, _FEAS_SLACK, _MIN_STEP,
                                   _SCALAR_FLOOR, CertificationError)


def random_graph_metric(rng: np.random.Generator, dim: int,
                        extra_edge_prob: float = 0.4,
                        dominance_cut: float = 0.9) -> GraphMetric:
    """Random certified graph metric, usually not diagonally dominant.

    Construction: random connected weighted graph (spanning tree plus extra
    edges), combinatorial Laplacian plus positive self-loops (PD and
    dominant), then a uniform diagonal shift removing up to ``dominance_cut``
    of lambda_min.  The shift keeps PD but generically drives some plain
    Gershgorin left-ends negative, which is the interesting regime for disc
    alignment.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    w = np.zeros((dim, dim))
    order = rng.permutation(dim)
    for a, b in zip(order[:-1], order[1:]):  # random spanning tree
        w[a, b] = w[b, a] = rng.uniform(0.2, 2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            if w[i, j] == 0 and rng.random() < extra_edge_prob:
                w[i, j] = w[j, i] = rng.uniform(0.2, 2.0)
    lap = np.diag(w.sum(axis=1)) - w
    lap += np.diag(rng.uniform(0.1, 1.0, size=dim))
    lam = float(np.linalg.eigvalsh(lap)[0])
    lap -= rng.uniform(0.0, dominance_cut) * lam * np.eye(dim)
    return validate_graph_metric(SymmetricMatrix(lap))


def random_spd(rng: np.random.Generator, dim: int) -> SymmetricMatrix:
    """Random SPD matrix with a resolvable spectral gap (not a graph metric).

    Built from an explicit increasing spectrum under a random rotation, so
    the smallest eigenpair is well defined and iterative solvers are
    expected to match the dense oracle tightly.
    """
    eigs = np.cumsum(rng.uniform(0.1, 1.0, size=dim))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return SymmetricMatrix((q * eigs) @ q.T)


def shifted_path_laplacian(dim: int, shift: float) -> SymmetricMatrix:
    """Unit-weight path-graph Laplacian plus ``shift`` * I.

    A graph metric with lambda_min = ``shift`` and the uniform first
    eigenvector, at any size.
    """
    a = np.diag(np.full(dim, 2.0 + shift))
    a[0, 0] = a[-1, -1] = 1.0 + shift
    i = np.arange(dim - 1)
    a[i, i + 1] = a[i + 1, i] = -1.0
    return SymmetricMatrix(a)


def two_cluster_dataset(rng: np.random.Generator, n_per_class: int = 20,
                        num_features: int = 2, separation: float = 4.0,
                        name: str = "two-cluster") -> Dataset:
    """Two Gaussian blobs separated along feature 0 only.

    Features beyond the first are pure noise, so a good metric up-weights
    feature 0.
    """
    mean_a = np.zeros(num_features)
    mean_b = np.zeros(num_features)
    mean_b[0] = separation
    xa = rng.normal(size=(n_per_class, num_features)) + mean_a
    xb = rng.normal(size=(n_per_class, num_features)) + mean_b
    features = np.vstack([xa, xb])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(name=name, features=features, labels=labels, num_classes=2)


def gaussian_blobs_dataset(rng: np.random.Generator, n_classes: int = 3,
                           n_per_class: int = 12, num_features: int = 4,
                           spread: float = 1.0, separation: float = 3.0,
                           name: str = "blobs") -> Dataset:
    """Multi-class Gaussian blobs with random centers."""
    centers = rng.normal(scale=separation, size=(n_classes, num_features))
    feats = []
    labels = []
    for cls in range(n_classes):
        feats.append(rng.normal(scale=spread,
                                size=(n_per_class, num_features)) + centers[cls])
        labels.extend([cls] * n_per_class)
    return Dataset(name=name, features=np.vstack(feats),
                   labels=np.array(labels), num_classes=n_classes)


def random_objective_instance(rng: np.random.Generator
                              ) -> tuple[ObjectiveContext, SymmetricMatrix]:
    """Small objective (4..9 samples, 2..6 features, both labels) and metric."""
    n = int(rng.integers(4, 10))
    k = int(rng.integers(2, 7))
    feats = rng.normal(size=(n, k))
    z = rng.choice([-1.0, 1.0], size=n)
    if np.all(z == z[0]):
        z[0] = -z[0]
    ctx = ObjectiveContext(features=feats, labels=z)
    return ctx, random_graph_metric(rng, k).matrix


def fd_grad_diag(ctx: ObjectiveContext, m: SymmetricMatrix,
                 h: float = 1e-5) -> np.ndarray:
    """Central-difference oracle for the diagonal gradient."""
    out = np.zeros(m.dim)
    d = m.diagonal()
    for kk in range(m.dim):
        dp, dm = d.copy(), d.copy()
        dp[kk] += h
        dm[kk] -= h
        out[kk] = (glr_value(ctx, m.with_diagonal(dp))
                   - glr_value(ctx, m.with_diagonal(dm))) / (2 * h)
    return out


def fd_grad_offdiag_col(ctx: ObjectiveContext, m: SymmetricMatrix, col: int,
                        h: float = 1e-5) -> np.ndarray:
    """Central differences with m[r, col] and m[col, r] perturbed together."""
    rows = [r for r in range(m.dim) if r != col]
    x = m.entries[rows, col]
    out = np.zeros(len(rows))
    for idx in range(len(rows)):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        out[idx] = (glr_value(ctx, m.with_offdiag_column(col, xp))
                    - glr_value(ctx, m.with_offdiag_column(col, xm))) / (2 * h)
    return out


def gershgorin_left_ends(m: SymmetricMatrix) -> np.ndarray:
    """Plain disc left-ends c_i - r_i: diagonal minus off-diagonal |row| sum."""
    a = m.entries
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    return np.diag(a) - radii


def mahalanobis(f_i: np.ndarray, f_j: np.ndarray, m: SymmetricMatrix) -> float:
    """Quadratic-form feature distance (f_i - f_j)^T M (f_i - f_j)."""
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    if f_i.shape != (m.dim,) or f_j.shape != (m.dim,):
        raise DimensionMismatchError(
            f"feature vectors {f_i.shape}, {f_j.shape} vs matrix dim {m.dim}")
    d = f_i - f_j
    return float(d @ m.entries @ d)


def enumerate_lp_vertices(c, a_ub, b_ub, lo, hi, tol: float = 1e-9):
    """Best vertex of min c.x s.t. a_ub x <= b_ub and lo <= x <= hi.

    Takes numpy arrays (a_ub 2-D; lo and hi may hold infinities) and
    intersects every n of the constraint and finite-bound hyperplanes.
    Returns (status, best_value, best_point) with status in
    {"optimal", "infeasible"}; assumes a bounded feasible region.
    """
    n = c.shape[0]
    eye = np.eye(n)
    planes = list(zip(a_ub, b_ub))
    for j in range(n):
        planes += [(eye[j], bound) for bound in (lo[j], hi[j])
                   if np.isfinite(bound)]

    best_val, best_pt = np.inf, None
    for combo in combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if np.linalg.matrix_rank(a, tol=1e-10) < n:
            continue
        x = np.linalg.solve(a, b)
        if (np.all(a_ub @ x <= b_ub + tol) and np.all(x >= lo - tol)
                and np.all(x <= hi + tol)):
            val = float(c @ x)
            if val < best_val:
                best_val, best_pt = val, x
    if best_pt is None:
        return INFEASIBLE, np.nan, None
    return OPTIMAL, best_val, best_pt


def count_active(a_ub, b_ub, lo, hi, x: np.ndarray, tol: float = 1e-7) -> int:
    """Number of constraint rows and bounds that hold with equality at x."""
    return int(np.sum(np.abs(a_ub @ x - b_ub) <= tol)
               + np.sum(np.abs(x - lo) <= tol) + np.sum(np.abs(x - hi) <= tol))


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


class ReferenceGLRObjective:
    """The GLR objective by its plain formulas (ConvexObjective).

    Points are bare distance arrays.  Every value and gradient recomputes
    the pair terms weights * exp(-delta), and every column gradient and ray
    takes a fresh ``diffs[:, rows]``: no cached terms, no memoized column
    block, no remembered matrix.
    """

    def __init__(self, ctx: ObjectiveContext):
        self.ctx = ctx

    def _delta(self, m) -> np.ndarray:
        if isinstance(m, SymmetricMatrix):
            d = self.ctx.pair_cache.diffs
            return np.sum((d @ m.entries) * d, axis=1)
        return m

    def terms(self, m) -> np.ndarray:
        return self.ctx.pair_cache.weights * np.exp(
            -np.minimum(np.maximum(self._delta(m), -745.0), 745.0))

    def _rows(self, col: int) -> list[int]:
        return [r for r in range(self.ctx.num_features) if r != col]

    def at(self, m):
        return self._delta(m)

    def ray(self, delta, direction, col=None):
        cache = self.ctx.pair_cache
        if col is None:
            rate = cache.sq_diffs @ direction
        else:
            d = cache.diffs
            rate = 2.0 * d[:, col] * (d[:, self._rows(col)] @ direction)
        return lambda gamma: delta + gamma * rate

    def value(self, m) -> float:
        return float(np.sum(self.terms(m)))

    def grad_diag(self, m) -> np.ndarray:
        return -(self.terms(m) @ self.ctx.pair_cache.sq_diffs)

    def grad_offdiag_col(self, m, col: int) -> np.ndarray:
        d = self.ctx.pair_cache.diffs
        return -2.0 * ((self.terms(m) * d[:, col]) @ d[:, self._rows(col)])


def reference_diagonal_lp(g, lb, trace_cap, tol: float = 1e-9) -> LPSolution:
    """Vertex of min g.x over {x >= lb, sum(x) <= C}: lower bounds, plus
    the slack on the first most negative gradient entry."""
    if g.shape != lb.shape or g.ndim != 1:
        raise LPError("gradient and lower_bounds must be 1-D and equal length")
    if not np.all(np.isfinite(lb)):
        raise LPError("lower bounds must be finite")
    slack = trace_cap - float(np.sum(lb))
    if slack < -tol * max(1.0, abs(trace_cap)):
        return LPSolution(point=None, objective_value=np.nan, status=INFEASIBLE)
    x = lb.copy()
    slack = max(slack, 0.0)
    if slack > 0 and float(np.min(g)) < 0:
        x[int(np.argmin(g))] += slack
    return LPSolution(point=x, objective_value=float(g @ x), status=OPTIMAL)


def reference_knapsack_lp(g, lo, up, a, budget, tol: float = 1e-9
                          ) -> LPSolution:
    """Continuous-knapsack vertex of min g.x over {lo <= x <= up <= 0,
    sum a * (-x) <= budget}, with the greedy on numpy scalars in lexsort
    order (gain per unit budget, then index)."""
    n = g.shape[0]
    if not (lo.shape == up.shape == a.shape == (n,)):
        raise LPError("knapsack LP vectors must share one length")
    if not np.all(a > 0):
        raise LPError("knapsack coefficients must be strictly positive")
    if np.any(lo > up + tol) or np.any(up > tol):
        return LPSolution(point=None, objective_value=np.nan,
                          status=INFEASIBLE)
    x = np.minimum(up, 0.0)
    spent = float(a @ (-x))
    if spent > budget + tol * max(1.0, abs(budget)):
        return LPSolution(point=None, objective_value=np.nan,
                          status=INFEASIBLE)
    remaining = max(budget - spent, 0.0)
    pos = np.flatnonzero(g > 0)
    order = pos[np.lexsort((pos, -(g[pos] / a[pos])))]
    for r in order.tolist():
        if remaining <= 0.0:
            break
        step = min(x[r] - lo[r], remaining / a[r])
        x[r] -= step
        remaining -= step * a[r]
    return LPSolution(point=x, objective_value=float(g @ x), status=OPTIMAL)


def reference_basis(columns: list[np.ndarray]) -> np.ndarray:
    """Modified Gram-Schmidt; one more pass when eigvalsh finds the Gram
    matrix's condition number above 1e8."""
    kept: list[np.ndarray] = []
    for col in columns:
        w = col.astype(float, copy=True)
        for q in kept:
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm <= 1e-12 * max(1.0, float(np.linalg.norm(col))):
            continue
        kept.append(w / norm)
    v = np.column_stack(kept)
    gvals = np.linalg.eigvalsh(v.T @ v)
    if gvals[0] <= 0 or gvals[-1] / gvals[0] > 1e8:
        refreshed: list[np.ndarray] = []
        for idx in range(v.shape[1]):
            w = v[:, idx].copy()
            for q in refreshed:
                w -= (q @ w) * q
            norm = np.linalg.norm(w)
            if norm > 1e-12:
                refreshed.append(w / norm)
        v = np.column_stack(refreshed)
    return v


def reference_lobpcg(m: SymmetricMatrix, warm_start=None, tol: float = 1e-9,
                     max_iters: int = 200) -> eigen.EigenPair:
    """Single-vector Jacobi-preconditioned LOBPCG with np.linalg.norm
    norms and an eigvalsh test of every Rayleigh-Ritz basis; the same
    contract as ``eigen.smallest_eigenpair_lobpcg`` for valid inputs."""
    a = m.entries
    if warm_start is not None:
        x = warm_start / np.linalg.norm(warm_start)
    else:
        x = np.full(m.dim, 1.0 / np.sqrt(m.dim))
    diag = np.diag(a)
    precond = float(np.max(diag)) / diag if bool(np.all(diag > 0)) else None
    ax = a @ x
    lam = float(x @ ax)
    r = ax - lam * x
    p = None
    best = (float(np.linalg.norm(r)), lam, x, 0)
    for it in range(max_iters + 1):
        res_norm = float(np.linalg.norm(r))
        if res_norm <= tol:
            return eigen._eigenpair(lam, x, res_norm, it)
        if res_norm < best[0]:
            best = (res_norm, lam, x, it)
        if it == max_iters:
            break
        w = r if precond is None else precond * r
        basis = reference_basis([x, w] if p is None else [x, w, p])
        t = basis.T @ (a @ basis)
        t = 0.5 * (t + t.T)
        y = np.linalg.eigh(t)[1][:, 0]
        x_new = basis @ y
        x_new /= np.linalg.norm(x_new)
        if basis.shape[1] > 1:
            p = basis[:, 1:] @ y[1:]
            pn = np.linalg.norm(p)
            p = p / pn if pn > 1e-14 else None
        else:
            p = None
        x = x_new
        ax = a @ x
        lam = float(x @ ax)
        r = ax - lam * x
    res_norm, lam, x, it = best
    raise eigen.LobpcgNonConvergence(eigen._eigenpair(lam, x, res_norm, it),
                                     max_iters)


def armijo_backtracking(phi0: float, slope: float, evaluate
                        ) -> tuple[float, float]:
    """Backtracking Armijo from gamma = 1, halving every rejected step.

    The reference ``optimizer._step_size`` must match from any start
    exponent: the first gamma = 2**-j >= _MIN_STEP with evaluate(gamma) <=
    phi0 + _ARMIJO_C * gamma * slope, or (0.0, phi0) when none passes.
    """
    gamma = 1.0
    while gamma >= _MIN_STEP:
        phi = evaluate(gamma)
        if phi <= phi0 + _ARMIJO_C * gamma * slope:
            return gamma, phi
        gamma *= 0.5
    return 0.0, phi0


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


def key_array_spanning_tree(matrix, floor: float):
    """Maximum-weight spanning tree over edges with |m_ij| >= floor.

    Prim in O(K^2) over all K^2 entries with a key array: key[j] is the
    heaviest edge from the tree to node j, reached from parent[j].  Ties go
    to the lowest tree node, then the lowest new node.  Returns the sorted
    edge tuple, or None when those edges do not span the graph.
    """
    k = matrix.dim
    w = np.abs(matrix.entries)
    w[w < floor] = 0.0
    rows = w.tolist()
    key = list(rows[0])
    parent = [0] * k
    outside = list(range(1, k))
    edges = []
    while outside:
        node, weight, via = -1, 0.0, k
        for j in outside:
            kj = key[j]
            if kj > weight or (kj == weight and parent[j] < via):
                node, weight, via = j, kj, parent[j]
        if weight <= 0.0:
            return None
        outside.remove(node)
        edges.append((min(via, node), max(via, node)))
        row = rows[node]
        for j in outside:
            wj = row[j]
            if wj > key[j] or (wj == key[j] and node < parent[j]):
                key[j] = wj
                parent[j] = node
    return tuple(sorted(edges))


def mirrored_symmetric_init(self) -> None:
    """``SymmetricMatrix.__post_init__`` that mirrors every input's upper
    triangle onto the lower, after the finiteness and 1e-9 (relative)
    symmetry checks."""
    a = np.asarray(self.entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("dimension must be >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-9 * scale:
        raise ValueError("input matrix is not symmetric")
    upper = np.triu(a, 1)
    exact = np.diag(np.diag(a)) + upper + upper.T
    exact.setflags(write=False)
    object.__setattr__(self, "entries", exact)


def reference_conditioned_scalars(metric: GraphMetric, rho: float,
                                  floored: bool = True):
    """``optimizer._conditioned_scalars`` with a fresh ``GershgorinScalars``
    and ``scaled_left_ends`` for every rung of the eta ladder."""
    v = metric.certificate.eigvec
    vmax = float(np.max(v))
    for eta in (_SCALAR_FLOOR, 1e-9, 0.0):
        scalars = GershgorinScalars(1.0 / np.maximum(v, eta * vmax))
        left = scaled_left_ends(metric.matrix, scalars)
        if float(np.min(left)) >= rho - _FEAS_SLACK:
            return scalars
    if not floored:
        return None
    if metric.certificate.lambda_min < rho - _FEAS_SLACK:
        raise CertificationError("incumbent left the feasible region")
    return GershgorinScalars(1.0 / np.maximum(v, _SCALAR_FLOOR * vmax))


def alignment_scalars(g: GraphMetric) -> GershgorinScalars:
    """The paper's disc alignment: s_k = 1 / v_k from the certified first
    eigenvector.

    Under these scalars all disc left-ends of S M S^-1 coincide at
    lambda_min, making the Gershgorin lower bound tight.
    """
    v = g.certificate.eigvec
    if np.any(v <= 0):
        raise ValueError(
            "certificate eigenvector has non-positive entries; invalid certificate")
    return GershgorinScalars(values=1.0 / v)


def column_tree_edges_by_scan(tree, col: int, dim: int) -> set[int]:
    """Positions of ``col``'s tree edges among its off-diagonal rows.

    Scans every row r != col for the sorted edge (min, max) in ``tree``.
    """
    rows = [r for r in range(dim) if r != col]
    return {idx for idx, r in enumerate(rows)
            if (min(r, col), max(r, col)) in tree}


def knapsack_greedy_sorted(g, lo, up, a, budget) -> np.ndarray:
    """Continuous-knapsack greedy vertex of min g.x over {lo <= x <= up,
    sum a * (-x) <= budget}, for a feasible instance.

    Every variable starts at min(up, 0); the budget goes to positive-gradient
    variables by Python's ``sorted`` on (-g_r / a_r, r).
    """
    x = np.minimum(up, 0.0)
    remaining = max(budget - float(a @ (-x)), 0.0)
    order = sorted((r for r in range(g.shape[0]) if g[r] > 0),
                   key=lambda r: (-(g[r] / a[r]), r))
    for r in order:
        if remaining <= 0.0:
            break
        step = min(x[r] - lo[r], remaining / a[r])
        x[r] -= step
        remaining -= step * a[r]
    return x


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


def similarity_graph(feats, metric: GraphMetric
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Weights exp(-d_M) on distinct pairs and their Laplacian D - W."""
    n = len(feats)
    w = np.array([[0.0 if i == j else
                   np.exp(-mahalanobis(feats[i], feats[j], metric.matrix))
                   for j in range(n)] for i in range(n)])
    return w, np.diag(w.sum(axis=1)) - w


def reference_graph_scores(feats, known: dict, metric: GraphMetric
                           ) -> np.ndarray:
    """Harmonic label scores by a Cholesky solve (``cho_factor``).

    Solves L_UU z_U = -L_UL z_L on ``similarity_graph``'s Laplacian with
    one refinement step; when L_UU has no Cholesky factor it adds 1e-10
    to the diagonal.  Known labels are numbers, or rows of C labels for
    (N, C) scores.
    """
    _, laplacian = similarity_graph(feats, metric)
    labeled = sorted(known)
    unlabeled = [i for i in range(len(feats)) if i not in known]
    values = np.array([known[i] for i in labeled], dtype=float)
    scores = np.zeros((len(feats), *values.shape[1:]))
    scores[labeled] = values
    l_uu = laplacian[np.ix_(unlabeled, unlabeled)]
    rhs = -laplacian[np.ix_(unlabeled, labeled)] @ values
    try:
        factor = cho_factor(l_uu)
    except np.linalg.LinAlgError:
        l_uu = l_uu + 1e-10 * np.eye(len(unlabeled))
        factor = cho_factor(l_uu)
    z = cho_solve(factor, rhs)
    scores[unlabeled] = z + cho_solve(factor, rhs - l_uu @ z)
    return scores


def count_eigensolves(monkeypatch) -> list[str]:
    """List that records each smallest-eigenpair solve by solver name.

    Patches the ``eigen`` module attributes, through which the package
    calls both solvers.
    """
    calls: list[str] = []

    def counting(name):
        solver = getattr(eigen, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)
        return wrapped

    for name in ("smallest_eigenpair_lobpcg", "smallest_eigenpair_dense"):
        monkeypatch.setattr(eigen, name, counting(name))
    return calls
