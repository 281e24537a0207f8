"""Executable property suites over random instances.

Each suite checks one mathematical guarantee of the toolkit on a seeded
random batch and reports pass/fail with a short diagnostic.  The CLI
``verify`` command runs them all; the test suite reuses them for the
acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .core import (SymmetricMatrix, alignment_scalars, gershgorin_left_ends,
                   mahalanobis, scaled_left_ends)
from .eigen import smallest_eigenpair_dense, smallest_eigenpair_lobpcg
from .objective import (ObjectiveContext, glr_grad_diag, glr_grad_offdiag_col,
                        glr_value)
from .synthetic import random_graph_metric, random_spd


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def check_disc_alignment(n: int = 1000, max_dim: int = 30,
                         seed: int = 0) -> list[CheckResult]:
    """Alignment (left-end spread at lambda_min) and eigenvector positivity.

    One random batch serves both checks.
    """
    rng = np.random.default_rng(seed)
    worst_spread = 0.0
    min_entry = np.inf
    for _ in range(n):
        dim = int(rng.integers(2, max_dim + 1))
        g = random_graph_metric(rng, dim)
        s = alignment_scalars(g)
        ends = scaled_left_ends(g.matrix, s)
        lam = g.certificate.lambda_min
        spread = float(np.max(ends) - np.min(ends)) / max(1.0, lam)
        worst_spread = max(worst_spread, spread)
        min_entry = min(min_entry, float(np.min(g.certificate.eigvec)))
    return [
        CheckResult(
            name="disc-alignment",
            passed=worst_spread < 1e-8,
            detail=f"worst relative left-end spread {worst_spread:.3e} "
                   f"over {n} random graph metrics (tolerance 1e-8)"),
        CheckResult(
            name="first-eigenvector-positivity",
            passed=min_entry > 1e-10,
            detail=f"smallest eigenvector entry {min_entry:.3e} "
                   f"(must exceed 1e-10)"),
    ]


def check_gershgorin_bound(n: int = 300, max_dim: int = 20,
                           seed: int = 1) -> CheckResult:
    """min disc left-end <= lambda_min for arbitrary symmetric matrices."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        dim = int(rng.integers(2, max_dim + 1))
        a = rng.normal(size=(dim, dim))
        m = SymmetricMatrix((a + a.T) / 2.0)
        lam = smallest_eigenpair_dense(m).value
        excess = float(np.min(gershgorin_left_ends(m))) - lam
        worst = max(worst, excess)
    return CheckResult(
        name="gershgorin-lower-bound",
        passed=worst <= 1e-10,
        detail=f"max (min left-end - lambda_min) = {worst:.3e} over {n} "
               f"random symmetric matrices (must be <= 0)")


def check_scaling_invariance(n: int = 200, seed: int = 2) -> CheckResult:
    """scaled_left_ends(m, c*s) == scaled_left_ends(m, s) for c > 0.

    Bitwise equality for power-of-two c (exact float scaling through the
    ratio form); 1e-12 otherwise.
    """
    from .core import GershgorinScalars

    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(n):
        dim = int(rng.integers(2, 12))
        g = random_graph_metric(rng, dim)
        s = GershgorinScalars(rng.uniform(0.1, 10.0, size=dim))
        base = scaled_left_ends(g.matrix, s)
        pow2 = scaled_left_ends(g.matrix, GershgorinScalars(s.values * 4.0))
        if not np.array_equal(base, pow2):
            ok = False
        c = float(rng.uniform(0.3, 7.0))
        general = scaled_left_ends(g.matrix, GershgorinScalars(s.values * c))
        worst = max(worst, float(np.max(np.abs(general - base))))
    return CheckResult(
        name="scaling-invariance",
        passed=ok and worst <= 1e-12,
        detail=f"power-of-two scaling bitwise equal: {ok}; worst general "
               f"scaling deviation {worst:.3e} (tolerance 1e-12)")


def check_lobpcg_vs_dense(n: int = 200, max_dim: int = 50,
                          seed: int = 3) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_dot = 1.0
    for _ in range(n):
        dim = int(rng.integers(2, max_dim + 1))
        m = random_spd(rng, dim)
        dense = smallest_eigenpair_dense(m)
        it = smallest_eigenpair_lobpcg(m, tol=1e-10, max_iters=500)
        gap = abs(it.value - dense.value) / max(1.0, abs(dense.value))
        worst_gap = max(worst_gap, gap)
        worst_dot = min(worst_dot, abs(float(it.vector @ dense.vector)))
    return CheckResult(
        name="lobpcg-vs-dense",
        passed=worst_gap <= 1e-8 and worst_dot >= 1.0 - 1e-6,
        detail=f"worst |lambda gap| {worst_gap:.3e} (<=1e-8), worst "
               f"|<v_it, v_dense>| {worst_dot:.9f} (>=1-1e-6) over {n} SPD "
               f"matrices")


def check_diagonal_lp_equivalence(n: int = 500, seed: int = 4) -> CheckResult:
    """Closed-form diagonal LP vertex agrees with scipy's HiGHS solver."""
    # imported here so that importing the package never loads scipy.optimize
    from scipy.optimize import linprog

    highs_status = {0: lp.OPTIMAL, 2: lp.INFEASIBLE}
    rng = np.random.default_rng(seed)
    worst = 0.0
    status_mismatch = 0
    for _ in range(n):
        dim = int(rng.integers(2, 9))
        g = rng.normal(size=dim)
        lb = rng.uniform(0.0, 1.0, size=dim)
        cap = float(np.sum(lb) + rng.uniform(-0.3, 2.0))
        fast = lp.solve_diagonal_lp(g, lb, cap)
        ref = linprog(g, A_ub=np.ones((1, dim)), b_ub=[cap],
                      bounds=[(low, None) for low in lb], method="highs")
        if fast.status != highs_status.get(ref.status):
            status_mismatch += 1
            continue
        if fast.status == lp.OPTIMAL:
            worst = max(worst, abs(fast.objective_value - ref.fun))
    return CheckResult(
        name="diagonal-lp-equivalence",
        passed=status_mismatch == 0 and worst <= 1e-9,
        detail=f"{status_mismatch} status mismatches with HiGHS, worst "
               f"objective difference {worst:.3e} over {n} instances "
               f"(tolerance 1e-9)")


def _random_objective_instance(rng: np.random.Generator
                               ) -> tuple[ObjectiveContext, SymmetricMatrix]:
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


def check_gradients(n: int = 100, seed: int = 5) -> CheckResult:
    """Analytic gradients vs central finite differences, 1e-5 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        ctx, m = _random_objective_instance(rng)
        ana = glr_grad_diag(ctx, m)
        ref = fd_grad_diag(ctx, m)
        scale = max(1.0, float(np.max(np.abs(ana))))
        worst = max(worst, float(np.max(np.abs(ana - ref))) / scale)
        col = int(rng.integers(0, m.dim))
        ana_c = glr_grad_offdiag_col(ctx, m, col)
        ref_c = fd_grad_offdiag_col(ctx, m, col)
        scale_c = max(1.0, float(np.max(np.abs(ana_c))))
        worst = max(worst, float(np.max(np.abs(ana_c - ref_c))) / scale_c)
    return CheckResult(
        name="gradient-finite-differences",
        passed=worst <= 1e-5,
        detail=f"worst relative gradient error {worst:.3e} over {n} "
               f"instances (tolerance 1e-5)")


def check_objective_convexity(n: int = 100, seed: int = 6) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        ctx, _ = _random_objective_instance(rng)
        k = ctx.num_features
        m1 = random_graph_metric(rng, k).matrix
        m2 = random_graph_metric(rng, k).matrix
        q1, q2 = glr_value(ctx, m1), glr_value(ctx, m2)
        for t in (0.25, 0.5, 0.75):
            mid = SymmetricMatrix(t * m1.entries + (1 - t) * m2.entries)
            excess = glr_value(ctx, mid) - (t * q1 + (1 - t) * q2)
            worst = max(worst, excess)
    return CheckResult(
        name="objective-convexity",
        passed=worst <= 1e-10,
        detail=f"worst segment convexity violation {worst:.3e} "
               f"(tolerance 1e-10)")


def check_mahalanobis_properties(n: int = 200, seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n):
        dim = int(rng.integers(2, 8))
        g = random_graph_metric(rng, dim)
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        d_ab = mahalanobis(a, b, g.matrix)
        d_ba = mahalanobis(b, a, g.matrix)
        ok &= d_ab == d_ba
        ok &= mahalanobis(a, a, g.matrix) == 0.0
        ok &= d_ab > 0.0 or np.allclose(a, b)
    return CheckResult(
        name="mahalanobis-properties",
        passed=bool(ok),
        detail=f"symmetry and PD positivity over {n} random pairs")


def run_all(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    scale = 0.1 if quick else 1.0

    def count(base: int) -> int:
        return max(10, int(base * scale))

    results = []
    results += check_disc_alignment(n=count(1000), seed=seed)
    results.append(check_gershgorin_bound(n=count(300), seed=seed + 1))
    results.append(check_scaling_invariance(n=count(200), seed=seed + 2))
    results.append(check_lobpcg_vs_dense(n=count(200), seed=seed + 3))
    results.append(check_diagonal_lp_equivalence(n=count(500), seed=seed + 4))
    results.append(check_gradients(n=count(100), seed=seed + 5))
    results.append(check_objective_convexity(n=count(100), seed=seed + 6))
    results.append(check_mahalanobis_properties(n=count(200), seed=seed + 7))
    return results
