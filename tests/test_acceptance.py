"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (run with ``pytest -s`` to see them all);
a failing criterion fails its test.  Criteria 2 and 3 share one batch of
1000 random graph metrics; criteria 4, 5 and 8 share one battery of 20
instrumented optimizer runs.  Criterion 9 is the desk-scale protocol
on iris and wine (bundled CSVs); the seeds dataset is checked when a CSV is
supplied at data/seeds.csv or $GRAPHMETRIC_SEEDS_CSV.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from graphmetric.core import (Certificate, GershgorinPolytope,
                              SymmetricMatrix, validate_graph_metric)
from graphmetric.data import load_csv, standardize
from graphmetric.eigen import (DEFAULT_MAX_ITERS, smallest_eigenpair_dense,
                               smallest_eigenpair_lobpcg, LobpcgNonConvergence)
from graphmetric.experiment import run_experiment
from graphmetric.objective import ObjectiveContext, pair_distances
from graphmetric.optimizer import (OptimizerConfig, _EIG_TOL, diagonal_step,
                                   learn_metric, update_scalars)
from helpers import (GLRAtMatrix, alignment_scalars, fd_grad_diag,
                     fd_grad_offdiag_col, gaussian_blobs_dataset,
                     gershgorin_left_ends, grid_search_diag,
                     random_graph_metric, random_objective_instance,
                     random_spd)

EX_MATRIX = SymmetricMatrix([[2.0, -2.0, -1.0],
                             [-2.0, 5.0, -2.0],
                             [-1.0, -2.0, 4.0]])

N_JOBS = min(2, os.cpu_count() or 1)


def _report(num, detail):
    print(f"[criterion {num:>3}] PASS  {detail}")


# ---------------------------------------------------------------- battery

class _RunLog:
    def __init__(self, cfg):
        self.cfg = cfg
        self.margin_events = []   # min scaled left-end of each aligned state
        self.iterates = []        # matrix after every event
        self.trace = ()

    def observer(self, event, state):
        # M^0 and each block step's result carry scalars aligned to their
        # own certificate; at these K (<= 16) "outer" repeats the last
        # column step's state
        if event != "outer":
            ends = GershgorinPolytope(state.metric.matrix,
                                      state.scalars).left_ends
            self.margin_events.append(float(np.min(ends)))
        self.iterates.append(state.metric.matrix)
        self.trace = state.objective_trace


@pytest.fixture(scope="module")
def optimizer_battery():
    """20 synthetic learn_metric runs with full instrumentation."""
    runs = []
    rng = np.random.default_rng(2024)
    for i in range(20):
        k = int(rng.integers(3, 9))
        ds = gaussian_blobs_dataset(rng, n_classes=int(rng.integers(2, 4)),
                                    n_per_class=int(rng.integers(8, 17)),
                                    num_features=k,
                                    spread=float(rng.uniform(0.6, 1.4)),
                                    separation=float(rng.uniform(1.5, 3.5)))
        feats, _, _ = standardize(ds.features, ds.features)
        z = np.where(ds.labels == 0, 1.0, -1.0)
        ctx = ObjectiveContext(features=feats, labels=z)
        cfg = OptimizerConfig().resolve(k)
        log = _RunLog(cfg)
        result = learn_metric(ctx, cfg, observer=log.observer)
        log.trace = tuple(result.objective_trace)
        runs.append(log)
    return runs


@pytest.fixture(scope="module")
def alignment_batch():
    """1000 random graph metrics (K 2..30): worst relative aligned left-end
    spread, smallest certified eigenvector entry, and the batch's seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_spread, min_entry = 0.0, np.inf
    for _ in range(1000):
        g = random_graph_metric(rng, int(rng.integers(2, 31)))
        ends = GershgorinPolytope(g.matrix, alignment_scalars(g)).left_ends
        spread = float(np.max(ends) - np.min(ends))
        worst_spread = max(worst_spread,
                           spread / max(1.0, g.certificate.lambda_min))
        min_entry = min(min_entry, float(np.min(g.certificate.eigvec)))
        # the certificate does not depend on the sign the solver returned
        pair = smallest_eigenpair_dense(g.matrix)
        assert (Certificate.from_pair(pair.value, pair.vector).eigvec.tobytes()
                == Certificate.from_pair(pair.value, -pair.vector)
                .eigvec.tobytes())
    return worst_spread, min_entry, time.perf_counter() - start


# ---------------------------------------------------------------- criteria

def test_criterion_01_worked_example():
    start = time.perf_counter()
    ends = gershgorin_left_ends(EX_MATRIX)
    assert ends.tolist() == [-1.0, 1.0, 1.0]
    g = validate_graph_metric(EX_MATRIX)
    lam = g.certificate.lambda_min
    assert abs(lam - 0.1078) <= 1e-3
    dense = smallest_eigenpair_dense(EX_MATRIX).value
    assert abs(lam - dense) <= 1e-8
    aligned = GershgorinPolytope(EX_MATRIX, alignment_scalars(g)).left_ends
    spread = float(np.max(aligned) - np.min(aligned))
    assert spread < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"left-ends (-1, 1, 1); lambda_min {lam:.6f} ~ 0.1078; "
               f"aligned spread {spread:.2e}; {1e3 * elapsed:.1f} ms")


def test_criterion_02_disc_alignment_suite(alignment_batch):
    worst_spread, _, elapsed = alignment_batch
    assert worst_spread < 1e-8
    assert elapsed < 30.0
    _report(2, f"worst relative left-end spread {worst_spread:.3e} over 1000 "
               f"random graph metrics (< 1e-8); {elapsed:.1f} s")


def test_criterion_03_eigenvector_positivity_suite(alignment_batch):
    _, min_entry, _ = alignment_batch
    assert min_entry > 1e-10
    _report(3, f"smallest eigenvector entry {min_entry:.3e} (> 1e-10)")


def test_criterion_04_feasibility_after_scalar_updates(optimizer_battery):
    violations = 0
    total = 0
    worst = np.inf
    for run in optimizer_battery:
        floor = run.cfg.rho - 1e-9
        for margin in run.margin_events:
            total += 1
            worst = min(worst, margin - run.cfg.rho)
            violations += margin < floor
    assert total >= 20
    assert violations == 0
    _report(4, f"{total} aligned states across 20 runs, 0 violations "
               f"(worst margin above rho {worst:+.2e})")


def test_criterion_05_pd_by_construction(optimizer_battery):
    checked = 0
    for run in optimizer_battery:
        floor = run.cfg.rho - 1e-9
        for matrix in run.iterates:
            lam = smallest_eigenpair_dense(matrix).value
            assert lam >= floor
            assert matrix.trace() <= run.cfg.trace_cap + 1e-9
            checked += 1
    _report(5, f"{checked} iterates dense-verified: lambda_min >= rho - 1e-9 "
               f"and trace <= cap + 1e-9")


def _relative_error(analytic, reference):
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - reference))) / scale


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        ctx, m = random_objective_instance(rng)
        glr = GLRAtMatrix(ctx)
        worst = max(worst, _relative_error(glr.grad_diag(m),
                                           fd_grad_diag(ctx, m)))
        col = int(rng.integers(0, m.dim))
        worst = max(worst, _relative_error(glr.grad_offdiag_col(m, col),
                                           fd_grad_offdiag_col(ctx, m, col)))
    assert worst <= 1e-5
    _report(6, f"worst relative gradient error {worst:.3e} over 100 "
               f"instances, diagonal and one column each (<= 1e-5)")


def test_criterion_07_oracle_equivalence():
    # the closed-form LP vertices are checked against HiGHS in test_lp.py
    rng = np.random.default_rng(3)
    worst_gap, worst_dot = 0.0, 1.0
    for _ in range(200):
        m = random_spd(rng, int(rng.integers(2, 51)))
        dense = smallest_eigenpair_dense(m)
        it = smallest_eigenpair_lobpcg(m, tol=1e-10, max_iters=500)
        worst_gap = max(worst_gap, abs(it.value - dense.value)
                        / max(1.0, abs(dense.value)))
        worst_dot = min(worst_dot, abs(float(it.vector @ dense.vector)))
    assert worst_gap <= 1e-8
    assert worst_dot >= 1.0 - 1e-6

    # K=3 diagonal step vs exhaustive grid search on the same polytope
    rng = np.random.default_rng(77)
    feats = rng.normal(size=(8, 3))
    z = rng.choice([-1.0, 1.0], size=8)
    z[:2] = [1.0, -1.0]
    ctx = ObjectiveContext(features=feats, labels=z)
    base = SymmetricMatrix([[0.1, -0.03, 0.0],
                            [-0.03, 0.1, -0.03],
                            [0.0, -0.03, 0.1]])
    from graphmetric.core import GershgorinScalars
    from graphmetric.optimizer import OptimizerState
    g = validate_graph_metric(base)
    state = OptimizerState(metric=g, scalars=GershgorinScalars(np.ones(3)),
                           objective_trace=(0.0,),
                           point=pair_distances(ctx, g.matrix))
    state = update_scalars(state, rho=1e-4)
    lb = GershgorinPolytope(base, state.scalars).radii + 1e-4
    cap = float(np.sum(lb)) + 0.2
    cfg = OptimizerConfig(trace_cap=cap, rho=1e-4, epsilon=0.03,
                          fw_max_iters=3000, obj_rel_tol=1e-12).resolve(3)
    out = diagonal_step(state, ctx, cfg)
    grid_best = grid_search_diag(ctx, base, lb, cap, step=1e-3)
    gap = float(np.max(np.abs(out.metric.matrix.diagonal() - grid_best)))
    assert gap <= 5e-3
    _report(7, f"LOBPCG vs dense over 200 SPD matrices: worst |lambda gap| "
               f"{worst_gap:.3e} (<= 1e-8), worst |<v_it, v_dense>| "
               f"{worst_dot:.9f} (>= 1-1e-6); grid-search gap {gap:.2e} "
               f"(<= 5e-3)")


def test_criterion_08_monotone_objective(optimizer_battery):
    for run in optimizer_battery:
        tr = run.trace
        assert all(tr[i + 1] <= tr[i] + 1e-10 for i in range(len(tr) - 1))
    steps = sum(len(r.trace) - 1 for r in optimizer_battery)
    _report(8, f"objective trace non-increasing (1e-10 slack) over "
               f"{steps} recorded steps in 20 line-search runs")


def _protocol_check(num, name, path, label_col, reference_pct):
    dataset = load_csv(path, label_column=label_col)
    start = time.perf_counter()
    report = run_experiment(dataset, classifier_choice="graph",
                            seeds=range(50), folds=2, n_jobs=N_JOBS)
    elapsed = time.perf_counter() - start
    err = report.mean_error["graph"]
    lo, hi = (reference_pct - 4.0) / 100.0, (reference_pct + 4.0) / 100.0
    lo = max(lo, 0.0)
    assert lo <= err <= hi, (
        f"{name}: mean error {100 * err:.2f}% outside "
        f"[{100 * lo:.2f}%, {100 * hi:.2f}%]")
    assert elapsed <= 900.0
    _report(num, f"{name}: graph-classifier mean error {100 * err:.2f}% in "
                 f"[{100 * lo:.2f}%, {100 * hi:.2f}%] "
                 f"(reference {reference_pct}%); {elapsed:.0f} s")


def test_criterion_09a_iris_protocol():
    _protocol_check("9a", "iris", Path("data/iris.csv"), "class", 4.12)


def test_criterion_09b_wine_protocol():
    _protocol_check("9b", "wine", Path("data/wine.csv"), "class", 4.19)


def test_criterion_09c_seeds_protocol():
    path = os.environ.get("GRAPHMETRIC_SEEDS_CSV", "data/seeds.csv")
    if not Path(path).exists():
        pytest.skip("seeds dataset not bundled; place the UCI seeds CSV at "
                    "data/seeds.csv or set GRAPHMETRIC_SEEDS_CSV")
    _protocol_check("9c", "seeds", Path(path), -1, 6.61)


def test_criterion_10_warm_start_benefit():
    rng = np.random.default_rng(99)
    cfg = OptimizerConfig(outer_max_iters=12, obj_rel_tol=1e-15)
    captured = []
    previous = None

    def observer(event, state):
        # a block step that moves the metric certifies the new matrix; the
        # replay below solves it with LOBPCG warm-started from the
        # eigenvector of the state it was given
        nonlocal previous
        if (event in ("diagonal", "offdiag")
                and state.metric is not previous.metric):
            captured.append((state.metric.matrix,
                             previous.metric.certificate.eigvec))
        previous = state

    # a short learn certifies up to 9 block steps per outer iteration, so
    # learns on fresh datasets are pooled until 60 solves are captured
    for _ in range(10):
        if len(captured) >= 60:
            break
        ds = gaussian_blobs_dataset(rng, n_classes=2, n_per_class=12,
                                    num_features=8, separation=1.2)
        feats, _, _ = standardize(ds.features, ds.features)
        ctx = ObjectiveContext(features=feats,
                               labels=np.where(ds.labels == 0, 1.0, -1.0))
        learn_metric(ctx, cfg, observer=observer)
    captured = captured[:60]
    assert len(captured) >= 50, "run too short to measure 50 block steps"

    def iterations(matrix, warm_start):
        # replays the certification solve; a budget overrun counts in full
        try:
            return smallest_eigenpair_lobpcg(matrix, warm_start=warm_start,
                                             tol=_EIG_TOL).iterations
        except LobpcgNonConvergence:
            return DEFAULT_MAX_ITERS

    warm = [iterations(matrix, vec) for matrix, vec in captured]
    cold = [iterations(matrix, None) for matrix, _ in captured]
    assert np.mean(warm) > 0, "warm solves took no iterations: nothing measured"
    assert np.mean(warm) <= np.mean(cold)
    _report(10, f"{len(captured)} certification solves after block steps: "
                f"mean warm iterations {np.mean(warm):.2f} <= mean cold "
                f"{np.mean(cold):.2f}")
