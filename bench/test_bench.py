"""Tests of the benchmark's own arithmetic and outside-in detection.

Run from the repository root:  python3 -m pytest -q bench
"""

from dataclasses import replace

import numpy as np
import pytest

import run
from tracer import (OFFDIAG_NO_PROGRESS, OFFDIAG_SKIPPED, OFFDIAG_UNCHANGED,
                    OFFDIAG_USEFUL, Tracer, offdiag_outcome, package_targets,
                    patched, self_times, summarize)

gm = run.load_package()
optimizer = gm.optimizer


def tiny_problem(seed=3, n=12, k=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    z = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    x[z > 0, 0] += 1.5  # feature 0 separates the labels
    return gm.ObjectiveContext(features=x, labels=z)


def aligned_state(ctx, cfg):
    state = optimizer.initial_state(ctx, cfg)
    return optimizer.update_scalars(state, rho=cfg.rho)


def traced(fn, *args, **kwargs):
    """Call ``fn`` with the package instrumented; (result, tracer)."""
    tracer = Tracer()
    with patched(package_targets(tracer, gm)):
        out = fn(*args, **kwargs)
    return out, tracer


# -- tail percentile rule ---------------------------------------------------

def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    assert run.tail_percentile(30) == pytest.approx(100 * 20 / 30)
    assert run.tail_percentile(100) == pytest.approx(90.0)
    assert run.tail_percentile(11) == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_harrell_davis_quantiles():
    samples = list(range(30, 0, -1))  # order must not matter
    assert run.hd_quantile(samples, 0.5) == pytest.approx(15.5)  # symmetric
    assert run.hd_quantile([7.0] * 12, 0.9) == pytest.approx(7.0)
    low, high = (run.hd_quantile(samples, q) for q in (0.2, 0.8))
    assert 1 < low < 15.5 < high < 30
    # near the nearest-rank value the tail rule picks
    assert run.hd_quantile(samples, run.tail_percentile(30) / 100) == \
        pytest.approx(20, abs=1.0)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 3], b [4, 8] -> c [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_recorded_spans_nest_and_add_up():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf(), leaf()])
    top = tracer.wrap("top", lambda: [mid(), leaf()])
    top()
    spans = tracer.arrays()
    names = [spans["names"][c] for c in spans["code"]]
    assert names == ["top", "mid", "leaf", "leaf", "leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1, 0]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    assert np.all(own >= 0)
    dur = spans["end"] - spans["start"]
    assert own.sum() == pytest.approx(dur[0])


# -- outside detection ----------------------------------------------------------

def test_offdiag_outcomes_from_object_identity():
    ctx = tiny_problem()
    cfg = gm.OptimizerConfig().resolve(ctx.num_features)
    before = aligned_state(ctx, cfg)
    kept = replace(before, objective_trace=before.objective_trace + (1.0,))
    recertified = replace(before, metric=gm.GraphMetric(
        matrix=gm.SymmetricMatrix(before.metric.matrix.entries.copy()),
        certificate=before.metric.certificate))
    moved = optimizer.diagonal_step(before, ctx, cfg)
    assert offdiag_outcome(before, before) == OFFDIAG_SKIPPED
    assert offdiag_outcome(before, kept) == OFFDIAG_NO_PROGRESS
    assert offdiag_outcome(before, recertified) == OFFDIAG_UNCHANGED
    assert offdiag_outcome(before, moved) == OFFDIAG_USEFUL


def test_offdiag_steps_classified_in_a_traced_learn():
    """The wrapper's per-step codes agree with the learner's own events."""
    ctx = tiny_problem()
    events = []
    observe = lambda event, state: events.append((event, state))  # noqa: E731
    result, tracer = traced(gm.learn_metric, ctx, observer=observe)
    expected = [offdiag_outcome(prev, state)
                for (_, prev), (event, state) in zip(events, events[1:])
                if event == "offdiag"]
    spans = tracer.arrays()
    code = list(spans["names"]).index("optimizer.offdiag_step")
    assert spans["info"][spans["code"] == code].tolist() == expected
    assert len(expected) == ctx.num_features * result.outer_iterations


@pytest.mark.parametrize("cap", [1, 2, 100])
def test_diagonal_cap_hit_matches_more_iterations(cap):
    """A step hit the cap exactly when more iterations would change it."""
    ctx = tiny_problem()
    cfg = gm.OptimizerConfig(fw_max_iters=cap).resolve(ctx.num_features)
    state = aligned_state(ctx, cfg)
    # looked up inside the patch, where the wrapped name is in place
    out, tracer = traced(lambda: optimizer.diagonal_step(state, ctx, cfg))
    layer = summarize(tracer.arrays(), fw_max_iters=cap)
    longer = optimizer.diagonal_step(state, ctx,
                                     replace(cfg, fw_max_iters=cap + 50))
    changed = not np.array_equal(out.metric.matrix.entries,
                                 longer.metric.matrix.entries)
    assert layer["optimizer.diagonal_step.calls"] == 1
    assert layer["optimizer.diagonal_step.cap_hits"] == int(changed)
    assert layer["optimizer.diagonal_step.fw_iters"] <= cap
    if cap == 1:
        assert changed  # the input exercises a real cap hit


def test_tracing_changes_no_result_and_restores_the_package():
    ctx = tiny_problem()
    originals = (gm.objective.glr_value, gm.SymmetricMatrix.__post_init__,
                 gm.optimizer.offdiag_step, gm.core.is_connected)
    plain = gm.learn_metric(ctx)
    result, tracer = traced(gm.learn_metric, ctx)
    assert result.objective_trace == plain.objective_trace
    assert np.array_equal(result.metric.matrix.entries,
                          plain.metric.matrix.entries)
    assert len(tracer.code) > 0
    assert (gm.objective.glr_value, gm.SymmetricMatrix.__post_init__,
            gm.optimizer.offdiag_step, gm.core.is_connected) == originals
