"""Outside-in span tracer for the graphmetric benchmark.

The package itself carries no tracing.  This module wraps its public
functions at the names their callers look up (module attributes, plus
``SymmetricMatrix.__post_init__``), records one span per call in memory
and restores the originals afterwards.  A span is (name, start, end,
parent span, learn id, info); ``info`` is a small per-call outcome code
computed from the arguments and the result, so that skipped columns,
non-optimal LPs and LOBPCG iterations are seen from outside the package.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

# offdiag_step outcome codes, seen from outside: the step returned the same
# state object (column skipped before any LP), the same metric object (the
# q > q0 guard kept the incumbent), a re-certified copy of the same matrix,
# or a matrix that differs from its input.
OFFDIAG_USEFUL, OFFDIAG_SKIPPED, OFFDIAG_NO_PROGRESS, OFFDIAG_UNCHANGED = range(4)

# eigen.lobpcg info when the solver raised LobpcgNonConvergence.
LOBPCG_NONCONVERGED = -1

Inspect = Callable[[tuple, dict, Any], int]


class Tracer:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("q")
        self.parent = array("q")
        self.learn = array("q")
        self.info = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.learn_id = -1

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn: Callable, inspect: Inspect | None = None,
             on_error: Callable[[BaseException], int] | None = None
             ) -> Callable:
        """``fn`` with a span recorded around every call."""
        code = self._code_of(name)

        def traced(*args, **kwargs):
            idx = len(self.code)
            self.code.append(code)
            self.parent.append(self._stack[-1])
            self.learn.append(self.learn_id)
            self.info.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    self.info[idx] = on_error(exc)
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if inspect is not None:
                self.info[idx] = inspect(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "learn": np.frombuffer(self.learn, dtype=np.int64).copy(),
            "info": np.frombuffer(self.info, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]):
    """Set each ``owner.attr = replacement``; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def offdiag_outcome(before, after) -> int:
    """Classify one ``offdiag_step(before, ...) -> after`` from outside."""
    if after is before:
        return OFFDIAG_SKIPPED
    if after.metric is before.metric:
        return OFFDIAG_NO_PROGRESS
    if np.array_equal(after.metric.matrix.entries, before.metric.matrix.entries):
        return OFFDIAG_UNCHANGED
    return OFFDIAG_USEFUL


def package_targets(tracer: Tracer, gm, on_lobpcg: Callable | None = None
                    ) -> list[tuple[object, str, Callable]]:
    """Wrappers for every measured entry point of package ``gm``.

    ``gm`` is the imported ``graphmetric`` package; ``on_lobpcg(args,
    kwargs)`` is called before each warm LOBPCG solve (used to capture
    eigen replay inputs).
    """
    objective, eigen, lp = gm.objective, gm.eigen, gm.lp
    optimizer, experiment, core = gm.optimizer, gm.experiment, gm.core

    def lp_info(args, kwargs, out):
        return int(out.status != lp.OPTIMAL)

    def lobpcg_error(exc):
        nonconverged = isinstance(exc, eigen.LobpcgNonConvergence)
        return LOBPCG_NONCONVERGED if nonconverged else 0

    lobpcg = eigen.smallest_eigenpair_lobpcg
    if on_lobpcg is not None:
        inner = lobpcg

        def lobpcg(*args, **kwargs):
            on_lobpcg(args, kwargs)
            return inner(*args, **kwargs)

    def offdiag_info(args, kwargs, out):
        before = args[0] if args else kwargs["state"]
        return offdiag_outcome(before, out)

    w = tracer.wrap
    connected = w("core.is_connected", core.is_connected)
    return [
        (objective, "glr_value", w("objective.value", objective.glr_value)),
        (objective, "glr_grad_diag",
         w("objective.grad_diag", objective.glr_grad_diag)),
        (objective, "glr_grad_offdiag_col",
         w("objective.grad_offdiag_col", objective.glr_grad_offdiag_col)),
        (eigen, "smallest_eigenpair_lobpcg",
         w("eigen.lobpcg", lobpcg, inspect=lambda a, k, out: out.iterations,
           on_error=lobpcg_error)),
        (eigen, "smallest_eigenpair_dense",
         w("eigen.dense", eigen.smallest_eigenpair_dense)),
        (lp, "solve_diagonal_lp",
         w("lp.diagonal", lp.solve_diagonal_lp, inspect=lp_info)),
        (lp, "solve_box_knapsack_lp",
         w("lp.knapsack", lp.solve_box_knapsack_lp, inspect=lp_info)),
        (optimizer, "diagonal_step",
         w("optimizer.diagonal_step", optimizer.diagonal_step)),
        (optimizer, "offdiag_step",
         w("optimizer.offdiag_step", optimizer.offdiag_step,
           inspect=offdiag_info)),
        (optimizer, "update_scalars",
         w("optimizer.update_scalars", optimizer.update_scalars)),
        (optimizer, "is_connected", connected),
        (core, "is_connected", connected),
        (core.SymmetricMatrix, "__post_init__",
         w("core.SymmetricMatrix", core.SymmetricMatrix.__post_init__)),
        (experiment, "graph_classify",
         w("classify.graph_classify", experiment.graph_classify)),
        (experiment, "knn_vote_scores",
         w("classify.knn_vote_scores", experiment.knn_vote_scores)),
        (experiment, "standardize",
         w("data.standardize", experiment.standardize)),
    ]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray
               ) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one serial run never overlap their siblings, so the children's
    durations add up without double counting.
    """
    dur = end - start
    child_time = np.zeros(dur.shape[0])
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    return dur - child_time


def learn_counts(spans: dict[str, np.ndarray], results: list) -> list[dict]:
    """Per learn: calls and summed outcome codes per span name, and outer
    iterations.  These are work counts; a deterministic learn repeats them
    exactly."""
    names = [str(n) for n in spans["names"]]
    out = [{"outer_iterations": getattr(r, "outer_iterations", None)}
           for r in results]
    for code, learn, info in zip(spans["code"].tolist(),
                                 spans["learn"].tolist(),
                                 spans["info"].tolist()):
        if learn >= 0:
            calls, total = out[learn].get(names[code], (0, 0))
            out[learn][names[code]] = (calls + 1, total + info)
    return out


def summarize(spans: dict[str, np.ndarray], fw_max_iters: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``busy_s`` is a name's total span time; ``self_s`` subtracts the time
    covered by its child spans.  Frank-Wolfe iterations are the gradient
    calls made directly by a block step; a step is a cap hit when it used
    all ``fw_max_iters`` iterations and the last one went on to a line
    search instead of stopping at the gap test.
    """
    names = [str(n) for n in spans["names"]]
    code, parent, info = spans["code"], spans["parent"], spans["info"]
    start, end = spans["start"], spans["end"]
    n = code.shape[0]
    dur = end - start
    has_parent = parent >= 0
    self_time = self_times(parent, start, end)

    def mask(name: str) -> np.ndarray:
        if name not in names:
            return np.zeros(n, dtype=bool)
        return code == names.index(name)

    def calls(name): return int(np.count_nonzero(mask(name)))
    def busy(name): return float(np.sum(dur[mask(name)]))
    def own(name): return float(np.sum(self_time[mask(name)]))

    def per_step(child: str) -> tuple[np.ndarray, np.ndarray]:
        """Per span: number of ``child`` calls it made, start of its last one."""
        m = mask(child) & has_parent
        count = np.bincount(parent[m], minlength=n)
        last = np.full(n, -np.inf)
        np.maximum.at(last, parent[m], start[m])
        return count, last

    _, last_value = per_step("objective.value")
    out: dict[str, float] = {}
    fw_total = 0
    for step, grad in (("optimizer.diagonal_step", "objective.grad_diag"),
                       ("optimizer.offdiag_step", "objective.grad_offdiag_col")):
        is_step = mask(step)
        iters, last_grad = per_step(grad)
        cap = is_step & (iters >= fw_max_iters) & (last_value > last_grad)
        fw = int(np.sum(iters[is_step]))
        fw_total += fw
        out[f"{step}.calls"] = calls(step)
        out[f"{step}.self_s"] = own(step)
        out[f"{step}.fw_iters"] = fw
        out[f"{step}.cap_hits"] = int(np.count_nonzero(cap))

    off = info[mask("optimizer.offdiag_step")]
    out["optimizer.offdiag_step.skipped"] = int(
        np.count_nonzero(off == OFFDIAG_SKIPPED))
    out["optimizer.offdiag_step.no_progress"] = int(
        np.count_nonzero(off == OFFDIAG_NO_PROGRESS))
    out["optimizer.offdiag_step.useful_ratio"] = (
        np.count_nonzero(off == OFFDIAG_USEFUL) / off.size if off.size else 0.0)

    for name in ("objective.value", "objective.grad_diag",
                 "objective.grad_offdiag_col"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    value_calls = out["objective.value.calls"]
    out["objective.value.us_per_call"] = (
        1e6 * out["objective.value.busy_s"] / value_calls if value_calls else 0.0)
    out["optimizer.evals_per_fw_iter"] = value_calls / fw_total if fw_total else 0.0

    out["optimizer.learn_metric.calls"] = calls("optimizer.learn_metric")
    out["optimizer.learn_metric.self_s"] = own("optimizer.learn_metric")
    out["optimizer.update_scalars.calls"] = calls("optimizer.update_scalars")
    out["optimizer.update_scalars.self_s"] = own("optimizer.update_scalars")
    out["core.SymmetricMatrix.constructions"] = calls("core.SymmetricMatrix")
    out["core.SymmetricMatrix.busy_s"] = busy("core.SymmetricMatrix")
    out["core.is_connected.calls"] = calls("core.is_connected")
    out["core.is_connected.busy_s"] = busy("core.is_connected")

    lob = info[mask("eigen.lobpcg")]
    out["eigen.lobpcg.calls"] = int(lob.size)
    out["eigen.lobpcg.busy_s"] = busy("eigen.lobpcg")
    out["eigen.lobpcg.iterations"] = int(np.sum(lob[lob > 0]))
    out["eigen.lobpcg.nonconverged"] = int(
        np.count_nonzero(lob == LOBPCG_NONCONVERGED))
    out["eigen.dense.calls"] = calls("eigen.dense")
    out["eigen.dense.busy_s"] = busy("eigen.dense")

    out["lp.diagonal.calls"] = calls("lp.diagonal")
    out["lp.diagonal.busy_s"] = busy("lp.diagonal")
    out["lp.knapsack.calls"] = calls("lp.knapsack")
    out["lp.knapsack.busy_s"] = busy("lp.knapsack")
    out["lp.non_optimal"] = int(np.count_nonzero(
        info[mask("lp.diagonal") | mask("lp.knapsack")]))

    for name in ("classify.graph_classify", "classify.knn_vote_scores"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    out["data.standardize.busy_s"] = busy("data.standardize")
    out["experiment.run_experiment.self_s"] = own("experiment.run_experiment")

    learn_s = busy("optimizer.learn_metric")
    for name in ("optimizer.diagonal_step", "optimizer.offdiag_step",
                 "optimizer.update_scalars"):
        out[f"share.{name}"] = busy(name) / learn_s if learn_s else 0.0
    out["share.objective"] = (
        (busy("objective.value") + busy("objective.grad_diag")
         + busy("objective.grad_offdiag_col")) / learn_s if learn_s else 0.0)
    out["share.eigen"] = (
        (busy("eigen.lobpcg") + busy("eigen.dense")) / learn_s if learn_s else 0.0)
    return out
