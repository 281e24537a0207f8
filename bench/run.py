"""graphmetric benchmark: learn throughput and latency, with a per-layer trace.

Run from the repository root (needs only numpy and scipy):

    python3 bench/run.py --workload iris-cv --seed 1 --seconds 30 --trace 0
    python3 -m pytest -q bench          # the benchmark's own tests

Each workload is a fixed pool of learning problems; ``--seed`` sets the
order in which the pool runs (see ``POOL_NOTE``):

* ``iris-cv``: ``run_experiment`` on data/iris.csv, both classifiers,
  stratified 2-fold, CV seeds 0..13.  K = 4; the diagonal Frank-Wolfe line
  search dominates and eigen work is a few percent.
* ``wine-cv``: the same protocol on data/wine.csv, CV seeds 0..3.  K = 13;
  off-diagonal column steps, stalled columns and learns that stop at
  ``outer_max_iters`` dominate.
* ``highdim-learn``: one-vs-all ``learn_metric`` on Gaussian blobs made
  here with numpy, never with the package (K = 48, 3 classes of 10
  samples, standardized), ``trace_cap=2``, blob seeds 0..4, no classifier.
  Eigen solves and per-column overhead dominate.

Every run is a closed loop on one thread: each learn starts after the
previous one returned, ``n_jobs=1``, BLAS pinned to one thread.  A run
executes ``max(1, round(seconds / NOMINAL_PASS_S))`` passes over the pool,
so the work in a run is fixed by ``--seconds`` alone.

``--trace 0`` measures set-up in fresh interpreters, then the passes, and
prints the end-to-end metrics.  ``--trace 1`` runs one traced pass with the
package's public functions wrapped from outside (tracer.py), then repeats
the pool's first part untraced and traced, prints the per-layer metrics
and writes the spans to bench/out/.  Both modes check every output; the
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` whose metric names and units are those of BENCHMARK.json.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
package or its data is missing (no result printed).
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import (Tracer, learn_counts, package_targets,  # noqa: E402
                    patched, summarize)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

POOL_NOTE = (
    "inputs are a fixed pool per workload and --seed permutes their order: "
    "learn cost varies 2-4x between CV splits or blob draws, so pools drawn "
    "from --seed would spread learns_per_s far beyond its bound")

FOLDS = 2
BLOB_DIM, BLOB_CLASSES, BLOB_PER_CLASS, BLOB_CENTER_SCALE = 48, 3, 10, 0.5
# The default trace cap C = K makes every edge weight underflow at K = 48.
BLOB_TRACE_CAP = 2.0

TRACE_SLACK = 1e-10  # acceptance criterion 8's monotonicity slack
TAIL_BEYOND = 10
SETUP_REPEATS = 5
REPLAY_SAMPLES, REPLAY_REPEATS = 512, 3


# Pools are sized so one pass takes about this long on a 2-core x86 box.
NOMINAL_PASS_S = 28.0


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[int, ...]
    csv: str | None = None  # None: Gaussian blobs


WORKLOADS = {w.name: w for w in (
    Workload("iris-cv", tuple(range(14)), csv="data/iris.csv"),
    Workload("wine-cv", tuple(range(4)), csv="data/wine.csv"),
    Workload("highdim-learn", tuple(range(5))),
)}


class MissingPackage(RuntimeError):
    """The checkout lacks the package source or the workload's data."""


def load_package():
    """Import graphmetric from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphmetric" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {src / 'graphmetric'}")
    sys.path.insert(0, str(src))
    gm = importlib.import_module("graphmetric")
    if Path(gm.__file__).resolve().parent != (src / "graphmetric").resolve():
        raise MissingPackage(f"graphmetric imported from {gm.__file__}")
    return gm


# --------------------------------------------------------------------------
# inputs


def make_blobs(blob_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs, standardized per feature; (features, labels)."""
    rng = np.random.default_rng(blob_seed)
    labels = np.repeat(np.arange(BLOB_CLASSES), BLOB_PER_CLASS)
    centers = rng.normal(0.0, BLOB_CENTER_SCALE, (BLOB_CLASSES, BLOB_DIM))
    x = centers[labels] + rng.normal(size=(labels.size, BLOB_DIM))
    return (x - x.mean(axis=0)) / x.std(axis=0), labels


@dataclass
class Prepared:
    gm: object
    workload: Workload
    order: tuple[int, ...]            # CV workloads: CV seeds in run order
    cfg: object                       # OptimizerConfig
    warm_ctx: object                  # context of the first learn
    dataset: object = None            # CV workloads
    tasks: list = field(default_factory=list)  # blobs: ((blob, cls), ctx)


def prepare(workload: Workload, seed: int) -> Prepared:
    """Set-up up to the first learn: import, load or generate, contexts."""
    gm = load_package()
    rng = np.random.default_rng(seed)
    if workload.csv is not None:
        path = ROOT / workload.csv
        if not path.is_file():
            raise MissingPackage(f"no dataset at {path}")
        dataset = gm.load_csv(path, label_column="class")
        order = tuple(int(s) for s in rng.permutation(workload.pool))
        test_idx = gm.experiment.stratified_folds(
            dataset.labels, FOLDS, np.random.default_rng(order[0]))[0]
        train = np.setdiff1d(np.arange(dataset.num_samples), test_idx)
        x_train, _, _ = gm.standardize(dataset.features[train],
                                       dataset.features[test_idx])
        z = np.where(dataset.labels[train] == 0, 1.0, -1.0)
        ctx = gm.ObjectiveContext(features=x_train, labels=z)
        ctx.pair_cache  # noqa: B018 -- built lazily; part of set-up
        return Prepared(gm, workload, order, gm.OptimizerConfig(), ctx,
                        dataset=dataset)
    tasks = []
    for blob in workload.pool:
        x, y = make_blobs(blob)
        for cls in range(BLOB_CLASSES):
            ctx = gm.ObjectiveContext(features=x,
                                      labels=np.where(y == cls, 1.0, -1.0))
            ctx.pair_cache  # noqa: B018
            tasks.append(((blob, cls), ctx))
    tasks = [tasks[i] for i in rng.permutation(len(tasks))]
    return Prepared(gm, workload, (),
                    gm.OptimizerConfig(trace_cap=BLOB_TRACE_CAP),
                    tasks[0][1], tasks=tasks)


def measure_setup(workload: Workload, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# --------------------------------------------------------------------------
# passes


class LearnLog:
    """Callable standing in for ``learn_metric``: records latency and result."""

    def __init__(self, learn, tracer=None):
        self.learn = learn
        self.tracer = tracer
        self.latency_s: list[float] = []
        self.results: list = []  # LearnResult, or None when the learn raised

    def __call__(self, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.learn_id = len(self.results)
        result = None
        t0 = time.perf_counter()
        try:
            result = self.learn(*args, **kwargs)
            return result
        finally:
            self.latency_s.append(time.perf_counter() - t0)
            self.results.append(result)
            if self.tracer is not None:
                self.tracer.learn_id = -1


@dataclass
class PassResult:
    wall_s: float
    latency_s: list[float]
    results: list
    keys: list[tuple]                 # (cv seed, fold, class) or (blob, class)
    report: object = None             # ExperimentReport on CV workloads
    error: str | None = None          # why the pass stopped early

    @property
    def completed(self) -> list:
        return [r for r in self.results if r is not None]


def run_pass(prep: Prepared, tracer=None, on_lobpcg=None) -> PassResult:
    """One pass over the pool, optionally traced."""
    gm = prep.gm
    experiment = gm.experiment
    learn = gm.optimizer.learn_metric
    run_experiment = experiment.run_experiment
    targets = []
    if tracer is not None:
        learn = tracer.wrap("optimizer.learn_metric", learn)
        run_experiment = tracer.wrap("experiment.run_experiment", run_experiment)
        targets = package_targets(tracer, gm, on_lobpcg=on_lobpcg)
    log = LearnLog(learn, tracer)
    report, error = None, None
    with patched(targets + [(experiment, "learn_metric", log)]):
        t0 = time.perf_counter()
        if prep.dataset is not None:
            try:
                report = run_experiment(prep.dataset, prep.cfg,
                                        classifier_choice="both",
                                        seeds=prep.order, folds=FOLDS,
                                        n_jobs=1)
            except Exception as exc:  # recorded as a failed learn below
                error = f"{type(exc).__name__}: {exc}"
        else:
            for _, ctx in prep.tasks:
                try:
                    log(ctx, prep.cfg)
                except Exception as exc:  # recorded as a failed learn
                    error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if prep.dataset is not None:
        classes = prep.dataset.num_classes
        keys = [(prep.order[i // (FOLDS * classes)], (i // classes) % FOLDS,
                 i % classes) for i in range(len(log.results))]
    else:
        keys = [key for key, _ in prep.tasks]
    return PassResult(wall, log.latency_s, log.results, keys, report, error)


def fingerprint(p: PassResult) -> str:
    """Canonical text of a pass's outputs, for byte-identity checks."""
    if p.report is not None:
        return p.report.to_json()
    return json.dumps([
        [list(key), r.metric.matrix.entries.tolist(), list(r.objective_trace),
         r.outer_iterations, r.converged]
        for key, r in sorted(zip(p.keys, p.results), key=lambda kr: kr[0])
        if r is not None])


def check_pass(gm, p: PassResult) -> dict[str, set[int]]:
    """Output checks; each maps to the indices of the learns it failed."""
    failed = {"raised": set(), "graph_metric": set(), "monotone_trace": set()}
    for i, r in enumerate(p.results):
        if r is None:
            failed["raised"].add(i)
            continue
        try:
            gm.validate_graph_metric(r.metric.matrix)
        except gm.GraphMetricRejection:
            failed["graph_metric"].add(i)
        tr = r.objective_trace
        if any(b > a + TRACE_SLACK for a, b in zip(tr, tr[1:])):
            failed["monotone_trace"].add(i)
    if p.error is not None and not failed["raised"]:
        # the pass stopped after its last learn returned (classification)
        failed["raised"].add(len(p.results) - 1)
    if p.report is not None:
        bad = {(r.seed, r.fold) for r in p.report.records
               if not math.isfinite(r.error)}
        if not all(math.isfinite(e) for e in p.report.mean_error.values()):
            bad = {key[:2] for key in p.keys}
        failed["finite_error"] = {i for i, key in enumerate(p.keys)
                                  if key[:2] in bad}
    return failed


class Checks:
    """Failed learns per named check, accumulated over passes."""

    def __init__(self):
        self.failed: dict[str, int] = {}
        self.attempted = 0
        self.bad: set[tuple[int, int]] = set()  # (pass number, learn index)
        self.passes = 0
        self.notes: list[str] = []

    def add_pass(self, gm, p: PassResult) -> int:
        """Check one pass; returns its pass number."""
        number = self.passes
        self.passes += 1
        self.attempted += len(p.results)
        for name, idx in check_pass(gm, p).items():
            self.failed[name] = self.failed.get(name, 0) + len(idx)
            self.bad |= {(number, i) for i in idx}
        if p.error is not None:
            self.notes.append(f"pass stopped: {p.error}")
        return number

    def flag(self, name: str, number: int, learns) -> None:
        """Check ``name`` failed for these learns of pass ``number``."""
        learns = list(learns)
        self.failed[name] = self.failed.get(name, 0) + len(learns)
        self.bad |= {(number, i) for i in learns}

    @property
    def failed_learns(self) -> int:
        return len(self.bad)

    @property
    def correct(self) -> bool:
        return self.failed_learns == 0 and self.attempted > 0


# --------------------------------------------------------------------------
# metrics


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest percentile of ``n`` samples that has at least ``beyond``
    samples above it (nearest rank)."""
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return 100.0 * (n - beyond) / n


def hd_quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of all
    order statistics.  Unlike the single nearest-rank sample it does not
    jump with the timing noise of whichever learn sits at the rank."""
    from scipy.special import betainc

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def geometric_mean_ratio(results) -> float:
    logs = [math.log(r.objective_trace[-1] / r.objective_trace[0])
            for r in results if r.objective_trace[0] > 0]
    return math.exp(statistics.fmean(logs))


def end_to_end(passes: list[PassResult], checks: Checks, setup_s: float
               ) -> tuple[dict[str, float], list[str]]:
    done = [r for p in passes for r in p.completed]
    latency = [t for p in passes
               for t, r in zip(p.latency_s, p.results) if r is not None]
    pct = tail_percentile(len(latency))
    m = {
        "setup_s": setup_s,
        "learns_per_s": len(done) / sum(p.wall_s for p in passes),
        "learn_p50_ms": 1e3 * hd_quantile(latency, 0.5),
        "learn_tail_ms": 1e3 * hd_quantile(latency, pct / 100.0),
        "objective_ratio": geometric_mean_ratio(done),
        "converged_frac": sum(r.converged for r in done) / checks.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"learn_tail_ms is p{pct:.1f} of {len(latency)} learns",
             f"unconverged_frac = {1 - m['converged_frac']:.6g} ratio",
             f"fail_frac = {checks.failed_learns / checks.attempted:.6g} ratio"]
    report = passes[0].report
    if report is not None:
        for name in report.classifiers:
            notes.append(f"{name}_error_pct = "
                         f"{100 * report.mean_error[name]:.6g} %")
    return m, notes


class Reservoir:
    """Uniform sample of fixed size from a stream (seeded, so repeatable)."""

    def __init__(self, size: int):
        self.size = size
        self.items: list = []
        self.seen = 0
        self._rng = np.random.default_rng(0)

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = int(self._rng.integers(self.seen))
            if j < self.size:
                self.items[j] = item


def eigen_replay(gm, samples) -> tuple[float, float]:
    """Median µs per call of dense and warm LOBPCG on captured inputs."""
    if not samples:
        return 0.0, 0.0
    eigen = gm.eigen
    dense, lobpcg = [], []
    for _ in range(REPLAY_REPEATS):
        t0 = time.perf_counter()
        for args, kwargs in samples:
            eigen.smallest_eigenpair_dense(args[0])
        t1 = time.perf_counter()
        for args, kwargs in samples:
            try:
                eigen.smallest_eigenpair_lobpcg(*args, **kwargs)
            except eigen.LobpcgNonConvergence:
                pass
        t2 = time.perf_counter()
        dense.append((t1 - t0) / len(samples))
        lobpcg.append((t2 - t1) / len(samples))
    return 1e6 * statistics.median(dense), 1e6 * statistics.median(lobpcg)


def predictions(workload: str, layer: dict[str, float]) -> list[str]:
    """The issue's share predictions, each reported as ok or MISMATCH."""
    steps = ("optimizer.diagonal_step", "optimizer.offdiag_step",
             "optimizer.update_scalars")
    largest = max(steps, key=lambda s: layer[f"share.{s}"])
    lines = []
    expect = ("optimizer.diagonal_step" if workload == "iris-cv"
              else "optimizer.offdiag_step")
    lines.append(f"prediction largest optimizer share is {expect}: "
                 f"{'ok' if largest == expect else 'MISMATCH'} ({largest} "
                 f"{layer[f'share.{largest}']:.3f})")
    if workload == "iris-cv":
        eig = layer["share.eigen"]
        lines.append(f"prediction eigen share < 0.05: "
                     f"{'ok' if eig < 0.05 else 'MISMATCH'} ({eig:.4f})")
    return lines


# --------------------------------------------------------------------------
# runs


def header(workload: Workload, seed: int, prep: Prepared) -> str:
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    order = (list(prep.order) if prep.dataset is not None
             else [key for key, _ in prep.tasks])
    return (f"# graphmetric bench: workload={workload.name} seed={seed} "
            f"pool={list(workload.pool)} order={order} | "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"commit={commit}\n# {POOL_NOTE}")


def warm_up(prep: Prepared) -> None:
    """One short learn so lazy first-call costs stay out of the timings."""
    prep.gm.learn_metric(prep.warm_ctx, replace(prep.cfg, outer_max_iters=1))


def run_untraced(prep: Prepared, args) -> tuple[dict, Checks, list[str]]:
    setup_s = measure_setup(prep.workload, args.seed)
    passes_n = max(1, round(args.seconds / NOMINAL_PASS_S))
    warm_up(prep)
    checks = Checks()
    passes = [run_pass(prep) for _ in range(passes_n)]
    for p in passes:
        number = checks.add_pass(prep.gm, p)
        same = fingerprint(p) == fingerprint(passes[0])
        checks.flag("repeat_identical", number,
                    [] if same else range(len(p.results)))
    if not any(p.completed for p in passes):
        return {}, checks, ["no learn completed"]
    metrics, notes = end_to_end(passes, checks, setup_s)
    return metrics, checks, notes


def run_traced(prep: Prepared, args) -> tuple[dict, Checks, list[str]]:
    """A traced pass over the pool gives the per-layer metrics.  The pool's
    first part then runs again untraced and traced: the two must give
    byte-identical outputs, and the traced repeat must match the traced
    pass's per-learn work counts exactly."""
    gm = prep.gm
    warm_up(prep)
    checks = Checks()
    captured = Reservoir(REPLAY_SAMPLES)
    tracer = Tracer()
    traced = run_pass(prep, tracer,
                      on_lobpcg=lambda a, k: captured.offer((a, dict(k))))
    checks.add_pass(gm, traced)

    if prep.dataset is not None:
        part = replace(prep, order=prep.order[:1])
    else:
        part = replace(prep, tasks=prep.tasks[:BLOB_CLASSES])
    plain = run_pass(part)
    checks.add_pass(gm, plain)
    repeat_tracer = Tracer()
    repeat = run_pass(part, repeat_tracer)
    number = checks.add_pass(gm, repeat)
    identical = fingerprint(repeat) == fingerprint(plain)
    checks.flag("trace_identical", number,
                [] if identical else range(len(repeat.results)))

    first = dict(zip(traced.keys, learn_counts(tracer.arrays(), traced.results)))
    again = dict(zip(repeat.keys, learn_counts(repeat_tracer.arrays(),
                                               repeat.results)))
    differ = [i for i, key in enumerate(repeat.keys)
              if again[key] != first.get(key)]
    checks.flag("counts_repeat", number, differ)
    repeated = ("repeated exactly" if not differ else
                "DIFFER between traced repeats: the workload is not deterministic")
    notes = [f"untraced and traced outputs of {len(plain.results)} learns "
             f"{'identical' if identical else 'DIFFER'}; work counts {repeated}"]

    metrics = summarize(tracer.arrays(), prep.cfg.fw_max_iters)
    metrics["optimizer.outer_iterations"] = sum(
        r.outer_iterations for r in traced.completed)
    metrics["trace.overhead_frac"] = repeat.wall_s / plain.wall_s - 1.0
    dense_us, lobpcg_us = eigen_replay(gm, captured.items)
    metrics["eigen.replay.dense_us"] = dense_us
    metrics["eigen.replay.lobpcg_warm_us"] = lobpcg_us
    notes.append(f"eigen replay on {len(captured.items)} of {captured.seen} "
                 f"warm LOBPCG inputs at K={prep.warm_ctx.num_features}")
    notes += predictions(prep.workload.name, metrics)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{prep.workload.name}-seed{args.seed}.npz"
    np.savez_compressed(path, **tracer.arrays())
    notes.append(f"{len(tracer.code)} spans written to {path.relative_to(ROOT)}")
    return metrics, checks, notes


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        prep = prepare(workload, args.seed)
    except MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(time.perf_counter() - _T0)
        return 0

    print(header(workload, args.seed, prep), flush=True)
    run = run_traced if args.trace else run_untraced
    metrics, checks, notes = run(prep, args)
    for note in notes:
        print(f"# {note}")
    for name, count in checks.failed.items():
        print(f"check {name}: {count} failed of {checks.attempted} learns")
    for note in checks.notes:
        print(f"# {note}")
    units = declared_units(args.trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed_learns,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
