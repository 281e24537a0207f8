"""Paired in-process timing of two checkouts on one benchmark workload.

    python3 tools/ab.py BASE CHANGE --workload iris-cv --rounds 8

BASE and CHANGE are repository checkouts (directories holding
``src/graphmetric``).  Both packages are imported into this one process,
under the module names ``gm_base`` and ``gm_change``, with BLAS on one
thread.  Each round runs one pass of the workload's pool (``bench/run.py``
of this checkout: its pools, ``run_pass`` and ``hd_quantile``) on each
side, alternating which side goes first.  Separate benchmark runs on a
small shared host drift by tens of percent over seconds; passes
interleaved in one process see the same drift, so their paired ratios
resolve smaller differences.

Prints, per round, each side's pass CPU time and their ratio; then the
median ratio, each side's per-learn p50 (Harrell-Davis over every learn
of every round, wall time as ``bench/run.py`` measures it) and whether the
two sides' outputs are byte-identical in every round.
"""

import os

# pinned before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import logging  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402


def load_checkout(name: str, checkout: Path):
    """Import ``checkout/src/graphmetric`` as the package ``name``."""
    init = checkout / "src" / "graphmetric" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab: no package source at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    # the learns' per-run warnings would bury the timings
    logging.getLogger(name).setLevel(logging.ERROR)
    return module


def prepare(gm, workload, seed: int):
    """``bench.prepare`` with ``gm`` in place of the bench's own import."""
    load = bench.load_package
    bench.load_package = lambda: gm
    try:
        return bench.prepare(workload, seed)
    finally:
        bench.load_package = load


def timed_pass(prep):
    """One pass and the CPU time it took."""
    t0 = time.process_time()
    result = bench.run_pass(prep)
    return result, time.process_time() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workload = bench.WORKLOADS[args.workload]
    sides = {}
    for name, checkout in (("base", args.base), ("change", args.change)):
        prep = prepare(load_checkout(f"gm_{name}", checkout.resolve()),
                       workload, args.seed)
        bench.warm_up(prep)
        sides[name] = prep

    cpu = {name: [] for name in sides}
    latency = {name: [] for name in sides}
    identical = True
    print(f"# workload={workload.name} seed={args.seed} rounds={args.rounds}"
          f" base={args.base} change={args.change}")
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        passes = {}
        for name in order:
            passes[name], cpu_s = timed_pass(sides[name])
            cpu[name].append(cpu_s)
            latency[name] += passes[name].latency_s
        same = (bench.fingerprint(passes["base"])
                == bench.fingerprint(passes["change"]))
        identical &= same
        print(f"round {r}: base {cpu['base'][-1]:.3f} s, change "
              f"{cpu['change'][-1]:.3f} s, ratio "
              f"{cpu['base'][-1] / cpu['change'][-1]:.3f}, outputs "
              f"{'identical' if same else 'DIFFER'}")

    ratios = [b / c for b, c in zip(cpu["base"], cpu["change"])]
    wins = sum(c < b for b, c in zip(cpu["base"], cpu["change"]))
    p50 = {name: 1e3 * bench.hd_quantile(latency[name], 0.5)
           for name in sides}
    print(f"pass CPU time base/change: median {statistics.median(ratios):.3f}"
          f" (min {min(ratios):.3f}, max {max(ratios):.3f}); change faster"
          f" in {wins} of {args.rounds} rounds")
    print(f"learn_p50_ms: base {p50['base']:.3f}, change {p50['change']:.3f}"
          f" ({100 * (p50['change'] / p50['base'] - 1):+.1f}%) over "
          f"{len(latency['base'])} learns a side")
    print(f"outputs identical in every round: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
