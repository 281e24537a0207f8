"""Round-off probes on the benchmark's K = 48 blobs; each prints JSON.

    python3 tools/probes.py noise [--blobs 0..9]
    python3 tools/probes.py sweep [--blobs 0..24]

Both learn one-vs-all on ``bench/run.py``'s blobs (its ``make_blobs`` and
constants: K = 48, 3 classes of 10 samples, center scale 0.5, trace cap
2), with the package from this checkout's ``src/`` and BLAS on one thread.
A noisy learn adds NOISE_SCALE = 1e-12 times N(0, 1) to the standardized
features, drawn from ``default_rng((noise_seed, blob))``.

* ``noise``: learns each (blob, class) clean and under NOISE_SEED and
  reports, per learn, the outer iterations of both and how far the
  learned matrix moved (max |dM| / max |M|); ``moved`` counts the learns
  whose matrices differ in any bit.
* ``sweep``: runs every (blob, class) clean and under each of
  SWEEP_NOISE_SEEDS and reports per run the summed outer iterations, the
  converged learns and the geometric-mean ratio of final to initial Q
  (``bench/run.py``'s ``geometric_mean_ratio``).  Over blob seeds 0..24
  these are the 75 learns the roadmap's findings call "the 75-learn
  sweep".

A learn that raises is reported with its error, not fatal.  Exit status:
0 when every learn returned, 1 when one raised.
"""

import os

# pinned before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

NOISE_SCALE = 1e-12  # standard deviation of the feature noise
NOISE_SEED = 0  # the noise probe's one noisy draw
SWEEP_NOISE_SEEDS = (0, 1, 2)  # the sweep's noisy draws


def learn_blobs(gm, blobs, noise_seed):
    """((blob, class), LearnResult or error text) for every learn, in order;
    ``noise_seed`` None learns the clean features."""
    cfg = gm.OptimizerConfig(trace_cap=bench.BLOB_TRACE_CAP)
    for blob in blobs:
        x, y = bench.make_blobs(blob)
        if noise_seed is not None:
            rng = np.random.default_rng((noise_seed, blob))
            x = x + NOISE_SCALE * rng.standard_normal(x.shape)
        for cls in range(bench.BLOB_CLASSES):
            ctx = gm.ObjectiveContext(features=x,
                                      labels=np.where(y == cls, 1.0, -1.0))
            try:
                result = gm.learn_metric(ctx, cfg)
            except Exception as exc:  # reported per learn; the probe goes on
                result = f"{type(exc).__name__}: {exc}"
            yield (blob, cls), result


def noise(gm, blobs) -> tuple[dict, bool]:
    learns = []
    ok = True
    pairs = zip(learn_blobs(gm, blobs, None),
                learn_blobs(gm, blobs, NOISE_SEED))
    for ((blob, cls), clean), (_, noisy) in pairs:
        row = {"blob": blob, "class": cls}
        if isinstance(clean, str) or isinstance(noisy, str):
            ok = False
            row.update(clean_error=clean if isinstance(clean, str) else None,
                       noisy_error=noisy if isinstance(noisy, str) else None)
        else:
            a, b = clean.metric.matrix.entries, noisy.metric.matrix.entries
            row.update(outer_clean=clean.outer_iterations,
                       outer_noisy=noisy.outer_iterations,
                       identical=a.tobytes() == b.tobytes(),
                       max_rel_change=float(np.abs(b - a).max()
                                            / np.abs(a).max()))
        learns.append(row)
    return {
        "probe": "noise",
        "blobs": [blobs.start, blobs.stop - 1],
        "noise_seed": NOISE_SEED,
        "scale": NOISE_SCALE,
        "learns": len(learns),
        "moved": sum(not row.get("identical", False) for row in learns),
        "per_learn": learns,
    }, ok


def sweep(gm, blobs) -> tuple[dict, bool]:
    runs = []
    ok = True
    for noise_seed in (None, *SWEEP_NOISE_SEEDS):
        results, errors = [], []
        for key, result in learn_blobs(gm, blobs, noise_seed):
            if isinstance(result, str):
                errors.append({"blob": key[0], "class": key[1],
                               "error": result})
            else:
                results.append(result)
        ok &= not errors
        runs.append({
            "noise_seed": noise_seed,
            "learns": len(results) + len(errors),
            "outer_iterations": sum(r.outer_iterations for r in results),
            "converged": sum(r.converged for r in results),
            "q_ratio_gmean": bench.geometric_mean_ratio(results),
            "raised": errors,
        })
    return {
        "probe": "sweep",
        "blobs": [blobs.start, blobs.stop - 1],
        "scale": NOISE_SCALE,
        "runs": runs,
    }, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="probe", required=True)
    gm = bench.load_package()
    # the learns' per-run warnings would bury the JSON
    logging.getLogger("graphmetric").setLevel(logging.ERROR)
    # the package's own a..b range parser, from the src/ path just set
    from graphmetric.cli import _parse_seeds as blob_range
    p_noise = sub.add_parser("noise", help="learned matrices under noise")
    p_noise.add_argument("--blobs", type=blob_range, default="0..9",
                         help="inclusive blob seed range a..b or one seed")
    p_sweep = sub.add_parser("sweep", help="sweep totals with and without "
                                           "noise")
    p_sweep.add_argument("--blobs", type=blob_range, default="0..24",
                         help="inclusive blob seed range a..b or one seed")
    args = parser.parse_args(argv)
    report, ok = (noise if args.probe == "noise" else sweep)(gm, args.blobs)
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
