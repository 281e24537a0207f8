"""Cross-validation protocol: repeated stratified 2-fold, one-vs-all.

Per seed: shuffle with numpy's seeded PCG64 generator (``default_rng``),
split into stratified folds, learn one metric per (fold, class) pair on the
training fold with +-1 one-vs-all labels, score both folds' test samples,
and record error rates.  The whole report is a pure function of (dataset,
config, seed list): re-running with the same inputs reproduces it bit for
bit.  Wall-clock timings are kept out of the canonical serialization for
that reason.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .classify import graph_classify, knn_vote_scores, one_vs_all_predict
from .data import Dataset, standardize
from .objective import ObjectiveContext
from .optimizer import OptimizerConfig, learn_metric

PRNG_NOTE = ("splits use numpy.random.default_rng(seed) (PCG64); "
             "seeds match the protocol, not any external implementation")

CLASSIFIERS = ("knn", "graph")


class DegenerateFoldError(RuntimeError):
    """A training fold lost an entire class; the split cannot be used."""


class ProtocolError(ValueError):
    """The protocol's settings cannot run: raised before any learning."""


@dataclass(frozen=True)
class RunRecord:
    seed: int
    fold: int
    classifier: str
    error: float
    n_test: int


@dataclass(frozen=True)
class ExperimentReport:
    dataset_name: str
    classifiers: tuple[str, ...]
    config: dict
    records: tuple[RunRecord, ...]
    mean_error: dict[str, float]
    runtime_seconds: float | None = None

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "dataset": self.dataset_name,
            "classifiers": list(self.classifiers),
            "config": self.config,
            "records": [asdict(r) for r in self.records],
            "mean_error": self.mean_error,
        }
        if include_runtime and self.runtime_seconds is not None:
            out["runtime_seconds"] = self.runtime_seconds
        return out

    def to_json(self, include_runtime: bool = False) -> str:
        return json.dumps(self.to_dict(include_runtime), indent=2,
                          sort_keys=True)

    def to_table(self) -> str:
        lines = [f"dataset: {self.dataset_name}"]
        for name in self.classifiers:
            lines.append(f"  {name:>6s} classifier mean error: "
                         f"{100.0 * self.mean_error[name]:.2f}%")
        lines.append(f"  runs: {len(self.records)}  "
                     f"(seeds x folds x classifiers)")
        header = f"  {'seed':>4s} {'fold':>4s} {'classifier':>10s} " \
                 f"{'error':>8s} {'n_test':>6s}"
        lines.append(header)
        for r in self.records:
            lines.append(f"  {r.seed:>4d} {r.fold:>4d} {r.classifier:>10s} "
                         f"{100.0 * r.error:7.2f}% {r.n_test:>6d}")
        return "\n".join(lines)


def recomputed_mean(records: Sequence[RunRecord], classifier: str) -> float:
    errs = [r.error for r in records if r.classifier == classifier]
    return float(np.mean(errs))


def stratified_folds(labels: np.ndarray, n_folds: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """Per-class shuffle and round-robin deal; returns test-index arrays."""
    labels = np.asarray(labels)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        idx = rng.permutation(idx)
        for f in range(n_folds):
            folds[f].extend(int(i) for i in idx[f::n_folds])
    out = [np.array(sorted(f), dtype=int) for f in folds]
    for f, test_idx in enumerate(out):
        train_mask = np.ones(labels.shape[0], dtype=bool)
        train_mask[test_idx] = False
        missing = set(np.unique(labels)) - set(np.unique(labels[train_mask]))
        if missing:
            raise DegenerateFoldError(
                f"fold {f} leaves classes {sorted(missing)} without "
                f"training samples")
    return out


def _evaluate_seed(dataset: Dataset, cfg: OptimizerConfig, seed: int,
                   folds: int, classifiers: tuple[str, ...], k: int,
                   scale_features: bool) -> list[RunRecord]:
    rng = np.random.default_rng(seed)
    records = []
    test_folds = stratified_folds(dataset.labels, folds, rng)
    for fold_id, test_idx in enumerate(test_folds):
        train_mask = np.ones(dataset.num_samples, dtype=bool)
        train_mask[test_idx] = False
        train_idx = np.nonzero(train_mask)[0]
        x_train = dataset.features[train_idx]
        x_test = dataset.features[test_idx]
        if scale_features:
            x_train, x_test, _ = standardize(x_train, x_test)
        y_train = dataset.labels[train_idx]
        y_test = dataset.labels[test_idx]

        knn_scores = np.zeros((test_idx.size, dataset.num_classes))
        graph_scores = np.zeros_like(knn_scores)
        stacked = np.vstack([x_train, x_test])
        for cls in range(dataset.num_classes):
            z = np.where(y_train == cls, 1.0, -1.0)
            ctx = ObjectiveContext(features=x_train, labels=z)
            metric = learn_metric(ctx, cfg).metric
            if "knn" in classifiers:
                knn_scores[:, cls] = knn_vote_scores(x_train, z, x_test,
                                                     metric, k)
            if "graph" in classifiers:
                known = {i: float(z[i]) for i in range(train_idx.size)}
                scores = graph_classify(stacked, known, metric)
                graph_scores[:, cls] = scores[train_idx.size:]
        for name, scores in (("knn", knn_scores), ("graph", graph_scores)):
            if name not in classifiers:
                continue
            pred = one_vs_all_predict(scores)
            error = float(np.mean(pred != y_test))
            records.append(RunRecord(seed=seed, fold=fold_id, classifier=name,
                                     error=error, n_test=int(test_idx.size)))
    return records


def run_experiment(dataset: Dataset, cfg: OptimizerConfig | None = None,
                   classifier_choice: str = "graph",
                   seeds: Iterable[int] = range(50), folds: int = 2,
                   k: int = 5, scale_features: bool = True,
                   n_jobs: int = 1) -> ExperimentReport:
    """Run the full protocol and aggregate a deterministic report.

    ``classifier_choice`` is "knn", "graph", or "both" (both reuse the same
    learned metrics).  Seeds are independent, so ``n_jobs`` > 1 evaluates
    them in parallel; the merge order is fixed by (seed, fold, classifier).
    """
    if classifier_choice == "both":
        classifiers = CLASSIFIERS
    elif classifier_choice in CLASSIFIERS:
        classifiers = (classifier_choice,)
    else:
        raise ProtocolError(f"unknown classifier {classifier_choice!r}")
    requested, seeds = seeds, tuple(int(s) for s in seeds)
    if not seeds:
        raise ProtocolError(f"empty seed range {requested!r}: the protocol "
                            f"needs at least one CV seed")
    if folds < 2:
        raise ProtocolError(f"folds={folds}: cross-validation needs at "
                            f"least 2 folds")
    counts = dataset.class_counts()
    if np.any(counts < folds):
        short = np.nonzero(counts < folds)[0].tolist()
        raise DegenerateFoldError(
            f"classes {short} have fewer than {folds} samples; "
            f"stratified {folds}-fold CV is impossible")
    # fold 0 is the largest test fold: ceil(count / folds) of each class
    n_train = int(np.sum(counts - (counts + folds - 1) // folds))
    if "knn" in classifiers and not 1 <= k <= n_train:
        raise ProtocolError(f"k={k} must be in 1..{n_train}, the size of "
                            f"the smallest training fold")
    cfg = (cfg or OptimizerConfig()).resolve(dataset.num_features)
    start = time.perf_counter()

    if n_jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunks = pool.map(_seed_worker,
                              [(dataset, cfg, s, folds, classifiers, k,
                                scale_features) for s in seeds])
            per_seed = list(chunks)
    else:
        per_seed = [_evaluate_seed(dataset, cfg, s, folds, classifiers, k,
                                   scale_features) for s in seeds]

    records = tuple(sorted((r for chunk in per_seed for r in chunk),
                           key=lambda r: (r.seed, r.fold, r.classifier)))
    mean_error = {name: recomputed_mean(records, name) for name in classifiers}
    config_echo = {
        "trace_cap": cfg.trace_cap, "rho": cfg.rho, "epsilon": cfg.epsilon,
        "fw_max_iters": cfg.fw_max_iters,
        "outer_max_iters": cfg.outer_max_iters, "obj_rel_tol": cfg.obj_rel_tol,
        "k": k, "seeds": list(seeds), "folds": folds,
        "standardized": scale_features, "prng": PRNG_NOTE,
    }
    return ExperimentReport(dataset_name=dataset.name, classifiers=classifiers,
                            config=config_echo, records=records,
                            mean_error=mean_error,
                            runtime_seconds=time.perf_counter() - start)


def _seed_worker(args) -> list[RunRecord]:
    return _evaluate_seed(*args)
