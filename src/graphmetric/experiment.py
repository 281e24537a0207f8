"""Cross-validation protocol: repeated stratified 2-fold, one-vs-all.

Per seed: shuffle with numpy's seeded PCG64 generator (``default_rng``),
split into stratified folds, learn one metric per (fold, class) pair on the
training fold with +-1 one-vs-all labels, score both folds' test samples,
and record error rates.  ``one_vs_all_scores`` does the per-class
scoring; ``graphmetric classify`` calls it too, with one given metric for
all classes.
The whole report is a pure function of (dataset, config, seed list):
re-running with the same inputs reproduces it bit for bit.  Wall-clock
timings are kept out of the canonical serialization for that reason.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .classify import graph_classify, knn_vote_scores, one_vs_all_predict
from .core import GraphMetric
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


def one_vs_all_scores(x_train: np.ndarray, y_train: np.ndarray,
                      x_test: np.ndarray, num_classes: int,
                      metric: GraphMetric
                      | Callable[[np.ndarray], GraphMetric],
                      classifiers: Sequence[str], k: int
                      ) -> dict[str, np.ndarray]:
    """Per-class scores of the test rows under each named classifier.

    Class c is scored against the rest with training labels z = +1 on
    class c and -1 elsewhere.  ``metric`` is the one metric of every
    class, which scores all classes in one pass per classifier, or a
    function ``metric(z)`` giving class c's metric, which scores the
    classes in order, so a learning function learns in class order.
    Returns one (n_test, num_classes) array per classifier ("knn" votes
    among the k nearest training rows, "graph" propagates z over the
    training and test rows together); ``one_vs_all_predict`` turns it into
    labels.
    """
    n_train = x_train.shape[0]
    stacked = np.vstack([x_train, x_test])
    z = np.where(y_train[:, None] == np.arange(num_classes), 1.0, -1.0)
    if isinstance(metric, GraphMetric):
        passes = [(slice(None), metric)]
    else:
        passes = ((cls, metric(z[:, cls])) for cls in range(num_classes))
    scores = {name: np.zeros((x_test.shape[0], num_classes))
              for name in classifiers}
    for cols, m in passes:
        if "knn" in scores:
            scores["knn"][:, cols] = knn_vote_scores(x_train, z[:, cols],
                                                     x_test, m, k)
        if "graph" in scores:
            known = dict(enumerate(z[:, cols]))
            scores["graph"][:, cols] = graph_classify(stacked, known,
                                                      m)[n_train:]
    return scores


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
        y_test = dataset.labels[test_idx]
        scores = one_vs_all_scores(
            x_train, dataset.labels[train_idx], x_test, dataset.num_classes,
            lambda z: learn_metric(ObjectiveContext(x_train, z), cfg).metric,
            classifiers, k)
        for name, class_scores in scores.items():
            error = float(np.mean(one_vs_all_predict(class_scores) != y_test))
            records.append(RunRecord(seed=seed, fold=fold_id, classifier=name,
                                     error=error, n_test=int(test_idx.size)))
    return records


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int.  A bool, a non-integer or an integer below
    ``minimum`` is a ProtocolError that starts with ``what`` (int() would
    run 0.7 as 0 and True as 1)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        raise ProtocolError(f"{what}, not {value!r}")
    return int(value)


def run_experiment(dataset: Dataset, cfg: OptimizerConfig | None = None,
                   classifier_choice: str = "graph",
                   seeds: Iterable[int] = range(50), folds: int = 2,
                   k: int = 5, scale_features: bool = True,
                   n_jobs: int = 1) -> ExperimentReport:
    """Run the full protocol and aggregate a deterministic report.

    ``classifier_choice`` is "knn", "graph", or "both" (both reuse the same
    learned metrics).  Seeds are independent, so ``n_jobs`` > 1 evaluates
    them in parallel in at most one worker process per seed; the merge
    order is fixed by (seed, fold, classifier).  Seeds, ``folds``, ``k``
    and ``n_jobs`` must be integers (numpy integers become int), and seeds
    non-negative; a bad setting is a ProtocolError before any learning.
    """
    if classifier_choice == "both":
        classifiers = CLASSIFIERS
    elif classifier_choice in CLASSIFIERS:
        classifiers = (classifier_choice,)
    else:
        raise ProtocolError(f"unknown classifier {classifier_choice!r}")
    requested, seeds = seeds, tuple(seeds)
    if not seeds:
        raise ProtocolError(f"empty seed range {requested!r}: the protocol "
                            f"needs at least one CV seed")
    seeds = tuple(_integer(s, "seeds must be non-negative integers", 0)
                  for s in seeds)
    folds = _integer(folds, "folds must be an integer")
    k = _integer(k, "k must be an integer")
    n_jobs = _integer(n_jobs, "n_jobs must be an integer")
    if n_jobs < 1:
        raise ProtocolError(f"n_jobs={n_jobs}: the protocol needs at least "
                            f"1 worker")
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

    evaluate = partial(_evaluate_seed, dataset, cfg, folds=folds,
                       classifiers=classifiers, k=k,
                       scale_features=scale_features)
    if n_jobs > 1 and len(seeds) > 1:
        # imported here: it loads multiprocessing, socket and selectors
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(seeds))) as pool:
            per_seed = list(pool.map(evaluate, seeds))
    else:
        per_seed = list(map(evaluate, seeds))

    records = tuple(sorted((r for chunk in per_seed for r in chunk),
                           key=lambda r: (r.seed, r.fold, r.classifier)))
    mean_error = {name: recomputed_mean(records, name) for name in classifiers}
    config_echo = {
        **asdict(cfg), "k": k, "seeds": list(seeds), "folds": folds,
        "standardized": scale_features, "prng": PRNG_NOTE,
    }
    return ExperimentReport(dataset_name=dataset.name, classifiers=classifiers,
                            config=config_echo, records=records,
                            mean_error=mean_error,
                            runtime_seconds=time.perf_counter() - start)
