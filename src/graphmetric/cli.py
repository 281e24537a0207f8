"""Command-line interface: learn, classify, experiment."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import metric_io
from .classify import graph_classify, knn_classify, one_vs_all_predict
from .data import load_csv, load_feature_matrix
from .experiment import DegenerateFoldError, ProtocolError, run_experiment
from .objective import ObjectiveContext
from .optimizer import OptimizerConfig, learn_metric

log = logging.getLogger(__name__)

# OptimizerConfig fields and their value types, shared by the flags and
# the --config file
_CONFIG_TYPES = {"trace_cap": float, "rho": float, "epsilon": float,
                 "fw_max_iters": int, "outer_max_iters": int,
                 "obj_rel_tol": float}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verbose", action="store_true")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", type=Path, required=True,
                        help="CSV file with one label column")
    parser.add_argument("--label-col", default="-1",
                        help="label column name or index (default: last)")
    parser.add_argument("--delimiter", default=",")


def _add_optimizer_args(parser: argparse.ArgumentParser) -> None:
    for key, kind in _CONFIG_TYPES.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind,
                            default=None)
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with default optimizer option "
                             "values (explicit flags win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmetric",
        description="Projection-free Mahalanobis metric learning over "
                    "graph metric matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="learn a metric from a dataset")
    _add_dataset_args(p_learn)
    _add_optimizer_args(p_learn)
    p_learn.add_argument("--positive-class", type=int, default=0,
                         help="one-vs-all class mapped to +1 (default 0)")
    p_learn.add_argument("--out", type=Path, default=None,
                         help="metric JSON output path (default stdout)")
    _add_common(p_learn)

    p_cls = sub.add_parser("classify", help="predict labels with a metric")
    p_cls.add_argument("--metric", type=Path, required=True)
    p_cls.add_argument("--train", type=Path, required=True,
                       help="training CSV (labels used for voting)")
    p_cls.add_argument("--test", type=Path, required=True,
                       help="CSV of samples to classify; its label column "
                            "(if any) is ignored")
    p_cls.add_argument("--test-label-col", default=None,
                       help="label column of the test CSV to skip; 'none' "
                            "for a features-only file (default: same as "
                            "--label-col)")
    p_cls.add_argument("--label-col", default="-1")
    p_cls.add_argument("--delimiter", default=",")
    p_cls.add_argument("--classifier", choices=("knn", "graph"),
                       default="graph")
    p_cls.add_argument("--k", type=int, default=5)
    p_cls.add_argument("--out", type=Path, default=None)
    p_cls.add_argument("--format", choices=("json", "table"), default="json")
    _add_common(p_cls)

    p_exp = sub.add_parser("experiment",
                           help="repeated stratified CV protocol")
    _add_dataset_args(p_exp)
    _add_optimizer_args(p_exp)
    p_exp.add_argument("--classifier", choices=("knn", "graph", "both"),
                       default="graph")
    p_exp.add_argument("--k", type=int, default=5)
    p_exp.add_argument("--seeds", default="0..49", type=_parse_seeds,
                       help="inclusive seed range a..b or a single number")
    p_exp.add_argument("--folds", type=int, default=2)
    p_exp.add_argument("--no-standardize", action="store_true",
                       help="skip per-fold feature standardization")
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--out", type=Path, default=None)
    p_exp.add_argument("--format", choices=("json", "table"), default="table")
    p_exp.add_argument("--include-runtime", action="store_true",
                       help="embed wall-clock timing in the JSON output "
                            "(makes it non-reproducible)")
    _add_common(p_exp)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> None:
    """Fill unset optimizer options from the JSON config file, if given.

    The file must hold one JSON object mapping optimizer options to values
    of their type; anything else is a usage error, so a misspelt key or a
    quoted number cannot be silently ignored or fail inside the optimizer.
    """
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        values = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"config file {path} must hold a JSON object, "
                     f"not {type(values).__name__}")
    unknown = sorted(set(values) - set(_CONFIG_TYPES))
    if unknown:
        parser.error(f"config file {path}: unknown key(s) "
                     f"{', '.join(map(repr, unknown))}; "
                     f"known keys: {', '.join(_CONFIG_TYPES)}")
    for key, value in values.items():
        number = _CONFIG_TYPES[key] is float
        # type() in place of isinstance(): JSON booleans are not numbers here
        if type(value) not in ((int, float) if number else (int,)):
            parser.error(f"config file {path}: {key!r} must be "
                         f"{'a number' if number else 'an integer'}, "
                         f"not {json.dumps(value)}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _optimizer_config(args: argparse.Namespace) -> OptimizerConfig:
    kwargs = {}
    for key in _CONFIG_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    return OptimizerConfig(**kwargs)


def _parse_label_col(value: str) -> int | str:
    try:
        return int(value)
    except ValueError:
        return value


def _parse_seeds(spec: str) -> range:
    """Inclusive seed range ``a..b`` or a single seed; rejects empty ranges."""
    lo, sep, hi = spec.partition("..")
    try:
        seeds = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed seed range {spec!r}: expected a..b or a number"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"empty seed range {spec!r}: {lo} is greater than {hi}")
    return seeds


def _load(parser: argparse.ArgumentParser, loader, path: Path, *args):
    """Run one input-file loader; a missing or malformed file is a usage error.

    Only the loaders are guarded, so a ValueError raised while a command
    runs still ends in a traceback.
    """
    try:
        return loader(path, *args)
    except (OSError, ValueError) as exc:
        msg = str(exc)
        parser.error(msg if str(path) in msg else f"{path}: {msg}")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        out.write_text(text + ("\n" if not text.endswith("\n") else ""))
        log.info("wrote %s", out)


def _cmd_learn(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    dataset = _load(parser, load_csv, args.dataset,
                    _parse_label_col(args.label_col), args.delimiter)
    cfg = _optimizer_config(args).resolve(dataset.num_features)
    if not 0 <= args.positive_class < dataset.num_classes:
        parser.error(f"--positive-class {args.positive_class} out of "
                     f"range for {dataset.num_classes} classes")
    z = np.where(dataset.labels == args.positive_class, 1.0, -1.0)
    ctx = ObjectiveContext(features=dataset.features, labels=z)
    result = learn_metric(ctx, cfg)
    echo = {
        "dataset": str(args.dataset), "positive_class": args.positive_class,
        "objective_final": result.objective_trace[-1],
        "outer_iterations": result.outer_iterations,
        "converged": result.converged,
        **{key: getattr(cfg, key) for key in _CONFIG_TYPES},
    }
    payload = metric_io.metric_to_dict(result.metric, echo)
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_classify(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> int:
    metric, _ = _load(parser, metric_io.load_metric, args.metric)
    label_col = _parse_label_col(args.label_col)
    train = _load(parser, load_csv, args.train, label_col, args.delimiter)
    test_col = args.test_label_col
    if test_col is None:
        test_col = label_col
    elif test_col == "none":
        test_col = None
    else:
        test_col = _parse_label_col(test_col)
    test_features = _load(parser, load_feature_matrix, args.test, test_col,
                          args.delimiter)
    if train.num_features != metric.dim:
        parser.error(f"metric dim {metric.dim} does not match "
                     f"{train.num_features} features")
    if test_features.shape[1] != metric.dim:
        parser.error(f"test file has {test_features.shape[1]} features, "
                     f"metric dim is {metric.dim}")
    if args.classifier == "knn":
        if not 1 <= args.k <= train.num_samples:
            parser.error(f"--k {args.k} must be in 1..{train.num_samples} "
                         f"(training samples)")
        preds = [knn_classify(train, row, metric, args.k)
                 for row in test_features]
    else:
        n_train = train.num_samples
        stacked = np.vstack([train.features, test_features])
        scores = np.zeros((test_features.shape[0], train.num_classes))
        for cls in range(train.num_classes):
            known = {i: (1.0 if train.labels[i] == cls else -1.0)
                     for i in range(n_train)}
            scores[:, cls] = graph_classify(stacked, known, metric)[n_train:]
        preds = [int(p) for p in one_vs_all_predict(scores)]
    if args.format == "table":
        text = "\n".join(f"{i:6d} {p}" for i, p in enumerate(preds))
    else:
        text = json.dumps({"classifier": args.classifier, "k": args.k,
                           "predictions": preds}, indent=2, sort_keys=True)
    _emit(text, args.out)
    return 0


def _cmd_experiment(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> int:
    dataset = _load(parser, load_csv, args.dataset,
                    _parse_label_col(args.label_col), args.delimiter)
    try:
        # both are raised before any metric is learned
        report = run_experiment(dataset, _optimizer_config(args),
                                classifier_choice=args.classifier,
                                seeds=args.seeds, folds=args.folds, k=args.k,
                                scale_features=not args.no_standardize,
                                n_jobs=args.jobs)
    except (ProtocolError, DegenerateFoldError) as exc:
        parser.error(str(exc))
    if args.format == "table":
        text = report.to_table()
    else:
        text = report.to_json(include_runtime=args.include_runtime)
    _emit(text, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    _apply_config_file(parser, args)
    handlers = {"learn": _cmd_learn, "classify": _cmd_classify,
                "experiment": _cmd_experiment}
    return handlers[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
