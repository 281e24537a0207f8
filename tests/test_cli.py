"""End-to-end tests of the command-line interface (in process)."""

import json

import numpy as np
import pytest

from graphmetric.cli import main
from graphmetric.metric_io import load_metric
from helpers import two_cluster_dataset


@pytest.fixture()
def cluster_csv(tmp_path):
    # separation keeps raw-feature cross-pair weights away from underflow
    # (learning has signal) while both classifiers stay exact
    ds = two_cluster_dataset(np.random.default_rng(0), n_per_class=10,
                             num_features=2, separation=3.0)
    path = tmp_path / "clusters.csv"
    lines = ["f0,f1,label"]
    for row, y in zip(ds.features, ds.labels):
        lines.append(f"{float(row[0])!r},{float(row[1])!r},c{y}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_learn_writes_valid_metric(cluster_csv, tmp_path):
    out = tmp_path / "metric.json"
    rc = main(["learn", "--dataset", str(cluster_csv), "--label-col", "label",
               "--out", str(out)])
    assert rc == 0
    metric, cfg = load_metric(out)
    assert metric.dim == 2
    assert cfg["positive_class"] == 0
    assert cfg["converged"] is True
    # feature 0 separates the clusters; it should carry the weight
    assert metric.matrix.entries[0, 0] > metric.matrix.entries[1, 1]


def test_classify_knn_roundtrip(cluster_csv, tmp_path, capsys):
    metric_path = tmp_path / "metric.json"
    main(["learn", "--dataset", str(cluster_csv), "--label-col", "label",
          "--out", str(metric_path)])
    rc = main(["classify", "--metric", str(metric_path),
               "--train", str(cluster_csv), "--test", str(cluster_csv),
               "--label-col", "label", "--classifier", "knn", "--k", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    ds_labels = [0] * 10 + [1] * 10
    assert payload["predictions"] == ds_labels


def test_classify_graph(cluster_csv, tmp_path, capsys):
    metric_path = tmp_path / "metric.json"
    main(["learn", "--dataset", str(cluster_csv), "--label-col", "label",
          "--out", str(metric_path)])
    rc = main(["classify", "--metric", str(metric_path),
               "--train", str(cluster_csv), "--test", str(cluster_csv),
               "--label-col", "label", "--classifier", "graph"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predictions"] == [0] * 10 + [1] * 10


def test_classify_features_only_test_file(cluster_csv, tmp_path, capsys):
    metric_path = tmp_path / "metric.json"
    main(["learn", "--dataset", str(cluster_csv), "--label-col", "label",
          "--out", str(metric_path)])
    test_path = tmp_path / "unlabeled.csv"
    test_path.write_text("0.1,0.0\n3.0,0.2\n")
    rc = main(["classify", "--metric", str(metric_path),
               "--train", str(cluster_csv), "--label-col", "label",
               "--test", str(test_path), "--test-label-col", "none",
               "--classifier", "knn", "--k", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predictions"] == [0, 1]


def test_experiment_json_deterministic(cluster_csv, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["experiment", "--dataset", str(cluster_csv), "--label-col",
            "label", "--classifier", "graph", "--seeds", "0..1",
            "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["mean_error"]["graph"] <= 0.1


def test_experiment_table(cluster_csv, capsys):
    rc = main(["experiment", "--dataset", str(cluster_csv), "--label-col",
               "label", "--seeds", "0", "--format", "table"])
    assert rc == 0
    assert "mean error" in capsys.readouterr().out


def test_experiment_empty_seed_range_is_a_usage_error(cluster_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--dataset", str(cluster_csv), "--label-col",
              "label", "--seeds", "5..3"])
    assert exc.value.code == 2
    assert "empty seed range '5..3'" in capsys.readouterr().err


def test_config_file_merge_and_flag_override(cluster_csv, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"outer_max_iters": 2, "rho": 1e-5}))
    out = tmp_path / "metric.json"
    rc = main(["learn", "--dataset", str(cluster_csv), "--label-col", "label",
               "--config", str(cfg_path), "--rho", "2e-5",
               "--out", str(out)])
    assert rc == 0
    _, echo = load_metric(out)
    assert echo["outer_max_iters"] == 2  # from config file
    assert echo["rho"] == 2e-5           # flag wins over file


@pytest.mark.parametrize("text, message", [
    ('{"trace-cap": 2.0}', "unknown key(s) 'trace-cap'"),
    ('{"fw_step_rule": "line_search"}', "unknown key(s) 'fw_step_rule'"),
    ('[["rho", 1e-05]]', "must hold a JSON object, not list"),
    ("3", "must hold a JSON object, not int"),
    ('{"rho": ', "cannot read config file"),
    ('{"rho": "abc"}', "'rho' must be a number, not \"abc\""),
    ('{"fw_max_iters": 2.5}', "'fw_max_iters' must be an integer, not 2.5"),
])
def test_bad_config_file_is_a_usage_error(cluster_csv, tmp_path, capsys,
                                          text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--dataset", str(cluster_csv), "--label-col", "label",
              "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_is_rejected_without_optimizer_options(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"rho": 5.0}')
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--metric", "m.json", "--train", "t.csv",
              "--test", "t.csv", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


_CLASSIFY = ("classify --metric {bad} --train {csv} --test {csv} "
             "--label-col label")
_LEARN = "learn --dataset {bad} --label-col label"
_KNN_EXPERIMENT = ("experiment --dataset {csv} --label-col label "
                   "--classifier knn --seeds 0")
_METRIC = '{"dim": 2, "entries": [2, -1, -1, 2], "lambda_min": 1}'


@pytest.mark.parametrize("argv, text, message", [
    (_CLASSIFY, "[1]", "expected a JSON object, found list"),
    (_CLASSIFY, '{"dim": 3}', "key 'entries' is missing"),
    (_CLASSIFY, None, "No such file or directory"),
    (_CLASSIFY, '{"dim": 2, "entries": [2, -1, -1, 2], "lambda_min": NaN}',
     "key 'lambda_min' holds a non-finite number"),
    (_CLASSIFY, '{"dim": 2, "entries": [2, -1, -1, Infinity], '
     '"lambda_min": 1}', "key 'entries' holds a non-finite number"),
    (_CLASSIFY, '{"dim": 2, "entries": [1, 0, 0, 1], "lambda_min": 1}',
     "not a graph metric: disconnected graph"),
    (_CLASSIFY, '{"dim": 1, "entries": [1], "lambda_min": 1}',
     "metric dim 1 does not match 2 features"),
    (_LEARN, None, "No such file or directory"),
    (_LEARN, "f0,label\n1.5,a\nabc,b\n", "bad:3: non-numeric feature cell"),
    (_LEARN, "f0,f1,label\n1,2,a\n3,b\n", "bad:3: expected 3 cells, found 2"),
    (_LEARN, "f0,f1,class\n1,2,a\n3,4,b\n", "no column named 'label'"),
    ("learn --dataset {csv} --label-col label --positive-class 2",
     None, "--positive-class 2 out of range for 2 classes"),
    (_KNN_EXPERIMENT + " --k 0", None, "k=0 must be in 1..10"),
    (_KNN_EXPERIMENT + " --k 11", None, "k=11 must be in 1..10"),
    (_KNN_EXPERIMENT + " --folds 0", None, "folds=0: cross-validation"),
    (_KNN_EXPERIMENT + " --folds 1", None, "folds=1: cross-validation"),
    (_KNN_EXPERIMENT + " --folds -1", None, "folds=-1: cross-validation"),
    (_KNN_EXPERIMENT + " --folds 11", None,
     "classes [0, 1] have fewer than 11 samples"),
    (_CLASSIFY + " --classifier knn --k 0", _METRIC,
     "--k 0 must be in 1..20"),
    (_CLASSIFY + " --classifier knn --k 21", _METRIC,
     "--k 21 must be in 1..20"),
], ids=["metric-list", "metric-no-entries", "metric-missing",
        "metric-nan-lambda", "metric-inf-entry", "metric-rejected",
        "metric-dim", "csv-missing", "csv-non-numeric", "csv-ragged",
        "csv-label-col", "positive-class", "experiment-k-zero",
        "experiment-k-above-fold", "experiment-folds-zero",
        "experiment-folds-one", "experiment-folds-negative",
        "experiment-folds-above-class", "classify-k-zero",
        "classify-k-above-train"])
def test_bad_input_is_a_usage_error(cluster_csv, tmp_path, capsys, argv, text,
                                    message):
    bad = tmp_path / "bad"
    if text is not None:
        bad.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(argv.format(bad=bad, csv=cluster_csv).split())
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
