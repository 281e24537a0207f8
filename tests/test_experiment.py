"""Tests for the cross-validation harness."""

import concurrent.futures
import json
import re

import numpy as np
import pytest

from graphmetric import experiment
from graphmetric.data import Dataset
from graphmetric.experiment import (DegenerateFoldError, ProtocolError,
                                    recomputed_mean, run_experiment,
                                    stratified_folds)
from graphmetric.optimizer import OptimizerConfig
from helpers import gaussian_blobs_dataset, two_cluster_dataset


def _separable():
    rng = np.random.default_rng(0)
    return two_cluster_dataset(rng, n_per_class=12, num_features=2,
                               separation=12.0)


class TestStratifiedFolds:
    def test_every_class_in_every_train_fold(self):
        rng = np.random.default_rng(1)
        labels = np.array([0] * 10 + [1] * 7 + [2] * 5)
        folds = stratified_folds(labels, 2, rng)
        assert sorted(np.concatenate(folds).tolist()) == list(range(22))
        for test_idx in folds:
            mask = np.ones(22, dtype=bool)
            mask[test_idx] = False
            assert set(labels[mask]) == {0, 1, 2}

    def test_deterministic_given_generator_seed(self):
        labels = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        a = stratified_folds(labels, 2, np.random.default_rng(5))
        b = stratified_folds(labels, 2, np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestRunExperiment:
    def test_separable_clusters_zero_error(self):
        report = run_experiment(_separable(), classifier_choice="both",
                                seeds=range(3))
        assert report.mean_error["knn"] == 0.0
        assert report.mean_error["graph"] == 0.0
        for rec in report.records:
            assert rec.error == 0.0

    def test_deterministic_bit_identical_report(self):
        ds = _separable()
        a = run_experiment(ds, classifier_choice="graph", seeds=range(2))
        b = run_experiment(ds, classifier_choice="graph", seeds=range(2))
        assert a.to_json() == b.to_json()

    def test_parallel_matches_serial(self):
        ds = gaussian_blobs_dataset(np.random.default_rng(2), n_classes=3,
                                    n_per_class=8, num_features=3)
        serial = run_experiment(ds, classifier_choice="graph", seeds=range(2),
                                n_jobs=1)
        parallel = run_experiment(ds, classifier_choice="graph", seeds=range(2),
                                  n_jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_runtime_excluded_from_canonical_json(self):
        report = run_experiment(_separable(), seeds=range(1))
        payload = json.loads(report.to_json())
        assert "runtime_seconds" not in payload
        assert report.runtime_seconds is not None
        with_runtime = json.loads(report.to_json(include_runtime=True))
        assert "runtime_seconds" in with_runtime

    def test_mean_recomputable_from_records(self):
        ds = gaussian_blobs_dataset(np.random.default_rng(3), n_classes=2,
                                    n_per_class=8, num_features=3,
                                    separation=5.0)
        report = run_experiment(ds, classifier_choice="both", seeds=range(3))
        for name in report.classifiers:
            assert report.mean_error[name] == pytest.approx(
                recomputed_mean(report.records, name), abs=0)

    def test_config_echo_complete(self):
        report = run_experiment(_separable(), seeds=range(1), k=3)
        cfg = report.config
        for key in ("trace_cap", "rho", "epsilon", "fw_max_iters",
                    "outer_max_iters", "obj_rel_tol", "k",
                    "seeds", "folds", "standardized", "prng"):
            assert key in cfg
        assert cfg["k"] == 3

    def test_degenerate_class_reported(self):
        ds = Dataset(name="bad", features=np.zeros((5, 2)),
                     labels=np.array([0, 0, 0, 0, 1]), num_classes=2)
        with pytest.raises(DegenerateFoldError):
            run_experiment(ds, seeds=range(1))

    @pytest.mark.parametrize("classifier, folds, k, message", [
        ("graph", 1, 5, "folds=1: cross-validation needs at least 2 folds"),
        ("both", 0, 5, "folds=0: cross-validation needs at least 2 folds"),
        ("both", -1, 5, "folds=-1: cross-validation needs at least 2"),
        ("knn", 2, 0, "k=0 must be in 1..12"),
        ("both", 2, 13, "k=13 must be in 1..12"),
        ("knn", 5, 19, "k=19 must be in 1..18"),
    ])
    def test_bad_protocol_rejected_before_learning(self, monkeypatch,
                                                   classifier, folds, k,
                                                   message):
        def no_learning(*args, **kwargs):
            raise AssertionError("a metric was learned")
        monkeypatch.setattr(experiment, "learn_metric", no_learning)
        with pytest.raises(ProtocolError, match=message):
            run_experiment(_separable(), classifier_choice=classifier,
                           seeds=range(1), folds=folds, k=k)

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_nonpositive_jobs_rejected_before_learning(self, monkeypatch,
                                                       n_jobs):
        def no_learning(*args, **kwargs):
            raise AssertionError("a metric was learned")
        monkeypatch.setattr(experiment, "learn_metric", no_learning)
        with pytest.raises(ProtocolError, match=f"n_jobs={n_jobs}: "):
            run_experiment(_separable(), seeds=range(2), n_jobs=n_jobs)

    def test_pool_has_at_most_one_worker_per_seed(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records its size and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_experiment imports the pool from concurrent.futures when it
        # needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        ds = _separable()
        serial = run_experiment(ds, seeds=range(2), n_jobs=1)
        assert sizes == []
        assert run_experiment(ds, seeds=range(2),
                              n_jobs=64).to_json() == serial.to_json()
        run_experiment(ds, seeds=range(3), n_jobs=2)
        assert sizes == [2, 2]

    def test_k_up_to_smallest_training_fold_accepted(self):
        # 12 samples per class in 5 folds: test folds of 3, 3, 2, 2, 2 per
        # class leave training folds of at least 18
        report = run_experiment(_separable(), classifier_choice="knn",
                                seeds=range(1), folds=5, k=18)
        assert len(report.records) == 5

    def test_unknown_classifier(self):
        with pytest.raises(ValueError):
            run_experiment(_separable(), classifier_choice="svm")

    def test_empty_seed_range_rejected(self):
        with pytest.raises(ValueError, match=r"empty seed range range\(5, 3\)"):
            run_experiment(_separable(), seeds=range(5, 3))

    @pytest.mark.parametrize("seed", [0.7, 2.0, True, np.True_, "1", -1])
    def test_non_integer_seed_rejected_before_learning(self, monkeypatch,
                                                       seed):
        def no_learning(*args, **kwargs):
            raise AssertionError("a metric was learned")
        monkeypatch.setattr(experiment, "learn_metric", no_learning)
        with pytest.raises(ProtocolError,
                           match=f"seeds must be non-negative integers, "
                                 f"not {seed!r}"):
            run_experiment(_separable(), seeds=[0, seed])

    def test_numpy_integer_seeds_accepted(self):
        report = run_experiment(_separable(), seeds=np.arange(1))
        assert report.config["seeds"] == [0]
        assert report.to_json() == run_experiment(_separable(),
                                                  seeds=range(1)).to_json()

    @pytest.mark.parametrize("setting, value", [
        ("folds", 2.0), ("folds", True), ("k", 2.5), ("k", True),
        ("k", np.True_), ("n_jobs", 1.5), ("n_jobs", "2")])
    def test_non_integer_setting_rejected_before_learning(
            self, monkeypatch, setting, value):
        def no_learning(*args, **kwargs):
            raise AssertionError("a metric was learned")
        monkeypatch.setattr(experiment, "learn_metric", no_learning)
        with pytest.raises(ProtocolError, match=re.escape(
                f"{setting} must be an integer, not {value!r}")):
            run_experiment(_separable(), classifier_choice="both",
                           seeds=range(1), **{setting: value})

    def test_numpy_integer_settings_echo_as_json(self):
        cfg = OptimizerConfig(outer_max_iters=np.int64(2))
        report = run_experiment(_separable(), cfg=cfg, classifier_choice="both",
                                seeds=range(1), folds=np.int64(2),
                                k=np.int64(5), n_jobs=np.int64(1))
        echo = json.loads(report.to_json())["config"]
        assert (echo["outer_max_iters"], echo["folds"], echo["k"]) == (2, 2, 5)
        assert report.to_json() == run_experiment(
            _separable(), cfg=OptimizerConfig(outer_max_iters=2),
            classifier_choice="both", seeds=range(1)).to_json()

    def test_table_output(self):
        report = run_experiment(_separable(), seeds=range(1))
        table = report.to_table()
        assert "mean error" in table
        assert "seed" in table

    def test_custom_config_respected(self):
        cfg = OptimizerConfig(outer_max_iters=2, fw_max_iters=10)
        report = run_experiment(_separable(), cfg=cfg, seeds=range(1))
        assert report.config["outer_max_iters"] == 2
        assert report.config["fw_max_iters"] == 10
