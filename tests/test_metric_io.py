"""Tests for metric JSON round-tripping."""

import json

import numpy as np
import pytest

from graphmetric.metric_io import load_metric, save_metric
from helpers import random_graph_metric


def test_round_trip_bit_exact(tmp_path):
    g = random_graph_metric(np.random.default_rng(0), 5)
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    save_metric(g, first, config={"note": "test"})
    loaded, cfg = load_metric(first)
    assert cfg == {"note": "test"}
    assert np.array_equal(loaded.matrix.entries, g.matrix.entries)
    save_metric(loaded, second, config=cfg)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_wrong_entry_count(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "entries": [1.0] * 8,
                                "lambda_min": 1.0, "config": {}}))
    with pytest.raises(ValueError, match="expected 9 entries"):
        load_metric(path)


@pytest.mark.parametrize("payload, message", [
    ([1], "expected a JSON object, found list"),
    ({"dim": 3}, "key 'entries' is missing or not a list of numbers"),
    ({"entries": [1.0], "lambda_min": 1.0},
     "key 'dim' is missing or not an integer"),
    ({"dim": "1", "entries": [1.0], "lambda_min": 1.0},
     "key 'dim' is missing or not an integer"),
    ({"dim": 1, "entries": {"0": 1.0}, "lambda_min": 1.0},
     "key 'entries' is missing or not a list of numbers"),
    ({"dim": 1, "entries": [[1.0]], "lambda_min": 1.0},
     "key 'entries' is not a list of numbers"),
    ({"dim": 1, "entries": [1.0], "lambda_min": True},
     "key 'lambda_min' is missing or not a number"),
    ({"dim": -1, "entries": [1.0], "lambda_min": 1.0},
     "key 'dim' must be at least 1, not -1"),
    ({"dim": 0, "entries": [], "lambda_min": 1.0},
     "key 'dim' must be at least 1, not 0"),
    ({"dim": 1, "entries": [1.0], "lambda_min": 1.0, "config": [1]},
     "key 'config' is not a JSON object, found list"),
])
def test_load_rejects_malformed_payload(tmp_path, payload, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_metric(path)
    assert str(exc.value) == f"{path}: {message}"


_METRIC = '{{"dim": 2, "entries": [1, -0.5, -0.5, {last}], "lambda_min": {lam}}}'


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400",
                                   "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "huge-int"])
@pytest.mark.parametrize("key", ["entries", "lambda_min"])
def test_load_rejects_non_finite_numbers(tmp_path, key, token):
    path = tmp_path / "m.json"
    path.write_text(_METRIC.format(last=1, lam=0.5))
    load_metric(path)
    path.write_text(_METRIC.format(last=token if key == "entries" else 1,
                                   lam=token if key == "lambda_min" else 0.5))
    with pytest.raises(ValueError) as exc:
        load_metric(path)
    assert str(exc.value) == f"{path}: key {key!r} holds a non-finite number"


def test_load_rejects_inconsistent_lambda(tmp_path):
    g = random_graph_metric(np.random.default_rng(1), 4)
    path = tmp_path / "m.json"
    save_metric(g, path)
    payload = json.loads(path.read_text())
    payload["lambda_min"] = payload["lambda_min"] * 3.0 + 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="disagrees"):
        load_metric(path)


def test_load_revalidates_matrix(tmp_path):
    path = tmp_path / "notametric.json"
    entries = np.eye(3)  # disconnected: not a graph metric
    path.write_text(json.dumps({
        "dim": 3, "entries": entries.ravel().tolist(),
        "lambda_min": 1.0, "config": {}}))
    with pytest.raises(Exception, match="disconnected"):
        load_metric(path)
