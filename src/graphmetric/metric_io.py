"""Metric JSON files: {dim, row-major entries, lambda_min, config echo}.

Floats serialize via Python's shortest round-trip repr, so save -> load ->
save reproduces the file byte for byte on the same platform.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import GraphMetric, SymmetricMatrix, validate_graph_metric


def metric_to_dict(metric: GraphMetric, config: dict | None = None) -> dict:
    return {
        "dim": metric.dim,
        "entries": [float(v) for v in metric.matrix.entries.ravel()],
        "lambda_min": float(metric.certificate.lambda_min),
        "config": config or {},
    }


def save_metric(metric: GraphMetric, path: str | Path,
                config: dict | None = None) -> None:
    payload = metric_to_dict(metric, config)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_metric(path: str | Path) -> tuple[GraphMetric, dict]:
    """Read a metric file and re-certify the matrix.

    Returns (metric, config echo).  The stored lambda_min is cross-checked
    against the fresh certificate; a missing, mistyped, non-finite or
    out-of-range key (``dim`` below 1, ``config`` not an object) is a
    ValueError.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, found "
                         f"{type(payload).__name__}")
    # type() in place of isinstance(): JSON booleans are not numbers here
    for key, kinds, what in (("dim", (int,), "an integer"),
                             ("entries", (list,), "a list of numbers"),
                             ("lambda_min", (int, float), "a number")):
        if type(payload.get(key)) not in kinds:
            raise ValueError(f"{path}: key {key!r} is missing or not {what}")
    if any(type(v) not in (int, float) for v in payload["entries"]):
        raise ValueError(f"{path}: key 'entries' is not a list of numbers")
    # json parses NaN, Infinity and 1e400, and a NaN would slip past the
    # cross-check below; an integer beyond the float range overflows
    for key in ("entries", "lambda_min"):
        try:
            finite = np.all(np.isfinite(np.asarray(payload[key], dtype=float)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{path}: key {key!r} holds a non-finite number")
    dim, config = payload["dim"], payload.get("config", {})
    if dim < 1:
        raise ValueError(f"{path}: key 'dim' must be at least 1, not {dim}")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: key 'config' is not a JSON object, found "
                         f"{type(config).__name__}")
    entries = np.array(payload["entries"], dtype=float)
    if entries.shape != (dim * dim,):
        raise ValueError(
            f"{path}: expected {dim * dim} entries, found {entries.shape[0]}")
    matrix = SymmetricMatrix(entries.reshape(dim, dim))
    metric = validate_graph_metric(matrix)
    stored = float(payload["lambda_min"])
    fresh = metric.certificate.lambda_min
    if abs(stored - fresh) > 1e-6 * max(1.0, abs(fresh)):
        raise ValueError(
            f"{path}: stored lambda_min {stored} disagrees with "
            f"recomputed {fresh}")
    return metric, config
