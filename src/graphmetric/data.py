"""Dataset ingestion and fold-safe preprocessing."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CsvFormatError(ValueError):
    """A cell failed to parse; message names the row and column."""


@dataclass(frozen=True)
class Dataset:
    """N samples with K numeric features and integer class labels 0..C-1.

    Cross validation additionally needs >= 2 samples per class; that is
    checked where folds are built, not here, so small files still load.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)  # int() truncates 0.7
        if f.ndim != 2 or y.shape != (f.shape[0],):
            raise ValueError("features must be (N, K) with length-N labels")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain non-finite values")
        c = self.num_classes
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise ValueError(f"num_classes must be an integer, not {c!r}")
        if c < 2:
            raise ValueError("need at least 2 classes")
        if not np.all(y == np.floor(y)):  # false for NaN
            raise ValueError("labels must be integers")
        if y.min(initial=0) < 0 or y.max(initial=0) >= c:
            raise ValueError("labels must lie in 0..num_classes-1")
        f = f.copy()
        y = y.astype(int)
        f.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def _parse_csv(path: Path, label_column: int | str | None, delimiter: str,
               *, labelled: bool = True) -> tuple[np.ndarray, list[str]]:
    """Shared CSV core: finite feature matrix plus label strings.

    ``label_column`` may be a header name (the first row is then treated as
    a header), a column index in -width..width-1, or None for a file of
    features only.  With an index or None the first row is a header when
    none of its feature cells parses as a number, a data row when all do,
    and an error otherwise.  Blank, non-numeric and non-finite feature
    cells are errors, and so are blank label cells unless not ``labelled``.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise CsvFormatError(
            f"{path}: delimiter must be one character, not {delimiter!r}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        # (line number, cells) of every non-blank record
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    header = rows[0][1]
    width = len(header)
    if isinstance(label_column, str):
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise CsvFormatError(
                f"{path}: no column named {label_column!r} in header {header}")
        data_rows = rows[1:]
    else:
        label_idx = None
        if label_column is not None:
            if not -width <= label_column < width:
                raise CsvFormatError(
                    f"{path}: label column index {label_column} is out of "
                    f"range for {width} columns")
            label_idx = label_column % width
        feature_cells = [(i, c) for i, c in enumerate(header)
                         if i != label_idx]
        text = [(i, c) for i, c in feature_cells if not _is_number(c)]
        if text and len(text) < len(feature_cells):
            (col, cell), line = text[0], rows[0][0]
            raise CsvFormatError(
                f"{path}:{line}: non-numeric feature cell {cell!r} in column "
                f"{col}; a header row has no numeric feature cells")
        data_rows = rows[1:] if text else rows
    if not data_rows:
        raise CsvFormatError(f"{path}: no data rows")

    features = []
    raw_labels = []
    for line, row in data_rows:
        if len(row) != width:
            raise CsvFormatError(
                f"{path}:{line}: expected {width} cells, found {len(row)}")
        vals = []
        for col, cell in enumerate(row):
            if col == label_idx:
                continue
            cell = cell.strip()
            if cell == "":
                raise CsvFormatError(
                    f"{path}:{line}: missing value in column {col}")
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}:{line}: non-numeric feature cell {cell!r} "
                    f"in column {col}")
            if not math.isfinite(value):  # float() reads nan, inf and 1e999
                raise CsvFormatError(
                    f"{path}:{line}: non-finite feature cell {cell!r} "
                    f"in column {col}")
            vals.append(value)
        features.append(vals)
        if labelled and label_idx is not None:
            label = row[label_idx].strip()
            if label == "":
                raise CsvFormatError(
                    f"{path}:{line}: missing label in column {label_idx}")
            raw_labels.append(label)
    return np.array(features, dtype=float), raw_labels


def load_csv(path: str | Path, label_column: int | str = -1,
             delimiter: str = ",") -> Dataset:
    """Load a numeric CSV with one label column.

    Labels are encoded as integers in order of first appearance, so the
    encoding is deterministic.  See :func:`_parse_csv` for header handling.
    """
    path = Path(path)
    features, raw_labels = _parse_csv(path, label_column, delimiter)
    encoding: dict[str, int] = {}
    labels = []
    for lbl in raw_labels:
        if lbl not in encoding:
            encoding[lbl] = len(encoding)
        labels.append(encoding[lbl])
    return Dataset(name=path.stem, features=features,
                   labels=np.array(labels, dtype=int),
                   num_classes=len(encoding))


def load_feature_matrix(path: str | Path, label_column: int | str | None = None,
                        delimiter: str = ",") -> np.ndarray:
    """Feature rows only; any label column is skipped unread.

    For prediction inputs, which need no valid labeling.
    """
    features, _ = _parse_csv(Path(path), label_column, delimiter,
                             labelled=False)
    return features


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score parameters fit on a training fold."""

    mean: np.ndarray
    scale: np.ndarray  # 1.0 where the training column has zero variance

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.mean) / self.scale


def standardize(train_features: np.ndarray, test_features: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, Scaler]:
    """Z-score both folds using training statistics only (no test leakage)."""
    train = np.asarray(train_features, dtype=float)
    if train.shape[0] == 0:
        raise ValueError("empty training fold")
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    scaler = Scaler(mean=mean, scale=scale)
    return scaler.transform(train), scaler.transform(test_features), scaler
