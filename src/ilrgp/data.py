"""Synthetic generators, CSV ingestion, normalization, and splits.

Labels are integers in ``1..K``. All randomness flows through explicit
seeds, so every generator and split is reproducible.
"""

import csv
import io
import logging
import math
import os
import stat
from array import array
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid user input: a configuration value, a data file or a model file."""


def _number(cfg: dict, key: str, kind):
    """``cfg[key]`` as ``kind`` (int or float); strings, booleans and fractions of ints are errors."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Dataset:
    """Feature rows with labels in ``1..K``; a split part may have no rows."""

    X: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if X.ndim != 2:
            raise ValueError(f"X must be an (N, P) matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        if labels.shape != (X.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {X.shape[0]} rows")
        if np.any(labels < 1) or np.any(labels > self.num_classes):
            raise ValueError(f"labels must lie in 1..{self.num_classes}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test sizes as fractions (summing to 1) or integer counts."""

    train: float
    val: float
    test: float
    seed: int = 0

    def __post_init__(self):
        parts = (self.train, self.val, self.test)
        if any(isinstance(p, bool) or not isinstance(p, (int, float, np.integer)) or not (0 <= p < math.inf)
               for p in parts):
            raise ValueError(f"split train, val and test must be numbers, finite and >= 0, got {list(parts)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def sizes(self, n: int):
        parts = (self.train, self.val, self.test)
        if all(isinstance(p, (int, np.integer)) for p in parts):
            if sum(parts) != n:
                raise ValueError(f"split counts {parts} do not sum to {n}")
            return tuple(int(p) for p in parts)
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ValueError(f"split fractions {parts} do not sum to 1")
        n_train = int(self.train * n + 1e-9)
        n_val = int(self.val * n + 1e-9)
        return n_train, n_val, n - n_train - n_val


def circle_centers(num_classes: int) -> np.ndarray:
    """Class centers evenly spaced on the unit circle; class k sits at angle 2*pi*k/K."""
    k = np.arange(1, num_classes + 1)
    ang = 2.0 * np.pi * k / num_classes
    return np.column_stack([np.cos(ang), np.sin(ang)])


def default_circle_mix_sd(num_classes: int) -> float:
    """Half the chord between adjacent centers, so neighbors overlap at ~2 sd."""
    return math.sin(math.pi / num_classes)


def gen_circle_mixture(num_classes: int, n: int, mix_sd: float, seed) -> Dataset:
    """Isotropic Gaussian mixture with one component per class on the unit circle.

    Class counts are balanced: ``n // K`` points each, remainder assigned to
    the first classes.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n}, K={num_classes}")
    if mix_sd < 0:
        raise ValueError(f"mix_sd must be non-negative, got {mix_sd}")
    rng = default_rng(seed)
    centers = circle_centers(num_classes)
    base = n // num_classes
    rem = n - base * num_classes
    xs, ys = [], []
    for k in range(num_classes):
        n_k = base + (1 if k < rem else 0)
        xs.append(centers[k] + mix_sd * rng.standard_normal((n_k, 2)))
        ys.append(np.full(n_k, k + 1, dtype=int))
    return Dataset(np.vstack(xs), np.concatenate(ys), num_classes)


def gen_overlap_toy(s: float, n: int, seed) -> Dataset:
    """Three-class unit-circle mixture whose ambiguity grows with ``s``."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    return gen_circle_mixture(3, n, s, seed)


def load_table(path, label_column: str) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    Features must be finite numbers; the label column may hold integers or
    arbitrary category names, which are stripped of surrounding whitespace
    and mapped to ``1..K`` in sorted order: numeric order, ties broken on
    the text, when every label is a finite number, code-point order
    otherwise. A UTF-8 byte-order mark and blank lines are skipped. A
    malformed file (an empty label, a label column named twice or no feature
    column among them) raises :class:`ConfigError` naming the path and any row.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            values, raw_labels = _read_rows(csv.reader(fh), path, label_column)
        except (UnicodeDecodeError, csv.Error) as e:
            raise ConfigError(f"{path}: not a readable CSV file: {e}") from None
    if not raw_labels:
        raise ConfigError(f"{path}: no data rows")

    try:
        keys = sorted(set(raw_labels), key=_numeric_label_key)
    except ValueError:
        keys = sorted(set(raw_labels))
    mapping = {key: k + 1 for k, key in enumerate(keys)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=int)
    return Dataset(np.frombuffer(values, dtype=float).reshape(len(raw_labels), -1), labels, len(keys))


def _numeric_label_key(label: str):
    """``(value, label)`` for a finite numeric label; any other label raises ValueError."""
    value = float(label)
    if not math.isfinite(value):
        raise ValueError(f"non-finite label {label!r}")
    return value, label


def _read_rows(reader, path, label_column):
    """Row-major features as one flat ``array("d")``, and the stripped labels.

    Each distinct label is kept as one ``str`` object, so a row costs its
    features' 8 bytes each and one list slot.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty file") from None
    count = header.count(label_column)
    if count == 0:
        raise ConfigError(f"{path}: no column named {label_column!r} in header")
    if count > 1:
        raise ConfigError(f"{path}: column {label_column!r} occurs {count} times in header")
    label_idx = header.index(label_column)
    feature_cols = [(i, name) for i, name in enumerate(header) if i != label_idx]
    if not feature_cols:
        raise ConfigError(f"{path}: no feature column besides {label_column!r}")
    values = array("d")
    raw_labels = []
    distinct = {}
    for r, row in enumerate(reader, start=2):
        if not row:  # a blank line
            continue
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for i, name in feature_cols:
            try:
                value = float(row[i])
            except ValueError:
                raise ConfigError(
                    f"{path}: non-numeric value {row[i]!r} at row {r}, column {name!r}"
                ) from None
            if not math.isfinite(value):
                raise ConfigError(f"{path}: non-finite value {row[i]!r} at row {r}, column {name!r}")
            values.append(value)
        label = row[label_idx].strip()
        if not label:
            raise ConfigError(f"{path}: empty label at row {r}, column {label_column!r}")
        raw_labels.append(distinct.setdefault(label, label))
    return values, raw_labels


def write_text(path, text: str):
    """Write ``text`` to ``path`` as UTF-8, replacing what the file held.

    The bytes are encoded first and written over the old content; a regular
    file is then cut to their length. Nothing is truncated on open: cutting
    a file whose blocks are already allocated can take tens of milliseconds
    on a file system that discards freed blocks online, while rewriting
    them in place does not. Only regular files are cut, so a device such as
    ``/dev/null`` works as a target. If the write fails, a regular file is
    cut to zero length and the error re-raised, so a half-written file
    fails loudly when read.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def save_table(ds: Dataset, path, label_column: str = "label"):
    """Write a Dataset back to the CSV schema accepted by :func:`load_table`."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"x{j + 1}" for j in range(ds.X.shape[1])] + [label_column])
    writer.writerows(row + [label] for row, label in zip(ds.X.tolist(), ds.labels.tolist()))
    write_text(path, buf.getvalue())


@dataclass(frozen=True)
class NormStats:
    """Per-feature affine normalization ``(x - center) / scale`` fit on training data."""

    mode: str
    center: np.ndarray
    scale: np.ndarray

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = (X - self.center[None, :]) / self.scale[None, :]
        if self.mode == "minmax11":
            out = out - 1.0
        return out

    def to_dict(self) -> dict:
        return {"mode": self.mode, "center": self.center.tolist(), "scale": self.scale.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "NormStats":
        """The statistics :meth:`to_dict` wrote; anything else raises ValueError.

        The mode must be ``zscore`` or ``minmax11``, and ``center`` and
        ``scale`` lists of equally many finite numbers, every scale positive.
        """
        if d["mode"] not in ("zscore", "minmax11"):
            raise ValueError(f"unknown normalization mode {d['mode']!r}")
        for key in ("center", "scale"):
            if not isinstance(d[key], list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in d[key]
            ):
                raise ValueError(f"normalization {key} must be a list of finite numbers, got {d[key]!r}")
        center, scale = d["center"], d["scale"]
        if len(center) != len(scale):
            raise ValueError(f"normalization center and scale differ in length: "
                             f"{len(center)} and {len(scale)}")
        if not all(v > 0 for v in scale):
            raise ValueError(f"normalization scale must be positive, got {scale!r}")
        return NormStats(d["mode"], np.asarray(center, float), np.asarray(scale, float))


def fit_normalizer(X, mode: str) -> NormStats:
    """Compute normalization statistics on (training) features.

    ``zscore`` maps to zero mean and unit variance; a zero-variance feature
    maps to 0 with a warning. ``minmax11`` maps the observed range onto
    [-1, 1]; a constant feature maps to -1.
    """
    X = np.asarray(X, dtype=float)
    if mode == "zscore":
        center = X.mean(axis=0)
        scale = X.std(axis=0)
        flat = scale == 0.0
        if np.any(flat):
            log.warning("%d zero-variance feature(s) map to 0 under zscore", int(flat.sum()))
            scale = np.where(flat, 1.0, scale)
        return NormStats("zscore", center, scale)
    if mode == "minmax11":
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        span = hi - lo
        scale = np.where(span == 0.0, 1.0, span / 2.0)
        return NormStats("minmax11", lo, scale)
    raise ValueError(f"unknown normalization mode {mode!r}")


def apply_normalizer(ds: Dataset, stats: NormStats) -> Dataset:
    return Dataset(stats.apply(ds.X), ds.labels, ds.num_classes)


def split_indices(n: int, spec: SplitSpec):
    """Disjoint, exhaustive (train, val, test) index arrays from a seeded shuffle."""
    n_train, n_val, n_test = spec.sizes(n)
    perm = default_rng(spec.seed).permutation(n)
    return (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train:n_train + n_val]),
        np.sort(perm[n_train + n_val:]),
    )


def split(ds: Dataset, spec: SplitSpec):
    """Partition a dataset into (train, val, test) subsets."""
    idx_tr, idx_va, idx_te = split_indices(ds.n, spec)
    return ds.subset(idx_tr), ds.subset(idx_va), ds.subset(idx_te)
