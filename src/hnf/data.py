"""Dataset ingestion: CSV and IDX loaders, one-hot encoding, splits, and the
synthetic blob generator used for desk-scale checks.

A :class:`Dataset` stores inputs as columns of a P-by-N matrix paired with a
Q-by-N one-hot target matrix, plus disjoint train/test column index lists
that together cover every column.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError, ParseError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Inputs-as-columns with one-hot targets and a train/test partition."""

    X: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    train_idx: np.ndarray = field(repr=False)
    test_idx: np.ndarray = field(repr=False)
    meta: dict

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.T.ndim != 2:
            raise DataError("X and T must be 2-D")
        if self.X.shape[1] != self.T.shape[1]:
            raise DataError(
                f"X has {self.X.shape[1]} samples but T has {self.T.shape[1]}"
            )
        n = self.X.shape[1]
        combined = np.concatenate([self.train_idx, self.test_idx])
        if len(np.unique(combined)) != n or len(combined) != n:
            raise DataError("train/test indices must partition all columns")
        onehot_ok = (
            np.all(np.sum(self.T == 1.0, axis=0) == 1)
            and np.all((self.T == 0.0) | (self.T == 1.0))
        )
        if not onehot_ok:
            raise DataError("T columns must be exact one-hot vectors")
        for arr in (self.X, self.T, self.train_idx, self.test_idx):
            arr.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.X.shape[0]

    @property
    def n_classes(self) -> int:
        return self.T.shape[0]

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]

    @property
    def X_train(self) -> np.ndarray:
        return self.X[:, self.train_idx]

    @property
    def T_train(self) -> np.ndarray:
        return self.T[:, self.train_idx]

    @property
    def X_test(self) -> np.ndarray:
        return self.X[:, self.test_idx]

    @property
    def T_test(self) -> np.ndarray:
        return self.T[:, self.test_idx]


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Q-by-N indicator matrix from integer labels 0..Q-1."""
    labels = np.asarray(labels, dtype=np.int64)
    t = np.zeros((n_classes, labels.size))
    t[labels, np.arange(labels.size)] = 1.0
    return t


def _dataset(x, labels, label_names, name, train_idx=None, test_idx=None,
             **extra) -> Dataset:
    n = x.shape[1]
    if train_idx is None:
        train_idx = np.arange(n)
        test_idx = np.arange(0)
    t = one_hot(labels, len(label_names))
    meta = {
        "name": name,
        "P": int(x.shape[0]),
        "Q": len(label_names),
        "N_train": int(len(train_idx)),
        "N_test": int(len(test_idx)),
        "label_names": list(label_names),
        **extra,
    }
    return Dataset(np.asarray(x, dtype=np.float64), t,
                   np.asarray(train_idx, dtype=np.int64),
                   np.asarray(test_idx, dtype=np.int64), meta)


def load_csv(path, label_column=-1, delimiter: str = ",",
             has_header: bool = False) -> Dataset:
    """Parse a rectangular delimited file into a dataset.

    ``label_column`` selects the label field by index (negatives count from
    the end) or by header name (requires ``has_header``). Features must be
    numeric; labels are mapped to 0..Q-1 in first-appearance order, recorded
    in ``meta["label_names"]``. A whitespace delimiter splits on runs of
    whitespace (the common layout of space-separated numeric files). All
    samples land in the train split; apply :func:`split_dataset` afterwards.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"cannot read data file: {path}")
    if len(delimiter) != 1 and not delimiter.isspace():
        raise ParameterError(f"delimiter must be one character or "
                             f"whitespace, got {delimiter!r}")
    try:
        if delimiter.isspace():
            rows = [line.split()
                    for line in path.read_text(encoding="utf-8").splitlines()]
        else:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh, delimiter=delimiter))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: unreadable text: {exc}") from None
    rows = [r for r in rows if r]
    if not rows:
        raise ParseError(f"{path}: no rows")

    header = None
    if has_header:
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")
    width = len(rows[0])
    if width < 2:
        raise ParseError(f"{path}: need at least one feature and a label")

    if isinstance(label_column, str):
        if header is None:
            raise ParseError(
                f"{path}: label column named {label_column!r} needs a header"
            )
        try:
            label_at = header.index(label_column)
        except ValueError:
            raise ParseError(
                f"{path}: no header column named {label_column!r}"
            ) from None
    else:
        idx = int(label_column)
        if not -width <= idx < width:
            raise ParseError(
                f"{path}: label column {idx} out of range for {width} fields"
            )
        label_at = idx % width

    features = []
    raw_labels = []
    for i, row in enumerate(rows):
        rownum = i + (2 if has_header else 1)
        if len(row) != width:
            raise ParseError(
                f"{path}: row {rownum} has {len(row)} fields, expected {width}"
            )
        feat = []
        for j, cell in enumerate(row):
            if j == label_at:
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {rownum}, column {j + 1}: "
                    f"non-numeric feature {cell!r}"
                ) from None
        features.append(feat)
        raw_labels.append(row[label_at])

    label_names = list(dict.fromkeys(raw_labels))  # first-appearance order
    index_of = {lab: i for i, lab in enumerate(label_names)}
    labels = np.array([index_of[lab] for lab in raw_labels], dtype=np.int64)

    x = np.array(features, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        i, j = bad[0]
        column = j + 1 if j < label_at else j + 2
        raise ParseError(
            f"{path}: row {i + (2 if has_header else 1)}, column {column}: "
            f"non-finite feature {rows[i][column - 1]!r}"
        )
    return _dataset(x.T, labels, label_names, path.name, source=str(path))


def _read_be_u32(blob: bytes, offset: int, path) -> int:
    if offset + 4 > len(blob):
        raise FormatError(f"{path}: truncated file")
    return struct.unpack_from(">I", blob, offset)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (big-endian, u8 pixels and labels).

    Pixels are flattened row-major and scaled to [0, 1] by 255; labels must
    lie in 0..9 and the class count is fixed at 10. All samples land in the
    train split.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    for p in (images_path, labels_path):
        if not p.is_file():
            raise DataError(f"cannot read data file: {p}")

    blob = images_path.read_bytes()
    if _read_be_u32(blob, 0, images_path) != IDX_IMAGE_MAGIC:
        raise FormatError(f"{images_path}: bad image magic")
    count = _read_be_u32(blob, 4, images_path)
    rows = _read_be_u32(blob, 8, images_path)
    cols = _read_be_u32(blob, 12, images_path)
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    if pixels.size != count * rows * cols:
        raise FormatError(
            f"{images_path}: expected {count * rows * cols} pixels, "
            f"got {pixels.size}"
        )

    lblob = labels_path.read_bytes()
    if _read_be_u32(lblob, 0, labels_path) != IDX_LABEL_MAGIC:
        raise FormatError(f"{labels_path}: bad label magic")
    lcount = _read_be_u32(lblob, 4, labels_path)
    labels = np.frombuffer(lblob, dtype=np.uint8, offset=8)
    if labels.size != lcount:
        raise FormatError(
            f"{labels_path}: expected {lcount} labels, got {labels.size}"
        )
    if lcount != count:
        raise FormatError(
            f"image count {count} does not match label count {lcount}"
        )
    if labels.size and labels.max() > 9:
        raise FormatError(
            f"{labels_path}: label {labels.max()} out of range 0-9"
        )

    x = pixels.reshape(count, rows * cols).astype(np.float64).T / 255.0
    names = [str(i) for i in range(10)]
    return _dataset(x, labels.astype(np.int64), names, images_path.name,
                    source=f"{images_path},{labels_path}",
                    image_shape=[int(rows), int(cols)])


def split_dataset(ds: Dataset, n_train: int, seed: int = 0) -> Dataset:
    """Seeded-shuffle split into ``n_train`` train and the rest test columns."""
    n = ds.n_samples
    if not 0 < n_train <= n:
        raise ParameterError(
            f"n_train must be in 1..{n}, got {n_train}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    meta = dict(ds.meta)
    meta.update(N_train=int(n_train), N_test=int(n - n_train),
                split_seed=int(seed))
    return Dataset(ds.X, ds.T, np.sort(perm[:n_train]),
                   np.sort(perm[n_train:]), meta)


def merge_train_test(train: Dataset, test: Dataset) -> Dataset:
    """Concatenate two datasets that carry a canonical train/test division.

    The parts may disagree on label order (loaders assign indices by first
    appearance per file); labels are reconciled by name onto the train
    part's order, extended with any classes that only occur in the test
    part.
    """
    if train.input_dim != test.input_dim:
        raise DataError(
            f"train and test parts have mismatched input dims: "
            f"{train.input_dim} vs {test.input_dim}"
        )
    names = list(train.meta["label_names"])
    index_of = {name: i for i, name in enumerate(names)}
    for name in test.meta["label_names"]:
        if name not in index_of:
            index_of[name] = len(names)
            names.append(name)

    def relabel(ds: Dataset) -> np.ndarray:
        own = ds.meta["label_names"]
        raw = np.argmax(ds.T, axis=0)
        return np.array([index_of[own[i]] for i in raw], dtype=np.int64)

    x = np.hstack([train.X, test.X])
    labels = np.concatenate([relabel(train), relabel(test)])
    n_tr = train.n_samples
    meta = dict(train.meta)
    meta.update(Q=len(names), label_names=names,
                N_train=n_tr, N_test=test.n_samples,
                source=f"{train.meta.get('source')};{test.meta.get('source')}")
    return Dataset(x, one_hot(labels, len(names)), np.arange(n_tr),
                   np.arange(n_tr, n_tr + test.n_samples), meta)


def make_synthetic_blobs(p: int, q: int, n: int, separation: float,
                         seed: int) -> Dataset:
    """Balanced Gaussian clusters with means ``separation`` apart.

    Unit-variance clusters; class c's mean is ``separation / sqrt(2)`` times
    the c-th standard basis vector when q <= p (exact pairwise distance),
    otherwise a random unit direction. Deterministic class-stratified 2:1
    train:test split.
    """
    if p < 1 or q < 1 or n < 1:
        raise ParameterError(f"degenerate blob parameters p={p} q={q} n={n}")
    if q > n:
        raise ParameterError(f"need at least one sample per class, q={q} > n={n}")
    if separation < 0:
        raise ParameterError(f"separation must be >= 0, got {separation}")
    rng = np.random.Generator(np.random.PCG64(seed))
    means = np.zeros((q, p))
    if q <= p:
        for c in range(q):
            means[c, c] = separation / np.sqrt(2.0)
    else:
        dirs = rng.standard_normal((q, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = dirs * separation / np.sqrt(2.0)

    counts = np.full(q, n // q)
    counts[: n % q] += 1
    labels = np.repeat(np.arange(q), counts)
    x = rng.standard_normal((p, n)) + means[labels].T

    target_train = round(n * 2 / 3)
    cuts = counts * 2 // 3
    short = target_train - int(cuts.sum())
    cuts[:short] += 1
    train_parts, test_parts = [], []
    start = 0
    for c in range(q):
        idx = np.arange(start, start + counts[c])
        start += counts[c]
        train_parts.append(idx[: cuts[c]])
        test_parts.append(idx[cuts[c]:])
    train_idx = np.concatenate(train_parts)
    test_idx = np.concatenate(test_parts)

    names = [str(c) for c in range(q)]
    return _dataset(x, labels, names, "blobs", train_idx, test_idx,
                    separation=float(separation), seed=int(seed),
                    source=f"blobs(p={p},q={q},n={n},sep={separation},seed={seed})")
