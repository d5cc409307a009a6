"""Dataset ingestion: CSV and IDX loaders, one-hot encoding, splits, and the
synthetic blob generator used for desk-scale checks.

A :class:`Dataset` stores inputs as columns of a P-by-N matrix, each paired
with its class index, plus disjoint train/test column index lists that
together cover every column.

A parsed CSV table can be kept as a snapshot keyed to the SHA-256 of the
bytes its parse read (``meta["csv_sha256"]``) and its parse options
(:func:`save_csv_snapshot`), and read back in place of a parse only while
both still match and the snapshot passes its own digest
(:func:`load_csv_snapshot`).
"""

from __future__ import annotations

import hashlib
import io
import re
import struct
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import (DataError, FormatError, ParameterError, ParseError,
                     ResourceError)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Inputs-as-columns, each with a class index in 0..n_classes-1, and a
    train/test partition."""

    X: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    n_classes: int
    train_idx: np.ndarray = field(repr=False)
    test_idx: np.ndarray = field(repr=False)
    meta: dict

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.labels.shape != self.X.shape[1:]:
            raise DataError(f"labels {self.labels.shape} do not fit X {self.X.shape}")
        combined = np.concatenate([self.train_idx, self.test_idx])
        # a sort, not np.unique, whose first call imports numpy.ma
        if not np.array_equal(np.sort(combined), np.arange(self.n_samples)):
            raise DataError("train/test indices must partition all columns")
        if self.labels.dtype.kind not in "iu" or not np.all(
                (self.labels >= 0) & (self.labels < self.n_classes)):
            raise DataError(f"labels must be integers in 0..{self.n_classes - 1}")
        for arr in (self.X, self.labels, self.train_idx, self.test_idx):
            arr.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.X.shape[0]

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]

    def columns(self, idx: np.ndarray, transform=None) -> np.ndarray:
        """A new float64 array of the inputs at integer column indices
        ``idx``, standardized by a (mu, sigma) ``transform`` if given."""
        x = self.X[:, idx].astype(np.float64, copy=False)
        if transform is not None:
            x -= transform[0]
            x /= transform[1]
        return x

    def targets(self, idx: np.ndarray) -> np.ndarray:
        """A new Q-by-len(idx) array: the one-hot targets at ``idx``."""
        return one_hot(self.labels[idx], self.n_classes)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Q-by-N indicator matrix from integer labels 0..Q-1, Fortran-ordered
    as ``t[:, idx]`` of a C-ordered ``t`` is (BLAS rounds by layout)."""
    labels = np.asarray(labels, dtype=np.int64)
    t = np.zeros((labels.size, n_classes))
    t[np.arange(labels.size), labels] = 1.0
    return t.T


class _HashedFile(io.FileIO):
    """A file whose ``readinto`` feeds each byte it reads to ``sha256``."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, b) -> int:
        n = super().readinto(b)
        self.sha256.update(b[:n])
        return n


def _dataset(x, labels, label_names, name, train_idx=None, test_idx=None,
             **extra) -> Dataset:
    n = x.shape[1]
    if train_idx is None:
        train_idx = np.arange(n)
        test_idx = np.arange(0)
    meta = {
        "name": name,
        "P": int(x.shape[0]),
        "Q": len(label_names),
        "N_train": int(len(train_idx)),
        "N_test": int(len(test_idx)),
        "label_names": list(label_names),
        **extra,
    }
    return Dataset(np.asarray(x, dtype=np.float64),
                   np.asarray(labels, dtype=np.int64), len(label_names),
                   np.asarray(train_idx, dtype=np.int64),
                   np.asarray(test_idx, dtype=np.int64), meta)


def _data_lines(fh, opts: dict):
    """``(first file line, record)`` of each non-blank record. As in
    np.loadtxt, a ``"`` opens a quote only at the start of a field, and a
    record runs on over line breaks while a quote is open."""
    d, parts, quoted = opts["delimiter"], [], r'"(?:[^"]|"")*"(?!")'
    sep, cell, first, lead = (
        (r"\s+", r"\S", r'[^\s"]', r"\s*") if d is None else
        (re.escape(d), f"[^{re.escape(d)}]", '(?!")', ""))
    field = rf"(?:{quoted}|{first}){cell}*"
    closed = re.compile(rf"{lead}(?:{field}(?:{sep}{field})*\s*)?")
    for rownum, line in enumerate(fh, 1):
        if parts or (line.strip() if d is None else line.rstrip("\n")):
            parts.append(line)  # a line in a quote reads as if it opened it
            if closed.fullmatch('"' * (len(parts) > 1) + line):
                yield rownum + 1 - len(parts), "".join(parts)
                parts = []
    if parts:
        yield rownum + 1 - len(parts), "".join(parts)


def _fields(line: str, opts: dict) -> list[str]:
    return list(np.loadtxt([line], dtype=object, ndmin=1, **opts))


def _bad_row(path, opts, has_header, width, label_at) -> ParseError:
    """The first ragged row, or row with a bad feature, by file line."""
    row_opts = {**opts, "converters": {label_at: lambda s: 0.0}}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for rownum, line in islice(_data_lines(fh, opts), has_header, None):
            with suppress(ValueError):
                row = np.loadtxt([line], **row_opts)
                if row.size == width and np.isfinite(row).all():
                    continue
            cells = _fields(line, opts)
            if len(cells) != width:
                return ParseError(f"{path}: row {rownum} has {len(cells)} "
                                  f"fields, expected {width}")
            for j, cell in enumerate(cells):
                kind = "non-numeric"
                with suppress(ValueError):
                    if j == label_at or np.isfinite(
                            np.loadtxt([line], usecols=j, **opts)):
                        continue
                    kind = "non-finite"
                return ParseError(f"{path}: row {rownum}, column {j + 1}: "
                                  f"{kind} feature {cell!r}")
    return ParseError(f"{path}: no bad row on a second read")


def load_csv(path, label_column=-1, delimiter: str = ",",
             has_header: bool = False) -> Dataset:
    """Parse a rectangular delimited file into a dataset.

    ``label_column`` selects the label field by index (negatives count from
    the end) or by header name (requires ``has_header``). Labels are mapped
    to 0..Q-1 in first-appearance order, recorded in ``meta["label_names"]``.
    One read feeds the head probe and one np.loadtxt pass, as README "Data
    sources" describes, and the SHA-256 of its bytes, ``meta["csv_sha256"]``;
    error rows are file lines. All samples land in the train split; apply
    :func:`split_dataset` afterwards.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"cannot read data file: {path}")
    if len(delimiter) != 1 and not delimiter.isspace():
        raise ParameterError(f"delimiter must be one character or "
                             f"whitespace, got {delimiter!r}")
    opts = {"delimiter": None if delimiter.isspace() else delimiter,
            "comments": None, "quotechar": '"', "encoding": "utf-8"}
    raw = _HashedFile(path)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
        seen = []  # the lines the head probe reads, which the parse reads too
        probe = (seen.append(line) or line for line in fh)
        try:
            head = list(islice(_data_lines(probe, opts), 1 + has_header))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: unreadable text: {exc}") from None
        if len(head) < 1 + has_header:
            raise ParseError(f"{path}: " + ("header but no data rows" if head
                                            else "no rows"))
        skip = head[0][0] + head[0][1].count("\n") - 1 if has_header else 0
        width = len(_fields(head[-1][1], opts))
        if width < 2:
            raise ParseError(f"{path}: row {head[-1][0]}: need at least one "
                             f"feature and a label")

        header = _fields(head[0][1], opts) if has_header else []
        if not isinstance(label_column, str):
            idx = int(label_column)
        elif label_column in header:
            idx = header.index(label_column)
        else:
            raise ParseError(f"{path}: " + (
                f"no header column named {label_column!r}" if has_header
                else f"label column named {label_column!r} needs a header"))
        if not -width <= idx < width:
            raise ParseError(f"{path}: label column {idx} out of range for "
                             f"{width} fields")
        label_at = idx % width

        index_of: dict[str, int] = {}  # first-appearance order
        label = {label_at: lambda s: index_of.setdefault(s, len(index_of))}
        try:
            table = np.loadtxt(chain(seen, fh), ndmin=2, skiprows=skip,
                               converters=label, **opts)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: unreadable text: {exc}") from None
        except ValueError:
            raise _bad_row(path, opts, has_header, width, label_at) from None
        x = np.delete(table, label_at, axis=1)
        if not np.isfinite(x).all():
            raise _bad_row(path, opts, has_header, width, label_at)
        return _dataset(x.T, table[:, label_at].astype(np.int64),
                        list(index_of), path.name, source=str(path),
                        csv_sha256=raw.sha256.hexdigest())


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read 1 MiB at a time so that no
    file-sized buffer is held."""
    with io.BufferedReader(raw := _HashedFile(path), 1 << 20) as fh:
        while fh.read1():
            pass
    return raw.sha256.hexdigest()


def save_csv_snapshot(ds: Dataset, path, label_column,
                      delimiter: str) -> dict | None:
    """Write ``ds``, parsed by :func:`load_csv` with ``label_column`` and
    ``delimiter``, to ``path`` as three NPY arrays back to back: the label
    names, each column's label index (int64) and the P x N float64
    features. Return the manifest record that keys it to those options and
    the CSV bytes parsed, or None, writing nothing, when a label name does
    not survive a NumPy string array (one ending in NUL)."""
    names = np.array(ds.meta["label_names"], dtype=str)
    if names.tolist() != ds.meta["label_names"]:
        return None
    with open(path, "wb") as fh:
        for arr in (names, ds.labels, ds.X):
            np.save(fh, arr, allow_pickle=False)
    return {"csv_sha256": ds.meta["csv_sha256"], "label_col": label_column,
            "delimiter": delimiter, "sha256": file_sha256(path)}


def load_csv_snapshot(path, record, csv_path, label_column,
                      delimiter: str) -> Dataset | None:
    """What ``load_csv(csv_path, label_column, delimiter)`` would return,
    read from the snapshot :func:`save_csv_snapshot` wrote to ``path``
    with manifest ``record``. None, so that the caller parses instead,
    unless ``record`` holds the same options, the CSV's bytes and the
    snapshot's hash to its digests, and the snapshot is a table."""
    if not isinstance(record, dict) or (
            type(record.get("label_col")), record.get("label_col"),
            record.get("delimiter")) != (type(label_column), label_column,
                                         delimiter):
        return None
    try:
        if file_sha256(csv_path) != record.get("csv_sha256"):
            return None
        blob = Path(path).read_bytes()
    except OSError:
        return None
    if hashlib.sha256(blob).hexdigest() != record.get("sha256"):
        return None
    fh = io.BytesIO(blob)
    try:
        names, labels, x = [np.lib.format.read_array(fh, allow_pickle=False)
                            for _ in range(3)]
        if not (fh.tell() == len(blob) and names.dtype.kind == "U"
                and names.ndim == 1 and labels.dtype == np.int64
                and x.dtype == np.float64 and x.ndim == 2
                and labels.shape == x.shape[1:]
                and 0 <= labels.min() <= labels.max() < names.size):
            return None
    except ValueError:
        return None
    csv_path = Path(csv_path)
    return _dataset(x, labels, names.tolist(), csv_path.name,
                    source=str(csv_path), csv_sha256=record["csv_sha256"])


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
    if seed < 0:
        raise ParameterError(f"split seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    meta = dict(ds.meta)
    meta.update(N_train=int(n_train), N_test=int(n - n_train),
                split_seed=int(seed))
    return Dataset(ds.X, ds.labels, ds.n_classes, np.sort(perm[:n_train]),
                   np.sort(perm[n_train:]), meta)


def merge_train_test(train: Dataset, test: Dataset) -> Dataset:
    """Concatenate two datasets that carry a canonical train/test division.

    The parts may disagree on label order (loaders assign indices by first
    appearance per file); labels are reconciled by name onto the train
    part's order, extended with any classes that only occur in the test
    part. The CLI's IDX parts always agree, but a library caller may join
    two CSV parts whose first-appearance orders differ.
    """
    if train.input_dim != test.input_dim:
        raise DataError(
            f"train and test parts have mismatched input dims: "
            f"{train.input_dim} vs {test.input_dim}"
        )
    names = list(dict.fromkeys([*train.meta["label_names"],
                                *test.meta["label_names"]]))
    labels = np.concatenate([  # each part's labels, renumbered by name
        np.array([names.index(n) for n in ds.meta["label_names"]],
                 dtype=np.int64)[ds.labels] for ds in (train, test)])
    x = np.hstack([train.X, test.X])
    n_tr = train.n_samples
    meta = {k: v for k, v in train.meta.items() if k != "csv_sha256"}
    meta.update(Q=len(names), label_names=names,
                N_train=n_tr, N_test=test.n_samples,
                source=f"{train.meta.get('source')};{test.meta.get('source')}")
    return Dataset(x, labels, len(names), np.arange(n_tr),
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
    if not 0 <= separation < np.inf:  # NaN fails both comparisons
        raise ParameterError(f"separation must be finite and >= 0, "
                             f"got {separation}")
    if seed < 0:
        raise ParameterError(f"blob seed must be >= 0, got {seed}")
    if p * n * 8 > np.iinfo(np.intp).max:
        raise ResourceError(f"{p} x {n} float64 blob inputs exceed the "
                            f"{np.iinfo(np.intp).max} bytes an array can hold")
    rng = np.random.Generator(np.random.PCG64(seed))
    means = np.zeros((q, p))
    if q <= p:
        np.fill_diagonal(means, separation / np.sqrt(2.0))
    else:
        dirs = rng.standard_normal((q, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = dirs * separation / np.sqrt(2.0)

    counts = np.full(q, n // q)
    counts[: n % q] += 1
    labels = np.repeat(np.arange(q), counts)
    x = rng.standard_normal((p, n))
    for c, end in enumerate(np.cumsum(counts)):  # class c's columns, in place
        x[:, end - counts[c]:end] += means[c][:, None]

    target_train = round(n * 2 / 3)
    cuts = counts * 2 // 3
    short = target_train - int(cuts.sum())
    cuts[:short] += 1
    # class c's first cuts[c] columns train, the rest test
    in_train = np.arange(n) < (np.cumsum(counts) - counts + cuts)[labels]
    train_idx, test_idx = np.flatnonzero(in_train), np.flatnonzero(~in_train)

    names = [str(c) for c in range(q)]
    return _dataset(x, labels, names, "blobs", train_idx, test_idx,
                    separation=float(separation), seed=int(seed),
                    source=f"blobs(p={p},q={q},n={n},sep={separation},seed={seed})")
