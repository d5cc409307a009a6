"""Factories for the fixed, never-learned weight matrices.

Three kinds are supported:

* random orthonormal: thin QR of an i.i.d. N(0,1) matrix, sign-fixed so the
  factorization is unique (diagonal of R positive);
* DCT orthonormal: the first ``m`` columns of the n-by-n orthonormal DCT-II
  matrix, which is exactly "zero-pad to length n, then transform";
* raw Gaussian: i.i.d. N(0,1) entries with no shape constraint, used as the
  ELM front layer.

Randomized factories draw from numpy's PCG64 generator, so a fixed
``(kind, n, m, seed)`` always yields a bit-identical matrix.

Weight matrices serialize to a small binary format: little-endian header
(magic ``HNFW``, u32 rows, u32 cols, u8 kind, u64 seed-or-zero) followed by
row-major float64 entries.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, ParameterError

MAGIC = b"HNFW"
_HEADER = struct.Struct("<4sIIBQ")


class WeightKind(enum.IntEnum):
    """Weight matrix construction, encoded as u8 in the binary format."""

    RANDOM_ORTHONORMAL = 0
    DCT_ORTHONORMAL = 1
    RAW_GAUSSIAN = 2

    @property
    def orthonormal(self) -> bool:
        return self is not WeightKind.RAW_GAUSSIAN


@dataclass(frozen=True)
class WeightMatrix:
    """A fixed n-by-m weight matrix together with its provenance.

    ``entries`` is read-only; orthonormal kinds satisfy
    ``max|W.T @ W - I| <= 1e-10`` by construction. ``seed`` is present iff
    the construction is randomized.
    """

    rows: int
    cols: int
    entries: np.ndarray = field(repr=False)
    kind: WeightKind
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.entries.shape != (self.rows, self.cols):
            raise DimensionError(
                f"entries shape {self.entries.shape} does not match "
                f"({self.rows}, {self.cols})"
            )
        self.entries.setflags(write=False)

    @property
    def orthonormal(self) -> bool:
        return self.kind.orthonormal

    def apply(self, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``W @ q`` into ``out`` (new if None; numpy reads an overlapping
        ``q`` from a copy)."""
        return np.matmul(self.entries, q, out=out)


def _check_dims(n: int, m: int, *, require_tall: bool) -> None:
    if n < 1 or m < 1:
        raise DimensionError(f"dimensions must be positive, got n={n}, m={m}")
    if require_tall and n < m:
        raise DimensionError(
            f"orthonormal columns require n >= m, got n={n} < m={m}"
        )


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2 ** 64:
        raise ParameterError(
            f"seed must be an unsigned 64-bit integer, got {seed}"
        )
    return seed


def make_random_orthonormal(n: int, m: int, seed: int) -> WeightMatrix:
    """Random n-by-m matrix with orthonormal columns (n >= m).

    Thin QR of an i.i.d. N(0,1) draw, with the sign convention R[i, i] > 0 so
    the result is a deterministic function of (n, m, seed).
    """
    _check_dims(n, m, require_tall=True)
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    q, r = np.linalg.qr(rng.standard_normal((n, m)), mode="reduced")
    q *= np.where(np.diag(r) < 0, -1.0, 1.0)  # so that R's diagonal is >= 0
    del r  # the draw went with the QR call; only q outlives the signs
    return WeightMatrix(n, m, np.ascontiguousarray(q),
                        WeightKind.RANDOM_ORTHONORMAL, seed)


def dct_matrix(n: int) -> np.ndarray:
    """The n-by-n orthonormal DCT-II matrix D.

    D[k, j] = c_k * sqrt(2/n) * cos(pi * (2j + 1) * k / (2n)), c_0 = 1/sqrt(2),
    c_k = 1 otherwise. Rows are frequencies, columns positions; D @ D.T = I.
    """
    if n < 1:
        raise DimensionError(f"dimension must be positive, got n={n}")
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    d[0] /= np.sqrt(2.0)
    return d


def make_dct_orthonormal(n: int, m: int) -> WeightMatrix:
    """First m columns of the n-by-n orthonormal DCT-II matrix (n >= m).

    Multiplying a length-m vector by this matrix equals zero-padding it to
    length n and applying the DCT-II.
    """
    _check_dims(n, m, require_tall=True)
    w = np.ascontiguousarray(dct_matrix(n)[:, :m])
    return WeightMatrix(n, m, w, WeightKind.DCT_ORTHONORMAL, None)


def make_raw_gaussian(n: int, m: int, seed: int) -> WeightMatrix:
    """n-by-m matrix of i.i.d. N(0,1) entries; no shape or rank constraint."""
    _check_dims(n, m, require_tall=False)
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    return WeightMatrix(n, m, rng.standard_normal((n, m)),
                        WeightKind.RAW_GAUSSIAN, seed)


def save_weight(w: WeightMatrix, path) -> None:
    """Write the binary weight format (header + row-major float64)."""
    header = _HEADER.pack(MAGIC, w.rows, w.cols, int(w.kind),
                          0 if w.seed is None else int(w.seed))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(w.entries, dtype="<f8").tobytes())


def load_weight(path) -> WeightMatrix:
    """Read a matrix written by :func:`save_weight`, finite entries only."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, rows, cols, kind_code, seed = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    try:
        kind = WeightKind(kind_code)
    except ValueError as exc:
        raise FormatError(f"{path}: unknown kind code {kind_code}") from exc
    expected = _HEADER.size + rows * cols * 8
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {rows}x{cols}, "
            f"got {len(blob)}"
        )
    entries = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(entries).all():
        raise FormatError(f"{path}: non-finite weight entries")
    entries = entries.reshape(rows, cols).copy()
    return WeightMatrix(rows, cols, entries, kind,
                        seed if kind is not WeightKind.DCT_ORTHONORMAL else None)
