"""Layer-wise trained ReLU expansion networks with fixed orthonormal weights.

Each layer projects its input through a fixed orthonormal matrix and splits
the result into positive and negated-negative halves, doubling the dimension
while preserving norms and pairwise distances within provable bounds. Only a
final linear map per layer is trained, under an analytically derived
Frobenius-ball budget that certifies the training cost never increases with
depth.
"""

__version__ = "0.1.0"

import os

# numpy's and scipy's own OpenBLAS pools spin 2^28 cycles after every call,
# on each other's cores; 4 (2^4, OpenBLAS's least) puts them to sleep at once.
# OpenBLAS reads it when it loads, so this must precede numpy's first import.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .data import (
    Dataset,
    load_csv,
    load_idx,
    make_synthetic_blobs,
    merge_train_test,
    split_dataset,
)
from .errors import HnfError
from .trainer import TrainConfig, TrainReport, evaluate, train, verify_invariants

__all__ = [
    "__version__",
    "Dataset",
    "HnfError",
    "TrainConfig",
    "TrainReport",
    "evaluate",
    "load_csv",
    "load_idx",
    "make_synthetic_blobs",
    "merge_train_test",
    "split_dataset",
    "train",
    "verify_invariants",
]
