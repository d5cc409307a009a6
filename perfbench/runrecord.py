"""The run record: what a benchmark number depends on besides the code.

BLAS threads are recorded as loaded, never set: the benchmark runs in the
environment it is given, so a later change may claim a gain from thread
settings against default-environment numbers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

_BLAS_MARKERS = ("openblas", "mkl", "blis", "libblas", "flexiblas")
_THREAD_SYMBOLS = (
    "openblas_get_num_threads", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
    "MKL_Get_Max_Threads", "bli_thread_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "openblas_get_config", "openblas_get_config64_",
    "scipy_openblas_get_config", "scipy_openblas_get_config64_",
)
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _loaded_blas() -> list[dict]:
    """BLAS libraries mapped into this process, with their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[5] for line in fh if len(line.split()) >= 6}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        if not any(m in Path(path).name.lower() for m in _BLAS_MARKERS):
            continue
        entry = {"library": path, "threads": None, "config": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                entry["threads"] = int(fn())
                break
        for sym in _CONFIG_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                entry["config"] = fn().decode(errors="replace")
                break
        found.append(entry)
    return found


def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        if size[-1:] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    return None


def _git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from the files; None outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256(root: Path) -> str:
    """Digest of ``src/hnf``'s Python files: identifies the code measured
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hnf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(root: Path, workload: str, seed: int, seconds: int,
               trace: bool) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's BLAS into the process)

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(root),
        "source_sha256": source_sha256(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _loaded_blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
    }
