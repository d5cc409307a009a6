"""In-memory span tracing of the hnf modules, installed from outside them.

Each hnf module calls its collaborators through names it looks up in its own
globals at call time (``hnf.trainer.admm_constrained_ls``,
``hnf.solvers.cho_solve``, ...). :meth:`Tracer.install` replaces those module
attributes with wrappers that record one span per call, so nothing under
``src/hnf`` has to change. A span is ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing span or ``None`` for a root.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: (module, attribute looked up at call time, span name). A span name is
#: ``<hnf module that defines the function>.<function>``; the same function
#: reached through two modules shares one name.
PATCHES = (
    ("hnf.cli", "load_csv", "data.load_csv"),
    ("hnf.cli", "split_dataset", "data.split_dataset"),
    ("hnf.cli", "train", "trainer.train"),
    ("hnf.cli", "evaluate", "trainer.evaluate"),
    ("hnf.cli", "verify_invariants", "trainer.verify_invariants"),
    ("hnf.cli", "save_network", "layers.save_network"),
    ("hnf.cli", "load_network", "layers.load_network"),
    ("hnf.cli", "save_output_map", "solvers.save_output_map"),
    ("hnf.cli", "load_output_map", "solvers.load_output_map"),
    ("hnf.trainer", "accuracy", "trainer.accuracy"),
    ("hnf.trainer", "make_random_orthonormal", "matrixgen.make_random_orthonormal"),
    ("hnf.trainer", "verify_full_column_rank", "matrixgen.verify_full_column_rank"),
    ("hnf.trainer", "vn_expand", "layers.vn_expand"),
    ("hnf.trainer", "layer_forward", "layers.layer_forward"),
    ("hnf.trainer", "network_invert", "layers.network_invert"),
    ("hnf.trainer", "weight_perturbation_check", "layers.weight_perturbation_check"),
    ("hnf.trainer", "least_squares", "solvers.least_squares"),
    ("hnf.trainer", "admm_constrained_ls", "solvers.admm_constrained_ls"),
    ("hnf.trainer", "embed_previous_map", "solvers.embed_previous_map"),
    ("hnf.trainer", "sample_cost", "solvers.sample_cost"),
    ("hnf.layers", "vn_expand", "layers.vn_expand"),
    ("hnf.layers", "verify_full_column_rank", "matrixgen.verify_full_column_rank"),
    ("hnf.layers", "save_weight", "matrixgen.save_weight"),
    ("hnf.layers", "load_weight", "matrixgen.load_weight"),
    ("hnf.solvers", "sample_cost", "solvers.sample_cost"),
    ("hnf.solvers", "cho_factor", "solvers.cho_factor"),
    ("hnf.solvers", "cho_solve", "solvers.cho_solve"),
)


class Tracer:
    """Collects spans in memory; one tracer per process, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every attribute in :data:`PATCHES`. An attribute the program
        no longer has is listed in ``missing`` and its span reads zero."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: busy time ``s``, ``self_s`` and ``calls``.

    Busy time counts only the outermost span of a name, so a name nested in
    itself is not counted twice. Self time is a span's duration minus the
    durations of its direct children, which run one after another.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["s"] += end - start
    return out
