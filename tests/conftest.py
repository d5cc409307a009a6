import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import hnf.errors
import hnf.layers
from hnf.layers import HnfLayer, HnfNetwork
from hnf.matrixgen import make_dct_orthonormal, make_random_orthonormal
from hnf.solvers import OutputMap, least_squares
from oracles import sample_cost

README = Path(__file__).parents[1] / "README.md"

#: Every error class ``hnf.cli.main`` reports: each in :mod:`hnf.errors`,
#: then OSError and MemoryError.
ERROR_CLASSES = [cls for cls in vars(hnf.errors).values()
                 if isinstance(cls, type) and issubclass(cls, Exception)
                 ] + [OSError, MemoryError]

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome in ("skipped", "failed"):
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        label = {"passed": "PASS", "failed": "FAIL",
                 "skipped": "SKIP"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{name}: {label}")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


def build_chain(input_dim: int, n1: int, depth: int, kind: str = "random",
                seed: int = 0) -> HnfNetwork:
    """Orthonormal expansion chain with the default width rule n = fan-in."""
    layers = []
    m = input_dim
    n = n1
    for l in range(depth):
        if kind == "dct":
            w = make_dct_orthonormal(n, m)
        else:
            w = make_random_orthonormal(n, m, seed + l)
        layers.append(HnfLayer(w))
        m = 2 * n
        n = m
    return HnfNetwork(tuple(layers))


def solve(y: np.ndarray, t: np.ndarray, eps: float = math.inf,
          witness: np.ndarray | None = None) -> OutputMap:
    """:func:`hnf.solvers.least_squares` on the statistics of features
    ``y`` and targets ``t``, as a map carrying its sample cost."""
    with np.errstate(over="ignore", invalid="ignore"):
        g, b = y @ y.T, t @ y.T
    o, diag = least_squares(g, b, t.shape[1], eps, witness)
    return OutputMap(o, float(eps), sample_cost(t, o, y), solver=diag)


def count_walk(monkeypatch) -> list[int]:
    """Patch ``hnf.trainer``'s :func:`hnf.layers.walk` to record, in order,
    the columns of every layer it computes; a baseline yielded as the input
    it was given computes nothing. Returns the list it fills."""
    widths, real = [], hnf.layers.walk

    def counted(net, x, *rest):
        for layer, feats in real(net, x, *rest):
            if feats is not x:
                widths.append(feats.shape[1])
            yield layer, feats

    monkeypatch.setattr("hnf.trainer.walk", counted)
    return widths


def exit_code_rows() -> list[tuple[int, list[str]]]:
    """README's exit-code table: each row's code and the classes it names."""
    table = re.search(r"^\| code \| errors \| meaning \|\n"
                      r"\| --- \| --- \| --- \|\n((?:\|.*\|\n)+)",
                      README.read_text(), re.M)
    assert table, "README has no exit-code table"
    rows = [re.match(r"\| (\d+) \| (.*?) \|", row).groups()
            for row in table.group(1).splitlines()]
    return [(int(code), re.findall(r"`(\w+)`", names)) for code, names in rows]
