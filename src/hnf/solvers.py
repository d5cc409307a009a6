"""The trained output maps: the layer solve, its budget and its witness.

Everything here minimizes the sample-average squared prediction error
``cost(O) = (1/N) * ||T - O @ Y||_F^2`` over a Q-by-d linear map ``O``:

* :func:`least_squares` solves it exactly, optionally subject to a
  Frobenius-ball constraint ``||O||_F^2 <= eps``. It diagonalizes the
  feature Gram once; the minimum-norm unconstrained solution is returned
  when it fits in the ball (always, for the default ``eps=inf`` used by
  the baseline and the ELM front), otherwise the ball multiplier is found
  by Newton's method on the secular equation (a trust-region step, Moré &
  Sorensen 1983);
* the budget (:func:`epsilon_budget`) and the feasible embedding
  (:func:`embed_previous_map`) that together guarantee each layer's
  constrained optimum can match its predecessor's training cost.

The budget for layer l is ``||O_prev @ pinv(W) @ U||_F^2`` where U is the
structural collapse matrix; since ``[M, -M]`` has twice the squared norm of
M this is computed without materializing U, and it collapses to
``2 * ||O_prev||_F^2`` when W is orthonormal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from .errors import DataError, DimensionError, FormatError, ParameterError
from .layers import json_artifact, pinv_weight
from .matrixgen import WeightMatrix

#: Lower bound applied to computed budgets so the ball never degenerates.
EPSILON_FLOOR = 1e-12

#: The multiplier search stops once ||O||_F^2 is within this relative
#: distance of eps, or after NEWTON_MAX_STEPS steps; the ball projection
#: keeps the result feasible either way.
NEWTON_RTOL = 1e-13
NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class OutputMap:
    """A trained linear map with its norm budget and achieved cost.

    ``epsilon`` is ``math.inf`` for unconstrained solves. ``layer_index`` 0
    marks the baseline map applied to raw inputs (or ELM features);
    expanding layers count from 1 (2 when an ELM front occupies slot 1).
    ``solver`` holds the solve's diagnostics: ``method`` ("exact"),
    ``newton_steps`` and the ball ``multiplier`` (0 when the constraint is
    inactive); the trainer adds the certificate's witness figures.
    """

    matrix: np.ndarray = field(repr=False)
    epsilon: float
    train_cost: float
    layer_index: int = 0
    solver: dict | None = None

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


def _as_data_matrices(y: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if y.ndim != 2 or t.ndim != 2:
        raise DimensionError(
            f"expected 2-D feature and target matrices, got {y.ndim}-D and {t.ndim}-D"
        )
    if y.size == 0 or t.size == 0:
        raise DataError("empty data")
    if y.shape[1] != t.shape[1]:
        raise DimensionError(
            f"feature and target sample counts differ: {y.shape[1]} vs {t.shape[1]}"
        )
    return y, t


def sample_cost(t: np.ndarray, o: np.ndarray, y: np.ndarray) -> float:
    """Sample-average squared error (1/N) * ||T - O @ Y||_F^2."""
    r = t - o @ y
    return float(np.sum(r * r) / t.shape[1])


def project_frobenius_ball(m: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean projection onto {M : ||M||_F^2 <= eps}."""
    nrm2 = float(np.sum(m * m))
    if nrm2 <= eps:
        return m
    return m * math.sqrt(eps / nrm2)


def least_squares(y: np.ndarray, t: np.ndarray,
                  eps: float = math.inf) -> OutputMap:
    """Minimize (1/N)||T - O Y||_F^2 subject to ||O||_F^2 <= eps, exactly.

    With ``G = Y Y^T = V diag(lam) V^T`` and ``C = T Y^T V``, the
    minimizers are ``O(mu) = C diag(1 / (lam + mu)) V^T`` with squared norm
    ``s(mu) = sum_j ||C[:, j]||^2 / (lam_j + mu)^2``. Eigenvalues at or below
    ``(d + N) * machine-eps * lam_max`` are dropped, so ``O(0)`` is the
    minimum-norm (pseudo-inverse) solution; it is returned when
    ``s(0) <= eps``. Otherwise Newton's method on
    ``1/sqrt(s(mu)) - 1/sqrt(eps)``, which is concave and increasing,
    climbs from ``mu = 0`` to the root without overshooting.
    """
    y, t = _as_data_matrices(y, t)
    if not (np.isfinite(y).all() and np.isfinite(t).all()):
        raise DataError("non-finite values in data")
    if not eps > 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    lam, v = eigh(y @ y.T, overwrite_a=True, check_finite=False)
    c = (t @ y.T) @ v
    # forming G sums N products per entry and eigh adds d more roundings, so
    # eigenvalues below (d + N) * eps * lam_max are rounding noise
    keep = lam > sum(y.shape) * np.finfo(np.float64).eps * lam[-1]
    lam, c, v = lam[keep], c[:, keep], v[:, keep]
    w = np.sum(c * c, axis=0)

    mu, steps = 0.0, 0
    s = float(np.sum(w / lam ** 2))
    while s - eps > NEWTON_RTOL * eps and steps < NEWTON_MAX_STEPS:
        # phi = s^-1/2 - eps^-1/2 and phi' = s^-3/2 * sum(w / (lam + mu)^3)
        r = float(np.sum(w / (lam + mu) ** 3))
        mu += s * (math.sqrt(s / eps) - 1.0) / r
        s = float(np.sum(w / (lam + mu) ** 2))
        steps += 1

    o = project_frobenius_ball((c / (lam + mu)) @ v.T, eps)
    diag = {"method": "exact", "newton_steps": steps, "multiplier": mu}
    return OutputMap(np.ascontiguousarray(o), float(eps),
                     sample_cost(t, o, y), solver=diag)


def _pull_back(o_prev: OutputMap, w: WeightMatrix) -> np.ndarray:
    """``M = O_prev @ pinv(W)``, the previous map seen through weight W."""
    o = o_prev.matrix
    if w.cols != o.shape[1]:
        raise DimensionError(
            f"previous map has {o.shape[1]} columns but weight expects "
            f"{w.cols}"
        )
    return o @ pinv_weight(w)


def epsilon_budget(o_prev: OutputMap, w: WeightMatrix) -> float:
    """Ball radius for a layer with weight W over the previous map.

    ``2 * ||O_prev @ pinv(W)||_F^2``, which is ``2 * ||O_prev||_F^2`` when W
    is orthonormal; the same formula holds for the first expanding layer
    (over the baseline) and every later one. Floored at
    :data:`EPSILON_FLOOR` so an all-zero previous map still yields a
    solvable ball.
    """
    m = _pull_back(o_prev, w)
    return max(2.0 * float(np.sum(m * m)), EPSILON_FLOOR)


def embed_previous_map(o_prev: OutputMap, w_l: WeightMatrix) -> np.ndarray:
    """The feasible witness ``[M, -M]`` with ``M = O_prev @ pinv(W_l)``.

    Applied to this layer's expanded features it reproduces the previous
    layer's predictions exactly, certifying that the previous training cost
    stays attainable under the new budget.
    """
    m = _pull_back(o_prev, w_l)
    return np.hstack([m, -m])


def save_output_map(om: OutputMap, path_prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.bin`` (row-major float64) and ``<prefix>.json``."""
    path_prefix = Path(path_prefix)
    bin_path = path_prefix.with_suffix(".bin")
    json_path = path_prefix.with_suffix(".json")
    bin_path.parent.mkdir(parents=True, exist_ok=True)
    bin_path.write_bytes(np.ascontiguousarray(om.matrix, dtype="<f8").tobytes())
    meta = {
        "rows": int(om.matrix.shape[0]),
        "cols": int(om.matrix.shape[1]),
        "epsilon": None if math.isinf(om.epsilon) else om.epsilon,
        "train_cost": om.train_cost,
        "layer_index": om.layer_index,
        "solver": om.solver,
        "matrix_file": bin_path.name,
    }
    json_path.write_text(json.dumps(meta, indent=2))
    return bin_path, json_path


def load_output_map(json_path) -> OutputMap:
    """Read a map written by :func:`save_output_map`."""
    json_path = Path(json_path)
    with json_artifact(json_path) as meta:
        rows, cols = int(meta["rows"]), int(meta["cols"])
        bin_path = json_path.parent / meta["matrix_file"]
        eps = math.inf if meta["epsilon"] is None else float(meta["epsilon"])
        fitted = (float(meta["train_cost"]), int(meta["layer_index"]),
                  meta["solver"])
        raw = bin_path.read_bytes()
    if min(rows, cols) < 0 or len(raw) != rows * cols * 8:
        raise FormatError(
            f"{bin_path}: {len(raw)} bytes, but {json_path.name} declares a "
            f"{rows}x{cols} float64 map"
        )
    matrix = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
    return OutputMap(matrix, eps, *fitted)
