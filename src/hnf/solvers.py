"""Optimization routines for the trained output maps.

Everything here minimizes the sample-average squared prediction error
``cost(O) = (1/N) * ||T - O @ Y||_F^2`` over a Q-by-d linear map ``O``:

* :func:`least_squares`: the unconstrained closed form (with optional
  ridge), used for the baseline on raw inputs or on ELM front features;
* :func:`admm_constrained_ls`: the same cost subject to a Frobenius-ball
  constraint ``||O||_F^2 <= eps``, solved by splitting the variable against
  the ball indicator and alternating a ridge solve, a ball projection, and
  a dual update;
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
from scipy.linalg import LinAlgError, cho_factor, cho_solve, pinvh

from .errors import DataError, DimensionError, FormatError, ParameterError
from .layers import json_artifact, pinv_weight
from .matrixgen import WeightMatrix

#: Lower bound applied to computed budgets so the ball never degenerates.
EPSILON_FLOOR = 1e-12


@dataclass(frozen=True)
class OutputMap:
    """A trained linear map with its norm budget and achieved cost.

    ``epsilon`` is ``math.inf`` for unconstrained solves. ``layer_index`` 0
    marks the baseline map applied to raw inputs (or ELM features);
    expanding layers count from 1 (2 when an ELM front occupies slot 1).
    ``solver`` echoes the producing configuration and diagnostics.
    """

    matrix: np.ndarray = field(repr=False)
    epsilon: float
    train_cost: float
    layer_index: int = 0
    solver: dict | None = None

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class AdmmConfig:
    """Solver knobs for the ball-constrained least squares.

    ``penalty`` is the splitting penalty. ``None`` (the default) scales it
    to the data: the mean diagonal of the (2/N)-scaled feature Gram, which
    keeps the ridge step and the projection step balanced regardless of
    feature magnitude. Fixed values suit fixed scalings: 1e-7 for
    raw-Gaussian-scaled features, 1e2 for unit-scaled ones. ``tolerance`` 0
    runs all iterations; a positive value stops early once the primal plus
    dual residual drops below it. ``warm_start`` lets the trainer seed the
    solve with the embedded witness instead of zero.
    """

    iterations: int = 100
    penalty: float | None = None
    tolerance: float = 0.0
    warm_start: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ParameterError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.penalty is not None and not self.penalty > 0:
            raise ParameterError(f"penalty must be > 0, got {self.penalty}")
        if self.tolerance < 0:
            raise ParameterError(
                f"tolerance must be >= 0, got {self.tolerance}"
            )


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


def least_squares(y: np.ndarray, t: np.ndarray, ridge: float = 0.0,
                  layer_index: int = 0) -> OutputMap:
    """Closed-form minimizer of the sample-average squared error.

    Solves the normal equations ``O = T Y^T (Y Y^T + ridge I)^-1``; when
    ridge is 0 and the Gram matrix is singular, falls back to its
    pseudo-inverse (the minimum-norm solution).
    """
    y, t = _as_data_matrices(y, t)
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")
    gram = y @ y.T
    if ridge > 0:
        gram[np.diag_indices_from(gram)] += ridge
    b = t @ y.T
    try:
        o = cho_solve(cho_factor(gram), b.T).T
    except LinAlgError:
        o = b @ pinvh(gram)
    return OutputMap(np.ascontiguousarray(o), math.inf, sample_cost(t, o, y),
                     layer_index, {"method": "least_squares", "ridge": ridge})


def project_frobenius_ball(m: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean projection onto {M : ||M||_F^2 <= eps}."""
    nrm2 = float(np.sum(m * m))
    if nrm2 <= eps:
        return m
    return m * math.sqrt(eps / nrm2)


def admm_constrained_ls(y: np.ndarray, t: np.ndarray, eps: float,
                        cfg: AdmmConfig | None = None,
                        initial: np.ndarray | None = None,
                        layer_index: int = 0) -> OutputMap:
    """Minimize (1/N)||T - O Y||_F^2 subject to ||O||_F^2 <= eps.

    Splits O against a copy Z constrained to the ball and alternates:

    * O-update: ridge solve
      ``O = ((2/N) T Y^T + rho (Z - L)) ((2/N) Y Y^T + rho I)^-1``;
    * Z-update: projection of ``O + L`` onto the ball;
    * dual update ``L += O - Z``.

    The returned map is the Z iterate, which is feasible at every iteration
    count. ``initial`` seeds Z (projected into the ball first).
    """
    y, t = _as_data_matrices(y, t)
    if not (np.isfinite(y).all() and np.isfinite(t).all()):
        raise DataError("non-finite values in data")
    if not eps > 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    cfg = cfg or AdmmConfig()
    d, n = y.shape
    q = t.shape[0]
    scale = 2.0 / n

    m = scale * (y @ y.T)
    if cfg.penalty is None:
        rho = max(float(np.trace(m)) / d, 1e-12)
    else:
        rho = cfg.penalty
    m[np.diag_indices_from(m)] += rho
    factor = cho_factor(m)
    b = scale * (t @ y.T)

    if initial is not None:
        initial = np.asarray(initial, dtype=np.float64)
        if initial.shape != (q, d):
            raise DimensionError(
                f"initial shape {initial.shape} does not match ({q}, {d})"
            )
        z = project_frobenius_ball(initial.copy(), eps)
    else:
        z = np.zeros((q, d))
    lam = np.zeros((q, d))

    iters_run = 0
    primal = dual = math.nan
    for _ in range(cfg.iterations):
        o = cho_solve(factor, (b + rho * (z - lam)).T).T
        z_new = project_frobenius_ball(o + lam, eps)
        primal = float(np.linalg.norm(o - z_new))
        dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        lam += o - z
        iters_run += 1
        if cfg.tolerance > 0 and primal + dual <= cfg.tolerance:
            break

    diag = {
        "method": "admm",
        "iterations": iters_run,
        "penalty": rho,
        "penalty_mode": "auto" if cfg.penalty is None else "explicit",
        "tolerance": cfg.tolerance,
        "primal_residual": primal,
        "dual_residual": dual,
    }
    return OutputMap(np.ascontiguousarray(z), float(eps),
                     sample_cost(t, z, y), layer_index, diag)


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
