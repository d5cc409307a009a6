"""Layer-wise training loop with a certified non-increasing training cost.

The trainer never learns a weight matrix: :func:`build_network` designs the
whole fixed network from the input dimension and the config before any
solve. Each step then expands the training features through the next
layer, derives the new map's norm budget from the previous map, and solves
the ball-constrained least squares. The budget is chosen so the previous
map can be embedded verbatim into the new layer (the witness), which makes
the cost guarantee constructive: the solver result is kept only if it
beats the witness, otherwise the witness itself becomes the layer's map.
Either way the per-layer training cost cannot increase.

Test metrics are recorded per layer for reporting but never influence the
budgets or stopping: there is no cross-validation anywhere.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import Dataset
from .errors import (
    ConfigError,
    HnfError,
    NotInvertibleError,
    NumericalError,
    ParameterError,
    ResourceError,
    SolverError,
    StateError,
)
from .layers import (
    ACTIVATIONS,
    DEFAULT_MEMORY_BUDGET,
    HnfLayer,
    HnfNetwork,
    iter_layer_features,
    layer_forward,
    network_forward,
    network_invert,
    weight_perturbation_check,
)
from .matrixgen import (
    make_dct_orthonormal,
    make_random_orthonormal,
    make_raw_gaussian,
)
from .solvers import (
    OutputMap,
    embed_previous_map,
    epsilon_budget,
    least_squares,
    sample_cost,
)

WEIGHT_KINDS = ("random", "dct")
EPS_SCHEDULES = ("exact", "doubling")

#: Slack for the non-increasing cost assertion.
MONOTONE_SLACK = 1e-8

#: Trials verify_invariants runs together as matrix columns; keeps its
#: memory at O(VERIFY_BLOCK x total feature width) for any trial count.
VERIFY_BLOCK = 256


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on.

    ``n1`` is the first layer's pre-expansion width (the ELM width when
    ``elm_front``); ``depth`` counts layers including the ELM front.
    Every map is an exact least-squares solve, so no solver setting
    appears here.
    """

    n1: int
    depth: int
    weight_kind: str = "random"
    seed: int = 0
    elm_front: bool = False
    elm_activation: str = "relu"
    eps_schedule: str = "exact"
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.n1 < 1:
            raise ConfigError(f"n1 must be >= 1, got {self.n1}")
        if self.weight_kind not in WEIGHT_KINDS:
            raise ConfigError(
                f"weight_kind must be one of {WEIGHT_KINDS}, "
                f"got {self.weight_kind!r}"
            )
        if self.eps_schedule not in EPS_SCHEDULES:
            raise ConfigError(
                f"eps_schedule must be one of {EPS_SCHEDULES}, "
                f"got {self.eps_schedule!r}"
            )
        if self.elm_activation not in ACTIVATIONS:
            raise ConfigError(
                f"elm_activation must be one of {sorted(ACTIVATIONS)}, "
                f"got {self.elm_activation!r}"
            )
        if self.memory_budget < 1:
            raise ConfigError("memory_budget must be positive")
        if self.elm_front and self.depth < 2:
            raise ConfigError("an ELM front needs depth >= 2 to add a layer")

    def echo(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LayerRecord:
    """One report row: the baseline or one expanding layer."""

    layer: int
    nodes_cumulative: int
    epsilon: float
    train_cost: float
    train_acc: float
    test_acc: float
    newton_steps: int
    wall_ms: int

    def as_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(self.epsilon):
            d["epsilon"] = None
        if math.isnan(self.test_acc):
            d["test_acc"] = None
        return d


_CSV_FIELDS = tuple(f.name for f in fields(LayerRecord))


@dataclass(frozen=True)
class TrainReport:
    """Baseline plus per-layer records and the certification flag."""

    baseline: LayerRecord
    per_layer: list[LayerRecord]
    monotonicity_certified: bool
    meta: dict = field(default_factory=dict)

    def rows(self) -> list[LayerRecord]:
        return [self.baseline, *self.per_layer]

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.rows():
                fh.write(json.dumps(rec.as_dict()) + "\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(_CSV_FIELDS) + "\n")
            for rec in self.rows():
                d = rec.as_dict()
                fh.write(",".join(
                    "" if d[k] is None else repr(d[k]) if isinstance(d[k], float)
                    else str(d[k]) for k in _CSV_FIELDS) + "\n")


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of columns whose argmax matches the one-hot target; ties
    resolve to the lowest class index."""
    if predictions.shape[1] == 0:
        return math.nan
    return float(np.mean(
        np.argmax(predictions, axis=0) == np.argmax(targets, axis=0)
    ))


def _check_budget(layer: int, dim: int, n_cols: int, budget: int) -> None:
    need = dim * n_cols * 8
    if need > budget:
        raise ResourceError(
            f"layer {layer}: feature matrix needs {need} bytes "
            f"({dim} x {n_cols} float64), over the {budget}-byte budget"
        )


def build_network(input_dim: int, cfg: TrainConfig,
                  n_cols: int = 0) -> HnfNetwork:
    """The fixed network a run with ``cfg`` trains on ``input_dim`` inputs.

    Every weight is designed, never learned, so this is the one place that
    creates them. With an ELM front, layer 1 is a raw-Gaussian activation
    layer of width n1 (seed + 1). The first expanding layer has width n1
    and fan-in P (n1 behind the front); every later layer's width equals
    its fan-in, twice the previous width. Expanding layer l is random
    orthonormal with seed + l, or DCT, built only after its features on
    ``n_cols`` columns pass the ``cfg.memory_budget`` check.
    """
    layers: list[HnfLayer] = []
    if cfg.elm_front:
        front = make_raw_gaussian(cfg.n1, input_dim, cfg.seed + 1)
        layers.append(HnfLayer(front, expand=False,
                               activation=cfg.elm_activation))
        fan_in = cfg.n1
    elif cfg.n1 < input_dim:
        raise ConfigError(
            f"orthonormal first layer needs n1 >= input dim, "
            f"got n1={cfg.n1} < P={input_dim}"
        )
    else:
        fan_in = input_dim
    width = cfg.n1
    for layer_no in range(len(layers) + 1, cfg.depth + 1):
        _check_budget(layer_no, 2 * width, n_cols, cfg.memory_budget)
        if cfg.weight_kind == "dct":
            w = make_dct_orthonormal(width, fan_in)
        else:
            w = make_random_orthonormal(width, fan_in, cfg.seed + layer_no)
        layers.append(HnfLayer(w))
        fan_in = width = 2 * width
    return HnfNetwork(tuple(layers))


def _standardize_params(x_train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = x_train.mean(axis=1, keepdims=True)
    sigma = x_train.std(axis=1, keepdims=True)
    sigma[sigma == 0] = 1.0
    return mu, sigma


def apply_standardize(x: np.ndarray, mu, sigma) -> np.ndarray:
    return (x - np.asarray(mu)) / np.asarray(sigma)


def train(data: Dataset, cfg: TrainConfig) -> tuple[HnfNetwork, list[OutputMap], TrainReport]:
    """Run the full layer-wise pipeline on the dataset's train split.

    Returns the fixed network, the per-layer maps (baseline first), and the
    report. ``report.monotonicity_certified`` is True iff every layer's
    witness was feasible and reproduced the previous layer's cost, and
    every returned map is feasible with cost at most the witness's.
    """
    if data.meta["N_train"] < 1:
        raise ConfigError("dataset has an empty train split")
    t0 = time.perf_counter()
    net = build_network(data.input_dim, cfg, data.n_samples)
    first = int(net.has_front)

    cur_tr, t_tr = data.X_train, data.T_train
    cur_te, t_te = data.X_test, data.T_test
    std_params = None
    if cfg.standardize:
        mu, sigma = _standardize_params(cur_tr)
        cur_tr = apply_standardize(cur_tr, mu, sigma)
        cur_te = apply_standardize(cur_te, mu, sigma)
        std_params = {"mu": mu.ravel().tolist(), "sigma": sigma.ravel().tolist()}

    if net.has_front:
        cur_tr = layer_forward(net.layers[0], cur_tr)
        cur_te = layer_forward(net.layers[0], cur_te)
    baseline_nodes = cfg.n1 if net.has_front else 0
    baseline = least_squares(cur_tr, t_tr, layer_index=0)
    baseline_rec = LayerRecord(
        layer=0,
        nodes_cumulative=baseline_nodes,
        epsilon=math.inf,
        train_cost=baseline.train_cost,
        train_acc=accuracy(baseline.matrix @ cur_tr, t_tr),
        test_acc=accuracy(baseline.matrix @ cur_te, t_te),
        newton_steps=0,
        wall_ms=int((time.perf_counter() - t0) * 1000),
    )

    maps: list[OutputMap] = [baseline]
    records: list[LayerRecord] = []
    certified = True
    nodes = baseline_nodes

    for layer_no, layer in enumerate(net.layers[first:], first + 1):
        t0 = time.perf_counter()
        w = layer.weight
        if cfg.eps_schedule == "doubling" and records:
            eps = 2.0 * records[-1].epsilon
        else:
            eps = epsilon_budget(maps[-1], w)

        witness = embed_previous_map(maps[-1], w)
        witness_norm2 = float(np.sum(witness * witness))
        witness_feasible = witness_norm2 <= eps * (1.0 + 1e-9)

        cur_tr = layer_forward(layer, cur_tr)
        cur_te = layer_forward(layer, cur_te)
        witness_cost = sample_cost(t_tr, witness, cur_tr)

        try:
            solved = least_squares(cur_tr, t_tr, eps, layer_index=layer_no)
        except HnfError:
            raise
        except Exception as exc:
            raise SolverError(f"layer {layer_no}: solver failed: {exc}") from exc
        diag = dict(solved.solver)
        diag["witness_cost"] = witness_cost
        diag["witness_drift"] = witness_cost - maps[-1].train_cost
        if solved.train_cost > witness_cost:
            diag["fallback"] = "witness"
            diag["solve_cost"] = solved.train_cost
            solved = OutputMap(witness, eps, witness_cost, layer_no, diag)
        else:
            solved = OutputMap(solved.matrix, solved.epsilon,
                               solved.train_cost, layer_no, diag)

        final_norm2 = float(np.sum(solved.matrix * solved.matrix))
        certified = certified and witness_feasible
        certified = certified and abs(diag["witness_drift"]) <= MONOTONE_SLACK
        certified = certified and solved.train_cost <= witness_cost + MONOTONE_SLACK
        certified = certified and final_norm2 <= eps * (1.0 + 1e-6)

        nodes += layer.out_dim
        maps.append(solved)
        records.append(LayerRecord(
            layer=layer_no,
            nodes_cumulative=nodes,
            epsilon=eps,
            train_cost=solved.train_cost,
            train_acc=accuracy(solved.matrix @ cur_tr, t_tr),
            test_acc=accuracy(solved.matrix @ cur_te, t_te),
            newton_steps=diag["newton_steps"],
            wall_ms=int((time.perf_counter() - t0) * 1000),
        ))

    meta = {
        "dataset": dict(data.meta),
        "config": cfg.echo(),
        "standardize_params": std_params,
    }
    report = TrainReport(baseline_rec, records, certified, meta)
    return net, maps, report


@dataclass(frozen=True)
class Evaluation:
    cost: float
    accuracy: float


def evaluate(net: HnfNetwork, maps: list[OutputMap], data: Dataset,
             layer: int, split: str = "test",
             transform: tuple | None = None) -> Evaluation:
    """Cost and accuracy of the map at ``layer`` on the chosen split.

    ``layer`` 0 is the baseline (raw inputs, or the ELM features when the
    network has a front layer). ``transform`` is the (mu, sigma) pair used
    at training time, if standardization was on.
    """
    by_index = {m.layer_index: m for m in maps if m.layer_index <= net.depth}
    if layer not in by_index:
        raise StateError(
            f"no map for layer {layer}; available: {sorted(by_index)}"
        )
    if split == "train":
        x, t = data.X_train, data.T_train
    elif split == "test":
        x, t = data.X_test, data.T_test
    else:
        raise ParameterError(f"split must be 'train' or 'test', got {split!r}")
    if x.shape[1] == 0:
        return Evaluation(math.nan, math.nan)
    if transform is not None:
        x = apply_standardize(x, *transform)

    k = layer if layer > 0 else int(net.has_front)
    feats = x if k == 0 else next(
        itertools.islice(iter_layer_features(net, x), k - 1, None))
    om = by_index[layer]
    return Evaluation(sample_cost(t, om.matrix, feats),
                      accuracy(om.matrix @ feats, t))


@dataclass(frozen=True)
class CheckResult:
    name: str
    count: int
    violations: int
    worst_margin: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class InvariantReport:
    trials: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


#: The checks verify_invariants reports, in report order.
CHECK_NAMES = ("distance_sandwich_lower", "distance_sandwich_upper",
               "norm_preservation", "inversion_round_trip",
               "weight_perturbation_bound")


def verify_invariants(net: HnfNetwork, data: Dataset, trials: int,
                      seed: int = 0) -> InvariantReport:
    """Empirically drive the network's structural guarantees on real inputs.

    Checks, over ``trials`` sampled input pairs and perturbations:

    * the per-layer distance sandwich (squared feature distance between
      half-to-the-l and one times the squared input distance);
    * squared-norm preservation through the full chain;
    * inversion round trip within 1e-6 relative error;
    * the weight-perturbation bound.

    Trials run in blocks of :data:`VERIFY_BLOCK` matrix columns: each block
    draws its input pairs, runs one forward pass per side and one inversion,
    then draws one weight perturbation per trial. Failures are reported,
    never raised; an inversion error counts every trial of its block as a
    violation. When the network has a non-expanding front layer, checks run
    on the expanding subchain behind it.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = np.random.Generator(np.random.PCG64(seed))

    if net.has_front:
        sub = HnfNetwork(net.layers[1:])
        base = layer_forward(net.layers[0], data.X)
        front_note = "checks run behind the non-expanding front layer"
    else:
        sub = net
        base = data.X
        front_note = ""
    n = base.shape[1]
    orthonormal = all(l.weight.orthonormal for l in sub.layers)
    invertible = True

    slack = 1e-9
    viol = dict.fromkeys(CHECK_NAMES, 0)
    worst = dict.fromkeys(CHECK_NAMES, math.inf)

    def record(name: str, margins: np.ndarray, floor: float = 0.0) -> None:
        # not-greater-or-equal also counts NaN margins as violations
        if margins.size:
            worst[name] = min(worst[name], float(np.min(margins)))
        viol[name] += int(np.count_nonzero(~(margins >= floor)))

    for start in range(0, trials, VERIFY_BLOCK):
        count = min(VERIFY_BLOCK, trials - start)
        # pairs fill rows, so each trial's column is contiguous once transposed
        x1 = np.empty((count, base.shape[0]))
        x2 = np.empty_like(x1)
        for t in range(count):
            x1[t] = base[:, int(rng.integers(n))]
            if rng.random() < 0.5:
                x2[t] = base[:, int(rng.integers(n))]
            else:
                x2[t] = x1[t] + rng.standard_normal(x1.shape[1]) * (
                    0.1 * (np.linalg.norm(x1[t]) + 1.0))
        x1, x2 = x1.T, x2.T
        f1 = [x1, *network_forward(sub, x1)]
        f2 = [x2, *network_forward(sub, x2)]

        if orthonormal:
            d2 = np.sum((x1 - x2) ** 2, axis=0)
            pos = d2 > 0
            for l in range(1, len(f1)):
                dl2 = np.sum((f1[l] - f2[l]) ** 2, axis=0)[pos]
                low = (dl2 - d2[pos] / 2 ** l) / d2[pos]
                up = (d2[pos] - dl2) / d2[pos]
                record("distance_sandwich_lower", low, -slack)
                record("distance_sandwich_upper", up, -slack)
            nrm_in = np.sum(x1 ** 2, axis=0)
            nz = nrm_in > 0
            rel = np.abs(np.sum(f1[-1] ** 2, axis=0)[nz] - nrm_in[nz]) / nrm_in[nz]
            record("norm_preservation", slack - rel)

        try:
            x_rec = network_invert(sub, f1[-1])
        except (NotInvertibleError, NumericalError):
            invertible = False
            viol["inversion_round_trip"] += count
        else:
            denom = np.linalg.norm(x1, axis=0)
            denom[denom == 0] = 1.0
            rel = np.linalg.norm(x_rec - x1, axis=0) / denom
            record("inversion_round_trip", 1e-6 - rel)

        margins = np.empty(count)
        for t in range(count):
            li = int(rng.integers(len(sub.layers)))
            hl = sub.layers[li]
            dw = rng.standard_normal(hl.weight.entries.shape)
            dw *= rng.uniform(1e-6, 1.0) / max(np.linalg.norm(dw), 1e-30)
            chk = weight_perturbation_check(hl, dw, f1[li][:, t])
            margins[t] = chk.rhs * (1.0 + 1e-9) - chk.lhs
        record("weight_perturbation_bound", margins)

    notes = dict.fromkeys(CHECK_NAMES, front_note)
    if not orthonormal:
        notes.update(dict.fromkeys(CHECK_NAMES[:3],
                                   "skipped: non-orthonormal weights"))
    if not invertible:
        notes["inversion_round_trip"] = "network is not invertible"
    checks = [
        CheckResult(name, trials, viol[name],
                    math.nan if math.isinf(worst[name]) else worst[name],
                    notes[name])
        for name in CHECK_NAMES
    ]
    return InvariantReport(trials, checks)
