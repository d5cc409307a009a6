"""Layer-wise training loop with a certified non-increasing training cost.

The trainer never learns a weight matrix: :func:`build_network` designs the
whole fixed network from the input dimension and the config before any
solve. The baseline map reads the inputs, or the ELM front's features; each
later map reads an expanding layer's output, and the previous map pulled
back through the new weight once gives both the new map's norm budget and
the witness: the previous map embedded verbatim into the new layer. The
witness also starts the solve: its ball multiplier is where Newton's method
begins. That makes the cost guarantee constructive: the solver result is
kept only if it beats the witness, otherwise the witness itself becomes the
layer's map. Either way the per-layer training cost cannot increase.

The train walk (:func:`_fit`) makes one pass per layer. It holds each
expanding layer's pre-activations ``z = W q`` on every train column, in one
buffer of the widest weight's rows: half the width of ``y = [relu(z);
relu(-z)]``. As ``u = R y = [z; |z|] / sqrt(2)`` is an orthonormal rotation,
each Gram is built in the ``u`` basis: :func:`_carry` writes its ``z z^T``
and ``T z^T`` blocks from the previous layer's statistics through the
weight. A layer's pass expands each :data:`SCORE_BLOCK`-column block once
(``HnfLayer.features``) in its block buffer, scores the solved map, rotated
back to ``y``, and the witness there, then applies the next weight
(``WeightMatrix.apply``) into the block's next ``z``, whose ``|z|`` terms it
adds to the next Gram (:func:`_add_abs_block`) while it is hot: ``z |z|^T``
and ``|z| |z|^T`` as float32 products of z scaled by a power of two, twice
as fast. The certificate reads no G, only costs scored on float64 features,
and a map scoring worse than its witness falls back to it. A cost, here
and in :func:`evaluate`, is one ``np.sum`` of the split's per-column errors
(:func:`block_score`) over N. Before each solve and pass, glibc hands back
the heap it kept after frees (:func:`_release_heap`), so the walk's peak is
what it holds. Every product runs in numpy; only the solve calls scipy
(:mod:`hnf.solvers`). All else that applies the network to data runs
through :func:`hnf.layers.walk`, the one forward loop: the ELM front here,
and :func:`evaluate` and :func:`verify_invariants` block by block. The test
split stays out of the loop: :func:`evaluate` scores every map on it once,
after the last layer, for the report only; no cross-validation is done.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
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
    HnfLayer,
    HnfNetwork,
    network_invert,
    un_collapse,
    walk,
)
from .matrixgen import (
    make_dct_orthonormal,
    make_random_orthonormal,
    make_raw_gaussian,
)
from .solvers import OutputMap, embed_previous_map, least_squares, within_ball

WEIGHT_KINDS = ("random", "dct")
EPS_SCHEDULES = ("exact", "doubling")

#: Slack for the non-increasing cost assertion.
MONOTONE_SLACK = 1e-8

#: Default cap on the bytes build_network may commit (4 GiB).
DEFAULT_MEMORY_BUDGET = 4 * 1024 ** 3

#: Trials verify_invariants runs together as matrix columns. A block holds
#: both sides' features of every layer, about 4 x 256 x 8 bytes per unit of
#: the last feature width d; that exceeds the (d/2)^2 x 8 bytes of the last
#: weight by at most 8.4 MB (at d = 2048), so it needs no budget of its own.
VERIFY_BLOCK = 256

#: Columns the train pass takes at a time: it sums the next Gram over
#: them, so this sets the Grams' summation order, and so the maps' bits,
#: and the width of each Gram product. Costs do not depend on it.
SCORE_BLOCK = 2048

#: Columns evaluate (``eval``, train's test split) walks at a time in one
#: reused buffer, trading memory for time: a Shuttle-like ``eval`` took 4%
#: longer at 1024 than at 2048 columns, 10% at 512.
EVAL_BLOCK = 1024


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
        for name, allowed in (("weight_kind", WEIGHT_KINDS),
                              ("eps_schedule", EPS_SCHEDULES),
                              ("elm_activation", sorted(ACTIVATIONS))):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(
                    f"{name} must be one of {allowed}, got {value!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in 0..2**64-1, got {self.seed}")
        if self.memory_budget < 1:
            raise ConfigError("memory_budget must be positive")
        if self.elm_front and self.depth < 2:
            raise ConfigError("an ELM front needs depth >= 2 to add a layer")


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


@dataclass(frozen=True)
class TrainReport:
    """Baseline plus per-layer records, the certification flag and the
    training (mu, sigma) columns the inputs were standardized by, or None."""

    baseline: LayerRecord
    per_layer: list[LayerRecord]
    monotonicity_certified: bool
    transform: tuple | None

    def rows(self) -> list[LayerRecord]:
        return [self.baseline, *self.per_layer]


def block_score(o: np.ndarray, feats: np.ndarray, labels: np.ndarray,
                err: np.ndarray) -> int:
    """Each column's squared error ``||t_j - o @ feats_j||^2`` against its
    one-hot target ``t_j`` (a 1 at class ``labels[j]``) of a map on a
    block, into ``err``, and how many columns' argmax (ties to the lowest
    class) equals ``labels``. Added up class by class, an error's bits do
    not depend on the block's width or the column's place in it."""
    p = np.matmul(o, feats)
    hits = int(np.count_nonzero(np.argmax(p, axis=0) == labels))
    p[labels, np.arange(len(labels))] -= 1.0  # -(t - p), bit for bit
    err[:] = functools.reduce(np.add, np.square(p, out=p))  # row by row
    return hits


def _blocks(n: int, width: int):
    """Column slices of ``width`` columns covering ``n``."""
    return (slice(s, min(n, s + width)) for s in range(0, n, width))


def build_network(input_dim: int, cfg: TrainConfig,
                  n_cols: int) -> HnfNetwork:
    """The fixed network a run with ``cfg`` trains on ``input_dim`` inputs.

    Every weight is designed, never learned, so this is the one place that
    creates them and checks the memory budget. With an ELM front, layer 1
    is a raw-Gaussian activation layer of width n1 (seed + 1). The first
    expanding layer has width n1 and fan-in P (n1 behind the front); every
    later layer's width equals its fan-in, twice the previous width.
    Expanding layer l is random orthonormal with seed + l (each modulo
    2**64), or DCT. Before a layer's weight is built, what the train walk
    holds there must fit ``cfg.memory_budget``: every weight so far (its
    own included), the layer's rows of pre-activations and two error rows
    on ``n_cols`` columns, and the larger of two moments. One is its d x d
    Gram with the carry into it (the previous Gram beside ``W R^T`` and
    their product), which the previous layer's solve follows. The other is
    a pass with its block buffer: the previous layer's pass sums this Gram
    beside a buffer of this layer's rows, and the last layer's own pass
    holds a d-row buffer alone."""
    if not cfg.elm_front and cfg.n1 < input_dim:
        raise ConfigError(
            f"orthonormal first layer needs n1 >= input dim, "
            f"got n1={cfg.n1} < P={input_dim}"
        )
    layers: list[HnfLayer] = []
    weight_bytes, block = 0, min(n_cols, SCORE_BLOCK)
    fan_in, width = input_dim, cfg.n1
    for layer_no in range(1, cfg.depth + 1):
        front = cfg.elm_front and layer_no == 1
        seed = (cfg.seed + layer_no) % 2 ** 64  # seed + 1 for the front
        weight_bytes += width * fan_in * 8
        d = width if front else 2 * width
        carry = 0 if front else (fan_in + 2 * width) * fan_in * 8
        at_carry = carry + d * d * 8
        in_pass = max(0 if front else (d * d + width * block) * 8,
                      d * block * 8 if layer_no == cfg.depth else 0)
        need = weight_bytes + (width + 2) * n_cols * 8 + max(at_carry, in_pass)
        if need > cfg.memory_budget:
            raise ResourceError(
                f"layer {layer_no}: weights up to this layer ({weight_bytes} "
                f"bytes), its {width} x {n_cols} float64 pre-activations, "
                f"2 error vectors and the larger of a pass with its block "
                f"buffer ({in_pass} bytes) and its {d} x {d} Gram with the "
                f"carry into it ({at_carry} bytes) need {need} bytes, over "
                f"the {cfg.memory_budget}-byte budget")
        if front:
            w = make_raw_gaussian(width, fan_in, seed)
        elif cfg.weight_kind == "dct":
            w = make_dct_orthonormal(width, fan_in)
        else:
            w = make_random_orthonormal(width, fan_in, seed)
        layers.append(HnfLayer(w, expand=not front, activation=(
            cfg.elm_activation if front else "relu")))
        fan_in = width = width if front else 2 * width
    return HnfNetwork(tuple(layers))


def map_widths(net: HnfNetwork) -> dict[int, int]:
    """The feature width of each layer :func:`hnf.layers.walk` yields, read
    off the layers without forwarding any data."""
    base = net.layers[0].out_dim if net.has_front else net.layers[0].in_dim
    return {0: base, **{k: l.out_dim for k, l in enumerate(net.layers, 1)
                        if l.expand}}


def train(data: Dataset, cfg: TrainConfig) -> tuple[HnfNetwork, list[OutputMap], TrainReport]:
    """Run the full layer-wise pipeline on the dataset's train split.

    Returns the fixed network, the per-layer maps (baseline first), and the
    report. ``report.monotonicity_certified`` is True iff every layer's
    witness was feasible and reproduced the previous layer's cost, and
    every returned map is feasible with cost at most the witness's. The
    loop is one :func:`_fit` walk of the train split, timing each row from
    the end of the previous one; after the last layer one :func:`evaluate`
    walk of the test split fills every row's ``test_acc``.
    """
    n_train = len(data.train_idx)
    if n_train < 1:
        raise DataError(f"dataset {data.meta.get('source')} has an empty train split")
    clock = time.perf_counter()
    net = build_network(data.input_dim, cfg, n_train)

    maps, rows, certified, transform = _fit(net, data, cfg, clock)
    test = evaluate(net, maps, data, "test", transform)
    rows = [replace(r, test_acc=test[r.layer].accuracy) for r in rows]
    return net, maps, TrainReport(rows[0], rows[1:], certified, transform)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_heap() -> None:
    """Hand the heap that glibc keeps resident after frees back to the
    system, so that freed temporaries do not add to the peak of what
    follows. Changes no value; does nothing without ``malloc_trim``."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _to_y_basis(m: np.ndarray) -> np.ndarray:
    """``m @ R``: a map on ``u = R y = [z; |z|] / sqrt(2)`` as a map on the
    expanded ``y = [relu(z); relu(-z)]``."""
    a, c = np.hsplit(m, 2)
    return np.hstack([a + c, c - a]) * math.sqrt(0.5)


@np.errstate(over="ignore", invalid="ignore")  # the solve reports non-finite
def _carry(w: np.ndarray, g: np.ndarray, b: np.ndarray,
           u_basis: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The next layer's G and B, zero but for ``Z Z^T / 2`` (their u-basis
    value, exactly symmetric, as solves need) and ``T Z^T`` of its
    pre-activations ``Z = W Y``, from this layer's ``G = Y Y^T`` and ``B =
    T Y^T`` (read through ``W R^T`` in the u basis): 2 d^3 flops instead of
    d^2 N; and k, ``2^k > sqrt(max diag Z Z^T / 2)``, by which
    :func:`_add_abs_block` scales z into float32's range."""
    if u_basis:
        w1, w2 = np.hsplit(w, 2)
        w = np.hstack([w1 - w2, w1 + w2]) * math.sqrt(0.5)
    r = len(w)
    g_next, b_next = np.zeros((2 * r, 2 * r)), np.zeros((len(b), 2 * r))
    zz = np.matmul(w @ g, w.T, out=g_next[:r, :r])
    np.matmul(b, w.T, out=b_next[:, :r])
    zz += zz.T  # numpy reads the overlapping zz.T from a copy
    zz *= 0.25  # and halved, as _fit halves G's other blocks
    top = float(np.max(np.diagonal(zz)))  # a NaN or inf top gives k = 0
    return g_next, b_next, math.frexp(math.sqrt(max(top, 0.0)))[1]


@np.errstate(over="ignore", invalid="ignore")  # the solve reports non-finite
def _add_abs_block(zb: np.ndarray, tb: np.ndarray, g: np.ndarray,
                   b: np.ndarray, k: int, buf: np.ndarray) -> None:
    """Add a block's ``|z|`` terms to the u-basis G and B that :func:`_carry`
    began: ``T |z|^T`` from ``|z|`` in ``buf``, then the float32 products of
    ``2^-k z`` and its ``|.|``, side by side in ``buf``, through G's
    lower-left block, which :func:`_fit` unscales and fills by transpose."""
    r, c = zb.shape
    b[:, r:] += tb @ np.abs(zb, out=buf[:r, :c]).T
    z, a = np.hsplit(buf[:r].view(np.float32)[:, :2 * c], 2)
    np.multiply(zb, math.ldexp(1.0, -k), out=z, casting="same_kind")
    np.abs(z, out=a)
    g[:r, r:] += np.matmul(z, a.T, out=g[r:, :r].view(np.float32)[:, :r])
    g[r:, r:] += np.matmul(a, a.T, out=g[r:, :r].view(np.float32)[:, :r])


def _fit(net: HnfNetwork, data: Dataset, cfg: TrainConfig, clock: float
         ) -> tuple[list[OutputMap], list[LayerRecord], bool, tuple | None]:
    """The maps, report rows and certificate of :func:`train` on the train
    split of ``data``, one pass per layer, and the training (mu, sigma) if
    ``cfg.standardize``, finite or a :class:`DataError` before any solve;
    the witness ``[M, -M]`` reads ``[sqrt(2) M, 0]`` in the ``u`` basis.
    Each row, timed from ``clock`` or the row before, covers the next
    layer's ``|z|`` sums. The train split's inputs (standardized in place)
    live only through the baseline; a pass scores each block by its labels,
    forms its one-hot targets only for the next ``T |z|^T`` and holds a
    block buffer of the rows it uses, freed before the next carry and solve."""
    idx = data.train_idx
    n = len(idx)
    held = np.empty((max(l.weight.rows for l in net.layers), n))
    x, transform = data.columns(idx), None
    if cfg.standardize:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mu, sigma = x.mean(1, keepdims=True), x.std(1, keepdims=True)
        bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sigma))) + 1
        if bad.size:
            raise DataError("cannot standardize: the mean or standard deviation"
                            f" of train feature(s) {', '.join(map(str, bad))}"
                            " overflows float64 or is not finite")
        sigma[sigma == 0] = 1.0
        transform = mu, sigma
        x -= mu
        x /= sigma
    q = next(walk(net, x, held))[1]  # x, or the front's in held
    del x
    with np.errstate(over="ignore", invalid="ignore"):  # as _carry does
        g, b = q @ q.T, data.targets(idx) @ q.T
    steps = [(0, None), *((no, l) for no, l in enumerate(net.layers, 1)
                          if l.expand)]
    maps, rows, certified = [], [], True
    nodes = net.layers[0].out_dim if net.has_front else 0
    for (layer_no, layer), (_, nxt) in zip(steps, [*steps[1:], (0, None)]):
        # the solve overwrites G, so the next layer's share is taken first
        carry = None if nxt is None else _carry(
            nxt.weight.entries, g, b, layer is not None)
        eps = math.inf
        witness = m = start = None
        if layer is not None:
            nodes += layer.out_dim
            witness, eps = embed_previous_map(maps[-1], layer.weight)
            if cfg.eps_schedule == "doubling" and len(maps) > 1:
                eps = 2.0 * maps[-1].epsilon
            m = witness[:, :layer.weight.rows]
            q = held[:layer.weight.rows]  # the pass reads this layer's z
            start = np.hstack([math.sqrt(2.0) * m, np.zeros_like(m)])  # on u
        _release_heap()
        try:
            o, diag = least_squares(g, b, n, eps, witness=start)
        except (HnfError, MemoryError):
            raise
        except Exception as exc:
            raise SolverError(f"layer {layer_no}: solver failed: {exc}") from exc
        del g  # overwritten by the solve; the next layer's Gram replaces it

        err, hits = np.zeros((2, n)), [0, 0]  # of the map and the witness
        if layer is not None:
            o = _to_y_basis(o)
        _release_heap()
        height = max(0 if layer is None else layer.out_dim,
                     0 if nxt is None else nxt.weight.rows)
        buf = np.empty((height, min(n, SCORE_BLOCK)))
        for cols in _blocks(n, SCORE_BLOCK):
            labels, zb = data.labels[idx[cols]], q[:, cols]
            if layer is not None:
                hits[1] += block_score(m, zb, labels, err[1, cols])
            feats = zb if layer is None else layer.features(
                zb, buf[:, :len(labels)])
            hits[0] += block_score(o, feats, labels, err[0, cols])
            if nxt is not None:  # feats are spent: buf takes the next |z|
                zb = nxt.weight.apply(feats, held[:nxt.weight.rows, cols])
                _add_abs_block(zb, data.targets(idx[cols]), *carry, buf)
        q = buf = feats = None  # the buffer, and the baseline's inputs
        if nxt is not None:  # close the next layer's G and B
            (g, b, k), r = carry, nxt.weight.rows
            g[:, r:] *= math.ldexp(0.5, 2 * k)  # exact: a power of two
            g[r:, :r] = g[:r, r:].T
            b *= math.sqrt(0.5)
        (cost, acc), (witness_cost, witness_acc) = (
            (float(np.sum(e)) / n, h / n) for e, h in zip(err, hits))
        if layer is not None:
            diag.update(witness_cost=witness_cost,
                        witness_drift=witness_cost - maps[-1].train_cost)
            if cost > witness_cost:
                diag.update(fallback="witness", solve_cost=cost)
                o, cost, acc = witness, witness_cost, witness_acc
            certified = (
                certified
                and float(np.sum(witness * witness)) <= eps * (1.0 + 1e-9)
                and abs(diag["witness_drift"]) <= MONOTONE_SLACK
                and cost <= witness_cost + MONOTONE_SLACK
                and within_ball(o, eps))
        maps.append(OutputMap(o, eps, cost, layer_no, diag))
        now = time.perf_counter()
        rows.append(LayerRecord(layer_no, nodes, eps, cost, acc, math.nan,
                                diag["newton_steps"], int((now - clock) * 1000)))
        clock = now
    return maps, rows, certified, transform


@dataclass(frozen=True)
class Evaluation:
    cost: float
    accuracy: float


def evaluate(net: HnfNetwork, maps: list[OutputMap], data: Dataset,
             split: str = "test",
             transform: tuple | None = None) -> dict[int, Evaluation]:
    """Cost and accuracy of every map on the chosen split, keyed by layer.

    :func:`hnf.layers.walk`, the one forward loop, runs :data:`EVAL_BLOCK`
    columns of the split at a time, in one reused buffer as tall as the
    widest layer it runs, scoring each map on the features it reads and
    stopping at the deepest map. Each map's cost is one sum of its vector
    of per-column squared errors, as in the train pass. Each block's
    inputs are gathered by :meth:`Dataset.columns` and standardized by
    ``transform``, the training (mu, sigma), if it standardized: no copy of
    the split is made. A map naming no map-bearing layer (beyond the depth,
    or layer 1 behind an ELM front) raises :class:`StateError`; data of
    another input width or class count :class:`DimensionError`.
    """
    layers, widths = {m.layer_index for m in maps}, map_widths(net)
    if not layers <= widths.keys():
        raise StateError(f"maps for layers {sorted(layers)}, but the network "
                         f"has maps on layers {sorted(widths)}")
    if data.input_dim != net.layers[0].in_dim:
        raise DimensionError(f"data has {data.input_dim} features, but the "
                             f"network takes {net.layers[0].in_dim}")
    predicted = {len(m.matrix) for m in maps} - {data.n_classes}
    if predicted:
        raise DimensionError(f"data has {data.n_classes} classes, but the "
                             f"maps predict {predicted.pop()}")
    if split not in ("train", "test"):
        raise ParameterError(f"split must be 'train' or 'test', got {split!r}")
    idx = data.train_idx if split == "train" else data.test_idx

    deepest, n = max(layers, default=0), len(idx)
    err, hits = np.empty((len(maps), n)), [0] * len(maps)  # of each map
    # the layers the walk runs: up to the deepest map, or the ELM front
    reached = net.layers[:max(deepest, int(net.has_front))]
    buf = np.empty((max((l.out_dim for l in reached), default=0),
                    min(n, EVAL_BLOCK)))
    for cols in _blocks(n, EVAL_BLOCK):
        xb = data.columns(idx[cols], transform)
        labels = data.labels[idx[cols]]
        for layer, feats in walk(net, xb, buf[:, :xb.shape[1]]):
            for i, m in enumerate(maps):
                if m.layer_index == layer:
                    hits[i] += block_score(m.matrix, feats, labels, err[i, cols])
            if layer == deepest:
                break
    n = n or math.nan
    return {m.layer_index: Evaluation(float(np.sum(e)) / n, h / n)
            for m, e, h in zip(maps, err, hits)}


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
    then draws one weight perturbation per trial, for a random layer, from
    its exact law as seen through ``dW q`` and ``||dW||_F``, and checks
    them all at once on the features the walk holds. Failures are reported,
    never raised; an inversion error counts every trial of its block as a
    violation. When the network has a non-expanding front layer, checks run
    on the expanding subchain behind it. A check's ``count`` is the trials
    it checked: the sandwich leaves out pairs at zero distance, the norm
    check inputs of zero norm, and non-orthonormal weights skip both.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if data.n_samples == 0:
        raise DataError(f"dataset {data.meta.get('source')} has no samples")
    if not np.isfinite(np.einsum("ij,ij->j", data.X, data.X)).all():
        raise DataError(f"dataset {data.meta.get('source')}: an input's "
                        "squared norm overflows float64 or is not finite")
    rng = np.random.Generator(np.random.PCG64(seed))

    sub = HnfNetwork(net.layers[int(net.has_front):])
    front_note = ("checks run behind the non-expanding front layer"
                  if net.has_front else "")
    n, width = data.n_samples, map_widths(net)[0]
    orthonormal = all(l.weight.orthonormal for l in sub.layers)
    invertible = True

    slack = 1e-9
    viol = dict.fromkeys(CHECK_NAMES, 0)
    checked = dict.fromkeys(CHECK_NAMES, 0)
    worst = dict.fromkeys(CHECK_NAMES, math.inf)

    def record(name: str, margins: np.ndarray, floor: float = 0.0) -> None:
        # margins hold one column per trial checked; a NaN margin makes the
        # worst margin NaN and, by not-greater-or-equal, counts as a violation
        worst[name] = float(np.min(margins, initial=worst[name]))
        viol[name] += int(np.count_nonzero(~(margins >= floor)))
        checked[name] += margins.shape[-1]

    for start in range(0, trials, VERIFY_BLOCK):
        count = min(VERIFY_BLOCK, trials - start)
        # trial t pairs input i1[t] with input i2[t] on heads, else with
        # its own noisy copy
        i1 = rng.integers(n, size=count)
        heads = rng.random(count) < 0.5
        i2 = rng.integers(n, size=count)
        noise = rng.standard_normal((count, width)).T
        # the input, or the front's features, then each layer's behind it
        f1 = [f.copy() for _, f in walk(net, data.columns(i1))]
        x1, y2 = f1[0], next(walk(net, data.columns(i2)))[1]
        x2 = np.where(heads, y2, x1 + noise * (
            0.1 * (np.linalg.norm(x1, axis=0) + 1.0)))
        # a sub starting with a non-expanding layer yields no input: keep x2
        f2 = [x2, *(f.copy() for _, f in walk(sub, x2) if f is not x2)]

        if orthonormal:
            d2 = np.sum((x1 - x2) ** 2, axis=0)
            pos = d2 > 0
            dl2 = np.array([np.sum((a - b) ** 2, axis=0)[pos]
                            for a, b in zip(f1[1:], f2[1:])])  # layer x trial
            halving = 2.0 ** np.arange(1, len(f1))[:, None]
            record("distance_sandwich_lower",
                   (dl2 - d2[pos] / halving) / d2[pos], -slack)
            record("distance_sandwich_upper", (d2[pos] - dl2) / d2[pos], -slack)
            nrm_in = np.sum(x1 ** 2, axis=0)
            nz = nrm_in > 0
            rel = np.abs(np.sum(f1[-1] ** 2, axis=0)[nz] - nrm_in[nz]) / nrm_in[nz]
            record("norm_preservation", slack - rel)

        try:
            x_rec = network_invert(sub, f1[-1])
        except (NotInvertibleError, NumericalError):
            invertible = False  # no margin: a NaN, which counts as violated
            record("inversion_round_trip", np.full(count, np.nan))
        else:
            denom = np.linalg.norm(x1, axis=0)
            denom[denom == 0] = 1.0
            rel = np.linalg.norm(x_rec - x1, axis=0) / denom
            record("inversion_round_trip", 1e-6 - rel)

        # dW = r G / ||G||_F with G i.i.d. N(0, 1) is seen only through
        # dW q = r ||q|| xi / sqrt(||xi||^2 + c), xi ~ N(0, I), c ~ chi^2
        # with n (m - 1) degrees of freedom, and ||dW||_F = r
        li = rng.integers(len(sub.layers), size=count)
        r = rng.uniform(1e-6, 1.0, size=count)
        margins = np.empty(count)
        for l, layer in enumerate(sub.layers):
            on = li == l
            q, out, rl = f1[l][:, on], f1[l + 1][:, on], r[on]
            rows, cols = layer.weight.entries.shape
            delta = rng.standard_normal((rows, len(rl)))
            # 2 Gamma(k / 2) is chi^2 with k degrees of freedom, also for k = 0
            c = 2.0 * rng.standard_gamma(rows * (cols - 1) / 2, size=len(rl))
            qq = np.sum(q * q, axis=0)
            delta *= rl * np.sqrt(qq / (np.sum(delta * delta, axis=0) + c))
            # the walk's expanded features hold W q exactly
            z = un_collapse(out) if layer.expand else layer.weight.apply(q)
            out_p = layer.features(z + delta)
            margins[on] = (rl * rl * qq * (1.0 + 1e-9)
                           - np.sum((out - out_p) ** 2, axis=0))
        record("weight_perturbation_bound", margins)

    notes = dict.fromkeys(CHECK_NAMES, front_note)
    if not orthonormal:
        notes.update(dict.fromkeys(CHECK_NAMES[:3],
                                   "skipped: non-orthonormal weights"))
    if not invertible:
        notes["inversion_round_trip"] = "network is not invertible"
    return InvariantReport(trials, [
        CheckResult(name, checked[name], viol[name],
                    math.nan if math.isinf(worst[name]) else worst[name],
                    notes[name])
        for name in CHECK_NAMES])
