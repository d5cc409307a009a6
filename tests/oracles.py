"""Independent oracles the tests check the library against.

Nothing here imports from hnf's solver internals: the normal-equations
oracle inverts the Gram matrix by Gauss-Jordan elimination in extended
precision, the constrained solver is reproduced by bisecting the
Lagrange multiplier, and the budget formula is evaluated with the
collapse matrix explicitly materialized. The invariant-check reference
computes each layer's ``act(W q)`` itself (:func:`layer_output`) on single
columns, one pair at a time, and checks each weight perturbation densely,
as a full matrix. The reference trainer (:func:`reference_train`) chains
these: it materializes every layer's features and solves each layer by
bisection, taking only the designed weights from ``hnf.trainer``.
:func:`traced_peak` measures what a call allocates, and
:func:`reference_load_csv` parses a CSV cell by cell with Python's ``csv``
module and ``float``.
"""

import csv
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.fft
import scipy.linalg

from hnf.errors import NotInvertibleError, ParseError
from hnf.layers import (
    ACTIVATIONS,
    HnfLayer,
    HnfNetwork,
    network_invert,
    vn_expand,
)
from hnf.trainer import build_network


def traced_peak(fn, *args):
    """``fn(*args)``'s result and the peak bytes allocated during the call,
    as :mod:`tracemalloc` counts them; numpy reports its array buffers to
    tracemalloc, so this is the call's peak of array memory."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_load_csv(path, label_column=-1, delimiter: str = ",",
                       has_header: bool = False):
    """``(X, T, label_names)`` of a delimited file, parsed one cell at a time.

    The per-cell reader :func:`hnf.data.load_csv` replaced: ``csv.reader``
    (or ``str.split`` for a whitespace delimiter) splits the rows and
    ``float`` reads each feature. Blank rows are dropped before rows are
    numbered, so its error rows count non-blank rows only.
    """
    path = Path(path)
    if delimiter.isspace():
        rows = [line.split()
                for line in path.read_text(encoding="utf-8").splitlines()]
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    rows = [r for r in rows if r]
    if not rows:
        raise ParseError(f"{path}: no rows")
    header = None
    if has_header:
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")
    width = len(rows[0])
    if width < 2:
        raise ParseError(f"{path}: need at least one feature and a label")
    if isinstance(label_column, str):
        if header is None or label_column not in header:
            raise ParseError(f"{path}: no header column {label_column!r}")
        label_at = header.index(label_column)
    else:
        if not -width <= int(label_column) < width:
            raise ParseError(f"{path}: label column {label_column} out of "
                             f"range for {width} fields")
        label_at = int(label_column) % width

    features = []
    raw_labels = []
    for i, row in enumerate(rows):
        rownum = i + (2 if has_header else 1)
        if len(row) != width:
            raise ParseError(
                f"{path}: row {rownum} has {len(row)} fields, expected {width}"
            )
        feat = []
        for j, cell in enumerate(row):
            if j == label_at:
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {rownum}, column {j + 1}: "
                    f"non-numeric feature {cell!r}"
                ) from None
        features.append(feat)
        raw_labels.append(row[label_at])

    label_names = list(dict.fromkeys(raw_labels))  # first-appearance order
    index_of = {lab: i for i, lab in enumerate(label_names)}
    labels = np.array([index_of[lab] for lab in raw_labels], dtype=np.int64)
    x = np.array(features, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ParseError(f"{path}: non-finite feature")
    return x.T, np.eye(len(label_names))[:, labels], label_names


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse via partial-pivot Gauss-Jordan in longdouble."""
    a = np.array(a, dtype=np.longdouble)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n, dtype=np.longdouble)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[piv, col] == 0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def normal_equations_extended(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """O = T Y^T (Y Y^T)^-1 computed in extended precision."""
    y = np.array(y, dtype=np.longdouble)
    t = np.array(t, dtype=np.longdouble)
    o = t @ y.T @ gauss_jordan_inverse(y @ y.T)
    return o.astype(np.float64)


def sample_cost(t: np.ndarray, o: np.ndarray, y: np.ndarray) -> float:
    r = t - o @ y
    return float(np.sum(r * r) / t.shape[1])


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of columns whose argmax matches the one-hot target; ties
    resolve to the lowest class index."""
    return float(np.mean(
        np.argmax(predictions, axis=0) == np.argmax(targets, axis=0)))


def constrained_ls_oracle(y: np.ndarray, t: np.ndarray, eps: float,
                          bisect_iters: int = 300) -> tuple[np.ndarray, float]:
    """Ball-constrained least squares via bisection on the multiplier.

    Stationarity gives O(lam) = (2/N) T Y^T ((2/N) Y Y^T + lam I)^-1 with
    ||O(lam)||_F^2 strictly decreasing in lam; the optimum is O(0) if
    feasible, else the lam with ||O(lam)||_F^2 = eps.
    """
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    n = y.shape[1]
    scale = 2.0 / n
    g = scale * (y @ y.T)
    b = scale * (t @ y.T)

    def o_of(lam: float) -> np.ndarray:
        m = g.copy()
        m[np.diag_indices_from(m)] += lam
        return np.linalg.solve(m, b.T).T

    o0 = b @ np.linalg.pinv(g, hermitian=True)
    if float(np.sum(o0 * o0)) <= eps:
        return o0, sample_cost(t, o0, y)

    lo, hi = 0.0, 1.0
    while float(np.sum(o_of(hi) ** 2)) > eps:
        hi *= 2.0
        if hi > 1e18:
            raise RuntimeError("bisection bracket failed")
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if float(np.sum(o_of(mid) ** 2)) > eps:
            lo = mid
        else:
            hi = mid
    o = o_of(hi)
    return o, sample_cost(t, o, y)


def epsilon_materialized(o_prev: np.ndarray, w: np.ndarray) -> float:
    """||O_prev pinv(W) U||_F^2 with the collapse matrix U built densely."""
    n = w.shape[0]
    u = np.hstack([np.eye(n), -np.eye(n)])
    m = o_prev @ np.linalg.pinv(w) @ u
    return float(np.sum(m * m))


def reference_train(data, cfg):
    """The run ``hnf.trainer.train(data, cfg)`` makes, done the slow way.

    Its weights come from ``build_network``, which designs them without any
    solve; nothing else here comes from ``hnf.trainer`` or ``hnf.solvers``.
    Every layer's features are materialized on the whole train split
    (:func:`layer_output`), and the targets are the one-hot columns of the
    labels. The baseline is the unconstrained solve. Each expanding layer
    embeds the previous map as the witness ``O_prev pinv(W) U``, written
    out with the collapse ``U = [I, -I]``; its ball radius is
    :func:`epsilon_materialized` of the previous map, or twice the previous
    radius from the second expanding layer on under ``doubling``. The layer
    is solved by :func:`constrained_ls_oracle`, and the witness is kept
    when the solve costs more. Returns the network, one record per map,
    baseline first (``layer``, ``matrix``, ``epsilon``, ``cost``,
    ``fallback``: the witness was kept, ``active``: the unconstrained
    solve lies outside the ball, ``spectrum``: the ascending eigenvalues
    of ``y y^T``) and whether the cost chain is certified by the trainer's
    rule.
    """
    idx = data.train_idx
    net = build_network(data.input_dim, cfg, len(idx))
    x = np.asarray(data.X[:, idx], dtype=np.float64)
    if cfg.standardize:
        sigma = x.std(1, keepdims=True)
        sigma[sigma == 0] = 1.0
        x = (x - x.mean(1, keepdims=True)) / sigma
    t = np.eye(data.n_classes)[:, data.labels[idx]]
    q = layer_output(net.layers[0], x) if net.has_front else x
    o, cost = constrained_ls_oracle(q, t, math.inf)
    maps = [SimpleNamespace(layer=0, matrix=o, epsilon=math.inf, cost=cost,
                            fallback=False, active=False,
                            spectrum=np.linalg.eigvalsh(q @ q.T))]
    certified = True
    for no, layer in enumerate(net.layers, 1):
        if not layer.expand:
            continue
        w, prev = layer.weight.entries, maps[-1]
        y = layer_output(layer, q)
        collapse = np.hstack([np.eye(len(w)), -np.eye(len(w))])
        witness = prev.matrix @ np.linalg.pinv(w) @ collapse
        eps = (2.0 * prev.epsilon
               if cfg.eps_schedule == "doubling" and len(maps) > 1
               else epsilon_materialized(prev.matrix, w))
        o, cost = constrained_ls_oracle(y, t, eps)
        free = constrained_ls_oracle(y, t, math.inf)[0]
        witness_cost = sample_cost(t, witness, y)
        fallback = cost > witness_cost
        if fallback:
            o, cost = witness, witness_cost
        certified = (certified
                     and float(np.sum(witness ** 2)) <= eps * (1.0 + 1e-9)
                     and abs(witness_cost - prev.cost) <= 1e-8
                     and cost <= witness_cost + 1e-8
                     and float(np.sum(o ** 2)) <= eps * (1.0 + 1e-12))
        maps.append(SimpleNamespace(
            layer=no, matrix=o, epsilon=eps, cost=cost, fallback=fallback,
            active=float(np.sum(free ** 2)) > eps,
            spectrum=np.linalg.eigvalsh(y @ y.T)))
        q = y
    return net, maps, certified


def dct_ii_matrix_oracle(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix via scipy.fft (independent construction)."""
    return scipy.fft.dct(np.eye(n), type=2, norm="ortho", axis=0)


def layer_output(layer: HnfLayer, q: np.ndarray,
                 dw: np.ndarray | None = None) -> np.ndarray:
    """``act(W q)`` of one layer, or ``act((W + dW) q)``: its expansion or
    activation on a fresh product, apart from the walk in :mod:`hnf.layers`."""
    w = layer.weight.entries if dw is None else layer.weight.entries + dw
    act = vn_expand if layer.expand else ACTIVATIONS[layer.activation]
    return act(w @ q)


def perturbation_margin(layer: HnfLayer, dw: np.ndarray,
                        q: np.ndarray) -> float:
    """``||dW||_F^2 ||q||^2 (1 + 1e-9) - ||act(W q) - act((W + dW) q)||^2``
    for a dense weight perturbation ``dW``: >= 0 when the layer's
    weight-perturbation bound holds, with the slack hnf's check allows."""
    lhs = float(np.sum((layer_output(layer, q)
                        - layer_output(layer, q, dw)) ** 2))
    return float(np.sum(dw ** 2) * np.sum(q ** 2)) * (1.0 + 1e-9) - lhs


def dense_perturbation(delta: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
    """A weight perturbation ``dW`` with ``dW q = delta`` and
    ``||dW||_F = r`` (up to rounding), given ``||delta|| <= r ||q||``:
    ``delta q^T / ||q||^2`` plus a rank-one part whose rows are orthogonal
    to q, which carries the rest of the norm."""
    qq = float(q @ q)
    dw = np.outer(delta, q / qq) if qq > 0 else np.zeros((len(delta), len(q)))
    rest = r * r - float(np.sum(dw * dw))
    null = scipy.linalg.null_space(q[None, :])
    if rest > 0 and null.size:
        dw[0] += math.sqrt(rest) * null[:, 0]
    return dw


def verify_reference(net: HnfNetwork, x: np.ndarray, trials: int, seed: int,
                     block: int) -> dict[str, tuple[int, float]]:
    """Per-pair reference for ``hnf.trainer.verify_invariants``.

    Draws from the same seeded generator in the same order: per block, the
    pairs' first indices, coins, second indices and noise, then each
    trial's layer and perturbation norm r, then per layer the normals and
    chi-square draws of its trials, in trial order. It pushes each pair
    through the layers with :func:`layer_output` and inverts it with
    :func:`network_invert` one column at a time. Each perturbation becomes
    a dense ``dW`` (:func:`dense_perturbation`) for
    :func:`perturbation_margin`. Returns, per check, the violation count,
    the worst margin (nan when nothing was checked or any margin was nan)
    and the number of trials checked.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = list(net.layers)
    if not layers[0].expand:
        x = layer_output(layers[0], x)
        layers = layers[1:]
    sub = HnfNetwork(tuple(layers))
    orthonormal = all(layer.weight.orthonormal for layer in layers)
    slack = 1e-9
    names = ("distance_sandwich_lower", "distance_sandwich_upper",
             "norm_preservation", "inversion_round_trip",
             "weight_perturbation_bound")
    viol = dict.fromkeys(names, 0)
    worst = dict.fromkeys(names, math.inf)
    checked = dict.fromkeys(names, 0)

    def note(name, margin, bad):
        worst[name] = float(np.minimum(worst[name], margin))
        viol[name] += bool(bad)

    n = x.shape[1]
    for start in range(0, trials, block):
        count = min(block, trials - start)
        i1 = rng.integers(n, size=count)
        heads = rng.random(count) < 0.5
        i2 = rng.integers(n, size=count)
        noise = rng.standard_normal((count, x.shape[0]))
        feats = []
        for t in range(count):
            x1 = x[:, i1[t]]
            if heads[t]:
                x2 = x[:, i2[t]]
            else:
                x2 = x1 + noise[t] * (0.1 * (np.linalg.norm(x1) + 1.0))
            f1, f2 = [x1], [x2]
            for layer in layers:
                f1.append(layer_output(layer, f1[-1]))
                f2.append(layer_output(layer, f2[-1]))
            feats.append(f1)
            d2 = float(np.sum((x1 - x2) ** 2))
            if orthonormal and d2 > 0:
                checked["distance_sandwich_lower"] += 1
                checked["distance_sandwich_upper"] += 1
                for l in range(1, len(f1)):
                    dl2 = float(np.sum((f1[l] - f2[l]) ** 2))
                    low = (dl2 - d2 / 2 ** l) / d2
                    up = (d2 - dl2) / d2
                    note("distance_sandwich_lower", low, not low >= -slack)
                    note("distance_sandwich_upper", up, not up >= -slack)
            nrm_in = float(np.sum(x1 ** 2))
            if orthonormal and nrm_in > 0:
                checked["norm_preservation"] += 1
                rel = abs(float(np.sum(f1[-1] ** 2)) - nrm_in) / nrm_in
                note("norm_preservation", slack - rel, not rel <= slack)
            checked["inversion_round_trip"] += 1
            try:
                x_rec = network_invert(sub, f1[-1])
            except NotInvertibleError:
                viol["inversion_round_trip"] += 1
            else:
                denom = float(np.linalg.norm(x1)) or 1.0
                rel = float(np.linalg.norm(x_rec - x1)) / denom
                note("inversion_round_trip", 1e-6 - rel, not rel <= 1e-6)
        li = rng.integers(len(layers), size=count)
        r = rng.uniform(1e-6, 1.0, size=count)
        draws = {}
        for l, layer in enumerate(layers):
            rows, cols = layer.weight.entries.shape
            k = int(np.count_nonzero(li == l))
            xi = rng.standard_normal((rows, k)).T
            c = 2.0 * rng.standard_gamma(rows * (cols - 1) / 2, size=k)
            draws[l] = iter(zip(xi, c))
        for t, f1 in enumerate(feats):
            xi, c = next(draws[li[t]])
            q = f1[li[t]]
            delta = r[t] * np.linalg.norm(q) * xi / math.sqrt(xi @ xi + c)
            margin = perturbation_margin(
                layers[li[t]], dense_perturbation(delta, q, r[t]), q)
            note("weight_perturbation_bound", margin, not margin >= 0)
            checked["weight_perturbation_bound"] += 1
    return {name: (viol[name], math.nan if math.isinf(worst[name])
                   else worst[name], checked[name]) for name in names}
