"""Independent oracles the tests check the library against.

Nothing here imports from hnf's solver internals: the normal-equations
oracle inverts the Gram matrix by Gauss-Jordan elimination in extended
precision, the constrained solver is reproduced by bisecting the
Lagrange multiplier, and the budget formula is evaluated with the
collapse matrix explicitly materialized. The invariant-check reference
runs single layers and single columns through hnf.layers, one pair at a
time.
"""

import math

import numpy as np
import scipy.fft

from hnf.errors import NotInvertibleError, NumericalError
from hnf.layers import (
    HnfNetwork,
    layer_forward,
    network_invert,
    weight_perturbation_check,
)


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


def dct_ii_matrix_oracle(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix via scipy.fft (independent construction)."""
    return scipy.fft.dct(np.eye(n), type=2, norm="ortho", axis=0)


def verify_reference(net: HnfNetwork, x: np.ndarray, trials: int, seed: int,
                     block: int) -> dict[str, tuple[int, float]]:
    """Per-pair reference for ``hnf.trainer.verify_invariants``.

    Draws from the same seeded generator in the same order (a block's pairs
    first, then one weight perturbation per trial of the block) but pushes
    each pair through the layers with :func:`layer_forward` and inverts it
    with :func:`network_invert` one column at a time. Returns, per check,
    the violation count and the worst margin (nan when nothing was checked
    or any margin was nan).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = list(net.layers)
    if not layers[0].expand:
        x = layer_forward(layers[0], x)
        layers = layers[1:]
    sub = HnfNetwork(tuple(layers))
    orthonormal = all(layer.weight.orthonormal for layer in layers)
    slack = 1e-9
    names = ("distance_sandwich_lower", "distance_sandwich_upper",
             "norm_preservation", "inversion_round_trip",
             "weight_perturbation_bound")
    viol = dict.fromkeys(names, 0)
    worst = dict.fromkeys(names, math.inf)

    def note(name, margin, bad):
        worst[name] = float(np.minimum(worst[name], margin))
        viol[name] += bool(bad)

    n = x.shape[1]
    for start in range(0, trials, block):
        feats = []
        for _ in range(min(block, trials - start)):
            x1 = x[:, int(rng.integers(n))]
            if rng.random() < 0.5:
                x2 = x[:, int(rng.integers(n))]
            else:
                x2 = x1 + rng.standard_normal(x1.shape) * (
                    0.1 * (np.linalg.norm(x1) + 1.0))
            f1, f2 = [x1], [x2]
            for layer in layers:
                f1.append(layer_forward(layer, f1[-1]))
                f2.append(layer_forward(layer, f2[-1]))
            feats.append(f1)
            d2 = float(np.sum((x1 - x2) ** 2))
            if orthonormal and d2 > 0:
                for l in range(1, len(f1)):
                    dl2 = float(np.sum((f1[l] - f2[l]) ** 2))
                    low = (dl2 - d2 / 2 ** l) / d2
                    up = (d2 - dl2) / d2
                    note("distance_sandwich_lower", low, not low >= -slack)
                    note("distance_sandwich_upper", up, not up >= -slack)
            nrm_in = float(np.sum(x1 ** 2))
            if orthonormal and nrm_in > 0:
                rel = abs(float(np.sum(f1[-1] ** 2)) - nrm_in) / nrm_in
                note("norm_preservation", slack - rel, not rel <= slack)
            try:
                x_rec = network_invert(sub, f1[-1])
            except (NotInvertibleError, NumericalError):
                viol["inversion_round_trip"] += 1
            else:
                denom = float(np.linalg.norm(x1)) or 1.0
                rel = float(np.linalg.norm(x_rec - x1)) / denom
                note("inversion_round_trip", 1e-6 - rel, not rel <= 1e-6)
        for f1 in feats:
            li = int(rng.integers(len(layers)))
            dw = rng.standard_normal(layers[li].weight.entries.shape)
            dw *= rng.uniform(1e-6, 1.0) / max(np.linalg.norm(dw), 1e-30)
            chk = weight_perturbation_check(layers[li], dw, f1[li])
            note("weight_perturbation_bound",
                 chk.rhs * (1.0 + 1e-9) - chk.lhs, not chk.holds)
    return {name: (viol[name], math.nan if math.isinf(worst[name])
                   else worst[name]) for name in names}
