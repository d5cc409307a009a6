"""The trained output maps: the layer solve, its budget and its witness.

Everything here minimizes the sample-average squared prediction error
``cost(O) = (1/N) * ||T - O @ Y||_F^2`` over a Q-by-d linear map ``O``:

* :func:`least_squares` solves it exactly from the sufficient statistics
  ``G = Y Y^T`` and ``B = T Y^T``, optionally subject to a Frobenius-ball
  constraint ``||O||_F^2 <= eps`` (a trust-region step, Moré & Sorensen
  1983): Newton's method finds an active ball's multiplier from the
  witness's, one Cholesky factorization per step. The Gram is
  diagonalized instead for ``eps=inf`` (the baseline and the ELM front)
  and for an inactive ball, whose minimum-norm solution needs the
  spectrum. It never sees the features, so the caller may form the
  statistics in any orthonormal basis ``u = R y`` (costs, balls and
  multipliers are the same there, and the map is ``O_u R``), and in part
  in float32, as :mod:`hnf.trainer` does: its certificate reads costs;
* :func:`embed_previous_map` pulls the previous map back through the new
  weight once and returns the feasible witness with the budget it fits
  in, which together guarantee each layer's constrained optimum can match
  its predecessor's training cost.

Only the factorizations here call scipy's LAPACK; the statistics are
formed in numpy, whose OpenBLAS is not scipy's. Neither pool's idle threads
spin on the other's cores after a call, as :mod:`hnf` sets
``OPENBLAS_THREAD_TIMEOUT`` before either loads; results do not depend on
it. The four routines used (``dpotrf``, ``dpotrs``, ``dtrtrs``,
``dsyevr``) are read from :func:`_lapack`, scipy's compiled LAPACK module
loaded alone at the first factorization: ``import scipy.linalg`` would add
some 320 modules, about 20 MB and 0.3 s, to every process, and a process
that solves nothing (``hnf eval``, ``hnf verify``) loads neither the
module nor its OpenBLAS.

The budget for layer l is ``||O_prev @ W^T @ U||_F^2`` where U is the
structural collapse matrix; since ``[M, -M]`` has twice the squared norm of
M this is computed without materializing U, and as W is orthonormal it is
``2 * ||O_prev||_F^2``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, ParameterError
from .matrixgen import WeightMatrix


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded from
    its file under its own name at the first factorization, which reads its
    routines here (so a test replaces one on this module); ``find_spec``
    locates scipy without importing it. Where no file loads alone (as in a
    build whose ``scipy/__init__.py`` must first put bundled libraries on
    the search path), ``scipy.linalg.lapack``, which exports the same
    routines."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    linalg = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        spec = importlib.util.spec_from_file_location(
            name, linalg / f"_flapack{suffix}")
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:  # no such file, or it does not load alone
            continue
        sys.modules[name] = module  # a later import scipy.linalg reuses it
        return module
    from scipy.linalg import lapack
    return lapack


#: Replaces a zero radius only: every other one scales with the inputs.
EPSILON_FLOOR = 1e-12

#: The multiplier search stops once ||O||_F^2 is within this relative
#: distance of eps, or after NEWTON_MAX_STEPS steps; the ball projection
#: keeps the result feasible either way.
NEWTON_RTOL = 1e-13
NEWTON_MAX_STEPS = 100

#: Cholesky-Newton keeps the multiplier at or above MU_FLOOR * trace(G), so
#: G + mu*I stays well conditioned; a smaller one is left to the spectrum.
MU_FLOOR = 1e-8


@dataclass(frozen=True)
class OutputMap:
    """A trained linear map with its norm budget and achieved cost.

    ``epsilon`` is ``math.inf`` for unconstrained solves. ``layer_index`` 0
    marks the baseline map applied to raw inputs (or ELM features);
    expanding layers count from 1 (2 when an ELM front occupies slot 1).
    ``solver`` holds the solve's diagnostics: ``method`` (the path that
    produced the map, "cholesky" or "eigh"), ``newton_steps`` (its Newton
    updates) and the ball ``multiplier`` (0 when the constraint is
    inactive); the trainer adds the certificate's witness figures.
    """

    matrix: np.ndarray = field(repr=False)
    epsilon: float
    train_cost: float
    layer_index: int = 0
    solver: dict | None = None

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


def project_frobenius_ball(m: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean projection onto {M : ||M||_F^2 <= eps}."""
    nrm2 = float(np.sum(m * m))
    return m if nrm2 <= eps else m * math.sqrt(eps / nrm2)


def within_ball(o: np.ndarray, eps: float) -> bool:
    """Whether ``||o||_F^2 <= eps``, to the certificate's relative 1e-12."""
    return float(np.sum(o * o)) <= eps * (1.0 + 1e-12)


def least_squares(g: np.ndarray, b: np.ndarray, n: int, eps: float = math.inf,
                  witness: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Minimize (1/N)||T - O Y||_F^2 subject to ||O||_F^2 <= eps, exactly,
    from the statistics ``G = Y Y^T`` and ``B = T Y^T`` of N samples.

    ``G`` must be exactly symmetric and C-ordered; the solve overwrites
    it. The minimizers are ``O(mu) = B (G + mu I)^-1``, whose squared norm
    ``s(mu)`` falls as mu grows. A finite ball is first solved by
    :func:`_cholesky_newton`, started from the multiplier
    ``(<B, W> - <W G, W>) / eps`` of a feasible ``witness`` map W when one
    is given. Otherwise, or when that hands the solve back,
    ``G = V diag(lam) V^T`` is diagonalized: eigenvalues at or below
    ``(d + N) * machine-eps * lam_max`` are dropped, so ``O(0)`` is the
    minimum-norm (pseudo-inverse) solution; it is returned when
    ``s(0) <= eps``, else Newton's method climbs from ``mu = 0`` in the
    eigenbasis, and reads the dropped ones too (at 0 or above) once mu
    reaches the Cholesky path's floor. Returns the map and diagnostics.
    """
    if n < 1:
        raise DataError("empty data")
    if g.shape != (b.shape[1],) * 2:
        raise DimensionError(
            f"a {g.shape} Gram does not match a {b.shape} target product")
    if not eps > 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    # a non-finite or overflowing feature makes its row's sum of squares,
    # a diagonal entry of G, non-finite, and a non-finite target its row of B
    if not (np.isfinite(np.diagonal(g)).all() and np.isfinite(b).all()):
        raise DataError("non-finite feature statistics: the features' sums "
                        "of squares overflow float64, or a value is not finite")
    found = None
    if math.isfinite(eps):
        mu = 0.0 if witness is None else float(
            np.vdot(b, witness) - np.vdot(witness @ g, witness)) / eps
        # G is exactly symmetric, so G.T is G in Fortran order
        found = _cholesky_newton(g.T, b, eps, mu)
    if found is None:
        # LAPACK overwrites the F-ordered G.T in place
        lam, v = eigh(g.T)
        c = b @ v
        # forming G sums N products per entry and eigh adds d more
        # roundings, so eigenvalues below (d + N) * eps * lam_max are noise,
        # dropped by a slice (lam ascends: v is not copied); float32 sums may
        # leave real ones there, read once mu >= MU_FLOOR * trace(G)
        drop = np.searchsorted(
            lam, (len(g) + n) * np.finfo(np.float64).eps * lam[-1], "right")
        floor, w = MU_FLOOR * float(np.sum(lam)), np.sum(c * c, axis=0)
        mu, steps = 0.0, 0
        for keep in (slice(drop, None), slice(0, None)):
            lk, wk = np.maximum(lam[keep], 0.0), w[keep]
            s = float(np.sum(wk / (lk + mu) ** 2))
            while s - eps > NEWTON_RTOL * eps and steps < NEWTON_MAX_STEPS:
                # phi = s^-1/2 - eps^-1/2, phi' = s^-3/2 sum(w / (lam + mu)^3)
                r = float(np.sum(wk / (lk + mu) ** 3))
                mu += s * (math.sqrt(s / eps) - 1.0) / r
                s = float(np.sum(wk / (lk + mu) ** 2))
                steps += 1
            if not (drop and mu >= floor > 0):
                break
        found = (c[:, keep] / (lk + mu)) @ v[:, keep].T, "eigh", steps, mu
    o, method, steps, mu = found
    return np.ascontiguousarray(project_frobenius_ball(o, eps)), {
        "method": method, "newton_steps": steps, "multiplier": mu}


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues and the eigenvectors of the symmetric
    F-ordered ``a``, read from its lower triangle, which ``dsyevr``
    overwrites: what ``scipy.linalg.eigh(a, overwrite_a=True,
    check_finite=False)`` runs by default, to the bit."""
    lapack = _lapack()
    lwork, liwork, _ = lapack.dsyevr_lwork(len(a), lower=1)
    lam, v, _, _, info = lapack.dsyevr(
        a, compute_v=1, lower=1, overwrite_a=1, lwork=int(lwork),
        liwork=int(liwork))
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed: info {info}")
    return lam, v


def _reset_gram(g: np.ndarray, diagonal: np.ndarray) -> None:
    """Rebuild a symmetric ``g`` in place from its strict upper triangle,
    with ``diagonal`` on its diagonal."""
    for j in range(0, len(g), 64):  # blocks of columns, for the cache
        k = min(j + 64, len(g))
        g[k:, j:k] = g[j:k, k:].T
        upper = np.triu(g[j:k, j:k], 1)
        np.add(upper, upper.T, out=g[j:k, j:k])
    np.fill_diagonal(g, diagonal)


def _cholesky_newton(g: np.ndarray, b: np.ndarray, eps: float, mu: float):
    """Newton's method on ``1/sqrt(s(mu)) - 1/sqrt(eps)`` from ``mu``, one
    Cholesky ``L L^T = G + mu I`` per step, formed in the lower triangle of
    the F-ordered ``g`` while the upper one keeps G. G is rebuilt only on a
    handover; on success the lower triangle holds the last factor.
    ``O^T`` comes by ``dpotrs`` and ``-s'(mu) / 2 = ||L^-1 O^T||_F^2`` by
    ``dtrtrs``. The function is concave and increasing: a start above the
    root steps below it, then Newton climbs without overshooting, never
    below ``MU_FLOOR * trace(G)``. Returns ``(O, "cholesky", steps, mu)``,
    or None to hand over to the spectrum when ``s <= eps`` at that floor
    (an inactive ball, or a multiplier of numerically 0), when a
    factorization fails, or when Newton does not converge.
    """
    lapack = _lapack()
    floor = MU_FLOOR * float(np.trace(g))
    mu = max(mu, floor)
    g_diag = np.diagonal(g).copy()
    for steps in range(NEWTON_MAX_STEPS + 1):
        _reset_gram(g, g_diag + mu)
        chol, info = lapack.dpotrf(g, lower=1, clean=0, overwrite_a=1)
        if info:
            break
        ot = lapack.dpotrs(chol, b.T, lower=1)[0]
        s = float(np.sum(ot * ot))
        if mu == floor and s <= eps:
            break
        if abs(s - eps) <= NEWTON_RTOL * eps:
            return ot.T, "cholesky", steps, mu
        z = lapack.dtrtrs(chol, ot, lower=1)[0]
        mu = max(mu + s * (math.sqrt(s / eps) - 1.0) / float(np.sum(z * z)),
                 floor)
    _reset_gram(g, g_diag)
    return None


def embed_previous_map(o_prev: OutputMap,
                       w: WeightMatrix) -> tuple[np.ndarray, float]:
    """The witness ``[M, -M]`` with ``M = O_prev @ W^T``, and the ball
    radius ``2 * ||M||_F^2`` it fits in, or EPSILON_FLOOR in place of 0.

    Applied to this layer's expanded features the witness reproduces the
    previous layer's predictions exactly, certifying that the previous
    training cost stays attainable within the radius, ``2 * ||O_prev||_F^2``
    as W is orthonormal (a :class:`ParameterError` if not), over the
    baseline and every later layer; the floor keeps the ball solvable over
    an all-zero previous map, and moves no other radius.
    """
    o = o_prev.matrix
    if w.cols != o.shape[1]:
        raise DimensionError(
            f"previous map has {o.shape[1]} columns but weight expects "
            f"{w.cols}"
        )
    if not w.orthonormal:
        raise ParameterError(f"a witness needs an orthonormal weight, got "
                             f"{w.kind.name}")
    m = o @ w.entries.T
    return np.hstack([m, -m]), 2.0 * float(np.sum(m * m)) or EPSILON_FLOOR
