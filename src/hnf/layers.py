"""The fixed nonlinear machinery: ReLU, dimension-doubling expansion, the
lossless collapse, a layer's features, the walk, and the exact inverse map.

:meth:`HnfLayer.features` is the one place features are formed, and
:meth:`~hnf.matrixgen.WeightMatrix.apply`, beside :func:`pinv_weight` and
the train walk's Gram carry, the one place a weight multiplies data.
:func:`walk`, the one loop that applies a network to data, runs both a
layer at a time for scoring, the invariant checks and an ELM front in
training. The train walk (``hnf.trainer``) holds pre-activations and calls
each itself. Memory is budgeted in ``hnf.trainer.build_network``.

A layer computes ``vn_expand(W @ q)``: the input is projected by a fixed
weight matrix and split into its positive part and negated negative part.
The expansion concatenates ``relu(z)`` and ``relu(-z)``, so nothing is lost
(``un_collapse`` recovers ``z`` exactly) and the squared norm is preserved.
The structural expand/collapse matrices are never materialized; they are
index arithmetic on the top and bottom halves.

All vector operations also accept 2-D arrays whose columns are samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotInvertibleError,
    NumericalError,
    ParameterError,
)
from .matrixgen import WeightMatrix

#: SVD cutoff (relative to sigma_max) for non-orthonormal pseudo-inverses.
PINV_RCOND = 1e-10


def relu(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(v, 0), into ``out`` if given."""
    return np.maximum(v, 0.0, out=out)


@np.errstate(over="ignore")  # exp(-v) = inf gives 1 / inf = 0, exactly
def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic 1 / (1 + exp(-v)), into ``out`` if given."""
    out = np.negative(v, out=out, dtype=np.float64)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid}


def vn_expand(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stack relu(z) on top of relu(-z), doubling the leading dimension,
    into ``out`` if given.

    Exactly norm-preserving: ||vn_expand(z)||^2 == ||z||^2.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    out = np.empty((2 * n,) + z.shape[1:]) if out is None else out
    np.maximum(z, 0.0, out=out[:n])
    np.minimum(z, 0.0, out=out[n:])
    np.negative(out[n:], out=out[n:])
    return out


def un_collapse(ybar: np.ndarray) -> np.ndarray:
    """Difference of the top and bottom halves; inverts :func:`vn_expand`.

    ``un_collapse(vn_expand(z)) == z`` for every z (the lossless flow
    property), and more generally for any ybar the result is
    ``ybar[:n] - ybar[n:]``.
    """
    ybar = np.asarray(ybar, dtype=np.float64)
    if ybar.shape[0] % 2 != 0:
        raise DimensionError(
            f"collapse needs an even leading dimension, got {ybar.shape[0]}"
        )
    n = ybar.shape[0] // 2
    return ybar[:n] - ybar[n:]


@dataclass(frozen=True)
class HnfLayer:
    """One fixed layer: weight projection followed by the ReLU expansion.

    ``expand=False`` turns the layer into a plain activation layer
    ``act(W @ q)`` (the ELM front); such a layer halves nothing and cannot
    be inverted.
    """

    weight: WeightMatrix
    expand: bool = True
    activation: str = "relu"

    def __post_init__(self) -> None:
        allowed = ["relu"] if self.expand else sorted(ACTIVATIONS)
        if self.activation not in allowed:  # an expansion is a ReLU's
            raise ParameterError(
                f"activation {self.activation!r} on a layer with expand="
                f"{self.expand}; expected one of {allowed}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.cols

    @property
    def out_dim(self) -> int:
        return 2 * self.weight.rows if self.expand else self.weight.rows

    def features(self, z: np.ndarray, out=None) -> np.ndarray:
        """The expansion, or the activation, of pre-activations ``z`` in
        ``out[:out_dim]`` (new if None; ``z`` may be its bottom rows)."""
        out = None if out is None else out[:self.out_dim]
        return (vn_expand(z, out=out) if self.expand
                else ACTIVATIONS[self.activation](z, out=out))


@dataclass(frozen=True)
class HnfNetwork:
    """An ordered chain of layers with validated dimension chaining."""

    layers: tuple[HnfLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise DimensionError("a network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        for i in range(1, len(self.layers)):
            if self.layers[i].in_dim != self.layers[i - 1].out_dim:
                raise DimensionError(
                    f"layer {i} expects input dim {self.layers[i].in_dim} "
                    f"but layer {i - 1} outputs {self.layers[i - 1].out_dim}"
                )

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def has_front(self) -> bool:
        """True when layer 0 is a non-expanding (ELM-style) feature layer."""
        return not self.layers[0].expand


def walk(net: HnfNetwork, x: np.ndarray, buf: np.ndarray | None = None):
    """The one loop that applies a network to data. Yields ``(layer,
    features)`` for each layer that carries a map: the baseline (layer 0)
    on ``x`` or on the ELM front's output, then every later layer, each
    formed only when asked for, in place in one buffer (new if None) of
    the widest layer's features: ``W @ q`` fills its last ``rows`` rows,
    then :meth:`HnfLayer.features`. So each item but ``x`` is a view the
    next overwrites: copy what you keep. Data of another width than the
    first layer takes raises :class:`DimensionError`."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != net.layers[0].in_dim:
        raise DimensionError(f"data has {x.shape[0]} features, but the "
                             f"network takes {net.layers[0].in_dim}")
    if not net.has_front:
        yield 0, x
    if buf is None:
        buf = np.empty((max(l.out_dim for l in net.layers),) + x.shape[1:])
    for no, layer in enumerate(net.layers, 1):
        out = buf[:layer.out_dim]
        x = layer.features(layer.weight.apply(x, out[-layer.weight.rows:]),
                           out)
        yield (0 if no == 1 and net.has_front else no), x


def pinv_weight(w: WeightMatrix) -> np.ndarray:
    """Pseudo-inverse of a weight: its transpose when orthonormal, else an
    SVD pseudo-inverse with cutoff :data:`PINV_RCOND`."""
    if w.orthonormal:
        return w.entries.T
    try:
        return np.linalg.pinv(w.entries, rcond=PINV_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"pseudo-inverse of a {w.rows}x{w.cols} weight did not converge"
        ) from exc


def network_invert(net: HnfNetwork, ybar_last: np.ndarray) -> np.ndarray:
    """Reconstruct the network input from the last layer's features.

    Walks the chain backwards: collapse the expansion, then apply the weight
    pseudo-inverse (the transpose, for orthonormal weights). Raises
    :class:`NotInvertibleError` when a layer does not expand. The weights
    are not checked: a rank-deficient, wide or non-finite one gives a
    reconstruction that misses the input, which a round trip measures.
    """
    for i, layer in enumerate(net.layers):
        if not layer.expand:
            raise NotInvertibleError(
                f"layer {i + 1} is a non-expanding feature layer; "
                "the collapse that inversion relies on does not exist"
            )
    cur = np.asarray(ybar_last, dtype=np.float64)
    if cur.shape[0] != net.layers[-1].out_dim:
        raise DimensionError(
            f"feature dim {cur.shape[0]} does not match last layer output "
            f"dim {net.layers[-1].out_dim}"
        )
    for layer in reversed(net.layers):
        cur = pinv_weight(layer.weight) @ un_collapse(cur)
    return cur
