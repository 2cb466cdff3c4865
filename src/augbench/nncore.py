"""Minimal dense-network core: MLP forward/backward and the Adam optimizer.

Matrices are plain float64 NumPy arrays (rows = samples). The network
topology is a fixed chain of affine layers with elementwise activations,
which is all the VAE, GAN and dense-net classifier need; there is no
general autodiff graph.

Parameters live in one contiguous float64 vector per network
(`MlpParams.flat`, laid out W0, b0, W1, b1, ... in row-major order), and
every `Layer.weights`/`Layer.bias` is a view into it. `mlp_backward`
writes its gradients into one vector of the same layout, held with its
per-layer views in a `GradBuffer` that a training loop builds once, and
computes the gradient w.r.t. the input batch only when asked
(`mlp_input_grad` gives only that, for a network held fixed). `adam_step`
updates the parameter vector and its moment vectors in place, through
scratch vectors kept in its state, so a training step is a handful of
whole-vector operations and never rebuilds a network or allocates.

Every step does only the work its caller reads, with the arithmetic of
the plain formulas: activations and ReLU masks are applied in place on
the step's own temporaries, and a one-output layer backpropagates
`delta @ W.T` as the elementwise `delta * W.T` (one product per element
and no sum, so the same values up to the sign of an exact zero).

Conventions fixed for test exactness:
* ReLU derivative at exactly 0 is 0.
* Weight init is uniform in [-L, L] with L = sqrt(6 / (fan_in + fan_out)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

ACTIVATIONS = ("relu", "sigmoid", "tanh", "identity")


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each sign takes the matching stable form,
    # 1/(1 + e) for x >= 0 and e/(1 + e) below.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    return np.where(x >= 0, 1.0, e) / d


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    """The activation of the pre-activation `x`, which it may overwrite."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return np.tanh(x, out=x)
    if kind == "identity":
        return x
    raise ValueError(f"unknown activation {kind!r}")


def _backprop_activation(
    delta: np.ndarray, post: np.ndarray, kind: str, own: bool
) -> np.ndarray:
    """`delta` times d(activation)/d(pre-activation), from the post-activation
    value; in place when `own`, i.e. `delta` is a temporary of the backward
    pass rather than the caller's output gradient."""
    if kind == "identity":
        return delta
    if kind == "relu":
        factor = post > 0.0
    elif kind == "sigmoid":
        factor = post * (1.0 - post)
    elif kind == "tanh":
        factor = 1.0 - post * post
    else:
        raise ValueError(f"unknown activation {kind!r}")
    return np.multiply(delta, factor, out=delta if own else None)


def _through_weights(delta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """`delta @ weights.T`; for a one-output layer the same products
    without the one-term sum."""
    if weights.shape[1] == 1:
        return delta * weights.T
    return delta @ weights.T


@dataclass
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError("layer weight/bias shape mismatch")


@dataclass
class MlpParams:
    """A chain of layers whose arrays are views into one vector, `flat`.

    The given layers' values are copied into `flat` (a new vector when
    None), so the layers passed in are never aliased.
    """

    layers: list[Layer] = field(default_factory=list)
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError("adjacent layer sizes do not chain")
        arrays = [a for layer in self.layers for a in (layer.weights, layer.bias)]
        # (start, stop, shape) of each array of `arrays()` within `flat`.
        self._slots, size = [], 0
        for a in arrays:
            self._slots.append((size, size + a.size, a.shape))
            size += a.size
        if self.flat is None:
            self.flat = np.empty(size)
        elif self.flat.shape != (size,):
            raise ValueError(f"flat parameter vector must have shape ({size},)")
        views = self.views(self.flat)
        for view, a in zip(views, arrays):
            view[...] = a
        self.layers = [
            Layer(views[2 * i], views[2 * i + 1], layer.activation)
            for i, layer in enumerate(self.layers)
        ]

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[0]

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """`vector`, laid out like `flat`, split into [W0, b0, W1, b1, ...] views."""
        return [vector[start:stop].reshape(shape) for start, stop, shape in self._slots]

    def arrays(self) -> list[np.ndarray]:
        """Parameter list [W0, b0, W1, b1, ...]: views into `flat`."""
        return self.views(self.flat)


def init_mlp(sizes: list[int], activations: list[str], rng: RngStream) -> MlpParams:
    """Glorot-uniform initialized MLP; deterministic in the stream."""
    if len(activations) != len(sizes) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.derive(f"w{i}").uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return MlpParams(layers)


class GradBuffer:
    """A gradient vector laid out like `params.flat` (a new one when None)
    and its `arrays()`-order views, built once per training loop."""

    def __init__(self, params: MlpParams, flat: np.ndarray | None = None):
        self.flat = np.empty(params.flat.size) if flat is None else flat
        self.arrays = params.views(self.flat)


def mlp_forward(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer post-activations; entry 0 is the input, last is the output."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_size:
        raise ValueError(
            f"input width {x.shape} incompatible with first layer "
            f"({params.input_size} inputs)"
        )
    activations = [x]
    for layer in params.layers:
        x = x @ layer.weights
        x += layer.bias
        x = _activate(x, layer.activation)
        activations.append(x)
    return activations


def mlp_backward(
    params: MlpParams,
    activations: list[np.ndarray],
    output_gradient: np.ndarray,
    out: GradBuffer | None = None,
    input_grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backprop a loss gradient through the network.

    `activations` must come from `mlp_forward` on the same params. The
    parameter gradient is written into `out`, a `GradBuffer` of `params`
    (a new one when None). Returns (that gradient as `arrays()`-order
    views, gradient w.r.t. the input batch); the input gradient is None,
    and never computed, when `input_grad` is False.
    """
    if output_gradient.shape != activations[-1].shape:
        raise ValueError("output gradient shape mismatch")
    grads = (out or GradBuffer(params)).arrays
    delta = output_gradient
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        layer = params.layers[i]
        delta = _backprop_activation(delta, activations[i + 1], layer.activation, i < last)
        np.matmul(activations[i].T, delta, out=grads[2 * i])
        np.add.reduce(delta, axis=0, out=grads[2 * i + 1])
        if i == 0 and not input_grad:
            return grads, None
        delta = _through_weights(delta, layer.weights)
    return grads, delta


def mlp_input_grad(
    params: MlpParams, activations: list[np.ndarray], output_gradient: np.ndarray
) -> np.ndarray:
    """The input-batch gradient of `mlp_backward`, without the parameter
    gradient (same operations, so the same bits)."""
    if output_gradient.shape != activations[-1].shape:
        raise ValueError("output gradient shape mismatch")
    delta = output_gradient
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        layer = params.layers[i]
        delta = _backprop_activation(delta, activations[i + 1], layer.activation, i < last)
        delta = _through_weights(delta, layer.weights)
    return delta


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # Two vectors shaped like `m` that `adam_step` computes in.
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray, alpha: float = 1e-3, **kw) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), alpha=alpha, **kw)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of `params`, `state.m` and `state.v`
    in place; `grad` is not modified."""
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient passed to adam_step")
    state.t += 1
    t, b1, b2 = state.t, state.beta1, state.beta2
    m, v = state.m, state.v
    s, u = state.scratch
    # m = b1*m + (1 - b1)*grad and v = b2*v + (1 - b2)*grad*grad.
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=s)
    v *= b2
    np.multiply(grad, 1.0 - b2, out=s)
    v += np.multiply(s, grad, out=s)
    # params -= alpha * m_hat / (sqrt(v_hat) + eps), factor by factor.
    np.divide(v, 1.0 - b2**t, out=s)
    np.sqrt(s, out=s)
    s += state.eps
    np.divide(m, 1.0 - b1**t, out=u)
    u *= state.alpha
    u /= s
    params -= u
