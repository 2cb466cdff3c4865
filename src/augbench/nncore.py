"""Minimal dense-network core: MLP forward/backward and the Adam optimizer.

Matrices are plain float64 NumPy arrays (rows = samples). The network
topology is a fixed chain of affine layers with elementwise activations,
which is all the VAE, GAN and dense-net classifier need; there is no
general autodiff graph.

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
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "identity":
        return x
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(post: np.ndarray, kind: str) -> np.ndarray:
    """d(activation)/d(pre-activation), expressed via the post-activation value."""
    if kind == "relu":
        return (post > 0.0).astype(float)
    if kind == "sigmoid":
        return post * (1.0 - post)
    if kind == "tanh":
        return 1.0 - post * post
    if kind == "identity":
        return np.ones_like(post)
    raise ValueError(f"unknown activation {kind!r}")


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
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError("adjacent layer sizes do not chain")

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[0]

    def arrays(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] in a fixed order."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def with_arrays(self, arrays: list[np.ndarray]) -> "MlpParams":
        new_layers = []
        for i, layer in enumerate(self.layers):
            new_layers.append(Layer(arrays[2 * i], arrays[2 * i + 1], layer.activation))
        return MlpParams(new_layers)


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
        x = _activate(x @ layer.weights + layer.bias, layer.activation)
        activations.append(x)
    return activations


def mlp_backward(
    params: MlpParams, activations: list[np.ndarray], output_gradient: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Backprop a loss gradient through the network.

    `activations` must come from `mlp_forward` on the same params.
    Returns (gradients in `arrays()` order, gradient w.r.t. the input batch).
    """
    if output_gradient.shape != activations[-1].shape:
        raise ValueError("output gradient shape mismatch")
    grads: list[np.ndarray] = [None] * (2 * len(params.layers))
    delta = output_gradient
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        delta = delta * _activation_grad(activations[i + 1], layer.activation)
        grads[2 * i] = activations[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ layer.weights.T
    return grads, delta


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_arrays(cls, arrays: list[np.ndarray], alpha: float = 1e-3, **kw) -> "AdamState":
        return cls(
            m=[np.zeros_like(a) for a in arrays],
            v=[np.zeros_like(a) for a in arrays],
            alpha=alpha,
            **kw,
        )


def adam_step(
    arrays: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; inputs are not mutated."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient passed to adam_step")
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    new_m, new_v, new_arrays = [], [], []
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_arrays.append(a - state.alpha * m_hat / (np.sqrt(v_hat) + state.eps))
        new_m.append(m)
        new_v.append(v)
    new_state = AdamState(
        m=new_m, v=new_v, t=t,
        alpha=state.alpha, beta1=b1, beta2=b2, eps=state.eps,
    )
    return new_arrays, new_state
