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
whole-vector operations and never rebuilds a network or allocates; its
β1, β2 and ε are the constants `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`.

Every pass runs over an `MlpStack`: networks of one topology (one per
class of a generator) whose parameters are consecutive blocks of one
vector, where network k reads and writes row block k of a stacked batch.
Every product and bias sum runs per block, on that block's own rows and
weights, so its bits are those of the network's own pass; every
elementwise operation runs once over all the rows, and one `adam_step`
updates every network. A single `MlpParams` passed to a pass runs as a
one-network stack over its own vector, built for that call; a training
loop builds its stack once and trains `stack.nets`.

Every step does only the work its caller reads, with the arithmetic of
the plain formulas: activations and ReLU masks are applied in place on
the step's own temporaries. A bias gradient is a `column_sums` of the
layer's delta: numpy reduces an outer axis one row at a time, and
einsum adds the same rows in the same order in one pass, so the bits are
those of `np.add.reduce` at about a third of its cost. A one-wide delta
(a 1-unit output layer) is one contiguous column, which numpy sums
pairwise, so it stays with `np.add.reduce`.

Conventions fixed for test exactness:
* ReLU derivative at exactly 0 is 0.
* Weight init is uniform in [-L, L] with L = sqrt(6 / (fan_in + fan_out)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

ACTIVATIONS = ("relu", "sigmoid", "tanh", "identity")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`np.clip(x, lo, hi)` without its Python wrapper: the one clamp of the
    VAE's log-variances and the GAN's and dense net's probabilities."""
    return np.minimum(np.maximum(x, lo), hi)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of `x`, into `out` (which may be `x`) when given."""
    # exp(-|x|) never overflows; each sign takes the matching stable form,
    # 1/(1 + e) for x >= 0 and e/(1 + e) below.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    return np.divide(np.where(x >= 0, 1.0, e), d, out=out)


def column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`np.add.reduce(a, axis=-2, out=out)` with its bits: each column's sum
    over the rows of a C-ordered (n, m) array, or of each block of a
    (B, n, m) stack. einsum does it in one pass, except for one column,
    which numpy sums pairwise."""
    if a.shape[-1] == 1:
        return np.add.reduce(a, axis=-2, out=out)
    return np.einsum("ij->j" if a.ndim == 2 else "bnj->bj", a, out=out)


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    """The activation of the pre-activation `x`, in place."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=x)
    if kind == "sigmoid":
        return sigmoid(x, out=x)
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


class MlpStack:
    """Networks of one topology, trained in lockstep on one stacked batch.

    `rows[k]` is the number of rows of network k's block; the blocks are
    stacked in the order of `nets`. The networks' values are copied into
    consecutive blocks of `flat` (a new vector when None), and `nets` holds
    them rebuilt as `MlpParams` views of their blocks. A pass writes each
    layer's output, and each backward step its input gradient, into
    buffers built here, so the activations a pass returns are valid until
    the stack's next pass.
    """

    def __init__(self, nets: list[MlpParams], rows: list[int], flat: np.ndarray | None = None):
        first = nets[0]
        topology = [(layer.weights.shape, layer.activation) for layer in first.layers]
        if any([(l.weights.shape, l.activation) for l in net.layers] != topology for net in nets):
            raise ValueError("stacked networks must share one topology")
        if len(rows) != len(nets):
            raise ValueError("need one row count per stacked network")
        size = first.flat.size
        if flat is None:
            flat = np.empty(len(nets) * size)
        elif flat.shape != (len(nets) * size,):
            raise ValueError(f"flat parameter vector must have shape ({len(nets) * size},)")
        self.flat = flat
        self.nets = [
            MlpParams(net.layers, flat[k * size:(k + 1) * size]) for k, net in enumerate(nets)
        ]
        self.activations = [kind for _, kind in topology]
        bounds = np.cumsum([0, *rows]).tolist()
        self.blocks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.n_rows = bounds[-1]
        # Each row's block size, the per-row `n` of a per-block mean.
        self.counts = np.repeat(np.asarray(rows, dtype=float), rows)[:, None]
        self.outputs = [np.empty((self.n_rows, shape[1])) for shape, _ in topology]
        self.input_grads = [np.empty((self.n_rows, shape[0])) for shape, _ in topology]
        # Per layer, one (rows, W, b, W.T, output rows, input-gradient rows)
        # per network, built once: a pass spends its time in numpy.
        self.lanes = [
            [
                (rows, net.layers[i].weights, net.layers[i].bias, net.layers[i].weights.T,
                 out[rows], grad[rows])
                for net, rows in zip(self.nets, self.blocks)
            ]
            for i, (out, grad) in enumerate(zip(self.outputs, self.input_grads))
        ]

    @property
    def input_size(self) -> int:
        return self.nets[0].input_size

    def views(self, vector: np.ndarray) -> list[list[np.ndarray]]:
        """`vector`, laid out like `flat`, as each network's `views`."""
        size = self.nets[0].flat.size
        return [net.views(vector[k * size:(k + 1) * size]) for k, net in enumerate(self.nets)]


def block_means(values: np.ndarray, blocks: list[tuple[slice, int]]) -> list[float]:
    """`np.mean(values[rows])` of each (rows, size) of `blocks`, as
    `np.add.reduce / size`: the same bits without the wrapper."""
    return [float(np.add.reduce(values[rows], axis=None) / size) for rows, size in blocks]


def row_blocks(
    params: MlpParams | MlpStack, x: np.ndarray
) -> tuple[list[tuple[slice, int]], np.ndarray]:
    """The (rows, row count) of each block of the batch `x` for `params`,
    and each row's block size as a float column; a lone network's batch
    is one block."""
    stack = _as_stack(params, len(x))
    return [(rows, rows.stop - rows.start) for rows in stack.blocks], stack.counts


class GradBuffer:
    """A gradient vector laid out like `params.flat` (a new one when None)
    and its `arrays()`-order views (for a stack, one such list per
    network), built once per training loop."""

    def __init__(self, params: MlpParams | MlpStack, flat: np.ndarray | None = None):
        self.flat = np.empty(params.flat.size) if flat is None else flat
        self.arrays = params.views(self.flat)


def _as_stack(params: MlpParams | MlpStack, n_rows: int) -> MlpStack:
    """`params` if it is a stack, else a one-network stack of `n_rows`
    rows over the network's own vector."""
    if isinstance(params, MlpStack):
        return params
    return MlpStack([params], [n_rows], params.flat)


def mlp_forward(params: MlpParams | MlpStack, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer post-activations; entry 0 is the input, last is the output.
    The others are buffers of the stack (valid until its next pass)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_size:
        raise ValueError(
            f"input width {x.shape} incompatible with first layer "
            f"({params.input_size} inputs)"
        )
    stack = _as_stack(params, len(x))
    if len(x) != stack.n_rows:
        raise ValueError(f"stacked batch has {len(x)} rows, the stack {stack.n_rows}")
    activations = [x]
    for out, kind, lanes in zip(stack.outputs, stack.activations, stack.lanes):
        for rows, weights, bias, _, y, _ in lanes:
            np.dot(x[rows], weights, y)
            y += bias
        x = _activate(out, kind)
        activations.append(x)
    return activations


def _backward(
    stack: MlpStack,
    activations: list[np.ndarray],
    delta: np.ndarray,
    grads: list[list[np.ndarray]] | None,
    input_grad: bool,
) -> np.ndarray | None:
    """`mlp_backward` over a stack's row blocks; no parameter gradient when
    `grads` is None. Returns the input gradient (a stack buffer) or None."""
    last = len(stack.activations) - 1
    for i in range(last, -1, -1):
        delta = _backprop_activation(delta, activations[i + 1], stack.activations[i], i < last)
        a = activations[i]
        through = i > 0 or input_grad
        for k, (rows, _, _, weights_t, _, target) in enumerate(stack.lanes[i]):
            d = delta[rows]
            if grads is not None:
                np.dot(a[rows].T, d, grads[k][2 * i])
                column_sums(d, out=grads[k][2 * i + 1])
            if through:
                np.dot(d, weights_t, target)
        if not through:
            return None
        delta = stack.input_grads[i]
    return delta


def mlp_backward(
    params: MlpParams | MlpStack,
    activations: list[np.ndarray],
    output_gradient: np.ndarray,
    out: GradBuffer | None = None,
    input_grad: bool = True,
) -> tuple[list, np.ndarray | None]:
    """Backprop a loss gradient through the network.

    `activations` must come from `mlp_forward` on the same params. The
    parameter gradient is written into `out`, a `GradBuffer` of `params`
    (a new one when None). Returns (that gradient as `out.arrays`,
    gradient w.r.t. the input batch); the input gradient is None, and
    never computed, when `input_grad` is False.
    """
    if output_gradient.shape != activations[-1].shape:
        raise ValueError("output gradient shape mismatch")
    grads = (out or GradBuffer(params)).arrays
    stack = _as_stack(params, len(output_gradient))
    per_net = grads if stack is params else [grads]
    return grads, _backward(stack, activations, output_gradient, per_net, input_grad)


def mlp_input_grad(
    params: MlpParams | MlpStack, activations: list[np.ndarray], output_gradient: np.ndarray
) -> np.ndarray:
    """The input-batch gradient of `mlp_backward`, without the parameter
    gradient (same operations, so the same bits)."""
    if output_gradient.shape != activations[-1].shape:
        raise ValueError("output gradient shape mismatch")
    stack = _as_stack(params, len(output_gradient))
    return _backward(stack, activations, output_gradient, None, True)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    alpha: float = 1e-3
    # Two vectors shaped like `m` that `adam_step` computes in.
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray, alpha: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), alpha=alpha)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of `params`, `state.m` and `state.v`
    in place; `grad` is not modified."""
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient passed to adam_step")
    state.t += 1
    t, b1, b2 = state.t, ADAM_BETA1, ADAM_BETA2
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
    s += ADAM_EPS
    np.divide(m, 1.0 - b1**t, out=u)
    u *= state.alpha
    u /= s
    params -= u
