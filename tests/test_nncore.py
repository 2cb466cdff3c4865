"""MLP forward/backward against finite differences and the plain formulas;
Adam against hand oracles."""

import numpy as np
import pytest

from augbench.nncore import (
    AdamState,
    GradBuffer,
    Layer,
    MlpParams,
    MlpStack,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_input_grad,
    sigmoid,
)
from augbench.rng import RngStream

from conftest import (
    central_difference,
    max_relative_error,
    ref_adam_step,
    ref_backward,
    ref_forward,
    ref_sigmoid,
    with_arrays,
)


def test_sigmoid_matches_definition_and_survives_extremes():
    x = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)
    big = sigmoid(np.array([-1e4, 1e4]))
    assert np.all(np.isfinite(big))
    assert big[0] == 0.0 and big[1] == 1.0


def test_sigmoid_equals_the_sign_split_form_bit_for_bit():
    x = np.concatenate([
        RngStream(3, ("sig",)).normal(size=200) * 30.0,
        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.0, -745.0, 1e308, -1e308],
    ])
    pos = x >= 0
    ref = np.empty_like(x)
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    np.testing.assert_array_equal(sigmoid(x), ref)


def test_init_mlp_is_glorot_bounded_and_deterministic():
    rng = RngStream(0, ("init",))
    p = init_mlp([5, 4, 2], ["relu", "sigmoid"], rng)
    for layer, (fi, fo) in zip(p.layers, [(5, 4), (4, 2)]):
        limit = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(layer.weights) <= limit)
        assert np.all(layer.bias == 0.0)
    q = init_mlp([5, 4, 2], ["relu", "sigmoid"], RngStream(0, ("init",)))
    for a, b in zip(p.arrays(), q.arrays()):
        np.testing.assert_array_equal(a, b)


def test_forward_identity_net_is_affine():
    w = np.array([[2.0, 0.0], [0.0, 3.0]])
    b = np.array([1.0, -1.0])
    p = MlpParams([Layer(w, b, "identity")])
    x = np.array([[1.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(mlp_forward(p, x)[-1], x @ w + b)


def test_forward_rejects_wrong_width():
    p = init_mlp([3, 2], ["identity"], RngStream(0))
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros((4, 5)))


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 3)), np.zeros(2), "relu")  # bias width mismatch
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 3)), np.zeros(3), "softplus")  # unknown activation
    with pytest.raises(ValueError):
        MlpParams([
            Layer(np.zeros((2, 3)), np.zeros(3), "relu"),
            Layer(np.zeros((4, 1)), np.zeros(1), "relu"),  # does not chain
        ])


def test_arrays_roundtrip():
    p = init_mlp([3, 4, 1], ["tanh", "sigmoid"], RngStream(5))
    q = with_arrays(p, [a + 1.0 for a in p.arrays()])
    for a, b in zip(p.arrays(), q.arrays()):
        np.testing.assert_allclose(b, a + 1.0)
    assert [l.activation for l in q.layers] == [l.activation for l in p.layers]


@pytest.mark.parametrize("acts", [["relu", "identity"], ["tanh", "sigmoid"],
                                  ["sigmoid", "tanh", "identity"]])
def test_backward_matches_finite_differences(acts):
    rng = RngStream(11, ("fd", *acts))
    sizes = [3] + [4] * (len(acts) - 1) + [2]
    params = init_mlp(sizes, acts, rng.derive("params"))
    x = rng.derive("x").normal(size=(5, 3))
    coeffs = rng.derive("c").normal(size=(5, 2))

    def loss_fn(arrays):
        return float(np.sum(coeffs * mlp_forward(with_arrays(params, arrays), x)[-1]))

    forward = mlp_forward(params, x)
    analytic, _ = mlp_backward(params, forward, coeffs)
    numeric = central_difference(loss_fn, params.arrays())
    assert max_relative_error(analytic, numeric) < 1e-6


def test_backward_input_gradient_matches_finite_differences():
    rng = RngStream(12, ("fd-input",))
    params = init_mlp([3, 4, 1], ["tanh", "sigmoid"], rng.derive("params"))
    x = rng.derive("x").normal(size=(4, 3))
    coeffs = rng.derive("c").normal(size=(4, 1))

    def loss_fn(arrays):
        return float(np.sum(coeffs * mlp_forward(params, arrays[0])[-1]))

    _, d_input = mlp_backward(params, mlp_forward(params, x), coeffs)
    numeric = central_difference(loss_fn, [x])
    assert max_relative_error([d_input], numeric) < 1e-6


def test_backward_rejects_wrong_output_gradient_shape():
    params = init_mlp([2, 1], ["identity"], RngStream(0))
    acts = mlp_forward(params, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mlp_backward(params, acts, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        mlp_input_grad(params, acts, np.zeros((2, 1)))


def test_input_grad_equals_backward_input_gradient_bit_for_bit():
    rng = RngStream(13, ("input-grad",))
    params = init_mlp([3, 5, 4, 1], ["relu", "tanh", "sigmoid"], rng.derive("params"))
    acts = mlp_forward(params, rng.derive("x").normal(size=(6, 3)))
    coeffs = rng.derive("c").normal(size=(6, 1))
    flat_before = params.flat.copy()
    _, d_input = mlp_backward(params, acts, coeffs)
    np.testing.assert_array_equal(mlp_input_grad(params, acts, coeffs), d_input)
    np.testing.assert_array_equal(params.flat, flat_before)


def test_adam_first_step_oracle():
    # With zero state, the first bias-corrected step is exactly
    # -alpha * g / (|g| + eps) regardless of gradient magnitude.
    a = np.array([1.0, -2.0])
    g = np.array([0.5, -3.0])
    state = AdamState.for_params(a, alpha=0.1)
    expected = a - 0.1 * g / (np.abs(g) + state.eps)
    adam_step(a, g, state)
    np.testing.assert_allclose(a, expected, rtol=1e-10)
    assert state.t == 1
    np.testing.assert_array_equal(g, [0.5, -3.0])  # params updated in place, grads untouched


def test_adam_second_step_oracle():
    a = np.array([0.0])
    g1, g2 = np.array([1.0]), np.array([2.0])
    state = AdamState.for_params(a, alpha=0.01)
    adam_step(a, g1, state)
    adam_step(a, g2, state)
    # Hand-rolled two-step Adam on a scalar.
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = (1 - b1) * 1.0
    v = (1 - b2) * 1.0
    x = 0.0 - 0.01 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * 2.0
    v = b2 * v + (1 - b2) * 4.0
    x = x - 0.01 * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    np.testing.assert_allclose(a, [x], rtol=1e-12)


def test_adam_rejects_non_finite_gradients():
    a = np.zeros(2)
    state = AdamState.for_params(a)
    with pytest.raises(FloatingPointError):
        adam_step(a, np.array([np.nan, 0.0]), state)
    # A rejected step changes nothing.
    assert state.t == 0
    np.testing.assert_array_equal(a, [0.0, 0.0])
    np.testing.assert_array_equal(state.m, [0.0, 0.0])


def _reference_adam(arrays, grads, m, v, t, alpha, b1=0.9, b2=0.999, eps=1e-8):
    """Out-of-place, one array at a time: the per-array form of Adam."""
    new_arrays, new_m, new_v = [], [], []
    for a, g, mi, vi in zip(arrays, grads, m, v):
        mi = b1 * mi + (1.0 - b1) * g
        vi = b2 * vi + (1.0 - b2) * g * g
        m_hat = mi / (1.0 - b1**t)
        v_hat = vi / (1.0 - b2**t)
        new_arrays.append(a - alpha * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(mi)
        new_v.append(vi)
    return new_arrays, new_m, new_v


def test_in_place_adam_equals_per_array_reference_bit_for_bit():
    rng = RngStream(21, ("adam-ref",))
    params = init_mlp([3, 5, 4, 2], ["relu", "tanh", "sigmoid"], rng.derive("init"))
    ref = [a.copy() for a in params.arrays()]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    state = AdamState.for_params(params.flat, alpha=0.01)
    for t in range(1, 21):
        grad = rng.derive(f"g{t}").normal(size=params.flat.size) * 10.0 ** (t % 5 - 2)
        adam_step(params.flat, grad, state)
        ref, ref_m, ref_v = _reference_adam(
            ref, params.views(grad), ref_m, ref_v, t, alpha=0.01
        )
    assert state.t == 20
    for layer_array, mine, r in zip(
        [a for layer in params.layers for a in (layer.weights, layer.bias)],
        params.arrays(), ref,
    ):
        np.testing.assert_array_equal(layer_array, r)  # layers see the update
        np.testing.assert_array_equal(mine, r)
    for mine, r in zip(params.views(state.m), ref_m):
        np.testing.assert_array_equal(mine, r)
    for mine, r in zip(params.views(state.v), ref_v):
        np.testing.assert_array_equal(mine, r)


def test_layers_are_views_of_one_flat_vector():
    w0, b0 = np.arange(6.0).reshape(2, 3), np.array([1.0, 2.0, 3.0])
    w1, b1 = np.ones((3, 1)), np.array([-1.0])
    p = MlpParams([Layer(w0, b0, "relu"), Layer(w1, b1, "identity")])
    np.testing.assert_array_equal(p.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    for layer in p.layers:
        assert np.shares_memory(layer.weights, p.flat)
        assert np.shares_memory(layer.bias, p.flat)
    p.flat[:] = 0.0  # the given arrays were copied, not aliased
    assert w0[1, 2] == 5.0 and b1[0] == -1.0


def test_flat_gradient_equals_per_layer_products_exactly():
    rng = RngStream(22, ("flat-grad",))
    acts_kind = ["relu", "tanh", "sigmoid"]
    params = init_mlp([3, 5, 4, 2], acts_kind, rng.derive("init"))
    params.flat[:] += rng.derive("shift").normal(size=params.flat.size)
    x = rng.derive("x").normal(size=(7, 3))
    coeffs = rng.derive("c").normal(size=(7, 2))
    acts = mlp_forward(params, x)
    out = np.full(params.flat.size, np.nan)
    grads, d_in = mlp_backward(params, acts, coeffs, GradBuffer(params, out))

    delta = coeffs
    expected = [None] * (2 * len(params.layers))
    for i in range(len(params.layers) - 1, -1, -1):
        post = acts[i + 1]
        delta = delta * {
            "relu": (post > 0.0).astype(float),
            "tanh": 1.0 - post * post,
            "sigmoid": post * (1.0 - post),
        }[acts_kind[i]]
        expected[2 * i] = acts[i].T @ delta
        expected[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ params.layers[i].weights.T
    for g, e in zip(grads, expected):
        assert np.shares_memory(g, out)
        np.testing.assert_array_equal(g, e)
    np.testing.assert_array_equal(out, np.concatenate([e.ravel() for e in expected]))
    np.testing.assert_array_equal(d_in, delta)


def test_relu_gradient_at_zero_is_zero():
    p = MlpParams([Layer(np.ones((1, 1)), np.zeros(1), "relu")])
    acts = mlp_forward(p, np.array([[0.0]]))
    grads, d_in = mlp_backward(p, acts, np.array([[1.0]]))
    assert d_in[0, 0] == 0.0 and grads[0][0, 0] == 0.0


def test_relu_layer_clamps_negatives():
    p = MlpParams([Layer(np.eye(2), np.zeros(2), "relu")])
    np.testing.assert_array_equal(
        mlp_forward(p, np.array([[-1.0, 2.0]]))[-1], [[0.0, 2.0]]
    )


def test_zero_weight_net_outputs_activated_bias():
    p = MlpParams([Layer(np.zeros((3, 2)), np.array([0.0, 2.0]), "sigmoid")])
    out = mlp_forward(p, np.ones((4, 3)))[-1]
    np.testing.assert_allclose(out, np.tile(sigmoid(np.array([0.0, 2.0])), (4, 1)))


def test_adam_zero_gradient_is_a_null_update():
    a = np.array([1.5, -0.5])
    state = AdamState.for_params(a, alpha=0.1)
    adam_step(a, np.zeros(2), state)
    np.testing.assert_array_equal(a, [1.5, -0.5])
    assert state.t == 1


def test_adam_converges_on_scalar_quadratic():
    # Minimize (p - 3)^2 from p = 0 with alpha = 0.1.
    p = np.array([0.0])
    state = AdamState.for_params(p, alpha=0.1)
    for _ in range(100):
        adam_step(p, 2.0 * (p - 3.0), state)
    assert abs(p[0] - 3.0) < 0.5


# Every activation, hidden and as the head, including one-unit heads,
# whose backward multiplies by W.T instead of a one-term matmul.
LEAN_NETS = [
    ([3, 6, 4, 1], ["relu", "relu", "sigmoid"]),  # discriminator / dense net
    ([4, 5, 6], ["relu", "identity"]),  # VAE encoder and decoder
    ([3, 5, 4, 2], ["tanh", "sigmoid", "identity"]),
    ([2, 4, 3, 1], ["sigmoid", "tanh", "relu"]),
    ([3, 4, 1], ["identity", "tanh"]),
    ([3, 1], ["sigmoid"]),
]


@pytest.mark.parametrize("sizes, kinds", LEAN_NETS)
def test_lean_step_equals_the_plain_formulas_bit_for_bit(sizes, kinds):
    rng = RngStream(31, ("lean", *kinds))
    params = init_mlp(sizes, kinds, rng.derive("init"))
    params.flat[:] += 0.5 * rng.derive("shift").normal(size=params.flat.size)
    x = rng.derive("x").normal(size=(9, sizes[0]))
    g = rng.derive("g").normal(size=(9, sizes[-1]))
    x_before, g_before = x.copy(), g.copy()

    acts = mlp_forward(params, x)
    ref_acts = ref_forward(params, x)
    for a, r in zip(acts, ref_acts):
        assert np.array_equal(a, r)
    ref_grads, ref_d_in = ref_backward(params, ref_acts, g)

    grads, d_in = mlp_backward(params, acts, g)
    buffer = GradBuffer(params)
    lean, no_input = mlp_backward(params, acts, g, buffer, input_grad=False)
    assert no_input is None
    for a, b, r, view in zip(grads, lean, ref_grads, buffer.arrays):
        assert np.array_equal(a, r) and np.array_equal(b, r)
        assert b is view
    assert np.array_equal(d_in, ref_d_in)
    assert np.array_equal(mlp_input_grad(params, acts, g), ref_d_in)
    # The caller's arrays are read, never written.
    assert np.array_equal(x, x_before) and np.array_equal(g, g_before)
    for a, r in zip(acts, ref_acts):
        assert np.array_equal(a, r)


def test_sigmoid_equals_the_plain_formula_across_the_exp_range():
    x = np.concatenate([
        np.linspace(-745.0, 745.0, 5961),
        [-746.0, 746.0, -1e308, 1e308, -np.inf, np.inf, 0.0, -0.0, 5e-324, -5e-324],
    ])
    before = x.copy()
    assert np.array_equal(sigmoid(x), ref_sigmoid(x))
    assert np.array_equal(x, before)


def test_adam_step_equals_the_plain_formula_over_several_steps():
    rng = RngStream(32, ("adam-lean",))
    params = rng.derive("p").normal(size=40)
    ref = params.copy()
    state = AdamState.for_params(params, alpha=0.01)
    ref_state = AdamState.for_params(ref, alpha=0.01)
    for t in range(1, 13):
        grad = rng.derive(f"g{t}").normal(size=40) * 10.0 ** (t % 7 - 3)
        grad[t] = 0.0
        grad_before = grad.copy()
        adam_step(params, grad, state)
        ref_adam_step(ref, grad, ref_state)
        assert state.t == ref_state.t == t
        assert np.array_equal(params, ref)
        assert np.array_equal(state.m, ref_state.m) and np.array_equal(state.v, ref_state.v)
        assert np.array_equal(grad, grad_before)


@pytest.mark.parametrize("sizes, kinds", LEAN_NETS)
def test_stacked_pass_equals_each_network_alone_bit_for_bit(sizes, kinds):
    rng = RngStream(33, ("stack", *kinds))
    nets = [init_mlp(sizes, kinds, rng.derive(f"init{k}")) for k in range(3)]
    for k, net in enumerate(nets):
        net.flat[:] += 0.5 * rng.derive(f"shift{k}").normal(size=net.flat.size)
    rows = [5, 11, 2]
    stack = MlpStack(nets, rows)
    x = rng.derive("x").normal(size=(sum(rows), sizes[0]))
    g = rng.derive("g").normal(size=(sum(rows), sizes[-1]))
    grads, d_in = mlp_backward(stack, mlp_forward(stack, x), g)
    d_in = d_in.copy()  # a stack buffer, which the next backward step rewrites
    acts = mlp_forward(stack, x)
    lean, no_input = mlp_backward(stack, acts, g, GradBuffer(stack), input_grad=False)
    assert no_input is None
    only_input = mlp_input_grad(stack, acts, g)
    for k, (net, block, rows_k) in enumerate(zip(nets, stack.blocks, rows)):
        assert np.array_equal(stack.nets[k].flat, net.flat)
        assert np.shares_memory(stack.nets[k].flat, stack.flat)
        alone = mlp_forward(net, x[block])
        assert len(alone[0]) == rows_k
        for a, b in zip(acts, alone):
            assert np.array_equal(a[block], b)
        ref_grads, ref_d_in = mlp_backward(net, alone, g[block])
        for a, b, r in zip(grads[k], lean[k], ref_grads):
            assert np.array_equal(a, r) and np.array_equal(b, r)
        assert np.array_equal(d_in[block], ref_d_in)
        assert np.array_equal(only_input[block], ref_d_in)


def test_stack_gradient_buffer_and_adam_step_cover_every_network():
    rng = RngStream(34, ("stack-adam",))
    nets = [init_mlp([2, 3, 1], ["relu", "sigmoid"], rng.derive(f"n{k}")) for k in range(2)]
    stack = MlpStack(nets, [4, 6])
    buffer = GradBuffer(stack)
    for k, net in enumerate(stack.nets):
        size = net.flat.size
        for view in buffer.arrays[k]:
            assert np.shares_memory(view, buffer.flat[k * size:(k + 1) * size])
    grad = rng.derive("g").normal(size=stack.flat.size)
    state = AdamState.for_params(stack.flat, alpha=0.01)
    alone = [net.flat.copy() for net in nets]
    states = [AdamState.for_params(a, alpha=0.01) for a in alone]
    adam_step(stack.flat, grad, state)
    for k, (net, a, st) in enumerate(zip(stack.nets, alone, states)):
        adam_step(a, grad[k * a.size:(k + 1) * a.size], st)
        assert np.array_equal(net.flat, a)


def test_stack_rejects_mixed_topologies_and_wrong_row_counts():
    rng = RngStream(35, ("stack-bad",))
    a = init_mlp([2, 3, 1], ["relu", "sigmoid"], rng.derive("a"))
    with pytest.raises(ValueError, match="one topology"):
        MlpStack([a, init_mlp([2, 4, 1], ["relu", "sigmoid"], rng.derive("b"))], [2, 2])
    with pytest.raises(ValueError, match="one topology"):
        MlpStack([a, init_mlp([2, 3, 1], ["tanh", "sigmoid"], rng.derive("c"))], [2, 2])
    with pytest.raises(ValueError, match="one row count"):
        MlpStack([a, a], [2])
    stack = MlpStack([a, a], [2, 3])
    with pytest.raises(ValueError, match="5"):
        mlp_forward(stack, np.zeros((4, 2)))
