import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelsearch.errors import ShapeMismatch
from modelsearch.kernel import (
    LstmLayerParams,
    LstmRecord,
    Scratch,
    _layer_forward,
    log_softmax,
    lstm_sequence_backward,
    lstm_step_record,
    sigmoid,
    softmax,
)


def make_layers(input_size, hidden, n_layers, rng=None, scale=0.0):
    layers = []
    for l in range(n_layers):
        d = input_size if l == 0 else hidden
        if rng is None:
            w_x = np.zeros((d, 4 * hidden))
            w_h = np.zeros((hidden, 4 * hidden))
            b = np.zeros(4 * hidden)
        else:
            w_x = rng.normal(0, scale, (d, 4 * hidden))
            w_h = rng.normal(0, scale, (hidden, 4 * hidden))
            b = rng.normal(0, scale, 4 * hidden)
        layers.append(LstmLayerParams(np.vstack([w_x, w_h]), b))
    return layers


def zero_grads(layers):
    return [LstmLayerParams(np.zeros_like(p.w), np.zeros_like(p.b)) for p in layers]


def zero_state(n_layers, hidden, batch):
    return [(np.zeros((batch, hidden)), np.zeros((batch, hidden))) for _ in range(n_layers)]


def test_zero_weights_zero_state_gives_zero_output():
    layers = make_layers(3, 4, 2)
    state = zero_state(2, 4, 1)
    out, new_state = lstm_step_record(layers, np.ones((1, 3)), state)
    assert np.allclose(out, 0.0)
    for h, c in new_state:
        assert np.allclose(h, 0.0)
        assert np.allclose(c, 0.0)


def test_zero_weights_nonzero_cell():
    # gates sit at 1/2, candidate at 0: c' = c/2, h' = sigmoid(0)*tanh(c')
    layers = make_layers(2, 1, 1)
    state = [(np.array([[0.3]]), np.array([[2.0]]))]
    out, new_state = lstm_step_record(layers, np.zeros((1, 2)), state)
    h, c = new_state[0]
    assert np.allclose(c, 1.0)
    assert np.allclose(h, 0.5 * np.tanh(1.0))
    assert np.allclose(out, 0.5 * np.tanh(1.0), atol=1e-12)
    assert abs(out[0, 0] - 0.3808) < 1e-4


def test_shape_mismatch_raises():
    layers = make_layers(3, 4, 1)
    state = zero_state(1, 4, 1)
    with pytest.raises(ShapeMismatch):
        lstm_step_record(layers, np.ones((1, 5)), state)
    with pytest.raises(ShapeMismatch):
        lstm_step_record(layers, np.ones((1, 3)), zero_state(2, 4, 1))


def test_unbatched_input_rejected():
    # a 1-D input would broadcast against (1, H) states and give wrong gradients
    layers = make_layers(3, 4, 1)
    with pytest.raises(ShapeMismatch, match=r"\(B, d\) batch"):
        lstm_step_record(layers, np.ones(3), zero_state(1, 4, 1))


def test_misshaped_layer_rejected_at_construction():
    with pytest.raises(ShapeMismatch):  # a fused width that is not 4H
        LstmLayerParams(np.zeros((7, 15)), np.zeros(15))
    with pytest.raises(ShapeMismatch):  # no input rows above the hidden map
        LstmLayerParams(np.zeros((4, 16)), np.zeros(16))
    with pytest.raises(ShapeMismatch):
        LstmLayerParams(np.zeros((7, 16)), np.zeros(12))


# --- bit-exactness against the mask-split, per-gate reference forms ----------


def _sigmoid_mask_split(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sigmoid_by_tanh(v):
    return (1.0 + np.tanh(v / 2.0)) / 2.0


def _layer_forward_per_gate(p, x, h_prev, c_prev):
    h = p.hidden_size
    z = np.concatenate([x, h_prev], axis=1) @ p.w + p.b
    i = _sigmoid_by_tanh(z[..., 0 * h : 1 * h])
    f = _sigmoid_by_tanh(z[..., 1 * h : 2 * h])
    g = np.tanh(z[..., 2 * h : 3 * h])
    o = _sigmoid_by_tanh(z[..., 3 * h : 4 * h])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, c, tc)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64)
    )


SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308]
)


@pytest.mark.parametrize("shape", [(50,), (1, 200), (20, 200)])
def test_sigmoid_matches_mask_split_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1.0, 10.0, 300.0):
        x = rng.normal(0, scale, shape)
        assert _same_bits(sigmoid(x), _sigmoid_mask_split(x))
        cols = x[..., 10:30]  # non-contiguous for 2-D shapes
        assert _same_bits(sigmoid(cols), _sigmoid_mask_split(cols))
        strided = x[..., ::3]
        assert _same_bits(sigmoid(strided), _sigmoid_mask_split(strided))


def test_sigmoid_matches_mask_split_on_special_values():
    assert _same_bits(sigmoid(SPECIAL_VALUES), _sigmoid_mask_split(SPECIAL_VALUES))
    grid = np.tile(SPECIAL_VALUES, (3, 1))[:, ::2]
    assert _same_bits(sigmoid(grid), _sigmoid_mask_split(grid))


@pytest.mark.parametrize("batch", [1, 20])
def test_fused_layer_forward_matches_per_gate_bitwise(batch):
    rng = np.random.default_rng(11)
    (layer,) = make_layers(6, 5, 1, rng, scale=2.0)
    x = rng.normal(0, 1, (batch, 6))
    h_prev, c_prev = rng.normal(0, 1, (batch, 5)), rng.normal(0, 1, (batch, 5))
    record = LstmRecord.empty(layer, 1, batch)
    out, c = _layer_forward(layer, x, h_prev, c_prev, record.step(0))
    ref_out, ref_c, (i, f, g, o, _, tc) = _layer_forward_per_gate(layer, x, h_prev, c_prev)
    assert _same_bits(out, ref_out) and _same_bits(c, ref_c)
    gates = record.z[0].reshape(batch, 4, 5).transpose(1, 0, 2)
    for got, want in zip((*gates, record.tc[0]), (i, f, g, o, tc)):
        assert _same_bits(got, want)
    assert _same_bits(record.xh[0], np.hstack([x, h_prev]))
    assert _same_bits(record.c[0], c_prev) and _same_bits(record.c[1], c)
    # an unrecorded step takes the same arithmetic
    free_out, free_c = _layer_forward(layer, x, h_prev, c_prev, None)
    assert _same_bits(free_out, out) and _same_bits(free_c, c)


def _sequence_loss(layers, inputs, probe):
    """Scalar probe of a full unrolled batch-1 run: sum_t probe[t] . h_top[t]."""
    state = zero_state(len(layers), layers[0].hidden_size, 1)
    total = 0.0
    records = [LstmRecord.empty(p, len(inputs), 1) for p in layers]
    for t, x in enumerate(inputs):
        out, state = lstm_step_record(layers, x, state, [r.step(t) for r in records])
        total += float(probe[t][0] @ out[0])
    return total, records


def test_a_scratch_grows_after_an_overflow_and_then_lends_its_buffer():
    work = Scratch()
    first = work.clear().empty((3, 4))
    assert work.used == 12 > work.buffer.size
    assert not np.shares_memory(first, work.buffer)
    work.clear()
    assert work.buffer.size == 24
    buffer = work.buffer
    for _ in range(2):
        a, b = work.empty((3, 4)), work.empty((5,))
        assert np.shares_memory(a, buffer) and np.shares_memory(b, buffer)
        assert not np.shares_memory(a, b)
        assert work.clear().buffer is buffer
    work.empty((30,))
    assert work.clear().buffer.size == 60


def test_sequence_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    hidden, steps, input_size = 4, 5, 3
    layers = make_layers(input_size, hidden, 2, rng, scale=0.4)
    inputs = [rng.normal(0, 1, (1, input_size)) for _ in range(steps)]
    probe = [rng.normal(0, 1, (1, hidden)) for _ in range(steps)]

    _, records = _sequence_loss(layers, inputs, probe)
    grads = zero_grads(layers)
    d_inputs = lstm_sequence_backward(layers, records, probe, grads)

    h = 1e-5
    for l, layer in enumerate(layers):
        g_l = grads[l]
        for arr, g in zip((layer.w_x, layer.w_h, layer.b), (g_l.w_x, g_l.w_h, g_l.b)):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            idx = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                up, _ = _sequence_loss(layers, inputs, probe)
                flat[i] = orig - h
                dn, _ = _sequence_loss(layers, inputs, probe)
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                assert abs(gflat[i] - fd) / max(abs(fd), 1e-6) < 1e-4

    # input gradients too
    for t in range(steps):
        for i in range(input_size):
            orig = inputs[t][0, i]
            inputs[t][0, i] = orig + h
            up, _ = _sequence_loss(layers, inputs, probe)
            inputs[t][0, i] = orig - h
            dn, _ = _sequence_loss(layers, inputs, probe)
            inputs[t][0, i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(d_inputs[t][0, i] - fd) / max(abs(fd), 1e-6) < 1e-4


def test_zero_output_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(6)
    layers = make_layers(3, 4, 2, rng, scale=0.3)
    inputs = [rng.normal(0, 1, (1, 3)) for _ in range(3)]
    probe = [np.zeros((1, 4)) for _ in range(3)]
    _, records = _sequence_loss(layers, inputs, probe)
    grads = zero_grads(layers)
    d_inputs = lstm_sequence_backward(layers, records, probe, grads)
    for g in grads:
        assert np.all(g.w_x == 0) and np.all(g.w_h == 0) and np.all(g.b == 0)
    assert all(np.all(d == 0) for d in d_inputs)


def test_one_step_sequence_equals_single_step_backward():
    rng = np.random.default_rng(7)
    layers = make_layers(3, 4, 2, rng, scale=0.3)
    x = rng.normal(0, 1, (1, 3))
    probe = rng.normal(0, 1, (1, 4))
    _, records = _sequence_loss(layers, [x], [probe])
    grads_seq = zero_grads(layers)
    lstm_sequence_backward(layers, records, [probe], grads_seq)
    _, records2 = _sequence_loss(layers, [x], [probe])
    grads_one = zero_grads(layers)
    lstm_sequence_backward(layers, records2, [probe], grads_one)
    for a, b in zip(grads_seq, grads_one):
        for ga, gb in ((a.w_x, b.w_x), (a.w_h, b.w_h), (a.b, b.b)):
            assert np.array_equal(ga, gb)


def test_softmax_basics():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    p = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all()
    assert p[0] > 0.999999 and p[1] < 1e-6


def test_softmax_sums_to_one_and_log_consistency():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 10, size=(5, 7))
    p = softmax(x)
    assert np.all(np.abs(p.sum(axis=-1) - 1.0) < 1e-9)
    assert np.allclose(np.log(p), log_softmax(x), atol=1e-12)


@settings(max_examples=100)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(logits, shift):
    x = np.array(logits)
    assert np.allclose(softmax(x), softmax(x + shift), atol=1e-12)
