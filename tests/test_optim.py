import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelsearch.errors import NonFiniteGradient, ShapeMismatch
from modelsearch.optim import (
    AdamState,
    adagrad_l2_update,
    adaptive_update,
    clip_global_norm,
    polyak_average,
)


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    p2, state2 = adaptive_update(p, np.zeros(3), state, 0.01)
    assert np.array_equal(p2, p)
    assert state2.step == 1


def test_adam_single_step_hand_computed():
    # m_hat = g, v_hat = g^2 after bias correction, so step = -lr*g/(|g|+eps)
    p = np.array([0.0])
    g = np.array([1.0])
    p2, _ = adaptive_update(p, g, AdamState.zeros(1), 1e-3)
    assert abs(p2[0] - (-1e-3)) < 1e-9


def test_adam_rejects_nan_and_shape_mismatch():
    with pytest.raises(NonFiniteGradient):
        adaptive_update(np.zeros(2), np.array([np.nan, 0.0]), AdamState.zeros(2), 0.01)
    with pytest.raises(ShapeMismatch):
        adaptive_update(np.zeros(2), np.zeros(3), AdamState.zeros(2), 0.01)


def test_adam_rejected_gradient_leaves_state_untouched():
    rng = np.random.default_rng(2)
    state = AdamState.zeros(4)
    p, state = adaptive_update(rng.normal(0, 1, 4), rng.normal(0, 1, 4), state, 0.01)
    m, v = state.m.copy(), state.v.copy()
    for bad in (np.nan, np.inf):
        g = rng.normal(0, 1, 4)
        g[2] = bad
        with pytest.raises(NonFiniteGradient):
            adaptive_update(p, g, state, 0.01)
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert state.step == 1


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_in_place_updates_match_out_of_place_formulas_bitwise():
    # the out-of-place expressions below are the reference the in-place
    # updates must reproduce bit for bit
    rng = np.random.default_rng(3)
    n, lr, l2 = 257, 0.05, 0.001
    p_adam, p_ada = rng.normal(0, 1, n), rng.normal(0, 1, n)
    ref_adam, ref_ada = p_adam.copy(), p_ada.copy()
    state = AdamState.zeros(n)
    m, v, acc, ref_acc = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for t in range(1, 31):
        g = rng.normal(0, 10, n)
        m_buf, v_buf = state.m, state.v
        p_adam, state = adaptive_update(p_adam, g, state, lr)
        assert state.m is m_buf and state.v is v_buf
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g**2
        m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
        ref_adam = ref_adam - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(_bits(p_adam), _bits(ref_adam))
        assert np.array_equal(_bits(state.m), _bits(m))
        assert np.array_equal(_bits(state.v), _bits(v))

        out, out_acc = adagrad_l2_update(p_ada, g, acc, lr, l2)
        assert out is p_ada and out_acc is acc
        g_reg = g + l2 * ref_ada
        ref_acc = ref_acc + g_reg**2
        ref_ada = ref_ada - lr * g_reg / np.sqrt(ref_acc + 1e-10)
        assert np.array_equal(_bits(p_ada), _bits(ref_ada))
        assert np.array_equal(_bits(acc), _bits(ref_acc))


def test_adam_with_scratch_gives_the_same_bits_and_allocates_nothing():
    rng = np.random.default_rng(8)
    n = 50_000  # 400 KB per vector: one allocated temporary would show
    params = rng.normal(0, 1, n)
    state, ref_params, ref_state = AdamState.zeros(n), params.copy(), AdamState.zeros(n)
    scratch = np.empty((2, n))
    for _ in range(3):
        g = rng.normal(0, 1, n)
        adaptive_update(ref_params, g, ref_state, 0.01)
        tracemalloc.start()
        try:
            adaptive_update(params, g, state, 0.01, scratch=scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert params.tobytes() == ref_params.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()
        assert state.step == ref_state.step


def test_adam_updates_the_weights_it_is_given():
    rng = np.random.default_rng(5)
    n, lr = 64, 0.01
    p = rng.normal(0, 1, n)
    state = AdamState.zeros(n)
    m, v = np.zeros(n), np.zeros(n)
    for t in (1, 2, 3):
        g = rng.normal(0, 1, n)
        before = p.copy()
        out, state = adaptive_update(p, g, state, lr)
        assert out is p
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g**2
        m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
        expected = before - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(_bits(p), _bits(expected))


def test_adam_rejected_gradient_leaves_the_weights_untouched():
    rng = np.random.default_rng(6)
    p = rng.normal(0, 1, 4)
    before = p.copy()
    for bad in (np.nan, np.inf, -np.inf):
        g = rng.normal(0, 1, 4)
        g[1] = bad
        with pytest.raises(NonFiniteGradient):
            adaptive_update(p, g, AdamState.zeros(4), 0.01)
    assert np.array_equal(_bits(p), _bits(before))


def test_adam_stays_finite():
    rng = np.random.default_rng(0)
    p = rng.normal(0, 1, 10)
    state = AdamState.zeros(10)
    for _ in range(50):
        g = rng.normal(0, 100, 10)
        p, state = adaptive_update(p, g, state, 0.1)
    assert np.all(np.isfinite(p))


def test_adagrad_zero_gradient_no_l2_keeps_params():
    p = np.array([1.0, 2.0])
    acc = np.zeros(2)
    p2, acc2 = adagrad_l2_update(p, np.zeros(2), acc, 0.1, 0.0)
    assert np.array_equal(p2, p)
    assert np.array_equal(acc2, np.zeros(2))


def test_adagrad_hand_computed_step():
    p2, acc2 = adagrad_l2_update(np.array([1.0]), np.array([1.0]), np.zeros(1), 0.1, 0.0)
    assert abs(p2[0] - 0.9) < 1e-9
    assert np.allclose(acc2, [1.0])


def test_adagrad_l2_shrinks_toward_zero():
    # g = 0 but l2 > 0: regularized gradient l2*p pulls p down, never past 0
    p = np.array([1.0])
    acc = np.zeros(1)
    p2, _ = adagrad_l2_update(p, np.zeros(1), acc, 0.1, 0.01)
    # hand-computed: g_reg = 0.01, acc = 1e-4, step = 0.1*0.01/sqrt(1e-4+1e-10)
    expected = 1.0 - 0.1 * 0.01 / np.sqrt(1e-4 + 1e-10)
    assert abs(p2[0] - expected) < 1e-12
    assert 0.0 < p2[0] < 1.0


def test_adagrad_stays_finite():
    rng = np.random.default_rng(1)
    p = rng.normal(0, 1, 8)
    acc = np.zeros(8)
    for _ in range(50):
        p, acc = adagrad_l2_update(p, rng.normal(0, 10, 8), acc, 0.5, 0.001)
    assert np.all(np.isfinite(p))
    assert np.all(acc >= 0)


def test_polyak_endpoints_and_midpoint():
    a = np.array([1.0, 2.0])
    b = np.array([0.0, -2.0])
    assert np.array_equal(polyak_average(a, b, 1.0), a)
    assert np.array_equal(polyak_average(a, b, 0.0), b)
    assert np.allclose(polyak_average(np.array([1.0]), np.array([0.0]), 0.9), [0.9])
    with pytest.raises(ShapeMismatch):
        polyak_average(np.zeros(2), np.zeros(3), 0.5)


@pytest.mark.parametrize("keep", [0.0, 0.3, 0.9, 1.0])
def test_polyak_writes_into_its_first_argument(keep):
    rng = np.random.default_rng(7)
    a, b = rng.normal(0, 1, 33), rng.normal(0, 1, 33)
    a0, b0 = a.copy(), b.copy()
    assert polyak_average(a, b, keep) is a
    assert np.array_equal(_bits(a), _bits(keep * a0 + (1.0 - keep) * b0))
    assert np.array_equal(_bits(b), _bits(b0))
    # the blend of a with itself reads a before writing it
    a1 = a.copy()
    assert polyak_average(a, a, keep) is a
    assert np.array_equal(_bits(a), _bits(keep * a1 + (1.0 - keep) * a1))


@pytest.mark.parametrize("keep", [0.0, 0.3, 1.0])
def test_polyak_with_scratch_gives_the_same_bits(keep):
    rng = np.random.default_rng(9)
    a, b = rng.normal(0, 1, 33), rng.normal(0, 1, 33)
    want = polyak_average(a.copy(), b, keep)
    scratch = np.full(33, np.nan)
    assert polyak_average(a, b, keep, scratch) is a
    assert np.array_equal(_bits(a), _bits(want))
    a1 = a.copy()
    polyak_average(a, a, keep, scratch)
    assert np.array_equal(_bits(a), _bits(polyak_average(a1, a1, keep)))


@settings(max_examples=50)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.floats(0, 1),
)
def test_polyak_idempotent_on_equal_inputs(values, keep):
    a = np.array(values)
    assert np.allclose(polyak_average(a, a, keep), a, rtol=1e-12, atol=1e-6)


def test_clip_global_norm():
    g = np.array([3.0, 4.0])  # norm 5
    assert np.array_equal(clip_global_norm(g, 10.0), g)
    clipped = clip_global_norm(g, 1.0)
    assert abs(np.linalg.norm(clipped) - 1.0) < 1e-12
    assert np.allclose(clipped, g / 5.0)


def test_clip_global_norm_of_a_gradient_whose_squares_overflow():
    g = np.array([1e200, -1e200, 3.0])  # the sum of squares is 2e400
    with np.errstate(over="ignore"):
        clipped = clip_global_norm(g, 5.0)
    assert abs(np.linalg.norm(clipped) - 5.0) < 1e-12
    assert np.allclose(clipped, np.array([1.0, -1.0, 3e-200]) * (5.0 / np.sqrt(2.0)), rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_global_norm_leaves_a_non_finite_entry_for_adam(bad):
    g = np.array([1e200, bad, 3.0])
    with np.errstate(over="ignore", invalid="ignore"):
        clipped = clip_global_norm(g, 5.0)
    params = np.zeros(3)
    with pytest.raises(NonFiniteGradient):
        adaptive_update(params, clipped, AdamState.zeros(3), 0.01)
    assert np.array_equal(params, np.zeros(3))


@pytest.mark.parametrize(
    "g, max_norm",
    [
        ([3.0, 4.0], 10.0),  # no scaling
        ([3.0, 4.0], 1.0),  # scaled
        ([1e200, -1e200, 3.0], 5.0),  # the sum of squares overflows
        ([1e200, np.nan, 3.0], 5.0),  # left for Adam's check
    ],
)
def test_clip_global_norm_into_out_gives_the_same_bits(g, max_norm):
    g = np.array(g)
    with np.errstate(over="ignore", invalid="ignore"):
        want = clip_global_norm(g.copy(), max_norm).copy()
        out = np.empty_like(g)
        assert clip_global_norm(g, max_norm, out=out) is out
        assert np.array_equal(_bits(out), _bits(want))
        assert clip_global_norm(g, max_norm, out=g) is g
    assert np.array_equal(_bits(g), _bits(want))
