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
