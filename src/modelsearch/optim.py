"""Parameter-update rules, all pure: they return new arrays and new state.

Adam-style adaptive updates drive the controller, Adagrad with an L2 term
folded into the gradient drives child networks, and Polyak averaging blends
the actor/critic controller pair at sync boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adaptive_update(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """Bias-corrected Adam step; returns (new params, new state)."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, moments {state.m.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise NonFiniteGradient("gradient contains NaN or inf")
    t = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_params = params - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m=m, v=v, step=t)


def adagrad_l2_update(
    params: np.ndarray,
    grads: np.ndarray,
    accumulator: np.ndarray,
    learning_rate: float,
    l2_weight: float,
    eps: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Adagrad step with L2 regularization.

    The L2 term is folded into the gradient (g_reg = g + l2 * p), the usual
    weight-decay formulation; the regularized gradient is both accumulated
    and applied. Every operation is elementwise, so one call on a flat
    vector equals one call per array on its slices, bit for bit.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != accumulator.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, accumulator {accumulator.shape}"
        )
    if l2_weight < 0:
        raise ValueError("l2_weight must be non-negative")
    g = grads + l2_weight * params
    acc = accumulator + g**2
    new_params = params - learning_rate * g / np.sqrt(acc + eps)
    return new_params, acc


def polyak_average(weights_a: np.ndarray, weights_b: np.ndarray, keep: float) -> np.ndarray:
    """Elementwise keep * a + (1 - keep) * b."""
    a = np.asarray(weights_a, dtype=np.float64)
    b = np.asarray(weights_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    if not 0.0 <= keep <= 1.0:
        raise ValueError("keep must lie in [0, 1]")
    if keep == 1.0:
        return a.copy()
    if keep == 0.0:
        return b.copy()
    return keep * a + (1.0 - keep) * b


def clip_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the flat gradient vector so its L2 norm is at most max_norm."""
    norm = float(np.linalg.norm(grads))
    if norm <= max_norm or norm == 0.0:
        return grads
    return grads * (max_norm / norm)
