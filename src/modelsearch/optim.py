"""Parameter-update rules.

Adam-style adaptive updates drive the controller, Adagrad with an L2 term
folded into the gradient drives child networks, and Polyak averaging blends
the actor/critic controller pair at sync boundaries.

Adam, Adagrad and Polyak averaging update the arrays they are given in
place (the weights, and Adam's moments or Adagrad's accumulator) and
return them. Clipping returns a value and leaves its input alone, unless
it is given ``out``. Adam takes its two temporaries from ``scratch`` and
the Polyak blend its one, so a training loop that passes the same arrays
to every step allocates no vector of the weights' size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


@dataclass
class AdamState:
    """Adam's moments and step count."""

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
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, AdamState]:
    """Bias-corrected Adam step; returns (params, state).

    ``params``, ``state.m``, ``state.v`` and ``state.step`` are updated in
    place, and only after the gradient has passed its checks. ``scratch``,
    a ``(2, n)`` array that shares no memory with the others, holds the two
    temporaries; without it they are allocated.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, moments {state.m.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise NonFiniteGradient("gradient contains NaN or inf")
    t = state.step + 1
    tmp, denom = np.empty((2,) + state.m.shape) if scratch is None else scratch
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, in the order the
    # out-of-place expressions evaluate them
    np.multiply(grads, 1.0 - beta1, out=tmp)
    state.m *= beta1
    state.m += tmp
    np.square(grads, out=tmp)
    tmp *= 1.0 - beta2
    state.v *= beta2
    state.v += tmp
    state.step = t
    # params - lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(state.v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(state.m, 1.0 - beta1**t, out=tmp)
    tmp *= learning_rate
    tmp /= denom
    params -= tmp
    return params, state


def adagrad_l2_update(
    params: np.ndarray,
    grads: np.ndarray,
    accumulator: np.ndarray,
    learning_rate: float,
    l2_weight: float,
    eps: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Adagrad step with L2 regularization; returns (params, accumulator).

    The L2 term is folded into the gradient (g_reg = g + l2 * p), the usual
    weight-decay formulation; the regularized gradient is both accumulated
    and applied. ``params`` and ``accumulator`` are updated in place. Every
    operation is elementwise, so one call on a flat vector equals one call
    per array on its slices, bit for bit.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != accumulator.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, accumulator {accumulator.shape}"
        )
    if l2_weight < 0:
        raise ValueError("l2_weight must be non-negative")
    # g = grads + l2 * p, acc += g^2, p -= lr * g / sqrt(acc + eps), each
    # step in the order the out-of-place expressions evaluate it
    g = np.multiply(params, l2_weight)
    g += grads
    tmp = np.square(g)
    accumulator += tmp
    np.add(accumulator, eps, out=tmp)
    np.sqrt(tmp, out=tmp)
    g *= learning_rate
    g /= tmp
    params -= g
    return params, accumulator


def polyak_average(
    weights_a: np.ndarray, weights_b: np.ndarray, keep: float, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Write keep * a + (1 - keep) * b into ``weights_a`` and return it.

    ``scratch``, an array of a's shape that is neither a nor b, holds the
    temporary; without it the temporary is allocated.
    """
    a = np.asarray(weights_a, dtype=np.float64)
    b = np.asarray(weights_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    if not 0.0 <= keep <= 1.0:
        raise ValueError("keep must lie in [0, 1]")
    if keep == 0.0:
        a[...] = b
    elif keep != 1.0:
        # (1 - keep) * b first, so that b may be a itself
        tmp = np.multiply(b, 1.0 - keep, out=scratch)
        a *= keep
        a += tmp
    return a


def clip_global_norm(
    grads: np.ndarray, max_norm: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Scale the flat gradient vector so its L2 norm is at most max_norm.

    A NaN or infinite entry is returned as it is, for the optimizer's check.
    Without ``out`` a gradient that needs no scaling is returned itself and
    a scaled one is a new array; with ``out`` (which may be ``grads``) the
    result is written there, with the same bits.
    """
    norm = float(np.linalg.norm(grads))
    if norm > max_norm and np.isfinite(norm):
        return np.multiply(grads, max_norm / norm, out=out)
    if norm > max_norm:
        # the sum of squares overflowed: clip grads / max|g|, whose norm is
        # at least 1 and finite
        big = float(np.max(np.abs(grads)))
        if np.isfinite(big):
            unit = np.divide(grads, big, out=out)
            unit *= max_norm / float(np.linalg.norm(unit))
            return unit
    if out is None:
        return grads
    out[...] = grads
    return out
