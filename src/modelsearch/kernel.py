"""Minimal dense numeric core on float64 numpy arrays.

Stacked LSTM forward steps with recorded activations, exact reverse-mode
backprop through unrolled sequences, and a numerically stable softmax.
The LSTM kernel is batch-only: inputs and states are ``(B, d)`` arrays,
and a single sequence is a batch of one row. The forward step never
mutates its inputs; the backward pass adds into gradient arrays the
caller owns.

A layer's weights are one stacked ``(input_size + H, 4H)`` block ``w``,
the input map ``w_x`` directly above the hidden map ``w_h``, so a step
takes one product ``[x, h_prev] @ w``. Gate layout inside the fused ``4H``
dimension is ``[input, forget, candidate, output]``. Every gate comes
from one ``tanh`` over the whole row, through
``sigmoid(v) = (1 + tanh(v / 2)) / 2``: the input, forget and output
columns are halved before the ``tanh`` and mapped to ``(1 + t) / 2``
after it, while the candidate column keeps ``tanh`` of its
pre-activation. ``tanh`` never overflows, so neither does a gate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The exact logistic function; the LSTM step gets its gates from tanh."""
    # exp of -|x| never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.
    # minimum(x, -x) rather than -abs(x) keeps the sign bit of a NaN input;
    # the in-place steps keep the temporaries to two arrays of x's size.
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    s = np.where(x >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis; max-subtracted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class LstmLayerParams:
    """Weights of one LSTM layer: the stacked input/hidden maps and gate biases."""

    w: np.ndarray  # (input_size + H, 4H): w_x's rows above w_h's
    b: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[0] - self.hidden_size

    @property
    def w_x(self) -> np.ndarray:
        return self.w[: self.input_size]

    @property
    def w_h(self) -> np.ndarray:
        return self.w[self.input_size :]

    def __post_init__(self):
        w, b = self.w, self.b
        if w.ndim != 2 or w.shape[1] % 4 or w.shape[0] <= w.shape[1] // 4 or b.shape != w.shape[1:]:
            raise ShapeMismatch(f"inconsistent LSTM layer shapes {w.shape} {b.shape}")


@dataclass(slots=True)
class LstmStepRecord:
    """Activations of one layer at one timestep, retained for backprop."""

    xh: np.ndarray  # [x, h_prev]
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tc: np.ndarray  # tanh(c)

    def take(self, idx) -> "LstmStepRecord":
        """The record restricted to the rows ``idx``; every array is copied once."""
        return LstmStepRecord(*(getattr(self, n).take(idx, axis=0) for n in self.__slots__))


@functools.lru_cache
def _gate_rows(h: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column scale and offset of the fused row: 1/2 and 1/2 on the
    sigmoid gates; 1 and -0.0 on the candidate, where ``t * 1 + -0.0`` is
    ``t`` bit for bit."""
    scale = np.full(4 * h, 0.5)
    offset = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    offset[2 * h : 3 * h] = -0.0
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _layer_forward(p: LstmLayerParams, x, h_prev, c_prev):
    h = p.hidden_size
    scale, offset = _gate_rows(h)
    xh = np.concatenate([x, h_prev], axis=1)
    z = xh @ p.w
    z += p.b
    # halve the sigmoid columns, tanh the row, then (1 + t) / 2 as t/2 + 1/2;
    # every gate stays a view of this one array
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += offset
    i = z[:, 0 * h : 1 * h]
    f = z[:, 1 * h : 2 * h]
    g = z[:, 2 * h : 3 * h]
    o = z[:, 3 * h : 4 * h]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    out = o * tc
    return out, c, LstmStepRecord(xh, c_prev, i, f, g, o, tc)


def lstm_step_record(params, x: np.ndarray, state):
    """One forward step of a ``(B, d)`` batch through the layer stack.

    ``state`` holds one ``(h, c)`` pair of ``(B, H)`` arrays per layer.
    Layer l's hidden output feeds layer l+1's input. Returns (top h, the
    new list of pairs, one LstmStepRecord per layer) for
    lstm_sequence_backward.
    """
    params = list(params)
    if len(params) != len(state):
        raise ShapeMismatch("state has a different number of layers than params")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"input must be a (B, d) batch, got shape {x.shape}")
    if x.shape[-1] != params[0].input_size:
        raise ShapeMismatch(
            f"input size {x.shape[-1]} != expected {params[0].input_size}"
        )
    records = []
    new_layers = []
    inp = x
    for p, (h_prev, c_prev) in zip(params, state):
        if h_prev.shape[-1] != p.hidden_size:
            raise ShapeMismatch("state width does not match hidden size")
        out, c, rec = _layer_forward(p, inp, h_prev, c_prev)
        records.append(rec)
        new_layers.append((out, c))
        inp = out
    return inp, new_layers, records


def lstm_sequence_backward(params, records, d_outputs, grads):
    """Reverse-mode accumulation through a recorded unrolled sequence.

    ``records[t][l]`` is layer l's LstmStepRecord at step t as produced by
    lstm_step_record; ``d_outputs[t]`` is the loss gradient at the top-layer
    output of step t. ``grads[l]`` is an LstmLayerParams of gradient arrays
    shaped like layer l's weights, the stacked block as one array; each
    step's gradient is added into them in place. Returns d_inputs, where
    d_inputs[t] is the gradient at the bottom-layer input of step t.
    """
    params = list(params)
    n_layers = len(params)
    steps = len(records)
    if len(d_outputs) != steps:
        raise ShapeMismatch("one output gradient required per recorded step")

    dh_carry = [None] * n_layers
    dc_carry = [None] * n_layers
    d_inputs = [None] * steps

    for t in reversed(range(steps)):
        d_above = np.asarray(d_outputs[t], dtype=np.float64)
        for l in reversed(range(n_layers)):
            rec = records[t][l]
            dh = d_above if dh_carry[l] is None else d_above + dh_carry[l]
            dc = dh * rec.o * (1.0 - rec.tc**2)
            if dc_carry[l] is not None:
                dc = dc + dc_carry[l]
            do = dh * rec.tc
            di = dc * rec.g
            dg = dc * rec.i
            df = dc * rec.c_prev
            dc_carry[l] = dc * rec.f
            dz = np.concatenate(
                [
                    di * rec.i * (1.0 - rec.i),
                    df * rec.f * (1.0 - rec.f),
                    dg * (1.0 - rec.g**2),
                    do * rec.o * (1.0 - rec.o),
                ],
                axis=-1,
            )
            g = grads[l]
            g.w[...] += rec.xh.T @ dz
            g.b[...] += dz.sum(axis=0)
            # two input products: on OpenBLAS one (B, 4H) @ (4H, input_size + H)
            # product leaves the small-matrix kernels at B = 16 and takes longer
            dh_carry[l] = dz @ params[l].w_h.T
            d_above = dz @ params[l].w_x.T
        d_inputs[t] = d_above
    return d_inputs
