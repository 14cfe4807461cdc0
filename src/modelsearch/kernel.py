"""Minimal dense numeric core on float64 numpy arrays.

Stacked LSTM forward steps with recorded activations, exact reverse-mode
backprop through unrolled sequences, and a numerically stable softmax.
The LSTM kernel is batch-only: inputs and states are ``(B, d)`` arrays,
and a single sequence is a batch of one row. The forward step never
mutates its inputs; the backward pass adds into gradient arrays the
caller owns.

Gate layout inside the fused ``4H`` dimension is ``[input, forget,
candidate, output]``. Each layer step applies the sigmoid once across the
whole fused ``4H`` row; the input, forget and output gates are views into
that result, and the sigmoid of the candidate column is discarded (the
candidate takes ``tanh`` of its pre-activation instead).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeMismatch


def sigmoid(x: np.ndarray) -> np.ndarray:
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
    """Weights of one LSTM layer: fused input/hidden maps and gate biases."""

    w_x: np.ndarray  # (input_size, 4H)
    w_h: np.ndarray  # (H, 4H)
    b: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[0]

    def __post_init__(self):
        h = self.hidden_size
        if self.w_x.shape[1] != 4 * h or self.w_h.shape != (h, 4 * h) or self.b.shape != (4 * h,):
            raise ShapeMismatch(
                f"inconsistent LSTM layer shapes {self.w_x.shape} {self.w_h.shape} {self.b.shape}"
            )


@dataclass
class LstmStepRecord:
    """Activations of one layer at one timestep, retained for backprop."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    tc: np.ndarray  # tanh(c)

    def take(self, idx) -> "LstmStepRecord":
        """The record restricted to the rows ``idx``; every array is copied once."""
        return LstmStepRecord(*(getattr(self, f.name).take(idx, axis=0) for f in fields(self)))


def _layer_forward(p: LstmLayerParams, x, h_prev, c_prev):
    h = p.hidden_size
    z = x @ p.w_x + h_prev @ p.w_h + p.b
    s = sigmoid(z)
    i = s[..., 0 * h : 1 * h]
    f = s[..., 1 * h : 2 * h]
    g = np.tanh(z[..., 2 * h : 3 * h])
    o = s[..., 3 * h : 4 * h]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    out = o * tc
    return out, c, LstmStepRecord(x, h_prev, c_prev, i, f, g, o, tc)


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
    shaped like layer l's weights; each step's gradient is added into them
    in place. Returns d_inputs, where d_inputs[t] is the gradient at the
    bottom-layer input of step t.
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
            g.w_x[...] += rec.x.T @ dz
            g.w_h[...] += rec.h_prev.T @ dz
            g.b[...] += dz.sum(axis=0)
            dh_carry[l] = dz @ params[l].w_h.T
            d_above = dz @ params[l].w_x.T
        d_inputs[t] = d_above
    return d_inputs
