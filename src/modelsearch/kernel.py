"""Minimal dense numeric core on float64 numpy arrays.

Stacked LSTM forward steps with recorded activations, exact reverse-mode
backprop through unrolled sequences, and a numerically stable softmax.
The LSTM kernel is batch-only: inputs and states are ``(B, d)`` arrays,
and a single sequence is a batch of one row. The forward step never
mutates its inputs; the backward pass writes into gradient arrays the
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

A recorded pass keeps one LstmRecord per layer, stored sequence-major:
``[x, h_prev]`` as ``(T, B, input_size + H)``, the gate row as
``(T, B, 4H)``, the cell as ``(T + 1, B, H)`` with row 0 the initial
cell, and ``tanh(c)`` as ``(T, B, H)``. The forward step still runs one
step at a time and writes step t of each record through ``out``; with or
without it the step takes the same arithmetic. The backward runs layer
by layer over those records (see lstm_sequence_backward), so its sums
agree with a step-by-step backward's to rounding, not bit for bit.

Any function that takes ``work`` (a Scratch) or ``empty`` draws its
working arrays and results from it; without one it allocates them. A
Scratch starts empty and grows to what its users draw, so no caller
sizes one.
"""

from __future__ import annotations

import functools
import math
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


class Scratch:
    """One float64 buffer lent out as consecutive C-contiguous arrays.

    ``empty(shape)`` stands in for ``np.empty(shape)``: it returns the next
    unused block of the buffer, or a new array once the buffer is used up.
    ``clear()`` takes every block back, so the next user overwrites what
    the last one left there. ``used`` counts every float asked for since,
    so ``used > buffer.size`` shows that some array was allocated. A new
    Scratch holds nothing; the clear after such a use replaces the buffer
    with a larger one, so a scratch sizes itself to what its users draw.
    """

    def __init__(self):
        self.buffer = np.empty(0)
        self.used = 0

    def clear(self) -> "Scratch":
        if self.used > self.buffer.size:
            # twice the need, so a slightly larger later use still fits: each
            # regrowth leaves a freed block in the heap, and growing to the
            # exact need regrew often enough that this raised the peak RSS
            # of later searches in the process; untouched pages cost no RSS
            self.buffer = np.empty(2 * self.used)
        self.used = 0
        return self

    def empty(self, shape) -> np.ndarray:
        start, self.used = self.used, self.used + math.prod(shape)
        if self.used > self.buffer.size:
            return np.empty(shape)
        return self.buffer[start : self.used].reshape(shape)


def take_into(a: np.ndarray, idx: np.ndarray, axis: int, empty=np.empty) -> np.ndarray:
    """``a.take(idx, axis)`` written into an array from ``empty``.

    ``idx`` must hold valid indices: mode "clip" skips the bounds check,
    which would buffer the whole result.
    """
    shape = list(a.shape)
    shape[axis] = len(idx)
    return a.take(idx, axis=axis, out=empty(tuple(shape)), mode="clip")


@dataclass(slots=True)
class LstmStepRecord:
    """Where one layer's forward step writes its activations: step t of an
    LstmRecord, as ``record.step(t)`` gives it."""

    xh: np.ndarray  # (B, input_size + H): [x, h_prev]
    z: np.ndarray  # (B, 4H): the gates i, f, g, o
    c_prev: np.ndarray  # (B, H)
    c: np.ndarray  # (B, H)
    tc: np.ndarray  # (B, H): tanh(c)


@dataclass(slots=True)
class LstmRecord:
    """One layer's activations over a whole sequence, stored sequence-major."""

    xh: np.ndarray  # (T, B, input_size + H): [x, h_prev] of every step
    z: np.ndarray  # (T, B, 4H): the gates i, f, g, o
    c: np.ndarray  # (T + 1, B, H): the cells; row 0 is the initial cell
    tc: np.ndarray  # (T, B, H): tanh(c[1:])

    @classmethod
    def empty(cls, p: LstmLayerParams, steps: int, batch: int, empty=np.empty) -> "LstmRecord":
        """An unwritten record of layer ``p``, in arrays from ``empty``."""
        h = p.hidden_size
        return cls(
            empty((steps, batch, p.w.shape[0])),
            empty((steps, batch, 4 * h)),
            empty((steps + 1, batch, h)),
            empty((steps, batch, h)),
        )

    def step(self, t: int) -> LstmStepRecord:
        return LstmStepRecord(self.xh[t], self.z[t], self.c[t], self.c[t + 1], self.tc[t])

    def take(self, idx, empty=np.empty) -> "LstmRecord":
        """The record restricted to the batch rows ``idx``, one take per array."""
        return LstmRecord(*(take_into(getattr(self, n), idx, 1, empty) for n in self.__slots__))


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


def _layer_forward(p: LstmLayerParams, x, h_prev, c_prev, out: LstmStepRecord | None):
    h = p.hidden_size
    scale, offset = _gate_rows(h)
    xh = z = c = tc = None
    if out is not None:
        xh, z, c, tc = out.xh, out.z, out.c, out.tc
        # after step 0, c_prev is already the record's own row t
        out.c_prev[...] = c_prev
    xh = np.concatenate([x, h_prev], axis=1, out=xh)
    z = np.matmul(xh, p.w, out=z)
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
    # c = f * c_prev + i * g
    c = np.multiply(f, c_prev, out=c)
    c += i * g
    tc = np.tanh(c, out=tc)
    return o * tc, c


def lstm_step_record(params, x: np.ndarray, state, out=None):
    """One forward step of a ``(B, d)`` batch through the layer stack.

    ``state`` holds one ``(h, c)`` pair of ``(B, H)`` arrays per layer.
    Layer l's hidden output feeds layer l+1's input. Returns (top h, the
    new list of pairs). ``out`` is None or one LstmStepRecord per layer,
    ``record.step(t)`` of each layer's LstmRecord; the step's activations
    are then written there, by the same arithmetic.
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
    slots = [None] * len(params) if out is None else out
    if len(slots) != len(params):
        raise ShapeMismatch("out has a different number of layers than params")
    new_layers = []
    inp = x
    for p, (h_prev, c_prev), slot in zip(params, state, slots):
        if h_prev.shape[-1] != p.hidden_size:
            raise ShapeMismatch("state width does not match hidden size")
        inp, c = _layer_forward(p, inp, h_prev, c_prev, slot)
        new_layers.append((inp, c))
    return inp, new_layers


def lstm_sequence_backward(params, records, d_outputs, grads, work: Scratch | None = None):
    """Reverse-mode gradients through a recorded unrolled sequence.

    ``records[l]`` is layer l's LstmRecord over T steps, as the forward
    steps wrote it; ``d_outputs`` holds the loss gradient at the top-layer
    output of each step, ``(T, B, H)``. ``grads[l]`` is an LstmLayerParams
    of arrays shaped like layer l's weights; layer l's gradient is written
    into them. Returns d_inputs, ``(T, B, input_size)``: the gradient at the
    bottom-layer input of each step. Its working arrays and d_inputs come
    from ``work`` when it is given.

    The layers go top-down. Per layer, three arrays over all T steps come
    first: the gate-derivative row D, which is s(1 - s) on the sigmoid
    gates and 1 - g^2 on the candidate; the partner row
    Q = [g, c_prev, i, tanh c] * D; and A = o (1 - tanh^2 c). The loop
    over steps then carries dh and dc back through time, turning Q into
    dZ = [dc, dc, dc, dh] * Q in place. One weight product
    ``[x, h_prev]^T dZ`` over all T * B rows, one bias sum and one input
    product ``dZ w_x^T`` finish the layer. These sums run in another order
    than a step-by-step backward's, so the two agree to rounding, about
    1e-15 relative, not bit for bit.
    """
    params = list(params)
    d_above = np.asarray(d_outputs, dtype=np.float64)
    if len(records) != len(params):
        raise ShapeMismatch("one record required per layer")
    if d_above.ndim != 3 or d_above.shape[:2] != records[-1].tc.shape[:2]:
        raise ShapeMismatch("one output gradient required per recorded step and row")
    steps, batch = d_above.shape[:2]
    n = steps * batch
    empty = np.empty if work is None else work.empty
    width = max(p.hidden_size for p in params)
    q_all = empty((n * 4 * width,))
    a_all = empty((n * width,))

    for p, rec, g in reversed(list(zip(params, records, grads))):
        h = p.hidden_size
        z = rec.z
        f = z[..., h : 2 * h]
        q = q_all[: n * 4 * h].reshape(steps, batch, 4, h)
        a = a_all[: n * h].reshape(steps, batch, h)
        gates = z.reshape(steps, batch, 4, h)
        # D, then Q = [g, c_prev, i, tanh c] * D
        np.subtract(1.0, z, out=q.reshape(steps, batch, 4 * h))
        q *= gates
        np.square(gates[:, :, 2], out=q[:, :, 2])
        np.subtract(1.0, q[:, :, 2], out=q[:, :, 2])
        q[:, :, 0] *= gates[:, :, 2]
        q[:, :, 1] *= rec.c[:-1]
        q[:, :, 2] *= gates[:, :, 0]
        q[:, :, 3] *= rec.tc
        # A = o (1 - tanh^2 c)
        np.square(rec.tc, out=a)
        np.subtract(1.0, a, out=a)
        a *= gates[:, :, 3]

        w_h_t = p.w_h.T
        dh_carry = dc_carry = None
        for t in reversed(range(steps)):
            dh = d_above[t] if dh_carry is None else d_above[t] + dh_carry
            dc = dh * a[t]
            if dc_carry is not None:
                dc += dc_carry
            dz = q[t]
            dz[:, :3] *= dc[:, None]
            dz[:, 3] *= dh
            if t:
                dc_carry = dc * f[t]
                dh_carry = dz.reshape(batch, 4 * h) @ w_h_t
        dz = q.reshape(n, 4 * h)
        np.matmul(rec.xh.reshape(n, -1).T, dz, out=g.w)
        np.add.reduce(dz, axis=0, out=g.b)
        d_above = np.matmul(dz, p.w_x.T, out=empty((n, p.input_size)))
        d_above = d_above.reshape(steps, batch, p.input_size)
    return d_above
