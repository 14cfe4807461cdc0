"""Flat parameter storage: many named arrays backed by one float64 vector.

Keeping every learnable weight in a single contiguous vector makes the
optimizer updates, Polyak blending, gradient clipping, checkpointing and
finite-difference checks one-liners. Named views are created on first use,
kept, and share memory with the flat vector: the vector is only ever
written in place, so a kept view never goes stale.
"""

from __future__ import annotations

import numpy as np


class ParamLayout:
    """Ordered (name, shape) declarations with offsets into a flat vector."""

    def __init__(self, entries):
        self.entries = [(str(n), tuple(int(d) for d in s)) for n, s in entries]
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in layout")
        self.offsets = {}
        off = 0
        for name, shape in self.entries:
            size = int(np.prod(shape)) if shape else 1
            self.offsets[name] = (off, off + size, shape)
            off += size
        self.total_size = off

    def names(self):
        return [n for n, _ in self.entries]


class FlatParams:
    """A layout plus its flat float64 value vector."""

    __slots__ = ("layout", "flat", "_views")

    def __init__(self, layout: ParamLayout, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (layout.total_size,):
            raise ValueError(
                f"flat vector has size {flat.shape}, layout needs {layout.total_size}"
            )
        self.layout = layout
        self.flat = flat
        self._views = {}

    @classmethod
    def zeros(cls, layout: ParamLayout) -> "FlatParams":
        return cls(layout, np.zeros(layout.total_size))

    def get(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            lo, hi, shape = self.layout.offsets[name]
            view = self._views[name] = self.flat[lo:hi].reshape(shape)
        return view
