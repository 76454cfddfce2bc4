"""In-memory span tracer for the benchmark's traced run.

A span is (name, start, end, parent). The tracer wraps melformer functions
under every module attribute that is bound to them, because callers look
them up by name: ``melformer.pretrain.backward`` is the same function as
``melformer.tensor.backward`` but a separate attribute, and ``model.py``
calls primitives as ``T.<op>``. Methods are wrapped on their class, so
``block(x, rng)`` and ``optimizer.step(lr)`` are seen too. The wrappers call
straight through, so arithmetic and RNG streams are untouched.

Spans stay in memory until ``save``; ``summarize`` derives self time by
subtracting each span's direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        # Output bytes and GEMM FLOPs, filled by a measure hook (tensor ops).
        self._out_bytes: list[int] = []
        self._flops: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._span_name)
        self._span_name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._out_bytes.append(0)
        self._flops.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, measure=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer._out_bytes[idx], tracer._flops[idx] = measure(args, kwargs, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, fn, name: str, measure=None) -> int:
        """Wrap ``fn`` under every loaded melformer module attribute bound to it.

        Returns how many attributes were replaced.
        """
        wrapper = self.wrap(fn, name, measure)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "melformer" or mod_name.startswith("melformer.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    def patch_method(self, cls, attr: str, name: str) -> bool:
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))
        return True

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self._span_name, dtype=np.int32),
            "start": np.asarray(self._start, dtype=np.float64),
            "end": np.asarray(self._end, dtype=np.float64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "out_bytes": np.asarray(self._out_bytes, dtype=np.int64),
            "flops": np.asarray(self._flops, dtype=np.int64),
        }

    def save(self, path):
        """Write every span as compressed arrays plus the name table."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summarize(self, phase: str) -> dict:
        """Per-name totals over the spans nested in top-level spans named ``phase``.

        For each name: calls, inclusive seconds, self seconds, and for calls
        that nest no other span (leaf calls) their count, output bytes and
        FLOPs.
        """
        a = self.arrays()
        n = a["name"].size
        if n == 0:
            return {}
        parent = a["parent"]
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.zeros(n)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        is_leaf = np.ones(n, dtype=bool)
        is_leaf[parent[has_parent]] = False
        # Pointer jumping to each span's top-level ancestor.
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        phase_id = self._name_ids.get(phase)
        if phase_id is None:
            return {}
        inside = (a["name"][root] == phase_id) & (root != np.arange(n))
        out = {}
        names = a["name"][inside]
        for name_id in np.unique(names):
            sel = np.flatnonzero(inside & (a["name"] == name_id))
            leaf = sel[is_leaf[sel]]
            out[self.names[name_id]] = {
                "calls": int(sel.size),
                "incl_s": float(duration[sel].sum()),
                "self_s": float((duration[sel] - child_time[sel]).sum()),
                "leaf_calls": int(leaf.size),
                "out_bytes": int(a["out_bytes"][leaf].sum()),
                "flops": int(a["flops"][sel].sum()),
                "flops_self_s": float(
                    (duration[sel] - child_time[sel])[a["flops"][sel] > 0].sum()
                ),
            }
        return out
