"""In-memory span tracer that wraps library functions from the outside.

A wrapper replaces a name in the module where its caller looks it up
(``asefilt.harness.iwf_ase_step`` for the Monte Carlo driver,
``asefilt.filters.dcd_solve`` for the filter step) and records one span
per call: name, start, end and the index of the enclosing span.  Spans
live in flat arrays until :meth:`Tracer.save` writes them out; the
library itself is never edited, and :meth:`Tracer.restore` puts every
original object back.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # Per-span-name tallies read from return values (e.g. StepOutput.applied).
        self.tallies: dict[str, dict[str, int]] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span from the benchmark's own code; close it with :meth:`close`."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        pc = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(pc())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = pc()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` with a traced wrapper; a missing name is noted, not fatal."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_result))

    def tally(self, name: str) -> dict[str, int]:
        return self.tallies.setdefault(name, {})

    def restore(self) -> bool:
        """Put every patched name back; True when each now holds its original object."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched.clear()
        return ok

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so that the arrays stay free to grow after this call.
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path) -> None:
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
        )


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    a = tracer.arrays()
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = a["name_id"] == nid
        out[name] = {
            "calls": int(np.count_nonzero(sel)),
            "total_s": float(a["dur"][sel].sum()),
            "self_s": float(a["self"][sel].sum()),
        }
    return out
