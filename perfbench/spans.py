"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent): the benchmark wraps public functions
of the ``apranking`` modules from the outside, and every call of a wrapped
function records one span whose parent is the innermost wrapped call still
open. Spans stay in memory while the workload runs and are written out once,
when the benchmark ends. Nothing under ``src/`` is edited: wrappers are
installed by rebinding module and class attributes, and removed again by
restoring the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    """Spans as parallel lists (name, start ns, end ns, parent index) plus
    named counters that hooks add to."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        """``name`` is a span name, or a callable returning one per call."""
        name_of = name if callable(name) else (lambda: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_of())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans [first, last): calls, inclusive ns (a
        span nested in a span of the same name is not counted twice) and
        self ns (duration minus the time its child spans cover)."""
        last = len(self.names) if last is None else last
        child_ns = Counter()
        for i in range(first, last):
            if self.parents[i] >= first:
                child_ns[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += dur - child_ns[i]
            if not self._has_ancestor_named(i, name, first):
                row["ns"] += dur
        return out

    def _has_ancestor_named(self, i: int, name: str, first: int) -> bool:
        p = self.parents[i]
        while p >= first:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def dump(self, path, header: dict) -> None:
        """Write every span as [name id, start ns, end ns, parent index]."""
        ids: dict[str, int] = {}
        rows = []
        for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
            rows.append([ids.setdefault(name, len(ids)), s, e, p])
        with open(path, "w") as fh:
            json.dump({**header, "names": list(ids), "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def install(patches) -> list:
    """Apply ``(owner, attribute, replacement)`` patches; returns what
    :func:`uninstall` needs to undo them.

    For a module attribute, every ``apranking`` module that binds the same
    function object (``from .x import f``) is rebound too, so calls made
    through any of those names reach the wrapper. A class attribute is
    replaced on the class alone.
    """
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "apranking"]
    for owner, attr, replacement in patches:
        orig = owner.__dict__[attr]
        if isinstance(owner, type):
            undo.append((owner, attr, orig))
            setattr(owner, attr, replacement)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, replacement)
    return undo


def uninstall(undo) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
