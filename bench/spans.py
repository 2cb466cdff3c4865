"""In-memory spans recorded around calls into a program's functions.

A span is (name, start, end, parent). Spans are kept in a list while the
program runs and saved once at the end, so tracing does no I/O on the hot
path. Parent links follow a per-thread call stack of traced functions;
a child's interval lies inside its parent's, which makes self time
(duration minus the time covered by direct children) well defined.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_RAISED = object()


class Tracer:
    """Wraps functions so that every call records one span."""

    def __init__(self):
        self.names: list[str] = []
        self._records: list[tuple[int, int, float, float, int, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str, value=None):
        """Return `fn` wrapped in a span named `name`.

        `value(result)`, when given, is stored with the span: a count or a
        flag read from what the call returned.
        """
        name_id = len(self.names)
        self.names.append(name)
        records, ids, local = self._records, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                records.append((
                    span_id, name_id, start, end, parent,
                    np.nan if value is None or result is _RAISED else float(value(result)),
                ))

        return traced

    def install(self, targets, package: str):
        """Wrap each (module, attribute, span name, value) target.

        Every reference to an original function inside `package` is
        replaced: module attributes, names imported with `from ... import`,
        and values of module-level dicts such as dispatch tables.
        """
        replaced = {}
        for module_name, attr, span_name, value in targets:
            original = getattr(sys.modules[module_name], attr)
            replaced[id(original)] = (original, self.wrap(original, span_name, value))
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module in modules:
            namespace = vars(module)
            for key, obj in list(namespace.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[key] = hit[1]
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = replaced.get(id(v))
                        if hit is not None and hit[0] is v:
                            obj[k] = hit[1]

    def save(self, path: Path):
        rec = sorted(self._records)
        # Every call records exactly one span, so ids are 0..n-1 and a
        # span's id is its row: parent links index rows directly.
        if [r[0] for r in rec] != list(range(len(rec))):
            raise RuntimeError("span ids are not contiguous")
        cols = list(zip(*rec)) if rec else [[]] * 6
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(cols[1], dtype=np.int32),
            start=np.array(cols[2], dtype=float),
            end=np.array(cols[3], dtype=float),
            parent=np.array(cols[4], dtype=np.int64),
            value=np.array(cols[5], dtype=float),
        )


def span_cost_s(calls: int = 200_000) -> float:
    """Seconds one traced call adds over an untraced one, measured here."""
    tracer = Tracer()
    bare = lambda: None  # noqa: E731
    traced = tracer.wrap(bare, "probe")
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        traced()
    t1 = clock()
    for _ in range(calls):
        bare()
    t2 = clock()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


@dataclass
class SpanTable:
    """Spans in id order, so a parent always precedes its children."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    value: np.ndarray

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        with np.load(path) as z:
            return cls(list(z["names"]), z["name_id"], z["start"], z["end"],
                       z["parent"], z["value"])

    def __len__(self) -> int:
        return len(self.name_id)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the summed durations of direct children."""
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self)
        )
        return self.duration - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def nearest(self, names) -> np.ndarray:
        """Index of each span's nearest proper ancestor named in `names`, or -1."""
        wanted = {i for i, n in enumerate(self.names) if n in names}
        name_id, parent = self.name_id.tolist(), self.parent.tolist()
        owner = [-1] * len(parent)
        for i, p in enumerate(parent):
            if p >= 0:
                owner[i] = p if name_id[p] in wanted else owner[p]
        return np.array(owner, dtype=np.int64)
