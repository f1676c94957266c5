"""In-memory span recorder wrapping the public functions of the package's modules.

Each public module-level function of a layer module is replaced, at module
attribute level, by a wrapper that records a span (name, start, end, parent,
run id).  Callers that look the function up through its module -- which is
how every layer calls the next -- therefore pass through the wrapper.  Spans
stay in memory until the run ends; ``restore`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._originals: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a span opened on a worker thread was caused by the span the main
        # thread has open (the pool's submitter)
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else None
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap_module(self, module, layer: str) -> None:
        """Wrap every public function defined in ``module``."""
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            setattr(module, attr, self._wrapper(f"{layer}.{attr}", obj))
            self._originals.append((module, attr, obj))

    def _wrapper(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def restore(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "run": self.run_id,
            }
            for name, start, end, parent in self.spans
        ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in records:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    out = []
    for i, rec in enumerate(records):
        clipped = [
            (max(s, rec["start"]), min(e, rec["end"]))
            for s, e in children.get(i, [])
            if e > rec["start"] and s < rec["end"]
        ]
        out.append(rec["end"] - rec["start"] - _covered(clipped))
    return out


def summarize(records: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy time (summed durations) and self time."""
    table: dict[str, dict] = {}
    for rec, own in zip(records, self_times(records)):
        row = table.setdefault(rec["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += rec["end"] - rec["start"]
        row["self_s"] += own
    return table
