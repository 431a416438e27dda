"""In-memory spans around calls into the program's public functions.

The benchmark adds no instrumentation to the program.  For a traced run it
temporarily replaces selected public functions and methods (looked up at
their call sites, e.g. ``repro.apsp.ear_apsp.all_pairs``) with wrappers
that record one span per call: name, layer, start, end and the index of the
enclosing span.  Untraced runs never install the wrappers.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans under one operation add up to that
operation's wall time and each nanosecond is charged to exactly one layer.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# Span record layout: [name, layer, start_ns, end_ns, parent_index, info].
NAME, LAYER, START, END, PARENT, INFO = range(6)


class Tracer:
    """Records spans into a list; :meth:`install` wraps program call sites."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self._open(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str, layer: str, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][INFO] = info(args, result)
            return result

        return traced

    @contextmanager
    def install(self, targets):
        """Wrap every ``(owner, attr, layer, info)`` target; restore on exit.

        ``owner`` is a module or class; ``info(args, result)``, when given,
        returns a dict of sizes stored on the span (edges reduced, cost-model
        units, candidates built).
        """
        saved = []
        try:
            for owner, attr, layer, info in targets:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                name = f"{getattr(owner, '__name__', owner)}.{attr}"
                setattr(owner, attr, self._wrapper(fn, name, layer, info))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layer_self_ns(self, first: int) -> dict[str, int]:
        """Self time per layer of every span recorded since index ``first``."""
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for s in spans:
            p = s[PARENT] - first
            if p >= 0:
                child_ns[p] += s[END] - s[START]
        out: dict[str, int] = {}
        for s, c in zip(spans, child_ns):
            out[s[LAYER]] = out.get(s[LAYER], 0) + (s[END] - s[START]) - c
        return out

    def info_sum(self, first: int, layer: str, key: str) -> float:
        """Sum of ``info[key]`` over spans of ``layer`` since ``first``."""
        return sum(
            s[INFO][key]
            for s in self.spans[first:]
            if s[LAYER] == layer and s[INFO] and key in s[INFO]
        )

    def chrome_trace(self, pid: int = 1) -> dict:
        """Chrome ``trace_event`` document; ``args`` carry ids and parent links."""
        t0 = self.spans[0][START] if self.spans else 0
        events = []
        for i, s in enumerate(self.spans):
            args = {"id": i, "parent": s[PARENT], **(s[INFO] or {})}
            events.append({
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": (s[START] - t0) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "pid": pid,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
