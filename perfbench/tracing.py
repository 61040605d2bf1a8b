"""In-memory span recorder for the traced run, wrapped around loandetect from outside.

Each public function is replaced, in the module whose code calls it, by a
wrapper that records a span (name, start, end, parent) or bumps a counter.
Nothing under ``src/`` changes; the untraced runs never import this file.
Spans stay in memory until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

Span = tuple[str, float, float, int]  # name, start, end, index of the parent span (-1: none)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}

    def timed(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` run outside the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn, key=None):
        """``fn`` with a call counter; ``key(args)`` also tallies distinct inputs."""
        counts = self.counts
        seen = self.distinct.setdefault(name, set()) if key is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if seen is not None:
                seen.add(key(args))
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, wrapper_factory) -> None:
        setattr(module, attr, wrapper_factory(getattr(module, attr)))

    def dump(self, path: Path, extra: dict) -> None:
        payload = {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "extra": extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def summarize(payload: dict) -> dict[str, float]:
    """Per-name totals: ``<name>.s``, ``<name>.calls`` and ``<name>.self_s``.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    spans = payload["spans"]
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time: Counter[str] = Counter()
    for (name, start, end, _), inner in zip(spans, child_time):
        self_time[name] += (end - start) - inner
    out: dict[str, float] = {}
    for name in total:
        out[f"{name}.s"] = total[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_time[name]
    for name, n in payload["counts"].items():
        out[f"{name}.calls"] = n
    for name, n in payload["distinct"].items():
        out[f"{name}.distinct"] = n
    return out
