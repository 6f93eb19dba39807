"""In-memory span tracing of layer boundaries, installed from outside.

A span records one call of a wrapped function: its name, start and end
on the perf_counter clock, the span that was open when it started, the
run it belongs to and whether it returned. Wrappers are installed by
replacing module (or class) attributes that refer to the original
function, and every replaced attribute is put back by restore().
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    run: int
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    ok: bool


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Callable[[dict], dict] | None = None):
        """Return fn wrapped in a span; count maps bound arguments to counter increments."""
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            ok = False
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx] = Span(self.run, name, start, end, parent, ok)
                if sig is not None:
                    bound = sig.bind(*args, **kwargs).arguments
                    run_counters = self.counters[self.run]
                    for key, value in count(bound).items():
                        run_counters[key] += value

        traced.__wrapped__ = fn
        return traced

    def patch(self, original: object, replacement: object, namespaces) -> int:
        """Point every attribute of the namespaces that is original at replacement.

        Returns the number of attributes replaced.
        """
        hits = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, replacement)
                    hits += 1
        return hits

    def restore(self) -> None:
        """Undo every patch, newest first, and check that each name is back."""
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)
            if vars(ns)[attr] is not original:
                raise RuntimeError(f"could not restore {attr} on {ns!r}")

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """Per run and span name: calls, busy_s, self_s and errors.

    busy_s sums span durations; self_s subtracts from each span the part
    of its interval covered by its child spans.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
    )
    for idx, s in enumerate(spans):
        dur = s.end - s.start
        t = out[s.run][s.name]
        t["calls"] += 1
        t["busy_s"] += dur
        t["self_s"] += dur - _covered(children.get(idx, []), s.start, s.end)
        t["errors"] += 0 if s.ok else 1
    return out


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w") as f:
        f.write("run,id,parent,name,start,end,ok\n")
        for idx, s in enumerate(spans):
            f.write(f"{s.run},{idx},{s.parent},{s.name},{s.start!r},{s.end!r},{int(s.ok)}\n")
