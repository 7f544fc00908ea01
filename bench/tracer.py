"""In-memory spans around calls into the package, recorded from outside it.

Spans are opened by the benchmark around its own calls, and by wrappers the
benchmark installs on the package's public functions (module attributes, so
calls from one module into another are seen too).  No file of the package
is edited.  Each span knows its busy time and the busy time of the spans
that ran while it was the innermost open one, so a layer's self time is
``busy - child``.  A generator function's span collects the time of every
step of the generator, wherever it is consumed.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List

_NULL = nullcontext()


class Span:
    __slots__ = ("name", "op", "parent", "idx", "start", "end", "busy", "child")

    def __init__(self, name: str, op: int, parent: int, start: float):
        self.name = name
        self.op = op
        self.parent = parent
        self.idx = -1
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    """Records spans while ``active``; ``span()`` is a no-op otherwise."""

    def __init__(self, keep: int = 100_000):
        self.active = False
        self.op = 0
        self.keep = keep  # spans kept for the span file; totals count all
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, busy, self]
        self._patches = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].idx if self.stack else -1
        span = Span(name, self.op, parent, perf_counter())
        if len(self.spans) < self.keep:
            span.idx = len(self.spans)
            self.spans.append(span)
        self.totals.setdefault(name, [0, 0.0, 0.0])[0] += 1
        return span

    def _enter(self, span: Span):
        self.stack.append(span)
        return perf_counter(), span.child

    def _exit(self, span: Span, t0: float, child0: float):
        dt = perf_counter() - t0
        self.stack.pop()
        span.busy += dt
        span.end = t0 + dt
        total = self.totals[span.name]
        total[1] += dt
        total[2] += dt - (span.child - child0)
        if self.stack:
            self.stack[-1].child += dt

    def span(self, name: str):
        return self._span(name) if self.active else _NULL

    @contextmanager
    def _span(self, name: str):
        span = self._open(name)
        mark = self._enter(span)
        try:
            yield span
        finally:
            self._exit(span, *mark)

    # -- wrappers on the package's functions --------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until uninstall()."""
        fn = getattr(owner, attr)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                span = tracer._open(name)

                def steps():
                    while True:
                        mark = tracer._enter(span)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(span, *mark)
                        yield item

                return steps()

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                mark = tracer._enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(span, *mark)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self, targets) -> None:
        """Wrap every (owner, attr, span name) and start recording."""
        for owner, attr, name in targets:
            self.wrap(owner, attr, name)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def self_by_module(self) -> Dict[str, float]:
        """Self time summed per module (the span name's first component)."""
        out: Dict[str, float] = {}
        for name, (_calls, _busy, self_s) in self.totals.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, op id, parent index, start, end, busy."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "i": s.idx, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": round(s.start, 9), "end": round(s.end, 9),
                    "busy": round(s.busy, 9),
                }) + "\n")
