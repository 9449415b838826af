"""In-memory spans around calls into covergap's layers, recorded from outside.

A Tracer replaces a function in the module namespace its caller looks it up
in with a wrapper that records (name, start, end, parent span) and, if asked,
a small fact about the call. The program's files are untouched; restore()
puts the originals back.
"""

import threading
import time

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._undo = []

    def wrap(self, module, attr: str, name: str, info=None):
        """Trace module.attr as span `name`; info(args, kwargs, result)
        gives the span's recorded fact (computed after the span ends)."""
        original = getattr(module, attr)
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # ---------------------------------------------------------- summaries

    def durations(self, name: str):
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def infos(self, name: str):
        return [s[INFO] for s in self.spans if s[NAME] == name]

    def busy(self, *names: str) -> float:
        return sum(sum(self.durations(n)) for n in names)

    def self_time(self, name: str, *children: str) -> float:
        """Total time in `name` spans minus their direct child spans named
        in `children`."""
        inner = sum(
            s[END] - s[START] for s in self.spans
            if s[NAME] in children and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == name
        )
        return self.busy(name) - inner


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one, on this host."""

    class _Target:
        @staticmethod
        def noop(x):
            return x

    plain = _Target.noop
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    base = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(_Target, "noop", "noop")
    traced = _Target.noop
    t0 = time.perf_counter()
    for i in range(calls):
        traced(i)
    cost = time.perf_counter() - t0 - base
    tracer.restore()
    return max(cost, 0.0) / calls
