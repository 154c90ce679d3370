"""Spans and call counts recorded around calls into qmu's layers.

A span is ``(id, name, start, end, parent, job)``.  Spans are opened by the
benchmark around the public calls it makes, and by wrappers that replace a
name in a qmu module's namespace for the traced rounds only, so the calls
one layer makes into another are seen where they happen.  Wrapped names
that are called hundreds of thousands of times per run (one matrix-vector
product, one strategy-pair evaluation) are counted and timed but not kept
as spans, which keeps the span list small.

A layer's self time is the time inside its spans and counted calls minus
the time inside the spans and counted calls they contain.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class NullTracer:
    """Stands in for :class:`Tracer` in untraced rounds; records nothing."""

    job = None

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.tallies: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _push(self, name: str, keep: bool) -> list:
        parent = next((f[4] for f in reversed(self._stack) if f[4] is not None), None)
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        # name, start, time inside children, parent span id, own span id
        frame = [name, 0.0, 0.0, parent, span_id]
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def _pop(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        name, start, inside, parent, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name.split(".", 1)[0]] += duration - inside
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent, self.job))

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed calls as one span named ``layer.call``."""
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def wrap(self, module, attr: str, name: str, keep: bool = False,
             tally=None) -> None:
        """Replace ``module.attr`` by a timed wrapper until :meth:`unwrap`.

        ``tally(result)`` adds a number per call to ``tallies[name]``.
        """
        original = getattr(module, attr)
        push, pop = self._push, self._pop
        tallies = self.tallies

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frame = push(name, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                pop(frame)
            if tally is not None:
                tallies[name] += tally(result)
            return result

        setattr(module, attr, timed)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        """Put back every name :meth:`wrap` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset_counts(self) -> None:
        """Forget counts and times, keeping the spans recorded so far."""
        for table in (self.calls, self.seconds, self.tallies, self.self_seconds):
            table.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}))
                fh.write("\n")
