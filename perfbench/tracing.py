"""Spans around calls into altlab's layers, recorded from outside altlab.

altlab's modules call one another through module globals (``harness``
calls ``train_run``, ``cli`` calls ``harness.read_episode_log``), which
are looked up at call time.  :class:`Tracer` swaps those attributes for
timing wrappers and puts the originals back on exit.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a :class:`Span` for every call of each wrapped attribute.

    ``counter(args, kwargs, result)`` may return a dict of counts (steps,
    episodes, bytes, agent count) stored on the call's span.  The time the
    wrapper itself spends, counters included, accumulates in ``overhead``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.overhead = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counter: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records ``name`` spans.

        An attribute the program no longer has is skipped, so its metrics
        read as zero rather than stopping the benchmark.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            tracer.overhead += (span.start - t0) + (time.perf_counter() - span.end)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> list[float]:
        """Each span's time not covered by its direct children.

        Calls are sequential, so children never overlap one another.
        """
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, **s.counts,
                }) + "\n")
