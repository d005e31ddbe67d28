"""In-memory spans around the benchmark's calls into each gpsyn layer.

A span records its name, start and end (``perf_counter`` seconds), the index
of the span that was open when it started, the job it belongs to, the pass it
ran in, and counts noted at the layer boundary (expansions, steps, ...).
Spans are kept in a list and written out once the run is over; nothing is
sampled or printed while a pass runs.

With tracing off, ``span`` hands back one shared no-op object, so the
untraced passes pay a method call per layer call and nothing more.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **counts) -> None:
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tr = self.tracer
        self.record["parent"] = tr._stack[-1] if tr._stack else None
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False

    def note(self, **counts) -> None:
        self.record["counts"].update(counts)


class Tracer:
    """Span recorder; ``enabled`` is switched per pass by the runner."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.job: str | None = None
        self.pass_id: str | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return _Span(
            self,
            {"name": name, "job": self.job, "pass": self.pass_id, "counts": {}},
        )

    @contextmanager
    def patched(self, module, attr: str, name: str, note):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        Used for calls one gpsyn layer makes into another (evaluation and
        validation both call ``interpreter.execute``), which the benchmark
        cannot wrap at its own call sites. ``note(result)`` returns the counts
        to attach. The original is restored on exit.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                sp.note(**note(result))
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)


def self_times(spans: list[dict], durations: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = list(durations)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    return own
