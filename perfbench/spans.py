"""In-memory spans for the traced pass.

A span is one timed call: its name, start, end, the span that was open when
it started (its parent) and a small dict of counts.  Spans are kept in a list
while the benchmark runs and written out when it ends.  A span's self time is
its duration minus the durations of its direct children; calls run one at a
time in one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "info")

    def __init__(self, span_id: int, parent: int | None, name: str, info: dict):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.info = info
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "info": self.info}


class Tracer:
    """Records spans around calls it wraps; ``restore`` undoes every patch."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, info: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, info)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **info):
        """Time a block; yields the span's info dict for counts."""
        span = self._open(name, info)
        try:
            yield span.info
        finally:
            self._close(span)

    def patch(self, owner, attr: str, name: str, record=None, **info) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``record(bound_arguments, result)`` returns counts to store on the
        span; it runs after the span has closed, so its cost is not charged
        to the wrapped function.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if record is not None else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name, dict(info))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if record is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info.update(record(bound.arguments, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **info):
        yield info


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own
