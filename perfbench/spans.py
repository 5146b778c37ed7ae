"""In-memory span tracing around the calls into each ivuseg module.

The tracer replaces module attributes (and one method) that the pipeline
calls through with wrappers that record a span per call: name, start, end,
parent span, pass number and frame id.  Nothing under ``src/`` knows about
it; ``install`` patches the attributes and ``restore`` puts the originals
back.  Spans stay in memory and are written out once, at the end of a run.

A span's frame id is found, in order, from an argument object that an
earlier span of the same pass returned (a loaded ``Frame``, a fitted
``Ellipse``, a rasterised ``Contour``), from the enclosing span, or from the
most recent span that had one.  The last rule covers the batch output loop,
which handles one frame at a time but passes some frame-less objects, such
as gold contours, to traced calls.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

_PRIMITIVES = (int, float, bool, str, bytes, type(None))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pass_no: int = 0
    frame: str | None = None
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Probe:
    """One traced attribute: where it lives, its span name, what it counts.

    ``make``, when given, builds the replacement from (tracer, original)
    instead of the default call wrapper; the pool probe uses it to span a
    ``with`` block rather than a call.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None        # (args, kwargs, result) -> dict
    batch_level: bool = False            # spans carry no frame id
    frame_from: Callable | None = None   # (args) -> frame id
    make: Callable | None = None


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[Span] = []
        self.pass_no = 0
        self._stack: list[int] = []
        self._owner: dict[int, tuple[object, str]] = {}
        self._current: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            original = getattr(probe.owner, probe.attr)
            self._saved.append((probe.owner, probe.attr, original))
            if probe.make is not None:
                replacement = probe.make(self, original)
            else:
                replacement = self._wrap(probe, original)
            setattr(probe.owner, probe.attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- passes and frames ----------------------------------------------

    def start_pass(self) -> None:
        """Begin a new pass; frame ownership does not carry across passes."""
        self.pass_no += 1
        self._owner.clear()
        self._current = None

    def claim(self, obj: object, frame: str) -> None:
        """Mark obj as belonging to frame, so calls taking it inherit the id."""
        if not isinstance(obj, _PRIMITIVES):
            # holding obj keeps its id from being reused within the pass
            self._owner[id(obj)] = (obj, frame)

    def _frame_for(self, probe: Probe, args: tuple) -> str | None:
        if probe.batch_level:
            return None
        if probe.frame_from is not None:
            return probe.frame_from(args)
        for arg in args:
            owned = self._owner.get(id(arg))
            if owned is not None:
                return owned[1]
        if self._stack:
            parent = self.spans[self._stack[-1]].frame
            if parent is not None:
                return parent
        return self._current

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, frame: str | None = None) -> Span:
        if frame is not None:
            self._current = frame
        span = Span(
            name, 0.0,
            parent=self._stack[-1] if self._stack else None,
            pass_no=self.pass_no, frame=frame,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            frame = self._frame_for(probe, args)
            span = self.begin(probe.name, frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.end(span)
            if probe.count is not None:
                span.counts = probe.count(args, kwargs, result)
            if frame is not None:
                self.claim(result, frame)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
