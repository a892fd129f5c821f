"""Nestable tracing spans with wall-clock and optional memory capture.

A :class:`Tracer` produces :class:`Span` context managers::

    with tracer.span("refine"):
        with tracer.span("round-3") as sp:
            ...
            sp.set(inserted=123)

Each completed span is appended to :attr:`Tracer.records` as an immutable
:class:`SpanRecord` carrying its slash-joined ``path``
(``"build/refine/round-3"``), start offset, duration, nesting depth and
free-form attributes.  Records are stored in *completion* order (children
before parents), which is also the order a streaming JSON-lines exporter
would emit them in.

A disabled tracer hands out a shared no-op span, so instrumented code pays
one attribute check per call and nothing else - the <5% disabled-overhead
budget of the observability layer.

Memory capture: when ``trace_memory=True`` and :mod:`tracemalloc` is
tracing (the tracer starts it on demand), each span records the growth of
the traced peak over its lifetime in ``mem_peak_bytes`` - an upper bound on
the span's own allocation peak (nested allocations attribute to every
enclosing span).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (immutable)."""

    #: leaf name, e.g. ``"round-3"``
    name: str
    #: slash-joined ancestry, e.g. ``"build/refine/round-3"``
    path: str
    #: seconds since the tracer's epoch at span entry
    start: float
    #: wall-clock duration
    seconds: float
    #: nesting depth (0 = root span)
    depth: int
    #: growth of the tracemalloc peak during the span (None = not captured)
    mem_peak_bytes: int | None = None
    #: free-form attributes attached via :meth:`Span.set`
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def parent_path(self) -> str:
        """Path of the enclosing span (empty for roots)."""
        return self.path.rsplit("/", 1)[0] if "/" in self.path else ""

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "seconds": self.seconds,
            "depth": self.depth,
        }
        if self.mem_peak_bytes is not None:
            out["mem_peak_bytes"] = self.mem_peak_bytes
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Span:
    """A live span; use as a context manager (see module docstring)."""

    __slots__ = ("_tracer", "name", "path", "depth", "attrs",
                 "_t0", "_mem0", "record")

    def __init__(self, tracer: "Tracer", name: str, path: str, depth: int,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.path = path
        self.depth = depth
        self.attrs = attrs
        self._t0 = 0.0
        self._mem0: int | None = None
        #: the SpanRecord, available after exit
        self.record: SpanRecord | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tr = self._tracer
        tr._stack.append(self)
        if tr.trace_memory:
            tr._ensure_tracemalloc()
            _size, peak = tracemalloc.get_traced_memory()
            self._mem0 = peak
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self._t0
        tr = self._tracer
        mem_peak = None
        if self._mem0 is not None:
            _size, peak = tracemalloc.get_traced_memory()
            mem_peak = max(0, peak - self._mem0)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.record = SpanRecord(
            name=self.name,
            path=self.path,
            start=self._t0 - tr._epoch,
            seconds=seconds,
            depth=self.depth,
            mem_peak_bytes=mem_peak,
            attrs=self.attrs,
        )
        tr.records.append(self.record)
        # unwind even if user code raised inside the span
        if tr._stack and tr._stack[-1] is self:
            tr._stack.pop()


class _NullSpan:
    """Shared no-op span handed out by disabled tracers."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory + flat store of completed :class:`SpanRecord` objects."""

    def __init__(self, enabled: bool = True, trace_memory: bool = False) -> None:
        self.enabled = bool(enabled)
        self.trace_memory = bool(trace_memory)
        self.records: list[SpanRecord] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()
        self._started_tracemalloc = False

    # -- span creation -------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span named ``name`` nested under the current span."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, *self._child(name), dict(attrs))

    def record_span(self, name: str, started: float, seconds: float,
                    **attrs: Any) -> None:
        """Append an already-finished span as a child of the current span.

        ``started`` is the :func:`time.perf_counter` reading at the work's
        start and ``seconds`` its duration.  This is how work timed on
        other threads (a scatter pool's per-shard calls) enters the trace:
        those threads cannot open live spans, because the span stack is
        shared by the tracer's users.
        """
        if not self.enabled:
            return
        path, depth = self._child(name)
        self.records.append(SpanRecord(
            name=name, path=path, start=started - self._epoch,
            seconds=seconds, depth=depth, attrs=dict(attrs),
        ))

    def _child(self, name: str) -> tuple[str, int]:
        """``(path, depth)`` of a span named ``name`` under the current one."""
        if self._stack:
            parent = self._stack[-1]
            return f"{parent.path}/{name}", parent.depth + 1
        return name, 0

    def _ensure_tracemalloc(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # -- queries -------------------------------------------------------------

    def find(self, path_prefix: str) -> list[SpanRecord]:
        """Completed spans whose path equals or starts under the prefix."""
        want = path_prefix.rstrip("/")
        return [
            r for r in self.records
            if r.path == want or r.path.startswith(want + "/")
        ]

    def roots(self) -> list[SpanRecord]:
        """Completed depth-0 spans in start order."""
        return sorted((r for r in self.records if r.depth == 0),
                      key=lambda r: r.start)

    def children(self, path: str) -> list[SpanRecord]:
        """Direct children of ``path``, in start order."""
        depth = path.count("/") + 1
        return sorted(
            (r for r in self.records
             if r.depth == depth and r.parent_path == path),
            key=lambda r: r.start,
        )

    def tree_paths(self) -> set[str]:
        """The set of all completed span paths (for coverage assertions)."""
        return {r.path for r in self.records}

    def reset(self) -> None:
        """Drop all records and reset the epoch; open spans are abandoned."""
        self.records.clear()
        self._stack.clear()
        self._epoch = time.perf_counter()
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    def __len__(self) -> int:
        return len(self.records)
