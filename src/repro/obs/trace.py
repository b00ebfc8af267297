"""Zero-dependency tracing core: nestable spans, off by default.

The detection pipeline is a black box without telemetry — a ``table1`` run
spans Monte Carlo simulation, five dataset builds and five boundary fits,
and the bench gate can only say *that* something got slower, not *where*.
Spans answer the "where":

    with span("boundary.fit", boundary="B5", n=1500) as sp:
        ...
        sp.set(iterations=svm.n_iterations_)

Design constraints, in priority order:

* **Disabled is free.**  Tracing is off unless :func:`enable` was called;
  :func:`span` then returns a shared no-op context manager — one global
  read, no allocation — so the PR-1 hot paths keep their timings.
* **Nestable.**  An enabled tracer keeps a span stack; a span started while
  another is open becomes its child, giving a proper call tree.
* **Single-process.**  Every step runs in the calling process, so one
  tracer sees the whole call tree.
* **Never touches randomness.**  Instrumentation reads clocks only, so
  results are bit-identical with tracing on or off (guarded by
  ``tests/test_parallel_determinism.py``).

Wall time is ``time.perf_counter`` (monotonic, high resolution), CPU time is
``time.process_time``, and ``start`` is epoch time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "enable",
    "disable",
    "enabled",
    "finished_spans",
    "span",
]


@dataclass
class Span:
    """One finished (or open) traced operation.

    Attributes
    ----------
    name:
        Dot-separated span name (see the taxonomy in DESIGN.md §8).
    span_id / parent_id:
        Tracer-local integer ids; ``parent_id`` is ``None`` for a root span.
    start:
        Epoch seconds at ``__enter__``.
    wall / cpu:
        Elapsed wall-clock and CPU seconds of the span body.
    attributes:
        Key/value payload (sizes, hyper-parameters, fit diagnostics).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    wall: float = 0.0
    cpu: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the manifest and the sink)."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "wall": self.wall,
            "cpu": self.cpu,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            span_id=data["id"],
            parent_id=data.get("parent"),
            start=data.get("start", 0.0),
            wall=data.get("wall", 0.0),
            cpu=data.get("cpu", 0.0),
            attributes=dict(data.get("attributes", {})),
        )


class Tracer:
    """Collects spans for one enabled tracing session."""

    def __init__(self):
        self._counter = itertools.count(1)
        self._stack: List[Span] = []
        self.finished: List[Span] = []

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1].span_id if self._stack else None

    def _open(self, name: str, attributes: Dict[str, Any]) -> Span:
        opened = Span(
            name=name,
            span_id=next(self._counter),
            parent_id=self.current_span_id(),
            start=time.time(),
            attributes=attributes,
        )
        self._stack.append(opened)
        return opened

    def _close(self, closed: Span) -> None:
        # ``with`` blocks guarantee well-nested open/close; pop until the
        # closing span so a span leaked by an error path cannot wedge the
        # stack for the rest of the session.
        while self._stack:
            top = self._stack.pop()
            if top is closed:
                break
        self.finished.append(closed)


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self


class _LiveSpan:
    """Context manager recording one span on the active tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_t0", "_c0")

    def __init__(self, tracer: Tracer, name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> "_LiveSpan":
        self._span = self._tracer._open(self._name, self._attributes)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.wall = time.perf_counter() - self._t0
        self._span.cpu = time.process_time() - self._c0
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False

    def set(self, **attributes) -> "_LiveSpan":
        """Attach attributes to the open span (chainable)."""
        self._span.attributes.update(attributes)
        return self


_NOOP = _NoopSpan()
_tracer: Optional[Tracer] = None


def enable() -> Tracer:
    """Install a fresh tracer (discarding any previous session's spans)."""
    global _tracer
    _tracer = Tracer()
    return _tracer


def disable() -> List[Span]:
    """Stop tracing; returns the finished spans of the ended session."""
    global _tracer
    spans = _tracer.finished if _tracer is not None else []
    _tracer = None
    return spans


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _tracer is not None


def finished_spans() -> List[Span]:
    """Spans finished so far in the active session (empty when disabled)."""
    return list(_tracer.finished) if _tracer is not None else []


def span(name: str, **attributes):
    """Open a span context; a shared no-op when tracing is disabled.

    The returned object supports ``set(**attrs)`` in both states, so
    instrumented code never needs an ``if enabled()`` guard.
    """
    tracer = _tracer
    if tracer is None:
        return _NOOP
    return _LiveSpan(tracer, name, attributes)
