"""Hierarchical spans: the tracing half of the telemetry layer.

A :class:`Tracer` records a tree of :class:`Span` objects — run → phase →
backend step / tile group / stream anchor — each carrying wall-clock
seconds, free-form attributes, counter increments, and (when ``tracemalloc``
is already tracing) the traced-allocation delta across the span.

Retryable units of work follow the same shard-merge discipline as
:class:`~repro.crypto.views.ViewRecorder`: each records into a private shard
(:meth:`Tracer.shard`) that is merged back in canonical schedule order
(:meth:`Tracer.merge_shard`) once the unit completes, so a retried attempt
leaves no partial spans.

A disabled tracer (``Tracer(enabled=False)``, or the shared
:data:`NULL_TRACER`) is a true no-op: ``span()`` hands back one shared,
stateless context manager, so instrumented code pays one attribute check
and nothing else.

Examples
--------
>>> tracer = Tracer()
>>> with tracer.span("total"):
...     with tracer.span("count", backend="matrix") as span:
...         span.add("opening_rounds", 2)
>>> [root.name for root in tracer.roots]
['total']
>>> tracer.roots[0].children[0].attributes["backend"]
'matrix'
>>> sorted(tracer.roots[0].timings())
['count', 'total']
>>> NULL_TRACER.roots
[]
"""

from __future__ import annotations

import contextlib
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One node of the trace tree.

    ``seconds`` is the wall-clock duration of the span;
    ``memory_delta_bytes`` is the traced-allocation delta across it (only
    populated when ``tracemalloc`` was tracing while the span ran, e.g.
    inside :func:`repro.telemetry.profiling.traced_call`).
    """

    name: str
    attributes: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0
    memory_delta_bytes: Optional[int] = None
    children: List["Span"] = field(default_factory=list)

    def add(self, name: str, value: float = 1) -> None:
        """Increment the counter attribute *name* by *value*."""
        self.attributes[name] = self.attributes.get(name, 0) + value

    def annotate(self, **attributes: object) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    def timings(self) -> Dict[str, float]:
        """Seconds aggregated by span name over this span and descendants."""
        totals: Dict[str, float] = {}

        def visit(span: "Span") -> None:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
            for child in span.children:
                visit(child)

        visit(self)
        return totals

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready recursive form (the trace section of the manifest)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "attributes": dict(self.attributes),
            "seconds": self.seconds,
        }
        if self.memory_delta_bytes is not None:
            payload["memory_delta_bytes"] = self.memory_delta_bytes
        payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def structure(self) -> Dict[str, object]:
        """The deterministic part of the span tree.

        Names, attributes, and children — everything except wall-clock
        seconds and memory deltas, which vary run to run.  Two runs that
        executed the same schedule compare equal under ``structure()``
        regardless of host speed.
        """
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "children": [child.structure() for child in self.children],
        }


class _NullSpan:
    """Shared stateless stand-in yielded by a disabled tracer's spans."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, object] = {}
    children: List[Span] = []
    seconds = 0.0
    memory_delta_bytes = None

    def add(self, name: str, value: float = 1) -> None:
        pass

    def annotate(self, **attributes: object) -> None:
        pass

    def timings(self) -> Dict[str, float]:
        return {}


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces the span tree for one run (or one shard of it).

    Span stacks are thread-local, so a tracer is safe to *hold* across
    threads — but spans opened on different threads never nest into each
    other.  Retryable units of work record into per-unit shards
    (:meth:`shard`) that the caller merges back in canonical order
    (:meth:`merge_shard`), mirroring ``ViewRecorder.merge_from``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attributes: object):
        """Context manager opening a child span of the current span."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return self._record(name, attributes)

    @contextlib.contextmanager
    def _record(self, name: str, attributes: Dict[str, object]) -> Iterator[Span]:
        span = Span(name=name, attributes=dict(attributes))
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)
        tracing = tracemalloc.is_tracing()
        memory_before = tracemalloc.get_traced_memory()[0] if tracing else 0
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds += time.perf_counter() - started
            if tracing and tracemalloc.is_tracing():
                span.memory_delta_bytes = (
                    tracemalloc.get_traced_memory()[0] - memory_before
                )
            stack.pop()

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    # Shard-merge discipline (retryable units of work)
    # ------------------------------------------------------------------ #
    def shard(self) -> "Tracer":
        """A private tracer for one unit of work.

        The unit records into its shard and the caller merges the shard
        once the unit completes, in canonical schedule order, so a failed
        and retried attempt leaves no spans behind.
        """
        if not self.enabled:
            return NULL_TRACER
        return Tracer()

    def merge_shard(self, shard: Optional["Tracer"]) -> None:
        """Attach *shard*'s roots under the current span, in shard order."""
        if not self.enabled or shard is None or not shard.enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].children.extend(shard.roots)
        else:
            with self._lock:
                self._roots.extend(shard.roots)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def roots(self) -> List[Span]:
        """Completed top-level spans, in start order."""
        with self._lock:
            return list(self._roots)

    def timings(self) -> Dict[str, float]:
        """Seconds aggregated by span name over the whole tree."""
        totals: Dict[str, float] = {}
        for root in self.roots:
            for name, seconds in root.timings().items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def structure(self) -> List[Dict[str, object]]:
        """Deterministic tree (no seconds/memory) — see :meth:`Span.structure`."""
        return [root.structure() for root in self.roots]

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready list of root span trees."""
        return [root.to_dict() for root in self.roots]

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack


#: Shared disabled tracer: every ``span()`` is the same stateless no-op.
NULL_TRACER = Tracer(enabled=False)
_NULL_SPAN_CONTEXT = contextlib.nullcontext(_NULL_SPAN)
