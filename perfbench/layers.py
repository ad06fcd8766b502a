"""Benchmark-side span tracing around the program's layer entry points.

Nothing here changes the program.  For the length of one traced release,
each entry point listed in :data:`ENTRY_POINTS` is replaced by a wrapper
that records a span (layer, start, end, parent) in memory and, for a few
entry points, counts read from its arguments or result.  Methods are
patched on their class, which covers every caller; free functions are
patched in every ``repro`` module that binds them by name.

Spans recorded inside the forked dealer and server processes of the
distributed runtime stay in those processes; their work is visible through
the per-process wall times the program reports back over the wire.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np


@dataclass
class Span:
    """One call into a layer: which layer, when, and the span that caused it."""

    layer: str
    entry: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps every span of a traced run in memory, in start order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        # Program objects whose own counters are read after the release
        # (communication ledgers, MAC authenticators), keyed by id.
        self.objects: Dict[str, Dict[int, object]] = {}

    @contextmanager
    def span(self, layer: str, entry: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, entry, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def keep(self, kind: str, obj: object) -> None:
        self.objects.setdefault(kind, {})[id(obj)] = obj

    def to_json(self) -> List[dict]:
        return [
            {
                "name": span.layer,
                "entry": span.entry,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                **({"counts": span.counts} if span.counts else {}),
            }
            for span in self.spans
        ]


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def outermost(spans: Sequence[Span]) -> List[int]:
    """Indices of spans with no ancestor in the same layer.

    A layer's inclusive time and its counts sum over these only, so a layer
    entry point that calls another entry point of the same layer (k-stars'
    ``secure_count`` delegating to ``secure_count_from_degrees``) is counted
    once.
    """
    result = []
    for index, span in enumerate(spans):
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].layer != span.layer:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            result.append(index)
    return result


@dataclass
class LayerTotal:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    counts: Dict[str, float] = field(default_factory=dict)


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotal]:
    """Inclusive time, self time, calls and summed counts per layer."""
    totals: Dict[str, LayerTotal] = {}
    for span, own in zip(spans, self_times(spans)):
        totals.setdefault(span.layer, LayerTotal()).self_seconds += own
    for index in outermost(spans):
        span = spans[index]
        total = totals[span.layer]
        total.seconds += span.duration
        total.calls += 1
        for key, value in span.counts.items():
            total.counts[key] = total.counts.get(key, 0) + value
    return totals


# ---------------------------------------------------------------------- #
# Entry points and the counts read at them
# ---------------------------------------------------------------------- #
OnCall = Callable[[SpanRecorder, Span, tuple, object], None]


@dataclass(frozen=True)
class EntryPoint:
    """``module`` + ``qualname`` (``Class.method`` or ``function``) of one wrapped call."""

    layer: str
    module: str
    qualname: str
    on_call: Optional[OnCall] = None


def _matmul_counts(_recorder, span, args, result) -> None:
    # Computed, not measured: multiply-accumulates implied by the operand
    # shapes (output elements x inner dimension), batched products included.
    inner = np.shape(args[1])[-1]
    span.counts["gmac"] = np.size(result) * inner / 1e9


def _deal_counts(_recorder, span, args, _result) -> None:
    # Computed from the requested shapes: ring elements issued to each
    # server as x, y and z.  Bulk provisioning counts nothing here; the
    # triples it pre-draws are counted when they are served.
    name = span.entry.rpartition(".")[2]
    if name == "matrix_triple":
        (m, k), (_, n) = args[1], args[2]
        elements = m * k + k * n + m * n
    elif name == "vector_triple":
        elements = 3 * int(np.prod(args[1]))
    elif name == "scalar_triple":
        elements = 3
    else:
        return
    span.counts["elements"] = elements


def _secure_count_counts(_recorder, span, _args, result) -> None:
    span.counts["opening_rounds"] = result.opening_rounds


def _keep_self(kind: str) -> OnCall:
    def keep(recorder, _span, args, _result) -> None:
        recorder.keep(kind, args[0])

    return keep


def _wire_reply_counts(_recorder, span, args, result) -> None:
    # The servers and the dealer report their own wall time, opening rounds
    # and MAC counters in their result frames; server 1 speaks for both
    # servers where the two must agree (the driver checks that they do).
    peer = args[0].peer
    meta = result[0]
    stage = meta.get("stage")
    if stage == "count" and peer == "server1":
        span.counts["opening_rounds"] = meta["opening_rounds"]
    elif stage == "release":
        span.counts[f"{peer}_s"] = float(meta["seconds"])
        if peer == "server1" and "rounds_checked" in meta:
            span.counts["mac_rounds"] = meta["rounds_checked"]
            span.counts["mac_values"] = meta["values_checked"]
    elif stage == "dealer":
        span.counts["dealer_s"] = float(meta["seconds"])


def _transport_counts(_recorder, span, _args, result) -> None:
    totals = result[0]
    for key in ("frames", "payload_bytes", "wire_bytes"):
        span.counts[key] = totals[key]


def _ledgered_counts(_recorder, span, _args, result) -> None:
    span.counts["ledgered_bytes"] = result


ENTRY_POINTS: List[EntryPoint] = [
    # Evaluation-only plaintext counts (ground truth and projection loss).
    EntryPoint("stats.evaluate", "repro.stats.triangles", "TriangleStatistic.plain_count"),
    EntryPoint("stats.evaluate", "repro.stats.triangles", "TriangleStatistic.projected_count"),
    EntryPoint("stats.evaluate", "repro.stats.kstars", "KStarStatistic.plain_count"),
    EntryPoint("stats.evaluate", "repro.stats.kstars", "KStarStatistic.projected_count"),
    EntryPoint("stats.evaluate", "repro.stats.kstars", "KStarStatistic.degree_count"),
    # Algorithm 1's phases.
    EntryPoint("core.max", "repro.core.max_degree", "MaxDegreeEstimator.run"),
    EntryPoint("core.project", "repro.core.projection", "SimilarityProjection.project_graph"),
    EntryPoint("core.project", "repro.core.projection", "SimilarityProjection.project_degrees"),
    EntryPoint("core.perturb", "repro.core.perturbation", "DistributedPerturbation.run"),
    EntryPoint("stats.secure_count", "repro.stats.triangles",
               "TriangleStatistic.secure_count", _secure_count_counts),
    EntryPoint("stats.secure_count", "repro.stats.kstars",
               "KStarStatistic.secure_count", _secure_count_counts),
    EntryPoint("stats.secure_count", "repro.stats.kstars",
               "KStarStatistic.secure_count_from_degrees", _secure_count_counts),
    EntryPoint("core.backends.share", "repro.core.backends.base", "share_adjacency_rows"),
    # Cryptographic building blocks.
    EntryPoint("crypto.ring.matmul", "repro.crypto.ring", "Ring.matmul", _matmul_counts),
    EntryPoint("crypto.beaver.deal", "repro.crypto.beaver",
               "BeaverTripleDealer.matrix_triple", _deal_counts),
    EntryPoint("crypto.beaver.deal", "repro.crypto.beaver",
               "BeaverTripleDealer.vector_triple", _deal_counts),
    EntryPoint("crypto.beaver.deal", "repro.crypto.beaver",
               "BeaverTripleDealer.scalar_triple", _deal_counts),
    EntryPoint("crypto.beaver.deal", "repro.crypto.beaver", "BeaverTripleDealer.provision_matrix"),
    EntryPoint("crypto.beaver.deal", "repro.crypto.beaver", "BeaverTripleDealer.provision_vector"),
    EntryPoint("crypto.mac.exchange", "repro.crypto.mac", "OpeningAuthenticator.exchange",
               _keep_self("authenticator")),
    # In-process communication ledger (the mailbox runtime).
    EntryPoint("crypto.protocol.ledger", "repro.crypto.protocol", "TwoServerRuntime.__init__",
               _keep_self("runtime")),
    EntryPoint("crypto.protocol.ledger", "repro.crypto.protocol", "TwoServerRuntime.users_to_server"),
    EntryPoint("crypto.protocol.ledger", "repro.crypto.protocol", "TwoServerRuntime.broadcast_to_users"),
    EntryPoint("crypto.protocol.ledger", "repro.crypto.protocol", "Channel.send"),
    EntryPoint("crypto.protocol.ledger", "repro.crypto.protocol", "CommunicationLedger.summary"),
    EntryPoint("crypto.protocol.ledger", "repro.crypto.protocol", "CommunicationLedger.phase_summary"),
    # Process-separated runtime, as seen from the driver process.
    EntryPoint("runtime.driver.spawn", "repro.runtime.driver", "DistributedRuntime.__init__"),
    EntryPoint("runtime.driver.close", "repro.runtime.driver", "DistributedRuntime.close"),
    EntryPoint("runtime.driver.wait", "repro.runtime.wire", "WireEndpoint.recv_expect",
               _wire_reply_counts),
]

# Read once per release even when the release is not traced, so the wire
# byte count can be compared between a traced and an untraced release.
TRANSPORT_PROBES: List[EntryPoint] = [
    EntryPoint("runtime.transport", "repro.runtime.driver", "_aggregate_transport",
               _transport_counts),
    EntryPoint("runtime.transport", "repro.runtime.driver", "_reconcile_ledger",
               _ledgered_counts),
]


def _wrap(recorder: SpanRecorder, entry: EntryPoint, original: Callable) -> Callable:
    layer, label, on_call = entry.layer, entry.qualname, entry.on_call

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(layer, label) as span:
            result = original(*args, **kwargs)
        if on_call is not None:
            on_call(recorder, span, args, result)
        return result

    return wrapper


@contextmanager
def installed(recorder: SpanRecorder, entry_points: Sequence[EntryPoint]) -> Iterator[None]:
    """Patch *entry_points* to record into *recorder*; restore on exit.

    Every module named by an entry point is imported first, so a module the
    program would import lazily later cannot bind a wrapper by name and keep
    it after the patches are undone.
    """
    undo = []
    try:
        for entry in entry_points:
            module = importlib.import_module(entry.module)
            owner_name, _, attr = entry.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                targets = [owner]
            else:
                original = getattr(module, attr)
                targets = [
                    bound
                    for name, bound in list(sys.modules.items())
                    if name.split(".")[0] == "repro"
                    and bound is not None
                    and bound.__dict__.get(attr) is original
                ]
            wrapper = _wrap(recorder, entry, original)
            for target in targets:
                setattr(target, attr, wrapper)
                undo.append((target, attr, original))
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# ---------------------------------------------------------------------- #
# Per-layer metrics of one traced release
# ---------------------------------------------------------------------- #
# name -> unit, for every metric the traced run reports.  A metric is None
# ("absent") on a workload whose releases never reach its layer.
LAYER_METRICS: Dict[str, str] = {
    "stats.evaluate.s": "s",
    "core.max.s": "s",
    "core.perturb.s": "s",
    "core.project.s": "s",
    "stats.secure_count.s": "s",
    "stats.secure_count.self_s": "s",
    "core.backends.share.s": "s",
    "crypto.ring.matmul.s": "s",
    "crypto.ring.matmul.calls": "count",
    "crypto.ring.matmul.gmac": "count",
    "crypto.beaver.deal.s": "s",
    "crypto.beaver.deal.calls": "count",
    "crypto.beaver.deal.elements": "count",
    "crypto.mac.exchange.s": "s",
    "crypto.mac.rounds": "count",
    "crypto.mac.values": "count",
    "crypto.protocol.ledger.s": "s",
    "crypto.protocol.messages": "count",
    "runtime.driver.spawn_s": "s",
    "runtime.driver.close_s": "s",
    "runtime.driver.wait_s": "s",
    "runtime.server1.s": "s",
    "runtime.server2.s": "s",
    "runtime.dealer.s": "s",
    "runtime.frames": "count",
    "runtime.wire_mb": "MB",
    "runtime.payload_mb": "MB",
    "runtime.overhead_mb": "MB",
    "runtime.unledgered_mb": "MB",
    "count.opening_rounds": "count",
    "release.unattributed_s": "s",
    "trace.spans": "count",
}


def wire_mb(recorder: SpanRecorder) -> Optional[float]:
    """Bytes the distributed runtime wrote to its sockets in one release, in MB."""
    total = layer_totals(recorder.spans).get("runtime.transport")
    return total.counts["wire_bytes"] / 1e6 if total is not None else None


def release_metrics(recorder: SpanRecorder, release_seconds: float) -> Dict[str, Optional[float]]:
    """Every :data:`LAYER_METRICS` value for one traced release."""
    totals = layer_totals(recorder.spans)

    def seconds(layer: str) -> Optional[float]:
        return totals[layer].seconds if layer in totals else None

    def counted(layer: str, key: str) -> Optional[float]:
        total = totals.get(layer)
        return total.counts.get(key) if total is not None else None

    def calls(layer: str) -> Optional[float]:
        return totals[layer].calls if layer in totals else None

    def first(*values: Optional[float]) -> Optional[float]:
        return next((value for value in values if value is not None), None)

    def megabytes(value: Optional[float]) -> Optional[float]:
        return None if value is None else value / 1e6

    authenticators = [
        auth for auth in recorder.objects.get("authenticator", {}).values() if auth.enabled
    ]
    runtimes = list(recorder.objects.get("runtime", {}).values())
    payload = counted("runtime.transport", "payload_bytes")
    ledgered = counted("runtime.transport", "ledgered_bytes")
    wire = wire_mb(recorder)
    top_level = sum(span.duration for span in recorder.spans if span.parent is None)
    return {
        "stats.evaluate.s": seconds("stats.evaluate"),
        "core.max.s": seconds("core.max"),
        "core.perturb.s": seconds("core.perturb"),
        "core.project.s": seconds("core.project"),
        "stats.secure_count.s": seconds("stats.secure_count"),
        "stats.secure_count.self_s": (
            totals["stats.secure_count"].self_seconds if "stats.secure_count" in totals else None
        ),
        "core.backends.share.s": seconds("core.backends.share"),
        "crypto.ring.matmul.s": seconds("crypto.ring.matmul"),
        "crypto.ring.matmul.calls": calls("crypto.ring.matmul"),
        "crypto.ring.matmul.gmac": counted("crypto.ring.matmul", "gmac"),
        "crypto.beaver.deal.s": seconds("crypto.beaver.deal"),
        "crypto.beaver.deal.calls": calls("crypto.beaver.deal"),
        "crypto.beaver.deal.elements": counted("crypto.beaver.deal", "elements"),
        "crypto.mac.exchange.s": seconds("crypto.mac.exchange"),
        "crypto.mac.rounds": first(
            sum(auth.rounds_checked for auth in authenticators) if authenticators else None,
            counted("runtime.driver.wait", "mac_rounds"),
        ),
        "crypto.mac.values": first(
            sum(auth.values_checked for auth in authenticators) if authenticators else None,
            counted("runtime.driver.wait", "mac_values"),
        ),
        "crypto.protocol.ledger.s": seconds("crypto.protocol.ledger"),
        "crypto.protocol.messages": (
            sum(runtime.ledger.total_messages for runtime in runtimes) if runtimes else None
        ),
        "runtime.driver.spawn_s": seconds("runtime.driver.spawn"),
        "runtime.driver.close_s": seconds("runtime.driver.close"),
        "runtime.driver.wait_s": seconds("runtime.driver.wait"),
        "runtime.server1.s": counted("runtime.driver.wait", "server1_s"),
        "runtime.server2.s": counted("runtime.driver.wait", "server2_s"),
        "runtime.dealer.s": counted("runtime.driver.wait", "dealer_s"),
        "runtime.frames": counted("runtime.transport", "frames"),
        "runtime.wire_mb": wire,
        "runtime.payload_mb": megabytes(payload),
        "runtime.overhead_mb": None if wire is None else wire - payload / 1e6,
        "runtime.unledgered_mb": megabytes(None if ledgered is None else payload - ledgered),
        "count.opening_rounds": first(
            counted("stats.secure_count", "opening_rounds"),
            counted("runtime.driver.wait", "opening_rounds"),
        ),
        "release.unattributed_s": release_seconds - top_level,
        "trace.spans": len(recorder.spans),
    }
