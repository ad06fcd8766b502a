"""Telemetry determinism, recorder thread-safety and triple-store reuse.

Covered here: traced runs are bit-identical to untraced ones and the
blocked backend's tile-group spans follow the canonical schedule; the
thread-safety of :class:`ViewRecorder`/:class:`CommunicationLedger`; and
warm/cold triple-store equivalence through the whole `Cargo` pipeline,
including the explicit exhaustion errors on truncated stored material.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends import (
    BlockedMatrixTriangleCounter,
    FaithfulTriangleCounter,
    share_adjacency_rows,
)
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.protocol import CommunicationLedger
from repro.crypto.views import ViewRecorder
from repro.exceptions import DealerError
from repro.graph import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import TripleStore
from repro.stream import StreamingCargo, StreamingConfig, replay_stream

BACKENDS = ("faithful", "batched", "matrix", "blocked")
STATISTICS = ("triangles", "kstars", "wedges", "4cycles")


def _view_streams(views: ViewRecorder):
    """Both servers' recorded observations as comparable byte tuples."""
    def freeze(value):
        if isinstance(value, (tuple, list)):
            return tuple(freeze(part) for part in value)
        array = np.atleast_1d(np.asarray(value, dtype=np.uint64))
        return (array.shape, array.tobytes())

    streams = []
    for server_index in (1, 2):
        for entry in views.view(server_index).entries:
            streams.append((entry.server_index, entry.label, freeze(entry.value)))
    return streams


def _run_cargo(graph, statistic, backend, store=None, telemetry=None):
    config = CargoConfig(
        epsilon=2.0,
        seed=7,
        statistic=statistic,
        counting_backend=backend,
        batch_size=64,
        block_size=16,
        triple_store=store,
        record_views=True,
        track_communication=True,
        telemetry=telemetry,
    )
    cargo = Cargo(config)
    result = cargo.run(graph)
    return (
        result.noisy_triangle_count,
        result.true_triangle_count,
        result.projected_triangle_count,
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in result.communication.items())),
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in result.communication_phases.items())),
        _view_streams(cargo.views),
    )


class TestTelemetryDeterminism:
    """Tracing never perturbs the transcript, and the blocked backend's
    tile-group spans follow the canonical schedule."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook", num_nodes=30)

    @staticmethod
    def _traced(graph, backend):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        transcript = _run_cargo(graph, "triangles", backend, telemetry=telemetry)
        return (
            transcript,
            telemetry.tracer.structure(),
            telemetry.metrics.counters(),
            telemetry.metrics.gauges(),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_and_metrics_identical_across_runs(self, graph, backend):
        """Two fresh runs with one seed give the same transcript, span
        tree and metric registry: no state leaks between runs."""
        assert self._traced(graph, backend) == self._traced(graph, backend), backend

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_transcript_bit_identical_traced_vs_untraced(self, graph, backend, statistic):
        from repro.telemetry import Telemetry

        untraced = _run_cargo(graph, statistic, backend)
        traced = _run_cargo(graph, statistic, backend, telemetry=Telemetry())
        assert traced == untraced, (backend, statistic)

    def test_blocked_tile_group_spans_follow_schedule(self, graph):
        """Every tile group appears exactly once, in canonical (j0, k0)
        order."""
        _, structure, _, _ = self._traced(graph, "blocked")
        (root,) = structure
        count_span = next(s for s in root["children"] if s["name"] == "count")
        backend_span = next(
            s for s in count_span["children"] if s["name"] == "backend"
        )
        groups = [
            (s["attributes"]["j0"], s["attributes"]["k0"])
            for s in backend_span["children"]
            if s["name"] == "tile_group"
        ]
        assert groups == sorted(groups)
        # n=30, block=16 → 2x2 grid, upper-triangular (j0 <= k0) schedule.
        assert groups == [(0, 0), (0, 16), (16, 16)]


class TestTripleStoreThroughPipeline:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook", num_nodes=30)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_and_warm_store_equal_the_store_less_run(self, graph, backend):
        """A store only moves where material is dealt, never a value on the
        wire: cold and warm runs equal the store-less run on every backend."""
        reference = _run_cargo(graph, "triangles", backend)
        store = TripleStore()
        cold = _run_cargo(graph, "triangles", backend, store=store)
        warm = _run_cargo(graph, "triangles", backend, store=store)
        assert (store.stats()["stores"], store.hits) == (1, 1), backend
        assert cold == reference, backend
        assert warm == reference, backend

    def test_warm_rerun_is_bit_identical_and_skips_dealing(self):
        graph = load_dataset("facebook", num_nodes=24)
        store = TripleStore()
        cold = _run_cargo(graph, "triangles", "blocked", store=store)
        assert store.stats()["stores"] == 1
        warm = _run_cargo(graph, "triangles", "blocked", store=store)
        assert store.hits >= 1
        assert warm == cold

    def test_streaming_anchors_reuse_dealt_material(self):
        graph = load_dataset("facebook", num_nodes=40)
        stream = replay_stream(graph, rng=0)
        store = TripleStore()
        config = StreamingConfig(
            epsilon=4.0,
            release_every=20,
            anchor_every=2,
            seed=3,
            counting_backend="blocked",
            block_size=16,
            triple_store=store,
        )
        result = StreamingCargo(config).run(stream)
        assert result.anchors_run >= 2
        # Every anchor after the first fetches its material warm.
        assert store.hits >= result.anchors_run - 1
        # Estimates are identical to a plain serial run: the secure count is
        # exact regardless of which masks the dealer used.
        plain = StreamingCargo(
            StreamingConfig(
                epsilon=4.0,
                release_every=20,
                anchor_every=2,
                seed=3,
                counting_backend="blocked",
                block_size=16,
            )
        ).run(stream)
        assert [r.estimate for r in result.releases] == [r.estimate for r in plain.releases]

    def test_offline_seed_enables_cross_run_reuse(self):
        graph = load_dataset("facebook", num_nodes=24)
        store = TripleStore()
        config = CargoConfig(
            epsilon=2.0,
            seed=9,
            counting_backend="blocked",
            block_size=16,
            offline_seed=1234,
            triple_store=store,
        )
        first = Cargo(config).run(graph)
        second = Cargo(config).run(graph)
        assert first.noisy_triangle_count == second.noisy_triangle_count
        assert store.hits >= 1


class TestExhaustionErrors:
    def test_truncated_blocked_material_raises(self):
        graph = erdos_renyi_graph(20, 0.5, seed=1)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=2)
        store = TripleStore()
        counter = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=5),
            block_size=8,
            triple_store=store,
        )
        counter.count_from_shares(share1, share2)
        # Corrupt the stored batch: drop the last group's material.
        (token, material), = counter._store._entries.items()
        counter._store._entries[token] = material[:-1]
        warm = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=5),
            block_size=8,
            triple_store=store,
        )
        with pytest.raises(DealerError, match="material mismatch"):
            warm.count_from_shares(share1, share2)

    def test_truncated_group_stream_raises(self):
        graph = erdos_renyi_graph(12, 0.5, seed=1)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=2)
        store = TripleStore()
        counter = FaithfulTriangleCounter(
            dealer=MultiplicationGroupDealer(seed=5),
            batch_size=16,
            triple_store=store,
        )
        counter.count_from_shares(share1, share2)
        (token, material), = store._entries.items()
        store._entries[token] = {"blocks": material["blocks"][:-1]}
        warm = FaithfulTriangleCounter(
            dealer=MultiplicationGroupDealer(seed=5),
            batch_size=16,
            triple_store=store,
        )
        with pytest.raises(DealerError):
            warm.count_from_shares(share1, share2)


class TestRecorderThreadSafety:
    """Satellite regression: concurrent appends must never lose entries."""

    def test_view_recorder_concurrent_observe(self):
        views = ViewRecorder()
        threads = 8
        per_thread = 500

        def hammer(tid):
            for i in range(per_thread):
                views.observe(1 + (i % 2), f"t{tid}", i)

        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        total = len(views.view(1)) + len(views.view(2))
        assert total == threads * per_thread

    def test_ledger_concurrent_record(self):
        ledger = CommunicationLedger()
        threads = 8
        per_thread = 500

        def hammer(tid):
            for i in range(per_thread):
                ledger.record(f"chan-{i % 3}", 7, phase=f"phase-{tid % 2}")

        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert ledger.total_messages == threads * per_thread
        assert ledger.total_bytes == threads * per_thread * 8
        assert sum(ledger.phase_messages.values()) == threads * per_thread

    def test_view_shard_merge_preserves_order(self):
        parent = ViewRecorder()
        shard_a = ViewRecorder()
        shard_b = ViewRecorder()
        shard_a.observe(1, "opening", 1)
        shard_a.observe(1, "opening", 2)
        shard_b.observe(1, "opening", 3)
        parent.merge_from(shard_a)
        parent.merge_from(shard_b)
        assert parent.view(1).values("opening") == [1, 2, 3]
