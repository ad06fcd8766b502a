"""Unit tests for the reusable offline phase (:mod:`repro.parallel.store`).

The store's contract is narrow but load-bearing: a warm hit must return
exactly the bytes a cold re-deal from the same dealer seed would produce,
mismatched or truncated material must fail loudly rather than serve, and the
cache must stay inside its memory budget.  Dealer-level export/import and
fingerprinting are covered here too, because they are what make the memoised
material byte-exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.exceptions import DealerError
from repro.parallel import (
    MaterialSequence,
    TripleSignature,
    TripleStore,
    dealer_fingerprint,
)


def _signature(**overrides) -> TripleSignature:
    fields = dict(
        statistic="triangles",
        backend="blocked",
        num_users=32,
        geometry=(("block_size", 8),),
        ring_bits=64,
        dealer_key="seed:1",
    )
    fields.update(overrides)
    return TripleSignature(**fields)


class TestTripleStore:
    def test_miss_then_hit(self):
        store = TripleStore()
        sig = _signature()
        assert store.get(sig) is None
        assert store.put(sig, {"x": np.arange(4, dtype=np.uint64)})
        fetched = store.get(sig)
        assert np.array_equal(fetched["x"], np.arange(4, dtype=np.uint64))
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1

    def test_different_signatures_do_not_collide(self):
        store = TripleStore()
        store.put(_signature(), "a")
        assert store.get(_signature(num_users=33)) is None
        assert store.get(_signature(geometry=(("block_size", 16),))) is None
        assert store.get(_signature(dealer_key="seed:2")) is None
        assert store.get(_signature()) == "a"

    def test_oversize_entries_are_declined(self):
        store = TripleStore(max_entry_bytes=64)
        sig = _signature()
        assert not store.put(sig, {"x": np.zeros(1024, dtype=np.uint64)})
        assert store.get(sig) is None
        assert store.stats()["skipped_oversize"] == 1
        assert not store.accepts_bytes(1024 * 8)
        assert store.accepts_bytes(8)

    def test_lru_eviction_bounds_memory(self):
        store = TripleStore(max_memory_bytes=3000)
        for index in range(4):
            store.put(_signature(num_users=40 + index), np.zeros(128, dtype=np.uint64))
        stats = store.stats()
        assert stats["evictions"] >= 1
        assert stats["memory_bytes"] <= 3000
        # Most-recent entry survives.
        assert store.get(_signature(num_users=43)) is not None

    def test_disk_persistence_survives_a_new_store(self, tmp_path):
        sig = _signature()
        writer = TripleStore(cache_dir=str(tmp_path))
        writer.put(sig, {"x": np.arange(8, dtype=np.uint64)})
        reader = TripleStore(cache_dir=str(tmp_path))
        fetched = reader.get(sig)
        assert fetched is not None
        assert np.array_equal(fetched["x"], np.arange(8, dtype=np.uint64))
        # A different signature never reads a stale file.
        assert reader.get(_signature(num_users=99)) is None

    def test_clear_drops_memory_not_disk(self, tmp_path):
        sig = _signature()
        store = TripleStore(cache_dir=str(tmp_path))
        store.put(sig, "payload")
        store.clear()
        assert store.stats()["entries"] == 0
        assert store.get(sig) == "payload"  # reloaded from disk


class TestMaterialSequence:
    def test_take_and_bounds(self):
        seq = MaterialSequence(["a", "b", "c"], label="test")
        assert seq.take(0) == "a" and seq.take(2) == "c"
        with pytest.raises(DealerError, match="exhausted"):
            seq.take(3)
        with pytest.raises(DealerError, match="exhausted"):
            seq.take(-1)

    def test_require_mismatch(self):
        seq = MaterialSequence(["a"], label="test")
        seq.require(1)
        with pytest.raises(DealerError, match="mismatch"):
            seq.require(2)


class TestDealerFingerprint:
    def test_deterministic_for_equal_seeds(self):
        assert dealer_fingerprint(7) == dealer_fingerprint(7)
        assert dealer_fingerprint(7) != dealer_fingerprint(8)
        g1 = np.random.default_rng(5)
        g2 = np.random.default_rng(5)
        assert dealer_fingerprint(g1) == dealer_fingerprint(g2)
        g1.integers(0, 10)
        assert dealer_fingerprint(g1) != dealer_fingerprint(g2)

    def test_entropy_dealers_never_collide(self):
        assert dealer_fingerprint(None) != dealer_fingerprint(None)

    def test_dealer_fingerprint_is_pinned_before_dealing(self):
        dealer = BeaverTripleDealer(seed=3)
        before = dealer.fingerprint()
        dealer.vector_triple((4,))
        assert dealer.fingerprint() == before
        assert before == BeaverTripleDealer(seed=3).fingerprint()


class TestDealerPoolExportImport:
    def test_group_stream_roundtrip_is_byte_exact(self):
        source = MultiplicationGroupDealer(seed=11)
        source.provision(12)
        exported = source.export_pool()
        direct = [source.vector_group((s,)) for s in (5, 7)]

        target = MultiplicationGroupDealer(seed=999)  # seed irrelevant warm
        target.import_pool(exported)
        assert target.provisioned_remaining == 12
        warm = [target.vector_group((s,)) for s in (5, 7)]
        for a, b in zip(direct, warm):
            for field in ("x", "y", "z", "w", "o", "p", "q"):
                assert np.array_equal(getattr(a.server1, field), getattr(b.server1, field))
                assert np.array_equal(getattr(a.server2, field), getattr(b.server2, field))
        assert target.groups_issued == 2

    def test_export_requires_unserved_pool(self):
        dealer = MultiplicationGroupDealer(seed=12)
        dealer.provision(6)
        dealer.vector_group((2,))
        with pytest.raises(DealerError):
            dealer.export_pool()

    def test_import_over_nonempty_pool_rejected(self):
        dealer = MultiplicationGroupDealer(seed=13)
        dealer.provision(4)
        other = MultiplicationGroupDealer(seed=14)
        other.provision(4)
        with pytest.raises(DealerError):
            dealer.import_pool(other.export_pool())

    def test_import_rejects_malformed_blocks(self):
        dealer = MultiplicationGroupDealer(seed=15)
        with pytest.raises(DealerError):
            dealer.import_pool([({"x": 1}, {"x": 1}, 1)])
        with pytest.raises(DealerError):
            dealer.import_pool(["nonsense"])


class TestBeaverAccounting:
    def test_absorb_accounting_matches_direct_dealing(self):
        direct = BeaverTripleDealer(seed=21)
        direct.matrix_triple((4, 4), (4, 4))
        direct.vector_triple((6,))

        parent = BeaverTripleDealer(seed=22)
        child = BeaverTripleDealer(seed=21)
        child.matrix_triple((4, 4), (4, 4))
        child.vector_triple((6,))
        parent.absorb_accounting(*child.accounting())
        assert parent.accounting() == direct.accounting()

    def test_absorb_rejects_negative_tallies(self):
        dealer = BeaverTripleDealer(seed=23)
        with pytest.raises(DealerError):
            dealer.absorb_accounting(-1, 0, 0)

    def test_subdealers_are_deterministic_per_seed(self):
        a = BeaverTripleDealer(seed=31).spawn_subdealers(3)
        b = BeaverTripleDealer(seed=31).spawn_subdealers(3)
        for left, right in zip(a, b):
            la = left.vector_triple((4,))
            ra = right.vector_triple((4,))
            assert np.array_equal(la.server1.x, ra.server1.x)


class TestMmapStore:
    """mmap mode: array bytes live in a flat ``.bin`` file and come back as
    read-only :class:`numpy.memmap` views, never as resident heap copies."""

    def test_requires_cache_dir(self):
        with pytest.raises(DealerError, match="cache_dir"):
            TripleStore(mmap=True)

    def test_round_trip_writes_npk_bin_pair(self, tmp_path):
        store = TripleStore(cache_dir=str(tmp_path), mmap=True)
        sig = _signature()
        material = [
            {"x": np.arange(16, dtype=np.uint64), "count": 7},
            {"x": np.arange(5, dtype=np.uint64) * 3, "count": 8},
        ]
        assert store.put(sig, material)
        assert len(list(tmp_path.glob("*.npk"))) == 1
        assert len(list(tmp_path.glob("*.bin"))) == 1
        fetched = store.get(sig)
        assert len(fetched) == 2
        for original, loaded in zip(material, fetched):
            assert np.array_equal(loaded["x"], original["x"])
            assert loaded["count"] == original["count"]

    def test_fetched_arrays_are_read_only_memmaps(self, tmp_path):
        store = TripleStore(cache_dir=str(tmp_path), mmap=True)
        sig = _signature()
        store.put(sig, {"x": np.arange(8, dtype=np.uint64)})
        fetched = store.get(sig)
        assert isinstance(fetched["x"], np.memmap)
        with pytest.raises(ValueError):
            fetched["x"][0] = 1

    def test_hits_and_misses_are_counted(self, tmp_path):
        store = TripleStore(cache_dir=str(tmp_path), mmap=True)
        sig = _signature()
        assert store.get(sig) is None
        store.put(sig, {"x": np.ones(4, dtype=np.uint64)})
        assert store.get(sig) is not None
        assert store.get(sig) is not None
        stats = store.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2 and stats["stores"] == 1

    def test_no_resident_entries_or_size_decline(self, tmp_path):
        # The LRU and the oversize rule guard resident memory, which mmap
        # entries never consume; both are bypassed.
        store = TripleStore(cache_dir=str(tmp_path), mmap=True, max_entry_bytes=8)
        assert store.accepts_bytes(1 << 30)
        sig = _signature()
        assert store.put(sig, {"x": np.zeros(1024, dtype=np.uint64)})
        stats = store.stats()
        assert stats["entries"] == 0 and stats["memory_bytes"] == 0
        assert store.get(sig) is not None

    def test_survives_a_new_store_on_the_same_dir(self, tmp_path):
        sig = _signature()
        writer = TripleStore(cache_dir=str(tmp_path), mmap=True)
        writer.put(sig, {"x": np.arange(12, dtype=np.uint64)})
        reader = TripleStore(cache_dir=str(tmp_path), mmap=True)
        fetched = reader.get(sig)
        assert np.array_equal(fetched["x"], np.arange(12, dtype=np.uint64))
        assert reader.hits == 1

    def test_mismatched_signature_is_never_served(self, tmp_path):
        store = TripleStore(cache_dir=str(tmp_path), mmap=True)
        store.put(_signature(), {"x": np.ones(4, dtype=np.uint64)})
        assert store.get(_signature(dealer_key="seed:2")) is None

    def test_plain_store_ignores_mmap_files(self, tmp_path):
        mmap_store = TripleStore(cache_dir=str(tmp_path), mmap=True)
        sig = _signature()
        mmap_store.put(sig, {"x": np.ones(4, dtype=np.uint64)})
        plain = TripleStore(cache_dir=str(tmp_path))
        assert plain.get(sig) is None


class TestMatrixBackendStoreKey:
    def test_dense_entry_from_an_older_layout_misses(self, tmp_path):
        """A store written with dense ``n x n`` matrix triples is never served
        to the packed triangular count: its signature differs in geometry."""
        from repro.core.backends import MatrixTriangleCounter, share_adjacency_rows
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.triangles import count_triangles

        n = 12
        graph = erdos_renyi_graph(n, 0.5, seed=3)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=3)
        old_dealer = BeaverTripleDealer(seed=11)
        dense_signature = TripleSignature(
            statistic="triangles",
            backend="matrix",
            num_users=n,
            geometry=(("layout", "monolithic"),),
            ring_bits=64,
            dealer_key=old_dealer.fingerprint(),
        )
        writer = TripleStore(cache_dir=str(tmp_path))
        writer.put(
            dense_signature,
            {
                "matrix": old_dealer.matrix_triple((n, n), (n, n)),
                "elementwise": old_dealer.vector_triple((n, n)),
                "accounting": old_dealer.accounting(),
            },
        )

        store = TripleStore(cache_dir=str(tmp_path))
        counted = MatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=11), triple_store=store
        ).count_from_shares(share1, share2)
        assert counted.reconstruct() == count_triangles(graph)
        assert store.stats()["hits"] == 0
        assert store.stats()["misses"] == 1
        assert store.get(dense_signature) is not None  # still there, just not served
