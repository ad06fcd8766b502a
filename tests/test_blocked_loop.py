"""The blocked backend's one count loop.

Every way of running the loop — material dealt just before use (the
default), chunked by ``tile_window``, or materialised per chunk into a
cold or warm :class:`~repro.parallel.TripleStore` — draws group ``g``'s
randomness from the ``g``-th sub-dealer and reduces in schedule order, so
all of them must agree on the count shares, every opening and the dealer
tallies.  The default path must also hold only one tile of correlated
randomness at a time, never the whole schedule's.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core.backends import BlockedMatrixTriangleCounter, share_adjacency_rows
from repro.core.backends.blocked import tile_schedule, upper_block
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.views import ViewRecorder
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.graph.triangles import count_triangles
from repro.parallel import TripleStore

NUM_USERS = 70
BLOCK_SIZE = 16


@pytest.fixture(scope="module")
def shares():
    graph = load_dataset("facebook", num_nodes=NUM_USERS)
    return share_adjacency_rows(graph.adjacency_matrix(), rng=NUM_USERS)


def _run(shares, tile_window=None, store=None):
    views = ViewRecorder()
    dealer = BeaverTripleDealer(seed=17)
    counter = BlockedMatrixTriangleCounter(
        dealer=dealer,
        block_size=BLOCK_SIZE,
        views=views,
        triple_store=store,
        tile_window=tile_window,
    )
    result = counter.count_from_shares(*shares)
    openings = [
        tuple(np.asarray(part, dtype=np.uint64).tobytes() for part in entry)
        for server in (1, 2)
        for entry in views.view(server).values("matrix_beaver_opening")
    ]
    return result, openings, dealer.accounting()


class TestOneLoop:
    @pytest.mark.parametrize("tile_window", [None, 1, 2])
    @pytest.mark.parametrize("store_state", ["none", "cold", "warm"])
    def test_every_chunking_matches_the_default(self, shares, tile_window, store_state):
        reference = _run(shares)
        store = None
        if store_state != "none":
            store = TripleStore()
            if store_state == "warm":
                _run(shares, tile_window=tile_window, store=store)
        result, openings, accounting = _run(shares, tile_window=tile_window, store=store)
        if store_state == "warm":
            assert store.hits > 0
        assert result == reference[0]
        assert openings == reference[1]
        assert accounting == reference[2]
        assert result.reconstruct() > 0


class TestOneTileAtATime:
    def test_default_peak_is_below_two_groups_of_material(self):
        n, block_size = 256, 32
        graph = load_dataset("facebook", num_nodes=n)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=1)
        schedule = tile_schedule(n, block_size)
        # x, y, z for both servers: six block-sized uint64 arrays per triple,
        # one matrix triple per I tile plus the element-wise triple.
        triple_bytes = 6 * block_size * block_size * 8
        largest_group = max(len(group[4]) + 1 for group in schedule) * triple_bytes
        whole_schedule = sum(len(group[4]) + 1 for group in schedule) * triple_bytes
        assert whole_schedule > 10 * largest_group  # the bound below can fail

        counter = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=2), block_size=block_size
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            result = counter.count_from_shares(share1, share2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.opening_rounds == sum(len(group[4]) + 1 for group in schedule)
        assert peak - before < 2 * largest_group


class TestTileSchedule:
    @pytest.mark.parametrize(
        "n, block_size", [(1, 1), (3, 1), (5, 2), (7, 3), (16, 4), (17, 16)]
    )
    def test_every_candidate_triple_is_covered_once(self, n, block_size):
        """Each ``i < j < k`` falls in exactly one (I tile, J, K) cell."""
        hits = {}
        for j0, j1, k0, k1, i_tiles in tile_schedule(n, block_size):
            for i0, i1 in i_tiles:
                for i, j, k in itertools.product(
                    range(i0, i1), range(j0, j1), range(k0, k1)
                ):
                    if i < j < k:
                        hits[(i, j, k)] = hits.get((i, j, k), 0) + 1
        assert sorted(hits) == list(itertools.combinations(range(n), 3))
        assert set(hits.values()) <= {1}

    @pytest.mark.parametrize("block_size", [1, 3, 8, 40])
    def test_upper_blocks_reassemble_the_strict_upper_triangle(self, block_size):
        n = 20
        rng = np.random.default_rng(block_size)
        shares = rng.integers(0, 1 << 63, (n, n), dtype=np.uint64)
        assembled = np.zeros_like(shares)
        for r0 in range(0, n, block_size):
            for c0 in range(0, n, block_size):
                r1, c1 = min(r0 + block_size, n), min(c0 + block_size, n)
                assembled[r0:r1, c0:c1] = upper_block(DEFAULT_RING, shares, r0, r1, c0, c1)
        assert np.array_equal(assembled, np.triu(shares, 1))

    def test_server_tiles_with_the_backend_helpers(self):
        from repro.core.backends import blocked
        from repro.runtime import server

        assert server.tile_schedule is blocked.tile_schedule
        assert server.upper_block is blocked.upper_block
        assert server.strict_upper_mask is blocked.strict_upper_mask


class TestBlockSizes:
    @pytest.mark.parametrize("block_size", [1, 3, 7, 20, 32])
    def test_count_matches_plaintext(self, block_size):
        graph = erdos_renyi_graph(20, 0.5, seed=4)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=5)
        result = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=6), block_size=block_size
        ).count_from_shares(share1, share2)
        assert result.reconstruct() == count_triangles(graph)
        assert result.opening_rounds == sum(
            len(group[4]) + 1 for group in tile_schedule(20, block_size)
        )


class _Recorder:
    """Stands in for a dealer-to-server wire endpoint; keeps what is sent."""

    def __init__(self):
        self.arrays = []

    def send(self, kind, meta, arrays=()):
        self.arrays.extend(np.asarray(array).tobytes() for array in arrays)


class TestForkedDealer:
    @pytest.mark.parametrize("block_size", [4, 5, 14])
    def test_ships_the_in_process_material(self, block_size):
        """The forked dealer ships, in order, exactly the triples the
        in-process loop stores for the same dealer seed."""
        from repro.runtime.dealer import _deal_blocked

        n = 14
        graph = erdos_renyi_graph(n, 0.5, seed=7)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=8)
        store = TripleStore()
        BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=29), block_size=block_size, triple_store=store
        ).count_from_shares(share1, share2)
        (materials,) = store._entries.values()
        expected = {1: [], 2: []}
        for material in materials:
            for pair in [*material["matrix"], material["elementwise"]]:
                for server, triple in ((1, pair.server1), (2, pair.server2)):
                    expected[server].extend(
                        np.asarray(part).tobytes() for part in (triple.x, triple.y, triple.z)
                    )

        server1, server2 = _Recorder(), _Recorder()
        spec = {
            "num_users": n,
            "ring": DEFAULT_RING,
            "dealer_rng": 29,
            "block_size": block_size,
        }
        _deal_blocked(spec, server1, server2)
        assert expected[1]
        assert server1.arrays == expected[1]
        assert server2.arrays == expected[2]
