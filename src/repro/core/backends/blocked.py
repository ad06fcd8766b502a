"""Blocked/tiled secure triangle counting — the ``blocked`` backend.

The monolithic matrix backend (:mod:`repro.core.backends.matrix`) is fast but
memory-hungry: its single matrix Beaver triple materialises several ``n x n``
ring arrays at once (per server: ``X``, ``Y``, ``Z`` plus the opened ``E`` and
``F``), so the dealer's peak allocation grows quadratically with the user
count and becomes the protocol's scaling wall long before compute does.

This backend evaluates the identical matrix formulation

``T = sum_{j<k} C[j, k] * (C^T C)[j, k]``

in fixed-size tiles of ``block_size`` columns/rows.  Writing ``J, K, I`` for
``block_size``-wide index ranges, the servers compute, tile by tile,

``M_{JK} = sum_I C[I, J]^T @ C[I, K]``

with one *small* matrix Beaver triple per ``(I, J, K)`` tile, then finish each
``(J, K)`` tile with one small element-wise triple for ``C[J, K] ⊙ M_{JK}``
and a local sum.  Every product that enters the count is the same ring
multiplication the monolithic backend performs — only the grouping of the
openings differs — so the reconstructed count is bit-identical and each
opening reveals only Beaver-masked (uniformly random) values, preserving the
view-security properties.  Tiles that are structurally zero (entirely on or
below the diagonal, where the public strict-upper mask vanishes) are skipped
outright; the decision depends only on public indices.

Each tile product costs two ring products per server
(:func:`~repro.crypto.secure_ops.matrix_beaver_share`) plus the dealer's
``Z = X @ Y``.  The payoff: peak additional allocation per opening round is
``O(block_size^2)`` instead of ``O(n^2)``, and the dealer streams one tile
triple at a time instead of allocating a giant triple upfront, at the cost of
more opening rounds (``O((n / block_size)^3)`` instead of two).  Choose
``block_size`` to trade round count against memory; the default suits graphs
in the tens of thousands of users.

**One loop.**  The canonical schedule (:func:`tile_schedule`) lists the
``(J, K)`` tile groups, each with the I tiles that contribute to it.  The
groups are mutually independent: group ``g`` draws all its correlated
randomness from the ``g``-th sub-dealer spawned (once) from the dealer's
seed, and subtotals, views and spans reduce in schedule order.  By default
each tile triple is dealt just before it is used, so the count holds one
tile of material at a time.  ``tile_window`` and a configured
:class:`~repro.parallel.store.TripleStore` only chunk this one loop: each
chunk's material is materialised together (or fetched warm from the store,
as one entry), so repeated runs, sweep cells and streaming anchors skip the
offline phase.  Because the randomness is keyed by group index, the
transcript is the same for every window, store state and resumed journal,
and the forked dealer (:mod:`repro.runtime.dealer`) deals the same
material.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from typing import Iterator, List, Optional

import numpy as np

from repro.core.backends.base import CountResult, TriangleCounterBackend, num_candidate_triples
from repro.core.backends.registry import register_backend
from repro.crypto.beaver import BeaverTripleDealer, BeaverTriplePair
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import secure_matrix_multiply, secure_multiply_pair
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError
from repro.parallel import MaterialSequence, TripleSignature
from repro.resilience import NULL_RESILIENCE, Checkpointer
from repro.resilience.faults import fault_point
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

#: Default tile width; 128² ring elements per triple ≈ 128 KiB per array.
DEFAULT_BLOCK_SIZE = 128


def tile_schedule(n: int, block_size: int) -> List[tuple]:
    """Canonical ``(j0, j1, k0, k1, i_tiles)`` groups of the blocked count.

    Pure function of public quantities.  Groups entirely on or below the
    diagonal (no pair ``j < k``) are left out, and so are I tiles whose
    ``C[I, J]`` is structurally zero (``i >= j`` throughout).  Both the
    dealing order and the reduction order are fixed by this list.
    """
    blocks = [(start, min(start + block_size, n)) for start in range(0, n, block_size)]
    return [
        (j0, j1, k0, k1, [(i0, i1) for i0, i1 in blocks if i0 < j1 - 1])
        for j0, j1 in blocks
        for k0, k1 in blocks
        if j0 < k1 - 1
    ]


def deal_tile_group(group: tuple, dealer: BeaverTripleDealer) -> Iterator[BeaverTriplePair]:
    """One group's triples in consumption order, dealt as they are drawn.

    A matrix triple per I tile, then the element-wise triple that finishes
    ``C[J, K] ⊙ M_{JK}``.  The in-process backend and the forked dealer
    both deal through this generator.
    """
    j0, j1, k0, k1, i_tiles = group
    for i0, i1 in i_tiles:
        yield dealer.matrix_triple((j1 - j0, i1 - i0), (i1 - i0, k1 - k0))
    yield dealer.vector_triple((j1 - j0, k1 - k0))


def strict_upper_mask(ring: Ring, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """The strict-upper-triangle indicator restricted to one tile."""
    rows = np.arange(r0, r1, dtype=np.int64)[:, None]
    cols = np.arange(c0, c1, dtype=np.int64)[None, :]
    return (rows < cols).astype(ring.dtype)


def upper_block(ring: Ring, shares: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """One tile of the strictly-upper-masked share matrix ``C``.

    The mask is public, so applying it per tile is the same local linear
    operation the monolithic backend performs globally — without ever
    materialising a second ``n x n`` array.
    """
    block = shares[r0:r1, c0:c1]
    if r1 <= c0:
        # Entirely above the diagonal: the mask is all ones.
        return block
    return ring.mul(block, strict_upper_mask(ring, r0, r1, c0, c1))


@register_backend("blocked")
class BlockedMatrixTriangleCounter(TriangleCounterBackend):
    """Tile-streamed secure triangle counting with bounded peak memory.

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Beaver-triple dealer whose seed keys every group's sub-dealer; a
        fresh one is created when not supplied.
    block_size:
        Tile width.  Peak per-opening allocation is ``O(block_size^2)``;
        smaller values bound memory tighter but cost more opening rounds.
    views:
        Optional view recorder for the security tests.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` memoising the
        dealt tile material, one entry per chunk of the schedule.
    tile_window:
        Chunk length, in ``(J, K)`` groups.  Each chunk's material is dealt
        (or loaded warm from the *triple_store*, as one entry) together, so
        chunked memory is ``O(tile_window · block_size²)``; a configured
        checkpoint journals the count after each chunk.  ``None`` makes the
        whole schedule one chunk, which is materialised only for a store.
        The transcript is the same for every value.
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[BeaverTripleDealer] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        views: Optional[ViewRecorder] = None,
        triple_store=None,
        tile_window: Optional[int] = None,
        telemetry=None,
        resilience=None,
        authenticator=None,
    ) -> None:
        if block_size <= 0:
            raise ProtocolError(f"block_size must be positive, got {block_size}")
        if tile_window is not None and tile_window < 1:
            raise ProtocolError(
                f"tile_window must be at least 1 (or None), got {tile_window}"
            )
        super().__init__(
            ring=ring, views=views, telemetry=telemetry, authenticator=authenticator
        )
        self._dealer = dealer if dealer is not None else BeaverTripleDealer(ring=ring)
        self._block_size = block_size
        self._store = triple_store
        self._tile_window = tile_window
        self._resilience = resilience if resilience is not None else NULL_RESILIENCE

    @property
    def block_size(self) -> int:
        """Tile width used for the streamed matrix products."""
        return self._block_size

    @property
    def tile_window(self) -> Optional[int]:
        """Chunk length in groups, or ``None`` for one whole-schedule chunk."""
        return self._tile_window

    @classmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        authenticator=None,
    ) -> "BlockedMatrixTriangleCounter":
        dealer = BeaverTripleDealer(ring=config.ring, seed=dealer_rng)
        return cls(
            ring=config.ring,
            dealer=dealer,
            block_size=getattr(config, "block_size", DEFAULT_BLOCK_SIZE),
            views=views,
            triple_store=getattr(config, "triple_store", None),
            tile_window=getattr(config, "tile_window", None),
            telemetry=resolve_telemetry(config),
            resilience=getattr(config, "resilience", None),
            authenticator=authenticator,
        )

    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count group by group over the canonical schedule.

        The schedule is walked in chunks of ``tile_window`` groups (one chunk
        without a window).  By default each group deals its triples from its
        sub-dealer just before use; with a window or a store, a chunk's
        material is dealt (or fetched warm) together, consumed, and dropped
        before the next chunk.  A configured checkpoint (windowed runs) journals the
        running subtotals, views and absorbed dealer tallies after each
        chunk, and a resumed run skips the journalled chunks: group
        randomness comes from per-group substreams, so their absence changes
        nothing downstream.
        """
        ring = self._ring
        share1, share2 = self._validate_share_matrices(share1, share2)
        n = share1.shape[0]
        if n < 3:
            return CountResult(share1=0, share2=0, num_triples_processed=0, opening_rounds=0)
        schedule = tile_schedule(n, self._block_size)
        window = self._tile_window
        chunk_size = window or len(schedule)
        tracer = self._telemetry.tracer
        # The dealer key is taken before any children are spawned so chunk
        # signatures match across runs regardless of which chunks run warm.
        dealer_key = self._dealer.fingerprint()
        sub_dealers: List[BeaverTripleDealer] = []
        total1 = 0
        total2 = 0
        opening_rounds = 0
        resilience = self._resilience
        journal = None
        completed_chunks = 0
        journal_views: Optional[ViewRecorder] = None
        absorbed_accounting: List[tuple] = []
        if window is not None and resilience.checkpoint_path is not None:
            journal = Checkpointer(
                resilience.checkpoint_path,
                kind="tiles",
                token=self._journal_token(n, dealer_key),
                retry=resilience.retry,
                metrics=self._telemetry.metrics if self._telemetry.enabled else None,
            )
            if resilience.resume and journal.exists():
                state = journal.load()
                completed_chunks = state["completed_chunks"]
                total1 = state["total1"]
                total2 = state["total2"]
                opening_rounds = state["opening_rounds"]
                journal_views = state["views"]
                absorbed_accounting = list(state["accounting"])
                for tallies in absorbed_accounting:
                    self._dealer.absorb_accounting(*tallies)
                if self._views is not None and journal_views is not None:
                    self._views.merge_from(journal_views)
            if self._views is not None and journal_views is None:
                journal_views = ViewRecorder()

        def sub_dealer(index: int) -> BeaverTripleDealer:
            # Spawned once, for the whole schedule, on the first cold deal.
            if not sub_dealers:
                sub_dealers.extend(self._dealer.spawn_subdealers(len(schedule)))
            return sub_dealers[index]

        window_attrs = {} if window is None else {"tile_window": window}
        with tracer.span(
            "backend", backend="blocked", num_users=n, block_size=self._block_size,
            **window_attrs,
        ) as backend_span:
            for chunk_index, chunk_start in enumerate(range(0, len(schedule), chunk_size)):
                if chunk_index < completed_chunks:
                    continue
                chunk = schedule[chunk_start : chunk_start + chunk_size]
                chunk_span = (
                    nullcontext() if window is None
                    else tracer.span("tile_chunk", chunk=chunk_index, groups=len(chunk))
                )
                with chunk_span:
                    materials = None
                    if window is not None or self._store is not None:
                        materials = self._chunk_materials(
                            n, chunk_index, chunk, chunk_start, dealer_key, sub_dealer
                        )
                    for offset, group in enumerate(chunk):
                        dealer = material = None
                        if materials is None:
                            dealer = sub_dealer(chunk_start + offset)
                        else:
                            material = materials.take(offset)
                        sum1, sum2, shard, tshard = self._task(
                            lambda: self._evaluate_group(
                                group, self._group_triples(group, dealer, material),
                                share1, share2,
                            ),
                            dealer,
                        )
                        tallies = (
                            dealer.accounting() if material is None else material["accounting"]
                        )
                        self._dealer.absorb_accounting(*tallies)
                        if journal is not None:
                            absorbed_accounting.append(tuple(tallies))
                        total1 = ring.add(total1, sum1)
                        total2 = ring.add(total2, sum2)
                        opening_rounds += len(group[4]) + 1
                        if shard is not None:
                            self._views.merge_from(shard)
                            if journal_views is not None:
                                journal_views.merge_from(shard)
                        tracer.merge_shard(tshard)
                    # Release the chunk's material before the next chunk is
                    # dealt — the bounded-memory property the scale tests pin.
                    del materials, material
                if journal is not None and (
                    (chunk_index + 1) % resilience.checkpoint_every == 0
                ):
                    journal.save(
                        {
                            "completed_chunks": chunk_index + 1,
                            "total1": int(total1),
                            "total2": int(total2),
                            "opening_rounds": opening_rounds,
                            "views": journal_views,
                            "accounting": absorbed_accounting,
                        }
                    )
            backend_span.annotate(opening_rounds=opening_rounds)
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=num_candidate_triples(n),
            opening_rounds=opening_rounds,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _task(self, unit, dealer: Optional[BeaverTripleDealer]):
        """One tile group's deal or evaluation: the ``pool.task`` fault site.

        Retried under the configured policy.  A failed attempt rolls the
        group's sub-dealer back to its entry state, so a retry replays the
        identical randomness and every opening stays bit-identical to a
        fault-free run.
        """

        def attempt():
            snapshot = dealer.state_snapshot() if dealer is not None else None
            try:
                fault_point("pool.task")
                return unit()
            except BaseException:
                if snapshot is not None:
                    dealer.state_restore(snapshot)
                raise

        retry = self._resilience.retry
        if retry is None:
            return attempt()
        metrics = self._telemetry.metrics if self._telemetry.enabled else None
        return retry.run("pool.task", attempt, metrics=metrics)

    def _chunk_materials(
        self, n, chunk_index, chunk, chunk_start, dealer_key, sub_dealer
    ) -> MaterialSequence:
        """One chunk's material, fetched warm from the store or dealt (and stored)."""
        geometry = (("block_size", self._block_size),)
        if self._tile_window is not None:
            geometry += (("tile_window", self._tile_window), ("chunk", chunk_index))
        signature = TripleSignature(
            statistic="triangles",
            backend="blocked",
            num_users=n,
            geometry=geometry,
            ring_bits=self._ring.bits,
            dealer_key=dealer_key,
        )
        with self._telemetry.tracer.span("offline", groups=len(chunk)):
            materials = self._store.get(signature) if self._store is not None else None
            if materials is None:
                materials = []
                for offset, group in enumerate(chunk):
                    dealer = sub_dealer(chunk_start + offset)
                    *matrix, elementwise = self._task(
                        lambda: list(deal_tile_group(group, dealer)), dealer
                    )
                    materials.append(
                        {
                            "matrix": matrix,
                            "elementwise": elementwise,
                            "accounting": dealer.accounting(),
                        }
                    )
                if self._store is not None:
                    self._store.put(signature, materials)
        sequence = MaterialSequence(materials, label="blocked tile")
        sequence.require(len(chunk))
        return sequence

    @staticmethod
    def _group_triples(
        group: tuple, dealer: Optional[BeaverTripleDealer], material: Optional[dict]
    ) -> Iterator[BeaverTriplePair]:
        """A group's triples in consumption order: dealt now, or from its material."""
        if material is None:
            return deal_tile_group(group, dealer)
        if len(material["matrix"]) != len(group[4]):
            raise ProtocolError(
                f"stored group material carries {len(material['matrix'])} matrix "
                f"triples for {len(group[4])} I tiles"
            )
        return iter([*material["matrix"], material["elementwise"]])

    def _journal_token(self, n: int, dealer_key: str) -> str:
        """Binds a tile journal to this exact run geometry and dealer stream.

        A checkpoint written by a run with different ``n``, tiling, ring, or
        dealer randomness must never be resumed into this one — the token
        mismatch makes :class:`~repro.resilience.Checkpointer` raise instead.
        """
        payload = (
            f"tiles|{n}|{self._block_size}|{self._tile_window}|"
            f"{self._ring.bits}|{dealer_key}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def _evaluate_group(
        self,
        group: tuple,
        triples: Iterator[BeaverTriplePair],
        share1: np.ndarray,
        share2: np.ndarray,
    ) -> tuple:
        """Online phase of one ``(J, K)`` group: ``M_{JK}``, then ``C[J, K] ⊙ M_{JK}``.

        *triples* yields the group's material in consumption order.  Views
        and spans go to private shards the caller merges once the group has
        completed, so an attempt that fails leaves no trace.
        """
        ring = self._ring
        j0, j1, k0, k1, i_tiles = group
        shard = ViewRecorder() if self._views is not None else None
        tracer_shard = self._telemetry.tracer.shard()
        with tracer_shard.span(
            "tile_group", j0=j0, k0=k0, opening_rounds=len(i_tiles) + 1
        ):
            m1 = np.zeros((j1 - j0, k1 - k0), dtype=ring.dtype)
            m2 = np.zeros((j1 - j0, k1 - k0), dtype=ring.dtype)
            for i0, i1 in i_tiles:
                left1 = np.ascontiguousarray(upper_block(ring, share1, i0, i1, j0, j1).T)
                left2 = np.ascontiguousarray(upper_block(ring, share2, i0, i1, j0, j1).T)
                right1 = upper_block(ring, share1, i0, i1, k0, k1)
                right2 = upper_block(ring, share2, i0, i1, k0, k1)
                partial1, partial2 = secure_matrix_multiply(
                    (left1, left2), (right1, right2), next(triples),
                    ring=ring, views=shard,
                    authenticator=self._authenticator,
                )
                m1 = ring.add(m1, partial1)
                m2 = ring.add(m2, partial2)
            tile_mask = strict_upper_mask(ring, j0, j1, k0, k1)
            prod1, prod2 = secure_multiply_pair(
                (upper_block(ring, share1, j0, j1, k0, k1),
                 upper_block(ring, share2, j0, j1, k0, k1)),
                (ring.mul(m1, tile_mask), ring.mul(m2, tile_mask)),
                next(triples), ring=ring, views=shard,
                authenticator=self._authenticator,
            )
        return ring.sum(prod1), ring.sum(prod2), shard, tracer_shard
