"""Reusable offline phase for the secure protocol.

The dealers' correlated randomness is a deterministic function of the dealer
seed and the run geometry, so :class:`~repro.parallel.store.TripleStore`
memoises it under a :class:`~repro.parallel.store.TripleSignature` and serves
it back to repeated runs, sweep cells, and streaming anchors, skipping the
re-deal entirely (and optionally persisting batches to disk).
:class:`~repro.parallel.store.MaterialSequence` guards a fetched batch
against schedule drift.

Set the store with ``CargoConfig(triple_store=...)``.  Process-level
parallelism lives elsewhere: sweep cells fan out over a process pool
(:class:`~repro.experiments.runner.ProtocolSweep` ``max_workers``), and the
protocol parties can run as separate OS processes (:mod:`repro.runtime`).
"""

from repro.parallel.store import (
    MaterialSequence,
    TripleSignature,
    TripleStore,
    dealer_fingerprint,
)

__all__ = [
    "MaterialSequence",
    "TripleSignature",
    "TripleStore",
    "dealer_fingerprint",
]
