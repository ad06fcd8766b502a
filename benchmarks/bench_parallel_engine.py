"""Tile-parallel engine + triple-store micro-benchmark.

Measures the two quantities the parallel execution engine exists for:

* **worker scaling** — wall-clock of the blocked/matrix secure count at
  several worker counts (the engine's transcripts are bit-identical across
  worker counts, so any delta is pure scheduling).  On a single-core host
  the speedup is bounded by 1.0 by construction; the row records the host's
  CPU count so the number can be read in context.
* **offline reuse** — cold vs warm wall-clock of the blocked engine's
  offline phase (dealing all tile triples vs fetching them from a
  :class:`~repro.parallel.store.TripleStore`), and the fraction of dealing
  time a warm rerun skips.

Rows are emitted as JSON (``benchmarks/results/parallel_engine.json`` by
default, override with ``REPRO_BENCH_PARALLEL_OUTPUT``).  Set
``REPRO_BENCH_QUICK=1`` for the small CI smoke sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from memprof import measure_peak_bytes

from repro.core.backends import (
    BlockedMatrixTriangleCounter,
    MatrixTriangleCounter,
    share_adjacency_rows,
)
from repro.crypto.beaver import BeaverTripleDealer
from repro.graph.datasets import load_dataset
from repro.parallel import TripleStore
from repro.utils.atomic import atomic_write_json

DEFAULT_USER_COUNTS = (256,)
QUICK_USER_COUNTS = (96,)
WORKER_COUNTS = (1, 2, 4)
BLOCK_SIZE = 64
TIMING_REPS = 3


def _build(backend: str, workers: int, block_size: int, store=None):
    dealer = BeaverTripleDealer(seed=0)
    if backend == "blocked":
        return BlockedMatrixTriangleCounter(
            dealer=dealer, block_size=block_size, workers=workers, triple_store=store
        )
    # The matrix backend has no worker knob (one triangular product on one
    # thread beats row strips of a dense one); its rows are the reference.
    return MatrixTriangleCounter(dealer=dealer, triple_store=store)


def run_parallel_engine(
    user_counts=None,
    worker_counts=WORKER_COUNTS,
    block_size: int = BLOCK_SIZE,
    reps: int = TIMING_REPS,
):
    """One row per (backend, n, workers), plus offline cold/warm rows per n."""
    if user_counts is None:
        quick = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
        user_counts = QUICK_USER_COUNTS if quick else DEFAULT_USER_COUNTS
    rows = []
    for num_users in user_counts:
        graph = load_dataset("facebook", num_nodes=num_users)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=num_users)
        counts = {}
        for backend in ("blocked", "matrix"):
            for workers in worker_counts:
                best = None
                for _ in range(max(reps, 1)):
                    counter = _build(backend, workers, block_size)
                    start = time.perf_counter()
                    result = counter.count_from_shares(share1, share2)
                    best = min(best or float("inf"), time.perf_counter() - start)
                counts[(backend, workers)] = result.reconstruct()
                peak_bytes = measure_peak_bytes(
                    lambda backend=backend, workers=workers: _build(
                        backend, workers, block_size
                    ).count_from_shares(share1, share2)
                )
                rows.append(
                    {
                        "backend": backend,
                        "num_users": num_users,
                        "workers": workers,
                        "block_size": block_size if backend == "blocked" else num_users,
                        "seconds": best,
                        "peak_bytes": peak_bytes,
                        "count": counts[(backend, workers)],
                        "host_cpus": os.cpu_count(),
                    }
                )
        assert len(set(counts.values())) == 1, counts

        # Offline reuse: cold deal vs warm store fetch of the same material.
        store = TripleStore()
        cold_counter = _build("blocked", 1, block_size, store)
        start = time.perf_counter()
        cold_counter.offline_materials(num_users)
        cold_seconds = time.perf_counter() - start
        warm_best = None
        for _ in range(max(reps, 1)):
            warm_counter = _build("blocked", 1, block_size, store)
            start = time.perf_counter()
            warm_counter.offline_materials(num_users)
            warm_best = min(warm_best or float("inf"), time.perf_counter() - start)
        assert store.hits >= 1, store.stats()
        rows.append(
            {
                "backend": "blocked",
                "num_users": num_users,
                "block_size": block_size,
                "offline_cold_seconds": cold_seconds,
                "offline_warm_seconds": warm_best,
                "offline_skip_fraction": 1.0 - warm_best / max(cold_seconds, 1e-12),
                "store": store.stats(),
            }
        )
    return rows


def write_json(rows, path=None) -> Path:
    """Persist the benchmark rows for cross-commit trajectory tracking."""
    if path is None:
        path = os.environ.get(
            "REPRO_BENCH_PARALLEL_OUTPUT",
            str(Path(__file__).resolve().parent / "results" / "parallel_engine.json"),
        )
    output = Path(path)
    atomic_write_json(output, {"benchmark": "parallel_engine", "rows": rows})
    return output


def test_parallel_engine(benchmark):
    """All worker counts agree; a warm store skips ≥90% of offline dealing."""
    rows = benchmark.pedantic(run_parallel_engine, rounds=1, iterations=1)
    output = write_json(rows)
    print(f"\n  wrote {output}")
    for row in rows:
        if "workers" in row:
            print(
                "  backend={backend:<8} n={num_users:<5} workers={workers} "
                "time={seconds:8.4f}s".format(**row)
            )
        else:
            print(
                "  offline  n={num_users:<5} cold={offline_cold_seconds:8.4f}s "
                "warm={offline_warm_seconds:8.4f}s "
                "skip={offline_skip_fraction:6.1%}".format(**row)
            )
    counts = {row["count"] for row in rows if "count" in row}
    assert len(counts) == 1
    for row in rows:
        if "offline_skip_fraction" in row:
            assert row["offline_skip_fraction"] >= 0.90, row


if __name__ == "__main__":
    output_rows = run_parallel_engine()
    destination = write_json(output_rows)
    print(json.dumps(output_rows, indent=2))
    print(f"wrote {destination}")
