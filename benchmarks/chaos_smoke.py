"""CI chaos-smoke gate: randomized fault schedules over the full stack.

Each chaos seed derives a deterministic :class:`~repro.resilience.FaultPlan`
(bit-flips, transient ``OSError``\\ s, crashes, dealer exhaustion pinned to
exact invocations of the runtime's fault sites) and fires it at a streaming
run configured with retries, checkpointing, and resume.  The gate asserts
the resilience trichotomy — under *any* schedule the run must either

* complete with releases/ledger **bit-identical** to the fault-free
  reference (faults absorbed by retries or integrity-triggered re-dealing),
* die with an :class:`~repro.resilience.InjectedCrash` and, resumed from its
  checkpoint, then complete bit-identically, or
* fail with a **typed** :class:`~repro.exceptions.ReproError`.

A silently wrong result or an untyped crash fails the gate.  A fixed
tile-window kill/resume check covers the blocked backend's journal the same
way.  Every schedule is archived as JSON under
``benchmarks/results/chaos/`` (uploaded by the ``chaos-smoke`` CI job), so
any failure replays exactly from its artifact via ``FaultPlan.from_json``.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py              # seeds 0..7
    PYTHONPATH=src python benchmarks/chaos_smoke.py --seeds 3 5  # explicit seeds
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.core import Cargo, CargoConfig
from repro.exceptions import ReproError
from repro.graph.generators import erdos_renyi_graph
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    ResilienceConfig,
    RetryPolicy,
    install_fault_plan,
)
from repro.stream.events import replay_stream
from repro.stream.orchestrator import StreamingCargo, StreamingConfig
from repro.utils.atomic import atomic_write_json, atomic_write_text

RESULTS_DIR = Path(__file__).resolve().parent / "results" / "chaos"
DEFAULT_SEEDS = tuple(range(8))
MAX_RESUMES = 12
NUM_NODES = 60
NUM_FAULTS = 5


def _stream(seed: int = 5):
    graph = erdos_renyi_graph(NUM_NODES, 0.3, seed=seed)
    return replay_stream(graph, rng=seed)


def _stream_config(resilience=None) -> StreamingConfig:
    return StreamingConfig(
        epsilon=4.0,
        release_every=40,
        anchor_every=2,
        seed=11,
        resilience=resilience,
    )


def run_chaos_seed(chaos_seed: int, reference, workdir: Path) -> dict:
    """Fire one random schedule; return the outcome row (never raises)."""
    plan = FaultPlan.random(seed=chaos_seed, num_faults=NUM_FAULTS, max_at=6)
    atomic_write_text(RESULTS_DIR / f"plan_{chaos_seed}.json", plan.to_json())
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, seed=chaos_seed, sleep=lambda _d: None),
        checkpoint_path=workdir / f"chaos_{chaos_seed}.ckpt",
        resume=True,
    )
    row = {"chaos_seed": chaos_seed, "faults": len(plan.specs), "resumes": 0}
    result = None
    with install_fault_plan(plan):
        for _attempt in range(MAX_RESUMES):
            try:
                result = StreamingCargo(_stream_config(resilience)).run(_stream())
                break
            except InjectedCrash:
                row["resumes"] += 1
                continue
            except ReproError as error:
                row["outcome"] = f"typed_failure:{type(error).__name__}"
                return row
            except Exception as error:  # noqa: BLE001 - the gate's whole point
                row["outcome"] = f"UNTYPED:{type(error).__name__}"
                return row
    if result is None:
        row["outcome"] = "STILL_CRASHING"
        return row
    identical = (
        result.releases == reference.releases
        and result.ledger == reference.ledger
        and result.epsilon_spent == reference.epsilon_spent
    )
    row["outcome"] = "bit_identical" if identical else "DIVERGED"
    return row


def run_tile_kill_resume(workdir: Path) -> dict:
    """Kill the windowed blocked backend mid-count; resume must match."""

    def config(resilience=None) -> CargoConfig:
        return CargoConfig(
            epsilon=2.0,
            counting_backend="blocked",
            block_size=16,
            tile_window=2,
            seed=123,
            track_communication=True,
            resilience=resilience,
        )

    graph = erdos_renyi_graph(NUM_NODES, 0.3, seed=7)
    reference = Cargo(config()).run(graph)
    plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=5)])
    atomic_write_text(RESULTS_DIR / "plan_tiles.json", plan.to_json())
    resilience = ResilienceConfig(
        checkpoint_path=workdir / "tiles.ckpt", resume=True
    )
    row = {"pipeline": "tile_window", "crash_at": 5}
    with install_fault_plan(plan):
        try:
            Cargo(config(resilience)).run(graph)
            row["outcome"] = "FAULT_DID_NOT_FIRE"
            return row
        except InjectedCrash:
            pass
    resumed = Cargo(config(resilience)).run(graph)
    identical = (
        resumed.noisy_count == reference.noisy_count
        and resumed.true_count == reference.true_count
        and resumed.communication == reference.communication
        and resumed.communication_phases == reference.communication_phases
    )
    row["outcome"] = "bit_identical" if identical else "DIVERGED"
    return row


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=list(DEFAULT_SEEDS),
        help="chaos seeds to replay (each derives one fault schedule)",
    )
    args = parser.parse_args(argv)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rows = []
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        reference = StreamingCargo(_stream_config()).run(_stream())
        for chaos_seed in args.seeds:
            row = run_chaos_seed(chaos_seed, reference, workdir)
            rows.append(row)
            acceptable = row["outcome"] == "bit_identical" or row[
                "outcome"
            ].startswith("typed_failure")
            status = "ok" if acceptable else "FAIL"
            print(
                f"  {status:4s} stream/seed={chaos_seed}: {row['outcome']} "
                f"({row['resumes']} resume(s), schedule plan_{chaos_seed}.json)"
            )
            if not acceptable:
                failures.append(f"stream/seed={chaos_seed}")
        tile_row = run_tile_kill_resume(workdir)
        rows.append(tile_row)
        status = "ok" if tile_row["outcome"] == "bit_identical" else "FAIL"
        print(f"  {status:4s} tiles/kill-resume: {tile_row['outcome']}")
        if tile_row["outcome"] != "bit_identical":
            failures.append("tiles/kill-resume")
    atomic_write_json(
        RESULTS_DIR / "chaos_smoke.json",
        {"benchmark": "chaos_smoke", "rows": rows},
    )
    print(f"wrote {RESULTS_DIR}")
    if failures:
        print(f"chaos-smoke FAILED: {', '.join(failures)}")
        return 1
    print("chaos-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
