"""CI runtime-smoke gate: the process-separated runtime on a toy graph.

Three checks, each of which must hold for the distributed runtime to be
trustworthy as a drop-in engine:

* **Bit-identity** — for every counting backend, a release computed by the
  four-process runtime (driver + two servers + dealer over socket links)
  equals the in-process engine's release exactly: noisy count, noisy max
  degree, and the full per-phase communication ledger.  The matrix and
  blocked backends are checked again at ``LIMB_NUM_NODES`` users, where the
  servers' ring products run on the limb GEMM path.
* **Ledger/wire reconciliation** — the driver's post-run invariant (every
  logical byte the :class:`~repro.crypto.protocol.CommunicationLedger`
  records is accounted for by payload bytes physically written to a socket)
  held, and the reported transport section is internally consistent
  (``wire = payload + overhead``, all process timings present).
* **Packed matrix triples** — at ``LIMB_NUM_NODES`` users the matrix
  backend's dealt and opened payload per frame kind is exactly the packed
  strict-upper size (``N = n(n-1)/2``): ``PROVISION = 96 N`` bytes (two
  triples of three ``N``-vectors per server) and
  ``OPEN_VALUES = OPEN_MAC = 64 N + 16`` bytes (two rounds of two
  ``N``-vectors plus the release value, per server).  Dense triples would
  double both.
* **Crash + resume** — an injected mid-round server crash surfaces as a
  typed :class:`~repro.exceptions.RuntimeProcessError`, leaves a usable
  checkpoint behind, and a fresh runtime resumes to a release bit-identical
  to the uninterrupted reference.

Results land in ``benchmarks/results/runtime_smoke.json`` (the CI
artifact); any failed check exits 1.

Usage::

    PYTHONPATH=src python benchmarks/runtime_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from repro.core import Cargo, CargoConfig
from repro.exceptions import RuntimeProcessError
from repro.graph.datasets import load_dataset
from repro.resilience import FaultKind, FaultPlan, FaultSpec, ResilienceConfig
from repro.runtime import run_distributed
from repro.telemetry import Telemetry
from repro.utils.atomic import atomic_write_json

OUTPUT_PATH = Path(__file__).resolve().parent / "results" / "runtime_smoke.json"
BACKENDS = ("faithful", "batched", "matrix", "blocked")
NUM_NODES = 24
#: Backends re-checked at a size whose ring products take the limb path
#: (blocked with 128-wide tiles).
LIMB_BACKENDS = ("matrix", "blocked")
LIMB_NUM_NODES = 300


def _config(backend: str, distributed: bool, **overrides) -> CargoConfig:
    kwargs = dict(
        epsilon=2.0,
        seed=13,
        counting_backend=backend,
        batch_size=64,
        block_size=8,
        authenticate=True,
        track_communication=True,
        distributed=distributed,
    )
    kwargs.update(overrides)
    return CargoConfig(**kwargs)


def check_bit_identity(graph, rows: list, failures: list, backends=BACKENDS, **overrides) -> None:
    for backend in backends:
        reference = Cargo(_config(backend, False, **overrides)).run(graph)
        result = run_distributed(graph, _config(backend, True, **overrides))
        identical = (
            result.noisy_triangle_count == reference.noisy_triangle_count
            and result.noisy_max_degree == reference.noisy_max_degree
            and result.communication_phases == reference.communication_phases
        )
        status = "ok" if identical else "FAIL"
        print(
            f"  {status:4s} bit-identity/{backend}/n={graph.num_nodes}: distributed "
            f"{result.noisy_triangle_count} vs in-process "
            f"{reference.noisy_triangle_count}"
        )
        rows.append(
            {
                "check": "bit_identity",
                "backend": backend,
                "num_nodes": graph.num_nodes,
                "passed": identical,
                "noisy_count": result.noisy_triangle_count,
            }
        )
        if not identical:
            failures.append(f"bit_identity/{backend}/n={graph.num_nodes}")


def check_reconciliation(graph, rows: list, failures: list) -> None:
    telemetry = Telemetry()
    # The driver raises RuntimeProcessError if any ledgered phase's logical
    # bytes fail to reconcile against the wire, so completing at all is the
    # core assertion; the transport section is then checked for coherence.
    result = run_distributed(graph, _config("matrix", True, telemetry=telemetry))
    transport = result.telemetry["transport"]
    coherent = (
        transport["frames"] > 0
        and transport["overhead_bytes"] > 0
        and transport["wire_bytes"]
        == transport["payload_bytes"] + transport["overhead_bytes"]
        and transport["unledgered_payload_bytes"] >= 0
        and sum(transport["payload_bytes_by_kind"].values()) == transport["payload_bytes"]
        and all(
            transport["processes"].get(name, -1.0) >= 0.0
            for name in ("driver", "server1", "server2", "dealer")
        )
    )
    status = "ok" if coherent else "FAIL"
    print(
        f"  {status:4s} reconciliation: {transport['frames']} frames, "
        f"{transport['payload_bytes']} payload B, "
        f"{transport['overhead_bytes']} framing B"
    )
    rows.append(
        {"check": "reconciliation", "passed": coherent, "transport": transport}
    )
    if not coherent:
        failures.append("reconciliation")


def check_packed_payload(graph, rows: list, failures: list) -> None:
    size = graph.num_nodes * (graph.num_nodes - 1) // 2
    expected = {"PROVISION": 96 * size, "OPEN_VALUES": 64 * size + 16, "OPEN_MAC": 64 * size + 16}
    result = run_distributed(graph, _config("matrix", True, telemetry=Telemetry()))
    by_kind = result.telemetry["transport"]["payload_bytes_by_kind"]
    measured = {kind: by_kind.get(kind, 0) for kind in expected}
    passed = measured == expected
    status = "ok" if passed else "FAIL"
    print(f"  {status:4s} packed-payload/matrix/n={graph.num_nodes}: {measured} vs {expected}")
    rows.append(
        {
            "check": "packed_payload",
            "num_nodes": graph.num_nodes,
            "passed": passed,
            "payload_bytes_by_kind": by_kind,
        }
    )
    if not passed:
        failures.append(f"packed_payload/matrix/n={graph.num_nodes}")


def check_crash_resume(graph, rows: list, failures: list) -> None:
    with tempfile.TemporaryDirectory(prefix="runtime_smoke_") as workdir:
        checkpoint = os.path.join(workdir, "distributed.ckpt")
        resilience = ResilienceConfig(checkpoint_path=checkpoint, resume=True)
        config = _config("matrix", True, resilience=resilience)
        reference = Cargo(_config("matrix", False)).run(graph)

        plan = FaultPlan(
            [FaultSpec("runtime.round", FaultKind.CRASH, at=2)]
        ).to_json()
        crashed_as_typed = False
        try:
            run_distributed(graph, config, fault_plan=plan, fault_target="server1")
        except RuntimeProcessError:
            crashed_as_typed = True
        checkpoint_saved = os.path.exists(checkpoint)

        resumed_identical = False
        if crashed_as_typed and checkpoint_saved:
            resumed = run_distributed(graph, config)
            resumed_identical = (
                resumed.noisy_triangle_count == reference.noisy_triangle_count
                and resumed.noisy_max_degree == reference.noisy_max_degree
            )
        passed = crashed_as_typed and checkpoint_saved and resumed_identical
        status = "ok" if passed else "FAIL"
        print(
            f"  {status:4s} crash+resume: typed={crashed_as_typed} "
            f"checkpoint={checkpoint_saved} identical={resumed_identical}"
        )
        rows.append(
            {
                "check": "crash_resume",
                "passed": passed,
                "typed_error": crashed_as_typed,
                "checkpoint_saved": checkpoint_saved,
                "resumed_identical": resumed_identical,
            }
        )
        if not passed:
            failures.append("crash_resume")


def main() -> int:
    graph = load_dataset("facebook", num_nodes=NUM_NODES)
    rows: list = []
    failures: list = []
    check_bit_identity(graph, rows, failures)
    limb_graph = load_dataset("facebook", num_nodes=LIMB_NUM_NODES)
    check_bit_identity(
        limb_graph, rows, failures, backends=LIMB_BACKENDS, block_size=128,
    )
    check_packed_payload(limb_graph, rows, failures)
    check_reconciliation(graph, rows, failures)
    check_crash_resume(graph, rows, failures)
    atomic_write_json(
        OUTPUT_PATH,
        {
            "benchmark": "runtime_smoke",
            "host_cpus": os.cpu_count(),
            "rows": rows,
        },
    )
    print(f"wrote {OUTPUT_PATH}")
    if failures:
        print(f"runtime-smoke FAILED: {', '.join(failures)}")
        return 1
    print("runtime-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
