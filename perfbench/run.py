"""CARGO release benchmark: one command, paper-scale workloads, checked releases.

Run from the repository root::

    python3 perfbench/run.py --workload tri-blocked-1024 --seed 1 --seconds 30 --trace 0

Each run builds its workload's graph from ``--seed``, computes the true
count independently, performs one untimed warm-up release, then releases
through ``Cargo(config).run(graph)`` with a fresh Cargo seed per release
until ``--seconds`` have passed.  Every release is checked; one that raises
or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics with no layer wrappers
installed (one probe, called once per release after the protocol ends,
reads the wire byte count of the distributed runtime).
``--trace 1`` alternates untraced and traced releases of the same Cargo
seed, reports the per-layer metrics of the traced ones, and writes every
span to ``perfbench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

import layers
from workloads import WORKLOADS, check_release, release_seed

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# Input generation and the independent count are repeated this many times
# during set-up; setup_s takes their median.
SETUP_REPEATS = 3

# Metrics printed in the JSON line; BENCHMARK.json lists the same names.
# The per-layer ones are the times present on every workload and the
# counts (0 where a workload bypasses the layer): a time that is absent on
# some workload would read an exact constant there.  The "#" table of a
# traced run prints every metric in layers.LAYER_METRICS.
END_TO_END = {"release_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "stats.evaluate.s": "s",
    "core.max.s": "s",
    "core.project.s": "s",
    "release.unattributed_s": "s",
    "release.traced_s": "s",
    "trace.overhead_pct": "%",
    "crypto.ring.matmul.calls": "count",
    "crypto.ring.matmul.gmac": "count",
    "crypto.beaver.deal.calls": "count",
    "crypto.beaver.deal.elements": "count",
    "crypto.mac.rounds": "count",
    "crypto.mac.values": "count",
    "crypto.protocol.messages": "count",
    "count.opening_rounds": "count",
    "runtime.frames": "count",
    "runtime.wire_mb": "MB",
    "runtime.payload_mb": "MB",
    "runtime.overhead_mb": "MB",
    "runtime.unledgered_mb": "MB",
    "trace.spans": "count",
}
# Per-layer counts that are computed from operand shapes rather than
# measured; they must repeat exactly between traced releases.
COMPUTED_COUNTS = ("crypto.ring.matmul.gmac", "crypto.beaver.deal.elements")


class Tally:
    """Attempted and failed releases; a release fails by raising or by a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def failure_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def release(self, run: Callable[[], object],
                check: Callable[[object], List[str]]) -> Optional[float]:
        """Time *run*; return its wall seconds, or ``None`` if it failed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = run()
        except Exception as error:  # noqa: BLE001 - every failed release is counted
            self._fail(f"release {self.attempted} raised {type(error).__name__}: {error}")
            return None
        seconds = time.perf_counter() - started
        problems = check(result)
        if problems:
            self._fail(f"release {self.attempted}: " + "; ".join(problems))
            return None
        return seconds

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def timed_loop(seconds: float, step: Callable[[int], None]) -> None:
    """Call ``step(1)``, ``step(2)``, ... until *seconds* have passed (at least once)."""
    started = time.perf_counter()
    index = 0
    while True:
        index += 1
        step(index)
        if time.perf_counter() - started >= seconds:
            return


def percentile_note(samples: List[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    count = len(samples)
    if not count:
        return "no successful release"
    note = f"median {statistics.median(samples):.4f} s over {count} release(s)"
    if count > 10:
        level = 100.0 * (count - 10) / count
        cut = sorted(samples)[math.ceil(level / 100.0 * count) - 1]
        return note + f", p{level:.0f} {cut:.4f} s"
    return note + f", max {max(samples):.4f} s (too few samples for a tail percentile)"


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def host_info() -> Dict[str, object]:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def median_metrics(per_release: List[Dict[str, Optional[float]]]) -> Dict[str, Optional[float]]:
    """Per metric, the median over the releases where it was present."""
    names = per_release[0].keys() if per_release else ()
    result = {}
    for name in names:
        values = [metrics[name] for metrics in per_release if metrics[name] is not None]
        result[name] = statistics.median(values) if values else None
    return result


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    from repro.core import Cargo
    import repro.runtime.driver  # noqa: F401 - imported before any patching

    import_s = time.perf_counter() - STARTED

    # ---------------------------------------------------------------- #
    # Set-up: inputs and the independent count (repeated), one warm-up.
    # ---------------------------------------------------------------- #
    input_times = []
    for _ in range(SETUP_REPEATS):
        graph = None  # never hold two graphs at once
        started = time.perf_counter()
        graph = workload.make_graph(args.seed)
        true_count = workload.independent_count(graph)
        input_times.append(time.perf_counter() - started)

    tally = Tally()

    def release(index: int, recorder=None, entry_points=()) -> Optional[float]:
        config = workload.cargo_config(release_seed(args.seed, index))
        with layers.installed(recorder, entry_points):
            return tally.release(
                lambda: Cargo(config).run(graph),
                lambda result: check_release(
                    workload, result, true_count, graph.num_nodes, config.fixed_point_bits
                ),
            )

    started = time.perf_counter()
    release(0)
    warmup_s = time.perf_counter() - started
    setup_s = import_s + statistics.median(input_times) + warmup_s
    # Move everything set-up left alive (the input graph above all) out of
    # the collector's reach, so timed releases pay only for collecting what
    # they allocate themselves.
    gc.collect()
    gc.freeze()

    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, true count {true_count}, host {json.dumps(host_info())}")
    print(f"# setup_s {setup_s:.4f} = imports {import_s:.4f} + inputs "
          f"{statistics.median(input_times):.4f} (median of {SETUP_REPEATS}) + warm-up {warmup_s:.4f}")

    problems: List[str] = []
    if args.trace == 0:
        samples: List[float] = []
        wire: List[float] = []

        def step(index: int) -> None:
            # The transport probe is one call per release, after the
            # protocol finished; it reads the bytes the program counted.
            probe = layers.SpanRecorder()
            seconds = release(index, probe, layers.TRANSPORT_PROBES)
            if seconds is None:
                return
            samples.append(seconds)
            if layers.wire_mb(probe) is not None:
                wire.append(layers.wire_mb(probe))

        timed_loop(args.seconds, step)
        metrics = {
            "release_s": statistics.median(samples) if samples else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"# release_s {percentile_note(samples)}")
        if wire:
            print(f"# wire_mb {statistics.median(wire):.6f} MB per release "
                  f"(exact count, min {min(wire):.6f}, max {max(wire):.6f})")
        units = END_TO_END
    else:
        metrics, problems = traced_run(args, workload, release)
        units = PER_LAYER

    print(f"# failure_rate {tally.failure_rate:.4f} ({tally.failed} of {tally.attempted} releases)")
    for problem in tally.problems + problems:
        print(f"# FAILED: {problem}")
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def traced_run(args, workload, release):
    """Untraced/traced release pairs of one Cargo seed; per-layer metrics."""
    untraced: List[float] = []
    traced: List[float] = []
    per_release: List[Dict[str, Optional[float]]] = []
    spans = []
    problems: List[str] = []

    def step(index: int) -> None:
        probe = layers.SpanRecorder()
        plain_s = release(index, probe, layers.TRANSPORT_PROBES)
        recorder = layers.SpanRecorder()
        traced_s = release(index, recorder, layers.ENTRY_POINTS + layers.TRANSPORT_PROBES)
        if plain_s is None or traced_s is None:
            return
        untraced.append(plain_s)
        traced.append(traced_s)
        metrics = layers.release_metrics(recorder, traced_s)
        per_release.append(metrics)
        spans.append({"index": index, "untraced_s": plain_s, "traced_s": traced_s,
                      "spans": recorder.to_json()})
        reached = {span.entry for span in recorder.spans if span.layer != "runtime.transport"}
        for entry in sorted(workload.reaches - reached):
            problems.append(f"release {index}: wrapped entry point {entry} never fired")
        for entry in sorted(reached - workload.reaches):
            problems.append(f"release {index}: entry point {entry} fired but the workload "
                            "is not expected to reach it")
        plain_wire = layers.wire_mb(probe)
        if plain_wire != metrics["runtime.wire_mb"]:
            problems.append(f"release {index}: wire bytes differ with tracing on "
                            f"({metrics['runtime.wire_mb']} MB) and off ({plain_wire} MB)")

    timed_loop(args.seconds, step)
    summary = median_metrics(per_release)
    for name in COMPUTED_COUNTS:
        values = {metrics[name] for metrics in per_release}
        if len(values) > 1:
            problems.append(f"computed count {name} differs between traced releases: {values}")
    if traced:
        summary["release.traced_s"] = statistics.median(traced)
        summary["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) - statistics.median(untraced)
        ) / statistics.median(untraced)
        print(f"# traced {statistics.median(traced):.4f} s vs untraced "
              f"{statistics.median(untraced):.4f} s over {len(traced)} pair(s): "
              f"tracing overhead {summary['trace.overhead_pct']:+.2f}%")
    else:
        problems.append("no traced release succeeded")

    print(f"# {'metric':30s} {'value':>14s}  unit")
    for name, unit in layers.LAYER_METRICS.items():
        value = summary.get(name)
        shown = "absent" if value is None else f"{value:14.6f}"
        print(f"# {name:30s} {shown:>14s}  {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                      "releases": spans}))
    print(f"# spans written to {trace_path.relative_to(BENCH_DIR.parent)}")

    metrics = {}
    for name, unit in PER_LAYER.items():
        value = summary.get(name)
        if value is None and unit != "count" and unit != "MB":
            problems.append(f"per-layer metric {name} is absent")
        metrics[name] = 0 if value is None else value
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
