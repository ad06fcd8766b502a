"""Run the benchmark over several seeds and record the spread of each metric.

Run from the repository root::

    python3 perfbench/record.py --runs 10                  # every workload
    python3 perfbench/record.py --runs 5 --workloads kstars-sparse-100k --no-write

For each workload this makes ``--runs`` untraced runs with seeds 1..runs
and two traced runs, then prints, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median) next to
the metric's bound from ``BENCHMARK.json``.  It also checks that the
computed per-layer counts repeat exactly between the two traced runs.
Unless ``--no-write`` is given the figures, the host and the workload
parameters are written to ``perfbench/recorded.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({completed.returncode}):\n"
                         f"{completed.stdout}\n{completed.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]

    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(ROOT / "src"))
    from run import COMPUTED_COUNTS, host_info
    from workloads import WORKLOADS

    record = {"host": host_info(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        figures = {}
        print(f"{name}: {attempted} releases, {failed} failed")
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            figures[metric] = {**spread(values), "bound": bound, "values": values}
            ok = metric == "setup_s" or figures[metric]["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:12s} median {figures[metric]['median']:10.4f}  "
                  f"q1 {figures[metric]['q1']:10.4f}  q3 {figures[metric]['q3']:10.4f}  "
                  f"spread {figures[metric]['spread']:6.3f}  bound {bound}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        traced = [run_once(name, seed, seconds, 1) for seed in (1, 2)]
        for metric in COMPUTED_COUNTS:
            values = [run["metrics"][metric]["value"] for run in traced]
            if values[0] != values[1]:
                steady = False
                print(f"  computed count {metric} differs between traced runs: {values}")
        workload = WORKLOADS[name]
        record["workloads"][name] = {
            "why": workload.why,
            "parameters": {key: value for key, value in dataclasses.asdict(workload).items()
                           if key not in ("name", "why", "reaches")},
            "failure_rate": failed / attempted,
            "end_to_end": figures,
            "per_layer_traced": {metric: entry["value"]
                                 for metric, entry in traced[0]["metrics"].items()},
        }
    if not args.no_write:
        (BENCH_DIR / "recorded.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
