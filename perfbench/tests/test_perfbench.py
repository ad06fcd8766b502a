"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench/tests -q)."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
import workloads
from layers import Span, SpanRecorder, layer_totals, outermost, self_times

ROOT = Path(__file__).resolve().parents[2]


def _spans():
    # release-level A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 7].
    return [
        Span("a", "A", 0.0, 10.0, None),
        Span("b", "B", 1.0, 4.0, 0),
        Span("c", "C", 2.0, 3.0, 1),
        Span("d", "D", 5.0, 7.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    spans = _spans()
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_same_layer_nesting_is_counted_once():
    spans = [
        Span("stats", "outer", 0.0, 4.0, None, {"rounds": 1}),
        Span("stats", "inner", 1.0, 3.0, 0, {"rounds": 1}),
        Span("ring", "mul", 1.5, 2.0, 1),
    ]
    assert outermost(spans) == [0, 2]
    totals = layer_totals(spans)
    assert totals["stats"].seconds == 4.0
    assert totals["stats"].self_seconds == pytest.approx(3.5)
    assert totals["stats"].calls == 1
    assert totals["stats"].counts == {"rounds": 1}
    assert totals["ring"].seconds == 0.5


def test_recorder_links_parents():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    assert [span.parent for span in recorder.spans] == [None, 0, 0]
    assert all(span.end >= span.start for span in recorder.spans)


def test_failure_rate_counts_raised_release_and_failed_check():
    tally = run.Tally()

    def boom():
        raise RuntimeError("server died")

    assert tally.release(lambda: 1, lambda result: []) is not None
    assert tally.release(boom, lambda result: []) is None
    assert tally.release(lambda: 2, lambda result: ["count is wrong"]) is None
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failure_rate == pytest.approx(2 / 3)
    assert "RuntimeError" in tally.problems[0] and "count is wrong" in tally.problems[1]


def _small(base: str, **sizes) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[base], **sizes)


@pytest.mark.parametrize("workload", [
    _small("tri-blocked-1024", num_nodes=60),
    _small("kstars-sparse-100k", num_nodes=500, num_edges=1500),
])
def test_seed_changes_the_generated_inputs(workload):
    first = workload.make_graph(1).edge_list()
    assert workload.make_graph(1).edge_list() == first
    assert workload.make_graph(2).edge_list() != first


def test_release_seeds_are_distinct():
    seeds = {workloads.release_seed(seed, index) for seed in (1, 2) for index in range(50)}
    assert len(seeds) == 100


def test_independent_counts_match_the_program():
    from repro.stats import create_statistic

    triangles = _small("tri-blocked-1024", num_nodes=80)
    graph = triangles.make_graph(3)
    assert triangles.independent_count(graph) == create_statistic("triangles").plain_count(graph)
    stars = _small("kstars-sparse-100k", num_nodes=400, num_edges=2000)
    graph = stars.make_graph(3)
    statistic = create_statistic("kstars", stars.cargo_config(1))
    assert stars.independent_count(graph) == statistic.plain_count(graph)


def test_check_release_flags_wrong_truth_and_implausible_noise():
    workload = workloads.WORKLOADS["tri-blocked-1024"]
    good = SimpleNamespace(true_triangle_count=100, projected_triangle_count=90,
                           noisy_triangle_count=95.0, noisy_max_degree=10.0, epsilon2=1.0)
    assert workloads.check_release(workload, good, 100, 50, 16) == []
    wrong_truth = SimpleNamespace(**{**vars(good), "true_triangle_count": 99})
    assert workloads.check_release(workload, wrong_truth, 100, 50, 16)
    too_noisy = SimpleNamespace(**{**vars(good), "noisy_triangle_count": 90.0 + 10.0 * 30})
    assert workloads.check_release(workload, too_noisy, 100, 50, 16)
    over_projected = SimpleNamespace(**{**vars(good), "projected_triangle_count": 101})
    assert workloads.check_release(workload, over_projected, 100, 50, 16)


def test_patches_reach_binding_sites_and_are_undone():
    import repro.core.backends.base as base
    import repro.runtime.driver as driver
    import repro.stats.triangles as triangles
    from repro.crypto.ring import Ring

    original_share = base.share_adjacency_rows
    original_matmul = Ring.__dict__["matmul"]
    recorder = SpanRecorder()
    with layers.installed(recorder, layers.ENTRY_POINTS):
        assert driver.share_adjacency_rows is triangles.share_adjacency_rows
        assert driver.share_adjacency_rows is not original_share
        Ring().matmul([[1, 2]], [[3], [4]])
    assert driver.share_adjacency_rows is original_share
    assert triangles.share_adjacency_rows is original_share
    assert Ring.__dict__["matmul"] is original_matmul
    assert [span.entry for span in recorder.spans] == ["Ring.matmul"]
    assert recorder.spans[0].counts["gmac"] == 2 / 1e9


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for entry in spec["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
    assert set(run.PER_LAYER) - {"release.traced_s", "trace.overhead_pct"} <= set(layers.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_end_to_end(monkeypatch, capsys, trace):
    tiny = _small("tri-blocked-1024", name="tiny-blocked", num_nodes=40)
    monkeypatch.setitem(workloads.WORKLOADS, tiny.name, tiny)
    code = run.main(["--workload", tiny.name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace == 0 else 3)
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    if trace:
        assert result["metrics"]["crypto.ring.matmul.calls"]["value"] > 0


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SOURCE_DIR", tmp_path / "src")
    assert run.main(["--workload", "tri-blocked-1024", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
