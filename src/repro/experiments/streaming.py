"""Streaming-accuracy-over-time experiment (extension beyond the paper).

The paper evaluates one-shot accuracy on frozen graphs; this experiment
replays a dataset as a randomized edge-arrival stream and tracks how the
continual-release estimate follows the growing true count.  Per release it
reports the error columns used throughout :mod:`repro.metrics` (l2 loss and
relative error) plus the cumulative privacy spend, so the accuracy-vs-time
trajectory and the O(log T) budget behaviour are visible in one table.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentReport
from repro.graph.datasets import load_dataset
from repro.metrics.error import l2_loss, relative_error
from repro.stream.events import replay_stream
from repro.stream.orchestrator import StreamingCargo, StreamingConfig
from repro.stream.release import tree_depth


def streaming_accuracy_over_time(
    dataset: str = "facebook",
    num_nodes: int = 150,
    epsilon: float = 4.0,
    release_every: int = 50,
    anchor_every: int = 0,
    counting_backend: Optional[str] = None,
    statistic: Optional[str] = None,
    star_k: Optional[int] = None,
    seed: int = 0,
    telemetry: Optional[object] = None,
    resilience: Optional[object] = None,
) -> ExperimentReport:
    """Continual-release accuracy as a dataset's edges arrive over time.

    The dataset's edges arrive in a seed-randomized order; the streaming
    orchestrator publishes a DP estimate every *release_every* events (with a
    secure anchor every *anchor_every* releases when non-zero).  One report
    row per release.  A :class:`~repro.resilience.ResilienceConfig` passed as
    *resilience* engages retries, checkpointing, and resume — a run resumed
    from its checkpoint emits exactly the rows the uninterrupted run would.
    """
    graph = load_dataset(dataset, num_nodes=num_nodes)
    stream = replay_stream(graph, rng=seed)
    config = StreamingConfig(
        epsilon=epsilon,
        release_every=release_every,
        anchor_every=anchor_every,
        seed=seed,
        **({} if counting_backend is None else {"counting_backend": counting_backend}),
        **({} if statistic is None else {"statistic": statistic}),
        **({} if star_k is None else {"star_k": star_k}),
        telemetry=telemetry,
        resilience=resilience,
    )
    result = StreamingCargo(config).run(stream)
    report = ExperimentReport(
        name="stream",
        description=(
            f"continual private {result.statistic} counting over a {dataset} edge stream "
            f"(n={num_nodes}, epsilon={epsilon}, release_every={release_every}, "
            f"anchor_every={anchor_every})"
        ),
        columns=[
            "release",
            "event_index",
            "time",
            "estimate",
            "true_count",
            "l2_loss",
            "relative_error",
            "is_anchor",
            "epsilon_spent",
            "ledger_entries",
        ],
    )
    for release in result.releases:
        report.add_row(
            release=release.index,
            event_index=release.event_index,
            time=round(release.time, 3),
            estimate=release.estimate,
            true_count=release.true_count,
            l2_loss=l2_loss(release.true_count, release.estimate),
            # None (JSON null) rather than inf when the truth is zero: the
            # CLI's --json output must stay strictly parseable.
            relative_error=(
                relative_error(release.true_count, release.estimate)
                if release.true_count
                else None
            ),
            is_anchor=release.is_anchor,
            epsilon_spent=release.epsilon_spent,
            ledger_entries=release.ledger_entries,
        )
    # Sanity property surfaced alongside the report: the continual-release
    # ledger stays logarithmic in the number of releases (each anchor adds at
    # most two entries — its private max-degree estimate and its count
    # release — on top of the tree levels).
    if len(result.ledger) > tree_depth(result.capacity) + 2 * result.anchors_run:
        raise ExperimentError(
            f"continual-release ledger grew to {len(result.ledger)} entries for "
            f"{len(result.releases)} releases — expected at most "
            f"{tree_depth(result.capacity)} tree levels plus "
            f"{2 * result.anchors_run} anchor entries"
        )
    return report
