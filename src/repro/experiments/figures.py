"""Generators for the paper's figures (5–12).

Each function regenerates the data series behind one figure and returns it as
an :class:`~repro.experiments.runner.ExperimentReport`.  The repository does
not plot (matplotlib is not a dependency); the reports contain exactly the
series a plot would show, and ``EXPERIMENTS.md`` compares their shape with
the paper's curves.

Default sizes are scaled down from the paper (300–600 users instead of
500–4000, 2–3 trials instead of many) so the whole suite runs in minutes on a
laptop; every function accepts the paper-scale parameters for a full rerun.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.baselines.central_lap import CentralLaplaceTriangleCounting
from repro.baselines.local_two_rounds import LocalTwoRoundsTriangleCounting
from repro.baselines.random_projection import RandomProjection
from repro.core.cargo import Cargo
from repro.core.config import CargoConfig, CountingBackend
from repro.core.projection import SimilarityProjection, projected_triangle_count
from repro.experiments.runner import ExperimentReport, ProtocolSweep
from repro.graph.datasets import load_dataset
from repro.graph.triangles import count_triangles
from repro.metrics.aggregate import aggregate_trials
from repro.metrics.error import l2_loss, relative_error

#: Figure 5/6 graphs.
EPSILON_SWEEP_DATASETS = ("facebook", "wiki", "hepph", "enron")
#: Figure 7/8/11/12 graphs.
USER_SWEEP_DATASETS = ("facebook", "wiki")
#: Default ε grid of Figures 5 and 6.
DEFAULT_EPSILONS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
#: Default user-count grid of Figures 7, 8, 11, 12 (paper: 500–4000).
DEFAULT_USER_COUNTS = (100, 200, 300, 400)


# --------------------------------------------------------------------- #
# Figures 5 and 6 — error vs epsilon
# --------------------------------------------------------------------- #
def figure5_l2_vs_epsilon(
    datasets: Sequence[str] = EPSILON_SWEEP_DATASETS,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    num_nodes: int = 300,
    num_trials: int = 3,
    seed: int = 0,
    max_workers: Optional[int] = None,
    counting_backend: Optional[object] = None,
    distributed: Optional[bool] = None,
) -> ExperimentReport:
    """Figure 5 — l2 loss of triangle counting as ε varies from 0.5 to 3."""
    sweep = ProtocolSweep(
        datasets=datasets,
        num_nodes=num_nodes,
        num_trials=num_trials,
        seed=seed,
        max_workers=max_workers,
        counting_backend=counting_backend,
        distributed=distributed,
    )
    report = sweep.run_epsilon_sweep(epsilons)
    report.name = "fig5"
    report.description = "l2 loss vs epsilon (CARGO vs CentralLap vs Local2Rounds)"
    return report


def figure6_relative_error_vs_epsilon(
    datasets: Sequence[str] = EPSILON_SWEEP_DATASETS,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    num_nodes: int = 300,
    num_trials: int = 3,
    seed: int = 0,
    max_workers: Optional[int] = None,
    counting_backend: Optional[object] = None,
    distributed: Optional[bool] = None,
) -> ExperimentReport:
    """Figure 6 — relative error of triangle counting as ε varies.

    The same sweep as Figure 5; the report simply keys on the relative-error
    column.  Running it separately keeps the per-figure benchmarks
    independent.
    """
    report = figure5_l2_vs_epsilon(
        datasets, epsilons, num_nodes, num_trials, seed, max_workers, counting_backend,
        distributed,
    )
    report.name = "fig6"
    report.description = "relative error vs epsilon (CARGO vs CentralLap vs Local2Rounds)"
    report.columns = ["dataset", "epsilon", "protocol", "re_mean", "l2_mean"]
    return report


# --------------------------------------------------------------------- #
# Figures 7 and 8 — error vs number of users
# --------------------------------------------------------------------- #
def figure7_l2_vs_n(
    datasets: Sequence[str] = USER_SWEEP_DATASETS,
    user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
    epsilon: float = 2.0,
    num_trials: int = 3,
    seed: int = 0,
    max_workers: Optional[int] = None,
    counting_backend: Optional[object] = None,
    distributed: Optional[bool] = None,
) -> ExperimentReport:
    """Figure 7 — l2 loss as the number of users n grows (ε = 2)."""
    sweep = ProtocolSweep(
        datasets=datasets,
        num_trials=num_trials,
        seed=seed,
        max_workers=max_workers,
        counting_backend=counting_backend,
        distributed=distributed,
    )
    report = sweep.run_user_sweep(user_counts, epsilon)
    report.name = "fig7"
    report.description = f"l2 loss vs number of users (epsilon={epsilon})"
    return report


def figure8_relative_error_vs_n(
    datasets: Sequence[str] = USER_SWEEP_DATASETS,
    user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
    epsilon: float = 2.0,
    num_trials: int = 3,
    seed: int = 0,
    max_workers: Optional[int] = None,
    counting_backend: Optional[object] = None,
    distributed: Optional[bool] = None,
) -> ExperimentReport:
    """Figure 8 — relative error as the number of users n grows (ε = 2)."""
    report = figure7_l2_vs_n(
        datasets, user_counts, epsilon, num_trials, seed, max_workers, counting_backend,
        distributed,
    )
    report.name = "fig8"
    report.description = f"relative error vs number of users (epsilon={epsilon})"
    report.columns = ["dataset", "num_users", "protocol", "re_mean", "l2_mean"]
    return report


# --------------------------------------------------------------------- #
# Figures 9 and 10 — projection loss vs theta
# --------------------------------------------------------------------- #
def figure9_projection_l2(
    datasets: Sequence[str] = EPSILON_SWEEP_DATASETS,
    thetas: Sequence[int] = (5, 10, 25, 50, 100),
    num_nodes: int = 400,
    num_trials: int = 3,
    seed: int = 0,
) -> ExperimentReport:
    """Figure 9 — l2 projection loss of `Project` vs random `GraphProjection`.

    For each projection parameter θ both methods truncate every user's
    adjacency list to θ neighbours; the loss is measured between the exact
    triangle count and the count surviving in the projected (asymmetric)
    adjacency rows, with no noise involved.
    """
    report = ExperimentReport(
        name="fig9",
        description="projection l2 loss vs theta (similarity Project vs random GraphProjection)",
        columns=["dataset", "theta", "method", "l2_mean", "re_mean"],
    )
    for dataset in datasets:
        graph = load_dataset(dataset, num_nodes=num_nodes)
        true_count = count_triangles(graph)
        for theta in thetas:
            similarity = SimilarityProjection(theta)
            projected = similarity.project_graph(graph)
            surviving = projected_triangle_count(projected.projected_rows)
            report.add_row(
                dataset=dataset,
                theta=theta,
                method="Project",
                l2_mean=l2_loss(true_count, surviving),
                re_mean=relative_error(true_count, surviving) if true_count else float("inf"),
            )
            random_l2 = []
            random_re = []
            for trial in range(num_trials):
                random_projection = RandomProjection(theta)
                random_result = random_projection.project_graph(graph, rng=seed * 100 + trial)
                random_surviving = projected_triangle_count(random_result.projected_rows)
                random_l2.append(l2_loss(true_count, random_surviving))
                if true_count:
                    random_re.append(relative_error(true_count, random_surviving))
            report.add_row(
                dataset=dataset,
                theta=theta,
                method="GraphProjection",
                l2_mean=aggregate_trials(random_l2).mean,
                re_mean=aggregate_trials(random_re).mean if random_re else float("inf"),
            )
    return report


def figure10_projection_relative_error(
    datasets: Sequence[str] = EPSILON_SWEEP_DATASETS,
    thetas: Sequence[int] = (5, 10, 25, 50, 100),
    num_nodes: int = 400,
    num_trials: int = 3,
    seed: int = 0,
) -> ExperimentReport:
    """Figure 10 — relative projection loss vs θ (same sweep as Figure 9)."""
    report = figure9_projection_l2(datasets, thetas, num_nodes, num_trials, seed)
    report.name = "fig10"
    report.description = "projection relative error vs theta (Project vs GraphProjection)"
    report.columns = ["dataset", "theta", "method", "re_mean", "l2_mean"]
    return report


# --------------------------------------------------------------------- #
# Figures 11 and 12 — running time vs number of users
# --------------------------------------------------------------------- #
def figure11_running_time(
    dataset: str = "facebook",
    user_counts: Sequence[int] = (100, 200, 300),
    epsilon: float = 2.0,
    seed: int = 0,
    counting_backend: CountingBackend = CountingBackend.MATRIX,
) -> ExperimentReport:
    """Figure 11 — running time on Facebook as n grows.

    Reports the wall-clock time of CentralLap△, Local2Rounds△, the full
    CARGO protocol, and CARGO's `Count` phase alone (the paper shows that
    Count dominates CARGO's cost).
    """
    report = ExperimentReport(
        name="fig11",
        description=f"running time vs number of users on {dataset} (epsilon={epsilon})",
        columns=["dataset", "num_users", "central_lap_s", "local2rounds_s", "cargo_s", "cargo_count_s"],
    )
    for num_users in user_counts:
        graph = load_dataset(dataset, num_nodes=num_users)

        start = time.perf_counter()
        CentralLaplaceTriangleCounting(epsilon=epsilon).run(graph, rng=seed)
        central_seconds = time.perf_counter() - start

        start = time.perf_counter()
        LocalTwoRoundsTriangleCounting(epsilon=epsilon).run(graph, rng=seed)
        local_seconds = time.perf_counter() - start

        cargo = Cargo(CargoConfig(epsilon=epsilon, seed=seed, counting_backend=counting_backend))
        result = cargo.run(graph)
        cargo_seconds = result.timings.get("total", 0.0)
        count_seconds = result.timings.get("count", 0.0)

        report.add_row(
            dataset=dataset,
            num_users=num_users,
            central_lap_s=central_seconds,
            local2rounds_s=local_seconds,
            cargo_s=cargo_seconds,
            cargo_count_s=count_seconds,
        )
    return report


def figure12_running_time_wiki(
    user_counts: Sequence[int] = (100, 200, 300),
    epsilon: float = 2.0,
    seed: int = 0,
    counting_backend: CountingBackend = CountingBackend.MATRIX,
) -> ExperimentReport:
    """Figure 12 — running time on Wiki as n grows (same series as Figure 11)."""
    report = figure11_running_time(
        dataset="wiki",
        user_counts=user_counts,
        epsilon=epsilon,
        seed=seed,
        counting_backend=counting_backend,
    )
    report.name = "fig12"
    report.description = f"running time vs number of users on wiki (epsilon={epsilon})"
    return report
