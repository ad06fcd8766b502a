"""The benchmark's workloads: inputs from a seed, an independent count, checks.

Each workload is one paper-scale release configuration run through the
public ``Cargo(config).run(graph)`` entry point.  The graph is generated
from the workload seed once per process; every release gets a fresh Cargo
seed derived from the workload seed and the release index, because a
deployment never reuses DP noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

import numpy as np

# |noisy - projected| may exceed the bound below with probability < 1e-9:
# the users' distributed noise sums to Laplace(Δ/ε2), whose two-sided tail
# is P(|X| > t) = exp(-t ε2 / Δ).
TAIL_FAILURE_PROBABILITY = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # "facebook" (dataset stand-in) or "sparse" (G(n, m))
    num_nodes: int
    num_edges: int = 0
    statistic: str = "triangles"
    star_k: int = 3
    options: Dict[str, object] = field(default_factory=dict)
    # Entry points (layers.ENTRY_POINTS qualnames) a traced release must
    # reach; every other wrapped entry point must stay silent.
    reaches: FrozenSet[str] = frozenset()

    def make_graph(self, seed: int):
        if self.graph == "facebook":
            from repro.graph import load_dataset

            return load_dataset("facebook", num_nodes=self.num_nodes, seed=seed)
        from repro.graph.generators import sparse_random_graph

        return sparse_random_graph(self.num_nodes, self.num_edges, seed=seed)

    def independent_count(self, graph) -> int:
        """The true statistic, computed here without the program's counters."""
        if self.statistic == "triangles":
            return triangles_from_edges(graph.num_nodes, graph.edge_list())
        return kstars_from_edges(graph.num_nodes, graph.edge_list(), self.star_k)

    def cargo_config(self, release_seed: int):
        from repro.core import CargoConfig

        return CargoConfig(
            epsilon=2.0,
            seed=release_seed,
            statistic=self.statistic,
            star_k=self.star_k,
            **self.options,
        )

    def sensitivity(self, noisy_max_degree: float) -> float:
        """Post-projection edge sensitivity of the released count (paper, Thm. 2)."""
        if self.statistic == "triangles":
            return float(noisy_max_degree)
        bound = max(int(noisy_max_degree), 0)
        return max(2.0 * math.comb(max(bound - 1, 0), self.star_k - 1), 1.0)


def release_seed(workload_seed: int, index: int) -> int:
    """A distinct Cargo seed per (workload seed, release index)."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(1)
    return int(state[0])


def triangles_from_edges(num_nodes: int, edges: List[tuple]) -> int:
    """trace(A^3) / 6 over neighbour sets: Σ_{u<v adjacent} |N(u) ∩ N(v)| / 3."""
    neighbours = [set() for _ in range(num_nodes)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    closed = sum(len(neighbours[u] & neighbours[v]) for u, v in edges)
    return closed // 3


def kstars_from_edges(num_nodes: int, edges: List[tuple], k: int) -> int:
    """Σ_v C(deg(v), k) with degrees counted from the edge list."""
    endpoints = np.asarray(edges, dtype=np.int64).reshape(-1)
    degrees = np.bincount(endpoints, minlength=num_nodes)
    return sum(math.comb(int(d), k) for d in degrees)


def check_release(workload: Workload, result, true_count: int, num_users: int,
                  fixed_point_bits: int) -> List[str]:
    """Problems with one release; an empty list means the release is correct."""
    problems = []
    if result.true_triangle_count != true_count:
        problems.append(
            f"ground truth {result.true_triangle_count} != independent count {true_count}"
        )
    projected = result.projected_triangle_count
    if not 0 <= projected <= true_count:
        problems.append(f"projected count {projected} outside [0, {true_count}]")
    scale = workload.sensitivity(result.noisy_max_degree) / result.epsilon2
    # Fixed-point encoding rounds each user's noise share by at most one
    # unit of 2^-fixed_point_bits.
    rounding = num_users / 2 ** fixed_point_bits
    bound = scale * math.log(1.0 / TAIL_FAILURE_PROBABILITY) + rounding
    error = abs(result.noisy_triangle_count - projected)
    if not error <= bound:
        problems.append(
            f"|noisy - projected| = {error:.3f} exceeds the Laplace tail bound {bound:.3f}"
        )
    return problems


DENSE_COMMON = frozenset({
    "TriangleStatistic.plain_count",
    "TriangleStatistic.projected_count",
    "MaxDegreeEstimator.run",
    "SimilarityProjection.project_graph",
    "share_adjacency_rows",
})

# BENCHMARK.json lists the first two.  kstars-sparse-100k is run by hand
# (``--workload kstars-sparse-100k``): its Python-object-bound release
# time swings by 15-30% between runs on a shared 2-vCPU host, wider than
# any bound the benchmark may set, while the two dense workloads stay
# within a few percent.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tri-blocked-1024",
            why="paper's semi-honest triangle release at n=1024 (blocked backend): evaluation and 128-wide tile products dominate",
            graph="facebook",
            num_nodes=1024,
            options={"counting_backend": "blocked"},
            reaches=DENSE_COMMON | {
                "DistributedPerturbation.run",
                "TriangleStatistic.secure_count",
                "Ring.matmul",
                "BeaverTripleDealer.matrix_triple",
                "BeaverTripleDealer.vector_triple",
            },
        ),
        Workload(
            name="tri-matrix-768-dist",
            why="deployment setting: four processes, MAC-checked openings, 768x768 ring products in the servers, dealer-to-server wire bytes",
            graph="facebook",
            num_nodes=768,
            options={"counting_backend": "matrix", "distributed": True, "authenticate": True},
            reaches=DENSE_COMMON | {
                "TwoServerRuntime.__init__",
                "TwoServerRuntime.users_to_server",
                "TwoServerRuntime.broadcast_to_users",
                "Channel.send",
                "CommunicationLedger.phase_summary",
                "DistributedRuntime.__init__",
                "DistributedRuntime.close",
                "WireEndpoint.recv_expect",
            },
        ),
        Workload(
            name="kstars-sparse-100k",
            why="O(n) degree-local 3-star release at n=100k: no matrix, ring product, dealer or opening; per-user loops and the ledger dominate",
            graph="sparse",
            num_nodes=100_000,
            num_edges=300_000,
            statistic="kstars",
            options={"track_communication": True},
            reaches=frozenset({
                "KStarStatistic.plain_count",
                "KStarStatistic.degree_count",
                "MaxDegreeEstimator.run",
                "SimilarityProjection.project_degrees",
                "KStarStatistic.secure_count_from_degrees",
                "DistributedPerturbation.run",
                "TwoServerRuntime.__init__",
                "TwoServerRuntime.users_to_server",
                "TwoServerRuntime.broadcast_to_users",
                "Channel.send",
                "CommunicationLedger.summary",
                "CommunicationLedger.phase_summary",
            }),
        ),
    )
}
