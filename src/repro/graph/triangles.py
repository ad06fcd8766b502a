"""Exact (non-private) triangle counting.

These routines provide the ground truth ``T`` against which every private
estimate is scored, plus per-node triangle counts used by the clustering
coefficient and by projection-loss analysis.  Three independent algorithms
are provided so the test suite can cross-check them against each other:

* :func:`count_triangles_node_iterator` — for each node, count edges among
  its neighbours (``O(sum_i d_i^2)``),
* :func:`count_triangles_edge_iterator` — for each edge, intersect the two
  endpoints' neighbourhoods (``O(sum_{(u,v)} min(d_u, d_v))``),
* :func:`count_triangles_matrix` — ``trace(A^3) / 6`` with numpy.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.graph.graph import Graph
from repro.utils.blas import exact_int_matmul


def count_triangles(graph: Graph, use_cache: bool = True) -> int:
    """Exact number of triangles in *graph* (default: edge-iterator algorithm).

    The result is memoised on the graph instance (and invalidated by any
    edge mutation), so evaluation harnesses that score many protocol trials
    against the same ground truth pay for the exact count once.  Pass
    ``use_cache=False`` to force a recount without touching the cache.
    """
    if use_cache:
        cached = graph.cached_triangle_count
        if cached is not None:
            return cached
    count = count_triangles_edge_iterator(graph)
    if use_cache:
        graph.cached_triangle_count = count
    return count


def count_triangles_node_iterator(graph: Graph) -> int:
    """Count triangles by checking, per node, which neighbour pairs are adjacent.

    Each triangle ``{u, v, w}`` is discovered exactly once by only counting
    pairs ``v < w`` from the neighbourhood of the smallest-id node ``u``.
    """
    total = 0
    for u in graph.nodes():
        neighbours = sorted(w for w in graph.neighbor_view(u) if w > u)
        for i, v in enumerate(neighbours):
            v_neighbours = graph.neighbor_view(v)
            for w in neighbours[i + 1 :]:
                if w in v_neighbours:
                    total += 1
    return total


def count_triangles_edge_iterator(graph: Graph) -> int:
    """Count triangles by intersecting endpoint neighbourhoods per edge.

    Every triangle contains three edges and is therefore counted three times;
    restricting the common neighbour ``w`` to ``w > v > u`` makes each
    triangle count exactly once instead.  The filtered intersection runs
    copy-free through :meth:`~repro.graph.graph.Graph.common_neighbor_count`.
    """
    total = 0
    for u, v in graph.edges():
        total += graph.common_neighbor_count(u, v, above=v)
    return total


def count_triangles_matrix(graph: Graph) -> int:
    """Count triangles as ``trace(A^3) / 6`` using the dense adjacency matrix.

    Suitable for graphs up to a few thousand nodes; used by tests as an
    independent oracle and by the vectorised secure backend as its plaintext
    reference.
    """
    matrix = graph.adjacency_matrix(copy=False)
    if matrix.shape[0] == 0:
        return 0
    # trace(A^3) = sum_ij (A^2)_ij A_ji; A^2 is an exact float GEMM.
    cube_trace = int(np.sum(exact_int_matmul(matrix, matrix) * matrix.T))
    return cube_trace // 6


def local_triangle_counts(graph: Graph) -> List[int]:
    """Number of triangles incident to each node.

    ``sum(local) == 3 * T`` because each triangle touches three nodes.  Used
    by the clustering-coefficient statistics and by projection analysis.
    """
    counts = [0] * graph.num_nodes
    for u, v in graph.edges():
        common = graph.neighbor_view(u) & graph.neighbor_view(v)
        for w in common:
            if w > v:
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
    return counts


def triangles_per_edge(graph: Graph) -> Dict[tuple, int]:
    """Number of triangles supported by each edge ``(u, v)`` with ``u < v``.

    The similarity-projection analysis uses this to reason about which edge
    deletions are cheap (support few triangles) versus expensive.
    """
    support: Dict[tuple, int] = {edge: 0 for edge in graph.edges()}
    for u, v in graph.edges():
        common = graph.neighbor_view(u) & graph.neighbor_view(v)
        for w in common:
            if w > v:
                for a, b in ((u, v), (u, w), (v, w)):
                    support[(a, b) if a < b else (b, a)] += 1
    return support
