"""Algorithm 3 — `Project`: similarity-based local graph projection.

Each user whose degree exceeds the (noisy) maximum degree bound keeps only
her ``d'_max`` most *degree-similar* neighbours and drops the rest.  The
intuition (Observation 1, triangle homogeneity) is that the three nodes of a
triangle tend to have similar degrees, so deleting the least-similar
neighbours destroys the fewest triangles — in contrast to the random edge
deletion used by prior local projections.

Projection is a purely local operation on each user's adjacent bit vector, so
the resulting "projected adjacency matrix" need not be symmetric: user ``i``
may drop the edge to ``j`` while ``j`` keeps the edge to ``i``.  The secure
counting step (Algorithm 4) consumes exactly one bit per (ordered) position —
``a_ij`` and ``a_ik`` from user ``i``'s row and ``a_jk`` from user ``j``'s
row, for ``i < j < k`` — so :func:`projected_triangle_count` evaluates the
same expression in the clear for ground truth and projection-loss analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.utils.blas import exact_int_matmul


def degree_similarity(own_degree: float, neighbor_degree: float) -> float:
    """Degree similarity ``DS(d1, d2) = |d1 - d2| / d1`` (Definition 5).

    Lower values mean more similar degrees.  ``own_degree`` must be positive;
    a user with degree zero has no edges to project anyway.

    Examples
    --------
    >>> degree_similarity(10, 8)
    0.2
    >>> degree_similarity(10, 10)
    0.0
    """
    if own_degree <= 0:
        raise ConfigurationError(f"own_degree must be positive, got {own_degree}")
    return abs(own_degree - neighbor_degree) / own_degree


@dataclass(frozen=True)
class ProjectionResult:
    """Output of the `Project` algorithm.

    Attributes
    ----------
    projected_rows:
        One 0/1 numpy row per user — the projected adjacent bit vectors
        ``Â_1 .. Â_n``.  Row ``i`` may differ from column ``i`` of another
        row because projection is local.
    degree_bound:
        The bound ``d'_max`` that was enforced.
    edges_removed:
        Total number of bits cleared across all rows.
    users_projected:
        Number of users whose degree exceeded the bound.
    """

    projected_rows: np.ndarray
    degree_bound: float
    edges_removed: int
    users_projected: int

    def row(self, user_index: int) -> np.ndarray:
        """The projected adjacent bit vector of one user."""
        return self.projected_rows[user_index]


@dataclass(frozen=True)
class DegreeProjectionResult:
    """Output of the degree-only `Project` shortcut (sparse path).

    Attributes
    ----------
    projected_degrees:
        One int64 entry per user — the row sum each user's projected bit
        vector *would* have: her true degree when it is at most the bound,
        ``floor(d'_max)`` otherwise.
    degree_bound:
        The bound ``d'_max`` that was enforced.
    edges_removed:
        Total bits the full projection would have cleared.
    users_projected:
        Number of users whose degree exceeded the bound.
    """

    projected_degrees: np.ndarray
    degree_bound: float
    edges_removed: int
    users_projected: int


class SimilarityProjection:
    """Similarity-based local projection (the paper's `Project`).

    Parameters
    ----------
    degree_bound:
        The noisy maximum degree ``d'_max`` produced by `Max`.  Users whose
        true degree is at most the bound keep their bit vector unchanged.
    """

    def __init__(self, degree_bound: float) -> None:
        if degree_bound < 0:
            raise ConfigurationError(f"degree_bound must be non-negative, got {degree_bound}")
        self._degree_bound = float(degree_bound)

    @property
    def degree_bound(self) -> float:
        """The enforced degree bound ``d'_max``."""
        return self._degree_bound

    def project_user(
        self,
        bit_vector: np.ndarray,
        own_degree: int,
        noisy_degrees: Sequence[float],
    ) -> np.ndarray:
        """Project a single user's adjacent bit vector.

        Implements lines 2-15 of Algorithm 3: when the user's true degree
        exceeds the bound, compute the degree similarity to every neighbour
        (using the *noisy* neighbour degrees published by `Max`), keep the
        ``floor(d'_max)`` most similar neighbours, and clear the rest.
        """
        bits = np.asarray(bit_vector, dtype=np.int64)
        keep_budget = int(self._degree_bound)
        if own_degree <= self._degree_bound:
            return bits.copy()
        neighbors = np.nonzero(bits)[0]
        if len(neighbors) <= keep_budget:
            return bits.copy()
        similarities = np.array(
            [degree_similarity(own_degree, noisy_degrees[j]) for j in neighbors]
        )
        # Keep the keep_budget smallest similarity values; ties are broken by
        # neighbour id so the projection is deterministic.
        order = np.lexsort((neighbors, similarities))
        kept = neighbors[order[:keep_budget]]
        projected = np.zeros_like(bits)
        projected[kept] = 1
        return projected

    def project_degrees(self, degrees: Sequence[int]) -> DegreeProjectionResult:
        """Degree-vector shortcut of `Project` — ``O(n)`` memory, no rows.

        For a degree-local statistic only the *row sums* of the projected
        bit vectors matter, and those are fully determined by the bound:
        a user with ``d_i <= d'_max`` keeps her row (sum ``d_i``), and a user
        with ``d_i > d'_max`` keeps exactly the ``floor(d'_max)`` most
        similar neighbours (sum ``floor(d'_max)``) — the similarity ranking
        in :meth:`project_user` decides *which* neighbours survive, never
        *how many*.  This method therefore reproduces
        ``project_graph(...).projected_rows.sum(axis=1)`` bit for bit while
        touching nothing but the degree vector, which is what lets the
        sparse release path run at 100k+ users.

        Examples
        --------
        >>> SimilarityProjection(2.5).project_degrees([1, 3, 2, 4]).projected_degrees
        array([1, 2, 2, 2])
        """
        original = np.asarray(degrees, dtype=np.int64)
        if original.ndim != 1:
            raise ConfigurationError(
                f"degrees must be a 1-D sequence, got shape {original.shape}"
            )
        over = original > self._degree_bound
        projected = np.where(over, np.int64(int(self._degree_bound)), original)
        return DegreeProjectionResult(
            projected_degrees=projected,
            degree_bound=self._degree_bound,
            edges_removed=int((original - projected).sum()),
            users_projected=int(np.count_nonzero(over)),
        )

    def project_graph(
        self,
        graph: Graph,
        noisy_degrees: Optional[Sequence[float]] = None,
    ) -> ProjectionResult:
        """Project every user's bit vector of *graph*.

        When *noisy_degrees* is omitted the true degrees are used for the
        similarity computation (useful for isolating projection loss from
        the `Max` estimation error, as the Figure 9/10 experiments do).
        """
        degrees = graph.degrees()
        reference_degrees: Sequence[float] = (
            noisy_degrees if noisy_degrees is not None else [float(d) for d in degrees]
        )
        if len(reference_degrees) != graph.num_nodes:
            raise ConfigurationError(
                "noisy_degrees length must equal the number of nodes: "
                f"{len(reference_degrees)} vs {graph.num_nodes}"
            )
        rows = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.int64)
        edges_removed = 0
        users_projected = 0
        for user in graph.nodes():
            original = graph.adjacency_bit_vector(user)
            projected = self.project_user(original, degrees[user], reference_degrees)
            removed = int(original.sum() - projected.sum())
            if removed > 0:
                users_projected += 1
                edges_removed += removed
            rows[user] = projected
        return ProjectionResult(
            projected_rows=rows,
            degree_bound=self._degree_bound,
            edges_removed=edges_removed,
            users_projected=users_projected,
        )


def projected_triangle_count(projected_rows: np.ndarray) -> int:
    """Plaintext evaluation of the count Algorithm 4 computes securely.

    Evaluates ``sum_{i<j<k} a_ij * a_ik * a_jk`` where ``a_ij`` and ``a_ik``
    are read from user ``i``'s (projected) row and ``a_jk`` from user ``j``'s
    row.  Used as ground truth for the secure backends and to measure
    projection loss.
    """
    rows = np.asarray(projected_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ConfigurationError(f"projected_rows must be square, got {rows.shape}")
    n = rows.shape[0]
    if n < 3:
        return 0
    # Strictly-upper-triangular view: C[i, j] = a_ij for i < j, read from row i.
    upper = np.triu(rows, k=1)
    # For each pair (j, k), the number of i < j with a_ij = a_ik = 1 is
    # (C^T C)[j, k] restricted to i < j, which the strict upper-triangular
    # structure of C already enforces; multiplying by C keeps only j < k.
    # The product is an exact float GEMM (entries are at most n).
    wedge_counts = exact_int_matmul(upper.T, upper)
    return int(np.vdot(wedge_counts, upper))
