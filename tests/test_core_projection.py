"""Tests for repro.core.projection (Algorithm 3, `Project`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.projection import (
    SimilarityProjection,
    degree_similarity,
    projected_triangle_count,
)
from repro.baselines.random_projection import RandomProjection
from repro.exceptions import ConfigurationError
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles


class TestDegreeSimilarity:
    def test_identical_degrees(self):
        assert degree_similarity(10, 10) == 0.0

    def test_relative_difference(self):
        assert degree_similarity(10, 5) == pytest.approx(0.5)
        assert degree_similarity(10, 15) == pytest.approx(0.5)

    def test_asymmetry_of_definition(self):
        # DS is normalised by the *own* degree (Definition 5).
        assert degree_similarity(5, 10) == pytest.approx(1.0)
        assert degree_similarity(10, 5) == pytest.approx(0.5)

    def test_zero_own_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            degree_similarity(0, 3)


class TestProjectUser:
    def test_under_bound_unchanged(self):
        projection = SimilarityProjection(degree_bound=5)
        bits = np.array([0, 1, 1, 0, 0])
        assert np.array_equal(projection.project_user(bits, 2, [1.0] * 5), bits)

    def test_over_bound_keeps_most_similar(self):
        projection = SimilarityProjection(degree_bound=2)
        # User 0 has degree 4 with neighbours 1..4 whose noisy degrees differ.
        bits = np.array([0, 1, 1, 1, 1])
        noisy_degrees = [4.0, 4.0, 3.9, 1.0, 100.0]
        projected = projection.project_user(bits, 4, noisy_degrees)
        assert projected.sum() == 2
        assert projected[1] == 1 and projected[2] == 1  # most similar degrees kept
        assert projected[3] == 0 and projected[4] == 0

    def test_result_is_binary(self):
        projection = SimilarityProjection(degree_bound=1)
        projected = projection.project_user(np.array([0, 1, 1, 1]), 3, [3, 3, 3, 3])
        assert set(np.unique(projected)) <= {0, 1}

    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            SimilarityProjection(-1)


class TestProjectGraph:
    def test_bounded_degree_invariant(self, medium_cluster_graph):
        bound = 8
        result = SimilarityProjection(bound).project_graph(medium_cluster_graph)
        row_degrees = result.projected_rows.sum(axis=1)
        assert int(row_degrees.max()) <= bound

    def test_projection_only_removes_edges(self, medium_cluster_graph):
        result = SimilarityProjection(8).project_graph(medium_cluster_graph)
        adjacency = medium_cluster_graph.adjacency_matrix()
        assert np.all(result.projected_rows <= adjacency)

    def test_no_projection_when_bound_large(self, medium_cluster_graph):
        bound = medium_cluster_graph.max_degree()
        result = SimilarityProjection(bound).project_graph(medium_cluster_graph)
        assert result.edges_removed == 0
        assert np.array_equal(result.projected_rows, medium_cluster_graph.adjacency_matrix())

    def test_noisy_degree_length_checked(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            SimilarityProjection(2).project_graph(triangle_graph, noisy_degrees=[1.0])

    def test_users_projected_counter(self, star_graph):
        result = SimilarityProjection(3).project_graph(star_graph)
        assert result.users_projected == 1  # only the hub exceeds the bound
        assert result.edges_removed == 4


class TestProjectedTriangleCount:
    def test_matches_exact_count_without_projection(self, medium_cluster_graph):
        rows = medium_cluster_graph.adjacency_matrix()
        assert projected_triangle_count(rows) == count_triangles(medium_cluster_graph)

    def test_small_inputs(self):
        assert projected_triangle_count(np.zeros((2, 2), dtype=int)) == 0
        assert projected_triangle_count(np.zeros((0, 0), dtype=int)) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            projected_triangle_count(np.zeros((2, 3), dtype=int))

    def test_asymmetric_rows_follow_row_owner_semantics(self):
        """If user i drops edge (i, j) but j keeps it, triangles through a_ij vanish."""
        graph = Graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        rows = graph.adjacency_matrix()
        rows[0, 1] = 0  # user 0 dropped her edge to 1; user 1 still lists 0
        assert projected_triangle_count(rows) == 0

    def test_monotone_in_theta(self, medium_cluster_graph):
        counts = []
        for theta in (2, 6, 12, 1000):
            result = SimilarityProjection(theta).project_graph(medium_cluster_graph)
            counts.append(projected_triangle_count(result.projected_rows))
        assert counts == sorted(counts)
        assert counts[-1] == count_triangles(medium_cluster_graph)


    @pytest.mark.parametrize("n,density", [(7, 0.5), (130, 0.3), (300, 0.05), (257, 0.9)])
    def test_matches_int64_reference_on_asymmetric_rows(self, n, density):
        """The float GEMM evaluation equals the int64 formula bit for bit."""
        rows = (np.random.default_rng(n).random((n, n)) < density).astype(np.int64)
        upper = np.triu(rows, k=1)
        expected = int(np.sum(np.triu(upper.T @ upper, k=1) * upper))
        assert projected_triangle_count(rows) == expected


class TestSimilarityBeatsRandomProjection:
    def test_figure3_example_similarity_keeps_triangles(self, two_triangle_graph):
        """The paper's motivating example: the shared edge must survive."""
        true_count = count_triangles(two_triangle_graph)
        result = SimilarityProjection(3).project_graph(two_triangle_graph)
        assert projected_triangle_count(result.projected_rows) == true_count

    def test_similarity_preserves_at_least_as_many_triangles_on_average(self):
        graph = load_dataset("facebook", num_nodes=150)
        theta = 20
        similarity = SimilarityProjection(theta).project_graph(graph)
        similarity_count = projected_triangle_count(similarity.projected_rows)
        random_counts = []
        for seed in range(3):
            random_result = RandomProjection(theta).project_graph(graph, rng=seed)
            random_counts.append(projected_triangle_count(random_result.projected_rows))
        assert similarity_count >= np.mean(random_counts)
