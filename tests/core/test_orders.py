"""Tests for the neighbor order and core order index structures."""

import numpy as np
import pytest

from repro.core import build_core_order, build_neighbor_order
from repro.graphs import from_edge_list, paper_example_graph
from repro.similarity import compute_similarities, edge_similarity_reference


@pytest.fixture
def paper_index_parts(paper_graph):
    similarities = compute_similarities(paper_graph)
    neighbor_order, _, ranks = build_neighbor_order(paper_graph, similarities)
    core_order = build_core_order(paper_graph, neighbor_order, ranks)
    return paper_graph, similarities, neighbor_order, core_order


class TestNeighborOrder:
    def test_neighbors_sorted_by_non_increasing_similarity(self, community_graph):
        similarities = compute_similarities(community_graph)
        order, _, _ = build_neighbor_order(community_graph, similarities)
        for v in range(community_graph.num_vertices):
            values = order.similarities_of(v)
            assert np.all(np.diff(values) <= 1e-12)

    def test_same_neighbor_set_as_graph(self, paper_index_parts):
        graph, _, order, _ = paper_index_parts
        for v in range(graph.num_vertices):
            assert sorted(order.neighbors_of(v).tolist()) == graph.neighbors(v).tolist()

    def test_paper_figure2_order_for_vertex_4(self, paper_index_parts):
        # Paper vertex 5 (0-based 4): NO = [6 (.58), 4 (.52)] -> 0-based [5, 3].
        _, _, order, _ = paper_index_parts
        assert order.neighbors_of(4).tolist() == [5, 3]

    def test_paper_figure2_order_for_vertex_3(self, paper_index_parts):
        # Paper vertex 4: NO = [2 (.89), 1 (.77), 3 (.77), 5 (.52)] -> [1, 0, 2, 4].
        _, _, order, _ = paper_index_parts
        assert order.neighbors_of(3).tolist() == [1, 0, 2, 4]

    def test_similarities_match_scores(self, paper_index_parts):
        graph, similarities, order, _ = paper_index_parts
        for v in range(graph.num_vertices):
            for neighbor, value in zip(order.neighbors_of(v), order.similarities_of(v)):
                assert value == pytest.approx(similarities.of(v, int(neighbor)))

    def test_epsilon_neighborhood_size_matches_definition(self, paper_index_parts):
        graph, similarities, order, _ = paper_index_parts
        for v in range(graph.num_vertices):
            for epsilon in (0.3, 0.6, 0.75, 0.9):
                expected = sum(
                    1 for u in graph.neighbors(v)
                    if similarities.of(v, int(u)) >= epsilon
                )
                assert order.epsilon_neighborhood_size(v, epsilon) == expected

    def test_epsilon_neighbors_prefix(self, paper_index_parts):
        _, similarities, order, _ = paper_index_parts
        neighbors = order.epsilon_neighbors(3, 0.75)
        assert all(similarities.of(3, int(u)) >= 0.75 for u in neighbors)

    def test_core_threshold_values(self, paper_index_parts):
        # Paper vertex 6 (0-based 5): thresholds .75 (mu=2), .75 (mu=3), .58 (mu=4).
        _, _, order, _ = paper_index_parts
        assert order.core_threshold(5, 2) == pytest.approx(0.75, abs=0.01)
        assert order.core_threshold(5, 3) == pytest.approx(0.75, abs=0.01)
        assert order.core_threshold(5, 4) == pytest.approx(0.58, abs=0.01)

    def test_core_threshold_mu_one_is_one(self, paper_index_parts):
        _, _, order, _ = paper_index_parts
        assert order.core_threshold(9, 1) == 1.0

    def test_core_threshold_exceeding_degree_is_none(self, paper_index_parts):
        _, _, order, _ = paper_index_parts
        assert order.core_threshold(9, 4) is None  # vertex 10 has degree 1

    def test_integer_and_comparison_sort_agree(self, community_graph):
        # The integer sort quantises the similarity scores, so neighbors whose
        # scores differ by less than the quantisation step may swap; the
        # similarity *sequences* must still agree to within that step.
        similarities = compute_similarities(community_graph)
        a, _, _ = build_neighbor_order(community_graph, similarities, use_integer_sort=True)
        b, _, _ = build_neighbor_order(community_graph, similarities, use_integer_sort=False)
        assert np.allclose(a.similarities, b.similarities, atol=2.0 / (1 << 20))
        for v in range(0, community_graph.num_vertices, 7):
            assert sorted(a.neighbors_of(v).tolist()) == sorted(b.neighbors_of(v).tolist())


class TestCoreOrder:
    def test_max_mu_is_max_closed_degree(self, paper_index_parts):
        graph, _, _, core_order = paper_index_parts
        assert core_order.max_mu == graph.max_degree + 1

    def test_candidates_are_vertices_with_enough_neighbors(self, paper_index_parts):
        graph, _, _, core_order = paper_index_parts
        for mu in range(2, core_order.max_mu + 1):
            vertices, _ = core_order.candidates(mu)
            expected = {v for v in range(graph.num_vertices) if graph.degree(v) >= mu - 1}
            assert set(vertices.tolist()) == expected

    def test_paper_figure3_co3_membership(self, paper_index_parts):
        # CO[3] holds the nine vertices whose closed neighborhood has >= 3
        # members, i.e. paper vertices 1-9 (0-based 0-8).
        _, _, _, core_order = paper_index_parts
        vertices, _ = core_order.candidates(3)
        assert set(vertices.tolist()) == set(range(9))

    def test_thresholds_non_increasing(self, paper_index_parts):
        _, _, _, core_order = paper_index_parts
        for mu in range(2, core_order.max_mu + 1):
            _, thresholds = core_order.candidates(mu)
            assert np.all(np.diff(thresholds) <= 1e-12)

    def test_thresholds_match_neighbor_order(self, paper_index_parts):
        _, _, neighbor_order, core_order = paper_index_parts
        for mu in range(2, core_order.max_mu + 1):
            vertices, thresholds = core_order.candidates(mu)
            for v, threshold in zip(vertices.tolist(), thresholds.tolist()):
                assert threshold == pytest.approx(neighbor_order.core_threshold(v, mu))

    def test_out_of_range_mu_has_no_candidates(self, paper_index_parts):
        _, _, _, core_order = paper_index_parts
        assert core_order.candidates(1)[0].size == 0
        assert core_order.candidates(core_order.max_mu + 5)[0].size == 0

    def test_cores_match_brute_force(self, community_graph):
        similarities = compute_similarities(community_graph)
        neighbor_order, _, ranks = build_neighbor_order(community_graph, similarities)
        core_order = build_core_order(community_graph, neighbor_order, ranks)
        for mu in (2, 3, 5, 9):
            for epsilon in (0.2, 0.4, 0.6):
                expected = set()
                for v in range(community_graph.num_vertices):
                    similar = sum(
                        1 for u in community_graph.neighbors(v)
                        if similarities.of(v, int(u)) >= epsilon
                    )
                    if similar + 1 >= mu:
                        expected.add(v)
                cores = set(core_order.cores(mu, epsilon).tolist())
                assert cores == expected

    def test_paper_example_cores(self, paper_index_parts):
        # With (mu, eps) = (3, 0.6): cores are paper vertices 1,2,3,4,6,7,8
        # (0-based 0,1,2,3,5,6,7).
        _, _, _, core_order = paper_index_parts
        assert set(core_order.cores(3, 0.6).tolist()) == {0, 1, 2, 3, 5, 6, 7}

    def test_core_threshold_lookup(self, paper_index_parts):
        _, _, _, core_order = paper_index_parts
        assert core_order.core_threshold(5, 3) == pytest.approx(0.75, abs=0.01)
        assert core_order.core_threshold(9, 4) is None

    def test_integer_and_comparison_sort_agree(self, community_graph):
        similarities = compute_similarities(community_graph)
        order, _, ranks = build_neighbor_order(community_graph, similarities)
        a = build_core_order(community_graph, order, ranks)
        b = build_core_order(community_graph, order, None)
        for mu in (2, 4, 8):
            assert set(a.cores(mu, 0.5).tolist()) == set(b.cores(mu, 0.5).tolist())
        # Rank keys and raw-threshold keys give the very same order.
        for name in ("indptr", "vertices", "thresholds"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestRankOnce:
    def test_one_rank_pass_yields_the_table_and_the_ranks(self, community_graph):
        similarities = compute_similarities(community_graph)
        order, boundaries, ranks = build_neighbor_order(community_graph, similarities)
        assert boundaries.tobytes() == np.unique(similarities.values).tobytes()
        assert ranks.dtype == np.int32
        assert np.array_equal(boundaries[ranks], order.similarities)
        floats, float_boundaries, no_ranks = build_neighbor_order(
            community_graph, similarities, use_integer_sort=False
        )
        assert no_ranks is None
        assert float_boundaries.tobytes() == boundaries.tobytes()
        assert np.array_equal(floats.neighbors, order.neighbors)


def _shapes(seed):
    """Graph shapes at the edges of the code widths, from one seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    pairs = rng.integers(0, n, size=(3 * n, 2))
    random = sorted({(int(min(u, v)), int(max(u, v))) for u, v in pairs if u != v})
    star = [(0, leaf) for leaf in range(1, n)]
    return {
        # One vertex beyond the last edge stays isolated.
        "random": from_edge_list(random, num_vertices=n + 1),
        # A few shared weights, so weighted scores tie too.
        "random-weighted": from_edge_list(
            random, num_vertices=n + 1,
            weights=rng.choice([0.5, 1.0, 1.5, rng.uniform(0.2, 3.0)], size=len(random)),
        ),
        "star": from_edge_list(star),
        # A complete graph scores every edge the same: K = 1.
        "all-equal": from_edge_list([(u, v) for u in range(6) for v in range(u + 1, 6)]),
        "max-degree-1": from_edge_list([(2 * i, 2 * i + 1) for i in range(n // 2)]),
        "empty": from_edge_list(np.zeros((0, 2), dtype=np.int64), num_vertices=4),
    }


@pytest.mark.parametrize("seed", range(6))
def test_code_sort_matches_the_wide_key_fallback(seed, monkeypatch):
    """Packed codes and the forced lexsort fallback build identical orders."""
    from repro.parallel import sorting

    def build(graph):
        similarities = compute_similarities(graph)
        order, boundaries, ranks = build_neighbor_order(graph, similarities)
        core = build_core_order(graph, order, ranks)
        return [order.indptr, order.neighbors, order.similarities, boundaries, ranks,
                core.indptr, core.vertices, core.thresholds]

    for name, graph in _shapes(seed).items():
        packed = build(graph)
        with monkeypatch.context() as patched:
            patched.setattr(sorting, "CODE_BITS", -1)  # every input falls back
            fallback = build(graph)
        for a, b in zip(packed, fallback):
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", range(3))
def test_ties_break_by_neighbor_id_and_degree_order(seed):
    """NO ties keep ascending neighbor ids; CO ties keep (degree desc, id asc)."""
    for graph in _shapes(seed).values():
        similarities = compute_similarities(graph)
        order, _, ranks = build_neighbor_order(graph, similarities)
        core = build_core_order(graph, order, ranks)
        for v in range(graph.num_vertices):
            neighbors = order.neighbors_of(v).tolist()
            expected = sorted(zip(-order.similarities_of(v), neighbors))
            assert [u for _, u in expected] == neighbors
        degrees = graph.degrees
        for mu in range(2, core.max_mu + 1):
            vertices, thresholds = core.candidates(mu)
            expected = sorted(zip(-thresholds, -degrees[vertices], vertices.tolist()))
            assert [v for _, _, v in expected] == vertices.tolist()
