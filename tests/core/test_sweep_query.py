"""Tests for the batched multi-(mu, epsilon) query planner."""

import io
import json

import numpy as np
import pytest

from repro import ScanIndex, obs
from repro.core.sweep_query import query_many
from repro.graphs import from_edge_list, paper_example_graph, planted_partition
from repro.parallel import Scheduler


@pytest.fixture(scope="module")
def paper_index():
    return ScanIndex.build(paper_example_graph())


@pytest.fixture(scope="module")
def community_index():
    graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.02, seed=11)
    return ScanIndex.build(graph)


def assert_same_answer(planned, single):
    """Two compact answers agree field by field, and both are read-only."""
    assert np.array_equal(planned.vertices, single.vertices)   # order included
    assert np.array_equal(planned.labels, single.labels)
    assert planned.vertices.dtype == single.vertices.dtype
    assert planned.labels.dtype == single.labels.dtype
    assert planned.num_cores == single.num_cores
    assert planned.num_clusters == single.num_clusters
    for answer in (planned, single):
        assert not answer.vertices.flags.writeable
        assert not answer.labels.flags.writeable


def random_grid(rng, max_mu, count):
    """Randomized (mu, epsilon) pairs with deliberately repeated epsilons."""
    mus = rng.integers(2, max_mu + 3, size=count)
    epsilons = rng.choice(np.round(np.linspace(0.0, 1.0, 12), 4), size=count)
    return [(int(mu), float(eps)) for mu, eps in zip(mus, epsilons)]


class TestIdentityWithPerPairQueries:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_pair_queries(self, community_index, seed):
        rng = np.random.default_rng(seed)
        pairs = random_grid(rng, community_index.graph.max_degree + 1, 30)
        batched = community_index.query_many(pairs)
        assert len(batched) == len(pairs)
        for (mu, epsilon), clustering in zip(pairs, batched):
            single = community_index.query(mu, epsilon)
            assert np.array_equal(clustering.labels, single.labels), (mu, epsilon)
            assert np.array_equal(clustering.core_mask, single.core_mask)
            assert clustering.mu == mu
            assert clustering.epsilon == epsilon
        planned = query_many(
            community_index.neighbor_order, community_index.core_order, pairs
        )
        for pair, answer in zip(pairs, planned):
            (single,) = query_many(
                community_index.neighbor_order, community_index.core_order, [pair]
            )
            assert_same_answer(answer, single)

    def test_paper_example(self, paper_index):
        pairs = [(3, 0.6), (2, 0.5), (3, 0.6), (64, 0.1), (2, 1.0), (2, 0.0)]
        batched = paper_index.query_many(pairs)
        assert batched[0].num_clusters == 2
        assert batched[2].num_clusters == 2
        assert batched[3].num_clusters == 0       # mu above max closed degree
        assert batched[4].num_clustered_vertices == 0
        assert batched[5].num_clusters == 1

    def test_mu_beyond_int64_matches_per_pair_queries(self, paper_index):
        pairs = [(2**63, 0.3), (3, 0.6), (2**64 + 5, 0.6), (2**63 - 1, 0.0)]
        batched = paper_index.query_many(pairs)
        session = paper_index.session()
        for (mu, epsilon), clustering in zip(pairs, batched):
            single = paper_index.query(mu, epsilon)
            served = session.serve(mu, epsilon)
            for result in (single, served.to_clustering()):
                assert np.array_equal(clustering.labels, result.labels)
                assert np.array_equal(clustering.core_mask, result.core_mask)
            assert clustering.mu == mu
            if mu != 3:
                assert clustering.num_clusters == 0

    def test_duplicate_pairs_share_results(self, paper_index):
        batched = paper_index.query_many([(3, 0.6)] * 4)
        for clustering in batched[1:]:
            assert np.array_equal(batched[0].labels, clustering.labels)

    def test_classify_hubs_and_outliers(self, paper_index):
        [clustering] = paper_index.query_many(
            [(3, 0.6)], classify_hubs_and_outliers=True
        )
        assert clustering.hubs().tolist() == [4]
        assert clustering.outliers().tolist() == [8, 9]


class TestPlannerEfficiency:
    def test_sweep_charges_less_work_than_per_pair_queries(self, community_index):
        epsilons = np.round(np.linspace(0.05, 0.95, 10), 4)
        pairs = [(mu, float(eps)) for mu in (2, 3, 5, 8, 13) for eps in epsilons]
        batch_scheduler = Scheduler()
        community_index.query_many(pairs, scheduler=batch_scheduler)
        single_scheduler = Scheduler()
        for mu, epsilon in pairs:
            community_index.query(mu, epsilon, scheduler=single_scheduler)
        assert batch_scheduler.counter.work < single_scheduler.counter.work

    def test_arcs_gathered_once_per_distinct_epsilon(self, community_index):
        # Ten pairs sharing one epsilon must cost barely more than one pair.
        one = Scheduler()
        community_index.query_many([(2, 0.3)], scheduler=one)
        ten = Scheduler()
        community_index.query_many(
            [(mu, 0.3) for mu in (2, 2, 3, 3, 5, 5, 8, 8, 13, 13)], scheduler=ten
        )
        per_pair = Scheduler()
        for mu in (2, 2, 3, 3, 5, 5, 8, 8, 13, 13):
            community_index.query(mu, 0.3, scheduler=per_pair)
        assert ten.counter.work < per_pair.counter.work

    def test_module_level_entry_point(self, community_index):
        pairs = [(2, 0.4), (3, 0.4)]
        results = query_many(
            community_index.neighbor_order, community_index.core_order, pairs
        )
        for pair, ours in zip(pairs, results):
            (theirs,) = query_many(
                community_index.neighbor_order, community_index.core_order, [pair]
            )
            assert_same_answer(ours, theirs)


class TestEdgeCases:
    def test_empty_batch(self, paper_index):
        assert paper_index.query_many([]) == []

    def test_invalid_mu(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.query_many([(1, 0.5)])

    def test_invalid_epsilon(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.query_many([(2, 1.5)])

    @pytest.mark.parametrize("cache_size", [0, 4])
    def test_nan_epsilon_rejected(self, paper_index, cache_size):
        pairs = [(2, 0.5), (2, float("nan"))]
        with pytest.raises(ValueError, match="epsilon"):
            query_many(paper_index.neighbor_order, paper_index.core_order, pairs)
        with pytest.raises(ValueError, match="epsilon"):
            paper_index.query_many(pairs)
        with pytest.raises(ValueError, match="epsilon"):
            paper_index.session(cache_size=cache_size).query_many(pairs)

    def test_empty_graph(self):
        index = ScanIndex.build(from_edge_list([], num_vertices=3))
        results = index.query_many([(2, 0.5), (4, 0.1)])
        for clustering in results:
            assert clustering.num_clusters == 0

    def test_single_edge(self):
        index = ScanIndex.build(from_edge_list([(0, 1)]))
        [a, b] = index.query_many([(2, 0.5), (2, 1.0)])
        assert a.num_clustered_vertices == 2
        assert np.array_equal(b.labels, index.query(2, 1.0).labels)


def weighted_community_graph():
    graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.03, seed=5)
    edge_u, edge_v = graph.edge_list()
    weights = np.random.default_rng(5).uniform(0.2, 3.0, size=edge_u.shape[0])
    return from_edge_list(
        np.column_stack([edge_u, edge_v]), num_vertices=graph.num_vertices, weights=weights
    )


def ragged_grid(rng, index, count):
    """Pairs whose μ values each see a different set of ε values.

    ε comes from the stored similarities (where cores and borders appear),
    from 0 and 1, and from just above the largest core threshold of a μ, so
    that μ's chain starts with settings that select no cores; μ runs past
    ``max_mu`` and to 2**40; a fifth of the pairs are repeated.
    """
    core_order = index.core_order
    stored = np.unique(index.similarities.values)
    pairs = []
    for _ in range(count):
        mu = int(rng.integers(2, core_order.max_mu + 3))
        draw = rng.random()
        if draw < 0.6:
            epsilon = float(rng.choice(stored))
        elif draw < 0.7:
            epsilon = float(rng.choice([0.0, 1.0]))
        elif draw < 0.85:
            _, thresholds = core_order.candidates(mu)
            top = float(thresholds[0]) if thresholds.size else 0.5
            epsilon = min(float(np.nextafter(top, 2.0)), 1.0)
        else:
            epsilon = float(rng.uniform(0.0, 1.0))
        pairs.append((mu, epsilon))
    pairs += [pairs[int(i)] for i in rng.integers(0, count, size=count // 5)]
    pairs.append((2**40, float(rng.choice(stored))))
    order = rng.permutation(len(pairs))
    return [pairs[int(i)] for i in order]


class TestChainsMatchOnePairBatches:
    """A μ's settings are one chain in descending ε; every answer must still
    equal its own one-pair batch."""

    @pytest.fixture(scope="class", params=["unweighted", "weighted"])
    def index(self, request):
        if request.param == "unweighted":
            graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.04, seed=11)
        else:
            graph = weighted_community_graph()
        return ScanIndex.build(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ragged_grid(self, index, seed):
        rng = np.random.default_rng([seed, 1])
        pairs = ragged_grid(rng, index, 40)
        planned = query_many(index.neighbor_order, index.core_order, pairs)
        assert len(planned) == len(pairs)
        for pair, answer in zip(pairs, planned):
            (single,) = query_many(index.neighbor_order, index.core_order, [pair])
            assert_same_answer(answer, single)
        # Some chain starts with settings that select no cores, then gains them.
        with_cores = {mu for (mu, _), answer in zip(pairs, planned) if answer.num_cores}
        without = {mu for (mu, _), answer in zip(pairs, planned) if not answer.num_cores}
        assert with_cores & without


    def test_border_best_rises_along_the_chain(self):
        # At μ = 4, a core added at a smaller ε is more similar to a border
        # than the core that reached it first, and has the higher id: the
        # border's earlier winner must be dropped, not kept by the min-id tie.
        edges = [(0, 1), (0, 3), (0, 4), (0, 6), (0, 8), (1, 10), (2, 9), (2, 10),
                 (3, 6), (3, 7), (3, 9), (4, 9), (4, 10), (5, 11), (6, 7), (6, 11),
                 (7, 10), (8, 9), (8, 11), (9, 11)]
        index = ScanIndex.build(from_edge_list(edges, num_vertices=12))
        epsilons = np.unique(np.minimum(index.similarities.values, 1.0)).tolist()
        pairs = [(mu, eps) for mu in (2, 3, 4, 5) for eps in epsilons]
        planned = query_many(index.neighbor_order, index.core_order, pairs)
        for pair, answer in zip(pairs, planned):
            (single,) = query_many(index.neighbor_order, index.core_order, [pair])
            assert_same_answer(answer, single)


def twin_heavy_grid(rng, index, count):
    """Pairs most of which select the same cores as a smaller μ at their ε.

    ε is 0, or a stored similarity from the lowest fifth, where nearly every
    vertex is a core for the smallest third of the μ values; most μ are
    drawn from there, the rest from 2 past ``max_mu`` and 2**40, and a
    quarter of the pairs are repeated.
    """
    stored = np.unique(index.similarities.values)
    low = np.concatenate(([0.0], stored[: max(stored.size // 5, 1)]))
    epsilons = rng.choice(low, size=4)
    max_mu = index.core_order.max_mu
    pairs = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.7:
            mu = int(rng.integers(2, max(max_mu // 3, 3)))
        elif draw < 0.95:
            mu = int(rng.integers(2, max_mu + 3))
        else:
            mu = 2**40
        pairs.append((mu, float(rng.choice(epsilons))))
    pairs += [pairs[int(i)] for i in rng.integers(0, count, size=count // 4)]
    return [pairs[int(i)] for i in rng.permutation(len(pairs))]


def prefix_twins(run):
    """``run()`` under a tracer; the ``twins`` attribute of each prefix span."""
    sink = io.StringIO()
    previous = obs.install(tracer=obs.Tracer(sink))
    try:
        run()
    finally:
        obs.install(tracer=previous[0])
    spans = [json.loads(line) for line in sink.getvalue().splitlines()]
    return [span["attrs"]["twins"] for span in spans if span["name"] == "core.query.prefix"]


class TestTwins:
    """A setting that selects as many cores as a smaller μ at its ε is answered from that twin, not from a chain step;
    its answer must still equal its own one-pair batch."""

    @pytest.fixture(scope="class", params=["unweighted", "weighted"])
    def index(self, request):
        if request.param == "unweighted":
            graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.04, seed=11)
        else:
            graph = weighted_community_graph()
        return ScanIndex.build(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_twin_heavy_batches_match_one_pair_batches(self, index, seed):
        rng = np.random.default_rng([seed, 7])
        pairs = twin_heavy_grid(rng, index, 48)
        planned = []
        (twins,) = prefix_twins(lambda: planned.extend(query_many(
            index.neighbor_order, index.core_order, pairs,
        )))
        assert len(planned) == len(pairs)
        for pair, answer in zip(pairs, planned):
            (single,) = query_many(index.neighbor_order, index.core_order, [pair])
            assert_same_answer(answer, single)
        assert twins >= len(pairs) // 3

    def test_prefix_span_counts_the_twins(self, community_index):
        # (3, 0.1), both (5, 0.1) and (3, 0.3) select (2, ε)'s 100 cores; μ 400
        # selects none, and a one-pair batch has no twin.
        pairs = [(2, 0.1), (3, 0.1), (5, 0.1), (5, 0.1), (400, 0.1), (2, 0.3), (3, 0.3)]

        def run():
            for batch in (pairs, pairs[:1]):
                query_many(
                    community_index.neighbor_order, community_index.core_order, batch,
                )

        assert prefix_twins(run) == [4, 0]


class TestChainCharges:
    # Work and span of one-pair batches, unchanged since sweeps were
    # planned as one union-find forest per ε group.
    @pytest.mark.parametrize(
        "graph_name, pair, work, span",
        [
            ("paper", (3, 0.6), 83, 26),
            ("paper", (2, 0.5), 123, 31),
            ("communities", (2, 0.3), 3292, 52),
            ("communities", (5, 0.4), 2852, 56),
        ],
    )
    def test_one_pair_batch_charges_are_pinned(
        self, paper_index, community_index, graph_name, pair, work, span
    ):
        index = paper_index if graph_name == "paper" else community_index
        scheduler = Scheduler()
        index.query_many([pair], scheduler=scheduler)
        assert scheduler.counter.work == work
        assert scheduler.counter.span == span

    def test_grid_charges_less_than_per_epsilon_group_forests(self, community_index):
        # 5 μ × 9 ε; one forest per ε group, each pair masking all of its
        # group's arcs, charged 43,315 work on this grid.
        epsilons = np.round(np.linspace(0.1, 0.9, 9), 4)
        pairs = [(mu, float(eps)) for mu in (2, 3, 5, 8, 13) for eps in epsilons]
        scheduler = Scheduler()
        community_index.query_many(pairs, scheduler=scheduler)
        assert scheduler.counter.work < 43315

    @pytest.mark.parametrize(
        "pairs, work, span",
        [
            # (3, 0.1) selects (2, 0.1)'s 100 cores: one more prefix search and
            # one charge per core on top of the (2, 0.1) batch's 3,736 / 52.
            ([(2, 0.1), (3, 0.1)], 3852, 54),
            ([(2, 0.1), (3, 0.1), (5, 0.1), (5, 0.1), (400, 0.1), (2, 0.3), (3, 0.3)],
             5185, 85),
        ],
    )
    def test_twin_batch_charges_are_pinned(self, community_index, pairs, work, span):
        scheduler = Scheduler()
        community_index.query_many(pairs, scheduler=scheduler)
        assert scheduler.counter.work == work
        assert scheduler.counter.span == span
