import numpy as np
import pytest
from scipy import stats as scipy_stats

from cascadekit import diffusion
from cascadekit.diffusion import (
    NewsItem,
    diffuse,
    run_batch,
    sample_first_sharers,
    sample_news,
)
from cascadekit.errors import ParameterError
from cascadekit.graph import generate_small_world, label_edges
from cascadekit.stats import FittedDistribution
from cascadekit.trees import tree_height, tree_size, tree_to_dict

from oracles import brute_force_sharers, nodes_of


def small_graph(seed=0, n=200, z=4, r=0.2, phi=0.7):
    g = generate_small_world(n, z, r, seed=seed)
    return label_edges(g, phi, seed=seed + 1)


# --- first-sharer sampling -------------------------------------------------------

def test_point_mass_empirical_counts():
    dist = FittedDistribution.empirical([5, 5, 5])
    counts = sample_first_sharers(dist, 100, seed=0)
    assert np.all(counts == 5)


def test_poisson_counts_converge_to_rate():
    dist = FittedDistribution.poisson(39.24)
    counts = sample_first_sharers(dist, 10**6, seed=1)
    assert counts.mean() == pytest.approx(39.24, rel=0.01)


def test_inverse_gaussian_raw_draws_hit_mean_but_truncation_shifts_it():
    dist = FittedDistribution.inverse_gaussian(18.73, 9.63)
    raw = dist.sample(10**6, seed=40)
    assert raw.mean() == pytest.approx(18.73, rel=0.01)
    # integer-part truncation shaves roughly half a unit off the mean, so the
    # 1% tolerance applies to the raw draws, not the counts
    counts = sample_first_sharers(dist, 10**6, seed=40)
    assert 17.7 <= counts.mean() <= 18.5


def test_truncation_produces_zeros():
    dist = FittedDistribution.uniform(0.0, 1.5)
    counts = sample_first_sharers(dist, 2000, seed=2)
    assert np.all(counts >= 0)
    assert np.any(counts == 0)
    assert np.any(counts == 1)


def test_sample_first_sharers_rejects_negative_count():
    with pytest.raises(ParameterError):
        sample_first_sharers(FittedDistribution.poisson(1.0), -1, seed=0)


def test_a_count_beyond_int64_is_a_parameter_error_before_any_draw():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for count in (2**63, 10**20):
        with pytest.raises(ParameterError, match="news count"):
            sample_first_sharers(FittedDistribution.poisson(1.0), count, seed=rng)
        with pytest.raises(ParameterError, match="news count"):
            sample_news(count, FittedDistribution.poisson(1.0), seed=rng)
    assert rng.bit_generator.state == state


def test_negative_draws_are_a_parameter_error():
    with pytest.raises(ParameterError, match="negative draws"):
        sample_first_sharers(FittedDistribution.uniform(-3, -1), 5, seed=0)


def test_sample_news_rejects_a_negative_count_before_it_draws():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="news count"):
        sample_news(-1, FittedDistribution.poisson(1.0), seed=rng)
    assert rng.bit_generator.state == state


def test_sample_news_clips_at_max_count():
    dist = FittedDistribution.uniform(50, 60)
    news = sample_news(20, dist, seed=3, max_count=10)
    assert all(item.first_sharer_count == 10 for item in news)
    assert all(0.0 <= item.fitness <= 1.0 for item in news)


# --- single cascades ---------------------------------------------------------------

def test_full_threshold_spans_connected_graph():
    g = generate_small_world(150, 4, 0.0, seed=5)  # the ring is connected
    outcome = run_batch(g, [NewsItem(id=0, fitness=0.5, first_sharer_count=1)], delta=1.0, seed=6)[0]
    assert tree_size(outcome.tree) == 150
    assert len({nd.user for nd in nodes_of(outcome.tree)}) == 150


def test_zero_threshold_keeps_only_seeds():
    g = small_graph()
    outcome = run_batch(g, [NewsItem(id=1, fitness=0.5, first_sharer_count=7)], delta=0.0, seed=7)[0]
    assert tree_size(outcome.tree) == 7
    assert outcome.rounds == 0
    assert all(nd.parent is None and nd.t == 0 for nd in nodes_of(outcome.tree))


def test_zero_seeds_yield_empty_tree():
    g = small_graph()
    outcome = run_batch(g, [NewsItem(id=2, fitness=0.2, first_sharer_count=0)], delta=0.5, seed=8)[0]
    assert tree_size(outcome.tree) == 0
    assert outcome.rounds == 0


def test_too_many_seeds_is_an_error():
    g = small_graph()
    with pytest.raises(ParameterError):
        run_batch(g, [NewsItem(id=3, fitness=0.2, first_sharer_count=g.node_count + 1)], delta=0.1, seed=9)
    with pytest.raises(ParameterError):
        run_batch(g, [NewsItem(id=4, fitness=0.2, first_sharer_count=1)], delta=1.5, seed=9)


def test_cascade_structure_invariants():
    rng = np.random.default_rng(10)
    g = small_graph(seed=11, n=400, z=6, r=0.3, phi=0.6)
    homog_edges = {tuple(sorted(e)) for e, h in zip(g.edges.tolist(), g.homogeneous.tolist()) if h}
    for case in range(30):
        news = NewsItem(id=case, fitness=float(rng.uniform()), first_sharer_count=int(rng.integers(0, 12)))
        delta = float(rng.uniform(0, 0.2))
        outcome = run_batch(g, [news], delta, seed=int(rng.integers(2**32)))[0]
        nodes = nodes_of(outcome.tree)
        by_id = {nd.id: nd for nd in nodes}
        users = [nd.user for nd in nodes]
        assert len(users) == len(set(users))  # nobody shares twice
        for nd in nodes:
            if nd.parent is None:
                assert nd.t == 0
            else:
                parent = by_id[nd.parent]
                assert nd.t == parent.t + 1  # round-k parent, round-(k+1) child
                assert tuple(sorted((parent.user, nd.user))) in homog_edges
                assert abs(g.opinions[nd.user] - news.fitness) <= delta
        assert outcome.rounds == max((nd.t for nd in nodes), default=0)


def test_sharer_set_matches_brute_force_closure():
    rng = np.random.default_rng(12)
    for case in range(60):
        n = int(rng.integers(4, 13))
        z = 2
        g = generate_small_world(n, z, float(rng.uniform()), seed=int(rng.integers(2**32)))
        g = label_edges(g, float(rng.uniform()), seed=int(rng.integers(2**32)))
        m = int(rng.integers(1, n + 1))
        news = NewsItem(id=case, fitness=float(rng.uniform()), first_sharer_count=m)
        delta = float(rng.uniform(0, 0.6))
        outcome = run_batch(g, [news], delta, seed=case)[0]
        nodes = nodes_of(outcome.tree)
        seeds = [nd.user for nd in nodes if nd.parent is None]
        expected = brute_force_sharers(g, news.fitness, delta, seeds)
        assert {nd.user for nd in nodes} == expected


def test_monotone_in_delta_for_fixed_seed():
    g = small_graph(seed=13, n=300, z=6, r=0.1, phi=0.8)
    news = NewsItem(id=0, fitness=0.4, first_sharer_count=5)
    previous = set()
    for delta in (0.0, 0.02, 0.05, 0.1, 0.3, 1.0):
        outcome = run_batch(g, [news], delta, seed=99)[0]
        sharers = {nd.user for nd in nodes_of(outcome.tree)}
        assert previous <= sharers
        previous = sharers


def test_monotone_in_phi_with_nested_labels():
    base = generate_small_world(300, 6, 0.1, seed=14)
    news = NewsItem(id=0, fitness=0.6, first_sharer_count=5)
    previous = set()
    for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
        g = label_edges(base, phi, seed=1000)  # shared seed nests the edge sets
        outcome = run_batch(g, [news], 0.08, seed=77)[0]
        sharers = {nd.user for nd in nodes_of(outcome.tree)}
        assert previous <= sharers
        previous = sharers


# --- batches -------------------------------------------------------------------------

def test_empty_batch():
    g = small_graph()
    assert run_batch(g, [], 0.1, seed=0) == []


def test_batch_is_deterministic_and_ordered():
    g = small_graph(seed=15)
    dist = FittedDistribution.poisson(3.0)
    news = sample_news(1000, dist, seed=16, max_count=g.node_count)
    a = run_batch(g, news, 0.05, seed=17)
    b = run_batch(g, news, 0.05, seed=17)
    assert [o.news_id for o in a] == [item.id for item in news]
    assert [tree_to_dict(x.tree) for x in a] == [tree_to_dict(x.tree) for x in b]


def test_paper_scale_batch_completes():
    g = label_edges(generate_small_world(5000, 8, 0.1, seed=18), 0.7, seed=19)
    dist = FittedDistribution.inverse_gaussian(18.73, 9.63)
    news = sample_news(1000, dist, seed=20, max_count=g.node_count)
    outcomes = run_batch(g, news, 0.02, seed=21)
    assert len(outcomes) == 1000
    sizes = [tree_size(o.tree) for o in outcomes]
    seeds = [item.first_sharer_count for item in news]
    assert np.mean(sizes) >= np.mean(seeds)  # cascades never shrink below seeds


def test_single_seed_sizes_track_branching_formula():
    # Locally tree-like graph, every edge homogeneous: the mean cascade size
    # should approach <m> / (1 - 2 * delta * z).
    g = generate_small_world(5000, 8, 1.0, seed=22)
    dist = FittedDistribution.empirical([1, 2, 3])
    news = sample_news(10**4, dist, seed=23, max_count=g.node_count)
    outcomes = run_batch(g, news, 0.015, seed=24)
    mean_size = float(np.mean([tree_size(o.tree) for o in outcomes]))
    mean_seeds = float(np.mean([item.first_sharer_count for item in news]))
    predicted = mean_seeds / (1.0 - 2 * 0.015 * 8)
    assert abs(mean_size - predicted) / predicted < 0.10


# --- the batch frontier kernel ---------------------------------------------------------

def mixed_batch(g, count, seed, max_seeds=6):
    """Items with random fitness and seed counts, including zero seeds and every node."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, max_seeds + 1, size=count)
    counts[:2] = (0, g.node_count)
    return [NewsItem(id=i, fitness=float(f), first_sharer_count=int(c))
            for i, (f, c) in enumerate(zip(rng.uniform(size=count), counts))]


def test_batch_sharer_sets_match_brute_force_closure():
    # Many items expand together in one frontier; each item's sharer set must
    # still be the threshold closure of its own seeds and nothing else.
    rng = np.random.default_rng(25)
    for case in range(12):
        n = int(rng.integers(6, 40))
        g = generate_small_world(n, 2 * int(rng.integers(1, min(4, (n - 1) // 2) + 1)), float(rng.uniform()),
                                 seed=int(rng.integers(2**32)))
        g = label_edges(g, float(rng.uniform(0.3, 1.0)), seed=int(rng.integers(2**32)))
        news = mixed_batch(g, 40, seed=case)
        delta = float(rng.uniform(0, 0.5))
        outcomes = run_batch(g, news, delta, seed=case)
        for item, outcome in zip(news, outcomes):
            nodes = nodes_of(outcome.tree)
            seeds = [nd.user for nd in nodes if nd.parent is None]
            assert len(seeds) == item.first_sharer_count
            expected = brute_force_sharers(g, item.fitness, delta, seeds)
            assert {nd.user for nd in nodes} == expected


def test_diffuse_stats_match_trees_with_and_without_build_trees():
    for seed, (n, z, r, phi, delta) in enumerate([(60, 4, 0.3, 0.8, 0.3), (500, 6, 1.0, 1.0, 0.15),
                                                   (9, 8, 0.5, 1.0, 1.0)]):
        g = label_edges(generate_small_world(n, z, r, seed=seed), phi, seed=seed + 10)
        news = mixed_batch(g, 50, seed=seed + 20)
        stats, forest = diffuse(g, news, delta, seed=seed + 30, build_trees=True)
        bare, no_trees = diffuse(g, news, delta, seed=seed + 30)
        assert no_trees is None
        for field in ("seeds", "sizes", "heights", "rounds"):
            assert getattr(bare, field).tolist() == getattr(stats, field).tolist()
        assert stats.seeds.tolist() == [item.first_sharer_count for item in news]
        assert stats.sizes.tolist() == [tree_size(tree) for tree in forest]
        assert stats.heights.tolist() == [tree_height(tree) for tree in forest]
        assert stats.rounds.tolist() == [max(tree.t.tolist(), default=0) for tree in forest]


def test_expansion_slices_do_not_change_results(monkeypatch):
    g = label_edges(generate_small_world(400, 6, 0.5, seed=26), 0.9, seed=27)
    news = mixed_batch(g, 30, seed=28, max_seeds=20)
    expected = [tree_to_dict(o.tree) for o in run_batch(g, news, 0.3, seed=29)]
    expected_sizes = diffuse(g, news, 0.3, seed=29)[0].sizes.tolist()
    for bound in (1, 50):  # one item per slice, and a few items per slice
        monkeypatch.setattr(diffusion, "_SLICE_PAIRS", bound)
        assert [tree_to_dict(o.tree) for o in run_batch(g, news, 0.3, seed=29)] == expected
        assert diffuse(g, news, 0.3, seed=29)[0].sizes.tolist() == expected_sizes


def test_batch_seed_draw_is_distinct_and_uniform():
    # One Generator draws every item's seeds at once: keys with duplicates
    # dropped and topped up while 2*m <= n (m = 25 tops up most), a
    # permutation prefix when 2*m > n. With delta = 0 each tree is exactly
    # its seeds in draw order.
    n = 50
    g = generate_small_world(n, 2, 0.0, seed=30)
    classes = (0, 1, 5, 25, 26, 49, n)
    counts = np.tile(classes, 400)
    np.random.default_rng(31).shuffle(counts)
    news = [NewsItem(id=i, fitness=0.5, first_sharer_count=int(c)) for i, c in enumerate(counts)]
    stats, forest = diffuse(g, news, 0.0, seed=32, build_trees=True)
    assert stats.sizes.tolist() == counts.tolist()
    for m in classes:
        seeds = [tree.user for tree, c in zip(forest, counts) if c == m]
        assert all(s.size == m and np.unique(s).size == m for s in seeds)
        if m == 0:
            continue
        everywhere = np.bincount(np.concatenate(seeds), minlength=n)
        first = np.bincount([s[0] for s in seeds], minlength=n)
        if m == n:
            assert np.all(everywhere == len(seeds))
        else:
            assert scipy_stats.chisquare(everywhere).pvalue > 1e-4, (m, everywhere)
        assert scipy_stats.chisquare(first).pvalue > 1e-4, (m, first)


def test_batch_input_errors():
    g = small_graph()
    news = [NewsItem(id=0, fitness=0.5, first_sharer_count=1),
            NewsItem(id=1, fitness=0.5, first_sharer_count=g.node_count + 1)]
    with pytest.raises(ParameterError, match="first sharers"):
        run_batch(g, news, 0.1, seed=0)
    with pytest.raises(ParameterError, match="first sharers"):
        diffuse(g, news, 0.1, seed=0)
    with pytest.raises(ParameterError, match="threshold"):
        diffuse(g, news[:1], -0.1, seed=0)
    with pytest.raises(ParameterError, match=">= 0"):
        run_batch(g, [NewsItem(id=2, fitness=0.5, first_sharer_count=-1)], 0.1, seed=0)
