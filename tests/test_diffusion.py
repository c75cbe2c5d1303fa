import dataclasses
import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from cascadekit import diffusion
from cascadekit.branching import branching_ratio
from cascadekit.diffusion import (
    NewsItem,
    diffuse,
    run_batch,
    sample_news,
)
from cascadekit.errors import ParameterError
from cascadekit.graph import generate_small_world, label_edges
from cascadekit.stats import FittedDistribution
from cascadekit.trees import tree_height, tree_size, tree_to_dict

from oracles import adjacency_sets, brute_force_sharers, layered_trees, nodes_of, threshold_rounds, unique_seed_nodes


def small_graph(seed=0, n=200, z=4, r=0.2, phi=0.7):
    g = generate_small_world(n, z, r, seed=seed)
    return label_edges(g, phi, seed=seed + 1)


# --- first-sharer sampling -------------------------------------------------------

def sampled_counts(dist, m, seed):
    return np.array([item.first_sharer_count for item in sample_news(m, dist, seed=seed, max_count=2**62)])


def test_point_mass_empirical_counts():
    dist = FittedDistribution.empirical([5, 5, 5])
    counts = sampled_counts(dist, 100, seed=0)
    assert np.all(counts == 5)


def test_poisson_counts_converge_to_rate():
    dist = FittedDistribution.poisson(39.24)
    counts = sampled_counts(dist, 10**6, seed=1)
    assert counts.mean() == pytest.approx(39.24, rel=0.01)


def test_inverse_gaussian_raw_draws_hit_mean_but_truncation_shifts_it():
    dist = FittedDistribution.inverse_gaussian(18.73, 9.63)
    raw = dist.sample(10**6, seed=40)
    assert raw.mean() == pytest.approx(18.73, rel=0.01)
    # integer-part truncation shaves roughly half a unit off the mean, so the
    # 1% tolerance applies to the raw draws, not the counts
    counts = sampled_counts(dist, 10**6, seed=40)
    assert 17.7 <= counts.mean() <= 18.5


def test_truncation_produces_zeros():
    dist = FittedDistribution.uniform(0.0, 1.5)
    counts = sampled_counts(dist, 2000, seed=2)
    assert np.all(counts >= 0)
    assert np.any(counts == 0)
    assert np.any(counts == 1)


def test_a_count_beyond_int64_is_a_parameter_error_before_any_draw():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for count in (2**63, 10**20):
        with pytest.raises(ParameterError, match="news count"):
            sample_news(count, FittedDistribution.poisson(1.0), seed=rng, max_count=50)
    assert rng.bit_generator.state == state


def test_negative_draws_are_a_parameter_error():
    # A model that could draw a negative count is rejected when it is made, before sample_news can draw.
    for low, high in ((-3, -1), (-1e300, -1e299), (-1e-9, 3)):
        with pytest.raises(ParameterError, match="uniform needs 0 <= low <= high"):
            FittedDistribution.uniform(low, high)
    for sample in ([-1], [4, 0, -1e-300]):
        with pytest.raises(ParameterError, match="no value below 0"):
            FittedDistribution.empirical(sample)
    assert FittedDistribution.uniform(0, 0).sample(3, seed=0).tolist() == [0.0] * 3
    assert FittedDistribution.empirical([-0.0, 2]).sample(20, seed=0).min() >= 0


def test_sample_news_rejects_a_negative_count_before_it_draws():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="news count"):
        sample_news(-1, FittedDistribution.poisson(1.0), seed=rng, max_count=50)
    assert rng.bit_generator.state == state


def test_sample_news_clips_at_max_count():
    dist = FittedDistribution.uniform(50, 60)
    news = sample_news(20, dist, seed=3, max_count=10)
    assert all(item.first_sharer_count == 10 for item in news)
    assert all(0.0 <= item.fitness <= 1.0 for item in news)


def test_sample_news_has_no_default_max_count():
    with pytest.raises(TypeError, match="max_count"):
        sample_news(5, FittedDistribution.poisson(1.0), seed=0)


def test_sample_news_at_max_count_zero_seeds_no_node():
    news = sample_news(20, FittedDistribution.uniform(50, 60), seed=3, max_count=0)
    assert [item.first_sharer_count for item in news] == [0] * 20


@pytest.mark.parametrize("dist", [FittedDistribution.log_normal(800, 1), FittedDistribution.uniform(0, 1e300),
                                  FittedDistribution.empirical([1e19])], ids=["ln inf", "unif 1e300", "emp 1e19"])
def test_draws_beyond_int64_seed_max_count_or_are_a_parameter_error(dist):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        news = sample_news(6, dist, seed=5, max_count=50)
        assert [item.first_sharer_count for item in news] == [50] * 6
        with pytest.raises(ParameterError, match=r"NaN or not below 2\*\*63"):
            sample_news(6, dist, seed=5, max_count=2**63)


def test_nan_draws_are_a_parameter_error_without_a_warning(monkeypatch):
    monkeypatch.setattr(FittedDistribution, "sample", lambda self, size, seed: np.full(size, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match="NaN"):
            sample_news(100, FittedDistribution.poisson(1.0), seed=0, max_count=50)


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
        [(stats, forest)] = diffuse(g, news, (delta,), seed=seed + 30, build_trees=True)
        [(bare, no_trees)] = diffuse(g, news, (delta,), seed=seed + 30)
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
    expected_sizes = diffuse(g, news, (0.3,), seed=29)[0][0].sizes.tolist()
    for bound in (1, 50):  # one item per slice, and a few items per slice
        monkeypatch.setattr(diffusion, "_SLICE_PAIRS", bound)
        assert [tree_to_dict(o.tree) for o in run_batch(g, news, 0.3, seed=29)] == expected
        assert diffuse(g, news, (0.3,), seed=29)[0][0].sizes.tolist() == expected_sizes


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
    [(stats, forest)] = diffuse(g, news, (0.0,), seed=32, build_trees=True)
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


@st.composite
def delta_batches(draw):
    """A small labeled graph, a batch with zero, dense (2m > n) and all-node (m == n) items, and a deltas
    tuple holding 0 and 1, unsorted and maybe repeated."""
    n = draw(st.integers(3, 40))
    z = 2 * draw(st.integers(1, min(4, (n - 1) // 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    g = generate_small_world(n, z, draw(st.sampled_from((0.0, 0.05, 0.5, 1.0))), seed=seed)
    g = label_edges(g, draw(st.floats(0.0, 1.0)), seed=seed + 1)
    counts = draw(st.lists(st.integers(0, n) | st.sampled_from((0, 1, n // 2 + 1, n)), max_size=12))
    news = [NewsItem(id=i, fitness=draw(st.floats(0.0, 1.0)), first_sharer_count=c) for i, c in enumerate(counts)]
    extra = draw(st.lists(st.sampled_from((0.0, 0.05, 0.2, 1.0)) | st.floats(0.0, 1.0), max_size=4))
    return g, news, tuple(draw(st.permutations([0.0, 1.0, *extra]))), seed


NODE_ARRAYS = ("id", "user", "sigma", "t", "parent", "start")


@settings(max_examples=120, deadline=None, database=None)
@given(delta_batches(), st.booleans())
def test_diffuse_over_deltas_equals_one_call_per_delta_and_the_layered_oracle(case, build_trees):
    g, news, deltas, seed = case
    together = diffuse(g, news, deltas, seed=seed, build_trees=build_trees)
    assert len(together) == len(deltas)
    # Every delta starts from the same seed nodes: the roots of any tree-mode call.
    [(_, roots)] = diffuse(g, news, (0.0,), seed=seed, build_trees=True)
    seeds = [tree.user[tree.parent < 0].tolist() for tree in roots]
    adj, opinions = adjacency_sets(g.edges, g.homogeneous.tolist()), g.opinions.tolist()
    for delta, (stats, forest) in zip(deltas, together):
        [(alone, alone_forest)] = diffuse(g, news, (delta,), seed=seed, build_trees=build_trees)
        for field in ("seeds", "sizes", "heights", "rounds"):
            assert getattr(stats, field).tolist() == getattr(alone, field).tolist()
        if build_trees:
            for field in NODE_ARRAYS:
                assert getattr(forest, field).tolist() == getattr(alone_forest, field).tolist()
            assert forest.news_id == alone_forest.news_id
        else:
            assert forest is None and alone_forest is None
        layered = [threshold_rounds(adj, opinions, item.fitness, delta, start) for item, start in zip(news, seeds)]
        assert stats.sizes.tolist() == [size for size, _ in layered]
        assert stats.rounds.tolist() == [rounds for _, rounds in layered]


@st.composite
def tied_batches(draw):
    """A small dense labeled graph (n < 4z, r 0 or 1), so that sharers have many candidate parents, a batch, and
    deltas holding 1."""
    z = 2 * draw(st.integers(1, 4))
    n = draw(st.integers(z + 1, 4 * z - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    g = generate_small_world(n, z, draw(st.sampled_from((0.0, 1.0))), seed=seed)
    g = label_edges(g, draw(st.sampled_from((1.0, 0.8))), seed=seed + 1)
    counts = draw(st.lists(st.integers(0, 3) | st.sampled_from((0, 1, n // 2 + 1, n)), max_size=10))
    news = [NewsItem(id=i, fitness=draw(st.floats(0.0, 1.0)), first_sharer_count=c) for i, c in enumerate(counts)]
    extra = draw(st.lists(st.sampled_from((0.0, 0.3, 0.6)) | st.floats(0.0, 1.0), max_size=2))
    return g, news, tuple(draw(st.permutations([1.0, *extra]))), seed


@settings(max_examples=150, deadline=None, database=None)
@given(tied_batches(), st.sampled_from((1, 7, diffusion._SLICE_PAIRS)))
def test_tree_parents_follow_the_documented_draw_order(case, slice_pairs):
    g, news, deltas, seed = case
    with mock.patch.object(diffusion, "_SLICE_PAIRS", slice_pairs):
        together = diffuse(g, news, deltas, seed=seed, build_trees=True)
    for delta, (stats, forest) in zip(deltas, together):
        expected = layered_trees(g, news, delta, seed)
        assert forest.user.tolist() == [u for users, _, _ in expected for u in users]
        assert forest.t.tolist() == [k for _, rounds, _ in expected for k in rounds]
        assert forest.parent.tolist() == [p for _, _, parents in expected for p in parents]
        assert forest.id.tolist() == [j for users, _, _ in expected for j in range(len(users))]
        assert forest.start.tolist() == np.cumsum([0] + [len(users) for users, _, _ in expected]).tolist()
        assert stats.sizes.tolist() == [len(users) for users, _, _ in expected]
        assert stats.rounds.tolist() == [max(rounds, default=0) for _, rounds, _ in expected]
        assert stats.heights.tolist() == [max(rounds) + 1 if rounds else 0 for _, rounds, _ in expected]


def test_a_slice_whose_packed_keys_overflow_sorts_stably_to_the_same_sharers_and_parents():
    # On the complete graph K9 two items' frontiers reach every other node
    # through four candidate parents each. With n = 2**62 nodes per item the
    # slice's keys span 2**63, so key << 3 | position cannot fit an int64 and
    # the slice falls back to a stable sort of its keys.
    g = generate_small_world(9, 8, 0.0, seed=0)
    indptr, indices = g.adjacency()
    items, nodes = np.array([0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 1, 2, 3, 3, 4, 5, 6])
    pairs = indptr[nodes + 1] - indptr[nodes]
    fitness = np.array([0.5, 0.25])
    results = []
    for n in (9, 2**62):
        visited = np.sort(items * n + nodes)
        rng = np.random.default_rng(3)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            keys, parents = diffusion._slice(indptr, indices, g.opinions, fitness, 1.0, n, rng, 5, items, nodes,
                                             pairs, visited)
        assert [call.kwargs for call in argsort.call_args_list] == ([] if n == 9 else [{"kind": "stable"}])
        results.append((np.divmod(keys, n)[0].tolist(), np.divmod(keys, n)[1].tolist(), parents.tolist(),
                        rng.bit_generator.state))
    assert results[0] == results[1]
    assert results[0][:2] == ([0] * 5 + [1] * 5, [4, 5, 6, 7, 8, 0, 1, 2, 7, 8])
    item_of_parent = [(p - 5) // 4 for p in results[0][2]]  # the frontier starts at position 5
    assert item_of_parent == results[0][0]


@st.composite
def boundary_batches(draw):
    """A small graph with every edge homogeneous and opinions on the grid k/8 or a hair off it, a batch with
    fitness 0.25, 0.5 or 0.75, and deltas from 0, 1/8 and 1/4, so that opinions lie exactly at fitness +- delta
    (all exact in binary), just beyond it or far outside, seeds among them."""
    z = 2 * draw(st.integers(1, 3))
    n = draw(st.integers(z + 1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    g = generate_small_world(n, z, draw(st.sampled_from((0.0, 0.5, 1.0))), seed=seed)
    grid = np.arange(9) / 8
    hairs = np.concatenate([np.nextafter(grid[1:], 0.0), np.nextafter(grid[:-1], 1.0)])
    opinions = draw(st.lists(st.sampled_from(grid.tolist()) | st.sampled_from(hairs.tolist()), min_size=n, max_size=n))
    g = dataclasses.replace(g, opinions=np.array(opinions))
    counts = draw(st.lists(st.integers(0, 3) | st.sampled_from((n // 2 + 1, n)), max_size=8))
    news = [NewsItem(id=i, fitness=draw(st.sampled_from((0.25, 0.5, 0.75))), first_sharer_count=c)
            for i, c in enumerate(counts)]
    return g, news, tuple(draw(st.permutations([0.0, 0.125, 0.25]))), seed


def diffuse_with_dense_keys(bound, share, g, news, deltas, seed, build_trees, slice_pairs):
    """diffuse with the visited-table bound, its fold share and the slice size patched, and the state its
    Generator ends in."""
    rng = np.random.default_rng(seed)
    with mock.patch.multiple(diffusion, _DENSE_KEYS=bound, _FOLD_SHARE=share, _SLICE_PAIRS=slice_pairs):
        results = diffuse(g, news, deltas, seed=rng, build_trees=build_trees)
    return results, rng.bit_generator.state


@settings(max_examples=150, deadline=None, database=None)
@given(delta_batches() | tied_batches() | boundary_batches(), st.integers(1, 4), st.booleans(),
       st.sampled_from((1, 7, diffusion._SLICE_PAIRS)))
def test_the_dense_visited_table_and_the_sorted_visited_array_give_the_same_batch(case, count, build_trees,
                                                                                  slice_pairs):
    # A batch of exactly _DENSE_KEYS keys takes the bool table, one more key the sorted array of the last two
    # rounds. With a fold share of 0 the table holds the threshold from the first round on, with infinity never.
    g, news, deltas, seed = case
    deltas = deltas[:count]
    keys = len(news) * g.node_count
    search, search_state = diffuse_with_dense_keys(keys - 1, 0.0, g, news, deltas, seed, build_trees, slice_pairs)
    for share in (0.0, math.inf):
        dense, dense_state = diffuse_with_dense_keys(keys, share, g, news, deltas, seed, build_trees, slice_pairs)
        assert dense_state == search_state
        for delta, (stats, forest), (other, other_forest) in zip(deltas, dense, search):
            for field in ("seeds", "sizes", "heights", "rounds"):
                assert getattr(stats, field).tolist() == getattr(other, field).tolist()
            expected = layered_trees(g, news, delta, seed)
            assert stats.sizes.tolist() == [len(users) for users, _, _ in expected]
            assert stats.rounds.tolist() == [max(rounds, default=0) for _, rounds, _ in expected]
            if not build_trees:
                assert forest is None and other_forest is None
                continue
            for field in NODE_ARRAYS:
                assert getattr(forest, field).tolist() == getattr(other_forest, field).tolist()
            assert forest.news_id == other_forest.news_id
            assert forest.user.tolist() == [u for users, _, _ in expected for u in users]
            assert forest.t.tolist() == [k for _, rounds, _ in expected for k in rounds]
            assert forest.parent.tolist() == [p for _, _, parents in expected for p in parents]


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 60), st.data(), st.integers(0, 2**32 - 1))
def test_seed_nodes_match_the_unique_dedup_and_leave_the_same_generator_state(n, data, seed):
    counts = np.array(data.draw(st.lists(st.integers(0, n) | st.sampled_from((n // 2, n // 2 + 1, n)), max_size=30)),
                      dtype=np.int64)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert diffusion._seed_nodes(rng, counts, n).tolist() == unique_seed_nodes(oracle_rng, counts, n).tolist()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_batch_input_errors():
    g = small_graph()
    news = [NewsItem(id=0, fitness=0.5, first_sharer_count=1),
            NewsItem(id=1, fitness=0.5, first_sharer_count=g.node_count + 1)]
    too_many = rf"^news\[1\]\.first_sharer_count must be in \[0, {g.node_count}\], got {g.node_count + 1}$"
    with pytest.raises(ParameterError, match=too_many):
        run_batch(g, news, 0.1, seed=0)
    with pytest.raises(ParameterError, match=too_many):
        diffuse(g, news, (0.1,), seed=0)
    with pytest.raises(ParameterError, match="threshold"):
        diffuse(g, news[:1], (0.1, -0.1), seed=0)
    for deltas in ((), 0.1, np.array(0.1), None, iter([0.1])):
        with pytest.raises(ParameterError, match="non-empty sequence of sharing thresholds"):
            diffuse(g, news[:1], deltas, seed=0)
    with pytest.raises(ParameterError, match=r"^news\[0\]\.first_sharer_count must be in \[0, \d+\], got -1$"):
        run_batch(g, [NewsItem(id=2, fitness=0.5, first_sharer_count=-1)], 0.1, seed=0)


SCALAR_SITES = {  # a scalar parameter's call, an in-range value, an out-of-range one and the latter's message
    "delta": (lambda v: diffuse(small_graph(), [NewsItem(id=0, fitness=0.5, first_sharer_count=1)], (v,), seed=0),
              0.5, 1.5, "sharing threshold must be in [0, 1], got 1.5"),
    "phi_hl": (lambda v: label_edges(small_graph(), v, seed=0), 0.5, 1.5, "phi_hl must be in [0, 1], got 1.5"),
    "r": (lambda v: generate_small_world(20, 4, v, seed=0), 0.5, 1.5,
          "rewiring probability must be in [0, 1], got 1.5"),
    "q": (lambda v: branching_ratio(8, 0.01, q=v), 0.5, 1.5, "mixing probability q must be in [0, 1], got 1.5"),
    "count": (lambda v: sample_news(v, FittedDistribution.poisson(1.0), seed=0, max_count=20), 3, -1,
              "news count must be in [0, 2**63), got -1"),
    "max_count": (lambda v: sample_news(3, FittedDistribution.poisson(1.0), seed=0, max_count=v), 20, -1,
                  "max_count must be an integer >= 0, got -1"),
}


@pytest.mark.parametrize("site, value", [*itertools.product(("delta", "phi_hl", "r", "q"), ("0.1", None, 0.1j, True)),
                                         *itertools.product(("count", "max_count"), ("5", 2.0, True))], ids=repr)
def test_a_scalar_parameter_of_the_wrong_type_is_a_parameter_error(site, value):
    call, good, out_of_range, message = SCALAR_SITES[site]
    with pytest.raises(ParameterError):
        call(value)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(out_of_range)
    call(np.array(good)[()])  # a numpy scalar passes


@pytest.mark.parametrize("fitness, count", [
    (float("nan"), 1), (float("inf"), 1), (1.5, 1), (-0.2, 1), (True, 1), ("0.5", 1),
    (0.5, 2.7), (0.5, True), (0.5, float("nan")), (0.5, 2.0), (0.5, "2"), (0.5, 2**70),
], ids=["fitness nan", "fitness inf", "fitness 1.5", "fitness -0.2", "fitness bool", "fitness str",
        "count 2.7", "count bool", "count nan", "count 2.0", "count str", "count beyond int64"])
def test_news_items_need_a_fitness_in_the_unit_interval_and_an_integer_count(fitness, count):
    g = small_graph()
    news = [NewsItem(id=0, fitness=0.5, first_sharer_count=1),
            NewsItem(id=1, fitness=fitness, first_sharer_count=count)]
    field = "first_sharer_count" if fitness == 0.5 else "fitness"  # the one bad field, named by its path
    rule = "fit an int64, got 1180591620717411303424$" if count == 2**70 else "be "
    with pytest.raises(ParameterError, match=rf"^news\[1\]\.{field} must {rule}"):
        diffuse(g, news, (0.1,), seed=0)
    numpy_scalars = [NewsItem(id=0, fitness=np.float64(0.5), first_sharer_count=np.int64(2))]
    assert diffuse(g, numpy_scalars, (0.1,), seed=0)[0][0].seeds.tolist() == [2]
