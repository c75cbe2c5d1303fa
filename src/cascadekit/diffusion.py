"""Percolation-style cascade dynamics on a signed graph.

Each news item carries a fitness value and a first-sharer count. Seeds
share unconditionally; in synchronous rounds the item then spreads across
homogeneous edges to neighbors whose opinion lies within the sharing
threshold of the fitness. Every user shares at most once, so the sharer
set is the threshold-restricted reachability closure of the seeds.

One numpy frontier kernel expands a whole batch at once, round by round.
Its visited set takes one of two forms, by the batch's key space (items
times nodes): up to _DENSE_KEYS keys (4 MiB) a bool table indexed by key,
which drops visited candidates before they are sorted; above it, where a
fresh table would cost more in first-touch page faults than it saves, the
sorted keys of the last two rounds, searched after the sort. Once a
table's batch has gathered _FOLD_SHARE neighbor pairs per key, the table
also marks every key whose node fails the item's sharing threshold, and
one lookup per neighbor pair then replaces the threshold test. All three
give the same output.

diffuse is the kernel's entry point: it takes one or more sharing
thresholds and returns, per threshold, the per-item seed counts, sizes,
heights and round counts, plus the sharing trees as one trees.Forest with
build_trees. run_batch wraps one threshold as one CascadeOutcome per item.
One Generator serves a whole batch: it draws every item's seed nodes in
one vectorized step, shared by every threshold, then the tree parents
round by round (tests/test_equivalence.py holds digests of the output for
fixed seeds).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import ParameterError, check_unit, is_integer
from .graph import SignedGraph, repeats
from .stats import FittedDistribution
from .trees import Forest, SharingTree


@dataclass(frozen=True)
class NewsItem:
    """One piece of content: fitness in [0, 1] plus a seeded sharer count."""

    id: int
    fitness: float
    first_sharer_count: int


@dataclass
class BatchStats:
    """Per-item first-sharer counts, sizes, heights and round counts of one batch."""

    seeds: np.ndarray
    sizes: np.ndarray
    heights: np.ndarray
    rounds: np.ndarray


@dataclass
class CascadeOutcome:
    """Result of diffusing one item: its sharing tree and the round count."""

    news_id: int
    tree: SharingTree
    rounds: int


def sample_news(count: int, dist: FittedDistribution, seed, max_count: int) -> list[NewsItem]:
    """Build a news batch: uniform fitness values plus sampled sharer counts.

    Each draw is clipped at max_count (the node count of the target graph,
    typically), then truncated to its integer part. So a draw above
    max_count, infinity included, seeds max_count nodes, and truncation can
    produce zeros, which model never-shared items. A count that is not an
    integer in [0, 2**63), a max_count that is not an integer >= 0, or a
    draw that is NaN or not below 2**63 after clipping, is a ParameterError.
    """
    if not is_integer(count):
        raise ParameterError(f"news count must be an integer, got {count!r}")
    if not 0 <= count < 2**63:
        raise ParameterError(f"news count must be in [0, 2**63), got {count}")
    if not (is_integer(max_count) and max_count >= 0):
        raise ParameterError(f"max_count must be an integer >= 0, got {max_count!r}")
    rng = np.random.default_rng(seed)
    fitness = rng.uniform(0.0, 1.0, size=count)
    draws = np.minimum(dist.sample(count, rng), max_count)
    if not np.all(draws < 2.0**63):
        raise ParameterError("first-sharer distribution produced a draw that is NaN or not below 2**63")
    counts = np.floor(draws).astype(np.int64)
    return list(map(NewsItem, range(count), fitness.tolist(), counts.tolist()))


def run_batch(g: SignedGraph, news_list, delta: float, seed) -> list[CascadeOutcome]:
    """diffuse with build_trees, as one CascadeOutcome per item in news-list order."""
    [(stats, forest)] = diffuse(g, news_list, (delta,), seed, build_trees=True)
    return [CascadeOutcome(item.id, tree, k) for item, tree, k in zip(news_list, forest, stats.rounds.tolist())]


def diffuse(g: SignedGraph, news_list, deltas, seed,
            build_trees: bool = False) -> list[tuple[BatchStats, Forest | None]]:
    """Diffuse a batch from a master seed at each sharing threshold in deltas.

    Returns one (BatchStats, the trees.Forest of its sharing trees or None)
    per delta, in the order of deltas, which may be unsorted or repeat. An
    item's first_sharer_count distinct seeds share at round 0 without a
    threshold check. Then every not-yet-sharing neighbor of a round-k sharer
    across a homogeneous edge shares at round k+1 iff |opinion - fitness| <=
    delta; a sharer reached by several round-k sharers takes one of them
    uniformly as its tree parent. Seeds hang off the virtual page root.

    One Generator serves the whole batch: seed is an int, a SeedSequence or
    the Generator itself. It first draws every item's seeds once for all
    deltas (see _seed_nodes), which keep their draw order. Then, with
    build_trees, each delta starts from the Generator's state after the seed
    draw and draws for each sharer with k > 1 candidate parents (in frontier
    order: seed order in round 1, node order later) the index
    rng.integers(k), round by round in (item, node) order. So each delta's
    result equals that of a call with deltas=(delta,), and a Generator passed
    as seed ends where the last delta's draws leave it. The stats do not
    depend on build_trees, since all seeds are drawn before any parent, and
    without it no parent is drawn and no tree is built.
    All items expand at once, one round at a time, as int64 keys item*n + node.

    Raises:
        ParameterError: deltas a bare number, None, an iterator, a 0-d
            array or empty, a delta not a number in [0, 1], or a news
            value, named by its path as a document's is: the first
            first_sharer_count not an integer, else not in [0, n], then the
            same for fitness as a finite number in [0, 1]
            ("news[1].fitness must be in [0, 1], got 1.5").
    """
    try:
        count = 0 if isinstance(deltas, numbers.Real) else len(deltas)
    except TypeError:  # None, an iterator, a 0-d array
        count = 0
    if count == 0:
        raise ParameterError(f"deltas must be a non-empty sequence of sharing thresholds, got {deltas!r}")
    for delta in deltas:
        check_unit(delta, "sharing threshold")
    n = g.node_count
    counts = files.read_column([item.first_sharer_count for item in news_list], "integer", ParameterError, "news",
                               "first_sharer_count")
    files.first_fault((counts < 0) | (counts > n), "news[{}].first_sharer_count", f"be in [0, {n}]", counts)
    fitness = files.read_column([item.fitness for item in news_list], "number", ParameterError, "news", "fitness")
    files.first_fault(~((fitness >= 0) & (fitness <= 1)), "news[{}].fitness", "be in [0, 1]", fitness)
    rng = np.random.default_rng(seed)
    seeds = _seed_nodes(rng, counts, n)
    after_seeds = rng.bit_generator.state if build_trees else None
    results = []
    for delta in deltas:
        if build_trees:
            rng.bit_generator.state = after_seeds
        results.append(_cascade(g, news_list, counts, fitness, delta, rng if build_trees else None, seeds))
    return results


def _cascade(g: SignedGraph, news_list, counts, fitness, delta, rng, seeds) -> tuple[BatchStats, Forest | None]:
    """diffuse's rounds at one delta from the seed keys: its stats, and its Forest with rng (tree mode).

    A round's frontier is the previous round's sharers in the order they are
    kept: the seeds in draw order, then each round's keys sorted. In tree
    mode each new sharer's parent is stored as its position in that frontier.
    """
    n = g.node_count
    indptr, indices = g.adjacency()
    shared = None if rng is None else [(seeds, np.full(seeds.size, -1))]  # per round: sharer keys, parent positions
    sizes = counts.copy()
    rounds = np.zeros(len(counts), dtype=np.int64)
    # A neighbor of a round-k sharer has either not shared yet or shared in
    # round k-1 or k: had it shared in round j < k-1, the round-k sharer (a
    # seed, or a node passing the threshold) would have shared by round j+1.
    # So a visited set that holds only the last two rounds' keys answers as
    # one of every round. A batch of at most _DENSE_KEYS keys marks every
    # round in a bool table indexed by key; a larger one keeps the last two
    # rounds as a sorted array. Once a table's batch has gathered
    # _FOLD_SHARE neighbor pairs per key, the table also marks the keys that
    # fail the threshold, and opinions is None from then on: a node that
    # fails it never shares, so one lookup drops both. The seeds are marked
    # before that, and a seed shares whatever its opinion.
    opinions = g.opinions
    frontier = seeds
    items, nodes = np.divmod(seeds, n)
    if len(counts) * n <= _DENSE_KEYS:
        visited = np.zeros(len(counts) * n, dtype=bool)
        visited[seeds] = True
        unfolded = len(counts) * n * _FOLD_SHARE  # pairs left to gather before the fold
    else:
        layer = visited = np.sort(seeds)
        unfolded = math.inf
    round_k = 0
    while frontier.size:
        pairs = indptr[nodes + 1] - indptr[nodes]
        if opinions is not None:
            unfolded -= int(pairs.sum())
            if unfolded <= 0:
                _fold(visited, opinions, fitness, delta, n, items[_run_starts(items)])
                opinions = None
        frontier, parents = _expand(indptr, indices, opinions, fitness, delta, n, rng, items, nodes, pairs, visited)
        if not frontier.size:
            break
        round_k += 1
        items, nodes = np.divmod(frontier, n)
        rounds[items] = round_k
        sizes += np.bincount(items, minlength=len(counts))
        if shared is not None:
            shared.append((frontier, parents))
        if visited.dtype == bool:
            visited[frontier] = True
        else:
            visited = np.sort(np.concatenate([layer, frontier]))
            layer = frontier

    stats = BatchStats(seeds=counts, sizes=sizes, heights=np.where(counts > 0, rounds + 1, 0), rounds=rounds)
    return stats, (None if shared is None else _trees(news_list, n, shared))


def _seed_nodes(rng: np.random.Generator, counts: np.ndarray, n: int) -> np.ndarray:
    """Every item's counts[i] distinct seeds as keys item*n + node, item by item in draw order.

    Items with 0 < 2*m <= n draw together: one rng.integers(n) call gives
    each item m nodes in a row, and each item keeps the first occurrence of
    every node. Items left short draw the missing count again the same way,
    until none is; at least half the nodes are free for each draw, so this
    ends in about log2(m) passes. Then each item with 2*m > n, in item order,
    takes rng.permutation(n)[:m].
    """
    items = np.arange(counts.size, dtype=np.int64)
    dense = 2 * counts > n
    sparse_counts = np.where(dense, 0, counts)
    keys = np.empty(0, dtype=np.int64)
    short = sparse_counts
    while short.any():
        drawn = np.repeat(items, short) * n + rng.integers(n, size=int(short.sum()))
        keys = np.concatenate([keys, drawn])
        keys = keys[~repeats(keys)]
        short = sparse_counts - np.bincount(keys // n, minlength=counts.size)
    dense_keys = [i * n + rng.permutation(n)[:m] for i, m in zip(np.flatnonzero(dense), counts[dense].tolist())]
    keys = np.concatenate([keys, *dense_keys])
    return keys[np.argsort(keys // n, kind="stable")]


# Keys (items times nodes) of the largest batch whose visited set is a bool
# table indexed by key, 4 MiB. Such a table drops visited candidates with
# one gather before the sort, where the sorted array of the last two rounds
# costs a sort per round and a search. Its pages are first touched in each
# batch, so above the bound (a troll batch holds 1072 x 16,889 = 18.1M
# keys, 4,400 pages) the sorted array is cheaper.
_DENSE_KEYS = 1 << 22

# Neighbor pairs gathered per key of a table's batch before _cascade folds
# the threshold into the table. The fold costs one pass over the rows of
# the items still spreading (about 1 ms for 48 x 20,000 keys) and then
# saves two gathers and a threshold test, about 6 ns, per gathered pair. A
# big cascade pays for it within a round: 48 items on 20,000 nodes at delta
# 0.2 gather 2.7 pairs per key. A small batch never makes it: 248 troll
# items at delta 0.015 gather 0.005 pairs per key, and folding that
# batch's 4.2M keys up front made it 3-4x slower.
_FOLD_SHARE = 0.25

# Neighbor pairs gathered at once. A round's frontier is expanded in slices
# of whole items holding about this many pairs, which bounds the temporary
# arrays of big cascades and costs small ones at most a few slices a round.
_SLICE_PAIRS = 1 << 16


def _expand(indptr, indices, opinions, fitness, delta, n, rng, items, nodes, pairs, visited):
    """One kernel round over the homogeneous CSR from the frontier's items, nodes and neighbor pair counts: the new
    sharer keys, sorted, and their parents' positions in the frontier with rng (the batch Generator, tree mode),
    None without."""
    parts = [_slice(indptr, indices, opinions, fitness, delta, n, rng, lo, items[lo:hi], nodes[lo:hi], pairs[lo:hi],
                    visited) for lo, hi in _item_slices(items, pairs)]
    if len(parts) == 1:
        return parts[0]
    keys, parents = zip(*parts)
    return np.concatenate(keys), (np.concatenate(parents) if rng is not None else None)


def _slice(indptr, indices, opinions, fitness, delta, n, rng, lo, items, nodes, pairs, visited):
    """_expand on the slice of whole items of the frontier that starts at position lo, and their neighbor pair counts.

    visited is _cascade's visited set: a bool table indexed by key, or the
    sorted keys of the last two rounds. A key is visited for all of its
    candidates or for none, so the table drops visited candidates right
    after the threshold test. With opinions None the table holds the
    threshold too (see _fold), and the keys are built from the neighbors
    and tested by the one lookup. The candidate keys left are sorted, so
    each run of equal keys is one candidate sharer, and the sorted array is
    searched with sorted needles. In tree mode the sort carries each key's
    frontier position in its low bits, which keeps a key's candidate
    parents in frontier order, as a stable sort of the pairs would; the run
    of a sharer with k > 1 candidates takes its parent at rng.integers(k).
    """
    ends = np.cumsum(pairs)
    gather = np.repeat(indptr[nodes] - (ends - pairs), pairs) + np.arange(ends[-1])
    dense = visited.dtype == bool
    if opinions is None:
        keys = indices[gather] + np.repeat(items * n, pairs)
        at = np.flatnonzero(~visited[keys])
        keys = keys[at]
    else:
        children = indices[gather]
        pair_items = np.repeat(items, pairs)
        at = np.flatnonzero(np.abs(opinions[children] - fitness[pair_items]) <= delta)
        keys = pair_items[at] * n + children[at]
        if dense:
            fresh = ~visited[keys]
            at, keys = at[fresh], keys[fresh]
    if not keys.size:
        return keys, (None if rng is None else keys)
    if rng is None:
        keys = np.sort(keys)
        keys = keys[_run_starts(keys)]
        return (keys if dense else keys[_unvisited(visited, keys)]), None

    source = np.repeat(np.arange(nodes.size), pairs)[at]  # each candidate's position in the slice
    base, bits = int(items[0]) * n, (nodes.size - 1).bit_length()
    # Keys of the slice's items lie in [base, (items[-1] + 1) * n), so
    # (key - base) << bits | source fits an int64 when the slice's key
    # span times 2**bits is at most 2**63; else the keys sort stably.
    if (int(items[-1]) + 1) * n - base << bits <= 2**63:
        packed = np.sort((keys - base) << bits | source)
        keys, source = (packed >> bits) + base, packed & ((1 << bits) - 1)
    else:
        order = np.argsort(keys, kind="stable")
        keys, source = keys[order], source[order]
    first = _run_starts(keys)
    counts = np.diff(np.append(first, keys.size))
    if not dense:
        fresh = _unvisited(visited, keys[first])
        first, counts = first[fresh], counts[fresh]
    chosen = first.copy()
    multi = counts > 1
    # An array of bounds draws what one scalar call per bound would, so
    # the parents do not depend on how a round is sliced.
    chosen[multi] += rng.integers(counts[multi])
    return keys[first], lo + source[chosen]


def _fold(visited, opinions, fitness, delta, n, items):
    """Mark in the bool table visited, for each of the items, the keys whose node fails the sharing threshold.

    The test is _slice's, negated: |opinion - fitness| > delta. Rows go a
    chunk of about _SLICE_PAIRS keys at a time, which bounds the float
    temporaries as _SLICE_PAIRS bounds a slice's.
    """
    table = visited.reshape(-1, n)
    step = max(1, _SLICE_PAIRS // n)
    for lo in range(0, items.size, step):
        rows = items[lo:lo + step]
        table[rows] |= np.abs(opinions - fitness[rows, None]) > delta


def _unvisited(visited: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the sorted keys that are not in the sorted, non-empty visited array."""
    return visited[np.minimum(np.searchsorted(visited, keys), visited.size - 1)] != keys


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a non-empty array."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _item_slices(items: np.ndarray, pairs: np.ndarray):
    """(lo, hi) bounds of consecutive runs of whole items with about _SLICE_PAIRS pairs each."""
    total = int(pairs.sum())
    if total <= _SLICE_PAIRS:
        yield 0, items.size
        return
    starts = _run_starts(items)
    before = np.append(np.concatenate(([0], np.cumsum(pairs)))[starts], total)
    bounds = np.append(starts, items.size)
    lo = 0
    while lo < starts.size:
        hi = max(int(np.searchsorted(before, before[lo] + _SLICE_PAIRS, side="right")) - 1, lo + 1)
        yield int(bounds[lo]), int(bounds[hi])
        lo = hi


def _trees(news_list, n: int, shared: list) -> Forest:
    """The Forest of the items' trees, from each round's (keys, parents' positions in the round before).

    A stable sort by item keeps each item's sharers in share order: seeds
    in draw order, then each round's sharers in node order. A node's id is
    its index in its tree, so every parent comes before its children. The
    inverse of that sort takes a parent from its place in the rounds to its id.
    """
    keys = np.concatenate([k for k, _ in shared])
    size = [k.size for k, _ in shared]
    begin = np.cumsum([0, *size])
    # Each parent's index in keys: its position in the round before plus where that round begins; -1 for none.
    above = np.concatenate([p + begin[r - 1] if r else p for r, (_, p) in enumerate(shared)])
    order = np.argsort(keys // n, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    items, user = np.divmod(keys[order], n)
    offset = np.searchsorted(items, np.arange(len(news_list) + 1))
    above = above[order]
    parent = np.where(above < 0, -1, place[above] - offset[items])
    t = np.repeat(np.arange(len(shared)), size)[order]
    m = len(news_list)
    return Forest([item.id for item in news_list], ["synthetic"] * m, [True] * m, [1] * m, offset,
                  np.arange(keys.size) - offset[items], user, np.ones(keys.size), t, parent)
