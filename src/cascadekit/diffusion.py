"""Percolation-style cascade dynamics on a signed graph.

Each news item carries a fitness value and a first-sharer count. Seeds
share unconditionally; in synchronous rounds the item then spreads across
homogeneous edges to neighbors whose opinion lies within the sharing
threshold of the fitness. Every user shares at most once, so the sharer
set is the threshold-restricted reachability closure of the seeds.

One numpy frontier kernel expands a whole batch at once, round by round.
diffuse is its entry point: it returns per-item seed counts, sizes, heights
and round counts, plus the sharing trees as one trees.Forest with
build_trees. run_batch wraps it as one CascadeOutcome per item. For a given
seed both give exactly the trees and numbers of the earlier per-sharer loop
(tests/test_equivalence.py holds digests of its output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import SignedGraph
from .rng import as_generator, as_seed_sequence
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


def sample_first_sharers(dist: FittedDistribution, m: int, seed) -> np.ndarray:
    """Draw m first-sharer counts, truncated to their integer part.

    Truncation can produce zeros, which model never-shared items.
    """
    if m < 0:
        raise ParameterError(f"news count must be >= 0, got {m}")
    draws = dist.sample(m, as_generator(seed))
    counts = np.floor(draws).astype(np.int64)
    if np.any(counts < 0):
        raise ParameterError("first-sharer distribution produced negative draws")
    return counts


def sample_news(count: int, dist: FittedDistribution, seed, max_count: int | None = None) -> list[NewsItem]:
    """Build a news batch: uniform fitness values plus sampled sharer counts.

    max_count clips each sharer count (at the node count of the target
    graph, typically), keeping heavy-tailed draws seedable.
    """
    rng = as_generator(seed)
    fitness = rng.uniform(0.0, 1.0, size=count)
    counts = sample_first_sharers(dist, count, rng)
    if max_count is not None:
        counts = np.minimum(counts, max_count)
    return [
        NewsItem(id=i, fitness=float(f), first_sharer_count=int(c))
        for i, (f, c) in enumerate(zip(fitness, counts))
    ]


def run_batch(g: SignedGraph, news_list, delta: float, seed) -> list[CascadeOutcome]:
    """diffuse with build_trees, as one CascadeOutcome per item in news-list order."""
    stats, forest = diffuse(g, news_list, delta, seed, build_trees=True)
    return [CascadeOutcome(item.id, tree, k) for item, tree, k in zip(news_list, forest, stats.rounds.tolist())]


def diffuse(g: SignedGraph, news_list, delta: float, seed,
            build_trees: bool = False) -> tuple[BatchStats, Forest | None]:
    """Diffuse a batch from a master seed: (BatchStats, the trees.Forest of its sharing trees or None).

    An item's first_sharer_count distinct seeds share at round 0 without a
    threshold check. Then every not-yet-sharing neighbor of a round-k sharer
    across a homogeneous edge shares at round k+1 iff |opinion - fitness| <=
    delta; a sharer reached by several round-k sharers takes one of them
    uniformly as its tree parent. Seeds hang off the virtual page root.

    Item i's Generator runs on the i-th child of the master SeedSequence.
    It draws the seeds with rng.choice(n, m, replace=False), in the order
    drawn, and with build_trees, for a child with k > 1 candidate parents
    (in frontier order: seed order in round 1, node order later), the index
    rng.integers(k), in node order per round. The stats do not depend on
    build_trees, since every item draws its seeds before any parent, and
    without it no parent is drawn and no tree is built.
    All items expand at once, one round at a time, as int64 keys item*n + node.

    Raises:
        ParameterError: delta outside [0, 1], or a first-sharer count below
            0 or above the node count.
    """
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"sharing threshold must be in [0, 1], got {delta}")
    n = g.node_count
    counts = np.array([item.first_sharer_count for item in news_list], dtype=np.int64)
    if counts.size and counts.max() > n:
        raise ParameterError(f"cannot seed {counts.max()} first sharers in a graph of {n} nodes")
    if counts.size and counts.min() < 0:
        raise ParameterError(f"first-sharer count must be >= 0, got {counts.min()}")
    fitness = np.array([item.fitness for item in news_list], dtype=float)
    rngs = [as_generator(s) if m else None for s, m in zip(as_seed_sequence(seed).spawn(len(counts)), counts.tolist())]
    seed_nodes = [rng.choice(n, size=m, replace=False) for rng, m in zip(rngs, counts.tolist()) if m]
    frontier = np.repeat(np.arange(len(counts), dtype=np.int64), counts) * n
    if seed_nodes:
        frontier += np.concatenate(seed_nodes)

    indptr, indices = g.adjacency(homogeneous_only=True)
    expand = _Expansion(indptr, indices, g.opinions, fitness, delta, n, rngs if build_trees else None)
    shared = [] if build_trees else None  # per round: sharer keys, their parent nodes, the round
    sizes = counts.copy()
    rounds = np.zeros(len(counts), dtype=np.int64)
    # A neighbor of a round-k sharer has either not shared yet or shared in
    # round k-1 or k: had it shared in round j < k-1, the round-k sharer (a
    # seed, or a node passing the threshold) would have shared by round j+1.
    # So the visited set holds only the last two rounds' pairs.
    layer = np.sort(frontier)
    visited = layer
    round_k = 0
    if shared is not None:
        shared.append((frontier, np.full(frontier.size, -1), round_k))
    while frontier.size:
        frontier, parents = expand(frontier, visited)
        if not frontier.size:
            break
        round_k += 1
        item_of = frontier // n
        rounds[item_of] = round_k
        sizes += np.bincount(item_of, minlength=len(counts))
        if shared is not None:
            shared.append((frontier, parents, round_k))
        visited = np.sort(np.concatenate([layer, frontier]))
        layer = frontier

    stats = BatchStats(seeds=counts, sizes=sizes, heights=np.where(counts > 0, rounds + 1, 0), rounds=rounds)
    return stats, (None if shared is None else _trees(news_list, n, shared))


# Neighbor pairs gathered at once. A round's frontier is expanded in slices
# of whole items holding about this many pairs, which bounds the temporary
# arrays of big cascades and costs small ones at most a few slices a round.
_SLICE_PAIRS = 1 << 16


class _Expansion:
    """One round of the frontier kernel over a prepared homogeneous CSR view."""

    def __init__(self, indptr, indices, opinions, fitness, delta, n, rngs):
        self.indptr, self.indices, self.opinions = indptr, indices, opinions
        self.degree = np.diff(indptr)
        self.fitness, self.delta, self.n = fitness, delta, n
        self.rngs = rngs  # per-item Generators in tree mode, None for stats only

    def __call__(self, frontier: np.ndarray, visited: np.ndarray):
        """New sharer keys of the next round, sorted, and their parent nodes (tree mode)."""
        n = self.n
        items, nodes = np.divmod(frontier, n)
        pairs = self.degree[nodes]
        keys, parents = [], []
        for lo, hi in _item_slices(items, pairs):
            k, p = self._slice(items[lo:hi], nodes[lo:hi], pairs[lo:hi], visited)
            keys.append(k)
            parents.append(p)
        if len(keys) == 1:
            return keys[0], parents[0]
        return np.concatenate(keys), (np.concatenate(parents) if self.rngs is not None else None)

    def _slice(self, items, nodes, pairs, visited):
        n = self.n
        ends = np.cumsum(pairs)
        gather = np.repeat(self.indptr[nodes] - (ends - pairs), pairs) + np.arange(ends[-1])
        children = self.indices[gather]
        pair_items = np.repeat(items, pairs)
        ok = np.abs(self.opinions[children] - self.fitness[pair_items]) <= self.delta
        keys = pair_items[ok] * n + children[ok]
        fresh = visited[np.minimum(np.searchsorted(visited, keys), visited.size - 1)] != keys
        keys = keys[fresh]
        if self.rngs is None:
            return np.unique(keys), None
        parents = np.repeat(nodes, pairs)[ok][fresh]
        if not keys.size:
            return keys, parents

        order = np.argsort(keys, kind="stable")
        keys, parents = keys[order], parents[order]
        first = _run_starts(keys)
        counts = np.diff(np.append(first, keys.size))
        chosen = first.copy()
        multi = np.flatnonzero(counts > 1)
        if multi.size:
            multi_items = keys[first[multi]] // n
            runs = _run_starts(multi_items)
            for a, b in zip(runs.tolist(), np.append(runs[1:], multi.size).tolist()):
                picks = multi[a:b]
                chosen[picks] += self.rngs[int(multi_items[a])].integers(counts[picks])
        return keys[first], parents[chosen]


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
    """The Forest of the items' trees, from each round's (keys, parent nodes, round).

    A stable sort by item keeps each item's sharers in share order: seeds
    in draw order, then each round's sharers in node order. A node's id is
    its index in its tree, so every parent comes before its children.
    """
    keys, parents, t = (np.concatenate(part) for part in zip(*[(k, p, np.full(k.size, r)) for k, p, r in shared]))
    order = np.argsort(keys // n, kind="stable")
    keys, parents, t = keys[order], parents[order], t[order]
    items, user = np.divmod(keys, n)
    offset = np.searchsorted(items, np.arange(len(news_list) + 1))
    by_key = np.argsort(keys)
    found = by_key[np.searchsorted(keys, items * n + parents, sorter=by_key)]
    parent = np.where(parents < 0, -1, found - offset[items])
    m = len(news_list)
    return Forest([item.id for item in news_list], ["synthetic"] * m, [True] * m, [1] * m, offset,
                  np.arange(keys.size) - offset[items], user, np.ones(keys.size), t, parent)
