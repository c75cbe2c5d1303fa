"""Signed small-world substrate for cascade simulations.

Builds Watts-Strogatz networks (ring lattice plus one-endpoint rewiring),
assigns per-node opinions, and labels edges homogeneous or non-homogeneous
to hit a target homogeneous-link fraction exactly. graph_from_dict reads a
document by column (files.read_columns) and names each fault by its path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import files
from .errors import ParameterError, check_unit, is_integer


@dataclass(eq=False, frozen=True)
class SignedGraph:
    """Undirected simple graph with opinions on nodes and signs on edges.

    Attributes:
        node_count: number of nodes n; nodes are labeled 0..n-1.
        ring_degree: even lattice degree z; edge count is always n*z/2.
        rewiring_probability: the r used at construction time.
        opinions: float array of shape (n,), each value in [0, 1].
        edges: int array of shape (M, 2); no self loops, no duplicates.
        homogeneous: bool array of shape (M,); True marks a homogeneous edge.

    The instance is frozen and its three arrays are read-only views, so the
    CSR arrays that adjacency builds once per instance cannot go stale;
    label_edges returns a new instance.
    """

    node_count: int
    ring_degree: int
    rewiring_probability: float
    opinions: np.ndarray
    edges: np.ndarray
    homogeneous: np.ndarray

    def __post_init__(self):
        for name in ("opinions", "edges", "homogeneous"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        object.__setattr__(self, "_csr", None)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def homogeneous_fraction(self) -> float:
        return float(np.mean(self.homogeneous)) if self.edge_count else 0.0

    def degrees(self) -> np.ndarray:
        """Degree of every node, via a tally of edge endpoints."""
        return np.bincount(self.edges.ravel(), minlength=self.node_count)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices) neighbor arrays over the homogeneous edges, read-only and built once.

        News spreads only across homogeneous edges, so this is the one view
        cascade propagation needs.
        """
        if self._csr is None:
            # take copies whole rows; a 2-D boolean mask or fancy indexing gathers element by element
            edges = np.take(self.edges, np.flatnonzero(self.homogeneous), axis=0)
            heads = np.concatenate([edges[:, 0], edges[:, 1]])
            tails = np.concatenate([edges[:, 1], edges[:, 0]])
            # a stable sort keeps each row in edge order; numpy radix-sorts it when n - 1 fits 16 bits
            order = np.argsort(heads.astype(np.min_scalar_type(self.node_count - 1)), kind="stable")
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(heads, minlength=self.node_count), out=indptr[1:])
            object.__setattr__(self, "_csr", (_read_only(indptr), _read_only(tails[order])))
        return self._csr


def _read_only(values) -> np.ndarray:
    view = np.asarray(values).view()
    view.flags.writeable = False
    return view


def generate_small_world(n: int, z: int, r: float, seed) -> SignedGraph:
    """Generate a Watts-Strogatz small-world graph with uniform opinions.

    Starts from a ring lattice where every node connects to its z nearest
    neighbors (z/2 on each side), then visits each lattice edge once in
    canonical order and, with probability r, re-targets its far endpoint to
    a uniformly random node, resampling to avoid self loops and duplicate
    edges. Edge count n*z/2 is preserved exactly. All edges start out
    flagged homogeneous; use label_edges to set a different fraction.

    The rewiring is an exact vectorized replay of one scalar loop (see
    _rewire; tests/oracles.py keeps the loop as scalar_small_world). For
    the same seed it makes the same draws and returns the same graph, and
    a Generator passed as seed advances as far: one target per attempt,
    plus the targets a skipped rewiring leaves drawn but unused.

    Args:
        n: node count, must exceed z and fit an int64.
        z: even ring degree, at least 2.
        r: rewiring probability in [0, 1].
        seed: int seed, SeedSequence, or Generator.

    Raises:
        ParameterError: z odd, z < 2, z >= n, n >= 2**63, or r not a number in [0, 1].
    """
    check_size(n, z)
    check_unit(r, "rewiring probability")

    rng = np.random.default_rng(seed)
    opinions = rng.uniform(0.0, 1.0, size=n)

    # Ring lattice in canonical order: distance j = 1..z/2, then node index.
    half = z // 2
    heads = np.tile(np.arange(n), half)
    offsets = np.repeat(np.arange(1, half + 1), n)
    tails = (heads + offsets) % n
    rewire = np.flatnonzero(rng.uniform(size=len(heads)) < r)
    edges = np.column_stack([heads, _rewire(tails.reshape(half, n).T, rewire, rng)])
    return SignedGraph(
        node_count=n,
        ring_degree=z,
        rewiring_probability=float(r),
        opinions=opinions,
        edges=edges,
        homogeneous=np.ones(len(edges), dtype=bool),
    )


def check_size(n: int, z: int) -> None:
    """Raise ParameterError unless n and z are integers, z an even ring degree of at least 2 and z < n < 2**63."""
    if not (is_integer(n) and is_integer(z)):
        raise ParameterError(f"node count and ring degree must be integers, got n={n!r}, z={z!r}")
    if z < 2 or z % 2 != 0:
        raise ParameterError(f"ring degree must be even and >= 2, got {z}")
    if not z < n < 2**63:
        raise ParameterError(f"need z < n < 2**63 (an int64), got n={n}, z={z}")


_MIN_WINDOW = 16  # shorter windows cost more than the loop's own steps


def _rewire(adj: np.ndarray, rewire: np.ndarray, rng) -> np.ndarray:
    """The tails after rewiring the lattice edges `rewire` (ascending): an exact replay of one scalar loop.

    The loop visits edge k = (u, v). It skips it without a draw when u is
    adjacent to every other node. Otherwise it takes the next target w,
    again while w == u or (u, w) is a current edge, and replaces v by w.
    Targets come in blocks of rng.integers(n, size=rewirings left), each
    drawn when an attempt finds the last one used up: the same values as
    one rng.integers(n) per attempt, except that a skipped rewiring leaves
    drawn targets unused, which advances rng further.

    The replay gives each rewiring of a window the next target in line and
    accepts, at once, all before the first that would reject its target: a
    self loop, an edge before the window (a conservative test, as the
    window may remove it first) or the target of an earlier rewiring in the
    window. A rewiring the loop skips would reject every target, so no
    window accepts one. A window gathers the rows of its heads and targets
    with np.take, which copies whole rows where fancy indexing goes element
    by element, and compares them one column at a time, with no
    (window, z/2) temporary and no any(1) reduction.

    After each window, the next rewiring (at the reject, at the end of the
    block or past the window) takes one step of the loop itself, and so
    does every rewiring when the mean run between rejects is too short for
    a window to pay, as on dense graphs, n < 16(z + 1). A step tests
    membership in row sets, made per node as the steps ask for them and
    dropped after each window, and reads and writes the arrays through
    memoryviews, whose items cost about a quarter of a numpy scalar's.
    Each lattice edge is visited once, so the edge a step rewires still
    has its lattice tail.

    adj[x, j] is the tail of edge j*n + x, the edge of x at ring distance
    j + 1. A rewired edge keeps its head, so adj is the current graph
    throughout: (u, w) is an edge exactly when w is in row u or u in row w.
    """
    n, half = adj.shape
    adj = adj.copy()
    degree = np.full(n, 2 * half)
    rows, adj_at, degree_at, rewire_at = _Rows(adj), memoryview(adj), memoryview(degree), memoryview(rewire)
    run = n // (2 * half + 1)  # a target is rejected with probability about (z + 1) / n
    block, drawn, i = np.empty(0, dtype=np.int64), 0, 0
    while i < len(rewire):
        size = min(run, len(rewire) - i, len(block) - drawn)
        if size >= _MIN_WINDOW:
            edge = rewire[i:i + size]
            u, j, w = edge % n, edge // n, block[drawn:drawn + size]
            reject = (u == w) | repeats(np.minimum(u, w) * n + np.maximum(u, w))
            tails_u, tails_w = np.take(adj, u, axis=0), np.take(adj, w, axis=0)
            for c in range(half):
                reject |= tails_u[:, c] == w
                reject |= tails_w[:, c] == u
            done = int(reject.argmax()) if reject.any() else size
            np.subtract.at(degree, (u[:done] + j[:done] + 1) % n, 1)
            np.add.at(degree, w[:done], 1)
            adj[u[:done], j[:done]] = w[:done]
            rows.clear()
            i, drawn = i + done, drawn + done
        # one step after a window, or every step left when no window can pay
        for k in range(i, len(rewire) if run < _MIN_WINDOW else min(i + 1, len(rewire))):
            j, u = divmod(rewire_at[k], n)
            if degree_at[u] < n - 1:
                row = rows[u]
                while True:
                    if drawn == len(block):
                        block, drawn = rng.integers(n, size=len(rewire) - k), 0
                        block_at = memoryview(block)
                    w = block_at[drawn]
                    drawn += 1
                    if w != u and w not in row and u not in rows[w]:
                        break
                v = (u + j + 1) % n
                row.remove(v)
                row.add(w)
                degree_at[v] -= 1
                degree_at[w] += 1
                adj_at[u, j] = w
            i = k + 1
    return adj.T.reshape(-1)


class _Rows(dict):
    """Row x of adj as a set of tails, made when first asked for."""

    def __init__(self, adj: np.ndarray):
        super().__init__()
        self.adj = adj

    def __missing__(self, x: int) -> set:
        row = self[x] = set(self.adj[x].tolist())
        return row


def label_edges(g: SignedGraph, phi_hl: float, seed) -> SignedGraph:
    """Return a copy of g with round(phi_hl * M) edges flagged homogeneous.

    Flagged edges are chosen uniformly without replacement. Labelings under
    the same seed are nested across phi_hl values (a fixed random edge order
    is truncated at the target count), which supports monotonicity checks.
    """
    check_unit(phi_hl, "phi_hl")
    rng = np.random.default_rng(seed)
    m = g.edge_count
    k = round(phi_hl * m)
    order = rng.permutation(m)
    flags = np.zeros(m, dtype=bool)
    flags[order[:k]] = True
    return replace(g, homogeneous=flags)


def graph_to_dict(g: SignedGraph) -> dict:
    """JSON-ready document: {n, z, r, nodes:[{id, opinion}], edges:[{u, v, homogeneous}]}."""
    return {
        "n": g.node_count,
        "z": g.ring_degree,
        "r": g.rewiring_probability,
        "nodes": [{"id": i, "opinion": w} for i, w in enumerate(g.opinions.tolist())],
        "edges": [{"u": u, "v": v, "homogeneous": h}
                  for u, v, h in zip(*g.edges.T.tolist(), g.homogeneous.tolist())],
    }


def graph_from_dict(doc: dict) -> SignedGraph:
    """Rebuild a SignedGraph from a graph_to_dict document, testing each rule once over a column.

    Raises:
        ParameterError: the first fault, named by its path in the document
            (graph document: edges[3].u ...): a missing field or one of the
            wrong kind (integers must be integers and numbers finite
            numbers, neither a boolean nor a string; flags booleans), z odd,
            below 2 or not below n, node ids other than 0..n-1 once each,
            an opinion or r outside [0, 1], an edge endpoint outside [0, n),
            a self loop, a repeated edge, or other than n*z/2 edges.
    """
    if type(doc) is not dict:
        raise ParameterError("graph document must be an object")
    missing = next((key for key in ("n", "z", "r", "nodes", "edges") if key not in doc), None)
    if missing:
        raise ParameterError(f"graph document: {missing} is missing")
    n, z, r = (files.read_value(doc[key], kind, ParameterError, f"graph document: {key}")
               for key, kind in (("n", "integer"), ("z", "integer"), ("r", "number")))
    ids, opinions = files.read_columns(doc["nodes"], {"id": "integer", "opinion": "number"}, ParameterError,
                                       "graph document: nodes")
    u, v, homogeneous = files.read_columns(doc["edges"], {"u": "integer", "v": "integer", "homogeneous": "flag"},
                                           ParameterError, "graph document: edges")
    if z < 2 or z % 2 != 0 or z >= n:
        raise ParameterError(f"graph document: z must be even, >= 2 and below n = {n}, got {z}")
    files.first_fault((ids < 0) | (ids >= n), "graph document: nodes[{}].id", f"be in [0, {n})", ids)
    files.first_fault(repeats(ids), "graph document: nodes[{}].id", "be unique", ids)
    if ids.size != n:
        raise ParameterError(f"graph document: nodes must hold n = {n} nodes, got {ids.size}")
    files.first_fault(~((opinions >= 0) & (opinions <= 1)), "graph document: nodes[{}].opinion", "be in [0, 1]",
                      opinions)
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"graph document: r must be in [0, 1], got {r}")
    files.first_fault((u < 0) | (u >= n), "graph document: edges[{}].u", f"be in [0, {n})", u)
    files.first_fault((v < 0) | (v >= n), "graph document: edges[{}].v", f"be in [0, {n})", v)
    files.first_fault(u == v, "graph document: edges[{}].v", "differ from u", v)
    edges = np.column_stack([u, v])
    files.first_fault(repeats(np.minimum(u, v) * n + np.maximum(u, v)), "graph document: edges[{}]",
                      "not repeat an earlier edge", edges)
    if u.size != n * z // 2:
        raise ParameterError(f"graph document: edges must hold n*z/2 = {n * z // 2} edges, got {u.size}")
    ordered = np.empty_like(opinions)
    ordered[ids] = opinions
    return SignedGraph(
        node_count=n,
        ring_degree=z,
        rewiring_probability=r,
        opinions=ordered,
        edges=edges,
        homogeneous=homogeneous,
    )


def repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the keys that repeat an earlier key; the seed draw (diffusion._seed_nodes) uses it too.

    Few keys repeat, so only the positions that hold one are sorted again, stably, by value.
    """
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    repeat = np.zeros(keys.size, dtype=bool)
    if repeated.size:
        at = np.flatnonzero(repeated[np.minimum(np.searchsorted(repeated, keys), repeated.size - 1)] == keys)
        at = at[np.argsort(keys[at], kind="stable")]  # grouped by value, each in position order
        repeat[at[1:][keys[at[1:]] == keys[at[:-1]]]] = True
    return repeat


@files.nogc
def save_graph(g: SignedGraph, path) -> None:
    files.write_json(path, graph_to_dict(g))


@files.nogc
def load_graph(path) -> SignedGraph:
    return graph_from_dict(files.read_json(path, ParameterError, "malformed graph JSON"))
