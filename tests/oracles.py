"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (enumeration, fixpoints, quadrature,
inverse-CDF sampling) and shares no code with the package paths it checks.
"""

from __future__ import annotations

import math
import sys
from collections import deque, namedtuple
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from cascadekit.errors import (
    OrphanParentError,
    ParameterError,
    SigmaRangeError,
    TimestampOrderError,
    TreeCycleError,
    TreeSchemaError,
)
from cascadekit.graph import SignedGraph
from cascadekit.trees import SharingTree, tree_from_dict, tree_to_dict


# --- sampling ----------------------------------------------------------------

def sample_power_law(rng, alpha: float, size: int, x_min: int = 1, table_size: int = 10**6) -> np.ndarray:
    """Inverse-CDF draws from p(k) = k^-alpha / zeta(alpha, x_min), k >= x_min.

    Uses a partial-sum table; the rare draws beyond the table are resolved
    exactly by bisection on the Hurwitz-zeta tail.
    """
    ks = np.arange(x_min, x_min + table_size, dtype=float)
    pmf = ks ** -alpha / special.zeta(alpha, x_min)
    cdf = np.cumsum(pmf)
    u = rng.uniform(size=size)
    out = np.searchsorted(cdf, u) + x_min
    tail = u > cdf[-1]
    if tail.any():
        z0 = special.zeta(alpha, x_min)

        def tail_cdf(k: int) -> float:
            return 1.0 - special.zeta(alpha, k + 1) / z0

        for i in np.nonzero(tail)[0]:
            lo = x_min + table_size
            hi = lo * 10
            while tail_cdf(hi) < u[i]:
                lo, hi = hi, hi * 10
            while lo < hi:
                mid = (lo + hi) // 2
                if tail_cdf(mid) >= u[i]:
                    hi = mid
                else:
                    lo = mid + 1
            out[i] = lo
    return out


# --- quadrature --------------------------------------------------------------

def chi2_1_sf_quadrature(w: float) -> float:
    """Survival function of chi-square(1) by numerical integration of the density."""
    density = lambda x: math.exp(-x / 2.0) / math.sqrt(2.0 * math.pi * x)
    value, _ = integrate.quad(density, w, np.inf)
    return value


# --- order statistics ----------------------------------------------------------

def naive_summary(samples) -> tuple[float, float, float, float, float, float]:
    """Six-number summary with hand-rolled linear interpolation of order statistics."""
    x = sorted(float(v) for v in samples)
    n = len(x)

    def quantile(q: float) -> float:
        pos = (n - 1) * q
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return x[lo] + frac * (x[hi] - x[lo])

    return (x[0], quantile(0.25), quantile(0.5), sum(x) / n, quantile(0.75), x[-1])


# --- graph oracles --------------------------------------------------------------

def adjacency_sets(edges, homogeneous=None):
    adj: dict[int, set[int]] = {}
    for i, (u, v) in enumerate(np.asarray(edges).tolist()):
        if homogeneous is not None and not homogeneous[i]:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def bfs_eccentricity(adj, start, n) -> int:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if len(dist) != n:
        raise AssertionError("graph not connected")
    return max(dist.values())


def graph_diameter(g) -> int:
    adj = adjacency_sets(g.edges)
    return max(bfs_eccentricity(adj, s, g.node_count) for s in range(g.node_count))


def scalar_small_world(n: int, z: int, r: float, seed) -> SignedGraph:
    """generate_small_world as it was before its rewiring was vectorized: one scalar loop, one draw per attempt.

    Kept verbatim as the oracle the vectorized replay must match exactly.

    Starts from a ring lattice where every node connects to its z nearest
    neighbors (z/2 on each side), then visits each lattice edge once in
    canonical order and, with probability r, re-targets its far endpoint to
    a uniformly random node, resampling to avoid self loops and duplicate
    edges. Edge count n*z/2 is preserved exactly. All edges start out
    flagged homogeneous; use label_edges to set a different fraction.

    Args:
        n: node count, must exceed z.
        z: even ring degree, at least 2.
        r: rewiring probability in [0, 1].
        seed: int seed, SeedSequence, or Generator.

    Raises:
        ParameterError: z odd, z < 2, z >= n, or r outside [0, 1].
    """
    if z < 2 or z % 2 != 0:
        raise ParameterError(f"ring degree must be even and >= 2, got {z}")
    if n <= z:
        raise ParameterError(f"need n > z, got n={n}, z={z}")
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"rewiring probability must be in [0, 1], got {r}")

    rng = np.random.default_rng(seed)
    opinions = rng.uniform(0.0, 1.0, size=n)

    # Ring lattice in canonical order: distance j = 1..z/2, then node index.
    half = z // 2
    heads = np.tile(np.arange(n), half)
    offsets = np.repeat(np.arange(1, half + 1), n)
    tails = (heads + offsets) % n
    degree = [z] * n  # every lattice node has degree z

    # Rewiring visits each lattice edge once and only ever removes that
    # edge, so the current edge set is the lattice minus `removed` plus
    # `added`, with undirected edges held as keys min*n + max. Targets are
    # drawn in blocks as long as the rewirings still to come:
    # rng.integers(n, size=k) yields the same values as k scalar
    # rng.integers(n) calls, so this matches one draw per attempt. Only
    # rewirings skipped below leave drawn targets unused, which advances a
    # caller's Generator further than one draw per attempt would.
    rewire = np.flatnonzero(rng.uniform(size=len(heads)) < r).tolist()
    head_list, new_tails = heads.tolist(), tails.tolist()
    removed: set[int] = set()
    added: set[int] = set()
    block: list[int] = []
    drawn = 0
    for done, k in enumerate(rewire):
        u, v = head_list[k], new_tails[k]
        if degree[u] >= n - 1:
            continue  # u already adjacent to everyone else; nothing to rewire to
        while True:
            if drawn == len(block):
                block, drawn = rng.integers(n, size=len(rewire) - done).tolist(), 0
            w = block[drawn]
            drawn += 1
            if w == u:
                continue
            key = u * n + w if u < w else w * n + u
            gap = u - w if u > w else w - u
            if key not in added and (half < gap < n - half or key in removed):
                break
        removed.add(u * n + v if u < v else v * n + u)
        added.add(key)
        degree[v] -= 1
        degree[w] += 1
        new_tails[k] = w

    edges = np.column_stack([heads, np.asarray(new_tails, dtype=np.int64)])
    return SignedGraph(
        node_count=n,
        ring_degree=z,
        rewiring_probability=float(r),
        opinions=opinions,
        edges=edges,
        homogeneous=np.ones(len(edges), dtype=bool),
    )


def share_probability(theta: float, delta: float) -> float:
    """Share of uniform opinions within delta of the fitness theta: min(1, theta + delta) - max(0, theta - delta)."""
    return min(1.0, theta + delta) - max(0.0, theta - delta)


def brute_force_sharers(g, theta: float, delta: float, seeds) -> set[int]:
    """Fixpoint closure: scan every homogeneous edge until no sharer is added."""
    passes = [abs(float(w) - theta) <= delta for w in g.opinions]
    sharers = set(int(s) for s in seeds)
    edges = [tuple(e) for e, h in zip(g.edges.tolist(), g.homogeneous.tolist()) if h]
    for _ in range(g.node_count + 1):
        added = False
        for u, v in edges:
            if u in sharers and v not in sharers and passes[v]:
                sharers.add(v)
                added = True
            if v in sharers and u not in sharers and passes[u]:
                sharers.add(u)
                added = True
        if not added:
            break
    return sharers


def threshold_rounds(adj, opinions, theta: float, delta: float, seeds) -> tuple[int, int]:
    """(sharer count, rounds) of a cascade by breadth-first layers from the seeds."""
    shared = set(seeds)
    layer, rounds = list(shared), 0
    while True:
        fresh = {v for u in layer for v in adj.get(u, ()) if v not in shared and abs(opinions[v] - theta) <= delta}
        if not fresh:
            return len(shared), rounds
        shared |= fresh
        layer, rounds = sorted(fresh), rounds + 1


def layered_trees(g, news, delta: float, seed) -> list[tuple[list[int], list[int], list[int]]]:
    """diffuse(g, news, (delta,), seed, build_trees=True) in plain Python: per item (users, rounds, parents).

    Each item's nodes come in share order: its seeds in draw order, then
    each round's sharers in node order; a parent is an index into them (-1
    for a seed). The seeds come from unique_seed_nodes. Then, round by round
    and within a round item by item and node by node, each sharer with k > 1
    candidate parents takes candidates[rng.integers(k)], one scalar draw
    each, where its candidates are the previous round's sharers across a
    homogeneous edge in that round's order (the seeds' draw order in round 1).
    """
    n = g.node_count
    rng = np.random.default_rng(seed)
    keys = unique_seed_nodes(rng, np.array([item.first_sharer_count for item in news], dtype=np.int64), n)
    adj = adjacency_sets(g.edges, g.homogeneous.tolist())
    opinions = g.opinions.tolist()
    trees = [([], [], []) for _ in news]
    layers = [[] for _ in news]
    for key in keys.tolist():
        i, user = divmod(key, n)
        trees[i][0].append(user)
        trees[i][1].append(0)
        trees[i][2].append(-1)
        layers[i].append(user)
    k = 0
    while any(layers):
        k += 1
        for i, item in enumerate(news):
            users, rounds, parents = trees[i]
            index = {user: j for j, user in enumerate(users)}
            candidates: dict[int, list[int]] = {}
            for parent in layers[i]:
                for v in adj.get(parent, ()):
                    if v not in index and abs(opinions[v] - item.fitness) <= delta:
                        candidates.setdefault(v, []).append(parent)
            layers[i] = sorted(candidates)
            for v in layers[i]:
                choice = candidates[v]
                users.append(v)
                rounds.append(k)
                parents.append(index[choice[int(rng.integers(len(choice)))] if len(choice) > 1 else choice[0]])
    return trees


def unique_seed_nodes(rng, counts: np.ndarray, n: int) -> np.ndarray:
    """diffusion._seed_nodes as it deduplicated before: np.unique's first indices, sorted back into draw order."""
    items = np.arange(counts.size, dtype=np.int64)
    dense = 2 * counts > n
    sparse_counts = np.where(dense, 0, counts)
    keys = np.empty(0, dtype=np.int64)
    short = sparse_counts
    while short.any():
        drawn = np.repeat(items, short) * n + rng.integers(n, size=int(short.sum()))
        keys = np.concatenate([keys, drawn])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        short = sparse_counts - np.bincount(keys // n, minlength=counts.size)
    dense_keys = [i * n + rng.permutation(n)[:m] for i, m in zip(np.flatnonzero(dense), counts[dense].tolist())]
    keys = np.concatenate([keys, *dense_keys])
    return keys[np.argsort(keys // n, kind="stable")]


def sweep_batches(config, i, j, d, build_trees=False):
    """diffuse's (BatchStats, Forest or None) per iteration at grid point (phis[i], rs[j], deltas[d]).

    Each iteration's graph, labeling, news and batch seed come from the
    SeedSequence spawn keys that run_sweep documents, and the one delta
    diffuses on its own, so this is the sweep's draws without its task
    split, its multi-delta diffuse calls or its pooling.
    """
    from cascadekit.diffusion import diffuse, sample_news
    from cascadekit.graph import generate_small_world, label_edges

    for k in range(config.iterations):
        s_graph, s_label = np.random.SeedSequence(config.master_seed, spawn_key=(0, j, k)).spawn(2)
        g = generate_small_world(config.n, config.z, config.rs[j], seed=s_graph)
        g = label_edges(g, config.phis[i], seed=s_label)
        s_news, s_batch = np.random.SeedSequence(config.master_seed, spawn_key=(1, i, j, k)).spawn(2)
        news = sample_news(config.m, config.first_sharers, seed=s_news, max_count=config.n)
        [batch] = diffuse(g, news, (config.deltas[d],), seed=s_batch, build_trees=build_trees)
        yield batch


def earlier_scheme_sweep(config):
    """run_sweep under the seeding scheme that common random numbers replaced.

    Every (point, iteration) draws a fresh graph, labeling, news batch and
    cascades from the four children of SeedSequence(master_seed,
    spawn_key=(point index, iteration)); the cascade child gives item i the
    Generator of its own i-th child, which draws the item's seeds with
    choice(n, m, replace=False). Cascades run as breadth-first layers here
    and the pooling uses numpy means and standard deviations, as that code
    did. Graphs, labels and news come from the package.
    """
    from cascadekit import branching
    from cascadekit.diffusion import sample_news
    from cascadekit.errors import SupercriticalError
    from cascadekit.graph import generate_small_world, label_edges
    from cascadekit.harness import SweepResult

    results = []
    for point, (phi_hl, r, delta) in enumerate(config.grid()):
        seeds, sizes, heights = [], [], []
        for iteration in range(config.iterations):
            ss = np.random.SeedSequence(config.master_seed, spawn_key=(point, iteration))
            s_graph, s_label, s_news, s_batch = ss.spawn(4)
            g = label_edges(generate_small_world(config.n, config.z, r, seed=s_graph), phi_hl, seed=s_label)
            news = sample_news(config.m, config.first_sharers, seed=s_news, max_count=config.n)
            adj = adjacency_sets(g.edges, g.homogeneous.tolist())
            opinions = g.opinions.tolist()
            for item, child in zip(news, s_batch.spawn(len(news))):
                m = item.first_sharer_count
                start = np.random.default_rng(child).choice(config.n, size=m, replace=False).tolist() if m else []
                size, rounds = threshold_rounds(adj, opinions, item.fitness, delta, start)
                seeds.append(m)
                sizes.append(size)
                heights.append(rounds + 1 if m else 0)
        mu = branching.branching_ratio(config.z, delta, q=1.0 - phi_hl)
        mean_seeds = float(np.mean(seeds)) if seeds else 0.0
        try:
            size_pred, supercritical = branching.expected_cascade_size(mean_seeds, mu), False
        except SupercriticalError:
            size_pred, supercritical = None, True
        size_arr, height_arr = np.array(sizes, dtype=float), np.array(heights, dtype=float)
        results.append(SweepResult(
            phi_hl=phi_hl, r=r, delta=delta,
            mean_size=float(size_arr.mean()),
            sd_size=float(size_arr.std(ddof=1)) if size_arr.size > 1 else 0.0,
            mean_height=float(height_arr.mean()),
            sd_height=float(height_arr.std(ddof=1)) if height_arr.size > 1 else 0.0,
            mu_pred=mu, size_pred=size_pred, iterations=config.iterations,
            mean_seeds=mean_seeds, supercritical=supercritical,
        ))
    return results


# --- trees from node tuples, and back ----------------------------------------------

Node = namedtuple("Node", "id user sigma t parent")  # one node of a tree document


def tree_from_nodes(news_id, category: str, nodes, virtual_root: bool = True, page_sign: int = 1) -> SharingTree:
    """The tree of a tree document whose nodes are (id, user, sigma, t, parent) tuples; raises the loader's errors."""
    return tree_from_dict({"news_id": news_id, "category": category,
                           "root": {"virtual": virtual_root, "page_sign": page_sign},
                           "nodes": [dict(zip(Node._fields, node)) for node in nodes]})


def nodes_of(tree: SharingTree) -> list[Node]:
    """The nodes of a tree in array order, read back from its tree document."""
    return [Node(**node) for node in tree_to_dict(tree)["nodes"]]


# --- tree oracles ----------------------------------------------------------------

def children_map(tree: SharingTree) -> dict[int | None, list[Node]]:
    out: dict[int | None, list[Node]] = {}
    for nd in nodes_of(tree):
        out.setdefault(nd.parent, []).append(nd)
    return out


def naive_height(tree: SharingTree) -> int:
    """Max depth by explicit DFS from the roots."""
    kids = children_map(tree)
    base = 1 if tree.virtual_root else 0
    best = 0
    stack = [(nd, base) for nd in nodes_of(tree) if nd.parent is None]
    while stack:
        nd, depth = stack.pop()
        best = max(best, depth)
        stack.extend((child, depth + 1) for child in kids.get(nd.id, ()))
    return best


def naive_lifetime(tree: SharingTree) -> float:
    times = sorted(nd.t for nd in nodes_of(tree))
    return times[-1] - times[0]


def naive_mean_homogeneity(tree: SharingTree) -> float:
    nodes = nodes_of(tree)
    by_id = {nd.id: nd for nd in nodes}
    vals = [by_id[nd.parent].sigma * nd.sigma for nd in nodes if nd.parent is not None]
    return sum(vals) / len(vals)


def enumerate_paths(tree: SharingTree) -> list[list[float]]:
    """All root-to-leaf edge-sign sequences, by exhaustive recursion."""
    kids = children_map(tree)
    paths: list[list[float]] = []

    def walk(node: Node, signs: list[float]) -> None:
        below = kids.get(node.id, [])
        if not below:
            paths.append(signs)
            return
        for child in below:
            walk(child, signs + [node.sigma * child.sigma])

    for root in (nd for nd in nodes_of(tree) if nd.parent is None):
        first = [float(tree.page_sign) * root.sigma] if tree.virtual_root else []
        walk(root, first)
    return paths


def naive_path_counts(tree: SharingTree) -> tuple[int, int]:
    """(number of paths, number of fully homogeneous paths) by enumeration."""
    paths = enumerate_paths(tree)
    homogeneous = sum(1 for signs in paths if all(s > 0 for s in signs))
    return len(paths), homogeneous


# --- the tree loader's rules, one document at a time ---------------------------------

NODE_FIELDS = ("id", "user", "sigma", "t", "parent")


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def is_whole(v) -> bool:
    """An int, or a finite float with no fractional part, not a bool, of any size: an id's type rule."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return isinstance(v, int) or math.isfinite(v) and v == math.floor(v)


def is_id(v) -> bool:
    return is_whole(v) and -2**63 <= v < 2**63


NODE_RULES = {  # per node field: the test each value must pass, and what the loader says it must be
    "id": (is_id, "an integer"),
    "user": (lambda v: isinstance(v, (int, str)) and not isinstance(v, bool), "an integer or a string"),
    "sigma": (is_number, "a finite number"),
    "t": (is_number, "a finite number"),
    "parent": (lambda v: v is None or is_id(v), "an integer or null"),
}


def missing_field(doc: dict, index: int) -> str:
    """The loader's message for document `index` of a batch, which lacks a field.

    It names the first lookup that fails, in the loader's order: root,
    nodes, news_id, category, root.virtual, root.page_sign, then each node
    field in turn over all the nodes.
    """
    name = f"tree {doc['news_id']}" if "news_id" in doc else f"tree at batch index {index}"
    for key in ("root", "nodes", "news_id", "category"):
        if key not in doc:
            return f"{name}: {key} is missing"
    for key in ("virtual", "page_sign"):
        if key not in doc["root"]:
            return f"{name}: root.{key} is missing"
    for key in NODE_FIELDS:
        for i, node in enumerate(doc["nodes"]):
            if key not in node:
                return f"{name}: nodes[{i}].{key} is missing"
    raise AssertionError("no field is missing")


STRUCTURE = "nodes must be a list, root.virtual a boolean and root.page_sign an integer"


def shape_fault(doc, index: int) -> str:
    """The loader's message for document `index` of a batch, where a lookup meets a value of the wrong shape.

    That is, in the loader's order: a document that is not an object, then
    (news_id being there, as its lookup comes first) a root that is not an
    object, nodes that is not a list, and the first node that is not an
    object (every node before it has an id, or the id lookup fails first).
    """
    if not isinstance(doc, dict):
        return f"tree at batch index {index}: document must be an object"
    name = f"tree {doc['news_id']}"
    if not isinstance(doc["root"], dict):
        return f"{name}: root must be an object"
    if not isinstance(doc["nodes"], list):
        return f"{name}: {STRUCTURE}"
    i = next(i for i, node in enumerate(doc["nodes"]) if not isinstance(node, dict))
    return f"{name}: nodes[{i}] must be an object"


def tree_fault(doc, index: int = 0) -> tuple[type, str] | None:
    """(error class, message) of the first fault of document `index` of a tree batch, or None when it loads.

    Plain Python over the document's values, in the loader's order: its
    fields (a missing one, one of the wrong kind), then its category,
    page_sign, a repeated node id, the parentless count under a real root,
    each node's sigma and then parent, a cycle, a share before its parent,
    and a lifetime that is not finite as a float.
    """
    try:  # the lookups in the loader's order: a value of the wrong shape fails one with a TypeError
        root, nodes = doc["root"], doc["nodes"]
        news_id, category, virtual, page_sign = doc["news_id"], str(doc["category"]), root["virtual"], root["page_sign"]
        columns = {key: [node[key] for node in nodes] for key in NODE_FIELDS}
    except KeyError:
        return TreeSchemaError, missing_field(doc, index)
    except TypeError:
        return TreeSchemaError, shape_fault(doc, index)
    name = f"tree {news_id}"
    if type(nodes) is not list or type(virtual) is not bool or not is_id(page_sign):
        return TreeSchemaError, f"{name}: {STRUCTURE}"
    for key, (ok, kind) in NODE_RULES.items():
        for i, value in enumerate(columns[key]):
            if not ok(value):  # a whole id or parent outside int64 does not fit one
                must = "fit an int64" if key in ("id", "parent") and is_whole(value) else f"be {kind}"
                return TreeSchemaError, f"{name}: nodes[{i}].{key} must {must}, got {value!r}"
    if category not in ("science", "conspiracy", "troll", "synthetic"):
        return TreeSchemaError, f"{name}: unknown category {category!r}"
    if page_sign not in (-1, 1):
        return TreeSchemaError, f"{name}: virtual_root must be a boolean and page_sign -1 or 1"
    ids, parents, times = [int(v) for v in columns["id"]], columns["parent"], columns["t"]
    position = {}
    for k, node_id in enumerate(ids):
        if node_id in position:
            return TreeSchemaError, f"{name}: duplicate node id {node_id}"
        position[node_id] = k
    roots = sum(p is None for p in parents)
    if not virtual and roots != 1:
        return TreeSchemaError, f"{name}: real-rooted tree needs exactly one parentless node, found {roots}"
    for k, (sigma, p) in enumerate(zip(columns["sigma"], parents)):
        if not -1.0 <= float(sigma) <= 1.0:
            return SigmaRangeError, f"{name}: node {ids[k]} has sigma {float(sigma)} outside [-1, 1]"
        if p is not None and int(p) not in position:
            return OrphanParentError, f"{name}: node {ids[k]} references missing parent {p}"
    up = [None if p is None else position[int(p)] for p in parents]
    for k in range(len(ids)):
        seen, i = set(), k
        while i is not None and i not in seen:
            seen.add(i)
            i = up[i]
        if i is not None:  # node k's ancestors run into a cycle: the loader names the node len(ids) steps up
            for _ in range(len(ids)):
                k = up[k]
            return TreeCycleError, f"{name}: cycle through node {ids[k]}"
    for k, i in enumerate(up):
        if i is not None and times[k] < times[i]:
            return TimestampOrderError, f"{name}: node {ids[k]} shares at t={times[k]} before its parent"
    if times and max(times) - min(times) > sys.float_info.max:
        return TreeSchemaError, f"{name}: share times from {min(times)} to {max(times)} span no finite lifetime"
    return None


# --- the rules of values from Python callers ------------------------------------------

def python_value(v):
    """A numpy scalar as its Python value (a numpy bool as a bool); any other value as it is."""
    return v.item() if isinstance(v, np.generic) else v


def is_count(v) -> bool:
    """An integer kind's value: a Python or numpy int, not a bool, within int64."""
    v = python_value(v)
    return type(v) is int and -2**63 <= v < 2**63


def is_finite_number(v) -> bool:
    """A number kind's value: a Python or numpy int or float or a Fraction, not a bool, within the float range."""
    v = python_value(v)
    return type(v) in (int, float, Fraction) and abs(v) <= sys.float_info.max


def news_fault(items, n: int) -> str | None:
    """The message diffuse raises for the first bad value of a news batch on n nodes, or None when it reads.

    Field by field, first_sharer_count then fitness: the first value of the
    wrong kind (a count outside int64 must fit one), then the first whose
    int, or float, lies outside [0, n], or [0, 1].
    """
    for field, ok, must, cast, high in (("first_sharer_count", is_count, "an integer", int, n),
                                        ("fitness", is_finite_number, "a finite number", float, 1)):
        values = [getattr(item, field) for item in items]
        for k, v in enumerate(values):
            if not ok(v):
                too_big = field == "first_sharer_count" and type(python_value(v)) is int  # an int, not a count
                rule = "fit an int64" if too_big else f"be {must}"
                return f"news[{k}].{field} must {rule}, got {v!r}"
        for k, v in enumerate(map(cast, values)):
            if not 0 <= v <= high:
                return f"news[{k}].{field} must be in [0, {high}], got {v!r}"
    return None


def inverse_gaussian_fault(mean, shape) -> str | None:
    """The message FittedDistribution.inverse_gaussian(mean, shape) raises, or None when it is made."""
    for param, v in (("mean", mean), ("shape", shape)):
        if not is_finite_number(v):
            return f"inverse_gaussian {param} must be a finite number, got {v!r}"
    if not (float(mean) > 0 and float(shape) > 0):
        return f"IG needs positive mean and shape, got ({float(mean)}, {float(shape)})"
    return None


def empirical_fault(sample: list) -> str | None:
    """The message FittedDistribution.empirical(sample) raises for a list sample, or None when it is made."""
    for v in sample:
        if not is_finite_number(v):
            return f"empirical sample entry must be a finite number, got {v!r}"
    if not sample:
        return "empirical sample must hold at least one number"
    if min(map(float, sample)) < 0:
        return "empirical distribution needs a sample with no value below 0"
    return None


# --- random valid trees for property tests -----------------------------------------

def random_tree(rng, max_nodes: int = 10, category: str = "science") -> SharingTree:
    """A structurally valid random SharingTree with mixed polarizations."""
    virtual = bool(rng.integers(2))
    n = int(rng.integers(0 if virtual else 1, max_nodes + 1))
    nodes: list[Node] = []
    for i in range(n):
        if i == 0 or (virtual and rng.uniform() < 0.3):
            parent = None
            t = float(np.round(rng.uniform(0, 2), 3))
        else:
            parent = int(rng.integers(i))
            t = nodes[parent].t + float(np.round(rng.uniform(0, 5), 3))
        sigma = float(np.round(rng.uniform(-1, 1), 3))
        nodes.append(Node(id=i, user=1000 + i, sigma=sigma, t=t, parent=parent))
    page_sign = -1 if category == "science" else 1
    return tree_from_nodes(int(rng.integers(10**6)), category, nodes, virtual, page_sign)
