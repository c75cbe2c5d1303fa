"""Sharing-tree data model and per-cascade metrics.

A sharing tree records who reshared a news item from whom. Trees either
hang off a virtual page root (the publishing page, excluded from all node
counts) or are rooted at a real user. Metrics cover size, height, lifetime,
edge homogeneity, and the counts of root-to-leaf paths and of homogeneous ones.

A Forest is the one tree-list type: the node arrays of all its trees end
to end, plus per-tree fields. Trees enter it one way from each side: the
cascade kernel builds forests, and external trees are tree documents,
which the loader (tree_from_dict, trees_from_json, load_trees) reads by
column: files.read_columns type-tests each node field of the whole batch
once, and only a failed test starts a scan, document by document, to name
the fault by its path. It then checks each tree rule once over the forest. metrics_rows,
harness.analyze, the JSON writer and the CSV export read forests;
Forest.of joins any other sequence of trees into one.
forest[k] is a SharingTree, a view of one tree built on each access.
metrics_rows computes every metric of a forest in one vectorized pass
over its arrays, which the per-tree metric functions wrap.
"""

from __future__ import annotations

import json
import math
import operator
import sys

import numpy as np

from . import files
from .errors import (
    OrphanParentError,
    SigmaRangeError,
    TimestampOrderError,
    TreeCycleError,
    TreeSchemaError,
    UndefinedMetricError,
)

CATEGORIES = ("science", "conspiracy", "troll", "synthetic")

_NODE_FIELDS = {"id": "id", "user": "user", "sigma": "number", "t": "time", "parent": "parent"}  # kinds in files.KINDS


class SharingTree:
    """Oriented tree of successive shares of one news item: one tree of a Forest.

    When virtual_root is True the (implicit) page node is the root: every
    node without a parent is a first sharer at depth 1. When False, exactly
    one node has no parent and is itself the root user at depth 0.

    Node k has id id[k], user user[k], polarization sigma[k], share time t[k]
    and parent node parent[k], an index into the same arrays (-1 for none).
    The arrays are read-only views of the forest's; user and t are int64 or
    float64 when all their values are ints or all floats, else object
    arrays, so values keep their type. SharingTree(forest, k) is what
    forest[k] builds: a tree comes from the cascade kernel or from a tree
    document, and there is no other constructor.
    """

    __slots__ = ("_forest", "_k", "_a", "_b")

    def __init__(self, forest: Forest, k: int):
        self._forest, self._k, self._a, self._b = forest, k, int(forest.start[k]), int(forest.start[k + 1])

    news_id = property(lambda self: self._forest.news_id[self._k])
    category = property(lambda self: self._forest.category[self._k])
    virtual_root = property(lambda self: self._forest.virtual_root[self._k])
    page_sign = property(lambda self: self._forest.page_sign[self._k])
    id = property(lambda self: self._forest.id[self._a:self._b])
    user = property(lambda self: self._forest.user[self._a:self._b])
    sigma = property(lambda self: self._forest.sigma[self._a:self._b])
    t = property(lambda self: self._forest.t[self._a:self._b])
    parent = property(lambda self: self._forest.parent[self._a:self._b])

    def _columns(self) -> tuple[list, ...]:
        """The node fields as lists of Python values, parents as ids."""
        ids = self.id.tolist()
        return ids, self.user.tolist(), self.sigma.tolist(), self.t.tolist(), [
            ids[p] if p >= 0 else None for p in self.parent.tolist()]


def _climb(parent: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Add to each weight array, in place, the weights of every node's ancestors (pointer doubling).

    parent holds parent indexes, negative for a root. Returns the nodes
    whose chain of ancestors never reaches a root (it runs into a cycle).
    """
    jump = np.where(parent < 0, -1, parent).astype(np.int32 if parent.size < 2**31 else np.int64)
    live = np.flatnonzero(jump >= 0).astype(jump.dtype)
    for _ in range(parent.size.bit_length()):
        if not live.size:
            break
        up = jump[live]
        for values in weights:
            values[live] += values[up]
        jump[live] = jump[up]
        live = live[jump[live] >= 0]
    return live


class Forest:
    """A list of sharing trees held as batch-wide node arrays.

    id, user, sigma, t and parent hold the nodes of all trees end to end,
    tree k's at start[k]:start[k + 1], with the dtypes of a SharingTree's
    arrays; parent indexes the tree's own nodes (-1 for none).
    news_id, category, virtual_root and page_sign are per-tree lists. len,
    iteration and forest[k] give the trees: forest[k] is a SharingTree over
    views of the arrays, built on each access.
    """

    __slots__ = ("news_id", "category", "virtual_root", "page_sign", "start", *_NODE_FIELDS)

    def __init__(self, news_id: list, category: list, virtual_root: list, page_sign: list, start: np.ndarray,
                 id, user, sigma, t, parent):
        self.news_id, self.category, self.virtual_root, self.page_sign = news_id, category, virtual_root, page_sign
        self.start = start
        for values in (id, user, sigma, t, parent):
            values.flags.writeable = False
        self.id, self.user, self.sigma, self.t, self.parent = id, user, sigma, t, parent

    @classmethod
    def of(cls, trees) -> Forest:
        """trees itself when it is a Forest, the forest when trees lists all its trees in order, else a joined copy.

        The copy joins each node column with one concatenate; a column whose
        non-empty parts differ in dtype becomes an object array, so int and
        float times keep each tree's type.
        """
        if isinstance(trees, Forest):
            return trees
        trees = list(trees)
        whole = trees[0]._forest if trees else None
        if whole is not None and len(whole) == len(trees) and all(
                tr._forest is whole and tr._k == k for k, tr in enumerate(trees)):
            return whole
        start = np.concatenate(([0], np.cumsum([tr._b - tr._a for tr in trees], dtype=np.int64)))
        columns = []
        for field, empty in zip(_NODE_FIELDS, (np.int64, np.int64, float, np.int64, np.int64)):
            parts = [values for values in (getattr(tr, field) for tr in trees) if values.size]
            mixed = len({values.dtype for values in parts}) > 1
            columns.append(np.concatenate(parts or [np.zeros(0, dtype=empty)], dtype=object if mixed else None))
        return cls([tr.news_id for tr in trees], [tr.category for tr in trees], [tr.virtual_root for tr in trees],
                   [tr.page_sign for tr in trees], start, *columns)

    def __len__(self) -> int:
        return len(self.news_id)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, k: int) -> SharingTree:
        k = range(len(self))[operator.index(k)]  # an int in range; a slice or float is a TypeError
        return SharingTree(self, k)


def _walk(forest: Forest) -> tuple[np.ndarray, ...]:
    """One vectorized pass over a forest's nodes: (tree, parent, depth, leaf, homogeneous) per node.

    tree is the node's tree index, parent its parent's batch-wide index (-1
    for none), depth its edges from the root (the page edge included under
    a virtual root), leaf whether it has no children, and homogeneous
    whether the path ending at it has no discordant edge. An edge is
    discordant when its sign, the product of its endpoint polarizations
    (the page sign standing in for the page), is not positive.

    depth and the discordant-edge count of each path add up down the tree
    in one of two walks. When t is int64 with every root at 0 and every
    child at its parent's t plus one (one vectorized test over all nodes,
    which every kernel forest passes), t is the node's level: depth is t
    plus the page edge, and the counts add up level by level, one gather per
    level over the nodes grouped by a stable argsort of t. That walk costs a
    numpy call per level, and pointer doubling a pass over the nodes per
    doubling of the depth, so it is taken only where the forest is shallow
    for its size: at most 32 levels plus one per four nodes. Any other
    forest, such as a long chain or loaded trees with real share times,
    takes _climb's pointer doubling.
    """
    tree_of = np.repeat(np.arange(len(forest)), np.diff(forest.start))
    root = forest.parent < 0
    parent = np.where(root, -1, forest.parent + forest.start[tree_of])
    virtual = np.array(forest.virtual_root, dtype=bool)[tree_of]
    above = forest.sigma[np.where(root, 0, parent)]  # each edge's upper polarization, the page sign for a root
    above[root] = np.array(forest.page_sign, dtype=float)[tree_of[root]]
    edge = ~root | virtual
    bad = edge & ~(above * forest.sigma > 0)
    del above  # node-sized temporaries go as soon as they are used: big batches peak here
    width = np.int32 if root.size < 2**31 else np.int64  # path sums never exceed the node count
    t, child = forest.t, ~root
    if (t.dtype == np.int64 and t.max(initial=0) < 32 + t.size // 4 and not t[root].any()
            and np.array_equal(t[child], t[parent[child]] + 1)):
        depth, discordant = t + virtual, bad.astype(width)
        order = np.argsort(t, kind="stable")
        ends = np.cumsum(np.bincount(t)).tolist()
        for a, b in zip(ends, ends[1:]):  # levels 1, 2, ...: each parent's count is final
            level = order[a:b]
            discordant[level] += discordant[parent[level]]
    else:
        depth, discordant = weights = [w.astype(width) for w in (edge, bad)]
        _climb(parent, weights)
    leaf = np.ones(root.size, dtype=bool)
    leaf[parent[child]] = False
    return tree_of, parent, depth, leaf, discordant == 0


def tree_size(tree: SharingTree) -> int:
    """Number of sharer nodes (the virtual page root never counts)."""
    return int(tree.id.size)


def tree_height(tree: SharingTree) -> int:
    """Maximum path length from the root; first sharers under a virtual root sit at depth 1."""
    return metrics_rows([tree])[0]["height"]


def lifetime(tree: SharingTree) -> float:
    """Time between the first and last share (hours for data, steps for simulation)."""
    return _defined(tree, "lifetime", "lifetime undefined for an empty tree")


def mean_edge_homogeneity(tree: SharingTree) -> float:
    """Mean sigma_i*sigma_j over sharer-to-sharer tree edges (virtual-root edges excluded)."""
    return _defined(tree, "mean_homogeneity", "no edges between polarized nodes")


def _defined(tree: SharingTree, column: str, problem: str):
    value = metrics_rows([tree])[0][column]
    if value is None:
        raise UndefinedMetricError(f"tree {tree.news_id}: {problem}")
    return value


# --- serialization -----------------------------------------------------------

def tree_to_dict(tree: SharingTree) -> dict:
    return {
        "news_id": tree.news_id,
        "category": tree.category,
        "root": {"virtual": tree.virtual_root, "page_sign": tree.page_sign},
        "nodes": [{"id": i, "user": u, "sigma": s, "t": t, "parent": p} for i, u, s, t, p in zip(*tree._columns())],
    }


def tree_from_dict(doc: dict) -> SharingTree:
    """Parse and validate one tree document; raises typed validation errors."""
    return _trees_from_docs([doc])[0]


def _trees_from_docs(docs: list) -> Forest:
    """Parse tree documents into a Forest, emptying the list; the first fault in document order raises.

    Node ids and parents must be integers (a float only when integral),
    users ints or strings, sigma and t finite numbers, nodes a list of
    objects and root.virtual a boolean; a boolean is not a number. One pass
    over the documents reads their heads and joins their nodes, which
    files.read_columns then reads as one column per node field, each
    passing one type test in C. Only where a lookup or a test fails does a
    scan of single documents run: each document's nodes are read in turn,
    and the first that raises names the fault. _check then tests the
    structure of all the trees before it at once.
    """
    if not isinstance(docs, list):
        raise TreeSchemaError("tree batch must be a JSON array")
    heads = news_id, category, virtual, page_sign = [], [], [], []
    sizes, nodes, fault = [], [], None
    for j in range(len(docs)):
        doc, docs[j] = docs[j], None
        try:
            root, part, name, kind = doc["root"], doc["nodes"], doc["news_id"], str(doc["category"])
            flag, sign = root["virtual"], root["page_sign"]
        except (KeyError, TypeError):
            fault = _doc_fault(doc, j)
            break
        if type(part) is not list or type(flag) is not bool or not files.KINDS["id"].ok(sign):
            fault = _doc_fault(doc, j) or (f"tree {name}: nodes must be a list, root.virtual a boolean and "
                                           "root.page_sign an integer")
            break
        news_id.append(name), category.append(kind), virtual.append(flag), page_sign.append(int(sign))
        sizes.append(len(part))
        nodes += part
    start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    try:
        columns = files.read_columns(nodes, _NODE_FIELDS, TreeSchemaError, "nodes")
    except TreeSchemaError:
        bounds = start.tolist()
        for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
            try:
                files.read_columns(nodes[a:b], _NODE_FIELDS, TreeSchemaError, f"tree {news_id[j]}: nodes")
            except TreeSchemaError as exc:
                fault = str(exc)
                break
        for values in heads:
            del values[j:]
        start = start[:j + 1]
        columns = files.read_columns(nodes[:bounds[j]], _NODE_FIELDS, TreeSchemaError, "nodes")
    del nodes
    forest = _check(heads, start, columns)
    if fault:
        raise TreeSchemaError(fault)
    return forest


def _doc_fault(doc, j: int) -> str | None:
    """The first missing field or value of the wrong shape in tree document j, in the loader's order, or None.

    The order: the document, its root, nodes, news_id and category, the
    root object and its virtual and page_sign, then the nodes, field by
    field; nodes that is not a list is left to the loader's own test.
    """
    if type(doc) is not dict:
        return f"tree at batch index {j}: document must be an object"
    name = f"tree {doc['news_id']}" if "news_id" in doc else f"tree at batch index {j}"
    for key in ("root", "nodes", "news_id", "category"):
        if key not in doc:
            return f"{name}: {key} is missing"
    if type(doc["root"]) is not dict:
        return f"{name}: root must be an object"
    for key in ("virtual", "page_sign"):
        if key not in doc["root"]:
            return f"{name}: root.{key} is missing"
    where = files.record_fault(doc["nodes"], _NODE_FIELDS) if type(doc["nodes"]) is list else None
    return where and f"{name}: nodes{where}"


def _check(heads: tuple, start: np.ndarray, columns: list) -> Forest:
    """The Forest of parsed trees; raises the first fault of the first tree that breaks a rule.

    heads holds the per-tree lists news_id, category, virtual and page_sign,
    columns the node columns as files.read_columns reads them. Each rule
    is tested once over all nodes. One sort of a key per node, its tree
    index times the id range plus its id's offset in that range, finds
    each parent by id and each repeated id. Where the tree count times the
    range would pass an int64, the id's rank among the distinct ids takes
    the offset's place.
    """
    (news_id, category, virtual, page_sign), (ids, user, sigma, t, (parent_ids, root, wanted)) = heads, columns
    count, n = len(news_id), int(start[-1])
    tree_of = np.repeat(np.arange(count), np.diff(start))
    both = np.concatenate((ids, wanted))
    low, high = (int(both.min()), int(both.max())) if n else (0, 0)
    span = high - low + 1
    if count * span < 2**63:
        offset = both - low  # the true differences fit an int64 here, so none wraps
    else:
        offset = np.unique(both, return_inverse=True)[1]
        span = int(offset.max()) + 1
    keys = np.tile(tree_of, 2) * span + offset  # each node's key, then its parent's
    order = np.argsort(keys[:n], kind="stable")
    slot = np.minimum(np.searchsorted(keys[order], keys), n - 1)
    first = np.where(keys[order[slot]] == keys, order[slot], -1)  # the first node with each key, or -1
    repeat = first[:n] != np.arange(n)
    orphan = ~root & (first[n:] < 0)  # a parent id that no node of the tree has
    parent = np.where(root | orphan, -1, first[n:] - start[tree_of])
    del both, offset, keys, order, slot, first  # node-sized temporaries go before the checks
    forest = Forest(news_id, category, virtual, page_sign, start, ids, user, sigma, t, parent)
    up = np.where(parent < 0, -1, parent + start[tree_of])  # batch-wide parent index, -1 for none
    unknown = ~np.fromiter(map(CATEGORIES.__contains__, category), dtype=bool, count=count)
    unsigned = ~np.isin(page_sign, (-1, 1))
    roots = np.bincount(tree_of[root], minlength=count)
    rootless = ~np.array(virtual, dtype=bool) & (roots != 1)
    out_of_range = ~((sigma >= -1.0) & (sigma <= 1.0))
    misplaced = out_of_range | orphan
    cyclic = np.zeros(n, dtype=bool)  # only a parent after its child can close a cycle
    cyclic[_climb(up, []) if np.any(up >= np.arange(n)) else []] = True
    late = (up >= 0) & (t < t[np.maximum(up, 0)])
    long_lived = np.zeros(count, dtype=bool)
    for k in np.unique(tree_of[~(np.abs(t.astype(float)) < 2.0**1022)]).tolist():  # only such times span past max
        times = t[start[k]:start[k + 1]].tolist()
        long_lived[k] = max(times) - min(times) > sys.float_info.max
    faulty = np.bincount(tree_of[repeat | misplaced | cyclic | late], minlength=count) > 0
    broken = np.flatnonzero(unknown | unsigned | rootless | long_lived | faulty)
    if not broken.size:
        return forest
    k = int(broken[0])
    a, b, name = int(start[k]), int(start[k + 1]), f"tree {news_id[k]}"
    dup, bad, cycle, early = (a + int(np.argmax(nodes[a:b])) if nodes[a:b].any() else None
                              for nodes in (repeat, misplaced, cyclic, late))  # tree k's first node of each
    if unknown[k]:
        raise TreeSchemaError(f"{name}: unknown category {category[k]!r}")
    if unsigned[k]:
        raise TreeSchemaError(f"{name}: virtual_root must be a boolean and page_sign -1 or 1")
    if dup is not None:
        raise TreeSchemaError(f"{name}: duplicate node id {ids[dup]}")
    if rootless[k]:
        raise TreeSchemaError(f"{name}: real-rooted tree needs exactly one parentless node, found {roots[k]}")
    if bad is not None and out_of_range[bad]:
        raise SigmaRangeError(f"{name}: node {ids[bad]} has sigma {sigma[bad]} outside [-1, 1]")
    if bad is not None:
        raise OrphanParentError(f"{name}: node {ids[bad]} references missing parent {parent_ids[bad]}")
    if cycle is not None:
        for _ in range(b - a):  # b - a steps up from a node that never reaches a root end on its cycle
            cycle = int(up[cycle])
        raise TreeCycleError(f"{name}: cycle through node {ids[cycle]}")
    if early is not None:
        raise TimestampOrderError(f"{name}: node {ids[early]} shares at t={t[early]} before its parent")
    times = t[a:b].tolist()
    raise TreeSchemaError(f"{name}: share times from {min(times)} to {max(times)} span no finite lifetime")


@files.nogc
def trees_to_json(trees) -> str:
    return json.dumps([tree_to_dict(tree) for tree in Forest.of(trees)])


@files.nogc
def trees_from_json(text: str) -> Forest:
    try:
        docs = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TreeSchemaError(f"malformed JSON: {exc}") from exc
    return _trees_from_docs(docs)


@files.nogc
def save_trees(trees, path) -> None:
    files.write_json(path, [tree_to_dict(tree) for tree in Forest.of(trees)])


@files.nogc
def load_trees(path) -> Forest:
    return _trees_from_docs(files.read_json(path, TreeSchemaError, "malformed JSON"))


# --- metric export -----------------------------------------------------------

METRIC_COLUMNS = ("news_id", "category", "size", "height", "lifetime", "mean_homogeneity", "paths", "homo_paths")


@files.nogc
def metrics_rows(trees) -> list[dict]:
    """Every metric of every tree, one dict per tree keyed by METRIC_COLUMNS; undefined metrics are None.

    Lifetimes of object times take Python's max and min, so each value keeps
    its type. A mean homogeneity is the fsum of sigma_parent * sigma_child
    over the tree's edges over their count: fsum rounds the exact sum once,
    so the value does not depend on node order.
    """
    forest = Forest.of(trees)
    tree_of, parent, depth, leaf, homogeneous = _walk(forest)
    count, t = len(forest), forest.t
    filled = np.flatnonzero(np.diff(forest.start))
    at = forest.start[filled]
    height = np.zeros(count, dtype=np.int64)
    height[filled] = np.maximum.reduceat(depth, at)
    if t.dtype == object:
        values, bounds = t.tolist(), forest.start.tolist()
        spans = [max(values[a:b]) - min(values[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    else:
        last, first = np.maximum.reduceat(t, at), np.minimum.reduceat(t, at)
        if t.dtype == np.int64:  # a span may pass 2**63: subtract modulo 2**64, exact as last >= first
            last, first = last.view(np.uint64), first.view(np.uint64)
        spans = (last - first).tolist()
    lifetime = [None] * count
    for k, span in zip(filled.tolist(), spans):
        lifetime[k] = span
    child = np.flatnonzero(parent >= 0)
    products = forest.sigma[parent[child]] * forest.sigma[child]
    ends = np.cumsum(np.bincount(tree_of[child], minlength=count)).tolist()
    homogeneity = [math.fsum(products[a:b].tolist()) / (b - a) if b > a else None for a, b in zip([0] + ends, ends)]
    paths, homo_paths = (np.bincount(tree_of[nodes], minlength=count).tolist() for nodes in (leaf, leaf & homogeneous))
    columns = zip(forest.news_id, forest.category, np.diff(forest.start).tolist(), height.tolist(), lifetime,
                  homogeneity, paths, homo_paths)
    return [dict(zip(METRIC_COLUMNS, values)) for values in columns]

