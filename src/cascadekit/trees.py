"""Sharing-tree data model and per-cascade metrics.

A sharing tree records who reshared a news item from whom. Trees either
hang off a virtual page root (the publishing page, excluded from all node
counts) or are rooted at a real user. Metrics cover size, height, lifetime,
edge homogeneity, and the counts of root-to-leaf paths and of homogeneous ones.

A Forest is the one tree-list type: the node arrays of all its trees end
to end, plus per-tree fields. Trees enter it one way from each side: the
cascade kernel builds forests, and external trees are tree documents,
which the loader (tree_from_dict, trees_from_json, load_trees) parses
under one node-field rule and validates into a forest. metrics_rows,
harness.analyze, the JSON writer and the CSV export read forests;
Forest.of joins any other sequence of trees into one. forest[k] is a
SharingTree, a view of one tree built on each access. metrics_rows
computes every metric of a forest in one vectorized pass over its arrays,
which the per-tree metric functions wrap.
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

_NODE_FIELDS = ("id", "user", "sigma", "t", "parent")
_ORPHAN = -2  # parent index of a node whose parent id names no node of its tree


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


def _column(values: list) -> np.ndarray:
    """int64 or float64 when the values are all ints or all floats, else an object array."""
    kinds = set(map(type, values))
    if kinds <= {int} or kinds == {float}:
        try:
            return np.array(values, dtype=float if float in kinds else np.int64)
        except OverflowError:  # ints beyond int64 stay Python ints
            pass
    return np.fromiter(values, dtype=object, count=len(values))


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
    arrays; parent indexes the tree's own nodes (-1 for none). While the
    loader validates a forest, -2 marks an orphan; no forest it returns
    has one.
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

    def __reduce__(self):
        # Unpickling rebuilds through __init__, so the node arrays stay read-only across processes.
        return Forest, (self.news_id, self.category, self.virtual_root, self.page_sign, self.start,
                        *(getattr(self, field) for field in _NODE_FIELDS))

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
    depth, discordant = weights = [w.astype(width) for w in (edge, bad)]
    _climb(parent, weights)
    leaf = np.ones(root.size, dtype=bool)
    leaf[parent[~root]] = False
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


def _is_id(v) -> bool:
    return (type(v) is int or type(v) is float and v.is_integer()) and -2**63 <= v < 2**63


def _is_number(v) -> bool:
    return (type(v) is int or type(v) is float) and abs(v) <= sys.float_info.max


_NODE_CHECKS = (  # per node field: the test each value must pass, and what it asks for
    (_is_id, "an integer"),
    (lambda v: type(v) is int or type(v) is str, "an integer or a string"),
    (_is_number, "a finite number"),
    (_is_number, "a finite number"),
    (lambda v: v is None or _is_id(v), "an integer or null"),
)


def _trees_from_docs(docs: list) -> Forest:
    """Parse tree documents into a Forest, emptying the list, and validate the trees; the first fault in document order raises.

    Node ids and parents must be integers (a float only when integral),
    users ints or strings, sigma and t finite numbers, nodes a list and
    root.virtual a boolean; a boolean is not a number. A tree's latest
    share time less its earliest, its lifetime, must be finite as a float.
    The nodes of all documents are checked and stored together. A
    vectorized screen (_screen) passes the trees that are valid with ids
    0..n-1 and every parent before its children; the others run _validate,
    which raises the exact error.
    """
    if not isinstance(docs, list):
        raise TreeSchemaError("tree batch must be a JSON array")
    heads, sizes, columns, fault = [], [], tuple([] for _ in _NODE_FIELDS), None
    for j in range(len(docs)):
        doc, docs[j] = docs[j], None  # the node dicts go as soon as their columns are taken
        try:
            root, nodes = doc["root"], doc["nodes"]
            head = (doc["news_id"], str(doc["category"]), root["virtual"], root["page_sign"])
            values = [[nd[f] for nd in nodes] for f in _NODE_FIELDS]
        except (KeyError, TypeError) as exc:
            fault = f"malformed tree document: {exc}"
            break
        if type(nodes) is not list or type(head[2]) is not bool or not _is_id(head[3]):
            fault = f"tree {head[0]}: nodes must be a list, root.virtual a boolean and root.page_sign an integer"
            break
        heads.append(head[:3] + (int(head[3]),))
        sizes.append(len(nodes))
        for column, part in zip(columns, values):
            column.extend(part)
    start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    for field, column, (ok, kind) in zip(_NODE_FIELDS, columns, _NODE_CHECKS):
        if not all(map(ok, column)):
            k = next(k for k, v in enumerate(column) if not ok(v))
            j = int(np.searchsorted(start, k, side="right")) - 1
            if j < len(heads):  # no fault in an earlier document
                fault = f"tree {heads[j][0]}: node {field} must be {kind}, got {column[k]!r}"
                del heads[j:], sizes[j:]
    end = sum(sizes)
    for column in columns:
        del column[end:]
    ids, user, sigma, t = (np.array(columns[0], dtype=np.int64), _column(columns[1]),
                           np.array(columns[2], dtype=float), _column(columns[3]))
    size = np.array(sizes, dtype=np.int64)
    tree_of = np.repeat(np.arange(size.size), size)
    local = np.arange(end) - start[tree_of]
    parent_ids = columns[4]
    root = np.fromiter((p is None for p in parent_ids), dtype=bool, count=end)
    parent = np.array([-1 if p is None else p for p in parent_ids], dtype=np.int64)
    parent[~root & ((parent < 0) | (parent >= size[tree_of]))] = _ORPHAN
    for k in np.unique(tree_of[ids != local]).tolist():  # ids other than 0..n-1: parents found by id
        a, b = start[k], start[k + 1]
        at = dict(zip(ids[a:b].tolist(), range(b - a)))
        parent[a:b] = [-1 if p is None else at.get(p, _ORPHAN) for p in parent_ids[a:b]]
    news_id, category, virtual, page_sign = [list(column) for column in zip(*heads)] or [[], [], [], []]
    forest = Forest(news_id, category, virtual, page_sign, start[:len(heads) + 1], ids, user, sigma, t, parent)
    for k in np.flatnonzero(_screen(forest, tree_of, local)).tolist():
        _validate(forest[k], parent_ids[start[k]:start[k + 1]])
    if fault:
        raise TreeSchemaError(fault)
    return forest


def _validate(tree: SharingTree, parent_ids: list) -> None:
    """Raise a typed error on a loaded tree's first structural fault; parent_ids are its nodes' parents as given."""
    name = f"tree {tree.news_id}"
    if tree.category not in CATEGORIES:
        raise TreeSchemaError(f"{name}: unknown category {tree.category!r}")
    if tree.page_sign not in (-1, 1):
        raise TreeSchemaError(f"{name}: virtual_root must be a boolean and page_sign -1 or 1")
    n = tree.id.size
    _, first = np.unique(tree.id, return_index=True)
    if first.size != n:
        raise TreeSchemaError(f"{name}: duplicate node id {tree.id[np.setdiff1d(np.arange(n), first)[0]]}")
    roots = int(np.count_nonzero(tree.parent == -1))
    if not tree.virtual_root and roots != 1:
        raise TreeSchemaError(f"{name}: real-rooted tree needs exactly one parentless node, found {roots}")
    bad = np.flatnonzero(~((tree.sigma >= -1.0) & (tree.sigma <= 1.0)) | (tree.parent == _ORPHAN))
    if bad.size:
        k = int(bad[0])
        if tree.parent[k] != _ORPHAN or not -1.0 <= tree.sigma[k] <= 1.0:
            raise SigmaRangeError(f"{name}: node {tree.id[k]} has sigma {tree.sigma[k]} outside [-1, 1]")
        raise OrphanParentError(f"{name}: node {tree.id[k]} references missing parent {parent_ids[k]}")
    if not np.all(tree.parent < np.arange(n)):  # parents before children rule out a cycle
        stuck = _climb(tree.parent, [])
        if stuck.size:
            k = int(stuck[0])
            for _ in range(n):  # n steps up from a node that never reaches a root end on its cycle
                k = int(tree.parent[k])
            raise TreeCycleError(f"{name}: cycle through node {tree.id[k]}")
    child = np.flatnonzero(tree.parent >= 0)
    late = np.flatnonzero(tree.t[child] < tree.t[tree.parent[child]])
    if late.size:
        k = child[late[0]]
        raise TimestampOrderError(f"{name}: node {tree.id[k]} shares at t={tree.t[k]} before its parent")
    if n:  # the lifetime, an int or a float, must be finite as a float
        times = tree.t.tolist()
        first, last = min(times), max(times)
        if last - first > sys.float_info.max:
            raise TreeSchemaError(f"{name}: share times from {first} to {last} span no finite lifetime")


def _screen(forest: Forest, tree_of: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Per tree, False when it keeps every rule of _validate with ids 0..n-1 and parents before children, else True.

    tree_of is each node's tree index and local its index within its tree.
    """
    count, parent, sigma = len(forest), forest.parent, forest.sigma
    # Exact below 2**53; trees with larger times, which alone can overflow a lifetime, are flagged.
    times = forest.t.astype(float)
    bad = (forest.id != local) | (parent >= local) | (parent == _ORPHAN) | ~((sigma >= -1.0) & (sigma <= 1.0))
    bad |= ~(np.abs(times) < 2.0**53)
    child = np.flatnonzero(parent >= 0)
    bad[child] |= times[child] < times[child - local[child] + parent[child]]
    flagged = np.bincount(tree_of[bad], minlength=count) > 0
    flagged |= ~np.array(forest.virtual_root, dtype=bool) & (np.bincount(tree_of[parent == -1], minlength=count) != 1)
    flagged[[k for k, (c, p) in enumerate(zip(forest.category, forest.page_sign))
             if c not in CATEGORIES or p not in (-1, 1)]] = True
    return flagged


def trees_to_json(trees) -> str:
    return json.dumps([tree_to_dict(tree) for tree in Forest.of(trees)])


def trees_from_json(text: str) -> Forest:
    try:
        docs = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TreeSchemaError(f"malformed JSON: {exc}") from exc
    return _trees_from_docs(docs)


def save_trees(trees, path) -> None:
    files.write_json(path, [tree_to_dict(tree) for tree in Forest.of(trees)])


def load_trees(path) -> Forest:
    return _trees_from_docs(files.read_json(path, TreeSchemaError, "malformed JSON"))


# --- metric export -----------------------------------------------------------

METRIC_COLUMNS = ("news_id", "category", "size", "height", "lifetime", "mean_homogeneity", "paths", "homo_paths")


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

