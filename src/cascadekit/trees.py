"""Sharing-tree data model and per-cascade metrics.

A sharing tree records who reshared a news item from whom. Trees either
hang off a virtual page root (the publishing page, excluded from all node
counts) or are rooted at a real user. Metrics cover size, height, lifetime,
edge homogeneity, and root-to-leaf path classification.

A SharingTree is a struct of node arrays; TreeNode is the record type of
the boundary only. metrics_rows computes every metric of a tree list in one
vectorized pass over the concatenated arrays, which the per-tree metric
functions wrap.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    OrphanParentError,
    SigmaRangeError,
    TimestampOrderError,
    TreeCycleError,
    TreeSchemaError,
    UndefinedMetricError,
)

CATEGORIES = ("science", "conspiracy", "troll", "synthetic")

# Sign the publishing page contributes to the first edge of a path. Science
# pages sit at the negative end of the polarization axis (sigma measures
# conspiracy-likeness), troll content is parody conspiracy.
DEFAULT_PAGE_SIGNS = {"science": -1, "conspiracy": 1, "troll": 1, "synthetic": 1}

PATH_HOMOGENEOUS = "homogeneous"
PATH_K_MINUS_1 = "k_minus_1_homogeneous"
PATH_NON_HOMOGENEOUS = "non_homogeneous"

_NODE_FIELDS = ("id", "user", "sigma", "t", "parent")
_ORPHAN = -2  # parent index of a node whose parent id names no node of its tree


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One share event: tree-local id, sharing user, polarization, time, parent id."""

    id: int
    user: int | str
    sigma: float
    t: float
    parent: int | None


class SharingTree:
    """Oriented tree of successive shares of one news item.

    When virtual_root is True the (implicit) page node is the root: every
    node without a parent is a first sharer at depth 1. When False, exactly
    one node has no parent and is itself the root user at depth 0.

    Node k has id id[k], user user[k], polarization sigma[k], share time t[k]
    and parent node parent[k], an index into the same arrays (-1 for none).
    The arrays are read-only; user and t are int64 or float64 when all their
    values are ints or all floats, else object arrays, so values keep their
    type. The constructor takes TreeNode records, and tree.nodes builds them.
    """

    __slots__ = ("news_id", "category", "virtual_root", "page_sign", *_NODE_FIELDS, "_missing")

    def __init__(self, news_id, category: str, nodes=(), virtual_root: bool = True, page_sign: int = 1):
        nodes = list(nodes)
        ids, users, sigmas, times, parent_ids = ([getattr(nd, f) for nd in nodes] for f in _NODE_FIELDS)
        parent, missing = _parent_indexes(ids, parent_ids)
        self._set(news_id, category, virtual_root, page_sign, np.array(ids, dtype=np.int64), _column(users),
                  np.array(sigmas, dtype=float), _column(times), np.array(parent, dtype=np.int64))
        self._missing = missing

    @classmethod
    def from_arrays(cls, news_id, category: str, id, user, sigma, t, parent,
                    virtual_root: bool = True, page_sign: int = 1) -> SharingTree:
        """A tree over ready node arrays, unchecked; validate() checks it."""
        tree = cls.__new__(cls)
        tree._set(news_id, category, virtual_root, page_sign, id, user, sigma, t, parent)
        tree._missing = {}
        return tree

    def _set(self, news_id, category, virtual_root, page_sign, id, user, sigma, t, parent):
        self.news_id, self.category, self.virtual_root, self.page_sign = news_id, category, virtual_root, page_sign
        for values in (id, user, sigma, t, parent):
            values.flags.writeable = False
        self.id, self.user, self.sigma, self.t, self.parent = id, user, sigma, t, parent

    def _columns(self) -> tuple[list, ...]:
        """The node fields as lists of Python values, parents as ids."""
        ids = self.id.tolist()
        parents = [ids[p] if p >= 0 else None if p == -1 else self._missing[k]
                   for k, p in enumerate(self.parent.tolist())]
        return ids, self.user.tolist(), self.sigma.tolist(), self.t.tolist(), parents

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        """The nodes as TreeNode records in array order, built on each access."""
        return tuple(map(TreeNode, *self._columns()))

    def validate(self) -> None:
        """Check every structural invariant; raise a typed error on the first violation."""
        name = f"tree {self.news_id}"
        if self.category not in CATEGORIES:
            raise TreeSchemaError(f"{name}: unknown category {self.category!r}")
        if self.page_sign not in (-1, 1):
            raise TreeSchemaError(f"{name}: page_sign must be -1 or 1")
        n = self.id.size
        _, first = np.unique(self.id, return_index=True)
        if first.size != n:
            raise TreeSchemaError(f"{name}: duplicate node id {self.id[np.setdiff1d(np.arange(n), first)[0]]}")
        roots = int(np.count_nonzero(self.parent == -1))
        if not self.virtual_root and roots != 1:
            raise TreeSchemaError(f"{name}: real-rooted tree needs exactly one parentless node, found {roots}")
        bad = np.flatnonzero(~((self.sigma >= -1.0) & (self.sigma <= 1.0)) | (self.parent == _ORPHAN))
        if bad.size:
            k = int(bad[0])
            if self.parent[k] != _ORPHAN or not -1.0 <= self.sigma[k] <= 1.0:
                raise SigmaRangeError(f"{name}: node {self.id[k]} has sigma {self.sigma[k]} outside [-1, 1]")
            raise OrphanParentError(f"{name}: node {self.id[k]} references missing parent {self._missing[k]}")
        if not np.all(self.parent < np.arange(n)):  # parents before children rule out a cycle
            stuck = _climb(self.parent, [])
            if stuck.size:
                k = int(stuck[0])
                for _ in range(n):  # n steps up from a node that never reaches a root end on its cycle
                    k = int(self.parent[k])
                raise TreeCycleError(f"{name}: cycle through node {self.id[k]}")
        child = np.flatnonzero(self.parent >= 0)
        late = np.flatnonzero(self.t[child] < self.t[self.parent[child]])
        if late.size:
            k = child[late[0]]
            raise TimestampOrderError(f"{name}: node {self.id[k]} shares at t={self.t[k]} before its parent")


def _parent_indexes(ids: list, parent_ids: list) -> tuple[list, dict]:
    """Parent ids as indexes into ids (-1 for None), and each orphan's parent id by node index."""
    at = dict(zip(ids, range(len(ids))))
    index = [-1 if p is None else at.get(p, _ORPHAN) for p in parent_ids]
    return index, ({k: parent_ids[k] for k, p in enumerate(index) if p == _ORPHAN} if _ORPHAN in index else {})


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


class _Forest:
    """One vectorized pass over the concatenated node arrays of a tree list.

    Per node: its depth (edges from the root, the page edge included under a
    virtual root), whether it is a leaf, and the kind of the path ending at
    it (0 homogeneous, 1 k-1 homogeneous, 2 neither). An edge is discordant
    when its sign, the product of its endpoint polarizations (the page sign
    standing in for the page), is not positive; a path is homogeneous with no
    discordant edge, k-1 homogeneous when its first edge is the only one.
    """

    def __init__(self, trees: list[SharingTree]):
        self.trees = trees
        self.size = np.array([tr.id.size for tr in trees], dtype=np.int64)
        self.start = np.concatenate(([0], np.cumsum(self.size)))
        self.tree_of = np.repeat(np.arange(len(trees)), self.size)
        local = np.concatenate([tr.parent for tr in trees] or [np.zeros(0, dtype=np.int64)])
        root = local < 0
        self.parent = np.where(root, -1, local + self.start[self.tree_of])
        self.sigma = np.concatenate([tr.sigma for tr in trees] or [np.zeros(0)])
        virtual = np.array([tr.virtual_root for tr in trees], dtype=bool)[self.tree_of]
        page = np.array([tr.page_sign for tr in trees], dtype=float)[self.tree_of]
        up = np.where(root, 0, self.parent)
        edge = ~root | virtual
        bad = edge & ~(np.where(root, page, self.sigma[up]) * self.sigma > 0)
        first = np.where(root, virtual, ~virtual & root[up])
        width = np.int32 if local.size < 2**31 else np.int64  # path sums never exceed the node count
        self.depth, discordant, later = weights = [w.astype(width) for w in (edge, bad, bad & ~first)]
        _climb(self.parent, weights)
        self.leaf = np.ones(local.size, dtype=bool)
        self.leaf[self.parent[~root]] = False
        self.kind = np.where(discordant == 0, 0, np.where((discordant == 1) & (later == 0), 1, 2))

    def count(self, nodes: np.ndarray) -> np.ndarray:
        """Per tree, how many of the given nodes (a mask or indexes) it holds."""
        return np.bincount(self.tree_of[nodes], minlength=self.size.size)

    def heights(self) -> np.ndarray:
        out = np.zeros(self.size.size, dtype=np.int64)
        filled = self.size > 0
        if filled.any():
            out[filled] = np.maximum.reduceat(self.depth, self.start[:-1][filled])
        return out

    def lifetimes(self) -> list:
        """max(t) - min(t) per tree, None when empty; int64 and float64 times in one pass each."""
        out = [None] * self.size.size
        for dtype in (np.int64, np.float64):
            pick = [k for k, tr in enumerate(self.trees) if tr.t.dtype == dtype and tr.t.size]
            if pick:
                t = np.concatenate([self.trees[k].t for k in pick])
                at = np.concatenate(([0], np.cumsum(self.size[pick][:-1])))
                for k, span in zip(pick, (np.maximum.reduceat(t, at) - np.minimum.reduceat(t, at)).tolist()):
                    out[k] = span
        for k, tr in enumerate(self.trees):
            if tr.t.size and tr.t.dtype not in (np.int64, np.float64):
                out[k] = max(tr.t.tolist()) - min(tr.t.tolist())
        return out

    def mean_homogeneities(self) -> list:
        """Per tree, fsum of sigma_parent * sigma_child over its edges over their count; None without edges.

        fsum rounds the exact sum once, so the value does not depend on node order.
        """
        child = np.flatnonzero(self.parent >= 0)
        values = self.sigma[self.parent[child]] * self.sigma[child]
        ends = np.cumsum(self.count(child)).tolist()
        return [math.fsum(values[a:b].tolist()) / (b - a) if b > a else None for a, b in zip([0] + ends, ends)]


@dataclass(frozen=True)
class UserProfile:
    """Like counts per content class, from which polarization derives."""

    user_id: int | str
    likes_conspiracy: int
    likes_science: int

    @property
    def rho(self) -> float:
        total = self.likes_conspiracy + self.likes_science
        if total <= 0:
            raise UndefinedMetricError(f"user {self.user_id}: polarization undefined with zero likes")
        return self.likes_conspiracy / total


def user_polarization(profile: UserProfile) -> float:
    """Map the conspiracy-like fraction rho in [0, 1] onto sigma = 2*rho - 1."""
    return 2.0 * profile.rho - 1.0


def edge_homogeneity(sigma_i: float, sigma_j: float) -> float:
    """Product of the two endpoint polarizations; the edge is homogeneous iff > 0."""
    return sigma_i * sigma_j


def tree_size(tree: SharingTree) -> int:
    """Number of sharer nodes (the virtual page root never counts)."""
    return int(tree.id.size)


def tree_height(tree: SharingTree) -> int:
    """Maximum path length from the root; first sharers under a virtual root sit at depth 1."""
    return int(_Forest([tree]).heights()[0])


def lifetime(tree: SharingTree) -> float:
    """Time between the first and last share (hours for data, steps for simulation)."""
    [value] = _Forest([tree]).lifetimes()
    if value is None:
        raise UndefinedMetricError(f"tree {tree.news_id}: lifetime undefined for an empty tree")
    return value


def mean_edge_homogeneity(tree: SharingTree) -> float:
    """Mean sigma_i*sigma_j over sharer-to-sharer tree edges (virtual-root edges excluded)."""
    [value] = _Forest([tree]).mean_homogeneities()
    if value is None:
        raise UndefinedMetricError(f"tree {tree.news_id}: no edges between polarized nodes")
    return value


@dataclass(frozen=True)
class SharingPath:
    """Root-to-leaf path summary: length in edges plus homogeneity class."""

    leaf_id: int
    length: int
    kind: str


def path_length_profile(tree: SharingTree) -> list[SharingPath]:
    """Classify every root-to-leaf path, leaves in node order.

    Edge signs are endpoint sigma products; under a virtual root the first
    edge uses the page sign in place of a user polarization. A path is
    homogeneous when all its edge signs are positive and (k-1)-homogeneous
    when only the first edge is discordant.
    """
    forest = _Forest([tree])
    leaves = np.flatnonzero(forest.leaf)
    kinds = (PATH_HOMOGENEOUS, PATH_K_MINUS_1, PATH_NON_HOMOGENEOUS)
    return [
        SharingPath(leaf_id=i, length=d, kind=kinds[k])
        for i, d, k in zip(tree.id[leaves].tolist(), forest.depth[leaves].tolist(), forest.kind[leaves].tolist())
    ]


def sharing_paths(tree: SharingTree) -> int:
    """Number of root-to-leaf paths, i.e. the number of leaves."""
    return int(np.count_nonzero(_Forest([tree]).leaf))


def homogeneous_paths(tree: SharingTree) -> int:
    """Number of root-to-leaf paths whose edges are all homogeneous."""
    forest = _Forest([tree])
    return int(np.count_nonzero(forest.leaf & (forest.kind == 0)))


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


def _trees_from_docs(docs: list) -> list[SharingTree]:
    """Parse tree documents, emptying the list, and validate the trees; the first fault in document order raises.

    Node ids and parents must be integers (a float only when integral),
    users ints or strings, sigma and t finite numbers, nodes a list and
    root.virtual a boolean; a boolean is not a number. The nodes of all
    documents are checked and stored together, each tree viewing its slice.
    A vectorized screen passes the trees that are valid with ids 0..n-1 and
    every parent before its children; the others run validate(), which
    raises the exact error.
    """
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
    flagged = np.bincount(tree_of[ids != local], minlength=size.size) > 0
    for k in np.flatnonzero(flagged).tolist():  # ids other than 0..n-1: parents found by id
        parent[start[k]:start[k + 1]] = _parent_indexes(ids[start[k]:start[k + 1]].tolist(),
                                                        parent_ids[start[k]:start[k + 1]])[0]
    trees = [
        SharingTree.from_arrays(news_id, category, ids[a:b], user[a:b], sigma[a:b], t[a:b], parent[a:b],
                                virtual, page_sign)
        for (news_id, category, virtual, page_sign), a, b in zip(heads, start[:-1].tolist(), start[1:].tolist())
    ]
    for k in np.unique(tree_of[parent == _ORPHAN]).tolist():
        orphans = np.flatnonzero(trees[k].parent == _ORPHAN).tolist()
        trees[k]._missing = {i: parent_ids[start[k] + i] for i in orphans}
        flagged[k] = True

    flagged[[k for k, (_, category, virtual, page_sign) in enumerate(heads)
             if category not in CATEGORIES or page_sign not in (-1, 1)]] = True
    real = ~np.array([head[2] for head in heads], dtype=bool)
    flagged |= real & (np.bincount(tree_of[root], minlength=size.size) != 1)
    times = t.astype(float)  # exact below 2**53; trees with larger times are flagged
    bad = ~((sigma >= -1.0) & (sigma <= 1.0)) | (parent >= local) | ~(np.abs(times) < 2.0**53)
    child = np.flatnonzero(parent >= 0)
    bad[child] |= times[child] < times[child - local[child] + parent[child]]
    flagged[tree_of[bad]] = True
    for k in np.flatnonzero(flagged).tolist():
        trees[k].validate()
    if fault:
        raise TreeSchemaError(fault)
    return trees


def trees_to_json(trees: list[SharingTree]) -> str:
    return json.dumps([tree_to_dict(t) for t in trees])


def trees_from_json(text: str) -> list[SharingTree]:
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeSchemaError(f"malformed JSON: {exc}") from exc
    if not isinstance(docs, list):
        raise TreeSchemaError("tree batch must be a JSON array")
    return _trees_from_docs(docs)


def save_trees(trees: list[SharingTree], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trees_to_json(trees))


def load_trees(path) -> list[SharingTree]:
    with open(path, encoding="utf-8") as fh:
        return trees_from_json(fh.read())


# --- metric export -----------------------------------------------------------

METRIC_COLUMNS = (
    "news_id",
    "category",
    "size",
    "height",
    "lifetime",
    "mean_homogeneity",
    "paths",
    "homo_paths",
)


def metrics_rows(trees: list[SharingTree]) -> list[dict]:
    """metrics_row of every tree in the list, from one pass over all of them."""
    forest = _Forest(trees)
    columns = zip(forest.size.tolist(), forest.heights().tolist(), forest.lifetimes(), forest.mean_homogeneities(),
                  forest.count(forest.leaf).tolist(), forest.count(forest.leaf & (forest.kind == 0)).tolist())
    return [dict(zip(METRIC_COLUMNS, (tree.news_id, tree.category, *values))) for tree, values in zip(trees, columns)]


def metrics_row(tree: SharingTree) -> dict:
    """All per-tree metrics; undefined ones come back as None."""
    return metrics_rows([tree])[0]


def csv_cell(value):
    """Blank for None; repr for floats so they round-trip at full precision."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def write_metrics_csv(trees: list[SharingTree], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in metrics_rows(trees):
            writer.writerow([csv_cell(row[c]) for c in METRIC_COLUMNS])
