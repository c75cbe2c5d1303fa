"""Array-backed sharing trees: layout, the Forest, the one-pass metrics, and the tree-JSON boundary.

The property tests draw random trees from oracles.random_tree (virtual and
real roots, signed sigma) with shuffled node order and hold the forest
metrics to the naive oracles; they check that a Forest built from a tree
list holds the same trees and metric rows, with int and float times and
empty trees mixed; they check that tree files round-trip exactly and
that no document escapes the loader as an untyped error; and they check
that the loader's vectorized screen raises what validate() run on every
tree raises.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascadekit import trees
from cascadekit.diffusion import NewsItem, diffuse, run_batch
from cascadekit.errors import CascadekitError, TreeSchemaError, TreeValidationError
from cascadekit.graph import generate_small_world, label_edges
from cascadekit.harness import analyze
from cascadekit.trees import (
    Forest,
    SharingTree,
    metrics_rows,
    tree_from_dict,
    tree_to_dict,
    trees_from_json,
    trees_to_json,
)

from oracles import (
    naive_height,
    naive_lifetime,
    naive_mean_homogeneity,
    naive_path_counts,
    nodes_of,
    random_tree,
    tree_from_nodes,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def shuffled(tree, rng):
    nodes = nodes_of(tree)
    order = rng.permutation(len(nodes))
    return tree_from_nodes(tree.news_id, tree.category, [nodes[i] for i in order], tree.virtual_root, tree.page_sign)


def random_batch(seed, count, max_nodes=12):
    rng = np.random.default_rng(seed)
    categories = ("science", "conspiracy", "troll")
    batch = [random_tree(rng, max_nodes=max_nodes, category=categories[i % 3]) for i in range(count)]
    return [shuffled(t, rng) if rng.uniform() < 0.5 else t for t in batch]


def mixed_batch(seed, count):
    """random_batch with some trees emptied (under a virtual root) and some on integer times (t * 1000, floored)."""
    rng = np.random.default_rng([seed, 1])
    batch = []
    for tree in random_batch(seed, count):
        kind = rng.integers(3)
        nodes = [] if kind == 0 else [nd._replace(t=math.floor(nd.t * 1000))
                                      for nd in nodes_of(tree)] if kind == 1 else nodes_of(tree)
        batch.append(tree_from_nodes(tree.news_id, tree.category, nodes, tree.virtual_root or not nodes,
                                     tree.page_sign))
    return batch


def forest_fields(forest):
    """Every field of a forest, with the dtype of each node array, as a repr that tells 1 from 1.0."""
    columns = [(getattr(forest, f).dtype.str, getattr(forest, f).tolist()) for f in ("id", "user", "sigma", "t", "parent")]
    return repr((forest.news_id, forest.category, forest.virtual_root, forest.page_sign, forest.start.tolist(),
                 columns, forest.missing))


def a_doc(**node_changes):
    doc = {"news_id": 1, "category": "science", "root": {"virtual": True, "page_sign": -1},
           "nodes": [{"id": 0, "user": 5, "sigma": 0.5, "t": 0.0, "parent": None},
                     {"id": 1, "user": 6, "sigma": 0.25, "t": 2, "parent": 0}]}
    doc["nodes"][1].update(node_changes)
    return doc


# --- layout -------------------------------------------------------------------------

def test_kernel_trees_are_arrays_in_share_order():
    g = label_edges(generate_small_world(400, 6, 0.3, seed=3), 0.8, seed=4)
    news = [NewsItem(id=i, fitness=float(f), first_sharer_count=c)
            for i, (f, c) in enumerate(zip(np.linspace(0.05, 0.95, 12), [0, 1, 3, 400] * 3))]
    for outcome in run_batch(g, news, 0.2, seed=5):
        tree = outcome.tree
        n = tree.id.size
        assert tree.id.tolist() == list(range(n))
        assert np.all(tree.parent < np.arange(n))
        assert np.all(tree.t[tree.parent[tree.parent >= 0]] == tree.t[tree.parent >= 0] - 1)
        assert (tree.user.dtype, tree.t.dtype, tree.sigma.dtype) == (np.int64, np.int64, np.float64)
        for values in (tree.id, tree.user, tree.sigma, tree.t, tree.parent):
            assert not values.flags.writeable
        assert [nd.parent for nd in nodes_of(tree)] == [None if p < 0 else p for p in tree.parent.tolist()]
        tree.validate()
    forest = diffuse(g, news, 0.2, seed=5, build_trees=True)[1]
    assert isinstance(forest, Forest) and len(forest) == len(news)
    assert [tree_to_dict(tree) for tree in forest] == [tree_to_dict(o.tree) for o in run_batch(g, news, 0.2, seed=5)]
    with pytest.raises(IndexError):
        forest[len(news)]
    with pytest.raises(TypeError):
        forest[:1]  # a Forest takes an index, not a slice


def test_analyze_never_builds_node_records(monkeypatch):
    batch = random_batch(3, 40)
    expected = [metrics_rows([t])[0] for t in batch]

    def forbidden(self):
        raise AssertionError("analyze converted a tree's nodes to Python values")

    monkeypatch.setattr(SharingTree, "_columns", forbidden)
    assert analyze(batch, by_category=False).groups["all"].metric_rows == expected


# --- the tree-JSON boundary -----------------------------------------------------------

@pytest.mark.parametrize("change", [
    pytest.param({"t": "5"}, id="string-t"),
    pytest.param({"t": math.inf}, id="infinite-t"),
    pytest.param({"t": math.nan}, id="nan-t"),
    pytest.param({"t": True}, id="boolean-t"),
    pytest.param({"id": 1.7}, id="fractional-id"),
    pytest.param({"id": True}, id="boolean-id"),
    pytest.param({"parent": 0.5}, id="fractional-parent"),
    pytest.param({"parent": False}, id="boolean-parent"),
    pytest.param({"sigma": math.nan}, id="nan-sigma"),
    pytest.param({"sigma": -math.inf}, id="infinite-sigma"),
    pytest.param({"user": [1]}, id="list-user"),
])
def test_tree_json_rejects_ill_typed_node_fields(change):
    with pytest.raises(TreeSchemaError, match=f"node {next(iter(change))} must be"):
        trees_from_json(json.dumps([a_doc(**change)]))


def test_tree_json_takes_integral_float_ids():
    tree = tree_from_dict(a_doc(id=1.0, parent=0.0))
    assert tree_to_dict(tree)["nodes"][1]["id"] == 1
    assert tree_to_dict(tree)["nodes"][1]["parent"] == 0


def test_tree_json_keeps_a_user_beyond_int64_in_an_object_column():
    doc = a_doc(user=2**70)
    tree = tree_from_dict(doc)
    assert tree.user.dtype == object and tree.user.tolist() == [5, 2**70]
    assert trees_to_json(trees_from_json(json.dumps([doc]))) == json.dumps([doc])


def test_first_fault_in_document_order_raises():
    late = a_doc(t=-1.0)
    malformed = a_doc(sigma="high")
    with pytest.raises(TreeValidationError, match="before its parent"):
        trees_from_json(json.dumps([a_doc(), late, malformed]))
    with pytest.raises(TreeSchemaError, match="sigma must be"):
        trees_from_json(json.dumps([a_doc(), malformed, late]))


# --- properties -------------------------------------------------------------------

@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
def test_forest_metrics_equal_naive_oracles(seed, count):
    batch = random_batch(seed, count)
    for tree, row in zip(batch, metrics_rows(batch)):
        nodes = nodes_of(tree)
        assert row["size"] == len(nodes)
        assert row["height"] == naive_height(tree)
        assert (row["paths"], row["homo_paths"]) == naive_path_counts(tree)
        assert row["lifetime"] == (naive_lifetime(tree) if nodes else None)
        if any(nd.parent is not None for nd in nodes):
            assert row["mean_homogeneity"] == pytest.approx(naive_mean_homogeneity(tree), rel=1e-12, abs=1e-15)
        else:
            assert row["mean_homogeneity"] is None


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12), by_category=st.booleans())
def test_analyze_rows_equal_per_tree_metrics_row(seed, count, by_category):
    batch = random_batch(seed, count)
    result = analyze(batch, by_category=by_category)
    rows = [row for group in result.groups.values() for row in group.metric_rows]
    key = (lambda t: t.category) if by_category else (lambda t: "all")
    expected = [metrics_rows([t])[0] for name in result.groups for t in batch if key(t) == name]
    assert rows == expected


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12))
def test_forest_of_a_tree_list_holds_the_same_trees_and_rows(seed, count):
    batch = mixed_batch(seed, count)
    forest = Forest.of(batch)
    assert Forest.of(forest) is forest
    assert Forest.of(list(forest)) is forest or not batch  # a forest's own trees, in order, are that forest
    assert len(forest) == len(batch)
    backwards = Forest.of(list(forest)[::-1])
    assert [tree_to_dict(tree) for tree in backwards] == [tree_to_dict(tree) for tree in batch[::-1]]
    assert [tree_to_dict(tree) for tree in forest] == [tree_to_dict(tree) for tree in batch]
    assert [tree_to_dict(forest[i]) for i in range(-len(batch), 0)] == [tree_to_dict(tree) for tree in batch]
    rows = metrics_rows(forest)
    assert repr(rows) == repr([metrics_rows([tree])[0] for tree in batch])
    for tree, row in zip(batch, rows):
        if tree.t.dtype == np.int64 and tree.t.size:
            assert type(row["lifetime"]) is int
    loaded = trees_from_json(trees_to_json(batch))
    assert isinstance(loaded, Forest)
    assert forest_fields(loaded) == forest_fields(forest)
    assert repr(metrics_rows(loaded)) == repr(rows)


@st.composite
def tree_docs(draw):
    """A valid tree document with int or float times and int or str users.

    Nodes come in share order or shuffled, with ids 0..n-1 in file order or
    a permutation of -3..n-4.
    """
    virtual = draw(st.booleans())
    n = draw(st.integers(0 if virtual else 1, 8))
    order = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    ids = [order.index(i) for i in range(n)] if draw(st.booleans()) else draw(st.permutations(range(-3, n - 3)))
    nodes, times = [], []
    for i in range(n):
        parent = None if i == 0 or virtual and draw(st.booleans()) else draw(st.integers(0, i - 1))
        step = draw(st.one_of(st.integers(0, 10**6), st.floats(0, 1e6)))
        t = step if parent is None else times[parent] + step
        times.append(t)
        user = draw(st.one_of(st.integers(-2**40, 2**40), st.text(max_size=4)))
        sigma = draw(st.floats(-1.0, 1.0))
        nodes.append({"id": ids[i], "user": user, "sigma": sigma, "t": t,
                      "parent": None if parent is None else ids[parent]})
    return {"news_id": draw(st.one_of(st.integers(), st.text(max_size=3))),
            "category": draw(st.sampled_from(["science", "conspiracy", "troll", "synthetic"])),
            "root": {"virtual": virtual, "page_sign": draw(st.sampled_from([-1, 1]))},
            "nodes": [nodes[i] for i in order]}


@PROPERTY
@given(docs=st.lists(tree_docs(), max_size=3))
def test_tree_json_round_trips_exactly(docs):
    text = json.dumps(docs)
    batch = trees_from_json(text)
    assert trees_to_json(batch) == text
    assert trees_to_json(trees_from_json(trees_to_json(batch))) == text


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@PROPERTY
@given(doc=tree_docs(), data=st.data())
def test_mutated_documents_parse_or_raise_a_validation_error(doc, data):
    places = [(doc, key) for key in doc] + [(doc["root"], key) for key in doc["root"]]
    places += [(node, key) for node in doc["nodes"] for key in node]
    for _ in range(data.draw(st.integers(1, 3))):
        target, key = data.draw(st.sampled_from(places))
        if data.draw(st.booleans()):
            target[key] = data.draw(JSON_VALUES)
        else:
            target.pop(key, None)
    try:
        batch = trees_from_json(json.dumps([doc]))
    except TreeValidationError:
        return
    assert len(batch) == 1


@PROPERTY
@given(doc=tree_docs(), data=st.data())
def test_loader_matches_validate_on_restructured_documents(doc, data):
    """Valid field types, possibly broken structure: the batch loader agrees with validate() run on every tree."""
    nodes = doc["nodes"]
    ids = [nd["id"] for nd in nodes] + [99]
    values = {"id": st.sampled_from(ids), "parent": st.one_of(st.none(), st.sampled_from(ids)),
              "sigma": st.floats(-1.5, 1.5), "t": st.integers(-5, 5)}
    for _ in range(data.draw(st.integers(0, 3)) if nodes else 0):
        node = data.draw(st.sampled_from(nodes))
        field = data.draw(st.sampled_from(sorted(values)))
        node[field] = data.draw(values[field])

    def load(batch):
        try:
            return trees_from_json(json.dumps(batch))[0], None
        except CascadekitError as exc:
            return None, (type(exc), str(exc))

    tree, got = load([doc, a_doc()])
    with pytest.MonkeyPatch.context() as patch:  # the screen flags every tree, so validate() runs on each
        patch.setattr(trees, "_screen", lambda forest, tree_of, local: np.ones(len(forest), dtype=bool))
        reference, expected = load([doc, a_doc()])
    assert got == expected
    if expected is None:
        assert tree_to_dict(tree) == tree_to_dict(reference)
