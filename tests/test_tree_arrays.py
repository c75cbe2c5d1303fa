"""Array-backed sharing trees: layout, the Forest, the one-pass metrics, and the tree-JSON boundary.

The property tests draw random trees from oracles.random_tree (virtual and
real roots, signed sigma) with shuffled node order and hold the forest
metrics to the naive oracles; they check that a Forest built from a tree
list holds the same trees and metric rows, with int and float times and
empty trees mixed; they check that tree files round-trip exactly, that
no document escapes the loader as an untyped error and that what loads
goes through analyze, write_analysis and trees_to_json without a numpy
warning; and they check that the loader raises, on batches of documents
with shifted ids and broken structure, shapes or fields, the first fault
in document order that the plain-Python reference oracles.tree_fault
finds. Trees whose integer times are their node levels take the level
walk, unless they are deep for their size, as a chain is; the same trees
with other times take pointer doubling; both give the naive oracles'
metrics. A valid load of the benchmark's dataset
documents, or of a troll-scale graph document, runs no per-value test:
each column passes its one type test.
"""

import json
import math
import pickle
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascadekit import files, trees
from cascadekit.diffusion import NewsItem, diffuse, run_batch
from cascadekit.errors import TreeSchemaError, TreeValidationError
from cascadekit.graph import generate_small_world, graph_from_dict, graph_to_dict, label_edges
from cascadekit.harness import analyze, write_analysis
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
    STRUCTURE,
    naive_height,
    naive_lifetime,
    naive_mean_homogeneity,
    naive_path_counts,
    nodes_of,
    random_tree,
    tree_fault,
    tree_from_nodes,
)
from test_benchmark_workloads import load_workloads

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
                 columns))


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
    [(_, forest)] = diffuse(g, news, (0.2,), seed=5, build_trees=True)
    assert trees_to_json(trees_from_json(trees_to_json(forest))) == trees_to_json(forest)
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

@pytest.mark.parametrize("change,message", [
    pytest.param({"t": "5"}, "t must be a finite number, got '5'", id="string-t"),
    pytest.param({"t": math.inf}, "t must be a finite number, got inf", id="infinite-t"),
    pytest.param({"t": math.nan}, "t must be a finite number, got nan", id="nan-t"),
    pytest.param({"t": True}, "t must be a finite number, got True", id="boolean-t"),
    pytest.param({"id": 1.7}, "id must be an integer, got 1.7", id="fractional-id"),
    pytest.param({"id": True}, "id must be an integer, got True", id="boolean-id"),
    pytest.param({"parent": 0.5}, "parent must be an integer or null, got 0.5", id="fractional-parent"),
    pytest.param({"parent": False}, "parent must be an integer or null, got False", id="boolean-parent"),
    pytest.param({"sigma": math.nan}, "sigma must be a finite number, got nan", id="nan-sigma"),
    pytest.param({"sigma": -math.inf}, "sigma must be a finite number, got -inf", id="infinite-sigma"),
    pytest.param({"user": [1]}, "user must be an integer or a string, got [1]", id="list-user"),
])
def test_tree_json_rejects_ill_typed_node_fields(change, message):
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(f'tree 1: nodes[1].{message}')}$"):
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
    message = "tree 1: nodes[1].sigma must be a finite number, got 'high'"
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(message)}$"):
        trees_from_json(json.dumps([a_doc(), malformed, late]))


def spanning(first, last):
    """a_doc with its two nodes, parent and child, shared at times first and last."""
    doc = a_doc(t=last)
    doc["nodes"][0]["t"] = first
    return doc


@pytest.mark.parametrize("first,last", [
    (-1e308, 1e308), (-10**308, 10**308), (-10**308, 1e308),
], ids=["float", "big int", "int and float"])
def test_a_tree_whose_times_span_no_finite_lifetime_is_a_schema_error(first, last):
    message = "tree 1: share times from .* span no finite lifetime"
    with pytest.raises(TreeSchemaError, match=message):
        tree_from_dict(spanning(first, last))
    with pytest.raises(TreeSchemaError, match=message):
        trees_from_json(json.dumps([a_doc(), spanning(first, last)]))


@pytest.mark.parametrize("first,last", [
    (0.0, 1e308), (-2**63, 2**63 - 1), (-5 * 10**18, 5 * 10**18), (0, 10**308), (0, 1e308),
], ids=["float", "int64 extremes", "int64 span past 2**63", "big int", "int and float"])
def test_a_tree_whose_times_span_a_finite_lifetime_loads(first, last):
    # Alone the tree's times may be an int64 column, beside a tree of float times an object column.
    for batch in ([spanning(first, last)], [spanning(first, last), a_doc()]):
        row = metrics_rows(trees_from_json(json.dumps(batch)))[0]
        assert row["lifetime"] == last - first and math.isfinite(row["lifetime"])


@pytest.mark.parametrize("forest", [
    diffuse(label_edges(generate_small_world(200, 6, 0.3, seed=3), 0.8, seed=4),
            [NewsItem(id=i, fitness=0.1 * i, first_sharer_count=i) for i in range(6)], (0.2,), seed=5,
            build_trees=True)[0][1],
    trees_from_json(json.dumps([a_doc(), a_doc(user="x", t=2.5), a_doc(user=2**70)])),
], ids=["kernel", "loaded"])
def test_a_pickled_forest_keeps_its_trees(forest):
    back = pickle.loads(pickle.dumps(forest))
    assert forest_fields(back) == forest_fields(forest)
    assert trees_to_json(back) == trees_to_json(forest)


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


def level_docs(seed, count):
    """Tree documents whose integer t is each node's level (0 at a root), with random sigma and page sign,
    under virtual and real roots, nodes in shuffled order."""
    rng = np.random.default_rng(seed)
    docs = []
    for k in range(count):
        virtual = bool(rng.integers(2))
        parents, levels = [], []
        for i in range(int(rng.integers(0 if virtual else 1, 12))):
            parent = -1 if i == 0 or (virtual and rng.uniform() < 0.3) else int(rng.integers(i))
            parents.append(parent)
            levels.append(0 if parent < 0 else levels[parent] + 1)
        nodes = [{"id": i, "user": 100 + i, "sigma": float(np.round(rng.uniform(-1, 1), 2)), "t": levels[i],
                  "parent": None if parents[i] < 0 else parents[i]} for i in rng.permutation(len(parents)).tolist()]
        docs.append({"news_id": k, "category": "science", "nodes": nodes,
                     "root": {"virtual": virtual, "page_sign": int(rng.choice((-1, 1)))}})
    return docs


def rows_and_climbs(docs):
    """metrics_rows of the loaded documents, and whether _walk took _climb's pointer doubling."""
    forest = trees_from_json(json.dumps(docs))
    with mock.patch.object(trees, "_climb", wraps=trees._climb) as climb:
        rows = metrics_rows(forest)
    return forest, rows, climb.called


def retimed(docs, change, only=None):
    """docs with t changed to change(t), in tree only or in every tree."""
    return [{**doc, "nodes": [{**node, "t": change(node["t"])} for node in doc["nodes"]]} if only in (None, k) else doc
            for k, doc in enumerate(docs)]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
def test_level_walk_metrics_equal_naive_oracles_and_the_pointer_doubling_walk(seed, count):
    # Integer times that are the levels take the level walk; shifted by one (in every tree or in one) or doubled,
    # they take _climb. Both walks give the oracles' heights, path counts and homogeneity; lifetimes move with t.
    docs = level_docs(seed, count)
    forest, rows, climbed = rows_and_climbs(docs)
    assert forest.t.dtype == np.int64 and not climbed
    for tree, row in zip(forest, rows):
        assert row["height"] == naive_height(tree)
        assert (row["paths"], row["homo_paths"]) == naive_path_counts(tree)
        if (tree.parent >= 0).any():
            assert row["mean_homogeneity"] == pytest.approx(naive_mean_homogeneity(tree), rel=1e-12, abs=1e-15)
    filled = [k for k, doc in enumerate(docs) if doc["nodes"]]
    branched = any(node["parent"] is not None for doc in docs for node in doc["nodes"])
    for other, scale, takes_climb in ((retimed(docs, lambda t: t + 1), 1, bool(filled)),
                                      (retimed(docs, lambda t: t + 1, only=filled[0] if filled else None), 1,
                                       bool(filled)),
                                      (retimed(docs, lambda t: 2 * t), 2, branched)):
        _, other_rows, climbed = rows_and_climbs(other)
        assert climbed == takes_climb
        assert other_rows == [{**row, "lifetime": None if row["lifetime"] is None else scale * row["lifetime"]}
                              for row in rows]


@pytest.mark.parametrize("virtual", [True, False])
def test_a_chain_takes_pointer_doubling_and_its_rows_equal_the_naive_oracles(virtual):
    # Its integer times are its levels, but 300 levels over 300 nodes would cost the level walk a step per node.
    rng = np.random.default_rng(11)
    nodes = [{"id": i, "user": i, "sigma": float(np.round(rng.uniform(-1, 1), 2)), "t": i,
              "parent": i - 1 if i else None} for i in range(300)]
    forest, [row], climbed = rows_and_climbs([{"news_id": 0, "category": "science", "nodes": nodes,
                                               "root": {"virtual": virtual, "page_sign": -1}}])
    assert forest.t.dtype == np.int64 and climbed
    [tree] = forest
    assert row["height"] == naive_height(tree) == 300 - (not virtual)
    assert (row["paths"], row["homo_paths"]) == naive_path_counts(tree)
    assert row["mean_homogeneity"] == pytest.approx(naive_mean_homogeneity(tree), rel=1e-12, abs=1e-15)


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
    # What loads can be used: analyzed, written and saved again, with no numpy warning.
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out:
        warnings.simplefilter("error", RuntimeWarning)
        write_analysis(analyze(batch), out)
        trees_to_json(batch)


NOT_OBJECTS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
                        st.lists(st.integers(0, 3), max_size=2))
NOT_LISTS = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=2),
                      st.dictionaries(st.sampled_from(["id", "t"]), st.integers(0, 3), max_size=1))
COLUMN_FAULTS = {  # per node field: values of a type or size the field does not take
    "id": st.sampled_from([1.5, "7", True, None, 2**63]),
    "user": st.sampled_from([True, 1.5, None, [1]]),
    "sigma": st.sampled_from(["high", None, True, math.nan, math.inf, 10**400]),
    "t": st.sampled_from(["5", None, False, -math.inf, -10**400]),
    "parent": st.sampled_from([0.5, "0", False, -2**63 - 1]),
}
HUGE_TIMES = st.sampled_from([1e308, -1e308, 10**308, -10**308, 2**63, 2**70, 2**70 + 1])
SPANS = st.sampled_from([(-1e308, 1e308), (-10**308, 10**308), (-10**308, 1e308), (0, 1e308), (-2**63, 2**63 - 1)])


@st.composite
def restructured_batches(draw):
    """One to three tree_docs documents, ids shifted, then broken.

    Node ids, parents, sigma and t take other values (a repeated id, an
    integral float id, a missing parent id, a cycle, sigma out of range, a
    late share); roots take the low and other nodes the high end of a span
    of times that may have no finite lifetime; category, page_sign and the
    virtual flag take bad values; and now and then any JSON value replaces
    a field, or the field goes. Half the batches of two or more documents
    then hold a fault of the document's shape or structure, or a missing
    field, in one document and a node value of the wrong type or size in a
    later one, which the loader must not report.
    """
    docs = draw(st.lists(tree_docs(), min_size=1, max_size=3))
    for doc in docs:
        shift, nodes = draw(st.sampled_from([0, 1000, -7, 2**40])), doc["nodes"]
        for node in nodes:
            node["id"] += shift
            node["parent"] = None if node["parent"] is None else node["parent"] + shift
        ids = [node["id"] for node in nodes] + [99, float(nodes[0]["id"]) if nodes else 0.0, 2**63, -1e19]
        values = {"id": st.sampled_from(ids), "parent": st.one_of(st.none(), st.sampled_from(ids)),
                  "sigma": st.one_of(st.floats(-1.5, 1.5), st.integers(-2, 2)),
                  "t": st.one_of(st.integers(-5, 5), st.floats(-5, 5), HUGE_TIMES)}
        for _ in range(draw(st.integers(0, 3)) if nodes else 0):
            node = draw(st.sampled_from(nodes))
            field = draw(st.sampled_from(sorted(values)))
            node[field] = draw(values[field])
        if nodes and draw(st.integers(0, 5)) == 0:
            low, high = draw(SPANS)
            for node in nodes:
                if node["parent"] is None or draw(st.booleans()):
                    node["t"] = low if node["parent"] is None else high
        if draw(st.integers(0, 9)) == 0:
            doc["category"] = draw(st.sampled_from(["politics", "Science"]))
        if draw(st.integers(0, 9)) == 0:
            doc["root"]["page_sign"] = draw(st.sampled_from([0, 2, -1.0, 1.5, True]))
        if draw(st.integers(0, 9)) == 0:
            doc["root"]["virtual"] = draw(st.sampled_from([False, 1, None]))
        if draw(st.integers(0, 9)) == 0:
            places = [(doc, key) for key in doc] + [(doc["root"], key) for key in doc["root"]]
            target, key = draw(st.sampled_from(places + [(node, key) for node in nodes for key in node]))
            if draw(st.booleans()):
                target[key] = draw(JSON_VALUES)
            else:
                del target[key]
    if len(docs) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(docs) - 2))
        later = [node for doc in docs[i + 1:] if isinstance(doc.get("nodes"), list)
                 for node in doc["nodes"] if isinstance(node, dict)]
        if later:
            field = draw(st.sampled_from(sorted(COLUMN_FAULTS)))
            draw(st.sampled_from(later))[field] = draw(COLUMN_FAULTS[field])
        doc = docs[i]
        root = doc["root"] if isinstance(doc.get("root"), dict) else {}
        nodes = doc["nodes"] if isinstance(doc.get("nodes"), list) else []
        fault = draw(st.sampled_from(["document", "root", "nodes", "node", "missing", "virtual"]))
        if fault == "document":
            docs[i] = draw(NOT_OBJECTS)
        elif fault in ("root", "nodes"):
            doc[fault] = draw(NOT_OBJECTS if fault == "root" else NOT_LISTS)
        elif fault == "node" and nodes:
            nodes[draw(st.integers(0, len(nodes) - 1))] = draw(NOT_OBJECTS)
        elif fault == "missing":
            places = [(doc, key) for key in doc] + [(root, key) for key in root]
            target, key = draw(st.sampled_from(places + [(node, key) for node in nodes if isinstance(node, dict)
                                                         for key in node]))
            del target[key]
        else:
            root["virtual"] = draw(st.sampled_from([1, None, "true"]))
    return docs


def as_loaded(doc):
    """A valid tree document as the loader keeps it: ids, parents and page_sign as ints, sigma as a float."""
    nodes = [dict(node, id=int(node["id"]), sigma=float(node["sigma"]),
                  parent=None if node["parent"] is None else int(node["parent"])) for node in doc["nodes"]]
    return dict(doc, root=dict(doc["root"], page_sign=int(doc["root"]["page_sign"])), nodes=nodes)


@PROPERTY
@given(batch=restructured_batches())
def test_loader_raises_the_first_fault_of_the_plain_python_oracle(batch):
    """A batch raises the first fault in document order that oracles.tree_fault finds, or loads as given."""
    text = json.dumps(batch)
    expected = next(filter(None, (tree_fault(doc, j) for j, doc in enumerate(json.loads(text)))), None)
    try:
        forest = trees_from_json(text)
    except TreeValidationError as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None
        assert json.loads(trees_to_json(forest)) == [as_loaded(doc) for doc in json.loads(text)]


def test_a_valid_load_makes_no_per_tree_pass(monkeypatch):
    """Ids other than 0..n-1 and parents after their children still load with no view of one tree built."""
    expected = trees_from_json(trees_to_json(random_batch(7, 30)))
    docs = json.loads(trees_to_json(expected))
    for node in (node for doc in docs for node in doc["nodes"]):
        node["id"] += 1000
        node["parent"] = None if node["parent"] is None else node["parent"] + 1000

    def forbidden(self, forest, k):
        raise AssertionError("the loader built a view of one tree")

    monkeypatch.setattr(SharingTree, "__init__", forbidden)
    forest = trees_from_json(json.dumps(docs))
    assert forest.id.tolist() == (expected.id + 1000).tolist()
    assert forest.parent.tolist() == expected.parent.tolist()
    local = np.arange(forest.parent.size) - np.repeat(forest.start[:-1], np.diff(forest.start))
    assert np.any(forest.parent >= local)  # a shuffled tree has a parent after its child, so the cycle test ran


@pytest.mark.parametrize("fault", [None, "duplicate", "orphan", "cycle"])
def test_ids_whose_range_times_the_tree_count_passes_an_int64_are_keyed_by_rank(fault):
    """Ids at both ends of int64 span 2**64 values, so the parent lookup keys them by rank, not by offset."""
    low, high = -2**63, 2**63 - 1
    doc = {"news_id": 1, "category": "science", "root": {"virtual": False, "page_sign": -1},
           "nodes": [{"id": high, "user": 5, "sigma": 0.5, "t": 0.0, "parent": None},
                     {"id": low, "user": 6, "sigma": 0.25, "t": 1.0, "parent": high},
                     {"id": 7, "user": 7, "sigma": -0.5, "t": 2.0, "parent": low}]}
    nodes = doc["nodes"]
    if fault == "duplicate":
        nodes[2]["id"] = low
    elif fault == "orphan":
        nodes[2]["parent"] = low + 1
    elif fault == "cycle":
        nodes.append({"id": 8, "user": 8, "sigma": 0.0, "t": 3.0, "parent": 9})
        nodes.append({"id": 9, "user": 9, "sigma": 0.0, "t": 4.0, "parent": 8})
    batch = [a_doc(), doc]
    text = json.dumps(batch)
    expected = next(filter(None, (tree_fault(d, j) for j, d in enumerate(json.loads(text)))), None)
    assert (expected is None) == (fault is None)
    if fault is None:
        forest = trees_from_json(text)
        assert forest.parent.tolist() == [-1, 0, -1, 0, 1]
        assert json.loads(trees_to_json(forest)) == batch
    else:
        with pytest.raises(TreeValidationError) as raised:
            trees_from_json(text)
        assert (type(raised.value), str(raised.value)) == expected


@pytest.mark.parametrize("path,where", [
    pytest.param(("news_id",), "tree at batch index 1: news_id", id="news_id"),
    pytest.param(("category",), "tree 1: category", id="category"),
    pytest.param(("root",), "tree 1: root", id="root"),
    pytest.param(("nodes",), "tree 1: nodes", id="nodes"),
    pytest.param(("root", "virtual"), "tree 1: root.virtual", id="root.virtual"),
    pytest.param(("root", "page_sign"), "tree 1: root.page_sign", id="root.page_sign"),
    *[pytest.param(("nodes", 1, field), f"tree 1: nodes[1].{field}", id=f"node.{field}")
      for field in ("id", "user", "sigma", "t", "parent")],
])
def test_a_missing_field_is_named_with_its_tree(path, where):
    """The second document of a batch lacks a field: the message names its tree, or its batch index, and the field."""
    doc = a_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(where)} is missing$"):
        trees_from_json(json.dumps([a_doc(), doc]))


@pytest.mark.parametrize("change,where", [
    pytest.param(lambda batch: batch.__setitem__(1, None), "tree at batch index 1: document must be an object",
                 id="document"),
    pytest.param(lambda batch: batch[1].__setitem__("root", [True, 1]), "tree 1: root must be an object", id="root"),
    pytest.param(lambda batch: batch[1].__setitem__("nodes", None), f"tree 1: {STRUCTURE}", id="null-nodes"),
    pytest.param(lambda batch: batch[1].__setitem__("nodes", {"id": 0}), f"tree 1: {STRUCTURE}", id="object-nodes"),
    pytest.param(lambda batch: batch[1]["nodes"].__setitem__(1, 7), "tree 1: nodes[1] must be an object", id="node"),
    pytest.param(lambda batch: batch[1]["nodes"].insert(0, "x"), "tree 1: nodes[0] must be an object",
                 id="node-before-a-type-fault"),
])
def test_a_tree_document_of_the_wrong_shape_names_its_tree_and_place(change, where):
    """The second document of a batch is not an object or holds a value of the wrong shape; a later one a bad type."""
    batch = [a_doc(), a_doc(sigma="high"), a_doc(t="late")]
    change(batch)
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(where)}$"):
        trees_from_json(json.dumps(batch))
    assert tree_fault(json.loads(json.dumps(batch))[1], 1) == (TreeSchemaError, where)


def test_a_valid_load_tests_each_node_column_once_with_no_per_value_predicate(monkeypatch):
    """Valid files of either kind load through the column tests alone: no value meets a kind's test of one value.

    The benchmark's dataset documents and a troll-scale graph document
    load with every kind's one-value test patched to fail. root.page_sign
    is tested once per document, so the id kind's test may run once per
    tree, never once per node.
    """
    docs, _ = load_workloads().make_dataset(np.random.default_rng(5), 1 / 30)
    text = json.dumps(docs)
    expected = forest_fields(trees_from_json(text))
    g = label_edges(generate_small_world(16889, 8, 0.01, seed=6), 0.56, seed=7)
    graph_text = json.dumps(graph_to_dict(g))

    def forbidden(v):
        raise AssertionError("the loader tested a value on its own")

    is_id, tested = files.KINDS["id"].ok, []
    for name, kind in files.KINDS.items():
        monkeypatch.setitem(files.KINDS, name, kind._replace(ok=forbidden))
    monkeypatch.setitem(files.KINDS, "id", files.KINDS["id"]._replace(ok=lambda v: tested.append(v) or is_id(v)))
    assert forest_fields(trees_from_json(text)) == expected
    assert tested == [doc["root"]["page_sign"] for doc in docs]
    assert sum(len(doc["nodes"]) for doc in docs) > 1000
    loaded = graph_from_dict(json.loads(graph_text))
    assert json.dumps(graph_to_dict(loaded)) == graph_text
