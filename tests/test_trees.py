import json
import re

import numpy as np
import pytest

from cascadekit.errors import (
    OrphanParentError,
    SigmaRangeError,
    TimestampOrderError,
    TreeCycleError,
    TreeSchemaError,
    UndefinedMetricError,
)
from cascadekit.harness import analyze, write_analysis
from cascadekit.trees import (
    lifetime,
    mean_edge_homogeneity,
    metrics_rows,
    tree_from_dict,
    tree_height,
    tree_size,
    tree_to_dict,
    trees_from_json,
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


def path_counts(tree):
    """(root-to-leaf paths, fully homogeneous ones): the paths and homo_paths metrics of the tree."""
    row = metrics_rows([tree])[0]
    return row["paths"], row["homo_paths"]


def chain_tree(sigmas, virtual=True, page_sign=1, category="synthetic"):
    nodes = [(i, i, s, i, None if i == 0 else i - 1) for i, s in enumerate(sigmas)]
    return tree_from_nodes(0, category, nodes, virtual, page_sign)


# --- size / height / lifetime ---------------------------------------------------

def test_chain_under_virtual_root():
    t = chain_tree([1.0, 1.0, 1.0])
    assert tree_size(t) == 3
    assert tree_height(t) == 3


def test_empty_tree_size_and_height():
    t = tree_from_nodes(1, "synthetic", [], virtual_root=True)
    assert tree_size(t) == 0
    assert tree_height(t) == 0


def test_real_rooted_tree_depth_starts_at_zero():
    t = chain_tree([0.5, 0.5, 0.5], virtual=False)
    assert tree_size(t) == 3
    assert tree_height(t) == 2  # root itself sits at depth 0


def test_seeds_only_tree_has_height_one():
    t = tree_from_nodes(2, "synthetic", [(i, i, 1.0, 0, None) for i in range(4)])
    assert tree_height(t) == 1


def test_lifetime_examples():
    single = tree_from_nodes(3, "science", [(0, "u", 0.2, 7.5, None)], virtual_root=False, page_sign=-1)
    assert lifetime(single) == 0.0
    times = tree_from_nodes(4, "science", [
        (0, "a", 0.5, 3.0, None),
        (1, "b", 0.5, 4.5, 0),
        (2, "c", 0.5, 23.0, 1),
    ], virtual_root=True, page_sign=-1)
    assert lifetime(times) == 20.0
    rounds = chain_tree([1.0, 1.0, 1.0])
    assert lifetime(rounds) == 2


def test_lifetime_undefined_for_empty_tree():
    with pytest.raises(UndefinedMetricError):
        lifetime(tree_from_nodes(5, "synthetic", []))


# --- homogeneity -----------------------------------------------------------------

def test_mean_edge_homogeneity_all_aligned():
    assert mean_edge_homogeneity(chain_tree([1.0, 1.0, 1.0])) == 1.0


def test_mean_edge_homogeneity_balances_to_zero():
    # star: center sigma 1 with children +1 and -1 -> edge values {1, -1}
    t = tree_from_nodes(6, "synthetic", [
        (0, 0, 1.0, 0, None),
        (1, 1, 1.0, 1, 0),
        (2, 2, -1.0, 1, 0),
    ])
    assert mean_edge_homogeneity(t) == 0.0


def test_mean_edge_homogeneity_undefined_without_edges():
    with pytest.raises(UndefinedMetricError):
        mean_edge_homogeneity(tree_from_nodes(7, "synthetic", []))
    seeds_only = tree_from_nodes(8, "synthetic", [(0, 0, 1.0, 0, None), (1, 1, 1.0, 0, None)])
    with pytest.raises(UndefinedMetricError):
        mean_edge_homogeneity(seeds_only)


def test_mean_edge_homogeneity_invariant_under_node_order():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_tree(rng, max_nodes=12)
        nodes = nodes_of(t)
        if sum(nd.parent is not None for nd in nodes) == 0:
            continue
        value = mean_edge_homogeneity(t)
        shuffled = tree_from_nodes(t.news_id, t.category, [nodes[i] for i in rng.permutation(len(nodes))],
                                   t.virtual_root, t.page_sign)
        assert mean_edge_homogeneity(shuffled) == value


# --- paths -----------------------------------------------------------------------

def test_star_paths_all_homogeneous():
    nodes = [(0, 0, 1.0, 0, None)] + [(i, i, 1.0, 1, 0) for i in range(1, 6)]
    t = tree_from_nodes(9, "conspiracy", nodes, virtual_root=True, page_sign=1)
    assert path_counts(t) == (5, 5)
    nodes[3] = (3, 3, 0.0, 1, 0)  # a zero sigma product is not positive: that edge is discordant
    assert path_counts(tree_from_nodes(9, "conspiracy", nodes, virtual_root=True, page_sign=1)) == (5, 4)


def test_discordant_first_step_is_a_non_homogeneous_path():
    # page sign +1 against a chain of sigma=-1 sharers: only the first edge is discordant
    t = chain_tree([-1.0, -1.0, -1.0], virtual=True, page_sign=1)
    assert path_counts(t) == (1, 0)
    assert metrics_rows([t])[0]["height"] == 3


def test_single_real_root_counts_one_trivial_path():
    t = tree_from_nodes(10, "science", [(0, "r", -0.4, 0.0, None)], virtual_root=False, page_sign=-1)
    assert path_counts(t) == (1, 1)
    assert metrics_rows([t])[0]["height"] == 0


def test_path_counts_match_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        t = random_tree(rng, max_nodes=10)
        total, homogeneous = naive_path_counts(t)
        assert path_counts(t) == (total, homogeneous)
        checked += tree_size(t) > 0
    assert checked > 200


def test_homogeneous_paths_never_exceed_sharing_paths():
    rng = np.random.default_rng(23)
    for _ in range(200):
        t = random_tree(rng, max_nodes=12)
        paths, homogeneous = path_counts(t)
        assert homogeneous <= paths


def test_height_bounded_by_size_with_equality_on_chains():
    rng = np.random.default_rng(29)
    for _ in range(200):
        t = random_tree(rng, max_nodes=10)
        size, height = tree_size(t), tree_height(t)
        assert height <= size + (0 if t.virtual_root else 0)
        if t.virtual_root:
            assert height <= size
            nodes = nodes_of(t)
            is_chain = size > 0 and all(
                sum(1 for nd in nodes if nd.parent == pid) <= 1
                for pid in [None] + [nd.id for nd in nodes]
            )
            if height == size and size > 0:
                assert is_chain


def test_metrics_match_naive_oracles_on_random_trees():
    rng = np.random.default_rng(31)
    for _ in range(300):
        t = random_tree(rng, max_nodes=12)
        assert tree_height(t) == naive_height(t)
        nodes = nodes_of(t)
        if nodes:
            assert lifetime(t) == naive_lifetime(t)
        if any(nd.parent is not None for nd in nodes):
            assert mean_edge_homogeneity(t) == pytest.approx(naive_mean_homogeneity(t), rel=1e-12)


# --- validation and serialization ---------------------------------------------------

def test_round_trip_preserves_all_metrics():
    rng = np.random.default_rng(37)
    for _ in range(100):
        t = random_tree(rng, max_nodes=12)
        back = tree_from_dict(json.loads(json.dumps(tree_to_dict(t))))
        assert tree_size(back) == tree_size(t)
        assert tree_height(back) == tree_height(t)
        assert path_counts(back) == path_counts(t)
        nodes = nodes_of(t)
        if nodes:
            assert lifetime(back) == lifetime(t)
        if any(nd.parent is not None for nd in nodes):
            assert mean_edge_homogeneity(back) == mean_edge_homogeneity(t)


def test_validation_cycle_names_offending_node():
    with pytest.raises(TreeCycleError, match="node"):
        tree_from_nodes(11, "science", [
            (0, 0, 0.1, 0, 1),
            (1, 1, 0.1, 0, 0),
        ], virtual_root=True, page_sign=-1)


def test_validation_orphan_parent():
    with pytest.raises(OrphanParentError, match="99"):
        tree_from_nodes(12, "science", [(0, 0, 0.1, 0, 99)], page_sign=-1)
    # the orphan sits in the second tree of a batch, after its first node: the message still names its parent id
    docs = [{"news_id": k, "category": "science", "root": {"virtual": True, "page_sign": 1},
             "nodes": [{"id": i, "user": i, "sigma": 0.5, "t": 0, "parent": p} for i, p in enumerate(parents)]}
            for k, parents in ((1, [None, 0]), (2, [None, 0, 77]))]
    with pytest.raises(OrphanParentError, match="^tree 2: node 2 references missing parent 77$"):
        trees_from_json(json.dumps(docs))


def test_validation_sigma_range():
    with pytest.raises(SigmaRangeError):
        tree_from_nodes(13, "science", [(0, 0, 1.5, 0, None)], page_sign=-1)


def test_validation_timestamp_order():
    with pytest.raises(TimestampOrderError):
        tree_from_nodes(14, "science", [
            (0, 0, 0.1, 5.0, None),
            (1, 1, 0.1, 4.0, 0),
        ], virtual_root=True, page_sign=-1)


def test_validation_real_root_must_be_unique():
    with pytest.raises(TreeSchemaError):
        tree_from_nodes(15, "science", [
            (0, 0, 0.1, 0, None),
            (1, 1, 0.1, 0, None),
        ], virtual_root=False, page_sign=-1)


def test_validation_duplicate_ids_and_bad_category():
    with pytest.raises(TreeSchemaError):
        tree_from_nodes(16, "science", [
            (0, 0, 0.1, 0, None),
            (0, 1, 0.1, 0, None),
        ], page_sign=-1)
    with pytest.raises(TreeSchemaError):
        tree_from_nodes(17, "opinion", [])


@pytest.mark.parametrize("root, message", [
    pytest.param(root, message, id=repr(root)) for root, message in [
        (dict(page_sign=0), "virtual_root must be a boolean and page_sign -1 or 1"),
        (dict(page_sign=True), "root.virtual a boolean and root.page_sign an integer"),
        (dict(virtual_root=1), "root.virtual a boolean and root.page_sign an integer"),
    ]])
def test_validation_root_fields(root, message):
    with pytest.raises(TreeSchemaError, match=message):
        tree_from_nodes(18, "science", [], **root)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), True, 2**1100],
                         ids=["nan", "inf", "-inf", "bool", "2**1100"])
def test_validation_names_a_node_whose_time_is_not_a_finite_number(t):
    message = f"tree 1: nodes[1].t must be a finite number, got {t!r}"
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(message)}$"):
        tree_from_nodes(1, "science", [(0, 0, 0.5, 0.0, None), (7, 1, 0.5, t, 0)])


@pytest.mark.parametrize("user", [1.5, 2.0, True, None])
def test_validation_names_a_node_whose_user_is_neither_an_integer_nor_a_string(user):
    message = f"tree 1: nodes[1].user must be an integer or a string, got {user!r}"
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(message)}$"):
        tree_from_nodes(1, "science", [(0, 0, 0.5, 0.0, None), (7, user, 0.5, 1.0, 0)])


@pytest.mark.parametrize("node_id", [1.5, -0.5, float("nan"), float("inf"), 2**63, 1e19, "1"])
def test_a_record_id_that_is_not_an_integer_is_a_schema_error(node_id):
    must = "fit an int64" if node_id in (2**63, 1e19) else "be an integer"
    message = f"tree 1: nodes[0].id must {must}, got {node_id!r}"
    with pytest.raises(TreeSchemaError, match=f"^{re.escape(message)}$"):
        tree_from_nodes(1, "science", [(node_id, 0, 0.5, 0.0, None)])


def test_malformed_json_is_a_schema_error():
    with pytest.raises(TreeSchemaError, match="malformed JSON"):
        trees_from_json("{not json")
    with pytest.raises(TreeSchemaError):
        trees_from_json('{"news_id": 1}')  # an object, not an array
    with pytest.raises(TreeSchemaError):
        trees_from_json('[{"news_id": 1}]')  # missing fields


def test_json_nested_too_deep_to_parse_is_a_schema_error():
    with pytest.raises(TreeSchemaError, match="malformed JSON"):
        trees_from_json("[" * 200_000)


def test_metrics_csv_round_trips_at_full_precision(tmp_path):
    rng = np.random.default_rng(41)
    batch = [random_tree(rng, max_nodes=8) for _ in range(40)]
    path = write_analysis(analyze(batch, by_category=False), tmp_path)[0]
    import csv as csv_mod

    with open(path, newline="") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == len(batch)
    for tree, row in zip(batch, rows):
        expected = metrics_rows([tree])[0]
        assert int(row["size"]) == expected["size"]
        assert int(row["height"]) == expected["height"]
        for key in ("lifetime", "mean_homogeneity"):
            if expected[key] is None:
                assert row[key] == ""
            else:
                assert float(row[key]) == expected[key]
