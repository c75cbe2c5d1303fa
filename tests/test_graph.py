import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.branching import branching_ratio
from cascadekit.diffusion import diffuse, sample_news
from cascadekit.errors import ParameterError
from cascadekit.graph import (
    generate_small_world,
    graph_from_dict,
    graph_to_dict,
    label_edges,
    load_graph,
    repeats,
    save_graph,
)
from cascadekit.stats import FittedDistribution
from cascadekit.trees import metrics_rows

from oracles import adjacency_sets, graph_diameter, scalar_small_world


def test_edge_count_is_exact_at_paper_scale():
    g = generate_small_world(5000, 8, 0.01, seed=7)
    assert g.edge_count == 20000
    assert len({tuple(sorted(e)) for e in g.edges.tolist()}) == 20000
    assert not np.any(g.edges[:, 0] == g.edges[:, 1])


def test_unrewired_ring_is_the_cycle():
    g = generate_small_world(10, 2, 0.0, seed=0)
    assert g.edge_count == 10
    assert np.all(g.degrees() == 2)
    assert {tuple(sorted(e)) for e in g.edges.tolist()} == {(i, (i + 1) % 10) if i < 9 else (0, 9) for i in range(10)}


def test_full_rewiring_keeps_mean_degree_and_spreads_degrees():
    # Handshake gives mean degree z exactly for every seed; rewiring at r=1
    # must produce a non-degenerate degree distribution.
    variances = []
    for seed in range(100):
        g = generate_small_world(5000, 8, 1.0, seed=seed)
        deg = g.degrees()
        assert deg.sum() == 5000 * 8
        assert deg.mean() == 8.0
        variances.append(deg.var())
    assert min(variances) > 0.0


@pytest.mark.parametrize("n,z,r", [(100, 4, 0.0), (101, 6, 0.3), (64, 8, 1.0)])
def test_degree_sum_always_n_times_z(n, z, r):
    g = generate_small_world(n, z, r, seed=3)
    assert g.degrees().sum() == n * z
    assert g.edge_count == n * z // 2


@pytest.mark.parametrize("bad", [
    dict(n=10, z=3, r=0.1),      # odd degree
    dict(n=10, z=0, r=0.1),      # degree below 2
    dict(n=8, z=8, r=0.1),       # z not below n
    dict(n=10, z=2, r=-0.1),     # r below range
    dict(n=10, z=2, r=1.5),      # r above range
    dict(n=2**63, z=2, r=0.1),   # n beyond int64
    dict(n=10**20, z=2, r=0.1),
])
def test_generation_parameter_errors(bad):
    with pytest.raises(ParameterError):
        generate_small_world(bad["n"], bad["z"], bad["r"], seed=0)


def test_opinions_uniform_in_unit_interval():
    g = generate_small_world(2000, 4, 0.2, seed=11)
    assert np.all((g.opinions >= 0) & (g.opinions <= 1))
    assert 0.4 < g.opinions.mean() < 0.6
    assert np.all(g.homogeneous)  # signs unset means all homogeneous


def test_label_edges_hits_rounded_count_exactly():
    g = generate_small_world(5000, 8, 0.01, seed=1)
    assert label_edges(g, 1.0, seed=2).homogeneous.sum() == 20000
    assert label_edges(g, 0.5, seed=2).homogeneous.sum() == 10000
    assert label_edges(g, 0.56, seed=2).homogeneous.sum() == 11200
    assert label_edges(g, 0.0, seed=2).homogeneous.sum() == 0


@pytest.mark.parametrize("phi", [0.0, 0.137, 0.5, 0.561, 0.93, 1.0])
def test_label_fraction_matches_rounding_rule(phi):
    g = generate_small_world(300, 6, 0.4, seed=5)
    labeled = label_edges(g, phi, seed=9)
    assert labeled.homogeneous.sum() == round(phi * g.edge_count)
    assert labeled.homogeneous_fraction == round(phi * g.edge_count) / g.edge_count


def test_label_edges_same_seed_identical_and_nested():
    g = generate_small_world(400, 4, 0.2, seed=21)
    a = label_edges(g, 0.6, seed=77)
    b = label_edges(g, 0.6, seed=77)
    assert np.array_equal(a.homogeneous, b.homogeneous)
    # nested sets across phi under a shared seed
    small = label_edges(g, 0.3, seed=77)
    large = label_edges(g, 0.8, seed=77)
    assert np.all(large.homogeneous[small.homogeneous])


def test_label_edges_does_not_mutate_input():
    g = generate_small_world(50, 4, 0.0, seed=2)
    label_edges(g, 0.2, seed=3)
    assert g.homogeneous.all()


def test_label_edges_parameter_error():
    g = generate_small_world(50, 4, 0.0, seed=2)
    with pytest.raises(ParameterError):
        label_edges(g, 1.2, seed=0)


@pytest.mark.parametrize("n,z", [(10, 2), (20, 4), (48, 6), (100, 4), (96, 8)])
def test_ring_diameter_matches_closed_form_for_even_n(n, z):
    g = generate_small_world(n, z, 0.0, seed=0)
    assert graph_diameter(g) == math.ceil(n / z)


@st.composite
def small_world_cases(draw):
    """(n, z, r, seed): complete lattices (every rewiring skipped), near-complete ones
    (degree skips mid-run, many rejects) and sparse ones of a few hundred nodes,
    where many rewirings go through the vectorized windows."""
    z = draw(st.sampled_from([2, 4, 6, 8, 10]))
    n = draw(st.just(z + 1) | st.integers(z + 2, z + 6) | st.integers(z + 2, 60) | st.integers(16 * (z + 1), 500))
    r = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return n, z, r, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, database=None)
@given(small_world_cases())
def test_rewiring_replays_the_scalar_loop_exactly(case):
    n, z, r, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    g, expected = generate_small_world(n, z, r, rng), scalar_small_world(n, z, r, oracle_rng)
    assert np.array_equal(g.edges, expected.edges)
    assert np.array_equal(g.opinions, expected.opinions)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class HubGenerator(np.random.Generator):
    """Rewires only the lattice edges `chosen`, and draws `hub` as the first `hub_draws` targets."""

    def rig(self, edge_count, chosen, hub, hub_draws):
        self.edge_count, self.chosen, self.hub, self.hub_left = edge_count, chosen, hub, hub_draws
        return self

    def uniform(self, low=0.0, high=1.0, size=None):
        if size != self.edge_count:
            return super().uniform(low, high, size)
        values = np.ones(size)
        values[self.chosen] = 0.0
        return values

    def integers(self, high, size=None):
        values = super().integers(high, size=size)
        hub = min(self.hub_left, len(values))
        values[:hub] = self.hub
        self.hub_left -= hub
        return values


@pytest.mark.parametrize("drop_98, hub_tail", [(False, 102), (True, 98)])
def test_a_hub_adjacent_to_every_node_is_skipped_as_the_loop_skips_it(drop_98, hub_tail):
    # At ring distance 1 every node not yet adjacent to node 100 is rewired
    # to it, 195 rewirings in bulk. At distance 2, node 100 reaches its own
    # edge (edge 300) with degree n - 1 and is skipped without a draw, unless
    # the edge (98, 100) was rewired just before, when 98 is its one target.
    n, z, hub = 200, 4, 100
    near = range(98, 103)
    chosen = [x for x in range(n) if x not in near] + [n + x for x in range(90, 111) if drop_98 or x != 98]

    def rigged():
        return HubGenerator(np.random.PCG64(3)).rig(n * z // 2, chosen, hub, n - len(near))

    rng, oracle_rng = rigged(), rigged()
    g, expected = generate_small_world(n, z, 0.5, rng), scalar_small_world(n, z, 0.5, oracle_rng)
    assert expected.edges[n + hub].tolist() == [hub, hub_tail]
    assert np.array_equal(g.edges, expected.edges)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_same_seed_reproduces_graph_exactly():
    a = generate_small_world(500, 6, 0.5, seed=123)
    b = generate_small_world(500, 6, 0.5, seed=123)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.opinions, b.opinions)


def test_json_round_trip(tmp_path):
    g = label_edges(generate_small_world(120, 4, 0.3, seed=4), 0.7, seed=5)
    path = tmp_path / "graph.json"
    save_graph(g, path)
    back = load_graph(path)
    assert back.node_count == g.node_count
    assert back.ring_degree == g.ring_degree
    assert back.rewiring_probability == g.rewiring_probability
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.homogeneous, g.homogeneous)
    assert np.array_equal(back.opinions, g.opinions)


def test_graph_from_dict_rejects_bad_documents():
    g = generate_small_world(10, 2, 0.0, seed=1)
    doc = graph_to_dict(g)
    bad = dict(doc)
    bad["edges"] = doc["edges"] + [doc["edges"][0]]
    with pytest.raises(ParameterError):
        graph_from_dict(bad)
    bad = dict(doc)
    bad["edges"] = [{"u": 3, "v": 3, "homogeneous": True}]
    with pytest.raises(ParameterError):
        graph_from_dict(bad)
    bad = dict(doc)
    bad["nodes"] = doc["nodes"][:-1]
    with pytest.raises(ParameterError):
        graph_from_dict(bad)

    # Missing fields, wrong kinds and non-finite numbers raise ParameterError,
    # never a raw KeyError, TypeError or ValueError, and never pass silently.
    # A missing or mistyped field is named by its path in the document.
    missing = [("n",), ("z",), ("r",), ("nodes",), ("edges",), ("nodes", 2, "id"),
               ("nodes", 2, "opinion"), ("edges", 3, "u"), ("edges", 3, "homogeneous")]
    mistyped = [
        (("nodes", 4, "opinion"), float("nan")), (("nodes", 4, "opinion"), float("inf")),
        (("nodes", 4, "opinion"), "high"), (("nodes", 4, "opinion"), None),
        (("edges", 0, "u"), "a"), (("edges", 0, "v"), 2.5), (("edges", 1, "homogeneous"), "false"),
        (("nodes", 0, "id"), "zero"), (("nodes", 3), 7), (("edges",), None),
        (("n",), "ten"), (("z",), 2.0), (("r",), "often"), (("r",), float("nan")),
        # booleans and strings are not numbers
        (("z",), True), (("n",), True),
        (("r",), True), (("r",), "0.5"), (("nodes", 4, "opinion"), "0.5"), (("nodes", 4, "opinion"), True),
        (("nodes", 4, "id"), 4.0), (("edges", 0, "u"), False), (("nodes", 4, "opinion"), 10**400),
        (("edges", 2, "v"), 2**63),
    ]
    out_of_range = [
        # z must be an even integer in [2, n)
        (("z",), 3), (("z",), -2), (("z",), 0), (("z",), 10),
        # edge endpoints lie in [0, n)
        (("edges", 0, "u"), 10), (("edges", 0, "u"), -1),
        # opinions and r lie in [0, 1]
        (("nodes", 4, "opinion"), 1.5), (("nodes", 4, "opinion"), -0.25), (("r",), 1.5), (("r",), -0.1),
    ]
    delete = object()
    for path, value in [(p, delete) for p in missing] + mistyped + out_of_range:
        bad = json.loads(json.dumps(doc))
        target = bad
        for key in path[:-1]:
            target = target[key]
        if value is delete:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        with pytest.raises(ParameterError) as raised:
            graph_from_dict(bad)
        assert not re.search(BUILTIN_ERRORS, str(raised.value))
        name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path).lstrip(".")
        assert str(raised.value).startswith(f"graph document: {name} "), (path, str(raised.value))


@pytest.mark.parametrize("change,message", [
    pytest.param(lambda doc: doc["edges"][0].update(u=10), "edges[0].u must be in [0, 10), got 10", id="endpoint"),
    pytest.param(lambda doc: doc["edges"][2].update(v=-1), "edges[2].v must be in [0, 10), got -1", id="negative-v"),
    pytest.param(lambda doc: doc["edges"][2].update(v=2), "edges[2].v must differ from u, got 2", id="self-loop"),
    pytest.param(lambda doc: doc["edges"].append({"u": 1, "v": 0, "homogeneous": True}),
                 "edges[10] must not repeat an earlier edge, got [1, 0]", id="repeated-edge"),
    pytest.param(lambda doc: doc["nodes"][4].update(opinion=1.5), "nodes[4].opinion must be in [0, 1], got 1.5",
                 id="opinion"),
    pytest.param(lambda doc: doc["nodes"][3].update(id=10), "nodes[3].id must be in [0, 10), got 10", id="id"),
    pytest.param(lambda doc: doc["nodes"][3].update(id=2), "nodes[3].id must be unique, got 2", id="repeated-id"),
    pytest.param(lambda doc: doc["nodes"].pop(), "nodes must hold n = 10 nodes, got 9", id="node-count"),
    pytest.param(lambda doc: doc.update(z=3), "z must be even, >= 2 and below n = 10, got 3", id="odd-z"),
    pytest.param(lambda doc: doc.update(z=10), "z must be even, >= 2 and below n = 10, got 10", id="z-not-below-n"),
    pytest.param(lambda doc: doc.update(r=1.5), "r must be in [0, 1], got 1.5", id="r"),
    pytest.param(lambda doc: doc["edges"].pop(), "edges must hold n*z/2 = 10 edges, got 9", id="edge-dropped"),
    pytest.param(lambda doc: doc.update(n=2**70), "n must fit an int64, got 1180591620717411303424",
                 id="n-beyond-int64"),
    pytest.param(lambda doc: doc["edges"][2].update(v=-2**63 - 1),
                 "edges[2].v must fit an int64, got -9223372036854775809", id="v-beyond-int64"),
    pytest.param(lambda doc: doc.update(z=4), "edges must hold n*z/2 = 20 edges, got 10", id="z-raised"),
])
def test_a_graph_value_out_of_range_is_named_by_its_path(change, message):
    doc = graph_to_dict(generate_small_world(10, 2, 0.0, seed=1))
    change(doc)
    with pytest.raises(ParameterError, match=f"^{re.escape('graph document: ' + message)}$"):
        graph_from_dict(doc)


BUILTIN_ERRORS = r"\b(KeyError|TypeError|ValueError|OverflowError|IndexError)\b"


def test_a_graph_document_that_is_not_an_object_is_a_parameter_error():
    for doc in (None, [1, 2], "graph", 5):
        with pytest.raises(ParameterError, match="^graph document must be an object$"):
            graph_from_dict(doc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 12) | st.floats()
    | st.floats(0.0, 1.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_graph_document_loads_and_round_trips_or_is_a_parameter_error(data):
    g = label_edges(generate_small_world(8, 4, 0.5, seed=40), 0.5, seed=41)
    doc, n = json.loads(json.dumps(graph_to_dict(g))), g.node_count
    for _ in range(data.draw(st.integers(1, 3))):
        # Three kinds of mutation: any one change to the document's structure, or one that keeps
        # the edge count n*z/2 (an edge's endpoint moved, or z and the edge list changed together).
        how = data.draw(st.sampled_from(("structure", "endpoint", "degree")))
        edges = doc.get("edges")
        if how == "endpoint" and isinstance(edges, list) and edges:
            edge = data.draw(st.sampled_from(edges))
            if isinstance(edge, dict):
                edge[data.draw(st.sampled_from(("u", "v")))] = data.draw(st.integers(-1, n))
            continue
        if how == "degree" and isinstance(edges, list):
            z = data.draw(st.sampled_from((2, 6)))
            kept = data.draw(st.permutations(edges))[:n * z // 2]
            taken = [(d.get("u"), d.get("v")) for d in kept if isinstance(d, dict)]
            fresh = [e for e in itertools.combinations(range(n), 2) if e not in taken and e[::-1] not in taken]
            doc["z"] = z
            doc["edges"] = kept + [{"u": u, "v": v, "homogeneous": data.draw(st.booleans())}
                                   for u, v in fresh[:n * z // 2 - len(kept)]]
            continue
        lists = [doc[key] for key in ("nodes", "edges") if isinstance(doc.get(key), list)]
        target = data.draw(st.sampled_from([doc, *lists, *[d for part in lists for d in part]]))
        if isinstance(target, list):
            if target and data.draw(st.booleans()):
                target.pop(data.draw(st.integers(0, len(target) - 1)))
            else:
                target.append(data.draw(st.sampled_from(target) | JSON_VALUES if target else JSON_VALUES))
        elif isinstance(target, dict):
            keys = st.text(max_size=6)
            key = data.draw(st.sampled_from(sorted(target)) | keys if target else keys)
            if data.draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = data.draw(JSON_VALUES)
    try:
        loaded = graph_from_dict(doc)
    except ParameterError as exc:
        assert not re.search(BUILTIN_ERRORS, str(exc))
        return
    # What loads is the document: integers as integers, numbers as numbers
    # (neither a boolean nor a string), flags as booleans; z even in [2, n).
    out = graph_to_dict(loaded)
    assert 2 <= out["z"] < out["n"] and out["z"] % 2 == 0
    assert loaded.edge_count == loaded.node_count * loaded.ring_degree // 2
    pairs = [(doc[key], out[key], kind) for key, kind in (("n", int), ("z", int), ("r", float))]
    by_id = {d["id"]: d for d in doc["nodes"]}
    pairs += [(by_id[d["id"]][key], d[key], kind)
              for d in out["nodes"] for key, kind in (("id", int), ("opinion", float))]
    pairs += [(d[key], e[key], kind) for d, e in zip(doc["edges"], out["edges"])
              for key, kind in (("u", int), ("v", int), ("homogeneous", bool))]
    for value, loaded_value, kind in pairs:
        if kind is float:
            assert type(value) in (int, float) and value == loaded_value
        else:
            assert type(value) is kind and value == loaded_value
    again = graph_from_dict(json.loads(json.dumps(out)))
    assert (again.node_count, again.ring_degree, again.rewiring_probability) == (
        loaded.node_count, loaded.ring_degree, loaded.rewiring_probability)
    for name in ("opinions", "edges", "homogeneous"):
        assert np.array_equal(getattr(again, name), getattr(loaded, name))
        assert getattr(again, name).dtype == getattr(loaded, name).dtype
    # What loads also diffuses, and its trees have metric rows, without a numpy warning.
    n = loaded.node_count
    news = sample_news(4, FittedDistribution.uniform(0, n), seed=42, max_count=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for batch, forest in diffuse(loaded, news, (0.3, 1.0), seed=43, build_trees=True):
            rows = metrics_rows(forest)
            assert [row["size"] for row in rows] == batch.sizes.tolist()


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 8) | st.integers(-2**62, 2**62), max_size=60))
def test_repeats_mark_every_key_but_the_first_occurrence_of_each_value(values):
    keys = np.array(values, dtype=np.int64)
    repeat = np.ones(keys.size, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    assert repeats(keys).tolist() == repeat.tolist()


def test_graph_arrays_are_read_only_and_the_csr_is_built_once():
    g = label_edges(generate_small_world(60, 4, 0.5, seed=8), 0.5, seed=9)
    for values in (g.opinions, g.edges, g.homogeneous, *g.adjacency()):
        with pytest.raises(ValueError):
            values[0] = 0
    assert g.adjacency() is g.adjacency()
    with pytest.raises(AttributeError):
        g.homogeneous = np.ones(g.edge_count, dtype=bool)
    relabeled = label_edges(g, 1.0, seed=9)
    assert relabeled.adjacency()[1].size == 2 * g.edge_count


def test_adjacency_views_agree_with_edge_list():
    g = label_edges(generate_small_world(60, 4, 0.5, seed=8), 0.5, seed=9)
    indptr, indices = g.adjacency()
    expected = adjacency_sets(g.edges, g.homogeneous.tolist())
    for u in range(g.node_count):
        assert set(indices[indptr[u]:indptr[u + 1]].tolist()) == expected.get(u, set())


SIZE_SITES = {  # a size parameter's call, an in-range value, an out-of-range one and the latter's message
    "n": (lambda v: generate_small_world(v, 2, 0.1, seed=0), 10, 2, "need z < n < 2**63 (an int64), got n=2, z=2"),
    "z": (lambda v: generate_small_world(10, v, 0.1, seed=0), 2, 3, "ring degree must be even and >= 2, got 3"),
    "branching z": (lambda v: branching_ratio(v, 0.01), 8, 0, "neighborhood dimension must be positive, got 0"),
}


@pytest.mark.parametrize("site, value", [*itertools.product(("n",), (10.0, "10", None)),
                                         *itertools.product(("z",), (2.0, "2", None)),
                                         *itertools.product(("branching z",), ("8", True, 8.5))], ids=repr)
def test_a_node_count_or_ring_degree_that_is_not_an_integer_is_a_parameter_error(site, value):
    call, good, out_of_range, message = SIZE_SITES[site]
    with pytest.raises(ParameterError, match="must be (an integer|integers), got"):
        call(value)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(out_of_range)
    call(np.int32(good))  # a numpy integer passes
