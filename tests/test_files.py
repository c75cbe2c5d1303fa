"""The file layer: the CSV writer's row getter, the JSON record-fault finder and column reader, and nogc.

The column reader also reads the values of Python callers: a property
holds news batches and distribution parameters built from Python and
numpy numbers, bools, strings, None, NaN, infinities, out-of-range ints
and Fractions to the plain-Python rules in oracles.
"""

import contextlib
import csv
import gc
import inspect
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cascadekit import branching, diffusion, files, graph, stats, trees
from cascadekit.diffusion import NewsItem
from cascadekit.errors import CascadekitError, ParameterError, TreeSchemaError
from cascadekit.stats import FittedDistribution


@pytest.mark.parametrize("columns", [("name",), ("name", "size")])
def test_write_csv_writes_one_cell_per_column_even_for_one_column(tmp_path, columns):
    rows = [{"name": "ab", "size": 2, "other": 9}, {"name": None, "size": 1.5}, {"name": ("x", "y"), "size": 0}]
    path = tmp_path / "table.csv"
    files.write_csv(path, columns, iter(rows))
    with open(path, newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    assert read == [list(columns)] + [[("" if row[c] is None else str(row[c])) for c in columns] for row in rows]


@pytest.mark.parametrize("records,where", [
    ([{"u": 1, "v": 2}, {"u": 3, "v": 4}], None),
    ([], None),
    ([{"u": 1, "v": 2}, 7, {"v": 4}], "[1] must be an object"),
    ([{"u": 1}, {"u": 3, "v": 4}, None], "[2] must be an object"),  # the u column fails at [2] before v is read
    ([{"u": 1, "v": 2}, {"v": 4}, "x"], "[1].u is missing"),
    ([{"u": 1}, {"u": 2, "v": 3}], "[0].v is missing"),
])
def test_record_fault_names_the_first_lookup_that_fails_field_by_field(records, where):
    assert files.record_fault(records, ("u", "v")) == where
    if where:
        with pytest.raises(ValueError, match=f"^edges{re.escape(where)}$"):
            files.read_columns(records, {"u": "integer", "v": "integer"}, ValueError, "edges")


def read(values, kind):
    """values as the column of one field of the given kind, read by read_columns; a fault raises ValueError."""
    return files.read_columns([{"f": v} for v in values], {"f": kind}, ValueError, "")[0]


def fault(index, kind, value):
    """The match pattern of read's fault at index: what the kind takes, and the value."""
    return f"^{re.escape(f'[{index}].f must be {files.KINDS[kind].must}, got {value!r}')}$"


def too_big(index, value):
    """The match pattern of read's fault at index for a whole value outside int64."""
    return f"^{re.escape(f'[{index}].f must fit an int64, got {value!r}')}$"


NOT_FLAGS = ("integer", "id", "number", "time", "user", "parent")
INTEGERS = ("integer", "id", "parent")


def test_read_columns_names_a_list_that_is_not_one_and_the_first_fault_field_by_field():
    with pytest.raises(ValueError, match=r"^edges must be a list$"):
        files.read_columns({"u": 1}, {"u": "integer"}, ValueError, "edges")
    records = [{"u": 1, "v": "y"}, {"u": "x", "v": 2}]
    with pytest.raises(ValueError, match=re.escape("edges[1].u must be an integer, got 'x'")):
        files.read_columns(records, {"u": "integer", "v": "integer"}, ValueError, "edges")


@pytest.mark.parametrize("kind", NOT_FLAGS)
def test_a_boolean_is_never_a_number_or_an_integer(kind):
    with pytest.raises(ValueError, match=fault(1, kind, True)):
        read([1, True], kind)
    assert read([True, False], "flag").tolist() == [True, False]
    with pytest.raises(ValueError, match=fault(0, "flag", 1)):
        read([1], "flag")


def test_an_integral_float_is_a_tree_id_but_not_a_graph_integer():
    assert read([1, 2.0, -0.0], "id").tolist() == [1, 2, 0]
    assert read([None, 3.0], "parent")[2].tolist() == [0, 3]
    with pytest.raises(ValueError, match=fault(1, "integer", 2.0)):
        read([1, 2.0], "integer")
    with pytest.raises(ValueError, match=fault(1, "id", 2.5)):
        read([1, 2.5], "id")


@pytest.mark.parametrize("kind", ["number", "time"])
def test_a_number_of_exactly_the_largest_float_size_is_read_and_an_int_above_it_is_not(kind):
    largest = sys.float_info.max
    for values in ([largest, 1], [-largest], [int(largest), 0.5]):
        assert read(values, kind).tolist() == values
    for value in (int(largest) + 1, -int(largest) - 1, float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match=fault(1, kind, value)):
            read([0.5, value], kind)


@pytest.mark.parametrize("kind", INTEGERS)
def test_2_to_the_63_fails_every_integer_kind(kind):
    for value in (2**63, -2**63 - 1, 2**70, -10**400):
        with pytest.raises(ValueError, match=too_big(1, value)):
            read([0, value], kind)
    for value in (2.0**63, -2.0**70):  # whole floats: an id or parent that does not fit, never an integer
        with pytest.raises(ValueError, match=fault(1, kind, value) if kind == "integer" else too_big(1, value)):
            read([0, value], kind)
    ends = read([2**63 - 1, -2**63], kind)
    assert (ends if kind != "parent" else ends[2]).tolist() == [2**63 - 1, -2**63]


@pytest.mark.parametrize("kind", [*NOT_FLAGS, "flag"])
def test_null_passes_only_the_parent_kind(kind):
    if kind == "parent":
        values, null, ids = read([None, 4, None], kind)
        assert values.tolist() == [None, 4, None] and null.tolist() == [True, False, True] and ids.tolist() == [0, 4, 0]
    else:
        with pytest.raises(ValueError, match=fault(0, kind, None)):
            read([None], kind)


@pytest.mark.parametrize("values,dtype", [([1, 2], np.int64), ([1.0, 2.5], np.float64), ([1, 2.5, 3], object),
                                          ([2**70, 1], object), ([], np.int64)])
def test_a_time_column_keeps_each_value_type(values, dtype):
    times = read(values, "time")
    assert times.dtype == dtype
    assert [(type(v), v) for v in times.tolist()] == [(type(v), v) for v in values]



def chains(count: int, length: int) -> list[dict]:
    """count tree documents, each a chain of length nodes under a page."""
    nodes = [{"id": i, "user": i, "sigma": 0.5, "t": float(i), "parent": i - 1 if i else None} for i in range(length)]
    return [{"news_id": k, "category": "science", "root": {"virtual": True, "page_sign": 1}, "nodes": nodes}
            for k in range(count)]


def written(path, text: str):
    path.write_text(text, encoding="utf-8")
    return path


GRAPH = graph.generate_small_world(10, 2, 0.0, seed=1)
FAULTY_TREES = '[{"news_id": 1, "category": "science", "root": {"virtual": true, "page_sign": 1}, "nodes": [1]}]'

# Each paused function, called in a directory that holds g.json and trees.json:
# (the function, its arguments, the error it raises or None).
PAUSED = {
    "load_graph": lambda tmp: (graph.load_graph, [tmp / "g.json"], None),
    "load_graph-bad-graph-file": lambda tmp: (graph.load_graph, [written(tmp / "bad.json", '{"n": 10}')],
                                              ParameterError),
    "load_graph-missing-path": lambda tmp: (graph.load_graph, [tmp / "none.json"], OSError),
    "save_graph": lambda tmp: (graph.save_graph, [GRAPH, tmp / "out.json"], None),
    "save_graph-missing-directory": lambda tmp: (graph.save_graph, [GRAPH, tmp / "none" / "g.json"], OSError),
    "load_trees": lambda tmp: (trees.load_trees, [tmp / "trees.json"], None),
    "load_trees-faulty-tree-file": lambda tmp: (trees.load_trees, [written(tmp / "bad.json", FAULTY_TREES)],
                                                TreeSchemaError),
    "load_trees-missing-path": lambda tmp: (trees.load_trees, [tmp / "none.json"], OSError),
    "save_trees": lambda tmp: (trees.save_trees, [trees.load_trees(tmp / "trees.json"), tmp / "out.json"], None),
    "trees_from_json": lambda tmp: (trees.trees_from_json, [(tmp / "trees.json").read_text()], None),
    "trees_from_json-faulty": lambda tmp: (trees.trees_from_json, [FAULTY_TREES], TreeSchemaError),
    "trees_to_json": lambda tmp: (trees.trees_to_json, [trees.load_trees(tmp / "trees.json")], None),
    "read_csv": lambda tmp: (files.read_csv, [written(tmp / "x.csv", "1\n2\n"), ValueError], None),
    "read_csv-missing-path": lambda tmp: (files.read_csv, [tmp / "none.csv", ValueError], OSError),
    "metrics_rows": lambda tmp: (trees.metrics_rows, [trees.load_trees(tmp / "trees.json")], None),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", PAUSED.values(), ids=PAUSED.keys())
def test_a_paused_function_runs_with_the_collector_off_and_leaves_it_as_it_found_it(tmp_path, case, enabled):
    graph.save_graph(GRAPH, tmp_path / "g.json")
    files.write_json(tmp_path / "trees.json", chains(3, 4))
    func, args, error = case(tmp_path)
    code = inspect.unwrap(func).__code__
    inside = []

    def probe(frame, event, arg):  # the collector's state as the function's own body starts
        if event == "call" and frame.f_code is code:
            inside.append(gc.isenabled())

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        sys.setprofile(probe)
        try:
            with pytest.raises(error) if error else contextlib.nullcontext():
                func(*args)
        finally:
            sys.setprofile(None)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False]


def test_no_collection_starts_while_a_large_tree_file_loads_or_a_troll_scale_graph_is_saved(tmp_path):
    files.write_json(tmp_path / "trees.json", chains(2000, 10))
    g = graph.generate_small_world(16889, 8, 0.01, seed=1)
    starts = {"load_trees": [], "save_graph": []}
    call = None

    def hook(phase, info):
        if phase == "start" and call:
            starts[call].append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        call = "load_trees"
        forest = trees.load_trees(tmp_path / "trees.json")
        call = "save_graph"
        graph.save_graph(g, tmp_path / "g.json")
        call = None
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()
    assert forest.start[-1] == 20000 and graph.load_graph(tmp_path / "g.json").edge_count == 16889 * 4
    assert starts == {"load_trees": [], "save_graph": []}


# --- values from Python callers ------------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None, database=None)

ANY_VALUE = st.one_of(
    st.integers(-3, 12), st.sampled_from([2**63 - 1, 2**63, -2**63 - 1, 10**400, -10**400, 2**1024 - 2**970 - 1]),
    st.floats(-0.5, 12), st.floats(),
    st.integers(-3, 12).map(np.int64), st.integers(0, 12).map(np.uint8),
    st.sampled_from([np.uint64(2**64 - 1), np.int64(-2**63), np.float32("inf"), np.float64("nan")]),
    st.floats(-0.5, 1.5).map(np.float64), st.floats(-0.5, 1.5, width=32).map(np.float32),
    st.booleans(), st.booleans().map(np.bool_), st.text(max_size=2), st.none(),
    st.fractions(-1, 12, max_denominator=10), st.sampled_from([Fraction(10**400), Fraction(1, 10**400)]),
)
COUNTS = st.one_of(st.integers(0, 10), st.integers(0, 10).map(np.int64), st.integers(0, 10).map(np.uint8), ANY_VALUE)
UNIT = st.one_of(st.floats(0, 1), st.floats(0, 1, width=32).map(np.float32), st.fractions(0, 1), st.integers(0, 1),
                 ANY_VALUE)
POSITIVE = st.one_of(st.floats(0.1, 50), st.integers(1, 50).map(np.int64), st.fractions(1, 50), ANY_VALUE)
SMALL_GRAPH = graph.label_edges(graph.generate_small_world(10, 4, 0.2, seed=1), 0.5, seed=2)


@PROPERTY
@given(values=st.lists(st.tuples(COUNTS, UNIT), min_size=1, max_size=4))
def test_news_values_from_python_callers_read_as_the_reference_rules_say(values):
    news = [NewsItem(id=k, fitness=fitness, first_sharer_count=count) for k, (count, fitness) in enumerate(values)]
    expected = oracles.news_fault(news, SMALL_GRAPH.node_count)
    if expected is not None:
        with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
            diffusion.diffuse(SMALL_GRAPH, news, (0.1,), seed=0)
        return
    with mock.patch.object(diffusion, "_cascade", wraps=diffusion._cascade) as cascade:
        diffusion.diffuse(SMALL_GRAPH, news, (0.1,), seed=0)
    counts, fitness = cascade.call_args.args[2:4]
    assert counts.dtype == np.int64 and counts.tolist() == [int(count) for count, _ in values]
    assert fitness.dtype == float and fitness.tolist() == [float(fitness) for _, fitness in values]


@PROPERTY
@given(mean=POSITIVE, shape=POSITIVE, sample=st.lists(POSITIVE, max_size=4))
def test_distribution_parameters_from_python_callers_read_as_the_reference_rules_say(mean, shape, sample):
    for make, expected, kept in (
            (lambda: FittedDistribution.inverse_gaussian(mean, shape).params, oracles.inverse_gaussian_fault(mean, shape),
             lambda params: params == {"mean": float(mean), "shape": float(shape)}
             and all(type(v) is float for v in params.values())),
            (lambda: FittedDistribution.empirical(sample).sample_ref, oracles.empirical_fault(sample),
             lambda ref: ref.dtype == float and ref.tolist() == [float(v) for v in sample])):
        if expected is None:
            assert kept(make())
        else:
            with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
                make()


# --- samples and significance levels ---------------------------------------------------

def wald_at(level):
    fit = stats.fit_power_law([1, 2, 3, 1, 5])
    return stats.wald_test(fit, fit, alpha=level)


# Each reader of a number sample, with the name its faults give the sample.
SAMPLE_READERS = {
    "summary": (stats.summary_stats, "summary sample"),
    "cdf": (stats.empirical_cdf, "curve sample"),
    "ccdf": (stats.empirical_ccdf, "curve sample"),
    "pdf": (stats.empirical_pdf, "curve sample"),
    "pdf edges": (lambda sample: stats.empirical_pdf([1.0, 2.0], bins=sample), "bin edges"),
    "ks first": (lambda sample: stats.ks_two_sample(sample, [1.0, 2.0]), "KS sample"),
    "ks second": (lambda sample: stats.ks_two_sample([1.0, 2.0], sample), "KS sample"),
    "power law": (stats.fit_power_law, "power-law sample"),
    "first sharers": (lambda sample: stats.fit_first_sharers(sample, seed=0), "first-sharer sample"),
    "empirical": (FittedDistribution.empirical, "empirical sample"),
    "degrees": (lambda sample: branching.heterogeneous_branching((sample, [0.25, 0.25, 0.5]), 0.1), "degree list"),
    "probabilities": (lambda sample: branching.heterogeneous_branching(([2, 3, 4], sample), 0.1), "probability list"),
}
LEVEL_READERS = {
    "critical": stats.kolmogorov_critical,
    "ks": lambda level: stats.ks_two_sample([1.0, 2.0], [3.0], alpha=level),
    "wald": wald_at,
}


@pytest.mark.parametrize("bad", [math.nan, True, "1"], ids=["nan", "bool", "str"])
@pytest.mark.parametrize("reader", SAMPLE_READERS)
def test_every_sample_reader_names_a_bad_entry_by_one_rule(reader, bad):
    read, what = SAMPLE_READERS[reader]
    message = f"^{re.escape(f'{what} entry must be a finite number, got {bad!r}')}$"
    for sample in ([2, bad, 3], (2, bad, 3)) + ((np.array([2.0, bad, 3.0]),) if bad is math.nan else ()):
        with pytest.raises(ParameterError, match=message):  # an array names a NaN as a list does
            read(sample)


@pytest.mark.parametrize("sample,message", [
    ("3", "summary sample must be a list or a 1-D array of finite numbers, got str"),
    ({1: 2}, "summary sample must be a list or a 1-D array of finite numbers, got dict"),
    (3.0, "summary sample must be a list or a 1-D array of finite numbers, got float"),
    (np.ones((2, 2)), "summary sample must be a list or a 1-D array of finite numbers, got ndarray"),
    (np.array([True, False]), "summary sample must be a list or a 1-D array of finite numbers, got ndarray"),
    (np.array([1 + 2j]), "summary sample must be a list or a 1-D array of finite numbers, got ndarray"),
    ([True, False], "summary sample entry must be a finite number, got True"),
    ([[1.0, 2.0]], "summary sample entry must be a finite number, got [1.0, 2.0]"),
    ([], "summary sample must hold at least one number"),
    (np.zeros(0, dtype=np.int64), "summary sample must hold at least one number"),
], ids=["str", "dict", "scalar", "2-D", "bool array", "complex array", "bools", "nested", "empty", "empty array"])
def test_a_sample_that_is_not_a_list_or_1d_array_of_numbers_is_a_parameter_error(sample, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        stats.summary_stats(sample)


def test_samples_that_were_read_as_numbers_are_parameter_errors():
    with pytest.raises(ParameterError, match=r"^first-sharer sample entry must be a finite number, got True$"):
        stats.fit_first_sharers([True, 2, 3], seed=0)
    with pytest.raises(ParameterError, match="^KS sample entry must be a finite number, got 'x'$"):
        stats.ks_two_sample([1, "x"], [1.0])
    with pytest.raises(ParameterError, match="^degree distribution must pair each degree with a probability"):
        branching.heterogeneous_branching(([1, 2, 3], [0.5, 0.5]), 0.1)
    with pytest.raises(ParameterError, match="^a degree distribution must be a dict or a pair"):
        branching.heterogeneous_branching(([1, 2], [0.5, 0.5], [1, 1]), 0.1)


@pytest.mark.parametrize("level", ["0.05", True, None, 1j, math.nan, math.inf, 0.0, 1.0, -0.5, Fraction(1, 10**400)],
                         ids=["str", "bool", "none", "complex", "nan", "inf", "0", "1", "-0.5", "tiny fraction"])
@pytest.mark.parametrize("reader", LEVEL_READERS)
def test_every_level_reader_takes_a_number_in_the_open_unit_interval(reader, level):
    message = f"significance level must be a number in (0, 1), got {level!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        LEVEL_READERS[reader](level)


def test_a_level_in_the_open_unit_interval_is_read_as_its_float():
    assert stats.kolmogorov_critical(np.float32(0.05)) == stats.kolmogorov_critical(float(np.float32(0.05)))
    assert stats.kolmogorov_critical(Fraction(1, 20)) == stats.kolmogorov_critical(0.05)
    assert wald_at(np.float64(0.05)) == wald_at(0.05)


JUNK_ENTRY = st.one_of(ANY_VALUE, st.complex_numbers(max_magnitude=3), st.lists(st.integers(0, 3), max_size=2))
JUNK_SAMPLE = st.one_of(
    st.lists(JUNK_ENTRY, max_size=5), st.lists(JUNK_ENTRY, max_size=5).map(tuple),
    st.lists(st.floats(), max_size=5).map(np.array), st.lists(st.integers(-3, 2**63 - 1), max_size=5).map(np.array),
    st.lists(st.floats(width=32), max_size=5).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.booleans(), max_size=3).map(np.array), st.lists(st.text(max_size=2), max_size=3).map(np.array),
    st.dictionaries(st.integers(0, 5), st.floats(0, 1), max_size=3), ANY_VALUE,
    st.sampled_from([np.ones((2, 2)), np.array(2.0), np.array([1 + 1j]), np.array([1.0], dtype=np.longdouble) * 1e300,
                     np.array([None, 1.0]), {1, 2}, b"12", range(3)]),
)
JUNK_LEVEL = st.one_of(ANY_VALUE, st.floats(0, 1), st.complex_numbers(max_magnitude=1), st.lists(st.floats(0, 1)))


@settings(max_examples=300, deadline=None, database=None)
@given(sample=JUNK_SAMPLE, level=JUNK_LEVEL)
def test_junk_samples_and_levels_give_a_result_or_a_cascadekit_error(sample, level):
    # Not "pdf edges": an integer there is a count of bins, and a count too big for memory is not checked.
    calls = [*(read for name, (read, _) in SAMPLE_READERS.items() if name != "pdf edges"),
             lambda s: branching.heterogeneous_branching(s, 0.1),
             *LEVEL_READERS.values(), lambda s: stats.ks_two_sample(s, s, alpha=level)]
    for call in calls:
        with contextlib.suppress(CascadekitError):
            call(sample)
    for call in LEVEL_READERS.values():
        with contextlib.suppress(CascadekitError):
            call(level)
