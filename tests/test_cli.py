import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadekit import harness
from cascadekit.cli import _parse_distribution, _read_numbers, main
from cascadekit.diffusion import diffuse, sample_news
from cascadekit.errors import ParameterError
from cascadekit.graph import generate_small_world, graph_to_dict, label_edges, load_graph, save_graph
from cascadekit.stats import FAMILIES, FittedDistribution
from cascadekit.trees import load_trees, trees_to_json

from oracles import sample_power_law


def write_column(path, values, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([header])
        for v in values:
            writer.writerow([v])


def test_generate_writes_labeled_graph(tmp_path):
    out = tmp_path / "graph.json"
    code = main([
        "generate", "--nodes", "200", "--ring-degree", "4", "--rewiring", "0.1",
        "--phi-hl", "0.5", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    g = load_graph(out)
    assert g.node_count == 200
    assert g.edge_count == 400
    assert g.homogeneous.sum() == 200


def test_simulate_pipeline(tmp_path):
    graph_path = tmp_path / "graph.json"
    trees_path = tmp_path / "trees.json"
    main(["generate", "--nodes", "300", "--ring-degree", "6", "--rewiring", "0.2",
          "--phi-hl", "0.8", "--seed", "11", "--out", str(graph_path)])
    code = main([
        "simulate", "--graph", str(graph_path), "--items", "50",
        "--first-sharers", "poisson:3.0", "--delta", "0.05",
        "--seed", "12", "--out", str(trees_path),
    ])
    assert code == 0
    batch = load_trees(trees_path)
    assert len(batch) == 50


def test_sweep_with_config_file_and_determinism(tmp_path):
    config = {
        "n": 100, "m": 20, "z": 4, "master_seed": 0,
        "first_sharers": {"family": "poisson", "rate": 2.0},
        "deltas": [0.02], "phis": [0.6], "rs": [0.1], "iterations": 2,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config_path), "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config_path), "--seed", "7", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["mean_size"]) > 0


def test_analyze_command(tmp_path):
    graph_path = tmp_path / "graph.json"
    trees_path = tmp_path / "trees.json"
    out_dir = tmp_path / "metrics"
    main(["generate", "--nodes", "300", "--ring-degree", "6", "--rewiring", "0.2",
          "--phi-hl", "0.8", "--seed", "1", "--out", str(graph_path)])
    main(["simulate", "--graph", str(graph_path), "--items", "80",
          "--first-sharers", "uniform:1,6", "--delta", "0.05", "--seed", "2",
          "--out", str(trees_path)])
    assert main(["analyze", "--in", str(trees_path), "--group", "category",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "synthetic__size_ccdf.csv").exists()


def test_analyze_malformed_tree_file_is_a_one_line_error(tmp_path, capsys):
    trees_path = tmp_path / "trees.json"
    trees_path.write_text(json.dumps([{
        "news_id": 3, "category": "science", "root": {"virtual": True, "page_sign": -1},
        "nodes": [{"id": 0, "user": 1, "sigma": 0.5, "t": "noon", "parent": None}],
    }]))
    code = main(["analyze", "--in", str(trees_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("cascadekit analyze: TreeSchemaError: tree 3: node t must be a finite number")


def test_fit_first_sharers_command(tmp_path):
    counts_path = tmp_path / "counts.csv"
    table_path = tmp_path / "table.csv"
    rng = np.random.default_rng(5)
    write_column(counts_path, rng.poisson(8.0, size=400), header="count")
    assert main(["fit-first-sharers", "--in", str(counts_path), "--seed", "9",
                 "--out", str(table_path)]) == 0
    with open(table_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["statistic"] for row in rows] == ["min", "q1", "median", "mean", "q3", "max"]
    assert float(rows[3]["Poi"]) > 0


def test_fit_first_sharers_reports_excluded_zero_counts(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    write_column(counts_path, [0, 3, 0, 5, 2, 0, 7], header="count")
    assert main(["fit-first-sharers", "--in", str(counts_path), "--seed", "9",
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert "excluded 3 zero counts from IG/LN fits" in capsys.readouterr().out


@pytest.mark.parametrize("counts", [[1e308, 1.5e308, 1.7e308], [5e-324, 5e-324, 1]], ids=["huge", "subnormal"])
def test_fit_first_sharers_on_extreme_counts_warns_nothing_and_writes_finite_or_blank_cells(tmp_path, capsys, counts):
    counts_path, table_path = tmp_path / "counts.csv", tmp_path / "table.csv"
    write_column(counts_path, counts, header="count")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit-first-sharers", "--in", str(counts_path), "--seed", "9", "--out", str(table_path)]) == 0
    assert capsys.readouterr().err == ""
    with open(table_path, newline="") as fh:
        cells = [cell for row in list(csv.reader(fh))[1:] for cell in row[1:]]
    assert cells and all(cell == "" or math.isfinite(float(cell)) for cell in cells)


def test_sweep_preset_writes_the_troll_point(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--preset", "troll", "--iterations", "1", "--seed", "3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert (float(row["phi_hl"]), float(row["r"]), float(row["delta"])) == (0.56, 0.01, 0.015)
    assert row["iterations"] == "1"


def test_stats_test_ks(tmp_path, capsys):
    rng = np.random.default_rng(6)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_column(a_path, rng.normal(size=300))
    write_column(b_path, rng.normal(3.0, 1.0, size=300))
    assert main(["stats-test", "ks", "--a", str(a_path), "--b", str(b_path), "--alpha", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "D=" in out and "reject=True" in out


def test_stats_test_wald(tmp_path, capsys):
    rng = np.random.default_rng(7)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_column(a_path, sample_power_law(rng, 2.2, 20_000, table_size=10**5))
    write_column(b_path, sample_power_law(rng, 3.0, 20_000, table_size=10**5))
    assert main(["stats-test", "wald", "--a", str(a_path), "--b", str(b_path)]) == 0
    out = capsys.readouterr().out
    assert "W=" in out and "reject=True" in out


def one_line_error(capsys, command: str) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"cascadekit {command}: ParameterError: ")
    return err


@pytest.mark.parametrize("rows,message", [
    (["count", "1", "abc"], "row 3: 'abc' is not a number"),
    (["1", "2", "3.5.1"], "row 3: '3.5.1' is not a number"),
    ([], "at least one number"),
    (["count"], "at least one number"),
    (["1", "nan", "2"], "no NaN or infinity"),
    (["1", "inf"], "no NaN or infinity"),
    (["count", "-Infinity", "2"], "no NaN or infinity"),
], ids=repr)
def test_malformed_number_files_are_one_line_errors(tmp_path, capsys, rows, message):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    write_column(bad, rows)
    write_column(good, [1, 2, 3])
    assert main(["stats-test", "ks", "--a", str(good), "--b", str(bad)]) == 3
    assert message in one_line_error(capsys, "stats-test")
    assert main(["fit-first-sharers", "--in", str(bad), "--seed", "1", "--out", str(tmp_path / "t.csv")]) == 3
    assert message in one_line_error(capsys, "fit-first-sharers")


@pytest.mark.parametrize("command", [
    ["stats-test", "ks", "--a", "missing.csv", "--b", "present.csv"],
    ["analyze", "--in", "missing.json", "--out", "out"],
    ["sweep", "--config", "missing.json", "--seed", "7", "--out", "grid.csv"],
    ["simulate", "--graph", "missing.json", "--items", "5", "--first-sharers", "poisson:2",
     "--delta", "0.1", "--seed", "1", "--out", "trees.json"],
    ["fit-first-sharers", "--in", "missing.csv", "--seed", "1", "--out", "table.csv"],
], ids=lambda command: command[0])
def test_missing_input_files_are_one_line_errors(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    write_column(tmp_path / "present.csv", [1, 2, 3])
    assert main(command) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"cascadekit {command[0]}: FileNotFoundError: ") and "missing." in err


def test_stats_test_wald_rejects_non_integral_sizes(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_column(a_path, [1.9, 2.9, 3.9, 1.9, 5.9])
    write_column(b_path, [1, 2, 3, 1, 5])
    assert main(["stats-test", "wald", "--a", str(a_path), "--b", str(b_path)]) == 3
    assert "integer sizes, got 1.9" in one_line_error(capsys, "stats-test")
    assert capsys.readouterr().out == ""


def test_stats_test_wald_fits_integral_sizes_beyond_int64(tmp_path, capsys):
    # The sizes go to the fit as read: 1e20 is an integer, which a cast to
    # int64 would wrap to a negative number.
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_column(a_path, [1, 1, 2, 3, 1, 5, 1e20])
    write_column(b_path, [1, 2, 3, 1, 5, 1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stats-test", "wald", "--a", str(a_path), "--b", str(b_path)]) == 0
    assert capsys.readouterr().out.startswith("alpha1=")


def test_stats_test_wald_at_an_x_min_where_zeta_underflows_is_a_one_line_error(tmp_path, capsys):
    a_path = tmp_path / "a.csv"
    write_column(a_path, [10000] * 9 + [10001])
    assert main(["stats-test", "wald", "--a", str(a_path), "--b", str(a_path), "--x-min", "10000"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("cascadekit stats-test: DegenerateSampleError: ") and "underflows" in err


@pytest.mark.parametrize("changes", [
    {"first_sharers": {"family": "poisson"}},
    {"first_sharers": {"family": "ig", "mean": float("nan"), "shape": 1.0}},
    {"n": 16889.7},
    {"deltas": [0.02, "x"]},
    {"m": 0},
    {"first_sharers": {"family": "poisson", "rate": 1e19}},  # above the largest rate numpy draws from
], ids=repr)
def test_sweep_with_malformed_config_is_a_one_line_error(tmp_path, capsys, changes):
    config = {
        "n": 100, "m": 20, "z": 4, "master_seed": 0,
        "first_sharers": {"family": "poisson", "rate": 2.0},
        "deltas": [0.02], "phis": [0.6], "rs": [0.1], "iterations": 2,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config | changes))
    assert main(["sweep", "--config", str(config_path), "--seed", "7", "--out", str(tmp_path / "a.csv")]) == 3
    one_line_error(capsys, "sweep")
    config_path.write_text("{")
    assert main(["sweep", "--config", str(config_path), "--seed", "7", "--out", str(tmp_path / "a.csv")]) == 3
    assert "malformed config JSON" in one_line_error(capsys, "sweep")


@pytest.mark.parametrize("z", [3, 0, -2])
def test_sweep_config_with_a_bad_ring_degree_fails_before_the_sweep(tmp_path, capsys, monkeypatch, z):
    monkeypatch.setattr(harness, "run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
    config = {
        "n": 100, "m": 20, "z": z, "master_seed": 0,
        "first_sharers": {"family": "poisson", "rate": 2.0},
        "deltas": [0.02], "phis": [0.6], "rs": [0.1], "iterations": 2,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_path), "--seed", "7", "--out", str(tmp_path / "a.csv")]) == 3
    assert one_line_error(capsys, "sweep").endswith(f"ring degree must be even and >= 2, got {z}\n")


@pytest.mark.parametrize("spec", [
    "ig:nan,1", "ig:1,inf", "ig:1", "ig:1,2,3", "ln:0,-1", "poisson:", "poi:-inf", "uniform:2,1",
    "unif:1,NaN", "gamma:1,2", "emp:no-such-file.csv", "poisson:1e19", "unif:-1e308,1e308",
])
def test_bad_first_sharer_specs_are_argument_errors(tmp_path, capsys, spec):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--graph", "g.json", "--items", "5", "--first-sharers", spec,
              "--delta", "0.1", "--seed", "1", "--out", str(tmp_path / "t.json")])
    assert excinfo.value.code == 2
    assert "--first-sharers" in capsys.readouterr().err


PROPERTY = settings(max_examples=150, deadline=None, database=None)


@PROPERTY
@given(st.text(max_size=40))
def test_any_csv_text_reads_as_finite_numbers_or_is_a_parameter_error(text):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "numbers.csv"
        path.write_text(text, encoding="utf-8")
        try:
            values = _read_numbers(path)
        except ParameterError:
            return
    assert values.dtype == float and values.size > 0 and np.all(np.isfinite(values))


SPEC_NAMES = [name for f in FAMILIES.values() for name in (f.name, *f.aliases)]
SPEC_VALUES = st.sampled_from(["1", "0", "-2.5", "nan", "inf", "1e999", "", "x", " 3 "]) | st.floats().map(repr)


@PROPERTY
@given(st.sampled_from(SPEC_NAMES) | st.text(max_size=8), st.lists(SPEC_VALUES, max_size=3), st.booleans())
@example("poisson", ["1e19"], False)
@example("unif", ["-1e308", "1e308"], False)
@example("ln", ["800", "1"], False)
def test_any_first_sharer_spec_parses_or_is_an_argument_error(name, values, upper):
    # A spec that parses also draws: counts in [0, max_count], or a ParameterError, and no RuntimeWarning.
    spec = f"{name.upper() if upper else name}:{','.join(values)}"
    try:
        dist = _parse_distribution(spec)
    except argparse.ArgumentTypeError:
        return
    assert isinstance(dist, FittedDistribution)
    assert all(math.isfinite(v) for v in dist.params.values())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            news = sample_news(8, dist, seed=0, max_count=50)
        except ParameterError:
            return
    assert all(0 <= item.first_sharer_count <= 50 for item in news)


def valid_inputs() -> dict:
    """A valid input file's contents per kind: a graph, a tree batch and a sweep config as JSON, and a number file."""
    g = label_edges(generate_small_world(20, 4, 0.2, seed=1), 0.6, seed=2)
    news = sample_news(6, FittedDistribution.uniform(1, 4), seed=3, max_count=20)
    [(_, forest)] = diffuse(g, news, (0.3,), seed=4, build_trees=True)
    config = {"n": 60, "m": 8, "z": 4, "master_seed": 0, "first_sharers": {"family": "poisson", "rate": 2.0},
              "deltas": [0.05, 0.2], "phis": [0.6], "rs": [0.1], "iterations": 1}
    return {"graph": graph_to_dict(g), "trees": json.loads(trees_to_json(forest)), "config": config,
            "numbers": ["count", "1", "2", "2", "3", "5", "8", "13", "21"]}


VALID_INPUTS = valid_inputs()
INPUT_COMMANDS = {
    "simulate": ("graph", ["simulate", "--graph", "IN", "--items", "5", "--first-sharers", "poisson:2",
                           "--delta", "0.1", "--seed", "1", "--out", "OUT/trees.json"]),
    "analyze": ("trees", ["analyze", "--in", "IN", "--out", "OUT"]),
    "sweep": ("config", ["sweep", "--config", "IN", "--seed", "1", "--iterations", "1", "--out", "OUT/grid.csv"]),
    "fit-first-sharers": ("numbers", ["fit-first-sharers", "--in", "IN", "--seed", "1", "--out", "OUT/table.csv"]),
    "ks": ("numbers", ["stats-test", "ks", "--a", "IN", "--b", "VALID"]),
    "wald": ("numbers", ["stats-test", "wald", "--a", "IN", "--b", "VALID"]),
}
# Numbers stay small or lie beyond int64, so no graph, item batch or sweep that loads is large.
MUTANT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 80) | st.sampled_from([2**63, -2**70, 10**30])
    | st.floats(-2.0, 80.0) | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
MUTANT_CELLS = (st.sampled_from(["", "x", "nan", "-inf", "1e999", "-1", "0", "0.5", "1e308", "1.7e308", "5e-324"])
                | st.integers(-2**70, 2**70).map(str) | st.floats().map(repr) | st.text(max_size=4))


def mutate_document(doc, data) -> None:
    """Set or delete one to three entries anywhere in a JSON document, in place."""
    for _ in range(data.draw(st.integers(1, 3))):
        places, stack = [], [doc]
        while stack:
            node = stack.pop()
            keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
            places += [(node, key) for key in keys]
            stack += [node[key] for key in keys]
        if not places:
            return
        target, key = data.draw(st.sampled_from(places))
        if data.draw(st.booleans()):
            target[key] = data.draw(MUTANT_VALUES)
        else:
            target.pop(key)


def mutate_rows(rows: list, data) -> None:
    """Replace, delete or insert one to three rows of a number file, in place."""
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(rows)))
        action = data.draw(st.sampled_from(["replace", "delete", "insert"]) if k < len(rows) else st.just("insert"))
        if action == "delete":
            del rows[k]
        else:
            rows[k:k + (action == "replace")] = [data.draw(MUTANT_CELLS)]


@pytest.mark.parametrize("name", INPUT_COMMANDS)
@PROPERTY
@given(data=st.data())
def test_a_command_on_a_mutated_input_file_exits_0_2_or_3_with_one_line_on_failure(name, data):
    kind, argv = INPUT_COMMANDS[name]
    content = json.loads(json.dumps(VALID_INPUTS[kind]))
    if kind == "numbers":
        mutate_rows(content, data)
        text = "\n".join(content) + "\n"
    else:
        mutate_document(content, data)
        text = json.dumps(content)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        paths = {"IN": os.path.join(out, "in"), "VALID": os.path.join(out, "valid.csv"), "OUT": os.path.join(out, "out")}
        Path(paths["IN"]).write_text(text, encoding="utf-8")
        Path(paths["VALID"]).write_text("\n".join(VALID_INPUTS["numbers"]), encoding="utf-8")
        os.mkdir(paths["OUT"])
        argv = [paths.get(arg, arg.replace("OUT", paths["OUT"])) for arg in argv]
        # The sweep runs in this process: a fork pool per example would cost more than the example.
        with mock.patch.object(harness, "_worker_count", lambda tasks: 1), warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3)
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1
        assert code == 2 or err.startswith(f"cascadekit {argv[0]}: ")


@pytest.mark.parametrize("command", [
    ["generate", "--nodes", "100", "--rewiring", "0.1", "--seed", "-1", "--out", "g.json"],
    ["simulate", "--graph", "g.json", "--items", "5", "--first-sharers", "poisson:2", "--delta", "0.1",
     "--seed", "-3", "--out", "t.json"],
    ["simulate", "--graph", "g.json", "--items", "-1", "--first-sharers", "poisson:2", "--delta", "0.1",
     "--seed", "1", "--out", "t.json"],
    ["simulate", "--graph", "g.json", "--items", "0", "--first-sharers", "poisson:2", "--delta", "0.1",
     "--seed", "1", "--out", "t.json"],
    ["sweep", "--preset", "troll", "--seed", "-5", "--out", "grid.csv"],
    ["fit-first-sharers", "--in", "counts.csv", "--seed", "-2", "--out", "table.csv"],
    ["generate", "--nodes", "100", "--rewiring", "0.1", "--seed", "1.5", "--out", "g.json"],
], ids=["generate seed -1", "simulate seed -3", "simulate items -1", "simulate items 0", "sweep seed -5",
        "fit-first-sharers seed -2", "generate seed 1.5"])
def test_negative_seeds_and_item_counts_are_argument_errors(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and ("--seed" in err or "--items" in err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,content,error", [
    (["simulate", "--graph", "in.json", "--items", "5", "--first-sharers", "poisson:2", "--delta", "0.1",
      "--seed", "1", "--out", "t.json"], b"n,z,r\n5,4,0.1\n", "ParameterError: in.json: malformed graph JSON"),
    (["simulate", "--graph", "in.json", "--items", "5", "--first-sharers", "poisson:2", "--delta", "0.1",
      "--seed", "1", "--out", "t.json"], b'{"n": "\xe9"}', "ParameterError: in.json: malformed graph JSON"),
    (["analyze", "--in", "in.json", "--out", "out"], b'[{"news_id": "\xff"}]', "TreeSchemaError: in.json: malformed JSON"),
    (["sweep", "--config", "in.json", "--seed", "1", "--out", "grid.csv"], b'{"n": "\xe9"}',
     "ParameterError: in.json: malformed config JSON"),
    (["stats-test", "ks", "--a", "in.json", "--b", "in.json"], b"count\n\xe9\n", "ParameterError: in.json"),
    (["simulate", "--graph", "in.json", "--items", "5", "--first-sharers", "poisson:2", "--delta", "0.1",
      "--seed", "1", "--out", "t.json"], b"[" * 200_000, "ParameterError: in.json: malformed graph JSON"),
    (["analyze", "--in", "in.json", "--out", "out"], b"[" * 200_000, "TreeSchemaError: in.json: malformed JSON"),
    (["sweep", "--config", "in.json", "--seed", "1", "--out", "grid.csv"], b"[" * 200_000,
     "ParameterError: in.json: malformed config JSON"),
], ids=["graph not JSON", "graph not UTF-8", "trees not UTF-8", "config not UTF-8", "numbers not UTF-8",
        "graph nested too deep", "trees nested too deep", "config nested too deep"])
def test_undecodable_input_files_are_one_line_errors(tmp_path, monkeypatch, capsys, command, content, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_bytes(content)
    assert main(command) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"cascadekit {command[0]}: {error}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_analyze_of_a_tree_whose_times_span_no_finite_lifetime_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    nodes = [{"id": 0, "user": 5, "sigma": 0.5, "t": -1e308, "parent": None},
             {"id": 1, "user": 6, "sigma": 0.25, "t": 1e308, "parent": 0}]
    (tmp_path / "in.json").write_text(json.dumps(
        [{"news_id": 4, "category": "science", "root": {"virtual": True, "page_sign": 1}, "nodes": nodes}]))
    assert main(["analyze", "--in", "in.json", "--out", "out"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("cascadekit analyze: TreeSchemaError: tree 4: share times from -1e+308 to 1e+308 ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_analyze_of_a_tree_with_a_lifetime_too_large_to_bin_skips_that_curve(tmp_path):
    # One lifetime of 10**17: np.histogram widens a constant sample by 0.5
    # each way, which no float at that magnitude can hold. The command runs
    # in its own process, so that stderr holds what the logging module
    # prints there without a handler.
    nodes = [{"id": 0, "user": 5, "sigma": 0.5, "t": 0, "parent": None},
             {"id": 1, "user": 6, "sigma": 0.25, "t": 10**17, "parent": 0}]
    (tmp_path / "in.json").write_text(json.dumps(
        [{"news_id": 4, "category": "science", "root": {"virtual": True, "page_sign": 1}, "nodes": nodes}]))
    src = str(Path(harness.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "cascadekit.cli", "analyze", "--in", "in.json", "--out", "out"],
                            cwd=tmp_path, capture_output=True, text=True, env=env)
    assert result.returncode in (0, 3)
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert "lifetime_pdf" in result.stderr
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "metrics.csv" in written and "science__lifetime_pdf.csv" not in written


HUGE = str(10**20)  # beyond int64


@pytest.mark.parametrize("command,message", [
    (["generate", "--nodes", HUGE, "--rewiring", "0.1", "--seed", "1", "--out", "out.json"], "n < 2**63"),
    (["simulate", "--graph", "g.json", "--items", HUGE, "--first-sharers", "poisson:2", "--delta", "0.1",
      "--seed", "1", "--out", "out.json"], "news count must be in [0, 2**63)"),
    (["sweep", "--config", "n.json", "--seed", "1", "--out", "out.csv"], "config field 'n' must fit an int64"),
    (["sweep", "--config", "m.json", "--seed", "1", "--out", "out.csv"], "config field 'm' must fit an int64"),
], ids=["generate nodes", "simulate items", "sweep config n", "sweep config m"])
def test_counts_beyond_int64_are_one_line_errors(tmp_path, monkeypatch, capsys, command, message):
    monkeypatch.chdir(tmp_path)
    save_graph(generate_small_world(20, 4, 0.1, seed=1), "g.json")
    config = {"n": 100, "m": 20, "z": 4, "master_seed": 0, "first_sharers": {"family": "poisson", "rate": 2.0},
              "deltas": [0.02], "phis": [0.6], "rs": [0.1], "iterations": 1}
    for field in "nm":
        (tmp_path / f"{field}.json").write_text(json.dumps(config | {field: 10**30}))
    assert main(command) == 3
    assert message in one_line_error(capsys, command[0])
    assert not (tmp_path / command[-1]).exists()


@pytest.mark.parametrize("iterations", ["0", "-1", "2.5"])
def test_sweep_iterations_below_one_are_argument_errors(tmp_path, monkeypatch, capsys, iterations):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--preset", "troll", "--iterations", iterations, "--seed", "1", "--out", "grid.csv"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--iterations" in err
    assert not list(tmp_path.iterdir())


def test_missing_required_arguments_exit_nonzero(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--nodes", "100", "--rewiring", "0.1", "--out", str(tmp_path / "g.json")])
    assert excinfo.value.code == 2  # --seed is mandatory
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2  # needs --config or --preset
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
