import argparse
import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.cli import _parse_distribution, _read_numbers, main
from cascadekit.errors import ParameterError
from cascadekit.graph import load_graph
from cascadekit.stats import FAMILIES, FittedDistribution
from cascadekit.trees import load_trees

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


@pytest.mark.parametrize("changes", [
    {"first_sharers": {"family": "poisson"}},
    {"first_sharers": {"family": "ig", "mean": float("nan"), "shape": 1.0}},
    {"n": 16889.7},
    {"deltas": [0.02, "x"]},
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


@pytest.mark.parametrize("spec", [
    "ig:nan,1", "ig:1,inf", "ig:1", "ig:1,2,3", "ln:0,-1", "poisson:", "poi:-inf", "uniform:2,1",
    "unif:1,NaN", "gamma:1,2", "emp:no-such-file.csv",
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
def test_any_first_sharer_spec_parses_or_is_an_argument_error(name, values, upper):
    spec = f"{name.upper() if upper else name}:{','.join(values)}"
    try:
        dist = _parse_distribution(spec)
    except argparse.ArgumentTypeError:
        return
    assert isinstance(dist, FittedDistribution)
    assert all(math.isfinite(v) for v in dist.params.values())


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
