import json
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.diffusion import diffuse, sample_news
from cascadekit.errors import (
    OrphanParentError,
    ParameterError,
    TreeCycleError,
    TreeSchemaError,
)
from cascadekit.graph import generate_small_world, label_edges
from cascadekit.harness import (
    SweepConfig,
    _mean_sd,
    analyze,
    config_from_dict,
    config_to_dict,
    read_sweep_csv,
    run_sweep,
    troll_fit_config,
    write_analysis,
    write_sweep_csv,
)
from cascadekit.stats import FittedDistribution
from cascadekit.trees import (
    load_trees,
    metrics_rows,
    save_trees,
    tree_height,
    tree_size,
)

from oracles import earlier_scheme_sweep, tree_from_nodes


def tiny_config(**overrides) -> SweepConfig:
    base = dict(
        n=120,
        m=40,
        z=4,
        master_seed=5,
        first_sharers=FittedDistribution.poisson(2.0),
        deltas=(0.02, 0.1),
        phis=(0.6,),
        rs=(0.2,),
        iterations=2,
    )
    base.update(overrides)
    return SweepConfig(**base)


# --- sweeps -----------------------------------------------------------------------

def test_sweep_covers_grid_in_canonical_order():
    config = tiny_config(deltas=(0.01, 0.02), phis=(0.5, 0.6), rs=(0.1,))
    results = run_sweep(config)
    assert [(r.phi_hl, r.r, r.delta) for r in results] == [
        (0.5, 0.1, 0.01), (0.5, 0.1, 0.02), (0.6, 0.1, 0.01), (0.6, 0.1, 0.02),
    ]
    for res in results:
        assert res.iterations == 2
        assert res.sd_size >= 0.0


def test_sweep_deterministic_output(tmp_path):
    config = tiny_config()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(run_sweep(config), a)
    write_sweep_csv(run_sweep(tiny_config()), b)
    assert a.read_bytes() == b.read_bytes()


def documented_batches(config, i, j, d, build_trees=False):
    """diffuse's output per iteration at grid point (phis[i], rs[j], deltas[d]), from run_sweep's spawn keys."""
    for k in range(config.iterations):
        s_graph, s_label = np.random.SeedSequence(config.master_seed, spawn_key=(0, j, k)).spawn(2)
        g = generate_small_world(config.n, config.z, config.rs[j], seed=s_graph)
        g = label_edges(g, config.phis[i], seed=s_label)
        s_news, s_batch = np.random.SeedSequence(config.master_seed, spawn_key=(1, i, j, k)).spawn(2)
        news = sample_news(config.m, config.first_sharers, seed=s_news, max_count=config.n)
        yield diffuse(g, news, config.deltas[d], seed=s_batch, build_trees=build_trees)


def test_sweep_aggregation_matches_naive_recomputation():
    config = tiny_config(phis=(0.5, 0.6), rs=(0.1, 0.2), deltas=(0.02, 0.05), iterations=3)
    results = run_sweep(config)
    for res, index in zip(results, np.ndindex(2, 2, 2)):
        sizes, heights = [], []
        for _, forest in documented_batches(config, *index, build_trees=True):
            sizes += [tree_size(tree) for tree in forest]
            heights += [tree_height(tree) for tree in forest]
        assert res.mean_size == statistics.fmean(sizes)
        assert res.mean_height == statistics.fmean(heights)
        # The sweep and statistics.stdev both round the exact sample standard
        # deviation once; numpy's sum and square root may round twice.
        assert res.sd_size == statistics.stdev(sizes)
        assert res.sd_height == statistics.stdev(heights)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, 10**6) | st.integers(0, 3) | st.integers(0, 2**70), min_size=2, max_size=40))
def test_sweep_sd_is_the_correctly_rounded_sample_sd(values):
    mean, sd = _mean_sd(len(values), sum(values), sum(v * v for v in values))
    assert sd == statistics.stdev(values)
    assert mean == sum(values) / len(values)


def test_sweep_mean_size_at_least_mean_seeds():
    config = tiny_config(first_sharers=FittedDistribution.poisson(4.0), iterations=2)
    results = run_sweep(config)
    for res, index in zip(results, np.ndindex(1, 1, 2)):
        seed_counts = [count for stats, _ in documented_batches(config, *index) for count in stats.seeds.tolist()]
        assert res.mean_seeds == np.mean(seed_counts)
        assert res.mean_size >= res.mean_seeds


def test_sweep_sharer_sets_nest_in_delta():
    # Common random numbers: at one (phi_hl, r, iteration) every delta
    # diffuses the same items from the same seed nodes on the same graph, so
    # each item's sharer set can only grow with delta.
    config = tiny_config(phis=(0.6, 1.0), rs=(0.0, 1.0), deltas=(0.0, 0.02, 0.05, 0.1), iterations=2)
    _, forests = run_sweep(config, collect_trees=True)
    for phi_hl in config.phis:
        for r in config.rs:
            previous = [set()] * (config.m * config.iterations)
            for delta in config.deltas:
                sharers = [set(tree.user.tolist()) for tree in forests[(phi_hl, r, delta)]]
                assert all(a <= b for a, b in zip(previous, sharers))
                previous = sharers


def test_sweep_shares_news_across_delta_only():
    config = tiny_config(phis=(0.6, 1.0), rs=(0.1, 0.5), deltas=(0.02, 0.1), iterations=2)
    results = run_sweep(config)
    by_pair = {}
    for res in results:
        by_pair.setdefault((res.phi_hl, res.r), []).append(res.mean_seeds)
    assert all(a == b for a, b in by_pair.values())
    assert len({seeds[0] for seeds in by_pair.values()}) == len(by_pair)


def test_sweep_agrees_with_the_earlier_scheme():
    # Common random numbers change which draws a point sees, not their law:
    # over 30 master seeds, every point's mean size and mean height under
    # the new scheme agree with the earlier per-point-iteration scheme.
    base = dict(n=300, m=40, z=4, first_sharers=FittedDistribution.poisson(3.0),
                phis=(0.6, 1.0), rs=(0.1, 1.0), deltas=(0.05, 0.1), iterations=2)
    fields = ("mean_size", "mean_height")
    new, old = [], []
    for master_seed in range(1, 31):
        config = SweepConfig(master_seed=master_seed, **base)
        new.append([[getattr(res, f) for f in fields] for res in run_sweep(config)])
        old.append([[getattr(res, f) for f in fields] for res in earlier_scheme_sweep(config)])
    new, old = np.array(new), np.array(old)  # (seed, point, field)
    spread = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / len(new))
    z = (new.mean(axis=0) - old.mean(axis=0)) / spread
    assert np.all(np.abs(z) < 4.0), z


def test_supercritical_point_warns_but_completes():
    config = tiny_config(deltas=(0.2,), phis=(1.0,))  # mu = 2 * 0.2 * 4 = 1.6
    [result] = run_sweep(config)
    assert result.supercritical
    assert result.size_pred is None
    assert result.mu_pred == pytest.approx(1.6)


def test_sweep_predictions_attached():
    config = tiny_config(deltas=(0.02,), phis=(0.6,))
    [result] = run_sweep(config)
    assert result.mu_pred == pytest.approx(4 * (1 - 0.4) * 2 * 0.02)
    assert result.size_pred == pytest.approx(
        np.clip(result.size_pred, result.mean_size * 0.2, result.mean_size * 5.0)
    )


def assert_sweep_csv_round_trips(results, path):
    write_sweep_csv(results, path)
    rows = read_sweep_csv(path)
    assert len(rows) == len(results)
    for res, row in zip(results, rows):
        assert (row["phi_hl"], row["r"], row["delta"]) == (res.phi_hl, res.r, res.delta)
        assert row["mean_size"] == res.mean_size
        assert row["sd_height"] == res.sd_height
        assert row["mu_pred"] == res.mu_pred
        assert row["mean_seeds"] == res.mean_seeds
        assert row["size_pred"] == res.size_pred
        assert row["supercritical"] is res.supercritical


def test_sweep_csv_round_trip(tmp_path):
    results = run_sweep(tiny_config(phis=(0.6, 1.0), deltas=(0.02, 0.2)))  # mu = 1.6 at (1.0, 0.2)
    assert [res.supercritical for res in results] == [False, False, False, True]
    assert_sweep_csv_round_trips(results, tmp_path / "grid.csv")


def test_sweep_csv_round_trip_of_a_numpy_float_grid(tmp_path):
    # numpy floats are written as their numbers, not as np.float64(...)
    grid = dict(phis=np.array([0.6, 1.0]), rs=np.array([0.1]), deltas=np.array([0.02, 0.2]))
    results = run_sweep(tiny_config(**{key: tuple(values) for key, values in grid.items()}))
    assert type(results[0].phi_hl) is np.float64 and type(results[0].mu_pred) is np.float64
    assert_sweep_csv_round_trips(results, tmp_path / "grid.csv")


@pytest.mark.parametrize("change,message", [
    (lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0]] + lines[2:], "line 2: 11 cells under a header of 12"),
    (lambda lines: lines[:2] + [lines[2] + ",7"] + lines[3:], "line 3: 13 cells under a header of 12"),
], ids=["short row", "long row"])
def test_sweep_csv_rejects_rows_whose_cell_count_differs_from_the_header(tmp_path, change, message):
    path = tmp_path / "grid.csv"
    write_sweep_csv(run_sweep(tiny_config(deltas=(0.02, 0.2))), path)
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")
    with pytest.raises(ParameterError, match=message):
        read_sweep_csv(path)


def test_sweep_csv_that_is_not_utf8_is_a_parameter_error(tmp_path):
    path = tmp_path / "grid.csv"
    write_sweep_csv(run_sweep(tiny_config(deltas=(0.02,))), path)
    path.write_bytes(path.read_bytes().replace(b"phi_hl", b"phi_\xe9hl"))
    with pytest.raises(ParameterError, match="grid.csv"):
        read_sweep_csv(path)


def test_sweep_csv_rejects_malformed_cells(tmp_path):
    path = tmp_path / "grid.csv"
    write_sweep_csv(run_sweep(tiny_config(deltas=(0.02,))), path)
    text = path.read_text()
    header, row = text.splitlines()[:2]
    cells = row.split(",")
    for column, bad in (("supercritical", "no"), ("mean_size", "big"), ("iterations", "2.5")):
        broken = list(cells)
        broken[header.split(",").index(column)] = bad
        path.write_text(header + "\n" + ",".join(broken) + "\n")
        with pytest.raises(ParameterError, match=column):
            read_sweep_csv(path)


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        tiny_config(deltas=()).validate()
    with pytest.raises(ParameterError):
        tiny_config(iterations=0).validate()
    with pytest.raises(ParameterError):
        tiny_config(deltas=(1.5,)).validate()
    with pytest.raises(ParameterError):
        tiny_config(n=4).validate()


@pytest.mark.parametrize("field", ["n", "m"])
def test_config_counts_beyond_int64_name_the_field(field):
    with pytest.raises(ParameterError, match=f"config field '{field}' must fit an int64"):
        tiny_config(**{field: 10**30}).validate()
    with pytest.raises(ParameterError, match=f"'{field}'"):
        config_from_dict(config_doc({field: 2**63}))


def test_a_point_of_one_item_has_zero_standard_deviations():
    assert _mean_sd(1, 7, 49) == (7.0, 0.0)
    [result] = run_sweep(tiny_config(m=1, iterations=1, deltas=(0.1,), first_sharers=FittedDistribution.uniform(3, 3)))
    assert (result.iterations, result.mean_seeds) == (1, 3.0) and result.mean_size >= 3
    assert (result.sd_size, result.sd_height) == (0.0, 0.0)


def test_config_json_round_trip():
    config = tiny_config(first_sharers=FittedDistribution.inverse_gaussian(18.73, 9.63))
    doc = json.loads(json.dumps(config_to_dict(config)))
    back = config_from_dict(doc)
    assert back == config


def config_doc(changes: dict) -> dict:
    """tiny_config's JSON document with some fields replaced, or dropped where the value is ..."""
    doc = json.loads(json.dumps(config_to_dict(tiny_config())))
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not ...}


def test_config_from_dict_rejects_a_document_that_is_not_an_object():
    for doc in ([], "config", None, 3):
        with pytest.raises(ParameterError, match="must be a JSON object"):
            config_from_dict(doc)


@pytest.mark.parametrize("changes,field", [
    *(({key: ...}, repr(key)) for key in ("n", "m", "z", "master_seed", "first_sharers")),
    ({"n": 16889.7}, "'n'"),
    ({"n": "abc"}, "'n'"),
    ({"n": True}, "'n'"),
    ({"m": None}, "'m'"),
    ({"z": [4]}, "'z'"),
    ({"iterations": 2.5}, "'iterations'"),
    ({"master_seed": False}, "'master_seed'"),
    ({"deltas": [0.02, "a"]}, "delta 'a'"),
    ({"phis": [None]}, "phi_hl None"),
    ({"rs": [True]}, "r True"),
    ({"deltas": 0.02}, "'deltas'"),
    ({"phis": "0.6"}, "'phis'"),
    ({"deltas": [float("nan")]}, "delta nan"),
    ({"first_sharers": {"family": "poisson"}}, "'first_sharers'"),
    ({"first_sharers": {"family": "poisson", "rate": float("nan")}}, "'first_sharers'"),
    ({"first_sharers": {"family": "poisson", "rate": float("inf")}}, "'first_sharers'"),
    ({"first_sharers": {"family": "ig", "mean": 1, "shape": 1}}, "'first_sharers'"),
    ({"first_sharers": {"family": "empirical", "sample": [1, None]}}, "'first_sharers'"),
    ({"first_sharers": [2.0]}, "'first_sharers'"),
], ids=repr)
def test_config_from_dict_names_the_bad_field(changes, field):
    with pytest.raises(ParameterError) as excinfo:
        config_from_dict(config_doc(changes))
    assert field in str(excinfo.value)


def test_config_from_dict_takes_integral_floats_and_a_seed_override():
    config = config_from_dict(config_doc({"master_seed": ..., "n": 120.0}), master_seed=3)
    assert config == tiny_config(master_seed=3)
    assert type(config.n) is int


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
DISTRIBUTIONS = (
    FittedDistribution.inverse_gaussian(18.73, 9.63), FittedDistribution.log_normal(1.0, 0.5),
    FittedDistribution.poisson(2.0), FittedDistribution.uniform(0.0, 3.0),
    FittedDistribution.empirical([1, 2, 5]),
)


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(DISTRIBUTIONS), st.data())
def test_mutated_config_document_loads_and_round_trips_or_is_a_parameter_error(dist, data):
    doc = json.loads(json.dumps(config_to_dict(tiny_config(first_sharers=dist))))
    target = data.draw(st.sampled_from([doc, doc["first_sharers"]]))
    key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    if data.draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = data.draw(JSON_VALUES)
    try:
        config = config_from_dict(doc)
    except ParameterError:
        return
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_default_grids_cover_reference_protocol():
    # delta 0.01..0.05 step 0.005, phi_hl 0.5..1 step 0.02, four r values
    from cascadekit.harness import DEFAULT_DELTA_GRID, DEFAULT_PHI_GRID, DEFAULT_R_GRID

    assert DEFAULT_DELTA_GRID[0] == 0.01 and DEFAULT_DELTA_GRID[-1] == 0.05
    assert len(DEFAULT_DELTA_GRID) == 9
    assert DEFAULT_PHI_GRID[0] == 0.5 and DEFAULT_PHI_GRID[-1] == 1.0
    assert len(DEFAULT_PHI_GRID) == 26
    assert DEFAULT_R_GRID == (0.01, 0.1, 0.5, 1.0)
    config = SweepConfig(n=5000, m=1000, z=8, master_seed=0,
                         first_sharers=FittedDistribution.inverse_gaussian(18.73, 9.63))
    config.validate()
    assert len(config.grid()) == 9 * 26 * 4
    assert config.iterations == 100


def test_troll_preset_parameters():
    config = troll_fit_config(master_seed=1, iterations=20)
    assert (config.n, config.m, config.z) == (16889, 1072, 8)
    assert config.grid() == [(0.56, 0.01, 0.015)]
    assert config.first_sharers.family == "inverse_gaussian"
    assert config.first_sharers.params == {"mean": 18.73, "shape": 9.63}


# --- loading ---------------------------------------------------------------------

def test_ingest_single_node_tree(tmp_path):
    tree = tree_from_nodes("post-1", "science", [(0, "user-9", -0.2, 12.5, None)], virtual_root=False, page_sign=-1)
    path = tmp_path / "trees.json"
    save_trees([tree], path)
    [back] = load_trees(path)
    assert tree_size(back) == 1
    assert back.news_id == "post-1"


def test_ingest_reports_cycles_with_node_context(tmp_path):
    doc = [{
        "news_id": 5, "category": "science",
        "root": {"virtual": True, "page_sign": -1},
        "nodes": [
            {"id": 0, "user": 1, "sigma": 0.5, "t": 0, "parent": 1},
            {"id": 1, "user": 2, "sigma": 0.5, "t": 0, "parent": 0},
        ],
    }]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeCycleError, match="node"):
        load_trees(path)


def test_ingest_detects_orphans_and_bad_json(tmp_path):
    doc = [{
        "news_id": 6, "category": "troll",
        "root": {"virtual": True, "page_sign": 1},
        "nodes": [{"id": 0, "user": 1, "sigma": 0.5, "t": 0, "parent": 42}],
    }]
    path = tmp_path / "orphan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(OrphanParentError):
        load_trees(path)
    broken = tmp_path / "broken.json"
    broken.write_text("[{]")
    with pytest.raises(TreeSchemaError, match="malformed JSON"):
        load_trees(broken)


def test_simulated_batch_round_trip_preserves_metrics(tmp_path):
    from cascadekit.diffusion import run_batch, sample_news
    from cascadekit.graph import generate_small_world, label_edges

    g = label_edges(generate_small_world(500, 6, 0.3, seed=31), 0.7, seed=32)
    news = sample_news(1000, FittedDistribution.poisson(2.5), seed=33, max_count=500)
    trees_in = [o.tree for o in run_batch(g, news, 0.05, seed=34)]
    path = tmp_path / "batch.json"
    save_trees(trees_in, path)
    trees_out = load_trees(path)
    assert len(trees_out) == 1000
    for a, b in zip(trees_in, trees_out):
        assert metrics_rows([a]) == metrics_rows([b])


# --- analysis --------------------------------------------------------------------

def make_tree(news_id, category, sigmas, t_step=1.0):
    page_sign = -1 if category == "science" else 1
    nodes = [(i, f"u{news_id}-{i}", s, i * t_step, None if i == 0 else i - 1) for i, s in enumerate(sigmas)]
    return tree_from_nodes(news_id, category, nodes, virtual_root=True, page_sign=page_sign)


def test_analyze_size_one_trees_degenerate_curves():
    batch = [make_tree(i, "science", [0.5]) for i in range(20)]
    result = analyze(batch, by_category=True)
    group = result.groups["science"]
    xs, ys = group.curves["size_ccdf"]
    assert xs.tolist() == [1.0]
    assert ys.tolist() == [0.0]  # CCDF is a step: 1 below size 1, 0 at 1
    assert all(row["lifetime"] == 0.0 for row in group.metric_rows)


def test_analyze_identical_groups_accept_ks_null():
    rng = np.random.default_rng(44)
    sizes = [int(s) for s in rng.integers(1, 40, size=60)]
    science = [make_tree(i, "science", [0.5] * k) for i, k in enumerate(sizes)]
    conspiracy = [make_tree(1000 + i, "conspiracy", [0.5] * k) for i, k in enumerate(sizes)]
    result = analyze(science + conspiracy)
    ks_rows = [row for row in result.comparisons if row["test"] == "ks_size"]
    assert len(ks_rows) == 1
    assert ks_rows[0]["statistic"] == 0.0
    assert not ks_rows[0]["reject"]


def test_analyze_rejects_empty_input():
    with pytest.raises(ParameterError):
        analyze([])


def test_analyze_groups_and_curves_present():
    rng = np.random.default_rng(45)
    batch = [make_tree(i, "science", rng.uniform(-1, 1, size=rng.integers(1, 8)).tolist()) for i in range(40)]
    batch += [make_tree(100 + i, "troll", rng.uniform(-1, 1, size=rng.integers(1, 12)).tolist()) for i in range(40)]
    result = analyze(batch)
    for name in ("science", "troll"):
        curves = result.groups[name].curves
        for key in ("size_ccdf", "height_cdf", "lifetime_pdf", "mean_homogeneity_pdf",
                    "sharing_paths_ccdf", "homogeneous_paths_ccdf", "lifetime_by_size",
                    "size_by_homogeneity"):
            assert key in curves, key
    assert any(row["test"] == "wald_size_alpha" for row in result.comparisons)


def test_write_analysis_emits_parseable_csv(tmp_path):
    rng = np.random.default_rng(46)
    batch = [make_tree(i, "science", rng.uniform(-1, 1, size=rng.integers(1, 6)).tolist()) for i in range(30)]
    batch += [make_tree(50 + i, "conspiracy", rng.uniform(-1, 1, size=rng.integers(1, 6)).tolist()) for i in range(30)]
    result = analyze(batch)
    written = write_analysis(result, tmp_path / "out")
    assert (tmp_path / "out" / "metrics.csv").exists()
    import csv as csv_mod

    for path in written:
        with open(path, newline="") as fh:
            rows = list(csv_mod.reader(fh))
        assert len(rows) >= 1
    xs, ys = result.groups["science"].curves["size_ccdf"]
    with open(tmp_path / "out" / "science__size_ccdf.csv", newline="") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert [float(r["x"]) for r in rows] == xs.tolist()
    assert [float(r["y"]) for r in rows] == ys.tolist()
