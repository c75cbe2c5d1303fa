import concurrent.futures
import dataclasses
import json
import logging
import multiprocessing
import os
import statistics
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import diffusion, files, harness
from cascadekit.diffusion import diffuse
from cascadekit.errors import (
    OrphanParentError,
    ParameterError,
    TreeCycleError,
    TreeSchemaError,
)
from cascadekit.graph import generate_small_world
from cascadekit.harness import (
    SWEEP_COLUMNS,
    SweepConfig,
    _mean_sd,
    analyze,
    config_from_dict,
    config_to_dict,
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

from oracles import earlier_scheme_sweep, sweep_batches, tree_from_nodes


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


def test_sweep_aggregation_matches_naive_recomputation():
    config = tiny_config(phis=(0.5, 0.6), rs=(0.1, 0.2), deltas=(0.02, 0.05), iterations=3)
    results = run_sweep(config)
    for res, index in zip(results, np.ndindex(2, 2, 2)):
        sizes, heights = [], []
        for _, forest in sweep_batches(config, *index, build_trees=True):
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


def test_a_sweep_draws_the_seed_nodes_once_per_phi_r_and_iteration(monkeypatch):
    monkeypatch.setattr(harness, "_worker_count", lambda tasks: 1)  # in-process, so the calls can be counted here
    calls, seed_nodes = [], diffusion._seed_nodes

    def counted(*args):
        calls.append(args)
        return seed_nodes(*args)

    monkeypatch.setattr(diffusion, "_seed_nodes", counted)
    config = tiny_config(phis=(0.5, 0.6), rs=(0.1, 0.2), deltas=(0.1, 0.02, 0.1), iterations=3)
    run_sweep(config)
    assert len(calls) == len(config.phis) * len(config.rs) * config.iterations


def test_sweep_mean_size_at_least_mean_seeds():
    config = tiny_config(first_sharers=FittedDistribution.poisson(4.0), iterations=2)
    results = run_sweep(config)
    for res, index in zip(results, np.ndindex(1, 1, 2)):
        seed_counts = [count for stats, _ in sweep_batches(config, *index) for count in stats.seeds.tolist()]
        assert res.mean_seeds == np.mean(seed_counts)
        assert res.mean_size >= res.mean_seeds


def test_sweep_sharer_sets_nest_in_delta():
    # Common random numbers: at one (phi_hl, r, iteration) every delta
    # diffuses the same items from the same seed nodes on the same graph, so
    # each item's sharer set can only grow with delta.
    config = tiny_config(phis=(0.6, 1.0), rs=(0.0, 1.0), deltas=(0.0, 0.02, 0.05, 0.1), iterations=2)
    for i, j in np.ndindex(len(config.phis), len(config.rs)):
        previous = [set()] * (config.m * config.iterations)
        for d in range(len(config.deltas)):
            sharers = [set(tree.user.tolist()) for _, forest in sweep_batches(config, i, j, d, build_trees=True)
                       for tree in forest]
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


def test_sweep_agrees_with_the_earlier_scheme(monkeypatch):
    # Common random numbers change which draws a point sees, not their law:
    # over 30 master seeds, every point's mean size and mean height under
    # the new scheme agree with the earlier per-point-iteration scheme. The
    # results do not depend on the worker count, so the 30 small sweeps run
    # in this process rather than each on a pool of its own.
    monkeypatch.setattr(harness, "_worker_count", lambda tasks: 1)
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


# --- the task pool ---------------------------------------------------------------

@pytest.fixture(params=[1, 2], ids=["in-process", "two workers"])
def workers(request, monkeypatch):
    """Run the sweep's tasks in-process or on a fork pool of two workers."""
    monkeypatch.setattr(harness, "_worker_count", lambda tasks: min(request.param, tasks))
    return request.param


def test_worker_count_is_the_cpus_this_process_may_use_capped_by_the_tasks(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert [harness._worker_count(tasks) for tasks in (1, cpus, cpus + 5)] == [1, cpus, cpus]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [harness._worker_count(tasks) for tasks in (2, 400)] == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._worker_count(400) == 1


@pytest.mark.parametrize("unsafe", ["no fork", "another thread"])
def test_without_a_safe_fork_the_tasks_run_in_process(monkeypatch, unsafe):
    expected = run_sweep(tiny_config(rs=(0.1, 0.5)))
    monkeypatch.setattr(harness, "_worker_count", lambda tasks: min(2, tasks))

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    if unsafe == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert run_sweep(tiny_config(rs=(0.1, 0.5))) == expected
        return
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run_sweep(tiny_config(rs=(0.1, 0.5))) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_an_error_in_a_task_reaches_the_caller_unchanged(monkeypatch, workers):
    def failing(graph, *args, **kwargs):
        if graph.rewiring_probability == 0.5:
            raise ParameterError("no diffusion at r=0.5")
        return diffuse(graph, *args, **kwargs)

    monkeypatch.setattr(harness, "diffuse", failing)
    with pytest.raises(ParameterError) as excinfo:
        run_sweep(tiny_config(rs=(0.1, 0.5, 0.9)))
    assert type(excinfo.value) is ParameterError and str(excinfo.value) == "no diffusion at r=0.5"
    assert multiprocessing.active_children() == []


def test_the_tasks_run_in_the_workers_and_no_worker_outlives_the_sweep(monkeypatch, tmp_path, workers):
    log = tmp_path / "pids"

    def logged(graph, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return diffuse(graph, *args, **kwargs)

    monkeypatch.setattr(harness, "diffuse", logged)
    run_sweep(tiny_config(rs=(0.1, 0.5)))
    assert multiprocessing.active_children() == [] and threading.active_count() == 1  # so the next sweep forks
    pids = set(log.read_text().split())
    assert (str(os.getpid()) in pids) == (workers == 1) and len(pids) <= workers


def test_an_error_cancels_the_tasks_not_yet_started(monkeypatch, tmp_path):
    # 20 tasks on two workers: the first (r = 0.1) fails at once and the
    # others take 0.1 s each. Besides it, only the tasks running on the two
    # workers and the workers + 1 the pool queues ahead start: 6 at most.
    monkeypatch.setattr(harness, "_worker_count", lambda tasks: min(2, tasks))
    log, original = tmp_path / "started", harness.generate_small_world

    def slow(n, z, r, seed):
        with open(log, "a") as fh:
            fh.write(f"{r}\n")
        if r == 0.1:
            raise ParameterError("first task fails")
        time.sleep(0.1)
        return original(n, z, r, seed=seed)

    monkeypatch.setattr(harness, "generate_small_world", slow)
    with pytest.raises(ParameterError, match="first task fails"):
        run_sweep(tiny_config(rs=tuple(k / 20 for k in range(2, 21)) + (0.01,), iterations=1))
    assert multiprocessing.active_children() == []
    assert 1 <= len(log.read_text().splitlines()) < 12  # slack for a slow host; no cancel starts all 20


def test_sweep_csv_cells_are_the_reprs_of_the_results(tmp_path):
    # repr is a float's shortest round-tripping form; a missing size_pred is a blank cell
    results = run_sweep(tiny_config(phis=(0.6, 1.0), deltas=(0.02, 0.2)))  # mu = 1.6 at (1.0, 0.2)
    assert [res.supercritical for res in results] == [False, False, False, True]
    path = tmp_path / "grid.csv"
    write_sweep_csv(results, path)
    assert files.read_csv(path, ParameterError) == [list(SWEEP_COLUMNS)] + [
        ["" if value is None else repr(value) for value in vars(res).values()] for res in results]


def test_sweep_csv_of_a_numpy_float_grid_is_that_of_the_python_float_grid(tmp_path):
    # numpy floats, in the grid or in a result, are written as their numbers, not as np.float64(...)
    grid = dict(phis=np.array([0.6, 1.0]), rs=np.array([0.1]), deltas=np.array([0.02, 0.2]))
    results = run_sweep(tiny_config(**{key: tuple(values) for key, values in grid.items()}))
    results = [dataclasses.replace(res, **{key: np.float64(value) for key, value in vars(res).items()
                                           if type(value) is float}) for res in results]
    assert type(results[0].phi_hl) is np.float64 and type(results[0].mu_pred) is np.float64
    write_sweep_csv(results, tmp_path / "numpy.csv")
    write_sweep_csv(run_sweep(tiny_config(**{key: tuple(values.tolist()) for key, values in grid.items()})),
                    tmp_path / "python.csv")
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        tiny_config(deltas=())
    with pytest.raises(ParameterError):
        tiny_config(iterations=0)
    with pytest.raises(ParameterError, match="m >= 1"):
        tiny_config(m=0)
    with pytest.raises(ParameterError):
        tiny_config(deltas=(1.5,))
    with pytest.raises(ParameterError):
        tiny_config(n=4)


@pytest.mark.parametrize("changes,field", [
    ({"z": "4"}, "'z'"),
    ({"m": 2.5}, "'m'"),
    ({"m": True}, "'m'"),
    ({"iterations": 2.5}, "'iterations'"),
    ({"deltas": 0.1}, "'deltas'"),
    ({"phis": np.array([0.6])}, "'phis'"),
    ({"first_sharers": {"family": "poisson", "rate": 2.0}}, "'first_sharers'"),
], ids=repr)
def test_config_made_in_python_names_the_bad_field(changes, field):
    with pytest.raises(ParameterError) as excinfo:
        tiny_config(**changes)
    assert f"config field {field}" in str(excinfo.value)


def test_config_holds_python_ints_and_tuples_and_is_frozen(tmp_path):
    config = tiny_config(n=np.int64(120), m=40.0, z=np.int32(4), master_seed=np.uint8(5), iterations=np.int64(2),
                         deltas=[np.float64(0.02), 0.1], phis=[0.6], rs=[0.2])
    assert config == tiny_config()
    assert all(type(getattr(config, name)) is int for name in ("n", "m", "z", "master_seed", "iterations"))
    assert type(config.deltas) is tuple and type(config.deltas[0]) is float
    harness.save_config(config, tmp_path / "numpy.json")
    harness.save_config(tiny_config(), tmp_path / "python.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.iterations = 5
    assert dataclasses.replace(config, iterations=5).iterations == 5
    with pytest.raises(ParameterError, match="iterations >= 1"):
        dataclasses.replace(config, iterations=0)


@pytest.mark.parametrize("scalar", [np.int64, np.float32, np.float64])
def test_a_config_of_numpy_grid_values_saves_loads_and_sweeps_as_it_was(scalar, tmp_path):
    config = tiny_config(deltas=(scalar(1), scalar(0.05)), phis=(scalar(0.6),), rs=(scalar(0.2), 0.5), iterations=1)
    assert all(type(v) in (int, float) for v in config.deltas + config.phis + config.rs)
    harness.save_config(config, tmp_path / "config.json")
    loaded = harness.load_config(tmp_path / "config.json")
    assert loaded == config
    assert run_sweep(loaded) == run_sweep(config)


@pytest.mark.parametrize("field", ["n", "m"])
def test_config_counts_beyond_int64_name_the_field(field):
    with pytest.raises(ParameterError, match=f"config field '{field}' must fit an int64"):
        tiny_config(**{field: 10**30})
    with pytest.raises(ParameterError, match=f"'{field}'"):
        config_from_dict(config_doc({field: 2**63}))


def test_a_point_of_one_item_has_zero_standard_deviations():
    assert _mean_sd(1, 7, 49) == (7.0, 0.0)
    [result] = run_sweep(tiny_config(m=1, iterations=1, deltas=(0.1,), first_sharers=FittedDistribution.uniform(3, 3)))
    assert (result.iterations, result.mean_seeds) == (1, 3.0) and result.mean_size >= 3
    assert (result.sd_size, result.sd_height) == (0.0, 0.0)


@pytest.mark.parametrize("z", [3, 0, -2, 1])
def test_config_rejects_a_ring_degree_the_graph_builder_rejects(z):
    with pytest.raises(ParameterError) as builder:
        generate_small_world(120, z, 0.2, seed=0)
    for make in (lambda: tiny_config(z=z), lambda: config_from_dict(config_doc({"z": z}))):
        with pytest.raises(ParameterError) as excinfo:
            make()
        assert str(excinfo.value) == str(builder.value) == f"ring degree must be even and >= 2, got {z}"


def test_config_from_dict_takes_each_left_out_field_from_the_dataclass_default():
    doc = config_doc({"deltas": ..., "phis": ..., "rs": ..., "iterations": ...})
    defaults = SweepConfig(n=120, m=40, z=4, master_seed=5, first_sharers=FittedDistribution.poisson(2.0))
    assert config_from_dict(doc) == defaults
    assert config_from_dict(json.loads(json.dumps(config_to_dict(defaults)))) == defaults


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
    ({"m": 0}, "m=0"),  # an empty news batch would pool no cascades and write NaN means
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
    # What loads can be used: a sweep cut to at most 60 nodes, 8 items, one
    # iteration and two values per grid runs in this process, with no numpy warning.
    try:
        small = dataclasses.replace(config, n=min(config.n, 60), m=min(config.m, 8), iterations=1,
                                    deltas=config.deltas[:2], phis=config.phis[:2], rs=config.rs[:2])
    except ParameterError:
        return
    with mock.patch.object(harness, "_worker_count", lambda tasks: 1), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            results = run_sweep(small)
        except ParameterError as exc:  # a first-sharer model that can draw below 0 loads, and sample_news rejects it
            assert "negative draws" in str(exc)
            return
    assert [(res.phi_hl, res.r, res.delta) for res in results] == small.grid()


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
    assert len(config.grid()) == 9 * 26 * 4
    assert config.iterations == 100


def test_troll_preset_parameters():
    config = troll_fit_config(master_seed=1)
    assert (config.n, config.m, config.z, config.iterations) == (16889, 1072, 8, 100)
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


def test_analyze_skips_ks_on_a_category_of_only_empty_trees(caplog):
    # an empty tree has size 0 but no lifetime, so the troll lifetimes are an empty sample
    batch = [make_tree(i, "science", [0.5] * (1 + i % 5)) for i in range(10)]
    batch += [make_tree(100 + i, "troll", []) for i in range(5)]
    with caplog.at_level(logging.WARNING, logger="cascadekit.harness"):
        result = analyze(batch)
    assert "skipping KS on lifetime for (science, troll): empty sample" in caplog.messages
    assert [row["test"] for row in result.comparisons] == ["ks_size"]


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
