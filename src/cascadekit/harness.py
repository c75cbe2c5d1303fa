"""Parameter sweeps and cascade analysis.

A SweepConfig is frozen and checks every field when it is made, from a
document or in Python. run_sweep walks its (phi_hl, r, delta) grid with
common random numbers from one master seed, runs its tasks on one forked
worker per CPU (each worker sets glibc's mmap and trim thresholds once, so
its first tasks do not map and fault in every temporary array afresh; the
caller's allocator is untouched), and pools cascade sizes and heights into
per-point means and standard deviations, bit-identical on any number of
workers, alongside the closed-form branching predictions; it builds no
sharing trees. analyze takes a Forest or any sequence of trees and
computes their metric rows in one trees.metrics_rows pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import os
import threading
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import branching, files, stats, trees
from .diffusion import BatchStats, diffuse, sample_news
from .errors import DegenerateSampleError, ParameterError, SupercriticalError, is_integer, is_unit
from .graph import check_size, generate_small_world, label_by_order
from .stats import FittedDistribution
from .trees import Forest

log = logging.getLogger(__name__)

DEFAULT_DELTA_GRID = tuple(np.round(np.arange(0.01, 0.0501, 0.005), 4).tolist())
DEFAULT_PHI_GRID = tuple(np.round(np.arange(0.5, 1.0001, 0.02), 4).tolist())
DEFAULT_R_GRID = (0.01, 0.1, 0.5, 1.0)


@dataclass(frozen=True)
class SweepConfig:
    """Full description of a Monte Carlo sweep, checked when it is made.

    An integer field takes an int or an integral float, not a bool, and holds
    an int; a grid takes a non-empty list or tuple of numbers in [0, 1] and
    holds a tuple of them as given, a numpy scalar as its .item(). A bad field
    is a ParameterError. The config is frozen: dataclasses.replace makes a
    changed copy, checked again.
    """

    n: int
    m: int
    z: int
    master_seed: int
    first_sharers: FittedDistribution
    deltas: tuple = DEFAULT_DELTA_GRID
    phis: tuple = DEFAULT_PHI_GRID
    rs: tuple = DEFAULT_R_GRID
    iterations: int = 100

    def __post_init__(self) -> None:
        for name in ("n", "m", "z", "master_seed", "iterations"):
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if not is_integer(value):
                raise ParameterError(f"config field {name!r} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name, label in (("deltas", "delta"), ("phis", "phi_hl"), ("rs", "r")):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)):
                raise ParameterError(f"config field {name!r} must be a list of numbers, got {grid!r}")
            if not grid:
                raise ParameterError(f"sweep grid of {label} is empty")
            for v in grid:
                if not is_unit(v):
                    raise ParameterError(f"{label} {v!r} is not a number in [0, 1]")
            object.__setattr__(self, name, tuple(v.item() if isinstance(v, np.generic) else v for v in grid))
        if not isinstance(self.first_sharers, FittedDistribution):
            raise ParameterError(f"config field 'first_sharers' must be a FittedDistribution, got {self.first_sharers!r}")
        for name, count in (("n", self.n), ("m", self.m)):
            if count >= 2**63:
                raise ParameterError(f"config field {name!r} must fit an int64, got {count}")
        check_size(self.n, self.z)
        if self.m < 1 or self.iterations < 1 or self.master_seed < 0:
            raise ParameterError(f"need m >= 1, iterations >= 1 and master_seed >= 0, got m={self.m}, "
                                 f"iterations={self.iterations}, master_seed={self.master_seed}")

    def grid(self) -> list[tuple[float, float, float]]:
        """Grid points in canonical (phi_hl, r, delta) order."""
        return list(itertools.product(self.phis, self.rs, self.deltas))


@dataclass
class SweepResult:
    """Pooled cascade statistics at one grid point plus analytic predictions."""

    phi_hl: float
    r: float
    delta: float
    mean_size: float
    sd_size: float
    mean_height: float
    sd_height: float
    mu_pred: float
    size_pred: float | None
    iterations: int
    mean_seeds: float
    supercritical: bool = False


def config_to_dict(config: SweepConfig) -> dict:
    """The config's fields in field order, with the grids as lists and first_sharers as its to_dict()."""
    doc = {key: list(value) if isinstance(value, (tuple, list)) else value for key, value in vars(config).items()}
    return doc | {"first_sharers": config.first_sharers.to_dict()}


def config_from_dict(doc: dict, master_seed: int | None = None) -> SweepConfig:
    """The SweepConfig of a config_to_dict document; SweepConfig checks it.

    A given master_seed replaces the document's. A field the document leaves
    out takes its SweepConfig default (None for a required one). Raises
    ParameterError, naming the field, for a bad field or a non-object document.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"a sweep config must be a JSON object, got {type(doc).__name__}")
    try:
        first_sharers = FittedDistribution.from_dict(doc.get("first_sharers"))
    except ParameterError as exc:
        raise ParameterError(f"config field 'first_sharers': {exc}") from exc
    values = {f.name: doc.get(f.name, None if f.default is MISSING else f.default) for f in fields(SweepConfig)}
    values["first_sharers"] = first_sharers
    if master_seed is not None:
        values["master_seed"] = master_seed
    return SweepConfig(**values)


def load_config(path, master_seed: int | None = None) -> SweepConfig:
    return config_from_dict(files.read_json(path, ParameterError, "malformed config JSON"), master_seed)


def save_config(config: SweepConfig, path) -> None:
    files.write_json(path, config_to_dict(config), indent=2)


def troll_fit_config(master_seed: int) -> SweepConfig:
    """Named preset for the troll-page scenario: 16889 users, 1072 items,
    inverse-Gaussian(18.73, 9.63) first sharers at (phi_hl, r, delta) =
    (0.56, 0.01, 0.015), over the default 100 iterations."""
    return SweepConfig(
        n=16889,
        m=1072,
        z=8,
        master_seed=master_seed,
        first_sharers=FittedDistribution.inverse_gaussian(18.73, 9.63),
        deltas=(0.015,),
        phis=(0.56,),
        rs=(0.01,),
    )


PRESETS = {"troll": troll_fit_config}


def run_sweep(config: SweepConfig) -> list[SweepResult]:
    """Execute every grid point of the sweep.

    Statistics pool all cascades of all iterations of a point. The sweep
    uses common random numbers: each input is drawn once and shared by
    every point that can share it. With r at index j of config.rs and phi_hl
    at index i of config.phis, iteration k draws
      - the graph and its edge labeling from the two children of
        SeedSequence(master_seed, spawn_key=(0, j, k)): one graph per
        (r, iteration), shared across phi_hl and delta, and one labeling
        seed, whose edge permutation (label_edges' draw) is drawn once and
        cut off at each phi_hl, so the homogeneous edge sets nest across
        phi_hl;
      - the news batch and the diffuse seed from the two children of
        SeedSequence(master_seed, spawn_key=(1, i, j, k)), shared across
        delta only, so the deltas of one (phi_hl, r, iteration) diffuse the
        same items from the same seed nodes.
    So each (r, iteration) is one task: it builds its graph, labels it for
    every phi_hl, samples the news and diffuses every delta in one diffuse
    call per phi_hl, which draws the seed nodes once, and returns the
    integer moments of each of its points; diffuse(..., build_trees=True)
    under the same seeds rebuilds the sharing trees. The tasks run on
    min(CPUs this process may use, task count) worker processes, started
    with fork and joined before run_sweep returns or raises; with one
    worker, where fork is not available or while another thread runs, they
    run in this process. The moments are summed in task order, r and then
    the iteration, so the results, one per grid point in grid() order, do
    not depend on the worker count. An error in a task cancels the tasks
    not yet started and reaches the caller as the same exception.
    """
    # Grid points by (phi, r, delta) index, in grid() order. Each point pools
    # its batches' _moments, so memory does not grow with the iterations.
    points = list(zip(np.ndindex(len(config.phis), len(config.rs), len(config.deltas)), config.grid()))
    sums = {index: [0] * 6 for index, _ in points}
    tasks = list(itertools.product(range(len(config.rs)), range(config.iterations)))
    with _task_map(len(tasks)) as task_map:
        for outputs in task_map(functools.partial(_sweep_task, config), tasks):
            for index, moments in outputs:
                sums[index] = [a + b for a, b in zip(sums[index], moments)]
    return [_pooled_result(config, point, sums[index]) for index, point in points]


def _sweep_task(config: SweepConfig, task: tuple[int, int]) -> list[tuple]:
    """Task (j, k), iteration k at r = config.rs[j]: (point index, _moments) per (phi_hl, delta)."""
    j, k = task
    s_graph, s_label = np.random.SeedSequence(config.master_seed, spawn_key=(0, j, k)).spawn(2)
    g = generate_small_world(config.n, config.z, config.rs[j], seed=s_graph)
    order = np.random.default_rng(s_label).permutation(g.edge_count)  # label_edges' draw, once for every phi_hl
    outputs = []
    for i, phi_hl in enumerate(config.phis):
        labeled = label_by_order(g, order, phi_hl)
        s_news, s_batch = np.random.SeedSequence(config.master_seed, spawn_key=(1, i, j, k)).spawn(2)
        news = sample_news(config.m, config.first_sharers, seed=s_news, max_count=config.n)
        batches = diffuse(labeled, news, config.deltas, seed=s_batch)
        outputs += [((i, j, d), _moments(batch)) for d, (batch, _) in enumerate(batches)]
    return outputs


def _worker_count(task_count: int) -> int:
    """One worker per CPU this process may run on, and no more than there are tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, task_count))


@contextlib.contextmanager
def _task_map(task_count: int):
    """A map for task_count tasks: over a fork pool of _worker_count workers, or in-process.

    Fork, not spawn: a spawned worker imports cascadekit afresh, which takes
    longer than a small sweep. Each worker runs _warm_allocator once before
    its first task: with glibc's starting thresholds a worker's first
    sweep_grid task took about 9,000 minor page faults, with them set about
    2,700. The calling process never runs it, so its allocator stays as it
    was. The pool's map yields results in task order.
    On leaving the block the pool cancels the tasks not yet started and
    joins every worker, also when the block raises. With one worker, where
    fork is not available, or while another thread runs (a forked child
    holds only the calling thread, and a lock held by another would never
    be released in it), the builtin map runs the tasks in-process.
    """
    import multiprocessing  # imported here: a sweep is the only user, and the pool modules take about 20 ms
    from concurrent.futures import ProcessPoolExecutor

    workers = _worker_count(task_count)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        yield map
        return
    # numpy imports numpy.random on first use. The tasks need it; imported before the fork, it
    # is imported once, not in each worker of each sweep.
    import numpy.random

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_warm_allocator)
    try:
        yield pool.map
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# glibc's mallopt parameters (malloc.h) and what each pool worker sets them to: the mmap
# threshold at DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, where glibc's own dynamic rule tops
# out, and the trim threshold at twice that, as that rule keeps it.
_WORKER_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))  # (M_MMAP_THRESHOLD, bytes), (M_TRIM_THRESHOLD, bytes)


def _warm_allocator() -> None:
    """Set each _WORKER_MALLOPT threshold in this process; where glibc's mallopt is missing, do nothing.

    The pool runs it once in each worker, never in the caller. A worker
    forked from a process that never freed a large block inherits glibc's
    starting mmap threshold of 128 KiB, so every temporary array above it
    is mapped, faulted in page by page and unmapped again until the dynamic
    rule raises the threshold. Setting either threshold turns that rule
    off, so both are set. A failed call leaves the defaults, and nothing
    raises: an initializer that raises breaks the pool.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the C library already loaded; no lookup by name
    except (OSError, AttributeError):  # no C library to open, or one without mallopt (not glibc)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _WORKER_MALLOPT:
        mallopt(param, value)  # 0 where glibc refuses the value, which then keeps its default


def _moments(batch: BatchStats) -> list[int]:
    """Item count and the sums of seeds, sizes, squared sizes, heights and squared heights."""
    sizes, heights = batch.sizes, batch.heights
    return [sizes.size, int(batch.seeds.sum()), int(sizes.sum()), int(sizes @ sizes),
            int(heights.sum()), int(heights @ heights)]


def _mean_sd(count: int, total: int, squares: int) -> tuple[float, float]:
    """Mean and sample standard deviation from exact integer moments (count >= 1), each rounded once."""
    if count == 1:
        return total / count, 0.0
    return total / count, _sqrt_of_ratio(count * squares - total * total, count * (count - 1))


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, correctly rounded to a float.

    The integer root is taken to 2*53+3 bits of num/den, so it keeps at least
    two bits beyond a float's 53, and its last bit is set when it is inexact
    (round to odd); the one conversion to float then rounds it correctly, as
    statistics.stdev does.
    """
    q = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def _pooled_result(config: SweepConfig, point: tuple[float, float, float], sums: list[int]) -> SweepResult:
    phi_hl, r, delta = point
    count, seeds, size_sum, size_squares, height_sum, height_squares = sums
    mu = branching.branching_ratio(config.z, delta, q=1.0 - phi_hl)
    mean_seeds = seeds / count
    try:
        size_pred = branching.expected_cascade_size(mean_seeds, mu)
        supercritical = False
    except SupercriticalError:
        size_pred = None
        supercritical = True
        log.warning(
            "grid point (phi_hl=%s, r=%s, delta=%s) is supercritical (mu=%.3f); no size prediction",
            phi_hl, r, delta, mu,
        )
    mean_size, sd_size = _mean_sd(count, size_sum, size_squares)
    mean_height, sd_height = _mean_sd(count, height_sum, height_squares)
    return SweepResult(
        phi_hl=phi_hl,
        r=r,
        delta=delta,
        mean_size=mean_size,
        sd_size=sd_size,
        mean_height=mean_height,
        sd_height=sd_height,
        mu_pred=mu,
        size_pred=size_pred,
        iterations=config.iterations,
        mean_seeds=mean_seeds,
        supercritical=supercritical,
    )


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepResult))


def write_sweep_csv(results: list[SweepResult], path) -> None:
    files.write_csv(path, SWEEP_COLUMNS, map(vars, results))


# --- analysis --------------------------------------------------------------------

@dataclass
class GroupAnalysis:
    """Metric rows and distribution curves for one category of trees."""

    category: str
    tree_count: int
    metric_rows: list[dict]
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass
class AnalysisResult:
    groups: dict[str, GroupAnalysis]
    comparisons: list[dict]


def _binned_mean(x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of y per x bin; empty bins are dropped."""
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (x >= lo) & (x < hi) if hi < edges[-1] else (x >= lo) & (x <= hi)
        if np.any(mask):
            centers.append(0.5 * (lo + hi))
            means.append(float(y[mask].mean()))
    return np.asarray(centers), np.asarray(means)


def _group_curves(rows: list[dict]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    bins = 20  # of the two pdfs and the two binned means
    sizes = np.array([row["size"] for row in rows], dtype=float)
    heights = np.array([row["height"] for row in rows], dtype=float)
    lifetimes = np.array([row["lifetime"] for row in rows if row["lifetime"] is not None], dtype=float)
    homos = np.array([row["mean_homogeneity"] for row in rows if row["mean_homogeneity"] is not None], dtype=float)
    paths = np.array([row["paths"] for row in rows], dtype=float)
    homo_paths = np.array([row["homo_paths"] for row in rows], dtype=float)

    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {
        "size_ccdf": stats.empirical_ccdf(sizes),
        "height_cdf": stats.empirical_cdf(heights),
        "sharing_paths_ccdf": stats.empirical_ccdf(paths),
        "homogeneous_paths_ccdf": stats.empirical_ccdf(homo_paths),
    }
    if lifetimes.size:
        try:
            curves["lifetime_pdf"] = stats.empirical_pdf(lifetimes, bins=bins)
        except DegenerateSampleError as exc:
            log.warning("skipping lifetime_pdf: %s", exc)
    if homos.size:
        curves["mean_homogeneity_pdf"] = stats.empirical_pdf(homos, bins=np.linspace(-1, 1, bins + 1))
    if lifetimes.size:
        defined = np.array([row["size"] for row in rows if row["lifetime"] is not None], dtype=float)
        top = max(defined.max(), 1.0)
        edges = np.unique(np.geomspace(1.0, top + 1.0, bins))
        if edges.size >= 2:
            curves["lifetime_by_size"] = _binned_mean(defined, lifetimes, edges)
    if homos.size:
        defined = np.array([row["size"] for row in rows if row["mean_homogeneity"] is not None], dtype=float)
        curves["size_by_homogeneity"] = _binned_mean(homos, defined, np.linspace(-1, 1, bins + 1))
    return curves


# A comparison row; reference is the KS critical value or the Wald p-value.
COMPARISON_COLUMNS = ("test", "group_a", "group_b", "statistic", "reference", "reject")


def _compare_groups(groups: dict[str, GroupAnalysis]) -> list[dict]:
    comparisons = []
    names = sorted(groups)
    for a, b in itertools.combinations(names, 2):
        rows_a, rows_b = groups[a].metric_rows, groups[b].metric_rows
        for metric in ("size", "lifetime"):
            s1 = [row[metric] for row in rows_a if row[metric] is not None]
            s2 = [row[metric] for row in rows_b if row[metric] is not None]
            if not s1 or not s2:
                log.warning("skipping KS on %s for (%s, %s): empty sample", metric, a, b)
                continue
            ks = stats.ks_two_sample(s1, s2)
            comparisons.append(dict(zip(COMPARISON_COLUMNS, (f"ks_{metric}", a, b, ks.D, ks.D_alpha, ks.reject))))
        try:
            fit_a = stats.fit_power_law([row["size"] for row in rows_a if row["size"] >= 1])
            fit_b = stats.fit_power_law([row["size"] for row in rows_b if row["size"] >= 1])
            wald = stats.wald_test(fit_a, fit_b)
            comparisons.append(dict(zip(COMPARISON_COLUMNS,
                                        ("wald_size_alpha", a, b, wald.W, wald.p_value, wald.reject))))
        except (DegenerateSampleError, ParameterError) as exc:
            log.warning("skipping Wald on (%s, %s): %s", a, b, exc)
    return comparisons


def analyze(tree_list, by_category: bool = True) -> AnalysisResult:
    """Compute metric tables, distribution curves, and cross-category tests.

    Curves per group: size CCDF, height CDF, lifetime PDF, mean-homogeneity PDF, path-count
    CCDFs, and the binned lifetime-by-size and size-by-homogeneity relations (20 bins each).
    Group pairs are compared at the 0.05 level with KS tests on size and lifetime and a Wald
    test on power-law size exponents. tree_list is a Forest or any sequence of trees; the
    metric rows of all trees come from one trees.metrics_rows pass over its Forest.
    """
    forest = Forest.of(tree_list)
    if not len(forest):
        raise ParameterError("no trees to analyze")
    rows_of: dict[str, list[dict]] = {}
    for category, row in zip(forest.category, trees.metrics_rows(forest)):
        rows_of.setdefault(category if by_category else "all", []).append(row)
    groups = {key: GroupAnalysis(key, len(rows), rows, _group_curves(rows)) for key, rows in rows_of.items()}
    comparisons = _compare_groups(groups) if len(groups) > 1 else []
    return AnalysisResult(groups=groups, comparisons=comparisons)


def write_analysis(result: AnalysisResult, out_dir) -> list[str]:
    """Write metrics.csv, comparisons.csv, and one CSV per (group, curve); returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, "metrics.csv")]
    rows = (row for group in result.groups.values() for row in group.metric_rows)
    files.write_csv(written[0], trees.METRIC_COLUMNS, rows)

    for name, group in sorted(result.groups.items()):
        for curve_name, (xs, ys) in sorted(group.curves.items()):
            path = os.path.join(out_dir, f"{name}__{curve_name}.csv")
            stats.write_curve_csv(xs, ys, path)
            written.append(path)

    if result.comparisons:
        comp_path = os.path.join(out_dir, "comparisons.csv")
        files.write_csv(comp_path, COMPARISON_COLUMNS, result.comparisons)
        written.append(comp_path)
    return written
