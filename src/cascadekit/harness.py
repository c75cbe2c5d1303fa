"""Parameter sweeps and cascade analysis.

A sweep walks a (phi_hl, r, delta) grid, builds a fresh labeled graph per
iteration, diffuses a full news batch, and pools cascade sizes and heights
across iterations into per-point means and standard deviations, alongside
the closed-form branching predictions. All randomness derives from one
master seed through a documented SeedSequence splitting scheme, so results
are reproducible and independent of execution order.

A sweep reads per-item sizes and heights from the stats of
diffusion.diffuse, which builds sharing trees only with collect_trees=True,
one trees.Forest per grid point. The SweepResult does not depend on
collect_trees, and it is bit-identical to that of the earlier per-tree
reduction. analyze takes a Forest or any sequence of trees and computes
their metric rows in one trees.metrics_rows pass.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import branching, stats, trees
from .diffusion import BatchStats, diffuse, sample_news
from .errors import DegenerateSampleError, ParameterError, SupercriticalError
from .graph import generate_small_world, label_edges
from .stats import FittedDistribution
from .trees import Forest

log = logging.getLogger(__name__)

DEFAULT_DELTA_GRID = tuple(np.round(np.arange(0.01, 0.0501, 0.005), 4).tolist())
DEFAULT_PHI_GRID = tuple(np.round(np.arange(0.5, 1.0001, 0.02), 4).tolist())
DEFAULT_R_GRID = (0.01, 0.1, 0.5, 1.0)


@dataclass
class SweepConfig:
    """Full description of a Monte Carlo sweep."""

    n: int
    m: int
    z: int
    master_seed: int
    first_sharers: FittedDistribution
    deltas: tuple = DEFAULT_DELTA_GRID
    phis: tuple = DEFAULT_PHI_GRID
    rs: tuple = DEFAULT_R_GRID
    iterations: int = 100

    def validate(self) -> None:
        if self.n <= self.z:
            raise ParameterError(f"need n > z, got n={self.n}, z={self.z}")
        if self.m < 0 or self.iterations < 1 or self.master_seed < 0:
            raise ParameterError("need m >= 0, iterations >= 1 and master_seed >= 0")
        for name, grid in (("delta", self.deltas), ("phi_hl", self.phis), ("r", self.rs)):
            if not grid:
                raise ParameterError(f"sweep grid of {name} is empty")
            for v in grid:
                if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0.0 <= v <= 1.0:
                    raise ParameterError(f"{name} {v!r} is not a number in [0, 1]")

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
    return {
        "n": config.n,
        "m": config.m,
        "z": config.z,
        "master_seed": config.master_seed,
        "first_sharers": config.first_sharers.to_dict(),
        "deltas": list(config.deltas),
        "phis": list(config.phis),
        "rs": list(config.rs),
        "iterations": config.iterations,
    }


def _int_field(doc: dict, key: str, default=None) -> int:
    value = doc.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"config field {key!r} must be an integer, got {value!r}")
    return int(value)


def _grid_field(doc: dict, key: str, default: tuple) -> tuple:
    values = doc.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"config field {key!r} must be a list of numbers, got {values!r}")
    return tuple(values)


def config_from_dict(doc: dict, master_seed: int | None = None) -> SweepConfig:
    """Build and validate a sweep config from a config_to_dict document.

    A given master_seed replaces the document's. Raises ParameterError, naming
    the field, for a missing or malformed field or a non-object document.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"a sweep config must be a JSON object, got {type(doc).__name__}")
    try:
        first_sharers = FittedDistribution.from_dict(doc.get("first_sharers"))
    except ParameterError as exc:
        raise ParameterError(f"config field 'first_sharers': {exc}") from exc
    config = SweepConfig(
        n=_int_field(doc, "n"),
        m=_int_field(doc, "m"),
        z=_int_field(doc, "z"),
        master_seed=_int_field(doc, "master_seed") if master_seed is None else master_seed,
        first_sharers=first_sharers,
        deltas=_grid_field(doc, "deltas", DEFAULT_DELTA_GRID),
        phis=_grid_field(doc, "phis", DEFAULT_PHI_GRID),
        rs=_grid_field(doc, "rs", DEFAULT_R_GRID),
        iterations=_int_field(doc, "iterations", 100),
    )
    config.validate()
    return config


def load_config(path, master_seed: int | None = None) -> SweepConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParameterError(f"malformed config JSON: {exc}") from exc
    return config_from_dict(doc, master_seed=master_seed)


def save_config(config: SweepConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)


def troll_fit_config(master_seed: int, iterations: int = 100) -> SweepConfig:
    """Named preset for the troll-page scenario: 16889 users, 1072 items,
    inverse-Gaussian(18.73, 9.63) first sharers at (phi_hl, r, delta) =
    (0.56, 0.01, 0.015)."""
    return SweepConfig(
        n=16889,
        m=1072,
        z=8,
        master_seed=master_seed,
        first_sharers=FittedDistribution.inverse_gaussian(18.73, 9.63),
        deltas=(0.015,),
        phis=(0.56,),
        rs=(0.01,),
        iterations=iterations,
    )


PRESETS = {"troll": troll_fit_config}


def simulate_point(n, m, z, phi_hl, r, delta, dist, seed_sequence,
                   collect_trees: bool = False) -> tuple[BatchStats, Forest | None]:
    """One iteration at one grid point: fresh graph, fresh news, full batch.

    Returns (stats, forest): per-item seed counts, sizes, heights and
    rounds, plus the Forest of sharing trees when collect_trees is set
    (None otherwise). The seed sequence is split into four
    independent streams: graph build, edge labeling, news sampling, cascades.
    """
    s_graph, s_label, s_news, s_batch = seed_sequence.spawn(4)
    g = generate_small_world(n, z, r, seed=s_graph)
    g = label_edges(g, phi_hl, seed=s_label)
    news = sample_news(m, dist, seed=s_news, max_count=n)
    return diffuse(g, news, delta, seed=s_batch, build_trees=collect_trees)


def run_sweep(config: SweepConfig, collect_trees: bool = False):
    """Execute every grid point of the sweep.

    Statistics pool all cascades of all iterations of a point. Per-point
    randomness comes from SeedSequence(master_seed, spawn_key=(point, iteration)),
    so any execution order yields identical results.

    Returns the list of SweepResult; with collect_trees=True returns
    (results, trees) where trees maps each grid point to the Forest of all
    its sharing trees, iteration by iteration. The results do not depend on
    collect_trees.
    """
    config.validate()
    results: list[SweepResult] = []
    all_trees: dict[tuple[float, float, float], Forest] = {}
    for point_index, (phi_hl, r, delta) in enumerate(config.grid()):
        batches: list[BatchStats] = []
        forests: list[Forest] = []
        for iteration in range(config.iterations):
            ss = np.random.SeedSequence(config.master_seed, spawn_key=(point_index, iteration))
            stats, forest = simulate_point(
                config.n, config.m, config.z, phi_hl, r, delta, config.first_sharers, ss,
                collect_trees=collect_trees,
            )
            batches.append(stats)
            if collect_trees:
                forests.append(forest)

        mu = branching.branching_ratio(config.z, delta, q=1.0 - phi_hl)
        seed_counts = np.concatenate([b.seeds for b in batches])
        mean_seeds = float(np.mean(seed_counts)) if seed_counts.size else 0.0
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
        size_arr = np.concatenate([b.sizes for b in batches]).astype(float)
        height_arr = np.concatenate([b.heights for b in batches]).astype(float)
        results.append(
            SweepResult(
                phi_hl=phi_hl,
                r=r,
                delta=delta,
                mean_size=float(size_arr.mean()),
                sd_size=float(size_arr.std(ddof=1)) if size_arr.size > 1 else 0.0,
                mean_height=float(height_arr.mean()),
                sd_height=float(height_arr.std(ddof=1)) if height_arr.size > 1 else 0.0,
                mu_pred=mu,
                size_pred=size_pred,
                iterations=config.iterations,
                mean_seeds=mean_seeds,
                supercritical=supercritical,
            )
        )
        if collect_trees:
            all_trees[(phi_hl, r, delta)] = Forest.of(tree for forest in forests for tree in forest)
    if collect_trees:
        return results, all_trees
    return results


SWEEP_COLUMNS = (
    "phi_hl", "r", "delta", "mean_size", "sd_size", "mean_height", "sd_height",
    "mu_pred", "size_pred", "iterations", "mean_seeds", "supercritical",
)


def write_sweep_csv(results: list[SweepResult], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for res in results:
            writer.writerow([trees.csv_cell(getattr(res, col)) for col in SWEEP_COLUMNS])


def read_sweep_csv(path) -> list[dict]:
    """Parse a write_sweep_csv file: blank cells are None, flags bool, counts int.

    Raises:
        ParameterError: a cell that does not parse as its column's type.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        out = []
        for line, row in enumerate(csv.DictReader(fh), start=2):
            parsed = {}
            for key, value in row.items():
                try:
                    parsed[key] = _sweep_cell(key, value)
                except ValueError as exc:
                    raise ParameterError(f"{path}, line {line}, column {key}: {exc}") from exc
            out.append(parsed)
        return out


def _sweep_cell(key: str, value: str):
    if value == "":
        return None
    if key == "iterations":
        return int(value)
    if key == "supercritical":
        if value not in ("True", "False"):
            raise ValueError(f"expected True or False, got {value!r}")
        return value == "True"
    return float(value)


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


def _group_curves(rows: list[dict], bins: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
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
        curves["lifetime_pdf"] = stats.empirical_pdf(lifetimes, bins=bins)
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


def _compare_groups(groups: dict[str, GroupAnalysis], alpha: float) -> list[dict]:
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
            ks = stats.ks_two_sample(s1, s2, alpha=alpha)
            comparisons.append({
                "test": f"ks_{metric}", "group_a": a, "group_b": b,
                "statistic": ks.D, "reference": ks.D_alpha, "reject": ks.reject,
            })
        try:
            fit_a = stats.fit_power_law([row["size"] for row in rows_a if row["size"] >= 1])
            fit_b = stats.fit_power_law([row["size"] for row in rows_b if row["size"] >= 1])
            wald = stats.wald_test(fit_a, fit_b, alpha=alpha)
            comparisons.append({
                "test": "wald_size_alpha", "group_a": a, "group_b": b,
                "statistic": wald.W, "reference": wald.p_value, "reject": wald.reject,
            })
        except (DegenerateSampleError, ParameterError) as exc:
            log.warning("skipping Wald on (%s, %s): %s", a, b, exc)
    return comparisons


def analyze(tree_list, by_category: bool = True, bins: int = 20, alpha: float = 0.05) -> AnalysisResult:
    """Compute metric tables, distribution curves, and cross-category tests.

    Curves per group: size CCDF, height CDF, lifetime PDF, mean-homogeneity
    PDF, path-count CCDFs, and the binned lifetime-by-size and
    size-by-homogeneity relations. Group pairs are compared with KS tests on
    size and lifetime and a Wald test on power-law size exponents. tree_list
    is a Forest or any sequence of trees; the metric rows of all trees come
    from one trees.metrics_rows pass over its Forest.
    """
    forest = Forest.of(tree_list)
    if not len(forest):
        raise ParameterError("no trees to analyze")
    groups: dict[str, GroupAnalysis] = {}
    for category, row in zip(forest.category, trees.metrics_rows(forest)):
        key = category if by_category else "all"
        groups.setdefault(key, GroupAnalysis(category=key, tree_count=0, metric_rows=[]))
        groups[key].tree_count += 1
        groups[key].metric_rows.append(row)
    for group in groups.values():
        group.curves = _group_curves(group.metric_rows, bins)
    comparisons = _compare_groups(groups, alpha) if len(groups) > 1 else []
    return AnalysisResult(groups=groups, comparisons=comparisons)


def write_analysis(result: AnalysisResult, out_dir) -> list[str]:
    """Write metrics.csv, comparisons.csv, and one CSV per (group, curve); returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(trees.METRIC_COLUMNS)
        for group in result.groups.values():
            for row in group.metric_rows:
                writer.writerow([trees.csv_cell(row[c]) for c in trees.METRIC_COLUMNS])
    written.append(metrics_path)

    for name, group in sorted(result.groups.items()):
        for curve_name, (xs, ys) in sorted(group.curves.items()):
            path = os.path.join(out_dir, f"{name}__{curve_name}.csv")
            stats.write_curve_csv(xs, ys, path)
            written.append(path)

    if result.comparisons:
        comp_path = os.path.join(out_dir, "comparisons.csv")
        with open(comp_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["test", "group_a", "group_b", "statistic", "reference", "reject"])
            writer.writeheader()
            writer.writerows(result.comparisons)
        written.append(comp_path)
    return written
