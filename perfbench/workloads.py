"""The benchmark's three workloads: inputs, one timed repetition, and checks.

Every workload is a closed loop with one client: ``run`` is one repetition
and the next starts only after it returns. Inputs come from the workload
seed alone; ``run`` drives cascadekit only through its public functions,
looked up as module attributes at call time so the traced run can wrap
them. ``check`` runs untimed after each repetition and holds every
correctness check; it must pass for any correct implementation, including
one that changes the random streams, so no check compares bit patterns.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import traceback
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """What one repetition did and which of its operations failed."""

    ops: int
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    cascades: int = 0
    sharers: int = 0
    tree_nodes: int = 0
    digest: str | None = None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failures.append(message)
        self.failed_ops = min(self.ops, self.failed_ops + ops)


def _int_seeds(seed: int, count: int) -> list[int]:
    """Independent integer seeds derived from the workload seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _stratified_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw per stratum of width 1/count, shuffled.

    Keeps the total work of a workload nearly the same for every seed while
    the individual inputs still differ.
    """
    return (rng.permutation(count) + rng.random(count)) / count


# --- sweep_grid ---------------------------------------------------------------

SWEEP_GRID = {"phis": (0.56, 0.9), "rs": (0.01, 0.1, 0.5, 1.0), "deltas": (0.015, 0.04)}

# Mean cascade size at each (phi_hl, r, delta) point of SWEEP_GRID at troll
# scale (n=16889, m=1072, z=8, IG(18.73, 9.63) first sharers), with the
# standard deviation of a one-iteration mean. Taken from the seed code's
# run_sweep over 30 master seeds (1000-1029), one iteration each.
SWEEP_REFERENCE = {
    (0.56, 0.01, 0.015): (20.9564, 0.9036),
    (0.56, 0.01, 0.04): (26.0770, 1.1257),
    (0.56, 0.1, 0.015): (20.8175, 1.0098),
    (0.56, 0.1, 0.04): (26.3137, 0.9286),
    (0.56, 0.5, 0.015): (21.2023, 0.8471),
    (0.56, 0.5, 0.04): (27.2742, 0.8850),
    (0.56, 1.0, 0.015): (21.1947, 0.9758),
    (0.56, 1.0, 0.04): (27.9130, 1.2048),
    (0.9, 0.01, 0.015): (22.6568, 0.9274),
    (0.9, 0.01, 0.04): (30.7608, 1.4927),
    (0.9, 0.1, 0.015): (22.6297, 0.7041),
    (0.9, 0.1, 0.04): (32.3143, 1.2928),
    (0.9, 0.5, 0.015): (22.9944, 0.8084),
    (0.9, 0.5, 0.04): (38.0925, 1.5114),
    (0.9, 1.0, 0.015): (23.2810, 1.0191),
    (0.9, 1.0, 0.04): (38.7592, 2.0852),
}

SWEEP_BAND_SD = 6.0  # per-point band, in one-iteration standard deviations
SWEEP_POOLED_Z = 5.0  # bound on the pooled z-score over all points


class SweepGrid:
    """harness.run_sweep over a strided slice of the paper's default grid."""

    name = "sweep_grid"

    def __init__(self, ck, seed: int, toy: bool, workdir: str):
        self.ck = ck
        self.toy = toy
        n, m = (600, 40) if toy else (16889, 1072)
        self.config = ck["harness"].SweepConfig(
            n=n, m=m, z=8, master_seed=seed,
            first_sharers=ck["stats"].FittedDistribution.inverse_gaussian(18.73, 9.63),
            iterations=1, **SWEEP_GRID,
        )
        self.points = len(self.config.grid())
        self.ops = self.points * self.config.iterations

    def run(self, span):
        return self.ck["harness"].run_sweep(self.config)

    def check(self, results, rep: int) -> Outcome:
        cfg = self.config
        out = Outcome(ops=self.ops, cascades=cfg.m * self.ops)
        if len(results) != self.points:
            out.fail(f"expected {self.points} grid points, got {len(results)}", self.ops)
            return out
        digest = hashlib.sha256()
        zs = []
        for point, res in zip(cfg.grid(), results):
            values = [res.mean_size, res.sd_size, res.mean_height, res.sd_height, res.mu_pred]
            digest.update(repr([float(v).hex() for v in (*point, *values)]).encode())
            digest.update(repr(res.size_pred).encode())
            problems = []
            if (res.phi_hl, res.r, res.delta) != point:
                problems.append(f"point {(res.phi_hl, res.r, res.delta)} out of order")
            if not all(math.isfinite(v) for v in values):
                problems.append("non-finite statistic")
            supercritical = bool(getattr(res, "supercritical", res.size_pred is None))
            if supercritical != (res.mu_pred >= 1.0):
                problems.append(f"supercritical={supercritical} but mu_pred={res.mu_pred}")
            if (res.size_pred is None) != supercritical or (
                    res.size_pred is not None and not math.isfinite(res.size_pred)):
                problems.append(f"size_pred {res.size_pred} disagrees with supercritical={supercritical}")
            if not self.toy:
                ref_mean, ref_sd = SWEEP_REFERENCE[point]
                z = (res.mean_size - ref_mean) / (ref_sd * math.sqrt(1.0 + 1.0 / 30))
                zs.append(z)
                if abs(z) > SWEEP_BAND_SD:
                    problems.append(f"mean size {res.mean_size:.3f} vs reference {ref_mean:.3f} (z={z:.2f})")
            if problems:
                out.fail(f"{point}: " + "; ".join(problems), cfg.iterations)
            out.sharers += round(res.mean_size * cfg.m * cfg.iterations)
        if zs and abs(sum(zs) / math.sqrt(len(zs))) > SWEEP_POOLED_Z and not out.failures:
            out.fail(f"pooled mean-size z-score {sum(zs) / math.sqrt(len(zs)):.2f}", self.ops)
        out.tree_nodes = out.sharers
        out.digest = digest.hexdigest()
        return out


# --- big_cascades -------------------------------------------------------------

class BigCascades:
    """Few items with thousands of sharers each, then a whole-batch analysis."""

    name = "big_cascades"
    delta = 0.2
    checked_cascades = 4  # BFS-closure checks per repetition

    def __init__(self, ck, seed: int, toy: bool, workdir: str):
        self.ck = ck
        self.seed = seed
        self.n, items = (1500, 6) if toy else (20000, 48)
        self.graph_seed, self.label_seed, news_seed, self.batch_seed = _int_seeds(seed, 4)
        rng = np.random.default_rng(news_seed)
        fitness = _stratified_uniform(rng, items)
        counts = rng.poisson(5.0, size=items)
        news_item = ck["diffusion"].NewsItem
        self.news = [news_item(id=i, fitness=float(f), first_sharer_count=int(c))
                     for i, (f, c) in enumerate(zip(fitness, counts))]
        self.outdir = os.path.join(workdir, "analysis")
        self.ops = 1

    def run(self, span):
        graph, diffusion, harness = self.ck["graph"], self.ck["diffusion"], self.ck["harness"]
        g = graph.generate_small_world(self.n, 8, 1.0, seed=self.graph_seed)
        g = graph.label_edges(g, 1.0, seed=self.label_seed)
        outcomes = diffusion.run_batch(g, self.news, self.delta, seed=self.batch_seed)
        result = harness.analyze([o.tree for o in outcomes], by_category=False)
        harness.write_analysis(result, self.outdir)
        return g, outcomes, result

    def check(self, output, rep: int) -> Outcome:
        trees = self.ck["trees"]
        g, outcomes, result = output
        out = Outcome(ops=self.ops, cascades=len(outcomes))
        if len(outcomes) != len(self.news):
            out.fail(f"expected {len(self.news)} outcomes, got {len(outcomes)}")
            return out
        sizes = [trees.tree_size(o.tree) for o in outcomes]
        out.sharers = out.tree_nodes = sum(sizes)
        for item, o in zip(self.news, outcomes):
            height = trees.tree_height(o.tree)
            expected = o.rounds + 1 if item.first_sharer_count else 0
            if height != expected:
                out.fail(f"item {item.id}: height {height} but {o.rounds} rounds")
        indptr, indices = _homogeneous_csr(g)
        rng = np.random.default_rng([self.seed, rep])
        for i in rng.choice(len(outcomes), size=min(self.checked_cascades, len(outcomes)), replace=False):
            problem = _closure_problem(g, indptr, indices, self.news[i], outcomes[i], self.delta, trees)
            if problem:
                out.fail(f"item {self.news[i].id}: {problem}")
        groups = result.groups
        if set(groups) != {"all"} or groups["all"].tree_count != len(outcomes):
            out.fail(f"analysis groups {sorted(groups)} do not hold the whole batch")
        else:
            row_sizes = [row["size"] for row in groups["all"].metric_rows]
            if row_sizes != sizes:
                out.fail("metric-row sizes differ from tree sizes")
        rows = _csv_rows(os.path.join(self.outdir, "metrics.csv"))
        if rows is None or len(rows) != len(outcomes):
            out.fail("metrics.csv does not hold one row per tree")
        return out


def _homogeneous_csr(g) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists over homogeneous edges, built here rather than by the graph."""
    edges = np.asarray(g.edges)[np.asarray(g.homogeneous, dtype=bool)]
    heads = np.concatenate([edges[:, 0], edges[:, 1]])
    tails = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(heads, kind="stable")
    indptr = np.zeros(g.node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=g.node_count), out=indptr[1:])
    return indptr, tails[order]


def _closure_problem(g, indptr, indices, item, outcome, delta, trees) -> str | None:
    """Compare a cascade with a plain BFS from its t=0 nodes; None when it matches.

    The sharer set must be the threshold-restricted closure of the seeds,
    every sharer's round its BFS distance, and every parent a neighbour
    across a homogeneous edge that shared one round earlier.
    """
    doc = trees.tree_to_dict(outcome.tree)
    nodes = doc["nodes"]
    seeds = [nd["user"] for nd in nodes if nd["t"] == 0]
    if len(seeds) != item.first_sharer_count or len(set(seeds)) != len(seeds):
        return f"{len(seeds)} distinct t=0 nodes for {item.first_sharer_count} first sharers"
    eligible = np.abs(np.asarray(g.opinions) - item.fitness) <= delta
    level = {u: 0 for u in seeds}
    frontier = seeds
    while frontier:
        nxt = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]].tolist():
                if v not in level and eligible[v]:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    users = {nd["user"]: nd for nd in nodes}
    if len(users) != len(nodes) or set(users) != set(level):
        return f"sharer set of {len(nodes)} differs from the BFS closure of {len(level)}"
    by_id = {nd["id"]: nd for nd in nodes}
    for nd in nodes:
        if nd["t"] != level[nd["user"]]:
            return f"user {nd['user']} shares at t={nd['t']}, BFS round {level[nd['user']]}"
        if nd["t"] == 0:
            continue
        parent = by_id.get(nd["parent"])
        if parent is None or parent["t"] != nd["t"] - 1:
            return f"user {nd['user']} has no parent from the previous round"
        u = parent["user"]
        if nd["user"] not in set(indices[indptr[u]:indptr[u + 1]].tolist()):
            return f"user {nd['user']} and its parent {u} share no homogeneous edge"
    return None


def _csv_rows(path) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None


# --- cli_files ----------------------------------------------------------------

# (category, tree count, power-law exponent of sizes, sigma centre or None for uniform)
DATASET = (("science", 7000, 2.3, -0.6), ("conspiracy", 7000, 2.0, 0.6), ("troll", 4000, 2.6, None))
SIZE_CAP = 2000
VIRTUAL_ROOT_SHARE = 0.7
PAGE_SIGNS = {"science": -1, "conspiracy": 1, "troll": 1}
KS_ALPHA = 0.05
# Relative tolerances against the benchmark's own reference computations.
TOL_KS = 1e-9
TOL_ALPHA = 1e-6
TOL_WALD = 1e-5


def _power_law_sizes(rng, count: int, alpha: float, cap: int) -> np.ndarray:
    u = _stratified_uniform(rng, count)
    return np.minimum(np.floor((1.0 - u) ** (-1.0 / (alpha - 1.0))), cap).astype(np.int64)


def make_dataset(rng, scale: float) -> tuple[list[dict], dict]:
    """Dataset-style tree documents: power-law sizes, signed sigma, real and virtual roots."""
    docs = []
    facts = {"sizes": {}, "root_counts": []}
    next_id = 0
    for category, count, alpha, centre in DATASET:
        count = max(20, round(count * scale))
        sizes = _power_law_sizes(rng, count, alpha, SIZE_CAP)
        facts["sizes"][category] = sizes
        total = int(sizes.sum())
        if centre is None:
            sigma = rng.uniform(-1.0, 1.0, total)
        else:
            sigma = np.clip(rng.normal(centre, 0.35, total), -1.0, 1.0)
        sigma = np.round(sigma, 4).tolist()
        pick = rng.random(total).tolist()
        gaps = np.round(rng.exponential(3.0, total), 4).tolist()
        users = rng.integers(0, 2**31, total).tolist()
        virtual = (rng.random(count) < VIRTUAL_ROOT_SHARE).tolist()
        firsts = (1 + rng.poisson(1.5, count)).tolist()
        start = 0
        for size, is_virtual, first in zip(sizes.tolist(), virtual, firsts):
            roots = min(size, first) if is_virtual else 1
            if is_virtual:
                facts["root_counts"].append(roots)
            nodes, times = [], []
            for i in range(size):
                k = start + i
                if i < roots:
                    parent, t = None, (gaps[k] if is_virtual else 0.0)
                else:
                    parent = int(pick[k] * i)
                    t = round(times[parent] + gaps[k], 4)
                times.append(t)
                nodes.append({"id": i, "user": users[k], "sigma": sigma[k], "t": t, "parent": parent})
            start += size
            docs.append({"news_id": next_id, "category": category,
                         "root": {"virtual": is_virtual, "page_sign": PAGE_SIGNS[category]},
                         "nodes": nodes})
            next_id += 1
    return docs, facts


def _write_column(path, header: str, values) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([header])
        writer.writerows([v] for v in values)


def ks_reference(a, b, alpha: float) -> tuple[float, float]:
    """Two-sample KS statistic and its asymptotic critical value, computed independently."""
    from scipy.special import kolmogi

    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    grid = np.unique(np.concatenate([a, b]))
    gap = np.searchsorted(a, grid, side="right") / a.size - np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(gap))), float(kolmogi(alpha)) * math.sqrt((a.size + b.size) / (a.size * b.size))


def _log_moments(a: float, q: int, terms: int = 100_000) -> tuple[float, float, float]:
    """Sums of log(k)**p * k**-a over k = q, q+1, ... for p = 0, 1, 2.

    These are the Hurwitz zeta function and its first two derivatives in a,
    up to sign. The first ``terms`` terms are summed directly; the rest is
    the Euler-Maclaurin tail (integral, half the edge term, and the B2
    correction), whose next term is below double precision at this length.
    """
    k = q + np.arange(terms, dtype=float)
    log_k, w = np.log(k), k ** -a
    n = float(q + terms)
    ln, b = math.log(n), a - 1.0
    head, edge, slope = n ** (1.0 - a), n ** -a, n ** (-a - 1.0)
    s0 = w.sum() + head / b + edge / 2 + slope * a / 12
    s1 = (w * log_k).sum() + head * (ln / b + 1 / b**2) + edge * ln / 2 - slope * (1 - a * ln) / 12
    s2 = ((w * log_k**2).sum() + head * (ln**2 / b + 2 * ln / b**2 + 2 / b**3) + edge * ln**2 / 2
          - slope * (2 * ln - a * ln**2) / 12)
    return s0, s1, s2


def power_law_reference(samples, x_min: int = 1) -> tuple[float, float]:
    """Discrete power-law MLE and its variance from Hurwitz-zeta derivatives."""
    from scipy.optimize import brentq

    tail = np.asarray(samples, float)
    tail = tail[tail >= x_min]
    mean_log = float(np.mean(np.log(tail)))

    def score(a):  # (log zeta)'(a) + mean log
        s0, s1, _ = _log_moments(a, x_min)
        return mean_log - s1 / s0

    alpha = brentq(score, 1.0 + 1e-6, 50.0, xtol=1e-14, rtol=1e-15)
    s0, s1, s2 = _log_moments(alpha, x_min)
    second = s2 / s0 - (s1 / s0) ** 2
    return alpha, 1.0 / (tail.size * second)


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * max(abs(ref), 1e-300)


class CliFiles:
    """Six cascadekit commands run in-process through cli.main, over files."""

    name = "cli_files"
    troll = {"nodes": 16889, "items": 1072, "phi_hl": 0.56, "delta": 0.015}

    def __init__(self, ck, seed: int, toy: bool, workdir: str):
        self.ck = ck
        scale = 1.0 / 30 if toy else 1.0
        nodes = 800 if toy else self.troll["nodes"]
        items = 60 if toy else self.troll["items"]
        self.nodes, self.items = nodes, items
        gen_seed, sim_seed, fit_seed, data_seed = _int_seeds(seed, 4)
        p = {k: os.path.join(workdir, v) for k, v in (
            ("graph", "graph.json"), ("sim", "simulated_trees.json"), ("dataset", "dataset.json"),
            ("analysis", "analysis"), ("roots", "root_counts.csv"), ("fit", "first_sharer_table.csv"),
            ("a", "sizes_science.csv"), ("b", "sizes_conspiracy.csv"))}
        self.paths = p

        docs, facts = make_dataset(np.random.default_rng(data_seed), scale)
        with open(p["dataset"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(docs))
        self.tree_count = len(docs)
        self.tree_nodes = sum(len(d["nodes"]) for d in docs)
        self.category_counts = {c: len(s) for c, s in facts["sizes"].items()}
        del docs
        sizes_a, sizes_b = facts["sizes"]["science"], facts["sizes"]["conspiracy"]
        _write_column(p["a"], "size", sizes_a.tolist())
        _write_column(p["b"], "size", sizes_b.tolist())
        _write_column(p["roots"], "count", facts["root_counts"])

        self.ref_ks = ks_reference(sizes_a, sizes_b, KS_ALPHA)
        (a1, var1), (a2, _) = power_law_reference(sizes_a), power_law_reference(sizes_b)
        self.ref_wald = {"alpha1": a1, "alpha2": a2, "W": (a1 - a2) ** 2 / var1}
        roots = np.asarray(facts["root_counts"], float)
        self.ref_roots = np.quantile(roots, [0.0, 0.25, 0.5, 0.75, 1.0]).tolist()
        self.ref_roots.insert(3, float(roots.mean()))

        self.commands = (
            ("generate", ["generate", "--nodes", str(nodes), "--ring-degree", "8", "--rewiring", "0.01",
                          "--phi-hl", str(self.troll["phi_hl"]), "--seed", str(gen_seed), "--out", p["graph"]]),
            ("simulate", ["simulate", "--graph", p["graph"], "--items", str(items),
                          "--first-sharers", "ig:18.73,9.63", "--delta", str(self.troll["delta"]),
                          "--seed", str(sim_seed), "--out", p["sim"]]),
            ("analyze", ["analyze", "--in", p["dataset"], "--group", "category", "--out", p["analysis"]]),
            ("fit_first_sharers", ["fit-first-sharers", "--in", p["roots"], "--seed", str(fit_seed),
                                   "--out", p["fit"]]),
            ("stats_ks", ["stats-test", "ks", "--a", p["a"], "--b", p["b"], "--alpha", str(KS_ALPHA)]),
            ("stats_wald", ["stats-test", "wald", "--a", p["a"], "--b", p["b"], "--x-min", "1"]),
        )
        self.ops = len(self.commands)

    def run(self, span):
        cli = self.ck["cli"]
        results = {}
        for name, argv in self.commands:
            buf = io.StringIO()
            with span(f"cli.{name}"), contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a failing command is a failed operation, not the end of the run
                    code = traceback.format_exc(limit=3)
            results[name] = (code, buf.getvalue())
        return results

    def check(self, results, rep: int) -> Outcome:
        out = Outcome(ops=self.ops, cascades=self.items, tree_nodes=self.tree_nodes)
        checks = {
            "generate": self._check_graph, "simulate": self._check_simulated,
            "analyze": self._check_analysis, "fit_first_sharers": self._check_fit,
            "stats_ks": self._check_ks, "stats_wald": self._check_wald,
        }
        for name, _ in self.commands:
            code, stdout = results[name]
            try:
                problem = f"exit code {code!r}" if code not in (0, None) else checks[name](out, stdout)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                out.fail(f"{name}: {problem}")
        return out

    def _check_graph(self, out, stdout):
        with open(self.paths["graph"], encoding="utf-8") as fh:
            doc = json.load(fh)
        n, edges = doc["n"], doc["edges"]
        expected_edges = n * 8 // 2
        homogeneous = sum(1 for e in edges if e["homogeneous"])
        opinions = [nd["opinion"] for nd in doc["nodes"]]
        if n != self.nodes or len(opinions) != n or len(edges) != expected_edges:
            return f"graph has n={n}, {len(opinions)} nodes, {len(edges)} edges"
        if homogeneous != round(self.troll["phi_hl"] * expected_edges):
            return f"{homogeneous} homogeneous edges"
        if not all(0.0 <= w <= 1.0 for w in opinions):
            return "opinion outside [0, 1]"
        return None

    def _check_simulated(self, out, stdout):
        with open(self.paths["sim"], encoding="utf-8") as fh:
            docs = json.load(fh)
        if len(docs) != self.items:
            return f"{len(docs)} simulated trees for {self.items} items"
        for doc in docs:
            ids = {nd["id"] for nd in doc["nodes"]}
            for nd in doc["nodes"]:
                if (nd["parent"] is None) != (nd["t"] == 0) or (nd["parent"] is not None and nd["parent"] not in ids):
                    return f"tree {doc['news_id']}: bad parent link at node {nd['id']}"
            out.sharers += len(doc["nodes"])
        return None

    def _check_analysis(self, out, stdout):
        rows = _csv_rows(os.path.join(self.paths["analysis"], "metrics.csv"))
        if rows is None or len(rows) != self.tree_count:
            return "metrics.csv does not hold one row per tree"
        per_category = {}
        total = 0
        for row in rows:
            per_category[row["category"]] = per_category.get(row["category"], 0) + 1
            total += int(row["size"])
        if per_category != self.category_counts or total != self.tree_nodes:
            return f"metrics.csv covers {per_category} and {total} nodes"
        comparisons = _csv_rows(os.path.join(self.paths["analysis"], "comparisons.csv")) or []
        ks = [r for r in comparisons if r["test"] == "ks_size" and {r["group_a"], r["group_b"]} == {"science", "conspiracy"}]
        if len(ks) != 1 or not _close(float(ks[0]["statistic"]), self.ref_ks[0], TOL_KS):
            return "comparisons.csv lacks the science-conspiracy KS size statistic"
        return None

    def _check_fit(self, out, stdout):
        rows = _csv_rows(self.paths["fit"])
        if rows is None or [r["statistic"] for r in rows] != ["min", "q1", "median", "mean", "q3", "max"]:
            return "first-sharer table rows are missing"
        for row, ref in zip(rows, self.ref_roots):
            if not _close(float(row["data"]), ref, 1e-12):
                return f"data {row['statistic']} {row['data']} vs {ref!r}"
            if not all(math.isfinite(float(row[c])) for c in ("IG", "LN", "Poi")):
                return f"non-finite fitted {row['statistic']}"
        return None

    def _check_ks(self, out, stdout):
        got = _key_values(stdout)
        d, d_alpha = self.ref_ks
        if not (_close(float(got["D"]), d, TOL_KS) and _close(float(got["D_alpha"]), d_alpha, TOL_KS)):
            return f"D={got['D']} D_alpha={got['D_alpha']}, reference {d!r} {d_alpha!r}"
        if got["reject"] != str(d > d_alpha):
            return f"reject={got['reject']}"
        return None

    def _check_wald(self, out, stdout):
        got = _key_values(stdout)
        ref = self.ref_wald
        for key, tol in (("alpha1", TOL_ALPHA), ("alpha2", TOL_ALPHA), ("W", TOL_WALD)):
            if not _close(float(got[key]), ref[key], tol):
                return f"{key}={got[key]}, reference {ref[key]!r}"
        # p lies far in the tail, where a tiny error in W moves it by a large
        # share, so it is checked against the reported W instead.
        if not _close(float(got["p"]), math.erfc(math.sqrt(float(got["W"]) / 2.0)), TOL_KS):
            return f"p={got['p']} does not match W={got['W']}"
        return None


def _key_values(text: str) -> dict[str, str]:
    return dict(re.findall(r"(\w+)=(\S+)", text))


WORKLOADS = {cls.name: cls for cls in (SweepGrid, BigCascades, CliFiles)}
