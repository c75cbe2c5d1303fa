"""Golden digests: graphs, trees and sweep results stay bit-identical for a seed.

The graph digests below were captured with the set-based graph builder at
commit 4c87903, before the edge-key builder replaced it. The metrics-CSV
digest was captured at commit f9dbb52, before sharing trees became arrays
and the metrics one forest pass. The sampler, config-JSON and
first-sharer-table digests were captured at commit 5355c4d, before one family
table replaced the per-module dispatch on distribution family, except the
inverse-Gaussian sampler and ig_with_zeros table digests: the change that
computes the sampler's smaller root without cancellation replaced them. The tree,
tree-JSON and sweep digests were captured by the commit after 310e2be, which
gave diffuse one Generator per batch and run_sweep common random numbers;
EARLIER_SCHEME keeps the sweep digests of the scheme before it, which
oracles.earlier_scheme_sweep still reproduces. The toy sweep's tree
digest, captured from the trees run_sweep then returned, hashes the trees
that oracles.sweep_batches rebuilds from the sweep's documented seeds. The
file digests (a save_graph file, save_config files, a write_sweep_csv file,
every file of write_analysis, and a cli simulate tree file) were captured at
commit 36d2d8d, before one module took over reading and writing every file.
The tree fault-message digest was captured at commit 4327564, before one
check over the whole loaded forest replaced the loader's vectorized screen
and its per-tree check.
Capture method: run this file as a script against that checkout,

    PYTHONPATH=<checkout>/src python tests/test_equivalence.py

which prints every digest in GOLDEN's format. Each digest is a SHA-256 over
the raw little-endian bytes of a graph's arrays, or over the repr of every
tree node's (id, user, sigma, t, parent) plus each outcome's news id and
round count, or over the float.hex() of every field a SweepResult had then,
or over the bytes of a trees_to_json document, a metrics.csv file, a
sampled array (with its dtype), a config JSON document, a file the package
writes, a first-sharer table file plus the repr of its fits' parameters, or
the (error class, message) that each faulty tree batch raises.
The CLI alias test holds every --first-sharers name to its constructor's
result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cascadekit import harness
from cascadekit.cli import _parse_distribution, main
from cascadekit.diffusion import NewsItem, run_batch
from cascadekit.errors import CascadekitError
from cascadekit.graph import generate_small_world, label_edges, save_graph
from cascadekit.harness import (
    SweepConfig,
    analyze,
    config_to_dict,
    run_sweep,
    save_config,
    troll_fit_config,
    write_analysis,
    write_sweep_csv,
)
from cascadekit.stats import (
    FittedDistribution,
    fit_first_sharers,
    sample_inverse_gaussian,
    write_first_sharer_table,
)
from cascadekit.trees import trees_from_json, trees_to_json

from oracles import earlier_scheme_sweep, nodes_of, random_tree, scalar_small_world, sweep_batches

# (n, z) lattices, each built at every rate in GRAPH_RATES; n = z + 1 is the
# complete graph, where every rewiring is skipped.
GRAPH_SHAPES = ((5, 4), (9, 8), (7, 2), (30, 4), (200, 6), (2000, 8), (16889, 8))
GRAPH_RATES = (0.0, 0.01, 0.1, 0.5, 1.0)

# name: (n, z, r, phi_hl, delta, item count, batch seed). Each batch mixes
# zero-seed items, items seeding every node (m == n) and random counts.
TREE_CASES = {
    "ring_12": (12, 2, 0.5, 1.0, 0.6, 30, 71),
    "complete_9": (9, 8, 0.3, 1.0, 1.0, 25, 72),
    "sparse_300": (300, 4, 0.2, 0.7, 0.1, 80, 73),
    "rewired_2000": (2000, 8, 1.0, 1.0, 0.2, 30, 74),
    "lattice_5000": (5000, 8, 0.01, 0.9, 0.3, 12, 75),
}

TOY_SWEEP = dict(
    n=300, m=60, z=4, master_seed=9, first_sharers=FittedDistribution.poisson(3.0),
    phis=(0.6, 1.0), rs=(0.1, 1.0), deltas=(0.05, 0.2), iterations=2,
)


def troll_sweep_config() -> SweepConfig:
    """The troll preset at master seed 23, cut to two iterations."""
    return dataclasses.replace(troll_fit_config(master_seed=23), iterations=2)


# One distribution per family, keyed by family name.
DISTRIBUTIONS = {
    "inverse_gaussian": FittedDistribution.inverse_gaussian(18.73, 9.63),
    "log_normal": FittedDistribution.log_normal(1.2, 0.8),
    "poisson": FittedDistribution.poisson(39.24),
    "uniform": FittedDistribution.uniform(1.0, 6.5),
    "empirical": FittedDistribution.empirical([0, 1, 1, 2, 3, 5, 8, 13, 21.5]),
}

# First-sharer samples for the comparison table: an IG sample truncated to
# integers (124 zeros), and an all-equal sample, for which IG and LN are
# degenerate.
FIRST_SHARER_SAMPLES = {
    "ig_with_zeros": np.floor(sample_inverse_gaussian(np.random.default_rng(17), 4.0, 2.0, 500)),
    "all_equal": np.full(40, 7.0),
}

GOLDEN = {
    "graph_5_4": "589162606fa6622c42c9d98ffad643faed71c20001da481f7d12415dbd24a1e2",
    "graph_9_8": "437aa15acd7a8a9ad0bfc795c3bf9e7b369eb69a19263110f8d4308f6712ae21",
    "graph_7_2": "2aee555d6d9ee0c8febeac9a9fed8e9c902dbc3f1fd1d7b5cd217cd01518b990",
    "graph_30_4": "3b4bb31da4c25fc0e84e295aae75ba5210441ce3d1d1f12a05c14f2f5da66003",
    "graph_200_6": "3a13ce82ef39393fd1e6b37ce29995da75109349536557216cc6b56cdf10de3d",
    "graph_2000_8": "21b02d74ea799ae56df737db671c56877a5962949911df344cc1594b3cd1670e",
    "graph_16889_8": "ee2d3a7391b39349243074b8485fffebe3b944ba693566ad6b05de68ef08b0e5",
    "trees_ring_12": "746b5c915257b8b8eed2780f2e8f0aafc3ffbca61fabf2971bca82f2c6858eea",
    "trees_complete_9": "6657013987357b8ccd8d46ead72d941b029319690ce040f05fcfa67dacf309ed",
    "trees_sparse_300": "d416108116fe2efdc5e6f268b59269637f7e449d0738eb00aea91f423d9db7a1",
    "trees_rewired_2000": "69f2c88de2b3cfcf15d7ba19b9b2b23f1ec1d8345d411cac99c967151d8a5060",
    "trees_lattice_5000": "40c4180ac382041a392590441619ab6932e13713eb84a61ad6a358084b21208d",
    "tree_json_rewired_2000": "b5596f4f9f0190c31a0cf23017fd8f35b69095d76206c053308dfd1d1226b53d",
    "tree_fault_messages": "74234467677d3748b0ae058e909ff4be0047088aec5987baa0bfbbc2337f2a41",
    "metrics_csv_random_200": "6abec05cc6d50a478ce8d1faff4386785a977a4af2d8b6263c7eb1e406d0d8e5",
    "sweep_toy": "0d37c44a3db68780a1d2dd7ace503438eb8b676aacf82d7a63dd90b51ea57bec",
    "sweep_toy_trees": "6c71f7a5d92dab69e45aace1a755bf877709b34779f74cb22059e6ada16d4be5",
    "sweep_troll": "bb6803678264073fe0aeb8a86b57a6beff727dbe032907f205bfdc9cb238b1c7",
    "sample_inverse_gaussian": "1ab191729b931c6d360d26dcc709d6fdd6d108feec86640f188d2d24ae7d964f",
    "sample_log_normal": "fc3dce4771848b97d65af00f3547a389847eac5985e339771de9f3f2329b7ea8",
    "sample_poisson": "c98f73854ef1723c655f89c0e3af2a0675e51d0edc24f3a5d9c3ce7ff139c933",
    "sample_uniform": "4cd4b633858303d35c7acf2b284c53fc10e902063973196c644560aa81ca4ede",
    "sample_empirical": "c43df1f4f9364db2968d2caa00b0ef7e986c1a8baba2ef29dd64cec3a20af3c7",
    "config_json_inverse_gaussian": "076ab9e45f6e9f6d6a5fde121ae437899c0667718351f13fc30c8383e7279a1d",
    "config_json_log_normal": "4098afd601a8e72a3b0c62d860027b0bd3fcf7483105c6e556eb21cbd0a70872",
    "config_json_poisson": "cde742cbfb41870a9d93c89bf42a2f69d6b9565cf0c898a47763de9473c9627a",
    "config_json_uniform": "2f82b85758f915d4ee975ffbcd7c63fc61155da39f41d20979a3a9fe35b445fd",
    "config_json_empirical": "37978a0b466d911bf416c7ba6b97163857ba7318e20554bb101116584fa4d5c2",
    "first_sharer_table_ig_with_zeros": "33393b3237004411d0707a73cad162b35a506ef41aa5b0fcbd8745120ea23286",
    "first_sharer_table_all_equal": "eb48e1837b4af59ffed49d58910154e0a3c0bf1c94cbb6967e5949a6305052cb",
    "config_file_inverse_gaussian": "da129d438e00989d9e686c3a5809f20fd0d9e6ba9ab84653ce0a92184b1722b5",
    "config_file_log_normal": "1a628dfc220b8f633cfce052f61be7d06efccacf0ef4e07745918c264577b135",
    "config_file_poisson": "306f833d6735fa0d079a31b2973cd35175452cf58d98665dd47e5a9e5c57e39f",
    "config_file_uniform": "40a234a993307ebbf41400f9601dde207015652da96b96b64f545b539951117d",
    "config_file_empirical": "bf57052a393a919cddab165b59cf1eadb28bc046aa0d4024ed30a61d7034ea30",
    "graph_file": "6c4adb29154b2d7e3271c911a5e9de4d0d3070f0c831a34c46a782ed0c889a7a",
    "sweep_csv_toy": "e9ec7d76377e6381658d6cfd0bce982ebef8cfd9c3c4bb635fa288841bcf45b1",
    "analysis_files_random_200": "c5c910d9ae7b66f29775175b6b2b7fc02d14a421f4a7c11e1ab7c742040c5ac6",
    "cli_simulate_tree_file": "7252aa406c8685b7f6061fbfbbe224e30a46edc2ecf5743aae7f407a149aab24",
}

# Sweep digests of the seeding scheme before common random numbers: one
# SeedSequence(master_seed, spawn_key=(point, iteration)) per point-iteration
# and one Generator per item, captured at commit 310e2be.
EARLIER_SCHEME = {
    "sweep_toy": "25b082ce3583465f329747b763bce5583ac9b66993b7590f3870d863ed7f0df3",
    "sweep_troll": "3f6462005f188e438c46b2e6d255bd694b776f86fe3224da960674295bffd144",
}


def graph_digest(n: int, z: int, generate=generate_small_world) -> str:
    h = hashlib.sha256()
    for k, r in enumerate(GRAPH_RATES):
        g = generate(n, z, r, seed=[n, z, k])
        h.update(g.edges.astype("<i8").tobytes())
        h.update(g.opinions.astype("<f8").tobytes())
        h.update(g.homogeneous.astype(np.uint8).tobytes())
    return h.hexdigest()


def tree_case(name: str):
    n, z, r, phi, delta, items, batch_seed = TREE_CASES[name]
    g = label_edges(generate_small_world(n, z, r, seed=batch_seed), phi, seed=batch_seed + 1)
    rng = np.random.default_rng(batch_seed + 2)
    counts = rng.integers(0, min(n, 8) + 1, size=items)
    counts[:3] = (0, n, 1)
    news = [NewsItem(id=i, fitness=float(f), first_sharer_count=int(c))
            for i, (f, c) in enumerate(zip(rng.uniform(size=items), counts))]
    return g, news, delta, batch_seed


def hash_tree(h, tree) -> None:
    h.update(repr([(nd.id, nd.user, nd.sigma, nd.t, nd.parent) for nd in nodes_of(tree)]).encode())


def outcomes_digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr((o.news_id, o.rounds)).encode())
        hash_tree(h, o.tree)
    return h.hexdigest()


def trees_digest(name: str) -> str:
    g, news, delta, batch_seed = tree_case(name)
    return outcomes_digest(run_batch(g, news, delta, seed=batch_seed))


def results_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        values = (res.phi_hl, res.r, res.delta, res.mean_size, res.sd_size,
                  res.mean_height, res.sd_height, res.mu_pred)
        h.update(repr([float(v).hex() for v in values]).encode())
        h.update(repr((res.size_pred, res.iterations, res.supercritical)).encode())
    return h.hexdigest()


def sweep_toy_digests() -> tuple[str, str]:
    """The toy sweep's results, and its trees from sweep_batches point by point and iteration by iteration."""
    config = SweepConfig(**TOY_SWEEP)
    shape = (len(config.phis), len(config.rs), len(config.deltas))
    h = hashlib.sha256()
    for point, index in sorted(zip(config.grid(), np.ndindex(shape))):
        h.update(repr(point).encode())
        for _, forest in sweep_batches(config, *index, build_trees=True):
            for tree in forest:
                h.update(repr(tree.news_id).encode())
                hash_tree(h, tree)
    return results_digest(run_sweep(config)), h.hexdigest()


def tree_json_digest() -> str:
    """The cli simulate file format, over the rewired_2000 batch."""
    g, news, delta, batch_seed = tree_case("rewired_2000")
    text = trees_to_json([o.tree for o in run_batch(g, news, delta, seed=batch_seed)])
    return hashlib.sha256(text.encode()).hexdigest()


def fault_doc(nodes, news_id=7, category="science", virtual=False, page_sign=1) -> dict:
    """A tree document of (id, sigma, t, parent) nodes, user 100 + id."""
    return {"news_id": news_id, "category": category, "root": {"virtual": virtual, "page_sign": page_sign},
            "nodes": [{"id": i, "user": 100 + i, "sigma": s, "t": t, "parent": p} for i, s, t, p in nodes]}


VALID_NODES = [(0, 0.5, 0.0, None), (1, -0.25, 1.5, 0), (2, 1.0, 2.0, 0)]

# One faulty batch per loader rule, and batches where several faults meet:
# the first faulty tree in document order raises its first fault.
FAULTY_BATCHES = {
    "category": [fault_doc(VALID_NODES, category="politics")],
    "page_sign_0": [fault_doc(VALID_NODES, page_sign=0)],
    "page_sign_2": [fault_doc(VALID_NODES, page_sign=2, virtual=True)],
    "duplicate_id": [fault_doc([(0, 0.5, 0, None), (1, 0.5, 1, 0), (0, 0.5, 2, 1), (1, 0.5, 3, 0)])],
    "no_real_root": [fault_doc([(0, 0.5, 0, 1), (1, 0.5, 1, 0)])],
    "two_real_roots": [fault_doc([(0, 0.5, 0, None), (1, 0.5, 1, None), (2, 2.0, 2, 0)])],
    "sigma_range": [fault_doc([(0, 0.5, 0, None), (1, 1.5, 1, 0), (2, 0.5, 2, 77)])],
    "orphan_parent": [fault_doc([(0, 0.5, 0, None), (1, 0.5, 1, 77), (2, -3, 2, 0)])],
    "orphan_float_parent": [fault_doc([(0, 0.5, 0, None), (1, 0.5, 1, 77.0)])],
    "sigma_and_orphan_at_one_node": [fault_doc([(0, 0.5, 0, None), (1, -1.5, 1, 77)])],
    "cycle": [fault_doc([(0, 0.5, 0, None), (1, 0.5, 1, 3), (2, 0.5, 2, 1), (3, 0.5, 3, 2), (4, 0.5, 4, 3)],
                        virtual=True)],
    "late_float": [fault_doc([(0, 0.5, 0.0, None), (1, 0.5, 2.5, 0), (2, 0.5, 2.25, 1)])],
    "late_int": [fault_doc([(0, 0.5, 3, None), (1, 0.5, 2, 0)])],
    "late_object": [fault_doc([(0, 0.5, 2**70, None), (1, 0.5, 1.0, 0)])],
    "late_big_int_by_one": [fault_doc([(0, 0.5, 2**70 + 1, None), (1, 0.5, 2**70, 0)]), fault_doc(VALID_NODES)],
    "lifetime_float": [fault_doc([(0, 0.5, -1e308, None), (1, 0.5, 1e308, 0)])],
    "lifetime_big_int": [fault_doc([(0, 0.5, -10**308, None), (1, 0.5, 10**308, 0)])],
    "node_field_type": [fault_doc([(0, 0.5, 0, None), (1, "high", 1, 0)])],
    "virtual_flag_type": [dict(fault_doc(VALID_NODES), root={"virtual": 1, "page_sign": 1})],
    "first_faulty_tree_raises": [fault_doc(VALID_NODES, news_id=1), fault_doc([(0, 0.5, 3, None), (1, 0.5, 2, 0)],
                                                                               news_id=2),
                                 fault_doc(VALID_NODES, news_id=3, category="politics")],
    "structure_before_a_later_parse_fault": [fault_doc([(0, 0.5, 0, 0)], news_id=1, virtual=True),
                                             fault_doc([(0, 0.5, "0", None)], news_id=2)],
    "parse_fault_before_a_later_structure": [fault_doc([(0, 0.5, 0, None), (1, 0.5, 1, 0.5)], news_id=1),
                                             fault_doc([(0, 0.5, 0, 0)], news_id=2, virtual=True)],
}


def shifted(docs: list, by: int) -> list:
    """The documents with every integer node id and parent id raised by `by`."""
    docs = json.loads(json.dumps(docs))
    for node in (node for doc in docs for node in doc["nodes"]):
        for key in ("id", "parent"):
            if type(node[key]) is int:
                node[key] += by
    return docs


def fault_messages_digest() -> str:
    """The (error class, message) each faulty batch raises, with ids 0..n-1 and with ids shifted by 1000."""
    h = hashlib.sha256()
    for name, batch in sorted(FAULTY_BATCHES.items()):
        for by in (0, 1000):
            try:
                trees_from_json(json.dumps(shifted(batch, by)))
            except CascadekitError as exc:
                h.update(repr((name, by, type(exc).__name__, str(exc))).encode())
            else:
                raise AssertionError(f"faulty batch {name} loaded")
    return h.hexdigest()


def analysis_batch() -> list:
    """200 random signed trees in three categories, virtual and real roots."""
    rng = np.random.default_rng(83)
    categories = ("science", "conspiracy", "troll")
    return [random_tree(rng, max_nodes=14, category=categories[i % 3]) for i in range(200)]


def metrics_csv_digest() -> str:
    with tempfile.TemporaryDirectory() as out:
        write_analysis(analyze(analysis_batch()), out)
        return hashlib.sha256((Path(out) / "metrics.csv").read_bytes()).hexdigest()


def analysis_files_digest() -> str:
    """The name and bytes of every file write_analysis writes for analysis_batch, in the order it lists them."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        for path in write_analysis(analyze(analysis_batch()), out):
            h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return h.hexdigest()


def file_digest(write, *args) -> str:
    """The bytes of the file that write(*args, path) writes."""
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "file"
        write(*args, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def graph_file_digest() -> str:
    g = label_edges(generate_small_world(200, 6, 0.1, seed=31), 0.7, seed=32)
    return file_digest(save_graph, g)


def sweep_csv_digest() -> str:
    """The toy sweep as a CSV file; its (phi_hl, delta) = (1.0, 0.2) points are supercritical, so blank cells occur."""
    return file_digest(write_sweep_csv, run_sweep(SweepConfig(**TOY_SWEEP)))


def cli_simulate_digest() -> str:
    """The tree file of cli simulate over a cli generate graph, and the stdout of both commands."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as stdout:
        graph, tree_file = Path(out) / "graph.json", Path(out) / "trees.json"
        main(["generate", "--nodes", "300", "--ring-degree", "4", "--rewiring", "0.1", "--phi-hl", "0.8",
              "--seed", "5", "--out", str(graph)])
        main(["simulate", "--graph", str(graph), "--items", "40", "--first-sharers", "poisson:3",
              "--delta", "0.2", "--seed", "6", "--out", str(tree_file)])
        return hashlib.sha256(tree_file.read_bytes() + stdout.getvalue().encode()).hexdigest()


def sample_digest(family: str) -> str:
    draws = DISTRIBUTIONS[family].sample(2000, 101)
    return hashlib.sha256(draws.dtype.str.encode() + draws.tobytes()).hexdigest()


def family_config(family: str) -> SweepConfig:
    """A default-grid config with this family's first sharers."""
    return SweepConfig(n=500, m=40, z=6, master_seed=5, first_sharers=DISTRIBUTIONS[family])


def config_json_digest(family: str) -> str:
    return hashlib.sha256(json.dumps(config_to_dict(family_config(family))).encode()).hexdigest()


def config_file_digest(family: str) -> str:
    return file_digest(save_config, family_config(family))


def first_sharer_table_digest(name: str) -> str:
    """The table file plus the order, parameters and degeneracies of the fits."""
    fit = fit_first_sharers(FIRST_SHARER_SAMPLES[name], seed=19)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "table.csv"
        write_first_sharer_table(fit, path)
        h.update(path.read_bytes())
    h.update(repr([(family, d.params) for family, d in fit.fits.items()]).encode())
    h.update(repr((fit.zeros_excluded, fit.degenerate)).encode())
    return h.hexdigest()


def all_digests() -> dict[str, str]:
    out = {f"graph_{n}_{z}": graph_digest(n, z) for n, z in GRAPH_SHAPES}
    out.update({f"trees_{name}": trees_digest(name) for name in TREE_CASES})
    out["tree_json_rewired_2000"] = tree_json_digest()
    out["tree_fault_messages"] = fault_messages_digest()
    out["metrics_csv_random_200"] = metrics_csv_digest()
    out["sweep_toy"], out["sweep_toy_trees"] = sweep_toy_digests()
    out["sweep_troll"] = results_digest(run_sweep(troll_sweep_config()))
    out.update({f"sample_{family}": sample_digest(family) for family in DISTRIBUTIONS})
    out.update({f"config_json_{family}": config_json_digest(family) for family in DISTRIBUTIONS})
    out.update({f"config_file_{family}": config_file_digest(family) for family in DISTRIBUTIONS})
    out["graph_file"] = graph_file_digest()
    out["sweep_csv_toy"] = sweep_csv_digest()
    out["analysis_files_random_200"] = analysis_files_digest()
    out["cli_simulate_tree_file"] = cli_simulate_digest()
    out.update({f"first_sharer_table_{name}": first_sharer_table_digest(name) for name in FIRST_SHARER_SAMPLES})
    return out


@pytest.mark.parametrize("n,z", GRAPH_SHAPES)
def test_graph_digest_unchanged(n, z):
    assert graph_digest(n, z) == GOLDEN[f"graph_{n}_{z}"]


@pytest.mark.parametrize("n,z", [(5, 4), (9, 8), (7, 2), (30, 4), (200, 6)])
def test_scalar_oracle_reproduces_the_graph_digests(n, z):
    # The scalar loop the rewiring replays is pinned to the same goldens, so
    # the equivalence property in test_graph.py compares against them too.
    assert graph_digest(n, z, scalar_small_world) == GOLDEN[f"graph_{n}_{z}"]


def stable_adjacency(g):
    """The homogeneous-edge CSR arrays by a stable argsort of both edge directions by head."""
    edges = g.edges[g.homogeneous]
    heads = np.concatenate([edges[:, 0], edges[:, 1]])
    tails = np.concatenate([edges[:, 1], edges[:, 0]])
    indptr = np.zeros(g.node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=g.node_count), out=indptr[1:])
    return indptr, tails[np.argsort(heads, kind="stable")]


# n = 65536 sorts its heads as 16-bit keys (numpy's radix sort), n = 65537 as 32-bit keys
@pytest.mark.parametrize("n,z", GRAPH_SHAPES + ((65536, 2), (65537, 2)))
def test_adjacency_equals_stable_sort_by_head(n, z):
    for k, r in enumerate(GRAPH_RATES):
        g = label_edges(generate_small_world(n, z, r, seed=[n, z, k]), 0.5, seed=[n, z, k, 1])
        indptr, indices = g.adjacency()
        expected_indptr, expected_indices = stable_adjacency(g)
        assert np.array_equal(indptr, expected_indptr)
        assert np.array_equal(indices, expected_indices)


@pytest.mark.parametrize("name", sorted(TREE_CASES))
def test_batch_tree_digest_unchanged(name):
    assert trees_digest(name) == GOLDEN[f"trees_{name}"]


def test_tree_json_digest_unchanged():
    assert tree_json_digest() == GOLDEN["tree_json_rewired_2000"]


def test_tree_fault_messages_digest_unchanged():
    assert fault_messages_digest() == GOLDEN["tree_fault_messages"]


def test_metrics_csv_digest_unchanged():
    assert metrics_csv_digest() == GOLDEN["metrics_csv_random_200"]


def test_toy_sweep_digests_unchanged():
    assert sweep_toy_digests() == (GOLDEN["sweep_toy"], GOLDEN["sweep_toy_trees"])


def test_troll_sweep_digest_unchanged():
    results = run_sweep(troll_sweep_config())
    assert results_digest(results) == GOLDEN["sweep_troll"]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_digests_are_the_same_on_one_and_two_workers(monkeypatch, workers):
    # One worker runs the (r, iteration) tasks in this process, two on a fork
    # pool; the troll sweep's two iterations are two tasks.
    monkeypatch.setattr(harness, "_worker_count", lambda tasks: min(workers, tasks))
    assert sweep_toy_digests() == (GOLDEN["sweep_toy"], GOLDEN["sweep_toy_trees"])
    assert results_digest(run_sweep(troll_sweep_config())) == GOLDEN["sweep_troll"]
    assert sweep_csv_digest() == GOLDEN["sweep_csv_toy"]


def test_earlier_scheme_oracle_reproduces_the_earlier_sweep_digests():
    # The reference that the old-versus-new statistical test compares against
    # is exactly the earlier run_sweep, at toy and at troll scale.
    assert results_digest(earlier_scheme_sweep(SweepConfig(**TOY_SWEEP))) == EARLIER_SCHEME["sweep_toy"]
    troll = earlier_scheme_sweep(troll_sweep_config())
    assert results_digest(troll) == EARLIER_SCHEME["sweep_troll"]


@pytest.mark.parametrize("family", sorted(DISTRIBUTIONS))
def test_sampler_digest_unchanged(family):
    assert sample_digest(family) == GOLDEN[f"sample_{family}"]


@pytest.mark.parametrize("family", sorted(DISTRIBUTIONS))
def test_config_json_digest_unchanged(family):
    assert config_json_digest(family) == GOLDEN[f"config_json_{family}"]


@pytest.mark.parametrize("family", sorted(DISTRIBUTIONS))
def test_config_file_digest_unchanged(family):
    assert config_file_digest(family) == GOLDEN[f"config_file_{family}"]


def test_graph_file_digest_unchanged():
    assert graph_file_digest() == GOLDEN["graph_file"]


def test_sweep_csv_digest_unchanged():
    assert sweep_csv_digest() == GOLDEN["sweep_csv_toy"]


def test_analysis_files_digest_unchanged():
    assert analysis_files_digest() == GOLDEN["analysis_files_random_200"]


def test_cli_simulate_tree_file_digest_unchanged():
    assert cli_simulate_digest() == GOLDEN["cli_simulate_tree_file"]


@pytest.mark.parametrize("name", sorted(FIRST_SHARER_SAMPLES))
def test_first_sharer_table_digest_unchanged(name):
    assert first_sharer_table_digest(name) == GOLDEN[f"first_sharer_table_{name}"]


# Every CLI family name and alias, in any case, parses to its constructor's result.
CLI_SPECS = {
    "inverse_gaussian": (("ig", "inverse_gaussian", "IG"), "18.73,9.63"),
    "log_normal": (("ln", "log_normal", "lognormal", "LogNormal"), "1.2,0.8"),
    "poisson": (("poisson", "poi", "Poi"), "39.24"),
    "uniform": (("uniform", "unif", "UNIF"), "1,6.5"),
    "empirical": (("empirical", "emp", "Emp"), None),
}


@pytest.mark.parametrize("family", sorted(CLI_SPECS))
def test_cli_aliases_parse_to_the_constructor_result(family, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("count\n0\n1\n1\n2\n3\n5\n8\n13\n21.5\n")
    names, params = CLI_SPECS[family]
    for name in names:
        assert _parse_distribution(f"{name}:{params or counts}") == DISTRIBUTIONS[family]


if __name__ == "__main__":
    for key, value in all_digests().items():
        print(f'    "{key}": "{value}",')
