"""Command-line surface for the simulation and analysis pipeline.

Subcommands map one-to-one onto library operations: generate (graph
construction), simulate (cascade batches), sweep (parameter grids),
analyze (tree metrics and curves), fit-first-sharers (distribution
fitting), and stats-test (KS and Wald). Every command that draws random
numbers requires an explicit --seed. A cascadekit error or a file that
cannot be read or written ends a command with a one-line message on stderr
and exit code 3, without a traceback.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import harness, stats, trees
from .diffusion import run_batch, sample_news
from .errors import CascadekitError, ParameterError
from .graph import generate_small_world, label_edges, load_graph, save_graph
from .stats import FittedDistribution

EXIT_ERROR = 3  # a CascadekitError or OSError; argparse exits with 2 on bad arguments


def _parse_distribution(spec: str) -> FittedDistribution:
    """Parse 'family:params' specs, e.g. ig:18.73,9.63 or empirical:counts.csv.

    The family is any name or alias in stats.FAMILIES, in any case.
    """
    name, _, raw = spec.partition(":")
    fam = next((f for f in stats.FAMILIES.values() if name.lower() in (f.name, *f.aliases)), None)
    if fam is None:
        raise argparse.ArgumentTypeError(f"unknown distribution spec {spec!r}")
    try:
        values = [_read_numbers(raw)] if stats.SAMPLE in fam.params else [float(v) for v in raw.split(",")]
        if len(values) != len(fam.params):
            raise ParameterError(f"{fam.name} takes parameters ({', '.join(fam.params)}), got {raw!r}")
        return FittedDistribution(fam.name, dict(zip(fam.params, values)))
    except (OSError, ValueError) as exc:  # ParameterError is a ValueError
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}") from exc


def _read_numbers(path) -> np.ndarray:
    """One finite number per CSV row; a non-numeric first row is a header.

    Anything else (another non-numeric row, NaN or infinity, no numbers,
    text that is not CSV in UTF-8) is a ParameterError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            cells = [row[0] for row in csv.reader(fh) if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    values = []
    for k, cell in enumerate(cells):
        try:
            values.append(float(cell))
        except ValueError:
            if k:
                raise ParameterError(f"{path}, row {k + 1}: {cell!r} is not a number") from None
    if not values or not np.all(np.isfinite(values)):
        raise ParameterError(f"{path} must hold at least one number, and no NaN or infinity")
    return np.asarray(values)


def _cmd_generate(args) -> int:
    g = generate_small_world(args.nodes, args.ring_degree, args.rewiring, seed=args.seed)
    if args.phi_hl is not None:
        g = label_edges(g, args.phi_hl, seed=np.random.SeedSequence(args.seed, spawn_key=(1,)))
    save_graph(g, args.out)
    print(f"wrote graph: n={g.node_count} edges={g.edge_count} phi_hl={g.homogeneous_fraction:.4f}")
    return 0


def _cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    ss = np.random.SeedSequence(args.seed)
    s_news, s_batch = ss.spawn(2)
    news = sample_news(args.items, args.first_sharers, seed=s_news, max_count=g.node_count)
    outcomes = run_batch(g, news, args.delta, seed=s_batch)
    trees.save_trees([o.tree for o in outcomes], args.out)
    sizes = [trees.tree_size(o.tree) for o in outcomes]
    print(f"wrote {len(outcomes)} trees: mean size {np.mean(sizes):.3f}")
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        config = harness.load_config(args.config, master_seed=args.seed)
    else:
        config = harness.PRESETS[args.preset](master_seed=args.seed)
    if args.iterations is not None:
        config.iterations = args.iterations
    results = harness.run_sweep(config)
    harness.write_sweep_csv(results, args.out)
    print(f"wrote {len(results)} grid points to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    tree_list = trees.load_trees(args.infile)
    result = harness.analyze(tree_list, by_category=args.group == "category")
    written = harness.write_analysis(result, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _cmd_fit_first_sharers(args) -> int:
    counts = _read_numbers(args.infile)
    fit = stats.fit_first_sharers(counts, seed=args.seed)
    stats.write_first_sharer_table(fit, args.out)
    if fit.zeros_excluded:
        print(f"excluded {fit.zeros_excluded} zero counts from IG/LN fits")
    print(f"wrote comparison table to {args.out}")
    return 0


def _cmd_stats_test(args) -> int:
    a = _read_numbers(args.a)
    b = _read_numbers(args.b)
    if args.test == "ks":
        res = stats.ks_two_sample(a, b, alpha=args.alpha)
        print(f"D={res.D!r} D_alpha={res.D_alpha!r} reject={res.reject}")
    else:
        for path, values in ((args.a, a), (args.b, b)):
            fractional = values[values != np.floor(values)]
            if fractional.size:
                raise ParameterError(f"{path}: the Wald test needs integer sizes, got {float(fractional[0])!r}")
        fit_a = stats.fit_power_law(a.astype(int), x_min=args.x_min)
        fit_b = stats.fit_power_law(b.astype(int), x_min=args.x_min)
        res = stats.wald_test(fit_a, fit_b, alpha=args.alpha)
        print(f"alpha1={fit_a.alpha!r} alpha2={fit_b.alpha!r} W={res.W!r} p={res.p_value!r} reject={res.reject}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cascadekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a signed small-world graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--ring-degree", type=int, default=8)
    p.add_argument("--rewiring", type=float, required=True)
    p.add_argument("--phi-hl", type=float, default=None, help="homogeneous-link fraction to label")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="diffuse a news batch over a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--first-sharers", type=_parse_distribution, required=True,
                   help="family:params, e.g. ig:18.73,9.63 or poisson:39.24")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a Monte Carlo parameter sweep")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON sweep configuration file")
    source.add_argument("--preset", choices=sorted(harness.PRESETS))
    p.add_argument("--iterations", type=int, default=None, help="override iteration count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analyze", help="compute metrics and curves from a tree batch")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--group", choices=["category", "none"], default="category")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit-first-sharers", help="fit count distributions and emit the comparison table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_first_sharers)

    p = sub.add_parser("stats-test", help="two-sample hypothesis tests")
    p.add_argument("test", choices=["ks", "wald"])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--x-min", type=int, default=1, help="power-law cutoff (wald only)")
    p.set_defaults(func=_cmd_stats_test)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CascadekitError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"cascadekit {args.command}: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
