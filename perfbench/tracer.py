"""Spans around calls into cascadekit's modules, kept in memory for the traced run.

The traced run replaces the attributes that callers look up -- for example
``harness.generate_small_world``, ``cli.load_graph`` or
``trees.metrics_row`` -- with wrappers that record one span per call:
name, layer, start, end, parent span and run id. Nothing under ``src/``
changes; the wrappers are installed for a traced repetition and removed
afterwards, so untraced repetitions run the plain functions.

A layer's self time is its spans' durations minus the child spans they
cover. Time outside every span (the benchmark's own code between calls)
is the remainder, so the self times plus the remainder add up to the
traced wall time of a repetition.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = ("graph", "diffusion", "trees", "stats", "branching", "harness", "cli")

CLI_COMMANDS = ("generate", "simulate", "analyze", "fit_first_sharers", "stats_ks", "stats_wald")

# (span name, attribute, owners, record when nested in a span of the same layer).
# An owner is a cascadekit module, or "module.Class" for a method. Owners
# that lack the attribute are skipped, so a later refactor that drops one of
# these names reads as zero calls rather than an error.
TRACED = (
    ("graph.generate", "generate_small_world", ("graph", "harness", "cli"), False),
    ("graph.label", "label_edges", ("graph", "harness", "cli"), False),
    ("graph.adjacency", "adjacency", ("graph.SignedGraph",), False),
    ("graph.json_export", "save_graph", ("graph", "cli"), False),
    ("graph.json_import", "load_graph", ("graph", "cli"), False),
    ("diffusion.sample_news", "sample_news", ("diffusion", "harness", "cli"), False),
    ("diffusion.run_batch", "run_batch", ("diffusion", "harness", "cli"), False),
    ("trees.size_height", "tree_size", ("trees",), False),
    ("trees.size_height", "tree_height", ("trees",), False),
    ("trees.metrics_row", "metrics_row", ("trees",), False),
    ("trees.save", "save_trees", ("trees", "cli"), False),
    ("trees.load", "load_trees", ("trees", "harness", "cli"), False),
    ("stats.curves", "empirical_cdf", ("stats",), False),
    ("stats.curves", "empirical_ccdf", ("stats",), False),
    ("stats.curves", "empirical_pdf", ("stats",), False),
    ("stats.ks", "ks_two_sample", ("stats",), False),
    ("stats.power_law_fit", "fit_power_law", ("stats",), False),
    ("stats.wald", "wald_test", ("stats",), False),
    ("stats.first_sharer_fit", "fit_first_sharers", ("stats",), False),
    ("branching.predict", "branching_ratio", ("branching",), False),
    ("branching.predict", "expected_cascade_size", ("branching",), False),
    ("harness.run_sweep", "run_sweep", ("harness",), False),
    ("harness.simulate_point", "simulate_point", ("harness",), True),
    ("harness.analyze", "analyze", ("harness",), False),
    ("harness.write_analysis", "write_analysis", ("harness",), False),
)

TRACED_NAMES = tuple(dict.fromkeys(name for name, *_ in TRACED))

COUNT_NAMES = (
    "graph.generated_edges",
    "diffusion.cascades",
    "diffusion.sharers",
    "diffusion.rounds",
    "diffusion.zero_seed_items",
    "trees.metrics_row.nodes",
    "trees.load.nodes",
)

# Span record fields.
NAME, LAYER, START, END, PARENT, RUN = range(6)


@dataclass
class Totals:
    """Span sums over some runs; entries counts calls into a layer from outside it."""

    self_s: Counter = field(default_factory=Counter)
    inclusive_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    entries: Counter = field(default_factory=Counter)
    covered_s: float = 0.0  # time inside top-level spans


class Tracer:
    """In-memory spans and counts for the repetitions of one traced run."""

    def __init__(self, ck):
        self._ck = ck  # dict of cascadekit modules by short name
        self._tree_size = ck["trees"].tree_size
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.gc_s: dict[int, float] = defaultdict(float)
        self.gc_gen2: dict[int, int] = defaultdict(int)
        self.run_id = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # --- spans --------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.run_id])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._enter(name, name.split(".", 1)[0])
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, name: str, fn, inner: bool):
        layer = name.split(".", 1)[0]
        spans, open_ = self.spans, self._open
        after = self._count_hooks().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not inner and open_ and spans[open_[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            index = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- counts taken at the layer boundaries --------------------------------

    def _count_hooks(self):
        def run_batch(args, kwargs, outcomes):
            news = kwargs.get("news_list", args[1] if len(args) > 1 else ())
            c = self.counts[self.run_id]
            c["diffusion.cascades"] += len(outcomes)
            c["diffusion.sharers"] += sum(self._tree_size(o.tree) for o in outcomes)
            c["diffusion.rounds"] += sum(o.rounds for o in outcomes)
            c["diffusion.zero_seed_items"] += sum(1 for item in news if item.first_sharer_count == 0)

        def generate(args, kwargs, g):
            self.counts[self.run_id]["graph.generated_edges"] += g.edge_count

        def metrics_row(args, kwargs, row):
            self.counts[self.run_id]["trees.metrics_row.nodes"] += self._tree_size(args[0])

        def load(args, kwargs, batch):
            self.counts[self.run_id]["trees.load.nodes"] += sum(self._tree_size(t) for t in batch)

        return {"graph.generate": generate, "diffusion.run_batch": run_batch,
                "trees.metrics_row": metrics_row, "trees.load": load}

    # --- installing and removing the wrappers ---------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s[self.run_id] += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2[self.run_id] += 1

    @contextlib.contextmanager
    def active(self, run_id: int):
        """Trace one repetition: install the wrappers and the GC callback."""
        self.run_id = run_id
        wrappers = {}
        for name, attr, owners, inner in TRACED:
            for owner in owners:
                module, _, cls = owner.partition(".")
                target = self._ck[module]
                if cls:
                    target = getattr(target, cls, None)
                original = getattr(target, attr, None) if target is not None else None
                if original is None:
                    continue
                key = (name, id(original))
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, original, inner)
                self._patches.append((target, attr, original))
                setattr(target, attr, wrappers[key])
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for target, attr, original in reversed(self._patches):
                setattr(target, attr, original)
            self._patches.clear()

    # --- reduction ------------------------------------------------------------

    def totals(self, run_ids) -> Totals:
        """Sum self time, inclusive time and calls per span over the given runs."""
        runs = set(run_ids)
        child = defaultdict(float)
        for s in self.spans:
            if s[RUN] in runs and s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        t = Totals()
        for i, s in enumerate(self.spans):
            if s[RUN] not in runs:
                continue
            duration = s[END] - s[START]
            t.self_s[s[NAME]] += duration - child[i]
            t.inclusive_s[s[NAME]] += duration
            t.calls[s[NAME]] += 1
            parent = s[PARENT]
            if parent is None:
                t.covered_s += duration
            if parent is None or self.spans[parent][LAYER] != s[LAYER]:
                t.entries[s[LAYER]] += 1
        return t

    def to_dict(self) -> dict:
        """Spans as columns plus counts, for writing out when the run ends."""
        columns = list(zip(*self.spans)) if self.spans else [()] * 6
        return {
            "fields": ["name", "layer", "start", "end", "parent", "run"],
            "columns": [list(col) for col in columns],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
            "gc_s": {str(k): v for k, v in self.gc_s.items()},
            "gc_gen2": {str(k): v for k, v in self.gc_gen2.items()},
        }
