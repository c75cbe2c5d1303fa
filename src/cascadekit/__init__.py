"""cascadekit: rumor-cascade percolation on signed small-world networks.

The package covers the full pipeline: build a signed Watts-Strogatz graph,
diffuse news items under a sharing threshold restricted to homogeneous
edges, measure the resulting sharing trees, fit and test the cascade
statistics, and cross-check simulations against branching-process theory.
"""

from .branching import (
    branching_ratio,
    expected_cascade_size,
    heterogeneous_branching,
    mean_share_probability,
)
from .diffusion import (
    BatchStats,
    CascadeOutcome,
    NewsItem,
    diffuse,
    run_batch,
    sample_news,
)
from .errors import (
    CascadekitError,
    DegenerateSampleError,
    OrphanParentError,
    ParameterError,
    SigmaRangeError,
    SupercriticalError,
    TimestampOrderError,
    TreeCycleError,
    TreeSchemaError,
    TreeValidationError,
    UndefinedMetricError,
)
from .graph import (
    SignedGraph,
    generate_small_world,
    graph_from_dict,
    graph_to_dict,
    label_edges,
    load_graph,
    save_graph,
)
from .harness import (
    AnalysisResult,
    SweepConfig,
    SweepResult,
    analyze,
    load_config,
    run_sweep,
    save_config,
    troll_fit_config,
    write_analysis,
    write_sweep_csv,
)
from .stats import (
    FittedDistribution,
    FirstSharerFit,
    KSTestResult,
    PowerLawFit,
    SummaryStats,
    WaldTestResult,
    empirical_ccdf,
    empirical_cdf,
    empirical_pdf,
    first_sharer_table,
    fit_first_sharers,
    fit_power_law,
    kolmogorov_critical,
    ks_two_sample,
    sample_inverse_gaussian,
    summary_stats,
    wald_test,
)
from .trees import (
    Forest,
    SharingTree,
    lifetime,
    load_trees,
    mean_edge_homogeneity,
    metrics_rows,
    save_trees,
    tree_from_dict,
    tree_height,
    tree_size,
    tree_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
