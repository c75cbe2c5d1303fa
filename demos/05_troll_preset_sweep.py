"""Run the troll-page preset and export distribution curves.

The preset fixes 16889 users, 1072 items, inverse-Gaussian(18.73, 9.63)
first sharers, and the grid point (phi_hl, r, delta) = (0.56, 0.01, 0.015).
The statistics come from run_sweep over five iterations; raise them for
smoother statistics (the acceptance suite uses 20, the preset's default
100). A sweep returns statistics only, so the curves come from the sharing
trees of its first iteration, rebuilt with diffuse from the seeds the sweep
draws them from.
"""

import dataclasses

import numpy as np

from cascadekit import (
    analyze,
    diffuse,
    generate_small_world,
    label_edges,
    run_sweep,
    sample_news,
    troll_fit_config,
    write_analysis,
    write_sweep_csv,
)

config = dataclasses.replace(troll_fit_config(master_seed=70), iterations=5)
[result] = run_sweep(config)
print(f"grid point (phi_hl={result.phi_hl}, r={result.r}, delta={result.delta})")
print(f"mean size   {result.mean_size:.2f} (sd {result.sd_size:.2f})")
print(f"mean height {result.mean_height:.3f} (sd {result.sd_height:.3f})")
print(f"predictions: mu {result.mu_pred:.4f}, size {result.size_pred:.2f}")

write_sweep_csv([result], "demo_grid.csv")

# The troll batch of iteration 0: the grid point is index (0, 0, 0), so its
# graph seeds are spawn key (0, 0, 0) and its news seeds (1, 0, 0, 0).
s_graph, s_label = np.random.SeedSequence(config.master_seed, spawn_key=(0, 0, 0)).spawn(2)
s_news, s_batch = np.random.SeedSequence(config.master_seed, spawn_key=(1, 0, 0, 0)).spawn(2)
graph = label_edges(generate_small_world(config.n, config.z, result.r, seed=s_graph), result.phi_hl, seed=s_label)
news = sample_news(config.m, config.first_sharers, seed=s_news, max_count=config.n)
[(_, forest)] = diffuse(graph, news, (result.delta,), seed=s_batch, build_trees=True)

# Size CCDF and height CDF of the batch's cascades, ready for plotting.
analysis = analyze(forest, by_category=False)
written = write_analysis(analysis, "demo_troll_curves")
group = analysis.groups["all"]
xs, ys = group.curves["size_ccdf"]
print(f"\nsize CCDF spans sizes {int(xs[0])}..{int(xs[-1])}; "
      f"P(size > 50) = {float(ys[np.searchsorted(xs, 50)]):.4f}")
print(f"wrote demo_grid.csv and {len(written)} curve files under demo_troll_curves/")
