"""Run the troll-page preset and export distribution curves.

The preset fixes 16889 users, 1072 items, inverse-Gaussian(18.73, 9.63)
first sharers, and the grid point (phi_hl, r, delta) = (0.56, 0.01, 0.015).
Five iterations keep this demo quick; raise them for smoother statistics
(the acceptance suite uses 20, the preset's default 100).
"""

import dataclasses

import numpy as np

from cascadekit import analyze, run_sweep, troll_fit_config, write_analysis, write_sweep_csv

config = dataclasses.replace(troll_fit_config(master_seed=70), iterations=5)
results, trees_by_point = run_sweep(config, collect_trees=True)

[result] = results
print(f"grid point (phi_hl={result.phi_hl}, r={result.r}, delta={result.delta})")
print(f"mean size   {result.mean_size:.2f} (sd {result.sd_size:.2f})")
print(f"mean height {result.mean_height:.3f} (sd {result.sd_height:.3f})")
print(f"predictions: mu {result.mu_pred:.4f}, size {result.size_pred:.2f}")

write_sweep_csv(results, "demo_grid.csv")

# Size CCDF and height CDF of the pooled cascades, ready for plotting.
batch = trees_by_point[(0.56, 0.01, 0.015)]
analysis = analyze(batch, by_category=False)
written = write_analysis(analysis, "demo_troll_curves")
group = analysis.groups["all"]
xs, ys = group.curves["size_ccdf"]
print(f"\nsize CCDF spans sizes {int(xs[0])}..{int(xs[-1])}; "
      f"P(size > 50) = {float(ys[np.searchsorted(xs, 50)]):.4f}")
print(f"wrote demo_grid.csv and {len(written)} curve files under demo_troll_curves/")
