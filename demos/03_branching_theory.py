"""Check simulations against closed-form branching predictions.

On a locally tree-like graph (high rewiring) with all edges homogeneous,
a cascade behaves like a branching process with ratio mu = 2*delta*z and
expected size <m>/(1 - mu). Clustering (low r) and the mixing factor
(1 - q) = phi_hl damp real cascades below these idealized numbers.
"""

import numpy as np

from cascadekit import (
    NewsItem,
    branching_ratio,
    expected_cascade_size,
    generate_small_world,
    heterogeneous_branching,
    mean_share_probability,
    run_batch,
    tree_size,
)

z, n_items = 8, 10_000
print(f"{'delta':>6} {'mu':>6} {'S pred':>8} {'S sim':>8} {'rel err':>8}")
for k, delta in enumerate((0.01, 0.02, 0.03)):
    g = generate_small_world(5000, z, r=1.0, seed=20 + k)
    rng = np.random.default_rng(30 + k)
    news = [NewsItem(id=i, fitness=float(f), first_sharer_count=1)
            for i, f in enumerate(rng.uniform(size=n_items))]
    outcomes = run_batch(g, news, delta, seed=40 + k)
    sim = float(np.mean([tree_size(o.tree) for o in outcomes]))
    mu = branching_ratio(z, delta)
    pred = expected_cascade_size(1.0, mu)
    print(f"{delta:>6} {mu:>6.2f} {pred:>8.4f} {sim:>8.4f} {(sim - pred) / pred:>+8.2%}")

# The mixing factor: q is the chance a neighbor has a different polarization,
# mapped to 1 - phi_hl when comparing against labeled graphs.
mu_mixed = branching_ratio(z, 0.015, q=1 - 0.56)
print(f"\nwith phi_hl=0.56, delta=0.015: mu = {mu_mixed:.4f}, "
      f"predicted size for 18.73 seeds = {expected_cascade_size(18.73, mu_mixed):.2f}")

# Heterogeneous degrees push the ratio up by <z^2>/<z> with z = degree - 1.
g = generate_small_world(5000, z, r=1.0, seed=50)
counts = np.bincount(g.degrees())
dist = {k: c / g.node_count for k, c in enumerate(counts) if c}
p = mean_share_probability(0.03)
print(f"degree-aware ratio at delta=0.03: {heterogeneous_branching(dist, p):.4f} "
      f"vs regular-graph value {z * mean_share_probability(0.03):.4f}")
