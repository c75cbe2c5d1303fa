"""Closed-form branching-process predictions for the cascade model.

These formulas give the expected behavior of threshold sharing on a
locally tree-like graph with uniform opinions, as the model draws them:
the per-neighbor sharing probability averaged over fitness, the branching
ratio (optionally damped by the chance q that a neighbor has a different
polarization), the subcritical mean cascade size, and the size-biased
variant for heterogeneous degree distributions.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, SupercriticalError, check_unit, is_integer


def mean_share_probability(delta: float) -> float:
    """Sharing probability averaged over uniform fitness: 2*delta - delta^2."""
    check_unit(delta, "threshold")
    return 2.0 * delta - delta * delta


def branching_ratio(z: int, delta: float, q: float = 0.0) -> float:
    """Expected new sharers per sharer: z * (1 - q) * p, with the flat-window approximation p = 2*delta.

    z * (1 - q) * mean_share_probability(delta) is the boundary-corrected value.
    """
    if not is_integer(z):
        raise ParameterError(f"neighborhood dimension must be an integer, got {z!r}")
    if not z > 0:
        raise ParameterError(f"neighborhood dimension must be positive, got {z}")
    check_unit(q, "mixing probability q")
    check_unit(delta, "threshold")
    return z * (1.0 - q) * (2.0 * delta)


def expected_cascade_size(mean_first_sharers: float, mu: float) -> float:
    """Subcritical mean cascade size <m> / (1 - mu).

    Raises:
        ParameterError: <m> negative or NaN, or mu NaN.
        SupercriticalError: mu >= 1 (the geometric series diverges).
    """
    if not mean_first_sharers >= 0:
        raise ParameterError(f"mean first-sharer count must be >= 0, got {mean_first_sharers}")
    if np.isnan(mu):
        raise ParameterError("branching ratio must be a number, got nan")
    if mu >= 1.0:
        raise SupercriticalError(f"branching ratio {mu} >= 1: expected size diverges")
    return mean_first_sharers / (1.0 - mu)


def heterogeneous_branching(degree_distribution, p: float, q: float = 0.0) -> float:
    """Size-biased branching ratio (1 - q) * p * <z^2> / <z> with z = degree - 1.

    Args:
        degree_distribution: mapping degree -> probability, or a pair of
            equal-length sequences (degrees, probabilities). Must sum to 1.
        p: per-neighbor sharing probability, in [0, 1].
        q: probability that a neighbor has a different polarization.
    """
    if isinstance(degree_distribution, dict):
        ks = np.array(sorted(degree_distribution), dtype=float)
        probs = np.array([degree_distribution[k] for k in sorted(degree_distribution)], dtype=float)
    else:
        ks, probs = (np.asarray(a, dtype=float) for a in degree_distribution)
    if ks.size == 0 or not (abs(probs.sum() - 1.0) <= 1e-9 and np.all(probs >= 0) and np.all(np.isfinite(ks))):
        raise ParameterError("degree distribution must have finite degrees, non-negative probabilities summing to 1")
    check_unit(p, "sharing probability p")
    check_unit(q, "mixing probability q")
    zs = ks - 1.0
    mean_z = float(np.sum(zs * probs))
    if mean_z <= 0:
        raise ParameterError("degree distribution has no propagation capacity (<z> <= 0)")
    mean_z2 = float(np.sum(zs * zs * probs))
    return (1.0 - q) * p * mean_z2 / mean_z
