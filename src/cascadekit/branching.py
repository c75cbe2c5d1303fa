"""Closed-form branching-process predictions for the cascade model.

These formulas give the expected behavior of threshold sharing on a
locally tree-like graph: the per-neighbor sharing probability, the
branching ratio (optionally damped by the chance q that a neighbor has
a different polarization), the subcritical mean cascade size, and the
size-biased variant for heterogeneous degree distributions.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError, SupercriticalError

_DENSITY_TOL = 1e-6


def _check_density(density) -> None:
    mass, _ = quad(density, 0.0, 1.0, limit=200)
    if abs(mass - 1.0) > _DENSITY_TOL:
        raise ParameterError(f"opinion density must integrate to 1 on [0, 1], got {mass:.8f}")


def share_probability(theta: float, delta: float, opinion_density=None) -> float:
    """Probability mass of opinions within delta of the fitness theta.

    For uniform opinions this is the clipped window width
    min(1, theta + delta) - max(0, theta - delta). For a custom density f
    it is f(theta) times the integral of f over the clipped window, so that
    integrating the result over theta gives the joint sharing probability.
    """
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"fitness must be in [0, 1], got {theta}")
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"threshold must be in [0, 1], got {delta}")
    lo = max(0.0, theta - delta)
    hi = min(1.0, theta + delta)
    if opinion_density is None:
        return hi - lo
    _check_density(opinion_density)
    window, _ = quad(opinion_density, lo, hi, limit=200)
    return opinion_density(theta) * window


def mean_share_probability(delta: float, opinion_density=None) -> float:
    """Sharing probability averaged over fitness: 2*delta - delta^2 for uniform opinions."""
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"threshold must be in [0, 1], got {delta}")
    if opinion_density is None:
        return 2.0 * delta - delta * delta
    _check_density(opinion_density)
    value, _ = quad(lambda t: share_probability(t, delta, opinion_density), 0.0, 1.0, limit=200)
    return value


def branching_ratio(z: int, delta: float, q: float = 0.0, *, exact: bool = False) -> float:
    """Expected new sharers per sharer: z * (1 - q) * p.

    Uses the flat-window approximation p = 2*delta by default; exact=True
    substitutes the boundary-corrected average 2*delta - delta^2.
    """
    if z <= 0:
        raise ParameterError(f"neighborhood dimension must be positive, got {z}")
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"mixing probability q must be in [0, 1], got {q}")
    if not 0.0 <= delta <= 1.0:
        raise ParameterError(f"threshold must be in [0, 1], got {delta}")
    p = mean_share_probability(delta) if exact else 2.0 * delta
    return z * (1.0 - q) * p


def expected_cascade_size(mean_first_sharers: float, mu: float) -> float:
    """Subcritical mean cascade size <m> / (1 - mu).

    Raises:
        SupercriticalError: mu >= 1 (the geometric series diverges).
    """
    if mean_first_sharers < 0:
        raise ParameterError(f"mean first-sharer count must be >= 0, got {mean_first_sharers}")
    if mu >= 1.0:
        raise SupercriticalError(f"branching ratio {mu} >= 1: expected size diverges")
    return mean_first_sharers / (1.0 - mu)


def heterogeneous_branching(degree_distribution, p: float, q: float = 0.0) -> float:
    """Size-biased branching ratio (1 - q) * p * <z^2> / <z> with z = degree - 1.

    Args:
        degree_distribution: mapping degree -> probability, or a pair of
            equal-length sequences (degrees, probabilities). Must sum to 1.
        p: per-neighbor sharing probability.
        q: probability that a neighbor has a different polarization.
    """
    if isinstance(degree_distribution, dict):
        ks = np.array(sorted(degree_distribution), dtype=float)
        probs = np.array([degree_distribution[k] for k in sorted(degree_distribution)], dtype=float)
    else:
        ks, probs = (np.asarray(a, dtype=float) for a in degree_distribution)
    if ks.size == 0 or abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0):
        raise ParameterError("degree distribution must be non-negative and sum to 1")
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"mixing probability q must be in [0, 1], got {q}")
    zs = ks - 1.0
    mean_z = float(np.sum(zs * probs))
    if mean_z <= 0:
        raise ParameterError("degree distribution has no propagation capacity (<z> <= 0)")
    mean_z2 = float(np.sum(zs * zs * probs))
    return (1.0 - q) * p * mean_z2 / mean_z
