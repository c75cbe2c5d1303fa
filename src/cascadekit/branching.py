"""Closed-form branching-process predictions for the cascade model.

These formulas give the expected behavior of threshold sharing on a
locally tree-like graph with uniform opinions, as the model draws them:
the per-neighbor sharing probability averaged over fitness, the branching
ratio (optionally damped by the chance q that a neighbor has a different
polarization), the subcritical mean cascade size, and the size-biased
variant for heterogeneous degree distributions.

A degree distribution's degrees and probabilities are read by
files.read_sample, as the stats functions read their samples, and a
probability must lie in [0, 1], all of them summing to 1; the mean
first-sharer count and the branching ratio of expected_cascade_size are
finite numbers, as files.KINDS reads them.
"""

from __future__ import annotations

import math

import numpy as np

from . import files
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
        ParameterError: <m> or mu not a finite number (files.KINDS), <m>
            negative, or a size past the float range.
        SupercriticalError: mu >= 1 (the geometric series diverges).
    """
    seeds = files.read_value(mean_first_sharers, "number", ParameterError, "mean first-sharer count")
    mu = files.read_value(mu, "number", ParameterError, "branching ratio")
    if seeds < 0:
        raise ParameterError(f"mean first-sharer count must be >= 0, got {seeds}")
    if mu >= 1.0:
        raise SupercriticalError(f"branching ratio {mu} >= 1: expected size diverges")
    size = seeds / (1.0 - mu)
    if not math.isfinite(size):
        raise ParameterError(f"expected cascade size {seeds} / (1 - {mu}) passes the float range")
    return size


def heterogeneous_branching(degree_distribution, p: float, q: float = 0.0) -> float:
    """Size-biased branching ratio (1 - q) * p * <z^2> / <z> with z = degree - 1.

    Args:
        degree_distribution: a dict degree -> probability, or a pair (a
            list or tuple) of equally long samples (degrees, probabilities).
            The probabilities must lie in [0, 1] and sum to 1.
        p: per-neighbor sharing probability, in [0, 1].
        q: probability that a neighbor has a different polarization.
    """
    dist = degree_distribution
    pair = (list(dist), list(dist.values())) if isinstance(dist, dict) else dist
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ParameterError("a degree distribution must be a dict or a pair (degrees, probabilities)")
    ks, probs = files.read_sample(pair[0], "degree list"), files.read_sample(pair[1], "probability list")
    if not (ks.size == probs.size and np.all((probs >= 0) & (probs <= 1)) and abs(probs.sum() - 1.0) <= 1e-9):
        raise ParameterError("degree distribution must pair each degree with a probability in [0, 1], summing to 1")
    check_unit(p, "sharing probability p")
    check_unit(q, "mixing probability q")
    order = np.argsort(ks) if isinstance(dist, dict) else slice(None)  # a dict sums in degree order
    zs, probs = ks[order] - 1.0, probs[order]
    with np.errstate(over="ignore", invalid="ignore"):  # a moment past the float range fails the test below
        mean_z = float(np.sum(zs * probs))
        mean_z2 = float(np.sum(zs * zs * probs))
    if mean_z <= 0:
        raise ParameterError("degree distribution has no propagation capacity (<z> <= 0)")
    mu = (1.0 - q) * p * mean_z2 / mean_z
    if not math.isfinite(mu):
        raise ParameterError(f"degree distribution's (1 - q) * p * <z^2> / <z> passes the float range, got {mu}")
    return mu
