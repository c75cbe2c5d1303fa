import re
import warnings

import numpy as np
import pytest
from scipy import integrate

from cascadekit.branching import (
    branching_ratio,
    expected_cascade_size,
    heterogeneous_branching,
    mean_share_probability,
)
from cascadekit.diffusion import NewsItem, run_batch
from cascadekit.errors import ParameterError, SupercriticalError
from cascadekit.graph import generate_small_world

from oracles import nodes_of, share_probability


def test_share_probability_window_cases():
    assert share_probability(0.5, 0.015) == pytest.approx(0.03)
    assert share_probability(0.005, 0.015) == pytest.approx(0.02)  # left boundary clips
    assert share_probability(0.5, 0.5) == pytest.approx(1.0)
    assert share_probability(1.0, 0.015) == pytest.approx(0.015)


def test_share_probability_bounds_under_uniform_density():
    rng = np.random.default_rng(0)
    delta = 0.08
    for theta in rng.uniform(0, 1, size=200):
        p = share_probability(float(theta), delta)
        assert 0.0 <= p <= 2 * delta + 1e-12
        if delta <= theta <= 1 - delta:
            assert p == pytest.approx(2 * delta)


def test_share_probability_integrates_to_boundary_corrected_mean():
    for delta in (0.015, 0.05, 0.3):
        integral, _ = integrate.quad(lambda t: share_probability(t, delta), 0.0, 1.0, epsabs=1e-12)
        assert abs(integral - (2 * delta - delta**2)) < 1e-9
        assert mean_share_probability(delta) == pytest.approx(2 * delta - delta**2, abs=1e-12)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: mean_share_probability(-0.01),
    lambda: mean_share_probability(1.01),
    lambda: branching_ratio(0, 0.01),
    lambda: branching_ratio(8, 0.01, q=-0.1),
    lambda: branching_ratio(8, 0.01, q=1.1),
    lambda: branching_ratio(8, 1.5),
    lambda: heterogeneous_branching({3: 1.0}, p=0.1, q=1.5),
    lambda: heterogeneous_branching({2: 0.5, 3: 0.5}, p=1.7),
    lambda: heterogeneous_branching({3: 1.0}, p=-0.1),
    lambda: mean_share_probability(NAN),
    lambda: branching_ratio(NAN, 0.01),
    lambda: branching_ratio(8, NAN),
    lambda: branching_ratio(8, 0.01, q=NAN),
    lambda: expected_cascade_size(NAN, 0.5),
    lambda: expected_cascade_size(1.0, NAN),
    lambda: heterogeneous_branching({3: 1.0}, p=NAN),
    lambda: heterogeneous_branching({3: 1.0}, p=0.1, q=NAN),
    lambda: heterogeneous_branching({3: NAN}, p=0.1),
    lambda: heterogeneous_branching(([NAN, 3], [0.5, 0.5]), p=0.1),
], ids=["mean delta<0", "mean delta>1", "ratio z=0", "ratio q<0", "ratio q>1", "ratio delta>1", "heterogeneous q>1",
        "heterogeneous p>1", "heterogeneous p<0", "mean delta nan", "ratio z nan", "ratio delta nan", "ratio q nan",
        "size seeds nan", "size mu nan", "heterogeneous p nan", "heterogeneous q nan", "heterogeneous probability nan",
        "heterogeneous degree nan"])
def test_out_of_range_arguments_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_branching_ratio_examples():
    assert branching_ratio(8, 0.015, q=0.0) == pytest.approx(0.24)
    assert branching_ratio(8, 0.05, q=1.0) == 0.0
    assert branching_ratio(8, 0.05, q=0.0) == pytest.approx(0.8)
    assert branching_ratio(8, 0.05, q=0.0) < 1.0  # subcritical at the sweep upper bound
    assert 8 * mean_share_probability(0.05) == pytest.approx(8 * (0.1 - 0.0025))  # the boundary-corrected ratio


def test_expected_cascade_size():
    assert expected_cascade_size(5.0, 0.0) == 5.0
    assert expected_cascade_size(1.0, 0.5) == 2.0
    with pytest.raises(SupercriticalError):
        expected_cascade_size(1.0, 1.0)
    with pytest.raises(SupercriticalError):
        expected_cascade_size(1.0, 1.7)
    with pytest.raises(ParameterError):
        expected_cascade_size(-1.0, 0.5)


@pytest.mark.parametrize("seeds,mu,message", [
    (float("inf"), 0.2, "mean first-sharer count must be a finite number, got inf"),
    (2.0, float("-inf"), "branching ratio must be a finite number, got -inf"),
    (1.0, "0.5", "branching ratio must be a finite number, got '0.5'"),
    (True, 0.5, "mean first-sharer count must be a finite number, got True"),
    (-1.0, 0.5, "mean first-sharer count must be >= 0, got -1.0"),
    (1e308, 0.99, "expected cascade size 1e+308 / (1 - 0.99) passes the float range"),
], ids=["inf seeds", "-inf mu", "str mu", "bool seeds", "negative seeds", "overflowing size"])
def test_expected_cascade_size_takes_finite_numbers(seeds, mu, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        expected_cascade_size(seeds, mu)


def test_heterogeneous_branching_past_the_float_range_is_a_parameter_error():
    for dist in ({1e200: 1.0}, {2.0: 0.5, 1.7e308: 0.5}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="passes the float range"):
                heterogeneous_branching(dist, p=0.1)
    assert heterogeneous_branching({5: 0.5, 3: 0.5}, p=0.1) == heterogeneous_branching({3: 0.5, 5: 0.5}, p=0.1)


def test_expected_size_monotone_in_mu_and_linear_in_seeds():
    mus = np.linspace(0, 0.95, 40)
    sizes = [expected_cascade_size(1.0, float(mu)) for mu in mus]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert expected_cascade_size(7.0, 0.3) == pytest.approx(7 * expected_cascade_size(1.0, 0.3))


def test_heterogeneous_regular_graph_collapses_to_branching_ratio():
    p = 0.03
    for z in (2, 4, 8):
        mu_het = heterogeneous_branching({z + 1: 1.0}, p, q=0.25)
        assert mu_het == pytest.approx(z * (1 - 0.25) * p)


def test_heterogeneous_two_point_distribution():
    mu = heterogeneous_branching({3: 0.5, 5: 0.5}, p=0.1, q=0.0)
    assert mu == pytest.approx(1.0 / 3.0)


def test_heterogeneous_accepts_arrays_and_validates():
    mu = heterogeneous_branching(([3, 5], [0.5, 0.5]), p=0.1)
    assert mu == pytest.approx(1.0 / 3.0)
    with pytest.raises(ParameterError):
        heterogeneous_branching({3: 0.4, 5: 0.4}, p=0.1)  # not normalized
    with pytest.raises(ParameterError):
        heterogeneous_branching({1: 1.0}, p=0.1)  # degree 1 means <z> = 0


def test_branching_ratio_feeds_expected_size():
    mu = branching_ratio(8, 0.015, 0.44)
    assert mu == pytest.approx(8 * 0.56 * 0.03)
    assert expected_cascade_size(18.73, mu) == pytest.approx(18.73 / (1 - 8 * 0.56 * 0.03))


def test_heterogeneous_prediction_matches_simulated_offspring():
    # Offspring counted directly in diffusion runs on a rewired graph:
    # non-seed sharers arrive via an edge, so their expected child count is
    # the size-biased (1-q) * p * <z^2>/<z> with z = degree - 1.
    g = generate_small_world(5000, 8, 1.0, seed=99)
    degrees = g.degrees()
    dist = {int(k): float(c) / g.node_count for k, c in enumerate(np.bincount(degrees)) if c}
    delta = 0.03
    p_mean = mean_share_probability(delta)
    mu_het = heterogeneous_branching(dist, p=p_mean, q=0.0)

    news = [NewsItem(id=i, fitness=(i + 0.5) / 10**4, first_sharer_count=1) for i in range(10**4)]
    outcomes = run_batch(g, news, delta, seed=1234)
    children = 0
    non_seed = 0
    for outcome in outcomes:
        nodes = nodes_of(outcome.tree)
        child_counts = {}
        for nd in nodes:
            if nd.parent is not None:
                child_counts[nd.parent] = child_counts.get(nd.parent, 0) + 1
        for nd in nodes:
            if nd.parent is not None:
                non_seed += 1
                children += child_counts.get(nd.id, 0)
    simulated = children / non_seed
    assert abs(simulated - mu_het) / mu_het < 0.10
