import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy import special
from scipy import stats as scipy_stats

from cascadekit.errors import DegenerateSampleError, ParameterError
from cascadekit.stats import (
    FAMILIES,
    FAMILY_EMPIRICAL,
    FAMILY_IG,
    FAMILY_LN,
    FAMILY_POISSON,
    FAMILY_UNIFORM,
    POISSON_RATE_MAX,
    FittedDistribution,
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

from oracles import chi2_1_sf_quadrature, naive_summary, sample_power_law


# --- summary statistics ---------------------------------------------------------

def test_summary_stats_basic():
    s = summary_stats([1, 2, 3, 4, 5])
    assert astuple(s) == (1.0, 2.0, 3.0, 3.0, 4.0, 5.0)


def test_summary_stats_rejects_empty():
    with pytest.raises(ParameterError):
        summary_stats([])


def test_summary_stats_matches_naive_oracle_exactly():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 1000))
        sample = rng.integers(0, 10_000, size=n)
        assert astuple(summary_stats(sample)) == naive_summary(sample)


def test_summary_stats_reproduces_engineered_data_column():
    # integer sample built so the six-number summary lands exactly on
    # (1, 5, 10, 39.34, 27, 3033)
    sample = [1] * 262 + [5] * 262 + [10] * 262 + [27] * 251 + [2276] * 11 + [2269] + [3033]
    assert len(sample) == 1050
    assert astuple(summary_stats(sample)) == (1.0, 5.0, 10.0, 39.34, 27.0, 3033.0)


@pytest.mark.parametrize("sample", [[1e308, 1.5e308, 1.7e308], [-1.7e308, -1.7e308, 1.0], [1.7e308] * 1000])
def test_summary_stats_of_a_sample_whose_sum_overflows_has_its_finite_mean(sample):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summary_stats(sample)
    assert math.isfinite(s.mean) and s.min <= s.mean <= s.max
    assert s.mean == pytest.approx(math.fsum(v / len(sample) for v in sample), rel=1e-15)


@pytest.mark.parametrize("sample,quartiles", [
    ([-1.7e308, 1.7e308], (-1.7e308, -8.5e307, 0.0, 8.5e307, 1.7e308)),
    ([-1.7e308, -1e308, 1e308, 1.7e308, 1.7e308], (-1.7e308, -1e308, 1e308, 1.7e308, 1.7e308)),
], ids=["two", "five"])
def test_summary_stats_of_a_sample_whose_order_statistics_lie_further_apart_than_the_float_range(sample, quartiles):
    # np.quantile interpolates across the gap b - a, which overflows to inf, and gives inf or NaN quartiles.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summary_stats(sample)
    assert (s.min, s.q1, s.median, s.q3, s.max) == quartiles


def test_empirical_curve_boundary_identities():
    sample = [3, 1, 4, 1, 5, 9, 2, 6]
    xs, cdf = empirical_cdf(sample)
    assert xs[-1] == max(sample) and cdf[-1] == 1.0
    xs, ccdf = empirical_ccdf(sample)
    assert xs[0] == min(sample) and ccdf[0] == 1.0 - sample.count(min(sample)) / len(sample)
    assert xs[-1] == max(sample) and ccdf[-1] == 0.0


def test_empirical_pdf_integrates_to_one():
    rng = np.random.default_rng(7)
    sample = rng.normal(size=4000)
    centers, density = empirical_pdf(sample, bins=40)
    width = centers[1] - centers[0]
    assert float(np.sum(density) * width) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("sample", [[1e17], [1e17, 1e17 + 64], [0.0, 5e-324], [0.0, 1e-308], [-1e308, 1e308],
                                    [1e308, 1.7e308]],
                         ids=["constant", "narrow", "subnormal", "tiny", "overflowing range", "overflowing centers"])
def test_empirical_pdf_of_bins_it_cannot_represent_is_a_degenerate_sample(sample):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSampleError):
            empirical_pdf(sample, bins=20)


def test_empirical_pdf_matches_numpy_where_numpy_can_bin():
    rng = np.random.default_rng(8)
    for sample in ([3.0], [0.0, 1.0], rng.normal(size=50) * 1e10, rng.exponential(size=500)):
        density, edges = np.histogram(sample, bins=20, density=True)
        centers, ours = empirical_pdf(sample, bins=20)
        assert ours.tolist() == density.tolist()
        assert centers.tolist() == (0.5 * (edges[:-1] + edges[1:])).tolist()


@pytest.mark.parametrize("bins", [0, -1, 2.5, True, None, "3", [3.0, 2.0, 1.0], [1.0], 2**70],
                         ids=["0", "-1", "2.5", "bool", "none", "str", "decreasing", "one edge", "huge"])
def test_empirical_pdf_bins_are_a_count_or_non_decreasing_edges(bins):
    message = f"bins must be an integer >= 1 or at least two non-decreasing finite edges, got {bins!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        empirical_pdf([1.0, 2.0, 3.0], bins=bins)


def test_empirical_pdf_reads_bin_edges_as_a_sample():
    with pytest.raises(ParameterError, match="^bin edges entry must be a finite number, got nan$"):
        empirical_pdf([1.0, 2.0, 3.0], bins=[0.0, math.nan, 4.0])
    with pytest.raises(ParameterError, match="^bin edges must be a list or a 1-D array of finite numbers, got ndarray$"):
        empirical_pdf([1.0, 2.0, 3.0], bins=np.ones((2, 2)))
    sample = np.random.default_rng(9).uniform(-1, 1, 200)
    edges = np.linspace(-1, 1, 21)
    expected = [a.tolist() for a in empirical_pdf(sample, bins=edges)]
    for bins in (edges.tolist(), tuple(edges)):
        assert [a.tolist() for a in empirical_pdf(sample, bins=bins)] == expected
    counted = [empirical_pdf(sample, bins=count) for count in (20, np.int64(20))]
    assert [a.tolist() for a in counted[0]] == [a.tolist() for a in counted[1]]


# --- power-law fitting ------------------------------------------------------------

def test_fit_power_law_recovers_alpha_25():
    draws = sample_power_law(np.random.default_rng(42), 2.5, 10**5)
    fit = fit_power_law(draws, x_min=1)
    assert 2.45 <= fit.alpha <= 2.55
    assert fit.n_tail == 10**5
    assert fit.var_alpha > 0


def test_fit_power_law_recovers_paper_style_exponent():
    draws = sample_power_law(np.random.default_rng(9), 2.21, 10**5)
    fit = fit_power_law(draws, x_min=1)
    assert abs(fit.alpha - 2.21) < 0.05


def test_fit_power_law_respects_x_min():
    rng = np.random.default_rng(3)
    draws = sample_power_law(rng, 2.4, 40_000, x_min=4)
    fit = fit_power_law(draws, x_min=4)
    assert abs(fit.alpha - 2.4) < 0.08
    assert fit.x_min == 4


def test_fit_power_law_degenerate_cases():
    with pytest.raises(DegenerateSampleError):
        fit_power_law([5, 5, 5])
    with pytest.raises(DegenerateSampleError):
        fit_power_law([7], x_min=1)
    with pytest.raises(DegenerateSampleError):
        fit_power_law([1, 2, 3], x_min=3)  # single tail sample
    with pytest.raises(ParameterError):
        fit_power_law([0, 1, 2])


def test_fit_power_law_at_an_x_min_where_zeta_underflows():
    # zeta(alpha, 100) is about 100**-alpha, which underflows to 0 before the search brackets the root
    with pytest.raises(DegenerateSampleError, match="underflows"):
        fit_power_law([100] * 50 + [101], x_min=100)
    fit = fit_power_law([10] * 10**5 + [11], x_min=10)  # x_min = 10 stays in range
    assert fit.alpha == pytest.approx(120.7895627731735, rel=1e-12)
    assert fit.var_alpha == pytest.approx(1.7592010124314756, rel=1e-9)


def test_fit_power_law_takes_only_finite_integers():
    for samples, message in (([1.5, 2.5, 3.5, 1.2], "power-law sample entry must be a positive integer, got 1.5"),
                             ([math.nan, 2, 3, 5], "power-law sample entry must be a finite number, got nan"),
                             ([math.inf, 2, 3, 5], "power-law sample entry must be a finite number, got inf")):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            fit_power_law(samples)
    draws = np.random.default_rng(7).zipf(2.5, 2000)
    assert fit_power_law(draws.astype(float)) == fit_power_law(draws)  # an integral float fits as its integer


@pytest.mark.parametrize("x_min", [1.5, math.nan, "1", True], ids=["fractional", "nan", "str", "bool"])
def test_fit_power_law_takes_an_integer_cutoff(x_min):
    # zeta(alpha, x_min) normalizes over the integers from x_min: at x_min = 1.5 the tail is x >= 2, but the
    # likelihood would divide by zeta(alpha, 1.5).
    draws = np.random.default_rng(0).zipf(2.5, 5000)
    with pytest.raises(ParameterError, match=f"^{re.escape(f'x_min must be an integer >= 1, got {x_min!r}')}$"):
        fit_power_law(draws, x_min=x_min)


def test_fit_power_law_takes_an_integral_cutoff_as_its_integer():
    draws = np.random.default_rng(0).zipf(2.5, 5000)
    fit = fit_power_law(draws, x_min=2)
    assert fit.alpha == pytest.approx(2.44, abs=0.01)
    for x_min in (2, 2.0, np.float64(2.0), np.int64(2)):
        other = fit_power_law(draws, x_min=x_min)
        assert other == fit and type(other.x_min) is int


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
def test_fit_power_law_round_trip_rate(alpha):
    # at n = 1e5 the estimator must land within +-0.05 in at least 95 of 100 seeds
    hits = 0
    for seed in range(100):
        draws = sample_power_law(np.random.default_rng(20_000 + seed), alpha, 10**5)
        hits += abs(fit_power_law(draws).alpha - alpha) < 0.05
    assert hits >= 95


def test_variance_close_to_continuous_approximation():
    draws = sample_power_law(np.random.default_rng(11), 2.5, 10**5)
    fit = fit_power_law(draws)
    # the two variance conventions agree within a factor of ~2 at x_min=1
    continuous = (fit.alpha - 1.0) ** 2 / fit.n_tail
    assert 0.3 < fit.var_alpha / continuous < 3.0


@pytest.mark.parametrize("call", [
    lambda: empirical_cdf([]),
    lambda: empirical_pdf([]),
    lambda: fit_power_law([1, 2, 3], x_min=0),
    lambda: kolmogorov_critical(0.0),
    lambda: kolmogorov_critical(1.0),
    lambda: ks_two_sample([1.0, 2.0], [3.0], alpha=0.0),
    lambda: ks_two_sample([1.0, 2.0], [3.0], alpha=1.5),
], ids=["cdf empty", "pdf empty", "x_min 0", "critical 0", "critical 1", "ks alpha 0", "ks alpha 1.5"])
def test_empty_samples_and_levels_outside_the_unit_interval_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    summary_stats,
    empirical_cdf,
    empirical_ccdf,
    empirical_pdf,
    lambda sample: ks_two_sample(sample, [1.0, 2.0, 3.0]),
    lambda sample: ks_two_sample([1.0, 2.0, 3.0], sample),
], ids=["summary", "cdf", "ccdf", "pdf", "ks first", "ks second"])
def test_non_finite_samples_are_parameter_errors(call, bad):
    with pytest.raises(ParameterError, match="finite"):
        call([1.0, 2.0, bad])


# --- Wald test --------------------------------------------------------------------

def test_wald_identity_under_equal_exponents():
    fit = fit_power_law(sample_power_law(np.random.default_rng(1), 2.5, 5000))
    result = wald_test(fit, fit, alpha=0.05)
    assert result.W == 0.0
    assert result.p_value == 1.0
    assert not result.reject


def test_wald_p_value_matches_quadrature_oracle():
    from cascadekit.stats import PowerLawFit

    base = PowerLawFit(alpha=2.0, var_alpha=1.0, x_min=1, n_tail=100)
    other = PowerLawFit(alpha=2.0 + math.sqrt(3.8415), var_alpha=1.0, x_min=1, n_tail=100)
    result = wald_test(base, other)
    oracle = chi2_1_sf_quadrature(3.8415)
    assert result.p_value == pytest.approx(oracle, abs=1e-9)
    assert 0.0499 <= result.p_value <= 0.0501


def test_wald_uses_variance_of_first_argument_only():
    from cascadekit.stats import PowerLawFit

    tight = PowerLawFit(alpha=2.0, var_alpha=1e-4, x_min=1, n_tail=1000)
    loose = PowerLawFit(alpha=2.2, var_alpha=1.0, x_min=1, n_tail=10)
    assert wald_test(tight, loose).W == pytest.approx((0.2 ** 2) / 1e-4)
    assert wald_test(loose, tight).W == pytest.approx((0.2 ** 2) / 1.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
def test_wald_level_outside_the_unit_interval_is_a_parameter_error(alpha):
    fit = fit_power_law([1, 2, 3, 1, 5])
    with pytest.raises(ParameterError):
        wald_test(fit, fit, alpha=alpha)


def test_wald_degenerate_variance():
    from cascadekit.stats import PowerLawFit

    flat = PowerLawFit(alpha=2.0, var_alpha=0.0, x_min=1, n_tail=10)
    good = PowerLawFit(alpha=2.0, var_alpha=0.1, x_min=1, n_tail=10)
    with pytest.raises(DegenerateSampleError):
        wald_test(flat, good)


def test_wald_monte_carlo_calibration_against_reference_fit():
    # Same-alpha data; the second fit is high-precision so that dividing by
    # Var(alpha_1) alone sizes the test correctly at ~5%.
    rng = np.random.default_rng(55)
    reference = fit_power_law(sample_power_law(rng, 2.5, 2 * 10**6))
    rejections = 0
    trials = 1000
    for _ in range(trials):
        fit = fit_power_law(sample_power_law(rng, 2.5, 2000, table_size=10**5))
        rejections += wald_test(fit, reference, alpha=0.05).reject
    assert 0.03 <= rejections / trials <= 0.07


# --- KS test ----------------------------------------------------------------------

def test_ks_identical_samples_give_zero_distance():
    rng = np.random.default_rng(2)
    s = rng.normal(size=400)
    result = ks_two_sample(s, s)
    assert result.D == 0.0
    assert not result.reject


def test_ks_disjoint_supports_give_distance_one():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, size=200)
    b = rng.uniform(2, 3, size=300)
    result = ks_two_sample(a, b, alpha=0.05)
    assert result.D == 1.0
    assert result.reject


def test_ks_critical_value_matches_inverted_kolmogorov():
    assert kolmogorov_critical(0.05) == pytest.approx(special.kolmogi(0.05), abs=1e-9)
    assert kolmogorov_critical(0.05) == pytest.approx(1.358, abs=1e-3)
    assert kolmogorov_critical(0.01) == pytest.approx(special.kolmogi(0.01), abs=1e-6)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(6)
    a = rng.normal(size=173)
    b = rng.normal(0.3, 1.0, size=211)
    mine = ks_two_sample(a, b)
    assert mine.D == pytest.approx(scipy_stats.ks_2samp(a, b).statistic, abs=1e-12)


def test_ks_invariant_under_common_monotone_transform():
    rng = np.random.default_rng(8)
    a = rng.exponential(size=150)
    b = rng.exponential(2.0, size=140)
    base = ks_two_sample(a, b).D
    assert ks_two_sample(np.log(a + 1), np.log(b + 1)).D == pytest.approx(base, abs=1e-12)
    assert ks_two_sample(3 * a + 2, 3 * b + 2).D == pytest.approx(base, abs=1e-12)


def test_ks_rejects_empty_sample():
    with pytest.raises(ParameterError):
        ks_two_sample([], [1.0])


# --- distribution families ---------------------------------------------------------

def test_distribution_parameter_validation():
    with pytest.raises(ParameterError):
        FittedDistribution.inverse_gaussian(0.0, 1.0)
    with pytest.raises(ParameterError):
        FittedDistribution.inverse_gaussian(1.0, -2.0)
    with pytest.raises(ParameterError):
        FittedDistribution.log_normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        FittedDistribution.poisson(-1.0)
    with pytest.raises(ParameterError):
        FittedDistribution.uniform(3.0, 1.0)
    with pytest.raises(ParameterError):
        FittedDistribution.empirical([])
    for rate in (1e19, np.nextafter(POISSON_RATE_MAX, math.inf)):  # numpy draws from no larger rate
        with pytest.raises(ParameterError, match="Poisson rate must be in"):
            FittedDistribution.poisson(rate)
    with pytest.raises(ParameterError, match="finite high - low"):
        FittedDistribution.uniform(-1e308, 1e308)
    assert FittedDistribution.poisson(POISSON_RATE_MAX).sample(3, seed=0).min() > 9e18
    draws = FittedDistribution.uniform(0.0, 1.7e308).sample(100, seed=0)
    assert np.all((draws >= 0) & (draws <= 1.7e308))


NOT_FINITE = (math.nan, math.inf, -math.inf, 10**400, True, "3", None)


@pytest.mark.parametrize("bad", NOT_FINITE, ids=["nan", "inf", "-inf", "huge_int", "bool", "str", "none"])
def test_distribution_rejects_a_parameter_that_is_not_a_finite_number(bad):
    for make in (lambda: FittedDistribution.inverse_gaussian(bad, 1.0),
                 lambda: FittedDistribution.inverse_gaussian(1.0, bad),
                 lambda: FittedDistribution.log_normal(bad, 1.0),
                 lambda: FittedDistribution.log_normal(0.0, bad),
                 lambda: FittedDistribution.poisson(bad),
                 lambda: FittedDistribution.uniform(bad, 1.0),
                 lambda: FittedDistribution.uniform(0.0, bad),
                 lambda: FittedDistribution.empirical([1.0, bad])):
        with pytest.raises(ParameterError, match="finite number"):
            make()


def test_distribution_rejects_unknown_family_and_missing_or_extra_parameters():
    with pytest.raises(ParameterError, match="unknown distribution family 'ig'"):
        FittedDistribution("ig", {"mean": 1.0, "shape": 1.0})
    with pytest.raises(ParameterError, match=r"poisson takes parameters \(rate\), got \(\)"):
        FittedDistribution(FAMILY_POISSON)
    with pytest.raises(ParameterError, match=r"got \(mean\)"):
        FittedDistribution(FAMILY_IG, {"mean": 1.0})
    with pytest.raises(ParameterError, match=r"got \(rate, scale\)"):
        FittedDistribution(FAMILY_POISSON, {"rate": 1.0, "scale": 2.0})
    with pytest.raises(ParameterError, match="sample"):
        FittedDistribution(FAMILY_EMPIRICAL)
    for nested in ([[1, 2], [3]], np.ones((2, 2))):
        with pytest.raises(ParameterError, match="finite number"):
            FittedDistribution.empirical(nested)


def test_a_distribution_never_equals_a_value_of_another_type():
    dist = FittedDistribution.poisson(2.0)
    assert dist.__eq__(dist.to_dict()) is NotImplemented
    assert dist != dist.to_dict() and dist != 2.0
    assert dist == FittedDistribution.from_dict(dist.to_dict())


def test_distribution_dict_round_trip_keeps_table_order():
    for dist in (FittedDistribution.inverse_gaussian(shape=2, mean=3),
                 FittedDistribution.log_normal(0.5, 1.5), FittedDistribution.poisson(4),
                 FittedDistribution.uniform(1, 2), FittedDistribution.empirical([3, 1, 2])):
        doc = dist.to_dict()
        assert list(doc) == ["family", *FAMILIES[dist.family].params]
        assert FittedDistribution.from_dict(doc) == dist
    assert FittedDistribution.empirical([3, 1]).params == {}
    with pytest.raises(ParameterError, match="JSON object"):
        FittedDistribution.from_dict(["poisson", 1.0])


def test_empirical_point_mass_draws_constant():
    dist = FittedDistribution.empirical([5, 5, 5])
    assert np.all(dist.sample(50, seed=0) == 5.0)


def test_inverse_gaussian_sampler_matches_analytic_moments():
    rng = np.random.default_rng(77)
    draws = sample_inverse_gaussian(rng, 2.0, 6.0, 200_000)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(2.0, rel=0.01)
    assert draws.var() == pytest.approx(2.0 ** 3 / 6.0, rel=0.05)


@pytest.mark.parametrize("mean,shape", [(1e8, 1.0), (1e10, 9.63), (1e5, 1e-3), (18.73, 6e-258)])
def test_inverse_gaussian_sampler_draws_no_negative_value_when_mean_dwarfs_shape(mean, shape):
    # There w = mean * y / (2 * shape) is large, and 1 + w - sqrt(w^2 + 2w)
    # would cancel to a negative smaller root; at shape 6e-258, w * w overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_inverse_gaussian(np.random.default_rng(0), mean, shape, 200_000)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


@pytest.mark.parametrize("mean,shape", [(1e308, 1e308), (1e300, 1e-300), (1e200, 1.0)])
def test_inverse_gaussian_sampler_warns_for_no_finite_positive_parameters(mean, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_inverse_gaussian(np.random.default_rng(1), mean, shape, 1000)
    assert not np.any(draws < 0)


@pytest.mark.parametrize("scale,mean,shape", [(1e308, 1.0, 1.0), (5e307, 3.0, 1.0), (1.5e308, 1e300 / 1.5e308, 1.0)],
                         ids=["both overflow", "mean * y overflows", "2 * shape overflows"])
def test_inverse_gaussian_sampler_at_the_top_of_the_float_range_draws_no_nan(scale, mean, shape):
    # Where mean * y or 2 * shape overflows, w = mean * y / (2 * shape) would
    # be inf / inf (NaN), inf (a draw of 0) or 0 (a draw of mean).
    # IG(scale * mean, scale * shape) is IG(mean, shape) scaled by scale, and
    # there its larger root mean**2 / x1 is always inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_inverse_gaussian(np.random.default_rng(0), scale * mean, scale * shape, 10_000)
    unit = sample_inverse_gaussian(np.random.default_rng(0), mean, shape, 10_000)
    assert not np.any(np.isnan(draws))
    smaller = np.isfinite(draws)
    assert np.all(draws[~smaller] == np.inf)
    np.testing.assert_allclose(draws[smaller] / scale, unit[smaller], rtol=1e-12)


# --- first-sharer fitting ------------------------------------------------------------

def test_poisson_rate_equals_sample_mean():
    # 25 integer counts summing to 981 -> mean exactly 39.24
    counts = [20] * 12 + [58] * 12 + [45]
    assert sum(counts) / len(counts) == 39.24
    fit = fit_first_sharers(counts, seed=3)
    assert fit.fits[FAMILY_POISSON].params["rate"] == 39.24


def test_ig_mle_formulas():
    counts = np.array([2, 3, 7, 9, 14, 30])
    fit = fit_first_sharers(counts, seed=1)
    ig = fit.fits[FAMILY_IG]
    mean = counts.mean()
    shape = len(counts) / np.sum(1.0 / counts - 1.0 / mean)
    assert ig.params["mean"] == pytest.approx(mean)
    assert ig.params["shape"] == pytest.approx(shape)
    ln = fit.fits[FAMILY_LN]
    logs = np.log(counts)
    assert ln.params["log_mean"] == pytest.approx(logs.mean())
    assert ln.params["log_sd"] == pytest.approx(logs.std())


def test_all_equal_counts_fit_uniform_and_mark_ig_degenerate():
    fit = fit_first_sharers([7, 7, 7, 7], seed=2)
    uniform = fit.fits[FAMILY_UNIFORM]
    assert (uniform.params["low"], uniform.params["high"]) == (7.0, 7.0)
    assert FAMILY_IG in fit.degenerate
    assert FAMILY_LN in fit.degenerate
    assert FAMILY_IG not in fit.fits


def test_counts_above_the_poisson_rate_cap_mark_poisson_degenerate():
    fit = fit_first_sharers([1e19, 2e19, 3e19], seed=2)
    assert FAMILY_POISSON in fit.degenerate and FAMILY_POISSON not in fit.fits
    assert all(row["Poi"] is None for row in first_sharer_table(fit))
    assert FAMILY_IG in fit.fits


@pytest.mark.parametrize("counts, degenerate", [
    ([1e308, 1.5e308, 1.7e308], (FAMILY_IG, FAMILY_POISSON)),  # the sum overflows; IG's shape leaves the float range
    ([5e-324, 5e-324, 1.0], (FAMILY_IG,)),  # 1 / 5e-324 overflows, so IG's shape is 0
], ids=["huge", "subnormal"])
def test_fits_past_the_float_range_are_degenerate_without_a_warning(counts, degenerate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_first_sharers(counts, seed=5)
    assert fit.degenerate == degenerate and not set(degenerate) & (set(fit.fits) | set(fit.family_stats))
    assert all(math.isfinite(v) for stats in (fit.data_stats, *fit.family_stats.values()) for v in astuple(stats))


def test_a_family_whose_comparison_draws_overflow_is_degenerate():
    # The log-normal fit, about (700, 5.5), is valid, but about 4% of its draws pass the float range.
    counts = np.geomspace(1e300, 1.7e308, 200)
    ln = FittedDistribution.log_normal(np.log(counts).mean(), np.log(counts).std())
    assert not np.all(np.isfinite(ln.sample(counts.size, seed=5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_first_sharers(counts, seed=5)
    assert FAMILY_LN in fit.degenerate and FAMILY_LN not in fit.fits | fit.family_stats


def test_zeros_excluded_from_positive_support_fits():
    counts = [0, 0, 0, 2, 4, 8, 16]
    fit = fit_first_sharers(counts, seed=4)
    assert fit.zeros_excluded == 3
    assert fit.fits[FAMILY_IG].params["mean"] == pytest.approx(np.mean([2, 4, 8, 16]))
    # Poisson and uniform fit the full sample, zeros included
    assert fit.fits[FAMILY_POISSON].params["rate"] == pytest.approx(np.mean(counts))
    assert fit.fits[FAMILY_UNIFORM].params["low"] == 0.0


def test_fit_first_sharers_needs_two_positive_counts():
    with pytest.raises(DegenerateSampleError):
        fit_first_sharers([0, 0, 5], seed=0)
    with pytest.raises(ParameterError):
        fit_first_sharers([-1, 3], seed=0)
    with pytest.raises(ParameterError):
        fit_first_sharers([2, 3, math.nan], seed=0)
    with pytest.raises(ParameterError):
        fit_first_sharers([2, 3, math.inf], seed=0)


def test_write_curve_csv_round_trips(tmp_path):
    import csv as csv_mod

    xs, ys = empirical_ccdf(np.random.default_rng(3).normal(size=100))
    path = tmp_path / "curve.csv"
    from cascadekit.stats import write_curve_csv

    write_curve_csv(xs, ys, path)
    with open(path, newline="") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert [float(r["x"]) for r in rows] == xs.tolist()
    assert [float(r["y"]) for r in rows] == ys.tolist()


def test_table_rows_compare_data_against_families():
    rng = np.random.default_rng(12)
    counts = np.floor(sample_inverse_gaussian(rng, 20.0, 10.0, 500))
    fit = fit_first_sharers(counts, seed=9)
    rows = first_sharer_table(fit)
    assert [row["statistic"] for row in rows] == ["min", "q1", "median", "mean", "q3", "max"]
    data_column = [row["data"] for row in rows]
    assert tuple(data_column) == astuple(fit.data_stats)
    assert all(row["IG"] is not None for row in rows)
