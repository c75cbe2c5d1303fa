"""Distribution fitting and hypothesis tests for cascade statistics.

Covers discrete power-law maximum likelihood with a Wald comparison of
scaling exponents, the two-sample Kolmogorov-Smirnov test with asymptotic
critical values, first-sharer count models (inverse Gaussian, log-normal,
Poisson, uniform, empirical), and quartile summary tables.

Every number sample is read by files.read_sample, which names a bad entry
as a document's is; a function adds only its own rule (positive integers
for fit_power_law, counts >= 0 for fit_first_sharers and the empirical
family). One function, _level, reads every significance level: a real
number in (0, 1), not a bool.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import files
from .errors import DegenerateSampleError, ParameterError


# --- summary statistics -------------------------------------------------------

@dataclass(frozen=True)
class SummaryStats:
    """Six-number summary: min, first quartile, median, mean, third quartile, max."""

    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float


def _mean(x: np.ndarray) -> float:
    """x.mean() of a finite sample; where its sum overflows (to inf, or NaN), max|x| * (x / max|x|).mean()."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean()
    if not np.isfinite(mean):
        scale = np.abs(x).max()
        mean = scale * (x / scale).mean()
    return float(mean)


def _quartiles(x: np.ndarray) -> np.ndarray:
    """The 0, 1/4, 1/2, 3/4 and 1 quantiles of a finite sample.

    Where the gap between two order statistics overflows, np.quantile gives
    inf or NaN, and the quantiles are max|x| times those of x / max|x|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        qs = np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0])
    if not np.all(np.isfinite(qs)):
        scale = np.abs(x).max()
        qs = scale * np.quantile(x / scale, [0.0, 0.25, 0.5, 0.75, 1.0])
    return qs


def summary_stats(samples) -> SummaryStats:
    """Quartiles by linear interpolation between order statistics, plus mean."""
    x = files.read_sample(samples, "summary sample")
    lo, q1, med, q3, hi = _quartiles(x)
    return SummaryStats(float(lo), float(q1), float(med), _mean(x), float(q3), float(hi))


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """P(X <= x) tabulated at the sorted unique sample values."""
    x = np.sort(files.read_sample(samples, "curve sample"))
    grid = np.unique(x)
    return grid, np.searchsorted(x, grid, side="right") / x.size


def empirical_ccdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """P(X > x) tabulated at the sorted unique sample values."""
    grid, cdf = empirical_cdf(samples)
    return grid, 1.0 - cdf


def _bins(bins):
    """bins as empirical_pdf takes them: a count >= 1 (an integer, not a bool), or at least two non-decreasing edges."""
    if isinstance(bins, (list, tuple, np.ndarray)):
        edges = files.read_sample(bins, "bin edges")
        if edges.size >= 2 and np.all(edges[1:] >= edges[:-1]):
            return edges
    elif files.KINDS["integer"].ok(bins) and bins >= 1:
        return bins
    raise ParameterError(f"bins must be an integer >= 1 or at least two non-decreasing finite edges, got {bins!r}")


def empirical_pdf(samples, bins=30) -> tuple[np.ndarray, np.ndarray]:
    """Histogram density estimate; returns bin centers and densities.

    bins is a list or array of at least two non-decreasing finite edges, or
    a count (an integer >= 1) of equal bins over the sample range, which
    np.histogram widens by 0.5 each way for a constant sample.

    Raises:
        DegenerateSampleError: a count of bins that cannot all have a
            positive width at the sample's magnitude, or a bin center or
            density that is not a finite float.
        ParameterError: a sample that files.read_sample does not take, or
            bins that are neither a count nor edges.
    """
    x = files.read_sample(samples, "curve sample")
    bins = _bins(bins)
    with np.errstate(all="ignore"):
        if np.ndim(bins) == 0:
            lo, hi = x.min(), x.max()
            edges = np.linspace(lo - 0.5, hi + 0.5, bins + 1) if lo == hi else np.linspace(lo, hi, bins + 1)
            if not np.all(edges[1:] > edges[:-1]):
                raise DegenerateSampleError(f"{bins} bins of positive finite width do not fit in [{lo}, {hi}]")
        density, edges = np.histogram(x, bins=bins, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(density))):
        raise DegenerateSampleError("the histogram's bin centers or densities are not finite")
    return centers, density


def write_curve_csv(xs, ys, path) -> None:
    """Write an (x, y) curve table of floats; each cell round-trips at full precision."""
    files.write_csv(path, ("x", "y"), ({"x": float(x), "y": float(y)} for x, y in zip(xs, ys)))


# --- discrete power-law fitting ------------------------------------------------

def _log_zeta(alpha: float, x_min: int) -> float:
    from scipy.special import zeta  # scipy is imported on first use: it takes most of a second

    value = zeta(alpha, x_min)
    if not value > 0.0:  # about x_min**-alpha, which underflows at a large x_min
        raise DegenerateSampleError(f"zeta({alpha}, {x_min}) underflows; no finite exponent fits this sample")
    return math.log(value)


def _log_zeta_deriv(alpha: float, x_min: int, h: float = 1e-5) -> float:
    return (_log_zeta(alpha + h, x_min) - _log_zeta(alpha - h, x_min)) / (2 * h)


def _log_zeta_second(alpha: float, x_min: int, h: float = 1e-4) -> float:
    return (
        _log_zeta(alpha + h, x_min) - 2 * _log_zeta(alpha, x_min) + _log_zeta(alpha - h, x_min)
    ) / (h * h)


@dataclass(frozen=True)
class PowerLawFit:
    """Discrete MLE fit of p(x) ~ x^-alpha for integer x >= x_min."""

    alpha: float
    var_alpha: float
    x_min: int
    n_tail: int

    @property
    def sd_alpha(self) -> float:
        return math.sqrt(self.var_alpha)


def fit_power_law(samples, x_min: int = 1) -> PowerLawFit:
    """Maximum-likelihood scaling exponent for discrete power-law data.

    Maximizes the zeta-normalized likelihood over the tail x >= x_min; the
    variance is the inverse observed Fisher information n * (log zeta)''.

    Raises:
        DegenerateSampleError: fewer than two tail samples, all equal, or
            an exponent search at which zeta(alpha, x_min) underflows.
        ParameterError: samples that are not finite positive integers, or
            an x_min that is not an integer >= 1 (an integral float is
            taken as its integer, in the samples and in x_min; a bool is
            not a number).
    """
    x = files.read_sample(samples, "power-law sample")
    if not (files.KINDS["number"].ok(x_min) and x_min >= 1 and float(x_min).is_integer()):
        raise ParameterError(f"x_min must be an integer >= 1, got {x_min!r}")
    x_min = int(x_min)  # zeta(alpha, x_min) sums over the integers from x_min
    files.first_fault((x != np.floor(x)) | (x < 1), "power-law sample entry", "be a positive integer", x)
    tail = x[x >= x_min]
    n = tail.size
    if n < 2:
        raise DegenerateSampleError(f"need >= 2 samples at or above x_min={x_min}, got {n}")
    if np.all(tail == tail[0]):
        raise DegenerateSampleError("all tail samples are equal; exponent is unidentifiable")

    mean_log = float(np.mean(np.log(tail)))
    # Root of the score: (log zeta)'(alpha, x_min) = -mean_log.
    def score(alpha: float) -> float:
        return _log_zeta_deriv(alpha, x_min) + mean_log

    lo = 1.0 + 1e-4  # keep the finite-difference stencil above the zeta pole at 1
    hi = 2.0
    while score(hi) <= 0:
        hi *= 2.0
        if hi > 1e4:
            raise DegenerateSampleError("no finite exponent fits this sample")
    from scipy.optimize import brentq

    alpha_hat = brentq(score, lo, hi, xtol=1e-10)
    info = _log_zeta_second(alpha_hat, x_min)
    return PowerLawFit(alpha=float(alpha_hat), var_alpha=1.0 / (n * info), x_min=x_min, n_tail=n)


def _level(alpha) -> float:
    """alpha as a float: a significance level is a real number in (0, 1), and a bool is none."""
    if not (files.KINDS["number"].ok(alpha) and 0.0 < float(alpha) < 1.0):
        raise ParameterError(f"significance level must be a number in (0, 1), got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class WaldTestResult:
    W: float
    p_value: float
    reject: bool


def wald_test(fit1: PowerLawFit, fit2: PowerLawFit, alpha: float = 0.05) -> WaldTestResult:
    """Compare two fitted exponents with W = (a1 - a2)^2 / Var(a1) ~ chi2(1).

    The variance of the first fit alone normalizes the statistic, so the
    second argument acts as the reference fit.
    """
    alpha = _level(alpha)
    if fit1.var_alpha <= 0:
        raise DegenerateSampleError("first fit has zero variance; Wald statistic undefined")
    w = (fit1.alpha - fit2.alpha) ** 2 / fit1.var_alpha
    p = math.erfc(math.sqrt(w / 2.0))  # chi-square(1) survival function
    return WaldTestResult(W=w, p_value=p, reject=p < alpha)


# --- two-sample Kolmogorov-Smirnov ---------------------------------------------

def kolmogorov_critical(alpha: float) -> float:
    """c(alpha) with P(K > c) = alpha for the asymptotic Kolmogorov distribution K."""
    from scipy.special import kolmogi

    return float(kolmogi(_level(alpha)))


@dataclass(frozen=True)
class KSTestResult:
    D: float
    D_alpha: float
    reject: bool


def ks_two_sample(s1, s2, alpha: float = 0.05) -> KSTestResult:
    """Two-sample KS test with the asymptotic critical value.

    D is the largest gap between the two empirical CDFs; the critical value
    is c(alpha) * sqrt((n1 + n2) / (n1 * n2)).
    """
    a = np.sort(files.read_sample(s1, "KS sample"))
    b = np.sort(files.read_sample(s2, "KS sample"))
    pooled = np.concatenate([a, b])
    f1 = np.searchsorted(a, pooled, side="right") / a.size
    f2 = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(f1 - f2)))
    d_alpha = kolmogorov_critical(alpha) * math.sqrt((a.size + b.size) / (a.size * b.size))
    return KSTestResult(D=d, D_alpha=d_alpha, reject=d > d_alpha)


# --- first-sharer distribution families ----------------------------------------

FAMILY_IG = "inverse_gaussian"
FAMILY_LN = "log_normal"
FAMILY_POISSON = "poisson"
FAMILY_UNIFORM = "uniform"
FAMILY_EMPIRICAL = "empirical"

SAMPLE = "sample"  # the empirical family's one parameter, kept in sample_ref

# Generator.poisson's largest rate (numpy's POISSON_LAM_MAX); a larger one is a ValueError there.
POISSON_RATE_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def sample_inverse_gaussian(rng: np.random.Generator, mean: float, shape: float, size: int) -> np.ndarray:
    """Draw IG(mean, shape) variates via the Michael-Schucany-Haas transform.

    The smaller root x1 = mean * (1 + w - sqrt(w^2 + 2w)) is computed as
    mean / (1 + w + sqrt(w^2 + 2w)), its equal form without cancellation
    at large w = mean * y / (2 * shape), and where w * w overflows (w above
    about 1e154), with w * sqrt(1 + 2/w) for the square root. Where mean * y
    or 2 * shape overflows, w is (mean / shape) * y / 2. Where w itself
    overflows a draw is 0 or inf, and where mean * mean overflows the larger
    root is inf; no draw is NaN, no RuntimeWarning is raised, and
    sample_news clips an inf at its max_count.
    """
    y = rng.standard_normal(size) ** 2
    with np.errstate(all="ignore"):
        scaled, twice = mean * y, 2.0 * shape
        w = scaled / twice
        over = np.isinf(scaled) | np.isinf(twice)
        w[over] = (mean / shape) * y[over] / 2.0
        root = np.sqrt(w * w + 2.0 * w)
        big = np.isinf(root)
        root[big] = w[big] * np.sqrt(1.0 + 2.0 / w[big])
        x1 = mean / (1.0 + w + root)
        u = rng.uniform(size=size)
        return np.where(u * (mean + x1) <= mean, x1, mean * mean / x1)


def _fit_inverse_gaussian(x: np.ndarray) -> tuple:
    x = x[x > 0]
    mean = _mean(x)
    with np.errstate(all="ignore"):  # equal counts, or one whose reciprocal overflows, give a shape check rejects
        return mean, float(x.size / np.sum(1.0 / x - 1.0 / mean))


def _fit_log_normal(x: np.ndarray) -> tuple:
    logs = np.log(x[x > 0])
    return float(logs.mean()), float(logs.std())


class Family(NamedTuple):
    """A first-sharer count family. `check` and `draw` (after rng and size)
    take the parameters in `params` order; `rule` says what `check` requires;
    `fit` gives maximum likelihood parameters, which `check` rejects where the
    counts cannot identify them; `label` is a first-sharer table column."""

    name: str
    aliases: tuple[str, ...]
    params: tuple[str, ...]
    rule: str
    check: Callable[..., bool]
    draw: Callable[..., np.ndarray]
    fit: Callable[[np.ndarray], tuple]
    label: str | None = None


# fit_first_sharers fits the families and draws their comparison samples in this order.
FAMILIES = {f.name: f for f in (
    Family(FAMILY_IG, ("ig",), ("mean", "shape"), "IG needs positive mean and shape, got ({mean}, {shape})",
           check=lambda mean, shape: mean > 0 and shape > 0,
           draw=lambda rng, size, mean, shape: sample_inverse_gaussian(rng, mean, shape, size),
           fit=_fit_inverse_gaussian, label="IG"),
    Family(FAMILY_LN, ("ln", "lognormal"), ("log_mean", "log_sd"), "log-normal needs positive log-sd, got {log_sd}",
           check=lambda log_mean, log_sd: log_sd > 0,
           draw=lambda rng, size, log_mean, log_sd: rng.lognormal(log_mean, log_sd, size),
           fit=_fit_log_normal, label="LN"),
    Family(FAMILY_POISSON, ("poi",), ("rate",), f"Poisson rate must be in [0, {POISSON_RATE_MAX!r}], got {{rate}}",
           check=lambda rate: 0 <= rate <= POISSON_RATE_MAX,
           draw=lambda rng, size, rate: rng.poisson(rate, size).astype(float),
           fit=lambda x: (_mean(x),), label="Poi"),
    Family(FAMILY_UNIFORM, ("unif",), ("low", "high"),
           "uniform needs 0 <= low <= high and a finite high - low, got ({low}, {high})",
           check=lambda low, high: 0 <= low <= high and math.isfinite(high - low),
           draw=lambda rng, size, low, high: rng.uniform(low, high, size),
           fit=lambda x: (float(x.min()), float(x.max()))),
    Family(FAMILY_EMPIRICAL, ("emp",), (SAMPLE,),
           "empirical distribution needs a sample with no value below 0",
           check=lambda sample: sample.min() >= 0,
           draw=lambda rng, size, sample: rng.choice(sample, size=size, replace=True), fit=lambda x: (x,)),
)}


@dataclass(frozen=True, eq=False)
class FittedDistribution:
    """A first-sharer count model: family name plus family-specific parameters.

    Construction checks them against FAMILIES: each must be given and be a
    finite number (files.read_value, as a document field is read; an
    empirical sample through files.read_sample, as every sample is), and
    together they must meet the family's rule. The empirical family keeps
    its sample in sample_ref, not in params.
    """

    family: str
    params: dict = field(default_factory=dict)
    sample_ref: np.ndarray | None = None

    def __post_init__(self) -> None:
        fam = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if fam is None:
            raise ParameterError(f"unknown distribution family {self.family!r}")
        given = dict(self.params) if isinstance(self.params, dict) else {}
        if self.sample_ref is not None:
            given[SAMPLE] = self.sample_ref
        if set(given) != set(fam.params):
            raise ParameterError(f"{fam.name} takes parameters ({', '.join(fam.params)}), "
                                 f"got ({', '.join(map(str, given))})")
        values = {p: files.read_sample(given[p], f"{fam.name} {p}") if p == SAMPLE
                  else files.read_value(given[p], "number", ParameterError, f"{fam.name} {p}") for p in fam.params}
        if not fam.check(**values):
            raise ParameterError(fam.rule.format(**values))
        object.__setattr__(self, "sample_ref", values.pop(SAMPLE, None))
        object.__setattr__(self, "params", values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FittedDistribution):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @classmethod
    def inverse_gaussian(cls, mean: float, shape: float) -> "FittedDistribution":
        return cls(FAMILY_IG, {"mean": mean, "shape": shape})

    @classmethod
    def log_normal(cls, log_mean: float, log_sd: float) -> "FittedDistribution":
        return cls(FAMILY_LN, {"log_mean": log_mean, "log_sd": log_sd})

    @classmethod
    def poisson(cls, rate: float) -> "FittedDistribution":
        return cls(FAMILY_POISSON, {"rate": rate})

    @classmethod
    def uniform(cls, low: float, high: float) -> "FittedDistribution":
        return cls(FAMILY_UNIFORM, {"low": low, "high": high})

    @classmethod
    def empirical(cls, samples) -> "FittedDistribution":
        return cls(FAMILY_EMPIRICAL, sample_ref=samples)

    def _values(self) -> list:
        return [self.sample_ref if p == SAMPLE else self.params[p] for p in FAMILIES[self.family].params]

    def sample(self, size: int, seed) -> np.ndarray:
        """Draw `size` real-valued variates (integer-valued for Poisson/empirical counts)."""
        return FAMILIES[self.family].draw(np.random.default_rng(seed), size, *self._values())

    def to_dict(self) -> dict:
        """The config-JSON document: the family, then its parameters in table order."""
        doc = {"family": self.family, **self.params}
        if self.sample_ref is not None:
            doc[SAMPLE] = self.sample_ref.tolist()
        return doc

    @classmethod
    def from_dict(cls, doc) -> "FittedDistribution":
        """Read a to_dict document; raises ParameterError as the constructor does."""
        if not isinstance(doc, dict):
            raise ParameterError(f"a distribution must be a JSON object, got {type(doc).__name__}")
        return cls(doc.get("family"), {k: v for k, v in doc.items() if k != "family"})


# --- fitting first-sharer counts ------------------------------------------------

@dataclass
class FirstSharerFit:
    """Per-family fits plus the Table-style comparison of summary statistics."""

    data_stats: SummaryStats
    fits: dict[str, FittedDistribution]
    family_stats: dict[str, SummaryStats]
    zeros_excluded: int
    degenerate: tuple[str, ...]


def fit_first_sharers(samples, seed) -> FirstSharerFit:
    """MLE fit of every family to first-sharer counts, with a stats comparison.

    Zeros are excluded from the inverse-Gaussian and log-normal fits (their
    supports are positive); the exclusion count is reported. The comparison
    table draws one synthetic sample of equal size per parametric family. A
    family is degenerate, with no fit or stats, where its fitted parameters
    make no valid FittedDistribution or its comparison sample is not finite.

    Raises:
        DegenerateSampleError: fewer than two positive samples.
        ParameterError: an empty sample, or a negative or non-finite count.
    """
    counts = files.read_sample(samples, "first-sharer sample")
    files.first_fault(counts < 0, "first-sharer sample entry", "be >= 0", counts)
    zeros_excluded = int(np.count_nonzero(counts == 0))
    if counts.size - zeros_excluded < 2:
        raise DegenerateSampleError("need at least two positive first-sharer counts")

    rng = np.random.default_rng(seed)
    fits: dict[str, FittedDistribution] = {}
    family_stats = {}
    degenerate: list[str] = []
    for fam in FAMILIES.values():
        try:
            fitted = FittedDistribution(fam.name, dict(zip(fam.params, fam.fit(counts))))
        except ParameterError:
            degenerate.append(fam.name)
            continue
        if SAMPLE not in fam.params:
            draws = fitted.sample(counts.size, rng)
            if not np.all(np.isfinite(draws)):
                degenerate.append(fam.name)
                continue
            family_stats[fam.name] = summary_stats(draws)
        fits[fam.name] = fitted

    return FirstSharerFit(
        data_stats=summary_stats(counts),
        fits=fits,
        family_stats=family_stats,
        zeros_excluded=zeros_excluded,
        degenerate=tuple(degenerate),
    )


TABLE_ROWS = tuple(f.name for f in fields(SummaryStats))
TABLE_FAMILIES = tuple((f.name, f.label) for f in FAMILIES.values() if f.label)


def first_sharer_table(fit: FirstSharerFit) -> list[dict]:
    """Rows (statistic, data, IG, LN, Poi) comparing data stats to fitted-sample stats."""
    rows = []
    for stat in TABLE_ROWS:
        row = {"statistic": stat, "data": getattr(fit.data_stats, stat)}
        for family, label in TABLE_FAMILIES:
            stats = fit.family_stats.get(family)
            row[label] = None if stats is None else getattr(stats, stat)
        rows.append(row)
    return rows


def write_first_sharer_table(fit: FirstSharerFit, path) -> None:
    columns = ("statistic", "data", *(label for _, label in TABLE_FAMILIES))
    files.write_csv(path, columns, first_sharer_table(fit))
