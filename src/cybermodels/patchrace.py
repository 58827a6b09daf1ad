"""Patch-vs-exploit race over the post-disclosure-patch cohort.

Patch development delay is Weibull(shape, scale); deployment delay is
exponential. The patched fraction, the CDF of their sum, is a midpoint sum on
a fixed day grid: development cell masses (CDF differences over grid cells,
which remove the shape<1 density singularity at zero exactly) times the
deployment CDF from each cell midpoint. An exponential deployment delay turns
that sum into O(N) recursions over the nodes (see ``_patched``).

Exploit availability follows an exponentially-capped power law
amplitude * t**growth * exp(-decay * t). Its raw form is not monotone: it
peaks at t = growth/decay and then declines. The raw curve is the default;
``clamp_monotone`` holds the curve at its peak value beyond the peak, for
callers that want a non-decreasing curve.

Time is measured in days throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RULES, Grid, check, raise_at_first
from .series import CurveSeries


@dataclass(frozen=True)
class WeibullParams:
    """Patch development delay distribution (days)."""

    shape: float
    scale_days: float

    def __post_init__(self):
        check("shape", self.shape, "must be > 0")
        check("scale_days", self.scale_days, "must be > 0")


@dataclass(frozen=True)
class DeploymentParams:
    """Exponential patch deployment rate (per day)."""

    rate_per_day: float

    def __post_init__(self):
        check("rate_per_day", self.rate_per_day, "must be > 0")


@dataclass(frozen=True)
class ExploitCurveParams:
    """Exponentially-capped power law for exploit availability."""

    amplitude: float = 0.135
    growth_exponent: float = 0.349
    decay_per_day: float = 7.90e-4
    clamp_monotone: bool = False

    def __post_init__(self):
        for name in ("amplitude", "growth_exponent", "decay_per_day"):
            check(name, getattr(self, name), "must be >= 0")
        peak = self.peak_value
        if not RULES["must be in [0, 1]"](peak):
            raise ValueError(
                f"exploit curve peak value {peak} is outside [0, 1]; "
                "availability must stay a probability"
            )

    @property
    def peak_time(self) -> float:
        """Day the raw curve attains its maximum (0 when it never grows)."""
        if self.growth_exponent == 0:
            return 0.0
        if self.decay_per_day == 0:
            return math.inf
        return self.growth_exponent / self.decay_per_day

    @property
    def peak_value(self) -> float:
        if self.amplitude == 0:
            return 0.0
        t, a = self.peak_time, self.growth_exponent
        if t == math.inf:
            return math.inf
        try:
            return self.amplitude * t**a * math.exp(-a)
        except OverflowError:  # t**a alone overflows; the peak may not
            try:
                return self.amplitude * math.exp(a * (math.log(t) - 1.0))
            except OverflowError:
                return math.inf


DEFAULT_GRID = Grid(0.0, 730.0, 0.25)


@dataclass(frozen=True)
class PatchRaceScenario:
    """One race configuration plus what-if transform flags.

    ``instant_dev`` removes the development delay, ``instant_exploit`` makes
    every vulnerability exploitable immediately, and ``deploy_speedup``
    multiplies the deployment rate (a 5x shorter mean deployment delay is
    exactly rate x5 for an exponential).
    """

    dev: WeibullParams = WeibullParams(0.57, 18.2)
    dep: DeploymentParams = DeploymentParams(1.0 / 144.0)
    exploit: ExploitCurveParams = ExploitCurveParams()
    pre_disclosure_patch_fraction: float = 0.78
    instant_dev: bool = False
    instant_exploit: bool = False
    deploy_speedup: float = 1.0
    grid: Grid = DEFAULT_GRID

    def __post_init__(self):
        check("pre_disclosure_patch_fraction", self.pre_disclosure_patch_fraction,
              "must be in [0, 1]")
        check("deploy_speedup", self.deploy_speedup, "must be >= 1")
        if self.grid.start != 0:
            raise ValueError(f"a race grid must start at day 0, got start {self.grid.start}")

    @property
    def effective_deploy_rate(self) -> float:
        return self.dep.rate_per_day * self.deploy_speedup


@dataclass(frozen=True)
class RaceSummary:
    peak_time: float
    peak_fraction: float
    fraction_at_1yr: float

    def __post_init__(self):
        if self.peak_time < 365 and not (
            self.peak_fraction >= self.fraction_at_1yr >= 0
        ):
            raise ValueError("peak fraction must dominate the 1-year fraction")


def weibull_pdf(p: WeibullParams, t: float) -> float:
    """Development delay density; diverges as t->0 for shape < 1, so callers
    integrating near zero must use CDF-difference masses instead."""
    check("t", t, "must be > 0")
    z = t / p.scale_days
    return p.shape / p.scale_days * z ** (p.shape - 1.0) * math.exp(-(z**p.shape))


def patch_developed_cdf(p: WeibullParams, t):
    """Fraction of post-disclosure patches developed within t days (t a float
    or an array)."""
    check("t", t, "must be >= 0")
    with np.errstate(over="ignore"):  # an overflow to inf gives a CDF of exactly 1
        return -np.expm1(-((t / p.scale_days) ** p.shape))


def patch_developed_all_vulns(p: WeibullParams, pre_frac: float, t):
    """Patch-available fraction over all vulnerabilities: the pre-disclosure
    share plus the Weibull share of the rest."""
    check("pre_frac", pre_frac, "must be in [0, 1]")
    return pre_frac + (1.0 - pre_frac) * patch_developed_cdf(p, t)


def _deployed_cdf(rate: float, t):
    return -np.expm1(-rate * t)


def patch_deployed_cdf(d: DeploymentParams, t):
    """Fraction of systems that have installed an available patch by t days."""
    check("t", t, "must be >= 0")
    return _deployed_cdf(d.rate_per_day, t)


def _patched(s: PatchRaceScenario, ts: np.ndarray) -> np.ndarray:
    """Patched fraction at each time in the 1-d array ``ts``.

    With q = e^{-rh}, cell masses m_i and development mass F_i before node i,
    the patched fraction P and the undeployed mass U = F - P obey recursions
    with positive terms only, each a discounted cumulative sum taken in blocks
    short enough that e^{rh m} stays finite:
        P_i = q P_{i-1} + (1 - q) F_{i-1} + (1 - e^{-rh/2}) m_{i-1}
        U_i = q U_{i-1} + e^{-rh/2} m_{i-1}
    P_i is read from the first where P_i <= U_i and as F_i - U_i elsewhere, so
    neither P nor 1 - P cancels. At t = t_k + d with 0 <= d < h,
        P(t) = e^{-rd} P_k + (1 - e^{-rd}) F_k + m_k (1 - e^{-r max(d - h/2, 0)}),
    which is P_k bit for bit at d = 0, so a day gets the same bits alone or in
    an array.
    """
    rate = s.effective_deploy_rate
    if s.instant_dev:
        return _deployed_cdf(rate, ts)
    nodes, h = s.grid.nodes(), s.grid.step
    k = np.searchsorted(nodes, ts, side="right") - 1
    nodes = nodes[: k.max(initial=0) + 2]  # later nodes cannot reach any of ts
    cdf = patch_developed_cdf(s.dev, nodes)
    mass = np.append(np.diff(cdf), 0.0)
    rh = rate * h
    terms = np.stack([-math.expm1(-rh) * cdf - math.expm1(-rh / 2) * mass,
                      math.exp(-rh / 2) * mass])[:, :-1]
    sums, n = np.zeros((2, nodes.size)), nodes.size - 1
    block = max(1, int(min(n, 600.0 / rh)) if rh > 0 else n)  # rh = 0: nothing grows
    for i in range(0, n, block):
        e = rh * np.arange(min(block, n - i))
        grown = np.cumsum(terms[:, i : i + e.size] * np.exp(e), axis=1)
        sums[:, i + 1 : i + e.size + 1] = np.exp(-e) * (math.exp(-rh) * sums[:, i, None] + grown)
    recursed, undeployed = sums
    patched = np.where(recursed <= undeployed, recursed, cdf - undeployed)
    d = ts - nodes[k]
    late = -np.expm1(-rate * np.maximum(d - h / 2, 0.0))
    return np.exp(-rate * d) * patched[k] - np.expm1(-rate * d) * cdf[k] + late * mass[k]


def patched_fraction(s: PatchRaceScenario, t):
    """Fraction of systems patched by day t (development + deployment delay);
    t is a float or an array of days inside the scenario grid."""
    hi, ts = s.grid.last_node, np.asarray(t)
    message = "t={t} lies outside the scenario grid [0.0, {hi}]"
    raise_at_first(~((0.0 <= ts) & (ts <= hi)), message, t=t, hi=hi)
    return _patched(s, np.ravel(t)).reshape(np.shape(t))[()]


def exploit_availability(e: ExploitCurveParams, t):
    """Fraction of vulnerabilities with a working exploit by day t (t a float
    or an array)."""
    check("t", t, "must be >= 0")
    a, b = e.growth_exponent, e.decay_per_day
    # np.power, not **: a float gets the same bits as an array element. Where
    # t**a overflows (inf * 0 = nan), the same curve is taken in logs, with
    # log A inside so that a zero amplitude still gives 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = e.amplitude * np.power(t, a) * np.exp(-b * t)
        if not np.isfinite(value).all():
            logs = np.exp(np.log(e.amplitude) + a * np.log(t) - b * t)
            value = np.where(np.isfinite(value), value, logs)
    # The curve never exceeds peak_value, but near the peak it can by an ulp,
    # as peak_value is computed with ** and math.exp; np.minimum passes NaN on.
    value = np.minimum(value, e.peak_value)
    if e.clamp_monotone:
        value = np.where(t > e.peak_time, e.peak_value, value)[()]
    raise_at_first(
        np.logical_not(RULES["must be in [0, 1]"](value)),
        "exploit availability {value} at t={t} is outside [0, 1]; check the curve parameters",
        value=value,
        t=t,
    )
    return value


def exploitable_fraction(s: PatchRaceScenario, t):
    """Exploit availability times the unpatched fraction, with scenario flags
    applied (instant_exploit substitutes availability 1)."""
    avail = 1.0 if s.instant_exploit else exploit_availability(s.exploit, t)
    return avail * (1.0 - patched_fraction(s, t))


def race_sweep(s: PatchRaceScenario) -> CurveSeries:
    """All race curves evaluated at every grid node."""
    ts = s.grid.nodes()
    patched = _patched(s, ts)
    avail = np.ones_like(ts) if s.instant_exploit else exploit_availability(s.exploit, ts)
    return CurveSeries({
        "t": ts,
        "patch_dev_cdf": patch_developed_cdf(s.dev, ts),
        "patch_dep_cdf": _deployed_cdf(s.effective_deploy_rate, ts),
        "patched_fraction": patched,
        "exploit_availability": avail,
        "exploitable_fraction": avail * (1.0 - patched),
    }, x_label="t")


def race_summary(s: PatchRaceScenario) -> RaceSummary:
    """Peak exploitable fraction and the 365-day value. The peak is searched
    over the grid nodes plus day 365, so it is located to grid resolution."""
    if s.grid.last_node < 365:
        raise ValueError("race summary needs a grid covering [0, 365] days")
    # day 365 joins the peak search, so the peak dominates the 1-year value
    # even when 365 falls between grid nodes
    nodes = s.grid.nodes()
    k = int(np.searchsorted(nodes, 365.0))
    ts = np.insert(nodes, k, 365.0)
    values = exploitable_fraction(s, ts)
    i = int(np.argmax(values))
    return RaceSummary(
        peak_time=float(ts[i]),
        peak_fraction=float(values[i]),
        fraction_at_1yr=float(values[k]),
    )
