"""Patch-vs-exploit race over the post-disclosure-patch cohort.

Patch development delay is Weibull(shape, scale); deployment delay is
exponential. The total patch delay is the sum of the two independent delays,
so its CDF is the convolution of the development distribution with the
deployment CDF. That convolution is computed on a fixed day grid using
development cell masses (CDF differences over grid cells), which removes the
shape<1 density singularity at zero exactly, paired with the deployment CDF
evaluated at cell midpoints.

Exploit availability follows an exponentially-capped power law
amplitude * t**growth * exp(-decay * t). Its raw form is not monotone: it
peaks at t = growth/decay and then declines. The raw curve is the default;
``clamp_monotone`` holds the curve at its peak value beyond the peak for
callers that need a true sub-distribution (e.g. sampling).

Time is measured in days throughout this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import Grid, raise_at_first
from .series import CurveSeries


@dataclass(frozen=True)
class WeibullParams:
    """Patch development delay distribution (days)."""

    shape: float
    scale_days: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be > 0, got {self.shape}")
        if not self.scale_days > 0:
            raise ValueError(f"scale_days must be > 0, got {self.scale_days}")


@dataclass(frozen=True)
class DeploymentParams:
    """Exponential patch deployment rate (per day)."""

    rate_per_day: float

    def __post_init__(self):
        if not self.rate_per_day > 0:
            raise ValueError(f"rate_per_day must be > 0, got {self.rate_per_day}")


@dataclass(frozen=True)
class ExploitCurveParams:
    """Exponentially-capped power law for exploit availability."""

    amplitude: float = 0.135
    growth_exponent: float = 0.349
    decay_per_day: float = 7.90e-4
    clamp_monotone: bool = False

    def __post_init__(self):
        for name in ("amplitude", "growth_exponent", "decay_per_day"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        peak = self.peak_value
        if not (math.isfinite(peak) and 0.0 <= peak <= 1.0):
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
        if self.growth_exponent == 0:
            return self.amplitude
        if self.decay_per_day == 0:
            return math.inf
        return (
            self.amplitude
            * self.peak_time**self.growth_exponent
            * math.exp(-self.growth_exponent)
        )


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
        if not 0.0 <= self.pre_disclosure_patch_fraction <= 1.0:
            raise ValueError(
                "pre_disclosure_patch_fraction must be in [0, 1], "
                f"got {self.pre_disclosure_patch_fraction}"
            )
        if not self.deploy_speedup >= 1.0:
            raise ValueError(f"deploy_speedup must be >= 1, got {self.deploy_speedup}")

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
    if t <= 0:
        raise ValueError(f"Weibull density is defined for t > 0 only (got t={t})")
    z = t / p.scale_days
    return p.shape / p.scale_days * z ** (p.shape - 1.0) * math.exp(-(z**p.shape))


def patch_developed_cdf(p: WeibullParams, t):
    """Fraction of post-disclosure patches developed within t days (t a float
    or an array)."""
    raise_at_first(np.less(t, 0), "t must be >= 0, got {t}", t=t)
    return -np.expm1(-((t / p.scale_days) ** p.shape))


def patch_developed_all_vulns(p: WeibullParams, pre_frac: float, t):
    """Patch-available fraction over all vulnerabilities: the pre-disclosure
    share plus the Weibull share of the rest."""
    if not 0.0 <= pre_frac <= 1.0:
        raise ValueError(f"pre_frac must be in [0, 1], got {pre_frac}")
    return pre_frac + (1.0 - pre_frac) * patch_developed_cdf(p, t)


def _deployed_cdf(rate: float, t):
    return -np.expm1(-rate * t)


def patch_deployed_cdf(d: DeploymentParams, t):
    """Fraction of systems that have installed an available patch by t days."""
    raise_at_first(np.less(t, 0), "t must be >= 0, got {t}", t=t)
    return _deployed_cdf(d.rate_per_day, t)


@lru_cache(maxsize=64)
def _dev_mass_table(dev: WeibullParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Development-delay cell masses and cell midpoints over the grid."""
    nodes = grid.nodes()
    return 0.5 * (nodes[:-1] + nodes[1:]), np.diff(patch_developed_cdf(dev, nodes))


def _patched(s: PatchRaceScenario, ts: np.ndarray) -> np.ndarray:
    """Patched fraction at each time in the 1-d array ``ts``.

    Sums development cell mass times the deployment CDF at the remaining time,
    over cells whose midpoint has passed; cells beyond t contribute zero
    because the deployment CDF vanishes at non-positive lags.
    """
    rate = s.effective_deploy_rate
    if s.instant_dev:
        return _deployed_cdf(rate, ts)
    mid, mass = _dev_mass_table(s.dev, s.grid)
    patched = np.empty(ts.shape)
    # chunked so the (times x cells) lag matrix stays small
    for start in range(0, ts.size, 256):
        lag = np.maximum(ts[start : start + 256, None] - mid[None, :], 0.0)
        patched[start : start + 256] = _deployed_cdf(rate, lag) @ mass
    return patched


def patched_fraction(s: PatchRaceScenario, t):
    """Fraction of systems patched by day t (development + deployment delay);
    t is a float or an array of days inside the scenario grid."""
    lo, hi, ts = s.grid.start, s.grid.last_node, np.asarray(t)
    message = "t={t} lies outside the scenario grid [{lo}, {hi}]"
    raise_at_first(~((lo <= ts) & (ts <= hi)), message, t=t, lo=lo, hi=hi)
    return _patched(s, np.ravel(t)).reshape(np.shape(t))[()]


def exploit_availability(e: ExploitCurveParams, t):
    """Fraction of vulnerabilities with a working exploit by day t (t a float
    or an array)."""
    raise_at_first(np.less(t, 0), "t must be >= 0, got {t}", t=t)
    value = e.amplitude * t**e.growth_exponent * np.exp(-e.decay_per_day * t)
    if e.clamp_monotone:
        value = np.where(t > e.peak_time, e.peak_value, value)[()]
    raise_at_first(
        ~((0.0 <= value) & (value <= 1.0)),
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


def _sweep_arrays(s: PatchRaceScenario) -> dict[str, np.ndarray]:
    nodes = s.grid.nodes()
    patched = _patched(s, nodes)
    avail = np.ones_like(nodes) if s.instant_exploit else exploit_availability(s.exploit, nodes)
    return {
        "t": nodes,
        "patch_dev_cdf": patch_developed_cdf(s.dev, nodes),
        "patch_dep_cdf": _deployed_cdf(s.effective_deploy_rate, nodes),
        "patched_fraction": patched,
        "exploit_availability": avail,
        "exploitable_fraction": avail * (1.0 - patched),
    }


def race_sweep(s: PatchRaceScenario) -> CurveSeries:
    """All race curves evaluated at every grid node."""
    return CurveSeries(_sweep_arrays(s), x_label="t", units="days")


def race_summary(s: PatchRaceScenario) -> RaceSummary:
    """Peak exploitable fraction (at grid resolution, day 365 included) and
    the 365-day value."""
    if s.grid.start > 0 or s.grid.last_node < 365:
        raise ValueError("race summary needs a grid covering [0, 365] days")
    if s.grid.step > 1.0:
        warnings.warn(
            f"grid step {s.grid.step} days is coarse; the peak is only located "
            "to grid resolution",
            stacklevel=2,
        )
    cols = _sweep_arrays(s)
    at_1yr = exploitable_fraction(s, 365.0)
    # day 365 joins the peak search, so the peak dominates the 1-year value
    # even when 365 falls between grid nodes
    k = int(np.searchsorted(cols["t"], 365.0))
    ts = np.insert(cols["t"], k, 365.0)
    values = np.insert(cols["exploitable_fraction"], k, at_1yr)
    i = int(np.argmax(values))
    return RaceSummary(
        peak_time=float(ts[i]),
        peak_fraction=float(values[i]),
        fraction_at_1yr=float(at_1yr),
    )
