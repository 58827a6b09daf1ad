"""Re-derive model parameters from summary data and fit model families to
user-supplied CSV timelines.

All fits operate on cumulative-fraction (CDF) or binned-count data: that is
the form calibration sources actually come in. Maximum-likelihood fitting of
raw event samples is out of scope.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .numerics import FitResult, check, finite_float, least_squares_fit
from .patchrace import (
    ExploitCurveParams,
    WeibullParams,
    exploit_availability,
    patch_developed_cdf,
)
from .vulndisc import PowerLawTester, expected_discoveries


@dataclass(frozen=True)
class CdfSample:
    """One empirical cumulative point: fraction of events within time t."""

    t: float
    fraction: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        check("t", self.t, "must be >= 0")
        check("fraction", self.fraction, "must be in [0, 1]")


@dataclass(frozen=True)
class DelayHistogram:
    """Binned delay counts over contiguous day bins.

    Counts may be fractional: synthetic or normalized histograms carry real
    weights, not just integer event tallies.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[float, ...]

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if len(edges) < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.isfinite(edges)):
            raise ValueError("bin edges must be finite")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if len(counts) != len(edges) - 1:
            raise ValueError(
                f"got {len(counts)} counts for {len(edges) - 1} bins"
            )
        if np.any((counts < 0) | ~np.isfinite(counts)):
            raise ValueError("counts must be finite and >= 0")
        object.__setattr__(self, "bin_edges", tuple(edges.tolist()))
        object.__setattr__(self, "counts", tuple(counts.tolist()))

    @property
    def total(self) -> float:
        return sum(self.counts)


def fit_weibull_cdf(samples: list[CdfSample]) -> FitResult:
    """Least-squares Weibull-CDF fit; returns params (shape, scale_days).

    Needs at least four samples, at least three of them strictly inside
    (0, 1); samples sorted by t must have non-decreasing fractions.
    """
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    t, frac = np.array([(s.t, s.fraction) for s in samples]).T
    order = np.argsort(t, kind="stable")
    t, frac = t[order], frac[order]
    if np.any(np.diff(frac) < 0):
        raise ValueError("cumulative fractions must be non-decreasing in t")
    interior = (frac > 0.0) & (frac < 1.0)
    if np.count_nonzero(interior) < 3:
        raise ValueError(
            "need at least 3 samples with fractions strictly inside (0, 1)"
        )

    def model(params, ts):
        return patch_developed_cdf(WeibullParams(*params), ts)

    # start at the exponential special case, scale near the 63.2% point
    t632 = t[interior][np.argmin(np.abs(frac[interior] - 0.632))]
    initial = [1.0, max(t632, 1e-6)]
    bounds = [(0.05, 20.0), (1e-6, 1e6)]
    positive = t > 0
    return least_squares_fit(model, np.column_stack((t[positive], frac[positive])), initial, bounds)


def estimate_power_law_c(s_count: float, t1: float, t2: float, alpha: float) -> float:
    """Initial rate c such that the expected discoveries over [t1, t2] at the
    given difficulty exponent equal s_count."""
    check("s_count", s_count, "must be >= 0")
    unit = expected_discoveries(PowerLawTester(1.0, alpha), t1, t2)
    return s_count / unit


def estimate_beta(t_ref: float, fraction: float) -> float:
    """Exponential deployment rate from one (time, adopted-fraction) point."""
    check("t_ref", t_ref, "must be > 0")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be strictly inside (0, 1), got {fraction}")
    return -math.log1p(-fraction) / t_ref


def fit_exploit_total(hist: DelayHistogram, curve: ExploitCurveParams) -> FitResult:
    """One-parameter least squares: the total vulnerability count N such that
    N * (availability-curve increments across the bin edges) best matches the
    histogram counts. The curve parameters stay fixed.

    The implied never-exploited count is N minus the histogram total. The
    single linear parameter is solved exactly by the normal equation.
    """
    counts = np.array(hist.counts)
    if hist.total <= 0:
        raise ValueError("histogram has no events (all counts zero)")
    inc = np.diff(exploit_availability(curve, np.array(hist.bin_edges)))
    denom = float(inc @ inc)
    if denom == 0:
        raise ValueError("availability curve is flat across every bin")
    total = float(inc @ counts) / denom
    resid = counts - total * inc
    return FitResult((total,), float(resid @ resid), 0, True)


def implied_unexploited(fit: FitResult, hist: DelayHistogram) -> float:
    """Never-exploited count implied by a fit_exploit_total result."""
    return fit.params[0] - hist.total


# ---------------------------------------------------------------------------
# Bundled synthetic reference datasets
# ---------------------------------------------------------------------------

REFERENCE_WEIBULL = (0.57, 18.2)
REFERENCE_DEV_DAYS = 120

# Day the availability curve reaches the exploited share seen in the private
# developer comparison (160 of ~239.7); ends the reference histogram while
# the curve is still rising, so every synthetic bin count is non-negative.
REFERENCE_EXPLOIT_SUPPORT_DAYS = 131
REFERENCE_EXPLOIT_EVENTS = 160.0


def reference_patch_dev_samples() -> list[CdfSample]:
    """Synthetic development-delay CDF at t = 1..REFERENCE_DEV_DAYS days,
    generated from the baseline Weibull parameters. Stands in for the
    empirical timeline points, which are not redistributable."""
    ts = np.arange(1.0, REFERENCE_DEV_DAYS + 1)
    fractions = patch_developed_cdf(WeibullParams(*REFERENCE_WEIBULL), ts)
    return [CdfSample(t, f) for t, f in zip(ts.tolist(), fractions.tolist())]


def reference_exploit_histogram() -> DelayHistogram:
    """Synthetic exploit-delay histogram: 160 events spread over one-day bins
    exactly proportionally to the availability-curve increments."""
    edges = np.arange(REFERENCE_EXPLOIT_SUPPORT_DAYS + 1.0)
    vals = exploit_availability(ExploitCurveParams(), edges)
    return DelayHistogram(edges, REFERENCE_EXPLOIT_EVENTS * np.diff(vals) / vals[-1])


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


def _read_table(path, columns: tuple[str, ...]):
    """Yield (line number, floats of ``columns``) for each non-blank row of a
    CSV file with a header row; extra columns are ignored. Lines starting
    with '#' are comments; they count in line numbers, which are physical
    lines of the file."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot read CSV file {path}: {exc}") from None
    with fh:
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        header = next((row for row in reader if row), None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a CSV header row")
        position = {h.strip(): i for i, h in enumerate(header)}
        for col in columns:
            if col not in position:
                raise ValueError(f"{path}: missing required column {col!r}")
        for row in reader:
            if all(not c.strip() for c in row):
                continue
            lineno = reader.line_num
            where = f"{path}: line {lineno}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
            values = []
            for col in columns:
                try:
                    values.append(finite_float(row[position[col]].strip()))
                except ValueError as exc:
                    raise ValueError(f"{where}: {col}={exc}") from None
            yield lineno, values


def read_cdf_samples(path) -> list[CdfSample]:
    """Load cumulative samples from a CSV with columns ``t,fraction``
    (extra columns are ignored)."""
    samples = []
    for lineno, (t, frac) in _read_table(path, ("t", "fraction")):
        try:
            samples.append(CdfSample(t, frac))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return samples


def read_delay_histogram(path) -> DelayHistogram:
    """Load a histogram from a CSV with columns ``bin_start,bin_end,count``;
    bins must be contiguous."""
    edges: list[float] = []
    counts: list[float] = []
    for lineno, (start, end, count) in _read_table(path, ("bin_start", "bin_end", "count")):
        if edges and start != edges[-1]:
            raise ValueError(
                f"{path}: line {lineno}: bins must be contiguous "
                f"(bin_start {start} != previous bin_end {edges[-1]})"
            )
        if not edges:
            edges.append(start)
        edges.append(end)
        counts.append(count)
    if not counts:
        raise ValueError(f"{path}: no histogram rows")
    try:
        return DelayHistogram(tuple(edges), tuple(counts))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
