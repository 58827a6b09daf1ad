"""Power-law vulnerability discovery.

A tester finds vulnerabilities at instantaneous rate c * t**(-alpha): c sets
the initial rate, alpha how much harder each further find gets. alpha < 1
means cumulative discoveries grow without bound (a "creative" tester);
alpha > 1 means the tester saturates. Time is measured in weeks; the
equivalent attempt-count formulation uses a constant attempts-per-week rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import check, raise_at_first
from .series import CurveSeries

TIME_WEEKS = "time_weeks"
ATTEMPTS = "attempts"

ATTEMPTS_TO_TIME = "attempts_to_time"
TIME_TO_ATTEMPTS = "time_to_attempts"

# Typed outcomes, not errors: saturation and crossover questions have
# meaningful non-numeric answers.
UNBOUNDED = "unbounded"
NEVER = "never"
IDENTICAL = "identical"


@dataclass(frozen=True)
class PowerLawTester:
    """A discovery capability: initial rate plus difficulty-escalation exponent."""

    initial_rate: float
    difficulty_exponent: float
    basis: str = TIME_WEEKS
    label: str = "tester"

    def __post_init__(self):
        check("initial_rate", self.initial_rate, "must be > 0")
        check("difficulty_exponent", self.difficulty_exponent, "must be >= 0")
        if self.basis not in (TIME_WEEKS, ATTEMPTS):
            raise ValueError(f"basis must be {TIME_WEEKS!r} or {ATTEMPTS!r}, got {self.basis!r}")


@dataclass(frozen=True)
class AttemptRate:
    """Constant attempts-per-week rate linking the time and attempt bases."""

    attempts_per_week: float

    def __post_init__(self):
        check("attempts_per_week", self.attempts_per_week, "must be > 0")


def discovery_rate(tester: PowerLawTester, t: float) -> float:
    """Instantaneous discovery rate c * t**(-alpha); undefined at t <= 0."""
    check("t", t, "must be > 0")
    return tester.initial_rate * t ** (-tester.difficulty_exponent)


def expected_discoveries(tester: PowerLawTester, t1, t2):
    """Expected unique discoveries over [t1, t2] (integral of the rate); t1
    and t2 are floats or arrays that broadcast together.

    Closed form c/(1-alpha) * (t2**(1-alpha) - t1**(1-alpha)) for alpha != 1,
    c * ln(t2/t1) at alpha = 1. For t1 > 0 it is evaluated as
    c * t1**e * expm1(e * log1p((t2-t1)/t1)) / e with e = 1-alpha, which
    subtracts nothing, so it keeps full precision for alpha > 1 and agrees
    with the log branch across alpha -> 1; t1 = 0 gives c/e * t2**e. Where
    that overflows, c is applied last instead, so a count that fits in a float
    is returned, and one that does not is inf. For alpha >= 1 the integral
    diverges at 0, so t1 must be positive there.
    """
    alpha = tester.difficulty_exponent
    c = tester.initial_rate
    check("t1", t1, "must be >= 0")
    raise_at_first(~np.greater(t2, t1), "t2 ({t2}) must exceed t1 ({t1})", t1=t1, t2=t2)
    if alpha >= 1 and np.any(np.equal(t1, 0)):
        raise ValueError(
            "cumulative discoveries diverge on [0, t2] when the difficulty "
            "exponent is >= 1; use a positive t1"
        )
    positive = np.greater(t1, 0)
    base = np.where(positive, t1, 1.0)  # t1 = 0 entries take the t2**e branch below
    log_ratio = np.log1p((t2 - t1) / base)
    e = 1.0 - alpha
    with np.errstate(over="ignore"):
        if alpha == 1.0:
            return (c * log_ratio)[()]
        value = np.where(positive, c * base**e * np.expm1(e * log_ratio) / e, c / e * t2**e)
        if not np.isfinite(value).all():  # c * t1**e overflowed; the count may still fit
            late = c * np.where(positive, base**e * np.expm1(e * log_ratio) / e, t2**e / e)
            value = np.where(np.isfinite(value), value, late)
    return value[()]


def convert_attempts_time(eta: AttemptRate, value: float, direction: str) -> float:
    """Convert between a total attempt count and a total time span."""
    check("value", value, "must be >= 0")
    if direction == ATTEMPTS_TO_TIME:
        return value / eta.attempts_per_week
    if direction == TIME_TO_ATTEMPTS:
        return value * eta.attempts_per_week
    raise ValueError(
        f"direction must be {ATTEMPTS_TO_TIME!r} or {TIME_TO_ATTEMPTS!r}, got {direction!r}"
    )


def total_discoveries_limit(tester: PowerLawTester, t1: float):
    """All-time expected discoveries from t1 on: a number for alpha > 1,
    UNBOUNDED for alpha <= 1 (log divergence included)."""
    check("t1", t1, "must be > 0")
    alpha = tester.difficulty_exponent
    if alpha > 1:
        return tester.initial_rate / (alpha - 1) * t1 ** (1.0 - alpha)
    return UNBOUNDED


def rate_crossover(a: PowerLawTester, b: PowerLawTester):
    """Time at which the two instantaneous rates are equal.

    Returns NEVER when the exponents match but the rates differ (the curves
    are parallel in log-log space) and IDENTICAL when both parameters match.
    """
    if a.basis != b.basis:
        raise ValueError(
            f"testers must share a unit basis to compare rates "
            f"({a.basis!r} vs {b.basis!r})"
        )
    if a.difficulty_exponent == b.difficulty_exponent:
        return IDENTICAL if a.initial_rate == b.initial_rate else NEVER
    return (a.initial_rate / b.initial_rate) ** (
        1.0 / (a.difficulty_exponent - b.difficulty_exponent)
    )


def week_interval(tester: PowerLawTester, week):
    """Integration interval covered by the 1-indexed week entry (an int or an
    array of weeks).

    Creative testers (alpha < 1) start at t=0, so week w covers [w-1, w].
    Saturating testers (alpha >= 1) have a divergent integral at 0; their
    clock starts at t=1 and week w covers [w, w+1).
    """
    check("week", week, "must be >= 1")
    w = np.asarray(week, dtype=float)[()]
    if tester.difficulty_exponent < 1:
        return (w - 1.0, w)
    return (w, w + 1.0)


def weekly_series(tester: PowerLawTester, weeks: int) -> CurveSeries:
    """Expected new discoveries per week for the first ``weeks`` weeks."""
    check("weeks", weeks, "must be >= 1")
    week = np.arange(1, weeks + 1)
    return CurveSeries(
        {"week": week, "discoveries": expected_discoveries(tester, *week_interval(tester, week))},
        x_label="week",
    )
