"""Phishing campaign model: more messages raise the odds of a foothold but
also the odds of being reported.

Messages are independent; a single report (human or machine) flags the whole
campaign. The n=0 campaign is the empty product: no infection, no alert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import raise_at_first
from .series import CurveSeries


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class PhishingParams:
    """Per-message click and alert probabilities for one campaign scenario."""

    p_click: float
    p_human_alert: float
    p_machine_alert: float

    def __post_init__(self):
        for name in ("p_click", "p_human_alert", "p_machine_alert"):
            _check_probability(name, getattr(self, name))

    @property
    def p_alert(self) -> float:
        """Per-message probability of being reported by human or machine
        (independent channels)."""
        return (
            self.p_human_alert
            + self.p_machine_alert
            - self.p_human_alert * self.p_machine_alert
        )


@dataclass(frozen=True)
class CampaignPoint:
    n_messages: int
    p_infection: float
    p_no_alert: float
    p_undetected: float

    def __post_init__(self):
        if self.n_messages < 0:
            raise ValueError("n_messages must be >= 0")
        _check_probability("p_infection", self.p_infection)
        _check_probability("p_no_alert", self.p_no_alert)
        _check_probability("p_undetected", self.p_undetected)
        if abs(self.p_undetected - self.p_infection * self.p_no_alert) > 1e-12:
            raise ValueError("p_undetected must equal p_infection * p_no_alert")


def p_infection(params: PhishingParams, n):
    """Probability of at least one click in an n-message campaign (n an int
    or an array of sizes)."""
    raise_at_first(np.less(n, 0), "n must be >= 0")
    return 1.0 - np.power(1.0 - params.p_click, n, dtype=float)


def p_no_alert(params: PhishingParams, n):
    """Probability that none of the n messages is reported."""
    raise_at_first(np.less(n, 0), "n must be >= 0")
    return np.power(1.0 - params.p_alert, n, dtype=float)


def p_undetected(params: PhishingParams, n):
    """Probability of at least one click with zero reports."""
    return p_infection(params, n) * p_no_alert(params, n)


def campaign_point(params: PhishingParams, n: int) -> CampaignPoint:
    inf = float(p_infection(params, n))  # plain floats keep the record's repr readable
    noal = float(p_no_alert(params, n))
    return CampaignPoint(n, inf, noal, inf * noal)


def optimal_campaign(params: PhishingParams, n_max: int) -> CampaignPoint:
    """Campaign size in [1, n_max] maximizing the undetected-infection odds.

    Scans every size: the peak can be nearly flat (neighbouring sizes differ in
    the fifth digit), so hill-climbing with early stopping would be unsafe.
    Ties go to the smallest campaign (the first maximum).
    """
    undetected = campaign_sweep(params, n_max).column("p_undetected")
    return campaign_point(params, int(np.argmax(undetected[1:])) + 1)


def campaign_sweep(params: PhishingParams, n_max: int) -> CurveSeries:
    """Per-size campaign curve for n = 0..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ns = np.arange(n_max + 1)
    inf, noal = p_infection(params, ns), p_no_alert(params, ns)
    return CurveSeries(
        {"n": ns, "p_infection": inf, "p_no_alert": noal, "p_undetected": inf * noal},
        x_label="n",
        units="messages",
    )
