"""Sampling-based oracle for the analytic models.

Every estimate here is rebuilt from raw draws: Bernoulli message events,
thinning of an inhomogeneous Poisson process, inverse-CDF sampling of the
patch delays, and a threshold test of a uniform draw against the exploit
availability curve for exploit arrival.
The closed forms of the model modules are never called for the draws; in the
regression suite they feed only the ``analytic`` column, so a bug there cannot
hide from these estimates.

Determinism: trials are split into fixed-size blocks, and ``_map_blocks`` is
the one place that gives block i its own counter-based Philox stream derived
from (seed, i). Workers only decide which thread runs a block, never what the
block draws, and per-block tallies are exact integers, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from . import patchrace, phishing, vulndisc
from .numerics import RULES, check
from .patchrace import PatchRaceScenario
from .phishing import PhishingParams
from .vulndisc import PowerLawTester

RNG_ALGORITHM = "philox4x64"
BLOCK_TRIALS = 1 << 15
# the most draws one full block of simulate_discovery may ask for (see there)
MAX_BLOCK_DRAWS = 1 << 26


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        check("trials", self.trials, "must be >= 1")
        check("seed", self.seed, "must be a 64-bit unsigned integer")
        check("workers", self.workers, "must be >= 1")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        check("std_error", self.std_error, "must be >= 0")


class DrawLimitError(ValueError):
    """A run that would draw more than its oracle's stated limit."""


class PhishingEstimates(NamedTuple):
    infection: SimEstimate
    no_alert: SimEstimate
    undetected: SimEstimate


def _map_blocks(cfg: SimConfig, fn) -> list:
    """``fn(rng, size)`` for each block of up to BLOCK_TRIALS trials, in block
    order; block i draws from its own disjoint 2**64-draw Philox counter
    window, whichever thread runs it."""

    def block(start: int):
        counter = (start // BLOCK_TRIALS) << 64
        rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=counter))
        return fn(rng, min(BLOCK_TRIALS, cfg.trials - start))

    starts = range(0, cfg.trials, BLOCK_TRIALS)
    if cfg.workers == 1 or len(starts) == 1:
        return [block(start) for start in starts]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(block, starts))


def _bernoulli_estimate(successes: int, trials: int) -> SimEstimate:
    p = successes / trials
    return SimEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)


def simulate_phishing(params: PhishingParams, n: int, cfg: SimConfig) -> PhishingEstimates:
    """Estimate infection / no-alert / undetected probabilities by drawing
    every message's click, human-report, and machine-report event."""
    check("n", n, "must be >= 0")

    def block(rng: np.random.Generator, size: int) -> tuple[int, int, int]:
        clicked = np.zeros(size, dtype=bool)
        alerted = np.zeros(size, dtype=bool)
        for _ in range(n):
            clicked |= rng.random(size) < params.p_click
            human = rng.random(size) < params.p_human_alert
            machine = rng.random(size) < params.p_machine_alert
            alerted |= human | machine
        return int(clicked.sum()), int((~alerted).sum()), int((clicked & ~alerted).sum())

    tallies = zip(*_map_blocks(cfg, block))
    return PhishingEstimates(*(_bernoulli_estimate(sum(t), cfg.trials) for t in tallies))


def _thinning_edges(t1: float, t2: float) -> np.ndarray:
    # enough subintervals that the left-endpoint majorant stays tight
    pieces = max(8, math.ceil((t2 - t1) * 4))
    return np.linspace(t1, t2, pieces + 1)


def simulate_discovery(
    tester: PowerLawTester, t1: float, t2: float, cfg: SimConfig
) -> SimEstimate:
    """Mean and standard error of simulated discovery counts over [t1, t2].

    Simulated by thinning: candidates arrive under a piecewise-constant
    majorant equal to the rate at each subinterval's left endpoint (the rate
    never increases), then are accepted with probability rate(x)/majorant.

    Before anything is drawn, the draws of one full block are estimated as
    BLOCK_TRIALS x (pieces + expected candidates per trial); past
    MAX_BLOCK_DRAWS the run raises DrawLimitError.
    """
    if not RULES["must be > 0"](t1):
        raise ValueError(
            f"t1 must be > 0, got {t1}: the thinning majorant (and, for "
            "difficulty exponents >= 1, the expected count itself) diverges at 0"
        )
    if not t2 > t1:
        raise ValueError(f"t2 ({t2}) must exceed t1 ({t1})")
    c, alpha = tester.initial_rate, tester.difficulty_exponent
    # the pieces alone, at least 4 per week, bound the draws before they are laid out
    draws = BLOCK_TRIALS * 4 * (t2 - t1)
    if draws <= MAX_BLOCK_DRAWS:
        sub = _thinning_edges(t1, t2)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the limit
            draws = BLOCK_TRIALS * (sub.size - 1 + np.sum(c * sub[:-1] ** -alpha * np.diff(sub)))
    if not draws <= MAX_BLOCK_DRAWS:
        raise DrawLimitError(
            f"the discovery oracle would draw at least {draws:.3g} values per "
            f"{BLOCK_TRIALS}-trial block at c = {c}, t1 = {t1}, t2 = {t2}, past its "
            f"limit of {MAX_BLOCK_DRAWS}"
        )

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = np.zeros(size, dtype=np.int64)
        for u, v in zip(sub[:-1], sub[1:]):
            majorant = c * u**-alpha
            n_cand = rng.poisson(majorant * (v - u), size)
            total = int(n_cand.sum())
            if total == 0:
                continue
            xs = rng.uniform(u, v, total)
            accept = rng.random(total) * majorant < c * xs**-alpha
            owner = np.repeat(np.arange(size), n_cand)
            counts += np.bincount(owner[accept], minlength=size)
        return counts

    counts = np.concatenate(_map_blocks(cfg, block))
    mean = float(counts.mean())
    if counts.size > 1:
        se = float(counts.std(ddof=1) / math.sqrt(counts.size))
    else:
        se = 0.0
    return SimEstimate(mean, se, cfg.trials)


def simulate_race(
    s: PatchRaceScenario, probe_times: Iterable[float], cfg: SimConfig
) -> list[SimEstimate]:
    """Exploitable-system fraction at each probe time, from sampled
    development and deployment delays and a threshold test for the exploit.

    A trial is exploitable at probe t when its exploit has arrived by t and
    its total patch delay exceeds t. Each trial draws one uniform u_exp, and
    its exploit has arrived by t when u_exp < A(t): that event has
    probability exactly A(t), so the scenario's own curve is sampled, raw
    (declining past its peak) or clamped.
    """
    probes = [float(t) for t in probe_times]
    check("probe time", probes, "must be >= 0")
    e = s.exploit
    days = np.minimum(probes, e.peak_time) if e.clamp_monotone else np.array(probes)
    # A(t) by the oracle's own formula; np.power makes 0**0 = 1, as in patchrace,
    # and where days**a overflows (inf * 0 = nan) A(t) is taken in logs
    a, b = e.growth_exponent, e.decay_per_day
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        power_form = e.amplitude * np.power(days, a) * np.exp(-b * days)
        log_form = np.exp(np.log(e.amplitude) + a * np.log(days) - b * days)
    availability = np.ones_like(days) if s.instant_exploit else (
        np.where(np.isfinite(power_form), power_form, log_form))
    rate = s.effective_deploy_rate
    inv_shape = 1.0 / s.dev.shape
    scale = s.dev.scale_days

    def block(rng: np.random.Generator, size: int) -> tuple[int, ...]:
        u_dev = rng.random(size)
        u_dep = rng.random(size)
        u_exp = rng.random(size)
        # a delay that overflows to inf is exact here: unpatched past every probe
        with np.errstate(over="ignore"):
            if s.instant_dev:
                dev = np.zeros(size)
            else:
                dev = scale * (-np.log1p(-u_dev)) ** inv_shape
            dep = -np.log1p(-u_dep) / rate
        unpatched_until = dev + dep
        return tuple(
            int(((u_exp < a) & (unpatched_until > t)).sum())
            for t, a in zip(probes, availability)
        )

    tallies = [sum(t) for t in zip(*_map_blocks(cfg, block))]
    return [_bernoulli_estimate(count, cfg.trials) for count in tallies]


# ---------------------------------------------------------------------------
# Fixed oracle regression suite: 20 cases comparing analytic values against
# their simulated counterparts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionRow:
    case: str
    quantity: str
    analytic: float
    estimate: SimEstimate

    @property
    def within_4se(self) -> bool:
        return abs(self.analytic - self.estimate.mean) <= 4.0 * self.estimate.std_error + 1e-12


def _regression_cases() -> list[tuple]:
    """(name, seed, model, params, args) of each oracle case, in suite order."""
    base = PhishingParams(0.03, 0.015, 0.01)
    writer = PhishingParams(0.3, 0.005, 0.01)
    detector = PhishingParams(0.3, 0.005, 0.25)
    human, fuzzer = PowerLawTester(6.0, 0.4), PowerLawTester(85.5, 3.0)
    race = PatchRaceScenario()
    instant_exploit = replace(race, instant_exploit=True)
    return [
        ("phish/base n=26", 101, "phishing", base, (26,)),
        ("phish/base n=5", 102, "phishing", base, (5,)),
        ("phish/base n=120", 103, "phishing", base, (120,)),
        ("phish/writer n=9", 104, "phishing", writer, (9,)),
        ("phish/detector n=2", 105, "phishing", detector, (2,)),
        ("phish/(0.1,0.02,0) n=15", 106, "phishing", PhishingParams(0.1, 0.02, 0.0), (15,)),
        ("phish/(0.5,0,0.05) n=3", 107, "phishing", PhishingParams(0.5, 0.0, 0.05), (3,)),
        ("phish/(0.02,0.01,0.03) n=60", 108, "phishing", PhishingParams(0.02, 0.01, 0.03), (60,)),
        ("disc/human [1,9]", 109, "discovery", human, (1.0, 9.0)),
        ("disc/human [0.5,4.5]", 110, "discovery", human, (0.5, 4.5)),
        ("disc/fuzzer [1,18/7]", 111, "discovery", fuzzer, (1.0, 18.0 / 7.0)),
        ("disc/fuzzer [2,6]", 112, "discovery", fuzzer, (2.0, 6.0)),
        ("disc/creative [1,3]", 113, "discovery", PowerLawTester(6.0, 0.04), (1.0, 3.0)),
        ("disc/flat [1,11]", 114, "discovery", PowerLawTester(2.0, 0.0), (1.0, 11.0)),
        ("race/default @55", 115, "race", race, (55.0,)),
        ("race/default @100", 116, "race", race, (100.0,)),
        ("race/default @365", 117, "race", race, (365.0,)),
        ("race/instant_dev @55", 118, "race", replace(race, instant_dev=True), (55.0,)),
        ("race/instant_exploit @144", 119, "race", instant_exploit, (144.0,)),
        ("race/instant_exploit 5x @365", 120, "race",
         replace(instant_exploit, deploy_speedup=5.0), (365.0,)),
    ]


def _run_case(name, seed, model, params, args, trials, workers) -> list[RegressionRow]:
    cfg = SimConfig(trials, seed, workers)
    if model == "phishing":
        est = simulate_phishing(params, *args, cfg)
        return [
            RegressionRow(name, quantity, getattr(phishing, quantity)(params, *args), e)
            for quantity, e in zip(("p_infection", "p_no_alert", "p_undetected"), est)
        ]
    if model == "discovery":
        est = simulate_discovery(params, *args, cfg)
        analytic = vulndisc.expected_discoveries(params, *args)
        return [RegressionRow(name, "discoveries", analytic, est)]
    (probe,) = args
    est = simulate_race(params, [probe], cfg)[0]
    analytic = patchrace.exploitable_fraction(params, probe)
    return [RegressionRow(name, f"exploitable@{probe:g}d", analytic, est)]


def run_regression_suite(trials: int = 100_000, workers: int = 1) -> list[RegressionRow]:
    """Run all 20 oracle cases; each row pairs an analytic value with its
    simulated estimate."""
    return [row for case in _regression_cases() for row in _run_case(*case, trials, workers)]
