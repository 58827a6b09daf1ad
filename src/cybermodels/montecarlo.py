"""Sampling-based oracle for the analytic models.

Every estimate here is rebuilt from raw draws: Bernoulli message events,
thinning of an inhomogeneous Poisson process, and inverse-CDF delay sampling.
The closed-form/convolution code paths are never called for the draws
themselves, so a bug there cannot hide from these estimates.

Determinism: trials are split into fixed-size blocks and block i draws from
its own counter-based Philox stream derived from (seed, i). Workers only
decide which thread runs a block, never what the block draws, and per-block
tallies are exact integers, so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from .patchrace import PatchRaceScenario
from .phishing import PhishingParams
from .vulndisc import PowerLawTester

RNG_ALGORITHM = "philox4x64"
BLOCK_TRIALS = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error cannot be negative")


class PhishingEstimates(NamedTuple):
    infection: SimEstimate
    no_alert: SimEstimate
    undetected: SimEstimate


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # disjoint 2**64-draw counter windows per block
    return np.random.Generator(np.random.Philox(key=seed, counter=block << 64))


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [
        (i, min(BLOCK_TRIALS, trials - i * BLOCK_TRIALS))
        for i in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)
    ]


def _map_blocks(cfg: SimConfig, fn) -> list:
    blocks = _blocks(cfg.trials)
    if cfg.workers == 1 or len(blocks) == 1:
        return [fn(i, size) for i, size in blocks]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(lambda b: fn(*b), blocks))


def _bernoulli_estimate(successes: int, trials: int) -> SimEstimate:
    p = successes / trials
    return SimEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)


def simulate_phishing(params: PhishingParams, n: int, cfg: SimConfig) -> PhishingEstimates:
    """Estimate infection / no-alert / undetected probabilities by drawing
    every message's click, human-report, and machine-report event."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return PhishingEstimates(
            SimEstimate(0.0, 0.0, cfg.trials),
            SimEstimate(1.0, 0.0, cfg.trials),
            SimEstimate(0.0, 0.0, cfg.trials),
        )

    def block(index: int, size: int) -> tuple[int, int, int]:
        rng = _block_rng(cfg.seed, index)
        clicked = np.zeros(size, dtype=bool)
        alerted = np.zeros(size, dtype=bool)
        for _ in range(n):
            clicked |= rng.random(size) < params.p_click
            human = rng.random(size) < params.p_human_alert
            machine = rng.random(size) < params.p_machine_alert
            alerted |= human | machine
        return (
            int(clicked.sum()),
            int((~alerted).sum()),
            int((clicked & ~alerted).sum()),
        )

    infected, unalerted, undetected = (sum(t) for t in zip(*_map_blocks(cfg, block)))
    return PhishingEstimates(
        _bernoulli_estimate(infected, cfg.trials),
        _bernoulli_estimate(unalerted, cfg.trials),
        _bernoulli_estimate(undetected, cfg.trials),
    )


def _thinning_edges(t1: float, t2: float) -> np.ndarray:
    # enough subintervals that the left-endpoint majorant stays tight
    pieces = max(8, math.ceil((t2 - t1) * 4))
    return np.linspace(t1, t2, pieces + 1)


def discovery_interval_counts(
    tester: PowerLawTester, edges: Iterable[float], cfg: SimConfig
) -> np.ndarray:
    """Per-trial event counts of the discovery process in each consecutive
    [edges[i], edges[i+1]) interval; shape (trials, len(edges)-1).

    Simulated by thinning: candidates arrive under a piecewise-constant
    majorant equal to the rate at each subinterval's left endpoint (the rate
    never increases), then are accepted with probability rate(x)/majorant.
    """
    edges = np.array([float(e) for e in edges])
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    if edges[0] <= 0:
        raise ValueError(f"interval start must be > 0, got {edges[0]}")

    c, alpha = tester.initial_rate, tester.difficulty_exponent

    def rate(x: np.ndarray) -> np.ndarray:
        return c * x**-alpha

    def block(index: int, size: int) -> np.ndarray:
        rng = _block_rng(cfg.seed, index)
        counts = np.zeros((size, edges.size - 1), dtype=np.int64)
        for j in range(edges.size - 1):
            sub = _thinning_edges(edges[j], edges[j + 1])
            for u, v in zip(sub[:-1], sub[1:]):
                majorant = c * u**-alpha
                n_cand = rng.poisson(majorant * (v - u), size)
                total = int(n_cand.sum())
                if total == 0:
                    continue
                xs = rng.uniform(u, v, total)
                accept = rng.random(total) * majorant < rate(xs)
                owner = np.repeat(np.arange(size), n_cand)
                counts[:, j] += np.bincount(owner[accept], minlength=size)
        return counts

    return np.concatenate(_map_blocks(cfg, block), axis=0)


def simulate_discovery(
    tester: PowerLawTester, t1: float, t2: float, cfg: SimConfig
) -> SimEstimate:
    """Mean and standard error of simulated discovery counts over [t1, t2]."""
    if t1 <= 0:
        raise ValueError(
            f"t1 must be > 0, got {t1}: the thinning majorant (and, for "
            "difficulty exponents >= 1, the expected count itself) diverges at 0"
        )
    if not t2 > t1:
        raise ValueError(f"t2 ({t2}) must exceed t1 ({t1})")
    counts = discovery_interval_counts(tester, (t1, t2), cfg)[:, 0]
    mean = float(counts.mean())
    if counts.size > 1:
        se = float(counts.std(ddof=1) / math.sqrt(counts.size))
    else:
        se = 0.0
    return SimEstimate(mean, se, cfg.trials)


def _invert_exploit_curve(exploit, u: np.ndarray) -> np.ndarray:
    """Arrival times for uniform draws under the clamped availability curve
    treated as a sub-distribution: draws above the cap never arrive."""
    cap = exploit.peak_value
    times = np.full(u.shape, np.inf)
    arrived = u < cap
    if exploit.growth_exponent == 0:
        times[arrived] = 0.0
        return times
    target = u[arrived]
    lo = np.zeros_like(target)
    hi = np.full_like(target, exploit.peak_time)
    a, b, amp = exploit.growth_exponent, exploit.decay_per_day, exploit.amplitude
    for _ in range(64):  # bisection on the rising branch
        mid = 0.5 * (lo + hi)
        val = amp * mid**a * np.exp(-b * mid)
        go_right = val < target
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    times[arrived] = 0.5 * (lo + hi)
    return times


def simulate_race(
    s: PatchRaceScenario, probe_times: Iterable[float], cfg: SimConfig
) -> list[SimEstimate]:
    """Exploitable-system fraction at each probe time, from sampled
    development, deployment, and exploit-arrival delays.

    A trial is exploitable at probe t when its exploit has arrived by t and
    its total patch delay exceeds t. Requires a monotone (clamped) exploit
    curve; the raw curve is not a samplable distribution, so compare raw-curve
    results analytically at probe times up to the curve's peak time instead.
    """
    probes = [float(t) for t in probe_times]
    if any(t < 0 for t in probes):
        raise ValueError("probe times must be >= 0")
    if not s.exploit.clamp_monotone:
        raise ValueError(
            "simulate_race needs exploit.clamp_monotone=True: the raw "
            "availability curve declines past its peak and cannot be sampled "
            "as a distribution. For raw-curve comparisons, evaluate the "
            "analytic path at probe times <= the curve peak time "
            f"({s.exploit.peak_time:.6g} days), where raw and clamped agree."
        )
    rate = s.effective_deploy_rate
    inv_shape = 1.0 / s.dev.shape
    scale = s.dev.scale_days

    def block(index: int, size: int) -> tuple[int, ...]:
        rng = _block_rng(cfg.seed, index)
        u_dev = rng.random(size)
        u_dep = rng.random(size)
        u_exp = rng.random(size)
        if s.instant_dev:
            dev = np.zeros(size)
        else:
            dev = scale * (-np.log1p(-u_dev)) ** inv_shape
        dep = -np.log1p(-u_dep) / rate
        if s.instant_exploit:
            exploit_at = np.zeros(size)
        else:
            exploit_at = _invert_exploit_curve(s.exploit, u_exp)
        unpatched_until = dev + dep
        return tuple(
            int(((exploit_at <= t) & (unpatched_until > t)).sum()) for t in probes
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


def _phishing_case(name, params, n, seed):
    from . import phishing as ph

    def run(trials, workers):
        est = simulate_phishing(params, n, SimConfig(trials, seed, workers))
        return [
            RegressionRow(name, "p_infection", ph.p_infection(params, n), est.infection),
            RegressionRow(name, "p_no_alert", ph.p_no_alert(params, n), est.no_alert),
            RegressionRow(name, "p_undetected", ph.p_undetected(params, n), est.undetected),
        ]

    return run


def _discovery_case(name, tester, t1, t2, seed):
    from . import vulndisc as vd

    def run(trials, workers):
        est = simulate_discovery(tester, t1, t2, SimConfig(trials, seed, workers))
        return [RegressionRow(name, "discoveries", vd.expected_discoveries(tester, t1, t2), est)]

    return run


def _race_case(name, scenario, probe, seed):
    from . import patchrace as pr

    def run(trials, workers):
        est = simulate_race(scenario, [probe], SimConfig(trials, seed, workers))[0]
        return [
            RegressionRow(
                name, f"exploitable@{probe:g}d", pr.exploitable_fraction(scenario, probe), est
            )
        ]

    return run


def _regression_cases():
    from .patchrace import ExploitCurveParams, PatchRaceScenario

    base = PhishingParams(0.03, 0.015, 0.01)
    writer = PhishingParams(0.3, 0.005, 0.01)
    detector = PhishingParams(0.3, 0.005, 0.25)
    clamped = PatchRaceScenario(exploit=ExploitCurveParams(clamp_monotone=True))
    cases = [
        _phishing_case("phish/base n=26", base, 26, 101),
        _phishing_case("phish/base n=5", base, 5, 102),
        _phishing_case("phish/base n=120", base, 120, 103),
        _phishing_case("phish/writer n=9", writer, 9, 104),
        _phishing_case("phish/detector n=2", detector, 2, 105),
        _phishing_case("phish/(0.1,0.02,0) n=15", PhishingParams(0.1, 0.02, 0.0), 15, 106),
        _phishing_case("phish/(0.5,0,0.05) n=3", PhishingParams(0.5, 0.0, 0.05), 3, 107),
        _phishing_case("phish/(0.02,0.01,0.03) n=60", PhishingParams(0.02, 0.01, 0.03), 60, 108),
        _discovery_case("disc/human [1,9]", PowerLawTester(6.0, 0.4), 1.0, 9.0, 109),
        _discovery_case("disc/human [0.5,4.5]", PowerLawTester(6.0, 0.4), 0.5, 4.5, 110),
        _discovery_case("disc/fuzzer [1,18/7]", PowerLawTester(85.5, 3.0), 1.0, 18.0 / 7.0, 111),
        _discovery_case("disc/fuzzer [2,6]", PowerLawTester(85.5, 3.0), 2.0, 6.0, 112),
        _discovery_case("disc/creative [1,3]", PowerLawTester(6.0, 0.04), 1.0, 3.0, 113),
        _discovery_case("disc/flat [1,11]", PowerLawTester(2.0, 0.0), 1.0, 11.0, 114),
        _race_case("race/default @55", clamped, 55.0, 115),
        _race_case("race/default @100", clamped, 100.0, 116),
        _race_case("race/default @365", clamped, 365.0, 117),
        _race_case("race/instant_dev @55", replace(clamped, instant_dev=True), 55.0, 118),
        _race_case("race/instant_exploit @144", replace(clamped, instant_exploit=True), 144.0, 119),
        _race_case(
            "race/instant_exploit 5x @365",
            replace(clamped, instant_exploit=True, deploy_speedup=5.0), 365.0, 120,
        ),
    ]
    return cases


def run_regression_suite(trials: int = 100_000, workers: int = 1) -> list[RegressionRow]:
    """Run all 20 oracle cases; each row pairs an analytic value with its
    simulated estimate."""
    rows: list[RegressionRow] = []
    for case in _regression_cases():
        rows.extend(case(trials, workers))
    return rows
