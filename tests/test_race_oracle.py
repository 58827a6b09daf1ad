"""The Monte Carlo oracle checks the race kernel where the paper draws its
conclusions: the orderings of the technology-advance contrasts, and whole
exploitable-fraction curves of figures 8 and 9a.

Every seed below was chosen before the first run of this file, and none may
be re-picked after a failure: a failure reports a defect or a bar that is
too tight, never a draw to route around.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cybermodels.montecarlo import SimConfig, simulate_race
from cybermodels.patchrace import exploitable_fraction, race_summary
from cybermodels.scenario import default_scenario

BASE = default_scenario().race  # the scenario of `figures`
WHAT_IFS = {
    "base": BASE,
    "instant_dev": replace(BASE, instant_dev=True),
    "deploy_5x": replace(BASE, deploy_speedup=5.0),
    "instant_exploit": replace(BASE, instant_exploit=True),
}
# shift = SIGN * (base - what-if): how far each advance moves the exploitable
# fraction, positive in the direction the paper reads it (the defenders'
# advances lower the fraction, the attackers' raises it)
SIGN = {"instant_dev": 1.0, "deploy_5x": 1.0, "instant_exploit": -1.0}

ORDERING_SEED = 3202
ORDERING_TRIALS = 100_000
# day -> the advances whose shift must exceed dev_shift there. At day 365
# exploit_shift - dev_shift is about 2.0e-4 in the kernel, which 1e5 trials
# cannot resolve, so that ordering is left out.
ORDERINGS = {
    30.0: ("deploy_5x", "instant_exploit"),
    55.0: ("deploy_5x", "instant_exploit"),
    100.0: ("deploy_5x", "instant_exploit"),
    365.0: ("deploy_5x",),
}

CURVE_SEED = 3203
CURVE_TRIALS = 1_000_000
CURVE_DAYS = np.geomspace(0.25, 730.0, 64)
# 64 looks per curve: P(|Z| > 4.5) = 6.8e-6, so a false alarm on any of the
# three curves has probability under 3 * 64 * 6.8e-6 = 1.3e-3
CURVE_BAR = 4.5


@pytest.fixture(scope="module")
def peaks():
    return {name: race_summary(s) for name, s in WHAT_IFS.items()}


@pytest.fixture(scope="module")
def runs(peaks):
    """Each scenario at the fixed days and at every scenario's peak day, all
    with one seed. simulate_race draws the same uniforms per trial whatever
    the scenario, so each what-if's exploitable events nest inside or around
    the baseline's trial by trial."""
    probes = [*ORDERINGS, *(p.peak_time for p in peaks.values())]
    cfg = SimConfig(trials=ORDERING_TRIALS, seed=ORDERING_SEED)
    return {
        name: dict(zip(probes, simulate_race(s, probes, cfg))) for name, s in WHAT_IFS.items()
    }


@pytest.mark.parametrize("day", list(ORDERINGS))
def test_orderings_at_fixed_days(day, runs):
    base = runs["base"][day]
    shift, se = {}, {}
    for name, sign in SIGN.items():
        shift[name] = sign * (base.mean - runs[name][day].mean)
        # nested events: the shift is itself a Bernoulli fraction
        se[name] = math.sqrt(shift[name] * (1.0 - shift[name]) / ORDERING_TRIALS)
        what_if = exploitable_fraction(WHAT_IFS[name], day)
        kernel = sign * (exploitable_fraction(BASE, day) - what_if)
        assert abs(shift[name] - kernel) <= 4.0 * se[name], (name, shift[name], kernel, se[name])
    for name in ORDERINGS[day]:
        margin = shift[name] - shift["instant_dev"]
        assert margin >= 4.0 * (se[name] + se["instant_dev"]), (name, margin, se)


def test_orderings_at_each_scenarios_peak_day(runs, peaks):
    base = runs["base"][peaks["base"].peak_time]
    shift, sd = {}, {}
    for name, sign in SIGN.items():
        est = runs[name][peaks[name].peak_time]
        shift[name] = sign * (base.mean - est.mean)
        # two different days do not nest; the SD of a difference is at most
        # the sum of the two SDs
        sd[name] = base.std_error + est.std_error
        kernel = sign * (peaks["base"].peak_fraction - peaks[name].peak_fraction)
        assert abs(shift[name] - kernel) <= 4.0 * sd[name], (name, shift[name], kernel, sd[name])
    for name in ("deploy_5x", "instant_exploit"):
        margin = shift[name] - shift["instant_dev"]
        assert margin >= 4.0 * (sd[name] + sd["instant_dev"]), (name, margin, sd)


@pytest.mark.parametrize("name", ["base", "instant_dev", "deploy_5x"])
def test_whole_curve_within_the_bar(name):
    s = WHAT_IFS[name]
    ests = simulate_race(s, CURVE_DAYS, SimConfig(trials=CURVE_TRIALS, seed=CURVE_SEED))
    analytic = exploitable_fraction(s, CURVE_DAYS)
    z = np.array([(e.mean - a) / e.std_error for e, a in zip(ests, analytic)])
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= CURVE_BAR, (CURVE_DAYS[worst], z[worst])
