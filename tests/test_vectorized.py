"""Array-valued model functions against scalar ``math`` reference loops.

Each model quantity has one numpy implementation that takes a float or an
array. The references below are the scalar formulas the package used before,
evaluated element by element; the array results must match them to rtol
1e-12 on the bundled presets' grids and weeks. The tests also pin the
float/array contract: a float in gives a ``float`` out (never a 0-d array),
an array in gives an array of the same shape, and one bad element raises the
same ValueError as the scalar call with that element.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cybermodels import vulndisc
from cybermodels.numerics import Grid, argmax_int
from cybermodels.patchrace import (
    ExploitCurveParams,
    PatchRaceScenario,
    exploit_availability,
    exploitable_fraction,
    patch_deployed_cdf,
    patch_developed_all_vulns,
    patch_developed_cdf,
    patched_fraction,
    race_summary,
    race_sweep,
)
from cybermodels.phishing import optimal_campaign, p_infection, p_no_alert, p_undetected
from cybermodels.scenario import list_bundled, resolve_scenario
from cybermodels.vulndisc import PowerLawTester, expected_discoveries, week_interval

RTOL = 1e-12
PRESETS = {name: resolve_scenario(name) for name in list_bundled()}
RACES = {name: scn.race for name, scn in PRESETS.items()}
ALPHAS = (0.0, 0.04, 0.4, 1.0, 3.0)
WEEKS = np.arange(1, 521)


# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------


def ref_weibull_cdf(p, t):
    return -math.expm1(-((t / p.scale_days) ** p.shape))


def ref_deployed_cdf(rate, t):
    return -math.expm1(-rate * t)


def ref_exploit(e, t):
    if e.clamp_monotone and t > e.peak_time:
        return e.peak_value
    return e.amplitude * t**e.growth_exponent * math.exp(-e.decay_per_day * t)


def ref_patched(s, t):
    rate = s.effective_deploy_rate
    if s.instant_dev:
        return ref_deployed_cdf(rate, t)
    nodes = s.grid.nodes().tolist()
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        mass = ref_weibull_cdf(s.dev, b) - ref_weibull_cdf(s.dev, a)
        total += mass * ref_deployed_cdf(rate, max(t - 0.5 * (a + b), 0.0))
    return total


def ref_p_infection(p, n):
    return 1.0 - (1.0 - p.p_click) ** n


def ref_p_no_alert(p, n):
    return (1.0 - p.p_alert) ** n


def ref_week_interval(alpha, week):
    return (week - 1.0, float(week)) if alpha < 1 else (float(week), week + 1.0)


def ref_expected(tester, t1, t2):
    alpha, c = tester.difficulty_exponent, tester.initial_rate
    if alpha == 1.0:
        return c * math.log(t2 / t1)
    e = 1.0 - alpha
    return c / e * (t2**e - t1**e)


def assert_matches(got, ref_fn, xs):
    ref = np.array([ref_fn(x) for x in np.asarray(xs).tolist()])
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=0.0)


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RACES))
def test_race_curves_match_reference_on_preset_grid(name):
    race = RACES[name]
    nodes = race.grid.nodes()
    rate = race.dep.rate_per_day
    dev_cdf = patch_developed_cdf(race.dev, nodes)
    assert_matches(dev_cdf, lambda t: ref_weibull_cdf(race.dev, t), nodes)
    assert_matches(patch_deployed_cdf(race.dep, nodes), lambda t: ref_deployed_cdf(rate, t), nodes)
    pre = race.pre_disclosure_patch_fraction
    assert_matches(
        patch_developed_all_vulns(race.dev, pre, nodes),
        lambda t: pre + (1.0 - pre) * ref_weibull_cdf(race.dev, t),
        nodes,
    )
    for clamp in (False, True):
        curve = replace(race.exploit, clamp_monotone=clamp)
        assert_matches(exploit_availability(curve, nodes), lambda t: ref_exploit(curve, t), nodes)


@pytest.mark.parametrize(
    "flags",
    [{}, {"instant_dev": True}, {"deploy_speedup": 5.0}, {"instant_exploit": True}],
    ids=["baseline", "instant_dev", "deploy_5x", "instant_exploit"],
)
def test_patched_and_exploitable_match_reference(flags):
    s = PatchRaceScenario(**flags)
    nodes = s.grid.nodes()
    probes = nodes[::97]
    sweep = race_sweep(s)
    ref_patch = np.array([ref_patched(s, t) for t in probes.tolist()])
    for got in (patched_fraction(s, probes), sweep.column("patched_fraction")[::97]):
        np.testing.assert_allclose(got, ref_patch, rtol=RTOL, atol=1e-15)
    avail = np.array([1.0 if s.instant_exploit else ref_exploit(s.exploit, t) for t in probes])
    # 1 - patched cancels where patched nears 1 (deploy_5x), so the product
    # keeps the absolute, not the relative, round-off of the patched fraction
    np.testing.assert_allclose(
        exploitable_fraction(s, probes), avail * (1.0 - ref_patch), rtol=RTOL, atol=1e-14
    )
    # the sweep reads P from its node pass and patched_fraction steps from it:
    # the same bits at every node
    assert np.array_equal(sweep.column("patched_fraction"), patched_fraction(s, nodes))
    assert np.array_equal(sweep.column("exploitable_fraction"), exploitable_fraction(s, nodes))


def test_exploit_curve_clamped_beyond_peak():
    curve = ExploitCurveParams(clamp_monotone=True)
    ts = np.array([0.0, 100.0, curve.peak_time, curve.peak_time + 1.0, 730.0])
    got = exploit_availability(curve, ts)
    assert_matches(got, lambda t: ref_exploit(curve, t), ts)
    assert got[-1] == curve.peak_value


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_phishing_matches_reference(name):
    params = PRESETS[name].phishing
    ns = np.arange(1001)
    assert_matches(p_infection(params, ns), lambda n: ref_p_infection(params, n), ns)
    assert_matches(p_no_alert(params, ns), lambda n: ref_p_no_alert(params, n), ns)
    assert_matches(
        p_undetected(params, ns),
        lambda n: ref_p_infection(params, n) * ref_p_no_alert(params, n),
        ns,
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_optimal_campaign_agrees_with_argmax_int(name):
    params = PRESETS[name].phishing
    n, value = argmax_int(lambda m: p_undetected(params, m), 1, 1000)
    best = optimal_campaign(params, 1000)
    assert best.n_messages == n
    assert best.p_undetected == value
    # the optimum's cells are read from its sweep: the same bits as scalar calls
    assert best.p_infection == p_infection(params, n)
    assert best.p_no_alert == p_no_alert(params, n)


def _testers():
    presets = [PRESETS[n].tester for n in sorted(PRESETS)]
    return presets + [PowerLawTester(6.0, alpha) for alpha in ALPHAS]


def _tester_id(tester):
    return f"c{tester.initial_rate:g}-a{tester.difficulty_exponent:g}"


@pytest.mark.parametrize("tester", _testers(), ids=_tester_id)
def test_discovery_matches_reference(tester):
    alpha = tester.difficulty_exponent
    t1, t2 = week_interval(tester, WEEKS)
    ref = np.array([ref_week_interval(alpha, w) for w in WEEKS.tolist()])
    assert np.array_equal(t1, ref[:, 0]) and np.array_equal(t2, ref[:, 1])
    got = expected_discoveries(tester, t1, t2)
    np.testing.assert_allclose(
        got, [ref_expected(tester, a, b) for a, b in ref.tolist()], rtol=RTOL, atol=0.0
    )
    series = vulndisc.weekly_series(tester, WEEKS.size)
    assert np.array_equal(series.column("discoveries"), got)


# ---------------------------------------------------------------------------
# float / array contract
# ---------------------------------------------------------------------------

RACE = PatchRaceScenario()
TESTER = PowerLawTester(6.0, 0.4)
PHISH = PRESETS["baseline.scn"].phishing

NAN = math.nan

# name -> (function of one argument, a valid float, its invalid elements)
CONTRACT = {
    "patch_developed_cdf": (lambda t: patch_developed_cdf(RACE.dev, t), 30.0, (-2.0, NAN)),
    "patch_deployed_cdf": (lambda t: patch_deployed_cdf(RACE.dep, t), 30.0, (-2.0, NAN)),
    "patch_developed_all_vulns": (
        lambda t: patch_developed_all_vulns(RACE.dev, 0.78, t), 30.0, (-2.0, NAN),
    ),
    "exploit_availability": (
        lambda t: exploit_availability(RACE.exploit, t), 30.0, (-2.0, NAN),
    ),
    "exploit_availability_clamped": (
        lambda t: exploit_availability(ExploitCurveParams(clamp_monotone=True), t),
        900.0,
        (-2.0, NAN),
    ),
    "patched_fraction": (lambda t: patched_fraction(RACE, t), 30.0, (-2.0, NAN)),
    "exploitable_fraction": (lambda t: exploitable_fraction(RACE, t), 30.0, (800.0, NAN)),
    "p_infection": (lambda n: p_infection(PHISH, n), 26.0, (-1.0, NAN)),
    "p_no_alert": (lambda n: p_no_alert(PHISH, n), 26.0, (-1.0, NAN)),
    "p_undetected": (lambda n: p_undetected(PHISH, n), 26.0, (-1.0, NAN)),
    "expected_discoveries": (
        lambda t1: expected_discoveries(TESTER, t1, 600.0), 3.0, (-2.0, NAN),
    ),
    "week_interval": (lambda w: week_interval(TESTER, w)[1], 3.0, (0.0, NAN)),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_float_in_float_out(name):
    fn, x, _ = CONTRACT[name]
    value = fn(x)
    assert isinstance(value, float) and not isinstance(value, np.ndarray)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_array_keeps_shape_and_values(name):
    fn, x, _ = CONTRACT[name]
    xs = np.full((2, 3), x)
    xs[1, 2] = x + 1.0
    got = fn(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got[0, 0] == fn(x)
    assert got[1, 2] == fn(x + 1.0)


def test_exploit_curve_same_bits_alone_or_in_an_array():
    nodes = RACE.grid.nodes()
    together = exploit_availability(RACE.exploit, nodes)
    assert together.tolist() == [exploit_availability(RACE.exploit, t) for t in nodes.tolist()]


@pytest.mark.parametrize(
    "race",
    [RACE, PatchRaceScenario(deploy_speedup=5.0), PatchRaceScenario(grid=Grid(0.0, 730.0, 0.1))],
    ids=["baseline", "deploy_5x", "grid_0.1"],
)
def test_summary_one_year_value_is_the_sweep_node_bit_for_bit(race):
    sweep = race_sweep(race)
    (node,) = np.flatnonzero(sweep.column("t") == 365.0)
    at_1yr = race_summary(race).fraction_at_1yr
    assert at_1yr == sweep.column("exploitable_fraction")[node]
    assert at_1yr == exploitable_fraction(race, 365.0)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_one_bad_element_raises_the_scalar_error(name):
    fn, x, bads = CONTRACT[name]
    for bad in bads:
        with pytest.raises(ValueError) as scalar:
            fn(bad)
        with pytest.raises(ValueError) as array:
            fn(np.array([x, bad, x]))
        assert str(array.value) == str(scalar.value)


# name -> the exact text of the check that rejects each of CONTRACT's
# invalid elements
MESSAGES = {
    "patch_developed_cdf": ("t must be >= 0, got -2.0", "t must be >= 0, got nan"),
    "patch_deployed_cdf": ("t must be >= 0, got -2.0", "t must be >= 0, got nan"),
    "patch_developed_all_vulns": ("t must be >= 0, got -2.0", "t must be >= 0, got nan"),
    "exploit_availability": ("t must be >= 0, got -2.0", "t must be >= 0, got nan"),
    "exploit_availability_clamped": ("t must be >= 0, got -2.0", "t must be >= 0, got nan"),
    "p_infection": ("n must be >= 0, got -1.0", "n must be >= 0, got nan"),
    "p_no_alert": ("n must be >= 0, got -1.0", "n must be >= 0, got nan"),
    "p_undetected": ("n must be >= 0, got -1.0", "n must be >= 0, got nan"),
    "expected_discoveries": ("t1 must be >= 0, got -2.0", "t1 must be >= 0, got nan"),
    "week_interval": ("week must be >= 1, got 0.0", "week must be >= 1, got nan"),
}


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_bad_element_text_alone_and_first_in_a_2d_array(name):
    fn, x, bads = CONTRACT[name]
    for bad, message in zip(bads, MESSAGES[name]):
        xs = np.full((2, 3), x)
        xs[0, 2], xs[1, 0] = bad, -5.0  # the text names the first, at [0, 2]
        for value in (bad, xs):
            with pytest.raises(ValueError) as excinfo:
                fn(value)
            assert str(excinfo.value) == message


# exact results for the Python list [1, 2], which these functions take as
# they take an array
@pytest.mark.parametrize("fn,result", [
    (lambda n: p_infection(PHISH, n), [0.030000000000000027, 0.05910000000000004]),
    (lambda n: p_no_alert(PHISH, n), [0.97515, 0.9509175225]),
    (lambda n: p_undetected(PHISH, n), [0.029254500000000024, 0.05619922557975004]),
    (lambda w: week_interval(TESTER, w)[0], [0.0, 1.0]),
    (lambda w: week_interval(TESTER, w)[1], [1.0, 2.0]),
], ids=["p_infection", "p_no_alert", "p_undetected", "week_start", "week_end"])
def test_python_list_input_keeps_its_results(fn, result):
    assert fn([1, 2]).tolist() == result


def test_expected_discoveries_names_the_failing_pair():
    with pytest.raises(ValueError, match=r"t2 \(2.0\) must exceed t1 \(3.0\)"):
        expected_discoveries(TESTER, np.array([1.0, 3.0]), np.array([2.0, 2.0]))
