import csv
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cybermodels import montecarlo
from cybermodels.montecarlo import (
    DrawLimitError,
    SimConfig,
    SimEstimate,
    run_regression_suite,
    simulate_discovery,
    simulate_phishing,
    simulate_race,
)
from cybermodels.patchrace import (
    DeploymentParams,
    ExploitCurveParams,
    PatchRaceScenario,
    WeibullParams,
    exploitable_fraction,
)
from cybermodels.phishing import PhishingParams
from cybermodels.scenario import list_bundled, load_preset
from cybermodels.vulndisc import PowerLawTester

BASELINE = PhishingParams(0.03, 0.015, 0.01)
CLAMPED = PatchRaceScenario(exploit=ExploitCurveParams(clamp_monotone=True))
ROOT = Path(__file__).resolve().parents[1]
ORACLE_GOLDEN = ROOT / "tests" / "golden" / "oracle_suite_2000.csv"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            SimConfig(trials=0, seed=1)
        with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer, got -1$"):
            SimConfig(trials=10, seed=-1)
        with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, got {2**64}$"):
            SimConfig(trials=10, seed=2**64)
        # Philox would truncate a fractional seed without a word
        with pytest.raises(ValueError, match=r"^seed must be a 64-bit unsigned integer, got 1\.5$"):
            SimConfig(trials=10, seed=1.5)
        with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
            SimConfig(trials=10, seed=1, workers=0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError) as excinfo:
            SimEstimate(0.5, -0.1, 10)
        assert str(excinfo.value) == "std_error must be >= 0, got -0.1"
        with pytest.raises(ValueError, match="^std_error must be >= 0, got nan$"):
            SimEstimate(0.5, math.nan, 10)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = simulate_phishing(BASELINE, 26, SimConfig(trials=50_000, seed=7))
        b = simulate_phishing(BASELINE, 26, SimConfig(trials=50_000, seed=7))
        assert a == b

    def test_worker_count_invariance(self):
        # trials span several blocks; thread count must not change anything
        for workers in (2, 4):
            solo = simulate_phishing(BASELINE, 12, SimConfig(trials=100_000, seed=11, workers=1))
            multi = simulate_phishing(
                BASELINE, 12, SimConfig(trials=100_000, seed=11, workers=workers)
            )
            assert solo == multi

    def test_worker_invariance_discovery_and_race(self):
        tester = PowerLawTester(6.0, 0.4)
        d1 = simulate_discovery(tester, 1.0, 5.0, SimConfig(trials=80_000, seed=3, workers=1))
        d2 = simulate_discovery(tester, 1.0, 5.0, SimConfig(trials=80_000, seed=3, workers=3))
        assert d1 == d2
        r1 = simulate_race(CLAMPED, [55.0], SimConfig(trials=80_000, seed=5, workers=1))
        r2 = simulate_race(CLAMPED, [55.0], SimConfig(trials=80_000, seed=5, workers=3))
        assert r1 == r2
        # the raw curve past its peak on day 441.8
        raw = PatchRaceScenario()
        r1 = simulate_race(raw, [600.0], SimConfig(trials=80_000, seed=5, workers=1))
        r2 = simulate_race(raw, [600.0], SimConfig(trials=80_000, seed=5, workers=3))
        assert r1 == r2

    def test_different_seeds_differ(self):
        a = simulate_phishing(BASELINE, 26, SimConfig(trials=50_000, seed=1))
        b = simulate_phishing(BASELINE, 26, SimConfig(trials=50_000, seed=2))
        assert a.undetected.mean != b.undetected.mean


class TestPhishingSimulation:
    def test_negative_messages_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            simulate_phishing(BASELINE, -1, SimConfig(trials=10, seed=1))
        assert str(excinfo.value) == "n must be >= 0, got -1"
        with pytest.raises(ValueError, match="^n must be >= 0, got nan$"):
            simulate_phishing(BASELINE, math.nan, SimConfig(trials=10, seed=1))

    def test_zero_messages(self):
        est = simulate_phishing(BASELINE, 0, SimConfig(trials=1000, seed=1))
        assert est.infection == SimEstimate(0.0, 0.0, 1000)
        assert est.no_alert == SimEstimate(1.0, 0.0, 1000)
        assert est.undetected == SimEstimate(0.0, 0.0, 1000)

    def test_matches_analytic_at_baseline_peak(self):
        est = simulate_phishing(BASELINE, 26, SimConfig(trials=1_000_000, seed=99))
        assert abs(est.undetected.mean - 0.2843621557555541) <= 4 * est.undetected.std_error


class TestDiscoverySimulation:
    def test_interval_preconditions(self):
        tester = PowerLawTester(6.0, 0.4)
        with pytest.raises(ValueError, match="t1 must be > 0"):
            simulate_discovery(tester, 0.0, 2.0, SimConfig(trials=10, seed=1))
        with pytest.raises(ValueError, match="^t1 must be > 0, got nan: the thinning"):
            simulate_discovery(tester, math.nan, 2.0, SimConfig(trials=10, seed=1))
        with pytest.raises(ValueError, match="exceed"):
            simulate_discovery(tester, 2.0, 2.0, SimConfig(trials=10, seed=1))

    @pytest.mark.parametrize("c, t1, t2, draws", [
        (1e5, 1.0, 53.0, "5.4e+10"),  # candidates: c x 16.4 per trial
        (6.0, 1.0, 1e6, "1.31e+11"),  # pieces: 4e6 per trial, never laid out
        (6.0, 1e-300, 53.0, "4.92e+124"),  # the first piece's majorant
        (6.0, 1.0, 1e308, "inf"),  # more pieces than the float range
        (1e308, 1.0, 5.0, "inf"),  # a candidate sum past the float range, without a warning
    ])
    def test_work_past_the_limit_is_refused_before_any_draw(self, c, t1, t2, draws, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(montecarlo, "_map_blocks", no_draws)
        message = (f"the discovery oracle would draw at least {draws} values per 32768-trial "
                   f"block at c = {c}, t1 = {t1}, t2 = {t2}, past its limit of 67108864")
        with pytest.raises(DrawLimitError, match=f"^{re.escape(message)}$"):
            simulate_discovery(PowerLawTester(c, 0.4), t1, t2, SimConfig(trials=10, seed=1))

    @pytest.mark.parametrize("preset", list_bundled())
    def test_bundled_testers_pass_the_limit_on_the_default_interval(self, preset, monkeypatch):
        # fast_ai asks for the most, about 3.9e7 draws per block; no block is drawn here
        monkeypatch.setattr(montecarlo, "_map_blocks", lambda cfg, fn: [np.zeros(1, np.int64)])
        tester = load_preset(preset).tester
        assert simulate_discovery(tester, 1.0, 53.0, SimConfig(trials=1, seed=1)).mean == 0.0

    def test_single_trial_has_zero_std_error(self):
        est = simulate_discovery(PowerLawTester(6.0, 0.4), 1.0, 2.0, SimConfig(trials=1, seed=1))
        assert est.std_error == 0.0
        assert est.trials == 1

    def test_tester_too_slow_to_draw_a_candidate(self):
        est = simulate_discovery(PowerLawTester(1e-12, 0.4), 1.0, 2.0, SimConfig(trials=100, seed=1))
        assert est == SimEstimate(0.0, 0.0, 100)

    def test_doubling_rate_doubles_mean(self):
        cfg = SimConfig(trials=20_000, seed=12)
        single = simulate_discovery(PowerLawTester(3.0, 0.5), 1.0, 6.0, cfg)
        double = simulate_discovery(PowerLawTester(6.0, 0.5), 1.0, 6.0, cfg)
        tolerance = 4.0 * (double.std_error + 2.0 * single.std_error)
        assert abs(double.mean - 2.0 * single.mean) <= tolerance

    @pytest.mark.parametrize(
        "tester, t1, t2", [(PowerLawTester(2.0, 0.0), 1.0, 11.0), (PowerLawTester(6.0, 0.4), 1.0, 9.0)]
    )
    def test_count_variance_equals_its_mean(self, tester, t1, t2):
        # a thinned Poisson process gives Poisson counts, whose variance is
        # their mean; the bound is 4 standard errors of a Poisson sample
        # variance, sqrt((2 mu^2 + mu) / n). Seed 2311 was fixed before the first run.
        trials = 20_000
        est = simulate_discovery(tester, t1, t2, SimConfig(trials=trials, seed=2311))
        variance = est.std_error**2 * trials
        bound = 4.0 * math.sqrt((2.0 * est.mean**2 + est.mean) / trials)
        assert abs(variance - est.mean) <= bound

    def test_flat_rate_matches_poisson_mean(self):
        est = simulate_discovery(PowerLawTester(2.0, 0.0), 1.0, 11.0, SimConfig(trials=20_000, seed=8))
        assert abs(est.mean - 20.0) <= 4 * est.std_error


class TestRaceSimulation:
    def test_raw_curve_runs(self):
        est = simulate_race(PatchRaceScenario(), [55.0, 600.0], SimConfig(trials=10, seed=1))
        assert [e.trials for e in est] == [10, 10]

    def test_probe_zero_is_never_exploitable(self):
        est = simulate_race(CLAMPED, [0.0], SimConfig(trials=50_000, seed=2))[0]
        assert est.mean == 0.0

    def test_pure_exponential_survival(self):
        s = PatchRaceScenario(
            exploit=ExploitCurveParams(clamp_monotone=True),
            instant_dev=True,
            instant_exploit=True,
        )
        est = simulate_race(s, [144.0], SimConfig(trials=200_000, seed=21))[0]
        assert abs(est.mean - math.exp(-1.0)) <= 4 * est.std_error

    def test_flat_clamped_curve_matches_analytic(self):
        # growth exponent 0: every exploit that ever arrives is there at day 0;
        # seed 7101 was fixed before the first run
        s = PatchRaceScenario(
            exploit=ExploitCurveParams(amplitude=0.2, growth_exponent=0.0, clamp_monotone=True)
        )
        est = simulate_race(s, [55.0], SimConfig(trials=200_000, seed=7101))[0]
        assert abs(est.mean - exploitable_fraction(s, 55.0)) <= 4 * est.std_error

    @pytest.mark.parametrize("probe", [0.0, 55.0])
    def test_flat_raw_curve_matches_analytic(self, probe):
        # growth exponent 0 on the raw curve: 0**0 is 1, as in
        # exploit_availability, so the curve starts at its amplitude on day 0
        # and then decays; seed 7102 was fixed before the first run
        s = PatchRaceScenario(exploit=ExploitCurveParams(amplitude=0.2, growth_exponent=0.0))
        est = simulate_race(s, [probe], SimConfig(trials=200_000, seed=7102))[0]
        assert est.mean > 0.0
        assert abs(est.mean - exploitable_fraction(s, probe)) <= 4 * est.std_error

    @pytest.mark.parametrize(
        "dev, seed",
        [(WeibullParams(0.57, 18.2), 4411), (WeibullParams(2.0, 60.0), 4412)],
        ids=["baseline", "k=2-lambda=60"],
    )
    def test_raw_curve_past_its_peak_matches_analytic(self, dev, seed):
        # the raw curve peaks on day 441.8 and then declines; the threshold
        # test samples it on every day. Seeds 4411 and 4412 were fixed before
        # the first run.
        s = PatchRaceScenario(dev=dev)
        probes = [441.0, 600.0, 729.0]
        ests = simulate_race(s, probes, SimConfig(trials=400_000, seed=seed))
        for probe, est in zip(probes, ests):
            assert abs(exploitable_fraction(s, probe) - est.mean) <= 4 * est.std_error, probe

    def test_curve_where_the_power_overflows_matches_analytic(self):
        # t**800 overflows past day 2.4, so A(2.75) is taken in logs; seed 3301
        # was fixed before the first run
        s = PatchRaceScenario(exploit=ExploitCurveParams(0.5, 800.0, 800.0 / math.e))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_race(s, [2.75], SimConfig(trials=200_000, seed=3301))[0]
        assert abs(est.mean - exploitable_fraction(s, 2.75)) <= 4 * est.std_error

    @pytest.mark.parametrize("s, seed", [
        (PatchRaceScenario(dev=WeibullParams(1e-6, 18.2)), 3401),
        (PatchRaceScenario(dep=DeploymentParams(5e-324)), 3402),
    ], ids=["k-1e-6", "beta-5e-324"])
    def test_delay_that_overflows_to_inf_is_silent_and_matches_analytic(self, s, seed):
        # the development power or the deployment quotient overflows to an
        # infinite delay, which is exact: unpatched past every probe. Seeds
        # 3401 and 3402 were fixed before the first run.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = simulate_race(s, [55.0, 365.0], SimConfig(trials=200_000, seed=seed))
        for probe, est in zip([55.0, 365.0], ests):
            assert abs(exploitable_fraction(s, probe) - est.mean) <= 4 * est.std_error, probe

    def test_negative_probe_rejected(self):
        with pytest.raises(ValueError, match=r"^probe time must be >= 0, got -5\.0$"):
            simulate_race(CLAMPED, [-5.0], SimConfig(trials=10, seed=1))

    def test_nan_probe_rejected(self):
        with pytest.raises(ValueError, match="^probe time must be >= 0, got nan$"):
            simulate_race(CLAMPED, [55.0, math.nan], SimConfig(trials=10, seed=1))


class TestRegressionSuite:
    # The golden rows were written once, floats as repr(float(x)), from
    # run_regression_suite(trials=2000) before the oracle was simplified; they
    # are never regenerated. Equality is exact: same draws, same closed forms.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_match_golden_bit_for_bit(self, workers):
        with open(ORACLE_GOLDEN, encoding="utf-8", newline="") as fh:
            golden = list(csv.reader(fh))
        got = [["case", "quantity", "analytic", "mean", "std_error"]] + [
            [
                row.case,
                row.quantity,
                repr(float(row.analytic)),
                repr(row.estimate.mean),
                repr(row.estimate.std_error),
            ]
            for row in run_regression_suite(trials=2000, workers=workers)
        ]
        assert got == golden

    def test_oracle_script_reports_every_case_agreeing(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_oracle_suite.py"), "--trials", "2000"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "20 cases, 36 checks, 0 outside 4 standard errors"
