import math

import numpy as np
import pytest

from cybermodels.numerics import Grid, integrate_trapezoid
from cybermodels.patchrace import (
    DEFAULT_GRID,
    DeploymentParams,
    ExploitCurveParams,
    PatchRaceScenario,
    RaceSummary,
    WeibullParams,
    exploit_availability,
    exploitable_fraction,
    patch_deployed_cdf,
    patch_developed_all_vulns,
    patch_developed_cdf,
    patched_fraction,
    race_summary,
    race_sweep,
    weibull_pdf,
)

DEV = WeibullParams(0.57, 18.2)
DEP = DeploymentParams(1.0 / 144.0)
DEFAULT = PatchRaceScenario()


class TestTypes:
    @pytest.mark.parametrize("shape,scale", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_invalid_weibull(self, shape, scale):
        with pytest.raises(ValueError):
            WeibullParams(shape, scale)

    def test_invalid_deployment(self):
        with pytest.raises(ValueError):
            DeploymentParams(0.0)

    def test_exploit_peak_must_stay_probability(self):
        with pytest.raises(ValueError, match="peak"):
            ExploitCurveParams(amplitude=2.0)
        with pytest.raises(ValueError, match="peak"):
            ExploitCurveParams(decay_per_day=0.0)  # unbounded growth

    def test_exploit_peak_location_and_value(self):
        e = ExploitCurveParams()
        assert e.peak_time == pytest.approx(0.349 / 7.90e-4)
        assert e.peak_value == pytest.approx(0.797883002813918, abs=1e-12)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="pre_disclosure"):
            PatchRaceScenario(pre_disclosure_patch_fraction=1.5)
        with pytest.raises(ValueError, match="deploy_speedup"):
            PatchRaceScenario(deploy_speedup=0.5)

    def test_race_summary_orders_fractions(self):
        with pytest.raises(ValueError):
            RaceSummary(peak_time=55.0, peak_fraction=0.1, fraction_at_1yr=0.2)


class TestDevelopment:
    def test_pdf_exponential_limit_near_zero(self):
        assert weibull_pdf(WeibullParams(1.0, 10.0), 1e-4) == pytest.approx(0.1, rel=1e-4)

    def test_pdf_at_scale(self):
        # (0.57/18.2) * e**-1 at high precision
        assert weibull_pdf(DEV, 18.2) == pytest.approx(0.011521498981743, abs=1e-12)

    def test_pdf_undefined_at_zero(self):
        with pytest.raises(ValueError, match="t > 0"):
            weibull_pdf(DEV, 0.0)

    def test_pdf_integrates_to_cdf_difference(self):
        val = integrate_trapezoid(lambda t: weibull_pdf(DEV, t), Grid(1.0, 100.0, 0.01))
        assert val == pytest.approx(
            patch_developed_cdf(DEV, 100.0) - patch_developed_cdf(DEV, 1.0), abs=1e-5
        )

    def test_cdf_normalizes(self):
        assert patch_developed_cdf(DEV, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_values(self):
        assert patch_developed_cdf(DEV, 0.0) == 0.0
        assert patch_developed_cdf(DEV, 18.2) == pytest.approx(-math.expm1(-1.0), abs=1e-12)
        assert patch_developed_cdf(DEV, 60.0) == pytest.approx(0.861073575037, abs=1e-9)

    def test_all_vulns_mixture(self):
        assert patch_developed_all_vulns(DEV, 0.78, 0.0) == pytest.approx(0.78)
        assert patch_developed_all_vulns(DEV, 0.78, 1e9) == pytest.approx(1.0, abs=1e-9)
        assert patch_developed_all_vulns(DEV, 0.78, 18.2) == pytest.approx(0.919066522942, abs=1e-9)


class TestDeployment:
    def test_half_adopted_near_100_days(self):
        assert patch_deployed_cdf(DEP, 100.0) == pytest.approx(0.500648211401, abs=1e-9)

    def test_zero_and_characteristic_time(self):
        assert patch_deployed_cdf(DEP, 0.0) == 0.0
        assert patch_deployed_cdf(DEP, 144.0) == pytest.approx(-math.expm1(-1.0), abs=1e-12)


class TestPatchedFraction:
    def test_zero_at_start(self):
        assert patched_fraction(DEFAULT, 0.0) == 0.0

    def test_instant_dev_reduces_to_deployment(self):
        s = PatchRaceScenario(instant_dev=True)
        assert patched_fraction(s, 100.0) == pytest.approx(0.500648211401, abs=1e-9)

    def test_default_one_year_value(self):
        assert patched_fraction(DEFAULT, 365.0) == pytest.approx(0.893, abs=0.02)
        # regression pin of the converged convolution value
        assert patched_fraction(DEFAULT, 365.0) == pytest.approx(0.8930866818, abs=1e-6)

    def test_outside_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            patched_fraction(DEFAULT, 731.0)
        with pytest.raises(ValueError, match="outside"):
            patched_fraction(DEFAULT, -1.0)

    def test_dominated_by_each_component(self):
        for t in np.linspace(0.0, 730.0, 74):
            patched = patched_fraction(DEFAULT, t)
            assert patched <= patch_developed_cdf(DEV, t) + 1e-12
            assert patched <= patch_deployed_cdf(DEP, t) + 1e-12

    def test_non_decreasing_and_approaches_one(self):
        ts = np.linspace(0.0, 730.0, 200)
        vals = [patched_fraction(DEFAULT, t) for t in ts]
        assert np.all(np.diff(vals) >= -1e-12)
        long_grid = PatchRaceScenario(grid=Grid(0.0, 3700.0, 0.5))
        assert patched_fraction(long_grid, 3650.0) > 0.99

    def test_grid_halving_converged(self):
        fine = PatchRaceScenario(grid=Grid(0.0, 730.0, 0.125))
        for t in (30.0, 55.0, 100.0, 365.0):
            assert abs(patched_fraction(DEFAULT, t) - patched_fraction(fine, t)) < 1e-3

    def test_deploy_speedup_multiplies_rate(self):
        s = PatchRaceScenario(instant_dev=True, deploy_speedup=5.0)
        assert patched_fraction(s, 20.0) == pytest.approx(
            -math.expm1(-5.0 * 20.0 / 144.0), abs=1e-12
        )

    def test_matches_inverse_cdf_sampling(self):
        # independent re-derivation: sample the two delays and compare at 5 probes
        rng = np.random.default_rng(42)
        n = 1_000_000
        dev = 18.2 * (-np.log1p(-rng.random(n))) ** (1.0 / 0.57)
        dep = -np.log1p(-rng.random(n)) * 144.0
        total = dev + dep
        for t in (30.0, 55.0, 100.0, 365.0, 700.0):
            p_hat = float(np.mean(total <= t))
            se = math.sqrt(p_hat * (1.0 - p_hat) / n)
            assert abs(patched_fraction(DEFAULT, t) - p_hat) <= 4.0 * se

    def test_total_delay_density_rises_then_falls(self):
        patched = race_sweep(DEFAULT).column("patched_fraction")
        density = np.diff(patched)
        slope_sign = np.sign(np.diff(density))
        changes = np.sum(np.diff(slope_sign[slope_sign != 0]) != 0)
        assert changes == 1


class TestExploitAvailability:
    def test_zero_at_zero(self):
        assert exploit_availability(ExploitCurveParams(), 0.0) == 0.0

    def test_baseline_value_at_55(self):
        # 0.135 * 55**0.349 * exp(-7.9e-4*55) at high precision
        assert exploit_availability(ExploitCurveParams(), 55.0) == pytest.approx(
            0.523419926211, abs=1e-9
        )

    def test_peak_value(self):
        e = ExploitCurveParams()
        assert exploit_availability(e, e.peak_time) == pytest.approx(0.797883002814, abs=1e-9)

    def test_raw_curve_declines_past_peak(self):
        e = ExploitCurveParams()
        assert exploit_availability(e, 2 * e.peak_time) < e.peak_value

    def test_clamped_curve_is_non_decreasing(self):
        e = ExploitCurveParams(clamp_monotone=True)
        ts = np.linspace(0.0, 4 * e.peak_time, 500)
        vals = [exploit_availability(e, t) for t in ts]
        assert np.all(np.diff(vals) >= -1e-15)
        assert exploit_availability(e, 2 * e.peak_time) == pytest.approx(e.peak_value)


class TestExploitableFraction:
    def test_headline_peak(self):
        summary = race_summary(DEFAULT)
        assert summary.peak_time == pytest.approx(55.0, abs=10.0)
        assert summary.peak_fraction == pytest.approx(0.41, abs=0.01)
        assert summary.fraction_at_1yr == pytest.approx(0.085, abs=0.005)

    def test_instant_exploit_starts_at_unpatched_fraction(self):
        s = PatchRaceScenario(instant_exploit=True)
        assert exploitable_fraction(s, 0.0) == pytest.approx(1.0)

    def test_instant_exploit_with_fast_deployment(self):
        s = PatchRaceScenario(instant_exploit=True, deploy_speedup=5.0)
        assert race_summary(s).fraction_at_1yr < 0.01

    def test_instant_dev_peak_contrast(self):
        # removing the development delay moves the peak from 0.4107 to 0.3599:
        # a ~5.1 point drop (cross-checked by the sampling oracle suite)
        base = race_summary(DEFAULT)
        instant = race_summary(PatchRaceScenario(instant_dev=True))
        assert base.peak_fraction == pytest.approx(0.4107198587, abs=1e-6)
        assert instant.peak_fraction == pytest.approx(0.3598725667, abs=1e-6)
        assert base.peak_fraction - instant.peak_fraction == pytest.approx(0.0508, abs=0.001)

    def test_bounded_by_both_factors(self):
        for t in np.linspace(0.0, 700.0, 36):
            frac = exploitable_fraction(DEFAULT, t)
            assert frac <= exploit_availability(DEFAULT.exploit, t) + 1e-12
            assert frac <= 1.0 - patched_fraction(DEFAULT, t) + 1e-12


class TestSweepAndSummary:
    def test_sweep_columns_are_probabilities(self):
        sweep = race_sweep(DEFAULT)
        for name in sweep.columns:
            if name == "t":
                continue
            col = sweep.column(name)
            assert np.all(col >= -1e-15) and np.all(col <= 1.0 + 1e-15), name

    def test_sweep_patched_non_decreasing(self):
        assert np.all(np.diff(race_sweep(DEFAULT).column("patched_fraction")) >= -1e-12)

    def test_sweep_exploitable_unimodal(self):
        expl = race_sweep(DEFAULT).column("exploitable_fraction")
        sign = np.sign(np.diff(expl))
        changes = np.sum(np.diff(sign[sign != 0]) != 0)
        assert changes == 1

    def test_summary_requires_full_year_grid(self):
        with pytest.raises(ValueError, match="365"):
            race_summary(PatchRaceScenario(grid=Grid(0.0, 200.0, 0.25)))

    def test_summary_peak_search_includes_day_365(self):
        s = PatchRaceScenario(
            dep=DeploymentParams(0.00001),
            exploit=ExploitCurveParams(amplitude=0.05, decay_per_day=0.000945775),
            grid=Grid(0.0, 730.0, 0.45),
        )
        grid_peak = race_sweep(s).column("exploitable_fraction").max()
        at_1yr = exploitable_fraction(s, 365.0)
        assert grid_peak < at_1yr  # day 365 is not a node and beats every node
        summary = race_summary(s)
        assert summary.peak_time == 365.0
        assert summary.peak_fraction == summary.fraction_at_1yr == at_1yr

    def test_coarse_grid_warns(self):
        with pytest.warns(UserWarning, match="coarse"):
            race_summary(PatchRaceScenario(grid=Grid(0.0, 730.0, 2.0)))
