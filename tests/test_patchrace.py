import math
import warnings

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
        name, value = ("shape", shape) if shape <= 0 else ("scale_days", scale)
        with pytest.raises(ValueError, match=f"^{name} must be > 0, got {value}$"):
            WeibullParams(shape, scale)

    def test_invalid_deployment(self):
        with pytest.raises(ValueError, match=r"^rate_per_day must be > 0, got 0\.0$"):
            DeploymentParams(0.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    @pytest.mark.parametrize("field", ["amplitude", "growth_exponent", "decay_per_day"])
    def test_exploit_curve_field_must_be_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got {value}$"):
            ExploitCurveParams(**{field: value})

    def test_exploit_peak_must_stay_probability(self):
        with pytest.raises(ValueError, match="peak"):
            ExploitCurveParams(amplitude=2.0)
        with pytest.raises(ValueError, match="peak"):
            ExploitCurveParams(decay_per_day=0.0)  # unbounded growth

    def test_exploit_peak_location_and_value(self):
        e = ExploitCurveParams()
        assert e.peak_time == pytest.approx(0.349 / 7.90e-4)
        assert e.peak_value == pytest.approx(0.797883002813918, abs=1e-12)
        # a curve that never grows peaks at day 0 at its amplitude, decaying or not
        for decay in (0.0, 7.9e-4):
            flat = ExploitCurveParams(amplitude=0.7, growth_exponent=0.0, decay_per_day=decay)
            assert flat.peak_time == 0.0
            assert flat.peak_value == 0.7

    def test_peak_value_where_the_power_overflows(self):
        # peak_time**growth_exponent overflows in both; only the second peak does
        assert ExploitCurveParams(0.5, 800.0, 800.0 / math.e).peak_value == 0.5
        with pytest.raises(ValueError, match=r"^exploit curve peak value inf is outside"):
            ExploitCurveParams(1e-300, 100.0, 1e-5)

    def test_scenario_validation(self):
        with pytest.raises(
            ValueError, match=r"^pre_disclosure_patch_fraction must be in \[0, 1\], got 1\.5$"
        ):
            PatchRaceScenario(pre_disclosure_patch_fraction=1.5)
        with pytest.raises(ValueError, match=r"^deploy_speedup must be >= 1, got 0\.5$"):
            PatchRaceScenario(deploy_speedup=0.5)

    def test_race_grid_must_start_at_day_0(self):
        # a later start would drop the development mass before it
        with pytest.raises(ValueError, match=r"start at day 0, got start 10\.0$"):
            PatchRaceScenario(grid=Grid(10.0, 730.0, 0.25))

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
        with pytest.raises(ValueError) as excinfo:
            weibull_pdf(DEV, 0.0)
        assert str(excinfo.value) == "t must be > 0, got 0.0"
        with pytest.raises(ValueError, match="^t must be > 0, got nan$"):
            weibull_pdf(DEV, math.nan)

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
        with pytest.raises(ValueError, match=r"^pre_frac must be in \[0, 1\], got 1\.5$"):
            patch_developed_all_vulns(DEV, 1.5, 18.2)


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
        with pytest.raises(
            ValueError, match=r"^t=800\.0 lies outside the scenario grid \[0\.0, 730\.0\]$"
        ):
            patched_fraction(DEFAULT, 800.0)

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

    def test_deploy_rate_whose_step_product_underflows(self):
        # rate * step = 5e-324 * 0.25 rounds to 0: nothing is deployed on the grid
        s = PatchRaceScenario(dep=DeploymentParams(5e-324))
        assert patched_fraction(s, 10.0) == 0.0
        assert np.all(race_sweep(s).column("patched_fraction") == 0.0)
        summary = race_summary(s)  # the exploit curve alone, peaking on day 441.8
        assert summary.peak_time == 441.75
        assert summary.peak_fraction == exploit_availability(s.exploit, 441.75)

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

    # seeds and grids fixed before the first run; a miss is a finding, never
    # a reason to re-seed, add draws or widen the 4-SE rule
    SAMPLING_CASES = {
        "off_grid_100.1": (DEFAULT, (100.1,), 7001),
        "deploy_5x_day_10": (PatchRaceScenario(deploy_speedup=5.0), (10.0,), 7002),
        # at k = 0.05 the default 0.25-day grid is off by up to 4.5e-4, which
        # 10^6 draws resolve, so this case runs on a finer grid
        "k_0.05_grid_730/2^16": (
            PatchRaceScenario(dev=WeibullParams(0.05, 18.2), grid=Grid(0.0, 730.0, 730.0 / 2**16)),
            (30.0, 100.0, 365.0),
            7003,
        ),
        "k_20": (PatchRaceScenario(dev=WeibullParams(20.0, 18.2)), (20.0, 55.0, 365.0), 7004),
    }

    @pytest.mark.parametrize("case", sorted(SAMPLING_CASES))
    def test_kernel_matches_inverse_cdf_sampling(self, case):
        s, probes, seed = self.SAMPLING_CASES[case]
        rng = np.random.default_rng(seed)
        n = 1_000_000
        dev = s.dev.scale_days * (-np.log1p(-rng.random(n))) ** (1.0 / s.dev.shape)
        total = dev - np.log1p(-rng.random(n)) / s.effective_deploy_rate
        for t in probes:
            p_hat = float(np.mean(total <= t))
            se = math.sqrt(p_hat * (1.0 - p_hat) / n)
            assert abs(patched_fraction(s, t) - p_hat) <= 4.0 * se, (t, p_hat, se)

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

    def test_curve_whose_peak_is_1_stays_in_range_near_its_peak(self):
        # peak_value (** and math.exp) and the curve (np.power and np.exp)
        # differ in the last bit near the peak; the curve is capped at it
        a, b = 0.349, 7.9e-4
        amplitude = 1.0 / ((a / b) ** a * math.exp(-a))
        assert amplitude == 0.1691977389214853
        ts = np.linspace(a / b - 1e-6, a / b + 1e-6, 2001)
        for amp in (amplitude, np.nextafter(amplitude, 0.0)):
            e = ExploitCurveParams(amp, a, b)
            values = exploit_availability(e, ts)
            assert values.max() <= e.peak_value <= 1.0
        assert ExploitCurveParams(amplitude, a, b).peak_value == 1.0

    def test_infinite_time_still_fails_the_range_check(self):
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"^exploit availability nan at t=inf is outside \[0, 1\]"
        ):
            exploit_availability(ExploitCurveParams(), math.inf)

    def test_zero_amplitude_without_decay_is_valid_and_zero(self):
        e = ExploitCurveParams(amplitude=0.0, decay_per_day=0.0)
        assert e.peak_value == 0.0
        assert np.all(exploit_availability(e, np.array([0.0, 1.0, 1e9])) == 0.0)

    @pytest.mark.parametrize("curve, ts", [
        # peak exactly 0.5 on day 2.72; t**800 overflows past day 2.4, and on
        # the default grid inf * exp(-294 t) was nan from day 2.5
        ((0.5, 800.0, 800.0 / math.e), DEFAULT_GRID.nodes()),
        # t**2 overflows at t = 1e200, where the curve is about 0
        ((0.01, 2.0, 0.1), np.array([0.0, 55.0, 1e150, 1e200, 1e300])),
        # a zero amplitude without decay: 0 * t**800 was 0 * inf = nan past day 2.4
        ((0.0, 800.0, 0.0), DEFAULT_GRID.nodes()),
    ], ids=["a-800-default-grid", "t-1e200", "zero-amplitude-a-800"])
    def test_curve_where_the_power_overflows_is_taken_in_logs(self, curve, ts):
        amplitude, a, b = curve
        e = ExploitCurveParams(*curve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = exploit_availability(e, ts)
            scalars = [exploit_availability(e, t) for t in ts[-3:]]
        assert np.all(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))
        assert np.array_equal(values[-3:], scalars)
        with np.errstate(divide="ignore"):
            logs = np.exp(np.log(amplitude) + a * np.log(ts) - b * ts)
        # cells below the smallest normal float are compared absolutely
        np.testing.assert_allclose(values, logs, rtol=1e-12, atol=np.finfo(float).tiny)

    def test_default_curve_keeps_the_plain_product_bits(self):
        e = ExploitCurveParams()
        ts = DEFAULT_GRID.nodes()
        plain = e.amplitude * np.power(ts, e.growth_exponent) * np.exp(-e.decay_per_day * ts)
        assert np.array_equal(exploit_availability(e, ts), plain)


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
        with pytest.raises(
            ValueError, match=r"^race summary needs a grid covering \[0, 365\] days$"
        ):
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

    def test_coarse_grid_summary_raises_no_warning(self):
        # the coarse-grid notice is the CLI's; the summary itself stays pure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = race_summary(PatchRaceScenario(grid=Grid(0.0, 730.0, 2.0)))
        assert s.peak_time == 54.0
