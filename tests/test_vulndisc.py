import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermodels.montecarlo import SimConfig, simulate_discovery
from cybermodels.vulndisc import (
    ATTEMPTS,
    ATTEMPTS_TO_TIME,
    IDENTICAL,
    NEVER,
    TIME_TO_ATTEMPTS,
    UNBOUNDED,
    AttemptRate,
    PowerLawTester,
    convert_attempts_time,
    discovery_rate,
    expected_discoveries,
    rate_crossover,
    total_discoveries_limit,
    week_interval,
    weekly_series,
)

HUMAN = PowerLawTester(6.0, 0.4, label="human bug bounty")
FUZZER = PowerLawTester(85.5, 3.0, label="black-box fuzzer")
FAST_AI = PowerLawTester(60.0, 0.4, label="10x faster AI")
CREATIVE_AI = PowerLawTester(6.0, 0.04, label="10x more creative AI")


class TestTypes:
    @pytest.mark.parametrize("c,alpha", [(0.0, 0.4), (-1.0, 0.4), (6.0, -0.1), (6.0, math.nan)])
    def test_invalid_tester(self, c, alpha):
        if c <= 0:
            message = f"initial_rate must be > 0, got {c}"
        else:
            message = f"difficulty_exponent must be >= 0, got {alpha}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            PowerLawTester(c, alpha)

    def test_invalid_basis(self):
        with pytest.raises(ValueError, match="basis"):
            PowerLawTester(6.0, 0.4, basis="days")

    def test_invalid_attempt_rate(self):
        with pytest.raises(ValueError, match=r"^attempts_per_week must be > 0, got 0\.0$"):
            AttemptRate(0.0)


class TestDiscoveryRate:
    def test_rate_at_one_is_initial_rate(self):
        assert discovery_rate(HUMAN, 1.0) == 6.0

    def test_fuzzer_rate_halving_time(self):
        assert discovery_rate(FUZZER, 2.0) == pytest.approx(85.5 / 8.0, abs=1e-12)

    def test_creative_after_a_year(self):
        # 6 * 52**-0.04 at high precision
        assert discovery_rate(CREATIVE_AI, 52.0) == pytest.approx(5.12284383042896, abs=1e-10)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_undefined_at_nonpositive_time(self, t):
        with pytest.raises(ValueError) as excinfo:
            discovery_rate(HUMAN, t)
        assert str(excinfo.value) == f"t must be > 0, got {t}"

    @pytest.mark.parametrize("week", [0, np.array([[1, 0], [-1, 2]])], ids=["int", "2d"])
    def test_week_before_the_first_rejected(self, week):
        with pytest.raises(ValueError) as excinfo:
            week_interval(HUMAN, week)
        assert str(excinfo.value) == "week must be >= 1, got 0"


def decimal_expected(tester, t1, t2):
    """c/(1-alpha) * (t2**(1-alpha) - t1**(1-alpha)), c*ln(t2/t1) at alpha = 1,
    evaluated to 50 digits from the exact binary values of the inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        c, alpha = Decimal(tester.initial_rate), Decimal(tester.difficulty_exponent)
        t1, t2 = Decimal(t1), Decimal(t2)
        if alpha == 1:
            return c * (t2 / t1).ln()
        e = 1 - alpha

        def power(t):
            return (e * t.ln()).exp() if t else Decimal(0)

        return c / e * (power(t2) - power(t1))


class TestExpectedDiscoveries:
    @pytest.mark.parametrize("alpha", [0.0, 0.04, 0.4, 1.0, 3.0])
    def test_weekly_entries_match_decimal_reference(self, alpha):
        tester = PowerLawTester(FUZZER.initial_rate if alpha > 1 else 6.0, alpha)
        t1, t2 = week_interval(tester, np.arange(1, 521))
        ref = [float(decimal_expected(tester, a, b)) for a, b in zip(t1.tolist(), t2.tolist())]
        np.testing.assert_allclose(expected_discoveries(tester, t1, t2), ref, rtol=1e-14, atol=0)

    def test_human_first_week(self):
        assert expected_discoveries(HUMAN, 0.0, 1.0) == pytest.approx(10.0, abs=1e-9)

    def test_fuzzer_18_day_run(self):
        # closed form: 85.5/(1-3) * ((18/7)**-2 - 1); consistent with a 400-crash
        # run scaled by a 363/4000 crash-to-bug ratio (~36.3)
        assert expected_discoveries(FUZZER, 1.0, 18.0 / 7.0) == pytest.approx(
            36.284722222222, abs=1e-9
        )

    def test_logarithmic_case(self):
        assert expected_discoveries(PowerLawTester(6.0, 1.0), 1.0, math.e) == pytest.approx(
            6.0, abs=1e-12
        )

    def test_divergence_at_zero(self):
        with pytest.raises(ValueError, match="diverge"):
            expected_discoveries(FUZZER, 0.0, 1.0)
        with pytest.raises(ValueError, match="diverge"):
            expected_discoveries(PowerLawTester(5.0, 1.0), 0.0, 2.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            expected_discoveries(HUMAN, 2.0, 2.0)
        with pytest.raises(ValueError):
            expected_discoveries(HUMAN, -1.0, 2.0)

    def test_nan_start_is_named_before_the_interval(self):
        with pytest.raises(ValueError, match="^t1 must be >= 0, got nan$"):
            expected_discoveries(HUMAN, math.nan, 5.0)

    def test_continuous_across_alpha_one(self):
        # the true sensitivity is dS/d(alpha) = c/2 * (ln^2 t2 - ln^2 t1),
        # so at c=6 on [1,10] a 1e-7 exponent nudge moves S by ~1.6e-6
        at_one = expected_discoveries(PowerLawTester(6.0, 1.0), 1.0, 10.0)
        for eps in (1e-7, -1e-7):
            near = expected_discoveries(PowerLawTester(6.0, 1.0 + eps), 1.0, 10.0)
            assert abs(near - at_one) < 1e-5
        unit = expected_discoveries(PowerLawTester(1.0, 1.0), 1.0, 10.0)
        for eps in (1e-7, -1e-7):
            near = expected_discoveries(PowerLawTester(1.0, 1.0 + eps), 1.0, 10.0)
            assert abs(near - unit) < 1e-6

    @settings(max_examples=80, deadline=None)
    @given(
        c=st.floats(min_value=0.1, max_value=100),
        alpha=st.floats(min_value=0.0, max_value=3.0),
        t1=st.floats(min_value=0.1, max_value=20),
        d1=st.floats(min_value=0.1, max_value=20),
        d2=st.floats(min_value=0.1, max_value=20),
    )
    def test_additive_over_adjacent_intervals(self, c, alpha, t1, d1, d2):
        tester = PowerLawTester(c, alpha)
        t2, t3 = t1 + d1, t1 + d1 + d2
        whole = expected_discoveries(tester, t1, t3)
        split = expected_discoveries(tester, t1, t2) + expected_discoveries(tester, t2, t3)
        assert split == pytest.approx(whole, abs=1e-9 * max(1.0, whole))

    def test_count_that_fits_is_finite_where_c_times_t1_power_overflows(self):
        # 1e308 * 3**0.6 overflows from week 4, though every weekly count fits
        weeks = np.arange(1, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = expected_discoveries(PowerLawTester(1e308, 0.4), weeks - 1.0, weeks)
        unit = expected_discoveries(PowerLawTester(1.0, 0.4), weeks - 1.0, weeks)
        assert np.all(np.isfinite(huge))
        np.testing.assert_allclose(huge, 1e308 * unit, rtol=1e-15, atol=0)
        for week, value in zip(weeks, huge):  # a week alone gets the same bits
            assert expected_discoveries(PowerLawTester(1e308, 0.4), week - 1.0, week) == value

    @pytest.mark.parametrize("alpha, t1", [(0.4, 5e-324), (1.0, 5e-324), (3.0, 7e-155)])
    def test_count_that_fits_is_finite_at_a_tiny_start(self, alpha, t1):
        # (t2 - t1) / t1 overflows at 5e-324, and t1**-2 at 7e-155 (the count, 1.02e308, fits)
        tester = PowerLawTester(1.0, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = expected_discoveries(tester, t1, 1.0)
        assert value == pytest.approx(float(decimal_expected(tester, t1, 1.0)), rel=1e-12)

    @pytest.mark.parametrize("alpha, t1, t2", [(0.999, 0.0, 1.0), (1.0, 1.0, 100.0)])
    def test_count_past_the_float_range_is_inf_without_a_warning(self, alpha, t1, t2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_discoveries(PowerLawTester(1e308, alpha), t1, t2) == math.inf

    def test_rate_is_derivative_of_cumulative(self):
        tester = PowerLawTester(7.0, 0.8)
        t = 3.0
        err = []
        for h in (1e-3, 5e-4):
            fd = (
                expected_discoveries(tester, 1.0, t + h) - expected_discoveries(tester, 1.0, t)
            ) / h
            err.append(abs(fd - discovery_rate(tester, t)))
        assert err[1] < err[0]
        assert err[1] < 1e-3


class TestConversions:
    def test_time_to_attempts(self):
        assert convert_attempts_time(AttemptRate(100.0), 2.0, TIME_TO_ATTEMPTS) == 200.0

    def test_attempts_to_time(self):
        assert convert_attempts_time(AttemptRate(1000.0), 500.0, ATTEMPTS_TO_TIME) == 0.5

    @given(value=st.floats(min_value=0, max_value=1e9), eta=st.floats(min_value=0.01, max_value=1e6))
    def test_round_trip_identity(self, value, eta):
        rate = AttemptRate(eta)
        there = convert_attempts_time(rate, value, TIME_TO_ATTEMPTS)
        back = convert_attempts_time(rate, there, ATTEMPTS_TO_TIME)
        assert back == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            convert_attempts_time(AttemptRate(10.0), 1.0, "sideways")

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match=r"^value must be >= 0, got -1\.0$"):
            convert_attempts_time(AttemptRate(10.0), -1.0, TIME_TO_ATTEMPTS)


class TestTotalLimit:
    def test_fuzzer_saturates(self):
        assert total_discoveries_limit(FUZZER, 1.0) == pytest.approx(42.75, abs=1e-9)

    def test_creative_unbounded(self):
        assert total_discoveries_limit(HUMAN, 1.0) is UNBOUNDED

    def test_log_divergence_unbounded(self):
        assert total_discoveries_limit(PowerLawTester(3.0, 1.0), 1.0) is UNBOUNDED

    def test_start_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^t1 must be > 0, got 0\.0$"):
            total_discoveries_limit(FUZZER, 0.0)


class TestCrossover:
    def test_fuzzer_vs_human(self):
        # (85.5/6)**(1/2.6) at high precision
        assert rate_crossover(FUZZER, HUMAN) == pytest.approx(2.778273188543746, abs=1e-10)

    def test_parallel_curves_never_cross(self):
        assert rate_crossover(FAST_AI, HUMAN) is NEVER

    def test_identical_testers(self):
        assert rate_crossover(HUMAN, PowerLawTester(6.0, 0.4)) is IDENTICAL

    def test_mixed_bases_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            rate_crossover(HUMAN, PowerLawTester(6.0, 0.4, basis=ATTEMPTS))

    @settings(max_examples=50, deadline=None)
    @given(
        c_a=st.floats(min_value=0.5, max_value=200),
        c_b=st.floats(min_value=0.5, max_value=200),
        alpha_a=st.floats(min_value=0.0, max_value=1.0),
        gap=st.floats(min_value=0.05, max_value=2.0),
        factor=st.floats(min_value=1.1, max_value=50.0),
    )
    def test_lower_exponent_wins_after_crossover(self, c_a, c_b, alpha_a, gap, factor):
        a = PowerLawTester(c_a, alpha_a)
        b = PowerLawTester(c_b, alpha_a + gap)
        t_star = rate_crossover(a, b)
        t = t_star * factor
        assert discovery_rate(a, t) > discovery_rate(b, t)


class TestWeeklySeries:
    def test_human_first_week_and_additivity(self):
        series = weekly_series(HUMAN, 52)
        assert series.column("discoveries")[0] == pytest.approx(10.0, abs=1e-9)
        assert series.column("discoveries").sum() == pytest.approx(
            expected_discoveries(HUMAN, 0.0, 52.0), abs=1e-9
        )

    def test_fuzzer_fades_within_months(self):
        series = weekly_series(FUZZER, 52)
        weekly = series.column("discoveries")
        assert weekly[11] < 0.05  # under 0.05/week from week 12 on
        assert np.all(weekly[11:] < 0.05)

    def test_creative_outpaces_human_at_ten_years(self):
        creative = weekly_series(CREATIVE_AI, 520).column("discoveries")[519]
        human = weekly_series(HUMAN, 520).column("discoveries")[519]
        assert creative > human

    def test_weeks_validation(self):
        with pytest.raises(ValueError, match="^weeks must be >= 1, got 0$"):
            weekly_series(HUMAN, 0)


class TestAgainstSimulation:
    def test_ten_randomized_testers_within_four_sqrt_s(self):
        rng = np.random.default_rng(99)
        for case in range(10):
            tester = PowerLawTester(rng.uniform(1.0, 30.0), rng.uniform(0.0, 1.6))
            t1 = rng.uniform(0.5, 2.0)
            t2 = t1 + rng.uniform(1.0, 8.0)
            expected = expected_discoveries(tester, t1, t2)
            est = simulate_discovery(tester, t1, t2, SimConfig(trials=2000, seed=500 + case))
            assert abs(est.mean - expected) < 4.0 * math.sqrt(expected), (
                f"case {case}: expected {expected}, simulated {est.mean}"
            )
            # and the much tighter mean-level bound
            assert abs(est.mean - expected) <= 4.0 * est.std_error + 1e-9
