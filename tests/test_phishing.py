import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermodels.montecarlo import SimConfig, simulate_phishing
from cybermodels.phishing import (
    CampaignPoint,
    PhishingParams,
    campaign_sweep,
    optimal_campaign,
    p_infection,
    p_no_alert,
    p_undetected,
)

BASELINE = PhishingParams(0.03, 0.015, 0.01)
AI_WRITER = PhishingParams(0.3, 0.005, 0.01)
AI_WRITER_DETECTOR = PhishingParams(0.3, 0.005, 0.25)

probabilities = st.floats(min_value=0.0, max_value=1.0)


class TestParams:
    @pytest.mark.parametrize("field", ["p_click", "p_human_alert", "p_machine_alert"])
    @pytest.mark.parametrize("bad", [-0.1, 1.1, 1.5])
    def test_out_of_range_rejected(self, field, bad):
        kwargs = {"p_click": 0.1, "p_human_alert": 0.1, "p_machine_alert": 0.1, field: bad}
        with pytest.raises(ValueError, match=rf"^{field} must be in \[0, 1\], got {bad}$"):
            PhishingParams(**kwargs)

    def test_combined_alert_probability(self):
        assert BASELINE.p_alert == pytest.approx(0.015 + 0.01 - 0.015 * 0.01)

    def test_campaign_point_product_invariant(self):
        with pytest.raises(ValueError, match="p_infection"):
            CampaignPoint(3, 0.5, 0.4, 0.3)

    def test_campaign_point_probability_text(self):
        with pytest.raises(ValueError, match=r"^p_infection must be in \[0, 1\], got 1\.5$"):
            CampaignPoint(3, 1.5, 0.4, 0.6)


class TestPointProbabilities:
    def test_infection_zero_messages(self):
        assert p_infection(PhishingParams(0.9, 0, 0), 0) == 0.0

    def test_infection_certain_click(self):
        assert p_infection(PhishingParams(1.0, 0, 0), 1) == 1.0

    def test_infection_baseline_26(self):
        # 1 - 0.97**26 at high precision
        assert p_infection(BASELINE, 26) == pytest.approx(0.5470345359032592, abs=1e-12)

    def test_no_alert_without_alert_channels(self):
        assert p_no_alert(PhishingParams(0.5, 0.0, 0.0), 37) == 1.0

    def test_no_alert_certain_human_report(self):
        assert p_no_alert(PhishingParams(0.5, 1.0, 0.0), 1) == 0.0

    def test_no_alert_baseline_26(self):
        # (1 - 0.02485)**26 at high precision
        assert p_no_alert(BASELINE, 26) == pytest.approx(0.5198248686182448, abs=1e-12)

    def test_undetected_is_product(self):
        assert p_undetected(BASELINE, 26) == pytest.approx(
            p_infection(BASELINE, 26) * p_no_alert(BASELINE, 26), abs=1e-15
        )

    def test_undetected_headline_values(self):
        assert p_undetected(BASELINE, 26) == pytest.approx(0.28, abs=0.01)
        assert p_undetected(AI_WRITER, 9) == pytest.approx(0.84, abs=0.005)
        assert p_undetected(AI_WRITER_DETECTOR, 2) == pytest.approx(0.28, abs=0.005)

    def test_negative_n_rejected(self):
        for fn in (p_infection, p_no_alert, p_undetected):
            with pytest.raises(ValueError) as excinfo:
                fn(BASELINE, -1)
            assert str(excinfo.value) == "n must be >= 0, got -1"

    def test_negative_campaign_size_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            CampaignPoint(-1, 0.0, 1.0, 0.0)
        assert str(excinfo.value) == "n_messages must be >= 0, got -1"
        with pytest.raises(ValueError, match="^n_messages must be >= 0, got nan$"):
            CampaignPoint(math.nan, 0.0, 1.0, 0.0)


class TestOptimalCampaign:
    def test_baseline_peak(self):
        point = optimal_campaign(BASELINE, 500)
        assert point.n_messages == 26
        assert point.p_undetected == pytest.approx(0.28, abs=0.01)

    def test_detector_peak_at_two(self):
        assert optimal_campaign(AI_WRITER_DETECTOR, 500).n_messages == 2

    def test_zero_click_ties_to_one_message(self):
        point = optimal_campaign(PhishingParams(0.0, 0.01, 0.01), 50)
        assert point.n_messages == 1
        assert point.p_undetected == 0.0

    def test_invalid_n_max(self):
        with pytest.raises(ValueError, match="^n_max must be >= 1, got 0$"):
            optimal_campaign(BASELINE, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        p_click=st.floats(min_value=0.001, max_value=0.9),
        p_h=st.floats(min_value=0.0, max_value=0.3),
        p_m=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_only_combined_alert_rate_matters(self, p_click, p_h, p_m):
        params = PhishingParams(p_click, p_h, p_m)
        merged = PhishingParams(p_click, params.p_alert, 0.0)
        assert optimal_campaign(params, 200).n_messages == optimal_campaign(merged, 200).n_messages


class TestSweep:
    def test_row_count_and_zero_row(self):
        sweep = campaign_sweep(BASELINE, 3)
        assert len(sweep) == 4
        assert sweep.column("p_undetected")[0] == 0.0
        assert sweep.column("p_no_alert")[0] == 1.0

    def test_sweep_max_matches_optimal(self):
        sweep = campaign_sweep(BASELINE, 200)
        best = optimal_campaign(BASELINE, 200)
        undet = sweep.column("p_undetected")
        assert int(sweep.column("n")[np.argmax(undet)]) == best.n_messages
        assert undet.max() == pytest.approx(best.p_undetected, abs=1e-15)

    def test_long_tail_value(self):
        # high-precision evaluation of (1-0.97^200)*(1-0.02485)^200
        sweep = campaign_sweep(BASELINE, 200)
        assert sweep.column("p_undetected")[200] == pytest.approx(0.006505817292908429, abs=1e-12)


class TestMonotonicityProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        p_click=probabilities,
        p_h=probabilities,
        p_m=probabilities,
        n=st.integers(min_value=0, max_value=80),
    )
    def test_monotone_in_n_and_bounded(self, p_click, p_h, p_m, n):
        params = PhishingParams(p_click, p_h, p_m)
        assert p_infection(params, n) <= p_infection(params, n + 1) + 1e-15
        assert p_no_alert(params, n) >= p_no_alert(params, n + 1) - 1e-15
        undet = p_undetected(params, n)
        assert undet <= p_infection(params, n) + 1e-15
        assert undet <= p_no_alert(params, n) + 1e-15

    @settings(max_examples=80, deadline=None)
    @given(
        lo=probabilities,
        hi=probabilities,
        p_h=probabilities,
        p_m=probabilities,
        n=st.integers(min_value=1, max_value=60),
    )
    def test_monotone_in_click_and_alert_rates(self, lo, hi, p_h, p_m, n):
        lo, hi = sorted((lo, hi))
        assert p_infection(PhishingParams(lo, 0, 0), n) <= p_infection(
            PhishingParams(hi, 0, 0), n
        ) + 1e-15
        assert p_no_alert(PhishingParams(0, lo, p_m), n) >= p_no_alert(
            PhishingParams(0, hi, p_m), n
        ) - 1e-15
        assert p_no_alert(PhishingParams(0, p_h, lo), n) >= p_no_alert(
            PhishingParams(0, p_h, hi), n
        ) - 1e-15


class TestAgainstSimulation:
    def test_twenty_randomized_cases_within_4se(self):
        # band uses the binomial standard error at the analytic probability:
        # the plug-in estimate degenerates to zero when every trial agrees
        rng = np.random.default_rng(2024)
        trials = 100_000
        for case in range(20):
            params = PhishingParams(
                rng.uniform(0.01, 0.5), rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)
            )
            n = int(rng.integers(1, 41))
            est = simulate_phishing(params, n, SimConfig(trials=trials, seed=3000 + case))
            for analytic, sim in (
                (p_infection(params, n), est.infection),
                (p_no_alert(params, n), est.no_alert),
                (p_undetected(params, n), est.undetected),
            ):
                se = np.sqrt(analytic * (1.0 - analytic) / trials)
                assert abs(analytic - sim.mean) <= 4 * se + 1e-12, (
                    f"case {case}: analytic {analytic} vs simulated {sim.mean} (se {se})"
                )
