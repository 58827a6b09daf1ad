import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybermodels.calibration import (
    CdfSample,
    DelayHistogram,
    estimate_beta,
    estimate_power_law_c,
    fit_exploit_total,
    fit_weibull_cdf,
    implied_unexploited,
    read_cdf_samples,
    read_delay_histogram,
    reference_exploit_histogram,
    reference_patch_dev_samples,
)
from cybermodels.patchrace import ExploitCurveParams, exploit_availability
from cybermodels.vulndisc import PowerLawTester, expected_discoveries

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"


def weibull_cdf_samples(shape, scale, ts):
    return [CdfSample(float(t), -math.expm1(-((t / scale) ** shape))) for t in ts]


class TestTypes:
    def test_cdf_sample_validation(self):
        with pytest.raises(ValueError, match=r"^t must be >= 0, got -1\.0$"):
            CdfSample(-1.0, 0.5)
        with pytest.raises(ValueError, match=r"^fraction must be in \[0, 1\], got 1\.5$"):
            CdfSample(1.0, 1.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_cdf_sample_rejects_non_finite_t(self, t):
        with pytest.raises(ValueError, match="finite"):
            CdfSample(t, 0.3)

    def test_histogram_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            DelayHistogram((0.0, 1.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="counts"):
            DelayHistogram((0.0, 1.0, 2.0), (1.0,))
        with pytest.raises(ValueError, match=">= 0"):
            DelayHistogram((0.0, 1.0), (-1.0,))
        with pytest.raises(ValueError, match="^need at least two bin edges$"):
            DelayHistogram((0.0,), ())

    @pytest.mark.parametrize("edge", [math.nan, math.inf])
    def test_histogram_rejects_non_finite_edges(self, edge):
        with pytest.raises(ValueError, match="bin edges must be finite"):
            DelayHistogram((0.0, 1.0, edge), (1.0, 2.0))


class TestFitWeibullCdf:
    def test_recovers_baseline_parameters(self):
        fit = fit_weibull_cdf(weibull_cdf_samples(0.57, 18.2, range(1, 121)))
        assert fit.converged
        assert fit.params[0] == pytest.approx(0.57, rel=0.01)
        assert fit.params[1] == pytest.approx(18.2, rel=0.01)

    def test_exponential_data_gives_shape_one(self):
        beta = 1.0 / 20.0
        samples = [CdfSample(float(t), -math.expm1(-beta * t)) for t in range(1, 80)]
        fit = fit_weibull_cdf(samples)
        assert fit.params[0] == pytest.approx(1.0, rel=0.02)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_weibull_cdf([CdfSample(1, 0.0), CdfSample(2, 1.0), CdfSample(3, 1.0)])

    def test_needs_interior_fractions(self):
        samples = [CdfSample(t, 0.0 if t < 3 else 1.0) for t in range(1, 6)]
        with pytest.raises(ValueError, match="inside"):
            fit_weibull_cdf(samples)

    def test_non_monotone_fractions_rejected(self):
        samples = [CdfSample(1, 0.2), CdfSample(2, 0.5), CdfSample(3, 0.4), CdfSample(4, 0.6)]
        with pytest.raises(ValueError, match="non-decreasing"):
            fit_weibull_cdf(samples)

    @settings(max_examples=15, deadline=None)
    @given(
        shape=st.floats(min_value=0.3, max_value=2.0),
        scale=st.floats(min_value=5.0, max_value=200.0),
    )
    def test_round_trip_randomized(self, shape, scale):
        ts = np.linspace(scale / 20, scale * 4, 60)
        fit = fit_weibull_cdf(weibull_cdf_samples(shape, scale, ts))
        assert fit.params[0] == pytest.approx(shape, rel=0.01)
        assert fit.params[1] == pytest.approx(scale, rel=0.01)


class TestEstimatePowerLawC:
    def test_fuzzer_initial_rate(self):
        assert estimate_power_law_c(36.3, 1.0, 18.0 / 7.0, 3.0) == pytest.approx(85.5, abs=1.0)

    def test_human_initial_rate(self):
        assert estimate_power_law_c(10.0, 0.0, 1.0, 0.4) == pytest.approx(6.0, abs=1e-9)

    def test_zero_count(self):
        assert estimate_power_law_c(0.0, 1.0, 5.0, 2.0) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"^s_count must be >= 0, got -1\.0$"):
            estimate_power_law_c(-1.0, 1.0, 5.0, 2.0)

    def test_divergent_configuration(self):
        with pytest.raises(ValueError, match="diverge"):
            estimate_power_law_c(10.0, 0.0, 1.0, 1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(min_value=0.0, max_value=1000.0),
        alpha=st.floats(min_value=0.0, max_value=3.0),
        t1=st.floats(min_value=0.1, max_value=10.0),
        span=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_inverts_expected_discoveries(self, s, alpha, t1, span):
        c = estimate_power_law_c(s, t1, t1 + span, alpha)
        if c == 0.0:
            # c underflows to zero only for denormal-scale counts
            assert s <= 1e-9
            return
        back = expected_discoveries(PowerLawTester(c, alpha), t1, t1 + span)
        assert back == pytest.approx(s, rel=1e-9, abs=1e-9)


class TestEstimateBeta:
    def test_half_within_100_days(self):
        beta = estimate_beta(100.0, 0.5)
        assert 1.0 / 145.0 <= beta <= 1.0 / 143.0

    def test_characteristic_time(self):
        assert estimate_beta(37.0, -math.expm1(-1.0)) == pytest.approx(1.0 / 37.0, rel=1e-12)

    def test_reference_time_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^t_ref must be > 0, got 0\.0$"):
            estimate_beta(0.0, 0.5)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.3])
    def test_fraction_domain(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            estimate_beta(100.0, fraction)


class TestFitExploitTotal:
    def test_reference_histogram_reproduces_totals(self):
        hist = reference_exploit_histogram()
        assert hist.total == pytest.approx(160.0, abs=1e-9)
        fit = fit_exploit_total(hist, ExploitCurveParams())
        assert fit.params[0] == pytest.approx(239.77, abs=0.5)
        assert implied_unexploited(fit, hist) == pytest.approx(79.77, abs=0.5)
        assert fit.residual < 1e-6 * hist.total

    def test_wider_support_shifts_total(self):
        # a single-bin histogram over [0, 1200] normalizes against the curve
        # value at 1200 days: 160 / 0.6212... = 257.55
        curve = ExploitCurveParams()
        fit = fit_exploit_total(DelayHistogram((0.0, 1200.0), (160.0,)), curve)
        assert fit.params[0] == pytest.approx(160.0 / exploit_availability(curve, 1200.0), rel=1e-12)
        assert fit.params[0] == pytest.approx(257.55, abs=0.01)

    def test_scaling_counts_scales_total(self):
        hist = reference_exploit_histogram()
        doubled = DelayHistogram(hist.bin_edges, tuple(2 * c for c in hist.counts))
        fit = fit_exploit_total(hist, ExploitCurveParams())
        fit2 = fit_exploit_total(doubled, ExploitCurveParams())
        assert fit2.params[0] == pytest.approx(2 * fit.params[0], rel=1e-12)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            fit_exploit_total(DelayHistogram((0.0, 10.0, 20.0), (0.0, 0.0)), ExploitCurveParams())

    def test_flat_curve_rejected(self):
        hist = DelayHistogram((0.0, 10.0, 20.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="^availability curve is flat across every bin$"):
            fit_exploit_total(hist, ExploitCurveParams(amplitude=0.0))

    def test_noise_free_proportional_residual_property(self):
        rng = np.random.default_rng(5)
        curve = ExploitCurveParams()
        for _ in range(20):
            n_bins = int(rng.integers(2, 12))
            edges = np.sort(rng.uniform(1.0, 400.0, n_bins + 1))
            edges[0] = 0.0
            vals = np.array([exploit_availability(curve, e) for e in edges])
            total = rng.uniform(50.0, 500.0)
            hist = DelayHistogram(tuple(edges), tuple(total * np.diff(vals)))
            fit = fit_exploit_total(hist, curve)
            assert fit.params[0] == pytest.approx(total, rel=1e-9)
            assert fit.residual < 1e-6 * hist.total


class TestCsvInput:
    def test_read_cdf_samples(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,fraction\n1,0.25\n2,0.5\n", encoding="utf-8")
        samples = read_cdf_samples(path)
        assert samples == [CdfSample(1.0, 0.25), CdfSample(2.0, 0.5)]

    def test_cdf_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,fraction,notes\n1,0.25,x\n", encoding="utf-8")
        assert read_cdf_samples(path) == [CdfSample(1.0, 0.25)]

    def test_cdf_bad_number_names_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,fraction\n1,0.25\n2,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: fraction='oops' is not a number$"):
            read_cdf_samples(path)

    def test_cdf_missing_column(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("time,fraction\n1,0.25\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'t'"):
            read_cdf_samples(path)

    def test_cdf_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,fraction\n1,0.25\n2,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            read_cdf_samples(path)

    def test_read_histogram(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start,bin_end,count\n0,10,5\n10,20,3\n", encoding="utf-8")
        hist = read_delay_histogram(path)
        assert hist.bin_edges == (0.0, 10.0, 20.0)
        assert hist.counts == (5.0, 3.0)

    def test_histogram_gap_names_line(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start,bin_end,count\n0,10,5\n11,20,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            read_delay_histogram(path)

    def test_comment_lines_count_in_line_numbers(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("# source\n# units: days\nt,fraction\n1,0.25\n2,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 5:"):
            read_cdf_samples(path)

    def test_blank_and_comment_rows_between_data_are_skipped(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,fraction\n1,0.25\n\n# note\n2,0.5\n", encoding="utf-8")
        assert read_cdf_samples(path) == [CdfSample(1.0, 0.25), CdfSample(2.0, 0.5)]
        path.write_text("t,fraction\n1,0.25\n\n# note\n2,0.5\n3,oops\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_cdf_samples(path)
        assert str(excinfo.value) == f"{path}: line 6: fraction='oops' is not a number"

    def test_empty_file_names_the_path(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_cdf_samples(path)
        assert str(excinfo.value) == f"{path}: empty file, expected a CSV header row"

    def test_header_only_histogram_has_no_rows(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start,bin_end,count\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_delay_histogram(path)
        assert str(excinfo.value) == f"{path}: no histogram rows"

    def test_histogram_error_names_the_path(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start,bin_end,count\n0,10,5\n10,20,-3\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_delay_histogram(path)
        assert str(excinfo.value) == f"{path}: counts must be finite and >= 0"

    def test_quoted_multiline_field_counts_its_lines(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            't,fraction,notes\n1,0.25,"two\nlines"\n2,0.5,x\n3,oops,x\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="line 5:"):
            read_cdf_samples(path)
        path.write_text('t,fraction,notes\n1,0.25,"two\nlines"\n2,0.5,x\n', encoding="utf-8")
        assert read_cdf_samples(path) == [CdfSample(1.0, 0.25), CdfSample(2.0, 0.5)]

    @pytest.mark.parametrize("read,text,cell", [
        (read_cdf_samples, "t,fraction\n1,0.25\nnan,0.3\n", "t='nan'"),
        (read_cdf_samples, "t,fraction\n1,0.25\ninf,0.3\n", "t='inf'"),
        (read_cdf_samples, "t,fraction\n1,0.25\n-inf,0.3\n", "t='-inf'"),
        (read_cdf_samples, "t,fraction\n1,0.25\n2,inf\n", "fraction='inf'"),
        (read_delay_histogram, "bin_start,bin_end,count\n0,10,5\n10,inf,3\n", "bin_end='inf'"),
        (read_delay_histogram, "bin_start,bin_end,count\n0,10,5\n10,20,nan\n", "count='nan'"),
    ], ids=["t-nan", "t-inf", "t-neg-inf", "fraction-inf", "bin-end-inf", "count-nan"])
    def test_non_finite_cell_names_line(self, tmp_path, read, text, cell):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 3: {cell} is not finite$"):
            read(path)

    def test_missing_file_is_value_error(self):
        with pytest.raises(ValueError, match="cannot read"):
            read_cdf_samples("/does/not/exist.csv")

    def test_field_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("t,fraction\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_cdf_samples(path)


class TestBundledReferenceData:
    def test_patch_dev_file_matches_generator(self):
        from_file = read_cdf_samples(DATA_DIR / "patch_dev_reference.csv")
        generated = reference_patch_dev_samples()
        assert len(from_file) == len(generated)
        for a, b in zip(from_file, generated):
            assert a.t == b.t
            assert a.fraction == pytest.approx(b.fraction, abs=1e-11)

    def test_exploit_file_matches_generator(self):
        from_file = read_delay_histogram(DATA_DIR / "exploit_delay_reference.csv")
        generated = reference_exploit_histogram()
        assert from_file.bin_edges == generated.bin_edges
        assert np.allclose(from_file.counts, generated.counts, atol=1e-9)

    def test_script_regenerates_data_byte_for_byte(self, tmp_path):
        (tmp_path / "scripts").mkdir()
        script = shutil.copy(ROOT / "scripts" / "make_reference_data.py", tmp_path / "scripts")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, check=False
        )
        assert result.returncode == 0, result.stderr
        for name in ("patch_dev_reference.csv", "exploit_delay_reference.csv"):
            assert (tmp_path / "data" / name).read_bytes() == (DATA_DIR / name).read_bytes()

    def test_fit_on_bundled_file(self):
        samples = read_cdf_samples(DATA_DIR / "patch_dev_reference.csv")
        fit = fit_weibull_cdf(samples)
        assert fit.params[0] == pytest.approx(0.57, rel=0.01)
        assert fit.params[1] == pytest.approx(18.2, rel=0.01)
