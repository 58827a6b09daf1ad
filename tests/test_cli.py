import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cybermodels import cli, patchrace, vulndisc
from cybermodels.cli import main
from cybermodels.scenario import resolve_scenario
from cybermodels.series import rows_to_csv

DATA = Path(__file__).resolve().parent.parent / "data"
# the committed golden files, not the CLI, say which figures exist
FIGURE_NAMES = sorted(
    path.stem for path in (Path(__file__).resolve().parent / "golden" / "figures").glob("*.csv")
)

# columns that hold counts/axes rather than probabilities, per figure CSV
NON_PROBABILITY_COLUMNS = {
    "n",
    "t",
    "week",
    "human_bug_bounty",
    "black_box_fuzzer",
    "fast_ai",
    "creative_ai",
    "total_vulnerabilities",
    "exploited",
    "implied_unexploited",
    "residual",
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cell(v):
    try:
        return float(v)
    except ValueError:
        return v


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [[_cell(v) for v in row] for row in body]


class TestPhishingCommand:
    def test_sweep_columns_and_peak_row(self, capsys):
        code, out, _ = run_cli(["phishing", "--scenario", "baseline.scn", "--sweep", "200"], capsys)
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["n", "p_infection", "p_no_alert", "p_undetected"]
        assert len(body) == 201
        row26 = body[26]
        assert row26[0] == 26
        assert row26[3] == pytest.approx(0.28, abs=0.01)

    def test_invalid_sweep_exits_1(self, capsys):
        code, out, err = run_cli(["phishing", "--sweep", "0"], capsys)
        assert (code, out, err) == (1, "", "error: --sweep must be >= 1, got 0\n")


class TestOutput:
    """``main`` is the one writer: each kind of table reaches stdout and
    ``--out`` as the same bytes."""

    @pytest.mark.parametrize("args", [
        ["phishing", "--sweep", "5"],
        ["vulndisc", "--weeks", "3"],
        ["patchrace", "--summary"],
        ["fit", "--kind", "weibull", "--data", str(DATA / "patch_dev_reference.csv")],
        ["simulate", "--kind", "phishing", "--trials", "2000"],
    ], ids=["phishing", "vulndisc", "patchrace-summary", "fit-weibull", "simulate-phishing"])
    def test_out_file(self, args, tmp_path, capsys):
        code, stdout, _ = run_cli(args, capsys)
        assert code == 0
        out = tmp_path / "table.csv"
        code, written, _ = run_cli([*args, "--out", str(out)], capsys)
        assert (code, written) == (0, "")
        assert out.read_bytes() == stdout.encode("utf-8")


class TestVulndiscCommand:
    def test_weeks_validation_message(self, capsys):
        code, out, err = run_cli(["vulndisc", "--scenario", "fuzzer.scn", "--weeks", "0"], capsys)
        assert (code, out, err) == (1, "", "error: --weeks must be >= 1, got 0\n")

    def test_weekly_table(self, capsys):
        code, out, _ = run_cli(["vulndisc", "--scenario", "human_bug_bounty.scn", "--weeks", "3"], capsys)
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["week", "discoveries", "cumulative"]
        assert body[0][1] == pytest.approx(10.0, abs=1e-9)
        assert body[2][2] == pytest.approx(body[0][1] + body[1][1] + body[2][1], rel=1e-9)


    def test_count_past_the_float_range_exits_1_naming_the_week_and_c(self, tmp_path, capsys):
        # week 1 holds 1.67e308 and week 2 8.6e307: their sum passes the float range
        scn = tmp_path / "c.scn"
        scn.write_text("[vulndisc]\nc = 1e308\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["vulndisc", "--weeks", "5", "--scenario", str(scn)], capsys)
            assert (code, out) == (1, "")
            assert err == (f"error: {scn}: cumulative discoveries pass the float range at "
                           "week 2; c = 1e+308 is too large\n")
            code, out, err = run_cli(["vulndisc", "--weeks", "1", "--scenario", str(scn)], capsys)
        assert (code, err) == (0, "")
        assert parse_csv(out)[1] == [[1.0, 1.66666666667e308, 1.66666666667e308]]


class TestPatchraceCommand:
    def test_summary_row(self, capsys):
        code, out, _ = run_cli(["patchrace", "--summary"], capsys)
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["peak_time_days", "peak_fraction", "fraction_at_1yr"]
        peak_time, peak_fraction, at_1yr = body[0]
        assert peak_time == pytest.approx(55.0, abs=10.0)
        assert peak_fraction == pytest.approx(0.41, abs=0.01)
        assert at_1yr == pytest.approx(0.085, abs=0.005)

    def test_summary_when_day_365_is_off_grid(self, tmp_path, capsys):
        # on the 0.45-day grid the last node before day 365 (364.95) holds
        # 0.276584962, below the exact 1-year value 0.276584969
        scn = tmp_path / "slow_deploy.scn"
        scn.write_text(
            "[patchrace]\nbeta_per_day = 0.00001\nA = 0.05\nb = 0.000945775\n"
            "grid_step_days = 0.45\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(["patchrace", "--summary", "--scenario", str(scn)], capsys)
        assert code == 0, err
        (peak_time, peak_fraction, at_1yr), = parse_csv(out)[1]
        assert peak_time == 365
        assert peak_fraction == at_1yr == pytest.approx(0.276584969, abs=1e-9)

    def test_coarse_grid_prints_one_notice_and_the_same_csv(self, tmp_path, capsys):
        scn = tmp_path / "coarse.scn"
        scn.write_text("[patchrace]\ngrid_step_days = 2\n", encoding="utf-8")
        code, out, err = run_cli(["patchrace", "--summary", "--scenario", str(scn)], capsys)
        assert code == 0
        assert err == (
            "notice: grid step 2.0 days is coarse; the peak is only located to grid resolution\n"
        )
        s = patchrace.race_summary(resolve_scenario(str(scn)).race)
        assert out == rows_to_csv(
            ["peak_time_days", "peak_fraction", "fraction_at_1yr"],
            [[s.peak_time, s.peak_fraction, s.fraction_at_1yr]],
        )
        code, _, err = run_cli(["patchrace", "--summary"], capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("summary", [[], ["--summary"]], ids=["sweep", "summary"])
    def test_development_cdf_overflowing_to_1_prints_nothing_on_stderr(
            self, summary, tmp_path, capsys):
        # (t / 18.2)**1000 overflows to inf past day 37, where the CDF is exactly 1
        scn = tmp_path / "k.scn"
        scn.write_text("[patchrace]\nk = 1000\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["patchrace", *summary, "--scenario", str(scn)], capsys)
        assert (code, err) == (0, "")
        if not summary:
            header, body = parse_csv(out)
            assert body[-1][header.index("patch_dev_cdf")] == 1.0

    @pytest.mark.parametrize("summary", [[], ["--summary"]], ids=["sweep", "summary"])
    def test_exploit_curve_whose_power_overflows_prints_nothing_on_stderr(
            self, summary, tmp_path, capsys):
        # peak exactly 0.5 on day 2.72; t**800 overflows past day 2.4
        scn = tmp_path / "a.scn"
        scn.write_text(f"[patchrace]\nA = 0.5\na = 800\nb = {800 / math.e!r}\n",
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["patchrace", *summary, "--scenario", str(scn)], capsys)
        assert (code, err) == (0, "")
        if summary:
            assert parse_csv(out)[1][0][0] == 2.75

    @pytest.mark.parametrize("summary", [[], ["--summary"]], ids=["sweep", "summary"])
    def test_deploy_rate_whose_step_product_underflows_prints_nothing_on_stderr(
            self, summary, tmp_path, capsys):
        # 5e-324 per day times the 0.25-day step rounds to 0
        scn = tmp_path / "beta.scn"
        scn.write_text("[patchrace]\nbeta_per_day = 5e-324\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["patchrace", *summary, "--scenario", str(scn)], capsys)
        assert (code, err) == (0, "")
        if summary:
            assert parse_csv(out)[1][0][0] == 441.75

    @pytest.mark.parametrize("command", [
        ["patchrace", "--summary"],
        ["simulate", "--kind", "race", "--trials", "100"],
    ], ids=["patchrace", "simulate"])
    def test_overflowing_peak_value_exits_1(self, command, tmp_path, capsys):
        scn = tmp_path / "peak.scn"
        scn.write_text("[patchrace]\nA = 1e-300\na = 100\nb = 1e-5\n", encoding="utf-8")
        code, out, err = run_cli([*command, "--scenario", str(scn)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {scn}: exploit curve peak value inf is outside [0, 1]; "
            "availability must stay a probability\n"
        )

    @pytest.mark.parametrize("summary", [[], ["--summary"]], ids=["sweep", "summary"])
    def test_grid_of_too_many_nodes_exits_1_naming_the_file(self, summary, tmp_path, capsys):
        scn = tmp_path / "huge.scn"
        scn.write_text("[patchrace]\ngrid_stop_days = 1e30\n", encoding="utf-8")
        code, out, err = run_cli(["patchrace", *summary, "--scenario", str(scn)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {scn}: grid stop (1e+30) at step (0.25) gives more than 10000000 nodes\n"
        )

    def test_sweep_columns(self, capsys):
        code, out, _ = run_cli(
            ["patchrace", "--scenario", "default.scn"], capsys
        )
        assert code == 0
        header, _ = parse_csv(out)
        assert header == [
            "t",
            "patch_dev_cdf",
            "patch_dep_cdf",
            "patched_fraction",
            "exploit_availability",
            "exploitable_fraction",
        ]


class TestFitCommand:
    def test_weibull_fit_from_file(self, tmp_path, capsys):
        data = Path(__file__).resolve().parent.parent / "data" / "patch_dev_reference.csv"
        code, out, _ = run_cli(["fit", "--kind", "weibull", "--data", str(data)], capsys)
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["k", "lambda_days", "residual", "iterations", "converged"]
        assert body[0][0] == pytest.approx(0.57, rel=0.01)
        assert body[0][1] == pytest.approx(18.2, rel=0.01)
        assert body[0][4] == "true"

    def test_exploit_total_fit(self, capsys):
        data = Path(__file__).resolve().parent.parent / "data" / "exploit_delay_reference.csv"
        code, out, _ = run_cli(["fit", "--kind", "exploit-total", "--data", str(data)], capsys)
        assert code == 0
        header, body = parse_csv(out)
        assert header[:3] == ["total", "exploited", "unexploited"]
        assert body[0][0] == pytest.approx(239.77, abs=0.5)
        assert body[0][2] == pytest.approx(79.77, abs=0.5)

    def test_missing_data_file_exits_1(self, capsys):
        code, _, err = run_cli(["fit", "--kind", "weibull", "--data", "/no/such.csv"], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_malformed_csv_exits_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,fraction\n1,0.2\nbroken\n", encoding="utf-8")
        code, _, err = run_cli(["fit", "--kind", "weibull", "--data", str(bad)], capsys)
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("kind,text,cell", [
        ("weibull", "t,fraction\n1,0.2\nnan,0.3\n2,0.5\n3,0.7\n", "t='nan'"),
        ("exploit-total", "bin_start,bin_end,count\n0,10,5\n10,inf,3\n", "bin_end='inf'"),
    ], ids=["weibull", "exploit-total"])
    def test_non_finite_input_exits_1_naming_the_line(self, kind, text, cell, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["fit", "--kind", kind, "--data", str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert f"line 3: {cell} is not finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_missing_scenario_exits_1(self, capsys):
        code, _, err = run_cli(
            ["patchrace", "--scenario", "/missing/file.scn", "--summary"], capsys
        )
        assert code == 1
        assert "scenario" in err


class TestSimulateCommand:
    def test_phishing_estimates_with_metadata(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--kind", "phishing", "--n", "26", "--trials", "20000", "--seed", "9"],
            capsys,
        )
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["quantity", "mean", "std_error", "trials", "seed", "rng"]
        assert len(body) == 3

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--kind", "race", "--trials", "30000", "--probe", "55"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_race_samples_the_raw_curve_silently(self, tmp_path, capsys):
        # on or before the peak on day 441.8 the raw and the clamped curve agree,
        # so the two scenarios draw the same estimates
        args = ["simulate", "--kind", "race", "--trials", "2000",
                "--probe", "55", "--probe", "441"]
        code, raw, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        scn = tmp_path / "clamped.scn"
        scn.write_text("[patchrace]\nclamp_monotone = true\n", encoding="utf-8")
        code, clamped, err = run_cli([*args, "--scenario", str(scn)], capsys)
        assert (code, err) == (0, "")
        assert raw == clamped

    @pytest.mark.parametrize(
        "kind, extra", [("phishing", []), ("discovery", ["--t2", "9"]), ("race", [])]
    )
    def test_workers_override_keeps_stdout(self, kind, extra, capsys):
        # 70000 trials make three blocks, so two workers really share them
        args = ["simulate", "--kind", kind, "--trials", "70000", *extra]
        code, solo, _ = run_cli([*args, "--workers", "1"], capsys)
        assert code == 0
        code, pooled, _ = run_cli([*args, "--workers", "2"], capsys)
        assert code == 0
        assert pooled == solo

    @pytest.mark.parametrize("flag,message", [
        ("--trials", "trials must be >= 1, got 0"),
        ("--workers", "workers must be >= 1, got 0"),
        ("--seed", "seed must be a 64-bit unsigned integer, got -1"),
    ], ids=["trials", "workers", "seed"])
    def test_override_out_of_range_exits_1(self, flag, message, capsys):
        value = "-1" if flag == "--seed" else "0"
        code, out, err = run_cli(["simulate", "--kind", "phishing", flag, value], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("args,message", [
        (["--kind", "phishing", "--n", "-1"], "n must be >= 0, got -1"),
        (["--kind", "race", "--probe", "-5"], "probe time must be >= 0, got -5.0"),
        (["--kind", "discovery", "--t1", "-1e5"],
         "t1 must be > 0, got -100000.0: the thinning majorant (and, for difficulty "
         "exponents >= 1, the expected count itself) diverges at 0"),
        (["--kind", "race", "--pro", "-1e5"], "probe time must be >= 0, got -100000.0"),
    ], ids=["n", "probe", "t1-negative", "probe-prefix-negative"])
    def test_model_argument_out_of_range_exits_1(self, args, message, capsys):
        code, out, err = run_cli(["simulate", *args, "--trials", "100"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("args,message", [
        (["--kind", "race", "--probe", "nan"], "argument --probe: 'nan' is not finite"),
        (["--kind", "race", "--probe", "inf"], "argument --probe: 'inf' is not finite"),
        (["--kind", "discovery", "--t2", "inf"], "argument --t2: 'inf' is not finite"),
        (["--kind", "discovery", "--t1", "nan"], "argument --t1: 'nan' is not finite"),
        (["--kind", "discovery", "--t1", "abc"], "argument --t1: 'abc' is not a number"),
        (["--kind", "race", "--probe", "-inf"], "argument --probe: '-inf' is not finite"),
        (["--kind", "race", "--probe=-inf"], "argument --probe: '-inf' is not finite"),
        (["--kind", "race", "--prob", "-inf"], "argument --probe: '-inf' is not finite"),
        (["--kind", "race", "--p", "-inf"], "argument --probe: '-inf' is not finite"),
        # a prefix of two number flags is not joined; argparse names the clash
        (["--kind", "discovery", "--t", "-5"],
         "ambiguous option: --t could match --t1, --t2, --trials"),
    ], ids=["probe-nan", "probe-inf", "t2-inf", "t1-nan", "t1-abc", "probe-minus-inf",
            "probe-equals-minus-inf", "probe-prefix-minus-inf", "p-prefix-minus-inf",
            "t-ambiguous-prefix"])
    def test_flag_number_must_be_finite(self, args, message, capsys):
        code, out, err = run_cli(["simulate", *args, "--trials", "100"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_discovery_simulation(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--kind", "discovery", "--scenario", "human_bug_bounty.scn",
                "--t1", "1", "--t2", "5", "--trials", "5000",
            ],
            capsys,
        )
        assert code == 0
        _, body = parse_csv(out)
        assert body[0][2] > 0  # mean count


class TestFiguresCommand:
    def test_all_figure_files_exist(self, figures_dir):
        for name in FIGURE_NAMES:
            path = figures_dir / f"{name}.csv"
            assert path.is_file(), name
            assert path.stat().st_size > 0, name

    def test_probability_columns_in_unit_interval(self, figures_dir):
        for name in FIGURE_NAMES:
            text = (figures_dir / f"{name}.csv").read_text(encoding="utf-8")
            header, body = parse_csv(text)
            assert body, name
            for j, col in enumerate(header):
                if col in NON_PROBABILITY_COLUMNS:
                    continue
                values = np.array([row[j] for row in body], dtype=float)
                assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12), (name, col)

    def test_round_trip_fit_recovers_generator(self, figures_dir, capsys):
        code, out, _ = run_cli(
            ["fit", "--kind", "weibull", "--data", str(figures_dir / "fig4.csv")], capsys
        )
        assert code == 0
        _, body = parse_csv(out)
        assert body[0][0] == pytest.approx(0.57, rel=0.01)
        assert body[0][1] == pytest.approx(18.2, rel=0.01)

    def test_one_run_makes_six_race_sweeps(self, tmp_path, monkeypatch):
        calls = []
        sweep = patchrace.race_sweep

        def counting_sweep(s):
            calls.append(s)
            return sweep(s)

        monkeypatch.setattr(patchrace, "race_sweep", counting_sweep)
        assert main(["figures", "--out", str(tmp_path)]) == 0
        # the baseline sweep, shared by fig6, fig8 and fig9a, plus five variants
        assert len(calls) == 6

    def test_one_run_makes_one_weekly_series_per_tester(self, tmp_path, monkeypatch):
        calls = []
        weekly = vulndisc.weekly_series

        def counting_weekly(tester, weeks):
            calls.append(weeks)
            return weekly(tester, weeks)

        monkeypatch.setattr(vulndisc, "weekly_series", counting_weekly)
        assert main(["figures", "--out", str(tmp_path)]) == 0
        # fig2a is the first year of fig2b, which covers 520 weeks
        assert calls == [520] * 4

    def test_one_run_parses_each_bundled_preset_once(self, tmp_path, monkeypatch):
        names = []
        load = cli.load_preset

        def counting_load(name):
            names.append(name)
            return load(name)

        monkeypatch.setattr(cli, "load_preset", counting_load)
        assert main(["figures", "--out", str(tmp_path)]) == 0
        # three phishing presets for fig1, four tester presets shared by fig2a and fig2b
        assert len(names) == len(set(names)) == 7

    def test_repeat_run_byte_identical(self, figures_dir, tmp_path):
        again = tmp_path / "figs2"
        assert main(["figures", "--out", str(again)]) == 0
        for name in FIGURE_NAMES:
            assert (again / f"{name}.csv").read_bytes() == (
                figures_dir / f"{name}.csv"
            ).read_bytes(), name

    def test_files_named_like_presets_in_the_working_directory_are_not_read(
        self, figures_dir, tmp_path, monkeypatch
    ):
        (tmp_path / "fuzzer.scn").write_text("[vulndisc]\nc = 1\n", encoding="utf-8")
        (tmp_path / "baseline.scn").write_text("[phishing]\np_click = 0.9\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "--out", "figs"]) == 0
        for name in FIGURE_NAMES:
            assert (tmp_path / "figs" / f"{name}.csv").read_bytes() == (
                figures_dir / f"{name}.csv"
            ).read_bytes(), name


class TestExitCodes:
    def test_unexpected_failure_exits_2(self, monkeypatch, capsys):
        def broken_sweep(s):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(cli.patchrace, "race_sweep", broken_sweep)
        code, out, err = run_cli(["patchrace"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("runtime error:")

    @pytest.mark.parametrize("args", [
        ["phishing", "--sweep", "5"],
        ["patchrace", "--summary"],
        ["figures"],
    ], ids=["series", "rows", "figures"])
    def test_failed_write_exits_2(self, args, tmp_path, capsys):
        if args == ["figures"]:  # a regular file where the directory should be
            out_path = tmp_path / "taken"
            out_path.write_text("", encoding="utf-8")
        else:
            out_path = tmp_path / "no_such_dir" / "out.csv"
        before = list(tmp_path.iterdir())
        code, out, err = run_cli([*args, "--out", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("runtime error:")
        assert list(tmp_path.iterdir()) == before  # no file was created

    @pytest.mark.parametrize("command,section,key,raw", [
        ("vulndisc", "vulndisc", "c", "inf"),
        ("patchrace", "patchrace", "grid_stop_days", "inf"),
        ("patchrace --summary", "patchrace", "beta_per_day", "inf"),
        ("phishing", "phishing", "p_click", "nan"),
    ], ids=["c-inf", "grid-stop-inf", "beta-inf", "p-click-nan"])
    def test_non_finite_scenario_number_exits_1(self, command, section, key, raw,
                                                 tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        code, out, err = run_cli([*command.split(), "--scenario", str(scn)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {scn}: line 2: key '{key}': '{raw}' is not finite\n"

    @pytest.mark.parametrize("args", [
        ["phishing", "--sweep", "0"],
        ["vulndisc", "--weeks", "0"],
        ["simulate", "--kind", "phishing", "--trials", "0"],
        ["fit", "--kind", "weibull", "--data", "nope.csv"],
    ], ids=["sweep-0", "weeks-0", "trials-0", "missing-data"])
    def test_bad_scenario_is_reported_before_any_other_input(self, args, tmp_path,
                                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([*args, "--scenario", "nope.scn"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: scenario file not found: nope.scn")

    def test_figures_takes_no_scenario_flag(self, capsys):
        code, out, err = run_cli(["figures", "--scenario", "baseline.scn"], capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --scenario" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(["explode"], capsys)
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestSharedParser:
    """The parser is built once per process; no call may leave state in it."""

    def test_main_never_rebuilds_the_parser(self, monkeypatch, capsys):
        def rebuild():
            raise AssertionError("the parser was rebuilt")

        monkeypatch.setattr(cli, "_build_parser", rebuild)
        assert run_cli(["phishing", "--sweep", "3"], capsys)[0] == 0

    def test_probe_list_does_not_leak_into_the_next_call(self, capsys):
        args = ["simulate", "--kind", "race", "--trials", "2000"]
        first = run_cli(args, capsys)
        assert first[0] == 0
        assert len(parse_csv(first[1])[1]) == 2
        code, out, _ = run_cli([*args, "--probe", "10"], capsys)
        assert code == 0
        assert [row[0] for row in parse_csv(out)[1]] == [10]
        assert run_cli(args, capsys) == first

    @pytest.mark.parametrize("before", [
        ["--help"],
        ["simulate", "--help"],
        ["phishing", "--sweep", "x"],
        ["phishing", "--sweep", "0"],
        ["simulate"],
        ["explode"],
    ], ids=["help", "subcommand-help", "bad-int", "sweep-0", "missing-kind", "unknown"])
    def test_help_or_failed_call_leaves_no_state(self, before, capsys):
        args = ["phishing", "--sweep", "3"]
        fresh = run_cli(args, capsys)
        assert fresh[0] == 0
        assert main(before) in (0, 1)
        capsys.readouterr()
        assert run_cli(args, capsys) == fresh
