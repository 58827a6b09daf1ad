import csv
import io
from pathlib import Path

import numpy as np
import pytest

from cybermodels import patchrace
from cybermodels.cli import FIGURE_NAMES, main

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
        code, _, err = run_cli(["phishing", "--sweep", "0"], capsys)
        assert code == 1
        assert "--sweep" in err and ">= 1" in err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(["phishing", "--sweep", "5", "--out", str(out)], capsys)
        assert code == 0
        assert stdout == ""
        assert out.read_text(encoding="utf-8").startswith("n,p_infection")


class TestVulndiscCommand:
    def test_weeks_validation_message(self, capsys):
        code, _, err = run_cli(["vulndisc", "--scenario", "fuzzer.scn", "--weeks", "0"], capsys)
        assert code == 1
        assert "--weeks" in err and ">= 1" in err

    def test_weekly_table(self, capsys):
        code, out, _ = run_cli(["vulndisc", "--scenario", "human_bug_bounty.scn", "--weeks", "3"], capsys)
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["week", "discoveries", "cumulative"]
        assert body[0][1] == pytest.approx(10.0, abs=1e-9)
        assert body[2][2] == pytest.approx(body[0][1] + body[1][1] + body[2][1], rel=1e-9)


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

    def test_race_notice_on_forced_clamp_leaves_stdout_alone(self, tmp_path, capsys):
        args = ["simulate", "--kind", "race", "--trials", "2000", "--probe", "55"]
        code, forced, err = run_cli(args, capsys)
        assert code == 0
        assert err.startswith("notice: ") and "clamp_monotone" in err
        assert len(err.splitlines()) == 1
        scn = tmp_path / "clamped.scn"
        scn.write_text("[patchrace]\nclamp_monotone = true\n", encoding="utf-8")
        code, explicit, err = run_cli([*args, "--scenario", str(scn)], capsys)
        assert code == 0
        assert err == ""
        assert explicit == forced

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


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out", str(outdir)]) == 0
    return outdir


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

    def test_repeat_run_byte_identical(self, figures_dir, tmp_path):
        again = tmp_path / "figs2"
        assert main(["figures", "--out", str(again)]) == 0
        for name in FIGURE_NAMES:
            assert (again / f"{name}.csv").read_bytes() == (
                figures_dir / f"{name}.csv"
            ).read_bytes(), name


class TestExitCodes:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(["explode"], capsys)
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
