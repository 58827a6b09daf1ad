"""Golden-output check: every CLI output below is rerun through ``cli.main``
and compared with reference CSVs committed under ``tests/golden/``.

The reference files were written once by the same argument lists, before the
numerical code was refactored; they are never regenerated to make this test
pass. A rerun must give the same header, the same number of rows and the
same cell text, except that a numeric cell may move by one unit in its 12th
significant digit (|delta| <= 1e-11 * |ref|), and a ``residual`` cell, the
round-off left by an exact synthetic fit, may move by 1e-18 absolute.
"""

import csv
from pathlib import Path

import pytest

from cybermodels.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = ROOT / "data"

REL_TOL = 1e-11
RESIDUAL_ABS_TOL = 1e-18

TESTER_PRESETS = ("human_bug_bounty", "fuzzer", "fast_ai", "creative_ai")

# golden file name -> CLI arguments (without --out)
CASES = {
    "phishing_baseline_sweep200.csv": ["phishing", "--scenario", "baseline.scn", "--sweep", "200"],
    **{
        f"vulndisc_{name}_520.csv": ["vulndisc", "--scenario", f"{name}.scn", "--weeks", "520"]
        for name in TESTER_PRESETS
    },
    "patchrace_summary.csv": ["patchrace", "--summary"],
    "fit_weibull.csv": ["fit", "--kind", "weibull", "--data", str(DATA / "patch_dev_reference.csv")],
    "fit_exploit_total.csv": [
        "fit", "--kind", "exploit-total", "--data", str(DATA / "exploit_delay_reference.csv"),
    ],
    "simulate_phishing.csv": ["simulate", "--kind", "phishing", "--trials", "5000"],
    "simulate_discovery.csv": ["simulate", "--kind", "discovery", "--trials", "2000"],
    "simulate_race.csv": ["simulate", "--kind", "race", "--trials", "5000"],
}


def _read(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _cells_match(ref: str, got: str, column: str) -> bool:
    if ref == got:
        return True
    try:
        r, g = float(ref), float(got)
    except ValueError:
        return False
    if column == "residual":
        return abs(g - r) <= RESIDUAL_ABS_TOL
    return abs(g - r) <= REL_TOL * abs(r)


def assert_matches_golden(got_path: Path, ref_path: Path) -> None:
    ref, got = _read(ref_path), _read(got_path)
    assert got[0] == ref[0], f"{ref_path.name}: header {got[0]} != {ref[0]}"
    assert len(got) == len(ref), f"{ref_path.name}: {len(got) - 1} rows, expected {len(ref) - 1}"
    header = ref[0]
    for lineno, (ref_row, got_row) in enumerate(zip(ref[1:], got[1:]), start=2):
        assert len(got_row) == len(ref_row), f"{ref_path.name}:{lineno}: field count"
        for column, r, g in zip(header, ref_row, got_row):
            assert _cells_match(r, g, column), (
                f"{ref_path.name}:{lineno}: {column}={g}, golden {r}"
            )


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert_matches_golden(out, GOLDEN / name)


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden_figs")
    assert main(["figures", "--out", str(outdir)]) == 0
    return outdir


# the committed files, not the CLI's figure table, say which figures exist
GOLDEN_FIGURES = sorted(path.stem for path in (GOLDEN / "figures").glob("*.csv"))


@pytest.mark.parametrize("name", GOLDEN_FIGURES)
def test_figure_matches_golden(name, figures_dir):
    assert_matches_golden(figures_dir / f"{name}.csv", GOLDEN / "figures" / f"{name}.csv")


def test_figures_writes_exactly_the_golden_files(figures_dir):
    assert sorted(path.name for path in figures_dir.iterdir()) == [
        f"{name}.csv" for name in GOLDEN_FIGURES
    ]


def test_tolerance_rejects_a_twelfth_digit_step_of_two():
    assert _cells_match("0.123456789012", "0.123456789013", "x")
    assert not _cells_match("0.123456789012", "0.123456789014", "x")
    assert _cells_match("1e-22", "3e-22", "residual")
    assert not _cells_match("1e-22", "3e-22", "x")
    assert not _cells_match("true", "false", "converged")
