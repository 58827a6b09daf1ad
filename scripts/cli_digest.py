#!/usr/bin/env python3
"""Digest what the CLI does on a fixed list of cases: the exact byte gate.

Each case calls ``cybermodels.cli.main`` in-process, as a fresh
``python -m cybermodels.cli <args>`` process would run it: in a fresh working
directory that holds only the case's input files, with ``COLUMNS=80`` (argparse
wraps help text by it), and with the warning filters an interpreter starts
with, whatever filters the caller has set, so a warning prints to stderr and
never raises. One line per case gives its id, its exit code, and the first
16 hex digits of the sha256 of stdout, of stderr (both as UTF-8 bytes) and of
each file the case wrote. Every path a case uses is relative to its working
directory, save ``{data}``, the data directory of the checkout that holds the
``cybermodels`` imported.

``tests/golden/cli_digest.txt`` is this script's output, and
``tests/test_cli_digest.py`` checks it line by line. A change that moves a CLI
byte rewrites the file, and its diff is the record::

    PYTHONPATH=src python scripts/cli_digest.py > tests/golden/cli_digest.txt

To compare with another checkout, digest its package the same way:

    PYTHONPATH=/path/to/parent/src python scripts/cli_digest.py > parent.txt
    diff parent.txt tests/golden/cli_digest.txt

The cases cover every subcommand on stdout and with ``--out``, ``figures``,
each kind of validation and write error, and the ``notice:`` lines. The
top-level ``--help`` is left out: it prints the module docstring of
``cybermodels.cli``, which changes with its documentation.
"""

import hashlib
import io
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from cybermodels import cli

DATA = "{data}"  # the data directory of the checkout that holds cybermodels
DATA_DIR = Path(cli.__file__).resolve().parents[2] / "data"
SIM = ["simulate", "--trials", "2000"]
POWER_OVERFLOW = "[patchrace]\nA = 0.5\na = 800\nb = 294.3035529371539\n"  # b = 800 / e
TINY_DEPLOY_RATE = "[patchrace]\nbeta_per_day = 5e-324\n"
SMALL_SHAPE_DEPLOY_5X = "[patchrace]\nk = 0.05\ndeploy_speedup = 5\n"
# deployment rates whose exponent overflows: rate x t (silent, a CDF of 1), the rate
# itself and rate x step (both refused)
DEPLOY_OVERFLOW = {
    "deploy-rate-day-overflow": "[patchrace]\nbeta_per_day = 1e307\n",
    "deploy-rate-overflow": "[patchrace]\nbeta_per_day = 1e300\ndeploy_speedup = 1e300\n",
    "deploy-rate-step-overflow": "[patchrace]\nbeta_per_day = 1e307\ngrid_step_days = 100\n",
}

# (id, CLI arguments, input files written into the working directory first)
CASES = [
    # every subcommand, to stdout and to --out
    ("phishing", ["phishing", "--sweep", "40"], {}),
    ("phishing-out", ["phishing", "--sweep", "40", "--out", "t.csv"], {}),
    ("phishing-preset", ["phishing", "--scenario", "table1_ai_writer_detector.scn"], {}),
    ("vulndisc", ["vulndisc", "--weeks", "10"], {}),
    ("vulndisc-out", ["vulndisc", "--scenario", "fuzzer.scn", "--out", "t.csv"], {}),
    ("patchrace", ["patchrace"], {}),
    ("patchrace-out", ["patchrace", "--out", "t.csv"], {}),
    ("patchrace-summary", ["patchrace", "--summary"], {}),
    ("patchrace-summary-out", ["patchrace", "--summary", "--out", "t.csv"], {}),
    # race-kernel regimes where the grid error is largest: a small shape with fast
    # deployment (P at day 0.25 reads 0.00239853176504), a large shape, a finer grid
    ("patchrace-small-shape-deploy-5x", ["patchrace", "--scenario", "k.scn"],
     {"k.scn": SMALL_SHAPE_DEPLOY_5X}),
    ("patchrace-small-shape-deploy-5x-summary", ["patchrace", "--summary", "--scenario", "k.scn"],
     {"k.scn": SMALL_SHAPE_DEPLOY_5X}),
    ("patchrace-large-shape", ["patchrace", "--scenario", "k.scn"],
     {"k.scn": "[patchrace]\nk = 3\n"}),
    ("patchrace-large-shape-summary", ["patchrace", "--summary", "--scenario", "k.scn"],
     {"k.scn": "[patchrace]\nk = 3\n"}),
    ("patchrace-fine-grid-summary", ["patchrace", "--summary", "--scenario", "grid.scn"],
     {"grid.scn": "[patchrace]\ngrid_step_days = 0.1\n"}),
    ("fit-weibull", ["fit", "--kind", "weibull", "--data", f"{DATA}/patch_dev_reference.csv"], {}),
    ("fit-weibull-out", ["fit", "--kind", "weibull", "--data",
                         f"{DATA}/patch_dev_reference.csv", "--out", "t.csv"], {}),
    ("fit-exploit-total", ["fit", "--kind", "exploit-total", "--data",
                           f"{DATA}/exploit_delay_reference.csv"], {}),
    ("fit-exploit-total-out", ["fit", "--kind", "exploit-total", "--data",
                               f"{DATA}/exploit_delay_reference.csv", "--out", "t.csv"], {}),
    ("simulate-phishing", [*SIM, "--kind", "phishing"], {}),
    ("simulate-phishing-out", [*SIM, "--kind", "phishing", "--n", "10", "--out", "t.csv"], {}),
    ("simulate-phishing-workers-2", [*SIM, "--kind", "phishing", "--workers", "2"], {}),
    ("simulate-discovery", [*SIM, "--kind", "discovery", "--t1", "1", "--t2", "5"], {}),
    ("simulate-discovery-out", [*SIM, "--kind", "discovery", "--scenario", "fast_ai.scn",
                                "--out", "t.csv"], {}),
    ("simulate-race-probes-out", [*SIM, "--kind", "race", "--probe", "10", "--probe", "100",
                                  "--seed", "3", "--out", "t.csv"], {}),
    ("simulate-race-clamped", [*SIM, "--kind", "race", "--scenario", "clamped.scn"],
     {"clamped.scn": "[patchrace]\nclamp_monotone = true\n"}),
    # probes past the exploit curve's peak on day 441.8, where raw and clamped part
    ("simulate-race-raw-past-peak", [*SIM, "--kind", "race", "--probe", "600"], {}),
    ("simulate-race-clamped-past-peak", [*SIM, "--kind", "race", "--probe", "600",
                                         "--scenario", "clamped.scn"],
     {"clamped.scn": "[patchrace]\nclamp_monotone = true\n"}),
    ("simulate-help", ["simulate", "--help"], {}),
    ("figures", ["figures", "--out", "figs"], {}),
    ("figures-default-dir", ["figures"], {}),
    # files named like bundled presets in the working directory are not read
    ("figures-shadowed-presets", ["figures", "--out", "figs"],
     {"fuzzer.scn": "[vulndisc]\nc = 1\n", "baseline.scn": "[phishing]\np_click = 0.9\n"}),
    # notice: lines on stderr, with the CSV unchanged
    ("notice-coarse-grid", ["patchrace", "--summary", "--scenario", "coarse.scn"],
     {"coarse.scn": "[patchrace]\ngrid_step_days = 2\n"}),
    # the default race run; the id stays so that digests of older checkouts line up
    ("notice-forced-clamp", [*SIM, "--kind", "race"], {}),
    ("notice-power-overflow", ["patchrace", "--summary", "--scenario", "k.scn"],
     {"k.scn": "[patchrace]\nk = 1000\n"}),
    # cumulative discoveries pass the float range at week 2: exit 1 naming the week and c
    ("runtime-warning-overflow", ["vulndisc", "--weeks", "5", "--scenario", "c.scn"],
     {"c.scn": "[vulndisc]\nc = 1e308\n"}),
    ("vulndisc-huge-rate-one-week", ["vulndisc", "--weeks", "1", "--scenario", "c.scn"],
     {"c.scn": "[vulndisc]\nc = 1e308\n"}),
    # the deployment rate times the grid step rounds to 0; delays that overflow to inf
    ("patchrace-tiny-deploy-rate", ["patchrace", "--scenario", "beta.scn"],
     {"beta.scn": TINY_DEPLOY_RATE}),
    ("patchrace-tiny-deploy-rate-summary", ["patchrace", "--summary", "--scenario", "beta.scn"],
     {"beta.scn": TINY_DEPLOY_RATE}),
    ("simulate-race-tiny-deploy-rate", [*SIM, "--kind", "race", "--scenario", "beta.scn"],
     {"beta.scn": TINY_DEPLOY_RATE}),
    ("simulate-race-tiny-shape", [*SIM, "--kind", "race", "--scenario", "k.scn"],
     {"k.scn": "[patchrace]\nk = 1e-6\n"}),
    # extreme but valid race inputs: stderr stays empty, or the peak-value rule exits 1
    ("patchrace-power-overflow", ["patchrace", "--scenario", "k.scn"],
     {"k.scn": "[patchrace]\nk = 1000\n"}),
    # t**800 overflows past day 2.4 on a curve peaking at exactly 0.5: taken in logs
    ("exploit-power-overflow", ["patchrace", "--scenario", "a.scn"], {"a.scn": POWER_OVERFLOW}),
    ("exploit-power-overflow-summary", ["patchrace", "--summary", "--scenario", "a.scn"],
     {"a.scn": POWER_OVERFLOW}),
    ("simulate-race-exploit-power-overflow", [*SIM, "--kind", "race", "--probe", "2.75",
                                              "--scenario", "a.scn"], {"a.scn": POWER_OVERFLOW}),
    ("peak-value-overflow", ["patchrace", "--summary", "--scenario", "p.scn"],
     {"p.scn": "[patchrace]\nA = 1e-300\na = 100\nb = 1e-5\n"}),
    ("simulate-race-peak-value-overflow", [*SIM, "--kind", "race", "--scenario", "p.scn"],
     {"p.scn": "[patchrace]\nA = 1e-300\na = 100\nb = 1e-5\n"}),
    # validation errors: exit 1
    ("no-subcommand", [], {}),
    ("unknown-subcommand", ["explode"], {}),
    ("missing-kind", ["simulate"], {}),
    ("unknown-flag", ["phishing", "--weeks", "3"], {}),
    ("bad-int", ["phishing", "--sweep", "x"], {}),
    ("sweep-0", ["phishing", "--sweep", "0"], {}),
    ("weeks-0", ["vulndisc", "--weeks", "0"], {}),
    # a bad scenario is reported before a bad range flag, by every subcommand
    ("sweep-0-bad-scenario", ["phishing", "--sweep", "0", "--scenario", "nope.scn"], {}),
    ("weeks-0-bad-scenario", ["vulndisc", "--weeks", "0", "--scenario", "nope.scn"], {}),
    ("trials-0", ["simulate", "--kind", "phishing", "--trials", "0"], {}),
    ("workers-0", [*SIM, "--kind", "phishing", "--workers", "0"], {}),
    ("seed-negative", [*SIM, "--kind", "phishing", "--seed", "-1"], {}),
    ("n-negative", [*SIM, "--kind", "phishing", "--n", "-1"], {}),
    ("probe-negative", [*SIM, "--kind", "race", "--probe", "-5"], {}),
    ("probe-nan", [*SIM, "--kind", "race", "--probe", "nan"], {}),
    ("probe-inf", [*SIM, "--kind", "race", "--probe", "inf"], {}),
    ("probe-minus-inf", [*SIM, "--kind", "race", "--probe", "-inf"], {}),
    ("probe-equals-minus-inf", [*SIM, "--kind", "race", "--probe=-inf"], {}),
    ("probe-prefix-minus-inf", [*SIM, "--kind", "race", "--prob", "-inf"], {}),
    ("t-ambiguous-prefix", [*SIM, "--kind", "discovery", "--t", "-5"], {}),
    ("t1-nan", [*SIM, "--kind", "discovery", "--t1", "nan"], {}),
    ("t1-abc", [*SIM, "--kind", "discovery", "--t1", "abc"], {}),
    ("t1-minus-1e5", [*SIM, "--kind", "discovery", "--t1", "-1e5"], {}),
    ("t1-equals-minus-1e5", [*SIM, "--kind", "discovery", "--t1=-1e5"], {}),
    ("t2-inf", [*SIM, "--kind", "discovery", "--t2", "inf"], {}),
    ("t2-before-t1", [*SIM, "--kind", "discovery", "--t1", "5", "--t2", "1"], {}),
    ("scenario-missing", ["phishing", "--scenario", "nope.scn"], {}),
    ("scenario-not-finite", ["vulndisc", "--scenario", "bad.scn"],
     {"bad.scn": "[vulndisc]\nc = inf\n"}),
    ("scenario-unknown-key", ["phishing", "--scenario", "bad.scn"],
     {"bad.scn": "[phishing]\np_clik = 0.3\n"}),
    ("scenario-grid-too-large", ["patchrace", "--scenario", "bad.scn"],
     {"bad.scn": "[patchrace]\ngrid_stop_days = 1e30\n"}),
    ("fit-missing-kind", ["fit", "--data", "x.csv"], {}),
    ("fit-missing-data", ["fit", "--kind", "weibull", "--data", "nope.csv"], {}),
    ("fit-malformed", ["fit", "--kind", "weibull", "--data", "bad.csv"],
     {"bad.csv": "t,fraction\n10,0.5\n20,abc\n"}),
    ("fit-not-finite", ["fit", "--kind", "exploit-total", "--data", "bad.csv"],
     {"bad.csv": "bin_start,bin_end,count\n0,30,4\n30,60,inf\n"}),
    # write errors: exit 2, nothing written
    ("write-error-series", ["phishing", "--sweep", "5", "--out", "missing/t.csv"], {}),
    ("write-error-rows", ["patchrace", "--summary", "--out", "missing/t.csv"], {}),
    ("write-error-figures", ["figures", "--out", "taken"], {"taken": ""}),
    *((f"{case}{suffix}", [*command, "--scenario", "beta.scn"], {"beta.scn": text})
      for case, text in DEPLOY_OVERFLOW.items()
      for suffix, command in (("", ["patchrace"]), ("-summary", ["patchrace", "--summary"]),
                              ("-simulate-race", [*SIM, "--kind", "race"]))),
    # the discovery oracle's draw limit: exit 1 before any draw, naming the scenario
    ("simulate-discovery-limit-rate", [*SIM, "--kind", "discovery", "--scenario", "c.scn"],
     {"c.scn": "[vulndisc]\nc = 1e5\n"}),
    ("simulate-discovery-limit-pieces", [*SIM, "--kind", "discovery", "--t2", "1e6"], {}),
    ("simulate-discovery-limit-tiny-start", [*SIM, "--kind", "discovery", "--t1", "1e-300"], {}),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(args, inputs, workdir: Path) -> str:
    workdir.mkdir()
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = (io.TextIOWrapper(io.BytesIO(), "utf-8", newline="", write_through=True)
                for _ in "oe")
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(), mock.patch.dict(os.environ, COLUMNS="80"), \
                redirect_stdout(out), redirect_stderr(err):
            warnings.resetwarnings()  # then a release build's start-up filters, without -W
            for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                             ResourceWarning):
                warnings.simplefilter("ignore", category, append=True)
            warnings.showwarning = lambda *w: sys.stderr.write(warnings.formatwarning(*w[:4]))
            code = cli.main([a.replace(DATA, str(DATA_DIR)) for a in args])
    finally:
        os.chdir(home)
    files = " ".join(f"{p.relative_to(workdir).as_posix()}:{_digest(p.read_bytes())}"
                     for p in sorted(workdir.rglob("*")) if p.is_file() and p.name not in inputs)
    return (f"exit={code} stdout={_digest(out.buffer.getvalue())} "
            f"stderr={_digest(err.buffer.getvalue())} files={files or '-'}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for i, (case, args, inputs) in enumerate(CASES):
            print(case, run_case(args, inputs, Path(tmp) / str(i)), flush=True)


if __name__ == "__main__":
    main()
