#!/usr/bin/env python3
"""Digest what the CLI does on a fixed list of cases, to compare two checkouts.

Each case runs ``python -m cybermodels.cli <args>`` as a subprocess with
``PYTHONPATH=<checkout>/src``, in a fresh working directory that holds only
the case's input files. One line per case gives its id, its exit code, and
the first 16 hex digits of the sha256 of stdout, of stderr and of each file
the case wrote. Every path a case uses is relative to its working directory,
so two checkouts with the same behaviour print the same lines:

    python scripts/cli_digest.py /path/to/parent > parent.txt
    python scripts/cli_digest.py > change.txt      # this checkout
    diff parent.txt change.txt

The cases cover every subcommand on stdout and with ``--out``, ``figures``,
each kind of validation and write error, and the ``notice:`` lines. The
top-level ``--help`` is left out: it prints the module docstring of
``cybermodels.cli``, which changes with its documentation.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = "{data}"  # the checkout's data directory
SIM = ["simulate", "--trials", "2000"]
POWER_OVERFLOW = "[patchrace]\nA = 0.5\na = 800\nb = 294.3035529371539\n"  # b = 800 / e
TINY_DEPLOY_RATE = "[patchrace]\nbeta_per_day = 5e-324\n"

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
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(checkout: Path, args, inputs, workdir: Path) -> str:
    workdir.mkdir()
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "COLUMNS": "80", "OPENBLAS_NUM_THREADS": "1"}
    argv = [a.replace(DATA, str(checkout / "data")) for a in args]
    proc = subprocess.run([sys.executable, "-m", "cybermodels.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, timeout=300)
    written = sorted(
        p for p in workdir.rglob("*") if p.is_file() and p.name not in inputs
    )
    files = " ".join(
        f"{p.relative_to(workdir).as_posix()}:{_digest(p.read_bytes())}" for p in written
    )
    return (f"exit={proc.returncode} stdout={_digest(proc.stdout)} "
            f"stderr={_digest(proc.stderr)} files={files or '-'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="checkout whose src/ to run (default: this one)")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (case, cli_args, inputs) in enumerate(CASES):
            print(case, run_case(checkout, cli_args, inputs, Path(tmp) / str(i)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
