"""Every scenario key at the edges of its rule, through every subcommand that
reads it.

Each row writes a scenario file that sets one key (or one of the listed
several-key inputs) and runs one subcommand in-process through ``cli.main``,
with warnings as errors. The run must either exit 0 with empty stderr and
finite cells, every probability column in [0, 1], or exit 1 with one line on
stderr naming the scenario file (the tests of each check pin the rest of its
text, which names the key or the rule).

The rows are built from ``scenario._KEYS``: a key's values come from its rule
(or its parser, for keys without one), so a new key gets rows, and a rule
without edge values here fails collection. ``trials``, ``workers`` and the
grid keys take only their lower edge, as larger values ask for more work by
design. Every oracle run draws at most 2000 trials, one block, so no row
starts a worker thread. ``simulate --kind discovery`` runs over weeks 1 to 5;
a rate c whose candidate draws pass the oracle's stated limit exits 1.
"""

import csv
import io
import math
import warnings

import pytest

from cybermodels.cli import main
from cybermodels.scenario import _KEYS, _parse_bool

# each rule's edges, as written in a scenario file
EDGES = {
    "must be > 0": ["5e-324", "1e-300", "1e300"],
    "must be >= 0": ["0", "5e-324", "1e300"],
    "must be >= 1": ["1", "1e300"],
    "must be in [0, 1]": ["0", "1e-320", "1"],
    "must be a 64-bit unsigned integer": ["0", str(2**64 - 1)],
}
LOWER_EDGE_ONLY = {"trials", "workers", "grid_stop_days", "grid_step_days"}
# magnitudes and breach inputs measured in earlier rounds, beyond the edges
MAGNITUDES = {
    "c": ["1e308", "1e-320"],
    "alpha": ["1e6", repr(1 - 1e-12)],
    "k": ["1e-6", "1000"],
    "beta_per_day": ["1e307"],
    "a": ["1e-300"],
    "grid_stop_days": ["1e-300"],
    "grid_step_days": ["1e-300"],
}
# several keys at once: a peak value past the float range, a curve whose
# power overflows on the default grid although it peaks at exactly 0.5, and a
# deployment rate, or its product with the grid step, past the float range
SEVERAL_KEYS = {
    "peak-value-overflow": "A = 1e-300\na = 100\nb = 1e-5\n",
    "exploit-power-overflow": f"A = 0.5\na = 800\nb = {800 / math.e!r}\n",
    "deploy-rate-overflow": "beta_per_day = 1e300\ndeploy_speedup = 1e300\n",
    "deploy-rate-step-overflow": "beta_per_day = 1e307\ngrid_step_days = 100\n",
}

SIM = ["simulate", "--trials", "2000", "--kind"]
DISCOVERY = [*SIM, "discovery", "--t1", "1", "--t2", "5"]
PATCHRACE = {"patchrace": ["patchrace"], "summary": ["patchrace", "--summary"],
             "simulate-race": [*SIM, "race"]}
# section -> the subcommands that read its keys
COMMANDS = {
    "phishing": {"phishing": ["phishing", "--sweep", "5"],
                 "simulate-phishing": [*SIM, "phishing"]},
    "vulndisc": {"vulndisc": ["vulndisc", "--weeks", "5"], "simulate-discovery": DISCOVERY},
    "patchrace": PATCHRACE,
    "montecarlo": {"simulate-race": [*SIM, "race"], "simulate-discovery": DISCOVERY},
}
PROBABILITY_COLUMNS = {
    "p_infection", "p_no_alert", "p_undetected",
    "patch_dev_cdf", "patch_dep_cdf", "patched_fraction", "exploit_availability",
    "exploitable_fraction", "peak_fraction", "fraction_at_1yr",
}
TEXT_COLUMNS = {"quantity", "rng"}


def _values(key, parser, rule):
    if rule is not None:
        edges = EDGES[rule]
        return (edges[:1] if key in LOWER_EDGE_ONLY else edges) + MAGNITUDES.get(key, [])
    if parser is _parse_bool:
        return ["true", "false"]
    return [""]  # free text: the empty label


def _command(key, command):
    # the trials row must reach the oracle through the scenario, not the flag
    return [a for a in command if key != "trials" or a not in ("--trials", "2000")]


def _rows():
    for section, keys in _KEYS.items():
        for key, (parser, rule, _) in keys.items():
            for value in _values(key, parser, rule):
                for name, command in COMMANDS[section].items():
                    yield pytest.param(f"[{section}]\n{key} = {value}\n", _command(key, command),
                                       id=f"{key}={value}-{name}")
    for case, text in SEVERAL_KEYS.items():
        for name, command in PATCHRACE.items():
            yield pytest.param(f"[patchrace]\n{text}", command, id=f"{case}-{name}")


@pytest.mark.parametrize("text, command", _rows())
def test_finite_cells_or_an_error_naming_the_scenario(text, command, tmp_path, capsys):
    scn = tmp_path / "edge.scn"
    scn.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--scenario", str(scn)])
    out, err = capsys.readouterr()
    if code == 1:
        assert out == ""
        assert err.startswith(f"error: {scn}: ") and err.count("\n") == 1, err
        return
    assert (code, err) == (0, "")
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert rows
    for name, cells in zip(header, zip(*rows)):
        if name in TEXT_COLUMNS:
            continue
        values = [float(cell) for cell in cells]
        assert all(math.isfinite(v) for v in values), (name, cells)
        # simulate --kind phishing gives its probabilities in "mean"; discovery a count
        if name in PROBABILITY_COLUMNS or (name == "mean" and "quantity" in header):
            assert all(0.0 <= v <= 1.0 for v in values), (name, cells)
