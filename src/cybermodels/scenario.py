"""Flat key=value scenario files.

Format: ``[section]`` headers with one ``key = value`` pair per line; ``#``
begins a comment, which goes on its own line; blank lines are ignored; numbers
must be finite. No nesting, so files stay diff-friendly and trivially
parseable. Units are embedded in key names (``lambda_days``, ``beta_per_day``)
to keep day/week confusion out of the files. Every key has a documented
baseline default, so an empty file is the full baseline scenario.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .montecarlo import SimConfig
from .numerics import RULES, Grid, finite_float
from .patchrace import (
    DeploymentParams,
    ExploitCurveParams,
    PatchRaceScenario,
    WeibullParams,
)
from .phishing import PhishingParams
from .vulndisc import TIME_WEEKS, PowerLawTester


class ScenarioError(ValueError):
    """Invalid scenario file content."""


@dataclass(frozen=True)
class Scenario:
    """Validated domain objects for all four sections of a scenario file."""

    phishing: PhishingParams
    tester: PowerLawTester
    race: PatchRaceScenario
    sim: SimConfig


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"{raw!r} is not a boolean (use true/false)")


def _parse_int(raw: str) -> int:
    # int(), not float(): a 64-bit seed would lose digits in a float
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not an integer") from None


_RACE = PatchRaceScenario()

# key -> (parser, rule (a numerics.RULES key) or None, baseline default); the
# defaults are the values behind every bundled curve, and the race defaults
# are read from the PatchRaceScenario field defaults.
_KEYS: dict[str, dict[str, tuple]] = {
    "phishing": {
        "p_click": (finite_float, "must be in [0, 1]", 0.03),
        "p_human_alert": (finite_float, "must be in [0, 1]", 0.015),
        "p_machine_alert": (finite_float, "must be in [0, 1]", 0.01),
    },
    "vulndisc": {
        "c": (finite_float, "must be > 0", 6.0),
        "alpha": (finite_float, "must be >= 0", 0.4),
        "label": (str, None, "human bug bounty"),
    },
    "patchrace": {
        "k": (finite_float, "must be > 0", _RACE.dev.shape),
        "lambda_days": (finite_float, "must be > 0", _RACE.dev.scale_days),
        "beta_per_day": (finite_float, "must be > 0", _RACE.dep.rate_per_day),
        "A": (finite_float, "must be >= 0", _RACE.exploit.amplitude),
        "a": (finite_float, "must be >= 0", _RACE.exploit.growth_exponent),
        "b": (finite_float, "must be >= 0", _RACE.exploit.decay_per_day),
        "pre_disclosure_fraction": (
            finite_float, "must be in [0, 1]", _RACE.pre_disclosure_patch_fraction
        ),
        "instant_dev": (_parse_bool, None, _RACE.instant_dev),
        "instant_exploit": (_parse_bool, None, _RACE.instant_exploit),
        "deploy_speedup": (finite_float, "must be >= 1", _RACE.deploy_speedup),
        "grid_stop_days": (finite_float, "must be > 0", _RACE.grid.stop),
        "grid_step_days": (finite_float, "must be > 0", _RACE.grid.step),
        "clamp_monotone": (_parse_bool, None, _RACE.exploit.clamp_monotone),
    },
    "montecarlo": {
        "trials": (_parse_int, "must be >= 1", 100_000),
        "seed": (_parse_int, "must be a 64-bit unsigned integer", 20_260_810),
        "workers": (_parse_int, "must be >= 1", 1),
    },
}


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and validate scenario text into domain objects (defaults applied
    for omitted keys)."""
    values = {sec: {key: spec[2] for key, spec in keys.items()} for sec, keys in _KEYS.items()}
    seen: dict[tuple[str, str], int] = {}
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ScenarioError(
                    f"{source}: line {lineno}: unknown section [{section}] "
                    f"(expected one of {', '.join(sorted(_KEYS))})"
                )
            continue
        if "=" not in line:
            raise ScenarioError(
                f"{source}: line {lineno}: expected 'key = value', got {line!r}"
            )
        if section is None:
            raise ScenarioError(
                f"{source}: line {lineno}: key outside any [section] header"
            )
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS[section]:
            raise ScenarioError(
                f"{source}: line {lineno}: unknown key '{key}' in section "
                f"[{section}] (valid keys: {', '.join(sorted(_KEYS[section]))})"
            )
        if (section, key) in seen:
            raise ScenarioError(
                f"{source}: duplicate key '{key}' in section [{section}] "
                f"(lines {seen[(section, key)]} and {lineno})"
            )
        seen[(section, key)] = lineno
        if re.search(r"\s#", raw_value):
            raise ScenarioError(
                f"{source}: line {lineno}: key '{key}': a comment must go on its own line"
            )

        parser, rule, _ = _KEYS[section][key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ScenarioError(f"{source}: line {lineno}: key '{key}': {exc}") from None
        if rule is not None and not RULES[rule](value):
            raise ScenarioError(f"{source}: line {lineno}: key '{key}' {rule} (got {raw_value})")
        values[section][key] = value

    ph = values["phishing"]
    vd = values["vulndisc"]
    pr = values["patchrace"]
    mc = values["montecarlo"]
    try:
        phishing = PhishingParams(ph["p_click"], ph["p_human_alert"], ph["p_machine_alert"])
        tester = PowerLawTester(vd["c"], vd["alpha"], TIME_WEEKS, vd["label"])
        race = PatchRaceScenario(
            dev=WeibullParams(pr["k"], pr["lambda_days"]),
            dep=DeploymentParams(pr["beta_per_day"]),
            exploit=ExploitCurveParams(
                pr["A"], pr["a"], pr["b"], clamp_monotone=pr["clamp_monotone"]
            ),
            pre_disclosure_patch_fraction=pr["pre_disclosure_fraction"],
            instant_dev=pr["instant_dev"],
            instant_exploit=pr["instant_exploit"],
            deploy_speedup=pr["deploy_speedup"],
            grid=Grid(0.0, pr["grid_stop_days"], pr["grid_step_days"]),
        )
        sim = SimConfig(mc["trials"], mc["seed"], mc["workers"])
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    return Scenario(phishing, tester, race, sim)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file (UTF-8)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario(text, str(path))


def default_scenario() -> Scenario:
    """The all-defaults baseline scenario: an empty scenario file."""
    return parse_scenario("", "<defaults>")


def list_bundled() -> list[str]:
    """Names of the scenario presets shipped with the package."""
    root = resources.files(__package__).joinpath("scenarios")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))


def load_preset(name: str) -> Scenario:
    """Load a scenario preset shipped with the package; a file of the same
    name in the working directory is never read."""
    bundled = resources.files(__package__).joinpath("scenarios", name)
    if not bundled.is_file():
        raise ScenarioError(
            f"scenario file not found: {name} (bundled presets: "
            f"{', '.join(list_bundled())})"
        )
    return parse_scenario(bundled.read_text(encoding="utf-8"), name)


def resolve_scenario(name_or_path: str | None) -> Scenario:
    """Resolve a --scenario argument: a real file path first, then a bundled
    preset name; None means the baseline defaults."""
    if name_or_path is None:
        return default_scenario()
    if Path(name_or_path).is_file():
        return load_scenario(name_or_path)
    return load_preset(str(name_or_path))
