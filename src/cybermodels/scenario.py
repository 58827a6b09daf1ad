"""Flat key=value scenario files.

Format: ``[section]`` headers with one ``key = value`` pair per line; ``#``
begins a comment line; blank lines are ignored. No nesting, so files stay
diff-friendly and trivially parseable. Units are embedded in key names
(``lambda_days``, ``beta_per_day``) to keep day/week confusion out of the
files. Every key has a documented baseline default, so an empty file is the
full baseline scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .montecarlo import SimConfig
from .numerics import Grid
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


def _prob(v):
    return 0.0 <= v <= 1.0


# key -> (parser, validator or None, human-readable constraint, baseline
# default); the defaults are the values behind every bundled curve.
_KEYS: dict[str, dict[str, tuple]] = {
    "phishing": {
        "p_click": (float, _prob, "must be in [0, 1]", 0.03),
        "p_human_alert": (float, _prob, "must be in [0, 1]", 0.015),
        "p_machine_alert": (float, _prob, "must be in [0, 1]", 0.01),
    },
    "vulndisc": {
        "c": (float, lambda v: v > 0, "must be > 0", 6.0),
        "alpha": (float, lambda v: v >= 0, "must be >= 0", 0.4),
        "label": (str, None, "", "human bug bounty"),
    },
    "patchrace": {
        "k": (float, lambda v: v > 0, "must be > 0", 0.57),
        "lambda_days": (float, lambda v: v > 0, "must be > 0", 18.2),
        "beta_per_day": (float, lambda v: v > 0, "must be > 0", 1.0 / 144.0),
        "A": (float, lambda v: v >= 0, "must be >= 0", 0.135),
        "a": (float, lambda v: v >= 0, "must be >= 0", 0.349),
        "b": (float, lambda v: v >= 0, "must be >= 0", 7.90e-4),
        "pre_disclosure_fraction": (float, _prob, "must be in [0, 1]", 0.78),
        "instant_dev": (_parse_bool, None, "", False),
        "instant_exploit": (_parse_bool, None, "", False),
        "deploy_speedup": (float, lambda v: v >= 1, "must be >= 1", 1.0),
        "grid_stop_days": (float, lambda v: v > 0, "must be > 0", 730.0),
        "grid_step_days": (float, lambda v: v > 0, "must be > 0", 0.25),
        "clamp_monotone": (_parse_bool, None, "", False),
    },
    "montecarlo": {
        "trials": (int, lambda v: v >= 1, "must be >= 1", 100_000),
        "seed": (int, lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer", 20_260_810),
        "workers": (int, lambda v: v >= 1, "must be >= 1", 1),
    },
}


def _defaults() -> dict[str, dict[str, object]]:
    return {sec: {key: spec[3] for key, spec in keys.items()} for sec, keys in _KEYS.items()}


def parse_scenario_text(text: str, source: str = "<scenario>") -> dict[str, dict[str, object]]:
    """Parse and validate scenario text into per-section key/value dicts
    (defaults applied for omitted keys)."""
    values = _defaults()
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

        parser, validator, constraint, _ = _KEYS[section][key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ScenarioError(f"{source}: line {lineno}: key '{key}': {exc}") from None
        if validator is not None and not validator(value):
            raise ScenarioError(
                f"{source}: line {lineno}: key '{key}' {constraint} (got {raw_value})"
            )
        values[section][key] = value
    return values


def build_scenario(values: dict[str, dict[str, object]], source: str = "<scenario>") -> Scenario:
    """Assemble validated domain objects from parsed values."""
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
    return build_scenario(parse_scenario_text(text, str(path)), str(path))


def default_scenario() -> Scenario:
    """The all-defaults baseline scenario."""
    return build_scenario(_defaults(), "<defaults>")


def list_bundled() -> list[str]:
    """Names of the scenario presets shipped with the package."""
    root = resources.files(__package__).joinpath("scenarios")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))


def resolve_scenario(name_or_path: str | None) -> Scenario:
    """Resolve a --scenario argument: a real file path first, then a bundled
    preset name; None means the baseline defaults."""
    if name_or_path is None:
        return default_scenario()
    path = Path(name_or_path)
    if path.is_file():
        return load_scenario(path)
    bundled = resources.files(__package__).joinpath("scenarios", str(name_or_path))
    if bundled.is_file():
        text = bundled.read_text(encoding="utf-8")
        return build_scenario(parse_scenario_text(text, str(name_or_path)), str(name_or_path))
    raise ScenarioError(
        f"scenario file not found: {name_or_path} (bundled presets: "
        f"{', '.join(list_bundled())})"
    )
