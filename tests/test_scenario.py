import re
from pathlib import Path

import pytest

from cybermodels import scenario
from cybermodels.numerics import Grid
from cybermodels.patchrace import PatchRaceScenario
from cybermodels.scenario import (
    ScenarioError,
    default_scenario,
    list_bundled,
    load_scenario,
    parse_scenario,
    resolve_scenario,
)


def parse(text):
    return parse_scenario(text, "test.scn")


class TestDefaults:
    def test_empty_file_is_full_baseline(self, tmp_path):
        path = tmp_path / "empty.scn"
        path.write_text("", encoding="utf-8")
        scn = load_scenario(path)
        base = default_scenario()
        assert scn == base
        assert scn.phishing.p_click == 0.03
        assert scn.phishing.p_human_alert == 0.015
        assert scn.phishing.p_machine_alert == 0.01
        assert scn.tester.initial_rate == 6.0
        assert scn.tester.difficulty_exponent == 0.4
        assert scn.race.dev.shape == 0.57
        assert scn.race.dev.scale_days == 18.2
        assert scn.race.dep.rate_per_day == pytest.approx(1.0 / 144.0)
        assert scn.race.pre_disclosure_patch_fraction == 0.78
        assert scn.race.grid == Grid(0.0, 730.0, 0.25)
        assert scn.sim.workers == 1

    def test_race_defaults_are_the_dataclass_defaults(self):
        assert default_scenario().race == PatchRaceScenario()

    def test_comments_and_blanks_ignored(self):
        scn = parse("# comment\n\n[phishing]\n# another\np_click = 0.1\n")
        assert scn.phishing.p_click == 0.1
        assert scn.phishing.p_human_alert == 0.015  # default retained

    def test_readme_example_builds_and_names_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (text,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        scn = parse_scenario(text, "README.md")
        assert scn.tester.label == "black-box fuzzer"
        assert scn.phishing.p_click == 0.3
        sections = re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL)
        body = dict(sections)
        assert body.keys() == scenario._KEYS.keys()
        for section, keys in scenario._KEYS.items():
            named = re.findall(r"^(\w+) = ", body[section], flags=re.MULTILINE)
            assert sorted(named) == sorted(keys), section


# one key per ruled scenario row, each with a value that breaks its rule
RANGE_CASES = [
    ("phishing", "p_click", "1.5", "must be in [0, 1]"),
    ("phishing", "p_human_alert", "1.5", "must be in [0, 1]"),
    ("phishing", "p_machine_alert", "1.5", "must be in [0, 1]"),
    ("vulndisc", "c", "0", "must be > 0"),
    ("vulndisc", "alpha", "-1", "must be >= 0"),
    ("patchrace", "k", "0", "must be > 0"),
    ("patchrace", "lambda_days", "0", "must be > 0"),
    ("patchrace", "beta_per_day", "0", "must be > 0"),
    ("patchrace", "A", "-1", "must be >= 0"),
    ("patchrace", "a", "-1", "must be >= 0"),
    ("patchrace", "b", "-1", "must be >= 0"),
    ("patchrace", "pre_disclosure_fraction", "1.5", "must be in [0, 1]"),
    ("patchrace", "deploy_speedup", "0.5", "must be >= 1"),
    ("patchrace", "grid_stop_days", "0", "must be > 0"),
    ("patchrace", "grid_step_days", "0", "must be > 0"),
    ("montecarlo", "trials", "0", "must be >= 1"),
    ("montecarlo", "seed", "-1", "must be a 64-bit unsigned integer"),
    ("montecarlo", "workers", "0", "must be >= 1"),
]


class TestValidation:
    @pytest.mark.parametrize("section,key,raw,rule", RANGE_CASES,
                             ids=[case[1] for case in RANGE_CASES])
    def test_range_error_names_key_rule_and_raw_value(self, section, key, raw, rule):
        with pytest.raises(ScenarioError) as excinfo:
            parse(f"[{section}]\n{key} = {raw}\n")
        assert str(excinfo.value) == f"test.scn: line 2: key '{key}' {rule} (got {raw})"

    def test_negative_alpha_names_key_and_bound(self):
        with pytest.raises(ScenarioError, match="'alpha' must be >= 0"):
            parse("[vulndisc]\nalpha = -1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioError, match="unknown key 'clickrate'"):
            parse("[phishing]\nclickrate = 0.5\n")

    def test_unknown_section_named(self):
        with pytest.raises(ScenarioError, match=r"unknown section \[ransomware\]"):
            parse("[ransomware]\nx = 1\n")

    def test_duplicate_key_reports_both_lines(self):
        text = "[phishing]\np_click = 0.1\np_click = 0.2\n"
        with pytest.raises(ScenarioError, match="lines 2 and 3"):
            parse(text)

    def test_key_before_section(self):
        with pytest.raises(ScenarioError, match="outside any"):
            parse("p_click = 0.5\n")

    def test_non_numeric_value_names_line(self):
        with pytest.raises(ScenarioError, match="line 2: key 'p_click': 'lots' is not a number$"):
            parse("[phishing]\np_click = lots\n")

    @pytest.mark.parametrize("section,key,value", [
        ("vulndisc", "label", "fuzzer  # tester name"),
        ("phishing", "p_click", "0.3  # in [0, 1]"),
    ], ids=["string-key", "numeric-key"])
    def test_inline_comment_rejected(self, section, key, value):
        with pytest.raises(
            ScenarioError,
            match=f"^test.scn: line 2: key '{key}': a comment must go on its own line$",
        ):
            parse(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("key,raw", [("trials", "1e5"), ("seed", "1.5"), ("workers", "two")])
    def test_integer_key_rejects_non_integer_text(self, key, raw):
        with pytest.raises(ScenarioError) as excinfo:
            parse(f"[montecarlo]\n{key} = {raw}\n")
        assert str(excinfo.value) == f"test.scn: line 2: key '{key}': '{raw}' is not an integer"

    def test_largest_seed_parses_exactly(self):
        assert parse("[montecarlo]\nseed = 18446744073709551615\n").sim.seed == 2**64 - 1

    def test_hash_inside_a_value_is_kept(self):
        assert parse("[vulndisc]\nlabel = team#1\n").tester.label == "team#1"

    def test_bad_boolean(self):
        with pytest.raises(ScenarioError, match="boolean"):
            parse("[patchrace]\ninstant_dev = maybe\n")

    def test_probability_bound(self):
        with pytest.raises(ScenarioError, match=r"'p_click' must be in \[0, 1\]"):
            parse("[phishing]\np_click = 1.5\n")

    def test_line_without_equals_sign(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse("[phishing]\np_click\n")
        assert str(excinfo.value) == "test.scn: line 2: expected 'key = value', got 'p_click'"

    def test_unreadable_file_names_it(self, tmp_path):
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(tmp_path)
        assert str(excinfo.value).startswith(f"cannot read scenario file {tmp_path}: ")

    def test_deploy_speedup_bound(self):
        with pytest.raises(ScenarioError, match="'deploy_speedup' must be >= 1"):
            parse("[patchrace]\ndeploy_speedup = 0.2\n")

    def test_grid_keys_build_grid(self):
        scn = parse("[patchrace]\ngrid_stop_days = 400\ngrid_step_days = 0.5\n")
        assert scn.race.grid == Grid(0.0, 400.0, 0.5)

    def test_cross_field_violation_reported(self):
        # amplitude large enough that the exploit-curve peak exceeds 1
        with pytest.raises(ScenarioError, match="peak"):
            parse("[patchrace]\nA = 2.0\n")


class TestBundledPresets:
    def test_all_presets_load(self):
        names = list_bundled()
        assert len(names) >= 8
        for name in names:
            resolve_scenario(name)

    def test_ai_writer_preset_values(self):
        scn = resolve_scenario("table1_ai_writer.scn")
        assert scn.phishing.p_click == 0.3
        assert scn.phishing.p_human_alert == 0.005
        assert scn.phishing.p_machine_alert == 0.01

    def test_fuzzer_preset_values(self):
        scn = resolve_scenario("fuzzer.scn")
        assert scn.tester.initial_rate == 85.5
        assert scn.tester.difficulty_exponent == 3.0

    def test_file_path_wins_over_preset(self, tmp_path):
        path = tmp_path / "baseline.scn"
        path.write_text("[phishing]\np_click = 0.9\n", encoding="utf-8")
        assert load_scenario(path).phishing.p_click == 0.9

    def test_missing_scenario_lists_presets(self):
        with pytest.raises(ScenarioError, match="bundled presets"):
            resolve_scenario("nope.scn")

    def test_label_with_spaces(self):
        scn = resolve_scenario("human_bug_bounty.scn")
        assert scn.tester.label == "human bug bounty"
