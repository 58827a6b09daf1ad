"""Response checks: every output is parsed and compared with the package's
scalar functions or with the parameters that generated the input.

Curves are checked in full against closed forms computed here, and at the
request's seeded spot rows against the package's scalar functions. Values
are compared within a relative tolerance, not byte for byte, so a correct
change that moves the 12th significant digit still passes.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from cybermodels import patchrace, phishing, vulndisc
from cybermodels.numerics import Grid

# Bound here, at import, so that a traced run's wrappers never see the
# confirmation runs.
from cybermodels.montecarlo import SimConfig, simulate_discovery, simulate_phishing, simulate_race

from workloads import EXPLOIT, GRID_STOP, TRIALS, Request, grid_nodes

RTOL = 1e-9
ATOL = 1e-11  # outputs carry 12 significant digits of values in [0, 1]
FIT_RTOL = 1e-6
SIGMAS = 4.0  # the oracle regression suite's agreement rule
# Without any defect an estimate misses 4 standard errors with probability
# 6e-5, and an oracle run checks about 160 estimates, so one run in a hundred
# would fail by chance. A miss is therefore simulated once more with four
# times the trials (half the standard error) and an independent seed; the
# request fails when that estimate misses too.
CONFIRM_TRIALS = 4 * TRIALS

RACE_COLUMNS = ["t", "patch_dev_cdf", "patch_dep_cdf", "patched_fraction",
                "exploit_availability", "exploitable_fraction"]
FIGURE_COLUMNS = {
    "fig1": ["n", "no_ai", "ai_writer", "ai_writer_detector"],
    "fig2a": ["week", "human_bug_bounty", "black_box_fuzzer", "fast_ai", "creative_ai"],
    "fig2b": ["week", "human_bug_bounty", "black_box_fuzzer", "fast_ai", "creative_ai"],
    "fig4": ["t", "fraction", "fitted_cdf"],
    "fig5": ["t", "patch_available_fraction"],
    "fig6": ["t", "patch_dev_cdf", "patch_dep_cdf", "patched_fraction"],
    "fig7-summary": ["total_vulnerabilities", "exploited", "implied_unexploited", "residual"],
    "fig8": ["t", "exploit_availability", "unpatched_fraction", "exploitable_fraction"],
    "fig9a": ["t", "baseline", "instant_patch_dev", "deploy_5x"],
    "fig9b": ["t", "instant_exploit", "instant_exploit_deploy_5x", "instant_exploit_instant_dev"],
}
FIGURE_ROWS = {"fig1": 201, "fig2a": 52, "fig2b": 520, "fig4": 120, "fig5": 241,
               "fig7-summary": 1}


class CheckError(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(name: str, got, want, rtol=RTOL, atol=ATOL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        raise CheckError(f"{name}: got {got.ravel()[i]!r}, expected {want.ravel()[i]!r}")


def read_table(path: Path, header: list[str]) -> list[list[str]]:
    """Parse one CSV response; returns the data rows as strings."""
    text = path.read_bytes().decode("utf-8")
    _require(text.endswith("\n") and "\r" not in text, f"{path.name}: not LF-terminated")
    lines = text[:-1].split("\n")
    _require(lines[0].split(",") == header, f"{path.name}: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), f"{path.name}: ragged rows")
    return rows


def _numbers(rows: list[list[str]], path: Path) -> np.ndarray:
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), -1)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    _require(np.isfinite(data).all(), f"{path.name}: non-finite value")
    return data


def race_scenario(p: dict, clamp: bool = False) -> patchrace.PatchRaceScenario:
    return patchrace.PatchRaceScenario(
        dev=patchrace.WeibullParams(p["k"], p["lambda_days"]),
        dep=patchrace.DeploymentParams(p["beta_per_day"]),
        exploit=patchrace.ExploitCurveParams(clamp_monotone=clamp),
        instant_dev=p["instant_dev"],
        instant_exploit=p["instant_exploit"],
        deploy_speedup=p["deploy_speedup"],
        grid=Grid(0.0, GRID_STOP, p["grid_step_days"]),
    )


def _phishing_params(p: dict) -> phishing.PhishingParams:
    return phishing.PhishingParams(p["p_click"], p["p_human_alert"], p["p_machine_alert"])


def _tester(p: dict) -> vulndisc.PowerLawTester:
    return vulndisc.PowerLawTester(p["c"], p["alpha"])


def _check_race_sweep(req: Request, out: Path) -> np.ndarray:
    p = req.expect["race"]
    data = _numbers(read_table(out, RACE_COLUMNS), out)
    _require(data.shape[0] == req.nodes, f"{data.shape[0]} rows, expected {req.nodes}")
    t, dev, dep, patched, avail, exploitable = data.T
    _close("t", t, p["grid_step_days"] * np.arange(req.nodes))
    _close("patch_dev_cdf", dev, -np.expm1(-((t / p["lambda_days"]) ** p["k"])))
    rate = p["beta_per_day"] * p["deploy_speedup"]
    _close("patch_dep_cdf", dep, -np.expm1(-rate * t))
    a, g, b = EXPLOIT
    _close("exploit_availability", avail,
           np.ones_like(t) if p["instant_exploit"] else a * t**g * np.exp(-b * t))
    _require(((patched >= 0) & (patched <= 1)).all(), "patched_fraction outside [0, 1]")
    _require((np.diff(patched) >= -ATOL).all(), "patched_fraction decreases")
    _close("exploitable_fraction", exploitable, avail * (1.0 - patched))
    s = race_scenario(p)
    for i in req.expect["spots"]:
        _close(f"patched_fraction[{i}]", patched[i], patchrace.patched_fraction(s, t[i]))
        _close(f"exploitable_fraction[{i}]", exploitable[i],
               patchrace.exploitable_fraction(s, t[i]))
    return data


def _check_summary(req: Request, out: Path) -> np.ndarray:
    p = req.expect["race"]
    data = _numbers(read_table(out, ["peak_time_days", "peak_fraction", "fraction_at_1yr"]), out)
    _require(data.shape[0] == 1, "expected one row")
    peak_t, peak, at_1yr = data[0]
    step = p["grid_step_days"]
    _require(abs(peak_t / step - round(peak_t / step)) < 1e-6, "peak time is not a grid node")
    s = race_scenario(p)
    _close("peak_fraction", peak, patchrace.exploitable_fraction(s, peak_t))
    _close("fraction_at_1yr", at_1yr, patchrace.exploitable_fraction(s, 365.0))
    for i in req.expect["spots"]:
        _require(patchrace.exploitable_fraction(s, i * step) <= peak + ATOL,
                 f"node {i} exceeds the reported peak")
    return data


def _check_phishing(req: Request, out: Path) -> np.ndarray:
    p = req.expect["phishing"]
    data = _numbers(read_table(out, ["n", "p_infection", "p_no_alert", "p_undetected"]), out)
    n_max = req.expect["sweep"]
    _require(data.shape[0] == n_max + 1, f"{data.shape[0]} rows, expected {n_max + 1}")
    n, inf, noal, und = data.T
    _close("n", n, np.arange(n_max + 1))
    p_alert = p["p_human_alert"] + p["p_machine_alert"] - p["p_human_alert"] * p["p_machine_alert"]
    _close("p_infection", inf, 1.0 - (1.0 - p["p_click"]) ** n)
    _close("p_no_alert", noal, (1.0 - p_alert) ** n)
    _close("p_undetected", und, inf * noal)
    params = _phishing_params(p)
    for i in req.expect["spots"]:
        _close(f"p_undetected[{i}]", und[i], phishing.p_undetected(params, i))
    return data


def _week_edges(alpha: float, weeks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # creative testers (alpha < 1) count week w over [w-1, w], saturating
    # ones over [w, w+1)
    return (weeks - 1.0, weeks) if alpha < 1 else (weeks, weeks + 1.0)


def _check_vulndisc(req: Request, out: Path) -> np.ndarray:
    p = req.expect["vulndisc"]
    data = _numbers(read_table(out, ["week", "discoveries", "cumulative"]), out)
    weeks = req.expect["weeks"]
    _require(data.shape[0] == weeks, f"{data.shape[0]} rows, expected {weeks}")
    week, per_week, cumulative = data.T
    _close("week", week, np.arange(1, weeks + 1))
    c, alpha = p["c"], p["alpha"]
    t1, t2 = _week_edges(alpha, week)

    def integral(lo, hi):
        return c / (1.0 - alpha) * (hi ** (1.0 - alpha) - lo ** (1.0 - alpha))

    _close("discoveries", per_week, integral(t1, t2))
    _close("cumulative", cumulative, integral(t1[0], t2))
    tester = _tester(p)
    for i in req.expect["spots"]:
        _close(f"discoveries[{i}]", per_week[i],
               vulndisc.expected_discoveries(tester, t1[i], t2[i]))
    return data


def _check_figures(req: Request, out: Path) -> int:
    tables = {}
    cells = 0
    for name, header in FIGURE_COLUMNS.items():
        path = out / f"{name}.csv"
        _require(path.is_file(), f"{name}.csv missing")
        data = _numbers(read_table(path, header), path)
        _require(data.shape[0] == FIGURE_ROWS.get(name, grid_nodes(0.25)),
                 f"{name}: {data.shape[0]} rows")
        tables[name] = data
        cells += data.size
    base = race_scenario({"k": 0.57, "lambda_days": 18.2, "beta_per_day": 1 / 144,
                          "deploy_speedup": 1.0, "instant_dev": False,
                          "instant_exploit": False, "grid_step_days": 0.25})
    variants = {
        "fig9a": (base, replace(base, instant_dev=True),
                  replace(base, deploy_speedup=5.0)),
        "fig9b": tuple(replace(base, instant_exploit=True, **kw)
                       for kw in ({}, {"deploy_speedup": 5.0}, {"instant_dev": True})),
    }
    for i in req.expect["spots"]:
        t = tables["fig6"][i, 0]
        _close(f"fig6 patched_fraction[{i}]", tables["fig6"][i, 3],
               patchrace.patched_fraction(base, t))
        _close(f"fig8 exploitable_fraction[{i}]", tables["fig8"][i, 3],
               patchrace.exploitable_fraction(base, t))
        for name, scenarios in variants.items():
            for col, s in enumerate(scenarios, start=1):
                _close(f"{name}[{i}, {col}]", tables[name][i, col],
                       patchrace.exploitable_fraction(s, t))
    fig1 = tables["fig1"]
    baseline = phishing.PhishingParams(0.03, 0.015, 0.01)
    _close("fig1 no_ai", fig1[:, 1], [phishing.p_undetected(baseline, int(n)) for n in fig1[:, 0]])
    _close("fig4 refit", tables["fig4"][:, 2], tables["fig4"][:, 1], rtol=FIT_RTOL, atol=1e-9)
    return cells


def _bool(raw: str) -> bool:
    _require(raw in ("true", "false"), f"not a boolean: {raw!r}")
    return raw == "true"


def _check_fit(req: Request, out: Path) -> int:
    if req.kind == "fit-weibull":
        header = ["k", "lambda_days", "residual", "iterations", "converged"]
    else:
        header = ["total", "exploited", "unexploited", "residual", "iterations", "converged"]
    rows = read_table(out, header)
    _require(len(rows) == 1, "expected one row")
    _bool(rows[0][-1])
    values = _numbers([rows[0][:-1]], out)[0]
    _require(values[-1] >= 0 and values[-1] == int(values[-1]), "bad iteration count")
    _require(values[-2] >= 0, "negative residual")
    e = req.expect
    if req.kind == "fit-weibull":
        _close("k", values[0], e["k"], rtol=FIT_RTOL, atol=0)
        _close("lambda_days", values[1], e["lambda_days"], rtol=FIT_RTOL, atol=0)
    else:
        _close("total", values[0], e["total"], atol=0)
        _close("exploited", values[1], e["exploited"], atol=0)
        _close("unexploited", values[2], values[0] - values[1], atol=1e-9 * values[0])
    return len(header)


def _check_simulate(req: Request, out: Path) -> int:
    e = req.expect
    kind = req.kind.removeprefix("simulate-")
    if kind == "phishing":
        rows = read_table(out, ["quantity", "mean", "std_error", "trials", "seed", "rng"])
        params, n = _phishing_params(e["phishing"]), e["n"]
        exact = {"p_infection": phishing.p_infection(params, n),
                 "p_no_alert": phishing.p_no_alert(params, n),
                 "p_undetected": phishing.p_undetected(params, n)}
        _require([r[0] for r in rows] == list(exact), "unexpected quantities")
        estimates = _numbers([r[1:3] for r in rows], out)
    elif kind == "discovery":
        rows = read_table(out, ["t1_weeks", "t2_weeks", "mean", "std_error", "trials", "seed",
                                "rng"])
        _require(len(rows) == 1, "expected one row")
        _close("interval", _numbers([rows[0][:2]], out)[0], [e["t1"], e["t2"]])
        exact = {"discoveries": vulndisc.expected_discoveries(
            _tester(e["vulndisc"]), e["t1"], e["t2"])}
        estimates = _numbers([rows[0][2:4]], out)
    else:
        rows = read_table(out, ["probe_days", "exploitable_fraction", "std_error", "trials",
                                "seed", "rng"])
        _require(len(rows) == len(e["probes"]), "one row per probe expected")
        _close("probe_days", _numbers([r[:1] for r in rows], out)[:, 0], e["probes"])
        s = race_scenario(e["race"], clamp=True)
        exact = {f"exploitable@{p:g}d": patchrace.exploitable_fraction(s, p)
                 for p in e["probes"]}
        estimates = _numbers([r[1:3] for r in rows], out)
    _require(all(r[-3:-1] == [str(TRIALS), str(e["seed"])] for r in rows),
             "trials or seed not echoed")
    misses = _misses(exact, estimates)
    if misses and _misses(exact, _confirmation(kind, e)):
        raise CheckError("; ".join(misses) + f"; confirmed at {CONFIRM_TRIALS} trials")
    return sum(len(r) for r in rows)


def _misses(exact: dict, estimates) -> list[str]:
    return [f"{name}: estimate {float(mean)!r} +- {float(se)!r} is more than {SIGMAS:g} "
            f"standard errors from {value!r}"
            for (name, value), (mean, se) in zip(exact.items(), estimates)
            if not (se >= 0 and abs(mean - value) <= SIGMAS * se + 1e-12)]


def _confirmation(kind: str, e: dict) -> list[tuple[float, float]]:
    """The same input simulated again with CONFIRM_TRIALS trials and an
    independent seed, through the package functions directly."""
    cfg = SimConfig(CONFIRM_TRIALS, (e["seed"] + 1) % 2**64)
    if kind == "phishing":
        est = simulate_phishing(_phishing_params(e["phishing"]), e["n"], cfg)
        estimates = [est.infection, est.no_alert, est.undetected]
    elif kind == "discovery":
        estimates = [simulate_discovery(_tester(e["vulndisc"]), e["t1"], e["t2"], cfg)]
    else:
        estimates = simulate_race(race_scenario(e["race"], clamp=True), e["probes"], cfg)
    return [(x.mean, x.std_error) for x in estimates]


def check(req: Request, out: Path) -> int:
    """Check one response; returns the number of output cells or raises CheckError."""
    if req.kind == "patchrace":
        return _check_race_sweep(req, out).size
    if req.kind == "summary":
        return _check_summary(req, out).size
    if req.kind == "phishing":
        return _check_phishing(req, out).size
    if req.kind == "vulndisc":
        return _check_vulndisc(req, out).size
    if req.kind == "figures":
        return _check_figures(req, out)
    if req.kind.startswith("fit-"):
        return _check_fit(req, out)
    return _check_simulate(req, out)
