"""Scenario-driven command line emitting CSV plot data.

Subcommands: phishing, vulndisc, patchrace, fit, simulate, figures. Output is
always CSV (header row, 12 significant digits, LF line endings) written to
--out or standard output; ``figures`` regenerates the toolkit's standard
figure datasets, one CSV per figure, into a directory.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibration, montecarlo, patchrace, phishing, vulndisc
from .montecarlo import RNG_ALGORITHM, SimConfig
from .scenario import ScenarioError, resolve_scenario
from .series import CurveSeries, rows_to_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; bad arguments are
    # validation failures here, which must exit 1
    def error(self, message):
        raise _CliValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cybermodels", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="scenario file path or bundled preset name")
        p.add_argument("--out", help="output CSV path (default: standard output)")

    p = sub.add_parser("phishing", help="campaign sweep over message counts")
    add_common(p)
    p.add_argument("--sweep", type=int, default=1000, metavar="N",
                   help="largest campaign size to evaluate (default 1000)")

    p = sub.add_parser("vulndisc", help="weekly expected-discovery series")
    add_common(p)
    p.add_argument("--weeks", type=int, default=52, metavar="N",
                   help="number of weeks to tabulate (default 52)")

    p = sub.add_parser("patchrace", help="patch-vs-exploit race curves")
    add_common(p)
    p.add_argument("--summary", action="store_true",
                   help="emit peak time/fraction and 1-year fraction instead of the sweep")

    p = sub.add_parser("fit", help="fit model parameters to CSV data")
    add_common(p)
    p.add_argument("--kind", required=True, choices=("weibull", "exploit-total"))
    p.add_argument("--data", required=True, help="input CSV path")

    p = sub.add_parser("simulate", help="Monte Carlo estimates")
    add_common(p)
    p.add_argument("--kind", required=True, choices=("phishing", "discovery", "race"))
    p.add_argument("--n", type=int, default=26, help="campaign size (phishing)")
    p.add_argument("--t1", type=float, default=1.0, help="interval start in weeks (discovery)")
    p.add_argument("--t2", type=float, default=53.0, help="interval end in weeks (discovery)")
    p.add_argument("--probe", type=float, action="append", metavar="DAYS",
                   help="race probe time in days (repeatable; default 55 and 365)")
    p.add_argument("--trials", type=int, help="override scenario trial count")
    p.add_argument("--seed", type=int, help="override scenario seed")
    p.add_argument("--workers", type=int, help="override scenario worker count")

    p = sub.add_parser("figures", help="regenerate every bundled figure dataset")
    p.add_argument("--out", default="figures", help="output directory (default ./figures)")

    return parser


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_phishing(args) -> int:
    if args.sweep < 1:
        raise _CliValidationError(f"--sweep must be >= 1 (got {args.sweep})")
    scn = resolve_scenario(args.scenario)
    _write_text(phishing.campaign_sweep(scn.phishing, args.sweep).to_csv(), args.out)
    return EXIT_OK


def _cmd_vulndisc(args) -> int:
    if args.weeks < 1:
        raise _CliValidationError(f"--weeks must be >= 1 (got {args.weeks})")
    scn = resolve_scenario(args.scenario)
    series = vulndisc.weekly_series(scn.tester, args.weeks)
    cumulative = np.cumsum(series.column("discoveries"))
    out = CurveSeries(
        {
            "week": series.column("week"),
            "discoveries": series.column("discoveries"),
            "cumulative": cumulative,
        },
        x_label="week",
        units=series.units,
    )
    _write_text(out.to_csv(), args.out)
    return EXIT_OK


def _cmd_patchrace(args) -> int:
    scn = resolve_scenario(args.scenario)
    if args.summary:
        s = patchrace.race_summary(scn.race)
        text = rows_to_csv(
            ["peak_time_days", "peak_fraction", "fraction_at_1yr"],
            [[s.peak_time, s.peak_fraction, s.fraction_at_1yr]],
        )
    else:
        text = patchrace.race_sweep(scn.race).to_csv()
    _write_text(text, args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    scn = resolve_scenario(args.scenario)
    if args.kind == "weibull":
        samples = calibration.read_cdf_samples(args.data)
        fit = calibration.fit_weibull_cdf(samples)
        text = rows_to_csv(
            ["k", "lambda_days", "residual", "iterations", "converged"],
            [[fit.params[0], fit.params[1], fit.residual, fit.iterations, fit.converged]],
        )
    else:
        hist = calibration.read_delay_histogram(args.data)
        fit = calibration.fit_exploit_total(hist, scn.race.exploit)
        text = rows_to_csv(
            ["total", "exploited", "unexploited", "residual", "iterations", "converged"],
            [[
                fit.params[0],
                hist.total,
                calibration.implied_unexploited(fit, hist),
                fit.residual,
                fit.iterations,
                fit.converged,
            ]],
        )
    _write_text(text, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scn = resolve_scenario(args.scenario)
    cfg = scn.sim
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)

    meta = [cfg.trials, cfg.seed, RNG_ALGORITHM]
    if args.kind == "phishing":
        est = montecarlo.simulate_phishing(scn.phishing, args.n, cfg)
        rows = [
            ["p_infection", est.infection.mean, est.infection.std_error, *meta],
            ["p_no_alert", est.no_alert.mean, est.no_alert.std_error, *meta],
            ["p_undetected", est.undetected.mean, est.undetected.std_error, *meta],
        ]
        text = rows_to_csv(["quantity", "mean", "std_error", "trials", "seed", "rng"], rows)
    elif args.kind == "discovery":
        est = montecarlo.simulate_discovery(scn.tester, args.t1, args.t2, cfg)
        text = rows_to_csv(
            ["t1_weeks", "t2_weeks", "mean", "std_error", "trials", "seed", "rng"],
            [[args.t1, args.t2, est.mean, est.std_error, *meta]],
        )
    else:
        probes = args.probe or [55.0, 365.0]
        race = scn.race
        if not race.exploit.clamp_monotone:
            print("notice: simulate --kind race samples the clamped exploit curve "
                  "(clamp_monotone = true)", file=sys.stderr)
            race = replace(race, exploit=replace(race.exploit, clamp_monotone=True))
        ests = montecarlo.simulate_race(race, probes, cfg)
        rows = [
            [probe, est.mean, est.std_error, *meta] for probe, est in zip(probes, ests)
        ]
        text = rows_to_csv(
            ["probe_days", "exploitable_fraction", "std_error", "trials", "seed", "rng"], rows
        )
    _write_text(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _columns(x: str, sources: dict[str, CurveSeries], column: str) -> CurveSeries:
    """``x`` from the first source, then ``column`` of each source under its name."""
    first = next(iter(sources.values()))
    cols = {name: series.column(column) for name, series in sources.items()}
    return CurveSeries({x: first.column(x), **cols}, x_label=x, units=first.units)


def _discoveries(weeks: int) -> CurveSeries:
    presets = {
        "human_bug_bounty": "human_bug_bounty.scn",
        "black_box_fuzzer": "fuzzer.scn",
        "fast_ai": "fast_ai.scn",
        "creative_ai": "creative_ai.scn",
    }
    return _columns("week", {
        name: vulndisc.weekly_series(resolve_scenario(preset).tester, weeks)
        for name, preset in presets.items()
    }, "discoveries")


def _undetected(race, sweep) -> CurveSeries:
    presets = {
        "no_ai": "baseline.scn",
        "ai_writer": "table1_ai_writer.scn",
        "ai_writer_detector": "table1_ai_writer_detector.scn",
    }
    return _columns("n", {
        name: phishing.campaign_sweep(resolve_scenario(preset).phishing, 200)
        for name, preset in presets.items()
    }, "p_undetected")


def _dev_refit(race, sweep) -> CurveSeries:
    samples = calibration.reference_patch_dev_samples()
    fitted = patchrace.WeibullParams(*calibration.fit_weibull_cdf(samples).params)
    ts, fractions = np.array([(s.t, s.fraction) for s in samples]).T
    return CurveSeries(
        {"t": ts, "fraction": fractions, "fitted_cdf": patchrace.patch_developed_cdf(fitted, ts)},
        x_label="t", units="days",
    )


def _patch_available(race, sweep) -> CurveSeries:
    ts = np.arange(0.0, 120.5, 0.5)
    pre = race.pre_disclosure_patch_fraction
    available = patchrace.patch_developed_all_vulns(race.dev, pre, ts)
    return CurveSeries({"t": ts, "patch_available_fraction": available}, x_label="t", units="days")


def _exploit_total(race, sweep) -> CurveSeries:
    hist = calibration.reference_exploit_histogram()
    fit = calibration.fit_exploit_total(hist, race.exploit)
    return CurveSeries({
        "total_vulnerabilities": [fit.params[0]],
        "exploited": [hist.total],
        "implied_unexploited": [calibration.implied_unexploited(fit, hist)],
        "residual": [fit.residual],
    }, x_label="total_vulnerabilities")


def _exploitable_factors(race, sweep) -> CurveSeries:
    return CurveSeries({
        "t": sweep.column("t"),
        "exploit_availability": sweep.column("exploit_availability"),
        "unpatched_fraction": 1.0 - sweep.column("patched_fraction"),
        "exploitable_fraction": sweep.column("exploitable_fraction"),
    }, x_label="t", units="days")


# figure name -> builder(baseline race scenario, its race_sweep). Builders
# reach the model through module attributes at call time, never through
# function objects bound here, so wrappers installed on them see each call.
FIGURES = {
    # undetected-infection curves for the three phishing presets
    "fig1": _undetected,
    # weekly discoveries for the four tester presets, 1 and 10 years
    "fig2a": lambda race, sweep: _discoveries(52),
    "fig2b": lambda race, sweep: _discoveries(520),
    # synthetic development-delay reference points and their refit
    "fig4": _dev_refit,
    # patch-available fraction over all vulnerabilities
    "fig5": _patch_available,
    # development, deployment, and total-delay CDFs
    "fig6": lambda race, sweep: CurveSeries(
        {c: sweep.column(c) for c in ("t", "patch_dev_cdf", "patch_dep_cdf", "patched_fraction")},
        x_label="t", units="days",
    ),
    # total-vulnerability normalization of the reference exploit-delay histogram
    "fig7-summary": _exploit_total,
    # exploitable fraction and its two factors
    "fig8": _exploitable_factors,
    # technology-advance contrasts
    "fig9a": lambda race, sweep: _columns("t", {
        "baseline": sweep,
        "instant_patch_dev": patchrace.race_sweep(replace(race, instant_dev=True)),
        "deploy_5x": patchrace.race_sweep(replace(race, deploy_speedup=5.0)),
    }, "exploitable_fraction"),
    "fig9b": lambda race, sweep: _columns("t", {
        "instant_exploit": patchrace.race_sweep(replace(race, instant_exploit=True)),
        "instant_exploit_deploy_5x": patchrace.race_sweep(
            replace(race, instant_exploit=True, deploy_speedup=5.0)),
        "instant_exploit_instant_dev": patchrace.race_sweep(
            replace(race, instant_exploit=True, instant_dev=True)),
    }, "exploitable_fraction"),
}
FIGURE_NAMES = tuple(FIGURES)


def _cmd_figures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    race = resolve_scenario(None).race
    sweep = patchrace.race_sweep(race)
    for name, build in FIGURES.items():
        build(race, sweep).write_csv(outdir / f"{name}.csv")
    return EXIT_OK


_COMMANDS = {
    "phishing": _cmd_phishing,
    "vulndisc": _cmd_vulndisc,
    "patchrace": _cmd_patchrace,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (_CliValidationError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - anything else is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
