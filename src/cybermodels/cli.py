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

FIGURE_NAMES = (
    "fig1",
    "fig2a",
    "fig2b",
    "fig4",
    "fig5",
    "fig6",
    "fig7-summary",
    "fig8",
    "fig9a",
    "fig9b",
)


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


def _merge_series(x_name: str, x, named_columns: dict[str, np.ndarray], units="") -> CurveSeries:
    return CurveSeries({x_name: x, **named_columns}, x_label=x_name, units=units)


def _figures(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)

    # fig1: undetected-infection curves for the three phishing presets
    presets = {
        "no_ai": "baseline.scn",
        "ai_writer": "table1_ai_writer.scn",
        "ai_writer_detector": "table1_ai_writer_detector.scn",
    }
    cols = {}
    ns = None
    for name, preset in presets.items():
        sweep = phishing.campaign_sweep(resolve_scenario(preset).phishing, 200)
        ns = sweep.column("n")
        cols[name] = sweep.column("p_undetected")
    _merge_series("n", ns, cols, "messages").write_csv(outdir / "fig1.csv")

    # fig2a / fig2b: weekly discoveries for the four tester presets
    testers = {
        "human_bug_bounty": "human_bug_bounty.scn",
        "black_box_fuzzer": "fuzzer.scn",
        "fast_ai": "fast_ai.scn",
        "creative_ai": "creative_ai.scn",
    }
    for fname, weeks in (("fig2a.csv", 52), ("fig2b.csv", 520)):
        cols = {}
        wk = None
        for name, preset in testers.items():
            series = vulndisc.weekly_series(resolve_scenario(preset).tester, weeks)
            wk = series.column("week")
            cols[name] = series.column("discoveries")
        _merge_series("week", wk, cols, "discoveries per week").write_csv(outdir / fname)

    race = resolve_scenario(None).race

    # fig4: synthetic development-delay reference points and their refit
    samples = calibration.reference_patch_dev_samples()
    fit = calibration.fit_weibull_cdf(samples)
    fitted = patchrace.WeibullParams(*fit.params)
    ts, fractions = np.array([(s.t, s.fraction) for s in samples]).T
    _merge_series(
        "t",
        ts,
        {"fraction": fractions, "fitted_cdf": patchrace.patch_developed_cdf(fitted, ts)},
        "days",
    ).write_csv(outdir / "fig4.csv")

    # fig5: patch-available fraction over all vulnerabilities
    ts = np.arange(0.0, 120.5, 0.5)
    pre = race.pre_disclosure_patch_fraction
    available = patchrace.patch_developed_all_vulns(race.dev, pre, ts)
    _merge_series("t", ts, {"patch_available_fraction": available}, "days").write_csv(
        outdir / "fig5.csv"
    )

    # fig6: development, deployment, and total-delay CDFs
    sweep = patchrace.race_sweep(race)
    _merge_series(
        "t",
        sweep.column("t"),
        {
            "patch_dev_cdf": sweep.column("patch_dev_cdf"),
            "patch_dep_cdf": sweep.column("patch_dep_cdf"),
            "patched_fraction": sweep.column("patched_fraction"),
        },
        "days",
    ).write_csv(outdir / "fig6.csv")

    # fig7-summary: total-vulnerability normalization of the reference
    # exploit-delay histogram
    hist = calibration.reference_exploit_histogram()
    efit = calibration.fit_exploit_total(hist, race.exploit)
    (outdir / "fig7-summary.csv").write_text(
        rows_to_csv(
            ["total_vulnerabilities", "exploited", "implied_unexploited", "residual"],
            [[efit.params[0], hist.total, calibration.implied_unexploited(efit, hist), efit.residual]],
        ),
        encoding="utf-8",
    )

    # fig8: exploitable fraction and its two factors
    _merge_series(
        "t",
        sweep.column("t"),
        {
            "exploit_availability": sweep.column("exploit_availability"),
            "unpatched_fraction": 1.0 - sweep.column("patched_fraction"),
            "exploitable_fraction": sweep.column("exploitable_fraction"),
        },
        "days",
    ).write_csv(outdir / "fig8.csv")

    # fig9a / fig9b: technology-advance contrasts
    variants_a = {
        "baseline": race,
        "instant_patch_dev": replace(race, instant_dev=True),
        "deploy_5x": replace(race, deploy_speedup=5.0),
    }
    variants_b = {
        "instant_exploit": replace(race, instant_exploit=True),
        "instant_exploit_deploy_5x": replace(race, instant_exploit=True, deploy_speedup=5.0),
        "instant_exploit_instant_dev": replace(race, instant_exploit=True, instant_dev=True),
    }
    for fname, variants in (("fig9a.csv", variants_a), ("fig9b.csv", variants_b)):
        cols = {}
        ts = None
        for name, variant in variants.items():
            vsweep = patchrace.race_sweep(variant)
            ts = vsweep.column("t")
            cols[name] = vsweep.column("exploitable_fraction")
        _merge_series("t", ts, cols, "days").write_csv(outdir / fname)


def _cmd_figures(args) -> int:
    _figures(Path(args.out))
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
