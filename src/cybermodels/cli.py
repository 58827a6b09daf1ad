"""Scenario-driven command line emitting CSV plot data.

Subcommands: phishing, vulndisc, patchrace, fit, simulate, figures. ``main``
alone resolves the scenario (--scenario, or the baseline defaults; ``figures``
always reads the baseline) and passes it to the handler. Each handler returns
a table (a CurveSeries or a (header, rows) pair; ``figures`` a mapping of
figure name to CurveSeries for the toolkit's standard figure datasets), and
``main`` alone formats and writes it: CSV (header row, 12 significant digits,
LF line endings) to --out or standard output, or one CSV per figure into the
--out directory.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import calibration, montecarlo, patchrace, phishing, vulndisc
from .montecarlo import RNG_ALGORITHM
from .numerics import check, finite_float, raise_at_first
from .scenario import load_preset, resolve_scenario
from .series import CurveSeries, rows_to_csv, write_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; bad arguments are
    # validation failures here, which must exit 1
    def error(self, message):
        raise ValueError(message)


def _finite(raw: str) -> float:
    # argparse shows an ArgumentTypeError's own text after the flag name
    try:
        return finite_float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="cybermodels", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="scenario file path or bundled preset name")
        p.add_argument("--out", help="output CSV path (default: standard output)")

    p = sub.add_parser("phishing", help="campaign sweep over message counts")
    p.set_defaults(run=_cmd_phishing)
    add_common(p)
    p.add_argument("--sweep", type=int, default=1000, metavar="N",
                   help="largest campaign size to evaluate (default 1000)")

    p = sub.add_parser("vulndisc", help="weekly expected-discovery series")
    p.set_defaults(run=_cmd_vulndisc)
    add_common(p)
    p.add_argument("--weeks", type=int, default=52, metavar="N",
                   help="number of weeks to tabulate (default 52)")

    p = sub.add_parser("patchrace", help="patch-vs-exploit race curves")
    p.set_defaults(run=_cmd_patchrace)
    add_common(p)
    p.add_argument("--summary", action="store_true",
                   help="emit peak time/fraction and 1-year fraction instead of the sweep")

    p = sub.add_parser("fit", help="fit model parameters to CSV data")
    p.set_defaults(run=_cmd_fit)
    add_common(p)
    p.add_argument("--kind", required=True, choices=("weibull", "exploit-total"))
    p.add_argument("--data", required=True, help="input CSV path")

    p = sub.add_parser("simulate", help="Monte Carlo estimates")
    p.set_defaults(run=_cmd_simulate)
    add_common(p)
    p.add_argument("--kind", required=True, choices=("phishing", "discovery", "race"))
    p.add_argument("--n", type=int, default=26, help="campaign size (phishing)")
    p.add_argument("--t1", type=_finite, default=1.0, help="interval start in weeks (discovery)")
    p.add_argument("--t2", type=_finite, default=53.0, help="interval end in weeks (discovery)")
    p.add_argument("--probe", type=_finite, action="append", metavar="DAYS",
                   help="race probe time in days (repeatable; default 55 and 365)")
    p.add_argument("--trials", type=int, help="override scenario trial count")
    p.add_argument("--seed", type=int, help="override scenario seed")
    p.add_argument("--workers", type=int, help="override scenario worker count")

    p = sub.add_parser("figures", help="regenerate every bundled figure dataset")
    p.set_defaults(run=_cmd_figures, scenario=None)
    p.add_argument("--out", default="figures", help="output directory (default ./figures)")

    return parser


def _cmd_phishing(args, scn) -> CurveSeries:
    check("--sweep", args.sweep, "must be >= 1")
    return phishing.campaign_sweep(scn.phishing, args.sweep)


def _cmd_vulndisc(args, scn) -> CurveSeries:
    check("--weeks", args.weeks, "must be >= 1")
    series = vulndisc.weekly_series(scn.tester, args.weeks)
    with np.errstate(over="ignore"):  # reported below, naming the week
        cumulative = np.cumsum(series.column("discoveries"))
    raise_at_first(~np.isfinite(cumulative),
                   "{scenario}: cumulative discoveries pass the float range at week {week:g}; "
                   "c = {c} is too large", scenario=args.scenario, week=series.column("week"),
                   c=scn.tester.initial_rate)
    return CurveSeries({**series.columns, "cumulative": cumulative}, series.x_label)


def _cmd_patchrace(args, scn):
    if args.summary:
        s = patchrace.race_summary(scn.race)
        step = scn.race.grid.step
        if step > 1.0:
            print(f"notice: grid step {step} days is coarse; the peak is only located "
                  "to grid resolution", file=sys.stderr)
        return (
            ["peak_time_days", "peak_fraction", "fraction_at_1yr"],
            [[s.peak_time, s.peak_fraction, s.fraction_at_1yr]],
        )
    return patchrace.race_sweep(scn.race)


def _cmd_fit(args, scn):
    if args.kind == "weibull":
        samples = calibration.read_cdf_samples(args.data)
        fit = calibration.fit_weibull_cdf(samples)
        return (
            ["k", "lambda_days", "residual", "iterations", "converged"],
            [[fit.params[0], fit.params[1], fit.residual, fit.iterations, fit.converged]],
        )
    hist = calibration.read_delay_histogram(args.data)
    fit = calibration.fit_exploit_total(hist, scn.race.exploit)
    return (
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


def _cmd_simulate(args, scn):
    flags = {"trials": args.trials, "seed": args.seed, "workers": args.workers}
    cfg = replace(scn.sim, **{name: value for name, value in flags.items() if value is not None})

    meta = [cfg.trials, cfg.seed, RNG_ALGORITHM]
    if args.kind == "phishing":
        est = montecarlo.simulate_phishing(scn.phishing, args.n, cfg)
        rows = [
            ["p_infection", est.infection.mean, est.infection.std_error, *meta],
            ["p_no_alert", est.no_alert.mean, est.no_alert.std_error, *meta],
            ["p_undetected", est.undetected.mean, est.undetected.std_error, *meta],
        ]
        return ["quantity", "mean", "std_error", "trials", "seed", "rng"], rows
    if args.kind == "discovery":
        est = montecarlo.simulate_discovery(scn.tester, args.t1, args.t2, cfg)
        return (
            ["t1_weeks", "t2_weeks", "mean", "std_error", "trials", "seed", "rng"],
            [[args.t1, args.t2, est.mean, est.std_error, *meta]],
        )
    probes = args.probe or [55.0, 365.0]
    ests = montecarlo.simulate_race(scn.race, probes, cfg)
    rows = [[probe, est.mean, est.std_error, *meta] for probe, est in zip(probes, ests)]
    return ["probe_days", "exploitable_fraction", "std_error", "trials", "seed", "rng"], rows


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _columns(x: str, sources: dict[str, CurveSeries], column: str) -> CurveSeries:
    """``x`` from the first source, then ``column`` of each source under its name."""
    first = next(iter(sources.values()))
    cols = {name: series.column(column) for name, series in sources.items()}
    return CurveSeries({x: first.column(x), **cols}, x_label=x)


def _cmd_figures(args, scn) -> dict[str, CurveSeries]:
    # The model is reached through module attributes at call time, never
    # through function objects bound here, so wrappers installed on them see
    # each call.
    race = scn.race
    sweep = patchrace.race_sweep(race)
    phishing_presets = {
        "no_ai": load_preset("baseline.scn").phishing,
        "ai_writer": load_preset("table1_ai_writer.scn").phishing,
        "ai_writer_detector": load_preset("table1_ai_writer_detector.scn").phishing,
    }
    testers = {
        "human_bug_bounty": load_preset("human_bug_bounty.scn").tester,
        "black_box_fuzzer": load_preset("fuzzer.scn").tester,
        "fast_ai": load_preset("fast_ai.scn").tester,
        "creative_ai": load_preset("creative_ai.scn").tester,
    }
    samples = calibration.reference_patch_dev_samples()
    refit = patchrace.WeibullParams(*calibration.fit_weibull_cdf(samples).params)
    sample_ts, sample_fractions = np.array([(s.t, s.fraction) for s in samples]).T
    hist = calibration.reference_exploit_histogram()
    total = calibration.fit_exploit_total(hist, race.exploit)
    dev_ts = np.arange(0.0, 120.5, 0.5)

    ten_years = _columns("week", {
        name: vulndisc.weekly_series(tester, 520) for name, tester in testers.items()
    }, "discoveries")

    return {
        # undetected-infection curves for the three phishing presets
        "fig1": _columns("n", {
            name: phishing.campaign_sweep(params, 200)
            for name, params in phishing_presets.items()
        }, "p_undetected"),
        # weekly discoveries for the four tester presets: the first year, and 10 years
        "fig2a": CurveSeries({c: v[:52] for c, v in ten_years.columns.items()}, "week"),
        "fig2b": ten_years,
        # synthetic development-delay reference points and their refit
        "fig4": CurveSeries({
            "t": sample_ts,
            "fraction": sample_fractions,
            "fitted_cdf": patchrace.patch_developed_cdf(refit, sample_ts),
        }, x_label="t"),
        # patch-available fraction over all vulnerabilities
        "fig5": CurveSeries({
            "t": dev_ts,
            "patch_available_fraction": patchrace.patch_developed_all_vulns(
                race.dev, race.pre_disclosure_patch_fraction, dev_ts),
        }, x_label="t"),
        # development, deployment, and total-delay CDFs
        "fig6": CurveSeries({
            c: sweep.column(c) for c in ("t", "patch_dev_cdf", "patch_dep_cdf", "patched_fraction")
        }, x_label="t"),
        # total-vulnerability normalization of the reference exploit-delay histogram
        "fig7-summary": CurveSeries({
            "total_vulnerabilities": [total.params[0]],
            "exploited": [hist.total],
            "implied_unexploited": [calibration.implied_unexploited(total, hist)],
            "residual": [total.residual],
        }, x_label="total_vulnerabilities"),
        # exploitable fraction and its two factors
        "fig8": CurveSeries({
            "t": sweep.column("t"),
            "exploit_availability": sweep.column("exploit_availability"),
            "unpatched_fraction": 1.0 - sweep.column("patched_fraction"),
            "exploitable_fraction": sweep.column("exploitable_fraction"),
        }, x_label="t"),
        # technology-advance contrasts
        "fig9a": _columns("t", {
            "baseline": sweep,
            "instant_patch_dev": patchrace.race_sweep(replace(race, instant_dev=True)),
            "deploy_5x": patchrace.race_sweep(replace(race, deploy_speedup=5.0)),
        }, "exploitable_fraction"),
        "fig9b": _columns("t", {
            "instant_exploit": patchrace.race_sweep(replace(race, instant_exploit=True)),
            "instant_exploit_deploy_5x": patchrace.race_sweep(
                replace(race, instant_exploit=True, deploy_speedup=5.0)),
            "instant_exploit_instant_dev": patchrace.race_sweep(
                replace(race, instant_exploit=True, instant_dev=True)),
        }, "exploitable_fraction"),
    }


# The flags of type _finite. argparse reads a value such as -inf or -1e5 as an
# option, so main first joins each to a following token that float() accepts:
# "--probe -inf" becomes "--probe=-inf" and reaches the flag's own check. So
# does a prefix of exactly one of them, which argparse takes for the flag:
# "--prob -inf"; "--t", a prefix of both --t1 and --t2, is left for argparse
# to call ambiguous.
_NUMBER_FLAGS = ("--t1", "--t2", "--probe")


def _join_number_flags(argv) -> list[str]:
    joined = []
    for token in argv:
        if (joined and sum(f.startswith(joined[-1]) for f in _NUMBER_FLAGS) == 1
                and _is_float(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# Built once, after the handlers it names; parse_args leaves the parser as it
# found it, so every in-process main call parses against the same table.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_join_number_flags(sys.argv[1:] if argv is None else argv))
        result = args.run(args, resolve_scenario(args.scenario))
        if isinstance(result, dict):  # figures: one CSV per table into a directory
            Path(args.out).mkdir(parents=True, exist_ok=True)
            for name, series in result.items():
                series.write_csv(Path(args.out) / f"{name}.csv")
        elif isinstance(result, CurveSeries):
            result.write_csv(args.out)
        else:  # a (header, rows) pair
            write_text(rows_to_csv(*result), args.out)
        return EXIT_OK
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:  # bad arguments, scenarios and input files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - anything else is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
