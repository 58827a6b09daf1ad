#!/usr/bin/env python3
"""Run the 20-case Monte Carlo oracle suite and print an agreement table.

Each case pairs an analytic value with its independently simulated estimate;
agreement means the analytic value lies within 4 standard errors. Each row's
resolution, 4 SE as a percentage of |analytic| ("-" when the analytic value is
0), is the smallest relative error that the row could detect.
"""

import argparse
import sys

from cybermodels.montecarlo import run_regression_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    rows = run_regression_suite(trials=args.trials, workers=args.workers)
    width = max(len(f"{r.case} {r.quantity}") for r in rows)
    failures = 0
    for r in rows:
        ok = r.within_4se
        failures += not ok
        sigma = (
            abs(r.analytic - r.estimate.mean) / r.estimate.std_error
            if r.estimate.std_error > 0
            else 0.0
        )
        resolution = (
            f"{400 * r.estimate.std_error / abs(r.analytic):.2f}%" if r.analytic != 0 else "-"
        )
        print(
            f"{(r.case + ' ' + r.quantity).ljust(width)}  "
            f"analytic={r.analytic:.6f}  mc={r.estimate.mean:.6f} "
            f"(se {r.estimate.std_error:.2e}, {sigma:4.2f} sigma, resolution {resolution})  "
            f"{'ok' if ok else 'DISAGREES'}"
        )
    cases = len({r.case for r in rows})
    print(f"\n{cases} cases, {len(rows)} checks, {failures} outside 4 standard errors")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
