#!/usr/bin/env python3
"""Regenerate the bundled synthetic reference datasets under data/.

Both files are exact model output (no noise): the development-delay CDF
samples come from the baseline Weibull, and the exploit-delay histogram
spreads 160 events proportionally to the availability-curve increments.
"""

from pathlib import Path

from cybermodels.calibration import reference_exploit_histogram, reference_patch_dev_samples
from cybermodels.series import rows_to_csv, write_text


def main() -> None:
    outdir = Path(__file__).resolve().parent.parent / "data"
    outdir.mkdir(exist_ok=True)

    samples = reference_patch_dev_samples()
    dev_rows = [[s.t, s.fraction] for s in samples]
    write_text(rows_to_csv(["t", "fraction"], dev_rows), outdir / "patch_dev_reference.csv")

    hist = reference_exploit_histogram()
    rows = zip(hist.bin_edges, hist.bin_edges[1:], hist.counts)
    write_text(
        rows_to_csv(["bin_start", "bin_end", "count"], rows), outdir / "exploit_delay_reference.csv"
    )
    print(f"wrote {outdir / 'patch_dev_reference.csv'} ({len(samples)} rows)")
    print(f"wrote {outdir / 'exploit_delay_reference.csv'} ({len(hist.counts)} bins)")


if __name__ == "__main__":
    main()
