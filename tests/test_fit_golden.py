"""Exact-bits check of the fitter: ``repr`` of every FitResult below must equal
its line in ``tests/golden/fits.txt``.

The file was written once by ``PYTHONPATH=src python tests/test_fit_golden.py``,
before the fitter and the CSV reader were refactored, and is never
regenerated to make this test pass. Unlike the CLI golden files, which hold 12 significant digits,
it pins every bit of the parameters, the residual and the iteration count.
"""

from pathlib import Path

import numpy as np

from cybermodels.calibration import (
    CdfSample,
    fit_weibull_cdf,
    read_cdf_samples,
    reference_patch_dev_samples,
)
from cybermodels.numerics import least_squares_fit

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "fits.txt"


def _noisy_weibull(rng) -> list[CdfSample]:
    """60 CDF points of a random Weibull with 1% noise, kept in [0, 1] and
    non-decreasing."""
    k, lam = rng.uniform(0.3, 2.5), rng.uniform(5.0, 100.0)
    ts = lam * rng.uniform(0.02, 0.08) * np.arange(1, 61)
    fractions = -np.expm1(-((ts / lam) ** k)) + rng.normal(0.0, 0.01, ts.size)
    fractions = np.maximum.accumulate(np.clip(fractions, 0.0, 1.0))
    return [CdfSample(t, f) for t, f in zip(ts.tolist(), fractions.tolist())]


def _decay(params, xs):
    amplitude, rate, offset = params
    return amplitude * np.exp(-rate * xs) + offset


def fit_lines() -> list[str]:
    """One ``name: repr(FitResult)`` line per fit."""
    fits = [
        ("reference_samples", fit_weibull_cdf(reference_patch_dev_samples())),
        ("bundled_file", fit_weibull_cdf(read_cdf_samples(ROOT / "data" / "patch_dev_reference.csv"))),
    ]
    rng = np.random.default_rng(8)
    for i in range(20):
        fits.append((f"noisy_weibull_{i}", fit_weibull_cdf(_noisy_weibull(rng))))
    for i in range(4):
        truth = (rng.uniform(1.0, 5.0), rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0))
        xs = np.linspace(0.0, 10.0, 25)
        ys = _decay(truth, xs) + rng.normal(0.0, 0.05, xs.size)
        fit = least_squares_fit(
            _decay, np.column_stack((xs, ys)), [2.0, 0.5, 0.0], [(0.0, 10.0), (0.0, 5.0), (-5.0, 5.0)]
        )
        fits.append((f"three_param_{i}", fit))
    return [f"{name}: {fit!r}" for name, fit in fits]


def test_fits_match_golden_bit_for_bit():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = fit_lines()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(fit_lines()) + "\n", encoding="utf-8")
