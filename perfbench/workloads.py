"""Seeded request generators for the benchmark workloads.

A workload is a sequence of decks. A deck is a fixed multiset of request
kinds in a seeded order, so every deck carries the same mix of work and a
run that stops on a deck boundary measures the same mix whatever the seed.
Within a deck, every parameter that sets a request's cost (sweep lengths,
interval widths, expected event counts, the flags that skip a sampler step)
is balanced: a continuous one takes one value from the middle half of each
of equal slices of its range, and a discrete one cycles through its values.
So every deck costs about the same, and the seed moves the values, the order
and the parameters that leave the cost alone, not the work measured.

The generator never imports the package under test; it writes scenario and
CSV files and records, in ``Request.expect``, the values the checker needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRIALS = 100_000
BLOCK_TRIALS = 1 << 15  # montecarlo.BLOCK_TRIALS; only used to report blocks per request
GRID_STOP = 730.0
SPOT_ROWS = 8
# Discoveries per week at the start of a simulated interval; above the largest
# expected/width (40 per week), so every drawn interval can meet it.
MAX_START_RATE = 50.0

# Exploit-availability curve every generated scenario keeps (the package
# default): amplitude, growth exponent, decay per day.
EXPLOIT = (0.135, 0.349, 7.90e-4)

# Parameter families of the oracle regression suite and the bundled presets.
PHISHING_FAMILIES = (
    (0.03, 0.015, 0.01),
    (0.3, 0.005, 0.01),
    (0.3, 0.005, 0.25),
    (0.1, 0.02, 0.0),
    (0.5, 0.0, 0.05),
    (0.02, 0.01, 0.03),
)
TESTER_FAMILIES = ((6.0, 0.4), (85.5, 3.0), (60.0, 0.4), (6.0, 0.04), (2.0, 0.0))


@dataclass
class Request:
    kind: str
    argv: list[str]  # cybermodels arguments, without --out
    expect: dict = field(default_factory=dict)  # what the checker needs
    nodes: int = 0  # race grid nodes
    dev_key: tuple | None = None  # (k, lambda, step, stop) for _dev_mass_table
    workers: int = 0
    trials: int = 0
    pair: int = -1  # oracle: shared by the workers-1 and workers-2 runs of one input


def grid_nodes(step: float, stop: float = GRID_STOP) -> int:
    return int(math.floor(stop / step + 1e-9)) + 1


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """``count`` ascending values, one from the middle half of each of
    ``count`` equal slices of [lo, hi]: their sum, and so the cost they set,
    barely moves with the seed."""
    u = (np.arange(count) + rng.uniform(0.25, 0.75, count)) / count
    return (lo + (hi - lo) * u).tolist()


def _jitter(rng, value: float) -> float:
    return value * rng.uniform(0.8, 1.2)


class _Writer:
    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.count = 0

    def write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.inputs / f"in{self.count:05d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def scenario(self, sections: dict[str, dict]) -> str:
        lines = []
        for name, keys in sections.items():
            lines.append(f"[{name}]")
            for key, value in keys.items():
                text = ("true" if value else "false") if isinstance(value, bool) else repr(value)
                lines.append(f"{key} = {text}")
        return self.write(".scn", "\n".join(lines) + "\n")


def _spots(rng, rows: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(rows, size=min(SPOT_ROWS, rows), replace=False))


def _race_params(rng, speedup, instant_dev=False, instant_exploit=False, step=0.25) -> dict:
    return {
        "k": rng.uniform(0.4, 0.9),
        "lambda_days": rng.uniform(8.0, 30.0),
        "beta_per_day": rng.uniform(1 / 250, 1 / 90),
        "deploy_speedup": float(speedup),
        "instant_dev": instant_dev,
        "instant_exploit": instant_exploit,
        "grid_step_days": step,
    }


def _race_request(w: _Writer, rng, kind: str, race: dict, argv: list[str]) -> Request:
    step = race["grid_step_days"]
    nodes = grid_nodes(step)
    dev_key = None if race["instant_dev"] else (race["k"], race["lambda_days"], step, GRID_STOP)
    path = w.scenario({"patchrace": race})
    return Request(
        kind,
        argv + ["--scenario", path],
        {"race": race, "spots": _spots(rng, nodes)},
        nodes=nodes,
        dev_key=dev_key,
    )


# --------------------------------------------------------------------------
# curves: full-curve output
# --------------------------------------------------------------------------

# Sixteen race sweeps per deck, twelve of them with a development delay and so
# the convolution, against two phishing sweeps, two vulndisc requests and one
# figures request: the median latency falls among the convolution sweeps,
# and the p90 at their slow end. The small requests are pure-Python
# formatting, whose speed swings about twice as much with the load on a shared
# host as the numpy-bound sweeps; a median among them moved by 12% from run
# to run on a 2-core virtual machine. Families rotate from deck to deck, so
# each stratum sees each family equally often: the family sets how long the
# CSV cells are.
RACE_FLAGS = [(False, False)] * 8 + [(False, True)] * 4 + [(True, False), (True, True)] * 2
CURVES_SMALL_PER_DECK = 2


def _curves(rng, w: _Writer, n_decks: int) -> list[list[Request]]:
    decks = []
    for d in range(n_decks):
        deck = []
        speedups = rng.permutation([1, 2, 5] * 6)
        for (idev, iexp), speedup in zip(RACE_FLAGS, speedups):
            race = _race_params(rng, speedup, idev, iexp)
            deck.append(_race_request(w, rng, "patchrace", race, ["patchrace"]))
        for j, n in enumerate(_strata(rng, CURVES_SMALL_PER_DECK, 200, 5000)):
            fam = PHISHING_FAMILIES[(d + j) % 3]
            ph = dict(zip(("p_click", "p_human_alert", "p_machine_alert"),
                          (min(1.0, _jitter(rng, p)) for p in fam)))
            n = int(n)
            deck.append(Request(
                "phishing",
                ["phishing", "--sweep", str(n), "--scenario", w.scenario({"phishing": ph})],
                {"phishing": ph, "sweep": n, "spots": _spots(rng, n + 1)},
            ))
        for j, n in enumerate(_strata(rng, CURVES_SMALL_PER_DECK, 52, 1040)):
            c, alpha = TESTER_FAMILIES[(d + j) % len(TESTER_FAMILIES)]
            vd = {"c": _jitter(rng, c), "alpha": _jitter(rng, alpha)}
            n = int(n)
            deck.append(Request(
                "vulndisc",
                ["vulndisc", "--weeks", str(n), "--scenario", w.scenario({"vulndisc": vd})],
                {"vulndisc": vd, "weeks": n, "spots": _spots(rng, n)},
            ))
        deck.append(Request(
            "figures",
            ["figures"],
            {"spots": _spots(rng, grid_nodes(0.25))},
            dev_key=(0.57, 18.2, 0.25, GRID_STOP),
        ))
        decks.append([deck[i] for i in rng.permutation(len(deck))])
    return decks


# --------------------------------------------------------------------------
# summaries: one-row answers
# --------------------------------------------------------------------------

SUMMARY_STEPS = (0.25, 0.25, 0.25, 0.125, 0.125, 0.1, 0.1)


def _summaries(rng, w: _Writer, n_decks: int) -> list[list[Request]]:
    decks = []
    for _ in range(n_decks):
        deck = []
        speedups = rng.choice([1, 2, 5], size=len(SUMMARY_STEPS))
        for step, speedup in zip(SUMMARY_STEPS, speedups):
            race = _race_params(rng, speedup, step=step)
            deck.append(_race_request(w, rng, "summary", race, ["patchrace", "--summary"]))
        for _ in range(2):
            k, lam = rng.uniform(0.4, 2.5), rng.uniform(5.0, 60.0)
            ts = lam * rng.uniform(0.02, 0.05) * np.arange(1, 121)
            fr = -np.expm1(-((ts / lam) ** k))
            data = w.write(".csv", "t,fraction\n" + "".join(
                f"{t!r},{f!r}\n" for t, f in zip(ts.tolist(), fr.tolist())))
            deck.append(Request("fit-weibull", ["fit", "--kind", "weibull", "--data", data],
                                {"k": k, "lambda_days": lam}))
        days = int(rng.integers(60, 300))
        total = rng.uniform(150.0, 400.0)
        edges = np.arange(days + 1, dtype=float)
        a, g, b = EXPLOIT
        counts = total * np.diff(a * edges**g * np.exp(-b * edges))
        data = w.write(".csv", "bin_start,bin_end,count\n" + "".join(
            f"{s!r},{e!r},{c!r}\n"
            for s, e, c in zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())))
        deck.append(Request("fit-exploit", ["fit", "--kind", "exploit-total", "--data", data],
                            {"total": total, "exploited": float(counts.sum())}))
        decks.append([deck[i] for i in rng.permutation(len(deck))])
    return decks


# --------------------------------------------------------------------------
# oracle: Monte Carlo estimates
# --------------------------------------------------------------------------


def _bernoulli_testable(probabilities) -> bool:
    """True when a 4-standard-error test of a Bernoulli mean is sound at TRIALS:
    the event is either common enough for the normal approximation or so rare
    that no trial can show it."""
    tails = [TRIALS * min(p, 1.0 - p) for p in probabilities]
    return all(t >= 100 or t <= 1e-8 for t in tails)


def _phishing_sim(rng, n: int) -> dict:
    while True:
        fam = PHISHING_FAMILIES[rng.integers(len(PHISHING_FAMILIES))]
        pc, ph, pm = (min(1.0, _jitter(rng, p)) for p in fam)
        pa = ph + pm - ph * pm
        inf, noal = 1 - (1 - pc) ** n, (1 - pa) ** n
        if _bernoulli_testable((inf, noal, inf * noal)):
            return {"p_click": pc, "p_human_alert": ph, "p_machine_alert": pm}


def _expected_count(c: float, alpha: float, t1: float, t2: float) -> float:
    if alpha == 1.0:
        return c * math.log(t2 / t1)
    return c / (1 - alpha) * (t2 ** (1 - alpha) - t1 ** (1 - alpha))


def _discovery_sim(alpha: float, width: float, expected: float) -> tuple[dict, float, float]:
    """Tester and interval with the given exponent, width and expected count.
    The interval starts at the earliest t1 >= 0.5 weeks where the starting
    rate is at most MAX_START_RATE; the rate there sets the size of the
    sampler's largest candidate arrays, so most runs reach the same memory
    high-water mark."""

    def start_rate(t1):
        return expected / _expected_count(1.0, alpha, t1, t1 + width) * t1**-alpha

    lo, hi = 0.5, 0.5
    while start_rate(hi) > MAX_START_RATE:  # ends: the rate tends to expected/width
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if start_rate(mid) > MAX_START_RATE else (lo, mid)
    t1 = hi
    c = expected / _expected_count(1.0, alpha, t1, t1 + width)
    return {"c": c, "alpha": alpha}, t1, t1 + width


# Per oracle deck: the distinct difficulty exponents of the tester families
# (how steeply the rate falls sets how many thinning candidates are drawn),
# paired with interval widths and expected counts in a fixed order, and the
# race flags with their probe counts (instant exploits skip the sampler's
# curve inversion).
ORACLE_ALPHAS = sorted({alpha for _, alpha in TESTER_FAMILIES})
ORACLE_RACES = (((False, False), 1), ((True, True), 1), ((True, False), 2), ((False, True), 2))


def _oracle(rng, w: _Writer, n_decks: int, max_workers: int) -> list[list[Request]]:
    per_kind = len(ORACLE_RACES)
    workers = (1, min(2, max_workers))
    decks, pair = [], 0
    for _ in range(n_decks):
        inputs = []
        for n in _strata(rng, per_kind, 2, 121):
            n = int(n)
            ph = _phishing_sim(rng, n)
            inputs.append((["--kind", "phishing", "--n", str(n),
                            "--scenario", w.scenario({"phishing": ph})],
                           {"phishing": ph, "n": n}))
        widths = _strata(rng, per_kind, 1.0, 12.0)
        counts = _strata(rng, per_kind, 5.0, 40.0)[::-1]
        for alpha, width, count in zip(ORACLE_ALPHAS, widths, counts):
            vd, t1, t2 = _discovery_sim(_jitter(rng, float(alpha)), width, count)
            inputs.append((["--kind", "discovery", "--t1", repr(t1), "--t2", repr(t2),
                            "--scenario", w.scenario({"vulndisc": vd})],
                           {"vulndisc": vd, "t1": t1, "t2": t2}))
        for flags, n_probes in ORACLE_RACES:
            race = _race_params(rng, rng.choice([1, 2, 5]), *flags)
            rate = race["beta_per_day"] * race["deploy_speedup"]
            # below 5/rate days the exploitable fraction stays above ~1e-3
            probes = sorted(rng.uniform(30.0, min(365.0, 5.0 / rate), size=n_probes))
            argv = ["--kind", "race", "--scenario", w.scenario({"patchrace": race})]
            for p in probes:
                argv += ["--probe", repr(float(p))]
            inputs.append((argv, {"race": race, "probes": [float(p) for p in probes]}))
        deck = []
        for argv, expect in inputs:
            seed = int(rng.integers(0, 2**63))
            for wk in workers:
                deck.append(Request(
                    "simulate-" + argv[1],
                    ["simulate", *argv, "--trials", str(TRIALS), "--seed", str(seed),
                     "--workers", str(wk)],
                    {**expect, "seed": seed},
                    workers=wk,
                    trials=TRIALS,
                    pair=pair,
                ))
            pair += 1
        decks.append([deck[i] for i in rng.permutation(len(deck))])
    return decks


WORKLOADS = ("curves", "summaries", "oracle")


def generate(workload: str, seed: int, n_decks: int, inputs: Path, max_workers: int):
    """Write the inputs of ``n_decks`` decks under ``inputs`` and return the decks."""
    rng = np.random.default_rng(seed)
    w = _Writer(inputs)
    if workload == "curves":
        return _curves(rng, w, n_decks)
    if workload == "summaries":
        return _summaries(rng, w, n_decks)
    if workload == "oracle":
        return _oracle(rng, w, n_decks, max_workers)
    raise ValueError(f"unknown workload {workload!r}")
