"""In-memory span tracing of the package's layers, from outside the package.

``Tracer.install`` replaces public functions at the module attributes the CLI
looks up at call time with timing wrappers, and ``remove`` puts the originals
back. Each call becomes a span (name, start, end, parent, request id, and
counts such as grid nodes or fit iterations). Functions called thousands of
times per request are leaves: their calls and time are summed into the
calling span instead of becoming spans of their own. Nothing is written
until ``write``, at the end of the run.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from functools import wraps

from cybermodels import calibration, cli, montecarlo, patchrace, phishing, vulndisc
from cybermodels.series import CurveSeries


def _cells_of_series(args, kwargs, result):
    series = args[0]
    return {"cells": len(series) * len(series.columns)}


def _cells_of_rows(args, kwargs, result):
    header, rows = args[0], args[1]
    return {"cells": len(header) * len(rows)}


def _grid_nodes(args, kwargs, result):
    return {"nodes": args[0].grid.n_nodes}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _trials(args, kwargs, result):
    trials = args[-1].trials
    return {"trials": trials, "blocks": math.ceil(trials / montecarlo.BLOCK_TRIALS)}


# (owner, attribute, span name, counts taken from the call)
SPANS = [
    (cli, "main", "cli.main", None),
    (cli, "resolve_scenario", "scenario.resolve_scenario", None),
    (cli, "rows_to_csv", "series.rows_to_csv", _cells_of_rows),
    (CurveSeries, "to_csv", "series.to_csv", _cells_of_series),
    (CurveSeries, "write_csv", "series.write_csv", None),
    (patchrace, "race_sweep", "patchrace.race_sweep", _grid_nodes),
    (patchrace, "race_summary", "patchrace.race_summary", _grid_nodes),
    (patchrace, "patched_fraction", "patchrace.patched_fraction", None),
    (phishing, "campaign_sweep", "phishing.campaign_sweep", None),
    (vulndisc, "weekly_series", "vulndisc.weekly_series", None),
    (calibration, "read_cdf_samples", "calibration.read_csv", None),
    (calibration, "read_delay_histogram", "calibration.read_csv", None),
    (calibration, "fit_weibull_cdf", "calibration.fit_weibull_cdf", None),
    (calibration, "fit_exploit_total", "calibration.fit_exploit_total", None),
    (calibration, "least_squares_fit", "numerics.least_squares_fit", _iterations),
    (montecarlo, "simulate_phishing", "montecarlo.simulate_phishing", _trials),
    (montecarlo, "simulate_discovery", "montecarlo.simulate_discovery", _trials),
    (montecarlo, "simulate_race", "montecarlo.simulate_race", _trials),
]
LEAVES = [
    (patchrace, "exploit_availability", "patchrace.exploit_availability"),
    (vulndisc, "expected_discoveries", "vulndisc.expected_discoveries"),
]


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, request id, counts]
        self.spans: list[list] = []
        self.leaves: dict[int, dict[str, list[int]]] = defaultdict(dict)
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn, counts):
        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def _leaf(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                if self._stack:
                    total = self.leaves[self._stack[-1]].setdefault(name, [0, 0])
                    total[0] += 1
                    total[1] += elapsed

        return traced

    def _replace(self, owner, attr, wrapper) -> None:
        original = owner.__dict__.get(attr)
        if original is None:  # the layer was renamed or removed: its metrics read 0
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        for owner, attr, name, counts in SPANS:
            self._replace(owner, attr, lambda fn, n=name, c=counts: self._span(n, fn, c))
        for owner, attr, name in LEAVES:
            self._replace(owner, attr, lambda fn, n=name: self._leaf(n, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans and leaf calls cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        for index, leaves in self.leaves.items():
            own[index] -= sum(ns for _, ns in leaves.values())
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, counts) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "request": request}
                if counts:
                    record["counts"] = counts
                if i in self.leaves:
                    record["leaves"] = {n: {"calls": c, "ns": ns}
                                        for n, (c, ns) in self.leaves[i].items()}
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean per traced request (a layer the
        workload never calls reads 0), plus rates over the whole run."""
        ms = defaultdict(float)
        self_ms = defaultdict(float)
        counts = defaultdict(float)
        for span, own in zip(self.spans, self.self_ns()):
            name = span[0]
            ms[name] += (span[2] - span[1]) / 1e6
            self_ms[name] += own / 1e6
            for key, value in (span[5] or {}).items():
                counts[f"{name}.{key}"] += value
        for leaves in self.leaves.values():
            for name, (calls, ns) in leaves.items():
                counts[f"{name}.calls"] += calls
                ms[name] += ns / 1e6

        def per(value):
            return value / requests

        cells = counts["series.to_csv.cells"] + counts["series.rows_to_csv.cells"]
        format_ms = ms["series.to_csv"] + ms["series.rows_to_csv"]
        sim_ms = sum(ms[f"montecarlo.simulate_{k}"] for k in ("phishing", "discovery", "race"))
        trials = sum(counts[f"montecarlo.simulate_{k}.trials"]
                     for k in ("phishing", "discovery", "race"))
        metrics = {
            "cli.main.self_ms": (per(self_ms["cli.main"]), "ms"),
            "scenario.resolve_scenario.ms": (per(ms["scenario.resolve_scenario"]), "ms"),
            "patchrace.race_sweep.self_ms": (per(self_ms["patchrace.race_sweep"]), "ms"),
            "patchrace.race_summary.self_ms": (per(self_ms["patchrace.race_summary"]), "ms"),
            "patchrace.grid_nodes": (per(counts["patchrace.race_sweep.nodes"]
                                         + counts["patchrace.race_summary.nodes"]), "count"),
            "patchrace.exploit_availability.calls": (
                per(counts["patchrace.exploit_availability.calls"]), "count"),
            "patchrace.exploit_availability.ms": (per(ms["patchrace.exploit_availability"]), "ms"),
            "patchrace.patched_fraction.ms": (per(ms["patchrace.patched_fraction"]), "ms"),
            "phishing.campaign_sweep.ms": (per(ms["phishing.campaign_sweep"]), "ms"),
            "vulndisc.weekly_series.ms": (per(ms["vulndisc.weekly_series"]), "ms"),
            "vulndisc.expected_discoveries.calls": (
                per(counts["vulndisc.expected_discoveries.calls"]), "count"),
            "calibration.read_csv.ms": (per(ms["calibration.read_csv"]), "ms"),
            "calibration.fit_weibull_cdf.self_ms": (
                per(self_ms["calibration.fit_weibull_cdf"]), "ms"),
            "calibration.fit_exploit_total.ms": (per(ms["calibration.fit_exploit_total"]), "ms"),
            "numerics.least_squares_fit.ms": (per(ms["numerics.least_squares_fit"]), "ms"),
            "numerics.fit.iterations": (
                per(counts["numerics.least_squares_fit.iterations"]), "count"),
            "series.to_csv.ms": (per(ms["series.to_csv"]), "ms"),
            "series.rows_to_csv.ms": (per(ms["series.rows_to_csv"]), "ms"),
            "series.write_csv.ms": (per(ms["series.write_csv"]), "ms"),
            "series.cells": (per(cells), "count"),
            "series.ns_per_cell": (format_ms * 1e6 / cells if cells else 0.0, "ns"),
            "montecarlo.simulate_phishing.ms": (per(ms["montecarlo.simulate_phishing"]), "ms"),
            "montecarlo.simulate_discovery.ms": (per(ms["montecarlo.simulate_discovery"]), "ms"),
            "montecarlo.simulate_race.ms": (per(ms["montecarlo.simulate_race"]), "ms"),
            "montecarlo.blocks": (per(sum(counts[f"montecarlo.simulate_{k}.blocks"]
                                          for k in ("phishing", "discovery", "race"))), "count"),
            "montecarlo.trials_per_s": (trials / (sim_ms / 1e3) if sim_ms else 0.0, "1/s"),
        }
        return metrics
