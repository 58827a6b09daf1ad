"""Closed-loop benchmark of the cybermodels CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload curves|summaries|oracle --seed N \
        --seconds S --trace 0|1

One client sends each request only after the previous one returns. A request
is a CLI invocation run in-process through ``cybermodels.cli.main(argv)``
with ``--out`` pointing into a scratch directory, so kernel and formatting
time is not buried under interpreter start-up; that start-up is measured on
its own, in fresh interpreters, as ``setup_s``. Every response is checked
between requests, outside the timed interval; a nonzero exit code, a
malformed CSV or a failed check counts the request as failed.

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it runs every deck of requests twice, untraced and with every
layer traced, for half the time each, and reports per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of
standard output is the JSON result. Full results, and the spans of a traced
run, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with two OpenBLAS threads the race convolution's
# matrix-vector products ran in phases about 3x slower on a 2-core virtual
# machine, which swamps the run-to-run comparison. Both commits of a
# comparison run with this setting.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
COLD_STARTS = 9
DECKS_PER_SECOND = 2  # inputs generated ahead; the loop reuses them if it runs out


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cybermodels" / "__init__.py").is_file():
        _fail(f"no cybermodels sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cybermodels
    from cybermodels import cli

    if SRC.resolve() not in Path(cybermodels.__file__).resolve().parents:
        _fail(f"imported cybermodels from {cybermodels.__file__}, not from {SRC}")
    return cli


def cold_start_seconds(count: int) -> list[float]:
    """Wall time of fresh interpreters importing ``cybermodels.cli``; the first
    run, which may compile bytecode, is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, "-c", "import cybermodels.cli"]
    times = []
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            _fail("cold import failed: " + proc.stderr.decode(errors="replace").strip())
        if i:
            times.append(elapsed)
    return times


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cybermodels").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scn"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": f"OPENBLAS_NUM_THREADS={BLAS_THREADS} (pinned by the benchmark)",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _output_path(work: Path, req: workloads.Request) -> Path:
    return work / ("out" if req.kind == "figures" else "out.csv")


def _digest(out: Path) -> tuple[str, int]:
    """sha256 and byte count of a response (a file, or the files of a directory)."""
    h = hashlib.sha256()
    files = sorted(out.iterdir()) if out.is_dir() else [out]
    size = 0
    for f in files:
        data = f.read_bytes()
        size += len(data)
        h.update(f.name.encode() + b"\0" + data)
    return h.hexdigest(), size


class Phase:
    """One closed-loop pass: per-request latency, outcome and output sizes."""

    def __init__(self):
        self.requests: list[workloads.Request] = []
        self.latency_s: list[float] = []
        self.cells: list[int] = []
        self.bytes: list[int] = []
        self.digests: list[str | None] = []
        self.errors: list[str] = []

    def throughput_rps(self) -> float:
        """Requests per second of time spent inside ``cli.main``."""
        return len(self.latency_s) / sum(self.latency_s)


def run_request(cli, checks, req, out: Path, phase: Phase, tracer=None) -> None:
    """One request; the tracer, if any, is installed only around ``cli.main``."""
    argv = req.argv + ["--out", str(out)]
    stderr = io.StringIO()
    if tracer is not None:
        tracer.request = len(phase.requests)
        tracer.install()
    try:
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    phase.requests.append(req)
    phase.latency_s.append(elapsed)
    cells = size = 0
    digest = None
    try:
        if code != 0:
            raise checks.CheckError(f"exit code {code}: {stderr.getvalue().strip()}")
        cells = checks.check(req, out)
        digest, size = _digest(out)
    except (checks.CheckError, OSError, UnicodeDecodeError) as exc:
        phase.errors.append(f"request {len(phase.requests) - 1} ({' '.join(req.argv)}): {exc}")
    finally:
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
    phase.cells.append(cells)
    phase.bytes.append(size)
    phase.digests.append(digest)


def run_decks(cli, checks, decks, work: Path, seconds: float, tracer=None):
    """Whole decks until the untraced time inside ``cli.main`` reaches
    ``seconds``. With a tracer every deck runs twice, untraced and traced,
    alternating which goes first, so drift in machine speed falls on both
    alike. Returns the untraced and the traced phase (None without a tracer)."""
    plain = Phase()
    traced = None if tracer is None else Phase()
    for index, deck in enumerate(itertools.cycle(decks)):
        passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        for phase, deck_tracer in passes[:: 1 if index % 2 == 0 else -1]:
            for req in deck:
                run_request(cli, checks, req, _output_path(work, req), phase, deck_tracer)
        if sum(plain.latency_s) >= seconds:
            return plain, traced


def input_properties(phase: Phase) -> dict:
    reqs = phase.requests
    seen, repeats = set(), 0
    for req in reqs:
        if req.dev_key is not None:
            repeats += req.dev_key in seen
            seen.add(req.dev_key)
    sims = [r for r in reqs if r.trials]
    return {
        "requests": len(reqs),
        "kinds": dict(Counter(r.kind for r in reqs)),
        "grid_nodes_histogram": {str(k): v for k, v in
                                 sorted(Counter(r.nodes for r in reqs if r.nodes).items())},
        "cells_per_request": {"mean": statistics.fmean(phase.cells), "max": max(phase.cells)},
        "bytes_per_request": {"mean": statistics.fmean(phase.bytes), "max": max(phase.bytes)},
        "trials": sum(r.trials for r in sims),
        "blocks": sum(math.ceil(r.trials / workloads.BLOCK_TRIALS) for r in sims),
        "workers_share": {str(k): v / len(sims) for k, v in
                          sorted(Counter(r.workers for r in sims).items())},
        "repeated_dev_grid_share": repeats / len(reqs),
    }


def end_to_end(phase: Phase, cold: list[float]) -> dict[str, tuple[float, str]]:
    lat_ms = np.array(phase.latency_s) * 1e3
    p50, p90 = np.percentile(lat_ms, [50, 90])
    return {
        "setup_s": (statistics.median(cold), "s"),
        "throughput_rps": (phase.throughput_rps(), "1/s"),
        "latency_p50_ms": (float(p50), "ms"),
        "latency_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def worker_invariance_errors(phase: Phase) -> list[str]:
    """The workers-1 and workers-2 runs of one oracle input must be identical."""
    by_pair: dict[int, set] = {}
    for req, digest in zip(phase.requests, phase.digests):
        if req.pair >= 0 and digest is not None:
            by_pair.setdefault(req.pair, set()).add(digest)
    return [f"oracle input {p}: output differs between worker counts"
            for p, ds in by_pair.items() if len(ds) > 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_package()
    import checks
    import tracing

    cold = cold_start_seconds(COLD_STARTS)
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        n_decks = max(2, math.ceil(args.seconds * DECKS_PER_SECOND))
        warm_deck, *decks = workloads.generate(args.workload, args.seed, n_decks + 1, inputs,
                                               env["nproc"])
        # one request of each kind and worker count, untimed but checked:
        # first-touch costs such as lazy imports and heap growth fall here
        # instead of on the first timed requests
        warm = Phase()
        for req in {(r.kind, r.workers): r for r in warm_deck}.values():
            run_request(cli, checks, req, _output_path(work, req), warm)
        tracer = tracing.Tracer() if args.trace else None
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase, traced = run_decks(cli, checks, decks, work, seconds, tracer)
        phases = [p for p in (warm, phase, traced) if p is not None]
        errors = [e for p in phases for e in p.errors] + worker_invariance_errors(phase)
        if traced is not None:
            errors += [f"request {i}: traced output differs from untraced"
                       for i, (a, b) in enumerate(zip(phase.digests, traced.digests)) if a != b]
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
            tracer.write(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.requests) for p in phases)
    failed = sum(len(p.errors) for p in phases)
    e2e = end_to_end(phase, cold)
    if args.trace:
        metrics = tracer.layer_metrics(len(traced.requests))
        metrics["cli.out_bytes"] = (statistics.fmean(traced.bytes), "bytes")
        untraced_rps = phase.throughput_rps()
        traced_rps = traced.throughput_rps()
        metrics["trace.throughput_rps_untraced"] = (untraced_rps, "1/s")
        metrics["trace.throughput_rps_traced"] = (traced_rps, "1/s")
        metrics["trace.overhead_pct"] = ((untraced_rps / traced_rps - 1) * 100, "%")
    else:
        metrics = e2e

    props = input_properties(phase)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(phase.requests)} requests")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} requests failed)")
    print(f"  latency samples: {len(phase.latency_s)}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
        print(f"  spans: {spans_path.relative_to(ROOT)}")
    for error in errors[:10]:
        print(f"  FAILED {error}")
    print("  inputs: " + json.dumps(props))
    print("  environment: " + json.dumps(env))

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "latency_samples": len(phase.latency_s),
              "error_rate": failed / attempted, "errors": errors,
              "end_to_end": {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()},
              "inputs": props, "environment": env}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
