"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that a short run of every workload reports every metric named in
BENCHMARK.json with its unit and no failed request; that a response with one
perturbed cell, and a request forced to a nonzero exit, each count as failed;
and that the benchmark refuses to run where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def short_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace))
            expect(proc.returncode == 0, f"{workload} trace {trace} exited "
                   f"{proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics {got}, expected {want}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {lines[-12:]}")
            expect(any(line.split()[:2] == ["error_rate", "0"] for line in lines),
                   f"{workload} trace {trace}: no error_rate line reading 0")
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} requests")


class Damaging:
    """Stands in for the CLI module: runs the real CLI, then damages the response."""

    def __init__(self, cli, damage):
        self.cli = cli
        self.damage = damage

    def main(self, argv) -> int:
        code = self.cli.main(argv)
        return self.damage(Path(argv[argv.index("--out") + 1]), code)


def perturb_one_cell(rng):
    def damage(out: Path, code: int) -> int:
        lines = out.read_text(encoding="utf-8").split("\n")
        row = int(rng.integers(1, len(lines) - 1))
        cells = lines[row].split(",")
        col = int(rng.integers(len(cells)))
        value = float(cells[col])
        cells[col] = repr(value * 1.001 if abs(value) > 1e-6 else value + 1e-3)
        lines[row] = ",".join(cells)
        out.write_text("\n".join(lines), encoding="utf-8")
        return code

    return damage


def corrupted_responses(cli, checks) -> None:
    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        work = Path(tmp)
        decks = []
        for workload in ("curves", "summaries"):
            (work / workload).mkdir()
            decks += workloads.generate(workload, 7, 1, work / workload, 1)[0]
        samples = {req.kind: req for req in decks if req.kind in
                   ("patchrace", "phishing", "vulndisc", "summary")}
        for kind, req in samples.items():
            out = work / "out.csv"
            for cli_like, failures, what in (
                (cli, 0, "intact response"),
                (Damaging(cli, perturb_one_cell(rng)), 1, "one perturbed cell"),
                (Damaging(cli, lambda out, code: 2), 1, "forced exit code 2"),
            ):
                phase = run.Phase()
                run.run_request(cli_like, checks, req, out, phase)
                expect(len(phase.errors) == failures,
                       f"{kind}, {what}: {len(phase.errors)} failed, expected {failures}: "
                       f"{phase.errors}")
            print(f"ok  {kind}: intact passes; perturbed cell and nonzero exit count as failed")


def refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=Path(tmp))
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  refuses to run without package sources")


def main() -> int:
    cli = run.load_package()
    import checks

    run.WORK_DIR.mkdir(exist_ok=True)
    corrupted_responses(cli, checks)
    refuses_without_sources()
    short_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
