"""The CLI's exact bytes: every case of ``scripts/cli_digest.py`` against the
committed ``tests/golden/cli_digest.txt``.

Each line holds a case's exit code and the digests of its stdout, its stderr
and the files it wrote. A change that moves a CLI byte rewrites the file with
the script (see its docstring), so the file's diff shows every moved line.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_digest.txt"

_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def _committed() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines)


def test_every_case_gives_its_committed_line(tmp_path):
    committed = _committed()
    assert list(committed) == [case for case, _, _ in cli_digest.CASES]
    now = {
        case: cli_digest.run_case(args, inputs, tmp_path / str(i))
        for i, (case, args, inputs) in enumerate(cli_digest.CASES)
    }
    differ = [case for case in committed if now[case] != committed[case]]
    assert not differ, "\n".join(
        f"{case}\n  committed {committed[case]}\n  now       {now[case]}" for case in differ
    )


def test_python_m_process_gives_the_committed_line(tmp_path):
    # the one run of the package as __main__, in a real process
    case, args, inputs = next(c for c in cli_digest.CASES if c[0] == "notice-coarse-grid")
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "cybermodels.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"peak_time_days,peak_fraction,fraction_at_1yr\n")
    assert proc.stderr.startswith(b"notice: grid step 2")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
    digest = cli_digest._digest
    line = f"exit=0 stdout={digest(proc.stdout)} stderr={digest(proc.stderr)} files=-"
    assert line == _committed()[case]
