"""Smoke test for ``scripts/run_case_study.py``, run as a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "run_case_study.py"


def test_case_study_reports_the_strict_check_and_writes_artifacts(tmp_path):
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, str(SCRIPT), "--outdir", str(tmp_path)],
                          cwd=REPO, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    diagnostics = [line[2:] for line in lines
                   if line.startswith("  ") and not line.startswith("  wrote ")]
    golden = (REPO / "corpus" / "golden" / "cli" / "check_strict.err").read_text(
        encoding="utf-8")
    assert diagnostics == golden.splitlines()
    written = sorted(Path(line[len("  wrote "):]).name for line in lines
                     if line.startswith("  wrote "))
    assert written == sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 9
