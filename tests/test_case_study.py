"""Smoke test for ``scripts/run_case_study.py``, run as a fresh process."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "run_case_study.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          cwd=REPO, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)


def test_case_study_reports_the_strict_check_and_writes_artifacts(tmp_path):
    done = _run("--outdir", str(tmp_path))
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


def test_case_study_reports_a_syntax_error_at_its_file(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in (REPO / "corpus").glob("evacuation.*"):
        shutil.copy(path, corpus)
    answers = corpus / "evacuation.answers"
    with open(answers, "a", encoding="utf-8") as file:
        file.write("elicitation {\n")
    done = _run("--corpus", str(corpus), "--outdir", str(tmp_path / "out"))
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"{answers}:29:13: error: ")


def test_case_study_refuses_an_unknown_duty_as_the_command_does(tmp_path, run_cli):
    done = _run("--outdir", str(tmp_path), "--responsibility", "Ghost")
    status, out, err = run_cli("elicit", str(REPO / "corpus" / "evacuation.resp"),
                               "--responsibility", "Ghost")
    assert (status, out) == (2, "")
    assert (done.returncode, done.stderr) == (2, err)
    assert err.startswith('error: unknown responsibility "Ghost"; ')
