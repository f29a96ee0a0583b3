"""Byte-exact snapshots of every subcommand form on the evacuation corpus.

Each form's stdout, stderr and exit status are pinned under
``corpus/golden/cli/``.  Forms that read the merged model first write the
output of ``ingest`` on the corpus answers to a temporary file.

The same snapshots are checked once more for every form on a copy of the
corpus with CRLF line ends, and through the real entry point, as a fresh
process: every form once, and a few forms under several ``PYTHONHASHSEED``
values.

The help and usage text of the command and of each subcommand, the usage
error of each subcommand run bare, and the command's own usage error after
a subcommand was named are pinned under ``corpus/golden/help/`` at a
terminal width of 80 columns.

To regenerate the snapshots after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root
and review the diff.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from respkit import cli

REPO = Path(__file__).resolve().parent.parent
GOLDEN_CLI = REPO / "corpus" / "golden" / "cli"
GOLDEN_HELP = REPO / "corpus" / "golden" / "help"

RESP = "corpus/evacuation.resp"
ANSWERS = "corpus/evacuation.answers"
REQS = "corpus/evacuation.reqs"
MERGED = "{merged}"
DUTY = ("--responsibility", "Evacuate area")

FORMS: dict[str, tuple[str, ...]] = {
    "check": ("check", RESP),
    "check_strict": ("check", RESP, "--strict"),
    "analyze_text": ("analyze", RESP),
    "analyze_json": ("analyze", RESP, "--format", "json"),
    "elicit": ("elicit", RESP, *DUTY),
    "ingest": ("ingest", RESP, ANSWERS),
    "ingest_strict": ("ingest", RESP, ANSWERS, "--strict"),
    "tables_md": ("tables", MERGED, *DUTY),
    "tables_csv": ("tables", MERGED, *DUTY, "--format", "csv"),
    "hazards_md": ("hazards", MERGED, *DUTY),
    "hazards_csv": ("hazards", MERGED, *DUTY, "--format", "csv"),
    "mitigations": ("mitigations", MERGED, *DUTY),
    "requirements": ("requirements", MERGED, REQS),
    "requirements_report": ("requirements", MERGED, REQS, "--report"),
    "dot": ("dot", RESP),
    "diff": ("diff", RESP, MERGED),
}

SUBCOMMANDS = ("check", "analyze", "elicit", "ingest", "tables", "hazards",
               "mitigations", "requirements", "dot", "diff")
# Each subcommand with its required arguments, so that argparse gets past it.
REQUIRED_ARGS: dict[str, tuple[str, ...]] = {
    "check": (RESP,), "analyze": (RESP,), "elicit": (RESP, *DUTY),
    "ingest": (RESP, ANSWERS), "tables": (RESP, *DUTY), "hazards": (RESP, *DUTY),
    "mitigations": (RESP, *DUTY), "requirements": (RESP, REQS), "dot": (RESP,),
    "diff": (RESP, RESP),
}
HELP_FORMS: dict[str, tuple[str, ...]] = {
    "help": ("--help",),
    "no_arguments": (),
    "unknown_subcommand": ("frobnicate",),
    **{f"{sub}_help": (sub, "--help") for sub in SUBCOMMANDS},
    **{f"{sub}_usage": (sub,) for sub in SUBCOMMANDS},
    # The top-level usage error, met after a subcommand was named: it must
    # list every subcommand, whichever one the command line named.
    **{f"{sub}_unknown_option": (sub, *REQUIRED_ARGS[sub], "--bogus")
       for sub in SUBCOMMANDS},
    "option_before_subcommand": ("--strict", "check", RESP),
    "double_dash_before_subcommand": ("--", "check", RESP),
    "misspelt_subcommand": ("chec", RESP),
}
# argparse wraps help text at the terminal width, which COLUMNS sets.
COLUMNS = "80"


def _invoke(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    status = cli.run(list(argv), stdout=stdout, stderr=stderr)
    return status, stdout.getvalue(), stderr.getvalue()


def _run_form(name: str, workdir: Path):
    """Run one form from the current directory, which holds ``corpus/``; the
    merged model lives in ``workdir`` and is named by a relative path."""
    merged = workdir / "merged.resp"
    if not merged.exists():
        status, out, err = _invoke(FORMS["ingest"])
        assert (status, err) == (0, ""), err
        merged.write_text(out, encoding="utf-8", newline="")
    relative = os.path.relpath(merged)
    return _invoke(a.replace(MERGED, relative) for a in FORMS[name])


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def statuses():
    return json.loads(_read(GOLDEN_CLI / "status.json"))


@pytest.fixture()
def at_repo_root(monkeypatch, tmp_path):
    monkeypatch.chdir(REPO)
    return tmp_path


@pytest.mark.parametrize("name", sorted(FORMS))
def test_cli_form_matches_golden(name, statuses, at_repo_root):
    status, out, err = _run_form(name, at_repo_root)
    assert status == statuses[name]
    assert out == _read(GOLDEN_CLI / f"{name}.out")
    assert err == _read(GOLDEN_CLI / f"{name}.err")


@pytest.fixture()
def at_crlf_copy(monkeypatch, tmp_path):
    """A directory holding the three corpus files with CRLF line ends."""
    (tmp_path / "corpus").mkdir()
    for name in (RESP, ANSWERS, REQS):
        text = (REPO / name).read_bytes()
        assert b"\r" not in text
        (tmp_path / name).write_bytes(text.replace(b"\n", b"\r\n"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "work").mkdir()
    return tmp_path / "work"


@pytest.mark.parametrize("name", sorted(FORMS))
def test_crlf_corpus_matches_golden(name, statuses, at_crlf_copy):
    assert _run_form(name, at_crlf_copy) == (
        statuses[name], _read(GOLDEN_CLI / f"{name}.out"),
        _read(GOLDEN_CLI / f"{name}.err"))


@pytest.mark.parametrize("name", sorted(HELP_FORMS))
def test_help_and_usage_match_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    statuses = json.loads(_read(GOLDEN_HELP / "status.json"))
    assert _invoke(HELP_FORMS[name]) == (
        statuses[name], _read(GOLDEN_HELP / f"{name}.out"),
        _read(GOLDEN_HELP / f"{name}.err"))


ENTRY = "from respkit.cli import main; main()"  # the `respkit` console script
PROCESS_FORMS = ("check_strict", "analyze_json", "dot", "ingest", "diff")
# Every form goes through the entry point once; a few under several seeds.
ENTRY_CASES = [(name, hashseed) for name in PROCESS_FORMS for hashseed in "012"]
ENTRY_CASES += [(name, "0") for name in sorted(FORMS) if name not in PROCESS_FORMS]


@pytest.mark.parametrize("name, hashseed", ENTRY_CASES)
def test_entry_point_matches_golden(name, hashseed, statuses, tmp_path):
    merged = tmp_path / "merged.resp"
    merged.write_bytes((GOLDEN_CLI / "ingest.out").read_bytes())
    argv = [a.replace(MERGED, os.path.relpath(merged, REPO)) for a in FORMS[name]]
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=REPO, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    assert done.returncode == statuses[name]
    assert done.stdout == (GOLDEN_CLI / f"{name}.out").read_bytes()
    assert done.stderr == (GOLDEN_CLI / f"{name}.err").read_bytes()


def _write_goldens(folder: Path, runs: dict) -> None:
    """Write each run's stdout and stderr, and every exit status, to ``folder``."""
    folder.mkdir(parents=True, exist_ok=True)
    for name, (status, out, err) in runs.items():
        (folder / f"{name}.out").write_bytes(out.encode("utf-8"))
        (folder / f"{name}.err").write_bytes(err.encode("utf-8"))
    statuses = {name: status for name, (status, _, _) in runs.items()}
    (folder / "status.json").write_text(
        json.dumps(statuses, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _regenerate() -> None:
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        _write_goldens(GOLDEN_CLI, {name: _run_form(name, Path(tmp))
                                    for name in sorted(FORMS)})
    os.environ["COLUMNS"] = COLUMNS
    _write_goldens(GOLDEN_HELP, {name: _invoke(argv)
                                 for name, argv in sorted(HELP_FORMS.items())})


if __name__ == "__main__":
    sys.exit(_regenerate())
