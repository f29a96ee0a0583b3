"""``diff`` loads its two models in two processes when both files are large:
a forked child loads the smaller one.  Whichever path a run takes, its
stdout, stderr and exit status are those of loading the files in order,
left first.  The inputs are copies of the corpus model, renamed, until each
file is above ``cli.PARALLEL_LOAD_FLOOR``."""

import io
import os
import pickle
import re
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from respkit import analysis, cli, ingest_all, load_model
from respkit.build import ModelBuildError
from respkit.dsl import ParseFailure, parse_answers, parse_requirements
from respkit.elicitation import IngestError, answers_skeleton
from respkit.model import UnknownResponsibility
from respkit.reporting import TraceResolutionError, check_traces

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus" / "evacuation.resp"
ENTRY = "from respkit.cli import main; main()"  # the `respkit` console script
SEQUENTIAL = f"import respkit.cli as c; c.PARALLEL_LOAD_FLOOR = {sys.maxsize}; c.main()"

MODEL_LINE = re.compile(r"^model .*\n", re.MULTILINE)
QUOTED = re.compile(r'("(?:[^"\\]|\\.)*)"')
BRACKETED = re.compile(r"([<|\[])([^>|\]\n]+)([>|\]])")


def _tile(text: str, copies: int) -> str:
    """``copies`` copies of a model under its one ``model`` line, every
    quoted and bracketed name of copy ``k`` ending in `` k``."""
    out = MODEL_LINE.findall(text)
    body = MODEL_LINE.sub("", text)
    for k in range(copies):
        copy = QUOTED.sub(lambda m: f'{m[1]} {k:03d}"', body)
        out.append(BRACKETED.sub(lambda m: f"{m[1]}{m[2]} {k:03d}{m[3]}", copy))
    return "".join(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """A tiled model ``a``, the same with one duty reassigned in every copy
    (``b``, larger), and ``a`` followed by a parse error (``parse``) or by a
    build error (``build``); ``missing`` names no file."""
    text = CORPUS.read_text(encoding="utf-8")
    copies = -(-cli.PARALLEL_LOAD_FLOOR // len(text.encode())) + 1
    a = _tile(text, copies)
    texts = {
        "a": a,
        "b": _tile(text.replace("assigned to <Police>", "assigned to <Fire Service>"), copies),
        "parse": a + "responsibility {\n",
        "build": a + "agent <Dup> kind role\nagent <Dup> kind person\n",
    }
    root = tmp_path_factory.mktemp("diff-load")
    paths = {"missing": root / "missing.resp"}
    for name, content in texts.items():
        paths[name] = root / f"{name}.resp"
        paths[name].write_text(content, encoding="utf-8", newline="")
    sizes = {name: len(content.encode()) for name, content in texts.items()}
    # The cases below rely on this order to put each file in the child or here.
    assert cli.PARALLEL_LOAD_FLOOR < sizes["a"] < sizes["parse"] < sizes["build"] < sizes["b"]
    return paths


# left, right, format, exit status.  The child loads the smaller file,
# right on a tie; "here" is the parent.
CASES = {
    "equal": ("a", "a", "text", 0),
    "inconsistencies-left-in-child": ("a", "b", "text", 1),
    "inconsistencies-json": ("b", "a", "json", 1),
    "left-parse-error-here": ("parse", "a", "text", 2),
    "left-parse-error-in-child": ("parse", "b", "text", 2),
    "right-parse-error-here": ("a", "parse", "text", 2),
    "right-parse-error-in-child": ("b", "parse", "text", 2),
    "both-bad-left-parse": ("parse", "build", "text", 2),
    "both-bad-left-build": ("build", "parse", "text", 2),
    "right-build-error-in-child": ("b", "build", "text", 2),
    "right-missing": ("a", "missing", "text", 2),
}


def _argv(files: dict, case: str) -> list:
    left, right, fmt, _ = CASES[case]
    return ["diff", str(files[left]), str(files[right]), "--format", fmt]


def _run(argv: list) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdout=stdout, stderr=stderr)
    return stdout.getvalue(), stderr.getvalue(), status


def _sequential(argv: list) -> tuple:
    with mock.patch.object(cli, "PARALLEL_LOAD_FLOOR", sys.maxsize), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        result = _run(argv)
    assert fork.call_count == 0
    return result


def _parallel(argv: list, forks: int = 1) -> tuple:
    """``cli.run`` with the parallel path taken, as on a host with two CPUs."""
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        result = _run(argv)
    assert fork.call_count == forks
    return result


@pytest.mark.parametrize("case", CASES)
def test_both_load_paths_give_the_same_output(files, case):
    argv = _argv(files, case)
    expected = _sequential(argv)
    assert _parallel(argv, forks=0 if case == "right-missing" else 1) == expected
    assert expected[2] == CASES[case][3]


@pytest.mark.parametrize("case", CASES)
def test_both_load_paths_give_the_same_bytes_through_the_entry_point(files, case):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    done = [subprocess.run([sys.executable, "-c", entry, *_argv(files, case)], cwd=REPO,
                           env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
            for entry in (ENTRY, SEQUENTIAL)]
    parallel, sequential = ((d.stdout, d.stderr, d.returncode) for d in done)
    assert parallel == sequential
    assert b"Traceback" not in sequential[1]


def test_left_error_is_reported_first(files):
    """Pins the cases above to the order rule, not only to each other."""
    out, err, status = _parallel(_argv(files, "both-bad-left-parse"))
    assert (out, status) == ("", 2)
    assert err.startswith(f"{files['parse']}:") and "expected" in err
    out, err, status = _parallel(_argv(files, "right-build-error-in-child"))
    assert (out, status) == ("", 2)
    line = files["a"].read_text(encoding="utf-8").count("\n") + 2
    assert err == f"{files['build']}:{line}:1: error: " \
                  "conflicting agent kind for <Dup>: role vs person\n"


def _in_child(action):
    """A ``load_model`` that does ``action`` in a forked child, and loads as
    usual in this process, recording each path it loads here."""
    parent, loaded = os.getpid(), []

    def load(path):
        if os.getpid() != parent:
            action()
        loaded.append(path)
        return load_model(path)

    return load, loaded


def _killed() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _raises() -> None:
    raise RuntimeError("not an input error")


@pytest.mark.parametrize("action", [_killed, _raises], ids=["killed", "unexpected-error"])
@pytest.mark.parametrize("case", ["inconsistencies-left-in-child",
                                  "right-build-error-in-child", "left-parse-error-in-child"])
def test_a_child_without_an_outcome_leaves_its_file_to_the_parent(files, case, action):
    argv = _argv(files, case)
    load, loaded = _in_child(action)
    with mock.patch.object(cli, "load_model", load):
        result = _parallel(argv)
    assert result == _sequential(argv)
    left, right = (files[name] for name in CASES[case][:2])
    assert (left if left.stat().st_size < right.stat().st_size else right) in loaded


@pytest.mark.parametrize("case", ["left-parse-error-in-child", "right-parse-error-in-child",
                                  "right-build-error-in-child"])
def test_a_child_hands_back_no_error(files, case):
    """A child that meets an input error hands back nothing: this process
    loads the child's file again, in order, and reports its error."""
    argv = _argv(files, case)
    load, loaded = _in_child(lambda: None)
    with mock.patch.object(cli, "load_model", load):
        result = _parallel(argv)
    assert result == _sequential(argv)
    left, right = (files[name] for name in CASES[case][:2])
    assert (left if left.stat().st_size < right.stat().st_size else right) in loaded


@pytest.mark.parametrize("case", ["inconsistencies-left-in-child", "inconsistencies-json"])
def test_an_unexpected_error_here_propagates(files, case):
    """The child's file loads; this process's own load raises an error that
    is not an input error.  It leaves ``cli.run`` as it would in order, and
    only once the child is reaped."""
    argv = _argv(files, case)
    left, right = (files[name] for name in CASES[case][:2])
    here = right if left.stat().st_size < right.stat().st_size else left
    parent = os.getpid()

    def load(path):
        if os.getpid() == parent and path == here:
            raise RuntimeError(f"cannot load {path}")
        return load_model(path)

    raised = []
    for run, reaped in ((_sequential, 0), (_parallel, 1)):
        with mock.patch.object(cli, "load_model", load), \
                mock.patch.object(os, "waitpid", wraps=os.waitpid) as waitpid, \
                pytest.raises(RuntimeError) as caught:
            run(argv)
        assert waitpid.call_count == reaped
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1] == (RuntimeError, f"cannot load {here}")


def test_left_error_comes_before_an_unexpected_error_here(files):
    """Loaded in order, right never loads after left fails; so an error of
    this process's load of right, even one that is not an input error,
    yields to left's error from the child."""
    argv = _argv(files, "left-parse-error-in-child")
    parent, right = os.getpid(), files[CASES["left-parse-error-in-child"][1]]

    def load(path):
        if os.getpid() == parent and path == right:
            raise RuntimeError("not an input error")
        return load_model(path)

    with mock.patch.object(cli, "load_model", load):
        assert _parallel(argv) == _sequential(argv)


@pytest.mark.parametrize("call, error", [("fork", BlockingIOError(11, "no process")),
                                         ("pipe", OSError(24, "too many open files"))],
                         ids=["fork", "pipe"])
def test_no_process_to_spare_loads_in_order(files, call, error):
    """A fork or pipe that fails is not an input error: the files load here."""
    argv = _argv(files, "inconsistencies-json")
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True), \
            mock.patch.object(os, call, side_effect=error) as failing:
        assert _run(argv) == _sequential(argv)
    assert failing.call_count == 1


class _BuiltinsOnly(pickle.Unpickler):
    """An unpickler that refuses every class and function by name."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"{module}.{name} is not a builtin type")


def test_the_child_hands_back_builtin_types_only(files):
    """The child's payload is names in dicts, tuples and frozensets: no
    respkit class crosses the pipe, and it is the perception of the model."""
    pid, reader = cli._fork_load(files["a"])
    with open(reader, "rb") as pipe:
        data = pipe.read()
    assert os.waitpid(pid, 0)[1] == 0
    perception = _BuiltinsOnly(io.BytesIO(data)).load()
    assert perception == analysis.perceive(load_model(files["a"]))


def _error(make):
    with pytest.raises(cli.INPUT_ERRORS) as caught:
        make()
    return caught.value


SMALL = 'responsibility "X" {\n  requires |F| from <A> via "P"\n}\n'

ERRORS = {
    "parse": lambda: load_model("responsibility {"),
    "build": lambda: load_model("agent <A> kind role\nagent <A> kind person\n"),
    "ingest": lambda: ingest_all(load_model(SMALL), parse_answers(
        'elicitation "X" {\n  needs { |Fact| from <Gh> }\n}\n'), strict=True),
    "trace": lambda: check_traces(load_model(SMALL), parse_requirements(
        'requirement R1 {\n  text "t"\n  rationale "r"\n  traces |Gone|, <Nobody>\n}\n')),
    "unknown-duty": lambda: answers_skeleton(load_model(SMALL), "Nope"),
}
PAYLOAD = {ParseFailure: "problems", IngestError: "problems", ModelBuildError: "problems",
           TraceResolutionError: "problems", UnknownResponsibility: "problems"}


@pytest.mark.parametrize("make", ERRORS.values(), ids=ERRORS.keys())
def test_input_error_survives_pickle(make):
    """A caller's worker process can hand an input error back: it unpickles
    with its type, its message and its payload, with no pickling hook."""
    exc = _error(make)
    copy = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(exc)
    assert (str(copy), copy.args) == (str(exc), exc.args)
    assert vars(copy) == vars(exc)
    assert getattr(copy, PAYLOAD[type(exc)])
    assert cli.input_error(copy) == cli.input_error(exc)
    assert cli.input_error(exc) == "".join(p.render() + "\n" for p in exc.problems)
    assert issubclass(UnknownResponsibility, KeyError)
