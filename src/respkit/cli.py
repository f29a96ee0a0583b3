"""Command-line pipeline over model, answer and requirement files.

Every subcommand is a row of ``COMMANDS``: its help, its handler and its
arguments.  A handler is a thin wrapper over the library that takes the
parsed arguments and returns ``(stdout_text, stderr_text, status)``; it
writes nothing.  ``run`` is the one writer: diagnostics go to stderr, then
the artifact to stdout or to the file named by ``-o``, in UTF-8 whatever
the locale under ``main``.  A run that fails writes no artifact.  Exit
status 0 means success with nothing to report, 1 means findings or
inconsistencies at or above the failure level, 2 means a usage, parse or
resolution error.
"""

import argparse
import atexit
import contextlib
import errno
import gc
import os
import stat
import sys
from pathlib import Path
from typing import Optional, TextIO

from . import analysis, elicitation, hazards, reporting
from .build import load_model, read_input
from .dsl import parse_answers, parse_requirements, print_model, print_requirements
from .elicitation import ingest_all
from .model import SEVERITIES, InfoTable, InputError, Problem, printable, validate

# The errors an input can cause.  Each ends a run with one line per problem
# on stderr and exit status 2.
INPUT_ERRORS = (InputError, OSError)


def input_error(exc: Exception) -> str:
    """The stderr text for one of ``INPUT_ERRORS``: one rendered line per
    problem.  An ``OSError`` is one problem with no place."""
    if isinstance(exc, OSError):
        exc = InputError([Problem(None, str(exc))])
    return f"{exc}\n"


Output = tuple[str, str, int]  # stdout text, stderr text, exit status


def _check(args: argparse.Namespace) -> Output:
    findings = validate(load_model(args.file), strict=args.strict)
    return "", "".join(printable(finding.render()) + "\n" for finding in findings), 0


def _analyze(args: argparse.Namespace) -> Output:
    if args.load_threshold < 1:
        return "", (f"error: --load-threshold must be at least 1, "
                    f"got {args.load_threshold}\n"), 2
    findings = analysis.run_all(load_model(args.file), load_threshold=args.load_threshold)
    fail_level = SEVERITIES[args.fail_level]
    status = 1 if any(f.severity >= fail_level for f in findings) else 0
    return reporting.findings_report(findings, args.format), "", status


def _elicit(args: argparse.Namespace) -> Output:
    return elicitation.answers_skeleton(load_model(args.file), args.responsibility), "", 0


def _ingest(args: argparse.Namespace) -> Output:
    model = load_model(args.file)
    records = parse_answers(read_input(args.answers), str(args.answers))
    return print_model(ingest_all(model, records, strict=args.strict)), "", 0


def _table(table: InfoTable, fmt: str) -> str:
    render = reporting.table_to_markdown if fmt == "md" else reporting.table_to_csv
    return render(table)


def _tables(args: argparse.Namespace) -> Output:
    model, duty, fmt = load_model(args.file), args.responsibility, args.format
    parts = []
    if args.which in ("required", "both"):
        parts.append(_table(elicitation.information_required_table(model, duty), fmt))
    if args.which in ("recorded", "both"):
        parts.append(_table(elicitation.information_recorded_table(model, duty), fmt))
    separator = "\r\n" if fmt == "csv" else "\n"
    return separator.join(parts), "", 0


def _hazards(args: argparse.Namespace) -> Output:
    model = load_model(args.file)
    worksheet = hazards.generate_worksheet(model, args.responsibility)
    return _table(reporting.worksheet_table(model, worksheet), args.format), "", 0


def _mitigations(args: argparse.Namespace) -> Output:
    stubs = hazards.derive_mitigations(load_model(args.file), args.responsibility,
                                       threshold=SEVERITIES[args.threshold])
    return print_requirements(stubs), "", 0


def _requirements(args: argparse.Namespace) -> Output:
    model = load_model(args.file)
    records = parse_requirements(read_input(args.reqs), str(args.reqs))
    if args.report:
        return reporting.requirements_report(model, records), "", 0
    reporting.check_traces(model, records)
    return "", f"{len(records)} requirement(s), all traces resolve.\n", 0


def _dot(args: argparse.Namespace) -> Output:
    return reporting.to_dot(load_model(args.file)), "", 0


# ``diff`` loads its smaller model in a forked child while this process
# loads the larger one, when the smaller file has at least this many bytes.
# Below it, the fork and the pickle cost more than the overlap saves.  The
# break-even was measured when the child handed back a whole model; it now
# hands back a perception, under a third the size, and the value stands.
PARALLEL_LOAD_FLOOR = 64 * 1024


def _child_side(paths: tuple[Path, Path]) -> Optional[int]:
    """Which of the two files a forked child should load, the smaller one,
    or None when loading them at once does not pay: either file is not a
    regular file of at least the floor, or there is no fork, no second CPU,
    or a second thread that a fork would not copy."""
    try:
        stats = [os.stat(path) for path in paths]
    except OSError:
        return None  # loading in order reports it
    if not all(stat.S_ISREG(s.st_mode) and s.st_size >= PARALLEL_LOAD_FLOOR for s in stats):
        return None
    import threading
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not hasattr(os, "fork") or threading.active_count() != 1 or cpus < 2:
        return None
    return int(stats[1].st_size <= stats[0].st_size)


def _perception(path: Path) -> analysis.Perception:
    """What ``diff`` compares of the model in ``path``."""
    return analysis.perceive(load_model(path))


def _fork_load(path: Path) -> Optional[tuple[int, int]]:
    """Fork a child that loads ``path``, writes the pickled perception of
    its model to a pipe and exits 0; on any error it writes nothing and
    exits 1.  Return the child's pid and the pipe's read end, or None when
    no pipe or process is to be had."""
    import pickle
    try:
        reader, writer = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            data = pickle.dumps(_perception(path), pickle.HIGHEST_PROTOCOL)
            with open(writer, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)  # never back into the caller's stack
    os.close(writer)
    return pid, reader


def _load_both(left: Path, right: Path) -> tuple[analysis.Perception, analysis.Perception]:
    """The perceptions of ``load_model(left)`` and ``load_model(right)``,
    or the same error, left's before right's.  When it pays, a forked child
    loads and perceives the smaller file while this process does the
    larger one; only names cross the pipe, not a model.  Whatever file the
    child hands back no perception for, this process loads in order:
    left's error then replaces any error of this process's own load."""
    paths = (left, right)
    theirs = _child_side(paths)
    child = None if theirs is None else _fork_load(paths[theirs])
    if child is None:
        return _perception(left), _perception(right)
    import pickle
    pid, reader = child
    perceptions = [None, None]
    try:
        perceptions[1 - theirs] = _perception(paths[1 - theirs])
    finally:
        with open(reader, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status == 0:
            perceptions[theirs] = pickle.loads(data)
        elif theirs == 0:
            perceptions[0] = _perception(left)
    if perceptions[1] is None:
        perceptions[1] = _perception(right)
    return perceptions[0], perceptions[1]


def _diff(args: argparse.Namespace) -> Output:
    inconsistencies = analysis.diff_models(*_load_both(args.left, args.right))
    status = 1 if inconsistencies else 0
    return reporting.diff_report(inconsistencies, args.format), "", status


def _arg(*flags: str, **options) -> tuple:
    """One argument: its flags and its ``add_argument`` keywords."""
    return flags, options


# The arguments that several subcommands take.
_FILE = _arg("file", type=Path)
_DUTY = _arg("--responsibility", required=True)
_OUTPUT = _arg("-o", "--output", type=Path)

# name: (help, handler, arguments), in the order ``--help`` lists them.
COMMANDS = {
    "check": ("parse a model and report diagnostics", _check, [
        _FILE, _arg("--strict", action="store_true",
                    help="also report implicit declarations and missing channels")]),
    "analyze": ("run every vulnerability analysis", _analyze, [
        _FILE, _arg("--format", choices=["text", "json"], default="text"),
        _arg("--load-threshold", type=int, default=analysis.DEFAULT_LOAD_THRESHOLD,
             metavar="N", help="overload threshold (default %(default)s)"),
        _arg("--fail-level", choices=list(SEVERITIES), default="medium",
             help="exit 1 when findings reach this severity (default %(default)s)")]),
    "elicit": ("emit an answers skeleton to fill in", _elicit, [_FILE, _DUTY, _OUTPUT]),
    "ingest": ("merge answer files into a model", _ingest, [
        _FILE, _arg("answers", type=Path), _OUTPUT,
        _arg("--strict", action="store_true",
             help="refuse references the model cannot resolve")]),
    "tables": ("render the information tables", _tables, [
        _FILE, _DUTY, _arg("--format", choices=["md", "csv"], default="md"),
        _arg("--which", choices=["required", "recorded", "both"], default="both")]),
    "hazards": ("render the hazard worksheet", _hazards, [
        _FILE, _DUTY, _arg("--format", choices=["md", "csv"], default="md")]),
    "mitigations": ("stub coping requirements for serious hazards", _mitigations, [
        _FILE, _DUTY,
        _arg("--threshold", choices=list(SEVERITIES),
             default=hazards.DEFAULT_MITIGATION_THRESHOLD.token,
             help="minimum severity that needs a mitigation (default %(default)s)")]),
    "requirements": ("validate and report requirements", _requirements, [
        _FILE, _arg("reqs", type=Path),
        _arg("--report", action="store_true",
             help="print the numbered requirements report")]),
    "dot": ("emit the model as a DOT graph", _dot, [_FILE, _OUTPUT]),
    "diff": ("compare two models of the same duties", _diff, [
        _arg("left", type=Path), _arg("right", type=Path),
        _arg("--format", choices=["text", "json"], default="text")]),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When its first argument names a subcommand,
    only that subcommand is added, under the metavar that lists them all,
    so every usage line reads as the full parser's.  Any other command line
    (none, ``--help``, an option first, an unknown name) gets every
    subcommand, for the help and the errors that list the choices."""
    parser = argparse.ArgumentParser(
        prog="respkit",
        description="Responsibility modelling toolkit: check models, find "
                    "vulnerabilities, drive elicitation, analyse information "
                    "hazards and report traced requirements.",
    )
    if argv and argv[0] in COMMANDS:
        names, metavar = argv[:1], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, arguments = COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
    return parser


def _diagnose(stderr: TextIO, text: str) -> None:
    """Write ``text`` to stderr.  A stderr that cannot take it loses it, as
    argparse's own messages are lost, and the run's status stands."""
    with contextlib.suppress(OSError):
        stderr.write(text)


def run(argv: list[str], stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None) -> int:
    """Run one invocation and return its exit status.  The subcommand's
    handler makes the whole output; only then is it written, so a run that
    fails writes no artifact.  stdout is flushed before the status is
    returned, so a write that fails is an error of the run.  The cyclic
    garbage collector is off while the command runs: a loaded model is
    many acyclic objects, which it would walk for nothing.  The caller's
    setting returns."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    parser = _build_parser(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # argparse wrote help or a usage error
                stdout.flush()
                return 0 if exc.code in (0, None) else 2
        out, err, status = COMMANDS[args.command][1](args)
        _diagnose(stderr, err)
        output = getattr(args, "output", None)
        if output is None:
            stdout.write(out)
        else:
            output.write_text(out, encoding="utf-8", newline="")
        stdout.flush()
        return status
    except INPUT_ERRORS as exc:
        _diagnose(stderr, input_error(exc))
        return 2
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    # A standard stream whose descriptor was closed before start-up is None.
    # Text for a closed stderr goes to the null device, and a closed stdout
    # fails the run as a write to it would.
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    if sys.stdout is None:
        _diagnose(sys.stderr, input_error(OSError(errno.EBADF, os.strerror(errno.EBADF))))
        status = 2
    else:
        sys.stdout.reconfigure(encoding="utf-8")
        status = run(sys.argv[1:])
    # run() has flushed stdout and reported a failed write; flushing it
    # again would meet the same unwritten bytes.  The process ends here,
    # without the interpreter's teardown, which would free every object the
    # run loaded for an operating system that takes the memory back anyway.
    # Exit handlers still run first, so tools such as coverage keep theirs.
    atexit._run_exitfuncs()
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
