"""Command-line pipeline over model, answer and requirement files.

Every subcommand is a thin wrapper over the library: artifacts go to
stdout (or the file named by ``-o``), diagnostics and errors go to stderr.
Exit status 0 means success with nothing to report, 1 means findings or
inconsistencies at or above the failure level, 2 means a usage, parse or
resolution error.
"""

import argparse
import contextlib
import gc
import sys
from pathlib import Path
from typing import Optional, TextIO

from . import analysis, elicitation, hazards, reporting
from .build import ModelBuildError, load_model, read_input
from .dsl import ParseFailure, parse_answers, parse_requirements, print_model, print_requirements
from .elicitation import ingest_all
from .model import SEVERITIES, UnknownResponsibility, validate
from .reporting import TraceResolutionError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respkit",
        description="Responsibility modelling toolkit: check models, find "
                    "vulnerabilities, drive elicitation, analyse information "
                    "hazards and report traced requirements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a model and report diagnostics")
    p.add_argument("file", type=Path)
    p.add_argument("--strict", action="store_true",
                   help="also report implicit declarations and missing channels")

    p = sub.add_parser("analyze", help="run every vulnerability analysis")
    p.add_argument("file", type=Path)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--load-threshold", type=int,
                   default=analysis.DEFAULT_LOAD_THRESHOLD, metavar="N",
                   help="overload threshold (default %(default)s)")
    p.add_argument("--fail-level", choices=list(SEVERITIES), default="medium",
                   help="exit 1 when findings reach this severity "
                        "(default %(default)s)")

    p = sub.add_parser("elicit", help="emit an answers skeleton to fill in")
    p.add_argument("file", type=Path)
    p.add_argument("--responsibility", required=True)
    p.add_argument("-o", "--output", type=Path)

    p = sub.add_parser("ingest", help="merge answer files into a model")
    p.add_argument("file", type=Path)
    p.add_argument("answers", type=Path)
    p.add_argument("-o", "--output", type=Path)
    p.add_argument("--strict", action="store_true",
                   help="refuse references the model cannot resolve")

    p = sub.add_parser("tables", help="render the information tables")
    p.add_argument("file", type=Path)
    p.add_argument("--responsibility", required=True)
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.add_argument("--which", choices=["required", "recorded", "both"],
                   default="both")

    p = sub.add_parser("hazards", help="render the hazard worksheet")
    p.add_argument("file", type=Path)
    p.add_argument("--responsibility", required=True)
    p.add_argument("--format", choices=["md", "csv"], default="md")

    p = sub.add_parser("mitigations",
                       help="stub coping requirements for serious hazards")
    p.add_argument("file", type=Path)
    p.add_argument("--responsibility", required=True)
    p.add_argument("--threshold", choices=list(SEVERITIES),
                   default=hazards.DEFAULT_MITIGATION_THRESHOLD.token,
                   help="minimum severity that needs a mitigation "
                        "(default %(default)s)")

    p = sub.add_parser("requirements", help="validate and report requirements")
    p.add_argument("file", type=Path)
    p.add_argument("reqs", type=Path)
    p.add_argument("--report", action="store_true",
                   help="print the numbered requirements report")

    p = sub.add_parser("dot", help="emit the model as a DOT graph")
    p.add_argument("file", type=Path)
    p.add_argument("-o", "--output", type=Path)

    p = sub.add_parser("diff", help="compare two models of the same duties")
    p.add_argument("left", type=Path)
    p.add_argument("right", type=Path)
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _emit(text: str, output: Optional[Path], stdout: TextIO) -> None:
    if output is not None:
        output.write_text(text, encoding="utf-8", newline="")
    else:
        stdout.write(text)


def run(argv: list[str], stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None, stderr: Optional[TextIO] = None) -> int:
    """Dispatch one invocation; returns the exit status.  The cyclic garbage
    collector is off while the command runs: a loaded model is many acyclic
    objects, which it would walk for nothing.  The caller's setting returns."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    parser = _build_parser()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2

    collecting = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(args, stdout, stderr)
    except (ParseFailure, ModelBuildError) as exc:  # and IngestError
        stderr.write(str(exc) + "\n")
        return 2
    except (UnknownResponsibility, TraceResolutionError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


def _dispatch(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if args.command == "analyze" and args.load_threshold < 1:
        stderr.write(f"error: --load-threshold must be at least 1, "
                     f"got {args.load_threshold}\n")
        return 2

    if args.command == "diff":
        left = load_model(args.left)
        right = load_model(args.right)
        inconsistencies = analysis.diff_models(left, right)
        stdout.write(reporting.diff_report(inconsistencies, args.format))
        return 1 if inconsistencies else 0

    # Every other command reads one model.
    model = load_model(args.file)
    if args.command == "check":
        for finding in validate(model, strict=args.strict):
            stderr.write(finding.render() + "\n")
        return 0

    if args.command == "analyze":
        findings = analysis.run_all(model, load_threshold=args.load_threshold)
        stdout.write(reporting.findings_report(findings, args.format))
        fail_level = SEVERITIES[args.fail_level]
        return 1 if any(f.severity >= fail_level for f in findings) else 0

    if args.command == "elicit":
        _emit(elicitation.answers_skeleton(model, args.responsibility),
              args.output, stdout)
        return 0

    if args.command == "ingest":
        records = parse_answers(read_input(args.answers), str(args.answers))
        merged = ingest_all(model, records, strict=args.strict)
        _emit(print_model(merged), args.output, stdout)
        return 0

    if args.command == "tables":
        renderer = (reporting.table_to_markdown if args.format == "md"
                    else reporting.table_to_csv)
        parts = []
        if args.which in ("required", "both"):
            parts.append(renderer(
                elicitation.information_required_table(model, args.responsibility)))
        if args.which in ("recorded", "both"):
            parts.append(renderer(
                elicitation.information_recorded_table(model, args.responsibility)))
        separator = "\r\n" if args.format == "csv" else "\n"
        stdout.write(separator.join(parts))
        return 0

    if args.command == "hazards":
        worksheet = hazards.generate_worksheet(model, args.responsibility)
        table = reporting.worksheet_table(model, worksheet)
        renderer = (reporting.table_to_markdown if args.format == "md"
                    else reporting.table_to_csv)
        stdout.write(renderer(table))
        return 0

    if args.command == "mitigations":
        stubs = hazards.derive_mitigations(
            model, args.responsibility,
            threshold=SEVERITIES[args.threshold])
        stdout.write(print_requirements(stubs))
        return 0

    if args.command == "requirements":
        records = parse_requirements(read_input(args.reqs), str(args.reqs))
        if args.report:
            stdout.write(reporting.requirements_report(model, records))
        else:
            reporting.check_traces(model, records)
            count = len(records)
            stderr.write(f"{count} requirement(s), all traces resolve.\n")
        return 0

    if args.command == "dot":
        _emit(reporting.to_dot(model), args.output, stdout)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    status = run(sys.argv[1:])
    # The process is about to end.  Freezing moves every object the run
    # loaded into the permanent generation, which the collection at
    # interpreter shutdown skips; the OS takes that memory back anyway.
    # sys.exit, not os._exit, still runs atexit and flushes stdout and
    # stderr.  run() freezes nothing: in-process callers keep collecting.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    main()
