#!/usr/bin/env python3
"""Run the full evacuation case study end to end.

Loads the corpus model, merges the recorded elicitation answers, runs every
analysis, and writes the derived artifacts (findings, tables, worksheet,
mitigation stubs, requirements report, diagram, merged model) into an
output directory.
"""

import argparse
import sys
from pathlib import Path

from respkit import (
    answers_skeleton,
    coverage,
    derive_mitigations,
    findings_report,
    generate_worksheet,
    ingest_all,
    load_model,
    print_model,
    print_requirements,
    requirements_report,
    run_all,
    table_to_markdown,
    to_dot,
    validate,
    worksheet_table,
)
from respkit.build import read_input
from respkit.cli import INPUT_ERRORS, input_error
from respkit.dsl import parse_answers, parse_requirements
from respkit.elicitation import (
    information_recorded_table,
    information_required_table,
)

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=Path, default=REPO / "corpus",
                        help="directory holding the case-study files")
    parser.add_argument("--outdir", type=Path, default=REPO / "build" / "case_study",
                        help="where to write the derived artifacts")
    parser.add_argument("--responsibility", default="Evacuate area")
    args = parser.parse_args()
    # Errors go to stderr as the respkit command writes them, with exit status 2.
    try:
        run(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(input_error(exc))
        sys.exit(2)


def run(args: argparse.Namespace) -> None:
    args.outdir.mkdir(parents=True, exist_ok=True)

    model = load_model(args.corpus / "evacuation.resp")
    answers_path = args.corpus / "evacuation.answers"
    answers = parse_answers(read_input(answers_path), str(answers_path))
    reqs_path = args.corpus / "evacuation.reqs"
    requirements = parse_requirements(read_input(reqs_path), str(reqs_path))

    print(f"model: {model.name}")
    for finding in validate(model, strict=True):
        print(f"  {finding.render()}")

    merged = ingest_all(model, answers)
    outputs = {
        "findings.txt": findings_report(run_all(merged)),
        "information_required.md": table_to_markdown(
            information_required_table(merged, args.responsibility)),
        "information_recorded.md": table_to_markdown(
            information_recorded_table(merged, args.responsibility)),
        "hazard_worksheet.md": table_to_markdown(worksheet_table(
            merged, generate_worksheet(merged, args.responsibility))),
        "mitigation_stubs.reqs": print_requirements(
            derive_mitigations(merged, args.responsibility)),
        "requirements_report.md": requirements_report(merged, requirements),
        "model.dot": to_dot(merged),
        "merged.resp": print_model(merged),
        "next_session.answers": answers_skeleton(merged, args.responsibility),
    }
    for filename, text in outputs.items():
        (args.outdir / filename).write_text(text, encoding="utf-8", newline="")
        print(f"  wrote {args.outdir / filename}")

    done = coverage(merged, args.responsibility)
    print(f"hazard coverage for {args.responsibility!r}: {done:.1%}")


if __name__ == "__main__":
    main()
