#!/usr/bin/env python3
"""Run the same drawn inputs through the command line of two source trees.

Draws texts with the strategies of ``tests/strategies.py`` under a fixed
seed: model texts, answers texts and requirements texts, each of the last
two beside a drawn model.  Each text is written to one fixed work directory,
so a path echoed in a diagnostic is the same for both trees, and run
through ``respkit.cli.run`` in one process per tree:

- a model text through ``check``, ``check --strict``, ``analyze
  --format=json`` and ``dot``, and ``elicit``, ``tables``, ``hazards`` and
  ``mitigations`` with a drawn ``--responsibility``;
- an answers text through ``ingest`` and ``ingest --strict``;
- a requirements text through ``requirements`` and ``requirements --report``.

It prints how many runs came out identical, how many differ on stderr only
(with the same first line, or in the first line), and lists each run whose
stdout or exit status differs.  It also counts, per tree, the stderr lines
that ``str.isprintable()`` rejects.  The exit status is 1 when a stdout or
status differs, else 0.

    python scripts/differential.py OLD_TREE NEW_TREE [--examples N] [--dump FILE]

A tree is a directory that holds ``src/respkit``, such as a ``git archive``
of the parent commit and the working tree.  The strategies come from the
``tests`` directory beside this script, and draw with the ``respkit`` of
its own tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The argv of each run of one case kind.  File names stand for the case's
# files in the work directory; DUTY stands for its drawn duty name.
RUNS = {
    "resp": [["check", "m.resp"], ["check", "--strict", "m.resp"],
             ["analyze", "m.resp", "--format=json"], ["dot", "m.resp"],
             *[[command, "m.resp", "--responsibility=DUTY"]
               for command in ("elicit", "tables", "hazards", "mitigations")]],
    "answers": [["ingest", "m.resp", "a.answers"],
                ["ingest", "--strict", "m.resp", "a.answers"]],
    "reqs": [["requirements", "m.resp", "r.reqs"],
             ["requirements", "--report", "m.resp", "r.reqs"]],
}
FILE_NAMES = {"answers": "a.answers", "reqs": "r.reqs"}


def draw_cases(count: int) -> list[tuple]:
    """``count`` cases, each ``(kind, model text, other text, duty name)``,
    drawn the same way on every call."""
    sys.path[:0] = [str(REPO / "tests"), str(REPO / "src")]
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import strategies as st
    from strategies import (answers_text, dsl_text, keyword_text, line_text, reqs_text,
                            resp_text)

    texts = st.text() | dsl_text | line_text | keyword_text
    duties = st.sampled_from(["Duty", "Other", " Duty ", "Spare", "Dut"]) | st.text(max_size=8)
    cases_strategy = st.one_of(
        st.tuples(st.just("resp"), texts | resp_text, st.none(), duties),
        st.tuples(st.just("answers"), resp_text, texts | answers_text, st.none()),
        st.tuples(st.just("reqs"), resp_text, texts | reqs_text, st.none()))
    cases = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(cases_strategy)
    def collect(case):
        cases.append(case)

    collect()
    return cases


def run_tree(cases_path: str, results_path: str) -> None:
    """Run every case of ``cases_path`` in the current directory and write
    ``[status, stdout, stderr]`` of each run to ``results_path``.  The
    ``respkit`` imported is the first on the import path."""
    import io

    from respkit import cli

    results = []
    for kind, model, other, duty in json.loads(Path(cases_path).read_text("utf-8")):
        Path("m.resp").write_text(model, encoding="utf-8", newline="")
        if other is not None:
            Path(FILE_NAMES[kind]).write_text(other, encoding="utf-8", newline="")
        for argv in RUNS[kind]:
            argv = [arg.replace("DUTY", duty or "") for arg in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            status = cli.run(argv, stdout=stdout, stderr=stderr)
            results.append([status, stdout.getvalue(), stderr.getvalue()])
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def _results(tree: Path, cases_path: Path, work: Path) -> list:
    """The results of every run in a new process that imports ``tree``'s
    ``respkit``, in ``work``."""
    out = work / "results.json"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import differential; "
            "differential.run_tree(sys.argv[2], sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, str(REPO / "scripts"),
                    str(cases_path), str(out)], cwd=work, check=True,
                   env=dict(os.environ, PYTHONPATH=str(tree.resolve() / "src")))
    results = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return results


def _unprintable_lines(results: list) -> int:
    return sum(not line.isprintable()
               for _, _, err in results for line in err.split("\n"))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="the source tree to compare against")
    parser.add_argument("new", type=Path, help="the source tree under test")
    parser.add_argument("--examples", type=int, default=3600,
                        help="how many cases to draw (default %(default)s)")
    parser.add_argument("--dump", type=Path,
                        help="write each run that differs to this file, as JSON")
    args = parser.parse_args()

    cases = draw_cases(args.examples)
    work = Path(tempfile.gettempdir()) / "respkit-differential"
    work.mkdir(exist_ok=True)
    cases_path = work / "cases.json"
    cases_path.write_text(json.dumps(cases), encoding="utf-8")
    old, new = (_results(tree, cases_path, work) for tree in (args.old, args.new))
    shutil.rmtree(work)

    runs = [(case, argv) for case in cases for argv in RUNS[case[0]]]
    assert len(runs) == len(old) == len(new)
    counts = {"identical": 0, "stderr differs, same first line": 0,
              "stderr differs in its first line": 0, "stdout or status differs": 0}
    differing = []
    for (case, argv), before, after in zip(runs, old, new):
        if before == after:
            counts["identical"] += 1
            continue
        if before[:2] != after[:2]:
            outcome = "stdout or status differs"
        elif before[2].split("\n")[0] == after[2].split("\n")[0]:
            outcome = "stderr differs, same first line"
        else:
            outcome = "stderr differs in its first line"
        counts[outcome] += 1
        differing.append({"outcome": outcome, "case": case, "argv": argv,
                          "old": before, "new": after})

    print(f"{len(cases)} cases, {len(runs)} runs per tree")
    for outcome, count in counts.items():
        print(f"{count:7d}  {outcome}")
    for tree, results in ((args.old, old), (args.new, new)):
        print(f"{_unprintable_lines(results):7d}  stderr lines not printable in {tree}")
    for run in differing:
        if run["outcome"] == "stdout or status differs":
            print(f"\n{run['argv']} on {run['case']!r}:\n"
                  f"  old status {run['old'][0]}, stdout {run['old'][1][:200]!r}\n"
                  f"  new status {run['new'][0]}, stdout {run['new'][1][:200]!r}")
    if args.dump:
        args.dump.write_text(json.dumps(differing, indent=1), encoding="utf-8")
    return 1 if counts["stdout or status differs"] else 0


if __name__ == "__main__":
    sys.exit(main())
