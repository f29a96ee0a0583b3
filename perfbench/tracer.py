"""Child-side tracing for the per-layer run.

    python tracer.py SPANS.json SUBCOMMAND ARGS...
        Run one respkit subcommand in this process, as the ``respkit``
        entry point would, with a span around each public call listed in
        TRACED, and write the spans to SPANS.json.
    python tracer.py --scale OUT.json WORKLOAD SEED
        Time the scaling-relevant calls on the workload's input and on a
        quarter-size draw of it, and write both times per call.

Spans are recorded from here, around the calls into each respkit module;
respkit itself is not changed.  Each span is [name, start, end, parent,
count], times from ``time.perf_counter`` in seconds.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

TRACED = {
    "dsl": ("parse_model", "parse_answers", "parse_requirements", "print_model"),
    "build": ("build_model",),
    "model": ("validate",),
    "analysis": ("run_all", "find_unassigned", "find_unsourced_info",
                 "find_unused_resources", "find_single_channel",
                 "find_duplicate_sources", "agent_load", "detect_sequence_cycles",
                 "diff_models"),
    "elicitation": ("ingest_all", "answers_skeleton", "information_required_table",
                    "information_recorded_table"),
    "hazards": ("generate_worksheet", "derive_mitigations"),
    "reporting": ("to_dot", "findings_report", "diff_report", "requirements_report",
                  "worksheet_table", "table_to_markdown"),
}

# The count each rate or size is based on, taken from a call's arguments or result.
COUNTS = {
    "dsl.parse_model": lambda args, result: len(args[0].encode()),
    "build.build_model": lambda args, result: len(args[0]),
    "analysis.run_all": lambda args, result: len(result),
    "analysis.diff_models": lambda args, result: len(result),
    "reporting.to_dot": lambda args, result: result.count(" -> "),
    "elicitation.ingest_all": lambda args, result: len(args[1]),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else None, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a respkit module bound it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "respkit" or n.startswith("respkit.")]
        for short, names in TRACED.items():
            module = sys.modules[f"respkit.{short}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{short}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def run_traced(out: Path, argv: list) -> int:
    from respkit import cli
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap(f"cli.run.{argv[0]}", cli.run)
    try:
        return run(argv)
    finally:
        out.write_text(json.dumps(tracer.spans))


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def _tile(text: str, copies: int) -> str:
    """``copies`` renamed copies of a corpus file, one model line kept."""
    model_line = re.search(r"^model .*\n", text, re.MULTILINE)
    body = re.sub(r"^model .*\n", "", text, flags=re.MULTILINE)
    out = [model_line.group(0)] if model_line else []
    for k in range(copies):
        tag = f" {k:03d}"
        copy = re.sub(r'("(?:[^"\\]|\\.)*)"', lambda m: m[1] + tag + '"', body)
        copy = re.sub(r"([<|\[])([^>|\]\n]+)([>|\]])",
                      lambda m: m[1] + m[2] + tag + m[3], copy)
        out.append(re.sub(r"^(requirement \S+)", rf"\1-{k:03d}", copy, flags=re.MULTILINE))
    return "".join(out)


def _inputs(workload: str, seed: int, quarter: bool) -> dict:
    root = Path(__file__).resolve().parent.parent
    if workload == "corpus":
        copies = 4 if quarter else 16
        return {name: _tile((root / "corpus" / f"evacuation.{ext}").read_text(), copies)
                for name, ext in (("model.resp", "resp"), ("session.answers", "answers"),
                                  ("model.reqs", "reqs"))}
    import gen  # only the scaling run needs the generator
    make, n = ((gen.review, gen.REVIEW_SIZE) if workload == "review"
               else (gen.elicitation, gen.ELICITATION_SIZE))
    return make(seed, n // 4 if quarter else n).files


def scale(out: Path, workload: str, seed: int, repeats: int = 3) -> None:
    from respkit import analysis, build, dsl, elicitation, model, reporting

    def timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result

    def one(files: dict) -> dict:
        text = files["model.resp"]
        t = {}
        t["parse_model"], decls = timed(dsl.parse_model, text)
        t["build_model"], m = timed(build.build_model, decls)
        t["validate"], _ = timed(model.validate, m, True)
        original = analysis.find_single_channel
        inner = []

        def single(arg):
            dt, result = timed(original, arg)
            inner.append(dt)
            return result

        analysis.find_single_channel = single
        try:
            t["run_all"], _ = timed(analysis.run_all, m)
        finally:
            analysis.find_single_channel = original
        t["find_single_channel"] = inner[0]
        t["print_model"], _ = timed(dsl.print_model, m)
        t["to_dot"], _ = timed(reporting.to_dot, m)
        records = dsl.parse_answers(files["session.answers"])
        t["ingest_all"], merged = timed(elicitation.ingest_all, m, records)
        other = (build.build_model(dsl.parse_model(files["other.resp"]))
                 if "other.resp" in files else merged)
        t["diff_models"], _ = timed(analysis.diff_models, m, other)
        reqs = dsl.parse_requirements(files["model.reqs"])
        target = m if workload == "review" else merged
        t["requirements_report"], _ = timed(reporting.requirements_report, target, reqs)
        return t

    inputs = {size: _inputs(workload, seed, size == "quarter")
              for size in ("full", "quarter")}
    times: dict = {"full": [], "quarter": []}
    for _ in range(repeats):  # alternate, so drift hits both sizes alike
        for size, files in inputs.items():
            times[size].append(one(files))
    result = {
        "bytes": {size: len(files["model.resp"].encode())
                  for size, files in inputs.items()},
        "seconds": {name: {size: min(t[name] for t in runs)
                           for size, runs in times.items()}
                    for name in times["full"][0]},
    }
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "--scale":
        scale(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(run_traced(Path(sys.argv[1]), sys.argv[2:]))
