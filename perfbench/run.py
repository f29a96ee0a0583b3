#!/usr/bin/env python3
"""Benchmark respkit as its users run it: one fresh process per subcommand.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a respkit checkout.  The benchmark sets up its inputs
(several times, to time the set-up), runs one verification round whose
every output is checked, then runs timed rounds of all ten subcommands
until ``--seconds`` have passed.  Each timed output must be byte-identical
to the verified one, under a different PYTHONHASHSEED per round.  With
``--trace 1`` each timed round is followed by the same subcommands under
``tracer.py``, and the per-layer metrics are printed instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave nothing in the checkout
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("corpus", "review", "elicitation")
SUBCOMMANDS = ("check", "analyze", "elicit", "ingest", "tables", "hazards",
               "mitigations", "requirements", "dot", "diff")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 5

# Machine speed on a shared host drifts by tens of percent within seconds.
# A probe process, `python -c pass`, runs between every two timed processes,
# and each time is rescaled to a machine on which the probe takes PROBE_REF_S
# (the reference machine in README.md, unloaded), using the median of the
# two probes before and the two after it.  Of the probes tried (a pure-Python loop, an
# allocation loop, this process) this one tracks the children best: it too
# starts an interpreter.
PROBE_ARGV = ["-c", "pass"]
PROBE_REF_S = 0.045

ENTRY = "from respkit.cli import main; main()"  # the `respkit` console script
CORPUS_FOCUS = "Evacuate area"
# Children start with an installed user's interpreter defaults, plus src/ on
# PYTHONPATH and the benchmark's own bytecode cache.
_DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED", "PYTHONHASHSEED",
                "PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP",
                "PYTHONPROFILEIMPORTTIME")


@dataclass
class Op:
    """One subcommand invocation of a round."""

    name: str
    argv: list
    check: Callable  # (stdout, stderr, status) -> problems
    fault: bool = False  # a known fault: counted as failed while it persists


@dataclass
class Sample:
    op: str
    wall: float
    rss_kb: int
    probe: int  # index of the probe taken just before it
    round: int
    traced: bool = False
    spans: Optional[list] = None


@dataclass
class Run:
    work: Path
    probes: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.env = child_env(self.work / "pycache")
        self.probe_env = child_env(self.work / "probe-pycache")

    def probe(self) -> None:
        self.probes.append(self.spawn(PROBE_ARGV, "probe", env=self.probe_env)[3])

    def factor(self, index: int) -> float:
        """Speed correction for the process run between probes index and index + 1."""
        return PROBE_REF_S / statistics.median(self.probes[max(0, index - 1): index + 3])

    def spawn(self, argv: list, name: str, hashseed: str = "0",
              env: Optional[dict] = None) -> tuple:
        """Run one child to completion; returns (stdout, stderr, status, wall, rusage)."""
        out, err = self.work / f"{name}.stdout", self.work / f"{name}.stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        env = dict(env or self.env, PYTHONHASHSEED=hashseed)
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        return (out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"),
                os.waitstatus_to_exitcode(status), wall, usage)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _latin1_copy(text: str) -> bytes:
    return ("# Copie Latin-1 du plan d'évacuation.\n" + text).encode("latin-1")


def write_inputs(workload: str, seed: int, work: Path) -> Optional[gen.Workload]:
    """Write the workload's files; returns the generated workload, if any."""
    if workload == "corpus":
        text = (ROOT / "corpus" / "evacuation.resp").read_text(encoding="utf-8")
        (work / "evacuation-latin1.resp").write_bytes(_latin1_copy(text))
        return None
    bundle = (gen.review if workload == "review" else gen.elicitation)(seed)
    for name, text in bundle.files.items():
        (work / name).write_text(text, encoding="utf-8")
    return bundle


def build_ops(workload: str, work: Path, bundle) -> tuple:
    """The ops of one round, plus the extra checks of the verification round.

    The first op is ``ingest``: it writes the merged model later ops read.
    """
    w = os.path.relpath(work, ROOT)
    merged_path = f"{w}/merged.resp"
    if workload == "corpus":
        base, answers, reqs = ("corpus/evacuation.resp", "corpus/evacuation.answers",
                               "corpus/evacuation.reqs")
        spec = oracle.read_spec((ROOT / base).read_text(encoding="utf-8"))
        merged = gen.apply_sessions(spec, oracle.read_sessions(
            (ROOT / answers).read_text(encoding="utf-8")))
        focus = CORPUS_FOCUS
        evacuate = spec.resp(focus)
        # The case study's known weaknesses: "Collect evacuee information" has
        # no agent, the Environment agency is never declared, and each need of
        # "Evacuate area" names one channel while no channel has a backup_of.
        analyze = [("UNASSIGNED_RESP", ("collect-evacuee-information",))] + [
            ("SINGLE_CHANNEL", (f"evacuate-area/{gen.slug(n.item)}",))
            for n in evacuate.needs]
        check = [("UNASSIGNED_RESP", "collect-evacuee-information"),
                 ("IMPLICIT_DECL", "environment-agency")]
        diff: list = []  # the answers restate what the model already records
        req_ids = re.findall(r"^requirement (\S+) \{", (ROOT / reqs).read_text(),
                             re.MULTILINE)
        golden = ROOT / "corpus" / "golden"
        tables_want = ((golden / "evacuate_area_required.md").read_text() + "\n"
                       + (golden / "evacuate_area_recorded.md").read_text())
        # hazards and mitigations read the merged model, as in the README tour.
        read_spec, hazard_spec = spec, merged
        read_path, hazard_path, left, right = base, merged_path, base, merged_path
        ingest_hazards = sum(len(r.hazards) for r in merged.resps)
    else:
        base, answers, reqs = f"{w}/model.resp", f"{w}/session.answers", f"{w}/model.reqs"
        focus, analyze, check, diff = bundle.focus, bundle.analyze, bundle.check, bundle.diff
        req_ids, ingest_hazards = bundle.requirement_ids, bundle.ingest_hazards
        read_spec = hazard_spec = bundle.model
        if workload == "review":
            read_path = hazard_path = left = base
            right = f"{w}/other.resp"
        else:
            read_path = hazard_path = right = merged_path
            left = base
        tables_want = oracle.tables_md(read_spec.resp(focus))
    hazard_resp = hazard_spec.resp(focus)
    n_resps = len(read_spec.resps)

    ops = [
        Op("ingest", ["ingest", base, answers],
           lambda o, e, s: oracle.check_ingest(o, e, s, n_resps, ingest_hazards)),
        Op("check", ["check", read_path, "--strict"],
           lambda o, e, s: oracle.check_check(o, e, s, check)),
        Op("analyze", ["analyze", read_path, "--format", "json"],
           lambda o, e, s: oracle.check_analyze(o, e, s, analyze)),
        Op("elicit", ["elicit", read_path, "--responsibility", focus],
           lambda o, e, s: oracle.check_elicit(o, e, s, read_spec.resp(focus))),
        Op("tables", ["tables", read_path, "--responsibility", focus],
           lambda o, e, s: oracle.check_text("tables", o, s, tables_want)),
        Op("hazards", ["hazards", hazard_path, "--responsibility", focus],
           lambda o, e, s: oracle.check_text("worksheet", o, s,
                                             oracle.worksheet_md(hazard_resp))),
        Op("mitigations", ["mitigations", hazard_path, "--responsibility", focus],
           lambda o, e, s: oracle.check_mitigations(o, e, s, hazard_resp)),
        Op("requirements", ["requirements", read_path, reqs, "--report"],
           lambda o, e, s: oracle.check_requirements(o, e, s, req_ids)),
        Op("dot", ["dot", read_path],
           lambda o, e, s: oracle.check_dot(o, e, s, read_spec)),
        Op("diff", ["diff", left, right, "--format", "json"],
           lambda o, e, s: oracle.check_diff(o, e, s, diff)),
    ]
    if workload == "corpus":
        ops += [Op("check-latin1", ["check", f"{w}/evacuation-latin1.resp"],
                   oracle.contract_fault, fault=True),
                Op("analyze-threshold-0", ["analyze", base, "--load-threshold", "0"],
                   oracle.contract_fault, fault=True)]
    extra = [
        # Ingest is idempotent: the same answers leave the merged model unchanged.
        Op("re-ingest", ["ingest", merged_path, answers],
           lambda o, e, s: oracle.check_text(
               "re-ingested model", o, s, (ROOT / merged_path).read_text())),
        # diff b a is diff a b with left and right swapped.
        Op("diff-swapped", ["diff", right, left, "--format", "json"],
           lambda o, e, s: oracle.check_diff(o, e, s, diff, swap=True)),
    ]
    return ops, extra, merged_path


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def child_env(pycache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def set_up(run: Run, workload: str, seed: int, repeats: int):
    """Write the inputs and warm a fresh bytecode cache, ``repeats`` times.

    Returns the generated workload and the median set-up time in seconds.
    """
    run.probe()  # warms the probe's own bytecode cache
    times = []
    for _ in range(repeats):
        shutil.rmtree(run.work / "pycache", ignore_errors=True)
        index = len(run.probes) - 1
        start = time.perf_counter()
        bundle = write_inputs(workload, seed, run.work)
        if run.spawn(["-c", "import respkit.cli"], "warm")[2] != 0:
            raise RuntimeError("respkit.cli does not import")
        times.append((time.perf_counter() - start, index))
        run.probe()
    return bundle, statistics.median(t * run.factor(i) for t, i in times)


def timed_op(run: Run, op: Op, verified: dict, r: int, traced: bool) -> None:
    """Run one op between probes.  Its first run is checked against the
    expectations; every later run must give the same bytes."""
    hashseed = str(r + 1)
    spans_path = run.work / f"{op.name}.spans.json"
    argv = ([str(HERE / "tracer.py"), str(spans_path)] if traced else ["-c", ENTRY])
    index = len(run.probes) - 1
    out, err, status, wall, usage = run.spawn(argv + op.argv, op.name, hashseed)
    run.probe()
    run.attempted += 1
    if op.fault:
        run.failed += bool(op.check(out, err, status))
        return
    if op.name not in verified:
        run.problems += [f"{op.name}: {p}" for p in op.check(out, err, status)]
        verified[op.name] = (out, err, status)
    elif (out, err, status) != verified[op.name]:
        run.problems.append(f"{op.name}: output under PYTHONHASHSEED={hashseed}"
                            f"{' (traced)' if traced else ''} differs from its "
                            "checked output")
    spans = json.loads(spans_path.read_text()) if traced else None
    run.samples.append(Sample(op.name, wall, usage.ru_maxrss, index, r, traced, spans))


def timed_rounds(run: Run, ops: list, extra: list, merged_path: str,
                 seconds: float, traced: bool) -> int:
    """Whole rounds, round-robin from a rotating start, until ``seconds`` pass.

    Round 0 starts with ``ingest``, whose checked output becomes the merged
    model that later ops read; the extra checks run once, untimed, after it.
    """
    deadline = time.perf_counter() + seconds
    verified: dict = {}
    run.probe()
    for r in itertools.count():
        for op in ops[r % len(ops):] + ops[:r % len(ops)]:
            timed_op(run, op, verified, r, traced=False)
            if op.name == "ingest" and r == 0:
                (ROOT / merged_path).write_text(verified["ingest"][0], encoding="utf-8")
            if traced:
                timed_op(run, op, verified, r, traced=True)
        if r == 0:
            for op in extra:
                out, err, status, _, _ = run.spawn(["-c", ENTRY] + op.argv, op.name)
                run.problems += [f"{op.name}: {p}" for p in op.check(out, err, status)]
            run.probe()
        if time.perf_counter() >= deadline:
            return r + 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run: Run, rounds: int, setup: float) -> dict:
    metrics = {"setup_s": setup}
    for sub in SUBCOMMANDS:
        metrics[f"{sub}_ms"] = statistics.median(1000 * s.wall * run.factor(s.probe)
                                       for s in run.samples
                                       if s.op == sub and not s.traced)
    # Peak RSS of the largest process of each round, median over rounds.
    metrics["peak_rss_mb"] = statistics.median(
        max(s.rss_kb for s in run.samples if s.round == r and not s.traced
            and s.op in SUBCOMMANDS) for r in range(rounds)) / 1024
    return metrics


def per_layer(run: Run, workload: str, seed: int, e2e: dict) -> dict:
    metrics: dict = {}
    calls: dict = {}
    counts: dict = {}
    traced_wall: dict = {}
    for s in run.samples:
        if not s.traced:
            continue
        f = run.factor(s.probe)
        traced_wall.setdefault(s.op, []).append(1000 * s.wall * f)
        for name, start, end, _, count in s.spans:
            calls.setdefault(name, []).append(1000 * (end - start) * f)
            if count is not None:
                counts.setdefault(name, []).append(count)
    for name, values in calls.items():
        metrics[f"{name}_ms"] = statistics.median(values)
    startup, overhead = [], []
    for sub in SUBCOMMANDS:
        startup.append(e2e[f"{sub}_ms"] - metrics[f"cli.run.{sub}_ms"])
        overhead.append(statistics.median(traced_wall[sub]) - e2e[f"{sub}_ms"])
    metrics["cli.startup_ms"] = statistics.median(startup)
    metrics["trace.overhead_ms"] = statistics.median(overhead)
    metrics["startup.python_floor_ms"] = 1000 * statistics.median(run.probes)  # as measured

    metrics["dsl.parse_model_bytes"] = statistics.median(counts["dsl.parse_model"])
    metrics["dsl.parse_model_mb_per_s"] = statistics.median(
        c / 1e6 / (t / 1000) for c, t in zip(counts["dsl.parse_model"],
                                             calls["dsl.parse_model"]))
    metrics["build.declarations"] = statistics.median(counts["build.build_model"])
    metrics["analysis.findings"] = statistics.median(counts["analysis.run_all"])
    metrics["analysis.inconsistencies"] = statistics.median(counts["analysis.diff_models"])
    metrics["reporting.dot_edges"] = statistics.median(counts["reporting.to_dot"])
    metrics["elicitation.ingested_records"] = statistics.median(counts["elicitation.ingest_all"])
    metrics["elicitation.ingest_records_per_s"] = statistics.median(
        c / (t / 1000) for c, t in zip(counts["elicitation.ingest_all"],
                                       calls["elicitation.ingest_all"]))

    metrics.update(import_times(run))
    metrics.update(scale_exponents(run, workload, seed))
    return metrics


def import_times(run: Run) -> dict:
    """Self times of respkit's modules and the cumulative time of respkit.cli."""
    found: dict = {}
    for _ in range(IMPORTTIME_REPEATS):
        index = len(run.probes) - 1
        _, err, status, _, _ = run.spawn(["-X", "importtime", "-c", "import respkit.cli"],
                                         "importtime")
        run.probe()
        f = run.factor(index)
        for self_us, cumulative_us, name in re.findall(
                r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(respkit\S*)$", err, re.MULTILINE):
            short = name.replace("respkit.", "") if name != "respkit" else "respkit"
            found.setdefault(f"import.{short}_self_ms", []).append(int(self_us) / 1000 * f)
            if name == "respkit.cli":
                found.setdefault("import.respkit_cli_ms", []).append(
                    int(cumulative_us) / 1000 * f)
    return {name: statistics.median(values) for name, values in found.items()}


def scale_exponents(run: Run, workload: str, seed: int) -> dict:
    out = run.work / "scale.json"
    _, err, status, _, _ = run.spawn([str(HERE / "tracer.py"), "--scale", str(out),
                                      workload, str(seed)], "scale")
    if status != 0:
        raise RuntimeError(f"scaling run failed:\n{err}")
    result = json.loads(out.read_text())
    size_ratio = result["bytes"]["full"] / result["bytes"]["quarter"]
    return {f"{name}.scale_exp": math.log(t["full"] / t["quarter"]) / math.log(size_ratio)
            for name, t in result["seconds"].items()}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/respkit/cli.py", "corpus/evacuation.resp", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a respkit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    run = Run(work)
    try:
        work.mkdir(parents=True)
        bundle, setup = set_up(run, args.workload, args.seed,
                               1 if args.trace else SETUP_REPEATS)
        ops, extra, merged_path = build_ops(args.workload, work, bundle)
        rounds = timed_rounds(run, ops, extra, merged_path, args.seconds,
                              bool(args.trace))
        metrics = end_to_end(run, rounds, setup)
        if args.trace:
            metrics = per_layer(run, args.workload, args.seed, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    declared = declared_metrics(bool(args.trace))
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {rounds} timed round(s), "
          f"probe median {1000 * statistics.median(run.probes):.1f} ms "
          f"(reference {1000 * PROBE_REF_S:.1f} ms)")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
