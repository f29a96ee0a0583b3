"""The benchmark's independent oracle, run in process.

``perfbench/gen.py`` draws seeded models, answer sessions and requirements
and records every finding, inconsistency and merged value it plants;
``perfbench/oracle.py`` checks each subcommand's output against those
records, which are made without respkit.  Each test here takes the ops of
one benchmark round from ``perfbench/run.py``'s ``build_ops`` and runs
them through ``cli.run``: ``ingest`` first, whose output the later ops
read, then every other subcommand, then the two extra checks of the
verification round (re-ingest changes no byte; ``diff b a`` swaps
``diff a b``).  The ``corpus`` round includes its two contract ops, a
Latin-1 model and ``--load-threshold 0``, which must exit 2 with a
one-line diagnostic.  The generated workloads use 20 to 40 duties, so
each seed takes tens of milliseconds.
"""

import io
import sys
from pathlib import Path

import pytest

from respkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench():
    """``gen`` and ``run`` from ``perfbench/``, imported without writing
    bytecode there and with ``sys.path`` and the bytecode flag restored,
    since ``run`` sets both for its own process."""
    path, writes = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import run
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = writes
    return gen, run


gen, bench = _perfbench()

SEEDS = range(1, 31)


def _duties(seed: int) -> int:
    return 20 + seed * 7 % 21


def _run_round(workload: str, work: Path, bundle) -> list:
    """Every problem the oracle finds in one round of ``workload``."""
    ops, extra, merged_path = bench.build_ops(workload, work, bundle)
    problems = []
    for op in ops + extra:
        stdout, stderr = io.StringIO(), io.StringIO()
        status = cli.run(op.argv, stdout=stdout, stderr=stderr)
        out, err = stdout.getvalue(), stderr.getvalue()
        problems += [f"{op.name}: {p}" for p in op.check(out, err, status)]
        if op.name == "ingest":
            Path(merged_path).write_text(out, encoding="utf-8")
    return problems


@pytest.fixture()
def work(tmp_path, monkeypatch):
    # Op paths are relative to the root of the checkout.
    monkeypatch.chdir(PERFBENCH.parent)
    return tmp_path


def test_corpus_round(work):
    bench.write_inputs("corpus", 1, work)
    assert _run_round("corpus", work, None) == []


@pytest.mark.parametrize("workload", ["review", "elicitation"])
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_round(work, workload, seed):
    bundle = getattr(gen, workload)(seed, _duties(seed))
    for name, text in bundle.files.items():
        (work / name).write_text(text, encoding="utf-8")
    assert _run_round(workload, work, bundle) == []
