"""``perfbench/tracer.py`` wraps respkit functions by name; a run of it
fails if one of them is renamed or moved, or if a subcommand reaches one
through a reference that the tracer cannot replace."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RESP = "corpus/evacuation.resp"
DUTY = ("--responsibility", "Evacuate area")

# Each subcommand on the corpus, its exit status and the spans a traced
# benchmark run reads from it, besides its own ``cli.run`` span and the
# parse and build that every subcommand records.
LAYERS = {
    "check": ((RESP,), 0, {"model.validate"}),
    "analyze": ((RESP, "--format", "json"), 1, {
        "analysis.run_all", "analysis.find_unassigned", "analysis.find_unsourced_info",
        "analysis.find_unused_resources", "analysis.find_single_channel",
        "analysis.find_duplicate_sources", "analysis.agent_load",
        "analysis.detect_sequence_cycles", "reporting.findings_report"}),
    "elicit": ((RESP, *DUTY), 0, {"elicitation.answers_skeleton"}),
    "ingest": ((RESP, "corpus/evacuation.answers"), 0, {
        "dsl.parse_answers", "elicitation.ingest_all", "dsl.print_model"}),
    "tables": ((RESP, *DUTY), 0, {
        "elicitation.information_required_table",
        "elicitation.information_recorded_table", "reporting.table_to_markdown"}),
    "hazards": ((RESP, *DUTY), 0, {
        "hazards.generate_worksheet", "reporting.worksheet_table",
        "reporting.table_to_markdown"}),
    "mitigations": ((RESP, *DUTY), 0, {"hazards.derive_mitigations"}),
    "requirements": ((RESP, "corpus/evacuation.reqs", "--report"), 0, {
        "dsl.parse_requirements", "reporting.requirements_report"}),
    "dot": ((RESP,), 0, {"reporting.to_dot"}),
    "diff": ((RESP, RESP, "--format", "json"), 0, {
        "analysis.diff_models", "reporting.diff_report"}),
}


def _assert_layers(tmp_path, sub):
    """Run ``sub`` through the tracer; check its exit status and spans."""
    args, status, layers = LAYERS[sub]
    spans = tmp_path / "spans.json"
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-B", "perfbench/tracer.py", str(spans), sub, *args],
        cwd=REPO, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == status, done.stderr
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))}
    expected = {f"cli.run.{sub}", "dsl.parse_model", "build.build_model"} | layers
    assert expected - names == set()


def test_tracer_records_the_layers_of_check(tmp_path):
    _assert_layers(tmp_path, "check")


@pytest.mark.parametrize("sub", [sub for sub in LAYERS if sub != "check"])
def test_tracer_records_the_layers_of(tmp_path, sub):
    _assert_layers(tmp_path, sub)


def test_the_subcommands_record_every_traced_name():
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{module}.{name}" for module, names in tracer.TRACED.items()
              for name in names}
    recorded = set().union(*(layers for _, _, layers in LAYERS.values()))
    assert traced - {"dsl.parse_model", "build.build_model"} == recorded
