import argparse
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from respkit import build, build_model, cli, load_model
from respkit.dsl import parse_model, parse_requirements
from respkit.model import printable

from strategies import answers_text, dsl_text, one_in, reqs_text, resp_text


REPO = Path(__file__).resolve().parent.parent


def _python(*args: str, cwd: Path = REPO, text: bool = True,
            stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process run in ``cwd``, with the package
    source first on its import path and ``env`` added to its environment.
    Its stderr is captured, and its stdout too unless ``stdout`` says
    where it goes."""
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, text=text, timeout=60)


def test_import_loads_neither_json_nor_csv():
    """Only the JSON and CSV renderers import ``json`` and ``csv``, and only
    a ``diff`` that loads in two processes imports ``pickle``."""
    done = _python("-c", "import sys, respkit.cli; "
                         "print(sorted({'json', 'csv', 'pickle'} & set(sys.modules)))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_import_warns_nothing():
    """Importing the command line raises no warning, deprecations included,
    so every run starts without one."""
    done = _python("-W", "error", "-c", "import respkit.cli")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


class TestCheck:
    def test_corpus_is_acceptable_lenient(self, run_cli, resp_path):
        status, out, err = run_cli("check", str(resp_path))
        assert status == 0
        assert out == ""
        assert "UNASSIGNED_RESP" in err

    def test_strict_adds_implicit_decls(self, run_cli, resp_path):
        status, out, err = run_cli("check", str(resp_path), "--strict")
        assert status == 0
        assert "IMPLICIT_DECL low environment-agency" in err

    def test_parse_error_is_status_2(self, run_cli, tmp_path):
        bad = tmp_path / "bad.resp"
        bad.write_text('responsibility "X" {', encoding="utf-8")
        status, out, err = run_cli("check", str(bad))
        assert status == 2
        assert "expected '}'" in err
        assert out == ""

    def test_build_error_is_status_2(self, run_cli, tmp_path):
        bad = tmp_path / "bad.resp"
        bad.write_text("resource [X]\nresource |X|\n", encoding="utf-8")
        status, _, err = run_cli("check", str(bad))
        assert status == 2
        assert "conflicting resource kind" in err

    def test_missing_file_is_status_2(self, run_cli, tmp_path):
        status, _, err = run_cli("check", str(tmp_path / "nope.resp"))
        assert status == 2
        assert "error" in err

    def test_undecodable_model_is_status_2(self, run_cli, resp_path, tmp_path):
        bad = tmp_path / "latin1.resp"
        bad.write_bytes("# évacuation\n".encode("latin-1") + resp_path.read_bytes())
        status, out, err = run_cli("check", str(bad))
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {bad}: line 1: not valid UTF-8 (invalid continuation byte)"]

    def test_carriage_return_in_a_name_is_not_a_line_end(self, run_cli, tmp_path):
        # Only "\n" ends a line, as in parse_model; the finding escapes it.
        model = tmp_path / "cr.resp"
        model.write_bytes(b'responsibility "Say\rwhen" {\n'
                          b'  requires |Facts| from <A> via "Phone"\n}\n')
        status, out, err = run_cli("check", str(model))
        assert (status, out) == (0, "")
        assert err == ('UNASSIGNED_RESP high say-when: '
                       'responsibility "Say\\rwhen" has no assigned agent\n')
        assert load_model(model).responsibilities[0].name == "Say\rwhen"

    # A file name may hold any line end; each error still takes one line.
    LINE_END_NAME = "bad\rname\n .resp"

    def test_line_end_in_a_file_name_keeps_a_span_on_one_line(self, run_cli,
                                                               tmp_path):
        bad = tmp_path / self.LINE_END_NAME
        bad.write_text('responsibility "X" {', encoding="utf-8")
        status, _, err = run_cli("check", str(bad))
        assert status == 2
        (line,) = err.splitlines()
        assert line.startswith(f"{tmp_path}/bad\\rname\\n\\u2028.resp:1:")

    def test_line_end_in_a_file_name_keeps_utf8_error_on_one_line(self, run_cli,
                                                                  tmp_path):
        bad = tmp_path / self.LINE_END_NAME
        bad.write_bytes("# évacuation\n".encode("latin-1"))
        status, _, err = run_cli("check", str(bad))
        assert status == 2
        assert err.splitlines() == [
            f"error: {tmp_path}/bad\\rname\\n\\u2028.resp: line 1: not valid UTF-8 "
            f"(invalid continuation byte)"]


class TestAnalyze:
    def test_corpus_reports_and_fails(self, run_cli, resp_path):
        status, out, err = run_cli("analyze", str(resp_path))
        assert status == 1
        lines = [l for l in out.splitlines() if l.startswith("UNASSIGNED_RESP")]
        assert len(lines) == 1
        assert "collect-evacuee-information" in lines[0]

    def test_fail_level_gates_exit_code(self, run_cli, resp_path):
        status, out, _ = run_cli("analyze", str(resp_path),
                                 "--fail-level", "critical")
        assert status == 0
        assert "UNASSIGNED_RESP" in out

    def test_json_format(self, run_cli, resp_path):
        status, out, _ = run_cli("analyze", str(resp_path), "--format", "json")
        assert status == 1
        payload = json.loads(out)
        codes = {item["code"] for item in payload}
        assert "UNASSIGNED_RESP" in codes
        assert list(payload[0].keys()) == [
            "code", "severity", "subjects", "explanation"]

    def test_load_threshold_flag(self, run_cli, tmp_path):
        text = "\n".join(
            f'responsibility "R{i}" {{ assigned to <Ops> }}' for i in range(3))
        model = tmp_path / "m.resp"
        model.write_text(text, encoding="utf-8")
        status, out, _ = run_cli("analyze", str(model), "--load-threshold", "2")
        assert status == 1
        assert "AGENT_OVERLOAD" in out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_load_threshold_below_one_is_status_2(self, run_cli, resp_path, value):
        status, out, err = run_cli("analyze", str(resp_path),
                                   "--load-threshold", value)
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: --load-threshold must be at least 1, got {value}"]


@pytest.fixture(scope="module")
def thousand_duties(tmp_path_factory) -> Path:
    """A model file of 1000 duties, "Duty 0000" to "Duty 0999"."""
    path = tmp_path_factory.mktemp("large") / "m.resp"
    path.write_text("".join(f'responsibility "Duty {i:04d}" {{\n}}\n' for i in range(1000)),
                    encoding="utf-8")
    return path


class TestElicit:
    def test_skeleton_to_stdout(self, run_cli, resp_path):
        status, out, _ = run_cli("elicit", str(resp_path),
                                 "--responsibility", "Evacuate area")
        assert status == 0
        assert out.startswith("# Elicitation sheet")
        assert 'elicitation "Evacuate area" {' in out

    def test_output_file(self, run_cli, resp_path, tmp_path):
        target = tmp_path / "sheet.answers"
        status, out, _ = run_cli("elicit", str(resp_path),
                                 "--responsibility", "Evacuate area",
                                 "-o", str(target))
        assert status == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("# Elicitation")

    def test_unknown_responsibility_is_status_2(self, run_cli, resp_path):
        status, _, err = run_cli("elicit", str(resp_path),
                                 "--responsibility", "Evacuate aera")
        assert status == 2
        assert '"Evacuate area"' in err

    @settings(max_examples=40, deadline=None)
    @given(name=st.text() | st.sampled_from(["Duty 1000", "duty 0001", "Duty 00012"]))
    def test_unknown_duty_line_does_not_grow_with_the_model(self, thousand_duties,
                                                            name):
        """The line names how many duties there are and at most three close
        names, not every duty."""
        stderr = io.StringIO()
        status = cli.run(["elicit", str(thousand_duties), f"--responsibility={name}"],
                         stdout=io.StringIO(), stderr=stderr)
        assume(status == 2)
        (line,) = stderr.getvalue().splitlines()
        assert line.startswith("error: unknown responsibility")
        assert len(line) < 120 + len(printable(name))


@pytest.mark.parametrize("sub", ["elicit", "tables", "hazards", "mitigations"])
def test_duty_name_like_an_option_needs_the_equals_form(run_cli, tmp_path, sub):
    """argparse takes a value that starts with "-" and holds no space for an
    option, as README says; ``--responsibility=NAME`` passes any name."""
    model = tmp_path / "m.resp"
    model.write_text('responsibility "-Relief" {\n  requires |Map|\n'
                     '  hazard |Map| late "No route." severity high\n}\n', encoding="utf-8")
    status, out, err = run_cli(sub, str(model), "--responsibility", "-Relief")
    assert (status, out) == (2, "")
    assert err.endswith(": error: argument --responsibility: expected one argument\n")
    status, out, err = run_cli(sub, str(model), "--responsibility=-Relief")
    assert (status, err) == (0, "")
    assert "Map" in out


class TestIngest:
    def test_prints_merged_canonical_model(self, run_cli, resp_path,
                                           answers_path):
        status, out, _ = run_cli("ingest", str(resp_path), str(answers_path))
        assert status == 0
        merged = build_model(parse_model(out))
        resp = merged.responsibility_named("Evacuate area")
        assert len(resp.hazards) == 5

    def test_round_trips_through_output_file(self, run_cli, resp_path,
                                             answers_path, tmp_path):
        target = tmp_path / "merged.resp"
        status, _, _ = run_cli("ingest", str(resp_path), str(answers_path),
                               "-o", str(target))
        assert status == 0
        merged = load_model(target)
        assert len(merged.responsibility_named("Evacuate area").hazards) == 5

    def test_ingest_twice_is_stable(self, run_cli, resp_path, answers_path,
                                    tmp_path):
        once = tmp_path / "once.resp"
        run_cli("ingest", str(resp_path), str(answers_path), "-o", str(once))
        status, out, _ = run_cli("ingest", str(once), str(answers_path))
        assert status == 0
        assert out == once.read_text(encoding="utf-8")

    def test_undecodable_answers_is_status_2(self, run_cli, resp_path,
                                             answers_path, tmp_path):
        bad = tmp_path / "latin1.answers"
        bad.write_bytes(answers_path.read_bytes()
                        + "# fin\n# réponse\n".encode("latin-1"))
        lines = bad.read_bytes().count(b"\n")
        status, out, err = run_cli("ingest", str(resp_path), str(bad))
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {bad}: line {lines}: not valid UTF-8 (invalid continuation byte)"]

    @pytest.mark.parametrize("strict", [(), ("--strict",)])
    @pytest.mark.parametrize("block, message", [
        ("needs { |Area map| from <!!!> }", "agent name '!!!'"),
        ("needs { |!!!| }", "resource name '!!!'"),
        ("records { |--| }", "resource name '--'"),
        ('needs { |Area map| via "--" }', "channel name '--'"),
        ('hazards |!!!| { late "x" }', "resource name '!!!'"),
    ])
    def test_name_without_alphanumerics_is_status_2(self, run_cli, resp_path,
                                                    tmp_path, block, message,
                                                    strict):
        answers = tmp_path / "a.answers"
        text = f'elicitation "Evacuate area" {{ {block} }}'
        answers.write_text(text, encoding="utf-8")
        status, out, err = run_cli("ingest", str(resp_path), str(answers), *strict)
        assert status == 2
        assert out == ""
        # The answer refused is the line after the block's last "{ ".
        column = text.rindex("{ ") + 3
        assert err.splitlines() == [f"{answers}:1:{column}: error: {message} "
                                    "needs at least one alphanumeric character"]

    @pytest.mark.parametrize("strict, last", [
        ((), 'hazard block for |Never required| but "Evacuate area" does not '
             "require it"),
        (("--strict",), "unknown information resource |Never required|"),
    ])
    def test_every_problem_is_one_line_of_stderr(self, run_cli, resp_path,
                                                 tmp_path, strict, last):
        answers = tmp_path / "a.answers"
        answers.write_text('elicitation "Evacuate area" {\n'
                           "  needs { |area map!| }\n"
                           "  records { |Evacuation transport| }\n"
                           '  hazards |Never required| { late "x" }\n'
                           "}\n", encoding="utf-8")
        status, out, err = run_cli("ingest", str(resp_path), str(answers), *strict)
        assert (status, out) == (2, "")
        assert err.splitlines() == [
            f"{answers}:2:11: error: resources 'Area map' and 'area map!' collide "
            "on id 'area-map'",
            f"{answers}:3:13: error: conflicting resource kind: 'Evacuation "
            "transport' is physical but is used as information",
            f"{answers}:4:30: error: {last}"]

    def test_bad_reference_is_status_2(self, run_cli, resp_path, tmp_path):
        answers = tmp_path / "a.answers"
        answers.write_text('elicitation "Ghost" {}', encoding="utf-8")
        status, _, err = run_cli("ingest", str(resp_path), str(answers))
        assert status == 2
        assert "Ghost" in err

    def test_strict_rejects_new_elements(self, run_cli, resp_path, tmp_path):
        answers = tmp_path / "a.answers"
        answers.write_text(
            'elicitation "Evacuate area" { needs { |Brand new| } }',
            encoding="utf-8")
        status, _, err = run_cli("ingest", str(resp_path), str(answers),
                                 "--strict")
        assert status == 2
        assert "Brand new" in err


class TestTables:
    def test_required_matches_golden(self, run_cli, resp_path, golden_dir):
        status, out, _ = run_cli(
            "tables", str(resp_path), "--responsibility", "Evacuate area",
            "--which", "required", "--format", "md")
        assert status == 0
        golden = (golden_dir / "evacuate_area_required.md").read_text(
            encoding="utf-8")
        assert out == golden

    def test_recorded_matches_golden(self, run_cli, resp_path, golden_dir):
        status, out, _ = run_cli(
            "tables", str(resp_path), "--responsibility", "Evacuate area",
            "--which", "recorded", "--format", "md")
        assert status == 0
        golden = (golden_dir / "evacuate_area_recorded.md").read_text(
            encoding="utf-8")
        assert out == golden

    def test_both_concatenates_with_blank_line(self, run_cli, resp_path,
                                               golden_dir):
        status, out, _ = run_cli(
            "tables", str(resp_path), "--responsibility", "Evacuate area")
        assert status == 0
        required = (golden_dir / "evacuate_area_required.md").read_text(
            encoding="utf-8")
        recorded = (golden_dir / "evacuate_area_recorded.md").read_text(
            encoding="utf-8")
        assert out == required + "\n" + recorded

    def test_csv_quotes_joint_sources(self, run_cli, resp_path):
        status, out, _ = run_cli(
            "tables", str(resp_path), "--responsibility", "Evacuate area",
            "--which", "required", "--format", "csv")
        assert status == 0
        assert '"Police, Fire Service"' in out
        assert out.endswith("\r\n")

    def test_unknown_format_is_usage_error(self, run_cli, resp_path):
        status, _, err = run_cli(
            "tables", str(resp_path), "--responsibility", "Evacuate area",
            "--format", "html")
        assert status == 2
        assert "usage" in err


class TestHazards:
    def test_worksheet_row_count(self, run_cli, resp_path):
        status, out, _ = run_cli("hazards", str(resp_path),
                                 "--responsibility", "Evacuate area")
        assert status == 0
        # Header + separator + 40 rows.
        assert len(out.rstrip("\n").splitlines()) == 42

    def test_prefilled_after_ingest(self, run_cli, resp_path, answers_path,
                                    tmp_path):
        merged = tmp_path / "merged.resp"
        run_cli("ingest", str(resp_path), str(answers_path), "-o", str(merged))
        status, out, _ = run_cli("hazards", str(merged),
                                 "--responsibility", "Evacuate area")
        assert status == 0
        assert "| Priority premises list | early | No consequence. | none |" in out

    def test_csv_format(self, run_cli, resp_path):
        status, out, _ = run_cli("hazards", str(resp_path),
                                 "--responsibility", "Evacuate area",
                                 "--format", "csv")
        assert status == 0
        assert out.splitlines()[0] == \
            "Information item,Guide word,Consequence,Severity,Mitigation"


class TestMitigations:
    def test_stubs_render_as_requirements(self, run_cli, resp_path,
                                          answers_path, tmp_path):
        merged = tmp_path / "merged.resp"
        run_cli("ingest", str(resp_path), str(answers_path), "-o", str(merged))
        status, out, _ = run_cli("mitigations", str(merged),
                                 "--responsibility", "Evacuate area")
        assert status == 0
        stubs = parse_requirements(out)
        assert [s.id for s in stubs] == [
            "MIT-evacuate-area-priority-premises-list-unavailable",
            "MIT-evacuate-area-priority-premises-list-inaccurate",
            "MIT-evacuate-area-priority-premises-list-incomplete",
            "MIT-evacuate-area-priority-premises-list-late",
        ]

    def test_without_assessments_no_stubs(self, run_cli, resp_path):
        status, out, _ = run_cli("mitigations", str(resp_path),
                                 "--responsibility", "Evacuate area")
        assert status == 0
        assert out == ""

    def test_threshold_flag(self, run_cli, resp_path, answers_path, tmp_path):
        merged = tmp_path / "merged.resp"
        run_cli("ingest", str(resp_path), str(answers_path), "-o", str(merged))
        status, out, _ = run_cli("mitigations", str(merged),
                                 "--responsibility", "Evacuate area",
                                 "--threshold", "high")
        assert status == 0
        stubs = parse_requirements(out)
        assert len(stubs) == 2


class TestRequirements:
    def test_report(self, run_cli, resp_path, reqs_path):
        status, out, _ = run_cli("requirements", str(resp_path),
                                 str(reqs_path), "--report")
        assert status == 0
        assert out.startswith("# Requirements")
        assert "10 requirements." in out

    def test_validation_only_mode(self, run_cli, resp_path, reqs_path):
        status, out, err = run_cli("requirements", str(resp_path),
                                   str(reqs_path))
        assert status == 0
        assert out == ""
        assert "all traces resolve" in err

    def test_broken_trace_is_status_2(self, run_cli, resp_path, reqs_path,
                                      tmp_path):
        broken = tmp_path / "broken.reqs"
        text = reqs_path.read_text(encoding="utf-8")
        broken.write_text(
            text.replace("traces |Area map|", "traces |No such thing|", 1),
            encoding="utf-8")
        status, out, err = run_cli("requirements", str(resp_path),
                                   str(broken), "--report")
        assert status == 2
        assert out == ""
        assert "|No such thing|" in err

    MITIGATED = """agent <Ops> kind role
responsibility "Evacuate" {
  assigned to <Ops>
  requires |Map| from <Ops>
  hazard |Map| late "Slow." severity high mitigated_by REQ-99
  hazard |Map| early "Soon." severity low mitigated_by REQ-1
}
responsibility "Shelter" {
  requires |Plan| from <Ops>
  hazard |Plan| unavailable "None." severity high mitigated_by REQ-7
}
"""
    REQS = 'requirement REQ-1 {{\n  text "t"\n  rationale "r"\n  traces {trace}\n}}\n'
    UNMITIGATED = [
        'error: unresolved mitigated_by: responsibility "Evacuate": hazard |Map| late: REQ-99',
        'error: unresolved mitigated_by: responsibility "Shelter": '
        'hazard |Plan| unavailable: REQ-7',
    ]

    @pytest.mark.parametrize("report", [(), ("--report",)], ids=["check", "report"])
    @pytest.mark.parametrize("trace, first", [
        ("<Ops>", []),
        ("|Gone|", ["error: unresolved trace references: REQ-1: |Gone|"]),
    ], ids=["traces-resolve", "trace-unresolved"])
    def test_mitigated_by_names_a_requirement(self, run_cli, tmp_path, report,
                                              trace, first):
        """Each hazard whose ``mitigated_by`` names no requirement of the
        file is an error line, in model order, after the trace error."""
        (tmp_path / "m.resp").write_text(self.MITIGATED, encoding="utf-8")
        (tmp_path / "r.reqs").write_text(self.REQS.format(trace=trace), encoding="utf-8")
        status, out, err = run_cli("requirements", str(tmp_path / "m.resp"),
                                   str(tmp_path / "r.reqs"), *report)
        assert (status, out, err.splitlines()) == (2, "", first + self.UNMITIGATED)

    @pytest.mark.parametrize("report", [(), ("--report",)], ids=["check", "report"])
    def test_each_unresolved_trace_is_a_line(self, run_cli, tmp_path, report):
        """Two unresolved traces are two error lines, in record order, then
        the hazard whose ``mitigated_by`` names no requirement."""
        model = self.MITIGATED.replace("REQ-7", "REQ-1")
        reqs = (self.REQS.format(trace="|Gone|")
                + self.REQS.format(trace="<Nobody>").replace("REQ-1", "REQ-2"))
        (tmp_path / "m.resp").write_text(model, encoding="utf-8")
        (tmp_path / "r.reqs").write_text(reqs, encoding="utf-8")
        status, out, err = run_cli("requirements", str(tmp_path / "m.resp"),
                                   str(tmp_path / "r.reqs"), *report)
        assert (status, out, err.splitlines()) == (2, "", [
            "error: unresolved trace references: REQ-1: |Gone|",
            "error: unresolved trace references: REQ-2: <Nobody>",
            self.UNMITIGATED[0]])

    def test_a_mitigation_need_not_trace_its_hazard(self, run_cli, tmp_path):
        """A ``mitigated_by`` that names a requirement of the file resolves,
        whether or not that requirement traces the hazard back."""
        model = self.MITIGATED.replace("REQ-99", "REQ-1").replace("REQ-7", "REQ-1")
        (tmp_path / "m.resp").write_text(model, encoding="utf-8")
        (tmp_path / "r.reqs").write_text(self.REQS.format(trace="<Ops>"), encoding="utf-8")
        status, out, err = run_cli("requirements", str(tmp_path / "m.resp"),
                                   str(tmp_path / "r.reqs"))
        assert (status, out, err) == (0, "", "1 requirement(s), all traces resolve.\n")

    def test_undecodable_requirements_is_status_2(self, run_cli, resp_path,
                                                  tmp_path):
        bad = tmp_path / "bad.reqs"
        bad.write_bytes(b"requirement R1 {\n  text \"\xff\"\n}\n")
        status, out, err = run_cli("requirements", str(resp_path), str(bad),
                                   "--report")
        assert status == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {bad}: line 2: not valid UTF-8 (invalid start byte)"]


class TestDot:
    def test_stdout_and_file_output_agree(self, run_cli, resp_path, tmp_path):
        status, out, _ = run_cli("dot", str(resp_path))
        assert status == 0
        target = tmp_path / "m.dot"
        run_cli("dot", str(resp_path), "-o", str(target))
        assert target.read_text(encoding="utf-8") == out


class TestDiff:
    def test_identical_models_exit_zero(self, run_cli, resp_path):
        status, out, _ = run_cli("diff", str(resp_path), str(resp_path))
        assert status == 0
        assert out == "0 inconsistencies.\n"

    def test_mutated_copy_exits_one(self, run_cli, resp_path, tmp_path):
        mutated = tmp_path / "mutated.resp"
        text = resp_path.read_text(encoding="utf-8")
        mutated.write_text(
            text.replace("assigned to <Police>", "assigned to <Fire Service>"),
            encoding="utf-8")
        status, out, _ = run_cli("diff", str(resp_path), str(mutated))
        assert status == 1
        assert 'AssignmentMismatch "Evacuate area"' in out
        assert "1 inconsistency." in out

    def test_json_format(self, run_cli, resp_path, tmp_path):
        mutated = tmp_path / "mutated.resp"
        text = resp_path.read_text(encoding="utf-8")
        mutated.write_text(
            text.replace("assigned to <Police>", "assigned to <Fire Service>"),
            encoding="utf-8")
        status, out, _ = run_cli("diff", str(resp_path), str(mutated),
                                 "--format", "json")
        assert status == 1
        (item,) = json.loads(out)
        assert item["kind"] == "AssignmentMismatch"
        assert item["left"] == "<Police>"


class TestOneLineDiagnostics:
    """An error writes a line end in a name, or in a name asked for, as its
    Python escape, so the error stays one line on stderr."""

    MODEL = b'responsibility "Say\rwhen" {\n  requires |Fact| from <A> via "Phone"\n}\n'

    @pytest.mark.parametrize("argv, files, expected", [
        (("elicit", "{m}", "--responsibility", "nope"), {"m": MODEL},
         'error: unknown responsibility "nope"; model defines 1, closest: (none)'),
        (("elicit", "{m}", "--responsibility", "Say\nwhen"), {"m": MODEL},
         'error: unknown responsibility "Say\\nwhen"; model defines 1, '
         'closest: "Say\\rwhen"'),
        (("requirements", "{m}", "{r}"),
         {"m": MODEL, "r": b'requirement R1 {\n  text "t"\n  rationale "r"\n'
                           b'  traces |Gone\rx|\n}\n'},
         "error: unresolved trace references: R1: |Gone\\rx|"),
        (("check", "{m}"),
         {"m": b'responsibility "Say\rwhen" {\n  hazard |X\rY| late "c"\n}\n'},
         '{m}:1:1: error: hazard on |X\\rY| but "Say\\rwhen" does not require it'),
        (("check", "{m}"), {"m": b"agent <A\rB> kind role\nagent <A\rB> kind person\n"},
         "{m}:2:1: error: conflicting agent kind for <A\\rB>: role vs person"),
        (("ingest", "--strict", "{m}", "{a}"),
         {"m": MODEL, "a": b'elicitation "Say\rwhen" {\n  needs { |Fact| from <Gh\rost> }\n}\n'},
         "{a}:2:11: error: unknown agent <Gh\\rost>"),
        (("ingest", "--strict", "{m}", "{a}"),
         {"m": MODEL, "a": b'elicitation "Say\rwhen" {\n  needs { |Ne\rw| }\n}\n'},
         "{a}:2:11: error: unknown information resource |Ne\\rw|"),
        (("ingest", "--strict", "{m}", "{a}"),
         {"m": MODEL, "a": b'elicitation "Say\rwhen" {\n  needs { |Fact| via "Ra\rdio" }\n}\n'},
         '{a}:2:11: error: unknown channel "Ra\\rdio"'),
        (("ingest", "{m}", "{a}"),
         {"m": MODEL, "a": b'elicitation "Say\rwhen" {\n  hazards |X\rY| { late "c" }\n}\n'},
         '{a}:2:19: error: hazard block for |X\\rY| but "Say\\rwhen" does not require it'),
        # diff reports left's error, not right's, when both files fail.
        (("diff", "{m}", "{m}.gone"), {"m": b'responsibility "Say\rwhen" {\n'},
         "{m}:2:1: error: expected '}}', found end of file"),
        (("diff", "{m}.gone", "{m}"), {"m": b'responsibility "Say\rwhen" {\n'},
         "error: [Errno 2] No such file or directory: '{m}.gone'"),
        (("diff", "{m}", "{r}"),
         {"m": MODEL, "r": b"agent <A\rB> kind role\nagent <A\rB> kind person\n"},
         "{r}:2:1: error: conflicting agent kind for <A\\rB>: role vs person"),
    ], ids=["unknown-duty", "asked-name", "trace", "orphan-hazard", "agent-kind",
            "strict-agent", "strict-resource", "strict-channel", "hazard-block",
            "diff-bad-left-missing-right", "diff-missing-left-bad-right",
            "diff-right-build-error"])
    def test_error_is_one_line(self, run_cli, tmp_path, argv, files, expected):
        paths = {}
        for key, data in files.items():
            paths[key] = tmp_path / f"{key}.in"
            paths[key].write_bytes(data)
        status, out, err = run_cli(*(arg.format(**paths) for arg in argv))
        assert (status, out) == (2, "")
        assert err == expected.format(**paths) + "\n"
        assert len(err.splitlines()) == 1


ESC = "\x1b"


class TestPrintableStderr:
    """Each producer of a diagnostic builds a plain message, and each line
    written to stderr writes what ``str.isprintable()`` rejects, such as a
    terminal escape, as its Python escape.  A backslash stays as written.
    ``{dir}`` is the directory that holds the files."""

    MODEL = 'agent <Ops>\nresponsibility "R" {\n  requires |Map|\n}\n'

    @pytest.mark.parametrize("argv, files, expected", [
        (["check", "m.resp"], {"m.resp": f'model "\\{ESC}"\n'},
         """{dir}/m.resp:1:8: error: expected escape '\\"' or '\\\\', found '\\\\x1b'"""),
        (["ingest", "--strict", "m.resp", "a.answers"],
         {"m.resp": MODEL,
          "a.answers": f'elicitation "R" {{\n  needs {{ |Map| from <Ops {ESC}[2J> }}\n}}\n'},
         "{dir}/a.answers:2:11: error: unknown agent <Ops \\x1b[2J>"),
        (["check", "m.resp"],
         {"m.resp": f'responsibility "R" {{\n  hazard |X{ESC}Y| late "c"\n}}\n'},
         '{dir}/m.resp:1:1: error: hazard on |X\\x1bY| but "R" does not require it'),
        (["requirements", "m.resp", "r.reqs"],
         {"m.resp": MODEL, "r.reqs": 'requirement R1 {\n  text "t"\n  rationale "r"\n'
                                     f'  traces <Ops {ESC}]0;pwn\a>\n}}\n'},
         "error: unresolved trace references: R1: <Ops \\x1b]0;pwn\\x07>"),
        (["elicit", "m.resp", "--responsibility", f"R{ESC}[31m"], {"m.resp": MODEL},
         'error: unknown responsibility "R\\x1b[31m"; model defines 1, closest: (none)'),
        (["check", f"m{ESC}[31m.resp"], {f"m{ESC}[31m.resp": 'responsibility "R" {'},
         "{dir}/m\\x1b[31m.resp:1:21: error: expected '}', found end of file"),
        (["check", "m.resp"], {"m.resp": f'responsibility "Say{ESC}[31mhi" {{\n}}\n'},
         'UNASSIGNED_RESP high say-31mhi: responsibility "Say\\x1b[31mhi" has no '
         "assigned agent"),
    ], ids=["bad-escape", "strict-agent", "orphan-hazard", "trace", "asked-name",
            "file-name", "finding"])
    def test_line_is_printable(self, run_cli, tmp_path, argv, files, expected):
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        _, out, err = run_cli(*(str(tmp_path / arg) if arg in files else arg
                                for arg in argv))
        assert out == ""
        assert err == expected.replace("{dir}", str(tmp_path)) + "\n"


class TestFailingRunWritesNothing:
    """A run that fails writes its one error line and no artifact: nothing
    on stdout, and no file at the ``-o`` path."""

    ANSWERS = 'elicitation "Evacuate area" {\n  needs { |!!!| }\n}\n'
    MODEL = "responsibility {\n"

    @pytest.mark.parametrize("argv, expected", [
        (("elicit", "{resp}", "--responsibility", "Ghost"),
         'error: unknown responsibility "Ghost"; model defines 6, closest: (none)'),
        (("ingest", "{resp}", "{answers}"),
         "{answers}:2:11: error: resource name '!!!' needs at least one alphanumeric "
         "character"),
        (("dot", "{model}"), "{model}:1:16: error: expected string, found '{{'"),
    ], ids=["elicit-unknown-duty", "ingest-bad-answers", "dot-parse-error"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_no_artifact(self, run_cli, resp_path, tmp_path, argv, expected, to_file):
        paths = {"resp": resp_path, "answers": tmp_path / "bad.answers",
                 "model": tmp_path / "bad.resp"}
        paths["answers"].write_text(self.ANSWERS, encoding="utf-8")
        paths["model"].write_text(self.MODEL, encoding="utf-8")
        target = tmp_path / "artifact"
        output = ("-o", str(target)) if to_file else ()
        status, out, err = run_cli(*(arg.format(**paths) for arg in argv), *output)
        assert (status, out, err) == (2, "", expected.format(**paths) + "\n")
        assert not target.exists()


class TestUsage:
    def test_unknown_subcommand(self, run_cli):
        status, _, err = run_cli("frobnicate")
        assert status == 2
        assert "usage" in err

    def test_no_arguments(self, run_cli):
        status, _, err = run_cli()
        assert status == 2

    def test_help_exits_zero(self, run_cli):
        status, out, _ = run_cli("--help")
        assert status == 0
        assert "respkit" in out

    def test_entry_point_writes_help_before_it_ends(self, monkeypatch):
        """The process ends without the interpreter's teardown, so help
        that argparse left in stdout's buffer must be flushed first."""
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        done = _python("-c", "from respkit.cli import main; main()", "--help",
                       COLUMNS="80")
        golden = REPO / "corpus" / "golden" / "help" / "help.out"
        assert (done.returncode, done.stdout, done.stderr) == (
            0, golden.read_text(encoding="utf-8"), "")

    @pytest.mark.parametrize("argv, built", [
        (["check", "corpus/evacuation.resp"], ["check"]),
        (["diff", "--help"], ["diff"]),
        ([], list(cli.COMMANDS)),
        (["--help"], list(cli.COMMANDS)),
        (["chek"], list(cli.COMMANDS)),
        (["--strict", "check"], list(cli.COMMANDS)),
        (["--", "check"], list(cli.COMMANDS)),
    ], ids=["named", "named-help", "none", "help", "misspelt", "option-first",
            "double-dash"])
    def test_only_the_named_subcommand_is_built(self, argv, built):
        """A command line that names a subcommand first builds that one
        alone; any other builds all ten, for the help and the errors that
        list them."""
        parser = cli._build_parser(argv)
        [subcommands] = [action for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert list(subcommands.choices) == built
        assert parser.format_usage() == cli._build_parser([]).format_usage()


# The `dot` of this model overflows stdout's buffer, so writing it fails at
# once; the corpus `elicit` skeleton fits, so only a flush can fail.
_LARGE_MODEL = "".join(
    f'responsibility "Duty {i}" {{\n  requires |Item {i}| from <Agent {i}>\n}}\n'
    for i in range(200))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("size", ["small", "large"])
def test_a_failed_stdout_write_is_one_error_line(size, tmp_path, monkeypatch):
    """When stdout cannot take the artifact, the run says so in one line
    and exits 2, whether or not the artifact fits the buffer."""
    # Unbuffered, stdout would fail at the write whatever the size.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    argv = ["elicit", "corpus/evacuation.resp", "--responsibility", "Evacuate area"]
    if size == "large":
        model = tmp_path / "large.resp"
        model.write_text(_LARGE_MODEL, encoding="utf-8")
        argv = ["dot", str(model)]
    with open("/dev/full", "w") as full:
        done = _python("-c", "from respkit.cli import main; main()", *argv, stdout=full)
    assert (done.returncode, done.stderr) == (
        2, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("fd, reopen, path, expected", [
    (1, False, "corpus/evacuation.resp", (2, "error: [Errno 9] Bad file descriptor\n")),
    (2, False, "corpus/evacuation.resp", (0, "")),
    (2, False, "corpus/missing.resp", (2, "")),
    (2, True, "corpus/evacuation.resp", (0, "")),
    (2, True, "corpus/missing.resp", (2, "")),
], ids=["stdout", "stderr", "stderr-failing-run", "stderr-read-only",
        "stderr-read-only-failing-run"])
def test_a_stream_closed_at_start_up(fd, reopen, path, expected):
    """With stdout closed, the run fails as a write to it would, in one
    line; with stderr closed, or open on a file it cannot write, it exits
    as it would with stderr discarded."""
    script = (f"import os, sys; os.close({fd}); "
              + "os.open(os.devnull, os.O_RDONLY); " * reopen
              + "os.execv(sys.executable, [sys.executable, '-m', 'respkit.cli', "
              f"'check', {path!r}])")
    done = _python("-c", script)
    assert (done.returncode, done.stderr) == expected
    assert done.stdout == ""


class TestCollectorGuard:
    """``run`` turns the cyclic collector off while it works and leaves it
    as the caller had it, whichever way the invocation ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("argv, expected", [
        (("check", "corpus/evacuation.resp"), 0),
        (("check", "no/such/model.resp"), 2),
        (("--help",), 0),
        (("frobnicate",), 2),
    ], ids=["exit-0", "exit-2", "help", "usage-error"])
    def test_setting_is_restored(self, run_cli, collecting, monkeypatch,
                                 argv, expected):
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        status, _, _ = run_cli(*argv)
        assert status == expected
        assert gc.isenabled() is collecting

    def test_collector_is_off_while_loading(self, run_cli, collecting, resp_path,
                                            monkeypatch):
        seen = []
        original = build.read_input

        def read(path):
            seen.append(gc.isenabled())
            return original(path)

        monkeypatch.setattr(build, "read_input", read)
        assert run_cli("check", str(resp_path))[0] == 0
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_run_freezes_nothing(self, run_cli, collecting, resp_path):
        frozen = gc.get_freeze_count()
        assert run_cli("check", str(resp_path))[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, collecting)

    def test_entry_point_runs_exit_handlers_before_exit(self, monkeypatch):
        """``main`` ends the process without the interpreter's teardown, but
        exit handlers still run, stderr is flushed after them, and the exit
        status is the run's."""
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        code = ("import atexit, sys\n"
                "atexit.register(lambda: sys.stderr.write('handler ran'))\n"
                "from respkit.cli import main\n"
                "main()")
        done = _python("-c", code, "check", "no/such.resp")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.endswith("\nhandler ran"), done.stderr


# A model, a second version of it, answers and requirements whose names are
# not ASCII, so that every subcommand writes them.
_NON_ASCII_FILES = {
    "a.resp": """model "Évacuation"
agent <Préfet> kind person
resource |Carte des zones|
resource [Véhicule]
channel "Radio sécurisée" medium radio
responsibility "Évacuer" {
  assigned to <Préfet>
  requires |Carte des zones| from <Préfet> via "Radio sécurisée" criticality high
  produces |Journal d'évacuation| via "Radio sécurisée" rationale "traçabilité"
  uses [Véhicule]
  hazard |Carte des zones| late "évacuation lente" severity high
}
responsibility "Contrôler" {
  requires |Journal d'évacuation| from <Maire> via "Téléphone"
}
""",
    "a.answers": """elicitation "Évacuer" by "Équipe" {
  needs { |Météo| from <Préfet> via "Radio sécurisée" }
  hazards |Météo| { early "fausse alerte" severity critical }
}
""",
    "a.reqs": """requirement É-1 {
  text "Le préfet reçoit la carte."
  rationale "Sans carte, pas d'itinéraire sûr."
  traces <Préfet>
  traces |Carte des zones|
}
""",
}
_NON_ASCII_FILES["b.resp"] = _NON_ASCII_FILES["a.resp"].replace("Contrôler", "Vérifier")

# Every subcommand over those files.
_NON_ASCII_RUNS = {
    "elicit": ["a.resp", "--responsibility", "Évacuer"],
    "ingest": ["a.resp", "a.answers"],
    "dot": ["a.resp"],
    "check": ["a.resp", "--strict"],
    "analyze": ["a.resp"],
    "tables": ["a.resp", "--responsibility", "Évacuer"],
    "hazards": ["a.resp", "--responsibility", "Évacuer"],
    "mitigations": ["a.resp", "--responsibility", "Évacuer"],
    "requirements": ["a.resp", "a.reqs", "--report"],
    "diff": ["a.resp", "b.resp"],
}


class TestStdoutEncoding:
    """The entry point writes artifacts to stdout in UTF-8, as ``-o`` writes
    them to a file, whatever encoding the locale gives stdout."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("non-ascii")
        for name, text in _NON_ASCII_FILES.items():
            (folder / name).write_text(text, encoding="utf-8")
        return folder

    @staticmethod
    def _main(folder: Path, encoding: str, *argv: str) -> subprocess.CompletedProcess:
        return _python("-c", "from respkit.cli import main; main()", *argv,
                       cwd=folder, text=False, PYTHONIOENCODING=encoding)

    @pytest.mark.parametrize("command", list(_NON_ASCII_RUNS))
    def test_stdout_is_utf8_under_any_locale_encoding(self, files, command):
        argv = [command, *_NON_ASCII_RUNS[command]]
        utf8 = self._main(files, "utf-8", *argv)
        assert b"Traceback" not in utf8.stderr
        if command != "check":
            assert not utf8.stdout.isascii(), utf8.stderr
        for encoding in ("ascii", "latin-1"):
            done = self._main(files, encoding, *argv)
            assert b"Traceback" not in done.stderr, (encoding, done.stderr)
            assert (done.returncode, done.stdout) == (utf8.returncode, utf8.stdout)
        if command in ("elicit", "ingest", "dot"):  # those with -o
            written = self._main(files, "ascii", *argv, "-o", "out")
            assert (written.returncode, written.stdout, written.stderr) == (
                utf8.returncode, b"", b"")
            assert (files / "out").read_bytes() == utf8.stdout


# ---------------------------------------------------------------------------
# Fuzzing the whole command line
# ---------------------------------------------------------------------------

_SEVERITIES = ["none", "low", "medium", "high", "critical"]


def _flag(choices):
    """A flag value: usually a valid one, sometimes arbitrary text."""
    return st.one_of(*[st.sampled_from(choices)] * 4, st.text(max_size=6))


_DUTY = {"--responsibility": _flag(["Duty", "Other", "Ops", "!!!", " Duty "])}
_OUTPUT = {"-o": st.sampled_from(["out", "."])}  # "." is the directory itself
_FORMAT_TEXT_JSON = {"--format": _flag(["text", "json"])}
_FORMAT_MD_CSV = {"--format": _flag(["md", "csv"])}

# Positional file kinds and optional flags of each subcommand.
_COMMANDS = {
    "check": (["resp"], {"--strict": None}),
    "analyze": (["resp"], {**_FORMAT_TEXT_JSON,
                           "--load-threshold": _flag(["-1", "0", "1", "2", "x"])
                           | st.integers().map(str),
                           "--fail-level": _flag(_SEVERITIES)}),
    "elicit": (["resp"], {**_DUTY, **_OUTPUT}),
    "ingest": (["resp", "answers"], {**_OUTPUT, "--strict": None}),
    "tables": (["resp"], {**_DUTY, **_FORMAT_MD_CSV,
                          "--which": _flag(["required", "recorded", "both"])}),
    "hazards": (["resp"], {**_DUTY, **_FORMAT_MD_CSV}),
    "mitigations": (["resp"], {**_DUTY, "--threshold": _flag(_SEVERITIES)}),
    "requirements": (["resp", "reqs"], {"--report": None}),
    "dot": (["resp"], _OUTPUT),
    "diff": (["resp", "resp"], _FORMAT_TEXT_JSON),
}

# File contents: a document of the file's own format, DSL-weighted text,
# arbitrary text, arbitrary bytes, or no file at all.
_TEXT = {"resp": resp_text, "answers": answers_text, "reqs": reqs_text}


def _contents(kind: str):
    texts = st.one_of(*[_TEXT[kind]] * 4, dsl_text, st.text())
    return st.one_of(*[texts.map(lambda t: t.encode("utf-8"))] * 6,
                     st.binary(max_size=40), st.none())


@st.composite
def invocations(draw, stray: bool = True):
    """A subcommand with its files' contents and a random set of flags.
    Unless ``stray`` is False, now and then one more argument goes anywhere
    in the command line, which argparse may refuse."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    kinds, options = _COMMANDS[command]
    files = [(f"{i}.{kind}", draw(_contents(kind))) for i, kind in enumerate(kinds)]
    argv = [command] + [name for name, _ in files]
    flags = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    if "--responsibility" in options and not draw(one_in(8)):
        flags.append("--responsibility")  # required: leaving it out is a usage error
    for flag in dict.fromkeys(flags):
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    if stray and draw(one_in(8)):
        argv.insert(draw(st.integers(0, len(argv))), draw(dsl_text))
    return argv, files


def _run_invocation(invocation) -> tuple[int, str]:
    """The exit status and the stderr text of one drawn invocation, run in a
    new directory that holds its files."""
    argv, files = invocation
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files:
            if content is not None:
                (Path(tmp) / name).write_bytes(content)
        argv = [str(Path(tmp) / a) if a in ("out", ".") or
                any(a == name for name, _ in files) else a for a in argv]
        status = cli.run(argv, stdout=io.StringIO(), stderr=stderr)
    return status, stderr.getvalue()


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(invocations())
    def test_run_exits_0_1_or_2(self, invocation):
        status, _ = _run_invocation(invocation)
        assert status in (0, 1, 2)

    # argparse's own usage errors quote a stray argument as given, so every
    # argument drawn here is one that argparse takes or refuses by its repr.
    @settings(max_examples=300, deadline=None)
    @given(invocations(stray=False))
    def test_every_stderr_line_is_printable(self, invocation):
        _, err = _run_invocation(invocation)
        assert [line for line in err.split("\n") if not line.isprintable()] == []
