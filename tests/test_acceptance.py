"""Acceptance suite: one test per criterion, golden-data driven.

The conftest terminal summary prints one PASS/FAIL line per criterion; the
first docstring line of each test is the printed label.
"""

import time

from hypothesis import given, settings

from respkit import (
    build_model,
    derive_mitigations,
    generate_worksheet,
    ingest_all,
    print_model,
)
from respkit.analysis import diff_models
from respkit.dsl import parse_model
from respkit.model import GuideWord, Severity

from dot_grammar import check_dot
from strategies import model_pairs, models


def test_criterion_1_omission_detection(run_cli, resp_path):
    """criterion 1: the encoded evacuation model yields exactly one unassigned-responsibility finding"""
    started = time.perf_counter()
    status, out, err = run_cli("analyze", str(resp_path))
    elapsed = time.perf_counter() - started
    assert status == 1
    unassigned = [line for line in out.splitlines()
                  if line.startswith("UNASSIGNED_RESP")]
    assert len(unassigned) == 1
    assert "collect-evacuee-information" in unassigned[0]
    assert elapsed < 1.0


def test_criterion_2_required_table_reproduction(run_cli, resp_path, golden_dir):
    """criterion 2: the information-required table reproduces its golden transcription byte-exactly"""
    status, out, _ = run_cli(
        "tables", str(resp_path), "--responsibility", "Evacuate area",
        "--which", "required", "--format", "md")
    assert status == 0
    golden = (golden_dir / "evacuate_area_required.md").read_text(encoding="utf-8")
    assert out == golden
    rows = out.rstrip("\n").splitlines()[2:]
    assert len(rows) == 8
    assert ("| Area map | County council | Radio data link to printers in "
            "local command centre |") in rows


def test_criterion_3_recorded_table_reproduction(run_cli, resp_path, golden_dir):
    """criterion 3: the information-recorded table reproduces its golden transcription byte-exactly"""
    status, out, _ = run_cli(
        "tables", str(resp_path), "--responsibility", "Evacuate area",
        "--which", "recorded", "--format", "md")
    assert status == 0
    golden = (golden_dir / "evacuate_area_recorded.md").read_text(encoding="utf-8")
    assert out == golden
    rows = out.rstrip("\n").splitlines()[2:]
    assert len(rows) == 3
    for row in rows:
        assert "Radio or verbal report from ground units to local Bronze Command" in row
        assert "Email or fax to Silver Command if available, otherwise radio" in row


def test_criterion_4_worksheet_shape(evacuation, evacuation_answers):
    """criterion 4: the hazard worksheet is 8x5 with prefilled assessments and four mitigation stubs"""
    merged = ingest_all(evacuation, evacuation_answers)
    worksheet = generate_worksheet(merged, "Evacuate area")
    assert len(worksheet.rows) == 40

    expected_order = [GuideWord.UNAVAILABLE, GuideWord.INACCURATE,
                      GuideWord.INCOMPLETE, GuideWord.LATE, GuideWord.EARLY]
    for offset in range(0, 40, 5):
        assert [r.guide_word for r in worksheet.rows[offset:offset + 5]] == \
            expected_order

    (early,) = [row for row in worksheet.rows
                if row.item == "priority-premises-list"
                and row.guide_word is GuideWord.EARLY]
    assert early.consequence == "No consequence."
    assert early.severity is Severity.NONE

    stubs = derive_mitigations(merged, "Evacuate area")
    assert [s.traces[0].guide_word for s in stubs] == [
        GuideWord.UNAVAILABLE, GuideWord.INACCURATE,
        GuideWord.INCOMPLETE, GuideWord.LATE]
    assert all("priority-premises-list" in s.id for s in stubs)


def test_criterion_5_requirements_report(run_cli, resp_path, reqs_path,
                                         evacuation, evacuation_reqs,
                                         tmp_path):
    """criterion 5: the ten transcribed requirements report as a traced, numbered list"""
    status, out, _ = run_cli("requirements", str(resp_path), str(reqs_path),
                             "--report")
    assert status == 0
    for number in range(1, 11):
        assert f"\n{number}. " in out
    assert "*(" in out

    from respkit.reporting import resolve_trace
    for record in evacuation_reqs:
        assert record.traces, f"{record.id} carries no trace"
        assert any(resolve_trace(evacuation, ref) for ref in record.traces)

    broken = tmp_path / "broken.reqs"
    broken.write_text(
        reqs_path.read_text(encoding="utf-8").replace(
            "traces |Area map|", "traces |Unknown artifact|", 1),
        encoding="utf-8")
    status, out, err = run_cli("requirements", str(resp_path), str(broken),
                               "--report")
    assert status == 2
    assert "Unknown artifact" in err


class TestCriterion6:
    def test_corpus_round_trip(self, evacuation, resp_path):
        """criterion 6a: parse-print-parse equals parse on the corpus"""
        reparsed = build_model(parse_model(print_model(evacuation)))
        assert reparsed == evacuation

    @settings(max_examples=100, deadline=None)
    @given(models())
    def test_random_round_trip(self, model):
        """criterion 6b: parse-print-parse equals parse on 100 random models"""
        assert build_model(parse_model(print_model(model))) == model

    def test_ingest_idempotence(self, evacuation, evacuation_answers):
        """criterion 6c: ingesting the corpus answers twice equals once"""
        once = ingest_all(evacuation, evacuation_answers)
        twice = ingest_all(once, evacuation_answers)
        assert print_model(twice) == print_model(once)
        assert twice == once


class TestCriterion7:
    def test_single_mutation_single_mismatch(self, evacuation, resp_path):
        """criterion 7a: one mutated assignment clause yields exactly one assignment mismatch"""
        text = resp_path.read_text(encoding="utf-8")
        mutated = build_model(parse_model(text.replace(
            "assigned to <Police>", "assigned to <Fire Service>", 1)))
        result = diff_models(evacuation, mutated)
        assert len(result) == 1
        assert result[0].kind.value == "AssignmentMismatch"

    def test_self_diff_empty(self, evacuation):
        """criterion 7b: a model diffed against itself reports nothing"""
        assert diff_models(evacuation, evacuation) == []

    @settings(max_examples=50, deadline=None)
    @given(model_pairs())
    def test_symmetry_on_random_pairs(self, pair):
        """criterion 7c: diff symmetry holds on 50 random model pairs"""
        left, right = pair
        forward = diff_models(left, right)
        backward = diff_models(right, left)
        assert len(forward) == len(backward)
        assert sorted(i.swapped().render() for i in forward) == \
            sorted(i.render() for i in backward)


def test_criterion_8_dot_conventions(run_cli, resp_path):
    """criterion 8: the diagram keeps the notation conventions and validates as DOT"""
    status, first, _ = run_cli("dot", str(resp_path))
    assert status == 0
    _, second, _ = run_cli("dot", str(resp_path))
    assert first == second

    assert "shape=box, style=rounded" in first
    assert 'label="<Police>"' in first
    assert 'label="|Area map|"' in first
    assert 'label="[Evacuation transport]"' in first
    dashed = [line for line in first.splitlines() if "style=dashed" in line]
    assert len(dashed) == 1
    assert '"initiate-evacuation" -> "evacuate-area"' in dashed[0]

    check_dot(first)


def test_criterion_9_determinism(run_cli, resp_path, answers_path, reqs_path,
                                 tmp_path):
    """criterion 9: every subcommand produces byte-identical stdout across runs"""
    mutated = tmp_path / "mutated.resp"
    mutated.write_text(
        resp_path.read_text(encoding="utf-8").replace(
            "assigned to <Police>", "assigned to <Fire Service>", 1),
        encoding="utf-8")
    invocations = [
        ("check", str(resp_path)),
        ("check", str(resp_path), "--strict"),
        ("analyze", str(resp_path)),
        ("analyze", str(resp_path), "--format", "json"),
        ("elicit", str(resp_path), "--responsibility", "Evacuate area"),
        ("ingest", str(resp_path), str(answers_path)),
        ("tables", str(resp_path), "--responsibility", "Evacuate area"),
        ("tables", str(resp_path), "--responsibility", "Evacuate area",
         "--which", "required", "--format", "csv"),
        ("hazards", str(resp_path), "--responsibility", "Evacuate area"),
        ("hazards", str(resp_path), "--responsibility", "Evacuate area",
         "--format", "csv"),
        ("mitigations", str(resp_path), "--responsibility", "Evacuate area"),
        ("requirements", str(resp_path), str(reqs_path), "--report"),
        ("dot", str(resp_path)),
        ("diff", str(resp_path), str(mutated)),
        ("diff", str(resp_path), str(mutated), "--format", "json"),
    ]
    for argv in invocations:
        status_a, out_a, _ = run_cli(*argv)
        status_b, out_b, _ = run_cli(*argv)
        assert status_a == status_b
        assert out_a.encode() == out_b.encode(), f"nondeterministic: {argv}"
