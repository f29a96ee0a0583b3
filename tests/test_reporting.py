import csv
import io
import json

import pytest
from hypothesis import given, settings

from respkit import (
    build_model,
    findings_report,
    generate_worksheet,
    information_recorded_table,
    information_required_table,
    requirements_report,
    run_all,
    table_to_csv,
    table_to_markdown,
    to_dot,
    validate,
    worksheet_table,
)
from respkit.analysis import InconsistencyKind, PerceptionInconsistency, diff_models
from respkit.dsl import parse_model, print_requirements
from respkit.elicitation import InfoTable
from respkit.model import (Agent, GuideWord, InfoNeed, InfoProduct, Model, RequirementRecord,
                           Resource, ResourceKind, Responsibility, TraceRef, dedupe)
from respkit.reporting import TraceResolutionError, diff_report

from dot_grammar import check_dot
from strategies import model_pairs, models


def build(text: str):
    return build_model(parse_model(text))


class TestToDot:
    def test_empty_model_is_valid_dot(self):
        text = to_dot(Model())
        check_dot(text)
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")

    def test_agent_labels_keep_angle_brackets(self, evacuation):
        assert 'label="<Police>"' in to_dot(evacuation)

    def test_resource_labels_keep_their_brackets(self, evacuation):
        text = to_dot(evacuation)
        assert 'label="|Area map|"' in text
        assert 'label="[Evacuation transport]"' in text

    def test_responsibilities_are_rounded_boxes(self, evacuation):
        text = to_dot(evacuation)
        assert ('"evacuate-area" [shape=box, style=rounded, '
                'label="Evacuate area"];') in text

    def test_sequence_edge_is_dashed(self, evacuation):
        text = to_dot(evacuation)
        assert ('"initiate-evacuation" -> "evacuate-area" [style=dashed];'
                in text)
        assert text.count("style=dashed") == 1

    def test_uses_edge_has_no_arrowhead(self, evacuation):
        text = to_dot(evacuation)
        assert ('"arrange-transport" -> "resource-evacuation-transport" '
                '[dir=none];') in text

    def test_info_flow_edges_are_solid(self, evacuation):
        text = to_dot(evacuation)
        assert '"agent-county-council" -> "resource-area-map";' in text
        assert '"resource-area-map" -> "evacuate-area";' in text

    def test_deterministic(self, evacuation):
        assert to_dot(evacuation) == to_dot(evacuation)

    def test_corpus_validates_under_independent_grammar(self, evacuation):
        check_dot(to_dot(evacuation))

    @settings(max_examples=30, deadline=None)
    @given(models())
    def test_random_models_validate(self, model):
        check_dot(to_dot(model))

    def test_quotes_in_names_are_escaped(self):
        model = build('responsibility "say \\"when\\"" {}')
        text = to_dot(model)
        check_dot(text)
        assert 'label="say \\"when\\""' in text

    def test_carriage_returns_in_names_are_escaped(self):
        model = build('model "plan\r2"\nresponsibility "say\rwhen" {}')
        text = to_dot(model)
        check_dot(text)
        assert "\r" not in text
        assert 'digraph "plan\\r2" {' in text
        assert 'label="say\\rwhen"' in text

    def test_hand_built_model_names_ids_no_element_holds(self):
        """Ids hold a quote, a backslash and a carriage return.  Duties name
        an agent, a need's source and item, a product, a use and a sequence
        link that no element holds; each is written where first met, the
        same way each time, and ``drive`` is an agent's id beside a duty's."""
        model = Model(
            name='Plan "A"\\1',
            agents=(Agent('ops"1', 'Ops "HQ"'), Agent("back\\slash", "Back\\slash")),
            resources=(Resource("map\r", "Map\rold", ResourceKind.INFORMATION),
                       Resource("van", "Van", ResourceKind.PHYSICAL)),
            responsibilities=(
                Responsibility(
                    'say"when', 'Say "when"', assigned_to=('ops"1', "ghost"),
                    needs=(InfoNeed("map\r", sources=("ghost", "nobody\\", "drive")),
                           InfoNeed('lost"item', sources=('ops"1',))),
                    products=(InfoProduct("made\r"),), uses=("van", "tool\\")),
                Responsibility("drive", "Drive", assigned_to=("back\\slash",),
                               needs=(InfoNeed('lost"item'),), uses=("tool\\",)),
            ),
            sequence_links=(('say"when', "drive"), ("drive", 'gone"'),
                            ('gone"', 'say"when')),
        )
        assert to_dot(model) == r'''digraph "Plan \"A\"\\1" {
  rankdir=LR;
  "agent-ops\"1" [shape=plaintext, label="<Ops \"HQ\">"];
  "agent-back\\slash" [shape=plaintext, label="<Back\\slash>"];
  "resource-map\r" [shape=plaintext, label="|Map\rold|"];
  "resource-van" [shape=plaintext, label="[Van]"];
  "say\"when" [shape=box, style=rounded, label="Say \"when\""];
  "drive" [shape=box, style=rounded, label="Drive"];
  "agent-ops\"1" -> "say\"when" [dir=none];
  "agent-ghost" -> "say\"when" [dir=none];
  "agent-back\\slash" -> "drive" [dir=none];
  "agent-ghost" -> "resource-map\r";
  "agent-nobody\\" -> "resource-map\r";
  "agent-drive" -> "resource-map\r";
  "resource-map\r" -> "say\"when";
  "agent-ops\"1" -> "resource-lost\"item";
  "resource-lost\"item" -> "say\"when";
  "say\"when" -> "resource-made\r";
  "say\"when" -> "resource-van" [dir=none];
  "say\"when" -> "resource-tool\\" [dir=none];
  "resource-lost\"item" -> "drive";
  "drive" -> "resource-tool\\" [dir=none];
  "say\"when" -> "drive" [style=dashed];
  "drive" -> "gone\"" [style=dashed];
  "gone\"" -> "say\"when" [style=dashed];
}
'''

    def test_repeated_edges_are_emitted_once(self):
        model = build('responsibility "A" {\n'
                      '  assigned to <Ops>\n  requires |Map| from <Ops>\n'
                      '  uses [Van]\n  precedes "B"\n}\n'
                      'responsibility "B" {\n'
                      '  requires |Map| from <Ops>\n  produces |Log|\n}')
        edges = [line for line in to_dot(model).splitlines() if " -> " in line]
        assert len(edges) == len(set(edges))
        assert edges.count('  "agent-ops" -> "resource-map";') == 1

    @settings(max_examples=30, deadline=None)
    @given(models())
    def test_random_models_repeat_no_edge(self, model):
        edges = [line for line in to_dot(model).splitlines() if " -> " in line]
        assert len(edges) == len(set(edges))

    def test_every_element_name_appears_verbatim(self, evacuation):
        text = to_dot(evacuation)
        for agent in evacuation.agents:
            assert agent.name in text
        for resource in evacuation.resources:
            assert resource.name in text
        for resp in evacuation.responsibilities:
            assert resp.name in text


class TestMarkdownTables:
    def test_header_row(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        rendered = table_to_markdown(table)
        assert rendered.splitlines()[0] == \
            "| Information required | Source | Communication channel |"

    def test_header_only_table_is_two_lines(self):
        table = InfoTable(("A", "B"), ())
        assert table_to_markdown(table) == "| A | B |\n| --- | --- |\n"

    def test_pipe_cells_escaped(self):
        table = InfoTable(("A",), (("x|y",),))
        rendered = table_to_markdown(table)
        assert "x\\|y" in rendered
        # The escaped cell still reads back as one cell visually: splitting
        # on unescaped pipes yields exactly one payload column.
        row = rendered.splitlines()[2]
        import re
        cells = [c for c in re.split(r"(?<!\\)\|", row) if c.strip()]
        assert len(cells) == 1

    def test_trailing_newline(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        assert table_to_markdown(table).endswith("|\n")

    def test_carriage_returns_in_cells_are_escaped(self):
        model = build('responsibility "R" {\n  requires |Map\rold| from <Ops>\n}')
        rendered = table_to_markdown(information_required_table(model, "R"))
        assert rendered.splitlines() == [
            "| Information required | Source | Communication channel |",
            "| --- | --- | --- |",
            "| Map\\rold | Ops |  |"]


class TestCsvTables:
    def test_joint_sources_field_is_quoted(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        rendered = table_to_csv(table)
        assert '"Police, Fire Service"' in rendered

    def test_crlf_line_endings(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        rendered = table_to_csv(table)
        assert rendered.count("\r\n") == len(table.rows) + 1
        assert "\n" not in rendered.replace("\r\n", "")

    def test_empty_table_is_single_header_line(self):
        table = InfoTable(("A", "B"), ())
        assert table_to_csv(table) == "A,B\r\n"

    def test_round_trip_through_independent_reader(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        rendered = table_to_csv(table)
        rows = list(csv.reader(io.StringIO(rendered, newline="")))
        assert tuple(rows[0]) == table.columns
        assert [tuple(r) for r in rows[1:]] == list(table.rows)

    def test_quotes_and_newlines_round_trip(self):
        table = InfoTable(("A", "B"),
                          (('say "when"', "line1\nline2"), ("plain", "x,y")))
        rendered = table_to_csv(table)
        rows = list(csv.reader(io.StringIO(rendered, newline="")))
        assert [tuple(r) for r in rows[1:]] == list(table.rows)


class TestWorksheetTable:
    def test_columns_and_row_count(self, evacuation):
        worksheet = generate_worksheet(evacuation, "Evacuate area")
        table = worksheet_table(evacuation, worksheet)
        assert table.columns == ("Information item", "Guide word",
                                 "Consequence", "Severity", "Mitigation")
        assert len(table.rows) == 40

    def test_guide_words_in_fixed_order(self, evacuation):
        worksheet = generate_worksheet(evacuation, "Evacuate area")
        table = worksheet_table(evacuation, worksheet)
        assert [row[1] for row in table.rows[:5]] == [
            "unavailable", "inaccurate", "incomplete", "late", "early"]


class TestRequirementsReport:
    def test_corpus_report_numbers_one_to_ten(self, evacuation, evacuation_reqs):
        report = requirements_report(evacuation, evacuation_reqs)
        for number in range(1, 11):
            assert f"\n{number}. [ERCS-{number}]" in "\n" + report
        assert "either XML format or in PDF" in report
        assert report.rstrip().endswith("10 requirements.")

    def test_rationale_renders_parenthesized_italic(self, evacuation,
                                                    evacuation_reqs):
        report = requirements_report(evacuation, evacuation_reqs)
        assert "*(This is required for auditing purposes" in report

    def test_trace_rendered_verbatim(self, evacuation, evacuation_reqs):
        report = requirements_report(evacuation, evacuation_reqs)
        assert "|Priority premises list|" in report

    def test_empty_list_has_summary_line(self, evacuation):
        report = requirements_report(evacuation, [])
        assert "0 requirements." in report

    def test_unresolved_trace_aborts_listing_it(self, evacuation):
        record = RequirementRecord(
            id="R1", text="t", rationale="r",
            traces=(TraceRef("information", "Never declared"),))
        with pytest.raises(TraceResolutionError) as excinfo:
            requirements_report(evacuation, [record])
        assert "|Never declared|" in str(excinfo.value)
        assert "R1" in str(excinfo.value)

    def test_hazard_trace_needs_a_worksheet_row(self, evacuation):
        ok = RequirementRecord(
            id="R1", text="t", rationale="r",
            traces=(TraceRef("hazard", "Evacuated premises",
                             GuideWord.UNAVAILABLE),))
        assert requirements_report(evacuation, [ok])
        bad = RequirementRecord(
            id="R2", text="t", rationale="r",
            traces=(TraceRef("hazard", "Evacuation transport",
                             GuideWord.UNAVAILABLE),))
        with pytest.raises(TraceResolutionError):
            requirements_report(evacuation, [bad])

    def test_hazard_trace_to_a_produced_only_item_is_unresolved(self):
        model = build('responsibility "R" { produces |Log| }')
        assert generate_worksheet(model, "R") == ()
        record = RequirementRecord(
            id="R1", text="t", rationale="r",
            traces=(TraceRef("hazard", "Log", GuideWord.LATE),))
        with pytest.raises(TraceResolutionError, match=r"R1: hazard \|Log\| late"):
            requirements_report(model, [record])

    # Each trace kind as a .reqs file writes it and as the report shows it:
    # the report text escapes each backslash again, the trace error does not.
    TRACES = [
        (TraceRef("agent", "Ops"), "<Ops>", "<Ops>"),
        (TraceRef("information", "Map"), "|Map|", "|Map|"),
        (TraceRef("physical", "Kit"), "[Kit]", "[Kit]"),
        (TraceRef("responsibility", 'Say "hi" \\ now'),
         r'responsibility "Say \"hi\" \\ now"',
         r'responsibility "Say \\"hi\\" \\\\ now"'),
        (TraceRef("hazard", "Map", GuideWord.LATE), "hazard |Map| late",
         "hazard |Map| late"),
    ]

    @pytest.mark.parametrize("trace, in_reqs, in_report", TRACES,
                             ids=[trace.kind for trace, _, _ in TRACES])
    def test_each_trace_kind_is_written_as_in_reqs(self, trace, in_reqs, in_report):
        record = RequirementRecord(id="R1", text="t", rationale="r", traces=(trace,))
        assert print_requirements([record]).splitlines()[3] == f"  traces {in_reqs}"
        model = build('agent <Ops>\nresource [Kit]\n'
                      r'responsibility "Say \"hi\" \\ now" {' '\n'
                      '  requires |Map| from <Ops>\n  uses [Kit]\n}')
        assert requirements_report(model, [record]).splitlines()[4] == \
            f"   traces: {in_report}"
        with pytest.raises(TraceResolutionError) as excinfo:
            requirements_report(Model(), [record])
        assert str(excinfo.value) == f"error: unresolved trace references: R1: {in_reqs}"


class TestFindingsReport:
    def test_empty_text_and_json(self):
        assert findings_report([], "text") == "0 findings.\n"
        assert findings_report([], "json") == "[]\n"

    def test_corpus_line_shape(self, evacuation):
        report = findings_report(run_all(evacuation), "text")
        assert "UNASSIGNED_RESP high collect-evacuee-information:" in report

    def test_json_key_order_is_stable(self, evacuation):
        report = findings_report(run_all(evacuation), "json")
        first_obj = report.index("{")
        keys_slice = report[first_obj:report.index("}", first_obj)]
        positions = [keys_slice.index(f'"{key}"')
                     for key in ("code", "severity", "subjects", "explanation")]
        assert positions == sorted(positions)

    def test_one_entry_text(self):
        assert findings_report(run_all(build("resource |Map|")), "text") == (
            'UNUSED_RESOURCE low map: resource "Map" is declared but never used\n'
            "1 finding.\n")

    def test_rendering_twice_is_identical(self, evacuation):
        findings = run_all(evacuation)
        assert findings_report(findings, "json") == findings_report(
            findings, "json")
        assert findings_report(findings, "text") == findings_report(
            findings, "text")


class TestDiffReport:
    def test_empty(self):
        assert diff_report([], "text") == "0 inconsistencies.\n"
        assert diff_report([], "json") == "[]\n"

    def test_text_lines(self, evacuation):
        other = build('responsibility "Evacuate area" { assigned to <Army> }')
        report = diff_report(diff_models(evacuation, other), "text")
        assert 'AssignmentMismatch "Evacuate area"' in report


    def test_one_entry_bytes(self):
        item = PerceptionInconsistency(InconsistencyKind.SOURCE_MISMATCH, 'Say\r"when"',
                                       "|Map| from <A>", "|Map| from no recorded source")
        assert diff_report([item], "json") == (
            '[\n'
            '  {\n'
            '    "kind": "SourceMismatch",\n'
            '    "responsibility": "Say\\r\\"when\\"",\n'
            '    "left": "|Map| from <A>",\n'
            '    "right": "|Map| from no recorded source"\n'
            '  }\n'
            ']\n')
        assert diff_report([item], "text") == (
            'SourceMismatch "Say\\r"when"": left: |Map| from <A>; '
            "right: |Map| from no recorded source\n"
            "1 inconsistency.\n")


@pytest.mark.parametrize("report, word", [(findings_report, "findings"),
                                          (diff_report, "diff")])
def test_unknown_format_is_refused(report, word):
    with pytest.raises(ValueError) as raised:
        report([], "xml")
    assert str(raised.value) == f"unknown {word} format 'xml'"


class TestCarriageReturns:
    """A name may hold a carriage return: text reports escape it as ``\\r``,
    so each keeps one record a line; JSON keeps the name as it is."""

    MODEL = 'responsibility "Say\rwhen" {\n  requires |Map\rold|\n}'

    def test_findings_report(self):
        findings = run_all(build(self.MODEL))
        assert findings_report(findings, "text").splitlines() == [
            'UNASSIGNED_RESP high say-when: '
            'responsibility "Say\\rwhen" has no assigned agent',
            'UNSOURCED_INFO medium say-when/map-old: |Map\\rold| required by '
            '"Say\\rwhen" has no source and no producer in the model',
            "2 findings."]
        explanations = [f["explanation"] for f in
                        json.loads(findings_report(findings, "json"))]
        assert explanations == [f.explanation for f in findings]
        assert "\r" in explanations[0]

    def test_diff_report(self):
        report = diff_report(diff_models(build(self.MODEL), Model()), "text")
        assert report.splitlines() == [
            'MissingResponsibility "Say\\rwhen": left: present; right: absent',
            "1 inconsistency."]

    def test_requirements_report(self):
        record = RequirementRecord(
            id="R1", text="Say\rit", rationale="why\rnot",
            traces=(TraceRef("responsibility", "Say\rwhen"),))
        report = requirements_report(build(self.MODEL), [record])
        assert report.splitlines() == report.split("\n")[:-1]
        assert report.splitlines()[2:5] == [
            "1. [R1] Say\\rit", "   *(why\\rnot)*",
            '   traces: responsibility "Say\\rwhen"']


class TestLineEnds:
    """Text, Markdown and DOT output write a backslash as ``\\\\`` and each
    line end but ``\\n`` as its Python escape, once, so that no two names
    render alike and each record keeps one line under any line-end rule."""

    def test_backslash_r_differs_from_a_carriage_return(self):
        model = build('responsibility "A\\\\rB" {}\nresponsibility "A\rB" {}')
        assert findings_report(run_all(model), "text").splitlines()[:2] == [
            'UNASSIGNED_RESP high a-b: responsibility "A\\rB" has no assigned agent',
            'UNASSIGNED_RESP high a-rb: responsibility "A\\\\rB" has no assigned '
            'agent']
        assert '[shape=box, style=rounded, label="A\\\\rB"];' in to_dot(model)
        assert '[shape=box, style=rounded, label="A\\rB"];' in to_dot(model)

    @pytest.mark.parametrize("char", "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    def test_each_line_end_is_escaped_once(self, char):
        escape = repr(char)[1:-1]
        model = build(f'responsibility "R" {{\n  requires |A{char}\\B| via "C|D"\n}}')
        cells = table_to_markdown(information_required_table(model, "R"))
        assert f"| A{escape}\\\\B |  | C\\|D |" in cells
        assert f'label="|A{escape}\\\\B|"' in to_dot(model)
        for text in (cells, to_dot(model), findings_report(run_all(model), "text")):
            assert char not in text


def _requirements(model: Model) -> list[RequirementRecord]:
    """One requirement per duty, in its words, tracing it and its needs,
    then one for each other id that a hazard's ``mitigated_by`` names, so
    that every id is defined once."""
    records = [RequirementRecord(
        id=f"R-{number}", text=resp.name, rationale=" ".join(resp.notes),
        traces=(TraceRef("responsibility", resp.name),
                *(TraceRef("information", model.resource_name(need.resource))
                  for need in resp.needs)))
        for number, resp in enumerate(model.responsibilities)]
    defined = {record.id for record in records}
    mitigations = dedupe(entry.mitigation for resp in model.responsibilities
                         for entry in resp.hazards if entry.mitigation is not None)
    return records + [RequirementRecord(id=mitigation, text="t", rationale="r")
                      for mitigation in mitigations if mitigation not in defined]


class TestEveryFactIsReported:
    @settings(max_examples=60, deadline=None)
    @given(model_pairs())
    def test_worksheets_tables_and_lines(self, pair):
        model, other = pair
        texts = [to_dot(model), requirements_report(model, _requirements(model)),
                 findings_report(run_all(model), "text"),
                 findings_report(validate(model, strict=True), "text"),
                 diff_report(diff_models(model, other), "text")]
        for resp in model.responsibilities:
            worksheet = generate_worksheet(model, resp.name)
            assert all(entry in worksheet for entry in resp.hazards)
            required = information_required_table(model, resp.name)
            recorded = information_recorded_table(model, resp.name)
            assert (sorted(row[0] for row in required.rows)
                    == sorted(model.resource_name(n.resource) for n in resp.needs))
            assert (sorted(row[0] for row in recorded.rows)
                    == sorted(model.resource_name(p.resource) for p in resp.products))
            texts += [table_to_markdown(table) for table in
                      (required, recorded, worksheet_table(model, worksheet))]
        for text in texts:
            assert text.splitlines() == text.removesuffix("\n").split("\n")
