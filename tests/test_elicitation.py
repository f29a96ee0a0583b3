import re
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from respkit import (
    answers_skeleton,
    build_model,
    information_recorded_table,
    information_required_table,
    ingest_all,
    print_model,
)
from respkit.dsl import (ReferenceTable, format_need_tail, format_product_tail, parse_answers,
                         parse_model, quote)
from respkit.build import ModelBuildError
from respkit.elicitation import QUESTIONS, IngestError
from respkit.model import GuideWord, InfoNeed, Severity, UnknownResponsibility

from strategies import ingested_declarations, ingested_models, models


def build(text: str):
    return build_model(parse_model(text))


def session(duty: str, body: str = ""):
    """The one answer record of an ``elicitation`` block for ``duty``."""
    (record,) = parse_answers(f"elicitation {quote(duty)} {{ {body} }}", "a.answers")
    return record


def _question_lines(skeleton: str) -> list[str]:
    return [line for line in skeleton.splitlines() if re.match(r"# \d+\. ", line)]


class TestQuestionnaire:
    def test_always_six_questions(self, evacuation):
        assert len(QUESTIONS) == 6
        for resp in evacuation.responsibilities:
            skeleton = answers_skeleton(evacuation, resp.name)
            assert _question_lines(skeleton) == [
                f"# {number}. {prompt}" for number, (prompt, _) in enumerate(QUESTIONS, 1)]

    def test_sixth_question_lists_guide_words(self, evacuation):
        skeleton = answers_skeleton(evacuation, "Evacuate area")
        assert _question_lines(skeleton)[5].endswith(
            "unavailable, inaccurate, incomplete, late, early?")

    def test_unknown_name_lists_available(self, evacuation):
        with pytest.raises(UnknownResponsibility) as excinfo:
            answers_skeleton(evacuation, "Evacuate")
        assert str(excinfo.value) == ('error: unknown responsibility "Evacuate"; '
                                      'model defines 6, closest: "Evacuate area"')

    def test_existing_needs_prepopulate_drafts(self, evacuation):
        resp = evacuation.responsibility_named("Evacuate area")
        assert (len(resp.needs), len(resp.products)) == (8, 3)
        lines = answers_skeleton(evacuation, resp.name).splitlines()
        needs = lines.index("  needs {") + 1
        records = lines.index("  records {") + 1
        refs = ReferenceTable(evacuation)
        assert lines[needs:lines.index("  }", needs)] == [
            "    " + format_need_tail(refs, need) for need in resp.needs]
        assert lines[records:lines.index("  }", records)] == [
            "    " + format_product_tail(refs, product) for product in resp.products]

    def test_skeleton_reparses(self, evacuation):
        skeleton = answers_skeleton(evacuation, "Evacuate area")
        (record,) = parse_answers(skeleton)
        assert record.responsibility == "Evacuate area"
        assert len(record.needs) == 8
        assert len(record.records) == 3

    def test_skeleton_has_hazard_block_per_item(self, evacuation):
        skeleton = answers_skeleton(evacuation, "Evacuate area")
        blocks = [line for line in skeleton.splitlines()
                  if line.startswith("  hazards |")]
        assert len(blocks) == 8

    def test_skeleton_text(self):
        # Needs drop their criticality, an empty rationale stays, a hazard
        # always writes its severity and hazards keep their recorded order.
        model = build(r"""
agent <Ops>
agent <Police>
resource |Map|
resource |Log|
resource |Plan|
resource |Weather|
channel "Radio"
channel "Say \"hi\" \\ back"
responsibility "Plan route" {
  requires |Map| from <Ops>, <Police> via "Radio", "Say \"hi\" \\ back" criticality high
  requires |Weather|
  produces |Log| rationale ""
  produces |Plan|
  hazard |Map| late ""
  hazard |Map| unavailable "No route." severity critical
}
""")
        assert answers_skeleton(model, "Plan route") == SKELETON_TEXT

    @settings(max_examples=40, deadline=None)
    @given(models() | ingested_models(), st.data())
    def test_skeleton_ingests_into_its_own_model(self, model, data):
        duty = data.draw(st.sampled_from(model.responsibilities))
        records = parse_answers(answers_skeleton(model, duty.name))
        assert ingest_all(model, records) == model
        assert ingest_all(model, records, strict=True) == model


SKELETON_TEXT = r"""# Elicitation sheet for responsibility "Plan route".
# Work through the questions below; lines already present were
# drafted from the current model.
# 1. What information needs to be provided to discharge this responsibility?
#    (answer with one |item| line per information need, inside needs { })
# 2. What channels are used to communicate this information?
#    (annotate each need line with via "channel" clauses)
# 3. Where does this information come from?
#    (annotate each need line with from <agent> clauses)
# 4. What information is generated and recorded in the discharge of this responsibility and why?
#    (answer with one |item| line per record, inside records { }; capture the why in a rationale clause)
# 5. What channels are used to communicate this recorded information?
#    (annotate each record line with via "channel" clauses)
# 6. What are the consequences if the information required is unavailable, inaccurate, incomplete, late, early?
#    (fill one hazards |item| block per required information item)
elicitation "Plan route" {
  needs {
    |Map| from <Ops>, <Police> via "Radio", "Say \"hi\" \\ back"
    |Weather|
  }
  records {
    |Log| rationale ""
    |Plan|
  }
  hazards |Map| {
    late "" severity none
    unavailable "No route." severity critical
  }
  hazards |Weather| {
  }
}
"""


# Sessions that exercise every merge rule: a duty answered twice, items,
# agents and channels the model never declared, a hazard on an item that
# the same session adds as a need, and the same (item, guide word) assessed
# twice.
CRAFTED_SESSIONS = """
elicitation "Collect evacuee information" {
  needs {
    |Evacuee register| from <Red Cross> via "Pager"
  }
  records {
    |Head count| via "Pager", "Radio from Silver Command" rationale "Audit trail."
  }
  hazards |Evacuee register| {
    late "Register is stale." severity high
  }
}

elicitation "Evacuate area" {
  needs {
    |Area map| from <Red Cross> via "Pager"
  }
  hazards |Area map| {
    unavailable "Routes unknown." severity critical
  }
}

elicitation "Collect evacuee information" {
  needs {
    |Evacuee register| from <Police> via "Satellite phone"
  }
  hazards |Evacuee register| {
    late "Another reading." severity critical
    early "No consequence." severity none
  }
}
"""


def _sessions(evacuation_answers):
    return list(evacuation_answers) + parse_answers(CRAFTED_SESSIONS)


class TestIngestAll:
    # repr also shows the implicit flags, which equality ignores.

    def test_fold_equals_one_session_at_a_time(self, evacuation,
                                               evacuation_answers):
        sessions = _sessions(evacuation_answers)
        one_by_one = reduce(lambda model, record: ingest_all(model, [record]),
                            sessions, evacuation)
        assert repr(ingest_all(evacuation, sessions)) == repr(one_by_one)

    def test_every_pair_of_sessions(self, evacuation, evacuation_answers):
        for a, b in permutations(_sessions(evacuation_answers), 2):
            assert (repr(ingest_all(evacuation, [a, b]))
                    == repr(ingest_all(ingest_all(evacuation, [a]), [b])))

    def test_idempotent(self, evacuation, evacuation_answers):
        sessions = _sessions(evacuation_answers)
        once = ingest_all(evacuation, sessions)
        assert repr(ingest_all(once, sessions)) == repr(once)

    def test_merged_content(self, evacuation, evacuation_answers):
        merged = ingest_all(evacuation, _sessions(evacuation_answers))
        resp = merged.responsibility_named("Collect evacuee information")
        (need,) = resp.needs
        assert need.sources == ("red-cross", "police")
        assert need.channels == ("pager", "satellite-phone")
        late = next(entry for entry in resp.hazards
                    if (entry.item, entry.guide_word)
                    == ("evacuee-register", GuideWord.LATE))
        assert late.consequence == "Register is stale."
        assert late.severity is Severity.CRITICAL
        assert merged.agent_named("Red Cross").implicit
        assert next(c for c in merged.channels if c.name == "Satellite phone").implicit

    def test_unknown_duty_in_a_later_session(self, evacuation,
                                            evacuation_answers):
        sessions = _sessions(evacuation_answers)
        sessions.insert(2, session("Ghost duty"))
        with pytest.raises(IngestError, match="Ghost duty") as excinfo:
            ingest_all(evacuation, sessions)
        (problem,) = excinfo.value.problems
        assert problem.span == sessions[2].span


class TestIngest:
    def test_corpus_answers_merge_to_eight_needs(self, evacuation,
                                                 evacuation_answers):
        merged = ingest_all(evacuation, evacuation_answers)
        resp = merged.responsibility_named("Evacuate area")
        assert len(resp.needs) == 8
        assert len(resp.hazards) == 5

    def test_empty_record_is_identity(self, evacuation):
        record = session("Evacuate area")
        merged = ingest_all(evacuation, [record])
        assert print_model(merged) == print_model(evacuation)

    def test_idempotent_on_corpus_answers(self, evacuation, evacuation_answers):
        once = ingest_all(evacuation, evacuation_answers)
        twice = ingest_all(once, evacuation_answers)
        assert print_model(twice) == print_model(once)

    def test_monotone_never_drops_needs(self, evacuation, evacuation_answers):
        merged = ingest_all(evacuation, evacuation_answers)
        before = evacuation.responsibility_named("Evacuate area")
        after = merged.responsibility_named("Evacuate area")
        assert set(n.resource for n in before.needs) <= set(
            n.resource for n in after.needs)

    @pytest.mark.parametrize("header", [
        "", ' by "Requirements team"', ' date "2005-01"',
        ' date "1999-12-31" by "Someone else"', ' by "" date ""',
    ], ids=["absent", "by-only", "date-only", "other-values", "empty"])
    def test_session_metadata_leaves_ingest_output_unchanged(
            self, run_cli, resp_path, answers_path, tmp_path, header):
        """``by`` and ``date`` are notes on the session: ingest prints the
        same bytes with them absent, present or set to other values."""
        text = answers_path.read_text(encoding="utf-8")
        written = ' by "Requirements team" date "2005-01"'
        assert text.count(written) == 1
        answers = tmp_path / "session.answers"
        answers.write_text(text.replace(written, header), encoding="utf-8",
                           newline="")
        expected = run_cli("ingest", str(resp_path), str(answers_path))
        assert expected[0] == 0
        assert run_cli("ingest", str(resp_path), str(answers)) == expected

    def test_new_need_is_appended(self, evacuation):
        record = session("Collect evacuee information",
                         "needs { |Evacuee register| from <Police> }")
        merged = ingest_all(evacuation, [record])
        resp = merged.responsibility_named("Collect evacuee information")
        assert [merged.resource_name(n.resource) for n in resp.needs] == [
            "Evacuee register"]
        assert merged.resource_named("Evacuee register").implicit

    def test_name_repeated_in_one_line_counts_once(self, evacuation):
        record = session("Collect evacuee information",
                         'needs { |Evacuee register| from <X>, <X> via "c", "c" }'
                         ' records { |Head count| via "d", "d" }')
        once = ingest_all(evacuation, [record])
        resp = once.responsibility_named("Collect evacuee information")
        assert resp.needs == (InfoNeed("evacuee-register", ("x",), ("c",)),)
        assert resp.products[0].channels == ("d",)
        assert repr(ingest_all(once, [record])) == repr(once)
        assert information_required_table(
            once, "Collect evacuee information").rows == (("Evacuee register", "X", "c"),)

    def test_unknown_responsibility_rejected(self, evacuation):
        record = session("Ghost duty")
        with pytest.raises(IngestError) as excinfo:
            ingest_all(evacuation, [record])
        assert str(excinfo.value).startswith(
            'a.answers:1:1: error: unknown responsibility "Ghost duty"; model defines 6, ')

    def test_strict_mode_rejects_new_references(self, evacuation):
        record = session("Collect evacuee information", "needs { |Never declared| }")
        with pytest.raises(IngestError, match="unknown information resource"):
            ingest_all(evacuation, [record], strict=True)

    def test_strict_mode_accepts_known_references(self, evacuation,
                                                  evacuation_answers):
        merged = ingest_all(evacuation, evacuation_answers, strict=True)
        assert len(merged.responsibility_named("Evacuate area").hazards) == 5

    def test_hazard_for_unrelated_item_rejected(self, evacuation):
        (record,) = parse_answers(
            'elicitation "Evacuate area" {\n'
            '  hazards |Never required| { late "slow" }\n'
            '}')
        with pytest.raises(IngestError, match="does not require"):
            ingest_all(evacuation, [record])

    def test_hazard_on_product_is_rejected(self, evacuation):
        # A worksheet has rows for required items only, so a hazard on an
        # item the duty only produces would never be reported.
        (record,) = parse_answers(
            'elicitation "Evacuate area" {\n'
            '  hazards |Information about unsafe routes| { late "stale" }\n'
            '}')
        with pytest.raises(IngestError, match="does not require"):
            ingest_all(evacuation, [record])

    def test_tables_equal_ingest_then_render(self, evacuation,
                                             evacuation_answers):
        # The corpus model already contains the answer content, so merging
        # must not change what the tables show.
        merged = ingest_all(evacuation, evacuation_answers)
        assert information_required_table(
            merged, "Evacuate area") == information_required_table(
            evacuation, "Evacuate area")
        assert information_recorded_table(
            merged, "Evacuate area") == information_recorded_table(
            evacuation, "Evacuate area")

    @settings(max_examples=25, deadline=None)
    @given(models())
    def test_empty_record_identity_property(self, model):
        if not model.responsibilities:
            return
        record = session(model.responsibilities[0].name)
        assert print_model(ingest_all(model, [record])) == print_model(model)


class TestOneClauseGrammar:
    """Answers hold ``.resp`` clauses and resolve through the same resolver."""

    @settings(max_examples=40, deadline=None)
    @given(ingested_declarations())
    def test_ingesting_the_flow_clauses_equals_building_with_them(self, drawn):
        model, sessions, decls = drawn
        assert ingest_all(model, sessions) == build_model(decls)

    @settings(max_examples=200, deadline=None)
    @given(ingested_declarations(), st.data())
    def test_sessions_split_across_two_files_compose(self, drawn, data):
        """Each session's needs, records and hazards cut in two at drawn
        points: ingesting the first parts, then the second, equals
        ingesting both in one call, or both fail alike."""
        model, sessions, _ = drawn
        first, second = [], []
        for record in sessions:
            parts = {field: getattr(record, field)
                     for field in ("needs", "records", "hazards")}
            cuts = {field: data.draw(st.integers(0, len(part)))
                    for field, part in parts.items()}
            first.append(record._replace(
                **{field: part[:cuts[field]] for field, part in parts.items()}))
            second.append(record._replace(
                **{field: part[cuts[field]:] for field, part in parts.items()}))
        assert (_outcome(lambda: ingest_all(ingest_all(model, first), second))
                == _outcome(lambda: ingest_all(model, first + second)))

    @settings(max_examples=40, deadline=None)
    @given(models() | ingested_models())
    def test_no_flow_lists_a_source_or_channel_twice(self, model):
        for resp in model.responsibilities:
            lists = ([n.sources for n in resp.needs]
                     + [flow.channels for flow in resp.needs + resp.products])
            assert all(len(set(ids)) == len(ids) for ids in lists), resp


def _outcome(ingesting):
    """The ``repr`` and text of the model ``ingesting()`` returns, or the
    type of the error it raises."""
    try:
        merged = ingesting()
    except IngestError as exc:
        return type(exc)
    return repr(merged), print_model(merged)


INGEST_BASE = """
agent <Ops>
resource |Map|
resource [Kit]
channel "Radio"
responsibility "R" {
  requires |Map| from <Ops> via "Radio"
}
"""

# Every ingest error text: (answers block, strict, message).
INGEST_ERRORS = [
    ("needs { |Map| from <ops> }", False, "agents 'Ops' and 'ops' collide on id 'ops'"),
    ("needs { |map!| }", False, "resources 'Map' and 'map!' collide on id 'map'"),
    ('needs { |Map| via "radio!" }', False,
     "channels 'Radio' and 'radio!' collide on id 'radio'"),
    ("needs { |Kit| }", False,
     "conflicting resource kind: 'Kit' is physical but is used as information"),
    ("records { |Kit| }", False,
     "conflicting resource kind: 'Kit' is physical but is used as information"),
    ('hazards |Gone| { late "x" }', False,
     'hazard block for |Gone| but "R" does not require it'),
    ('records { |Log| } hazards |Log| { late "x" }', False,
     'hazard block for |Log| but "R" does not require it'),
    ("needs { |New| }", True, "unknown information resource |New|"),
    ("needs { |Map| from <Nobody> }", True, "unknown agent <Nobody>"),
    ('needs { |Map| via "Fax" }', True, 'unknown channel "Fax"'),
    ("needs { |?| }", False, "resource name '?' needs at least one alphanumeric character"),
    # Under strict, a name that spells a known id otherwise collides, and a
    # known name used as another kind conflicts: neither is unknown.
    ("needs { |map!| }", True, "resources 'Map' and 'map!' collide on id 'map'"),
    ("needs { |Kit| }", True,
     "conflicting resource kind: 'Kit' is physical but is used as information"),
]


@pytest.mark.parametrize("block, strict, message", INGEST_ERRORS)
def test_ingest_errors_exactly(block, strict, message):
    text = f'elicitation "R" {{ {block} }}'
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"), strict=strict)
    # The answer refused is the line after the block's last "{ ".
    column = text.rindex("{ ") + 3
    assert str(excinfo.value) == f"a.answers:1:{column}: error: {message}"


# Answers files with several problems: (text, strict, stderr lines).  Ingest
# reports them all, record by record, and within a record its needs, records
# and hazards, then its orphan hazards; the first line is the one a stop at
# the first problem would print.
INGEST_PROBLEMS = [
    ('elicitation "R" {\n  needs { |Map| from <ops> }\n  records { |Kit| }\n}\n',
     False, ["a.answers:2:11: error: agents 'Ops' and 'ops' collide on id 'ops'",
             "a.answers:3:13: error: conflicting resource kind: 'Kit' is physical "
             "but is used as information"]),
    ('elicitation "R" {\n  hazards |Gone| { late "x" }\n  needs { |map!| }\n}\n'
     'elicitation "R" {\n  needs { |Map| via "radio!" }\n}\n',
     False, ["a.answers:3:11: error: resources 'Map' and 'map!' collide on id 'map'",
             'a.answers:2:20: error: hazard block for |Gone| but "R" does not '
             "require it",
             "a.answers:6:11: error: channels 'Radio' and 'radio!' collide on id "
             "'radio'"]),
    ('elicitation "R" {\n  needs { |Map| from <Nobody> via "Fax" }\n}\n',
     True, ["a.answers:2:11: error: unknown agent <Nobody>",
            'a.answers:2:11: error: unknown channel "Fax"']),
    # An item that does not resolve adds no hazard, so it is no orphan.
    ('elicitation "R" {\n  needs { |Map| from <Nobody> }\n  records { |Kit| }\n'
     '  hazards |Gone| { late "x" }\n}\n',
     True, ["a.answers:2:11: error: unknown agent <Nobody>",
            "a.answers:3:13: error: conflicting resource kind: 'Kit' is physical "
            "but is used as information",
            "a.answers:4:20: error: unknown information resource |Gone|"]),
    # Nor does it keep its sources and channels from being checked.
    ('elicitation "R" {\n  needs { |Ops| from <!!!>, <Map> via "Ops" }\n}\n',
     True, ["a.answers:2:11: error: unknown information resource |Ops|",
            "a.answers:2:11: error: agent name '!!!' needs at least one "
            "alphanumeric character",
            "a.answers:2:11: error: unknown agent <Map>",
            'a.answers:2:11: error: unknown channel "Ops"']),
]


@pytest.mark.parametrize("text, strict, lines", INGEST_PROBLEMS, ids=[
    f"{len(lines)}-problems{'-strict' * strict}" for _, strict, lines in INGEST_PROBLEMS])
def test_ingest_reports_every_problem(text, strict, lines):
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"), strict=strict)
    assert str(excinfo.value).split("\n") == lines


# A session whose header names no duty is one problem more, at the header,
# in its place among the others; ingest goes on past it.
def test_unknown_duty_after_a_bad_answer_raises_the_problems_met():
    text = ('elicitation "R" {\n  needs { |map!| }\n  records { |Kit| }\n}\n'
            'elicitation "Ghost" {\n}\n'
            'elicitation "R" {\n  needs { |Map| from <ops> }\n}\n')
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"))
    assert str(excinfo.value).split("\n") == [
        "a.answers:2:11: error: resources 'Map' and 'map!' collide on id 'map'",
        "a.answers:3:13: error: conflicting resource kind: 'Kit' is physical but "
        "is used as information",
        'a.answers:5:1: error: unknown responsibility "Ghost"; model defines 1, '
        "closest: (none)",
        "a.answers:8:11: error: agents 'Ops' and 'ops' collide on id 'ops'"]


def test_unknown_duty_before_any_bad_answer_is_unknown():
    text = ('elicitation "Ghost" {\n}\n'
            'elicitation "R" {\n  needs { |map!| }\n}\n')
    with pytest.raises(IngestError, match="Ghost") as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"))
    assert str(excinfo.value).split("\n") == [
        'a.answers:1:1: error: unknown responsibility "Ghost"; model defines 1, '
        "closest: (none)",
        "a.answers:4:11: error: resources 'Map' and 'map!' collide on id 'map'"]


def test_an_unresolved_item_is_reported_alike_in_a_model_and_in_answers():
    """The same clauses in a ``.resp`` block and in a session: each problem
    is reported once, and a hazard whose item does not resolve is not
    reported again as an orphan."""
    text = INGEST_BASE.replace(
        "}", '  requires |map!|\n  produces |Kit|\n  hazard |?| late "x"\n}')
    with pytest.raises(ModelBuildError) as built:
        build(text)
    with pytest.raises(IngestError) as ingested:
        ingest_all(build(INGEST_BASE), [session(
            "R", 'needs { |map!| } records { |Kit| } hazards |?| { late "x" }')])
    messages = [
        "resources 'Map' and 'map!' collide on id 'map'",
        "conflicting resource kind: 'Kit' is physical but is used as information",
        "resource name '?' needs at least one alphanumeric character",
    ]
    assert [i.message for i in built.value.problems] == messages
    assert [i.message for i in ingested.value.problems] == messages


def test_strict_ingest_refuses_an_unknown_agent_at_its_first_session():
    text = ('elicitation "R" {\n  needs { |Map| from <Nobody> }\n}\n'
            'elicitation "R" {\n  needs { |Map| from <Nobody> }\n}\n')
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"), strict=True)
    # Each mention of the unknown agent is refused where it stands.
    assert str(excinfo.value) == ("a.answers:2:11: error: unknown agent <Nobody>\n"
                                  "a.answers:5:11: error: unknown agent <Nobody>")


def test_hazard_block_before_the_session_that_adds_its_need_is_refused():
    text = ('elicitation "R" {\n  hazards |X| { late "x" }\n}\n'
            'elicitation "R" {\n  needs { |X| }\n}\n')
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"))
    assert str(excinfo.value) == ('a.answers:2:17: error: hazard block for |X| '
                                  'but "R" does not require it')


def test_strict_ingest_refuses_an_orphan_hazard_before_a_later_unknown_agent():
    text = ('elicitation "R" {\n  hazards |Log| { late "x" }\n}\n'
            'elicitation "R" {\n  needs { |Map| from <Nobody> }\n}\n')
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE + "resource |Log|\n"),
                   parse_answers(text, "a.answers"), strict=True)
    assert str(excinfo.value) == ('a.answers:2:19: error: hazard block for |Log| '
                                  'but "R" does not require it\n'
                                  "a.answers:5:11: error: unknown agent <Nobody>")


def test_ingest_error_names_the_line_it_refuses():
    text = ('elicitation "R" {\n'
            '  needs {\n'
            '    |Map| from <Ops>\n'
            '    |Map| via "Radio", "radio!"\n'
            '  }\n'
            '}\n')
    with pytest.raises(IngestError) as excinfo:
        ingest_all(build(INGEST_BASE), parse_answers(text, "a.answers"))
    assert excinfo.value.problems[0].span == ("a.answers", 4, 5)


class TestInformationTables:
    def test_required_shape_and_first_row(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        assert table.columns == (
            "Information required", "Source", "Communication channel")
        assert len(table.rows) == 8
        assert table.rows[0] == (
            "Area map", "County council",
            "Radio data link to printers in local command centre")

    def test_joint_sources_render_comma_separated(self, evacuation):
        table = information_required_table(evacuation, "Evacuate area")
        by_item = {row[0]: row for row in table.rows}
        assert by_item["Evacuated premises"][1] == "Police, Fire Service"

    def test_no_needs_gives_header_only(self, evacuation):
        table = information_required_table(evacuation, "Search and rescue")
        assert table.rows == ()

    def test_recorded_shape(self, evacuation):
        table = information_recorded_table(evacuation, "Evacuate area")
        assert table.columns == ("Information created/recorded", "Channels")
        assert [row[0] for row in table.rows] == [
            "Information about evacuated premises, evacuation time and units "
            "responsible for evacuation",
            "Information about unchecked premises",
            "Information about unsafe routes",
        ]

    def test_recorded_channels_cell_has_both_phrases(self, evacuation):
        table = information_recorded_table(evacuation, "Evacuate area")
        cell = table.rows[0][1]
        assert "Radio or verbal report from ground units to local Bronze Command" in cell
        assert "Email or fax to Silver Command if available, otherwise radio" in cell

    def test_no_products_gives_header_only(self, evacuation):
        table = information_recorded_table(evacuation, "Arrange transport")
        assert table.rows == ()

    def test_unknown_responsibility(self, evacuation):
        with pytest.raises(UnknownResponsibility):
            information_required_table(evacuation, "X")
