import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respkit import build_model, derive_mitigations, dsl, print_model
from respkit.dsl import (
    AgentDecl,
    AssignClause,
    ModelDecl,
    ParseFailure,
    ResponsibilityDecl,
    Source,
    SourceSpan,
    UseClause,
    _scan,
    parse_answers,
    parse_model,
    parse_requirements,
    print_requirements,
)
from respkit.model import (Agent, AgentKind, Channel, GuideWord, HazardEntry, InfoNeed,
                           InfoProduct, Model, RequirementRecord, Resource, ResourceKind,
                           Responsibility, Severity)

import reference_parser
import reference_scanner
from reference_scanner import Token
from strategies import (answers_text, dsl_text, ingested_models, keyword_text, line_text,
                        models, reqs_text, requirement_records, resp_text)


def build(text: str) -> Model:
    return build_model(parse_model(text))


class TestParseModel:
    def test_model_line_alone(self):
        decls = parse_model('model "M"')
        assert decls == [ModelDecl("M", 0, Source("<string>", 'model "M"'))]
        assert decls[0].span == SourceSpan("<string>", 1, 1)

    def test_bracket_notation_block(self):
        decls = parse_model(
            'responsibility "Broadcast safety information" {\n'
            '  assigned to <MRCC Clyde>\n'
            '  uses [VHF radio]\n'
            '  uses [MF radio]\n'
            '}')
        (resp,) = decls
        assert isinstance(resp, ResponsibilityDecl)
        assert resp.name == "Broadcast safety information"
        assign, vhf, mf = resp.items
        assert isinstance(assign, AssignClause) and assign.agents == ("MRCC Clyde",)
        assert isinstance(vhf, UseClause) and vhf.resource == "VHF radio"
        assert mf.resource == "MF radio"

    def test_unclosed_block_reports_expected_brace(self):
        with pytest.raises(ParseFailure) as excinfo:
            parse_model('responsibility "X" {')
        (problem,) = excinfo.value.problems
        assert problem.message == "expected '}', found end of file"

    def test_error_spans_point_at_the_offence(self):
        with pytest.raises(ParseFailure) as excinfo:
            parse_model('model "ok"\nagent Police', filename="m.resp")
        (problem,) = excinfo.value.problems
        assert problem.span.file == "m.resp"
        assert problem.span.line == 2
        assert "m.resp:2:" in problem.render()

    def test_recovers_one_error_per_declaration(self):
        bad = ('agent Police\n'
               'resource |Facts|\n'
               'channel 42\n'
               'responsibility "R" { assigned <A> }\n')
        with pytest.raises(ParseFailure) as excinfo:
            parse_model(bad)
        assert len(excinfo.value.problems) >= 3

    def test_nested_responsibility_rejected(self):
        with pytest.raises(ParseFailure, match="do not nest"):
            parse_model('responsibility "A" { responsibility "B" {} }')

    def test_comments_ignored(self):
        decls = parse_model("# a comment\nmodel \"M\"  # trailing\n")
        assert len(decls) == 1

    def test_second_model_declaration_rejected(self):
        with pytest.raises(ParseFailure, match="at most one model"):
            parse_model('model "A"\nmodel "B"')

    def test_model_must_come_first(self):
        with pytest.raises(ParseFailure, match="first in the file"):
            parse_model('agent <A>\nmodel "B"')

    def test_string_escapes(self):
        decls = parse_model(r'model "say \"hi\" \\ bye"')
        assert decls[0].name == 'say "hi" \\ bye'

    def test_unknown_escape_rejected(self):
        with pytest.raises(ParseFailure):
            parse_model(r'model "bad \n escape"')

    def test_empty_reference_rejected(self):
        with pytest.raises(ParseFailure):
            parse_model("agent <>")

    def test_reference_names_keep_inner_spacing(self):
        decls = parse_model("agent < Scottish  Water >")
        assert isinstance(decls[0], AgentDecl)
        assert decls[0].name == "Scottish  Water"

    def test_determinism(self):
        text = 'model "M"\nagent <A> kind role\n'
        assert parse_model(text) == parse_model(text)

    # Severities, guide words and agent kinds match their lowercase token
    # exactly.  "h\u0131gh" (dotless i) upper-cases to "HIGH".
    @pytest.mark.parametrize("text, rendered", [
        ('responsibility "R" { requires |Map| criticality h\u0131gh }',
         "t.resp:1:49: error: expected one of none, low, medium, high, critical, "
         "found 'h\u0131gh'"),
        ('responsibility "R" { requires |Map| criticality HIGH }',
         "t.resp:1:49: error: expected one of none, low, medium, high, critical, "
         "found 'HIGH'"),
        ('responsibility "R" { hazard |Map| late "x" severity Low }',
         "t.resp:1:53: error: expected one of none, low, medium, high, critical, "
         "found 'Low'"),
        ('responsibility "R" { hazard |Map| LATE "x" }',
         "t.resp:1:35: error: expected one of unavailable, inaccurate, incomplete, "
         "late, early, found 'LATE'"),
        ("agent <A> kind Role",
         "t.resp:1:16: error: expected one of organization, role, person, system, "
         "group, found 'Role'"),
    ], ids=["dotless-i", "upper", "title", "guide-word", "agent-kind"])
    def test_enum_words_match_exactly(self, text, rendered):
        with pytest.raises(ParseFailure) as excinfo:
            parse_model(text, "t.resp")
        assert str(excinfo.value) == rendered


EVERY_KIND = (
    'model "M"\nagent <Ops> kind role\nresource |Map|\n'
    'channel "Radio" medium radio backup_of "Fax"\nchannel "Fax"\n'
    'responsibility "R" {\n  assigned to <Ops>\n'
    '  requires |Map| from <Ops> via "Radio" criticality high\n'
    '  produces |Log| via "Fax" rationale "why"\n  uses [Van]\n'
    '  hazard |Map| late "x" severity low mitigated_by REQ-1\n'
    '  precedes "R"\n  note "n"\n}\n')


def _every_value():
    """One parsed value of every declaration, clause, span and error type."""
    decls = parse_model(EVERY_KIND)
    with pytest.raises(ParseFailure) as excinfo:
        parse_model("agent 7")
    return [*decls, *decls[-1].items, decls[0].span, *excinfo.value.problems]


class TestValueTypes:
    def test_every_type_is_covered(self):
        assert sorted(type(v).__name__ for v in _every_value()) == sorted([
            "ModelDecl", "AgentDecl", "ResourceDecl", "ChannelDecl", "ChannelDecl",
            "ResponsibilityDecl", "AssignClause", "RequireClause", "ProduceClause",
            "UseClause", "HazardClause", "PrecedesClause", "NoteClause",
            "SourceSpan", "Problem", "Problem"])

    @pytest.mark.parametrize("value", _every_value(), ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned(self, value):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

    def test_spans_are_hashable(self, resp_path):
        tokens = _scan(resp_path.read_text(encoding="utf-8"), str(resp_path))
        spans = {tokens.span(i) for i in range(len(tokens.kinds))}
        assert len(spans) == len(tokens.kinds)
        assert SourceSpan(*tokens.span(0)) in spans

    def test_parse_is_repeatable_on_the_corpus(self, resp_path):
        text = resp_path.read_text(encoding="utf-8")
        first = parse_model(text, str(resp_path))
        assert first == parse_model(text, str(resp_path))


# The fields of every parsed node type, in order; each ends in its location.
NODE_FIELDS = [
    ("ModelDecl", ("name", "offset", "source")),
    ("AgentDecl", ("name", "kind", "offset", "source")),
    ("ResourceDecl", ("name", "kind", "offset", "source")),
    ("ChannelDecl", ("name", "medium", "backup_of", "offset", "source")),
    ("AssignClause", ("agents", "offset", "source")),
    ("RequireClause", ("resource", "sources", "channels", "criticality", "offset",
                       "source")),
    ("ProduceClause", ("resource", "channels", "rationale", "offset", "source")),
    ("UseClause", ("resource", "offset", "source")),
    ("HazardClause", ("item", "guide_word", "consequence", "severity", "mitigated_by",
                      "offset", "source")),
    ("PrecedesClause", ("target", "offset", "source")),
    ("NoteClause", ("text", "offset", "source")),
    ("ResponsibilityDecl", ("name", "items", "offset", "source")),
    ("ElicitationRecord", ("responsibility", "by", "date", "needs", "records",
                           "hazards", "offset", "source")),
]


def _every_node() -> dict:
    """One node of each type parsed from text, by type name."""
    decls = parse_model(EVERY_KIND)
    (session,) = parse_answers('\n  elicitation "R" { needs { |Map| } }')
    return {type(v).__name__: v for v in (*decls, *decls[-1].items, session)}


@pytest.mark.parametrize("name, fields", NODE_FIELDS, ids=[n for n, _ in NODE_FIELDS])
def test_node_shape(name, fields):
    node_type = getattr(dsl, name)
    assert node_type._fields == fields
    assert node_type.__module__ == "respkit.dsl"
    node = _every_node()[name]
    assert type(node) is node_type
    assert node.span == node.source.span_at(node.offset)


# Scanner errors, pinned as the rendered ParseFailure text: message,
# position and order.  Tabs and carriage returns count one column each.
_ESCAPE = r"""expected escape '\"' or '\\'"""
_KINDS = "organization, role, person, system, group"
SCAN_ERRORS = [
    ('model "a\\qb"', [
        rf"t.resp:1:9: error: {_ESCAPE}, found '\q'"]),
    ('model "a\\\nb"\n', [
        "t.resp:1:7: error: expected closing '\"', found end of line",
        f"t.resp:1:9: error: {_ESCAPE}, found end of line",
        "t.resp:2:1: error: expected string, found identifier 'b'",
        "t.resp:2:2: error: expected closing '\"', found end of line"]),
    ('model "a\\', [
        "t.resp:1:7: error: expected closing '\"', found end of line",
        f"t.resp:1:9: error: {_ESCAPE}, found end of file",
        "t.resp:1:10: error: expected string, found end of file"]),
    ('model "abc\nagent <A>', [
        "t.resp:1:7: error: expected closing '\"', found end of line",
        "t.resp:2:1: error: expected string, found identifier 'agent'"]),
    ("agent <A\nagent <B>", [
        "t.resp:1:7: error: expected closing '>', found end of line",
        "t.resp:2:1: error: expected agent reference, found identifier 'agent'"]),
    ("resource [Kit\n", [
        "t.resp:1:10: error: expected closing ']', found end of line",
        "t.resp:2:1: error: expected a resource reference ([name] or |name|), "
        "found end of file"]),
    ("resource |Facts", [
        "t.resp:1:10: error: expected closing '|', found end of line",
        "t.resp:1:16: error: expected a resource reference ([name] or |name|), "
        "found end of file"]),
    ("agent < >", [
        "t.resp:1:7: error: expected a name inside '<>', found nothing",
        "t.resp:1:10: error: expected agent reference, found end of file"]),
    ("agent @@x", [
        "t.resp:1:7: error: expected a valid token, found '@@x'",
        "t.resp:1:10: error: expected agent reference, found end of file"]),
    ("agent 1abc", [
        "t.resp:1:7: error: expected a valid token, found '1abc'",
        "t.resp:1:11: error: expected agent reference, found end of file"]),
    ("agent >", [
        "t.resp:1:7: error: expected a valid token, found '>'",
        "t.resp:1:8: error: expected agent reference, found end of file"]),
    ("agent ²x", [
        "t.resp:1:7: error: expected a valid token, found '²x'",
        "t.resp:1:9: error: expected agent reference, found end of file"]),
    ("agent Ⅻ", [
        "t.resp:1:7: error: expected a valid token, found 'Ⅻ'",
        "t.resp:1:8: error: expected agent reference, found end of file"]),
    ("\tagent <A> 7", [
        "t.resp:1:12: error: expected a valid token, found '7'"]),
    ("\ragent <A> 7", [
        "t.resp:1:12: error: expected a valid token, found '7'"]),
    ("agent <A>#c\n7", [
        "t.resp:2:1: error: expected a valid token, found '7'"]),
    ('agent "x\\q" @ <>', [
        r"t.resp:1:7: error: expected agent reference, found string 'x\\q'",
        rf"t.resp:1:9: error: {_ESCAPE}, found '\q'",
        "t.resp:1:13: error: expected a valid token, found '@'",
        "t.resp:1:15: error: expected a name inside '<>', found nothing"]),
    ('model "a\\\\" \x0b', [
        r"t.resp:1:13: error: expected a valid token, found '\x0b'"]),
    ("agent \u2028", [
        r"t.resp:1:7: error: expected a valid token, found '\u2028'",
        "t.resp:1:8: error: expected agent reference, found end of file"]),
    ('responsibility "R" {\n  note "n"  # trailing', [
        "t.resp:2:13: error: expected '}', found end of file"]),
    # A punctuation token is named once.
    ('responsibility "R" {\n  requires |a| via "c" , }', [
        "t.resp:2:26: error: expected string, found '}'"]),
    ("agent {", [
        "t.resp:1:7: error: expected agent reference, found '{'"]),
    ("model ,", [
        "t.resp:1:7: error: expected string, found ','"]),
    # Recovery resumes at the token an error names, so a declaration after
    # a bad word is parsed, and reported, on its own.
    ("agent <A> kind bogus\nagent <B> kind bad", [
        f"t.resp:1:16: error: expected one of {_KINDS}, found 'bogus'",
        f"t.resp:2:16: error: expected one of {_KINDS}, found 'bad'"]),
    ("agent <A> kind @@\nagent <B> kind bad", [
        "t.resp:1:16: error: expected a valid token, found '@@'",
        f"t.resp:2:1: error: expected one of {_KINDS}, found 'agent'",
        f"t.resp:2:16: error: expected one of {_KINDS}, found 'bad'"]),
    # The grammar ignores line ends: "medium" takes "agent" as its value, and
    # line 2 starts at <B>, which is no declaration.
    ('channel "C" medium\nagent <B> kind bad', [
        "t.resp:2:7: error: expected a declaration keyword (model, agent, resource, "
        "channel, responsibility), found agent reference 'B'"]),
    # At most one problem a token: recovery resumes at "model", whose own
    # declaration fails there again, and that second problem is dropped.
    ('agent model "M"', [
        "t.resp:1:7: error: expected agent reference, found identifier 'model'"]),
]


@pytest.mark.parametrize("text, rendered", SCAN_ERRORS)
def test_scan_errors_render_exactly(text, rendered):
    with pytest.raises(ParseFailure) as excinfo:
        parse_model(text, "t.resp")
    assert str(excinfo.value) == "\n".join(rendered)


def _token_list(text: str) -> tuple[list[Token], list]:
    """``_scan`` of ``text`` as the reference scanner's Token list."""
    tokens = _scan(text, "f")
    return ([Token(kind, value, tokens.span(i))
             for i, (kind, value) in enumerate(zip(tokens.kinds, tokens.values))],
            tokens.errors)


class TestScannerFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text() | dsl_text)
    def test_regex_scanner_matches_character_loop(self, text):
        assert _token_list(text) == reference_scanner.scan(text, "f")

    @settings(max_examples=300, deadline=None)
    @given(line_text)
    def test_no_token_runs_across_a_line_end(self, text):
        assert _token_list(text) == reference_scanner.scan(text, "f")

    @settings(max_examples=300, deadline=None)
    @given(st.text() | dsl_text)
    def test_parsers_raise_only_parse_failure(self, text):
        for parse in (parse_model, parse_answers, parse_requirements):
            try:
                parse(text)
            except ParseFailure:
                pass


def _typed(value):
    """``value`` with the class of each named tuple in it spelled out, since
    named tuples with equal fields compare equal across classes, and with the
    ``offset`` and ``source`` of each declaration and clause read as its
    ``span``."""
    if hasattr(value, "_fields"):
        fields = (*value[:-2], value.span) if "source" in value._fields else value
        return (type(value).__name__, *map(_typed, fields))
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return value


def _outcome(parse, text: str):
    """What ``parse`` makes of ``text``: its results or its errors."""
    try:
        return "parsed", _typed(parse(text, "f"))
    except ParseFailure as failure:
        return "failed", failure.problems


class TestParserFuzz:
    """The list-indexed parsers against the recursive-descent reference:
    the same declarations and records, or the same errors in order."""

    @settings(max_examples=300, deadline=None)
    @given(st.text() | dsl_text | line_text | resp_text)
    def test_parse_model_matches_reference(self, text):
        assert (_outcome(parse_model, text)
                == _outcome(reference_parser.parse_model, text))

    @settings(max_examples=300, deadline=None)
    @given(st.text() | dsl_text | line_text | answers_text)
    def test_parse_answers_matches_reference(self, text):
        assert (_outcome(parse_answers, text)
                == _outcome(reference_parser.parse_answers, text))

    @settings(max_examples=300, deadline=None)
    @given(st.text() | dsl_text | line_text | reqs_text)
    def test_parse_requirements_matches_reference(self, text):
        assert (_outcome(parse_requirements, text)
                == _outcome(reference_parser.parse_requirements, text))

    @settings(max_examples=300, deadline=None)
    @given(keyword_text | st.text() | dsl_text | line_text | resp_text | answers_text
           | reqs_text)
    def test_no_two_problems_share_a_span(self, text):
        for parse in (parse_model, parse_answers, parse_requirements):
            outcome, problems = _outcome(parse, text)
            if outcome == "failed":
                spans = [problem.span for problem in problems]
                assert len(set(spans)) == len(spans)

    @pytest.mark.parametrize("text, rendered", SCAN_ERRORS)
    def test_reference_renders_the_pinned_errors(self, text, rendered):
        with pytest.raises(ParseFailure) as excinfo:
            reference_parser.parse_model(text, "t.resp")
        assert str(excinfo.value) == "\n".join(rendered)


class TestPrintModel:
    def test_empty_model(self):
        assert print_model(Model()) == 'model ""\n'

    def test_unassigned_block_has_no_assigned_line(self, evacuation):
        printed = print_model(evacuation)
        block = printed.split('responsibility "Collect evacuee information"')[1]
        block = block.split("}")[0]
        assert "assigned to" not in block

    def test_corpus_round_trip(self, evacuation):
        assert build(print_model(evacuation)) == evacuation

    def test_print_is_stable(self, evacuation):
        assert print_model(evacuation) == print_model(evacuation)

    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_random_models_round_trip(self, model):
        assert build(print_model(model)) == model

    def test_hand_built_model_names_ids_no_element_holds(self):
        """Duties name an assigned agent, a need's source, item and channel,
        a product, a use and a hazard item that no element holds; each is
        written from its id, the same way each time.  Two agents, two
        resources and two channels share an id, and the first wins.  A
        physical resource is required and an information item used: each
        is written in the brackets of its mention.  A channel backs up one
        declared after it, which backs up none that exists."""
        model = Model(
            name='Plan "A"\\1',
            agents=(Agent("ops", 'Ops "HQ"', AgentKind.ROLE),
                    Agent("ops", "Ops twin", AgentKind.PERSON),
                    Agent("back\\slash", "Back\\slash", AgentKind.SYSTEM)),
            resources=(Resource("map", "Map\\old", ResourceKind.INFORMATION),
                       Resource("van", "Van", ResourceKind.PHYSICAL),
                       Resource("map", "Map twin", ResourceKind.PHYSICAL)),
            channels=(Channel("radio", 'Radio "1"', medium="vhf", backup_of="phone"),
                      Channel("phone", "Phone", backup_of="gone\\"),
                      Channel("radio", "Radio twin")),
            responsibilities=(
                Responsibility(
                    "say", 'Say "when"', assigned_to=("ops", "ghost"),
                    needs=(InfoNeed("map", sources=("ghost", "nobody\\", "back\\slash"),
                                    channels=("radio", "lost\\line"),
                                    criticality=Severity.HIGH),
                           InfoNeed("lost-item", sources=("ops",)),
                           InfoNeed("van")),
                    products=(InfoProduct("made", channels=("phone", "lost\\line"),
                                          rationale='Why "so"'),),
                    uses=("van", "tool\\", "map"),
                    notes=("A \\ note",),
                    hazards=(HazardEntry("map", GuideWord.LATE, "Stale.",
                                         Severity.CRITICAL, "REQ-1"),
                             HazardEntry("unheld", GuideWord.EARLY))),
                Responsibility("drive", "Drive", assigned_to=("back\\slash", "ghost"),
                               needs=(InfoNeed("lost-item", channels=("gone\\",)),),
                               uses=("tool\\",)),
            ),
            sequence_links=(("say", "drive"), ("drive", "say")),
        )
        assert print_model(model) == r'''model "Plan \"A\"\\1"

agent <Ops "HQ"> kind role
agent <Ops twin> kind person
agent <Back\slash> kind system

resource |Map\old|
resource [Van]
resource [Map twin]

channel "Radio \"1\"" medium vhf backup_of "Phone"
channel "Phone" backup_of "gone\\"
channel "Radio twin"

responsibility "Say \"when\"" {
  assigned to <Ops "HQ">, <ghost>
  requires |Map\old| from <ghost>, <nobody\>, <Back\slash> via "Radio \"1\"", "lost\\line" criticality high
  requires |lost-item| from <Ops "HQ">
  requires |Van|
  produces |made| via "Phone", "lost\\line" rationale "Why \"so\""
  uses [Van]
  uses [tool\]
  uses [Map\old]
  hazard |Map\old| late "Stale." severity critical mitigated_by REQ-1
  hazard |unheld| early "" severity none
  precedes "Drive"
  note "A \\ note"
}

responsibility "Drive" {
  assigned to <Back\slash>, <ghost>
  requires |lost-item| via "gone\\"
  uses [tool\]
  precedes "Say \"when\""
}
'''

    # Each model holds two unprintable values; the first in print order is
    # the one reported.
    @pytest.mark.parametrize("model, message", [
        (Model(agents=(Agent("ops", "Ops"),),
               responsibilities=(
                   Responsibility("a", "A", assigned_to=("ops",),
                                  needs=(InfoNeed("map", sources=("x>y",)),)),
                   Responsibility("b", "B", assigned_to=("p>q",)))),
         "name 'x>y' cannot appear inside <>"),
        (Model(channels=(Channel("a", "A", backup_of="c"), Channel("c", "C\nD")),
               responsibilities=(Responsibility("r", "R", notes=("x\ny",)),)),
         "strings cannot span lines: 'C\\nD'"),
        (Model(resources=(Resource("kit", "K|it", ResourceKind.PHYSICAL),),
               responsibilities=(Responsibility("r", "R", needs=(InfoNeed("kit"),),
                                                uses=("kit",), notes=("x\ny",)),)),
         "name 'K|it' cannot appear inside ||"),
        (Model(responsibilities=(Responsibility("a", "A", notes=("x\ny",)),),
               sequence_links=(("a", "gone"),)),
         "sequence link ('a', 'gone') must join two responsibilities"),
    ], ids=["agent-angle", "channel-line-end", "physical-bar-need", "missing-link-target"])
    def test_first_unprintable_reference_is_reported(self, model, message):
        with pytest.raises(ValueError) as excinfo:
            print_model(model)
        assert str(excinfo.value) == message

    # A medium and a mitigation are written bare, so each must read back as
    # one identifier token; an empty one would read back as none at all.
    @pytest.mark.parametrize("model, message", [
        (Model(name="M", channels=(Channel("c", "C", medium="two words"),)),
         "medium 'two words' is not an identifier"),
        (Model(channels=(Channel("c", "C", medium=""),)), "medium '' is not an identifier"),
        (Model(channels=(Channel("c", "C", medium="1st"),)),
         "medium '1st' is not an identifier"),
        (Model(responsibilities=(Responsibility("r", "R", hazards=(
            HazardEntry("x", GuideWord.LATE, "Slow.", mitigation="REQ 1"),)),)),
         "mitigation 'REQ 1' is not an identifier"),
        (Model(responsibilities=(Responsibility("r", "R", hazards=(
            HazardEntry("x", GuideWord.LATE, "Slow.", mitigation=""),)),)),
         "mitigation '' is not an identifier"),
        (Model(responsibilities=(Responsibility("r", "R", hazards=(
            HazardEntry("x", GuideWord.LATE, "Slow.", mitigation="R#1"),)),)),
         "mitigation 'R#1' is not an identifier"),
    ], ids=["medium-two-words", "medium-empty", "medium-digit-first",
            "mitigation-space", "mitigation-empty", "mitigation-comment"])
    def test_value_that_cannot_read_back_rejected(self, model, message):
        with pytest.raises(ValueError) as excinfo:
            print_model(model)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("word", ["radio", "data-link", "_x", "é2", "Ω-mode"])
    def test_identifier_medium_and_mitigation_round_trip(self, word):
        model = build(f'channel "C" medium {word}\n'
                      f'responsibility "R" {{\n  requires |X| via "C"\n'
                      f'  hazard |X| late "Slow." mitigated_by {word}\n}}')
        assert model.channels[0].medium == word
        assert build(print_model(model)) == model

    def test_unprintable_agent_name_rejected(self):
        model = Model(agents=(Agent("a-b", "a>b"),))
        with pytest.raises(ValueError):
            print_model(model)

    @pytest.mark.parametrize("link", [("a", "x"), ("x", "a")], ids=["target", "source"])
    def test_link_that_does_not_end_at_a_duty_rejected(self, link):
        model = Model(responsibilities=(Responsibility("a", "A"),), sequence_links=(link,))
        with pytest.raises(ValueError, match=re.escape(f"sequence link {link!r}")):
            print_model(model)

    def test_renamed_duty_round_trips_with_its_hazards(self):
        model = build('responsibility "R" {\n'
                      '  requires |X|\n'
                      '  hazard |X| late "Stale." severity high\n'
                      '}')
        (resp,) = model.responsibilities
        renamed = replace(model, responsibilities=(replace(resp, id="s", name="S"),))
        assert build(print_model(renamed)) == renamed


class TestParseAnswers:
    def test_corpus_needs_count(self, evacuation_answers):
        (record,) = evacuation_answers
        assert record.responsibility == "Evacuate area"
        assert len(record.needs) == 8
        assert len(record.records) == 3
        assert len(record.hazards) == 5

    def test_empty_session(self):
        (record,) = parse_answers('elicitation "R" {}')
        assert record.needs == ()
        assert record.records == ()
        assert record.hazards == ()
        assert record.by is None and record.date is None

    def test_meta_clauses(self):
        (record,) = parse_answers('elicitation "R" by "Us" date "2005" {}')
        assert record.by == "Us" and record.date == "2005"
        (record,) = parse_answers('elicitation "R" date "2005" by "Us" {}')
        assert record.by == "Us" and record.date == "2005"

    # A second ``by`` or ``date`` would silently replace the first.
    @pytest.mark.parametrize("text, rendered", [
        ('elicitation "X" by "a" by "b" { }',
         "<string>:1:24: error: expected '{', found identifier 'by'"),
        ('elicitation "X" date "a" by "q" date "b" { }',
         "<string>:1:33: error: expected '{', found identifier 'date'"),
    ], ids=["by", "date"])
    def test_meta_clause_repeated_rejected(self, text, rendered):
        with pytest.raises(ParseFailure) as excinfo:
            parse_answers(text)
        assert str(excinfo.value) == rendered

    def test_unknown_guide_word_lists_legal_words(self):
        text = 'elicitation "R" { hazards |X| { missing "gone" } }'
        with pytest.raises(ParseFailure) as excinfo:
            parse_answers(text)
        rendered = excinfo.value.problems[0].render()
        for word in ("unavailable", "inaccurate", "incomplete", "late", "early"):
            assert word in rendered

    def test_unknown_severity_rejected(self):
        text = 'elicitation "R" { hazards |X| { late "slow" severity huge } }'
        with pytest.raises(ParseFailure) as excinfo:
            parse_answers(text)
        assert "critical" in excinfo.value.problems[0].render()

    def test_hazard_lines_capture_fields(self):
        text = ('elicitation "R" {\n'
                '  hazards |X| { late "slow day" severity medium }\n'
                '}')
        (record,) = parse_answers(text)
        (hazard,) = record.hazards
        assert hazard.item == "X"
        assert hazard.guide_word is GuideWord.LATE
        assert hazard.consequence == "slow day"
        assert hazard.severity is Severity.MEDIUM

    def test_multiple_sessions(self):
        records = parse_answers('elicitation "A" {}\nelicitation "B" {}')
        assert [r.responsibility for r in records] == ["A", "B"]


class TestParseRequirements:
    def test_empty_file(self):
        assert parse_requirements("") == []

    def test_corpus_preserves_authored_order(self, evacuation_reqs):
        assert len(evacuation_reqs) == 10
        assert [r.id for r in evacuation_reqs] == [
            f"ERCS-{n}" for n in range(1, 11)]

    def test_record_fields(self, evacuation_reqs):
        second = evacuation_reqs[1]
        assert "either XML format or in PDF" in second.text
        assert second.rationale
        assert len(second.traces) == 2

    def test_duplicate_id_rejected(self):
        text = ('requirement R1 { text "a" rationale "b" }\n'
                'requirement R1 { text "c" rationale "d" }')
        with pytest.raises(ParseFailure, match="duplicate"):
            parse_requirements(text)

    def test_malformed_trace_rejected(self):
        text = 'requirement R1 { text "a" rationale "b" traces banana }'
        with pytest.raises(ParseFailure, match="trace target"):
            parse_requirements(text)

    def test_hazard_trace_round_trip(self, evacuation_reqs):
        printed = print_requirements(evacuation_reqs)
        assert parse_requirements(printed) == evacuation_reqs

    @pytest.mark.parametrize("ident", ["REQ 1", "", "1", "Ⅻ", "R,1"])
    def test_requirement_id_that_cannot_read_back_rejected(self, ident):
        with pytest.raises(ValueError) as excinfo:
            print_requirements([RequirementRecord(ident, "a", "b")])
        assert str(excinfo.value) == f"requirement id {ident!r} is not an identifier"

    @settings(max_examples=80, deadline=None)
    @given(requirement_records)
    def test_random_records_round_trip(self, records):
        assert parse_requirements(print_requirements(records)) == records

    @settings(max_examples=40, deadline=None)
    @given(ingested_models(), st.data())
    def test_derived_mitigations_round_trip(self, model, data):
        duty = data.draw(st.sampled_from(model.responsibilities))
        stubs = derive_mitigations(model, duty.name)
        assert parse_requirements(print_requirements(stubs)) == stubs
