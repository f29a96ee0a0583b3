import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dataclasses import replace

import respkit
from respkit import build_model, ingest_all, load_model, slugify, validate
from respkit import dsl
from respkit.analysis import detect_sequence_cycles
from respkit.build import ModelBuildError
from respkit.dsl import SourceSpan, parse_model
from respkit.model import (
    Agent,
    AgentKind,
    Channel,
    GuideWord,
    HazardEntry,
    InfoNeed,
    InfoProduct,
    InputError,
    Model,
    Resource,
    ResourceKind,
    Responsibility,
    SEVERITIES,
    Severity,
    cycles,
    escape_line_ends,
)

from strategies import names
from test_scaling import _model_text


def build(text: str):
    return build_model(parse_model(text))


class TestSlugify:
    def test_plain_name(self):
        assert slugify("Silver Command") == "silver-command"

    def test_collapses_runs(self):
        assert slugify("MRCC  Clyde") == "mrcc-clyde"

    def test_trims_edges(self):
        assert slugify("  Police! ") == "police"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            slugify("   ")

    def test_no_alnum_rejected(self):
        with pytest.raises(ValueError):
            slugify("!!!")

    @given(names)
    def test_idempotent(self, name):
        assert slugify(slugify(name)) == slugify(name)

    @given(st.text())
    def test_matches_character_loop(self, name):
        runs, buf = [], []
        for ch in name.strip().lower():
            if ch.isalnum():
                buf.append(ch)
            elif buf:
                runs.append("".join(buf))
                buf = []
        if buf:
            runs.append("".join(buf))
        if runs:
            assert slugify(name) == "-".join(runs)
        else:
            with pytest.raises(ValueError):
                slugify(name)


class TestSeverity:
    def test_total_order(self):
        assert (Severity.NONE < Severity.LOW < Severity.MEDIUM
                < Severity.HIGH < Severity.CRITICAL)

    def test_token_round_trip(self):
        for severity in Severity:
            assert SEVERITIES[severity.token] is severity

    def test_unknown_token(self):
        assert "fatal" not in SEVERITIES

    @pytest.mark.parametrize("token", ["HIGH", "High", "h\u0131gh"])
    def test_token_matches_exactly(self, token):
        # "h\u0131gh" (dotless i) upper-cases to "HIGH".
        assert token not in SEVERITIES


class TestGuideWords:
    def test_fixed_order(self):
        assert [g.value for g in GuideWord] == [
            "unavailable", "inaccurate", "incomplete", "late", "early"]


@pytest.mark.parametrize("enum", [AgentKind, ResourceKind, GuideWord])
def test_enum_members_hash_by_identity(enum):
    """The enums hash in C, by identity, which equality agrees with: each
    member equals only itself."""
    assert enum.__hash__ is object.__hash__
    for member in enum:
        assert hash(member) == object.__hash__(member)
        assert [other for other in enum if other == member] == [member]


class TestBuildModel:
    def test_empty_declarations(self):
        model = build_model([])
        assert model.name == ""
        assert model.agents == ()
        assert model.resources == ()
        assert model.channels == ()
        assert model.responsibilities == ()
        assert model.sequence_links == ()

    def test_evacuation_corpus(self, evacuation):
        assert len(evacuation.responsibilities) == 6
        unassigned = [r for r in evacuation.responsibilities if not r.assigned_to]
        assert [r.name for r in unassigned] == ["Collect evacuee information"]

    def test_conflicting_resource_kind(self):
        with pytest.raises(ModelBuildError, match="conflicting resource kind"):
            build('resource [Area map]\nresource |Area map|')

    def test_usage_conflicts_with_declared_kind(self):
        text = ('resource [Area map]\n'
                'responsibility "R" { requires |Area map| }')
        with pytest.raises(ModelBuildError, match="conflicting resource kind"):
            build(text)

    def test_duplicate_responsibility(self):
        with pytest.raises(ModelBuildError, match="duplicate responsibility"):
            build('responsibility "R" {}\nresponsibility "R" {}')

    def test_slug_collision_reported(self):
        with pytest.raises(ModelBuildError, match="collide on id"):
            build("agent <Silver Command>\nagent <silver command>")

    def test_unresolved_precedes(self):
        with pytest.raises(ModelBuildError, match="precedes target"):
            build('responsibility "R" { precedes "Ghost" }')

    def test_implicit_declaration_defaults(self):
        model = build('responsibility "R" {\n'
                      '  assigned to <Anyone>\n'
                      '  requires |Facts| via "Phone"\n'
                      '  uses [Truck]\n'
                      '}')
        agent = model.agent_named("Anyone")
        assert agent.implicit and agent.kind is AgentKind.ORGANIZATION
        assert model.resource_named("Facts").kind is ResourceKind.INFORMATION
        assert model.resource_named("Truck").kind is ResourceKind.PHYSICAL
        (channel,) = model.channels
        assert channel.name == "Phone"
        assert channel.implicit and channel.medium is None

    def test_explicit_declaration_wins_over_mention(self):
        model = build('responsibility "R" { assigned to <Desk> }\n'
                      'agent <Desk> kind system')
        agent = model.agent_named("Desk")
        assert not agent.implicit
        assert agent.kind is AgentKind.SYSTEM

    def test_duplicate_needs_merge(self):
        model = build('responsibility "R" {\n'
                      '  requires |Facts| from <A> via "C1"\n'
                      '  requires |Facts| from <B> via "C2" criticality low\n'
                      '}')
        (resp,) = model.responsibilities
        (need,) = resp.needs
        assert need.sources == ("a", "b")
        assert need.channels == ("c1", "c2")
        assert need.criticality is Severity.LOW

    def test_merge_is_idempotent(self):
        once = build('responsibility "R" { requires |Facts| from <A> }')
        twice = build('responsibility "R" {\n'
                      '  requires |Facts| from <A>\n'
                      '  requires |Facts| from <A>\n'
                      '}')
        assert once == twice

    def test_name_repeated_in_one_clause_counts_once(self):
        model = build('responsibility "R" {\n'
                      '  requires |A| from <X>, <X> via "c", "c"\n'
                      '  produces |B| via "d", "e", "d"\n'
                      '}')
        (resp,) = model.responsibilities
        assert resp.needs == (InfoNeed("a", ("x",), ("c",)),)
        assert resp.products[0].channels == ("d", "e")

    def test_duplicate_uses_and_precedes_collapse(self):
        model = build('responsibility "R" {\n'
                      '  uses [Truck]\n'
                      '  uses [Truck]\n'
                      '  precedes "S"\n'
                      '  precedes "S"\n'
                      '}\n'
                      'responsibility "S" {}')
        assert model.responsibility_named("R").uses == ("truck",)
        assert model.sequence_links == (("r", "s"),)

    def test_canonical_collection_order(self):
        model = build("agent <Zeta>\nagent <Alpha>\nagent <Mid>")
        assert [a.name for a in model.agents] == ["Alpha", "Mid", "Zeta"]

    def test_backup_chain_must_resolve(self):
        with pytest.raises(ModelBuildError, match="backup_of target"):
            build('channel "A" backup_of "Ghost"')

    def test_backup_self_rejected(self):
        with pytest.raises(ModelBuildError, match="back itself up"):
            build('channel "A" backup_of "A"')

    def test_backup_cycle_rejected(self):
        with pytest.raises(ModelBuildError, match="cyclic"):
            build('channel "A" backup_of "B"\nchannel "B" backup_of "A"')

    def test_backup_of_a_channel_only_mentioned_matches_its_id(self):
        model = build('channel "A" backup_of "b!"\n'
                      'responsibility "R" { requires |Map| via "B" }')
        assert [(c.id, c.backup_of) for c in model.channels] == [("a", "b"), ("b", None)]

    def test_load_model_reports_undecodable_file_like_the_cli(self, tmp_path):
        bad = tmp_path / "latin1.resp"
        bad.write_bytes(b'model "M"\n# r\xe9ponse\n')
        with pytest.raises(OSError, match=(
                f"^{bad}: line 2: not valid UTF-8 \\(invalid continuation byte\\)$")):
            load_model(bad)

    def test_hazard_item_must_be_required_or_produced(self):
        with pytest.raises(ModelBuildError, match="does not require"):
            build('responsibility "R" { hazard |Facts| late "slow" }')

    def test_conflicting_agent_kind(self):
        with pytest.raises(ModelBuildError, match="conflicting agent kind"):
            build("agent <A> kind person\nagent <A> kind system")


# Every build error text, with its position, and the order in which one
# file reports several: clause issues as met, then hazards on items the duty
# does not require, then sequencing, then channel backups.
BUILD_ERRORS = [
    ("agent <!!!>", [
        "t.resp:1:1: error: agent name '!!!' needs at least one alphanumeric character"]),
    ('responsibility "--" {}', [
        "t.resp:1:1: error: responsibility name '--' needs at least one alphanumeric "
        "character"]),
    ('responsibility "R" {\n  uses [?]\n}', [
        "t.resp:2:3: error: resource name '?' needs at least one alphanumeric character"]),
    ('channel "Radio"\nchannel "radio!"', [
        "t.resp:2:1: error: channels 'Radio' and 'radio!' collide on id 'radio'"]),
    ("resource |Map|\nresource [map]", [
        "t.resp:2:1: error: resources 'Map' and 'map' collide on id 'map'"]),
    ("resource |Map|\nresource [Map]", [
        "t.resp:2:1: error: conflicting resource kind: 'Map' is information and physical"]),
    ("agent <Ops> kind role\nagent <Ops> kind person", [
        "t.resp:2:1: error: conflicting agent kind for <Ops>: role vs person"]),
    ('channel "Radio" medium radio\nchannel "Radio" medium data', [
        "t.resp:2:1: error: conflicting re-declaration of channel 'Radio'"]),
    ('responsibility "R" {}\nresponsibility "R" {}', [
        "t.resp:2:1: error: duplicate responsibility 'R'"]),
    ('responsibility "R" {}\nresponsibility "r" {}', [
        "t.resp:2:1: error: responsibilities 'R' and 'r' collide on id 'r'"]),
    ('resource [Map]\nresponsibility "R" {\n  requires |Map|\n}', [
        "t.resp:3:3: error: conflicting resource kind: 'Map' is physical but is used "
        "as information"]),
    ('responsibility "R" {\n  assigned to <Ops>, <ops>\n}', [
        "t.resp:2:3: error: agents 'Ops' and 'ops' collide on id 'ops'"]),
    ('responsibility "R" {\n  hazard |Map| late "x"\n}', [
        't.resp:1:1: error: hazard on |Map| but "R" does not require it']),
    ('responsibility "R" {\n  precedes "S"\n}', [
        "t.resp:2:3: error: precedes target 'S' is not a declared responsibility"]),
    ('channel "A" backup_of "B"', [
        "t.resp:1:1: error: backup_of target 'B' is not a declared channel"]),
    ('channel "A" backup_of "A"', [
        "t.resp:1:1: error: channel 'A' cannot back itself up"]),
    ('channel "A" backup_of "B"\nchannel "B" backup_of "A"', [
        "t.resp:1:1: error: backup chain through channel 'A' is cyclic"]),
    ('channel "A" backup_of "Z"\n'
     'responsibility "R" {\n  hazard |Gap| early "x"\n  precedes "Nowhere"\n}\n'
     'responsibility "S" {\n  requires |Map| from <Ops>, <ops> via "--"\n'
     '  uses [map]\n}', [
        "t.resp:7:3: error: agents 'Ops' and 'ops' collide on id 'ops'",
        "t.resp:7:3: error: channel name '--' needs at least one alphanumeric character",
        "t.resp:8:3: error: resources 'Map' and 'map' collide on id 'map'",
        't.resp:2:1: error: hazard on |Gap| but "R" does not require it',
        "t.resp:4:3: error: precedes target 'Nowhere' is not a declared responsibility",
        "t.resp:1:1: error: backup_of target 'Z' is not a declared channel"]),
    # Each cycle once, in declaration order, at its first-declared channel;
    # a chain that only runs into a cycle is not a cycle of its own.
    ('channel "E" backup_of "C"\nchannel "A" backup_of "B"\n'
     'channel "B" backup_of "A"\nchannel "C" backup_of "D"\n'
     'channel "D" backup_of "C"', [
        "t.resp:2:1: error: backup chain through channel 'A' is cyclic",
        "t.resp:4:1: error: backup chain through channel 'C' is cyclic"]),
    ('responsibility "R" {\n  produces |Log|\n  hazard |Log| late "x"\n}', [
        't.resp:1:1: error: hazard on |Log| but "R" does not require it']),
    # Offset to line:column: the last line with no final newline, a tab, and
    # line-like characters in a string, which end no line.
    ('agent <A>\nresponsibility "R" { assigned to <a!> }', [
        "t.resp:2:22: error: agents 'A' and 'a!' collide on id 'a'"]),
    ('responsibility "R" {\n\tprecedes "S"\n}', [
        "t.resp:2:2: error: precedes target 'S' is not a declared responsibility"]),
    ('responsibility "R" {\n  note "a\rb" precedes "S"\n}', [
        "t.resp:2:14: error: precedes target 'S' is not a declared responsibility"]),
    ('responsibility "R" {\n  note "a\x0bb" precedes "S"\n}', [
        "t.resp:2:14: error: precedes target 'S' is not a declared responsibility"]),
    ('responsibility "R" {\n  note "a\u2028b" precedes "S"\n}', [
        "t.resp:2:14: error: precedes target 'S' is not a declared responsibility"]),
    # A name that resolved once resolves again without a second look, but a
    # mention with a problem is reported at every site that repeats it.
    ('agent <Ops>\nresponsibility "R" {\n  assigned to <ops>\n'
     '  requires |Map| from <ops>\n}\nresponsibility "S" {\n'
     '  assigned to <ops>, <Ops>\n}', [
        "t.resp:3:3: error: agents 'Ops' and 'ops' collide on id 'ops'",
        "t.resp:4:3: error: agents 'Ops' and 'ops' collide on id 'ops'",
        "t.resp:7:3: error: agents 'Ops' and 'ops' collide on id 'ops'"]),
    ('resource [Kit]\nresponsibility "R" {\n  requires |Kit|\n  produces |Kit|\n}\n'
     'responsibility "S" {\n  uses [Kit]\n  requires |Kit|\n}', [
        "t.resp:3:3: error: conflicting resource kind: 'Kit' is physical but is used "
        "as information",
        "t.resp:4:3: error: conflicting resource kind: 'Kit' is physical but is used "
        "as information",
        "t.resp:8:3: error: conflicting resource kind: 'Kit' is physical but is used "
        "as information"]),
    ('channel "Radio"\nresponsibility "R" {\n'
     '  requires |Map| via "radio!", "Radio", "radio!"\n}', [
        "t.resp:3:3: error: channels 'Radio' and 'radio!' collide on id 'radio'",
        "t.resp:3:3: error: channels 'Radio' and 'radio!' collide on id 'radio'"]),
    # A backup_of target is a channel mention like any other.
    ('channel "Radio"\nchannel "Phone" backup_of "radio!"', [
        "t.resp:2:1: error: channels 'Radio' and 'radio!' collide on id 'radio'"]),
    # A channel re-declared with or without a backup target conflicts, and a
    # collision is reported before any conflict of attributes.
    ('channel "A" backup_of "B"\nchannel "A"\nchannel "B"', [
        "t.resp:2:1: error: conflicting re-declaration of channel 'A'"]),
    ('channel "A"\nchannel "A" backup_of "B"\nchannel "B"', [
        "t.resp:2:1: error: conflicting re-declaration of channel 'A'"]),
    ("agent <Ops>\nagent <ops> kind role", [
        "t.resp:2:1: error: agents 'Ops' and 'ops' collide on id 'ops'"]),
    # A flow whose item does not resolve still has its sources and channels
    # checked, each problem once.
    ('responsibility "R" {\n  requires |!!!| from <###> via "$$"\n}', [
        "t.resp:2:3: error: resource name '!!!' needs at least one alphanumeric "
        "character",
        "t.resp:2:3: error: agent name '###' needs at least one alphanumeric character",
        "t.resp:2:3: error: channel name '$$' needs at least one alphanumeric "
        "character"]),
]


@pytest.mark.parametrize("text, rendered", BUILD_ERRORS)
def test_build_errors_render_exactly(text, rendered):
    with pytest.raises(ModelBuildError) as excinfo:
        build_model(parse_model(text, "t.resp"))
    assert str(excinfo.value) == "\n".join(rendered)


def test_agent_redeclared_without_a_kind_keeps_its_kind():
    model = load_model("agent <Ops> kind role\nagent <Ops>", "t.resp")
    assert model.agents == (Agent("ops", "Ops", AgentKind.ROLE),)


@pytest.mark.parametrize("source", ["corpus", "generated"])
def test_clean_build_resolves_no_span(source, resp_path, monkeypatch):
    """A model that parses and builds cleanly makes no ``SourceSpan`` and
    no line-start table; a span read afterwards still resolves."""
    if source == "corpus":
        text = resp_path.read_text(encoding="utf-8")
    else:
        text = _model_text(random.Random(1000), 1000)
    made = []
    monkeypatch.setattr(dsl, "SourceSpan",
                        lambda *fields: made.append(fields) or SourceSpan(*fields))
    declarations = parse_model(text, "m.resp")
    build_model(declarations)
    assert made == []
    assert "line_starts" not in vars(declarations[0].source)
    last = declarations[-1]
    assert last.span == ("m.resp", text[:last.offset].count("\n") + 1,
                         last.offset - text.rfind("\n", 0, last.offset))
    assert len(made) == 1


def _use_every_map(model: Model) -> None:
    for agent in model.agents:
        model.agent_name(agent.id), model.agent_named(agent.name)
    for resource in model.resources:
        model.resource_name(resource.id), model.resource_named(resource.name)
    for channel in model.channels:
        model.channel_name(channel.id)
    for resp in model.responsibilities:
        model.responsibility_by_id(resp.id), model.responsibility_named(resp.name)
    model.required_items, model.channels_with_backup


class TestLookupMaps:
    def test_every_helper_finds_every_element(self, evacuation):
        for agent in evacuation.agents:
            assert evacuation.agent_named(agent.name) is agent
            assert evacuation.agent_name(agent.id) == agent.name
        for resource in evacuation.resources:
            assert evacuation.resource_named(resource.name) is resource
            assert evacuation.resource_name(resource.id) == resource.name
        for channel in evacuation.channels:
            assert evacuation.channel_name(channel.id) == channel.name
        for resp in evacuation.responsibilities:
            assert evacuation.responsibility_by_id(resp.id) is resp
            assert evacuation.responsibility_named(f" {resp.name} ") is resp

    def test_misses_fall_back_as_before(self, evacuation):
        assert evacuation.agent_named("Ghost") is None
        assert evacuation.responsibility_by_id("ghost") is None
        assert evacuation.responsibility_named("Ghost") is None
        assert evacuation.agent_name("ghost") == "ghost"
        assert evacuation.resource_name("ghost") == "ghost"
        assert evacuation.channel_name("ghost") == "ghost"

    def test_replaced_model_sees_new_elements(self, resp_path):
        model = load_model(resp_path)
        _use_every_map(model)
        coastguard = Agent("coastguard", "Coastguard")
        flares = Resource("flares", "Flares", ResourceKind.PHYSICAL)
        pager = Channel("pager", "Pager", backup_of="radio-from-silver-command")
        grown = replace(model, agents=model.agents + (coastguard,),
                        resources=model.resources + (flares,),
                        channels=model.channels + (pager,))
        assert grown.agent_named("Coastguard") is coastguard
        assert grown.resource_name("flares") == "Flares"
        assert grown.channel_name("pager") == "Pager"
        assert "radio-from-silver-command" in grown.channels_with_backup
        assert model.agent_named("Coastguard") is None
        assert "radio-from-silver-command" not in model.channels_with_backup

    def test_maps_leave_equality_and_hash_alone(self, resp_path):
        used, fresh = load_model(resp_path), load_model(resp_path)
        hash_before, repr_before = hash(used), repr(used)
        _use_every_map(used)
        assert used == fresh
        assert hash(used) == hash_before == hash(fresh)
        assert repr(used) == repr_before

    def test_pickle_leaves_the_maps_behind(self, resp_path):
        model = load_model(resp_path)
        before = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
        _use_every_map(model)
        after = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
        assert len(after) == len(before)
        copy = pickle.loads(after)
        assert copy == model
        for agent in model.agents:
            assert copy.agent_named(agent.name) == agent
            assert copy.agent_name(agent.id) == agent.name
        assert copy.required_items == model.required_items

    def test_first_element_wins_on_duplicates(self):
        first = Agent("ops", "Ops", AgentKind.PERSON)
        second = Agent("ops", "Ops", AgentKind.SYSTEM)
        early = Responsibility("a", "Duty")
        late = Responsibility("b", "Duty")
        model = Model(agents=(first, second), responsibilities=(early, late),
                      channels=(Channel("c", "C1"), Channel("c", "C2")))
        assert model.agent_named("Ops") is first
        assert model.channel_name("c") == "C1"
        assert model.responsibility_named("Duty") is early
        assert model.responsibility_by_id("b") is late


class TestValidate:
    def test_clean_model_is_silent(self):
        model = build('agent <A>\n'
                      'resource |Facts|\n'
                      'channel "Phone"\n'
                      'responsibility "R" {\n'
                      '  assigned to <A>\n'
                      '  requires |Facts| from <A> via "Phone"\n'
                      '}')
        assert validate(model) == []
        assert validate(model, strict=True) == []

    def test_corpus_lenient_reports_the_omission(self, evacuation):
        diagnostics = validate(evacuation)
        unassigned = [d for d in diagnostics if d.code == "UNASSIGNED_RESP"]
        assert len(unassigned) == 1
        assert unassigned[0].subject == "collect-evacuee-information"

    def test_corpus_strict_counts_implicit_agents(self, evacuation, resp_path):
        # Independent oracle: scan the corpus text for agent declarations
        # versus angle-bracket mentions.
        import re
        text = resp_path.read_text(encoding="utf-8")
        declared = set(re.findall(r"^agent <([^>]+)>", text, flags=re.M))
        mentioned = set(re.findall(r"<([^>]+)>", text))
        expected_implicit = mentioned - declared

        diagnostics = validate(evacuation, strict=True)
        implicit = [d for d in diagnostics if d.code == "IMPLICIT_DECL"]
        assert len(implicit) == len(expected_implicit)
        assert {d.subject for d in implicit} == {slugify(n) for n in expected_implicit}

    def test_strict_reports_empty_channel_sets(self):
        model = build('responsibility "R" {\n'
                      '  assigned to <A>\n'
                      '  requires |Facts| from <A>\n'
                      '}')
        strict = validate(model, strict=True)
        assert any(d.code == "NO_CHANNEL" for d in strict)
        assert all(d.code != "NO_CHANNEL" for d in validate(model))

    def test_unsourced_need_reported(self):
        model = build('responsibility "R" { assigned to <A>\n requires |Facts| }')
        assert any(d.code == "UNSOURCED_INFO" for d in validate(model))

    def test_produced_elsewhere_not_unsourced(self):
        model = build('responsibility "R" { assigned to <A>\n requires |Facts| }\n'
                      'responsibility "S" { assigned to <A>\n produces |Facts| }')
        assert all(d.code != "UNSOURCED_INFO" for d in validate(model))

    def test_validate_is_pure(self, evacuation):
        first = [d.render() for d in validate(evacuation, strict=True)]
        second = [d.render() for d in validate(evacuation, strict=True)]
        assert first == second


# One model that meets every ``check`` code: implicit agents, resources and a
# channel (agent "Radio" and channel "Radio" share a slug), and a duty that
# requires and produces |Log| with no channel (one subject, two lines).
PINNED_MODEL = ('agent <Police>\n'
                'responsibility "Evacuate" {\n'
                '  requires |Map| from <Radio> via "Radio"\n'
                '  requires |Log| from <Council>\n'
                '  produces |Log|\n'
                '}\n'
                'responsibility "Report" {\n'
                '  assigned to <Police>\n'
                '  requires |Status|\n'
                '}')

UNASSIGNED_LINE = ('UNASSIGNED_RESP high evacuate: '
                   'responsibility "Evacuate" has no assigned agent')
UNSOURCED_LINE = ('UNSOURCED_INFO medium report/status: '
                  '|Status| required by "Report" has no source and no producer')


def test_validation_messages_exactly():
    from respkit.analysis import find_unsourced_info

    model = build(PINNED_MODEL)
    assert [d.render() for d in validate(model)] == [UNASSIGNED_LINE, UNSOURCED_LINE]
    assert [d.render() for d in validate(model, strict=True)] == [
        'IMPLICIT_DECL low council: agent "Council" was never declared explicitly',
        'IMPLICIT_DECL low log: resource "Log" was never declared explicitly',
        'IMPLICIT_DECL low map: resource "Map" was never declared explicitly',
        'IMPLICIT_DECL low radio: agent "Radio" was never declared explicitly',
        'IMPLICIT_DECL low radio: channel "Radio" was never declared explicitly',
        'IMPLICIT_DECL low status: resource "Status" was never declared explicitly',
        'NO_CHANNEL low evacuate/log: no communication channel recorded for '
        '|Log| required by "Evacuate"',
        'NO_CHANNEL low evacuate/log: no communication channel recorded for '
        '|Log| produced by "Evacuate"',
        'NO_CHANNEL low report/status: no communication channel recorded for '
        '|Status| required by "Report"',
        UNASSIGNED_LINE,
        UNSOURCED_LINE,
    ]
    # ``analyze`` words the same finding with the scope spelled out.
    assert [f.render() for f in find_unsourced_info(model)] == [
        UNSOURCED_LINE + " in the model"]


# Each case is one duty's flow clauses, in order, and the one need, product
# or hazard they merge into.  A need on |X| comes first where a hazard
# needs it.
_X = 'requires |X|'
MERGE_RULES = [
    pytest.param(['requires |X| from <A>, <B> via "C1"',
                  'requires |X| from <B>, <Z> via "C2", "C1"'],
                 InfoNeed("x", ("a", "b", "z"), ("c1", "c2")), id="need-union"),
    pytest.param(["requires |X| criticality low", "requires |X| criticality high"],
                 InfoNeed("x", criticality=Severity.HIGH), id="need-low-then-high"),
    pytest.param(["requires |X| criticality high", "requires |X| criticality low"],
                 InfoNeed("x", criticality=Severity.HIGH), id="need-high-then-low"),
    pytest.param(["requires |X|", "requires |X| criticality medium", "requires |X|"],
                 InfoNeed("x", criticality=Severity.MEDIUM), id="need-none-then-medium"),
    pytest.param(['produces |K| via "C1"', 'produces |K| via "C2", "C1"'],
                 InfoProduct("k", ("c1", "c2")), id="product-union"),
    pytest.param(['produces |K| rationale ""', 'produces |K| rationale "why"'],
                 InfoProduct("k", rationale="why"), id="rationale-empty-then-why"),
    pytest.param(['produces |K| rationale "why"', 'produces |K| rationale ""'],
                 InfoProduct("k", rationale="why"), id="rationale-why-then-empty"),
    pytest.param(['produces |K|', 'produces |K| rationale ""'],
                 InfoProduct("k", rationale=""), id="rationale-none-then-empty"),
    pytest.param([_X, 'hazard |X| late "" severity low',
                  'hazard |X| late "First." severity high',
                  'hazard |X| late "Second." severity medium'],
                 HazardEntry("x", GuideWord.LATE, "First.", Severity.HIGH),
                 id="hazard-consequence-and-severity"),
    pytest.param([_X, 'hazard |X| late "A." mitigated_by REQ-1',
                  'hazard |X| late "B." mitigated_by REQ-2'],
                 HazardEntry("x", GuideWord.LATE, "A.", mitigation="REQ-1"),
                 id="hazard-first-mitigation"),
    pytest.param([_X, 'hazard |X| late "A."', 'hazard |X| late "B." mitigated_by REQ-2'],
                 HazardEntry("x", GuideWord.LATE, "A.", mitigation="REQ-2"),
                 id="hazard-none-then-mitigation"),
]


class TestMergeRules:
    """The values one duty holds for one item merge alike whether they come
    from repeated clauses in one block or from one answer session each."""

    @pytest.mark.parametrize("clauses, merged", MERGE_RULES)
    def test_build_and_ingest_merge_alike(self, clauses, merged):
        decls = parse_model('responsibility "R" {\n  ' + "\n  ".join(clauses) + "\n}")
        (block,) = decls
        built = build_model(decls)
        ingested = ingest_all(build_model([block._replace(items=())]),
                              [_session(clause) for clause in block.items])
        (resp,) = built.responsibilities
        assert ingested.responsibilities == built.responsibilities
        field = {InfoNeed: resp.needs, InfoProduct: resp.products,
                 HazardEntry: resp.hazards}[type(merged)]
        assert field == (merged,)


def _session(clause):
    """The answer session for duty "R" that holds ``clause`` alone."""
    flows = [(clause,) if type(clause) is kind else ()
             for kind in (dsl.RequireClause, dsl.ProduceClause, dsl.HazardClause)]
    return dsl.ElicitationRecord("R", None, None, *flows, clause.offset, clause.source)


# Each character that escape_line_ends escapes, the backslash first.  It
# returns a printable text with no backslash as it is; that must be every
# text in which one replace per character changes nothing.
_LINE_ENDS = "\\\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@given(st.text(alphabet=st.sampled_from(_LINE_ENDS + "\n\t\x00 rux2\u00e9")) | st.text())
def test_escape_line_ends_equals_one_replace_per_character(text):
    expected = text
    for char in _LINE_ENDS:
        expected = expected.replace(char, repr(char)[1:-1])
    assert escape_line_ends(text) == expected


def _defined(keep) -> set[str]:
    """``module.Name`` of each class a respkit module defines that ``keep``
    accepts."""
    defined = set()
    for info in pkgutil.iter_modules(respkit.__path__):
        module = importlib.import_module(f"respkit.{info.name}")
        defined |= {f"{info.name}.{name}" for name, value in vars(module).items()
                    if isinstance(value, type) and value.__module__ == module.__name__
                    and keep(value)}
    return defined


def test_only_the_domain_model_is_a_dataclass():
    """Defining a dataclass costs about five times a named tuple at import.
    The domain model stays frozen dataclasses; so do the requirement
    records, whose fields may need leaving out of equality, and
    ``dsl.Source``, which caches its line table in its ``__dict__``.
    Report values are named tuples."""
    assert _defined(dataclasses.is_dataclass) == {
        "model.Agent", "model.Resource", "model.Channel", "model.InfoNeed",
        "model.InfoProduct", "model.HazardEntry", "model.Responsibility",
        "model.Model", "model.TraceRef", "model.RequirementRecord", "dsl.Source"}


def test_every_error_is_an_input_error():
    """Every problem with an input renders one way: each exception class a
    respkit module defines is an ``InputError``, but for the parser's
    private control flow, which never leaves the parser."""
    assert _defined(lambda cls: issubclass(cls, BaseException)
                    and not issubclass(cls, InputError)) == {"dsl._SyntaxError"}


def _mutual_reachability(graph):
    """The cyclic components of ``graph`` by brute force: the nodes that
    reach a node and that it reaches back, for each node on a cycle."""
    reach = {}
    for node in graph:
        seen, todo = set(), list(graph[node])
        while todo:
            succ = todo.pop()
            if succ not in seen:
                seen.add(succ)
                todo.extend(graph[succ])
        reach[node] = seen
    return {frozenset(m for m in graph if m in reach[n] and n in reach[m])
            for n in graph if n in reach[n]}


@st.composite
def _graphs(draw):
    nodes = [str(i) for i in range(draw(st.integers(0, 8)))]
    if not nodes:
        return {}
    return {n: draw(st.lists(st.sampled_from(nodes), max_size=4, unique=True))
            for n in nodes}


@given(_graphs())
def test_cycles_are_the_mutually_reachable_sets(graph):
    found = cycles(graph)
    assert {frozenset(c) for c in found} == _mutual_reachability(graph)
    assert sum(map(len, found)) == len(set().union(*found))


class TestDeepChains:
    """20 000 links: the cycle finder keeps its own stack."""

    LINKS = 20_000

    def _duties(self, closed):
        duties = tuple(Responsibility(f"r{i}", f"R{i}") for i in range(self.LINKS + 1))
        links = [(f"r{i}", f"r{i + 1}") for i in range(self.LINKS)]
        return Model(responsibilities=duties,
                     sequence_links=tuple(links + [(f"r{self.LINKS}", "r0")] * closed))

    def test_open_precedes_chain_has_no_cycle(self):
        assert detect_sequence_cycles(self._duties(closed=False)) == []

    def test_closed_precedes_chain_is_one_cycle(self):
        (finding,) = detect_sequence_cycles(self._duties(closed=True))
        assert len(finding.subjects) == self.LINKS + 1

    def test_closed_backup_chain_is_one_error(self):
        text = "\n".join(f'channel "C{i}" backup_of "C{(i + 1) % self.LINKS}"'
                         for i in range(self.LINKS))
        with pytest.raises(ModelBuildError) as excinfo:
            build_model(parse_model(text, "t.resp"))
        assert str(excinfo.value) == (
            "t.resp:1:1: error: backup chain through channel 'C0' is cyclic")
