import pickle
import re

import pytest
from hypothesis import given, settings

from respkit import build_model, diff_models, print_model, run_all, validate
from respkit.analysis import (
    FINDING_CATALOG,
    Finding,
    InconsistencyKind,
    PerceptionInconsistency,
    agent_load,
    detect_sequence_cycles,
    find_duplicate_sources,
    find_single_channel,
    find_unassigned,
    find_unsourced_info,
    find_unused_resources,
    perceive,
)
from respkit.dsl import parse_model
from respkit.model import Channel, InfoNeed, Model, Responsibility, Severity

from strategies import model_pairs, models


def build(text: str):
    return build_model(parse_model(text))


class TestFindUnassigned:
    def test_corpus_names_the_omission(self, evacuation):
        findings = find_unassigned(evacuation)
        assert [f.subject for f in findings] == ["collect-evacuee-information"]
        assert findings[0].severity is Severity.HIGH

    def test_fully_assigned_model(self):
        model = build('responsibility "R" { assigned to <A> }')
        assert find_unassigned(model) == []

    def test_two_of_three_lexicographic(self):
        # Oracle: enumerate the three responsibilities by hand; B and C lack
        # agents and sort lexicographically by name.
        model = build('responsibility "Charlie" {}\n'
                      'responsibility "Alpha" { assigned to <A> }\n'
                      'responsibility "Bravo" {}')
        findings = find_unassigned(model)
        assert [f.subject for f in findings] == ["bravo", "charlie"]

    def test_empty_iff_every_responsibility_assigned(self, evacuation):
        # Brute force over all responsibilities.
        expected = [r.id for r in evacuation.responsibilities if not r.assigned_to]
        assert [f.subject for f in find_unassigned(evacuation)] == sorted(expected)


class TestFindUnsourcedInfo:
    def test_sourced_need_not_flagged(self):
        model = build('responsibility "R" {\n'
                      '  requires |Threat information| from <Environment agency>\n'
                      '}')
        assert find_unsourced_info(model) == []

    def test_orphan_need_flagged(self):
        model = build('responsibility "R" { requires |Facts| }')
        (finding,) = find_unsourced_info(model)
        assert finding.subject == "r/facts"

    def test_produced_elsewhere_not_flagged(self):
        model = build('responsibility "R" { requires |Facts| }\n'
                      'responsibility "S" { produces |Facts| }')
        assert find_unsourced_info(model) == []


class TestFindSingleChannel:
    def test_two_channels_not_flagged(self):
        model = build(
            'responsibility "R" {\n'
            '  produces |Log| via "Radio report", "Email or fax if available"\n'
            '}')
        assert find_single_channel(model) == []

    def test_channel_named_twice_is_one_channel(self):
        model = build('responsibility "R" { requires |A| from <X> via "c", "c" }')
        (finding,) = find_single_channel(model)
        assert finding.subjects == ("r/a",)

    def test_corpus_area_map_flagged(self, evacuation):
        findings = find_single_channel(evacuation)
        assert "evacuate-area/area-map" in [f.subject for f in findings]

    def test_backup_pair_counts_as_two(self):
        model = build('channel "Email"\n'
                      'channel "Radio" backup_of "Email"\n'
                      'responsibility "R" { requires |Facts| via "Email" }')
        assert find_single_channel(model) == []

    def test_backup_counts_from_either_side(self):
        model = build('channel "Email"\n'
                      'channel "Radio" backup_of "Email"\n'
                      'responsibility "R" { requires |Facts| via "Radio" }')
        assert find_single_channel(model) == []

    def test_unrelated_channel_is_no_backup(self):
        model = build('channel "Email"\n'
                      'channel "Radio"\n'
                      'responsibility "R" { requires |Facts| via "Email" }')
        (finding,) = find_single_channel(model)
        assert finding.severity is Severity.MEDIUM

    def test_backup_of_an_undeclared_channel_is_no_partner(self):
        # Only hand-built models can point backup_of at a missing channel;
        # the builder rejects it.
        need = InfoNeed("facts", channels=("radio",))
        model = Model(
            channels=(Channel("radio", "Radio", backup_of="ghost"),
                      Channel("email", "Email", backup_of="ghost")),
            responsibilities=(Responsibility("r", "R", needs=(need,)),))
        (finding,) = find_single_channel(model)
        assert finding.subject == "r/facts"
        assert "ghost" in model.channels_with_backup

    def test_zero_channels_not_flagged_here(self):
        model = build('responsibility "R" { requires |Facts| from <A> }')
        assert find_single_channel(model) == []


class TestFindDuplicateSources:
    def test_identical_sources_not_flagged(self):
        model = build(
            'responsibility "R" { requires |Area map| from <County council> }\n'
            'responsibility "S" { requires |Area map| from <County council> }')
        assert find_duplicate_sources(model) == []

    def test_differing_sources_flagged(self):
        model = build(
            'responsibility "R" { requires |Area map| from <County council> }\n'
            'responsibility "S" { requires |Area map| from <District Council> }')
        (finding,) = find_duplicate_sources(model)
        assert finding.subject == "area-map"

    def test_two_producers_flagged(self):
        model = build('responsibility "R" { produces |Log| }\n'
                      'responsibility "S" { produces |Log| }')
        (finding,) = find_duplicate_sources(model)
        assert finding.subject == "log"
        assert finding.severity is Severity.LOW


class TestFindUnusedResources:
    def test_referenced_resources_not_flagged(self, evacuation):
        assert find_unused_resources(evacuation) == []

    def test_dangling_declaration_flagged(self):
        model = build('resource [Spare truck]\nresponsibility "R" {}')
        (finding,) = find_unused_resources(model)
        assert finding.subject == "spare-truck"


class TestAgentLoad:
    def test_empty_model(self):
        assert agent_load(build(""), 1) == []

    def test_corpus_under_threshold(self, evacuation, resp_path):
        # Oracle: count "assigned to" mentions per agent in the corpus text.
        text = resp_path.read_text(encoding="utf-8")
        counts: dict[str, int] = {}
        for line in text.splitlines():
            match = re.match(r"\s*assigned to (.+)", line)
            if match:
                for agent in re.findall(r"<([^>]+)>", match.group(1)):
                    counts[agent] = counts.get(agent, 0) + 1
        assert max(counts.values()) <= 3
        assert agent_load(evacuation, 3) == []

    def test_overloaded_agent_reports_count(self):
        model = build("\n".join(
            f'responsibility "R{i}" {{ assigned to <Ops> }}' for i in range(4)))
        (finding,) = agent_load(model, 3)
        assert finding.subject == "ops"
        assert "4" in finding.explanation and "3" in finding.explanation

    def test_threshold_must_be_positive(self, evacuation):
        with pytest.raises(ValueError):
            agent_load(evacuation, 0)


class TestSequenceCycles:
    def test_corpus_single_link_clean(self, evacuation):
        assert evacuation.sequence_links == (
            ("initiate-evacuation", "evacuate-area"),)
        assert detect_sequence_cycles(evacuation) == []

    def test_two_cycle(self):
        model = build('responsibility "A" { precedes "B" }\n'
                      'responsibility "B" { precedes "A" }')
        (finding,) = detect_sequence_cycles(model)
        assert finding.subjects == ("a", "b")

    def test_self_loop(self):
        model = build('responsibility "A" { precedes "A" }')
        (finding,) = detect_sequence_cycles(model)
        assert finding.subjects == ("a",)

    def test_chain_of_five_clean(self):
        text = "\n".join(
            f'responsibility "R{i}" {{ precedes "R{i + 1}" }}' for i in range(4))
        text += '\nresponsibility "R4" {}'
        assert detect_sequence_cycles(build(text)) == []

    def test_cycle_with_tail(self):
        model = build('responsibility "A" { precedes "B" }\n'
                      'responsibility "B" { precedes "C" }\n'
                      'responsibility "C" { precedes "B" }')
        (finding,) = detect_sequence_cycles(model)
        assert finding.subjects == ("b", "c")

    def test_cycle_through_a_link_endpoint_that_is_not_a_duty(self):
        model = Model(responsibilities=(Responsibility("a", "A"),),
                      sequence_links=(("a", "x"), ("x", "a")))
        assert detect_sequence_cycles(model) == [Finding(
            "SEQUENCE_CYCLE", Severity.HIGH, ("a", "x"),
            'responsibilities "A", "x" precede one another in a cycle')]


class TestRunAll:
    def test_catalog_severities_applied(self, evacuation):
        for finding in run_all(evacuation):
            assert finding.severity is FINDING_CATALOG[finding.code]

    def test_canonical_ordering(self, evacuation):
        findings = run_all(evacuation)
        assert findings == sorted(findings, key=lambda f: (f.code, f.subjects))

    def test_analyses_do_not_mutate(self, evacuation):
        before = print_model(evacuation)
        run_all(evacuation)
        diff_models(evacuation, evacuation)
        assert print_model(evacuation) == before


class TestCatalog:
    def test_one_catalog_of_nine_codes(self):
        assert sorted(FINDING_CATALOG) == [
            "AGENT_OVERLOAD", "DUPLICATE_SOURCE", "IMPLICIT_DECL", "NO_CHANNEL",
            "SEQUENCE_CYCLE", "SINGLE_CHANNEL", "UNASSIGNED_RESP",
            "UNSOURCED_INFO", "UNUSED_RESOURCE"]

    @settings(max_examples=40, deadline=None)
    @given(models())
    def test_check_and_analyze_share_the_catalog(self, model):
        for finding in validate(model, strict=True) + run_all(model):
            assert type(finding) is Finding
            assert finding.severity is FINDING_CATALOG[finding.code]


MISSING = InconsistencyKind.MISSING_RESPONSIBILITY
ASSIGNMENT = InconsistencyKind.ASSIGNMENT_MISMATCH
SOURCE = InconsistencyKind.SOURCE_MISMATCH
CHANNEL = InconsistencyKind.CHANNEL_MISMATCH


class TestDiffModels:
    def test_identity(self, evacuation):
        assert diff_models(evacuation, evacuation) == []

    def test_reassignment_is_one_mismatch(self, evacuation, resp_path):
        text = resp_path.read_text(encoding="utf-8")
        assert text.count("assigned to <Police>") == 1
        mutated = build(text.replace("assigned to <Police>",
                                     "assigned to <Fire Service>"))
        result = diff_models(evacuation, mutated)
        assert len(result) == 1
        item = result[0]
        assert item.kind is InconsistencyKind.ASSIGNMENT_MISMATCH
        assert item.responsibility == "Evacuate area"
        assert item.left == "<Police>"
        assert item.right == "<Fire Service>"

    def test_missing_responsibility(self):
        left = build('responsibility "Only here" {}')
        right = build("")
        (item,) = diff_models(left, right)
        assert item.kind is InconsistencyKind.MISSING_RESPONSIBILITY
        assert (item.left, item.right) == ("present", "absent")
        (swapped,) = diff_models(right, left)
        assert (swapped.left, swapped.right) == ("absent", "present")

    def test_source_mismatch(self):
        left = build('responsibility "R" { requires |Map| from <A> }')
        right = build('responsibility "R" { requires |Map| from <B> }')
        (item,) = diff_models(left, right)
        assert item.kind is InconsistencyKind.SOURCE_MISMATCH

    def test_channel_mismatch(self):
        left = build('responsibility "R" { requires |Map| from <A> via "C1" }')
        right = build('responsibility "R" { requires |Map| from <A> via "C2" }')
        (item,) = diff_models(left, right)
        assert item.kind is InconsistencyKind.CHANNEL_MISMATCH

    @pytest.mark.parametrize("left, right, expected", [
        ('responsibility "Only left" {}', "",
         [(MISSING, "Only left", "present", "absent")]),
        ('responsibility "R" { assigned to <B>, <A> }', 'responsibility "R" {}',
         [(ASSIGNMENT, "R", "<A>, <B>", "unassigned")]),
        ('responsibility "R" { requires |Map| from <B>, <A> }', 'responsibility "R" {}',
         [(SOURCE, "R", "|Map| required from <A>, <B>", "|Map| not required")]),
        ('responsibility "R" {}', 'responsibility "R" { requires |Map| }',
         [(SOURCE, "R", "|Map| not required",
           "|Map| required from no recorded source")]),
        ('responsibility "R" { requires |Map| from <A> }',
         'responsibility "R" { requires |Map| }',
         [(SOURCE, "R", "|Map| from <A>", "|Map| from no recorded source")]),
        ('responsibility "R" { requires |Map| via "C2", "C1" }',
         'responsibility "R" { requires |Map| }',
         [(CHANNEL, "R", '|Map| required via "C1", "C2"', "|Map| required via no channel")]),
        ('responsibility "R" { produces |Log| via "Radio" }', 'responsibility "R" {}',
         [(CHANNEL, "R", '|Log| produced via "Radio"', "|Log| not produced")]),
        ('responsibility "R" {}', 'responsibility "R" { produces |Log| }',
         [(CHANNEL, "R", "|Log| not produced", "|Log| produced via no channel")]),
        ('responsibility "R" { produces |Log| via "Radio" }',
         'responsibility "R" { produces |Log| via "Phone" }',
         [(CHANNEL, "R", '|Log| produced via "Radio"', '|Log| produced via "Phone"')]),
        # One item needed on one side and produced on the other; a need
        # differing in both sources and channels; kinds sort by name.
        ('responsibility "R" { requires |Map| requires |Log| from <A> via "C" }',
         'responsibility "R" { produces |Map| requires |Log| from <B> }',
         [(CHANNEL, "R", '|Log| required via "C"', "|Log| required via no channel"),
          (CHANNEL, "R", "|Map| not produced", "|Map| produced via no channel"),
          (SOURCE, "R", "|Log| from <A>", "|Log| from <B>"),
          (SOURCE, "R", "|Map| required from no recorded source", "|Map| not required")]),
    ], ids=["missing", "unassigned", "need-with-sources", "need-without-source",
            "sources", "need-channels", "product", "product-without-channel",
            "product-channels", "mixed"])
    def test_inconsistency_texts(self, left, right, expected):
        expected = [PerceptionInconsistency(*row) for row in expected]
        assert diff_models(build(left), build(right)) == expected
        assert diff_models(build(right), build(left)) == [i.swapped() for i in expected]

    def test_assignment_order_is_irrelevant(self):
        left = build('responsibility "R" { assigned to <A>, <B> }')
        right = build('responsibility "R" { assigned to <B>, <A> }')
        assert diff_models(left, right) == []

    @settings(max_examples=50, deadline=None)
    @given(model_pairs())
    def test_symmetry(self, pair):
        """diff b a is diff a b swapped; and the perceptions that ``diff``
        hands between processes, also through pickle, compare as their
        models do."""
        left, right = pair
        forward = diff_models(left, right)
        assert diff_models(right, left) == [f.swapped() for f in forward]
        perceptions = perceive(left), perceive(right)
        assert diff_models(*perceptions) == forward
        assert diff_models(*(pickle.loads(pickle.dumps(p, pickle.HIGHEST_PROTOCOL))
                             for p in perceptions)) == forward

    @settings(max_examples=25, deadline=None)
    @given(models())
    def test_self_diff_is_empty(self, model):
        assert diff_models(model, model) == []

    def test_a_perception_holds_names_only(self):
        model = build('agent <Ops> kind role\nchannel "Radio"\n'
                      'responsibility "R" { assigned to <Ops>\n'
                      '  requires |Map| from <Ops> via "Radio"\n  produces |Log| }')
        assert perceive(model) == {"R": (frozenset({"Ops"}), {
            ("required", "Map"): (frozenset({"Ops"}), frozenset({"Radio"})),
            ("produced", "Log"): (None, frozenset())})}
