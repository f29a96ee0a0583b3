import pytest

from respkit import (
    build_model,
    coverage,
    derive_mitigations,
    generate_worksheet,
    ingest_all,
)
from respkit.dsl import parse_model
from respkit.model import GuideWord, Severity, UnknownResponsibility


def build(text: str):
    return build_model(parse_model(text))


@pytest.fixture(scope="module")
def assessed(evacuation, evacuation_answers):
    return ingest_all(evacuation, evacuation_answers)


class TestGenerateWorksheet:
    def test_grid_is_items_by_guide_words(self, assessed):
        worksheet = generate_worksheet(assessed, "Evacuate area")
        assert len(worksheet.rows) == 8 * 5

    def test_guide_word_order_within_each_item(self, assessed):
        worksheet = generate_worksheet(assessed, "Evacuate area")
        words = [row.guide_word for row in worksheet.rows]
        expected_cycle = list(GuideWord)
        for offset in range(0, len(words), 5):
            assert words[offset:offset + 5] == expected_cycle

    def test_row_count_matches_needs_brute_force(self, assessed):
        for resp in assessed.responsibilities:
            worksheet = generate_worksheet(assessed, resp.name)
            assert len(worksheet.rows) == len(resp.needs) * 5

    def test_no_needs_no_rows(self, assessed):
        assert generate_worksheet(assessed, "Search and rescue").rows == ()

    def test_prefilled_early_row(self, assessed):
        worksheet = generate_worksheet(assessed, "Evacuate area")
        (early,) = [row for row in worksheet.rows
                    if row.item == "priority-premises-list"
                    and row.guide_word is GuideWord.EARLY]
        assert early.consequence == "No consequence."
        assert early.severity is Severity.NONE

    def test_unassessed_rows_are_blank(self, assessed):
        worksheet = generate_worksheet(assessed, "Evacuate area")
        blank = [row for row in worksheet.rows if row.item == "area-map"]
        assert all(row.consequence == "" and row.severity is Severity.NONE
                   for row in blank)

    def test_unknown_responsibility(self, assessed):
        with pytest.raises(UnknownResponsibility):
            generate_worksheet(assessed, "X")


class TestDeriveMitigations:
    def test_corpus_stub_ids(self, assessed):
        stubs = derive_mitigations(assessed, "Evacuate area")
        assert [s.id for s in stubs] == [
            "MIT-evacuate-area-priority-premises-list-unavailable",
            "MIT-evacuate-area-priority-premises-list-inaccurate",
            "MIT-evacuate-area-priority-premises-list-incomplete",
            "MIT-evacuate-area-priority-premises-list-late",
        ]

    def test_stub_embeds_consequence_and_trace(self, assessed):
        stub = derive_mitigations(assessed, "Evacuate area")[0]
        assert "A manual premises check is required" in stub.text
        assert stub.traces[0].kind == "hazard"
        assert stub.traces[0].name == "Priority premises list"
        assert stub.traces[0].guide_word is GuideWord.UNAVAILABLE

    def test_low_severity_entries_skipped(self):
        model = build('responsibility "R" {\n'
                      '  requires |Facts| from <A>\n'
                      '  hazard |Facts| late "meh" severity low\n'
                      '  hazard |Facts| early "" severity none\n'
                      '}')
        assert derive_mitigations(model, "R") == []

    def test_threshold_is_configurable(self):
        model = build('responsibility "R" {\n'
                      '  requires |Facts| from <A>\n'
                      '  hazard |Facts| late "meh" severity low\n'
                      '}')
        stubs = derive_mitigations(model, "R", threshold=Severity.LOW)
        assert [s.id for s in stubs] == ["MIT-r-facts-late"]

    def test_linked_entry_excluded(self):
        model = build('responsibility "R" {\n'
                      '  requires |Facts| from <A>\n'
                      '  hazard |Facts| late "bad" severity high mitigated_by REQ-9\n'
                      '}')
        assert derive_mitigations(model, "R") == []

    def test_idempotent_once_linked(self, assessed):
        # Link every stub back into the model, then re-derive.
        from dataclasses import replace
        resp = assessed.responsibility_named("Evacuate area")
        stubs = {(s.traces[0].name, s.traces[0].guide_word): s.id
                 for s in derive_mitigations(assessed, "Evacuate area")}
        linked = tuple(
            replace(entry, mitigation=stubs.get(
                (assessed.resource_name(entry.item), entry.guide_word)))
            for entry in resp.hazards)
        model = replace(assessed, responsibilities=tuple(
            replace(r, hazards=linked) if r is resp else r
            for r in assessed.responsibilities))
        assert derive_mitigations(model, "Evacuate area") == []

    def test_unassessed_rows_never_stubbed(self, assessed):
        stubs = derive_mitigations(assessed, "Evacuate area")
        assert all("priority-premises-list" in s.id for s in stubs)


class TestCoverage:
    def test_fresh_worksheet_is_zero(self, evacuation):
        assert coverage(evacuation, "Evacuate area") == 0.0

    def test_corpus_after_ingest(self, assessed):
        assert coverage(assessed, "Evacuate area") == 0.125

    def test_no_rows_is_vacuously_complete(self, assessed):
        assert coverage(assessed, "Search and rescue") == 1.0
