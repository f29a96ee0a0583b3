"""Information-hazard worksheets over the five guide words.

A worksheet enumerates every (required information item, guide word) pair
for one responsibility, in canonical order: items by display name, guide
words in their fixed order (unavailable, inaccurate, incomplete, late,
early).  Guide words are applied to required information only; hazards on
products are modelled from the consuming responsibility's side.
"""

from typing import NamedTuple

from .elicitation import _require
from .model import (
    GUIDE_WORDS,
    GuideWord,
    HazardEntry,
    Model,
    RequirementRecord,
    Severity,
    TraceRef,
)

#: Assessed hazards at or above this severity get a mitigation stub.
DEFAULT_MITIGATION_THRESHOLD = Severity.MEDIUM


class Worksheet(NamedTuple):
    rows: tuple[HazardEntry, ...]

    @property
    def assessed_rows(self) -> tuple[HazardEntry, ...]:
        return tuple(row for row in self.rows if row.assessed)


def generate_worksheet(model: Model, responsibility: str) -> Worksheet:
    """Materialize the full deviation grid, pre-filled from the model.

    Rows never recorded in the model appear with an empty consequence and
    severity none; the row count is always (number of needs) x 5.
    """
    resp = _require(model, responsibility)
    recorded: dict[tuple[str, GuideWord], HazardEntry] = {}
    for entry in resp.hazards:
        recorded.setdefault((entry.item, entry.guide_word), entry)
    items = sorted((need.resource for need in resp.needs),
                   key=model.resource_name)
    rows = []
    for item in items:
        for guide_word in GUIDE_WORDS:
            existing = recorded.get((item, guide_word))
            rows.append(existing if existing is not None
                        else HazardEntry(item, guide_word))
    return Worksheet(rows=tuple(rows))


def derive_mitigations(
    model: Model,
    responsibility: str,
    threshold: Severity = DEFAULT_MITIGATION_THRESHOLD,
) -> list[RequirementRecord]:
    """Stub one coping requirement per serious, unmitigated hazard.

    Serious means assessed with severity at or above the threshold.  Rows
    already linked to a mitigation are skipped, so re-deriving after the
    stubs were linked back into the model adds nothing.
    """
    resp = _require(model, responsibility)
    worksheet = generate_worksheet(model, responsibility)
    stubs = []
    for row in worksheet.rows:
        if not row.assessed or row.severity < threshold or row.mitigation:
            continue
        item_name = model.resource_name(row.item)
        stubs.append(RequirementRecord(
            id=f"MIT-{resp.id}-{row.item}-{row.guide_word.value}",
            text=(f"TBD: define a coping strategy for |{item_name}| being "
                  f"{row.guide_word.value} while discharging \"{resp.name}\". "
                  f"Recorded consequence: {row.consequence}"),
            rationale=(f"Severity {row.severity.token} hazard recorded for "
                       f"\"{resp.name}\" with no linked mitigation."),
            traces=(TraceRef("hazard", item_name, row.guide_word),),
        ))
    return stubs


def coverage(model: Model, responsibility: str) -> float:
    """Fraction of worksheet rows assessed; 1.0 when there are no rows."""
    worksheet = generate_worksheet(model, responsibility)
    if not worksheet.rows:
        return 1.0
    return len(worksheet.assessed_rows) / len(worksheet.rows)

