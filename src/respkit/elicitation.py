"""Structured information-requirements elicitation.

Generates the six-question interview sheet for a responsibility, folds the
structured answers back into the model, and renders the two summary tables
(information required / information recorded).  Channel questions are
captured through the ``via`` clauses of need and record lines rather than
as free text, so channel coverage stays analysable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from . import dsl
from .model import (
    Agent,
    AgentKind,
    Channel,
    ElicitationRecord,
    HazardEntry,
    InfoNeed,
    InfoProduct,
    Model,
    Resource,
    ResourceKind,
    Responsibility,
    UnknownResponsibility,
    canonical_elements,
    slugify,
)


class AnswerSlot(Enum):
    NEED_LINES = "needs"
    CHANNEL_ANNOTATIONS = "channels"
    RECORD_LINES = "records"
    HAZARD_BLOCKS = "hazards"


@dataclass(frozen=True)
class Question:
    number: int
    prompt: str
    slot: AnswerSlot


QUESTIONS: tuple[Question, ...] = (
    Question(1, "What information needs to be provided to discharge this "
                "responsibility?", AnswerSlot.NEED_LINES),
    Question(2, "What channels are used to communicate this information?",
             AnswerSlot.CHANNEL_ANNOTATIONS),
    Question(3, "Where does this information come from?", AnswerSlot.NEED_LINES),
    Question(4, "What information is generated and recorded in the discharge "
                "of this responsibility and why?", AnswerSlot.RECORD_LINES),
    Question(5, "What channels are used to communicate this recorded "
                "information?", AnswerSlot.CHANNEL_ANNOTATIONS),
    Question(6, "What are the consequences if the information required is "
                "unavailable, inaccurate, incomplete, late, early?",
             AnswerSlot.HAZARD_BLOCKS),
)

_SLOT_HINTS = {
    1: "answer with one |item| line per information need, inside needs { }",
    2: "annotate each need line with via \"channel\" clauses",
    3: "annotate each need line with from <agent> clauses",
    4: "answer with one |item| line per record, inside records { }; "
       "capture the why in a rationale clause",
    5: "annotate each record line with via \"channel\" clauses",
    6: "fill one hazards |item| block per required information item",
}


@dataclass(frozen=True)
class Questionnaire:
    """Six questions for one responsibility, with drafts from the model."""

    responsibility: str
    questions: tuple[Question, ...]
    draft_needs: tuple[InfoNeed, ...] = ()
    draft_products: tuple[InfoProduct, ...] = ()
    draft_hazards: tuple[HazardEntry, ...] = ()


def _require(model: Model, responsibility: str) -> Responsibility:
    resp = model.responsibility_named(responsibility)
    if resp is None:
        raise UnknownResponsibility(responsibility, model)
    return resp


def generate_questionnaire(model: Model, responsibility: str) -> Questionnaire:
    """Build the interview sheet, pre-populated from the model."""
    resp = _require(model, responsibility)
    return Questionnaire(
        responsibility=resp.name,
        questions=QUESTIONS,
        draft_needs=resp.needs,
        draft_products=resp.products,
        draft_hazards=resp.hazards,
    )


def answers_skeleton(model: Model, responsibility: str) -> str:
    """Render the questionnaire as a commented answers file to edit in place."""
    sheet = generate_questionnaire(model, responsibility)
    resp = _require(model, responsibility)

    lines = [f"# Elicitation sheet for responsibility {dsl.quote(sheet.responsibility)}."]
    lines.append("# Work through the questions below; lines already present were")
    lines.append("# drafted from the current model.")
    for question in sheet.questions:
        lines.append(f"# {question.number}. {question.prompt}")
        lines.append(f"#    ({_SLOT_HINTS[question.number]})")
    lines.append(f"elicitation {dsl.quote(sheet.responsibility)} {{")
    lines.append("  needs {")
    for need in sheet.draft_needs:
        lines.append("    " + dsl.format_need_clause(
            model, need, keyword="", with_criticality=False))
    lines.append("  }")
    lines.append("  records {")
    for product in sheet.draft_products:
        lines.append("    " + dsl.format_product_clause(model, product, keyword=""))
    lines.append("  }")
    for need in sheet.draft_needs:
        item_name = model.resource_name(need.resource)
        lines.append(f"  hazards |{item_name}| {{")
        for entry in resp.hazards:
            if entry.item != need.resource:
                continue
            line = (f"    {entry.guide_word.value} {dsl.quote(entry.consequence)}"
                    f" severity {entry.severity.token}")
            lines.append(line)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------


class IngestError(ValueError):
    pass


class _Resolver:
    """Resolves answer references against a model, growing it when lenient."""

    def __init__(self, model: Model, strict: bool):
        self.strict = strict
        self.agents = {a.id: a for a in model.agents}
        self.resources = {r.id: r for r in model.resources}
        self.channels = {c.id: c for c in model.channels}

    def agent(self, name: str) -> str:
        slug = slugify(name)
        existing = self.agents.get(slug)
        if existing is not None:
            if existing.name != name.strip():
                raise IngestError(f"agents {existing.name!r} and {name.strip()!r} "
                                  f"collide on id '{slug}'")
            return slug
        if self.strict:
            raise IngestError(f"unknown agent <{name}>")
        self.agents[slug] = Agent(slug, name.strip(), AgentKind.ORGANIZATION,
                                  implicit=True)
        return slug

    def information(self, name: str) -> str:
        slug = slugify(name)
        existing = self.resources.get(slug)
        if existing is not None:
            if existing.name != name.strip():
                raise IngestError(f"resources {existing.name!r} and "
                                  f"{name.strip()!r} collide on id '{slug}'")
            if existing.kind is not ResourceKind.INFORMATION:
                raise IngestError(f"conflicting resource kind: {existing.name!r} "
                                  "is physical but is used as information")
            return slug
        if self.strict:
            raise IngestError(f"unknown information resource |{name}|")
        self.resources[slug] = Resource(slug, name.strip(),
                                        ResourceKind.INFORMATION, implicit=True)
        return slug

    def channel(self, name: str) -> str:
        slug = slugify(name)
        existing = self.channels.get(slug)
        if existing is not None:
            if existing.name != name.strip():
                raise IngestError(f"channels {existing.name!r} and "
                                  f"{name.strip()!r} collide on id '{slug}'")
            return slug
        if self.strict:
            raise IngestError(f'unknown channel "{name}"')
        self.channels[slug] = Channel(slug, name.strip(), implicit=True)
        return slug


def _merge(resp: Responsibility, record: ElicitationRecord,
           resolver: _Resolver) -> Responsibility:
    """Fold one answer record into one responsibility."""
    needs = list(resp.needs)
    for answer in record.needs:
        resource = resolver.information(answer.resource)
        sources = tuple(resolver.agent(a) for a in answer.sources)
        channels = tuple(resolver.channel(c) for c in answer.channels)
        new_need = InfoNeed(resource, sources, channels)
        for i, existing in enumerate(needs):
            if existing.resource == resource:
                needs[i] = existing.merged_with(new_need)
                break
        else:
            needs.append(new_need)

    products = list(resp.products)
    for answer in record.records:
        resource = resolver.information(answer.resource)
        channels = tuple(resolver.channel(c) for c in answer.channels)
        new_product = InfoProduct(resource, channels, answer.rationale)
        for i, existing in enumerate(products):
            if existing.resource == resource:
                products[i] = existing.merged_with(new_product)
                break
        else:
            products.append(new_product)

    known = {n.resource for n in needs} | {p.resource for p in products}
    hazards = list(resp.hazards)
    for answer in record.hazards:
        item = resolver.information(answer.item)
        if item not in known:
            raise IngestError(
                f"hazard block for |{answer.item}| but "
                f'"{resp.name}" neither requires nor produces it')
        entry = HazardEntry(resp.name, item, answer.guide_word,
                            answer.consequence, answer.severity)
        for i, existing in enumerate(hazards):
            if (existing.item, existing.guide_word) == (item, answer.guide_word):
                hazards[i] = existing.merged_with(entry)
                break
        else:
            hazards.append(entry)

    return replace(resp, needs=tuple(needs), products=tuple(products),
                   hazards=tuple(hazards))


def ingest_all(model: Model, records: list[ElicitationRecord],
               strict: bool = False) -> Model:
    """Merge answer records into the model in order, returning a new model.

    Merging is monotone and idempotent: answers accumulate, nothing already
    recorded is removed, and applying the same records twice equals
    applying them once.  Strict mode refuses references the model cannot
    resolve; otherwise they are declared implicitly.  All records share one
    resolver and the new model is built once, at the end.
    """
    if not records:
        return model
    resolver = _Resolver(model, strict)
    merged: dict[str, Responsibility] = {}
    for record in records:
        resp = _require(model, record.responsibility)
        merged[resp.id] = _merge(merged.get(resp.id, resp), record, resolver)
    return replace(
        model,
        agents=canonical_elements(resolver.agents.values()),
        resources=canonical_elements(resolver.resources.values()),
        channels=canonical_elements(resolver.channels.values()),
        responsibilities=tuple(merged.get(r.id, r) for r in model.responsibilities),
    )


def ingest(model: Model, record: ElicitationRecord, strict: bool = False) -> Model:
    """Merge one answer record into the model; see ``ingest_all``."""
    return ingest_all(model, [record], strict)


# ---------------------------------------------------------------------------
# Information tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfoTable:
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


REQUIRED_COLUMNS = ("Information required", "Source", "Communication channel")
RECORDED_COLUMNS = ("Information created/recorded", "Channels")


def _canonical_rows(model: Model, flows) -> list:
    # Sort by item display name; authored order breaks ties.
    return sorted(enumerate(flows),
                  key=lambda pair: (model.resource_name(pair[1].resource), pair[0]))


def information_required_table(model: Model, responsibility: str) -> InfoTable:
    """One row per information need: item, sources, channels."""
    resp = _require(model, responsibility)
    rows = []
    for _, need in _canonical_rows(model, resp.needs):
        rows.append((
            model.resource_name(need.resource),
            ", ".join(model.agent_name(a) for a in need.sources),
            ", ".join(model.channel_name(c) for c in need.channels),
        ))
    return InfoTable(
        title=f'Information used in the discharge of "{resp.name}"',
        columns=REQUIRED_COLUMNS,
        rows=tuple(rows),
    )


def information_recorded_table(model: Model, responsibility: str) -> InfoTable:
    """One row per information product: item, channels."""
    resp = _require(model, responsibility)
    rows = []
    for _, product in _canonical_rows(model, resp.products):
        rows.append((
            model.resource_name(product.resource),
            ", ".join(model.channel_name(c) for c in product.channels),
        ))
    return InfoTable(
        title=f'Information recorded in the discharge of "{resp.name}"',
        columns=RECORDED_COLUMNS,
        rows=tuple(rows),
    )
