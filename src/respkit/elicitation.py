"""Structured information-requirements elicitation.

Generates the six-question interview sheet for a responsibility, folds the
structured answers back into the model, and renders the two summary tables
(information required / information recorded).  Channel questions are
captured through the ``via`` clauses of need and record lines rather than
as free text, so channel coverage stays analysable.

An answers session holds the same ``requires``, ``produces`` and ``hazard``
clauses as a ``.resp`` responsibility block.  Ingest resolves them through
``build.resolve_flow`` and merges each duty's answers from every session in
one ``build.DutyFold``, so an answer obeys the rules its clause obeys in a
model file.  By build's rule, ingest reports every answer it refuses, one
line each at the answer's line, in the order it meets them.  ``Question``,
``Questionnaire`` and ``InfoTable`` are named tuples, cheap to define and
to make: they compare and unpack as tuples.
"""

from dataclasses import replace
from typing import NamedTuple

from . import dsl
from .build import DutyFold, ModelBuildError, SymbolTable, resolve_flow
from .model import (
    HazardEntry,
    InfoNeed,
    InfoProduct,
    Model,
    Responsibility,
    UnknownResponsibility,
    escape_line_ends,
)


class Question(NamedTuple):
    number: int
    prompt: str


QUESTIONS: tuple[Question, ...] = (
    Question(1, "What information needs to be provided to discharge this "
                "responsibility?"),
    Question(2, "What channels are used to communicate this information?"),
    Question(3, "Where does this information come from?"),
    Question(4, "What information is generated and recorded in the discharge "
                "of this responsibility and why?"),
    Question(5, "What channels are used to communicate this recorded "
                "information?"),
    Question(6, "What are the consequences if the information required is "
                "unavailable, inaccurate, incomplete, late, early?"),
)

_ANSWER_HINTS = {
    1: "answer with one |item| line per information need, inside needs { }",
    2: "annotate each need line with via \"channel\" clauses",
    3: "annotate each need line with from <agent> clauses",
    4: "answer with one |item| line per record, inside records { }; "
       "capture the why in a rationale clause",
    5: "annotate each record line with via \"channel\" clauses",
    6: "fill one hazards |item| block per required information item",
}


class Questionnaire(NamedTuple):
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

    lines = [f"# Elicitation sheet for responsibility {dsl.quote(sheet.responsibility)}."]
    lines.append("# Work through the questions below; lines already present were")
    lines.append("# drafted from the current model.")
    for question in sheet.questions:
        lines.append(f"# {question.number}. {question.prompt}")
        lines.append(f"#    ({_ANSWER_HINTS[question.number]})")
    lines.append(f"elicitation {dsl.quote(sheet.responsibility)} {{")
    lines.append("  needs {")
    lines += ["    " + dsl.format_need_tail(model, need) for need in sheet.draft_needs]
    lines.append("  }")
    lines.append("  records {")
    lines += ["    " + dsl.format_product_tail(model, product)
              for product in sheet.draft_products]
    lines.append("  }")
    hazards_of: dict[str, list[str]] = {}
    for entry in sheet.draft_hazards:
        hazards_of.setdefault(entry.item, []).append(
            "    " + dsl.format_hazard_tail(entry))
    for need in sheet.draft_needs:
        item = dsl._ref(model.resource_name(need.resource), "information")
        lines.append(f"  hazards {item} {{")
        lines += hazards_of.get(need.resource, ())
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------


class IngestError(ModelBuildError):
    """The answers the model cannot take; renders one
    ``<file>:<line>:<col>: error: <message>`` line per answer refused."""


def ingest_all(model: Model, records: list[dsl.ElicitationRecord],
               strict: bool = False) -> Model:
    """Merge answer records into the model in order, returning a new model.

    Merging is monotone and idempotent: answers accumulate, nothing already
    recorded is removed, and applying the same records twice equals
    applying them once.  Strict mode refuses references the model cannot
    resolve; otherwise they are declared implicitly.  All records share one
    symbol table, each duty answered has one ``DutyFold`` across all its
    sessions, and the new model is built once, at the end, unless problems
    were met: one ``IngestError`` then lists them all.  A header that names
    no duty stops at once, with the problems met before it, if any.
    """
    if not records:
        return model
    table = SymbolTable(model, strict)
    folds: dict[str, DutyFold] = {}
    for record in records:
        if table.issues and model.responsibility_named(record.responsibility) is None:
            raise IngestError(table.issues)
        resp = _require(model, record.responsibility)
        fold = folds.get(resp.id) or folds.setdefault(resp.id, DutyFold(resp))
        fold.add([(resolve_flow(table, clause), clause)
                  for clause in (*record.needs, *record.records, *record.hazards)],
                 lambda clause: table.error(escape_line_ends(
                     f'hazard block for |{clause.item}| but "{resp.name}" does not '
                     'require it'), clause))
    if table.issues:
        raise IngestError(table.issues)
    return replace(
        model,
        responsibilities=tuple(replace(r, **folds[r.id].fields()) if r.id in folds else r
                               for r in model.responsibilities),
        **table.elements(),
    )


def ingest(model: Model, record: dsl.ElicitationRecord, strict: bool = False) -> Model:
    """Merge one answer record into the model; see ``ingest_all``."""
    return ingest_all(model, [record], strict)


# ---------------------------------------------------------------------------
# Information tables
# ---------------------------------------------------------------------------


class InfoTable(NamedTuple):
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


REQUIRED_COLUMNS = ("Information required", "Source", "Communication channel")
RECORDED_COLUMNS = ("Information created/recorded", "Channels")


def _canonical_rows(model: Model, flows) -> list:
    # Sort by item display name; sorted is stable, so authored order breaks ties.
    return sorted(flows, key=lambda flow: model.resource_name(flow.resource))


def information_required_table(model: Model, responsibility: str) -> InfoTable:
    """One row per information need: item, sources, channels."""
    resp = _require(model, responsibility)
    rows = []
    for need in _canonical_rows(model, resp.needs):
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
    for product in _canonical_rows(model, resp.products):
        rows.append((
            model.resource_name(product.resource),
            ", ".join(model.channel_name(c) for c in product.channels),
        ))
    return InfoTable(
        title=f'Information recorded in the discharge of "{resp.name}"',
        columns=RECORDED_COLUMNS,
        rows=tuple(rows),
    )
