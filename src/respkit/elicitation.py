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
model file.  By build's rule, ingest reports every answer it refuses,
and every session whose header names no duty, one line each at the
answer's line or the header, in the order it meets them.
"""

from dataclasses import replace

from . import dsl
from .build import DutyFold, ModelBuildError, SymbolTable, resolve_flow
from .model import InfoTable, Model, require_responsibility, unknown_responsibility


#: The six questions asked about one responsibility, in order, each with the
#: hint on how its answer is written.
QUESTIONS: tuple[tuple[str, str], ...] = (
    ("What information needs to be provided to discharge this responsibility?",
     "answer with one |item| line per information need, inside needs { }"),
    ("What channels are used to communicate this information?",
     "annotate each need line with via \"channel\" clauses"),
    ("Where does this information come from?",
     "annotate each need line with from <agent> clauses"),
    ("What information is generated and recorded in the discharge of this "
     "responsibility and why?",
     "answer with one |item| line per record, inside records { }; "
     "capture the why in a rationale clause"),
    ("What channels are used to communicate this recorded information?",
     "annotate each record line with via \"channel\" clauses"),
    ("What are the consequences if the information required is unavailable, "
     "inaccurate, incomplete, late, early?",
     "fill one hazards |item| block per required information item"),
)


def answers_skeleton(model: Model, responsibility: str) -> str:
    """The six questions as a commented answers file to edit in place, its
    lines drafted from what the model records for the duty."""
    resp = require_responsibility(model, responsibility)
    lines = [f"# Elicitation sheet for responsibility {dsl.quote(resp.name)}.",
             "# Work through the questions below; lines already present were",
             "# drafted from the current model."]
    for number, (prompt, hint) in enumerate(QUESTIONS, 1):
        lines += [f"# {number}. {prompt}", f"#    ({hint})"]
    lines.append(f"elicitation {dsl.quote(resp.name)} {{")
    lines.append("  needs {")
    lines += ["    " + dsl.format_need_tail(model, need) for need in resp.needs]
    lines.append("  }")
    lines.append("  records {")
    lines += ["    " + dsl.format_product_tail(model, product)
              for product in resp.products]
    lines.append("  }")
    hazards_of: dict[str, list[str]] = {}
    for entry in resp.hazards:
        hazards_of.setdefault(entry.item, []).append(
            "    " + dsl.format_hazard_tail(entry))
    for need in resp.needs:
        item = dsl.format_ref(model.resource_name(need.resource), "information")
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
    were met: one ``IngestError`` then lists them all.  A session whose
    header names no duty is one of them, at the header.
    """
    if not records:
        return model
    table = SymbolTable(model, strict)
    folds: dict[str, DutyFold] = {}
    for record in records:
        resp = model.responsibility_named(record.responsibility)
        if resp is None:
            table.error(unknown_responsibility(model, record.responsibility), record)
            continue
        fold = folds.get(resp.id) or folds.setdefault(resp.id, DutyFold(resp))
        fold.add([(resolve_flow(table, clause), clause)
                  for clause in (*record.needs, *record.records, *record.hazards)],
                 lambda clause: table.error(
                     f'hazard block for |{clause.item}| but "{resp.name}" does not '
                     'require it', clause))
    if table.problems:
        raise IngestError(table.problems)
    return replace(
        model,
        responsibilities=tuple(replace(r, **folds[r.id].fields()) if r.id in folds else r
                               for r in model.responsibilities),
        **table.elements(),
    )


# ---------------------------------------------------------------------------
# Information tables
# ---------------------------------------------------------------------------


REQUIRED_COLUMNS = ("Information required", "Source", "Communication channel")
RECORDED_COLUMNS = ("Information created/recorded", "Channels")


def _canonical_rows(model: Model, flows) -> list:
    # Sort by item display name; sorted is stable, so authored order breaks ties.
    return sorted(flows, key=lambda flow: model.resource_name(flow.resource))


def information_required_table(model: Model, responsibility: str) -> InfoTable:
    """One row per information need: item, sources, channels."""
    resp = require_responsibility(model, responsibility)
    rows = []
    for need in _canonical_rows(model, resp.needs):
        rows.append((
            model.resource_name(need.resource),
            ", ".join(model.agent_name(a) for a in need.sources),
            ", ".join(model.channel_name(c) for c in need.channels),
        ))
    return InfoTable(columns=REQUIRED_COLUMNS, rows=tuple(rows))


def information_recorded_table(model: Model, responsibility: str) -> InfoTable:
    """One row per information product: item, channels."""
    resp = require_responsibility(model, responsibility)
    rows = []
    for product in _canonical_rows(model, resp.products):
        rows.append((
            model.resource_name(product.resource),
            ", ".join(model.channel_name(c) for c in product.channels),
        ))
    return InfoTable(columns=RECORDED_COLUMNS, rows=tuple(rows))
