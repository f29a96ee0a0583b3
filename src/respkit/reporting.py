"""Renderers: DOT graphs, Markdown and CSV tables, text/JSON reports.

All renderers are pure; rendering the same value twice yields identical
bytes.  Layout of diagrams is left to external tools: the DOT emitter
produces structure and styling only.

Diagram conventions: responsibilities are rounded boxes; agent and
resource labels keep the brackets of their ``dsl.BRACKETS`` kind.  Solid
arrows carry information from source agents into items and from items into
the responsibilities that require them (and from responsibilities out to
the items they produce).  Sequence links are dashed arrows.  Assignment and
physical ``uses`` edges are drawn without arrowheads.
"""

import io
from typing import Any, Callable

from .analysis import PerceptionInconsistency
from .dsl import BRACKETS, format_trace
from .model import (Finding, HazardEntry, InfoTable, InputError, Model, Problem,
                    RequirementRecord, TraceRef, escape_line_ends)


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def _dot_quote(value: str) -> str:
    escaped = escape_line_ends(value).replace('"', '\\"')
    return f'"{escaped}"'


def to_dot(model: Model) -> str:
    """Emit the model as a deterministic DOT digraph.

    Node ids are slugs; agent and resource ids are prefixed with their kind
    so that a same-named agent and resource cannot collapse into one node.
    """
    out: list[str] = []
    title = _dot_quote(model.name) if model.name else '"responsibility-model"'
    out.append(f"digraph {title} {{")
    out.append("  rankdir=LR;")

    for agent in model.agents:
        label = agent.name.join(BRACKETS["agent"])
        out.append(f"  {_dot_quote('agent-' + agent.id)} "
                   f"[shape=plaintext, label={_dot_quote(label)}];")
    for resource in model.resources:
        label = resource.name.join(BRACKETS[resource.kind.value])
        out.append(f"  {_dot_quote('resource-' + resource.id)} "
                   f"[shape=plaintext, label={_dot_quote(label)}];")
    for resp in model.responsibilities:
        out.append(f"  {_dot_quote(resp.id)} "
                   f"[shape=box, style=rounded, label={_dot_quote(resp.name)}];")

    # Insertion-ordered set: an edge keeps the place of its first mention.
    edges: dict[str, None] = {}

    def edge(source: str, target: str, attrs: str = "") -> None:
        suffix = f" [{attrs}]" if attrs else ""
        edges.setdefault(f"  {_dot_quote(source)} -> {_dot_quote(target)}{suffix};")

    for resp in model.responsibilities:
        for agent_id in resp.assigned_to:
            edge("agent-" + agent_id, resp.id, "dir=none")
    for resp in model.responsibilities:
        for need in resp.needs:
            for agent_id in need.sources:
                edge("agent-" + agent_id, "resource-" + need.resource)
            edge("resource-" + need.resource, resp.id)
        for product in resp.products:
            edge(resp.id, "resource-" + product.resource)
        for used in resp.uses:
            edge(resp.id, "resource-" + used, "dir=none")
    for source, target in model.sequence_links:
        edge(source, target, "style=dashed")

    out.extend(edges)
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table_to_markdown(table: InfoTable) -> str:
    """Pipe-delimited table; line ends, backslashes and pipes in cells are
    escaped."""

    def cell(value: str) -> str:
        return escape_line_ends(value).replace("|", "\\|")

    lines = ["| " + " | ".join(cell(c) for c in table.columns) + " |"]
    lines.append("| " + " | ".join("---" for _ in table.columns) + " |")
    for row in table.rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def table_to_csv(table: InfoTable) -> str:
    """RFC 4180 CSV: CRLF line endings, minimal double-quote quoting."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buffer.getvalue()


def worksheet_table(model: Model, worksheet: tuple[HazardEntry, ...]) -> InfoTable:
    """Flatten the rows of a hazard worksheet into a renderable table."""
    rows = []
    for entry in worksheet:
        rows.append((
            model.resource_name(entry.item),
            entry.guide_word.value,
            entry.consequence,
            entry.severity.token,
            entry.mitigation or "",
        ))
    return InfoTable(
        columns=("Information item", "Guide word", "Consequence", "Severity",
                 "Mitigation"),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Requirement reports
# ---------------------------------------------------------------------------


class TraceResolutionError(InputError):
    """One problem per trace reference that resolves to nothing in the
    model, then one per hazard whose ``mitigated_by`` names no requirement."""


def resolve_trace(model: Model, ref: TraceRef) -> bool:
    """Check one trace link against the model.

    Hazard traces resolve when the item is an information resource that at
    least one responsibility requires, i.e. the referenced deviation row
    exists in some worksheet (assessed or not): worksheets have rows for
    required items only.
    """
    if ref.kind == "agent":
        return model.agent_named(ref.name) is not None
    if ref.kind == "responsibility":
        return model.responsibility_named(ref.name) is not None
    resource = model.resource_named(ref.name)
    if resource is None:
        return False
    if ref.kind == "hazard":
        return (resource.kind.value == "information"
                and resource.id in model.required_items)
    return resource.kind.value == ref.kind


def check_traces(model: Model,
                 records: list[RequirementRecord]) -> None:
    """Raise ``TraceResolutionError`` unless every trace resolves and every
    hazard's ``mitigated_by`` names one of ``records``: the unresolved
    traces in record order, then the hazards in model order.  A requirement
    that mitigates a row need not trace it back."""
    messages = [f"unresolved trace references: {record.id}: {format_trace(ref)}"
                for record in records
                for ref in record.traces
                if not resolve_trace(model, ref)]
    ids = {record.id for record in records}
    for resp in model.responsibilities:
        for entry in resp.hazards:
            if entry.mitigation is not None and entry.mitigation not in ids:
                row = TraceRef("hazard", model.resource_name(entry.item), entry.guide_word)
                messages.append(f"unresolved mitigated_by: "
                                f"{format_trace(TraceRef('responsibility', resp.name))}: "
                                f"{format_trace(row)}: {entry.mitigation}")
    if messages:
        raise TraceResolutionError([Problem(None, message) for message in messages])


def requirements_report(model: Model, records: list[RequirementRecord]) -> str:
    """Numbered Markdown report in authored order.

    Each entry shows the requirement text, its rationale in italic
    parentheses, and the trace links as a ``.reqs`` file writes them.
    Unresolved traces abort the report.
    """
    check_traces(model, records)
    lines = ["# Requirements", ""]
    for number, record in enumerate(records, start=1):
        lines.append(f"{number}. [{record.id}] {record.text}")
        lines.append(f"   *({record.rationale})*")
        if record.traces:
            lines.append("   traces: "
                         + ", ".join(map(format_trace, record.traces)))
        lines.append("")
    count = len(records)
    lines.append(f"{count} requirement." if count == 1 else f"{count} requirements.")
    return escape_line_ends("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Finding and diff reports
# ---------------------------------------------------------------------------


def _report(items: list, fmt: str, what: str, as_json: Callable[[Any], dict],
            one: str, many: str) -> str:
    """``items`` as a JSON array of ``as_json(item)``, or as text: one
    rendered line each, then a count in words."""
    if fmt == "json":
        import json

        return json.dumps([as_json(item) for item in items], indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown {what} format {fmt!r}")
    lines = [item.render() for item in items]
    count = len(items)
    lines.append(f"{count} {one if count == 1 else many}.")
    return "\n".join(lines) + "\n"


def findings_report(findings: list[Finding], fmt: str = "text") -> str:
    return _report(findings, fmt, "findings", lambda f: {
        "code": f.code,
        "severity": f.severity.token,
        "subjects": list(f.subjects),
        "explanation": f.explanation,
    }, "finding", "findings")


def diff_report(inconsistencies: list[PerceptionInconsistency],
                fmt: str = "text") -> str:
    return _report(inconsistencies, fmt, "diff", lambda item: {
        "kind": item.kind.value,
        "responsibility": item.responsibility,
        "left": item.left,
        "right": item.right,
    }, "inconsistency", "inconsistencies")
