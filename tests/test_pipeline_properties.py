"""Whole-pipeline properties: no subcommand's output depends on what the
model's meaning ignores.

Each drawn model is written out as a ``.resp`` file in its drawn order:
declarations as drawn, not sorted, and ``from`` and ``via`` lists that now
and then name one element twice.  Through ``cli.run``, every subcommand
below must then give the same stdout, stderr and exit status

- on that file as on the model's ``print_model`` text, its canonical form;
- on that file with its top-level declarations shuffled as on the file.

Drawn models build, so no run stops at an error, and the line numbers in
error spans, which differ between the files, never enter a comparison.
Clause order inside a duty is first-mention order by design, so it stays.

An argparse parser keeps no state from one parse to the next, so the
runs share one full ``cli._build_parser([])``, with every subcommand:
building a parser again for each of the 4800 runs would take most of the
test's time.
"""

import io
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from respkit import build_model, cli, parse_model, print_model
from respkit.dsl import (
    BRACKETS,
    AgentDecl,
    AssignClause,
    ChannelDecl,
    HazardClause,
    ModelDecl,
    NoteClause,
    PrecedesClause,
    ProduceClause,
    RequireClause,
    ResourceDecl,
    ResponsibilityDecl,
    UseClause,
    quote,
)
from strategies import declarations


def _refs(kind: str, *names: str) -> str:
    """Each name in the brackets of its kind, comma-separated."""
    return ", ".join(name.join(BRACKETS[kind]) for name in names)


def _clause(clause) -> str:
    """One clause as written inside a responsibility block."""
    if isinstance(clause, AssignClause):
        return "assigned to " + _refs("agent", *clause.agents)
    if isinstance(clause, RequireClause):
        text = "requires " + _refs("information", clause.resource)
        if clause.sources:
            text += " from " + _refs("agent", *clause.sources)
        if clause.channels:
            text += " via " + ", ".join(map(quote, clause.channels))
        if clause.criticality is not None:
            text += f" criticality {clause.criticality.token}"
        return text
    if isinstance(clause, ProduceClause):
        text = "produces " + _refs("information", clause.resource)
        if clause.channels:
            text += " via " + ", ".join(map(quote, clause.channels))
        if clause.rationale is not None:
            text += " rationale " + quote(clause.rationale)
        return text
    if isinstance(clause, UseClause):
        return "uses " + _refs("physical", clause.resource)
    if isinstance(clause, HazardClause):
        return (f"hazard {_refs('information', clause.item)} {clause.guide_word.value} "
                f"{quote(clause.consequence)} severity {clause.severity.token}")
    if isinstance(clause, PrecedesClause):
        return "precedes " + quote(clause.target)
    assert isinstance(clause, NoteClause)
    return "note " + quote(clause.text)


def _declaration(decl) -> str:
    """One top-level declaration as written in a ``.resp`` file."""
    if isinstance(decl, ModelDecl):
        return "model " + quote(decl.name)
    if isinstance(decl, AgentDecl):
        return f"agent {_refs('agent', decl.name)} kind {decl.kind.value}"
    if isinstance(decl, ResourceDecl):
        return "resource " + _refs(decl.kind.value, decl.name)
    if isinstance(decl, ChannelDecl):
        text = "channel " + quote(decl.name)
        if decl.medium:
            text += f" medium {decl.medium}"
        if decl.backup_of:
            text += " backup_of " + quote(decl.backup_of)
        return text
    assert isinstance(decl, ResponsibilityDecl)
    return "\n".join([f"responsibility {quote(decl.name)} {{",
                      *("  " + _clause(clause) for clause in decl.items), "}"])


def _file(decls) -> str:
    return "".join(_declaration(decl) + "\n" for decl in decls)


def _outputs(path: Path, duty: str) -> list:
    """(arguments, status, stdout, stderr) of each subcommand run on ``path``."""
    # A duty's name may start with "-", which only the "=" form passes.
    focus = f"--responsibility={duty}"
    runs = []
    for argv in (["check", "--strict"], ["analyze"], ["analyze", "--format", "json"],
                 ["dot"], ["tables", focus], ["hazards", focus], ["mitigations", focus],
                 ["elicit", focus]):
        stdout, stderr = io.StringIO(), io.StringIO()
        status = cli.run([argv[0], str(path), *argv[1:]], stdout=stdout, stderr=stderr)
        runs.append((argv, status, stdout.getvalue(), stderr.getvalue()))
    return runs


@st.composite
def drawn_files(draw):
    """A drawn model's file, the same file with its declarations after the
    first, the ``model`` line, in a drawn order, and a drawn duty."""
    decls = draw(declarations())
    text = _file(decls)
    # A file holds UTF-8, which has no form for a lone surrogate.
    assume(not any("\ud800" <= c <= "\udfff" for c in text))
    shuffled = [decls[0], *draw(st.permutations(decls[1:]))]
    duty = draw(st.sampled_from([d.name for d in decls
                                 if isinstance(d, ResponsibilityDecl)]))
    return text, _file(shuffled), duty


@settings(max_examples=200, deadline=None)
@given(drawn_files())
def test_output_ignores_the_form_and_the_order_of_a_model_file(drawn):
    text, shuffled, duty = drawn
    canonical = print_model(build_model(parse_model(text)))
    parser = cli._build_parser([])
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(cli, "_build_parser", lambda argv: parser)):
        paths = [Path(tmp) / name for name in ("model.resp", "shuffled.resp", "canonical.resp")]
        for path, content in zip(paths, (text, shuffled, canonical)):
            path.write_text(content, encoding="utf-8", newline="")
        as_written, reordered, printed = (_outputs(path, duty) for path in paths)
    assert as_written == printed, "a model file and its print_model text differ"
    assert reordered == as_written, "shuffling the declarations changed an output"
