"""The recursive-descent parsers respkit used before the token lists.

A ``_Parser`` object walks the ``Token`` list of ``reference_scanner.scan``
through helper methods (``current``, ``at``, ``accept``, ``expect``).  The
parsers in ``respkit.dsl`` read parallel token lists through an index
instead; tests compare them with these, declaration for declaration and
error for error, on arbitrary text.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from respkit.dsl import (
    AGENT_REF,
    COMMA,
    EOF,
    IDENT,
    INFO_REF,
    LBRACE,
    PHYS_REF,
    RBRACE,
    STRING,
    AgentDecl,
    AssignClause,
    ChannelDecl,
    Clause,
    Declaration,
    ElicitationRecord,
    HazardClause,
    ModelDecl,
    NoteClause,
    ParseFailure,
    PrecedesClause,
    ProduceClause,
    RequireClause,
    ResourceDecl,
    ResponsibilityDecl,
    SourceSpan,
    UseClause,
    parse_problem,
)
from respkit.model import (
    AgentKind,
    GuideWord,
    GUIDE_WORD_TOKENS,
    GUIDE_WORDS_BY_TOKEN,
    Problem,
    RequirementRecord,
    ResourceKind,
    Severity,
    SEVERITIES,
    SEVERITY_TOKENS,
    TraceRef,
)

from reference_scanner import Token, scan as _scan


class _Spot(NamedTuple):
    """A stand-in ``Source`` that puts every offset at one span, since the
    reference scanner gives each token a span rather than an offset."""

    span: SourceSpan

    def span_at(self, offset: int) -> SourceSpan:
        return self.span


def _at(span: SourceSpan) -> tuple[int, _Spot]:
    """The ``offset`` and ``source`` fields of a declaration or clause whose
    ``span`` is ``span``."""
    return 0, _Spot(span)


class _SyntaxError(Exception):
    def __init__(self, error: Problem):
        self.error = error


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.current
        return tok.kind == kind and (value is None or tok.value == value)

    def at_keyword(self, *words: str) -> bool:
        return self.current.kind == IDENT and self.current.value in words

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None,
               expected: Optional[str] = None) -> Token:
        if self.at(kind, value):
            return self.advance()
        wanted = expected or (f"'{value}'" if value else kind)
        raise _SyntaxError(parse_problem(self.current.span, wanted, self.current.describe()))

    def expect_keyword(self, word: str) -> Token:
        return self.expect(IDENT, word, expected=f"'{word}'")

    def fail(self, expected: str, found: Optional[str] = None) -> "_SyntaxError":
        """The error for the current token: an error always names the token
        the parser stands at, and recovery starts from there."""
        return _SyntaxError(parse_problem(self.current.span, expected,
                                          found or self.current.describe()))

    def skip_to_toplevel(self, keywords: tuple[str, ...]) -> None:
        """Resynchronize after an error: skip to the next declaration."""
        depth = 0
        while not self.at(EOF):
            tok = self.current
            if tok.kind == LBRACE:
                depth += 1
            elif tok.kind == RBRACE:
                depth = max(0, depth - 1)
            elif depth == 0 and tok.kind == IDENT and tok.value in keywords:
                return
            self.advance()

    def comma_list(self, kind: str) -> tuple[str, ...]:
        values = [self.expect(kind).value]
        while self.accept(COMMA):
            values.append(self.expect(kind).value)
        return tuple(values)

    def severity_token(self) -> Severity:
        if self.at(IDENT) and self.current.value not in SEVERITIES:
            raise self.fail(f"one of {SEVERITY_TOKENS}", f"{self.current.value!r}")
        return SEVERITIES[self.expect(IDENT, expected=f"a severity ({SEVERITY_TOKENS})").value]

    def guide_word_token(self) -> GuideWord:
        if self.at(IDENT) and self.current.value not in GUIDE_WORDS_BY_TOKEN:
            raise self.fail(f"one of {GUIDE_WORD_TOKENS}", f"{self.current.value!r}")
        return GUIDE_WORDS_BY_TOKEN[
            self.expect(IDENT, expected=f"a guide word ({GUIDE_WORD_TOKENS})").value]


def _channels(parser: _Parser) -> tuple[str, ...]:
    if parser.accept(IDENT, "via"):
        return tuple(s.strip() for s in parser.comma_list(STRING))
    return ()


def _need_tail(parser: _Parser) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``[from <agent>, ...] [via "channel", ...]`` after a needed item, in
    a ``requires`` clause and an answers ``needs`` line alike."""
    sources = parser.comma_list(AGENT_REF) if parser.accept(IDENT, "from") else ()
    return sources, _channels(parser)


def _product_tail(parser: _Parser) -> tuple[tuple[str, ...], Optional[str]]:
    """``[via "channel", ...] [rationale "why"]`` after a produced item, in a
    ``produces`` clause and an answers ``records`` line alike."""
    channels = _channels(parser)
    rationale = parser.expect(STRING).value if parser.accept(IDENT, "rationale") else None
    return channels, rationale


def _finish(errors: list[Problem]) -> None:
    if errors:
        errors.sort(key=lambda e: e.span)
        raise ParseFailure(errors)


# ---------------------------------------------------------------------------
# .resp parsing
# ---------------------------------------------------------------------------

_RESP_TOPLEVEL = ("model", "agent", "resource", "channel", "responsibility")
_AGENT_KINDS = ", ".join(k.value for k in AgentKind)
_AGENT_KIND_VALUES = {k.value for k in AgentKind}


def parse_model(text: str, filename: str = "<string>") -> list[Declaration]:
    """Parse a ``.resp`` document into declarations.

    Raises ParseFailure carrying every recovered error.
    """
    tokens, errors = _scan(text, filename)
    parser = _Parser(tokens)
    declarations: list[Declaration] = []
    saw_model = False
    saw_other = False

    while not parser.at(EOF):
        start = parser.pos
        try:
            tok = parser.current
            if tok.kind != IDENT:
                raise parser.fail("a declaration keyword "
                                  "(model, agent, resource, channel, responsibility)")
            if tok.value == "model":
                if saw_model or saw_other:
                    raise parser.fail("at most one model declaration, first in the file")
                parser.advance()
                name = parser.expect(STRING).value
                declarations.append(ModelDecl(name.strip(), *_at(tok.span)))
                saw_model = True
            elif tok.value == "agent":
                parser.advance()
                name = parser.expect(AGENT_REF).value
                kind: Optional[AgentKind] = None
                if parser.accept(IDENT, "kind"):
                    if parser.at(IDENT) and parser.current.value not in _AGENT_KIND_VALUES:
                        raise parser.fail(f"one of {_AGENT_KINDS}",
                                          f"{parser.current.value!r}")
                    kind = AgentKind(
                        parser.expect(IDENT, expected=f"one of {_AGENT_KINDS}").value)
                declarations.append(AgentDecl(name, kind, *_at(tok.span)))
            elif tok.value == "resource":
                parser.advance()
                if parser.at(PHYS_REF):
                    ref = parser.advance()
                    declarations.append(
                        ResourceDecl(ref.value, ResourceKind.PHYSICAL,
                                     *_at(tok.span)))
                elif parser.at(INFO_REF):
                    ref = parser.advance()
                    declarations.append(
                        ResourceDecl(ref.value, ResourceKind.INFORMATION,
                                     *_at(tok.span)))
                else:
                    raise parser.fail("a resource reference ([name] or |name|)")
            elif tok.value == "channel":
                parser.advance()
                name = parser.expect(STRING).value.strip()
                medium = None
                backup_of = None
                if parser.accept(IDENT, "medium"):
                    medium = parser.expect(IDENT, expected="a medium token").value
                if parser.accept(IDENT, "backup_of"):
                    backup_of = parser.expect(STRING).value.strip()
                declarations.append(ChannelDecl(name, medium, backup_of, *_at(tok.span)))
            elif tok.value == "responsibility":
                declarations.append(_parse_responsibility(parser))
            else:
                raise parser.fail("a declaration keyword "
                                  "(model, agent, resource, channel, responsibility)")
            saw_other = saw_other or tok.value != "model"
        except _SyntaxError as exc:
            if not errors or errors[-1].span != exc.error.span:  # one per token
                errors.append(exc.error)
            parser.pos = max(parser.pos, start + 1)
            parser.skip_to_toplevel(_RESP_TOPLEVEL)
            saw_other = True

    _finish(errors)
    return declarations


def _parse_responsibility(parser: _Parser) -> ResponsibilityDecl:
    start = parser.expect_keyword("responsibility")
    name = parser.expect(STRING).value.strip()
    parser.expect(LBRACE)
    items: list[Clause] = []
    while True:
        if parser.at(RBRACE):
            parser.advance()
            break
        if parser.at(EOF):
            raise _SyntaxError(parse_problem(parser.current.span, "'}'", EOF))
        tok = parser.current
        if tok.kind != IDENT:
            raise parser.fail("an item keyword (assigned, requires, produces, "
                              "uses, hazard, precedes, note) or '}'")
        word = tok.value
        if word == "responsibility":
            raise _SyntaxError(parse_problem(
                tok.span, "'}' before the next responsibility "
                "(responsibility blocks do not nest)", tok.describe()))
        if word == "assigned":
            parser.advance()
            parser.expect_keyword("to")
            agents = parser.comma_list(AGENT_REF)
            items.append(AssignClause(agents, *_at(tok.span)))
        elif word == "requires":
            parser.advance()
            resource = parser.expect(INFO_REF).value
            sources, channels = _need_tail(parser)
            criticality = None
            if parser.accept(IDENT, "criticality"):
                criticality = parser.severity_token()
            items.append(RequireClause(resource, sources, channels, criticality,
                                       *_at(tok.span)))
        elif word == "produces":
            parser.advance()
            resource = parser.expect(INFO_REF).value
            items.append(ProduceClause(resource, *_product_tail(parser), *_at(tok.span)))
        elif word == "uses":
            parser.advance()
            resource = parser.expect(PHYS_REF).value
            items.append(UseClause(resource, *_at(tok.span)))
        elif word == "hazard":
            parser.advance()
            item = parser.expect(INFO_REF).value
            guide_word = parser.guide_word_token()
            consequence = parser.expect(STRING).value
            severity = Severity.NONE
            mitigated_by = None
            if parser.accept(IDENT, "severity"):
                severity = parser.severity_token()
            if parser.accept(IDENT, "mitigated_by"):
                mitigated_by = parser.expect(IDENT, expected="a requirement id").value
            items.append(HazardClause(item, guide_word, consequence, severity,
                                      mitigated_by, *_at(tok.span)))
        elif word == "precedes":
            parser.advance()
            target = parser.expect(STRING).value.strip()
            items.append(PrecedesClause(target, *_at(tok.span)))
        elif word == "note":
            parser.advance()
            items.append(NoteClause(parser.expect(STRING).value, *_at(tok.span)))
        else:
            raise parser.fail("an item keyword (assigned, requires, produces, "
                              "uses, hazard, precedes, note) or '}'")
    return ResponsibilityDecl(name, tuple(items), *_at(start.span))


# ---------------------------------------------------------------------------
# .answers parsing
# ---------------------------------------------------------------------------


def parse_answers(text: str, filename: str = "<string>") -> list[ElicitationRecord]:
    """Parse a ``.answers`` document into one record per elicitation session."""
    tokens, errors = _scan(text, filename)
    parser = _Parser(tokens)
    records: list[ElicitationRecord] = []

    while not parser.at(EOF):
        start = parser.pos
        try:
            records.append(_parse_session(parser))
        except _SyntaxError as exc:
            if not errors or errors[-1].span != exc.error.span:  # one per token
                errors.append(exc.error)
            parser.pos = max(parser.pos, start + 1)
            parser.skip_to_toplevel(("elicitation",))

    _finish(errors)
    return records


def _parse_session(parser: _Parser) -> ElicitationRecord:
    start = parser.expect(IDENT, "elicitation", expected="'elicitation'")
    responsibility = parser.expect(STRING).value.strip()
    meta = {"by": None, "date": None}
    while parser.at_keyword(*(word for word, value in meta.items() if value is None)):
        which = parser.advance().value
        meta[which] = parser.expect(STRING).value
    parser.expect(LBRACE)

    needs: list[RequireClause] = []
    recorded: list[ProduceClause] = []
    hazards: list[HazardClause] = []

    while not parser.accept(RBRACE):
        if parser.at(EOF):
            raise _SyntaxError(parse_problem(parser.current.span, "'}'", EOF))
        if parser.accept(IDENT, "needs"):
            parser.expect(LBRACE)
            while not parser.accept(RBRACE):
                if parser.at(EOF):
                    raise _SyntaxError(parse_problem(parser.current.span, "'}'", EOF))
                tok = parser.expect(
                    INFO_REF, expected="an information item (|name|) or '}'")
                needs.append(RequireClause(tok.value, *_need_tail(parser), None,
                                           *_at(tok.span)))
        elif parser.accept(IDENT, "records"):
            parser.expect(LBRACE)
            while not parser.accept(RBRACE):
                if parser.at(EOF):
                    raise _SyntaxError(parse_problem(parser.current.span, "'}'", EOF))
                tok = parser.expect(
                    INFO_REF, expected="an information item (|name|) or '}'")
                recorded.append(ProduceClause(tok.value, *_product_tail(parser),
                                              *_at(tok.span)))
        elif parser.accept(IDENT, "hazards"):
            item = parser.expect(INFO_REF).value
            parser.expect(LBRACE)
            while not parser.accept(RBRACE):
                if parser.at(EOF):
                    raise _SyntaxError(parse_problem(parser.current.span, "'}'", EOF))
                span = parser.current.span
                guide_word = parser.guide_word_token()
                consequence = parser.expect(STRING).value
                severity = Severity.NONE
                if parser.accept(IDENT, "severity"):
                    severity = parser.severity_token()
                hazards.append(HazardClause(item, guide_word, consequence, severity,
                                            None, *_at(span)))
        else:
            raise parser.fail("a block keyword (needs, records, hazards) or '}'")

    return ElicitationRecord(responsibility, meta["by"], meta["date"], tuple(needs),
                             tuple(recorded), tuple(hazards), *_at(start.span))


# ---------------------------------------------------------------------------
# .reqs parsing
# ---------------------------------------------------------------------------


def parse_requirements(text: str, filename: str = "<string>") -> list[RequirementRecord]:
    """Parse a ``.reqs`` document, preserving authored order."""
    tokens, errors = _scan(text, filename)
    parser = _Parser(tokens)
    records: list[RequirementRecord] = []
    seen_ids: dict[str, SourceSpan] = {}

    while not parser.at(EOF):
        start = parser.pos
        try:
            parser.expect(IDENT, "requirement", expected="'requirement'")
            if parser.at(IDENT) and parser.current.value in seen_ids:
                raise parser.fail("a unique requirement id",
                                  f"duplicate {parser.current.value!r}")
            id_tok = parser.expect(IDENT, expected="a requirement id")
            seen_ids[id_tok.value] = id_tok.span
            parser.expect(LBRACE)
            parser.expect(IDENT, "text", expected="'text'")
            req_text = parser.expect(STRING).value
            parser.expect(IDENT, "rationale", expected="'rationale'")
            rationale = parser.expect(STRING).value
            traces: list[TraceRef] = []
            while parser.accept(IDENT, "traces"):
                traces.append(_parse_trace(parser))
            parser.expect(RBRACE)
            records.append(RequirementRecord(
                id=id_tok.value, text=req_text, rationale=rationale,
                traces=tuple(traces)))
        except _SyntaxError as exc:
            if not errors or errors[-1].span != exc.error.span:  # one per token
                errors.append(exc.error)
            parser.pos = max(parser.pos, start + 1)
            parser.skip_to_toplevel(("requirement",))

    _finish(errors)
    return records


def _parse_trace(parser: _Parser) -> TraceRef:
    if parser.at(INFO_REF):
        return TraceRef("information", parser.advance().value)
    if parser.at(AGENT_REF):
        return TraceRef("agent", parser.advance().value)
    if parser.at(PHYS_REF):
        return TraceRef("physical", parser.advance().value)
    if parser.accept(IDENT, "responsibility"):
        return TraceRef("responsibility", parser.expect(STRING).value.strip())
    if parser.accept(IDENT, "hazard"):
        item = parser.expect(INFO_REF).value
        guide_word = parser.guide_word_token()
        return TraceRef("hazard", item, guide_word)
    raise parser.fail("a trace target (|info|, <agent>, [physical], "
                      "responsibility \"name\", or hazard |info| GUIDEWORD)")

