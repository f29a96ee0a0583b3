"""Parser and canonical printer for the textual model formats.

Three file formats share one tokenizer:

* ``.resp``    -- responsibility models
* ``.answers`` -- structured elicitation answers
* ``.reqs``    -- requirement records with trace links

Element references reuse the diagram notation literally: agent names in
angle brackets, physical resources in square brackets, information
resources between vertical bars.  Reference names are taken verbatim minus
leading/trailing whitespace; there is no escape mechanism inside them, so
``>`` cannot appear in an agent name, ``]`` in a physical resource name or
``|`` in an information resource name.  Strings are double-quoted with
``\\"`` and ``\\\\`` as the only escapes.

The tokenizer is one compiled master regex, as in the "Writing a
Tokenizer" recipe of the ``re`` documentation.  No token spans a line, so
it runs ``match(line, pos)`` over ``text.split("\\n")``: the line number
comes from that loop and each column is the token's offset plus one.  Only
``\\n`` ends a line; ``\\r``, ``\\x0b`` and ``\\u2028`` are ordinary
characters.  Each scan error (a bad escape, an unterminated string or
reference, an empty reference name, a run of characters that starts no
token) is its own alternative of the regex.

Parsers recover at top-level declaration boundaries, so at least the first
error of each declaration is reported rather than only the first error of
the file.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .model import (
    AgentKind,
    ElicitationRecord,
    GuideWord,
    GUIDE_WORD_TOKENS,
    HazardAnswer,
    Model,
    NeedAnswer,
    RecordAnswer,
    RequirementRecord,
    ResourceKind,
    Severity,
    SEVERITY_TOKENS,
    TraceRef,
)

# ---------------------------------------------------------------------------
# Errors and spans
# ---------------------------------------------------------------------------
# Spans, errors, declarations and clauses are named tuples, as tokens are: the
# cheapest immutable value to make, one per token or clause.  Equal fields
# compare equal across classes, so declaration kinds are told by isinstance.


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(NamedTuple):
    span: SourceSpan
    expected: str
    found: str

    def render(self) -> str:
        return f"{self.span}: error: expected {self.expected}, found {self.found}"


class ParseFailure(ValueError):
    """Raised when a document could not be parsed; carries every error."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("\n".join(e.render() for e in self.errors))


# ---------------------------------------------------------------------------
# Declarations produced by parse_model
# ---------------------------------------------------------------------------


class ModelDecl(NamedTuple):
    name: str
    span: SourceSpan


class AgentDecl(NamedTuple):
    name: str
    kind: Optional[AgentKind]
    span: SourceSpan


class ResourceDecl(NamedTuple):
    name: str
    kind: ResourceKind
    span: SourceSpan


class ChannelDecl(NamedTuple):
    name: str
    medium: Optional[str]
    backup_of: Optional[str]
    span: SourceSpan


class AssignClause(NamedTuple):
    agents: tuple[str, ...]
    span: SourceSpan


class RequireClause(NamedTuple):
    resource: str
    sources: tuple[str, ...]
    channels: tuple[str, ...]
    criticality: Optional[Severity]
    span: SourceSpan


class ProduceClause(NamedTuple):
    resource: str
    channels: tuple[str, ...]
    rationale: Optional[str]
    span: SourceSpan


class UseClause(NamedTuple):
    resource: str
    span: SourceSpan


class HazardClause(NamedTuple):
    item: str
    guide_word: GuideWord
    consequence: str
    severity: Severity
    mitigated_by: Optional[str]
    span: SourceSpan


class PrecedesClause(NamedTuple):
    target: str
    span: SourceSpan


class NoteClause(NamedTuple):
    text: str
    span: SourceSpan


Clause = Union[AssignClause, RequireClause, ProduceClause, UseClause,
               HazardClause, PrecedesClause, NoteClause]


class ResponsibilityDecl(NamedTuple):
    name: str
    items: tuple[Clause, ...]
    span: SourceSpan


Declaration = Union[ModelDecl, AgentDecl, ResourceDecl, ChannelDecl,
                    ResponsibilityDecl]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

STRING = "string"
IDENT = "identifier"
AGENT_REF = "agent reference"
PHYS_REF = "physical resource reference"
INFO_REF = "information resource reference"
LBRACE = "'{'"
RBRACE = "'}'"
COMMA = "','"
EOF = "end of file"

_KINDS = {"ident": IDENT, "lbrace": LBRACE, "rbrace": RBRACE, "comma": COMMA,
          "string": STRING, "agent": AGENT_REF, "phys": PHYS_REF, "info": INFO_REF}
_CLOSERS = {"<": ">", "[": "]", "|": "|"}

# A run of characters that starts no token, up to the next delimiter.
_RUN = re.compile(r'[^ \t\r#{},"<\[|]+')
# Group 1 holds the blanks before the token.  Then one alternative per token
# kind and per scan error, tried in order.  Lines hold no "\n", so ".*" runs
# to the end of the line.  \w is str.isalnum() plus "_" and \s is
# str.isspace(), so reference names come out stripped.  [^\W\d] also admits
# numerals such as "²" and "Ⅻ", which _scan rejects with isalpha().
_TOKEN = re.compile(r"""
    ([ \t\r]*)
    (?:
      (?P<end>\#|\Z)
    | (?P<ident>[^\W\d][\w-]*)
    | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<comma>,)
    | "(?P<string>[^"\\]*(?:\\["\\][^"\\]*)*)"
    | "(?P<bad_escape>[^"\\]*(?:\\.[^"\\]*)*)"
    | "(?P<open_string>.*)
    | <\s*(?P<agent>[^>]*[^\s>])\s*>
    | \[\s*(?P<phys>[^\]]*[^\s\]])\s*]
    | \|\s*(?P<info>[^|]*[^\s|])\s*\|
    | (?P<empty_ref><\s*>|\[\s*]|\|\s*\|)
    | (?P<open_ref>[<\[|]).*
    | (?P<run>""" + _RUN.pattern + r""")
    )""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.?)")
_VALID_ESCAPE = re.compile(r'\\(["\\])')


class Token(NamedTuple):
    kind: str
    value: str
    span: SourceSpan

    def describe(self) -> str:
        if self.kind == EOF:
            return EOF
        return f"{self.kind} {self.value!r}" if self.value else self.kind


def _scan(text: str, filename: str) -> tuple[list[Token], list[ParseError]]:
    """Tokenize, recovering from bad characters and unterminated literals.

    A bad token is reported and skipped: an invalid run up to the next
    delimiter, an unterminated string or reference to the end of its line,
    so later declarations still get tokenized and parsed.
    """
    tokens: list[Token] = []
    errors: list[ParseError] = []
    lines = text.split("\n")
    for number, line in enumerate(lines, 1):
        pos = 0
        while True:
            m = _TOKEN.match(line, pos)
            start, group = m.end(1), m.lastgroup
            if group == "end":
                break
            pos = m.end()
            value = m[group]
            if group == "ident" and not (value[0].isalpha() or value[0] == "_"):
                group, pos = "run", _RUN.match(line, start).end()
                value = line[start:pos]
            span = SourceSpan(filename, number, start + 1)
            if group in _KINDS:
                if group == "string" and "\\" in value:
                    value = _VALID_ESCAPE.sub(r"\1", value)
                tokens.append(Token(_KINDS[group], value, span))
            elif group in ("bad_escape", "open_string"):
                for escape in _ESCAPE.finditer(value):
                    if escape[1] not in ('"', "\\"):
                        errors.append(ParseError(
                            SourceSpan(filename, number, start + 2 + escape.start()),
                            "escape '\\\"' or '\\\\'",
                            f"'\\{escape[1]}'" if escape[1]
                            else EOF if number == len(lines) else "end of line"))
                if group == "bad_escape":
                    tokens.append(Token(STRING, _VALID_ESCAPE.sub(r"\1", value), span))
                else:
                    errors.append(ParseError(span, "closing '\"'", "end of line"))
            elif group == "empty_ref":
                errors.append(ParseError(
                    span, f"a name inside '{value[0]}{value[-1]}'", "nothing"))
            elif group == "open_ref":
                errors.append(ParseError(
                    span, f"closing '{_CLOSERS[value]}'", "end of line"))
            else:
                errors.append(ParseError(span, "a valid token", repr(value)))
    tokens.append(Token(EOF, "", SourceSpan(filename, number, start + 1)))
    return tokens, errors


# ---------------------------------------------------------------------------
# Parser core
# ---------------------------------------------------------------------------


class _SyntaxError(Exception):
    def __init__(self, error: ParseError):
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
        raise _SyntaxError(ParseError(self.current.span, wanted, self.current.describe()))

    def expect_keyword(self, word: str) -> Token:
        return self.expect(IDENT, word, expected=f"'{word}'")

    def fail(self, expected: str) -> "_SyntaxError":
        return _SyntaxError(ParseError(self.current.span, expected, self.current.describe()))

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
        tok = self.expect(IDENT, expected=f"a severity ({SEVERITY_TOKENS})")
        try:
            return Severity.from_token(tok.value)
        except ValueError:
            raise _SyntaxError(ParseError(
                tok.span, f"one of {SEVERITY_TOKENS}", f"{tok.value!r}"))

    def guide_word_token(self) -> GuideWord:
        tok = self.expect(IDENT, expected=f"a guide word ({GUIDE_WORD_TOKENS})")
        try:
            return GuideWord.from_token(tok.value)
        except ValueError:
            raise _SyntaxError(ParseError(
                tok.span, f"one of {GUIDE_WORD_TOKENS}", f"{tok.value!r}"))


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


def _finish(errors: list[ParseError]) -> None:
    if errors:
        errors.sort(key=lambda e: e.span)
        raise ParseFailure(errors)


# ---------------------------------------------------------------------------
# .resp parsing
# ---------------------------------------------------------------------------

_RESP_TOPLEVEL = ("model", "agent", "resource", "channel", "responsibility")
_AGENT_KINDS = ", ".join(k.value for k in AgentKind)


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
                declarations.append(ModelDecl(name.strip(), tok.span))
                saw_model = True
            elif tok.value == "agent":
                parser.advance()
                name = parser.expect(AGENT_REF).value
                kind: Optional[AgentKind] = None
                if parser.accept(IDENT, "kind"):
                    kind_tok = parser.expect(IDENT, expected=f"one of {_AGENT_KINDS}")
                    try:
                        kind = AgentKind(kind_tok.value)
                    except ValueError:
                        raise _SyntaxError(ParseError(
                            kind_tok.span, f"one of {_AGENT_KINDS}",
                            f"{kind_tok.value!r}"))
                declarations.append(AgentDecl(name, kind, tok.span))
            elif tok.value == "resource":
                parser.advance()
                if parser.at(PHYS_REF):
                    ref = parser.advance()
                    declarations.append(
                        ResourceDecl(ref.value, ResourceKind.PHYSICAL, tok.span))
                elif parser.at(INFO_REF):
                    ref = parser.advance()
                    declarations.append(
                        ResourceDecl(ref.value, ResourceKind.INFORMATION, tok.span))
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
                declarations.append(ChannelDecl(name, medium, backup_of, tok.span))
            elif tok.value == "responsibility":
                declarations.append(_parse_responsibility(parser))
            else:
                raise parser.fail("a declaration keyword "
                                  "(model, agent, resource, channel, responsibility)")
            saw_other = saw_other or tok.value != "model"
        except _SyntaxError as exc:
            errors.append(exc.error)
            if not parser.at(EOF):
                parser.advance()
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
            raise _SyntaxError(ParseError(parser.current.span, "'}'", EOF))
        tok = parser.current
        if tok.kind != IDENT:
            raise parser.fail("an item keyword (assigned, requires, produces, "
                              "uses, hazard, precedes, note) or '}'")
        word = tok.value
        if word == "responsibility":
            raise _SyntaxError(ParseError(
                tok.span, "'}' before the next responsibility "
                "(responsibility blocks do not nest)", tok.describe()))
        if word == "assigned":
            parser.advance()
            parser.expect_keyword("to")
            agents = parser.comma_list(AGENT_REF)
            items.append(AssignClause(agents, tok.span))
        elif word == "requires":
            parser.advance()
            resource = parser.expect(INFO_REF).value
            sources, channels = _need_tail(parser)
            criticality = None
            if parser.accept(IDENT, "criticality"):
                criticality = parser.severity_token()
            items.append(RequireClause(resource, sources, channels, criticality, tok.span))
        elif word == "produces":
            parser.advance()
            resource = parser.expect(INFO_REF).value
            items.append(ProduceClause(resource, *_product_tail(parser), tok.span))
        elif word == "uses":
            parser.advance()
            resource = parser.expect(PHYS_REF).value
            items.append(UseClause(resource, tok.span))
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
                                      mitigated_by, tok.span))
        elif word == "precedes":
            parser.advance()
            target = parser.expect(STRING).value.strip()
            items.append(PrecedesClause(target, tok.span))
        elif word == "note":
            parser.advance()
            items.append(NoteClause(parser.expect(STRING).value, tok.span))
        else:
            raise parser.fail("an item keyword (assigned, requires, produces, "
                              "uses, hazard, precedes, note) or '}'")
    return ResponsibilityDecl(name, tuple(items), start.span)


# ---------------------------------------------------------------------------
# .answers parsing
# ---------------------------------------------------------------------------


def parse_answers(text: str, filename: str = "<string>") -> list[ElicitationRecord]:
    """Parse a ``.answers`` document into one record per elicitation session."""
    tokens, errors = _scan(text, filename)
    parser = _Parser(tokens)
    records: list[ElicitationRecord] = []

    while not parser.at(EOF):
        try:
            records.append(_parse_session(parser))
        except _SyntaxError as exc:
            errors.append(exc.error)
            if not parser.at(EOF):
                parser.advance()
            parser.skip_to_toplevel(("elicitation",))

    _finish(errors)
    return records


def _parse_session(parser: _Parser) -> ElicitationRecord:
    parser.expect(IDENT, "elicitation", expected="'elicitation'")
    responsibility = parser.expect(STRING).value.strip()
    by = None
    date = None
    while parser.at_keyword("by", "date"):
        which = parser.advance().value
        value = parser.expect(STRING).value
        if which == "by":
            by = value
        else:
            date = value
    parser.expect(LBRACE)

    needs: list[NeedAnswer] = []
    recorded: list[RecordAnswer] = []
    hazards: list[HazardAnswer] = []

    while not parser.accept(RBRACE):
        if parser.at(EOF):
            raise _SyntaxError(ParseError(parser.current.span, "'}'", EOF))
        if parser.accept(IDENT, "needs"):
            parser.expect(LBRACE)
            while not parser.accept(RBRACE):
                if parser.at(EOF):
                    raise _SyntaxError(ParseError(parser.current.span, "'}'", EOF))
                resource = parser.expect(
                    INFO_REF, expected="an information item (|name|) or '}'").value
                needs.append(NeedAnswer(resource, *_need_tail(parser)))
        elif parser.accept(IDENT, "records"):
            parser.expect(LBRACE)
            while not parser.accept(RBRACE):
                if parser.at(EOF):
                    raise _SyntaxError(ParseError(parser.current.span, "'}'", EOF))
                resource = parser.expect(
                    INFO_REF, expected="an information item (|name|) or '}'").value
                recorded.append(RecordAnswer(resource, *_product_tail(parser)))
        elif parser.accept(IDENT, "hazards"):
            item = parser.expect(INFO_REF).value
            parser.expect(LBRACE)
            while not parser.accept(RBRACE):
                if parser.at(EOF):
                    raise _SyntaxError(ParseError(parser.current.span, "'}'", EOF))
                guide_word = parser.guide_word_token()
                consequence = parser.expect(STRING).value
                severity = Severity.NONE
                if parser.accept(IDENT, "severity"):
                    severity = parser.severity_token()
                hazards.append(HazardAnswer(item, guide_word, consequence, severity))
        else:
            raise parser.fail("a block keyword (needs, records, hazards) or '}'")

    return ElicitationRecord(
        responsibility=responsibility,
        by=by,
        date=date,
        needs=tuple(needs),
        records=tuple(recorded),
        hazards=tuple(hazards),
    )


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
        try:
            parser.expect(IDENT, "requirement", expected="'requirement'")
            id_tok = parser.expect(IDENT, expected="a requirement id")
            if id_tok.value in seen_ids:
                raise _SyntaxError(ParseError(
                    id_tok.span, "a unique requirement id",
                    f"duplicate {id_tok.value!r}"))
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
            errors.append(exc.error)
            if not parser.at(EOF):
                parser.advance()
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


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def quote(value: str) -> str:
    if "\n" in value:
        raise ValueError(f"strings cannot span lines: {value!r}")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _ref(name: str, opener: str, closer: str) -> str:
    # No escape mechanism inside bracketed references.
    if closer in name or "\n" in name:
        raise ValueError(f"name {name!r} cannot appear inside {opener}{closer}")
    return f"{opener}{name}{closer}"


def _agent_refs(names: list[str]) -> str:
    return ", ".join(_ref(n, "<", ">") for n in names)


def _channel_refs(names: list[str]) -> str:
    return ", ".join(quote(n) for n in names)


def format_need_clause(model: Model, need, keyword: str = "requires",
                       with_criticality: bool = True) -> str:
    """Render one need as a DSL clause (shared by printer and skeletons).

    Answer files carry no criticality clause, so skeleton rendering turns
    it off.
    """
    ref = _ref(model.resource_name(need.resource), "|", "|")
    parts = [keyword, ref] if keyword else [ref]
    if need.sources:
        parts.append("from " + _agent_refs([model.agent_name(a) for a in need.sources]))
    if need.channels:
        parts.append("via " + _channel_refs([model.channel_name(c) for c in need.channels]))
    if with_criticality and getattr(need, "criticality", None) is not None:
        parts.append(f"criticality {need.criticality.token}")
    return " ".join(parts)


def format_product_clause(model: Model, product, keyword: str = "produces") -> str:
    ref = _ref(model.resource_name(product.resource), "|", "|")
    parts = [keyword, ref] if keyword else [ref]
    if product.channels:
        parts.append("via " + _channel_refs([model.channel_name(c) for c in product.channels]))
    if product.rationale:
        parts.append("rationale " + quote(product.rationale))
    return " ".join(parts)


def print_model(model: Model) -> str:
    """Canonical textual form of a model.

    Every element is declared explicitly, sections are separated by blank
    lines, responsibilities use two-space indentation with one clause per
    line.  The output re-parses to a model equal to the input.
    """
    blocks: list[str] = [f"model {quote(model.name)}"]

    if model.agents:
        blocks.append("\n".join(
            f"agent {_ref(a.name, '<', '>')} kind {a.kind.value}"
            for a in model.agents))
    if model.resources:
        lines = []
        for resource in model.resources:
            ref = (_ref(resource.name, "[", "]")
                   if resource.kind is ResourceKind.PHYSICAL
                   else _ref(resource.name, "|", "|"))
            lines.append(f"resource {ref}")
        blocks.append("\n".join(lines))
    if model.channels:
        lines = []
        for channel in model.channels:
            line = f"channel {quote(channel.name)}"
            if channel.medium:
                line += f" medium {channel.medium}"
            if channel.backup_of:
                line += f" backup_of {quote(model.channel_name(channel.backup_of))}"
            lines.append(line)
        blocks.append("\n".join(lines))

    links_by_source: dict[str, list[str]] = {}
    for source, target in model.sequence_links:
        links_by_source.setdefault(source, []).append(target)

    for resp in model.responsibilities:
        lines = [f"responsibility {quote(resp.name)} {{"]
        if resp.assigned_to:
            lines.append("  assigned to "
                         + _agent_refs([model.agent_name(a) for a in resp.assigned_to]))
        for need in resp.needs:
            lines.append("  " + format_need_clause(model, need))
        for product in resp.products:
            lines.append("  " + format_product_clause(model, product))
        for used in resp.uses:
            lines.append("  uses " + _ref(model.resource_name(used), "[", "]"))
        for entry in resp.hazards:
            line = ("  hazard " + _ref(model.resource_name(entry.item), "|", "|")
                    + f" {entry.guide_word.value} {quote(entry.consequence)}"
                    f" severity {entry.severity.token}")
            if entry.mitigation:
                line += f" mitigated_by {entry.mitigation}"
            lines.append(line)
        for target in links_by_source.get(resp.id, []):
            lines.append("  precedes "
                         + quote(model.responsibility_by_id(target).name))
        for note in resp.notes:
            lines.append("  note " + quote(note))
        lines.append("}")
        blocks.append("\n".join(lines))

    return "\n\n".join(blocks) + "\n"


def print_requirements(records: list[RequirementRecord]) -> str:
    """Render requirement records back to the ``.reqs`` syntax."""
    blocks = []
    for record in records:
        lines = [f"requirement {record.id} {{",
                 f"  text {quote(record.text)}",
                 f"  rationale {quote(record.rationale)}"]
        for trace in record.traces:
            lines.append(f"  traces {trace.render()}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
