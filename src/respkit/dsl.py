"""Parser and canonical printer for the textual model formats.

Three file formats share one tokenizer:

* ``.resp``    -- responsibility models
* ``.answers`` -- structured elicitation answers
* ``.reqs``    -- requirement records with trace links

An answers session parses into an ``ElicitationRecord`` whose ``needs``,
``records`` and ``hazards`` lines are the ``RequireClause``,
``ProduceClause`` and ``HazardClause`` of a ``.resp`` responsibility block:
one grammar for each line after its keyword, and one resolver in ``build``.

Element references reuse the diagram notation literally: agent names in
angle brackets, physical resources in square brackets, information
resources between vertical bars.  ``BRACKETS`` holds this rule: the
printers here and the DOT labels in ``reporting`` read it, and only the
scanner's master regex spells the brackets out.
Reference names are taken verbatim minus leading/trailing whitespace;
there is no escape mechanism inside them, so ``>`` cannot appear in an
agent name, ``]`` in a physical resource name or ``|`` in an information
resource name.  Strings are double-quoted with ``\\"`` and ``\\\\`` as the
only escapes.

The tokenizer is one compiled master regex, as in the "Writing a
Tokenizer" recipe of the ``re`` documentation, run by one ``finditer``
pass over the whole text.  It fills three parallel lists: each token's
kind, value and offset.  No token spans a line: only ``\\n`` ends one, and
``\\r``, ``\\x0b`` and ``\\u2028`` are ordinary characters.  Each scan error
(a bad escape, an unterminated string or reference, an empty reference
name, a run of characters that starts no token) is its own alternative of
the regex.

Each parse shares one ``Source`` record, the file name and the text, and
every declaration, clause and session it returns is a ``_node`` that
locates itself in that record.  The line-start table is built the first
time a span is resolved, and each span after that is one bisect, so a
document that parses and builds cleanly never computes a line number.
Scan and parse errors resolve their spans when they are found.

The parsers read the lists through an index: each parse function takes
the index of its first token and returns what it parsed with the index
after it.  They recover at top-level declaration boundaries, so at least
the first error of each declaration is reported rather than only the
first error of the file.

Printing mirrors parsing: each clause tail has one formatter, right after
the parse tail it mirrors, and ``print_model`` and
``elicitation.answers_skeleton`` both call it.  Only ``print_model`` adds
the ``.resp``-only ``criticality`` and ``mitigated_by``.  A trace target
has one formatter too, ``format_trace``, which ``print_requirements`` and
the requirement report and trace errors in ``reporting`` call.
"""

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional, Union

from .model import (
    AgentKind,
    GuideWord,
    GUIDE_WORD_TOKENS,
    GUIDE_WORDS_BY_TOKEN,
    HazardEntry,
    InfoNeed,
    InfoProduct,
    InputError,
    Model,
    Problem,
    RequirementRecord,
    ResourceKind,
    Severity,
    SEVERITIES,
    SEVERITY_TOKENS,
    TraceRef,
)

# ---------------------------------------------------------------------------
# Errors and spans
# ---------------------------------------------------------------------------
# Spans, declarations and clauses are named tuples: the cheapest immutable
# value to make, one per declaration or clause.  Equal fields compare equal
# across classes, so declaration kinds are told by type().


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int


@dataclass(frozen=True)
class Source:
    """The file name and text of one parsed document.

    Two records are equal when their file names and texts are.  The
    line-start table is built on first use and cached in the instance
    ``__dict__``, which equality and hashing never read.
    """

    filename: str
    text: str = field(repr=False)

    @cached_property
    def line_starts(self) -> list[int]:
        return [0, *accumulate(len(line) + 1 for line in self.text.split("\n"))]

    def span_at(self, offset: int) -> SourceSpan:
        """The line and column of ``offset``; only ``\\n`` ends a line."""
        starts = self.line_starts
        line = bisect_right(starts, offset)
        return SourceSpan(self.filename, line, offset - starts[line - 1] + 1)


def parse_problem(span: SourceSpan, expected: str, found: str) -> Problem:
    """The problem at ``span``, where ``expected`` was wanted and ``found``
    was met."""
    return Problem(span, f"expected {expected}, found {found}")


class ParseFailure(InputError):
    """Raised when a document could not be parsed; carries every problem."""


# ---------------------------------------------------------------------------
# Declarations produced by parse_model and sessions produced by parse_answers
# ---------------------------------------------------------------------------


_SPAN = property(lambda self: self.source.span_at(self.offset),
                 doc="Where the declaration or clause starts in its source.")


def _node(name: str, *fields: tuple[str, type]) -> type:
    """The named tuple ``name`` of ``fields``, then ``offset`` and ``source``:
    the offset of the node's first token and the record it was parsed from.
    Its ``span`` resolves the two to a ``SourceSpan`` only when it is read."""
    node = NamedTuple(name, [*fields, ("offset", int), ("source", Source)])
    node.span = _SPAN
    return node


ModelDecl = _node("ModelDecl", ("name", str))
AgentDecl = _node("AgentDecl", ("name", str), ("kind", Optional[AgentKind]))
ResourceDecl = _node("ResourceDecl", ("name", str), ("kind", ResourceKind))
ChannelDecl = _node("ChannelDecl", ("name", str), ("medium", Optional[str]),
                    ("backup_of", Optional[str]))
AssignClause = _node("AssignClause", ("agents", tuple[str, ...]))
RequireClause = _node("RequireClause", ("resource", str),
                      ("sources", tuple[str, ...]), ("channels", tuple[str, ...]),
                      ("criticality", Optional[Severity]))
ProduceClause = _node("ProduceClause", ("resource", str),
                      ("channels", tuple[str, ...]), ("rationale", Optional[str]))
UseClause = _node("UseClause", ("resource", str))
HazardClause = _node("HazardClause", ("item", str), ("guide_word", GuideWord),
                     ("consequence", str), ("severity", Severity),
                     ("mitigated_by", Optional[str]))
PrecedesClause = _node("PrecedesClause", ("target", str))
NoteClause = _node("NoteClause", ("text", str))

Clause = Union[AssignClause, RequireClause, ProduceClause, UseClause,
               HazardClause, PrecedesClause, NoteClause]

ResponsibilityDecl = _node("ResponsibilityDecl", ("name", str),
                           ("items", tuple[Clause, ...]))

Declaration = Union[ModelDecl, AgentDecl, ResourceDecl, ChannelDecl,
                    ResponsibilityDecl]

ElicitationRecord = _node(
    "ElicitationRecord", ("responsibility", str), ("by", Optional[str]),
    ("date", Optional[str]), ("needs", tuple[RequireClause, ...]),
    ("records", tuple[ProduceClause, ...]), ("hazards", tuple[HazardClause, ...]))
ElicitationRecord.__doc__ = (
    """Answers captured for one responsibility in one session.  Its
    ``needs``, ``records`` and ``hazards`` lines are ``requires``,
    ``produces`` and ``hazard`` clauses; an answers file gives them no
    criticality and no mitigation.""")


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
# Token kinds that name their one character, so an error names it once.
_PUNCTUATION = (LBRACE, RBRACE, COMMA)

#: The opening and closing bracket of each kind of element reference, by
#: the kind word of ``TraceRef.kind`` and ``ResourceKind.value``.
BRACKETS = {"agent": "<>", "physical": "[]", "information": "||"}

_KINDS = {"ident": IDENT, "lbrace": LBRACE, "rbrace": RBRACE, "comma": COMMA,
          "string": STRING, "agent": AGENT_REF, "phys": PHYS_REF, "info": INFO_REF}
# The kind word of each reference token.
_TRACE_REFS = {INFO_REF: "information", AGENT_REF: "agent", PHYS_REF: "physical"}

# A run of characters that starts no token, up to the next delimiter.
_RUN = re.compile(r'[^ \t\r\n#{},"<\[|]+')
# Group 1 holds the blanks before the token.  Then one alternative per token
# kind and per scan error, tried in order, the plain tokens first.  No token
# spans a line: "." stops at "\n", and every class that could run on
# excludes it.  \w is str.isalnum() plus "_" and \s is str.isspace(), so
# reference names come out stripped.  <word> also admits numerals such as
# "²" and "Ⅻ", which _odd_token rejects with isalpha().
_TOKEN = re.compile(r"""
    ([ \t\r\n]*)
    (?:
      (?P<ident>[A-Za-z_][\w-]*)
    | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<comma>,)
    | "(?P<string>[^"\\\n]*)"
    | <[^\S\n]*(?P<agent>[^>\n]*[^\s>])[^\S\n]*>
    | \[[^\S\n]*(?P<phys>[^\]\n]*[^\s\]])[^\S\n]*]
    | \|[^\S\n]*(?P<info>[^|\n]*[^\s|])[^\S\n]*\|
    | (?P<end>\#.*|\Z)
    | (?P<word>[^\W\d][\w-]*)
    | "(?P<escaped>[^"\\\n]*(?:\\.[^"\\\n]*)*)"
    | "(?P<open_string>.*)
    | (?P<empty_ref><[^\S\n]*>|\[[^\S\n]*]|\|[^\S\n]*\|)
    | (?P<open_ref>[<\[|]).*
    | (?P<run>""" + _RUN.pattern + r""")
    )""", re.VERBOSE)
# The token kind of each group of _TOKEN by group number, or None.
_GROUP_NAMES = {index: name for name, index in _TOKEN.groupindex.items()}
_KIND_AT = [_KINDS.get(_GROUP_NAMES.get(i)) for i in range(_TOKEN.groups + 1)]
_END = _TOKEN.groupindex["end"]
_ESCAPE = re.compile(r"\\(.?)")
_VALID_ESCAPE = re.compile(r'\\(["\\])')


class _SyntaxError(Exception):
    """A parse problem, and the index of the token it names."""

    def __init__(self, problem: Problem, at: int):
        self.problem = problem
        self.at = at


class _Tokens:
    """A scanned document: its source, the kind, value and offset of each
    token in three parallel lists that end in one EOF token, and the scan
    errors."""

    def __init__(self, text: str, filename: str):
        self.source = Source(filename, text)
        self.kinds: list[str] = []
        self.values: list[str] = []
        self.offsets: list[int] = []
        self.errors: list[Problem] = []

    def span(self, i: int) -> SourceSpan:
        return self.source.span_at(self.offsets[i])

    def fail(self, i: int, expected: str) -> _SyntaxError:
        """The error for token ``i`` where ``expected`` was wanted."""
        kind, value = self.kinds[i], self.values[i]
        found = f"{kind} {value!r}" if value and kind not in _PUNCTUATION else kind
        return _SyntaxError(parse_problem(self.span(i), expected, found), i)


def _scan(text: str, filename: str) -> _Tokens:
    """Tokenize, recovering from bad characters and unterminated literals.

    A bad token is reported and skipped: an invalid run up to the next
    delimiter, an unterminated string or reference to the end of its line,
    so later declarations still get tokenized and parsed.
    """
    tokens = _Tokens(text, filename)
    add_kind, add_value = tokens.kinds.append, tokens.values.append
    add_offset, kind_at = tokens.offsets.append, _KIND_AT
    matches = _TOKEN.finditer(text)
    for m in matches:
        group = m.lastindex
        kind = kind_at[group]
        if kind is not None:
            add_kind(kind)
            add_value(m[group])
            add_offset(m.end(1))
        elif group != _END:
            token = _odd_token(tokens, m, matches)
            if token is not None:
                add_kind(token[0])
                add_value(token[1])
                add_offset(m.end(1))
        elif m.end() == len(text):  # a comment on the last line, or the end
            break
    add_kind(EOF)
    add_value("")
    add_offset(m.end(1))
    return tokens


def _odd_token(tokens: _Tokens, m: re.Match, matches) -> Optional[tuple[str, str]]:
    """The token of a match that needs more than its group, or None after
    reporting a scan error: an identifier that starts outside ASCII, a
    string with escapes, a bad token."""
    group, start = m.lastgroup, m.end(1)
    value, text, span_at = m[group], tokens.source.text, tokens.source.span_at
    if group == "word":
        if value[0].isalpha():
            return IDENT, value
        end = _RUN.match(text, start).end()
        while m.end() < end:  # skip the rest of the run
            m = next(matches)
        group, value = "run", text[start:end]
    elif group in ("escaped", "open_string"):
        for escape in _ESCAPE.finditer(value):
            if escape[1] not in ('"', "\\"):
                tokens.errors.append(parse_problem(
                    span_at(start + 1 + escape.start()),
                    "escape '\\\"' or '\\\\'",
                    f"'\\{escape[1]}'" if escape[1]
                    else EOF if m.end() == len(text) else "end of line"))
        if group == "escaped":
            return STRING, _VALID_ESCAPE.sub(r"\1", value)
    if group == "open_string":
        expected, found = "closing '\"'", "end of line"
    elif group == "empty_ref":
        expected, found = f"a name inside '{value[0]}{value[-1]}'", "nothing"
    elif group == "open_ref":
        expected, found = f"closing '{dict(BRACKETS.values())[value]}'", "end of line"
    else:
        expected, found = "a valid token", repr(value)
    tokens.errors.append(parse_problem(span_at(start), expected, found))
    return None


# ---------------------------------------------------------------------------
# Parser core
# ---------------------------------------------------------------------------
# Each parse function takes the tokens and the index of its first token and
# returns what it parsed with the index after it.  A token is read as
# ``kinds[i]`` and ``values[i]``; index ``i + 1`` is only read once token
# ``i`` is known not to be the EOF token, so no read runs off the end.


def _parse_all(text: str, filename: str, parse_one, keywords: tuple[str, ...]) -> list:
    """``parse_one`` repeated to the end of ``text``.  After an error,
    resume at the token the error stands at, or at the one after the
    declaration's first if that is later, then skip to the next of
    ``keywords`` outside braces; raise ParseFailure at the end with every
    error, at most one a token."""
    tokens = _scan(text, filename)
    kinds, values, errors = tokens.kinds, tokens.values, tokens.errors
    results = []
    i = 0
    while kinds[i] != EOF:
        try:
            result, i = parse_one(tokens, i)
            results.append(result)
        except _SyntaxError as exc:
            if not errors or errors[-1].span != exc.problem.span:
                errors.append(exc.problem)
            i = max(exc.at, i + 1)  # i is still the declaration's first token
            depth = 0
            while kinds[i] != EOF:
                kind = kinds[i]
                if kind == LBRACE:
                    depth += 1
                elif kind == RBRACE:
                    depth = max(0, depth - 1)
                elif depth == 0 and kind == IDENT and values[i] in keywords:
                    break
                i += 1
    if errors:
        errors.sort(key=lambda e: e.span)
        raise ParseFailure(errors)
    return results


def _expect(tokens: _Tokens, i: int, kind: str, expected: Optional[str] = None) -> str:
    """The value of token ``i``, which must be a ``kind``."""
    if tokens.kinds[i] != kind:
        raise tokens.fail(i, expected or kind)
    return tokens.values[i]


def _keyword(tokens: _Tokens, i: int, word: str) -> None:
    if tokens.values[i] != word or tokens.kinds[i] != IDENT:
        raise tokens.fail(i, f"'{word}'")


def _member(tokens: _Tokens, i: int, members: dict, expected: str, choices: str):
    """The member that identifier ``i`` names exactly, one of ``choices``."""
    value = _expect(tokens, i, IDENT, expected)
    if value not in members:
        raise _SyntaxError(parse_problem(
            tokens.span(i), f"one of {choices}", repr(value)), i)
    return members[value]


_AGENT_KINDS = ", ".join(k.value for k in AgentKind)
_AGENT_KIND = ({k.value: k for k in AgentKind}, f"one of {_AGENT_KINDS}", _AGENT_KINDS)
_SEVERITY = (SEVERITIES, f"a severity ({SEVERITY_TOKENS})", SEVERITY_TOKENS)
_GUIDE_WORD = (GUIDE_WORDS_BY_TOKEN, f"a guide word ({GUIDE_WORD_TOKENS})",
               GUIDE_WORD_TOKENS)


def _list(tokens: _Tokens, i: int, kind: str) -> tuple[tuple[str, ...], int]:
    """``item, item, ...``, each a ``kind``."""
    kinds = tokens.kinds
    items = [_expect(tokens, i, kind)]
    while kinds[i + 1] == COMMA:
        i += 2
        items.append(_expect(tokens, i, kind))
    return tuple(items), i + 1


def _channels(tokens: _Tokens, i: int) -> tuple[tuple[str, ...], int]:
    if tokens.values[i] == "via" and tokens.kinds[i] == IDENT:
        names, i = _list(tokens, i + 1, STRING)
        return tuple(map(str.strip, names)), i
    return (), i


def _via(model: Model, channels: tuple[str, ...]) -> str:
    """`` via "channel", ...`` as ``_channels`` reads it, or nothing."""
    if not channels:
        return ""
    return " via " + ", ".join(quote(model.channel_name(c)) for c in channels)


def _need_tail(tokens: _Tokens, i: int):
    """``[from <agent>, ...] [via "channel", ...]`` after a needed item, in
    a ``requires`` clause and an answers ``needs`` line alike."""
    sources = ()
    if tokens.values[i] == "from" and tokens.kinds[i] == IDENT:
        sources, i = _list(tokens, i + 1, AGENT_REF)
    channels, i = _channels(tokens, i)
    return sources, channels, i


def format_need_tail(model: Model, need: InfoNeed) -> str:
    """``|item| [from <agent>, ...] [via "channel", ...]``, read by ``_need_tail``."""
    text = format_ref(model.resource_name(need.resource), "information")
    if need.sources:
        text += " from " + ", ".join(format_ref(model.agent_name(a), "agent")
                                     for a in need.sources)
    return text + _via(model, need.channels)


def _product_tail(tokens: _Tokens, i: int):
    """``[via "channel", ...] [rationale "why"]`` after a produced item, in a
    ``produces`` clause and an answers ``records`` line alike."""
    channels, i = _channels(tokens, i)
    if tokens.values[i] == "rationale" and tokens.kinds[i] == IDENT:
        return channels, _expect(tokens, i + 1, STRING), i + 2
    return channels, None, i


def format_product_tail(model: Model, product: InfoProduct) -> str:
    """``|item| [via "channel", ...] [rationale "why"]``, read by ``_product_tail``."""
    text = format_ref(model.resource_name(product.resource), "information")
    text += _via(model, product.channels)
    if product.rationale is not None:
        text += " rationale " + quote(product.rationale)
    return text


def _hazard_tail(tokens: _Tokens, i: int):
    """``GUIDEWORD "consequence" [severity LEVEL]``, after the item in a
    ``hazard`` clause and as an answers ``hazards`` line alike."""
    guide_word = _member(tokens, i, *_GUIDE_WORD)
    consequence = _expect(tokens, i + 1, STRING)
    i += 2
    if tokens.values[i] == "severity" and tokens.kinds[i] == IDENT:
        return guide_word, consequence, _member(tokens, i + 1, *_SEVERITY), i + 2
    return guide_word, consequence, Severity.NONE, i


def format_hazard_tail(entry: HazardEntry) -> str:
    """``GUIDEWORD "consequence" severity LEVEL``, read by ``_hazard_tail``."""
    return (f"{entry.guide_word.value} {quote(entry.consequence)}"
            f" severity {entry.severity.token}")


# ---------------------------------------------------------------------------
# .resp parsing
# ---------------------------------------------------------------------------

_RESP_TOPLEVEL = ("model", "agent", "resource", "channel", "responsibility")
_DECLARATION = ("a declaration keyword "
                "(model, agent, resource, channel, responsibility)")
_ITEM = ("an item keyword (assigned, requires, produces, uses, hazard, "
         "precedes, note) or '}'")


def parse_model(text: str, filename: str = "<string>") -> list[Declaration]:
    """Parse a ``.resp`` document into declarations.

    Raises ParseFailure carrying every recovered error.
    """
    return _parse_all(text, filename, _declaration, _RESP_TOPLEVEL)


def _declaration(tokens: _Tokens, i: int) -> tuple[Declaration, int]:
    kinds, values = tokens.kinds, tokens.values
    at, source = tokens.offsets[i], tokens.source
    word = values[i] if kinds[i] == IDENT else None
    if word == "responsibility":
        return _responsibility(tokens, i)
    if word == "agent":
        name, kind, j = _expect(tokens, i + 1, AGENT_REF), None, i + 2
        if values[j] == "kind" and kinds[j] == IDENT:
            kind, j = _member(tokens, j + 1, *_AGENT_KIND), j + 2
        return AgentDecl(name, kind, at, source), j
    if word == "resource":
        if kinds[i + 1] not in (PHYS_REF, INFO_REF):
            raise tokens.fail(i + 1, "a resource reference ([name] or |name|)")
        kind = ResourceKind(_TRACE_REFS[kinds[i + 1]])
        return ResourceDecl(values[i + 1], kind, at, source), i + 2
    if word == "channel":
        name, medium, backup_of, j = _expect(tokens, i + 1, STRING), None, None, i + 2
        if values[j] == "medium" and kinds[j] == IDENT:
            medium, j = _expect(tokens, j + 1, IDENT, "a medium token"), j + 2
        if values[j] == "backup_of" and kinds[j] == IDENT:
            backup_of, j = _expect(tokens, j + 1, STRING).strip(), j + 2
        return ChannelDecl(name.strip(), medium, backup_of, at, source), j
    if word == "model":
        # Every earlier declaration, good or bad, moved the parser on.
        if i > 0:
            raise tokens.fail(i, "at most one model declaration, first in the file")
        return ModelDecl(_expect(tokens, i + 1, STRING).strip(), at, source), i + 2
    raise tokens.fail(i, _DECLARATION)


def _responsibility(tokens: _Tokens, i: int) -> tuple[ResponsibilityDecl, int]:
    kinds, values, offsets, source = (tokens.kinds, tokens.values, tokens.offsets,
                                      tokens.source)
    name = _expect(tokens, i + 1, STRING).strip()
    if kinds[i + 2] != LBRACE:
        raise tokens.fail(i + 2, LBRACE)
    start, i = offsets[i], i + 3
    items: list[Clause] = []
    add = items.append
    while kinds[i] != RBRACE:
        if kinds[i] != IDENT:
            raise tokens.fail(i, "'}'" if kinds[i] == EOF else _ITEM)
        word, at = values[i], offsets[i]
        if word == "requires":
            resource = _expect(tokens, i + 1, INFO_REF)
            sources, channels, i = _need_tail(tokens, i + 2)
            criticality = None
            if values[i] == "criticality" and kinds[i] == IDENT:
                criticality, i = _member(tokens, i + 1, *_SEVERITY), i + 2
            add(RequireClause(resource, sources, channels, criticality, at, source))
        elif word == "produces":
            resource = _expect(tokens, i + 1, INFO_REF)
            channels, rationale, i = _product_tail(tokens, i + 2)
            add(ProduceClause(resource, channels, rationale, at, source))
        elif word == "assigned":
            _keyword(tokens, i + 1, "to")
            agents, i = _list(tokens, i + 2, AGENT_REF)
            add(AssignClause(agents, at, source))
        elif word == "hazard":
            item = _expect(tokens, i + 1, INFO_REF)
            guide_word, consequence, severity, i = _hazard_tail(tokens, i + 2)
            mitigated_by = None
            if values[i] == "mitigated_by" and kinds[i] == IDENT:
                mitigated_by = _expect(tokens, i + 1, IDENT, "a requirement id")
                i += 2
            add(HazardClause(item, guide_word, consequence, severity,
                             mitigated_by, at, source))
        elif word == "uses":
            add(UseClause(_expect(tokens, i + 1, PHYS_REF), at, source))
            i += 2
        elif word == "precedes":
            add(PrecedesClause(_expect(tokens, i + 1, STRING).strip(), at, source))
            i += 2
        elif word == "note":
            add(NoteClause(_expect(tokens, i + 1, STRING), at, source))
            i += 2
        elif word == "responsibility":
            raise tokens.fail(i, "'}' before the next responsibility "
                                 "(responsibility blocks do not nest)")
        else:
            raise tokens.fail(i, _ITEM)
    return ResponsibilityDecl(name, tuple(items), start, source), i + 1


# ---------------------------------------------------------------------------
# .answers parsing
# ---------------------------------------------------------------------------


def parse_answers(text: str, filename: str = "<string>") -> list[ElicitationRecord]:
    """Parse a ``.answers`` document into one record per elicitation session."""
    return _parse_all(text, filename, _session, ("elicitation",))


def _session(tokens: _Tokens, i: int) -> tuple[ElicitationRecord, int]:
    kinds, values, offsets, source = (tokens.kinds, tokens.values, tokens.offsets,
                                      tokens.source)
    _keyword(tokens, i, "elicitation")
    responsibility = _expect(tokens, i + 1, STRING).strip()
    meta = {"by": None, "date": None}
    start, i = offsets[i], i + 2
    while meta.get(values[i], "") is None and kinds[i] == IDENT:  # each at most once
        meta[values[i]] = _expect(tokens, i + 1, STRING)
        i += 2
    if kinds[i] != LBRACE:
        raise tokens.fail(i, LBRACE)
    i += 1
    needs: list[RequireClause] = []
    recorded: list[ProduceClause] = []
    hazards: list[HazardClause] = []
    while kinds[i] != RBRACE:
        word = values[i] if kinds[i] == IDENT else None
        if word in ("needs", "records"):
            if kinds[i + 1] != LBRACE:
                raise tokens.fail(i + 1, LBRACE)
            i += 2
            while kinds[i] != RBRACE:
                if kinds[i] == EOF:
                    raise tokens.fail(i, "'}'")
                at = offsets[i]
                resource = _expect(tokens, i, INFO_REF,
                                   "an information item (|name|) or '}'")
                if word == "needs":
                    sources, channels, i = _need_tail(tokens, i + 1)
                    needs.append(RequireClause(resource, sources, channels, None,
                                               at, source))
                else:
                    channels, rationale, i = _product_tail(tokens, i + 1)
                    recorded.append(ProduceClause(resource, channels, rationale,
                                                  at, source))
        elif word == "hazards":
            item = _expect(tokens, i + 1, INFO_REF)
            if kinds[i + 2] != LBRACE:
                raise tokens.fail(i + 2, LBRACE)
            i += 3
            while kinds[i] != RBRACE:
                if kinds[i] == EOF:
                    raise tokens.fail(i, "'}'")
                at = offsets[i]
                guide_word, consequence, severity, i = _hazard_tail(tokens, i)
                hazards.append(HazardClause(item, guide_word, consequence, severity,
                                            None, at, source))
        else:
            raise tokens.fail(i, "'}'" if kinds[i] == EOF
                              else "a block keyword (needs, records, hazards) or '}'")
        i += 1
    return ElicitationRecord(responsibility, meta["by"], meta["date"], tuple(needs),
                             tuple(recorded), tuple(hazards), start, source), i + 1


# ---------------------------------------------------------------------------
# .reqs parsing
# ---------------------------------------------------------------------------


def parse_requirements(text: str, filename: str = "<string>") -> list[RequirementRecord]:
    """Parse a ``.reqs`` document, preserving authored order."""
    seen: set[str] = set()

    def requirement(tokens: _Tokens, i: int) -> tuple[RequirementRecord, int]:
        kinds, values = tokens.kinds, tokens.values
        _keyword(tokens, i, "requirement")
        ident = _expect(tokens, i + 1, IDENT, "a requirement id")
        if ident in seen:
            raise _SyntaxError(parse_problem(
                tokens.span(i + 1), "a unique requirement id", f"duplicate {ident!r}"),
                i + 1)
        seen.add(ident)
        if kinds[i + 2] != LBRACE:
            raise tokens.fail(i + 2, LBRACE)
        _keyword(tokens, i + 3, "text")
        req_text = _expect(tokens, i + 4, STRING)
        _keyword(tokens, i + 5, "rationale")
        rationale = _expect(tokens, i + 6, STRING)
        i += 7
        traces: list[TraceRef] = []
        while values[i] == "traces" and kinds[i] == IDENT:
            trace, i = _trace(tokens, i + 1)
            traces.append(trace)
        if kinds[i] != RBRACE:
            raise tokens.fail(i, RBRACE)
        return RequirementRecord(id=ident, text=req_text, rationale=rationale,
                                 traces=tuple(traces)), i + 1

    return _parse_all(text, filename, requirement, ("requirement",))


def _trace(tokens: _Tokens, i: int) -> tuple[TraceRef, int]:
    kind, value = tokens.kinds[i], tokens.values[i]
    if kind in _TRACE_REFS:
        return TraceRef(_TRACE_REFS[kind], value), i + 1
    if kind == IDENT and value == "responsibility":
        return TraceRef("responsibility", _expect(tokens, i + 1, STRING).strip()), i + 2
    if kind == IDENT and value == "hazard":
        item = _expect(tokens, i + 1, INFO_REF)
        return TraceRef("hazard", item, _member(tokens, i + 2, *_GUIDE_WORD)), i + 3
    raise tokens.fail(i, "a trace target (|info|, <agent>, [physical], "
                         "responsibility \"name\", or hazard |info| GUIDEWORD)")


def format_trace(ref: TraceRef) -> str:
    """A trace target as ``_trace`` reads it."""
    if ref.kind == "responsibility":
        return "responsibility " + quote(ref.name)
    if ref.kind == "hazard":
        return f"hazard {format_ref(ref.name, 'information')} {ref.guide_word.value}"
    return format_ref(ref.name, ref.kind)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def quote(value: str) -> str:
    if "\n" in value:
        raise ValueError(f"strings cannot span lines: {value!r}")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_ref(name: str, kind: str) -> str:
    """``name`` in the ``BRACKETS`` of ``kind``, which have no escape."""
    opener, closer = BRACKETS[kind]
    if closer in name or "\n" in name:
        raise ValueError(f"name {name!r} cannot appear inside {opener}{closer}")
    return f"{opener}{name}{closer}"


def print_model(model: Model) -> str:
    """Canonical textual form of a model.

    Every element is declared explicitly, sections are separated by blank
    lines, responsibilities use two-space indentation with one clause per
    line.  The output re-parses to a model equal to the input.
    """
    blocks: list[str] = [f"model {quote(model.name)}"]

    if model.agents:
        blocks.append("\n".join(
            f"agent {format_ref(a.name, 'agent')} kind {a.kind.value}"
            for a in model.agents))
    if model.resources:
        blocks.append("\n".join(f"resource {format_ref(r.name, r.kind.value)}"
                                for r in model.resources))
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
    for link in model.sequence_links:
        source, target = map(model.responsibility_by_id, link)
        if source is None or target is None:
            raise ValueError(f"sequence link {link!r} must join two responsibilities")
        links_by_source.setdefault(source.id, []).append(target.name)

    for resp in model.responsibilities:
        lines = [f"responsibility {quote(resp.name)} {{"]
        if resp.assigned_to:
            lines.append("  assigned to " + ", ".join(
                format_ref(model.agent_name(a), "agent") for a in resp.assigned_to))
        for need in resp.needs:
            line = "  requires " + format_need_tail(model, need)
            if need.criticality is not None:
                line += f" criticality {need.criticality.token}"
            lines.append(line)
        for product in resp.products:
            lines.append("  produces " + format_product_tail(model, product))
        for used in resp.uses:
            lines.append("  uses " + format_ref(model.resource_name(used), "physical"))
        for entry in resp.hazards:
            line = (f"  hazard {format_ref(model.resource_name(entry.item), 'information')} "
                    + format_hazard_tail(entry))
            if entry.mitigation:
                line += f" mitigated_by {entry.mitigation}"
            lines.append(line)
        for target in links_by_source.get(resp.id, []):
            lines.append("  precedes " + quote(target))
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
            lines.append(f"  traces {format_trace(trace)}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
