"""Hypothesis strategies for random models and random DSL text.

Models are generated as declaration lists and resolved through the normal
builder, so they carry exactly the invariants real parsed models have.
References only name declared elements; implicit-declaration behaviour is
covered by unit tests instead.  A ``from`` or ``via`` list now and then
names one element twice, which must count once.  The text strategies feed
the scanner, parsers and command line with arbitrary input weighted
towards the DSL.
"""

from __future__ import annotations

import hypothesis.strategies as st

from respkit import build_model, ingest_all, slugify
from respkit.dsl import (
    AgentDecl,
    AssignClause,
    ChannelDecl,
    ElicitationRecord,
    HazardClause,
    ModelDecl,
    NoteClause,
    PrecedesClause,
    ProduceClause,
    RequireClause,
    ResourceDecl,
    ResponsibilityDecl,
    Source,
    UseClause,
)
from respkit.model import (AgentKind, GuideWord, RequirementRecord, ResourceKind,
                           Severity, TraceRef)

# Every generated declaration and clause starts at line 1, column 1.
AT = (0, Source("<generated>", ""))

# Characters the grammar or Unicode treat specially, drawn often so that
# every name form meets them: comment and string delimiters, the escape,
# blanks the scanner skips or keeps, every bracket, a letter with an accent,
# numerals that are not letters, a combining mark and line-like separators.
_SPECIAL = '#"\\\t\r <>[]|{},-_é²Ⅻ\u0301\x0b\x1c\u2028'


def _chars(closer: str):
    """Every character that fits before ``closer``, the special ones often.

    Quoted strings pass an empty closer: they escape '"' and '\\', so only
    a line break ends them early.
    """
    excluded = closer + "\n"
    return (st.characters(exclude_characters=excluded)
            | st.sampled_from([c for c in _SPECIAL if c not in excluded]))


def _names(closer: str):
    """Names drawn from ``_chars(closer)`` around one letter or numeral, so
    that each has an id, stripped as the parser strips them."""
    side = st.text(_chars(closer), max_size=6)
    return st.builds(lambda before, alnum, after: (before + alnum + after).strip(),
                     side, st.characters(categories=["L", "N"]), side)


agent_names = _names(">")
physical_names = _names("]")
information_names = _names("|")
names = _names("")  # quoted: models, channels, responsibilities, prose
strings = st.text(_chars(""), max_size=14)  # quoted, not stripped: requirement text


def name_list(strategy, min_size: int, max_size: int):
    return st.lists(strategy, min_size=min_size, max_size=max_size,
                    unique_by=slugify)


mediums = st.none() | st.sampled_from(
    ["radio", "sms", "email", "fax", "verbal", "data-link"])
severities = st.sampled_from(list(Severity))
guide_words = st.sampled_from(list(GuideWord))

# A trace of each of the five kinds, named as its target is written.
trace_refs = st.one_of(
    st.builds(TraceRef, st.just("agent"), agent_names),
    st.builds(TraceRef, st.just("physical"), physical_names),
    st.builds(TraceRef, st.just("information"), information_names),
    st.builds(TraceRef, st.just("responsibility"), names),
    st.builds(TraceRef, st.just("hazard"), information_names, guide_words),
)
# A requirement id is an identifier: "_" or a letter, then letters, digits,
# "_" and "-", in any script.
requirement_ids = st.builds(
    str.__add__,
    st.characters(categories=["L"], include_characters="_"),
    st.text(st.characters(categories=["L", "N"], include_characters="_-")
            | st.sampled_from("_-é²Ⅻ"), max_size=8))
requirement_records = st.lists(
    st.builds(RequirementRecord, requirement_ids, strings, strings,
              st.lists(trace_refs, max_size=5).map(tuple)),
    max_size=4, unique_by=lambda record: record.id)


@st.composite
def declarations(draw,
                 agent_pool: list[str] | None = None,
                 resp_pool: list[str] | None = None):
    """One model's declaration list; pools allow correlated model pairs."""
    agents = (agent_pool if agent_pool is not None
              else draw(name_list(agent_names, 1, 4)))
    # Information and physical resources share one id space.
    info_names = draw(name_list(information_names, 0, 3))
    taken = {slugify(n) for n in info_names}
    phys_names = [n for n in draw(name_list(physical_names, 0, 2))
                  if slugify(n) not in taken]
    channel_names = draw(name_list(names, 0, 3))
    resp_names = resp_pool if resp_pool is not None else draw(name_list(names, 1, 4))

    decls = [ModelDecl(draw(names | st.just("")), *AT)]
    for agent in agents:
        decls.append(AgentDecl(agent, draw(st.sampled_from(list(AgentKind))), *AT))
    for info in info_names:
        decls.append(ResourceDecl(info, ResourceKind.INFORMATION, *AT))
    for phys in phys_names:
        decls.append(ResourceDecl(phys, ResourceKind.PHYSICAL, *AT))
    for index, channel in enumerate(channel_names):
        backup = None
        if index > 0 and draw(st.booleans()):
            backup = draw(st.sampled_from(channel_names[:index]))
        decls.append(ChannelDecl(channel, draw(mediums), backup, *AT))

    def subset(pool, max_size=3):
        if not pool:
            return st.just([])
        return st.lists(st.sampled_from(pool), max_size=max_size,
                        unique_by=slugify)

    def flow_list(pool):
        """A ``from`` or ``via`` list; one in four repeats its first name."""
        return st.builds(lambda chosen, repeat: tuple(chosen + chosen[:1] * repeat),
                         subset(pool, 2), one_in(4))

    for resp_name in resp_names:
        items = []
        assigned = draw(subset(agents))
        if assigned:
            items.append(AssignClause(tuple(assigned), *AT))
        needed = draw(subset(info_names))
        for resource in needed:
            items.append(RequireClause(
                resource,
                draw(flow_list(agents)),
                draw(flow_list(channel_names)),
                draw(st.none() | severities),
                *AT,
            ))
        produced = draw(subset(info_names, 2))
        for resource in produced:
            items.append(ProduceClause(
                resource,
                draw(flow_list(channel_names)),
                draw(st.none() | names | st.just("")),
                *AT,
            ))
        for resource in draw(subset(phys_names, 2)):
            items.append(UseClause(resource, *AT))
        # Only a needed item has worksheet rows, so only it may carry a hazard.
        for item in draw(subset(needed, 2)):
            items.append(HazardClause(
                item, draw(guide_words), draw(names | st.just("")),
                draw(severities), draw(st.none() | requirement_ids), *AT,
            ))
        for target in draw(subset(resp_names, 2)):
            items.append(PrecedesClause(target, *AT))
        for note in draw(st.lists(names, max_size=1)):
            items.append(NoteClause(note, *AT))
        decls.append(ResponsibilityDecl(resp_name, tuple(items), *AT))
    return decls


@st.composite
def models(draw):
    return build_model(draw(declarations()))


_FLOWS = (RequireClause, ProduceClause, HazardClause)


@st.composite
def ingested_declarations(draw):
    """A model built from ``declarations()`` without their ``requires``,
    ``produces`` and ``hazard`` clauses, the answer sessions that hold those
    clauses, one per duty, and the declarations themselves."""
    decls = draw(declarations())
    base, sessions = [], []
    for decl in decls:
        if isinstance(decl, ResponsibilityDecl):
            flows = [tuple(c for c in decl.items if isinstance(c, kind)) for kind in _FLOWS]
            sessions.append(ElicitationRecord(decl.name, None, None, *flows, *AT))
            decl = decl._replace(items=tuple(c for c in decl.items
                                             if not isinstance(c, _FLOWS)))
        base.append(decl)
    return build_model(base), sessions, decls


def ingested_models():
    """Models whose needs, products and hazards all came in by ingest."""
    return ingested_declarations().map(lambda drawn: ingest_all(*drawn[:2]))


@st.composite
def model_pairs(draw):
    """Two models over shared agent and responsibility name pools."""
    agents = draw(name_list(agent_names, 1, 3))
    resps = draw(name_list(names, 1, 3))
    left = build_model(draw(declarations(agent_pool=agents, resp_pool=resps)))
    right = build_model(draw(declarations(agent_pool=agents, resp_pool=resps)))
    return left, right


# Keywords, delimiters, blanks and the characters the scanner treats
# specially, so random text reaches every scanner and parser path.
_DSL_PIECES = [
    "model", "agent", "kind", "role", "resource", "channel", "medium",
    "backup_of", "responsibility", "assigned", "to", "requires", "from", "via",
    "criticality", "produces", "rationale", "uses", "hazard", "late",
    "severity", "high", "mitigated_by", "precedes", "note", "elicitation",
    "by", "date", "needs", "records", "hazards", "requirement", "text",
    "traces", "R-1", "x", "_", "1", "é", "\u0301", "²", "Ⅻ", "@",
    "{", "}", ",", '"', "\\", "<", ">", "[", "]", "|", "#",
    " ", "\t", "\r", "\n", "\x0b", "\u2028",
]
dsl_text = st.lists(st.sampled_from(_DSL_PIECES), max_size=80).map("".join)
# Short texts of delimiters, blanks and line ends, and of strings,
# references and comments with blanks and line ends around and inside their
# names, so that a literal often meets a line end before it closes: no token
# may run on across a "\n", while "\r", "\x0b" and "\u2028" are ordinary
# characters.  One literal in five drops its closer.
_BLANKS = [" ", "\t", "\r", "\n", "\x0b", "\u2028"]
_LINE_PIECES = _BLANKS + ['"', "\\", "<", ">", "[", "]", "|", "#", "{", "}", ",",
                          "a", "²", "model ", "agent "]
_enclosed = st.builds(
    lambda pair, inner, closed: pair[0] + "".join(inner) + pair[1] * closed,
    st.sampled_from(['""', "<>", "[]", "||", "#\n"]),
    st.lists(st.sampled_from(["\n", " ", "a", "\\", '"']), max_size=4),
    st.integers(0, 4).map(bool))
line_text = st.lists(_enclosed | st.sampled_from(_LINE_PIECES), max_size=12).map("".join)
# Declaration keywords among the tokens that follow them, so that a
# declaration often starts at the token where the one before it failed.
keyword_text = st.lists(st.sampled_from(
    ["model", "agent", "resource", "channel", "responsibility", "elicitation",
     "requirement", "kind", "role", '"M"', "<A>", "|I|", "{", "}"]), max_size=8).map(" ".join)

# Documents of all three formats built from whole lines and blocks over a
# small pool of names, so random input often parses and reaches build,
# ingest and the renderers.  Now and then a name collides with a pool name
# on one id or has no alphanumeric character, and a document ends in a
# stray line, so that the error paths stay in play without making every
# document fail.
_LINE_NAMES = ["Ops", " Ops ", "Map", "Radio", "Duty", "Other", "é", "R-1"]
_ODD_NAMES = ["ops", "map!", "!!!", "--"]
_DECLARATIONS = [
    "agent <{0}>", "agent <{0}> kind role", "resource |{0}|", "resource [{0} kit]",
    'channel "{0}"', 'channel "{0}" medium radio backup_of "{1}"',
]
# Every generated duty requires |Map|, so its hazard on |Map| is valid.
_FIRST_CLAUSE = ['requires |Map| from <{0}> via "{1}"']
_DUTY_CLAUSES = [
    "assigned to <{0}>, <{1}>", "requires |{0}|",
    'requires |{0}| from <{1}> via "{2}" criticality high',
    'produces |{0}| via "{1}" rationale "{2}"', "uses [{0} kit]",
    'hazard |Map| late "{1}" severity critical',
    'hazard |{0}| early "{1}" mitigated_by R-1', 'precedes "Other"', 'note "{0}"',
]
_NEED_LINES = ["|{0}|", '|{0}| from <{1}>, <{2}> via "{0}"']
_RECORD_LINES = ["|{0}|", '|{0}| via "{1}" rationale "{2}"']
_HAZARD_LINES = ['unavailable "{0}" severity high', 'late "{0}"']
_TRACE_LINES = [
    'text "{0}"', 'rationale "{0}"', "traces <{0}>", "traces |{0}|",
    "traces [{0}]", 'traces responsibility "{0}"', "traces hazard |{0}| late",
    "derived_from |{0}|",
]
_ALL_LINES = (['model "{0}"', "resource [{0}]"] + _DECLARATIONS + _DUTY_CLAUSES
              + _NEED_LINES + _RECORD_LINES + _HAZARD_LINES + _TRACE_LINES)
# Names of sessions, hazard blocks and requirements: few enough that a
# session often names one of the generated duties, "Duty" and "Other".
_BLOCK_NAMES = st.sampled_from(["Duty", "Other", "Spare"])


def one_in(n: int):
    """True about once in ``n`` draws.  Hypothesis draws the ends of a range
    and of a list far more often than their share, so the rare case is a
    value in the middle of the range."""
    return st.integers(0, n - 1).map(lambda i: i == n // 2)


def _line(templates, odd=40):
    """One line of ``templates``; one name in ``odd`` is an odd one."""
    name = st.builds(lambda usual, odd_name, is_odd: odd_name if is_odd else usual,
                     st.sampled_from(_LINE_NAMES), st.sampled_from(_ODD_NAMES),
                     one_in(odd))
    return st.builds(lambda t, names: t.format(*names), st.sampled_from(templates),
                     st.lists(name, min_size=3, max_size=3))


def _lines(templates, max_size=4, odd=40):
    return st.lists(_line(templates, odd), max_size=max_size)


def _block(header: str, body):
    """``header {`` + body lines + ``}``."""
    return st.builds(lambda name, lines: [header.format(name) + " {"] + lines + ["}"],
                     _BLOCK_NAMES, body)


def _document(chunks):
    """The lines of ``chunks``; one document in eight ends in a stray line of
    any format."""
    return st.builds(
        lambda chunks, stray, extra: "\n".join(
            [line for chunk in chunks for line in chunk] + [extra] * stray),
        chunks, one_in(8), _line(_ALL_LINES))


_duty_body = st.builds(lambda first, rest: [first] + rest,
                       _line(_FIRST_CLAUSE), _lines(_DUTY_CLAUSES, 6))
# Answers meet odd names more often than models do: ingest has its own
# paths for them, and a model with one fails to build before ingest runs.
_session_body = st.lists(
    _block("needs", _lines(_NEED_LINES, odd=8))
    | _block("records", _lines(_RECORD_LINES, odd=8))
    | _block("hazards |{0}|", _lines(_HAZARD_LINES)), max_size=3,
).map(lambda blocks: [line for block in blocks for line in block])

resp_text = _document(st.tuples(
    _lines(_DECLARATIONS, 6),
    _block('responsibility "Duty"', _duty_body),
    _block('responsibility "Other"', _duty_body)))
answers_text = _document(st.lists(_block('elicitation "{0}"', _session_body), max_size=3))
reqs_text = _document(st.lists(_block("requirement {0}", _lines(_TRACE_LINES)), max_size=3))
