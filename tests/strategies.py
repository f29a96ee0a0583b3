"""Hypothesis strategies for random but well-formed models.

Models are generated as declaration lists and resolved through the normal
builder, so they carry exactly the invariants real parsed models have.
References only name declared elements; implicit-declaration behaviour is
covered by unit tests instead.
"""

from __future__ import annotations

import hypothesis.strategies as st

from respkit import build_model, slugify
from respkit.dsl import (
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
    SourceSpan,
    UseClause,
)
from respkit.model import AgentKind, GuideWord, ResourceKind, Severity

SPAN = SourceSpan("<generated>", 1, 1)

# Characters the grammar or Unicode treat specially, drawn often so that
# every name form meets them: comment and string delimiters, the escape,
# blanks the scanner skips or keeps, every bracket, a letter with an accent,
# numerals that are not letters, a combining mark and line-like separators.
_SPECIAL = '#"\\\t\r <>[]|{},-_é²Ⅻ\u0301\x0b\x1c\u2028'


def _clean(raw: str) -> str:
    return raw.strip()


def _sluggable(name: str) -> bool:
    return bool(name) and any(c.isalnum() for c in name)


def _names(closer: str):
    """Names drawn from every character that fits before ``closer``.

    Quoted strings pass an empty closer: they escape '"' and '\\', so only
    a line break ends them early.
    """
    excluded = closer + "\n"
    chars = (st.characters(exclude_characters=excluded)
             | st.sampled_from([c for c in _SPECIAL if c not in excluded]))
    return st.text(chars, min_size=1, max_size=14).map(_clean).filter(_sluggable)


agent_names = _names(">")
physical_names = _names("]")
information_names = _names("|")
names = _names("")  # quoted: models, channels, responsibilities, prose


def name_list(strategy, min_size: int, max_size: int):
    return st.lists(strategy, min_size=min_size, max_size=max_size,
                    unique_by=slugify)


mediums = st.none() | st.sampled_from(
    ["radio", "sms", "email", "fax", "verbal", "data-link"])
severities = st.sampled_from(list(Severity))
guide_words = st.sampled_from(list(GuideWord))


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

    decls = [ModelDecl(draw(names | st.just("")), SPAN)]
    for agent in agents:
        decls.append(AgentDecl(agent, draw(st.sampled_from(list(AgentKind))), SPAN))
    for info in info_names:
        decls.append(ResourceDecl(info, ResourceKind.INFORMATION, SPAN))
    for phys in phys_names:
        decls.append(ResourceDecl(phys, ResourceKind.PHYSICAL, SPAN))
    for index, channel in enumerate(channel_names):
        backup = None
        if index > 0 and draw(st.booleans()):
            backup = draw(st.sampled_from(channel_names[:index]))
        decls.append(ChannelDecl(channel, draw(mediums), backup, SPAN))

    def subset(pool, max_size=3):
        if not pool:
            return st.just([])
        return st.lists(st.sampled_from(pool), max_size=max_size,
                        unique_by=slugify)

    for resp_name in resp_names:
        items = []
        assigned = draw(subset(agents))
        if assigned:
            items.append(AssignClause(tuple(assigned), SPAN))
        needed = draw(subset(info_names))
        for resource in needed:
            items.append(RequireClause(
                resource,
                tuple(draw(subset(agents, 2))),
                tuple(draw(subset(channel_names, 2))),
                draw(st.none() | severities),
                SPAN,
            ))
        produced = draw(subset(info_names, 2))
        for resource in produced:
            items.append(ProduceClause(
                resource,
                tuple(draw(subset(channel_names, 2))),
                draw(st.none() | names),
                SPAN,
            ))
        for resource in draw(subset(phys_names, 2)):
            items.append(UseClause(resource, SPAN))
        hazard_pool = sorted(set(needed) | set(produced))
        for item in draw(subset(hazard_pool, 2)):
            items.append(HazardClause(
                item, draw(guide_words), draw(names | st.just("")),
                draw(severities), None, SPAN,
            ))
        for target in draw(subset(resp_names, 2)):
            items.append(PrecedesClause(target, SPAN))
        for note in draw(st.lists(names, max_size=1)):
            items.append(NoteClause(note, SPAN))
        decls.append(ResponsibilityDecl(resp_name, tuple(items), SPAN))
    return decls


@st.composite
def models(draw):
    return build_model(draw(declarations()))


@st.composite
def model_pairs(draw):
    """Two models over shared agent and responsibility name pools."""
    agents = draw(name_list(agent_names, 1, 3))
    resps = draw(name_list(names, 1, 3))
    left = build_model(draw(declarations(agent_pool=agents, resp_pool=resps)))
    right = build_model(draw(declarations(agent_pool=agents, resp_pool=resps)))
    return left, right
