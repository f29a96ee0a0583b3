"""Resolve parsed declarations into an immutable model.

Elements first mentioned inside a responsibility block are materialized as
implicit declarations: agents default to kind organization, channels carry
no medium, resource kinds follow the bracket notation they were written
with.  Explicit declarations anywhere in the file win over implicit ones.

Every declaration and mention of an agent, resource or channel resolves
through one rule in a ``SymbolTable``: a new id declares its element, or
is refused under ``ingest --strict``; the same spelling is the same
element; another spelling of the same id is a collision; the same
spelling with another kind or attribute is a conflict.  A ``requires``,
``produces`` or ``hazard`` clause resolves into a need, product or hazard
through ``resolve_flow``, and a ``DutyFold`` merges a duty's flows, each
item once.  ``.answers`` lines parse into the same clauses, and
``elicitation.ingest_all`` folds them back into a model through the same
three, one fold per duty across all sessions, so a name, a flow and a
hazard follow the same rules in a ``.resp`` file and in a ``.answers``
file.  Both report problems by one rule as well: the table collects every
problem in the order met, and all of them are raised at once at the end.
"""

from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from . import dsl
from .model import (
    Agent,
    AgentKind,
    Channel,
    HazardEntry,
    InfoNeed,
    InfoProduct,
    InputError,
    Model,
    Problem,
    Resource,
    ResourceKind,
    Responsibility,
    canonical_elements,
    cycles,
    dedupe,
    slugify,
)


class ModelBuildError(InputError):
    """Raised when declarations do not make a model; carries every problem."""


# The declaration or clause a name or a problem comes from.  Its span is
# read only when a problem is reported.
Site = Union[dsl.Declaration, dsl.Clause]
# A clause that adds a need, a product or a hazard to its duty, and what it
# resolves to.
Flow = Union[dsl.RequireClause, dsl.ProduceClause, dsl.HazardClause]
Resolved = Optional[Union[InfoNeed, InfoProduct, HazardEntry]]


class SymbolTable:
    """The agents, resources and channels of one model, by id.

    ``build_model`` and ``ingest_all`` resolve every declaration and every
    mention through ``_resolve``, which applies the naming rule of this
    module: a new name mentioned is declared implicitly or, when ``strict``,
    refused.  ``error(message, site)`` keeps each problem in ``problems``
    with the span of ``site``, so build and ingest both report them all.
    """

    def __init__(self, model: Optional[Model] = None, strict: bool = False):
        self.problems: list[Problem] = []
        self.strict = strict
        model = model or Model()
        self.agents: dict[str, Agent] = {a.id: a for a in model.agents}
        self.resources: dict[str, Resource] = {r.id: r for r in model.resources}
        self.channels: dict[str, Channel] = {c.id: c for c in model.channels}
        # The id of each raw name that resolved with no problem, per kind of
        # mention.  A mention with a problem is not kept: each site reports.
        self._agent_ids: dict[str, str] = {}
        self._resource_ids = {kind: {} for kind in ResourceKind}
        self._channel_ids: dict[str, str] = {}
        # Channel declarations with a backup target, resolved once all
        # channels are known.
        self.backups: dict[str, dsl.ChannelDecl] = {}

    def error(self, message: str, site: Site) -> None:
        self.problems.append(Problem(site.span, message))

    def slug(self, what: str, name: str, site: Site) -> Optional[str]:
        """The id of ``name``, or None when it has no alphanumeric character."""
        try:
            return slugify(name)
        except ValueError:
            self.error(f"{what} name {name!r} needs at least one alphanumeric "
                       "character", site)
            return None

    def _collide(self, what: str, existing, name: str, slug: str, site: Site) -> None:
        """Report ``name`` whose id ``slug`` another name already holds."""
        self.error(f"{what}s {existing.name!r} and {name.strip()!r} "
                   f"collide on id '{slug}'", site)

    def elements(self) -> dict[str, tuple]:
        """The three element collections as ``Model`` fields, in canonical order."""
        return {
            "agents": canonical_elements(self.agents.values()),
            "resources": canonical_elements(self.resources.values()),
            "channels": canonical_elements(self.channels.values()),
        }

    def _resolve(self, ids: dict[str, str], what: str, elements: dict, name: str,
                 site: Site, make: Callable[[str], object],
                 conflict: Optional[Callable[[object], Optional[str]]],
                 unknown: Optional[str]) -> Optional[str]:
        """The id of ``name``, a ``what`` in ``elements``: ``make(id)`` is a new
        element, ``conflict(element)`` the message for a clash with one, if
        any, and ``unknown`` the message that refuses a new id, if any."""
        slug = self.slug(what, name, site)
        if slug is None:
            return None
        existing = elements.get(slug)
        if existing is None:
            if unknown is not None:
                self.error(unknown, site)
                return None
            elements[slug] = make(slug)
        elif existing.name != name.strip():
            self._collide(what, existing, name, slug, site)
            return slug
        elif conflict is not None and (problem := conflict(existing)) is not None:
            self.error(problem, site)
            return slug
        ids[name] = slug
        return slug

    # -- mentions -------------------------------------------------------------

    def agent(self, name: str, site: Site) -> Optional[str]:
        return self._agent_ids.get(name) or self._resolve(
            self._agent_ids, "agent", self.agents, name, site,
            lambda slug: Agent(slug, name.strip(), AgentKind.ORGANIZATION, implicit=True),
            None, f"unknown agent <{name}>" if self.strict else None)

    def resource(self, name: str, kind: ResourceKind, site: Site) -> Optional[str]:
        ids = self._resource_ids[kind]
        return ids.get(name) or self._resolve(
            ids, "resource", self.resources, name, site,
            lambda slug: Resource(slug, name.strip(), kind, implicit=True),
            lambda existing: None if existing.kind is kind else (
                f"conflicting resource kind: {existing.name!r} is "
                f"{existing.kind.value} but is used as {kind.value}"),
            f"unknown {kind.value} resource |{name}|" if self.strict else None)

    def channel(self, name: str, site: Site) -> Optional[str]:
        return self._channel_ids.get(name) or self._resolve(
            self._channel_ids, "channel", self.channels, name, site,
            lambda slug: Channel(slug, name.strip(), implicit=True),
            None, f'unknown channel "{name}"' if self.strict else None)

    # -- explicit declarations ------------------------------------------------
    #
    # build_model declares every element before it resolves any mention, so
    # a declaration never meets an implicit element, and a clean one makes
    # the first mention of its name a hit.

    def declare_agent(self, decl: dsl.AgentDecl) -> None:
        kind = decl.kind or AgentKind.ORGANIZATION
        self._resolve(
            self._agent_ids, "agent", self.agents, decl.name, decl,
            lambda slug: Agent(slug, decl.name.strip(), kind),
            lambda existing: None if decl.kind in (None, existing.kind) else (
                f"conflicting agent kind for <{existing.name}>: "
                f"{existing.kind.value} vs {kind.value}"), None)

    def declare_resource(self, decl: dsl.ResourceDecl) -> None:
        self._resolve(
            self._resource_ids[decl.kind], "resource", self.resources, decl.name, decl,
            lambda slug: Resource(slug, decl.name.strip(), decl.kind),
            lambda existing: None if existing.kind is decl.kind else (
                f"conflicting resource kind: {existing.name!r} is "
                f"{existing.kind.value} and {decl.kind.value}"), None)

    def declare_channel(self, decl: dsl.ChannelDecl) -> None:
        def make(slug: str) -> Channel:
            if decl.backup_of is not None:
                self.backups[slug] = decl
            return Channel(slug, decl.name.strip(), decl.medium)

        def conflict(existing: Channel) -> Optional[str]:
            backup_of = getattr(self.backups.get(existing.id), "backup_of", None)
            if (existing.medium, backup_of) != (decl.medium, decl.backup_of):
                return f"conflicting re-declaration of channel {existing.name!r}"
            return None

        self._resolve(self._channel_ids, "channel", self.channels, decl.name, decl,
                      make, conflict, None)

    def resolve_backups(self) -> None:
        """Point each declared channel at its backup, then report each
        backup cycle once, at its first-declared channel, in declaration
        order.  A target only mentioned in a duty is matched by its id."""
        for slug, decl in self.backups.items():
            channel = self.channels[slug]
            try:
                target = self.channels.get(slugify(decl.backup_of))
            except ValueError:
                target = None
            if target is None:
                self.error(f"backup_of target {decl.backup_of!r} is not a declared "
                           f"channel", decl)
            elif target.id == slug:
                self.error(f"channel {channel.name!r} cannot back itself up", decl)
            elif target.name != decl.backup_of.strip() and not target.implicit:
                self._collide("channel", target, decl.backup_of, target.id, decl)
            else:
                self.channels[slug] = Channel(slug, channel.name, channel.medium,
                                              target.id, channel.implicit)
        order = {slug: i for i, slug in enumerate(self.channels)}
        graph = {slug: [c.backup_of] if c.backup_of else []
                 for slug, c in self.channels.items()}
        firsts = [min(cycle, key=order.get) for cycle in cycles(graph)]
        for slug in sorted(firsts, key=order.get):
            self.error(f"backup chain through channel {self.channels[slug].name!r} "
                       f"is cyclic", self.backups[slug])


def resolve_flow(table: SymbolTable, clause: Flow) -> Resolved:
    """The ``InfoNeed``, ``InfoProduct`` or ``HazardEntry`` that ``clause``
    adds to its duty, or None when its item does not resolve.

    Names resolve in the order the clause gives them: the item, then the
    sources, then the channels.  Every name resolves, whether the item does
    or not, so each problem in the clause is reported.  A name repeated in
    one list counts once, so sources and channels are ordered sets.
    """
    # Each flow clause names its information item first.
    resource = table.resource(clause[0], ResourceKind.INFORMATION, clause)
    kind = type(clause)
    sources = _ids(table.agent, clause.sources, clause) if kind is dsl.RequireClause else ()
    channels = () if kind is dsl.HazardClause else _ids(table.channel, clause.channels, clause)
    if resource is None:
        return None
    if kind is dsl.HazardClause:
        return HazardEntry(resource, clause.guide_word, clause.consequence,
                           clause.severity, clause.mitigated_by)
    if kind is dsl.ProduceClause:
        return InfoProduct(resource, channels, clause.rationale)
    return InfoNeed(resource, sources, channels, clause.criticality)


def _ids(resolve: Callable[[str, Site], Optional[str]], names: tuple[str, ...],
         clause: Flow) -> tuple[str, ...]:
    """The id of each of ``names`` that resolves, each id once."""
    ids = {}
    for name in names:
        found = resolve(name, clause)
        if found:
            ids[found] = None
    return tuple(ids)


class DutyFold:
    """The needs, products and hazards of one duty, gathered from any number
    of ``add`` calls and merged once, each item once, by ``fields``.

    ``add`` takes flows, each clause paired with what ``resolve_flow`` made
    of it; a clause that resolved to None is skipped.  The values met for
    an item, or for an (item, guide word) hazard, are kept in first-mention
    order, after those ``duty`` already has.  Hazards go in after every
    need of the same ``add``, and ``orphan`` is called with the clause of
    each new hazard whose item the duty does not require by then, since a
    worksheet has rows for required items only.
    """

    def __init__(self, duty: Responsibility = Responsibility("", "")):
        # First value per item; every value of an item met again, by (type, item).
        self.needs = {n.resource: n for n in duty.needs}
        self.products = {p.resource: p for p in duty.products}
        self.hazards = {(h.item, h.guide_word): h for h in duty.hazards}
        self.more: dict[tuple, list] = {}

    def add(self, flows: Iterable[tuple[Resolved, Flow]],
            orphan: Callable[[dsl.HazardClause], None]) -> None:
        needs, hazards = self.needs, []
        for flow, clause in flows:
            kind = type(flow)
            if kind is HazardEntry:
                hazards.append((flow, clause))
            elif flow is not None:
                first = (needs if kind is InfoNeed else self.products).setdefault(
                    flow.resource, flow)
                if first is not flow:
                    self.more.setdefault((kind, flow.resource), [first]).append(flow)
        for entry, clause in hazards:
            key = (entry.item, entry.guide_word)
            first = self.hazards.setdefault(key, entry)
            if first is not entry:
                self.more.setdefault((HazardEntry, key), [first]).append(entry)
            elif entry.item not in needs:
                orphan(clause)

    def fields(self) -> dict[str, tuple]:
        """The ``Responsibility`` fields, merged in place after the last ``add``."""
        first = {InfoNeed: self.needs, InfoProduct: self.products,
                 HazardEntry: self.hazards}
        for (kind, key), values in self.more.items():
            first[kind][key] = _MERGE[kind](values)
        return {"needs": tuple(self.needs.values()),
                "products": tuple(self.products.values()),
                "hazards": tuple(self.hazards.values())}


# The merge rules: sources and channels unite in first-mention order,
# criticality and severity take the highest, and consequence, rationale
# and mitigation keep the first non-empty value, else the last.


def _first(values: list):
    """``a if a else b`` folded from the left: ``""`` and None stay apart."""
    return next((value for value in values if value), values[-1])


def _merge_needs(needs: list[InfoNeed]) -> InfoNeed:
    return InfoNeed(needs[0].resource, dedupe(s for n in needs for s in n.sources),
                    dedupe(c for n in needs for c in n.channels),
                    max((n.criticality for n in needs if n.criticality is not None),
                        default=None))


def _merge_products(products: list[InfoProduct]) -> InfoProduct:
    return InfoProduct(products[0].resource,
                       dedupe(c for p in products for c in p.channels),
                       _first([p.rationale for p in products]))


def _merge_hazards(entries: list[HazardEntry]) -> HazardEntry:
    first = entries[0]
    return HazardEntry(first.item, first.guide_word,
                       _first([h.consequence for h in entries]),
                       max(h.severity for h in entries),
                       _first([h.mitigation for h in entries]))


_MERGE = {InfoNeed: _merge_needs, InfoProduct: _merge_products,
          HazardEntry: _merge_hazards}


_FLOWS = frozenset((dsl.RequireClause, dsl.ProduceClause, dsl.HazardClause))


def build_model(declarations: list[dsl.Declaration]) -> Model:
    """Resolve declarations into a model, or raise ModelBuildError."""
    table = SymbolTable()
    name = ""
    resp_decls: list[dsl.ResponsibilityDecl] = []
    declare = {dsl.AgentDecl: table.declare_agent, dsl.ResourceDecl: table.declare_resource,
               dsl.ChannelDecl: table.declare_channel,
               dsl.ResponsibilityDecl: resp_decls.append}

    for decl in declarations:
        if type(decl) is dsl.ModelDecl:
            name = decl.name
        else:
            declare[type(decl)](decl)

    responsibilities: dict[str, Responsibility] = {}
    precedes: list[tuple[str, dsl.PrecedesClause]] = []
    orphans: list[Problem] = []

    for decl in resp_decls:
        slug = table.slug("responsibility", decl.name, decl)
        if slug is None:
            continue
        if slug in responsibilities:
            other = responsibilities[slug].name
            if other == decl.name:
                table.error(f"duplicate responsibility {decl.name!r}", decl)
            else:
                table.error(f"responsibilities {other!r} and {decl.name!r} "
                            f"collide on id '{slug}'", decl)
            continue
        responsibilities[slug] = _build_responsibility(
            table, slug, decl, precedes, orphans)
    # Reported after every responsibility's own problems, as they always were.
    table.problems += orphans

    links: list[tuple[str, str]] = []
    by_name = {r.name: slug for slug, r in responsibilities.items()}
    for source_slug, clause in precedes:
        target = by_name.get(clause.target)
        if target is None:
            table.error(f"precedes target {clause.target!r} is not a declared "
                        f"responsibility", clause)
            continue
        links.append((source_slug, target))

    table.resolve_backups()

    if table.problems:
        raise ModelBuildError(table.problems)

    ordered_resps = canonical_elements(responsibilities.values())
    resp_name = {slug: r.name for slug, r in responsibilities.items()}
    ordered_links = tuple(sorted(
        set(links),
        key=lambda link: (resp_name[link[0]], resp_name[link[1]]),
    ))

    return Model(
        name=name,
        responsibilities=ordered_resps,
        sequence_links=ordered_links,
        **table.elements(),
    )


def _build_responsibility(
    table: SymbolTable,
    slug: str,
    decl: dsl.ResponsibilityDecl,
    precedes: list[tuple[str, dsl.PrecedesClause]],
    orphans: list[Problem],
) -> Responsibility:
    assigned: list[str] = []
    flows: list[tuple[Resolved, Flow]] = []
    uses: list[str] = []
    notes: list[str] = []

    for item in decl.items:
        kind = type(item)
        if kind in _FLOWS:
            flows.append((resolve_flow(table, item), item))
        elif kind is dsl.AssignClause:
            for agent_name in item.agents:
                agent_id = table.agent(agent_name, item)
                if agent_id:
                    assigned.append(agent_id)
        elif kind is dsl.UseClause:
            resource = table.resource(item.resource, ResourceKind.PHYSICAL, item)
            if resource:
                uses.append(resource)
        elif kind is dsl.PrecedesClause:
            precedes.append((slug, item))
        elif kind is dsl.NoteClause:
            notes.append(item.text)

    def orphan(clause: dsl.HazardClause) -> None:
        orphans.append(Problem(
            decl.span, f'hazard on |{clause.item}| but "{decl.name}" does not require it'))

    fold = DutyFold()
    fold.add(flows, orphan)
    return Responsibility(slug, decl.name, dedupe(assigned), uses=dedupe(uses),
                          notes=tuple(notes), **fold.fields())


def read_input(path: Path) -> str:
    """Text of an input file, with line ends kept as written: only "\\n"
    ends a line, as in the parser.  A UTF-8 byte-order mark at the start is
    dropped.  Bytes that are not UTF-8 are reported like an unreadable
    file, naming the path, rather than as a decoder traceback."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise OSError(f"{path}: line {line}: not valid UTF-8 "
                      f"({exc.reason})") from None


def load_model(source: Union[str, Path], filename: Optional[str] = None) -> Model:
    """Parse and build a model from a path or from document text."""
    if isinstance(source, Path):
        text = read_input(source)
        filename = filename or str(source)
    else:
        text = source
        filename = filename or "<string>"
    return build_model(dsl.parse_model(text, filename))
