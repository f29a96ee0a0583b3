"""Immutable domain model for responsibility modelling.

A model holds agents, resources, channels and responsibilities, plus the
sequencing links between responsibilities.  Values are frozen dataclasses:
once built they are safe to share between threads and between analyses.
``Finding``, the report value of ``check`` and ``analyze``, and
``InfoTable``, that of the tables and the worksheet, are named tuples
instead, cheaper to define and to make: they compare as tuples.

Element identifiers are deterministic slugs of display names, so two
elements of the same kind may not have names that collapse to the same
slug.  Top-level collections are kept in canonical order (lexicographic by
display name); clause-level collections (sources, channels, needs, ...)
keep their authored first-mention order, which rendering code may re-sort.
Each fact is held once: a need, product or hazard sits inside its
responsibility and does not repeat the responsibility's name.

Lookups by id or name go through maps that each model builds on first use
and caches on the instance.  The maps are not fields: equality, hashing,
pickling and ``dataclasses.replace`` see only the collections they are
built from.
"""

import re
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional


class Severity(IntEnum):
    """Five-level severity scale with a total order."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4

    @property
    def token(self) -> str:
        return self.name.lower()


#: Each severity by its token, matched exactly: ``HIGH`` is not ``high``.
SEVERITIES = {s.token: s for s in Severity}
SEVERITY_TOKENS = ", ".join(SEVERITIES)


# Enum members are singletons that compare by identity, so the enums below
# hash by identity too, in C, not by Enum.__hash__'s Python-level hash of
# the member's name: building and ingesting a model hash them often.
class AgentKind(Enum):
    __hash__ = object.__hash__

    ORGANIZATION = "organization"
    ROLE = "role"
    PERSON = "person"
    SYSTEM = "system"
    GROUP = "group"


class ResourceKind(Enum):
    __hash__ = object.__hash__

    PHYSICAL = "physical"
    INFORMATION = "information"


class GuideWord(Enum):
    """The five deviation prompts, in their fixed presentation order."""

    __hash__ = object.__hash__

    UNAVAILABLE = "unavailable"
    INACCURATE = "inaccurate"
    INCOMPLETE = "incomplete"
    LATE = "late"
    EARLY = "early"


GUIDE_WORDS = tuple(GuideWord)
GUIDE_WORDS_BY_TOKEN = {g.value: g for g in GuideWord}
GUIDE_WORD_TOKENS = ", ".join(GUIDE_WORDS_BY_TOKEN)

# A maximal run of str.isalnum() characters: \w without the underscore.
_ALNUM_RUN = re.compile(r"[^\W_]+")


def slugify(name: str) -> str:
    """Deterministic identifier for a display name.

    Lowercases the trimmed name and collapses every maximal run of
    non-alphanumeric characters into a single hyphen.  Idempotent.  Raises
    ValueError when nothing alphanumeric survives.
    """
    trimmed = name.strip()
    if not trimmed:
        raise ValueError("cannot slugify an empty name")
    runs = _ALNUM_RUN.findall(trimmed.lower())
    if not runs:
        raise ValueError(f"name {name!r} has no alphanumeric characters")
    return "-".join(runs)


def dedupe(items: Iterable[str]) -> tuple[str, ...]:
    """Drop duplicates while keeping first-mention order."""
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return tuple(out)


def cycles(graph: dict[str, list[str]]) -> list[list[str]]:
    """Each strongly connected component of ``graph`` that holds a cycle:
    two or more nodes, or one node with an edge to itself.  ``graph`` maps
    every node to its successors.  Tarjan's algorithm on an explicit stack,
    so a long chain cannot reach the recursion limit.  A node placed in a
    component gets a low link above every index, so it lowers no other."""
    placed = len(graph)
    low: dict[str, int] = {}
    stack: list[str] = []
    found: list[list[str]] = []
    for root in graph:
        if root in low:
            continue
        low[root] = len(low)
        stack.append(root)
        work = [(root, low[root], iter(graph[root]))]
        while work:
            node, index, successors = work[-1]
            for succ in successors:
                if succ not in low:
                    low[succ] = len(low)
                    stack.append(succ)
                    work.append((succ, low[succ], iter(graph[succ])))
                    break
                low[node] = min(low[node], low[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index:
                    cut = len(stack) - 1
                    while stack[cut] != node:
                        cut -= 1
                    component = stack[cut:]
                    del stack[cut:]
                    for member in component:
                        low[member] = placed
                    if len(component) > 1 or node in graph[node]:
                        found.append(component)
    return found


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Agent:
    """A person, role, system, group or organization that can hold duties."""

    id: str
    name: str
    kind: AgentKind = AgentKind.ORGANIZATION
    # Provenance only: ignored by equality so that canonical print/parse
    # round trips compare equal.
    implicit: bool = field(default=False, compare=False)

@dataclass(frozen=True)
class Resource:
    """A physical or information resource that duties need, make or use."""

    id: str
    name: str
    kind: ResourceKind
    implicit: bool = field(default=False, compare=False)

@dataclass(frozen=True)
class Channel:
    """A way information travels, with its medium and the channel it backs up."""

    id: str
    name: str
    medium: Optional[str] = None
    backup_of: Optional[str] = None
    implicit: bool = field(default=False, compare=False)

@dataclass(frozen=True)
class InfoNeed:
    """One information requirement of a responsibility.

    ``sources`` and ``channels`` are ordered sets: duplicates are merged at
    load time (union of sources and channels per resource).
    """

    resource: str
    sources: tuple[str, ...] = ()
    channels: tuple[str, ...] = ()
    criticality: Optional[Severity] = None

@dataclass(frozen=True)
class InfoProduct:
    """Information created or recorded while discharging a responsibility."""

    resource: str
    channels: tuple[str, ...] = ()
    rationale: Optional[str] = None

@dataclass(frozen=True)
class HazardEntry:
    """Assessment of one (information item, guide word) deviation.

    An empty consequence means the row has not been assessed yet.  The
    entry sits in the ``hazards`` of its ``Responsibility``: at most one
    entry per item and guide word of its duty.
    """

    item: str
    guide_word: GuideWord
    consequence: str = ""
    severity: Severity = Severity.NONE
    mitigation: Optional[str] = None

    @property
    def assessed(self) -> bool:
        return bool(self.consequence)

@dataclass(frozen=True)
class Responsibility:
    """A named duty, optionally assigned to agents.

    An empty ``assigned_to`` is legal (models may be incomplete) but is
    surfaced by validation and analysis.
    """

    id: str
    name: str
    assigned_to: tuple[str, ...] = ()
    needs: tuple[InfoNeed, ...] = ()
    products: tuple[InfoProduct, ...] = ()
    uses: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    hazards: tuple[HazardEntry, ...] = ()

@dataclass(frozen=True)
class Model:
    """A whole responsibility model: its elements and its duties' ``precedes`` links."""

    name: str = ""
    agents: tuple[Agent, ...] = ()
    resources: tuple[Resource, ...] = ()
    channels: tuple[Channel, ...] = ()
    responsibilities: tuple[Responsibility, ...] = ()
    sequence_links: tuple[tuple[str, str], ...] = ()

    # -- lookups ------------------------------------------------------------
    #
    # Each map is built on first use and cached in the instance __dict__,
    # which the dataclass __eq__, __hash__ and __repr__ never read.  A model
    # made with dataclasses.replace starts with no maps.  The first element
    # wins on a duplicate id or name, as a scan from the front would.

    @cached_property
    def _agents_by_id(self) -> dict[str, Agent]:
        return _first_by(self.agents, "id")

    @cached_property
    def _resources_by_id(self) -> dict[str, Resource]:
        return _first_by(self.resources, "id")

    @cached_property
    def _channels_by_id(self) -> dict[str, Channel]:
        return _first_by(self.channels, "id")

    @cached_property
    def _responsibilities_by_id(self) -> dict[str, Responsibility]:
        return _first_by(self.responsibilities, "id")

    @cached_property
    def _agents_by_name(self) -> dict[str, Agent]:
        return _first_by(self.agents, "name")

    @cached_property
    def _resources_by_name(self) -> dict[str, Resource]:
        return _first_by(self.resources, "name")

    @cached_property
    def _responsibilities_by_name(self) -> dict[str, Responsibility]:
        return _first_by(self.responsibilities, "name")

    @cached_property
    def required_items(self) -> frozenset[str]:
        """Ids of the resources some responsibility requires."""
        return frozenset(n.resource for r in self.responsibilities for n in r.needs)

    @cached_property
    def channels_with_backup(self) -> frozenset[str]:
        """Ids of channels that have a declared backup partner.

        A channel has a partner when another declared channel is its
        backup, or when it is the backup of another declared channel.
        """
        backed_up = {c.backup_of for c in self.channels
                     if c.backup_of is not None and c.backup_of != c.id}
        backups = {c.id for c in self._channels_by_id.values()
                   if c.backup_of in self._channels_by_id and c.backup_of != c.id}
        return frozenset(backed_up | backups)

    def __getstate__(self) -> dict:
        """The fields alone: a pickle leaves the cached maps behind, and
        the copy builds its own on first use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def responsibility_by_id(self, resp_id: str) -> Optional[Responsibility]:
        return self._responsibilities_by_id.get(resp_id)

    def responsibility_named(self, name: str) -> Optional[Responsibility]:
        return self._responsibilities_by_name.get(name.strip())

    def agent_named(self, name: str) -> Optional[Agent]:
        return self._agents_by_name.get(name.strip())

    def resource_named(self, name: str) -> Optional[Resource]:
        return self._resources_by_name.get(name.strip())

    def agent_name(self, agent_id: str) -> str:
        agent = self._agents_by_id.get(agent_id)
        return agent.name if agent else agent_id

    def resource_name(self, resource_id: str) -> str:
        resource = self._resources_by_id.get(resource_id)
        return resource.name if resource else resource_id

    def channel_name(self, channel_id: str) -> str:
        channel = self._channels_by_id.get(channel_id)
        return channel.name if channel else channel_id

def _first_by(elements: tuple, attr: str) -> dict:
    """Map each value of ``attr`` to the first element that has it."""
    return {getattr(e, attr): e for e in reversed(elements)}


def canonical_elements(elements: Iterable) -> tuple:
    """Sort a collection of named elements into canonical order."""
    return tuple(sorted(elements, key=lambda e: e.name))


def printable(text: str) -> str:
    """``text`` as one printable line for stderr: each character that
    ``str.isprintable()`` rejects, such as a line end or a terminal
    escape, is written as its Python escape (``\\n``, ``\\x1b``,
    ``\\u2028``).  A backslash stays as written."""
    if text.isprintable():
        return text
    return "".join(char if char.isprintable() else repr(char)[1:-1] for char in text)


class Problem(NamedTuple):
    """One problem in an input: where it is, a ``dsl.SourceSpan`` or None,
    and what it is.  It renders as one printable line."""

    span: Optional[tuple]
    message: str

    def render(self) -> str:
        place = "" if self.span is None else "{}:{}:{}: ".format(*self.span)
        return printable(f"{place}error: {self.message}")


class InputError(ValueError):
    """An input respkit cannot take, for each of ``problems``; it renders
    one line per problem.  Every subclass is made from its problems alone,
    so an error pickles and unpickles as any exception does."""

    def __init__(self, problems: Iterable[Problem]):
        self.problems = list(problems)
        super().__init__(self.problems)

    def __str__(self) -> str:
        return "\n".join(problem.render() for problem in self.problems)


class UnknownResponsibility(InputError, KeyError):
    """Raised when an operation names a responsibility the model lacks."""


def unknown_responsibility(model: Model, name: str) -> str:
    """The message for a ``name`` that names no duty of ``model``: how many
    duties it defines and at most three close names, not every name."""
    import difflib  # an error path: a run that finds its duty never loads it

    names = [r.name for r in model.responsibilities]
    close = ", ".join(f'"{match}"' for match in difflib.get_close_matches(name, names, 3))
    return (f'unknown responsibility "{name}"; model defines {len(names)}, '
            f"closest: {close or '(none)'}")


def require_responsibility(model: Model, name: str) -> Responsibility:
    """The duty of ``model`` named ``name``.  Raise UnknownResponsibility,
    one problem with no place, when there is none."""
    resp = model.responsibility_named(name)
    if resp is None:
        raise UnknownResponsibility([Problem(None, unknown_responsibility(model, name))])
    return resp


# ---------------------------------------------------------------------------
# Requirements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRef:
    """A trace link from a requirement into the model.

    ``kind`` is one of agent | information | physical | responsibility |
    hazard; ``guide_word`` is set for hazard traces only.
    ``dsl.format_trace`` writes it as a ``.reqs`` file does.
    """

    kind: str
    name: str
    guide_word: Optional[GuideWord] = None


@dataclass(frozen=True)
class RequirementRecord:
    """One requirement of a ``.reqs`` file, with its trace links into the model."""

    id: str
    text: str
    rationale: str
    traces: tuple[TraceRef, ...] = ()


# ---------------------------------------------------------------------------
# Findings and tables
# ---------------------------------------------------------------------------

#: Every finding code, with its fixed severity.  ``validate`` reports the
#: first four (IMPLICIT_DECL and NO_CHANNEL in strict mode only), and
#: ``analysis.run_all`` every code but those two.
FINDING_CATALOG: dict[str, Severity] = {
    "UNASSIGNED_RESP": Severity.HIGH,
    "UNSOURCED_INFO": Severity.MEDIUM,
    "IMPLICIT_DECL": Severity.LOW,
    "NO_CHANNEL": Severity.LOW,
    "UNUSED_RESOURCE": Severity.LOW,
    "SINGLE_CHANNEL": Severity.MEDIUM,
    "DUPLICATE_SOURCE": Severity.LOW,
    "AGENT_OVERLOAD": Severity.MEDIUM,
    "SEQUENCE_CYCLE": Severity.HIGH,
}


# The backslash, then every character besides "\n" that str.splitlines()
# ends a line at, each with its Python escape.  Each line end is a control
# or separator character, which str.isprintable() rejects.
_ESCAPES = [(char, repr(char)[1:-1])
            for char in "\\\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]


def escape_line_ends(text: str) -> str:
    """Write a backslash as ``\\\\`` and each line end but ``\\n`` as its
    Python escape, such as ``\\r`` or ``\\u2028``.  A name may hold one,
    and text output keeps one record a line under any line-end rule."""
    if text.isprintable() and "\\" not in text:
        return text
    for char, escape in _ESCAPES:
        text = text.replace(char, escape)
    return text


class Finding(NamedTuple):
    """One weakness that ``check`` or ``analyze`` reports: a catalog code,
    its fixed severity, the ids of the elements concerned and a sentence."""

    code: str
    severity: Severity
    subjects: tuple[str, ...]
    explanation: str

    @property
    def subject(self) -> str:
        return ",".join(self.subjects)

    def render(self) -> str:
        return escape_line_ends(
            f"{self.code} {self.severity.token} {self.subject}: {self.explanation}")


def finding(code: str, subjects: tuple[str, ...], explanation: str) -> Finding:
    """The finding of catalog ``code``, at the code's fixed severity."""
    return Finding(code, FINDING_CATALOG[code], subjects, explanation)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """``findings`` in canonical order: by code, then by subjects."""
    return sorted(findings, key=lambda f: (f.code, f.subjects))


class InfoTable(NamedTuple):
    """Column headings and rows of string cells, as ``reporting`` renders them."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


def channel_flows(resp: Responsibility) -> list[tuple[str, tuple[str, ...], str]]:
    """Each need and product of ``resp`` as (item id, channel ids, "required"
    or "produced"): the flows the channel checks look at."""
    return ([(n.resource, n.channels, "required") for n in resp.needs]
            + [(p.resource, p.channels, "produced") for p in resp.products])


def find_unassigned(model: Model) -> list[Finding]:
    """One finding per responsibility that no agent holds."""
    return sort_findings([
        finding("UNASSIGNED_RESP", (resp.id,),
                f'responsibility "{resp.name}" has no assigned agent')
        for resp in model.responsibilities if not resp.assigned_to
    ])


def _unsourced(model: Model, scope: str) -> list[Finding]:
    """Needs with no source and no producer; ``scope`` ends each explanation."""
    produced = {p.resource for r in model.responsibilities for p in r.products}
    return sort_findings([
        finding("UNSOURCED_INFO", (f"{resp.id}/{need.resource}",),
                f"|{model.resource_name(need.resource)}| required by "
                f'"{resp.name}" has no source and no producer{scope}')
        for resp in model.responsibilities for need in resp.needs
        if not need.sources and need.resource not in produced
    ])


def find_unsourced_info(model: Model) -> list[Finding]:
    """Needs with no recorded source and no producing responsibility."""
    return _unsourced(model, " in the model")


def validate(model: Model, strict: bool = False) -> list[Finding]:
    """Report model weaknesses without failing.

    Lenient validation reports unassigned responsibilities and needs whose
    information comes from nowhere.  Strict validation additionally reports
    every implicitly declared element and every need or product with no
    communication channel.  The result is sorted by (code, subjects) and is
    a pure function of the model.
    """
    findings = find_unassigned(model) + _unsourced(model, "")
    if strict:
        implicit = (
            [("agent", a.id, a.name) for a in model.agents if a.implicit]
            + [("resource", r.id, r.name) for r in model.resources if r.implicit]
            + [("channel", c.id, c.name) for c in model.channels if c.implicit]
        )
        findings += [
            finding("IMPLICIT_DECL", (element_id,),
                    f'{kind} "{name}" was never declared explicitly')
            for kind, element_id, name in implicit
        ]
        findings += [
            finding("NO_CHANNEL", (f"{resp.id}/{resource}",),
                    f"no communication channel recorded for "
                    f'|{model.resource_name(resource)}| {how} by "{resp.name}"')
            for resp in model.responsibilities
            for resource, channels, how in channel_flows(resp) if not channels
        ]
    return sort_findings(findings)
