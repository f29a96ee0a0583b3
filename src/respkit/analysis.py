"""Vulnerability detection and cross-model comparison.

Every analysis is a pure, read-only function of the model; the full set may
run concurrently over one shared model.  Findings carry a code from
``model.FINDING_CATALOG``, each with a fixed severity, and are returned in
canonical order (code, then subject).  ``Finding``, the catalog and the two
checks that ``validate`` shares, ``find_unassigned`` and
``find_unsourced_info``, live in ``model`` and are re-exported here.
``PerceptionInconsistency``, like ``Finding``, is a named tuple.
``diff_models`` compares what ``perceive`` keeps of each model: names in
builtin types, which another process can hand back cheaply.
"""

from enum import Enum
from typing import Collection, NamedTuple, Union

from .model import (
    FINDING_CATALOG,
    Finding,
    Model,
    Responsibility,
    channel_flows,
    cycles,
    escape_line_ends,
    find_unassigned,
    find_unsourced_info,
    finding,
    sort_findings,
)

#: Agents assigned strictly more responsibilities than this are overloaded.
DEFAULT_LOAD_THRESHOLD = 5


def find_single_channel(model: Model) -> list[Finding]:
    """Information flows that depend on exactly one channel.

    A single listed channel counts as two when the model declares a backup
    partner for it.  Flows with no channel at all are a strict-validation
    concern, not a finding.
    """
    findings = []
    with_backup = model.channels_with_backup
    for resp in model.responsibilities:
        for resource, channels, how in channel_flows(resp):
            if len(channels) == 1 and channels[0] not in with_backup:
                channel_name = model.channel_name(channels[0])
                findings.append(finding(
                    "SINGLE_CHANNEL", (f"{resp.id}/{resource}",),
                    f"|{model.resource_name(resource)}| {how} by \"{resp.name}\" "
                    f"relies on the single channel \"{channel_name}\" with no backup"))
    return sort_findings(findings)


def find_duplicate_sources(model: Model) -> list[Finding]:
    """Information kept in more than one place.

    Flags a resource that different responsibilities require from
    non-identical source sets, and a resource produced by more than one
    responsibility.
    """
    findings = []
    required: dict[str, list[tuple[Responsibility, frozenset[str]]]] = {}
    producers: dict[str, list[Responsibility]] = {}
    for resp in model.responsibilities:
        for need in resp.needs:
            required.setdefault(need.resource, []).append(
                (resp, frozenset(need.sources)))
        for product in resp.products:
            producers.setdefault(product.resource, []).append(resp)

    for resource, entries in required.items():
        source_sets = {sources for _, sources in entries}
        if len(source_sets) > 1:
            resp_names = ", ".join(sorted(f'"{r.name}"' for r, _ in entries))
            findings.append(finding(
                "DUPLICATE_SOURCE", (resource,),
                f"|{model.resource_name(resource)}| is required with differing "
                f"sources by {resp_names}"))
    for resource, resps in producers.items():
        if len(resps) > 1:
            resp_names = ", ".join(sorted(f'"{r.name}"' for r in resps))
            findings.append(finding(
                "DUPLICATE_SOURCE", (resource,),
                f"|{model.resource_name(resource)}| is produced by more than "
                f"one responsibility: {resp_names}"))
    return sort_findings(findings)


def find_unused_resources(model: Model) -> list[Finding]:
    """Declared resources that no responsibility touches."""
    touched: set[str] = set()
    for resp in model.responsibilities:
        touched.update(need.resource for need in resp.needs)
        touched.update(product.resource for product in resp.products)
        touched.update(resp.uses)
        touched.update(entry.item for entry in resp.hazards)
    return sort_findings([
        finding("UNUSED_RESOURCE", (resource.id,),
                f"resource \"{resource.name}\" is declared but never used")
        for resource in model.resources if resource.id not in touched
    ])


def agent_load(model: Model,
               threshold: int = DEFAULT_LOAD_THRESHOLD) -> list[Finding]:
    """Agents holding strictly more responsibilities than the threshold."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    counts: dict[str, int] = {}
    for resp in model.responsibilities:
        for agent_id in resp.assigned_to:
            counts[agent_id] = counts.get(agent_id, 0) + 1
    findings = []
    for agent_id, count in counts.items():
        if count > threshold:
            findings.append(finding(
                "AGENT_OVERLOAD", (agent_id,),
                f"<{model.agent_name(agent_id)}> holds {count} responsibilities "
                f"(threshold {threshold})"))
    return sort_findings(findings)


def detect_sequence_cycles(model: Model) -> list[Finding]:
    """Strongly connected components (or self-loops) in the precedes graph."""
    graph: dict[str, list[str]] = {r.id: [] for r in model.responsibilities}
    for source, target in model.sequence_links:
        graph.setdefault(source, []).append(target)
        # A hand-built model may link to a duty it lacks: a dead end.
        graph.setdefault(target, [])
    findings = []
    for component in cycles(graph):
        # A member that is not a duty of the model goes by its id.
        name = {m: getattr(model.responsibility_by_id(m), "name", m) for m in component}
        members = tuple(sorted(component, key=name.get))
        listing = ", ".join(f'"{name[m]}"' for m in members)
        findings.append(finding(
            "SEQUENCE_CYCLE", members,
            f"responsibilities {listing} precede one another in a cycle"))
    return sort_findings(findings)


def run_all(model: Model,
            load_threshold: int = DEFAULT_LOAD_THRESHOLD) -> list[Finding]:
    """Run every analysis and return one canonically ordered finding list."""
    findings = (
        find_unassigned(model)
        + find_unsourced_info(model)
        + find_unused_resources(model)
        + find_single_channel(model)
        + find_duplicate_sources(model)
        + agent_load(model, load_threshold)
        + detect_sequence_cycles(model)
    )
    return sort_findings(findings)


# ---------------------------------------------------------------------------
# Cross-model comparison
# ---------------------------------------------------------------------------


class InconsistencyKind(Enum):
    MISSING_RESPONSIBILITY = "MissingResponsibility"
    ASSIGNMENT_MISMATCH = "AssignmentMismatch"
    SOURCE_MISMATCH = "SourceMismatch"
    CHANNEL_MISMATCH = "ChannelMismatch"


class PerceptionInconsistency(NamedTuple):
    kind: InconsistencyKind
    responsibility: str
    left: str
    right: str

    def render(self) -> str:
        return escape_line_ends(f'{self.kind.value} "{self.responsibility}": '
                                f"left: {self.left}; right: {self.right}")

    def swapped(self) -> "PerceptionInconsistency":
        return PerceptionInconsistency(self.kind, self.responsibility,
                                       self.right, self.left)


def _listing(names: Collection[str], wrap: str, empty: str) -> str:
    """``names`` sorted, each between the two characters of ``wrap``, or
    ``empty`` when there are none."""
    if not names:
        return empty
    opener, closer = wrap
    return ", ".join(f"{opener}{n}{closer}" for n in sorted(names))


#: How a model perceives its duties, by name alone: each duty's name maps
#: to its assigned agent names and to its flows keyed by (verb, item name),
#: verb "required" or "produced", each flow its source names (None for a
#: product) and its channel names.
Perception = dict[str, tuple[frozenset[str], dict[tuple[str, str], tuple]]]


def perceive(model: Model) -> Perception:
    """The names ``diff_models`` compares, and nothing else.  Only builtin
    types, so it pickles small and unpickles without respkit."""
    agent, channel, resource = model.agent_name, model.channel_name, model.resource_name
    perception = {}
    for resp in model.responsibilities:
        flows = {("required", resource(n.resource)):
                 (frozenset(map(agent, n.sources)), frozenset(map(channel, n.channels)))
                 for n in resp.needs}
        for p in resp.products:
            flows["produced", resource(p.resource)] = (None, frozenset(map(channel, p.channels)))
        perception[resp.name] = (frozenset(map(agent, resp.assigned_to)), flows)
    return perception


def diff_models(left: Union[Model, Perception],
                right: Union[Model, Perception]) -> list[PerceptionInconsistency]:
    """Compare how two models perceive the same responsibilities.  Each
    side is a model or its ``perceive``; a model is perceived first.

    Responsibilities are matched by exact (trimmed) name, flows by verb and
    item name.  The result is symmetric: diff(a, b) equals diff(b, a) with
    left and right swapped.
    """
    left, right = (perceive(m) if isinstance(m, Model) else m for m in (left, right))
    results: list[PerceptionInconsistency] = []
    for name in sorted(left.keys() | right.keys()):
        left_duty, right_duty = left.get(name), right.get(name)
        if left_duty is None or right_duty is None:
            results.append(PerceptionInconsistency(
                InconsistencyKind.MISSING_RESPONSIBILITY, name,
                "present" if left_duty else "absent",
                "present" if right_duty else "absent"))
            continue

        (left_assigned, left_flows), (right_assigned, right_flows) = left_duty, right_duty
        if left_assigned != right_assigned:
            results.append(PerceptionInconsistency(
                InconsistencyKind.ASSIGNMENT_MISMATCH, name,
                _listing(left_assigned, "<>", "unassigned"),
                _listing(right_assigned, "<>", "unassigned")))
        if left_flows == right_flows:  # one comparison settles a duty that agrees
            continue
        for key in sorted(left_flows.keys() | right_flows.keys()):
            verb, item = key
            l_flow, r_flow = left_flows.get(key), right_flows.get(key)
            if l_flow is None or r_flow is None:
                # A one-sided need differs in its sources, a product in its
                # channels.
                sources, channels = l_flow or r_flow
                if sources is None:
                    kind = InconsistencyKind.CHANNEL_MISMATCH
                    present = (f"|{item}| produced via "
                               + _listing(channels, '""', "no channel"))
                else:
                    kind = InconsistencyKind.SOURCE_MISMATCH
                    present = (f"|{item}| required from "
                               + _listing(sources, "<>", "no recorded source"))
                absent = f"|{item}| not {verb}"
                results.append(PerceptionInconsistency(
                    kind, name, present if l_flow else absent,
                    present if r_flow else absent))
                continue
            (l_sources, l_channels), (r_sources, r_channels) = l_flow, r_flow
            if l_sources != r_sources:
                results.append(PerceptionInconsistency(
                    InconsistencyKind.SOURCE_MISMATCH, name,
                    f"|{item}| from " + _listing(l_sources, "<>", "no recorded source"),
                    f"|{item}| from " + _listing(r_sources, "<>", "no recorded source")))
            if l_channels != r_channels:
                results.append(PerceptionInconsistency(
                    InconsistencyKind.CHANNEL_MISMATCH, name,
                    f"|{item}| {verb} via " + _listing(l_channels, '""', "no channel"),
                    f"|{item}| {verb} via " + _listing(r_channels, '""', "no channel")))

    results.sort(key=lambda r: (r.kind.value, r.responsibility,
                                min(r.left, r.right), max(r.left, r.right)))
    return results
