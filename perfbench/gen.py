"""Seeded, standard-library-only input generator for the benchmark.

A generated model is first built as a plain ``Spec`` (names only, no ids),
then rendered to ``.resp`` text.  While it builds, the generator writes
down every finding it plants and every perturbation it applies, so the
benchmark can check respkit's outputs without calling respkit.

Every flow, agent and item that is not planted is made so that it raises
no finding: assigned agents hold at most five duties, flows carry two
channels or one channel with a declared backup partner, shared items are
required with one source set, and each product has one producer.
"""

from __future__ import annotations

import copy
import random
import re
from dataclasses import dataclass, field
from typing import Optional

GUIDE_WORDS = ("unavailable", "inaccurate", "incomplete", "late", "early")
SEVERITIES = ("none", "low", "medium", "high", "critical")
SERIOUS = ("medium", "high", "critical")  # respkit's default mitigation threshold
LOAD_LIMIT = 5  # respkit's default overload threshold
REVIEW_SIZE = 1000  # duties in the review model
ELICITATION_SIZE = 300  # duties in the elicitation model

_VERBS = ("Coordinate", "Dispatch", "Assess", "Report", "Maintain", "Notify",
          "Inspect", "Allocate", "Record", "Supply", "Staff", "Clear")
_OBJECTS = ("shelter", "transport", "casualties", "supplies", "routes",
            "premises", "volunteers", "alerts", "fuel", "water")
_UNITS = ("Police unit", "Fire crew", "Council team", "Ambulance post",
          "Liaison desk", "Water board", "Rail control", "Met office")
_AGENT_KINDS = ("organization", "role", "person", "system", "group")
_NOUNS = ("Status report", "Road closure list", "Casualty count",
          "Shelter roster", "Supply ledger", "Weather bulletin",
          "Resident register", "Incident log")
_MEDIA = ("radio", "phone", "email", "fax", "data-link", "courier")


def slug(name: str) -> str:
    """respkit's identifier for an ASCII display name."""
    return re.sub(r"[^a-z0-9]+", "-", name.strip().lower()).strip("-")


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------


@dataclass
class Need:
    item: str
    sources: list
    channels: list
    criticality: Optional[str] = None


@dataclass
class Product:
    item: str
    channels: list
    rationale: Optional[str] = None


@dataclass
class Hazard:
    item: str
    word: str
    consequence: str
    severity: str = "none"
    mitigated_by: Optional[str] = None


@dataclass
class Resp:
    name: str
    assigned: list = field(default_factory=list)
    needs: list = field(default_factory=list)
    products: list = field(default_factory=list)
    uses: list = field(default_factory=list)
    hazards: list = field(default_factory=list)
    precedes: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def need(self, item: str) -> Optional[Need]:
        return next((n for n in self.needs if n.item == item), None)


@dataclass
class Spec:
    name: str
    agents: dict = field(default_factory=dict)    # declared name -> kind
    info: list = field(default_factory=list)      # declared information items
    physical: list = field(default_factory=list)  # declared physical items
    channels: dict = field(default_factory=dict)  # declared name -> (medium, backup_of)
    resps: list = field(default_factory=list)

    def resp(self, name: str) -> Resp:
        return next(r for r in self.resps if r.name == name)


@dataclass
class Session:
    """One ``elicitation`` block of an answers file."""

    resp: str
    needs: list = field(default_factory=list)     # Need, criticality unused
    records: list = field(default_factory=list)   # Product
    hazards: list = field(default_factory=list)   # Hazard, mitigated_by unused


@dataclass
class Requirement:
    id: str
    text: str
    rationale: str
    traces: list  # rendered trace targets


@dataclass
class Workload:
    """Generated files plus the records the output checks are made from."""

    files: dict            # file name -> text
    model: Spec            # the model the read-only subcommands load
    focus: str             # responsibility for elicit/tables/hazards/mitigations
    analyze: list          # (code, subjects) expected from analyze
    check: list            # (code, subject) expected from check --strict
    diff: list             # (kind, responsibility, left, right) for diff left right
    requirement_ids: list
    ingest_hazards: int    # hazard lines the merged model must print


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _flow_tail(sources: list, channels: list) -> str:
    out = ""
    if sources:
        out += " from " + ", ".join(f"<{s}>" for s in sources)
    if channels:
        out += " via " + ", ".join(quote(c) for c in channels)
    return out


def render_model(spec: Spec) -> str:
    lines = [f"model {quote(spec.name)}", ""]
    lines += [f"agent <{name}> kind {kind}" for name, kind in spec.agents.items()]
    lines += [f"resource |{name}|" for name in spec.info]
    lines += [f"resource [{name}]" for name in spec.physical]
    for name, (medium, backup_of) in spec.channels.items():
        line = f"channel {quote(name)}"
        if medium:
            line += f" medium {medium}"
        if backup_of:
            line += f" backup_of {quote(backup_of)}"
        lines.append(line)
    for resp in spec.resps:
        lines += ["", f"responsibility {quote(resp.name)} {{"]
        if resp.assigned:
            lines.append("  assigned to " + ", ".join(f"<{a}>" for a in resp.assigned))
        for need in resp.needs:
            line = f"  requires |{need.item}|" + _flow_tail(need.sources, need.channels)
            if need.criticality:
                line += f" criticality {need.criticality}"
            lines.append(line)
        for product in resp.products:
            line = f"  produces |{product.item}|" + _flow_tail([], product.channels)
            if product.rationale:
                line += f" rationale {quote(product.rationale)}"
            lines.append(line)
        lines += [f"  uses [{u}]" for u in resp.uses]
        for h in resp.hazards:
            line = (f"  hazard |{h.item}| {h.word} {quote(h.consequence)} "
                    f"severity {h.severity}")
            if h.mitigated_by:
                line += f" mitigated_by {h.mitigated_by}"
            lines.append(line)
        lines += [f"  precedes {quote(t)}" for t in resp.precedes]
        lines += [f"  note {quote(n)}" for n in resp.notes]
        lines.append("}")
    return "\n".join(lines) + "\n"


def render_answers(sessions: list) -> str:
    lines = []
    for s in sessions:
        lines.append(f'elicitation {quote(s.resp)} by "Review team" date "2024-05" {{')
        lines.append("  needs {")
        lines += ["    " + f"|{n.item}|" + _flow_tail(n.sources, n.channels)
                  for n in s.needs]
        lines.append("  }")
        lines.append("  records {")
        for p in s.records:
            line = "    " + f"|{p.item}|" + _flow_tail([], p.channels)
            if p.rationale:
                line += f" rationale {quote(p.rationale)}"
            lines.append(line)
        lines.append("  }")
        for item in dict.fromkeys(h.item for h in s.hazards):
            lines.append(f"  hazards |{item}| {{")
            lines += [f"    {h.word} {quote(h.consequence)} severity {h.severity}"
                      for h in s.hazards if h.item == item]
            lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


def render_requirements(reqs: list) -> str:
    blocks = []
    for r in reqs:
        lines = [f"requirement {r.id} {{", f"  text {quote(r.text)}",
                 f"  rationale {quote(r.rationale)}"]
        lines += [f"  traces {t}" for t in r.traces]
        blocks.append("\n".join(lines + ["}"]))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Merging answers into a spec (mirrors the documented ingest semantics)
# ---------------------------------------------------------------------------


def _union(old: list, new: list) -> list:
    return list(dict.fromkeys(old + new))


def apply_sessions(spec: Spec, sessions: list) -> Spec:
    """The model ``ingest`` must produce: monotone union of the answers."""
    merged = copy.deepcopy(spec)
    for s in sessions:
        resp = merged.resp(s.resp)
        for answer in s.needs:
            need = resp.need(answer.item)
            if need is None:
                resp.needs.append(Need(answer.item, list(answer.sources),
                                       list(answer.channels)))
            else:
                need.sources = _union(need.sources, answer.sources)
                need.channels = _union(need.channels, answer.channels)
        for answer in s.records:
            product = next((p for p in resp.products if p.item == answer.item), None)
            if product is None:
                resp.products.append(Product(answer.item, list(answer.channels),
                                             answer.rationale))
            else:
                product.channels = _union(product.channels, answer.channels)
                product.rationale = product.rationale or answer.rationale
        for answer in s.hazards:
            old = next((h for h in resp.hazards
                        if (h.item, h.word) == (answer.item, answer.word)), None)
            if old is None:
                resp.hazards.append(Hazard(answer.item, answer.word,
                                           answer.consequence, answer.severity))
            else:
                old.consequence = old.consequence or answer.consequence
                old.severity = max(old.severity, answer.severity,
                                   key=SEVERITIES.index)
    return merged


# ---------------------------------------------------------------------------
# Synthetic models
# ---------------------------------------------------------------------------


class _Builder:
    """Builds one synthetic model and records what it plants."""

    def __init__(self, rng: random.Random, n: int, title: str):
        self.rng = rng
        self.n = n
        self.spec = Spec(title)
        self.analyze: list = []
        self.check: list = []
        self.planted_flows: set = set()   # (resp, item) pairs with a finding
        self.counter = 0
        self.paired: list = []            # channels with a backup partner
        self.lone: list = []              # declared channels with no partner
        self.implicit_channels: list = []

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem} {self.counter:05d}"

    # -- elements ------------------------------------------------------------

    def make_agents(self) -> None:
        rng, n = self.rng, self.n
        count = n * 3 // 8 + 8
        self.agents = [f"{_UNITS[i % len(_UNITS)]} {i:04d}" for i in range(count)]
        implicit = set(rng.sample(range(count), max(1, n // 100)))
        for i, name in enumerate(self.agents):
            if i not in implicit:
                self.spec.agents[name] = rng.choice(_AGENT_KINDS)
        self.load = {a: 0 for a in self.agents}

    def make_channels(self) -> None:
        rng, n = self.rng, self.n
        for i in range(max(2, n // 25)):
            medium = rng.choice(_MEDIA)
            primary = f"{medium.capitalize()} net {i:03d}"
            backup = f"Fallback for {medium} net {i:03d}"
            self.spec.channels[primary] = (medium, None)
            self.spec.channels[backup] = (rng.choice(_MEDIA), primary)
            self.paired += [primary, backup]
        for i in range(max(2, n // 25)):
            name = f"Direct line {i:03d}"
            self.spec.channels[name] = (rng.choice(_MEDIA), None)
            self.lone.append(name)
        for i in range(max(1, n // 100)):
            self.implicit_channels.append(f"Ad hoc link {i:03d}")

    def channels(self) -> list:
        """Channels for a flow that must not be single-channel."""
        rng = self.rng
        if rng.random() < 0.5:
            return [rng.choice(self.paired)]
        pool = self.paired + self.lone + self.implicit_channels
        return rng.sample(pool, 2)

    def item(self, stem: Optional[str] = None, declare: bool = True) -> str:
        name = self.fresh(stem or self.rng.choice(_NOUNS))
        if declare:
            self.spec.info.append(name)
        return name

    def assign(self, resp: Resp, count: int) -> None:
        free = [a for a in self.agents if self.load[a] < LOAD_LIMIT
                and a not in resp.assigned]
        for agent in self.rng.sample(free, min(count, len(free))):
            self.load[agent] += 1
            resp.assigned.append(agent)

    def sources(self) -> list:
        return self.rng.sample(self.agents, self.rng.choice((1, 1, 2)))

    # -- the model -----------------------------------------------------------

    def build(self) -> Spec:
        rng, n, spec = self.rng, self.n, self.spec
        self.make_agents()
        self.make_channels()
        spec.resps = [Resp(f"{rng.choice(_VERBS)} {rng.choice(_OBJECTS)} {i:04d}")
                      for i in range(n)]
        resps = spec.resps
        order = list(range(n))
        rng.shuffle(order)
        take = lambda k: [order.pop() for _ in range(k)]  # noqa: E731

        unassigned = set(take(max(1, n // 100)))
        cycle_members = take(max(1, n // 250) * 3)
        self_loop = take(1)[0]
        focus = take(1)[0]
        self.focus = resps[focus].name

        # Assignment: at most LOAD_LIMIT duties per agent, then overload.
        for i, resp in enumerate(resps):
            if i not in unassigned:
                self.assign(resp, rng.choice((1, 1, 2)))
        for i in sorted(unassigned):
            self.analyze.append(("UNASSIGNED_RESP", (slug(resps[i].name),)))
            self.check.append(("UNASSIGNED_RESP", slug(resps[i].name)))
        assigned = [i for i in range(n) if i not in unassigned]
        for k in range(max(1, n // 300)):
            agent = f"Strategic cell {k:02d}"
            spec.agents[agent] = "group"
            for i in rng.sample(assigned, LOAD_LIMIT + 1 + k):
                resps[i].assigned.append(agent)
            self.analyze.append(("AGENT_OVERLOAD", (slug(agent),)))

        # Own needs and products.
        for i, resp in enumerate(resps):
            for _ in range(3 if i == focus else rng.choice((1, 1, 2, 2))):
                item = self.item(declare=rng.random() > 0.01)
                crit = rng.choice(SEVERITIES[1:]) if rng.random() < 0.2 else None
                resp.needs.append(Need(item, self.sources(), self.channels(), crit))
            for _ in range(2 if i == focus else rng.choice((0, 1, 1, 1))):
                resp.products.append(Product(
                    self.item("Situation log"), self.channels(),
                    "audit trail" if rng.random() < 0.5 else None))

        # Shared items: one source set, several consumers.
        for _ in range(max(1, n // 10)):
            item, srcs = self.item("Common picture"), self.sources()
            for i in rng.sample(range(n), rng.choice((2, 3))):
                resps[i].needs.append(Need(item, list(srcs), self.channels()))
        # Products consumed elsewhere with no source of their own.
        producers = [r for r in resps if r.products]
        for producer in rng.sample(producers, min(len(producers), n // 10)):
            item = producer.products[0].item
            for consumer in rng.sample(resps, 2):
                if consumer is not producer and consumer.need(item) is None:
                    consumer.needs.append(Need(item, [], self.channels()))

        self.plant_flows(resps)
        self.plant_unused()
        self.add_uses(resps)
        self.add_hazards(resps, focus)
        self.add_sequence(resps, cycle_members, self_loop)
        for resp in resps:
            if rng.random() < 0.1:
                resp.notes.append(f"Reviewed for {resp.name.lower()}.")
        self.check += [("IMPLICIT_DECL", slug(name)) for name in undeclared(spec)]
        return spec

    def plant_flows(self, resps: list) -> None:
        rng, n = self.rng, self.n

        def victim() -> Resp:
            return rng.choice([r for r in resps if r.name != self.focus])

        def flow(resp: Resp, need: Need) -> None:
            resp.needs.append(need)
            self.planted_flows.add((resp.name, need.item))

        for _ in range(max(1, n // 100)):
            resp, item = victim(), self.item("Unsourced estimate")
            flow(resp, Need(item, [], self.channels()))
            sub = f"{slug(resp.name)}/{slug(item)}"
            self.analyze.append(("UNSOURCED_INFO", (sub,)))
            self.check.append(("UNSOURCED_INFO", sub))
        for _ in range(max(1, n // 50)):
            resp, item = victim(), self.item("Single feed")
            channel = rng.choice(self.lone)
            if rng.random() < 0.5:
                flow(resp, Need(item, self.sources(), [channel]))
            else:
                resp.products.append(Product(item, [channel]))
                self.planted_flows.add((resp.name, item))
            self.analyze.append(("SINGLE_CHANNEL", (f"{slug(resp.name)}/{slug(item)}",)))
        for _ in range(max(1, n // 100)):
            resp, item = victim(), self.item("Unrouted note")
            if rng.random() < 0.5:
                flow(resp, Need(item, self.sources(), []))
            else:
                resp.products.append(Product(item, []))
                self.planted_flows.add((resp.name, item))
            self.check.append(("NO_CHANNEL", f"{slug(resp.name)}/{slug(item)}"))
        for _ in range(max(1, n // 200)):
            item = self.item("Disputed figure")
            first, second = rng.sample(self.agents, 2)
            a, b = rng.sample([r for r in resps if r.name != self.focus], 2)
            flow(a, Need(item, [first], self.channels()))
            flow(b, Need(item, [second], self.channels()))
            self.analyze.append(("DUPLICATE_SOURCE", (slug(item),)))
        for _ in range(max(1, n // 200)):
            item = self.item("Twin record")
            a, b = rng.sample([r for r in resps if r.name != self.focus], 2)
            a.products.append(Product(item, self.channels()))
            b.products.append(Product(item, self.channels()))
            self.planted_flows.update({(a.name, item), (b.name, item)})
            self.analyze.append(("DUPLICATE_SOURCE", (slug(item),)))

    def plant_unused(self) -> None:
        for _ in range(max(1, self.n // 100)):
            item = self.item("Archived form")
            self.analyze.append(("UNUSED_RESOURCE", (slug(item),)))
        name = self.fresh("Spare generator")
        self.spec.physical.append(name)
        self.analyze.append(("UNUSED_RESOURCE", (slug(name),)))

    def add_uses(self, resps: list) -> None:
        rng = self.rng
        pool = [self.fresh("Vehicle pool") for _ in range(max(2, self.n // 20))]
        self.spec.physical += pool[1:]
        rng.choice(resps).uses.append(pool[0])  # never declared
        for resp in resps:
            if rng.random() < 0.3:
                choice = rng.choice(pool[1:])
                if choice not in resp.uses:
                    resp.uses.append(choice)
        used = {u for r in resps for u in r.uses}
        for name in pool[1:]:
            if name not in used:
                self.analyze.append(("UNUSED_RESOURCE", (slug(name),)))

    def add_hazards(self, resps: list, focus: int) -> None:
        rng = self.rng
        for i, resp in enumerate(resps):
            if i == focus:
                resp.hazards.append(Hazard(resp.needs[0].item, "unavailable",
                                           "Manual fallback required.", "critical"))
            elif rng.random() > 0.3:
                continue
            items = [n.item for n in resp.needs]
            for item in rng.sample(items, min(len(items), 2)):
                for word in rng.sample(GUIDE_WORDS, rng.choice((1, 2))):
                    if any((h.item, h.word) == (item, word) for h in resp.hazards):
                        continue
                    mitigated = (f"REQ-{rng.randrange(self.n):04d}"
                                 if rng.random() < 0.3 else None)
                    resp.hazards.append(Hazard(
                        item, word, f"{item} {word}: {resp.name.lower()} is delayed.",
                        rng.choice(SEVERITIES), mitigated))

    def add_sequence(self, resps: list, cycle_members: list, self_loop: int) -> None:
        rng = self.rng
        special = set(cycle_members) | {self_loop}
        normal = [i for i in range(self.n) if i not in special]
        for pos, i in enumerate(normal):
            if rng.random() < 0.3 and pos + 1 < len(normal):
                j = normal[rng.randrange(pos + 1, min(len(normal), pos + 30))]
                resps[i].precedes.append(resps[j].name)
        for g in range(0, len(cycle_members), 3):
            group = cycle_members[g:g + 3][:2 + (g // 3) % 2]
            for a, b in zip(group, group[1:] + group[:1]):
                resps[a].precedes.append(resps[b].name)
            names = sorted(resps[m].name for m in group)
            self.analyze.append(("SEQUENCE_CYCLE", tuple(slug(m) for m in names)))
        resps[self_loop].precedes.append(resps[self_loop].name)
        self.analyze.append(("SEQUENCE_CYCLE", (slug(resps[self_loop].name),)))

    # -- companions ------------------------------------------------------------

    def requirements(self, spec: Spec) -> list:
        rng = self.rng
        reqs = []
        for i, resp in enumerate(spec.resps):
            traces = [f"responsibility {quote(resp.name)}"]
            if resp.needs:
                need = rng.choice(resp.needs)
                traces.append(f"|{need.item}|")
                traces.append(f"hazard |{need.item}| {rng.choice(GUIDE_WORDS)}")
            if resp.assigned:
                traces.append(f"<{resp.assigned[0]}>")
            if resp.uses:
                traces.append(f"[{resp.uses[0]}]")
            reqs.append(Requirement(
                f"REQ-{i:04d}",
                f"The coordination system shall support {resp.name.lower()}.",
                f"Traced from duty {i} of the reviewed plan.", traces))
        return reqs

    def sessions(self, spec: Spec, targets: list) -> tuple:
        """One answer session per target duty, and the diff it implies."""
        rng = self.rng
        sessions, diffs = [], []
        for sid, resp in enumerate(targets):
            s = Session(resp.name)
            restatable = [n for n in resp.needs
                          if (resp.name, n.item) not in self.planted_flows]
            if restatable:
                need = rng.choice(restatable)
                extra = [c for c in self.paired + self.lone if c not in need.channels]
                if rng.random() < 0.5:
                    s.needs.append(Need(need.item, list(need.sources), list(need.channels)))
                else:
                    added = need.channels + [rng.choice(extra)]
                    s.needs.append(Need(need.item, [], added[-1:]))
                    diffs.append(("ChannelMismatch", resp.name,
                                  f"|{need.item}| required via " + _quoted(need.channels),
                                  f"|{need.item}| required via " + _quoted(added)))
            new_items = []
            for j in range(rng.choice((1, 2))):
                item = f"Field report {sid:04d}-{j}"
                source = (f"Liaison officer {sid:04d}" if rng.random() < 0.5
                          else rng.choice(self.agents))
                via = [f"Session line {sid:04d}", rng.choice(self.paired)]
                s.needs.append(Need(item, [source], via))
                new_items.append(item)
                diffs.append(("SourceMismatch", resp.name, f"|{item}| not required",
                              f"|{item}| required from <{source}>"))
            log = f"Session log {sid:04d}"
            via = [f"Session line {sid:04d}", rng.choice(self.paired)]
            s.records.append(Product(log, via, "keeps the session auditable"))
            diffs.append(("ChannelMismatch", resp.name, f"|{log}| not produced",
                          f"|{log}| produced via " + _quoted(via)))
            for word in rng.sample(GUIDE_WORDS, rng.choice((2, 3))):
                s.hazards.append(Hazard(new_items[0], word,
                                        f"Field teams act on stale data ({word}).",
                                        rng.choice(SEVERITIES)))
            if resp.needs and rng.random() < 0.5:
                item = rng.choice(resp.needs).item
                taken = {h.word for h in resp.hazards if h.item == item}
                free = [w for w in GUIDE_WORDS if w not in taken]
                if free:
                    s.hazards.append(Hazard(item, rng.choice(free),
                                            "Decision deferred to the next briefing.",
                                            rng.choice(SEVERITIES)))
            sessions.append(s)
        return sessions, diffs

    def perturb(self, spec: Spec) -> tuple:
        """A seeded second view of the model and the diff it implies."""
        rng = self.rng
        other = copy.deepcopy(spec)
        targets = set()
        incoming = {t for r in spec.resps for t in r.precedes}
        candidates = [r.name for r in spec.resps if r.name != self.focus]
        rng.shuffle(candidates)
        diffs = []
        kinds = ("drop-resp", "reassign", "sources", "channels", "drop-need",
                 "product", "add-need")
        for k in range(max(len(kinds), self.n // 50)):
            kind = kinds[k % len(kinds)]
            name = next(c for c in candidates if c not in targets
                        and (kind != "drop-resp" or c not in incoming))
            targets.add(name)
            left, right = spec.resp(name), other.resp(name)
            hazard_items = {h.item for h in left.hazards}
            plain = [n for n in right.needs if n.item not in hazard_items]
            if kind == "drop-resp":
                other.resps.remove(right)
                diffs.append(("MissingResponsibility", name, "present", "absent"))
            elif kind == "reassign":
                agent = rng.choice([a for a in self.agents if a not in left.assigned])
                right.assigned = [agent]
                diffs.append(("AssignmentMismatch", name, _agents(left.assigned),
                              _agents([agent])))
            elif kind == "sources" and right.needs:
                need = right.needs[0]
                old = list(need.sources)
                need.sources = [rng.choice([a for a in self.agents if a not in old])]
                diffs.append(("SourceMismatch", name,
                              f"|{need.item}| from " + _agents(old, "no recorded source"),
                              f"|{need.item}| from " + _agents(need.sources)))
            elif kind == "channels" and right.needs:
                need = right.needs[-1]
                old = list(need.channels)
                need.channels = [c for c in self.paired if c not in old][:2]
                diffs.append(("ChannelMismatch", name,
                              f"|{need.item}| required via " + _quoted(old),
                              f"|{need.item}| required via " + _quoted(need.channels)))
            elif kind == "drop-need" and plain:
                need = plain[0]
                right.needs.remove(need)
                diffs.append(("SourceMismatch", name, f"|{need.item}| required from "
                              + _agents(need.sources, "no recorded source"),
                              f"|{need.item}| not required"))
            elif kind == "product" and right.products:
                product = right.products[0]
                old = list(product.channels)
                product.channels = [rng.choice(self.lone)]
                if set(old) == set(product.channels):
                    product.channels = old + [self.paired[0]]
                diffs.append(("ChannelMismatch", name,
                              f"|{product.item}| produced via " + _quoted(old),
                              f"|{product.item}| produced via "
                              + _quoted(product.channels)))
            else:
                item = f"Second opinion {k:04d}"
                source = rng.choice(self.agents)
                right.needs.append(Need(item, [source], [rng.choice(self.paired)]))
                diffs.append(("SourceMismatch", name, f"|{item}| not required",
                              f"|{item}| required from <{source}>"))
        return other, diffs


def undeclared(spec: Spec) -> list:
    """Elements mentioned inside responsibilities but never declared."""
    mentioned = []
    for r in spec.resps:
        mentioned += r.assigned + [s for n in r.needs for s in n.sources]
        mentioned += [n.item for n in r.needs] + [p.item for p in r.products]
        mentioned += r.uses + [h.item for h in r.hazards]
        mentioned += [c for f in r.needs + r.products for c in f.channels]
    declared = set(spec.agents) | set(spec.info) | set(spec.physical) | set(spec.channels)
    return [m for m in dict.fromkeys(mentioned) if m not in declared]


def _quoted(names: list) -> str:
    return ", ".join(f'"{c}"' for c in sorted(set(names))) if names else "no channel"


def _agents(names: list, empty: str = "unassigned") -> str:
    return ", ".join(f"<{a}>" for a in sorted(set(names))) if names else empty


def review(seed: int, n: int = REVIEW_SIZE) -> Workload:
    """A large model under review, a perturbed second view and its requirements."""
    b = _Builder(random.Random(f"review-{seed}-{n}"), n, f"Regional resilience plan {seed}")
    spec = b.build()
    reqs = b.requirements(spec)
    sessions, _ = b.sessions(spec, spec.resps[::20])
    other, diffs = b.perturb(spec)
    merged = apply_sessions(spec, sessions)
    files = {
        "model.resp": render_model(spec),
        "other.resp": render_model(other),
        "session.answers": render_answers(sessions),
        "model.reqs": render_requirements(reqs),
    }
    return Workload(files, spec, b.focus, b.analyze, b.check, diffs,
                    [r.id for r in reqs],
                    sum(len(r.hazards) for r in merged.resps))


def elicitation(seed: int, n: int = ELICITATION_SIZE) -> Workload:
    """A model with one answer session per duty; read-only steps use the merge."""
    b = _Builder(random.Random(f"elicitation-{seed}-{n}"), n,
                 f"Flood response elicitation {seed}")
    spec = b.build()
    sessions, diffs = b.sessions(spec, spec.resps)
    merged = apply_sessions(spec, sessions)
    reqs = b.requirements(merged)
    files = {
        "model.resp": render_model(spec),
        "session.answers": render_answers(sessions),
        "model.reqs": render_requirements(reqs),
    }
    check = [c for c in b.check if c[0] != "IMPLICIT_DECL"]  # ingest output declares all
    return Workload(files, merged, b.focus, b.analyze, check, diffs,
                    [r.id for r in reqs],
                    sum(len(r.hazards) for r in merged.resps))
