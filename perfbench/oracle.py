"""Expected outputs, derived from a ``Spec`` without calling respkit.

Each ``check_*`` function takes one subcommand's stdout, stderr and exit
status and returns a list of problems (empty when the output is right).
The expectations come from the generator's records or from the documented
notation (README "Diagrams", the table and worksheet layouts), never from
a stored copy of respkit's output.
"""

from __future__ import annotations

import json
import re

from gen import GUIDE_WORDS, SERIOUS, Hazard, Need, Product, Resp, Session, Spec, slug

# ---------------------------------------------------------------------------
# Reading the corpus (one clause per line, whole-line comments)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r'"((?:[^"\\]|\\.)*)"|<([^>]*)>|\|([^|]*)\||\[([^\]]*)\]|([^\s,]+)')
_SINGLE = {"criticality", "rationale", "severity", "mitigated_by", "kind", "medium",
           "backup_of", "by", "date"}  # keywords followed by exactly one value
_KEYWORDS = _SINGLE | {"from", "via", "to"}


def _fields(line: str) -> dict:
    """Split one clause into its head (key None) and its keyword parts."""
    fields: dict = {None: []}
    key = None
    for m in _TOKEN.finditer(line):
        text, agent, info, phys, word = m.groups()
        if word in _KEYWORDS and not (key in _SINGLE and not fields[key]):
            key = word
            fields[key] = []
            continue
        if text is not None:
            value = re.sub(r"\\(.)", r"\1", text)
        else:
            value = next(v for v in (agent, info, phys, word) if v is not None).strip()
        fields[key].append(value)
    return fields


def read_spec(text: str) -> Spec:
    spec = Spec("")
    resp = None
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        f = _fields(line)
        head = f[None]
        word = head[0]
        one = lambda key, default=None: f.get(key, [default])[0]  # noqa: E731
        if word == "model":
            spec.name = head[1]
        elif word == "agent":
            spec.agents[head[1]] = one("kind", "organization")
        elif word == "resource":
            (spec.physical if line.split()[1].startswith("[") else spec.info).append(head[1])
        elif word == "channel":
            spec.channels[head[1]] = (one("medium"), one("backup_of"))
        elif word == "responsibility":
            resp = Resp(head[1])
            spec.resps.append(resp)
        elif word == "}":
            resp = None
        elif word == "assigned":
            resp.assigned += f["to"]
        elif word == "requires":
            resp.needs.append(Need(head[1], f.get("from", []), f.get("via", []),
                                   one("criticality")))
        elif word == "produces":
            resp.products.append(Product(head[1], f.get("via", []), one("rationale")))
        elif word == "uses":
            resp.uses.append(head[1])
        elif word == "hazard":
            resp.hazards.append(Hazard(head[1], head[2], head[3],
                                       one("severity", "none"), one("mitigated_by")))
        elif word == "precedes":
            resp.precedes.append(head[1])
        elif word == "note":
            resp.notes.append(head[1])
    return spec


def read_sessions(text: str) -> list:
    sessions: list = []
    block = item = None
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        f = _fields(line)
        head = f[None]
        if head[0] == "elicitation":
            sessions.append(Session(head[1]))
        elif head[0] in ("needs", "records"):
            block = head[0]
        elif head[0] == "hazards":
            block, item = "hazards", head[1]
        elif head[0] == "}":
            block = None
        elif block == "needs":
            sessions[-1].needs.append(Need(head[0], f.get("from", []), f.get("via", [])))
        elif block == "records":
            sessions[-1].records.append(Product(head[0], f.get("via", []),
                                                f.get("rationale", [None])[0]))
        elif block == "hazards":
            sessions[-1].hazards.append(Hazard(item, head[0], head[1],
                                               f.get("severity", ["none"])[0]))
    return sessions


# ---------------------------------------------------------------------------
# Expected renderings
# ---------------------------------------------------------------------------


def md_table(columns: tuple, rows: list) -> str:
    cell = lambda v: v.replace("|", "\\|")  # noqa: E731
    lines = ["| " + " | ".join(cell(c) for c in columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    lines += ["| " + " | ".join(cell(c) for c in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def tables_md(resp: Resp) -> str:
    """``tables --which both --format md``: required, blank line, recorded."""
    needs = sorted(resp.needs, key=lambda n: n.item)
    products = sorted(resp.products, key=lambda p: p.item)
    required = md_table(("Information required", "Source", "Communication channel"),
                        [(n.item, ", ".join(n.sources), ", ".join(n.channels))
                         for n in needs])
    recorded = md_table(("Information created/recorded", "Channels"),
                        [(p.item, ", ".join(p.channels)) for p in products])
    return required + "\n" + recorded


def worksheet_rows(resp: Resp) -> list:
    """Five rows per required item, items by name, guide words in fixed order."""
    by_key = {(h.item, h.word): h for h in resp.hazards}
    rows = []
    for item in sorted(n.item for n in resp.needs):
        for word in GUIDE_WORDS:
            h = by_key.get((item, word))
            rows.append((item, word, h.consequence, h.severity, h.mitigated_by or "")
                        if h else (item, word, "", "none", ""))
    return rows


def worksheet_md(resp: Resp) -> str:
    return md_table(("Information item", "Guide word", "Consequence", "Severity",
                     "Mitigation"), worksheet_rows(resp))


def stub_ids(resp: Resp) -> list:
    """Serious, assessed, unmitigated worksheet rows, in worksheet order."""
    return [f"MIT-{slug(resp.name)}-{slug(item)}-{word}"
            for item, word, consequence, severity, mitigation in worksheet_rows(resp)
            if consequence and severity in SERIOUS and not mitigation]


def dot_graph(spec: Spec) -> tuple:
    """Node id -> label, and the edge set (source, target, attributes)."""
    agents, info, physical = dict.fromkeys(spec.agents), dict.fromkeys(spec.info), \
        dict.fromkeys(spec.physical)
    edges = set()
    for r in spec.resps:
        rid = slug(r.name)
        for a in r.assigned:
            agents[a] = None
            edges.add((f"agent-{slug(a)}", rid, "dir=none"))
        for n in r.needs:
            info[n.item] = None
            for s in n.sources:
                agents[s] = None
                edges.add((f"agent-{slug(s)}", f"resource-{slug(n.item)}", ""))
            edges.add((f"resource-{slug(n.item)}", rid, ""))
        for p in r.products:
            info[p.item] = None
            edges.add((rid, f"resource-{slug(p.item)}", ""))
        for u in r.uses:
            physical[u] = None
            edges.add((rid, f"resource-{slug(u)}", "dir=none"))
        for h in r.hazards:
            info[h.item] = None
        for t in r.precedes:
            edges.add((rid, slug(t), "style=dashed"))
    nodes = {f"agent-{slug(a)}": f"<{a}>" for a in agents}
    nodes.update({f"resource-{slug(i)}": f"|{i}|" for i in info})
    nodes.update({f"resource-{slug(p)}": f"[{p}]" for p in physical})
    nodes.update({slug(r.name): r.name for r in spec.resps})
    return nodes, edges


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _status(rc: int, want: int) -> list:
    return [] if rc == want else [f"exit status {rc}, expected {want}"]


def _same(what: str, got, want) -> list:
    if got == want:
        return []
    if isinstance(want, (list, set)):
        if sorted(got) == sorted(want):
            return [f"{what}: right entries in the wrong order"]
        missing = [w for w in want if w not in got][:3]
        extra = [g for g in got if g not in want][:3]
        return [f"{what}: {len(got)} found, {len(want)} expected; "
                f"missing {missing}, unexpected {extra}"]
    return [f"{what} differs from the expected value"]


def check_check(out: str, err: str, rc: int, expected: list) -> list:
    found = sorted(tuple(m.groups()) for m in
                   re.finditer(r"^(\S+) \S+ (\S+): ", err, re.MULTILINE))
    return _status(rc, 0) + _same("check --strict diagnostics", found, sorted(expected))


def check_analyze(out: str, err: str, rc: int, expected: list) -> list:
    try:
        found = sorted((f["code"], tuple(f["subjects"])) for f in json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"analyze output is not the findings JSON: {exc}"]
    return _status(rc, 1) + _same("analyze findings", found, sorted(expected))


def check_diff(out: str, err: str, rc: int, expected: list, swap: bool = False) -> list:
    try:
        found = sorted((d["kind"], d["responsibility"], d["left"], d["right"])
                       for d in json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"diff output is not the inconsistency JSON: {exc}"]
    want = sorted((k, r, right, left) if swap else (k, r, left, right)
                  for k, r, left, right in expected)
    return _status(rc, 1 if want else 0) + _same("diff inconsistencies", found, want)


def check_dot(out: str, err: str, rc: int, spec: Spec) -> list:
    nodes, edges = dot_graph(spec)
    found_nodes = {m[1]: m[2] for m in re.finditer(
        r'^  "([^"]*)" \[shape=[a-z]+(?:, style=rounded)?, label="([^"]*)"\];$',
        out, re.MULTILINE)}
    found_edges = [(m[1], m[2], m[3] or "") for m in re.finditer(
        r'^  "([^"]*)" -> "([^"]*)"(?: \[([^\]]*)\])?;$', out, re.MULTILINE)]
    problems = _status(rc, 0)
    if not out.startswith(f'digraph "{spec.name}" {{\n') or not out.endswith("}\n"):
        problems.append("dot output is not one digraph named after the model")
    if len(found_edges) != len(set(found_edges)):
        problems.append("dot output repeats an edge")
    return (problems + _same("dot nodes", found_nodes, nodes)
            + _same("dot edges", set(found_edges), edges))


def check_text(what: str, out: str, rc: int, want: str) -> list:
    return _status(rc, 0) + _same(what, out, want)


def check_elicit(out: str, err: str, rc: int, resp: Resp) -> list:
    """The skeleton drafts every need, every product and one hazard block per need."""
    blocks = re.findall(r"^  (needs|records|hazards \|[^|]*\|) \{\n(.*?)^  \}$",
                        out, re.MULTILINE | re.DOTALL)
    shape = [(head, len(body.splitlines())) for head, body in blocks]
    want = [("needs", len(resp.needs)), ("records", len(resp.products))]
    want += [(f"hazards |{n.item}|", sum(h.item == n.item for h in resp.hazards))
             for n in resp.needs]
    items = re.findall(r"^    \|([^|]*)\|", out, re.MULTILINE)
    want_items = [n.item for n in resp.needs] + [p.item for p in resp.products]
    return (_status(rc, 0) + _same("elicit blocks", shape, want)
            + _same("elicit drafted items", items, want_items))


def check_mitigations(out: str, err: str, rc: int, resp: Resp) -> list:
    found = re.findall(r"^requirement (\S+) \{$", out, re.MULTILINE)
    return _status(rc, 0) + _same("mitigation stub ids", found, stub_ids(resp))


def check_requirements(out: str, err: str, rc: int, ids: list) -> list:
    found = re.findall(r"^\d+\. \[([^\]]+)\] ", out, re.MULTILINE)
    tail = f"{len(ids)} requirement." if len(ids) == 1 else f"{len(ids)} requirements."
    problems = [] if out.endswith(f"\n{tail}\n") else [f"report does not end in {tail!r}"]
    return _status(rc, 0) + problems + _same("reported requirement ids", found, ids)


def check_ingest(out: str, err: str, rc: int, resps: int, hazards: int) -> list:
    found = len(re.findall(r"^responsibility ", out, re.MULTILINE))
    lines = len(re.findall(r"^  hazard ", out, re.MULTILINE))
    return (_status(rc, 0) + _same("merged responsibilities", found, resps)
            + _same("merged hazard lines", lines, hazards))


def contract_fault(out: str, err: str, rc: int) -> list:
    """README: a bad input or flag exits 2 with a diagnostic, never a traceback."""
    if rc == 2 and "Traceback" not in err and len(err.strip().splitlines()) == 1:
        return []
    return [f"exit status {rc} with {len(err.splitlines())} stderr line(s)"
            + (" (traceback)" if "Traceback" in err else "")]
