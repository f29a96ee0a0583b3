"""Scaling gate: every timed layer must stay close to linear.

Each layer runs on a seeded synthetic model of N and of 10 x N duties, best
of three runs each.  A layer fails when the larger input costs more than 20
times the smaller one; linear code measures about 10, quadratic code about
100.  The models use every clause kind the layers read: assignments,
sources, channels with backups, products, uses, hazards and sequence links.
One more layer builds a model with one build error per duty and renders
the error, so every span it resolves is timed.  The worksheet and the
answers skeleton also run on one duty that requires N and 10 x N items,
each with hazards, so their cost per duty is gated as well.  So is the
merge of repeated flows: a build of one duty that requires one item N
times, each from a new agent, and an ingest of N sessions that each add a
need and a hazard to one duty.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import is_dataclass, replace

import pytest

from respkit import (
    ModelBuildError,
    answers_skeleton,
    build_model,
    diff_models,
    generate_worksheet,
    information_recorded_table,
    information_required_table,
    ingest_all,
    print_model,
    requirements_report,
    run_all,
    to_dot,
    validate,
)
from respkit.dsl import parse_answers, parse_model, parse_requirements

SMALL = 100
FACTOR = 10
MAX_RATIO = 20
REPEATS = 3


def _model_text(rng: random.Random, n: int) -> str:
    agents = [f"Agent {i:05d}" for i in range(max(2, n // 5))]
    items = [f"Item {i:05d}" for i in range(n)]
    channels = [f"Channel {i:05d}" for i in range(max(2, n // 4))]
    lines = ['model "scaling"']
    lines += [f"agent <{a}> kind organization" for a in agents]
    lines += [f"resource |{i}|" for i in items]
    lines += [f"resource [Kit {i:05d}]" for i in range(max(1, n // 10))]
    for k, channel in enumerate(channels):
        backup = f' backup_of "{channels[k - 1]}"' if k % 3 == 1 else ""
        lines.append(f'channel "{channel}" medium radio{backup}')
    for d in range(n):
        lines.append(f'responsibility "Duty {d:05d}" {{')
        if d % 7:
            held = rng.sample(agents, rng.randint(1, 2))
            lines.append("  assigned to " + ", ".join(f"<{a}>" for a in held))
        needed = rng.sample(items, rng.randint(1, 3))
        for item in needed:
            clause = f"  requires |{item}|"
            if rng.random() < 0.8:
                clause += " from " + ", ".join(
                    f"<{a}>" for a in rng.sample(agents, rng.randint(1, 2)))
            clause += " via " + ", ".join(
                f'"{c}"' for c in rng.sample(channels, rng.randint(1, 2)))
            lines.append(clause)
        lines.append(f'  produces |{rng.choice(items)}| via "{rng.choice(channels)}"')
        if d % 5 == 0:
            lines.append(f"  uses [Kit {rng.randrange(max(1, n // 10)):05d}]")
        lines.append(f'  hazard |{needed[0]}| late "Delay {d}." severity high')
        lines.append(f'  precedes "Duty {rng.randrange(n):05d}"')
        lines.append("}")
    return "\n".join(lines) + "\n"


def _answers_text(rng: random.Random, n: int) -> str:
    blocks = []
    for d in range(n):
        item = f"Answered {d:05d}"
        blocks.append(
            f'elicitation "Duty {d:05d}" {{\n'
            f"  needs {{\n"
            f'    |{item}| from <Agent {rng.randrange(n // 5):05d}> via "Desk {d % 50}"\n'
            f"  }}\n"
            f"  hazards |{item}| {{\n"
            f'    unavailable "Blind {d}." severity critical\n'
            f"  }}\n"
            f"}}\n")
    return "\n".join(blocks)


def _requirements_text(rng: random.Random, n: int) -> str:
    blocks = []
    for d in range(n):
        blocks.append(
            f"requirement REQ-{d:05d} {{\n"
            f'  text "Requirement {d}."\n'
            f'  rationale "Because {d}."\n'
            f"  traces <Agent {rng.randrange(n // 5):05d}>\n"
            f'  traces responsibility "Duty {d:05d}"\n'
            f"  traces |Item {rng.randrange(n):05d}|\n"
            f"}}\n")
    return "\n".join(blocks)


def _one_duty_text(n: int) -> str:
    """One duty that requires n items, with two hazards on each."""
    words = ["unavailable", "inaccurate", "incomplete", "late", "early"]
    lines = ['model "one duty"', 'responsibility "Duty" {']
    for i in range(n):
        lines.append(f"  requires |Item {i:05d}|")
        for word in (words[i % 5], words[(i + 2) % 5]):
            lines.append(f'  hazard |Item {i:05d}| {word} "Harm {i}." severity high')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _one_item_text(n: int) -> str:
    """One duty that requires the same item n times, each from a new agent."""
    lines = ['responsibility "Duty" {']
    lines += [f"  requires |Item| from <Agent {i:05d}>" for i in range(n)]
    return "\n".join(lines + ["}"]) + "\n"


def _one_duty_sessions(n: int) -> str:
    """n sessions for one duty, each adding a need and a hazard on it."""
    return "".join(
        f'elicitation "Duty" {{\n'
        f"  needs {{\n    |Item {i:05d}| from <Src {i % 7}>\n  }}\n"
        f'  hazards |Item {i:05d}| {{\n    late "Delay {i}." severity high\n  }}\n'
        f"}}\n"
        for i in range(n))


def _inputs(n: int) -> dict:
    rng = random.Random(n)
    model_text = _model_text(rng, n)
    declarations = parse_model(model_text)
    model = build_model(declarations)
    other = build_model(parse_model(_model_text(rng, n)))
    requirements_text = _requirements_text(rng, n)
    records = parse_requirements(requirements_text)
    # Hazard traces resolve only against items some duty requires or produces.
    records += parse_requirements("".join(
        f"requirement HAZ-{r.id} {{\n"
        f'  text "Cope."\n  rationale "Hazard."\n'
        f"  traces hazard |{model.resource_name(r.needs[0].resource)}| late\n"
        f"}}\n"
        for r in model.responsibilities))
    answers_text = _answers_text(rng, n)
    answers = parse_answers(answers_text)
    # Every duty precedes a duty that does not exist: one error per duty.
    broken = parse_model(model_text.replace('precedes "Duty ', 'precedes "Gone '))
    one_duty = build_model(parse_model(_one_duty_text(n)))
    empty_duty = build_model(parse_model('responsibility "Duty" {}'))
    one_duty_sessions = parse_answers(_one_duty_sessions(n))
    return {
        "parse_model": (parse_model, model_text),
        "parse_answers": (parse_answers, answers_text),
        "parse_requirements": (parse_requirements, requirements_text),
        "build_model": (build_model, declarations),
        "build_errors": (_rendered_build_errors, broken),
        "to_dot": (to_dot, model),
        "print_model": (print_model, model),
        "diff_models": (diff_models, model, other),
        "requirements_report": (requirements_report, model, records),
        "run_all": (run_all, model),
        "ingest_all": (ingest_all, model, answers),
        "validate": (validate, model, True),
        "information_required_table": (_every_duty(information_required_table), model),
        "information_recorded_table": (_every_duty(information_recorded_table), model),
        "generate_worksheet": (_every_duty(generate_worksheet), model),
        "generate_worksheet_one_duty": (generate_worksheet, one_duty, "Duty"),
        "answers_skeleton_one_duty": (answers_skeleton, one_duty, "Duty"),
        "build_model_one_item": (build_model, parse_model(_one_item_text(n))),
        "ingest_all_one_duty": (ingest_all, empty_duty, one_duty_sessions),
    }


def _rendered_build_errors(declarations) -> str:
    try:
        build_model(declarations)
    except ModelBuildError as error:
        return str(error)
    raise AssertionError("the model should not build")


def _every_duty(per_duty):
    """Time a per-responsibility call over every duty, so the total grows
    with the model as the other layers do."""
    def run(model):
        for resp in model.responsibilities:
            per_duty(model, resp.name)
    return run


def _fresh(value):
    # A copy of a model starts without the lookup maps an earlier call
    # cached, so every timed call pays for building them.
    return replace(value) if is_dataclass(value) else value


def _timed(fn, args) -> float:
    fresh = [_fresh(a) for a in args]
    gc.collect()
    start = time.perf_counter()
    fn(*fresh)
    return time.perf_counter() - start


@pytest.mark.slow
def test_ten_times_the_input_costs_at_most_twenty_times_the_time():
    small, large = _inputs(SMALL), _inputs(SMALL * FACTOR)
    ratios = {}
    for layer, (fn, *small_args) in small.items():
        _, *large_args = large[layer]
        # Small and large runs alternate, so a drift in machine speed
        # lands on both; the best of each is kept.
        times = [(_timed(fn, small_args), _timed(fn, large_args))
                 for _ in range(REPEATS)]
        ratios[layer] = min(t for _, t in times) / min(t for t, _ in times)
    slow = {layer: round(r, 1) for layer, r in ratios.items() if r > MAX_RATIO}
    assert not slow, f"super-linear layers (time ratio at {FACTOR}x input): {slow}"
