"""Shared test utilities: randomized frames, programs, labeled instances and
problem documents, a reference program stepper that shares no code with the
interpreter, and a reference loader that parses one literal at a time.

Random actions assign one polarity per touched fluent across all effect
branches, so simultaneously triggered effects can never conflict; random
validation cases are resampled until every instance's execution stays short,
which keeps the compiled search spaces small enough for exhaustive BFS.
"""

from __future__ import annotations

import random

from gpsyn.errors import ExecutionResourceError
from gpsyn.interpreter import ExecutionOutcome, FailureKind, ProgramState, execute
from gpsyn.model import (
    Action,
    ClassicalInstance,
    Frame,
    FrameBuilder,
    GeneralizedProblem,
    Label,
    holds,
    successor_bits,
)
from gpsyn.program import (
    ActInstruction,
    EndInstruction,
    GotoInstruction,
    Program,
)


def random_frame(rng: random.Random, n_fluents: int, n_actions: int) -> Frame:
    b = FrameBuilder()
    names = [f"f{i}" for i in range(n_fluents)]
    for name in names:
        b.fluent(name)
    for a in range(n_actions):
        polarity = {name: rng.random() < 0.5 for name in names}

        def lit(name: str) -> str:
            return name if polarity[name] else "!" + name

        pre = [
            name if rng.random() < 0.5 else "!" + name
            for name in rng.sample(names, rng.randint(0, min(2, n_fluents)))
        ]
        cond = []
        for _ in range(rng.randint(1, 2)):
            when = [
                name if rng.random() < 0.5 else "!" + name
                for name in rng.sample(names, rng.randint(0, min(2, n_fluents)))
            ]
            then = [lit(name) for name in rng.sample(names, rng.randint(1, min(2, n_fluents)))]
            cond.append((when, then))
        b.action(f"a{a}", pre=pre, cond=cond)
    return b.build()


def random_program(rng: random.Random, frame: Frame, n: int) -> Program:
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45 and frame.actions:
            lines.append(ActInstruction(rng.choice(frame.actions).name))
        elif roll < 0.9:
            lines.append(GotoInstruction(rng.randint(0, n), rng.choice(frame.fluents)))
        else:
            lines.append(EndInstruction())
    lines.append(EndInstruction())
    return Program(tuple(lines))


def random_state(rng: random.Random, frame: Frame) -> int:
    return rng.getrandbits(frame.width)


def random_goal(rng: random.Random, frame: Frame, max_literals: int = 3) -> tuple[int, int]:
    count = rng.randint(1, min(max_literals, frame.width))
    texts = [
        name if rng.random() < 0.5 else "!" + name
        for name in rng.sample(frame.fluents, count)
    ]
    return frame.masks(*texts)


def random_generalized_problem(
    rng: random.Random,
    frame: Frame,
    t: int,
    labels: list[Label] | None = None,
) -> GeneralizedProblem:
    if labels is None:
        labels = [Label.POSITIVE if rng.random() < 0.5 else Label.NEGATIVE for _ in range(t)]
    instances = tuple(
        ClassicalInstance(
            frame,
            f"rand-{i}-{label.value}",
            random_state(rng, frame),
            random_goal(rng, frame),
            label,
        )
        for i, label in enumerate(labels)
    )
    return GeneralizedProblem(frame, instances)


def random_validation_case(
    rng: random.Random,
    *,
    max_fluents: int = 6,
    max_lines: int = 3,
    max_instances: int = 3,
    max_steps: int = 60,
):
    """A (program, problem) pair whose executions all stay under ``max_steps``
    (bounds the compiled reachable space for exhaustive search)."""
    while True:
        frame = random_frame(rng, rng.randint(2, max_fluents), rng.randint(1, 3))
        program = random_program(rng, frame, rng.randint(1, max_lines))
        problem = random_generalized_problem(rng, frame, rng.randint(1, max_instances))
        try:
            outcomes = [execute(program, inst) for inst in problem.instances]
        except ExecutionResourceError:
            continue
        if all(out.steps <= max_steps for out in outcomes):
            return program, problem, outcomes


def pn_counterexample() -> tuple[GeneralizedProblem, Program]:
    """Two fluents, two actions, two positives and a negative that only the
    program ``0. goto(2,!f0) / 1. a1 / 2. end`` (or a longer equivalent)
    discriminates: its run on the negative first reaches line 1, where
    ``a1`` is inapplicable."""
    b = FrameBuilder()
    b.fluent("f0"), b.fluent("f1")
    b.action("a0", pre=["f1"], cond=[(["f0", "f1"], ["f0", "f1"]), (["f0", "!f1"], ["f0"])])
    b.action("a1", pre=["!f0"], cond=[(["f0", "!f1"], ["f0"]), (["!f0"], ["f0", "f1"])])
    frame = b.build()
    instances = (
        ClassicalInstance(frame, "pos-1", frame.state([]), frame.masks("!f1")),
        ClassicalInstance(frame, "pos-2", frame.state(["f1"]), frame.masks("!f0")),
        ClassicalInstance(
            frame, "neg-1", frame.state(["f0", "f1"]), frame.masks("f1"), Label.NEGATIVE
        ),
    )
    program = Program((GotoInstruction(2, "f0"), ActInstruction("a1"), EndInstruction()))
    return GeneralizedProblem(frame, instances), program


# -- reference stepper --------------------------------------------------------

END = "end"


def reference_step(program: Program, frame: Frame, ps: ProgramState):
    """The instruction at ``ps.pc``, read from ``program.lines`` by name,
    its precondition tested with ``model.holds`` and its effects applied with
    ``model.successor_bits``: the next :class:`ProgramState`, ``END`` at an
    end, or ``(line, action name)`` when the action is inapplicable."""
    ins = program.lines[ps.pc]
    if isinstance(ins, ActInstruction):
        action = frame.action(ins.action)
        if not holds(ps.bits, action.pre):
            return ps.pc, ins.action
        return ProgramState(successor_bits(ps.bits, action), ps.pc + 1)
    if isinstance(ins, GotoInstruction):
        if ps.bits >> frame.fluent_id(ins.fluent) & 1:
            return ProgramState(ps.bits, ps.pc + 1)
        return ProgramState(ps.bits, ins.target)
    return END


def reference_run(program: Program, instance: ClassicalInstance) -> ExecutionOutcome:
    """Fold :func:`reference_step` from ``(init, 0)`` until an end, an
    inapplicable action or a repeated program state: the outcome
    ``interpreter.execute`` must return."""
    ps, steps, seen = ProgramState(instance.init, 0), 0, set()
    while True:
        seen.add(ps)
        nxt = reference_step(program, instance.frame, ps)
        if nxt is END:
            solved = holds(ps.bits, instance.goal)
            failure = None if solved else FailureKind.INCOMPLETE
            return ExecutionOutcome(solved, steps, failure)
        if not isinstance(nxt, ProgramState):
            line, action = nxt
            return ExecutionOutcome(
                False, steps, FailureKind.INAPPLICABLE, line=line, action=action
            )
        ps, steps = nxt, steps + 1
        if ps in seen:
            return ExecutionOutcome(False, steps, FailureKind.INFINITE_LOOP, repeat_state=ps)


# -- reference loader ---------------------------------------------------------


def reference_masks(texts, ids: dict) -> tuple[int, int]:
    """The ``(pos, neg)`` masks of ``"name"`` / ``"!name"`` texts, parsed one
    literal at a time: test the ``!``, strip it, look the name up in ``ids``
    and shift."""
    pos = neg = 0
    for text in texts:
        if text.startswith("!"):
            neg |= 1 << ids[text[1:]]
        else:
            pos |= 1 << ids[text]
    return pos, neg


def reference_problem(doc: dict) -> GeneralizedProblem:
    """The problem a well-formed ``jsonio`` document describes, built with
    :func:`reference_masks` and the model's constructors, without
    ``FrameBuilder``, ``Frame.masks`` or ``Frame.state``."""
    fluents = tuple(doc["frame"]["fluents"])
    ids = {name: f for f, name in enumerate(fluents)}
    actions = tuple(
        Action(
            act["name"],
            reference_masks(act.get("pre", []), ids),
            tuple(
                (*reference_masks(eff.get("when", []), ids), *reference_masks(eff["then"], ids))
                for eff in act.get("effects", [])
            ),
        )
        for act in doc["frame"]["actions"]
    )
    frame = Frame(fluents, actions)
    instances = []
    for inst in doc["instances"]:
        init = 0
        for name in inst["init"]:
            init |= 1 << ids[name]
        goal = reference_masks(inst["goal"], ids)
        label = Label(inst.get("label", "positive"))
        instances.append(ClassicalInstance(frame, inst["name"], init, goal, label))
    return GeneralizedProblem(frame, tuple(instances))


def random_problem_doc(rng: random.Random) -> dict:
    """A well-formed problem document with negative literals in every kind of
    literal list and, now and then, a literal repeated within one list."""
    names = [f"f{i}" for i in range(rng.randint(1, 70))]

    def literals(min_count: int = 0) -> list[str]:
        chosen = rng.sample(names, rng.randint(min(min_count, len(names)), min(4, len(names))))
        texts = [name if rng.random() < 0.5 else "!" + name for name in chosen]
        if texts and rng.random() < 0.3:
            texts.append(rng.choice(texts))
        rng.shuffle(texts)
        return texts

    actions = []
    for a in range(rng.randint(0, 4)):
        effects = []
        for _ in range(rng.randint(0, 4)):
            effect = {"then": literals(1)}
            if rng.random() < 0.8:
                effect["when"] = literals()
            effects.append(effect)
        action = {"name": f"a{a}", "effects": effects}
        if rng.random() < 0.8:
            action["pre"] = literals()
        actions.append(action)
    instances = [
        {
            "name": f"i{i}",
            "label": rng.choice(["positive", "negative"]),
            "init": [name for name in names if rng.random() < 0.3],
            "goal": literals(),
        }
        for i in range(rng.randint(0, 3))
    ]
    return {"frame": {"fluents": names, "actions": actions}, "instances": instances}
