"""Shared test utilities: randomized frames, programs, and labeled instances,
and a reference program stepper that shares no code with the interpreter.

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
            return ExecutionOutcome(
                False, steps, FailureKind.INFINITE_LOOP, repeat_step=steps, repeat_state=ps
            )
