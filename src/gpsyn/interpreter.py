"""Direct execution of planning programs with exact failure classification.

Execution is deterministic over the finite space of program states
``(bits, pc)``, a state bitmask paired with the program counter, so
nontermination is equivalent to revisiting a program state. :func:`execute`
is one loop over the program's bound ops: it keeps an exact visited set of
program states, applies actions through
:func:`gpsyn.model.successor_bits`, and classifies every failure as one of:
incomplete program, inapplicable action, or infinite loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ExecutionResourceError
from .model import ClassicalInstance, Frame, GeneralizedProblem, holds, successor_bits
from .program import ActInstruction, GotoInstruction, Program

# Cap on distinct program states remembered per execution (configurable).
DEFAULT_STATE_CAP = 1 << 22

_ACT, _GOTO, _END = 0, 1, 2


class FailureKind(Enum):
    INCOMPLETE = "incomplete"
    INAPPLICABLE = "inapplicable"
    INFINITE_LOOP = "infinite_loop"


@dataclass(frozen=True)
class ProgramState:
    """A state bitmask paired with the program counter."""

    bits: int
    pc: int


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of running a program on one instance.

    Exactly one of: solved, or failed with a :class:`FailureKind`. For
    inapplicable actions, ``line``/``action`` identify the offender; for
    infinite loops, ``repeat_state`` is the first program state that recurred,
    reached again after ``steps`` steps (replaying from it reproduces the
    cycle).
    """

    solved: bool
    steps: int
    failure: FailureKind | None = None
    line: int | None = None
    action: str | None = None
    repeat_state: ProgramState | None = None

    def describe(self) -> str:
        if self.solved:
            return f"solved in {self.steps} steps"
        if self.failure is FailureKind.INCOMPLETE:
            return "failed: goal not satisfied at end"
        if self.failure is FailureKind.INAPPLICABLE:
            return f"failed: action {self.action!r} inapplicable at line {self.line}"
        return f"failed: infinite loop (program state repeated at step {self.steps})"


@dataclass(frozen=True)
class ValidationReport:
    """Per-instance outcomes; passes iff positives solved and negatives failed."""

    outcomes: tuple[ExecutionOutcome, ...]
    passed: bool


def bind_program(program: Program, frame: Frame) -> list[tuple]:
    """Resolve instruction names against a frame into dispatchable ops: an
    act op carries its action and the action's unpacked precondition masks."""
    program.check_against(frame)
    ops: list[tuple] = []
    for ins in program.lines:
        if isinstance(ins, ActInstruction):
            action = frame.action(ins.action)
            ops.append((_ACT, action, *action.pre))
        elif isinstance(ins, GotoInstruction):
            ops.append((_GOTO, ins.target, frame.fluent_id(ins.fluent)))
        else:
            ops.append((_END,))
    return ops


def execute(
    program: Program | list[tuple],
    instance: ClassicalInstance,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ExecutionOutcome:
    """Run ``program`` from ``(instance.init, 0)`` to one of the outcomes.

    ``program`` may also be the ops that :func:`bind_program` made for the
    instance's frame, so that a caller running one program on many instances
    binds it once."""
    ops = program if isinstance(program, list) else bind_program(program, instance.frame)
    bits, pc = instance.init, 0
    steps = 0
    seen = {(bits, pc)}
    while True:
        op = ops[pc]
        kind = op[0]
        if kind == _ACT:
            _, action, pos, neg = op
            if bits & pos != pos or bits & neg:
                return ExecutionOutcome(
                    solved=False,
                    steps=steps,
                    failure=FailureKind.INAPPLICABLE,
                    line=pc,
                    action=action.name,
                )
            bits, pc = successor_bits(bits, action), pc + 1
        elif kind == _GOTO:
            # Fall through when the fluent is true, jump when it is false.
            pc = pc + 1 if bits >> op[2] & 1 else op[1]
        else:
            solved = holds(bits, instance.goal)
            return ExecutionOutcome(
                solved=solved,
                steps=steps,
                failure=None if solved else FailureKind.INCOMPLETE,
            )
        steps += 1
        n = len(seen)
        seen.add((bits, pc))
        if len(seen) == n:
            return ExecutionOutcome(
                solved=False,
                steps=steps,
                failure=FailureKind.INFINITE_LOOP,
                repeat_state=ProgramState(bits, pc),
            )
        if n >= state_cap:
            raise ExecutionResourceError(
                f"visited-state cap {state_cap} exceeded after {steps} steps"
            )


def validate_program(
    program: Program,
    problem: GeneralizedProblem,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ValidationReport:
    """Check that ``program`` solves every positive instance and fails every
    negative one (any failure source counts). The program is bound once,
    against the problem's frame, for all its instances."""
    ops = bind_program(program, problem.frame)
    outcomes = tuple(execute(ops, inst, state_cap=state_cap) for inst in problem.instances)
    passed = all(
        out.solved == inst.is_positive
        for inst, out in zip(problem.instances, outcomes)
    )
    return ValidationReport(outcomes=outcomes, passed=passed)
