"""Compilations of program validation and synthesis into classical planning.

Three variants over one builder:

* synthesis from positive instances only: programming actions write
  instructions onto empty lines, execution actions simulate them, and a
  per-instance ``end`` chains through the instances to the ``done`` goal.
  A programming action needs its instruction's precondition (for ``end``,
  the instance goal), since every run must succeed;
* synthesis from positive and negative instances (PN) adds a check before
  each execution that records whether its precondition holds, a
  store/compare/process gadget that witnesses repeated program states
  (infinite loops), ``skip`` actions that end an instance on a detected
  failure, and one guard, ``negex``, true while a negative runs: executing
  ``end`` needs ``¬negex`` and ``skip`` needs ``negex``. The gadget reads
  no label, so a search does the same work whichever instances are
  negative; it stores and compares only the state right after a jump back,
  which every loop takes. Programming actions need nothing of the running
  instance, so a negative may fail on a line that only it reaches;
* validation of a given program is PN with the program written into the
  initial state and no programming actions.

Every action carries a :class:`Role` whose ``kind`` is the action-name prefix
(``prog``, ``exec``, ``check``, ``store``, ``compare``, ``process``,
``skip``); the action name is formatted from the role alone. The builder
holds every compiled fluent as its bit and writes each effect as a
``(cond.pos, cond.neg, eff.pos, eff.neg)`` mask tuple and each precondition,
like the ``(done, 0)`` goal, as a ``(pos, neg)`` mask pair. Base fluents keep
their ids, so the planner runs on compiled instances directly and solution
plans decode back into programs and per-instance outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import MalformedPlanError, ModelError, VariantMismatchError
from .interpreter import FailureKind
from .model import (
    Action,
    Frame,
    GeneralizedProblem,
    Label,
    validate_sequential_plan,
)
from .program import (
    ActInstruction,
    EndInstruction,
    GotoInstruction,
    Instruction,
    Program,
    instruction_slug,
)


class Variant(Enum):
    SYNTH_POSITIVE = "synth_positive"
    VALIDATION = "validation"
    SYNTH_PN = "synth_pn"


@dataclass(frozen=True)
class Role:
    """What a compiled action does; ``kind`` is its action-name prefix.

    ``prog`` writes ``instruction`` onto ``line``, ``check`` tests the
    instruction's precondition before ``exec`` executes it, ``store``,
    ``compare`` and ``process`` make up the loop-detection gadget, and
    ``skip`` ends an instance on a detected failure. ``t`` is the instance of
    an ``end`` copy or of a ``skip``.
    """

    kind: str
    line: int | None = None
    instruction: Instruction | None = None
    t: int | None = None

    @property
    def name(self) -> str:
        """The action name, e.g. ``exec__end__l2__t1``, ``skip__t3``, ``store``."""
        parts = [self.kind]
        if self.instruction is not None:
            parts += [instruction_slug(self.instruction), f"l{self.line}"]
        if self.t is not None:
            parts.append(f"t{self.t}")
        return "__".join(parts)


_FLAGS = ("checked", "holds", "stored", "jumped", "loop")


@dataclass(frozen=True)
class CompiledInstance:
    """Output of a compilation: a classical instance plus decode metadata."""

    frame: Frame
    init: int
    goal: tuple[int, int]
    variant: Variant
    lines: int
    instance_names: tuple[str, ...]
    labels: tuple[Label, ...]
    roles: tuple[Role, ...]

    @property
    def name(self) -> str:
        return f"{self.variant.value}_n{self.lines}_T{len(self.labels)}"


@dataclass(frozen=True)
class DecodedProgram:
    """Program read off a solution plan's programming actions.

    Lines no programming action touched decode as ``end`` and are listed in
    ``unprogrammed``.
    """

    program: Program
    unprogrammed: tuple[int, ...]


@dataclass(frozen=True)
class TraceOutcome:
    """Per-instance result reconstructed from a solution plan."""

    t: int
    instance_name: str
    solved: bool
    failure: FailureKind | None = None
    line: int | None = None
    action: str | None = None


class _Builder:
    def __init__(
        self,
        problem: GeneralizedProblem,
        n: int,
        variant: Variant,
        *,
        program: Program | None = None,
        allow_forward_gotos: bool = True,
        instruction_whitelist: Iterable[Instruction] | None = None,
    ):
        if n < 1:
            raise ModelError("need at least one program line (n >= 1)")
        self.gp = problem
        self.base = problem.frame
        self.n = n
        self.T = problem.t_total
        self.variant = variant
        self.program = program
        self.allow_forward = allow_forward_gotos
        self.whitelist = (
            None if instruction_whitelist is None else set(instruction_whitelist)
        )
        if self.T == 0:
            raise ModelError("cannot compile an empty generalized problem")
        self.with_gadget = variant is not Variant.SYNTH_POSITIVE

        self.fluents = list(self.base.fluents)
        self.actions: list[Action] = []
        self.roles: list[Role] = []

    # -- fluent table -------------------------------------------------------

    def _add_fluent(self, name: str) -> int:
        """Append a compiled fluent and return its bit. A name that collides
        with a base fluent is rejected by :class:`Frame` in :meth:`build`."""
        self.fluents.append(name)
        return 1 << (len(self.fluents) - 1)

    def _line_universe(self, i: int) -> list[Instruction]:
        """Instructions that may occupy line ``i`` (the fluent family)."""
        targets = range(self.n + 1) if self.allow_forward else range(i)
        out = [ActInstruction(act.name) for act in self.base.actions]
        out += [
            GotoInstruction(target, name) for target in targets for name in self.base.fluents
        ]
        if self.whitelist is not None:
            out = [ins for ins in out if ins in self.whitelist]
        return out + [EndInstruction()]

    def build_fluents(self) -> None:
        """Lay out the compiled fluents after the base ones. Each is held as
        its bit; fluent bits are distinct, so a group's sum is its mask."""
        self.pc = [self._add_fluent(f"pc_{i}") for i in range(self.n + 1)]
        self.line_universe = [self._line_universe(i) for i in range(self.n + 1)]
        self.ins: list[dict[Instruction, int]] = []
        self.nil: list[int] = []
        for i, universe in enumerate(self.line_universe):
            self.ins.append(
                {ins: self._add_fluent(f"ins_{i}_{instruction_slug(ins)}") for ins in universe}
            )
            self.nil.append(self._add_fluent(f"ins_{i}_nil"))
        self.test = [self._add_fluent(f"test_{t}") for t in range(1, self.T + 1)]
        self.done = self._add_fluent("done")
        self.gadget = self.negex = 0
        if self.with_gadget:
            first = len(self.fluents)
            self.flag = {name: self._add_fluent(name) for name in _FLAGS}
            # The loop gadget watches the base fluents and the program
            # counter, which are the first fluents of the table.
            watched = range(self.base.width + self.n + 1)
            copies = [self._add_fluent(f"copy_{self.fluents[f]}") for f in watched]
            corrects = [self._add_fluent(f"correct_{self.fluents[f]}") for f in watched]
            self.watched = [(1 << f, c, k) for f, c, k in zip(watched, copies, corrects)]
            self.corrects = sum(corrects)
            # every flag, copy and correct fluent; a reset clears them all
            self.gadget = (1 << len(self.fluents)) - (1 << first)
            self.negex = self._add_fluent("negex")

    # -- masks --------------------------------------------------------------

    def _pre_of(self, ins: Instruction, t: int | None) -> tuple[int, int]:
        """The instruction's own precondition (goal + test for end copies)."""
        if isinstance(ins, ActInstruction):
            return self.base.action(ins.action).pre
        if isinstance(ins, GotoInstruction):
            return 0, 0
        pos, neg = self.gp.instances[t - 1].goal
        return pos | self.test[t - 1], neg

    def _end_effects(self, t: int) -> tuple[int, int]:
        """What finishing instance ``t`` does: restart execution on instance
        ``t + 1`` (base state := its init, pc := 0, test advances), or set
        ``done`` after the last instance; either way the gadget clears."""
        if t == self.T:
            return self.done, self.gadget
        inst = self.gp.instances[t]
        pos = inst.init | self.pc[0] | self.test[t]
        base = (1 << self.base.width) - 1
        neg = (base & ~inst.init) | sum(self.pc[1:]) | self.test[t - 1] | self.gadget
        if inst.label is Label.NEGATIVE:
            pos |= self.negex
        else:
            neg |= self.negex
        return pos, neg

    # -- action constructors ------------------------------------------------

    def _add_action(self, role: Role, pos: int, neg: int, cond) -> None:
        self.actions.append(Action(role.name, (pos, neg), tuple(cond)))
        self.roles.append(role)

    def _prog_action(self, ins: Instruction, i: int, t: int | None) -> None:
        pos, neg = (0, 0) if self.with_gadget else self._pre_of(ins, t)
        eff = (0, 0, self.ins[i][ins], self.nil[i])
        self._add_action(Role("prog", i, ins, t), pos | self.pc[i] | self.nil[i], neg, [eff])

    def _exec_action(self, ins: Instruction, i: int, t: int | None) -> None:
        pos, neg = self._pre_of(ins, t)
        pos |= self.pc[i] | self.ins[i][ins]
        jumped = unchecked = 0
        if self.with_gadget:
            jumped, unchecked = self.flag["jumped"], self.flag["checked"] | self.flag["holds"]
            pos |= unchecked
        if isinstance(ins, ActInstruction):
            move = (0, 0, self.pc[i + 1], self.pc[i] | unchecked | jumped)
            cond = self.base.action(ins.action).cond + (move,)
        elif isinstance(ins, GotoInstruction):
            f = 1 << self.base.fluent_id(ins.fluent)
            # Every loop of a run takes a jump to the same or an earlier line,
            # and only such a jump sets ``jumped``: the gadget stores and
            # compares only the state it reaches.
            if ins.target == i:
                # Self-jump: a false condition leaves the program state unchanged.
                cond = [(f, 0, self.pc[i + 1], self.pc[i] | unchecked | jumped)]
                if jumped:
                    cond.append((0, f, jumped, unchecked))
            else:
                back = jumped if ins.target < i else 0
                cond = [
                    (0, 0, 0, self.pc[i] | unchecked),
                    (f, 0, self.pc[i + 1], jumped),
                    (0, f, self.pc[ins.target] | back, jumped & ~back),
                ]
        else:
            neg |= self.negex
            cond = [(0, 0, *self._end_effects(t))]
        self._add_action(Role("exec", i, ins, t), pos, neg, cond)

    def _check_action(self, ins: Instruction, i: int, t: int | None) -> None:
        flag = self.flag
        pos = self.pc[i] | self.ins[i][ins]
        neg = flag["checked"] | flag["loop"]
        if isinstance(ins, EndInstruction):
            # No stored copy may leak from one instance into the next, and the
            # end copy for instance t may only be checked while t is running
            # (otherwise a vacuous wrong-copy check could fail any instance
            # at will, breaking the solvability/validation equivalence).
            pos |= self.test[t - 1]
            neg |= flag["stored"]
        w_pos, w_neg = self._pre_of(ins, t)
        if w_pos | w_neg:
            cond = [(0, 0, flag["checked"], 0), (w_pos, w_neg, flag["holds"], 0)]
        else:
            cond = [(0, 0, flag["checked"] | flag["holds"], 0)]
        self._add_action(Role("check", i, ins, t), pos, neg, cond)

    def _gadget_actions(self) -> None:
        flag = self.flag
        stored, jumped, checked, loop = (flag[k] for k in ("stored", "jumped", "checked", "loop"))
        cond = [(0, 0, stored, jumped)] + [(f, 0, c, 0) for f, c, _ in self.watched]
        self._add_action(Role("store"), jumped, checked | stored, cond)

        cond = [(0, 0, loop, stored | jumped)]
        for f, c, k in self.watched:
            cond += [(f | c, 0, k, 0), (0, f | c, k, 0)]
        self._add_action(Role("compare"), stored | jumped, checked | loop, cond)

        pos = loop | self.corrects
        self._add_action(Role("process"), pos, 0, [(0, 0, checked, loop)])

    def _skip_action(self, t: int) -> None:
        flag = self.flag
        pre_pos = self.test[t - 1] | flag["checked"] | self.negex
        cond = [(0, 0, *self._end_effects(t))]
        self._add_action(Role("skip", t=t), pre_pos, flag["holds"], cond)

    # -- variants -----------------------------------------------------------

    def _programmable(self, i: int) -> list[Instruction]:
        """Instructions with programming actions on line ``i``: everything on
        interior lines, only ``end`` on line ``n`` (nothing may fall through
        past the last line)."""
        if i == self.n:
            return [ins for ins in self.line_universe[i] if isinstance(ins, EndInstruction)]
        return self.line_universe[i]

    def _instruction_actions(self) -> None:
        """Every line's instruction actions, for all three variants: the
        programmable instructions when synthesizing, the program's own
        instruction when validating. Each gets a programming action
        (synthesis), a check action (with the gadget) and an execution
        action; ``end`` gets one copy of each per instance."""
        programming = self.program is None
        for i in range(self.n + 1):
            line = self._programmable(i) if programming else self.program.lines[i : i + 1]
            for ins in line:
                if ins not in self.ins[i]:
                    raise ModelError(
                        f"program line {i} ({instruction_slug(ins)}) not expressible "
                        "in the compiled instruction set"
                    )
                copies = range(1, self.T + 1) if isinstance(ins, EndInstruction) else (None,)
                for t in copies:
                    if programming:
                        self._prog_action(ins, i, t)
                    if self.with_gadget:
                        self._check_action(ins, i, t)
                    self._exec_action(ins, i, t)

    def _init_state(self) -> int:
        first = self.gp.instances[0]
        bits = first.init | self.pc[0] | self.test[0]
        written = () if self.program is None else self.program.lines
        bits |= sum(self.ins[i][ins] for i, ins in enumerate(written))
        bits |= sum(self.nil[len(written):])
        if first.label is Label.NEGATIVE:
            bits |= self.negex
        return bits

    def build(self) -> CompiledInstance:
        self.build_fluents()
        self._instruction_actions()
        if self.with_gadget:
            self._gadget_actions()
            for t in range(1, self.T + 1):
                self._skip_action(t)
        frame = Frame(tuple(self.fluents), tuple(self.actions))
        return CompiledInstance(
            frame=frame,
            init=self._init_state(),
            goal=(self.done, 0),
            variant=self.variant,
            lines=self.n,
            instance_names=tuple(inst.name for inst in self.gp.instances),
            labels=tuple(inst.label for inst in self.gp.instances),
            roles=tuple(self.roles),
        )


def compile_synthesis_positive(
    problem: GeneralizedProblem,
    n: int,
    *,
    allow_forward_gotos: bool = True,
    instruction_whitelist: Iterable[Instruction] | None = None,
) -> CompiledInstance:
    """Synthesis compilation over positive instances only (no failure
    detection: a program must solve every instance for the goal to be
    reachable)."""
    if problem.t_negative:
        raise VariantMismatchError(
            "positive-only synthesis got negative instances; use compile_synthesis_pn"
        )
    return _Builder(
        problem,
        n,
        Variant.SYNTH_POSITIVE,
        allow_forward_gotos=allow_forward_gotos,
        instruction_whitelist=instruction_whitelist,
    ).build()


def compile_validation(problem: GeneralizedProblem, program: Program) -> CompiledInstance:
    """Validation compilation: the program is pre-programmed in the initial
    state and the compiled instance is solvable iff the program solves every
    positive instance and fails every negative one."""
    program.check_against(problem.frame)
    return _Builder(
        problem, max(program.n, 1), Variant.VALIDATION, program=program
    ).build()


def compile_synthesis_pn(
    problem: GeneralizedProblem,
    n: int,
    *,
    allow_forward_gotos: bool = True,
    instruction_whitelist: Iterable[Instruction] | None = None,
) -> CompiledInstance:
    """Synthesis compilation with positive and negative examples."""
    if problem.t_positive == 0:
        raise VariantMismatchError(
            "at least one positive instance is required: the one-line program "
            "'0. end' covers any negative whose goals are initially unmet"
        )
    return _Builder(
        problem,
        n,
        Variant.SYNTH_PN,
        allow_forward_gotos=allow_forward_gotos,
        instruction_whitelist=instruction_whitelist,
    ).build()


def decode_program(plan: Sequence[int], compiled: CompiledInstance) -> DecodedProgram:
    """Read the program off a solution plan's programming actions."""
    if compiled.variant is Variant.VALIDATION:
        raise VariantMismatchError("validation plans contain no programming actions")
    lines: dict[int, Instruction] = {}
    for idx in plan:
        role = compiled.roles[idx]
        if role.kind == "prog":
            if role.line in lines:
                raise MalformedPlanError(
                    f"two programming actions for line {role.line}"
                )
            lines[role.line] = role.instruction
    unprogrammed = tuple(i for i in range(compiled.lines + 1) if i not in lines)
    full = tuple(lines.get(i, EndInstruction()) for i in range(compiled.lines + 1))
    return DecodedProgram(Program(full), unprogrammed)


def decode_trace(plan: Sequence[int], compiled: CompiledInstance) -> tuple[TraceOutcome, ...]:
    """Reconstruct per-instance outcomes from a goal-reaching plan; any other
    plan raises :class:`MalformedPlanError`.

    An instance ends either with an end-execution action (solved) or with a
    skip action, whose immediately preceding action names the failure source:
    a failed end check is an incomplete program, a failed action check is an
    inapplicable action, and process witnesses an infinite loop.
    """
    if not validate_sequential_plan(compiled, plan):
        raise MalformedPlanError("plan is inapplicable or does not reach the compiled goal")

    outcomes: list[TraceOutcome] = []
    t = 1
    prev: Role | None = None
    for idx in plan:
        role = compiled.roles[idx]
        if role.kind == "exec" and isinstance(role.instruction, EndInstruction):
            if role.t != t:
                raise MalformedPlanError(f"end for instance {role.t} while running {t}")
            outcomes.append(
                TraceOutcome(t, compiled.instance_names[t - 1], solved=True)
            )
            t += 1
        elif role.kind == "skip":
            if role.t != t:
                raise MalformedPlanError(f"skip for instance {role.t} while running {t}")
            outcomes.append(_failure_from(prev, t, compiled))
            t += 1
        prev = role
    if t != len(compiled.labels) + 1:
        raise MalformedPlanError(
            f"plan terminated {t - 1} of {len(compiled.labels)} instances"
        )
    return tuple(outcomes)


def _failure_from(prev: Role | None, t: int, compiled: CompiledInstance) -> TraceOutcome:
    name = compiled.instance_names[t - 1]
    if prev is not None and prev.kind == "process":
        return TraceOutcome(t, name, solved=False, failure=FailureKind.INFINITE_LOOP)
    if prev is not None and prev.kind == "check":
        if isinstance(prev.instruction, EndInstruction):
            return TraceOutcome(t, name, solved=False, failure=FailureKind.INCOMPLETE)
        if isinstance(prev.instruction, ActInstruction):
            return TraceOutcome(
                t,
                name,
                solved=False,
                failure=FailureKind.INAPPLICABLE,
                line=prev.line,
                action=prev.instruction.action,
            )
    raise MalformedPlanError(
        f"skip for instance {t} not preceded by a failure witness (got {prev!r})"
    )
