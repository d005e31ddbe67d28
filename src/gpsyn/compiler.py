"""Compilations of program validation and synthesis into classical planning.

Three variants over one builder:

* synthesis from positive instances only: programming actions write
  instructions onto empty lines, execution actions simulate them, and a
  per-instance ``end`` chains through the instances to the ``done`` goal;
* validation of a given program on labeled instances: no programming actions,
  every instruction execution is preceded by a check action that records
  whether its precondition holds, a store/compare/process gadget witnesses
  repeated program states (infinite loops), and ``skip`` actions terminate an
  instance on a detected failure;
* synthesis from positive and negative instances: the validation machinery
  plus programming actions, with a ``negex`` fluent that forces execution to
  succeed exactly on the positives and fail exactly on the negatives.

The variants differ only in which actions each line gets, so one
instruction-action loop builds all three. Every action carries a :class:`Role`
whose ``kind`` is the action-name prefix (``prog``, ``exec``, ``check``,
``store``, ``compare``, ``process``, ``skip``); the action name is formatted
from the role alone.

Compiled instances use the same frame/state types as ordinary instances, with
base fluents keeping their original ids, so the planner runs on them directly
and solution plans decode back into programs and per-instance outcomes.
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
    LiteralSet,
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


_FLAGS = ("checked", "holds", "stored", "acted", "loop")


@dataclass(frozen=True)
class CompiledInstance:
    """Output of a compilation: a classical instance plus decode metadata."""

    frame: Frame
    init: int
    goal: LiteralSet
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
        self.with_negex = variant is Variant.SYNTH_PN

        self.fluents: list[str] = []
        self.ids: dict[str, int] = {}
        self.actions: list[Action] = []
        self.roles: list[Role] = []

    # -- fluent table -------------------------------------------------------

    def _add_fluent(self, name: str) -> int:
        if name in self.ids:
            raise ModelError(
                f"compiled fluent name collision: {name!r} (rename the base fluent)"
            )
        idx = len(self.fluents)
        self.fluents.append(name)
        self.ids[name] = idx
        return idx

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
        for name in self.base.fluents:
            self._add_fluent(name)
        self.pc = [self._add_fluent(f"pc_{i}") for i in range(self.n + 1)]
        self.ins: list[dict[Instruction, int]] = []
        self.nil: list[int] = []
        self.line_universe = [self._line_universe(i) for i in range(self.n + 1)]
        for i in range(self.n + 1):
            table = {}
            for ins in self.line_universe[i]:
                table[ins] = self._add_fluent(f"ins_{i}_{instruction_slug(ins)}")
            self.ins.append(table)
            self.nil.append(self._add_fluent(f"ins_{i}_nil"))
        self.test = [self._add_fluent(f"test_{t}") for t in range(1, self.T + 1)]
        self.done = self._add_fluent("done")
        if self.with_gadget:
            self.flag = {name: self._add_fluent(name) for name in _FLAGS}
            watched = list(range(self.base.width)) + self.pc
            self.watched = watched
            self.copy = {f: self._add_fluent(f"copy_{self.fluents[f]}") for f in watched}
            self.correct = {f: self._add_fluent(f"correct_{self.fluents[f]}") for f in watched}
        if self.with_negex:
            self.negex = self._add_fluent("negex")

    # -- literal helpers ----------------------------------------------------

    def _ls(self, pos: Iterable[int] = (), neg: Iterable[int] = ()) -> LiteralSet:
        p = q = 0
        for f in pos:
            p |= 1 << f
        for f in neg:
            q |= 1 << f
        return LiteralSet(p, q)

    def _pre_of(self, ins: Instruction, t: int | None) -> LiteralSet:
        """The instruction's own precondition (goal + test for end copies)."""
        if isinstance(ins, ActInstruction):
            return self.base.action(ins.action).pre
        if isinstance(ins, GotoInstruction):
            return LiteralSet()
        goal = self.gp.instances[t - 1].goal
        return goal.union(self._ls(pos=[self.test[t - 1]]))

    def _reset_literals(self, next_t: int) -> LiteralSet:
        """Unconditional effect that restarts execution on instance ``next_t``:
        base state := its init, pc := 0, test advances, gadget flags clear."""
        inst = self.gp.instances[next_t - 1]
        width = self.base.width
        mask = (1 << width) - 1
        pos = inst.init
        neg = mask & ~inst.init
        pos |= 1 << self.pc[0]
        for j in range(1, self.n + 1):
            neg |= 1 << self.pc[j]
        neg |= 1 << self.test[next_t - 2]
        pos |= 1 << self.test[next_t - 1]
        if self.with_gadget:
            for name in _FLAGS:
                neg |= 1 << self.flag[name]
            for f in self.watched:
                neg |= 1 << self.copy[f]
                neg |= 1 << self.correct[f]
        if self.with_negex:
            if inst.label is Label.NEGATIVE:
                pos |= 1 << self.negex
            else:
                neg |= 1 << self.negex
        return LiteralSet(pos, neg)

    def _end_effects(self, t: int) -> LiteralSet:
        """What finishing instance ``t`` does (reset to next, or ``done``)."""
        if t < self.T:
            eff = self._reset_literals(t + 1)
        else:
            eff = self._ls(pos=[self.done])
            if self.with_gadget:
                eff = eff.union(
                    self._ls(
                        pos=[self.flag["acted"]],
                        neg=[self.flag["checked"], self.flag["holds"]],
                    )
                )
        return eff

    # -- action constructors ------------------------------------------------

    def _add_action(self, role: Role, pre: LiteralSet, cond) -> None:
        effects = tuple((c.pos, c.neg, e.pos, e.neg) for c, e in cond if e)
        self.actions.append(Action(role.name, pre, effects))
        self.roles.append(role)

    def _prog_action(self, ins: Instruction, i: int, t: int | None) -> None:
        pre = self._pre_of(ins, t).union(self._ls(pos=[self.pc[i], self.nil[i]]))
        eff = self._ls(pos=[self.ins[i][ins]], neg=[self.nil[i]])
        self._add_action(Role("prog", i, ins, t), pre, [(LiteralSet(), eff)])

    def _exec_action(self, ins: Instruction, i: int, t: int | None) -> None:
        pre = self._pre_of(ins, t).union(self._ls(pos=[self.pc[i], self.ins[i][ins]]))
        decor_pos: list[int] = []
        decor_neg: list[int] = []
        if self.with_gadget:
            pre = pre.union(self._ls(pos=[self.flag["checked"], self.flag["holds"]]))
            decor_pos = [self.flag["acted"]]
            decor_neg = [self.flag["checked"], self.flag["holds"]]
        cond: list[tuple[LiteralSet, LiteralSet]] = []
        if isinstance(ins, ActInstruction):
            base_act = self.base.action(ins.action)
            cond.extend(
                (LiteralSet(cpos, cneg), LiteralSet(epos, eneg))
                for cpos, cneg, epos, eneg in base_act.cond
            )
            move = self._ls(pos=[self.pc[i + 1]] + decor_pos, neg=[self.pc[i]] + decor_neg)
            cond.append((LiteralSet(), move))
        elif isinstance(ins, GotoInstruction):
            f = self.base.fluent_id(ins.fluent)
            if ins.target == i:
                # Self-jump: only the fall-through branch moves the counter;
                # a false condition leaves the program state unchanged.
                cond.append(
                    (self._ls(pos=[f]), self._ls(pos=[self.pc[i + 1]], neg=[self.pc[i]]))
                )
                if decor_pos:
                    cond.append((LiteralSet(), self._ls(pos=decor_pos, neg=decor_neg)))
            else:
                cond.append((LiteralSet(), self._ls(pos=decor_pos, neg=[self.pc[i]] + decor_neg)))
                cond.append((self._ls(pos=[f]), self._ls(pos=[self.pc[i + 1]])))
                cond.append((self._ls(neg=[f]), self._ls(pos=[self.pc[ins.target]])))
        else:
            if self.with_negex:
                pre = pre.union(self._ls(neg=[self.negex]))
            cond.append((LiteralSet(), self._end_effects(t)))
        self._add_action(Role("exec", i, ins, t), pre, cond)

    def _check_action(self, ins: Instruction, i: int, t: int | None) -> None:
        pre = self._ls(
            pos=[self.pc[i], self.ins[i][ins]],
            neg=[self.flag["checked"], self.flag["loop"]],
        )
        if isinstance(ins, EndInstruction):
            # No stored copy may leak from one instance into the next, and the
            # end copy for instance t may only be checked while t is running
            # (otherwise a vacuous wrong-copy check could fail any instance
            # at will, breaking the solvability/validation equivalence).
            pre = pre.union(self._ls(pos=[self.test[t - 1]], neg=[self.flag["stored"]]))
        w_pre = self._pre_of(ins, t)
        checked = self._ls(pos=[self.flag["checked"]])
        holds = self._ls(pos=[self.flag["holds"]])
        if w_pre:
            cond = [(LiteralSet(), checked), (w_pre, holds)]
        else:
            cond = [(LiteralSet(), checked.union(holds))]
        self._add_action(Role("check", i, ins, t), pre, cond)

    def _gadget_actions(self) -> None:
        negex_pre = self._ls(pos=[self.negex]) if self.with_negex else LiteralSet()
        flag = self.flag
        pre = self._ls(pos=[flag["acted"]], neg=[flag["checked"], flag["stored"]])
        cond = [(LiteralSet(), self._ls(pos=[flag["stored"]], neg=[flag["acted"]]))]
        cond += [
            (self._ls(pos=[f]), self._ls(pos=[self.copy[f]])) for f in self.watched
        ]
        self._add_action(Role("store"), pre.union(negex_pre), cond)

        pre = self._ls(
            pos=[flag["stored"], flag["acted"]], neg=[flag["checked"], flag["loop"]]
        )
        cond = [
            (
                LiteralSet(),
                self._ls(pos=[flag["loop"]], neg=[flag["stored"], flag["acted"]]),
            )
        ]
        for f in self.watched:
            cf = self.copy[f]
            ok = self._ls(pos=[self.correct[f]])
            cond.append((self._ls(pos=[f, cf]), ok))
            cond.append((self._ls(neg=[f, cf]), ok))
        self._add_action(Role("compare"), pre.union(negex_pre), cond)

        pre = self._ls(pos=[flag["loop"]] + [self.correct[f] for f in self.watched])
        cond = [(LiteralSet(), self._ls(pos=[flag["checked"]], neg=[flag["loop"]]))]
        self._add_action(Role("process"), pre.union(negex_pre), cond)

    def _skip_action(self, t: int) -> None:
        flag = self.flag
        pre = self._ls(
            pos=[self.test[t - 1], flag["checked"]], neg=[flag["holds"]]
        )
        if self.with_negex:
            pre = pre.union(self._ls(pos=[self.negex]))
        eff = self._end_effects(t)
        clear = self._ls(
            neg=[flag["checked"], flag["stored"]]
            + [self.copy[f] for f in self.watched]
            + [self.correct[f] for f in self.watched]
        )
        self._add_action(Role("skip", t=t), pre, [(LiteralSet(), eff.union(clear))])

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
                    # In validation, ending an instance positively is only
                    # legal on positives; negatives must leave via skip. This
                    # is what makes solvability coincide with validation.
                    if programming or t is None or self.gp.instances[t - 1].is_positive:
                        self._exec_action(ins, i, t)

    def _init_state(self) -> int:
        bits = self.gp.instances[0].init
        bits |= 1 << self.pc[0]
        bits |= 1 << self.test[0]
        written = () if self.program is None else self.program.lines
        for i, ins in enumerate(written):
            bits |= 1 << self.ins[i][ins]
        for i in range(len(written), self.n + 1):
            bits |= 1 << self.nil[i]
        if self.with_negex and self.gp.instances[0].label is Label.NEGATIVE:
            bits |= 1 << self.negex
        return bits

    def build(self) -> CompiledInstance:
        self.build_fluents()
        self._instruction_actions()
        if self.with_gadget:
            self._gadget_actions()
            for t in range(1, self.T + 1):
                if self.with_negex or not self.gp.instances[t - 1].is_positive:
                    self._skip_action(t)
        frame = Frame(tuple(self.fluents), tuple(self.actions))
        return CompiledInstance(
            frame=frame,
            init=self._init_state(),
            goal=self._ls(pos=[self.done]),
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
