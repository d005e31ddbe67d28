"""Propositional planning model with conditional effects.

Fluents are names, indexed by their position in :attr:`Frame.fluents`. A
state is an int bitmask whose bit ``f`` is set iff fluent ``f`` is true. An
action's conditional effects are ``(cond.pos, cond.neg, eff.pos, eff.neg)``
mask tuples, and :class:`LiteralSet` is only the checked ``(pos, neg)`` pair
of a precondition or a goal, tested on a state with :meth:`LiteralSet.holds`.
:meth:`Frame.literal_set` parses ``"name"`` / ``"!name"`` texts into masks and
:meth:`Frame.texts` prints masks back. Compiled instances produced by
:mod:`gpsyn.compiler` reuse these types, so the representation has to stay
cheap at a few hundred fluents.

:func:`successor_bits` is the one successor function, and
:func:`triggered_masks` the one place conditional effects are evaluated; it
tests only the branches whose trigger bit (see :class:`Action`) is set.

All types are immutable values after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import ConflictError, ModelError


class LiteralSet:
    """The checked ``(pos, neg)`` mask pair of a precondition or a goal.

    ``pos`` holds the fluents asserted true and ``neg`` those asserted false;
    construction rejects a fluent in both with :class:`ConflictError`.
    """

    __slots__ = ("pos", "neg")

    def __init__(self, pos: int = 0, neg: int = 0):
        if pos & neg:
            raise ConflictError(
                f"literal set assigns both polarities to fluents {bit_ids(pos & neg)}"
            )
        self.pos = pos
        self.neg = neg

    def holds(self, bits: int) -> bool:
        """True iff every literal holds in the state bitmask ``bits``."""
        return (bits & self.pos) == self.pos and (bits & self.neg) == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LiteralSet)
            and self.pos == other.pos
            and self.neg == other.neg
        )

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __repr__(self) -> str:
        return f"LiteralSet(pos={self.pos:#x}, neg={self.neg:#x})"


@dataclass(frozen=True)
class Action:
    """A ground action: a precondition plus conditional effects, each a
    ``(cond.pos, cond.neg, eff.pos, eff.neg)`` mask tuple whose effect fires
    when its condition holds. A branch's trigger is the lowest bit of its
    ``cond.pos``: it cannot fire in a state without that bit."""

    name: str
    pre: LiteralSet
    cond: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        for cpos, cneg, epos, eneg in self.cond:
            if not epos | eneg:
                raise ModelError(f"action {self.name!r}: conditional effect with empty effect set")
            if cpos & cneg or epos & eneg:
                raise ConflictError(
                    f"action {self.name!r}: conditional effect assigns both polarities "
                    f"to fluents {bit_ids(cpos & cneg | epos & eneg)}"
                )

    @cached_property
    def _triggers(self) -> tuple[int, dict, list]:
        """``(trigger_mask, groups, always)``: the OR of the triggers, the
        branches grouped by trigger, and the branches with ``cond.pos`` 0."""
        trigger_mask, groups, always = 0, {}, []
        for branch in self.cond:
            low = branch[0] & -branch[0]
            if low:
                trigger_mask |= low
                groups.setdefault(low, []).append(branch)
            else:
                always.append(branch)
        return trigger_mask, groups, always


@dataclass(frozen=True)
class Frame:
    """Shared fluent and action sets for a family of instances."""

    fluents: tuple[str, ...]
    actions: tuple[Action, ...]

    def __post_init__(self):
        names = set()
        for name in self.fluents:
            if name in names:
                raise ModelError(f"duplicate fluent name {name!r}")
            if name.startswith("!"):
                raise ModelError(f"fluent name {name!r} starts with the negation mark '!'")
            names.add(name)
        width = len(self.fluents)
        seen = set()
        for act in self.actions:
            if act.name in seen:
                raise ModelError(f"duplicate action name {act.name!r}")
            seen.add(act.name)
            masks = [act.pre.pos, act.pre.neg]
            for branch in act.cond:
                masks += branch
            for m in masks:
                if m >> width:
                    raise ModelError(f"action {act.name!r} references fluents outside frame")

    @property
    def width(self) -> int:
        return len(self.fluents)

    @cached_property
    def _fluent_ids(self) -> dict:
        return {name: f for f, name in enumerate(self.fluents)}

    @cached_property
    def _actions_by_name(self) -> dict:
        return {a.name: a for a in self.actions}

    def fluent_id(self, name: str) -> int:
        try:
            return self._fluent_ids[name]
        except KeyError:
            raise ModelError(f"unknown fluent {name!r}") from None

    def has_fluent(self, name: str) -> bool:
        return name in self._fluent_ids

    def action(self, name: str) -> Action:
        try:
            return self._actions_by_name[name]
        except KeyError:
            raise ModelError(f"unknown action {name!r}") from None

    def has_action(self, name: str) -> bool:
        return name in self._actions_by_name

    def literal_set(self, *texts: str) -> LiteralSet:
        """Parse ``"name"`` / ``"!name"`` texts into a literal set."""
        return _literal_set(texts, self._fluent_ids)

    def texts(self, pos: int, neg: int) -> list[str]:
        """The literals of the masks ``pos`` (true) and ``neg`` (false) as
        ``"name"`` / ``"!name"`` texts, the inverse of :meth:`literal_set`:
        the true ones first, each in fluent order."""
        names = self.fluents
        return [names[f] for f in bit_ids(pos)] + ["!" + names[f] for f in bit_ids(neg)]

    def state(self, true_names: Iterable[str]) -> int:
        """The state bitmask in which exactly ``true_names`` hold."""
        bits = 0
        for name in true_names:
            bits |= 1 << self.fluent_id(name)
        return bits


def _literal_set(texts: Iterable[str], ids: dict) -> LiteralSet:
    """Parse ``"name"`` / ``"!name"`` texts, with fluent ids from ``ids``."""
    pos = neg = 0
    try:
        for text in texts:
            if text.startswith("!"):
                neg |= 1 << ids[text[1:]]
            else:
                pos |= 1 << ids[text]
    except KeyError as exc:
        raise ModelError(f"unknown fluent {exc.args[0]!r}") from None
    return LiteralSet(pos, neg)


class FrameBuilder:
    """Incremental construction of a frame from fluent/action descriptions."""

    def __init__(self):
        self._fluents: list[str] = []
        self._ids: dict[str, int] = {}
        self._actions: list[Action] = []

    def fluent(self, name: str) -> int:
        if name in self._ids:
            raise ModelError(f"duplicate fluent name {name!r}")
        idx = len(self._fluents)
        self._fluents.append(name)
        self._ids[name] = idx
        return idx

    def action(
        self,
        name: str,
        pre: Iterable[str] = (),
        cond: Iterable[tuple[Iterable[str], Iterable[str]]] = (),
    ) -> None:
        effects = []
        for c, e in cond:
            when, then = _literal_set(c, self._ids), _literal_set(e, self._ids)
            effects.append((when.pos, when.neg, then.pos, then.neg))
        self._actions.append(Action(name, _literal_set(pre, self._ids), tuple(effects)))

    def build(self) -> Frame:
        return Frame(tuple(self._fluents), tuple(self._actions))


class Label(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class ClassicalInstance:
    """One classical problem: shared frame plus its own init, goal and label."""

    frame: Frame
    name: str
    init: int
    goal: LiteralSet
    label: Label = Label.POSITIVE

    def __post_init__(self):
        if self.init >> self.frame.width:
            raise ModelError(f"instance {self.name!r}: init references fluents outside the frame")
        if (self.goal.pos | self.goal.neg) >> self.frame.width:
            raise ModelError(f"instance {self.name!r}: goal references unknown fluents")

    @property
    def is_positive(self) -> bool:
        return self.label is Label.POSITIVE


@dataclass(frozen=True)
class GeneralizedProblem:
    """An ordered set of labeled classical instances over one frame.

    Synthesis additionally requires at least one positive instance; that
    constraint is enforced where it matters (the synthesis compilations), so
    that purely negative or empty sets remain usable for validation and
    evaluation.
    """

    frame: Frame
    instances: tuple[ClassicalInstance, ...]

    def __post_init__(self):
        for inst in self.instances:
            if inst.frame is not self.frame and inst.frame != self.frame:
                raise ModelError(f"instance {inst.name!r} uses a different frame")

    @property
    def t_total(self) -> int:
        return len(self.instances)

    @property
    def t_positive(self) -> int:
        return sum(1 for i in self.instances if i.is_positive)

    @property
    def t_negative(self) -> int:
        return self.t_total - self.t_positive


PlanLike = Sequence[Union[Action, int]]


def triggered_masks(bits: int, action: Action) -> tuple[int, int]:
    """``(pos, neg)`` masks of the effects of ``action`` whose conditions
    hold in the state bitmask ``bits``.

    This is the single place conditional effects are evaluated: the
    interpreter, the planner, plan replay and trace decoding all reach it
    through :func:`successor_bits`. Only the branches whose trigger is set
    in ``bits``, and those with no positive condition, are tested. Raises
    :class:`ConflictError` when two triggered effects assert opposite
    polarities of one fluent; the paper assumes consistency WLOG, so a clash
    means the domain encoding is broken and must not be papered over.
    """
    trigger_mask, groups, always = action._triggers
    pos = neg = 0
    m = bits & trigger_mask
    while m:
        low = m & -m
        m ^= low
        for cpos, cneg, epos, eneg in groups[low]:
            if (bits & cpos) == cpos and not bits & cneg:
                pos |= epos
                neg |= eneg
    for _, cneg, epos, eneg in always:
        if not bits & cneg:
            pos |= epos
            neg |= eneg
    if pos & neg:
        raise ConflictError(
            f"action {action.name!r} triggers conflicting effects on fluents "
            f"{bit_ids(pos & neg)}"
        )
    return pos, neg


def successor_bits(bits: int, action: Action) -> int:
    """The state bitmask after applying ``action`` to ``bits``; fluents
    outside the triggered effects keep their polarity. The caller checks the
    precondition."""
    pos, neg = triggered_masks(bits, action)
    return (bits | pos) & ~neg


def validate_sequential_plan(problem, plan: PlanLike) -> bool:
    """True iff every action applies in sequence and the goal holds at the end.

    ``problem`` needs ``frame``/``init``/``goal``, so both classical and
    compiled instances work. Inapplicability yields ``False``, not an error.
    """
    bits = problem.init
    for entry in plan:
        action = problem.frame.actions[entry] if isinstance(entry, int) else entry
        if not action.pre.holds(bits):
            return False
        bits = successor_bits(bits, action)
    return problem.goal.holds(bits)


def bit_ids(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids
