"""Propositional planning model with conditional effects.

Fluents are names, indexed by their position in :attr:`Frame.fluents`. A
state is an int bitmask whose bit ``f`` is set iff fluent ``f`` is true. A
precondition or a goal is a ``(pos, neg)`` mask pair, tested on a state with
:func:`holds`, and an action's conditional effects are ``(cond.pos, cond.neg,
eff.pos, eff.neg)`` mask tuples; the type that owns a pair rejects a fluent in
both masks. :meth:`Frame.masks` and :class:`FrameBuilder` parse ``"name"`` /
``"!name"`` texts into a mask pair through a literal table that gives each
text its bit in one double-width mask, and :meth:`Frame.texts` prints masks
back. Compiled instances produced by :mod:`gpsyn.compiler` reuse these
types, so the representation has to stay cheap at a few hundred fluents.

:func:`successor_bits` is the one successor function, and
:func:`triggered_masks` the one place conditional effects are evaluated; it
tests only the branches whose trigger bit (see :class:`Action`) is set.

All types are immutable values after construction and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

from .errors import ConflictError, ModelError

NAME = re.compile(r"[A-Za-z0-9_-]+")
"""A fluent or action name; the program text format reads names with it."""


@dataclass(frozen=True)
class Action:
    """A ground action: a precondition plus conditional effects, each a
    ``(cond.pos, cond.neg, eff.pos, eff.neg)`` mask tuple whose effect fires
    when its condition holds. The precondition is a ``(pos, neg)`` mask
    pair. A branch's trigger is the lowest bit of its ``cond.pos``: it cannot
    fire in a state without that bit."""

    name: str
    pre: tuple[int, int]
    cond: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        pos, neg = self.pre
        clash = pos & neg
        for cpos, cneg, epos, eneg in self.cond:
            if not epos | eneg:
                raise ModelError(f"action {self.name!r}: conditional effect with empty effect set")
            clash |= cpos & cneg | epos & eneg
        if clash:
            raise ConflictError(
                f"action {self.name!r}: precondition or conditional effect assigns "
                f"both polarities to fluents {bit_ids(clash)}"
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
            names.add(name)
        _check_names("fluent", self.fluents)
        _check_names("action", [act.name for act in self.actions])
        width = len(self.fluents)
        seen = set()
        for act in self.actions:
            if act.name in seen:
                raise ModelError(f"duplicate action name {act.name!r}")
            if act.name in ("end", "nil"):
                raise ModelError(
                    f"action name {act.name!r} is reserved: a program line reads 'end' as "
                    "the end instruction, and the compiler names an empty line 'nil'"
                )
            seen.add(act.name)
            masks = list(act.pre)
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

    @cached_property
    def _parse(self) -> Callable[[Iterable[str]], tuple[int, int]]:
        return _literal_parser(self.fluents)

    def masks(self, *texts: str) -> tuple[int, int]:
        """Parse ``"name"`` / ``"!name"`` texts into a ``(pos, neg)`` mask pair."""
        return self._parse(texts)

    def texts(self, pos: int, neg: int) -> list[str]:
        """The literals of the masks ``pos`` (true) and ``neg`` (false) as
        ``"name"`` / ``"!name"`` texts, the inverse of :meth:`masks`:
        the true ones first, each in fluent order."""
        names = self.fluents
        return [names[f] for f in bit_ids(pos)] + ["!" + names[f] for f in bit_ids(neg)]

    def state(self, true_names: Iterable[str]) -> int:
        """The state bitmask in which exactly ``true_names`` hold."""
        bits = 0
        for name in true_names:
            bits |= 1 << self.fluent_id(name)
        return bits


def _check_names(kind: str, names: Sequence[str]) -> None:
    if not all(map(NAME.fullmatch, names)):
        bad = next(name for name in names if not NAME.fullmatch(name))
        raise ModelError(
            f"{kind} name {bad!r} is not letters, digits, '_' and '-' "
            "(a name carries no negation mark '!')"
        )


def _literal_parser(fluents: Sequence[str]) -> Callable[[Iterable[str]], tuple[int, int]]:
    """A parser of ``"name"`` / ``"!name"`` texts into a ``(pos, neg)`` mask
    pair over ``fluents``. Its literal table maps ``"name"`` to ``1 << f`` and
    ``"!name"`` to ``1 << (width + f)``; :data:`NAME` forbids ``!``, so the
    keys cannot clash, and a literal costs one lookup and one OR into a
    double-width mask."""
    width = len(fluents)
    full = (1 << width) - 1
    table = {name: 1 << f for f, name in enumerate(fluents)}
    table.update({"!" + name: 1 << (width + f) for f, name in enumerate(fluents)})

    def parse(texts: Iterable[str]) -> tuple[int, int]:
        m = 0
        for text in texts:
            try:
                m |= table[text]
            except (KeyError, TypeError):
                # Name the literal without its '!'; a non-string fails on startswith.
                name = text[1:] if text.startswith("!") else text
                raise ModelError(f"unknown fluent {name!r}") from None
        # ``&`` allocates as many digits as ``full`` however few bits
        # survive; ``| 0`` copies the result into an int of its own size,
        # since these masks live as long as the frame.
        return (m & full) | 0, m >> width

    return parse


class FrameBuilder:
    """Incremental construction of a frame from fluent/action descriptions."""

    def __init__(self):
        self._fluents: list[str] = []
        self._actions: list[Action] = []
        self._parse = _literal_parser(())
        self._parse_width = 0

    def fluent(self, name: str) -> None:
        self._fluents.append(name)

    def action(
        self,
        name: str,
        pre: Iterable[str] = (),
        cond: Iterable[tuple[Iterable[str], Iterable[str]]] = (),
    ) -> None:
        if self._parse_width != len(self._fluents):  # fluents were added since the last action
            self._parse, self._parse_width = _literal_parser(self._fluents), len(self._fluents)
        parse = self._parse
        effects = tuple((*parse(when), *parse(then)) for when, then in cond)
        self._actions.append(Action(name, parse(pre), effects))

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
    goal: tuple[int, int]
    label: Label = Label.POSITIVE

    def __post_init__(self):
        if self.init >> self.frame.width:
            raise ModelError(f"instance {self.name!r}: init references fluents outside the frame")
        pos, neg = self.goal
        if (pos | neg) >> self.frame.width:
            raise ModelError(f"instance {self.name!r}: goal references unknown fluents")
        if pos & neg:
            raise ConflictError(
                f"instance {self.name!r}: goal assigns both polarities to fluents "
                f"{bit_ids(pos & neg)}"
            )

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
        names = set()
        for inst in self.instances:
            if inst.frame is not self.frame and inst.frame != self.frame:
                raise ModelError(f"instance {inst.name!r} uses a different frame")
            if inst.name in names:
                raise ModelError(f"two instances are named {inst.name!r}")
            names.add(inst.name)

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


def holds(bits: int, pair: tuple[int, int]) -> bool:
    """True iff the ``(pos, neg)`` mask pair ``pair`` (a precondition or a
    goal) holds in the state bitmask ``bits``."""
    pos, neg = pair
    return (bits & pos) == pos and not bits & neg


def validate_sequential_plan(problem, plan: PlanLike) -> bool:
    """True iff every action applies in sequence and the goal holds at the end.

    ``problem`` needs ``frame``/``init``/``goal``, so both classical and
    compiled instances work. Inapplicability yields ``False``, not an error.
    """
    bits = problem.init
    for entry in plan:
        action = problem.frame.actions[entry] if isinstance(entry, int) else entry
        if not holds(bits, action.pre):
            return False
        bits = successor_bits(bits, action)
    return holds(bits, problem.goal)


def bit_ids(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids
