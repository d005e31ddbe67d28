"""Planning programs: indexed instruction sequences and their text format.

Instructions reference actions and fluents by name, so one program runs
unchanged against every frame that defines those names (e.g. corridor
instances of different lengths).

Text format, one instruction per line, ``#`` comments allowed::

    0. paint
    1. goto(0,!at_end)
    2. end

A ``goto(i,!f)`` jumps to line ``i`` when fluent ``f`` is false and falls
through to the next line when it is true.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import ModelError, ParseError
from .model import NAME


@dataclass(frozen=True)
class ActInstruction:
    action: str


@dataclass(frozen=True)
class GotoInstruction:
    target: int
    fluent: str


@dataclass(frozen=True)
class EndInstruction:
    pass


Instruction = Union[ActInstruction, GotoInstruction, EndInstruction]

END = EndInstruction()


@dataclass(frozen=True)
class Program:
    """Instruction sequence ``w_0 .. w_n``; the last line is always ``end``.

    A non-end final line would fall through to an undefined line ``n+1``, so
    the constructor rejects it, as it rejects goto targets outside ``[0, n]``.
    """

    lines: tuple[Instruction, ...]

    def __post_init__(self):
        if not self.lines:
            raise ModelError("program must have at least one line")
        if not isinstance(self.lines[-1], EndInstruction):
            raise ModelError("last program line must be an end instruction")
        n = len(self.lines) - 1
        for i, ins in enumerate(self.lines):
            if isinstance(ins, GotoInstruction) and not 0 <= ins.target <= n:
                raise ModelError(
                    f"line {i}: goto target {ins.target} outside [0, {n}]"
                )

    @property
    def n(self) -> int:
        """Highest line index (programs have ``n + 1`` lines)."""
        return len(self.lines) - 1

    def check_against(self, frame) -> None:
        """Raise :class:`ModelError` if any referenced name is not in ``frame``."""
        for i, ins in enumerate(self.lines):
            if isinstance(ins, ActInstruction) and not frame.has_action(ins.action):
                raise ModelError(f"line {i}: unknown action {ins.action!r}")
            if isinstance(ins, GotoInstruction) and not frame.has_fluent(ins.fluent):
                raise ModelError(f"line {i}: unknown fluent {ins.fluent!r}")


def instruction_text(ins: Instruction) -> str:
    if isinstance(ins, ActInstruction):
        return ins.action
    if isinstance(ins, GotoInstruction):
        return f"goto({ins.target},!{ins.fluent})"
    return "end"


def instruction_slug(ins: Instruction) -> str:
    """Identifier-safe token used in compiled fluent/action names."""
    if isinstance(ins, ActInstruction):
        return ins.action
    if isinstance(ins, GotoInstruction):
        return f"goto_{ins.target}_{ins.fluent}"
    return "end"


def format_program(program: Program) -> str:
    return "\n".join(f"{i}. {instruction_text(ins)}" for i, ins in enumerate(program.lines)) + "\n"


_GOTO_RE = re.compile(rf"^goto\(\s*(\d+)\s*,\s*!\s*({NAME.pattern})\s*\)$")
_LINE_RE = re.compile(r"^(\d+)\.\s*(.+)$")


def parse_program(text: str) -> Program:
    """Parse the program text format; inverse of :func:`format_program`."""
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ParseError(f"line {lineno}: expected '<idx>. <instruction>', got {raw!r}")
        entries.append((int(m.group(1)), m.group(2).strip()))
    if not entries:
        raise ParseError("empty program")
    indices = [idx for idx, _ in entries]
    if indices != list(range(len(entries))):
        raise ParseError(f"program line indices must be 0..{len(entries) - 1}, got {indices}")
    n = len(entries) - 1
    lines: list[Instruction] = []
    for idx, body in entries:
        if body == "end":
            lines.append(END)
            continue
        m = _GOTO_RE.match(body)
        if m:
            target = int(m.group(1))
            if target > n:
                raise ParseError(f"line {idx}: goto target {target} beyond last line {n}")
            lines.append(GotoInstruction(target, m.group(2)))
            continue
        if body.startswith("goto("):
            raise ParseError(f"line {idx}: malformed goto {body!r}")
        if not NAME.fullmatch(body):
            raise ParseError(f"line {idx}: malformed instruction {body!r}")
        lines.append(ActInstruction(body))
    try:
        return Program(tuple(lines))
    except ModelError as exc:
        raise ParseError(str(exc)) from None
