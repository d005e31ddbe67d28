import random

import pytest

from gpsyn.errors import ModelError, ParseError
from gpsyn.program import (
    ActInstruction,
    EndInstruction,
    GotoInstruction,
    Program,
    format_program,
    parse_program,
)
from helpers import random_frame, random_program


def test_parse_basic():
    prog = parse_program("0. paint\n1. goto(0,!at_end)\n2. end\n")
    assert prog.lines == (
        ActInstruction("paint"),
        GotoInstruction(0, "at_end"),
        EndInstruction(),
    )
    assert prog.n == 2


def test_comments_and_blank_lines():
    prog = parse_program("# header\n\n0. paint  # paints\n1. end\n")
    assert prog.lines == (ActInstruction("paint"), EndInstruction())


def test_roundtrip_is_identity():
    rng = random.Random(3)
    for _ in range(50):
        frame = random_frame(rng, 3, 2)
        prog = random_program(rng, frame, rng.randint(1, 4))
        assert parse_program(format_program(prog)) == prog


def test_roundtrip_keeps_every_name():
    # '-' is a name character, and an action may be named like goto_room
    prog = Program(
        (ActInstruction("add-b-to-a"), ActInstruction("goto_room"),
         GotoInstruction(0, "val-a-10"), EndInstruction())
    )
    text = format_program(prog)
    assert text == "0. add-b-to-a\n1. goto_room\n2. goto(0,!val-a-10)\n3. end\n"
    assert parse_program(text) == prog


@pytest.mark.parametrize("body", ["a.b", "goto(0,!a.b)", "a(b)", "goto(0,!)"])
def test_rejects_names_outside_the_name_pattern(body):
    with pytest.raises(ParseError):
        parse_program(f"0. {body}\n1. end\n")


def test_rejects_noncontiguous_indices():
    with pytest.raises(ParseError):
        parse_program("0. paint\n2. end\n")


def test_rejects_goto_target_beyond_last_line():
    with pytest.raises(ParseError):
        parse_program("0. goto(5,!f)\n1. end\n")


def test_rejects_missing_final_end():
    with pytest.raises(ParseError):
        parse_program("0. paint\n1. inc\n")


def test_rejects_malformed_goto():
    with pytest.raises(ParseError):
        parse_program("0. goto(1,f)\n1. end\n")


def test_rejects_empty():
    with pytest.raises(ParseError):
        parse_program("# only a comment\n")


def test_constructor_enforces_end_last():
    with pytest.raises(ModelError):
        Program((ActInstruction("paint"),))


def test_constructor_enforces_goto_range():
    with pytest.raises(ModelError):
        Program((GotoInstruction(3, "f"), EndInstruction()))


def test_mid_program_end_allowed():
    prog = parse_program("0. end\n1. paint\n2. end\n")
    assert isinstance(prog.lines[0], EndInstruction)
