"""Parameterized generators for the six benchmark generalized-planning tasks.

Each domain has a frame builder (sized to the largest instance in a task),
an instance function that returns the init and default goal texts of one
size, and a reference generalized program that solves every positive size.
:func:`build_task` is the one place that turns those texts into named
instances, applying any goal override. Instances of one domain at different
sizes keep the same action and per-size fluent names, so one program text
runs against all of them. Numeric quantities (Fibonacci, triangular sum)
are encoded in unary as ``val_<var>_<v>`` fluents over a bounded range, with
arithmetic spelled out through conditional effects.

Negative examples are curated goal overrides: reachable as classical goals
(the taxonomy requires negatives to be solvable) but unmet by the intended
generalized program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError
from .model import (
    ClassicalInstance,
    Frame,
    FrameBuilder,
    GeneralizedProblem,
    Label,
)
from .program import Program, parse_program


@dataclass(frozen=True)
class InstanceSpec:
    """One requested instance: size, label, optional custom goal.

    ``size`` is the domain's scale parameter (corridor length, ball count,
    list length, sequence index, tower height, summation bound).
    ``goal_override`` is a tuple of literal texts replacing the default goal.
    ``aux`` carries the one extra knob some domains have (green block
    position); defaults to the bottom of the tower.
    """

    size: int
    label: Label = Label.POSITIVE
    goal_override: tuple[str, ...] | None = None
    name: str | None = None
    aux: int | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ModelError("instance size must be >= 1")


# --------------------------------------------------------------------------
# RoboPainter: paint the odd cells of an N x 1 corridor, finish at the right.

def robopainter_frame(max_size: int) -> Frame:
    b = FrameBuilder()
    for x in range(1, max_size + 1):
        b.fluent(f"at_{x}")
    for x in range(1, max_size + 1):
        b.fluent(f"painted_{x}")
    for x in range(1, max_size + 1):
        b.fluent(f"last_{x}")
    b.fluent("at_end")
    b.action(
        "paint",
        cond=[([f"at_{x}"], [f"painted_{x}"]) for x in range(1, max_size + 1)],
    )
    # inc is a no-op at the rightmost cell: the straight plan (paint, inc,
    # inc) must stay executable on the 2 x 1 corridor.
    cond = []
    for x in range(1, max_size):
        cond.append(([f"at_{x}", f"!last_{x}"], [f"!at_{x}", f"at_{x + 1}"]))
        cond.append(([f"at_{x}", f"last_{x + 1}"], ["at_end"]))
    b.action("inc", cond=cond)
    return b.build()


def robopainter_instance(spec: InstanceSpec) -> tuple[list[str], list[str]]:
    n = spec.size
    init = ["at_1", f"last_{n}"] + (["at_end"] if n == 1 else [])
    if spec.label is Label.POSITIVE:
        default = [f"painted_{x}" for x in range(1, n + 1, 2)] + [f"at_{n}"]
    else:
        # The robot must sit where it started with its cell unpainted.
        default = ["at_1", "!painted_1"]
    return init, default


# --------------------------------------------------------------------------
# Gripper: carry every ball from room A to room B.

def gripper_frame(max_balls: int) -> Frame:
    b = FrameBuilder()
    for i in range(1, max_balls + 1):
        b.fluent(f"at_a_{i}")
    for i in range(1, max_balls + 1):
        b.fluent(f"at_b_{i}")
    for i in range(1, max_balls + 1):
        b.fluent(f"held_left_{i}")
    for i in range(1, max_balls + 1):
        b.fluent(f"held_right_{i}")
    b.fluent("robot_at_a")
    b.fluent("left_empty")
    b.fluent("right_empty")
    b.fluent("a_empty")

    def pick(hand: str) -> None:
        cond = []
        for i in range(1, max_balls + 1):
            lower_gone = [f"!at_a_{j}" for j in range(1, i)]
            cond.append(
                (
                    [f"at_a_{i}"] + lower_gone,
                    [f"!at_a_{i}", f"held_{hand}_{i}", f"!{hand}_empty"],
                )
            )
            others_gone = [f"!at_a_{j}" for j in range(1, max_balls + 1) if j != i]
            cond.append(([f"at_a_{i}"] + others_gone, ["a_empty"]))
        b.action(f"pick_{hand}", pre=["robot_at_a", f"{hand}_empty"], cond=cond)

    def drop(hand: str) -> None:
        cond = []
        for i in range(1, max_balls + 1):
            cond.append(
                (
                    [f"held_{hand}_{i}", "robot_at_a"],
                    [f"at_a_{i}", f"!held_{hand}_{i}", f"{hand}_empty", "!a_empty"],
                )
            )
            cond.append(
                (
                    [f"held_{hand}_{i}", "!robot_at_a"],
                    [f"at_b_{i}", f"!held_{hand}_{i}", f"{hand}_empty"],
                )
            )
        b.action(f"drop_{hand}", pre=[f"!{hand}_empty"], cond=cond)

    pick("left")
    drop("left")
    pick("right")
    drop("right")
    b.action("move", cond=[(["robot_at_a"], ["!robot_at_a"]), (["!robot_at_a"], ["robot_at_a"])])
    return b.build()


def gripper_instance(spec: InstanceSpec) -> tuple[list[str], list[str]]:
    n = spec.size
    init = [f"at_a_{i}" for i in range(1, n + 1)] + ["robot_at_a", "left_empty", "right_empty"]
    if spec.label is Label.POSITIVE:
        default = [f"at_b_{i}" for i in range(1, n + 1)]
    else:
        # Everything moved except the last ball, which must stay behind.
        default = [f"at_b_{i}" for i in range(1, n)] + [f"at_a_{n}"]
    return init, default


# --------------------------------------------------------------------------
# Fibonacci: leave the k-th Fibonacci number in variable A.
# Variables: A = current value, B = remaining iterations, C/D = the two
# previous values. All unary over 0..bound.

def _fib(k: int) -> int:
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def _unary_var(b: FrameBuilder, var: str, bound: int) -> None:
    for v in range(bound + 1):
        b.fluent(f"val_{var}_{v}")


def _copy_action(b: FrameBuilder, name: str, src: str, dst: str, bound: int) -> None:
    cond = []
    for i in range(bound + 1):
        for j in range(bound + 1):
            if i != j:
                cond.append(([f"val_{src}_{i}", f"val_{dst}_{j}"], [f"!val_{dst}_{j}", f"val_{dst}_{i}"]))
    b.action(name, cond=cond)


def _add_action(b: FrameBuilder, name: str, src: str, dst: str, src_bound: int, dst_bound: int) -> None:
    # Saturates silently at the bound; task builders size the bound so that
    # intended executions never reach it.
    cond = []
    for i in range(dst_bound + 1):
        for j in range(1, min(src_bound, dst_bound - i) + 1):
            cond.append(([f"val_{dst}_{i}", f"val_{src}_{j}"], [f"!val_{dst}_{i}", f"val_{dst}_{i + j}"]))
    b.action(name, cond=cond)


def _dec_action(b: FrameBuilder, name: str, var: str, bound: int, zero_flag: str) -> None:
    cond = [([f"val_{var}_{j}"], [f"!val_{var}_{j}", f"val_{var}_{j - 1}"]) for j in range(1, bound + 1)]
    cond.append(([f"val_{var}_1"], [zero_flag]))
    b.action(name, cond=cond)


def fibonacci_frame(bound: int, iter_bound: int) -> Frame:
    b = FrameBuilder()
    _unary_var(b, "a", bound)
    _unary_var(b, "b", iter_bound)
    _unary_var(b, "c", bound)
    _unary_var(b, "d", bound)
    b.fluent("zero_b")
    _copy_action(b, "copy_c_to_d", "c", "d", bound)
    _copy_action(b, "copy_a_to_c", "a", "c", bound)
    _add_action(b, "add_d_to_a", "d", "a", bound, bound)
    _dec_action(b, "dec_b", "b", iter_bound, "zero_b")
    return b.build()


def fibonacci_bounds(specs: list[InstanceSpec]) -> tuple[int, int]:
    bound = 1
    iters = 1
    for spec in specs:
        bound = max(bound, _fib(spec.size) + 1)
        iters = max(iters, spec.size - 2, 1)
        if spec.goal_override:
            bound = max(bound, *(_value_of(t) for t in spec.goal_override), 1)
    return bound, iters


def _value_of(text: str) -> int:
    tail = text.rsplit("_", 1)[-1]
    return int(tail) if tail.isdigit() else 0


def fibonacci_instance(spec: InstanceSpec) -> tuple[list[str], list[str]]:
    k = spec.size
    iters = max(k - 2, 0)
    init = [f"val_a_1", f"val_b_{iters}", "val_c_1", "val_d_0"] + (["zero_b"] if iters == 0 else [])
    if spec.label is Label.POSITIVE:
        default = [f"val_a_{_fib(k)}"]
    else:
        # Off-by-one target: reachable (A can be grown one step at a time via
        # D = C = 1) but never produced by the Fibonacci recurrence run.
        wrong = _fib(k) - 1 if k >= 3 else _fib(k) + 1
        default = [f"val_a_{wrong}"]
    return init, default


# --------------------------------------------------------------------------
# Triangular sum: accumulate 1 + 2 + ... + N into A by counting B down.

def _tri(n: int) -> int:
    return n * (n + 1) // 2


def trisum_frame(bound: int, iter_bound: int) -> Frame:
    b = FrameBuilder()
    _unary_var(b, "a", bound)
    _unary_var(b, "b", iter_bound)
    b.fluent("zero_b")
    _add_action(b, "add_b_to_a", "b", "a", iter_bound, bound)
    _dec_action(b, "dec_b", "b", iter_bound, "zero_b")
    return b.build()


def trisum_bounds(specs: list[InstanceSpec]) -> tuple[int, int]:
    bound = 1
    iters = 1
    for spec in specs:
        bound = max(bound, _tri(spec.size))
        iters = max(iters, spec.size)
        if spec.goal_override:
            bound = max(bound, *(_value_of(t) for t in spec.goal_override), 1)
    return bound, iters


def trisum_instance(spec: InstanceSpec) -> tuple[list[str], list[str]]:
    n = spec.size
    init = ["val_a_0", f"val_b_{n}"]
    if spec.label is Label.POSITIVE:
        default = [f"val_a_{_tri(n)}"]
    else:
        # One less than the true sum: reachable by skipping the final +1.
        default = [f"val_a_{_tri(n) - 1}"]
    return init, default


# --------------------------------------------------------------------------
# List: visit every node of a linked list, head to tail.

def list_frame(max_len: int) -> Frame:
    b = FrameBuilder()
    for i in range(1, max_len + 1):
        b.fluent(f"cur_{i}")
    for i in range(1, max_len + 1):
        b.fluent(f"visited_{i}")
    for i in range(1, max_len + 1):
        b.fluent(f"tail_{i}")
    b.fluent("tail_visited")
    cond = [([f"cur_{i}"], [f"visited_{i}"]) for i in range(1, max_len + 1)]
    cond += [([f"cur_{i}", f"tail_{i}"], ["tail_visited"]) for i in range(1, max_len + 1)]
    b.action("visit", cond=cond)
    b.action(
        "next",
        cond=[([f"cur_{i}", f"!tail_{i}"], [f"!cur_{i}", f"cur_{i + 1}"]) for i in range(1, max_len)],
    )
    return b.build()


def list_instance(spec: InstanceSpec) -> tuple[list[str], list[str]]:
    n = spec.size
    init = ["cur_1", f"tail_{n}"]
    if spec.label is Label.POSITIVE:
        default = [f"visited_{i}" for i in range(1, n + 1)]
    else:
        # One node must stay unvisited; the traversal program visits them all.
        default = ["!visited_1"] if n == 1 else ["visited_1", "!visited_2"]
    return init, default


# --------------------------------------------------------------------------
# Green Block: dig through a tower, discarding blocks until the single green
# one is in hand, then collect it. Block 1 is the top of the tower.

def greenblock_frame(max_height: int) -> Frame:
    b = FrameBuilder()
    for i in range(1, max_height + 1):
        b.fluent(f"top_{i}")
    for i in range(1, max_height + 1):
        b.fluent(f"holding_{i}")
    for i in range(1, max_height + 1):
        b.fluent(f"green_{i}")
    b.fluent("hold_green")
    b.fluent("hand_empty")
    b.fluent("tower_empty")
    b.fluent("collected")
    cond = []
    for i in range(1, max_height + 1):
        cond.append(([f"top_{i}"], [f"!top_{i}", f"holding_{i}", "!hand_empty"]))
        cond.append(([f"top_{i}", f"green_{i}"], ["hold_green"]))
        if i < max_height:
            cond.append(([f"top_{i}"], [f"top_{i + 1}"]))
        else:
            cond.append(([f"top_{i}"], ["tower_empty"]))
    b.action("unstack", pre=["hand_empty", "!tower_empty"], cond=cond)
    cond = [([f"holding_{i}"], [f"!holding_{i}", "hand_empty"]) for i in range(1, max_height + 1)]
    cond += [([f"holding_{i}", f"green_{i}"], ["!hold_green"]) for i in range(1, max_height + 1)]
    b.action("drop", pre=["!hand_empty"], cond=cond)
    cond = [([], ["collected", "!hold_green", "hand_empty"])]
    cond += [([f"holding_{i}"], [f"!holding_{i}"]) for i in range(1, max_height + 1)]
    b.action("collect", pre=["hold_green"], cond=cond)
    return b.build()


def greenblock_instance(spec: InstanceSpec) -> tuple[list[str], list[str]]:
    height = spec.size
    green = spec.aux if spec.aux is not None else height
    if not 1 <= green <= height:
        raise ModelError(f"green block position {green} outside tower of height {height}")
    init = ["top_1", f"green_{green}", "hand_empty"]
    if spec.label is Label.POSITIVE:
        default = ["collected"]
    else:
        non_green = next((i for i in range(1, height + 1) if i != green), None)
        if non_green is None:
            default = ["tower_empty", "!collected"]
        else:
            default = [f"holding_{non_green}"]
    return init, default


# --------------------------------------------------------------------------
# Registry and task assembly.

def _simple_frame(builder):
    return lambda specs: builder(max(spec.size for spec in specs))


_DOMAINS = {
    "robopainter": (_simple_frame(robopainter_frame), robopainter_instance),
    "gripper": (_simple_frame(gripper_frame), gripper_instance),
    "fibonacci": (lambda specs: fibonacci_frame(*fibonacci_bounds(specs)), fibonacci_instance),
    "trisum": (lambda specs: trisum_frame(*trisum_bounds(specs)), trisum_instance),
    "list": (_simple_frame(list_frame), list_instance),
    "greenblock": (_simple_frame(greenblock_frame), greenblock_instance),
}

DOMAIN_NAMES = tuple(sorted(_DOMAINS))


def build_task(domain: str, specs: list[InstanceSpec]) -> GeneralizedProblem:
    """Assemble a generalized problem: one frame sized to the largest spec,
    one labeled instance per spec."""
    if domain not in _DOMAINS:
        raise ModelError(f"unknown domain {domain!r}; expected one of {DOMAIN_NAMES}")
    if not specs:
        raise ModelError("need at least one instance spec")
    frame_fn, instance_fn = _DOMAINS[domain]
    frame = frame_fn(specs)
    instances = []
    for index, spec in enumerate(specs, 1):
        init, default = instance_fn(spec)
        # An empty override is a legal empty goal, so test for None.
        goal = spec.goal_override if spec.goal_override is not None else default
        instances.append(
            ClassicalInstance(
                frame,
                spec.name or f"{domain}-{spec.size}-{spec.label.value}-{index}",
                frame.state(init),
                frame.masks(*goal),
                spec.label,
            )
        )
    return GeneralizedProblem(frame, tuple(instances))


def generate_instance(domain: str, spec: InstanceSpec) -> ClassicalInstance:
    """A standalone instance in its own frame (sized to this spec alone)."""
    return build_task(domain, [spec]).instances[0]


_REFERENCE_TEXT = {
    # Paint every cell on the way and the terminal cell after the walk; the
    # odd cells are covered for every corridor length.
    "robopainter": """
        0. paint
        1. inc
        2. goto(0,!at_end)
        3. paint
        4. end
    """,
    "gripper": """
        0. pick_left
        1. move
        2. drop_left
        3. move
        4. goto(0,!a_empty)
        5. end
    """,
    # Valid for k >= 3; F(1) and F(2) need zero recurrence steps, which the
    # do-while shape cannot express.
    "fibonacci": """
        0. copy_c_to_d
        1. copy_a_to_c
        2. add_d_to_a
        3. dec_b
        4. goto(0,!zero_b)
        5. end
    """,
    "trisum": """
        0. add_b_to_a
        1. dec_b
        2. goto(0,!zero_b)
        3. end
    """,
    "list": """
        0. visit
        1. next
        2. goto(0,!tail_visited)
        3. end
    """,
    "greenblock": """
        0. unstack
        1. goto(4,!hold_green)
        2. collect
        3. end
        4. drop
        5. goto(0,!hold_green)
        6. end
    """,
}


def reference_program(domain: str) -> Program:
    """The intended generalizing program for a domain (used as an oracle)."""
    try:
        return parse_program(_REFERENCE_TEXT[domain])
    except KeyError:
        raise ModelError(f"no reference program for domain {domain!r}") from None
