import random

import pytest

from gpsyn import evaluation, interpreter
from gpsyn.errors import ExecutionResourceError
from gpsyn.evaluation import evaluate_test_set
from gpsyn.interpreter import (
    ExecutionOutcome,
    FailureKind,
    ProgramState,
    bind_program,
    execute,
    validate_program,
)
from gpsyn.model import ClassicalInstance, FrameBuilder, Label
from gpsyn.program import parse_program
from gpsyn.model import validate_sequential_plan
from helpers import (
    END,
    random_frame,
    random_generalized_problem,
    random_goal,
    random_program,
    random_state,
    reference_run,
    reference_step,
)

from gpsyn.domains import InstanceSpec, build_task


@pytest.fixture(scope="module")
def pick_frame():
    # pick requires a free hand: a genuinely inapplicable second pick.
    b = FrameBuilder()
    b.fluent("have")
    b.fluent("free")
    b.action("pick", pre=["free"], cond=[([], ["have", "!free"])])
    return b.build()


# Jumps back to itself while at_end is false, else falls through to end.
SELF_LOOP = "0. goto(0,!at_end)\n1. end\n"


class TestStep:
    """Single steps of the reference stepper, traced by hand, each next to
    the ``execute`` outcome that shows the same step."""

    def test_end_terminates(self, corridor_task, straight_program):
        ps = ProgramState(corridor_task.instances[0].init, 3)
        assert reference_step(straight_program, corridor_task.frame, ps) is END
        out = execute(straight_program, corridor_task.instances[0])
        assert out == ExecutionOutcome(solved=True, steps=3)

    def test_goto_jumps_when_fluent_false(self, corridor_task, loop_after_body_program):
        inst = corridor_task.instances[1]  # 6x1: at_end false
        ps = ProgramState(inst.init, 3)
        out = reference_step(loop_after_body_program, corridor_task.frame, ps)
        assert out == ProgramState(inst.init, 0)
        out = execute(parse_program(SELF_LOOP), inst)
        assert out.failure is FailureKind.INFINITE_LOOP
        assert (out.steps, out.repeat_state) == (1, ProgramState(inst.init, 0))

    def test_goto_falls_through_when_fluent_true(self, corridor_task, loop_after_body_program):
        inst = corridor_task.instances[2]  # 1x1: at_end true
        ps = ProgramState(inst.init, 3)
        out = reference_step(loop_after_body_program, corridor_task.frame, ps)
        assert out == ProgramState(inst.init, 4)
        out = execute(parse_program(SELF_LOOP), inst)
        assert out == ExecutionOutcome(solved=True, steps=1)

    def test_act_advances_counter(self, corridor_task, straight_program):
        inst = corridor_task.instances[0]
        out = reference_step(straight_program, corridor_task.frame, ProgramState(inst.init, 0))
        assert out.pc == 1
        assert out.bits >> corridor_task.frame.fluent_id("painted_1") & 1
        # Had paint not set painted_1, line 1 would loop on itself.
        prog = parse_program("0. paint\n1. goto(1,!painted_1)\n2. end\n")
        assert execute(prog, inst) == ExecutionOutcome(False, 2, FailureKind.INCOMPLETE)

    def test_inapplicable_action_reports_line_and_name(self, pick_frame):
        prog = parse_program("0. pick\n1. pick\n2. end\n")
        inst = ClassicalInstance(
            pick_frame, "p", pick_frame.state(["free"]), pick_frame.masks("have")
        )
        first = reference_step(prog, pick_frame, ProgramState(inst.init, 0))
        assert reference_step(prog, pick_frame, first) == (1, "pick")
        assert execute(prog, inst) == reference_run(prog, inst)


class TestExecute:
    def test_corridor_2x1_solved(self, corridor_task, straight_program):
        out = execute(straight_program, corridor_task.instances[0])
        assert out.solved and out.steps == 3

    def test_corridor_6x1_incomplete(self, corridor_task, straight_program):
        out = execute(straight_program, corridor_task.instances[1])
        assert not out.solved and out.failure is FailureKind.INCOMPLETE

    def test_loop_from_start_covers_negative(self, corridor_task, loop_from_start_program):
        out = execute(loop_from_start_program, corridor_task.instances[2])
        assert out.solved  # the negative is covered: validation must fail
        assert not validate_program(loop_from_start_program, corridor_task).passed

    def test_inapplicable_outcome(self, pick_frame):
        prog = parse_program("0. pick\n1. pick\n2. end\n")
        inst = ClassicalInstance(
            pick_frame, "p", pick_frame.state(["free"]), pick_frame.masks("have")
        )
        out = execute(prog, inst)
        assert out.failure is FailureKind.INAPPLICABLE
        assert (out.line, out.action) == (1, "pick")

    def test_self_jump_is_one_cycle_loop(self):
        b = FrameBuilder()
        b.fluent("f")
        b.action("noop", cond=[(["f"], ["f"])])
        frame = b.build()
        prog = parse_program("0. goto(0,!f)\n1. end\n")
        inst = ClassicalInstance(frame, "i", frame.state([]), frame.masks("f"))
        out = execute(prog, inst)
        assert out.failure is FailureKind.INFINITE_LOOP
        assert out.repeat_state == ProgramState(inst.init, 0)

    def test_loop_replay_reproduces_repeat_state(self, corridor_task):
        prog = parse_program("0. goto(0,!painted_2)\n1. end\n")
        out = execute(prog, corridor_task.instances[1])
        assert out.failure is FailureKind.INFINITE_LOOP
        ps = out.repeat_state
        frame = corridor_task.frame
        for _ in range(out.steps + 1):
            ps = reference_step(prog, frame, ps)
            if ps == out.repeat_state:
                break
        assert ps == out.repeat_state

    def test_determinism(self, corridor_task, loop_after_body_program):
        a = execute(loop_after_body_program, corridor_task.instances[1])
        b = execute(loop_after_body_program, corridor_task.instances[1])
        assert a == b

    def test_memory_cap_raises_resource_error(self):
        task = build_task("trisum", [InstanceSpec(4)])
        prog = parse_program("0. add_b_to_a\n1. dec_b\n2. goto(0,!zero_b)\n3. end\n")
        with pytest.raises(ExecutionResourceError):
            execute(prog, task.instances[0], state_cap=3)

    def test_termination_on_random_programs(self):
        rng = random.Random(23)
        for _ in range(150):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            prog = random_program(rng, frame, rng.randint(1, 4))
            inst = ClassicalInstance(
                frame, "r", random_state(rng, frame), frame.masks(frame.fluents[0])
            )
            out = execute(prog, inst)  # must return, never hang
            assert out.solved or out.failure is not None

    def test_reference_stepper_agrees_with_execute(self):
        # Differential: the reference stepper (program lines, model.successor_bits,
        # no bound ops) must reproduce every field of execute's outcome.
        rng = random.Random(41)
        kinds = set()
        for _ in range(300):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            prog = random_program(rng, frame, rng.randint(1, 4))
            inst = ClassicalInstance(
                frame, "r", random_state(rng, frame), random_goal(rng, frame)
            )
            out = execute(prog, inst)
            assert out == reference_run(prog, inst)
            kinds.add(out.failure)
        assert kinds == {None, *FailureKind}

    def test_program_bound_once_agrees_with_reference(self):
        # validate_program and evaluate_test_set bind the program once and run
        # every instance on those ops; each outcome must still be the
        # reference stepper's.
        rng = random.Random(24)
        kinds = set()
        for _ in range(150):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            prog = random_program(rng, frame, rng.randint(1, 4))
            problem = random_generalized_problem(rng, frame, rng.randint(1, 4))
            expected = tuple(reference_run(prog, inst) for inst in problem.instances)
            assert validate_program(prog, problem).outcomes == expected
            records = evaluate_test_set(prog, problem).records
            assert tuple(rec.outcome for rec in records) == expected
            kinds.update(out.failure for out in expected)
        assert kinds == {None, *FailureKind}

    def test_program_is_bound_once_per_call(self, corridor_task, straight_program, monkeypatch):
        frames = []

        def counting_bind(program, frame):
            frames.append(frame)
            return bind_program(program, frame)

        monkeypatch.setattr(interpreter, "bind_program", counting_bind)
        monkeypatch.setattr(evaluation, "bind_program", counting_bind)
        validate_program(straight_program, corridor_task)
        evaluate_test_set(straight_program, corridor_task)
        assert corridor_task.t_total > 1
        assert frames == [corridor_task.frame] * 2

    def test_straight_line_agrees_with_sequential_plan_oracle(self):
        rng = random.Random(5)
        for _ in range(120):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            names = [rng.choice(frame.actions).name for _ in range(rng.randint(0, 5))]
            prog = parse_program(
                "".join(f"{i}. {n}\n" for i, n in enumerate(names))
                + f"{len(names)}. end\n"
            )
            inst = ClassicalInstance(
                frame, "r", random_state(rng, frame),
                frame.masks(frame.fluents[0]),
            )
            out = execute(prog, inst)
            plan = [frame.action(n) for n in names]
            assert out.solved == validate_sequential_plan(inst, plan)


class TestValidateProgram:
    def test_corridor_walkthrough(self, corridor_task, straight_program,
                                   loop_from_start_program, loop_after_body_program):
        assert not validate_program(straight_program, corridor_task).passed
        assert not validate_program(loop_from_start_program, corridor_task).passed
        assert validate_program(loop_after_body_program, corridor_task).passed

    def test_end_only_program_fails_unmet_positive(self, corridor_task):
        prog = parse_program("0. end\n")
        report = validate_program(prog, corridor_task)
        assert not report.passed
        assert report.outcomes[0].failure is FailureKind.INCOMPLETE

    def test_pass_needs_negatives_to_fail(self, corridor_task, loop_after_body_program):
        report = validate_program(loop_after_body_program, corridor_task)
        assert report.passed
        assert [o.solved for o in report.outcomes] == [True, True, False]

    def test_all_negative_set_passes_with_failing_program(self):
        task = build_task("trisum", [InstanceSpec(2, Label.NEGATIVE)])
        assert validate_program(parse_program("0. end\n"), task).passed
