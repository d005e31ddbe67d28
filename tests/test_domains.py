import pytest

from gpsyn.domains import (
    DOMAIN_NAMES,
    InstanceSpec,
    build_task,
    generate_instance,
    reference_program,
)
from gpsyn.errors import ModelError
from gpsyn.interpreter import execute
from gpsyn.model import Label, holds
from gpsyn.planner import BFS_CONFIG, solve
from gpsyn.program import parse_program


def brute_fib(k):
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def min_size(domain):
    # The Fibonacci do-while program needs at least one recurrence step.
    return 3 if domain == "fibonacci" else 1


class TestRoboPainter:
    def test_size2_positive_matches_upper_corridor(self):
        inst = generate_instance("robopainter", InstanceSpec(2))
        frame = inst.frame
        assert inst.init >> frame.fluent_id("at_1") & 1
        assert inst.goal == frame.masks("painted_1", "at_2")

    def test_size6_goal_paints_odd_cells(self):
        inst = generate_instance("robopainter", InstanceSpec(6))
        assert inst.goal == inst.frame.masks(
            "painted_1", "painted_3", "painted_5", "at_6"
        )

    def test_size1_negative_stays_unpainted_at_start(self):
        inst = generate_instance("robopainter", InstanceSpec(1, Label.NEGATIVE))
        assert inst.goal == inst.frame.masks("at_1", "!painted_1")
        # the goal holds initially, so it is trivially reachable
        assert holds(inst.init, inst.goal)

    def test_straight_plan_applicable_on_2x1(self):
        # inc at the boundary is a no-op, not a failure: (paint, inc, inc)
        # must execute to completion on the 2x1 corridor.
        from gpsyn.model import validate_sequential_plan

        inst = generate_instance("robopainter", InstanceSpec(2))
        plan = [inst.frame.action(n) for n in ("paint", "inc", "inc")]
        assert validate_sequential_plan(inst, plan)


class TestGripper:
    def test_one_ball_solved_by_pick_move_drop(self):
        from gpsyn.model import validate_sequential_plan

        inst = generate_instance("gripper", InstanceSpec(1))
        plan = [inst.frame.action(n) for n in ("pick_left", "move", "drop_left")]
        assert validate_sequential_plan(inst, plan)

    def test_three_balls_reference_program(self):
        inst = generate_instance("gripper", InstanceSpec(3))
        assert execute(reference_program("gripper"), inst).solved

    def test_pick_with_full_hand_is_inapplicable(self):
        from gpsyn.model import successor_bits

        inst = generate_instance("gripper", InstanceSpec(2))
        pick = inst.frame.action("pick_left")
        assert holds(inst.init, pick.pre)
        held = successor_bits(inst.init, pick)
        assert not holds(held, pick.pre)


class TestNumericDomains:
    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_fibonacci_goal_from_brute_force(self, k):
        inst = generate_instance("fibonacci", InstanceSpec(k))
        assert inst.goal == inst.frame.masks(f"val_a_{brute_fib(k)}")

    def test_fibonacci_negative_goal_off_by_one(self):
        inst = generate_instance("fibonacci", InstanceSpec(5, Label.NEGATIVE))
        assert inst.goal == inst.frame.masks("val_a_4")

    @pytest.mark.parametrize("n,total", [(1, 1), (4, 10), (6, 21)])
    def test_trisum_goal_is_triangular_number(self, n, total):
        inst = generate_instance("trisum", InstanceSpec(n))
        assert inst.goal == inst.frame.masks(f"val_a_{total}")

    def test_trisum_negative_one_short(self):
        inst = generate_instance("trisum", InstanceSpec(4, Label.NEGATIVE))
        assert inst.goal == inst.frame.masks("val_a_9")


class TestList:
    def test_length1_visits_head_only(self):
        inst = generate_instance("list", InstanceSpec(1))
        assert inst.goal == inst.frame.masks("visited_1")
        assert execute(reference_program("list"), inst).solved

    def test_length5_traversal_shape(self):
        inst = generate_instance("list", InstanceSpec(5))
        assert execute(reference_program("list"), inst).solved

    def test_negative_interior_node_unvisited(self):
        inst = generate_instance("list", InstanceSpec(4, Label.NEGATIVE))
        assert inst.goal == inst.frame.masks("visited_1", "!visited_2")


class TestGreenBlock:
    def test_height1_collect_immediately(self):
        inst = generate_instance("greenblock", InstanceSpec(1))
        assert execute(reference_program("greenblock"), inst).solved

    def test_height4_green_at_bottom(self):
        inst = generate_instance("greenblock", InstanceSpec(4, aux=4))
        out = execute(reference_program("greenblock"), inst)
        assert out.solved

    def test_negative_holds_non_green_block(self):
        inst = generate_instance("greenblock", InstanceSpec(3, Label.NEGATIVE, aux=3))
        assert inst.goal == inst.frame.masks("holding_1")

    def test_green_position_validated(self):
        with pytest.raises(ModelError):
            generate_instance("greenblock", InstanceSpec(2, aux=5))


class TestCrossDomainInvariants:
    @pytest.mark.parametrize("domain", DOMAIN_NAMES)
    def test_default_positives_bfs_solvable(self, domain):
        for size in range(min_size(domain), min_size(domain) + 3):
            inst = generate_instance(domain, InstanceSpec(size))
            assert solve(inst, BFS_CONFIG).solved, (domain, size)

    @pytest.mark.parametrize("domain", DOMAIN_NAMES)
    def test_negatives_reachable_but_failed_by_reference_program(self, domain):
        program = reference_program(domain)
        for size in range(min_size(domain), min_size(domain) + 3):
            inst = generate_instance(domain, InstanceSpec(size, Label.NEGATIVE))
            assert solve(inst, BFS_CONFIG).solved, (domain, size)
            assert not execute(program, inst).solved, (domain, size)

    @pytest.mark.parametrize("domain", DOMAIN_NAMES)
    def test_reference_program_solves_positives(self, domain):
        program = reference_program(domain)
        for size in range(min_size(domain), 11):
            inst = generate_instance(domain, InstanceSpec(size))
            assert execute(program, inst).solved, (domain, size)

    @pytest.mark.parametrize("domain", DOMAIN_NAMES)
    def test_one_program_text_runs_across_sizes(self, domain):
        # same action names and per-size fluent families at every size
        program = reference_program(domain)
        small = generate_instance(domain, InstanceSpec(min_size(domain)))
        big = generate_instance(domain, InstanceSpec(9))
        program.check_against(small.frame)
        program.check_against(big.frame)

    def test_shared_frame_in_task(self):
        task = build_task("robopainter", [InstanceSpec(2), InstanceSpec(6)])
        assert task.instances[0].frame is task.instances[1].frame

    def test_goal_override(self):
        inst = generate_instance(
            "robopainter", InstanceSpec(2, Label.NEGATIVE, goal_override=("painted_2",))
        )
        assert inst.goal == inst.frame.masks("painted_2")
        with pytest.raises(ModelError):
            generate_instance(
                "robopainter", InstanceSpec(2, goal_override=("no_such_fluent",))
            )

    def test_empty_goal_override_is_an_empty_goal(self):
        inst = generate_instance("robopainter", InstanceSpec(2, goal_override=()))
        assert inst.goal == (0, 0)
        assert execute(parse_program("0. end\n"), inst).solved

    def test_instance_names(self):
        task = build_task(
            "gripper",
            [InstanceSpec(3), InstanceSpec(2, Label.NEGATIVE), InstanceSpec(1, name="one")],
        )
        names = [inst.name for inst in task.instances]
        assert names == ["gripper-3-positive-1", "gripper-2-negative-2", "one"]

    def test_unknown_domain_rejected(self):
        with pytest.raises(ModelError):
            build_task("towers_of_hanoi", [InstanceSpec(1)])

    def test_size_must_be_positive(self):
        with pytest.raises(ModelError):
            InstanceSpec(0)
