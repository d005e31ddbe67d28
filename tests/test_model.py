import dataclasses
import random

import pytest

from gpsyn.errors import ConflictError, ModelError
from gpsyn.model import (
    Action,
    ClassicalInstance,
    Frame,
    FrameBuilder,
    GeneralizedProblem,
    Label,
    bit_ids,
    holds,
    successor_bits,
    triggered_masks,
    validate_sequential_plan,
)
from helpers import random_frame, random_state

from gpsyn.domains import InstanceSpec, build_task, robopainter_frame


@pytest.fixture(scope="module")
def rp6():
    return robopainter_frame(6)


class TestMaskPairs:
    def test_action_rejects_clashing_precondition(self):
        with pytest.raises(ConflictError, match=r"fluents \[0\]"):
            Action("a", (0b01, 0b01), ())
        b = FrameBuilder()
        b.fluent("x"), b.fluent("y")
        with pytest.raises(ConflictError):
            b.action("a", pre=["y", "!y"], cond=[([], ["x"])])

    def test_instance_rejects_clashing_goal(self):
        frame = Frame(("x", "y"), ())
        with pytest.raises(ConflictError, match=r"goal .* fluents \[1\]"):
            ClassicalInstance(frame, "bad", 0, frame.masks("y", "!y"))

    def test_masks_inverts_texts(self):
        rng = random.Random(3)
        for _ in range(50):
            frame = random_frame(rng, rng.randint(1, 8), rng.randint(1, 3))
            pos = random_state(rng, frame)
            neg = random_state(rng, frame) & ~pos
            assert frame.masks(*frame.texts(pos, neg)) == (pos, neg)


class TestApplicability:
    def test_precondition_subset_of_state(self):
        b = FrameBuilder()
        b.fluent("at_0")
        b.action("inc", pre=["at_0"], cond=[([], ["!at_0"])])
        frame = b.build()
        pre = frame.action("inc").pre
        assert holds(frame.state(["at_0"]), pre)
        assert not holds(frame.state([]), pre)

    def test_empty_precondition_always_applicable(self, rp6):
        paint = rp6.action("paint")
        rng = random.Random(0)
        for _ in range(20):
            assert holds(random_state(rng, rp6), paint.pre)


class TestTriggeredEffects:
    def test_unconditional_effect(self):
        b = FrameBuilder()
        b.fluent("painted_0")
        b.action("paint", cond=[([], ["painted_0"])])
        frame = b.build()
        assert triggered_masks(frame.state([]), frame.action("paint")) == frame.masks("painted_0")

    def test_only_matching_condition_fires(self):
        b = FrameBuilder()
        b.fluent("at_0"), b.fluent("at_1")
        b.fluent("painted_0"), b.fluent("painted_1")
        b.action("paint", cond=[(["at_0"], ["painted_0"]), (["at_1"], ["painted_1"])])
        frame = b.build()
        eff = triggered_masks(frame.state(["at_0"]), frame.action("paint"))
        assert eff == frame.masks("painted_0")

    def test_conflicting_triggered_effects_raise(self):
        b = FrameBuilder()
        b.fluent("a"), b.fluent("b")
        b.action("bad", cond=[(["a"], ["b"]), ([], ["!b"])])
        frame = b.build()
        with pytest.raises(ConflictError):
            triggered_masks(frame.state(["a"]), frame.action("bad"))
        # consistent when only one branch fires
        assert triggered_masks(frame.state([]), frame.action("bad")) == frame.masks("!b")

    def test_compiled_compare_sets_correct_flag(self, corridor_task, loop_after_body_program):
        # One compare step traced by hand: a fluent true in both the current
        # state and the stored copy must come out marked correct.
        from gpsyn.compiler import compile_validation

        compiled = compile_validation(corridor_task, loop_after_body_program)
        compare_idx = next(
            i for i, r in enumerate(compiled.roles) if r.kind == "compare"
        )
        compare = compiled.frame.actions[compare_idx]
        f = compiled.frame.fluent_id("at_1")
        bits = compiled.init
        bits |= 1 << compiled.frame.fluent_id("copy_at_1")
        bits |= 1 << compiled.frame.fluent_id("stored")
        bits |= 1 << compiled.frame.fluent_id("jumped")
        assert bits >> f & 1
        pos, _ = triggered_masks(bits, compare)
        assert pos >> compiled.frame.fluent_id("correct_at_1") & 1

    def test_agrees_with_flat_scan_on_wide_random_actions(self):
        # The trigger index against a flat scan of every branch, on actions
        # with empty and negative-only conditions, shared triggers and, in
        # half of them, effects that can clash.
        def flat_scan(bits, action):
            pos = neg = 0
            for cpos, cneg, epos, eneg in action.cond:
                if bits & cpos == cpos and not bits & cneg:
                    pos |= epos
                    neg |= eneg
            both = pos & neg
            clash = [f for f in range(both.bit_length()) if both >> f & 1]
            if clash:
                raise ConflictError(
                    f"action {action.name!r} triggers conflicting effects on fluents {clash}"
                )
            return pos, neg

        def literals(fluents, polarity):
            pos = neg = 0
            for f in fluents:
                if polarity(f):
                    pos |= 1 << f
                else:
                    neg |= 1 << f
            return pos, neg

        rng = random.Random(2024)
        outcomes = {"clash": 0, "no clash": 0}
        shared = always = 0
        for a in range(60):
            width = rng.randint(8, 12)
            fixed = {f: rng.random() < 0.5 for f in range(width)}
            may_clash = a % 2 == 0
            cond = []
            for _ in range(rng.randint(20, 80)):
                cpos, cneg = literals(
                    rng.sample(range(width), rng.randint(0, 3)), lambda f: rng.random() < 0.6
                )
                epos, eneg = literals(
                    rng.sample(range(width), rng.randint(1, 2)),
                    (lambda f: rng.random() < 0.5) if may_clash else fixed.__getitem__,
                )
                cond.append((cpos, cneg, epos, eneg))
            action = Action(f"wide_{a}", (0, 0), tuple(cond))
            lows = [c[0] & -c[0] for c in cond if c[0]]
            shared += len(lows) - len(set(lows))
            always += len(cond) - len(lows)
            for _ in range(40):
                bits = rng.getrandbits(width)
                try:
                    expected = flat_scan(bits, action)
                except ConflictError as exc:
                    with pytest.raises(ConflictError) as got:
                        triggered_masks(bits, action)
                    assert str(got.value) == str(exc)
                    outcomes["clash"] += 1
                else:
                    assert triggered_masks(bits, action) == expected
                    outcomes["no clash"] += 1
        assert shared and always
        assert all(outcomes.values()), outcomes


class TestBitIds:
    def test_matches_bit_by_bit_scan(self):
        rng = random.Random(5)
        masks = [0, 1, 1 << 999]
        masks += [sum(1 << b for b in rng.sample(range(1000), rng.randint(1, 12))) for _ in range(50)]
        masks += [rng.getrandbits(rng.randint(1, 1000)) for _ in range(50)]
        for m in masks:
            assert bit_ids(m) == [i for i in range(m.bit_length()) if m >> i & 1]


class TestSuccessor:
    def test_no_triggered_effects_is_identity(self):
        b = FrameBuilder()
        b.fluent("a"), b.fluent("b")
        b.action("noop_unless_a", cond=[(["a"], ["b"])])
        frame = b.build()
        s = frame.state([])
        assert successor_bits(s, frame.action("noop_unless_a")) == s

    def test_robopainter_inc_moves_right(self, rp6):
        s = rp6.state(["at_1", "last_6"])
        inc = rp6.action("inc")
        assert holds(s, inc.pre)
        s2 = successor_bits(s, inc)
        assert s2 >> rp6.fluent_id("at_2") & 1
        assert not s2 >> rp6.fluent_id("at_1") & 1

    def test_paint_idempotent(self, rp6):
        s = rp6.state(["at_1", "last_2"])
        paint = rp6.action("paint")
        assert holds(s, paint.pre)
        once = successor_bits(s, paint)
        assert successor_bits(once, paint) == once

    def test_totality_and_frame_preservation(self):
        rng = random.Random(7)
        for _ in range(50):
            frame = random_frame(rng, rng.randint(2, 6), rng.randint(1, 3))
            s = random_state(rng, frame)
            for action in frame.actions:
                if not holds(s, action.pre):
                    continue
                pos, neg = triggered_masks(s, action)
                s2 = successor_bits(s, action)
                assert s2 >> frame.width == 0
                untouched = ~(pos | neg)
                assert s & untouched == s2 & untouched


class TestValidateSequentialPlan:
    def test_empty_plan_when_goal_holds_initially(self):
        inst = build_task("trisum", [InstanceSpec(1, Label.POSITIVE, goal_override=("val_a_0",))]).instances[0]
        assert validate_sequential_plan(inst, [])

    def test_corridor_2x1_straight_plan(self, corridor_task):
        frame = corridor_task.frame
        plan = [frame.action("paint"), frame.action("inc"), frame.action("inc")]
        assert validate_sequential_plan(corridor_task.instances[0], plan)

    def test_corridor_6x1_straight_plan_fails(self, corridor_task):
        frame = corridor_task.frame
        plan = [frame.action("paint"), frame.action("inc"), frame.action("inc")]
        assert not validate_sequential_plan(corridor_task.instances[1], plan)

    def test_agrees_with_naive_reference(self):
        # Second implementation: dict-based states, straight from the
        # successor formula, as an independent oracle on random plans.
        def naive_run(inst, plan):
            frame = inst.frame
            state = {name: bool(inst.init >> f & 1) for f, name in enumerate(frame.fluents)}

            def all_hold(texts):
                return all(state[t.lstrip("!")] == (t[0] != "!") for t in texts)

            for action in plan:
                if not all_hold(frame.texts(*action.pre)):
                    return False
                new = dict(state)
                for cpos, cneg, epos, eneg in action.cond:
                    if all_hold(frame.texts(cpos, cneg)):
                        for t in frame.texts(epos, eneg):
                            new[t.lstrip("!")] = t[0] != "!"
                state = new
            return all_hold(frame.texts(*inst.goal))

        rng = random.Random(11)
        for _ in range(100):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            init = random_state(rng, frame)
            bit, positive = 1 << rng.randrange(frame.width), rng.random() < 0.5
            goal = (bit, 0) if positive else (0, bit)
            inst = ClassicalInstance(frame, "t", init, goal)
            plan = [rng.choice(frame.actions) for _ in range(rng.randint(0, 6))]
            try:
                expected = naive_run(inst, plan)
            except ConflictError:
                continue
            assert validate_sequential_plan(inst, plan) == expected


class TestContainers:
    def test_frame_rejects_duplicate_fluents(self):
        b = FrameBuilder()
        b.fluent("x"), b.fluent("x")
        with pytest.raises(ModelError, match="duplicate fluent name 'x'"):
            b.build()

    def test_unknown_fluent_text_is_model_error(self):
        b = FrameBuilder()
        b.fluent("x")
        with pytest.raises(ModelError, match="unknown fluent 'y'"):
            b.action("a", pre=["x"], cond=[(["!y"], ["x"])])
        b.action("a", cond=[([], ["!x"])])
        with pytest.raises(ModelError, match="unknown fluent 'y'"):
            b.build().masks("x", "y")

    def test_frame_rejects_repeated_fluent_names(self):
        frame = build_task("trisum", [InstanceSpec(1)]).frame
        with pytest.raises(ModelError):
            dataclasses.replace(frame, fluents=frame.fluents + frame.fluents[:1])

    def test_empty_effect_set_is_model_error(self):
        b = FrameBuilder()
        b.fluent("x")
        with pytest.raises(ModelError, match="empty effect set"):
            b.action("a", cond=[(["x"], [])])

    def test_effect_with_both_polarities_is_conflict(self):
        b = FrameBuilder()
        b.fluent("x"), b.fluent("y")
        with pytest.raises(ConflictError):
            b.action("a", cond=[(["x", "!x"], ["y"])])
        with pytest.raises(ConflictError):
            b.action("a", cond=[([], ["y", "!y"])])

    def test_action_checks_its_effect_masks(self):
        with pytest.raises(ModelError, match="empty effect set"):
            Action("a", (0, 0), ((0b1, 0, 0, 0),))
        with pytest.raises(ConflictError):
            Action("a", (0, 0), ((0b1, 0b1, 0b10, 0),))
        with pytest.raises(ConflictError):
            Action("a", (0, 0), ((0, 0, 0b1, 0b1),))

    def test_fluent_name_may_not_start_with_negation_mark(self):
        with pytest.raises(ModelError, match="negation mark"):
            Frame(("!x",), ())

    @pytest.mark.parametrize("name", ["", "a b", "a.b", "goto(0,!x)", "x!"])
    def test_names_outside_the_name_pattern_are_rejected(self, name):
        with pytest.raises(ModelError, match="is not letters"):
            Frame((name,), ())
        with pytest.raises(ModelError, match="is not letters"):
            Frame(("x",), (Action(name, (0, 0), ((0, 0, 1, 0),)),))
        assert Frame(("x-1",), (Action("set-x-1", (0, 0), ((0, 0, 1, 0),)),)).width == 1

    @pytest.mark.parametrize("name", ["end", "nil"])
    def test_frame_rejects_reserved_action_names(self, name):
        # A program line "end" is the end instruction, and the compiler names
        # line i's empty-line fluent ins_i_nil next to ins_i_<action>.
        with pytest.raises(ModelError, match=f"action name '{name}' is reserved"):
            Frame(("x",), (Action(name, (0, 0), ((0, 0, 1, 0),)),))
        assert Frame(("x",), (Action(name + "s", (0, 0), ((0, 0, 1, 0),)),)).width == 1

    def test_frame_rejects_out_of_range_references(self):
        with pytest.raises(ModelError):
            Frame(("x",), (Action("a", (0b10, 0), ()),))
        with pytest.raises(ModelError):
            Frame(("x",), (Action("a", (0, 0), ((0, 0, 0b10, 0),)),))

    def test_generalized_problem_requires_shared_frame(self):
        a = build_task("trisum", [InstanceSpec(1)])
        b = build_task("trisum", [InstanceSpec(2)])
        with pytest.raises(ModelError):
            GeneralizedProblem(a.frame, (a.instances[0], b.instances[0]))

    def test_generalized_problem_rejects_duplicate_instance_names(self):
        task = build_task("trisum", [InstanceSpec(1, name="a"), InstanceSpec(2, name="b")])
        first, second = task.instances
        twin = ClassicalInstance(task.frame, "a", second.init, second.goal, second.label)
        with pytest.raises(ModelError, match="'a'"):
            GeneralizedProblem(task.frame, (first, twin))

    def test_counts(self, corridor_task):
        assert corridor_task.t_total == 3
        assert corridor_task.t_positive == 2
        assert corridor_task.t_negative == 1
        assert corridor_task.t_total == corridor_task.t_positive + corridor_task.t_negative

    def test_instance_init_must_be_total_width(self):
        frame = build_task("trisum", [InstanceSpec(1)]).frame
        with pytest.raises(ModelError):
            ClassicalInstance(frame, "bad", 1 << frame.width, (0, 0))

    def test_fluent_id_out_of_range_is_model_error(self):
        frame = Frame(("x",), ())
        with pytest.raises(ModelError):
            ClassicalInstance(frame, "bad", 0b10, (0, 0))
        with pytest.raises(ModelError):
            ClassicalInstance(frame, "bad", 0, (0, 0b10))
