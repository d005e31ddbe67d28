import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsyn.errors import ConflictError, InapplicableActionError, ModelError
from gpsyn.model import (
    ClassicalInstance,
    FrameBuilder,
    GeneralizedProblem,
    Label,
    Literal,
    LiteralSet,
    State,
    successor,
    triggered_masks,
    validate_sequential_plan,
)
from helpers import random_frame, random_state

from gpsyn.domains import InstanceSpec, build_task, robopainter_frame


@pytest.fixture(scope="module")
def rp6():
    return robopainter_frame(6)


class TestLiteralSet:
    def test_rejects_conflicting_polarities(self):
        with pytest.raises(ConflictError):
            LiteralSet(pos=0b01, neg=0b01)

    def test_union_detects_conflict(self):
        a = LiteralSet(pos=0b1)
        b = LiteralSet(neg=0b1)
        with pytest.raises(ConflictError):
            a.union(b)

    def test_union_merges(self):
        a = LiteralSet(pos=0b001, neg=0b100)
        b = LiteralSet(pos=0b010)
        merged = a.union(b)
        assert set(merged.literals()) == {Literal(0), Literal(1), Literal(2, False)}

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_union_consistency_closed_only_when_checked(self, pos, neg):
        pos &= ~neg
        ls = LiteralSet(pos, neg)
        assert len(ls) == (pos | neg).bit_count()


class TestApplicability:
    def test_precondition_subset_of_state(self):
        b = FrameBuilder()
        b.fluent("at_0")
        b.action("inc", pre=["at_0"], cond=[([], ["!at_0"])])
        frame = b.build()
        pre = frame.action("inc").pre
        assert pre.holds(frame.state(["at_0"]).bits)
        assert not pre.holds(frame.state([]).bits)

    def test_empty_precondition_always_applicable(self, rp6):
        paint = rp6.action("paint")
        rng = random.Random(0)
        for _ in range(20):
            assert paint.pre.holds(random_state(rng, rp6).bits)


class TestTriggeredEffects:
    def test_unconditional_effect(self):
        b = FrameBuilder()
        b.fluent("painted_0")
        b.action("paint", cond=[([], ["painted_0"])])
        frame = b.build()
        eff = LiteralSet(*triggered_masks(frame.state([]).bits, frame.action("paint")))
        assert eff == frame.literal_set("painted_0")

    def test_only_matching_condition_fires(self):
        b = FrameBuilder()
        b.fluent("at_0"), b.fluent("at_1")
        b.fluent("painted_0"), b.fluent("painted_1")
        b.action("paint", cond=[(["at_0"], ["painted_0"]), (["at_1"], ["painted_1"])])
        frame = b.build()
        eff = LiteralSet(*triggered_masks(frame.state(["at_0"]).bits, frame.action("paint")))
        assert eff == frame.literal_set("painted_0")

    def test_conflicting_triggered_effects_raise(self):
        b = FrameBuilder()
        b.fluent("a"), b.fluent("b")
        b.action("bad", cond=[(["a"], ["b"]), ([], ["!b"])])
        frame = b.build()
        with pytest.raises(ConflictError):
            triggered_masks(frame.state(["a"]).bits, frame.action("bad"))
        # consistent when only one branch fires
        eff = LiteralSet(*triggered_masks(frame.state([]).bits, frame.action("bad")))
        assert eff == frame.literal_set("!b")

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
        bits = compiled.init.bits
        bits |= 1 << compiled.frame.fluent_id("copy_at_1")
        bits |= 1 << compiled.frame.fluent_id("stored")
        bits |= 1 << compiled.frame.fluent_id("acted")
        assert bits >> f & 1
        pos, _ = triggered_masks(bits, compare)
        assert pos >> compiled.frame.fluent_id("correct_at_1") & 1


class TestSuccessor:
    def test_no_triggered_effects_is_identity(self):
        b = FrameBuilder()
        b.fluent("a"), b.fluent("b")
        b.action("noop_unless_a", cond=[(["a"], ["b"])])
        frame = b.build()
        s = frame.state([])
        assert successor(s, frame.action("noop_unless_a")) == s

    def test_robopainter_inc_moves_right(self, rp6):
        s = rp6.state(["at_1", "last_6"])
        s2 = successor(s, rp6.action("inc"))
        assert s2.value(rp6.fluent_id("at_2"))
        assert not s2.value(rp6.fluent_id("at_1"))

    def test_paint_idempotent(self, rp6):
        s = rp6.state(["at_1", "last_2"])
        paint = rp6.action("paint")
        once = successor(s, paint)
        assert successor(once, paint) == once

    def test_inapplicable_raises(self):
        b = FrameBuilder()
        b.fluent("a")
        b.action("act", pre=["a"], cond=[([], ["!a"])])
        frame = b.build()
        with pytest.raises(InapplicableActionError):
            successor(frame.state([]), frame.action("act"))

    def test_totality_and_frame_preservation(self):
        rng = random.Random(7)
        for _ in range(50):
            frame = random_frame(rng, rng.randint(2, 6), rng.randint(1, 3))
            s = random_state(rng, frame)
            for action in frame.actions:
                if not action.pre.holds(s.bits):
                    continue
                pos, neg = triggered_masks(s.bits, action)
                s2 = successor(s, action)
                assert s2.width == frame.width
                untouched = ~(pos | neg)
                assert s.bits & untouched == s2.bits & untouched


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
            state = {fl.name: inst.init.value(fl.index) for fl in inst.frame.fluents}
            for action in plan:
                holds = all(
                    state[inst.frame.fluents[l.fluent].name] == l.positive
                    for l in action.pre.literals()
                )
                if not holds:
                    return False
                new = dict(state)
                for ce in action.cond:
                    if all(state[inst.frame.fluents[l.fluent].name] == l.positive
                           for l in ce.condition.literals()):
                        for l in ce.effect.literals():
                            new[inst.frame.fluents[l.fluent].name] = l.positive
                state = new
            return all(
                state[inst.frame.fluents[l.fluent].name] == l.positive
                for l in inst.goal.literals()
            )

        rng = random.Random(11)
        for _ in range(100):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            init = random_state(rng, frame)
            bit, positive = 1 << rng.randrange(frame.width), rng.random() < 0.5
            goal = LiteralSet(pos=bit) if positive else LiteralSet(neg=bit)
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
        b.fluent("x")
        with pytest.raises(ModelError):
            b.fluent("x")

    def test_unknown_fluent_text_is_model_error(self):
        b = FrameBuilder()
        b.fluent("x")
        with pytest.raises(ModelError, match="unknown fluent 'y'"):
            b.action("a", pre=["x"], cond=[(["!y"], ["x"])])
        b.action("a", cond=[([], ["!x"])])
        with pytest.raises(ModelError, match="unknown fluent 'y'"):
            b.build().literal_set("x", "y")

    def test_frame_rejects_out_of_range_references(self):
        from gpsyn.model import Action, Fluent, Frame

        with pytest.raises(ModelError):
            Frame(
                (Fluent(0, "x"),),
                (Action("a", LiteralSet(pos=0b10), ()),),
            )

    def test_generalized_problem_requires_shared_frame(self):
        a = build_task("trisum", [InstanceSpec(1)])
        b = build_task("trisum", [InstanceSpec(2)])
        with pytest.raises(ModelError):
            GeneralizedProblem(a.frame, (a.instances[0], b.instances[0]))

    def test_counts(self, corridor_task):
        assert corridor_task.t_total == 3
        assert corridor_task.t_positive == 2
        assert corridor_task.t_negative == 1
        assert corridor_task.t_total == corridor_task.t_positive + corridor_task.t_negative

    def test_instance_init_must_be_total_width(self):
        frame = build_task("trisum", [InstanceSpec(1)]).frame
        with pytest.raises(ModelError):
            ClassicalInstance(frame, "bad", State(0, frame.width + 1), LiteralSet())

    def test_fluent_id_out_of_range_is_model_error(self):
        state = State(0b1, 1)
        with pytest.raises(ModelError):
            state.value(5)
        with pytest.raises(ModelError):
            State(0b10, 1)
