import hashlib
import random

import pytest

from gpsyn import planner
from gpsyn.compiler import (
    compile_synthesis_pn,
    compile_synthesis_positive,
    compile_validation,
    decode_program,
    decode_trace,
)
from gpsyn.errors import MalformedPlanError, ModelError, VariantMismatchError
from gpsyn.interpreter import FailureKind, execute, validate_program
from gpsyn.model import (
    ClassicalInstance,
    FrameBuilder,
    GeneralizedProblem,
    Label,
    holds,
    successor_bits,
)
from gpsyn.planner import BFS_CONFIG, SolveStatus, solve
from gpsyn.program import (
    ActInstruction,
    EndInstruction,
    GotoInstruction,
    Program,
    instruction_slug,
    parse_program,
)
from helpers import (
    pn_counterexample,
    random_frame,
    random_generalized_problem,
    random_program,
    random_state,
    random_validation_case,
)

from gpsyn.domains import InstanceSpec, build_task, reference_program


def tiny_frame():
    b = FrameBuilder()
    b.fluent("p"), b.fluent("q")
    b.action("set_p", cond=[([], ["p"])])
    return b.build()


def tiny_problem(goal_texts=("p",), label=Label.POSITIVE, init=()):
    frame = tiny_frame()
    inst = ClassicalInstance(
        frame, "tiny", frame.state(init), frame.masks(*goal_texts), label
    )
    return GeneralizedProblem(frame, (inst,))


def literals(action, frame):
    """An action's name, precondition and effect branches as literal texts,
    which compare across compilations that lay out different fluents."""
    branches = [(frame.texts(cp, cn), frame.texts(ep, en)) for cp, cn, ep, en in action.cond]
    return action.name, frame.texts(*action.pre), branches


def gadget_variant(variant, problem, program):
    """The validation or PN compilation of ``problem``, the two variants
    with the loop gadget."""
    if variant == "validation":
        return compile_validation(problem, program)
    return compile_synthesis_pn(problem, program.n)


class TestStructure:
    def test_fluent_count_formula(self):
        # |F_n| = |F| + (n+1) + n(|I|+1) + 2 + T + 1 with
        # |I| = |A| + (n+1)|F| + 1, computed independently of the builder:
        # line n holds only end, so it has ins_n_end and ins_n_nil.
        problem = tiny_problem()
        n = 2
        compiled = compile_synthesis_positive(problem, n)
        f = problem.frame.width
        n_instructions = len(problem.frame.actions) + (n + 1) * f + 1
        expected = f + (n + 1) + n * (n_instructions + 1) + 2 + problem.t_total + 1
        assert compiled.frame.width == expected

    def test_goal_is_exactly_done(self, corridor_task, loop_after_body_program):
        for compiled in (
            compile_synthesis_positive(tiny_problem(), 1),
            compile_validation(corridor_task, loop_after_body_program),
            compile_synthesis_pn(corridor_task, 2),
        ):
            done = compiled.frame.fluent_id("done")
            assert compiled.goal == (1 << done, 0)

    def test_base_fluents_keep_their_ids(self, corridor_task):
        compiled = compile_synthesis_pn(corridor_task, 2)
        for f, name in enumerate(corridor_task.frame.fluents):
            assert compiled.frame.fluent_id(name) == f

    def test_actions_reference_only_table_fluents(self, corridor_task):
        compiled = compile_synthesis_pn(corridor_task, 2)
        width = compiled.frame.width
        for act in compiled.frame.actions:
            masks = list(act.pre)
            for branch in act.cond:
                masks += branch
            assert all(m >> width == 0 for m in masks)

    def test_roles_parallel_actions(self, corridor_task):
        compiled = compile_synthesis_pn(corridor_task, 2)
        assert len(compiled.roles) == len(compiled.frame.actions)

    def test_action_names_come_from_roles(self, corridor_task, loop_after_body_program):
        for compiled in (
            compile_synthesis_positive(tiny_problem(), 2),
            compile_validation(corridor_task, loop_after_body_program),
            compile_synthesis_pn(corridor_task, 2),
        ):
            assert len(compiled.roles) == len(compiled.frame.actions)
            for i, act in enumerate(compiled.frame.actions):
                assert act.name == compiled.roles[i].name

    def test_action_order_is_pinned(self):
        # Action order fixes which plan BFS and GBFS find, so a change to the
        # builder must keep these lists, and the masks behind them.
        problem = tiny_problem()
        frame = problem.frame
        neg = ClassicalInstance(
            frame, "neg", frame.state([]), frame.masks("q"), Label.NEGATIVE
        )
        with_neg = GeneralizedProblem(frame, problem.instances + (neg,))
        program = parse_program("0. set_p\n1. end\n")

        def names(compiled):
            return [act.name for act in compiled.frame.actions]

        def digest(compiled):
            actions = [(a.name, *a.pre, a.cond) for a in compiled.frame.actions]
            blob = repr((compiled.frame.fluents, compiled.init, compiled.goal, actions))
            return hashlib.sha256(blob.encode()).hexdigest()

        positive = compile_synthesis_positive(problem, 1)
        assert names(positive) == [
            "prog__set_p__l0", "exec__set_p__l0",
            "prog__goto_0_p__l0", "exec__goto_0_p__l0",
            "prog__goto_0_q__l0", "exec__goto_0_q__l0",
            "prog__goto_1_p__l0", "exec__goto_1_p__l0",
            "prog__goto_1_q__l0", "exec__goto_1_q__l0",
            "prog__end__l0__t1", "exec__end__l0__t1",
            "prog__end__l1__t1", "exec__end__l1__t1",
        ]
        # PN programs end once per line: its programming action needs
        # nothing of the running instance.
        pn = compile_synthesis_pn(with_neg, 1)
        assert names(pn) == [
            "prog__set_p__l0", "check__set_p__l0", "exec__set_p__l0",
            "prog__goto_0_p__l0", "check__goto_0_p__l0", "exec__goto_0_p__l0",
            "prog__goto_0_q__l0", "check__goto_0_q__l0", "exec__goto_0_q__l0",
            "prog__goto_1_p__l0", "check__goto_1_p__l0", "exec__goto_1_p__l0",
            "prog__goto_1_q__l0", "check__goto_1_q__l0", "exec__goto_1_q__l0",
            "prog__end__l0", "check__end__l0__t1", "exec__end__l0__t1",
            "check__end__l0__t2", "exec__end__l0__t2",
            "prog__end__l1", "check__end__l1__t1", "exec__end__l1__t1",
            "check__end__l1__t2", "exec__end__l1__t2",
            "store", "compare", "process", "skip__t1", "skip__t2",
        ]
        # Validation is PN without programming actions: every instance gets
        # its end execution and its skip, and negex decides which is legal.
        validation = compile_validation(problem, program)
        assert names(validation) == [
            "check__set_p__l0", "exec__set_p__l0",
            "check__end__l1__t1", "exec__end__l1__t1",
            "store", "compare", "process", "skip__t1",
        ]
        validation_neg = compile_validation(with_neg, program)
        assert names(validation_neg) == [
            "check__set_p__l0", "exec__set_p__l0",
            "check__end__l1__t1", "exec__end__l1__t1",
            "check__end__l1__t2", "exec__end__l1__t2",
            "store", "compare", "process", "skip__t1", "skip__t2",
        ]
        # sha256 over the fluents, init, goal and every action's name,
        # precondition masks and effect tuples
        assert [digest(c) for c in (positive, pn, validation, validation_neg)] == [
            "3e12fa9e18080b232b5e94b4520487792e3d6676d9da97906a1f67e9687293bd",
            "39fb80abdaea3f43b086107b26d9f5eb27e1a1e1d1099f9f03a52526bdfa5f27",
            "cb6f02f28b75a4a812fd1d44636e7d415531a953ee439b1efe0821607d2cecb9",
            "4d2c60e7b02d1e2b6fe8ba5fb0129cebff7ca2ba88376255fd71ffa7ea8f3c9a",
        ]

    @pytest.mark.parametrize(
        "name, clashing",
        [
            ("done", {"positive", "validation", "pn"}),
            ("pc_0", {"positive", "validation", "pn"}),
            ("test_1", {"positive", "validation", "pn"}),
            ("ins_0_nil", {"positive", "pn"}),
            ("checked", {"validation", "pn"}),
            ("negex", {"validation", "pn"}),
        ],
    )
    def test_base_fluent_with_a_compiled_name_is_rejected(self, name, clashing):
        b = FrameBuilder()
        b.fluent("p"), b.fluent(name)
        b.action("set_p", cond=[([], ["p"])])
        frame = b.build()
        inst = ClassicalInstance(frame, "one", frame.state([]), frame.masks("p"))
        problem = GeneralizedProblem(frame, (inst,))
        compilations = {
            "positive": lambda: compile_synthesis_positive(problem, 1),
            "validation": lambda: compile_validation(problem, parse_program("0. set_p\n1. end\n")),
            "pn": lambda: compile_synthesis_pn(problem, 1),
        }
        for variant, compile_ in compilations.items():
            if variant in clashing:
                with pytest.raises(ModelError, match=f"'{name}'"):
                    compile_()
            else:
                assert name in compile_().frame.fluents

    def test_forward_goto_pruning_shrinks_ins_family(self, corridor_task):
        full = compile_synthesis_pn(corridor_task, 2)
        pruned = compile_synthesis_pn(corridor_task, 2, allow_forward_gotos=False)

        def ins_fluents(compiled):
            return sum(name.startswith("ins_") for name in compiled.frame.fluents)

        assert ins_fluents(pruned) < ins_fluents(full)

    def test_whitelist_restricts_instruction_set(self):
        problem = tiny_problem()
        alphabet = [ActInstruction("set_p"), GotoInstruction(0, "p"), EndInstruction()]
        compiled = compile_synthesis_pn(problem, 2, instruction_whitelist=alphabet)
        prog_roles = [r for r in compiled.roles if r.kind == "prog"]
        assert {r.instruction for r in prog_roles} <= set(alphabet)

    def test_negex_in_both_gadget_variants(self, corridor_task, loop_after_body_program):
        assert compile_synthesis_pn(corridor_task, 2).frame.has_fluent("negex")
        validation = compile_validation(corridor_task, loop_after_body_program)
        assert validation.frame.has_fluent("negex")
        assert not compile_synthesis_positive(tiny_problem(), 1).frame.has_fluent("negex")

    def test_every_ins_fluent_is_read_and_pn_programs_each_pair_once(self):
        # A line universe holds only what an action may read there, so no
        # ins_* fluent is dead weight in a state; and a PN programming
        # action needs nothing of the running instance, so one per (line,
        # instruction) pair gives every child.
        rng = random.Random(1300)
        for _ in range(100):
            frame = random_frame(rng, rng.randint(2, 4), rng.randint(1, 3))
            n = rng.randint(1, 3)
            labels = [Label.POSITIVE] + [rng.choice(list(Label)) for _ in range(rng.randint(0, 2))]
            problem = random_generalized_problem(rng, frame, 0, labels)
            positives = GeneralizedProblem(
                frame, tuple(inst for inst in problem.instances if inst.is_positive)
            )
            pn = compile_synthesis_pn(problem, n)
            for compiled in (
                compile_synthesis_positive(positives, n),
                compile_validation(problem, random_program(rng, frame, n)),
                pn,
            ):
                read = 0
                for act in compiled.frame.actions:
                    read |= act.pre[0] | act.pre[1]
                unread = [
                    name for f, name in enumerate(compiled.frame.fluents)
                    if f >= frame.width and name.startswith("ins_") and not read >> f & 1
                ]
                assert unread == []
            programmed = [
                f"ins_{r.line}_{instruction_slug(r.instruction)}"
                for r in pn.roles if r.kind == "prog"
            ]
            instructions = [
                name for name in pn.frame.fluents[frame.width:]
                if name.startswith("ins_") and not name.endswith("_nil")
            ]
            assert programmed == instructions

    def test_goto_execution_is_the_interpreters_two_way_branch(self):
        # pc := i + 1 if f else target, for every variant and target direction.
        rng = random.Random(23)
        directions = {variant: set() for variant in ("positive", "pn", "validation")}
        for _ in range(25):
            frame = random_frame(rng, rng.randint(1, 4), rng.randint(1, 2))
            problem = random_generalized_problem(rng, frame, 2, [Label.POSITIVE, Label.NEGATIVE])
            positive = GeneralizedProblem(frame, problem.instances[:1])
            n = rng.randint(1, 3)
            compilations = {
                "positive": compile_synthesis_positive(positive, n),
                "pn": compile_synthesis_pn(problem, n),
                "validation": compile_validation(problem, random_program(rng, frame, n)),
            }
            for variant, compiled in compilations.items():
                table = compiled.frame
                pc = [1 << table.fluent_id(f"pc_{i}") for i in range(compiled.lines + 1)]
                pcs = sum(pc)
                for act, role in zip(table.actions, compiled.roles):
                    ins, i = role.instruction, role.line
                    if role.kind != "exec" or not isinstance(ins, GotoInstruction):
                        continue
                    assert len(act.cond) == 2, act.name
                    directions[variant].add((ins.target > i) - (ins.target < i))
                    f = 1 << table.fluent_id(ins.fluent)
                    for _ in range(8):
                        bits = (random_state(rng, table) & ~pcs | act.pre[0]) & ~act.pre[1]
                        want = i + 1 if bits & f else ins.target
                        assert successor_bits(bits, act) & pcs == pc[want], act.name
        assert all(seen == {-1, 0, 1} for seen in directions.values()), directions

    def test_line_n_only_programs_end(self):
        compiled = compile_synthesis_pn(tiny_problem(), 2)
        last_line = [
            r for r in compiled.roles if r.kind == "prog" and r.line == 2
        ]
        assert last_line and all(
            isinstance(r.instruction, EndInstruction) for r in last_line
        )


class TestSynthesisPositive:
    def test_rejects_negatives(self, corridor_task):
        with pytest.raises(VariantMismatchError):
            compile_synthesis_positive(corridor_task, 2)

    def test_trivial_goal_true_at_init_two_action_plan(self):
        problem = tiny_problem(goal_texts=("!p",))  # already true in empty init
        compiled = compile_synthesis_positive(problem, 1)
        result = solve(compiled, BFS_CONFIG)
        assert result.solved and len(result.plan.actions) == 2
        roles = [compiled.roles[i] for i in result.plan.actions]
        assert roles[0].kind == "prog" and roles[1].kind == "exec"
        # semantically "0. end": the unprogrammed line 1 decodes as end too
        assert decode_program(result.plan.actions, compiled).program == parse_program(
            "0. end\n1. end\n"
        )

    def test_robopainter_two_positives(self):
        task = build_task(
            "robopainter", [InstanceSpec(2), InstanceSpec(6)]
        )
        compiled = compile_synthesis_positive(task, 4, allow_forward_gotos=False)
        result = solve(compiled, planner.SearchConfig(max_seconds=120))
        assert result.solved
        decoded = decode_program(result.plan.actions, compiled)
        assert validate_program(decoded.program, task).passed


class TestValidation:
    def test_valid_program_plan_skips_negative_after_end_check(
        self, corridor_task, loop_after_body_program
    ):
        compiled = compile_validation(corridor_task, loop_after_body_program)
        result = solve(compiled, BFS_CONFIG)
        assert result.solved
        roles = [compiled.roles[i] for i in result.plan.actions]
        skip_pos = next(i for i, r in enumerate(roles) if r.kind == "skip")
        assert roles[skip_pos].t == 3
        before = roles[skip_pos - 1]
        assert before.kind == "check" and isinstance(before.instruction, EndInstruction)

    def test_end_program_on_satisfied_positive(self):
        problem = tiny_problem(goal_texts=("!p",))
        compiled = compile_validation(problem, parse_program("0. end\n"))
        result = solve(compiled, BFS_CONFIG)
        assert result.solved
        roles = [compiled.roles[i] for i in result.plan.actions]
        assert roles[0].kind == "check" and roles[1].kind == "exec"

    @pytest.mark.parametrize("label,expect_solvable", [
        (Label.NEGATIVE, True),
        (Label.POSITIVE, False),
    ])
    def test_looping_program_solvable_iff_instance_negative(self, label, expect_solvable):
        frame = tiny_frame()
        inst = ClassicalInstance(
            frame, "loops", frame.state([]), frame.masks("q"), label
        )
        problem = GeneralizedProblem(frame, (inst,))
        looping = parse_program("0. goto(0,!q)\n1. end\n")  # q never becomes true
        compiled = compile_validation(problem, looping)
        result = solve(compiled, BFS_CONFIG)
        assert result.solved == expect_solvable
        if result.solved:
            trace = decode_trace(result.plan.actions, compiled)
            assert trace[0].failure is FailureKind.INFINITE_LOOP


    def test_validation_is_pn_without_programming_actions(self):
        # PN's fluents less the ins_* fluents of instructions the program
        # does not write (and the nil fluents, which only programming
        # actions read); the actions are PN's non-programming actions on the
        # program's (line, instruction) pairs plus the gadget and every skip,
        # with the same literals and in PN's order.
        rng = random.Random(1100)
        for _ in range(300):
            frame = random_frame(rng, rng.randint(2, 4), rng.randint(1, 3))
            program = random_program(rng, frame, rng.randint(1, 3))
            t = rng.randint(1, 3)
            labels = [rng.choice(list(Label)) for _ in range(t)]
            labels[rng.randrange(t)] = Label.POSITIVE  # PN needs a positive
            problem = random_generalized_problem(rng, frame, t, labels)
            validation = compile_validation(problem, program)
            pn = compile_synthesis_pn(problem, program.n)
            written = set(enumerate(program.lines))
            slugs = {f"ins_{i}_{instruction_slug(ins)}" for i, ins in written}
            assert validation.frame.fluents == tuple(
                name for name in pn.frame.fluents
                if not name.startswith("ins_") or name in slugs
            )
            kept = [
                (act, pn.frame)
                for act, role in zip(pn.frame.actions, pn.roles)
                if role.line is None
                or role.kind != "prog" and (role.line, role.instruction) in written
            ]
            assert [literals(a, validation.frame) for a in validation.frame.actions] == [
                literals(a, f) for a, f in kept
            ]

    @pytest.mark.parametrize("domain", ["robopainter", "list", "gripper"])
    def test_labels_do_not_change_the_search(self, domain):
        # The gadget reads no label, so BFS stores and compares the same
        # copies on every instance and only the way each one ends differs.
        sizes = [12, 10, 8, 6, 4, 2]
        program = reference_program(domain)

        def counts(negatives):
            specs = [InstanceSpec(s, Label.NEGATIVE if s in negatives else Label.POSITIVE)
                     for s in sizes]
            result = solve(compile_validation(build_task(domain, specs), program), BFS_CONFIG)
            assert result.solved
            return result.stats.expansions, result.stats.generated

        expected = counts(())
        for negatives in [(10, 8), (4, 2), (10, 4), (8, 6, 2)]:
            assert counts(negatives) == expected

    def test_store_applies_only_right_after_a_jump_back(self):
        task = build_task("robopainter", [InstanceSpec(5)])
        compiled = compile_validation(task, reference_program("robopainter"))
        result = solve(compiled, BFS_CONFIG)
        store = compiled.frame.action("store").pre
        bits, jumps_back = compiled.init, 0
        for idx in result.plan.actions:
            role = compiled.roles[idx]
            bits = successor_bits(bits, compiled.frame.actions[idx])
            ins = role.instruction
            jumped_back = (
                role.kind == "exec"
                and isinstance(ins, GotoInstruction)
                and ins.target <= role.line
                and bits >> compiled.frame.fluent_id(f"pc_{ins.target}") & 1
            )
            jumps_back += bool(jumped_back)
            assert holds(bits, store) == bool(jumped_back)
        assert jumps_back == 3


class TestSynthesisPN:
    def test_zero_positives_rejected(self):
        problem = tiny_problem(label=Label.NEGATIVE)
        with pytest.raises(VariantMismatchError):
            compile_synthesis_pn(problem, 1)

    def test_trivial_positive_plus_negative_solvable(self):
        frame = tiny_frame()
        pos = ClassicalInstance(frame, "pos", frame.state([]), frame.masks("!p"))
        neg = ClassicalInstance(
            frame, "neg", frame.state([]), frame.masks("p"), Label.NEGATIVE
        )
        problem = GeneralizedProblem(frame, (pos, neg))
        compiled = compile_synthesis_pn(problem, 1)
        result = solve(compiled, BFS_CONFIG)
        # "0. end" solves the positive (goal already true) and fails the
        # negative via a failed end check followed by skip.
        assert result.solved
        decoded = decode_program(result.plan.actions, compiled)
        assert validate_program(decoded.program, problem).passed

    @pytest.mark.parametrize("variant", ["validation", "pn"])
    def test_negex_gates_end_and_skip(self, variant, corridor_task, loop_after_body_program):
        compiled = gadget_variant(variant, corridor_task, loop_after_body_program)
        negex = compiled.frame.fluent_id("negex")
        for idx, role in enumerate(compiled.roles):
            pos, neg = compiled.frame.actions[idx].pre
            if role.kind == "exec" and isinstance(role.instruction, EndInstruction):
                assert neg >> negex & 1
            if role.kind == "skip":
                assert pos >> negex & 1

    @pytest.mark.parametrize("variant", ["validation", "pn"])
    def test_loop_gadget_reads_no_label(self, variant, corridor_task, loop_after_body_program):
        compiled = gadget_variant(variant, corridor_task, loop_after_body_program)
        negex = compiled.frame.fluent_id("negex")
        for name in ("store", "compare", "process"):
            action = compiled.frame.action(name)
            for pos, neg in [action.pre] + [c[:2] for c in action.cond]:
                assert not (pos | neg) >> negex & 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_may_fail_on_a_line_it_reaches_first(self, n):
        # The negative fails on line 1, which no positive reaches: a
        # programming action that required a1's precondition there made
        # the compiled task unsolvable although the program validates.
        problem, program = pn_counterexample()
        assert validate_program(program, problem).passed
        compiled = compile_synthesis_pn(problem, n)
        result = solve(compiled, BFS_CONFIG)
        assert result.solved
        decoded = decode_program(result.plan.actions, compiled)
        assert validate_program(decoded.program, problem).passed

    def test_negex_initial_value_tracks_first_label(self):
        frame = tiny_frame()
        pos = ClassicalInstance(frame, "pos", frame.state([]), frame.masks("!p"))
        neg = ClassicalInstance(
            frame, "neg", frame.state([]), frame.masks("q"), Label.NEGATIVE
        )
        negative_first = GeneralizedProblem(frame, (neg, pos))
        compiled = compile_synthesis_pn(negative_first, 1)
        assert compiled.init >> compiled.frame.fluent_id("negex") & 1
        positive_first = GeneralizedProblem(frame, (pos, neg))
        compiled = compile_synthesis_pn(positive_first, 1)
        assert not compiled.init >> compiled.frame.fluent_id("negex") & 1


class TestDecodeProgram:
    def test_readback(self, corridor_task):
        compiled = compile_synthesis_pn(corridor_task, 2)
        prog_paint = next(
            i for i, r in enumerate(compiled.roles)
            if r.kind == "prog" and r.line == 0
            and r.instruction == ActInstruction("paint")
        )
        prog_goto = next(
            i for i, r in enumerate(compiled.roles)
            if r.kind == "prog" and r.line == 1
            and r.instruction == GotoInstruction(0, "at_end")
        )
        decoded = decode_program([prog_paint, prog_goto], compiled)
        assert decoded.program == parse_program("0. paint\n1. goto(0,!at_end)\n2. end\n")
        assert decoded.unprogrammed == (2,)

    def test_pn_end_is_programmed_once_for_every_instance(self):
        # One prog__end__l1 (a role with no t) writes the end that solves
        # the positive and that the negative then fails.
        frame = tiny_frame()
        pos = ClassicalInstance(frame, "pos", frame.state([]), frame.masks("p"))
        neg = ClassicalInstance(frame, "neg", frame.state([]), frame.masks("q"), Label.NEGATIVE)
        problem = GeneralizedProblem(frame, (pos, neg))
        compiled = compile_synthesis_pn(problem, 1)
        result = solve(compiled, BFS_CONFIG)
        assert result.solved
        roles = [compiled.roles[idx] for idx in result.plan.actions]
        assert [r.name for r in roles if r.kind == "prog"] == ["prog__set_p__l0", "prog__end__l1"]
        assert all(r.t is None for r in roles if r.kind == "prog")
        decoded = decode_program(result.plan.actions, compiled)
        assert decoded.program == parse_program("0. set_p\n1. end\n")
        assert decoded.unprogrammed == ()
        trace = decode_trace(result.plan.actions, compiled)
        assert [(o.instance_name, o.solved, o.failure) for o in trace] == [
            ("pos", True, None),
            ("neg", False, FailureKind.INCOMPLETE),
        ]

    def test_duplicate_programming_is_malformed(self, corridor_task):
        compiled = compile_synthesis_pn(corridor_task, 2)
        idx = next(i for i, r in enumerate(compiled.roles) if r.kind == "prog")
        with pytest.raises(MalformedPlanError):
            decode_program([idx, idx], compiled)

    def test_validation_plans_cannot_decode(self, corridor_task, loop_after_body_program):
        compiled = compile_validation(corridor_task, loop_after_body_program)
        with pytest.raises(VariantMismatchError):
            decode_program([], compiled)


class TestDecodeTrace:
    def test_rejects_non_goal_reaching_plan(self, corridor_task, loop_after_body_program):
        compiled = compile_validation(corridor_task, loop_after_body_program)
        with pytest.raises(MalformedPlanError):
            decode_trace([], compiled)
        # Dropping the first action makes a later step inapplicable.
        plan = solve(compiled, BFS_CONFIG).plan.actions
        with pytest.raises(MalformedPlanError):
            decode_trace(plan[1:], compiled)

    def test_solved_and_failure_roles(self, corridor_task, loop_after_body_program):
        compiled = compile_validation(corridor_task, loop_after_body_program)
        result = solve(compiled, BFS_CONFIG)
        trace = decode_trace(result.plan.actions, compiled)
        assert [t.solved for t in trace] == [True, True, False]
        assert trace[2].failure is FailureKind.INCOMPLETE

    def test_inapplicable_attribution_carries_line_and_action(self):
        b = FrameBuilder()
        b.fluent("have"), b.fluent("free")
        b.action("pick", pre=["free"], cond=[([], ["have", "!free"])])
        frame = b.build()
        inst = ClassicalInstance(
            frame, "n", frame.state(["free"]), frame.masks("free"), Label.NEGATIVE
        )
        problem = GeneralizedProblem(frame, (inst,))
        program = parse_program("0. pick\n1. pick\n2. end\n")
        compiled = compile_validation(problem, program)
        result = solve(compiled, BFS_CONFIG)
        assert result.solved
        trace = decode_trace(result.plan.actions, compiled)
        assert trace[0].failure is FailureKind.INAPPLICABLE
        assert (trace[0].line, trace[0].action) == (1, "pick")


class TestSynthesisBiconditional:
    def test_pn_solvable_iff_some_program_validates(self):
        # Soundness and completeness in one property: over a whitelisted
        # alphabet, the compiled synthesis task is solvable exactly when the
        # enumeration contains a validating program.
        import itertools

        from helpers import random_frame, random_goal, random_state

        rng = random.Random(515)
        solvable_seen = unsolvable_seen = 0
        for _ in range(40):
            frame = random_frame(rng, rng.randint(2, 3), rng.randint(1, 2))
            alphabet = [ActInstruction(a.name) for a in frame.actions]
            alphabet.append(GotoInstruction(0, rng.choice(frame.fluents)))
            alphabet.append(EndInstruction())
            labels = [Label.POSITIVE] + (
                [Label.NEGATIVE] if rng.random() < 0.5 else []
            )
            instances = tuple(
                ClassicalInstance(frame, f"i{k}", random_state(rng, frame),
                                  random_goal(rng, frame, 2), lab)
                for k, lab in enumerate(labels)
            )
            problem = GeneralizedProblem(frame, instances)
            any_passes = any(
                validate_program(Program((w0, w1, EndInstruction())), problem).passed
                for w0, w1 in itertools.product(alphabet, repeat=2)
            )
            compiled = compile_synthesis_pn(problem, 2, instruction_whitelist=alphabet)
            result = solve(compiled, BFS_CONFIG)
            assert result.solved == any_passes
            if result.solved:
                solvable_seen += 1
                decoded = decode_program(result.plan.actions, compiled)
                assert validate_program(decoded.program, problem).passed
            else:
                unsolvable_seen += 1
        assert solvable_seen and unsolvable_seen

    def test_pn_solvable_iff_some_program_in_the_line_universe_validates(self):
        # The same "iff" with no whitelist, over frames whose actions have
        # preconditions: BFS on the compiled task against every program of
        # the full line universe (acts, gotos to any line, end) at n = 2.
        # A negative may fail on a line that no positive reaches, which a
        # compilation that pruned programming actions by the instruction's
        # precondition missed (seed 4 has two such cases).
        import itertools

        n = 2
        rng = random.Random(4)
        solvable_seen = unsolvable_seen = 0
        for _ in range(200):
            frame = random_frame(rng, rng.randint(2, 3), rng.randint(1, 2))
            labels = [Label.POSITIVE] + [rng.choice(list(Label)) for _ in range(rng.randint(1, 2))]
            problem = random_generalized_problem(rng, frame, 0, labels)
            universe = [ActInstruction(a.name) for a in frame.actions]
            universe += [GotoInstruction(t, f) for t in range(n + 1) for f in frame.fluents]
            universe.append(EndInstruction())
            compiled = compile_synthesis_pn(problem, n)
            for i in range(n):
                # one programming action per instruction
                programmable = [r.instruction for r in compiled.roles
                                if r.kind == "prog" and r.line == i]
                assert programmable == universe
            any_passes = any(
                validate_program(Program((*lines, EndInstruction())), problem).passed
                for lines in itertools.product(universe, repeat=n)
            )
            result = solve(compiled, BFS_CONFIG)
            assert result.status is not SolveStatus.RESOURCE_EXHAUSTED
            assert result.solved == any_passes
            if result.solved:
                solvable_seen += 1
                decoded = decode_program(result.plan.actions, compiled)
                assert validate_program(decoded.program, problem).passed
            else:
                unsolvable_seen += 1
        assert solvable_seen and unsolvable_seen


class TestOracleEquivalenceSample:
    def test_random_sample_agrees(self):
        # The full 500-case run lives in the acceptance suite; this is a
        # quick regression sample.
        rng = random.Random(99)
        for _ in range(40):
            program, problem, outcomes = random_validation_case(rng)
            report = validate_program(program, problem)
            compiled = compile_validation(problem, program)
            result = solve(compiled, BFS_CONFIG)
            assert result.status is not SolveStatus.RESOURCE_EXHAUSTED
            assert result.solved == report.passed
