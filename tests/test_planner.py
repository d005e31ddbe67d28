import random
from collections import Counter, deque
from dataclasses import replace

import pytest

from gpsyn import planner
from gpsyn.errors import ConflictError, ModelError
from gpsyn.model import (
    ClassicalInstance,
    FrameBuilder,
    GeneralizedProblem,
    Label,
    holds,
    successor_bits,
    validate_sequential_plan,
)
from gpsyn.planner import (
    BFS_CONFIG,
    INF,
    Heuristic,
    SearchConfig,
    SolveStatus,
    Strategy,
    h_add,
    solve,
)
from gpsyn.program import format_program, parse_program
from helpers import (
    random_frame,
    random_generalized_problem,
    random_goal,
    random_state,
    random_validation_case,
)

from gpsyn.compiler import (
    compile_synthesis_positive,
    compile_synthesis_pn,
    compile_validation,
    decode_program,
)
from gpsyn.domains import InstanceSpec, build_task


def chain_frame(length: int):
    """f0 -> f1 -> ... -> f_{length}: one action per step."""
    b = FrameBuilder()
    for i in range(length + 1):
        b.fluent(f"f{i}")
    for i in range(length):
        b.action(f"step{i}", pre=[f"f{i}"], cond=[([], [f"f{i + 1}"])])
    return b.build()


def test_goal_in_init_returns_empty_plan():
    frame = chain_frame(2)
    inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f0"))
    for cfg in (BFS_CONFIG, SearchConfig()):
        result = solve(inst, cfg)
        assert result.solved and result.plan.actions == ()


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.GBFS])
def test_chain_solved_and_plan_validates(strategy):
    frame = chain_frame(5)
    inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f5"))
    result = solve(inst, SearchConfig(strategy=strategy))
    assert result.solved
    assert validate_sequential_plan(inst, result.plan.actions)
    assert len(result.plan.actions) == 5


def shortest_distance(inst):
    """Plan length to the goal by level-by-level expansion, or None."""
    level, seen, depth = {inst.init}, {inst.init}, 0
    while level:
        if any(holds(state, inst.goal) for state in level):
            return depth
        following = set()
        for state in level:
            for action in inst.frame.actions:
                if holds(state, action.pre):
                    child = successor_bits(state, action)
                    if child not in seen:
                        seen.add(child)
                        following.add(child)
        level, depth = following, depth + 1
    return None


def random_search_instances(rng, count):
    """Random classical instances, each followed by the compiled validation
    instance of a random program and problem, whose plans run longer."""
    for _ in range(count):
        frame = random_frame(rng, rng.randint(2, 7), rng.randint(1, 4))
        yield ClassicalInstance(frame, "t", random_state(rng, frame), random_goal(rng, frame))
        program, problem, _ = random_validation_case(rng)
        yield compile_validation(problem, program)


def test_bfs_is_blind_best_first_and_finds_shortest_plans():
    lengths = []
    unsolvable = 0
    for inst in random_search_instances(random.Random(29), 100):
        bfs = solve(inst, BFS_CONFIG)
        blind = solve(inst, SearchConfig(heuristic=Heuristic.BLIND))
        assert bfs.status == blind.status
        assert (bfs.stats.expansions, bfs.stats.generated) == (
            blind.stats.expansions,
            blind.stats.generated,
        )
        distance = shortest_distance(inst)
        if bfs.solved:
            assert bfs.plan.actions == blind.plan.actions
            assert len(bfs.plan.actions) == distance
            lengths.append(distance)
        else:
            assert bfs.status is SolveStatus.PROVED_UNSOLVABLE
            assert blind.plan is None and distance is None
            unsolvable += 1
    assert unsolvable > 0 and max(lengths) >= 10


def test_search_counts_evaluations_and_dead_ends():
    pruned = 0
    specs = [InstanceSpec(2), InstanceSpec(4), InstanceSpec(4, Label.NEGATIVE)]
    task = build_task("trisum", specs)
    synthesis = compile_synthesis_pn(task, 3, allow_forward_gotos=False)
    instances = [*random_search_instances(random.Random(31), 30), synthesis]
    for inst in instances:
        for config in (SearchConfig(), BFS_CONFIG):
            stats = solve(inst, config).stats
            assert 0 <= stats.dead_ends <= stats.evaluations <= stats.generated
            if config is BFS_CONFIG:
                assert stats.dead_ends == 0  # the blind evaluator never prunes
            pruned += stats.dead_ends
    assert pruned > 0


def test_bfs_proves_unsolvable():
    b = FrameBuilder()
    b.fluent("a"), b.fluent("goal")
    b.action("toggle", cond=[(["a"], ["!a"]), (["!a"], ["a"])])
    frame = b.build()
    inst = ClassicalInstance(frame, "t", frame.state([]), frame.masks("goal"))
    result = solve(inst, BFS_CONFIG)
    assert result.status is SolveStatus.PROVED_UNSOLVABLE


def test_conflicting_effects_raise_conflict_error_naming_action():
    b = FrameBuilder()
    b.fluent("b")
    b.action("clash", cond=[([], ["b"]), ([], ["!b"])])
    frame = b.build()
    inst = ClassicalInstance(frame, "t", frame.state([]), frame.masks("b"))
    for cfg in (BFS_CONFIG, SearchConfig()):
        with pytest.raises(ConflictError, match="'clash'"):
            solve(inst, cfg)


def test_expansion_budget_exhausts():
    frame = chain_frame(30)
    inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f30"))
    result = solve(inst, SearchConfig(strategy=Strategy.BFS, max_expansions=3))
    assert result.status is SolveStatus.RESOURCE_EXHAUSTED


def test_invalid_config_rejected():
    with pytest.raises(ModelError):
        SearchConfig(max_expansions=0)
    with pytest.raises(ModelError):
        SearchConfig(max_seconds=-1)


@pytest.mark.parametrize("seconds", [float("nan"), INF, -INF])
def test_non_finite_time_budget_rejected(seconds):
    # _out_of_budget compares elapsed > max_seconds, which is never true
    # for NaN or ∞, so such a budget would bound nothing.
    with pytest.raises(ModelError):
        SearchConfig(max_seconds=seconds)


def test_deterministic_plans():
    rng = random.Random(2)
    frame = random_frame(rng, 5, 3)
    inst = ClassicalInstance(frame, "t", random_state(rng, frame), random_goal(rng, frame))
    first = solve(inst, SearchConfig())
    second = solve(inst, SearchConfig())
    assert first.status == second.status
    if first.solved:
        assert first.plan.actions == second.plan.actions


def test_validation_compilation_solvable_for_valid_program(
    corridor_task, loop_after_body_program
):
    compiled = compile_validation(corridor_task, loop_after_body_program)
    assert solve(compiled, BFS_CONFIG).solved


def test_validation_compilation_unsolvable_for_straight_program(
    corridor_task, straight_program
):
    # The straight-line plan misses the 6x1 positive, so the compiled
    # validation instance has no solution at all.
    compiled = compile_validation(corridor_task, straight_program)
    result = solve(compiled, BFS_CONFIG)
    assert result.status is SolveStatus.PROVED_UNSOLVABLE


def reference_h_add(frame, goal, bits):
    """h_add by naive fixpoint: each effect branch is a relaxed operator
    (precondition ∪ condition → effect), and ``cost[q] = min(cost[q], 1 +
    Σ cost[pre])`` is repeated over all of them until no cost changes."""
    ops = [
        (
            set(frame.texts(*act.pre)) | set(frame.texts(cpos, cneg)),
            frame.texts(epos, eneg),
        )
        for act in frame.actions
        for cpos, cneg, epos, eneg in act.cond
    ]
    cost = {name if bits >> f & 1 else "!" + name: 0 for f, name in enumerate(frame.fluents)}
    changed = True
    while changed:
        changed = False
        for pre, add in ops:
            if all(p in cost for p in pre):
                c = 1 + sum(cost[p] for p in pre)
                for q in add:
                    if c < cost.get(q, INF):
                        cost[q] = c
                        changed = True
    return sum(cost.get(g, INF) for g in frame.texts(*goal))


def bfs_states(inst, limit):
    """The first ``limit`` states breadth-first search reaches from init."""
    order, seen = [inst.init], {inst.init}
    queue = deque(order)
    while queue and len(order) < limit:
        state = queue.popleft()
        for action in inst.frame.actions:
            if holds(state, action.pre):
                child = successor_bits(state, action)
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    queue.append(child)
    return order[:limit]


def hadd_cases(rng):
    """(instance, states): random classical instances at random states, then
    states reached by BFS in compiled validation and small PN synthesis."""
    for _ in range(150):
        frame = random_frame(rng, rng.randint(2, 8), rng.randint(1, 8))
        goal = random_goal(rng, frame, max_literals=4)
        yield ClassicalInstance(frame, "t", frame.state([]), goal), [
            random_state(rng, frame) for _ in range(4)
        ]
    for _ in range(15):
        program, problem, _ = random_validation_case(rng)
        compiled = compile_validation(problem, program)
        yield compiled, bfs_states(compiled, 30)
    for _ in range(5):
        frame = random_frame(rng, rng.randint(2, 4), rng.randint(1, 3))
        labels = [Label.POSITIVE] + [Label.NEGATIVE] * rng.randint(0, 2)
        compiled = compile_synthesis_pn(random_generalized_problem(rng, frame, 0, labels), 2)
        yield compiled, bfs_states(compiled, 25)
    task = build_task("robopainter", [InstanceSpec(2), InstanceSpec(1, Label.NEGATIVE)])
    compiled = compile_synthesis_pn(task, 3, allow_forward_gotos=False)
    yield compiled, bfs_states(compiled, 40)


class TestHAdd:
    def test_equals_naive_fixpoint_reference(self):
        kinds = Counter()
        for inst, states in hadd_cases(random.Random(41)):
            heuristic = planner._HAdd(inst.frame, inst.goal)
            for state in states:
                expected = reference_h_add(inst.frame, inst.goal, state)
                assert heuristic.value(state) == expected
                kinds["inf" if expected == INF else min(expected, 2)] += 1
        assert kinds[0] and kinds[1] and kinds[2] and kinds["inf"], kinds

    def test_value_does_not_depend_on_call_order(self):
        # One _HAdd patches the counts of the state it evaluated last, so
        # each value must equal the reference whichever states came before:
        # shuffled states, each state twice in a row, and each state next to
        # its complement.
        b = FrameBuilder()
        for name in ("a", "b", "c", "d", "g"):
            b.fluent(name)
        b.action("free", cond=[([], ["a"])])  # empty precondition
        b.action("inert", pre=["a"])  # no branches
        # branch conditions that repeat (a) or negate (b, !a) a precondition literal
        b.action(
            "mixed", pre=["a", "!b"], cond=[(["a", "c"], ["d"]), (["b"], ["c"]), (["!a"], ["!c"])]
        )
        b.action("set_b", pre=["c"], cond=[([], ["b"])])
        b.action("set_c", pre=["!d"], cond=[(["!a"], ["c"])])
        b.action("reach", pre=["b", "d"], cond=[(["b", "!c"], ["g"])])
        hand = b.build()
        every_state = range(1 << hand.width)
        cases = [(FrameBuilder().build(), (0, 0), [0])]
        cases += [(hand, hand.masks(*g), every_state) for g in (["g"], ["d", "!c"], ["!a", "b"])]
        rng = random.Random(43)
        for _ in range(40):
            frame = random_frame(rng, rng.randint(2, 8), rng.randint(1, 8))
            states = [random_state(rng, frame) for _ in range(6)]
            cases.append((frame, random_goal(rng, frame, max_literals=4), states))
        task = build_task("list", [InstanceSpec(2), InstanceSpec(2, Label.NEGATIVE)])
        compiled = compile_synthesis_pn(task, 2, allow_forward_gotos=False)
        cases.append((compiled.frame, compiled.goal, bfs_states(compiled, 30)))
        kinds = Counter()
        for frame, goal, states in cases:
            full = (1 << frame.width) - 1
            order = list(states)
            rng.shuffle(order)
            order += [s for s in states for _ in range(2)]
            order += [x for s in states for x in (s, s ^ full)]
            heuristic = planner._HAdd(frame, goal)
            expected = {}
            for state in order:
                if state not in expected:
                    expected[state] = reference_h_add(frame, goal, state)
                assert heuristic.value(state) == expected[state]
                kinds["inf" if expected[state] == INF else min(expected[state], 2)] += 1
        assert kinds[0] and kinds[1] and kinds[2] and kinds["inf"], kinds

    def test_patched_bookkeeping_keeps_h_exact(self):
        # a1..a3 share {s, t, !u}, their precondition minus its rarest
        # literal, so it becomes one counted node. Branch conditions lie
        # inside the precondition (a1's s, a3's t) next to ones outside it.
        # `free` is ready in every state and `ready` whenever u is false;
        # both have a branch with a condition of its own.
        b = FrameBuilder()
        for name in ("s", "t", "u", "r1", "r2", "x", "y", "g", "h"):
            b.fluent(name)
        b.action("a1", pre=["s", "t", "!u", "r1"],
                 cond=[([], ["x"]), (["s"], ["y"]), (["x"], ["g"])])
        b.action("a2", pre=["s", "t", "!u", "r2"], cond=[([], ["g"]), (["!y"], ["h"])])
        b.action("a3", pre=["s", "t", "!u", "x"], cond=[(["t", "y"], ["h"]), (["!s"], ["r2"])])
        b.action("free", cond=[([], ["s"]), (["y"], ["t"])])
        b.action("ready", pre=["!u"], cond=[(["x"], ["r2"]), ([], ["r1"])])
        b.action("set_u", pre=["g"], cond=[([], ["u"]), ([], ["!t"])])
        b.action("unset_u", pre=["h", "u"], cond=[([], ["!u"])])
        frame = b.build()
        t, u = 1 << frame.fluent_id("t"), 1 << frame.fluent_id("u")
        # Each state, then flips of the shared t and of u (which also takes
        # `ready` in and out of its ready set) back and forth.
        order = [
            x for s in range(1 << frame.width) for x in (s, s ^ t, s, s ^ u, s ^ u ^ t, s)
        ]
        kinds = Counter()
        for goal in (["g", "h"], ["h", "!y", "t"], ["g", "!u"]):
            goal = frame.masks(*goal)
            heuristic = planner._HAdd(frame, goal)
            assert len(heuristic.node_rest) == 1
            expected = {}
            for state in order:
                if state not in expected:
                    expected[state] = reference_h_add(frame, goal, state)
                assert heuristic.value(state) == expected[state]
                kinds["inf" if expected[state] == INF else min(expected[state], 3)] += 1
        assert kinds[0] and kinds[1] and kinds[2] and kinds[3] and kinds["inf"], kinds

    def test_shared_precondition_keeps_h_exact(self):
        # p1, p2 and p3 share {s, t}, so they share one count: p1 and p2
        # add different literals unconditionally, and p3's one branch needs
        # w, which lies outside {s, t}. p1 also adds `junk`, which nothing
        # reads, and p2 adds `k`, which only goals read. w is reachable
        # where the group is not (s false with t true: nothing adds !t),
        # so g must stay ∞ there until the group's count reaches 0.
        b = FrameBuilder()
        for name in ("s", "t", "u", "x", "y", "w", "junk", "g", "k"):
            b.fluent(name)
        b.action("p1", pre=["s", "t"], cond=[([], ["x"]), ([], ["junk"])])
        b.action("p2", pre=["s", "t"], cond=[([], ["y"]), ([], ["k"])])
        b.action("p3", pre=["s", "t"], cond=[(["w"], ["g"])])
        b.action("make_u", pre=["!t"], cond=[([], ["u"])])
        b.action("make_s", pre=["u"], cond=[([], ["s"])])
        b.action("make_t", pre=["!w"], cond=[([], ["t"])])
        b.action("make_w", pre=["!s"], cond=[([], ["w"])])
        b.action("use_x", pre=["x"], cond=[([], ["!w"])])
        b.action("use_y", pre=["y", "!u"], cond=[(["x"], ["w"])])
        frame = b.build()
        s, t = 1 << frame.fluent_id("s"), 1 << frame.fluent_id("t")
        # Each state, then flips of the shared s and t back and forth, so
        # the group's count and sums move in and out of 0 between calls.
        order = [
            x for st in range(1 << frame.width) for x in (st, st ^ s, st, st ^ t, st ^ s ^ t, st)
        ]
        kinds = Counter()
        for goal in (["g"], ["g", "k"], ["k", "!u"], ["x", "w"]):
            goal = frame.masks(*goal)
            heuristic = planner._HAdd(frame, goal)
            expected = {}
            for state in order:
                if state not in expected:
                    expected[state] = reference_h_add(frame, goal, state)
                assert heuristic.value(state) == expected[state]
                kinds["inf" if expected[state] == INF else min(expected[state], 4)] += 1
        assert all(kinds[k] for k in (0, 1, 2, 3, 4, "inf")), kinds

    def test_zero_iff_goal_holds(self):
        frame = chain_frame(3)
        inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f0"))
        assert h_add(inst.init, inst) == 0

    def test_single_action_costs_one(self):
        frame = chain_frame(1)
        inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f1"))
        assert h_add(inst.init, inst) == 1

    def test_additive_over_chain(self):
        frame = chain_frame(4)
        inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f4"))
        assert h_add(inst.init, inst) == 4

    def test_zero_width_frame(self):
        frame = FrameBuilder().build()
        inst = ClassicalInstance(frame, "t", frame.state([]), frame.masks())
        assert h_add(inst.init, inst) == 0

    def test_literal_reached_twice_at_cost_one_counts_once(self):
        # q is added at cost 1 by two actions; g needs q (cost 1) and r2 (cost 2).
        b = FrameBuilder()
        for name in ("a", "q", "r1", "r2", "g"):
            b.fluent(name)
        b.action("q_first", pre=["a"], cond=[([], ["q"])])
        b.action("q_again", pre=["a"], cond=[([], ["q"])])
        b.action("r1", pre=["a"], cond=[([], ["r1"])])
        b.action("r2", pre=["r1"], cond=[([], ["r2"])])
        b.action("g", pre=["q", "r2"], cond=[([], ["g"])])
        frame = b.build()
        inst = ClassicalInstance(frame, "t", frame.state(["a"]), frame.masks("g"))
        assert h_add(inst.init, inst) == 1 + 1 + 2

    def test_infinite_iff_bfs_unsolvable_on_random_instances(self):
        rng = random.Random(13)
        checked_inf = checked_fin = 0
        for _ in range(80):
            frame = random_frame(rng, rng.randint(2, 6), rng.randint(1, 3))
            inst = ClassicalInstance(
                frame, "t", random_state(rng, frame), random_goal(rng, frame)
            )
            estimate = h_add(inst.init, inst)
            result = solve(inst, BFS_CONFIG)
            if estimate == INF:
                # h_add safety: infinity is a proof of unreachability.
                assert result.status is SolveStatus.PROVED_UNSOLVABLE
                checked_inf += 1
            elif result.solved:
                checked_fin += 1
        assert checked_inf > 0 and checked_fin > 0

    def test_blind_strategy_still_solves(self):
        frame = chain_frame(3)
        inst = ClassicalInstance(frame, "t", frame.state(["f0"]), frame.masks("f3"))
        assert solve(inst, SearchConfig(heuristic=Heuristic.BLIND)).solved


@pytest.mark.parametrize(
    "domain, specs, lines, counts, program",
    [
        (
            "trisum",
            [InstanceSpec(2), InstanceSpec(4), InstanceSpec(4, Label.NEGATIVE)],
            3,
            (148, 344, 343, 151),
            "0. add_b_to_a\n1. dec_b\n2. goto(0,!val_b_0)\n3. end\n",
        ),
        (
            "list",
            [InstanceSpec(2), InstanceSpec(4), InstanceSpec(3, Label.NEGATIVE)],
            3,
            (117, 199, 198, 71),
            "0. visit\n1. next\n2. goto(0,!tail_visited)\n3. end\n",
        ),
        (
            "robopainter",
            [InstanceSpec(2), InstanceSpec(5), InstanceSpec(1, Label.NEGATIVE)],
            5,
            (2397, 12392, 12391, 7291),
            "0. paint\n1. inc\n2. inc\n3. goto(0,!at_end)\n4. paint\n5. end\n",
        ),
        (
            "robopainter",
            [InstanceSpec(2), InstanceSpec(6), InstanceSpec(1, Label.NEGATIVE)],
            5,
            (1384, 13193, 13192, 8972),
            "0. paint\n1. inc\n2. inc\n3. goto(0,!at_end)\n4. end\n5. end\n",
        ),
    ],
    ids=["trisum", "list", "robopainter-5", "robopainter-6"],
)
def test_gbfs_counts_on_pn_synthesis_are_pinned(domain, specs, lines, counts, program):
    # GBFS with h_add on the four synth-pn tasks (backward gotos only): any
    # change to an h value or to the search order moves these
    # (expansions, generated, evaluations, dead_ends).
    compiled = compile_synthesis_pn(build_task(domain, specs), lines, allow_forward_gotos=False)
    result = solve(compiled, SearchConfig())
    stats = result.stats
    assert (stats.expansions, stats.generated, stats.evaluations, stats.dead_ends) == counts
    assert format_program(decode_program(result.plan.actions, compiled).program) == program


def test_bfs_decides_reachability():
    task = build_task("robopainter", [InstanceSpec(2, Label.NEGATIVE)])
    assert solve(task.instances[0], BFS_CONFIG).solved
    b = FrameBuilder()
    b.fluent("x")
    b.action("noop", cond=[(["x"], ["x"])])
    frame = b.build()
    dead = ClassicalInstance(frame, "d", frame.state([]), frame.masks("x"))
    assert solve(dead, BFS_CONFIG).status is SolveStatus.PROVED_UNSOLVABLE


def dead_end_cases(rng):
    """(variant, compiled): random PN and positive-only synthesis, each with
    and without forward gotos, and the validation of random programs, whose
    gotos go both ways."""
    for _ in range(80):
        frame = random_frame(rng, rng.randint(2, 4), rng.randint(1, 3))
        n, forward = rng.randint(1, 3), rng.random() < 0.5
        labels = [Label.POSITIVE] + [Label.NEGATIVE] * rng.randint(0, 2)
        problem = random_generalized_problem(rng, frame, 0, labels)
        yield ("pn", forward), compile_synthesis_pn(problem, n, allow_forward_gotos=forward)
        problem = random_generalized_problem(rng, frame, 0, [Label.POSITIVE] * rng.randint(1, 2))
        yield ("positive", forward), compile_synthesis_positive(
            problem, n, allow_forward_gotos=forward
        )
    for _ in range(100):
        program, problem, _ = random_validation_case(rng)
        yield ("validation", None), compile_validation(problem, program)
    # A chain f0 -> f3 whose actions stand in reverse order, so the base
    # closure needs one pass over the actions per link. The loop reaches its
    # goto with f0 and f1 true, and f3 is reachable.
    b = FrameBuilder()
    for k in range(4):
        b.fluent(f"f{k}")
    for k in (2, 1, 0):
        b.action(f"s{k}", cond=[([f"f{k}"], [f"f{k + 1}"])])
    frame = b.build()
    chain = GeneralizedProblem(frame, (ClassicalInstance(frame, "t", 1, frame.masks("f3")),))
    program = parse_program("0. s2\n1. s1\n2. s0\n3. goto(0,!f3)\n4. end\n")
    yield ("chain", None), compile_validation(chain, program)


def unread_bits(compiled, state):
    """The compiled bits that the dead-end test does not read at ``state``,
    where exactly one ``pc`` bit is set: the instance counters, the loop
    gadget and the lines after the running one."""
    ids = compiled.frame.fluent_id
    i = next(k for k in range(compiled.lines + 1) if state >> ids(f"pc_{k}") & 1)
    mask = 0
    for f in range(compiled.dead_end.base.width, compiled.frame.width):
        kind, _, rest = compiled.frame.fluents[f].partition("_")
        read = int(rest.split("_")[0]) <= i if kind == "ins" else kind in ("pc", "done", "negex")
        if not read:
            mask |= 1 << f
    return mask


class TestDeadEndTest:
    def test_fires_only_where_h_add_is_infinite(self):
        # At BFS-reachable states; where the test fires, also at every state
        # one read bit away, and twice with the bits it does not read drawn
        # at random, which must not change its answer.
        rng = random.Random(47)
        fired = Counter()
        for key, compiled in dead_end_cases(rng):
            dead = compiled.dead_end.predicate()
            heuristic = planner._HAdd(compiled.frame, compiled.goal)
            for state in bfs_states(compiled, 40):
                if not dead(state):
                    continue
                assert heuristic.value(state) == INF
                fired[key] += 1
                unread = unread_bits(compiled, state)
                for f in range(compiled.frame.width):
                    neighbour = state ^ 1 << f
                    if not unread >> f & 1 and dead(neighbour):
                        assert heuristic.value(neighbour) == INF
                        fired["neighbour"] += 1
                for _ in range(2):
                    mutant = state ^ (rng.getrandbits(compiled.frame.width) & unread)
                    assert dead(mutant) and heuristic.value(mutant) == INF
        keys = [(v, f) for v in ("pn", "positive") for f in (False, True)]
        for key in keys + [("validation", None), "neighbour"]:
            assert fired[key], (key, fired)

    def test_skips_h_add_during_gbfs_on_robopainter(self, monkeypatch):
        # A small criterion-6 task: GBFS evaluates fewer states with h_add
        # than it counts, and the search is the one h_add alone makes.
        task = build_task("robopainter", [InstanceSpec(2), InstanceSpec(1, Label.NEGATIVE)])
        compiled = compile_synthesis_pn(task, 3, allow_forward_gotos=False)
        alone = solve(replace(compiled, dead_end=None), SearchConfig()).stats
        calls = Counter()
        value = planner._HAdd.value

        def counted(self, bits):
            calls["h_add"] += 1
            return value(self, bits)

        monkeypatch.setattr(planner._HAdd, "value", counted)
        stats = solve(compiled, SearchConfig()).stats
        assert (stats.expansions, stats.generated, stats.evaluations, stats.dead_ends) == (
            alone.expansions, alone.generated, alone.evaluations, alone.dead_ends
        )
        decided = 1 + stats.evaluations - calls["h_add"]  # the start state is evaluated too
        assert 0 < decided <= stats.dead_ends
