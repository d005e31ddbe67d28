"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the randomized batches are seeded, so every run checks the same cases.
"""

import random
import time
from fractions import Fraction

from gpsyn import cli, jsonio
from gpsyn.compiler import (
    compile_synthesis_pn,
    compile_validation,
    decode_program,
    decode_trace,
)
from gpsyn.domains import InstanceSpec, build_task, generate_instance
from gpsyn.evaluation import ConfusionCounts, compute_metrics, format_metric
from gpsyn.interpreter import FailureKind, ProgramState, execute, validate_program
from gpsyn.model import ClassicalInstance, GeneralizedProblem, Label
from gpsyn.planner import BFS_CONFIG, SearchConfig, SolveStatus, solve
from gpsyn.program import (
    ActInstruction,
    EndInstruction,
    GotoInstruction,
    Program,
    parse_program,
)
from helpers import (
    END,
    random_frame,
    random_program,
    random_state,
    random_validation_case,
    reference_step,
)


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


# Criterion 8 reuses the plans produced while checking criterion 2.
_equivalence_store: dict = {"attributions": None}


# -------------------------------------------------------------------- 1 ----

def test_criterion_1_figure_one_reproduction(
    corridor_task, straight_program, loop_from_start_program, loop_after_body_program
):
    t0 = time.monotonic()
    outcomes = {
        name: [execute(prog, inst) for inst in corridor_task.instances]
        for name, prog in [
            ("straight", straight_program),
            ("loop_from_start", loop_from_start_program),
            ("loop_after_body", loop_after_body_program),
        ]
    }
    elapsed = time.monotonic() - t0

    # straight solves only the 2x1; the 6x1 fails as an incomplete program
    assert [o.solved for o in outcomes["straight"]] == [True, False, False]
    assert outcomes["straight"][1].failure is FailureKind.INCOMPLETE
    # the immediately-accepting loop solves all three, covering the negative
    assert [o.solved for o in outcomes["loop_from_start"]] == [True, True, True]
    assert not validate_program(loop_from_start_program, corridor_task).passed
    # the at-least-once loop solves both positives and fails the negative
    assert [o.solved for o in outcomes["loop_after_body"]] == [True, True, False]
    assert validate_program(loop_after_body_program, corridor_task).passed
    assert elapsed < 1.0
    report(1, f"figure-1 outcomes reproduced exactly in {elapsed:.3f}s")


# -------------------------------------------------------------------- 2 ----

def run_equivalence_batch(n_cases: int, seed: int = 20240817):
    rng = random.Random(seed)
    attributions = []
    kinds_seen = {kind: 0 for kind in FailureKind}
    passed_seen = failed_seen = 0
    for _ in range(n_cases):
        program, problem, outcomes = random_validation_case(
            rng, max_fluents=8, max_lines=3, max_instances=3, max_steps=80
        )
        direct = validate_program(program, problem)
        compiled = compile_validation(problem, program)
        result = solve(compiled, BFS_CONFIG)
        assert result.status is not SolveStatus.RESOURCE_EXHAUSTED
        assert result.solved == direct.passed, (
            f"oracle disagreement: interpreter={direct.passed} "
            f"compiled={result.status}"
        )
        if direct.passed:
            passed_seen += 1
        else:
            failed_seen += 1
        for out in outcomes:
            if out.failure is not None:
                kinds_seen[out.failure] += 1
        if result.solved:
            trace = decode_trace(result.plan.actions, compiled)
            for t_out, i_out in zip(trace, outcomes):
                attributions.append((t_out, i_out))
    # the random batch must exercise both verdicts and all failure sources
    assert passed_seen >= 20 and failed_seen >= 20
    assert all(count >= 5 for count in kinds_seen.values()), kinds_seen
    return attributions, passed_seen, failed_seen


def test_criterion_2_validation_oracle_equivalence():
    t0 = time.monotonic()
    attributions, passed_seen, failed_seen = run_equivalence_batch(500)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _equivalence_store["attributions"] = attributions
    report(
        2,
        f"500/500 randomized cases agree (pass={passed_seen}, fail={failed_seen}) "
        f"in {elapsed:.1f}s",
    )


# -------------------------------------------------------------------- 3 ----

def _terminal_state(program: Program, frame, init, cap: int = 300):
    ps = ProgramState(init, 0)
    seen = set()
    for _ in range(cap):
        if ps in seen:
            return None
        seen.add(ps)
        nxt = reference_step(program, frame, ps)
        if nxt is END:
            return ps.bits
        if not isinstance(nxt, ProgramState):
            return None
        ps = nxt
    return None


def _random_synthesis_case(rng: random.Random):
    """A tiny labeled task guaranteed solvable: a hidden random program
    witnesses every positive and fails every negative by construction."""
    while True:
        frame = random_frame(rng, rng.randint(2, 4), rng.randint(1, 2))
        n = rng.randint(1, 2)
        hidden = random_program(rng, frame, n)
        instances = []
        ok = True
        for p in range(rng.randint(1, 2)):
            init = random_state(rng, frame)
            final = _terminal_state(hidden, frame, init)
            if final is None:
                ok = False
                break
            names = rng.sample(frame.fluents, rng.randint(1, 2))
            goal = frame.masks(
                *[nm if final >> frame.fluent_id(nm) & 1 else "!" + nm for nm in names]
            )
            instances.append(ClassicalInstance(frame, f"pos{p}", init, goal))
        if not ok:
            continue
        if rng.random() < 0.7:
            init = random_state(rng, frame)
            final = _terminal_state(hidden, frame, init)
            if final is None:
                goal = frame.masks(frame.fluents[0])
            else:
                nm = rng.choice(frame.fluents)
                goal = frame.masks(
                    "!" + nm if final >> frame.fluent_id(nm) & 1 else nm
                )
            instances.append(
                ClassicalInstance(frame, "neg", init, goal, Label.NEGATIVE)
            )
        problem = GeneralizedProblem(frame, tuple(instances))
        if not validate_program(hidden, problem).passed:
            continue
        return problem, n


def test_criterion_3_soundness_of_pn_synthesis():
    rng = random.Random(77)
    t0 = time.monotonic()
    found = attempts = 0
    while found < 100:
        attempts += 1
        assert attempts <= 250, "too many unsolved synthesis attempts"
        problem, n = _random_synthesis_case(rng)
        compiled = compile_synthesis_pn(problem, n)
        result = solve(compiled, SearchConfig(max_expansions=30000))
        if not result.solved:
            continue
        found += 1
        decoded = decode_program(result.plan.actions, compiled)
        assert validate_program(decoded.program, problem).passed, (
            f"decoded program does not validate on attempt {attempts}"
        )
    report(
        3,
        f"{found} plans decoded and re-validated without exception "
        f"({attempts} instances, {time.monotonic() - t0:.1f}s)",
    )


# -------------------------------------------------------------------- 4 ----

def test_criterion_4_completeness_at_tiny_scale():
    # Frame: two fluents, two setters. Positive wants p, negative wants q.
    from gpsyn.model import FrameBuilder

    b = FrameBuilder()
    b.fluent("p"), b.fluent("q")
    b.action("set_p", cond=[([], ["p"])])
    b.action("set_q", cond=[([], ["q"])])
    frame = b.build()
    pos = ClassicalInstance(frame, "pos", frame.state([]), frame.masks("p"))
    neg = ClassicalInstance(
        frame, "neg", frame.state([]), frame.masks("q"), Label.NEGATIVE
    )
    problem = GeneralizedProblem(frame, (pos, neg))
    alphabet = [
        ActInstruction("set_p"),
        ActInstruction("set_q"),
        GotoInstruction(0, "p"),
        EndInstruction(),
    ]
    n = 2  # two free lines, line 2 fixed to end
    compiled = compile_synthesis_pn(problem, n, instruction_whitelist=alphabet)

    passers = checked = 0
    for w0 in alphabet:
        for w1 in alphabet:
            program = Program((w0, w1, EndInstruction()))
            if not validate_program(program, problem).passed:
                continue
            passers += 1
            result = solve(compiled, BFS_CONFIG)
            assert result.solved, (
                f"program {program} validates but compiled task is unsolvable"
            )
            checked += 1
    assert passers >= 1  # e.g. (set_p, end, end)

    # Contrapositive: with set_p removed no program can reach the positive
    # goal, and exhaustive search proves the compiled task unsolvable.
    no_way = compile_synthesis_pn(
        problem, n,
        instruction_whitelist=[ActInstruction("set_q"), GotoInstruction(0, "p"), EndInstruction()],
    )
    assert solve(no_way, BFS_CONFIG).status is SolveStatus.PROVED_UNSOLVABLE
    report(4, f"{passers} validating programs, compiled task solvable for each "
              f"({checked} checks); restricted alphabet proved unsolvable")


# -------------------------------------------------------------------- 5 ----

def _synthesize_via_cli(tmp_path, name, domain, specs, lines):
    problem_path = tmp_path / f"{name}.json"
    jsonio.dump_problem(build_task(domain, specs), problem_path)
    out_path = tmp_path / f"{name}.txt"
    t0 = time.monotonic()
    code = cli.main([
        "synth", "--problem", str(problem_path), "--lines", str(lines),
        "--out", str(out_path), "--backward-gotos-only", "--max-seconds", "600",
    ])
    elapsed = time.monotonic() - t0
    assert code == cli.EXIT_OK, f"{name}: synthesis exited {code}"
    assert elapsed < 600
    return parse_program(out_path.read_text()), elapsed


def _oracle_trisum_goal(size):
    return (f"val_a_{sum(range(1, size + 1))}",)


def _oracle_list_goal(size):
    walked = list(range(1, size + 1))
    return tuple(f"visited_{i}" for i in walked)


def _oracle_robopainter_goal(size):
    odd_cells = [x for x in range(1, size + 1) if x % 2 == 1]
    return tuple(f"painted_{x}" for x in odd_cells) + (f"at_{size}",)


def test_criterion_5_synthesis_end_to_end(tmp_path):
    jobs = [
        ("trisum", 3,
         [InstanceSpec(2), InstanceSpec(4), InstanceSpec(4, Label.NEGATIVE)],
         _oracle_trisum_goal),
        ("list", 3,
         [InstanceSpec(2), InstanceSpec(4), InstanceSpec(3, Label.NEGATIVE)],
         _oracle_list_goal),
        ("robopainter", 5,
         [InstanceSpec(2), InstanceSpec(5), InstanceSpec(1, Label.NEGATIVE)],
         _oracle_robopainter_goal),
    ]
    timings = []
    for domain, lines, specs, oracle_goal in jobs:
        assert len(specs) <= 5
        program, elapsed = _synthesize_via_cli(tmp_path, domain, domain, specs, lines)
        timings.append(f"{domain}={elapsed:.1f}s")
        for size in range(1, 11):
            held_out = generate_instance(
                domain, InstanceSpec(size, goal_override=oracle_goal(size))
            )
            outcome = execute(program, held_out)
            assert outcome.solved, f"{domain}: held-out size {size} unsolved"
    report(5, "synthesized and verified on held-out sizes 1..10 "
              f"({', '.join(timings)})")


# -------------------------------------------------------------------- 6 ----

def _behavior_signature(program):
    solved = []
    for size in range(1, 11):
        inst = generate_instance("robopainter", InstanceSpec(size))
        solved.append(execute(program, inst).solved)
    negative = generate_instance("robopainter", InstanceSpec(1, Label.NEGATIVE))
    solved.append(execute(program, negative).solved)
    return tuple(solved)


def test_criterion_6_negative_example_discrimination(
    tmp_path, straight_program, loop_from_start_program, loop_after_body_program
):
    # From the single 2x1 positive the search may return anything in the
    # straight/looping family; it must not already be forced into the
    # at-least-once loop's behavior.
    only_positive, _ = _synthesize_via_cli(
        tmp_path, "rp_only_pos", "robopainter", [InstanceSpec(2)], 5
    )
    sig_straight = _behavior_signature(straight_program)
    sig_loop_start = _behavior_signature(loop_from_start_program)
    sig_loop_body = _behavior_signature(loop_after_body_program)
    sig_a = _behavior_signature(only_positive)
    assert sig_a in (sig_straight, sig_loop_start)
    assert sig_a != sig_loop_body

    # Adding the 6x1 positive and the 1x1 negative forces the behavior of
    # the at-least-once loop: same outcome on every held-out size and on the
    # negative example.
    forced, _ = _synthesize_via_cli(
        tmp_path, "rp_full", "robopainter",
        [InstanceSpec(2), InstanceSpec(6), InstanceSpec(1, Label.NEGATIVE)], 5,
    )
    sig_b = _behavior_signature(forced)
    assert sig_b == sig_loop_body
    assert sig_b[-1] is False  # the negative stays unsolved
    report(6, "single positive admits the straight-line behavior; "
              "adding the 6x1 positive and 1x1 negative forces the "
              "at-least-once loop behavior on sizes 1..10")


# -------------------------------------------------------------------- 7 ----

def test_criterion_7_metrics_hand_arithmetic():
    rng = random.Random(4242)
    undefined_seen = 0
    fixed = [(0, 3, 0, 2), (0, 1, 0, 0), (5, 0, 2, 1)]
    cases = fixed + [
        tuple(rng.randint(0, 12) for _ in range(4)) for _ in range(50 - len(fixed))
    ]
    for p, n, pm, nm in cases:
        metrics = compute_metrics(ConfusionCounts(p, n, pm, nm))
        expected_pr = Fraction(p, p + pm) if p + pm else None
        expected_re = Fraction(p, p + nm) if p + nm else None
        expected_ac = Fraction(p + n, p + n + pm + nm) if p + n + pm + nm else None
        assert metrics.precision == expected_pr
        assert metrics.recall == expected_re
        assert metrics.accuracy == expected_ac
        for value in (metrics.precision, metrics.recall, metrics.accuracy):
            if value is None:
                undefined_seen += 1
                assert format_metric(value) == "-"
    assert undefined_seen > 0
    report(7, f"50 randomized counts match exact rational arithmetic; "
              f"{undefined_seen} undefined values rendered as '-'")


# -------------------------------------------------------------------- 8 ----

def test_criterion_8_failure_source_attribution():
    attributions = _equivalence_store["attributions"]
    if attributions is None:
        attributions, _, _ = run_equivalence_batch(120)
    skips = 0
    for trace_out, interp_out in attributions:
        assert trace_out.solved == interp_out.solved
        if trace_out.solved:
            continue
        skips += 1
        assert trace_out.failure == interp_out.failure, (
            f"attribution mismatch: compiled={trace_out.failure} "
            f"interpreter={interp_out.failure}"
        )
        if trace_out.failure is FailureKind.INAPPLICABLE:
            assert trace_out.line == interp_out.line
            assert trace_out.action == interp_out.action
    assert skips >= 20
    report(8, f"{skips} skip terminations all match the interpreter's "
              "failure source")
