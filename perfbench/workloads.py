"""The benchmark's workloads: seeded inputs, job lists and output oracles.

Each workload is a list of jobs that call gpsyn's public functions in the
order ``gpsyn.cli`` calls them for one command (``synth``, ``validate --mode
both``, ``eval``). A job's ``run`` is the timed pipeline; its ``check`` is
untimed and compares the output against answers that do not come from the
code being timed: closed-form outcomes of each program on each instance,
derived from how the domains and the faulty programs are built.

The seed only decides labels, the order of instances within a set and the
order of jobs within a pass. Sizes are fixed multisets, so every seed asks
for about the same amount of work and the spread across seeds is the
machine's, not the inputs'.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from gpsyn import compiler, evaluation, interpreter, jsonio, model, planner
from gpsyn.domains import InstanceSpec, build_task, generate_instance, reference_program
from gpsyn.model import Label
from gpsyn.program import format_program, parse_program

# Every search and every execution runs under an explicit budget; a job that
# exhausts one fails. The largest search any job needs at this commit is
# about 2,400 GBFS expansions and 60,000 BFS expansions.
SYNTH_CONFIG = planner.SearchConfig(max_expansions=50_000, max_seconds=60.0)
VALIDATE_CONFIG = planner.SearchConfig(
    strategy=planner.Strategy.BFS,
    heuristic=planner.Heuristic.BLIND,
    max_expansions=1_000_000,
    max_seconds=60.0,
)
STATE_CAP = 100_000

INCOMPLETE = "incomplete"
INAPPLICABLE = "inapplicable"
INFINITE_LOOP = "infinite_loop"


# --------------------------------------------------------------------------
# Candidate programs and their closed-form outcomes.

FAULTY_TEXT = {
    # Decrements before adding: leaves tri(n - 1) in A.
    ("trisum", "dec_first"): "0. dec_b\n1. add_b_to_a\n2. goto(0,!zero_b)\n3. end",
    # Never decrements: A saturates at the frame bound and the state repeats.
    ("trisum", "no_dec"): "0. add_b_to_a\n1. goto(0,!zero_b)\n2. end",
    # Steps off the head before the first visit.
    ("list", "skip_first"): "0. next\n1. visit\n2. goto(0,!tail_visited)\n3. end",
    ("list", "visit_loop"): "0. visit\n1. goto(0,!tail_visited)\n2. end",
    # Leaves the last cell unpainted, which matters only on odd corridors.
    ("robopainter", "no_final_paint"): "0. paint\n1. inc\n2. goto(0,!at_end)\n3. end",
    ("robopainter", "paint_loop"): "0. paint\n1. goto(0,!at_end)\n2. end",
    # Never walks back, so the second pick finds the robot in room B.
    ("gripper", "no_move_back"):
        "0. pick_left\n1. move\n2. drop_left\n3. goto(0,!a_empty)\n4. end",
    # Ends holding the last ball; held_right_1 never holds, so line 6 always jumps.
    ("gripper", "keep_last"):
        "0. pick_left\n1. goto(3,!a_empty)\n2. end\n3. move\n4. drop_left\n"
        "5. move\n6. goto(0,!held_right_1)\n7. end",
    # Unstacks again with a full hand unless the green block is on top.
    ("greenblock", "no_drop"): "0. unstack\n1. goto(0,!hold_green)\n2. collect\n3. end",
    # Digs to the green block but never collects it.
    ("greenblock", "no_collect"):
        "0. unstack\n1. goto(4,!hold_green)\n2. end\n3. end\n4. drop\n"
        "5. goto(0,!hold_green)\n6. end",
}


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def _ended(solved: bool) -> tuple[bool, str | None]:
    return (True, None) if solved else (False, INCOMPLETE)


_LOOP = (False, INFINITE_LOOP)
_STUCK = (False, INAPPLICABLE)

# (domain, program) -> outcome(size, positive, green position). The reference
# programs reach every positive goal, and every negative goal is one the
# intended run misses. Green Block sets use heights >= 2, because a smaller
# tower in a taller frame never sets tower_empty, which the height-1
# negative's goal asks for.
ORACLE = {
    ("trisum", "reference"): lambda n, pos, aux: _ended(pos),
    ("trisum", "dec_first"): lambda n, pos, aux: _ended(
        _tri(n - 1) == (_tri(n) if pos else _tri(n) - 1)
    ),
    ("trisum", "no_dec"): lambda n, pos, aux: _LOOP,
    ("list", "reference"): lambda n, pos, aux: _ended(pos),
    ("list", "skip_first"): lambda n, pos, aux: _ended(pos and n == 1),
    ("list", "visit_loop"): lambda n, pos, aux: _ended(pos) if n == 1 else _LOOP,
    ("robopainter", "reference"): lambda n, pos, aux: _ended(pos),
    ("robopainter", "no_final_paint"): lambda n, pos, aux: _ended(
        pos and (n == 1 or n % 2 == 0)
    ),
    ("robopainter", "paint_loop"): lambda n, pos, aux: _ended(pos) if n == 1 else _LOOP,
    ("gripper", "reference"): lambda n, pos, aux: _ended(pos),
    ("gripper", "no_move_back"): lambda n, pos, aux: _ended(pos) if n == 1 else _STUCK,
    ("gripper", "keep_last"): lambda n, pos, aux: _ended(False),
    ("greenblock", "reference"): lambda n, pos, aux: _ended(pos),
    ("greenblock", "no_drop"): lambda n, pos, aux: _ended(pos) if aux == 1 else _STUCK,
    ("greenblock", "no_collect"): lambda n, pos, aux: _ended(False),
}


def program_text(domain: str, key: str) -> str:
    if key == "reference":
        return format_program(reference_program(domain))
    return FAULTY_TEXT[(domain, key)]


def expected_outcomes(domain: str, key: str, specs) -> list[tuple[bool, str | None]]:
    oracle = ORACLE[(domain, key)]
    return [
        oracle(s.size, s.label is Label.POSITIVE, s.aux if s.aux is not None else s.size)
        for s in specs
    ]


def _kind(outcome) -> str | None:
    """Failure kind of an interpreter outcome or a decoded trace outcome."""
    return outcome.failure.value if outcome.failure else None


def _program_hash(program) -> str:
    return hashlib.sha256(format_program(program).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Inputs.

@dataclass(frozen=True)
class Input:
    """One problem file, generated as ``gpsyn gen`` would write it."""

    key: str
    domain: str
    specs: tuple[InstanceSpec, ...]
    path: Path


def labeled_set(rng, domain, anchor, rest, *, negatives=None, aux=None):
    """An anchor positive at the largest size first (as ``gpsyn gen`` puts
    it), then ``rest`` in seeded order with seeded labels.

    ``negatives`` fixes how many of ``rest`` are negative (the seed picks
    which); otherwise each is negative with probability 1/2. ``aux`` gives a
    green position per entry of ``rest``, shuffled along with it.
    """
    rest = list(zip(rest, aux if aux is not None else [None] * len(rest)))
    rng.shuffle(rest)
    if negatives is None:
        labels = [Label.NEGATIVE if rng.random() < 0.5 else Label.POSITIVE for _ in rest]
    else:
        chosen = set(rng.sample(range(len(rest)), negatives))
        labels = [Label.NEGATIVE if i in chosen else Label.POSITIVE for i in range(len(rest))]
    specs = [InstanceSpec(anchor)]
    specs += [InstanceSpec(size, label, aux=a) for (size, a), label in zip(rest, labels)]
    return tuple(specs)


# --------------------------------------------------------------------------
# Jobs.

class SynthJob:
    """``gpsyn synth --backward-gotos-only``: load, compile_synthesis_pn,
    GBFS with h_add, decode_program, re-validate.

    The check runs the program on held-out sizes 1..10 with the oracle goals
    of acceptance criterion 5; ``solves(size)`` says which it must solve.
    """

    def __init__(self, inp: Input, lines: int, oracle_goal, solves):
        self.inp = inp
        self.name = f"synth:{inp.key}"
        self.lines = lines
        self.oracle_goal = oracle_goal
        self.solves = solves

    def run(self, tr):
        problem = _load(tr, self.inp)
        with tr.span("compiler.compile") as sp:
            compiled = compiler.compile_synthesis_pn(
                problem, self.lines, allow_forward_gotos=False
            )
        sp.note(**_ir_size(compiled))
        result = _solve(tr, compiled, SYNTH_CONFIG)
        if not result.solved:
            return problem, compiled, result, None, None
        with tr.span("compiler.decode"):
            decoded = compiler.decode_program(result.plan.actions, compiled)
        report = interpreter.validate_program(decoded.program, problem, state_cap=STATE_CAP)
        return problem, compiled, result, decoded.program, report

    def check(self, out):
        problem, compiled, result, program, report = out
        fp = {"status": result.status.value, **_search_counts(result)}
        if program is None:
            return fp, [f"search ended {result.status.value}"], 0
        fp["program"] = _program_hash(program)
        fp["steps"] = [o.steps for o in report.outcomes]
        fp["outcomes"] = [_kind(o) for o in report.outcomes]
        problems = []
        if not report.passed:
            problems.append("decoded program fails re-validation")
        for size in range(1, 11):
            held_out = generate_instance(
                self.inp.domain, InstanceSpec(size, goal_override=self.oracle_goal(size))
            )
            solved = interpreter.execute(program, held_out, state_cap=STATE_CAP).solved
            if solved != self.solves(size):
                problems.append(f"held-out size {size}: solved={solved}")
        return fp, problems, 1

    def probe(self, tr, out):
        _, compiled, result, _, _ = out
        with tr.span("planner.hadd_call"):
            planner.h_add(compiled.init, compiled)
        _replay(tr, compiled, result)


class ValidateJob:
    """``gpsyn validate --mode both``: load, parse, direct validation, then
    compile_validation, BFS and decode_trace."""

    def __init__(self, inp: Input, program_key: str):
        self.inp = inp
        self.key = program_key
        self.name = f"validate:{inp.key}:{program_key}"
        self.text = program_text(inp.domain, program_key)

    def run(self, tr):
        problem = _load(tr, self.inp)
        program = parse_program(self.text)
        direct = interpreter.validate_program(program, problem, state_cap=STATE_CAP)
        with tr.span("compiler.compile") as sp:
            compiled = compiler.compile_validation(problem, program)
        sp.note(**_ir_size(compiled))
        result = _solve(tr, compiled, VALIDATE_CONFIG)
        traces = None
        if result.solved:
            with tr.span("compiler.decode"):
                traces = compiler.decode_trace(result.plan.actions, compiled)
        return problem, direct, compiled, result, traces

    def check(self, out):
        problem, direct, compiled, result, traces = out
        got = [(o.solved, _kind(o)) for o in direct.outcomes]
        fp = {
            "status": result.status.value,
            **_search_counts(result),
            "steps": [o.steps for o in direct.outcomes],
            "outcomes": [k for _, k in got],
        }
        problems = []
        if result.status is planner.SolveStatus.RESOURCE_EXHAUSTED:
            problems.append("compiled validation exhausted its budget")
        expected = expected_outcomes(self.inp.domain, self.key, self.inp.specs)
        if got != expected:
            problems.append(f"direct outcomes {got} != expected {expected}")
        should_pass = all(
            solved == (s.label is Label.POSITIVE)
            for (solved, _), s in zip(expected, self.inp.specs)
        )
        if self.key == "reference" and not should_pass:
            problems.append("construction error: reference program must pass")
        if direct.passed != should_pass:
            problems.append(f"direct verdict {direct.passed}, expected {should_pass}")
        if result.solved != direct.passed:
            problems.append(f"compiled verdict {result.solved} != direct {direct.passed}")
        if traces is not None:
            decoded = [(t.instance_name, t.solved, _kind(t)) for t in traces]
            names = [inst.name for inst in problem.instances]
            if decoded != [(n, s, k) for n, (s, k) in zip(names, got)]:
                problems.append("decoded compiled trace disagrees with direct outcomes")
        return fp, problems, 1

    def probe(self, tr, out):
        _, _, compiled, result, _ = out
        _replay(tr, compiled, result)


class EvalJob:
    """``gpsyn eval``: load the test set, parse, evaluate_test_set."""

    def __init__(self, inp: Input, program_key: str):
        self.inp = inp
        self.key = program_key
        self.name = f"eval:{inp.key}:{program_key}"
        self.text = program_text(inp.domain, program_key)

    def run(self, tr):
        test_set = _load(tr, self.inp)
        program = parse_program(self.text)
        with tr.span("evaluation.eval") as sp:
            report = evaluation.evaluate_test_set(program, test_set, state_cap=STATE_CAP)
        sp.note(instances=len(report.records))
        return report

    def check(self, report):
        got = [(r.outcome.solved, _kind(r.outcome)) for r in report.records]
        c = report.counts
        fp = {
            "counts": {"p": c.p, "n": c.n, "p_minus": c.p_minus, "n_minus": c.n_minus},
            "steps": [r.outcome.steps for r in report.records],
            "outcomes": [k for _, k in got],
        }
        expected = expected_outcomes(self.inp.domain, self.key, self.inp.specs)
        want = dict.fromkeys(fp["counts"], 0)
        for (solved, _), spec in zip(expected, self.inp.specs):
            if spec.label is Label.POSITIVE:
                want["p" if solved else "n_minus"] += 1
            else:
                want["p_minus" if solved else "n"] += 1
        problems = []
        if got != expected:
            problems.append(f"outcomes {got} != expected {expected}")
        if fp["counts"] != want:
            problems.append(f"confusion counts {fp['counts']} != expected {want}")
        return fp, problems, len(report.records)

    def probe(self, tr, out):
        pass


def _load(tr, inp: Input):
    with tr.span("jsonio.load") as sp:
        problem = jsonio.load_problem(inp.path)
    sp.note(bytes=inp.path.stat().st_size)
    return problem


def _solve(tr, compiled, config):
    with tr.span("planner.solve") as sp:
        result = planner.solve(compiled, config)
    sp.note(**_search_counts(result))
    return result


def _replay(tr, compiled, result) -> None:
    """Probe: replay the returned plan as ``solve`` does before returning it."""
    if result.solved:
        with tr.span("model.replay"):
            model.validate_sequential_plan(compiled, result.plan.actions)


def _ir_size(compiled) -> dict:
    actions = compiled.frame.actions
    return {
        "fluents": compiled.frame.width,
        "actions": len(actions),
        "effects": sum(len(a.cond) for a in actions),
    }


def _search_counts(result) -> dict:
    return {
        "expansions": result.stats.expansions,
        "generated": result.stats.generated,
        "plan_len": len(result.plan.actions) if result.plan else 0,
    }


# --------------------------------------------------------------------------
# Workloads.

class Workload:
    """Seeded inputs plus the fixed job list of one pass.

    ``warmup`` names the job run once per set-up, before any pass is timed.
    """

    name: str
    warmup: str

    def __init__(self, seed: int, input_dir: Path):
        self.rng = random.Random(seed)
        self.dir = input_dir
        self.inputs: list[Input] = []
        self.jobs: list = []

    def _input(self, key, domain, specs) -> Input:
        inp = Input(key, domain, tuple(specs), self.dir / f"{key}.json")
        self.inputs.append(inp)
        return inp


def _oracle_trisum(size):
    return (f"val_a_{_tri(size)}",)


def _oracle_list(size):
    return tuple(f"visited_{i}" for i in range(1, size + 1))


def _oracle_robopainter(size):
    return tuple(f"painted_{x}" for x in range(1, size + 1, 2)) + (f"at_{size}",)


class SynthPN(Workload):
    """The synthesis tasks of acceptance criteria 5 and 6."""

    name = "synth-pn"
    warmup = "synth:list"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        neg = Label.NEGATIVE
        every_size = lambda size: True
        # Criterion 6: the 6x1 positive and 1x1 negative force the loop that
        # runs its body at least once (paint, inc, inc), which leaves the
        # last cell of an odd corridor longer than 1 unpainted.
        loop_after_body = lambda size: size == 1 or size % 2 == 0
        tasks = [
            ("trisum", "trisum", 3, [InstanceSpec(2), InstanceSpec(4), InstanceSpec(4, neg)],
             _oracle_trisum, every_size),
            ("list", "list", 3, [InstanceSpec(2), InstanceSpec(4), InstanceSpec(3, neg)],
             _oracle_list, every_size),
            ("robopainter-5", "robopainter", 5,
             [InstanceSpec(2), InstanceSpec(5), InstanceSpec(1, neg)], _oracle_robopainter,
             every_size),
            ("robopainter-6", "robopainter", 5,
             [InstanceSpec(2), InstanceSpec(6), InstanceSpec(1, neg)], _oracle_robopainter,
             loop_after_body),
        ]
        for key, domain, lines, specs, goal, solves in tasks:
            self.jobs.append(SynthJob(self._input(key, domain, specs), lines, goal, solves))
        self.rng.shuffle(self.jobs)


# domain -> (anchor size, other sizes, faulty program). Each faulty program
# fails the anchor only at the end of its run, so BFS has to exhaust the
# anchor's whole execution before it can prove the set unsolvable.
VALIDATE_SETS = {
    "robopainter": (31, [24, 19, 14, 9, 6, 4, 2], "no_final_paint"),
    "list": (30, [24, 19, 14, 9, 6, 4, 2], "skip_first"),
    "trisum": (12, [10, 8, 6, 5, 4, 3, 2], "dec_first"),
    "gripper": (12, [10, 8, 6, 5, 4, 3, 2], "keep_last"),
    "greenblock": (12, [10, 8, 6, 5, 4, 3, 2], "no_collect"),
}


class ValidateBoth(Workload):
    """Reference and faulty programs validated directly and through the
    compiled encoding, on mixed-label sets of five domains."""

    name = "validate-both"
    warmup = "validate:trisum:reference"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        for domain, (anchor, rest, faulty) in VALIDATE_SETS.items():
            # Half the others are negative: labels change the compiled search
            # space, so a fixed count keeps the work alike across seeds.
            specs = labeled_set(self.rng, domain, anchor, rest, negatives=len(rest) // 2)
            inp = self._input(domain, domain, specs)
            self.jobs += [ValidateJob(inp, "reference"), ValidateJob(inp, faulty)]
        self.rng.shuffle(self.jobs)


# key -> (domain, anchor size, other sizes, green positions or None, faulty
# programs). The Trisum set is the wide-action part: its frame is sized for
# 30, so add_b_to_a has 13.5k conditional effects that every step scans. The
# other sets are the long-run part: many cheap steps over small actions.
EVAL_SETS = {
    "trisum": ("trisum", 30, [27, 24, 21, 18, 15, 12, 10, 8, 6, 5], None,
               ["dec_first", "no_dec"]),
    "list": ("list", 200, [190, 175, 160, 140, 120, 100, 80, 60, 40, 20, 10, 1] * 3, None,
             ["skip_first", "visit_loop"]),
    "robopainter": ("robopainter", 200, [195, 180, 165, 150, 125, 100, 75, 50, 25, 2, 1] * 3,
                    None, ["no_final_paint", "paint_loop"]),
    "gripper": ("gripper", 40, [38, 35, 30, 25, 20, 15, 10, 5, 2, 1] * 2, None,
                ["no_move_back", "keep_last"]),
    "greenblock": ("greenblock", 30, [30, 28, 25, 20, 15, 10, 6, 3] * 2,
                   [1, 2, 3, 10, 15, 5, 6, 3, 30, 14, 5, 1, 7, 9, 2, 3],
                   ["no_drop", "no_collect"]),
}


class EvalTestset(Workload):
    """Reference and faulty programs scored on large labeled test sets."""

    name = "eval-testset"
    warmup = "eval:greenblock:reference"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        for key, (domain, anchor, rest, aux, faulty) in EVAL_SETS.items():
            inp = self._input(key, domain, labeled_set(self.rng, domain, anchor, rest, aux=aux))
            self.jobs += [EvalJob(inp, k) for k in ["reference", *faulty]]
        self.rng.shuffle(self.jobs)


WORKLOADS = {w.name: w for w in (SynthPN, ValidateBoth, EvalTestset)}


def generate(inp: Input, tr) -> int:
    """``gpsyn gen``: build the task and write its problem file. Returns the
    number of conditional effects in the frame."""
    with tr.span("domains.build") as sp:
        problem = build_task(inp.domain, list(inp.specs))
    effects = sum(len(a.cond) for a in problem.frame.actions)
    sp.note(effects=effects)
    with tr.span("jsonio.dump"):
        jsonio.dump_problem(problem, inp.path)
    return effects
