"""Command-line front end.

Subcommands: ``gen`` (emit labeled problem files), ``synth`` (synthesize a
program from labeled instances), ``validate`` (check a program directly or
through the compiled encoding), ``eval`` (precision/recall/accuracy over a
test set), ``export-pddl`` (ground PDDL for external planners).

Exit codes: 0 success, 2 parse/input error, 3 proved unsolvable, 4 resource
exhausted (search budget or interpreter state cap), 5 internal consistency
failure. Every search (``synth``, compiled ``validate`` and
``gen --check-reachability``) is bounded: ``--max-seconds`` where the command
has it, otherwise :data:`DEFAULT_MAX_SECONDS` (600 s), and
``GPSYN_PLANNER_BUDGET`` sets the expansion budget when no
``--max-expansions`` is given. Every output file gets a deterministic manifest
(embedded) and a timestamped sidecar ``<output>.manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, jsonio, pddl, planner
from .compiler import (
    compile_synthesis_pn,
    compile_synthesis_positive,
    compile_validation,
    decode_program,
    decode_trace,
)
from .domains import DOMAIN_NAMES, InstanceSpec, build_task
from .errors import ExecutionResourceError, GpsynError, InternalConsistencyError, ParseError
from .evaluation import evaluate_test_set, format_metric
from .interpreter import validate_program
from .model import Label
from .planner import Heuristic, SearchConfig, SolveStatus
from .program import format_program, parse_program

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSOLVABLE = 3
EXIT_EXHAUSTED = 4
EXIT_INCONSISTENT = 5

_BUDGET_ENV = "GPSYN_PLANNER_BUDGET"
# Time budget, in seconds, of every search run without ``--max-seconds``.
DEFAULT_MAX_SECONDS = 600.0


def _manifest(command: str, arguments: dict, inputs: list, outputs: list, seed=None) -> dict:
    return {
        "tool": "gpsyn",
        "version": __version__,
        "command": command,
        "arguments": arguments,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
    }


def _write_sidecar(manifest: dict, primary_output: Path, started: float) -> None:
    sidecar = dict(manifest)
    sidecar["started_at"] = datetime.fromtimestamp(started, timezone.utc).isoformat()
    sidecar["finished_at"] = datetime.now(timezone.utc).isoformat()
    path = Path(str(primary_output) + ".manifest.json")
    path.write_text(json.dumps(sidecar, indent=2) + "\n")


def _manifest_comment(manifest: dict) -> str:
    return "".join(f"# {line}\n" for line in json.dumps(manifest, indent=2).splitlines())


class _BudgetExhausted(Exception):
    """A search ran out of budget; ``main`` maps it to exit code 4."""

    def __init__(self, stats):
        super().__init__(
            f"search budget exhausted after {stats.expansions} expansions "
            f"({stats.elapsed:.1f}s)"
        )


def _search_config(args, **fields) -> SearchConfig:
    """A search config with the ``--max-expansions`` / ``--max-seconds``
    budget of ``args``. An expansion budget not given there comes from
    ``GPSYN_PLANNER_BUDGET``, a time budget from :data:`DEFAULT_MAX_SECONDS`,
    so every search is bounded."""
    max_expansions = getattr(args, "max_expansions", None)
    text = os.environ.get(_BUDGET_ENV)
    if max_expansions is None and text:
        try:
            max_expansions = int(text)
        except ValueError:
            raise ParseError(f"{_BUDGET_ENV} must be an integer, got {text!r}") from None
    max_seconds = getattr(args, "max_seconds", None)
    if max_seconds is None:
        max_seconds = DEFAULT_MAX_SECONDS
    return SearchConfig(max_expansions=max_expansions, max_seconds=max_seconds, **fields)


def _solve(instance, config: SearchConfig):
    """``planner.solve``, raising :class:`_BudgetExhausted` when the budget
    runs out."""
    result = planner.solve(instance, config)
    if result.status is SolveStatus.RESOURCE_EXHAUSTED:
        raise _BudgetExhausted(result.stats)
    return result


def _load_program(path, frame):
    """The program at ``path``, with its names checked against ``frame``
    before any instance runs: a problem with no instances still rejects an
    unknown action or fluent."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read program file {path}: {exc}") from exc
    program = parse_program(text)
    program.check_against(frame)
    return program


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(human)


# -- gen ----------------------------------------------------------------------

def _cmd_gen(args) -> int:
    started = time.time()
    rng = random.Random(args.seed)
    specs = []
    for i in range(args.count):
        size = args.size if i == 0 else rng.randint(1, args.size)
        if args.label == "mixed":
            label = Label.POSITIVE if i == 0 or rng.random() < 0.5 else Label.NEGATIVE
        else:
            label = Label(args.label)
        aux = args.green_pos if (args.domain == "greenblock" and i == 0) else None
        specs.append(InstanceSpec(size=size, label=label, aux=aux))
    problem = build_task(args.domain, specs)
    if args.check_reachability:
        config = _search_config(args, heuristic=Heuristic.BLIND)
        for inst in problem.instances:
            if not _solve(inst, config).solved:
                raise InternalConsistencyError(
                    f"generated instance {inst.name!r} has an unreachable goal"
                )
    out = Path(args.out)
    manifest = _manifest(
        "gen",
        {
            "domain": args.domain,
            "size": args.size,
            "label": args.label,
            "count": args.count,
            "green_pos": args.green_pos,
        },
        inputs=[],
        outputs=[out],
        seed=args.seed,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    jsonio.dump_problem(problem, out, manifest)
    _write_sidecar(manifest, out, started)
    _emit(
        args,
        {"written": str(out), "instances": [i.name for i in problem.instances]},
        f"wrote {problem.t_total} instance(s) "
        f"({problem.t_positive} positive / {problem.t_negative} negative) to {out}",
    )
    return EXIT_OK


# -- synth ----------------------------------------------------------------------

def _cmd_synth(args) -> int:
    started = time.time()
    problem = jsonio.load_problem(args.problem)
    if problem.t_positive == 0:
        raise ParseError("synthesis needs at least one positive instance")
    if args.variant == "positive":
        compiled = compile_synthesis_positive(
            problem, args.lines, allow_forward_gotos=not args.backward_gotos_only
        )
    else:
        compiled = compile_synthesis_pn(
            problem, args.lines, allow_forward_gotos=not args.backward_gotos_only
        )
    config = _search_config(args, heuristic=Heuristic(args.heuristic))
    result = _solve(compiled, config)
    if result.status is SolveStatus.PROVED_UNSOLVABLE:
        print(
            f"no program with {args.lines} lines exists for this instance set "
            f"({result.stats.expansions} expansions)",
            file=sys.stderr,
        )
        return EXIT_UNSOLVABLE
    decoded = decode_program(result.plan.actions, compiled)
    report = validate_program(decoded.program, problem)
    if not report.passed:
        print("decoded program failed interpreter re-validation", file=sys.stderr)
        return EXIT_INCONSISTENT
    out = Path(args.out)
    manifest = _manifest(
        "synth",
        {
            "lines": args.lines,
            "variant": args.variant,
            "heuristic": config.heuristic.value,
            "max_expansions": config.max_expansions,
            "max_seconds": config.max_seconds,
            "backward_gotos_only": args.backward_gotos_only,
        },
        inputs=[args.problem],
        outputs=[out],
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_manifest_comment(manifest) + format_program(decoded.program))
    _write_sidecar(manifest, out, started)
    _emit(
        args,
        {
            "program": format_program(decoded.program),
            "written": str(out),
            **asdict(result.stats),
        },
        f"synthesized program ({result.stats.expansions} expansions, "
        f"{result.stats.elapsed:.1f}s), interpreter-verified, written to {out}\n"
        + format_program(decoded.program),
    )
    return EXIT_OK


# -- validate -------------------------------------------------------------------

def _outcome_row(name: str, label, outcome) -> dict:
    """One reported outcome, from an interpreter ``ExecutionOutcome`` or a
    decoded ``TraceOutcome`` (both have these fields)."""
    return {
        "instance": name,
        "label": label.value,
        "solved": outcome.solved,
        "failure": outcome.failure.value if outcome.failure else None,
        "line": outcome.line,
        "action": outcome.action,
    }


def _direct_outcomes(program, problem):
    report = validate_program(program, problem)
    outcomes = [
        _outcome_row(inst.name, inst.label, out)
        for inst, out in zip(problem.instances, report.outcomes)
    ]
    return report.passed, outcomes


def _compiled_outcomes(program, problem, args):
    if problem.t_total == 0:  # nothing to solve, nothing to fail
        return True, []
    compiled = compile_validation(problem, program)
    config = _search_config(args, heuristic=Heuristic.BLIND)
    result = _solve(compiled, config)
    if not result.solved:
        return False, None
    outcomes = [
        _outcome_row(trace.instance_name, label, trace)
        for trace, label in zip(decode_trace(result.plan.actions, compiled), compiled.labels)
    ]
    return True, outcomes


def _cmd_validate(args) -> int:
    problem = jsonio.load_problem(args.problem)
    program = _load_program(args.program, problem.frame)
    payload: dict = {"mode": args.mode}
    if args.mode in ("direct", "both"):
        passed, outcomes = _direct_outcomes(program, problem)
        payload["direct"] = {"passed": passed, "outcomes": outcomes}
    if args.mode in ("compiled", "both"):
        passed, outcomes = _compiled_outcomes(program, problem, args)
        payload["compiled"] = {"passed": passed, "outcomes": outcomes}
    if args.mode == "both":
        d, c = payload["direct"], payload["compiled"]
        agree = d["passed"] == c["passed"] and c["outcomes"] in (None, d["outcomes"])
        payload["agree"] = agree
        if not agree:
            print(json.dumps(payload, indent=2), file=sys.stderr)
            raise InternalConsistencyError("direct and compiled validation disagree")
    chosen = payload.get("direct") or payload.get("compiled")
    lines = [f"validation {'PASSED' if chosen['passed'] else 'FAILED'} (mode={args.mode})"]
    for o in chosen["outcomes"] or []:
        status = "solved" if o["solved"] else f"failed ({o['failure']})"
        lines.append(f"  {o['instance']:24s} {o['label']:9s} {status}")
    if chosen["outcomes"] is None:
        lines.append("  (compiled instance proved unsolvable; no per-instance trace)")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


# -- eval -----------------------------------------------------------------------

def _cmd_eval(args) -> int:
    started = time.time()
    test_set = jsonio.load_problem(args.testset)
    program = _load_program(args.program, test_set.frame)
    report = evaluate_test_set(program, test_set)
    records = [
        {
            **_outcome_row(rec.name, rec.label, rec.outcome),
            "classification": rec.classification.value,
        }
        for rec in report.records
    ]
    payload = {
        "counts": {
            "p": report.counts.p,
            "n": report.counts.n,
            "p_minus": report.counts.p_minus,
            "n_minus": report.counts.n_minus,
        },
        "metrics": {
            "precision": format_metric(report.metrics.precision),
            "recall": format_metric(report.metrics.recall),
            "accuracy": format_metric(report.metrics.accuracy),
        },
        "records": records,
    }
    if args.out:
        out = Path(args.out)
        manifest = _manifest(
            "eval", {}, inputs=[args.testset, args.program], outputs=[out]
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({**payload, "manifest": manifest}, indent=2) + "\n")
        _write_sidecar(manifest, out, started)
    _emit(args, payload, report.table())
    return EXIT_OK


# -- export-pddl ------------------------------------------------------------------

def _cmd_export(args) -> int:
    started = time.time()
    problem = jsonio.load_problem(args.problem)
    if args.variant == "raw":
        frame, problems = problem.frame, problem.instances
    else:
        if args.variant == "validation":
            if not args.program:
                raise ParseError("--variant validation requires --program")
            compiled = compile_validation(problem, _load_program(args.program, problem.frame))
        elif args.variant == "synth-pos":
            compiled = compile_synthesis_positive(problem, args.lines)
        else:
            compiled = compile_synthesis_pn(problem, args.lines)
        frame, problems = compiled.frame, [compiled]
    written = pddl.export_files(frame, problems, args.out_dir)
    manifest = _manifest(
        "export-pddl",
        {"variant": args.variant, "lines": args.lines},
        inputs=[args.problem] + ([args.program] if args.program else []),
        outputs=written,
    )
    _write_sidecar(manifest, written[0], started)
    _emit(
        args,
        {"written": [str(p) for p in written]},
        "wrote:\n" + "\n".join(f"  {p}" for p in written),
    )
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpsyn",
        description="Generalized planning with positive and negative examples.",
    )
    parser.add_argument("--version", action="version", version=f"gpsyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate labeled problem instances")
    p.add_argument("domain", choices=DOMAIN_NAMES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--label", choices=["positive", "negative", "mixed"], default="positive")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--green-pos", type=int, default=None, help="greenblock only")
    p.add_argument("--check-reachability", action="store_true",
                   help="exhaustively verify every goal is reachable (exponential)")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("synth", help="synthesize a program from labeled instances")
    p.add_argument("--problem", required=True)
    p.add_argument("--lines", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=["pn", "positive"], default="pn")
    p.add_argument("--heuristic", choices=[h.value for h in Heuristic], default="hadd")
    p.add_argument("--max-expansions", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--backward-gotos-only", action="store_true",
                   help="restrict goto targets to earlier lines (smaller search space)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="validate a program on labeled instances")
    p.add_argument("--problem", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--mode", choices=["direct", "compiled", "both"], default="direct")
    p.add_argument("--max-expansions", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="precision/recall/accuracy over a test set")
    p.add_argument("--testset", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--out", default=None, help="write machine-readable report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export-pddl", help="export ground PDDL")
    p.add_argument("--problem", required=True)
    p.add_argument("--variant", choices=["raw", "validation", "synth-pos", "synth-pn"],
                   default="raw")
    p.add_argument("--program", default=None)
    p.add_argument("--lines", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (_BudgetExhausted, ExecutionResourceError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_EXHAUSTED
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except GpsynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
