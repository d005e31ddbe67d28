"""Ground PDDL export.

Output is fully ground: every fluent becomes a 0-ary predicate, every action
a parameterless action. Requirements are ``:strips :negative-preconditions
:conditional-effects``. Action and fluent names are written verbatim (a
compiled action's name is its decode role's ``Role.name``); a name that is
not PDDL-safe is a :class:`ParseError`.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError
from .model import NAME, Frame, bit_ids

_REQUIREMENTS = (":strips", ":negative-preconditions", ":conditional-effects")


def _check_name(name: str) -> str:
    if not NAME.fullmatch(name) or name[0].isdigit():
        raise ParseError(f"name {name!r} is not PDDL-safe")
    return name


def _literal_sexp(frame: Frame, pos: int, neg: int) -> str:
    return " ".join(
        f"(not ({text[1:]}))" if text.startswith("!") else f"({text})"
        for text in frame.texts(pos, neg)
    )


def write_domain(frame: Frame, domain_name: str = "gpsyn-domain") -> str:
    lines = [f"(define (domain {_check_name(domain_name)})"]
    lines.append(f"  (:requirements {' '.join(_REQUIREMENTS)})")
    preds = " ".join(f"({_check_name(name)})" for name in frame.fluents)
    lines.append(f"  (:predicates {preds})")
    for act in frame.actions:
        lines.append(f"  (:action {_check_name(act.name)}")
        lines.append("    :parameters ()")
        lines.append(f"    :precondition (and {_literal_sexp(frame, *act.pre)})")
        effs = []
        for cpos, cneg, epos, eneg in act.cond:
            then = _literal_sexp(frame, epos, eneg)
            if cpos | cneg:
                effs.append(f"(when (and {_literal_sexp(frame, cpos, cneg)}) (and {then}))")
            else:
                effs.append(then)
        lines.append(f"    :effect (and {' '.join(effs)})")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def write_problem(
    problem,
    problem_name: str = "gpsyn-problem",
    domain_name: str = "gpsyn-domain",
) -> str:
    """``problem`` needs frame/init/goal (classical or compiled instance)."""
    frame = problem.frame
    lines = [f"(define (problem {_check_name(problem_name)})"]
    lines.append(f"  (:domain {_check_name(domain_name)})")
    init = " ".join(f"({frame.fluents[f]})" for f in bit_ids(problem.init))
    lines.append(f"  (:init {init})")
    lines.append(f"  (:goal (and {_literal_sexp(frame, *problem.goal)}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def export_files(frame: Frame, problems, out_dir) -> list[Path]:
    """Write ``domain.pddl`` and one ``<name>.pddl`` per problem, each text
    rendered before any file is written; return the paths, domain first."""
    if any(p.name == "domain" for p in problems):
        raise ParseError("a problem named 'domain' would overwrite domain.pddl")
    texts = [("domain", write_domain(frame))]
    texts += [(p.name, write_problem(p, p.name)) for p in problems]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts:
        (out / f"{name}.pddl").write_text(text)
    return [out / f"{name}.pddl" for name, _ in texts]
