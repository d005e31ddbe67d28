"""A reader for the ground PDDL fragment that :mod:`gpsyn.pddl` writes, kept
with the tests as a round-trip oracle for the writer.

It accepts exactly that fragment (0-ary predicates, ground actions with
conditional effects, ``:strips :negative-preconditions
:conditional-effects``), so anything the writer emits reads back. An
undeclared predicate, a duplicate name, a clashing precondition, effect or
goal, a section, requirement or action keyword outside this fragment, a
keyword with no value, a repeated ``:requirements``, ``:predicates`` or
problem section, a ``:goal`` of several formulas, or a problem whose
``:domain`` names another domain is a :class:`ParseError`.
"""

from __future__ import annotations

from functools import wraps

from gpsyn.errors import ModelError, ParseError
from gpsyn.model import ClassicalInstance, Frame, FrameBuilder, Label
from gpsyn.pddl import _REQUIREMENTS


def _tokenize(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0]
        out.extend(line.replace("(", " ( ").replace(")", " ) ").split())
    return out


def _parse_sexp(tokens: list[str], pos: int = 0):
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    items = []
    pos += 1
    while tokens[pos] != ")":
        item, pos = _parse_sexp(tokens, pos)
        items.append(item)
    return items, pos + 1


def _read_sexp(text: str):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty PDDL input")
    try:
        sexp, pos = _parse_sexp(tokens)
    except IndexError:
        raise ParseError("unbalanced parentheses in PDDL input") from None
    if pos != len(tokens):
        raise ParseError("trailing tokens after PDDL s-expression")
    return sexp


def _flatten_literals(expr) -> list[tuple[str, bool]]:
    """``(and ...)`` / ``(p)`` / ``(not (p))`` into (name, polarity) pairs."""
    if not isinstance(expr, list) or not expr:
        raise ParseError(f"expected literal expression, got {expr!r}")
    head = expr[0]
    if head == "and":
        out = []
        for sub in expr[1:]:
            out.extend(_flatten_literals(sub))
        return out
    if head == "not":
        inner = _flatten_literals(expr[1])
        if len(inner) != 1 or not inner[0][1]:
            raise ParseError(f"unsupported negation {expr!r}")
        return [(inner[0][0], False)]
    if len(expr) != 1:
        raise ParseError(f"only 0-ary predicates supported, got {expr!r}")
    return [(head, True)]


def _text(pairs: list[tuple[str, bool]]) -> list[str]:
    return [name if positive else "!" + name for name, positive in pairs]


def _model_errors_as_parse_errors(read):
    """An unknown fluent, a duplicate name or a clash in the PDDL text is a
    :class:`ParseError` of the input, as in :mod:`gpsyn.jsonio`; so is a
    form with a missing part, such as ``(define)``, or a list where a name
    belongs, which the readers meet as an ``IndexError`` or ``TypeError``."""

    @wraps(read)
    def reader(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except ModelError as exc:
            raise ParseError(f"malformed PDDL: {exc}") from exc
        except (IndexError, TypeError) as exc:
            raise ParseError(f"malformed PDDL: truncated or misshapen form ({exc})") from exc

    return reader


def _sections(sexp, kinds: tuple[str, ...]) -> list:
    """The ``(:kind ...)`` sections after a ``define`` header; a bare atom or
    a section of any other kind is a :class:`ParseError`."""
    for section in sexp[2:]:
        if not isinstance(section, list) or not section or section[0] not in kinds:
            raise ParseError(f"malformed PDDL: unsupported section {section!r}")
    return sexp[2:]


_ACTION_KEYS = (":parameters", ":precondition", ":effect")


@_model_errors_as_parse_errors
def read_domain(text: str) -> tuple[str, Frame]:
    """The domain's name and its frame."""
    sexp = _read_sexp(text)
    if sexp[0] != "define" or sexp[1][0] != "domain":
        raise ParseError("not a PDDL domain")
    domain_name = sexp[1][1]
    builder = FrameBuilder()
    actions = []
    seen = set()
    for section in _sections(sexp, (":requirements", ":predicates", ":action")):
        if section[0] == ":action":
            actions.append(section)
            continue
        if section[0] in seen:
            raise ParseError(f"malformed PDDL: repeated section {section[0]}")
        seen.add(section[0])
        if section[0] == ":requirements":
            unsupported = [req for req in section[1:] if req not in _REQUIREMENTS]
            if unsupported:
                raise ParseError(f"malformed PDDL: unsupported requirements {unsupported!r}")
        else:
            for pred in section[1:]:
                if not isinstance(pred, list) or len(pred) != 1:
                    raise ParseError(f"only 0-ary predicates supported, got {pred!r}")
                builder.fluent(pred[0])
    for section in actions:
        name = section[1]
        keys, values = section[2::2], section[3::2]
        if (
            len(keys) != len(values)
            or any(key not in _ACTION_KEYS for key in keys)
            or len(set(keys)) != len(keys)
        ):
            raise ParseError(
                f"malformed PDDL: action {name!r} needs keyword/value pairs, each "
                f"of {_ACTION_KEYS} at most once, got {section[2:]!r}"
            )
        fields = dict(zip(keys, values))
        params = fields.get(":parameters", [])
        if params:
            raise ParseError(f"action {name!r}: only ground actions supported")
        pre = _text(_flatten_literals(fields[":precondition"])) if ":precondition" in fields else []
        cond = []
        effect = fields.get(":effect", ["and"])
        if effect[0] != "and":
            effect = ["and", effect]
        plain: list[tuple[str, bool]] = []
        for item in effect[1:]:
            if isinstance(item, list) and item and item[0] == "when":
                cond.append((_text(_flatten_literals(item[1])), _text(_flatten_literals(item[2]))))
            else:
                plain.extend(_flatten_literals(item))
        if plain:
            cond.insert(0, ([], _text(plain)))
        builder.action(name, pre=pre, cond=cond)
    return domain_name, builder.build()


@_model_errors_as_parse_errors
def read_problem(
    text: str, domain: tuple[str, Frame], label: Label = Label.POSITIVE
) -> ClassicalInstance:
    """The problem over ``domain``, the ``(name, frame)`` pair that
    :func:`read_domain` returns."""
    domain_name, frame = domain
    sexp = _read_sexp(text)
    if sexp[0] != "define" or sexp[1][0] != "problem":
        raise ParseError("not a PDDL problem")
    name = sexp[1][1]
    init_names: list[str] = []
    goal = (0, 0)
    seen = set()
    for section in _sections(sexp, (":domain", ":init", ":goal")):
        if section[0] in seen or section[0] != ":init" and len(section) != 2:
            raise ParseError(f"malformed PDDL: repeated section or not one value: {section!r}")
        seen.add(section[0])
        if section[0] == ":domain":
            if section[1] != domain_name:
                raise ParseError(
                    f"malformed PDDL: problem for domain {section[1]!r}, not {domain_name!r}"
                )
        elif section[0] == ":init":
            for item in section[1:]:
                pairs = _flatten_literals(item)
                if len(pairs) != 1 or not pairs[0][1]:
                    raise ParseError(f"unsupported init literal {item!r}")
                init_names.append(pairs[0][0])
        elif section[0] == ":goal":
            goal = frame.masks(*_text(_flatten_literals(section[1])))
    return ClassicalInstance(frame, name, frame.state(init_names), goal, label)

