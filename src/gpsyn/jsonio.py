"""JSON interchange format for generalized problems.

Schema::

    {
      "frame": {
        "fluents": ["at_1", ...],
        "actions": [
          {"name": "inc",
           "pre": ["robot_at_a", "!a_empty"],
           "effects": [{"when": ["at_1"], "then": ["!at_1", "at_2"]}, ...]}
        ]
      },
      "instances": [
        {"name": "rp-2", "label": "positive",
         "init": ["at_1", "last_2"],
         "goal": ["painted_1", "at_2"]}
      ]
    }

Literals are fluent names, ``!``-prefixed for negative polarity; ``init``
lists exactly the true fluents. Round-trips preserve fluent order, action
definitions, and labels.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import ParseError
from .model import (
    ClassicalInstance,
    FrameBuilder,
    GeneralizedProblem,
    Label,
    bit_ids,
)


def problem_to_dict(problem: GeneralizedProblem, manifest: dict | None = None) -> dict:
    frame = problem.frame
    doc: dict[str, Any] = {
        "frame": {
            "fluents": list(frame.fluents),
            "actions": [
                {
                    "name": act.name,
                    "pre": frame.texts(*act.pre),
                    "effects": [
                        {"when": frame.texts(cpos, cneg), "then": frame.texts(epos, eneg)}
                        for cpos, cneg, epos, eneg in act.cond
                    ],
                }
                for act in frame.actions
            ],
        },
        "instances": [
            {
                "name": inst.name,
                "label": inst.label.value,
                "init": [frame.fluents[f] for f in bit_ids(inst.init)],
                "goal": frame.texts(*inst.goal),
            }
            for inst in problem.instances
        ],
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return doc


def _typed(value, kind: type):
    """``value`` if it has the JSON type ``kind``: a bare string where a list
    belongs would read as its characters, and a number would become a name."""
    if isinstance(value, kind):
        return value
    raise ParseError(f"malformed problem document: {value!r} is not a {kind.__name__}")


def problem_from_dict(doc: dict) -> GeneralizedProblem:
    try:
        builder = FrameBuilder()
        for name in _typed(doc["frame"]["fluents"], list):
            builder.fluent(_typed(name, str))
        for act in doc["frame"]["actions"]:
            builder.action(
                _typed(act["name"], str),
                pre=_typed(act.get("pre", []), list),
                cond=[
                    (_typed(eff.get("when", []), list), _typed(eff["then"], list))
                    for eff in act.get("effects", [])
                ],
            )
        frame = builder.build()
        instances = []
        for inst in doc["instances"]:
            label = Label(inst.get("label", "positive"))
            instances.append(
                ClassicalInstance(
                    frame,
                    _typed(inst["name"], str),
                    frame.state(_typed(inst["init"], list)),
                    frame.masks(*_typed(inst["goal"], list)),
                    label,
                )
            )
        return GeneralizedProblem(frame, tuple(instances))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"malformed problem document: {exc}") from exc


def dump_problem(problem: GeneralizedProblem, path, manifest: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(problem_to_dict(problem, manifest), indent=2, sort_keys=False) + "\n"
    )


def load_problem(path) -> GeneralizedProblem:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    return problem_from_dict(doc)
