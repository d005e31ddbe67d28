import json
import random

import pytest

from gpsyn import jsonio, pddl
from gpsyn.compiler import compile_synthesis_pn, compile_validation
from gpsyn.domains import InstanceSpec, build_task
from gpsyn.errors import ParseError
from gpsyn.model import (
    ClassicalInstance,
    FrameBuilder,
    Label,
    holds,
    successor_bits,
)
from helpers import random_frame, random_generalized_problem


@pytest.fixture(scope="module")
def corridor_pair():
    return build_task(
        "robopainter",
        [InstanceSpec(2, Label.POSITIVE), InstanceSpec(1, Label.NEGATIVE)],
    )


def _two_fluent_doc():
    return {
        "frame": {
            "fluents": ["p", "q"],
            "actions": [
                {"name": "a", "pre": ["p"], "effects": [{"when": ["p"], "then": ["q"]}]}
            ],
        },
        "instances": [{"name": "i", "label": "positive", "init": ["p"], "goal": ["q"]}],
    }


class TestJson:
    def test_roundtrip_preserves_everything(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        back = jsonio.problem_from_dict(doc)
        assert back.frame == corridor_pair.frame
        assert back == corridor_pair

    def test_roundtrip_random_problems(self):
        rng = random.Random(31)
        for _ in range(25):
            frame = random_frame(rng, rng.randint(2, 6), rng.randint(1, 3))
            problem = random_generalized_problem(rng, frame, rng.randint(1, 3))
            assert jsonio.problem_from_dict(jsonio.problem_to_dict(problem)) == problem

    def test_fluent_order_preserved(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        assert doc["frame"]["fluents"] == list(corridor_pair.frame.fluents)

    def test_labels_preserved(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        assert [i["label"] for i in doc["instances"]] == ["positive", "negative"]

    def test_file_roundtrip(self, corridor_pair, tmp_path):
        path = tmp_path / "problem.json"
        jsonio.dump_problem(corridor_pair, path, manifest={"command": "test"})
        assert jsonio.load_problem(path) == corridor_pair
        assert json.loads(path.read_text())["manifest"] == {"command": "test"}

    def test_malformed_document_raises_parse_error(self):
        with pytest.raises(ParseError):
            jsonio.problem_from_dict({"frame": {}})

    def test_clashing_goal_or_precondition_raises_parse_error(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        doc["instances"][0]["goal"] = ["at_1", "!at_1"]
        with pytest.raises(ParseError, match="goal assigns both polarities"):
            jsonio.problem_from_dict(doc)
        doc = jsonio.problem_to_dict(corridor_pair)
        doc["frame"]["actions"][0]["pre"] = ["at_1", "!at_1"]
        with pytest.raises(ParseError, match="assigns both polarities"):
            jsonio.problem_from_dict(doc)

    def test_empty_effect_set_raises_parse_error(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        doc["frame"]["actions"][0]["effects"][0]["then"] = []
        with pytest.raises(ParseError, match="empty effect set"):
            jsonio.problem_from_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["frame"].update(fluents="pq"),
            lambda d: d["frame"]["actions"][0].update(pre="pq"),
            lambda d: d["frame"]["actions"][0]["effects"][0].update(when="pq"),
            lambda d: d["frame"]["actions"][0]["effects"][0].update(then="pq"),
            lambda d: d["instances"][0].update(init="pq"),
            lambda d: d["instances"][0].update(goal="pq"),
        ],
        ids=["fluents", "pre", "when", "then", "init", "goal"],
    )
    def test_string_where_a_list_belongs_raises_parse_error(self, edit):
        # read as a sequence, "pq" would be the fluents p and q
        doc = _two_fluent_doc()
        jsonio.problem_from_dict(doc)
        edit(doc)
        with pytest.raises(ParseError, match="'pq' is not a list"):
            jsonio.problem_from_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["frame"]["fluents"].append(5),
            lambda d: d["frame"]["actions"][0].update(name=5),
            lambda d: d["instances"][0].update(name=5),
        ],
        ids=["fluent", "action", "instance"],
    )
    def test_non_string_name_raises_parse_error(self, edit):
        doc = _two_fluent_doc()
        edit(doc)
        with pytest.raises(ParseError, match="5 is not a str"):
            jsonio.problem_from_dict(doc)

    def test_missing_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            jsonio.load_problem(tmp_path / "nope.json")

    def test_negative_literal_syntax(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        neg_goal = doc["instances"][1]["goal"]
        assert "!painted_1" in neg_goal


def reachable_space(problem):
    frontier = [problem.init]
    seen = {problem.init}
    while frontier:
        bits = frontier.pop()
        for action in problem.frame.actions:
            if not holds(bits, action.pre):
                continue
            child = successor_bits(bits, action)
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


class TestPddl:
    def test_tiny_instance_roundtrips_bit_exact(self):
        b = FrameBuilder()
        b.fluent("on")
        b.action("flip", cond=[(["on"], ["!on"]), (["!on"], ["on"])])
        frame = b.build()
        inst = ClassicalInstance(frame, "tiny", frame.state(["on"]), frame.masks("!on"))
        back = pddl.read_problem(
            pddl.write_problem(inst, "tiny"), pddl.read_domain(pddl.write_domain(frame))
        )
        assert back.frame == frame
        assert back.init == inst.init
        assert back.goal == inst.goal

    def test_compiled_pn_reimport_preserves_action_count(self):
        task = build_task(
            "robopainter", [InstanceSpec(2), InstanceSpec(1, Label.NEGATIVE)]
        )
        compiled = compile_synthesis_pn(task, 2)
        frame = pddl.read_domain(pddl.write_domain(compiled.frame))
        assert len(frame.actions) == len(compiled.frame.actions)
        assert [a.name for a in frame.actions] == [a.name for a in compiled.frame.actions]

    def test_reimport_preserves_reachable_space(self):
        rng = random.Random(41)
        for _ in range(10):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            problem = random_generalized_problem(rng, frame, 1)
            inst = problem.instances[0]
            frame2 = pddl.read_domain(pddl.write_domain(frame))
            inst2 = pddl.read_problem(pddl.write_problem(inst, "t"), frame2)
            assert reachable_space(inst) == reachable_space(inst2)

    def test_role_tags_survive_roundtrip(self, corridor_pair, loop_after_body_program=None):
        task = corridor_pair
        from gpsyn.program import parse_program

        compiled = compile_validation(task, parse_program("0. paint\n1. end\n"))
        frame = pddl.read_domain(pddl.write_domain(compiled.frame))
        names = [a.name for a in frame.actions]
        assert any(n.startswith("check__end__l1__t") for n in names)
        assert any(n.startswith("skip__t") for n in names)

    def test_requirements_line(self, corridor_pair):
        text = pddl.write_domain(corridor_pair.frame)
        assert ":strips :negative-preconditions :conditional-effects" in text

    def test_export_files(self, corridor_pair, tmp_path):
        domain_path, problem_path = pddl.export_files(
            corridor_pair.instances[0], tmp_path, "rp2"
        )
        assert domain_path.exists() and problem_path.exists()
        frame = pddl.read_domain(domain_path.read_text())
        inst = pddl.read_problem(problem_path.read_text(), frame)
        assert inst.init == corridor_pair.instances[0].init
        assert inst.goal == corridor_pair.instances[0].goal

    def test_reader_rejects_non_ground(self):
        text = """(define (domain bad)
            (:predicates (p ?x))
            )"""
        with pytest.raises(ParseError):
            pddl.read_domain(text)

    def test_reader_reports_unknown_fluents_as_parse_errors(self):
        domain = """(define (domain d) (:predicates (a))
            (:action x :parameters () :precondition (and (b)) :effect (and (a))))"""
        with pytest.raises(ParseError, match="unknown fluent 'b'"):
            pddl.read_domain(domain)
        frame = pddl.read_domain(domain.replace("(b)", "(a)"))
        for init, goal in (("(z)", "(a)"), ("(a)", "(not (z))")):
            problem = f"(define (problem p) (:domain d) (:init {init}) (:goal (and {goal})))"
            with pytest.raises(ParseError, match="unknown fluent 'z'"):
                pddl.read_problem(problem, frame)

    def test_reader_rejects_garbage(self):
        with pytest.raises(ParseError):
            pddl.read_domain("(define (domain x) (:predicates (p))")

    @pytest.mark.parametrize(
        "text",
        [
            "(define)",
            "(define (domain d) (:action))",
            "(define (domain d) (:predicates (a)) (:action x :effect (when (and (a)))))",
            "(define (problem))",
            "(define (domain d) (:action x (a) b))",
            "(define (domain d) (:predicates (a)) (:action x :effect (and (a)) :precondition))",
            "(define (domain d) (:predicates (a)) (:action x :bogus (a)))",
            "(define (domain d) (:predicates (a)) (:action x :effect (and (a)) :effect (a)))",
            "(define (domain d) (:types t))",
            "(define (domain d) (:predicates (a)) (:predicates (b)))",
            "(define (domain d) (:requirements :strips) (:requirements :strips))",
            "(define (domain d) (:requirements :typing :fluents))",
            "(define (domain d) junk)",
            "(define (problem p) (:domain d) (:objects o))",
            "(define (problem p) junk)",
            "(define (problem p) (:domain d) (:goal (a)) (:goal (not (a))))",
            "(define (problem p) (:domain d) (:init (a)) (:init) (:goal (a)))",
            "(define (problem p) (:domain d) (:domain d) (:goal (a)))",
            "(define (problem p) (:domain d) (:goal (a) (not (b))))",
            "(define (problem p) (:domain d) (:goal (and (a) (not (a)))))",
        ],
    )
    def test_reader_rejects_truncated_forms(self, text):
        frame = pddl.read_domain("(define (domain d) (:predicates (a)))")
        with pytest.raises(ParseError, match="malformed PDDL"):
            if "(problem" in text:
                pddl.read_problem(text, frame)
            else:
                pddl.read_domain(text)
