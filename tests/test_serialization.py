import gc
import json
import random

import pytest

from gpsyn import jsonio, pddl
from gpsyn.compiler import compile_synthesis_pn, compile_validation
from gpsyn.domains import DOMAIN_NAMES, InstanceSpec, build_task
from gpsyn.errors import ParseError
from gpsyn.model import (
    ClassicalInstance,
    FrameBuilder,
    Label,
    holds,
    successor_bits,
)
from helpers import (
    random_frame,
    random_generalized_problem,
    random_problem_doc,
    reference_problem,
)
from pddl_reader import read_domain, read_problem


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
            lambda d: d["frame"]["actions"][0].update(effects="pq"),
            lambda d: d["frame"]["actions"][0]["effects"][0].update(when="pq"),
            lambda d: d["frame"]["actions"][0]["effects"][0].update(then="pq"),
            lambda d: d["instances"][0].update(init="pq"),
            lambda d: d["instances"][0].update(goal="pq"),
        ],
        ids=["fluents", "pre", "effects", "when", "then", "init", "goal"],
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["frame"]["fluents"].append("r s"),
            lambda d: d["frame"]["actions"][0].update(name="a(1)"),
        ],
        ids=["fluent", "action"],
    )
    def test_name_outside_the_name_pattern_raises_parse_error(self, edit):
        doc = _two_fluent_doc()
        edit(doc)
        with pytest.raises(ParseError, match="is not letters"):
            jsonio.problem_from_dict(doc)

    def test_effect_that_is_not_an_object_raises_parse_error(self):
        doc = _two_fluent_doc()
        doc["frame"]["actions"][0]["effects"].append("pq")
        with pytest.raises(ParseError, match="'pq' is not a dict"):
            jsonio.problem_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d.pop("frame"), "frame"),
            (lambda d: d["frame"].pop("fluents"), "fluents"),
            (lambda d: d["frame"].pop("actions"), "actions"),
            (lambda d: d["frame"]["actions"][0].pop("name"), "name"),
            (lambda d: d["frame"]["actions"][0]["effects"][0].pop("then"), "then"),
            (lambda d: d.pop("instances"), "instances"),
            (lambda d: d["instances"][0].pop("name"), "name"),
            (lambda d: d["instances"][0].pop("init"), "init"),
            (lambda d: d["instances"][0].pop("goal"), "goal"),
        ],
        ids=["frame", "fluents", "actions", "action-name", "then", "instances",
             "instance-name", "init", "goal"],
    )
    def test_missing_key_is_named(self, edit, key):
        doc = _two_fluent_doc()
        edit(doc)
        with pytest.raises(ParseError, match=f"^malformed problem document: missing key '{key}'$"):
            jsonio.problem_from_dict(doc)

    def test_missing_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            jsonio.load_problem(tmp_path / "nope.json")

    def test_negative_literal_syntax(self, corridor_pair):
        doc = jsonio.problem_to_dict(corridor_pair)
        neg_goal = doc["instances"][1]["goal"]
        assert "!painted_1" in neg_goal


class TestLiteralTable:
    """The loader against :func:`helpers.reference_problem`, which parses one
    literal at a time."""

    def test_random_documents_load_as_the_reference_parse(self):
        rng = random.Random(24)
        negatives = repeats = 0
        for _ in range(300):
            doc = random_problem_doc(rng)
            assert jsonio.problem_from_dict(doc) == reference_problem(doc)
            lists = [inst["goal"] for inst in doc["instances"]]
            for act in doc["frame"]["actions"]:
                lists.append(act.get("pre", []))
                for eff in act["effects"]:
                    lists += [eff.get("when", []), eff["then"]]
            negatives += sum(text.startswith("!") for texts in lists for text in texts)
            repeats += sum(len(set(texts)) < len(texts) for texts in lists)
        assert negatives > 1000 and repeats > 100

    @pytest.mark.parametrize("domain", DOMAIN_NAMES)
    def test_every_domain_loads_as_the_reference_parse(self, domain):
        sizes = [30, 5] if domain == "trisum" else [2, 3]
        specs = [InstanceSpec(sizes[0]), InstanceSpec(sizes[1], Label.NEGATIVE)]
        doc = jsonio.problem_to_dict(build_task(domain, specs))
        assert jsonio.problem_from_dict(doc) == reference_problem(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["frame"]["actions"][0].update(pre=["!nope"]), "unknown fluent 'nope'"),
            (lambda d: d["frame"]["actions"][0].update(pre=["nope"]), "unknown fluent 'nope'"),
            (lambda d: d["instances"][0].update(goal=["!nope"]), "unknown fluent 'nope'"),
            (lambda d: d["instances"][0].update(init=["!p"]), "unknown fluent '!p'"),
            (lambda d: d["frame"]["actions"][0].update(pre=["p", "q", "!p"]),
             "assigns both polarities"),
            (lambda d: d["frame"]["actions"][0]["effects"][0].update(when=["!q", "q"]),
             "assigns both polarities"),
            (lambda d: d["frame"]["actions"][0]["effects"][0].update(then=["q", "!q"]),
             "assigns both polarities"),
            (lambda d: d["instances"][0].update(goal=["!q", "q"]), "assigns both polarities"),
        ],
        ids=["negated-unknown", "unknown", "negated-unknown-goal", "negated-init",
             "clash-pre", "clash-when", "clash-then", "clash-goal"],
    )
    def test_literal_errors(self, edit, message):
        doc = _two_fluent_doc()
        edit(doc)
        with pytest.raises(ParseError, match=message):
            jsonio.problem_from_dict(doc)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["loads", "malformed-json", "malformed-document", "missing"])
def test_load_restores_the_collector_state(case, enabled, corridor_pair, tmp_path):
    path = tmp_path / "problem.json"
    if case == "loads":
        jsonio.dump_problem(corridor_pair, path)
    elif case == "malformed-json":
        path.write_text('{"frame": ')
    elif case == "malformed-document":
        path.write_text('{"frame": {}}')
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "loads":
            assert jsonio.load_problem(path) == corridor_pair
        else:
            with pytest.raises(ParseError):
                jsonio.load_problem(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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
        back = read_problem(pddl.write_problem(inst, "tiny"), read_domain(pddl.write_domain(frame)))
        assert back.frame == frame
        assert back.init == inst.init
        assert back.goal == inst.goal

    def test_compiled_pn_reimport_preserves_action_count(self):
        task = build_task(
            "robopainter", [InstanceSpec(2), InstanceSpec(1, Label.NEGATIVE)]
        )
        compiled = compile_synthesis_pn(task, 2)
        _, frame = read_domain(pddl.write_domain(compiled.frame))
        assert len(frame.actions) == len(compiled.frame.actions)
        assert [a.name for a in frame.actions] == [a.name for a in compiled.frame.actions]

    def test_reimport_preserves_reachable_space(self):
        rng = random.Random(41)
        for _ in range(10):
            frame = random_frame(rng, rng.randint(2, 5), rng.randint(1, 3))
            problem = random_generalized_problem(rng, frame, 1)
            inst = problem.instances[0]
            domain = read_domain(pddl.write_domain(frame))
            inst2 = read_problem(pddl.write_problem(inst, "t"), domain)
            assert reachable_space(inst) == reachable_space(inst2)

    def test_role_tags_survive_roundtrip(self, corridor_pair, loop_after_body_program=None):
        task = corridor_pair
        from gpsyn.program import parse_program

        compiled = compile_validation(task, parse_program("0. paint\n1. end\n"))
        _, frame = read_domain(pddl.write_domain(compiled.frame))
        names = [a.name for a in frame.actions]
        assert any(n.startswith("check__end__l1__t") for n in names)
        assert any(n.startswith("skip__t") for n in names)

    def test_requirements_line(self, corridor_pair):
        text = pddl.write_domain(corridor_pair.frame)
        assert ":strips :negative-preconditions :conditional-effects" in text

    def test_export_files(self, corridor_pair, tmp_path):
        domain_path, problem_path = pddl.export_files(
            corridor_pair.frame, corridor_pair.instances[:1], tmp_path
        )
        assert problem_path.name == f"{corridor_pair.instances[0].name}.pddl"
        assert domain_path.exists() and problem_path.exists()
        domain = read_domain(domain_path.read_text())
        inst = read_problem(problem_path.read_text(), domain)
        assert inst.init == corridor_pair.instances[0].init
        assert inst.goal == corridor_pair.instances[0].goal

    def test_reader_rejects_non_ground(self):
        text = """(define (domain bad)
            (:predicates (p ?x))
            )"""
        with pytest.raises(ParseError):
            read_domain(text)

    def test_reader_reports_unknown_fluents_as_parse_errors(self):
        domain = """(define (domain d) (:predicates (a))
            (:action x :parameters () :precondition (and (b)) :effect (and (a))))"""
        with pytest.raises(ParseError, match="unknown fluent 'b'"):
            read_domain(domain)
        parsed = read_domain(domain.replace("(b)", "(a)"))
        for init, goal in (("(z)", "(a)"), ("(a)", "(not (z))")):
            problem = f"(define (problem p) (:domain d) (:init {init}) (:goal (and {goal})))"
            with pytest.raises(ParseError, match="unknown fluent 'z'"):
                read_problem(problem, parsed)

    def test_reader_rejects_garbage(self):
        with pytest.raises(ParseError):
            read_domain("(define (domain x) (:predicates (p))")

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
            "(define (problem p) (:domain other) (:goal (a)))",
        ],
    )
    def test_reader_rejects_truncated_forms(self, text):
        domain = read_domain("(define (domain d) (:predicates (a)))")
        with pytest.raises(ParseError, match="malformed PDDL"):
            if "(problem" in text:
                read_problem(text, domain)
            else:
                read_domain(text)
