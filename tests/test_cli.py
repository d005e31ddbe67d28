import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpsyn
from gpsyn import cli, evaluation, interpreter, jsonio
from gpsyn.cli import (
    EXIT_EXHAUSTED,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSOLVABLE,
    _build_parser,
    _search_config,
    main,
)
from gpsyn.domains import InstanceSpec, build_task
from gpsyn.interpreter import FailureKind, validate_program
from gpsyn.model import Label
from gpsyn.program import format_program, parse_program
from helpers import pn_counterexample


def write_problem(tmp_path, name, domain, specs):
    path = tmp_path / name
    jsonio.dump_problem(build_task(domain, specs), path)
    return path


@pytest.fixture()
def trisum_problem(tmp_path):
    return write_problem(
        tmp_path,
        "trisum.json",
        "trisum",
        [
            InstanceSpec(2, Label.POSITIVE),
            InstanceSpec(4, Label.POSITIVE),
            InstanceSpec(4, Label.NEGATIVE),
        ],
    )


class TestGen:
    def test_single_instance(self, tmp_path, capsys):
        out = tmp_path / "rp.json"
        assert main(["gen", "robopainter", "--size", "2", "--out", str(out)]) == EXIT_OK
        problem = jsonio.load_problem(out)
        assert problem.t_total == 1
        assert problem.instances[0].goal == problem.frame.masks("painted_1", "at_2")

    def test_seeded_batch_is_byte_identical(self, tmp_path):
        out = tmp_path / "batch.json"
        args = ["gen", "trisum", "--size", "5", "--count", "10",
                "--label", "mixed", "--seed", "11", "--out", str(out)]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_unknown_domain_is_cli_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "hanoi", "--size", "1", "--out", str(tmp_path / "x.json")])

    def test_manifest_sidecar_written(self, tmp_path):
        out = tmp_path / "p.json"
        main(["gen", "list", "--size", "3", "--seed", "4", "--out", str(out)])
        sidecar = json.loads((tmp_path / "p.json.manifest.json").read_text())
        assert sidecar["command"] == "gen" and sidecar["seed"] == 4
        assert "started_at" in sidecar and "finished_at" in sidecar
        embedded = json.loads(out.read_text())["manifest"]
        assert "started_at" not in embedded  # embedded manifest is deterministic

    def test_check_reachability_flag(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["gen", "robopainter", "--size", "2", "--label", "negative",
                     "--check-reachability", "--out", str(out)])
        assert code == EXIT_OK

    def test_env_budget_reaches_check_reachability(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPSYN_PLANNER_BUDGET", "1")
        code = main(["gen", "robopainter", "--size", "8", "--check-reachability",
                     "--out", str(tmp_path / "p.json")])
        assert code == EXIT_EXHAUSTED
        assert "search budget exhausted after 1 expansions" in capsys.readouterr().err

    def test_default_time_budget_bounds_check_reachability(self, tmp_path, monkeypatch,
                                                           capsys):
        monkeypatch.delenv("GPSYN_PLANNER_BUDGET", raising=False)
        monkeypatch.setattr(cli, "DEFAULT_MAX_SECONDS", 1e-9)
        code = main(["gen", "robopainter", "--size", "3", "--check-reachability",
                     "--out", str(tmp_path / "p.json")])
        assert code == EXIT_EXHAUSTED
        assert "search budget exhausted after" in capsys.readouterr().err


class TestSynth:
    def test_trisum_end_to_end(self, trisum_problem, tmp_path, capsys):
        out = tmp_path / "prog.txt"
        code = main([
            "synth", "--problem", str(trisum_problem), "--lines", "3",
            "--out", str(out), "--backward-gotos-only", "--max-seconds", "300",
        ])
        assert code == EXIT_OK
        program = parse_program(out.read_text())
        problem = jsonio.load_problem(trisum_problem)
        assert validate_program(program, problem).passed

    def test_json_reports_search_counts(self, trisum_problem, tmp_path, capsys):
        code = main(["synth", "--problem", str(trisum_problem), "--lines", "3",
                     "--out", str(tmp_path / "p.txt"), "--backward-gotos-only", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert 0 <= payload["dead_ends"] <= payload["evaluations"] <= payload["generated"]
        assert payload["expansions"] > 0 and payload["elapsed"] >= 0
        sidecar = json.loads((tmp_path / "p.txt.manifest.json").read_text())
        assert sidecar["arguments"]["max_seconds"] == 600.0

    @pytest.mark.parametrize("command", ["synth", "validate"])
    def test_zero_max_seconds_is_parse_error(self, command, trisum_problem, tmp_path):
        program = tmp_path / "p.txt"
        program.write_text("0. end\n")
        argv = {
            "synth": ["synth", "--lines", "3", "--out", str(program)],
            "validate": ["validate", "--program", str(program), "--mode", "compiled"],
        }[command]
        assert main(argv + ["--problem", str(trisum_problem), "--max-seconds", "0"]) \
            == EXIT_PARSE

    @pytest.mark.parametrize("command", ["synth", "validate"])
    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_non_finite_max_seconds_is_parse_error(
        self, command, seconds, trisum_problem, tmp_path
    ):
        program = tmp_path / "p.txt"
        program.write_text("0. end\n")
        argv = {
            "synth": ["synth", "--lines", "3", "--out", str(program)],
            "validate": ["validate", "--program", str(program), "--mode", "compiled"],
        }[command]
        assert main(argv + ["--problem", str(trisum_problem), "--max-seconds", seconds]) \
            == EXIT_PARSE

    def test_zero_positives_is_error(self, tmp_path):
        path = write_problem(
            tmp_path, "neg.json", "trisum", [InstanceSpec(2, Label.NEGATIVE)]
        )
        code = main(["synth", "--problem", str(path), "--lines", "2",
                     "--out", str(tmp_path / "p.txt")])
        assert code == EXIT_PARSE

    def test_negative_failing_on_its_own_line_is_synthesized(self, tmp_path):
        # The negative's run fails on a line no positive reaches, so the
        # programming action there must not require the line to succeed.
        problem, _ = pn_counterexample()
        path = tmp_path / "pn.json"
        jsonio.dump_problem(problem, path)
        out = tmp_path / "p.txt"
        code = main(["synth", "--problem", str(path), "--lines", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert validate_program(parse_program(out.read_text()), problem).passed

    def test_unsolvable_exit_code(self, tmp_path):
        # A positive whose goal is unreachable: no program can solve it.
        path = write_problem(
            tmp_path, "impossible.json", "trisum",
            [InstanceSpec(1, Label.POSITIVE, goal_override=("val_a_1", "val_a_0"))],
        )
        code = main(["synth", "--problem", str(path), "--lines", "1",
                     "--out", str(tmp_path / "p.txt"), "--heuristic", "blind"])
        assert code == EXIT_UNSOLVABLE

    def test_budget_exhausted_exit_code(self, trisum_problem, tmp_path):
        code = main(["synth", "--problem", str(trisum_problem), "--lines", "3",
                     "--out", str(tmp_path / "p.txt"), "--max-expansions", "2"])
        assert code == EXIT_EXHAUSTED

    def test_env_budget_override(self, trisum_problem, tmp_path, monkeypatch):
        monkeypatch.setenv("GPSYN_PLANNER_BUDGET", "2")
        code = main(["synth", "--problem", str(trisum_problem), "--lines", "3",
                     "--out", str(tmp_path / "p.txt")])
        assert code == EXIT_EXHAUSTED

    def test_malformed_env_budget_is_parse_error(self, trisum_problem, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("GPSYN_PLANNER_BUDGET", "abc")
        code = main(["synth", "--problem", str(trisum_problem), "--lines", "3",
                     "--out", str(tmp_path / "p.txt")])
        assert code == EXIT_PARSE
        assert "GPSYN_PLANNER_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["end", "nil"])
    def test_reserved_action_name_is_parse_error(self, name, tmp_path, capsys):
        path = tmp_path / "reserved.json"
        path.write_text(json.dumps({
            "frame": {"fluents": ["f"], "actions": [{"name": name, "effects": [{"then": ["f"]}]}]},
            "instances": [{"name": "i", "init": [], "goal": ["f"]}],
        }))
        argv = ["synth", "--problem", str(path), "--lines", "1", "--out", str(tmp_path / "p")]
        assert main(argv) == EXIT_PARSE
        assert f"action name '{name}' is reserved" in capsys.readouterr().err

    def test_missing_problem_file(self, tmp_path):
        code = main(["synth", "--problem", str(tmp_path / "nope.json"),
                     "--lines", "2", "--out", str(tmp_path / "p.txt")])
        assert code == EXIT_PARSE

    def test_emitted_program_reparses(self, trisum_problem, tmp_path):
        out = tmp_path / "prog.txt"
        main(["synth", "--problem", str(trisum_problem), "--lines", "3",
              "--out", str(out), "--backward-gotos-only"])
        text = out.read_text()
        assert parse_program(text) == parse_program(
            "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
        )

    def test_hyphenated_names_synthesize_and_validate(self, tmp_path, capsys):
        # JSON allows '-' in a name; the program text written by synth must
        # read back in validate.
        task = tmp_path / "task.json"
        assert main(["gen", "trisum", "--size", "4", "--count", "3", "--label", "mixed",
                     "--seed", "7", "--out", str(task)]) == EXIT_OK
        task.write_text(task.read_text().replace("val_a_", "val-a-"))
        out = tmp_path / "prog.txt"
        assert main(["synth", "--problem", str(task), "--lines", "3", "--out", str(out),
                     "--backward-gotos-only"]) == EXIT_OK
        assert "!val-a-" in out.read_text()
        assert main(["validate", "--problem", str(task), "--program", str(out),
                     "--mode", "both"]) == EXIT_OK


class TestValidate:
    @pytest.fixture()
    def corridor_files(self, tmp_path):
        problem = write_problem(
            tmp_path, "corridor.json", "robopainter",
            [
                InstanceSpec(2, Label.POSITIVE),
                InstanceSpec(6, Label.POSITIVE),
                InstanceSpec(1, Label.NEGATIVE),
            ],
        )
        program = tmp_path / "loop.txt"
        program.write_text("0. paint\n1. inc\n2. inc\n3. goto(0,!at_end)\n4. end\n")
        return problem, program

    @pytest.mark.parametrize("mode", ["direct", "compiled", "both"])
    def test_modes_pass_and_agree(self, corridor_files, mode, capsys):
        problem, program = corridor_files
        code = main(["validate", "--problem", str(problem), "--program", str(program),
                     "--mode", mode, "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        key = "direct" if mode in ("direct", "both") else "compiled"
        assert payload[key]["passed"] is True
        if mode == "both":
            assert payload["agree"] is True

    def test_failing_program_reported(self, corridor_files, tmp_path, capsys):
        problem, _ = corridor_files
        bad = tmp_path / "bad.txt"
        bad.write_text("0. end\n")
        code = main(["validate", "--problem", str(problem), "--program", str(bad),
                     "--mode", "both", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["direct"]["passed"] is False
        assert payload["compiled"]["passed"] is False
        assert payload["agree"] is True

    def test_failure_sources_in_report(self, corridor_files, capsys):
        problem, program = corridor_files
        main(["validate", "--problem", str(problem), "--program", str(program),
              "--mode", "direct", "--json"])
        payload = json.loads(capsys.readouterr().out)
        failures = [o["failure"] for o in payload["direct"]["outcomes"]]
        assert failures == [None, None, "incomplete"]

    def test_parse_error_exit(self, corridor_files, tmp_path):
        problem, _ = corridor_files
        bad = tmp_path / "bad.txt"
        bad.write_text("not a program")
        assert main(["validate", "--problem", str(problem),
                     "--program", str(bad)]) == EXIT_PARSE

    def test_figure_one_outcome_table(self, corridor_files, tmp_path, capsys):
        # the three corridor programs against the three corridor instances
        problem, loop_body = corridor_files
        straight = tmp_path / "straight.txt"
        straight.write_text("0. paint\n1. inc\n2. inc\n3. end\n")
        loop_start = tmp_path / "loop_start.txt"
        loop_start.write_text(
            "0. goto(2,!at_end)\n1. end\n2. paint\n3. inc\n4. inc\n"
            "5. goto(0,!at_end)\n6. end\n"
        )
        expected = {
            str(straight): (False, [True, False, False]),
            str(loop_start): (False, [True, True, True]),
            str(loop_body): (True, [True, True, False]),
        }
        for program, (passed, solved) in expected.items():
            main(["validate", "--problem", str(problem), "--program", program,
                  "--mode", "direct", "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert payload["direct"]["passed"] is passed
            assert [o["solved"] for o in payload["direct"]["outcomes"]] == solved

    def test_empty_instance_list_trivially_passes(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "frame": {"fluents": ["f"], "actions": []},
            "instances": [],
        }))
        program = tmp_path / "p.txt"
        program.write_text("0. end\n")
        code = main(["validate", "--problem", str(empty), "--program", str(program),
                     "--mode", "both", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["direct"]["passed"] is True
        assert payload["compiled"]["passed"] is True
        assert payload["agree"] is True

    @pytest.mark.parametrize("mode", ["compiled", "both"])
    def test_env_budget_reaches_compiled_validation(self, corridor_files, mode,
                                                    monkeypatch, capsys):
        problem, program = corridor_files
        monkeypatch.setenv("GPSYN_PLANNER_BUDGET", "1")
        code = main(["validate", "--problem", str(problem), "--program", str(program),
                     "--mode", mode])
        assert code == EXIT_EXHAUSTED
        assert "search budget exhausted after 1 expansions" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["compiled", "both"])
    def test_budget_flags_reach_compiled_validation(self, corridor_files, mode, capsys):
        problem, program = corridor_files
        code = main(["validate", "--problem", str(problem), "--program", str(program),
                     "--mode", mode, "--max-expansions", "1"])
        assert code == EXIT_EXHAUSTED
        assert "search budget exhausted after 1 expansions" in capsys.readouterr().err

    def test_compiled_validation_always_has_a_budget(self, monkeypatch):
        monkeypatch.delenv("GPSYN_PLANNER_BUDGET", raising=False)
        args = _build_parser().parse_args(["validate", "--problem", "p", "--program", "q"])
        config = _search_config(args)
        assert config.max_expansions is None and config.max_seconds == 600.0

    def test_rows_differing_only_in_line_disagree(self, tmp_path, monkeypatch, capsys):
        # The negative fails on line 1 in both modes; shift the compiled line.
        problem, program = pn_counterexample()
        path, prog = tmp_path / "pn.json", tmp_path / "p.txt"
        jsonio.dump_problem(problem, path)
        prog.write_text(format_program(program))
        argv = ["validate", "--problem", str(path), "--program", str(prog), "--mode", "both"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        decode_trace = cli.decode_trace

        def shifted(plan, compiled):
            *head, last = decode_trace(plan, compiled)
            assert (last.failure, last.line) == (FailureKind.INAPPLICABLE, 1)
            return (*head, dataclasses.replace(last, line=0))

        monkeypatch.setattr(cli, "decode_trace", shifted)
        assert main(argv) == EXIT_INCONSISTENT
        assert "direct and compiled validation disagree" in capsys.readouterr().err

    def test_mode_disagreement_is_internal_error(self, corridor_files, monkeypatch):
        from gpsyn import cli as cli_mod
        from gpsyn.cli import EXIT_INCONSISTENT

        problem, program = corridor_files
        monkeypatch.setattr(
            cli_mod, "_compiled_outcomes", lambda *a, **k: (False, None)
        )
        code = main(["validate", "--problem", str(problem), "--program", str(program),
                     "--mode", "both"])
        assert code == EXIT_INCONSISTENT


@pytest.mark.parametrize("command", ["validate", "eval"])
def test_interpreter_state_cap_is_exhaustion(command, trisum_problem, tmp_path,
                                             monkeypatch, capsys):
    program = tmp_path / "p.txt"
    program.write_text("0. add_b_to_a\n1. goto(0,!zero_b)\n2. end\n")
    monkeypatch.setitem(interpreter.validate_program.__kwdefaults__, "state_cap", 2)
    monkeypatch.setitem(evaluation.evaluate_test_set.__kwdefaults__, "state_cap", 2)
    problem_flag = "--problem" if command == "validate" else "--testset"
    argv = [command, problem_flag, str(trisum_problem), "--program", str(program)]
    assert main(argv) == EXIT_EXHAUSTED
    assert "visited-state cap 2 exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["validate", "--mode", "direct"],
    ["validate", "--mode", "compiled"],
    ["validate", "--mode", "both"],
    ["eval"],
])
def test_unknown_name_is_parse_error_without_instances(command, tmp_path, capsys):
    # No instance runs, so only the check made when the program is loaded
    # can reject the unknown names.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "frame": {"fluents": ["f"], "actions": []},
        "instances": [],
    }))
    program = tmp_path / "p.txt"
    program.write_text("0. fly\n1. goto(0,!nope)\n2. end\n")
    problem_flag = "--problem" if command[0] == "validate" else "--testset"
    argv = [*command, problem_flag, str(empty), "--program", str(program)]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "line 0: unknown action 'fly'" in captured.err
    assert captured.out == ""


class TestEval:
    def test_metrics_output(self, tmp_path, capsys):
        testset = write_problem(
            tmp_path, "ts.json", "robopainter",
            [
                InstanceSpec(2, Label.POSITIVE),
                InstanceSpec(6, Label.POSITIVE),
                InstanceSpec(1, Label.NEGATIVE),
            ],
        )
        program = tmp_path / "p.txt"
        program.write_text("0. paint\n1. inc\n2. inc\n3. goto(0,!at_end)\n4. end\n")
        code = main(["eval", "--testset", str(testset), "--program", str(program),
                     "--json", "--out", str(tmp_path / "report.json")])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"p": 2, "n": 1, "p_minus": 0, "n_minus": 0}
        assert payload["metrics"]["accuracy"] == "100.00%"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"] == payload["metrics"]

    def test_rows_name_the_inapplicable_line_and_action(self, tmp_path, capsys):
        # Never walks back, so the second pick_left finds the robot in room B.
        testset = write_problem(tmp_path, "g.json", "gripper", [InstanceSpec(2)])
        program = tmp_path / "p.txt"
        program.write_text("0. pick_left\n1. move\n2. drop_left\n3. goto(0,!a_empty)\n4. end\n")
        main(["eval", "--testset", str(testset), "--program", str(program), "--json"])
        (row,) = json.loads(capsys.readouterr().out)["records"]
        assert row == {
            "instance": "gripper-2-positive-1",
            "label": "positive",
            "solved": False,
            "failure": "inapplicable",
            "line": 0,
            "action": "pick_left",
            "classification": "FN",
        }

    def test_undefined_metric_renders_dash(self, tmp_path, capsys):
        testset = write_problem(
            tmp_path, "onlyneg.json", "trisum", [InstanceSpec(3, Label.NEGATIVE)]
        )
        program = tmp_path / "p.txt"
        program.write_text("0. end\n")
        main(["eval", "--testset", str(testset), "--program", str(program), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["precision"] == "-"
        assert payload["metrics"]["recall"] == "-"


class TestExportPddl:
    def test_raw_export_one_file_per_instance(self, tmp_path, capsys):
        problem = write_problem(
            tmp_path, "p.json", "robopainter",
            [InstanceSpec(2), InstanceSpec(1, Label.NEGATIVE)],
        )
        out_dir = tmp_path / "pddl"
        code = main(["export-pddl", "--problem", str(problem), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        files = sorted(p.name for p in out_dir.glob("*.pddl"))
        assert "domain.pddl" in files and len(files) == 3

    def test_compiled_export_reimports_with_same_action_count(self, tmp_path):
        from gpsyn.compiler import compile_synthesis_pn
        from pddl_reader import read_domain

        problem_path = write_problem(
            tmp_path, "p.json", "robopainter",
            [InstanceSpec(2), InstanceSpec(1, Label.NEGATIVE)],
        )
        out_dir = tmp_path / "pddl"
        code = main(["export-pddl", "--problem", str(problem_path),
                     "--variant", "synth-pn", "--lines", "2", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        compiled = compile_synthesis_pn(jsonio.load_problem(problem_path), 2)
        _, frame = read_domain((out_dir / "domain.pddl").read_text())
        assert len(frame.actions) == len(compiled.frame.actions)

    @pytest.mark.parametrize("names", [("twin", "twin"), ("domain", "other")])
    def test_raw_export_refuses_to_overwrite_and_writes_nothing(self, tmp_path, capsys, names):
        # Two instances named alike would write one file twice, and one
        # named "domain" would overwrite domain.pddl with a problem.
        path = write_problem(tmp_path, "p.json", "trisum", [InstanceSpec(2), InstanceSpec(3)])
        doc = json.loads(path.read_text())
        for inst, name in zip(doc["instances"], names):
            inst["name"] = name
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "pddl"
        code = main(["export-pddl", "--problem", str(path), "--out-dir", str(out_dir)])
        assert code == EXIT_PARSE
        assert not out_dir.exists()
        assert "wrote" not in capsys.readouterr().out

    def test_validation_export_requires_program(self, tmp_path):
        problem = write_problem(tmp_path, "p.json", "trisum", [InstanceSpec(2)])
        code = main(["export-pddl", "--problem", str(problem),
                     "--variant", "validation", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_PARSE


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "p.json"
    # The child imports the same gpsyn as this process, installed or not.
    src = str(Path(gpsyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gpsyn.cli", "gen", "list", "--size", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
