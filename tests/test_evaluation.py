import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsyn.domains import InstanceSpec, build_task, reference_program
from gpsyn.errors import ModelError
from gpsyn.evaluation import (
    Classification,
    ConfusionCounts,
    compute_metrics,
    evaluate_test_set,
    format_metric,
)
from gpsyn.interpreter import execute, validate_program
from gpsyn.model import Label
from gpsyn.program import parse_program


def classification(program, task, index):
    return evaluate_test_set(program, task).records[index].classification


class TestClassify:
    def test_solved_positive_is_tp(self, corridor_task, loop_after_body_program):
        assert classification(loop_after_body_program, corridor_task, 0) \
            is Classification.TRUE_POSITIVE

    def test_solved_negative_counts_as_false_positive(self, corridor_task, loop_from_start_program):
        assert classification(loop_from_start_program, corridor_task, 2) \
            is Classification.FALSE_POSITIVE

    def test_unsolved_positive_counts_as_false_negative(self, corridor_task, straight_program):
        assert classification(straight_program, corridor_task, 1) \
            is Classification.FALSE_NEGATIVE

    def test_unsolved_negative_is_tn(self, corridor_task, loop_after_body_program):
        assert classification(loop_after_body_program, corridor_task, 2) \
            is Classification.TRUE_NEGATIVE

    def test_agrees_with_validate_program(self, corridor_task, straight_program):
        report = validate_program(straight_program, corridor_task)
        records = evaluate_test_set(straight_program, corridor_task).records
        for rec, outcome in zip(records, report.outcomes, strict=True):
            solved = rec.classification in (
                Classification.TRUE_POSITIVE, Classification.FALSE_POSITIVE
            )
            assert solved == outcome.solved


class TestComputeMetrics:
    def test_perfect_classifier(self):
        m = compute_metrics(ConfusionCounts(p=1, n=1))
        assert (m.precision, m.recall, m.accuracy) == (1, 1, 1)

    def test_direct_formula(self):
        m = compute_metrics(ConfusionCounts(p=3, n=3, p_minus=1, n_minus=1))
        assert m.precision == Fraction(3, 4)
        assert m.recall == Fraction(3, 4)
        assert m.accuracy == Fraction(3, 4)

    def test_zero_denominator_undefined(self):
        m = compute_metrics(ConfusionCounts(p=0, n=4, p_minus=0, n_minus=2))
        assert m.precision is None
        assert m.recall == 0
        assert format_metric(m.precision) == "-"

    def test_formatting(self):
        assert format_metric(Fraction(3, 4)) == "75.00%"
        assert format_metric(Fraction(1)) == "100.00%"
        assert format_metric(None) == "-"

    def test_counts_must_be_nonnegative(self):
        with pytest.raises(ModelError):
            ConfusionCounts(p=-1)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_accuracy_identity_and_bounds(self, p, n, pm, nm):
        counts = ConfusionCounts(p, n, pm, nm)
        m = compute_metrics(counts)
        if counts.total:
            assert m.accuracy == Fraction(p + n, counts.total)
            assert 0 <= m.accuracy <= 1
        for value in (m.precision, m.recall):
            if value is not None:
                assert 0 <= value <= 1

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_adding_a_true_positive_never_hurts(self, p, n, pm, nm):
        before = compute_metrics(ConfusionCounts(p, n, pm, nm))
        after = compute_metrics(ConfusionCounts(p + 1, n, pm, nm))
        for a, b in ((after.precision, before.precision),
                     (after.recall, before.recall),
                     (after.accuracy, before.accuracy)):
            if a is not None and b is not None:
                assert a >= b


class TestEvaluateTestSet:
    def test_corridor_walkthrough(self, corridor_task, loop_after_body_program):
        report = evaluate_test_set(loop_after_body_program, corridor_task)
        c = report.counts
        assert (c.p, c.n, c.p_minus, c.n_minus) == (2, 1, 0, 0)
        assert report.metrics.accuracy == 1

    def test_end_program_half_accuracy(self):
        task = build_task(
            "trisum",
            [InstanceSpec(2, Label.POSITIVE), InstanceSpec(3, Label.NEGATIVE)],
        )
        report = evaluate_test_set(parse_program("0. end\n"), task)
        c = report.counts
        assert (c.p, c.n, c.p_minus, c.n_minus) == (0, 1, 0, 1)
        assert report.metrics.accuracy == Fraction(1, 2)

    def test_randomized_robopainter_test_set_interpreter_oracle(self):
        rng = random.Random(17)
        specs = []
        for i in range(20):
            size = rng.randint(1, 10)
            label = Label.POSITIVE if rng.random() < 0.6 else Label.NEGATIVE
            specs.append(InstanceSpec(size, label))
        task = build_task("robopainter", specs)
        program = reference_program("robopainter")
        report = evaluate_test_set(program, task)
        # expected counts from per-instance interpreter runs (the oracle)
        expected_p = sum(
            1 for inst in task.instances
            if inst.is_positive and execute(program, inst).solved
        )
        expected_n = sum(
            1 for inst in task.instances
            if not inst.is_positive and not execute(program, inst).solved
        )
        assert report.counts.p == expected_p == task.t_positive
        assert report.counts.n == expected_n == task.t_negative
        assert report.metrics.accuracy == 1

    def test_invariants_hold_on_aggregates(self, corridor_task, straight_program):
        report = evaluate_test_set(straight_program, corridor_task)
        c = report.counts
        assert c.p + c.n_minus == corridor_task.t_positive
        assert c.n + c.p_minus == corridor_task.t_negative
        assert c.total == corridor_task.t_total

    def test_table_renders_undefined_as_dash(self):
        task = build_task("trisum", [InstanceSpec(2, Label.POSITIVE)])
        report = evaluate_test_set(parse_program("0. end\n"), task)
        assert report.metrics.precision is None
        assert "pr=-" in report.table()
