"""Confusion counting and precision/recall/accuracy over labeled test sets.

A solved positive is a true positive (counted in ``p``), an unsolved negative
a true negative (``n``), a solved negative a false positive (``p_minus``) and
an unsolved positive a false negative (``n_minus``) -- the buckets the metric
formulas count. Metrics are exact rationals; a zero denominator leaves the
metric undefined, rendered as ``-`` rather than coerced to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ModelError
from .interpreter import DEFAULT_STATE_CAP, ExecutionOutcome, bind_program, execute
from .model import GeneralizedProblem, Label
from .program import Program


class Classification(Enum):
    TRUE_POSITIVE = "TP"
    FALSE_POSITIVE = "FP"
    TRUE_NEGATIVE = "TN"
    FALSE_NEGATIVE = "FN"


@dataclass(frozen=True)
class ConfusionCounts:
    """p: positives solved, n: negatives unsolved, p_minus: negatives solved
    (false positives), n_minus: positives unsolved (false negatives)."""

    p: int = 0
    n: int = 0
    p_minus: int = 0
    n_minus: int = 0

    def __post_init__(self):
        if min(self.p, self.n, self.p_minus, self.n_minus) < 0:
            raise ModelError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.p + self.n + self.p_minus + self.n_minus

    def add(self, c: Classification) -> "ConfusionCounts":
        return ConfusionCounts(
            self.p + (c is Classification.TRUE_POSITIVE),
            self.n + (c is Classification.TRUE_NEGATIVE),
            self.p_minus + (c is Classification.FALSE_POSITIVE),
            self.n_minus + (c is Classification.FALSE_NEGATIVE),
        )


@dataclass(frozen=True)
class Metrics:
    """Each value is an exact rational in [0, 1], or None when its
    denominator is zero (shown as ``-``)."""

    precision: Fraction | None
    recall: Fraction | None
    accuracy: Fraction | None


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    def ratio(num: int, den: int) -> Fraction | None:
        return Fraction(num, den) if den else None

    return Metrics(
        precision=ratio(counts.p, counts.p + counts.p_minus),
        recall=ratio(counts.p, counts.p + counts.n_minus),
        accuracy=ratio(counts.p + counts.n, counts.total),
    )


def format_metric(value: Fraction | None) -> str:
    """Percentage with two decimals, or ``-`` for undefined."""
    if value is None:
        return "-"
    return f"{float(value) * 100:.2f}%"


def classification_of(label: Label, solved: bool) -> Classification:
    if label is Label.POSITIVE:
        return Classification.TRUE_POSITIVE if solved else Classification.FALSE_NEGATIVE
    return Classification.FALSE_POSITIVE if solved else Classification.TRUE_NEGATIVE


@dataclass(frozen=True)
class InstanceRecord:
    name: str
    label: Label
    outcome: ExecutionOutcome
    classification: Classification


@dataclass(frozen=True)
class EvaluationReport:
    counts: ConfusionCounts
    metrics: Metrics
    records: tuple[InstanceRecord, ...]

    def table(self) -> str:
        lines = [f"{'instance':24s} {'label':9s} {'class':5s} outcome"]
        for rec in self.records:
            lines.append(
                f"{rec.name:24s} {rec.label.value:9s} "
                f"{rec.classification.value:5s} {rec.outcome.describe()}"
            )
        m = self.metrics
        lines.append(
            f"p={self.counts.p} n={self.counts.n} "
            f"p-={self.counts.p_minus} n-={self.counts.n_minus}  "
            f"pr={format_metric(m.precision)} re={format_metric(m.recall)} "
            f"ac={format_metric(m.accuracy)}"
        )
        return "\n".join(lines)


def evaluate_test_set(
    program: Program,
    test_set: GeneralizedProblem,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> EvaluationReport:
    """Run the program, bound once, on every instance and aggregate the
    confusion counts."""
    counts = ConfusionCounts()
    records = []
    ops = bind_program(program, test_set.frame)
    for instance in test_set.instances:
        outcome = execute(ops, instance, state_cap=state_cap)
        cls = classification_of(instance.label, outcome.solved)
        counts = counts.add(cls)
        records.append(InstanceRecord(instance.name, instance.label, outcome, cls))
    return EvaluationReport(counts, compute_metrics(counts), tuple(records))
