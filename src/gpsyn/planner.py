"""Desk-scale classical planner for ground instances with conditional effects.

One best-first search loop: it expands the open state of lowest heuristic
value, FIFO among equal values. Greedy best-first search with an additive
heuristic (satisficing) serves the large compiled synthesis instances;
breadth-first search is its blind case (h = 0), so it finds shortest plans
and exhausting the space proves unsolvability. States are bitmasks and
duplicate detection is over full states, so results are deterministic for a
given instance and configuration.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import InternalConsistencyError, ModelError
from .model import bit_ids, holds, successor_bits, validate_sequential_plan

INF = float("inf")


class Strategy(Enum):
    BFS = "bfs"
    GBFS = "gbfs"


class Heuristic(Enum):
    HADD = "hadd"
    BLIND = "blind"


@dataclass(frozen=True)
class SearchConfig:
    """``strategy`` and ``heuristic`` only pick the evaluator of the one
    search loop: ``Strategy.BFS`` ignores ``heuristic`` and searches blind,
    as does ``Heuristic.BLIND``."""

    strategy: Strategy = Strategy.GBFS
    heuristic: Heuristic = Heuristic.HADD
    max_expansions: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_expansions is not None and self.max_expansions <= 0:
            raise ModelError("max_expansions must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ModelError("max_seconds must be positive")


BFS_CONFIG = SearchConfig(strategy=Strategy.BFS, heuristic=Heuristic.BLIND)


@dataclass(frozen=True)
class SearchStats:
    """``evaluations`` and ``dead_ends`` (pruned at h = ∞) count generated
    states; the start state is evaluated too, but it is not generated."""

    expansions: int
    generated: int
    evaluations: int
    dead_ends: int
    elapsed: float


@dataclass(frozen=True)
class Plan:
    """Action index sequence into ``problem.frame.actions``."""

    actions: tuple[int, ...]
    stats: SearchStats


class SolveStatus(Enum):
    SOLVED = "solved"
    PROVED_UNSOLVABLE = "proved_unsolvable"
    RESOURCE_EXHAUSTED = "resource_exhausted"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    plan: Plan | None
    stats: SearchStats

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED


class _HAdd:
    """Additive heuristic over literals, with conditional effects split into
    one relaxed operator per effect branch (precondition ∪ condition).

    Costs are integers, so ``value`` settles literals in increasing cost
    through one list per cost (Dial's buckets) rather than a binary heap. The
    state's own literals hold at cost 0 and are settled first, with no queue:
    they only count down the unmet preconditions of their consumers. An
    operator's cost, 1 + the sum of its precondition costs, is summed when
    its last precondition settles."""

    def __init__(self, frame, goal):
        self.width = frame.width
        self.op_pre, self.op_add = [], []
        for act in frame.actions:
            ppos, pneg = act.pre
            for cpos, cneg, epos, eneg in act.cond:
                # the mask union counts a literal shared by precondition and
                # condition once
                self.op_pre.append(_lits(ppos | cpos, pneg | cneg))
                self.op_add.append(_lits(epos, eneg))
        self.pre_counts = [len(p) for p in self.op_pre]
        self.consumers = [[] for _ in range(2 * frame.width)]
        for o, pre in enumerate(self.op_pre):
            for p in pre:
                self.consumers[p].append(o)
        self.goal_lits = _lits(*goal)
        self.goal_set = frozenset(self.goal_lits)

    def value(self, bits: int) -> float:
        cost = [INF] * (2 * self.width)
        unsat = self.pre_counts[:]
        consumers = self.consumers
        # Character f of the reversed bit string is fluent f.
        for f, ch in zip(range(self.width), f"{bits:0{self.width}b}"[::-1]):
            lit = 2 * f + (ch == "0")
            cost[lit] = 0
            for o in consumers[lit]:
                unsat[o] -= 1
        goal_left = sum(1 for g in self.goal_lits if cost[g])
        if not goal_left:
            return 0
        op_pre, op_add, goal_set = self.op_pre, self.op_add, self.goal_set
        # Operators whose preconditions all hold fire at cost 1.
        buckets = {1: []}
        o = -1
        for _ in range(unsat.count(0)):
            o = unsat.index(0, o + 1)
            for q in op_add[o]:
                if cost[q] > 1:
                    cost[q] = 1
                    buckets[1].append(q)
        get_cost = cost.__getitem__
        c = 1
        while buckets:
            for p in buckets.pop(c, ()):
                if cost[p] != c:
                    continue  # stale: settled earlier at a lower cost
                if p in goal_set:
                    goal_left -= 1
                    if not goal_left:
                        return sum(map(get_cost, self.goal_lits))
                for o in consumers[p]:
                    n = unsat[o] - 1
                    unsat[o] = n
                    if not n:
                        oc = 1 + sum(map(get_cost, op_pre[o]))
                        for q in op_add[o]:
                            if oc < cost[q]:
                                cost[q] = oc
                                buckets.setdefault(oc, []).append(q)
            c += 1
        return INF


def _lits(pos: int, neg: int) -> list[int]:
    return [2 * f for f in bit_ids(pos)] + [2 * f + 1 for f in bit_ids(neg)]


def h_add(bits: int, problem) -> float:
    """Additive-heuristic estimate from the state bitmask ``bits`` to the
    problem goal.

    0 iff the goal already holds; infinite estimates imply the goal is
    unreachable even without delete effects, hence truly unreachable.
    """
    return _HAdd(problem.frame, problem.goal).value(bits)


def solve(problem, config: SearchConfig = SearchConfig()) -> SolveResult:
    """Search ``problem`` (anything with frame/init/goal) for a plan.

    The configuration only picks the evaluator of the one search loop.
    Every returned plan is replayed through the strict successor semantics
    before being handed back.
    """
    # Preconditions unpacked once: the search loop tests every action on
    # every expansion.
    table = [(*a.pre, a) for a in problem.frame.actions]
    t0 = time.monotonic()
    if config.strategy is Strategy.BFS or config.heuristic is Heuristic.BLIND:
        def evaluator(bits: int) -> float:
            return 0
    else:
        evaluator = _HAdd(problem.frame, problem.goal).value
    result = _search(table, problem.init, problem.goal, evaluator, config, t0)
    if result.solved and not validate_sequential_plan(problem, result.plan.actions):
        raise InternalConsistencyError("search returned a plan that does not validate")
    return result


def _out_of_budget(config, expansions, t0) -> bool:
    if config.max_expansions is not None and expansions >= config.max_expansions:
        return True
    return (
        config.max_seconds is not None
        and expansions % 256 == 0
        and time.monotonic() - t0 > config.max_seconds
    )


def _finish(status, t0, counts=(0, 0, 0, 0), parents=None, goal_bits=None):
    """The search result, with the plan to ``goal_bits`` read back from
    ``parents`` when the search reached the goal. ``counts`` are the first
    four fields of :class:`SearchStats`."""
    stats = SearchStats(*counts, time.monotonic() - t0)
    if goal_bits is None:
        return SolveResult(status, None, stats)
    actions = []
    while parents[goal_bits] is not None:
        goal_bits, idx = parents[goal_bits]
        actions.append(idx)
    return SolveResult(status, Plan(tuple(reversed(actions)), stats), stats)


def _search(table, start_bits, goal, evaluator, config, t0) -> SolveResult:
    """Best-first search from ``start_bits`` to the ``(pos, neg)`` mask pair
    ``goal``, expanding the lowest-h state first, FIFO among equal h. The
    open list maps each h to a FIFO bucket, with a heap of the h values that
    have one, so a constant evaluator makes this plain BFS."""
    parents = {start_bits: None}
    if holds(start_bits, goal):
        return _finish(SolveStatus.SOLVED, t0, parents=parents, goal_bits=start_bits)
    h0 = evaluator(start_bits)
    if h0 == INF:
        return _finish(SolveStatus.PROVED_UNSOLVABLE, t0)
    gpos, gneg = goal
    buckets = {h0: deque([start_bits])}
    open_hs = [h0]
    expansions = generated = evaluations = dead_ends = 0
    while open_hs:
        if _out_of_budget(config, expansions, t0):
            counts = (expansions, generated, evaluations, dead_ends)
            return _finish(SolveStatus.RESOURCE_EXHAUSTED, t0, counts)
        bucket = buckets[open_hs[0]]
        bits = bucket.popleft()
        if not bucket:
            del buckets[heapq.heappop(open_hs)]
        expansions += 1
        for idx, (pp, pn, action) in enumerate(table):
            if (bits & pp) != pp or bits & pn:
                continue
            child = successor_bits(bits, action)
            if child in parents:
                continue
            parents[child] = (bits, idx)
            generated += 1
            if (child & gpos) == gpos and not child & gneg:
                counts = (expansions, generated, evaluations, dead_ends)
                return _finish(SolveStatus.SOLVED, t0, counts, parents, child)
            h = evaluator(child)
            evaluations += 1
            if h == INF:
                dead_ends += 1
                continue  # safe pruning: relaxed-unreachable implies unreachable
            bucket = buckets.get(h)
            if bucket is None:
                buckets[h] = deque([child])
                heapq.heappush(open_hs, h)
            else:
                bucket.append(child)
    # Full duplicate detection plus safe pruning: an exhausted open list is a proof.
    counts = (expansions, generated, evaluations, dead_ends)
    return _finish(SolveStatus.PROVED_UNSOLVABLE, t0, counts)

