"""Desk-scale classical planner for ground instances with conditional effects.

Two strategies: breadth-first search (complete; exhausting the space proves
unsolvability) and greedy best-first search with an additive heuristic
(satisficing; used for the large compiled synthesis instances). States are
bitmasks, duplicate detection is over full states, and tie-breaking is FIFO,
so results are deterministic for a given instance and configuration.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import InternalConsistencyError, ModelError
from .model import State, successor_bits, validate_sequential_plan

INF = float("inf")


class Strategy(Enum):
    BFS = "bfs"
    GBFS = "gbfs"


class Heuristic(Enum):
    HADD = "hadd"
    GOAL_COUNT = "goalcount"
    BLIND = "blind"


@dataclass(frozen=True)
class SearchConfig:
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
    expansions: int
    generated: int
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
    one relaxed operator per effect branch (precondition ∪ condition)."""

    def __init__(self, frame, goal):
        width = frame.width
        self.n_props = 2 * width
        self.width = width
        op_pre: list[list[int]] = []
        op_add: list[list[int]] = []
        for act in frame.actions:
            base = _lits(act.pre.pos, act.pre.neg)
            for ce in act.cond:
                # dedupe: a literal shared by precondition and condition must
                # not be summed twice
                pre = sorted(set(base) | set(_lits(ce.condition.pos, ce.condition.neg)))
                add = _lits(ce.effect.pos, ce.effect.neg)
                op_pre.append(pre)
                op_add.append(add)
        self.op_pre = op_pre
        self.op_add = op_add
        self.pre_counts = [len(p) for p in op_pre]
        consumers: list[list[int]] = [[] for _ in range(self.n_props)]
        for o, pre in enumerate(op_pre):
            for p in pre:
                consumers[p].append(o)
        self.consumers = consumers
        self.goal_lits = _lits(goal.pos, goal.neg)

    def value(self, bits: int) -> float:
        width = self.width
        cost = [INF] * self.n_props
        heap = []
        for f in range(width):
            lit = 2 * f + (0 if bits >> f & 1 else 1)
            cost[lit] = 0
            heap.append((0, lit))
        heapq.heapify(heap)
        unsat = self.pre_counts[:]
        acc = [1] * len(self.op_pre)
        goal_left = 0
        for g in self.goal_lits:
            if cost[g] != 0:
                goal_left += 1
        # Operators with no preconditions fire immediately at cost 1.
        if goal_left:
            for o, cnt in enumerate(unsat):
                if cnt == 0:
                    for q in self.op_add[o]:
                        if cost[q] > 1:
                            cost[q] = 1
                            heapq.heappush(heap, (1, q))
        consumers = self.consumers
        op_add = self.op_add
        pop = heapq.heappop
        push = heapq.heappush
        done = [False] * self.n_props
        goal_set = set(self.goal_lits)
        while heap and goal_left:
            c, p = pop(heap)
            if done[p]:
                continue
            done[p] = True
            if p in goal_set and c > 0:
                goal_left -= 1
                if not goal_left:
                    break
            for o in consumers[p]:
                unsat[o] -= 1
                acc[o] += c
                if unsat[o] == 0:
                    oc = acc[o]
                    for q in op_add[o]:
                        if oc < cost[q]:
                            cost[q] = oc
                            push(heap, (oc, q))
        total = 0
        for g in self.goal_lits:
            cg = cost[g]
            if cg == INF:
                total = INF
                break
            total += cg
        return total


def _lits(pos: int, neg: int) -> list[int]:
    out = []
    f = 0
    while pos:
        if pos & 1:
            out.append(2 * f)
        pos >>= 1
        f += 1
    f = 0
    while neg:
        if neg & 1:
            out.append(2 * f + 1)
        neg >>= 1
        f += 1
    return out


def h_add(state: State, problem) -> float:
    """Additive-heuristic estimate from ``state`` to the problem goal.

    0 iff the goal already holds; infinite estimates imply the goal is
    unreachable even without delete effects, hence truly unreachable.
    """
    return _HAdd(problem.frame, problem.goal).value(state.bits)


def solve(problem, config: SearchConfig = SearchConfig()) -> SolveResult:
    """Search ``problem`` (anything with frame/init/goal) for a plan.

    Every returned plan is replayed through the strict successor semantics
    before being handed back.
    """
    # Preconditions unpacked once: the search loops test every action on
    # every expansion.
    table = [(a.pre.pos, a.pre.neg, a) for a in problem.frame.actions]
    goal_pos = problem.goal.pos
    goal_neg = problem.goal.neg
    start_bits = problem.init.bits
    t0 = time.monotonic()

    def is_goal(bits: int) -> bool:
        return (bits & goal_pos) == goal_pos and not bits & goal_neg

    if config.strategy is Strategy.BFS:
        result = _bfs(table, start_bits, is_goal, config, t0)
    else:
        if config.heuristic is Heuristic.HADD:
            evaluator = _HAdd(problem.frame, problem.goal).value
        elif config.heuristic is Heuristic.GOAL_COUNT:
            def evaluator(bits: int) -> float:
                return (goal_pos & ~bits).bit_count() + (goal_neg & bits).bit_count()
        else:
            def evaluator(bits: int) -> float:
                return 0
        result = _gbfs(table, start_bits, is_goal, evaluator, config, t0)

    if result.solved and not validate_sequential_plan(problem, result.plan.actions):
        raise InternalConsistencyError("search returned a plan that does not validate")
    return result


def _reconstruct(parents, bits, stats) -> Plan:
    actions = []
    while True:
        prev = parents[bits]
        if prev is None:
            break
        bits, idx = prev
        actions.append(idx)
    actions.reverse()
    return Plan(tuple(actions), stats)


def _out_of_budget(config, expansions, t0) -> bool:
    if config.max_expansions is not None and expansions >= config.max_expansions:
        return True
    if (
        config.max_seconds is not None
        and expansions % 256 == 0
        and time.monotonic() - t0 > config.max_seconds
    ):
        return True
    return False


def _bfs(table, start_bits, is_goal, config, t0) -> SolveResult:
    if is_goal(start_bits):
        stats = SearchStats(0, 0, time.monotonic() - t0)
        return SolveResult(SolveStatus.SOLVED, Plan((), stats), stats)
    parents = {start_bits: None}
    queue = deque([start_bits])
    expansions = generated = 0
    while queue:
        if _out_of_budget(config, expansions, t0):
            stats = SearchStats(expansions, generated, time.monotonic() - t0)
            return SolveResult(SolveStatus.RESOURCE_EXHAUSTED, None, stats)
        bits = queue.popleft()
        expansions += 1
        for idx, (pp, pn, action) in enumerate(table):
            if (bits & pp) != pp or bits & pn:
                continue
            child = successor_bits(bits, action)
            if child in parents:
                continue
            parents[child] = (bits, idx)
            generated += 1
            if is_goal(child):
                stats = SearchStats(expansions, generated, time.monotonic() - t0)
                return SolveResult(
                    SolveStatus.SOLVED, _reconstruct(parents, child, stats), stats
                )
            queue.append(child)
    stats = SearchStats(expansions, generated, time.monotonic() - t0)
    return SolveResult(SolveStatus.PROVED_UNSOLVABLE, None, stats)


def _gbfs(table, start_bits, is_goal, evaluator, config, t0) -> SolveResult:
    if is_goal(start_bits):
        stats = SearchStats(0, 0, time.monotonic() - t0)
        return SolveResult(SolveStatus.SOLVED, Plan((), stats), stats)
    h0 = evaluator(start_bits)
    if h0 == INF:
        stats = SearchStats(0, 0, time.monotonic() - t0)
        return SolveResult(SolveStatus.PROVED_UNSOLVABLE, None, stats)
    parents = {start_bits: None}
    counter = 0
    heap = [(h0, counter, start_bits)]
    expansions = generated = 0
    while heap:
        if _out_of_budget(config, expansions, t0):
            stats = SearchStats(expansions, generated, time.monotonic() - t0)
            return SolveResult(SolveStatus.RESOURCE_EXHAUSTED, None, stats)
        _, _, bits = heapq.heappop(heap)
        expansions += 1
        for idx, (pp, pn, action) in enumerate(table):
            if (bits & pp) != pp or bits & pn:
                continue
            child = successor_bits(bits, action)
            if child in parents:
                continue
            parents[child] = (bits, idx)
            generated += 1
            if is_goal(child):
                stats = SearchStats(expansions, generated, time.monotonic() - t0)
                return SolveResult(
                    SolveStatus.SOLVED, _reconstruct(parents, child, stats), stats
                )
            h = evaluator(child)
            if h == INF:
                continue  # safe pruning: relaxed-unreachable implies unreachable
            counter += 1
            heapq.heappush(heap, (h, counter, child))
    # Full duplicate detection plus safe pruning: an exhausted frontier is a proof.
    stats = SearchStats(expansions, generated, time.monotonic() - t0)
    return SolveResult(SolveStatus.PROVED_UNSOLVABLE, None, stats)


def goal_reachable(instance, config: SearchConfig = BFS_CONFIG) -> bool:
    """Exhaustively check that the instance goal is reachable from its init.

    Intended for vetting negative examples (which must be solvable as
    classical problems); exponential, so opt-in.
    """
    result = solve(instance, config)
    if result.status is SolveStatus.RESOURCE_EXHAUSTED:
        raise InternalConsistencyError(
            "reachability check exhausted its budget; raise limits"
        )
    return result.solved
