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
    states; the start state is evaluated too, but it is not generated. A
    dead end that a compiled instance's dead-end test decides (a line's goto
    that always jumps back, see :class:`gpsyn.compiler.DeadEndTest`) counts
    as one evaluation and one dead end, as if h_add had returned ∞."""

    expansions: int
    generated: int
    evaluations: int
    dead_ends: int
    elapsed: float


@dataclass(frozen=True)
class Plan:
    """Action index sequence into ``problem.frame.actions``."""

    actions: tuple[int, ...]


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
    """Additive heuristic over literals (Bonet & Geffner 2001), with
    conditional effects split into one relaxed operator per effect branch
    whose precondition is the action's precondition ∪ the branch condition.

    Unmet literals are counted once per action for its precondition, and per
    branch for its condition literals outside the precondition plus one gate
    token. When an action's count reaches 0, ``precost`` = Σ cost(pre) is
    summed once and the gate token comes off each of its branches. A branch
    fires at 1 + precost + Σ cost(cond ∖ pre), i.e. 1 + Σ cost(pre ∪ cond),
    so a literal in both counts once. Costs are integers, so ``value``
    settles literals in increasing cost through one list per cost (Dial's
    buckets) rather than a binary heap.

    The object is stateful: it keeps the counts and costs of the last state
    it evaluated (at first the all-false state), with the state's own
    literals at cost 0 and already counted. A new state patches them only at
    the fluents where the two states differ, and ``value`` propagates on a
    copy. So one instance serves one search at a time; :func:`h_add` builds
    a fresh one per call."""

    def __init__(self, frame, goal):
        self.bits = 0
        self.cost = [INF, 0] * frame.width  # literal 2f: f holds, 2f + 1: it does not
        act_pre, act_unsat, act_branches = [], [], []
        br_act, br_cond, br_add, br_unsat = [], [], [], []
        act_consumers = [[] for _ in self.cost]
        br_consumers = [[] for _ in self.cost]
        for act in frame.actions:
            if not act.cond:
                continue  # no branch, nothing to fire
            a = len(act_pre)
            ppos, pneg = act.pre
            pre = _lits(ppos, pneg)
            for p in pre:
                act_consumers[p].append(a)
            # counts at the all-false state, where every negative literal
            # holds; a branch's gate is on while its action's count is not 0
            act_pre.append(pre)
            act_unsat.append(ppos.bit_count())
            b = len(br_act)
            act_branches.append(list(range(b, b + len(act.cond))))
            for cpos, cneg, epos, eneg in act.cond:
                cpos &= ~ppos
                cneg &= ~pneg
                cond = _lits(cpos, cneg)
                for p in cond:
                    br_consumers[p].append(b)
                br_act.append(a)
                br_cond.append(cond)
                br_add.append(_lits(epos, eneg))
                br_unsat.append(cpos.bit_count() + (ppos != 0))
                b += 1
        self.act_pre, self.act_unsat, self.act_branches = act_pre, act_unsat, act_branches
        self.br_act, self.br_cond, self.br_add, self.br_unsat = br_act, br_cond, br_add, br_unsat
        self.act_consumers, self.br_consumers = act_consumers, br_consumers
        self.goal = goal
        self.goal_lits = _lits(*goal)
        self.goal_set = frozenset(self.goal_lits)

    def _move_to(self, bits: int) -> None:
        """Patch the counts and costs of the last state into those of
        ``bits``, one changed fluent at a time."""
        cost, act_unsat, br_unsat = self.cost, self.act_unsat, self.br_unsat
        act_branches, act_consumers, br_consumers = (
            self.act_branches, self.act_consumers, self.br_consumers
        )
        for f in bit_ids(bits ^ self.bits):
            now = 2 * f + (not bits >> f & 1)
            old = now ^ 1
            cost[now], cost[old] = 0, INF
            for b in br_consumers[old]:
                br_unsat[b] += 1
            for b in br_consumers[now]:
                br_unsat[b] -= 1
            for a in act_consumers[old]:
                if not act_unsat[a]:
                    for b in act_branches[a]:
                        br_unsat[b] += 1  # the gate goes back on
                act_unsat[a] += 1
            for a in act_consumers[now]:
                n = act_unsat[a] - 1
                act_unsat[a] = n
                if not n:
                    for b in act_branches[a]:
                        br_unsat[b] -= 1
        self.bits = bits

    def value(self, bits: int) -> float:
        gpos, gneg = self.goal
        goal_left = (gpos & ~bits).bit_count() + (gneg & bits).bit_count()
        if not goal_left:
            return 0
        self._move_to(bits)
        cost = self.cost[:]
        act_unsat = self.act_unsat[:]
        br_unsat = self.br_unsat[:]
        act_pre, act_branches, act_consumers = (
            self.act_pre, self.act_branches, self.act_consumers
        )
        br_act, br_cond, br_add, br_consumers = (
            self.br_act, self.br_cond, self.br_add, self.br_consumers
        )
        goal_set = self.goal_set
        get_cost = cost.__getitem__
        # Branches whose literals all hold fire at cost 1, with precost 0.
        precost = [0] * len(act_pre)
        buckets = {1: []}
        b = -1
        for _ in range(br_unsat.count(0)):
            b = br_unsat.index(0, b + 1)
            for q in br_add[b]:
                if cost[q] > 1:
                    cost[q] = 1
                    buckets[1].append(q)
        c = 1
        while buckets:
            for p in buckets.pop(c, ()):
                if cost[p] != c:
                    continue  # stale: settled earlier at a lower cost
                if p in goal_set:
                    goal_left -= 1
                    if not goal_left:
                        return sum(map(get_cost, self.goal_lits))
                branches = br_consumers[p]
                for a in act_consumers[p]:
                    n = act_unsat[a] - 1
                    act_unsat[a] = n
                    if not n:
                        precost[a] = sum(map(get_cost, act_pre[a]))
                        branches = branches + act_branches[a]  # their gate tokens
                for b in branches:
                    n = br_unsat[b] - 1
                    br_unsat[b] = n
                    if not n:
                        oc = 1 + precost[br_act[b]] + sum(map(get_cost, br_cond[b]))
                        for q in br_add[b]:
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
    unreachable even without delete effects, hence truly unreachable. Each
    call builds a fresh evaluator, so no state carries over between calls.
    """
    return _HAdd(problem.frame, problem.goal).value(bits)


def solve(problem, config: SearchConfig = SearchConfig()) -> SolveResult:
    """Search ``problem`` (anything with frame/init/goal) for a plan.

    The configuration only picks the evaluator of the one search loop. With
    h_add, a problem that carries a ``dead_end`` test (compiled instances do,
    see :class:`gpsyn.compiler.DeadEndTest`) has the states it decides valued
    ∞ without calling h_add; the test is exact, so h and the search are the
    same. Every returned plan is replayed through the strict successor
    semantics before being handed back.
    """
    # Preconditions unpacked once: the search loop tests every action on
    # every expansion.
    table = [(*a.pre, a) for a in problem.frame.actions]
    t0 = time.monotonic()
    if config.strategy is Strategy.BFS or config.heuristic is Heuristic.BLIND:
        def evaluator(bits: int) -> float:
            return 0
    else:
        value = _HAdd(problem.frame, problem.goal).value
        test = getattr(problem, "dead_end", None)
        if test is None:
            evaluator = value
        else:
            dead = test.predicate()

            def evaluator(bits: int) -> float:
                return INF if dead(bits) else value(bits)
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
    return SolveResult(status, Plan(tuple(reversed(actions))), stats)


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

