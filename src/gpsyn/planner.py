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
from collections import Counter, deque
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
        # a NaN budget would compare false with every elapsed time
        if self.max_seconds is not None and not 0 < self.max_seconds < INF:
            raise ModelError("max_seconds must be positive and finite")


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

    An add that no precondition, branch condition or goal reads cannot
    change h, so it is dropped. Actions with equal preconditions form one
    group: one count of unmet precondition literals, and one deduplicated
    list of the adds of branches with no condition literal outside the
    precondition, which fires at 1 + Σ cost(pre) when the count reaches 0.
    Each other condition of a group's branches, taken outside the
    precondition, is one branch with the deduplicated adds of every branch
    that has it. A branch counts its condition literals plus one gate token,
    which comes off when its group's count reaches 0. It fires at
    1 + Σ cost(pre) + Σ cost(cond), i.e. 1 + Σ cost(pre ∪ cond), so a
    literal in both counts once.

    Where two or more groups share their precondition minus its rarest
    literal (the one the fewest groups read), that rest is one node: a
    derived literal with its own count, which holds when the rest does and
    costs Σ cost(rest). The groups read it in place of the rest, so the
    rest is counted down once and every sum stays the same.

    No sum is taken when something fires: each count keeps, next to it,
    the sum of the costs of the literals that settled as it went down (a
    node keeps it as its own cost). What holds in the state costs 0, so
    every sum starts at 0 in each call and is complete when its count
    reaches 0; h is the sum of the goal literals' costs as they settle.

    Costs are integers, so ``value`` settles literals in increasing cost
    through one list per cost (Dial's buckets), and visits only the costs
    that hold a literal. What a literal of cost c completes costs at least
    c (a node, which joins the level being settled or a later one) or
    c + 1 (an added literal), so no level is passed over.

    The object is stateful. It keeps the counts and costs of the last state
    it evaluated (at first the all-false state), with the state's own
    literals at cost 0 and already counted, and the sets of groups and
    branches whose count is 0 there: what they add costs 1, and a branch of
    a ready group fires later at 1 + Σ cost(cond). A new state patches all
    of it only at the fluents where the two states differ, and ``value``
    propagates on a copy. None of this changes h: each value is the one a
    naive fixpoint over the relaxed operators gives. One instance serves
    one search at a time; :func:`h_add` builds a fresh one per call."""

    def __init__(self, frame, goal):
        self.bits = 0
        self.goal = goal
        self.goal_set = goal_set = frozenset(_lits(*goal))
        # each branch as (its action's precondition, its condition outside it, its adds)
        ops = [
            (act.pre, tuple(_lits(cpos & ~act.pre[0], cneg & ~act.pre[1])), _lits(epos, eneg))
            for act in frame.actions
            for cpos, cneg, epos, eneg in act.cond
        ]
        read = goal_set.union(*(_lits(*pre) + list(cond) for pre, cond, _ in ops))
        # precondition -> condition -> adds; the condition () fires with the group
        groups = {}
        for pre, cond, adds in ops:
            adds = [q for q in adds if q in read]
            if adds:
                groups.setdefault(pre, {}).setdefault(cond, {}).update(dict.fromkeys(adds))
        pres = [_lits(*pre) for pre in groups]
        readers = Counter(p for pre in pres for p in pre)
        rarest = [min(pre, key=readers.__getitem__, default=None) for pre in pres]
        rests = [tuple(p for p in pre if p != r) for pre, r in zip(pres, rarest)]
        shared = Counter(rest for rest in rests if len(rest) > 1)
        # literal 2f: f holds, 2f + 1: it does not; then one per node
        node_rest = {
            2 * frame.width + n: rest
            for n, rest in enumerate(rest for rest, k in shared.items() if k > 1)
        }
        node_of = {rest: q for q, rest in node_rest.items()}
        # A node's cost is the running sum of its rest's costs: 0 here, and
        # complete once its count is 0.
        cost = [INF, 0] * frame.width + [0] * len(node_rest)
        node_consumers, grp_consumers, br_consumers = ([[] for _ in cost] for _ in range(3))
        for q, rest in node_rest.items():
            for p in rest:
                node_consumers[p].append(q)
        # counts at the all-false state, where every positive literal is unmet
        unmet = [True, False] * frame.width
        is_unmet = unmet.__getitem__
        node_unsat = {q: sum(map(is_unmet, rest)) for q, rest in node_rest.items()}
        unmet += [k != 0 for k in node_unsat.values()]
        grp_unsat, grp_add, grp_branches = [], [], []
        br_grp, br_add, br_unsat = [], [], []
        for g, (conds, pre, r, rest) in enumerate(zip(groups.values(), pres, rarest, rests)):
            if rest in node_of:
                pre = [r, node_of[rest]]
            for p in pre:
                grp_consumers[p].append(g)
            grp_unsat.append(sum(map(is_unmet, pre)))
            grp_add.append(list(conds.pop((), ())))
            branches = []
            for cond, adds in conds.items():
                b = len(br_grp)
                for p in cond:
                    br_consumers[p].append(b)
                branches.append(b)
                br_grp.append(g)
                br_add.append(list(adds))
                # a branch's gate is on while its group's count is not 0
                br_unsat.append(sum(map(is_unmet, cond)) + (grp_unsat[g] != 0))
            grp_branches.append(branches)
        self.cost = cost
        self.node_rest, self.node_unsat, self.node_consumers = node_rest, node_unsat, node_consumers
        self.grp_unsat, self.grp_add, self.grp_branches = grp_unsat, grp_add, grp_branches
        self.grp_consumers = grp_consumers
        self.br_grp, self.br_add, self.br_unsat, self.br_consumers = (
            br_grp, br_add, br_unsat, br_consumers
        )
        self.grp_ready = {g for g, k in enumerate(grp_unsat) if not k}
        self.br_ready = {b for b, k in enumerate(br_unsat) if not k}

    def _move_to(self, bits: int) -> None:
        """Patch the counts, costs and ready sets of the last state into
        those of ``bits``, one layer at a time: nodes, groups, branches."""
        cost, grp_consumers = self.cost, self.grp_consumers
        node_up, node_down, grp_up, grp_down, br_up, br_down = [], [], [], [], [], []
        for f in bit_ids(bits ^ self.bits):
            now = 2 * f + (not bits >> f & 1)
            old = now ^ 1
            cost[now], cost[old] = 0, INF
            node_up += self.node_consumers[old]
            node_down += self.node_consumers[now]
            grp_up += grp_consumers[old]
            grp_down += grp_consumers[now]
            br_up += self.br_consumers[old]
            br_down += self.br_consumers[now]
        left, reached = _shift(self.node_unsat, node_up, node_down)
        for q in left:
            grp_up += grp_consumers[q]
        for q in reached:
            grp_down += grp_consumers[q]
        left, reached = _shift(self.grp_unsat, grp_up, grp_down)
        for g in left:
            br_up += self.grp_branches[g]  # the gate goes back on
        for g in reached:
            br_down += self.grp_branches[g]
        self.grp_ready.difference_update(left)
        self.grp_ready.update(reached)
        left, reached = _shift(self.br_unsat, br_up, br_down)
        self.br_ready.difference_update(left)
        self.br_ready.update(reached)
        self.bits = bits

    def value(self, bits: int) -> float:
        gpos, gneg = self.goal
        goal_left = (gpos & ~bits).bit_count() + (gneg & bits).bit_count()
        if not goal_left:
            return 0
        self._move_to(bits)
        cost = self.cost[:]
        node_unsat = self.node_unsat.copy()
        grp_unsat = self.grp_unsat[:]
        br_unsat = self.br_unsat[:]
        # Σ cost of what each count has seen settle; what was met at the
        # start costs 0
        grp_sum = [0] * len(grp_unsat)
        br_sum = [0] * len(br_unsat)
        node_consumers, grp_consumers, br_consumers = (
            self.node_consumers, self.grp_consumers, self.br_consumers
        )
        grp_add, grp_branches, br_grp, br_add = (
            self.grp_add, self.grp_branches, self.br_grp, self.br_add
        )
        goal_set = self.goal_set
        # What the ready groups and branches add costs 1.
        level = []
        for adds in [grp_add[g] for g in self.grp_ready] + [br_add[b] for b in self.br_ready]:
            for q in adds:
                if cost[q] > 1:
                    cost[q] = 1
                    level.append(q)
        buckets = {1: level}
        h = 0
        while buckets:
            c = min(buckets)
            for p in buckets[c]:  # a node may join this level while it runs
                if cost[p] != c:
                    continue  # stale: settled earlier at a lower cost
                if p in goal_set:
                    h += c
                    goal_left -= 1
                    if not goal_left:
                        return h
                for q in node_consumers[p]:
                    n = node_unsat[q] - 1
                    node_unsat[q] = n
                    oc = cost[q] + c
                    cost[q] = oc
                    if not n:
                        buckets.setdefault(oc, []).append(q)
                for g in grp_consumers[p]:
                    n = grp_unsat[g] - 1
                    grp_unsat[g] = n
                    s = grp_sum[g] + c
                    grp_sum[g] = s
                    if not n:
                        oc = 1 + s
                        for q in grp_add[g]:
                            if oc < cost[q]:
                                cost[q] = oc
                                buckets.setdefault(oc, []).append(q)
                        for b in grp_branches[g]:  # their gate tokens
                            n = br_unsat[b] - 1
                            br_unsat[b] = n
                            if not n:
                                oc = 1 + s + br_sum[b]
                                for q in br_add[b]:
                                    if oc < cost[q]:
                                        cost[q] = oc
                                        buckets.setdefault(oc, []).append(q)
                for b in br_consumers[p]:
                    n = br_unsat[b] - 1
                    br_unsat[b] = n
                    s = br_sum[b] + c
                    br_sum[b] = s
                    if not n:
                        oc = 1 + grp_sum[br_grp[b]] + s
                        for q in br_add[b]:
                            if oc < cost[q]:
                                cost[q] = oc
                                buckets.setdefault(oc, []).append(q)
            del buckets[c]
        return INF


def _shift(unsat, up: list[int], down: list[int]) -> tuple[list[int], list[int]]:
    """Add one to the count ``unsat[i]`` (a list or a dict) for each i in
    ``up``, then take one off for each i in ``down``, so no count passes
    below 0 on the way. Returns the indices whose count left 0 and those
    whose count reached 0. One index may be in both: it ends at 0 if it is
    in the second, above 0 if it is only in the first."""
    left, reached = [], []
    for i in up:
        if not unsat[i]:
            left.append(i)
        unsat[i] += 1
    for i in down:
        k = unsat[i] - 1
        unsat[i] = k
        if not k:
            reached.append(i)
    return left, reached


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

