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

    Unmet literals are counted once per action for its precondition. When
    an action's count reaches 0, ``precost`` = Σ cost(pre) is summed once.
    A branch with no condition literal outside the precondition fires with
    its action: such adds are merged into one list per action, which fires
    at 1 + precost. Every other branch counts its condition literals
    outside the precondition plus one gate token, which comes off when its
    action's count reaches 0. It fires at 1 + precost + Σ cost(cond ∖ pre),
    i.e. 1 + Σ cost(pre ∪ cond), so a literal in both counts once.

    Where two or more actions share their precondition minus its rarest
    literal (the one the fewest actions read), that rest is one node: a
    derived literal with its own count, which holds when the rest does and
    costs Σ cost(rest). The actions read it in place of the rest, so the
    rest is counted down once and every sum stays the same.

    Costs are integers, so ``value`` settles literals in increasing cost
    through one list per cost (Dial's buckets), and visits only the costs
    that hold a literal. What a literal of cost c completes costs at least
    c (a node, which joins the level being settled or a later one) or
    c + 1 (an added literal), so no level is passed over.

    The object is stateful. It keeps the counts and costs of the last state
    it evaluated (at first the all-false state), with the state's own
    literals at cost 0 and already counted, and the sets of actions and
    branches whose count is 0 there: what they add costs 1, and a counted
    branch of a ready action fires later at 1 + Σ cost(cond ∖ pre). A new
    state patches all of it only at the fluents where the two states differ,
    and ``value`` propagates on a copy. None of this changes h: each value
    is the one a naive fixpoint over the relaxed operators gives. One
    instance serves one search at a time; :func:`h_add` builds a fresh one
    per call."""

    def __init__(self, frame, goal):
        self.bits = 0
        acts = [act for act in frame.actions if act.cond]  # no branch, nothing to fire
        pres = [_lits(*act.pre) for act in acts]
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
        # A node's cost is read only once its count is 0, so it stays 0 here
        # and value() sets it when the node is reached.
        cost = [INF, 0] * frame.width + [0] * len(node_rest)
        node_consumers, act_consumers, br_consumers = ([[] for _ in cost] for _ in range(3))
        for q, rest in node_rest.items():
            for p in rest:
                node_consumers[p].append(q)
        # counts at the all-false state, where every positive literal is unmet
        unmet = [True, False] * frame.width
        is_unmet = unmet.__getitem__
        node_unsat = {q: sum(map(is_unmet, rest)) for q, rest in node_rest.items()}
        unmet += [k != 0 for k in node_unsat.values()]
        act_pre, act_unsat, act_add, act_branches = [], [], [], []
        br_act, br_cond, br_add, br_unsat = [], [], [], []
        for a, (act, pre, r, rest) in enumerate(zip(acts, pres, rarest, rests)):
            if rest in node_of:
                pre = [r, node_of[rest]]
            for p in pre:
                act_consumers[p].append(a)
            act_pre.append(pre)
            act_unsat.append(sum(map(is_unmet, pre)))
            ppos, pneg = act.pre
            adds, branches = [], []
            for cpos, cneg, epos, eneg in act.cond:
                cond = _lits(cpos & ~ppos, cneg & ~pneg)
                if not cond:
                    adds += _lits(epos, eneg)
                    continue
                b = len(br_act)
                for p in cond:
                    br_consumers[p].append(b)
                branches.append(b)
                br_act.append(a)
                br_cond.append(cond)
                br_add.append(_lits(epos, eneg))
                # a branch's gate is on while its action's count is not 0
                br_unsat.append(sum(map(is_unmet, cond)) + (act_unsat[a] != 0))
            act_add.append(adds)
            act_branches.append(branches)
        self.cost = cost
        self.node_rest, self.node_unsat, self.node_consumers = node_rest, node_unsat, node_consumers
        self.act_pre, self.act_unsat, self.act_add = act_pre, act_unsat, act_add
        self.act_branches, self.act_consumers = act_branches, act_consumers
        self.br_act, self.br_cond, self.br_add = br_act, br_cond, br_add
        self.br_unsat, self.br_consumers = br_unsat, br_consumers
        self.act_ready = {a for a, k in enumerate(act_unsat) if not k}
        self.br_ready = {b for b, k in enumerate(br_unsat) if not k}
        self.goal = goal
        self.goal_lits = _lits(*goal)
        self.goal_set = frozenset(self.goal_lits)

    def _move_to(self, bits: int) -> None:
        """Patch the counts, costs and ready sets of the last state into
        those of ``bits``, one layer at a time: nodes, actions, branches."""
        cost, act_consumers = self.cost, self.act_consumers
        node_up, node_down, act_up, act_down, br_up, br_down = [], [], [], [], [], []
        for f in bit_ids(bits ^ self.bits):
            now = 2 * f + (not bits >> f & 1)
            old = now ^ 1
            cost[now], cost[old] = 0, INF
            node_up += self.node_consumers[old]
            node_down += self.node_consumers[now]
            act_up += act_consumers[old]
            act_down += act_consumers[now]
            br_up += self.br_consumers[old]
            br_down += self.br_consumers[now]
        left, reached = _shift(self.node_unsat, node_up, node_down)
        for q in left:
            act_up += act_consumers[q]
        for q in reached:
            act_down += act_consumers[q]
        left, reached = _shift(self.act_unsat, act_up, act_down)
        for a in left:
            br_up += self.act_branches[a]  # the gate goes back on
        for a in reached:
            br_down += self.act_branches[a]
        self.act_ready.difference_update(left)
        self.act_ready.update(reached)
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
        act_unsat = self.act_unsat[:]
        br_unsat = self.br_unsat[:]
        node_rest, node_consumers = self.node_rest, self.node_consumers
        act_pre, act_add, act_branches, act_consumers = (
            self.act_pre, self.act_add, self.act_branches, self.act_consumers
        )
        br_act, br_cond, br_add, br_consumers = (
            self.br_act, self.br_cond, self.br_add, self.br_consumers
        )
        goal_set = self.goal_set
        get_cost = cost.__getitem__
        # What the ready actions and branches add costs 1.
        level = []
        for adds in [act_add[a] for a in self.act_ready] + [br_add[b] for b in self.br_ready]:
            for q in adds:
                if cost[q] > 1:
                    cost[q] = 1
                    level.append(q)
        buckets = {1: level}
        precost = [0] * len(act_pre)  # 0 for an action ready at the start
        while buckets:
            c = min(buckets)
            for p in buckets[c]:  # a node may join this level while it runs
                if cost[p] != c:
                    continue  # stale: settled earlier at a lower cost
                if p in goal_set:
                    goal_left -= 1
                    if not goal_left:
                        return sum(map(get_cost, self.goal_lits))
                for q in node_consumers[p]:
                    n = node_unsat[q] - 1
                    node_unsat[q] = n
                    if not n:
                        oc = sum(map(get_cost, node_rest[q]))
                        cost[q] = oc
                        buckets.setdefault(oc, []).append(q)
                branches = br_consumers[p]
                for a in act_consumers[p]:
                    n = act_unsat[a] - 1
                    act_unsat[a] = n
                    if not n:
                        precost[a] = sum(map(get_cost, act_pre[a]))
                        oc = 1 + precost[a]
                        for q in act_add[a]:
                            if oc < cost[q]:
                                cost[q] = oc
                                buckets.setdefault(oc, []).append(q)
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

