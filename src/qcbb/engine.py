"""Conflict-driven branch and bound around a variational quantum subroutine.

Each node is a partial assignment of the master problem. Evaluating a node
propagates forced fixings, restricts the master's model to the free
variables, computes a MaxCut-based lower bound (plus the restricted model's
constant, so bounds live in the master frame), and either prunes, fathoms,
or runs the QAOA subroutine to sample candidate solutions. When every cost
is an integer, the bound is rounded up to the lattice g*Z of objective
values (g = gcd of the costs), so it bounds the best feasible objective of
the node. Violated constraints in the samples yield
per-variable conflict values; the most conflicting variable is branched on.
Candidates come from the samples and from the Goemans-Williamson rounded cut
of the bound's relaxation; each incumbent update records which one (or a
fathomed leaf) supplied it. Best-first selection by lowest lower bound;
pruning compares bounds with the best feasible value and the best penalized
cost seen (``Incumbent.cutoff``), while the reported answer is the best
feasible solution. Nodes are evaluated one at a time, so a run is
deterministic for a fixed seed.

``evaluate_node`` returns the node's ``NodeRecord``, which ``solve`` keeps,
with what ``solve`` applies: query expectations, candidates and children.
"""

from __future__ import annotations

import heapq
import dataclasses
import itertools
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import bound as bound_mod
from . import vqa
from .blp import FEASIBILITY_TOL, BlpInstance, compute_big_m
from .bound import OPTIMALITY_TOL
from .ising import IsingModel, encode, many_body_count, reduce
from .metrics import TraceEvent, TraceRecorder, many_body_fraction
from .vqa import SampleSet


def check_setting(name: str, value, annotation: str) -> None:
    """Raise ValueError unless ``value`` has the JSON-style type that
    ``annotation`` names: ``int`` (a bool is none, and 1.5 is not rounded),
    ``float`` (any real number) or ``bool``; None only under ``| None``."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        ok = optional == "None"
    elif kind == "bool":
        ok = isinstance(value, bool)
    else:
        number = numbers.Integral if kind == "int" else numbers.Real
        ok = isinstance(value, number) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"{name} must be {annotation}, not {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, each checked against its annotated type.

    ``node_queries`` caps the optimizer queries of each branched node; a
    node stops earlier once 2(2p+1) consecutive queries have found no
    expectation below its best (``vqa.optimize_angles``' ``patience``).
    ``gap`` is the relative gap target: the search stops once
    (best feasible - global lower bound) / max(1, |best feasible|) is at
    most it.
    """

    p: int = 3
    shots: int = 1024
    node_queries: int = 50
    node_limit: int | None = None
    time_limit: float | None = None
    gap: float | None = None
    seed: int = 0
    prune: bool = True
    wall_clock: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_setting(f.name, getattr(self, f.name), f.type)
        if self.p < 1 or self.shots < 1 or self.node_queries < 1:
            raise ValueError("p, shots and node_queries must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for limit in (self.node_limit, self.time_limit, self.gap):
            if limit is not None and not limit > 0:  # NaN is not a limit
                raise ValueError("limits must be positive when set")


@dataclass
class Node:
    """An open subproblem: fixings over original indices plus inherited bound."""

    id: int
    parent: int | None
    fixings: dict[int, int]
    local_lb: float

    @property
    def depth(self) -> int:
        return len(self.fixings)


@dataclass
class Incumbent:
    """Best penalized cost (pruning bound) and best feasible solution (answer)."""

    best_penalized_value: float | None = None
    best_penalized_x: np.ndarray | None = None
    best_feasible_value: float | None = None
    best_feasible_x: np.ndarray | None = None

    def offer(self, value: float, x: np.ndarray, feasible: bool) -> bool:
        """Record a candidate; returns True when the penalized bound improved."""
        improved = False
        if self.best_penalized_value is None or value < self.best_penalized_value:
            self.best_penalized_value = value
            self.best_penalized_x = x
            improved = True
        if feasible and (self.best_feasible_value is None or value < self.best_feasible_value):
            self.best_feasible_value = value
            self.best_feasible_x = x
        return improved

    def cutoff(self) -> float | None:
        """Node bound at or above which the node holds no better answer.

        The best feasible value prunes ties. The penalized value may belong
        to an infeasible point, whose penalized cost is at least the feasible
        optimum and can equal it, so it only prunes bounds above it by more
        than OPTIMALITY_TOL * max(1, |value|).
        """
        ub = self.best_penalized_value
        if ub is None:
            return None
        cut = ub + OPTIMALITY_TOL * max(1.0, abs(ub))
        if self.best_feasible_value is not None:
            cut = min(cut, self.best_feasible_value)
        return cut


@dataclass(frozen=True)
class NodeRecord:
    """Per-node summary kept alongside the event trace."""

    node_id: int
    parent_id: int | None
    outcome: str  # pruned_infeasible | pruned_bound | fathomed_leaf | branched
    reason: str | None
    local_lb: float
    fixings: dict[int, int]
    n_free: int
    many_body_count: int | None = None

    @property
    def depth(self) -> int:
        return len(self.fixings)


@dataclass(frozen=True)
class NodeEvaluation:
    """A node's ``NodeRecord`` plus what ``solve`` applies to the search."""

    record: NodeRecord
    expectations: tuple[float, ...] = ()
    candidates: tuple[tuple[float, np.ndarray, bool], ...] = ()
    candidate_source: str | None = None  # qaoa | gw | leaf
    branch_var: int | None = None
    children: tuple[tuple[dict[int, int], bool], ...] = ()


@dataclass(frozen=True)
class SolveResult:
    status: str  # optimal | gap_reached | node_limit | time_limit | infeasible
    best_value: float | None
    best_assignment: np.ndarray | None
    best_penalized_value: float | None
    best_penalized_assignment: np.ndarray | None
    global_lb: float
    nodes_evaluated: int
    trace: tuple[TraceEvent, ...]
    node_records: dict[int, NodeRecord]
    M: float
    elapsed_s: float


def conflict_values(
    A: np.ndarray, b: np.ndarray, X: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Conflict value gamma of each variable.

    Sample row k of ``X``, seen ``counts[k]`` times, violates constraint j
    when its residual is nonzero; nu_j is the count-weighted fraction of
    violating samples, and gamma = nu @ P spreads the scores onto the
    variables appearing in each constraint.
    """
    if X.shape[1] != A.shape[1]:
        raise ValueError(
            f"samples have {X.shape[1]} variables, constraints have {A.shape[1]}"
        )
    residual = X @ A.T - b
    violation = (np.abs(residual) > FEASIBILITY_TOL).T.astype(np.int8)
    nu = (violation @ counts) / counts.sum()
    return nu @ (A != 0).astype(np.int8)


def select_branching_variable(gamma: np.ndarray, fields: np.ndarray) -> int:
    """Most conflicting variable; ties to the lowest index.

    When all samples were feasible (gamma identically zero) falls back to the
    variable with the largest absolute field.
    """
    if gamma.size == 0:
        raise ValueError("cannot branch on an empty problem")
    if float(np.max(gamma)) > 0.0:
        return int(np.argmax(gamma))
    return int(np.argmax(np.abs(fields)))


def propagate(
    A: np.ndarray, b: np.ndarray, fixings: dict[int, int]
) -> tuple[dict[int, int], bool]:
    """Fixpoint of activity-based propagation on the residual equalities.

    For each constraint over the free binaries: infeasible when the residual
    lies outside [min activity, max activity]; when the residual equals one of
    the activity bounds, every free variable with a nonzero coefficient is
    forced to the achieving value. Returns the extended fixings and whether
    the system is still feasible.
    """
    m, n = A.shape
    tol = FEASIBILITY_TOL
    fix = dict(fixings)
    changed = True
    while changed:
        changed = False
        for j in range(m):
            row = A[j]
            residual = b[j]
            min_act = 0.0
            max_act = 0.0
            free: list[int] = []
            for i in range(n):
                a = row[i]
                if a == 0.0:
                    continue
                if i in fix:
                    residual -= a * fix[i]
                else:
                    free.append(i)
                    min_act += min(a, 0.0)
                    max_act += max(a, 0.0)
            if min_act > residual + tol or max_act < residual - tol:
                return fix, False
            if free and abs(min_act - residual) <= tol:
                for i in free:
                    fix[i] = 0 if row[i] > 0 else 1
                changed = True
            elif free and abs(max_act - residual) <= tol:
                for i in free:
                    fix[i] = 1 if row[i] > 0 else 0
                changed = True
    return fix, True


def _node_rng(seed: int, node_id: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, node_id, stream])


def _evaluate_candidates(
    master: BlpInstance, full: np.ndarray, M: float
) -> tuple[tuple[tuple[float, np.ndarray, bool], ...], int]:
    """Candidates among the rows of ``full``, each a 0/1 assignment of the
    master variables: the best penalized one as (value, x, feasible), with
    value c.x + M ||Ax - b||^2, then the best feasible one if any; and the
    row of the best penalized one (the first on ties)."""
    residual = full @ master.A.T - master.b
    penalized = full @ master.c + M * np.sum(residual * residual, axis=1)
    feasible = np.all(np.abs(residual) <= FEASIBILITY_TOL, axis=1)
    best = int(np.argmin(penalized))
    candidates = [(float(penalized[best]), full[best].copy(), bool(feasible[best]))]
    if feasible.any():
        order = np.where(feasible)[0]
        j = order[int(np.argmin(penalized[order]))]
        candidates.append((float(penalized[j]), full[j].copy(), True))
    return tuple(candidates), best


def _run_vqa(
    model: IsingModel,
    config: SolverConfig,
    node_id: int,
    queries: int,
    patience: int | None,
) -> tuple[tuple[float, ...], SampleSet]:
    """Every query's expectation, in the master frame, and the samples of
    the best angles."""
    diag = vqa.build_diagonal(model)
    table = vqa.phase_table(diag)
    rng = _node_rng(config.seed, node_id, 1)
    params, values = vqa.optimize_angles(
        diag, config.p, queries, rng, table=table, patience=patience
    )
    state = vqa.qaoa_state(diag, params, table)
    samples = vqa.sample(state, config.shots, _node_rng(config.seed, node_id, 2))
    return tuple(v + model.constant for v in values), samples


def _prune(
    lb: float, ceiling: float, cutoff: float | None, config: SolverConfig
) -> tuple[str, str | None] | None:
    """The prune rule, as (outcome, reason), or None when the node survives.

    Infeasible when ``bound.infeasible_by_bound(lb, ceiling)``, i.e.
    lb > T + tol; otherwise dominated when lb >= the incumbent cutoff
    (``Incumbent.cutoff``).
    """
    if not config.prune:
        return None
    if bound_mod.infeasible_by_bound(lb, ceiling):
        return "pruned_infeasible", "bound"
    if cutoff is not None and lb >= cutoff:
        return "pruned_bound", None
    return None


def evaluate_node(
    master: BlpInstance,
    model: IsingModel,
    M: float,
    node: Node,
    config: SolverConfig,
    cutoff: float | None,
    lattice: float | None,
) -> NodeEvaluation:
    """Full lifecycle of one node; pure given the node's seed streams.

    Ordering: propagation; the prune rule on the inherited bound; restricting
    ``model`` (``encode(master, M)``) to the free variables and bounding; the
    prune rule on the node bound; leaf fathoming; the variational subroutine;
    then branching on the most conflicting variable with both children
    re-propagated. Both prune checks measure the bound against the node's
    feasible ceiling T, computed once after propagation, and against
    ``cutoff`` (``Incumbent.cutoff``; None prunes nothing).

    Every exit builds the node's ``NodeRecord`` once, through ``finish``,
    with the bound and many-body count reached by then. A branched node's
    evaluation also holds every query's expectation in the master frame,
    the best penalized candidate then the best feasible one (if any), and
    the children as (fixings, feasible) pairs on ``branch_var``.

    The node bound is the SDP bound on the penalized cost, which is also a
    bound on the best feasible objective f* of the node (a feasible point
    pays no penalty). With ``lattice`` g (``bound.objective_lattice``; None
    for fractional costs) f* lies on g*Z, so the bound is rounded up to
    g * ceil((lb - tol) / g) (``bound.round_up_to_lattice``). The rounded
    bound bounds f*, not the penalized minimum, and each use stays sound:

    - infeasibility prune: feasible objectives lie in [ceil(lb - tol), T],
      and T is itself on the lattice, so rounding proves no node empty that
      the raw bound left open;
    - dominance prune: a bound that reaches the best feasible value leaves
      nothing better in the node; one above a penalized incumbent by more
      than tol is above the global feasible optimum too, because a
      penalized value is at least that optimum (penalty separation);
    - optimal stop: every open node's bound is at most its f*, so
      ``global_lb`` still bounds the optimum and ``optimal`` is a proof.

    At a branched node the best hyperplane-rounded cut of the bound's
    relaxation follows the QAOA samples as the last row. The rows, or a
    fathomed leaf's one point, are merged with the fixings into master
    assignments once and scored by ``_evaluate_candidates`` as
    c.x + M ||Ax - b||^2, feasibility checked, and the cheapest row is
    offered (``candidate_source``; a tie keeps the sample). The conflict
    values read the merged sample rows alone, so branching ignores the cut.
    """
    fixings, feasible = propagate(master.A, master.b, node.fixings)
    node_lb, many_body = node.local_lb, None

    def finish(outcome: str, reason: str | None = None, **rest) -> NodeEvaluation:
        # The record takes the bound and many-body count reached so far.
        n_free = master.n - len(fixings)
        record = NodeRecord(
            node.id, node.parent, outcome, reason, node_lb, fixings, n_free, many_body
        )
        return NodeEvaluation(record, **rest)

    if not feasible:
        return finish("pruned_infeasible", "propagation")
    ceiling = bound_mod.feasible_ceiling(master.c, fixings)
    pruned = _prune(node_lb, ceiling, cutoff, config)
    if pruned is not None:
        return finish(*pruned)

    red = reduce(model, fixings)
    bres = bound_mod.lower_bound(red.model, _node_rng(config.seed, node.id, 0))
    node_lb = bound_mod.round_up_to_lattice(
        max(node_lb, bres.lb_value + red.model.constant), lattice
    )
    many_body = many_body_count(red.model)
    pruned = _prune(node_lb, ceiling, cutoff, config)
    if pruned is not None:
        return finish(*pruned)

    if red.n_free == 0:
        leaf, _ = _evaluate_candidates(master, red.merge(np.zeros((1, 0))), M)
        return finish("fathomed_leaf", candidates=leaf, candidate_source="leaf")

    # Stop after two Nelder-Mead simplex sizes (2p+1 points over 2p angles)
    # of queries without a new best.
    patience = 2 * (2 * config.p + 1)
    expectations, samples = _run_vqa(red.model, config, node.id, config.node_queries, patience)
    full = red.merge(np.vstack((samples.bitstrings, (bres.side[1:] + 1) // 2)))
    candidates, best = _evaluate_candidates(master, full, M)
    gamma = conflict_values(master.A, master.b, full[:-1], samples.counts)
    k = int(red.index_map[select_branching_variable(gamma[red.index_map], red.model.fields)])
    return finish(
        "branched",
        expectations=expectations,
        candidates=candidates,
        candidate_source="gw" if best == len(full) - 1 else "qaoa",
        branch_var=k,
        children=tuple(propagate(master.A, master.b, {**fixings, k: v}) for v in (0, 1)),
    )


# Trace event (kind, status) recorded for each node outcome.
_OUTCOME_EVENTS = {
    "pruned_infeasible": ("prune", "infeasible"),
    "pruned_bound": ("prune", "bound"),
    "fathomed_leaf": ("fathom", "leaf"),
    "branched": ("branch", None),
}


def solve(instance: BlpInstance, config: SolverConfig | None = None) -> SolveResult:
    """Best-first branch and bound to proven optimality or a configured stop.

    Pops one node at a time, evaluates it against the current incumbent
    cutoff and applies the result, so the trace is deterministic for a
    fixed seed.
    """
    if config is None:
        config = SolverConfig()
    if instance.n > vqa.SIMULATOR_LIMIT:
        raise ValueError(
            f"instance has {instance.n} variables, simulator limit is "
            f"{vqa.SIMULATOR_LIMIT}"
        )
    M = compute_big_m(instance)
    lattice = bound_mod.objective_lattice(instance.c)
    model = encode(instance, M)
    master_mb = many_body_count(model)
    t0 = time.perf_counter()
    rec = TraceRecorder(wall_clock=config.wall_clock)
    incumbent = Incumbent()
    records: dict[int, NodeRecord] = {}

    ids = itertools.count()
    root = Node(id=next(ids), parent=None, fixings={}, local_lb=-np.inf)
    heap: list[tuple[float, int, int, Node]] = []
    heapq.heappush(heap, (root.local_lb, -root.depth, root.id, root))

    global_lb = -np.inf
    node_index = -1
    query_count = 0
    status: str | None = None

    def apply_evaluation(ev: NodeEvaluation) -> None:
        nonlocal query_count
        for value in ev.expectations:
            query_count += 1
            rec.record("optimizer_query", node_index, query_index=query_count, expectation=value)
        improved = False
        for candidate in ev.candidates:
            improved |= incumbent.offer(*candidate)
        if improved:
            ub = incumbent.best_penalized_value
            rec.record("incumbent_update", node_index, ub=ub, status=ev.candidate_source)
        done = ev.record
        kind, event_status = _OUTCOME_EVENTS[done.outcome]
        mb = done.many_body_count
        fraction = None if mb is None else many_body_fraction(mb, master_mb)
        rec.record(kind, node_index, status=event_status, many_body_fraction=fraction)
        records[done.node_id] = done
        for fixings, feasible in ev.children:
            cid = next(ids)
            if feasible:
                child = Node(id=cid, parent=done.node_id, fixings=fixings, local_lb=done.local_lb)
                heapq.heappush(heap, (child.local_lb, -child.depth, child.id, child))
                continue
            rec.record("prune", node_index, status="infeasible")
            records[cid] = NodeRecord(
                cid, done.node_id, "pruned_infeasible", "propagation", done.local_lb, fixings,
                instance.n - len(fixings),
            )

    def refresh_global_lb() -> None:
        nonlocal global_lb
        ub = incumbent.best_penalized_value
        if heap:
            frontier = heap[0][0]
            candidate = frontier if ub is None else min(frontier, ub)
        elif ub is not None:
            candidate = ub
        else:
            return
        if candidate > global_lb:
            global_lb = candidate
            rec.record("bound_update", max(node_index, 0), lb=global_lb)

    while heap:
        if (
            incumbent.best_feasible_value is not None
            and global_lb >= incumbent.best_feasible_value - OPTIMALITY_TOL
        ):
            status = "optimal"
            break
        # The gap is a claim about a solution we can return, so it is
        # measured against the best feasible value and waits for one.
        ub = incumbent.best_feasible_value
        if (
            config.gap is not None
            and ub is not None
            and np.isfinite(global_lb)
            and (ub - global_lb) / max(1.0, abs(ub)) <= config.gap
        ):
            status = "gap_reached"
            break
        if config.node_limit is not None and node_index + 1 >= config.node_limit:
            status = "node_limit"
            break
        if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
            status = "time_limit"
            break

        node = heapq.heappop(heap)[3]
        ev = evaluate_node(instance, model, M, node, config, incumbent.cutoff(), lattice)
        node_index += 1
        rec.record("node_start", node_index)
        apply_evaluation(ev)
        refresh_global_lb()

    if status is None:
        if incumbent.best_feasible_value is not None:
            # Exhausted tree proves optimality; bounds meet at the incumbent.
            status = "optimal"
            global_lb = max(
                global_lb,
                min(incumbent.best_feasible_value, incumbent.best_penalized_value),
            )
        else:
            status = "infeasible"
    rec.record(
        "done",
        max(node_index, 0),
        lb=None if not np.isfinite(global_lb) else global_lb,
        ub=incumbent.best_penalized_value,
        status=status,
    )
    return SolveResult(
        status=status,
        best_value=incumbent.best_feasible_value,
        best_assignment=incumbent.best_feasible_x,
        best_penalized_value=incumbent.best_penalized_value,
        best_penalized_assignment=incumbent.best_penalized_x,
        global_lb=global_lb,
        nodes_evaluated=node_index + 1,
        trace=tuple(rec.events),
        node_records=records,
        M=M,
        elapsed_s=time.perf_counter() - t0,
    )


# Query budget of ``run_plain_qaoa`` when the caller sets none.
BASELINE_QUERIES = 500


@dataclass(frozen=True)
class BaselineResult:
    best_penalized_value: float
    best_penalized_assignment: np.ndarray
    best_feasible_value: float | None
    best_feasible_assignment: np.ndarray | None
    queries: int
    trace: tuple[TraceEvent, ...]


def run_plain_qaoa(
    instance: BlpInstance, config: SolverConfig | None = None, queries: int = BASELINE_QUERIES
) -> BaselineResult:
    """Single-node QAOA on the master problem under a flat query budget.

    Emits the same trace schema as the tree solver so runs can be compared
    query-for-query.
    """
    if config is None:
        config = SolverConfig()
    check_setting("queries", queries, "int")
    if queries < 1:
        raise ValueError("queries must be positive")
    if instance.n > vqa.SIMULATOR_LIMIT:
        raise ValueError("instance exceeds the simulator limit")
    M = compute_big_m(instance)
    rec = TraceRecorder(wall_clock=config.wall_clock)
    expectations, samples = _run_vqa(encode(instance, M), config, 0, queries, None)
    for q, value in enumerate(expectations, start=1):
        rec.record("optimizer_query", 0, query_index=q, expectation=value)
    best = Incumbent()
    for candidate in _evaluate_candidates(instance, samples.bitstrings.astype(float), M)[0]:
        best.offer(*candidate)
    rec.record("incumbent_update", 0, ub=best.best_penalized_value)
    rec.record("done", 0, ub=best.best_penalized_value, status="completed")
    return BaselineResult(
        best_penalized_value=best.best_penalized_value,
        best_penalized_assignment=best.best_penalized_x,
        best_feasible_value=best.best_feasible_value,
        best_feasible_assignment=best.best_feasible_x,
        queries=len(expectations),
        trace=tuple(rec.events),
    )
