"""Branch and bound around a variational quantum subroutine.

Each node is a partial assignment of the master problem. Opening a node
propagates its forced fixings; a node that propagation refutes is never
evaluated. Evaluating an open node runs, in order: bound (restrict the
master's model to the free variables and compute a MaxCut-based lower bound
plus the restricted model's constant, so bounds live in the master frame);
prune; fathom a leaf; close the node on its own Goemans-Williamson cut when
that cut is feasible and node_lb >= c.cut, which makes the cut the node's
optimum; otherwise run the QAOA subroutine to sample candidate solutions,
and branch. When every cost is an integer, the bound is rounded up to the
lattice g*Z of objective values (g = gcd of the costs), so it bounds the
best feasible objective of the node. A branched node
branches on the free variable its SDP relaxation leaves most undecided, the
relaxed spin X[0, i+1] nearest 0. This departs from the paper, which
branches on the samples' conflict values: on set partitioning those often
tie, leaving the choice to the variable index, and the relaxed spin needs
fewer nodes (README). The samples' most conflicting variable is recorded
per node (``NodeRecord.conflict_var``) but decides nothing.
Candidates come from the samples and from the Goemans-Williamson rounded cut
of the bound's relaxation, ranked by c.x among the feasible ones (the big-M
penalty lives only in ``encode``'s model); each incumbent update records
which one (or a fathomed leaf) supplied it. Best-first selection by lowest
lower bound. The search keeps one incumbent, the best feasible point found:
it is the reported answer, the prune cutoff, the trace's upper bound ``ub``
and the incumbent term of the global lower bound. Nodes are evaluated one
at a time, so a run is deterministic for a fixed seed.

``evaluate_node`` returns the node's ``NodeRecord``, which ``solve`` keeps,
with what ``solve`` applies: query expectations, the node's best feasible
point and the branching variable, whose two children ``solve`` opens.

``SolverConfig`` checks each setting against its annotation with
``blp.check_value``, the rule instance and trace files are loaded by, so a
limit is a finite number and an integer setting lies within float range.
"""

from __future__ import annotations

import heapq
import dataclasses
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import bound as bound_mod
from . import vqa
from .blp import (
    FEASIBILITY_TOL,
    BlpInstance,
    check_value,
    compute_big_m,
    penalized_cost,
    violations,
)
from .bound import OPTIMALITY_TOL
from .ising import IsingModel, encode, many_body_count, reduce
from .metrics import TraceEvent, TraceRecorder, many_body_fraction
from .vqa import SampleSet

# Relaxed spins within this of the smallest |X[0, i+1]| tie for branching;
# on ladder and deep_tree some nodes' two smallest differ by under 1e-6,
# where another BLAS build's rounding could reorder them.
BRANCH_TIE_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, each checked against its annotation by
    ``blp.check_value``.

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
    wall_clock: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_value(f.name, getattr(self, f.name), f.type)
        if self.p < 1 or self.shots < 1 or self.node_queries < 1:
            raise ValueError("p, shots and node_queries must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for limit in (self.node_limit, self.time_limit, self.gap):
            if limit is not None and limit <= 0:
                raise ValueError("limits must be positive when set")


@dataclass
class Node:
    """An open subproblem: propagated fixings plus inherited bound."""

    id: int
    parent: int | None
    fixings: dict[int, int]
    local_lb: float


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
    # A branched node's most conflicting free variable in its samples (the
    # paper's branching rule), None when no sample violates a row. Observed
    # only: it feeds neither branching nor pruning.
    conflict_var: int | None = None


@dataclass(frozen=True)
class NodeEvaluation:
    """A node's ``NodeRecord`` plus what ``solve`` applies to the search."""

    record: NodeRecord
    expectations: tuple[float, ...] = ()
    candidate: tuple[float, np.ndarray] | None = None  # best feasible (value, x)
    candidate_source: str | None = None  # qaoa | gw | leaf
    branch_var: int | None = None


@dataclass(frozen=True)
class SolveResult:
    status: str  # optimal | gap_reached | node_limit | time_limit | infeasible
    best_value: float | None
    best_assignment: np.ndarray | None
    global_lb: float
    nodes_evaluated: int
    trace: tuple[TraceEvent, ...]
    node_records: dict[int, NodeRecord]


def conflict_values(A: np.ndarray, violated: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Conflict value gamma of each variable.

    Sample k, seen ``counts[k]`` times, violates constraint j when
    ``violated[k, j]`` (``blp.violations``); nu_j is the count-weighted
    fraction of violating samples, and gamma = nu @ P spreads the scores
    onto the variables appearing in each constraint.
    """
    if violated.shape[1] != A.shape[0]:
        raise ValueError(f"violations cover {violated.shape[1]} constraints, A has {A.shape[0]}")
    nu = (violated.T.astype(np.int8) @ counts) / counts.sum()
    return nu @ (A != 0).astype(np.int8)


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


def _cheapest_feasible(c: np.ndarray, full: np.ndarray, violated: np.ndarray) -> int | None:
    """The first row of ``full`` (0/1 master assignments) with the least c.x
    among those whose ``violated`` row is all False, None when there is none.
    The ranking product's sums can differ from a dot product's in the last
    bit on fractional costs, so callers value the row with its own c @ x."""
    feasible = np.flatnonzero(~violated.any(axis=1))
    return int(feasible[np.argmin((full @ c)[feasible])]) if feasible.size else None


def _candidate(
    master: BlpInstance, full: np.ndarray, violated: np.ndarray, last: str, other: str
) -> dict:
    """The ``NodeEvaluation`` fields of the cheapest feasible row of
    ``full``: ``candidate`` (c @ x, x) and ``candidate_source``, ``last``
    when it is the last row and ``other`` otherwise; none when no row is
    feasible."""
    row = _cheapest_feasible(master.c, full, violated)
    if row is None:
        return {}
    x = full[row].copy()
    source = last if row == len(full) - 1 else other
    return {"candidate": (float(master.c @ x), x), "candidate_source": source}


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
    _, values, state = vqa.optimize_angles(
        diag, config.p, queries, _node_rng(config.seed, node_id, 1), patience
    )
    samples = vqa.sample(state, config.shots, _node_rng(config.seed, node_id, 2))
    return tuple(v + model.constant for v in values), samples


def _check_simulator_limit(instance: BlpInstance) -> None:
    if instance.n > vqa.SIMULATOR_LIMIT:
        raise ValueError(
            f"instance has {instance.n} variables, simulator limit is {vqa.SIMULATOR_LIMIT}"
        )


def _prune(
    lb: float, ceiling: float, best_feasible: float | None
) -> tuple[str, str | None] | None:
    """The prune rule, as (outcome, reason), or None when the node survives.

    Infeasible when lb > T + tol, T the node's feasible ceiling and
    tol = OPTIMALITY_TOL * max(1, |T|) (``bound.infeasible_by_bound``);
    otherwise dominated when lb >= best_feasible, with no tolerance: the
    node holds no feasible point cheaper than the best one found.
    """
    if bound_mod.infeasible_by_bound(lb, ceiling):
        return "pruned_infeasible", "bound"
    if best_feasible is not None and lb >= best_feasible:
        return "pruned_bound", None
    return None


def evaluate_node(
    master: BlpInstance,
    model: IsingModel,
    node: Node,
    config: SolverConfig,
    best_feasible: float | None,
    lattice: float | None,
) -> NodeEvaluation:
    """Full lifecycle of one open node; pure given the node's seed streams.

    ``node.fixings`` are already propagated (``solve`` opens every node
    through ``propagate``). Ordering: restricting ``model`` (``encode``'s
    penalized model of ``master``, the only place its big M lives) to the
    free variables and bounding; the prune rule on the node bound; leaf
    fathoming; the node's own cut; the variational subroutine; then
    choosing the branching variable.
    The prune rule measures the bound against the node's feasible ceiling T
    and against ``best_feasible``, the incumbent's value (None prunes
    nothing).

    The node's own cut is the best hyperplane-rounded cut of the bound's
    relaxation, merged with the fixings into one master row. When it is
    feasible, the prune rule runs again with min(best_feasible, c.cut); as
    node_lb < best_feasible passed the first check, it prunes only when
    node_lb >= c.cut. The cut is feasible in the node, so c.cut >= f* >=
    node_lb and the cut is the node's optimum: the node closes as
    ``pruned_bound`` with reason ``gw`` and the cut as its ``candidate``,
    with no query and no ``branch_var``.

    Every exit builds the node's ``NodeRecord`` once, through ``finish``,
    with the node bound and many-body count. A fathomed leaf's evaluation
    also holds its point as the ``candidate`` when it is feasible. A
    branched node's holds every query's expectation in the master frame,
    the best feasible row as the ``candidate`` (if any row is feasible) and
    ``branch_var``, on which ``solve`` opens the children.

    The node bound is the larger of the inherited bound and the SDP bound on
    the penalized cost, which is also a bound on the best feasible objective
    f* of the node (a feasible point pays no penalty). Both prune
    inequalities are monotone in the bound, so the one check after bounding
    prunes every node the inherited bound alone would. With ``lattice`` g
    (``bound.objective_lattice``; None for fractional costs) f* lies on g*Z,
    so the bound is rounded up to g * ceil((lb - tol) / g)
    (``bound.round_up_to_lattice``). The rounded bound bounds f*, not the
    penalized minimum, and each use stays sound:

    - infeasibility prune: feasible objectives lie in [ceil(lb - tol), T],
      and T is itself on the lattice, so rounding proves no node empty that
      the raw bound left open;
    - dominance prune: a bound that reaches the best feasible value leaves
      nothing better in the node;
    - optimal stop: every open node's bound is at most its f*, so
      ``global_lb`` still bounds the optimum and ``optimal`` is a proof.

    The cut's row is merged with the fixings and checked once; a leaf's
    model has no spin and its cut side is [1], so that row is the leaf's
    one point. At a branched node it follows the QAOA samples, merged and
    checked (``blp.violations``) once, as the last row. The cheapest
    feasible row by c.x, the first on ties, is offered valued at its own
    c @ x (``candidate_source`` names its row, so a sample tied with the cut
    is offered as the sample).

    The branching variable is the free variable whose relaxed spin
    ``bres.relaxed_spins`` (X[0, i+1] of the bound's final SDP solution) is
    nearest 0, the one the relaxation leaves most undecided. Spins within
    BRANCH_TIE_TOL = 1e-6 of the smallest |X[0, i+1]| count as tied, and the
    lowest free index among them wins, so the SDP solve's rounding does not
    decide between near-equal spins. The samples' conflict
    values, read from the sample rows of that violation matrix, give the
    record's ``conflict_var`` and nothing else.
    """
    red = reduce(model, node.fixings)
    bres = bound_mod.lower_bound(red.model, _node_rng(config.seed, node.id, 0))
    node_lb = bound_mod.round_up_to_lattice(
        max(node.local_lb, bres.lb_value + red.model.constant), lattice
    )
    many_body = many_body_count(red.model)

    def finish(
        outcome: str, reason: str | None = None, conflict_var: int | None = None, **rest
    ) -> NodeEvaluation:
        record = NodeRecord(
            node.id, node.parent, outcome, reason, node_lb, node.fixings, red.n_free, many_body,
            conflict_var,
        )
        return NodeEvaluation(record, **rest)

    ceiling = bound_mod.feasible_ceiling(master.c, node.fixings)
    pruned = _prune(node_lb, ceiling, best_feasible)
    if pruned is not None:
        return finish(*pruned)

    cut = red.merge((bres.side[None, 1:] + 1) // 2)
    cut_violated = violations(master, cut)
    if red.n_free == 0:
        return finish("fathomed_leaf", **_candidate(master, cut, cut_violated, "leaf", "leaf"))

    own = _candidate(master, cut, cut_violated, "gw", "gw")
    if own:
        value = own["candidate"][0]
        if _prune(node_lb, ceiling, value if best_feasible is None else min(best_feasible, value)):
            return finish("pruned_bound", "gw", **own)

    # Stop after two Nelder-Mead simplex sizes (2p+1 points over 2p angles)
    # of queries without a new best.
    patience = 2 * (2 * config.p + 1)
    expectations, samples = _run_vqa(red.model, config, node.id, config.node_queries, patience)
    full = np.vstack((red.merge(samples.bitstrings), cut))
    violated = np.vstack((violations(master, full[:-1]), cut_violated))
    gamma = conflict_values(master.A, violated[:-1], samples.counts)[red.index_map]
    conflict_var = int(red.index_map[np.argmax(gamma)]) if gamma.max() > 0.0 else None
    undecided = np.abs(bres.relaxed_spins)
    return finish(
        "branched",
        conflict_var=conflict_var,
        expectations=expectations,
        branch_var=int(red.index_map[np.argmax(undecided <= undecided.min() + BRANCH_TIE_TOL)]),
        **_candidate(master, full, violated, "gw", "qaoa"),
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

    Every node, the root included, is opened once by ``open_node``, which
    propagates its fixings and queues it or records it refuted. Pops one
    node at a time, evaluates it against the best feasible value so far and
    applies the result, so the trace is deterministic for a fixed seed.

    The incumbent is the best feasible (value, x) offered so far; a
    candidate replaces it only when strictly cheaper. Each replacement
    records an ``incumbent_update`` whose ``ub`` is the new value, so the
    ``ub`` rows never increase and never fall below the optimum. The global
    lower bound is min(frontier, incumbent), a missing term being +inf, and
    only rises. The search stops ``optimal`` once it reaches the incumbent
    less ``OPTIMALITY_TOL``, and ``gap_reached`` once
    (incumbent - global_lb) / max(1, |incumbent|) <= ``config.gap``.
    """
    if config is None:
        config = SolverConfig()
    _check_simulator_limit(instance)
    lattice = bound_mod.objective_lattice(instance.c)
    model = encode(instance, compute_big_m(instance))
    master_mb = many_body_count(model)
    t0 = time.perf_counter()
    rec = TraceRecorder(wall_clock=config.wall_clock)
    best_value: float | None = None
    best_x: np.ndarray | None = None
    records: dict[int, NodeRecord] = {}

    ids = itertools.count()
    heap: list[tuple[float, int, int, Node]] = []
    global_lb = -np.inf
    node_index = -1
    query_count = 0
    status: str | None = None

    def open_node(parent: int | None, lb: float, fixings: dict[int, int]) -> None:
        node_id = next(ids)
        fixings, feasible = propagate(instance.A, instance.b, fixings)
        if feasible:
            node = Node(node_id, parent, fixings, lb)
            heapq.heappush(heap, (lb, -len(fixings), node_id, node))
            return
        rec.record("prune", max(node_index, 0), status="infeasible")
        records[node_id] = NodeRecord(
            node_id, parent, "pruned_infeasible", "propagation", lb, fixings,
            instance.n - len(fixings),
        )

    def apply_evaluation(ev: NodeEvaluation) -> None:
        nonlocal query_count, best_value, best_x
        for value in ev.expectations:
            query_count += 1
            rec.record("optimizer_query", node_index, query_index=query_count, expectation=value)
        if ev.candidate is not None and (best_value is None or ev.candidate[0] < best_value):
            best_value, best_x = ev.candidate
            rec.record("incumbent_update", node_index, ub=best_value, status=ev.candidate_source)
        done = ev.record
        kind, event_status = _OUTCOME_EVENTS[done.outcome]
        mb = done.many_body_count
        fraction = None if mb is None else many_body_fraction(mb, master_mb)
        rec.record(kind, node_index, status=event_status, many_body_fraction=fraction)
        records[done.node_id] = done
        if ev.branch_var is not None:
            for value in (0, 1):
                open_node(done.node_id, done.local_lb, {**done.fixings, ev.branch_var: value})

    def refresh_global_lb() -> None:
        nonlocal global_lb
        frontier = heap[0][0] if heap else np.inf
        candidate = frontier if best_value is None else min(frontier, best_value)
        if global_lb < candidate < np.inf:
            global_lb = candidate
            rec.record("bound_update", max(node_index, 0), lb=global_lb)

    open_node(None, -np.inf, {})
    while heap:
        if best_value is not None and global_lb >= best_value - OPTIMALITY_TOL:
            status = "optimal"
            break
        if (
            config.gap is not None
            and best_value is not None
            and np.isfinite(global_lb)
            and (best_value - global_lb) / max(1.0, abs(best_value)) <= config.gap
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
        node_index += 1
        rec.record("node_start", node_index)
        ev = evaluate_node(instance, model, node, config, best_value, lattice)
        apply_evaluation(ev)
        refresh_global_lb()

    if status is None:
        # An exhausted tree proves optimality. The last refresh_global_lb ran
        # on an empty heap and raised global_lb to the best feasible value.
        status = "infeasible" if best_value is None else "optimal"
    rec.record(
        "done",
        max(node_index, 0),
        lb=None if not np.isfinite(global_lb) else global_lb,
        ub=best_value,
        status=status,
    )
    return SolveResult(
        status=status,
        best_value=best_value,
        best_assignment=best_x,
        global_lb=global_lb,
        nodes_evaluated=node_index + 1,
        trace=tuple(rec.events),
        node_records=records,
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
    check_value("queries", queries, "int")
    if queries < 1:
        raise ValueError("queries must be positive")
    _check_simulator_limit(instance)
    M = compute_big_m(instance)
    rec = TraceRecorder(wall_clock=config.wall_clock)
    expectations, samples = _run_vqa(encode(instance, M), config, 0, queries, None)
    for q, value in enumerate(expectations, start=1):
        rec.record("optimizer_query", 0, query_index=q, expectation=value)
    full = samples.bitstrings.astype(float)
    residual = full @ instance.A.T - instance.b
    x = full[np.argmin(full @ instance.c + M * np.sum(residual * residual, axis=1))].copy()
    feasible = _cheapest_feasible(instance.c, full, violations(instance, full))
    feasible_x = None if feasible is None else full[feasible].copy()
    value = penalized_cost(instance, x, M)
    rec.record("incumbent_update", 0, ub=value)
    rec.record("done", 0, ub=value, status="completed")
    return BaselineResult(
        best_penalized_value=value,
        best_penalized_assignment=x,
        best_feasible_value=None if feasible_x is None else float(instance.c @ feasible_x),
        best_feasible_assignment=feasible_x,
        queries=len(expectations),
        trace=tuple(rec.events),
    )
