import numpy as np
import pytest

from conftest import odd_cycle_instance
from qcbb import engine, ising, vqa
from qcbb.blp import (
    BlpInstance,
    brute_force_optimum,
    compute_big_m,
    enumerate_assignments,
    generate_spp,
)
from qcbb.bound import objective_lattice
from qcbb.engine import (
    Incumbent,
    Node,
    SolverConfig,
    conflict_values,
    evaluate_node,
    propagate,
    run_plain_qaoa,
    select_branching_variable,
    solve,
)
from qcbb.ising import encode, many_body_count
from qcbb.vqa import SIMULATOR_LIMIT


class TestConflictValues:
    def test_hand_worked_example(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        # nu = [1, 1/4] per constraint, spread onto each constraint's variables
        assert np.allclose(conflict_values(A, b, X, np.array([3, 1])), [1.0, 1.25, 0.25])

    def test_all_feasible(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        gamma = conflict_values(A, b, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2, 2]))
        assert np.all(gamma == 0)

    def test_single_fully_violating_sample(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        gamma = conflict_values(A, b, np.zeros((1, 3)), np.array([4]))
        # every constraint is violated, so gamma_i counts the constraints
        # variable i appears in
        assert np.allclose(gamma, [1.0, 1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conflict_values(np.ones((1, 3)), np.ones(1), np.array([[1.0, 0.0]]), np.array([1]))


class TestSelectBranchingVariable:
    def test_argmax(self):
        assert select_branching_variable(np.array([1.0, 1.25, 0.25]), np.zeros(3)) == 1

    def test_tie_breaks_low_index(self):
        assert select_branching_variable(np.array([0.5, 0.5]), np.zeros(2)) == 0

    def test_zero_gamma_falls_back_to_field(self):
        assert select_branching_variable(np.zeros(2), np.array([0.5, -3.0])) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            select_branching_variable(np.zeros(0), np.zeros(0))


class TestPropagate:
    def test_spp_row_fixes_rest_to_zero(self):
        A = np.array([[1.0, 1.0, 1.0]])
        b = np.array([1.0])
        fix, ok = propagate(A, b, {1: 1})
        assert ok and fix == {0: 0, 1: 1, 2: 0}

    def test_contradiction_detected(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        _, ok = propagate(A, b, {0: 0, 1: 0})
        assert not ok

    def test_no_fixings_fixpoint(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        fix, ok = propagate(A, b, {})
        assert ok and fix == {}

    def test_unreachable_rhs(self):
        _, ok = propagate(np.array([[1.0, 1.0]]), np.array([3.0]), {})
        assert not ok

    def test_chained_propagation(self):
        # fixing x1=1 zeroes row 0's residual, forcing x0=0; row 1 then forces x2=1
        A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        b = np.array([1.0, 1.0])
        fix, ok = propagate(A, b, {1: 1})
        assert ok and fix == {0: 0, 1: 1, 2: 1}

    def test_negative_coefficients(self):
        # x0 - x1 = 1 forces x0=1, x1=0 (max activity equals residual)
        fix, ok = propagate(np.array([[1.0, -1.0]]), np.array([1.0]), {})
        assert ok and fix == {0: 1, 1: 0}

    def test_preserves_feasible_completions(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            inst = generate_spp(int(rng.integers(5, 9)), int(rng.integers(2, 4)), seed=int(rng.integers(999)))
            k = int(rng.integers(0, 3))
            idx = rng.choice(inst.n, size=k, replace=False)
            fixings = {int(i): int(rng.integers(0, 2)) for i in idx}
            fix, ok = propagate(inst.A, inst.b, fixings)
            before = {
                tuple(x)
                for x in enumerate_assignments(inst.n)
                if inst.is_feasible(x) and all(x[i] == v for i, v in fixings.items())
            }
            if not ok:
                assert not before
                continue
            after = {
                tuple(x)
                for x in enumerate_assignments(inst.n)
                if inst.is_feasible(x) and all(x[i] == v for i, v in fix.items())
            }
            assert before == after


def evaluate(inst, node, config, cutoff, lattice):
    """``evaluate_node`` on the encoded master of ``inst`` with its big M."""
    M = compute_big_m(inst)
    return evaluate_node(inst, encode(inst, M), M, node, config, cutoff, lattice)


class TestEvaluateNode:
    def test_propagation_leaf_is_fathomed(self):
        inst = BlpInstance(c=[2.0, 3.0], A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 0.0])
        node = Node(id=0, parent=None, fixings={}, local_lb=-np.inf)
        ev = evaluate(inst, node, SolverConfig(seed=0), None, objective_lattice(inst.c))
        assert ev.record.outcome == "fathomed_leaf"
        value, x, feasible = ev.candidates[0]
        assert feasible and value == 2.0
        assert np.array_equal(x, [1, 0])

    def test_inherited_bound_at_penalty_prunes_infeasible(self, three_var_instance):
        M = compute_big_m(three_var_instance)
        node = Node(id=0, parent=None, fixings={}, local_lb=M + 5.0)
        ev = evaluate(three_var_instance, node, SolverConfig(seed=0), None, 1.0)
        assert ev.record.outcome == "pruned_infeasible" and ev.record.reason == "bound"

    def test_incumbent_prunes(self, three_var_instance):
        node = Node(id=0, parent=None, fixings={}, local_lb=0.9)
        ev = evaluate(three_var_instance, node, SolverConfig(seed=0), 0.5, 1.0)
        assert ev.record.outcome == "pruned_bound"

    def test_root_branches_on_one_variable(self, three_var_instance):
        node = Node(id=0, parent=None, fixings={}, local_lb=-np.inf)
        ev = evaluate(three_var_instance, node, SolverConfig(seed=1), None, 1.0)
        assert ev.record.outcome == "branched"
        (zero, _), (one, _) = ev.children
        assert ev.branch_var not in ev.record.fixings
        assert zero[ev.branch_var] == 0
        assert one[ev.branch_var] == 1

    def test_bound_proves_cycle_infeasible(self):
        # 3-cycle of equality pairs has no binary solution, yet every row
        # passes activity propagation; only the penalty bound can refute it
        inst = odd_cycle_instance()
        node = Node(id=0, parent=None, fixings={}, local_lb=-np.inf)
        ev = evaluate(inst, node, SolverConfig(seed=0), None, objective_lattice(inst.c))
        assert ev.record.outcome == "pruned_infeasible" and ev.record.reason == "bound"
        for x in enumerate_assignments(inst.n):
            assert not inst.is_feasible(x)


def count_phase_tables(monkeypatch) -> list[int]:
    """Patch ``vqa.phase_table`` to count its calls in the returned cell."""
    calls = [0]
    original = vqa.phase_table

    def counted(diag):
        calls[0] += 1
        return original(diag)

    monkeypatch.setattr(vqa, "phase_table", counted)
    return calls


def record_optimizer_runs(monkeypatch) -> list[tuple[int, tuple[float, ...]]]:
    """Patch ``vqa.optimize_angles`` to log each call's budget and the
    expectation of every query it made, in order."""
    runs = []
    original = vqa.optimize_angles

    def logged(diag, p, max_queries, *args, **kwargs):
        params, values = original(diag, p, max_queries, *args, **kwargs)
        runs.append((max_queries, values))
        return params, values

    monkeypatch.setattr(vqa, "optimize_angles", logged)
    return runs


def stalls(values: tuple[float, ...]) -> list[int]:
    """Lengths of the runs of queries without a strictly lower expectation
    than all before them; the last entry is the run that ends the call."""
    runs = []
    best = np.inf
    for value in values:
        if value < best:
            best = value
            runs.append(0)
        else:
            runs[-1] += 1
    return runs


class TestSolve:
    def test_three_variable_instance(self, three_var_instance):
        res = solve(three_var_instance, SolverConfig(seed=3))
        assert res.status == "optimal"
        assert res.best_value == 1.0
        assert np.array_equal(res.best_assignment, [0, 1, 0])
        assert res.global_lb == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_by_propagation(self):
        res = solve(BlpInstance(c=[1, 1], A=[[1, 1]], b=[3]), SolverConfig(seed=0))
        assert res.status == "infeasible"
        assert res.best_value is None

    def test_infeasible_cycle_instance(self):
        res = solve(odd_cycle_instance(extra_rows=1), SolverConfig(seed=0))
        assert res.status == "infeasible"

    def test_node_limit(self):
        inst = generate_spp(10, 4, seed=1)
        res = solve(inst, SolverConfig(seed=0, node_limit=1))
        assert res.status == "node_limit"
        assert res.nodes_evaluated == 1

    def test_gap_target_stops_early(self):
        inst = generate_spp(10, 4, seed=5)
        res = solve(inst, SolverConfig(seed=0, gap=0.99))
        assert res.status in ("gap_reached", "optimal")
        if res.status == "gap_reached":
            gap = (res.best_penalized_value - res.global_lb) / max(
                1.0, abs(res.best_penalized_value)
            )
            assert gap <= 0.99

    def test_gap_measured_against_feasible_incumbent(self):
        # With a tiny budget the penalized incumbent can meet the gap before
        # any feasible point is known; the solver must keep searching then.
        config = SolverConfig(gap=0.9, node_queries=5, shots=8)
        for s in range(30):
            res = solve(generate_spp(12, 6, seed=s), config)
            if res.status == "gap_reached":
                assert res.best_value is not None
                gap = (res.best_value - res.global_lb) / max(1.0, abs(res.best_value))
                assert gap <= 0.9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            inst = generate_spp(int(rng.integers(8, 11)), int(rng.integers(3, 5)), seed=100 + trial)
            res = solve(inst, SolverConfig(seed=trial))
            bf = brute_force_optimum(inst)
            assert res.status == "optimal"
            assert res.best_value == pytest.approx(bf.value)
            assert inst.is_feasible(res.best_assignment)

    def test_deterministic_traces(self, three_var_instance):
        a = solve(three_var_instance, SolverConfig(seed=9))
        b = solve(three_var_instance, SolverConfig(seed=9))
        assert a.trace == b.trace
        assert a.nodes_evaluated == b.nodes_evaluated

    def test_monotone_bounds_along_edges(self):
        inst = generate_spp(10, 4, seed=17)
        res = solve(inst, SolverConfig(seed=2))
        for record in res.node_records.values():
            if record.parent_id is None:
                continue
            parent = res.node_records[record.parent_id]
            assert record.local_lb >= parent.local_lb - 1e-9

    def test_many_body_count_monotone_along_edges(self):
        inst = generate_spp(10, 4, seed=1)
        res = solve(inst, SolverConfig(seed=2))
        checked = 0
        for record in res.node_records.values():
            if record.parent_id is None or record.many_body_count is None:
                continue
            parent = res.node_records[record.parent_id]
            if parent.many_body_count is None:
                continue
            assert record.many_body_count <= parent.many_body_count
            checked += 1
        assert checked > 0

    def test_incumbent_dominates_optimum_throughout(self):
        inst = generate_spp(9, 3, seed=31)
        bf = brute_force_optimum(inst)
        res = solve(inst, SolverConfig(seed=1))
        ubs = [e.ub for e in res.trace if e.kind == "incumbent_update"]
        assert ubs and all(ub >= bf.value - 1e-9 for ub in ubs)

    def test_pruning_neutrality(self):
        rng = np.random.default_rng(8)
        for trial in range(4):
            inst = generate_spp(int(rng.integers(8, 11)), 3, seed=300 + trial)
            with_pruning = solve(inst, SolverConfig(seed=trial))
            without = solve(inst, SolverConfig(seed=trial, prune=False))
            assert with_pruning.best_value == without.best_value

    def test_fifteen_variable_reference_class(self):
        # reference problem size (node counts are stochastic, only the
        # optimality contract is asserted)
        inst = generate_spp(15, 6, seed=172)
        res = solve(inst, SolverConfig(seed=0))
        bf = brute_force_optimum(inst)
        assert res.status == "optimal"
        assert res.best_value == pytest.approx(bf.value)

    def test_rounded_cut_supplies_incumbents(self):
        # the GW point is offered next to the QAOA samples, and its updates
        # are labelled; leaves label their own
        res = solve(generate_spp(12, 3, seed=1), SolverConfig(seed=0, **ORACLE_CONFIG))
        sources = [e.status for e in res.trace if e.kind == "incumbent_update"]
        assert "gw" in sources
        assert set(sources) <= {"qaoa", "gw", "leaf"}

    def test_one_phase_table_per_branched_node(self, monkeypatch):
        calls = count_phase_tables(monkeypatch)
        config = SolverConfig(p=1, node_queries=4, shots=16, seed=0)
        res = solve(generate_spp(10, 3, seed=21), config)
        branched = sum(r.outcome == "branched" for r in res.node_records.values())
        assert branched > 1
        assert calls == [branched]

    def test_one_encode_per_run(self, monkeypatch):
        # nodes restrict the master model; nothing encodes it again
        calls = [0]
        original = ising.encode

        def counted(instance, M):
            calls[0] += 1
            return original(instance, M)

        monkeypatch.setattr(ising, "encode", counted)
        monkeypatch.setattr(engine, "encode", counted)
        config = SolverConfig(p=1, node_queries=4, shots=16, seed=0)
        res = solve(generate_spp(10, 3, seed=21), config)
        assert res.nodes_evaluated > 1
        assert calls == [1]
        run_plain_qaoa(generate_spp(8, 3, seed=0), config, queries=4)
        assert calls == [2]

    def test_fathomed_leaf_answer_is_its_exact_cost(self):
        # propagation fixes x = (1, 1) at the root; restricting the master
        # model to no free variable gives the constant 4.900000000000002,
        # while the leaf is scored on the master data as c.x
        inst = BlpInstance(
            c=[2.95, 1.95], A=[[0.5, -0.5], [-0.5, 0.5], [1.0, 0.0]], b=[0, 0, 1], kappa=0.5
        )
        res = solve(inst, SolverConfig(seed=0))
        assert res.node_records[0].outcome == "fathomed_leaf"
        assert res.status == "optimal"
        assert res.best_value == inst.c @ res.best_assignment == 4.9

    def test_rejects_oversized_instance(self):
        inst = generate_spp(SIMULATOR_LIMIT + 1, 7, seed=0)
        with pytest.raises(ValueError):
            solve(inst)
        with pytest.raises(ValueError):
            run_plain_qaoa(inst)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(p=0)
        with pytest.raises(ValueError):
            SolverConfig(seed=-1)
        with pytest.raises(ValueError):
            SolverConfig(node_limit=0)
        for limit in ("time_limit", "gap"):
            with pytest.raises(ValueError):
                SolverConfig(**{limit: float("nan")})
        # each field has its JSON type: a bool is no integer, 1.5 is not rounded
        bad = [("p", 1.5), ("shots", True), ("seed", 1.5), ("node_limit", 2.5)]
        bad += [("wall_clock", "no"), ("gap", "0.1"), ("p", None)]
        for key, value in bad:
            with pytest.raises(ValueError, match=f"{key} must be"):
                SolverConfig(**{key: value})

    def test_node_stops_two_simplex_sizes_after_last_improvement(self, monkeypatch):
        runs = record_optimizer_runs(monkeypatch)
        config = SolverConfig(p=3, node_queries=50, seed=0)
        res = solve(generate_spp(12, 4, seed=1), config)
        assert res.status == "optimal"
        early = [values for budget, values in runs if len(values) < budget]
        assert early, "no node stopped before its budget"
        for budget, values in runs:
            assert len(values) <= budget
        for values in early:
            assert stalls(values)[-1] == max(stalls(values)) == 2 * (2 * config.p + 1)


class TestIncumbent:
    def test_penalized_and_feasible_tracked_separately(self):
        inc = Incumbent()
        assert inc.offer(10.0, np.array([1.0]), feasible=False)
        assert inc.best_feasible_value is None
        assert inc.offer(7.0, np.array([0.0]), feasible=True)
        assert inc.best_feasible_value == 7.0
        # worse candidate changes nothing
        assert not inc.offer(9.0, np.array([1.0]), feasible=True)
        assert inc.best_penalized_value == 7.0

    def test_cutoff(self):
        inc = Incumbent()
        assert inc.cutoff() is None
        # an infeasible point may tie the feasible optimum, so ties survive
        inc.offer(1.0, np.array([1.0, 0.0]), feasible=False)
        assert 1.0 < inc.cutoff() <= 1.0 + 1e-8
        # a feasible value of its own prunes ties
        inc.offer(1.0, np.array([0.0, 1.0]), feasible=True)
        assert inc.cutoff() == 1.0


class TestPlainQaoa:
    def test_budget_of_one(self, three_var_instance):
        res = run_plain_qaoa(three_var_instance, SolverConfig(seed=0), queries=1)
        assert res.queries == 1
        assert sum(1 for e in res.trace if e.kind == "optimizer_query") == 1

    def test_deterministic(self, three_var_instance):
        a = run_plain_qaoa(three_var_instance, SolverConfig(seed=5), queries=40)
        b = run_plain_qaoa(three_var_instance, SolverConfig(seed=5), queries=40)
        assert a.trace == b.trace
        assert a.best_penalized_value == b.best_penalized_value

    def test_best_cost_floored_by_optimum(self, three_var_instance):
        bf = brute_force_optimum(three_var_instance)
        res = run_plain_qaoa(three_var_instance, SolverConfig(seed=1), queries=500)
        assert res.best_penalized_value >= bf.value - 1e-9

    def test_spends_whole_budget_at_p3(self, monkeypatch):
        runs = record_optimizer_runs(monkeypatch)
        res = run_plain_qaoa(generate_spp(10, 3, seed=0), SolverConfig(p=3, seed=0), queries=80)
        assert res.queries == 80
        # the flat budget outlasts a stall the tree solver would stop at
        assert max(stalls(runs[0][1])) >= 2 * (2 * 3 + 1)

    def test_one_phase_table(self, monkeypatch):
        calls = count_phase_tables(monkeypatch)
        run_plain_qaoa(generate_spp(8, 3, seed=0), SolverConfig(p=1, seed=0), queries=10)
        assert calls == [1]


ORACLE_COSTS = {
    "mixed": lambda rng, n: rng.integers(-5, 6, size=n),
    "ties": lambda rng, n: rng.integers(0, 2, size=n),
    "gcd3": lambda rng, n: 3 * rng.integers(-5, 6, size=n),
    "fractional": lambda rng, n: (rng.integers(-50, 50, size=n) + 0.5) / 10,
}


def oracle_instance(rng: np.random.Generator, shape: str, kind: str = "mixed") -> BlpInstance:
    """Small instance honouring the penalty contract: A and b are integer
    multiples of kappa (half-integers for kappa = 0.5). ``shape`` plants a
    feasible point ("planted"), makes the all-ones point feasible under
    nonnegative costs ("all_ones"), or draws b at random ("random_b").
    ``kind`` picks the costs (``ORACLE_COSTS``; "mixed" for the other
    kinds) or the matrix: one nonzero per row gives a model with no
    couplings ("coupling_free"), and "single" has one variable."""
    n = 1 if kind == "single" else int(rng.integers(1, 7))
    m = int(rng.integers(1, n + 3))
    kappa = float(rng.choice([0.5, 1.0, 2.0]))
    if kind == "coupling_free":
        A = np.zeros((m, n))
        A[np.arange(m), rng.integers(0, n, size=m)] = rng.integers(-2, 3, size=m) * kappa
    else:
        A = rng.integers(-2, 3, size=(m, n)) * kappa
    c = ORACLE_COSTS.get(kind, ORACLE_COSTS["mixed"])(rng, n)
    if shape == "planted":
        b = A @ rng.integers(0, 2, size=n)
    elif shape == "all_ones":
        b = A.sum(axis=1)
        c = np.abs(c)
    else:
        b = rng.integers(-2, 3, size=m) * kappa
    return BlpInstance(c=c, A=A, b=b, kappa=kappa)


ORACLE_CONFIG = dict(p=1, node_queries=4, shots=16)


def assert_matches_oracle(inst: BlpInstance, res) -> None:
    bf = brute_force_optimum(inst)
    if not bf.feasible:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    assert res.best_value == pytest.approx(bf.value, abs=1e-9)
    assert inst.is_feasible(res.best_assignment)


class TestOracle:
    @pytest.mark.parametrize(
        "inst",
        [
            # a feasible point costs exactly sum|c|
            BlpInstance(c=[1, 1], A=[[1, 1]], b=[2]),
            BlpInstance(c=[2, 3, 5], A=[[1, 1, 0], [0, 1, 1]], b=[2, 2]),
            # kappa = 2 halves M
            BlpInstance(c=[10, 1], A=[[2, 0], [0, 2]], b=[2, 0], kappa=2),
        ],
        ids=["all_ones", "chain", "kappa2"],
    )
    def test_feasible_at_the_penalty_threshold(self, inst):
        assert_matches_oracle(inst, solve(inst, SolverConfig(seed=0)))

    @pytest.mark.parametrize(
        "inst, seed",
        [
            # the penalized incumbent (1, 0) is infeasible and ties the optimum
            (BlpInstance(c=[-5, 1], A=[[0, 0], [-1, -2]], b=[0, -2]), 2436),
            (
                BlpInstance(
                    c=[5, 3, 0, 3],
                    A=[[2, -1, 0, 0], [-1, 1, -2, 2], [1, 0, 0, -1]],
                    b=[1, 0, 0],
                ),
                763,
            ),
        ],
        ids=["two_var", "four_var"],
    )
    def test_infeasible_incumbent_tying_the_optimum(self, inst, seed):
        assert_matches_oracle(inst, solve(inst, SolverConfig(seed=seed, **ORACLE_CONFIG)))

    def test_kappa_below_one_keeps_penalty_separation(self):
        # M = sum|c| / kappa = 8 let x = (1, 0) (residual 0.5, penalized -1)
        # undercut the feasible optimum 0: seeds 0, 20, 30, 35 and 39
        # returned infeasible
        inst = BlpInstance(c=[-3, 1], A=[[0.5, -1]], b=[0], kappa=0.5)
        for seed in range(40):
            res = solve(inst, SolverConfig(seed=seed, **ORACLE_CONFIG))
            assert (res.status, res.best_value) == ("optimal", 0.0)

    def test_status_and_value_match_brute_force(self):
        rng = np.random.default_rng(2025)
        shapes = ("planted", "all_ones", "random_b")
        for k in range(300):
            inst = oracle_instance(rng, shapes[k % 3])
            res = solve(inst, SolverConfig(seed=k, **ORACLE_CONFIG))
            assert_matches_oracle(inst, res)

    @pytest.mark.parametrize(
        "kind", ["ties", "gcd3", "fractional", "coupling_free", "single"]
    )
    def test_lattice_and_shape_draws_match_brute_force(self, kind):
        # ties and gcd3 round the bound to the lattice 1*Z and 3*Z; fractional
        # costs must skip the rounding
        rng = np.random.default_rng(2026)
        shapes = ("planted", "all_ones", "random_b")
        for k in range(100):
            inst = oracle_instance(rng, shapes[k % 3], kind)
            if kind == "coupling_free":
                assert many_body_count(encode(inst, compute_big_m(inst))) == 0
            res = solve(inst, SolverConfig(seed=k, **ORACLE_CONFIG))
            assert_matches_oracle(inst, res)

    def test_subset_sum_trees_match_brute_force(self):
        # one equality row with general integer coefficients builds trees of
        # many nodes, where the SPP shapes mostly close at the root
        nodes = []
        for n in (8, 9, 10):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                a = rng.integers(1, 30, n)
                c = rng.integers(-20, 21, n)
                inst = BlpInstance(c=c, A=[a], b=[a.sum() // 2])
                res = solve(inst, SolverConfig(p=1, node_queries=4, shots=64))
                assert_matches_oracle(inst, res)
                nodes.append(res.nodes_evaluated)
        assert max(nodes) >= 10

    def test_node_bounds_never_pass_the_best_feasible_completion(self):
        # every recorded node bound is at most the best feasible objective
        # among the completions of that node's fixings
        rng = np.random.default_rng(2027)
        kinds = ("mixed", "ties", "gcd3", "fractional")
        checked = 0
        for k in range(120):
            inst = oracle_instance(rng, "planted", kinds[k % 4])
            res = solve(inst, SolverConfig(seed=k, **ORACLE_CONFIG))
            X = enumerate_assignments(inst.n)
            X = X[[inst.is_feasible(x) for x in X]]
            for rec in res.node_records.values():
                keep = np.all([X[:, i] == v for i, v in rec.fixings.items()], axis=0)
                if not np.any(keep):
                    continue
                best = float((X[keep] @ inst.c).min())
                assert rec.local_lb <= best + 1e-9 * max(1.0, abs(best))
                checked += 1
        assert checked > 120
