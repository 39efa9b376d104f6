"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import time

import numpy as np
import pytest

from conftest import (
    bound_floor,
    dense_qaoa_expectation,
    exhaustive_energies,
    exhaustive_max_cut,
    odd_cycle_instance,
    random_dense_instance,
    random_model,
    subset_sum_instance,
    total_weight,
)
from qcbb.blp import (
    BlpInstance,
    brute_force_optimum,
    compute_big_m,
    enumerate_assignments,
    generate_spp,
)
from qcbb.bound import ising_to_maxcut, lower_bound
from qcbb.engine import SolverConfig, run_plain_qaoa, solve
from qcbb.ising import encode
from qcbb.metrics import export_trace
from qcbb.vqa import QaoaParams, build_diagonal, expectation, qaoa_state


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def spp_runs():
    """The 50 end-to-end runs shared by criteria 4, 5, 6 and 8."""
    rng = np.random.default_rng(20240613)
    runs = []
    for trial in range(50):
        n = int(rng.integers(8, 13))
        m = int(rng.integers(3, 6))
        inst = generate_spp(n, m, seed=7000 + trial)
        t0 = time.perf_counter()
        result = solve(inst, SolverConfig(seed=trial, p=3, node_queries=50))
        elapsed = time.perf_counter() - t0
        runs.append((inst, trial, result, brute_force_optimum(inst), elapsed))
    return runs


@pytest.fixture(scope="module")
def crafted_runs():
    """20 near-infeasible instances exercising the penalty-bound prune."""
    rng = np.random.default_rng(555)
    runs = []
    for k in range(10):
        inst = odd_cycle_instance(extra_rows=k % 3, rng=np.random.default_rng(900 + k))
        runs.append((inst, solve(inst, SolverConfig(seed=k))))
    for k in range(10):
        n = int(rng.integers(6, 10))
        m = int(rng.integers(4, 7))
        A = np.zeros((m, n))
        for j in range(n):
            size = int(rng.integers(1, m))
            A[rng.choice(m, size=size, replace=False), j] = 1.0
        inst = BlpInstance(c=rng.integers(1, 20, size=n).astype(float), A=A, b=np.ones(m))
        runs.append((inst, solve(inst, SolverConfig(seed=100 + k))))
    return runs


def test_criterion_1_encoding_exactness():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for trial in range(100):
        if trial < 50:
            inst = generate_spp(int(rng.integers(6, 13)), int(rng.integers(3, 6)), seed=trial)
            M = compute_big_m(inst)
        else:
            inst = random_dense_instance(rng, n_max=10)
            M = float(rng.choice([1.0, 10.0, 1e3]))
        model = encode(inst, M)
        energies = build_diagonal(model) + model.constant
        X = enumerate_assignments(inst.n)
        residual = X @ inst.A.T - inst.b
        penalized = X @ inst.c + M * np.sum(residual * residual, axis=1)
        rel = np.abs(energies - penalized) / np.maximum(1.0, np.abs(penalized))
        worst = max(worst, float(rel.max()))
        checked += X.shape[0]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(1, ok, f"{checked} assignments over 100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_bound_soundness():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    sound = 0
    floor_ok = 0
    total = 200
    for trial in range(total):
        model = random_model(rng, n_max=10)
        result = lower_bound(model, rng=np.random.default_rng(trial))
        min_h = float(exhaustive_energies(model).min())
        if result.lb_value <= min_h + 1e-9 * max(1.0, abs(min_h)):
            sound += 1
        if bound_floor(model, min_h) - 1e-4 <= result.lb_value:
            floor_ok += 1
    elapsed = time.perf_counter() - t0
    ok = sound == total and floor_ok == total and elapsed < 300.0
    report(2, ok, f"sound {sound}/{total}, floor {floor_ok}/{total}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_maxcut_reduction_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng, n_max=10)
        W = ising_to_maxcut(model)
        z_star = exhaustive_max_cut(W)
        min_h = float(exhaustive_energies(model).min()) - model.constant
        err = abs(min_h - (-2.0 * z_star + total_weight(W))) / max(1.0, abs(min_h))
        worst = max(worst, err)
    ok = worst <= 1e-9
    report(3, ok, f"100 models, worst rel err {worst:.2e}")
    assert ok


def test_criterion_4_end_to_end_optimality(spp_runs):
    solved = sum(
        1
        for _, _, result, bf, _ in spp_runs
        if result.status == "optimal" and bf.feasible and abs(result.best_value - bf.value) < 1e-9
    )
    times = sorted(elapsed for *_, elapsed in spp_runs)
    median = times[len(times) // 2]
    ok = solved == 50 and median < 60.0
    report(4, ok, f"{solved}/50 optimal at brute-force value, median {median:.2f}s/instance")
    assert ok


def test_criterion_5_trace_invariants(spp_runs):
    events_checked = 0
    edges_checked = 0
    ok = True
    for _, _, result, _, _ in spp_runs:
        ub = lb = None
        gap = None
        for event in result.trace:
            if event.kind == "incumbent_update":
                if ub is not None and event.ub > ub + 1e-9:
                    ok = False
                ub = event.ub
            if event.kind == "bound_update":
                if lb is not None and event.lb < lb - 1e-9:
                    ok = False
                lb = event.lb
            if ub is not None and lb is not None:
                if lb > ub + 1e-9:
                    ok = False
                if gap is not None and (ub - lb) > gap + 1e-9:
                    ok = False
                gap = ub - lb
            events_checked += 1
        for record in result.node_records.values():
            if record.parent_id is None:
                continue
            parent = result.node_records[record.parent_id]
            if record.local_lb < parent.local_lb - 1e-9:
                ok = False
            if (
                record.many_body_count is not None
                and parent.many_body_count is not None
                and record.many_body_count > parent.many_body_count
            ):
                ok = False
            edges_checked += 1
    report(5, ok, f"{events_checked} events and {edges_checked} tree edges across 50 runs")
    assert ok


def test_criterion_6_infeasibility_prune_safety(spp_runs, crafted_runs):
    results = [r for _, _, r, _, _ in spp_runs] + [r for _, r in crafted_runs]
    instances = [i for i, _, _, _, _ in spp_runs] + [i for i, _ in crafted_runs]
    pruned = 0
    confirmed = 0
    for inst, result in zip(instances, results):
        for record in result.node_records.values():
            if not (record.outcome == "pruned_infeasible" and record.reason == "bound"):
                continue
            pruned += 1
            free = [i for i in range(inst.n) if i not in record.fixings]
            full = np.zeros((1 << len(free), inst.n))
            for idx, val in record.fixings.items():
                full[:, idx] = val
            if free:
                full[:, free] = enumerate_assignments(len(free))
            residual = full @ inst.A.T - inst.b
            if not np.all(np.any(np.abs(residual) > 1e-9, axis=1)):
                continue
            confirmed += 1
    ok = pruned > 0 and confirmed == pruned
    report(6, ok, f"{confirmed}/{pruned} penalty-bound prunes confirmed infeasible by enumeration")
    assert ok


def test_criterion_7_pruning_neutrality():
    # The 20 set-partitioning draws close at the root, so no prune decides
    # anything there. The 20 subset-sum trees do prune, and their costs of
    # 1 to 3 leave many incumbents one above a better point: a prune rule
    # that drops a node whose bound is one below the best feasible value
    # fails 4 of them.
    rng = np.random.default_rng(7)
    runs = []
    for trial in range(20):
        inst = generate_spp(int(rng.integers(8, 11)), int(rng.integers(3, 5)), seed=4000 + trial)
        runs.append((inst, SolverConfig(seed=trial)))
    for seed in range(20):
        config = SolverConfig(seed=seed, p=1, node_queries=4, shots=16)
        runs.append((subset_sum_instance(10, seed, costs=(1, 3)), config))
    agree = prunes = 0
    for inst, config in runs:
        result = solve(inst, config)
        bf = brute_force_optimum(inst)
        expected = ("optimal", bf.value) if bf.feasible else ("infeasible", None)
        agree += (result.status, result.best_value) == expected
        prunes += sum(r.outcome == "pruned_bound" for r in result.node_records.values())
    ok = agree == len(runs) and prunes > 0
    report(7, ok, f"{agree}/{len(runs)} pruned solves match brute force, {prunes} bound prunes")
    assert ok


def test_nodes_closed_by_their_own_cut(spp_runs, crafted_runs):
    # A node its GW cut closes (reason "gw") passed the first prune, so its
    # cut is strictly cheaper than the incumbent before it: the node records
    # an incumbent update from "gw" whose value is at most its bound, and no
    # optimizer query.
    runs = [(inst, result, bf) for inst, _, result, bf, _ in spp_runs]
    runs += [(inst, result, brute_force_optimum(inst)) for inst, result in crafted_runs]
    closed = 0
    for inst, result, bf in runs:
        expected = ("optimal", bf.value) if bf.feasible else ("infeasible", None)
        assert (result.status, result.best_value) == expected
        events: dict[int, list] = {}
        for event in result.trace:
            events.setdefault(event.node_index, []).append(event)
        # solve stores each evaluated node's record in evaluation order;
        # records of children refuted by propagation are never evaluated
        evaluated = [r for r in result.node_records.values() if r.reason != "propagation"]
        for index, record in enumerate(evaluated):
            if record.reason != "gw":
                continue
            closed += 1
            assert record.outcome == "pruned_bound"
            kinds = [e.kind for e in events[index]]
            assert "optimizer_query" not in kinds
            (update,) = [e for e in events[index] if e.kind == "incumbent_update"]
            assert update.status == "gw" and update.ub <= record.local_lb
    assert closed > 0


def test_criterion_8_baseline_comparison(spp_runs):
    wins = 0
    diffs = []
    compared = 10
    for inst, trial, result, _, _ in spp_runs[:compared]:
        baseline = run_plain_qaoa(inst, SolverConfig(seed=trial, p=3), queries=500)
        diff = baseline.best_penalized_value - result.best_value
        diffs.append(round(diff, 6))
        if result.best_value <= baseline.best_penalized_value + 1e-9:
            wins += 1
    ok = wins >= 8
    report(
        8,
        ok,
        f"tree solver at or below plain-QAOA cost in {wins}/{compared}; "
        f"baseline-minus-qcbb distribution: {diffs}",
    )
    assert ok


def test_criterion_9_simulator_correctness():
    # zero-angle identity is exact
    diag = np.arange(8.0)
    state = qaoa_state(diag, QaoaParams(gammas=[0.0, 0.0], betas=[0.0, 0.0]))
    exact = np.array_equal(state, np.full(8, 1 / np.sqrt(8), dtype=complex))

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 4))
        diag = rng.normal(size=1 << n) * 5.0
        params = QaoaParams(
            gammas=rng.uniform(0, np.pi, size=p), betas=rng.uniform(0, np.pi, size=p)
        )
        ours = expectation(qaoa_state(diag, params), diag)
        ref = dense_qaoa_expectation(diag, params)
        worst = max(worst, abs(ours - ref))
    ok = exact and worst <= 1e-8
    report(9, ok, f"zero-angle exact: {exact}; 50 draws vs dense reference, worst err {worst:.2e}")
    assert ok


def test_criterion_10_trace_determinism(tmp_path):
    identical = 0
    for seed in range(10):
        inst = generate_spp(8, 3, seed=8000 + seed)
        paths = []
        for rep in range(2):
            result = solve(inst, SolverConfig(seed=seed))
            path = tmp_path / f"trace_{seed}_{rep}.csv"
            export_trace(result.trace, path)
            paths.append(path)
        if paths[0].read_bytes() == paths[1].read_bytes():
            identical += 1
    ok = identical == 10
    report(10, ok, f"{identical}/10 seed repeats export byte-identical traces")
    assert ok
