import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcbb import blp
from qcbb.blp import (
    BlpInstance,
    InstanceFormatError,
    brute_force_optimum,
    compute_big_m,
    enumerate_assignments,
    generate_spp,
    load_instance,
    penalized_cost,
    save_instance,
)


class TestInstance:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            BlpInstance(c=[1, 2, 3], A=[[1, 1]], b=[1])
        with pytest.raises(ValueError):
            BlpInstance(c=[1, 2], A=[[1, 1]], b=[1, 2])
        with pytest.raises(ValueError):
            BlpInstance(c=[1], A=[1, 1], b=[1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BlpInstance(c=[np.inf, 1], A=[[1, 1]], b=[1])
        with pytest.raises(ValueError):
            BlpInstance(c=[1, 1], A=[[np.nan, 1]], b=[1])

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            BlpInstance(c=[1], A=[[1]], b=[1], kappa=0.0)

    def test_arrays_read_only(self):
        inst = BlpInstance(c=[1, 2], A=[[1, 1]], b=[1])
        with pytest.raises(ValueError):
            inst.c[0] = 9.0


class TestBigM:
    def test_formula(self):
        assert compute_big_m(BlpInstance(c=[1, 2, 3], A=[[1, 1, 1]], b=[1])) == 6.0

    def test_kappa_scaling(self):
        # sum|c| / min(kappa, kappa^2): kappa^2 below 1, kappa above
        inst = BlpInstance(c=[-1, 1], A=[[1, 1]], b=[1], kappa=0.5)
        assert compute_big_m(inst) == 8.0
        inst = BlpInstance(c=[-1, 1], A=[[2, 2]], b=[2], kappa=2.0)
        assert compute_big_m(inst) == 1.0

    def test_zero_objective_floor(self):
        assert compute_big_m(BlpInstance(c=[0, 0], A=[[1, 1]], b=[1])) == 1.0

    def test_dominance_on_generated_instances(self):
        # every feasible cost strictly below every infeasible penalized cost
        for seed in range(6):
            inst = generate_spp(8, 3, seed=seed)
            M = compute_big_m(inst)
            X = enumerate_assignments(inst.n)
            residual = X @ inst.A.T - inst.b
            feas = np.all(np.abs(residual) <= 1e-9, axis=1)
            costs = X @ inst.c
            pen = costs + M * np.sum(residual**2, axis=1)
            assert feas.any() and (~feas).any()
            assert costs[feas].max() < pen[~feas].min()

    @pytest.mark.parametrize("kappa", [0.25, 0.5, 2.0])
    def test_no_infeasible_point_undercuts_the_optimum(self, kappa):
        # data on the kappa grid; every feasible optimum <= every infeasible
        # penalized cost, ties allowed
        rng = np.random.default_rng(int(kappa * 100))
        checked = 0
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            A = rng.integers(-2, 3, size=(m, n)) * kappa
            b = A @ rng.integers(0, 2, size=n)  # planted feasible point
            inst = BlpInstance(c=rng.integers(-5, 6, size=n), A=A, b=b, kappa=kappa)
            M = compute_big_m(inst)
            X = enumerate_assignments(inst.n)
            residual = X @ inst.A.T - inst.b
            feas = np.all(np.abs(residual) <= 1e-9, axis=1)
            pen = X @ inst.c + M * np.sum(residual**2, axis=1)
            if (~feas).any():
                checked += 1
                assert pen[feas].min() <= pen[~feas].min() + 1e-9
        assert checked > 100


class TestPenalizedCost:
    def setup_method(self):
        self.inst = BlpInstance(c=[1, 2], A=[[1, 1]], b=[1])

    def test_feasible_assignment_pays_no_penalty(self):
        assert penalized_cost(self.inst, [1, 0], 10.0) == 1.0

    def test_violation_penalty(self):
        # c^T x + M ||Ax-b||^2 evaluated directly
        assert penalized_cost(self.inst, [1, 1], 10.0) == 3 + 10 * 1
        assert penalized_cost(self.inst, [0, 0], 10.0) == 0 + 10 * 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            penalized_cost(self.inst, [1, 0, 1], 10.0)

    def test_lower_bounded_by_cost_iff_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            inst = BlpInstance(
                c=rng.normal(size=n), A=rng.integers(-2, 3, size=(m, n)), b=rng.integers(-1, 3, size=m)
            )
            for x in enumerate_assignments(n):
                p = penalized_cost(inst, x, 5.0)
                cost = float(inst.c @ x)
                assert p >= cost - 1e-12
                assert (abs(p - cost) < 1e-12) == inst.is_feasible(x)


class TestGenerateSpp:
    def test_structure(self):
        inst = generate_spp(15, 6, seed=42)
        assert inst.n == 15 and inst.m == 6
        assert np.all(inst.b == 1)
        assert set(np.unique(inst.A)) <= {0.0, 1.0}
        col_sums = inst.A.sum(axis=0)
        assert np.all(col_sums >= 1)  # no empty column
        assert np.all(col_sums < inst.m)  # no complete set

    def test_deterministic(self):
        a = generate_spp(15, 6, seed=42)
        b = generate_spp(15, 6, seed=42)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.c, b.c)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            generate_spp(4, 6, seed=0)
        with pytest.raises(ValueError):
            generate_spp(3, 1, seed=0)
        with pytest.raises(ValueError):
            generate_spp(10, 4, seed=0, cost_low=5, cost_high=2)

    @pytest.mark.parametrize("seed", range(8))
    def test_always_feasible(self, seed):
        inst = generate_spp(int(10 + seed % 3), 4, seed=seed)
        assert brute_force_optimum(inst).feasible

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        m=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_columns_are_proper_nonempty_subsets(self, n, m, seed):
        if n <= m:
            return
        inst = generate_spp(n, m, seed=seed)
        sums = inst.A.sum(axis=0)
        assert np.all((sums >= 1) & (sums <= m - 1))


class TestBruteForce:
    def test_small_optimum(self, three_var_instance):
        res = brute_force_optimum(three_var_instance)
        assert res.feasible
        assert res.value == 1.0
        assert np.array_equal(res.assignment, [0, 1, 0])

    def test_infeasible(self):
        res = brute_force_optimum(BlpInstance(c=[1, 1], A=[[1, 1]], b=[3]))
        assert not res.feasible and res.value is None

    def test_single_variable(self):
        res = brute_force_optimum(BlpInstance(c=[5], A=[[1]], b=[1]))
        assert res.feasible and res.value == 5.0
        assert np.array_equal(res.assignment, [1])

    def test_refuses_large_instances(self):
        inst = BlpInstance(c=np.ones(21), A=np.ones((1, 21)), b=[1])
        with pytest.raises(ValueError):
            brute_force_optimum(inst)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = generate_spp(12, 5, seed=3)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.n == inst.n and loaded.m == inst.m
        assert np.array_equal(loaded.A, inst.A)
        assert np.array_equal(loaded.b, inst.b)
        assert np.array_equal(loaded.c, inst.c)
        assert loaded.name == inst.name
        assert loaded.kappa == inst.kappa

    def test_round_trip_preserves_rationals(self, tmp_path):
        inst = BlpInstance(c=[0.1, -2.5], A=[[1.25, -0.75]], b=[3.125], kappa=0.125)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.c, inst.c)
        assert np.array_equal(loaded.A, inst.A)
        assert np.array_equal(loaded.b, inst.b)
        assert loaded.kappa == 0.125

    @pytest.mark.parametrize(
        "A, b, kappa",
        [([[1, 0.3]], [1], None), ([[1, 1]], [1.5], None), ([[1.25, 1]], [1], 0.5)],
        ids=["A_fractional", "b_fractional", "A_off_half_grid"],
    )
    def test_rejects_data_off_the_kappa_grid(self, tmp_path, A, b, kappa):
        data = {"n": 2, "m": 1, "c": [1, 2], "A": A, "b": b}
        if kappa is not None:
            data["kappa"] = kappa
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match="kappa"):
            load_instance(path)

    def test_loads_data_on_the_kappa_grid(self, tmp_path):
        path = tmp_path / "half.json"
        data = {"n": 2, "m": 1, "c": [1, 2], "A": [[1.5, -0.5]], "b": [1.0], "kappa": 0.5}
        path.write_text(json.dumps(data))
        loaded = load_instance(path)
        assert np.array_equal(loaded.A, [[1.5, -0.5]]) and loaded.kappa == 0.5
        # 0.3 / 0.1 is 2.9999999999999996 in floats: on the grid within tolerance
        data.update(A=[[0.3, 0.7]], b=[0.3], kappa=0.1)
        path.write_text(json.dumps(data))
        assert load_instance(path).kappa == 0.1

    def test_optimum_field_round_trip(self, tmp_path):
        inst = BlpInstance(c=[1, 2], A=[[1, 1]], b=[1], optimum=1.0)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path).optimum == 1.0

    def test_wrong_c_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "m": 1, "c": [1, 2], "A": [[1, 1, 1]], "b": [1]}))
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "c": [1, 2], "A": [[1, 1]]}))
        with pytest.raises(InstanceFormatError):
            load_instance(path)
        # null, a bool or a string is no number, and n and m are JSON integers
        bad = [("n", None), ("kappa", None), ("n", True), ("m", True), ("n", 2.7), ("m", 1.0)]
        bad += [("kappa", True), ("optimum", True), ("kappa", "0.5")]
        # a name is a string, and an optimum a finite number
        bad += [("name", ["x"]), ("name", 3), ("optimum", float("nan")), ("optimum", float("inf"))]
        for key, value in bad:
            data = {"n": 2, "m": 1, "c": [1, 2], "A": [[1, 1]], "b": [1], key: value}
            path.write_text(json.dumps(data))
            with pytest.raises(InstanceFormatError, match=f"field '{key}'"):
                load_instance(path)
        # n = true would otherwise load as n = 1 and fit these arrays
        path.write_text(json.dumps({"n": True, "m": 1, "c": [5], "A": [[1]], "b": [1]}))
        with pytest.raises(InstanceFormatError, match="field 'n'"):
            load_instance(path)

    @pytest.mark.parametrize(
        "key, value",
        [("c", [True, 2]), ("c", ["1", 2]), ("A", [[1, False]]), ("b", ["1"])],
        ids=["bool_in_c", "string_in_c", "bool_in_A", "string_in_b"],
    )
    def test_array_entry_not_a_number(self, tmp_path, key, value):
        # a float array would load true and "1" as 1
        path = tmp_path / "bad.json"
        data = {"n": 2, "m": 1, "c": [1, 2], "A": [[1, 1]], "b": [1], key: value}
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match=f"field '{key}'"):
            load_instance(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_worst_feasible_cost(self, three_var_instance):
        # exhaustive check: feasible assignments are 010 and 101
        assert blp.worst_feasible_cost(three_var_instance) == 2.0
        assert blp.worst_feasible_cost(BlpInstance(c=[1], A=[[1]], b=[2])) is None
