import numpy as np
import pytest

from conftest import sigma_of_x, x_of_sigma
from qcbb.blp import BlpInstance, enumerate_assignments, generate_spp, penalized_cost
from qcbb.ising import IsingModel, encode, energy, many_body_count, reduce


@pytest.fixture
def pair_instance():
    return BlpInstance(c=[1.0, 2.0], A=[[1, 1]], b=[1])


def all_energies_match(instance, model, M, tol=1e-9):
    for x in enumerate_assignments(instance.n):
        e = energy(model, sigma_of_x(x))
        p = penalized_cost(instance, x, M)
        if abs(e - p) > tol * max(1.0, abs(p)):
            return False
    return True


class TestSpinMaps:
    def test_forward(self):
        assert np.array_equal(sigma_of_x([0, 1, 0]), [-1, 1, -1])

    def test_backward(self):
        assert np.array_equal(x_of_sigma([1, 1]), [1, 1])

    def test_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.integers(0, 2, size=6)
            assert np.array_equal(x_of_sigma(sigma_of_x(x)), x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sigma_of_x([0, 2])
        with pytest.raises(ValueError):
            x_of_sigma([0, 1])


class TestEncode:
    def test_shared_constraint_coefficients(self, pair_instance):
        M = 10.0
        model = encode(pair_instance, M)
        assert np.array_equal(model.couplings, [[0.0, M / 2], [0.0, 0.0]])
        assert np.allclose(model.fields, [0.5, 1.0])
        assert model.constant == pytest.approx(M / 2 + 1.5)
        assert all_energies_match(pair_instance, model, M)

    def test_energy_of_specific_states(self, pair_instance):
        model = encode(pair_instance, 10.0)
        # oracle: penalized costs of x=(1,0) and x=(0,0)
        assert energy(model, sigma_of_x([1, 0])) == pytest.approx(1.0)
        assert energy(model, sigma_of_x([0, 0])) == pytest.approx(10.0)

    def test_penalty_only_instance(self):
        inst = BlpInstance(c=[0.0], A=[[1.0]], b=[0.0])
        for M in (1.0, 7.0):
            model = encode(inst, M)
            assert energy(model, sigma_of_x([0])) == pytest.approx(0.0)
            assert energy(model, sigma_of_x([1])) == pytest.approx(M)

    def test_rejects_nonpositive_m(self, pair_instance):
        with pytest.raises(ValueError):
            encode(pair_instance, 0.0)

    @pytest.mark.parametrize("M", [1.0, 10.0, 1e3])
    def test_round_trip_random_instances(self, M):
        rng = np.random.default_rng(int(M))
        for _ in range(8):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 4))
            inst = BlpInstance(
                c=rng.normal(size=n) * 3,
                A=np.round(rng.normal(size=(m, n)), 2),
                b=np.round(rng.normal(size=m), 2),
            )
            assert all_energies_match(inst, encode(inst, M), M)


class TestEnergy:
    def test_single_coupling(self):
        model = IsingModel(couplings=[[0.0, 2.0], [0.0, 0.0]], fields=np.zeros(2))
        assert energy(model, [1, 1]) == 2.0
        assert energy(model, [1, -1]) == -2.0

    def test_validates_input(self):
        model = IsingModel(couplings=np.zeros((2, 2)), fields=np.zeros(2))
        with pytest.raises(ValueError):
            energy(model, [1, 1, 1])
        with pytest.raises(ValueError):
            energy(model, [1, 0])

    def test_model_validation(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            IsingModel(couplings=[[0.0, 0.0], [1.0, 0.0]], fields=np.zeros(2))


class TestIsingModel:
    def test_rejects_diagonal_entry(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            IsingModel(couplings=[[0.0, 1.0], [0.0, 3.0]], fields=np.zeros(2))

    @pytest.mark.parametrize(
        "couplings, fields",
        [
            (np.zeros((2, 3)), np.zeros(2)),
            (np.zeros((3, 3)), np.zeros(2)),
            (np.zeros((2, 2)), np.zeros((2, 1))),
        ],
        ids=["not_square", "wrong_size", "fields_not_a_vector"],
    )
    def test_rejects_wrong_shape(self, couplings, fields):
        with pytest.raises(ValueError, match="shape"):
            IsingModel(couplings=couplings, fields=fields)

    def test_arrays_are_read_only_copies(self):
        couplings = np.array([[0.0, 1.0], [0.0, 0.0]])
        fields = np.array([0.5, -0.5])
        model = IsingModel(couplings=couplings, fields=fields, constant=2.0)
        with pytest.raises(ValueError):
            model.couplings[0, 1] = 5.0
        with pytest.raises(ValueError):
            model.fields[0] = 5.0
        couplings[0, 1] = 7.0  # the caller's arrays stay writable and unshared
        assert model.couplings[0, 1] == 1.0
        assert model.n_spins == 2


class TestReduce:
    def test_hand_worked_single_fixing(self, three_var_instance):
        red = reduce(three_var_instance, 10.0, {1: 1})
        assert np.array_equal(red.b, [0, 0])
        assert np.array_equal(red.A, [[1, 0], [0, 1]])
        assert np.array_equal(red.c, [1, 1])
        # constant = that of the reduced data plus the fixed objective c_1 = 1
        bare = encode(BlpInstance(c=red.c, A=red.A, b=red.b), 10.0)
        assert red.model.constant == bare.constant + 1.0
        assert np.array_equal(red.index_map, [0, 2])

    def test_empty_fixing_is_identity(self, three_var_instance):
        red = reduce(three_var_instance, 10.0, {})
        master = encode(three_var_instance, 10.0)
        assert np.array_equal(red.model.couplings, master.couplings)
        assert np.allclose(red.model.fields, master.fields)
        assert red.model.constant == pytest.approx(master.constant)

    def test_fix_everything(self, three_var_instance):
        x = [0, 1, 0]
        red = reduce(three_var_instance, 10.0, {0: 0, 1: 1, 2: 0})
        assert red.n_free == 0
        assert red.model.constant == pytest.approx(
            penalized_cost(three_var_instance, x, 10.0)
        )

    def test_completion_identity_exhaustive(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            inst = generate_spp(int(rng.integers(5, 9)), int(rng.integers(2, 4)), seed=int(rng.integers(1000)))
            M = 5.0 + float(rng.integers(0, 20))
            k = int(rng.integers(0, inst.n))
            idx = rng.choice(inst.n, size=k, replace=False)
            fixings = {int(i): int(rng.integers(0, 2)) for i in idx}
            red = reduce(inst, M, fixings)
            for x_free in enumerate_assignments(red.n_free):
                full = red.merge(x_free)
                e = energy(red.model, sigma_of_x(x_free))
                p = penalized_cost(inst, full, M)
                assert abs(e - p) <= 1e-9 * max(1.0, abs(p))

    def test_merge_completes_each_row(self, three_var_instance):
        red = reduce(three_var_instance, 10.0, {1: 1})
        rows = np.array([[0, 0], [1, 0], [0, 1]])
        full = red.merge(rows)
        assert np.array_equal(full, [[0, 1, 0], [1, 1, 0], [0, 1, 1]])
        assert np.array_equal(full[1], red.merge(rows[1]))

    def test_inconsistent_fixing_values(self, three_var_instance):
        with pytest.raises(ValueError):
            reduce(three_var_instance, 10.0, {0: 2})
        with pytest.raises(ValueError):
            reduce(three_var_instance, 10.0, {7: 1})

    def test_ledger_additivity(self):
        inst = generate_spp(8, 3, seed=11)
        M = 25.0
        first = {0: 1, 3: 0}
        second_orig = {5: 1, 2: 0}
        combined = reduce(inst, M, {**first, **second_orig})

        r1 = reduce(inst, M, first)
        interim = BlpInstance(c=r1.c, A=r1.A, b=r1.b, kappa=inst.kappa)
        orig_to_interim = {int(o): i for i, o in enumerate(r1.index_map)}
        second_local = {orig_to_interim[k]: v for k, v in second_orig.items()}
        r2 = reduce(interim, M, second_local)
        x_first = np.zeros(inst.n)
        x_first[list(first)] = list(first.values())

        assert np.array_equal(r2.model.couplings != 0, combined.model.couplings != 0)
        assert np.allclose(r2.model.couplings, combined.model.couplings, rtol=0, atol=1e-9)
        assert np.allclose(r2.model.fields, combined.model.fields, atol=1e-9)
        assert r2.model.constant + inst.c @ x_first == pytest.approx(
            combined.model.constant, abs=1e-9
        )


class TestManyBodyCount:
    def test_empty(self):
        model = IsingModel(couplings=np.zeros((3, 3)), fields=np.zeros(3))
        assert many_body_count(model) == 0

    def test_shared_constraint_pair(self, pair_instance):
        assert many_body_count(encode(pair_instance, 10.0)) == 1

    def test_removing_isolated_column_keeps_count(self):
        # column 2 shares no constraint row with columns 0, 1
        inst = BlpInstance(c=[1, 1, 1], A=[[1, 1, 0], [0, 0, 1]], b=[1, 1])
        master = encode(inst, 10.0)
        red = reduce(inst, 10.0, {2: 1})
        assert many_body_count(red.model) == many_body_count(master) == 1

    def test_reduction_never_increases_count(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = generate_spp(int(rng.integers(6, 10)), 3, seed=int(rng.integers(1000)))
            M = 10.0
            parent_fix = {int(rng.integers(0, inst.n)): 1}
            parent = reduce(inst, M, parent_fix)
            child_orig = int(rng.choice([i for i in range(inst.n) if i not in parent_fix]))
            child = reduce(inst, M, {**parent_fix, child_orig: 0})
            assert many_body_count(child.model) <= many_body_count(parent.model)
