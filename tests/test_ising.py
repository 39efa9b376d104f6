import numpy as np
import pytest

from conftest import energy, reencoded_model, sigma_of_x, x_of_sigma
from qcbb.blp import (
    BlpInstance,
    compute_big_m,
    enumerate_assignments,
    generate_spp,
    penalized_cost,
)
from qcbb.ising import IsingModel, encode, many_body_count, reduce


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


def integer_instance(rng: np.random.Generator) -> BlpInstance:
    """Random integer program: small mixed-sign A, b and c."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 5))
    A = rng.integers(-3, 4, size=(m, n))
    b = A @ rng.integers(0, 2, size=n) if rng.random() < 0.5 else rng.integers(-4, 5, size=m)
    return BlpInstance(c=rng.integers(-20, 21, size=n), A=A, b=b)


def random_fixings(rng: np.random.Generator, n: int) -> dict[int, int]:
    idx = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    return {int(i): int(rng.integers(0, 2)) for i in idx}


class TestReduce:
    def test_hand_worked_single_fixing(self, three_var_instance):
        # x_1 = 1 leaves A = I, b = 0 and c = (1, 1) on x_0, x_2: fields
        # (c + M) / 2 = 5.5, no couplings, and the constant M + 1 of the
        # reduced data plus the fixed objective c_1 = 1
        red = reduce(encode(three_var_instance, 10.0), {1: 1})
        assert np.array_equal(red.model.couplings, np.zeros((2, 2)))
        assert np.array_equal(red.model.fields, [5.5, 5.5])
        assert red.model.constant == 12.0
        assert np.array_equal(red.index_map, [0, 2])

    def test_empty_fixing_is_identity(self, three_var_instance):
        master = encode(three_var_instance, 10.0)
        red = reduce(master, {})
        assert np.array_equal(red.model.couplings, master.couplings)
        assert np.array_equal(red.model.fields, master.fields)
        assert red.model.constant == master.constant

    def test_fix_everything(self, three_var_instance):
        x = [0, 1, 0]
        red = reduce(encode(three_var_instance, 10.0), {0: 0, 1: 1, 2: 0})
        assert red.n_free == 0
        assert red.model.constant == penalized_cost(three_var_instance, x, 10.0)

    def test_matches_reencoding_bit_for_bit(self):
        # on integer data restriction and a fresh encoding of the reduced
        # program sum exact integers and half-integers, so they agree to
        # the bit
        rng = np.random.default_rng(13)
        for trial in range(200):
            if trial % 2:
                inst = integer_instance(rng)
            else:
                n = int(rng.integers(4, 10))
                inst = generate_spp(n, int(rng.integers(2, n)), seed=trial)
            M = compute_big_m(inst)
            fixings = random_fixings(rng, inst.n)
            got = reduce(encode(inst, M), fixings).model
            want = reencoded_model(inst, M, fixings)
            assert np.array_equal(got.couplings, want.couplings)
            assert np.array_equal(got.fields, want.fields)
            assert got.constant == want.constant

    def test_completion_identity_exhaustive(self):
        # every completion's restricted energy is its penalized master cost;
        # fractional costs and kappa = 0.5 data agree to rounding
        rng = np.random.default_rng(4)
        for trial in range(45):
            kind = ("spp", "fractional", "kappa_half")[trial % 3]
            if kind == "spp":
                inst = generate_spp(int(rng.integers(5, 9)), int(rng.integers(2, 4)), seed=int(rng.integers(1000)))
                M = 5.0 + float(rng.integers(0, 20))
            else:
                inst = integer_instance(rng)
                c, A, b, kappa = inst.c, inst.A, inst.b, 1.0
                if kind == "fractional":
                    c = (rng.integers(-50, 50, size=inst.n) + 0.5) / 10
                else:
                    A, b, kappa = A / 2, b / 2, 0.5
                inst = BlpInstance(c=c, A=A, b=b, kappa=kappa)
                M = compute_big_m(inst)
            fixings = random_fixings(rng, inst.n)
            red = reduce(encode(inst, M), fixings)
            for x_free in enumerate_assignments(red.n_free):
                full = red.merge(x_free)
                e = energy(red.model, sigma_of_x(x_free))
                p = penalized_cost(inst, full, M)
                assert abs(e - p) <= 1e-9 * max(1.0, abs(p))

    def test_merge_completes_each_row(self, three_var_instance):
        red = reduce(encode(three_var_instance, 10.0), {1: 1})
        rows = np.array([[0, 0], [1, 0], [0, 1]])
        full = red.merge(rows)
        assert np.array_equal(full, [[0, 1, 0], [1, 1, 0], [0, 1, 1]])
        assert np.array_equal(full[1], red.merge(rows[1]))

    def test_inconsistent_fixing_values(self, three_var_instance):
        master = encode(three_var_instance, 10.0)
        with pytest.raises(ValueError):
            reduce(master, {0: 2})
        with pytest.raises(ValueError):
            reduce(master, {7: 1})

    def test_ledger_additivity(self):
        # restricting in two steps gives the one-step restriction exactly
        inst = generate_spp(8, 3, seed=11)
        master = encode(inst, 25.0)
        first = {0: 1, 3: 0}
        second_orig = {5: 1, 2: 0}
        combined = reduce(master, {**first, **second_orig})

        r1 = reduce(master, first)
        orig_to_interim = {int(o): i for i, o in enumerate(r1.index_map)}
        second_local = {orig_to_interim[k]: v for k, v in second_orig.items()}
        r2 = reduce(r1.model, second_local)

        assert np.array_equal(r2.model.couplings, combined.model.couplings)
        assert np.array_equal(r2.model.fields, combined.model.fields)
        assert r2.model.constant == combined.model.constant


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
        red = reduce(master, {2: 1})
        assert many_body_count(red.model) == many_body_count(master) == 1

    def test_reduction_never_increases_count(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = generate_spp(int(rng.integers(6, 10)), 3, seed=int(rng.integers(1000)))
            master = encode(inst, 10.0)
            parent_fix = {int(rng.integers(0, inst.n)): 1}
            parent = reduce(master, parent_fix)
            child_orig = int(rng.choice([i for i in range(inst.n) if i not in parent_fix]))
            child = reduce(master, {**parent_fix, child_orig: 0})
            assert many_body_count(child.model) <= many_body_count(parent.model)
