import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import (
    as_vector,
    concat_diagonal,
    dense_qaoa_expectation,
    dense_qaoa_state,
    frame_phases,
    kron_mixer,
    random_model,
    scipy_optimize_angles,
    spin_product_diagonal,
    tensordot_mixer,
)
from qcbb import vqa
from qcbb.blp import BlpInstance, compute_big_m, enumerate_assignments, generate_spp
from qcbb.ising import IsingModel, encode
from qcbb.vqa import (
    QaoaParams,
    SampleSet,
    _apply_mixer,
    _buffers,
    build_diagonal,
    expectation,
    optimize_angles,
    phase_table,
    qaoa_state,
    sample,
)


def field_model(fields, constant=0.0):
    fields = np.asarray(fields, dtype=float)
    return IsingModel(
        couplings=np.zeros((fields.size, fields.size)), fields=fields, constant=constant
    )


@pytest.fixture
def pair_diag():
    inst = BlpInstance(c=[1.0, 2.0], A=[[1, 1]], b=[1])
    model = encode(inst, 10.0)
    return build_diagonal(model) + model.constant


class TestBuildDiagonal:
    def test_single_spin_table(self):
        # energies x=0 -> 0, x=1 -> 5 require field 2.5 and constant 2.5
        model = field_model([2.5], constant=2.5)
        assert np.allclose(build_diagonal(model) + model.constant, [0.0, 5.0])

    def test_encoded_pair(self, pair_diag):
        # oracle: penalized costs of the four assignments, LSB-first
        assert np.allclose(pair_diag, [10.0, 1.0, 2.0, 13.0])

    def test_zero_model(self):
        assert np.array_equal(build_diagonal(field_model([0.0, 0.0])), np.zeros(4))

    def test_constant_excluded(self):
        diag = build_diagonal(field_model([2.5], constant=2.5))
        assert np.allclose(diag, [-2.5, 2.5])

    def test_simulator_limit(self):
        with pytest.raises(ValueError):
            build_diagonal(field_model(np.zeros(vqa.SIMULATOR_LIMIT + 1)))

    def test_zero_spins(self):
        assert np.array_equal(build_diagonal(field_model([], constant=3.5)), [0.0])

    @pytest.mark.parametrize("shape", ["full", "no_couplings", "zero_fields", "float"])
    def test_matches_spin_product_reference(self, shape):
        # Half-integer data keeps every partial sum exact, so the doubling
        # build and the term-by-term reference agree bit for bit; float data
        # sums in another order and agrees to rounding.
        rng = np.random.default_rng(21)
        for n in range(1, 13):
            if shape == "float":
                model = random_model(rng, n_min=n, n_max=n)
                ours = build_diagonal(model)
                ref = spin_product_diagonal(model, include_constant=False)
                assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))
                continue
            fields = rng.integers(-40, 41, size=n) / 2.0
            if shape == "zero_fields":
                fields[:] = 0.0
            couplings = np.zeros((n, n))
            if shape != "no_couplings":
                for i in range(n):
                    for j in range(i + 1, n):
                        w = int(rng.integers(-6, 7)) / 2.0
                        if w != 0.0 and rng.random() < 0.6:
                            couplings[i, j] = w
            model = IsingModel(
                couplings=couplings,
                fields=fields,
                constant=float(rng.integers(-99, 100)) / 2.0,
            )
            ours = build_diagonal(model)
            assert np.array_equal(ours, spin_product_diagonal(model, include_constant=False))
            assert np.array_equal(ours + model.constant, spin_product_diagonal(model))

    @pytest.mark.parametrize("kind", ["spp", "fractional", "edge"])
    def test_matches_concatenation_build(self, kind):
        # the in-place build does the same float operations as the
        # concatenation chain, so it matches to the bit, signed zeros included
        rng = np.random.default_rng(33)
        if kind == "spp":
            draws = [generate_spp(n, m, seed=s) for n, m, s in ((6, 2, 0), (9, 3, 1), (14, 4, 2))]
            models = [encode(inst, compute_big_m(inst)) for inst in draws]
        elif kind == "fractional":
            costs = rng.integers(-50, 50, size=9) / 7 + 0.3
            inst = BlpInstance(c=costs, A=[[1] * 5 + [0] * 4], b=[2])
            models = [encode(inst, 13.7), random_model(rng, n_min=11, n_max=11)]
        else:  # n = 0 and n = 1, and signed zero fields
            models = [field_model(f) for f in ([], [0.0], [-0.0], [-1.25], [0.0, -0.0])]
        for model in models:
            ours = build_diagonal(model)
            assert ours.dtype == np.float64 and ours.shape == (1 << model.n_spins,)
            assert ours.tobytes() == concat_diagonal(model).tobytes()

    def test_spp_master_equals_penalized_costs(self):
        inst = generate_spp(20, 7, seed=0)
        M = compute_big_m(inst)
        X = enumerate_assignments(inst.n)
        residual = X @ inst.A.T - inst.b
        costs = X @ inst.c + M * np.sum(residual * residual, axis=1)
        del X, residual
        model = encode(inst, M)
        assert np.array_equal(build_diagonal(model) + model.constant, costs)


class TestQaoaState:
    def test_zero_angles_exact_uniform(self, pair_diag):
        state = qaoa_state(pair_diag, QaoaParams(gammas=[0.0, 0.0], betas=[0.0, 0.0]))
        assert np.array_equal(state, np.full(4, 0.5, dtype=complex))

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, 6))
            diag = rng.normal(size=1 << n) * 10
            params = QaoaParams(gammas=rng.normal(size=p), betas=rng.normal(size=p))
            state = qaoa_state(diag, params)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_trivial_cost_layer_keeps_uniform_magnitudes(self):
        state = qaoa_state(np.zeros(2), QaoaParams(gammas=[0.0], betas=[np.pi / 2]))
        assert np.allclose(np.abs(state) ** 2, [0.5, 0.5], atol=1e-12)

    def test_mixer_period_pi(self):
        rng = np.random.default_rng(8)
        diag = rng.normal(size=8)
        base = QaoaParams(gammas=[0.3], betas=[0.7])
        shifted = QaoaParams(gammas=[0.3], betas=[0.7 + np.pi])
        p1 = np.abs(qaoa_state(diag, base)) ** 2
        p2 = np.abs(qaoa_state(diag, shifted)) ** 2
        assert np.allclose(p1, p2, atol=1e-10)

    def test_matches_dense_reference(self, pair_diag):
        params = QaoaParams(gammas=[0.4], betas=[0.7])
        ours = expectation(qaoa_state(pair_diag, params), pair_diag)
        ref = dense_qaoa_expectation(pair_diag, params)
        assert ours == pytest.approx(ref, abs=1e-8)

    def test_matches_dense_reference_random(self):
        rng = np.random.default_rng(17)
        for n in [*range(1, 10), *rng.integers(1, 10, size=4)]:
            p = int(rng.integers(1, 4))
            diag = rng.normal(size=1 << n) * 4
            params = QaoaParams(gammas=rng.uniform(0, np.pi, p), betas=rng.uniform(0, np.pi, p))
            ours = expectation(qaoa_state(diag, params), diag)
            assert ours == pytest.approx(dense_qaoa_expectation(diag, params), abs=1e-8)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            qaoa_state(np.zeros(3), QaoaParams(gammas=[0.1], betas=[0.1]))

    @pytest.mark.parametrize("tile_bits", [14, 3, 1])
    def test_state_matches_dense_reference(self, tile_bits, monkeypatch):
        # the whole vector, phases included: the frame's D^dagger at the
        # start and D at the end cancel exactly. Tiles of 3 and 1 spins run
        # the tile loop, n = 8 with two and three groups above the tile.
        monkeypatch.setattr(vqa, "TILE_BITS", tile_bits)
        rng = np.random.default_rng(23)
        for n in range(9):
            for p in (1, 2, 3):
                diag = rng.normal(size=1 << n) * 4
                params = QaoaParams(
                    gammas=rng.uniform(0, np.pi, p), betas=rng.uniform(-np.pi, np.pi, p)
                )
                ours = qaoa_state(diag, params)
                assert np.max(np.abs(ours - dense_qaoa_state(diag, params))) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 9, 11])
    def test_caller_buffers_match_allocating_call(self, n, monkeypatch):
        # one (state, scratch) pair serves p = 1, 2, 3 in turn, the state
        # always returned in the first. Whole-state tiles at 14 tile bits;
        # 3-spin tiles put 0, 0, 0, 1, 1, 2, 2 and 3 groups above the tile
        # at these n, so the chunk pass runs from a copy (odd counts) and
        # straight from the chunk (even ones). Both buffers start as NaN,
        # so a read of stale scratch would show.
        for tile_bits in (14, 3):
            monkeypatch.setattr(vqa, "TILE_BITS", tile_bits)
            rng = np.random.default_rng(40 + n)
            diag = rng.integers(-30, 31, size=1 << n) / 2.0
            table = phase_table(diag)
            kept = (diag.copy(), table[0].copy(), table[1].copy())
            state, scratch = buffers = _buffers(diag.size)
            for p in (1, 2, 3):
                state.fill(np.nan)
                scratch.fill(np.nan)
                params = QaoaParams(
                    gammas=rng.uniform(0, np.pi, p), betas=rng.uniform(0, np.pi, p)
                )
                want = qaoa_state(diag, params)
                got = qaoa_state(diag, params, table, buffers)
                assert got is state
                assert got.tobytes() == want.tobytes()
                assert expectation(got, diag, scratch) == expectation(want, diag)
            for before, after in zip(kept, (diag, *table)):
                assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize(
        "tile_bits, n, scratch_size",
        [(14, 15, 1 << 14), (14, 16, 1 << 14), (14, 17, 1 << 15), (14, 18, 1 << 16), (14, 22, 1 << 16)]
        + [(6, 9, 1 << 8), (6, 13, 1 << 12), (3, 12, 1 << 12)],
    )
    def test_scratch_is_a_tile_and_a_chunk(self, tile_bits, n, scratch_size, monkeypatch):
        # one tile and one top-pass chunk: four tiles, cut to a quarter of
        # the state at 15 to 17 spins (so at 15 the tile, half the state,
        # is the larger), or 64 floats per row when that is more. 3-spin
        # tiles are 16-float rows, so their chunk is the whole state; up to
        # one tile of spins the scratch is the state's size.
        monkeypatch.setattr(vqa, "TILE_BITS", tile_bits)
        state, scratch = _buffers(1 << n)
        assert state.size == 1 << n and state.dtype == scratch.dtype == complex
        assert scratch.size == scratch_size
        for small in range(tile_bits + 1):
            assert _buffers(1 << small)[1].size == 1 << small

    @pytest.mark.parametrize("bad", [-1, "size"])
    def test_index_out_of_range_raises(self, bad, monkeypatch):
        # with 1-bit tiles the bad entry sits in the second or the fourth
        # tile, which the first layer checks as it gathers it
        monkeypatch.setattr(vqa, "TILE_BITS", 1)
        diag = np.array([0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 1.0, 2.0])
        params = QaoaParams(gammas=[0.3, 0.1], betas=[0.2, 0.4])
        for entry in (2, 6):
            levels, index = phase_table(diag)
            index[entry] = levels.size if bad == "size" else bad
            with pytest.raises(IndexError):
                qaoa_state(diag, params, (levels, index))
            with pytest.raises(IndexError):
                qaoa_state(diag, params, (levels, index), _buffers(8))

    def test_zero_spins(self):
        state = qaoa_state(np.array([2.0]), QaoaParams(gammas=[0.5, 0.25], betas=[0.3, 0.1]))
        assert state.shape == (1,)
        assert state[0] == pytest.approx(np.exp(-1j * 0.75 * 2.0), abs=1e-15)


class TestMixer:
    def test_matches_tensordot_reference(self, monkeypatch):
        # n = 1..11 covers every remainder mod 3 of the tile's bits; a
        # 3-spin tile puts one group above it at n = 4..6, two at n = 7..9
        # and three at n = 10, 11
        rng = np.random.default_rng(21)
        for tile_bits in (14, 3):
            monkeypatch.setattr(vqa, "TILE_BITS", tile_bits)
            for n in range(1, 12):
                frame = frame_phases(n)
                for _ in range(3):
                    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                    state = raw / np.linalg.norm(raw)
                    beta = float(rng.uniform(-np.pi, np.pi))
                    ref = tensordot_mixer(state, beta, n)
                    # in the frame, D Q^{(x)n} D^dagger = R_x^{(x)n}; the mixer
                    # works in place, through a NaN-filled scratch
                    ours, scratch = _buffers(state.size)
                    ours[:] = np.conj(frame) * state
                    scratch.fill(np.nan)
                    assert _apply_mixer(ours, beta, n, scratch) is ours
                    assert np.max(np.abs(frame * ours - ref)) <= 1e-12
                    assert ours.tobytes() == kron_mixer(np.conj(frame) * state, beta, n).tobytes()

    @pytest.mark.parametrize(
        "tile_bits, n", [(14, n) for n in range(15, 22)] + [(6, n) for n in range(9, 14)]
    )
    def test_bitwise_equal_to_kron_reference_above_the_tile(self, tile_bits, n, monkeypatch):
        # 14-spin tiles: 1 to 7 spins above, in one, two and (at n = 21)
        # three groups, so the chunk products start from a copy (odd counts)
        # and from the chunk itself (even ones), over 4 to 32 chunks. 6-spin
        # tiles: 128-float rows, and 3 to 7 spins above make the chunk 64
        # floats wide, half a row.
        monkeypatch.setattr(vqa, "TILE_BITS", tile_bits)
        rng = np.random.default_rng(n)
        state, scratch = _buffers(1 << n)
        state[:] = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        scratch.fill(np.nan)
        beta = float(rng.uniform(-np.pi, np.pi))
        want = kron_mixer(state, beta, n)
        assert _apply_mixer(state, beta, n, scratch) is state
        assert state.tobytes() == want.tobytes()


def spp_diagonal(n, m, seed):
    inst = generate_spp(n, m, seed=seed)
    return build_diagonal(encode(inst, compute_big_m(inst)))


class TestPhaseTable:
    def test_table_levels_and_index(self):
        diag = spp_diagonal(10, 4, seed=3)
        levels, index = phase_table(diag)
        assert levels.size < diag.size
        assert np.array_equal(levels[index], diag)

    @pytest.mark.parametrize("kind", ["spp", "distinct"])
    def test_phase_factor_bit_identical(self, kind):
        if kind == "spp":
            diag = spp_diagonal(10, 4, seed=3)
            assert np.array_equal(diag, np.round(diag))
        else:
            diag = np.random.default_rng(4).normal(size=1 << 10) * 7.0
            assert np.unique(diag).size == diag.size
        levels, index = phase_table(diag)
        for gamma in (0.0, 0.37, -1.9, 2.5e3):
            factors = np.exp(-1j * gamma * levels)[index]
            assert np.array_equal(factors, np.exp(-1j * gamma * diag))

    @pytest.mark.parametrize("kind", ["spp", "ties", "signed_zeros", "one_entry", "distinct"])
    def test_equals_numpy_unique(self, kind):
        rng = np.random.default_rng(len(kind))
        if kind == "spp":
            diags = [spp_diagonal(n, m, seed=s) for n, m, s in ((10, 4, 3), (13, 4, 0), (15, 5, 1))]
        elif kind == "ties":
            diags = [rng.integers(-3, 4, size=1 << n) / 4.0 for n in (1, 5, 11)]
        elif kind == "signed_zeros":
            diags = []
            for n in (1, 3, 6, 10):
                diag = rng.choice([0.0, -0.0, 1.5, -2.0], size=1 << n)
                diag[:2] = (-0.0, 0.0)
                diags.append(diag)
        elif kind == "one_entry":
            diags = [np.array([-0.0]), np.array([7.25])]
        else:
            diags = [rng.normal(size=1 << 9)]
        for diag in diags:
            levels, index = phase_table(diag)
            ref_levels, ref_index = np.unique(diag, return_inverse=True)
            # tobytes tells -0.0 from 0.0, so the same representative won
            assert levels.tobytes() == ref_levels.tobytes()
            assert index.dtype == ref_index.dtype
            assert np.array_equal(index, ref_index)

    def test_given_table_matches_built_table(self):
        rng = np.random.default_rng(6)
        params = QaoaParams(gammas=rng.uniform(0, np.pi, 3), betas=rng.uniform(0, np.pi, 3))
        for diag in (spp_diagonal(10, 4, seed=3), rng.normal(size=1 << 7)):
            assert np.array_equal(qaoa_state(diag, params), qaoa_state(diag, params, phase_table(diag)))


class TestExpectation:
    def test_uniform_state_averages(self):
        state = np.full(2, 1 / np.sqrt(2), dtype=complex)
        assert expectation(state, np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_basis_state_reads_entry(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0
        assert expectation(state, np.array([5.0, 6.0, 7.0, 8.0])) == 7.0

    def test_spare_matches_new_array(self):
        rng = np.random.default_rng(12)
        for n in (0, 1, 6):
            diag = rng.normal(size=1 << n)
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state = raw / np.linalg.norm(raw)
            kept = state.copy()
            spare = np.full(min(state.size, 1 << vqa.TILE_BITS), np.nan, dtype=complex)
            assert expectation(state, diag, spare) == expectation(state, diag)
            assert state.tobytes() == kept.tobytes()

    def test_tiled_sum_matches_exact_sum(self):
        # 64 tiles at n = 20. The exact (fsum) total of the same products is
        # the yardstick: one full-length vdot strays from it by 2.6e-15 here.
        rng = np.random.default_rng(13)
        n = 20
        diag = rng.integers(0, 201, size=1 << n) / 2.0
        raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = raw / np.linalg.norm(raw)
        got = expectation(state, diag)
        scratch = _buffers(state.size)[1]
        scratch.fill(np.nan)
        assert expectation(state, diag, scratch) == got
        exact = math.fsum((np.abs(state) ** 2 * diag).tolist())
        assert abs(got - exact) <= 1e-15 * exact

    def test_bounded_by_diagonal_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            diag = rng.normal(size=8)
            raw = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = raw / np.linalg.norm(raw)
            e = expectation(state, diag)
            assert diag.min() - 1e-12 <= e <= diag.max() + 1e-12


class TestSample:
    def test_basis_state_is_deterministic(self):
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # x = (1, 0)
        got = sample(state, 100, np.random.default_rng(0))
        assert len(got.bitstrings) == 1
        assert np.array_equal(got.bitstrings[0], [1, 0])
        assert got.counts[0] == 100

    def test_uniform_single_spin_frequencies(self):
        state = np.full(2, 1 / np.sqrt(2), dtype=complex)
        q = 100_000
        got = sample(state, q, np.random.default_rng(7))
        sigma = np.sqrt(0.25 / q)
        for count in got.counts:
            assert abs(count / q - 0.5) < 5 * sigma

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = raw / np.linalg.norm(raw)
        got = sample(state, 999, rng)
        assert int(got.counts.sum()) == 999

    def test_chi_square_consistency(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = raw / np.linalg.norm(raw)
        q = 100_000
        got = sample(state, q, np.random.default_rng(13))
        probs = np.abs(state) ** 2
        observed = np.zeros(16)
        for bits, count in zip(got.bitstrings, got.counts):
            z = int(np.dot(bits, 1 << np.arange(4)))
            observed[z] = count
        keep = probs * q >= 5
        _, p_value = chisquare(observed[keep], probs[keep] / probs[keep].sum() * observed[keep].sum())
        assert p_value > 1e-3

    def test_draws_match_squared_magnitude_reference(self):
        rng = np.random.default_rng(19)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        state = raw / np.linalg.norm(raw)
        probs = np.abs(state) ** 2
        draws = np.random.default_rng(3).choice(64, size=300, p=probs / probs.sum())
        values, counts = np.unique(draws, return_counts=True)
        got = sample(state, 300, np.random.default_rng(3))
        assert np.array_equal(got.bitstrings @ (1 << np.arange(6)), values)
        assert np.array_equal(got.counts, counts)

    def test_seeded_determinism(self):
        state = np.full(4, 0.5, dtype=complex)
        a = sample(state, 500, np.random.default_rng(42))
        b = sample(state, 500, np.random.default_rng(42))
        assert np.array_equal(a.bitstrings, b.bitstrings)
        assert np.array_equal(a.counts, b.counts)

    def test_sample_set_validation(self):
        with pytest.raises(ValueError):
            SampleSet(bitstrings=np.zeros((2, 3), dtype=np.int8), counts=np.array([1]))
        with pytest.raises(ValueError):
            SampleSet(bitstrings=np.zeros((2, 3), dtype=np.int8), counts=np.array([1, 0]))


class TestOptimizeAngles:
    def test_budget_of_one_returns_initial(self, pair_diag, monkeypatch):
        queried = []
        original = vqa.qaoa_state

        def recording(diag, params, *args):
            queried.append(as_vector(params))
            return original(diag, params, *args)

        monkeypatch.setattr(vqa, "qaoa_state", recording)
        params, values, _ = optimize_angles(pair_diag, 1, 1, np.random.default_rng(0))
        # the one query, then the returned state at the returned params
        assert len(values) == 1 and len(queried) == 2
        assert np.array_equal(as_vector(params), queried[0])
        assert np.array_equal(as_vector(params), queried[1])

    def test_constant_diagonal(self):
        diag = np.full(4, 3.0)
        _, values, _ = optimize_angles(diag, 1, 20, np.random.default_rng(1))
        assert np.allclose(values, 3.0)

    @pytest.mark.parametrize("patience", [1, 3, 7])
    def test_patience_on_constant_diagonal(self, patience):
        # every query reads exactly 0, so only the first sets a best
        diag = np.zeros(8)
        _, values, _ = optimize_angles(diag, 2, 50, np.random.default_rng(1), patience=patience)
        assert len(values) == 1 + patience

    def test_no_patience_spends_whole_budget(self):
        diag = np.zeros(8)
        _, values, _ = optimize_angles(diag, 2, 50, np.random.default_rng(1), patience=None)
        assert len(values) == 50

    def test_patience_stops_k_queries_after_last_improvement(self):
        diag = spp_diagonal(8, 3, seed=1)
        for seed in range(5):
            _, full, _ = optimize_angles(diag, 2, 200, np.random.default_rng(seed))
            params, values, _ = optimize_angles(diag, 2, 200, np.random.default_rng(seed), patience=6)
            # the same queries as without patience, cut 6 after the last new best
            assert values == full[: len(values)]
            last = values.index(min(values))
            assert len(values) == last + 1 + 6
            assert all(v >= values[last] for v in values[last:])
            assert expectation(qaoa_state(diag, params), diag) == min(values)

    def test_patience_validation(self, pair_diag):
        with pytest.raises(ValueError):
            optimize_angles(pair_diag, 1, 10, np.random.default_rng(0), patience=0)

    def test_budget_respected_and_best_reported(self, pair_diag):
        _, values, _ = optimize_angles(pair_diag, 3, 200, np.random.default_rng(5))
        assert len(values) <= 200
        assert min(values) <= values[0]

    def test_best_params_reproduce_best_value(self, pair_diag):
        params, values, state = optimize_angles(pair_diag, 2, 60, np.random.default_rng(9))
        value = expectation(qaoa_state(pair_diag, params), pair_diag)
        assert value == pytest.approx(min(values), abs=1e-12)
        assert state.tobytes() == qaoa_state(pair_diag, params).tobytes()

    def test_seeded_determinism(self, pair_diag):
        p1, t1, _ = optimize_angles(pair_diag, 2, 80, np.random.default_rng(3))
        p2, t2, _ = optimize_angles(pair_diag, 2, 80, np.random.default_rng(3))
        assert np.array_equal(as_vector(p1), as_vector(p2))
        assert t1 == t2

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["half_integer", "gaussian", "constant"])
    def test_replays_scipy_nelder_mead(self, kind, p):
        # 60 cases per (kind, p): every query and the returned angles equal
        # SciPy's, bit for bit
        rng = np.random.default_rng(100 * p + len(kind))
        for budget in (1, 5, 7, 30, 120):
            for patience in (None, 6, 14):
                for _ in range(4):
                    size = 1 << int(rng.integers(1, 7))
                    if kind == "half_integer":
                        diag = rng.integers(-20, 21, size) / 2
                    elif kind == "gaussian":
                        diag = rng.normal(size=size)
                    else:
                        diag = np.full(size, float(rng.integers(-3, 4)))
                    seed = int(rng.integers(2**32))
                    ours = optimize_angles(
                        diag, p, budget, np.random.default_rng(seed), patience=patience
                    )
                    ref = scipy_optimize_angles(
                        diag, p, budget, np.random.default_rng(seed), patience=patience
                    )
                    case = (kind, p, budget, patience, size, seed)
                    assert ours[1] == ref[1], case
                    assert as_vector(ours[0]).tobytes() == as_vector(ref[0]).tobytes(), case

    def test_queried_params_are_never_overwritten(self, monkeypatch):
        # each query gets its own copy of the simplex point, so the params a
        # caller saw still hold the angles it was queried at
        seen = []
        original = vqa.qaoa_state

        def recording(diag, params, *args):
            seen.append((params, as_vector(params).copy()))
            return original(diag, params, *args)

        monkeypatch.setattr(vqa, "qaoa_state", recording)
        optimize_angles(spp_diagonal(6, 2, seed=3), 2, 60, np.random.default_rng(4))
        assert len(seen) == 61  # 60 queries and the returned state
        assert all(np.array_equal(as_vector(params), x) for params, x in seen)

    def test_phase_table_built_once_per_call(self, monkeypatch):
        calls = {"phase_table": 0, "qaoa_state": 0}

        def counted(name):
            original = getattr(vqa, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(vqa, name, wrapper)

        counted("phase_table")
        counted("qaoa_state")
        _, values, _ = optimize_angles(spp_diagonal(8, 3, seed=1), 2, 30, np.random.default_rng(2))
        assert calls == {"phase_table": 1, "qaoa_state": len(values) + 1}
        assert len(values) == 30
