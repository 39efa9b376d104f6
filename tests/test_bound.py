import numpy as np
import pytest

from conftest import (
    ALPHA,
    bound_floor,
    cut_value,
    energy,
    exhaustive_max_cut,
    exhaustive_min_energy,
    is_feasible,
    loop_gw_round,
    random_model,
    total_weight,
)
from qcbb import bound
from qcbb.blp import enumerate_assignments, generate_spp, compute_big_m
from qcbb.bound import (
    feasible_ceiling,
    gw_round,
    infeasible_by_bound,
    ising_to_maxcut,
    lower_bound,
    objective_lattice,
    round_up_to_lattice,
    sdp_upper_bound,
    solve_sdp,
)
from qcbb.ising import IsingModel, encode, reduce


def model_of(couplings, fields):
    """Model from a {(i, j): w} dict of upper-triangle couplings."""
    fields = np.asarray(fields, dtype=float)
    J = np.zeros((fields.size, fields.size))
    for (i, j), w in couplings.items():
        J[i, j] = w
    return IsingModel(couplings=J, fields=fields)


def weights(n_vertices, edges):
    """Symmetric weight matrix from a {(u, v): w} dict of edges."""
    W = np.zeros((n_vertices, n_vertices))
    for (u, v), w in edges.items():
        W[u, v] = W[v, u] = w
    return W


class TestIsingToMaxcut:
    def test_coupling_becomes_spin_edge(self):
        W = ising_to_maxcut(model_of({(0, 1): 2.0}, [0.0, 0.0]))
        assert np.array_equal(W, weights(3, {(1, 2): 2.0}))
        assert total_weight(W) == 2.0

    def test_field_becomes_vertex0_edge(self):
        W = ising_to_maxcut(model_of({}, [2.0]))
        assert np.array_equal(W, weights(2, {(0, 1): 2.0}))

    def test_zero_model(self):
        W = ising_to_maxcut(model_of({}, [0.0, 0.0]))
        assert np.array_equal(W, np.zeros((3, 3)))
        assert total_weight(W) == 0.0

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng, n_max=8)
            W = ising_to_maxcut(model)
            n = model.n_spins
            assert W.shape == (n + 1, n + 1)
            assert np.array_equal(W, W.T)
            assert not np.diag(W).any()
            assert np.array_equal(W[0, 1:], model.fields)
            assert np.array_equal(np.triu(W[1:, 1:]), model.couplings)

    @pytest.mark.parametrize("coupling", [2.0, -2.0])
    def test_reduction_identity_on_four_configs(self, coupling):
        model = model_of({(0, 1): coupling}, [0.0, 0.0])
        W = ising_to_maxcut(model)
        z_star = exhaustive_max_cut(W)
        assert exhaustive_min_energy(model) == pytest.approx(-2 * z_star + total_weight(W))

    def test_reduction_identity_with_field(self):
        model = model_of({}, [2.0])
        W = ising_to_maxcut(model)
        z_star = exhaustive_max_cut(W)
        assert exhaustive_min_energy(model) == pytest.approx(-2 * z_star + total_weight(W))

    def test_reduction_identity_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            model = random_model(rng, n_max=7)
            W = ising_to_maxcut(model)
            z_star = exhaustive_max_cut(W)
            lhs = exhaustive_min_energy(model)
            assert abs(lhs - (-2 * z_star + total_weight(W))) <= 1e-9 * max(1, abs(lhs))

    def test_cut_value(self):
        W = weights(3, {(0, 1): 2.0, (1, 2): -1.0})
        assert cut_value(W, np.array([1, -1, -1])) == 2.0
        assert cut_value(W, np.array([1, -1, 1])) == 1.0


def primal_value(V, W):
    """Relaxation objective sum_(u<v) W_uv (1 - <V_u, V_v>)/2 at a factor V."""
    return 0.25 * (float(W.sum()) - float(np.sum((W @ V) * V)))


def stress_model(rng):
    """Random model with 1-12 spins and weights scaled by 1e-3 to 1e6; some
    draws round the weights, isolate a spin or have no fields."""
    base = random_model(
        rng,
        n_min=1,
        n_max=12,
        density=float(rng.choice([0.2, 0.6, 1.0])),
        field_density=float(rng.choice([0.0, 0.5, 1.0])),
    )
    scale = 10.0 ** rng.uniform(-3.0, 6.0)
    J, h = base.couplings * scale, base.fields * scale
    if rng.random() < 0.3:
        J, h = np.round(J), np.round(h)
    if rng.random() < 0.3:
        i = int(rng.integers(h.size))
        J[i, :] = J[:, i] = h[i] = 0.0
    return IsingModel(couplings=J, fields=h)


class TestSolveSdp:
    def test_single_positive_edge(self):
        W = weights(2, {(0, 1): 2.0})
        V, y = solve_sdp(W)
        assert sdp_upper_bound(y, W) == pytest.approx(2.0, abs=1e-7)
        assert primal_value(V, W) == pytest.approx(2.0, abs=1e-7)
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)

    def test_triangle_between_integral_and_sdp_value(self):
        W = weights(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        V, y = solve_sdp(W)
        assert 2.0 <= primal_value(V, W) <= 2.25 + 1e-9
        assert sdp_upper_bound(y, W) >= 2.25 - 1e-9

    def test_empty_graph(self):
        W = np.zeros((4, 4))
        V, y = solve_sdp(W)
        assert V.shape[0] == 4
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
        assert not y.any()
        assert sdp_upper_bound(y, W) == 0.0

    def test_certified_value_dominates_exhaustive_cut(self, monkeypatch):
        # sdp_upper_bound >= max cut - 1e-9 * max(1, |max cut|) on every
        # model, and every solve ends within SDP_MAX_ITERS steps (two step
        # lengths a step) with a unit-row factor
        step_lengths = []
        real_step_length = bound._step_length

        def counted(M, dM):
            step_lengths.append(1)
            return real_step_length(M, dM)

        monkeypatch.setattr(bound, "_step_length", counted)
        monkeypatch.setattr(bound, "SDP_MAX_ITERS", 40)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            W = ising_to_maxcut(stress_model(rng))
            step_lengths.clear()
            V, y = solve_sdp(W)
            assert len(step_lengths) <= 2 * bound.SDP_MAX_ITERS
            assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
            cut = exhaustive_max_cut(W)
            assert sdp_upper_bound(y, W) >= cut - 1e-9 * max(1.0, abs(cut))

    @pytest.mark.parametrize("max_iters", [0, 1, 3])
    def test_sound_when_stopped_early(self, max_iters, monkeypatch):
        # the certificate never rests on the solver's stop
        monkeypatch.setattr(bound, "SDP_MAX_ITERS", max_iters)
        rng = np.random.default_rng(37)
        for _ in range(50):
            W = ising_to_maxcut(stress_model(rng))
            V, y = solve_sdp(W)
            cut = exhaustive_max_cut(W)
            assert sdp_upper_bound(y, W) >= cut - 1e-9 * max(1.0, abs(cut))
            assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)

    def test_certifies_any_dual_vector(self):
        # the eigenvalue shift alone makes sdp_upper_bound sound, for any y
        rng = np.random.default_rng(39)
        for _ in range(100):
            W = ising_to_maxcut(stress_model(rng))
            cut = exhaustive_max_cut(W)
            scale = max(1.0, float(np.abs(W).max()))
            for y in (np.zeros(W.shape[0]), scale * rng.normal(size=W.shape[0])):
                assert sdp_upper_bound(y, W) >= cut - 1e-9 * max(1.0, abs(cut))

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_weight_scale_does_not_change_accuracy(self, scale):
        # the solve runs on W / max|W|, so its stop is relative to the weights
        value = 2.5 * (1.0 + np.cos(np.pi / 5.0))
        W = scale * weights(5, {tuple(sorted((i, (i + 1) % 5))): 1.0 for i in range(5)})
        _, y = solve_sdp(W)
        assert value - 1e-9 <= sdp_upper_bound(y, W) / scale <= value + 1e-7

    def test_isolated_vertex_keeps_unit_row(self):
        W = weights(4, {(0, 1): 1.0, (1, 2): -2.0})
        V, y = solve_sdp(W)
        assert np.all(np.isfinite(V))
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
        assert sdp_upper_bound(y, W) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize(
        "n_cycle, value",
        [(3, 2.25), (5, 2.5 * (1.0 + np.cos(np.pi / 5.0)))],
        ids=["triangle", "five_cycle"],
    )
    def test_known_sdp_values(self, n_cycle, value):
        edges = {tuple(sorted((i, (i + 1) % n_cycle))): 1.0 for i in range(n_cycle)}
        W = weights(n_cycle, edges)
        V, y = solve_sdp(W)
        # the primal value is at most the SDP value, the certificate at least
        assert value - 1e-7 <= primal_value(V, W) <= value + 1e-9
        assert value - 1e-9 <= sdp_upper_bound(y, W) <= value + 1e-7


class TestGwRound:
    def test_single_edge_cut_every_round(self):
        W = weights(2, {(0, 1): 2.0})
        V = np.array([[1.0, 0.0], [-1.0, 0.0]])
        z, side = gw_round(V, W, np.random.default_rng(0))
        assert z == 2.0
        assert side[0] == 1 and side[1] == -1

    def test_empty_graph(self):
        W = np.zeros((3, 3))
        z, side = gw_round(np.ones((3, 2)), W, np.random.default_rng(0))
        assert z == 0.0
        assert side[0] == 1

    def test_triangle_never_exceeds_optimum(self):
        W = weights(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        z_star = exhaustive_max_cut(W)
        assert z_star == 2.0
        V, _ = solve_sdp(W)
        z, _ = gw_round(V, W, np.random.default_rng(4))
        assert z <= z_star + 1e-12
        assert z == pytest.approx(2.0)

    def test_rounded_cuts_feasible_on_random_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = random_model(rng, n_max=6)
            W = ising_to_maxcut(model)
            if not W.any():
                continue
            V, _ = solve_sdp(W)
            z, _ = gw_round(V, W, rng)
            assert z <= exhaustive_max_cut(W) + 1e-9

    @pytest.mark.parametrize("kind", ["spp", "float", "ties"])
    def test_matches_loop_reference(self, kind, monkeypatch):
        # Same cut, same side and the same rng state afterwards as one draw
        # and one cut evaluation per round. SPP and unit weights keep every
        # cut sum exact; float weights may differ in summation order. Odd
        # unit cycles have many distinct maximum cuts, so the first-best
        # tie rule decides the side.
        rng = np.random.default_rng(11)
        for trial in range(12):
            if kind == "spp":
                inst = generate_spp(14, 3 + trial % 4, seed=trial)
                fixings = {trial % 14: trial % 2, (trial + 5) % 14: 0}
                W = ising_to_maxcut(reduce(encode(inst, compute_big_m(inst)), fixings).model)
            elif kind == "float":
                W = ising_to_maxcut(random_model(rng, n_max=12))
            else:
                n = 3 + 2 * (trial % 2)
                W = weights(n, {tuple(sorted((i, (i + 1) % n))): 1.0 for i in range(n)})
            V, _ = solve_sdp(W)
            rounds = (1, 7, 64)[trial % 3]
            ours_rng = np.random.default_rng(100 + trial)
            ref_rng = np.random.default_rng(100 + trial)
            monkeypatch.setattr(bound, "GW_ROUNDS", rounds)
            z, side = gw_round(V, W, ours_rng)
            z_ref, side_ref = loop_gw_round(V, W, rounds, ref_rng)
            if kind == "float":
                assert z == pytest.approx(z_ref, rel=1e-12, abs=1e-12)
            else:
                assert z == z_ref
            assert np.array_equal(side, side_ref)
            assert ours_rng.bit_generator.state == ref_rng.bit_generator.state


class TestLowerBound:
    def test_single_coupling_example(self):
        # min energy is -2; relaxation term -2, reached by the rounded side
        model = model_of({(0, 1): 2.0}, [0.0, 0.0])
        res = lower_bound(model, rng=np.random.default_rng(0))
        assert ising_to_maxcut(model).sum() / 2 == pytest.approx(2.0)
        assert energy(model, res.side[1:]) == -2.0
        assert res.lb_value == pytest.approx(-2.0, abs=1e-4)
        assert res.lb_value <= exhaustive_min_energy(model) + 1e-9

    def test_zero_model(self):
        res = lower_bound(model_of({}, [0.0, 0.0]), np.random.default_rng(0))
        assert res.lb_value == 0.0
        assert np.array_equal(res.side, [1, 1, 1])

    def test_sound_on_random_models(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            model = random_model(rng, n_max=8)
            res = lower_bound(model, rng=np.random.default_rng(trial))
            assert res.lb_value <= exhaustive_min_energy(model) + 1e-9
            # the rounded cut is at most z_sdp: its energy is at least lb
            assert energy(model, res.side[1:]) >= res.lb_value - 1e-9

    def test_invariants(self):
        rng = np.random.default_rng(77)
        model = random_model(rng, n_max=6)
        res = lower_bound(model, rng=rng)
        # the bound is the certificate of the solver's own dual vector
        W = ising_to_maxcut(model)
        _, y = solve_sdp(W)
        assert res.lb_value == -2.0 * sdp_upper_bound(y, W) + 0.5 * float(W.sum())
        assert res.side.shape == (model.n_spins + 1,) and res.side[0] == 1
        assert np.all(np.abs(res.side) == 1)

    def test_rounded_side_maps_to_its_penalized_cost(self):
        # x = (side[1:] + 1) / 2 completed with the fixings costs exactly the
        # Ising energy of side[1:], constant included, which is the energy
        # W - 2 cut(side) of the cut plus the constant
        for trial in range(12):
            inst = generate_spp(10, 3 + trial % 3, seed=trial)
            M = compute_big_m(inst)
            fixings = {trial % 10: trial % 2} if trial % 2 else {}
            red = reduce(encode(inst, M), fixings)
            res = lower_bound(red.model, rng=np.random.default_rng(trial))
            x = red.merge((res.side[1:] + 1) // 2)
            r = inst.A @ x - inst.b
            cost = inst.c @ x + M * (r @ r)
            assert cost == energy(red.model, res.side[1:])
            W = ising_to_maxcut(red.model)
            cut = cut_value(W, res.side)
            assert cost == pytest.approx(W.sum() / 2 - 2.0 * cut + red.model.constant, abs=1e-9)


class TestRelaxedSpins:
    def test_within_unit_interval(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            model = random_model(rng, n_max=8)
            spins = lower_bound(model, np.random.default_rng(trial)).relaxed_spins
            assert spins.shape == (model.n_spins,)
            assert np.all(np.abs(spins) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("fields, spin", [([5.0, 0.2, -0.3], 0), ([0.1, -4.0, 0.3], 1)])
    def test_dominant_field_decides_its_spin(self, fields, spin):
        # E = f . sigma + couplings is least with sigma_i = -sign(f_i) for the
        # dominant field, and the relaxation settles that spin there
        model = model_of({(0, 1): 0.5, (1, 2): -0.4}, fields)
        spins = lower_bound(model, np.random.default_rng(0)).relaxed_spins
        assert spins[spin] == pytest.approx(-np.sign(fields[spin]), abs=1e-6)

    def test_zero_model(self):
        spins = lower_bound(model_of({}, [0.0, 0.0, 0.0]), np.random.default_rng(0)).relaxed_spins
        assert np.array_equal(spins, np.zeros(3))


class TestObjectiveLattice:
    def test_integral_costs(self):
        assert objective_lattice(np.array([4.0, -6.0, 10.0])) == 2.0
        assert objective_lattice(np.array([3.0, 5.0, -7.0])) == 1.0

    def test_common_factor_three(self):
        c = 3.0 * np.array([1.0, 4.0, -5.0])
        assert objective_lattice(c) == 3.0
        # 4.5 lies between the lattice points 3 and 6
        assert round_up_to_lattice(4.5, 3.0) == 6.0
        assert round_up_to_lattice(-4.5, 3.0) == -3.0

    def test_fractional_costs_are_not_rounded(self):
        assert objective_lattice(np.array([1.0, 0.5])) is None
        assert objective_lattice(np.array([2.0**53, 1.0])) is None
        assert round_up_to_lattice(4.2, None) == 4.2

    def test_all_zero_costs(self):
        assert objective_lattice(np.zeros(3)) == 1.0
        assert round_up_to_lattice(-0.5, 1.0) == 0.0

    @pytest.mark.parametrize("g", [1.0, 3.0])
    def test_bound_on_a_lattice_point(self, g):
        # float error of 1e-12 around the lattice point 5g must not skip
        # to the next point; a real excess beyond tol must
        at = 5.0 * g
        assert round_up_to_lattice(at, g) == at
        assert round_up_to_lattice(at - 1e-12, g) == at
        assert round_up_to_lattice(at + 1e-12, g) == at + 1e-12
        assert round_up_to_lattice(at + 1e-6, g) == at + g

    def test_never_lowers_and_never_passes_the_best_objective(self):
        # for any lb at most the best lattice value v, the rounded bound is
        # in [lb, v]
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = float(rng.integers(1, 5))
            v = g * float(rng.integers(-50, 50))
            lb = v - float(rng.choice([0.0, 1e-12, 1e-3, 0.5, g, 7.3]))
            rounded = round_up_to_lattice(lb, g)
            assert lb <= rounded <= v


class TestBoundFloor:
    def test_single_coupling_example(self):
        model = model_of({(0, 1): 2.0}, [0.0, 0.0])
        floor = bound_floor(model, -2.0)
        assert floor == pytest.approx((1 / ALPHA) * (-2) - ((1 - ALPHA) / ALPHA) * 2)
        assert floor == pytest.approx(-2.5529, abs=1e-4)

    def test_zero_model(self):
        assert bound_floor(model_of({}, [0.0, 0.0]), 0.0) == 0.0

    def test_floor_below_computed_bound(self):
        rng = np.random.default_rng(55)
        for trial in range(25):
            model = random_model(rng, n_max=8)
            min_h = exhaustive_min_energy(model)
            res = lower_bound(model, rng=np.random.default_rng(trial))
            assert bound_floor(model, min_h) - 1e-6 <= res.lb_value


class TestFeasibleCeiling:
    def test_hand_worked_example(self):
        # fixed: 2*1 - 3*1; free: max(5, 0) + max(-1, 0)
        assert feasible_ceiling(np.array([2.0, -3.0, 5.0, -1.0]), {0: 1, 1: 1}) == 4.0

    def test_is_the_largest_completion_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            c = rng.integers(-5, 6, size=n).astype(float)
            idx = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            fixings = {int(i): int(rng.integers(0, 2)) for i in idx}
            X = enumerate_assignments(n)
            keep = np.all([X[:, i] == v for i, v in fixings.items()], axis=0)
            assert feasible_ceiling(c, fixings) == (X[keep] @ c).max()


class TestInfeasibleByBound:
    def test_boundary(self):
        # lb == T is attained by a feasible point costing T, so it proves nothing
        assert infeasible_by_bound(100.0, 100.0) is False
        assert infeasible_by_bound(100.0 + 1e-8, 100.0) is False  # within tol
        assert infeasible_by_bound(100.0 + 1e-6, 100.0) is True

    def test_clearly_feasible_bound(self):
        assert infeasible_by_bound(-5.0, 100.0) is False

    def test_flagged_subproblems_have_no_feasible_completion(self):
        rng = np.random.default_rng(14)
        flagged = 0
        for trial in range(40):
            inst = generate_spp(int(rng.integers(6, 10)), int(rng.integers(2, 5)), seed=trial)
            M = compute_big_m(inst)
            k = int(rng.integers(1, inst.n - 1))
            idx = rng.choice(inst.n, size=k, replace=False)
            fixings = {int(i): int(rng.integers(0, 2)) for i in idx}
            red = reduce(encode(inst, M), fixings)
            res = lower_bound(red.model, rng=np.random.default_rng(trial))
            lb = res.lb_value + red.model.constant
            if infeasible_by_bound(lb, feasible_ceiling(inst.c, fixings)):
                flagged += 1
                for x_free in enumerate_assignments(red.n_free):
                    assert not is_feasible(inst, red.merge(x_free))
        assert flagged > 0
