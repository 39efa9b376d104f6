"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

import qcbb
from qcbb.blp import BlpInstance, violations
from qcbb.bound import ising_to_maxcut
from qcbb.ising import IsingModel
from qcbb import vqa
from qcbb.vqa import QaoaParams, expectation, phase_table, qaoa_state

# Goemans-Williamson approximation ratio of hyperplane rounding.
ALPHA = 0.87856


@pytest.fixture
def three_var_instance() -> BlpInstance:
    # optimum 1 at x = (0, 1, 0)
    return BlpInstance(c=[1.0, 1.0, 1.0], A=[[1, 1, 0], [0, 1, 1]], b=[1, 1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports this qcbb."""
    src = str(Path(qcbb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )


def is_feasible(instance: BlpInstance, x: np.ndarray) -> bool:
    """Whether the binary assignment x satisfies Ax = b (``blp.violations``)."""
    return not violations(instance, np.asarray(x, dtype=float)[None]).any()


def sigma_of_x(x: np.ndarray) -> np.ndarray:
    """Map binary values {0,1} to spins {-1,+1}."""
    x = np.asarray(x)
    if x.size and not np.isin(x, (0, 1)).all():
        raise ValueError("binary vector entries must be 0 or 1")
    return 2 * x.astype(int) - 1


def x_of_sigma(sigma: np.ndarray) -> np.ndarray:
    """Map spins {-1,+1} to binary values {0,1}."""
    sigma = np.asarray(sigma)
    if sigma.size and not np.isin(sigma, (-1, 1)).all():
        raise ValueError("spin entries must be -1 or +1")
    return (sigma.astype(int) + 1) // 2


def upper_entries(matrix: np.ndarray):
    """(i, j, w) for every nonzero entry above the diagonal, row by row."""
    n = matrix.shape[0]
    return [
        (i, j, float(matrix[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
        if matrix[i, j] != 0.0
    ]


def total_weight(W: np.ndarray) -> float:
    """Total weight of a symmetric weight matrix, summed edge by edge."""
    return sum(w for _, _, w in upper_entries(W))


def random_model(
    rng: np.random.Generator,
    n_min: int = 2,
    n_max: int = 10,
    density: float = 0.6,
    field_density: float = 0.7,
) -> IsingModel:
    """Random mixed-sign pairwise model."""
    n = int(rng.integers(n_min, n_max + 1))
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                couplings[i, j] = float(rng.normal())
    fields = rng.normal(size=n) * (rng.random(size=n) < field_density)
    return IsingModel(couplings=couplings, fields=fields)


def energy(model: IsingModel, sigma: np.ndarray) -> float:
    """Energy of a spin configuration, constant included."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (model.n_spins,):
        raise ValueError(f"sigma has shape {sigma.shape}, expected ({model.n_spins},)")
    if sigma.size and not np.isin(sigma, (-1.0, 1.0)).all():
        raise ValueError("spin entries must be -1 or +1")
    return model.constant + float(model.fields @ sigma + sigma @ model.couplings @ sigma)


def exhaustive_energies(model: IsingModel) -> np.ndarray:
    """Energy table computed from scratch (independent of the library paths).

    Index z holds the energy of the configuration whose spin i is +1 iff bit
    i of z is set.
    """
    n = model.n_spins
    z = np.arange(1 << n, dtype=np.int64)
    spins = 2.0 * ((z[:, None] >> np.arange(n)) & 1) - 1.0
    table = np.full(1 << n, model.constant)
    table += spins @ model.fields
    for i, j, w in upper_entries(model.couplings):
        table += w * spins[:, i] * spins[:, j]
    return table


def exhaustive_min_energy(model: IsingModel) -> float:
    return float(exhaustive_energies(model).min())


def bound_floor(model: IsingModel, min_energy: float) -> float:
    """Worst-case value of an alpha-guaranteed bound, from the true optimum.

    (1/alpha) min E - ((1-alpha)/alpha) sum|w| over the MaxCut edge weights
    w. ``bound.lower_bound`` never falls below it.
    """
    abs_weight = sum(abs(w) for _, _, w in upper_entries(ising_to_maxcut(model)))
    return min_energy / ALPHA - ((1.0 - ALPHA) / ALPHA) * abs_weight


def cut_value(W: np.ndarray, side: np.ndarray) -> float:
    """Weight of the pairs of a symmetric weight matrix that cross the
    bipartition given by a +-1 vector, summed edge by edge."""
    return float(sum(w for u, v, w in upper_entries(W) if side[u] != side[v]))


def exhaustive_max_cut(W: np.ndarray) -> float:
    """Maximum cut by enumerating every bipartition with vertex 0 pinned to
    +1, all at once, summed edge by edge."""
    rest = W.shape[0] - 1
    z = np.arange(1 << rest, dtype=np.int64)
    spins = 2.0 * ((z[:, None] >> np.arange(max(rest, 1))) & 1) - 1.0
    cuts = np.zeros(1 << rest)
    for u, v, w in upper_entries(W):
        su = np.ones(1 << rest) if u == 0 else spins[:, u - 1]
        cuts += w * (1.0 - su * spins[:, v - 1]) / 2.0
    return float(cuts.max(initial=0.0))


def as_vector(params: QaoaParams) -> np.ndarray:
    """The 2p angles, gammas then betas (the inverse of ``from_vector``)."""
    return np.concatenate([params.gammas, params.betas])


def dense_qaoa_expectation(diag: np.ndarray, params: QaoaParams) -> float:
    """Reference expectation via explicit matrix exponentials.

    Builds the mixer exp(-i beta sum_i X_i) as a dense operator with numpy
    kron products (variable i on bit i, LSB-first) and applies dense
    matrix-vector products layer by layer.
    """
    size = diag.size
    n = int(size).bit_length() - 1
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    x_sum = np.zeros((size, size))
    for i in range(n):
        op = np.kron(
            np.eye(1 << (n - 1 - i)), np.kron(pauli_x, np.eye(1 << i))
        )
        x_sum += op
    psi = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        psi = np.exp(-1j * gamma * diag) * psi
        psi = expm(-1j * beta * x_sum) @ psi
    return float(np.real(np.vdot(psi, diag * psi)))


class _Stop(Exception):
    pass


def scipy_optimize_angles(
    diag: np.ndarray,
    p: int,
    max_queries: int,
    rng: np.random.Generator,
    patience: int | None = None,
) -> tuple[QaoaParams, tuple[float, ...]]:
    """Reference for ``qcbb.vqa.optimize_angles``: the same restart loop,
    budget and patience rule around SciPy's ``minimize(method="Nelder-Mead")``
    (``maxfev`` the remaining budget, ``xatol=1e-4``, ``fatol=1e-8``)."""
    values: list[float] = []
    best_x: np.ndarray | None = None
    best_f = np.inf
    stale = 0
    table = phase_table(diag)

    def objective(x: np.ndarray) -> float:
        nonlocal best_x, best_f, stale
        if len(values) >= max_queries:
            raise _Stop
        value = expectation(qaoa_state(diag, QaoaParams.from_vector(x), table), diag)
        values.append(value)
        if value < best_f:
            best_f = value
            best_x = x.copy()
            stale = 0
        else:
            stale += 1
            if stale == patience:
                raise _Stop
        return value

    try:
        while len(values) < max_queries:
            minimize(
                objective,
                rng.uniform(0.0, np.pi, size=2 * p),
                method="Nelder-Mead",
                options={"maxfev": max_queries - len(values), "xatol": 1e-4, "fatol": 1e-8},
            )
    except _Stop:
        pass
    assert best_x is not None
    return QaoaParams.from_vector(best_x), tuple(values)


def tensordot_mixer(state: np.ndarray, beta: float, n_spins: int) -> np.ndarray:
    """Reference mixer: exp(-i*beta*X) applied one spin at a time.

    Contracts the 2x2 rotation into each axis of the (2,)*n view of the
    state, then moves the axis back, so it shares no logic with the blocked
    mixer in ``qcbb.vqa``.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    rot = np.array([[c, s], [s, c]])
    psi = state.reshape((2,) * n_spins)
    for axis in range(n_spins):
        psi = np.moveaxis(np.tensordot(rot, psi, axes=([1], [axis])), 0, axis)
    return psi.reshape(-1)


def kron_mixer(state: np.ndarray, beta: float, n_spins: int) -> np.ndarray:
    """Bitwise reference for ``qcbb.vqa._apply_mixer``: the same real block
    products on the float view of the state, each block a ``np.kron`` fold
    of Q^T = [[cos, -sin], [sin, cos]] and each product a new array.

    Spins above ``vqa.TILE_BITS`` take one non-rotating product per group of
    at most ``vqa.MIXER_BLOCK``, from the top down, each over the whole
    state at once (the mixer takes them chunk by chunk); then every tile
    of the low spins and the re/im bit takes rotating products of at most
    ``vqa.MIXER_BLOCK`` bits, the last one with I_2 on the re/im bit. The
    constants are read at call time, so a test that patches one gets the
    matching reference.
    """

    def parts(bits: int, most: int) -> list[int]:
        if not bits:
            return []
        return [len(p) for p in np.array_split(np.arange(bits), -(-bits // most))]

    c = np.cos(beta)
    s = np.sin(beta)
    qt = np.array([[c, -s], [s, c]])

    def block(k: int) -> np.ndarray:
        return reduce(np.kron, [qt] * k, np.ones((1, 1)))

    low = min(n_spins, vqa.TILE_BITS)
    psi = state.view(float)
    done = 0
    for k in parts(n_spins - low, vqa.MIXER_BLOCK):
        psi = (block(k).T @ psi.reshape(1 << done, 1 << k, -1)).reshape(-1)
        done += k
    sizes = parts(low + 1, vqa.MIXER_BLOCK)
    mats = [block(k) for k in sizes[:-1]] + [np.kron(block(sizes[-1] - 1), np.eye(2))]
    tiles = []
    for tile in psi.reshape(-1, 2 << low):
        for m in mats:
            tile = tile.reshape(m.shape[0], -1).T @ m
        tiles.append(tile.reshape(-1))
    return np.concatenate(tiles).view(complex)


def frame_phases(n_spins: int) -> np.ndarray:
    """i^popcount(z) for every basis index z: the diagonal D of the mixer's
    phase frame, R_x(beta)^{(x)n} = D Q(beta)^{(x)n} D^dagger."""
    z = np.arange(1 << n_spins)
    popcount = sum((z >> i) & 1 for i in range(n_spins))
    return np.array([1, 1j, -1, -1j])[popcount % 4]


def dense_qaoa_state(diag: np.ndarray, params: QaoaParams) -> np.ndarray:
    """Reference statevector: the uniform superposition, then per layer the
    phase diagonal exp(-i*gamma*diag) and the dense mixer R_x(beta)^{(x)n},
    a ``np.kron`` fold of complex 2x2 rotations."""
    size = diag.size
    n = int(size).bit_length() - 1
    psi = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        c = np.cos(beta)
        s = -1j * np.sin(beta)
        mixer = reduce(np.kron, [np.array([[c, s], [s, c]])] * n, np.ones((1, 1)))
        psi = mixer @ (np.exp(-1j * gamma * diag) * psi)
    return psi


def spin_product_diagonal(model: IsingModel, include_constant: bool = True) -> np.ndarray:
    """Reference diagonal: one full-length pass per field and per coupling.

    Materialises every spin as a 2^n array and adds f_i*sigma_i and
    w_ij*sigma_i*sigma_j term by term, so it shares no logic with the
    doubling build in ``qcbb.vqa.build_diagonal``.
    """
    size = 1 << model.n_spins
    diag = np.zeros(size)
    if include_constant:
        diag += model.constant
    z = np.arange(size, dtype=np.int64)
    spins = [2.0 * ((z >> i) & 1) - 1.0 for i in range(model.n_spins)]
    for i, f in enumerate(model.fields):
        if f != 0.0:
            diag += f * spins[i]
    for i, j, w in upper_entries(model.couplings):
        diag += w * (spins[i] * spins[j])
    return diag


def concat_diagonal(model: IsingModel) -> np.ndarray:
    """Bitwise reference for ``qcbb.vqa.build_diagonal``: the same spin
    doubling, each step a new array from ``np.concatenate`` instead of a
    write into one preallocated table."""
    diag = np.zeros(1)
    for k in range(model.n_spins):
        h = np.full(1, model.fields[k])  # spin k's local field, over spins < k
        for i in range(k):
            w = model.couplings[i, k]
            h = np.concatenate((h - w, h + w))
        diag = np.concatenate((diag - h, diag + h))
    return diag


def loop_gw_round(
    V: np.ndarray, W: np.ndarray, rounds: int, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """Reference hyperplane rounding: one normal draw and one
    ``cut_value`` per round, keeping the first strict best."""
    best_value = -np.inf
    best_side = np.ones(V.shape[0], dtype=int)
    for _ in range(rounds):
        side = np.where(V @ rng.normal(size=V.shape[1]) >= 0.0, 1, -1)
        value = cut_value(W, side)
        if value > best_value:
            best_value = value
            best_side = side
    if best_side[0] < 0:
        best_side = -best_side
    return float(best_value), best_side


def reencoded_model(instance: BlpInstance, M: float, fixings: dict[int, int]) -> IsingModel:
    """Reference for ``ising.reduce``: the reduced program encoded afresh.

    Drops the fixed columns, moves their activity into b and their
    objective into the constant, and applies the formula of
    ``ising.encode``, in its order of operations, to the reduced data. It
    skips the float-noise drop of tiny couplings, which integer data never
    triggers.
    """
    free = [i for i in range(instance.n) if i not in fixings]
    x_fixed = np.zeros(instance.n)
    x_fixed[list(fixings)] = list(fixings.values())
    A = instance.A[:, free]
    b = instance.b - instance.A @ x_fixed
    c = instance.c[free]
    G = A.T @ A
    g = A.T @ b
    h = c - 2.0 * M * g + M * (G @ np.ones(len(free)))
    constant = (
        0.25 * M * float(G.sum())
        + 0.5 * float(c.sum())
        - M * float(g.sum())
        + M * float(b @ b)
        + 0.25 * M * float(np.trace(G))
    )
    couplings = np.triu(0.5 * M * G, 1)
    return IsingModel(
        couplings=couplings, fields=0.5 * h, constant=constant + float(instance.c @ x_fixed)
    )


def random_dense_instance(rng: np.random.Generator, n_max: int = 8) -> BlpInstance:
    """Mixed-sign dense instance (not set-partitioning shaped)."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, max(2, n // 2) + 1))
    A = np.round(rng.normal(size=(m, n)) * 2.0, 1)
    A[np.abs(A) < 0.2] = 1.0  # keep rows active
    b = np.round(rng.normal(size=m) * 2.0, 1)
    c = np.round(rng.normal(size=n) * 5.0, 1)
    return BlpInstance(c=c, A=A, b=b)


def subset_sum_instance(n: int, seed: int, costs: tuple[int, int] = (-20, 20)) -> BlpInstance:
    """One row a @ x = floor(sum(a) / 2), a drawn from 1..29 and c from
    ``costs`` (both ends included) with ``default_rng(seed)``. Its general
    integer coefficients build trees of many nodes, where set-partitioning
    draws mostly close at the root."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 30, n)
    c = rng.integers(costs[0], costs[1] + 1, n)
    return BlpInstance(c=c, A=[a], b=[a.sum() // 2])


def odd_cycle_instance(
    extra_rows: int = 0, rng: np.random.Generator | None = None
) -> BlpInstance:
    """Infeasible 3-cycle core (x_i + x_j = 1 around a triangle) plus
    optional disjoint satisfiable rows; propagation alone cannot refute the
    cycle, the bound has to."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = 3 + 2 * extra_rows
    m = 3 + extra_rows
    A = np.zeros((m, n))
    A[0, 0] = A[0, 1] = 1.0
    A[1, 1] = A[1, 2] = 1.0
    A[2, 0] = A[2, 2] = 1.0
    for k in range(extra_rows):
        A[3 + k, 3 + 2 * k] = 1.0
        A[3 + k, 4 + 2 * k] = 1.0
    c = rng.integers(1, 10, size=n).astype(float)
    return BlpInstance(c=c, A=A, b=np.ones(m))
