"""Statevector QAOA over diagonal Ising cost operators.

The cost operator is diagonal in the computational basis, so a state is a
vector of 2^n complex amplitudes and a phase layer is an elementwise
multiply. Bit order is LSB-first throughout: bit i of a basis index z is the
binary value of variable i (bit 0 -> x_0), and spin sigma_i = 2*bit_i - 1.

The cost diagonal is built by spin doubling: with h = f_k + sum_{i<k} w_ik
sigma_i, spin k's local field over the 2^k configurations of the lower spins
(itself doubled one lower spin at a time), the table over spins 0..k is
(diag - h, diag + h), lower half sigma_k = -1. Both halves are written in
place: the table fills one preallocated 2^n array from the bottom up and h
one 2^(n-1) field buffer, so the build is O(2^n) work in 1.5 diagonals of
memory. It sums in another order than a term-by-term build, but on
penalized set-partitioning data (integer costs and M, 0/1 rows) every
coefficient and partial sum is an exact half-integer, so the diagonal is the
same to the bit.

The mixer applies R = R_x(beta)^{(x)k}, a symmetric 2^k x 2^k matrix, to
blocks of at most MIXER_BLOCK spins with one matrix product each. Each R is
built from the one below it as a broadcast outer product, the same products
``np.kron`` forms, so it equals the Kronecker fold to the bit. Viewing the
state as a (2^k, 2^(n-k)) array puts the top k bits of the index on the rows,
and ``psi.reshape(2^k, -1).T @ R`` mixes them and writes them back at the
bottom of the index, so the next block meets the next k bits on top. After
blocks whose sizes sum to n every bit has been mixed once and the bit order
is back where it started, with no axis moved. Each product writes into the
other of two state buffers, so the blocks alternate between them.

A phase layer multiplies by exp(-i*gamma*E_z). Cost diagonals repeat few
energies, so ``phase_table`` lists the distinct energies once with each
entry's index among them, and a layer evaluates its factors only on those.
Every entry meets the same elementwise function of the same float as it
would on the full diagonal.

A node's circuit runs in two complex state buffers (``state_pair``), which
every query and the sampled state reuse. A phase layer gathers its factors
into the buffer not holding the state and multiplies in place, each mixer
product writes into the other buffer, and an expectation's diag * psi lands
in the spare one. So during the queries a node holds the diagonal, the
table's index and two states, 48 bytes per amplitude, plus temporaries the
size of the level list or of numpy's fixed cast buffer; no per-query array
grows with 2^n. The gather runs ``np.take`` with ``mode="clip"``, because
"raise" copies the whole output, so ``qaoa_state`` checks a given table's
index range itself. The index is intp: ``np.take`` copies any other integer
index to intp on every call.

Angle optimization is derivative-free under a query cap: Nelder-Mead runs
with random restarts, every expectation evaluation is recorded, and the best
parameters seen are returned. It stops when the cap is reached or, with a
``patience`` k, once k queries in a row have found no strictly lower
expectation, whichever comes first. The tree solver stops each node after
2(2p+1) such queries, two Nelder-Mead simplex sizes; the plain-QAOA
baseline sets no patience and spends its whole budget.

The Nelder-Mead method (Nelder & Mead, Comput. J. 7:308, 1965) is in-house
and queries the same points, float for float, as SciPy's
``minimize(method="Nelder-Mead")`` with ``xatol=1e-4, fatol=1e-8`` (checked
against SciPy 1.17): the start simplex moves each coordinate by 5% (to
0.00025 where it is 0); the reflection, expansion, contraction and shrink
coefficients are 1, 2, 1/2 and 1/2; the evaluation order, the argsort
re-sort and the stop test are SciPy's. Importing ``scipy.optimize`` cost more
start-up time and memory than the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingModel

SIMULATOR_LIMIT = 22
# Spins per mixer product: 16x16 blocks beat 4x4, 8x8 and 32x32 at n = 14..20
# (x86-64, 2 vCPU, one OpenBLAS thread).
MIXER_BLOCK = 4


@dataclass(frozen=True)
class QaoaParams:
    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        b = np.atleast_1d(np.asarray(self.betas, dtype=float))
        if g.ndim != 1 or g.shape != b.shape or g.size < 1:
            raise ValueError("gammas and betas must be equal-length vectors, p >= 1")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    @property
    def p(self) -> int:
        return self.gammas.size

    @staticmethod
    def from_vector(v: np.ndarray) -> "QaoaParams":
        v = np.asarray(v, dtype=float)
        p = v.size // 2
        return QaoaParams(gammas=v[:p], betas=v[p:])


@dataclass(frozen=True)
class SampleSet:
    """Distinct measured bitstrings (rows) with their positive counts."""

    bitstrings: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if self.bitstrings.ndim != 2:
            raise ValueError("bitstrings must be a 2-d array of rows")
        if self.counts.shape != (self.bitstrings.shape[0],):
            raise ValueError("one count per bitstring required")
        if np.any(self.counts <= 0):
            raise ValueError("counts must be positive")


def build_diagonal(model: IsingModel) -> np.ndarray:
    """Energy of every basis state, ``model.constant`` excluded, indexed
    LSB-first by spin configuration.

    Built by spin doubling in O(2^n) work (see the module docstring).
    """
    n = model.n_spins
    if n > SIMULATOR_LIMIT:
        raise ValueError(f"{n} spins exceeds the simulator limit of {SIMULATOR_LIMIT}")
    diag = np.zeros(1 << n)
    field = np.empty(diag.size >> 1)  # spin k's local field, over spins < k, in field[:2^k]
    for k in range(n):
        field[0] = model.fields[k]
        for i in range(k):
            w = model.couplings[i, k]
            low = field[: 1 << i]
            np.add(low, w, out=field[1 << i : 2 << i])
            low -= w
        low = diag[: 1 << k]
        np.add(low, field[: 1 << k], out=diag[1 << k : 2 << k])
        low -= field[: 1 << k]
    return diag


def state_pair(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two complex arrays of ``size`` amplitudes for the in-place circuit."""
    return np.empty(size, dtype=complex), np.empty(size, dtype=complex)


def _apply_mixer(
    state: np.ndarray, beta: float, n_spins: int, spare: np.ndarray | None = None
) -> np.ndarray:
    """exp(-i*beta*X) on every spin, one matrix product per block of spins.

    The products alternate between ``state`` and ``spare`` (a new array when
    not given), so both are overwritten; returns the one holding the result.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    rot = np.array([[c, s], [s, c]])
    sizes = [MIXER_BLOCK] * (n_spins // MIXER_BLOCK)
    if n_spins % MIXER_BLOCK:
        sizes.append(n_spins % MIXER_BLOCK)
    blocks = {1: rot}  # blocks[k] = rot kron ... kron rot, k factors
    for k in range(2, max(sizes) + 1):
        prev = blocks[k - 1]
        blocks[k] = (prev[:, None, :, None] * rot[None, :, None, :]).reshape(1 << k, 1 << k)
    src = state
    dst = np.empty_like(state) if spare is None else spare
    for k in sizes:
        np.matmul(src.reshape(1 << k, -1).T, blocks[k], out=dst.reshape(-1, 1 << k))
        src, dst = dst, src
    return src


def phase_table(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct energies of ``diag`` and the index of each entry among them.

    The same arrays as ``np.unique(diag, return_inverse=True)``, from the
    same quicksort, with fewer full-length temporaries alive at once.
    """
    # allocated before the temporaries, so freeing them leaves no hole below
    # it in glibc malloc's heap: 8 MB less peak RSS at n = 20
    index = np.empty(diag.size, dtype=np.intp)
    order = np.argsort(diag)
    ranked = diag[order]
    first = np.empty(diag.size, dtype=bool)  # first entry of each level in ``ranked``
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    levels = ranked[first]
    del ranked
    rank = np.cumsum(first)
    del first
    rank -= 1
    index[order] = rank
    return levels, index


def qaoa_state(
    diag: np.ndarray,
    params: QaoaParams,
    table: tuple[np.ndarray, np.ndarray] | None = None,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Alternating phase/mixer circuit applied to the uniform superposition.

    ``table`` is ``phase_table(diag)``; pass it to reuse one across calls.
    ``buffers`` is a ``state_pair(diag.size)`` that the circuit overwrites
    (a new pair when not given); the state is returned in one of the two.
    ``diag`` and ``table`` are only read.
    """
    size = diag.size
    n_spins = int(size).bit_length() - 1
    if 1 << n_spins != size:
        raise ValueError("diagonal length must be a power of two")
    if table is None:
        levels, index = phase_table(diag)
    else:
        levels, index = table
        if index.min() < 0 or index.max() >= levels.size:
            raise IndexError("phase table index out of range")
    state, spare = state_pair(size) if buffers is None else buffers
    state.fill(1.0 / np.sqrt(size))
    for gamma, beta in zip(params.gammas, params.betas):
        # "clip" gathers straight into spare, where "raise" would buffer a
        # copy; the index is in range (checked above)
        factors = -1j * gamma * levels
        np.take(np.exp(factors, out=factors), index, out=spare, mode="clip")
        state *= spare
        if n_spins and _apply_mixer(state, beta, n_spins, spare) is spare:
            state, spare = spare, state
    return state


def expectation(state: np.ndarray, diag: np.ndarray, spare: np.ndarray | None = None) -> float:
    """<psi| diag |psi> = sum_z |amp_z|^2 diag_z.

    ``spare``, a complex array of the state's size, receives diag*psi in
    place of a new array.
    """
    if state.shape != diag.shape:
        raise ValueError("state and diagonal dimensions differ")
    return float(np.real(np.vdot(state, np.multiply(state, diag, out=spare))))


def sample(state: np.ndarray, q: int, rng: np.random.Generator) -> SampleSet:
    """q independent measurements, aggregated into distinct bitstrings."""
    if q < 1:
        raise ValueError("need at least one shot")
    probs = np.abs(state)
    np.square(probs, out=probs)
    probs /= probs.sum()
    n_spins = int(state.size).bit_length() - 1
    draws = rng.choice(state.size, size=q, p=probs)
    values, counts = np.unique(draws, return_counts=True)
    bitstrings = ((values[:, None] >> np.arange(max(n_spins, 1))) & 1)[:, :n_spins]
    return SampleSet(bitstrings=bitstrings.astype(np.int8), counts=counts)


class _StopQueries(Exception):
    pass


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float) -> None:
    """Minimize f from x0 by Nelder-Mead until the simplex is within xatol
    of its best vertex and its values within fatol of the best value.

    Replays SciPy's ``_minimize_neldermead`` without bounds, so f sees the
    same points in the same order; each gets a copy, so no caller holds a
    simplex row. f records what it needs and stops the search early by
    raising.
    """
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(np.copy(x)) for x in sim], dtype=float)
    for _ in range(2):  # SciPy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while not (
        np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
    ):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(np.copy(xc))
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(np.copy(xc))
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(np.copy(sim[j]))
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)


def optimize_angles(
    diag: np.ndarray,
    p: int,
    max_queries: int,
    rng: np.random.Generator,
    table: tuple[np.ndarray, np.ndarray] | None = None,
    patience: int | None = None,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[QaoaParams, tuple[float, ...]]:
    """Minimize the state expectation over 2p angles under a query budget.

    In-house Nelder-Mead (``_nelder_mead``, which queries SciPy's points:
    start simplex +5% per coordinate, reflection 1, expansion 2, contraction
    1/2, shrink 1/2, stop at xatol 1e-4 and fatol 1e-8) from a random start
    in [0, pi)^2p, with fresh random restarts while budget remains. Never
    evaluates more than ``max_queries`` times; returns the best parameters
    seen and every query's expectation, in order. With
    ``patience`` k, it also stops once k consecutive queries have not found
    an expectation strictly below the best so far (the count runs across
    restarts), so the last query is k after the last improvement; None
    spends the whole budget. Every query shares one phase table: ``table``
    when given (``phase_table(diag)``, so the caller can reuse it for
    sampling), otherwise one built here, and one ``state_pair``:
    ``buffers`` when given, otherwise one allocated here.
    """
    if max_queries < 1:
        raise ValueError("max_queries must be at least 1")
    if patience is not None and patience < 1:
        raise ValueError("patience must be at least 1 when set")
    values: list[float] = []
    best_x: np.ndarray | None = None
    best_f = np.inf
    stale = 0  # consecutive queries since the last strict improvement
    if table is None:
        table = phase_table(diag)
    if buffers is None:
        buffers = state_pair(diag.size)

    def objective(x: np.ndarray) -> float:
        nonlocal best_x, best_f, stale
        if len(values) >= max_queries:
            raise _StopQueries
        state = qaoa_state(diag, QaoaParams.from_vector(x), table, buffers)
        value = expectation(state, diag, buffers[1] if state is buffers[0] else buffers[0])
        values.append(value)
        if value < best_f:
            best_f = value
            best_x = x  # a fresh copy per query (_nelder_mead)
            stale = 0
        else:
            stale += 1
            if stale == patience:
                raise _StopQueries
        return value

    try:
        while len(values) < max_queries:
            _nelder_mead(objective, rng.uniform(0.0, np.pi, size=2 * p), xatol=1e-4, fatol=1e-8)
    except _StopQueries:
        pass
    assert best_x is not None
    return QaoaParams.from_vector(best_x), tuple(values)
