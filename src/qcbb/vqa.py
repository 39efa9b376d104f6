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

The mixer runs in a phase frame. With S = diag(1, i) and the real rotation
Q(beta) = [[cos, sin], [-sin, cos]], R_x(beta) = S Q S^dagger, so
R_x(beta)^{(x)n} = D Q^{(x)n} D^dagger with D = diag(i^popcount(z)). D is
diagonal and commutes with every phase layer, so ``qaoa_state`` starts from
D^dagger|+>, applies the real Q^{(x)n} in each layer and multiplies by D
once at the end. That last step is exact: every factor is +-1 or +-i. D
is the outer product of two halves of at most 2^11 entries
(``_frame_factors``), and the start uses their conjugates.

A real operator acts on the real and imaginary parts alike, so the mixer
works on the float view of the state: real matrix products, half the flops
of complex ones. The view's index is the amplitude index with one more bit
at the bottom, re/im. Viewing it as a (2^k, -1) array puts the top k bits
on the rows, and ``x.reshape(2^k, -1).T @ M`` mixes them and writes them
back at the bottom of the index, so the next product meets the next bits on
top; once n + 1 bits have gone round, the order is back where it started.
The last product of a round takes the re/im bit along through
M = Q^{(x)k} kron I_2 and leaves the buffer interleaved complex again.

These rotating products run one tile at a time: the low TILE_BITS spins
and re/im, 256 KB of contiguous floats, go round in blocks of at most
MIXER_BLOCK bits while the tile stays in cache. The top spins, those above
the tile, are mixed first, in one pass over the state (the cache blocking
of large statevector simulators; Haener & Steiger, SC17): the state, viewed
as a (2^top, -1) array, is walked in column chunks of about four tiles,
and each chunk takes one non-rotating product Q^{(x)k} @ x per group of at
most MIXER_BLOCK spins, from the highest group down. The first product
reads the state, the last writes the other buffer, and those in between
stay in two chunk-sized scratch arrays, so the top spins cost one read and
one write of the state however many groups they take. Each block is built
from the one below it as a broadcast outer product, the same products
``np.kron`` forms, so it equals the Kronecker fold to the bit. The top
pass and every tile product write into the other of two state buffers, so
they alternate between them.

A phase layer multiplies by exp(-i*gamma*E_z). Cost diagonals repeat few
energies, so ``phase_table`` lists the distinct energies once with each
entry's index among them, and a layer evaluates its factors only on those.
Every entry meets the same elementwise function of the same float as it
would on the full diagonal.

A node's circuit runs in two complex state buffers (``state_pair``), which
every query and the sampled state reuse. A phase layer gathers its factors
into the buffer not holding the state and multiplies in place, the mixer
writes into the other buffer, and an expectation sums diag * psi one tile
at a time in the start of the spare one. So during the queries a node holds
the diagonal, the table's index and two states, 48 bytes per amplitude,
plus temporaries the size of the level list, of the mixer's two 1 MB
chunks or of numpy's fixed cast buffer; no per-query array grows with 2^n.
Sampling holds the diagonal, the state, its probabilities and their
cumulative sum, 40 bytes per amplitude, below that peak. The gather runs
``np.take`` with ``mode="clip"``, because "raise" copies the whole output,
so ``qaoa_state`` checks a given table's index range itself. The index is
intp, as ``np.unique`` returns it: ``np.take`` copies any other integer
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
# Spins mixed inside one cache tile: 2^14 amplitudes are 256 KB. 14 beat 12,
# 13, 15 and 16 at n = 16 and 18; at n = 20, 15 was 6% faster and 16 slower
# (x86-64, 2 vCPU, one OpenBLAS thread). The spins above the tile are mixed
# in chunks of 8 << TILE_BITS floats (1 MB), four tiles; chunks of 1, 2, 8
# and 16 tiles were no faster at n = 20, and 8 tiles slower at n = 21 (same
# machine).
TILE_BITS = 14
# Index bits per product, inside a tile and above it: 8x8 blocks beat 16x16
# ones by 14%, 9% and 4% of the mixer at n = 16, 18 and 20, and 32x32 ones
# by more. Above the tile at n = 20, two 8x8 products per chunk took 3.0-3.5
# ms against 5.8 ms for one 64x64 product over the whole state (same
# machine).
MIXER_BLOCK = 3


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


def _split(bits: int, most: int) -> list[int]:
    """``bits`` as the fewest near-equal parts of at most ``most``, larger first."""
    parts = -(-bits // most)
    return [bits // parts + (i < bits % parts) for i in range(parts)]


def _frame_factors(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """i^popcount(z) as a column over the high bits of z and a row over the
    low ones; their outer product is the frame's D.

    Each half doubles from [1]: the entries of the next bit are those below
    it times i, so every entry is exactly +-1 or +-i. A half has at most
    2^11 entries below the simulator limit.
    """
    halves = []
    for bits in (n_spins - n_spins // 2, n_spins // 2):
        f = np.ones(1 << bits, dtype=complex)
        for k in range(bits):
            np.multiply(f[: 1 << k], 1j, out=f[1 << k : 2 << k])
        halves.append(f)
    return halves[0][:, None], halves[1]


def _mix_above_tile(src: np.ndarray, dst: np.ndarray, mats: list[np.ndarray], top: int) -> None:
    """Apply ``mats``, blocks over consecutive groups of the top ``top``
    spins from the highest down, to ``src`` into ``dst``, one column chunk
    of the (2^top, -1) float view at a time; ``src`` is only read.

    A chunk is about four tiles, so the products in between stay in cache:
    they alternate between two chunk-sized scratch arrays.
    """
    rows = 1 << top
    src = src.view(float).reshape(rows, -1)
    dst = dst.view(float).reshape(rows, -1)
    width = min(src.shape[1], max(64, (8 << TILE_BITS) >> top))
    scratch = [np.empty((rows, width)) for _ in range(min(2, len(mats) - 1))]
    for start in range(0, src.shape[1], width):
        a = src[:, start : start + width]
        outer = 1  # index values of the groups above this one
        for i, m in enumerate(mats):
            b = dst[:, start : start + width] if i == len(mats) - 1 else scratch[i % 2]
            shape = (outer, m.shape[0], -1, width)
            # the group's axis next to the columns: a batch of (2^k, width) products
            np.matmul(m, a.reshape(shape).swapaxes(1, 2), out=b.reshape(shape).swapaxes(1, 2))
            a = b
            outer *= m.shape[0]


def _apply_mixer(state: np.ndarray, beta: float, n_spins: int, spare: np.ndarray) -> np.ndarray:
    """Q(beta)^{(x)n}, Q = [[cos, sin], [-sin, cos]], in real matrix
    products on the float view of the state: the phase-frame form of
    exp(-i*beta*X) on every spin (see the module docstring).

    The products alternate between ``state`` and ``spare``, an array of the
    same size, so both are overwritten; returns the one holding the result.
    """
    c = np.cos(beta)
    s = np.sin(beta)
    low = min(n_spins, TILE_BITS)
    top = n_spins - low
    tile_sizes = _split(low + 1, MIXER_BLOCK)  # the re/im bit rides along
    qt = np.array([[c, -s], [s, c]])  # Q^T
    blocks = [np.ones((1, 1))]  # blocks[k] = Q^T kron ... kron Q^T, k factors
    for k in range(1, MIXER_BLOCK + 1):
        prev = blocks[k - 1]
        blocks.append((prev[:, None, :, None] * qt[None, :, None, :]).reshape(1 << k, 1 << k))
    last = blocks[tile_sizes[-1] - 1]  # kron I_2 on the re/im bit
    last = (last[:, None, :, None] * np.eye(2)[None, :, None, :]).reshape(2 * last.shape[0], -1)
    tile_blocks = [blocks[k] for k in tile_sizes[:-1]] + [last]
    if top:
        _mix_above_tile(state, spare, [blocks[k].T for k in _split(top, MIXER_BLOCK)], top)
        state, spare = spare, state
    src = state.view(float)
    dst = spare.view(float)
    size = 2 << low
    for start in range(0, src.size, size):
        a, b = src[start : start + size], dst[start : start + size]
        for block in tile_blocks:
            np.matmul(a.reshape(block.shape[0], -1).T, block, out=b.reshape(-1, block.shape[0]))
            a, b = b, a
    return spare if len(tile_blocks) % 2 else state


def phase_table(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(diag, return_inverse=True)``, from the same quicksort:
    sorted distinct energies and an intp index with ``levels[index] == diag``."""
    # allocated first, so freeing the temporaries leaves no hole below it in
    # glibc malloc's heap: np.unique's order adds 7-15 MB peak RSS at n = 20
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
    # the circuit runs in the phase frame: from D^dagger|+>, D = diag(i^popcount(z))
    rows, cols = _frame_factors(n_spins)
    frame = state.reshape(rows.size, cols.size)
    np.multiply(np.conj(rows) * (1.0 / np.sqrt(size)), np.conj(cols), out=frame)
    for gamma, beta in zip(params.gammas, params.betas):
        # "clip" gathers straight into spare, where "raise" would buffer a
        # copy; the index is in range (checked above)
        factors = -1j * gamma * levels
        np.take(np.exp(factors, out=factors), index, out=spare, mode="clip")
        state *= spare
        if n_spins and _apply_mixer(state, beta, n_spins, spare) is spare:
            state, spare = spare, state
    frame = state.reshape(rows.size, cols.size)  # back from the frame, exactly
    frame *= rows
    frame *= cols
    return state


def expectation(state: np.ndarray, diag: np.ndarray, spare: np.ndarray | None = None) -> float:
    """<psi| diag |psi> = sum_z |amp_z|^2 diag_z.

    Summed one tile of 2^TILE_BITS amplitudes at a time, each tile's
    diag*psi written to the same tile-sized scratch, so it is read back
    from cache. The scratch is the start of ``spare``, a complex array of
    the state's size, when one is given, and a new array otherwise; both
    give the same float.
    """
    if state.shape != diag.shape:
        raise ValueError("state and diagonal dimensions differ")
    size = min(state.size, 1 << TILE_BITS)
    scratch = np.empty(size, dtype=complex) if spare is None else spare[:size]
    total = 0.0
    for start in range(0, state.size, size):
        part = state[start : start + size]
        total += np.vdot(part, np.multiply(part, diag[start : start + size], out=scratch)).real
    return float(total)


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
    patience: int | None = None,
) -> tuple[QaoaParams, tuple[float, ...], np.ndarray]:
    """Minimize the state expectation over 2p angles under a query budget.

    In-house Nelder-Mead (``_nelder_mead``, which queries SciPy's points:
    start simplex +5% per coordinate, reflection 1, expansion 2, contraction
    1/2, shrink 1/2, stop at xatol 1e-4 and fatol 1e-8) from a random start
    in [0, pi)^2p, with fresh random restarts while budget remains. Never
    evaluates more than ``max_queries`` times. With ``patience`` k, it also
    stops once k consecutive queries have not found an expectation strictly
    below the best so far (the count runs across restarts), so the last
    query is k after the last improvement; None spends the whole budget.

    Returns the best parameters seen, every query's expectation in order,
    and the best parameters' state. Every query and that state share one
    ``phase_table(diag)`` and one ``state_pair``, built here; the state is
    in one of the pair, and the table and the other buffer are freed on
    return.
    """
    if max_queries < 1:
        raise ValueError("max_queries must be at least 1")
    if patience is not None and patience < 1:
        raise ValueError("patience must be at least 1 when set")
    values: list[float] = []
    best_x: np.ndarray | None = None
    best_f = np.inf
    stale = 0  # consecutive queries since the last strict improvement
    table = phase_table(diag)
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
    params = QaoaParams.from_vector(best_x)
    return params, tuple(values), qaoa_state(diag, params, table, buffers)
