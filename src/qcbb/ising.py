"""Exact Ising encoding of penalized binary linear programs.

The penalized objective ``c^T x + M ||Ax - b||^2`` maps, via x = (sigma+1)/2,
to an energy over spins sigma in {-1,1}^n:

    E(sigma) = sum_{i<j} w_ij sigma_i sigma_j + sum_i f_i sigma_i + C

with w = (M/2) * triu(A^T A, 1), stored as one strictly upper-triangular
matrix, f = (c - 2M A^T b + M (A^T A) 1) / 2, and the diagonal quadratic
contribution (M/4) * trace(A^T A) folded into the constant C together with
the transformation constant. The encoding is exact: the energy of every spin
image equals the penalized cost of the corresponding binary assignment,
which the tests enforce bit-for-bit. A node's model restricts the master
model to the free spins (``reduce``), so its energies stay in the master
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blp import BlpInstance

# Couplings below this fraction of M are float noise, not structure.
COUPLING_DROP_TOL = 1e-12


@dataclass(frozen=True)
class IsingModel:
    """Pairwise spin model E(sigma) = sigma^T J sigma + f^T sigma + C.

    ``couplings`` J is strictly upper-triangular: J[i, j], i < j, is the
    weight on sigma_i * sigma_j. Both arrays are stored read-only.
    """

    couplings: np.ndarray
    fields: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        f = np.array(self.fields, dtype=float)
        J = np.array(self.couplings, dtype=float)
        if f.ndim != 1:
            raise ValueError(f"fields have shape {f.shape}, expected a vector")
        if J.shape != (f.size, f.size):
            raise ValueError(f"couplings have shape {J.shape}, expected ({f.size}, {f.size})")
        if np.tril(J).any():
            raise ValueError("couplings must be strictly upper-triangular")
        for name, arr in (("fields", f), ("couplings", J)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_spins(self) -> int:
        return self.fields.size


def many_body_count(model: IsingModel) -> int:
    """Number of nonzero pairwise couplings."""
    return int(np.count_nonzero(model.couplings))


def encode(instance: BlpInstance, M: float) -> IsingModel:
    """Encode the penalized instance; energies match penalized costs exactly."""
    if not M > 0:
        raise ValueError("penalty M must be positive")
    A, b, c = instance.A, instance.b, instance.c
    G = A.T @ A
    g = A.T @ b
    h = c - 2.0 * M * g + M * (G @ np.ones(instance.n))
    constant = (
        0.25 * M * float(G.sum())
        + 0.5 * float(c.sum())
        - M * float(g.sum())
        + M * float(b @ b)
        + 0.25 * M * float(np.trace(G))
    )
    couplings = np.triu(0.5 * M * G, 1)
    couplings[np.abs(couplings) <= COUPLING_DROP_TOL * M] = 0.0
    return IsingModel(couplings=couplings, fields=0.5 * h, constant=constant)


@dataclass(frozen=True)
class ReducedProblem:
    """A node's model: the master model restricted to the free variables.

    ``index_map[i]`` is the master index of free variable i, increasing.
    """

    model: IsingModel
    index_map: np.ndarray
    fixings: dict[int, int]

    @property
    def n_free(self) -> int:
        return self.index_map.size

    def merge(self, x_free: np.ndarray) -> np.ndarray:
        """Full assignments from fixed values plus free-variable completions.

        ``x_free`` is one completion or a 2-D array of them, one per row.
        """
        x_free = np.asarray(x_free)
        full = np.zeros(x_free.shape[:-1] + (len(self.fixings) + self.n_free,))
        full[..., list(self.fixings)] = list(self.fixings.values())
        full[..., self.index_map] = x_free
        return full


def reduce(master: IsingModel, fixings: dict[int, int]) -> ReducedProblem:
    """Restrict the master model to the variables ``fixings`` leaves free.

    With F the free and X the fixed spins, s = 2x - 1 the fixed values and
    J the couplings, the model keeps J[F, F], takes the fields
    f[F] + (J + J^T)[F, X] @ s and the constant C + f[X] @ s + s J[X, X] s.
    Each completion's energy is the master energy of the merged assignment,
    fixed objective included. On integer data every sum is exact, so this
    equals a fresh encoding of the reduced program to the bit; on fractional
    data the two agree to rounding (1e-9 relative in the tests).
    """
    n = master.n_spins
    fixed = {}
    for idx, val in fixings.items():
        if not 0 <= idx < n:
            raise ValueError(f"fixed index {idx} out of range")
        if val not in (0, 1):
            raise ValueError(f"fixed value for x_{idx} must be 0 or 1")
        fixed[idx] = int(val)

    free = np.array([i for i in range(n) if i not in fixed], dtype=int)
    held = np.array(list(fixed), dtype=int)
    s = 2.0 * np.array(list(fixed.values()), dtype=float) - 1.0
    J = master.couplings
    fields = master.fields[free] + (J[np.ix_(free, held)] + J[np.ix_(held, free)].T) @ s
    constant = (
        master.constant + float(master.fields[held] @ s) + float(s @ J[np.ix_(held, held)] @ s)
    )
    return ReducedProblem(IsingModel(J[np.ix_(free, free)], fields, constant), free, fixed)
