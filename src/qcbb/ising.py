"""Exact Ising encoding of penalized binary linear programs.

The penalized objective ``c^T x + M ||Ax - b||^2`` maps, via x = (sigma+1)/2,
to an energy over spins sigma in {-1,1}^n:

    E(sigma) = sum_{i<j} w_ij sigma_i sigma_j + sum_i f_i sigma_i + C

with w = (M/2) * triu(A^T A, 1), stored as one strictly upper-triangular
matrix, f = (c - 2M A^T b + M (A^T A) 1) / 2, and the diagonal quadratic
contribution (M/4) * trace(A^T A) folded into the constant C together with
the transformation constant. The encoding is exact: the energy of every spin
image equals the penalized cost of the corresponding binary assignment,
which the tests enforce bit-for-bit. A reduced subproblem's constant also
holds the objective of its fixed variables, so its energies stay in the
master problem's frame.
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


def energy(model: IsingModel, sigma: np.ndarray) -> float:
    """Energy of a spin configuration, constant included."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (model.n_spins,):
        raise ValueError(f"sigma has shape {sigma.shape}, expected ({model.n_spins},)")
    if sigma.size and not np.isin(sigma, (-1.0, 1.0)).all():
        raise ValueError("spin entries must be -1 or +1")
    return model.constant + float(model.fields @ sigma + sigma @ model.couplings @ sigma)


def many_body_count(model: IsingModel) -> int:
    """Number of nonzero pairwise couplings."""
    return int(np.count_nonzero(model.couplings))


def _encode_arrays(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, M: float, objective: float
) -> IsingModel:
    n = A.shape[1]
    G = A.T @ A
    g = A.T @ b
    h = c - 2.0 * M * g + M * (G @ np.ones(n))
    transform = (
        0.25 * M * float(G.sum())
        + 0.5 * float(c.sum())
        - M * float(g.sum())
        + M * float(b @ b)
        + 0.25 * M * float(np.trace(G))
    )
    couplings = np.triu(0.5 * M * G, 1)
    couplings[np.abs(couplings) <= COUPLING_DROP_TOL * M] = 0.0
    return IsingModel(couplings=couplings, fields=0.5 * h, constant=transform + objective)


def encode(instance: BlpInstance, M: float) -> IsingModel:
    """Encode the penalized instance; energies match penalized costs exactly."""
    if not M > 0:
        raise ValueError("penalty M must be positive")
    return _encode_arrays(instance.A, instance.b, instance.c, M, objective=0.0)


@dataclass(frozen=True)
class ReducedProblem:
    """Subproblem after removing fixed columns.

    ``index_map[i]`` is the original variable index of reduced variable i.
    The model energy of any completion of the free variables equals the
    penalized master cost of the merged full assignment.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    model: IsingModel
    index_map: np.ndarray
    fixings: dict[int, int]

    @property
    def n_free(self) -> int:
        return self.A.shape[1]

    def merge(self, x_free: np.ndarray) -> np.ndarray:
        """Full assignments from fixed values plus free-variable completions.

        ``x_free`` is one completion or a 2-D array of them, one per row.
        """
        x_free = np.asarray(x_free)
        full = np.zeros(x_free.shape[:-1] + (len(self.fixings) + self.n_free,))
        full[..., list(self.fixings)] = list(self.fixings.values())
        full[..., self.index_map] = x_free
        return full


def reduce(instance: BlpInstance, M: float, fixings: dict[int, int]) -> ReducedProblem:
    """Remove fixed columns, fold their contribution into b and the constant.

    b_new = b - sum_k A[:, k] x_k over fixed k; A and c lose the fixed
    columns; the fixed objective sum_k c_k x_k is added to the constant, so
    energies stay in the master problem's frame.
    """
    if not M > 0:
        raise ValueError("penalty M must be positive")
    n = instance.n
    fixed = {}
    for idx, val in fixings.items():
        if not 0 <= idx < n:
            raise ValueError(f"fixed index {idx} out of range")
        if val not in (0, 1):
            raise ValueError(f"fixed value for x_{idx} must be 0 or 1")
        fixed[idx] = int(val)

    free = np.array([i for i in range(n) if i not in fixed], dtype=int)
    x_fixed = np.zeros(n)
    for idx, val in fixed.items():
        x_fixed[idx] = val
    b_new = instance.b - instance.A @ x_fixed
    A_new = instance.A[:, free]
    c_new = instance.c[free]
    model = _encode_arrays(A_new, b_new, c_new, M, float(instance.c @ x_fixed))
    return ReducedProblem(
        A=A_new, b=b_new, c=c_new, model=model, index_map=free, fixings=fixed
    )
