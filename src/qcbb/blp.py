"""Binary linear programs with equality constraints.

The master problem is ``min { c^T x | Ax = b, x in {0,1}^n }``. This module
holds the instance data model, the big-M penalty used to fold the equality
constraints into the objective, a set-partitioning instance generator with a
planted feasible solution, an exhaustive optimum oracle for small instances,
and JSON file I/O.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

FEASIBILITY_TOL = 1e-9

# Enumeration guard for the exhaustive oracle.
BRUTE_FORCE_MAX_N = 20
# Distance from the kappa grid, in units of kappa, that a loaded A or b
# entry may have.
KAPPA_GRID_TOL = 1e-9


class InstanceFormatError(ValueError):
    """Raised when an instance file is malformed or inconsistent."""


@dataclass(frozen=True)
class BlpInstance:
    """A binary linear program ``min c^T x  s.t.  Ax = b, x binary``.

    ``kappa`` is the numerical precision granularity of the constraint data;
    with integer A and b the default of 1 is exact. Instance files must put
    every entry of A and b on that grid (``instance_from_dict``); instances
    built in memory are not checked. Arrays are made read-only so instances
    can be shared without copies.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    name: str | None = None
    kappa: float = 1.0
    optimum: float | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d matrix")
        m, n = A.shape
        if n < 1 or m < 1:
            raise ValueError("need at least one variable and one constraint")
        if c.shape != (n,):
            raise ValueError(f"c has length {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise ValueError(f"b has length {b.shape}, expected ({m},)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("instance data must be finite")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be a positive finite real")
        for arr, key in ((c, "c"), (A, "A"), (b, "b")):
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Constraint residual ``Ax - b`` for a full binary assignment."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"assignment has shape {x.shape}, expected ({self.n},)")
        return self.A @ x - self.b

    def is_feasible(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        return bool(np.max(np.abs(self.residual(x)), initial=0.0) <= tol)


def compute_big_m(instance: BlpInstance) -> float:
    """Penalty constant ``M = sum_i |c_i| / min(kappa, kappa^2)``.

    A violated constraint has a residual of at least ``kappa``, so an
    infeasible point pays a penalty of at least ``M * kappa^2 >= sum|c|``,
    which is no less than the objective gap between any two binary points.
    No infeasible point then costs less than the feasible optimum. The
    ``kappa^2`` term matters only for ``kappa < 1``; with ``kappa >= 1``
    this is ``sum|c| / kappa``. A zero objective would give M = 0 and a
    vanishing penalty, so ``sum|c|`` is floored at 1.
    """
    total = float(np.sum(np.abs(instance.c))) or 1.0
    kappa = instance.kappa
    return total / min(kappa, kappa * kappa)


def penalized_cost(instance: BlpInstance, x: np.ndarray, M: float) -> float:
    """``c^T x + M * ||Ax - b||^2``; equals ``c^T x`` exactly when Ax = b."""
    x = np.asarray(x, dtype=float)
    r = instance.residual(x)
    return float(instance.c @ x + M * (r @ r))


def generate_spp(
    n: int,
    m: int,
    seed: int,
    cost_low: int = 1,
    cost_high: int = 20,
    name: str | None = None,
) -> BlpInstance:
    """Random set-partitioning instance with a planted feasible solution.

    The m ground elements are split into at least two nonempty subsets whose
    indicator columns are planted in A, so selecting exactly those columns
    partitions the ground set. The remaining columns are random proper
    nonempty subsets; no column is the complete ground set. Costs are drawn
    uniformly from [cost_low, cost_high]. Deterministic for a given seed.
    """
    if m < 2 or n <= m:
        raise ValueError(f"need n > m >= 2, got n={n}, m={m}")
    if cost_low > cost_high:
        raise ValueError("cost_low must not exceed cost_high")
    rng = np.random.default_rng(seed)

    k = int(rng.integers(2, m + 1))
    order = rng.permutation(m)
    cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False))
    blocks = np.split(order, cuts)

    columns = np.zeros((m, n), dtype=float)
    for j, block in enumerate(blocks):
        columns[block, j] = 1.0
    for j in range(k, n):
        size = int(rng.integers(1, m))  # proper subset: 1 <= size <= m-1
        members = rng.choice(m, size=size, replace=False)
        columns[members, j] = 1.0

    costs = rng.integers(cost_low, cost_high + 1, size=n).astype(float)
    return BlpInstance(
        c=costs,
        A=columns,
        b=np.ones(m),
        name=name or f"spp_n{n}_m{m}_seed{seed}",
    )


def enumerate_assignments(n: int) -> np.ndarray:
    """All 2^n binary assignments as rows, row z having bit i of z at column i."""
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"refusing to enumerate 2^{n} assignments (limit n={BRUTE_FORCE_MAX_N})")
    z = np.arange(1 << n, dtype=np.int64)
    return ((z[:, None] >> np.arange(n)) & 1).astype(float)


@dataclass(frozen=True)
class BruteForceResult:
    feasible: bool
    value: float | None
    assignment: np.ndarray | None = field(default=None)


def brute_force_optimum(instance: BlpInstance) -> BruteForceResult:
    """Exact optimum by enumerating all 2^n assignments (n <= 20 guard)."""
    X = enumerate_assignments(instance.n)
    res = X @ instance.A.T - instance.b
    feas = np.all(np.abs(res) <= FEASIBILITY_TOL, axis=1)
    if not feas.any():
        return BruteForceResult(feasible=False, value=None)
    costs = X[feas] @ instance.c
    best = int(np.argmin(costs))
    return BruteForceResult(feasible=True, value=float(costs[best]), assignment=X[feas][best].copy())


def worst_feasible_cost(instance: BlpInstance) -> float | None:
    """Cost of the most expensive feasible assignment, or None if infeasible."""
    X = enumerate_assignments(instance.n)
    res = X @ instance.A.T - instance.b
    feas = np.all(np.abs(res) <= FEASIBILITY_TOL, axis=1)
    if not feas.any():
        return None
    return float(np.max(X[feas] @ instance.c))


def instance_to_dict(instance: BlpInstance) -> dict:
    out = {
        "n": instance.n,
        "m": instance.m,
        "c": instance.c.tolist(),
        "A": instance.A.tolist(),
        "b": instance.b.tolist(),
    }
    if instance.name is not None:
        out["name"] = instance.name
    if instance.kappa != 1.0:
        out["kappa"] = instance.kappa
    if instance.optimum is not None:
        out["optimum"] = instance.optimum
    return out


def _is_json_number(value, kind: type) -> bool:
    """A JSON integer for int, any JSON number for float. A bool is neither,
    and 2.7 is not rounded to an int."""
    return not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))


def _scalar_field(data: dict, key: str, kind: type):
    """``data[key]`` as ``kind`` (see ``_is_json_number``), finite."""
    value = data[key]
    if not _is_json_number(value, kind) or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite number"
        raise InstanceFormatError(f"field {key!r} is not {what}: {value!r}")
    return kind(value)


def _array_field(data: dict, key: str) -> np.ndarray:
    """``data[key]`` as a float array whose every entry is a JSON number:
    ``np.asarray(..., dtype=float)`` alone would load true as 1 and "1" as 1."""
    arr = np.asarray(data[key], dtype=object)
    for value in arr.flat:
        if not _is_json_number(value, float):
            raise InstanceFormatError(f"field {key!r} has an entry that is not a number: {value!r}")
    return arr.astype(float)


def instance_from_dict(data: dict) -> BlpInstance:
    for key in ("n", "m", "c", "A", "b"):
        if key not in data:
            raise InstanceFormatError(f"missing field {key!r}")
    n, m = _scalar_field(data, "n", int), _scalar_field(data, "m", int)
    c, A, b = (_array_field(data, key) for key in ("c", "A", "b"))
    if c.shape != (n,):
        raise InstanceFormatError(f"c has {c.size} entries, expected n={n}")
    if A.shape != (m, n):
        raise InstanceFormatError(f"A has shape {A.shape}, expected ({m}, {n})")
    if b.shape != (m,):
        raise InstanceFormatError(f"b has {b.size} entries, expected m={m}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError(f"field 'name' is not a string: {name!r}")
    try:
        instance = BlpInstance(
            c=c,
            A=A,
            b=b,
            name=name,
            kappa=_scalar_field(data, "kappa", float) if "kappa" in data else 1.0,
            optimum=None if data.get("optimum") is None else _scalar_field(data, "optimum", float),
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    # compute_big_m assumes a violated row misses b by at least kappa, which
    # only holds when A and b lie on the kappa grid.
    for key, arr in (("A", instance.A), ("b", instance.b)):
        units = arr / instance.kappa
        if np.any(np.abs(units - np.round(units)) > KAPPA_GRID_TOL):
            raise InstanceFormatError(
                f"{key} has entries that are not integer multiples of kappa={instance.kappa}"
            )
    return instance


def save_instance(instance: BlpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> BlpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    return instance_from_dict(data)
