"""Binary linear programs with equality constraints.

The master problem is ``min { c^T x | Ax = b, x in {0,1}^n }``. This module
holds the instance data model, the big-M penalty used to fold the equality
constraints into the objective, a set-partitioning instance generator with a
planted feasible solution, an exhaustive optimum oracle for small instances,
and JSON file I/O. ``read_json`` is the one reader of JSON files: instance
files here, config files (``cli``) and JSON traces (``metrics``).

It also holds the one rule for what JSON value a record field may take,
``check_value``, read from the field's annotation. Settings
(``engine.SolverConfig``), instance files and trace rows
(``metrics.TraceEvent``) are all checked by it, so each schema is written
once, as dataclass annotations.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

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
    built in memory are not checked. Off the grid a penalized value can fall
    below the optimum, but the tree search bounds and prunes with feasible
    values alone, so its status, value and bounds stay correct. Arrays are
    made read-only so instances can be shared without copies.
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


def compute_big_m(instance: BlpInstance) -> float:
    """Penalty constant ``M = sum_i |c_i| / min(kappa, kappa^2)``.

    A violated constraint has a residual of at least ``kappa``, so an
    infeasible point pays a penalty of at least ``M * kappa^2 >= sum|c|``,
    which is no less than the objective gap between any two binary points.
    No infeasible point then costs less than the feasible optimum. The
    ``kappa^2`` term matters only for ``kappa < 1``; with ``kappa >= 1``
    this is ``sum|c| / kappa``. A zero objective would give M = 0 and a
    vanishing penalty, so ``sum|c|`` is floored at 1.

    Raises ValueError unless ``kappa^2 > 0`` and the largest penalty any
    point can pay is below 2^53:

        M * sum_j (sum_i |A_ji| + |b_j|)^2 < 2^53,

    the range in which a float holds every integer. A larger M swamps the
    costs in the rounding of the energies and of the bound, and the search
    can prune the optimum; a tiny ``kappa`` is the usual cause.
    """
    total = float(np.sum(np.abs(instance.c))) or 1.0
    kappa = instance.kappa
    M = total / min(kappa, kappa * kappa) if kappa * kappa > 0.0 else math.inf
    worst = float(np.sum((np.abs(instance.A).sum(axis=1) + np.abs(instance.b)) ** 2))
    if not M * worst < 2.0**53:
        raise ValueError(
            f"the penalty M * ||Ax - b||^2 can reach 2^53 (M = {M:g} at kappa = {kappa:g}), "
            "beyond a float's exact integers"
        )
    return M


def violations(instance: BlpInstance, X: np.ndarray) -> np.ndarray:
    """Which constraints each row of ``X``, a 0/1 assignment of the
    variables, violates: entry [k, j] is True when
    |(A x_k - b)_j| > FEASIBILITY_TOL. A row is feasible when its row of
    the result is all False."""
    return np.abs(X @ instance.A.T - instance.b) > FEASIBILITY_TOL


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
    z = np.arange(1 << n)
    X = np.empty((z.size, n))
    for i in range(n):  # one column at a time: no 2^n x n integer table
        X[:, i] = (z >> i) & 1
    return X


@dataclass(frozen=True)
class BruteForceResult:
    feasible: bool
    value: float | None
    assignment: np.ndarray | None = field(default=None)
    worst: float | None = None  # cost of the most expensive feasible assignment


def brute_force_optimum(instance: BlpInstance) -> BruteForceResult:
    """Exact optimum, and the worst feasible cost, by enumerating all 2^n
    assignments (n <= 20 guard)."""
    X = enumerate_assignments(instance.n)
    # rows checked at a time: a residual table of all 2^n rows would add m/n
    # of the table's size to the peak (58 MB at n = 20, m = 7)
    block = 1 << 16
    starts = range(0, len(X), block)
    X = X[np.concatenate([~violations(instance, X[s : s + block]).any(axis=1) for s in starts])]
    if not len(X):
        return BruteForceResult(feasible=False, value=None)
    costs = X @ instance.c
    best = X[int(np.argmin(costs))]
    value, worst = float(instance.c @ best), float(np.max(costs))
    return BruteForceResult(feasible=True, value=value, assignment=best.copy(), worst=worst)


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


_KINDS = {"int": int, "float": float, "bool": bool, "str": str}


def value_kind(annotation: str) -> tuple[type, bool]:
    """The type that a record field's annotation, such as ``"float | None"``,
    names (int, float, bool or str) and whether it allows None."""
    kind, _, optional = annotation.partition(" | ")
    return _KINDS[kind], optional == "None"


def check_value(name: str, value, annotation: str) -> None:
    """Raise ValueError unless ``value`` is a JSON value of the type that
    ``annotation`` names (``value_kind``); None only under ``| None``.

    A number is an int for ``int`` (a bool is none, and 1.5 is not
    rounded) and any real for ``float``; either way its float value must
    be finite, as RFC 8259 numbers are, which an integer beyond float range
    is not.
    """
    kind, optional = value_kind(annotation)
    if value is None:
        ok = optional
    elif kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        number = numbers.Integral if kind is int else numbers.Real
        try:
            ok = isinstance(value, number) and not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:
            ok = False
    if not ok:
        raise ValueError(f"{name} must be {annotation}, not {value!r}")


def instance_from_dict(data: dict) -> BlpInstance:
    """The instance a JSON object describes, each value checked by
    ``check_value``: ``n`` and ``m`` as ints, every entry of ``c``, ``A``
    and ``b`` as a float, and ``name``, ``kappa`` and ``optimum`` as
    ``BlpInstance`` annotates them. The arrays must have the shapes ``n``
    and ``m`` give, and A and b must lie on the kappa grid. Any failure
    raises InstanceFormatError."""
    arrays = ("c", "A", "b")
    try:
        for key in ("n", "m", *arrays):
            if key not in data:
                raise ValueError(f"missing field {key!r}")
        for key in ("n", "m"):
            check_value(f"field {key!r}", data[key], "int")
        n, m = data["n"], data["m"]
        entries = [np.asarray(data[key], dtype=object) for key in arrays]
        for key, arr in zip(arrays, entries):
            for value in arr.flat:
                check_value(f"field {key!r} entry", value, "float")
        scalars = {}
        for f in fields(BlpInstance):
            if f.name not in arrays:
                scalars[f.name] = data.get(f.name, f.default)
                check_value(f"field {f.name!r}", scalars[f.name], f.type)
        c, A, b = (arr.astype(float) for arr in entries)
        if c.shape != (n,):
            raise ValueError(f"c has {c.size} entries, expected n={n}")
        if A.shape != (m, n):
            raise ValueError(f"A has shape {A.shape}, expected ({m}, {n})")
        if b.shape != (m,):
            raise ValueError(f"b has {b.size} entries, expected m={m}")
        instance = BlpInstance(c=c, A=A, b=b, **scalars)
        compute_big_m(instance)
        # compute_big_m assumes a violated row misses b by at least kappa,
        # which only holds when A and b lie on the kappa grid.
        for key, arr in (("A", instance.A), ("b", instance.b)):
            units = arr / instance.kappa
            if np.any(np.abs(units - np.round(units)) > KAPPA_GRID_TOL):
                raise ValueError(
                    f"{key} has entries that are not integer multiples of kappa={instance.kappa}"
                )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return instance


def save_instance(instance: BlpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def read_json(path, kind: type):
    """The JSON value in the UTF-8 file at ``path``, which must be of
    ``kind`` (dict or list). Raises ValueError when the file does not decode
    (an integer past Python's 4,300-digit limit included) or holds another
    type; the caller names the file. OSError passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, kind):
        raise ValueError(f"the file must hold a JSON {'object' if kind is dict else 'array'}")
    return data


def load_instance(path) -> BlpInstance:
    """The instance in the JSON file at ``path`` (``instance_from_dict``);
    every InstanceFormatError it raises names the file."""
    try:
        return instance_from_dict(read_json(path, dict))
    except ValueError as exc:
        raise InstanceFormatError(f"instance {path}: {exc}") from exc
