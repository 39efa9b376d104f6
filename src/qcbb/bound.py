"""Classical lower bounds on Ising ground-state energies via MaxCut.

A pairwise spin model maps to a symmetric weight matrix over the spins plus
a field vertex 0: entry (i+1, j+1) holds the coupling on sigma_i*sigma_j and
entry (0, i+1) the field on sigma_i. With vertex 0 pinned to the +1 side,
the constant-free energy of any configuration is W - 2*g(S) for the cut S it
induces, where W is the total weight, each vertex pair counted once, hence

    min_sigma E(sigma) = -2 z* + W

for the maximum cut value z*. The bound is -2 z_sdp + W for a certified
relaxation value z_sdp >= z*. Goemans-Williamson hyperplane rounding of the
same relaxation gives a cut whose side vector is a spin configuration; it is
returned as a primal point (a candidate solution), never as part of the bound.

The relaxation max sum_(u<v) w_uv (1 - <V_u, V_v>)/2 over unit rows V_u is
solved on a low-rank Burer-Monteiro factor V by row-wise exact coordinate
ascent (the mixing method): each row in turn is set to the unit vector that
maximises the objective with the other rows held, so the objective never
decreases. Sweeps stop when one gains at most SDP_TOL * max(1, |f|), or
after ``solve_sdp``'s ``max_iters`` sweeps. The bound does not rely on that
stop: ``sdp_upper_bound`` turns any unit-row V into a certified
z_sdp >= z* through an eigenvalue shift, so an unconverged ascent only
loosens the bound.

When every objective coefficient is an integer, every objective value lies
on a lattice g*Z (``objective_lattice``), so a bound on the best feasible
objective can be rounded up to that lattice (``round_up_to_lattice``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingModel

# Relative slack of the bound-based prunes and of the optimality stop.
OPTIMALITY_TOL = 1e-9
# The SDP ascent stops once a sweep gains at most SDP_TOL * max(1, |f|).
SDP_TOL = 1e-8


@dataclass(frozen=True)
class BoundResult:
    lb_value: float  # -2 z_sdp + W
    side: np.ndarray  # best rounded cut, +-1 per vertex, vertex 0 on the + side


def ising_to_maxcut(model: IsingModel) -> np.ndarray:
    """Symmetric (n+1) x (n+1) weight matrix W whose maximum cut z*
    satisfies min E (constant excluded) = -2 z* + sum(W)/2.

    The weights are the energy coefficients themselves: couplings between
    spin vertices 1..n, fields on row and column 0. The diagonal is zero.
    """
    n = model.n_spins
    W = np.zeros((n + 1, n + 1))
    W[0, 1:] = model.fields
    W[1:, 1:] = model.couplings
    return W + W.T


def default_rank(n_vertices: int) -> int:
    return max(2, math.ceil(math.sqrt(2 * n_vertices)))


def solve_sdp(
    W: np.ndarray, max_iters: int = 2000, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, float]:
    """Low-rank ascent of f(V) = sum_(u<v) W_uv (1 - <V_u, V_v>)/2 over unit rows
    of V (``default_rank`` columns), for a symmetric weight matrix W with
    zero diagonal.

    Row-wise exact coordinate ascent (the mixing method of Wang, Chang and
    Kolter, 2017). With the other rows held, f depends on row i only through
    -<V_i, g>/2 with g = W[i] @ V, so V_i = -g/|g| maximises it over the
    unit sphere; a row with g = 0 keeps its vector. Every update is therefore
    a maximiser over its row and f never decreases. A sweep updates every row
    in order; the ascent stops after ``max_iters`` sweeps or once a sweep
    gains at most SDP_TOL * max(1, |f|). Returns the last factor and its f.
    Soundness does not need the stop to be reached: ``sdp_upper_bound``
    certifies an upper bound on the maximum cut from any unit-row factor.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = W.shape[0]
    V = rng.normal(size=(n, default_rank(n)))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    if not W.any():
        return V, 0.0
    total = float(W.sum())  # twice the total weight: W is symmetric

    def objective(V):
        return 0.25 * (total - float(np.sum((W @ V) * V)))

    f = objective(V)
    rows = list(zip(W, V))  # v_i is a view, so each update writes V in place
    for _ in range(max_iters):
        for w_i, v_i in rows:
            g = np.dot(w_i, V)
            norm = math.sqrt(np.dot(g, g))
            if norm > 0.0:
                np.divide(g, -norm, out=v_i)
        f_prev, f = f, objective(V)
        if f - f_prev <= SDP_TOL * max(1.0, abs(f)):
            break
    return V, f


def sdp_upper_bound(V: np.ndarray, W: np.ndarray) -> float:
    """Certified upper bound on the maximum cut from a low-rank factor.

    For any y with diag(y) + W/4 PSD, every cut value is at most
    sum(W)/4 + sum(y). The dual guess y_i = -(W V)_i . V_i / 4 is exact at a
    stationary factor; an eigenvalue shift repairs any PSD violation, so the
    bound holds whether or not the ascent converged.
    """
    if not W.any():
        return 0.0
    y = -0.25 * np.sum((W @ V) * V, axis=1)
    lam_min = float(np.linalg.eigvalsh(0.25 * W + np.diag(y))[0])
    return 0.25 * float(W.sum()) + float(y.sum()) - W.shape[0] * min(lam_min, 0.0)


def gw_round(
    V: np.ndarray,
    W: np.ndarray,
    rounds: int = 64,
    rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray]:
    """Best cut over random hyperplanes, all rounds at once (the first best
    round wins ties); the returned side vector has vertex 0 on the + side.

    A side vector s cuts sum_(u<v) W_uv (1 - s_u s_v)/2 = (sum(W) - s^T W s)/4.
    """
    if rounds < 1:
        raise ValueError("need at least one rounding round")
    if rng is None:
        rng = np.random.default_rng(0)
    H = rng.normal(size=(rounds, V.shape[1]))
    sides = np.where(H @ V.T >= 0.0, 1, -1)
    values = 0.25 * (float(W.sum()) - np.sum((sides @ W) * sides, axis=1))
    best = int(np.argmax(values))
    best_side = sides[best] if sides[best, 0] > 0 else -sides[best]
    return float(values[best]), best_side


def lower_bound(model: IsingModel, rng: np.random.Generator | None = None) -> BoundResult:
    """Lower bound -2 z_sdp + W on the constant-free ground-state energy.

    z_sdp >= z* is the certified relaxation value, so the bound holds for
    every configuration. The result also carries the best hyperplane-rounded
    side of the same factor: ``side[1:]`` is a spin configuration of the
    model (an all-+1 side when the model has no nonzero coefficient).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    W = ising_to_maxcut(model)
    if not W.any():
        return BoundResult(lb_value=0.0, side=np.ones(W.shape[0], dtype=int))
    V, _ = solve_sdp(W, rng=rng)
    z_sdp = sdp_upper_bound(V, W)
    _, side = gw_round(V, W, rng=rng)
    return BoundResult(lb_value=-2.0 * z_sdp + 0.5 * float(W.sum()), side=side)


def feasible_ceiling(c: np.ndarray, fixings: dict[int, int]) -> float:
    """Most any feasible completion of ``fixings`` can cost.

    T = sum_{i fixed} c_i x_i + sum_{i free} max(c_i, 0), the objective of
    the completion that sets exactly the positive-cost free variables.
    """
    return float(
        sum(c[i] * v for i, v in fixings.items())
        + sum(max(ci, 0.0) for i, ci in enumerate(c) if i not in fixings)
    )


def infeasible_by_bound(lb_value: float, ceiling: float) -> bool:
    """True when the bound proves the subproblem infeasible: lb > T + tol.

    ``lb_value`` bounds the penalized cost of every completion from below,
    and a feasible completion's penalized cost is its objective, at most the
    ceiling T (``feasible_ceiling``). So lb > T rules every feasible
    completion out, whatever the penalty M. The slack
    tol = OPTIMALITY_TOL * max(1, |T|) absorbs rounding in lb; lb == T is
    never a proof.
    """
    return lb_value > ceiling + OPTIMALITY_TOL * max(1.0, abs(ceiling))


def objective_lattice(c: np.ndarray) -> float | None:
    """Spacing g of a lattice g*Z holding every objective value c @ x, x binary.

    g = gcd(c) when every c_i is an integer with |c_i| < 2^53, the range in
    which a float holds an integer exactly; all-zero costs give g = 1. Any
    other costs give None: there is no lattice to round to.
    """
    if not all(float(ci).is_integer() and abs(ci) < 2.0**53 for ci in c):
        return None
    return float(math.gcd(*(int(ci) for ci in c)) or 1)


def round_up_to_lattice(lb_value: float, lattice: float | None) -> float:
    """max(lb, g * ceil((lb - tol) / g)) for ``lattice`` g; lb when None.

    Valid for a bound lb on the best *feasible* objective: that objective
    lies on the lattice, so it is at least the least lattice point at or
    above lb - tol. The slack tol = OPTIMALITY_TOL * max(1, |lb|), the
    prunes' own, keeps a bound that float error pushed just above a lattice
    point from skipping to the next one.
    """
    if lattice is None:
        return lb_value
    tol = OPTIMALITY_TOL * max(1.0, abs(lb_value))
    return max(lb_value, lattice * math.ceil((lb_value - tol) / lattice))
