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

The relaxation max sum_(u<v) w_uv (1 - X_uv)/2 over X PSD with unit
diagonal is solved by the primal-dual interior-point method of Helmberg,
Rendl, Vanderbei and Wolkowicz (SIAM J. Optim. 6(2), 1996), whose dual
vector y bounds every cut through ``sdp_upper_bound``. That bound holds for
any y, so it does not rely on the method's stop: a solve cut short only
loosens it. The factor V of the final X feeds hyperplane rounding and the
relaxed spins X[0, i+1] = V[i+1] . V[0], never the bound.

When every objective coefficient is an integer, every objective value lies
on a lattice g*Z (``objective_lattice``), so a bound on the best feasible
objective can be rounded up to that lattice (``round_up_to_lattice``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingModel

# Slack of the infeasibility prune and the lattice rounding (times
# max(1, |x|)) and of the optimality stop; the dominance prune has none.
OPTIMALITY_TOL = 1e-9
# Relative duality gap at which solve_sdp stops, on W scaled to max|W| = 1.
SDP_TOL = 1e-9
# Interior-point steps after which solve_sdp stops short of SDP_TOL.
SDP_MAX_ITERS = 100
# Random hyperplanes per gw_round call.
GW_ROUNDS = 64


@dataclass(frozen=True)
class BoundResult:
    """The certified bound and two readings of the relaxation's final X.

    ``relaxed_spins[i]`` = V[i+1] . V[0] = X[0, i+1], spin i's relaxed value
    in [-1, 1]: near +-1 when the relaxation has decided the spin, near 0
    when it has not. Neither it nor ``side`` enters ``lb_value``.
    """

    lb_value: float  # -2 z_sdp + W
    side: np.ndarray  # best rounded cut, +-1 per vertex, vertex 0 on the + side
    relaxed_spins: np.ndarray  # X[0, i+1] per spin; zeros for the all-zero model


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


def _step_length(M: np.ndarray, dM: np.ndarray) -> float:
    """Step a = 0.8^k, least k < 100, with M + a dM positive definite by
    Cholesky; damped by 0.95 when below 1, and 0 when no k passes."""
    alpha = 1.0
    for _ in range(100):
        try:
            np.linalg.cholesky(M + alpha * dM)
        except np.linalg.LinAlgError:
            alpha *= 0.8
            continue
        return alpha if alpha == 1.0 else 0.95 * alpha
    return 0.0


def solve_sdp(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Primal-dual interior-point solve of the MaxCut relaxation of W
    (symmetric, zero diagonal): max <C, X> over X PSD with diag(X) = 1,
    C = -W/4, and its dual min sum(y) over Z = Diag(y) - C PSD.

    HRVW steps on W / max|W|, so no tolerance depends on the weights' scale,
    from X = I and a y that makes Z diagonally dominant: solve
    (Z^-1 o X) dy = mu diag(Z^-1) - 1, set dX = mu Z^-1 - X - Z^-1 Diag(dy) X
    (symmetrized) and move by the ``_step_length``s that keep X and Z
    positive definite. It stops at a duality gap <X, Z> <= SDP_TOL *
    max(1, |sum y|), at a zero step length, or after SDP_MAX_ITERS steps.

    Returns (V, y): y in W's scale, which ``sdp_upper_bound`` certifies as
    >= max cut - 1e-9 * max(1, |max cut|) whatever the stop, and the
    unit-row factor V of the last X (eigenvalues clipped at 0), for rounding.
    """
    n = W.shape[0]
    if not W.any():
        return np.eye(n), np.zeros(n)
    scale = float(np.abs(W).max())
    C = (-0.25 / scale) * W
    X = np.eye(n)
    y = np.abs(C).sum(axis=1) + 1.0
    Z = np.diag(y) - C
    shrink = 1.0
    for _ in range(SDP_MAX_ITERS):
        gap = float(np.vdot(X, Z))
        if gap <= SDP_TOL * max(1.0, abs(float(y.sum()))):
            break
        mu = shrink * gap / (2 * n)
        Zi = np.linalg.inv(Z)
        dy = np.linalg.solve(Zi * X, mu * np.diag(Zi) - 1.0)
        dX = mu * Zi - X - Zi @ (dy[:, None] * X)
        dX = 0.5 * (dX + dX.T)
        dZ = np.diag(dy)
        alpha_p, alpha_d = _step_length(X, dX), _step_length(Z, dZ)
        if alpha_p == 0.0 or alpha_d == 0.0:
            break
        X += alpha_p * dX
        y += alpha_d * dy
        Z += alpha_d * dZ
        # Long steps mean the central path is easy to follow: aim lower.
        steps = alpha_p + alpha_d
        shrink = 0.1 if steps > 1.9 else 0.5 if steps > 1.6 else 1.0
    lam, U = np.linalg.eigh(X)
    V = U * np.sqrt(np.clip(lam, 0.0, None))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return V, scale * y


def sdp_upper_bound(y: np.ndarray, W: np.ndarray) -> float:
    """Certified upper bound on the maximum cut of W from any dual vector y.

    A cut is a feasible X with tr(X) = n, and its value is sum(W)/4 + sum(y)
    - <Z, X> for Z = W/4 + Diag(y), where <Z, X> >= n * min(lambda_min(Z), 0).
    Only this eigenvalue shift carries soundness, never the solver's stop or
    its last Z: for every y the bound is >= max cut - 1e-9 * max(1, |max cut|),
    the slack being ``eigvalsh``'s rounding.
    """
    lam_min = float(np.linalg.eigvalsh(0.25 * W + np.diag(y))[0])
    return 0.25 * float(W.sum()) + float(y.sum()) - W.shape[0] * min(lam_min, 0.0)


def gw_round(V: np.ndarray, W: np.ndarray, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Best cut over GW_ROUNDS random hyperplanes drawn with ``rng``, all at
    once (the first best round wins ties); the returned side vector has
    vertex 0 on the + side.

    A side vector s cuts sum_(u<v) W_uv (1 - s_u s_v)/2 = (sum(W) - s^T W s)/4.
    """
    H = rng.normal(size=(GW_ROUNDS, V.shape[1]))
    sides = np.where(H @ V.T >= 0.0, 1, -1)
    values = 0.25 * (float(W.sum()) - np.sum((sides @ W) * sides, axis=1))
    best = int(np.argmax(values))
    best_side = sides[best] if sides[best, 0] > 0 else -sides[best]
    return float(values[best]), best_side


def lower_bound(model: IsingModel, rng: np.random.Generator) -> BoundResult:
    """Lower bound -2 z_sdp + W on the constant-free ground-state energy.

    z_sdp >= z* is the certified relaxation value, so the bound holds for
    every configuration. The result also carries the best hyperplane-rounded
    side of the relaxation, drawn with ``rng``: ``side[1:]`` is a spin
    configuration of the model (all +1 when no coefficient is nonzero); and
    each spin's relaxed value ``V[1:] @ V[0]``.
    """
    W = ising_to_maxcut(model)
    n = model.n_spins
    if not W.any():
        return BoundResult(lb_value=0.0, side=np.ones(n + 1, dtype=int), relaxed_spins=np.zeros(n))
    V, y = solve_sdp(W)
    z_sdp = sdp_upper_bound(y, W)
    _, side = gw_round(V, W, rng)
    return BoundResult(
        lb_value=-2.0 * z_sdp + 0.5 * float(W.sum()), side=side, relaxed_spins=V[1:] @ V[0]
    )


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
