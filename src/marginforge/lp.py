"""Dense simplex kernel and the edge-min / soft-margin LP pair built on it.

The kernel ``_simplex_min`` is a primal simplex for ``min c @ x,
A x = b, 0 <= x <= u`` (upper bounds handled implicitly, every one
positive) that starts from a feasible basis its caller supplies: it has
no phase 1, because both LPs ``solve_edge_min`` writes have a feasible
basis known in closed form (a crash basis).  Pricing is
most-negative-reduced-cost but falls back to Bland's rule whenever the
objective stalls, so the solver cannot cycle and stays deterministic.
The kernel inverts its starting basis once and keeps the inverse by
product-form (rank-one) updates at every basis change, re-inverting
from scratch every ``_REFACTOR_INTERVAL`` changes to bound the drift;
the basic solution and duals it returns come from fresh solves.  A
variable's bound state is its nonbasic value alone: ``x_nb`` holds u at
an upper-bound nonbasic and 0 elsewhere.  The pivot loop also carries
one pricing sign per variable, the basis's costs, upper bounds and
finite-bound mask, and ``b - A @ x_nb`` and the reduced costs for as
long as the pivots leave them unchanged.  Its pivots and outputs equal
bit for bit those of the reference kernel in ``tests/conftest.py``,
which rebuilds all of these at every pivot.  ``solve_edge_min`` is the
one entry point above it: it checks ``nu``, merges identical instance
rows, builds the start basis of the form it solves, solves the
restricted edge-min / soft-margin pair over the distinct rows, and
certifies strong duality on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    LP_PIVOT_TOL,
    LP_PROGRESS_TOL,
    LP_RATIO_TOL,
    LP_TIE_TOL,
    STRONG_DUALITY_TOL,
)
from .core import GainMatrix, check_distribution, check_ensemble_weights
from .entropy import capped_min_linear

_STALL_LIMIT = 32  # degenerate pivots tolerated before switching to Bland
_REFACTOR_INTERVAL = 32  # basis changes between fresh inversions of the basis
_MAX_PIVOTS = 200_000


class LpError(Exception):
    pass


class LpUnboundedError(LpError):
    def __init__(self, direction):
        super().__init__("LP is unbounded")
        self.direction = direction


def _solve_max(objective, con, upper, basis, x_nb):
    """maximize objective @ x subject to con[:-1] @ x <= 0, con[-1] @ x = 1,
    0 <= x[:-1] <= upper and x[-1] free; returns (x, value, row duals).

    The kernel's columns are con's, the mirror x- of the free variable
    x[-1] = x+ - x-, then one slack per inequality row; that order sets
    the pivoting tie-breaks, so it is part of the result.  ``basis`` and
    ``x_nb`` are a feasible start over those columns (see
    ``_simplex_min``).  Duals are for the maximisation sense:
    nonnegative on binding inequality rows.
    """
    r, n = con.shape
    kernel = np.hstack([con, -con[:, -1:], np.eye(r, r - 1)])
    cost = np.concatenate([-objective, objective[-1:], np.zeros(r - 1)])
    bounds = np.concatenate([upper, np.full(r + 1, math.inf)])
    rhs = np.append(np.zeros(r - 1), 1.0)

    x_full, y = _simplex_min(kernel, rhs, cost, bounds, basis, x_nb)
    x = np.zeros(n) + x_full[:n]  # + 0.0 turns a clipped -0.0 into 0.0
    x[-1] -= x_full[n]
    return x, float(objective @ x), -y


def _simplex_min(A, b, c, upper, basis, x_nb):
    """minimize c@x st A@x = b, 0 <= x <= upper.  Returns (x, duals).

    Starts from the feasible basis ``basis`` (one column index per row)
    with the nonbasic values ``x_nb`` (upper at an upper-bound nonbasic,
    0 elsewhere and on the basis); neither argument is modified.
    """
    basis, x_nb = basis.copy(), x_nb.copy()
    _iterate(A, b, c, upper, basis, x_nb)
    x = x_nb
    x[basis] = np.linalg.solve(A[:, basis], b - A @ x_nb)
    y = np.linalg.solve(A[:, basis].T, c[basis])
    return np.clip(x, 0.0, upper), y


def _iterate(A, b, c, u, basis, x_nb):
    """Pivot from a feasible basis until pricing finds no improving column.

    ``basis`` and the nonbasic values ``x_nb`` (u at upper-bound
    nonbasics, 0 elsewhere and on the basis) are updated in place.  Every
    upper bound is positive, so a nonbasic can always move: it has
    pricing sign -1 at its upper bound (``x_nb > 0``) and +1 at its lower
    bound, and a basic variable has 0.  A column is eligible when
    ``red * sign < -LP_PIVOT_TOL``, and Dantzig's column is the first
    argmin.  The signs and the basis's costs, upper bounds and
    finite-bound mask are carried from pivot to pivot.  ``b - A @ x_nb``
    is formed again only after ``x_nb`` changes, and the reduced costs
    only after the basis does; a bound flip keeps them.  Reduced costs
    are assumed finite: a NaN would win the argmin.
    """
    r, n = A.shape
    bland = False
    stall = 0
    last_obj = math.inf
    Binv = np.linalg.inv(A[:, basis])
    pivots = 0  # basis changes since Binv was last inverted from scratch
    sign = np.where(x_nb > 0.0, -1.0, 1.0)
    sign[basis] = 0.0
    c_B = c[basis]
    u_B = u[basis]
    finite_B = np.isfinite(u_B)
    ratios = np.empty(r)
    room = np.empty(r)  # u_B - x_B on the rows that can reach their upper bound
    rhs = red = None  # b - A @ x_nb and the reduced costs, while still current

    for _ in range(_MAX_PIVOTS):
        if rhs is None:
            rhs = b - A @ x_nb
        x_B = Binv @ rhs
        if red is None:
            y = c_B @ Binv
            red = c - y @ A

        score = red * sign
        if bland:
            eligible = score < -LP_PIVOT_TOL
            j = int(eligible.argmax())
            if not eligible[j]:
                return
        else:
            j = int(score.argmin())  # the first of the largest |red|
            if not score[j] < -LP_PIVOT_TOL:
                return

        x = x_nb.copy()
        x[basis] = x_B
        obj = float(c @ x)
        if obj < last_obj - LP_PROGRESS_TOL:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        last_obj = min(last_obj, obj)

        alpha = Binv @ A[:, j]
        increasing = sign[j] > 0.0
        step = alpha if increasing else -alpha  # basic vars move by -step * theta

        to_lower = step > LP_RATIO_TOL
        to_upper = step < -LP_RATIO_TOL
        to_upper &= finite_B
        ratios.fill(math.inf)
        np.divide(x_B, step, out=ratios, where=to_lower)
        np.subtract(u_B, x_B, out=room, where=to_upper)
        np.divide(room, -step, out=ratios, where=to_upper)
        np.maximum(ratios, 0.0, out=ratios)  # absorb tiny feasibility drift
        theta_basic = float(ratios[ratios.argmin()]) if r else math.inf
        tie_bound = theta_basic + LP_TIE_TOL

        u_j = u[j]
        if u_j <= tie_bound:
            if math.isinf(u_j):
                direction = np.zeros(n)
                direction[j] = 1.0 if increasing else -1.0
                direction[basis] = -step
                raise LpUnboundedError(direction=direction)
            # entering variable flips to its other bound, basis unchanged
            x_nb[j] = u_j if increasing else 0.0
            sign[j] = -sign[j]
            rhs = None
            continue

        # Bland: among the minimal ratios, evict the lowest variable index; a
        # ratio only ties if its row would end within LP_TIE_TOL of its bound,
        # so a long step cannot push the true blocking row past its own
        tied = (ratios <= tie_bound).nonzero()[0]
        if tied.size > 1:
            tied = tied[(ratios[tied] - theta_basic) * abs(step[tied]) <= LP_TIE_TOL]
        leave_pos = int(tied[basis[tied].argmin()])
        out = int(basis[leave_pos])
        # j enters at leave_pos and out leaves to the bound it reached
        basis[leave_pos] = j
        if not increasing:
            x_nb[j] = 0.0
            rhs = None
        sign[j] = 0.0
        c_B[leave_pos] = c[j]
        u_B[leave_pos] = u_j
        finite_B[leave_pos] = math.isfinite(u_j)
        if to_lower[leave_pos]:
            sign[out] = 1.0
        else:
            x_nb[out] = u[out]
            sign[out] = -1.0
            rhs = None
        red = None

        pivots += 1
        if pivots == _REFACTOR_INTERVAL:
            Binv = np.linalg.inv(A[:, basis])
            pivots = 0
        else:
            # product-form update: the new inverse is E @ Binv, where the
            # eta matrix E turns alpha into the leave_pos unit vector
            pivot_row = Binv[leave_pos] / alpha[leave_pos]
            Binv -= alpha[:, None] * pivot_row
            Binv[leave_pos] = pivot_row

    raise LpError("pivot limit exceeded")


@dataclass
class EdgeMinSolution:
    """Paired optima of the restricted edge-min LP and its soft-margin dual."""

    d: np.ndarray
    gamma: float
    w: np.ndarray
    rho: float

    def __post_init__(self):
        if abs(self.gamma - self.rho) > STRONG_DUALITY_TOL:
            raise LpError(
                f"strong duality violated: gamma={self.gamma!r} rho={self.rho!r}"
            )


def solve_edge_min(A: GainMatrix, nu: float) -> EdgeMinSolution:
    """Minimise the worst edge over the capped simplex, restricted to A.

    Returns the distribution minimising ``max_k (d @ A)_k``, the optimal
    value gamma, and the dual hypothesis weights w whose soft-margin
    value rho certifies optimality (|gamma - rho| <= STRONG_DUALITY_TOL).

    Identical instance rows of A are merged first: the k distinct rows,
    with multiplicities n_g, carry one aggregate weight D_g in
    ``[0, n_g/nu]`` (edge-min form) or one slack of cost ``n_g/nu``
    (soft-margin form), and every instance of row g gets
    ``d_i = D_g / n_g``.  The reduction is exact, and duplicated rows
    get equal weight.  Whichever form has fewer rows is handed to the
    solver: the edge-min form has t+1 rows (caps live in variable
    bounds), the soft-margin form k+1, and each starts the simplex from
    its own feasible basis, a function of (A, nu) alone.  rho and gamma
    are evaluated on the full matrix.  A solved LP whose cleaned-up d or
    w fails its membership check is an ``LpError``.  ``nu`` outside
    ``[1, m]``, NaN included, is a ValueError before any LP is built.
    """
    if not 1.0 <= nu <= A.m:
        raise ValueError(f"nu must lie in [1, m]; got {nu}")
    t = A.t
    G = A.as_array()
    cap = 1.0 / nu
    rows, group, counts = _distinct_rows(G)
    k = rows.shape[0]

    if t <= k:
        # variables (D_1..D_k, g): maximize -g
        # rows: column edges <= g; sum(D) = 1
        con = np.zeros((t + 1, k + 1))
        con[:t, :k] = rows.T
        con[:t, k] = -1.0
        con[t, :k] = 1.0
        # start: fill D_1, D_2, ... to their caps; the D that completes the
        # sum is basic (the caps sum to m/nu >= 1, but at nu = m their float
        # sum can end just short of 1), g+ or its mirror g- is basic at the
        # largest edge, and so is every slack but the one on that edge's row
        upper = counts * cap
        f = min(int(np.searchsorted(np.cumsum(upper), 1.0)), k - 1)
        x_nb = np.zeros(k + 2 + t)
        x_nb[:f] = upper[:f]
        edges = x_nb[:k] @ rows + (1.0 - upper[:f].sum()) * rows[f]
        top = int(edges.argmax())
        slacks = np.delete(np.arange(k + 2, k + 2 + t), top)
        basis = np.concatenate([[f, k if edges[top] >= 0.0 else k + 1], slacks])
        x, value, duals = _solve_max(np.concatenate([np.zeros(k), [-1.0]]), con, upper, basis, x_nb)
        d = _cleanup_distribution((x[:k] / counts)[group], cap)
        gamma = -value
        w = _cleanup_weights(duals[:t])
        rho, _ = capped_min_linear(G @ w, nu)
    else:
        # variables (w_1..w_t, xi_1..xi_k, r): maximize r - sum(n_g xi_g)/nu
        # rows: r - xi_g - (rows w)_g <= 0; sum(w) = 1
        con = np.zeros((k + 1, t + k + 1))
        con[:k, :t] = -rows
        con[:k, t : t + k] = -np.eye(k)
        con[:k, t + k] = 1.0
        con[k, :t] = 1.0
        # start: w_1 = 1 is basic, r+ or its mirror r- is basic at column 1's
        # smallest margin, and so is every slack but the one on that margin's row
        low = int(rows[:, 0].argmin())
        slacks = np.delete(np.arange(t + k + 2, t + 2 * k + 2), low)
        basis = np.concatenate([[0, t + k if rows[low, 0] >= 0.0 else t + k + 1], slacks])
        objective = np.concatenate([np.zeros(t), -counts * cap, [1.0]])
        upper, x_nb = np.full(t + k, math.inf), np.zeros(t + 2 * k + 2)
        x, value, duals = _solve_max(objective, con, upper, basis, x_nb)
        rho = value
        w = _cleanup_weights(x[:t])
        d = _cleanup_distribution((duals[:k] / counts)[group], cap)
        gamma = float(np.max(d @ G))

    try:
        check_distribution(d, nu)
        check_ensemble_weights(w, A)
    except ValueError as exc:  # the cleaned-up optimum left its set: a failed solve
        raise LpError(str(exc)) from exc
    return EdgeMinSolution(d=d, gamma=gamma, w=w, rho=rho)


def _distinct_rows(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of G in lexicographic order, each row's group, group sizes.

    The triple ``np.unique(G, axis=0, return_inverse=True,
    return_counts=True)`` returns, from one stable lexsort of the
    columns.  Rows that differ only in the sign of a zero are one row,
    kept as its first occurrence.
    """
    m = G.shape[0]
    order = np.lexsort(G.T[::-1])
    ranked = G[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rank = first.cumsum() - 1
    group = np.empty(m, dtype=np.intp)
    group[order] = rank
    return ranked[first], group, np.bincount(rank)


# Pricing accepts reduced costs up to LP_PIVOT_TOL on the wrong side, so LP
# values within LP_PIVOT_TOL below zero are rounding, not infeasibility.
def _cleanup_distribution(raw: np.ndarray, cap: float) -> np.ndarray:
    if np.any(raw < -LP_PIVOT_TOL):
        raise LpError(f"distribution weight below -{LP_PIVOT_TOL}: {raw.min()}")
    d = np.clip(raw, 0.0, cap)
    total = d.sum()
    if total <= 0.0:
        raise LpError("degenerate zero distribution")
    return d / total


def _cleanup_weights(raw: np.ndarray) -> np.ndarray:
    if np.any(raw < -LP_PIVOT_TOL):
        raise LpError(f"dual weight below -{LP_PIVOT_TOL}: {raw.min()}")
    clipped = np.where(raw > LP_PIVOT_TOL, raw, 0.0)
    total = clipped.sum()
    if total <= 0.0:
        raise LpError("degenerate zero weight vector")
    return clipped / total
