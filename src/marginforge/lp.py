"""Dense simplex kernel and the edge-min LP built on it.

The kernel ``_simplex_min`` is a primal simplex for ``min c @ x,
A x = b, 0 <= x <= u`` (upper bounds handled implicitly, every one
positive) that starts from a feasible basis its caller supplies: it has
no phase 1, because the LP ``solve_edge_min`` writes has a feasible
basis known in closed form (a crash basis).  Pricing is
most-negative-reduced-cost but falls back to Bland's rule whenever the
objective stalls, so the solver cannot cycle and stays deterministic.
The kernel inverts its starting basis once and keeps the inverse by
product-form (rank-one) updates at every basis change, re-inverting
from scratch every ``_REFACTOR_INTERVAL`` changes to bound the drift;
the basic solution and duals it returns come from fresh solves.  A
variable's bound state is its nonbasic value alone: ``x_nb`` holds u at
an upper-bound nonbasic and 0 elsewhere.  The pivot loop also carries
one pricing sign per variable, the basis's costs and upper bounds,
and ``b - A @ x_nb`` and the reduced costs for as long as the pivots
leave them unchanged.  Its pivots and outputs equal bit for bit those
of the reference kernel in ``tests/conftest.py``, which rebuilds all of
these at every pivot.

``_dual_iterate`` is the dual simplex that column generation restarts
from: given a dual-feasible basis whose basic values leave their
bounds, it pivots the worst violation out until the basis is primal
feasible, and the primal pivots then finish from its inverse.  Both
loops change the basis through one exchange and one inverse update.

``solve_edge_min`` is the one entry point above the kernels: it checks
``nu``, merges identical instance rows, solves the restricted edge-min
LP over the distinct rows, reads the soft-margin weights from its
duals, and certifies strong duality on every call.  Given the final
basis of an earlier solve as ``start`` it carries that basis over to
the grown matrix and warm-starts by the dual simplex; without one it
solves from the crash basis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    LP_FEAS_TOL,
    LP_PIVOT_TOL,
    LP_PROGRESS_TOL,
    LP_RATIO_TOL,
    LP_TIE_TOL,
    STRONG_DUALITY_TOL,
)
from .core import GainMatrix, check_distribution, check_ensemble_weights
from .entropy import capped_min_linear

logger = logging.getLogger(__name__)

_STALL_LIMIT = 32  # degenerate pivots tolerated before switching to Bland
_REFACTOR_INTERVAL = 32  # basis changes between fresh inversions of the basis
_MAX_PIVOTS = 200_000


class LpError(Exception):
    pass


class LpUnboundedError(LpError):
    def __init__(self, direction):
        super().__init__("LP is unbounded")
        self.direction = direction


def _solve_max(objective, con, upper, basis, x_nb, dual_start=False):
    """maximize objective @ x subject to con[:-1] @ x <= 0, con[-1] @ x = 1,
    0 <= x[:-1] <= upper and x[-1] free; returns (x, value, row duals).

    The kernel's columns are con's, the mirror x- of the free variable
    x[-1] = x+ - x-, then one slack per inequality row; that order sets
    the pivoting tie-breaks, so it is part of the result.  ``basis`` and
    ``x_nb`` are a start over those columns, feasible (see
    ``_simplex_min``) or, with ``dual_start``, dual feasible (see
    ``_dual_iterate``); they are updated in place to the final basis.
    Duals are for the maximisation sense: nonnegative on binding
    inequality rows.
    """
    r, n = con.shape
    kernel = np.hstack([con, -con[:, -1:], np.eye(r, r - 1)])
    cost = np.concatenate([-objective, objective[-1:], np.zeros(r - 1)])
    bounds = np.concatenate([upper, np.full(r + 1, math.inf)])
    rhs = np.append(np.zeros(r - 1), 1.0)

    x_full, y = _optimum(kernel, rhs, cost, bounds, basis, x_nb, dual_start)
    x = np.zeros(n) + x_full[:n]  # + 0.0 turns a clipped -0.0 into 0.0
    x[-1] -= x_full[n]
    return x, float(objective @ x), -y


def _simplex_min(A, b, c, upper, basis, x_nb):
    """minimize c@x st A@x = b, 0 <= x <= upper.  Returns (x, duals).

    Starts from the feasible basis ``basis`` (one column index per row)
    with the nonbasic values ``x_nb`` (upper at an upper-bound nonbasic,
    0 elsewhere and on the basis); neither argument is modified.
    """
    return _optimum(A, b, c, upper, basis.copy(), x_nb.copy())


def _optimum(A, b, c, upper, basis, x_nb, dual_start=False):
    """``_simplex_min`` with ``basis`` and ``x_nb`` updated in place.

    A dual-feasible start is first made primal feasible by
    ``_dual_iterate``, and the primal pivots run on from the inverse it
    ends with; they stop at once where pricing finds no improving column.
    The basic solution and duals come from fresh solves.
    """
    Binv = _dual_iterate(A, b, c, upper, basis, x_nb) if dual_start else None
    _iterate(A, b, c, upper, basis, x_nb, Binv)
    x = x_nb.copy()
    x[basis] = np.linalg.solve(A[:, basis], b - A @ x_nb)
    y = np.linalg.solve(A[:, basis].T, c[basis])
    return np.clip(x, 0.0, upper), y


def _iterate(A, b, c, u, basis, x_nb, Binv=None):
    """Pivot from a feasible basis until pricing finds no improving column.

    ``basis`` and the nonbasic values ``x_nb`` (u at upper-bound
    nonbasics, 0 elsewhere and on the basis) are updated in place;
    ``Binv``, if given, is the inverse of the starting basis matrix.
    Every upper bound is positive, so a nonbasic can always move: it has
    pricing sign -1 at its upper bound (``x_nb > 0``) and +1 at its lower
    bound, and a basic variable has 0.  A column is eligible when
    ``red * sign < -LP_PIVOT_TOL``, and Dantzig's column is the first
    argmin.  The signs and the basis's costs and upper bounds are
    carried from pivot to pivot; a basic variable with an infinite upper
    bound gets an infinite room and ratio, so it never leaves toward it.
    ``b - A @ x_nb`` is formed again only after ``x_nb`` changes, and the
    reduced costs only after the basis does; a bound flip keeps them.
    Reduced costs are assumed finite: a NaN would win the argmin.
    """
    r, n = A.shape
    bland = False
    stall = 0
    last_obj = math.inf
    if Binv is None:
        Binv = np.linalg.inv(A[:, basis])
    pivots = 0  # basis changes since Binv was last inverted from scratch
    sign = _pricing_signs(basis, x_nb)
    c_B = c[basis]
    u_B = u[basis]
    ratios = np.empty(r)
    room = np.empty(r)  # u_B - x_B on the rows that move toward their upper bound
    rhs = red = None  # b - A @ x_nb and the reduced costs, while still current

    for _ in range(_MAX_PIVOTS):
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

        if rhs is None:
            rhs = b - A @ x_nb
        x_B = Binv @ rhs
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
        _exchange(basis, x_nb, sign, c_B, u_B, c, u, leave_pos, j, not to_lower[leave_pos])
        if not (increasing and to_lower[leave_pos]):
            rhs = None  # j left its upper bound or the leaving column went to its own
        red = None
        Binv, pivots = _updated_inverse(Binv, alpha, leave_pos, pivots, A, basis)

    raise LpError("pivot limit exceeded")


def _dual_iterate(A, b, c, u, basis, x_nb):
    """Dual simplex from a dual-feasible basis until it is primal feasible.

    The start has the primal kernel's form (``basis`` and ``x_nb`` as in
    ``_iterate``, both updated in place) and reduced costs of the sign
    its bounds need, up to pricing's tolerance, but basic values that
    may leave their bounds.  Each pivot evicts the basic variable of
    largest bound violation to the bound it violates; the entering
    column is the first minimum of |red / alpha| over the nonbasics
    whose move toward their other bound pushes that row back, with
    |alpha| above ``LP_RATIO_TOL``, so the reduced costs keep their
    signs.  Stops once every basic value lies within ``LP_FEAS_TOL`` of
    its bounds and returns the basis inverse; no eligible column means
    the LP is infeasible, an ``LpError``.  The loop has no anti-cycling
    rule, so it stops after ``4 r + 16`` pivots for r rows with the
    primal loop's ``LpError``, and the caller solves cold.
    """
    Binv = np.linalg.inv(A[:, basis])
    pivots = 0  # basis changes since Binv was last inverted from scratch
    sign = _pricing_signs(basis, x_nb)
    c_B = c[basis]
    u_B = u[basis]

    for _ in range(4 * A.shape[0] + 16):
        x_B = Binv @ (b - A @ x_nb)
        below = -x_B
        above = x_B - u_B
        violation = np.maximum(below, above)
        p = int(violation.argmax())
        worst = float(violation[p])
        if math.isnan(worst):
            raise LpError("basic values are not finite")
        if not worst > LP_FEAS_TOL:
            return Binv
        to_upper = above[p] > below[p]

        row = Binv[p] @ A
        red = c - (c_B @ Binv) @ A
        # moving column j in its direction sign[j] changes x_B[p] by -row[j] * sign[j]
        push = row * sign if to_upper else -row * sign
        eligible = push > LP_RATIO_TOL
        if not eligible.any():
            raise LpError("restricted LP is infeasible")
        ratios = np.full(row.size, math.inf)
        np.divide(np.abs(red), np.abs(row), out=ratios, where=eligible)
        j = int(ratios.argmin())

        alpha = Binv @ A[:, j]
        _exchange(basis, x_nb, sign, c_B, u_B, c, u, p, j, to_upper)
        Binv, pivots = _updated_inverse(Binv, alpha, p, pivots, A, basis)

    raise LpError("pivot limit exceeded")


def _pricing_signs(basis, x_nb):
    """-1 at an upper-bound nonbasic, +1 at a lower-bound one, 0 on the basis."""
    sign = np.where(x_nb > 0.0, -1.0, 1.0)
    sign[basis] = 0.0
    return sign


def _exchange(basis, x_nb, sign, c_B, u_B, c, u, pos, j, out_at_upper):
    """Column j enters at basis position ``pos``; the column there leaves to
    its upper bound if ``out_at_upper``, else to 0.  Updates every
    argument but c and u in place."""
    out = int(basis[pos])
    basis[pos] = j
    x_nb[j] = 0.0
    sign[j] = 0.0
    c_B[pos] = c[j]
    u_B[pos] = u[j]
    if out_at_upper:
        x_nb[out] = u[out]
        sign[out] = -1.0
    else:
        sign[out] = 1.0


def _updated_inverse(Binv, alpha, pos, pivots, A, basis):
    """The basis inverse after the column with ``alpha = Binv @ column``
    entered at ``pos``, and the basis changes since the last fresh
    inversion.  Every ``_REFACTOR_INTERVAL`` changes it is inverted from
    scratch; otherwise the product-form update: the new inverse is
    E @ Binv, where the eta matrix E turns alpha into the pos unit vector."""
    pivots += 1
    if pivots == _REFACTOR_INTERVAL:
        return np.linalg.inv(A[:, basis]), 0
    pivot_row = Binv[pos] / alpha[pos]
    Binv -= alpha[:, None] * pivot_row
    Binv[pos] = pivot_row
    return Binv, pivots


@dataclass(frozen=True)
class EdgeMinBasis:
    """The final basis of an edge-min solve: the start of the next.

    ``group`` is each instance's row group over the t columns solved,
    ``basic`` the kernel column basic at each of the t + 1 basis
    positions, ``x_nb`` the nonbasic values over the kernel's columns
    (D_1..D_k, g+, g-, then one slack per column) and ``weights`` the
    group weights D the solve returned, the basic ones among them.
    The arrays are read-only.
    """

    group: np.ndarray
    basic: np.ndarray
    x_nb: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for array in (self.group, self.basic, self.x_nb, self.weights):
            array.flags.writeable = False

    @property
    def t(self) -> int:
        return self.basic.size - 1


@dataclass
class EdgeMinSolution:
    """Paired optima of the restricted edge-min LP and its soft-margin dual,
    and the solve's final basis."""

    d: np.ndarray
    gamma: float
    w: np.ndarray
    rho: float
    basis: EdgeMinBasis

    def __post_init__(self):
        if abs(self.gamma - self.rho) > STRONG_DUALITY_TOL:
            raise LpError(
                f"strong duality violated: gamma={self.gamma!r} rho={self.rho!r}"
            )


def solve_edge_min(
    A: GainMatrix, nu: float, start: EdgeMinBasis | None = None
) -> EdgeMinSolution:
    """Minimise the worst edge over the capped simplex, restricted to A.

    Returns the distribution minimising ``max_k (d @ A)_k``, the optimal
    value gamma, and the dual hypothesis weights w whose soft-margin
    value rho certifies optimality (|gamma - rho| <= STRONG_DUALITY_TOL).

    Identical instance rows of A are merged first: the k distinct rows,
    with multiplicities n_g, carry one aggregate weight D_g in
    ``[0, n_g/nu]``, and every instance of row g gets ``d_i = D_g / n_g``.
    The reduction is exact, and duplicated rows get equal weight.  The
    LP has t+1 rows, one per column edge and the sum of D, with the caps
    in variable bounds.  The weights w are the duals of the t edge rows,
    and rho is evaluated from them on the full matrix.  With no
    ``start`` the simplex starts from the crash basis, a function of
    (A, nu) alone.  A solved LP whose cleaned-up d or w fails its
    membership check is an ``LpError``.  ``nu`` outside ``[1, m]``, NaN
    included, is a ValueError before any LP is built.

    Every solve returns its final basis as ``basis``; pass it back as
    ``start`` once A has grown (column generation).  A's new columns only
    split the start's row groups and add rows, so the start's basis
    carries over dual feasible: a child of a nonbasic group sits at its
    parent's bound, a basic group's weight fills its children in order
    up to their caps and the child where it runs out is basic, and each
    new row's slack is basic with dual 0.  The dual simplex
    (``_dual_iterate``) then restores primal feasibility, and the primal
    pivots run on while pricing finds an improving column.  A start
    solved over more columns than A has, or whose row groups do not
    hold identical rows of A, is a ValueError; an ``LpError`` or
    ``LinAlgError`` on the warm path is logged as a warning and the LP
    is solved cold.
    """
    if not 1.0 <= nu <= A.m:
        raise ValueError(f"nu must lie in [1, m]; got {nu}")
    t = A.t
    G = A.as_array()
    cap = 1.0 / nu
    if start is None:
        rows, group, counts = _distinct_rows(G)
    else:
        rows, group, counts, parent = _split_rows(G, start)
    k = rows.shape[0]

    # variables (D_1..D_k, g): maximize -g
    # rows: column edges <= g; sum(D) = 1
    con = np.zeros((t + 1, k + 1))
    con[:t, :k] = rows.T
    con[:t, k] = -1.0
    con[t, :k] = 1.0
    objective = np.concatenate([np.zeros(k), [-1.0]])
    upper = counts * cap
    solved = None
    if start is not None:
        basis, x_nb = _carried_basis(start, parent, upper, t)
        try:
            solved = _solve_max(objective, con, upper, basis, x_nb, dual_start=True)
        except (LpError, np.linalg.LinAlgError) as exc:
            logger.warning("warm-started LP failed (%s); solving it cold", exc)
    if solved is None:
        # start: fill D_1, D_2, ... to their caps; the D that completes the
        # sum is basic (the caps sum to m/nu >= 1, but at nu = m their float
        # sum can end just short of 1), g+ or its mirror g- is basic at the
        # largest edge, and so is every slack but the one on that edge's row
        f = min(int(np.searchsorted(np.cumsum(upper), 1.0)), k - 1)
        x_nb = np.zeros(k + 2 + t)
        x_nb[:f] = upper[:f]
        edges = x_nb[:k] @ rows + (1.0 - upper[:f].sum()) * rows[f]
        top = int(edges.argmax())
        slacks = np.delete(np.arange(k + 2, k + 2 + t), top)
        basis = np.concatenate([[f, k if edges[top] >= 0.0 else k + 1], slacks])
        solved = _solve_max(objective, con, upper, basis, x_nb)
    x, value, duals = solved
    d = _cleanup_distribution((x[:k] / counts)[group], cap)
    w = _cleanup_weights(duals[:t])
    rho, _ = capped_min_linear(G @ w, nu)

    try:
        check_distribution(d, nu)
        check_ensemble_weights(w, A)
    except ValueError as exc:  # the cleaned-up optimum left its set: a failed solve
        raise LpError(str(exc)) from exc
    basis_out = EdgeMinBasis(group, basis, x_nb, x[:k])  # _solve_max left the final basis here
    return EdgeMinSolution(d=d, gamma=-value, w=w, rho=rho, basis=basis_out)


def _carried_basis(start: EdgeMinBasis, parent: np.ndarray, upper: np.ndarray, t: int):
    """The start's basis over row groups of t columns whose groups in the
    start are ``parent`` (nondecreasing), as (basis, x_nb) of the
    edge-min kernel (see ``solve_edge_min``).

    A basic group's children fill to their caps in order up to its
    weight, and the child where the caps reach it is basic.  The kernel
    columns g+, g- and the start's slacks keep their order after the k
    group weights, and the new rows' slacks are basic at the end.
    """
    t_old, k_old, k = start.t, start.weights.size, upper.size
    x_nb = np.zeros(k + 2 + t)
    x_nb[:k] = np.where(start.x_nb[parent] > 0.0, upper, 0.0)
    basis = start.basic.copy()
    shifted = basis >= k_old
    basis[shifted] += k - k_old
    children = np.searchsorted(parent, np.arange(k_old + 1)).tolist()  # group g's: [g] to [g + 1]
    for pos in np.flatnonzero(~shifted).tolist():
        g = int(basis[pos])
        lo, hi = children[g], children[g + 1]
        if hi - lo > 1:  # a split group; an unsplit one's only child takes its place
            filled = np.cumsum(upper[lo:hi])
            runs_out = lo + min(int(np.searchsorted(filled, start.weights[g])), hi - lo - 1)
            x_nb[lo:runs_out] = upper[lo:runs_out]
            basis[pos] = runs_out
        else:
            basis[pos] = lo
    return np.concatenate([basis, np.arange(k + 2 + t_old, k + 2 + t)]), x_nb


def _distinct_rows(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of G in lexicographic order, each row's group, group sizes.

    The triple ``np.unique(G, axis=0, return_inverse=True,
    return_counts=True)`` returns, from one stable lexsort of the
    columns.  Rows that differ only in the sign of a zero are one row,
    kept as its first occurrence.
    """
    order = np.lexsort(G.T[::-1])
    ranked = G[order]
    first = np.ones(G.shape[0], dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return _grouped(ranked, order, first)


def _split_rows(G: np.ndarray, start: EdgeMinBasis):
    """``_distinct_rows(G)`` formed from the start's row groups, and each
    distinct row's group in the start (nondecreasing).

    The start's groups are the distinct rows of G's first ``start.t``
    columns in lexicographic rank, so one stable lexsort of the later
    columns under that rank orders G as ``_distinct_rows`` does.  A
    start solved over more columns than G has, or whose groups do not
    hold identical rows of G, is a ValueError.
    """
    m, t = G.shape
    t_old, k_old = start.t, start.weights.size
    if t_old > t:
        raise ValueError(f"start solved {t_old} columns; A has {t}")
    if start.group.shape != (m,):
        raise ValueError(f"start's row groups cover {start.group.size} instances; A has {m}")
    order = np.lexsort((*G[:, t_old:].T[::-1], start.group))
    ranked, prior = G[order], start.group[order]
    differs = ranked[1:] != ranked[:-1]
    same_prior = prior[1:] == prior[:-1]  # each start group's rows are contiguous
    if prior[0] < 0 or prior[-1] >= k_old or np.any(same_prior & differs[:, :t_old].any(axis=1)):
        raise ValueError(f"start's row groups do not hold identical rows of A's first {t_old} columns")
    first = np.ones(m, dtype=bool)
    first[1:] = ~same_prior | differs[:, t_old:].any(axis=1)
    return (*_grouped(ranked, order, first), prior[first])


def _grouped(ranked, order, first):
    """(distinct rows, each row's group, group sizes) of the rows
    ``ranked = G[order]``, sorted, whose new groups begin at ``first``."""
    rank = first.cumsum() - 1
    group = np.empty(rank.size, dtype=np.intp)
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
