"""Dense simplex kernel and the edge-min LP built on it.

``_optimum`` is the one solve path, for ``min c @ x, A x = b, 0 <= x
<= u`` (upper bounds handled implicitly, every one positive) from a
basis its caller supplies, dual feasible or feasible: the dual simplex
``_dual_iterate`` on costs shifted off dual degeneracy, then the primal
pivots of ``_iterate`` as a clean-up on the true costs.  The clean-up
prices by Bland's rule alone, so it cannot cycle from any feasible
start.  After a dual phase it pivots only on badly scaled gains: none
in the 470 solves of 39 fits and 3 oracle runs at m = 60 to 1,000, and
1 or 2 pivots in 5 of 34,804 Tier-1 solves, all on gains whose
smallest nonzero entry lay between 3e-300 and 2e-313.  Without it, four
of those 5 solves refused a dual weight below -1e-9 and one returned
gamma 5e-10 for HiGHS's 0 (the README's Restricted LP paragraph lists
the runs).  The dual loop
inverts its starting basis once, and both loops keep the inverse by
product-form (rank-one) updates at every basis change, re-inverting
from scratch every ``_REFACTOR_INTERVAL`` changes to bound the drift;
the basic solution and duals ``_optimum`` returns come from fresh
solves.  A variable's bound state is its nonbasic value alone:
``x_nb`` holds u at an upper-bound nonbasic and 0 elsewhere.  Beside
the inverse, both loops carry only one pricing sign per variable, in
the one array ``_optimum`` forms from the start and hands to each loop
in turn: they form the basic values and reduced costs afresh at every
pivot and read the basis's costs and bounds as ``c[basis]`` and
``u[basis]``.  The pivots and outputs of both loops equal bit for bit
those of the reference loops in ``tests/conftest.py``, which keep a
status per variable in place of ``x_nb`` and the signs.

``solve_edge_min`` is the one entry point above ``_optimum``: it checks
``nu``, merges identical instance rows, writes the kernel of the
restricted edge-min LP over the distinct rows, solves it, reads the
soft-margin weights from its duals, and certifies strong duality on
every call.  It starts from a dual-feasible basis: the cold start, in
closed form, or, given the final basis of an earlier solve as
``start``, that basis carried over to the grown matrix.  Most warm
solves make no pivot and pay for this set-up alone, so it runs in a
few array steps: the kernel is written once, the carried basis loops
only over the basic groups the new columns split, and rho is read from
the margins ``G @ w`` that the solution also hands to its caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    LP_COST_SHIFT,
    LP_FEAS_TOL,
    LP_PIVOT_TOL,
    LP_RATIO_TOL,
    LP_TIE_TOL,
    STRONG_DUALITY_TOL,
)
from .core import GainMatrix, check_distribution, check_ensemble_weights
from .entropy import _min_linear

_REFACTOR_INTERVAL = 32  # basis changes between fresh inversions of the basis
_MAX_PIVOTS = 200_000


class LpError(Exception):
    pass


def _optimum(A, b, c, upper, basis, x_nb):
    """minimize c@x st A@x = b, 0 <= x <= upper from a dual-feasible or a
    feasible start, ``basis`` and ``x_nb`` updated in place.  Returns (x, duals).

    ``basis`` holds one column index per row and ``x_nb`` the nonbasic
    values: upper at an upper-bound nonbasic, 0 elsewhere and on the
    basis.  The pricing signs of that start (``_pricing_signs``) are
    formed once, here, and the one array goes to both loops, which keep
    it equal to ``_pricing_signs(basis, x_nb)`` at every pivot.

    ``_dual_iterate`` first makes the start primal feasible on costs
    shifted away from dual degeneracy: each nonbasic cost moves by
    ``LP_COST_SHIFT * (1 + |c_j|) * u_j`` in the direction that widens
    its reduced cost, minus at an upper-bound nonbasic and plus at a
    lower-bound one, so the start stays dual feasible and ties between
    reduced costs, on which the dual loop would cycle, are broken.  The
    u_j in [0.5, 1.5) are a fixed draw per size (``_shift_draws``).  The
    primal pivots then clean up on the true costs from the inverse the
    dual loop ends with; they stop at once where pricing finds no
    improving column.
    """
    sign = _pricing_signs(basis, x_nb)
    shift = LP_COST_SHIFT * (1.0 + np.abs(c)) * _shift_draws(c.size) * sign
    Binv = _dual_iterate(A, b, c + shift, upper, basis, x_nb, sign)
    _iterate(A, b, c, upper, basis, x_nb, sign, Binv)
    B = A[:, basis]
    x = x_nb.copy()
    x[basis] = np.linalg.solve(B, b - A @ x_nb)
    y = np.linalg.solve(B.T, c[basis])
    return x.clip(0.0, upper), y


@functools.lru_cache(maxsize=256)
def _shift_draws(n):
    """``default_rng(n)``'s n draws of U(0.5, 1.5), read-only: drawn once
    per size, as a draw costs about 25 us (256 sizes of 4,000 hold 8 MB)."""
    draws = np.random.default_rng(n).uniform(0.5, 1.5, n)
    draws.flags.writeable = False
    return draws


def _iterate(A, b, c, u, basis, x_nb, sign, Binv):
    """Pivot from a feasible basis until pricing finds no improving column.

    ``basis``, the nonbasic values ``x_nb`` (u at upper-bound nonbasics,
    0 elsewhere and on the basis) and their pricing signs ``sign``
    (``_pricing_signs(basis, x_nb)``) are updated in place; ``Binv`` is
    the inverse of the starting basis matrix.
    Every upper bound is positive, so a nonbasic can always move: it has
    pricing sign -1 at its upper bound (``x_nb > 0``) and +1 at its lower
    bound, and a basic variable has 0.  Pricing is Bland's rule (Bland
    1977): the entering column is the first with ``red * sign <
    -LP_PIVOT_TOL``, and the ratio test evicts the lowest index among
    tied rows, so the loop cannot cycle.  The basic values and reduced
    costs are formed afresh at every pivot; a basic variable with an
    infinite upper bound gets an infinite ratio toward it, so it never
    leaves there.  An improving column that nothing blocks means the LP
    is unbounded, an ``LpError``.
    """
    r = A.shape[0]
    pivots = 0  # basis changes since Binv was last inverted from scratch

    for _ in range(_MAX_PIVOTS):
        red = c - (c[basis] @ Binv) @ A
        eligible = red * sign < -LP_PIVOT_TOL
        j = int(eligible.argmax())
        if not eligible[j]:
            return

        x_B = Binv @ (b - A @ x_nb)
        alpha = Binv @ A[:, j]
        increasing = sign[j] > 0.0
        step = alpha if increasing else -alpha  # basic vars move by -step * theta

        to_lower = step > LP_RATIO_TOL
        to_upper = step < -LP_RATIO_TOL
        ratios = np.full(r, math.inf)
        np.divide(x_B, step, out=ratios, where=to_lower)
        np.divide(u[basis] - x_B, -step, out=ratios, where=to_upper)
        np.maximum(ratios, 0.0, out=ratios)  # absorb tiny feasibility drift
        theta_basic = float(ratios.min(initial=math.inf))
        tie_bound = theta_basic + LP_TIE_TOL

        u_j = u[j]
        if u_j <= tie_bound:
            if math.isinf(u_j):
                raise LpError("LP is unbounded")
            # entering variable flips to its other bound, basis unchanged
            x_nb[j] = u_j if increasing else 0.0
            sign[j] = -sign[j]
            continue

        # Bland: among the minimal ratios, evict the lowest variable index; a
        # ratio only ties if its row would end within LP_TIE_TOL of its bound,
        # so a long step cannot push the true blocking row past its own
        tied = (ratios <= tie_bound).nonzero()[0]
        if tied.size > 1:
            tied = tied[(ratios[tied] - theta_basic) * abs(step[tied]) <= LP_TIE_TOL]
        leave_pos = int(tied[basis[tied].argmin()])
        _exchange(basis, x_nb, sign, u, leave_pos, j, not to_lower[leave_pos])
        Binv, pivots = _updated_inverse(Binv, alpha, leave_pos, pivots, A, basis)

    raise LpError("pivot limit exceeded")


def _dual_iterate(A, b, c, u, basis, x_nb, sign):
    """Dual simplex from a dual-feasible basis until it is primal feasible.

    The start has the primal kernel's form (``basis``, ``x_nb`` and the
    pricing signs ``sign`` as in ``_iterate``, all updated in place) and
    reduced costs of the sign its bounds need, up to pricing's
    tolerance, but basic values that may leave their bounds.  Each pivot evicts the basic variable of
    largest bound violation to the bound it violates; the entering
    column is the first minimum of |red / alpha| over the nonbasics
    whose move toward their other bound pushes that row back, with
    |alpha| above ``LP_RATIO_TOL``, so the reduced costs keep their
    signs.  Stops once every basic value lies within ``LP_FEAS_TOL`` of
    its bounds and returns the basis inverse; no eligible column means
    the LP is infeasible, an ``LpError``.  The loop has no anti-cycling
    rule of its own: ``_optimum`` hands it costs shifted off dual
    degeneracy.  Like the primal loop it raises ``LpError`` after
    ``_MAX_PIVOTS`` pivots.
    """
    Binv = np.linalg.inv(A[:, basis])
    pivots = 0  # basis changes since Binv was last inverted from scratch

    for _ in range(_MAX_PIVOTS):
        x_B = Binv @ (b - A @ x_nb)
        below = -x_B
        above = x_B - u[basis]
        violation = np.maximum(below, above)
        p = int(violation.argmax())
        worst = float(violation[p])
        if math.isnan(worst):
            raise LpError("basic values are not finite")
        if not worst > LP_FEAS_TOL:
            return Binv
        to_upper = above[p] > below[p]

        row = Binv[p] @ A
        red = c - (c[basis] @ Binv) @ A
        # moving column j in its direction sign[j] changes x_B[p] by -row[j] * sign[j]
        push = row * sign if to_upper else -row * sign
        eligible = push > LP_RATIO_TOL
        if not eligible.any():
            raise LpError("restricted LP is infeasible")
        ratios = np.full(row.size, math.inf)
        np.divide(np.abs(red), np.abs(row), out=ratios, where=eligible)
        j = int(ratios.argmin())

        alpha = Binv @ A[:, j]
        _exchange(basis, x_nb, sign, u, p, j, to_upper)
        Binv, pivots = _updated_inverse(Binv, alpha, p, pivots, A, basis)

    raise LpError("pivot limit exceeded")


def _pricing_signs(basis, x_nb):
    """-1 at an upper-bound nonbasic, +1 at a lower-bound one, 0 on the basis."""
    sign = np.where(x_nb > 0.0, -1.0, 1.0)
    sign[basis] = 0.0
    return sign


def _exchange(basis, x_nb, sign, u, pos, j, out_at_upper):
    """Column j enters at basis position ``pos``; the column there leaves to
    its upper bound if ``out_at_upper``, else to 0.  Updates ``basis``,
    ``x_nb`` and ``sign`` in place."""
    out = int(basis[pos])
    basis[pos] = j
    x_nb[j] = 0.0
    sign[j] = 0.0
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
    positions, over the kernel's columns D_1..D_k, g+, g-, then one
    slack per column, and ``weights`` the k group weights D the solve
    returned.  A nonbasic D sits at a bound, so its weight is its cap
    where positive and 0 otherwise; the kernel's g+, g- and slacks have
    no upper bound, so they are 0 wherever nonbasic.  The arrays are
    read-only.
    """

    group: np.ndarray
    basic: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for array in (self.group, self.basic, self.weights):
            array.flags.writeable = False

    @property
    def t(self) -> int:
        return self.basic.size - 1


@dataclass
class EdgeMinSolution:
    """Paired optima of the restricted edge-min LP and its soft-margin dual,
    the margins ``G @ w`` of the dual weights, and the solve's final basis."""

    d: np.ndarray
    gamma: float
    w: np.ndarray
    margins: np.ndarray
    rho: float
    basis: EdgeMinBasis

    def __post_init__(self):
        if not abs(self.gamma - self.rho) <= STRONG_DUALITY_TOL:  # NaN fails it
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
    and rho is evaluated from their margins ``G @ w`` on the full matrix,
    which the solution returns as ``margins``.  Every solve runs
    ``_optimum`` from a dual-feasible basis; a failed solve raises its
    ``LpError`` (or ``LinAlgError``), and so does a solved LP whose
    cleaned-up d or w fails its membership check.  ``nu`` outside
    ``[1, m]``, NaN included, is a ValueError before any LP is built.

    With no ``start`` the basis is the cold start: D_1, g+ and the slacks
    of edge rows 2..t basic, every other column at 0.  D_j's reduced
    cost there is ``rows[j, 0] - rows[0, 0]``, g-'s 0 and the first
    slack's 1; the rows are in lexicographic order, so it is dual feasible.

    Every solve returns its final basis as ``basis``; pass it back as
    ``start`` once A has grown (column generation).  A's new columns only
    split the start's row groups and add rows, so the start's basis
    carries over dual feasible: a child of a nonbasic group sits at its
    parent's bound, a basic group's weight fills its children in order
    up to their caps and the child where it runs out is basic, and each
    new row's slack is basic with dual 0.  A start solved over more
    columns than A has, or whose row groups do not hold identical rows
    of A, is a ValueError.
    """
    if not 1.0 <= nu <= A.m:
        raise ValueError(f"nu must lie in [1, m]; got {nu}")
    t = A.t
    G = A.as_array()
    cap = 1.0 / nu
    if start is None:
        rows, group, counts, _ = _split_rows(G, 0, np.zeros(A.m, dtype=np.intp), 1)
    else:
        rows, group, counts, parent = _split_rows(G, start.t, start.group, start.weights.size)
    k = rows.shape[0]
    upper = counts * cap

    # minimise g = g+ - g- over (D_1..D_k, g+, g-, one slack per edge row):
    # rows: column edges - g + slack = 0; sum(D) = 1.  The column order sets
    # the pivoting tie-breaks, so it is part of the result
    n = k + 2 + t
    kernel = np.zeros((t + 1, n))
    kernel[:t, :k] = rows.T
    kernel[:t, k] = -1.0
    kernel[:t, k + 1] = 1.0
    kernel[t, :k] = 1.0
    kernel.reshape(-1)[k + 2 :: n + 1] = 1.0  # the slacks' diagonal: t entries
    rhs = np.zeros(t + 1)
    rhs[t] = 1.0
    cost = np.zeros(n)
    cost[k], cost[k + 1] = 1.0, -1.0
    bounds = np.empty(n)
    bounds[:k] = upper
    bounds[k:].fill(math.inf)
    if start is None:  # the cold start
        basis, x_nb = np.concatenate([[0, k], np.arange(k + 3, n)]), np.zeros(n)
    else:
        basis, x_nb = _carried_basis(start, parent, upper, t)
    x, y = _optimum(kernel, rhs, cost, bounds, basis, x_nb)
    weights = x[:k] + 0.0  # + 0.0 turns a clipped -0.0 into 0.0
    g = x[k] - x[k + 1]  # g+ - g-
    gamma = -float(0.0 - g)  # minus max -g, whose value is 0 - g: -0.0 where g is 0
    d = _cleanup_distribution((weights / counts)[group], cap)
    w = _cleanup_weights(-y[:t])  # the edge rows' duals in the max sense
    margins = G @ w
    rho, _ = _min_linear(margins, nu, margins.argsort(kind="stable"))

    try:
        check_distribution(d, nu)
        check_ensemble_weights(w, A)
    except ValueError as exc:  # the cleaned-up optimum left its set: a failed solve
        raise LpError(str(exc)) from exc
    basis_out = EdgeMinBasis(group, basis, weights)  # _optimum left the final basis here
    return EdgeMinSolution(d=d, gamma=gamma, w=w, margins=margins, rho=rho, basis=basis_out)


def _carried_basis(start: EdgeMinBasis, parent: np.ndarray, upper: np.ndarray, t: int):
    """The start's basis over row groups of t columns whose groups in the
    start are ``parent`` (nondecreasing), as (basis, x_nb) of the
    edge-min kernel (see ``solve_edge_min``).

    A nonbasic group is at its cap where its weight is positive, and
    its children sit at theirs.  A basic group's children fill to their
    caps in order until their sum reaches its weight, and the child where
    it does is basic (the last child if the caps sum short of it): an
    unsplit group's one child takes its place, in one array step with
    every other such child, and only the groups the new columns split
    are filled one by one.  The kernel columns g+, g- and the start's
    slacks keep their order after the k group weights, and the new rows'
    slacks are basic at the end.
    """
    t_old, k_old, k = start.t, start.weights.size, upper.size
    # numbered over the start's columns, with the new rows' slacks after its own
    basis = np.concatenate([start.basic, np.arange(k_old + 2 + t_old, k_old + 2 + t)])
    positions = (basis < k_old).nonzero()[0]
    groups = basis[positions]
    basis += k - k_old  # g+, g- and the slacks move past the k groups
    at_cap = start.weights > 0.0
    at_cap[groups] = False  # a basic group's weight lies between its bounds
    x_nb = np.zeros(k + 2 + t)
    x_nb[:k] = np.where(at_cap[parent], upper, 0.0)
    lo, hi = parent.searchsorted(groups), parent.searchsorted(groups, side="right")
    basis[positions] = lo  # group g's children are lo to hi, the first basic
    for i in (hi - lo > 1).nonzero()[0].tolist():  # the split groups
        a, b = int(lo[i]), int(hi[i])
        f = a + min(int(upper[a:b].cumsum().searchsorted(start.weights[groups[i]])), b - a - 1)
        x_nb[a:f] = upper[a:f]
        basis[positions[i]] = f
    return basis, x_nb


def _split_rows(G: np.ndarray, t_old: int, old_group: np.ndarray, k_old: int):
    """The distinct rows of G in lexicographic order, each row's group,
    the group sizes, and each distinct row's group in ``old_group``
    (nondecreasing).

    ``old_group`` is the start's row groups: the k_old distinct rows of
    G's first t_old columns, numbered in lexicographic rank; a cold
    solve passes the single group 0 of all rows over zero columns.  One
    stable lexsort of the later columns under that rank orders G as
    ``np.unique(G, axis=0)`` does, so the first three values are the
    triple ``np.unique(G, axis=0, return_inverse=True,
    return_counts=True)`` returns.  Rows that differ only in the sign
    of a zero are one row, kept as its first occurrence.  A start
    solved over more columns than G has, or whose groups do not hold
    identical rows of G, is a ValueError.
    """
    m, t = G.shape
    if t_old > t:
        raise ValueError(f"start solved {t_old} columns; A has {t}")
    if old_group.shape != (m,):
        raise ValueError(f"start's row groups cover {old_group.size} instances; A has {m}")
    order = np.lexsort((*G[:, t_old:].T[::-1], old_group))
    ranked, prior = G.take(order, axis=0), old_group[order]
    differs = ranked[1:] != ranked[:-1]
    same_prior = prior[1:] == prior[:-1]  # each start group's rows are contiguous
    if prior[0] < 0 or prior[-1] >= k_old or (same_prior & differs[:, :t_old].any(axis=1)).any():
        raise ValueError(f"start's row groups do not hold identical rows of A's first {t_old} columns")
    first = np.ones(m, dtype=bool)
    first[1:] = ~same_prior | differs[:, t_old:].any(axis=1)
    rank = first.cumsum() - 1
    group = np.empty(m, dtype=np.intp)
    group[order] = rank
    return ranked.compress(first, axis=0), group, np.bincount(rank), prior[first]


def _cleanup_distribution(raw: np.ndarray, cap: float) -> np.ndarray:
    return _normalised(raw, raw.clip(0.0, cap), "distribution weight", "distribution")


def _cleanup_weights(raw: np.ndarray) -> np.ndarray:
    return _normalised(raw, np.where(raw > LP_PIVOT_TOL, raw, 0.0), "dual weight", "weight vector")


def _normalised(raw: np.ndarray, kept: np.ndarray, entry: str, vector: str) -> np.ndarray:
    """``kept``, the LP values ``raw`` moved into their set, over its sum.

    Pricing accepts reduced costs up to LP_PIVOT_TOL on the wrong side, so
    LP values within LP_PIVOT_TOL below zero are rounding, not
    infeasibility.  A value of ``raw`` further below, or NaN, is an
    LpError, and so is a ``kept`` whose sum is not positive.
    """
    low = np.minimum.reduce(raw)  # NaN where any value is
    if not low >= -LP_PIVOT_TOL:
        raise LpError(f"{entry} below -{LP_PIVOT_TOL}: {low}")
    total = np.add.reduce(kept)
    if not total > 0.0:
        raise LpError(f"degenerate zero {vector}")
    kept /= total
    return kept
