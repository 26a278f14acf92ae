"""Shared fixtures: synthetic data and independent brute-force oracles.

The oracles here deliberately re-derive everything from definitions
(subset enumeration, vertex enumeration, grid search) so they share no
code path with the package implementations they check.
"""

import csv
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from marginforge import boosting, entropy, lp
from marginforge.constants import CAP_REL_SLACK, ENTROPY_ZERO
from marginforge.core import (
    CapParams,
    Dataset,
    GainMatrix,
    check_distribution,
    check_ensemble_weights,
    margins,
)
from marginforge.entropy import ProjectionResult, capped_entropy_projection, capped_min_linear
from marginforge.stumps import StumpHypothesis


def two_gaussians(m: int, seed: int, p: int = 2, spread: float = 0.9, shift: float = 1.1) -> Dataset:
    """Two overlapping Gaussian blobs with +-1 labels, m/2 each."""
    rng = np.random.default_rng(seed)
    half = m // 2
    neg = rng.normal(-shift, spread, (half, p))
    pos = rng.normal(shift, spread, (m - half, p))
    features = np.vstack([neg, pos])
    labels = np.concatenate([-np.ones(half), np.ones(m - half)])
    return Dataset(features, labels)


def ringnorm(m: int, seed: int, p: int = 20) -> Dataset:
    """Breiman's ringnorm (1996, "Bias, variance, and arcing classifiers"):
    m/2 rows of label +1 drawn from N(0, 4 I), then m/2 of label -1 from
    N(a, I) with every coordinate of a equal to 1/sqrt(p), drawn first."""
    rng = np.random.default_rng(seed)
    half = m // 2
    neg = rng.standard_normal((half, p)) + 1.0 / math.sqrt(p)
    pos = 2.0 * rng.standard_normal((half, p))
    return Dataset(np.vstack([pos, neg]), np.concatenate([np.ones(half), -np.ones(half)]))


def write_csv(path, data: Dataset):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(data.p)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def oracle_projection(theta, nu: float, eta: float):
    """Entropy projection by enumerating every capped subset (KKT forms).

    For each candidate set S capped at 1/nu the remaining mass is spread
    over the complement proportionally to exp(-eta*theta); the feasible
    candidate with the smallest objective is the optimum.
    """
    theta = np.asarray(theta, dtype=float)
    m = theta.shape[0]
    cap = 1.0 / nu
    best = None
    for k in range(m + 1):
        if k * cap >= 1.0 + 1e-12 and k > 0:
            continue
        for capped in itertools.combinations(range(m), k):
            remaining = 1.0 - k * cap
            free = [i for i in range(m) if i not in capped]
            d = np.zeros(m)
            d[list(capped)] = cap
            if free:
                weights = np.exp(-eta * (theta[free] - np.min(theta[free])))
                d[free] = remaining * weights / weights.sum()
            elif remaining > 1e-12:
                continue
            if np.any(d > cap * (1.0 + 1e-10)):
                continue
            pos = d[d > 1e-15]
            objective = float(d @ theta) + (float(pos @ np.log(pos)) + math.log(m)) / eta
            if best is None or objective < best[0]:
                best = (objective, d)
    return best[1], best[0]


def capped_simplex_vertices(m: int, nu: float):
    """All extreme points of the capped simplex: k entries at 1/nu, at
    most one fractional entry carrying the leftover, zeros elsewhere."""
    cap = 1.0 / nu
    seen = set()
    out = []
    for k in range(int(math.floor(nu)) + 1):
        leftover = 1.0 - k * cap
        if leftover < -1e-12:
            continue
        for capped in itertools.combinations(range(m), k):
            if leftover <= 1e-12:
                d = np.zeros(m)
                d[list(capped)] = cap
                key = tuple(np.round(d, 12))
                if key not in seen:
                    seen.add(key)
                    out.append(d)
                continue
            if leftover > cap + 1e-12:
                continue  # not a vertex: more than one fractional entry needed
            for frac in range(m):
                if frac in capped:
                    continue
                d = np.zeros(m)
                d[list(capped)] = cap
                d[frac] = leftover
                key = tuple(np.round(d, 12))
                if key not in seen:
                    seen.add(key)
                    out.append(d)
    return out


def min_linear_over_cap(vector, nu: float) -> float:
    """Exact min of d @ vector over the capped simplex via its vertices."""
    vector = np.asarray(vector, dtype=float)
    return min(float(d @ vector) for d in capped_simplex_vertices(vector.shape[0], nu))


def pool_candidates(pool) -> tuple:
    """Every candidate of a ``StumpPool``, in pool order."""
    return tuple(pool.candidate(j) for j in range(len(pool)))


def reference_stump_pool(data: Dataset):
    """The stump pool by its definition: one ``StumpHypothesis`` object per
    candidate, enumerated verbatim, as an oracle for the array-backed pool.
    The constant pair comes first, as feature 0's stump below its minimum.
    Then, per feature, one loop over its groups of equal values in sorted
    order: the midpoint between each two consecutive groups, skipped when
    every row of both groups carries one label.  Returns (candidates,
    orders, split_at), split_at[k] being f*(m+1) plus the rows below the
    cut, and 0 for the constant."""
    m = data.m
    orders = np.argsort(data.features.T, axis=1, kind="stable")
    below = float(data.features[orders[0][0], 0] - 1.0)
    out, splits = [StumpHypothesis(0, below, 1), StumpHypothesis(0, below, -1)], [0]
    for f in range(data.p):
        xs = [float(data.features[i, f]) for i in orders[f]]
        ys = [float(data.labels[i]) for i in orders[f]]
        groups = [0] + [i for i in range(1, m) if xs[i - 1] < xs[i]] + [m]  # group starts
        for a, b, c in zip(groups, groups[1:], groups[2:]):
            if len(set(ys[a:c])) == 1:
                continue  # groups [a, b) and [b, c) carry one label
            lo, hi = xs[b - 1], xs[b]
            mid = (lo + hi) / 2.0
            if not math.isfinite(mid):
                mid = lo / 2.0 + hi / 2.0  # lo + hi overflowed
            if not mid > lo:
                mid = hi  # adjacent floats: rounded onto lo
            splits.append(f * (m + 1) + b)
            out.append(StumpHypothesis(f, mid, 1))
            out.append(StumpHypothesis(f, mid, -1))
    return tuple(out), orders, np.array(splits)


# Reference simplex: the dense kernel of marginforge.lp re-derived with a
# status per variable in place of its nonbasic values and pricing signs,
# kept as an oracle that the lean loops must match bit for bit.  Its primal
# loop prices by Bland's rule, as the lean one does.  Like the lean kernel
# it starts from the basis its caller gives it, with no phase 1:
# ``reference_edge_min`` from a dual-feasible one, through the dual loop on
# shifted costs and then the primal loop, and ``reference_simplex_min`` from
# a feasible one, through the primal loop alone.  The limits are read from
# marginforge.lp at call time, so a test that monkeypatches them there runs
# both kernels under the same limits.

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


def scipy_edge_min(G, nu):
    """min g subject to G.T @ d <= g, sum(d) = 1, 0 <= d <= 1/nu, by HiGHS."""
    m, t = G.shape
    res = linprog(
        c=np.concatenate([np.zeros(m), [1.0]]),
        A_ub=np.hstack([G.T, -np.ones((t, 1))]),
        b_ub=np.zeros(t),
        A_eq=np.concatenate([np.ones(m), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=[(0.0, 1.0 / nu)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def pool_oracle(A_full, d) -> int:
    """Index of the max-edge column of a fully materialised gain matrix.

    Ties go to the lowest index.
    """
    d = np.asarray(d, dtype=float)
    return int(np.argmax(d @ A_full.as_array()))


class PoolOracleLearner:
    """Max-edge responses over a fully materialised gain matrix."""

    def __init__(self, A_full):
        self.A_full = A_full

    @property
    def m(self) -> int:
        return self.A_full.m

    def query(self, d):
        j = pool_oracle(self.A_full, d)
        # a contiguous copy: a strided dot would round the edge differently
        column = self.A_full.as_array()[:, j].copy()
        return self.A_full.hypothesis_ids[j], column, float(d @ column)


def reference_lp_scheme(data, learner, config):
    """``boosting.run_scheme`` with a FW rule and the "lpboost" secondary,
    its round re-derived without the carried state: every round that
    does not stop solves the restricted LP (``boosting.secondary_lpboost``,
    looked up at call time) from the basis of the last solve if it
    succeeded, and then queries the learner at the solution's d.  A
    failed solve keeps the FW candidate, and the next solve starts cold.
    The LP query's edge lowers the running min edge from the next round
    on; its column, if new, joins both candidates with zero weight.
    Projections are the public, checked ones; the FW step
    (``boosting._fw_update``) and the final model
    (``boosting._finish_model``) are the package's, which other tests
    check.  Returns (model, records), every ``wall_time_ns`` 0."""
    m = learner.m
    params = CapParams.from_tolerance(m, config.nu, config.eps)
    cap_rounds = config.max_iterations or boosting.default_iteration_cap(m, config.nu, config.eps)
    hypothesis, column, min_edge = learner.query(np.full(m, 1.0 / m))
    A, w = GainMatrix([column], [hypothesis]), np.ones(1)
    proj = capped_entropy_projection(margins(A, w), params)
    records, last = [], None  # last: the last solve, if it succeeded
    for t in range(1, cap_rounds + 1):
        if t % boosting._MARGIN_REFRESH == 0:
            proj = capped_entropy_projection(margins(A, w), params)
        hypothesis, column, edge_new = learner.query(proj.d)
        A, j_new = A.with_column(column, hypothesis)
        if j_new == w.size:
            w = np.append(w, 0.0)
        min_edge = min(min_edge, edge_new)
        eps_t = min_edge - proj.objective
        if eps_t <= config.eps / 2.0:
            proj = capped_entropy_projection(margins(A, w), params)
            eps_t = min_edge - proj.objective
        converged = eps_t <= config.eps / 2.0
        smoothed_obj, soft_margin_obj = -proj.objective, capped_min_linear(proj.theta, params.nu)[0]
        rule, lam, good, lp_query, added, lp_edge = "fw", 0.0, False, False, False, math.inf
        if not converged:
            fw_out = boosting._fw_update(config.fw_rule, A, w, j_new, proj, params, t, column)
            lam, good = fw_out.step_size, fw_out.good_step
            w, proj = fw_out.new_w, capped_entropy_projection(fw_out.margins, params)
            try:
                sol = boosting.secondary_lpboost(A, params.nu, None if last is None else last.basis)
            except (lp.LpError, np.linalg.LinAlgError):
                sol = None
            if sol is not None:
                candidate, candidate_proj = sol.w, capped_entropy_projection(sol.margins, params)
                lp_hypothesis, lp_column, lp_edge = learner.query(sol.d)
                A, j_lp = A.with_column(lp_column, lp_hypothesis)
                lp_query, added = True, j_lp == w.size
                if added:
                    w, candidate = np.append(w, 0.0), np.append(candidate, 0.0)
                if candidate_proj.objective > proj.objective:
                    rule, w, proj = "secondary", candidate, candidate_proj
            last = sol
        records.append(
            boosting.IterationRecord(
                t, edge_new, min_edge, smoothed_obj, soft_margin_obj, eps_t,
                rule, lam, good, lp_query, added, 0,
            )
        )
        min_edge = min(min_edge, lp_edge)
        if converged:
            break
    return boosting._finish_model(A, w, params, converged, cap_rounds), records


def reference_lpboost(data, learner, config):
    """LPBoost's column generation (Demiriz, Bennett & Shawe-Taylor
    2002) in a loop of its own, the reference for ``boosting.run_scheme``
    with no FW rule.  Every round solves the restricted LP
    (``lp.solve_edge_min``, looked up at call time) from the basis of the
    last solve and queries the learner at the solution's d.  Its record
    holds that edge, the running min edge with the edge in it, the
    smoothed value and the soft margin ``rho`` of the LP's weights, and
    rule "secondary", with no step and no LP query flagged.  The fit
    stops once the edge is at most gamma + eps, or once the learner
    returns a column A holds; otherwise the column joins A.  Projections
    are the public, checked ones, and the final model is
    ``boosting._finish_model``'s of the last solve's weights,
    zero-padded over a column the last round added.  Returns (model,
    records), every ``wall_time_ns`` 0."""
    m = learner.m
    params = CapParams.from_tolerance(m, config.nu, config.eps)
    cap_rounds = config.max_iterations or boosting.default_iteration_cap(m, config.nu, config.eps)
    hypothesis, column, min_edge = learner.query(np.full(m, 1.0 / m))
    A, sol, records = GainMatrix([column], [hypothesis]), None, []
    for t in range(1, cap_rounds + 1):
        sol = lp.solve_edge_min(A, config.nu, start=None if sol is None else sol.basis)
        hypothesis, column, edge = learner.query(sol.d)
        min_edge = min(min_edge, edge)
        objective = capped_entropy_projection(sol.margins, params).objective
        records.append(
            boosting.IterationRecord(
                t, edge, min_edge, -objective, sol.rho, min_edge - objective,
                "secondary", 0.0, False, False, False, 0,
            )
        )
        converged = edge <= sol.gamma + config.eps
        if not converged:
            A, j = A.with_column(column, hypothesis)
            converged = j < sol.w.size
        if converged:
            break
    w = np.pad(sol.w, (0, A.t - sol.w.size))
    return boosting._finish_model(A, w, params, converged, cap_rounds), records


def reference_edge_min(G, nu, start=None):
    """``lp.solve_edge_min`` of the gain matrix G from ``start`` (an
    ``lp.EdgeMinBasis`` or None), re-derived: row groups by ``np.unique``,
    the start carried group by group, the kernel assembled from the
    constraint matrix ``con`` of max -g, and the reference loops."""
    m, t = G.shape
    cap = 1.0 / nu
    rows, group, counts = np.unique(G, axis=0, return_inverse=True, return_counts=True)
    group = group.reshape(-1)
    k = rows.shape[0]
    upper = counts * cap
    con = np.zeros((t + 1, k + 1))  # variables (D_1..D_k, g); rows: edges - g <= 0, sum(D) = 1
    con[:t, :k] = rows.T
    con[:t, k] = -1.0
    con[t, :k] = 1.0
    objective = np.concatenate([np.zeros(k), [-1.0]])
    if start is None:
        basis, x_nb = np.concatenate([[0, k], np.arange(k + 3, k + 2 + t)]), np.zeros(k + 2 + t)
    else:
        parent = np.empty(k, dtype=np.intp)
        parent[group] = start.group
        basis, x_nb = _reference_carried_basis(start, parent, upper, t)

    r, n = con.shape
    kernel = np.hstack([con, -con[:, -1:], np.eye(r, r - 1)])
    cost = np.concatenate([-objective, objective[-1:], np.zeros(r - 1)])
    bounds = np.concatenate([upper, np.full(r + 1, math.inf)])
    rhs = np.append(np.zeros(r - 1), 1.0)
    status = _status(basis, x_nb)
    Binv = _reference_dual_iterate(kernel, rhs, cost, bounds, basis, status)
    _reference_iterate(kernel, rhs, cost, bounds, basis, status, Binv)
    x_full, y = _reference_solution(kernel, rhs, cost, bounds, basis, status)
    x = np.zeros(n) + x_full[:n]  # + 0.0 turns a clipped -0.0 into 0.0
    x[-1] -= x_full[n]

    raw_d, raw_w = (x[:k] / counts)[group], -y[:t]
    if np.any(raw_d < -lp.LP_PIVOT_TOL):
        raise lp.LpError(f"distribution weight below -{lp.LP_PIVOT_TOL}: {raw_d.min()}")
    d = np.clip(raw_d, 0.0, cap)
    if d.sum() <= 0.0:
        raise lp.LpError("degenerate zero distribution")
    if np.any(raw_w < -lp.LP_PIVOT_TOL):
        raise lp.LpError(f"dual weight below -{lp.LP_PIVOT_TOL}: {raw_w.min()}")
    w = np.where(raw_w > lp.LP_PIVOT_TOL, raw_w, 0.0)
    if w.sum() <= 0.0:
        raise lp.LpError("degenerate zero weight vector")
    d, w = d / d.sum(), w / w.sum()
    try:
        check_distribution(d, nu)
        check_ensemble_weights(w, GainMatrix(list(G.T), range(t)))
    except ValueError as exc:
        raise lp.LpError(str(exc)) from exc
    rho, _ = capped_min_linear(G @ w, nu)
    return lp.EdgeMinSolution(
        d=d, gamma=-float(objective @ x), w=w, margins=G @ w, rho=rho,
        basis=lp.EdgeMinBasis(group, basis, x[:k]),
    )


def _reference_carried_basis(start, parent, upper, t):
    """The start's basis carried over row groups of t columns whose groups
    in the start are ``parent``, one basis position at a time: a basic
    group's children fill to their caps in order and the child where its
    weight runs out is basic."""
    t_old, k_old, k = start.t, start.weights.size, upper.size
    basis = start.basic.copy()
    x_nb = np.zeros(k + 2 + t)
    for j in range(k):
        g = parent[j]
        x_nb[j] = upper[j] if start.weights[g] > 0.0 and g not in start.basic else 0.0
    for pos, col in enumerate(start.basic):
        if col >= k_old:  # g+, g- and the slacks keep their order after the k groups
            basis[pos] = col + k - k_old
            continue
        children = np.flatnonzero(parent == col)
        filled = np.cumsum(upper[children])
        f = children[min(int(np.searchsorted(filled, start.weights[col])), children.size - 1)]
        x_nb[children[0] : f] = upper[children[0] : f]
        basis[pos] = f
    return np.concatenate([basis, np.arange(k + 2 + t_old, k + 2 + t)]), x_nb


def reference_simplex_min(A, b, c, upper, basis, x_nb):
    """minimize c@x st A@x = b, 0 <= x <= upper from the feasible start
    (basis, x_nb), which is not modified.  Returns (x, duals)."""
    basis = basis.copy()
    status = _status(basis, x_nb)
    _reference_iterate(A, b, c, upper, basis, status, np.linalg.inv(A[:, basis]))
    return _reference_solution(A, b, c, upper, basis, status)


def _status(basis, x_nb):
    status = np.where(x_nb > 0.0, _AT_UPPER, _AT_LOWER).astype(np.int8)
    status[basis] = _BASIC
    return status


def _reference_solution(A, b, c, upper, basis, status):
    x = np.where(status == _AT_UPPER, upper, 0.0)
    x[basis] = 0.0
    x[basis] = np.linalg.solve(A[:, basis], b - A @ x)
    y = np.linalg.solve(A[:, basis].T, c[basis])
    return np.clip(x, 0.0, upper), y


def _reference_dual_iterate(A, b, c, u, basis, status):
    """Dual simplex on costs shifted by ``LP_COST_SHIFT * (1 + |c_j|) * u_j``
    away from zero reduced cost at each nonbasic of the start, u_j being
    ``default_rng(n).uniform(0.5, 1.5, n)`` for n columns.  Returns the
    basis inverse it ends with."""
    n = A.shape[1]
    start = status.copy()
    Binv = np.linalg.inv(A[:, basis])
    pivots = 0  # basis changes since Binv was last inverted from scratch

    for _ in range(lp._MAX_PIVOTS):
        sign = np.where(start == _AT_UPPER, -1.0, 1.0)
        sign[start == _BASIC] = 0.0
        draws = np.random.default_rng(n).uniform(0.5, 1.5, n)
        shifted = c + lp.LP_COST_SHIFT * (1.0 + np.abs(c)) * draws * sign

        x = np.where(status == _AT_UPPER, u, 0.0)
        x[basis] = 0.0
        xb = Binv @ (b - A @ x)
        below = -xb
        above = xb - u[basis]
        violation = np.maximum(below, above)
        p = int(np.argmax(violation))
        if math.isnan(violation[p]):
            raise lp.LpError("basic values are not finite")
        if not violation[p] > lp.LP_FEAS_TOL:
            return Binv
        to_upper = above[p] > below[p]

        row = Binv[p] @ A
        y = shifted[basis] @ Binv
        red = shifted - y @ A
        # a nonbasic at its lower bound moves up (+1), one at its upper down (-1)
        direction = np.where(status == _AT_UPPER, -1.0, 1.0)
        direction[basis] = 0.0
        push = row * direction if to_upper else -row * direction
        eligible = push > lp.LP_RATIO_TOL
        if not eligible.any():
            raise lp.LpError("restricted LP is infeasible")
        ratios = np.full(n, math.inf)
        ratios[eligible] = np.abs(red[eligible]) / np.abs(row[eligible])
        j = int(np.argmin(ratios))

        alpha = Binv @ A[:, j]
        out = basis[p]
        basis[p] = j
        status[j] = _BASIC
        status[out] = _AT_UPPER if to_upper else _AT_LOWER
        Binv, pivots = _reference_inverse_update(Binv, alpha, p, pivots, A, basis)

    raise lp.LpError("pivot limit exceeded")


def _reference_inverse_update(Binv, alpha, pos, pivots, A, basis):
    pivots += 1
    if pivots == lp._REFACTOR_INTERVAL:
        return np.linalg.inv(A[:, basis]), 0
    # product-form update: the new inverse is E @ Binv, where the eta
    # matrix E turns alpha into the pos unit vector
    pivot_row = Binv[pos] / alpha[pos]
    Binv -= np.outer(alpha, pivot_row)
    Binv[pos] = pivot_row
    return Binv, pivots


def _reference_iterate(A, b, c, u, basis, status, Binv):
    r = A.shape[0]
    pivots = 0  # basis changes since Binv was last inverted from scratch

    for _ in range(lp._MAX_PIVOTS):
        x = np.where(status == _AT_UPPER, u, 0.0)
        x[basis] = 0.0
        x[basis] = Binv @ (b - A @ x)
        y = c[basis] @ Binv
        red = c - y @ A

        eligible = status != _BASIC
        eligible &= ((status == _AT_LOWER) & (red < -lp.LP_PIVOT_TOL)) | (
            (status == _AT_UPPER) & (red > lp.LP_PIVOT_TOL)
        )
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return
        j = int(idx[0])  # Bland's rule: the first improving column

        alpha = Binv @ A[:, j]
        increasing = status[j] == _AT_LOWER
        step = alpha if increasing else -alpha  # basic vars move by -step * theta
        xb = x[basis]
        ub = u[basis]

        to_lower = step > lp.LP_RATIO_TOL
        to_upper = (step < -lp.LP_RATIO_TOL) & np.isfinite(ub)
        ratios = np.full(r, math.inf)
        ratios[to_lower] = xb[to_lower] / step[to_lower]
        ratios[to_upper] = (ub[to_upper] - xb[to_upper]) / -step[to_upper]
        ratios = np.maximum(ratios, 0.0)  # absorb tiny feasibility drift
        theta_basic = float(ratios.min()) if r else math.inf

        if u[j] <= theta_basic + lp.LP_TIE_TOL:
            if math.isinf(u[j]):
                raise lp.LpError("LP is unbounded")
            # entering variable flips to its other bound, basis unchanged
            status[j] = _AT_UPPER if increasing else _AT_LOWER
            continue

        # Bland: among the minimal ratios, evict the lowest variable index; a
        # ratio only ties if its row would end within LP_TIE_TOL of its bound,
        # so a long step cannot push the true blocking row past its own
        tied = np.nonzero(ratios <= theta_basic + lp.LP_TIE_TOL)[0]
        if tied.size > 1:
            tied = tied[(ratios[tied] - theta_basic) * np.abs(step[tied]) <= lp.LP_TIE_TOL]
        leave_pos = int(min(tied, key=lambda i: basis[i]))
        out = basis[leave_pos]
        basis[leave_pos] = j
        status[j] = _BASIC
        status[out] = _AT_LOWER if to_lower[leave_pos] else _AT_UPPER
        Binv, pivots = _reference_inverse_update(Binv, alpha, leave_pos, pivots, A, basis)

    raise lp.LpError("pivot limit exceeded")


# Reference projection: the entropy kernels as they stood before the
# projection formed d in place of its scaled sort and the cap scan read
# its 1 - k/nu factors from CapParams, kept as an oracle that the lean
# kernels must match bit for bit.  Its cap scan is a plain loop over the
# same np.exp weights the kernel forms in one pass.


def reference_project(theta, params, order_hint=None):
    m, nu, eta = params.m, params.nu, params.eta
    cap = 1.0 / nu

    order, scaled = reference_ascending_order(theta, order_hint)
    np.multiply(scaled, -eta, out=scaled)  # -eta * sorted theta, descending
    # largest uncapped weight belongs to the smallest theta in the tail;
    # it fits under the cap by k = floor(nu) (or k = m - 1 at nu = m)
    stop = min(m, math.floor(nu) + 1)
    # lse[stop - k] = log(sum_{i >= k} exp(scaled[i])) for k < stop; lse[0]
    # folds the entries past stop around their maximum scaled[stop]
    lse = np.empty(stop + 1)
    if stop < m:
        top = scaled[stop]
        lse[0] = top + math.log(float(np.exp(scaled[stop:] - top).sum()))
    else:
        lse[0] = -math.inf  # logaddexp(-inf, x) == x: the plain suffix scan
    lse[1:] = scaled[stop - 1 :: -1]
    np.logaddexp.accumulate(lse, out=lse)

    k = reference_capped_count(scaled[:stop] - lse[stop:0:-1], nu, cap * (1.0 + CAP_REL_SLACK))
    remaining = 1.0 - k / nu
    lse_k = float(lse[stop - k])
    d_sorted = np.empty(m)
    d_sorted[:k] = cap
    d_sorted[k:] = remaining * np.exp(scaled[k:] - lse_k)
    d = np.empty(m)
    d[order] = d_sorted

    objective = entropy._closed_form_objective(theta, order, k, remaining, lse_k, params)
    return ProjectionResult(d, k, order, d_sorted, theta, objective)


def reference_capped_count(gaps, nu, bound):
    weights = (1.0 - np.arange(gaps.shape[0]) / nu) * np.exp(gaps)
    for k, weight in enumerate(weights.tolist()):
        if weight <= bound:
            return k
    return gaps.shape[0] - 1


def reference_ascending_order(theta, hint):
    if hint is not None:
        order = hint[theta[hint].argsort(kind="stable")]
        sorted_theta = theta[order]
        tied = sorted_theta[1:] == sorted_theta[:-1]
        if not np.any(tied & (order[1:] < order[:-1])):
            return order, sorted_theta
    order = theta.argsort(kind="stable")
    return order, theta[order]


def reference_min_linear(margins, nu, order):
    m = margins.shape[0]
    full = int(math.floor(nu))
    d_sorted = np.zeros(m)
    d_sorted[:full] = 1.0 / nu
    leftover = 1.0 - full / nu
    if leftover > ENTROPY_ZERO and full < m:
        d_sorted[full] = leftover
    d = np.empty(m)
    d[order] = d_sorted
    return float(d @ margins), d
