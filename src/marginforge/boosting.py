"""The booster loop: one Frank-Wolfe scheme with an optional LP half.

``run_scheme`` is the one column-generation loop.  Per round it
projects onto the capped simplex, queries the weak learner and checks
the certified optimality gap; a round that does not stop then keeps the
better of a conditional gradient update and an optional secondary update
(a secondary that fails numerically leaves the conditional-gradient
update in place).  Every round, the certified one included, forms its
gap and objectives from the one projection it holds at its stop test,
ends in its one ``IterationRecord``, and the loop leaves by one exit.
Ensemble weights are one vector with an entry per discovered column,
grown by a zero whenever the weak learner returns a new column.  Beside
them the loop carries one round state, ``proj``: every round ends holding
the projection of the margins A @ w it keeps, and the next round reads
from it its distribution, its objective and its sort order, which seeds
the next sort; the FW rule takes it whole, as its margins and their
distribution.  Each candidate is projected once, the FW rule's ``base +
lam * direction`` right after its step and the secondary's A @ w inside
the secondary, and the one whose
projection has the larger objective (the smaller smoothed value) is
kept.  The ERLPBoost secondary starts from the FW candidate and the
projection the round just formed for it, so it projects only the
iterates its own steps reach.  Every ``_MARGIN_REFRESH`` rounds, and on
a round that may stop, ``proj`` becomes the projection of a fresh A @ w:
the drift of the carried margins stays bounded, and the certificate and
the final model never read them.  The loop calls the entropy kernels
(``entropy._project``, ``entropy._min_linear``), which skip the public
functions' input checks: every vector it projects is one it formed
itself.
The FW rule is handed the gain column the weak learner returned, which
is contiguous, where column j_new of A is a strided view of the gain
matrix's buffer.
The "lpboost" secondary is the LP half, LPBoost's own round (Demiriz,
Bennett & Shawe-Taylor 2002): every round that does not stop solves the
restricted edge-min LP over the discovered columns, warm-started from
the final basis of the last solve (``lp.solve_edge_min``'s ``start``)
carried over every column added since, and then queries the weak
learner once more, at the solution's d.  Every d in the capped simplex
has a best edge of at least rho*, so that edge lowers the running min
edge, from the next round's gap on, and the min edge stays an upper
bound on rho*.  A column A does not hold joins A with zero weight in
both candidates.  A failed solve drops the last solution, so the next
round solves from a cold start.  The projection of the LP's weights is
formed from the margins the solve hands back.  The ERLPBoost secondary
re-solves the smoothed problem over all discovered columns by
projected-Newton steps (``fw.newton_step``), warm-started at the
conditional-gradient candidate and its projection.
With no FW rule (``fw_rule=None``, which needs the "lpboost" secondary)
a round is the LP half alone, and the loop is LPBoost: it solves,
queries at the LP's d, tests LPBoost's stop and adds the column, with no
projection query, no certificate and no FW step; the projection it
holds is that of the LP's margins.  Its stop is LPBoost's rule, which
is certified too but has no round bound (see ``run_scheme``).  A fit
that runs out of rounds logs the one warning "booster hit the iteration
cap (N rounds)" from ``_finish_model``.  A weak learner answers
``query(d)`` with ``(hypothesis, gain column, edge)``; the hypothesis
also identifies its column in the gain matrix.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .constants import EPS_FLOOR, INNER_GAP_DIVISOR
from .core import (
    CapParams,
    GainMatrix,
    check_ensemble_weights,
    margins,
)
from .entropy import (
    ProjectionResult,
    _min_linear,
    _project,
    _require_finite,
    capped_min_linear,
    smoothed_conjugate,
)
from .fw import FwStepOutcome, classic_step, line_search_step, newton_step, pairwise_step, short_step
from .lp import EdgeMinBasis, EdgeMinSolution, LpError, solve_edge_min

logger = logging.getLogger(__name__)

FW_RULES = ("classic", "short_step", "line_search", "pairwise")
SECONDARY_RULES = ("none", "lpboost", "erlpboost")

_ERLP_INNER_CAP = 10_000
_MARGIN_REFRESH = 64  # rounds between re-derivations of the carried margins A @ w


@dataclass(frozen=True)
class BoosterConfig:
    eps: float
    nu: float
    fw_rule: str | None = "short_step"  # None: the LP half alone (LPBoost), secondary "lpboost"
    secondary: object = "none"  # name from SECONDARY_RULES or callable(A, params)
    max_iterations: int | None = None

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be a positive finite number")
        if self.eps < EPS_FLOOR:  # the gap certificate is formed from float sums of size about 1
            raise ValueError(
                f"eps={self.eps!r} is too small: below EPS_FLOOR={EPS_FLOOR!r}, "
                "no float gap can certify it"
            )
        if not callable(self.secondary) and self.secondary not in SECONDARY_RULES:
            raise ValueError(f"unknown secondary rule {self.secondary!r}")
        if self.fw_rule is None:
            if self.secondary != "lpboost":
                raise ValueError(
                    f"fw_rule=None runs the LP half alone: it needs secondary='lpboost', "
                    f"not secondary={self.secondary!r}"
                )
        elif self.fw_rule not in FW_RULES:
            raise ValueError(f"unknown fw rule {self.fw_rule!r}")
        cap = self.max_iterations
        if cap is not None and not (isinstance(cap, numbers.Integral) and cap >= 1):
            raise ValueError(f"max_iterations must be at least 1, an integer; got {cap!r}")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    edge_new: float
    min_edge_so_far: float
    smoothed_obj: float
    soft_margin_obj: float
    eps_t: float
    chosen_rule: str  # "fw" or "secondary"
    step_size: float
    good_step: bool
    lp_query: bool  # beside its FW half, the round queried the learner at its LP solve's d
    lp_column_added: bool  # ... and that query's column was new to A
    wall_time_ns: int


@dataclass(frozen=True)
class TrainedModel:
    hypotheses: list
    weights: list[float]
    soft_margin_obj: float
    smoothed_obj: float
    converged: bool


def default_iteration_cap(m: int, nu: float, eps: float) -> int:
    """Theoretical round bound ceil(32 * ln(m/nu) / eps^2) plus slack.

    Finite for every eps ``BoosterConfig`` accepts; a direct call with an
    eps whose bound overflows gets a ValueError that names eps.
    """
    try:
        return math.ceil(32.0 * math.log(m / nu) / eps**2) + 16
    except (ZeroDivisionError, OverflowError):  # eps^2 underflows, or the bound overflows
        raise ValueError(
            f"eps={eps!r} is too small: the round bound 32*ln(m/nu)/eps^2 overflows"
        ) from None


def run_scheme(data, learner, config: BoosterConfig):
    """Generic booster: certified stopping, FW rule vs secondary rule.

    Per round: weak learner query at the distribution the last round
    ended holding, gap eps_t = min running edge + smoothed objective,
    stop at eps_t <= eps/2, otherwise keep whichever of the FW and
    secondary candidates has the smaller smoothed objective (ties stay
    with FW).  A round that stops takes no step: its record holds rule
    "fw", step 0.0 and good_step False.  The margins are carried, not
    rebuilt, and a round is certified only on a fresh A @ w (see the
    module docstring).  ``_fw_update`` passes the FW rule ``proj``, the
    projection the round tested, whose ``theta`` is the carried margins
    and whose ``d`` the distribution of the query.  An ``LpError`` or
    ``LinAlgError`` from the secondary is logged as a warning and the
    round keeps the FW candidate.  The "lpboost" secondary solves on
    every round that does not stop, from the final basis of the last
    solve (a failed one leaves the next to start cold), and then queries
    the learner at the solution's d (LPBoost's round): the edge lowers
    the min edge from the next round on, and a new column joins both
    candidates with zero weight.  The record flags the query (``lp_query``) and a new column
    (``lp_column_added``).  With secondary "none" and the short-step
    rule this is the plain corrective booster.

    With ``fw_rule=None`` every round is the LP half alone, which is
    LPBoost: the LP's distribution and its dual weights are the round's,
    and the query at its d is the round's one query, whose edge enters
    the min edge in the same round.  The record holds that edge, the
    smoothed value of the LP's weights, their soft margin (the capped
    min of the LP's margins, which is its ``rho`` bit for bit) and rule
    "secondary", with ``lp_query`` and ``lp_column_added`` false.  The
    loop stops once that edge is at most gamma + eps, adding no column,
    or once it is a column A already holds: a held column's edge under
    the LP's distribution is at most gamma, so the restricted optimum is
    the learner's (LPBoost's exact optimality condition), and the loop
    ends within as many rounds as the learner has distinct columns, at
    any eps.  The stop is certified, not heuristic: the best edge at any
    distribution is at least rho*, the full-pool optimum, and gamma
    equals the restricted soft margin within ``STRONG_DUALITY_TOL``, so
    the returned soft margin is at least rho* - eps.  No round bound
    comes with it: LPBoost may need Omega(m) rounds, where the scheme's
    certificate bounds them by O(ln(m/nu)/eps^2).  An ``LpError`` or
    ``LinAlgError`` from the solve is raised, since there is no other
    candidate.
    """
    m = learner.m
    params = CapParams.from_tolerance(m, config.nu, config.eps)  # config refused eps < EPS_FLOOR
    cap_rounds = config.max_iterations or default_iteration_cap(m, config.nu, config.eps)  # >= 1
    hypothesis, column, min_edge = learner.query(np.full(m, 1.0 / m))
    A, w = GainMatrix([column], [hypothesis]), np.ones(1)
    proj = _project(margins(A, w), params)  # of the kept margins; every round ends holding one
    records: list[IterationRecord] = []
    lp_only = config.fw_rule is None  # every round is the LP half alone: LPBoost
    lp_sol = None  # the last LP optimum, whose final basis starts the next solve
    lp_edge = math.inf  # the last LP query's edge, which lowers min_edge from the round after it

    for t in range(1, cap_rounds + 1):
        tic = time.perf_counter_ns()
        # a certified round takes no step and solves no LP; an LP-only round takes no FW step
        chosen_rule, step_size, good_step, lp_query, lp_column_added = "fw", 0.0, False, False, False
        if lp_only:
            # LPBoost's round: solve, query at the LP's d, stop by LPBoost's rule or add the column
            w, proj, lp_sol = _secondary_update(config.secondary, A, params, w, proj, lp_sol)
            chosen_rule = "secondary"
            hypothesis, column, edge_new = learner.query(lp_sol.d)
            min_edge = min(min_edge, edge_new)
            converged = edge_new <= lp_sol.gamma + config.eps
            if not converged:
                A, j_new = A.with_column(column, hypothesis)
                converged = j_new < w.size  # A holds the column: the LP is the learner's optimum
                if not converged:
                    w = np.append(w, 0.0)
        else:
            if t % _MARGIN_REFRESH == 0:
                proj = _project(margins(A, w), params, proj.order)
            hypothesis, column, edge_new = learner.query(proj.d)
            A, j_new = A.with_column(column, hypothesis)
            if j_new == w.size:
                w = np.append(w, 0.0)
            min_edge = min(min_edge, edge_new, lp_edge)
            if min_edge - proj.objective <= config.eps / 2.0:
                # certify on a fresh A @ w, never on the carried margins; a round
                # that fails the re-check goes on from the fresh projection
                proj = _project(margins(A, w), params, proj.order)
            converged = min_edge - proj.objective <= config.eps / 2.0
        # the record's objectives are those of the round's projection (on an
        # LP-only round its soft margin is the LP's rho, bit for bit)
        eps_t, smoothed_obj = min_edge - proj.objective, -proj.objective
        soft_margin_obj, _ = _min_linear(proj.theta, params.nu, proj.order)

        if not (converged or lp_only):
            fw_out = _fw_update(config.fw_rule, A, w, j_new, proj, params, t, column)
            step_size, good_step = fw_out.step_size, fw_out.good_step
            w, proj = fw_out.new_w, _project(fw_out.margins, params, proj.order)
            # the FW candidate doubles as the warm start for a corrective solve
            try:
                secondary_w, secondary_proj, lp_sol = _secondary_update(
                    config.secondary, A, params, w, proj, lp_sol
                )
            except (LpError, np.linalg.LinAlgError) as exc:
                logger.warning("round %d: secondary update failed (%s); keeping the FW step", t, exc)
                secondary_w = lp_sol = None
            if lp_sol is not None:
                # LPBoost's round: query at the new optimum's d; a column A does
                # not hold joins both candidates with zero weight
                lp_hypothesis, lp_column, lp_edge = learner.query(lp_sol.d)
                A, j_lp = A.with_column(lp_column, lp_hypothesis)
                lp_query, lp_column_added = True, j_lp == w.size
                if lp_column_added:
                    w, secondary_w = np.append(w, 0.0), np.append(secondary_w, 0.0)
            # a candidate's smoothed value is minus its projection's objective
            if secondary_w is not None and secondary_proj.objective > proj.objective:
                chosen_rule = "secondary"
                w, proj = secondary_w, secondary_proj

        records.append(
            IterationRecord(
                t, edge_new, min_edge, smoothed_obj, soft_margin_obj, eps_t, chosen_rule,
                step_size, good_step, lp_query, lp_column_added, time.perf_counter_ns() - tic,
            )
        )
        if converged:
            break

    return _finish_model(A, w, params, converged, cap_rounds), records


def _fw_update(rule, A, w, j_new, proj, params, t, column) -> FwStepOutcome:
    """The FW rule's candidate from the round's projection ``proj`` of the
    margins of w; ``column`` is the learner's answer, column j_new of A,
    handed over so the rule need not read A's strided column."""
    if rule == "classic":
        return classic_step(w, j_new, column, proj, t)
    if rule == "short_step":
        return short_step(w, j_new, column, proj, params.eta)
    if rule == "line_search":
        return line_search_step(w, j_new, column, proj, params)
    return pairwise_step(A, w, j_new, column, proj, params)


def _secondary_update(secondary, A, params, current_w, current_proj, last_lp):
    """The secondary's weights, the projection of their margins and, for
    "lpboost", the LP solution, solved from the final basis of the earlier
    solution ``last_lp`` if there is one; all None for secondary "none".  "erlpboost" starts from ``current_w`` and
    ``current_proj``, the projection of its margins."""
    if secondary == "none":
        return None, None, None
    if secondary == "erlpboost":
        return (*secondary_erlpboost(A, params, current_w, current_proj), None)
    if secondary == "lpboost":
        sol = secondary_lpboost(A, params.nu, None if last_lp is None else last_lp.basis)
        return sol.w, _project(sol.margins, params), sol  # sol.margins is A @ sol.w
    w = check_ensemble_weights(secondary(A, params), A)
    return w, _project(margins(A, w), params), None


# perfbench/tracer.py rebinds this name to time the LP solves
def secondary_lpboost(A: GainMatrix, nu: float, start: EdgeMinBasis | None = None) -> EdgeMinSolution:
    """The restricted edge-min LP's solution: its distribution and gamma,
    the optimal restricted soft-margin weights ``w`` from its dual with
    their margins, and its final basis (see ``solve_edge_min``), solved
    from the basis ``start`` of an earlier solve if one is given."""
    return solve_edge_min(A, nu, start=start)


def secondary_erlpboost(
    A: GainMatrix, params: CapParams, start: np.ndarray, start_proj: ProjectionResult
) -> tuple:
    """Fully corrective weights over the discovered columns, and the
    projection of their margins.

    Minimises the smoothed objective over the restricted simplex by
    projected-Newton iterations (``fw.newton_step``) from the weights
    ``start`` until the linearised gap drops to max(eps/10, eta * 2**-52)
    (the warm start does not change the guarantee).  The floor is the
    gap's float resolution: the gap is formed from d, whose entries
    carry a relative error of about eta times one ulp of margins in
    [-1, 1].  It binds below eps of about 1e-7, where a solve without it
    creeps by ulps to its inner cap.
    The gap test and the step share one projection and its column edges.
    ``start_proj`` is the caller's projection of the margins of
    ``start``: the booster round's projection of its FW candidate's
    carried margins, which the solve does not form again.  Only the
    start's finiteness is checked here.  Every later projection is the
    one ``newton_step`` returns with its iterate (the accepted full
    step's trial projection, or the kernel's projection of
    ``A.as_array() @ w`` at the iterate its line search reached), so the
    solve never projects the same margins twice, and the caller need not
    project the result again.
    Hitting the inner cap logs a warning and returns the current iterate,
    and so does a step that returns its start or an iterate the solve has
    already produced, bit for bit, at any period: after the start every
    projection is of the iterate's own margins, so a step is a function
    of the weights alone, and a repeated iterate is a cycle of the float
    arithmetic that no later step leaves.
    """
    _require_finite(start=start)
    tol = float(max(params.eps / INNER_GAP_DIVISOR, params.eta * math.ulp(1.0)))
    w, proj = start, start_proj
    G = A.as_array()
    seen = {w.tobytes()}  # every iterate so far; A's width is fixed within a solve
    for _ in range(_ERLP_INNER_CAP):
        col_edges = proj.d @ G
        gap = float(col_edges.max() - col_edges @ w)
        if gap <= tol:
            return w, proj
        new_w, new_proj = newton_step(A, w, proj, params, col_edges)
        key = new_w.tobytes()
        if key in seen:  # a cycle: the steps from new_w repeat the ones made before
            logger.warning(
                "fully corrective inner solve stalled at gap %r above its tolerance %r", gap, tol
            )
            return w, proj
        seen.add(key)
        w, proj = new_w, new_proj
    logger.warning("fully corrective inner solve hit its %d-step cap", _ERLP_INNER_CAP)
    return w, proj


def _finish_model(A, w, params, converged, cap_rounds) -> TrainedModel:
    """The model of the weights ``w`` over A; a fit that ran all
    ``cap_rounds`` rounds without converging logs the one cap warning."""
    if not converged:
        logger.warning("booster hit the iteration cap (%d rounds)", cap_rounds)
    check_ensemble_weights(w, A)
    marg = margins(A, w)
    soft_margin_obj, _ = capped_min_linear(marg, params.nu)
    support = np.flatnonzero(w)
    return TrainedModel(
        hypotheses=[A.hypothesis_ids[j] for j in support],
        weights=w[support].tolist(),
        soft_margin_obj=soft_margin_obj,
        smoothed_obj=smoothed_conjugate(-marg, params),
        converged=converged,
    )


def predict(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Sign of the weighted hypothesis vote; exact ties go to +1."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    width = features.shape[1]
    needed = max(h.feature for h in model.hypotheses) + 1
    if width < needed:
        raise ValueError(f"model needs {needed} features, data has {width}")
    score = np.zeros(features.shape[0])
    for coeff, hyp in zip(model.weights, model.hypotheses):
        score += coeff * hyp.predict(features)
    return np.where(score >= 0.0, 1.0, -1.0)
