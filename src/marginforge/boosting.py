"""Booster loops: the generic two-rule scheme and the LP baselines.

``run_scheme`` is the shared column-generation loop: per round it
projects onto the capped simplex, queries the weak learner and checks
the certified optimality gap; a round that does not stop then keeps the
better of a conditional gradient update and an optional secondary update
(a secondary that fails numerically leaves the conditional-gradient
update in place).  Every round, the certified one included, ends in its
one ``IterationRecord``, and the loop leaves by one exit.
Ensemble weights are one vector with an entry per discovered column,
grown by a zero whenever the weak learner returns a new column.  Beside
them the loop carries one round state, ``proj``: every round ends holding
the projection of the margins A @ w it keeps, and the next round reads
from it its distribution, its margins (the FW rule's base), its objective
and its sort order, which seeds the next sort.  Each candidate is
projected once, the FW rule's ``base + lam * direction`` right after its
step and the secondary's A @ w inside the secondary, and the one whose
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
The gain matrix grows in place by at most one column per round and
never loses one, so its column count identifies its column set.  An LP
solution depends only on the discovered columns and nu, so the loop
keeps the last one a secondary handed back (only "lpboost" hands one
back), with the projection of its margins, and a failed secondary drops
it.  The LP is thus solved at most once per column count, and the kept
solution is reused on rounds whose weak learner returns a column it
was solved over.  Any other column is priced first (LPBoost's
optimality test, Demiriz, Bennett & Shawe-Taylor 2002): if its edge
under the last LP's distribution is at most that LP's gamma, the last
optimum stays optimal over the grown matrix, so the round reuses it, its
weights padded with zeros, and solves nothing.  Each solve is
warm-started from the final basis of the last one
(``lp.solve_edge_min``'s ``start``), carried over every column added
since, and the projection of its weights is formed from the margins the
solve hands back.  The ERLPBoost secondary re-solves the smoothed
problem over all discovered columns by projected-Newton steps
(``fw.newton_step``), warm-started at the conditional-gradient candidate
and its projection.
``run_lpboost`` is the classic fully-LP baseline with its own stopping
rule, each round's LP warm-started from the last round's basis; that
stop is certified too, but has no round bound (see its docstring).  A
fit of either loop that runs out of rounds logs the one warning
"booster hit the iteration cap (N rounds)" from ``_finish_model``.  A weak
learner answers ``query(d)`` with ``(hypothesis, gain column, edge)``;
the hypothesis also identifies its column in the gain matrix.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .constants import EPS_FLOOR
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
    fw_rule: str = "short_step"
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
        if self.fw_rule not in FW_RULES:
            raise ValueError(f"unknown fw rule {self.fw_rule!r}")
        if not callable(self.secondary) and self.secondary not in SECONDARY_RULES:
            raise ValueError(f"unknown secondary rule {self.secondary!r}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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


def _start(learner, config: BoosterConfig):
    """Start state shared by both loops.

    Returns the params, the round cap (``max_iterations``, else the
    theoretical bound; at least 1, so every loop runs a round), and the
    one-column gain matrix and edge of the weak learner's answer to the
    uniform distribution.  ``config`` has already rejected an eps below
    EPS_FLOOR.
    """
    m = learner.m
    params = CapParams.from_tolerance(m, config.nu, config.eps)
    cap_rounds = config.max_iterations or default_iteration_cap(m, config.nu, config.eps)
    hypothesis, column, edge0 = learner.query(np.full(m, 1.0 / m))
    return params, cap_rounds, GainMatrix([column], [hypothesis]), edge0


def run_scheme(data, learner, config: BoosterConfig):
    """Generic booster: certified stopping, FW rule vs secondary rule.

    Per round: weak learner query at the distribution the last round
    ended holding, gap eps_t = min running edge + smoothed objective,
    stop at eps_t <= eps/2, otherwise keep whichever of the FW and
    secondary candidates has the smaller smoothed objective (ties stay
    with FW).  A round that stops takes no step: its record holds rule
    "fw", step 0.0 and good_step False.  The margins are carried, not
    rebuilt, and a round is certified only on a fresh A @ w (see the
    module docstring).  An ``LpError`` or ``LinAlgError`` from the
    secondary is logged as a warning and the round keeps the FW
    candidate.  An LP solution is a
    function of (A, nu) alone, so the last one the secondary handed back
    ("lpboost" does) and the projection of its margins are kept and
    reused while the learner returns columns that solution was solved
    over or prices out, and its final basis starts the next solve; a
    failed secondary drops them, so the next round retries from a cold
    start.  The "erlpboost" secondary depends on its warm start and a
    callable may keep state, and neither hands back an LP solution, so
    both run every round.  With secondary "none" and the short-step
    rule this is the plain corrective booster.
    """
    params, cap_rounds, A, min_edge = _start(learner, config)
    w = np.ones(1)
    proj = _project(margins(A, w), params)  # of the kept margins; every round ends holding one
    records: list[IterationRecord] = []
    lp_sol = None  # the last LPBoost optimum; secondary_proj holds the projection of its margins

    for t in range(1, cap_rounds + 1):
        tic = time.perf_counter_ns()
        if t % _MARGIN_REFRESH == 0:
            proj = _project(margins(A, w), params, proj.order)

        hypothesis, column, edge_new = learner.query(proj.d)
        A, j_new = A.with_column(column, hypothesis)
        if j_new == w.size:
            w = np.append(w, 0.0)
        min_edge = min(min_edge, edge_new)
        eps_t = min_edge - proj.objective
        if eps_t <= config.eps / 2.0:
            # certify on a fresh A @ w, never on the carried margins; a round
            # that fails the re-check goes on from the fresh projection
            proj = _project(margins(A, w), params, proj.order)
            eps_t = min_edge - proj.objective
        converged = eps_t <= config.eps / 2.0
        smoothed_obj = -proj.objective
        soft_margin_obj, _ = _min_linear(proj.theta, params.nu, proj.order)
        chosen_rule, step_size, good_step = "fw", 0.0, False  # a certified round takes no step

        if not converged:
            fw_out = _fw_update(config.fw_rule, A, w, j_new, proj.theta, proj.d, params, t, column)
            step_size, good_step = fw_out.step_size, fw_out.good_step
            w, proj = fw_out.new_w, _project(fw_out.margins, params, proj.order)
            if lp_sol is not None and (j_new < lp_sol.w.size or lp_sol.d @ column <= lp_sol.gamma):
                # the column is one the last LP solved over, or its edge under that
                # LP's distribution is at most its gamma: the last optimum stands
                # over A, with zero weight on every column added since
                pad = A.t - lp_sol.w.size  # most reusing rounds have none: no copy there
                secondary_w = np.concatenate((lp_sol.w, np.zeros(pad))) if pad else lp_sol.w
            else:
                # the FW candidate doubles as the warm start for a corrective solve
                try:
                    secondary_w, secondary_proj, lp_sol = _secondary_update(
                        config.secondary, A, params, w, proj, lp_sol
                    )
                except (LpError, np.linalg.LinAlgError) as exc:
                    logger.warning("round %d: secondary update failed (%s); keeping the FW step", t, exc)
                    secondary_w = lp_sol = None
            # a candidate's smoothed value is minus its projection's objective
            if secondary_w is not None and secondary_proj.objective > proj.objective:
                chosen_rule = "secondary"
                w, proj = secondary_w, secondary_proj

        records.append(
            IterationRecord(
                t, edge_new, min_edge, smoothed_obj, soft_margin_obj, eps_t,
                chosen_rule, step_size, good_step, time.perf_counter_ns() - tic,
            )
        )
        if converged:
            break

    return _finish_model(A, w, params, converged, cap_rounds), records


def _fw_update(rule, A, w, j_new, base, d, params, t, column) -> FwStepOutcome:
    """The FW rule's candidate; ``column`` is the learner's answer, column
    j_new of A, handed over so the rule need not read A's strided column."""
    if rule == "classic":
        return classic_step(w, j_new, column, base, t)
    if rule == "short_step":
        return short_step(w, j_new, column, base, d, params.eta)
    if rule == "line_search":
        return line_search_step(w, j_new, column, base, params)
    return pairwise_step(A, w, j_new, column, base, d, params)


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
    ``start`` until the linearised gap drops below eps/10 (the warm
    start does not change the guarantee).
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
    _require_finite(start)
    tol = params.eps / 10.0
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


def run_lpboost(data, learner, config: BoosterConfig):
    """Column-generation LP booster.

    Every round re-solves the restricted edge-min LP; the distribution
    is its primal optimum and the returned ensemble its dual.  Stops
    once the freshly queried hypothesis cannot beat the restricted
    value by more than eps, or, failing that, once it is a column A
    already holds: a held column's edge under the LP's distribution is
    at most gamma, so the restricted optimum is the learner's (LPBoost's
    exact optimality condition), and the loop ends within as many rounds
    as the learner has distinct columns, at any eps.
    The stop is certified, not heuristic: the best edge at any
    distribution is at least rho*, the full-pool optimum, and gamma
    equals the restricted soft margin within ``STRONG_DUALITY_TOL``, so
    the returned soft margin is at least rho* - eps.  No round bound
    comes with it: LPBoost may need Omega(m) rounds, where the scheme's
    certificate bounds them by O(ln(m/nu)/eps^2).
    """
    params, cap_rounds, A, min_edge = _start(learner, config)
    records: list[IterationRecord] = []
    sol = None

    for t in range(1, cap_rounds + 1):
        tic = time.perf_counter_ns()
        sol = solve_edge_min(A, config.nu, start=None if sol is None else sol.basis)
        w = sol.w
        hypothesis, column, edge_new = learner.query(sol.d)
        min_edge = min(min_edge, edge_new)
        objective = _project(sol.margins, params).objective  # sol.margins is A @ w
        records.append(
            IterationRecord(
                t, edge_new, min_edge, -objective, sol.rho, min_edge - objective,
                "secondary", 0.0, False, time.perf_counter_ns() - tic,
            )
        )
        converged = edge_new <= sol.gamma + config.eps
        if not converged:
            A, j_new = A.with_column(column, hypothesis)
            converged = j_new < w.size
        if converged:
            break

    # at the cap A holds the last query's column, which that solve did not see
    return _finish_model(A, np.pad(w, (0, A.t - w.size)), params, converged, cap_rounds), records


def _finish_model(A, w, params, converged, cap_rounds) -> TrainedModel:
    """The model of the weights ``w`` over A; a fit that ran all
    ``cap_rounds`` rounds without converging logs the one cap warning
    both loops share."""
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
