"""Booster loops: the generic two-rule scheme and the LP baselines.

``run_scheme`` is the shared column-generation loop: per round it
projects onto the capped simplex, queries the weak learner, checks the
certified optimality gap, then keeps the better of a conditional
gradient update and an optional secondary update (a secondary that
fails numerically leaves the conditional-gradient update in place).
Ensemble weights are one vector with an entry per discovered column,
grown by a zero whenever the weak learner returns a new column.  Beside
them the loop carries one round state, ``proj``: every round ends holding
the projection of the margins A @ w it keeps, and the next round reads
from it its distribution, its margins (the FW rule's base), its objective
and its sort order, which seeds the next sort.  Each candidate is
projected once, the FW rule's ``base + lam * direction`` right after its
step and the secondary's A @ w inside the secondary, and the one whose
projection has the larger objective (the smaller smoothed value) is
kept.  Every ``_MARGIN_REFRESH`` rounds, and on a round that may stop,
``proj`` becomes the projection of a fresh A @ w: the drift of the
carried margins stays bounded, and the certificate and the final model
never read them.  The loop calls the entropy kernels
(``entropy._project``, ``entropy._min_linear``), which skip the public
functions' input checks: every vector it projects is one it formed
itself.
The FW rule is handed the gain column the weak learner returned, which
is contiguous, where column j_new of A is a strided view of the gain
matrix's buffer.
The gain matrix grows in place by at most one column per round and
never loses one, so its column count identifies its column set.  The
LPBoost secondary depends only on the discovered columns and nu, so it
is solved once per column count and reused, with the projection of
its margins, on rounds whose weak learner returns a column already
held; each solve is warm-started from the final basis of the last one
(``lp.solve_edge_min``'s ``start``).  The ERLPBoost
secondary re-solves the smoothed problem over all discovered columns by
projected-Newton steps (``fw.newton_step``), warm-started at the
conditional-gradient candidate.
``run_lpboost`` is the classic fully-LP baseline with its own stopping
rule, each round's LP warm-started from the last round's basis.  A weak
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
    _min_linear,
    _project,
    capped_entropy_projection,
    capped_min_linear,
    smoothed_conjugate,
)
from .fw import FwStepOutcome, classic_step, line_search_step, newton_step, pairwise_step, short_step
from .lp import EdgeMinBasis, LpError, solve_edge_min

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
    theoretical bound), and the one-column gain matrix and edge of the
    weak learner's answer to the uniform distribution.  ``config`` has
    already rejected an eps below EPS_FLOOR.
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
    with FW).  The margins are carried, not rebuilt, and a round is
    certified only on a fresh A @ w (see the module docstring).  An
    ``LpError`` or ``LinAlgError`` from the secondary is logged as a
    warning and the round keeps the FW candidate.  The "lpboost"
    secondary is a function of (A, nu) alone, so its last successful
    weights and the projection of their margins are kept and reused while
    the learner returns known columns (``A.t`` unchanged), and its final
    basis starts the next solve; a failed solve drops them, so the next
    round retries from a cold start.  The "erlpboost" secondary
    depends on its warm start and a callable may keep state, so both run
    every round.  With secondary "none" and the short-step rule this is
    the plain corrective booster.
    """
    params, cap_rounds, A, min_edge = _start(learner, config)
    w = np.ones(1)
    proj = _project(margins(A, w), params)  # of the kept margins; every round ends holding one
    records: list[IterationRecord] = []
    converged = False
    lp_memo = None  # (A.t, weights, projection of their margins, basis) of the last LPBoost solve

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
        smoothed_obj = -proj.objective
        soft_margin_obj, _ = _min_linear(proj.theta, params.nu, proj.order)
        if eps_t <= config.eps / 2.0:
            converged = True
            records.append(
                IterationRecord(
                    t, edge_new, min_edge, smoothed_obj, soft_margin_obj, eps_t,
                    "fw", 0.0, False, time.perf_counter_ns() - tic,
                )
            )
            break

        fw_out = _fw_update(config.fw_rule, A, w, j_new, proj.theta, proj.d, params, t, column)
        chosen_rule = "fw"
        w, proj = fw_out.new_w, _project(fw_out.margins, params, proj.order)
        if lp_memo is not None and lp_memo[0] == A.t:
            # known column: the restricted LP is the one already solved
            _, secondary_w, secondary_proj, _ = lp_memo
        else:
            # the FW candidate doubles as the warm start for a corrective solve
            try:
                lp_start = None if lp_memo is None else lp_memo[3]
                secondary_w, secondary_proj, basis = _secondary_update(
                    config.secondary, A, params, config.nu, w, lp_start
                )
            except (LpError, np.linalg.LinAlgError) as exc:
                logger.warning("round %d: secondary update failed (%s); keeping the FW step", t, exc)
                secondary_w = lp_memo = None
            if secondary_w is not None and config.secondary == "lpboost":
                lp_memo = (A.t, secondary_w, secondary_proj, basis)
        # a candidate's smoothed value is minus its projection's objective
        if secondary_w is not None and secondary_proj.objective > proj.objective:
            chosen_rule = "secondary"
            w, proj = secondary_w, secondary_proj

        records.append(
            IterationRecord(
                t, edge_new, min_edge, smoothed_obj, soft_margin_obj, eps_t,
                chosen_rule, fw_out.step_size, fw_out.good_step,
                time.perf_counter_ns() - tic,
            )
        )

    model = _finish_model(A, w, params, converged)
    if not converged:
        logger.warning("booster hit the iteration cap (%d rounds)", cap_rounds)
    return model, records


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


def _secondary_update(secondary, A, params, nu, current_w, lp_start):
    """The secondary's weights, the projection of their margins and, for
    "lpboost", the final LP basis, solved from ``lp_start``; all None for
    secondary "none"."""
    if secondary == "none":
        return None, None, None
    if secondary == "erlpboost":
        return (*secondary_erlpboost(A, params, start=current_w), None)
    basis = None
    if secondary == "lpboost":
        w, basis = secondary_lpboost(A, nu, lp_start)
    else:
        w = check_ensemble_weights(secondary(A, params), A)
    return w, _project(margins(A, w), params), basis


def secondary_lpboost(A: GainMatrix, nu: float, start: EdgeMinBasis | None = None) -> tuple:
    """Optimal restricted soft-margin weights from the edge-min LP dual,
    and the LP's final basis (see ``solve_edge_min``), solved from the
    basis ``start`` of an earlier solve if one is given."""
    sol = solve_edge_min(A, nu, start=start)
    return sol.w, sol.basis


def secondary_erlpboost(A: GainMatrix, params: CapParams, start: np.ndarray) -> tuple:
    """Fully corrective weights over the discovered columns, and the
    projection of their margins ``A.as_array() @ w``.

    Minimises the smoothed objective over the restricted simplex by
    projected-Newton iterations (``fw.newton_step``) from the weights
    ``start`` until the linearised gap drops below eps/10 (the warm
    start does not change the guarantee).
    The gap test and the step share one projection of G @ w and its
    column edges.  The caller's start is projected here, through the
    checked ``capped_entropy_projection``; every later projection is the
    one ``newton_step`` returns with its iterate (the accepted full
    step's trial projection, or the kernel's projection of the iterate
    its line search reached), so the solve never projects the same
    margins twice, and the caller need not project the result again.
    Hitting the inner cap logs a warning and returns the current iterate,
    and so does a step that returns its input weights bit for bit: the
    next step would start from the same weights and projection, so the
    solve has reached the fixed point of its float arithmetic.
    """
    tol = params.eps / 10.0
    w = start
    G = A.as_array()

    proj = capped_entropy_projection(G @ w, params)  # checks the caller's start once
    for _ in range(_ERLP_INNER_CAP):
        col_edges = proj.d @ G
        gap = float(col_edges.max() - col_edges @ w)
        if gap <= tol:
            return w, proj
        new_w, proj = newton_step(A, w, proj, params, col_edges)
        if np.array_equal(new_w, w):  # a fixed point: every later step would return w again
            logger.warning(
                "fully corrective inner solve stalled at gap %r above its tolerance %r", gap, tol
            )
            return w, proj
        w = new_w
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
    """
    params, cap_rounds, A, min_edge = _start(learner, config)
    records: list[IterationRecord] = []
    converged = False
    sol = None

    for t in range(1, cap_rounds + 1):
        tic = time.perf_counter_ns()
        sol = solve_edge_min(A, config.nu, start=None if sol is None else sol.basis)
        w = sol.w
        hypothesis, column, edge_new = learner.query(sol.d)
        min_edge = min(min_edge, edge_new)
        smoothed_obj = smoothed_conjugate(-margins(A, w), params)
        records.append(
            IterationRecord(
                t, edge_new, min_edge, smoothed_obj, sol.rho,
                min_edge + smoothed_obj, "secondary", 0.0, False,
                time.perf_counter_ns() - tic,
            )
        )
        if edge_new <= sol.gamma + config.eps:
            converged = True
            break
        A, j_new = A.with_column(column, hypothesis)
        if j_new < w.size:
            converged = True
            break

    # at the cap A holds the last query's column, which that solve did not see
    model = _finish_model(A, np.pad(w, (0, A.t - w.size)), params, converged)
    if not converged:
        logger.warning("LP booster hit the iteration cap (%d rounds)", cap_rounds)
    return model, records


def _finish_model(A, w, params, converged) -> TrainedModel:
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
