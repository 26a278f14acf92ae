"""Booster loops: the generic two-rule scheme and the LP baselines.

``run_scheme`` is the shared column-generation loop: per round it
projects onto the capped simplex, queries the weak learner, checks the
certified optimality gap, then keeps the better of a conditional
gradient update and an optional secondary update (a secondary that
fails numerically leaves the conditional-gradient update in place).
Ensemble weights are one vector with an entry per discovered column,
grown by a zero whenever the weak learner returns a new column.  Their
margins A @ w are carried from round to round: each update hands back
the margins of its candidate (the FW rule as ``base + lam * direction``,
the secondary as the A @ w it forms for its value), A @ w is re-derived
every ``_MARGIN_REFRESH`` rounds to bound the drift, and a round that
may stop re-derives it first, so the certificate and the final model
never read a carried vector.  The projection of the margins is carried
with them: a round that compares two candidates scores each as minus
the objective of the projection of exactly the margins it would keep,
and the winner's projection is the next round's distribution, so the
round does not project those margins again.  A round without a
comparison, a re-derivation and the certify re-check project afresh,
seeded with the previous round's sort order.  The loop calls the
entropy kernels (``entropy._project``, ``entropy._min_linear``), which
skip the public functions' input checks: every vector it projects is
one it formed itself.
The gain matrix grows in place by at most one column per round and
never loses one, so its column count identifies its column set.  The
LPBoost secondary depends only on the discovered columns and nu, so it
is solved once per column count and reused, with the projection of
its margins, on rounds whose weak learner returns a column already
held.  The ERLPBoost
secondary re-solves the smoothed problem over all discovered columns by
projected-Newton steps (``fw.newton_step``), warm-started at the
conditional-gradient candidate.
``run_lpboost`` is the classic fully-LP baseline with its own stopping
rule.  A weak learner answers ``query(d)`` with
``(hypothesis, gain column, edge)``; the hypothesis also identifies its
column in the gain matrix.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

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
from .lp import LpError, solve_edge_min
from .stumps import StumpLearner, pool_oracle  # StumpLearner: re-exported

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


class PoolOracleLearner:
    """Max-edge responses over a fully materialised gain matrix."""

    def __init__(self, A_full: GainMatrix):
        self.A_full = A_full

    @property
    def m(self) -> int:
        return self.A_full.m

    def query(self, d: np.ndarray):
        j = pool_oracle(self.A_full, d)
        # a contiguous copy: a strided dot would round the edge differently
        column = self.A_full.as_array()[:, j].copy()
        return self.A_full.hypothesis_ids[j], column, float(d @ column)


def default_iteration_cap(m: int, nu: float, eps: float) -> int:
    """Theoretical round bound ceil(32 * ln(m/nu) / eps^2) plus slack."""
    return math.ceil(32.0 * math.log(m / nu) / eps**2) + 16


def _start(learner, config: BoosterConfig):
    """Start state shared by both loops.

    Returns the params, the round cap, and the one-column gain matrix and
    edge of the weak learner's answer to the uniform distribution.
    """
    m = learner.m
    params = CapParams.from_tolerance(m, config.nu, config.eps)
    cap_rounds = (
        config.max_iterations
        if config.max_iterations is not None
        else default_iteration_cap(m, config.nu, config.eps)
    )
    hypothesis, column, edge0 = learner.query(np.full(m, 1.0 / m))
    return params, cap_rounds, GainMatrix([column], [hypothesis]), edge0


def run_scheme(data, learner, config: BoosterConfig):
    """Generic booster: certified stopping, FW rule vs secondary rule.

    Per round: distribution by entropy projection of the margins, weak
    learner query, gap eps_t = min running edge + smoothed objective,
    stop at eps_t <= eps/2, otherwise keep whichever of the FW and
    secondary candidates has the smaller smoothed objective (ties stay
    with FW).  The margins are carried, not rebuilt, and a round is
    certified only on a fresh A @ w (see the module docstring).  An
    ``LpError`` or ``LinAlgError`` from the secondary is logged as a
    warning and the round keeps the FW candidate.  The "lpboost"
    secondary is a function of (A, nu) alone, so its last successful
    weights and the projection of their margins are kept and reused while
    the learner returns known columns (``A.t`` unchanged); a failed solve
    is not kept, so the next round retries.  The "erlpboost" secondary
    depends on its warm start and a callable may keep state, so both run
    every round.  With secondary "none" and the short-step rule this is
    the plain corrective booster.
    """
    params, cap_rounds, A, min_edge = _start(learner, config)
    w = np.ones(1)
    marg = margins(A, w)  # carried from round to round, re-derived every _MARGIN_REFRESH
    proj = None  # the projection of marg, when the last comparison formed it
    order = None  # the latest projection's sort order, which seeds the next sort
    records: list[IterationRecord] = []
    converged = False
    lp_memo = None  # (A.t, weights, projection of their margins) of the last LPBoost solve

    for t in range(1, cap_rounds + 1):
        tic = time.perf_counter_ns()
        if t % _MARGIN_REFRESH == 0:
            marg, proj = margins(A, w), None
        proj, smoothed_obj, soft_margin_obj = _evaluate(marg, params, proj, order)
        order = proj.order

        hypothesis, column, edge_new = learner.query(proj.d)
        A, j_new = A.with_column(column, hypothesis)
        if j_new == w.size:
            w = np.append(w, 0.0)
        min_edge = min(min_edge, edge_new)
        eps_t = min_edge + smoothed_obj

        if eps_t <= config.eps / 2.0:
            # certify on a fresh A @ w, never on the carried margins; a round
            # that fails the re-check goes on from the fresh vector
            marg = margins(A, w)
            proj, smoothed_obj, soft_margin_obj = _evaluate(marg, params, None, order)
            order = proj.order
            eps_t = min_edge + smoothed_obj
        if eps_t <= config.eps / 2.0:
            converged = True
            records.append(
                IterationRecord(
                    t, edge_new, min_edge, smoothed_obj, soft_margin_obj, eps_t,
                    "fw", 0.0, False, time.perf_counter_ns() - tic,
                )
            )
            break

        fw_out = _fw_update(config.fw_rule, A, w, j_new, marg, proj.d, params, t)
        chosen_rule = "fw"
        w, marg, proj = fw_out.new_w, fw_out.margins, None
        if lp_memo is not None and lp_memo[0] == A.t:
            # known column: the restricted LP is the one already solved
            _, secondary_w, secondary_proj = lp_memo
        else:
            # the FW candidate doubles as the warm start for a corrective solve
            try:
                secondary_w = _secondary_update(
                    config.secondary, A, params, config.nu, fw_out.new_w
                )
            except (LpError, np.linalg.LinAlgError) as exc:
                logger.warning("round %d: secondary update failed (%s); keeping the FW step", t, exc)
                secondary_w = None
            if secondary_w is not None:
                secondary_proj = _project(margins(A, secondary_w), params)
                if config.secondary == "lpboost":
                    lp_memo = (A.t, secondary_w, secondary_proj)
        if secondary_w is not None:
            # each candidate's smoothed value is minus the objective of the
            # projection of its margins; the winner's projection starts the
            # next round
            fw_proj = _project(marg, params)
            if -secondary_proj.objective < -fw_proj.objective:
                chosen_rule = "secondary"
                w, marg, proj = secondary_w, secondary_proj.theta, secondary_proj
            else:
                proj = fw_proj

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


def _evaluate(marg, params, proj, order):
    """Projection of the margins and the round's two objectives.

    ``proj``, when given, is already the projection of ``marg`` and is
    used as it is; otherwise ``marg`` is projected, its sort seeded by
    ``order``.  Returns the projection, the smoothed objective and the
    soft-margin objective.
    """
    if proj is None:
        proj = _project(marg, params, order)
    soft_margin_obj, _ = _min_linear(marg, params.nu, proj.order)
    return proj, -proj.objective, soft_margin_obj


def _fw_update(rule, A, w, j_new, base, d, params, t) -> FwStepOutcome:
    if rule == "classic":
        return classic_step(A, w, j_new, base, t)
    if rule == "short_step":
        return short_step(A, w, j_new, base, d, params.eta)
    if rule == "line_search":
        return line_search_step(A, w, j_new, base, params)
    return pairwise_step(A, w, j_new, base, d, params)


def _secondary_update(secondary, A, params, nu, current_w):
    if secondary == "none":
        return None
    if secondary == "lpboost":
        return secondary_lpboost(A, nu)
    if secondary == "erlpboost":
        return secondary_erlpboost(A, params, start=current_w)
    return check_ensemble_weights(secondary(A, params), A)


def secondary_lpboost(A: GainMatrix, nu: float) -> np.ndarray:
    """Optimal restricted soft-margin weights from the edge-min LP dual."""
    return solve_edge_min(A, nu).w


def secondary_erlpboost(
    A: GainMatrix,
    params: CapParams,
    start: np.ndarray | None = None,
    gap_tol: float | None = None,
) -> np.ndarray:
    """Fully corrective weights over the discovered columns.

    Minimises the smoothed objective over the restricted simplex by
    projected-Newton iterations (``fw.newton_step``) until the
    linearised gap drops below eps/10 (the optional warm start, all
    weight on column 0 by default, does not change the guarantee).
    Each iteration projects G @ w once for the gap test and the step,
    which also reuses the gap test's column edges.  The caller's start
    goes through the checked ``capped_entropy_projection``; every later
    iterate is one the solve formed, and goes through the kernel.
    Hitting the inner cap logs a warning and returns the current iterate.
    """
    if A.t < 1:
        raise ValueError("gain matrix has no columns")
    tol = params.eps / 10.0 if gap_tol is None else gap_tol
    w = np.eye(1, A.t)[0] if start is None else start
    G = A.as_array()

    proj = capped_entropy_projection(G @ w, params)  # checks the caller's start once
    for _ in range(_ERLP_INNER_CAP):
        col_edges = proj.d @ G
        gap = float(col_edges.max() - col_edges @ w)
        if gap <= tol:
            return w
        w = newton_step(A, w, proj, params, col_edges)
        proj = _project(G @ w, params)
    logger.warning("fully corrective inner solve hit its %d-step cap", _ERLP_INNER_CAP)
    return w


def run_lpboost(data, learner, config: BoosterConfig):
    """Column-generation LP booster.

    Every round re-solves the restricted edge-min LP; the distribution
    is its primal optimum and the returned ensemble its dual.  Stops
    once the freshly queried hypothesis cannot beat the restricted
    value by more than eps.
    """
    params, cap_rounds, A, min_edge = _start(learner, config)
    records: list[IterationRecord] = []
    converged = False

    for t in range(1, cap_rounds + 1):
        tic = time.perf_counter_ns()
        sol = solve_edge_min(A, config.nu)
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
        A, _ = A.with_column(column, hypothesis)

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
