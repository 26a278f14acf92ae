"""Pluggable conditional-gradient update rules for the booster loop.

Each rule maps the current ensemble weights (a vector with one entry
per gain column), the round's projection ``proj`` of their margins and
a newly discovered column to new weights on the simplex, without
modifying the weights, projection or column it was given.  The margins
A @ w are ``proj.theta`` (``base`` below) and the distribution the
short and pairwise rules read is ``proj.d``, so the two come from one
projection and cannot disagree.  A rule also returns the new margins as
``base + lam * direction``, formed in place in the direction vector it
already holds (the same bits), so a caller can carry the margins from
round to round instead of rebuilding A @ w; they agree with A @ new_w up
to rounding and to the support entries ``_normalise`` drops.
``good_step`` records whether a pairwise move stopped short of its mass
cap; for the other rules the cap is 1.

Every rule takes the new column itself, column ``e_new`` of the gain
matrix, as the argument after ``e_new``; only the pairwise rule reads
the gain matrix, for its away column.  The booster loop passes the column its
weak learner just returned: that vector is contiguous, where a column
of A is a strided view of the m x capacity buffer that touches one
cache line per entry.  A column whose shape is not that of ``base`` is
rejected, so a length-1 vector cannot broadcast.

The line-search and pairwise rules minimise the smoothed objective
exactly along their segment.  The slope there is nondecreasing and has
a closed-form derivative, so the root is found by Newton's method kept
inside a sign bracket, at about six entropy projections per step.  The
search starts from ``proj``, the projection at lam 0, and the others run
through the unchecked kernel ``entropy._project`` on vectors the search
forms itself.  All four public rules check their inputs once, on entry,
through ``_direction``: it checks the column's shape, forms ``column -
base`` and tests that one difference for finiteness on its largest and
smallest entries, the two values the short step's denominator reads.
Only when the test fails does it scan the inputs, to name a non-finite
one; finite inputs whose difference overflows are refused as an
overflow, not carried as a NaN step.

``newton_step`` is the projected-Newton step of ERLPBoost's fully
corrective solve: ``_hessian`` is the matrix form of the curvature in
``_slope_and_curvature``, and ``_simplex_qp`` minimises the resulting
quadratic model over the simplex by a primal active-set method.  The
full step to that minimiser is taken when it decreases the smoothed
objective enough (Armijo's test, one projection).  Otherwise the line
search runs along the segment to it, seeded with the projections at both
ends, and stops at the first point it evaluates that meets the strong
Wolfe conditions (Nocedal & Wright 2006, *Numerical Optimization*,
§3.1): a Newton method needs a sufficient step, not an exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    LINE_SEARCH_MAX_ITERS,
    LINE_SEARCH_TOL,
    NEWTON_ARMIJO,
    NEWTON_CURVATURE,
    NEWTON_RIDGE,
    QP_MULTIPLIER_TOL,
    SUPPORT_DROP_TOL,
)
from .core import CapParams, GainMatrix
from .entropy import ProjectionResult, _project, _require_finite

_QP_MAX_ITERS = 1_000  # safeguard: each iteration adds or releases one bound


@dataclass(frozen=True)
class FwStepOutcome:
    new_w: np.ndarray
    step_size: float
    good_step: bool
    margins: np.ndarray  # base + step_size * direction, carried in place of A @ new_w


def classic_step(
    w: np.ndarray, e_new: int, column: np.ndarray, proj: ProjectionResult, t: int
) -> FwStepOutcome:
    """Harmonic step size 2/(t+2); t=0 replaces the ensemble outright."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    direction = _direction(column, proj.theta)[0]
    lam = 2.0 / (t + 2.0)
    return _toward(w, e_new, lam, proj.theta, direction)


def short_step(
    w: np.ndarray, e_new: int, column: np.ndarray, proj: ProjectionResult, eta: float
) -> FwStepOutcome:
    """Step minimising the smoothness upper bound, clipped to [0, 1].

    lam = [d @ (column - A w)] / [eta * ||column - A w||_inf^2];
    a zero denominator (new column equals the current mix) gives 0.
    Finite inputs whose products overflow keep the step the formula
    gives.
    """
    base = proj.theta
    direction, top, bottom = _direction(column, base)
    try:
        denom = eta * max(top, -bottom) ** 2  # ||direction||_inf^2
    except OverflowError:  # the Python float square leaves float range
        denom = math.inf
    slope = float(proj.d @ direction)
    lam = 0.0 if denom <= 0.0 else min(1.0, max(0.0, slope / denom))
    return _toward(w, e_new, lam, base, direction)


def line_search_step(
    w: np.ndarray, e_new: int, column: np.ndarray, proj: ProjectionResult, params: CapParams
) -> FwStepOutcome:
    """Exact minimisation of the smoothed objective along the segment."""
    direction = _direction(column, proj.theta)[0]
    lam = _line_search(proj.theta, direction, 1.0, params, proj)
    return _toward(w, e_new, lam, proj.theta, direction)


def pairwise_step(
    A: GainMatrix,
    w: np.ndarray,
    e_new: int,
    column: np.ndarray,
    proj: ProjectionResult,
    params: CapParams,
) -> FwStepOutcome:
    """Move mass from the worst active column onto the new one.

    The away column, read from A, is the support column of least edge
    d @ A[:, j] (ties to the lowest index) and caps the step at its
    coefficient; hitting the cap drops it from the support and counts as
    a bad step.
    """
    base = proj.theta
    _direction(column, base)  # the input check: this rule steps from the away column
    support = np.flatnonzero(w)
    if support.size == 0:
        raise ValueError("pairwise step needs a non-empty support")
    G = A.as_array()
    away_idx = int(support[np.argmin((proj.d @ G)[support])])
    cap = float(w[away_idx])

    direction = column - G[:, away_idx]
    lam = _line_search(base, direction, cap, params, proj)

    new_w = w.copy()
    new_w[away_idx] -= lam
    new_w[e_new] += lam
    return FwStepOutcome(_normalise(new_w), lam, lam < cap, _step_margins(base, lam, direction))


def _direction(column: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``column - base``, the direction from the margins to the new column,
    with its largest and smallest entries, once ``column`` is of
    ``base``'s shape and the direction is finite.

    The finiteness test reads the two extremes: a NaN reaches both and an
    infinity one of them.  Only when it fails are the inputs scanned, to
    name a non-finite one; finite inputs whose difference overflows are
    refused as such.
    """
    if column.shape != base.shape:
        raise ValueError(f"new column of shape {column.shape} for margins of shape {base.shape}")
    direction = column - base
    top, bottom = float(np.maximum.reduce(direction)), float(np.minimum.reduce(direction))
    if not (math.isfinite(top) and math.isfinite(bottom)):
        _require_finite(base=base, column=column)
        raise ValueError("new column minus margins overflows")
    return direction, top, bottom


def _toward(w, e_new, lam, base, direction) -> FwStepOutcome:
    """Outcome of the step of size lam from w toward column e_new."""
    return FwStepOutcome(_mix(w, e_new, lam), lam, lam < 1.0, _step_margins(base, lam, direction))


def _step_margins(base: np.ndarray, lam: float, direction: np.ndarray) -> np.ndarray:
    """``base + lam * direction``, formed in ``direction``, which the rule
    formed itself and no longer needs; the same bits."""
    direction *= lam
    direction += base
    return direction


def newton_step(
    A: GainMatrix,
    w: np.ndarray,
    proj: ProjectionResult,
    params: CapParams,
    col_edges: np.ndarray,
) -> tuple[np.ndarray, ProjectionResult]:
    """Projected-Newton step of the smoothed objective over the simplex.

    ``proj`` must be the projection of margins(A, w), or of margins that
    stand for them, such as a booster round's carried margins of w; the
    step reads the margins as ``proj.theta``.  ``col_edges`` are its
    column edges ``proj.d @ A.as_array()``.  The quadratic model at w
    (gradient -col_edges, Hessian ``_hessian``) is minimised over the
    simplex from w.  The full step to that minimiser v is tried first:
    it is taken when the slope s0 toward v is negative and the smoothed
    objective at v is at most its value at w plus NEWTON_ARMIJO * s0
    (Armijo's sufficient decrease).  Otherwise the line search runs along
    the segment from w to v with ``proj`` as its value at 0 and the
    refused trial's projection as its value at 1, and stops at a strong
    Wolfe point.  Should it return 0, the step goes toward the column of
    largest edge instead, by the exact search: the slope there is minus
    the conditional-gradient gap, so any w with a positive gap moves.
    Returns the new weights and the projection of their margins
    margins(A, new_w), which a caller may use in place of projecting
    again.
    """
    _require_finite(w=w)
    G = A.as_array()
    v = _simplex_qp(_hessian(G, proj, params), -col_edges, w)
    direction = v - w
    g_direction = G @ direction
    slope0 = -float(proj.d @ g_direction)
    trial = None
    if slope0 < 0.0:
        full = _normalise(v)
        trial = _project(G @ full, params)
        if -trial.objective <= -proj.objective + NEWTON_ARMIJO * slope0:
            return full, trial
    lam = _line_search(proj.theta, g_direction, 1.0, params, at_zero=proj, at_hi=trial, wolfe=True)
    if lam > 0.0:
        new_w = _normalise(w + lam * direction)
    else:
        j_best = int(np.argmax(col_edges))
        lam = _line_search(proj.theta, G[:, j_best] - proj.theta, 1.0, params, at_zero=proj)
        new_w = _mix(w, j_best, lam)
    return new_w, _project(G @ new_w, params)


def _line_search(
    base: np.ndarray,
    direction: np.ndarray,
    hi: float,
    params: CapParams,
    at_zero: ProjectionResult,
    at_hi: ProjectionResult | None = None,
    wolfe: bool = False,
) -> float:
    """Root in [0, hi] of the directional derivative of the smoothed objective.

    The slope at lam is -(d(lam) @ direction) with d(lam) the entropy
    projection at base + lam*direction; it is nondecreasing.  Returns 0
    when the slope at 0 is nonnegative and hi when the slope at hi is
    nonpositive.  Otherwise it keeps a bracket lo < root <= up and takes
    the Newton point lam - s/s' when s' > 0, the point lies inside the
    open bracket and the step is at most half the move before last (the
    safeguard of Numerical Recipes' rtsafe, which breaks Newton cycles
    where s bends from convex to concave); else the bracket midpoint.
    It stops when the bracket or the Newton step is at most
    LINE_SEARCH_TOL, or after LINE_SEARCH_MAX_ITERS evaluations.
    ``at_zero`` is the projection of base, the one at lam = 0, which the
    caller already holds; ``at_hi``, when given, stands for the one at hi
    likewise (the Newton step passes its refused trial, the projection of
    the normalised end point); without it the search projects base +
    hi*direction itself, as it does at every lam the loop tries.  With
    ``wolfe`` it also stops at the first lam the loop evaluates where
    both strong Wolfe conditions hold: the smoothed objective is at most
    its value at 0 plus NEWTON_ARMIJO * lam * s(0), and |s(lam)| <=
    NEWTON_CURVATURE * |s(0)|.
    """
    s_lo, ds_lo = _slope_and_curvature(direction, params, at_zero)
    if s_lo >= 0.0:
        return 0.0
    if at_hi is None:
        at_hi = _project(base + hi * direction, params)
    s_up, _ = _slope_and_curvature(direction, params, at_hi)
    if s_up <= 0.0:
        return hi
    lo, up = 0.0, hi
    lam, s, ds = 0.0, s_lo, ds_lo
    last_move = older_move = hi  # the two latest moves, newest first
    for _ in range(LINE_SEARCH_MAX_ITERS):
        if up - lo <= LINE_SEARCH_TOL:
            break
        step = s / ds if ds > 0.0 else math.inf
        if abs(step) <= LINE_SEARCH_TOL:
            return min(max(lam - step, lo), up)
        newton = lam - step
        if lo < newton < up and 2.0 * abs(step) <= older_move:
            nxt = newton
        else:
            nxt = 0.5 * (lo + up)
        older_move, last_move = last_move, abs(nxt - lam)
        lam = nxt
        proj = _project(base + lam * direction, params)
        s, ds = _slope_and_curvature(direction, params, proj)
        if (
            wolfe
            and abs(s) <= NEWTON_CURVATURE * -s_lo
            and -proj.objective <= -at_zero.objective + NEWTON_ARMIJO * lam * s_lo
        ):
            return lam
        if s >= 0.0:
            up = lam
        else:
            lo = lam
    return 0.5 * (lo + up)


def _slope_and_curvature(
    direction: np.ndarray, params: CapParams, proj: ProjectionResult
) -> tuple[float, float]:
    """Slope s and its derivative s' along ``direction`` at the point
    ``proj`` projects, read off that one projection alone.

    On a fixed capped set, with U the uncapped entries, u = direction and
    R = 1 - k/nu their mass, s' = eta * (sum_U d u^2 - (sum_U d u)^2 / R),
    eta times the variance of u under d restricted to U.
    """
    slope = -float(proj.d @ direction)
    k = proj.capped_count
    remaining = 1.0 - k / params.nu
    if remaining <= 0.0:
        return slope, 0.0
    u = direction[proj.order[k:]]
    du = proj.d_sorted[k:] * u
    first = float(du.sum())
    return slope, params.eta * (float(du @ u) - first * first / remaining)


def _hessian(G: np.ndarray, proj: ProjectionResult, params: CapParams) -> np.ndarray:
    """Hessian in w of the smoothed objective at the projection of G @ w.

    On the fixed capped set of ``proj``, with U the uncapped entries and
    R = 1 - k/nu their mass, H = eta * G_U^T (Diag(d_U) - d_U d_U^T / R) G_U,
    the matrix form of ``_slope_and_curvature``: u @ H @ u is s' along
    G @ u.  It is positive semidefinite and singular whenever columns
    are collinear on U.
    """
    t = G.shape[1]
    k = proj.capped_count
    remaining = 1.0 - k / params.nu
    if remaining <= 0.0:
        return np.zeros((t, t))
    G_free = G.take(proj.order[k:], axis=0)
    dG = proj.d_sorted[k:, None] * G_free
    first = dG.sum(axis=0)
    H = G_free.T @ dG
    H -= first[:, None] * first / remaining
    H *= params.eta
    return H


def _simplex_qp(H: np.ndarray, g: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Minimiser over the simplex of g @ u + u @ H_r @ u / 2, u = v - start.

    H_r is H plus NEWTON_RIDGE * max(1, max diag H) on the diagonal.  The
    ridge keeps every KKT system regular when H is singular (a stump
    and its complement are collinear) and pulls the minimiser toward
    start along directions H leaves flat.  Primal active-set method,
    warm-started at start with its zero entries as the working set of
    bounds: each iteration solves the KKT system of the model on the
    free entries with sum(v) = 1 and moves toward its solution, either
    until a free entry reaches zero, which joins the working set, or all
    the way.  At the minimiser of a face it releases the bound with the
    most negative multiplier and stops once none is below
    -QP_MULTIPLIER_TOL, or when the bound it just released blocks again
    with a zero step (a rounding artefact that would otherwise cycle).
    """
    t = g.size
    H_r = H.copy()
    diag = H_r.reshape(-1)[:: t + 1]  # a view: the ridge lands on H_r's diagonal
    diag += NEWTON_RIDGE * max(1.0, float(diag.max()))
    c = g - H_r @ start
    v = start.copy()
    free = v > 0.0
    released = -1
    kkt_buf, rhs_buf = np.empty((t + 1, t + 1)), np.empty(t + 1)  # reused by every KKT solve
    for _ in range(_QP_MAX_ITERS):
        F = free.nonzero()[0]
        n = F.size
        kkt, rhs = kkt_buf[: n + 1, : n + 1], rhs_buf[: n + 1]
        if n == t:  # no bound in the working set, the usual case
            kkt[:n, :n] = H_r
            np.negative(c, out=rhs[:n])
        else:
            kkt[:n, :n] = H_r[F][:, F]
            np.negative(c[F], out=rhs[:n])
        kkt[:n, n] = kkt[n, :n] = 1.0
        kkt[n, n] = 0.0
        rhs[n] = 1.0
        sol = np.linalg.solve(kkt, rhs)
        v_free = v[F]
        p = sol[:n] - v_free
        shrink = (p < 0.0).nonzero()[0]
        if shrink.size:
            ratios = np.maximum(v_free[shrink], 0.0) / -p[shrink]
            i = ratios.argmin()
            if ratios[i] < 1.0:
                block = F[shrink[i]]
                if block == released and ratios[i] == 0.0:
                    break
                v[F] = v_free + ratios[i] * p
                v[block] = 0.0
                free[block] = False
                released = -1
                continue
        v[F] = sol[:n]
        if n == t:
            break
        bound = (~free).nonzero()[0]
        multipliers = H_r[bound] @ v + c[bound] + sol[n]
        j = multipliers.argmin()
        if multipliers[j] >= -QP_MULTIPLIER_TOL:
            break
        released = int(bound[j])
        free[released] = True
    return np.maximum(v, 0.0)


def _mix(w: np.ndarray, e_new: int, lam: float) -> np.ndarray:
    mixed = (1.0 - lam) * w
    mixed[e_new] += lam
    return _normalise(mixed)


def _normalise(w: np.ndarray) -> np.ndarray:
    """Entries at or below SUPPORT_DROP_TOL become exact zeros; the rest sum to 1."""
    kept = np.where(w > SUPPORT_DROP_TOL, w, 0.0)
    total = np.add.reduce(kept)
    if total <= 0.0:
        raise ValueError("update emptied the ensemble support")
    kept /= total
    return kept
