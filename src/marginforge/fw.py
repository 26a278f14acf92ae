"""Pluggable conditional-gradient update rules for the booster loop.

Each rule maps the current ensemble weights (a vector with one entry
per gain column), their margins ``base`` = A @ w and a newly discovered
column to new weights on the simplex, without modifying the weights it
was given.  It also returns the new margins as ``base + lam * direction``,
the vector it already forms, so a caller can carry the margins from
round to round instead of rebuilding A @ w; they agree with A @ new_w up
to rounding and to the support entries ``_normalise`` drops.
``good_step`` records whether a pairwise move stopped short of its mass
cap; for the other rules the cap is 1.

The line-search and pairwise rules minimise the smoothed objective
exactly along their segment.  The slope there is nondecreasing and has
a closed-form derivative, so the root is found by Newton's method kept
inside a sign bracket, at about six entropy projections per step.
Those projections run through the unchecked kernel ``entropy._project``
on vectors the search forms itself; the public rules check once, on
entry, that the vector they search from is finite.

``newton_step`` is the projected-Newton step of ERLPBoost's fully
corrective solve: ``_hessian`` is the matrix form of the curvature in
``_slope_and_curvature``, ``_simplex_qp`` minimises the resulting
quadratic model over the simplex by a primal active-set method, and the
same line search runs along the segment to its minimiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    LINE_SEARCH_MAX_ITERS,
    LINE_SEARCH_TOL,
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
    A: GainMatrix, w: np.ndarray, e_new: int, base: np.ndarray, t: int
) -> FwStepOutcome:
    """Harmonic step size 2/(t+2); t=0 replaces the ensemble outright."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    lam = 2.0 / (t + 2.0)
    direction = A.as_array()[:, e_new] - base
    return _toward(w, e_new, lam, base, direction)


def short_step(
    A: GainMatrix, w: np.ndarray, e_new: int, base: np.ndarray, d: np.ndarray, eta: float
) -> FwStepOutcome:
    """Step minimising the smoothness upper bound, clipped to [0, 1].

    lam = [d @ (col_new - A w)] / [eta * ||col_new - A w||_inf^2];
    a zero denominator (new column equals the current mix) gives 0.
    """
    direction = A.as_array()[:, e_new] - base
    denom = eta * float(np.max(np.abs(direction))) ** 2
    lam = 0.0 if denom <= 0.0 else min(1.0, max(0.0, float(d @ direction) / denom))
    return _toward(w, e_new, lam, base, direction)


def line_search_step(
    A: GainMatrix, w: np.ndarray, e_new: int, base: np.ndarray, params: CapParams
) -> FwStepOutcome:
    """Exact minimisation of the smoothed objective along the segment."""
    _require_finite(base)
    direction = A.as_array()[:, e_new] - base
    lam = _line_search(base, direction, 1.0, params)
    return _toward(w, e_new, lam, base, direction)


def pairwise_step(
    A: GainMatrix, w: np.ndarray, e_new: int, base: np.ndarray, d: np.ndarray, params: CapParams
) -> FwStepOutcome:
    """Move mass from the worst active column onto the new one.

    The away column minimises d @ column over the support (ties to the
    lowest index) and caps the step at its coefficient; hitting the cap
    drops it from the support and counts as a bad step.
    """
    _require_finite(base)
    support = np.flatnonzero(w)
    if support.size == 0:
        raise ValueError("pairwise step needs a non-empty support")
    G = A.as_array()
    away_idx = int(support[np.argmin((d @ G)[support])])
    cap = float(w[away_idx])

    direction = G[:, e_new] - G[:, away_idx]
    lam = _line_search(base, direction, cap, params)

    new_w = w.copy()
    new_w[away_idx] -= lam
    new_w[e_new] += lam
    return FwStepOutcome(_normalise(new_w), lam, lam < cap, base + lam * direction)


def _toward(w, e_new, lam, base, direction) -> FwStepOutcome:
    """Outcome of the step of size lam from w toward column e_new."""
    return FwStepOutcome(_mix(w, e_new, lam), lam, lam < 1.0, base + lam * direction)


def newton_step(
    A: GainMatrix,
    w: np.ndarray,
    proj: ProjectionResult,
    params: CapParams,
    col_edges: np.ndarray,
) -> np.ndarray:
    """Projected-Newton step of the smoothed objective over the simplex.

    ``proj`` must be the projection of margins(A, w), and ``col_edges``
    its column edges ``proj.d @ A.as_array()``.  The quadratic model at w
    (gradient -col_edges, Hessian ``_hessian``) is minimised over the
    simplex from w, and the line search runs along the segment from w to
    that minimiser, starting from ``proj``.  Should it return 0, the step
    goes toward the column of largest edge instead: the slope there is
    minus the conditional-gradient gap, so any w with a positive gap
    moves.
    """
    _require_finite(w)
    G = A.as_array()
    v = _simplex_qp(_hessian(G, proj, params), -col_edges, w)
    direction = v - w
    lam = _line_search(proj.theta, G @ direction, 1.0, params, at_zero=proj)
    if lam > 0.0:
        return _normalise(w + lam * direction)
    j_best = int(np.argmax(col_edges))
    lam = _line_search(proj.theta, G[:, j_best] - proj.theta, 1.0, params, at_zero=proj)
    return _mix(w, j_best, lam)


def _line_search(
    base: np.ndarray,
    direction: np.ndarray,
    hi: float,
    params: CapParams,
    at_zero: ProjectionResult | None = None,
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
    ``at_zero``, when given, is the projection of base and replaces the
    one at lam = 0.
    """
    s_lo, ds_lo = _slope_and_curvature(base, direction, 0.0, params, at_zero)
    if s_lo >= 0.0:
        return 0.0
    s_up, _ = _slope_and_curvature(base, direction, hi, params)
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
        s, ds = _slope_and_curvature(base, direction, lam, params)
        if s >= 0.0:
            up = lam
        else:
            lo = lam
    return 0.5 * (lo + up)


def _slope_and_curvature(
    base: np.ndarray,
    direction: np.ndarray,
    lam: float,
    params: CapParams,
    proj: ProjectionResult | None = None,
) -> tuple[float, float]:
    """Slope s and its derivative s' at lam, from one entropy projection.

    On a fixed capped set, with U the uncapped entries, u = direction and
    R = 1 - k/nu their mass, s' = eta * (sum_U d u^2 - (sum_U d u)^2 / R),
    eta times the variance of u under d restricted to U.  A given
    ``proj`` (the projection at lam) is used instead of projecting.
    """
    if proj is None:
        proj = _project(base + lam * direction, params)
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
    G_free = G[proj.order[k:]]
    dG = proj.d_sorted[k:, None] * G_free
    first = dG.sum(axis=0)
    return params.eta * (G_free.T @ dG - np.outer(first, first) / remaining)


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
    H_r.flat[:: t + 1] += NEWTON_RIDGE * max(1.0, float(np.max(np.diag(H))))
    c = g - H_r @ start
    v = start.copy()
    free = v > 0.0
    released = -1
    kkt_buf, rhs_buf = np.empty((t + 1, t + 1)), np.empty(t + 1)  # reused by every KKT solve
    for _ in range(_QP_MAX_ITERS):
        F = np.flatnonzero(free)
        n = F.size
        kkt, rhs = kkt_buf[: n + 1, : n + 1], rhs_buf[: n + 1]
        kkt[:n, :n] = H_r[F][:, F]
        kkt[:n, n] = kkt[n, :n] = 1.0
        kkt[n, n] = 0.0
        np.negative(c[F], out=rhs[:n])
        rhs[n] = 1.0
        sol = np.linalg.solve(kkt, rhs)
        p = sol[:n] - v[F]
        shrink = np.flatnonzero(p < 0.0)
        ratios = np.maximum(v[F[shrink]], 0.0) / -p[shrink]
        if ratios.size and ratios.min() < 1.0:
            i = int(np.argmin(ratios))
            block = F[shrink[i]]
            if block == released and ratios[i] == 0.0:
                break
            v[F] += ratios[i] * p
            v[block] = 0.0
            free[block] = False
            released = -1
            continue
        v[F] = sol[:n]
        bound = np.flatnonzero(~free)
        if bound.size == 0:
            break
        multipliers = H_r[bound] @ v + c[bound] + sol[n]
        j = int(np.argmin(multipliers))
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
    total = kept.sum()
    if total <= 0.0:
        raise ValueError("update emptied the ensemble support")
    return kept / total
