"""Closed-form solvers on the capped probability simplex.

``capped_entropy_projection`` minimises d@theta + (1/eta)*H(d) over the
capped simplex by one sort plus a linear scan; ``smoothed_conjugate``
and ``capped_min_linear`` evaluate the smoothed and exact support
functions used as objectives everywhere else.  The scan caps at most
floor(nu) entries, so the suffix log-sum-exp it reads is formed over
that head alone, with the rest of the sorted vector folded into one
term around its maximum.  It forms every candidate's weight in one
numpy pass and takes the first that fits under the cap.  A projection
hands back its sort order, so a caller that also needs
``capped_min_linear`` of the same vector sorts once.  It also hands
back its objective, formed with d in closed form from the capped
entries and the uncapped entries' normaliser: O(k) for k capped
entries, where the entropy of d would take a logarithm over m.  Below
eta 1 that form loses the digits the division by eta magnifies, so
there the objective is summed from small terms over the uncapped
entries, in O(m).

The public functions validate at the boundary: they copy their input,
scan it for non-finite entries and check shapes, then sort from
scratch.  Each calls a private kernel, ``_project`` or ``_min_linear``,
which does the arithmetic alone.  The booster loop and the corrective
solve call those kernels directly on vectors they formed themselves,
and so pay for no check inside the loop.  The loop also reuses sort
orders: it passes the previous round's order to ``_project`` as
``order_hint``, so the sort runs over a nearly sorted gather, and a
projection's order to ``_min_linear`` in place of a sort.  Either way
the permutation is the one a cold sort gives, so both paths return the
same bits.

The kernels form few temporaries: ``_project`` takes the exponentials
of the tail fold and of the uncapped entries in place, forms d_sorted
in the buffer of its scaled sort, and runs the sort's tie check in
place; the cap scan reads its factors 1 - k/nu from
``CapParams.cap_scan_factors``, formed once per fit; ``_min_linear``
writes its floor(nu) + 1 weighted entries into zeros.  In-place
arithmetic rounds as the out-of-place form does, so the bits are those
of the plain expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CAP_REL_SLACK, ENTROPY_ZERO
from .core import CapParams

_SHIFTED_OBJECTIVE_ETA = 1.0  # eta below which the objective is summed from small terms


@dataclass(frozen=True)
class ProjectionResult:
    """Minimiser of d@theta + (1/eta)*relative_entropy(d) over the cap.

    ``d`` is the projection and ``theta`` the projected vector.
    ``order`` is the ascending (theta, index) permutation of theta;
    ``d[order[:capped_count]]`` sit at the cap 1/nu.  ``d_sorted`` is d
    in that order, ``d[order]``, so the uncapped entries are
    ``d_sorted[capped_count:]`` without a gather.  ``objective`` is the
    minimum, d@theta + relative_entropy(d)/eta, formed with d.
    """

    d: np.ndarray
    capped_count: int
    order: np.ndarray
    d_sorted: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    objective: float


def capped_entropy_projection(theta: np.ndarray, params: CapParams) -> ProjectionResult:
    """Entropy-regularised projection, O(m log m).

    Sorts theta ascending and caps a growing prefix at 1/nu until the
    remaining mass, spread over the tail proportionally to
    exp(-eta*theta_i), stays below the cap.  The tail is evaluated
    through suffix log-sum-exp so arbitrarily large eta is safe; it is
    formed for the stop = min(m, floor(nu) + 1) entries the scan can
    reach, after one fold of the rest.  The result keeps its own copy of
    theta (``theta``); a caller that needs the projected vector again may
    read it.
    """
    theta = np.array(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] != params.m:
        raise ValueError(f"theta must be a vector of length m={params.m}; got shape {theta.shape}")
    _require_finite(theta=theta)
    return _project(theta, params)


def _project(
    theta: np.ndarray, params: CapParams, order_hint: np.ndarray | None = None
) -> ProjectionResult:
    """``capped_entropy_projection`` without its checks or its copy.

    theta must be a finite float vector of length m that the caller will
    not modify (the result keeps it).  ``order_hint``, None or an integer
    permutation of range(m) such as the ``order`` of an earlier
    projection, seeds the sort: theta is stably sorted in hint order, and
    should two equal entries come out against index order the sort is
    redone from scratch.  Either way ``order`` is the ascending (theta,
    index) permutation, so the result does not depend on the hint.
    """
    m, nu, eta = params.m, params.nu, params.eta
    cap = 1.0 / nu

    order, scaled = _ascending_order(theta, order_hint)
    np.multiply(scaled, -eta, out=scaled)  # -eta * sorted theta, descending
    # largest uncapped weight belongs to the smallest theta in the tail;
    # it fits under the cap by k = floor(nu) (or k = m - 1 at nu = m)
    factors = params.cap_scan_factors
    stop = factors.shape[0]  # min(m, floor(nu) + 1)
    # lse[stop - k] = log(sum_{i >= k} exp(scaled[i])) for k < stop; lse[0]
    # folds the entries past stop around their maximum scaled[stop]
    lse = np.empty(stop + 1)
    if stop < m:
        top = scaled[stop]
        fold = scaled[stop:] - top
        np.exp(fold, out=fold)
        lse[0] = top + math.log(np.add.reduce(fold))
    else:
        lse[0] = -math.inf  # logaddexp(-inf, x) == x: the plain suffix scan
    lse[1:] = scaled[stop - 1 :: -1]
    np.logaddexp.accumulate(lse, out=lse)

    k = _capped_count(scaled[:stop] - lse[stop:0:-1], cap * (1.0 + CAP_REL_SLACK), factors)
    remaining = 1.0 - k / nu
    lse_k = float(lse[stop - k])
    d_sorted = scaled  # the scan is done with it: d is formed in its place
    d_sorted[:k] = cap
    free = d_sorted[k:]
    free -= lse_k
    np.exp(free, out=free)
    free *= remaining
    d = np.empty(m)
    d[order] = d_sorted

    objective = _closed_form_objective(theta, order, k, remaining, lse_k, params)
    return ProjectionResult(d, k, order, d_sorted, theta, objective)


def _closed_form_objective(
    theta: np.ndarray, order: np.ndarray, k: int, remaining: float, lse_k: float, params: CapParams
) -> float:
    """The projection's objective in closed form, O(k).

    With k capped entries, R = 1 - k/nu their complement ``remaining``
    and lse_k = log sum_{i >= k} exp(-eta*theta[order[i]]), the
    uncapped entries have ln d_i = ln R - eta*theta_i - lse_k, so their
    d_i*theta_i cancel against the entropy and what is left is
    cap*sum(capped theta) + (k*cap*ln cap + R*(ln R - lse_k) + ln m)/eta,
    with R*ln R = 0 at R = 0.

    The bracket is a difference of terms of size ln m, so it carries
    an absolute error of a few ulps of ln m, which the division by
    eta magnifies.  Below ``_SHIFTED_OBJECTIVE_ETA`` the bracket is
    formed from small terms instead, in O(m): see ``_small_eta_entropy``.
    """
    nu, eta = params.nu, params.eta
    cap = 1.0 / nu
    capped_sum = cap * float(np.add.reduce(theta[order[:k]]))
    if eta < _SHIFTED_OBJECTIVE_ETA:
        return capped_sum + _small_eta_entropy(theta, order, k, remaining, params)
    entropy = k * cap * math.log(cap) + math.log(theta.shape[0])
    if remaining > 0.0:
        entropy += remaining * (math.log(remaining) - lse_k)
    return capped_sum + entropy / eta


def _small_eta_entropy(
    theta: np.ndarray, order: np.ndarray, k: int, remaining: float, params: CapParams
) -> float:
    """The objective's terms past the capped sum, accurate at small eta.

    With n = m - k uncapped entries, t the smallest uncapped theta and
    E = sum over the uncapped entries of expm1(-eta*(theta_i - t)),
    lse_k = -eta*t + ln(n + E) and m*R = n - k*(m - nu)/nu, so the
    bracket is k*cap*log1p((m - nu)/nu) + R*(eta*t + ln(m*R/(n + E))),
    and ln(m*R/(n + E)) = log1p(-(k*(m - nu)/nu + E)/(n + E)).  Every
    term is formed to a relative ulp, so dividing by eta loses nothing.
    """
    nu, eta = params.nu, params.eta
    m = theta.shape[0]
    excess = (m - nu) / nu  # m*cap - 1
    value = k * math.log1p(excess) / (nu * eta)
    if remaining > 0.0:
        free = theta[order[k:]]
        t = float(free[0])
        spread = float(np.add.reduce(np.expm1(-eta * (free - t))))  # E, in (-n, 0]
        n = m - k
        log_ratio = math.log1p(-(k * excess + spread) / (n + spread))
        value += remaining * (t + log_ratio / eta)
    return value


def _capped_count(gaps: np.ndarray, bound: float, factors: np.ndarray) -> int:
    """The cap scan: the first k whose largest uncapped weight
    exp(gaps[k]) * (1 - k/nu) fits under ``bound``, else the last index.

    Every weight is formed in one pass with np.exp.  ``factors`` is
    1 - arange(len(gaps))/nu, such as ``CapParams.cap_scan_factors``,
    which a fit forms once.
    """
    weights = np.exp(gaps)
    weights *= factors
    fits = weights <= bound
    fits[-1] = True  # no weight fits: the last index
    return int(fits.argmax())


def _require_finite(**vectors: np.ndarray) -> None:
    """The one finiteness check: a ValueError that names the first of
    ``vectors`` (name=vector) with a non-finite entry."""
    for name, vector in vectors.items():
        if not np.isfinite(vector).all():
            raise ValueError(f"{name} has non-finite entries")


def _ascending_order(theta: np.ndarray, hint: np.ndarray | None):
    """The ascending (theta, index) permutation, seeded by ``hint`` if given,
    and theta gathered into it (a fresh array)."""
    if hint is not None:
        order = hint[theta[hint].argsort(kind="stable")]
        sorted_theta = theta[order]
        tied = sorted_theta[1:] == sorted_theta[:-1]
        tied &= order[1:] < order[:-1]  # equal entries out of index order
        if not np.logical_or.reduce(tied):
            return order, sorted_theta
    order = theta.argsort(kind="stable")
    return order, theta[order]


def smoothed_conjugate(theta: np.ndarray, params: CapParams) -> float:
    """max_d [d@theta - (1/eta)*relative_entropy(d)] over the capped simplex."""
    return -capped_entropy_projection(-np.asarray(theta, dtype=float), params).objective


def capped_min_linear(margins: np.ndarray, nu: float) -> tuple[float, np.ndarray]:
    """Exact minimum of d@margins over the capped simplex by water-filling.

    The floor(nu) smallest entries receive 1/nu each and the next one
    takes the leftover 1 - floor(nu)/nu; this is an optimal vertex of
    the cap polytope.  Returns (value, argmin).
    """
    margins = np.asarray(margins, dtype=float)
    if margins.ndim != 1:
        raise ValueError(f"margins must be a vector; got shape {margins.shape}")
    if not np.all(np.isfinite(margins)):
        raise ValueError("margins have non-finite entries")
    m = margins.shape[0]
    if not 1.0 <= nu <= m:
        raise ValueError(f"nu must lie in [1, m]; got {nu}")
    return _min_linear(margins, nu, np.argsort(margins, kind="stable"))


def _min_linear(margins: np.ndarray, nu: float, order: np.ndarray) -> tuple[float, np.ndarray]:
    """``capped_min_linear`` from a known ascending ``order``, such as the
    ``order`` of a projection of the same vector, unchecked."""
    full = int(math.floor(nu))
    d = np.zeros(margins.shape[0])
    d[order[:full]] = 1.0 / nu  # the floor(nu) + 1 weighted entries alone
    leftover = 1.0 - full / nu
    if leftover > ENTROPY_ZERO and full < d.shape[0]:
        d[order[full]] = leftover
    return float(d @ margins), d
