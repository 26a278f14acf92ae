"""Closed-form solvers on the capped probability simplex.

``capped_entropy_projection`` minimises d@theta + (1/eta)*H(d) over the
capped simplex by one sort plus a linear scan; ``smoothed_conjugate``
and ``capped_min_linear`` evaluate the smoothed and exact support
functions used as objectives everywhere else.  The scan caps at most
floor(nu) entries, so the suffix log-sum-exp it reads is formed over
that head alone, with the rest of the sorted vector folded into one
term around its maximum.  A projection hands back its sort order, so a
caller that also needs ``capped_min_linear`` of the same vector sorts
once, and evaluates its objective only on demand, in closed form from
the capped entries and the uncapped entries' normaliser: O(k) for k
capped entries, where the entropy of d would take a logarithm over m.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import CAP_REL_SLACK, ENTROPY_ZERO
from .core import CapParams


@dataclass(frozen=True)
class ProjectionResult:
    """Minimiser of d@theta + (1/eta)*relative_entropy(d) over the cap.

    ``order`` is the ascending (theta, index) permutation of the
    projected vector; ``d[order[:capped_count]]`` sit at the cap 1/nu.
    ``d_sorted`` is d in that order, ``d[order]``, so the uncapped
    entries are ``d_sorted[capped_count:]`` without a gather.
    ``lse`` is log sum_{i >= k} exp(-eta*theta[order[i]]) at
    k = capped_count, the normaliser of the uncapped entries.
    ``objective`` is computed on first access, so callers that need only
    ``d`` skip it.
    """

    d: np.ndarray
    capped_count: int
    order: np.ndarray
    d_sorted: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    lse: float = field(repr=False)
    params: CapParams = field(repr=False)

    @cached_property
    def objective(self) -> float:
        """d@theta + relative_entropy(d)/eta in closed form, O(k).

        On the uncapped entries ln d_i = ln R - eta*theta_i - lse with
        R = 1 - k/nu, so their d_i*theta_i cancel against the entropy
        and what is left is cap*sum(capped theta) + (k*cap*ln cap
        + R*(ln R - lse) + ln m)/eta, with R*ln R = 0 at R = 0.
        """
        k, nu = self.capped_count, self.params.nu
        cap = 1.0 / nu
        remaining = 1.0 - k / nu
        entropy = k * cap * math.log(cap) + math.log(self.d.shape[0])
        if remaining > 0.0:
            entropy += remaining * (math.log(remaining) - self.lse)
        return cap * float(self.theta[self.order[:k]].sum()) + entropy / self.params.eta


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
        raise ValueError(f"theta must be a vector of length m={params.m}")
    _require_finite(theta)
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

    for k, gap in enumerate((scaled[:stop] - lse[stop:0:-1]).tolist()):
        remaining = 1.0 - k / nu
        if remaining * math.exp(gap) <= cap * (1.0 + CAP_REL_SLACK):
            break

    lse_k = float(lse[stop - k])
    d_sorted = np.empty(m)
    d_sorted[:k] = cap
    d_sorted[k:] = remaining * np.exp(scaled[k:] - lse_k)
    d = np.empty(m)
    d[order] = d_sorted

    return ProjectionResult(
        d=d, capped_count=k, order=order, d_sorted=d_sorted, theta=theta, lse=lse_k, params=params
    )


def _require_finite(theta: np.ndarray) -> None:
    """The projection's finiteness check, shared with the public FW steps
    that hand a vector of their caller's to the unchecked kernel."""
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta has non-finite entries")


def _ascending_order(theta: np.ndarray, hint: np.ndarray | None):
    """The ascending (theta, index) permutation, seeded by ``hint`` if given,
    and theta gathered into it (a fresh array)."""
    if hint is not None:
        order = hint[theta[hint].argsort(kind="stable")]
        sorted_theta = theta[order]
        tied = sorted_theta[1:] == sorted_theta[:-1]
        if not np.any(tied & (order[1:] < order[:-1])):
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
    if not np.all(np.isfinite(margins)):
        raise ValueError("margins have non-finite entries")
    m = margins.shape[0]
    if not 1.0 <= nu <= m:
        raise ValueError(f"nu must lie in [1, m]; got {nu}")
    return _min_linear(margins, nu, np.argsort(margins, kind="stable"))


def _min_linear(margins: np.ndarray, nu: float, order: np.ndarray) -> tuple[float, np.ndarray]:
    """``capped_min_linear`` from a known ascending ``order``, such as the
    ``order`` of a projection of the same vector, unchecked."""
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
