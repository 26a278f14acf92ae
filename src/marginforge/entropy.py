"""Closed-form solvers on the capped probability simplex.

``capped_entropy_projection`` minimises d@theta + (1/eta)*H(d) over the
capped simplex by one sort plus a linear scan; ``smoothed_conjugate``
and ``capped_min_linear`` evaluate the smoothed and exact support
functions used as objectives everywhere else.  A projection hands back
its sort order, so a caller that also needs ``capped_min_linear`` of the
same vector sorts once, and evaluates its objective only on demand.
A caller that projects a slowly changing vector round after round passes
the previous order back as ``order_hint``: the sort then runs over a
nearly sorted gather and yields the same permutation as a cold sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import CAP_REL_SLACK, ENTROPY_ZERO
from .core import CapParams, relative_entropy


@dataclass(frozen=True)
class ProjectionResult:
    """Minimiser of d@theta + (1/eta)*relative_entropy(d) over the cap.

    ``order`` is the ascending (theta, index) permutation of the
    projected vector; ``d[order[:capped_count]]`` sit at the cap 1/nu.
    ``objective`` is computed on first access, so callers that need only
    ``d`` skip the entropy evaluation.
    """

    d: np.ndarray
    capped_count: int
    order: np.ndarray
    theta: np.ndarray = field(repr=False)
    eta: float = field(repr=False)

    @cached_property
    def objective(self) -> float:
        return float(self.d @ self.theta) + relative_entropy(self.d) / self.eta


def capped_entropy_projection(
    theta: np.ndarray, params: CapParams, order_hint: np.ndarray | None = None
) -> ProjectionResult:
    """Entropy-regularised projection, O(m log m).

    Sorts theta ascending and caps a growing prefix at 1/nu until the
    remaining mass, spread over the tail proportionally to
    exp(-eta*theta_i), stays below the cap.  The tail is evaluated
    through suffix log-sum-exp so arbitrarily large eta is safe.  The
    result keeps its own copy of theta (``theta``) for its lazy
    objective; a caller that needs the projected vector again may read it.

    ``order_hint``, a permutation of range(m) such as the ``order`` of an
    earlier projection, seeds the sort: theta is stably sorted in hint
    order, and should two equal entries come out against index order the
    sort is redone from scratch.  Either way ``order`` is the ascending
    (theta, index) permutation, so the result does not depend on the hint.
    """
    theta = np.array(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] != params.m:
        raise ValueError(f"theta must be a vector of length m={params.m}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta has non-finite entries")
    if order_hint is not None and np.shape(order_hint) != theta.shape:
        raise ValueError("order_hint must be a permutation of range(m)")

    m, nu, eta = params.m, params.nu, params.eta
    cap = 1.0 / nu

    order = _ascending_order(theta, order_hint)
    scaled = -eta * theta[order]
    # suffix_lse[k] = log(sum_{i >= k} exp(scaled[i]))
    suffix_lse = np.logaddexp.accumulate(scaled[::-1])[::-1]

    # largest uncapped weight belongs to the smallest theta in the tail;
    # it fits under the cap by k = floor(nu) (or k = m - 1 at nu = m)
    stop = min(m, math.floor(nu) + 1)
    for k, gap in enumerate((scaled[:stop] - suffix_lse[:stop]).tolist()):
        remaining = 1.0 - k / nu
        if remaining * math.exp(gap) <= cap * (1.0 + CAP_REL_SLACK):
            break

    d_sorted = np.empty(m)
    d_sorted[:k] = cap
    d_sorted[k:] = remaining * np.exp(scaled[k:] - suffix_lse[k])
    d = np.empty(m)
    d[order] = d_sorted

    return ProjectionResult(d=d, capped_count=k, order=order, theta=theta, eta=eta)


def _ascending_order(theta: np.ndarray, hint: np.ndarray | None) -> np.ndarray:
    """The ascending (theta, index) permutation, seeded by ``hint`` if given."""
    if hint is not None:
        order = hint[np.argsort(theta[hint], kind="stable")]
        sorted_theta = theta[order]
        tied = sorted_theta[1:] == sorted_theta[:-1]
        if not np.any(tied & (order[1:] < order[:-1])):
            return order
    return np.argsort(theta, kind="stable")


def smoothed_conjugate(theta: np.ndarray, params: CapParams) -> float:
    """max_d [d@theta - (1/eta)*relative_entropy(d)] over the capped simplex."""
    return -capped_entropy_projection(-np.asarray(theta, dtype=float), params).objective


def capped_min_linear(
    margins: np.ndarray, nu: float, order: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Exact minimum of d@margins over the capped simplex by water-filling.

    The floor(nu) smallest entries receive 1/nu each and the next one
    takes the leftover 1 - floor(nu)/nu; this is an optimal vertex of
    the cap polytope.  ``order``, when given, must be the ascending
    (margin, index) permutation of ``margins``, such as the ``order`` of
    a projection of the same vector; it replaces the sort.  Returns
    (value, argmin).
    """
    margins = np.asarray(margins, dtype=float)
    if not np.all(np.isfinite(margins)):
        raise ValueError("margins have non-finite entries")
    m = margins.shape[0]
    if not 1.0 <= nu <= m:
        raise ValueError(f"nu must lie in [1, m]; got {nu}")

    if order is None:
        order = np.argsort(margins, kind="stable")
    full = int(math.floor(nu))
    d_sorted = np.zeros(m)
    d_sorted[:full] = 1.0 / nu
    leftover = 1.0 - full / nu
    if leftover > ENTROPY_ZERO and full < m:
        d_sorted[full] = leftover
    d = np.empty(m)
    d[order] = d_sorted
    return float(d @ margins), d
