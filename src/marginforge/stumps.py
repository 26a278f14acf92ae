"""Threshold stumps and the max-edge queries a booster round needs.

``best_stump`` answers a distribution with the pool stump of largest
weighted correlation.  ``StumpPool.build`` argsorts every feature once,
O(p m log m), and forms the pool from that presort in one array pass:
a feature and a threshold per split, with no hypothesis object.  Each
query then costs O(p m + |pool|): one gather into that order, one
row-wise prefix sum turned into the thresholds' +1 edges in place, and
one argmax and one argmin over them.  Only the answer is built as a
``StumpHypothesis``, by ``StumpPool.candidate``.  ``StumpLearner`` is
the weak learner a booster queries: ``best_stump`` over its dataset's
own pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, GainMatrix


@dataclass(frozen=True)
class StumpHypothesis:
    """Single-feature threshold rule: polarity if x[feature] >= threshold."""

    feature: int
    threshold: float
    polarity: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        fire = features[:, self.feature] >= self.threshold
        return np.where(fire, float(self.polarity), -float(self.polarity))


@dataclass(frozen=True, eq=False)
class StumpPool:
    """Deterministic stump candidates for a dataset, plus its presort.

    Per feature: one threshold below the minimum, midpoints between
    consecutive distinct values, one above the maximum; each threshold
    with polarity +1 then -1.  A midpoint is halved before adding where
    the sum would overflow, one that rounds onto the lower of its two
    values is replaced by the upper one, and the threshold above
    the maximum is the next float up when adding 1 does not move it; at
    the float maximum itself there is none, and that feature's
    above-maximum pair is left out.  Enumeration order is (feature asc,
    threshold asc, +1 first), which is also the tie-break order of
    every max-edge query.

    The pool is held as arrays, one entry per threshold k in pool order:
    ``features[k]`` and ``thresholds[k]``.  Candidate 2k is
    (features[k], thresholds[k], +1) and candidate 2k+1 the same
    threshold with polarity -1; ``candidate(j)`` builds one on demand,
    so a fit forms only the stumps its queries return.

    ``orders[f]`` is the stable ascending argsort of feature f (p x m).
    ``split_at[k]`` locates threshold k in the (p, m+1) prefix-sum
    matrix of a query: flat index f*(m+1) + (rows below the threshold).
    ``build`` forms the threshold at every cut of every feature as one
    (p, m+1) array, with no loop over features; ``split_at`` is the flat
    nonzeros of the mask of cuts that split.  Pools compare and hash by
    identity.

    ``_signs`` keeps, by pool index, the +-1 predictions of each stump
    ``best_stump`` has returned, as int8: a fit mostly repeats stumps.
    """

    features: np.ndarray
    thresholds: np.ndarray
    orders: np.ndarray = field(repr=False)
    split_at: np.ndarray = field(repr=False)
    _signs: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, data: Dataset) -> "StumpPool":
        orders = np.argsort(data.features.T, axis=1, kind="stable")
        xs = np.take_along_axis(data.features.T, orders, axis=1)
        lo, hi, last = xs[:, :-1], xs[:, 1:], xs[:, -1]
        with np.errstate(over="ignore"):
            mids = (lo + hi) / 2.0
            mids = np.where(np.isfinite(mids), mids, lo / 2.0 + hi / 2.0)  # lo + hi overflowed
            mids = np.where(mids > lo, mids, hi)  # adjacent floats: rounded onto lo
            top = last + 1.0
            top = np.where(top == last, np.nextafter(last, np.inf), top)  # |x| >= 2**53 absorbs the 1.0
        # cuts 0..m split below the minimum, between distinct values, and above
        # a maximum with a finite float above it (at the float maximum the
        # dropped pair's columns would repeat the below-min pair's, flipped)
        at_cut = np.column_stack([xs[:, 0] - 1.0, mids, top])
        splits = np.column_stack([np.ones(data.p, dtype=bool), lo < hi, np.isfinite(top)])
        split_at = np.flatnonzero(splits)
        return cls(
            features=split_at // (data.m + 1),
            thresholds=at_cut.ravel()[split_at],
            orders=orders,
            split_at=split_at,
        )

    def __len__(self) -> int:
        return 2 * self.thresholds.size

    def candidate(self, j: int) -> StumpHypothesis:
        """Pool candidate j: threshold j // 2, polarity +1 at even j, -1 at odd."""
        k, odd = divmod(j, 2)
        return StumpHypothesis(int(self.features[k]), float(self.thresholds[k]), -1 if odd else 1)


def best_stump(
    data: Dataset, d: np.ndarray, pool: StumpPool
) -> tuple[StumpHypothesis, np.ndarray, float]:
    """Pool stump with the largest edge sum_i d_i y_i h(x_i), as the
    weak-learner protocol's (hypothesis, gain column, edge).

    Uses the pool's presort: gather d_i*y_i into feature order, take
    row-wise prefix sums, and read every threshold's +1 edge
    total_f - 2*prefix_f(split) off them; the -1 edge is its negation.
    That is O(p m + |pool|) per query after the O(p m log m) presort in
    ``StumpPool.build``.  The largest +1 edge (first argmax) and the
    largest -1 edge (first argmin of the +1 edges) compete, and an exact
    tie goes to the earlier pool candidate, so ties resolve as a first
    argmax over the whole pool order would.  The gain column is a fresh
    float vector, y times the predictions the pool keeps.

    A non-finite d is rejected with a ValueError.  The check reads only
    the p feature totals, and scans d only when one is not finite.  A
    finite d whose edge sums overflow is rejected too: an inf or NaN
    edge is what the argmax or the argmin picks.
    """
    if len(pool) == 0:
        raise ValueError("stump pool is empty")
    if pool.orders.shape != (data.p, data.m):
        raise ValueError("stump pool was not built for this dataset")
    d = np.asarray(d, dtype=float)
    if d.shape != (data.m,):
        raise ValueError("distribution length does not match the dataset")

    # +1 edges total_f - 2*prefix_f, formed in place as -2*prefix + total
    # (the same bits); split_at is the identity when every value is distinct
    prefix = np.empty((data.p, data.m + 1))
    prefix[:, 0] = 0.0
    np.cumsum((d * data.labels)[pool.orders], axis=1, out=prefix[:, 1:])
    total = prefix[:, -1:].copy()
    if not math.isfinite(total.sum()):
        # every entry of d reaches every feature's total, so this catches
        # any non-finite d before the edges are formed from it
        if not np.all(np.isfinite(d)):
            raise ValueError("distribution has non-finite entries")
    prefix *= -2.0
    prefix += total
    plus = prefix.ravel() if pool.split_at.size == prefix.size else prefix.take(pool.split_at)
    i_pos, i_neg = int(np.argmax(plus)), int(np.argmin(plus))
    top, bottom = float(plus[i_pos]), float(plus[i_neg])
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("distribution's edge sums overflow")
    if top > -bottom or (top == -bottom and i_pos <= i_neg):
        j = 2 * i_pos
    else:
        j = 2 * i_neg + 1
    stump = pool.candidate(j)
    signs = pool._signs.get(j)
    if signs is None:
        signs = pool._signs[j] = stump.predict(data.features).astype(np.int8)
    gain_column = data.labels * signs
    edge = float(d @ gain_column)
    if not math.isfinite(edge):
        raise ValueError("distribution's edge sums overflow")
    return stump, gain_column, edge


class StumpLearner:
    """The weak learner a booster queries: ``best_stump`` over the stump
    pool of its dataset, built here."""

    def __init__(self, data: Dataset):
        self.data = data
        self.pool = StumpPool.build(data)

    @property
    def m(self) -> int:
        return self.data.m

    def query(self, d: np.ndarray):
        return best_stump(self.data, d, self.pool)


def full_gain_matrix(data: Dataset, pool: StumpPool) -> GainMatrix:
    """Gain columns of every pool candidate, in pool order."""
    stumps = [pool.candidate(j) for j in range(len(pool))]
    return GainMatrix([data.labels * h.predict(data.features) for h in stumps], stumps)
