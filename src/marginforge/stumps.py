"""Threshold stumps and the max-edge queries a booster round needs.

``best_stump`` answers a distribution with the pool stump of largest
weighted correlation.  ``StumpPool.build`` argsorts every feature once,
O(p m log m), and forms the pool from that presort in one array pass:
a feature and a threshold per split, with no hypothesis object.  The
pool keeps only the cuts at label boundaries: a cut between two groups
of equal values whose rows all carry one label is dropped, because a
cut at an end of that stretch does at least as well on every row
(Fayyad & Irani 1992, "On the handling of continuous-valued attributes
in decision tree generation").  Each query then costs O(p m + |pool|):
one gather into the presort, one row-wise prefix sum, and the kept
thresholds' +1 edges gathered from it, then one argmax and one argmin.
Only an answer is built as a ``StumpHypothesis``, by
``StumpPool.candidate``, and only once: the pool keeps it beside its
predictions, so a repeat answer, the common case in a fit, builds no
object but its gain column.  ``StumpLearner`` is the weak learner a
booster queries: ``best_stump`` over its dataset's own pool.
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

    The stump class holds two constant hypotheses, "always +1" and
    "always -1", and the pool holds them once: candidates 0 and 1,
    written as feature 0's stump below its minimum (threshold
    ``min - 1``, which fires on every row), polarity +1 then -1.  Then,
    per feature, take its groups of equal values in ascending order: one
    threshold at the midpoint between each two consecutive groups, with
    polarity +1 then -1, unless every row of both groups carries one
    label.  A midpoint is halved before adding where the sum would
    overflow, and one that rounds onto the lower of its two values is
    replaced by the upper one.  Enumeration order is (feature asc,
    threshold asc, +1 first), which is also the tie-break order of every
    max-edge query.

    A dropped cut lies inside a stretch of groups of one label, and the
    cuts at the stretch's two ends stay (at a feature's minimum or
    maximum, that end is a constant).  Every row outside the stretch
    gets the same prediction from all these cuts.  At either polarity,
    one of the two ends predicts the stretch's label on each of its
    rows, so that end's gain column is at least the dropped stump's in
    every entry, and the full-pool LP optimum is that over every
    midpoint stump.  For a distribution d >= 0 the prefix sums of
    d*y are monotone along the stretch, float rounding included, so the
    +1 edges are too, and a query's maximum is always a kept stump's.
    Where an exact tie makes a dropped cut the first maximum over every
    midpoint stump, the query returns the stretch's end cut instead,
    whose column dominates it.

    The pool is held as arrays, one entry per threshold k in pool order:
    ``features[k]`` and ``thresholds[k]``.  Candidate 2k is
    (features[k], thresholds[k], +1) and candidate 2k+1 the same
    threshold with polarity -1; ``candidate(j)`` builds one on demand,
    so a fit forms only the stumps its queries return.

    ``orders[f]`` is the stable ascending argsort of feature f (p x m).
    ``split_at[k]`` locates threshold k in a query's (p, m+1) buffer of
    row-wise prefix sums: f*(m+1) + b for the cut of feature f above its
    b smallest values, and slot 0, feature 0's cut above no rows, for the
    constant.  ``build`` finds the cuts of every feature in one array
    pass, with no loop over features, and forms the label test and the
    midpoints only for the features and cuts that need them, so a
    constant feature costs no more than its presort.  Pools compare and
    hash by identity.

    ``_signs`` keeps, by pool index, each stump ``best_stump`` has
    returned beside its +-1 predictions as int8: a fit mostly repeats
    stumps, and a repeat answer builds neither again.
    """

    features: np.ndarray
    thresholds: np.ndarray
    orders: np.ndarray = field(repr=False)
    split_at: np.ndarray = field(repr=False)
    _signs: dict[int, tuple[StumpHypothesis, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    @classmethod
    def build(cls, data: Dataset) -> "StumpPool":
        m = data.m
        orders = np.argsort(data.features.T, axis=1, kind="stable")
        xs = data.features.T[np.arange(data.p)[:, None], orders]
        distinct = xs[:, :-1] < xs[:, 1:]
        cut = np.flatnonzero(distinct.any(axis=1))  # the features with a cut
        labels = data.labels[orders[cut]]
        # slot b of a row: the cut above its b smallest values; slots 0 and m
        # end the row, so every group of equal values lies between two ends
        ends = np.ones((cut.size, m + 1), dtype=bool)
        ends[:, 1:-1] = distinct[cut]
        same = np.ones_like(ends)  # the labels on either side of each slot agree
        np.equal(labels[:, :-1], labels[:, 1:], out=same[:, 1:-1])
        keep = ends & ~same  # a cut stays where the labels change at it ...
        # ... or inside the group on either side of it
        inside = np.flatnonzero(~(ends | same))
        ends = np.flatnonzero(ends)
        after = np.searchsorted(ends, inside)
        keep.ravel()[ends[after - 1]] = True
        keep.ravel()[ends[after]] = True
        keep[:, 0] = keep[:, m] = False
        rows, below = np.nonzero(keep)
        features = cut[rows]
        above = features * m + below  # the flat index in xs of the value above the cut
        lo, hi = xs.take(above - 1), xs.take(above)
        with np.errstate(over="ignore"):
            mids = (lo + hi) / 2.0
            mids = np.where(np.isfinite(mids), mids, lo / 2.0 + hi / 2.0)  # lo + hi overflowed
            mids = np.where(mids > lo, mids, hi)  # adjacent floats: rounded onto lo
        return cls(
            features=np.concatenate(([0], features)),
            thresholds=np.concatenate(([xs[0, 0] - 1.0], mids)),
            orders=orders,
            split_at=np.concatenate(([0], features * (m + 1) + below)),
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
    row-wise prefix sums, and form each pool threshold's +1 edge
    total_f - 2*prefix_f(split) from the prefix sums gathered at
    ``split_at``; the -1 edge is its negation.  That is O(p m + |pool|)
    per query after the O(p m log m) presort in ``StumpPool.build``.
    The largest +1 edge (first argmax) and the largest -1 edge (first
    argmin of the +1 edges) compete, and an exact tie goes to the
    earlier pool candidate, so ties resolve as a first argmax over the
    whole pool order would.  For d >= 0 the answer's edge is the largest
    over every midpoint stump (see ``StumpPool``).  The hypothesis is the
    one the pool keeps for that candidate, the same object at every
    repeat; the gain column is a fresh float vector, y times the
    predictions the pool keeps beside it.

    A non-finite d is rejected with a ValueError.  The check reads only
    the p feature totals, and scans d only when one is not finite.  A
    finite d whose edge sums overflow is rejected too: an inf or NaN
    edge is what the argmax or the argmin picks.
    """
    if len(pool) == 0:
        raise ValueError("stump pool is empty")
    m, p = data.features.shape
    if pool.orders.shape != (p, m):
        raise ValueError("stump pool was not built for this dataset")
    d = np.asarray(d, dtype=float)
    if d.shape != (m,):
        raise ValueError("distribution length does not match the dataset")

    # +1 edges total_f - 2*prefix_f, formed as -2*prefix + total (the same
    # bits) at the pool's cuts only.  Slot 0 is feature 0's cut above no
    # rows, the constant, whose edge is then total_0; no cut reads another
    # row's first slot.  total_f is the last step of the row's sequential cumsum
    weighted = (d * data.labels)[pool.orders]
    prefix = np.empty((p, m + 1))
    prefix[0, 0] = 0.0
    weighted.cumsum(axis=1, out=prefix[:, 1:])
    total = prefix[:, -1]
    if not math.isfinite(np.add.reduce(total)):
        # every entry of d reaches every feature's total, so this catches
        # any non-finite d before the edges are formed from it
        if not np.all(np.isfinite(d)):
            raise ValueError("distribution has non-finite entries")
    plus = prefix.take(pool.split_at)
    plus *= -2.0
    plus += total.take(pool.features)
    i_pos, i_neg = int(plus.argmax()), int(plus.argmin())
    top, bottom = float(plus[i_pos]), float(plus[i_neg])
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("distribution's edge sums overflow")
    if top > -bottom or (top == -bottom and i_pos <= i_neg):
        j = 2 * i_pos
    else:
        j = 2 * i_neg + 1
    answer = pool._signs.get(j)
    if answer is None:
        stump = pool.candidate(j)
        answer = pool._signs[j] = stump, stump.predict(data.features).astype(np.int8)
    stump, signs = answer
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
    """Gain columns of every pool candidate, in pool order, formed as one
    array: each threshold's +1 column, then its negation, the -1 column."""
    fire = data.features[:, pool.features] >= pool.thresholds
    plus = data.labels[:, None] * np.where(fire, 1.0, -1.0)
    columns = np.empty((len(pool), data.m))  # one column per row
    columns[0::2] = plus.T
    columns[1::2] = -plus.T
    return GainMatrix(columns, [pool.candidate(j) for j in range(len(pool))])
