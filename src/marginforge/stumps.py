"""Threshold stumps and the max-edge queries a booster round needs.

``best_stump`` answers a distribution with the pool stump of largest
weighted correlation.  ``StumpPool.build`` argsorts every feature once,
O(p m log m), and forms the pool from that presort in one array pass:
a feature and a threshold per split, with no hypothesis object.  Each
query then costs O(p m + |pool|): one gather into that order, one
row-wise prefix sum turned into the thresholds' +1 edges in one flat
buffer, and one argmax and one argmin over them.  Only the answer is
built as a ``StumpHypothesis``, by ``StumpPool.candidate``.
``StumpLearner`` is the weak learner a booster queries: ``best_stump``
over its dataset's own pool.
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
    per feature, one threshold at the midpoint between each two
    consecutive distinct values, with polarity +1 then -1.  A midpoint
    is halved before adding where the sum would overflow, and one that
    rounds onto the lower of its two values is replaced by the upper
    one.  Enumeration order is (feature asc, threshold asc, +1 first),
    which is also the tie-break order of every max-edge query.

    The pool is held as arrays, one entry per threshold k in pool order:
    ``features[k]`` and ``thresholds[k]``.  Candidate 2k is
    (features[k], thresholds[k], +1) and candidate 2k+1 the same
    threshold with polarity -1; ``candidate(j)`` builds one on demand,
    so a fit forms only the stumps its queries return.

    ``orders[f]`` is the stable ascending argsort of feature f (p x m).
    ``split_at[k]`` locates threshold k in the flat edge buffer of a
    query: slot 0 for the constant, and 1 + f*(m-1) + i for the cut of
    feature f above its i+1 smallest values.  ``build`` forms every
    feature's midpoints as one (p, m-1) array, with no loop over
    features; ``split_at`` is the flat nonzeros of the mask of cuts
    between distinct values, with the constant's slot put in front.
    Pools compare and hash by identity.

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
        lo, hi = xs[:, :-1], xs[:, 1:]
        with np.errstate(over="ignore"):
            mids = (lo + hi) / 2.0
            mids = np.where(np.isfinite(mids), mids, lo / 2.0 + hi / 2.0)  # lo + hi overflowed
            mids = np.where(mids > lo, mids, hi)  # adjacent floats: rounded onto lo
        split_at = np.flatnonzero(np.append(True, lo < hi))
        return cls(
            features=np.append(0, (split_at[1:] - 1) // (data.m - 1)),
            thresholds=np.append(xs[0, 0] - 1.0, mids).take(split_at),
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
    # (the same bits; the constant's is total_0) in the buffer split_at
    # indexes, which is the identity when every value is distinct; total_f
    # is the last step of the row's sequential cumsum
    weighted = (d * data.labels)[pool.orders]
    edges = np.empty(1 + data.p * (data.m - 1))
    cuts = edges[1:].reshape(data.p, data.m - 1)
    np.cumsum(weighted[:, :-1], axis=1, out=cuts)
    total = weighted[:, -1:] + cuts[:, -1:] if data.m > 1 else weighted
    if not math.isfinite(total.sum()):
        # every entry of d reaches every feature's total, so this catches
        # any non-finite d before the edges are formed from it
        if not np.all(np.isfinite(d)):
            raise ValueError("distribution has non-finite entries")
    edges[0] = total[0, 0]
    cuts *= -2.0
    cuts += total
    plus = edges if pool.split_at.size == edges.size else edges.take(pool.split_at)
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
    """Gain columns of every pool candidate, in pool order, formed as one
    array: each threshold's +1 column, then its negation, the -1 column."""
    fire = data.features[:, pool.features] >= pool.thresholds
    plus = data.labels[:, None] * np.where(fire, 1.0, -1.0)
    columns = np.empty((len(pool), data.m))  # one column per row
    columns[0::2] = plus.T
    columns[1::2] = -plus.T
    return GainMatrix(columns, [pool.candidate(j) for j in range(len(pool))])
