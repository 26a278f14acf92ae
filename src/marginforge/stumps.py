"""Threshold stumps and the max-edge queries a booster round needs.

``best_stump`` answers a distribution with the pool stump of largest
weighted correlation.  ``StumpPool.build`` argsorts every feature once,
O(p m log m); each query then costs O(p m + |pool|): one gather into
that order, one row-wise prefix sum, and one argmax and one argmin over
the thresholds' +1 edges.  ``StumpLearner`` answers the same queries
for a booster and keeps each gain column it has computed.
``pool_oracle`` answers by dense argmax when the whole gain matrix
is in memory.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
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

    ``orders[f]`` is the stable ascending argsort of feature f (p x m).
    ``split_at[k]`` locates threshold k in the (p, m+1) prefix-sum
    matrix of a query: flat index f*(m+1) + (rows below the threshold).
    Both come from ``build``; a pool made from bare candidates has an
    empty presort and cannot answer ``best_stump``.
    """

    candidates: tuple[StumpHypothesis, ...]
    orders: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=np.intp), compare=False, repr=False
    )
    split_at: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp), compare=False, repr=False
    )

    @classmethod
    def build(cls, data: Dataset) -> "StumpPool":
        m = data.m
        orders = np.argsort(data.features.T, axis=1, kind="stable")
        sorted_x = np.take_along_axis(data.features.T, orders, axis=1)
        out, splits = [], []
        for f, xs in enumerate(sorted_x):
            boundaries = np.flatnonzero(xs[:-1] < xs[1:]) + 1
            lo, hi = xs[boundaries - 1], xs[boundaries]
            with np.errstate(over="ignore"):
                mids = (lo + hi) / 2.0
                mids = np.where(np.isfinite(mids), mids, lo / 2.0 + hi / 2.0)  # lo + hi overflowed
                mids = np.where(mids > lo, mids, hi)  # adjacent floats: rounded onto lo
                top = xs[-1] + 1.0
                if top == xs[-1]:  # |xs[-1]| >= 2**53 absorbs the 1.0
                    top = np.nextafter(xs[-1], np.inf)
            thresholds = np.concatenate([[xs[0] - 1.0], mids, [top]])
            cuts = np.concatenate([[0], boundaries, [m]])
            if not np.isfinite(top):
                # nothing finite lies above the float maximum; the dropped
                # pair's columns repeat the below-min pair's, polarity flipped
                thresholds, cuts = thresholds[:-1], cuts[:-1]
            splits.append(f * (m + 1) + cuts)
            for thr in thresholds.tolist():
                out.append(StumpHypothesis(f, thr, 1))
                out.append(StumpHypothesis(f, thr, -1))
        return cls(candidates=tuple(out), orders=orders, split_at=np.concatenate(splits))

    def __len__(self) -> int:
        return len(self.candidates)


def best_stump(
    data: Dataset, d: np.ndarray, pool: StumpPool
) -> tuple[StumpHypothesis, float, np.ndarray]:
    """Pool stump with the largest edge sum_i d_i y_i h(x_i).

    Uses the pool's presort: gather d_i*y_i into feature order, take
    row-wise prefix sums, and read every threshold's +1 edge
    total_f - 2*prefix_f(split) off them; the -1 edge is its negation.
    That is O(p m + |pool|) per query after the O(p m log m) presort in
    ``StumpPool.build``.  The largest +1 edge (first argmax) and the
    largest -1 edge (first argmin of the +1 edges) compete, and an exact
    tie goes to the earlier pool candidate, so ties resolve as a first
    argmax over the whole pool order would.
    """
    j, d = _pick(data, d, pool)
    stump = pool.candidates[j]
    gain_column = data.labels * stump.predict(data.features)
    return stump, float(d @ gain_column), gain_column


def _pick(data: Dataset, d: np.ndarray, pool: StumpPool) -> tuple[int, np.ndarray]:
    """Pool index of ``best_stump``'s answer, and d as a float vector."""
    if len(pool) == 0:
        raise ValueError("stump pool is empty")
    if pool.orders.shape != (data.p, data.m):
        raise ValueError("stump pool was not built for this dataset")
    d = np.asarray(d, dtype=float)
    if d.shape != (data.m,):
        raise ValueError("distribution length does not match the dataset")

    prefix = np.zeros((data.p, data.m + 1))
    np.cumsum((d * data.labels)[pool.orders], axis=1, out=prefix[:, 1:])
    plus = (prefix[:, -1:] - 2.0 * prefix).take(pool.split_at)
    i_pos, i_neg = int(np.argmax(plus)), int(np.argmin(plus))
    if plus[i_pos] > -plus[i_neg] or (plus[i_pos] == -plus[i_neg] and i_pos <= i_neg):
        return 2 * i_pos, d
    return 2 * i_neg + 1, d


class StumpLearner:
    """Max-edge responses over the stump pool of a dataset.

    Answers as ``best_stump`` does.  A booster's queries mostly return
    stumps it already holds, so each gain column is computed once and
    kept by pool index.  Gains are exactly +-1, so the kept copy is int8
    (m bytes per stump); each query hands out a fresh float column.
    """

    def __init__(self, data: Dataset, pool: StumpPool | None = None):
        self.data = data
        self.pool = pool if pool is not None else StumpPool.build(data)
        self._gains: dict[int, np.ndarray] = {}

    @property
    def m(self) -> int:
        return self.data.m

    def query(self, d: np.ndarray):
        j, d = _pick(self.data, d, self.pool)
        stump = self.pool.candidates[j]
        gains = self._gains.get(j)
        if gains is None:
            gains = (self.data.labels * stump.predict(self.data.features)).astype(np.int8)
            self._gains[j] = gains
        column = gains.astype(float)
        return stump, column, float(d @ column)


def pool_oracle(A_full: GainMatrix, d: np.ndarray) -> int:
    """Index of the max-edge column of a fully materialised gain matrix.

    Ties go to the lowest index.
    """
    d = np.asarray(d, dtype=float)
    return int(np.argmax(d @ A_full.as_array()))


def full_gain_matrix(data: Dataset, pool: StumpPool) -> GainMatrix:
    """Gain columns of every pool candidate, in pool order."""
    columns = [data.labels * h.predict(data.features) for h in pool.candidates]
    return GainMatrix(columns, list(pool.candidates))
