"""Shared data model: datasets, gain matrices, capped-simplex points.

The gain matrix is one append-only column store that a booster loop
grows in place, at most one column per round.

Distributions over examples and ensemble weights over the discovered
hypotheses are both plain 1-D numpy arrays; a weight vector has one
entry per gain column, zero off the support.  ``check_distribution`` /
``check_ensemble_weights`` enforce the membership invariants where such
vectors are produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CAP_BOX_TOL, ENTROPY_ZERO, GAIN_RANGE_SLACK, SIMPLEX_SUM_TOL


@dataclass(frozen=True)
class Dataset:
    """Binary classification sample: m feature rows and +-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=float)
        labels = np.array(self.labels, dtype=float)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector with one entry per row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must all be -1 or +1")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class CapParams:
    """Capping / smoothing parameters shared by the solvers.

    ``nu`` caps each distribution entry at 1/nu; ``eta`` weights the
    entropy regulariser by 1/eta; ``eps`` is the target tolerance.
    """

    nu: float
    m: int
    eta: float
    eps: float

    def __post_init__(self):
        if not 1.0 <= self.nu <= self.m:
            raise ValueError(f"nu must lie in [1, m]; got nu={self.nu}, m={self.m}")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be a positive finite number")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be a positive finite number")

    @classmethod
    def from_tolerance(cls, m: int, nu: float, eps: float) -> "CapParams":
        """Build params with eta = 2*ln(m/nu)/eps.

        At nu == m the capped simplex is the single point 1/m and the
        formula would give eta = 0; any positive eta yields the same
        (unique) feasible vector, so eta is floored at a tiny value.
        """
        eta = max(2.0 * math.log(m / nu) / eps, 1e-9)
        return cls(nu=nu, m=m, eta=eta, eps=eps)


class GainMatrix:
    """Discovered gain columns, entry [i, j] = label_i * h_j(x_i).

    An append-only store: columns sit in discovery order in one
    m x capacity buffer, and ``with_column`` writes a new column in
    place (the buffer doubles when full), so an append costs amortised
    O(m).  Columns are never overwritten, so an ``as_array`` view taken
    before an append keeps its shape and values.  Hypothesis ids are
    unique: the constructor rejects a repeated id, and ``with_column``
    returns a known id's old index instead of inserting a duplicate.
    """

    def __init__(self, columns=(), hypothesis_ids=()):
        columns = [np.asarray(col, dtype=float) for col in columns]
        self.hypothesis_ids: list = list(hypothesis_ids)
        if len(columns) != len(self.hypothesis_ids):
            raise ValueError("columns and hypothesis_ids must run parallel")
        for col in columns:
            _check_gain_column(col)
        self._index_of = {}
        for j, hid in enumerate(self.hypothesis_ids):
            if hid in self._index_of:
                raise ValueError(f"repeated hypothesis id {hid!r}")
            self._index_of[hid] = j
        self._data = np.column_stack(columns) if columns else None

    @property
    def m(self) -> int:
        if self._data is None:
            raise ValueError("empty gain matrix has no row count")
        return self._data.shape[0]

    @property
    def t(self) -> int:
        return len(self.hypothesis_ids)

    def index_of(self, hypothesis_id):
        return self._index_of.get(hypothesis_id)

    def with_column(self, column: np.ndarray, hypothesis_id) -> tuple["GainMatrix", int]:
        """Append the column in place; return (self, its index).

        Known ids are not re-inserted; their existing index is returned.
        """
        existing = self._index_of.get(hypothesis_id)
        if existing is not None:
            return self, existing
        column = np.asarray(column, dtype=float)
        _check_gain_column(column)
        t = self.t
        if self._data is None:
            self._data = np.empty((column.shape[0], 1))
        elif column.shape != (self.m,):
            raise ValueError("column length does not match the matrix")
        elif t == self._data.shape[1]:
            grown = np.empty((self.m, 2 * t))
            grown[:, :t] = self._data
            self._data = grown
        self._data[:, t] = column
        self.hypothesis_ids.append(hypothesis_id)
        self._index_of[hypothesis_id] = t
        return self, t

    def as_array(self) -> np.ndarray:
        """Read-only dense m x t view of the column buffer."""
        if self._data is None:
            raise ValueError("empty gain matrix has no columns")
        view = self._data[:, : self.t]
        view.flags.writeable = False
        return view


def _check_gain_column(col: np.ndarray):
    if col.ndim != 1 or col.shape[0] < 1:
        raise ValueError("gain column must be a non-empty vector")
    if not np.all(np.isfinite(col)):
        raise ValueError("gain column has non-finite entries")
    if np.any(np.abs(col) > 1.0 + GAIN_RANGE_SLACK):
        raise ValueError("gain column entries must lie in [-1, +1]")


def check_distribution(d: np.ndarray, nu: float) -> np.ndarray:
    """Validate a capped-simplex point: entries in [0, 1/nu], sum 1."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError("distribution must be a vector")
    if np.any(d < -CAP_BOX_TOL) or np.any(d > 1.0 / nu + CAP_BOX_TOL):
        raise ValueError("distribution entries leave [0, 1/nu]")
    if abs(float(d.sum()) - 1.0) > SIMPLEX_SUM_TOL:
        raise ValueError("distribution does not sum to 1")
    return d


def check_ensemble_weights(w: np.ndarray, A: GainMatrix | None = None) -> np.ndarray:
    """Validate simplex weights: a vector of nonnegative entries summing to 1,
    one per column of ``A`` when a matrix is given."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("ensemble weights must be a non-empty vector")
    if A is not None and w.shape != (A.t,):
        raise ValueError(f"weights of shape {w.shape} for {A.t} columns")
    if np.any(w < 0.0):
        raise ValueError("ensemble weights must be nonnegative")
    if not abs(float(w.sum()) - 1.0) <= SIMPLEX_SUM_TOL:
        raise ValueError("ensemble weights do not sum to 1")
    return w


def margins(A: GainMatrix, w: np.ndarray) -> np.ndarray:
    """Weighted gain vector A @ w (length m)."""
    if np.shape(w) != (A.t,):
        raise ValueError(f"weights of shape {np.shape(w)} for {A.t} columns")
    return A.as_array() @ w


def edges(A: GainMatrix, d: np.ndarray) -> np.ndarray:
    """Per-column weighted correlations d @ A (length t)."""
    d = np.asarray(d, dtype=float)
    if d.shape != (A.m,):
        raise ValueError(f"distribution length {d.shape} does not match m={A.m}")
    return d @ A.as_array()


def relative_entropy(d: np.ndarray) -> float:
    """Entropy distance from uniform: sum d_i*ln(d_i) + ln(m), with 0*ln(0)=0."""
    d = np.asarray(d, dtype=float)
    pos = d[d > ENTROPY_ZERO]
    return float(np.sum(pos * np.log(pos)) + math.log(d.shape[0]))
