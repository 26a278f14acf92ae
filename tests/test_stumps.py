import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marginforge.constants import STRONG_DUALITY_TOL
from marginforge.core import Dataset, GainMatrix
from marginforge.lp import solve_edge_min
from marginforge.stumps import (
    StumpHypothesis,
    StumpLearner,
    StumpPool,
    best_stump,
    full_gain_matrix,
)

from marginforge import cli
from marginforge.boosting import BoosterConfig, run_scheme
from marginforge.cli import main

from conftest import (
    pool_candidates,
    pool_oracle,
    reference_stump_pool,
    ringnorm,
    scipy_edge_min,
    two_gaussians,
    write_csv,
)


def naive_best(data, d, pool):
    """Reference scan: dot every pool column with d*y, first max wins."""
    weighted = d * data.labels
    best = None
    for h in pool_candidates(pool):
        edge = float(weighted @ h.predict(data.features))
        if best is None or edge > best[0]:
            best = (edge, h)
    return best


def sweep_best(data, d):
    """Reference per-feature sweep: argsort, prefix sums, strict-> scan.

    Visits candidates in pool order (the constant pair as feature 0's
    stump below its minimum, then feature asc, threshold asc, +1 first),
    walks each feature's groups of equal values, skips the cut between
    two groups whose rows all carry one label, and keeps the first
    maximum, recomputing the thresholds from each query's own sort
    rather than from a presort.
    """
    weighted = d * data.labels
    best = None  # (edge, stump)
    for f in range(data.p):
        x = data.features[:, f]
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], data.labels[order]
        prefix = np.concatenate([[0.0], np.cumsum(weighted[order])])
        total = prefix[-1]
        thresholds, plus_edges = ([xs[0] - 1.0], [total]) if f == 0 else ([], [])
        groups = [0, *(np.nonzero(xs[:-1] < xs[1:])[0] + 1), data.m]  # group starts
        for a, b, c in zip(groups, groups[1:], groups[2:]):
            if ys[a:c].min() < ys[a:c].max():  # both labels in groups [a, b) and [b, c)
                thresholds.append((xs[b - 1] + xs[b]) / 2.0)
                plus_edges.append(total - 2.0 * prefix[b])
        for thr, edge_plus in zip(thresholds, plus_edges):
            for pol, edge in ((1, edge_plus), (-1, -edge_plus)):
                if best is None or edge > best[0]:
                    best = (edge, StumpHypothesis(f, float(thr), pol))
    stump = best[1]
    return stump, float(d @ (data.labels * stump.predict(data.features)))


@st.composite
def stump_queries(draw):
    """(dataset, distribution) pairs rich in ties and duplicate values."""
    m = draw(st.integers(1, 25))
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, (m, p))
    if draw(st.booleans()):
        features = features.round(1)  # duplicate values collapse thresholds
    if draw(st.booleans()):
        features[:, draw(st.integers(0, p - 1))] = 0.7  # constant column
    labels = rng.choice([-1.0, 1.0], m)
    if draw(st.booleans()):
        d = np.full(m, 1.0 / m)  # uniform weights tie many stumps
    else:
        raw = rng.exponential(1.0, m)
        d = raw / raw.sum()
    return Dataset(features, labels), d


@settings(max_examples=300, deadline=None)
@given(stump_queries())
@example((Dataset(np.array([[2.0]]), np.array([-1.0])), np.array([1.0])))
@example((Dataset(np.full((4, 2), 0.7), np.array([1.0, -1.0, 1.0, -1.0])), np.full(4, 0.25)))
@example(  # feature 1 sums d*y to one ulp more than feature 0, whose total is the constant's edge
    (
        Dataset(np.column_stack([np.arange(5.0), np.arange(5.0)[::-1]]), np.ones(5)),
        np.array([0.15217391304347824, 0.15217391304347824, 0.6521739130434782, 0.043478260869565216, 0.0]),
    )
)
def test_best_stump_is_identical_to_per_feature_sweep(query):
    data, d = query
    pool = StumpPool.build(data)
    stump, column, edge = best_stump(data, d, pool)
    ref_stump, ref_edge = sweep_best(data, d)
    assert stump == ref_stump
    assert edge == ref_edge  # bit-equal, not approximately equal
    assert stump in pool_candidates(pool)
    assert np.array_equal(column, data.labels * stump.predict(data.features))


def test_learner_queries_match_fresh_best_stump_calls():
    data = two_gaussians(60, seed=1)
    learner = StumpLearner(data)
    rng = np.random.default_rng(5)
    raw = [rng.exponential(1.0, data.m) for _ in range(12)]
    ds = [r / r.sum() for r in raw] + [np.full(data.m, 1.0 / data.m)]
    for d in ds + ds[::-1]:  # the second pass returns only stumps already held
        stump, column, edge = learner.query(d)
        ref_stump, ref_column, ref_edge = best_stump(data, d, StumpPool.build(data))
        assert stump == ref_stump
        assert column.dtype == ref_column.dtype and np.array_equal(column, ref_column)
        assert edge == ref_edge
        column[:] = 0.0  # a caller's copy: the pool's kept predictions stay as they were


def label_boundary_gaps(data):
    """(feature, lo, hi) for each two consecutive distinct values of a
    feature whose rows do not all carry one label, in pool order."""
    gaps = []
    for f, x in enumerate(data.features.T):
        distinct = np.unique(x)
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            if np.unique(data.labels[(x == lo) | (x == hi)]).size > 1:
                gaps.append((f, lo, hi))
    return gaps


def test_pool_thresholds_match_distinct_value_midpoints():
    # one midpoint per gap between distinct values at a label boundary
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(0, 1, (50, 3)).round(1), rng.choice([-1.0, 1.0], 50))
    pool = StumpPool.build(data)
    gaps = label_boundary_gaps(data)
    assert len(gaps) < sum(np.unique(x).size - 1 for x in data.features.T)  # some are dropped
    expected = [(0, float(data.features[:, 0].min() - 1.0))]
    expected.extend((f, float((lo + hi) / 2.0)) for f, lo, hi in gaps)
    assert [(h.feature, h.threshold) for h in pool_candidates(pool)[::2]] == expected
    assert [h.polarity for h in pool_candidates(pool)] == [1, -1] * len(expected)


def test_mismatched_pool_is_configuration_error():
    small = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    large = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, -1.0, 1.0]))
    wide = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="not built for this dataset"):
        best_stump(large, np.full(3, 1 / 3), StumpPool.build(small))
    with pytest.raises(ValueError, match="not built for this dataset"):
        best_stump(small, np.full(2, 0.5), StumpPool.build(wide))


def test_stump_prediction_sign_convention():
    h = StumpHypothesis(feature=0, threshold=0.5, polarity=-1)
    out = h.predict(np.array([[0.4], [0.5], [0.6]]))
    assert list(out) == [1.0, -1.0, -1.0]


def test_pool_is_deterministic_and_covers_constants():
    data = Dataset(np.array([[0.0], [1.0], [1.0], [2.0]]), np.array([1.0, -1.0, 1.0, -1.0]))
    pool = StumpPool.build(data)
    assert pool_candidates(pool) == pool_candidates(StumpPool.build(data))
    # 3 distinct values -> the constant pair + 2 midpoints, both signs
    assert len(pool) == 6
    thresholds = [h.threshold for h in pool_candidates(pool)[::2]]
    assert thresholds == [-1.0, 0.5, 1.5]


def test_perfectly_split_feature_has_edge_one():
    data = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([-1.0, -1.0, 1.0, 1.0]))
    pool = StumpPool.build(data)
    _, column, edge = best_stump(data, np.full(4, 0.25), pool)
    assert edge == pytest.approx(1.0)
    assert np.allclose(column, 1.0)


def test_constant_stump_matches_constant_labels():
    data = Dataset(np.array([[3.0], [1.0], [2.0]]), np.ones(3))
    stump, _, edge = best_stump(data, np.full(3, 1 / 3), StumpPool.build(data))
    assert edge == pytest.approx(1.0)
    assert stump.threshold < 1.0  # fires everywhere


def test_best_stump_refuses_a_distribution_of_the_wrong_length():
    data = two_gaussians(20, seed=3)
    pool = StumpPool.build(data)
    for m in (19, 21):
        with pytest.raises(ValueError, match="distribution length does not match the dataset"):
            best_stump(data, np.full(m, 1.0 / m), pool)


def test_best_stump_matches_naive_scan():
    rng = np.random.default_rng(21)
    for trial in range(30):
        m = int(rng.integers(4, 40))
        p = int(rng.integers(1, 4))
        data = Dataset(
            rng.normal(0, 1, (m, p)).round(1),  # duplicates exercise collapsing
            rng.choice([-1.0, 1.0], m),
        )
        raw = rng.exponential(1.0, m)
        d = raw / raw.sum()
        pool = StumpPool.build(data)
        stump, column, edge = best_stump(data, d, pool)
        ref_edge, ref_stump = naive_best(data, d, pool)
        assert edge == pytest.approx(ref_edge, abs=1e-12)
        # exact ties may resolve differently across the two float paths,
        # but the returned stump must itself attain the maximum
        if stump != ref_stump:
            weighted = d * data.labels
            assert float(weighted @ stump.predict(data.features)) == pytest.approx(
                ref_edge, abs=1e-12
            )
        assert float(d @ column) == pytest.approx(edge, abs=1e-12)


def test_sweep_agrees_with_naive_at_scale():
    data = two_gaussians(200, seed=4)
    rng = np.random.default_rng(2)
    raw = rng.exponential(1.0, 200)
    d = raw / raw.sum()
    pool = StumpPool.build(data)
    _, _, edge = best_stump(data, d, pool)
    ref_edge, _ = naive_best(data, d, pool)
    assert edge == pytest.approx(ref_edge, abs=1e-12)


def test_edge_equals_one_minus_twice_weighted_error():
    rng = np.random.default_rng(6)
    data = two_gaussians(60, seed=1)
    raw = rng.exponential(1.0, 60)
    d = raw / raw.sum()
    stump, _, edge = best_stump(data, d, StumpPool.build(data))
    werr = float(d @ (stump.predict(data.features) != data.labels))
    assert edge == pytest.approx(1.0 - 2.0 * werr, abs=1e-12)


def test_empty_pool_is_configuration_error():
    data = Dataset(np.array([[0.0]]), np.array([1.0]))
    no_splits = np.empty(0, dtype=np.intp)
    empty = StumpPool(no_splits, np.empty(0), np.zeros((1, 1), dtype=np.intp), no_splits)
    with pytest.raises(ValueError, match="stump pool is empty"):
        best_stump(data, np.ones(1), empty)


def test_pool_oracle_point_mass_and_ties():
    A = GainMatrix(
        [np.array([0.1, 0.9]), np.array([0.8, -0.2]), np.array([0.8, -0.2])],
        [0, 1, 2],
    )
    assert pool_oracle(A, np.array([0.0, 1.0])) == 0  # largest row-1 entry
    assert pool_oracle(A, np.array([1.0, 0.0])) == 1  # tie -> lower index


def test_pool_oracle_matches_linear_scan():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(2, 15))
        t = int(rng.integers(1, 12))
        A = GainMatrix([rng.uniform(-1, 1, m) for _ in range(t)], list(range(t)))
        raw = rng.exponential(1.0, m)
        d = raw / raw.sum()
        best, best_j = -np.inf, -1
        for j in range(t):
            edge = float(d @ A.as_array()[:, j])
            if edge > best:
                best, best_j = edge, j
        assert pool_oracle(A, d) == best_j


def test_full_gain_matrix_entries():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    pool = StumpPool.build(data)
    A = full_gain_matrix(data, pool)
    assert A.t == len(pool)
    for j, h in enumerate(pool_candidates(pool)):
        assert np.allclose(A.as_array()[:, j], data.labels * h.predict(data.features))


@settings(max_examples=200, deadline=None)
@given(stump_queries())
def test_full_pool_holds_each_constant_hypothesis_once(query):
    # ties and constant columns add cuts to no feature and constants to none
    data, _ = query
    columns = full_gain_matrix(data, StumpPool.build(data)).as_array().T
    for constant in (data.labels, -data.labels):
        assert sum(np.array_equal(column, constant) for column in columns) == 1


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_full_gain_matrix_forms_each_candidates_column_bit_for_bit(tied):
    # the columns, formed as one array, are each candidate's y * h(x)
    data = two_gaussians(40, seed=2, p=3)
    if tied:
        data = Dataset(np.round(data.features, 1), data.labels)
    pool = StumpPool.build(data)
    A = full_gain_matrix(data, pool)
    assert tuple(A.hypothesis_ids) == pool_candidates(pool)
    for j, h in enumerate(pool_candidates(pool)):
        assert A.as_array()[:, j].tobytes() == (data.labels * h.predict(data.features)).tobytes()


def gathered_edges(data, d, pool):
    """Every threshold's +1 edge as total - 2*prefix, gathered through
    split_at: the cut of feature f above its b smallest values sits in
    slot f*(m+1) + b, and the constant in slot 0, whose prefix is empty,
    so its edge is feature 0's total."""
    prefix = np.zeros((data.p, data.m + 1))
    np.cumsum((d * data.labels)[pool.orders], axis=1, out=prefix[:, 1:])
    return (prefix[:, -1:] - 2.0 * prefix).take(pool.split_at)


def interleaved_pick(data, d, pool):
    """The pick as first written: argmax over the (+edge, -edge) pairs
    interleaved into one array, so the first maximum in pool order wins."""
    plus = gathered_edges(data, d, pool)
    return pool_candidates(pool)[int(np.argmax(np.column_stack([plus, -plus]).ravel()))]


@st.composite
def tie_heavy_queries(draw):
    """Few distinct feature values, repeated features and weights drawn
    from a handful of values (zeros included), so many edges tie exactly."""
    m = draw(st.integers(1, 30))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.integers(0, draw(st.integers(1, 4)), (m, p)).astype(float)
    if p > 1 and draw(st.booleans()):
        features[:, -1] = features[:, 0]  # a repeated feature ties whole rows of stumps
    labels = rng.choice([-1.0, 1.0], m)
    d = rng.choice(draw(st.sampled_from([[0.25], [0.0, 0.5], [0.0, 0.125, 0.25, 1.0]])), m)
    if draw(st.booleans()):
        d = np.full(m, 1.0 / m)  # uniform: +-0.0 edges on balanced splits
    return Dataset(features, labels), d


@settings(max_examples=400, deadline=None)
@given(tie_heavy_queries())
@example((Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0])), np.array([0.5, 0.5])))
@example((Dataset(np.zeros((2, 2)), np.array([1.0, 1.0])), np.array([0.0, 0.0])))
def test_best_stump_pick_matches_interleaved_argmax(query):
    data, d = query
    pool = StumpPool.build(data)
    assert best_stump(data, d, pool)[0] == interleaved_pick(data, d, pool)


EXTREME_FEATURES = {
    "beyond 2**53": [1e16, 1e16 + 2, 1e16 + 4, 5.0],
    "adjacent floats": [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), 0.5],
    "adjacent negatives": [-3.0, np.nextafter(-3.0, 0.0), -7.0, -3.0],
    "float maximum": [np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0), 0.0],
    "overflowing midpoint": [1.7e308, 1.79e308, -1.79e308, -1.7e308],
    "float minimum": [-np.finfo(float).max, 0.0, 5e-324, 1e-323],
}


@pytest.mark.parametrize("values", EXTREME_FEATURES.values(), ids=EXTREME_FEATURES.keys())
def test_every_threshold_fires_on_the_rows_its_split_counts(values):
    x = np.array(values, dtype=float)
    m = x.size
    data = Dataset(np.column_stack([x, x[::-1]]), np.where(np.arange(m) % 2, 1.0, -1.0))
    pool = StumpPool.build(data)
    assert len(set(pool_candidates(pool))) == len(pool_candidates(pool))
    # the constant pair and one pair per gap between distinct values at a
    # label boundary: no threshold above a maximum, the float maximum's included
    assert len(pool) == 2 + 2 * len(label_boundary_gaps(data))
    assert pool.split_at.size == len(pool) // 2
    for k, (h, flat) in enumerate(zip(pool_candidates(pool)[::2], pool.split_at.tolist())):
        f, below = divmod(flat, m + 1)  # rows under the threshold: none for the constant
        assert (k == 0) is (below == 0) and below < m
        assert f == h.feature
        assert np.isfinite(h.threshold)
        fires = np.flatnonzero(data.features[:, f] >= h.threshold)
        assert sorted(fires.tolist()) == sorted(pool.orders[f, below:].tolist())
    # the presorted query agrees bit for bit with scoring every column
    rng = np.random.default_rng(m)
    d = rng.exponential(1.0, m)
    stump, column, edge = best_stump(data, d, pool)
    assert np.array_equal(column, data.labels * stump.predict(data.features))
    gains = (data.labels * h.predict(data.features) for h in pool_candidates(pool))
    assert edge == max(float(d @ gain) for gain in gains)


def test_no_finite_threshold_above_the_float_maximum_drops_that_pair():
    # no feature has a cut above its maximum: the pool is the constant
    # pair (slot 0) and the one midpoint (slot 1), never a threshold past top
    top = np.finfo(float).max
    data = Dataset(np.array([[top], [0.0]]), np.array([1.0, -1.0]))
    pool = StumpPool.build(data)
    assert [h.threshold for h in pool_candidates(pool)[::2]] == [-1.0, top / 2.0]
    assert pool.split_at.tolist() == [0, 1]


@pytest.mark.parametrize("values", EXTREME_FEATURES.values(), ids=EXTREME_FEATURES.keys())
def test_oracle_runs_on_extreme_feature_values(values, tmp_path, capsys):
    x = np.array(values, dtype=float)
    path = tmp_path / "extreme.csv"
    write_csv(path, Dataset(x[:, None], np.where(np.arange(x.size) % 2, 1.0, -1.0)))
    assert main(["oracle", "--data", str(path)]) == 0
    assert "rho_star" in capsys.readouterr().out


_FMAX = float(np.finfo(float).max)
_POOL_EDGE_VALUES = [
    0.0, -0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), -3.0, float(np.nextafter(-3.0, 0.0)),
    2.0**53, 2.0**53 + 2.0, -(2.0**53), 1e16 + 4.0, 5e-324, -5e-324,
    1.7e308, 1.79e308, -1.79e308, _FMAX, float(np.nextafter(_FMAX, 0.0)), -_FMAX,
]


@st.composite
def edge_value_datasets(draw):
    """Small feature matrices built from ties, +-0.0, |x| >= 2**53,
    midpoints that overflow, adjacent floats and the float maximum."""
    m = draw(st.integers(1, 8))
    p = draw(st.integers(1, 3))
    values = st.sampled_from(_POOL_EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(values, min_size=m * p, max_size=m * p))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    return Dataset(np.array(cells, dtype=float).reshape(m, p), np.array(labels))


def _bits(h):
    """A stump as exact data: float.hex tells -0.0 from 0.0."""
    return (h.feature, h.threshold.hex(), h.polarity)


def _wide_zeros(top=None):
    """A 4 x 2,000 matrix of zeros with a few nonzero entries, so most
    features are constant; ``top`` fills one column besides."""
    x = np.zeros((4, 2000))
    x[0, 3], x[1, 3], x[2, 999], x[3, 1999] = 0.5, -2.0, 1e300, -0.25
    if top is not None:
        x[:, 1500] = [top, 0.0, top, -1.0]
    return Dataset(x, np.array([1.0, -1.0, -1.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(edge_value_datasets())
@example(Dataset(np.array([[_FMAX, -0.0], [0.0, 0.0], [1.79e308, 2.0**53]]), np.array([1.0, -1.0, 1.0])))
@example(_wide_zeros())
@example(_wide_zeros(top=_FMAX))
def test_array_pool_matches_the_object_building_reference(data):
    ref_candidates, ref_orders, ref_split_at = reference_stump_pool(data)
    pool = StumpPool.build(data)
    assert len(pool) == len(ref_candidates)
    built = [pool.candidate(j) for j in range(len(pool))]
    assert [_bits(h) for h in built] == [_bits(h) for h in ref_candidates]
    assert all(type(h.feature) is int and type(h.threshold) is float for h in built)
    assert pool.features.dtype == np.intp
    assert np.array_equal(pool.orders, ref_orders)
    assert np.array_equal(pool.split_at, ref_split_at)


def take_pick(data, d, pool):
    """The pick from the +1 edges total - 2*prefix of ``gathered_edges``:
    the first maximum of either sign, the +1 stump first on a tie."""
    plus = gathered_edges(data, d, pool)
    i_pos, i_neg = int(np.argmax(plus)), int(np.argmin(plus))
    if plus[i_pos] > -plus[i_neg] or (plus[i_pos] == -plus[i_neg] and i_pos <= i_neg):
        return 2 * i_pos
    return 2 * i_neg + 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(stump_queries(), tie_heavy_queries()))
def test_pick_matches_the_gathered_total_minus_twice_prefix(query):
    data, d = query
    pool = StumpPool.build(data)
    assert best_stump(data, d, pool)[0] == pool.candidate(take_pick(data, d, pool))


@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
def test_pick_matches_the_gathered_edges_on_continuous_and_tied_values(tied):
    data = two_gaussians(80, seed=7, p=3)
    if tied:
        data = Dataset(data.features.round(1), data.labels)
    pool = StumpPool.build(data)
    # continuous values give each row its own group and rounded values
    # fewer; either way the pool keeps the label boundaries and drops the rest
    assert pool.split_at.size == 1 + len(label_boundary_gaps(data)) < 1 + data.p * (data.m - 1)
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = rng.exponential(1.0, data.m)
        d /= d.sum()
        assert best_stump(data, d, pool)[0] == pool.candidate(take_pick(data, d, pool))
    uniform = np.full(data.m, 1.0 / data.m)
    assert best_stump(data, uniform, pool)[0] == pool.candidate(take_pick(data, uniform, pool))


def test_fits_never_form_the_candidate_tuple():
    data = two_gaussians(200, seed=0)
    learner = StumpLearner(data)
    for _, fw_rule, secondary in cli.ALGORITHMS.values():
        config = BoosterConfig(eps=0.1, nu=20.0, fw_rule=fw_rule, secondary=secondary)
        assert run_scheme(data, learner, config)[0].converged
    # the pool keeps the signs of each stump a query returned, and only those
    assert 0 < len(learner.pool._signs) < len(learner.pool) // 4


def test_query_names_a_non_finite_distribution():
    data = two_gaussians(40, seed=3)
    learner = StumpLearner(data)
    pool = StumpPool.build(data)
    for bad in (np.nan, np.inf, -np.inf):
        d = np.full(data.m, 1.0 / data.m)
        d[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            learner.query(d)
        with pytest.raises(ValueError, match="non-finite"):
            best_stump(data, d, pool)


def test_query_rejects_a_finite_distribution_whose_sums_overflow():
    # every entry of d is finite, but the edge sums overflow: an inf or
    # NaN edge would decide the answer, so the query refuses d instead
    data = two_gaussians(40, seed=3)
    d = np.full(data.m, 1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="distribution's edge sums overflow"):
            StumpLearner(data).query(d)
        with pytest.raises(ValueError, match="distribution's edge sums overflow"):
            best_stump(data, d, StumpPool.build(data))


def test_pool_keeps_the_predictions_of_each_answer_once():
    data = two_gaussians(60, seed=1)
    pool = StumpPool.build(data)
    d = np.full(data.m, 1.0 / data.m)
    stump, column, _ = best_stump(data, d, pool)
    ((kept_stump, kept),) = pool._signs.values()  # the answer beside its signs
    assert kept_stump is stump
    assert kept.dtype == np.int8 and np.array_equal(kept, stump.predict(data.features))
    repeat, repeat_column, _ = best_stump(data, d, pool)
    assert repeat is stump  # a repeat answer is the hypothesis the pool keeps ...
    assert repeat_column is not column  # ... with a fresh column
    assert len(pool._signs) == 1


def every_midpoint_stump(data):
    """The constant pair, then every stump with a cut between two distinct
    values of a feature, at both polarities, enumerated with no
    ``StumpPool``.  Each cut is written with its upper value as threshold,
    which fires on the same rows as the midpoint."""
    below = float(data.features[:, 0].min() - 1.0)
    stumps = [StumpHypothesis(0, below, 1), StumpHypothesis(0, below, -1)]
    for f in range(data.p):
        for hi in np.unique(data.features[:, f])[1:].tolist():
            stumps += [StumpHypothesis(f, hi, 1), StumpHypothesis(f, hi, -1)]
    return stumps


@settings(max_examples=200, deadline=None)
@given(st.one_of(stump_queries(), tie_heavy_queries()))
def test_every_midpoint_stump_is_dominated_by_a_pool_candidate(query):
    # a dropped stump's gain column is at most a kept one's in every entry
    data, _ = query
    pool_columns = full_gain_matrix(data, StumpPool.build(data)).as_array()
    for h in every_midpoint_stump(data):
        column = data.labels * h.predict(data.features)
        assert np.all(pool_columns >= column[:, None], axis=0).any(), h


@settings(max_examples=300, deadline=None)
@given(st.one_of(stump_queries(), tie_heavy_queries()))
def test_best_stump_edge_is_the_largest_over_every_midpoint_stump(query):
    data, d = query
    _, _, edge = best_stump(data, d, StumpPool.build(data))
    gains = (data.labels * h.predict(data.features) for h in every_midpoint_stump(data))
    assert abs(edge - max(float(d @ gain) for gain in gains)) <= 1e-12


def _rounded(data):
    return Dataset(data.features.round(1), data.labels)


_HIGHS_DATASETS = {
    "two_gaussians": lambda: two_gaussians(60, seed=0),
    "rounded": lambda: _rounded(two_gaussians(60, seed=0)),
    "ringnorm": lambda: ringnorm(60, seed=0, p=5),
}


@pytest.mark.parametrize("name", _HIGHS_DATASETS)
def test_pool_optimum_matches_highs_over_every_midpoint_stump(name):
    data = _HIGHS_DATASETS[name]()
    nu = 0.1 * data.m
    pool = StumpPool.build(data)
    rho = solve_edge_min(full_gain_matrix(data, pool), nu).rho
    G = np.column_stack([data.labels * h.predict(data.features) for h in every_midpoint_stump(data)])
    assert len(pool) < G.shape[1]  # the pool dropped cuts
    assert abs(rho - scipy_edge_min(G, nu)) <= STRONG_DUALITY_TOL
