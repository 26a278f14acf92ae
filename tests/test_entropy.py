import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marginforge.constants import CAP_REL_SLACK
from marginforge.core import CapParams, check_distribution, relative_entropy
from marginforge.entropy import (
    _min_linear,
    _project,
    capped_entropy_projection,
    capped_min_linear,
    smoothed_conjugate,
)

from conftest import min_linear_over_cap, oracle_projection


def params(m, nu, eta):
    return CapParams(nu=nu, m=m, eta=eta, eps=1.0)


_REPRO_THETA = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.0])


def test_projection_zero_theta_is_uniform():
    for nu in (1.0, 2.0, 3.5, 6.0):
        res = capped_entropy_projection(np.zeros(6), params(6, nu, 7.0))
        assert np.allclose(res.d, 1 / 6, atol=1e-12)
        assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_projection_nu_equals_m_forces_uniform():
    rng = np.random.default_rng(2)
    theta = rng.uniform(-1, 1, 5)
    res = capped_entropy_projection(theta, params(5, 5.0, 40.0))
    assert np.allclose(res.d, 0.2, atol=1e-9)


def test_projection_frozen_instance():
    # oracle_projection([0.9, 0.1, -0.5], nu=1.5, eta=2) computed these
    res = capped_entropy_projection(np.array([0.9, 0.1, -0.5]), params(3, 1.5, 2.0))
    assert np.allclose(res.d, [0.055993871622, 0.277339461711, 0.666666666667], atol=1e-9)
    assert res.objective == pytest.approx(-0.099601063295, abs=1e-9)
    assert res.capped_count == 1


def test_projection_rejects_bad_theta():
    with pytest.raises(ValueError):
        capped_entropy_projection(np.array([1.0, np.inf]), params(2, 1.0, 1.0))


def test_projection_matches_subset_oracle():
    rng = np.random.default_rng(42)
    for _ in range(150):
        m = int(rng.integers(2, 7))
        nu = float(rng.choice([1.0, 1.5, 2.0, m]))
        nu = min(nu, m)
        eta = float(rng.choice([1.0, 10.0, 500.0]))
        theta = rng.uniform(-1, 1, m)
        res = capped_entropy_projection(theta, params(m, nu, eta))
        ref_d, ref_obj = oracle_projection(theta, nu, eta)
        assert np.max(np.abs(res.d - ref_d)) < 1e-6
        assert res.objective == pytest.approx(ref_obj, abs=1e-8)


def test_projection_kkt_certificate():
    rng = np.random.default_rng(9)
    for _ in range(60):
        m = int(rng.integers(2, 30))
        nu = float(rng.uniform(1.0, m))
        eta = float(rng.choice([1.0, 30.0, 800.0]))
        theta = rng.uniform(-1, 1, m)
        res = capped_entropy_projection(theta, params(m, nu, eta))
        d = check_distribution(res.d, nu)
        cap = 1.0 / nu
        capped = d >= cap * (1 - 1e-9)
        free = ~capped
        if np.any(capped) and np.any(free):
            # capped coordinates carry the smallest theta values
            assert theta[capped].max() <= theta[free].min() + 1e-12
        if np.count_nonzero(free) >= 2:
            # single normaliser Z: d_i == exp(-eta*theta_i)/Z on the free set
            # (anchored at the largest free weight so underflow compares 0 to 0)
            anchor = np.argmax(np.where(free, d, -1.0))
            log_z = -eta * theta[anchor] - math.log(d[anchor])
            reconstructed = np.exp(-eta * theta[free] - log_z)
            assert np.max(np.abs(d[free] - reconstructed)) <= 1e-8


def test_projection_monotone_in_theta():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        p = params(m, float(rng.uniform(1, m)), float(rng.uniform(0.5, 50)))
        theta = rng.uniform(-1, 1, m)
        i = int(rng.integers(0, m))
        before = capped_entropy_projection(theta, p).d[i]
        theta[i] += float(rng.uniform(0.01, 0.5))
        after = capped_entropy_projection(theta, p).d[i]
        assert after <= before + 1e-12


def test_smoothed_conjugate_closed_form_at_nu_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        eta = float(rng.choice([1.0, 10.0, 500.0]))
        theta = rng.uniform(-1, 1, m)
        p = params(m, 1.0, eta)
        expect = (np.logaddexp.reduce(eta * theta) - math.log(m)) / eta
        assert smoothed_conjugate(theta, p) == pytest.approx(expect, abs=1e-9)


def test_smoothed_conjugate_constant_theta():
    p = params(4, 2.0, 13.0)
    assert smoothed_conjugate(np.full(4, 0.37), p) == pytest.approx(0.37, abs=1e-12)


def test_smoothed_conjugate_frozen_instance():
    # -(oracle_projection objective at -theta), same instance as above
    value = smoothed_conjugate(np.array([-0.9, -0.1, 0.5]), params(3, 1.5, 2.0))
    assert value == pytest.approx(0.099601063295, abs=1e-9)


def test_conjugate_sandwich_around_support_function():
    # support function minus entropy slack <= smoothed <= support function
    rng = np.random.default_rng(8)
    for _ in range(80):
        m = int(rng.integers(2, 8))
        nu = float(rng.uniform(1.0, m))
        eta = float(rng.choice([2.0, 50.0, 700.0]))
        theta = rng.uniform(-1, 1, m)
        p = params(m, nu, eta)
        smoothed = smoothed_conjugate(theta, p)
        exact = -min_linear_over_cap(-theta, nu)  # max over the cap
        slack = math.log(m / nu) / eta
        assert exact - slack - 1e-8 <= smoothed <= exact + 1e-8


def test_capped_min_linear_examples():
    value, d = capped_min_linear(np.full(5, 0.8), 2.5)
    assert value == pytest.approx(0.8)

    value, d = capped_min_linear(np.array([0.5, -0.2, 0.3, 0.9]), 2.0)
    assert value == pytest.approx(0.05)
    assert np.allclose(d, [0.0, 0.5, 0.5, 0.0])

    value, _ = capped_min_linear(np.array([0.5, -0.2, 0.3, 0.9]), 4.0)
    assert value == pytest.approx(0.375)

    value, d = capped_min_linear(_REPRO_THETA, 2.0)
    assert value == pytest.approx(-0.30, abs=1e-15)
    assert np.array_equal(d, [0.0, 0.5, 0.0, 0.0, 0.5, 0.0])


def test_capped_min_linear_matches_vertex_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(80):
        m = int(rng.integers(2, 7))
        nu = float(rng.choice([1.0, 1.5, 2.0, 2.5, m]))
        nu = min(nu, m)
        vec = rng.uniform(-1, 1, m)
        value, d = capped_min_linear(vec, nu)
        assert value == pytest.approx(min_linear_over_cap(vec, nu), abs=1e-10)
        check_distribution(d, nu)
        assert float(d @ vec) == pytest.approx(value, abs=1e-12)


def test_projection_order_is_sort_and_capped_prefix_sits_at_cap():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        nu = float(rng.uniform(1.0, m))
        theta = rng.uniform(-1, 1, m)
        if rng.random() < 0.5:
            theta = theta.round(1)  # ties
        res = capped_entropy_projection(theta, params(m, nu, float(rng.choice([1.0, 50.0, 500.0]))))
        assert np.array_equal(res.order, np.lexsort((np.arange(m), theta)))
        assert np.all(res.d[res.order[: res.capped_count]] == 1.0 / nu)
        assert np.all(res.d[res.order[res.capped_count :]] <= (1.0 / nu) * (1.0 + 1e-12))


def test_capped_min_linear_with_projection_order_is_identical():
    rng = np.random.default_rng(31)
    for trial in range(200):
        m = int(rng.integers(1, 30))
        nu = float(rng.uniform(1.0, m))
        vec = rng.uniform(-1, 1, m)
        if trial % 2:
            vec = vec.round(1)  # ties
        order = capped_entropy_projection(vec, params(m, nu, 20.0)).order
        value, d = capped_min_linear(vec, nu)
        value_o, d_o = _min_linear(vec, nu, order)
        assert value_o == value
        assert np.array_equal(d_o, d)


def while_loop_projection(theta, nu, eta):
    """The projection as first written: lexsort, then a cap scan that
    indexes numpy scalars in a ``while`` loop.  Returns (order, k, d)."""
    m = theta.shape[0]
    cap = 1.0 / nu
    order = np.lexsort((np.arange(m), theta))
    scaled = -eta * theta[order]
    suffix_lse = np.logaddexp.accumulate(scaled[::-1])[::-1]
    k = 0
    while True:
        remaining = 1.0 - k / nu
        top = remaining * math.exp(scaled[k] - suffix_lse[k])
        if top <= cap * (1.0 + CAP_REL_SLACK):
            break
        k += 1
    d_sorted = np.empty(m)
    d_sorted[:k] = cap
    d_sorted[k:] = remaining * np.exp(scaled[k:] - suffix_lse[k])
    d = np.empty(m)
    d[order] = d_sorted
    return order, k, d


@st.composite
def hinted_projections(draw):
    """(theta, nu, eta, hint): tie-heavy theta with +-0.0, and a hint that
    is either the order of a perturbed theta or an unrelated permutation."""
    m = draw(st.integers(1, 40))
    pool = [-1.5, -0.25, -0.0, 0.0, 0.25, 1.0, 3.0]
    values = st.sampled_from(pool) | st.floats(-4.0, 4.0, allow_nan=False)
    theta = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = rng.normal(0.0, draw(st.sampled_from([1e-12, 1e-3, 0.5])), m)
        hint = np.lexsort((np.arange(m), theta + noise))
    else:
        hint = np.array(draw(st.permutations(range(m))), dtype=np.intp)
    nu = draw(st.one_of(st.floats(1.0, float(m)), st.integers(1, m).map(float)))
    eta = draw(st.sampled_from([1e-9, 0.5, 7.0, 60.0, 2000.0, 1e6]))
    return theta, nu, eta, hint


# k = nu (R = 0) needs the leftover 1 - (nu-1)/nu to round above the cap's
# slack, which first happens near nu = 1e5; the entries are spaced so that
# each sorted entry outweighs everything after it
_FULL_HEAD = np.linspace(-2.0, 2.0, 100_004)


@settings(max_examples=400, deadline=None)
@given(hinted_projections())
@example((np.array([0.0, -0.0, 0.0, -0.0]), 2.0, 7.0, np.array([3, 2, 1, 0])))
@example((np.array([1.0, 1.0, 0.5]), 3.0, 7.0, np.array([1, 0, 2])))
@example((np.array([0.5, -1.0, 2.0, -1.0]), 1.0, 1e6, np.array([3, 2, 1, 0])))  # k = 0
@example((np.array([0.3, -0.2, 1.0, -1.5, 0.3]), 4.5, 60.0, np.arange(5)))  # stop == m
@example((_FULL_HEAD, 100_003.0, 1e6, np.arange(100_004)[::-1].copy()))  # R = 0, stop == m
def test_warm_started_projection_is_bit_identical_to_the_while_loop(case):
    """Order and capped count match the reference bit for bit; so does d
    when the suffix log-sum-exp runs over all m entries (stop == m).  Past
    that the kernel folds the tail, and d may differ by the rounding of a
    log-sum-exp of magnitude eta*max|theta|, the bound ``rtol`` scales with
    (with a few subnormal spacings for entries that underflow)."""
    theta, nu, eta, hint = case
    m = theta.shape[0]
    ref_order, ref_k, ref_d = while_loop_projection(theta, nu, eta)
    assert np.array_equal(ref_order, np.lexsort((np.arange(m), theta)))
    big = float(np.max(np.abs(theta)))
    rtol = 1e-12 + 16 * 2.0**-52 * eta * big
    ref_objective = float(ref_d @ theta) + relative_entropy(ref_d) / eta
    for order_hint in (None, hint):
        res = _project(theta, params(m, nu, eta), order_hint)
        assert np.array_equal(res.order, ref_order)
        assert res.capped_count == ref_k
        if min(m, math.floor(nu) + 1) == m:
            assert np.array_equal(res.d, ref_d)
        np.testing.assert_allclose(res.d, ref_d, rtol=rtol, atol=16 * 2.0**-1074)
        assert abs(res.objective - ref_objective) <= rtol * (1.0 + big + math.log(m) / eta)


def test_projection_accepts_any_permutation_as_hint_and_ignores_it():
    cold = capped_entropy_projection(_REPRO_THETA, params(6, 2.0, 7.0))
    for hint in ([5, 4, 3, 2, 1, 0], [4, 1, 5, 3, 0, 2], np.arange(6, dtype=np.int32)):
        res = _project(_REPRO_THETA, params(6, 2.0, 7.0), np.asarray(hint))
        assert np.array_equal(res.order, cold.order)
        assert np.array_equal(res.d, cold.d)
        assert res.capped_count == cold.capped_count
        assert res.objective == cold.objective


def test_capped_min_linear_accepts_a_sorting_order_that_breaks_ties_by_value_only():
    margins = np.array([0.2, -0.1, 0.2, -0.1])
    value, _ = _min_linear(margins, 1.5, np.array([3, 1, 2, 0]))
    assert value == pytest.approx(capped_min_linear(margins, 1.5)[0], abs=1e-15)
