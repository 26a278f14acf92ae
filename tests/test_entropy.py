import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marginforge.constants import CAP_REL_SLACK
from marginforge.core import CapParams, check_distribution, relative_entropy
from marginforge.entropy import (
    _capped_count,
    _min_linear,
    _project,
    capped_entropy_projection,
    capped_min_linear,
    smoothed_conjugate,
)

from conftest import (
    min_linear_over_cap,
    oracle_projection,
    reference_capped_count,
    reference_min_linear,
    reference_project,
)


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


@pytest.mark.parametrize("nu_below_m", [0.0, 4e-15, 1e-12])
def test_objective_at_the_eta_floor_is_the_mean(nu_below_m):
    # every feasible d lies within 2*nu_below_m/m of uniform in l1 norm, so
    # the objective is mean(theta) to far below 1e-12, though eta = 1e-9
    # scales a rounding error of ln m in the entropy up by 1e9
    theta = np.random.default_rng(5).uniform(-1, 1, 17)
    p = params(17, 17.0 - nu_below_m, 1e-9)
    res = capped_entropy_projection(theta, p)
    assert abs(res.objective - theta.mean()) <= 1e-12
    assert abs(smoothed_conjugate(-theta, p) + theta.mean()) <= 1e-12


def test_projection_frozen_instance():
    # oracle_projection([0.9, 0.1, -0.5], nu=1.5, eta=2) computed these
    res = capped_entropy_projection(np.array([0.9, 0.1, -0.5]), params(3, 1.5, 2.0))
    assert np.allclose(res.d, [0.055993871622, 0.277339461711, 0.666666666667], atol=1e-9)
    assert res.objective == pytest.approx(-0.099601063295, abs=1e-9)
    assert res.capped_count == 1


def test_projection_rejects_bad_theta():
    with pytest.raises(ValueError):
        capped_entropy_projection(np.array([1.0, np.inf]), params(2, 1.0, 1.0))


@pytest.mark.parametrize(
    "theta", [np.zeros((2, 3)), np.array(0.5), np.zeros(4)], ids=["2-D", "0-D", "length-m+1"]
)
def test_projection_names_the_shape_it_refuses(theta):
    message = f"theta must be a vector of length m=3; got shape {theta.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        capped_entropy_projection(theta, params(3, 1.5, 2.0))


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


@pytest.mark.parametrize("margins", [np.zeros((2, 3)), np.array(0.5)], ids=["2-D", "0-D"])
def test_capped_min_linear_names_the_shape_of_a_non_vector(margins):
    with pytest.raises(ValueError, match=re.escape(f"margins must be a vector; got shape {margins.shape}")):
        capped_min_linear(margins, 1.0)


def test_capped_min_linear_refuses_non_finite_margins_and_a_nu_outside_one_to_m():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="margins have non-finite entries"):
            capped_min_linear(np.array([0.5, bad, -0.2]), 2.0)
    for nu in (0.5, 3.5):
        with pytest.raises(ValueError, match=re.escape(f"nu must lie in [1, m]; got {nu}")):
            capped_min_linear(np.array([0.5, 0.1, -0.2]), nu)


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
    walks each k's largest uncapped weight, formed with np.exp, in a
    ``while`` loop.  Returns (order, k, d)."""
    m = theta.shape[0]
    cap = 1.0 / nu
    order = np.lexsort((np.arange(m), theta))
    scaled = -eta * theta[order]
    suffix_lse = np.logaddexp.accumulate(scaled[::-1])[::-1]
    tops = (1.0 - np.arange(m) / nu) * np.exp(scaled - suffix_lse)
    k = 0
    while tops[k] > cap * (1.0 + CAP_REL_SLACK):
        k += 1
    remaining = 1.0 - k / nu
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


def _threshold_theta(m, nu, k0, shift):
    """theta whose sorted entry k0 weighs about the cap scan's bound when
    entries before it are capped: a head far below, k0 itself, then a flat tail at 1.0.
    ``shift`` moves entry k0 by that many float steps."""
    bound = (1.0 + CAP_REL_SLACK) / nu
    remaining = 1.0 - k0 / nu
    tail = m - k0 - 1
    # eta = 1: remaining * e^s / (e^s + tail * e^-1) = bound at s = -theta[k0]
    at = -math.log(bound * tail * math.exp(-1.0) / (remaining - bound))
    for _ in range(abs(shift)):
        at = float(np.nextafter(at, math.copysign(math.inf, shift)))
    theta = np.concatenate([np.linspace(-600.0, -50.0, k0), [at], np.ones(tail)])
    return np.random.default_rng(k0).permutation(theta)


@pytest.mark.parametrize("m, nu", [(300, 299.5), (400, 399.25)])
def test_vector_cap_scan_matches_the_while_loop_at_the_threshold(m, nu):
    """The scan and the while loop both form every weight with np.exp,
    so the capped count is the while loop's to the bit on both sides of
    the threshold.  stop == m here, so the kernel's suffix log-sum-exp is
    the reference's and d matches bit for bit too."""
    assert min(m, math.floor(nu) + 1) == m
    k0 = 120
    seen = set()
    for shift in range(-24, 25):
        theta = _threshold_theta(m, nu, k0, shift)
        ref_order, ref_k, ref_d = while_loop_projection(theta, nu, 1.0)
        res = _project(theta, params(m, nu, 1.0))
        assert res.capped_count == ref_k
        assert np.array_equal(res.order, ref_order)
        assert np.array_equal(res.d, ref_d)
        seen.add(ref_k)
    assert seen == {k0, k0 + 1}  # the sweep crosses the threshold


@pytest.mark.parametrize("stop", [3, 64, 65, 201])
def test_capped_count_matches_the_loop_on_both_sides_of_the_cutoff(stop):
    """The scan's cutoff is ``bound``: on gaps whose weights lie above it,
    below it and at it, k is a plain loop's over the same np.exp weights."""
    rng = np.random.default_rng(stop)
    nu = stop - 0.5
    bound = 1.0 / nu
    factors = 1.0 - np.arange(stop) / nu
    for gaps in (
        np.zeros(stop),  # weights 1 - k/nu: only the last can fit
        np.full(stop, -50.0),  # the first fits
        np.full(stop, 5.0),  # none fits: the last index
        np.sort(rng.uniform(-8.0, 0.0, stop))[::-1].copy(),
        np.log(bound / factors),  # every weight at the bound
    ):
        assert _capped_count(gaps, bound, factors) == reference_capped_count(gaps, nu, bound)


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


@st.composite
def reference_cases(draw):
    """(theta, nu, eta, hint) at m from 2 to 400; theta is rounded to one
    or two decimals (heavy ties) or not at all, and the hint is None, the
    order of a perturbed theta, or an unrelated permutation."""
    m = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.normal(0.0, draw(st.sampled_from([0.05, 0.5, 2.0])), m)
    decimals = draw(st.sampled_from([1, 2, None]))
    if decimals is not None:
        theta = np.round(theta, decimals)
    hint = draw(st.sampled_from(["none", "perturbed", "permutation"]))
    if hint == "none":
        hint = None
    elif hint == "perturbed":
        hint = np.lexsort((np.arange(m), theta + rng.normal(0.0, 1e-3, m)))
    else:
        hint = rng.permutation(m)
    nu = draw(st.one_of(st.floats(1.0, float(m)), st.integers(1, m).map(float)))
    eta = draw(st.sampled_from([1e-9, 0.5, 7.0, 60.0, 2000.0]))
    return theta, nu, eta, hint


@settings(max_examples=300, deadline=None)
@given(reference_cases())
@example((np.round(np.linspace(-1.0, 1.0, 400), 1), 150.5, 46.0, None))  # ties
@example((np.zeros(300), 299.0, 7.0, np.arange(300)[::-1].copy()))  # every entry tied
def test_projection_and_min_linear_match_the_reference_kernels_bit_for_bit(case):
    theta, nu, eta, hint = case
    p = params(theta.shape[0], nu, eta)
    got = _project(theta.copy(), p, hint)
    want = reference_project(theta.copy(), p, hint)
    assert np.array_equal(got.order, want.order)
    assert got.capped_count == want.capped_count
    for field in ("d", "d_sorted"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    value, d = _min_linear(theta, nu, got.order)
    ref_value, ref_d = reference_min_linear(theta, nu, want.order)
    assert value == ref_value
    assert d.tobytes() == ref_d.tobytes()


def test_cap_scan_factors_are_formed_once_and_read_only():
    p = params(500, 200.5, 7.0)
    factors = p.cap_scan_factors
    assert p.cap_scan_factors is factors
    assert factors.tobytes() == (1.0 - np.arange(201) / 200.5).tobytes()
    assert not factors.flags.writeable
    assert params(6, 6.0, 7.0).cap_scan_factors.shape == (6,)  # stop == m
