import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from marginforge import boosting, lp
from marginforge.boosting import BoosterConfig, StumpLearner, run_scheme
from marginforge.core import GainMatrix, check_distribution, check_ensemble_weights
from marginforge.entropy import capped_min_linear
from marginforge.lp import (
    _REFACTOR_INTERVAL,
    _distinct_rows,
    _simplex_min,
    LpError,
    LpInfeasibleError,
    LpUnboundedError,
    solve_edge_min,
)

from conftest import (
    min_linear_over_cap,
    reference_simplex_min,
    reference_solve_max,
    two_gaussians,
)


def _slack_form(G, h, c, upper=None):
    """Kernel form (A, b, cost, u) of max c@x st G@x <= h, 0 <= x <= upper:
    one slack column per row, costs negated for minimisation."""
    r, n = G.shape
    upper = np.full(n, math.inf) if upper is None else np.asarray(upper, dtype=float)
    return (
        np.hstack([G, np.eye(r)]),
        h,
        np.concatenate([-c, np.zeros(r)]),
        np.concatenate([upper, np.full(r, math.inf)]),
    )


def _max_le(G, h, c, upper=None):
    """max c@x st G@x <= h, 0 <= x <= upper by the kernel; returns
    (x, value, row duals), duals for the maximisation sense."""
    x_full, y = _simplex_min(*_slack_form(G, h, c, upper))
    x = x_full[: G.shape[1]]
    return x, float(c @ x), -y


def test_single_bound():
    x, value, duals = _max_le(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    assert value == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)
    assert duals[0] == pytest.approx(1.0)


def test_degenerate_face():
    # max x1 + x2 st x1 + x2 = 1: an equality row, so no slack column
    c = np.array([1.0, 1.0])
    x, _ = _simplex_min(np.array([[1.0, 1.0]]), np.array([1.0]), -c, np.full(2, math.inf))
    assert float(c @ x) == pytest.approx(1.0)
    assert x.sum() == pytest.approx(1.0)


def test_infeasible_and_unbounded_are_reported():
    # x <= -1 with x >= 0: the certificate y is a Farkas ray, y@A <= 0 < y@b
    A, b, cost, u = _slack_form(np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))
    with pytest.raises(LpInfeasibleError) as err:
        _simplex_min(A, b, cost, u)
    y = err.value.certificate
    assert np.all(y @ A <= 1e-12) and y @ b > 0.0
    # max x st -x <= 1: the direction (over the columns and the phase-1
    # artificials) keeps A@x = b, stays nonnegative and lowers the cost
    A, b, cost, u = _slack_form(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(LpUnboundedError) as err:
        _simplex_min(A, b, cost, u)
    direction = err.value.direction
    assert direction is not None
    assert np.allclose(np.hstack([A, np.eye(1)]) @ direction, 0.0)
    assert np.all(direction >= 0.0) and cost @ direction[: A.shape[1]] < 0.0


def _enumerate_bfs_value(G, h, c):
    """Best basic feasible solution of max c@x st Gx <= h, x >= 0."""
    r, n = G.shape
    A = np.hstack([G, np.eye(r)])
    cost = np.concatenate([c, np.zeros(r)])
    best = None
    for basis in itertools.combinations(range(n + r), r):
        B = A[:, list(basis)]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, h)
        if np.any(xb < -1e-9):
            continue
        value = float(cost[list(basis)] @ xb)
        if best is None or value > best:
            best = value
    return best


def test_random_lp_matches_bfs_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(30):
        G = rng.uniform(-1, 1, (4, 5))
        G = np.vstack([G, np.ones(5)])  # keeps the feasible set bounded
        h = np.concatenate([rng.uniform(0.1, 1.0, 4), [3.0]])
        c = rng.uniform(-1, 1, 5)
        x, value, duals = _max_le(G, h, c)
        assert value == pytest.approx(_enumerate_bfs_value(G, h, c), abs=1e-8)
        # primal feasibility and complementary slackness
        residual = h - G @ x
        assert np.all(residual >= -1e-8)
        assert np.all(x >= -1e-10)
        assert np.max(np.abs(duals * residual)) <= 1e-8


def test_upper_bounded_variables():
    # max 2 x1 + x2 with x1 <= 0.25 boxed, x1 + x2 <= 1
    x, value, _ = _max_le(
        np.array([[1.0, 1.0]]), np.array([1.0]), np.array([2.0, 1.0]), upper=[0.25, math.inf]
    )
    assert np.allclose(x, [0.25, 0.75])
    assert value == pytest.approx(1.25)


def _gain(columns):
    return GainMatrix([np.asarray(c, dtype=float) for c in columns], list(range(len(columns))))


def test_edge_min_single_column():
    col = np.array([0.9, -0.3, 0.1, 0.5])
    for nu in (1.0, 2.0, 3.0, 4.0):
        sol = solve_edge_min(_gain([col]), nu)
        assert sol.gamma == pytest.approx(capped_min_linear(col, nu)[0], abs=1e-9)
        assert sol.w == pytest.approx([1.0])


def test_edge_min_symmetric_pair_at_full_cap():
    col = np.array([0.6, -0.2, -0.4, 0.0])  # zero mean
    sol = solve_edge_min(_gain([col, -col]), 4.0)
    assert sol.gamma == pytest.approx(0.0, abs=1e-9)


def test_edge_min_two_column_derived_instance():
    # gamma* = min over the cap of |d @ c| = 0.05, attained by the
    # water-filling vertex; the dual puts everything on the +c column
    c = np.array([0.5, -0.2, 0.3, 0.9])
    sol = solve_edge_min(_gain([c, -c]), 2.0)
    assert sol.gamma == pytest.approx(0.05, abs=1e-7)
    assert sol.w[0] == pytest.approx(1.0, abs=1e-7)
    assert np.allclose(sol.d, [0.0, 0.5, 0.5, 0.0], atol=1e-7)


def test_edge_min_strong_duality_and_attainment_random():
    rng = np.random.default_rng(77)
    for trial in range(60):
        m = int(rng.integers(2, 12))
        t = int(rng.integers(1, 11))
        A = _gain([rng.uniform(-1, 1, m) for _ in range(t)])
        # nu lies in [1, m]: 0.4 * m is below 1 at the smallest m
        nu = float(min(m, max(1.0, rng.choice([1.0, 1.5, 2.0, 0.4 * m, m]))))
        sol = solve_edge_min(A, nu)
        check_distribution(sol.d, nu)
        check_ensemble_weights(sol.w)
        assert abs(sol.gamma - sol.rho) <= 1e-7
        # primal attainment: d really achieves the reported worst edge
        assert np.max(sol.d @ A.as_array()) == pytest.approx(sol.gamma, abs=1e-8)
        # independent dual value via vertex enumeration at small m
        if m <= 8:
            rho_ref = min_linear_over_cap(A.as_array() @ sol.w, nu)
            assert sol.rho == pytest.approx(rho_ref, abs=1e-9)


def test_edge_min_wide_matrix_uses_dual_form():
    # t > m exercises the soft-margin formulation branch
    rng = np.random.default_rng(5)
    m, t = 3, 9
    A = _gain([rng.uniform(-1, 1, m) for _ in range(t)])
    sol = solve_edge_min(A, 1.5)
    assert abs(sol.gamma - sol.rho) <= 1e-7
    assert np.max(sol.d @ A.as_array()) == pytest.approx(sol.gamma, abs=1e-8)


def test_edge_min_value_nondecreasing_in_columns():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(3, 9))
        nu = float(rng.uniform(1.0, m))
        cols = [rng.uniform(-1, 1, m)]
        prev = solve_edge_min(_gain(cols), nu).gamma
        for _ in range(5):
            cols.append(rng.uniform(-1, 1, m))
            cur = solve_edge_min(_gain(cols), nu).gamma
            assert cur >= prev - 1e-9
            prev = cur


@st.composite
def sign_matrices(draw, wide: bool):
    """(G, nu): an m x t matrix of +-1 gains with t <= m, or t > m if wide."""
    m = draw(st.integers(1, 10))
    t = draw(st.integers(m + 1, 3 * m + 1) if wide else st.integers(1, m))
    signs = draw(st.lists(st.booleans(), min_size=m * t, max_size=m * t))
    G = np.where(np.array(signs).reshape(m, t), 1.0, -1.0)
    nu = draw(st.floats(1.0, float(m)))
    return G, nu


def _scipy_edge_min(G, nu):
    """min g subject to G.T @ d <= g, sum(d) = 1, 0 <= d <= 1/nu, by HiGHS."""
    m, t = G.shape
    res = linprog(
        c=np.concatenate([np.zeros(m), [1.0]]),
        A_ub=np.hstack([G.T, -np.ones((t, 1))]),
        b_ub=np.zeros(t),
        A_eq=np.concatenate([np.ones(m), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=[(0.0, 1.0 / nu)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("wide", [False, True], ids=["edge-min form", "soft-margin form"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_min_gamma_matches_scipy_highs(wide, data):
    G, nu = data.draw(sign_matrices(wide))
    sol = solve_edge_min(_gain(G.T), nu)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, nu), abs=1e-7)


@st.composite
def repeated_row_matrices(draw, wide: bool):
    """(G, nu): k distinct real-valued rows, each repeated 1-4 times in a
    shuffled order, with t <= k columns, or t > k if wide."""
    k = draw(st.integers(1, 6))
    t = draw(st.integers(k + 1, 2 * k + 2) if wide else st.integers(1, k))
    row = st.lists(st.floats(-1.0, 1.0), min_size=t, max_size=t)
    distinct = draw(st.lists(row, min_size=k, max_size=k, unique_by=tuple))
    counts = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    group = np.repeat(np.arange(k), counts)
    group = group[draw(st.permutations(range(group.size)))]
    G = np.array(distinct, dtype=float).reshape(k, t)[group]
    nu = draw(st.floats(1.0, float(group.size)))
    return G, nu, group


@pytest.mark.parametrize("wide", [False, True], ids=["edge-min form", "soft-margin form"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_min_over_repeated_rows_matches_scipy_highs(wide, data):
    G, nu, group = data.draw(repeated_row_matrices(wide))
    sol = solve_edge_min(_gain(G.T), nu)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, nu), abs=1e-7)
    check_distribution(sol.d, nu)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-8)
    for g in np.unique(group):
        assert np.all(sol.d[group == g] == sol.d[group == g][0])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([[-1.0, 1.0], [-1.0, -0.0, 0.0, 1.0], None]),
    st.integers(1, 40),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_distinct_rows_match_numpy_unique(values, m, t, seed):
    rng = np.random.default_rng(seed)
    if values is None:  # float rows, each repeated
        base = rng.uniform(-1.0, 1.0, (max(1, m // 3), t))
        G = base[rng.integers(0, base.shape[0], m)]
    else:
        G = rng.choice(values, (m, t))
    rows, group, counts = _distinct_rows(G)
    ref_rows, ref_group, ref_counts = np.unique(
        G, axis=0, return_inverse=True, return_counts=True
    )
    assert np.array_equal(rows, ref_rows)  # == on values, so -0.0 matches 0.0
    assert np.array_equal(group, ref_group.reshape(-1))
    assert np.array_equal(counts, ref_counts)


def test_edge_min_accepts_duals_within_the_pricing_tolerance():
    # pricing stops with a dual of -5e-10 here (soft-margin form, t > k);
    # that is inside LP_PIVOT_TOL, so it is rounding, not infeasibility
    G = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1e-9], [0.0, 0.0, 1.0, 0.0]])
    sol = solve_edge_min(_gain(G.T), 1.0)
    check_distribution(sol.d, 1.0)
    check_ensemble_weights(sol.w)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, 1.0), abs=1e-7)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-8)


def test_ratio_test_ties_leave_no_row_past_its_bound():
    # two ratios 2e-13 apart, one on a row with a 2.3e6 step: treating them
    # as tied and evicting the other leaves that row 4.4e-7 past its bound,
    # and gamma comes out 0
    G = np.array([[0.0, 4.40284458e-07], [1.0, 0.0]])
    sol = solve_edge_min(_gain(G.T), 1.0)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, 1.0), abs=1e-12)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-12)


def test_simplex_reinverts_basis_on_long_runs(monkeypatch):
    # 40 "le" rows with positive right-hand sides: phase 1 starts from 40
    # basic artificials and must pivot each one out, so the basis changes
    # more often than _REFACTOR_INTERVAL and the inverse is rebuilt
    assert _REFACTOR_INTERVAL < 40
    inversions = []
    real_inv = np.linalg.inv

    def counting_inv(a):
        inversions.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    rng = np.random.default_rng(41)
    r, n = 40, 60
    G = np.vstack([rng.uniform(-1, 1, (r - 1, n)), np.ones(n)])
    h = np.concatenate([rng.uniform(0.1, 1.0, r - 1), [5.0]])
    c = rng.uniform(-0.2, 1.0, n)
    x, value, duals = _max_le(G, h, c)
    assert len(inversions) > 2  # one per phase, plus at least one refresh

    ref = linprog(-c, A_ub=G, b_ub=h, bounds=[(0.0, None)] * n, method="highs")
    assert ref.status == 0, ref.message
    assert value == pytest.approx(-ref.fun, abs=1e-8)
    residual = h - G @ x
    assert np.all(residual >= -1e-8) and np.all(x >= -1e-10)
    reduced = G.T @ duals - c
    assert np.all(duals >= -1e-9) and np.all(reduced >= -1e-8)
    assert np.max(np.abs(duals * residual)) <= 1e-8
    assert np.max(np.abs(x * reduced)) <= 1e-8


def _tiny_gain_rows(family, v):
    """The 4 x 5 gain rows at nu 1 whose tiny entry v drives the simplex to
    pivot on elements near 1e-7 (ROADMAP item 6)."""
    head = (
        [[0.75, 0, 0, -1, -0.0078125], [0.625, 0, 0, -1, 0.5], [0.375, 0, 0, -1, 0]]
        if family == 1
        else [[0.5, 0, 0, -1, 0.5], [0.75, 0, 0, -1, -0.0625], [0.375, 0, 0, -1, 0]]
    )
    return np.array(head + [[v, 0, 0.5, -1, 0]], dtype=float)


@pytest.mark.parametrize("v", [1e-6, 1e-9, 0.0])
def test_edge_min_tiny_gain_neighbours_match_scipy_highs(v):
    G = _tiny_gain_rows(1, v)
    sol = solve_edge_min(_gain(G.T), 1.0)
    check_distribution(sol.d, 1.0)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, 1.0), abs=1e-7)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-8)


@pytest.mark.xfail(
    strict=True,
    raises=(LpError, np.linalg.LinAlgError),
    reason="absolute ratio-test tolerance pivots on ~1e-7 elements (ROADMAP item 6)",
)
@pytest.mark.parametrize(
    "family, v",
    [(1, 1e-8), (1, 5e-10), (1, 1e-10), (2, 1e-9), (2, 1.01e-10), (2, 1e-10), (2, 5e-11)],
)
def test_edge_min_tiny_gains_solve_the_bounded_lp(family, v):
    G = _tiny_gain_rows(family, v)
    sol = solve_edge_min(_gain(G.T), 1.0)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, 1.0), abs=1e-7)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _outcome(solve, *args):
    """A kernel's result as comparable bytes: the output arrays, or the
    exception's type, message and certificate or direction."""
    try:
        return "solved", tuple(_bits(v) for v in solve(*args))
    except (LpError, np.linalg.LinAlgError) as exc:
        payload = getattr(exc, "certificate", getattr(exc, "direction", None))
        return type(exc).__name__, str(exc), None if payload is None else _bits(payload)


def _random_kernel(r, n, entries, rhs, bounds, seed):
    """(A, b, c, u) of a random kernel LP; the rhs and bound kinds pick
    degenerate (zero) right-hand sides and mixed finite/infinite bounds."""
    rng = np.random.default_rng(seed)
    if entries == "signs":
        A = rng.choice([-1.0, 1.0], (r, n))
    elif entries == "sparse signs":
        A = rng.choice([-1.0, 0.0, 1.0], (r, n))
    else:
        A = rng.uniform(-1.0, 1.0, (r, n))
    b = {
        "zero": np.zeros(r),
        "zero but one": np.append(np.zeros(r - 1), 1.0),
        "positive": rng.uniform(0.1, 1.0, r),
        "mixed": rng.choice([-1.0, 0.0, 0.5, 1.0], r),
    }[rhs]
    c = rng.choice([-1.0, 0.0, 1.0], n) if entries != "general" else rng.uniform(-1.0, 1.0, n)
    u = {
        "infinite": np.full(n, math.inf),
        "finite": rng.choice([0.0, 0.25, 0.5, 1.0], n),
        "mixed": rng.choice([0.5, 1.0, math.inf], n),
    }[bounds]
    return A, b, c, u


_KERNEL_KINDS = dict(
    entries=["signs", "sparse signs", "general"],
    rhs=["zero", "zero but one", "positive", "mixed"],
    bounds=["infinite", "finite", "mixed"],
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 30),
    st.sampled_from(_KERNEL_KINDS["entries"]),
    st.sampled_from(_KERNEL_KINDS["rhs"]),
    st.sampled_from(_KERNEL_KINDS["bounds"]),
    st.integers(0, 2**32 - 1),
)
def test_simplex_matches_the_reference_kernel_bit_for_bit(r, n, entries, rhs, bounds, seed):
    kernel = _random_kernel(r, n, entries, rhs, bounds, seed)
    assert _outcome(_simplex_min, *kernel) == _outcome(reference_simplex_min, *kernel)


def test_reference_cross_check_reaches_every_outcome():
    # the same generator as the property test, swept over fixed seeds:
    # optimal, infeasible and unbounded kernels all occur and all match
    seen = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        kinds = {key: str(rng.choice(values)) for key, values in _KERNEL_KINDS.items()}
        kernel = _random_kernel(int(rng.integers(1, 13)), int(rng.integers(1, 31)), seed=seed, **kinds)
        outcome = _outcome(_simplex_min, *kernel)
        assert outcome == _outcome(reference_simplex_min, *kernel)
        seen.add(outcome[0])
    assert {"solved", "LpInfeasibleError", "LpUnboundedError"} <= seen


# Kernels that enter phase 2 in the two states it rebuilds from x_nb alone:
# an artificial still basic (the equality rows repeat, so one artificial
# stays in the basis at zero), and structurals at their upper bounds
_PHASE_TWO_STARTS = {
    "artificial_basic": (
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        np.array([1.0, 1.0]),
        np.array([1.0, 2.0, 0.5]),
        np.full(3, math.inf),
        [0.0, 0.0, 1.0],
    ),
    "structurals_at_upper": (
        np.array([[1.0, 1.0, 1.0]]),
        np.array([2.0]),
        np.array([-1.0, 0.0, 1.0]),
        np.array([0.5, 1.0, math.inf]),
        [0.5, 1.0, 0.5],
    ),
}


@pytest.mark.parametrize("case", list(_PHASE_TWO_STARTS))
def test_phase_two_start_states_match_the_reference_and_highs(monkeypatch, case):
    *kernel, optimum = _PHASE_TWO_STARTS[case]
    A, b, c, u = kernel
    n = A.shape[1]
    starts = []
    iterate = lp._iterate

    def recording_iterate(A1, b1, c1, u1, basis, x_nb):
        starts.append((basis.copy(), x_nb.copy()))
        return iterate(A1, b1, c1, u1, basis, x_nb)

    monkeypatch.setattr(lp, "_iterate", recording_iterate)
    assert _outcome(_simplex_min, *kernel) == _outcome(reference_simplex_min, *kernel)
    basis, x_nb = starts[1]
    if case == "artificial_basic":
        assert np.any(basis >= n)
    else:
        assert np.any((x_nb[:n] > 0.0) & (x_nb[:n] == u))
    x, _ = _simplex_min(*kernel)
    assert np.array_equal(x, optimum)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(np.zeros(n), u)), method="highs")
    assert ref.status == 0, ref.message
    assert float(c @ x) == pytest.approx(ref.fun, abs=1e-12)


def _reference_edge_min(monkeypatch, A, nu):
    """solve_edge_min with the LP handed to the reference kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_solve_max", reference_solve_max)
        return solve_edge_min(A, nu)


def _parts(sol):
    return sol.d, sol.w, sol.gamma, sol.rho


def test_every_lp_of_an_mlpb_ss_fit_matches_the_reference(monkeypatch):
    calls = []

    def recording_solve(A, nu):
        sol = solve_edge_min(A, nu)
        calls.append((A.as_array().copy(), nu, sol))
        return sol

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    data = two_gaussians(200, seed=0)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule="short_step", secondary="lpboost")
    model, _ = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert len(calls) >= 10
    for G, nu, sol in calls:
        ref = _reference_edge_min(monkeypatch, _gain(G.T), nu)
        assert _outcome(_parts, sol) == _outcome(_parts, ref)


@pytest.mark.parametrize(
    "family, v",
    [(1, 1e-8), (1, 5e-10), (1, 1e-10), (2, 1e-9), (2, 1.01e-10), (2, 1e-10), (2, 5e-11)],
)
def test_tiny_gain_failures_match_the_reference(monkeypatch, family, v):
    # the strict xfail below must keep failing exactly as before
    A = _gain(_tiny_gain_rows(family, v).T)
    new = _outcome(lambda: _parts(solve_edge_min(A, 1.0)))
    assert new[0] != "solved"
    assert new == _outcome(lambda: _parts(_reference_edge_min(monkeypatch, A, 1.0)))


# max x2 - x5 subject to G x <= (0, 0, 0, 1), x >= 0: a degenerate vertex
# at the origin where the stall-to-Bland switch picks another optimum
_DEGENERATE_G = np.array(
    [
        [-1, -1, 0, 0, 1, 0, -1],
        [-1, 0, 0, 1, 0, 0, 0],
        [-1, 1, -1, -1, 0, -1, 0],
        [1, 1, 1, 1, 1, 1, 1],
    ],
    dtype=float,
)
_DEGENERATE_H = np.array([0.0, 0.0, 0.0, 1.0])
_DEGENERATE_C = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.0])


def test_stall_switch_to_bland_matches_highs_and_the_reference(monkeypatch):
    kernel = _slack_form(_DEGENERATE_G, _DEGENERATE_H, _DEGENERATE_C)
    dantzig = _outcome(_simplex_min, *kernel)
    monkeypatch.setattr(lp, "_STALL_LIMIT", 1)
    bland = _outcome(_simplex_min, *kernel)
    # Bland's rule ends at a different optimal vertex, so the switch fired
    assert bland != dantzig
    assert bland == _outcome(reference_simplex_min, *kernel)
    x, _ = _simplex_min(*kernel)
    ref = linprog(-_DEGENERATE_C, A_ub=_DEGENERATE_G, b_ub=_DEGENERATE_H, method="highs")
    assert ref.status == 0, ref.message
    value = float(_DEGENERATE_C @ x[:7])
    assert value == pytest.approx(-ref.fun, abs=1e-12)
    assert np.all(_DEGENERATE_G @ x[:7] <= _DEGENERATE_H + 1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_min_under_immediate_bland_matches_highs_and_the_reference(data):
    G, nu = data.draw(sign_matrices(wide=data.draw(st.booleans())))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_STALL_LIMIT", 1)
        sol = solve_edge_min(_gain(G.T), nu)
        ref = _reference_edge_min(patch, _gain(G.T), nu)
        assert _outcome(_parts, sol) == _outcome(_parts, ref)
    assert sol.gamma == pytest.approx(_scipy_edge_min(G, nu), abs=1e-7)


def test_pivot_limit_raises_and_the_booster_keeps_the_fw_step(monkeypatch, caplog):
    # the third restricted LP gets one pivot, so the kernel itself raises
    calls = {"n": 0}

    def starved_third_solve(A, nu):
        calls["n"] += 1
        with monkeypatch.context() as patch:
            if calls["n"] == 3:
                patch.setattr(lp, "_MAX_PIVOTS", 1)
            return solve_edge_min(A, nu)

    monkeypatch.setattr(boosting, "solve_edge_min", starved_third_solve)
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert calls["n"] > 3
    assert records[2].chosen_rule == "fw"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["round 3: secondary update failed (pivot limit exceeded); keeping the FW step"]


@pytest.mark.parametrize("nu", [0.0, math.nan, math.inf, -1.0, 5.0, 0.5])
def test_edge_min_rejects_nu_outside_one_to_m_before_solving(monkeypatch, nu):
    def no_solve(*args):
        raise AssertionError("the LP was built")

    monkeypatch.setattr(lp, "_solve_max", no_solve)
    A = _gain([[1.0, -1.0, 1.0, 1.0], [-1.0, -1.0, 1.0, -1.0]])
    with pytest.raises(ValueError, match=r"nu must lie in \[1, m\]; got"):
        solve_edge_min(A, nu)
