import itertools
import logging
import math
import unittest
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from marginforge import boosting, cli, lp
from marginforge.boosting import BoosterConfig, run_scheme
from marginforge.constants import LP_PIVOT_TOL, STRONG_DUALITY_TOL
from marginforge.core import GainMatrix, check_distribution, check_ensemble_weights
from marginforge.entropy import capped_min_linear
from marginforge.lp import _REFACTOR_INTERVAL, LpError, solve_edge_min
from marginforge.stumps import StumpLearner

from conftest import (
    min_linear_over_cap,
    reference_edge_min,
    reference_simplex_min,
    ringnorm,
    scipy_edge_min,
    two_gaussians,
)


def _simplex_min(A, b, c, upper, basis, x_nb):
    """``lp._optimum`` on copies of the start ``basis`` and ``x_nb``, which
    stay as they were: from a feasible start its dual loop makes no pivot."""
    return lp._optimum(A, b, c, upper, basis.copy(), x_nb.copy())


def _slack_form(G, h, c, upper=None):
    """Kernel form (A, b, cost, u, basis, x_nb) of max c@x st G@x <= h,
    0 <= x <= upper: one slack column per row, costs negated for
    minimisation, and the slack basis as the start, feasible for h >= 0."""
    r, n = G.shape
    upper = np.full(n, math.inf) if upper is None else np.asarray(upper, dtype=float)
    return (
        np.hstack([G, np.eye(r)]),
        h,
        np.concatenate([-c, np.zeros(r)]),
        np.concatenate([upper, np.full(r, math.inf)]),
        np.arange(n, n + r),
        np.zeros(n + r),
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
    x, _ = _simplex_min(
        np.array([[1.0, 1.0]]), np.array([1.0]), -c, np.full(2, math.inf), np.array([0]), np.zeros(2)
    )
    assert float(c @ x) == pytest.approx(1.0)
    assert x.sum() == pytest.approx(1.0)


def test_unbounded_is_reported():
    # max x st -x <= 1: x enters and no row blocks it
    kernel = _slack_form(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))
    for solve in (_simplex_min, reference_simplex_min):
        with pytest.raises(LpError, match="unbounded"):
            solve(*kernel)


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
        check_ensemble_weights(sol.w, A)
        assert abs(sol.gamma - sol.rho) <= 1e-7
        # primal attainment: d really achieves the reported worst edge
        assert np.max(sol.d @ A.as_array()) == pytest.approx(sol.gamma, abs=1e-8)
        # independent dual value via vertex enumeration at small m
        if m <= 8:
            rho_ref = min_linear_over_cap(A.as_array() @ sol.w, nu)
            assert sol.rho == pytest.approx(rho_ref, abs=1e-9)


def test_edge_min_wide_matrix_uses_dual_form():
    # t > m: more edge rows than instances; w is read from their duals
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


@pytest.mark.parametrize("wide", [False, True], ids=["edge-min form", "wide"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_min_gamma_matches_scipy_highs(wide, data):
    G, nu = data.draw(sign_matrices(wide))
    sol = solve_edge_min(_gain(G.T), nu)
    assert sol.gamma == pytest.approx(scipy_edge_min(G, nu), abs=1e-7)


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


@pytest.mark.parametrize("wide", [False, True], ids=["edge-min form", "wide"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_min_over_repeated_rows_matches_scipy_highs(wide, data):
    G, nu, group = data.draw(repeated_row_matrices(wide))
    sol = solve_edge_min(_gain(G.T), nu)
    assert sol.gamma == pytest.approx(scipy_edge_min(G, nu), abs=1e-7)
    check_distribution(sol.d, nu)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-8)
    for g in np.unique(group):
        assert np.all(sol.d[group == g] == sol.d[group == g][0])


@pytest.mark.parametrize("wide", [False, True], ids=["edge-min form", "wide"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_min_start_basis_is_feasible_and_unimodular(wide, data):
    # the cold start solve_edge_min hands the kernel: x_nb at a bound and 0 on
    # the basis, a basis matrix of determinant +-1, and reduced costs of the
    # sign each nonbasic's bound needs, so the dual simplex can start there
    G, nu = data.draw(
        st.one_of(sign_matrices(wide), repeated_row_matrices(wide).map(lambda drawn: drawn[:2]))
    )
    starts = []
    optimum = lp._optimum

    def recording_optimum(kernel, rhs, cost, bounds, basis, x_nb):
        starts.append((kernel, cost, bounds, basis.copy(), x_nb.copy()))
        return optimum(kernel, rhs, cost, bounds, basis, x_nb)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_optimum", recording_optimum)
        try:
            solve_edge_min(_gain(G.T), nu)
        except (LpError, np.linalg.LinAlgError):
            pass  # the start is checked whether or not the pivots succeed
    (kernel, cost, bounds, basis, x_nb), = starts
    r = kernel.shape[0]
    assert np.unique(basis).size == r
    assert np.all((x_nb == 0.0) | (x_nb == bounds)) and np.all(x_nb[basis] == 0.0)
    B = kernel[:, basis]
    assert abs(np.linalg.det(B)) == pytest.approx(1.0, abs=1e-12)
    red = cost - np.linalg.solve(B.T, cost[basis]) @ kernel
    assert np.all(red * lp._pricing_signs(basis, x_nb) >= -1e-12)


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
    rows, group, counts, _ = lp._split_rows(G, 0, np.zeros(m, dtype=np.intp), 1)
    ref_rows, ref_group, ref_counts = np.unique(
        G, axis=0, return_inverse=True, return_counts=True
    )
    assert np.array_equal(rows, ref_rows)  # == on values, so -0.0 matches 0.0
    assert np.array_equal(group, ref_group.reshape(-1))
    assert np.array_equal(counts, ref_counts)


def test_edge_min_accepts_duals_within_the_pricing_tolerance(monkeypatch):
    # pricing stops with an edge row's dual of -7.3e-10 here; that is
    # inside LP_PIVOT_TOL, so it is rounding, not infeasibility
    G = np.array([[1e-9, -1.0, -1e-9], [-0.5, 0.5, 1e-10]])
    A = _gain(G.T)
    raw_duals = []
    cleanup = lp._cleanup_weights

    def recording_cleanup(raw):
        raw_duals.append(raw.copy())
        return cleanup(raw)

    monkeypatch.setattr(lp, "_cleanup_weights", recording_cleanup)
    sol = solve_edge_min(A, 1.0)
    (raw,) = raw_duals
    assert -LP_PIVOT_TOL < raw.min() < 0.0
    check_distribution(sol.d, 1.0)
    check_ensemble_weights(sol.w, A)
    assert sol.gamma == pytest.approx(scipy_edge_min(G, 1.0), abs=1e-7)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-8)


def test_ratio_test_ties_leave_no_row_past_its_bound():
    # two ratios 2e-13 apart, one on a row with a 2.3e6 step: treating them
    # as tied and evicting the other leaves that row 4.4e-7 past its bound,
    # and gamma comes out 0
    G = np.array([[0.0, 4.40284458e-07], [1.0, 0.0]])
    sol = solve_edge_min(_gain(G.T), 1.0)
    assert sol.gamma == pytest.approx(scipy_edge_min(G, 1.0), abs=1e-12)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-12)


def test_simplex_reinverts_basis_on_long_runs(monkeypatch):
    # 40 "le" rows with positive right-hand sides: from the slack basis the
    # optimum is more than _REFACTOR_INTERVAL basis changes away, so the
    # inverse is rebuilt
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
    assert len(inversions) > 1  # the starting inversion, plus at least one refresh

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
    """The 4 x 5 gain rows at nu 1 with one tiny entry v, near the absolute
    ratio-test tolerance (ROADMAP item 13)."""
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
    assert sol.gamma == pytest.approx(scipy_edge_min(G, 1.0), abs=1e-7)
    assert np.max(sol.d @ G) == pytest.approx(sol.gamma, abs=1e-8)


@pytest.mark.parametrize(
    "family, v",
    [(1, 1e-8), (1, 5e-10), (1, 1e-10), (2, 1e-9), (2, 1.01e-10), (2, 1e-10), (2, 5e-11)],
)
def test_edge_min_tiny_gains_solve_the_bounded_lp(family, v):
    G = _tiny_gain_rows(family, v)
    sol = solve_edge_min(_gain(G.T), 1.0)
    assert sol.gamma == pytest.approx(scipy_edge_min(G, 1.0), abs=1e-7)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _outcome(solve, *args):
    """A kernel's result as comparable bytes: the output arrays, or the
    exception's type and message."""
    try:
        return "solved", tuple(_bits(v) for v in solve(*args))
    except (LpError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)


def _random_kernel(r, n, entries, rhs, bounds, start, seed):
    """(A, b, c, u, basis, x_nb) of a random kernel LP: n structural
    columns, then r slacks whose basis is the start.  The rhs kind picks
    the slacks' start values, degenerate (zero) ones included; the bound
    kind mixes finite and infinite bounds; the start kind puts some
    finite-bounded structurals at their upper bound, and b absorbs them."""
    rng = np.random.default_rng(seed)
    if entries == "signs":
        G = rng.choice([-1.0, 1.0], (r, n))
    elif entries == "sparse signs":
        G = rng.choice([-1.0, 0.0, 1.0], (r, n))
    else:
        G = rng.uniform(-1.0, 1.0, (r, n))
    slack = {
        "zero": np.zeros(r),
        "zero but one": np.append(np.zeros(r - 1), 1.0),
        "positive": rng.uniform(0.1, 1.0, r),
        "mixed": rng.choice([0.0, 0.5, 1.0], r),
    }[rhs]
    c = rng.choice([-1.0, 0.0, 1.0], n) if entries != "general" else rng.uniform(-1.0, 1.0, n)
    u = {
        "infinite": np.full(n, math.inf),
        "finite": rng.choice([0.25, 0.5, 1.0], n),
        "mixed": rng.choice([0.5, 1.0, math.inf], n),
    }[bounds]
    x_nb = np.zeros(n + r)
    if start == "some at upper":
        x_nb[:n] = np.where(np.isfinite(u) & (rng.random(n) < 0.5), u, 0.0)
    return (
        np.hstack([G, np.eye(r)]),
        slack + G @ x_nb[:n],
        np.concatenate([c, np.zeros(r)]),
        np.concatenate([u, np.full(r, math.inf)]),
        np.arange(n, n + r),
        x_nb,
    )


_KERNEL_KINDS = dict(
    entries=["signs", "sparse signs", "general"],
    rhs=["zero", "zero but one", "positive", "mixed"],
    bounds=["infinite", "finite", "mixed"],
    start=["at lower", "some at upper"],
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 30),
    st.sampled_from(_KERNEL_KINDS["entries"]),
    st.sampled_from(_KERNEL_KINDS["rhs"]),
    st.sampled_from(_KERNEL_KINDS["bounds"]),
    st.sampled_from(_KERNEL_KINDS["start"]),
    st.integers(0, 2**32 - 1),
)
def test_simplex_matches_the_reference_kernel_bit_for_bit(r, n, entries, rhs, bounds, start, seed):
    kernel = _random_kernel(r, n, entries, rhs, bounds, start, seed)
    assert _outcome(_simplex_min, *kernel) == _outcome(reference_simplex_min, *kernel)


def test_reference_cross_check_reaches_every_outcome():
    # the same generator as the property test, swept over fixed seeds:
    # optimal and unbounded kernels both occur and all match
    seen = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        kinds = {key: str(rng.choice(values)) for key, values in _KERNEL_KINDS.items()}
        kernel = _random_kernel(int(rng.integers(1, 13)), int(rng.integers(1, 31)), seed=seed, **kinds)
        outcome = _outcome(_simplex_min, *kernel)
        assert outcome == _outcome(reference_simplex_min, *kernel)
        seen.add(outcome[0] if outcome[0] == "solved" else outcome)
    assert seen == {"solved", ("LpError", "LP is unbounded")}


def test_start_with_nonbasics_at_upper_matches_the_reference_and_highs():
    # min x0 - x2 st x0 + x1 + x2 = 2, x0 <= 0.5, x1 <= 1: the start holds
    # both bounded structurals at their upper bounds, and both must leave
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([2.0])
    c = np.array([1.0, 0.0, -1.0])
    u = np.array([0.5, 1.0, math.inf])
    kernel = (A, b, c, u, np.array([2]), np.array([0.5, 1.0, 0.0]))
    assert _outcome(_simplex_min, *kernel) == _outcome(reference_simplex_min, *kernel)
    x, _ = _simplex_min(*kernel)
    assert np.array_equal(x, [0.0, 0.0, 2.0])
    ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(np.zeros(3), u)), method="highs")
    assert ref.status == 0, ref.message
    assert float(c @ x) == pytest.approx(ref.fun, abs=1e-12)


def _reference_edge_min(A, nu, start=None):
    """solve_edge_min re-derived by the reference kernel."""
    return reference_edge_min(A.as_array(), nu, start)


def _parts(sol):
    return sol.d, sol.w, sol.gamma, sol.rho


def test_every_lp_of_an_mlpb_ss_fit_matches_the_reference(monkeypatch):
    # the fit's solves are warm-started; the cold solve of each of its LPs
    # is the one the reference kernel repeats bit for bit
    calls = []

    def recording_solve(A, nu, start=None):
        calls.append((A.as_array().copy(), nu))
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    data = two_gaussians(200, seed=0)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule="short_step", secondary="lpboost")
    model, _ = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert len(calls) >= 10
    for G, nu in calls:
        sol = solve_edge_min(_gain(G.T), nu)
        ref = _reference_edge_min(_gain(G.T), nu)
        assert _outcome(_parts, sol) == _outcome(_parts, ref)


def _solution_bits(sol):
    basis = sol.basis
    return [_bits(v) for v in (*_parts(sol), sol.margins, basis.group, basis.basic, basis.weights)]


def test_every_warm_solve_of_an_mlpb_ss_fit_matches_the_reference_set_up(monkeypatch):
    # each warm solve, as the fit ran it and again from a copy of its matrix,
    # equals bit for bit the reference that carries the same start group by
    # group, assembles the kernel from its constraint matrix and pivots by the
    # reference loops
    calls = []

    def recording_solve(A, nu, start=None):
        sol = solve_edge_min(A, nu, start=start)
        calls.append((A.as_array().copy(), nu, start, sol))
        return sol

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    data = two_gaussians(200, seed=0)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule="short_step", secondary="lpboost")
    model, _ = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    warm = [call for call in calls if call[2] is not None]
    assert len(warm) >= 10
    for G, nu, start, sol in warm:
        ref = _solution_bits(reference_edge_min(G, nu, start))
        assert _solution_bits(sol) == ref
        assert _solution_bits(solve_edge_min(_gain(G.T), nu, start=start)) == ref


@pytest.mark.parametrize(
    "family, v",
    [(1, 1e-8), (1, 5e-10), (1, 1e-10), (2, 1e-9), (2, 1.01e-10), (2, 1e-10), (2, 5e-11)],
)
def test_tiny_gain_failures_match_the_reference(family, v):
    # the tiny-gain cases solve, with the reference kernel's bits
    A = _gain(_tiny_gain_rows(family, v).T)
    new = _outcome(lambda: _parts(solve_edge_min(A, 1.0)))
    assert new[0] == "solved"
    assert new == _outcome(lambda: _parts(_reference_edge_min(A, 1.0)))


# max c @ x subject to G x <= h, x >= 0, each from the slack basis at a
# degenerate vertex: Beale's (1955) and Chvatal's ("Linear Programming",
# 1983, ch. 3) textbook examples, on which the largest-reduced-cost rule
# cycles, and one LP with more than one optimal vertex.  The last entry is
# the optimal value
_DEGENERATE_LPS = {
    "beale": (
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0],
        [0.75, -20.0, 0.5, -6.0],
        1.25,
    ),
    "chvatal": (
        [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]],
        [0.0, 0.0, 1.0],
        [10.0, -57.0, -9.0, -24.0],
        1.0,
    ),
    "two optima": (
        [
            [0, 1, -1, 1, -1, 0, 0],
            [-1, 0, 0, 1, 0, -1, -1],
            [1, 1, 1, 1, -1, 1, -1],
            [1, 1, 1, 1, 1, 1, 1],
        ],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0],
        1.0 / 3.0,
    ),
}


@pytest.mark.parametrize("name", list(_DEGENERATE_LPS))
def test_bland_pricing_reaches_the_optimum_of_degenerate_lps(monkeypatch, name):
    # Bland's rule cannot cycle: each LP solves within 12 pivots, at HiGHS's
    # optimum and with the reference kernel's bits
    G, h, c, optimum = _DEGENERATE_LPS[name]
    G, h, c = np.array(G, dtype=float), np.array(h), np.array(c)
    kernel = _slack_form(G, h, c)
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 12)
    assert _outcome(_simplex_min, *kernel) == _outcome(reference_simplex_min, *kernel)
    x, _ = _simplex_min(*kernel)
    ref = linprog(-c, A_ub=G, b_ub=h, method="highs")
    assert ref.status == 0, ref.message
    assert -ref.fun == pytest.approx(optimum, abs=1e-12)
    assert float(c @ x[: c.size]) == pytest.approx(optimum, abs=1e-12)
    assert np.all(G @ x[: c.size] <= h + 1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_min_under_immediate_bland_matches_highs_and_the_reference(data):
    # the clean-up prices by Bland's rule from its first pivot
    G, nu = data.draw(sign_matrices(wide=data.draw(st.booleans())))
    sol = solve_edge_min(_gain(G.T), nu)
    ref = _reference_edge_min(_gain(G.T), nu)
    assert _outcome(_parts, sol) == _outcome(_parts, ref)
    assert sol.gamma == pytest.approx(scipy_edge_min(G, nu), abs=1e-7)


def test_pivot_limit_raises_and_the_booster_keeps_the_fw_step(monkeypatch, caplog):
    # the third restricted LP, solved cold, gets one pivot, so the kernel
    # itself raises
    calls = {"n": 0}

    def starved_third_solve(A, nu, start=None):
        calls["n"] += 1
        with monkeypatch.context() as patch:
            if calls["n"] == 3:
                patch.setattr(lp, "_MAX_PIVOTS", 1)
                start = None
            return solve_edge_min(A, nu, start=start)

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


# 9 instances x 11 columns of +-1 and +-1e-9 gains whose solved LP, once its
# d is clipped to the cap and renormalised, leaves the capped simplex
_CLIPPED_OUT_G = np.array(
    [
        [-1, 1, -1, 1e-9, -1, -1, 1, -1, -1, 1e-9, -1e-9],
        [-1, -1e-9, -1, 1e-9, -1e-9, 1, 1, -1, -1e-9, -1, 1e-9],
        [-1, -1e-9, -1, -1, -1, -1, -1e-9, -1, -1, 1, 1e-9],
        [1, 1, -1e-9, 1, 1, 1e-9, -1e-9, -1, -1, -1, 1],
        [-1e-9, -1e-9, -1, -1, 1, -1, -1, 1, 1, 1, 1],
        [1, 1, -1, -1, 1, -1, 1, 1, 1e-9, -1, -1],
        [1, -1, 1, 1, -1, 1, 1, 1, -1, -1, 1e-9],
        [-1, -1, 1, 1, -1e-9, -1, 1, -1, -1, -1e-9, 1],
        [-1, -1, 1e-9, 1, 1, 1e-9, -1, -1, 1e-9, -1, -1e-9],
    ]
)


def test_edge_min_reports_a_cleaned_optimum_outside_its_set_as_lp_error():
    nu = 6.168163068520413
    try:
        sol = solve_edge_min(_gain(_CLIPPED_OUT_G.T), nu)
    except LpError:
        return  # a failed solve, which the booster survives; never a ValueError
    assert sol.gamma == pytest.approx(scipy_edge_min(_CLIPPED_OUT_G, nu), abs=1e-7)


def test_membership_failure_in_a_solve_keeps_the_fw_step(monkeypatch, caplog):
    # the third solve's distribution fails its check: an LpError, not a
    # ValueError that would end the fit
    calls = {"n": 0}
    check = lp.check_distribution

    def failing_third_check(d, nu):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueError("distribution entries leave [0, 1/nu]")
        return check(d, nu)

    monkeypatch.setattr(lp, "check_distribution", failing_third_check)
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert calls["n"] > 3
    assert records[2].chosen_rule == "fw"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        "round 3: secondary update failed (distribution entries leave [0, 1/nu]); keeping the FW step"
    ]


def test_the_strong_duality_check_refuses_a_nan_gamma():
    parts = dict(d=np.array([0.5, 0.5]), w=np.array([1.0]), margins=np.array([0.5, 0.5]), basis=None)
    with pytest.raises(LpError, match="strong duality violated: gamma=nan"):
        lp.EdgeMinSolution(gamma=math.nan, rho=0.5, **parts)
    gamma = 0.5 + STRONG_DUALITY_TOL  # a finite gap at the tolerance passes
    assert lp.EdgeMinSolution(gamma=gamma, rho=0.5, **parts).gamma == gamma


def test_the_distribution_clean_up_refuses_a_nan_weight():
    with pytest.raises(LpError, match="distribution weight below .*: nan"):
        lp._cleanup_distribution(np.array([math.nan, 0.5]), 1.0)
    # finite weights: clipped to [0, cap] and scaled to sum 1, as before
    raw = np.array([-0.5 * LP_PIVOT_TOL, 0.3, 0.9])
    expected = np.clip(raw, 0.0, 0.75)
    assert np.array_equal(lp._cleanup_distribution(raw, 0.75), expected / expected.sum())


def test_the_weight_clean_up_refuses_a_nan_dual():
    with pytest.raises(LpError, match="dual weight below .*: nan"):
        lp._cleanup_weights(np.array([math.nan, 0.5]))
    # finite duals: those at most LP_PIVOT_TOL dropped, the rest scaled to sum 1
    raw = np.array([-0.5 * LP_PIVOT_TOL, LP_PIVOT_TOL, 0.3, 0.9])
    kept = np.array([0.0, 0.0, 0.3, 0.9])
    assert np.array_equal(lp._cleanup_weights(raw), kept / kept.sum())


@pytest.mark.parametrize("nu", [0.0, math.nan, math.inf, -1.0, 5.0, 0.5])
def test_edge_min_rejects_nu_outside_one_to_m_before_solving(monkeypatch, nu):
    def no_solve(*args):
        raise AssertionError("the LP was built")

    monkeypatch.setattr(lp, "_optimum", no_solve)
    A = _gain([[1.0, -1.0, 1.0, 1.0], [-1.0, -1.0, 1.0, -1.0]])
    with pytest.raises(ValueError, match=r"nu must lie in \[1, m\]; got"):
        solve_edge_min(A, nu)


# -- warm starts: each solve restarts from the last one's final basis ------


@st.composite
def growing_matrices(draw):
    """(G, nu, counts): an m x T gain matrix, either of +-1 entries or of
    1/64-grid rows each repeated, and the column counts it is solved at,
    from one column up to T by one or several columns at a time."""
    m = draw(st.integers(1, 12))
    steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    T = 1 + sum(steps)
    if draw(st.booleans()):
        signs = draw(st.lists(st.booleans(), min_size=m * T, max_size=m * T))
        G = np.where(np.array(signs).reshape(m, T), 1.0, -1.0)
    else:
        k = draw(st.integers(1, m))
        cells = draw(st.lists(st.integers(-64, 64), min_size=k * T, max_size=k * T))
        rows = np.array(cells, dtype=float).reshape(k, T) / 64.0
        G = rows[draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))]
    nu = draw(st.floats(1.0, float(m)))
    return G, nu, list(np.cumsum([1] + steps))


_DUAL_ITERATE = lp._dual_iterate


def _dual_feasible_dual_iterate(A, b, c, u, basis, x_nb):
    """``lp._dual_iterate``, checked to end with reduced costs of the sign
    each nonbasic's bound needs (measured: 1.1e-15 at worst over 8,895
    warm solves of the strategy below)."""
    Binv = _DUAL_ITERATE(A, b, c, u, basis, x_nb)
    red = c - np.linalg.solve(A[:, basis].T, c[basis]) @ A
    assert np.all(red * lp._pricing_signs(basis, x_nb) >= -LP_PIVOT_TOL)
    return Binv


@settings(max_examples=150, deadline=None)
@given(growing_matrices())
def test_warm_solves_match_the_cold_solve_and_highs(drawn):
    G, nu, counts = drawn
    with (
        unittest.TestCase().assertNoLogs("marginforge", logging.DEBUG),
        mock.patch.object(lp, "_dual_iterate", _dual_feasible_dual_iterate),
    ):
        sol = solve_edge_min(_gain(G[:, :1].T), nu)
        for t in counts[1:]:
            A = _gain(G[:, :t].T)
            warm = solve_edge_min(A, nu, start=sol.basis)
            assert warm.basis is not None and warm.basis.t == t
            assert warm.gamma == pytest.approx(solve_edge_min(A, nu).gamma, abs=1e-7)
            assert warm.gamma == pytest.approx(scipy_edge_min(G[:, :t], nu), abs=1e-7)
            check_distribution(warm.d, nu)
            check_ensemble_weights(warm.w, A)
            assert abs(warm.gamma - warm.rho) <= STRONG_DUALITY_TOL
            assert np.max(warm.d @ G[:, :t]) == pytest.approx(warm.gamma, abs=1e-8)
            sol = warm


def test_a_new_column_that_splits_a_basic_group_fills_its_children_in_order():
    # one column: rows 2 and 3 (gain -1) form the basic group, weight 1 below
    # its cap 4/3; the second column splits it into (-1, -1) and (-1, 1)
    G = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    nu = 1.5
    sol = solve_edge_min(_gain(G[:, :1].T), nu)
    low = 0  # the -1 row sorts first
    assert low in sol.basis.basic and sol.basis.weights[low] == 1.0

    A = _gain(G.T)
    start = sol.basis
    rows, group, counts, parent = lp._split_rows(A.as_array(), start.t, start.group, start.weights.size)
    assert np.array_equal(parent, [0, 0, 1, 1])
    upper = counts / nu
    basis, x_nb = lp._carried_basis(sol.basis, parent, upper, 2)
    # child 0 fills to its cap 2/3, child 1 is basic with the remaining 1/3
    assert x_nb[0] == upper[0] and 1 in basis and 0 not in basis
    assert basis[-1] == len(upper) + 2 + 1  # the new row's slack, basic
    warm = solve_edge_min(A, nu, start=sol.basis)
    assert warm.gamma == pytest.approx(scipy_edge_min(G, nu), abs=1e-12)
    assert warm.gamma == pytest.approx(solve_edge_min(A, nu).gamma, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_a_warm_solve_of_an_unchanged_matrix_returns_the_bits_it_started_from(seed):
    rng = np.random.default_rng(seed)
    m, t = int(rng.integers(4, 30)), int(rng.integers(1, 8))
    G = rng.choice([-1.0, 1.0], (m, t)) if seed % 2 else rng.integers(-8, 9, (m, t)) / 8.0
    nu = float(rng.uniform(1.0, m))
    A = _gain(G.T)
    sol = solve_edge_min(A, nu, start=solve_edge_min(_gain(G[:, :1].T), nu).basis)
    again = solve_edge_min(A, nu, start=sol.basis)
    assert _outcome(_parts, again) == _outcome(_parts, sol)
    for name in ("group", "basic", "weights"):
        assert _bits(getattr(again.basis, name)) == _bits(getattr(sol.basis, name))


def test_every_solve_returns_a_frozen_basis():
    rng = np.random.default_rng(5)
    for m, t in [(3, 9), (9, 3)]:  # wide and narrow
        basis = solve_edge_min(_gain([rng.uniform(-1, 1, m) for _ in range(t)]), 1.5).basis
        assert basis.t == t and basis.group.size == m
        for array in (basis.group, basis.basic, basis.weights):
            with pytest.raises(ValueError):
                array[0] = 1  # a frozen value


def test_a_start_that_does_not_fit_the_matrix_is_a_value_error(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the LP was built")

    G = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    grown = solve_edge_min(_gain(G.T), 2.0).basis
    other = solve_edge_min(_gain([G[:, 0] * np.array([1.0, -1.0, 1.0, -1.0])]), 2.0).basis
    monkeypatch.setattr(lp, "_optimum", no_solve)
    with pytest.raises(ValueError, match="start solved 3 columns; A has 2"):
        solve_edge_min(_gain(G[:, :2].T), 2.0, start=grown)
    with pytest.raises(ValueError, match="do not hold identical rows"):
        solve_edge_min(_gain(G.T), 2.0, start=other)
    with pytest.raises(ValueError, match="cover 4 instances; A has 3"):
        solve_edge_min(_gain(G[:3].T), 2.0, start=grown)


@pytest.mark.parametrize("error", [LpError("forced"), np.linalg.LinAlgError("singular")])
def test_a_failed_dual_phase_raises_and_the_booster_keeps_the_fw_step(monkeypatch, caplog, error):
    # every solve, cold or warm, runs the dual loop, so its failure is the
    # solve's: solve_edge_min raises it, and the booster keeps the FW step
    def failing_dual_iterate(*args):
        raise error

    G = np.random.default_rng(3).choice([-1.0, 1.0], (40, 5))
    start = solve_edge_min(_gain(G[:, :2].T), 4.0).basis
    A = _gain(G.T)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_dual_iterate", failing_dual_iterate)
        for basis in (start, None):
            with pytest.raises(type(error), match=str(error)):
                solve_edge_min(A, 4.0, start=basis)

    calls = {"n": 0}

    def failing_third_dual_iterate(*args):
        calls["n"] += 1
        if calls["n"] == 3:
            raise error
        return _DUAL_ITERATE(*args)

    monkeypatch.setattr(lp, "_dual_iterate", failing_third_dual_iterate)
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge"):
        model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert calls["n"] > 3
    assert records[2].chosen_rule == "fw"
    assert [r.getMessage() for r in caplog.records] == [
        f"round 3: secondary update failed ({error}); keeping the FW step"
    ]


@pytest.mark.parametrize(
    "row, message",
    [([1.0, 1.0], "restricted LP is infeasible"), ([1.0, math.nan], "basic values are not finite")],
)
def test_the_dual_phase_raises_where_no_basis_is_feasible(row, message):
    # x1 + x2 = 1 with both caps at 0.25 has no feasible point: from basis
    # [0], x1 leaves at its cap and no column can lower x2 from 0.75; a NaN
    # in A leaves the basic values NaN
    A, caps, basis, x_nb = np.array([row]), np.full(2, 0.25), np.array([0]), np.zeros(2)
    with pytest.raises(LpError, match=message):
        lp._dual_iterate(A, np.ones(1), np.zeros(2), caps, basis, x_nb)


def test_the_warm_dual_phase_is_bounded_where_it_cycles(monkeypatch):
    # lpboost on ringnorm: on the true costs the dual loop cycled under dual
    # degeneracy and ran out the 200,000-pivot cap in three solves; on the
    # shifted costs of _optimum it ends well inside the cap
    count = {"inside": False, "pivots": 0}
    dual_iterate, exchange = lp._dual_iterate, lp._exchange

    def counted_dual_iterate(*args):
        count["inside"] = True
        try:
            return dual_iterate(*args)
        finally:
            count["inside"] = False

    def counted_exchange(*args):
        count["pivots"] += count["inside"]
        return exchange(*args)

    monkeypatch.setattr(lp, "_dual_iterate", counted_dual_iterate)
    monkeypatch.setattr(lp, "_exchange", counted_exchange)
    manifest = cli.RunManifest(data="ringnorm", algo="lpboost", nu_frac=0.1, eps=0.1)
    model, _ = cli._run_manifest(manifest, ringnorm(200, seed=3))
    assert model.converged
    assert 0 < count["pivots"] < 50_000


@pytest.mark.parametrize("algo", ["lpboost", "mlpb-ss"])
def test_paper_scale_fits_solve_every_lp_without_a_warning(monkeypatch, caplog, algo):
    # ringnorm at m = 2000: every restricted LP, cold or warm, solves by the
    # one perturbed dual loop, with no failed solve and no warning
    failures = []

    def recording_solve(A, nu, start=None):
        try:
            return solve_edge_min(A, nu, start=start)
        except Exception as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    manifest = cli.RunManifest(data="ringnorm", algo=algo, nu_frac=0.1, eps=0.1)
    with caplog.at_level(logging.DEBUG, logger="marginforge"):
        model, records = cli._run_manifest(manifest, ringnorm(2000, seed=0))
    assert model.converged
    assert failures == []
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert any(rec.chosen_rule == "secondary" for rec in records)


@settings(max_examples=100, deadline=None)
@given(growing_matrices())
def test_every_pricing_step_reads_its_signs_off_a_bound_state(drawn):
    # the loops carry no sign array: each reads its pricing signs off basis
    # and x_nb, which name every variable's bound state only while x_nb is 0
    # on the basis and 0 or u[j] off it; that holds at every pricing step
    # of both loops, over cold and warm solves
    G, nu, counts = drawn
    optimum, pricing_signs = lp._optimum, lp._pricing_signs
    dual_iterate, iterate, exchange = lp._dual_iterate, lp._iterate, lp._exchange
    state = {"u": None, "loop": None}
    priced = {"dual": 0, "primal": 0}
    dual_pivots = [0]

    def recording_optimum(A, b, c, upper, basis, x_nb):
        state["u"] = upper
        return optimum(A, b, c, upper, basis, x_nb)

    def in_loop(name, loop):
        def run(*args):
            state["loop"] = name
            try:
                return loop(*args)
            finally:
                state["loop"] = None

        return run

    def checked_signs(basis, x_nb):
        u, off = state["u"], np.ones(x_nb.size, dtype=bool)
        off[basis] = False
        assert np.all(x_nb[basis] == 0.0)
        assert np.all((x_nb[off] == 0.0) | (x_nb[off] == u[off]))
        if state["loop"] is not None:
            priced[state["loop"]] += 1
        return pricing_signs(basis, x_nb)

    def counted_exchange(*args):
        dual_pivots[0] += state["loop"] == "dual"
        return exchange(*args)

    with (
        mock.patch.object(lp, "_optimum", recording_optimum),
        mock.patch.object(lp, "_dual_iterate", in_loop("dual", dual_iterate)),
        mock.patch.object(lp, "_iterate", in_loop("primal", iterate)),
        mock.patch.object(lp, "_pricing_signs", checked_signs),
        mock.patch.object(lp, "_exchange", counted_exchange),
    ):
        sol = solve_edge_min(_gain(G[:, :1].T), nu)
        for t in counts[1:]:
            sol = solve_edge_min(_gain(G[:, :t].T), nu, start=sol.basis)
    assert priced["dual"] == dual_pivots[0]  # each dual pivot priced once
    assert priced["primal"] >= len(counts)  # each clean-up priced at least once
