import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from marginforge import boosting, entropy, fw
from marginforge.boosting import BoosterConfig, run_scheme, secondary_erlpboost
from marginforge.constants import NEWTON_ARMIJO, NEWTON_RIDGE, SIMPLEX_SUM_TOL
from marginforge.core import CapParams, GainMatrix, margins
from marginforge.entropy import _project, capped_entropy_projection, smoothed_conjugate
from marginforge.fw import classic_step, line_search_step, pairwise_step, short_step
from marginforge.stumps import StumpLearner, StumpPool, full_gain_matrix

from conftest import two_gaussians


def column_of(A, j):
    """Column j of A, the new column a FW rule takes after its index."""
    return A.as_array()[:, j]


def round_proj(base, params=None, d=None):
    """The round state a FW rule takes: the kernel projection of the
    margins ``base``, whose ``theta`` is ``base`` itself.  The classic and
    short steps read only its ``theta`` and ``d``, so with ``params``
    None any cap will do; ``d``, where given, replaces its distribution,
    for a short step at a hand-picked d."""
    if params is None:
        params = CapParams(nu=1.0, m=base.shape[0], eta=1.0, eps=0.1)
    proj = _project(base, params)
    return proj if d is None else replace(proj, d=d)


def smoothed_obj(A, w, params):
    return smoothed_conjugate(-margins(A, w), params)


def random_instance(rng, m=None, t=None):
    m = m or int(rng.integers(2, 10))
    t = t or int(rng.integers(2, 7))
    A = GainMatrix([rng.uniform(-1, 1, m) for _ in range(t)], list(range(t)))
    size = int(rng.integers(1, t + 1))
    support = rng.choice(t, size=size, replace=False)
    coeffs = rng.exponential(1.0, size)
    coeffs /= coeffs.sum()
    w = np.zeros(t)
    w[support] = coeffs
    params = CapParams(
        nu=float(rng.uniform(1.0, m)), m=m, eta=float(rng.uniform(1.0, 60.0)), eps=0.1
    )
    raw = rng.exponential(1.0, m)
    return A, w, params, raw / raw.sum()


def test_classic_step_sizes():
    A = GainMatrix([np.array([0.5, -0.5]), np.array([0.2, 0.1]), np.array([-1.0, 1.0])], [0, 1, 2])
    w = np.array([0.4, 0.6, 0.0])
    proj = round_proj(margins(A, w))
    assert classic_step(w, 2, column_of(A, 2), proj, 0).step_size == pytest.approx(1.0)
    assert classic_step(w, 2, column_of(A, 2), proj, 2).step_size == pytest.approx(0.5)
    assert classic_step(w, 2, column_of(A, 2), proj, 998).step_size == pytest.approx(0.002)
    out = classic_step(w, 2, column_of(A, 2), proj, 0)
    assert out.new_w == pytest.approx([0.0, 0.0, 1.0])


def test_short_step_hand_case_and_slope():
    A = GainMatrix([np.zeros(2), np.array([0.5, -0.5])], [0, 1])
    w = np.array([1.0, 0.0])
    d = np.array([0.8, 0.2])
    out = short_step(w, 1, column_of(A, 1), round_proj(margins(A, w), d=d), eta=4.0)
    assert out.step_size == pytest.approx(0.3)

    # same numerator through a finite difference of the smoothed
    # objective when d is the true gradient at w
    params = CapParams(nu=1.2, m=2, eta=4.0, eps=0.1)
    d_true = capped_entropy_projection(margins(A, w), params).d
    direction = A.as_array()[:, 1] - margins(A, w)
    num = float(d_true @ direction)
    h = 1e-6
    fd = (smoothed_obj(A, np.array([1 - h, h]), params) - smoothed_obj(A, w, params)) / h
    assert fd == pytest.approx(-num, abs=1e-5)


def test_short_step_clips_to_zero_and_one():
    A = GainMatrix([np.zeros(3), np.array([0.5, 0.5, -0.5])], [0, 1])
    w = np.array([1.0, 0.0])
    down = np.array([0.1, 0.1, 0.8])  # negative numerator
    base = margins(A, w)
    assert short_step(w, 1, column_of(A, 1), round_proj(base, d=down), eta=2.0).step_size == 0.0
    up = np.array([0.45, 0.45, 0.1])  # numerator 0.4 vs denominator 0.025
    assert short_step(w, 1, column_of(A, 1), round_proj(base, d=up), eta=0.1).step_size == 1.0


def test_short_step_zero_direction():
    A = GainMatrix([np.array([0.3, -0.3])], [0])
    w = np.array([1.0])
    proj = round_proj(margins(A, w), d=np.array([0.5, 0.5]))
    out = short_step(w, 0, column_of(A, 0), proj, eta=5.0)
    assert out.step_size == 0.0


def test_line_search_boundary_cases():
    rng = np.random.default_rng(0)
    A, w, params, _ = random_instance(rng, m=4, t=3)
    # moving toward the current mix itself cannot improve: slope(0) >= 0
    j_self = int(np.argmax(w))
    base = margins(A, w)
    d0 = capped_entropy_projection(base, params).d
    if float(d0 @ (A.as_array()[:, j_self] - base)) <= 0:
        step = line_search_step(w, j_self, column_of(A, j_self), round_proj(base, params), params)
        assert step.step_size == 0.0


def test_line_search_saturates_at_one():
    # second column dominates the first everywhere: slope stays negative
    A = GainMatrix([np.full(3, -0.8), np.full(3, 0.9)], [0, 1])
    params = CapParams(nu=1.0, m=3, eta=3.0, eps=0.1)
    w = np.array([1.0, 0.0])
    out = line_search_step(w, 1, column_of(A, 1), round_proj(margins(A, w), params), params)
    assert out.step_size == pytest.approx(1.0)
    assert out.new_w == pytest.approx([0.0, 1.0])


def test_line_search_matches_grid_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        A, w, params, _ = random_instance(rng)
        j_new = int(rng.integers(0, A.t))
        base = margins(A, w)
        out = line_search_step(w, j_new, column_of(A, j_new), round_proj(base, params), params)
        value = smoothed_obj(A, out.new_w, params)
        direction = A.as_array()[:, j_new] - base
        grid = np.linspace(0.0, 1.0, 10_001)
        grid_best = min(
            -capped_entropy_projection(base + lam * direction, params).objective
            for lam in grid
        )
        assert value <= grid_best + 1e-8


def test_rules_return_normalised_simplex_points():
    rng = np.random.default_rng(33)
    for _ in range(20):
        A, w, params, _ = random_instance(rng)
        j_new = int(rng.integers(0, A.t))
        proj = round_proj(margins(A, w), params)
        for out in (
            classic_step(w, j_new, column_of(A, j_new), proj, int(rng.integers(0, 50))),
            short_step(w, j_new, column_of(A, j_new), proj, params.eta),
            line_search_step(w, j_new, column_of(A, j_new), proj, params),
            pairwise_step(A, w, j_new, column_of(A, j_new), proj, params),
        ):
            assert out.new_w.shape == (A.t,)
            assert abs(out.new_w.sum() - 1.0) <= 1e-12
            assert np.all((out.new_w == 0.0) | (out.new_w > fw.SUPPORT_DROP_TOL))
            assert 0.0 <= out.step_size <= 1.0


def test_short_step_and_line_search_descend():
    rng = np.random.default_rng(25)
    for _ in range(15):
        A, w, params, _ = random_instance(rng)
        proj = round_proj(margins(A, w), params)  # d is the true gradient
        j_new = int(np.argmax(proj.d @ A.as_array()))
        before = smoothed_obj(A, w, params)
        column = column_of(A, j_new)
        after_ss = smoothed_obj(A, short_step(w, j_new, column, proj, params.eta).new_w, params)
        after_ls = smoothed_obj(A, line_search_step(w, j_new, column, proj, params).new_w, params)
        assert after_ss <= before + 1e-9
        assert after_ls <= after_ss + 1e-9  # line search dominates short step


def test_pairwise_degenerate_support_is_noop():
    A = GainMatrix([np.array([0.5, -0.5]), np.array([0.1, 0.2])], [0, 1])
    params = CapParams(nu=1.0, m=2, eta=2.0, eps=0.1)
    w = np.array([1.0, 0.0])
    out = pairwise_step(A, w, 0, column_of(A, 0), round_proj(margins(A, w), params), params)
    assert out.new_w == pytest.approx([1.0, 0.0])


def test_pairwise_drop_step_removes_away_column():
    # away column is strictly dominated, so the line search hits the cap
    A = GainMatrix([np.full(3, -0.9), np.full(3, 0.8)], [0, 1])
    params = CapParams(nu=1.0, m=3, eta=2.0, eps=0.1)
    w = np.array([0.3, 0.7])
    out = pairwise_step(A, w, 1, column_of(A, 1), round_proj(margins(A, w), params), params)
    assert out.step_size == pytest.approx(0.3)
    assert not out.good_step
    assert np.flatnonzero(out.new_w).tolist() == [1]


def test_pairwise_away_choice_and_descent():
    rng = np.random.default_rng(44)
    for _ in range(15):
        A, w, params, _ = random_instance(rng)
        proj = round_proj(margins(A, w), params)
        d = proj.d
        j_new = int(np.argmax(d @ A.as_array()))
        out = pairwise_step(A, w, j_new, column_of(A, j_new), proj, params)
        # exhaustive away check: the step moves mass off the worst support
        # column, and no more than that column holds
        away = min(np.flatnonzero(w), key=lambda j: (float(d @ A.as_array()[:, j]), j))
        assert out.step_size <= w[away]
        moved = w.copy()
        moved[away] -= out.step_size
        moved[j_new] += out.step_size
        total = moved[moved > fw.SUPPORT_DROP_TOL].sum()
        assert out.new_w[away] == pytest.approx(moved[away] / total)
        assert smoothed_obj(A, out.new_w, params) <= smoothed_obj(A, w, params) + 1e-12


def test_line_search_from_known_projection_is_identical(monkeypatch):
    # the line search projects through the unchecked kernel, so that is what is counted
    calls = {"n": 0}
    project = fw._project

    def counting_projection(*args, **kwargs):
        calls["n"] += 1
        return project(*args, **kwargs)

    monkeypatch.setattr(fw, "_project", counting_projection)
    rng = np.random.default_rng(45)
    for _ in range(30):
        A, w, params, _ = random_instance(rng)
        proj = capped_entropy_projection(margins(A, w), params)
        j_new = int(np.argmax(proj.d @ A.as_array()))
        direction = A.as_array()[:, j_new] - proj.theta
        before = calls["n"]
        lam = fw._line_search(proj.theta, direction, 1.0, params, fw._project(proj.theta, params))
        fresh = calls["n"] - before
        lam_given = fw._line_search(proj.theta, direction, 1.0, params, at_zero=proj)
        assert lam_given == lam  # bit-equal step
        assert fresh >= 1
        assert calls["n"] - before - fresh == fresh - 1


def reference_bisection(base, direction, hi, params):
    """The sign bisection the line search replaced (tolerance 1e-10, 50 halvings)."""

    def slope(lam):
        return -float(capped_entropy_projection(base + lam * direction, params).d @ direction)

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(hi) <= 0.0:
        return hi
    lo, up = 0.0, hi
    for _ in range(50):
        if up - lo <= 1e-10:
            break
        mid = 0.5 * (lo + up)
        if slope(mid) >= 0.0:
            up = mid
        else:
            lo = mid
    return 0.5 * (lo + up)


@st.composite
def line_search_instances(draw):
    """Segment data as the FW rules build it: a line-search or pairwise direction."""
    m = draw(st.integers(2, 12))
    t = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = GainMatrix([rng.uniform(-1, 1, m) for _ in range(t)], list(range(t)))
    coeffs = rng.exponential(1.0, t)
    w = coeffs / coeffs.sum()
    params = CapParams(
        nu=draw(st.floats(1.0, float(m))), m=m, eta=draw(st.floats(0.5, 500.0)), eps=0.1
    )
    base = margins(A, w)
    j_new, j_away = draw(st.permutations(range(t)))[:2]
    if draw(st.booleans()):
        return base, A.as_array()[:, j_new] - A.as_array()[:, j_away], w[j_away], params
    return base, A.as_array()[:, j_new] - base, 1.0, params


@settings(max_examples=300, deadline=None)
@given(line_search_instances())
def test_line_search_agrees_with_reference_bisection(instance):
    base, direction, hi, params = instance
    lam = fw._line_search(base, direction, hi, params, _project(base, params))
    ref = reference_bisection(base, direction, hi, params)
    if ref in (0.0, hi):
        assert lam == ref
        return
    assert 0.0 < lam < hi
    assert abs(lam - ref) <= 1e-8

    def smoothed(x):
        return -capped_entropy_projection(base + x * direction, params).objective

    assert smoothed(lam) <= smoothed(ref) + 1e-12


def test_curvature_matches_finite_difference_of_slope():
    rng = np.random.default_rng(5)
    h = 1e-6
    checked = 0
    for _ in range(200):
        m = int(rng.integers(2, 12))
        params = CapParams(
            nu=float(rng.uniform(1.0, m)), m=m, eta=float(rng.uniform(0.5, 50.0)), eps=0.1
        )
        base, direction = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        lam = float(rng.uniform(h, 1.0 - h))
        capped_sets = {
            frozenset(proj.order[: proj.capped_count].tolist())
            for proj in (
                capped_entropy_projection(base + x * direction, params)
                for x in (lam - h, lam, lam + h)
            )
        }
        if len(capped_sets) != 1:
            continue  # the capped set changes inside the stencil
        _, ds = fw._slope_and_curvature(base, direction, lam, params)
        s_minus, _ = fw._slope_and_curvature(base, direction, lam - h, params)
        s_plus, _ = fw._slope_and_curvature(base, direction, lam + h, params)
        assert ds >= -1e-12
        assert ds == pytest.approx((s_plus - s_minus) / (2 * h), rel=1e-5, abs=1e-7)
        checked += 1
    assert checked >= 100


def test_erlpboost_line_search_projection_count(monkeypatch):
    # the solve starts from the projection the round hands it, so it makes no
    # checked projection (counted through entropy's own ``_project``, which
    # only the public functions call); every one it makes, the line search's
    # included, goes through the kernel
    counts = {"kernel": 0, "public": 0, "searches": 0}
    per_solve = []
    project, search, solve = fw._project, fw._line_search, boosting.secondary_erlpboost

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def counting_solve(*args, **kwargs):
        before = dict(counts)
        result = solve(*args, **kwargs)
        per_solve.append({key: counts[key] - before[key] for key in counts})
        return result

    monkeypatch.setattr(fw, "_project", counting("kernel", project))
    monkeypatch.setattr(boosting, "_project", counting("kernel", project))
    monkeypatch.setattr(entropy, "_project", counting("public", project))
    monkeypatch.setattr(fw, "_line_search", counting("searches", search))
    monkeypatch.setattr(boosting, "secondary_erlpboost", counting_solve)
    data = two_gaussians(200, seed=0, p=10)
    config = BoosterConfig(eps=0.2, nu=20.0, secondary="erlpboost")
    model, _ = run_scheme(data, StumpLearner(data), config)
    assert model.converged
    assert counts["searches"] > 0
    assert per_solve
    for solve_counts in per_solve:
        assert solve_counts["public"] == 0
        assert solve_counts["kernel"] <= 50
    # measured 84; 111, plus one checked projection per solve, where each
    # solve re-projected its start and each refused full step ran an exact search
    assert counts["kernel"] <= 95


def test_erlpboost_full_newton_steps_save_projections(monkeypatch):
    # 295 kernel projections with an exact line search on every Newton step
    counts = {"kernel": 0}
    project = fw._project

    def counting(*args, **kwargs):
        counts["kernel"] += 1
        return project(*args, **kwargs)

    monkeypatch.setattr(fw, "_project", counting)
    monkeypatch.setattr(boosting, "_project", counting)
    data = two_gaussians(200, seed=0)
    config = BoosterConfig(eps=0.01, nu=20.0, secondary="erlpboost")
    model, records = run_scheme(data, StumpLearner(data), config)
    assert model.converged and len(records) == 19
    assert counts["kernel"] <= 220


def test_hessian_matches_curvature_along_the_margins():
    rng = np.random.default_rng(11)
    capped = 0
    for _ in range(300):
        A, w, params, _ = random_instance(rng, t=int(rng.integers(1, 8)))
        G = A.as_array()
        proj = capped_entropy_projection(G @ w, params)
        H = fw._hessian(G, proj, params)
        u = rng.normal(size=A.t)
        u -= u.mean()  # a direction inside the simplex
        _, ds = fw._slope_and_curvature(proj.theta, G @ u, 0.0, params, proj)
        assert u @ H @ u == pytest.approx(ds, rel=1e-9, abs=1e-12)
        assert np.allclose(H, H.T, atol=1e-12)
        capped += proj.capped_count > 0
    assert capped >= 30


def model_value(H, g, start, v):
    u = v - start
    return float(g @ u + 0.5 * u @ H @ u)


def slsqp_simplex_min(fun, jac, t, starts):
    best = math.inf
    for x0 in starts:
        res = minimize(
            fun, x0, jac=jac, method="SLSQP", bounds=[(0.0, 1.0)] * t,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                          "jac": lambda x: np.ones_like(x)}],
            options={"ftol": 1e-15, "maxiter": 500},
        )
        x = np.clip(res.x, 0.0, None)
        best = min(best, fun(x / x.sum()))
    return best


@st.composite
def simplex_qps(draw):
    """(H, g, start): PSD H, singular when columns are duplicated or negated."""
    t = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.normal(size=(draw(st.integers(1, 10)), t))
    for j in range(1, t):
        tie = draw(st.sampled_from(["none", "duplicate", "negate"]))
        if tie != "none":
            i = int(rng.integers(0, j))
            B[:, j] = B[:, i] if tie == "duplicate" else -B[:, i]
    H = draw(st.floats(0.1, 500.0)) * B.T @ B
    g = rng.uniform(-1, 1, t)
    start = rng.exponential(1.0, t) * (rng.random(t) < 0.6)
    if start.sum() == 0.0:
        start[int(rng.integers(0, t))] = 1.0
    return H, g, start / start.sum()


@settings(max_examples=150, deadline=None)
@given(simplex_qps())
def test_simplex_qp_matches_slsqp(qp):
    H, g, start = qp
    v = fw._simplex_qp(H, g, start)
    assert np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-9
    t = g.size
    ref = slsqp_simplex_min(
        lambda x: model_value(H, g, start, x),
        lambda x: g + H @ (x - start),
        t,
        [start, np.full(t, 1.0 / t), np.eye(1, t, int(np.argmin(g)))[0]],
    )
    scale = max(1.0, float(np.max(np.diag(H))))
    assert model_value(H, g, start, v) <= ref + 1e-9 * scale


@st.composite
def restricted_problems(draw):
    """(A, params): m 5-40 instances, t 1-8 columns of +-1 or uniform gains."""
    m = draw(st.integers(5, 40))
    t = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cols = [rng.choice([-1.0, 1.0], m) for _ in range(t)]
    else:
        cols = [rng.uniform(-1, 1, m) for _ in range(t)]
    params = CapParams.from_tolerance(
        m, draw(st.floats(1.0, float(m))), draw(st.floats(0.01, 0.5))
    )
    return GainMatrix(cols, list(range(t))), params


@settings(max_examples=60, deadline=None)
@given(restricted_problems())
def test_corrective_solve_matches_slsqp(problem):
    A, params = problem
    G = A.as_array()
    start = np.eye(1, A.t)[0]
    start_proj = capped_entropy_projection(G @ start, params)
    w, _ = secondary_erlpboost(A, replace(params, eps=1e-9), start, start_proj)  # gap tol 1e-10
    col_edges = capped_entropy_projection(G @ w, params).d @ G
    assert col_edges.max() - col_edges @ w <= 1e-10

    def objective(x):
        return smoothed_conjugate(-(G @ x), params)

    def gradient(x):
        return -(capped_entropy_projection(G @ x, params).d @ G)

    rng = np.random.default_rng(0)
    starts = [np.full(A.t, 1.0 / A.t), np.eye(1, A.t)[0], rng.dirichlet(np.ones(A.t))]
    assert objective(w) <= slsqp_simplex_min(objective, gradient, A.t, starts) + 1e-8


@settings(max_examples=60, deadline=None)
@given(restricted_problems(), st.sampled_from([None, 1e-9]))
def test_corrective_solve_returns_the_projection_of_its_weights(problem, eps):
    # the projection it hands back is the one a fresh projection of its
    # weights' margins gives, bit for bit, so the booster need not project again
    A, params = problem
    if eps is not None:
        params = replace(params, eps=eps)
    start = np.eye(1, A.t)[0]
    start_proj = capped_entropy_projection(A.as_array() @ start, params)
    w, proj = secondary_erlpboost(A, params, start, start_proj)
    ref = capped_entropy_projection(A.as_array() @ w, params)
    assert _same_bits(proj.d, ref.d)
    assert np.array_equal(proj.order, ref.order)
    assert _same_bits(proj.objective, ref.objective)


# The step rules and the corrective-solve gap as they were on sparse
# {column: coeff} dicts, kept as an independent reference for the dense rules.


def dict_margins(A, w):
    if len(w) == 1:
        ((j, coeff),) = w.items()
        return coeff * A.as_array()[:, j]
    dense = np.zeros(A.t)
    for j, coeff in w.items():
        dense[j] = coeff
    return A.as_array() @ dense


def dict_normalise(w):
    kept = {j: v for j, v in w.items() if v > fw.SUPPORT_DROP_TOL}
    total = sum(kept.values())
    return {j: v / total for j, v in kept.items()}


def dict_mix(w, e_new, lam):
    mixed = {j: (1.0 - lam) * v for j, v in w.items()}
    mixed[e_new] = mixed.get(e_new, 0.0) + lam
    return dict_normalise(mixed)


def dict_classic(t, w, e_new):
    lam = 2.0 / (t + 2.0)
    return dict_mix(w, e_new, lam), lam, 1.0


def dict_short(A, w, e_new, d, eta):
    direction = A.as_array()[:, e_new] - dict_margins(A, w)
    denom = eta * float(np.max(np.abs(direction))) ** 2
    lam = 0.0 if denom <= 0.0 else min(1.0, max(0.0, float(d @ direction) / denom))
    return dict_mix(w, e_new, lam), lam, 1.0


def dict_line_search(A, w, e_new, params):
    base = dict_margins(A, w)
    direction = A.as_array()[:, e_new] - base
    lam = fw._line_search(base, direction, 1.0, params, _project(base, params))
    return dict_mix(w, e_new, lam), lam, 1.0


def dict_pairwise(A, w, e_new, d, params):
    away = None
    for j in sorted(w):
        score = float(d @ A.as_array()[:, j])
        if away is None or score < away[1]:
            away = (j, score)
    cap = w[away[0]]
    direction = A.as_array()[:, e_new] - A.as_array()[:, away[0]]
    base = dict_margins(A, w)
    lam = fw._line_search(base, direction, cap, params, _project(base, params))
    new_w = dict(w)
    new_w[away[0]] = new_w.get(away[0], 0.0) - lam
    new_w[e_new] = new_w.get(e_new, 0.0) + lam
    return dict_normalise(new_w), lam, cap


def dict_gap(col_edges, w):
    return float(col_edges.max()) - sum(coeff * col_edges[j] for j, coeff in w.items())


@st.composite
def sparse_step_instances(draw):
    """(A, dict weights on a random support, new column, params, round)."""
    m = draw(st.integers(2, 12))
    t = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = GainMatrix([rng.uniform(-1, 1, m) for _ in range(t)], list(range(t)))
    support = sorted(draw(st.sets(st.integers(0, t - 1), min_size=1)))
    coeffs = rng.exponential(1.0, len(support))
    w = {j: float(c) for j, c in zip(support, coeffs / coeffs.sum())}
    params = CapParams(
        nu=draw(st.floats(1.0, float(m))), m=m, eta=draw(st.floats(0.5, 200.0)), eps=0.1
    )
    return A, w, draw(st.integers(0, t - 1)), params, draw(st.integers(0, 60))


def assert_same_weights(w, ref_w):
    dense = np.zeros(w.size)
    for j, coeff in ref_w.items():
        dense[j] = coeff
    assert np.flatnonzero(w).tolist() == sorted(ref_w)
    assert np.max(np.abs(w - dense)) <= 1e-12


def assert_same_step(out, ref):
    ref_w, ref_lam, ref_cap = ref
    assert_same_weights(out.new_w, ref_w)
    assert abs(out.step_size - ref_lam) <= 1e-12
    assert out.good_step == (ref_lam < ref_cap)


@settings(max_examples=200, deadline=None)
@given(sparse_step_instances())
@example(  # a coefficient that falls below SUPPORT_DROP_TOL and leaves the support
    (
        GainMatrix([np.array([1.0, -1.0]), np.array([0.5, 0.5]), np.array([-0.2, 0.4])], [0, 1, 2]),
        {0: 1e-12, 1: 1.0 - 1e-12},
        2,
        CapParams(nu=1.5, m=2, eta=10.0, eps=0.1),
        998,
    )
)
def test_dense_rules_match_dict_reference(instance):
    A, w_dict, j_new, params, rounds = instance
    w = np.zeros(A.t)
    w[list(w_dict)] = list(w_dict.values())
    proj = capped_entropy_projection(margins(A, w), params)
    d = proj.d
    column = column_of(A, j_new)
    assert_same_step(classic_step(w, j_new, column, proj, rounds), dict_classic(rounds, w_dict, j_new))
    assert_same_step(
        short_step(w, j_new, column, proj, params.eta),
        dict_short(A, w_dict, j_new, d, params.eta),
    )
    assert_same_step(
        line_search_step(w, j_new, column, proj, params), dict_line_search(A, w_dict, j_new, params)
    )
    assert_same_step(
        pairwise_step(A, w, j_new, column, proj, params), dict_pairwise(A, w_dict, j_new, d, params)
    )

    # corrective solve: stops at once when the gap is within its tolerance
    # eps/10, and otherwise takes the projected-Newton step of the reference
    # below (a zero gap has no positive tolerance under it: the step alone)
    col_edges = d @ A.as_array()
    gap = dict_gap(col_edges, w_dict)
    assert secondary_erlpboost(A, replace(params, eps=10.0 * (gap + 1e-12)), w, proj)[0] is w
    one_step, _ = fw.newton_step(A, w, proj, params, col_edges)
    if gap > 1e-12:
        with mock.patch.object(boosting, "_ERLP_INNER_CAP", 1):
            solved, _ = secondary_erlpboost(A, replace(params, eps=10.0 * (gap - 1e-12)), w, proj)
        assert _same_bits(solved, one_step)
    ref = reference_newton_step(A, w, proj, params)
    assert np.all(one_step >= 0.0) and abs(one_step.sum() - 1.0) <= 1e-12
    assert smoothed_obj(A, one_step, params) == pytest.approx(
        smoothed_obj(A, ref, params), rel=0.0, abs=1e-10
    )


def reference_newton_step(A, w, proj, params):
    """The corrective solve's step from an independent Hessian and QP.

    Hessian entries by polarisation of the curvature along single
    columns; the ridged quadratic model minimised by enumerating every
    support and keeping the best nonnegative KKT point; the same
    full-step test, on public-projection objectives, then the same line
    search, seeded with the refused trial and stopped at a strong-Wolfe
    point, and zero-step fallback.
    """
    G, t = A.as_array(), A.t
    theta = proj.theta

    def curvature(u):
        return fw._slope_and_curvature(theta, G @ u, 0.0, params, proj)[1]

    eye = np.eye(t)
    H = np.array(
        [[(curvature(eye[i] + eye[j]) - curvature(eye[i] - eye[j])) / 4.0 for j in range(t)]
         for i in range(t)]
    )
    H += NEWTON_RIDGE * max(1.0, float(np.max(np.diag(H)))) * eye
    g = -(proj.d @ G)
    best, v = math.inf, None
    for size in range(1, t + 1):
        for support in itertools.combinations(range(t), size):
            S = list(support)
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = H[np.ix_(S, S)]
            kkt[size, size] = 0.0
            rhs = np.append(-(g - H @ w)[S], 1.0)
            cand = np.zeros(t)
            cand[S] = np.linalg.solve(kkt, rhs)[:size]
            if cand.min() >= -1e-12 and model_value(H, g, w, cand) < best:
                best, v = model_value(H, g, w, cand), np.maximum(cand, 0.0)
    slope0 = -float(proj.d @ (G @ (v - w)))
    full = fw._normalise(v)
    if slope0 < 0.0 and (
        smoothed_obj(A, full, params) <= smoothed_obj(A, w, params) + NEWTON_ARMIJO * slope0
    ):
        return full
    trial = capped_entropy_projection(G @ full, params) if slope0 < 0.0 else None
    lam = fw._line_search(theta, G @ (v - w), 1.0, params, at_zero=proj, at_hi=trial, wolfe=True)
    if lam > 0.0:
        return fw._normalise(w + lam * (v - w))
    j_best = int(np.argmax(proj.d @ G))
    return line_search_step(w, j_best, column_of(A, j_best), proj, params).new_w


def test_newton_step_falls_back_to_the_best_column_on_a_zero_step(monkeypatch):
    rng = np.random.default_rng(3)
    A, w, params, _ = random_instance(rng, m=8, t=4)
    G = A.as_array()
    proj = capped_entropy_projection(G @ w, params)
    col_edges = proj.d @ G
    j_best = int(np.argmax(col_edges))
    assert col_edges[j_best] - col_edges @ w > 1e-6
    monkeypatch.setattr(fw, "_simplex_qp", lambda H, g, start: start.copy())
    new_w, _ = fw.newton_step(A, w, proj, params, col_edges)
    step = line_search_step(w, j_best, column_of(A, j_best), proj, params)
    assert np.array_equal(new_w, step.new_w)
    assert smoothed_obj(A, new_w, params) < smoothed_obj(A, w, params)


def test_newton_step_refuses_a_full_step_without_sufficient_decrease(monkeypatch):
    # the QP minimiser is replaced by the point past the segment's minimum
    # where the smoothed objective climbs back to its value at w
    rng = np.random.default_rng(7)
    A, w, params, _ = random_instance(rng, m=8, t=4)
    G = A.as_array()
    proj = capped_entropy_projection(G @ w, params)
    col_edges = proj.d @ G
    j = int(np.argmax(col_edges))
    at_w = smoothed_obj(A, w, params)
    lo = fw._line_search(G @ w, G[:, j] - G @ w, 1.0, params, proj)
    hi = 1.0
    assert smoothed_obj(A, fw._mix(w, j, hi), params) > at_w
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if smoothed_obj(A, fw._mix(w, j, mid), params) > at_w:
            hi = mid
        else:
            lo = mid
    level = fw._mix(w, j, hi)
    monkeypatch.setattr(fw, "_simplex_qp", lambda H, g, start: level.copy())
    new_w, _ = fw.newton_step(A, w, proj, params, col_edges)
    assert smoothed_obj(A, new_w, params) < at_w - 1e-3


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_newton_step_returns_the_projection_of_its_weights(seed):
    A, w, params, _ = random_instance(np.random.default_rng(seed))
    G = A.as_array()
    proj = capped_entropy_projection(G @ w, params)
    qp_minimisers, simplex_qp = [], fw._simplex_qp

    def recording_qp(H, g, start):
        qp_minimisers.append(simplex_qp(H, g, start))
        return qp_minimisers[-1]

    with mock.patch.object(fw, "_simplex_qp", recording_qp), mock.patch.object(
        fw, "_line_search", wraps=fw._line_search
    ) as search:
        new_w, new_proj = fw.newton_step(A, w, proj, params, proj.d @ G)
    fresh = capped_entropy_projection(margins(A, new_w), params)
    assert new_proj.d.tobytes() == fresh.d.tobytes()
    assert new_proj.order.tobytes() == fresh.order.tobytes()
    assert new_proj.capped_count == fresh.capped_count
    assert np.float64(new_proj.objective).tobytes() == np.float64(fresh.objective).tobytes()
    assert -fresh.objective <= -proj.objective + 1e-12
    if search.call_count == 0:  # the full step was accepted
        (v,) = qp_minimisers
        assert np.array_equal(new_w, fw._normalise(v))
        slope0 = -float(proj.d @ (G @ (v - w)))
        assert slope0 < 0.0
        assert -fresh.objective <= -proj.objective + NEWTON_ARMIJO * slope0


def test_public_steps_reject_non_finite_vectors_at_entry():
    rng = np.random.default_rng(9)
    A, w, params, _ = random_instance(rng, m=6, t=3)
    G = A.as_array()
    proj = capped_entropy_projection(G @ w, params)
    for bad in (np.nan, np.inf):
        base = G @ w
        base[1] = bad
        bad_proj = replace(proj, theta=base)
        bad_w = w.copy()
        bad_w[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            line_search_step(w, 0, column_of(A, 0), bad_proj, params)
        with pytest.raises(ValueError, match="non-finite"):
            pairwise_step(A, w, 0, column_of(A, 0), bad_proj, params)
        with pytest.raises(ValueError, match="non-finite"):
            _, _ = fw.newton_step(A, bad_w, proj, params, proj.d @ G)
        with pytest.raises(ValueError, match="non-finite"):
            secondary_erlpboost(A, params, bad_w, proj)


def test_newton_step_names_non_finite_weights_w():
    rng = np.random.default_rng(9)
    A, _, params, _ = random_instance(rng, m=6, t=2)
    proj = capped_entropy_projection(A.as_array() @ np.array([0.5, 0.5]), params)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^w has non-finite entries$"):
            fw.newton_step(A, np.array([bad, 1.0]), proj, params, proj.d @ A.as_array())


def test_corrective_solve_names_a_non_finite_start():
    rng = np.random.default_rng(9)
    A, _, params, _ = random_instance(rng, m=6, t=2)
    proj = capped_entropy_projection(A.as_array() @ np.array([0.5, 0.5]), params)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^start has non-finite entries$"):
            secondary_erlpboost(A, params, np.array([bad, 0.0]), proj)


@pytest.mark.parametrize("rule", ["line_search", "pairwise"])
def test_line_searching_rules_never_project_their_margins_at_lam_0(rule, monkeypatch):
    # the search reads the slope at lam 0 from the round's projection, so no
    # kernel projection inside the rule is of proj.theta itself
    projected = []
    project = fw._project

    def recording(theta, params, order_hint=None):
        projected.append(theta.copy())
        return project(theta, params, order_hint)

    monkeypatch.setattr(fw, "_project", recording)
    rng = np.random.default_rng(46)
    searched = 0
    for _ in range(40):
        A, w, params, _ = random_instance(rng)
        proj = round_proj(margins(A, w), params)
        j_new = int(np.argmax(proj.d @ A.as_array()))
        projected.clear()
        call_rule(rule, A, w, j_new, column_of(A, j_new), proj, params, 0)
        assert not any(np.array_equal(theta, proj.theta) for theta in projected)
        searched += len(projected) > 0
    assert searched >= 10


def test_rules_refuse_a_column_and_base_whose_difference_overflows():
    # both finite, but column - base is +inf in its first entry
    column, base = np.array([1e308, 0.0]), np.array([-1e308, 0.0])
    w = np.ones(1)
    params = CapParams(nu=1.0, m=2, eta=10.0, eps=0.1)
    proj = replace(round_proj(np.zeros(2), params), theta=base)  # d = [0.5, 0.5]
    A = GainMatrix([[1.0, -1.0]], [0])
    for step in (
        lambda: classic_step(w, 0, column, proj, 3),
        lambda: short_step(w, 0, column, proj, params.eta),
        lambda: line_search_step(w, 0, column, proj, params),
        lambda: pairwise_step(A, w, 0, column, proj, params),
    ):
        # numpy reports the overflow of the subtraction; the rule refuses it
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="new column minus margins overflows"):
                step()


def test_rules_return_the_margins_of_their_new_weights():
    rng = np.random.default_rng(52)
    for _ in range(40):
        A, w, params, _ = random_instance(rng)
        j_new = int(rng.integers(0, A.t))
        proj = round_proj(margins(A, w), params)
        for out in (
            classic_step(w, j_new, column_of(A, j_new), proj, int(rng.integers(0, 50))),
            short_step(w, j_new, column_of(A, j_new), proj, params.eta),
            line_search_step(w, j_new, column_of(A, j_new), proj, params),
            pairwise_step(A, w, j_new, column_of(A, j_new), proj, params),
        ):
            assert np.max(np.abs(out.margins - margins(A, out.new_w))) <= 1e-12


@pytest.mark.parametrize("rule", ["classic", "short_step"])
def test_margins_carried_for_5000_steps_stay_within_the_simplex_tolerance(rule):
    """A booster's inner loop on stump columns with the margins never re-derived."""
    data = two_gaussians(60, seed=5)
    G = full_gain_matrix(data, StumpPool.build(data)).as_array()
    params = CapParams.from_tolerance(60, 6.0, 0.05)
    A, w = GainMatrix([G[:, 0]], [0]), np.ones(1)
    carried = margins(A, w)
    worst = 0.0
    for t in range(1, 5_001):
        proj = round_proj(carried, params)
        j = int(np.argmax(proj.d @ G))
        A, j_new = A.with_column(G[:, j], j)
        if j_new == w.size:
            w = np.append(w, 0.0)
        if rule == "classic":
            out = classic_step(w, j_new, column_of(A, j_new), proj, t)
        else:
            out = short_step(w, j_new, column_of(A, j_new), proj, params.eta)
        w, carried = out.new_w, out.margins
        worst = max(worst, float(np.max(np.abs(carried - margins(A, w)))))
    assert worst <= SIMPLEX_SUM_TOL


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


RULES = ["classic", "short", "line_search", "pairwise"]


def call_rule(rule, A, w, e_new, column, proj, params, t):
    """One FW rule's step toward ``column``, the new column e_new."""
    if rule == "classic":
        return classic_step(w, e_new, column, proj, t)
    if rule == "short":
        return short_step(w, e_new, column, proj, params.eta)
    if rule == "line_search":
        return line_search_step(w, e_new, column, proj, params)
    return pairwise_step(A, w, e_new, column, proj, params)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(RULES))
def test_rules_given_the_new_column_return_the_same_bits_and_leave_inputs_alone(seed, rule):
    # the strided view of A's buffer and its contiguous copy, as the
    # booster loop hands over the learner's column
    rng = np.random.default_rng(seed)
    A, w, params, _ = random_instance(rng)
    e_new = int(rng.integers(0, A.t))
    base = margins(A, w)
    proj = round_proj(base, params)  # its theta is base
    t = int(rng.integers(0, 50))
    strided = A.as_array()[:, e_new]
    column = strided.copy()
    w_before, base_before, column_before = w.copy(), base.copy(), column.copy()
    from_view = call_rule(rule, A, w, e_new, strided, proj, params, t)
    from_copy = call_rule(rule, A, w, e_new, column, proj, params, t)
    for field in ("new_w", "step_size", "good_step", "margins"):
        assert _same_bits(getattr(from_copy, field), getattr(from_view, field)), field
    assert _same_bits(w, w_before)
    assert _same_bits(base, base_before)
    assert _same_bits(column, column_before)


@pytest.mark.parametrize("rule", RULES)
def test_rules_reject_a_column_whose_shape_is_not_that_of_the_margins(rule):
    # a length-1 column would otherwise broadcast against the margins
    rng = np.random.default_rng(12)
    A, w, params, _ = random_instance(rng, m=6, t=3)
    proj = round_proj(margins(A, w), params)
    for bad in (np.ones(1), np.ones(5), np.ones(7), np.ones((6, 1))):
        with pytest.raises(ValueError, match="new column of shape"):
            call_rule(rule, A, w, 1, bad, proj, params, 3)


@pytest.mark.parametrize("rule", RULES)
def test_rules_name_a_non_finite_column(rule):
    rng = np.random.default_rng(13)
    A, w, params, _ = random_instance(rng, m=6, t=3)
    proj = round_proj(margins(A, w), params)
    for bad in (np.nan, np.inf, -np.inf):
        bad_column = A.as_array()[:, 1].copy()
        bad_column[4] = bad
        with pytest.raises(ValueError, match="column has non-finite entries"):
            call_rule(rule, A, w, 1, bad_column, proj, params, 3)


def test_scheme_loop_reads_the_gain_matrix_only_to_refresh_its_margins(monkeypatch):
    # the FW rule takes the learner's column; as_array is left to the
    # start, the every-64-rounds re-derivation, the certify and the model
    calls = []
    as_array = GainMatrix.as_array

    def counted(self):
        calls.append(self.t)
        return as_array(self)

    monkeypatch.setattr(GainMatrix, "as_array", counted)
    data = two_gaussians(200, seed=0)
    _, records = run_scheme(data, StumpLearner(data), BoosterConfig(eps=0.1, nu=20.0))
    assert len(records) == 236
    assert len(calls) <= 10


def test_short_and_classic_steps_name_a_non_finite_input():
    rng = np.random.default_rng(11)
    A, w, params, _ = random_instance(rng, m=6, t=3)
    base = margins(A, w)
    proj = round_proj(base, params)
    for bad in (np.nan, np.inf, -np.inf):
        bad_base = base.copy()  # a bad column: test_rules_name_a_non_finite_column
        bad_base[3] = bad
        bad_proj = replace(proj, theta=bad_base)
        with pytest.raises(ValueError, match="non-finite"):
            short_step(w, 1, column_of(A, 1), bad_proj, params.eta)
        with pytest.raises(ValueError, match="non-finite"):
            classic_step(w, 1, column_of(A, 1), bad_proj, 3)


def test_short_step_keeps_its_step_when_finite_inputs_overflow():
    # eta * ||direction||^2 overflows to inf on finite inputs: no error,
    # and the formula's step, 0
    A = GainMatrix([np.array([-1.0, 1.0]), np.array([1.0, -1.0])], [0, 1])
    w = np.array([1.0, 0.0])
    proj = round_proj(margins(A, w), d=np.array([0.8, 0.2]))
    out = short_step(w, 1, column_of(A, 1), proj, eta=1e308)
    assert out.step_size == 0.0
    assert np.array_equal(out.new_w, w)
    # ||direction||_inf ~ 1e200: the Python float square itself leaves float
    # range (OverflowError), read as an infinite denominator
    base = np.array([1e200, -1e200])
    proj = round_proj(base, d=np.array([0.5, 0.5]))
    out = short_step(w, 1, np.array([1.0, 0.0]), proj, eta=1.0)
    assert out.step_size == 0.0
    assert np.array_equal(out.new_w, w)
    assert np.array_equal(out.margins, base)
