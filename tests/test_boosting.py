import collections
import dataclasses
import logging
import math
import sys

import numpy as np
import pytest

from marginforge.boosting import (
    BoosterConfig,
    TrainedModel,
    default_iteration_cap,
    predict,
    run_lpboost,
    run_scheme,
    secondary_erlpboost,
    secondary_lpboost,
)
from marginforge.cli import ALGORITHMS
from marginforge.constants import EPS_FLOOR, STRONG_DUALITY_TOL
from marginforge.core import CapParams, Dataset, GainMatrix, margins
from marginforge.entropy import capped_entropy_projection, capped_min_linear, smoothed_conjugate
from marginforge import boosting, fw, lp
from marginforge.lp import LpError, solve_edge_min
from marginforge.stumps import StumpHypothesis, StumpLearner, StumpPool, full_gain_matrix

from conftest import PoolOracleLearner, min_linear_over_cap, scipy_edge_min, two_gaussians


def uniform_stub(A, params):
    """Adversarial secondary: ignores the data, returns uniform weights."""
    return np.full(A.t, 1.0 / A.t)


def separable_line():
    features = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    labels = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    return Dataset(features, labels)


def test_scheme_on_separable_data_reaches_full_margin():
    data = separable_line()
    cfg = BoosterConfig(eps=0.05, nu=1.0)
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert model.soft_margin_obj >= 1.0 - 0.05
    assert records[-1].eps_t <= 0.025
    assert np.array_equal(predict(model, data.features), data.labels)


def test_scheme_records_structure_and_invariants():
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert [r.t for r in records] == list(range(1, len(records) + 1))
    for rec in records:
        assert rec.eps_t == pytest.approx(rec.min_edge_so_far + rec.smoothed_obj, abs=1e-12)
        assert rec.chosen_rule in ("fw", "secondary")
    min_edges = [r.min_edge_so_far for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(min_edges, min_edges[1:]))
    smoothed = [r.smoothed_obj for r in records]
    assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))
    # certified stop implies the soft margin is within eps of the best edge seen
    last = records[-1]
    assert last.soft_margin_obj >= last.min_edge_so_far - cfg.eps


def test_scheme_matches_full_pool_lp_within_eps():
    data = two_gaussians(100, seed=12)
    learner = StumpLearner(data)
    nu = 10.0
    rho_star = solve_edge_min(full_gain_matrix(data, learner.pool), nu).rho
    for fw_rule, secondary in [
        ("short_step", "none"),
        ("short_step", "lpboost"),
        ("pairwise", "lpboost"),
        ("line_search", "lpboost"),
    ]:
        cfg = BoosterConfig(eps=0.05, nu=nu, fw_rule=fw_rule, secondary=secondary)
        model, _ = run_scheme(data, learner, cfg)
        assert model.converged, (fw_rule, secondary)
        assert model.soft_margin_obj >= rho_star - cfg.eps, (fw_rule, secondary)


def test_iteration_bound_with_max_edge_oracle():
    data = two_gaussians(80, seed=9)
    pool = StumpPool.build(data)
    oracle = PoolOracleLearner(full_gain_matrix(data, pool))
    eps, nu = 0.3, 8.0
    bound = math.ceil(32.0 * math.log(80 / nu) / eps**2)
    for fw_rule in ("classic", "short_step"):
        for secondary in ("none", "lpboost", uniform_stub):
            cfg = BoosterConfig(eps=eps, nu=nu, fw_rule=fw_rule, secondary=secondary)
            model, records = run_scheme(data, oracle, cfg)
            assert model.converged, (fw_rule, secondary)
            assert len(records) <= bound


def test_classic_step_recursion_inequality():
    data = two_gaussians(80, seed=10)
    pool = StumpPool.build(data)
    oracle = PoolOracleLearner(full_gain_matrix(data, pool))
    eps, nu = 0.3, 8.0
    eta = CapParams.from_tolerance(80, nu, eps).eta
    cfg = BoosterConfig(eps=eps, nu=nu, fw_rule="classic", secondary="none")
    _, records = run_scheme(data, oracle, cfg)
    assert len(records) >= 3
    for prev, nxt in zip(records, records[1:]):
        lam = prev.step_size
        assert nxt.eps_t <= (1 - lam) * prev.eps_t + 2 * eta * lam**2 + 1e-8


def test_pairwise_good_step_rate():
    data = two_gaussians(80, seed=2)
    nu, eps = 8.0, 0.05
    eta = CapParams.from_tolerance(80, nu, eps).eta
    cfg = BoosterConfig(eps=eps, nu=nu, fw_rule="pairwise", secondary="none")
    _, records = run_scheme(data, StumpLearner(data), cfg)
    good = 0
    for rec in records[:-1]:
        if rec.good_step:
            good += 1
            assert rec.eps_t <= 8.0 * eta / (good + 2)


def test_secondary_lpboost_point_mass_and_duplicates():
    col = np.array([0.4, -0.1, 0.3])
    A = GainMatrix([col], [0])
    assert secondary_lpboost(A, 2.0).w == pytest.approx([1.0])

    A2 = GainMatrix([col, col.copy()], [0, 1])
    w = secondary_lpboost(A2, 2.0).w
    value = min_linear_over_cap(A2.as_array() @ w, 2.0)
    ref = solve_edge_min(A, 2.0).rho
    assert w.sum() == pytest.approx(1.0)
    # any split between duplicate columns achieves the same value
    assert value == pytest.approx(ref, abs=1e-9)


def test_secondary_lpboost_matches_edge_min_dual():
    c = np.array([0.5, -0.2, 0.3, 0.9])
    A = GainMatrix([c, -c], [0, 1])
    secondary = secondary_lpboost(A, 2.0)
    sol = solve_edge_min(A, 2.0)
    assert np.array_equal(secondary.w, sol.w)
    assert np.array_equal(secondary.margins, A.as_array() @ sol.w)
    assert np.array_equal(secondary.basis.basic, sol.basis.basic)


def solve_from(A, params, start):
    """The corrective solve from ``start`` and the projection of its margins."""
    start_proj = capped_entropy_projection(margins(A, start), params)
    return secondary_erlpboost(A, params, start, start_proj)


def test_secondary_erlpboost_point_mass():
    A = GainMatrix([np.array([0.4, -0.1, 0.3])], [0])
    params = CapParams.from_tolerance(3, 1.5, 0.1)
    w, _ = solve_from(A, params, np.ones(1))
    assert w == pytest.approx([1.0])


def test_secondary_erlpboost_nu_equals_m_maximises_mean_margin():
    rng = np.random.default_rng(8)
    cols = [rng.uniform(-1, 1, 4) for _ in range(3)]
    A = GainMatrix(cols, [0, 1, 2])
    params = CapParams.from_tolerance(4, 4.0, 0.1)
    w, _ = solve_from(A, params, np.eye(1, 3)[0])
    best = int(np.argmax([c.mean() for c in cols]))
    assert w[best] == pytest.approx(1.0, abs=1e-6)


def test_secondary_erlpboost_matches_grid_oracle():
    rng = np.random.default_rng(19)
    cols = [rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)]
    A = GainMatrix(cols, [0, 1])
    params = CapParams(nu=1.5, m=3, eta=20.0, eps=0.05)
    w, _ = solve_from(A, params, np.eye(1, 2)[0])
    value = smoothed_conjugate(-margins(A, w), params)
    grid_best = min(
        smoothed_conjugate(-(lam * cols[0] + (1 - lam) * cols[1]), params)
        for lam in np.linspace(0.0, 1.0, 10_001)
    )
    assert value <= grid_best + params.eps / 10 + 1e-9


def test_corrective_solve_stops_at_its_fixed_point(monkeypatch, caplog):
    # at eps 1e-8 the first corrective solve on this sample reaches weights
    # that a Newton step returns bit for bit, with the gap still above eps/10
    steps = {"n": 0}
    solves = []

    def counting_step(*args):
        steps["n"] += 1
        return fw.newton_step(*args)

    def recording_solve(A, params, start, start_proj):
        A = GainMatrix(list(A.as_array().T), list(A.hypothesis_ids))  # a copy the fit cannot grow
        w, proj = secondary_erlpboost(A, params, start, start_proj)
        solves.append((A, params, w, proj))
        return w, proj

    monkeypatch.setattr(boosting, "newton_step", counting_step)
    monkeypatch.setattr(boosting, "secondary_erlpboost", recording_solve)
    data = two_gaussians(60, seed=0)
    cfg = BoosterConfig(eps=1e-8, nu=6.0, secondary="erlpboost", max_iterations=1)
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        run_scheme(data, StumpLearner(data), cfg)
    [(A, params, w, proj)] = solves
    assert 0 < steps["n"] < boosting._ERLP_INNER_CAP // 100
    col_edges = proj.d @ A.as_array()
    gap, tol = float(col_edges.max() - col_edges @ w), params.eps / 10.0
    assert gap > tol
    assert np.array_equal(fw.newton_step(A, w, proj, params, col_edges)[0], w)
    stalled = f"fully corrective inner solve stalled at gap {gap!r} above its tolerance {tol!r}"
    assert stalled in [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def test_corrective_solve_stops_on_a_cycle(monkeypatch, caplog):
    # a step that alternates between two weight vectors never returns its own
    # input: the solve ends at the first iterate it has produced before
    A = GainMatrix([np.array([1.0, -1.0, 0.2]), np.array([-0.5, 0.8, -0.3])], [0, 1])
    params = CapParams.from_tolerance(3, 1.5, 1e-6)
    G = A.as_array()
    cycle = [np.array([0.75, 0.25]), np.array([0.25, 0.75])]
    steps = []

    def alternating_step(A, w, proj, params, col_edges):
        new_w = cycle[len(steps) % 2]
        steps.append(new_w)
        return new_w, capped_entropy_projection(G @ new_w, params)

    monkeypatch.setattr(boosting, "newton_step", alternating_step)
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        w, _ = solve_from(A, params, np.array([1.0, 0.0]))
    assert len(steps) == 3  # start -> cycle[0] -> cycle[1] -> cycle[0] again
    assert w is cycle[1]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "stalled" in warnings[0]


def test_capped_erlpboost_fit_of_the_smoke_data_never_hits_the_inner_cap(caplog):
    # the console-script smoke data (60 rows) at eps 1e-8 over 5 rounds: every
    # corrective solve ends on its tolerance or on a repeated iterate
    rng = np.random.default_rng(0)
    features = np.vstack([rng.normal(-1.1, 0.9, (30, 2)), rng.normal(1.1, 0.9, (30, 2))])
    data = Dataset(features, np.repeat([-1.0, 1.0], 30))
    cfg = BoosterConfig(eps=1e-8, nu=6.0, secondary="erlpboost", max_iterations=5)
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        model, records = run_scheme(data, StumpLearner(data), cfg)
    assert not model.converged and len(records) == 5
    assert not [r for r in caplog.records if "hit its" in r.getMessage()]


@pytest.mark.parametrize("error", [LpError("pivot limit"), np.linalg.LinAlgError("singular")])
def test_secondary_failure_keeps_fw_step(monkeypatch, caplog, error):
    calls = {"n": 0}

    def fail_on_third_call(A, nu, start=None):
        calls["n"] += 1
        if calls["n"] == 3:
            raise error
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", fail_on_third_call)
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert calls["n"] > 3
    assert records[2].chosen_rule == "fw"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "round 3: secondary update failed" in warnings[0] and str(error) in warnings[0]


def _strip(records):
    return [dataclasses.replace(r, wall_time_ns=0) for r in records]


def _same_fit(a, b):
    (model_a, recs_a), (model_b, recs_b) = a, b
    assert _strip(recs_a) == _strip(recs_b)
    assert model_a.hypotheses == model_b.hypotheses
    assert model_a.weights == model_b.weights
    assert model_a.soft_margin_obj == model_b.soft_margin_obj
    assert model_a.smoothed_obj == model_b.smoothed_obj
    assert model_a.converged and model_b.converged


def _lpboost_every_round():
    """The LPBoost secondary as a callable, which run_scheme never reuses:
    it solves every round, warm-started from its own last basis as
    run_scheme starts each solve from the last, and drops that basis when
    a solve fails, as run_scheme does."""
    last = {"basis": None}

    def solve(A, params):
        start, last["basis"] = last["basis"], None
        sol = secondary_lpboost(A, params.nu, start)
        last["basis"] = sol.basis
        return sol.w

    return solve


@pytest.mark.parametrize("fw_rule", ["short_step", "pairwise"])
def test_reused_lpboost_secondary_matches_solving_every_round(fw_rule):
    data = two_gaussians(200, seed=0)
    learner = StumpLearner(data)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule=fw_rule, secondary="lpboost")
    reused = run_scheme(data, learner, cfg)
    every_round = run_scheme(
        data, learner, dataclasses.replace(cfg, secondary=_lpboost_every_round())
    )
    _same_fit(reused, every_round)


def test_lpboost_secondary_solves_once_per_column_set(monkeypatch):
    column_counts = []

    def counting_solve(A, nu, start=None):
        column_counts.append(A.t)
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", counting_solve)
    data = two_gaussians(200, seed=0)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule="short_step", secondary="lpboost")
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    # columns only grow, so one solve per column set means strictly increasing counts
    assert all(a < b for a, b in zip(column_counts, column_counts[1:]))
    assert len(column_counts) <= len(records) // 10  # measured 23 solves in 683 rounds


class _RecordingLearner:
    def __init__(self, learner):
        self.learner = learner
        self.ids = []

    @property
    def m(self):
        return self.learner.m

    def query(self, d):
        response = self.learner.query(d)
        self.ids.append(response[0])
        return response


def test_failed_lpboost_secondary_is_retried_on_the_same_columns(monkeypatch, caplog):
    column_counts = []

    def fail_at_four_columns(A, nu, start=None):
        column_counts.append(A.t)
        if A.t == 4:
            raise LpError("pivot limit")
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", fail_at_four_columns)
    data = two_gaussians(60, seed=3)
    learner = _RecordingLearner(StumpLearner(data))
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        reused = run_scheme(data, learner, cfg)
    # query 0 seeds the matrix; query r belongs to round r; the last round stops
    counts = [len(set(learner.ids[: r + 1])) for r in range(1, len(reused[1]))]
    expected = [c for i, c in enumerate(counts) if c == 4 or i == 0 or c != counts[i - 1]]
    assert column_counts == expected
    assert column_counts.count(4) >= 2  # a failed solve is retried, never reused
    assert len(caplog.records) == column_counts.count(4)

    every_round = run_scheme(
        data, StumpLearner(data), dataclasses.replace(cfg, secondary=_lpboost_every_round())
    )
    _same_fit(reused, every_round)


def test_run_lpboost_perfect_stump_stops_fast():
    data = separable_line()
    cfg = BoosterConfig(eps=0.05, nu=1.0)
    model, records = run_lpboost(data, StumpLearner(data), cfg)
    assert model.converged
    assert len(records) <= 2
    assert model.soft_margin_obj >= 1.0 - 0.05


def test_run_lpboost_at_the_iteration_cap_keeps_the_last_solve():
    # the last round grows A after its solve, so the weights need padding
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.01, nu=6.0, max_iterations=2)
    model, records = run_lpboost(data, StumpLearner(data), cfg)
    assert not model.converged
    assert len(records) == 2
    assert model.weights == pytest.approx([0.5, 0.5])
    assert len(model.hypotheses) == 2


def test_run_lpboost_reaches_full_pool_optimum():
    # LPBoost's stop is certified: the edge at the LP's d is at least rho*,
    # and gamma is the restricted soft margin within STRONG_DUALITY_TOL
    for seed in range(5):
        data = two_gaussians(100, seed=seed)
        learner = StumpLearner(data)
        for nu in (1.0, 6.0, 0.1 * data.m):
            rho_star = solve_edge_min(full_gain_matrix(data, learner.pool), nu).rho
            cfg = BoosterConfig(eps=0.02, nu=nu)
            model, records = run_lpboost(data, learner, cfg)
            assert model.converged, (seed, nu)
            assert model.soft_margin_obj >= rho_star - cfg.eps - STRONG_DUALITY_TOL, (seed, nu)
            # gamma trend is logged via soft_margin_obj, not asserted monotone
            assert all(r.chosen_rule == "secondary" for r in records)


def test_run_lpboost_stops_once_the_learner_returns_a_held_column():
    # every reported edge sits 1e-9 above the true one, so the eps test never
    # passes at eps 1e-12; the held column is LPBoost's exact optimality
    class InflatedEdges(StumpLearner):
        def query(self, d):
            hypothesis, column, edge = super().query(d)
            return hypothesis, column, edge + 1e-9

    data = two_gaussians(60, seed=5)
    nu = 9.0
    cfg = BoosterConfig(eps=EPS_FLOOR, nu=nu, max_iterations=60)
    model, records = run_lpboost(data, InflatedEdges(data), cfg)
    assert model.converged
    assert len(records) == 3
    assert model.soft_margin_obj == 0.5555555555555556
    rho_star = solve_edge_min(full_gain_matrix(data, StumpPool.build(data)), nu).rho
    assert model.soft_margin_obj == pytest.approx(rho_star, abs=1e-12)


def test_erlpboost_converges_in_few_rounds():
    data = two_gaussians(60, seed=5)
    learner = StumpLearner(data)
    cfg = BoosterConfig(eps=0.05, nu=6.0)
    model_plain, recs_plain = run_scheme(data, learner, cfg)
    model_er, recs_er = run_scheme(data, learner, dataclasses.replace(cfg, secondary="erlpboost"))
    assert model_er.converged
    assert len(recs_er) <= len(recs_plain)


def test_iteration_cap_returns_unconverged_model():
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.01, nu=6.0, max_iterations=3)
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert not model.converged
    assert len(records) == 3


def test_default_iteration_cap_formula():
    assert default_iteration_cap(200, 20.0, 0.2) == math.ceil(32 * math.log(10) / 0.04) + 16


def test_booster_config_rejects_an_eps_below_the_floor():
    assert default_iteration_cap(200, 20.0, EPS_FLOOR) > 0
    BoosterConfig(eps=EPS_FLOOR, nu=20.0)
    for value in (9.9e-13, 1e-13, 1e-15, 1e-160, 1e-200, 1e-320):
        with pytest.raises(ValueError, match=rf"eps={value!r} is too small: below EPS_FLOOR=1e-12"):
            BoosterConfig(eps=value, nu=20.0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_booster_config_rejects_an_eps_that_is_not_positive_and_finite(value):
    with pytest.raises(ValueError, match="eps must be a positive finite number"):
        BoosterConfig(eps=value, nu=20.0)


def test_direct_callers_get_the_overflow_guards():
    # below the floor a fit never forms these; a direct call still gets a message
    with pytest.raises(ValueError, match=r"eps=1e-200 is too small: the round bound"):
        default_iteration_cap(200, 20.0, 1e-200)
    with pytest.raises(ValueError, match="eta must be a positive finite number"):
        CapParams.from_tolerance(200, 20.0, 1e-320)


@pytest.mark.parametrize("runner", [run_scheme, run_lpboost])
def test_a_round_cap_does_not_let_an_eps_below_the_floor_through(runner):
    data = two_gaussians(60, seed=1)
    with pytest.raises(ValueError, match=r"eps=1e-15 is too small: below EPS_FLOOR"):
        runner(data, StumpLearner(data), BoosterConfig(eps=1e-15, nu=6.0, max_iterations=5))


def _model(hypotheses, weights):
    return TrainedModel(
        hypotheses=hypotheses,
        weights=weights,
        soft_margin_obj=0.0,
        smoothed_obj=0.0,
        converged=True,
    )


def test_predict_point_mass_and_tie():
    h = StumpHypothesis(0, 0.5, 1)
    single = _model([h], [1.0])
    X = np.array([[0.0], [1.0]])
    assert list(predict(single, X)) == [-1.0, 1.0]

    cancel = _model([h, StumpHypothesis(0, 0.5, -1)], [0.5, 0.5])
    assert list(predict(cancel, X)) == [1.0, 1.0]  # exact ties go positive


def test_predict_matches_naive_sum():
    data = two_gaussians(40, seed=7)
    cfg = BoosterConfig(eps=0.05, nu=4.0, secondary="lpboost")
    model, _ = run_scheme(data, StumpLearner(data), cfg)
    score = np.zeros(data.m)
    for w, h in zip(model.weights, model.hypotheses):
        score += w * h.predict(data.features)
    assert np.max(np.abs(score)) <= 1.0 + 1e-12
    expected = np.where(score >= 0, 1.0, -1.0)
    assert np.array_equal(predict(model, data.features), expected)


def test_predict_width_mismatch():
    model = _model([StumpHypothesis(3, 0.0, 1)], [1.0])
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 2)))


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_config_requires_positive_finite_eps(eps):
    with pytest.raises(ValueError, match="eps must be a positive finite number"):
        BoosterConfig(eps=eps, nu=1.0)


SCHEME_ALGOS = [algo for algo, (runner, _, _) in ALGORITHMS.items() if runner is run_scheme]


@pytest.mark.parametrize("algo", SCHEME_ALGOS)
def test_certified_stop_reads_fresh_margins(algo):
    data = two_gaussians(200, seed=0)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.05, nu=20.0, fw_rule=fw_rule, secondary=secondary)
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    # the certified round takes no step, and its one record says so
    last = records[-1]
    assert (last.chosen_rule, last.step_size, last.good_step) == ("fw", 0.0, False)
    # the model's objectives come from a fresh A @ w; the stop must too, bit for bit
    assert last.smoothed_obj == model.smoothed_obj
    assert last.soft_margin_obj == model.soft_margin_obj


@pytest.mark.parametrize("runner", [run_scheme, run_lpboost])
def test_both_loops_log_one_cap_warning(runner, caplog):
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.01, nu=6.0, secondary="lpboost", max_iterations=2)
    with caplog.at_level(logging.WARNING, logger="marginforge"):
        model, records = runner(data, StumpLearner(data), cfg)
    assert not model.converged and len(records) == 2
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["booster hit the iteration cap (2 rounds)"]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="marginforge"):
        model, _ = runner(data, StumpLearner(data), dataclasses.replace(cfg, max_iterations=None))
    assert model.converged
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


@pytest.mark.parametrize("algo", [algo for algo in ALGORITHMS if algo != "erlpboost"])
def test_only_erlpboost_takes_newton_steps(algo, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{algo} called newton_step")

    monkeypatch.setattr(fw, "newton_step", forbidden)
    monkeypatch.setattr(boosting, "newton_step", forbidden)
    data = two_gaussians(200, seed=0)
    runner, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.1, nu=20.0, fw_rule=fw_rule, secondary=secondary)
    model, _ = runner(data, StumpLearner(data), cfg)
    assert model.converged


def test_carried_margins_that_overstate_progress_cannot_stop_the_loop(monkeypatch):
    fw_update = boosting._fw_update
    biased_rounds = []

    def biased_update(*args):
        # margins raised by 0.05 make the carried gap look 0.05 smaller than it is
        out = fw_update(*args)
        biased_rounds.append(args[-1])
        return dataclasses.replace(out, margins=out.margins + 0.05)

    monkeypatch.setattr(boosting, "_fw_update", biased_update)
    data = two_gaussians(80, seed=4)
    eps = 0.05
    cfg = BoosterConfig(eps=eps, nu=8.0, fw_rule="short_step", secondary="none")
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged and len(biased_rounds) > 0
    last = records[-1]
    assert last.smoothed_obj == model.smoothed_obj
    assert last.eps_t == last.min_edge_so_far + model.smoothed_obj <= eps / 2.0
    # every recorded gap that passed the test came from fresh margins, so only the last one did
    assert all(rec.eps_t > eps / 2.0 for rec in records[:-1])


def _assert_same_projection(got, fresh):
    assert got.d.tobytes() == fresh.d.tobytes()
    assert got.order.tobytes() == fresh.order.tobytes()
    assert got.capped_count == fresh.capped_count
    assert np.float64(got.objective).tobytes() == np.float64(fresh.objective).tobytes()


def test_the_lpboost_secondary_skips_exactly_the_priced_out_columns(monkeypatch):
    # a new column whose edge under the last LP's distribution is at most
    # that LP's gamma leaves the last optimum optimal: no solve, the weights
    # padded with zeros.  Every other new column is solved
    events = []  # ("query", hypothesis, column) and ("solve", A.t, solution) in call order

    def recording_solve(A, nu, start=None):
        sol = solve_edge_min(A, nu, start=start)
        events.append(("solve", A.t, sol))
        return sol

    data = two_gaussians(200, seed=0)
    learner = StumpLearner(data)
    query = learner.query

    def recording_query(d):
        response = query(d)
        events.append(("query", response[0], response[1]))
        return response

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    monkeypatch.setattr(learner, "query", recording_query)
    nu = 20.0
    cfg = BoosterConfig(eps=0.01, nu=nu, fw_rule="classic", secondary="lpboost")
    model, _ = run_scheme(data, learner, cfg)
    assert model.converged

    (_, first, column), *events = events
    held, gains = {first}, [column]
    last = None  # the last solution
    solves = skipped = new_columns = 0
    for i, (kind, *event) in enumerate(events):
        if kind == "solve":
            last = event[1]
            continue
        hypothesis, column = event
        if hypothesis in held:
            continue  # a held column: the round reuses the last optimum
        held.add(hypothesis)
        gains.append(column)
        if i == len(events) - 1:
            break  # the last round certified its stop before any secondary
        new_columns += 1
        solved = events[i + 1][0] == "solve"
        if last is not None and last.d @ column <= last.gamma:
            assert not solved
            skipped += 1
            G = np.column_stack(gains)
            value, _ = capped_min_linear(G @ np.pad(last.w, (0, G.shape[1] - last.w.size)), nu)
            cold = solve_edge_min(GainMatrix(gains, range(len(gains))), nu).gamma
            assert abs(value - cold) <= STRONG_DUALITY_TOL
            assert abs(value - scipy_edge_min(G, nu)) <= STRONG_DUALITY_TOL
        else:
            assert solved
            solves += 1
    assert sum(kind == "solve" for kind, *_ in events) == solves
    assert solves == new_columns - skipped
    assert skipped >= 10  # measured 17 of 38 new columns


# kernel projections (``entropy._project`` through boosting and fw) of each
# fit in the test below.  A fit that compares candidates makes exactly these;
# cerlpboost may make one more per ``_MARGIN_REFRESH`` rounds, where its
# refresh replaces a projection that no comparison read
KERNEL_PROJECTIONS = {
    "erlpboost": 51,
    "cerlpboost": 1844,
    "mlpb-ss": 277,
    "mlpb-pfw": 174,
    "mlpb-ls": 339,
    "mlpb-classic": 1547,
}


@pytest.mark.parametrize("algo", SCHEME_ALGOS)
def test_every_projection_the_loop_uses_is_the_public_projection(algo, monkeypatch):
    """The loop projects through the unchecked kernel and ends every round
    holding the projection of the margins it keeps.  Each projection must
    equal, bit for bit, a fresh checked projection of the same margins; each
    round must query the learner with one of them; and each record's
    objectives must be the checked values of the margins whose projection
    that round read: the one it queried with, or its certify re-check's."""
    kernels = {"boosting": boosting._project, "fw": fw._project}
    by_d = {}  # id(d) -> projection; holding every projection keeps the ids unique
    events = []  # ("query", projection or None) and ("project", projection), in call order
    kernel_calls = [0]

    def checked(res, theta, params):
        _assert_same_projection(res, capped_entropy_projection(theta, params))
        by_d[id(res.d)] = res
        return res

    def checked_kernel(owner):
        def project(theta, params, order_hint=None):
            res = checked(kernels[owner](theta, params, order_hint), theta, params)
            kernel_calls[0] += 1
            if owner == "boosting":
                events.append(("project", res))
            return res

        return project

    data = two_gaussians(80, seed=4)
    learner = StumpLearner(data)
    query = learner.query

    def traced_query(d):
        events.append(("query", by_d.get(id(d))))
        return query(d)

    monkeypatch.setattr(boosting, "_project", checked_kernel("boosting"))
    monkeypatch.setattr(fw, "_project", checked_kernel("fw"))
    monkeypatch.setattr(learner, "query", traced_query)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.02, nu=8.0, fw_rule=fw_rule, secondary=secondary)
    model, records = run_scheme(data, learner, cfg)
    assert model.converged

    # split the events after the start's uniform query into one run per round
    assert events[0] == ("query", None)
    rounds = []
    for kind, res in events[1:]:
        if kind == "query":
            assert res is not None, "a round queried with a vector that is no projection"
            rounds.append([res])
        elif rounds:
            rounds[-1].append(res)
    assert len(rounds) == len(records)
    params = rounds[0][0].params
    for rec, (queried, *projected) in zip(records, rounds):
        read = queried
        if rec.min_edge_so_far - queried.objective <= cfg.eps / 2.0:
            read = projected[0]  # the certify re-check of a fresh A @ w
        assert np.float64(rec.smoothed_obj).tobytes() == np.float64(
            smoothed_conjugate(-read.theta, params)
        ).tobytes()
        assert rec.soft_margin_obj == capped_min_linear(read.theta, params.nu)[0]

    if secondary == "none":
        refreshes = math.ceil(len(records) / boosting._MARGIN_REFRESH)
        assert kernel_calls[0] <= KERNEL_PROJECTIONS[algo] + refreshes
    else:
        assert kernel_calls[0] == KERNEL_PROJECTIONS[algo]
        assert any(rec.chosen_rule == "secondary" for rec in records)


# the names the benchmark's span tracer (perfbench/tracer.py) rebinds, by
# module: it wraps each in every marginforge module that holds it, so a fit
# must reach its layers through these names, not through private kernels
TRACED_NAMES = {
    "stumps": ["best_stump"],
    "lp": ["solve_edge_min"],
    "entropy": ["capped_entropy_projection", "smoothed_conjugate", "capped_min_linear"],
    "fw": ["classic_step", "short_step", "line_search_step", "pairwise_step"],
    "boosting": ["secondary_lpboost", "secondary_erlpboost"],
    "core": ["margins"],
}
RULE_OF = {
    "classic": "classic_step",
    "short_step": "short_step",
    "line_search": "line_search_step",
    "pairwise": "pairwise_step",
}


def _count_calls(monkeypatch, module, name, counts, key):
    """Rebind ``name`` in every marginforge module that holds ``module``'s
    object to a wrapper that counts its calls under ``key``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    for module_name, holder in list(sys.modules.items()):
        if module_name.split(".")[0] == "marginforge" and getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counted)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_every_traced_layer_is_reached_through_its_traced_name(algo, monkeypatch):
    counts = collections.Counter()
    for owner, names in TRACED_NAMES.items():
        for name in names:
            _count_calls(monkeypatch, sys.modules[f"marginforge.{owner}"], name, counts, name)
    # the independent counts: the learner's queries and the LP's one solve path
    _count_calls(monkeypatch, lp, "_optimum", counts, "lp solves")
    data = two_gaussians(60, seed=2)
    learner = StumpLearner(data)
    query = learner.query

    def counted_query(d):
        counts["queries"] += 1
        return query(d)

    monkeypatch.setattr(learner, "query", counted_query)
    runner, fw_rule, secondary = ALGORITHMS[algo]
    config = BoosterConfig(eps=0.05, nu=6.0, fw_rule=fw_rule, secondary=secondary)
    model, records = runner(data, learner, config)
    assert model.converged

    # one best_stump call per query and one solve_edge_min call per LP solve
    assert counts["best_stump"] == counts["queries"] == len(records) + 1
    assert counts["solve_edge_min"] == counts["lp solves"]
    # one rule call per FW step: run_scheme steps on every round it does not stop on
    steps = 0 if runner is run_lpboost else len(records) - 1
    assert counts[RULE_OF[fw_rule]] == steps
    assert sum(counts[name] for name in TRACED_NAMES["fw"]) == steps
    if secondary == "lpboost":
        assert 0 < counts["secondary_lpboost"] == counts["solve_edge_min"]
    elif runner is run_lpboost:
        assert counts["solve_edge_min"] == len(records) and counts["secondary_lpboost"] == 0
    else:
        assert counts["solve_edge_min"] == 0
    assert counts["secondary_erlpboost"] == (steps if secondary == "erlpboost" else 0)
    # the final model's checked margins and objectives
    assert counts["margins"] > 0
    assert counts["capped_entropy_projection"] > 0 and counts["capped_min_linear"] > 0
