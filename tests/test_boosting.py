import dataclasses
import logging
import math

import numpy as np
import pytest

from marginforge.boosting import (
    BoosterConfig,
    PoolOracleLearner,
    StumpLearner,
    TrainedModel,
    default_iteration_cap,
    predict,
    run_lpboost,
    run_scheme,
    secondary_erlpboost,
    secondary_lpboost,
)
from marginforge.cli import ALGORITHMS
from marginforge.core import CapParams, Dataset, GainMatrix, margins
from marginforge.entropy import capped_entropy_projection, capped_min_linear, smoothed_conjugate
from marginforge import boosting, fw
from marginforge.lp import LpError, solve_edge_min
from marginforge.stumps import StumpHypothesis, StumpPool, full_gain_matrix

from conftest import min_linear_over_cap, two_gaussians


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
    assert secondary_lpboost(A, 2.0) == pytest.approx([1.0])

    A2 = GainMatrix([col, col.copy()], [0, 1])
    w = secondary_lpboost(A2, 2.0)
    value = min_linear_over_cap(A2.as_array() @ w, 2.0)
    ref = solve_edge_min(A, 2.0).rho
    assert w.sum() == pytest.approx(1.0)
    # any split between duplicate columns achieves the same value
    assert value == pytest.approx(ref, abs=1e-9)


def test_secondary_lpboost_matches_edge_min_dual():
    c = np.array([0.5, -0.2, 0.3, 0.9])
    A = GainMatrix([c, -c], [0, 1])
    assert np.array_equal(secondary_lpboost(A, 2.0), solve_edge_min(A, 2.0).w)


def test_secondary_erlpboost_point_mass():
    A = GainMatrix([np.array([0.4, -0.1, 0.3])], [0])
    params = CapParams.from_tolerance(3, 1.5, 0.1)
    assert secondary_erlpboost(A, params) == pytest.approx([1.0])


def test_secondary_erlpboost_nu_equals_m_maximises_mean_margin():
    rng = np.random.default_rng(8)
    cols = [rng.uniform(-1, 1, 4) for _ in range(3)]
    A = GainMatrix(cols, [0, 1, 2])
    params = CapParams.from_tolerance(4, 4.0, 0.1)
    w = secondary_erlpboost(A, params)
    best = int(np.argmax([c.mean() for c in cols]))
    assert w[best] == pytest.approx(1.0, abs=1e-6)


def test_secondary_erlpboost_matches_grid_oracle():
    rng = np.random.default_rng(19)
    cols = [rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)]
    A = GainMatrix(cols, [0, 1])
    params = CapParams(nu=1.5, m=3, eta=20.0, eps=0.05)
    w = secondary_erlpboost(A, params)
    value = smoothed_conjugate(-margins(A, w), params)
    grid_best = min(
        smoothed_conjugate(-(lam * cols[0] + (1 - lam) * cols[1]), params)
        for lam in np.linspace(0.0, 1.0, 10_001)
    )
    assert value <= grid_best + params.eps / 10 + 1e-9


@pytest.mark.parametrize("error", [LpError("pivot limit"), np.linalg.LinAlgError("singular")])
def test_secondary_failure_keeps_fw_step(monkeypatch, caplog, error):
    calls = {"n": 0}

    def fail_on_third_call(A, nu):
        calls["n"] += 1
        if calls["n"] == 3:
            raise error
        return solve_edge_min(A, nu)

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


def _lpboost_every_round(A, params):
    """The LPBoost secondary as a callable, which run_scheme never reuses."""
    return secondary_lpboost(A, params.nu)


@pytest.mark.parametrize("fw_rule", ["short_step", "pairwise"])
def test_reused_lpboost_secondary_matches_solving_every_round(fw_rule):
    data = two_gaussians(200, seed=0)
    learner = StumpLearner(data)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule=fw_rule, secondary="lpboost")
    reused = run_scheme(data, learner, cfg)
    every_round = run_scheme(
        data, learner, dataclasses.replace(cfg, secondary=_lpboost_every_round)
    )
    _same_fit(reused, every_round)


def test_lpboost_secondary_solves_once_per_column_set(monkeypatch):
    column_counts = []

    def counting_solve(A, nu):
        column_counts.append(A.t)
        return solve_edge_min(A, nu)

    monkeypatch.setattr(boosting, "solve_edge_min", counting_solve)
    data = two_gaussians(200, seed=0)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule="short_step", secondary="lpboost")
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    # columns only grow, so one solve per column set means strictly increasing counts
    assert all(a < b for a, b in zip(column_counts, column_counts[1:]))
    assert len(column_counts) <= len(records) // 10  # measured 22 solves in 605 rounds


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

    def fail_at_four_columns(A, nu):
        column_counts.append(A.t)
        if A.t == 4:
            raise LpError("pivot limit")
        return solve_edge_min(A, nu)

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
        data, StumpLearner(data), dataclasses.replace(cfg, secondary=_lpboost_every_round)
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
    data = two_gaussians(60, seed=5)
    learner = StumpLearner(data)
    nu = 9.0
    rho_star = solve_edge_min(full_gain_matrix(data, learner.pool), nu).rho
    cfg = BoosterConfig(eps=0.02, nu=nu)
    model, records = run_lpboost(data, learner, cfg)
    assert model.converged
    assert model.soft_margin_obj >= rho_star - cfg.eps
    # gamma trend is logged via soft_margin_obj, not asserted monotone
    assert all(r.chosen_rule == "secondary" for r in records)


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
    # the model's objectives come from a fresh A @ w; the stop must too, bit for bit
    assert records[-1].smoothed_obj == model.smoothed_obj
    assert records[-1].soft_margin_obj == model.soft_margin_obj


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


@pytest.mark.parametrize("algo", SCHEME_ALGOS)
def test_every_projection_the_loop_uses_is_the_public_projection(algo, monkeypatch):
    """The loop projects through the unchecked kernel and hands the winning
    candidate's projection to the next round; each projection it uses must
    equal, bit for bit, a fresh checked projection of the same margins."""
    kernels = {"boosting": boosting._project, "fw": fw._project}
    evaluate = boosting._evaluate
    seen = {"kernel": 0, "reused": 0}

    def checked_kernel(owner):
        def project(theta, params, order_hint=None):
            res = kernels[owner](theta, params, order_hint)
            _assert_same_projection(res, capped_entropy_projection(theta, params))
            seen["kernel"] += 1
            return res

        return project

    def checked_evaluate(marg, params, proj, order):
        seen["reused"] += proj is not None
        got, smoothed_obj, soft_margin_obj = evaluate(marg, params, proj, order)
        _assert_same_projection(got, capped_entropy_projection(marg, params))
        assert np.float64(smoothed_obj).tobytes() == np.float64(
            smoothed_conjugate(-marg, params)
        ).tobytes()
        assert soft_margin_obj == capped_min_linear(marg, params.nu)[0]
        return got, smoothed_obj, soft_margin_obj

    monkeypatch.setattr(boosting, "_project", checked_kernel("boosting"))
    monkeypatch.setattr(fw, "_project", checked_kernel("fw"))
    monkeypatch.setattr(boosting, "_evaluate", checked_evaluate)
    data = two_gaussians(80, seed=4)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.02, nu=8.0, fw_rule=fw_rule, secondary=secondary)
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged and seen["kernel"] > 0
    if secondary != "none":
        assert seen["reused"] > 0
        assert any(rec.chosen_rule == "secondary" for rec in records)
