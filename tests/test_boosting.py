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

from conftest import (
    PoolOracleLearner,
    min_linear_over_cap,
    reference_lp_scheme,
    reference_lpboost,
    scipy_edge_min,
    two_gaussians,
)


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


def _fail_on_third_solve(monkeypatch, error):
    """Patches the booster's LP solve to raise ``error`` on its third call;
    returns the call count."""
    calls = {"n": 0}

    def fail_on_third_call(A, nu, start=None):
        calls["n"] += 1
        if calls["n"] == 3:
            raise error
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", fail_on_third_call)
    return calls


@pytest.mark.parametrize("error", [LpError("pivot limit"), np.linalg.LinAlgError("singular")])
def test_secondary_failure_keeps_fw_step(monkeypatch, caplog, error):
    calls = _fail_on_third_solve(monkeypatch, error)
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


@pytest.mark.parametrize("error", [LpError("pivot limit"), np.linalg.LinAlgError("singular")])
def test_lp_only_failure_is_raised(monkeypatch, caplog, error):
    # with no FW rule the LP's candidate is the round's only one: a failed
    # solve leaves the fit, unlogged, where a FW round keeps its step
    calls = _fail_on_third_solve(monkeypatch, error)
    data = two_gaussians(60, seed=3)  # 8 rounds unpatched
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule=None, secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        with pytest.raises(type(error), match=str(error)):
            run_scheme(data, StumpLearner(data), cfg)
    assert calls["n"] == 3
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class InflatedEdges(StumpLearner):
    """Reports every edge 1e-9 above the true one: at eps ``EPS_FLOOR`` no
    certificate passes, so a fit with a FW rule runs to its cap, and no
    edge is within eps of an LP's gamma, so LPBoost stops only once the
    learner returns a column A holds."""

    def query(self, d):
        hypothesis, column, edge = super().query(d)
        return hypothesis, column, edge + 1e-9


def _strip(records):
    return [dataclasses.replace(r, wall_time_ns=0) for r in records]


def _same_fit(a, b, converged=True):
    (model_a, recs_a), (model_b, recs_b) = a, b
    assert _strip(recs_a) == _strip(recs_b)
    assert model_a.hypotheses == model_b.hypotheses
    assert model_a.weights == model_b.weights
    assert model_a.soft_margin_obj == model_b.soft_margin_obj
    assert model_a.smoothed_obj == model_b.smoothed_obj
    assert model_a.converged is model_b.converged is converged


@pytest.mark.parametrize("fw_rule", ["short_step", "pairwise"])
def test_lpboost_secondary_matches_the_reference_scheme(fw_rule):
    # the reference solves the LP on every round that does not stop and queries
    # at each new optimum's d, with no state carried but the last basis: the
    # same fit, bit for bit, with the same rounds flagged for an LP query and
    # for a column that query added
    data = two_gaussians(200, seed=0)
    learner = StumpLearner(data)
    cfg = BoosterConfig(eps=0.01, nu=20.0, fw_rule=fw_rule, secondary="lpboost")
    fit = run_scheme(data, learner, cfg)
    _same_fit(fit, reference_lp_scheme(data, learner, cfg))
    assert sum(r.lp_column_added for r in fit[1]) >= 10  # measured 13 (ss) and 18 (pfw)


LPBOOST = {"fw_rule": None, "secondary": "lpboost"}  # the LP half alone


def test_lpboost_is_the_scheme_with_no_fw_half_bit_for_bit():
    # LPBoost's column generation in a loop of its own (conftest's reference)
    # and run_scheme with no FW rule make the same records and model, bit for bit
    fixture = two_gaussians(200, seed=0)
    cases = [(StumpLearner(fixture), 20.0, 0.01, None, True)]  # the acceptance fixture
    for seed in range(3):
        cases.append((StumpLearner(two_gaussians(200, seed=seed)), 20.0, 0.05, None, True))
    for cap in (1, 2, 3):  # a capped round adds its column after its solve: w is padded
        cases.append((StumpLearner(fixture), 20.0, 0.01, cap, False))
    # every edge is inflated, so the fit stops on a held column, never on the edge test
    cases.append((InflatedEdges(two_gaussians(60, seed=5)), 9.0, EPS_FLOOR, 60, True))
    for learner, nu, eps, cap, converged in cases:
        cfg = BoosterConfig(eps=eps, nu=nu, max_iterations=cap, **LPBOOST)
        fit = run_scheme(learner.data, learner, cfg)
        _same_fit(fit, reference_lpboost(learner.data, learner, cfg), converged)
        assert all(r.chosen_rule == "secondary" and not (r.lp_query or r.lp_column_added) for r in fit[1])


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


def test_lpboost_secondary_solves_once_per_round_that_does_not_stop(monkeypatch):
    column_counts = []

    def counting_solve(A, nu, start=None):
        column_counts.append(A.t)
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", counting_solve)
    data = two_gaussians(200, seed=0)
    # a plain fit, and one whose inflated edges keep it from stopping: every
    # round that does not stop solves once and then queries once at its LP's d
    for learner, eps, cap in [(StumpLearner(data), 0.01, None), (InflatedEdges(data), EPS_FLOOR, 300)]:
        column_counts.clear()
        learner = _RecordingLearner(learner)
        cfg = BoosterConfig(eps=eps, nu=20.0, fw_rule="short_step", secondary="lpboost", max_iterations=cap)
        model, records = run_scheme(data, learner, cfg)
        assert model.converged is (cap is None)
        # every solve is followed by one query at its d, and no other round queries twice
        lp_queries = sum(r.lp_query for r in records)
        assert len(column_counts) == lp_queries
        assert len(learner.ids) == 1 + len(records) + lp_queries
        stops = int(model.converged)  # a certified round solves no LP
        assert [r.lp_query for r in records] == [True] * (len(records) - stops) + [False] * stops
        assert all(a <= b for a, b in zip(column_counts, column_counts[1:]))  # columns only grow
        if cap is None:
            # a plain fit meets each column set once: measured 14 solves in 15 rounds
            assert all(a < b for a, b in zip(column_counts, column_counts[1:]))
        else:
            # once the LP reaches the full-pool optimum the learner returns held
            # columns, and each later round solves over the same set again
            assert len(set(column_counts)) <= len(records) // 10  # measured 15 sets in 300 rounds


def test_failed_lpboost_secondary_is_retried_on_the_same_columns(monkeypatch, caplog):
    column_counts = []

    def fail_at_five_columns(A, nu, start=None):
        column_counts.append(A.t)
        if A.t == 5:
            raise LpError("pivot limit")
        return solve_edge_min(A, nu, start=start)

    monkeypatch.setattr(boosting, "solve_edge_min", fail_at_five_columns)
    data = two_gaussians(60, seed=3)
    learner = _RecordingLearner(StumpLearner(data))
    cfg = BoosterConfig(eps=0.05, nu=6.0, fw_rule="short_step", secondary="lpboost")
    with caplog.at_level(logging.WARNING, logger="marginforge.boosting"):
        fit = run_scheme(data, learner, cfg)
    model, records = fit
    assert model.converged
    # query 0 seeds the matrix; round r queries once, and once more at its LP's d
    # if its solve succeeded; every round but the last solves over the columns
    # its own query leaves, so a failed solve is retried, never reused
    expected, queries = [], 1
    for rec in records[:-1]:
        queries += 1
        expected.append(len(set(learner.ids[:queries])))
        queries += rec.lp_query
    assert queries + 1 == len(learner.ids)
    assert column_counts == expected
    assert [r.lp_query for r in records[:-1]] == [c != 5 for c in column_counts]
    assert all(r.chosen_rule == "fw" for r, c in zip(records, column_counts) if c == 5)
    assert column_counts.count(5) >= 2  # measured 3
    assert len(caplog.records) == column_counts.count(5)

    _same_fit(fit, reference_lp_scheme(data, StumpLearner(data), cfg))


def test_lpboost_perfect_stump_stops_fast():
    data = separable_line()
    cfg = BoosterConfig(eps=0.05, nu=1.0, **LPBOOST)
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert model.converged
    assert len(records) <= 2
    assert model.soft_margin_obj >= 1.0 - 0.05


def test_lpboost_at_the_iteration_cap_keeps_the_last_solve():
    # the last round grows A after its solve, so the weights need padding
    data = two_gaussians(60, seed=3)
    cfg = BoosterConfig(eps=0.01, nu=6.0, max_iterations=2, **LPBOOST)
    model, records = run_scheme(data, StumpLearner(data), cfg)
    assert not model.converged
    assert len(records) == 2
    assert model.weights == pytest.approx([0.5, 0.5])
    assert len(model.hypotheses) == 2


def test_lpboost_reaches_full_pool_optimum():
    # LPBoost's stop is certified: the edge at the LP's d is at least rho*,
    # and gamma is the restricted soft margin within STRONG_DUALITY_TOL
    for seed in range(5):
        data = two_gaussians(100, seed=seed)
        learner = StumpLearner(data)
        for nu in (1.0, 6.0, 0.1 * data.m):
            rho_star = solve_edge_min(full_gain_matrix(data, learner.pool), nu).rho
            cfg = BoosterConfig(eps=0.02, nu=nu, **LPBOOST)
            model, records = run_scheme(data, learner, cfg)
            assert model.converged, (seed, nu)
            assert model.soft_margin_obj >= rho_star - cfg.eps - STRONG_DUALITY_TOL, (seed, nu)
            # gamma trend is logged via soft_margin_obj, not asserted monotone
            assert all(r.chosen_rule == "secondary" for r in records)


def test_lpboost_stops_once_the_learner_returns_a_held_column():
    # every reported edge sits 1e-9 above the true one, so the eps test never
    # passes at eps 1e-12; the held column is LPBoost's exact optimality
    data = two_gaussians(60, seed=5)
    nu = 9.0
    cfg = BoosterConfig(eps=EPS_FLOOR, nu=nu, max_iterations=60, **LPBOOST)
    model, records = run_scheme(data, InflatedEdges(data), cfg)
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


@pytest.mark.parametrize("algo", ["cerlpboost", "lpboost"])
def test_a_round_cap_does_not_let_an_eps_below_the_floor_through(algo):
    _, fw_rule, secondary = ALGORITHMS[algo]
    with pytest.raises(ValueError, match=r"eps=1e-15 is too small: below EPS_FLOOR"):
        BoosterConfig(eps=1e-15, nu=6.0, fw_rule=fw_rule, secondary=secondary, max_iterations=5)


@pytest.mark.parametrize("secondary", ["none", "erlpboost", uniform_stub])
def test_no_fw_rule_needs_the_lpboost_secondary(secondary):
    # the LP half alone is LPBoost: no other secondary can stand without a FW rule
    with pytest.raises(ValueError, match=r"fw_rule=None .* secondary='lpboost', not secondary="):
        BoosterConfig(eps=0.01, nu=6.0, fw_rule=None, secondary=secondary)
    BoosterConfig(eps=0.01, nu=6.0, **LPBOOST)
    BoosterConfig(eps=0.01, nu=6.0, fw_rule="pairwise", secondary=secondary)


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


FW_ALGOS = [algo for algo, (_, fw_rule, _) in ALGORITHMS.items() if fw_rule is not None]


@pytest.mark.parametrize("algo", FW_ALGOS)
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


LP_SCHEME_ALGOS = [algo for algo in FW_ALGOS if ALGORITHMS[algo][2] == "lpboost"]


@pytest.mark.parametrize("algo", LP_SCHEME_ALGOS)
def test_the_lp_query_keeps_the_certificate(algo, monkeypatch):
    """After each LP solve the scheme queries the learner at the solution's
    d.  Every d in the capped simplex has a max edge of at least rho*, so
    that edge may lower the running min edge, from the next round on.  The
    min edge never rises, every record's gap is its min edge plus its
    smoothed value, and every fit still ends within eps of rho* and makes
    at most twice lpboost's queries (measured up to exactly twice, on
    seeds 0 and 3)."""
    solutions = []

    def recording_solve(A, nu, start=None):
        solutions.append(solve_edge_min(A, nu, start=start))
        return solutions[-1]

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cases = [(two_gaussians(100, seed=seed), 10.0, 0.02) for seed in range(5)]
    cases.append((two_gaussians(200, seed=0), 20.0, 0.01))  # the acceptance fixture
    for data, nu, eps in cases:
        learner = StumpLearner(data)
        rho_star = solve_edge_min(full_gain_matrix(data, learner.pool), nu).rho
        solutions.clear()
        queries = []  # (edge, whether d is an LP solution's) per query
        query = learner.query

        def recording_query(d):
            response = query(d)
            queries.append((response[2], any(d is sol.d for sol in solutions)))
            return response

        monkeypatch.setattr(learner, "query", recording_query)
        cfg = BoosterConfig(eps=eps, nu=nu, fw_rule=fw_rule, secondary=secondary)
        model, records = run_scheme(data, learner, cfg)
        assert model.converged
        assert model.soft_margin_obj >= rho_star - eps
        assert len(queries) == 1 + len(records) + sum(r.lp_query for r in records)

        (bound, _), *queries = queries
        for rec in records:
            edge, at_lp = queries.pop(0)
            assert not at_lp
            assert rec.edge_new == edge and rec.min_edge_so_far == min(bound, edge)
            assert rec.eps_t == rec.min_edge_so_far + rec.smoothed_obj
            bound = rec.min_edge_so_far
            if rec.lp_query:
                lp_edge, at_lp = queries.pop(0)
                assert at_lp and lp_edge >= rho_star - STRONG_DUALITY_TOL
                bound = min(bound, lp_edge)  # from the next round's gap on
        min_edges = [r.min_edge_so_far for r in records]
        assert all(b <= a for a, b in zip(min_edges, min_edges[1:]))

        _, lp_records = run_scheme(data, StumpLearner(data), dataclasses.replace(cfg, fw_rule=None))
        assert 1 + len(records) + sum(r.lp_query for r in records) <= 2 * (1 + len(lp_records))


@pytest.mark.parametrize("algo", ["lpboost", "mlpb-ss"])
def test_the_loop_logs_one_cap_warning(algo, caplog):
    data = two_gaussians(60, seed=3)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.01, nu=6.0, fw_rule=fw_rule, secondary=secondary, max_iterations=2)
    with caplog.at_level(logging.WARNING, logger="marginforge"):
        model, records = run_scheme(data, StumpLearner(data), cfg)
    assert not model.converged and len(records) == 2
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["booster hit the iteration cap (2 rounds)"]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="marginforge"):
        model, _ = run_scheme(data, StumpLearner(data), dataclasses.replace(cfg, max_iterations=None))
    assert model.converged
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


@pytest.mark.parametrize("algo", [algo for algo in ALGORITHMS if algo != "erlpboost"])
def test_only_erlpboost_takes_newton_steps(algo, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{algo} called newton_step")

    monkeypatch.setattr(fw, "newton_step", forbidden)
    monkeypatch.setattr(boosting, "newton_step", forbidden)
    data = two_gaussians(200, seed=0)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.1, nu=20.0, fw_rule=fw_rule, secondary=secondary)
    model, _ = run_scheme(data, StumpLearner(data), cfg)
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


def test_the_lpboost_secondary_skips_no_solve_for_priced_out_columns(monkeypatch):
    # a column the last LP was solved over, or whose edge under that LP's
    # distribution is at most its gamma, leaves the last optimum optimal.  The
    # secondary skips no solve for it: every round that does not stop solves
    # over every column held, then queries at the new d.  A solve whose new
    # columns all price out under the last one returns that optimum's value
    nu = 20.0
    data = two_gaussians(200, seed=0)
    priced_out_by_fit = []
    fits = [(StumpLearner(data), "classic", 0.01, None), (InflatedEdges(data), "short_step", EPS_FLOOR, 300)]
    for learner, fw_rule, eps, cap in fits:
        events = []  # ("query", d, hypothesis, column) and ("solve", A.t, solution) in call order

        def recording_solve(A, nu, start=None):
            sol = solve_edge_min(A, nu, start=start)
            events.append(("solve", A.t, sol))
            return sol

        query = learner.query

        def recording_query(d):
            response = query(d)
            events.append(("query", d, response[0], response[1]))
            return response

        monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
        monkeypatch.setattr(learner, "query", recording_query)
        cfg = BoosterConfig(eps=eps, nu=nu, fw_rule=fw_rule, secondary="lpboost", max_iterations=cap)
        model, records = run_scheme(data, learner, cfg)
        assert model.converged is (cap is None)

        index, gains = {}, []

        def take_query():
            kind, d, hypothesis, column = events.pop(0)
            assert kind == "query"
            new = hypothesis not in index
            if new:
                index[hypothesis] = len(gains)
                gains.append(column)
            return d, index[hypothesis], column, new

        def priced_out(sol, j, column):
            return j < sol.w.size or sol.d @ column <= sol.gamma

        take_query()  # the start's uniform query
        last, since = None, []  # the last solve, and the (index, column) queried since
        priced = 0
        for rec in records:
            since.append(take_query()[1:3])
            if rec is records[-1] and model.converged:
                break  # the last round certified its stop before any secondary
            kind, t, sol = events.pop(0)
            assert kind == "solve" and t == len(gains)
            if last is not None and all(priced_out(last, j, column) for j, column in since):
                priced += 1
                assert abs(sol.gamma - last.gamma) <= STRONG_DUALITY_TOL
                assert abs(sol.gamma - scipy_edge_min(np.column_stack(gains), nu)) <= STRONG_DUALITY_TOL
            d, j, column, new = take_query()
            assert d is sol.d
            assert rec.lp_query and rec.lp_column_added is new
            last, since = sol, [(j, column)]
        assert events == []
        assert sum(r.lp_query for r in records) == len(records) - model.converged
        priced_out_by_fit.append(priced)
    # the plain fit meets no round whose columns all price out; the inflated fit
    # does on every round after its LP query returns a held column: measured
    # 286 such rounds of 300
    assert priced_out_by_fit[0] == 0
    assert priced_out_by_fit[1] >= 250


# kernel projections (``entropy._project`` through boosting and fw) of each
# fit in the test below.  A fit that compares candidates makes exactly these;
# cerlpboost may make one more per ``_MARGIN_REFRESH`` rounds, where its
# refresh replaces a projection that no comparison read.  The line searches
# of mlpb-pfw and mlpb-ls start from the round's projection, so neither
# projects at lam 0
KERNEL_PROJECTIONS = {
    "erlpboost": 51,
    "cerlpboost": 1844,
    "mlpb-ss": 14,
    "mlpb-pfw": 44,
    "mlpb-ls": 60,
    "mlpb-classic": 14,
}


@pytest.mark.parametrize("algo", FW_ALGOS)
def test_every_projection_the_loop_uses_is_the_public_projection(algo, monkeypatch):
    """The loop projects through the unchecked kernel and ends every round
    holding the projection of the margins it keeps.  Each projection must
    equal, bit for bit, a fresh checked projection of the same margins; each
    round must query the learner with one of them; and each record's
    objectives must be the checked values of the margins whose projection
    that round read: the one it queried with, or its certify re-check's.
    The one other query a round makes is after each LP solve, at its d."""
    kernels = {"boosting": boosting._project, "fw": fw._project}
    by_d = {}  # id(d) -> projection; holding every projection keeps the ids unique
    # ("query", projection or None, d), ("project", projection) and ("solve", solution), in call order
    events = []
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

    def recording_solve(A, nu, start=None):
        sol = solve_edge_min(A, nu, start=start)
        events.append(("solve", sol))
        return sol

    data = two_gaussians(80, seed=4)
    learner = StumpLearner(data)
    query = learner.query

    def traced_query(d):
        events.append(("query", by_d.get(id(d)), d))
        return query(d)

    monkeypatch.setattr(boosting, "solve_edge_min", recording_solve)
    monkeypatch.setattr(boosting, "_project", checked_kernel("boosting"))
    monkeypatch.setattr(fw, "_project", checked_kernel("fw"))
    monkeypatch.setattr(learner, "query", traced_query)
    _, fw_rule, secondary = ALGORITHMS[algo]
    cfg = BoosterConfig(eps=0.02, nu=8.0, fw_rule=fw_rule, secondary=secondary)
    model, records = run_scheme(data, learner, cfg)
    assert model.converged

    # split the events after the start's uniform query into one run per round
    assert events[0][:2] == ("query", None)
    rounds, lp_queries, solved = [], [], None  # solved: the last LP solve, until its query
    for kind, res, *d in events[1:]:
        if kind == "solve":
            solved = res
        elif kind == "query" and res is None:
            assert solved is not None and d[0] is solved.d, "a query at no projection and no LP's d"
            lp_queries.append(len(rounds))
            solved = None
        elif kind == "query":
            assert solved is None, "a round began before the last solve's query"
            rounds.append([res])
        elif rounds:
            rounds[-1].append(res)
    assert len(rounds) == len(records)
    assert lp_queries == [rec.t for rec in records if rec.lp_query]
    params = CapParams.from_tolerance(data.m, cfg.nu, cfg.eps)  # the fit's own
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
    _, fw_rule, secondary = ALGORITHMS[algo]
    config = BoosterConfig(eps=0.05, nu=6.0, fw_rule=fw_rule, secondary=secondary)
    model, records = run_scheme(data, learner, config)
    assert model.converged

    # one best_stump call per query and one solve_edge_min call per LP solve; a
    # round queries once, and a round with a FW half once more after an LP
    # solve, at its d
    lp_queries = sum(r.lp_query for r in records)
    assert counts["best_stump"] == counts["queries"] == len(records) + 1 + lp_queries
    assert counts["solve_edge_min"] == counts["lp solves"]
    # one rule call per FW step: a round with a FW half steps unless it stops
    steps = 0 if fw_rule is None else len(records) - 1
    assert sum(counts[name] for name in TRACED_NAMES["fw"]) == steps
    if fw_rule is not None:
        assert counts[RULE_OF[fw_rule]] == steps
    # LPBoost solves on every round, and its query is the round's own; the LP
    # half beside a FW rule solves on every round that does not stop
    solves = len(records) if fw_rule is None else lp_queries
    if secondary == "lpboost":
        assert 0 < counts["secondary_lpboost"] == counts["solve_edge_min"] == solves
    else:
        assert counts["solve_edge_min"] == 0
    assert lp_queries == 0 or (secondary == "lpboost" and fw_rule is not None)
    assert counts["secondary_erlpboost"] == (steps if secondary == "erlpboost" else 0)
    # the final model's checked margins and objectives
    assert counts["margins"] > 0
    assert counts["capped_entropy_projection"] > 0 and counts["capped_min_linear"] > 0
