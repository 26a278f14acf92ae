"""Acceptance gate: the ten release criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive
fixtures (the m=200 benchmark runs and the full-pool oracle value) are
shared across criteria, so the whole gate takes a couple of minutes.
"""

import contextlib
import functools
import io
import json
import math
import time

import numpy as np
import pytest

from marginforge.boosting import (
    BoosterConfig,
    PoolOracleLearner,
    StumpLearner,
    run_lpboost,
    run_scheme,
)
from marginforge.cli import RunManifest, cmd_oracle, cmd_train
from marginforge.core import CapParams, relative_entropy
from marginforge.entropy import capped_entropy_projection, smoothed_conjugate
from marginforge.lp import solve_edge_min
from marginforge.core import GainMatrix
from marginforge.stumps import StumpPool, full_gain_matrix

from conftest import (
    capped_simplex_vertices,
    min_linear_over_cap,
    oracle_projection,
    two_gaussians,
    write_csv,
)

EPS = 0.01
NU_FRAC = 0.1
M = 200


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} FAIL  {label}", flush=True)
                raise
            print(f"[acceptance] criterion {number:2d} PASS  {label}", flush=True)

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def gauss200():
    return two_gaussians(M, seed=0)


@pytest.fixture(scope="module")
def data_csv(gauss200, tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "gauss200.csv"
    write_csv(path, gauss200)
    return str(path)


@pytest.fixture(scope="module")
def rho_star(data_csv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cmd_oracle(RunManifest(data=data_csv, nu_frac=NU_FRAC, eps=EPS)) == 0
    return json.loads(buffer.getvalue())["rho_star"]


@pytest.fixture(scope="module")
def e2e_runs(gauss200):
    """The benchmark algorithms on the m=200 fixture, with wall times."""
    learner = StumpLearner(gauss200)
    nu = NU_FRAC * M
    out = {}
    for algo, fw_rule, secondary, runner in [
        ("lpboost", "short_step", "none", run_lpboost),
        ("erlpboost", "short_step", "erlpboost", run_scheme),
        ("cerlpboost", "short_step", "none", run_scheme),
        ("mlpb-ss", "short_step", "lpboost", run_scheme),
        ("mlpb-pfw", "pairwise", "lpboost", run_scheme),
    ]:
        config = BoosterConfig(eps=EPS, nu=nu, fw_rule=fw_rule, secondary=secondary)
        tic = time.perf_counter()
        model, records = runner(gauss200, learner, config)
        out[algo] = (model, records, time.perf_counter() - tic)
    return out


@pytest.fixture(scope="module")
def bound_runs(gauss200):
    """Max-edge-oracle runs at eps=0.2 used by criteria 6 and 7."""
    oracle = PoolOracleLearner(full_gain_matrix(gauss200, StumpPool.build(gauss200)))

    def uniform_stub(A, params):
        return np.full(A.t, 1.0 / A.t)

    out = {}
    for fw_rule in ("classic", "short_step", "pairwise", "line_search"):
        for secondary in ("none", "lpboost", "erlpboost", uniform_stub):
            config = BoosterConfig(eps=0.2, nu=20.0, fw_rule=fw_rule, secondary=secondary)
            name = secondary if isinstance(secondary, str) else "stub"
            out[(fw_rule, name)] = run_scheme(gauss200, oracle, config)
    return out


@criterion(1, "projection matches the subset-enumeration oracle (500 cases, <5s)")
def test_projection_oracle_equivalence():
    rng = np.random.default_rng(100)
    tic = time.perf_counter()
    for _ in range(500):
        m = int(rng.integers(2, 7))
        nu = min(float(rng.choice([1.0, 1.5, 2.0, m])), float(m))
        eta = float(rng.choice([1.0, 10.0, 500.0]))
        theta = rng.uniform(-1, 1, m)
        res = capped_entropy_projection(theta, CapParams(nu=nu, m=m, eta=eta, eps=1.0))
        ref_d, _ = oracle_projection(theta, nu, eta)
        assert np.max(np.abs(res.d - ref_d)) < 1e-6
    assert time.perf_counter() - tic < 5.0


@criterion(2, "smoothed conjugate at nu=1 equals log-sum-exp (100 cases, 1e-9)")
def test_logsumexp_closed_form():
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = int(rng.integers(2, 16))
        eta = float(rng.choice([1.0, 10.0, 500.0]))
        theta = rng.uniform(-1, 1, m)
        got = smoothed_conjugate(theta, CapParams(nu=1.0, m=m, eta=eta, eps=1.0))
        want = (np.logaddexp.reduce(eta * theta) - math.log(m)) / eta
        assert got == pytest.approx(want, abs=1e-9)


@criterion(3, "entropy over cap vertices peaks at ln(m/nu) (m<=8, 1e-9)")
def test_entropy_extreme_point_bound():
    for m in range(2, 9):
        for nu in range(1, m + 1):
            values = [relative_entropy(d) for d in capped_simplex_vertices(m, nu)]
            assert max(values) == pytest.approx(math.log(m / nu), abs=1e-9)
            assert all(v <= math.log(m / nu) + 1e-9 for v in values)


@criterion(4, "strong duality |gamma-rho|<=1e-7 on 200 random edge-min solves")
def test_edge_min_strong_duality():
    rng = np.random.default_rng(102)
    for _ in range(200):
        m = int(rng.integers(2, 51))
        t = int(rng.integers(1, 11))
        A = GainMatrix([rng.uniform(-1, 1, m) for _ in range(t)], list(range(t)))
        nu = float(min(m, rng.choice([1.0, 1.5, 2.0, 0.2 * m, m])))
        sol = solve_edge_min(A, nu)
        assert abs(sol.gamma - sol.rho) <= 1e-7
        assert np.max(sol.d @ A.as_array()) == pytest.approx(sol.gamma, abs=1e-8)
        if m <= 8:
            rho_ref = min_linear_over_cap(A.as_array() @ sol.w, nu)
            assert sol.rho == pytest.approx(rho_ref, abs=1e-9)


@criterion(5, "every benchmark algorithm reaches rho* - eps on m=200 in <60s")
def test_end_to_end_eps_optimality(e2e_runs, rho_star):
    for algo, (model, records, seconds) in e2e_runs.items():
        assert model.converged, algo
        assert model.soft_margin_obj >= rho_star - EPS, (algo, model.soft_margin_obj, rho_star)
        assert seconds < 60.0, (algo, seconds)
        # certified stop: the final soft margin is within eps of the
        # smallest edge the weak learner ever achieved
        last = records[-1]
        assert last.soft_margin_obj >= last.min_edge_so_far - EPS, algo


@criterion(6, "max-edge-oracle runs stop within ceil(32 ln(m/nu)/eps^2) rounds")
def test_theoretical_iteration_bound(bound_runs):
    bound = math.ceil(32.0 * math.log(M / 20.0) / 0.2**2)
    assert bound == 1843
    for key, (model, records) in bound_runs.items():
        assert model.converged, key
        assert len(records) <= bound, (key, len(records))


@criterion(7, "classic-step runs satisfy the per-round gap recursion")
def test_classic_recursion(bound_runs):
    eta = CapParams.from_tolerance(M, 20.0, 0.2).eta
    checked = 0
    for (fw_rule, secondary), (_, records) in bound_runs.items():
        if fw_rule != "classic":
            continue
        for prev, nxt in zip(records, records[1:]):
            lam = prev.step_size
            assert nxt.eps_t <= (1 - lam) * prev.eps_t + 2 * eta * lam**2 + 1e-8
            checked += 1
    assert checked > 0


@criterion(8, "smoothed objective and running min edge are monotone")
def test_monotonicity(e2e_runs, bound_runs):
    descent_runs = [
        e2e_runs["cerlpboost"][1],
        e2e_runs["mlpb-ss"][1],
        e2e_runs["mlpb-pfw"][1],
        bound_runs[("line_search", "none")][1],
        bound_runs[("pairwise", "lpboost")][1],
    ]
    for records in descent_runs:
        smoothed = np.array([r.smoothed_obj for r in records])
        assert np.all(np.diff(smoothed) <= 1e-9)
    for _, records, _ in e2e_runs.values():
        min_edge = np.array([r.min_edge_so_far for r in records])
        assert np.all(np.diff(min_edge) <= 1e-12)


@criterion(9, "LP secondary never needs more rounds than plain short-step (4/5 seeds)")
def test_secondary_advantage():
    wins = 0
    counts = []
    for seed in range(5):
        data = two_gaussians(100, seed=seed)
        A_full = full_gain_matrix(data, StumpPool.build(data))
        learner = PoolOracleLearner(A_full)
        nu = NU_FRAC * 100
        model_withsec, recs_withsec = run_scheme(
            data, learner, BoosterConfig(eps=EPS, nu=nu, fw_rule="short_step", secondary="lpboost")
        )
        model_plain, recs_plain = run_scheme(
            data, learner, BoosterConfig(eps=EPS, nu=nu, fw_rule="short_step", secondary="none")
        )
        pool_optimum = solve_edge_min(A_full, nu).rho
        assert model_withsec.soft_margin_obj >= pool_optimum - EPS
        assert model_plain.soft_margin_obj >= pool_optimum - EPS
        counts.append((len(recs_withsec), len(recs_plain)))
        wins += len(recs_withsec) <= len(recs_plain)
    print(f"[acceptance]   criterion 9 counts (with secondary vs plain): {counts}")
    assert wins >= 4, counts


@criterion(10, "identical manifest and seed give byte-identical artifacts")
def test_determinism(tmp_path):
    data = two_gaussians(60, seed=14)
    data_path = tmp_path / "d.csv"
    write_csv(data_path, data)
    artifacts = []
    for tag in ("first", "second"):
        manifest = RunManifest(
            data=str(data_path), algo="mlpb-pfw", nu_frac=0.2, eps=0.02, seed=3,
            model_out=str(tmp_path / f"{tag}.json"),
            log_out=str(tmp_path / f"{tag}.jsonl"),
        )
        assert cmd_train(manifest) == 0
        model_bytes = (tmp_path / f"{tag}.json").read_bytes()
        stripped_log = []
        for line in (tmp_path / f"{tag}.jsonl").read_text().splitlines():
            record = json.loads(line)
            record.pop("wall_time_ns")
            stripped_log.append(json.dumps(record))
        artifacts.append((model_bytes, "\n".join(stripped_log)))
    assert artifacts[0] == artifacts[1]
