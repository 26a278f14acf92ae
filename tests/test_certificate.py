"""End-to-end certificate properties of every ``--algo`` on tiny datasets.

Hypothesis draws m 4-12 rows of 1-2 features from a few values, so
features tie and rows repeat (a repeated row with both labels makes the
sample inseparable), plus a random nu fraction and eps in {0.05, 0.1,
0.2}.  Each fit must converge on its own stopping rule, reach the
full-pool soft-margin optimum rho* (from scipy's HiGHS) within eps, keep
objectives that a fresh recomputation from its hypotheses and weights
reproduces, and write the same bytes when run again.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marginforge import boosting
from marginforge.cli import ALGORITHMS, RunManifest, _run_manifest, model_payload, record_payload
from marginforge.constants import STRONG_DUALITY_TOL
from marginforge.core import CapParams, Dataset
from marginforge.entropy import smoothed_conjugate
from marginforge.stumps import StumpPool, full_gain_matrix

from conftest import scipy_edge_min, min_linear_over_cap

VALUES = (-1.0, -0.5, 0.0, 0.25, 1.0, 2.0)


@st.composite
def tiny_datasets(draw):
    m = draw(st.integers(4, 12))
    p = draw(st.integers(1, 2))
    distinct = draw(st.integers(1, m))
    row = st.tuples(*[st.sampled_from(VALUES)] * p)
    rows = draw(st.lists(row, min_size=distinct, max_size=distinct))
    rows += draw(st.lists(st.sampled_from(rows), min_size=m - distinct, max_size=m - distinct))
    features = np.array(rows)
    if draw(st.booleans()):  # separable by a stump on feature 0
        labels = np.where(features[:, 0] >= draw(st.sampled_from(VALUES)), 1.0, -1.0)
    else:
        labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    return Dataset(features, labels)


def full_pool_optimum(data: Dataset, nu: float) -> float:
    """rho* = min over the capped simplex of the best stump's edge, by HiGHS."""
    return scipy_edge_min(full_gain_matrix(data, StumpPool.build(data)).as_array(), nu)


def artifact_bytes(model, records) -> str:
    lines = [json.dumps({**record_payload(r), "wall_time_ns": 0}) for r in records]
    return json.dumps(model_payload(model)) + "\n" + "\n".join(lines)


@settings(max_examples=30, deadline=None)
@given(
    tiny_datasets(),
    st.floats(0.01, 1.0),
    st.sampled_from([0.05, 0.1, 0.2]),
)
def test_every_algo_certifies_its_fit(data, nu_frac, eps):
    nu = RunManifest(data="", nu_frac=nu_frac).nu(data.m)
    rho_star = full_pool_optimum(data, nu)
    params = CapParams.from_tolerance(data.m, nu, eps)
    for algo in ALGORITHMS:
        manifest = RunManifest(data="", algo=algo, nu_frac=nu_frac, eps=eps)
        solves = []

        def recording_solve(A, nu, start=None, solve=boosting.solve_edge_min):
            solves.append(solve(A, nu, start=start))
            return solves[-1]

        with mock.patch.object(boosting, "solve_edge_min", recording_solve):
            model, records = _run_manifest(manifest, data)
        assert model.converged, algo
        if algo == "lpboost":
            assert records[-1].edge_new <= solves[-1].gamma + eps
        else:
            assert records[-1].eps_t <= eps / 2.0, algo
        assert model.soft_margin_obj >= rho_star - eps - STRONG_DUALITY_TOL, algo

        votes = zip(model.weights, model.hypotheses)
        marg = sum(w * data.labels * h.predict(data.features) for w, h in votes)
        assert abs(model.soft_margin_obj - min_linear_over_cap(marg, nu)) <= 1e-9, algo
        assert abs(model.smoothed_obj - smoothed_conjugate(-marg, params)) <= 1e-9, algo

        rerun = _run_manifest(manifest, data)
        assert artifact_bytes(*rerun) == artifact_bytes(model, records), algo
