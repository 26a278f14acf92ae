import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import marginforge
from marginforge import cli
from marginforge.boosting import BoosterConfig, run_scheme
from marginforge.core import (
    CapParams,
    Dataset,
    GainMatrix,
    check_distribution,
    check_ensemble_weights,
    margins,
    relative_entropy,
)
from marginforge.stumps import StumpLearner

from conftest import capped_simplex_vertices, two_gaussians


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan], [0.0]]), np.array([1.0, -1.0]))


def test_cap_params_eta_formula():
    p = CapParams.from_tolerance(m=100, nu=10.0, eps=0.01)
    assert p.eta == pytest.approx(2.0 * math.log(10.0) / 0.01)
    with pytest.raises(ValueError):
        CapParams(nu=0.5, m=4, eta=1.0, eps=0.1)


@pytest.mark.parametrize(
    "field, value",
    [("eta", math.nan), ("eta", math.inf), ("eta", 0.0), ("eps", math.nan), ("eps", math.inf)],
)
def test_cap_params_reject_a_non_finite_or_non_positive_eta_or_eps(field, value):
    # unchecked, a NaN or infinite eta makes the projection of
    # theta = [0.1, -0.2, 0.3, 0.0] at nu = 2 return d = [nan, 0.5, nan, 0.5]
    kwargs = dict(nu=2.0, m=4, eta=1.0, eps=0.1) | {field: value}
    with pytest.raises(ValueError, match=f"{field} must be a positive finite number"):
        CapParams(**kwargs)


def _fit_at_nu(nu):
    data = two_gaussians(20, seed=0)
    return run_scheme(data, StumpLearner(data), BoosterConfig(eps=0.1, nu=nu))


@pytest.mark.parametrize(
    "call, message",
    [
        (functools.partial(_fit_at_nu, 0.0), r"nu must lie in \[1, m\]; got nu=0.0"),
        (functools.partial(_fit_at_nu, -2.0), r"nu must lie in \[1, m\]; got nu=-2.0"),
        (functools.partial(CapParams.from_tolerance, 10, 1.0, 0.0), "eps must be a positive finite number"),
    ],
    ids=["fit at nu 0", "fit at nu -2", "from_tolerance at eps 0"],
)
def test_nu_and_eps_are_checked_before_eta_is_formed(call, message):
    # eta = 2 ln(m/nu)/eps divides by nu and eps and takes the log of m/nu:
    # formed before the checks, nu = 0 and eps = 0 divide by zero and nu = -2
    # has no log
    with pytest.raises(ValueError, match=message):
        call()


def test_gain_matrix_deduplicates_known_ids():
    col = np.array([1.0, -1.0])
    A = GainMatrix([col], ["h0"])
    A2, j = A.with_column(np.array([0.5, 0.5]), "h1")
    assert (A2.t, j) == (2, 1)
    A3, j_again = A2.with_column(col, "h0")
    assert A3 is A2 and j_again == 0


def test_gain_matrix_rejects_repeated_ids():
    a, b = np.array([1.0, -1.0]), np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="repeated hypothesis id 'h'"):
        GainMatrix([a, b], ["h", "h"])


def test_gain_matrix_converts_its_columns():
    A = GainMatrix([[1.0, -1.0]], [0])
    assert A.t == 1
    assert np.array_equal(A.as_array(), GainMatrix([np.array([1.0, -1.0])], [0]).as_array())
    with pytest.raises(ValueError, match="non-empty vector"):
        GainMatrix([[[1.0, -1.0]]], [0])


def test_public_names_resolve_once():
    assert len(set(marginforge.__all__)) == len(marginforge.__all__)
    for name in marginforge.__all__:
        getattr(marginforge, name)


def _load_benchmark_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_layers_resolve():
    """Every layer perfbench's tracer rebinds is still there to rebind:
    a module-level function, or a method in its class's own namespace."""
    tracer = _load_benchmark_tracer()
    assert tracer.LAYERS
    for _, module_name, attr in tracer.LAYERS:
        module = importlib.import_module(module_name)
        assert module_name.split(".")[0] == "marginforge"
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


@pytest.mark.parametrize("algo", ["cerlpboost", "mlpb-ss"])
def test_benchmark_tracer_sees_the_layers_a_fit_runs(algo):
    """A layer a fit stops calling through its traced name reads 0 in
    the benchmark; the learner builds its pool once, and each fit
    queries the stump oracle once in its start, once per round and once
    more after each LP solve."""
    _, fw_rule, secondary = cli.ALGORITHMS[algo]
    data = two_gaussians(200, seed=0)
    config = BoosterConfig(eps=0.1, nu=20.0, fw_rule=fw_rule, secondary=secondary)
    with _load_benchmark_tracer().Tracer() as tracer:
        _, records = run_scheme(data, StumpLearner(data), config)
    tracer.drain()
    stats = tracer.stats
    assert stats["stumps.pool_build"].calls == 1
    lp_queries = sum(r.lp_query for r in records)
    assert stats["stumps.query"].calls == len(records) + 1 + lp_queries
    assert stats["lp.solve"].calls == lp_queries
    assert stats["fw.step"].calls > 0
    assert stats["core.margins"].calls > 0
    assert (stats["lp.solve"].calls > 0) is (secondary == "lpboost")


def test_gain_matrix_view_survives_appends_and_doubling():
    c0, c1, c2 = np.array([1.0, -1.0]), np.array([0.5, 0.5]), np.array([-0.25, 0.75])
    A = GainMatrix([c0], ["h0"])
    before = A.as_array()
    A2, j = A.with_column(c1, "h1")  # capacity 1 -> 2
    assert A2 is A and j == 1
    middle = A.as_array()
    A.with_column(c2, "h2")  # capacity 2 -> 4
    A.with_column(c0 * 0.5, "h3")  # written in place, no doubling
    assert np.array_equal(before, np.column_stack([c0]))
    assert np.array_equal(middle, np.column_stack([c0, c1]))
    assert np.array_equal(A.as_array(), np.column_stack([c0, c1, c2, c0 * 0.5]))
    for view in (before, middle, A.as_array()):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 0.0


def test_gain_matrix_many_appends_match_column_stack():
    rng = np.random.default_rng(8)
    cols = [rng.uniform(-1, 1, 5) for _ in range(37)]
    ids = rng.integers(0, 37, size=100).tolist()  # 34 distinct: repeats, and a doubling past 32
    A = GainMatrix([cols[ids[0]]], [ids[0]])
    index_of, kept = {ids[0]: 0}, [ids[0]]
    for hid in ids:
        A, idx = A.with_column(cols[hid], hid)
        if hid not in index_of:
            index_of[hid] = len(kept)
            kept.append(hid)
        assert idx == index_of[hid]
        assert A.hypothesis_ids == kept
        assert all(A.with_column(cols[h], h) == (A, index_of[h]) for h in kept)  # known: no insert
        assert np.array_equal(A.as_array(), np.column_stack([cols[h] for h in kept]))
    with pytest.raises(ValueError, match="at least one column"):
        GainMatrix([], [])


def test_margins_identity_and_convexity():
    c = np.array([0.3, -0.7, 1.0])
    A = GainMatrix([c], [0])
    assert np.allclose(margins(A, np.array([1.0])), c)
    A2 = GainMatrix([c, c.copy()], [0, 1])
    assert np.allclose(margins(A2, np.array([0.5, 0.5])), c)
    A3 = GainMatrix([np.array([1.0, -1.0]), np.array([-1.0, 1.0])], [0, 1])
    assert np.allclose(margins(A3, np.array([0.5, 0.5])), np.zeros(2))


def test_margins_reject_weights_of_the_wrong_shape():
    A = GainMatrix([np.array([1.0, -1.0]), np.array([0.5, 0.5])], [0, 1])
    for bad in (np.array([1.0]), np.array([0.5, 0.5, 0.0]), np.array([[0.5, 0.5]])):
        with pytest.raises(ValueError, match="weights of shape"):
            margins(A, bad)


def test_check_ensemble_weights_rejections():
    A = GainMatrix([np.array([1.0, -1.0]), np.array([0.5, 0.5])], [0, 1])
    assert np.array_equal(check_ensemble_weights(np.array([0.0, 1.0]), A), [0.0, 1.0])
    with pytest.raises(ValueError, match="weights of shape"):
        check_ensemble_weights(np.array([0.2, 0.3, 0.5]), A)  # wrong length
    with pytest.raises(ValueError, match="nonnegative"):
        check_ensemble_weights(np.array([-0.5, 1.5]), A)
    with pytest.raises(ValueError, match="sum to 1"):
        check_ensemble_weights(np.array([0.5, 0.6]), A)
    with pytest.raises(ValueError, match="sum to 1"):
        check_ensemble_weights(np.array([np.nan, 1.0]), A)
    for bad in (np.array([[0.5, 0.5]]), np.array([])):  # 2-D, empty
        with pytest.raises(ValueError, match="non-empty vector"):
            check_ensemble_weights(bad, A)


def _one_column_matrix():
    return GainMatrix([np.array([0.5, -0.5])], [0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Dataset(np.zeros(3), np.ones(3)), "features must be a non-empty 2-D array"),
        (lambda: Dataset(np.zeros((3, 1)), np.ones(2)), "labels must be a vector with one entry"),
        (lambda: GainMatrix([np.zeros(2)] * 2, [0]), "columns and hypothesis_ids must run"),
        (lambda: _one_column_matrix().with_column(np.zeros(3), 1), "column length does not match"),
        (lambda: GainMatrix([[0.5, math.nan]], [0]), "gain column has non-finite entries"),
        (lambda: GainMatrix([[0.5, 1.5]], [0]), r"gain column entries must lie in \[-1, \+1\]"),
        (lambda: check_distribution(np.full((2, 2), 0.25), 1.0), "distribution must be a vector"),
        (lambda: check_distribution(np.array([0.25, 0.25]), 1.0), "distribution does not sum to 1"),
    ],
    ids=[
        "features-not-2-D", "labels-wrong-shape", "columns-ids-lengths", "with-column-length",
        "non-finite-gain", "gain-out-of-range", "d-not-a-vector", "d-sum-not-1",
    ],
)
def test_core_types_refuse_malformed_input_with_a_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_check_distribution_refuses_nan():
    for bad in (np.array([math.nan, 1.0]), np.array([0.5, 0.5, math.nan])):
        with pytest.raises(ValueError, match="leave"):
            check_distribution(bad, 1.0)
    d = np.array([0.25, 0.75])
    assert check_distribution(d, 1.0) is d


def test_relative_entropy_values():
    assert relative_entropy(np.full(7, 1 / 7)) == pytest.approx(0.0, abs=1e-12)
    assert relative_entropy(np.array([1.0, 0, 0, 0])) == pytest.approx(math.log(4.0))
    # extreme point of the nu=2 cap attains ln(m/nu)
    assert relative_entropy(np.array([0.5, 0.5, 0, 0])) == pytest.approx(math.log(2.0))


def test_entropy_bound_on_vertices_and_samples():
    rng = np.random.default_rng(11)
    for m in range(2, 9):
        for nu in range(1, m + 1):
            bound = math.log(m / nu) + 1e-9
            for d in capped_simplex_vertices(m, nu):
                assert relative_entropy(d) <= bound
            # random interior points of the capped simplex
            for _ in range(50):
                raw = rng.exponential(1.0, m)
                d = raw / raw.sum()
                lam = 1.0
                if d.max() > 1.0 / nu:
                    # shrink toward uniform until the cap holds
                    lam = (1.0 / nu - 1.0 / m) / (d.max() - 1.0 / m)
                d = 1.0 / m + lam * (d - 1.0 / m)
                check_distribution(d, nu)
                assert relative_entropy(d) <= bound


def test_bilinearity_of_margins_and_edges():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        t = int(rng.integers(1, 6))
        A = GainMatrix([rng.uniform(-1, 1, m) for _ in range(t)], list(range(t)))
        raw = rng.exponential(1.0, m)
        d = raw / raw.sum()
        support = rng.choice(t, size=min(t, 3), replace=False)
        coeffs = rng.exponential(1.0, len(support))
        coeffs /= coeffs.sum()
        w = np.zeros(t)
        w[support] = coeffs
        lhs = float((d @ A.as_array()) @ w)
        rhs = float(d @ margins(A, w))
        assert lhs == pytest.approx(rhs, abs=1e-12)
