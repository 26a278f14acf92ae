import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginforge import cli
from marginforge.boosting import BoosterConfig, predict, run_scheme
from marginforge.cli import (
    DENSE_ENTRY_BUDGET,
    BudgetExceededError,
    DataFormatError,
    RunManifest,
    cmd_oracle,
    cmd_predict,
    cmd_train,
    load_dataset,
    load_model,
    main,
)
from marginforge.constants import STRONG_DUALITY_TOL
from marginforge.core import Dataset
from marginforge.lp import LpError, solve_edge_min
from marginforge.stumps import StumpLearner, StumpPool, full_gain_matrix

from conftest import ringnorm, two_gaussians, write_csv

LOG_KEYS = [
    "t", "edge_new", "min_edge", "smoothed_obj", "soft_margin_obj",
    "eps_t", "rule", "lambda", "good_step", "wall_time_ns",
]


def separable_csv(tmp_path, name="sep.csv"):
    path = tmp_path / name
    path.write_text(
        "f0,label\n0.0,-1\n1.0,-1\n2.0,1\n3.0,1\n", encoding="utf-8"
    )
    return str(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("a,label\n1.5,-1\n2.5,1\n", encoding="utf-8")
    data = load_dataset(str(path), "csv")
    assert data.features.tolist() == [[1.5], [2.5]]
    assert data.labels.tolist() == [-1.0, 1.0]


def test_csv_zero_one_labels_are_mapped(tmp_path):
    path = tmp_path / "zo.csv"
    path.write_text("a,label\n1.0,0\n2.0,1\n", encoding="utf-8")
    data = load_dataset(str(path), "csv")
    assert data.labels.tolist() == [-1.0, 1.0]


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1.0,-1\nnope,1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":3:"):
        load_dataset(str(path), "csv")

    path2 = tmp_path / "badlabel.csv"
    path2.write_text("a,label\n1.0,2\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="label"):
        load_dataset(str(path2), "csv")

    path3 = tmp_path / "short.csv"
    path3.write_text("a,b,label\n1.0,-1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2:"):
        load_dataset(str(path3), "csv")

    # a quoted header field spans lines 1 and 2, so the short row is on line 4
    path4 = tmp_path / "multiline.csv"
    path4.write_text('"f\n0",label\n1.5,1\n2.5\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":4: expected 2 fields, got 1$"):
        load_dataset(str(path4), "csv")


def test_libsvm_matches_csv_equivalent(tmp_path):
    csv_path = tmp_path / "pair.csv"
    csv_path.write_text("a,b,label\n0.5,0.0,1\n-0.25,2.0,-1\n", encoding="utf-8")
    svm_path = tmp_path / "pair.svm"
    svm_path.write_text("+1 1:0.5\n-1 1:-0.25 2:2.0\n", encoding="utf-8")
    a = load_dataset(str(csv_path), "csv")
    b = load_dataset(str(svm_path), "libsvm")
    assert np.allclose(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_libsvm_malformed_pairs(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:0.5\n-1 nonsense\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2:"):
        load_dataset(str(path), "libsvm")


def test_train_writes_model_and_log(tmp_path):
    data_path = separable_csv(tmp_path)
    manifest = RunManifest(
        data=data_path, algo="mlpb-ss", nu_frac=0.5, eps=0.05,
        model_out=str(tmp_path / "model.json"), log_out=str(tmp_path / "log.jsonl"),
    )
    assert cmd_train(manifest) == 0

    payload = json.loads((tmp_path / "model.json").read_text())
    assert set(payload) == {"hypotheses", "weights", "objectives", "converged"}
    assert payload["converged"] is True
    assert set(payload["objectives"]) == {"soft_margin", "smoothed"}
    assert sum(payload["weights"]) == pytest.approx(1.0)

    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    # line count equals the round count of the equivalent API run
    data = load_dataset(data_path, "csv")
    cfg = BoosterConfig(eps=0.05, nu=2.0, fw_rule="short_step", secondary="lpboost")
    _, records = run_scheme(data, StumpLearner(data), cfg)
    assert len(lines) == len(records)
    for line in lines:
        rec = json.loads(line)
        assert list(rec) == LOG_KEYS


@pytest.mark.parametrize("command, flag", [("train", "--model-out"), ("bench", "--log-out")])
def test_a_failed_output_write_exits_one_and_leaves_no_temp_file(tmp_path, capsys, command, flag):
    # the output path is an existing directory, so renaming the written
    # temp file over it fails
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    data_path = separable_csv(tmp_path)
    assert main([command, "--data", data_path, "--algo", "lpboost", "--eps", "0.05", flag, str(out_dir)]) == 1
    assert str(out_dir) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "sep.csv"]
    assert list(out_dir.iterdir()) == []


def test_train_non_convergence_exit_code(tmp_path):
    data = two_gaussians(40, seed=11)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    manifest = RunManifest(
        data=str(data_path), algo="cerlpboost", nu_frac=0.2, eps=0.001, max_iters=2,
        model_out=str(tmp_path / "m.json"), log_out=str(tmp_path / "l.jsonl"),
    )
    assert cmd_train(manifest) == 2
    assert json.loads((tmp_path / "m.json").read_text())["converged"] is False
    assert len((tmp_path / "l.jsonl").read_text().splitlines()) == 2


def test_rerun_is_byte_identical_minus_wall_time(tmp_path):
    data = two_gaussians(40, seed=21)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    outputs = []
    for tag in ("a", "b"):
        manifest = RunManifest(
            data=str(data_path), algo="mlpb-pfw", nu_frac=0.2, eps=0.05, seed=7,
            model_out=str(tmp_path / f"model_{tag}.json"),
            log_out=str(tmp_path / f"log_{tag}.jsonl"),
        )
        assert cmd_train(manifest) == 0
        model_bytes = (tmp_path / f"model_{tag}.json").read_bytes()
        log_lines = (tmp_path / f"log_{tag}.jsonl").read_text().splitlines()
        stripped = []
        for line in log_lines:
            rec = json.loads(line)
            rec.pop("wall_time_ns")
            stripped.append(json.dumps(rec))
        outputs.append((model_bytes, stripped))
    assert outputs[0] == outputs[1]


def test_oracle_separable_and_budget(tmp_path, capsys, monkeypatch):
    data_path = separable_csv(tmp_path)
    manifest = RunManifest(data=data_path, nu_frac=1.0)
    assert cmd_oracle(manifest) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho_star"] >= 1.0 - 1e-8
    assert out["support_size"] >= 1

    monkeypatch.setattr("marginforge.cli.DEFAULT_ORACLE_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        cmd_oracle(manifest)


def test_oracle_matches_train_objective(tmp_path, capsys):
    data = two_gaussians(50, seed=13)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    manifest = RunManifest(
        data=str(data_path), algo="lpboost", nu_frac=0.2, eps=0.02,
        model_out=str(tmp_path / "m.json"),
    )
    assert cmd_train(manifest) == 0
    assert cmd_oracle(manifest) == 0
    rho_star = json.loads(capsys.readouterr().out)["rho_star"]
    trained = json.loads((tmp_path / "m.json").read_text())
    assert trained["objectives"]["soft_margin"] >= rho_star - 0.02
    assert trained["objectives"]["soft_margin"] <= rho_star + 1e-9


def test_oracle_full_cap_equals_best_mean_margin(tmp_path, capsys):
    data = two_gaussians(30, seed=2)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    assert cmd_oracle(RunManifest(data=str(data_path), nu_frac=1.0)) == 0
    rho = json.loads(capsys.readouterr().out)["rho_star"]
    A = full_gain_matrix(data, StumpPool.build(data))
    best_mean = max(float(c.mean()) for c in A.as_array().T)
    assert rho == pytest.approx(best_mean, abs=1e-9)


def test_oracle_exit_code_through_main(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("marginforge.cli.DEFAULT_ORACLE_BUDGET", 3)
    code = main(["oracle", "--data", separable_csv(tmp_path)])
    assert code == 3


@st.composite
def oracle_datasets(draw):
    """Small two-Gaussian, rounded-tie and ringnorm datasets, and a nu-frac."""
    kind = draw(st.sampled_from(["gaussian", "tied", "ringnorm"]))
    m, p, seed = draw(st.integers(4, 60)), draw(st.integers(1, 5)), draw(st.integers(0, 2**16))
    if kind == "ringnorm":
        data = ringnorm(m, seed=seed, p=p)
    else:
        data = two_gaussians(m, seed=seed, p=p)
        if kind == "tied":
            data = Dataset(np.round(data.features, 1), data.labels)
    return data, draw(st.sampled_from([0.05, 0.1, 0.3, 1.0]))


@settings(max_examples=150, deadline=None)
@given(oracle_datasets())
def test_oracle_matches_the_full_pool_lp(drawn):
    data, nu_frac = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_csv(path, data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cmd_oracle(RunManifest(data=path, nu_frac=nu_frac)) == 0
    nu = RunManifest(data=path, nu_frac=nu_frac).nu(data.m)
    full = solve_edge_min(full_gain_matrix(data, StumpPool.build(data)), nu)
    assert abs(json.loads(out.getvalue())["rho_star"] - full.rho) <= STRONG_DUALITY_TOL


def test_oracle_builds_no_full_gain_matrix(tmp_path, capsys, monkeypatch):
    def no_full_matrix(*args):
        raise AssertionError("the full gain matrix was built")

    monkeypatch.setattr("marginforge.stumps.full_gain_matrix", no_full_matrix)
    monkeypatch.setattr("marginforge.cli.full_gain_matrix", no_full_matrix, raising=False)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, two_gaussians(100, seed=4, p=3))
    assert cmd_oracle(RunManifest(data=str(data_path))) == 0
    assert "rho_star" in capsys.readouterr().out


def test_predict_round_trip_and_error_rate(tmp_path, capsys):
    data = two_gaussians(50, seed=3)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    model_path = tmp_path / "model.json"
    manifest = RunManifest(
        data=str(data_path), algo="lpboost", nu_frac=0.2, eps=0.02,
        model_out=str(model_path),
    )
    assert cmd_train(manifest) == 0

    assert cmd_predict(str(model_path), str(data_path), "csv") == 0
    out_lines = capsys.readouterr().out.splitlines()
    labels = [int(v) for v in out_lines[:-1]]
    stats = json.loads(out_lines[-1])
    assert len(labels) == 50
    manual_err = float(np.mean(np.array(labels, dtype=float) != data.labels))
    assert stats["error_rate"] == pytest.approx(manual_err)
    assert stats["error_rate"] <= 0.2

    # flipping every label flips the error rate
    flipped = tmp_path / "flipped.csv"
    write_csv(flipped, type(data)(data.features, -data.labels))
    assert cmd_predict(str(model_path), str(flipped), "csv") == 0
    flipped_stats = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert flipped_stats["error_rate"] == pytest.approx(1.0 - stats["error_rate"])


def test_predict_empty_rows_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,label\n", encoding="utf-8")
    code = main(["predict", "--model", "missing.json", "--data", str(path)])
    assert code == 1


def test_predict_width_mismatch_exit(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "hypotheses": [{"feature": 1, "threshold": 0.0, "polarity": 1}],
        "weights": [1.0],
        "objectives": {"soft_margin": 1.0, "smoothed": 1.0},
        "converged": True,
    }), encoding="utf-8")
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("f0,label\n0.1,1\n", encoding="utf-8")
    assert cmd_predict(str(model_path), str(narrow), "csv") == 4


def test_predict_reads_features_a_libsvm_file_leaves_out_as_zero(tmp_path, capsys):
    # the model's one stump reads feature 2, which the sparse file never writes
    model = _write_model(tmp_path, {
        "hypotheses": [{"feature": 1, "threshold": -0.5, "polarity": 1}],
        "weights": [1.0],
    })
    outputs = []
    for name, rows in [("explicit", "+1 1:0.9\n-1 1:-0.8 2:0\n"), ("sparse", "+1 1:0.9\n-1 1:-0.8\n")]:
        path = tmp_path / f"{name}.svm"
        path.write_text(rows, encoding="utf-8")
        assert main(["predict", "--model", model, "--data", str(path), "--format", "libsvm"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == '1\n1\n{"error_rate": 0.5}\n'


def test_predict_refuses_a_model_width_past_the_dense_budget(tmp_path, capsys):
    # the width is checked before the matrix is allocated: no 10^9-wide array is made
    model = _write_model(tmp_path, {
        "hypotheses": [{"feature": 10**9 - 1, "threshold": 0.0, "polarity": 1}],
        "weights": [1.0],
    })
    path = tmp_path / "one.svm"
    path.write_text("+1 1:0.5\n", encoding="utf-8")
    assert main(["predict", "--model", model, "--data", str(path), "--format", "libsvm"]) == 1
    captured = capsys.readouterr()
    assert f"a dense 1 x 1000000000 matrix exceeds {DENSE_ENTRY_BUDGET} entries" in captured.err
    assert captured.out == ""


def _write_model(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


GOOD_STUMP = {"feature": 0, "threshold": 0.5, "polarity": 1}


def _predict_exit(tmp_path, capsys, payload):
    """Exit code and stderr of `predict` on a one-feature dataset."""
    model = _write_model(tmp_path, payload)
    data_path = tmp_path / "one.csv"
    data_path.write_text("f0,label\n0.1,1\n0.9,-1\n", encoding="utf-8")
    code = main(["predict", "--model", model, "--data", str(data_path)])
    return code, capsys.readouterr().err


def test_predict_rejects_model_without_hypotheses(tmp_path, capsys):
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [], "weights": []})
    assert code == 1 and "no hypotheses" in err
    with pytest.raises(DataFormatError):
        load_model(_write_model(tmp_path, {"hypotheses": [], "weights": []}))


def test_predict_rejects_model_missing_keys(tmp_path, capsys):
    code, err = _predict_exit(tmp_path, capsys, {"weights": [1.0]})
    assert code == 1 and "'hypotheses'" in err
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [GOOD_STUMP]})
    assert code == 1 and "'weights'" in err


def test_predict_rejects_negative_feature(tmp_path, capsys):
    stump = dict(GOOD_STUMP, feature=-1)
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [stump], "weights": [1.0]})
    assert code == 1 and "negative feature" in err


def test_predict_rejects_bad_polarity(tmp_path, capsys):
    stump = dict(GOOD_STUMP, polarity=7)
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [stump], "weights": [1.0]})
    assert code == 1 and "polarity 7" in err


def test_predict_rejects_weight_count_mismatch(tmp_path, capsys):
    payload = {"hypotheses": [GOOD_STUMP, GOOD_STUMP], "weights": [1.0]}
    code, err = _predict_exit(tmp_path, capsys, payload)
    assert code == 1 and "1 weights for 2 hypotheses" in err


def test_predict_rejects_non_finite_features(tmp_path, capsys):
    model = _write_model(tmp_path, {"hypotheses": [GOOD_STUMP], "weights": [1.0]})
    for bad in ("nan", "inf", "-inf"):
        data_path = tmp_path / "bad.csv"
        data_path.write_text(f"f0,label\n0.1,1\n{bad},-1\n", encoding="utf-8")
        code = main(["predict", "--model", model, "--data", str(data_path)])
        captured = capsys.readouterr()
        assert code == 1 and "non-finite" in captured.err
        assert captured.out == ""


def test_predict_rejects_non_finite_weight(tmp_path, capsys):
    payload = {"hypotheses": [GOOD_STUMP], "weights": [float("nan")]}
    code, err = _predict_exit(tmp_path, capsys, payload)
    assert code == 1 and "weights must be finite" in err


@pytest.mark.parametrize(
    "bad", [{}, "abc", None, "1.0", True], ids=["dict", "string", "null", "numeric string", "bool"]
)
def test_predict_rejects_non_numeric_weight(tmp_path, capsys, bad):
    payload = {"hypotheses": [GOOD_STUMP, GOOD_STUMP], "weights": [0.5, bad]}
    code, err = _predict_exit(tmp_path, capsys, payload)
    assert code == 1 and "weight 1 is not a number" in err and "model.json" in err
    with pytest.raises(DataFormatError, match="weight 1"):
        load_model(_write_model(tmp_path, payload))


def test_predict_rejects_non_finite_threshold(tmp_path, capsys):
    stump = dict(GOOD_STUMP, threshold=float("nan"))
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [stump], "weights": [1.0]})
    assert code == 1 and "non-finite threshold" in err


def test_predict_rejects_integers_beyond_float_range(tmp_path, capsys):
    huge = 10**400  # a JSON integer literal; float() of it overflows
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [GOOD_STUMP], "weights": [huge]})
    assert code == 1 and "weights must be finite" in err
    stump = dict(GOOD_STUMP, threshold=-huge)
    code, err = _predict_exit(tmp_path, capsys, {"hypotheses": [stump], "weights": [1.0]})
    assert code == 1 and "non-finite threshold" in err


def _overflowing_vote(tmp_path, weight):
    """`predict` on one row with f0 = 1.0 of a model that votes +1 twice and
    -1 three times, every vote with ``weight``."""
    down = dict(GOOD_STUMP, polarity=-1)
    model = _write_model(
        tmp_path, {"hypotheses": [GOOD_STUMP] * 2 + [down] * 3, "weights": [weight] * 5}
    )
    data_path = tmp_path / "row.csv"
    data_path.write_text("f0\n1.0\n", encoding="utf-8")
    return main(["predict", "--model", model, "--data", str(data_path)])


def test_predict_rejects_weights_whose_sum_leaves_float_range(tmp_path, capsys):
    # each weight is finite, but the score 2e308 - 3e308 overflows and voted +1
    assert _overflowing_vote(tmp_path, 1e308) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "absolute sum" in err and "model.json" in err
    # a sum inside float range still gets the true vote
    assert _overflowing_vote(tmp_path, 1e307) == 0
    assert capsys.readouterr().out.split() == ["-1"]


@pytest.mark.parametrize("bad", ["0.5", True], ids=["numeric string", "bool"])
def test_predict_rejects_non_numeric_threshold(tmp_path, capsys, bad):
    payload = {"hypotheses": [GOOD_STUMP, dict(GOOD_STUMP, threshold=bad)], "weights": [0.5, 0.5]}
    code, err = _predict_exit(tmp_path, capsys, payload)
    assert code == 1 and "hypothesis 1 threshold is not a number" in err and "model.json" in err


@pytest.mark.parametrize("bad", [1.7, 0.0, "0", False], ids=["fraction", "float", "string", "bool"])
def test_predict_rejects_non_integer_feature(tmp_path, capsys, bad):
    # a float feature index used to be truncated by int(), 1.7 -> 1
    payload = {"hypotheses": [GOOD_STUMP, dict(GOOD_STUMP, feature=bad)], "weights": [0.5, 0.5]}
    code, err = _predict_exit(tmp_path, capsys, payload)
    assert code == 1 and "hypothesis 1 feature is not an integer" in err and "model.json" in err


@pytest.mark.parametrize("bad", [1.0, "1", True], ids=["float", "string", "bool"])
def test_predict_rejects_non_integer_polarity(tmp_path, capsys, bad):
    payload = {"hypotheses": [GOOD_STUMP, dict(GOOD_STUMP, polarity=bad)], "weights": [0.5, 0.5]}
    code, err = _predict_exit(tmp_path, capsys, payload)
    assert code == 1 and "hypothesis 1 polarity is not an integer" in err and "model.json" in err


def test_predict_rejects_truncated_or_undecodable_model(tmp_path, capsys):
    text = json.dumps({"hypotheses": [GOOD_STUMP], "weights": [1.0]})
    data_path = tmp_path / "one.csv"
    data_path.write_text("f0,label\n0.1,1\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    for raw in (text[: len(text) // 2].encode(), b"\xff\xfe{}"):
        model_path.write_bytes(raw)
        code = main(["predict", "--model", str(model_path), "--data", str(data_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "model.json: not a valid model JSON file" in captured.err
        with pytest.raises(DataFormatError, match="model.json"):
            load_model(str(model_path))


def test_lp_error_exits_one_with_message(tmp_path, capsys, monkeypatch):
    calls = []

    def failing_solve(A, nu, start=None):
        calls.append(A.t)
        raise LpError("strong duality violated")

    data_path = tmp_path / "g.csv"
    write_csv(data_path, two_gaussians(30, seed=2))
    monkeypatch.setattr("marginforge.boosting.solve_edge_min", failing_solve)
    # lpboost's LP is its primary solver; a failing secondary LP in mlpb-* fails soft
    code = main(["train", "--data", str(data_path), "--algo", "lpboost", "--eps", "0.1"])
    assert code == 1
    assert "strong duality violated" in capsys.readouterr().err
    calls.clear()
    # oracle's column generation runs the same LP booster, so the same solve fails it
    assert main(["oracle", "--data", str(data_path)]) == 1
    assert calls == [1]
    assert "strong duality violated" in capsys.readouterr().err


def test_model_disk_round_trip_matches_memory(tmp_path):
    data = two_gaussians(60, seed=8)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    model_path = tmp_path / "model.json"
    manifest = RunManifest(data=str(data_path), algo="mlpb-ss", nu_frac=0.2, eps=0.05,
                           model_out=str(model_path))
    assert cmd_train(manifest) == 0

    cfg = BoosterConfig(eps=0.05, nu=12.0, fw_rule="short_step", secondary="lpboost")
    in_memory, _ = run_scheme(data, StumpLearner(data), cfg)
    disk = load_model(str(model_path))
    rng = np.random.default_rng(0)
    probe = rng.uniform(-4, 4, (1000, 2))
    assert np.array_equal(predict(disk, probe), predict(in_memory, probe))


def test_bench_grid_rows_and_header(tmp_path):
    data = two_gaussians(40, seed=9)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    out_path = tmp_path / "bench.csv"
    code = main([
        "bench", "--data", str(data_path), "--algo", "lpboost,mlpb-pfw",
        "--nu-frac", "0.2,0.5", "--eps", "0.05", "--log-out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "algo,nu_frac,seed,iterations,seconds,final_soft_margin,converged"
    assert len(lines) == 5
    # rows come in cell order: algo-major, then --nu-frac
    cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert cells == [
        ("lpboost", "0.2"), ("lpboost", "0.5"), ("mlpb-pfw", "0.2"), ("mlpb-pfw", "0.5"),
    ]
    # every converged cell sits within eps of its capping level's optimum
    oracles = {}
    for frac in (0.2, 0.5):
        A = full_gain_matrix(data, StumpPool.build(data))
        oracles[frac] = solve_edge_min(A, frac * data.m).rho
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "true"
        assert float(fields[-2]) >= oracles[float(fields[1])] - 0.05


def test_bench_timeout_marks_row(tmp_path):
    data = two_gaussians(100, seed=10)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    out_path = tmp_path / "bench.csv"
    code = main([
        "bench", "--data", str(data_path), "--algo", "cerlpboost,lpboost",
        "--nu-frac", "0.05", "--eps", "0.002", "--timeout-secs", "0.2",
        "--log-out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("cerlpboost,") and lines[1].endswith(",timed_out")
    # the sweep goes on after it stops a worker
    assert lines[2].startswith("lpboost,") and lines[2].endswith(",true")


def test_bench_writes_the_row_of_a_worker_that_dies(tmp_path, capsys, monkeypatch):
    # the forked worker inherits the patch and exits without sending its row
    monkeypatch.setattr(cli, "_run_manifest", lambda manifest, data: os._exit(9))
    out_path = tmp_path / "bench.csv"
    code = main([
        "bench", "--data", separable_csv(tmp_path), "--algo", "lpboost",
        "--log-out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",error: worker died with code 9")
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


# bench with every fit replaced by one that writes the worker's pid to
# argv[1] and sleeps; the forked worker inherits the patch
_SLEEPING_BENCH = """
import os, sys, time
from marginforge import cli

def announce_and_sleep(manifest, data):
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(60)

cli._run_manifest = announce_and_sleep
sys.exit(cli.main(sys.argv[2:]))
"""


def test_bench_stopped_by_sigterm_stops_its_worker(tmp_path):
    pid_path = tmp_path / "worker.pid"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["bench", "--data", separable_csv(tmp_path), "--algo", "lpboost", "--log-out", str(tmp_path / "b.csv")]
    bench = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_BENCH, str(pid_path), *argv],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    worker = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_path.exists() and pid_path.read_text()):
            assert bench.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        worker = int(pid_path.read_text())
        bench.send_signal(signal.SIGTERM)
        _, err = bench.communicate(timeout=30)
        assert bench.returncode == 128 + signal.SIGTERM
        assert "Traceback" not in err
        assert not (tmp_path / "b.csv").exists()
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)  # the parent joined it: no process has its pid
    finally:
        bench.kill()
        bench.wait()
        if worker is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker, signal.SIGKILL)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "1e-15", "eps=1e-15 is too small: below EPS_FLOOR=1e-12"),
        ("--eps", "-1", "eps must be a positive finite number"),
        ("--max-iters", "0", "max_iterations must be at least 1"),
    ],
)
def test_bench_usage_errors_exit_one_before_any_cell_runs(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "_bench_cell", no_cell)
    out_path = tmp_path / "bench.csv"
    code = main([
        "bench", "--data", separable_csv(tmp_path), "--algo", "lpboost,mlpb-ss",
        flag, value, "--log-out", str(out_path),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_missing_required_flag_exits_one(capsys):
    # argparse's own exit code, 2, would read as "did not converge"
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == 1
    assert "the following arguments are required: --data" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("oracle", "--eps", "0.1"),
        ("oracle", "--algo", "lpboost"),
        ("oracle", "--max-iters", "5"),
        ("oracle", "--seed", "1"),
        ("oracle", "--model-out", "model.json"),
        ("oracle", "--log-out", "log.jsonl"),
        ("oracle", "--timeout-secs", "1"),
        ("train", "--seed", "1"),
        ("train", "--timeout-secs", "0.000001"),
        ("bench", "--model-out", "model.json"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", separable_csv(tmp_path), flag, value])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["bench", "--help"],
                                  ["oracle", "--help"], ["predict", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: marginforge" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--algo", ","), ("--nu-frac", "")])
def test_bench_empty_list_exits_one_naming_the_flag(tmp_path, capsys, flag, value):
    code = main(["bench", "--data", separable_csv(tmp_path), flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert f"{flag} lists no" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_non_finite_eps(tmp_path, capsys, value):
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--data", separable_csv(tmp_path), "--eps", value,
        "--model-out", str(model_path),
    ])
    assert code == 1
    assert "eps must be a positive finite number" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "value, overflows",
    [("1e-320", "eta = 2*ln(m/nu)/eps"), ("1e-200", "round bound"), ("1e-160", "round bound")],
)
def test_train_rejects_an_eps_whose_eta_or_round_bound_overflows(tmp_path, capsys, value, overflows):
    # such an eps is below the floor, which is checked before eta or the bound is formed
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--data", separable_csv(tmp_path), "--algo", "erlpboost", "--nu-frac", "0.5",
        "--eps", value, "--model-out", str(model_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"eps={value} is too small: below EPS_FLOOR=1e-12" in err and overflows not in err
    assert not model_path.exists()


@pytest.mark.parametrize("max_iters", [None, "5"], ids=["uncapped", "capped"])
@pytest.mark.parametrize("value", ["1e-13", "1e-15", "1e-160", "1e-200", "1e-320"])
def test_train_rejects_an_eps_below_the_floor_before_building_the_pool(
    tmp_path, capsys, monkeypatch, value, max_iters
):
    model_path = tmp_path / "model.json"

    def no_pool(data):
        raise AssertionError("the stump pool was built")

    monkeypatch.setattr(StumpPool, "build", no_pool)
    argv = [
        "train", "--data", separable_csv(tmp_path), "--algo", "erlpboost",
        "--eps", value, "--model-out", str(model_path),
    ]
    tic = time.perf_counter()
    code = main(argv + (["--max-iters", max_iters] if max_iters else []))
    assert time.perf_counter() - tic < 1.0
    assert code == 1
    assert f"eps={value} is too small: below EPS_FLOOR=1e-12" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("value", ["1e-15", "1e-150"])
def test_train_rejects_an_eps_below_the_float_floor(tmp_path, capsys, value):
    # finite eta and round bound, but no float gap certifies such an eps:
    # without the floor this fit never stopped
    data_path = tmp_path / "gauss.csv"
    write_csv(data_path, two_gaussians(200, seed=0))
    model_path = tmp_path / "model.json"

    def give_up(signum, frame):  # a regression fails here instead of hanging
        raise TimeoutError("train was still running after 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    tic = time.perf_counter()
    try:
        code = main([
            "train", "--data", str(data_path), "--algo", "erlpboost",
            "--eps", value, "--model-out", str(model_path),
        ])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - tic < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert f"eps={value} is too small" in err and "EPS_FLOOR=1e-12" in err
    assert not model_path.exists()


@pytest.mark.parametrize("algo", ["erlpboost", "cerlpboost", "lpboost"])
def test_train_rejects_an_eps_below_the_float_floor_under_a_round_cap(tmp_path, capsys, algo):
    # a --max-iters cap used to skip the floor: erlpboost then ran its
    # corrective solve to the inner cap, and cerlpboost exited 2
    data_path = tmp_path / "gauss.csv"
    write_csv(data_path, two_gaussians(200, seed=0))
    model_path = tmp_path / "model.json"

    def give_up(signum, frame):  # a regression fails here instead of hanging
        raise TimeoutError("train was still running after 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    tic = time.perf_counter()
    try:
        code = main([
            "train", "--data", str(data_path), "--algo", algo,
            "--eps", "1e-15", "--max-iters", "5", "--model-out", str(model_path),
        ])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - tic < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert "eps=1e-15 is too small" in err and "EPS_FLOOR=1e-12" in err
    assert not model_path.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bench_rejects_a_timeout_that_is_not_positive_and_finite(tmp_path, capsys, value):
    out_path = tmp_path / "bench.csv"
    code = main([
        "bench", "--data", separable_csv(tmp_path), "--algo", "lpboost",
        "--timeout-secs", value, "--log-out", str(out_path),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "timeout-secs must be a positive finite number" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_libsvm_width_is_bounded_before_allocating(tmp_path, capsys):
    path = tmp_path / "wide.svm"
    path.write_text("1 10000000000000:1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"wide\.svm: a dense 1 x 10000000000000 matrix"):
        load_dataset(str(path), "libsvm")
    assert main(["train", "--data", str(path), "--format", "libsvm"]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_libsvm_width_budget_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr("marginforge.cli.DENSE_ENTRY_BUDGET", 4)
    path = tmp_path / "two.svm"
    path.write_text("1 2:1\n-1 1:1\n", encoding="utf-8")
    assert load_dataset(str(path), "libsvm").features.shape == (2, 2)
    path.write_text("1 3:1\n-1 1:1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="2 x 3"):
        load_dataset(str(path), "libsvm")


def test_bench_rejects_an_unknown_algo_in_its_list(tmp_path, capsys):
    code = main(["bench", "--data", separable_csv(tmp_path), "--algo", "lpboost,nope"])
    assert code == 1
    captured = capsys.readouterr()
    assert "unknown algo 'nope'" in captured.err
    assert captured.out == ""


MALFORMED_INPUTS = {
    "empty csv": ("csv", "", ": empty file"),
    "header-only csv": ("csv", "f0,f1,label\n", ": no data rows"),
    "label-only csv": ("csv", "label\n1\n-1\n", ": no feature columns"),
    "unlabeled csv": ("csv", "f0,f1\n0.5,1.0\n", ": no label column found"),
    "non-numeric libsvm label": ("libsvm", "+1 1:0.5\nyes 1:0.25\n", ":2: bad label field"),
    "0-based libsvm index": ("libsvm", "+1 0:0.5\n", ":1: indices are 1-based"),
    "repeated libsvm index": ("libsvm", "+1 1:0.25\n+1 1:0.5 1:-3\n", ":2: index 1 repeated"),
    "comment-only libsvm": ("libsvm", "# header\n\n   \n# footer\n", ": no data rows"),
    "nan csv feature": ("csv", "f0,label\n0.5,1\nnan,-1\n", ": features contain non-finite values"),
    "inf libsvm feature": ("libsvm", "+1 1:0.5\n-1 1:inf\n", ": features contain non-finite values"),
}


@pytest.mark.parametrize(
    "format, text, message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys()
)
def test_train_rejects_malformed_input_with_its_message(tmp_path, capsys, format, text, message):
    path = tmp_path / f"bad.{format}"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=message):
        load_dataset(str(path), format)
    assert main(["train", "--data", str(path), "--format", format]) == 1
    err = capsys.readouterr().err
    assert f"{path}{message}" in err
    assert "Traceback" not in err


# valid inputs for the fuzz test: ten rows, two features, both label signs
_FUZZ_ROWS = [
    ((-1.2, 0.3), -1), ((-0.8, -0.5), -1), ((-1.5, 1.1), -1), ((0.2, -0.9), -1), ((-0.1, 0.4), -1),
    ((1.3, 0.2), 1), ((0.7, 1.4), 1), ((1.9, -0.6), 1), ((-0.3, 0.9), 1), ((0.5, 0.5), 1),
]
_FUZZ_BASE = {
    "csv": "f0,f1,label\n" + "".join(f"{a},{b},{y}\n" for (a, b), y in _FUZZ_ROWS),
    "libsvm": "".join(f"{y} 1:{a} 2:{b}\n" for (a, b), y in _FUZZ_ROWS),
    "model": json.dumps(
        {
            "hypotheses": [
                {"feature": 0, "threshold": 0.05, "polarity": 1},
                {"feature": 1, "threshold": 0.3, "polarity": -1},
            ],
            "weights": [0.75, 0.25],
        }
    ),
}
_FUZZ_SPECIALS = [
    b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"1e400", b"-1e400",
    b"\xff", b"\xc3\x28", b"\xed\xa0\x80",  # invalid UTF-8: a stray byte, a bad tail, a surrogate
]
_FUZZ_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
# inserted bytes exclude digits: a run of them can lengthen a LIBSVM index to
# millions of columns, which the loader densifies within its 1e8-entry budget
_FUZZ_BYTES = [b for b in range(256) if not 0x30 <= b <= 0x39]


@st.composite
def _mutated(draw, base: bytes) -> bytes:
    """``base`` after one to three byte insertions, deletions, special
    tokens inserted anywhere, or special tokens in place of a number."""
    data = base
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "special", "replace"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "insert":
            chunk = bytes(draw(st.lists(st.sampled_from(_FUZZ_BYTES), min_size=1, max_size=4)))
            data = data[:pos] + chunk + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[pos + draw(st.integers(1, 8)) :]
        elif kind == "special":
            data = data[:pos] + draw(st.sampled_from(_FUZZ_SPECIALS)) + data[pos:]
        else:
            numbers = list(_FUZZ_NUMBER.finditer(data))
            if numbers:
                hit = numbers[draw(st.integers(0, len(numbers) - 1))]
                data = data[: hit.start()] + draw(st.sampled_from(_FUZZ_SPECIALS)) + data[hit.end() :]
    return data


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_BASE)).flatmap(
    lambda target: st.tuples(st.just(target), _mutated(_FUZZ_BASE[target].encode()))
))
def test_mutated_inputs_end_with_a_documented_exit_code(case):
    """A mutated CSV, LIBSVM file or model JSON drives `predict`, and a
    mutated dataset also `train --max-iters 50`: every run returns a
    documented exit code, and no exception escapes ``main``."""
    target, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in _FUZZ_BASE.items():
            paths[name] = os.path.join(tmp, f"input.{name}")
            with open(paths[name], "wb") as fh:
                fh.write(payload if name == target else text.encode())
        format = "libsvm" if target == "libsvm" else "csv"
        runs = [["predict", "--model", paths["model"], "--data", paths[format], "--format", format]]
        if target != "model":
            runs.append(["train", "--data", paths[format], "--format", format, "--max-iters", "50"])
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in {0, 1, 2, 4}, (argv[0], code, payload)


def test_bad_label_message_names_a_number_before_nan(tmp_path):
    """NaNs hash by identity, so a message picked by set order could name
    either label from one run to the next."""
    path = tmp_path / "labels.csv"
    path.write_text("f0,label\n0.5,nan\n1.5,2\n2.5,nan\n", encoding="utf-8")
    for _ in range(20):  # each load hashes new NaN objects
        with pytest.raises(DataFormatError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}: labels must be -1/+1 or 0/1; saw 2.0"


OVER_LONG = "0" * 199_999 + "1"  # a number float() reads, in a field past csv's 131,072 limit


@pytest.mark.parametrize(
    "text, line",
    [(f"f0,label\n0.5,1\n{OVER_LONG},-1\n", 3), (f"f0,{OVER_LONG},label\n0.5,1,1\n", 1)],
    ids=["data row", "header"],
)
def test_over_long_csv_field_exits_one_at_its_line(tmp_path, capsys, text, line):
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["train", "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}: field larger than field limit (131072)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "format, raw, line",
    [
        ("csv", b"f0,label\r\n" + b"0.5,1\r\n" * 2000 + b"0.\xff,-1\r\n", 2002),
        ("libsvm", b"+1 1:0.5\r" * 2000 + b"-1 1:0.\xff\r", 2001),
    ],
    ids=["csv", "libsvm"],
)
def test_undecodable_input_exits_one_naming_its_file_and_line(tmp_path, capsys, format, raw, line):
    path = tmp_path / f"bad.{format}"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError, match="invalid start byte"):
        load_dataset(str(path), format)
    assert main(["train", "--data", str(path), "--format", format]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


def test_plain_numeric_csv_is_read_without_the_strict_reader(tmp_path, monkeypatch):
    """A CSV as perfbench writes it (header f0..f9,label, repr floats, integer
    labels, CRLF ends) never reaches the strict reader, and reads bit for bit."""
    data = two_gaussians(200, seed=5, p=10)
    path = tmp_path / "bench.csv"
    write_csv(path, data)

    def refuse(*args):
        raise AssertionError("the strict reader ran on a plain numeric CSV")

    monkeypatch.setattr(cli, "_strict_table", refuse)
    loaded = load_dataset(str(path))
    assert loaded.features.tobytes() == data.features.tobytes()
    assert loaded.labels.tobytes() == data.labels.tobytes()


def _csv_outcome(path: str):
    """_load_csv's arrays as bytes, or its DataFormatError message."""
    try:
        features, labels = cli._load_csv(path)
    except DataFormatError as exc:
        return str(exc)
    return features.shape, features.tobytes(), None if labels is None else labels.tobytes()


def _file_lines(path: str) -> list[str]:
    """The lines csv's reader sees in a file opened with newline=''."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(fh)


def _assert_fast_path_agrees(path: str):
    """The loader's arrays or message equal those of the strict reader alone
    on the file's own lines."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_plain_table", lambda lines, width: None)
        patch.setattr(cli, "_read_lines", _file_lines)
        strict = _csv_outcome(path)
    assert _csv_outcome(path) == strict


# inputs on which numpy's C parser, str.splitlines() or float() part ways
PARSER_SPLITS = {
    "underscore": "f0,label\n1_0,1\n2.5,-1\n",
    "arabic-indic digit": "f0,label\n\u0661,1\n2.5,-1\n",
    "blank line": "f0,label\n1.5,1\n\n2.5,-1\n",
    "blank last line": "f0,label\n1.5,1\n2.5,-1\n\n",
    "form feed in a row": "f0,label\n1.0,1\x0c3.0,-1\n",
    "form feed as space": "f0,label\n1.0\x0c,1\n3.0,-1\x0c\n",
    "file separator": "f0,label\n1.0,1\x1c3.0,-1\n",
    "quoted numbers": 'f0,label\n"1.5","1"\n"2.5",-1\n',
    "quoted line end": 'f0,label\n"1.5\n",1\n2.5,-1\n',
    "quoted header line end": '"f\n0",label\n1.5,1\n2.5,-1\n',
    "crlf": "f0,label\r\n1.5,1\r\n2.5,-1\r\n",
    "lone cr": "f0,label\r1.5,1\r2.5,-1",
    "mixed ends": "f0,label\n1.5,1\r\n2.5,-1\r0.5,1",
    "cr before crlf": "f0,label\r\n1.5,1\r\r\n2.5,-1\r\n",
    "bom": "\ufefff0,label\n1.5,1\n2.5,-1\n",
    "bom before label": "\ufefflabel\n1\n",
    "trailing comma": "f0,label\n1.5,1,\n2.5,-1,\n",
    "trailing comma in header": "f0,label,\n1.5,1,\n",
    "hash": "f0,label\n#1.5,1\n2.5,-1\n",
    "hash after a number": "f0,label\n1.5,1#2\n2.5,-1\n",
    "nul": "f0,label\n1.5\x00,1\n",
    "nan and inf": "f0,f1,label\nnan,-inf,1\n1e400,-nan,0\n",
    "header only": "f0,label\n",
    "empty": "",
    "over-long field": f"f0,label\n{OVER_LONG},1\n",
}


@pytest.mark.parametrize("text", PARSER_SPLITS.values(), ids=PARSER_SPLITS.keys())
def test_fast_csv_path_matches_the_strict_reader(tmp_path, text):
    path = tmp_path / "split.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _assert_fast_path_agrees(str(path))


_CSV_SPECIALS = [
    "1e400", "nan", "-inf", " 2.5 ", "2.5\x0c", "1_0", "\u0661", '"0.75"', '"1\n2"', "", "#1",
    "1.0\x0c3.0", "0x10", "\xa01", "1\x00", OVER_LONG,
]
_CSV_NUMBERS = st.builds(
    lambda x, fmt: fmt % x, st.floats(), st.sampled_from(["%r", "%.17g", "%.6g", "%.3e", "%.0f"])
)
_CSV_LABELS = ["1", "-1", "0", "1.0", "2", "nan", '"1"', "", "1#"]
_CSV_HEADERS = ["f0,f1,label", "\ufefff0,f1,label", '"f0","f1",label', '"f\n0",f1,label', "f0,f1", ""]


@st.composite
def _csv_texts(draw):
    """Two-feature CSV texts: mostly plain numbers, and some of what parts
    the parsers."""
    lines = [draw(st.sampled_from(_CSV_HEADERS[:1] * 5 + _CSV_HEADERS))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "trailing comma"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = [
            draw(_CSV_NUMBERS if draw(st.integers(0, 9)) else st.sampled_from(_CSV_SPECIALS))
            for _ in range(2)
        ]
        label = draw(st.sampled_from(_CSV_LABELS[:2] * 10 + _CSV_LABELS))
        lines.append(",".join(cells + [label]) + ("," if kind != "row" else ""))
    style = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = [
        draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed" else style for _ in lines
    ]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return "" if draw(st.integers(0, 30)) == 0 else text


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_fast_csv_path_matches_the_strict_reader_on_generated_texts(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gen.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _assert_fast_path_agrees(path)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("a,\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), max_size=12))
def test_lines_split_only_where_csv_splits_them(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lines.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert cli._read_lines(path) == _file_lines(path)
