import json

import numpy as np
import pytest

from marginforge.boosting import BoosterConfig, StumpLearner, predict, run_scheme
from marginforge.cli import (
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
from marginforge.lp import LpError, solve_edge_min
from marginforge.stumps import StumpPool, full_gain_matrix

from conftest import two_gaussians, write_csv

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


def test_oracle_separable_and_budget(tmp_path, capsys):
    data_path = separable_csv(tmp_path)
    manifest = RunManifest(data=data_path, nu_frac=1.0)
    assert cmd_oracle(manifest) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho_star"] >= 1.0 - 1e-8
    assert out["support_size"] >= 1

    with pytest.raises(BudgetExceededError):
        cmd_oracle(manifest, budget=3)


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
    def failing_solve(A, nu):
        raise LpError("strong duality violated")

    data_path = tmp_path / "g.csv"
    write_csv(data_path, two_gaussians(30, seed=2))
    monkeypatch.setattr("marginforge.boosting.solve_edge_min", failing_solve)
    # lpboost's LP is its primary solver; a failing secondary LP in mlpb-* fails soft
    code = main(["train", "--data", str(data_path), "--algo", "lpboost", "--eps", "0.1"])
    assert code == 1
    assert "strong duality violated" in capsys.readouterr().err
    monkeypatch.setattr("marginforge.cli.solve_edge_min", failing_solve)
    assert main(["oracle", "--data", str(data_path)]) == 1
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


def test_bench_grid_rows_and_header(tmp_path, monkeypatch):
    data = two_gaussians(40, seed=9)
    data_path = tmp_path / "g.csv"
    write_csv(data_path, data)
    out_path = tmp_path / "bench.csv"
    monkeypatch.setenv("MARGINFORGE_THREADS", "2")
    code = main([
        "bench", "--data", str(data_path), "--algo", "lpboost,mlpb-pfw",
        "--nu-frac", "0.2,0.5", "--eps", "0.05", "--log-out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "algo,nu_frac,seed,iterations,seconds,final_soft_margin,converged"
    assert len(lines) == 5
    cells = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert cells == {
        ("lpboost", "0.2"), ("lpboost", "0.5"), ("mlpb-pfw", "0.2"), ("mlpb-pfw", "0.5"),
    }
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
        "bench", "--data", str(data_path), "--algo", "cerlpboost",
        "--nu-frac", "0.05", "--eps", "0.002", "--timeout-secs", "0.2",
        "--log-out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("timed_out")


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
