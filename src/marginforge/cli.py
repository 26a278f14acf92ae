"""Command-line surface: train, predict, oracle and bench sweeps.

Artifacts are machine-readable: model JSON, per-round JSON-lines logs
and a CSV summary for sweeps.  All writes are atomic (temp file then
rename).  Each subcommand accepts only the flags it reads.  Exit
codes: 0 ok, 2 not converged, 3 budget exceeded, 4 input width
mismatch, 1 anything else (usage error, bad input or model file, LP
failure).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .boosting import (
    BoosterConfig,
    IterationRecord,
    TrainedModel,
    predict,
    run_lpboost,
    run_scheme,
)
from .core import Dataset
from .lp import LpError, solve_edge_min
from .stumps import StumpHypothesis, StumpLearner, StumpPool, full_gain_matrix

DEFAULT_ORACLE_BUDGET = 2_000_000
DENSE_ENTRY_BUDGET = 100_000_000  # rows x width of a LIBSVM file's dense matrix

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_BUDGET = 3
EXIT_WIDTH_MISMATCH = 4

# algo name -> (runner, fw rule, secondary rule)
ALGORITHMS = {
    "lpboost": (run_lpboost, "short_step", "none"),
    "erlpboost": (run_scheme, "short_step", "erlpboost"),
    "cerlpboost": (run_scheme, "short_step", "none"),
    "mlpb-ss": (run_scheme, "short_step", "lpboost"),
    "mlpb-pfw": (run_scheme, "pairwise", "lpboost"),
    "mlpb-ls": (run_scheme, "line_search", "lpboost"),
    "mlpb-classic": (run_scheme, "classic", "lpboost"),
}


class DataFormatError(Exception):
    pass


class BudgetExceededError(Exception):
    pass


@dataclass(frozen=True)
class RunManifest:
    data: str
    format: str = "csv"
    algo: str = "mlpb-ss"
    nu_frac: float = 0.1
    eps: float = 0.01
    max_iters: int | None = None
    seed: int = 0
    model_out: str | None = None
    log_out: str | None = None
    timeout_secs: float | None = None

    def __post_init__(self):
        if self.format not in ("csv", "libsvm"):
            raise DataFormatError(f"unknown format {self.format!r}")
        if not 0.0 < self.nu_frac <= 1.0:
            raise ValueError("nu-frac must lie in (0, 1]")
        if self.timeout_secs is not None and not 0.0 < self.timeout_secs < math.inf:
            raise ValueError("timeout-secs must be a positive finite number")

    def nu(self, m: int) -> float:
        return min(max(self.nu_frac * m, 1.0), float(m))


def load_dataset(path: str, format: str = "csv") -> Dataset:
    """Read a labeled dataset; labels may be {-1,+1} or {0,1} (0 -> -1)."""
    features, labels = _load_table(path, format)
    if labels is None:
        raise DataFormatError(f"{path}: no label column found")
    return Dataset(features, labels)


def _load_table(path: str, format: str):
    if format == "csv":
        return _load_csv(path)
    if format == "libsvm":
        return _load_libsvm(path)
    raise DataFormatError(f"unknown format {format!r}")


def _load_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        labeled = bool(header) and header[-1].strip() == "label"
        width = len(header) - (1 if labeled else 0)
        if width < 1:
            raise DataFormatError(f"{path}: no feature columns")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric value") from None
            if labeled:
                rows.append(values[:-1])
                labels.append(values[-1])
            else:
                rows.append(values)
        if not rows:
            raise DataFormatError(f"{path}: no data rows")
    features = np.array(rows, dtype=float)
    if not labeled:
        return features, None
    return features, _map_labels(labels, path)


def _load_libsvm(path: str):
    rows, labels = [], []
    width = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad label field") from None
            entries = {}
            for item in parts[1:]:
                try:
                    idx_s, val_s = item.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: bad index:value pair {item!r}") from None
                if idx < 1:
                    raise DataFormatError(f"{path}:{lineno}: indices are 1-based")
                entries[idx] = val
            labels.append(label)
            rows.append(entries)
            if entries:
                width = max(width, max(entries))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    width = max(width, 1)
    if len(rows) * width > DENSE_ENTRY_BUDGET:
        raise DataFormatError(
            f"{path}: a dense {len(rows)} x {width} matrix exceeds {DENSE_ENTRY_BUDGET} entries"
        )
    features = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            features[i, idx - 1] = val
    return features, _map_labels(labels, path)


def _map_labels(raw: list[float], path: str) -> np.ndarray:
    values = set(raw)
    if values <= {-1.0, 1.0}:
        return np.array(raw)
    if values <= {0.0, 1.0}:
        return np.array([1.0 if v == 1.0 else -1.0 for v in raw])
    bad = sorted(values - {-1.0, 0.0, 1.0}) or sorted(values)
    raise DataFormatError(f"{path}: labels must be -1/+1 or 0/1; saw {bad[0]}")


def build_config(manifest: RunManifest, m: int) -> BoosterConfig:
    _, fw_rule, secondary = ALGORITHMS[manifest.algo]
    return BoosterConfig(
        eps=manifest.eps,
        nu=manifest.nu(m),
        fw_rule=fw_rule,
        secondary=secondary,
        max_iterations=manifest.max_iters,
    )


def _run_manifest(manifest: RunManifest, data: Dataset):
    if manifest.algo not in ALGORITHMS:
        raise ValueError(f"unknown algo {manifest.algo!r}")
    runner = ALGORITHMS[manifest.algo][0]
    config = build_config(manifest, data.m)
    learner = StumpLearner(data)
    return runner(data, learner, config)


def model_payload(model: TrainedModel) -> dict:
    return {
        "hypotheses": [
            {"feature": h.feature, "threshold": h.threshold, "polarity": h.polarity}
            for h in model.hypotheses
        ],
        "weights": list(model.weights),
        "objectives": {
            "soft_margin": model.soft_margin_obj,
            "smoothed": model.smoothed_obj,
        },
        "converged": model.converged,
    }


def record_payload(rec: IterationRecord) -> dict:
    return {
        "t": rec.t,
        "edge_new": rec.edge_new,
        "min_edge": rec.min_edge_so_far,
        "smoothed_obj": rec.smoothed_obj,
        "soft_margin_obj": rec.soft_margin_obj,
        "eps_t": rec.eps_t,
        "rule": rec.chosen_rule,
        "lambda": rec.step_size,
        "good_step": rec.good_step,
        "wall_time_ns": rec.wall_time_ns,
    }


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def cmd_train(manifest: RunManifest) -> int:
    data = load_dataset(manifest.data, manifest.format)
    model, records = _run_manifest(manifest, data)
    if manifest.model_out:
        _atomic_write(manifest.model_out, json.dumps(model_payload(model)) + "\n")
    if manifest.log_out:
        lines = [json.dumps(record_payload(r)) for r in records]
        _atomic_write(manifest.log_out, "\n".join(lines) + "\n")
    return EXIT_OK if model.converged else EXIT_NOT_CONVERGED


def cmd_oracle(manifest: RunManifest, budget: int | None = None) -> int:
    """Exact restriction-free soft-margin optimum over the whole pool."""
    if budget is None:
        budget = DEFAULT_ORACLE_BUDGET
    data = load_dataset(manifest.data, manifest.format)
    pool = StumpPool.build(data)
    if len(pool) * data.m > budget:
        raise BudgetExceededError(
            f"pool of {len(pool)} stumps x {data.m} rows exceeds {budget} entries"
        )
    sol = solve_edge_min(full_gain_matrix(data, pool), manifest.nu(data.m))
    print(json.dumps({"rho_star": sol.rho, "support_size": int(np.count_nonzero(sol.w))}))
    return EXIT_OK


def _json_float(value) -> float | None:
    """A JSON number as a float (inf past float range); None for any other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range
        return math.inf


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path: str):
    """Read a model JSON written by ``train``; malformed models raise DataFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{path}: not a valid model JSON file ({exc})") from None
    try:
        raw_hypotheses, raw_weights = payload["hypotheses"], payload["weights"]
    except (KeyError, TypeError):
        raise DataFormatError(f"{path}: model needs 'hypotheses' and 'weights'") from None
    if not isinstance(raw_hypotheses, list) or not isinstance(raw_weights, list):
        raise DataFormatError(f"{path}: 'hypotheses' and 'weights' must be lists")
    if not raw_hypotheses:
        raise DataFormatError(f"{path}: model has no hypotheses")
    if len(raw_weights) != len(raw_hypotheses):
        raise DataFormatError(
            f"{path}: {len(raw_weights)} weights for {len(raw_hypotheses)} hypotheses"
        )
    hypotheses = []
    for k, h in enumerate(raw_hypotheses):
        try:
            feature, threshold, polarity = h["feature"], h["threshold"], h["polarity"]
        except (KeyError, TypeError):
            raise DataFormatError(
                f"{path}: hypothesis {k} needs feature, threshold and polarity"
            ) from None
        if not _is_json_int(feature):
            raise DataFormatError(f"{path}: hypothesis {k} feature is not an integer: {feature!r}")
        if not _is_json_int(polarity):
            raise DataFormatError(f"{path}: hypothesis {k} polarity is not an integer: {polarity!r}")
        value = _json_float(threshold)
        if value is None:
            raise DataFormatError(f"{path}: hypothesis {k} threshold is not a number: {threshold!r}")
        stump = StumpHypothesis(feature, value, polarity)
        if stump.feature < 0:
            raise DataFormatError(f"{path}: hypothesis {k} has negative feature {stump.feature}")
        if stump.polarity not in (-1, 1):
            raise DataFormatError(f"{path}: hypothesis {k} has polarity {stump.polarity}, not -1/+1")
        if not math.isfinite(stump.threshold):
            raise DataFormatError(f"{path}: hypothesis {k} has non-finite threshold")
        hypotheses.append(stump)
    weights = []
    for k, v in enumerate(raw_weights):
        weight = _json_float(v)
        if weight is None:
            raise DataFormatError(f"{path}: weight {k} is not a number: {v!r}")
        weights.append(weight)
    if not all(math.isfinite(v) for v in weights):
        raise DataFormatError(f"{path}: weights must be finite")
    return _DiskModel(hypotheses=hypotheses, weights=weights)


@dataclass(frozen=True)
class _DiskModel:
    hypotheses: list[StumpHypothesis]
    weights: list[float]


def cmd_predict(model_path: str, data_path: str, format: str = "csv") -> int:
    model = load_model(model_path)
    features, labels = _load_table(data_path, format)  # labels already mapped
    if not np.all(np.isfinite(features)):
        raise DataFormatError(f"{data_path}: features contain non-finite values")
    try:
        predictions = predict(model, features)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_WIDTH_MISMATCH
    for value in predictions:
        print(int(value))
    if labels is not None:
        print(json.dumps({"error_rate": float(np.mean(predictions != labels))}))
    return EXIT_OK


def _bench_cell(manifest: RunManifest, features, labels, conn):
    try:
        data = Dataset(features, labels)
        tic = time.perf_counter()
        model, records = _run_manifest(manifest, data)
        conn.send(
            {
                "iterations": len(records),
                "seconds": time.perf_counter() - tic,
                "final_soft_margin": model.soft_margin_obj,
                "converged": model.converged,
            }
        )
    except Exception as exc:  # reported as a failed row, sweep continues
        conn.send({"error": repr(exc)})
    finally:
        conn.close()


def cmd_bench(manifest: RunManifest, algos: list[str], nu_fracs: list[float]) -> int:
    data = load_dataset(manifest.data, manifest.format)
    threads = max(int(os.environ.get("MARGINFORGE_THREADS", "1")), 1)
    cells = [
        dataclasses.replace(manifest, algo=algo, nu_frac=frac)
        for algo in algos
        for frac in nu_fracs
    ]

    ctx = multiprocessing.get_context("fork")
    pending = list(enumerate(cells))
    running = {}  # index -> (process, conn, cell, start time)
    results = {}
    while pending or running:
        while pending and len(running) < threads:
            idx, cell = pending.pop(0)
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_bench_cell, args=(cell, data.features, data.labels, child)
            )
            proc.start()
            child.close()
            running[idx] = (proc, parent, cell, time.perf_counter())
        time.sleep(0.01)
        for idx in list(running):
            proc, parent, cell, started = running[idx]
            if parent.poll():
                results[idx] = parent.recv()
                proc.join()
                del running[idx]
            elif not proc.is_alive():
                results[idx] = {"error": f"worker died with code {proc.exitcode}"}
                del running[idx]
            elif (
                manifest.timeout_secs is not None
                and time.perf_counter() - started > manifest.timeout_secs
            ):
                proc.terminate()
                proc.join()
                results[idx] = {"timed_out": True}
                del running[idx]

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["algo", "nu_frac", "seed", "iterations", "seconds", "final_soft_margin", "converged"])
    for idx, cell in enumerate(cells):
        res = results[idx]
        if res.get("timed_out"):
            writer.writerow([cell.algo, cell.nu_frac, cell.seed, 0, manifest.timeout_secs, "", "timed_out"])
        elif "error" in res:
            writer.writerow([cell.algo, cell.nu_frac, cell.seed, 0, "", "", f"error: {res['error']}"])
        else:
            writer.writerow(
                [
                    cell.algo,
                    cell.nu_frac,
                    cell.seed,
                    res["iterations"],
                    f"{res['seconds']:.6f}",
                    repr(res["final_soft_margin"]),
                    "true" if res["converged"] else "false",
                ]
            )
    if manifest.log_out:
        _atomic_write(manifest.log_out, out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):  # usage errors exit 1; 2 means "not converged"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="marginforge", description="Soft-margin boosting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers inherit its class

    def subcommand(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--format", choices=["csv", "libsvm"], default="csv")
        return p

    train = subcommand("train", "fit a model and write artifacts")
    train.add_argument("--algo", choices=sorted(ALGORITHMS), default="mlpb-ss")
    train.add_argument("--nu-frac", type=float, default=0.1)
    train.add_argument("--eps", type=float, default=0.01)
    train.add_argument("--max-iters", type=int, default=None)
    train.add_argument("--model-out", default=None)
    train.add_argument("--log-out", default=None)

    bench = subcommand("bench", "sweep algorithms x capping grid")
    bench.add_argument("--algo", default="mlpb-ss", help="comma-separated list")
    bench.add_argument("--nu-frac", default="0.1", help="comma-separated list in (0, 1]")
    bench.add_argument("--eps", type=float, default=0.01)
    bench.add_argument("--max-iters", type=int, default=None)
    bench.add_argument("--seed", type=int, default=0, help="label written to each CSV row")
    bench.add_argument("--log-out", default=None)
    bench.add_argument("--timeout-secs", type=float, default=None)

    oracle = subcommand("oracle", "exact soft-margin optimum over the stump pool")
    oracle.add_argument("--nu-frac", type=float, default=0.1)

    subcommand("predict", "apply a saved model").add_argument("--model", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args.model, args.data, args.format)
        if args.command == "bench":
            algos = [a.strip() for a in args.algo.split(",") if a.strip()]
            if not algos:
                raise ValueError("--algo lists no algorithm")
            for algo in algos:
                if algo not in ALGORITHMS:
                    raise ValueError(f"unknown algo {algo!r}")
            fracs = [float(v) for v in args.nu_frac.split(",") if v.strip()]
            if not fracs:
                raise ValueError("--nu-frac lists no value")
            manifest = _manifest_from_args(args, algo=algos[0], nu_frac=fracs[0])
            return cmd_bench(manifest, algos, fracs)
        manifest = _manifest_from_args(args)
        if args.command == "train":
            return cmd_train(manifest)
        return cmd_oracle(manifest)
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except (DataFormatError, LpError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


def _manifest_from_args(args, **overrides) -> RunManifest:
    """The manifest of the flags a subcommand declares; the rest keep their defaults."""
    names = {f.name for f in dataclasses.fields(RunManifest)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return RunManifest(**{**given, **overrides})


if __name__ == "__main__":
    sys.exit(main())
