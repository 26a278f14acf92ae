"""Command-line surface: train, predict, oracle and bench sweeps.

Artifacts are machine-readable: model JSON, per-round JSON-lines logs
and a CSV summary for sweeps.  All writes are atomic (temp file then
rename).  Each subcommand accepts only the flags it reads.  Exit
codes: 0 ok, 2 not converged, 3 budget exceeded, 4 a CSV narrower than
the model it is predicted with (a LIBSVM file is padded with the zero
features it leaves out), 143 a bench stopped by SIGTERM, 1 anything else
(usage error, bad input or model file, LP failure).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import signal
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .boosting import (
    BoosterConfig,
    IterationRecord,
    TrainedModel,
    predict,
    run_scheme,
)
from .constants import EPS_FLOOR
from .core import Dataset
from .lp import LpError, solve_edge_min  # solve_edge_min: perfbench reads cli.solve_edge_min
from .stumps import StumpHypothesis, StumpLearner

DEFAULT_ORACLE_BUDGET = 2_000_000
DENSE_ENTRY_BUDGET = 100_000_000  # rows x width of a LIBSVM file's dense matrix

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_BUDGET = 3
EXIT_WIDTH_MISMATCH = 4

# algo name -> (runner, fw rule, secondary rule); perfbench/run.py reads the runner column
ALGORITHMS = {
    "lpboost": (run_scheme, None, "lpboost"),
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
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}")
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


def _load_table(path: str, format: str, min_width: int = 1):
    """The file's features and labels; a LIBSVM matrix is at least
    ``min_width`` wide, since LIBSVM writes a zero by leaving it out."""
    if format == "csv":
        features, labels = _load_csv(path)
    elif format == "libsvm":
        features, labels = _load_libsvm(path, min_width)
    else:
        raise DataFormatError(f"unknown format {format!r}")
    if not np.isfinite(features).all():
        raise DataFormatError(f"{path}: features contain non-finite values")
    return features, labels


_BYTE_LINE_END = re.compile(rb"\r\n|\r|\n")


def _read_lines(path: str) -> list[str]:
    """The file's UTF-8 lines with their ends, split where csv's reader
    splits them: at \r\n, \r and \n only (str.splitlines() also breaks
    at \x0c, \x1c-\x1e and more, inside what csv reads as one field).
    An undecodable byte is a DataFormatError at its line."""
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:  # exc.object is the whole file
            line = 1 + len(_BYTE_LINE_END.findall(exc.object, 0, exc.start))
            raise DataFormatError(f"{path}:{line}: {exc}") from None
    return io.StringIO(text, newline="").readlines()


def _load_csv(path: str):
    """The header by csv's reader; the rows by numpy's C parser where every
    field is a plain number, and by the strict reader otherwise."""
    lines = _read_lines(path)
    reader = csv.reader(lines)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        labeled = bool(header) and header[-1].strip() == "label"
        width = len(header) - (1 if labeled else 0)
        if width < 1:
            raise DataFormatError(f"{path}: no feature columns")
        table = _plain_table(lines[reader.line_num :], len(header))
        if table is None:
            table = _strict_table(reader, len(header), path)
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not labeled:
        return table, None
    return table[:, :-1], _map_labels(table[:, -1].tolist(), path)


def _plain_table(lines: list[str], width: int):
    """The data lines as read by numpy's C parser, or None where only the
    strict reader may decide: any exception, a skipped blank line, another
    width, or a line longer than csv's field limit.  The parser accepts a
    subset of float()'s syntax and rounds as float() does."""
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-blank lines: "input contained no data"
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except Exception:
        return None
    return table if table.shape == (len(lines), width) else None


def _strict_table(reader, width: int, path: str) -> np.ndarray:
    """The rows after the header, each field read by float(); the arbiter of
    what a CSV may hold and of every message about it, which names the
    physical line where the row ends (``reader.line_num``)."""
    rows = []
    for row in reader:
        if len(row) != width:
            raise DataFormatError(f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise DataFormatError(f"{path}:{reader.line_num}: non-numeric value") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _load_libsvm(path: str, min_width: int = 1):
    rows, labels = [], []
    width = 0
    for lineno, line in enumerate(_read_lines(path), start=1):
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
            if idx in entries:
                raise DataFormatError(f"{path}:{lineno}: index {idx} repeated")
            entries[idx] = val
        labels.append(label)
        rows.append(entries)
        if entries:
            width = max(width, max(entries))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    width = max(width, min_width)
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
    # NaN last: NaNs hash by identity, so their set order varies from run to run
    bad = sorted(values - {-1.0, 0.0, 1.0}, key=lambda v: (math.isnan(v), v)) or sorted(values)
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
    config = build_config(manifest, data.m)
    learner = StumpLearner(data)
    return run_scheme(data, learner, config)


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


# the IterationRecord fields the log writes under other names
_LOG_KEYS = {"min_edge_so_far": "min_edge", "chosen_rule": "rule", "step_size": "lambda"}


def record_payload(rec: IterationRecord) -> dict:
    """The record's fields in order, each under its log key."""
    return {_LOG_KEYS.get(f.name, f.name): getattr(rec, f.name) for f in dataclasses.fields(rec)}


def _atomic_write(path: str, text: str):
    """Writes ``text`` to a temp file beside ``path`` and renames it over
    ``path``; on any failure the temp file is removed and the error raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the open may have failed before creating it
            os.remove(tmp)
        raise


def cmd_train(manifest: RunManifest) -> int:
    data = load_dataset(manifest.data, manifest.format)
    model, records = _run_manifest(manifest, data)
    if manifest.model_out:
        _atomic_write(manifest.model_out, json.dumps(model_payload(model)) + "\n")
    if manifest.log_out:
        lines = [json.dumps(record_payload(r)) for r in records]
        _atomic_write(manifest.log_out, "\n".join(lines) + "\n")
    return EXIT_OK if model.converged else EXIT_NOT_CONVERGED


def cmd_oracle(manifest: RunManifest) -> int:
    """Exact soft-margin optimum over the whole stump pool, by LPBoost's
    column generation: ``run_scheme`` with the "lpboost" algo's config
    (no FW rule), at eps ``EPS_FLOOR``, adds the stump of largest edge
    until none beats the restricted LP's value or the LP already holds
    it, so it ends at the full-pool optimum without forming the full
    gain matrix.  Each round that goes on adds a column the LP does not
    hold, so the pool size bounds the rounds.  A pool whose full gain
    matrix would hold more than DEFAULT_ORACLE_BUDGET entries is
    refused."""
    data = load_dataset(manifest.data, manifest.format)
    learner = StumpLearner(data)
    pool = learner.pool
    if len(pool) * data.m > DEFAULT_ORACLE_BUDGET:
        raise BudgetExceededError(
            f"pool of {len(pool)} stumps x {data.m} rows exceeds {DEFAULT_ORACLE_BUDGET} entries"
        )
    lpboost = dataclasses.replace(manifest, algo="lpboost", eps=EPS_FLOOR, max_iters=len(pool))
    model, _ = run_scheme(data, learner, build_config(lpboost, data.m))
    print(json.dumps({"rho_star": model.soft_margin_obj, "support_size": len(model.weights)}))
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
    # bounds every partial sum of the vote, so predict's score cannot overflow
    if not math.isfinite(sum(abs(v) for v in weights)):
        raise DataFormatError(f"{path}: weights must be finite, and so must their absolute sum")
    return _DiskModel(hypotheses=hypotheses, weights=weights)


@dataclass(frozen=True)
class _DiskModel:
    hypotheses: list[StumpHypothesis]
    weights: list[float]


def cmd_predict(model_path: str, data_path: str, format: str = "csv") -> int:
    model = load_model(model_path)
    needed = max(h.feature for h in model.hypotheses) + 1
    features, labels = _load_table(data_path, format, needed)  # labels already mapped
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


def _bench_cell(manifest: RunManifest, data: Dataset, conn):
    """One sweep cell in a forked worker, which inherits the parent's checked
    ``data``; sends the last four fields of the cell's row."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's handler: terminate() ends it
    try:
        tic = time.perf_counter()
        model, records = _run_manifest(manifest, data)
        seconds = time.perf_counter() - tic
        converged = "true" if model.converged else "false"
        fields = [len(records), f"{seconds:.6f}", repr(model.soft_margin_obj), converged]
    except Exception as exc:  # reported as a failed row, sweep continues
        fields = [0, "", "", f"error: {exc!r}"]
    conn.send(fields)


def _run_cell(cell: RunManifest, data: Dataset) -> list:
    """The last four fields of ``cell``'s row, from a forked worker that is
    stopped once ``cell.timeout_secs`` runs out or the parent exits."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_cell, args=(cell, data, child))
    proc.start()
    child.close()
    try:
        if not parent.poll(cell.timeout_secs):  # poll(None) waits for ever
            return [0, cell.timeout_secs, "", "timed_out"]
        try:
            return parent.recv()
        except EOFError:  # poll saw end of file: the worker died before it sent its row
            proc.join()
            return [0, "", "", f"error: worker died with code {proc.exitcode}"]
    finally:  # a worker still running has timed out, or the parent is exiting
        proc.terminate()
        proc.join()


def cmd_bench(manifest: RunManifest, algos: list[str], nu_fracs: list[float]) -> int:
    """Runs the cells one after another, in cell order: cells that run
    together slow each other down, and each row times its own cell.
    SIGTERM exits 143 with no rows, once it has stopped the worker."""
    cells = [
        dataclasses.replace(manifest, algo=algo, nu_frac=frac)  # checks each cell
        for algo in algos
        for frac in nu_fracs
    ]
    data = load_dataset(manifest.data, manifest.format)
    for cell in cells:  # a usage error exits before any cell runs
        build_config(cell, data.m)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["algo", "nu_frac", "seed", "iterations", "seconds", "final_soft_margin", "converged"])
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for cell in cells:
            writer.writerow([cell.algo, cell.nu_frac, cell.seed, *_run_cell(cell, data)])
    finally:
        signal.signal(signal.SIGTERM, previous)
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
