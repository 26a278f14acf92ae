#!/usr/bin/env python3
"""Time-to-certified-fit benchmark for marginforge.

    python3 perfbench/run.py --workload lp-colgen --seed 0 --seconds 25 --trace 0

One client fits one dataset after another in this process (a closed
loop).  The datasets are two Gaussian blobs drawn from ``--seed`` and
written as CSV; the package sees only those files.  ``--seconds`` sets
the batch size from the mean fit time measured when the benchmark was
written, so every commit fits the same datasets and ``fit_s`` compares
work, not a time budget.  Every fit passes a correctness gate (certified
stop, gap bound, and on lp-colgen the full-pool optimum) or counts as
failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` fits the
batch untraced, then again with every layer's public functions rebound
to timing wrappers (see tracer.py), checks that both passes agree
exactly, and prints the per-layer metrics.  The last stdout line is the
result object; the line before it records the environment.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
NU_FRAC = 0.1
SETUP_REPEATS = 3  # set-ups per dataset; setup_s is their median
SEED_STRIDE = 100_000  # dataset i of run seed s has seed s * SEED_STRIDE + i


@dataclass(frozen=True)
class Workload:
    algo: str  # key of marginforge.cli.ALGORITHMS
    m: int
    p: int
    eps: float
    fit_seconds: float  # mean fit time (2-core x86-64, BLAS pinned) that sizes the batch
    oracle_fits: int = 0  # leading datasets that also get the full-pool oracle


WORKLOADS = {
    "lp-colgen": Workload("mlpb-ss", 200, 2, 0.1, 0.4, oracle_fits=1),
    "stump-scan": Workload("cerlpboost", 2000, 10, 0.1, 10.4),
    "fw-corrective": Workload("erlpboost", 200, 10, 0.2, 0.28),
}

END_TO_END_UNITS = {
    "fit_s": "s",
    "setup_s": "s",
    "rounds": "count",
    "gap_bound": "1",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import marginforge from this checkout's src/, never from elsewhere.

    Every BLAS pool is pinned to one thread first, before numpy loads: the
    fits are Python loops around small dense kernels, where extra BLAS
    threads only add run-to-run jitter.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "marginforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no marginforge package under {src}")
    sys.path.insert(0, str(src))
    import marginforge.cli  # noqa: F401  (loads every submodule the tracer rebinds)

    return sys.modules["marginforge"]


def two_gaussians(m: int, seed: int, p: int):
    """Features and +-1 labels, the recipe of tests/conftest.py::two_gaussians."""
    import numpy as np

    rng = np.random.default_rng(seed)
    half = m // 2
    neg = rng.normal(-1.1, 0.9, (half, p))
    pos = rng.normal(1.1, 0.9, (m - half, p))
    labels = np.concatenate([-np.ones(half), np.ones(m - half)])
    return np.vstack([neg, pos]), labels


def write_csv(path: Path, features, labels):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def make_batch(workload: Workload, seed: int, seconds: float, m: int, directory: Path):
    paths = []
    for i in range(math.ceil(seconds / workload.fit_seconds)):
        features, labels = two_gaussians(m, seed * SEED_STRIDE + i, workload.p)
        path = directory / f"ds{i:04d}.csv"
        write_csv(path, features, labels)
        paths.append(path)
    return paths


@dataclass
class FitResult:
    seconds: float
    error: str | None = None  # exception or failed gate
    rounds: int = 0
    soft_margin: float = float("nan")
    gap: float = float("nan")
    secondary_wins: int = 0


class Harness:
    """Set-up, oracle and fit steps of one run, shared by both passes."""

    def __init__(self, mf, workload: Workload):
        self.mf = mf
        self.workload = workload
        self.manifest = mf.cli.RunManifest(
            data="-", algo=workload.algo, nu_frac=NU_FRAC, eps=workload.eps
        )

    def setup(self, path: Path):
        """cli.load_dataset plus StumpLearner construction (pool build)."""
        cli = self.mf.cli
        times = []
        for _ in range(SETUP_REPEATS):
            tic = time.perf_counter()
            data = cli.load_dataset(str(path))
            learner = cli.StumpLearner(data)
            times.append(time.perf_counter() - tic)
        return data, learner, times

    def oracle(self, data, learner):
        """Full-pool solve_edge_min, as `marginforge oracle` runs it: (rho*, seconds)."""
        cli = self.mf.cli
        if len(learner.pool) * data.m > cli.DEFAULT_ORACLE_BUDGET:
            raise ValueError("oracle dataset exceeds the oracle budget")
        A_full = self.mf.stumps.full_gain_matrix(data, learner.pool)
        tic = time.perf_counter()
        sol = cli.solve_edge_min(A_full, self.manifest.nu(data.m))
        return sol.rho, time.perf_counter() - tic

    def fit(self, data, learner, rho_star, runner) -> FitResult:
        eps = self.workload.eps
        config = self.mf.cli.build_config(self.manifest, data.m)
        tic = time.perf_counter()
        try:
            model, records = runner(data, learner, config)
        except Exception as exc:  # a failed fit is counted, the run goes on
            return FitResult(time.perf_counter() - tic, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - tic
        last = records[-1]
        gap = last.min_edge_so_far - model.soft_margin_obj
        result = FitResult(
            seconds,
            rounds=len(records),
            soft_margin=model.soft_margin_obj,
            gap=gap,
            secondary_wins=sum(r.chosen_rule == "secondary" for r in records),
        )
        tol = self.mf.constants.STRONG_DUALITY_TOL
        if not model.converged:
            result.error = "did not converge"
        elif not last.eps_t <= eps / 2.0:
            result.error = f"final eps_t {last.eps_t!r} above eps/2"
        elif not -tol <= gap <= eps:
            result.error = f"gap bound {gap!r} outside [0, eps]"
        elif rho_star is not None and not model.soft_margin_obj >= rho_star - eps:
            result.error = f"soft margin {model.soft_margin_obj!r} below rho* - eps ({rho_star!r})"
        return result


@dataclass
class PassResult:
    setup_times: list[float] = field(default_factory=list)
    pool_sizes: list[int] = field(default_factory=list)
    oracle_times: list[float] = field(default_factory=list)
    fits: list[FitResult] = field(default_factory=list)


def run_pass(harness: Harness, paths, tracer=None) -> PassResult:
    """Set up, run the oracle where due, and fit each dataset in turn.

    Only one dataset's learner is alive at a time, so every set-up and fit
    starts from the same heap size.  The oracle runs in the untraced pass.
    """
    out = PassResult()
    runner = harness.mf.cli.ALGORITHMS[harness.workload.algo][0]
    if tracer is not None:
        runner = tracer.wrap("boosting.loop", runner)
    for i, path in enumerate(paths):
        data, learner, times = harness.setup(path)
        out.setup_times.extend(times)
        out.pool_sizes.append(len(learner.pool))
        rho_star, oracle_error = None, None
        if tracer is None and i < harness.workload.oracle_fits:
            try:
                rho_star, seconds = harness.oracle(data, learner)
                out.oracle_times.append(seconds)
            except Exception as exc:  # charged to the fit it was meant to gate
                oracle_error = f"oracle {type(exc).__name__}: {exc}"
        result = harness.fit(data, learner, rho_star, runner)
        if result.error is None:
            result.error = oracle_error
        if tracer is not None:
            tracer.drain()
        out.fits.append(result)
        print(
            f"fit {i}: {result.seconds:.4f} s, {result.rounds} rounds, gap {result.gap:.5f}"
            + (f", FAILED: {result.error}" if result.error else ""),
            file=sys.stderr,
        )
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(plain: PassResult):
    ok = [f for f in plain.fits if f.error is None]
    values = {
        "fit_s": sum(f.seconds for f in plain.fits),
        "setup_s": statistics.median(plain.setup_times),
        "rounds": sum(f.rounds for f in ok),
        "gap_bound": statistics.fmean(f.gap for f in ok) if ok else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(tracer, plain: PassResult, traced: PassResult):
    fit_s = sum(f.seconds for f in traced.fits)
    stats, counters = tracer.stats, tracer.counters

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_ns * 1e-9 if name in stats else 0.0

    def mean_s(name):
        return stats[name].total_ns * 1e-9 / stats[name].calls if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("stumps.query", "lp.solve", "entropy.projection", "fw.step"):
        out[f"{name}.calls"] = metric(calls(name), "count")
        out[f"{name}.self_s"] = metric(self_s(name), "s")
        out[f"{name}.share"] = metric(ratio(self_s(name), fit_s), "ratio")
    out["stumps.query.new_column_ratio"] = metric(
        ratio(counters["stumps.query.new_columns"], calls("stumps.query")), "ratio"
    )
    out["stumps.pool_build_s"] = metric(mean_s("stumps.pool_build"), "s")
    out["stumps.pool_size"] = metric(statistics.fmean(traced.pool_sizes), "count")
    out["lp.solve.t_mean"] = metric(mean_s("lp.solve"), "s")
    oracle_times = plain.oracle_times
    out["lp.oracle_s"] = metric(statistics.fmean(oracle_times) if oracle_times else 0.0, "s")
    out["entropy.objective.calls"] = metric(calls("entropy.objective"), "count")
    out["entropy.objective.self_s"] = metric(self_s("entropy.objective"), "s")
    out["fw.step.projections_per_call"] = metric(
        ratio(counters["fw.step.projections"], calls("fw.step")), "count"
    )
    out["fw.good_step_ratio"] = metric(ratio(counters["fw.good_steps"], calls("fw.step")), "ratio")
    out["boosting.secondary.calls"] = metric(calls("boosting.secondary"), "count")
    out["boosting.secondary.self_s"] = metric(self_s("boosting.secondary"), "s")
    out["boosting.secondary.win_ratio"] = metric(
        ratio(sum(f.secondary_wins for f in traced.fits), calls("boosting.secondary")), "ratio"
    )
    out["boosting.loop.self_s"] = metric(self_s("boosting.loop"), "s")
    out["core.margins.calls"] = metric(calls("core.margins"), "count")
    out["core.margins.self_s"] = metric(self_s("core.margins"), "s")
    out["core.gain_matrix.self_s"] = metric(self_s("core.gain_matrix"), "s")
    out["core.gain_matrix.columns"] = metric(
        ratio(counters["core.gain_matrix.columns"], len(traced.fits)), "count"
    )
    out["cli.load_dataset_s"] = metric(mean_s("cli.load_dataset"), "s")
    plain_s = sum(f.seconds for f in plain.fits)
    out["trace.overhead"] = metric(ratio(fit_s, plain_s) - 1.0, "ratio")
    return out


def environment(mf, workload_name, workload, seed, m, n_fits, load_before):
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"name": deps["blas"].get("name"), "version": deps["blas"].get("version")}
    except Exception:  # older numpy has no dict mode; the record is informational
        pass
    threads = None
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "workload": workload_name,
        "algo": workload.algo,
        "m": m,
        "p": workload.p,
        "eps": workload.eps,
        "nu_frac": NU_FRAC,
        "seed": seed,
        "fits": n_fits,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "loadavg_start": load_before,
        "loadavg_end": list(os.getloadavg()),
        "marginforge": getattr(mf, "__version__", None),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--m", type=int, default=None, help="override the sample size (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.m is not None and args.m < 10:
        parser.error("--m must be at least 10")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = list(os.getloadavg())
    mf = load_package()
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    m = args.m or workload.m
    harness = Harness(mf, workload)
    run_dir = WORK_DIR / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = make_batch(workload, args.seed, args.seconds, m, run_dir)
        plain = run_pass(harness, paths)
        failed = sum(f.error is not None for f in plain.fits)
        correct = failed == 0
        if args.trace:
            with Tracer() as tracer:
                traced = run_pass(harness, paths, tracer)
            mismatched = [
                i
                for i, (a, b) in enumerate(zip(plain.fits, traced.fits))
                if (a.rounds, repr(a.soft_margin)) != (b.rounds, repr(b.soft_margin))
            ]
            if mismatched:
                print(f"traced pass differs from untraced on fits {mismatched}", file=sys.stderr)
                correct = False
            metrics = per_layer_metrics(tracer, plain, traced)
        else:
            metrics = end_to_end_metrics(plain)
        env = environment(mf, args.workload, workload, args.seed, m, len(paths), load_before)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": env}))
    result = {"correct": correct, "attempted": len(paths), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
