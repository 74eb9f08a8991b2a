"""ncwishart benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from src/.  Each
workload runs in worker processes (perfbench/worker.py) that the run starts
one after another and waits for, with NCWISHART_CACHE_DIR removed from their
environment so every process starts with cold zonal tables.  The measuring
is split into windows of --seconds / 3 in three processes, each of which
also gives one set-up sample; processes that only set up add samples where
set-up is cheap.  A verify-all operation outlasts the run on its own, so it
runs once and the other processes time the set-up only.

Every time in the result is scaled to a reference host speed: each worker
times short bursts of fixed reference work after its set-up and after every
operation (and between the checks of a verify-all suite), and multiplies
every time it measured by the reference unit time over the median unit time
of its bursts (perfbench/calibration.py says why).  The raw times and each
process's scale factor are printed on the lines before the result.

Workloads (why each is here is in BENCHMARK.json and beside its build function):
    verify-all     run_suite("all") with nproc threads, one cold process per run
    series         warm zonal-series densities and split transforms
    sampling       samplers, Haar draws, Monte Carlo estimates, CSV output
    d2-quadrature  m122_lt_quadrature at interior cone points

--trace 0 prints the end-to-end metrics, the same names on every workload:
    setup_s       median over three to five processes of import plus
                  untimed set-up
    rss_end_mb    resident memory of the measuring process once its
                  operations are done: caches, zonal tables, retained heap
                  (highest over the run's processes)
    op_p50_ms     median wall time of one operation: a suite run, a series
                  evaluation, a sampling cycle (all draw sets and CSV
                  writes), a quadrature call
    items_per_s   suite runs, evaluations, Monte Carlo draws or quadrature
                  calls completed per second spent in the operations
A 90th percentile is gated only where a run holds enough samples for ten
to lie beyond it, which is the series workload alone, so it is printed but
not in the result.  So is peak_rss_mb, the peak resident memory: in
verify-all it is 172-181 MB or 204-220 MB from one run of the same code to
the next, by whether the two pool threads of zonal-lemma-mc hold their
largest arrays at the same time, and ten runs spread too far to gate it.
Lines before the result give each workload's metrics under their own
names (verify_s, series_evals_per_s, series_eval_p50_ms, series_eval_p90_ms,
mc_draws_per_s, csv_rows_per_s, quad_calls_per_s), the latency sample
count, and failed_share, the failed share of checked outputs, which the
result line carries as `failed` over `attempted`.

--trace 1 runs one cycle of the workload untraced and one traced, each in a
fresh process, and prints the per-layer metrics of perfbench/tracing.py,
their times and rates scaled like the end-to-end ones, and
trace.overhead_share, the traced cycle's operation time over the untraced
one's, minus one.  Per-call series medians cover the timed cycle; every
other per-layer figure covers set-up and cycle.

--tiny shrinks every workload for perfbench/selfcheck.py.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  Any failure to run (no package, a worker that dies or overruns)
exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# A run must end within this many seconds, workers included.
RUN_DEADLINE_S = 175.0
# Processes per run: each gives a set-up sample and measures a window of
# --seconds / WINDOWS.
WINDOWS = 3
# Set-up-only processes add samples up to this many while the raw set-up
# time of the run stays under SETUP_BUDGET_S: import-only set-ups (0.5 s)
# spread widely and are cheap, table-building ones (5 s) are neither.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 4.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CACHE_ENV = "NCWISHART_CACHE_DIR"


class WorkerError(RuntimeError):
    pass


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout, or one nested in another repository
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cache_dir_inherited": os.environ.get(CACHE_ENV),
        "cache_dir_in_workers": None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
    }


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}

    def worker(self, mode: str, trace: int = 0, one_cycle: bool = False) -> dict:
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--mode", mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds / WINDOWS),
            "--trace", str(trace),
        ]
        if self.args.tiny:
            cmd.append("--tiny")
        if one_cycle:
            cmd.append("--one-cycle")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("out of time before starting a worker")
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker overran the run deadline") from None
        if done.returncode != 0:
            raise WorkerError(f"{mode} worker exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def _merge_kinds(runs: list[dict]) -> dict:
    kinds: dict[str, dict] = {}
    for run in runs:
        for name, k in run["kinds"].items():
            agg = kinds.setdefault(name, {"n": 0, "s": 0.0, "raw_s": 0.0, "items": 0, "rows": 0})
            for key in agg:
                agg[key] += k[key]
    return kinds


def measure(runner: Runner) -> tuple[dict, dict, dict]:
    """Untraced run: end-to-end metrics, the workload's own metrics, counts."""
    args = runner.args
    runs, setups, raw_setups = [], [], []
    busy = 0.0
    def more_setups() -> bool:
        return len(setups) < WINDOWS or (len(setups) < SETUP_SAMPLES and sum(raw_setups) < SETUP_BUDGET_S)

    while busy < args.seconds or more_setups():
        if busy < args.seconds:
            done = runner.worker("run")
            runs.append(done)
            busy += sum(k["raw_s"] for k in done["kinds"].values())
        else:
            done = runner.worker("setup")
        raw_setups.append(done["import_s"] + done["warmup_s"])
        setups.append(done["setup_s"])

    kinds = _merge_kinds(runs)
    latency = sorted(d for r in runs for d in r["latency"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "rss_end_mb": (max(r["rss_end_mb"] for r in runs), "MB"),
        "op_p50_ms": (1e3 * workloads.quantile(latency, 0.5), "ms"),
        "items_per_s": (sum(k["items"] for k in kinds.values()) / sum(k["s"] for k in kinds.values()), "1/s"),
    }
    named = workloads.named_metrics(args.workload, kinds, latency)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    counts = {
        "attempted": attempted,
        "failed": failed,
        "operations": sum(k["n"] for k in kinds.values()),
        "latency_samples": len(latency),
        "worker_runs": len(runs),
        "setup_samples": len(setups),
    }
    named["failed_share"] = (failed / attempted if attempted else 1.0, "share")
    named["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in runs), "MB")
    named["raw_setup_s"] = (statistics.median(raw_setups), "s")
    named["raw_busy_s"] = (sum(k["raw_s"] for k in kinds.values()), "s")
    counts["host_scales"] = [round(r["scale"], 4) for r in runs]
    return metrics, named, counts


def trace(runner: Runner) -> tuple[dict, dict]:
    """Traced run: per-layer metrics over one cycle, and the trace overhead."""
    plain = runner.worker("run", trace=0, one_cycle=True)
    traced = runner.worker("run", trace=1, one_cycle=True)
    metrics = {}
    for name, value in traced["layers"].items():
        unit = tracing.unit_of(name)
        # times and rates are scaled to the reference host speed like the
        # end-to-end ones; counts and shares are not times
        if unit in ("s", "ms", "us"):
            value *= traced["scale"]
        elif unit == "1/s":
            value /= traced["scale"]
        metrics[name] = (value, unit)
    plain_s, traced_s = (sum(k["s"] for k in r["kinds"].values()) for r in (plain, traced))
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    counts = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "untraced_cycle_s": plain_s,
        "traced_cycle_s": traced_s,
        "host_scales": [round(plain["scale"], 4), round(traced["scale"], 4)],
        "missing_targets": traced["missing"],
        "span_threads": traced["span_threads"],
    }
    return metrics, counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink the workload (self-check)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncwishart" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'ncwishart'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"workload {args.workload}: {why[args.workload]}")
    runner = Runner(args)
    try:
        if args.trace:
            metrics, counts = trace(runner)
            shown = metrics
        else:
            metrics, named, counts = measure(runner)
            shown = {**named, **metrics}
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:16.6g} {unit}")
    print("counts " + json.dumps(counts, sort_keys=True))
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
