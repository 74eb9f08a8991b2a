"""One benchmark workload in a process of its own.

Started by run.py; not meant to be run by hand.  It imports the package from
the checkout's src/, builds the workload's inputs from the seed, runs the
untimed set-up, then the timed operations, checks every output and prints
one JSON line with what it measured.

    --mode setup   import and set-up only, for the setup_s samples
    --mode run     set-up, then whole cycles until --seconds of raw
                   operation time have passed (one cycle with --one-cycle
                   or for a workload that must run cold)
    --trace 1      install the per-layer wrappers before the set-up

Every time it reports is scaled to the reference host speed of
calibration.py, by the reference bursts it runs after the set-up and after
each operation; the raw times are reported too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Scratch space inside the checkout for files the workloads write.
SCRATCH = ROOT / ".perfbench_tmp"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--one-cycle", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import ncwishart as ncw

    import_s = time.perf_counter() - t0

    import calibration
    import workloads

    scratch = SCRATCH / f"worker-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        out = _run(ncw, calibration, workloads, args, str(scratch), import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another worker's directory is still there
    print(json.dumps(out))
    return 0


def _run(ncw, calibration, workloads, args, scratch: str, import_s: float) -> dict:
    wl = workloads.build(args.workload, ncw, args.seed, args.tiny, scratch)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(ncw)
    typed_errors = (ncw.DomainError, ncw.TruncationError)

    cal = calibration.Calibrator(wl.calib_units, wl.cpus)
    try:
        return _measure(wl, cal, tracer, typed_errors, args, import_s)
    finally:
        cal.close()


def _resident_mb() -> float:
    """Resident memory of this process now, from /proc (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _timed(cal, call, typed_errors=()) -> tuple[float, object, bool]:
    """Run *call*; return its raw time without bursts, its result, and
    whether it raised one of *typed_errors*."""
    burst_s, t0 = cal.burst_s, time.perf_counter()
    try:
        result, raised = call(), False
    except typed_errors:
        result, raised = None, True
    return time.perf_counter() - t0 - (cal.burst_s - burst_s), result, raised


def _measure(wl, cal, tracer, typed_errors, args, import_s: float) -> dict:
    if tracer is None:
        wl.marks(cal.burst)
    warmup_s = 0.0
    for call in wl.warmup:
        warmup_s += _timed(cal, call)[0]
        cal.burst()
    out = {"import_s": import_s, "warmup_s": warmup_s}
    if args.mode == "setup":
        out.update(scale=cal.scale(), setup_s=(import_s + warmup_s) * cal.scale())
        return out

    if tracer is not None:
        tracer.start_timed()
    kinds: dict[str, dict] = {}
    latency: list[float] = []
    attempted = failed = 0
    busy = 0.0
    one_cycle = args.one_cycle or wl.cold
    while True:
        cycle_s = 0.0
        for op in wl.ops:
            raw, result, raised = _timed(cal, op.run, typed_errors)
            cal.burst()
            # a typed error is a failed operation, not the end of the run
            att, fail = (1, 1) if raised else op.check(result)
            attempted += att
            failed += fail
            k = kinds.setdefault(op.kind, {"n": 0, "s": 0.0, "raw_s": 0.0, "items": 0, "rows": 0})
            k["n"] += 1
            k["raw_s"] += raw
            k["items"] += op.items
            k["rows"] += op.rows
            cycle_s += raw
            if wl.latency == "op":
                latency.append(raw)
        if wl.latency == "cycle":
            latency.append(cycle_s)
        busy += cycle_s
        if one_cycle or busy >= args.seconds:
            break
    scale = cal.scale()
    for k in kinds.values():
        k["s"] = k["raw_s"] * scale
    out.update(
        scale=scale,
        setup_s=(import_s + warmup_s) * scale,
        kinds=kinds,
        latency=[x * scale for x in latency],
        attempted=attempted,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        rss_end_mb=_resident_mb(),
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["missing"] = tracer.missing
        out["span_threads"] = len(tracer.thread_ids())
    return out


if __name__ == "__main__":
    sys.exit(main())
