"""The benchmark's own check.

    python3 perfbench/selfcheck.py [--seed N]

Runs every workload at tiny size, once untraced and twice traced at one
seed.  Requires every run to pass its output checks and to print exactly the
metrics BENCHMARK.json lists, and the exact counts of tracing.EXACT_COUNTS
to repeat bit for bit across the traced runs.  Exits 0 when they do.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS  # noqa: E402
from workloads import NAMES  # noqa: E402


def tiny_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}
    problems = []
    for workload in NAMES:
        plain = tiny_run(workload, seed, 0)
        first, second = tiny_run(workload, seed, 1), tiny_run(workload, seed, 1)
        runs = (("untraced", plain, "end_to_end"), ("traced 1", first, "per_layer"), ("traced 2", second, "per_layer"))
        for label, res, key in runs:
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} {label}: {res['failed']} of {res['attempted']} outputs failed")
            if sorted(res["metrics"]) != sorted(declared[key]):
                problems.append(f"{workload} {label}: metrics differ from BENCHMARK.json {key}")
        counts = {}
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            counts[name] = a
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a} != {b}")
        print(f"{workload}: {json.dumps(counts)}")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
