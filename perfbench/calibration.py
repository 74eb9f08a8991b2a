"""Host-speed calibration of the timed operations.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU Xeon
(2.1 GHz) virtual machine, the same 8 s of verify checks took from 6.0 to
10.2 s within two minutes, with the process on the CPU the whole time, and
a fixed CPU loop ran 10-45% slower from one minute to the next.  A drift
that lasts a whole run moves every time in it, and ten runs of the same
code then spread further than any bound a benchmark can use to catch a
regression.

So each worker process times short bursts of fixed reference work between
its operations (after the set-up, after every operation, and, for a
workload that asks for it, between the parts of an operation) and scales
every time it measured to a reference host speed:

    scaled time = raw time * REF_UNIT_S / level

where level is the median time of one unit of reference work over all the
bursts of the process.  The reference work is the kind the package itself
does (interpreted float and dict loops and small dense numpy linear
algebra) and lives in the benchmark, so no change to the package changes
it, and the scaled times of two commits compare like for like.  The bursts'
own time is left out of every measured time, and raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time

import numpy as np

# Median time of one reference unit on a quiet host (the machine above).
REF_UNIT_S = 2.0e-3
# Units run and thrown away first: the first bursts of a process are slow.
WARMUP_UNITS = 5
# Units in the first burst, which alone scales a set-up-only process.
FIRST_UNITS = 25

_MATS = np.random.default_rng(12345).standard_normal((25, 3, 3))


def unit() -> float:
    """Run one unit of reference work; return its wall time in seconds.

    The collector is off meanwhile, so garbage an operation left behind is
    not collected on the unit's time.
    """
    gc.disable()
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 6000):
        s += (i * 0.5) ** 0.5 / (1.0 + i)
    d: dict[int, int] = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i
    for m in _MATS:
        q, r = np.linalg.qr(m)
        (q * np.sign(np.diagonal(r))) @ q.T
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def _helper(conn) -> None:
    """Run a burst of the units asked for, until asked for none."""
    for _ in range(WARMUP_UNITS):
        unit()
    while True:
        units = conn.recv()
        if not units:
            return
        conn.send(statistics.median(unit() for _ in range(units)))


class Calibrator:
    """Bursts of reference work and the scale factor they give."""

    def __init__(self, units: int, cpus: int = 1) -> None:
        # Units per burst.
        self.units = units
        # A workload that runs on several CPUs at once is scaled by bursts
        # on as many: helper processes run each burst alongside this one.
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(cpus - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._helpers.append((proc, mine))
        for _ in range(WARMUP_UNITS):
            unit()
        self.levels: list[float] = []
        # Wall time spent in bursts so far, to be left out of measured times.
        self.burst_s = 0.0
        self.burst(FIRST_UNITS)

    def burst(self, units: int | None = None) -> None:
        t0 = time.perf_counter()
        units = units or self.units
        for _, conn in self._helpers:
            conn.send(units)
        levels = [statistics.median(unit() for _ in range(units))]
        levels += [conn.recv() for _, conn in self._helpers]
        self.levels.append(statistics.fmean(levels))
        self.burst_s += time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that takes this process's times to the reference speed."""
        return REF_UNIT_S / statistics.median(self.levels)

    def close(self) -> None:
        """Stop the helper processes and wait for them to end."""
        for proc, conn in self._helpers:
            conn.send(0)
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []
