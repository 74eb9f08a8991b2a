"""The four benchmark workloads: generated inputs, timed operations, checks.

Every workload is a list of operations ("one cycle") built from the seed
alone.  An operation is the timed program call plus a check of its output
against a reference that the benchmark computes before any timing starts.
The worker process runs whole cycles, so every run measures the same mix of
inputs.

Input sizes are stratified: each operation kind covers a fixed grid of
problem sizes (eigenvalue scale, quadrature point) and the seed moves the
remaining parameters, so the total work of a cycle barely changes from seed
to seed while the inputs do.

This module imports nothing from the package at import time; the build functions
take the imported package as an argument.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from typing import Callable

import numpy as np

# Relative agreement required of the series identities (split transform and
# the explicit d = 2 density).  The series stop at 1e-10 relative change.
SERIES_REL_TOL = 1e-8
# Allowed deviation of a Monte Carlo estimate, in standard errors.
MC_Z_MAX = 4.0
# Gate of the d = 2 quadrature round trip, the same as the verify suite's.
QUAD_REL_TOL = 1e-3


@dataclasses.dataclass
class Op:
    """One timed call into the program and the check of what it returned."""

    kind: str
    run: Callable[[], object]
    # Maps the result to (outputs checked, outputs failed).
    check: Callable[[object], tuple[int, int]]
    # Work items the call completes: suite runs, evaluations, draws, calls.
    items: int
    # Output rows the call writes.
    rows: int = 0


@dataclasses.dataclass
class Workload:
    ops: list[Op]
    # Untimed set-up calls after the import; with the import they make up
    # setup_s.
    warmup: list[Callable[[], None]] = dataclasses.field(default_factory=list)
    # The latency sample: "op" for each operation, "cycle" for each whole
    # cycle when the operations are too unlike for one median to mean much.
    latency: str = "op"
    # Reference units in each calibration burst (calibration.py): enough
    # for a steady median, and a few per cent of an operation's time.
    calib_units: int = 1
    # Called with Calibrator.burst in an untraced run, for a workload whose
    # operations are long enough to need bursts inside them.  The traced
    # run leaves it out: a burst inside a span would count as its self time.
    marks: Callable[[Callable[[], None]], None] = lambda mark: None
    # CPUs the operations run on at once, and so the CPUs each burst uses.
    cpus: int = 1
    # Whether an operation must run on a fresh process: one cycle a process.
    cold: bool = False


def _ok(good: bool) -> tuple[int, int]:
    return 1, 0 if good else 1


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar orthogonal matrix drawn with numpy, outside the program."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diagonal(r))


def _spd(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    q = _rotation(rng, eigs.size)
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def _spread_eigs(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    """Eigenvalues spread around *scale* with their mean fixed at *scale*.

    The adaptive series stop at a weight set mostly by the trace, so fixing
    the trace per stratum keeps the weight reached, and with it the cost of
    a cycle and of its cold table builds, steady across seeds.
    """
    v = rng.uniform(0.7, 1.3, size=d)
    return v * (d * scale / v.sum())


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# verify-all


def build_verify_all(ncw, seed: int, tiny: bool) -> Workload:
    # Chosen because it is the ROADMAP's end-to-end definition and what a
    # CLI user pays on every `ncwishart verify --suite all`: cold zonal
    # tables, all threads, every layer in its real share.
    threads = len(os.sched_getaffinity(0))
    config = ncw.RunConfig(seed=seed, threads=threads, trials=20 if tiny else 10_000)

    def run():
        report = ncw.run_suite("all", config)
        return report, report.to_json()

    def check(result):
        report, text = result
        failed = sum(1 for r in report.results if not r.passed)
        doc = json.loads(text)
        if len(doc["results"]) != len(report.results) or doc["pass"] != report.passed:
            failed += 1  # the JSON report does not say what the records say
        return len(report.results), failed

    def marks(burst):
        # run_suite calls the checks one after another, each of them
        # 0.3-12 s; a burst after each samples the host's speed through the
        # 20 s suite, where bursts around it alone missed most of its drift.
        def marked(check):
            def call(cfg):
                records = check(cfg)
                burst()
                return records

            return call

        for name, check in list(ncw.verify.CHECKS.items()):
            ncw.verify.CHECKS[name] = marked(check)

    return Workload([Op("suite", run, check, 1)], calib_units=50, marks=marks, cpus=threads, cold=True)


# ---------------------------------------------------------------------------
# series

# (kind, d, lo, hi): eigenvalue scales of the evaluation point (of s^-1 for
# the split), chosen so the adaptive series stop at weights of about 12-24.
SERIES_KINDS = (
    ("fullrank", 3, 0.3, 1.5),
    ("fullrank", 4, 0.3, 1.2),
    ("fullrank", 5, 0.3, 0.8),
    ("fd", 2, 0.3, 1.5),
    ("fd", 3, 0.3, 1.5),
    ("fd", 4, 0.3, 1.0),
    ("split", 2, 0.3, 1.5),
    ("split", 3, 0.3, 1.2),
    ("split", 4, 0.3, 0.8),
)


def _series_op(ncw, rng: np.random.Generator, kind: str, d: int, scale: float) -> Op:
    eigs = _spread_eigs(rng, d, scale)
    label = f"{kind}-d{d}"
    if kind == "fullrank":
        x = _spd(rng, eigs)
        shape = d - 1 + float(rng.uniform(0.25, 1.5))
        return Op(
            label,
            lambda: ncw.density_m_fullrank(x, shape),
            lambda v: _ok(math.isfinite(v) and v > 0.0),
            1,
        )
    if kind == "fd" and d == 2:
        # phi2(x, y, z) has eigenvalues x -+ sqrt(y^2 + z^2)
        x0, r = float(eigs.mean()), float(abs(eigs[1] - eigs[0]) / 2.0)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        y0, z0 = r * math.cos(theta), r * math.sin(theta)
        t = np.array([[x0 + y0, z0], [z0, x0 - y0]])
        ref = ncw.m122_ac_density(x0, y0, z0) / (2.0 * math.sqrt(2.0))
        return Op(
            label,
            lambda: ncw.density_fd(t),
            lambda v: _ok(_rel_err(v, ref) <= SERIES_REL_TOL),
            1,
        )
    if kind == "fd":
        t = _spd(rng, eigs)
        return Op(
            label,
            lambda: ncw.density_fd(t),
            lambda v: _ok(math.isfinite(v) and v > 0.0),
            1,
        )
    s = _spd(rng, 1.0 / eigs)
    ref = ncw.laplace_m(s, (float(d - 1), d, d))
    return Op(
        label,
        lambda: ncw.singular_r_laplace(s, d) + ncw.lt_fd_series(s, d),
        lambda v: _ok(_rel_err(v, ref) <= SERIES_REL_TOL),
        1,
    )


def build_series(ncw, seed: int, tiny: bool) -> Workload:
    # Chosen to exercise zonal evaluation and the measures series loops on
    # warm tables; the cold builds go to setup_s.  It bypasses Haar
    # sampling, the samplers and the explicit d = 2 density.
    rng = np.random.default_rng([seed, 2])
    # 54 evaluations a cycle: the three measuring windows of a run hold at
    # least 162, so ten or more lie beyond the 90th percentile.
    per_kind = 1 if tiny else 6
    ops = []
    for kind, d, lo, hi in SERIES_KINDS:
        scales = [0.5 * (lo + hi)] if tiny else _grid(lo, hi, per_kind)
        ops.extend(_series_op(ncw, rng, kind, d, float(sc)) for sc in scales)
    ops = _shuffled(rng, ops)

    def untimed(op: Op) -> Callable[[], None]:
        def call():
            try:
                op.run()
            except (ncw.DomainError, ncw.TruncationError):
                pass  # counted as failed when the timed cycle meets it

        return call

    return Workload(ops, warmup=[untimed(op) for op in ops])


# ---------------------------------------------------------------------------
# sampling


def _singular_r_reference(ncw, t: float, d: int) -> float:
    """Transform of the rank d-1 remainder at s = t I, from closed forms.

    At s = t I the series of singular_r_laplace becomes
    t^(-d(d-1)/2) sum over kappa of length <= d-1 of C_kappa(I_d) / (t^|kappa| |kappa|!),
    and C_kappa(I_d) has the closed form c_kappa_identity, so no
    coefficient table is needed.
    """
    total = 0.0
    small = 0
    for w in range(200):
        layer = sum(ncw.c_kappa_identity(k, d) for k in ncw.zonal.partitions_of_weight(w, d - 1))
        term = float(layer) / (t**w * math.factorial(w))
        total += term
        small = small + 1 if term <= 1e-17 * total else 0
        if small == 2:
            break
    return t ** (-d * (d - 1) / 2.0) * total


def _phi_reference(kappa: tuple[int, ...], eigs: np.ndarray) -> float:
    """Closed-form Haar average Phi_kappa(x) for the partitions used here."""
    d = eigs.size
    p1, p2 = float(eigs.sum()), float((eigs**2).sum())
    if kappa == (1,):
        return p1 / d  # E[(u x u^T)_11]
    if kappa == (2,):
        return (p1 * p1 + 2.0 * p2) / (d * (d + 2))
    if kappa == (1, 1):
        return 0.5 * (p1 * p1 - p2) / math.comb(d, 2)  # e_2 / C(d, 2)
    raise ValueError(f"no closed form for {kappa}")


def _z_check(ref: float):
    def check(est) -> tuple[int, int]:
        return _ok(abs(est.estimate - ref) <= MC_Z_MAX * est.std_error)

    return check


def _csv_expected_row(draw: np.ndarray, log_weight: float) -> list[float]:
    iu = np.triu_indices(draw.shape[0], k=1)
    coords = np.concatenate([np.diagonal(draw), math.sqrt(2.0) * draw[iu]])
    return [float(v) for v in coords] + [math.exp(log_weight)]


def build_sampling(ncw, seed: int, tiny: bool, scratch_dir: str) -> Workload:
    # Chosen to exercise symcore Haar, the samplers and report's CSV writer
    # with seeded estimates against closed forms; it touches no zonal table.
    # The CSV step writes data beside the in-memory estimation that only
    # reads it.  Draw sets and CSV writes differ tenfold in cost, so the
    # latency sample is the whole cycle.
    rng = np.random.default_rng([seed, 3])
    n_draws = 500 if tiny else 20_000
    ops: list[Op] = []

    def seeded(i: int) -> Callable[[], np.random.Generator]:
        # a fresh generator per call: every cycle draws the same sample
        return lambda: np.random.default_rng([seed, 30, i])

    # shape d - 1 in each dimension: the cost of a draw grows with shape
    # times d^2, so a seeded shape would make the cycle's cost seeded too
    for d in (2, 3, 4, 5):
        n = d - 1
        r = int(rng.integers(0, n + 1))
        vecs = rng.standard_normal((r, d))
        w = 0.3 * (vecs.T @ vecs)
        params = ncw.NcwParams(float(n), w, _spd(rng, rng.uniform(0.5, 2.0, d)))
        s = _spd(rng, rng.uniform(0.05, 0.5, d))
        gen = seeded(len(ops))
        ops.append(
            Op(
                f"ncw-d{d}",
                lambda p=params, s=s, gen=gen: ncw.empirical_laplace(ncw.ncw_sample(p, n_draws, gen()), s),
                _z_check(ncw.laplace_ncw(s, params)),
                n_draws,
            )
        )

    for spec in ((2.0, 1, 2), (2.0, 2, 2), (3.0, 0, 3), (3.0, 2, 3), (4.0, 3, 4)):
        d = spec[2]
        s = 0.6 * np.eye(d) + _spd(rng, rng.uniform(0.05, 0.4, d))
        gen = seeded(len(ops))
        ops.append(
            Op(
                f"m-d{d}",
                lambda spec=spec, s=s, gen=gen: ncw.weighted_laplace_estimate(
                    ncw.m_measure_sample(spec, n_draws, gen()), s
                ),
                _z_check(ncw.laplace_m(s, spec)),
                n_draws,
            )
        )

    for d in (2, 3, 4):
        t = float(rng.uniform(0.7, 1.2))
        gen = seeded(len(ops))
        ops.append(
            Op(
                f"singular-r-d{d}",
                lambda d=d, t=t, gen=gen: ncw.weighted_laplace_estimate(
                    ncw.singular_r_sample(d, n_draws, gen()), t * np.eye(d)
                ),
                _z_check(_singular_r_reference(ncw, t, d)),
                n_draws,
            )
        )

    for d, kappa in ((2, (1,)), (2, (2,)), (3, (1, 1)), (3, (2,))):
        eigs = rng.uniform(0.4, 2.5, d)
        x = _spd(rng, eigs)
        gen = seeded(len(ops))
        ops.append(
            Op(
                f"phi-d{d}",
                lambda x=x, kappa=kappa, gen=gen: ncw.phi_kappa_mc(x, kappa, n_draws, gen()),
                _z_check(_phi_reference(kappa, eigs)),
                n_draws,
            )
        )

    # CSV export of weighted draws, the path behind `ncwishart sample
    # --output`.  The draws are made with numpy so the step times the
    # writer alone.
    n_rows = 50 if tiny else 2_000
    path = os.path.join(scratch_dir, f"samples-{os.getpid()}.csv")
    for _ in range(2):
        g = rng.standard_normal((n_rows, 3, 3))
        draws = g @ np.swapaxes(g, 1, 2)
        log_w = rng.normal(0.0, 2.0, n_rows)
        expected = [_csv_expected_row(draws[i], log_w[i]) for i in (0, n_rows - 1)]

        def check_csv(_, expected=expected) -> tuple[int, int]:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            rows = [[float(c) for c in lines[i].split(",")] for i in (1, len(lines) - 1)]
            good = len(lines) == n_rows + 1 and all(
                len(row) == len(exp) and all(abs(a - b) <= 1e-15 * abs(b) for a, b in zip(row, exp))
                for row, exp in zip(rows, expected)
            )
            return _ok(good)

        ops.append(
            Op(
                "csv",
                lambda draws=draws, log_w=log_w: ncw.write_samples_csv(path, draws, log_w),
                check_csv,
                0,
                rows=n_rows,
            )
        )

    return Workload(_shuffled(rng, ops), latency="cycle")


# ---------------------------------------------------------------------------
# d2-quadrature


def build_d2_quadrature(ncw, seed: int, tiny: bool) -> Workload:
    # Chosen because about 99% of a quadrature call is the scalar loop in
    # m122_ac_density, a layer that is only a 14% share of verify-all.
    # Points are interior: a in [1, 2.5] and sqrt(b^2 + c^2) <= 0.6 a.  The
    # cost of a call is set by a and sqrt(b^2 + c^2) / a, which sit on fixed
    # grids; the seed turns the direction of (b, c) and the order of calls.
    rng = np.random.default_rng([seed, 4])
    n = 1 if tiny else 8
    a_vals = _grid(1.0, 2.5, n)
    ratio = _grid(0.0, 0.6, n)[(3 * np.arange(n)) % n]
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    ops = []
    for a, frac, th in zip(a_vals, ratio, theta):
        a, beta = float(a), float(frac * a)
        b, c = beta * math.cos(th), beta * math.sin(th)
        ref = ncw.m122_laplace_cone(a, b, c)
        ops.append(
            Op(
                "quad",
                lambda a=a, b=b, c=c: ncw.verify.m122_lt_quadrature(a, b, c),
                lambda v, ref=ref: _ok(_rel_err(v, ref) <= QUAD_REL_TOL),
                1,
            )
        )
    def marks(burst):
        # A call is about 20 000 m122_ac_density calls, one after another,
        # in 0.6-1 s; a burst after every 1024 of them samples the host's
        # speed some twenty times a call, where one burst a call sampled it
        # too seldom to follow it.
        density = ncw.verify.m122_ac_density
        calls = itertools.count(1)

        def call(*args):
            value = density(*args)
            if next(calls) % 1024 == 0:
                burst()
            return value

        ncw.verify.m122_ac_density = call

    return Workload(_shuffled(rng, ops), marks=marks)


NAMES = ("verify-all", "series", "sampling", "d2-quadrature")


def build(name: str, ncw, seed: int, tiny: bool, scratch_dir: str) -> Workload:
    if name == "verify-all":
        return build_verify_all(ncw, seed, tiny)
    if name == "series":
        return build_series(ncw, seed, tiny)
    if name == "sampling":
        return build_sampling(ncw, seed, tiny, scratch_dir)
    if name == "d2-quadrature":
        return build_d2_quadrature(ncw, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


def named_metrics(name: str, kinds: dict, latency: list[float]) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end metrics, under the names of the ROADMAP.

    *kinds* maps each operation kind to {"n", "s", "items", "rows"} summed
    over the run, and *latency* holds the sorted latency samples; rates are
    per second of operation time.
    """
    items = sum(k["items"] for k in kinds.values())
    busy = sum(k["s"] for k in kinds.values())
    if name == "verify-all":
        return {"verify_s": (quantile(latency, 0.5), "s")}
    if name == "series":
        return {
            "series_evals_per_s": (items / busy, "1/s"),
            "series_eval_p50_ms": (1e3 * quantile(latency, 0.5), "ms"),
            "series_eval_p90_ms": (1e3 * quantile(latency, 0.9), "ms"),
        }
    if name == "sampling":
        mc = [k for kind, k in kinds.items() if kind != "csv"]
        csv = kinds.get("csv", {"s": 0.0, "rows": 0})
        return {
            "mc_draws_per_s": (sum(k["items"] for k in mc) / sum(k["s"] for k in mc), "1/s"),
            "csv_rows_per_s": (csv["rows"] / csv["s"] if csv["s"] else 0.0, "1/s"),
        }
    return {"quad_calls_per_s": (items / busy, "1/s")}


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])
