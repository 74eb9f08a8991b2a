"""Per-layer tracing for the traced benchmark run.

The layers are the package modules symcore, zonal, measures, samplers,
report and verify.  Each is timed from outside: `Tracer.install` replaces
selected public functions with timing wrappers in every package namespace
that bound them (a module that did `from .zonal import zonal_table` holds
its own reference), in `verify.CHECKS`, and on `Report.to_json`.  Only the
traced run installs them.

A span is one wrapped call.  Spans nest per thread: a span's self time is
its duration minus the durations of the traced spans it directly caused on
the same thread.  Calls into hot leaves (monomial_symmetric is called
hundreds of thousands of times in verify-all) are aggregated as they end
instead of being kept one by one; the per-thread aggregates are keyed by
thread id and merged when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

import numpy as np

# (module, function) pairs timed in the traced run.
TARGETS = (
    ("symcore", "haar_orthogonal_batch"),
    ("zonal", "zonal_table"),
    ("zonal", "monomial_symmetric"),
    ("zonal", "zonal_C"),
    ("zonal", "phi_kappa_mc"),
    ("zonal", "zonal_lemma_checks"),
    ("measures", "density_m_fullrank"),
    ("measures", "density_fd"),
    ("measures", "lt_fd_series"),
    ("measures", "singular_r_laplace"),
    ("measures", "m122_ac_density"),
    ("samplers", "ncw_sample"),
    ("samplers", "m_measure_sample"),
    ("samplers", "singular_r_sample"),
    ("samplers", "empirical_laplace"),
    ("samplers", "weighted_laplace_estimate"),
    ("report", "write_samples_csv"),
    ("verify", "m122_lt_quadrature"),
)

# The zonal-series evaluations, by span name, and the per-call metric each
# feeds.  singular_r_laplace and lt_fd_series are the two halves of the split.
SERIES = {
    "measures.density_m_fullrank": "fullrank",
    "measures.density_fd": "fd",
    "measures.lt_fd_series": "split",
    "measures.singular_r_laplace": "split",
}
SERIES_DIMS = {"fullrank": (3, 4, 5), "fd": (3, 4), "split": (2, 3, 4)}

# The ten checks of verify.CHECKS, in suite order.
CHECK_NAMES = (
    "existence-table",
    "zonal-sum-rule",
    "zonal-identity-values",
    "zonal-lemma-mc",
    "d2-roundtrip",
    "m111-lt",
    "fd-split",
    "sampler-lt",
    "rank-support",
    "faa-di-bruno",
)

# Counts that must repeat exactly across traced runs at one seed.
EXACT_COUNTS = (
    "zonal.monomial_calls",
    "zonal.table_calls",
    "symcore.haar_matrices",
    "measures.m122_ac_calls",
    "measures.weight_reached_max",
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if "_ms_d" in metric:
        return "ms"
    if metric.endswith("_us_per_call"):
        return "us"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_share"):
        return "share"
    return "count"


class _Frame:
    __slots__ = ("name", "child_s", "max_weight")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0
        self.max_weight = -1


class _ThreadLog:
    """Open spans and finished-span aggregates of one thread."""

    def __init__(self) -> None:
        self.thread_id = threading.get_ident()
        self.stack: list[_Frame] = []
        # span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        # (series kind, d) -> durations of outermost series calls, timed
        # cycle only
        self.series_s: dict[tuple[str, int], list[float]] = {}
        # d -> [matrices, seconds] of Haar batches
        self.haar: dict[int, list] = {}
        # highest weight passed to zonal_table within one series evaluation
        self.weight_max = 0
        self.counts: dict[str, int] = {}

    def bump(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        # Targets the package no longer has; their metrics read 0.
        self.missing: list[str] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every namespace of *package* that bound it."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        originals: list[tuple[str, object]] = []
        for mod, fn in TARGETS:
            home = sys.modules.get(f"{prefix}.{mod}")
            orig = getattr(home, fn, None)
            if orig is None:
                self.missing.append(f"{mod}.{fn}")
            else:
                originals.append((f"{mod}.{fn}", orig))
        verify = sys.modules.get(f"{prefix}.verify")
        checks = getattr(verify, "CHECKS", {})
        for name in CHECK_NAMES:
            if name in checks:
                originals.append((f"verify.{name}", checks[name]))
            else:
                self.missing.append(f"verify.CHECKS[{name!r}]")
        for span, orig in originals:
            wrapper = self._wrap(span, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
            for key, value in list(checks.items()):
                if value is orig:
                    checks[key] = wrapper
        report_cls = getattr(sys.modules.get(f"{prefix}.report"), "Report", None)
        if report_cls is None or not hasattr(report_cls, "to_json"):
            self.missing.append("report.Report.to_json")
        else:
            report_cls.to_json = self._wrap("report.to_json", report_cls.to_json)

    def _wrap(self, span: str, fn):
        tracer = self
        on_exit = _HOOKS.get(span)
        series_kind = SERIES.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            frame = _Frame(span)
            log.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                log.stack.pop()
                if log.stack:
                    log.stack[-1].child_s += dt
                agg = log.spans.get(span)
                if agg is None:
                    agg = log.spans[span] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame.child_s
                if series_kind is not None:
                    _series_exit(log, frame, series_kind, args, dt)
                elif on_exit is not None:
                    on_exit(log, args, kwargs, dt)

        return wrapper

    def thread_ids(self) -> list[int]:
        """Ids of the threads that recorded spans (verify maps items over a pool)."""
        return [log.thread_id for log in self._logs]

    def start_timed(self) -> None:
        """Drop the per-call series samples of the set-up (cold tables)."""
        for log in self._logs:
            log.series_s.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, merged over every thread that ran spans."""
        spans: dict[str, list] = {}
        series_s: dict[tuple[str, int], list[float]] = {}
        haar: dict[int, list] = {}
        counts: dict[str, int] = {}
        weight_max = 0
        for log in self._logs:
            weight_max = max(weight_max, log.weight_max)
            for k, v in log.spans.items():
                agg = spans.setdefault(k, [0, 0.0, 0.0])
                for i in range(3):
                    agg[i] += v[i]
            for k, v in log.series_s.items():
                series_s.setdefault(k, []).extend(v)
            for k, v in log.haar.items():
                agg = haar.setdefault(k, [0, 0.0])
                agg[0] += v[0]
                agg[1] += v[1]
            for k, v in log.counts.items():
                counts[k] = counts.get(k, 0) + v

        def calls(span):
            return spans.get(span, [0, 0.0, 0.0])[0]

        def total(*names):
            return sum(spans.get(s, [0, 0.0, 0.0])[1] for s in names)

        def self_s(*names):
            return sum(spans.get(s, [0, 0.0, 0.0])[2] for s in names)

        def rate(n, seconds):
            return n / seconds if seconds > 0 else 0.0

        def haar_rate(d):
            n, s = haar.get(d, [0, 0.0])
            return rate(n, s)

        m: dict[str, float] = {
            "symcore.haar_calls": calls("symcore.haar_orthogonal_batch"),
            "symcore.haar_matrices": sum(n for n, _ in haar.values()),
            "symcore.haar_s": total("symcore.haar_orthogonal_batch"),
            "symcore.haar_d2_per_s": haar_rate(2),
            "symcore.haar_d3_per_s": haar_rate(3),
            "zonal.table_calls": calls("zonal.zonal_table"),
            "zonal.table_s": total("zonal.zonal_table"),
            "zonal.monomial_calls": calls("zonal.monomial_symmetric"),
            "zonal.monomial_s": total("zonal.monomial_symmetric"),
            "zonal.zonal_C_calls": calls("zonal.zonal_C"),
            "zonal.zonal_C_s": total("zonal.zonal_C"),
            "zonal.phi_mc_self_s": self_s("zonal.phi_kappa_mc", "zonal.zonal_lemma_checks"),
        }
        for kind, dims in SERIES_DIMS.items():
            for d in dims:
                samples = series_s.get((kind, d))
                m[f"measures.{kind}_ms_d{d}"] = 1e3 * statistics.median(samples) if samples else 0.0
        m["measures.series_self_s"] = self_s(*SERIES)
        m["measures.weight_reached_max"] = weight_max
        n_ac = calls("measures.m122_ac_density")
        m["measures.m122_ac_calls"] = n_ac
        m["measures.m122_ac_us_per_call"] = 1e6 * total("measures.m122_ac_density") / n_ac if n_ac else 0.0
        m["samplers.ncw_draws_per_s"] = rate(counts.get("ncw_draws", 0), total("samplers.ncw_sample"))
        m["samplers.m_draws_per_s"] = rate(counts.get("m_draws", 0), total("samplers.m_measure_sample"))
        m["samplers.singular_r_draws_per_s"] = rate(
            counts.get("singular_r_draws", 0), total("samplers.singular_r_sample")
        )
        m["samplers.estimate_s"] = total("samplers.empirical_laplace", "samplers.weighted_laplace_estimate")
        m["report.csv_rows"] = counts.get("csv_rows", 0)
        m["report.csv_bytes"] = counts.get("csv_bytes", 0)
        m["report.csv_s"] = total("report.write_samples_csv")
        m["report.json_s"] = total("report.to_json")
        for name in CHECK_NAMES:
            m[f"verify.{name}_s"] = total(f"verify.{name}")
        m["verify.quad_self_s"] = self_s("verify.m122_lt_quadrature")
        return m


def _series_exit(log: _ThreadLog, frame: _Frame, kind: str, args: tuple, dt: float) -> None:
    outer = next((f for f in log.stack if f.name in SERIES), None)
    if outer is not None:
        # a series call made by another one (density_fd(stable=False))
        outer.max_weight = max(outer.max_weight, frame.max_weight)
        return
    d = len(np.asarray(args[0]))
    log.series_s.setdefault((kind, d), []).append(dt)
    log.weight_max = max(log.weight_max, frame.max_weight)


def _zonal_table_exit(log: _ThreadLog, args, kwargs, dt) -> None:
    series = next((f for f in log.stack if f.name in SERIES), None)
    if series is not None:
        series.max_weight = max(series.max_weight, int(_arg(args, kwargs, 0, "weight")))


def _haar_exit(log: _ThreadLog, args, kwargs, dt) -> None:
    d = int(_arg(args, kwargs, 0, "d"))
    n = int(_arg(args, kwargs, 1, "size"))
    agg = log.haar.setdefault(d, [0, 0.0])
    agg[0] += n
    agg[1] += dt


def _draws(counter: str):
    def hook(log: _ThreadLog, args, kwargs, dt) -> None:
        log.bump(counter, int(_arg(args, kwargs, 1, "n_draws")))

    return hook


def _csv_exit(log: _ThreadLog, args, kwargs, dt) -> None:
    out = _arg(args, kwargs, 0, "out")
    log.bump("csv_rows", len(_arg(args, kwargs, 1, "draws")))
    log.bump("csv_bytes", os.path.getsize(out) if isinstance(out, (str, os.PathLike)) else out.tell())


_HOOKS = {
    "symcore.haar_orthogonal_batch": _haar_exit,
    "zonal.zonal_table": _zonal_table_exit,
    "samplers.ncw_sample": _draws("ncw_draws"),
    "samplers.m_measure_sample": _draws("m_draws"),
    "samplers.singular_r_sample": _draws("singular_r_draws"),
    "report.write_samples_csv": _csv_exit,
}
