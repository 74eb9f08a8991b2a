"""The verification suite: every identity the package states, run to records.

Each check function maps a RunConfig to CheckRecords; suites bundle related
checks.  Under the default configuration the checks run at the documented
sample sizes (rank experiments at config.trials, the Laplace agreement at
10x); changing trials scales all of them together so a quick smoke run and
the full desk-scale run use the same code path.  The Haar averages of the
zonal lemmas are exact cubatures and draw nothing.

Randomness is drawn from per-check, per-item generators seeded as
(config.seed, check id, item index), so reports are reproducible for a
fixed seed no matter which suite ran or how many worker threads executed
it; thread workers only ever evaluate disjoint items whose merge order is
fixed by index.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy loads np.random on first use; load it here, not in a check

from .measures import (
    _LOG_DOUBLE_MAX,
    _WORKSPACE,
    MeasureSpec,
    NcwParams,
    _ac_density,
    _fd_kappas,
    _remainder_kappas,
    _split_series_at_inverse,
    exists_m,
    faa_di_bruno_check,
    laplace_m,
    laplace_ncw,
    m122_ac_density,  # noqa: F401  perfbench's d2-quadrature workload wraps it here
    m122_laplace_cone,
    m122_singular_density,
)
from .report import CheckRecord, Provenance, Report
from .samplers import (
    convolution_support_experiment,
    empirical_laplace,
    m_measure_sample,
    ncw_sample,
    rank_additivity_experiment,
    singular_r_sample,
    subspace_intersection_experiment,
    weighted_laplace_estimate,
)
from .symcore import DomainError, _count, _haar_columns
from .zonal import (
    _layer_values,
    _weighted_layers,
    c_kappa_identity,
    zonal_lemma_checks,
    zonal_layer,
)

__all__ = [
    "CHECKS",
    "SUITES",
    "RunConfig",
    "run_suite",
    "m111_lt_quadrature",
    "m122_lt_quadrature",
    "check_existence_table",
    "check_zonal_sum_rule",
    "check_zonal_identity_values",
    "check_zonal_lemma_mc",
    "check_d2_roundtrip",
    "check_m111_lt",
    "check_fd_split",
    "check_sampler_lt",
    "check_rank_support",
    "check_faa_di_bruno",
]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Settings shared by every verification command."""

    seed: int = 0
    trials: int = 10_000
    threads: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _count(self.seed, "seed", None))
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        if self.threads is not None:
            object.__setattr__(self, "threads", _count(self.threads, "threads"))

    def workers(self, n_items: int) -> int:
        """Pool size for n_items: threads if set, else the CPUs this process may run on."""
        if self.threads is not None:
            limit = self.threads
        elif hasattr(os, "sched_getaffinity"):
            limit = len(os.sched_getaffinity(0))
        else:
            limit = os.cpu_count() or 1
        return max(1, min(limit, n_items))


def _rng(config: RunConfig, check_id: int, item: int = 0) -> np.random.Generator:
    return np.random.default_rng([config.seed & (2**64 - 1), check_id, item])


def _map_items(config: RunConfig, items: Sequence, fn: Callable, costs: Sequence[float]) -> list:
    """Run fn over items, threaded when allowed; results kept in item order.

    costs[i] estimates the time of fn(items[i]).  A pool takes the items
    largest first, ties in item order, so that no large item starts last
    (Graham, SIAM J. Appl. Math. 17, 1969).  Every item draws from its own
    generator, so the order changes no result.
    """
    workers = config.workers(len(items))
    if workers == 1:
        return [fn(it) for it in items]
    order = sorted(range(len(items)), key=lambda i: -costs[i])
    results = [None] * len(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i, result in zip(order, pool.map(fn, [items[i] for i in order])):
            results[i] = result
    return results


def _gated(
    name: str,
    value: float | int,
    tolerance: float,
    provenance: Provenance,
    detail: str,
    holds: bool = True,
) -> CheckRecord:
    """The one gate rule: a record passes when holds and value <= tolerance.

    Every value is a deviation, a z score or a count that should be zero,
    so the expected value is 0 (an integer for a count).
    """
    expected = 0 if isinstance(value, int) else 0.0
    return CheckRecord(name, value, expected, tolerance, holds and value <= tolerance, provenance, detail)


def _spd(rng: np.random.Generator, d: int, lo: float, hi: float) -> np.ndarray:
    eigs = rng.uniform(lo, hi, size=d)
    u = _haar_columns(d, 1, rng)[:, :, 0].T
    return u @ np.diag(eigs) @ u.T


# ---------------------------------------------------------------------------
# Existence classification


def _exists_reference(shape: float, k: int, d: int) -> bool:
    # Independent restatement of the admissible set: continuous range
    # [d-1, oo) with any rank, integer ladder 1..d-2 with rank <= shape.
    if shape <= 0:
        return False
    if shape >= d - 1:
        return True
    if not float(shape).is_integer():
        return False
    n = int(shape)
    return 1 <= n <= d - 2 and k <= n


def check_existence_table(config: RunConfig) -> list[CheckRecord]:
    """Classifier versus the three-clause criterion over a full small grid."""
    mismatches = []
    total = 0
    for d in range(1, 7):
        for i in range(1, 2 * (d + 1) + 1):
            shape = 0.5 * i
            for k in range(0, d + 1):
                total += 1
                if bool(exists_m(shape, k, d)) != _exists_reference(shape, k, d):
                    mismatches.append((shape, k, d))
    corner_failures = []
    for d in range(3, 7):
        # integer shape d-2 admits rank at most d-2: ranks d-1 and d refused
        if exists_m(float(d - 2), d, d) or exists_m(float(d - 2), d - 1, d):
            corner_failures.append(d)
    if any(not exists_m(0.5 * i, k, 2) for i in range(2, 7) for k in range(3)):
        corner_failures.append(2)
    value = len(mismatches) + len(corner_failures)
    detail = f"{total} grid points over d = 1..6, shapes 0.5..d+1, ranks 0..d"
    return [_gated("existence-table", value, 0.0, Provenance.CLOSED_FORM, detail)]


# ---------------------------------------------------------------------------
# Zonal identities


def check_zonal_sum_rule(config: RunConfig) -> list[CheckRecord]:
    """sum over |kappa| = k of C_kappa(x) equals (tr x)^k.

    Each layer is evaluated on all spectra of one d at once; every row of
    the stack equals the one-point :func:`zonal_layer` values, and it is
    summed in table order.
    """
    worst = 0.0
    n_spectra = 100
    for d in range(1, 6):
        rng = _rng(config, 2, d)
        spectra = rng.uniform(0.0, 3.0, size=(n_spectra, d))
        traces = [float(np.sum(eigs)) for eigs in spectra]
        for k in range(1, 7):
            for row, trace in zip(_layer_values(spectra, k)[1].tolist(), traces):
                target = trace**k
                worst = max(worst, abs(sum(row) - target) / target)
    detail = f"d <= 5, k <= 6, {n_spectra} random nonnegative spectra per d"
    return [_gated("zonal-sum-rule", worst, 1e-10, Provenance.SERIES, detail)]


def check_zonal_identity_values(config: RunConfig) -> list[CheckRecord]:
    """Series layers at the identity spectrum match the closed-form C_kappa(I_d)."""
    worst = 0.0
    compared = 0
    for d in range(1, 6):
        for weight in range(0, 13):
            for kap, value in zonal_layer(np.ones(d), weight).items():
                exact = float(c_kappa_identity(kap, d))
                worst = max(worst, abs(value - exact) / exact)
                compared += 1
    detail = f"{compared} (kappa, d) pairs, |kappa| <= 12, d <= 5, float layers"
    return [_gated("zonal-identity-values", worst, 1e-14, Provenance.CLOSED_FORM, detail)]


def check_zonal_lemma_mc(config: RunConfig) -> list[CheckRecord]:
    """Minor-shift and inverse-reversal identities pointwise; Haar averages
    and the trailing-part reduction, by an exact cubature on the rotation
    group, against the closed-form Phi_kappa."""
    max_dev = 0.0
    max_rel = 0.0
    for i in range(20):
        rng = _rng(config, 4, i)
        d = 2 + (i % 2)
        kappa = tuple(int(v) for v in sorted(rng.integers(0, 4, size=d), reverse=True))
        if sum(kappa) == 0:
            kappa = (1,) + (0,) * (d - 1)
        x = _spd(rng, d, 0.4, 2.5)
        power = float(rng.uniform(0.5, 2.0))
        for check in zonal_lemma_checks(x, kappa, power=power):
            if check.name in ("minor_power_shift", "inverse_reversal"):
                max_dev = max(max_dev, abs(check.value - check.expected))
            else:
                max_rel = max(max_rel, abs(check.value - check.expected) / abs(check.expected))
    return [
        _gated(
            "zonal-lemma-pointwise", max_dev, 1e-10, Provenance.CLOSED_FORM,
            "minor power shift and inverse reversal, max relative deviation",
        ),
        # roundoff bound: at |kappa| <= 9 and cond(x) <= 6.25 each node's
        # value is good to about 5,200 eps, the sum over at most 3,610
        # nodes adds 3,610 eps and the closed form about 600 eps
        _gated(
            "zonal-lemma-cubature", max_rel, 1e4 * np.finfo(float).eps, Provenance.QUADRATURE,
            "Haar average and trailing-part reduction against C_kappa(x) / C_kappa(I), "
            "20 triples, d in (2, 3), cubature of degree 2|kappa| on SO(d), max relative deviation",
        ),
    ]


# ---------------------------------------------------------------------------
# d = 2 critical shape quadrature


# The rule of m122_lt_quadrature: Gauss-Legendre panels in rho and in x,
# with _QUAD_ORDER points each, and _QUAD_N_THETA trapezoid points in angle.
_QUAD_N_RHO = 18
_QUAD_N_X = 18
_QUAD_ORDER = 8
_QUAD_N_THETA = 64
# The reference rule on [-1, 1], built once.
_LEGENDRE_X, _LEGENDRE_W = np.polynomial.legendre.leggauss(_QUAD_ORDER)


def _panel_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of _QUAD_ORDER-point Gauss-Legendre panels on [a, b], panel by panel."""
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (half * _LEGENDRE_X + 0.5 * (hi + lo)).ravel(), (half * _LEGENDRE_W).ravel()


# The rule of m111_lt_quadrature: _M111_PANELS panels on t in
# 1/s +- _M111_HALF_WIDTH / sqrt(s), clipped at 0.  In u = sqrt(s) t the
# integrand is e^(1/s) (e^(-(u - a)^2) + e^(-(u + a)^2)) with a = 1/sqrt(s),
# so every s gets the same picture: unit-width Gaussians on a window of at
# most 2 * 6 = 12 widths, which drops erfc(6) / 2 = 1e-17 of the integral.
# On a panel of width h (in u) the 8-point Gauss-Legendre error is at most
# h^17 (8!)^4 / (17 (16!)^3) max |d^16/du^16 e^(-u^2)|, with the maximum
# 16!/8! = 5.2e8 at u = 0.  Summed over both Gaussians and P panels of
# h = 12 / P, and divided by the integral sqrt(pi) e^(1/s), this is
# 4.8e-13 at P = 11, the fewest panels with a bound below 1e-12.
_M111_HALF_WIDTH = 6.0
_M111_PANELS = 11


def m111_lt_quadrature(s: float) -> float:
    """1-D quadrature of the m(1, 1, 1) density transform at s > 0.

    With lam = t^2 the transform is the integral over t > 0 of
    2 t m111_density(t^2) e^(-s t^2) = (e^(2t - s t^2) + e^(-2t - s t^2)) / sqrt(pi),
    evaluated with each exponent combined, so no term leaves the double
    range unless the transform s^(-1/2) e^(1/s) does.  A non-finite or
    nonpositive s, or a transform beyond the double range (s below about
    1.42e-3), raises DomainError.
    """
    if not 0.0 < s < math.inf:
        raise DomainError("need finite s > 0")
    log_transform = 1.0 / s - 0.5 * math.log(s)
    if log_transform > _LOG_DOUBLE_MAX:
        raise DomainError(f"the transform exceeds the double range: its log is {log_transform:.6g}")
    half = _M111_HALF_WIDTH / math.sqrt(s)
    t, w = _panel_rule(max(0.0, 1.0 / s - half), 1.0 / s + half, _M111_PANELS)
    damp = -s * t * t
    # with 1/sqrt(pi) in the weights no partial sum exceeds the transform
    with np.errstate(over="ignore"):
        val = float((w / math.sqrt(math.pi)) @ (np.exp(2.0 * t + damp) + np.exp(damp - 2.0 * t)))
    if not math.isfinite(val):
        raise DomainError("the transform exceeds the double range")
    return val


def m122_lt_quadrature(a: float, b: float, c: float) -> float:
    """3-D quadrature of the decomposed m(1, 2, 2) transform.

    Integrates exp(-2(ax + by + cz)) against the singular sheet plus the
    interior density in the polar coordinates (x, rho, theta) of the cone
    of revolution: Gauss-Legendre panels in x and rho, trapezoid in the
    periodic angle.  The interior density is one call of m122_ac_density's
    kernel on the whole (rho, x) node grid, _QUAD_N_RHO * _QUAD_ORDER by
    _QUAD_N_X * _QUAD_ORDER points.  The grid, its weights and the density
    values live in the thread's workspace (measures._Workspace), so a call
    allocates no grid-sized array.  Requires a > sqrt(b^2 + c^2) with
    enough margin for the truncated domain to carry the mass.
    """
    beta = math.hypot(b, c)
    margin = a - beta
    if margin <= 0:
        raise DomainError("need a > sqrt(b^2 + c^2)")
    rho_max = 9.0 / margin
    x_tail = 9.0 / a + 8.0 / (a * a)

    theta = np.linspace(0.0, 2.0 * math.pi, _QUAD_N_THETA, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    rho, w_rho = _panel_rule(0.0, rho_max, _QUAD_N_RHO)
    # angular factor integral(exp(-2 rho (b cos + c sin))) d theta
    ang = (2.0 * math.pi) * np.exp(
        -2.0 * rho[:, None] * (b * cos_t + c * sin_t)[None, :]
    ).mean(axis=1)

    sheet = float(
        np.sum(
            w_rho
            * np.exp(-2.0 * a * rho)
            * np.array([m122_singular_density(r, 0.0) for r in rho])
            * rho
            * ang
        )
    )

    t_nodes, w_t = _panel_rule(0.0, x_tail, _QUAD_N_X)
    with _WORKSPACE.frame() as take:
        # One density call on the whole (rho, x) grid; row i is the x line at rho[i].
        xs = np.add(rho[:, None], t_nodes, out=take(rho.size * t_nodes.size).reshape(rho.size, t_nodes.size))
        density = _ac_density(xs, rho[:, None], 0.0, take(xs.size)).reshape(xs.shape)
        # the weights exp(-2 a xs) overwrite xs, which the density has done with
        weights = np.exp(np.multiply(-2.0 * a, xs, out=xs), out=xs)
        inner = np.multiply(weights, density, out=weights) @ w_t
    interior = float(np.sum(w_rho * rho * ang * inner))
    return sheet + interior


def check_d2_roundtrip(config: RunConfig) -> list[CheckRecord]:
    """Quadrature of sheet + interior density against the closed transform."""
    points = [
        (1.0, 0.2, 0.1),
        (1.5, -0.4, 0.3),
        (2.0, 0.0, 0.0),
        (1.2, 0.5, -0.5),
        (2.5, 1.0, 0.8),
    ]
    worst = 0.0
    for a, b, c in points:
        closed = m122_laplace_cone(a, b, c)
        quad_val = m122_lt_quadrature(a, b, c)
        worst = max(worst, float(abs(quad_val - closed) / closed))
    detail = f"{len(points)} interior points, polar-coordinate panels"
    return [_gated("d2-roundtrip", worst, 1e-3, Provenance.QUADRATURE, detail)]


def check_m111_lt(config: RunConfig) -> list[CheckRecord]:
    """1-D density transform against s^(-1/2) exp(1/s)."""
    worst = 0.0
    for s in (0.5, 1.0, 2.0, 5.0):
        closed = s**-0.5 * math.exp(1.0 / s)
        worst = max(worst, abs(m111_lt_quadrature(s) - closed) / closed)
    return [_gated("m111-lt", worst, 1e-8, Provenance.QUADRATURE, "s in (0.5, 1, 2, 5)")]


# ---------------------------------------------------------------------------
# Critical-shape split


def check_fd_split(config: RunConfig) -> list[CheckRecord]:
    """singular_r_laplace + lt_fd_series against laplace_m, with a weight sweep.

    Each half is one layer walk through weight 40, the walk of
    singular_r_laplace and lt_fd_series without their stop rule; the sweep
    reads its partial sums from the running totals.
    """
    records = []
    sweep = (8, 16, 24, 32, 40)
    for d in (2, 3):
        rng = _rng(config, 7, d)
        worst_final = 0.0
        monotone = True
        for _ in range(10):
            s = _spd(rng, d, 0.6, 3.0)
            exact = laplace_m(s, (float(d - 1), d, d))
            inv_eigs, prefactor = _split_series_at_inverse(s, d)
            r, fd = [
                list(itertools.accumulate(itertools.islice(_weighted_layers(inv_eigs, mask), sweep[-1] + 1)))
                for mask in (_remainder_kappas, _fd_kappas)
            ]
            errors = [float(abs(prefactor * r[w] + prefactor * fd[w] - exact) / exact) for w in sweep]
            # all layer terms are nonnegative, so errors shrink with the
            # cutoff; allow roundoff jitter once both sit at machine level
            for lo, hi in zip(errors[1:], errors[:-1]):
                if lo > hi + 1e-13:
                    monotone = False
            worst_final = max(worst_final, errors[-1])
        detail = (
            "10 random s, weight sweep "
            + "/".join(str(w) for w in sweep)
            + (", errors monotone" if monotone else ", MONOTONICITY VIOLATED")
        )
        records.append(
            _gated(f"fd-split-d{d}", worst_final, 1e-8, Provenance.SERIES, detail, holds=monotone)
        )
    return records


# ---------------------------------------------------------------------------
# Sampler agreement


def check_sampler_lt(config: RunConfig) -> list[CheckRecord]:
    """Empirical and importance-weighted transforms against the closed forms.

    The 10 NCW and 5 weighted items run as one pool map.  Every item takes
    the same number of draws, so its cost is the normals per draw, n * d.
    """
    n_draws = 10 * config.trials

    ncw_configs = []
    for i in range(10):
        rng = _rng(config, 8, i)
        d = 1 + (i % 4)
        n = int(rng.integers(1, 5))
        r = int(rng.integers(0, min(n, d) + 1))
        vecs = rng.standard_normal((r, d))
        w = 0.3 * (vecs.T @ vecs) if r else np.zeros((d, d))
        sigma = _spd(rng, d, 0.5, 2.0)
        s = _spd(rng, d, 0.05, 0.5)
        ncw_configs.append((i, NcwParams(float(n), w, sigma), s))

    def run_ncw(item):
        i, params, s = item
        draws = ncw_sample(params, n_draws, _rng(config, 80, i))
        est = empirical_laplace(draws, s)
        closed = laplace_ncw(s, params)
        return abs(est.estimate - closed) / est.std_error

    weighted_specs = [
        MeasureSpec(2.0, 1, 2),
        MeasureSpec(2.0, 2, 2),
        MeasureSpec(3.0, 0, 3),
        MeasureSpec(3.0, 2, 3),
        MeasureSpec(4.0, 3, 4),
    ]

    def run_weighted(item):
        i, spec = item
        rng = _rng(config, 81, i)
        s = 0.6 * np.eye(spec.dim) + _spd(rng, spec.dim, 0.05, 0.4)
        sample = m_measure_sample(spec, n_draws, rng)
        est = weighted_laplace_estimate(sample, s)
        closed = laplace_m(s, spec)
        return abs(est.estimate - closed) / est.std_error

    items = [(run_ncw, c) for c in ncw_configs] + [(run_weighted, c) for c in enumerate(weighted_specs)]
    costs = [p.shape * p.dim for _, p, _ in ncw_configs] + [spec.shape * spec.dim for spec in weighted_specs]
    z = _map_items(config, items, lambda item: item[0](item[1]), costs)
    return [
        _gated(
            "sampler-lt-ncw", max(z[:10]), 4.0, Provenance.MONTE_CARLO,
            f"10 random (s, w, sigma, n), d <= 4, N = {n_draws}",
        ),
        _gated(
            "sampler-lt-weighted", max(z[10:]), 4.0, Provenance.MONTE_CARLO,
            f"5 canonical measures at s > 0.6 I, N = {n_draws}",
        ),
    ]


# ---------------------------------------------------------------------------
# Rank support


def _singular_r_ratio(d: int, trials: int, rng: np.random.Generator) -> float:
    """The largest |lambda_1| / lambda_d over singular_r_sample draws."""
    eigs = np.linalg.eigvalsh(singular_r_sample(d, trials, rng).draws)
    return float(np.max(np.abs(eigs[:, 0]) / eigs[:, -1]))


def check_rank_support(config: RunConfig) -> list[CheckRecord]:
    """Support statements as rank counts, and the structural zero of the rank-(d-1) part.

    The 11 experiments run as one pool map, each on its own (seed, 9, i)
    stream; their batched SVD and eigvalsh calls release the GIL.
    """
    trials = config.trials
    s3 = MeasureSpec(1.0, 1, 3)
    # (i, cost, experiment).  The cost is draws * d^3, doubled for the SVD
    # of items 0-2; the batched factorisations dominate.  At the default
    # trials on one thread the items took, in ms (medians of 7 calls, in
    # three processes): 0: 23-41, 1: 31-32, 2: 2.6, 3: 12.5-13.5,
    # 4: 10-11, 5: 1.2-1.8, 6: 10-14, 7: 1.4-1.5, 12: 3.6-3.7,
    # 13: 10.6-10.7, 14: 19.6-19.7.  The costs put 0 and 1 first and 2, 5,
    # 7 and 12 last, as the times do; they tie 14 with 3, which takes two
    # thirds of its time.
    experiments = [
        (0, 2 * 4**3 * trials, lambda rng: subspace_intersection_experiment(4, 2, 2, trials, rng)),
        (1, 2 * 5**3 * trials, lambda rng: subspace_intersection_experiment(5, 2, 3, trials, rng)),
        (2, 2 * 4**3 * 2000, lambda rng: subspace_intersection_experiment(
            4, 2, 2, 2000, rng, degenerate_control=True)),
        (3, 4**3 * trials, lambda rng: rank_additivity_experiment(
            np.diag([1.0, 0, 0, 0]), np.diag([1.0, 1.0, 0, 0]), trials, rng).off_target(3)),
        (4, 3**3 * trials, lambda rng: rank_additivity_experiment(
            np.diag([1.0, 1.0, 0]), np.diag([1.0, 1.0, 0]), trials, rng).off_target(3)),
        (5, 3**3 * 2000, lambda rng: rank_additivity_experiment(
            np.diag([1.0, 1.0, 0]), np.zeros((3, 3)), 2000, rng).off_target(2)),
        (6, 3**3 * trials, lambda rng: convolution_support_experiment(s3, 1, trials, rng).off_target(2)),
        (7, 3**3 * 2000, lambda rng: convolution_support_experiment(s3, 0, 2000, rng).off_target(1)),
    ] + [(10 + d, d**3 * trials, lambda rng, d=d: _singular_r_ratio(d, trials, rng)) for d in (2, 3, 4)]
    hit_a, hit_b, control, *add, conv_a, conv_b, r2, r3, r4 = _map_items(
        config, experiments, lambda item: item[2](_rng(config, 9, item[0])), [item[1] for item in experiments]
    )
    return [
        _gated(
            "rank-support-subspace", max(hit_a, hit_b), 0.0, Provenance.MONTE_CARLO,
            f"(d,n,k) = (4,2,2) and (5,2,3), {trials} trials each; "
            f"degenerate control hit rate {control}",
            holds=control == 1.0,
        ),
        _gated(
            "rank-support-additivity", sum(add), 0.0, Provenance.MONTE_CARLO,
            f"(d,a,b) = (4,1,2), (3,2,2), and a zero summand, {trials} trials",
        ),
        _gated(
            "rank-support-convolution", conv_a + conv_b, 0.0, Provenance.MONTE_CARLO,
            f"shape 1 rank 1 plus central shape 1 in d = 3, {trials} trials; "
            "zero summand control",
        ),
        # Each draw u [x 0; 0 0] u^T has one structural zero eigenvalue.
        # Roundoff bounds |lambda_1| / lambda_d by (2 (d-1)^(5/2) + d^2) eps:
        # the two length-(d-1) dot products of the conjugation and eigvalsh's
        # backward error.  The bound grows with d, so the gate is its d = 4
        # value.
        _gated(
            "rank-support-singular-r", max(0.0, r2, r3, r4),
            (2.0 * 3.0**2.5 + 16.0) * np.finfo(float).eps, Provenance.MONTE_CARLO,
            f"d in (2, 3, 4), {trials} draws each; value is the largest "
            "|lambda_1| / lambda_d, the structural zero eigenvalue against "
            "the largest; tolerance is the d = 4 roundoff bound",
        ),
    ]


# ---------------------------------------------------------------------------
# Derivative identities


def check_faa_di_bruno(config: RunConfig) -> list[CheckRecord]:
    """Closed-form derivative identities, exact and by finite differences."""
    points = [(1.5, 0.5, 0.5), (0.8, 0.3, -0.2), (2.0, 1.0, 0.0)]
    mismatches = 0
    worst_fd = 0.0
    for n in range(1, 11):
        for pt in points:
            check = faa_di_bruno_check(n, pt)
            if not check.matches:
                mismatches += 1
            if n <= 8:
                worst_fd = max(worst_fd, check.fd_rel_error)
    return [
        _gated(
            "faa-exact", mismatches, 0.0, Provenance.CLOSED_FORM,
            f"n = 1..10 at {len(points)} points, rational arithmetic",
        ),
        _gated("faa-finite-difference", worst_fd, 1e-6, Provenance.QUADRATURE, "(2n+1)-point stencils, n <= 8"),
    ]


# ---------------------------------------------------------------------------
# Suites


CHECKS: dict[str, Callable[[RunConfig], list[CheckRecord]]] = {
    "existence-table": check_existence_table,
    "zonal-sum-rule": check_zonal_sum_rule,
    "zonal-identity-values": check_zonal_identity_values,
    "zonal-lemma-mc": check_zonal_lemma_mc,
    "d2-roundtrip": check_d2_roundtrip,
    "m111-lt": check_m111_lt,
    "fd-split": check_fd_split,
    "sampler-lt": check_sampler_lt,
    "rank-support": check_rank_support,
    "faa-di-bruno": check_faa_di_bruno,
}

SUITES: dict[str, tuple[str, ...]] = {
    "zonal": ("zonal-sum-rule", "zonal-identity-values", "zonal-lemma-mc"),
    "d2": ("d2-roundtrip", "m111-lt", "faa-di-bruno"),
    "fd": ("fd-split",),
    "support": ("existence-table", "sampler-lt", "rank-support"),
}
SUITES["all"] = tuple(CHECKS)


def run_suite(suite: str, config: RunConfig | None = None) -> Report:
    """Run a named suite and return its Report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    config = config or RunConfig()
    report = Report(
        command=f"verify --suite {suite}",
        inputs={"suite": suite, "seed": config.seed, "trials": config.trials},
    )
    start = time.perf_counter()
    for name in SUITES[suite]:
        report.results.extend(CHECKS[name](config))
    report.timing = time.perf_counter() - start
    return report
