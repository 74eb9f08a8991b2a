import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from ncwishart import (
    ConePoint2,
    DomainError,
    MeasureSpec,
    NcwParams,
    RunConfig,
    TruncationError,
    VerdictReason,
    density_fd,
    density_m_fullrank,
    exists_m,
    exists_ncw,
    faa_di_bruno_check,
    laplace_m,
    laplace_ncw,
    lt_fd_series,
    m111_density,
    m122_ac_density,
    m122_laplace_cone,
    m122_singular_density,
    phi2,
    reduce_to_canonical,
    singular_r_laplace,
)
import ncwishart
from ncwishart import measures, zonal
from ncwishart.measures import _fd_stencil_weights, _log_multivariate_gammas, _sum_weight_layers
from ncwishart.symcore import sym_entries
from ncwishart.zonal import c_kappa_identity, multivariate_gamma, zonal_layer


def spd(rng, d, lo=0.5, hi=2.5):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


# ---------------------------------------------------------------------------
# Existence


@pytest.mark.parametrize(
    "shape,k,d,expected",
    [
        (1.0, 2, 3, False),  # integer ladder: rank above the shape
        (1.0, 1, 3, True),
        (1.0, 0, 3, True),
        (2.0, 2, 4, True),
        (2.0, 3, 4, False),
        (4.5, 5, 5, True),
        (4.5, 0, 5, True),
        (1.0, 2, 2, True),  # d = 2: everything from shape 1 up
        (0.5, 0, 2, False),
        (1.5, 1, 3, False),  # non-integer below d-1
        (0.25, 0, 1, True),  # d = 1: every positive shape
        (3.0, 3, 3, True),
    ],
)
def test_existence_table(shape, k, d, expected):
    assert bool(exists_m(shape, k, d)) is expected


def test_existence_verdict_carries_reason_and_clause():
    verdict = exists_m(1.0, 2, 3)
    assert not verdict
    assert verdict.reason is VerdictReason.RANK_EXCEEDS_SHAPE
    assert "rank 2" in verdict.clause

    ok = exists_m(4.5, 3, 5)
    assert ok.reason is VerdictReason.OK_CONTINUOUS_SHAPE

    ladder = exists_m(2.0, 1, 4)
    assert ladder.reason is VerdictReason.OK_INTEGER_SHAPE

    assert not exists_m(-1.0, 0, 3)
    assert exists_m(-1.0, 0, 3).clause == "shape -1.0 is not positive"
    for shape in (math.inf, -math.inf, math.nan):
        verdict = exists_m(shape, 1, 3)
        assert not verdict and verdict.reason is VerdictReason.SHAPE_NOT_IN_LAMBDA
        assert verdict.clause == f"shape {shape} is not finite"
    with pytest.raises(ValueError):
        exists_m(1.0, 4, 3)
    with pytest.raises(ValueError):
        exists_m(1.0, 0, 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MeasureSpec(2.0, 1.5, 2),
        lambda: MeasureSpec(2.0, 1, 2.0),
        lambda: MeasureSpec.of((2.0, 1.7, 2)),
        lambda: exists_m(1.0, 0.5, 3),
        lambda: RunConfig(seed=1.5),
        lambda: RunConfig(trials=2.0),
        lambda: RunConfig(threads=1.5),
    ],
    ids=["spec-rank", "spec-dim", "spec-of", "exists_m-rank", "seed", "trials", "threads"],
)
def test_counts_must_be_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_counts_accept_numpy_integers():
    spec = MeasureSpec(2.0, np.int64(1), np.int32(2))
    assert (type(spec.rank), type(spec.dim)) == (int, int)
    assert exists_m(1.0, np.int64(1), np.int64(3)).rank == 1
    assert RunConfig(seed=np.int64(-1), threads=np.int8(2)).seed == -1


@given(
    shape=st.floats(min_value=0.1, max_value=8.0),
    k=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=4),
)
def test_existence_monotone_in_rank(shape, k, d):
    """Shrinking the rank never destroys existence."""
    k = min(k, d)
    if exists_m(shape, k, d):
        for smaller in range(k):
            assert exists_m(shape, smaller, d)
    if shape >= d - 1:
        assert exists_m(shape, k, d)


def test_exists_ncw_uses_rank_of_w():
    w = np.zeros((3, 3))
    w[2, 2] = 1.0
    assert exists_ncw(NcwParams(1.0, w))
    w[1, 1] = 1.0
    assert not exists_ncw(NcwParams(1.0, w))


def test_ncw_params_validation():
    with pytest.raises(ValueError):
        NcwParams(0.0, np.eye(2))
    with pytest.raises(ValueError):
        NcwParams(1.0, np.diag([1.0, -0.2]))
    with pytest.raises(ValueError):
        NcwParams(1.0, np.eye(2), np.diag([1.0, 0.0]))
    for make in (
        lambda: NcwParams(math.inf, np.eye(2)),
        lambda: MeasureSpec(math.inf, 0, 2),
        lambda: laplace_m(np.eye(2), (math.inf, 0, 2)),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()
    with pytest.raises(DomainError, match="finite shape"):
        density_m_fullrank(np.eye(2), math.nan)
    # every weight underflows to exactly 0 (at 1e306 lgamma overflows to +inf)
    for shape in (1e300, 1e306):
        with pytest.raises(DomainError, match="underflows to 0"):
            density_m_fullrank(np.eye(2), shape)
    p = NcwParams(2.0, 0.5 * np.eye(2))
    assert np.allclose(p.mean(), 2.0 * np.eye(2) + np.eye(2))


# ---------------------------------------------------------------------------
# Laplace transforms


def test_laplace_m_reference_points():
    assert laplace_m(2.0 * np.eye(2), (1.0, 2, 2)) == pytest.approx(math.e / 2, rel=1e-14)
    for d in (1, 2, 3):
        for k in range(d + 1):
            assert laplace_m(np.eye(d), (2.0, k, d)) == pytest.approx(math.exp(k), rel=1e-13)
            n = 1.5
            expected = 2.0 ** (-d * n / 2) * math.exp(k / 2)
            assert laplace_m(2.0 * np.eye(d), (n, k, d)) == pytest.approx(expected, rel=1e-13)


def test_laplace_m_input_checks():
    with pytest.raises(DomainError):
        laplace_m(np.diag([1.0, -1.0]), (2.0, 1, 2))
    with pytest.raises(ValueError):
        laplace_m(np.eye(3), (2.0, 1, 2))


def test_laplace_ncw_scalar_case():
    # d = 1: (1 + 2 sigma s)^(-p) exp(-2 s w / (1 + 2 sigma s))
    n, w, sigma = 1.5, 0.7, 1.3
    for s in (0.2, 1.0, 3.0):
        val = laplace_ncw(np.array([[s]]), NcwParams(n, [[w]], [[sigma]]))
        expected = (1 + 2 * sigma * s) ** (-n / 2) * math.exp(-2 * s * w / (1 + 2 * sigma * s))
        assert val == pytest.approx(expected, rel=1e-13)


def test_laplace_ncw_semigroup_in_shape_and_noncentrality(rng):
    d = 3
    sigma = spd(rng, d)
    w1 = 0.4 * spd(rng, d, 0.1, 1.0)
    w2 = np.zeros((d, d))
    w2[0, 0] = 0.8
    s = spd(rng, d, 0.05, 0.6)
    lhs = laplace_ncw(s, NcwParams(1.0, w1, sigma)) * laplace_ncw(s, NcwParams(2.5, w2, sigma))
    rhs = laplace_ncw(s, NcwParams(3.5, w1 + w2, sigma))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplace_ncw_orthogonal_equivariance(rng):
    d = 3
    params = NcwParams(2.0, 0.3 * spd(rng, d, 0.1, 1.0), spd(rng, d))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotated = NcwParams(2.0, u @ params.w @ u.T, u @ params.sigma @ u.T)
    for _ in range(3):
        s = spd(rng, d, 0.05, 0.8)
        assert laplace_ncw(s, rotated) == pytest.approx(
            laplace_ncw(u.T @ s @ u, params), rel=1e-11
        )


def test_laplace_ncw_domain_error():
    params = NcwParams(2.0, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        laplace_ncw(np.diag([-0.6, 0.1]), params)


def test_laplace_beyond_double_range_is_a_domain_error():
    for s, spec in ((np.diag([1e-3, 1.0]), (1, 2, 2)), (np.diag([1e-300, 1.0]), (3, 0, 2))):
        with pytest.raises(DomainError, match="log is"):
            laplace_m(s, spec)
    with pytest.raises(DomainError, match="log is"):
        laplace_ncw(np.diag([-0.4999999, 1.0]), NcwParams(1.0, np.diag([1e3, 0.0])))


@pytest.mark.parametrize(
    "fn, args",
    [
        (m122_laplace_cone, (1.0, 0.9999999999, 0.0)),
        (lt_fd_series, (1e-300 * np.eye(3), 3)),
        (singular_r_laplace, (1e-300 * np.eye(3), 3)),
        (density_m_fullrank, (1e-300 * np.eye(3), 2.5)),
    ],
)
def test_factor_beyond_double_range_is_a_domain_error(fn, args):
    with pytest.raises(DomainError, match="exceeds the double range: its log is"):
        fn(*args)


def test_reduce_to_canonical_normalizes_and_preserves_transform(rng):
    d = 3
    vecs = rng.standard_normal((2, d))
    params = NcwParams(3.2, 0.5 * vecs.T @ vecs, spd(rng, d))
    red = reduce_to_canonical(params)
    assert red.rank == 2
    m = 0.5 * np.linalg.solve(params.sigma, np.linalg.solve(params.sigma, params.w).T).T
    target = np.diag([0.0] * (d - red.rank) + [1.0] * red.rank)
    assert np.allclose(red.q @ m @ red.q.T, target, atol=1e-10)

    b = np.linalg.inv(2.0 * params.sigma)
    spec = red.spec()
    for _ in range(3):
        s = spd(rng, d, 0.05, 0.7)
        direct = laplace_ncw(s, params)
        via_m = laplace_m(red.q @ (s + b) @ red.q.T, spec) / laplace_m(red.q @ b @ red.q.T, spec)
        assert direct == pytest.approx(via_m, rel=1e-10)


def test_reduce_to_canonical_flags_ambiguous_split():
    # M = w / 2: the default tolerance, 3 eps = 6.7e-16, keeps 1e-15 and drops 1e-18,
    # which is above 1e-6 of the smallest kept eigenvalue: ambiguous
    w = np.diag([2e-18, 2e-15, 2.0])
    red = reduce_to_canonical(NcwParams(1.0, w))
    assert red.rank == 2
    assert red.warning is not None and "ill-conditioned" in red.warning
    clean = reduce_to_canonical(NcwParams(1.0, np.diag([0.0, 1.0])))
    assert clean.rank == 1 and clean.warning is None


def test_reduction_and_existence_read_one_rank():
    # rank(w) = 2 at w's own scale, while M = diag(5e5, 5e-15, 0) has its second
    # eigenvalue below 3 eps of its largest
    p = NcwParams(1.0, np.diag([1.0, 1e-14, 0.0]), np.diag([1e-3, 1.0, 1.0]))
    assert exists_ncw(p).rank == reduce_to_canonical(p).rank == 2
    assert not exists_ncw(p)
    # rotated, M's second eigenvalue is lost to rounding: a DomainError, not rank 1
    c = math.sqrt(0.5)
    r = np.array([[c, -c], [c, c]])
    p = NcwParams(1.0, np.diag([1.0, 1e-14]), r @ np.diag([1e-6, 1.0]) @ r.T)
    assert exists_ncw(p).rank == 2
    with pytest.raises(DomainError, match="too ill-conditioned to keep rank"):
        reduce_to_canonical(p)
    with pytest.raises(DomainError, match="exceeds the double range"):
        reduce_to_canonical(NcwParams(1.0, 1e300 * np.eye(2), 1e-10 * np.eye(2)))


def _rotation(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


# q M q^T - I(k, d) at entry (i, j) is bounded in units of
# d eps cond(sigma)^2 ||M|| s_i s_j, with s_i the row norms of q: the two solves
# that form M err by about eps cond(sigma) ||M||, and the eigenvalues of w at or
# below its rank tolerance, d eps ||w||, reach M as at most that unit.  The
# largest seen over 12,000 random cases was 3 units.
_REDUCTION_RESIDUAL_UNITS = 16


@settings(max_examples=200)
@given(
    d=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_reduction_rank_is_the_existence_and_sampler_rank(d, data):
    """Over w spread up to 1e8 and sigma conditioned up to 1e4, one rank for all three."""
    k = data.draw(st.integers(min_value=0, max_value=d))
    w_logs = data.draw(st.lists(st.floats(0.0, 8.0), min_size=k, max_size=k))
    sigma_logs = data.draw(st.lists(st.floats(0.0, 4.0), min_size=d, max_size=d))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = _rotation(rng, d)
    # sigma with w's eigenvectors meets w's spread head on: M's spread reaches 1e16
    v = u if data.draw(st.booleans()) else _rotation(rng, d)
    w = u @ np.diag([0.0] * (d - k) + [10.0**e for e in w_logs]) @ u.T
    p = NcwParams(float(d), w, v @ np.diag([10.0**e for e in sigma_logs]) @ v.T)
    rank = exists_ncw(p).rank
    means = ncwishart.decompose_w(2.0 * p.w, d)
    assert np.count_nonzero(np.any(means != 0.0, axis=1)) == rank
    try:
        red = reduce_to_canonical(p)
    except DomainError:
        return
    assert red.rank == rank
    assert np.all(np.isfinite(red.q))
    sigma_inv = np.linalg.inv(p.sigma)
    m = 0.5 * sigma_inv @ p.w @ sigma_inv
    sigma_eigs = np.linalg.eigvalsh(p.sigma)
    s = np.linalg.norm(red.q, axis=1)
    unit = (
        d * np.finfo(float).eps * (sigma_eigs[-1] / sigma_eigs[0]) ** 2
        * np.linalg.norm(m, 2) * np.outer(s, s)
    )
    target = np.diag([0.0] * (d - rank) + [1.0] * rank)
    assert np.all(np.abs(red.q @ m @ red.q.T - target) <= _REDUCTION_RESIDUAL_UNITS * unit)


# ---------------------------------------------------------------------------
# Series densities and the critical-shape split


def test_density_d1_matches_bessel_closed_form():
    # at d = 1 the series is x^(n/4 - 1/2) I_{n/2-1}(2 sqrt(x))
    for n in (1.0, 2.0, 3.5):
        for x in (0.3, 1.0, 4.2):
            val = density_m_fullrank(np.array([[x]]), n)
            expected = x ** (n / 4 - 0.5) * special.iv(n / 2 - 1, 2 * math.sqrt(x))
            assert val == pytest.approx(expected, rel=1e-10)
    assert m111_density(0.8) == pytest.approx(density_m_fullrank([[0.8]], 1.0), rel=1e-10)


def test_density_fullrank_domain():
    with pytest.raises(DomainError):
        density_m_fullrank(np.eye(3), 1.5)  # below the critical shape
    with pytest.raises(DomainError):
        density_m_fullrank(np.diag([1.0, 0.0]), 3.0)


def _fd_by_minor_shift(t, max_lowered_weight=30):
    # f_d summed over lowered partitions kappa - 1 of weight w - d, each term
    # rewritten by C_kappa(t) (det t)^(-1) = [C_kappa(I)/C_{kappa-1}(I)] C_{kappa-1}(t)
    eigs = np.linalg.eigvalsh(t)
    d = eigs.size
    total = 0.0
    for v in range(max_lowered_weight + 1):
        for lowered, c in zonal_layer(eigs, v).items():
            kappa = tuple(m + 1 for m in lowered) + (1,) * (d - len(lowered))
            ratio = c_kappa_identity(kappa, d) / c_kappa_identity(lowered, d)
            log_gamma = multivariate_gamma((d - 1) / 2.0, d, kappa, log=True)
            total += float(ratio) * c * math.exp(-log_gamma - math.lgamma(v + d + 1))
    return 2.0 ** (-d * (d - 1) / 4.0) * total


def test_density_fd_stable_route_matches_raw_series(rng):
    for d in (2, 3):
        for _ in range(3):
            t = spd(rng, d, 0.4, 2.0)
            assert density_fd(t) == pytest.approx(_fd_by_minor_shift(t), rel=1e-9)
    with pytest.raises(DomainError):
        density_fd(np.array([[1.0]]))  # the boundary density needs d >= 2


def test_density_fd_decomposes_t_once(monkeypatch, rng):
    calls = []
    real = measures._pd_eigenvalues
    monkeypatch.setattr(measures, "_pd_eigenvalues", lambda x, name: calls.append(name) or real(x, name))
    for d in (2, 3, 4):
        t = spd(rng, d, 0.4, 2.0)
        calls.clear()
        value = density_fd(t)
        assert calls == ["t"]
        assert value == density_m_fullrank(t, d - 1)


# Orthogonal invariance of the four zonal series, at x and at q x q^T.  The
# bound was fixed before any example ran.  Both matrices are formed in
# floating point, q is orthogonal to a few eps, and eigvalsh is backward
# stable, so the two computed spectra differ by at most about 8 d eps ||x||
# per eigenvalue: a relative change delta <= 8 d eps cond(x).  A layer of
# weight w is a sum of nonnegative terms homogeneous of degree w in the
# eigenvalues (the monomial coefficients of C_kappa and every weight are
# nonnegative), so it moves by at most w delta relative, and w <= 64, the
# series cap.  The determinant factors have exponents of size at most d / 2,
# a further d^2 / 2 delta.  The coefficient tables and the weights are the
# same for both points, so what else differs is the rounding of the gathers
# and sums of nonnegative terms, each at most (terms - 1) eps relative:
# under 2,048 eps per evaluation at d <= 4 and weight <= 64.  The bound
# takes both series to stop at the same weight; each tests its layers
# against 1e-10 of the total, and the two totals differ by about delta, so
# a split stop is a chance of order 1e-12 per example.
def _invariance_bound(d: int, cond: float) -> float:
    eps = np.finfo(float).eps
    return 8 * d * eps * cond * (64 + d * d / 2) + 2 * 2048 * eps


@given(d=st.integers(min_value=2, max_value=4), data=st.data())
def test_zonal_series_are_orthogonally_invariant(d, data):
    eigs = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d)))
    shape = data.draw(st.floats(d - 1.0, d + 1.0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    q0, q = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    x = q0 @ np.diag(eigs) @ q0.T
    y = q @ x @ q.T
    bound = _invariance_bound(d, eigs.max() / eigs.min())
    for name, series in [
        ("density_m_fullrank", lambda a: density_m_fullrank(a, shape)),
        ("density_fd", density_fd),
        ("lt_fd_series", lambda a: lt_fd_series(a, d)),
        ("singular_r_laplace", lambda a: singular_r_laplace(a, d)),
    ]:
        at_x, at_y = series(x), series(y)
        assert abs(at_x - at_y) <= bound * abs(at_x), (name, at_x, at_y, bound)


# Hostile inputs for the densities and transforms.  Each call returns a
# finite value or raises DomainError, TruncationError or ValueError, with
# no numpy warning.  The ranges, fixed before the first run:
#   - d in 1..4, shape in [0.25, d + 3], rank in 0..d;
#   - the base matrix q diag(eigs) q^T, eigs in [0.5, 2], q a random
#     rotation or the identity (exact eigenvalues);
#   - "nan", "inf", "-inf": one entry and its mirror replaced;
#   - "tiny": the smallest 1..d eigenvalues set to 10^-u, u in [1, 300];
#   - "huge": the matrix scaled by 10^u, u in [250, 307.9];
#   - "asymmetric": one off-diagonal entry moved on one side by a relative
#     10^-u, u in [1, 16] (at d = 1 the matrix stays as it is).
# laplace_ncw takes the hostile matrix as s or as sigma, with w = 0.3 v v^T
# of rank one and the other argument the identity.
_HOSTILE_KINDS = ("nan", "inf", "-inf", "tiny", "huge", "asymmetric")


def _hostile_matrix(data, d: int) -> np.ndarray:
    kind = data.draw(st.sampled_from(_HOSTILE_KINDS))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    eigs = np.sort(rng.uniform(0.5, 2.0, d))
    if kind == "tiny":
        small = data.draw(st.integers(1, d))
        eigs[:small] = 10.0 ** -np.array(data.draw(st.lists(st.floats(1.0, 300.0), min_size=small, max_size=small)))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] if data.draw(st.booleans()) else np.eye(d)
    x = q @ np.diag(eigs) @ q.T
    i, j = sorted(rng.integers(0, d, size=2))
    if kind in ("nan", "inf", "-inf"):
        x[i, j] = x[j, i] = float(kind)
    elif kind == "huge":
        x *= 10.0 ** data.draw(st.floats(250.0, 307.9))
    elif kind == "asymmetric" and d > 1:
        i, j = (0, 1) if i == j else (i, j)
        x[i, j] += abs(x[i, j]) * 10.0 ** -data.draw(st.floats(1.0, 16.0)) + 1e-300
    return x


@settings(max_examples=300, deadline=None)
@given(d=st.integers(min_value=1, max_value=4), data=st.data())
def test_densities_and_transforms_raise_only_typed_errors_on_hostile_input(d, data):
    x = _hostile_matrix(data, d)
    shape = data.draw(st.floats(0.25, d + 3.0))
    rank = data.draw(st.integers(0, d))
    v = np.arange(1.0, d + 1.0)[:, None]
    name, call = data.draw(st.sampled_from([
        ("density_m_fullrank", lambda: density_m_fullrank(x, shape)),
        ("density_fd", lambda: density_fd(x)),
        ("laplace_m", lambda: laplace_m(x, (shape, rank, d))),
        ("laplace_ncw s", lambda: laplace_ncw(x, NcwParams(shape, 0.3 * v @ v.T))),
        ("laplace_ncw sigma", lambda: laplace_ncw(np.eye(d), NcwParams(shape, 0.3 * v @ v.T, x))),
        ("lt_fd_series", lambda: lt_fd_series(x, d)),
        ("singular_r_laplace", lambda: singular_r_laplace(x, d)),
    ]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except (DomainError, TruncationError, ValueError):
            return
    assert math.isfinite(value), (name, value)


def test_entries_past_half_the_double_range_warn_nowhere():
    # a + a.T and I + 2 sigma s overflow here; both used to warn first
    x = np.diag([5e307, 1.2e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(sym_entries(x), x)
        # det(I + 2 x) is past the double range and the transform below it
        assert laplace_ncw(x, NcwParams(2.0, np.eye(2))) == 0.0
        # det x is past the double range and the transform below it
        assert laplace_m(x, (2.0, 1, 2)) == 0.0


@pytest.mark.filterwarnings("error")
def test_laplace_ncw_past_the_double_range_of_i_plus_2_sigma_s():
    # (1 + 2e308)^(-1/2) e^(-2 s w / (1 + 2 s)), with 1 + 2 s past the range,
    # is e^(-1/2) / (sqrt(2) 1e154) = 4.2888194248035340e-155; the value
    # is the exp of a log near -355, good to a few ulp of that log
    value = laplace_ncw([[1e308]], NcwParams(1.0, [[0.5]]))
    assert value == pytest.approx(math.exp(-0.5) / math.sqrt(2.0) * 1e-154, rel=4 * 355 * 2.0**-52, abs=0)
    assert value == pytest.approx(4.288819424803623e-155, rel=1e-14, abs=0)
    # a direction in range beside it keeps its own factor 3^(-1/2) e^(-1/3)
    value = laplace_ncw(np.diag([1e308, 1.0]), NcwParams(1.0, 0.5 * np.eye(2)))
    expected = math.exp(-0.5) / math.sqrt(2.0) * 1e-154 * math.exp(-1.0 / 3.0) / math.sqrt(3.0)
    assert value == pytest.approx(expected, rel=4 * 355 * 2.0**-52, abs=0)
    # 2 sigma itself leaves the range: (1 + 2e308)^(-1/2) e^(-1 / (1 + 2e308))
    # is 7.0710678118654752e-155, again the exp of a log near -355
    value = laplace_ncw(np.eye(1), NcwParams(1.0, [[0.5]], [[1e308]]))
    assert value == pytest.approx(7.0710678118654752e-155, rel=4 * 355 * 2.0**-52, abs=0)


def test_laplace_m_of_a_numerically_singular_s_is_a_domain_error():
    # a rotated diag(1.6e-40, 1.9): eigvalsh finds the smallest eigenvalue
    # 5.6e-17 > 0, LU a zero pivot
    s = np.array([[0.23362166729767184, 0.6225006509233628], [0.6225006509233629, 1.6586948671428825]])
    with pytest.raises(DomainError, match="numerically singular"):
        laplace_m(s, (2.0, 1, 2))


def test_split_transform_reassembles_laplace_m(rng):
    for d in (2, 3):
        for _ in range(5):
            s = spd(rng, d, 0.8, 2.5)
            whole = laplace_m(s, (float(d - 1), d, d))
            split = singular_r_laplace(s, d) + lt_fd_series(s, d)
            assert split == pytest.approx(whole, rel=1e-10)


# The per-kappa series loops that the single weighted walk replaced, kept as
# references: a Python sum over zonal_layer with one multivariate_gamma call
# per kappa, or a filter on the length of kappa.  *sum_layers* sums the
# layers; it is the stop rule unless a test fixes the cutoff.


def _sum_first(n):
    """A fixed cutoff in place of the stop rule: the sum of the first n layers."""
    return lambda layers: sum(itertools.islice(layers, n), 0.0)


def _fullrank_reference(x, shape, sum_layers=_sum_weight_layers):
    eigs = np.linalg.eigvalsh(sym_entries(x))
    d = eigs.size
    p = shape / 2.0
    at_poles = p <= (d - 1) / 2.0

    def layer(w):
        total = 0.0
        for kappa, c in zonal_layer(eigs, w).items():
            if at_poles and len(kappa) < d:
                continue
            total += c * math.exp(-multivariate_gamma(p, d, kappa, log=True))
        return total / math.factorial(w)

    series = sum_layers(map(layer, itertools.count()))
    log_det = float(np.sum(np.log(eigs)))
    return 2.0 ** (-d * (d - 1) / 4.0) * math.exp((p - (d + 1) / 2.0) * log_det) * series


def _split_reference(s, dim, keep):
    eigs = np.linalg.eigvalsh(sym_entries(s))
    inv_eigs = 1.0 / eigs[::-1]
    prefactor = math.exp(-(dim - 1) / 2.0 * float(np.sum(np.log(eigs))))

    def layer(w):
        total = sum(c for kappa, c in zonal_layer(inv_eigs, w).items() if keep(len(kappa)))
        return total / math.factorial(w)

    return prefactor * _sum_weight_layers(map(layer, itertools.count()))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_density_m_fullrank_matches_per_kappa_series(rng, d):
    # d - 1 - 5e-10 lies inside SHAPE_INTEGER_TOL, at the gamma poles
    for shape in (d - 1, d - 1 - 5e-10, d - 0.5, d + 3.7):
        if shape <= 0:
            continue
        for _ in range(2):
            x = spd(rng, d, 0.3, 2.0)
            assert density_m_fullrank(x, shape) == pytest.approx(_fullrank_reference(x, shape), rel=1e-15, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_split_series_match_per_kappa_filters(rng, d):
    for _ in range(2):
        s = spd(rng, d, 0.6, 2.5)
        fd = _split_reference(s, d, lambda length: length == d)
        r = _split_reference(s, d, lambda length: length < d)
        assert lt_fd_series(s, d) == pytest.approx(fd, rel=1e-15, abs=0)
        assert singular_r_laplace(s, d) == pytest.approx(r, rel=1e-15, abs=0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gathered_log_gammas_equal_multivariate_gamma(d):
    # p = 0.1 puts several gamma arguments below zero at d >= 2
    for p in ((d - 1) / 2.0, (d - 1) / 2.0 - 2.5e-10, d / 2.0 - 0.25, (d + 3.7) / 2.0, 0.1):
        in_order = _log_multivariate_gammas(p, d)
        top_first = _log_multivariate_gammas(p, d)
        top_first(zonal._layer_values(np.ones(d), 24)[0])
        for weight in range(25):
            parts = zonal._layer_values(np.ones(d), weight)[0]
            kappas = list(zonal.zonal_layer(np.ones(d), weight))
            for got in (in_order(parts), top_first(parts)):
                for kappa, value in zip(kappas, got.tolist()):
                    try:
                        expected = multivariate_gamma(p, d, kappa, log=True)
                    except ValueError:
                        expected = math.inf
                    assert value == expected, (p, kappa)


def test_fixed_policy_matches_per_kappa_series(monkeypatch):
    """Through a fixed cutoff, as the fd-split sweep reads the walk."""
    fixed = _sum_first(41)
    monkeypatch.setattr(measures, "_sum_weight_layers", fixed)
    x = np.array([[1.3, 0.4], [0.4, 0.6]])
    for shape in (1.0, 1.5, 4.2):
        assert density_m_fullrank(x, shape) == pytest.approx(
            _fullrank_reference(x, shape, fixed), rel=1e-15, abs=0
        )


def test_series_past_weight_170_stay_finite(monkeypatch):
    """171! leaves double range; the layers past it divide in log scale."""
    x = np.diag([0.1])
    s = np.diag([2.0, 3.0])

    def values():
        return [density_m_fullrank(x, 1.0), lt_fd_series(s, 2), singular_r_laplace(s, 2)]

    stopped = values()
    monkeypatch.setattr(measures, "_sum_weight_layers", _sum_first(201))
    assert values() == pytest.approx(stopped, rel=1e-15)


def test_layers_past_weight_170_match_exact_division(monkeypatch):
    # inverse eigenvalues near 10 keep every layer through weight 200 finite
    # and nonzero, so the log-scale division is what the test sees
    layers = []

    def record_layers(walk):
        layers.extend(itertools.islice(walk, 201))
        return 0.0

    monkeypatch.setattr(measures, "_sum_weight_layers", record_layers)
    s = np.diag([0.1, 0.12])
    lt_fd_series(s, 2)
    inv_eigs = 1.0 / np.diag(s)[::-1]
    for w in range(160, 201):
        parts, values = zonal._layer_values(inv_eigs, w)
        dot = float(values @ (parts[:, -1] > 0))
        exact = float(Fraction(dot) / math.factorial(w))
        assert layers[w] > 0.0
        if w <= 170:
            assert layers[w] == dot / math.factorial(w)
        else:
            # log|dot| and lgamma(w + 1) are near 600-860, where one ulp is
            # 1.1e-13, so exp of their difference is good to a few 1e-13
            assert layers[w] == pytest.approx(exact, rel=5e-13, abs=0)


@pytest.mark.filterwarnings("error")
def test_non_finite_layer_is_a_domain_error():
    # C_kappa(1e6, 1e6) passes double range near weight 50, below the cap of 64
    with pytest.raises(DomainError, match="not finite"):
        lt_fd_series(np.diag([1e-6, 1e-6]), 2)
    with pytest.raises(DomainError, match="not finite"):
        density_m_fullrank(np.diag([1e6, 1e6]), 1.5)
    # an eigenvalue of 1e200 overflows its powers at weight 2, inside the
    # layer generator; every series raises without a numpy warning
    with pytest.raises(DomainError, match="layer of weight 2 is not finite"):
        density_m_fullrank(np.diag([1e200, 1.0]), 1.5)
    with pytest.raises(DomainError, match="layer of weight 2 is not finite"):
        density_fd(np.diag([1e200, 1.0, 1.0]))
    for fn in (lt_fd_series, singular_r_laplace):
        with pytest.raises(DomainError, match="layer of weight 2 is not finite"):
            fn(np.diag([1e-200, 1.0]), 2)
    with pytest.raises(DomainError, match="layer of weight 1 is not finite"):
        _sum_weight_layers(iter([1.0, math.nan]))


def test_adaptive_truncation_reports_divergence(monkeypatch):
    with pytest.raises(TruncationError) as err:
        density_m_fullrank(np.diag([400.0, 520.0]), 1.5)
    assert str(err.value) == "series not converged by weight 64 (last layer ratio 7.912e-06)"
    assert err.value.max_weight == 64
    assert err.value.last_rel_change == pytest.approx(7.912e-6, rel=1e-3)
    assert err.value.partial_value > 0
    # a fixed cutoff returns the partial sum without complaint
    full = lt_fd_series(0.25 * np.eye(3), 3)
    monkeypatch.setattr(measures, "_sum_weight_layers", _sum_first(7))
    partial = lt_fd_series(0.25 * np.eye(3), 3)
    assert 0 < partial < full


def test_truncation_policy_validation():
    """The one stop rule: two small layers in a row end the sum, leading
    zero layers do not count, and past weight 64 it raises."""
    drawn = []

    def walk(layers):
        for value in layers:
            drawn.append(value)
            yield value

    assert _sum_weight_layers(walk([0.0, 0.0, 1.0, 1e-11, 1e-11, 5.0])) == 1.0 + 1e-11 + 1e-11
    assert drawn == [0.0, 0.0, 1.0, 1e-11, 1e-11]
    # a large layer between two small ones starts the count again
    assert _sum_weight_layers(iter([1.0, 1e-11, 1.0, 1e-11, 1e-11, 5.0])) == 1.0 + 1e-11 + 1.0 + 1e-11 + 1e-11
    drawn.clear()
    with pytest.raises(TruncationError) as err:
        _sum_weight_layers(walk(itertools.repeat(1.0)))
    assert len(drawn) == 65
    assert (err.value.max_weight, err.value.partial_value, err.value.last_rel_change) == (64, 65.0, 1.0 / 65.0)


def test_no_truncation_option_remains():
    assert not hasattr(ncwishart, "TruncationPolicy")
    assert not hasattr(ncwishart, "TruncationMode")
    assert not hasattr(measures, "TruncationPolicy")
    for fn in (density_m_fullrank, density_fd, lt_fd_series, singular_r_laplace):
        assert "policy" not in inspect.signature(fn).parameters, fn.__name__


# ---------------------------------------------------------------------------
# Explicit d = 2 critical-shape formulas


def test_m122_laplace_cone_values():
    assert m122_laplace_cone(2.0, 0.0, 0.0) == pytest.approx(math.e / 2, rel=1e-14)
    with pytest.raises(DomainError):
        m122_laplace_cone(1.0, 1.0, 0.2)
    with pytest.raises(DomainError):
        m122_laplace_cone(-2.0, 0.0, 0.0)
    for bad in ((math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, -math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            m122_laplace_cone(*bad)
    # a^2 overflows: the squares are taken scaled by a power of two
    assert m122_laplace_cone(1e200, 0.0, 0.0) == pytest.approx(1e-200, rel=1e-15)
    assert laplace_m(np.diag([1e200, 1e200]), (1.0, 2, 2)) == pytest.approx(1e-200, rel=1e-15)
    a, b = 1e200, 1e200 * (1 - 1e-10)
    value = m122_laplace_cone(a, b, 0.0)
    # (a - b)(a + b) has no cancellation; the difference of squares loses about 1e-6
    assert value == pytest.approx(((a - b) * (a + b)) ** -0.5, rel=1e-5)
    assert value == pytest.approx(laplace_m(phi2((a, b, 0.0)), (1.0, 2, 2)), rel=1e-5)
    with pytest.raises(DomainError, match="positive definite"):
        m122_laplace_cone(1e200, 1e200, 1e190)
    # a^2 underflows: inside the cone, the transform is past the double range
    for fn in (
        lambda: m122_laplace_cone(1e-200, 0.0, 0.0),
        lambda: laplace_m(np.diag([1e-200, 1e-200]), (1.0, 2, 2)),
    ):
        with pytest.raises(DomainError, match="exceeds the double range: its log is 2e\\+200"):
            fn()


def test_m122_laplace_cone_beyond_double_range_names_its_log(rng):
    # the exponential factor is finite (2a / quad = 709.7), the product is not
    a = 3.5485e-3
    b = math.sqrt(a * a - 1e-5)
    for fn in (lambda: m122_laplace_cone(a, b, 0.0), lambda: laplace_m(phi2((a, b, 0.0)), (1.0, 2, 2))):
        with pytest.raises(DomainError, match="the transform exceeds the double range: its log is 715.456"):
            fn()
    # in range the value is the direct product, bit for bit
    for _ in range(50):
        b, c = rng.uniform(-2.0, 2.0, 2)
        a = math.hypot(b, c) + rng.uniform(1e-3, 3.0)
        quad = a * a - b * b - c * c
        assert m122_laplace_cone(a, b, c) == quad**-0.5 * math.exp(2.0 * a / quad)
    # an exponential factor past the double range with a finite transform
    a = 7100.0
    b = math.sqrt(a * a - 20.0)
    value = m122_laplace_cone(a, b, 0.0)
    assert math.isfinite(value)
    assert value == pytest.approx(laplace_m(phi2((a, b, 0.0)), (1.0, 2, 2)), rel=1e-5)


def test_m122_laplace_cone_matches_laplace_m(rng):
    for _ in range(5):
        b, c = rng.uniform(-0.8, 0.8, 2)
        a = math.hypot(b, c) + rng.uniform(0.2, 1.5)
        s = phi2((a, b, c))
        assert m122_laplace_cone(a, b, c) == pytest.approx(
            laplace_m(s, (1.0, 2, 2)), rel=1e-12
        )


def test_m122_singular_density_chart():
    # g(u) = (2 / (pi u)) cosh(2 sqrt(u)) at u = 2 rho
    assert m122_singular_density(0.5, 0.0) == pytest.approx(
        2.0 / math.pi * math.cosh(2.0), rel=1e-14
    )
    assert m122_singular_density(0.3, 0.4) == pytest.approx(
        m122_singular_density(0.5, 0.0), rel=1e-14
    )
    with pytest.raises(DomainError):
        m122_singular_density(0.0, 0.0)
    # 2 / (pi u) overflows at a subnormal rho
    with pytest.raises(DomainError, match="double range"):
        m122_singular_density(1.7e-309, 0.0)


@pytest.mark.parametrize("rho", [6.15e4, 6.2e4, 6.3e4])
def test_cosh_densities_in_log_scale_match_the_direct_form(rho):
    """Past cosh argument 700 both densities are taken in log scale; cosh still fits there."""
    root = 2.0 * math.sqrt(2.0 * rho)
    assert 700.0 < root < 710.0
    # a log near 700 is rounded to a unit of 1.1e-13, and so is the exp of it
    rel = 4e-13
    assert m122_singular_density(rho, 0.0) == pytest.approx(
        2.0 / (math.pi * 2.0 * rho) * math.cosh(root), rel=rel
    )
    lam = 2.0 * rho
    assert m111_density(lam) == pytest.approx(math.cosh(root) / math.sqrt(math.pi * lam), rel=rel)


def test_cosh_densities_stay_finite_just_past_cosh_overflow():
    # cosh overflows at 710.5; the densities carry a 1/u factor and stay finite a little beyond
    for lam in (1.27e5, 1.28e5):
        assert 2.0 * math.sqrt(lam) > 710.5
        assert math.isfinite(m111_density(lam))
        assert math.isfinite(m122_singular_density(lam / 2.0, 0.0))


@pytest.mark.parametrize("value", [1e6, 1e300, 1.7e308, math.inf, -math.inf, math.nan])
def test_cosh_densities_raise_domain_error_on_huge_or_non_finite_input(value):
    with pytest.raises(DomainError):
        m111_density(value)
    with pytest.raises(DomainError):
        m122_singular_density(value, 0.0)
    with pytest.raises(DomainError):
        m122_singular_density(0.5, value)
    with pytest.raises(DomainError):
        m122_singular_density(value, value)


def test_m122_ac_density_is_scaled_fd_density(rng):
    """The cone-coordinate density is 2*sqrt(2) times f_2 composed with the chart."""
    scale = 2.0 * math.sqrt(2.0)
    for _ in range(4):
        y, z = rng.uniform(-0.7, 0.7, 2)
        x = math.hypot(y, z) + rng.uniform(0.1, 1.5)
        direct = m122_ac_density(x, y, z)
        via_fd = scale * density_fd(phi2((x, y, z)))
        assert direct == pytest.approx(via_fd, rel=1e-9)


def test_m122_ac_density_boundary_and_domain():
    inside = m122_ac_density(1.0 + 1e-10, 1.0, 0.0)
    on_sheet = m122_ac_density(1.0, 1.0, 0.0)
    assert on_sheet == pytest.approx(inside, rel=1e-6)
    assert on_sheet > 0
    accepts_point = m122_ac_density(ConePoint2(1.5, 0.3, -0.2))
    assert accepts_point == pytest.approx(m122_ac_density(1.5, 0.3, -0.2), rel=1e-14)
    with pytest.raises(DomainError):
        m122_ac_density(1.0, 1.1, 0.0)
    with pytest.raises(DomainError):
        m122_ac_density(-1.0, 0.0, 0.0)


def _m122_ac_reference(x: float, y: float, z: float) -> float:
    """The d = 2 interior density as a scalar double loop, each series summed adaptively."""
    quad = x * x - y * y - z * z
    if x < 0 or quad < 0:
        raise DomainError("(x, y, z) lies outside the closed cone x >= sqrt(y^2 + z^2)")
    rel_tol = 1e-12  # both series stop at the first term within this share of their sum
    total = 0.0
    q_term = 1.0  # q^k / (k! (k+1)!)
    for k in range(200):
        inner = 0.0
        m_term = float(special.rgamma(2 * k + 2.5))  # (2x)^m / (m! Gamma(m + 2k + 5/2))
        for m in range(2000):
            inner += m_term
            if m_term <= rel_tol * inner:
                break
            m_term *= 2.0 * x / ((m + 1) * (m + 2 * k + 2.5))
        else:
            raise RuntimeError("inner series did not converge")
        total += q_term * inner
        if q_term * inner <= rel_tol * total:
            break
        q_term *= quad / ((k + 1) * (k + 2))
    else:
        raise RuntimeError("outer series did not converge")
    return 2.0 / math.sqrt(math.pi) * total


@settings(max_examples=200)
@given(
    x=st.floats(min_value=0.0, max_value=200.0, exclude_min=True),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@example(x=200.0, frac=1.0)
@example(x=200.0, frac=0.0)
@example(x=1e-300, frac=1.0)
@example(x=5000.0, frac=1.0)  # q = 0: the longest m direction the reference reaches
@example(x=5000.0, frac=0.0)  # q = x^2: the longest k direction as well
def test_m122_ac_density_matches_scalar_reference(x, frac):
    """The table kernel against the adaptive double loop, the sheet q = 0 included."""
    y = frac * x
    expected = _m122_ac_reference(x, y, 0.0)
    assert m122_ac_density(x, y, 0.0) == pytest.approx(expected, rel=1e-12)
    assert m122_ac_density(np.array([x]), np.array([y]), 0.0)[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("big_x", [0.25, 1.0, 7.0, 57.0, 1e3, 3e4, 1.28e5])
@pytest.mark.parametrize("big_q", [0.5, 1.0, 30.0, 1e3, 1e6, 4e9, 1e12])
def test_m122_ac_term_counts_drop_at_most_2_to_the_minus_56(big_x, big_q):
    """The terms past the table, summed by brute force, against 2^-56 of the kept ones.

    The scales reach the largest X the double range allows (about 1.3e5)
    and Q past its X^2 / 4.  The table's own point u = X, v = Q is the
    worst case of the bound; points with smaller u and v are checked too.
    """
    scale_x, scale_q = max(big_x, 1.0), max(big_q, 1.0)
    n_m, n_k = measures._ac_term_counts(scale_x, scale_q)
    m = np.arange(2 * n_m + 60, dtype=float)[:, None]
    k = np.arange(2 * n_k + 60, dtype=float)[None, :]
    gammaln = special.gammaln
    log_g = -gammaln(m + 1) - gammaln(k + 1) - gammaln(k + 2) - gammaln(m + 2 * k + 2.5)
    for u, v in itertools.product([1.0, 0.5], [1.0, 0.5, 0.0]):
        log_v_power = k * math.log(v * scale_q) if v > 0.0 else np.where(k > 0, -np.inf, 0.0)
        log_terms = log_g + m * math.log(u * scale_x) + log_v_power
        terms = np.exp(log_terms - log_terms.max())
        kept = terms[:n_m, :n_k].sum()
        dropped = terms[n_m:].sum() + terms[:n_m, n_k:].sum()
        assert dropped <= 2.0**-56 * kept, (u, v, n_m, n_k, dropped / kept)


_D2_ROUNDTRIP_POINTS = [(1.0, 0.2, 0.1), (1.5, -0.4, 0.3), (2.0, 0.0, 0.0), (1.2, 0.5, -0.5), (2.5, 1.0, 0.8)]


def test_m122_ac_density_matches_reference_at_quadrature_nodes(monkeypatch):
    """Every node of the d2-roundtrip quadratures, each quadrature one call on its node grid."""
    from ncwishart import verify

    calls = []

    def recording(xs, r, z, out):
        value = measures._ac_density(xs, r, z, out)
        # xs and out are workspace memory, which the quadrature overwrites
        calls.append((xs.copy(), r, z, value.reshape(xs.shape).copy()))
        return value

    monkeypatch.setattr(verify, "_ac_density", recording)
    for a, b, c in _D2_ROUNDTRIP_POINTS:
        verify.m122_lt_quadrature(a, b, c)
    n_rho, n_x = verify._QUAD_N_RHO * verify._QUAD_ORDER, verify._QUAD_N_X * verify._QUAD_ORDER
    assert len(calls) == 5
    assert sum(value.size for *_, value in calls) == 5 * n_rho * n_x
    for xs, r, z, value in calls:
        assert value.shape == (n_rho, n_x)
        assert np.array_equal(value, m122_ac_density(xs, r, z))
        xs, r, z = np.broadcast_arrays(xs, r, z)
        nodes = zip(xs.ravel().tolist(), r.ravel().tolist(), z.ravel().tolist())
        expected = np.array([_m122_ac_reference(*node) for node in nodes])
        np.testing.assert_allclose(value.ravel(), expected, rtol=1e-12, atol=0.0)


def _panel_rule_loop(a, b, panels, order):
    """The panel rule built one panel at a time, with its own Legendre rule."""
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_x + 0.5 * (hi + lo))
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("a,b,panels", [(0.0, 9.0 / 0.29, 18), (0.0, 17.0, 18), (0.3, 2.7, 5), (-1.0, 1.0, 1)])
def test_panel_rule_equals_panel_loop_bit_for_bit(a, b, panels):
    from ncwishart import verify

    nodes, weights = verify._panel_rule(a, b, panels)
    ref_nodes, ref_weights = _panel_rule_loop(a, b, panels, verify._QUAD_ORDER)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def _m122_lt_quadrature_by_rows(a, b, c):
    """The d = 2 transform quadrature with one density call per rho row."""
    from ncwishart import verify

    rho_max = 9.0 / (a - math.hypot(b, c))
    x_tail = 9.0 / a + 8.0 / (a * a)
    theta = np.linspace(0.0, 2.0 * math.pi, verify._QUAD_N_THETA, endpoint=False)
    rho, w_rho = _panel_rule_loop(0.0, rho_max, verify._QUAD_N_RHO, verify._QUAD_ORDER)
    ang = (2.0 * math.pi) * np.exp(
        -2.0 * rho[:, None] * (b * np.cos(theta) + c * np.sin(theta))[None, :]
    ).mean(axis=1)
    sheet_density = np.array([m122_singular_density(r, 0.0) for r in rho])
    sheet = float(np.sum(w_rho * np.exp(-2.0 * a * rho) * sheet_density * rho * ang))
    t_nodes, w_t = _panel_rule_loop(0.0, x_tail, verify._QUAD_N_X, verify._QUAD_ORDER)
    interior = 0.0
    for r, wr, angle in zip(rho, w_rho, ang):
        xs = r + t_nodes
        inner = float(np.sum(w_t * np.exp(-2.0 * a * xs) * m122_ac_density(xs, r, 0.0)))
        interior += wr * r * angle * inner
    return sheet + interior


@pytest.mark.parametrize("a,b,c", _D2_ROUNDTRIP_POINTS)
def test_m122_lt_quadrature_equals_row_by_row_quadrature(a, b, c):
    from ncwishart import verify

    assert verify.m122_lt_quadrature(a, b, c) == pytest.approx(_m122_lt_quadrature_by_rows(a, b, c), rel=1e-14)


def test_m122_ac_density_across_slice_boundaries(monkeypatch):
    """More than two slices of mixed x scales, sheet points included, against the scalar loop."""
    rng = np.random.default_rng(11)
    n = 2 * measures._AC_SLICE + 123
    x = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), n))
    frac = rng.uniform(0.0, 1.0, n)
    frac[rng.random(n) < 0.25] = 1.0  # on the sheet, q = 0
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    y, z = frac * x * np.cos(angle), frac * x * np.sin(angle)
    on_sheet = frac == 1.0
    y[on_sheet], z[on_sheet] = x[on_sheet], 0.0
    values = m122_ac_density(x, y, z)
    expected = np.array([_m122_ac_reference(*point) for point in zip(x.tolist(), y.tolist(), z.tolist())])
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)
    monkeypatch.setattr(measures, "_AC_SLICE", 7)
    np.testing.assert_allclose(m122_ac_density(x, y, z), values, rtol=1e-15, atol=0.0)


def test_m122_ac_density_array_api():
    x = np.array([[0.9], [2.0], [7.5]])
    y = np.array([0.0, 0.3, -0.5, 0.5])
    values = m122_ac_density(x, y, 0.1)
    assert values.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            single = m122_ac_density(float(x[i, 0]), float(y[j]), 0.1)
            assert type(single) is float
            assert values[i, j] == pytest.approx(single, rel=1e-14)
    assert type(m122_ac_density(ConePoint2(1.5, 0.3, -0.2))) is float
    assert m122_ac_density(np.array([]), 0.0, 0.0).shape == (0,)
    with pytest.raises(DomainError):
        m122_ac_density(np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.5, 0.0]), 0.0)
    with pytest.raises(DomainError):
        m122_ac_density(np.array([1.0, math.nan]), 0.0, 0.0)


@pytest.mark.parametrize("x", [1e3, 3e4, 6e4, 6.6e4, 1e5, 1e8, 1e160, 1e200, math.inf])
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
def test_m122_ac_density_huge_argument_is_finite_or_domain_error(x, frac):
    for args in [(x, frac * x, 0.0), (np.array([0.1, x]), np.array([0.0, frac * x]), 0.0)]:
        try:
            value = m122_ac_density(*args)
        except DomainError:
            continue
        assert np.all(np.isfinite(value)) and np.all(np.asarray(value) > 0)


# The per-thread workspace of m122_ac_density and m122_lt_quadrature


def _workspace_cases():
    """Densities on a d2-roundtrip node grid and on a 3-slice array, and the d2-roundtrip quadratures."""
    import math

    import numpy as np

    from ncwishart import m122_ac_density, measures, verify

    points = [(1.0, 0.2, 0.1), (1.5, -0.4, 0.3), (2.0, 0.0, 0.0), (1.2, 0.5, -0.5), (2.5, 1.0, 0.8)]
    a, b, c = points[4]
    rho, _ = verify._panel_rule(0.0, 9.0 / (a - math.hypot(b, c)), verify._QUAD_N_RHO)
    t_nodes, _ = verify._panel_rule(0.0, 9.0 / a + 8.0 / (a * a), verify._QUAD_N_X)
    rng = np.random.default_rng(29)
    n = 2 * measures._AC_SLICE + 123
    x = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), n))
    radius, angle = x * rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n)
    return [
        m122_ac_density(rho[:, None] + t_nodes, rho[:, None], 0.0),
        m122_ac_density(x, radius * np.cos(angle), radius * np.sin(angle)),
        np.array([verify.m122_lt_quadrature(*point) for point in points]),
    ]


def _in_new_thread(fn):
    """fn() in a thread of its own, so with a workspace of its own; returns its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def test_workspace_reuse_keeps_the_bits_of_a_fresh_process():
    script = inspect.getsource(_workspace_cases) + "for v in _workspace_cases():\n    print(v.tobytes().hex())\n"
    src = os.path.dirname(os.path.dirname(ncwishart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    fresh = run.stdout.split()

    def after_smaller_and_after_larger():
        m122_ac_density(np.linspace(1.0, 2.0, 10), 0.5, 0.0)
        grown = _workspace_cases()  # the workspace grows inside these calls
        size = measures._WORKSPACE.buf.size
        m122_ac_density(np.linspace(1.0, 30.0, 60_000), 0.5, 0.0)
        assert measures._WORKSPACE.buf.size > size
        return grown, _workspace_cases()  # the views now sit in a larger buffer

    for values in _in_new_thread(after_smaller_and_after_larger):
        assert [v.tobytes().hex() for v in values] == fresh


def test_workspace_threads_give_the_serial_bits():
    from ncwishart import verify

    def job(i):
        x = np.linspace(0.01, 5.0 + 10.0 * i, 9000 + 1000 * i)
        return [m122_ac_density(x, 0.3 * x, 0.1 * x), verify.m122_lt_quadrature(*_D2_ROUNDTRIP_POINTS[i])]

    serial = [job(i) for i in range(4)]
    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def run(i):
        barrier.wait(timeout=60)
        for _ in range(4):
            results[i].append(job(i))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(4):
        assert len(results[i]) == 4
        for density, quad in results[i]:
            assert np.array_equal(density, serial[i][0]) and quad == serial[i][1]


def test_workspace_past_the_cap_keeps_no_more_than_the_cap(monkeypatch):
    # 4096 points on the sheet up to x = 6e4: n_m = 469, a power buffer of
    # 469 x 4096 floats, past the cap
    x = np.linspace(1.0, 6e4, measures._AC_SLICE)
    n_m, _ = measures._ac_term_counts(2.0 * x[-1], 1.0)
    assert n_m * x.size > measures._WORKSPACE_CAP

    def run():
        m122_ac_density(x[:100], x[:100], 0.0)
        kept = measures._WORKSPACE.buf.size
        value = m122_ac_density(x, x, 0.0)
        return kept, measures._WORKSPACE.buf.size, measures._WORKSPACE.top, value

    kept, size, top, value = _in_new_thread(run)
    assert 0 < kept <= size <= measures._WORKSPACE_CAP and top == 0
    # the arrays of its own give the bits of a workspace that holds the whole call
    monkeypatch.setattr(measures, "_WORKSPACE_CAP", 2**23)
    assert np.array_equal(_in_new_thread(lambda: m122_ac_density(x, x, 0.0)), value)


def test_workspace_takes_start_at_distinct_places_round_a_page():
    # whole-page arrays packed back to back would all share their low 12
    # address bits, which costs a quadrature about 15% on x86
    def run():
        with measures._WORKSPACE.frame() as take:
            arrays = [take(size) for size in (20736, 20736, 30 * 4096, 12 * 4096, 4096, 4096, 1, 512)]
            base = measures._WORKSPACE.buf.ctypes.data
            return [(a.ctypes.data - base) % 4096 for a in arrays]

    offsets = _in_new_thread(lambda: (run(), run())[1])  # the second run after the buffer has grown
    assert len(set(offsets)) == len(offsets)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor faults as Linux reports them")
def test_warm_quadrature_calls_take_almost_no_minor_faults():
    resource = pytest.importorskip("resource")
    from ncwishart import verify

    for point in _D2_ROUNDTRIP_POINTS:  # one warm-up round grows the workspace
        verify.m122_lt_quadrature(*point)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(10):
        verify.m122_lt_quadrature(*_D2_ROUNDTRIP_POINTS[i % 5])
    # fresh grids and power buffers took about 4,000 at most heap layouts
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_ive_three_halves_matches_scipy():
    # the closed form the m122_ac_density overflow guard uses at z > 2
    for z in np.geomspace(2.0, 1e6, 2001):
        assert measures._ive_three_halves(z) == pytest.approx(special.ive(1.5, z), rel=1e-13, abs=0.0)


def test_m111_lt_quadrature_matches_closed_form_over_wide_s():
    from ncwishart.verify import m111_lt_quadrature

    # the last two points lie just inside the edge of the double range, s = 1.4154e-3
    for s in [*np.geomspace(1.5e-3, 1e3, 201), 1.4156e-3, 1.42e-3]:
        closed = math.exp(1.0 / s) / math.sqrt(s)
        assert m111_lt_quadrature(s) == pytest.approx(closed, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [1e-3, 1e-300, 0.0, -1.0, math.inf, math.nan])
def test_m111_lt_quadrature_raises_domain_error_past_double_range(s):
    from ncwishart.verify import m111_lt_quadrature

    with pytest.raises(DomainError):
        m111_lt_quadrature(s)


def test_m111_density_values():
    assert m111_density(1.0) == pytest.approx(math.cosh(2.0) / math.sqrt(math.pi), rel=1e-14)
    with pytest.raises(DomainError):
        m111_density(0.0)


# ---------------------------------------------------------------------------
# Composite derivative identities


def test_faa_di_bruno_exact_through_ten():
    for n in range(1, 11):
        for point in ((1.5, 0.5, 0.5), (0.8, 0.3, -0.2), (2.0, 1.0, 0.0)):
            check = faa_di_bruno_check(n, point)
            assert check.matches, (n, point)
            assert check.closed_full == check.direct_full
            assert check.closed_reduced == check.direct_reduced


def test_faa_di_bruno_finite_difference_accuracy():
    worst = max(
        faa_di_bruno_check(n, (1.5, 0.5, 0.5)).fd_rel_error for n in range(1, 9)
    )
    assert worst < 1e-6


def _stencil_weights_in_fractions(n):
    """Stencil weights with every polynomial coefficient held as a Fraction."""
    pts = list(range(-n, n + 1))
    out = []
    for j in pts:
        coeffs = [Fraction(1)]
        denom = 1
        for i in pts:
            if i == j:
                continue
            denom *= j - i
            new = [Fraction(0)] * (len(coeffs) + 1)
            for t, c in enumerate(coeffs):
                new[t + 1] += c
                new[t] -= i * c
            coeffs = new
        out.append(Fraction(math.factorial(n)) * coeffs[n] / denom)
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_fd_stencil_weights(n):
    weights = _fd_stencil_weights(n)
    assert isinstance(weights, tuple)
    assert list(weights) == _stencil_weights_in_fractions(n)
    assert _fd_stencil_weights(n) is weights
    # exact on every monomial of degree <= 2n: the n-th derivative at 0
    for m in range(2 * n + 1):
        moment = sum(w * j**m for w, j in zip(weights, range(-n, n + 1)))
        assert moment == (math.factorial(n) if m == n else 0)


def test_faa_di_bruno_accepts_cone_point_and_validates_n():
    check = faa_di_bruno_check(3, ConePoint2(1.2, 0.4, 0.1))
    assert check.matches
    with pytest.raises(ValueError):
        faa_di_bruno_check(0, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        faa_di_bruno_check(11, (1.0, 0.0, 0.0))
