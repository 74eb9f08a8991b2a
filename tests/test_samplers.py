import math
import warnings

import numpy as np
import pytest

from ncwishart import (
    DomainError,
    MeasureSpec,
    NcwParams,
    RankExceedsShapeError,
    WeightedSample,
    convolution_support_experiment,
    decompose_w,
    empirical_laplace,
    laplace_m,
    laplace_ncw,
    m_measure_sample,
    ncw_sample,
    phi_kappa_mc,
    rank_additivity_experiment,
    singular_r_laplace,
    singular_r_sample,
    subspace_intersection_experiment,
    weighted_laplace_estimate,
    zonal_lemma_checks,
)
from ncwishart import samplers
from ncwishart.samplers import _BLOCK_DRAWS, _order_statistics
from ncwishart.symcore import _haar_columns
from ncwishart.verify import RunConfig, check_rank_support
from ncwishart.zonal import _mc_mean

N_MC = 30_000


def spd(rng, d, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


# ---------------------------------------------------------------------------
# Mean decomposition


def test_decompose_w_reconstructs_exactly(rng):
    vecs = rng.standard_normal((2, 4))
    w = vecs.T @ vecs
    means = decompose_w(w, 3)
    assert means.shape == (3, 4)
    assert np.allclose(means.T @ means, w, atol=1e-12)
    # rows beyond the rank are zero padding
    assert np.all(means[2] == 0.0)


def test_decompose_w_zero_and_errors(rng):
    means = decompose_w(np.zeros((3, 3)), 2)
    assert means.shape == (2, 3) and np.all(means == 0.0)
    vecs = rng.standard_normal((3, 3))
    with pytest.raises(RankExceedsShapeError):
        decompose_w(vecs.T @ vecs + np.eye(3), 2)
    with pytest.raises(DomainError):
        decompose_w(np.diag([1.0, -0.5]), 2)


# ---------------------------------------------------------------------------
# Direct sampler


def test_ncw_sample_shape_symmetry_reproducibility():
    params = NcwParams(2.0, np.zeros((3, 3)))
    draws = ncw_sample(params, 100, np.random.default_rng(9))
    assert draws.shape == (100, 3, 3)
    assert np.array_equal(draws, np.swapaxes(draws, 1, 2))
    again = ncw_sample(params, 100, np.random.default_rng(9))
    assert np.array_equal(draws, again)
    # every draw is a Gram matrix of 2 vectors: rank <= 2 < 3
    eigs = np.linalg.eigvalsh(draws)
    assert np.all(eigs[:, 0] > -1e-10)
    assert np.all(eigs[:, 0] < 1e-10)


def _gram(y):
    """sum_k y_k y_k^T per draw of a stack (N, n, d), by the batched einsum, symmetrized."""
    ref = np.einsum("bni,bnj->bij", y, y)
    return 0.5 * (ref + np.swapaxes(ref, 1, 2))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ncw_sample_equals_batched_einsum_reference(d):
    for n in sorted({1, 2, d + 1}):
        rng = np.random.default_rng([d, n])
        vecs = rng.standard_normal((min(n, d), d))
        params = NcwParams(float(n), 0.3 * vecs.T @ vecs, spd(rng, d))
        draws = ncw_sample(params, 500, np.random.default_rng(11))
        # the batched einsum, symmetrized, on the same stream, with every
        # normal of every draw coloured by one flat product
        z = np.random.default_rng(11).standard_normal((500, n, d))
        means = decompose_w(2.0 * params.w, n)
        chol = np.linalg.cholesky(params.sigma)
        ref = _gram((z.reshape(-1, d) @ chol.T).reshape(500, n, d) + means)
        assert np.array_equal(draws, ref)
        # the per-draw stacked product runs gemv at n = 1, which rounds its
        # d-term dots differently; the two differ by at most the rounding
        # of two d-term dots
        stacked = _gram(z @ chol.T + means)
        if n >= 2:
            assert np.array_equal(draws, stacked)
        else:
            bound = d * np.finfo(float).eps * np.max(np.abs(stacked))
            assert np.max(np.abs(draws - stacked)) <= bound


def _flat_gaussian_sum(means, chol, n_draws, rng):
    """The Gaussian-sum stack (d, d, n_draws) with all normals coloured by one flat product."""
    n, d = means.shape
    z = rng.standard_normal((n_draws, n, d))
    y = (z.reshape(-1, d) @ chol.T).reshape(n_draws, n, d) + means
    return _gram(y).transpose(1, 2, 0)


def _sampler_outputs(d, n_draws):
    out = []
    for n in sorted({1, 2, d + 1}):
        rng = np.random.default_rng([d, n])
        vecs = rng.standard_normal((min(n, d), d))
        params = NcwParams(float(n), 0.3 * vecs.T @ vecs, spd(rng, d))
        out.append(ncw_sample(params, n_draws, np.random.default_rng([d, n, 1])))
        sample = m_measure_sample((float(n), min(n, d), d), n_draws, np.random.default_rng([d, n, 2]))
        out += [sample.draws, sample.log_weights]
    if d >= 2:
        sample = singular_r_sample(d, n_draws, np.random.default_rng([d, 3]))
        out += [sample.draws, sample.log_weights]
    return out


@pytest.mark.parametrize("n_draws", [_BLOCK_DRAWS - 1, _BLOCK_DRAWS, 2 * _BLOCK_DRAWS + 1])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_samplers_walk_blocks_like_one_flat_product(d, n_draws, monkeypatch):
    # the block walk of the Gaussian-sum kernel, across block edges,
    # against the same samplers on the flat product over every draw
    blocked = _sampler_outputs(d, n_draws)
    monkeypatch.setattr(samplers, "_gaussian_sum_stack", _flat_gaussian_sum)
    flat = _sampler_outputs(d, n_draws)
    assert len(blocked) == len(flat)
    for got, ref in zip(blocked, flat):
        assert np.array_equal(got, ref)


def test_ncw_sample_first_moment(rng):
    d = 2
    m = np.array([1.0, -0.5])
    w = 0.5 * np.outer(m, m)
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    params = NcwParams(3.0, w, sigma)
    draws = ncw_sample(params, N_MC, rng)
    sample_mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(N_MC)
    assert np.all(np.abs(sample_mean - params.mean()) < 4.0 * se)


def test_ncw_sample_laplace_agreement(rng):
    d = 2
    vec = np.array([0.8, 0.2])
    params = NcwParams(2.0, 0.5 * np.outer(vec, vec), spd(rng, d))
    draws = ncw_sample(params, N_MC, rng)
    s = spd(rng, d, 0.05, 0.4)
    est = empirical_laplace(draws, s)
    closed = laplace_ncw(s, params)
    assert abs(est.estimate - closed) < 4.0 * est.std_error


def test_ncw_sample_orthogonal_invariance(rng):
    # for w = 0, sigma = I the law is conjugation invariant, so the
    # empirical transform at s and at u^T s u estimate the same number
    params = NcwParams(3.0, np.zeros((3, 3)))
    draws = ncw_sample(params, N_MC, rng)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = spd(rng, 3, 0.05, 0.5)
    closed = laplace_ncw(s, params)
    assert laplace_ncw(u.T @ s @ u, params) == pytest.approx(closed, rel=1e-12)
    for arg in (s, u.T @ s @ u):
        est = empirical_laplace(draws, arg)
        assert abs(est.estimate - closed) < 4.0 * est.std_error


def test_ncw_sample_rejects_bad_shape_or_rank(rng):
    with pytest.raises(DomainError):
        ncw_sample(NcwParams(1.5, np.zeros((2, 2))), 10, rng)
    vecs = rng.standard_normal((2, 2))
    with pytest.raises(RankExceedsShapeError):
        ncw_sample(NcwParams(1.0, vecs.T @ vecs + 0.1 * np.eye(2), np.eye(2)), 10, rng)


# ---------------------------------------------------------------------------
# Weighted samplers


def test_m_measure_weighted_laplace_agreement(rng):
    for spec in (MeasureSpec(2.0, 1, 2), MeasureSpec(3.0, 2, 3)):
        sample = m_measure_sample(spec, N_MC, rng)
        assert len(sample) == N_MC and sample.dim == spec.dim
        assert np.all(np.isfinite(sample.log_weights))
        s = 0.6 * np.eye(spec.dim) + np.diag(rng.uniform(0.05, 0.3, spec.dim))
        est = weighted_laplace_estimate(sample, s)
        closed = laplace_m(s, spec)
        assert abs(est.estimate - closed) < 4.0 * est.std_error


def test_m_measure_sample_validates_inputs(rng):
    with pytest.raises(DomainError):
        m_measure_sample(MeasureSpec(1.0, 2, 3), 10, rng)  # rank above shape
    with pytest.raises(DomainError):
        m_measure_sample(MeasureSpec(2.5, 1, 3), 10, rng)  # non-integer shape


@pytest.mark.parametrize(
    "spec", [(2.0, 1, 2), (2.0, 2, 2), (3.0, 0, 3), (3.0, 2, 3), (4.0, 3, 4), (1.0, 1, 1)]
)
def test_m_measure_sample_equals_ncw_sample_with_trace_weights(spec):
    spec = MeasureSpec(*spec)
    n, k, d = int(spec.shape), spec.rank, spec.dim
    sample = m_measure_sample(spec, 1000, np.random.default_rng([d, k, 31]))
    # the proposal law through ncw_sample, weighted by its traces
    params = NcwParams(float(n), 2.0 * spec.indicator())
    draws = ncw_sample(params, 1000, np.random.default_rng([d, k, 31]))
    traces = np.trace(draws, axis1=1, axis2=2)
    log_w = 0.5 * d * n * math.log(2.0) + 2.0 * k + 0.5 * traces
    assert np.array_equal(sample.draws, draws)
    assert np.array_equal(sample.log_weights, log_w)


_ZERO_W = NcwParams(2.0, np.zeros((2, 2)))
_SPEC = MeasureSpec(2.0, 1, 2)


@pytest.mark.parametrize(
    "bad, good",
    [
        (
            lambda rng: ncw_sample(_ZERO_W, 2.5, rng),
            lambda rng: len(ncw_sample(_ZERO_W, np.int64(3), rng)) == 3,
        ),
        (
            lambda rng: m_measure_sample(_SPEC, 2.5, rng),
            lambda rng: len(m_measure_sample(_SPEC, np.int64(3), rng)) == 3,
        ),
        (
            lambda rng: singular_r_sample(2.0, 5, rng),
            lambda rng: len(singular_r_sample(np.int64(3), np.int64(3), rng)) == 3,
        ),
        (
            lambda rng: subspace_intersection_experiment(4, 2, 2, 2.5, rng),
            lambda rng: subspace_intersection_experiment(4, 2, 2, np.int64(3), rng) == 0.0,
        ),
        (
            lambda rng: subspace_intersection_experiment(4, 2.0, 2, 10, rng),
            lambda rng: subspace_intersection_experiment(np.int64(4), np.int64(2), np.int64(2), 3, rng) == 0.0,
        ),
        (
            lambda rng: rank_additivity_experiment(np.eye(2), np.eye(2), 2.5, rng),
            lambda rng: rank_additivity_experiment(np.eye(2), np.eye(2), np.int64(3), rng).trials == 3,
        ),
        (
            lambda rng: convolution_support_experiment((1.0, 1, 3), 1.0, 3, rng),
            lambda rng: convolution_support_experiment((1.0, 1, 3), np.int64(1), np.int64(3), rng).trials == 3,
        ),
        (
            lambda rng: phi_kappa_mc(np.eye(2), (1,), 2.5, rng),
            lambda rng: phi_kappa_mc(np.eye(2), (1,), np.int64(3), rng).n_samples == 3,
        ),
        (
            lambda rng: zonal_lemma_checks(np.eye(2), (2.5,)),
            lambda rng: len(zonal_lemma_checks(np.eye(2), (np.int64(3),))) == 4,
        ),
    ],
    ids=[
        "ncw_sample",
        "m_measure_sample",
        "singular_r_sample",
        "subspace_intersection_experiment",
        "subspace_intersection_experiment-dims",
        "rank_additivity_experiment",
        "convolution_support_experiment",
        "phi_kappa_mc",
        "zonal_lemma_checks",
    ],
)
def test_samplers_reject_non_integer_counts_with_value_error(bad, good, rng):
    with pytest.raises(ValueError):
        bad(rng)
    assert good(rng)


def test_weighted_estimator_variance_guard(rng):
    sample = m_measure_sample(MeasureSpec(2.0, 1, 2), 2000, rng)
    risky = 0.4 * np.eye(2)
    with pytest.raises(DomainError):
        weighted_laplace_estimate(sample, risky)


def test_laplace_estimates_past_the_double_range_raise_domain_error(rng):
    """A value, mean or standard error past the double range raises, with no numpy warning."""
    draws = ncw_sample(NcwParams(3.0, np.zeros((2, 2))), 100, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            empirical_laplace(draws, -400.0 * np.eye(2))
        with pytest.raises(DomainError):
            weighted_laplace_estimate(WeightedSample(draws, np.full(100, 800.0)), np.eye(2))
        s, t, log_w = 0.3 * np.eye(2), 0.8 * np.eye(2), np.linspace(-1.0, 1.0, 100)
        est = empirical_laplace(draws, s)
        weighted = weighted_laplace_estimate(WeightedSample(draws, log_w), t)
    # finite estimates keep the bits of the plain formula
    for got, vals in [
        (est, np.exp(-np.einsum("bij,ji->b", draws, s))),
        (weighted, np.exp(log_w - np.einsum("bij,ji->b", draws, t))),
    ]:
        assert got.estimate == float(vals.mean())
        assert got.std_error == float(vals.std(ddof=1) / math.sqrt(100))


def test_laplace_estimate_of_values_past_the_square_root_of_the_range_is_finite(rng):
    """Values of 4e154-2e164 square past the double range; their mean and std error do not."""
    draws = ncw_sample(NcwParams(3.0, np.zeros((2, 2))), 100, rng)
    log_w = np.linspace(370.0, 380.0, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = weighted_laplace_estimate(WeightedSample(draws, log_w), np.eye(2))
    assert math.isfinite(est.estimate) and math.isfinite(est.std_error)
    # a power of two scales exactly, so any one that keeps the squares in
    # range gives the same bits
    vals = np.exp(log_w - np.einsum("bij,ji->b", draws, np.eye(2)))
    assert est.estimate == float(vals.mean())
    assert est.std_error == 2.0**600 * float((vals / 2.0**600).std(ddof=1) / math.sqrt(100))
    # values that stay under the bound are not scaled
    modest = vals / 2.0**600
    assert _mc_mean(modest).std_error == float(modest.std(ddof=1) / math.sqrt(100))


def test_m_measure_seed_reproducibility():
    spec = MeasureSpec(2.0, 2, 2)
    a = m_measure_sample(spec, 50, np.random.default_rng(4))
    b = m_measure_sample(spec, 50, np.random.default_rng(4))
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.log_weights, b.log_weights)


# ---------------------------------------------------------------------------
# Rank-deficient remainder sampler


def test_singular_r_rank_and_weighted_mass(rng):
    for d in (2, 3):
        sample = singular_r_sample(d, 20_000, rng)
        # every draw carries weight, and every draw has rank d - 1: the
        # structural zero eigenvalue stays within the roundoff bound of
        # rank-support-singular-r, (2 (d-1)^(5/2) + d^2) eps of the largest
        assert np.all(np.isfinite(sample.log_weights))
        eigs = np.linalg.eigvalsh(sample.draws)
        bound = (2.0 * (d - 1) ** 2.5 + d**2) * np.finfo(float).eps
        assert np.all(np.abs(eigs[:, 0]) <= bound * eigs[:, -1])
        assert np.all(eigs[:, 1] > bound * eigs[:, -1])


def test_rank_support_records_pass_at_seed_3():
    # seed 3 draws an inner x whose second eigenvalue is under 1e-8 of its
    # largest, a tail event of m(d-1, d-1, d-1) that no record may fail on
    failed = [rec.name for rec in check_rank_support(RunConfig(seed=3)) if not rec.passed]
    assert failed == []


def test_rank_support_records_do_not_depend_on_thread_count():
    # the 11 experiments run as pool items at the default trials
    runs = [[rec.to_dict() for rec in check_rank_support(RunConfig(seed=1, threads=t))] for t in (1, 2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_singular_r_sample_matches_full_haar_push_forward(d):
    n_draws = 2000
    sample = singular_r_sample(d, n_draws, np.random.default_rng([d, 21]))
    # the same stream through the full Haar matrices and the zero-padded x
    gen = np.random.default_rng([d, 21])
    inner = m_measure_sample(MeasureSpec(float(d - 1), d - 1, d - 1), n_draws, gen)
    u = _haar_columns(d, n_draws, gen).transpose(2, 1, 0)
    embedded = np.zeros((n_draws, d, d))
    embedded[:, : d - 1, : d - 1] = inner.draws
    ref = u @ embedded @ np.swapaxes(u, 1, 2)
    scale = np.max(np.abs(inner.draws), axis=(1, 2))
    assert np.all(np.max(np.abs(sample.draws - ref), axis=(1, 2)) <= 1e-15 * scale)
    _, logdet = np.linalg.slogdet(inner.draws)
    log_w = inner.log_weights + 0.5 * (math.log(math.pi) + logdet) - math.lgamma(d / 2.0)
    assert np.array_equal(sample.log_weights, log_w)
    # exactly symmetric, with one structural zero eigenvalue
    assert np.array_equal(sample.draws, np.swapaxes(sample.draws, 1, 2))
    eigs = np.linalg.eigvalsh(sample.draws)
    top = eigs[:, -1:]
    assert np.all(np.abs(eigs[:, 0:1]) <= 1e-12 * top)
    assert np.all(eigs[:, 1:] > 1e-12 * top)


def test_singular_r_laplace_agreement(rng):
    for d in (2, 3):
        sample = singular_r_sample(d, N_MC, rng)
        s = 0.7 * np.eye(d) + np.diag(rng.uniform(0.0, 0.3, d))
        est = weighted_laplace_estimate(sample, s)
        series = singular_r_laplace(s, d)
        assert abs(est.estimate - series) < 4.0 * est.std_error


def test_singular_r_rejects_dimension_one(rng):
    with pytest.raises(ValueError):
        singular_r_sample(1, 10, rng)


# ---------------------------------------------------------------------------
# Support experiments


def test_subspace_intersection_never_hits(rng):
    assert subspace_intersection_experiment(4, 2, 2, 3000, rng) == 0.0
    assert subspace_intersection_experiment(5, 2, 3, 3000, rng) == 0.0
    # forcing G inside F flips the probability to one
    assert subspace_intersection_experiment(4, 2, 2, 500, rng, degenerate_control=True) == 1.0
    with pytest.raises(DomainError):
        subspace_intersection_experiment(4, 2, 3, 10, rng)


def test_rank_additivity_experiment(rng):
    hist = rank_additivity_experiment(
        np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0, 0.0]), 3000, rng
    )
    assert hist.trials == 3000
    assert hist.off_target(3) == 0
    assert hist.quantiles.shape == (5, 4)
    zero = rank_additivity_experiment(np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3)), 500, rng)
    assert zero.off_target(2) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 10, 101, 1000, 10_000])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_order_statistics_match_np_quantile_bit_for_bit(n, d):
    rng = np.random.default_rng([n, d])
    eigs = np.sort(rng.standard_normal((n, d)) * rng.uniform(0.1, 1e3), axis=1)
    ref = np.quantile(eigs, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)
    got = _order_statistics(eigs)
    assert got.shape == ref.shape == (5, d)
    assert got.tobytes() == ref.tobytes()
    # ties compare equal; only the sign of a tied zero may differ
    tied = np.round(eigs / 100.0)
    assert np.array_equal(_order_statistics(tied), np.quantile(tied, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0))


def test_convolution_support_adds_ranks(rng):
    hist = convolution_support_experiment(MeasureSpec(1.0, 1, 3), 1, 3000, rng)
    assert hist.off_target(2) == 0
    central_only = convolution_support_experiment(MeasureSpec(1.0, 1, 3), 0, 500, rng)
    assert central_only.off_target(1) == 0


def test_convolution_square_corner_boundary_mass(rng):
    # ranks add to exactly d here, and the limiting density blows up like
    # det^(-1/2) at the cone boundary, so a small raw count of draws below
    # the eigenvalue tolerance is genuine boundary mass, not a rank defect
    hist = convolution_support_experiment(MeasureSpec(2.0, 1, 3), 1, 20_000, rng)
    assert hist.off_target(3) / hist.trials <= 2e-3
    assert all(r <= 3 for r in hist.counts)
