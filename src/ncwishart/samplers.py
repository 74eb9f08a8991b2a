"""Monte Carlo machinery: Gaussian-sum draws, importance weights, rank counts.

For integer shape n the law NCW(n, w, sigma) is realized exactly as
Y_1 Y_1^T + ... + Y_n Y_n^T with independent Gaussian columns Y_i of
covariance sigma whose means satisfy sum_i m_i m_i^T = 2 w (the factor 2
matches the Laplace-transform parametrization used across the package, under
which E[X] = n sigma + 2 w).  The canonical measures m(n, k, d) are not
probability laws, but integrals against them are estimated by reweighting
NCW(n, 2 I(k,d), I_d) draws with the positive density ratio

    2^(dn/2) * e^(2k) * e^(tr x / 2),

and the rank-(d-1) singular component of m(d-1, d, d) by pushing weighted
m(d-1, d-1, d-1) draws through (x, u) |-> u [x 0; 0 0] u^T with u Haar
orthogonal.  The experiment functions at the bottom turn the support
statements behind the existence classifier into direct rank counts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .measures import SHAPE_INTEGER_TOL, MeasureSpec, NcwParams
from .symcore import DomainError, _count, _haar_columns, _psd_eigh, sym_entries
from .zonal import McEstimate, _conjugate, _mc_mean

__all__ = [
    "RANK_EVENT_TOL",
    "MeanDecomposition",
    "RankExceedsShapeError",
    "RankHistogram",
    "WeightedSample",
    "convolution_support_experiment",
    "decompose_w",
    "empirical_laplace",
    "m_measure_sample",
    "ncw_sample",
    "rank_additivity_experiment",
    "singular_r_sample",
    "subspace_intersection_experiment",
    "weighted_laplace_estimate",
]

# Eigenvalues and singular values below this (relative) threshold count as
# zero in the rank experiments.
RANK_EVENT_TOL = 1e-8

# sigma with condition number beyond this is treated as singular rather
# than regularized; positive definiteness of the scale is a model
# assumption, not something to patch numerically.
_MAX_SIGMA_CONDITION = 1e12

# Draws per colouring product in _gaussian_sum_stack.  A product this size
# stays on the calling thread; a flat one over all draws is large enough for
# OpenBLAS to hand it to its own thread team, which the verify pool's
# threads then contend for.
_BLOCK_DRAWS = 2048


class RankExceedsShapeError(ValueError):
    """No n-term mean decomposition exists: rank(w) > n.

    This is the same obstruction the existence classifier reports for
    integer shapes below d - 1.
    """


@dataclasses.dataclass(frozen=True, eq=False)
class MeanDecomposition:
    """Rows m_1, ..., m_n with sum_i m_i m_i^T equal to the decomposed matrix."""

    means: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be a 2-D array, one vector per row")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        object.__setattr__(self, "means", means)

    @property
    def count(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def assemble(self) -> np.ndarray:
        """Reassemble sum_i m_i m_i^T for residual checks."""
        return self.means.T @ self.means


def decompose_w(w, n: int) -> MeanDecomposition:
    """Split a positive semidefinite matrix into n rank-one mean terms.

    Eigendecomposition-based: the eigenpairs above the rank tolerance give
    m_i = sqrt(lambda_i) v_i in ascending eigenvalue order, padded with
    zero vectors to length n.  The signs of the m_i are those of the
    computed eigenvectors (the decomposition is only ever unique up to
    sign).

    Raises RankExceedsShapeError when rank(w) > n.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    _, vals, vecs, rank = _psd_eigh(w, "w")
    if rank > n:
        raise RankExceedsShapeError(f"rank(w) = {rank} exceeds n = {n}")
    d = vals.size
    means = np.zeros((n, d))
    means[:rank] = np.sqrt(vals[d - rank :])[:, None] * vecs[:, d - rank :].T
    return MeanDecomposition(means)


def _integer_shape(shape: float) -> int:
    n = int(round(float(shape)))
    if abs(float(shape) - n) > SHAPE_INTEGER_TOL or n < 1:
        raise DomainError(
            f"Gaussian-sum sampling needs a positive integer shape, got {shape}"
        )
    return n


def _gaussian_sum_stack(
    means: np.ndarray, chol: np.ndarray, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws of sum_k Y_k Y_k^T, Y_k = chol z_k + means[k], stacked entries first.

    The (n_draws, n, d) standard normals are drawn from rng as one block,
    then walked in the fewest blocks of at most _BLOCK_DRAWS draws, as
    equal as possible.  Each block is copied entries first and coloured by
    one ``chol @ zb`` product over its n * B columns, so y[i, k] holds
    entry i of Y_k for every draw of the block and each entry of the sum
    is one contiguous reduction over k.  Every block then rounds as one
    flat product over all draws would.  A one-draw block would not (gemv
    instead of gemm at n = 1, and einsum's contiguous reduction), and with
    equal blocks it arises only when n_draws is 1.  Returns shape
    (d, d, n_draws), exactly symmetric.
    """
    n, d = means.shape
    z = rng.standard_normal((n_draws, n, d))
    shift = means.T[:, :, None]
    draws = np.empty((d, d, n_draws))
    blocks = -(-n_draws // _BLOCK_DRAWS)
    for b in range(blocks):
        lo, hi = b * n_draws // blocks, (b + 1) * n_draws // blocks
        zb = np.ascontiguousarray(z[lo:hi].transpose(2, 1, 0)).reshape(d, n * (hi - lo))
        y = (chol @ zb).reshape(d, n, hi - lo)
        y += shift
        for i in range(d):
            for j in range(i, d):
                draws[i, j, lo:hi] = draws[j, i, lo:hi] = np.einsum("kn,kn->n", y[i], y[j])
    return draws


def ncw_sample(params: NcwParams, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from NCW(n, w, sigma) for integer shape n, stacked (n_draws, d, d).

    Each draw is sum_{i<=n} Y_i Y_i^T with independent Gaussian columns
    Y_i ~ N(m_i, sigma) and sum_i m_i m_i^T = 2 w.  Draws are exactly
    symmetric and positive semidefinite; rank is min(n, d) almost surely.
    Empirical means converge to n sigma + 2 w.  The whole stack is formed
    entries first by one Gaussian-sum kernel (one colouring product per
    block of draws) and transposed once at the end.

    A one-draw call rounds differently from the first draw of a longer
    call on the same seed: its colouring product is a gemv instead of a
    gemm at n = 1, and einsum sums its n columns by its contiguous
    reduction, which rounds differently at some n (at d = 4, n = 5 but not
    n = 2).  The law is the same and the last bits differ; every call of
    two or more draws rounds as one flat product over all of them.
    """
    n = _integer_shape(params.shape)
    n_draws = _count(n_draws, "n_draws")
    means = decompose_w(2.0 * params.w, n).means
    sig_vals = np.linalg.eigvalsh(params.sigma)
    if sig_vals[0] <= 0.0 or sig_vals[-1] > _MAX_SIGMA_CONDITION * sig_vals[0]:
        raise DomainError("sigma is numerically singular (condition > 1e12)")
    chol = np.linalg.cholesky(params.sigma)
    draws = _gaussian_sum_stack(means, chol, n_draws, rng)
    return np.ascontiguousarray(draws.transpose(2, 0, 1))


@dataclasses.dataclass(frozen=True, eq=False)
class WeightedSample:
    """Stack of cone-valued draws with positive importance weights.

    Weights are held in log form; they stay finite there even when the
    density ratio overflows a double.  Expectations under the target
    measure are estimated by mean(weights * h(draws)).
    """

    draws: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        draws = np.asarray(self.draws, dtype=float)
        log_w = np.asarray(self.log_weights, dtype=float)
        if draws.ndim != 3 or draws.shape[1] != draws.shape[2]:
            raise ValueError("draws must be stacked symmetric matrices (N, d, d)")
        if log_w.shape != (draws.shape[0],):
            raise ValueError("need exactly one log-weight per draw")
        if not np.all(np.isfinite(log_w)):
            raise ValueError("log-weights must be finite")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "log_weights", log_w)

    def __len__(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def _m_measure_stack(
    spec: MeasureSpec, n_draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """m(n, k, d) proposal draws entries first, (d, d, n_draws), and their log-weights."""
    n = _integer_shape(spec.shape)
    k, d = spec.rank, spec.dim
    if k > n:
        raise DomainError(f"rank index k = {k} exceeds the integer shape n = {n}")
    n_draws = _count(n_draws, "n_draws")
    # NCW(n, 2 I(k,d), I_d): the means decompose 2 w = 4 I(k,d)
    means = decompose_w(4.0 * spec.indicator(), n).means
    draws = _gaussian_sum_stack(means, np.eye(d), n_draws, rng)
    log_w = 0.5 * d * n * math.log(2.0) + 2.0 * k + 0.5 * np.trace(draws)
    return draws, log_w


def m_measure_sample(
    spec: MeasureSpec | Sequence, n_draws: int, rng: np.random.Generator
) -> WeightedSample:
    """Importance sample for m(n, k, d) with integer shape n and k <= n.

    Proposal law NCW(n, 2 I(k,d), I_d), drawn by the same Gaussian-sum
    kernel as :func:`ncw_sample`, with the traces summed from the
    entries-first diagonal; per-draw log-weight

        (d n / 2) log 2 + 2 k + tr(x) / 2.

    k <= n is required by the construction.  n <= d is not: the identity
    behind the weight holds for any integer shape, and the existence
    classifier already guards the k > n cases that would fail it below
    d - 1.  Laplace-transform estimates from the weights are only
    finite-variance for s > I_d / 2; weighted_laplace_estimate enforces
    that domain.  As with :func:`ncw_sample`, a one-draw call rounds its
    draw differently from the first draw of a longer call on the same
    seed.
    """
    draws, log_w = _m_measure_stack(MeasureSpec.of(spec), n_draws, rng)
    return WeightedSample(np.ascontiguousarray(draws.transpose(2, 0, 1)), log_w)


def singular_r_sample(d: int, n_draws: int, rng: np.random.Generator) -> WeightedSample:
    """Weighted draws from the rank-(d-1) component of m(d-1, d, d).

    Push-forward construction: x weighted-sampled from m(d-1, d-1, d-1) in
    dimension d - 1, u Haar orthogonal in dimension d, draw u [x 0; 0 0] u^T
    with the weight multiplied by (pi det x)^(1/2) / Gamma(d/2).  The inner
    x stay entries first as the Gaussian-sum kernel forms them; their
    log-determinants are taken on a strided (n_draws, d-1, d-1) view.  The
    draw only involves the first d - 1 columns of u, so it is formed as
    u_{d-1} x u_{d-1}^T from those columns, which
    :func:`~ncwishart.symcore._haar_columns` forms entries first from the
    same normals as the full matrices.  Draws are exactly
    symmetric, and every draw has rank exactly d - 1 almost surely.
    """
    d = _count(d, "d", 2)
    n_draws = _count(n_draws, "n_draws")
    x, inner_log_w = _m_measure_stack(MeasureSpec(float(d - 1), d - 1, d - 1), n_draws, rng)
    sign, logdet = np.linalg.slogdet(x.transpose(2, 0, 1))
    if np.any(sign <= 0):
        # x is full rank almost surely; a nonpositive determinant means a
        # degenerate draw slipped through, not a usable sample.
        raise RuntimeError("inner draw with nonpositive determinant")
    cols = _haar_columns(d, n_draws, rng, d - 1)
    draws = np.ascontiguousarray(_conjugate(cols, x, d).transpose(2, 0, 1))
    log_w = inner_log_w + 0.5 * (math.log(math.pi) + logdet) - math.lgamma(d / 2.0)
    return WeightedSample(draws, log_w)


def _laplace_mean(draws: np.ndarray, s: np.ndarray, log_weights: np.ndarray | None = None) -> McEstimate:
    """Mean of exp(log_weights - tr(s x)) over stacked draws x, with its standard error.

    A value, mean or standard error beyond the double range raises
    DomainError, with no numpy warning first.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = -np.einsum("bij,ji->b", draws, s)
        if log_weights is not None:
            exponents += log_weights
        est = _mc_mean(np.exp(exponents))
    if not (math.isfinite(est.estimate) and math.isfinite(est.std_error)):
        raise DomainError(
            f"the Laplace estimate leaves the double range: estimate {est.estimate}, std error {est.std_error}"
        )
    return est


def empirical_laplace(draws: np.ndarray, s) -> McEstimate:
    """Plain Monte Carlo estimate of E[exp(-tr(s X))] over stacked draws.

    An estimate or standard error beyond the double range raises
    DomainError.
    """
    s = sym_entries(s, "s")
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3 or draws.shape[1:] != s.shape:
        raise ValueError("draws must be stacked (N, d, d) matching s")
    return _laplace_mean(draws, s)


def weighted_laplace_estimate(sample: WeightedSample, s) -> McEstimate:
    """Importance estimate of the integral of exp(-tr(s x)) against the target.

    The m(n, k, d) weights grow like e^(tr x / 2), so the estimator has
    finite variance only for s > I_d / 2; outside that domain the call is
    refused.  An estimate or standard error beyond the double range raises
    DomainError.
    """
    s = sym_entries(s, "s")
    if s.shape[0] != sample.dim:
        raise ValueError("s dimension does not match the sample")
    gap = np.linalg.eigvalsh(s - 0.5 * np.eye(sample.dim))
    if gap[0] <= 0.0:
        raise DomainError("weighted Laplace estimates need s > I/2")
    return _laplace_mean(sample.draws, s, sample.log_weights)


# ---------------------------------------------------------------------------
# Rank-support experiments


@dataclasses.dataclass(frozen=True, eq=False)
class RankHistogram:
    """Rank counts at RANK_EVENT_TOL with auditable spectra.

    quantiles holds the [min, 25%, 50%, 75%, max] of each eigenvalue
    position (ascending) across trials, so a borderline rank call can be
    checked against the actual spectral gap rather than trusted blindly.
    """

    counts: dict[int, int]
    quantiles: np.ndarray

    @property
    def trials(self) -> int:
        return sum(self.counts.values())

    def off_target(self, rank: int) -> int:
        """Number of trials whose rank differs from the expected one."""
        return sum(c for r, c in self.counts.items() if r != rank)


_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _order_statistics(eigs: np.ndarray) -> np.ndarray:
    """The _QUANTILES of each column of eigs, bit for bit np.quantile's linear method.

    One sort along the trial axis, then numpy's interpolation rule between
    the neighbouring order statistics a and b at fraction t:
    a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5.  Only the sign
    of a zero tied with another zero can differ, since a sort and
    np.quantile's partition may order the two differently.  np.quantile
    itself would import numpy.ma.
    """
    ordered = np.sort(eigs, axis=0)
    last = ordered.shape[0] - 1
    rows = []
    for q in _QUANTILES:
        pos = last * q
        lo = math.floor(pos)
        t = pos - lo
        a, b = ordered[lo], ordered[min(lo + 1, last)]
        rows.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))
    return np.array(rows)


def _rank_histogram(draws: np.ndarray) -> RankHistogram:
    """Rank counts of draws (N, d, d): eigenvalues above RANK_EVENT_TOL * max(1, lambda_max)."""
    eigs = np.linalg.eigvalsh(draws)
    thresh = RANK_EVENT_TOL * np.maximum(1.0, eigs[:, -1])[:, None]
    values, counts = np.unique(np.count_nonzero(eigs > thresh, axis=1), return_counts=True)
    return RankHistogram({int(r): int(c) for r, c in zip(values, counts)}, _order_statistics(eigs))


def subspace_intersection_experiment(
    d: int,
    n: int,
    k: int,
    trials: int,
    rng: np.random.Generator,
    degenerate_control: bool = False,
) -> float:
    """Estimated probability that a Gaussian k-plane meets a fixed n-plane.

    F is the span of the first n coordinates; G is spanned by k independent
    standard Gaussian vectors.  A hit means dim(F + G) < n + k, detected by
    the smallest singular value of the stacked basis falling below
    RANK_EVENT_TOL (relative to the largest).  For k <= d - n the hit
    probability is 0.  degenerate_control=True zeroes the Gaussian
    components outside F, which forces every trial to hit.
    """
    d, n, k = _count(d, "d", None), _count(n, "n", None), _count(k, "k", None)
    if not 1 <= n < d:
        raise ValueError("need 1 <= n < d")
    if not 1 <= k <= d - n:
        raise DomainError(f"k must satisfy 1 <= k <= d - n = {d - n}")
    trials = _count(trials, "trials")
    g = rng.standard_normal((trials, k, d))
    if degenerate_control:
        g[:, :, n:] = 0.0
    stacked = np.concatenate(
        [np.broadcast_to(np.eye(d)[:n], (trials, n, d)), g], axis=1
    )
    svals = np.linalg.svd(stacked, compute_uv=False)
    cutoff = RANK_EVENT_TOL * np.maximum(1.0, svals[:, 0])
    hits = int(np.count_nonzero(svals[:, n + k - 1] <= cutoff))
    return hits / trials


def rank_additivity_experiment(
    x0,
    y0,
    trials: int,
    rng: np.random.Generator,
) -> RankHistogram:
    """Rank histogram of x0 + u y0 u^T over Haar-random orthogonal u.

    For x0 of rank a and y0 of rank b in the closed cone, all mass should
    land on min(a + b, d).  u y0 u^T is formed entries first by the
    conjugation kernel of :func:`singular_r_sample`, so the sums are
    exactly symmetric.
    """
    a = _psd_eigh(x0, "x0")[0]
    b = _psd_eigh(y0, "y0")[0]
    d = a.shape[0]
    if b.shape[0] != d:
        raise ValueError("x0 and y0 dimensions differ")
    trials = _count(trials, "trials")
    sums = a[:, :, None] + _conjugate(_haar_columns(d, trials, rng), b, d)
    return _rank_histogram(sums.transpose(2, 0, 1))


def convolution_support_experiment(
    spec_a: MeasureSpec | Sequence,
    b: int,
    trials: int,
    rng: np.random.Generator,
) -> RankHistogram:
    """Rank histogram of X + Z with X drawn for m(spec_a), Z central of shape b.

    X uses the m(n, k, d) proposal draws; their importance weights are
    strictly positive, so the rank support of the weighted measure equals
    that of the proposal and unweighted counts suffice here.  Z is a
    central Wishart draw of integer shape b (b = 0 contributes the zero
    matrix).  All mass should land on min(a + b, d).
    """
    spec_a = MeasureSpec.of(spec_a)
    b = _count(b, "b", 0)
    trials = _count(trials, "trials")
    d = spec_a.dim
    total = m_measure_sample(spec_a, trials, rng).draws
    if b > 0:
        total = total + ncw_sample(
            NcwParams(float(b), np.zeros((d, d))), trials, rng
        )
    return _rank_histogram(total)
