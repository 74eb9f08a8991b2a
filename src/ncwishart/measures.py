"""Existence, Laplace transforms, and densities of the matrix measure family.

Two families live here.  NCW(n, w, sigma) is the non-central Wishart law on
d x d symmetric matrices with shape n (any admissible positive real),
positive semidefinite non-centrality w, and positive definite scale sigma;
its Laplace transform at s is

    det(I + 2 sigma s)^(-n/2) * exp(-tr(2 s (I + 2 sigma s)^(-1) w)).

m(n, k, d) is the canonical cone measure of shape n and rank index k whose
Laplace transform on the open cone is

    (det s)^(-n/2) * exp(tr(s^(-1) I(k, d))),    I(k, d) = diag(0,...,0,1,...,1)

with k trailing ones.  Both exist exactly when the shape lies in the
half-integer ladder {1, ..., d-2} with rank at most the shape, or in the
continuous range [d-1, infinity).  The module provides the existence
classifier, both transforms, the reduction of NCW parameters to canonical
(k, q) form, the absolutely continuous densities (full-rank series and the
critical-shape boundary density f_d), the rank-(d-1) remainder transform,
the explicit d = 2 critical-shape formulas in cone-of-revolution
coordinates, and the derivative identities behind them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .symcore import (
    ConePoint2,
    DomainError,
    TruncationError,
    _count,
    _psd_eigh,
    rank_psd,
    sym_entries,
)
from .zonal import _weighted_layers

__all__ = [
    "VerdictReason",
    "ExistenceVerdict",
    "MeasureSpec",
    "NcwParams",
    "CanonicalReduction",
    "exists_m",
    "exists_ncw",
    "laplace_ncw",
    "laplace_m",
    "reduce_to_canonical",
    "density_m_fullrank",
    "density_fd",
    "lt_fd_series",
    "singular_r_laplace",
    "m122_laplace_cone",
    "m122_singular_density",
    "m122_ac_density",
    "m111_density",
    "FaaDiBrunoCheck",
    "faa_di_bruno_check",
]

# Shapes this close to an integer are treated as that integer when testing
# membership in the discrete ladder {1, ..., d-2}.
SHAPE_INTEGER_TOL = 1e-9


# The one stop rule of every zonal series: stop once _SERIES_SMALL_LAYERS
# consecutive layers are each at most _SERIES_REL_TOL of the running total,
# and give up with TruncationError past weight _SERIES_MAX_WEIGHT.
_SERIES_REL_TOL = 1e-10
_SERIES_SMALL_LAYERS = 2
_SERIES_MAX_WEIGHT = 64


def _sum_weight_layers(layers: Iterable[float]) -> float:
    """Sum the weight layers w = 0, 1, 2, ... of a series under the stop rule.

    A layer that is not finite raises DomainError, without a numpy
    warning: the layers are drawn under one ``np.errstate``, so a layer
    generator that overflows inside numpy stays silent.  Leading layers can
    vanish identically (gamma poles), so the count of small layers starts
    once the total is nonzero.  No layer past _SERIES_MAX_WEIGHT is drawn.
    A total still exactly 0 there means every layer underflowed, which
    raises DomainError.
    """
    total = 0.0
    small_run = 0
    last_rel = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for w, value in zip(range(_SERIES_MAX_WEIGHT + 1), layers):
            if not math.isfinite(value):
                raise DomainError(f"zonal series layer of weight {w} is not finite ({value})")
            total += value
            if total == 0.0:
                continue
            last_rel = abs(value) / abs(total)
            if last_rel <= _SERIES_REL_TOL:
                small_run += 1
                if small_run >= _SERIES_SMALL_LAYERS:
                    return total
            else:
                small_run = 0
    if total == 0.0:
        raise DomainError(
            f"every zonal series layer through weight {_SERIES_MAX_WEIGHT} underflows to 0: "
            "the series is below the double range"
        )
    raise TruncationError(
        f"series not converged by weight {_SERIES_MAX_WEIGHT} (last layer ratio {last_rel:.3e})",
        partial_value=total,
        max_weight=_SERIES_MAX_WEIGHT,
        last_rel_change=last_rel,
    )


# ---------------------------------------------------------------------------
# Existence


class VerdictReason(enum.Enum):
    OK_CONTINUOUS_SHAPE = "ok_continuous_shape"
    OK_INTEGER_SHAPE = "ok_integer_shape"
    SHAPE_NOT_IN_LAMBDA = "shape_not_in_lambda"
    RANK_EXCEEDS_SHAPE = "rank_exceeds_shape"


@dataclasses.dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of the existence test with the clause that decided it."""

    exists: bool
    reason: VerdictReason
    clause: str
    shape: float
    rank: int
    dim: int

    def __bool__(self) -> bool:
        return self.exists


def exists_m(shape: float, rank: int, dim: int) -> ExistenceVerdict:
    """Does the measure with the given shape, rank index, and dimension exist?

    The admissible set: shape >= dim - 1 with any rank 0..dim, or shape a
    positive integer n <= dim - 2 (within SHAPE_INTEGER_TOL) with
    rank <= n.  Everything else is excluded.
    """
    shape = float(shape)
    dim, rank = _dim_and_rank(dim, rank)
    if not math.isfinite(shape):
        return ExistenceVerdict(
            False, VerdictReason.SHAPE_NOT_IN_LAMBDA, f"shape {shape} is not finite", shape, rank, dim
        )
    if shape <= 0:
        return ExistenceVerdict(
            False, VerdictReason.SHAPE_NOT_IN_LAMBDA, f"shape {shape} is not positive", shape, rank, dim
        )
    if shape >= dim - 1 - SHAPE_INTEGER_TOL:
        return ExistenceVerdict(
            True,
            VerdictReason.OK_CONTINUOUS_SHAPE,
            f"shape {shape} >= d-1 = {dim - 1}: continuous range, any rank 0..{dim} admissible",
            shape,
            rank,
            dim,
        )
    nearest = round(shape)
    if abs(shape - nearest) <= SHAPE_INTEGER_TOL and 1 <= nearest <= dim - 2:
        if rank <= nearest:
            return ExistenceVerdict(
                True,
                VerdictReason.OK_INTEGER_SHAPE,
                f"shape = {nearest} is an integer in 1..d-2 = 1..{dim - 2} and rank {rank} <= {nearest}",
                shape,
                rank,
                dim,
            )
        return ExistenceVerdict(
            False,
            VerdictReason.RANK_EXCEEDS_SHAPE,
            f"shape = {nearest} is an integer in 1..d-2 but rank {rank} > {nearest}",
            shape,
            rank,
            dim,
        )
    return ExistenceVerdict(
        False,
        VerdictReason.SHAPE_NOT_IN_LAMBDA,
        f"shape {shape} is below d-1 = {dim - 1} and is not an integer in 1..{dim - 2}",
        shape,
        rank,
        dim,
    )


def _dim_and_rank(dim, rank) -> tuple[int, int]:
    """dim >= 1 and rank in 0..dim as ints, by the integer rule of symcore._count."""
    dim = _count(dim, "dim")
    rank = _count(rank, "rank", 0)
    if rank > dim:
        raise ValueError(f"rank must be in 0..{dim}, got {rank}")
    return dim, rank


@dataclasses.dataclass(frozen=True)
class MeasureSpec:
    """Canonical measure parameters: shape n, rank index k, dimension d."""

    shape: float
    rank: int
    dim: int

    def __post_init__(self) -> None:
        dim, rank = _dim_and_rank(self.dim, self.rank)
        if not 0.0 < float(self.shape) < math.inf:
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def of(cls, spec: "MeasureSpec | Sequence") -> "MeasureSpec":
        if isinstance(spec, MeasureSpec):
            return spec
        shape, rank, dim = spec
        return cls(float(shape), rank, dim)

    def indicator(self) -> np.ndarray:
        """I(k, d): zeros then k trailing ones on the diagonal."""
        return np.diag(np.concatenate([np.zeros(self.dim - self.rank), np.ones(self.rank)]))


@dataclasses.dataclass(frozen=True, eq=False)
class NcwParams:
    """Non-central Wishart parameters (shape n, non-centrality w, scale sigma).

    w must be positive semidefinite and sigma positive definite, by the
    closed-cone rule of ``symcore._psd_eigh`` (DomainError otherwise); sigma
    defaults to the identity.  The mean of the law is n*sigma + 2*w.
    """

    shape: float
    w: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0.0 < float(self.shape) < math.inf:
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        w = _psd_eigh(self.w, "w")[0]
        d = w.shape[0]
        sigma, _, _, sigma_rank = _psd_eigh(np.eye(d) if self.sigma is None else self.sigma, "sigma")
        if sigma.shape[0] != d:
            raise ValueError("w and sigma dimensions differ")
        if sigma_rank < d:
            raise DomainError("sigma must be positive definite")
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def mean(self) -> np.ndarray:
        return self.shape * self.sigma + 2.0 * self.w


def exists_ncw(params: NcwParams) -> ExistenceVerdict:
    """Existence test for NCW(n, w, sigma): rank of w plays the rank index."""
    return exists_m(params.shape, rank_psd(params.w), params.dim)


# ---------------------------------------------------------------------------
# Laplace transforms


_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
_DOUBLE_TINY = float(np.finfo(float).tiny)


def _exp_in_range(log_value: float, what: str) -> float:
    """exp(log_value); DomainError naming *what* when it leaves the double range."""
    if log_value > _LOG_DOUBLE_MAX:
        raise DomainError(f"the {what} exceeds the double range: its log is {log_value:.6g}")
    return math.exp(log_value)


def laplace_ncw(s, params: NcwParams) -> float:
    """Laplace transform of NCW(n, w, sigma) at the symmetric matrix s.

    Requires I + 2 sigma s to be positive definite (always true for s in
    the closed cone); raises DomainError otherwise, and when the value
    exceeds the double range.  Where I + 2 sigma s itself leaves the double
    range, s is divided by a power of two 2^e, which is exact, and the
    transform is read from I / 2^e + 2 sigma s / 2^e: its log-determinant
    gains d e log 2, and s (I + 2 sigma s)^-1 is unchanged.  The 2 goes
    with s, so a sigma past half the double range is covered too.

    The value is exp of its log, so a value v carries a relative error of
    about |ln v| eps from that step alone: about 8e-14 near 1e-155.  Such
    values must not be compared at 1e-14.
    """
    s = sym_entries(s, "s")
    d = params.dim
    if s.shape[0] != d:
        raise ValueError("s has wrong dimension")
    sig_vals, sig_vecs = np.linalg.eigh(params.sigma)
    half = sig_vecs @ np.diag(np.sqrt(sig_vals)) @ sig_vecs.T
    unit, scale = np.eye(d), 0
    for _ in range(2):  # the second pass, at a scale, only past the double range
        with np.errstate(over="ignore", invalid="ignore"):
            b = unit + 2.0 * half @ s @ half
            b = (b + b.T) / 2.0
            # 2 s, not 2 sigma: a sigma past half the double range stays finite
            a = unit + params.sigma @ (2.0 * s)
        if np.all(np.isfinite(b)) and np.all(np.isfinite(a)):
            break
        # the entries of half s half are below d^3 max|sigma| max|s|, so
        # this scale puts 2 half s half and 2 sigma s below 2^1021
        scale = math.frexp(np.abs(s).max())[1] + math.frexp(np.abs(params.sigma).max())[1] + 3 * d.bit_length() - 1020
        s, unit = np.ldexp(s, -scale), np.ldexp(unit, -scale)
    else:
        raise DomainError("2 sigma s exceeds the double range")
    b_eigs = np.linalg.eigvalsh(b)
    if b_eigs[0] <= 0:
        raise DomainError("I + 2*sigma*s is not positive definite at this s")
    logdet = float(np.sum(np.log(b_eigs))) + d * scale * math.log(2.0)
    x = np.linalg.solve(a, params.w)
    trace_term = 2.0 * float(np.trace(s @ x))
    return _exp_in_range(-(params.shape / 2.0) * logdet - trace_term, "transform")


def laplace_m(s, spec: MeasureSpec | Sequence) -> float:
    """Laplace transform of m(n, k, d) at a positive definite s.

    (det s)^(-n/2) * exp(sum of the k trailing diagonal entries of s^(-1)).
    Raises DomainError when the value exceeds the double range.  The value
    is exp of its log, so a value v carries a relative error of about
    |ln v| eps from that step alone: about 8e-14 near 1e-155.  Such values
    must not be compared at 1e-14.
    """
    spec = MeasureSpec.of(spec)
    s = sym_entries(s, "s")
    d = spec.dim
    if s.shape[0] != d:
        raise ValueError(f"s must be {d}x{d}")
    logdet = float(np.sum(np.log(_pd_eigenvalues(s, "s"))))
    try:
        inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        # eigenvalues at roundoff level can pass as positive where LU meets a zero pivot
        raise DomainError("s is numerically singular") from None
    trace_term = float(np.trace(inv[d - spec.rank :, d - spec.rank :])) if spec.rank else 0.0
    return _exp_in_range(-(spec.shape / 2.0) * logdet + trace_term, "transform")


@dataclasses.dataclass(frozen=True, eq=False)
class CanonicalReduction:
    """Change of variable taking NCW parameters to canonical form.

    q satisfies q M q^T = I(k, d) for M = (1/2) sigma^(-1) w sigma^(-1),
    and the transform identity

        laplace_ncw(s) = laplace_m(q (s + b) q^T) / laplace_m(q b q^T),
        b = (2 sigma)^(-1),

    holds with the measure triple (shape, rank, dim) recorded here.
    """

    q: np.ndarray
    rank: int
    shape: float
    dim: int
    warning: str | None = None

    def spec(self) -> MeasureSpec:
        return MeasureSpec(self.shape, self.rank, self.dim)


def reduce_to_canonical(params: NcwParams) -> CanonicalReduction:
    """Diagonalize M = (1/2) sigma^(-1) w sigma^(-1) into canonical (q, k).

    k = rank_psd(w), the rank that :func:`exists_ncw` and ``ncw_sample``
    take, so the reduction and the existence test read one rank.  The
    eigenvalues of M sit in ascending order; the trailing k, lambda_i^2,
    define q = diag(1,...,1, 1/lambda) u^T.  When M's k-th largest
    eigenvalue is not positive, sigma is too ill-conditioned for the
    reduction to keep rank(w), and DomainError is raised.  A warning is
    set when the zero/nonzero split of M is numerically ambiguous.
    """
    d = params.dim
    k = rank_psd(params.w)
    sigma_inv_w = np.linalg.solve(params.sigma, params.w)
    m = 0.5 * np.linalg.solve(params.sigma, sigma_inv_w.T).T
    if not np.all(np.isfinite(m)):
        raise DomainError("M = sigma^(-1) w sigma^(-1) / 2 exceeds the double range")
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    scale = np.ones(d)
    if k:
        if not vals[d - k] > 0.0:
            raise DomainError(
                f"sigma is too ill-conditioned to keep rank(w) = {k}: M's eigenvalue "
                f"{k} from the top is {vals[d - k]:.3e}"
            )
        scale[d - k :] = 1.0 / np.sqrt(vals[d - k :])
    q = scale[:, None] * vecs.T
    warning = None
    if 0 < k < d:
        discarded = max(vals[d - k - 1], 0.0)
        kept = vals[d - k]
        if discarded > 1e-6 * kept:
            warning = (
                f"rank split is ill-conditioned: discarded eigenvalue {discarded:.3e} "
                f"vs smallest kept {kept:.3e}"
            )
    return CanonicalReduction(
        q=q,
        rank=k,
        shape=params.shape,
        dim=d,
        warning=warning,
    )


# ---------------------------------------------------------------------------
# Zonal series: densities and partial transforms


def _pd_eigenvalues(x, name: str) -> np.ndarray:
    a = sym_entries(x, name)
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0:
        raise DomainError(f"{name} must be positive definite")
    return eigs


def _lgamma_or_inf(a: float) -> float:
    """lgamma(a), or +inf at a pole a <= 0 and past the double range."""
    if a <= 0.0:
        return math.inf
    try:
        return math.lgamma(a)
    except OverflowError:
        return math.inf


def _log_multivariate_gammas(p: float, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """log Gamma_d(kappa + p) for every kappa of a layer, from its padded parts.

    The values are gathered from the table lg[j, m] = lgamma(p + m - j/2)
    and summed over j in the order of :func:`~ncwishart.zonal.multivariate_gamma`,
    so each equals its log=True value bit for bit.  Arguments at or below
    zero are gamma poles, where that function raises: the table holds +inf
    there, and where lgamma overflows, and so does the sum.  The columns
    double whenever the largest part of the parts passed, one layer's or a
    whole chunk's, passes them, so the table grows with the weight the
    series reaches.
    """
    log_pi = d * (d - 1) / 4.0 * math.log(math.pi)
    half = np.arange(d) / 2.0
    rows = np.arange(d)[:, None]
    table = np.empty((d, 0))

    def log_gammas(parts: np.ndarray) -> np.ndarray:
        nonlocal table
        top = int(parts[:, 0].max())  # the largest part of every layer passed
        if top >= table.shape[1]:
            cols = [
                [_lgamma_or_inf(a) for a in ((p + m) - half).tolist()]
                for m in range(table.shape[1], 2 * top + 1)
            ]
            table = np.hstack([table, np.array(cols).T])
        terms = table.ravel().take(parts.T + table.shape[1] * rows)
        total = log_pi + terms[0]
        for row in terms[1:]:
            total += row
        return total

    return log_gammas


def density_m_fullrank(x, shape: float) -> float:
    """Density of m(n, d, d) at PD x, against the isometric Lebesgue measure.

        2^(-d(d-1)/4) * (det x)^(n/2 - (d+1)/2)
                      * sum_kappa C_kappa(x) / (|kappa|! Gamma_d(kappa + n/2))

    The reference measure is the one carried by the coordinates of
    ``lebesgue_coords`` (off-diagonals scaled by sqrt(2)); the leading
    power of two converts from the entrywise Lebesgue measure that the
    gamma-function integrals are classically stated for.  Defined for
    shape >= d - 1 (the full-rank existence range).  At the critical shape
    n = d - 1 the gamma factors of partitions shorter than d hit poles and
    drop out; what remains is (det x)^(-1) times the interior density of
    the boundary decomposition, see :func:`density_fd`.

    The series is the layer walk :func:`~ncwishart.zonal._weighted_layers`
    weighted by the reciprocal gammas exp(-log Gamma_d(kappa + n/2)) of
    :func:`_log_multivariate_gammas` (a pole gives the weight exactly 0)
    and summed by :func:`_sum_weight_layers`.
    """
    return _fullrank_density(_pd_eigenvalues(x, "x"), shape)


def _fullrank_density(eigs: np.ndarray, shape: float) -> float:
    """:func:`density_m_fullrank` at the point with eigenvalues *eigs*."""
    d = eigs.size
    shape = float(shape)
    if not d - 1 - SHAPE_INTEGER_TOL <= shape < math.inf:
        raise DomainError(f"full-rank density requires a finite shape >= d-1 = {d - 1}, got {shape}")
    p = shape / 2.0
    log_gammas = _log_multivariate_gammas(p, d)
    series = _sum_weight_layers(_weighted_layers(eigs, lambda parts: np.exp(-log_gammas(parts))))
    log_det = float(np.sum(np.log(eigs)))
    det_factor = _exp_in_range((p - (d + 1) / 2.0) * log_det, "density's determinant factor")
    return 2.0 ** (-d * (d - 1) / 4.0) * det_factor * series


def density_fd(t) -> float:
    """Interior density f_d at PD t for the critical shape n = d - 1.

        f_d(t) = 2^(-d(d-1)/4) * (det t)^(-1) * sum over full-length kappa of
                 C_kappa(t) / (|kappa|! Gamma_d(kappa + (d-1)/2))

    against the same isometric Lebesgue measure as
    :func:`density_m_fullrank`.  It is the full-rank density at the shape
    d - 1, where the gamma poles remove every kappa shorter than d.
    """
    eigs = _pd_eigenvalues(t, "t")
    if eigs.size < 2:
        raise DomainError("the boundary decomposition needs d >= 2")
    return _fullrank_density(eigs, eigs.size - 1)


def _fd_kappas(parts: np.ndarray) -> np.ndarray:
    """Mask of the kappa of a layer whose d-th part is positive: the f_d half."""
    return parts[:, -1] > 0


def _remainder_kappas(parts: np.ndarray) -> np.ndarray:
    """Mask of the kappa of a layer with at most d - 1 parts: the remainder half."""
    return parts[:, -1] == 0


def _split_series_at_inverse(s, dim: int) -> tuple[np.ndarray, float]:
    spec_eigs = _pd_eigenvalues(s, "s")
    if spec_eigs.size != dim:
        raise ValueError(f"s must be {dim}x{dim}")
    inv_eigs = 1.0 / spec_eigs[::-1]
    log_det = float(np.sum(np.log(spec_eigs)))
    prefactor = _exp_in_range(-(dim - 1) / 2.0 * log_det, "transform's determinant factor")
    return inv_eigs, prefactor


def lt_fd_series(s, dim: int) -> float:
    """Laplace transform of f_d * (normalized Lebesgue on the cone) at PD s.

        (det s)^(-(d-1)/2) * sum over full-length kappa of C_kappa(s^(-1)) / |kappa|!

    The layer walk weights each kappa by the mask :func:`_fd_kappas`.
    """
    inv_eigs, prefactor = _split_series_at_inverse(s, dim)
    return prefactor * _sum_weight_layers(_weighted_layers(inv_eigs, _fd_kappas))


def singular_r_laplace(s, dim: int) -> float:
    """Laplace transform at PD s of the rank-deficient remainder r.

    r is the singular part of the critical-shape measure m(d-1, d, d);
    its transform sums the complementary partitions:

        (det s)^(-(d-1)/2) * sum over kappa of length <= d-1 of C_kappa(s^(-1)) / |kappa|!

    so that singular_r_laplace + lt_fd_series reproduces laplace_m exactly
    (the two partition classes partition the exponential-of-trace series).
    The walk is that of :func:`lt_fd_series` with the complementary mask
    :func:`_remainder_kappas`.
    """
    inv_eigs, prefactor = _split_series_at_inverse(s, dim)
    return prefactor * _sum_weight_layers(_weighted_layers(inv_eigs, _remainder_kappas))


# ---------------------------------------------------------------------------
# Explicit d = 2 critical shape and d = 1 formulas

def m122_laplace_cone(a: float, b: float, c: float) -> float:
    """Closed-form transform of m(1, 2, 2) at s = [[a+b, c], [c, a-b]].

    Equals (a^2-b^2-c^2)^(-1/2) * exp(2a / (a^2-b^2-c^2)); (a, b, c) must
    lie in the open cone a > sqrt(b^2 + c^2).  Where a^2 leaves the normal
    double range, a, b and c are squared scaled by 2^-e, with a = f 2^e and
    1/2 <= f < 1, and the power of two is put back into each factor.  Where
    the product is not finite the value is taken from its log, and a value
    beyond the double range raises DomainError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError("(a, b, c) must be finite")
    e = 0 if _DOUBLE_TINY <= a * a < math.inf else math.frexp(a)[1]
    a_s, b_s, c_s = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    quad = a_s * a_s - b_s * b_s - c_s * c_s  # a^2 - b^2 - c^2 over 4^e
    if a <= 0 or quad <= 0:
        raise DomainError("need a > sqrt(b^2 + c^2) for a positive definite s")
    exponent = math.ldexp(2.0 * a_s / quad, -e)
    value = math.ldexp(quad**-0.5, -e) * math.exp(exponent) if exponent <= _LOG_DOUBLE_MAX else math.inf
    if math.isinf(value):
        return _exp_in_range(exponent - 0.5 * math.log(quad) - e * math.log(2.0), "transform")
    return value


# Past this argument cosh(t) is e^t / 2 to roundoff (e^(-2t) < 1e-600), so
# the cosh-type densities switch to their log there: math.cosh overflows at
# t = 710.5, while the density can still be finite.
_COSH_ARG_MAX = 700.0


def m122_singular_density(y: float, z: float) -> float:
    """Density of the singular part of m(1, 2, 2) on its boundary sheet.

    The rank-one part lives on the sheet x = sqrt(y^2 + z^2); in the chart
    (y, z) its density against dy dz is g(2 rho) with rho = sqrt(y^2+z^2)
    and g(u) = (2 / (pi u)) cosh(2 sqrt(u)).  Integrable but divergent at
    the apex, which is excluded.  A coordinate that is not finite, or a
    density beyond the double range, raises DomainError.
    """
    rho = math.hypot(y, z)
    if not math.isfinite(rho):
        raise DomainError("the sheet coordinates (y, z) must be finite")
    if rho <= 0:
        raise DomainError("the sheet chart density diverges at the apex (y, z) = (0, 0)")
    u = 2.0 * rho
    root = 2.0 * math.sqrt(u)
    if root <= _COSH_ARG_MAX:
        density = (2.0 / (math.pi * u)) * math.cosh(root)
        if density == math.inf:
            # 2 / (pi u) leaves the double range at a subnormal rho
            raise DomainError(f"the density exceeds the double range at rho = {rho:.6g}")
        return density
    # e^root / (pi u), with 2 rho kept out of the logs so that it cannot overflow
    log_density = 2.0 * math.sqrt(2.0) * math.sqrt(rho) - math.log(2.0 * math.pi) - math.log(rho)
    return _exp_in_range(log_density, "density")


# Points per slice of m122_ac_density: the slice's (n_m, slice) power
# buffer stays within a few MB (n_m is at most 487, where the density
# reaches the top of the double range), and each slice step is a few
# whole-slice operations.  A d2-roundtrip quadrature grid of 576 points is
# one slice.
_AC_SLICE = 4096

# The most that m122_ac_density's term table may drop in each direction,
# as a share of the sum: an eighth of the unit roundoff 2^-53.
_AC_TAIL = 2.0**-56


def _ac_term_counts(big_x: float, big_q: float) -> tuple[int, int]:
    """Sizes (n_m, n_k) of m122_ac_density's term table for the scales X and Q.

    In each direction, with term ratios r_j = term_(j+1) / term_j that fall
    with j, the size is the first N with r_N < 1 and term_N / (1 - r_N) at
    most _AC_TAIL times the largest term before N.  From N on the terms
    fall at least geometrically, so term_N / (1 - r_N) bounds the dropped
    tail, and the largest kept term is a lower bound on the sum.  The
    ratios are

        m: r_j   = X / ((j + 1) (j + 5/2)),
        k: rho_j = Q / ((j + 1) (j + 2) (2j + 5/2) (2j + 7/2)).

    r_j is the exact ratio of the k = 0 row of the table at 2x = X.  Row k
    is that row times prod_(j<m) (j + 5/2) / (j + 2k + 5/2), and a point
    2x < X multiplies it by (2x/X)^m.  Both factors fall with m, and a
    factor that falls with m moves a positive series' weight towards small
    m, so neither raises the share of the sum past N: the bound covers
    every row at every point of the call.  In k, the sum of row k at 2x is
    Q^k S_(2k+3/2)(2x) / (k! (k+1)!), with S_nu(u) = sum_m u^m / (m!
    Gamma(m + nu + 1)).  Termwise S_(nu+2)(u) <= S_nu(u) / ((nu + 1)
    (nu + 2)), so rho_j bounds the ratio of consecutive row sums at every
    point, and the factor (q/Q)^k falls with k.  The loop keeps the share
    term_n / max_(j<n) term_j rather than the terms, so nothing leaves the
    double range.
    """
    counts = []
    for ratio in (
        lambda j: big_x / ((j + 1.0) * (j + 2.5)),
        lambda j: big_q / ((j + 1.0) * (j + 2.0) * (2.0 * j + 2.5) * (2.0 * j + 3.5)),
    ):
        n, share = 1, ratio(0)
        while True:
            r = ratio(n)
            if r < 1.0 and share <= _AC_TAIL * (1.0 - r):
                break
            share = r if share >= 1.0 else share * r
            n += 1
        counts.append(n)
    return counts[0], counts[1]


def _ive_three_halves(z: float) -> float:
    """Exponentially scaled Bessel function e^(-z) I_{3/2}(z) for z > 2.

    I_{3/2}(z) = sqrt(2 / (pi z)) (cosh z - sinh z / z) is elementary; after
    the scaling the e^(-2z) terms underflow harmlessly, and past z = 2 the
    leading bracket 1 - 1/z cancels no more than one bit.
    """
    inv = 1.0 / z
    return math.sqrt(2.0 / (math.pi * z)) * ((1.0 - inv) + (1.0 + inv) * math.exp(-2.0 * z)) / 2.0


def m122_ac_density(p, y=None, z=None) -> float | np.ndarray:
    """Interior density of m(1, 2, 2) in cone coordinates, against dx dy dz.

    Accepts a ConePoint2 or three coordinates, which may be arrays that
    broadcast together; scalar input gives a float, array input an ndarray.
    With q = x^2 - y^2 - z^2 the density is the double series

        (2 / sqrt(pi)) sum_{k>=0} q^k / (k! (k+1)!)
                       sum_{m>=0} (2x)^m / (m! Gamma(m + 2k + 5/2)),

    equal to 2*sqrt(2) times f_2 at [[x+y, z], [z, x-y]] (the constant is
    the volume ratio between dx dy dz and the isometric Lebesgue measure).
    On the boundary sheet the k = 0 terms survive, so the value there is
    the continuous extension.  A point outside the closed cone, or a
    density beyond the double range, raises DomainError.

    Each call builds one table g[m, k] = X^m Q^k / (m! k! (k+1)! Gamma(m +
    2k + 5/2)), where X and Q are the call's largest 2x and q (at least 1),
    with its sizes set by X and Q through ``_ac_term_counts``: each
    direction stops where the dropped tail is at most 2^-56 of the sum, at
    every point of the call.  So a point's value does not depend on how
    the points are sliced.  The flattened points are walked in slices
    of ``_AC_SLICE``, reusing one power buffer and one row buffer.  In a
    slice the powers (2x/X)^m are running products, the rows are one
    matrix product g^T (2x/X)^m, and the sum over k is a Horner sum in
    q/Q.  A scalar is the one-point case of the same walk.  No scaled power
    exceeds 1, and g is built from running products of term ratios, so at
    a single point nothing leaves double range before the density does.
    An array whose largest x and largest q belong to different points can
    raise near the top of the range although each point alone is finite.
    """
    if y is None:
        x, y, z = p.x, p.y, p.z
    else:
        x = p
    f = _ac_density(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    return float(f) if f.ndim == 0 else f


def _ac_density(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The kernel of m122_ac_density: its values at the float arrays (x, y, z), which broadcast together."""
    x, y, z = np.broadcast_arrays(x, y, z)
    with np.errstate(over="ignore", invalid="ignore"):
        quad = x * x - y * y - z * z
    if not np.isfinite(quad).all():
        raise DomainError("the cone coordinates must be finite, with squares within the double range")
    if (x < 0).any() or (quad < 0).any():
        raise DomainError("(x, y, z) lies outside the closed cone x >= sqrt(y^2 + z^2)")
    two_x, q = 2.0 * x.ravel(), quad.ravel()
    big_x = float(np.max(two_x, initial=0.0))
    big_q = float(np.max(q, initial=0.0))
    # The k = 0 terms alone sum to (2/sqrt(pi)) X^(-3/4) I_{3/2}(2 sqrt(X)) at
    # the point of largest x; past the double range the tables need not be built.
    if big_x > 1.0:
        root = 2.0 * math.sqrt(big_x)
        log_floor = math.log(2.0 / math.sqrt(math.pi) * _ive_three_halves(root)) + root - 0.75 * math.log(big_x)
        if log_floor > _LOG_DOUBLE_MAX:
            raise DomainError(f"the density exceeds the double range: its log is above {log_floor:.6g}")
    scale_x, scale_q = max(big_x, 1.0), max(big_q, 1.0)
    n_m, n_k = _ac_term_counts(scale_x, scale_q)
    m = np.arange(n_m, dtype=float)
    k = np.arange(n_k, dtype=float)
    g = np.empty((n_m, n_k))
    g[0, 0] = 1.0 / math.gamma(2.5)
    g[0, 1:] = scale_q / (k[1:] * (k[1:] + 1.0) * (2.0 * k[1:] + 0.5) * (2.0 * k[1:] + 1.5))
    g[1:] = scale_x / (m[1:, None] * (m[1:, None] + 2.0 * k + 1.5))
    n = two_x.size
    width = min(n, _AC_SLICE)
    powers = np.empty(n_m * width)
    rows = np.empty(n_k * width)
    f = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(g[0], out=g[0])
        np.cumprod(g, axis=0, out=g)
        for lo in range(0, n, _AC_SLICE):
            hi = min(lo + _AC_SLICE, n)
            u = two_x[lo:hi] / scale_x
            v = q[lo:hi] / scale_q
            pw = powers[: n_m * (hi - lo)].reshape(n_m, hi - lo)
            rw = rows[: n_k * (hi - lo)].reshape(n_k, hi - lo)
            pw[0] = 1.0
            for i in range(1, n_m):
                np.multiply(pw[i - 1], u, out=pw[i])
            np.matmul(g.T, pw, out=rw)
            acc = f[lo:hi]
            acc[:] = rw[-1]
            for row in rw[-2::-1]:
                acc *= v
                acc += row
        f *= 2.0 / math.sqrt(math.pi)
    if not np.isfinite(f).all():
        raise DomainError("the density exceeds the double range")
    return f.reshape(x.shape)


def m111_density(lam: float) -> float:
    """Density of m(1, 1, 1) on (0, infinity): cosh(2 sqrt(lam)) / sqrt(pi lam).

    An argument that is not finite, or a density beyond the double range,
    raises DomainError.
    """
    if not math.isfinite(lam):
        raise DomainError("lam must be finite")
    if lam <= 0:
        raise DomainError("the density lives on lam > 0")
    root = 2.0 * math.sqrt(lam)
    if root <= _COSH_ARG_MAX:
        return math.cosh(root) / math.sqrt(math.pi * lam)
    # e^root / (2 sqrt(pi lam)), with pi lam kept out of the logs so that it cannot overflow
    return _exp_in_range(root - math.log(2.0) - 0.5 * (math.log(math.pi) + math.log(lam)), "density")


# ---------------------------------------------------------------------------
# Derivative identities behind the d = 2 interior density

# Finite-difference step of the stencil cross-check in faa_di_bruno_check.
_FD_STEP = 0.25


def _as_fraction(v: int | float | Fraction) -> Fraction:
    # Fraction(float) is the exact binary value, so the identity checks stay exact.
    return v if isinstance(v, Fraction) else Fraction(v)


def _poly_derivative_direct(power: int, n: int, x: Fraction, offset: Fraction) -> Fraction:
    """Exact n-th derivative of (x^2 - offset)^power via binomial expansion."""
    total = Fraction(0)
    for j in range(power + 1):
        e = 2 * j
        if e < n:
            continue
        total += math.comb(power, j) * (-offset) ** (power - j) * math.perm(e, n) * x ** (e - n)
    return total


def _faa_closed(power: int, n: int, x: Fraction, offset: Fraction) -> Fraction:
    """Exact n-th derivative of q^power, q = x^2 - offset, by Faa di Bruno.

    q' = 2x and q'' = 2 are the only nonzero derivatives, so the sum runs
    over the count k2 of second derivatives, with power - n + k2 >= 0:

        sum_k2 n! / (k2! (n-2k2)!) * power! / (power-n+k2)! * q^(power-n+k2) (2x)^(n-2k2)
    """
    q = x * x - offset
    total = Fraction(0)
    for k2 in range(max(0, n - power), n // 2 + 1):
        total += (
            Fraction(math.factorial(n), math.factorial(k2) * math.factorial(n - 2 * k2))
            * math.perm(power, n - k2)
            * q ** (power - n + k2)
            * (2 * x) ** (n - 2 * k2)
        )
    return total


@functools.cache
def _fd_stencil_weights(n: int) -> tuple[Fraction, ...]:
    """Exact rational weights for the n-th derivative on offsets -n, ..., n.

    2n+1 interpolation points reproduce any polynomial of degree <= 2n
    exactly, so for the polynomials differentiated here the finite
    difference has no truncation error, only roundoff.  Weight j is
    n! [t^n] prod_{i != j} (t - i) / prod_{i != j} (j - i), the n-th
    derivative at 0 of the Lagrange basis polynomial of node j.
    """
    pts = range(-n, n + 1)
    fact_n = math.factorial(n)
    out = []
    for j in pts:
        coeffs = [1]
        denom = 1
        for i in pts:
            if i == j:
                continue
            denom *= j - i
            # coeffs *= (t - i), lowest degree first
            coeffs = [0] + coeffs
            for t in range(len(coeffs) - 1):
                coeffs[t] -= i * coeffs[t + 1]
        out.append(Fraction(fact_n * coeffs[n], denom))
    return tuple(out)


def _fd_nth_derivative(power: int, n: int, x: float, offset: float, h: float) -> float:
    """Float n-th derivative of (x^2 - offset)^power by the exact-weight stencil."""
    total = 0.0
    for j, wj in zip(range(-n, n + 1), _fd_stencil_weights(n)):
        t = x + j * h
        total += float(wj) * (t * t - offset) ** power
    return total / h**n


@dataclasses.dataclass(frozen=True)
class FaaDiBrunoCheck:
    """Closed-form versus direct n-th derivatives of (x^2 - offset)^n and ^(n-1)."""

    n: int
    x: Fraction
    offset: Fraction
    closed_full: Fraction
    direct_full: Fraction
    closed_reduced: Fraction
    direct_reduced: Fraction
    fd_rel_error: float

    @property
    def matches(self) -> bool:
        return self.closed_full == self.direct_full and self.closed_reduced == self.direct_reduced


def faa_di_bruno_check(n: int, point: ConePoint2 | Sequence) -> FaaDiBrunoCheck:
    """Compare the composite-derivative closed forms against exact expansion.

    For q(x) = x^2 - offset the n-th x-derivatives of q^n and q^(n-1)
    collapse to single sums over the second-derivative count k2
    (:func:`_faa_closed`); at power n and n - 1 they read

        d^n/dx^n q^n     = n!^2  sum_{k2=0}^{floor(n/2)} q^k2 (2x)^(n-2k2) / (k2!^2 (n-2k2)!)
        d^n/dx^n q^(n-1) = n!(n-1)! sum_{k2=1}^{floor(n/2)} q^(k2-1) (2x)^(n-2k2) / ((k2-1)! k2! (n-2k2)!)

    Both are evaluated in exact rational arithmetic alongside a binomial
    differentiation of the same polynomials; `matches` is exact equality.
    The same derivatives are also taken by a (2n+1)-point finite-difference
    stencil in floating point, and fd_rel_error reports the larger of the
    two relative deviations.

    point is a ConePoint2 or an (x, y, z) triple; the derivatives are in x
    with q = x^2 - y^2 - z^2.
    """
    if not 1 <= n <= 10:
        raise ValueError("n must be in 1..10")
    if isinstance(point, ConePoint2):
        x, y, z = point.x, point.y, point.z
    else:
        x, y, z = point
    xf = _as_fraction(x)
    off = _as_fraction(y) ** 2 + _as_fraction(z) ** 2
    closed_full = _faa_closed(n, n, xf, off)
    closed_reduced = _faa_closed(n - 1, n, xf, off)
    fd_errs = []
    for power, closed in ((n, closed_full), (n - 1, closed_reduced)):
        fd = _fd_nth_derivative(power, n, float(xf), float(off), _FD_STEP)
        scale = max(abs(float(closed)), 1.0)
        fd_errs.append(abs(fd - float(closed)) / scale)
    return FaaDiBrunoCheck(
        n=n,
        x=xf,
        offset=off,
        closed_full=closed_full,
        direct_full=_poly_derivative_direct(n, n, xf, off),
        closed_reduced=closed_reduced,
        direct_reduced=_poly_derivative_direct(n - 1, n, xf, off),
        fd_rel_error=max(fd_errs),
    )
