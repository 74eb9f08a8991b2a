"""Zonal polynomials and orthogonal-group averages.

The C-normalized zonal polynomial C_kappa is the symmetric eigenfunction
family indexed by integer partitions that satisfies, for every k,

    sum over |kappa| = k of C_kappa(x) = (tr x)^k.

In the monomial basis, C_kappa = n_kappa (m_kappa + lower terms in the
dominance order); the lower coefficients follow the pipe recurrence of the
generating differential operator and n_kappa has a closed hook-product
form.  Evaluation builds the float64 coefficient matrix of one weight
layer directly, and multiplies it by the monomials of the eigenvalues;
this is the only coefficient builder.  Its transfers, dominance mask, rho
and hook norms come for the whole table at once, in numpy, and what stays
sequential is one short step per column, for all kappa at a time.
The module also computes the closed-form value at the identity, against
which the verification suite checks that builder, and provides the
power-product Delta_kappa of leading principal minors together with its
Haar-orthogonal average Phi_kappa, estimated by Monte Carlo and, for
d <= 3, given exactly by a cubature on the rotation group, which the lemma
checks set against its closed form C_kappa(x) / C_kappa(I_d).  The
multivariate gamma function and partitional Pochhammer symbol live here as
well since every series built on C_kappa needs them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .symcore import DomainError, _count, _haar_columns, sym_entries

__all__ = [
    "Partition",
    "partitions_of_weight",
    "zonal_layer",
    "zonal_C",
    "c_kappa_identity",
    "multivariate_gamma",
    "pochhammer_kappa",
    "exp_trace_partial_sum",
    "delta_kappa",
    "McEstimate",
    "phi_kappa_mc",
    "LemmaCheck",
    "zonal_lemma_checks",
]

@dataclasses.dataclass(frozen=True, order=True)
class Partition:
    """Integer partition: a nonincreasing tuple of positive parts.

    Parts go through ``operator.index``: ints and numpy integers pass, and a
    float, string or other non-integer part raises ValueError.

    Ordering is lexicographic on the parts tuple, which within a fixed
    weight is a linear extension of the dominance order.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            parts = tuple(operator.index(p) for p in self.parts)
        except TypeError:
            raise ValueError(f"parts must be integers, got {self.parts!r}") from None
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, obj: "Partition | Iterable[int]") -> "Partition":
        if isinstance(obj, Partition):
            return obj
        return cls(tuple(obj))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def padded(self, d: int) -> tuple[int, ...]:
        if len(self.parts) > d:
            raise ValueError(f"partition {self.parts} is longer than d={d}")
        return self.parts + (0,) * (d - len(self.parts))

    def dominates(self, other: "Partition") -> bool:
        """Partial sums of self majorize those of *other* (equal weights)."""
        other = Partition.of(other)
        if self.weight != other.weight:
            return False
        return _dominated_by(other.parts, self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def _dominated_by(lam: Sequence[int], kappa: Sequence[int]) -> bool:
    s_l = 0
    s_k = 0
    for r in range(max(len(lam), len(kappa))):
        s_l += lam[r] if r < len(lam) else 0
        s_k += kappa[r] if r < len(kappa) else 0
        if s_l > s_k:
            return False
    return True


def _gen_parts(remaining: int, max_part: int, slots: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    if slots == 0:
        return
    # slots parts of at most first each must hold remaining
    for first in range(min(max_part, remaining), -(-remaining // slots) - 1, -1):
        for rest in _gen_parts(remaining - first, first, slots - 1):
            yield (first,) + rest


def partitions_of_weight(weight: int, max_length: int | None = None) -> list[Partition]:
    """Partitions of *weight* with at most *max_length* parts, lex descending."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    slots = weight if max_length is None else min(max_length, weight)
    return [Partition(p) for p in _gen_parts(weight, weight, slots)]


# ---------------------------------------------------------------------------
# Coefficient tables: C_kappa = n_kappa * (m_kappa + sum_{lam < kappa} c_{kappa lam} m_lam)


def _table_transfers(padded: np.ndarray, weight: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every single-pair transfer lam -> mu of one table, with its coefficient.

    *padded* holds the table's partitions in table order, zero-padded to a
    common width.  A transfer moves t = 1..l_j units from part j up to part
    i < j and has coefficient l_i - l_j + 2t; mu is lam re-sorted, and its
    row in the table comes from one radix key per sorted mu, base
    weight + 1 as in :func:`_group_compositions` (whose bound on the keys
    covers these), and one ``searchsorted`` for the whole table.  The
    transfers of lam occupy ``bounds[lam]:bounds[lam + 1]`` of the
    returned row indices and float coefficients, in (i, j, t) order, with
    transfers that land on the same mu each listed.
    """
    n, width = padded.shape
    pair_i, pair_j = np.triu_indices(width, 1)
    per_pair = padded[:, pair_j]  # transfers per (lam, pair)
    counts = per_pair.ravel()
    block = np.repeat(np.arange(counts.size), counts)
    lam, pair = np.divmod(block, pair_i.size)
    at = np.arange(block.size)
    t = at - np.repeat(np.cumsum(counts) - counts, counts) + 1
    i, j = pair_i[pair], pair_j[pair]
    mu = padded[lam]
    coefs = (mu[at, i] - mu[at, j] + 2 * t).astype(float)
    mu[at, i] += t
    mu[at, j] -= t
    mu.sort(axis=1)
    radix = (weight + 1) ** np.arange(width, dtype=np.int64)
    # table keys descend in table order; an ascending row times the
    # ascending radix is the key of the descending row
    keys = padded[:, ::-1] @ radix
    mu_idx = n - 1 - np.searchsorted(keys[::-1], mu @ radix)
    bounds = np.concatenate(([0], np.cumsum(per_pair.sum(axis=1)))).tolist()
    return mu_idx, coefs, bounds


def _hook_norms(padded: np.ndarray, weight: int) -> np.ndarray:
    """Leading coefficients n_kappa of C_kappa in the monomial basis, as floats.

    C_kappa = 2^k k! / c'_kappa(2) * P_kappa with P_kappa the monic Jack
    polynomial at alpha = 2 (Macdonald, Symmetric Functions and Hall
    Polynomials, VI.10), so n_kappa = 2^k k! / prod over the cells s of
    kappa of (2 a(s) + l(s) + 2), with arm a(s) and leg l(s).  The hooks
    of the whole table come as one array, *weight* cells per kappa; each
    product is an exact integer, and Python's int / int is correctly
    rounded, so every norm is the float nearest the exact ratio.
    """
    n, width = padded.shape
    col = np.arange(weight)
    # cell (i, j) has arm m_i - j - 1 and leg conj_j - i - 1
    arm = padded[:, :, None] - col - 1
    conj = np.count_nonzero(padded[:, :, None] > col, axis=1)
    leg = conj[:, None, :] - np.arange(width)[:, None] - 1
    hooks = (2 * arm + leg + 2)[arm >= 0].reshape(n, weight)
    top = 2**weight * math.factorial(weight)
    return np.array([top / math.prod(row) for row in hooks.tolist()])


def _coeff_matrix(weight: int, max_length: int) -> tuple[list[tuple], np.ndarray]:
    """Float64 monomial coefficients of C_kappa, as a (kappa x lam) matrix.

    Rows and columns both run over the partitions of *weight* with at most
    *max_length* parts in lex-descending order, a linear extension of
    dominance, so the matrix is upper triangular.  With the leading term
    scaled to one, the entries follow the pipe recurrence: for lam < kappa,

        c_{kappa lam} = [sum over single-pair transfers lam -> mu of
                         (l_i - l_j + 2t) * c_{kappa mu}] / (rho_kappa - rho_lam),

    with rho_kappa = sum_i m_i (m_i - i), which is strictly increasing
    along dominance, and with the transfers of :func:`_table_transfers`;
    distinct transfers landing on the same mu contribute once each.  Each
    row is then scaled by its hook norm (:func:`_hook_norms`).

    Everything but the recurrence itself is built for the whole table at
    once: the transfers, rho, the hook norms, an n x n dominance mask
    from one comparison of cumulative sums per part position, and, from
    one ``np.nonzero`` of its strictly lower triangle, the rows that
    strictly dominate each lam, their denominators and their offsets in
    the raveled matrix.  The columns are then filled in order, every mu a
    transfer reaches preceding lam: each costs one ``take``, one
    matrix-vector product, one division and one flat store.  Folding
    several columns into one product would change the rounding.  The
    recurrence has positive terms only, so the float entries are forward
    stable.
    """
    kappas = list(_gen_parts(weight, weight, min(max_length, weight)))
    n = len(kappas)
    width = max(1, max(map(len, kappas)))
    padded = np.array([k + (0,) * (width - len(k)) for k in kappas], dtype=np.int64)
    cum = np.cumsum(padded, axis=1)
    dominated = np.ones((n, n), dtype=bool)  # [lam, kappa]: kappa dominates lam
    for c in range(width):
        dominated &= cum[None, :, c] >= cum[:, c, None]
    rho = (padded * (padded - np.arange(1, width + 1))).sum(axis=1).astype(float)
    mu_idx, coefs, bounds = _table_transfers(padded, weight)
    # every (lam, kappa) with kappa earlier than and dominating lam, lam-major
    lams, rows = np.nonzero(np.tri(n, k=-1, dtype=bool) & dominated)
    denoms = rho[rows] - rho[lams]
    bases = rows * n  # offsets of the rows in the raveled matrix
    ends = np.searchsorted(lams, np.arange(n + 1)).tolist()
    coeff = np.eye(n)
    flat = coeff.reshape(-1)
    for li in range(1, n):
        r = slice(ends[li], ends[li + 1])
        t = slice(bounds[li], bounds[li + 1])
        gathered = flat.take(bases[r, None] + mu_idx[t])
        flat[bases[r] + li] = (gathered @ coefs[t]) / denoms[r]
    coeff *= _hook_norms(padded, weight)[:, None]
    return kappas, coeff


# ---------------------------------------------------------------------------
# Evaluation


def _eigenvalues_of(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim >= 2:
        return np.linalg.eigvalsh(sym_entries(a))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a.reshape(-1)


def _compositions(weight: int, d: int) -> np.ndarray:
    """Every composition of *weight* into d slots, one row each."""
    # stars and bars: d - 1 bar positions among weight + d - 1 places
    n_comps = math.comb(weight + d - 1, d - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(weight + d - 1), d - 1)),
        dtype=np.int64,
        count=n_comps * (d - 1),
    ).reshape(n_comps, d - 1)
    return np.diff(bars, axis=1, prepend=-1, append=weight + d - 1) - 1


def _group_compositions(comps: np.ndarray, weight: int) -> np.ndarray:
    """For each row of *comps*, the index of its descending sort among the distinct ones.

    Each sorted row is read as a number in base weight + 1, most
    significant part first, so the keys sort exactly as the rows do
    lexicographically: the result equals the inverse of ``np.unique`` of
    the sorted rows with ``axis=0``, which lists the partitions in the
    reverse of the table order.  (weight + 1)^d stays below 2^63 wherever
    the compositions fit in memory.
    """
    desc = -np.sort(-comps, axis=1)
    radix = (weight + 1) ** np.arange(comps.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.unique(desc @ radix, return_inverse=True)[1]


_LAYERS: dict[tuple[int, int], tuple[list[tuple], np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _layer_data(
    weight: int, d: int
) -> tuple[list[tuple], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached evaluation data of one weight layer in dimension d.

    Returns the kappas in table order, their parts padded with zeros to
    length d (a kappa x d integer array), the float64 coefficient matrix
    (kappa x lam, column-major, with the lam columns in the reverse of the
    table order, which is the order of ``np.unique``), the compositions of
    *weight* into d slots as flat indices a_i + (weight + 1) i into the
    raveled d x (weight + 1) table of eigenvalue powers (one column per
    composition; ``uint16`` whenever it fits), and for each composition the
    column index of the partition it sorts to.  m_lam(x) is the sum of prod_i x_i^a_i over the compositions
    a that sort to lam.
    """
    key = (weight, d)
    data = _LAYERS.get(key)
    if data is not None:
        return data
    kappas, coeff = _coeff_matrix(weight, min(d, weight))
    parts = np.array([k + (0,) * (d - len(k)) for k in kappas], dtype=np.intp)
    comps = _compositions(weight, d)
    lam_index = _group_compositions(comps, weight)
    # column-major: the memory order picks the BLAS kernel of the products
    # with the monomials, and so their rounding
    coeff = coeff[:, ::-1].copy(order="F")
    stride = weight + 1
    flat = comps.T + stride * np.arange(d)[:, None]
    flat = flat.astype(np.uint16 if stride * d <= 2**16 else np.intp)
    data = (kappas, parts, coeff, flat, lam_index)
    _LAYERS[key] = data
    return data


def _monomials(eigs: np.ndarray, top: int, flat: np.ndarray, lam_index: np.ndarray, n_mono: int) -> np.ndarray:
    """The monomials m_lam of one eigenvalue vector, for one or more layers.

    *flat* indexes the raveled d x (top + 1) table of eigenvalue powers, one
    column per composition, and *lam_index* gives each composition its
    monomial among *n_mono*.  Every composition's product runs over the d
    rows in order and every monomial sums its compositions in column order,
    so a layer's monomials have the same bits whether its compositions are
    gathered alone or after other layers' in one concatenated index.
    """
    powers = eigs[:, None] ** np.arange(top + 1)
    terms = np.multiply.reduce(powers.ravel().take(flat), axis=0)
    return np.bincount(lam_index, weights=terms, minlength=n_mono)


def _layer_values(eigs: np.ndarray, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded parts (kappa x d) and C_kappa at the eigenvalues, in table order.

    *eigs* is one eigenvalue vector of length d, or a stack of N of them,
    shape (N, d), for which the values come one row per point, shape
    (N, kappa).  All monomials m_lam come from one flat gather-and-product
    over the compositions of the weight into d slots (for one point, the
    one-layer case of :func:`_monomials`); the cached coefficient matrix of
    :func:`_coeff_matrix` turns them into the C_kappa values with one
    matrix-vector product per point, so each row of a stack equals the call
    on that point alone, bit for bit.
    """
    _, parts, coeff, flat, lam_index = _layer_data(weight, eigs.shape[-1])
    if eigs.ndim == 1:
        return parts, coeff @ _monomials(eigs, weight, flat, lam_index, coeff.shape[1])
    # the same gather with the points along a last axis; the points bin into
    # consecutive blocks of n_lam monomials
    n, n_lam = eigs.shape[0], coeff.shape[1]
    powers = eigs.T[:, None] ** np.arange(weight + 1)[:, None]
    terms = np.multiply.reduce(powers.reshape(-1, n).take(flat, axis=0), axis=0)
    index = lam_index[:, None] + n_lam * np.arange(n)
    mono = np.bincount(index.ravel(), weights=terms.ravel(), minlength=n * n_lam)
    return parts, (coeff @ mono.reshape(n, n_lam, 1))[..., 0]


def zonal_layer(x, weight: int) -> dict[tuple[int, ...], float]:
    """C_kappa(x) for every kappa of *weight* with at most d parts.

    x is a symmetric matrix or its eigenvalue vector of length d.  The
    values come from :func:`_layer_values`, keyed by kappa in table order.
    A layer that leaves the double range raises DomainError, without a
    numpy warning.
    """
    eigs = _eigenvalues_of(x)
    kappas = _layer_data(weight, eigs.size)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        _, values = _layer_values(eigs, weight)
    if not np.isfinite(values).all():
        raise DomainError(f"the zonal layer of weight {weight} leaves the double range")
    return dict(zip(kappas, values.tolist()))


def zonal_C(x, kappa: Partition | Iterable[int]) -> float:
    """C_kappa evaluated at a symmetric matrix or an eigenvalue vector."""
    kap = Partition.of(kappa)
    eigs = _eigenvalues_of(x)
    if kap.length > eigs.size:
        return 0.0
    return zonal_layer(eigs, kap.weight)[kap.parts]


def _rising(base, m: int):
    out = base * 0 + 1  # one in the arithmetic of *base*
    for t in range(m):
        out = out * (base + t)
    return out


def pochhammer_kappa(p, kappa: Partition | Iterable[int], d: int | None = None):
    """Partitional Pochhammer symbol (p)_kappa = prod_j (p - (j-1)/2)_{m_j}.

    Fraction inputs stay exact.  When *d* is given, p > (d-1)/2 is enforced:
    outside that half-line the product is still a polynomial in p but no
    longer a gamma-function ratio.  Without *d* the polynomial is returned
    for any p.
    """
    kap = Partition.of(kappa)
    if d is not None and kap.length > d:
        raise ValueError(f"partition longer than d={d}")
    if d is not None:
        threshold = Fraction(d - 1, 2) if isinstance(p, Fraction) else (d - 1) / 2.0
        if not p > threshold:
            raise ValueError(f"p must exceed (d-1)/2 = {threshold}")
    result = p * 0 + 1
    for j, m in enumerate(kap.parts, start=1):
        half = Fraction(j - 1, 2) if isinstance(p, Fraction) else (j - 1) / 2.0
        result = result * _rising(p - half, m)
    return result


def c_kappa_identity(kappa: Partition | Iterable[int], d: int) -> Fraction:
    """Closed-form C_kappa(I_d), exact.

    For a partition of weight k with length l and parts m_1 >= ... >= m_l:

        C_kappa(I_d) = 2^{2k} k! (d/2)_kappa
                       * prod_{i<j<=l} (2m_i - 2m_j - i + j)
                       / prod_{i<=l} (2m_i + l - i)!

    Zero when l > d (a factor of (d/2)_kappa vanishes).  The numerator is
    one integer product: (d/2)_kappa is prod over rows i and t < m_i of
    (d - i + 1 + 2t) / 2, and its k halves cancel against 4^k = 2^k 2^k.
    """
    kap = Partition.of(kappa)
    if d < 1:
        raise ValueError("d must be >= 1")
    if kap.length > d:
        return Fraction(0)
    k = kap.weight
    m = kap.parts
    l = len(m)
    num = 2**k * math.factorial(k)
    num *= math.prod(d - i + 2 * t for i, mi in enumerate(m) for t in range(mi))
    num *= math.prod(2 * m[i] - 2 * m[j] + j - i for i in range(l) for j in range(i + 1, l))
    den = math.prod(math.factorial(2 * m[i] + l - (i + 1)) for i in range(l))
    return Fraction(num, den)


def multivariate_gamma(z, d: int, kappa: Partition | Iterable[int] | None = None, log: bool = False) -> float:
    """Multivariate gamma Gamma_d(z + kappa), optionally its logarithm.

        Gamma_d(z + kappa) = pi^{d(d-1)/4} prod_{j=1}^{d} Gamma(z + m_j - (j-1)/2)

    with kappa padded by zeros.  Every gamma argument must be positive;
    arguments at or below zero raise ValueError since the cone integrals
    this normalizes diverge there.  A z that is not finite raises
    ValueError as well; a value or logarithm beyond the double range
    raises DomainError.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    parts = Partition.of(kappa).padded(d) if kappa is not None else (0,) * d
    logval = d * (d - 1) / 4.0 * math.log(math.pi)
    for j in range(1, d + 1):
        arg = z + parts[j - 1] - (j - 1) / 2.0
        if arg <= 0.0:
            raise ValueError(f"gamma argument {arg} <= 0 at position {j} (z={z}, kappa={tuple(parts)})")
        try:
            logval += math.lgamma(arg)
        except OverflowError:
            logval = math.inf
    if not math.isfinite(logval):
        raise DomainError(f"log Gamma_d leaves the double range at z={z}")
    if log:
        return logval
    try:
        return math.exp(logval)
    except OverflowError:
        raise DomainError(
            f"Gamma_d exceeds the double range at z={z}: its log is {logval:.6g}; use log=True"
        ) from None


# Largest w whose factorial converts to a float (171! > 1.8e308).
_FACTORIAL_FLOAT_MAX = 170


def _over_factorial(total: float, w: int) -> float:
    """total / w!, the scaling of one weight layer of a series.

    Up to ``_FACTORIAL_FLOAT_MAX`` the division is by w! as a float; past
    it w! leaves double range, and the division is made in log scale with
    lgamma(w + 1), keeping the sign.  A zero or non-finite total passes
    through unchanged.
    """
    if w <= _FACTORIAL_FLOAT_MAX:
        return total / math.factorial(w)
    if total != 0.0 and math.isfinite(total):
        return math.copysign(math.exp(math.log(abs(total)) - math.lgamma(w + 1)), total)
    return total


# Caps on one chunk of the series walk, :func:`_weighted_layers`.  Each
# gather pays 15-20 us of numpy-call overhead whatever its size, which short
# layers save by sharing one.  But a chunk is gathered whole when the caller
# asks for its first layer, and the layers past the caller's stop are work
# nobody reads.  On the mix of perfbench's `series` workload (d = 2-5,
# weights 12-24; 2-vCPU Xeon) the median evaluation took 163 us at 2,048
# compositions, against 178 and 193 us at 4,096 and 8,192, and 166 us at
# 1,024.
_CHUNK_COMPOSITIONS = 2048
# At d = 2 a layer has only w + 1 compositions, so the cap above alone would
# let one chunk run some 60 layers past series that stop at weight 12-24.
# On the same mix, 8 layers took 185 us and 12 or more 163 us.
_CHUNK_LAYERS = 12

# (start, d) -> the concatenated evaluation data of the chunk that starts at
# layer *start*: the longest one the cached tables allow, as tables only
# ever join _LAYERS
_CHUNKS: dict[tuple[int, int], tuple] = {}


def _chunk_data(
    start: int, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
    """Evaluation data of the run of layers that the walk takes from *start* on.

    The run is layer *start* followed by the consecutive layers whose tables
    are already in ``_LAYERS``, up to ``_CHUNK_LAYERS`` layers and
    ``_CHUNK_COMPOSITIONS`` compositions in all.  A cold table at *start*
    is built, since the caller has asked for that layer, and then the run
    is that layer alone: no table is ever built ahead of the caller.

    Returns the compositions of the run, stop = start + its length, as
    flat indices into one raveled d x stop table of eigenvalue powers,
    their monomial indices with each layer's after the previous layer's, the
    stacked padded parts, and (weight, coefficient matrix) per layer.  A
    one-layer run is the layer's own data; a longer one is cached in
    ``_CHUNKS`` until a longer run from the same start replaces it.
    """
    cached = (start, d) in _LAYERS
    _, parts, coeff, flat, lam_index = _layer_data(start, d)
    stop, n_comps = start + 1, flat.shape[1]
    while cached and stop - start < _CHUNK_LAYERS and (stop, d) in _LAYERS:
        n_comps += _LAYERS[stop, d][3].shape[1]
        if n_comps > _CHUNK_COMPOSITIONS:
            break
        stop += 1
    if stop == start + 1:
        return flat, lam_index, parts, ((start, coeff),)
    data = _CHUNKS.get((start, d))
    if data is None or len(data[3]) != stop - start:
        layers = {w: _LAYERS[w, d] for w in range(start, stop)}
        # re-stride each layer's a_i + (w + 1) i to a_i + stop i
        rows = np.arange(d)[:, None]
        flat = np.concatenate([lay[3] + (stop - w - 1) * rows for w, lay in layers.items()], axis=1)
        offsets = itertools.accumulate((len(lay[1]) for lay in layers.values()), initial=0)
        data = (
            flat.astype(np.uint16 if stop * d <= 2**16 else np.intp),
            np.concatenate([lay[4] + off for lay, off in zip(layers.values(), offsets)]),
            np.concatenate([lay[1] for lay in layers.values()]),
            tuple((w, lay[2]) for w, lay in layers.items()),
        )
        _CHUNKS[start, d] = data
    return data


def _weighted_layers(eigs: np.ndarray, weights: Callable[[np.ndarray], np.ndarray]) -> Iterator[float]:
    """Yield sum_kappa weight_kappa C_kappa(eigs) / w! for w = 0, 1, 2, ...

    The one walk over weight layers that every zonal series takes.
    *weights* maps the padded parts of layers (kappa x d, in table order,
    one layer's rows after another's) to one weight per kappa; each layer
    is the dot product of those weights with its C_kappa values, divided by
    w! through :func:`_over_factorial`.

    The walk goes a chunk of consecutive layers at a time
    (:func:`_chunk_data`): one table of eigenvalue powers, one gather of
    the monomials (:func:`_monomials`) and one *weights* call per chunk,
    then per layer the product with its coefficient matrix, the dot with
    its weights and the division, the same operations as a walk of one
    layer at a time and so the same bits.  A chunk only joins layers whose
    tables are already cached: layer values may be computed ahead of the
    caller, without a numpy warning for those that overflow, but a table is
    built only when the caller asks for its layer.  The walk never ends by
    itself; the caller decides where to stop, and checks that the layers it
    takes are finite.
    """
    d = eigs.size
    start = 0
    while True:
        flat, lam_index, parts, layers = _chunk_data(start, d)
        # layers past the caller's stop may overflow here: silently
        with np.errstate(over="ignore", invalid="ignore"):
            mono = _monomials(eigs, start + len(layers) - 1, flat, lam_index, len(parts))
            chunk_weights = weights(parts)
        lo = 0
        for w, coeff in layers:
            hi = lo + coeff.shape[0]
            yield _over_factorial(float((coeff @ mono[lo:hi]) @ chunk_weights[lo:hi]), w)
            lo = hi
        start += len(layers)


def exp_trace_partial_sum(x, weight_cutoff: int) -> float:
    """Partial sum through *weight_cutoff* of sum_kappa C_kappa(x)/|kappa|!.

    Converges to exp(tr x); it is the first weight_cutoff + 1 layers of
    :func:`_weighted_layers` with unit weights, so each layer sums honestly
    over its partitions rather than collapsing through the power-sum
    identity, and the value exercises the coefficient matrices of
    :func:`zonal_layer`.  A sum that leaves the double range raises
    DomainError, without a numpy warning.
    """
    weight_cutoff = _count(weight_cutoff, "weight_cutoff", 0)
    layers = _weighted_layers(_eigenvalues_of(x), lambda parts: np.ones(len(parts)))
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(itertools.islice(layers, weight_cutoff + 1))
    if not math.isfinite(total):
        raise DomainError(f"the partial sum through weight {weight_cutoff} leaves the double range")
    return total


# ---------------------------------------------------------------------------
# Minor power products and their Haar averages


def _minor_exponents(kappa, d: int) -> np.ndarray:
    """Exponent of each leading principal minor in Delta_kappa, length d.

    Accepts real nonincreasing-or-not sequences; only the padded
    differences matter.  Raises if kappa has more than d entries.
    """
    parts = tuple(float(p) for p in (kappa.parts if isinstance(kappa, Partition) else tuple(kappa)))
    if len(parts) > d:
        raise ValueError(f"kappa has {len(parts)} entries but d={d}")
    padded = np.zeros(d + 1)
    padded[: len(parts)] = parts
    return padded[:d] - padded[1:]


def _delta_minors_general(a: np.ndarray, exps: np.ndarray) -> float:
    d = a.shape[0]
    sign_total = 1.0
    log_total = 0.0
    for k in range(d):
        e = exps[k]
        if e == 0.0:
            continue
        sign, logabs = np.linalg.slogdet(a[: k + 1, : k + 1])
        if sign == 0.0:
            if e > 0.0:
                return 0.0
            raise ValueError(f"leading minor {k + 1} is singular with negative exponent {e}")
        if sign < 0.0:
            if abs(e - round(e)) > 1e-12:
                raise ValueError(f"leading minor {k + 1} is negative with non-integer exponent {e}")
            if round(e) % 2:
                sign_total = -sign_total
        log_total += e * logabs
    try:
        return sign_total * math.exp(log_total)
    except OverflowError:
        raise DomainError(f"Delta_kappa leaves the double range: its log is {log_total:.6g}") from None


def delta_kappa(x, kappa: Partition | Iterable[int] | Sequence[float]) -> float:
    """Power product Delta_kappa(x) of leading principal minors.

    Delta_kappa(x) = prod_k minor_k(x)^{m_k - m_{k+1}} with kappa padded by
    zeros to the dimension of x.  Real (including negative) exponents are
    allowed; positive definite x goes through the Cholesky pivots in log
    scale, anything else falls back to explicit minors and requires each
    minor raised to a non-integer power to be positive.  A value past the
    double range raises DomainError.
    """
    a = sym_entries(x)
    exps = _minor_exponents(kappa, a.shape[0])
    return float(_delta_batch(a[:, :, None], exps)[0])


def _delta_batch(ys: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Delta for a stack of symmetric matrices stored entries first.

    ys[i, j] holds entry (i, j) of every matrix, shape (d, d, n).  The
    Cholesky pivots p_j = minor_j / minor_{j-1} come from the column
    recurrence over the whole stack; a matrix with a pivot that is not
    positive goes through :func:`_delta_minors_general` on its own.  The
    log minors are the running sums of the log pivots, formed row by row:
    the additions of ``np.cumsum(axis=0)`` in the same order, without its
    strided walk down the short axis.  A value that leaves the double
    range raises DomainError.
    """
    d, n = ys.shape[0], ys.shape[2]
    chol = np.zeros_like(ys)
    pivots = np.empty((d, n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d):
            lj = chol[j, :j]
            pivots[j] = ys[j, j] - np.einsum("kn,kn->n", lj, lj)
            root = np.sqrt(pivots[j])
            for i in range(j + 1, d):
                chol[i, j] = (ys[i, j] - np.einsum("kn,kn->n", chol[i, :j], lj)) / root
        logs = np.log(pivots)
        for j in range(1, d):
            logs[j] += logs[j - 1]
        out = np.exp(exps @ logs)
    for b in np.flatnonzero(~np.all(pivots > 0.0, axis=0)):
        out[b] = _delta_minors_general(ys[:, :, b], exps)
    if not np.isfinite(out).all():
        raise DomainError("Delta_kappa leaves the double range")
    return out


def _conjugate(u: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """Leading m x m block of u a u^T for entries-first Haar draws.

    u is laid out as :func:`symcore._haar_columns` returns it
    (u[k, i, n] = entry (i, k) of draw n), or is its leading columns
    u[:c].  a is one symmetric c x c matrix, or one per draw stored
    entries first.  The result is entries first,
    shape (m, m, n), and exactly symmetric.
    """
    # t[k, j] = (a u^T)[k, j]
    if a.ndim == 2:
        t = np.tensordot(a, u[:, :m], axes=(1, 0))
    else:
        t = np.einsum("kln,ljn->kjn", a, u[:, :m])
    y = np.empty((m, m, u.shape[2]))
    for i in range(m):
        for j in range(i, m):
            y[i, j] = np.einsum("kn,kn->n", u[:, i], t[:, j])
            y[j, i] = y[i, j]
    return y


def _block_eigenvalues(z: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric m x m blocks stored entries first.

    z has shape (m, m, n); the result has shape (n, m).  Orders 1 and 2 are
    in closed form, the 2 x 2 pair as (a + c)/2 -+ hypot((a - c)/2, b),
    which is good to a few ulp of the larger eigenvalue; larger blocks go
    through LAPACK.
    """
    m = z.shape[0]
    if m == 1:
        return z[0, 0][:, None]
    if m == 2:
        mid = 0.5 * (z[0, 0] + z[1, 1])
        rad = np.hypot(0.5 * (z[0, 0] - z[1, 1]), z[0, 1])
        return np.stack([mid - rad, mid + rad], axis=1)
    return np.linalg.eigvalsh(z.transpose(2, 0, 1))


@dataclasses.dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    estimate: float
    std_error: float
    n_samples: int


def _mc_mean(values: np.ndarray) -> McEstimate:
    """Sample mean of per-draw values with its standard error.

    The n squared deviations, each at most (2 top)^2 for the largest |value|
    top, sum without overflow while top <= sqrt(max / (4 n)).  Past that the
    values are first divided by the power of two that brings top under the
    bound, and the mean and standard error multiplied back.  A power of two
    scales exactly, so the scaled results have the bits the unscaled sums
    would have had without the overflow.
    """
    n = values.size
    if n < 2:
        raise ValueError("need at least two draws for a standard error")
    top = max(float(values.max()), -float(values.min()))
    bound = math.sqrt(sys.float_info.max / (4 * n))
    scale = 1.0
    if bound < top < math.inf:
        scale = math.ldexp(1.0, math.frexp(top / bound)[1])
        values = values / scale
    return McEstimate(scale * float(values.mean()), scale * float(values.std(ddof=1) / math.sqrt(n)), n)


# Haar rotations per batch of the Monte Carlo walks; it bounds the working
# arrays to a few MB.  Each batch step is a handful of whole-array
# operations, long enough at this size to release the interpreter lock for
# most of the time, so threaded callers overlap.  Every draw is computed on
# its own, so the values do not depend on the batch size.
_MC_BATCH = 16384


def _haar_conjugates(
    a: np.ndarray, n: int, rng: np.random.Generator
) -> Iterator[tuple[slice, np.ndarray]]:
    """u a u^T for n Haar draws u on O(d), batch by batch.

    a is one symmetric d x d matrix.  Yields (s, y) for consecutive slices s
    of at most ``_MC_BATCH`` draws, with y the conjugates of those draws,
    entries first (see :func:`_conjugate`).  The batches take their normals
    from rng one after another, which gives the same normals, in the same
    order, as one draw of all n rotations.
    """
    d = a.shape[0]
    for lo in range(0, n, _MC_BATCH):
        s = slice(lo, min(lo + _MC_BATCH, n))
        yield s, _conjugate(_haar_columns(d, s.stop - lo, rng), a, d)


def phi_kappa_mc(
    x,
    kappa: Partition | Iterable[int] | Sequence[float],
    n_samples: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Haar average Phi_kappa(x) = E[Delta_kappa(u x u^T)], u Haar on O(d).

    Plain Monte Carlo over Haar rotations formed entries first by
    :func:`~ncwishart.symcore._haar_columns`, in batches of ``_MC_BATCH`` draws (:func:`_haar_conjugates`).  Returns the
    sample mean with its standard error.
    """
    n_samples = _count(n_samples, "n_samples", 2)
    a = sym_entries(x)
    d = a.shape[0]
    exps = _minor_exponents(kappa, d)
    vals = np.empty(n_samples)
    for s, y in _haar_conjugates(a, n_samples, rng):
        vals[s] = _delta_batch(y, exps)
    return _mc_mean(vals)


def _haar_rule(d: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Cubature on SO(d), d <= 3, exact for polynomials of degree <= *degree* in u.

    Returns nodes u laid out as :func:`symcore._haar_columns` returns its
    draws (u[k, i, n] = entry (i, k) of node n) and weights that sum to 1.
    The rule also gives Haar averages over O(d) of every F(u x u^T): for
    x = w D w^T with w in SO(d), a reflection r gives
    r x r = (r w r) D (r w r)^T with r w r in SO(d), so F(u x u^T) has the
    same average over SO(d) as over O(d).

    * d = 1: the identity alone.
    * d = 2: degree + 1 equally spaced angles; the trapezoid rule is exact
      for trigonometric polynomials of degree <= *degree*.
    * d = 3: ZYZ Euler angles u = R_z(alpha) R_y(beta) R_z(gamma), with
      degree + 1 equally spaced points in alpha and in gamma and
      ceil((degree + 1) / 2) Gauss-Legendre points in cos beta.  It
      integrates every Wigner D-function of degree <= *degree* exactly
      (Graf and Potts, Numer. Funct. Anal. Optim. 30, 2009).

    There is no rule for d >= 4: ValueError.
    """
    if d == 1:
        return np.ones((1, 1, 1)), np.ones(1)
    n_ang = degree + 1
    angles = 2.0 * math.pi * np.arange(n_ang) / n_ang
    if d == 2:
        c, s = np.cos(angles), np.sin(angles)
        return np.array([[c, s], [-s, c]]), np.full(n_ang, 1.0 / n_ang)
    if d != 3:
        raise ValueError(f"no exact Haar rule for d = {d}; d must be 1, 2 or 3")
    cos_b, w_b = np.polynomial.legendre.leggauss((degree + 2) // 2)
    alpha, cb, gamma = (g.ravel() for g in np.meshgrid(angles, cos_b, angles, indexing="ij"))
    ca, sa, cg, sg = np.cos(alpha), np.sin(alpha), np.cos(gamma), np.sin(gamma)
    sb = np.sqrt(1.0 - cb**2)
    # the columns of R_z(alpha) R_y(beta) R_z(gamma)
    u = np.array([
        [ca * cb * cg - sa * sg, sa * cb * cg + ca * sg, -sb * cg],
        [-ca * cb * sg - sa * cg, ca * cg - sa * cb * sg, sb * sg],
        [ca * sb, sa * sb, cb],
    ])
    return u, np.tile(np.repeat(0.5 * w_b / n_ang**2, n_ang), n_ang)


@dataclasses.dataclass(frozen=True)
class LemmaCheck:
    """One identity check: value should equal expected up to roundoff."""

    name: str
    value: float
    expected: float


def _max_rel_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest |lhs - rhs| relative to the larger side, with 0 against 0 scored 0."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return float(np.max(np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0)))


# The largest |kappa| that zonal_lemma_checks takes.  Its rule at d = 3 then
# has 41 x 41 x 21 = 35,301 nodes, and the stacked inner layer gathers
# fewer than 1.5 million eigenvalue powers.
_LEMMA_MAX_WEIGHT = 20


def zonal_lemma_checks(
    x,
    kappa: Partition | Iterable[int],
    power: float = 1.0,
) -> list[LemmaCheck]:
    """Structural identities of Delta_kappa and Phi_kappa, checked numerically.

    For positive definite x of order d <= 3 and a partition kappa of length
    <= d and weight <= 20, on the nodes y = u x u^T of the Haar rule
    :func:`_haar_rule` of degree 2|kappa|:

    * ``minor_power_shift``: Delta_{kappa + power}(y) = Delta_kappa(y) det(y)^power,
      pointwise.  Reported as the maximum relative deviation against 0.
    * ``inverse_reversal``: Delta_kappa(y^{-1}) = Delta_{(-m_d,...,-m_1)}(J y J)
      with J the index-reversing permutation, pointwise; averaging either
      side over Haar u gives the matching Phi identities.  Reported as
      maximum relative deviation.

    For d >= 2, two Haar averages are each set against the closed form
    Phi_kappa(x) = C_kappa(x) / C_kappa(I_d) (Faraut and Koranyi, Analysis
    on Symmetric Cones, 1994, ch. XI):

    * ``haar_closed_form``: the average of Delta_kappa(y).
    * ``trailing_part_reduction``: the average of
      det(x)^{m_d} Phi_inner(z_u), inner = (m_1-m_d, ..., m_{d-1}-m_d),
      where z_u is the leading (d-1) x (d-1) block of y and the inner Haar
      average is itself the closed form C_inner(z_u) / C_inner(I_{d-1}),
      evaluated on the eigenvalues of every block at once.

    Both integrands are polynomials of degree <= 2|kappa| in the entries of
    u, so the rule gives each average exactly up to roundoff; nothing is
    drawn.  A d >= 4 or a weight above 20 raises ValueError.
    """
    kap = Partition.of(kappa)
    if kap.weight > _LEMMA_MAX_WEIGHT:
        raise ValueError(f"|kappa| = {kap.weight} exceeds {_LEMMA_MAX_WEIGHT}, the largest weight checked")
    a = sym_entries(x)
    d = a.shape[0]
    parts = kap.padded(d)
    exps = _minor_exponents(parts, d)
    u, weights = _haar_rule(d, 2 * kap.weight)
    ys = _conjugate(u, a, d)
    stacked = ys.transpose(2, 0, 1)  # (n, d, d) view for LAPACK
    checks: list[LemmaCheck] = []

    shifted = np.array(parts, dtype=float) + power
    lhs = _delta_batch(ys, _minor_exponents(shifted, d))
    direct = _delta_batch(ys, exps)
    rhs = direct * np.linalg.det(stacked) ** power
    checks.append(LemmaCheck("minor_power_shift", _max_rel_dev(lhs, rhs), 0.0))

    rev = tuple(-p for p in reversed(parts))
    lhs = _delta_batch(np.linalg.inv(stacked).transpose(1, 2, 0), exps)
    rhs = _delta_batch(ys[::-1, ::-1], _minor_exponents(rev, d))
    checks.append(LemmaCheck("inverse_reversal", _max_rel_dev(lhs, rhs), 0.0))

    if d >= 2:
        closed = zonal_C(a, kap) / float(c_kappa_identity(kap, d))
        m_last = parts[-1]
        inner = Partition(tuple(p - m_last for p in parts[:-1]))
        inner_row = _layer_data(inner.weight, d - 1)[0].index(inner.parts)
        factor = float(np.linalg.det(a)) ** m_last / float(c_kappa_identity(inner, d - 1))
        _, values = _layer_values(_block_eigenvalues(ys[: d - 1, : d - 1]), inner.weight)
        checks.append(LemmaCheck("haar_closed_form", float(weights @ direct), closed))
        checks.append(LemmaCheck("trailing_part_reduction", factor * float(weights @ values[:, inner_row]), closed))

    return checks
