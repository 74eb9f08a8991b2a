import concurrent.futures
import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwishart
import ncwishart.measures as measures
import ncwishart.symcore as symcore
import ncwishart.zonal as zonal
from ncwishart import (
    DomainError,
    Partition,
    TruncationError,
    c_kappa_identity,
    delta_kappa,
    exp_trace_partial_sum,
    multivariate_gamma,
    phi_kappa_mc,
    pochhammer_kappa,
    zonal_C,
    zonal_layer,
)
from ncwishart.measures import density_fd, density_m_fullrank
from ncwishart.verify import RunConfig, check_zonal_lemma_mc, run_suite
from ncwishart.zonal import _dominated_by, partitions_of_weight

F = Fraction


# ---------------------------------------------------------------------------
# Exact references for the table builder: one partition at a time


def _rho(parts) -> int:
    # Eigenvalue of the generating differential operator; strictly
    # increasing along the dominance order, so comparable pairs never tie.
    return sum(m * (m - i) for i, m in enumerate(parts, start=1))


def _transfers(lam: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Single-pair transfers lam -> mu with their coefficients l_i - l_j + 2t.

    The transfer moves t units from part j up to part i < j; mu is
    re-sorted with zeros dropped.  Listed in (i, j, t) order.
    """
    out = []
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            lj = lam[j]
            for t in range(1, lj + 1):
                mu = list(lam)
                mu[i] += t
                mu[j] -= t
                out.append((tuple(sorted((m for m in mu if m > 0), reverse=True)), lam[i] - lj + 2 * t))
    return out


def _hook_norm(kappa) -> Fraction:
    """n_kappa = 2^k k! / prod over the cells s of kappa of (2 a(s) + l(s) + 2)."""
    conj = [sum(1 for m in kappa if m > j) for j in range(kappa[0])] if kappa else []
    # cell (i, j) has arm m - j - 1 and leg conj[j] - i - 1
    hooks = math.prod(
        2 * (m - j - 1) + (conj[j] - i - 1) + 2 for i, m in enumerate(kappa) for j in range(m)
    )
    k = sum(kappa)
    return Fraction(2**k * math.factorial(k), hooks)


def _coeff_matrix_loop(weight: int, max_length: int) -> tuple[list[tuple], np.ndarray]:
    """The table builder one column and one partition at a time.

    The same recurrence, gather, matrix-vector product and division per
    column as :func:`zonal._coeff_matrix`, with the transfers of
    :func:`_transfers`, rho of :func:`_rho` and norms of :func:`_hook_norm`
    made per partition in Python.
    """
    parts = partitions_of_weight(weight, max_length)
    kappas = [p.parts for p in parts]
    n = len(kappas)
    width = max(1, max(map(len, kappas)))
    cum = np.cumsum([p.padded(width) for p in parts], axis=1)
    rho = np.array([_rho(k) for k in kappas], dtype=float)
    index = {k: i for i, k in enumerate(kappas)}
    coeff = np.eye(n)
    for li in range(1, n):
        rows = np.flatnonzero(np.all(cum[:li] >= cum[li], axis=1))
        if rows.size == 0:
            continue
        transfers = _transfers(kappas[li])
        mu_idx = [index[mu] for mu, _ in transfers]
        weights = np.array([c for _, c in transfers], dtype=float)
        coeff[rows, li] = (coeff[np.ix_(rows, mu_idx)] @ weights) / (rho[rows] - rho[li])
    coeff *= np.array([float(_hook_norm(k)) for k in kappas])[:, None]
    return kappas, coeff


def _layer_coeff_remap(weight: int, d: int) -> np.ndarray:
    """The layer's coefficient columns put in np.unique order through a dict."""
    kappas, coeff = zonal._coeff_matrix(weight, min(d, weight))
    lams = np.unique(-np.sort(-zonal._compositions(weight, d), axis=1), axis=0)
    index = {k: i for i, k in enumerate(kappas)}
    return coeff[:, [index[tuple(int(a) for a in row if a)] for row in lams]]


def _phat_rows(weight: int, max_length: int) -> dict[tuple, dict[tuple, Fraction]]:
    """Exact eigenfunction coefficients with unit leading term, one row per kappa.

    Row entries follow the pipe recurrence: for lam < kappa,

        c_{kappa lam} = [sum over single-pair transfers lam -> mu of
                         (l_i - l_j + 2t) * c_{kappa mu}] / (rho_kappa - rho_lam),

    with the transfers of :func:`_transfers`.  Distinct transfers landing
    on the same mu contribute once each.  The transfers depend on lam only,
    so each list is built once and reused by every kappa.
    """
    parts_list = [p.parts for p in partitions_of_weight(weight, max_length)]
    transfers = {lam: _transfers(lam) for lam in parts_list}
    rows: dict[tuple, dict[tuple, Fraction]] = {}
    for ki, kappa in enumerate(parts_list):
        rho_k = _rho(kappa)
        row: dict[tuple, Fraction] = {kappa: Fraction(1)}
        for lam in parts_list[ki + 1 :]:
            if not _dominated_by(lam, kappa):
                continue
            acc = Fraction(0)
            for mu, coeff in transfers[lam]:
                c = row.get(mu)
                if c is not None:
                    acc = acc + coeff * c
            denom = rho_k - _rho(lam)
            assert denom > 0, (kappa, lam)
            val = acc / denom
            if val:
                row[lam] = val
        rows[kappa] = row
    return rows


@functools.cache
def _exact_table(weight: int, max_length: int) -> dict[tuple, dict[tuple, Fraction]]:
    """Exact monomial coefficients {kappa: {lam: c}}, C_kappa = sum c m_lam (shared; do not mutate)."""
    return {
        kappa: {lam: _hook_norm(kappa) * c for lam, c in row.items()}
        for kappa, row in _phat_rows(weight, max_length).items()
    }


def _m_lam(values, lam):
    """Monomial symmetric polynomial m_lam: prod values_i^a_i summed over distinct permutations a of lam."""
    d = len(values)
    if len(lam) > d:
        return 0
    perms = set(itertools.permutations(tuple(lam) + (0,) * (d - len(lam))))
    return sum(math.prod(v**a for v, a in zip(values, perm)) for perm in perms)


def test_partition_normalization_and_order():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition.of([2, 2]).weight == 4
    assert Partition((2, 1)).padded(4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        Partition((1, 2))  # must be nonincreasing
    with pytest.raises(ValueError):
        Partition((2, 1)).padded(1)
    assert Partition((2, 2)).dominates((2, 1, 1))
    assert not Partition((2, 1, 1)).dominates((2, 2))



@pytest.mark.parametrize("parts", [(2.5,), (2.0,), ("2",), (math.inf,), (3, 1.5)])
def test_partition_rejects_non_integer_parts(parts):
    with pytest.raises(ValueError, match="integers"):
        Partition(parts)


def test_partition_accepts_numpy_integers_and_rejects_through_callers():
    p = Partition((np.int64(2), np.int32(1), np.uint8(0)))
    assert p.parts == (2, 1) and all(type(x) is int for x in p.parts)
    with pytest.raises(ValueError):
        zonal_C([1.0, 2.0], (2.5,))
    with pytest.raises(ValueError):
        c_kappa_identity((2.9,), 2)
    with pytest.raises(ValueError):
        pochhammer_kappa(1.5, (1.5,))
    with pytest.raises(ValueError):
        multivariate_gamma(2.0, 2, (1.0,))

def test_partitions_of_weight_enumeration():
    # p(6) = 11, lexicographically descending
    parts6 = partitions_of_weight(6)
    assert len(parts6) == 11
    assert parts6[0].parts == (6,)
    assert parts6[-1].parts == (1,) * 6
    tuples = [p.parts for p in parts6]
    assert tuples == sorted(tuples, reverse=True)
    assert all(p.length <= 2 for p in partitions_of_weight(6, max_length=2))
    assert [p.parts for p in partitions_of_weight(0)] == [()]


def _partitions_unpruned(remaining: int, max_part: int, slots: int):
    """Every first part from the largest down, dead ends included."""
    if remaining == 0:
        yield ()
        return
    if slots == 0:
        return
    for first in range(min(max_part, remaining), 0, -1):
        for rest in _partitions_unpruned(remaining - first, first, slots - 1):
            yield (first,) + rest


def test_partitions_of_weight_equal_an_unpruned_enumeration():
    for weight in range(26):
        for max_length in [None, *range(1, 9)]:
            slots = weight if max_length is None else min(max_length, weight)
            got = [p.parts for p in partitions_of_weight(weight, max_length)]
            assert got == list(_partitions_unpruned(weight, weight, slots)), (weight, max_length)


def test_coefficient_table_weight_two_exact():
    tab = _exact_table(2, 2)
    assert tab[(2,)] == {(2,): F(1), (1, 1): F(2, 3)}
    assert tab[(1, 1)] == {(1, 1): F(4, 3)}


def test_coefficient_table_weight_three_exact():
    tab = _exact_table(3, 3)
    assert tab[(3,)] == {(3,): F(1), (2, 1): F(3, 5), (1, 1, 1): F(2, 5)}
    assert tab[(2, 1)] == {(2, 1): F(12, 5), (1, 1, 1): F(18, 5)}
    assert tab[(1, 1, 1)] == {(1, 1, 1): F(2)}


def _assert_rows_close(kappas, coeff, ref, rel):
    """coeff[i, j] matches ref[kappa_i][kappa_j] to *rel*, zero where ref has no entry."""
    assert kappas == list(ref)
    index = {k: i for i, k in enumerate(kappas)}
    expected = np.zeros_like(coeff)
    for kappa, row in ref.items():
        for lam, c in row.items():
            expected[index[kappa], index[lam]] = float(c)
    assert np.array_equal(coeff != 0, expected != 0)
    assert np.all(np.abs(coeff - expected) <= rel * np.abs(expected))


def test_coeff_matrix_matches_exact_tables():
    # the coefficients do not depend on the length restriction: the
    # shorter tables are the length-5 table with the longer rows and
    # columns dropped
    for weight in range(21):
        wide = _exact_table(weight, 5)
        for max_length in range(5, 0, -1):
            ref = {
                kappa: {lam: c for lam, c in row.items() if len(lam) <= max_length}
                for kappa, row in wide.items()
                if len(kappa) <= max_length
            }
            kappas, coeff = zonal._coeff_matrix(weight, max_length)
            _assert_rows_close(kappas, coeff, ref, rel=1e-14)


@pytest.mark.parametrize("weight,max_length", [(22, 3), (24, 4), (22, 5)])
def test_coeff_matrix_beyond_fraction_range_matches_exact_rows(weight, max_length):
    """Past weight 20 the float matrix still matches the exact rows to 1e-14."""
    kappas, coeff = zonal._coeff_matrix(weight, max_length)
    _assert_rows_close(kappas, coeff, _exact_table(weight, max_length), rel=1e-14)


@pytest.mark.parametrize("weight,max_length", [(22, 3), (21, 4)])
def test_coeff_matrix_unit_rows_match_exact_phat_rows(weight, max_length):
    """With n_kappa divided back out, the float rows match the unit-leading exact rows to 1e-14."""
    ref = {
        kappa: {lam: c / row[kappa] for lam, c in row.items()}
        for kappa, row in _exact_table(weight, max_length).items()
    }
    kappas, coeff = zonal._coeff_matrix(weight, max_length)
    unit = coeff / np.array([float(_hook_norm(k)) for k in kappas])[:, None]
    _assert_rows_close(kappas, unit, ref, rel=1e-14)


# the tables of weight <= 40 at length <= 3 and of weight <= 24 at lengths 4 and 5
_BUILD_CASES = [(w, l) for l in (1, 2, 3) for w in range(41)] + [(w, l) for l in (4, 5) for w in range(25)]


def _padded_table(weight: int, max_length: int) -> tuple[list[tuple], np.ndarray]:
    kappas = [p.parts for p in partitions_of_weight(weight, max_length)]
    width = max(1, max(map(len, kappas)))
    return kappas, np.array([k + (0,) * (width - len(k)) for k in kappas], dtype=np.int64)


def test_coeff_matrix_equals_column_loop_bit_for_bit():
    """The table-at-once builder gives the per-partition loop's matrix byte for byte."""
    for weight, max_length in _BUILD_CASES:
        kappas, coeff = zonal._coeff_matrix(weight, max_length)
        ref_kappas, ref = _coeff_matrix_loop(weight, max_length)
        assert kappas == ref_kappas, (weight, max_length)
        assert coeff.tobytes() == ref.tobytes(), (weight, max_length)


def _coeff_matrix_columns(weight: int, max_length: int) -> tuple[list[tuple], np.ndarray]:
    """The per-column form of :func:`zonal._coeff_matrix`.

    The same transfers, rho and hook norms; each column finds its
    dominating rows in its own mask row, gathers by fancy indexing and
    forms its own denominators.
    """
    kappas, padded = _padded_table(weight, max_length)
    n, width = padded.shape
    cum = np.cumsum(padded, axis=1)
    dominated = np.all(cum[None, :, :] >= cum[:, None, :], axis=2)  # [lam, kappa]
    rho = (padded * (padded - np.arange(1, width + 1))).sum(axis=1).astype(float)
    mu_idx, coefs, bounds = zonal._table_transfers(padded, weight)
    coeff = np.eye(n)
    for li in range(1, n):
        rows = np.flatnonzero(dominated[li, :li])
        t = slice(bounds[li], bounds[li + 1])
        coeff[rows, li] = (coeff[rows[:, None], mu_idx[t]] @ coefs[t]) / (rho[rows] - rho[li])
    coeff *= zonal._hook_norms(padded, weight)[:, None]
    return kappas, coeff


def test_coeff_matrix_equals_per_column_lookups_bit_for_bit():
    cases = [(w, l) for l in (1, 2, 3) for w in range(41)] + [(w, 4) for w in range(25)] + [(w, 5) for w in range(21)]
    for weight, max_length in cases:
        kappas, coeff = zonal._coeff_matrix(weight, max_length)
        ref_kappas, ref = _coeff_matrix_columns(weight, max_length)
        assert kappas == ref_kappas, (weight, max_length)
        assert coeff.tobytes() == ref.tobytes(), (weight, max_length)


def test_table_transfers_equal_per_partition_transfers():
    """Same mu, same coefficient, same (i, j, t) order, duplicates kept."""
    for weight in range(21):
        for max_length in range(1, 6):
            kappas, padded = _padded_table(weight, max_length)
            mu_idx, coefs, bounds = zonal._table_transfers(padded, weight)
            assert bounds[-1] == mu_idx.size == coefs.size
            for li, lam in enumerate(kappas):
                got = list(zip(mu_idx[bounds[li] : bounds[li + 1]].tolist(), coefs[bounds[li] : bounds[li + 1]].tolist()))
                assert [(kappas[m], c) for m, c in got] == [(mu, float(c)) for mu, c in _transfers(lam)], lam


def test_hook_norms_are_the_exact_norms_rounded():
    for weight, max_length in _BUILD_CASES:
        kappas, padded = _padded_table(weight, max_length)
        assert zonal._hook_norms(padded, weight).tolist() == [float(_hook_norm(k)) for k in kappas]


def test_layer_data_reverses_the_table_columns(monkeypatch):
    """The reversed copy equals the dict remap into np.unique order, in value and in layout."""
    monkeypatch.setattr(zonal, "_LAYERS", {})
    for d in range(1, 6):
        for weight in range(30):
            coeff = zonal._layer_data(weight, d)[2]
            ref = _layer_coeff_remap(weight, d)
            assert coeff.strides == ref.strides, (weight, d)
            assert coeff.tobytes() == ref.tobytes(), (weight, d)


def test_hook_norm_equals_sum_rule_back_substitution():
    """n_kappa solves sum_{kappa >= lam} n_kappa c_{kappa lam} = weight!/prod(lam_i!)."""
    for weight in range(15):
        rows = _exact_table(weight, weight)
        n_coeff = {}
        for lam in rows:
            acc = F(math.factorial(weight), math.prod(math.factorial(p) for p in lam))
            for kp in rows:
                if kp == lam:
                    break
                c = rows[kp].get(lam)
                if c is not None:
                    # the unit-leading coefficient c_{kp lam}
                    acc = acc - n_coeff[kp] * c / rows[kp][kp]
            n_coeff[lam] = acc
            assert _hook_norm(lam) == acc, lam


def test_series_evaluation_builds_no_tables(monkeypatch):
    monkeypatch.setattr(zonal, "_LAYERS", {})
    assert density_m_fullrank(np.diag([0.3, 0.5, 0.7, 0.9, 1.1]), 6.5) > 0
    assert density_fd(np.diag([0.5, 1.0, 1.5, 2.0])) > 0
    assert zonal._LAYERS


def test_monomial_coefficients_sum_rule_columns():
    """Within a weight, the coefficients of each monomial add to its multinomial."""
    for weight in range(1, 7):
        tab = _exact_table(weight, weight)
        for lam in partitions_of_weight(weight):
            col = sum(row.get(lam.parts, F(0)) for row in tab.values())
            expected = F(math.factorial(weight)) / math.prod(
                math.factorial(p) for p in lam.parts
            )
            assert col == expected, (weight, lam.parts)


def test_dominance_triangularity():
    for weight in range(1, 8):
        for kappa, row in _exact_table(weight, weight).items():
            for lam in row:
                assert Partition(kappa).dominates(lam)


@given(
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_sum_rule_at_random_spectra(d, k, data):
    eigs = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=3.0), min_size=d, max_size=d
            )
        )
    )
    total = sum(zonal_C(eigs, kap) for kap in partitions_of_weight(k, min(k, d)))
    target = float(np.sum(eigs)) ** k
    assert total == pytest.approx(target, rel=1e-10)


def test_zonal_c_homogeneity_and_matrix_agreement(rng):
    x = rng.standard_normal((3, 3))
    x = x @ x.T + 0.5 * np.eye(3)
    eigs = np.linalg.eigvalsh(x)
    for kap in ((2, 1), (3,), (1, 1, 1)):
        val = zonal_C(x, kap)
        assert val == pytest.approx(zonal_C(eigs, kap), rel=1e-12)
        c = 1.7
        assert zonal_C(c * x, kap) == pytest.approx(c ** sum(kap) * val, rel=1e-12)
    # longer partition than the dimension evaluates to zero
    assert zonal_C(np.eye(2), (1, 1, 1)) == 0.0
    assert zonal_C(np.eye(2), ()) == 1.0


def _layer_reference(eigs, weight):
    # every d <= 5 reads the length-5 table; rows longer than d drop out
    # and so do the monomials, which vanish there
    tab = _exact_table(weight, 5)
    mono = {lam: _m_lam(eigs.tolist(), lam) for lam in tab}
    return {
        kappa: sum(float(c) * mono[lam] for lam, c in row.items())
        for kappa, row in tab.items()
        if len(kappa) <= eigs.size
    }


@given(
    d=st.integers(min_value=1, max_value=5),
    weight=st.integers(min_value=0, max_value=20),
    data=st.data(),
)
def test_zonal_layer_matches_table_times_monomials(d, weight, data):
    eigs = np.array(
        data.draw(st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=d, max_size=d))
    )
    got = zonal_layer(eigs, weight)
    ref = _layer_reference(eigs, weight)
    assert got.keys() == ref.keys()
    for kappa, value in ref.items():
        assert got[kappa] == pytest.approx(value, rel=1e-12)


def test_zonal_layer_edge_cases():
    eigs = np.array([0.5, 1.5, 2.0])
    assert zonal_layer(eigs, 0) == {(): 1.0}
    # one coordinate: the single partition (w,) carries the whole power
    assert zonal_layer([0.7], 5) == pytest.approx({(5,): 0.7**5}, rel=1e-15)
    assert (2, 1, 1, 1) not in zonal_layer(eigs, 5)
    assert zonal_C(eigs, (2, 1, 1, 1)) == 0.0
    # past weight 20
    weight = 22
    eigs2 = np.array([0.4, 1.1])
    got = zonal_layer(eigs2, weight)
    for kappa, value in _layer_reference(eigs2, weight).items():
        assert got[kappa] == pytest.approx(value, rel=1e-12)
    assert sum(got.values()) == pytest.approx(1.5**weight, rel=1e-12)
    with pytest.raises(ValueError):
        zonal_layer(eigs, -1)


def test_group_compositions_matches_unique_rows():
    """The base-(w+1) keys group compositions exactly as np.unique(axis=0) does."""
    for weight in range(31):
        for d in range(1, 6):
            comps = zonal._compositions(weight, d)
            assert (comps.sum(axis=1) == weight).all()
            lam_index = zonal._group_compositions(comps, weight)
            ref_lams, ref_index = np.unique(-np.sort(-comps, axis=1), axis=0, return_inverse=True)
            assert np.array_equal(lam_index, ref_index.ravel()), (weight, d)
            # np.unique lists the partitions in the reverse of the table order
            kappas = [k + (0,) * (d - len(k)) for k in zonal._coeff_matrix(weight, min(d, weight))[0]]
            assert ref_lams.tolist() == [list(k) for k in reversed(kappas)], (weight, d)


def test_layer_values_equal_zonal_layer(rng):
    for d in range(1, 6):
        eigs = rng.uniform(0.2, 2.0, d)
        # a stack with a repeated point and a zero eigenvalue; each of its
        # rows is the one-point call on that row, bit for bit
        stack = rng.uniform(0.2, 2.0, size=(6, d))
        stack[2] = stack[1]
        stack[4, 0] = 0.0
        for weight in range(25):
            parts, values = zonal._layer_values(eigs, weight)
            layer = zonal_layer(eigs, weight)
            assert parts.shape == (len(layer), d)
            assert [tuple(int(m) for m in row if m) for row in parts] == list(layer)
            assert values.tolist() == list(layer.values())
            stack_parts, rows = zonal._layer_values(stack, weight)
            assert np.array_equal(stack_parts, parts)
            assert rows.shape == (len(stack), len(layer))
            for row, point in zip(rows, stack):
                assert row.tobytes() == zonal._layer_values(point, weight)[1].tobytes(), (d, weight)


def test_block_eigenvalues_match_eigvalsh(rng):
    """Orders 1 and 2 in closed form agree with LAPACK to a few ulp of the larger eigenvalue."""
    eps = np.finfo(float).eps
    g = rng.standard_normal((500, 2, 3))
    blocks = list(g @ np.swapaxes(g, 1, 2))
    blocks += [2.5 * np.eye(2), 1e-3 * np.eye(2), np.diag([0.7, 3.0]), np.diag([3.0, 0.7])]
    blocks += [np.array([[1.0, 1e-9], [1e-9, 1.0]]), np.array([[0.4, 0.0], [0.0, 0.0]])]
    for m, stack in ((1, np.array(blocks)[:, :1, :1]), (2, np.array(blocks))):
        got = zonal._block_eigenvalues(np.ascontiguousarray(stack.transpose(1, 2, 0)))
        ref = np.linalg.eigvalsh(stack)
        assert got.shape == ref.shape == (len(blocks), m)
        top = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 4 * eps * top)
    # equal eigenvalues come out equal, in ascending order like LAPACK's
    pair = zonal._block_eigenvalues(np.stack([2.5 * np.eye(2), np.diag([3.0, 0.7])], axis=2))
    assert pair[0].tolist() == [2.5, 2.5]
    assert pair[1, 0] < pair[1, 1] == 3.0
    # larger blocks are LAPACK's
    g = rng.standard_normal((20, 3, 4))
    stack = g @ np.swapaxes(g, 1, 2)
    got = zonal._block_eigenvalues(np.ascontiguousarray(stack.transpose(1, 2, 0)))
    assert np.array_equal(got, np.linalg.eigvalsh(stack))


@pytest.mark.parametrize("weight,d", [(0, 3), (7, 1), (12, 2), (24, 3), (22, 4), (18, 5)])
def test_flat_gather_equals_fancy_gather(rng, weight, d):
    """The flat-index take gathers what powers[rows, exponents] did, bit for bit."""
    eigs = rng.uniform(0.2, 2.0, d)
    flat = zonal._layer_data(weight, d)[3]
    powers = eigs[:, None] ** np.arange(weight + 1)
    exps = zonal._compositions(weight, d).T.astype(np.min_scalar_type(weight))
    fancy = powers[np.arange(d)[:, None], exps]
    taken = powers.ravel().take(flat)
    assert np.array_equal(taken, fancy)
    assert np.array_equal(np.prod(taken, axis=0), np.prod(fancy, axis=0))


def test_layer_index_is_uint16_and_small():
    _, parts, _, flat, _ = zonal._layer_data(28, 5)
    assert flat.dtype == np.uint16
    assert flat.nbytes + parts.nbytes < 2**20


def _c_kappa_identity_fractions(kappa, d: int) -> Fraction:
    """C_kappa(I_d) = 2^{2k} k! (d/2)_kappa prod_{i<j} (2m_i - 2m_j - i + j) / prod_i (2m_i + l - i)!, in Fractions."""
    m = Partition.of(kappa).parts
    if len(m) > d:
        return F(0)
    k, l = sum(m), len(m)
    num = F(4) ** k * math.factorial(k) * pochhammer_kappa(F(d, 2), m)
    for i in range(l):
        for j in range(i + 1, l):
            num *= 2 * m[i] - 2 * m[j] - (i + 1) + (j + 1)
    return num / math.prod(math.factorial(2 * m[i] + l - (i + 1)) for i in range(l))


def test_c_kappa_identity_integer_form_equals_fraction_product():
    for d in range(1, 8):
        for weight in range(21):
            for kappa in partitions_of_weight(weight, d + 1):
                assert c_kappa_identity(kappa, d) == _c_kappa_identity_fractions(kappa, d), (kappa.parts, d)


def test_identity_values_match_closed_form():
    cases = {
        ((2,), 2): F(8, 3),
        ((1, 1), 2): F(4, 3),
        ((3,), 2): F(16, 5),
        ((3,), 3): F(7),
        ((2, 1), 2): F(24, 5),
        ((1, 1, 1), 3): F(2),
    }
    for (kap, d), expected in cases.items():
        assert c_kappa_identity(kap, d) == expected
        assert sum(c * _m_lam((1,) * d, lam) for lam, c in _exact_table(sum(kap), d)[kap].items()) == expected
    # the exact tables summed at the identity agree with the closed form in
    # rational arithmetic, |kappa| <= 8 and d <= 5
    compared = 0
    for d in range(1, 6):
        for weight in range(9):
            for kappa, row in _exact_table(weight, d).items():
                total = sum(c * _m_lam((1,) * d, lam) for lam, c in row.items())
                assert total == c_kappa_identity(kappa, d), (kappa, d)
                compared += 1
    assert compared == 188


def test_minor_shift_identity(rng):
    # C_kappa(t) = [C_kappa(I) / C_{kappa-1}(I)] det t C_{kappa-1}(t) for
    # full-length kappa, with kappa - 1 the partition lowered by one in every row
    for d in (2, 3, 4):
        for eigs in rng.uniform(0.2, 2.5, size=(20, d)):
            det = float(np.prod(eigs))
            for weight in range(13):
                full = zonal_layer(eigs, weight + d)
                for lowered, c in zonal_layer(eigs, weight).items():
                    kappa = tuple(m + 1 for m in lowered) + (1,) * (d - len(lowered))
                    ratio = float(c_kappa_identity(kappa, d) / c_kappa_identity(lowered, d))
                    assert full[kappa] == pytest.approx(ratio * det * c, rel=1e-12)


def test_pochhammer_kappa_exact_and_domain():
    assert pochhammer_kappa(F(3, 2), (2, 1)) == F(15, 4)
    assert pochhammer_kappa(2.0, (1,)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        pochhammer_kappa(0.5, (1,), d=3)
    with pytest.raises(ValueError):
        pochhammer_kappa(1.0, (1, 1, 1), d=2)


def test_multivariate_gamma_recurrence_and_shift():
    # Gamma_d(z) = pi^((d-1)/2) Gamma(z) Gamma_{d-1}(z - 1/2)
    for d in (2, 3):
        for z in (1.7, 2.5, 4.0):
            lhs = multivariate_gamma(z, d)
            rhs = math.pi ** ((d - 1) / 2) * math.gamma(z) * multivariate_gamma(z - 0.5, d - 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)
    # Gamma_d(z + kappa) = (z)_kappa Gamma_d(z)
    for kap in ((2,), (1, 1), (2, 1)):
        z = 2.25
        lhs = multivariate_gamma(z, 3, kap)
        rhs = float(pochhammer_kappa(z, kap, d=3)) * multivariate_gamma(z, 3)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    assert multivariate_gamma(2.0, 2, log=True) == pytest.approx(
        math.log(multivariate_gamma(2.0, 2)), rel=1e-12
    )
    with pytest.raises(ValueError):
        multivariate_gamma(0.5, 3)  # third gamma argument hits zero


def test_multivariate_gamma_raises_typed_errors_out_of_range():
    with pytest.raises(DomainError, match="log=True"):
        multivariate_gamma(200.0, 3)
    assert math.isfinite(multivariate_gamma(200.0, 3, log=True))
    for z in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            multivariate_gamma(z, 3)
        with pytest.raises(ValueError, match="finite"):
            multivariate_gamma(z, 3, log=True)
    # the log itself leaves the double range
    with pytest.raises(DomainError, match="double range"):
        multivariate_gamma(1e306, 2, log=True)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: zonal_layer(x, 3),
        lambda x: zonal_C(x, (2, 1)),
        lambda x: exp_trace_partial_sum(x, 3),
    ],
    ids=["zonal_layer", "zonal_C", "exp_trace_partial_sum"],
)
def test_eigenvalue_inputs_reject_non_finite_entries(call):
    for x in ([math.nan, 1.0], [1.0, math.inf], math.nan, np.array(-math.inf), [[1.0, 0.0], [0.0, math.nan]]):
        with pytest.raises(ValueError, match="non-finite"):
            call(x)
    call([0.5, 1.0])  # finite input passes


@pytest.mark.filterwarnings("error")
def test_values_past_double_range_raise_domain_error(rng):
    huge = np.diag([1e200, 1.0])
    calls = [
        lambda: exp_trace_partial_sum(np.diag([1e160, 1.0]), 2),
        lambda: zonal_layer(np.diag(huge), 2),
        lambda: zonal_C(huge, (1, 1)),
        lambda: delta_kappa(huge, (3,)),
        # some draws leave the Cholesky path through a cancelled pivot
        lambda: phi_kappa_mc(huge, (3,), 10, rng),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="double range"):
            call()


def test_error_classes_have_one_home():
    with pytest.raises(DomainError) as raised:
        zonal_layer([1e200, 1.0], 2)
    assert raised.type is ncwishart.DomainError is measures.DomainError is symcore.DomainError
    assert issubclass(DomainError, ValueError)
    assert ncwishart.TruncationError is measures.TruncationError is symcore.TruncationError
    assert issubclass(TruncationError, RuntimeError)


_hostile_eigenvalues = st.lists(
    st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=-300.0, max_value=300.0),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(eigs=_hostile_eigenvalues, weight=st.integers(min_value=0, max_value=6), data=st.data())
def test_hostile_eigenvalues_give_finite_values_or_domain_error(eigs, weight, data):
    """Signed eigenvalues of magnitude 1e-300 to 1e300: finite or DomainError, never a warning."""
    kappa = data.draw(st.sampled_from(partitions_of_weight(weight, len(eigs))))
    calls = [
        lambda: list(zonal_layer(eigs, weight).values()),
        lambda: [zonal_C(eigs, kappa)],
        lambda: [exp_trace_partial_sum(eigs, weight)],
    ]
    for call in calls:
        try:
            values = call()
        except DomainError:
            continue
        assert all(math.isfinite(v) for v in values)


def test_delta_kappa_minors(rng):
    x = rng.standard_normal((2, 2))
    x = x @ x.T + np.eye(2)
    det = float(np.linalg.det(x))
    assert delta_kappa(x, (2, 1)) == pytest.approx(x[0, 0] * det, rel=1e-12)
    assert delta_kappa(x, (1, 1)) == pytest.approx(det, rel=1e-12)
    # negative exponents invert pointwise
    assert delta_kappa(x, (-1, -1)) == pytest.approx(1.0 / det, rel=1e-12)
    # indefinite input falls back to explicit minors for integer exponents
    y = np.diag([2.0, -3.0])
    assert delta_kappa(y, (1, 1)) == pytest.approx(-6.0)


def test_phi_kappa_at_identity_is_exact(rng):
    est = phi_kappa_mc(np.eye(3), (2, 1), 64, rng)
    assert est.estimate == pytest.approx(1.0, abs=1e-15)
    assert est.std_error == pytest.approx(0.0, abs=1e-15)
    assert est.n_samples == 64


@pytest.mark.parametrize(
    "d, kappa, seed",
    [(2, (2, 1), 1), (2, (3,), 2), (3, (2, 1), 3), (3, (3, 1, 1), 4), (4, (2, 1, 1), 5), (4, (1, 1), 6)],
)
def test_phi_kappa_mc_matches_closed_form(d, kappa, seed):
    """E[Delta_kappa(u x u^T)] = C_kappa(x) / C_kappa(I_d) away from the identity."""
    rng = np.random.default_rng([seed, d])
    g = rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    x = q @ np.diag(rng.uniform(0.4, 2.5, d)) @ q.T
    est = phi_kappa_mc(x, kappa, 40_000, rng)
    closed = zonal_C(x, kappa) / float(c_kappa_identity(kappa, d))
    assert est.std_error > 0.0
    assert abs(est.estimate - closed) <= 4.0 * est.std_error


def test_delta_batch_mixes_definite_and_singular_rows(rng):
    # positive definite rows take the pivot path, singular PSD rows the
    # explicit minors; each row must equal delta_kappa of that row alone
    # (to the last bit or two: numpy's log and exp may round a lone value
    # differently from a long array)
    g = rng.standard_normal((4, 3, 3))
    pd = g @ np.swapaxes(g, 1, 2) + 0.1 * np.eye(3)
    singular = [np.diag([1.0, 0.0, 2.0]), np.diag([2.0, 3.0, 0.0])]
    stack = np.stack([pd[0], singular[0], pd[1], singular[1], pd[2], pd[3]])
    for kappa in [(3, 1, 0), (2, 2, 0), (2.5, 1.0, 0.0)]:
        exps = zonal._minor_exponents(kappa, 3)
        vals = zonal._delta_batch(np.ascontiguousarray(stack.transpose(1, 2, 0)), exps)
        assert vals.tolist() == pytest.approx([delta_kappa(y, kappa) for y in stack], rel=1e-15, abs=0)
        assert vals[1] == 0.0
        assert vals[3] == pytest.approx(2.0 ** exps[0] * 6.0 ** exps[1], rel=1e-14)
        minors = [np.linalg.det(pd[0][: k + 1, : k + 1]) for k in range(3)]
        assert vals[0] == pytest.approx(math.prod(m**e for m, e in zip(minors, exps)), rel=1e-12)


def test_conjugate_matches_stacked_products(rng):
    d, n = 3, 50
    u = zonal._haar_columns(d, n, rng)
    stacked = u.transpose(2, 1, 0)  # u_n[i, j]
    a = np.diag([1.0, 2.0, 0.5]) + 0.1
    ref = stacked @ a @ np.swapaxes(stacked, 1, 2)
    assert np.allclose(zonal._conjugate(u, a, d).transpose(2, 0, 1), ref, rtol=0, atol=1e-14)
    assert np.allclose(zonal._conjugate(u, a, 2).transpose(2, 0, 1), ref[:, :2, :2], rtol=0, atol=1e-14)
    # one matrix per draw, as in singular_r_sample
    per_draw = np.ascontiguousarray(ref[:, :2, :2].transpose(1, 2, 0))
    v = zonal._haar_columns(2, n, rng)
    v_stacked = v.transpose(2, 1, 0)
    nested = v_stacked @ ref[:, :2, :2] @ np.swapaxes(v_stacked, 1, 2)
    got = zonal._conjugate(v, per_draw, 2)
    assert np.array_equal(got, np.swapaxes(got, 0, 1))
    assert np.allclose(got.transpose(2, 0, 1), nested, rtol=0, atol=1e-14)


def test_phi_kappa_mc_does_not_depend_on_batch_size(monkeypatch):
    x = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.9]])
    full = phi_kappa_mc(x, (3, 1), 5000, np.random.default_rng(9))
    monkeypatch.setattr(zonal, "_MC_BATCH", 1024)
    assert phi_kappa_mc(x, (3, 1), 5000, np.random.default_rng(9)) == full


def _delta_batch_cumsum(ys, exps):
    # _delta_batch as it was with np.cumsum over the log pivots
    d, n = ys.shape[0], ys.shape[2]
    chol = np.zeros_like(ys)
    pivots = np.empty((d, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(d):
            lj = chol[j, :j]
            pivots[j] = ys[j, j] - np.einsum("kn,kn->n", lj, lj)
            root = np.sqrt(pivots[j])
            for i in range(j + 1, d):
                chol[i, j] = (ys[i, j] - np.einsum("kn,kn->n", chol[i, :j], lj)) / root
        out = np.exp(exps @ np.cumsum(np.log(pivots), axis=0))
    for b in np.flatnonzero(~np.all(pivots > 0.0, axis=0)):
        out[b] = zonal._delta_minors_general(ys[:, :, b], exps)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_delta_batch_equals_cumsum_formula(d):
    rng = np.random.default_rng(100 + d)
    n = 3001
    g = rng.standard_normal((n, d, d + 1))
    stack = g @ np.swapaxes(g, 1, 2) + 1e-3 * np.eye(d)
    # exactly singular PSD rows (a zero on the diagonal) take the explicit minors
    singular = rng.choice(n, size=40, replace=False)
    for b in singular:
        diag = rng.uniform(0.5, 2.0, size=d)
        diag[rng.integers(d)] = 0.0
        stack[b] = np.diag(diag)
    ys = np.ascontiguousarray(stack.transpose(1, 2, 0))
    kappas = [(3, 1, 1, 0, 0)[:d], (2.5, 1.0, 0.5, 0.5, 0.0)[:d], tuple(range(2 * d, 0, -2))]
    for kappa in kappas:
        exps = zonal._minor_exponents(kappa, d)
        got = zonal._delta_batch(ys, exps)
        ref = _delta_batch_cumsum(ys, exps)
        assert got.tobytes() == ref.tobytes()


def _lemma_checks_per_node(x, kappa, power):
    # zonal_lemma_checks node by node: each y = u x u^T by matrix products,
    # delta_kappa on it and zonal_C on its leading block
    a = np.asarray(x, dtype=float)
    d = a.shape[0]
    parts = Partition.of(kappa).padded(d)
    inner = tuple(p - parts[-1] for p in parts[:-1])
    shifted = tuple(p + power for p in parts)
    rev = tuple(-p for p in reversed(parts))
    u, weights = zonal._haar_rule(d, 2 * sum(parts))
    shift = reversal = direct = reduced = 0.0

    def rel_dev(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    for n, w in enumerate(weights):
        un = u[:, :, n].T
        y = un @ a @ un.T
        y = (y + y.T) / 2.0
        delta = delta_kappa(y, parts)
        shift = max(shift, rel_dev(delta_kappa(y, shifted), delta * np.linalg.det(y) ** power))
        reversal = max(reversal, rel_dev(delta_kappa(np.linalg.inv(y), parts), delta_kappa(y[::-1, ::-1], rev)))
        direct += w * delta
        reduced += w * zonal_C(y[: d - 1, : d - 1], inner)
    reduced *= float(np.linalg.det(a)) ** parts[-1] / float(c_kappa_identity(inner, d - 1))
    return shift, reversal, direct, reduced


@pytest.mark.parametrize("d, kappa", [(2, (3, 1)), (3, (3, 2, 1))])
def test_nested_estimate_matches_unchunked_loop(d, kappa):
    x = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.9]])[:d, :d]
    shift, reversal, direct, reduced = _lemma_checks_per_node(x, kappa, 1.3)
    checks = zonal.zonal_lemma_checks(x, kappa, power=1.3)
    closed = zonal_C(x, kappa) / float(c_kappa_identity(kappa, d))
    # the batched kernels and the per-node loop round differently: a few
    # ulp per node, summed over at most 1,183 nodes
    assert [c.expected for c in checks] == [0.0, 0.0, closed, closed]
    assert max(checks[0].value, checks[1].value, shift, reversal) <= 1e-13
    assert checks[2].value == pytest.approx(direct, rel=1e-13, abs=0)
    assert checks[3].value == pytest.approx(reduced, rel=1e-13, abs=0)
    assert direct == pytest.approx(closed, rel=1e-13, abs=0)
    assert reduced == pytest.approx(closed, rel=1e-13, abs=0)


def test_haar_rule_matches_closed_form_on_random_triples():
    rng = np.random.default_rng(2024)
    for i in range(200):
        d = 2 + i % 2
        kappa = tuple(sorted(rng.integers(0, 4, size=d).tolist(), reverse=True))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        x = q @ np.diag(rng.uniform(0.4, 2.5, d)) @ q.T
        checks = zonal.zonal_lemma_checks(x, kappa, power=float(rng.uniform(0.5, 2.0)))
        closed = zonal_C(x, kappa) / float(c_kappa_identity(kappa, d))
        assert [c.expected for c in checks] == [0.0, 0.0, closed, closed]
        assert checks[0].value <= 1e-13 and checks[1].value <= 1e-13
        for c in checks[2:]:
            assert abs(c.value - closed) <= 1e-13 * closed, (i, kappa, c.name)


def test_haar_rule_weights_and_nodes():
    for d in (1, 2, 3):
        for degree in (0, 1, 4, 7):
            u, weights = zonal._haar_rule(d, degree)
            n = {1: 1, 2: degree + 1, 3: (degree + 1) ** 2 * ((degree + 2) // 2)}[d]
            assert u.shape == (d, d, n) and weights.shape == (n,)
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
            stacked = u.transpose(2, 1, 0)
            assert np.allclose(stacked @ np.swapaxes(stacked, 1, 2), np.eye(d), rtol=0, atol=1e-15)
            assert np.allclose(np.linalg.det(stacked), 1.0, rtol=0, atol=1e-14)
    # E[u_11^4] = 3 / (d (d + 2)) on O(d) needs degree 4, and degree 3 misses it
    for d in (2, 3):
        exact = 3.0 / (d * (d + 2))
        u, weights = zonal._haar_rule(d, 4)
        assert weights @ u[0, 0] ** 4 == pytest.approx(exact, rel=1e-15)
        u, weights = zonal._haar_rule(d, 3)
        assert abs(weights @ u[0, 0] ** 4 - exact) > 1e-3


def test_under_resolved_haar_rule_fails_the_record_gate(monkeypatch):
    gate = check_zonal_lemma_mc(RunConfig())[1].tolerance
    x = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.9]])
    exact_rule = zonal._haar_rule

    def worst_at(degree):
        monkeypatch.setattr(zonal, "_haar_rule", lambda d, _: exact_rule(d, degree))
        checks = zonal.zonal_lemma_checks(x, (3, 1, 0))
        return max(abs(c.value - c.expected) / c.expected for c in checks[2:])

    assert worst_at(8) <= gate  # degree 2|kappa|
    assert worst_at(2) > 1e6 * gate
    record = check_zonal_lemma_mc(RunConfig())[1]
    assert record.name == "zonal-lemma-cubature" and not record.passed


def test_zonal_lemma_records_pass_at_seeds_0_to_39():
    # the Monte Carlo form of these records failed on correct code at 2 of
    # 600 seeds; the cubature leaves only roundoff
    for seed in range(40):
        records = check_zonal_lemma_mc(RunConfig(seed=seed))
        assert [rec.name for rec in records if not rec.passed] == [], seed


def test_zonal_lemma_checks_refuse_d4_and_large_weight():
    with pytest.raises(ValueError, match="d = 4"):
        zonal.zonal_lemma_checks(np.eye(4), (1,))
    with pytest.raises(ValueError, match="exceeds 20"):
        zonal.zonal_lemma_checks(np.eye(2), (11, 10))
    assert len(zonal.zonal_lemma_checks(np.eye(2), (10, 10))) == 4


def test_exp_trace_partial_sum_converges_honestly():
    target = math.exp(2.0)
    err12 = abs(exp_trace_partial_sum(np.eye(2), 12) - target) / target
    err16 = abs(exp_trace_partial_sum(np.eye(2), 16) - target) / target
    assert 1e-7 < err12 < 3e-7  # genuine truncation error, not hidden rounding
    assert err16 < 1e-10
    assert err16 < err12



@pytest.mark.parametrize("cutoff", [171, 200])
def test_exp_trace_partial_sum_past_factorial_range(cutoff):
    assert exp_trace_partial_sum(np.eye(1), cutoff) == pytest.approx(math.e, rel=1e-15)


def test_over_factorial_is_float_division_up_to_170():
    for w in (0, 1, 20, 169, 170):
        for total in (1.0, -3.25e7, 1e300):
            assert zonal._over_factorial(total, w) == total / math.factorial(w)
    assert zonal._over_factorial(-2.0, 171) == pytest.approx(
        -2.0 * math.exp(-math.lgamma(172)), rel=1e-13
    )
    assert zonal._over_factorial(0.0, 200) == 0.0


# ---------------------------------------------------------------------------
# The series walk, chunk by chunk, against one layer at a time

# The highest weight the walk tests pull, per d.
_WALK_TOP = {1: 40, 2: 40, 3: 40, 4: 20, 5: 20}


@functools.cache
def _walk_tables() -> dict:
    return {(w, d): zonal._layer_data(w, d) for d, top in _WALK_TOP.items() for w in range(top + 1)}


def _walk_weights(d: int, p: float) -> list:
    """Factories of the weights of every series: unit, both masks, reciprocal gammas."""

    def gammas():
        log_gammas = measures._log_multivariate_gammas(p, d)
        return lambda parts: np.exp(-log_gammas(parts))

    return [
        lambda: lambda parts: np.ones(len(parts)),
        lambda: measures._fd_kappas,
        lambda: measures._remainder_kappas,
        gammas,
    ]


def _one_layer_walk(eigs: np.ndarray, weights, top: int) -> list[float]:
    """The walk one layer at a time, each layer from its own _layer_values."""
    out = []
    for w in range(top + 1):
        parts, values = zonal._layer_values(eigs, w)
        out.append(zonal._over_factorial(float(values @ weights(parts)), w))
    return out


@pytest.mark.parametrize("cached", ["none", "even weights", "all"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_chunked_walk_equals_one_layer_walk_bit_for_bit(monkeypatch, d, cached):
    top = _WALK_TOP[d]
    tables = _walk_tables()
    start = {"none": (), "even weights": range(0, top + 1, 2), "all": range(top + 1)}[cached]
    rng = np.random.default_rng(d)
    eigs = np.sort(rng.uniform(0.2, 2.5, d))
    factories = _walk_weights(d, (d - 1 + rng.uniform(0.25, 1.5)) / 2.0)
    monkeypatch.setattr(zonal, "_LAYERS", dict(tables))
    expected = [[v.hex() for v in _one_layer_walk(eigs, make(), top)] for make in factories]
    monkeypatch.setattr(zonal, "_LAYERS", {(w, d): tables[w, d] for w in start})
    monkeypatch.setattr(zonal, "_CHUNKS", {})
    # the first pass builds the missing tables and chunks, the second reuses them
    for _ in range(2):
        for make, ref in zip(factories, expected):
            got = itertools.islice(zonal._weighted_layers(eigs, make()), top + 1)
            assert [v.hex() for v in got] == ref, (d, cached)
    assert zonal._CHUNKS  # the light early layers joined into chunks


def test_walk_builds_exactly_the_tables_it_pulls(monkeypatch):
    tables = _walk_tables()
    d = 3
    eigs = np.array([0.4, 0.9, 1.7])
    for start in [(), range(0, 41, 2), range(21)]:
        for pulled in (0, 1, 5, 13, 30, 41):
            cached = {(w, d): tables[w, d] for w in start}
            monkeypatch.setattr(zonal, "_LAYERS", dict(cached))
            monkeypatch.setattr(zonal, "_CHUNKS", {})
            list(itertools.islice(zonal._weighted_layers(eigs, measures._fd_kappas), pulled))
            assert zonal._LAYERS.keys() == cached.keys() | {(w, d) for w in range(pulled)}, (start, pulled)


@pytest.mark.filterwarnings("error")
def test_walk_ahead_of_the_caller_overflows_without_a_warning(monkeypatch):
    """Layers 11 and up overflow at these eigenvalues; a caller stopping at 8 sees nothing of them."""
    tables = _walk_tables()
    monkeypatch.setattr(zonal, "_LAYERS", {(w, 2): tables[w, 2] for w in range(21)})
    monkeypatch.setattr(zonal, "_CHUNKS", {})
    eigs = np.array([1e30, 2e30])
    assert len(zonal._chunk_data(0, 2)[3]) > 11  # the first chunk reaches past the overflow
    ones = lambda parts: np.ones(len(parts))  # noqa: E731
    got = list(itertools.islice(zonal._weighted_layers(eigs, ones), 9))
    assert got == _one_layer_walk(eigs, ones, 8)
    assert all(math.isfinite(v) for v in got)
    assert exp_trace_partial_sum(eigs, 8) == sum(got)


def test_walks_in_threads_equal_walks_in_one_thread(monkeypatch):
    """Threads that share the table and chunk caches, and race to fill them, get the same bits."""
    rng = np.random.default_rng(27)
    points = [np.diag(rng.uniform(0.3, 1.5, d)) for d in (2, 3, 4) for _ in range(8)]
    series = [density_fd, lambda t: density_m_fullrank(t, len(t) - 0.5)]
    expected = [f(t).hex() for t in points for f in series]
    monkeypatch.setattr(zonal, "_LAYERS", {})
    monkeypatch.setattr(zonal, "_CHUNKS", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            runs = [pool.submit(lambda: [f(t).hex() for t in points for f in series]) for _ in range(6)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == expected for got in results)
    assert zonal._CHUNKS


def test_fd_suite_reports_are_byte_identical_cold_and_warm(monkeypatch):
    monkeypatch.setattr(zonal, "_LAYERS", {})
    monkeypatch.setattr(zonal, "_CHUNKS", {})
    cold = run_suite("fd", RunConfig(seed=0)).to_json(include_timing=False)
    assert zonal._CHUNKS  # the later walks of the cold run already went by chunks
    warm = run_suite("fd", RunConfig(seed=0)).to_json(include_timing=False)
    assert cold == warm


def test_zonal_lemma_checks_structure():
    x = np.diag([1.0, 2.0, 0.5])
    checks = zonal.zonal_lemma_checks(x, (2, 1), power=1.5)
    names = [c.name for c in checks]
    assert names == ["minor_power_shift", "inverse_reversal", "haar_closed_form", "trailing_part_reduction"]
    for c in checks[:2]:
        assert c.expected == 0.0
        assert abs(c.value - c.expected) < 1e-13
    closed = zonal_C(x, (2, 1)) / float(c_kappa_identity((2, 1), 3))
    for c in checks[2:]:
        assert c.expected == closed
        assert abs(c.value - c.expected) <= 1e-13 * closed
    # nothing is drawn, so a second call gives the same records
    assert zonal.zonal_lemma_checks(x, (2, 1), power=1.5) == checks


def test_monomial_symmetric_small_cases():
    vals = (1, 2, 3)
    assert _m_lam(vals, (1,)) == 6
    assert _m_lam(vals, (1, 1)) == 11
    # sum of x_i^2 x_j over ordered pairs i != j
    assert _m_lam(vals, (2, 1)) == 48
    assert _m_lam((1,), (1, 1)) == 0
    assert _m_lam(vals, ()) == 1
    assert _m_lam((1,) * 5, (2, 1, 1)) == 30
