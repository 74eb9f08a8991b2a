import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ncwishart.zonal as zonal
from ncwishart import (
    Partition,
    c_kappa_identity,
    delta_kappa,
    exp_trace_partial_sum,
    multivariate_gamma,
    partitions_up_to,
    phi_kappa_mc,
    pochhammer_kappa,
    zonal_C,
    zonal_C_at_identity,
    zonal_layer,
    zonal_monomial_coeffs,
)
from ncwishart.measures import density_fd, density_m_fullrank
from ncwishart.zonal import monomial_symmetric, partitions_of_weight, zonal_table

F = Fraction


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


def test_partitions_up_to_is_weight_major():
    seq = partitions_up_to(3)
    weights = [p.weight for p in seq]
    assert weights == sorted(weights)
    assert len(seq) == 1 + 1 + 2 + 3


def test_coefficient_table_weight_two_exact():
    tab = zonal_table(2, 2)
    assert tab[(2,)] == {(2,): F(1), (1, 1): F(2, 3)}
    assert tab[(1, 1)] == {(1, 1): F(4, 3)}


def test_coefficient_table_weight_three_exact():
    tab = zonal_table(3, 3)
    assert tab[(3,)] == {(3,): F(1), (2, 1): F(3, 5), (1, 1, 1): F(2, 5)}
    assert tab[(2, 1)] == {(2, 1): F(12, 5), (1, 1, 1): F(18, 5)}
    assert tab[(1, 1, 1)] == {(1, 1, 1): F(2)}


def _phat_rows_per_kappa(weight, max_length, exact):
    """The pipe recurrence with the transfers rebuilt for every kappa."""
    parts_list = [p.parts for p in partitions_of_weight(weight, max_length)]
    one = Fraction(1) if exact else 1.0
    rows = {}
    for ki, kappa in enumerate(parts_list):
        rho_k = zonal._rho(kappa)
        row = {kappa: one}
        for lam in parts_list[ki + 1 :]:
            if not zonal._dominated_by(lam, kappa):
                continue
            acc = Fraction(0) if exact else 0.0
            n = len(lam)
            for i in range(n):
                for j in range(i + 1, n):
                    for t in range(1, lam[j] + 1):
                        mu = list(lam)
                        mu[i] += t
                        mu[j] -= t
                        c = row.get(tuple(sorted((m for m in mu if m > 0), reverse=True)))
                        if c is not None:
                            acc = acc + (lam[i] - lam[j] + 2 * t) * c
            denom = rho_k - zonal._rho(lam)
            val = acc / denom if exact else acc / float(denom)
            if val:
                row[lam] = val
        rows[kappa] = row
    return rows


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


@pytest.mark.parametrize("weight,max_length,exact", [(12, 4, True), (22, 3, False), (21, 4, False)])
def test_phat_rows_equal_per_kappa_transfer_loop(weight, max_length, exact):
    ref = _phat_rows_per_kappa(weight, max_length, exact)
    if exact:
        rows = zonal._phat_rows(weight, max_length)
        assert rows == ref
        assert list(rows) == list(ref) and all(list(rows[k]) == list(ref[k]) for k in ref)
        assert all(type(v) is Fraction for row in rows.values() for v in row.values())
    else:
        # the array sweep sums the transfers in another order: compare its
        # rows with the leading coefficient divided back out
        kappas, coeff = zonal._coeff_matrix(weight, max_length)
        unit = coeff / np.array([float(zonal._hook_norm(k)) for k in kappas])[:, None]
        _assert_rows_close(kappas, unit, ref, rel=1e-14)


def test_coeff_matrix_matches_exact_tables():
    for weight in range(zonal.FRACTION_MAX_WEIGHT + 1):
        for max_length in range(5, 0, -1):
            kappas, coeff = zonal._coeff_matrix(weight, max_length)
            _assert_rows_close(kappas, coeff, zonal_table(weight, max_length), rel=1e-14)


@pytest.mark.parametrize("weight,max_length", [(22, 3), (24, 4), (22, 5)])
def test_coeff_matrix_beyond_fraction_range_matches_exact_rows(weight, max_length):
    rows = zonal._phat_rows(weight, max_length)
    ref = {k: {lam: zonal._hook_norm(k) * c for lam, c in row.items()} for k, row in rows.items()}
    kappas, coeff = zonal._coeff_matrix(weight, max_length)
    _assert_rows_close(kappas, coeff, ref, rel=1e-14)
    tab = zonal_table(weight, max_length)
    assert all(type(v) is float for row in tab.values() for v in row.values())
    _assert_rows_close(kappas, coeff, tab, rel=0)


def test_hook_norm_equals_sum_rule_back_substitution():
    """n_kappa solves sum_{kappa >= lam} n_kappa c_{kappa lam} = weight!/prod(lam_i!)."""
    for weight in range(15):
        rows = zonal._phat_rows(weight, weight)
        n_coeff = {}
        for lam in rows:
            acc = F(math.factorial(weight), math.prod(math.factorial(p) for p in lam))
            for kp in rows:
                if kp == lam:
                    break
                c = rows[kp].get(lam)
                if c is not None:
                    acc = acc - n_coeff[kp] * c
            n_coeff[lam] = acc
            assert zonal._hook_norm(lam) == acc, lam


def test_series_evaluation_builds_no_tables(monkeypatch):
    monkeypatch.setattr(zonal, "_TABLES", {})
    monkeypatch.setattr(zonal, "_LAYERS", {})
    assert density_m_fullrank(np.diag([0.3, 0.5, 0.7, 0.9, 1.1]), 6.5) > 0
    assert density_fd(np.diag([0.5, 1.0, 1.5, 2.0])) > 0
    assert zonal._LAYERS
    assert zonal._TABLES == {}


def test_monomial_coefficients_sum_rule_columns():
    """Within a weight, the coefficients of each monomial add to its multinomial."""
    for weight in range(1, 7):
        tab = zonal_table(weight, weight)
        for lam in partitions_of_weight(weight):
            col = sum(row.get(lam.parts, F(0)) for row in tab.values())
            expected = F(math.factorial(weight)) / math.prod(
                math.factorial(p) for p in lam.parts
            )
            assert col == expected, (weight, lam.parts)


def test_dominance_triangularity():
    for weight in range(1, 8):
        for kappa, row in zonal_table(weight, weight).items():
            for lam in row:
                assert Partition(kappa).dominates(lam)


def test_zonal_monomial_coeffs_returns_copy():
    a = zonal_monomial_coeffs((2,))
    a[(2,)] = F(99)
    assert zonal_monomial_coeffs((2,))[(2,)] == F(1)


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
    tab = zonal_table(weight, min(eigs.size, weight))
    return {
        kappa: sum(float(c) * monomial_symmetric(eigs, lam) for lam, c in row.items())
        for kappa, row in tab.items()
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
    # float tables beyond the exact range
    weight = zonal.FRACTION_MAX_WEIGHT + 2
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
            lams, lam_index = zonal._group_compositions(comps, weight)
            ref_lams, ref_index = np.unique(-np.sort(-comps, axis=1), axis=0, return_inverse=True)
            assert np.array_equal(lams, ref_lams), (weight, d)
            assert np.array_equal(lam_index, ref_index.ravel()), (weight, d)


def test_layer_values_equal_zonal_layer(rng):
    for d in range(1, 6):
        eigs = rng.uniform(0.2, 2.0, d)
        for weight in range(25):
            parts, values = zonal._layer_values(eigs, weight)
            layer = zonal_layer(eigs, weight)
            assert parts.shape == (len(layer), d)
            assert [tuple(int(m) for m in row if m) for row in parts] == list(layer)
            assert values.tolist() == list(layer.values())


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
        assert zonal_C_at_identity(kap, d) == expected
    # the two evaluations agree across a larger sweep
    for weight in range(0, 7):
        for kap in partitions_of_weight(weight):
            for d in range(kap.length, 5):
                if d == 0:
                    continue
                assert zonal_C_at_identity(kap, d) == c_kappa_identity(kap, d)


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
    # one matrix per draw, as in the nested estimator
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


def _lemma_checks_unchunked(x, kappa, n_samples, rng, power):
    # zonal_lemma_checks as one whole-sample pass over each Haar draw
    a = np.asarray(x, dtype=float)
    d = a.shape[0]
    parts = Partition.of(kappa).padded(d)

    def max_rel_dev(lhs, rhs):
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        return float(np.max(np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0)))

    ys = zonal._conjugate(zonal._haar_columns(d, min(n_samples, 256), rng), a, d)
    stacked = ys.transpose(2, 0, 1)
    exps = zonal._minor_exponents(parts, d)
    lhs = zonal._delta_batch(ys, zonal._minor_exponents(np.array(parts, dtype=float) + power, d))
    shift = max_rel_dev(lhs, zonal._delta_batch(ys, exps) * np.linalg.det(stacked) ** power)
    lhs = zonal._delta_batch(np.linalg.inv(stacked).transpose(1, 2, 0), exps)
    rev = tuple(-p for p in reversed(parts))
    reversal = max_rel_dev(lhs, zonal._delta_batch(ys[::-1, ::-1], zonal._minor_exponents(rev, d)))

    direct = zonal._delta_batch(zonal._conjugate(zonal._haar_columns(d, n_samples, rng), a, d), exps)
    z = zonal._conjugate(zonal._haar_columns(d, n_samples, rng), a, d - 1)
    w = zonal._conjugate(zonal._haar_columns(d - 1, n_samples, rng), z, d - 1)
    inner = zonal._minor_exponents(tuple(p - parts[-1] for p in parts[:-1]), d - 1)
    nested = float(np.linalg.det(a)) ** parts[-1] * zonal._delta_batch(w, inner)
    se = [float(np.std(v, ddof=1) / math.sqrt(n_samples)) for v in (nested, direct)]
    return [
        (shift, 0.0, 0.0),
        (reversal, 0.0, 0.0),
        (float(np.mean(nested)), float(np.mean(direct)), math.hypot(*se)),
    ]


@pytest.mark.parametrize("d, kappa", [(2, (3, 1)), (3, (3, 2, 1))])
def test_nested_estimate_matches_unchunked_loop(monkeypatch, d, kappa):
    x = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.9]])[:d, :d]
    ref = _lemma_checks_unchunked(x, kappa, 2500, np.random.default_rng(d), 1.3)
    monkeypatch.setattr(zonal, "_MC_BATCH", 1000)
    checks = zonal.zonal_lemma_checks(x, kappa, 2500, np.random.default_rng(d), power=1.3)
    assert [(c.value, c.expected, c.std_error) for c in checks] == ref
    assert checks[2].std_error > 0.0


def test_exp_trace_partial_sum_converges_honestly():
    target = math.exp(2.0)
    err12 = abs(exp_trace_partial_sum(np.eye(2), 12) - target) / target
    err16 = abs(exp_trace_partial_sum(np.eye(2), 16) - target) / target
    assert 1e-7 < err12 < 3e-7  # genuine truncation error, not hidden rounding
    assert err16 < 1e-10
    assert err16 < err12


def test_zonal_lemma_checks_structure(rng):
    x = np.diag([1.0, 2.0, 0.5])
    checks = zonal.zonal_lemma_checks(x, (2, 1), 4000, rng, power=1.5)
    names = [c.name for c in checks]
    assert names == ["minor_power_shift", "inverse_reversal", "trailing_part_reduction"]
    for c in checks[:2]:
        assert c.std_error == 0.0
        assert abs(c.value - c.expected) < 1e-10
    trailing = checks[2]
    assert trailing.std_error > 0
    assert abs(trailing.value - trailing.expected) < 4 * trailing.std_error


def test_monomial_symmetric_small_cases():
    vals = np.array([1.0, 2.0, 3.0])
    assert monomial_symmetric(vals, (1,)) == pytest.approx(6.0)
    assert monomial_symmetric(vals, (1, 1)) == pytest.approx(11.0)
    # sum of x_i^2 x_j over ordered pairs i != j
    assert monomial_symmetric(vals, (2, 1)) == pytest.approx(48.0)
    assert monomial_symmetric(np.array([1.0]), (1, 1)) == 0.0
    assert monomial_symmetric(vals, ()) == 1.0
