import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncwishart import (
    DomainError,
    NcwParams,
    coords_to_matrix,
    lebesgue_coords,
    phi2,
    rank_psd,
)
from ncwishart.symcore import _haar_columns, sym_entries

finite_reals = st.floats(min_value=-50, max_value=50, allow_nan=False)


def _haar_batch(d, size, rng):
    """The draws of _haar_columns as a (size, d, d) view, u_n = batch[n]."""
    return _haar_columns(d, size, rng).transpose(2, 1, 0)


def test_symmatrix_rejects_bad_input():
    with pytest.raises(ValueError, match="must be square"):
        sym_entries(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        sym_entries([[1.0, 2.0], [0.0, 1.0]])  # asymmetric beyond tolerance
    with pytest.raises(ValueError, match="non-finite"):
        sym_entries([[np.nan, 0.0], [0.0, 1.0]])


def test_empty_matrix_raises_its_own_value_error():
    with pytest.raises(ValueError, match="matrix must be at least 1 x 1"):
        sym_entries(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="w must be at least 1 x 1"):
        NcwParams(1.0, np.zeros((0, 0)))


def test_rank_psd_three_ways():
    # rank d, rank below d, and DomainError outside the closed cone
    assert rank_psd(np.diag([1.0, 2.0])) == 2
    assert rank_psd(np.diag([1.0, 0.0])) == 1
    with pytest.raises(DomainError, match=r"min eigenvalue -1\.000e\+00"):
        rank_psd(np.diag([1.0, -1.0]))


def test_rank_psd_refuses_outside_cone():
    assert rank_psd(np.diag([3.0, 0.0, 1.0])) == 2
    with pytest.raises(ValueError, match="outside the closed cone"):
        rank_psd(np.diag([1.0, -0.5]))


@given(
    d=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_lebesgue_coords_roundtrip_and_isometry(d, data):
    """coords_to_matrix inverts lebesgue_coords, and the map preserves norms."""
    n = d * (d + 1) // 2
    v = np.array(data.draw(st.lists(finite_reals, min_size=n, max_size=n)))
    m = coords_to_matrix(v, d)
    assert np.array_equal(m, m.T)
    back = lebesgue_coords(m)
    assert np.allclose(back, v, atol=1e-12)
    assert math.isclose(
        float(np.linalg.norm(v)) ** 2, float(np.trace(m @ m)), rel_tol=1e-12, abs_tol=1e-12
    )


def test_coords_to_matrix_rejects_wrong_length():
    with pytest.raises(ValueError):
        coords_to_matrix([1.0, 2.0], 2)


@given(x=finite_reals, y=finite_reals, z=finite_reals)
def test_phi2_roundtrip_det_and_pairing(x, y, z):
    m = phi2((x, y, z))
    assert np.array_equal(m, m.T)
    # the inverse of phi2: x = (m11 + m22)/2, y = (m11 - m22)/2, z = m12
    back = ((m[0, 0] + m[1, 1]) / 2.0, (m[0, 0] - m[1, 1]) / 2.0, m[0, 1])
    assert back == pytest.approx((x, y, z), abs=1e-12)
    assert float(np.linalg.det(m)) == pytest.approx(x * x - y * y - z * z, abs=1e-8)
    # trace pairing: tr(phi2(a) phi2(p)) = 2 <a, p>
    a, b, c = 0.7, -0.3, 1.1
    lhs = float(np.trace(phi2((a, b, c)) @ m))
    assert lhs == pytest.approx(2 * (a * x + b * y + c * z), abs=1e-9)


def test_haar_orthogonal_is_orthogonal(rng):
    for d in (1, 2, 5):
        u = _haar_batch(d, 1, rng)[0]
        assert np.allclose(u @ u.T, np.eye(d), atol=1e-12)
        assert abs(float(np.linalg.det(u))) == pytest.approx(1.0, abs=1e-12)


def test_haar_batch_shape_and_reproducibility():
    batch = _haar_batch(3, 7, np.random.default_rng(5))
    assert batch.shape == (7, 3, 3)
    again = _haar_batch(3, 7, np.random.default_rng(5))
    assert np.array_equal(batch, again)
    assert _haar_batch(3, 0, np.random.default_rng(5)).shape == (0, 3, 3)


def test_haar_first_moment_vanishes(rng):
    # E[u] = 0 on O(d); a loose 5-sigma band on the entry means
    n = 4000
    batch = _haar_batch(3, n, rng)
    means = batch.mean(axis=0)
    assert float(np.max(np.abs(means))) < 5.0 / math.sqrt(3 * n)


def _qr_with_sign_fix(g):
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0.0] = 1.0
    return q * np.sign(diag)[:, None, :]


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("size", [0, 1, 2000])
def test_haar_batch_equals_qr_with_sign_fix_on_same_normals(d, size):
    g = np.random.default_rng(11).standard_normal((size, d, d))
    columns = _haar_columns(d, size, np.random.default_rng(11))
    assert columns.shape == (d, d, size)
    assert columns.flags.c_contiguous
    batch = columns.transpose(2, 1, 0)
    if size:
        assert float(np.max(np.abs(batch - _qr_with_sign_fix(g)))) <= 1e-12


def test_haar_batch_orthogonal_to_roundoff():
    for d in (2, 3, 5):
        u = _haar_batch(d, 100_000, np.random.default_rng(d))
        gram_err = np.abs(np.einsum("nki,nkj->nij", u, u) - np.eye(d))
        assert float(np.max(gram_err)) <= 1e-14


@pytest.mark.parametrize("d", range(1, 6))
def test_haar_second_and_fourth_moments(d):
    # E[u_ij^2] = 1/d and E[u_11^4] = 3/(d(d+2)) on O(d), each within
    # four standard errors of the sample mean
    n = 20_000
    u = _haar_batch(d, n, np.random.default_rng(100 + d))
    sq = u**2
    se = sq.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(sq.mean(axis=0) - 1.0 / d) <= 4.0 * se + 1e-15)
    fourth = u[:, 0, 0] ** 4
    se4 = float(fourth.std(ddof=1)) / math.sqrt(n)
    assert abs(float(fourth.mean()) - 3.0 / (d * (d + 2))) <= 4.0 * se4 + 1e-15


def test_haar_batch_has_both_determinant_signs():
    for d in (1, 2, 3):
        dets = np.linalg.det(_haar_batch(d, 200, np.random.default_rng(7)))
        assert np.allclose(np.abs(dets), 1.0, atol=1e-12)
        assert np.any(dets > 0) and np.any(dets < 0)


class _StubGenerator:
    """Returns fixed 'normal' draws, so degenerate matrices can be injected."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def standard_normal(self, shape):
        assert self.draws.shape == tuple(shape)
        return self.draws.copy()


def test_haar_batch_degenerate_draws_fall_back_to_qr():
    good = np.random.default_rng(3).standard_normal((2, 3, 3))
    dependent = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])  # column 1 = 2 * column 0
    zero_column = np.array([[0.0, 1.0, 0.3], [0.0, 0.2, 1.0], [0.0, -0.4, 0.7]])
    draws = np.stack([good[0], dependent, good[1], zero_column])
    batch = _haar_batch(3, 4, _StubGenerator(draws))
    assert np.all(np.isfinite(batch))
    assert np.allclose(np.einsum("nki,nkj->nij", batch, batch), np.eye(3), atol=1e-14)
    assert np.allclose(batch, _qr_with_sign_fix(draws), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_haar_columns_truncated_equal_leading_columns_of_full_call(d):
    full = _haar_columns(d, 500, np.random.default_rng(d))
    for cols in range(1, d + 1):
        rng = np.random.default_rng(d)
        got = _haar_columns(d, 500, rng, cols)
        assert got.shape == (cols, d, 500)
        assert got.tobytes() == full[:cols].tobytes()
        # the same normals were drawn, so the stream is where the full call leaves it
        assert rng.bit_generator.state == _after_normals(d, 500)
    # draws that fall back to QR give the same leading columns too
    good = np.random.default_rng(3).standard_normal((2, d, d))
    zero_column = good[0].copy()
    zero_column[:, 0] = 0.0
    draws = np.stack([good[1], zero_column])
    full = _haar_columns(d, 2, _StubGenerator(draws))
    assert _haar_columns(d, 2, _StubGenerator(draws), d - 1).tobytes() == full[: d - 1].tobytes()


def _after_normals(d, size):
    rng = np.random.default_rng(d)
    rng.standard_normal((size, d, d))
    return rng.bit_generator.state

