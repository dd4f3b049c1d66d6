import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from randla import rng, sketching as sk


def fisher_yates_oracle(u, n, k):
    # scripted replay of the documented partial shuffle; a position that no
    # step touched holds its own index
    pool = {}
    for t in range(k):
        r = t + int(u[t] * (n - t))
        pool[t], pool[r] = pool.get(r, r), pool.get(t, t)
    return [pool.get(t, t) for t in range(k)]


# ---------------------------------------------------------------------------
# dense operators
# ---------------------------------------------------------------------------

def test_rademacher_entries():
    S = sk.sample_dense("rademacher", 2, 3, 7)
    assert set(np.unique(S.matrix())) <= {-1.0, 1.0}
    assert S.matrix().shape == (2, 3)


def test_dense_determinism():
    a = sk.sample_dense("gaussian", 4, 9, 5).matrix()
    b = sk.sample_dense("gaussian", 4, 9, 5).matrix()
    assert np.array_equal(a, b)


def test_dense_entry_counter_layout():
    # entry (i, j) of a wide operator draws at counter i + d*j
    d, m = 3, 5
    S = sk.sample_dense("uniform", d, m, 11).matrix()
    u = rng.uniform_stream(rng.RngKey(11), d * m)
    expected = (2 * u - 1).reshape((d, m), order="F")
    assert np.array_equal(S, expected)


def test_haar_wide_row_orthonormal():
    S = sk.sample_dense("haar", 3, 5, 1).matrix()
    assert np.abs(S @ S.T - np.eye(3)).max() < 1e-12


def test_haar_tall_column_orthonormal():
    # a tall operator is the .T view of a wide sample
    S = sk.sample_dense("haar", 2, 6, 1).T.matrix()
    assert S.shape == (6, 2)
    assert np.abs(S.T @ S - np.eye(2)).max() < 1e-12


def test_orientation_validation():
    with pytest.raises(ValueError, match="use .T"):
        sk.sample_dense("haar", 5, 3, 0)  # d > m
    with pytest.raises(ValueError, match="use .T"):
        sk.sample_dense("gaussian", 4, 3, 0)


def test_gaussian_norm_preservation_monte_carlo():
    # ||Sx||^2 / d is distributed as chi2_d / d, so [0.8, 1.2] holds per
    # seed with probability 0.955 at d = 200; the seed window is pinned
    # since 95/100 sits exactly at that rate.
    m, d = 10000, 200
    x = rng.gaussian_stream(rng.RngKey(123), m)
    x /= np.linalg.norm(x)
    hits = 0
    for seed in range(100, 200):
        S = sk.sample_dense("gaussian", d, m, rng.RngKey(seed))
        val = np.linalg.norm(S.apply(x)) ** 2 / d
        hits += 0.8 <= val <= 1.2
    assert hits >= 95


# ---------------------------------------------------------------------------
# SASOs
# ---------------------------------------------------------------------------

def test_saso_k_equals_d_dense_columns():
    S = sk.sample_saso(4, 6, 4, 3)
    dense = S.matrix(dense=True)
    assert np.all(np.abs(np.abs(dense) - 0.5) < 1e-15)  # entries +-1/sqrt(4)
    assert (S.nnz_per_column() == 4).all()


def test_saso_k1_unit_columns():
    S = sk.sample_saso(8, 8, 1, 9)
    dense = S.matrix(dense=True)
    assert np.allclose(np.linalg.norm(dense, axis=0), 1.0)
    assert ((dense != 0).sum(axis=0) == 1).all()


def test_saso_fisher_yates_trace():
    d, m, k = 10, 12, 3
    S = sk.sample_saso(d, m, k, 21)
    u = rng.uniform_grid(rng.RngKey(21), 2 * k, m)[:k, :]
    for j in range(m):
        assert sorted(S.rows[:, j]) == sorted(fisher_yates_oracle(u[:, j], d, k))


def test_saso_replacement_free_exact_nnz():
    S = sk.sample_saso(20, 50, 8, 13)
    assert (S.nnz_per_column() == 8).all()


def test_saso_apply_matches_dense_oracle():
    r = np.random.default_rng(0)
    S = sk.sample_saso(50, 200, 8, 5)
    A = r.standard_normal((200, 30))
    dense = S.matrix(dense=True)
    rel = np.linalg.norm(S.apply(A) - dense @ A) / np.linalg.norm(dense @ A)
    assert rel < 1e-14


def test_saso_identity_and_basis_columns():
    S = sk.sample_saso(6, 10, 3, 2)
    dense = S.matrix(dense=True)
    assert np.array_equal(S.apply(np.eye(10)), dense)
    for j in [0, 4, 9]:
        assert np.array_equal(S.apply(np.eye(10)[:, j]), dense[:, j])


def test_saso_validation():
    with pytest.raises(ValueError):
        sk.sample_saso(4, 8, 5, 0)  # k > d


@st.composite
def fisher_yates_cases(draw):
    # up to 64 columns and n up to 10^6, so columns whose targets are their
    # answer mix with columns that repeat a target or land in (t, k)
    n = draw(st.one_of(st.integers(1, 48), st.integers(49, 2000),
                       st.integers(2001, 10**6)))
    k = draw(st.integers(1, min(n, 24)))
    m = draw(st.integers(1, 64))
    u = draw(arrays(np.float64, (k, m), fill=st.nothing(),
                    elements=st.floats(0.0, 1.0, exclude_max=True)))
    return n, k, u


def _with_targets(n, *cols):
    # (n, k, u) whose column j has step-t target cols[j][t]: the midpoint of
    # that target's bucket
    u = np.array([[(r - t + 0.5) / (n - t) for t, r in enumerate(col)]
                  for col in cols]).T
    return n, u.shape[0], u


@settings(max_examples=200, deadline=None)
@given(fisher_yates_cases())
@example((5, 5, np.full((5, 3), 0.7)))        # k == n
@example((40, 40, np.linspace(0, 0.99, 40)[:, None]))  # one k == n column
@example((9, 1, np.full((1, 4), 0.5)))        # k == 1
@example((6, 4, np.zeros((4, 2))))            # every step swaps in place
@example((10, 4, np.full((4, 3), 0.3)))       # swaps land in the first k
# a repeated target; a target in (t, k); in place; distinct targets >= k
@example(_with_targets(1000, [700, 700, 2, 3], [2, 999, 700, 3],
                       [0, 1, 2, 3], [10, 11, 12, 13]))
# a target in (t, k) that a later step swaps on; one target at every step
@example(_with_targets(10**6, [3, 1, 2, 9], [10, 10, 10, 10],
                       [10, 11, 12, 13]))
def test_vectorized_fisher_yates_matches_oracle_in_order(case):
    n, k, u = case
    rows = sk._fisher_yates(u, n)
    assert rows.shape == (k, u.shape[1]) and rows.dtype == np.int64
    for j in range(u.shape[1]):
        assert list(rows[:, j]) == fisher_yates_oracle(u[:, j], n, k)


def test_fisher_yates_memory_does_not_grow_with_n():
    # a pool of range(n) would take 80 MB here; the targets take 3 KB
    u = np.random.default_rng(0).random((8, 50))
    tracemalloc.start()
    try:
        rows = sk._fisher_yates(u, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    for j in range(50):
        assert list(rows[:, j]) == fisher_yates_oracle(u[:, j], 10**7, 8)


def test_saso_signs_use_second_half_of_column_counters():
    # column j: indices from counters [2kj, 2kj + k), the sign of the t-th
    # index from counter 2kj + k + t
    d, m, k, key = 9, 14, 3, rng.RngKey(31, 5)
    S = sk.sample_saso(d, m, k, key)
    M = S.matrix(dense=True)
    for j in range(m):
        u = rng.uniform_stream(key.advance(2 * k * j), 2 * k)
        assert list(S.rows[:, j]) == fisher_yates_oracle(u[:k], d, k)
        expected = np.where(u[k:] < 0.5, -1.0, 1.0) / np.sqrt(k)
        assert np.array_equal(M[S.rows[:, j], j], expected)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# (m, d, k, key): the two replay-heavy tall_skinny shapes, d <= 4k, k = 1,
# k = d, and a v1 key; a last block of 5 < k columns (12 blocks of 8192,
# then 5); a sample where 2 < k columns replay in all; d = 70000 > 2^16,
# where targets equal in their low 16 bits only also replay.  The CSC
# arrays are hashed as int64 values: their index dtype is scipy's choice,
# not the sampler's.
SASO_GOLDEN = {
    (100000, 1200, 8, rng.RngKey(0)): "46826c4447fae6bd",
    (200000, 600, 8, rng.RngKey(31001, 7)): "492b8495c6c46516",
    (3000, 20, 8, rng.RngKey(5)): "afaa94b902817195",
    (5000, 300, 1, rng.RngKey(9, 3)): "644a6f6186f2543a",
    (1000, 12, 12, rng.RngKey(4)): "4642e9ffc0256a47",
    (50000, 900, 8, rng.RngKey(2, 11, version=1)): "6edd8437f2fe0a30",
    (98309, 1200, 8, rng.RngKey(6)): "dc4898128b6e95cb",
    (40, 40, 4, rng.RngKey(7)): "d18ab2d00340e52c",
    (80000, 70000, 8, rng.RngKey(0)): "b6fd1c245b2e5b58",
}


@pytest.mark.parametrize("case", SASO_GOLDEN, ids=str)
def test_saso_sampling_matches_golden_digests(case):
    m, d, k, key = case
    S = sk.sample_saso(d, m, k, key)
    M = S.matrix()
    assert _digest(S.rows, M.indices.astype(np.int64), M.data,
                   M.indptr.astype(np.int64)) == SASO_GOLDEN[case]


def test_srft_coords_match_golden_digest():
    S = sk.sample_srft(400, 100000, rng.RngKey(13, 2))
    assert _digest(S.coords) == "8f1a40c34b1ef41d"


# (d, m, key): distinct targets at d = 400 (the key above repeats one);
# m_pad = 4096 <= 4d; d = 4096 at m_pad = 2^17; a v1 key; d = 1
SRFT_GOLDEN = {
    (400, 100000, rng.RngKey(1)): "cbb2586257545dda",
    (3000, 4000, rng.RngKey(8)): "5690d9765170934f",
    (4096, 100000, rng.RngKey(3, 1)): "2a1b1b6aaeabc81f",
    (400, 100000, rng.RngKey(7, 3, version=1)): "04c1a624c31e1137",
    (1, 1000, rng.RngKey(2)): "c8f9c66170a01a36",
}


@pytest.mark.parametrize("case", SRFT_GOLDEN, ids=str)
def test_srft_coords_match_golden_digests(case):
    assert _digest(sk.sample_srft(*case).coords) == SRFT_GOLDEN[case]


def test_saso_apply_draws_no_counters_after_sampling():
    S = sk.sample_saso(20, 60, 4, 8)
    A = np.random.default_rng(5).standard_normal((60, 3))
    expected = (S.apply(A), S.T.apply(A.T, side="right"), S.matrix(dense=True))

    def no_draws(*args, **kwargs):
        raise AssertionError("counters drawn after sampling")

    with mock.patch.object(rng, "uniform_stream", no_draws):
        got = (S.apply(A), S.T.apply(A.T, side="right"), S.matrix(dense=True))
        S.T.apply(A[:20])
        S.T.matrix()
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# row samplers
# ---------------------------------------------------------------------------

def test_row_sampler_uniform_scales():
    q = np.full(10, 0.1)
    R = sk.sample_row_sampler(5, q, 11)
    assert np.allclose(R.scales, np.sqrt(10 / 5))


def test_row_sampler_point_mass():
    q = np.zeros(6)
    q[1] = 1.0
    R = sk.sample_row_sampler(4, q, 3)
    assert (R.indices == 1).all()
    assert np.allclose(R.scales, 0.5)
    StS = R.matrix(dense=True).T @ R.matrix(dense=True)
    expected = np.zeros((6, 6))
    expected[1, 1] = 1.0
    assert np.allclose(StS, expected)


def test_row_sampler_frequencies_match_q():
    m, d = 8, 10**5
    q = np.arange(1.0, m + 1)
    q /= q.sum()
    R = sk.sample_row_sampler(d, q, 19)
    counts = np.bincount(R.indices, minlength=m)
    sigma = np.sqrt(d * q * (1 - q))
    assert np.all(np.abs(counts - d * q) <= 3 * sigma + 1)


def test_row_sampler_never_selects_a_zero_probability_tail():
    # ten probabilities of 0.1 have a cumulative sum that ends below 1, so
    # a uniform at or above its last value lands past every q > 0
    q = np.array([0.1] * 10 + [0.0, 0.0])
    end = np.cumsum(q)[-1]
    assert end < 1.0
    u = np.array([end, np.nextafter(1.0, 0.0), 0.05, end])
    with mock.patch.object(rng, "uniform_stream", lambda seed, n: u[:n]):
        R = sk.sample_row_sampler(u.size, q, 0)
    assert np.all(q[R.indices] > 0)
    assert R.indices[2] == 0
    assert np.all(np.isfinite(R.scales))


def test_row_sampler_applies_match_gather_and_scatter_add_bitwise():
    # heavily repeated indices, and signed zeros on both sides
    q = np.array([0.7, 0.0, 0.2, 0.0, 0.1])
    R = sk.sample_row_sampler(40, q, 3)
    assert R.matrix() is R.matrix()
    gen = np.random.default_rng(4)
    A = gen.standard_normal((5, 3))
    A[0, 0] = A[:, 1] = -0.0
    B = gen.standard_normal((4, 40))
    B[:, 0] = B[0] = -0.0
    left = R.scales[:, None] * A[R.indices]
    right = np.zeros((4, 5))
    np.add.at(right, (slice(None), R.indices), B * R.scales)
    for got, want in ((R.apply(A), left), (R.T.apply(A.T, side="right"), left.T),
                      (R.apply(B, side="right"), right), (R.T.apply(B.T), right.T)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_row_sampler_rejects_negative():
    with pytest.raises(ValueError):
        sk.sample_row_sampler(3, np.array([0.5, 0.7, -0.2]), 0)
    with pytest.raises(ValueError):
        sk.sample_row_sampler(3, np.array([0.5, 0.4]), 0)  # does not sum to 1


# ---------------------------------------------------------------------------
# SRFTs
# ---------------------------------------------------------------------------

def test_srft_full_sampling_is_orthogonal():
    d = 64
    S = sk.sample_srft(d, d, 5)
    M = S.matrix()
    x = np.random.default_rng(1).standard_normal((d, 4))
    assert np.abs(M.T @ (M @ x) - x).max() < 1e-12


def test_hadamard_2x2_oracle():
    # unnormalized H2 on (1, 1) is (2, 0); the orthonormal scale gives sqrt(2)
    out = sk.fwht(np.array([1.0, 1.0]), np.ones(2), [0, 1], 2)
    assert np.array_equal(out, [2.0, 0.0])
    S = sk.sample_srft(2, 2, 4)
    x = S.signs * np.array([1.0, 1.0])
    expected = np.array([x[0] + x[1], x[0] - x[1]])[S.coords] / np.sqrt(2)
    assert np.allclose(S.apply(np.ones(2)), expected)


def test_srft_against_dense_oracle():
    d, m = 64, 4096
    S = sk.sample_srft(d, m, 7)
    r = np.random.default_rng(2)
    A = r.standard_normal((m, 8))
    dense = S.matrix()
    rel = np.linalg.norm(S.apply(A) - dense @ A) / np.linalg.norm(dense @ A)
    assert rel < 1e-13


def test_srft_padding_and_scale():
    # non-power-of-two m zero-pads; E[S^T S] = I via the sqrt(m_pad/d) scale
    S = sk.sample_srft(8, 12, 3)
    assert S.m_pad == 16
    M = S.matrix()
    assert M.shape == (8, 12)
    # rows of the full (pre-sampling) product have unit norm:
    full = sk.sample_srft(16, 16, 3)
    G = full.matrix() * np.sqrt(16 / 16)
    assert np.allclose(np.linalg.norm(G, axis=1), 1.0)


def test_srft_right_apply_adjoint_consistency():
    S = sk.sample_srft(16, 30, 9)
    A = np.random.default_rng(3).standard_normal((5, 16))
    left = S.T.apply(A.T, side="left")
    right = S.apply(A, side="right")
    assert np.abs(left - right.T).max() < 1e-14


def test_srft_signs_and_coords_match_scalar_oracle():
    key = rng.RngKey(13, 2)
    for d, m in [(40, 300), (400, 100000)]:  # m_pad 512 and 2^17
        S = sk.sample_srft(d, m, key)
        u = rng.uniform_stream(key, m + d)
        assert np.array_equal(S.signs, np.where(u[:m] < 0.5, -1.0, 1.0))
        assert list(S.coords) == fisher_yates_oracle(u[m:], S.m_pad, d)


def _hadamard_products(H, rows, m, X, Y):
    """``Hs @ X`` and ``Hs.T @ Y`` for ``Hs = H[rows, :m]``, H an int8
    Sylvester matrix; Hs is made in 256-row float blocks, so no rows-by-m
    float matrix is held."""
    HX = np.empty((rows.size, X.shape[1]))
    HtY = np.zeros((m, Y.shape[1]))
    for a in range(0, rows.size, 256):
        h = H[rows[a:a + 256], :m].astype(float)
        HX[a:a + 256] = h @ X
        HtY += h.T @ Y[a:a + 256]
    return HX, HtY


def _pruned_cases(n, r):
    """(m, rows) pairs: odd m, one block, m = n and m = 1, against one row,
    a handful, a sorted run and every row."""
    ms = sorted({1, n, max(1, n - 3), max(1, n // 2 + 1), min(n, 5)})
    counts = sorted({1, max(1, n // 7), n})
    for m in ms:
        for c in counts:
            yield m, r.choice(n, c, replace=False)
    yield n, np.arange(n)


@pytest.mark.parametrize("p", range(13))
def test_fwht_matches_dense_hadamard(p):
    # fwht = H_n[rows, :m] @ D X and fwht_adjoint = D H_n[:m, rows] @ Y,
    # D = I and D random, 1-D and 3-D, inputs not mutated, outputs not
    # aliased
    n = 2 ** p
    r = np.random.default_rng(p)
    H = scipy.linalg.hadamard(n, dtype=np.int8)
    for m, rows in _pruned_cases(n, r):
        signs = np.where(r.random(m) < 0.5, -1.0, 1.0)
        full = m == n == rows.size
        for tail in ((), (3, 2)):
            X = r.standard_normal((m,) + tail)
            Y = r.standard_normal((rows.size,) + tail)
            X2, Y2 = X.reshape(m, -1), Y.reshape(rows.size, -1)
            c = X2.shape[1]
            HX, HtY = _hadamard_products(
                H, rows, m, np.hstack([X2, signs[:, None] * X2]), Y2)
            # errors are relative to sum |H_ij| |x_j|, since single sums
            # of random terms can cancel
            forward, back = np.abs(X2).sum(0), np.abs(Y2).sum(0)
            for got, want, scale, inp in [
                (sk.fwht(X, np.ones(m), rows, n), HX[:, :c], forward, X),
                (sk.fwht(X, signs, rows, n), HX[:, c:], forward, X),
                (sk.fwht_adjoint(Y, np.ones(m), rows, n), HtY, back, Y),
                (sk.fwht_adjoint(Y, signs, rows, n), signs[:, None] * HtY,
                 back, Y)]:
                before = inp.copy()
                assert got.shape == want.shape[:1] + tail
                got = got.reshape(want.shape)
                assert np.all(np.abs(got - want) <= 1e-14 * scale)
                if full:
                    # the whole transform, in any row order: no output
                    # cancels in aggregate, so the error is norm-relative
                    assert (np.linalg.norm(got - want)
                            <= 1e-14 * np.linalg.norm(want))
                assert np.array_equal(inp, before)
                assert not np.shares_memory(got, inp)


def test_fwht_rejects_non_power_of_two():
    for shape in ((6,), (12, 2), (3, 1, 1)):
        with pytest.raises(ValueError):
            sk.fwht(np.ones(shape), np.ones(shape[0]), [0], shape[0])
        with pytest.raises(ValueError):
            sk.fwht_adjoint(np.ones((1,) + shape[1:]), [1.0], [0], shape[0])


def test_fwht_rejects_rows_and_inputs_outside_the_transform():
    for rows in ([4], [-1]):
        with pytest.raises(ValueError):
            sk.fwht(np.ones(3), np.ones(3), rows, 4)
        with pytest.raises(ValueError):
            sk.fwht_adjoint(np.ones(1), np.ones(3), rows, 4)
    with pytest.raises(ValueError):
        sk.fwht(np.ones(5), np.ones(5), [0], 4)


def test_fwht_empty_input():
    for shape in ((0,), (0, 3)):
        out = sk.fwht(np.empty(shape), [], [0, 3], 4)  # no inputs: zeros
        assert out.shape == (2,) + shape[1:] and not out.any()
        out = sk.fwht(np.ones((4,) + shape[1:]), np.ones(4), [], 4)
        assert out.shape == shape
        back = sk.fwht_adjoint(np.empty(shape), np.ones(3), [], 4)
        assert back.shape == (3,) + shape[1:] and not back.any()


@pytest.mark.parametrize("p", range(13))
def test_srft_apply_matches_dense_hadamard(p):
    # both sides against the dense S = H_{m_pad}[coords, :m] D / sqrt(d),
    # over odd m, one block, m = m_pad, m = 1, d = 1 and d = m
    n = 2 ** p
    r = np.random.default_rng(100 + p)
    H = scipy.linalg.hadamard(n, dtype=np.int8)
    for m in sorted({1, n, max(1, n - 3), max(1, n // 2 + 1)}):
        for d in sorted({1, max(1, m // 5), m}):
            S = sk.sample_srft(d, m, rng.RngKey(p, m + d))
            A = r.standard_normal((m, 3))
            B = r.standard_normal((4, d))
            # H_{m_pad} is the leading block of the Sylvester H_n
            SA, StBt = _hadamard_products(H, S.coords, m,
                                          S.signs[:, None] * A, B.T)
            SA /= np.sqrt(d)
            StBt *= S.signs[:, None] / np.sqrt(d)
            # every |S_ij| is 1/sqrt(d), so errors are relative to
            # sum_j |a_j| / sqrt(d)
            for got, want, scale in [
                    (S.apply(A), SA, np.abs(A).sum(0)),
                    (S.apply(B, side="right"), StBt.T,
                     np.abs(B).sum(1)[:, None]),
                    (S.T.apply(B.T), StBt, np.abs(B.T).sum(0))]:
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-14 * scale / np.sqrt(d))


def test_srft_matrix_entries_are_exactly_pm_inv_sqrt_d():
    for d, m, seed in [(1, 1, 0), (3, 5, 1), (64, 1000, 2), (300, 300, 3),
                       (400, 1025, 4)]:
        S = sk.sample_srft(d, m, seed)
        H = scipy.linalg.hadamard(S.m_pad, dtype=np.int8)[S.coords, :m]
        M = S.matrix()
        assert np.array_equal(M, H * S.signs / np.sqrt(d))
        assert set(np.unique(M)) <= {-1 / np.sqrt(d), 1 / np.sqrt(d)}


def test_srft_apply_scratch_memory_is_about_two_copies():
    # the full transform held three m_pad-by-n arrays; the pruned one holds
    # the signed, block-padded input and the stage-one output
    for m in (2 ** 14, 2 ** 14 - 1000):
        n, d = 64, 200
        S = sk.sample_srft(d, m, 7)
        A = np.random.default_rng(0).standard_normal((m, n))
        tracemalloc.start()
        try:
            S.apply(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * S.m_pad * n * 8


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: sk.sample_dense("gaussian", 6, 15, 3),
    lambda: sk.sample_saso(6, 15, 3, 3),
    lambda: sk.sample_srft(6, 15, 3),
])
def test_adjoint_consistency(make):
    S = make()
    A = np.random.default_rng(4).standard_normal((15, 7))
    left = S.apply(A, side="left")
    right = S.T.apply(A.T, side="right")
    assert np.abs(left - right.T).max() < 1e-14


ALL_OPERATORS = [
    *(lambda f=f: sk.sample_dense(f, 6, 15, 3) for f in sk.DENSE_FAMILIES),
    lambda: sk.sample_saso(6, 15, 3, 3),
    lambda: sk.sample_srft(6, 15, 3),
    lambda: sk.sample_row_sampler(6, np.arange(1.0, 16.0) / 120, 3),
]
OPERATOR_IDS = [*sk.DENSE_FAMILIES, "saso", "srft", "row_sampler"]


@pytest.mark.parametrize("make", ALL_OPERATORS, ids=OPERATOR_IDS)
def test_a_vector_on_the_right_is_a_row(make):
    gen = np.random.default_rng(6)
    for S in (make(), make().T):
        y = gen.standard_normal(S.shape[0])
        got = S.apply(y, side="right")
        assert got.shape == (S.shape[1],)
        assert np.array_equal(got, S.apply(y[None, :], side="right")[0])


def test_a_vector_on_the_right_of_a_row_sampler():
    # every scale is 1/sqrt(4/6); rows 0 and 1 land on one index
    R = sk.sample_row_sampler(4, np.full(6, 1 / 6), 3)
    got = R.apply(np.array([1.0, 2.0, 3.0, 4.0]), side="right")
    assert np.allclose(got, np.sqrt(1.5) * np.array([0, 4, 3, 0, 3, 0]),
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("make", ALL_OPERATORS, ids=OPERATOR_IDS)
def test_every_operator_and_its_transpose_give_a_dense_matrix(make):
    S = make()
    M, MT = S.matrix(dense=True), S.T.matrix(dense=True)
    assert type(M) is np.ndarray and type(MT) is np.ndarray
    assert np.array_equal(M, MT.T)


def test_isotropy_of_scaled_families():
    # entrywise mean of S^T S (normalized by d) over 2000 samples of 20x200
    d, m, reps = 20, 200, 2000
    for family in ("gaussian", "rademacher"):
        stack = np.vstack([
            sk.sample_dense(family, d, m, rng.RngKey(1000 + i)).matrix()
            for i in range(reps)
        ])
        mean_gram = stack.T @ stack / (reps * d)
        assert np.abs(mean_gram - np.eye(m)).max() < 0.05
    stack = np.vstack([
        sk.sample_saso(d, m, 8, rng.RngKey(5000 + i)).matrix(dense=True)
        for i in range(reps)
    ])
    mean_gram = stack.T @ stack / reps  # SASO columns are unit-norm already
    assert np.abs(mean_gram - np.eye(m)).max() < 0.05


def test_distortion_scale_invariance_exact():
    U = np.eye(4)[:, :2]
    rep = sk.distortion_diagnostics(2 * np.eye(4), U)
    assert rep.sigma_max == rep.sigma_min == 2.0
    assert rep.eff_distortion == 0.0


def test_distortion_rank_deficient_is_one():
    S = np.zeros((3, 4))
    S[0, 0] = 1.0
    rep = sk.distortion_diagnostics(S, np.eye(4)[:, :2])
    assert rep.eff_distortion == 1.0
    assert np.isinf(rep.cond)


def test_distortion_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        sk.distortion_diagnostics(np.eye(4), 2 * np.eye(4)[:, :2])


def test_distortion_eff_formula():
    S = np.diag([3.0, 1.0])
    rep = sk.distortion_diagnostics(S, np.eye(2))
    assert np.isclose(rep.cond, 3.0)
    assert np.isclose(rep.eff_distortion, 0.5)


def test_json_descriptor_roundtrip():
    for op in (sk.sample_dense("gaussian", 4, 9, 5),
               sk.sample_saso(4, 9, 2, 5),
               sk.sample_srft(4, 9, 5)):
        desc = json.loads(op.to_json())
        assert set(desc) <= {"kind", "family", "d", "m", "k", "seed"}
        clone = sk.operator_from_json(op.to_json())
        a = op.matrix()
        b = clone.matrix()
        if hasattr(a, "toarray"):
            a, b = a.toarray(), b.toarray()
        assert np.array_equal(a, b)


# descriptors as earlier versions wrote them, with the one dense axis and
# the one SASO construction recorded as keys
OLD_DENSE = ('{"kind": "dense", "family": "haar", "d": 3, "m": 7, '
             '"orientation": "wide", "seed": {"key": 4, "offset": 0}}')
OLD_SASO = ('{"kind": "saso", "d": 5, "m": 9, "k": 2, '
            '"method": "replacement_free", "seed": {"key": 4, "offset": 3}}')


def test_old_descriptors_rebuild_bitwise_and_unsupported_values_raise():
    # descriptors without a stream version drew v1 streams
    pairs = ((OLD_DENSE, sk.sample_dense("haar", 3, 7, rng.RngKey(4, 0, 1)),
              "tall"),
             (OLD_SASO, sk.sample_saso(5, 9, 2, rng.RngKey(4, 3, 1)),
              "blocked"))
    for old, op, unsupported in pairs:
        clone = sk.operator_from_json(old)
        a, b = op.matrix(), clone.matrix()
        if hasattr(a, "toarray"):
            a, b = a.toarray(), b.toarray()
        assert np.array_equal(a, b)
        key = next(k for k in ("orientation", "method") if k in old)
        desc = dict(json.loads(old), **{key: unsupported})
        with pytest.raises(ValueError, match=f"{key} '{unsupported}'"):
            sk.operator_from_json(json.dumps(desc))


@pytest.mark.parametrize("version", rng.VERSIONS)
def test_descriptors_record_stream_version(version):
    key = rng.RngKey(5, 11, version)
    for op in (sk.sample_dense("gaussian", 4, 9, key),
               sk.sample_saso(4, 9, 2, key), sk.sample_srft(4, 9, key)):
        desc = json.loads(op.to_json())
        assert desc["seed"] == {"key": 5, "offset": 11, "version": version}
        clone = sk.operator_from_json(op.to_json())
        assert clone.seed == key
        a, b = op.matrix(), clone.matrix()
        if hasattr(a, "toarray"):
            a, b = a.toarray(), b.toarray()
        assert np.array_equal(a, b)
        for bad in (0, 3):
            desc["seed"]["version"] = bad
            with pytest.raises(ValueError, match="stream version"):
                sk.operator_from_json(json.dumps(desc))


def test_saso_nan_caveat():
    # documented caveat: NaN in rows never touched by the pattern does not
    # propagate; NaN in touched rows does
    S = sk.sample_saso(2, 6, 2, 8)  # every column has both rows -> k = d
    A = np.ones((6, 2))
    A[3, 1] = np.nan
    out = S.apply(A)
    assert np.isnan(out[:, 1]).any()
    R = sk.sample_row_sampler(3, np.array([1.0, 0, 0, 0]), 4)
    B = np.ones((4, 2))
    B[2, 0] = np.nan  # row 2 is never sampled
    assert np.all(np.isfinite(R.apply(B)))
