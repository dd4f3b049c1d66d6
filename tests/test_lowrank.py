import hashlib
import warnings

import numpy as np
import pytest

from randla import detkernels as dk, lowrank as lr, sketching
from randla.rng import RngKey


class CountingMatrix(np.ndarray):
    """ndarray that counts matrix products it participates in, and logs
    for each one the side it stood on and its shape."""

    count = 0
    sides: list = []

    def __matmul__(self, other):
        CountingMatrix.count += 1
        CountingMatrix.sides.append(("left", self.shape))
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        CountingMatrix.count += 1
        CountingMatrix.sides.append(("right", self.shape))
        return np.asarray(other) @ np.asarray(self)


def factored(m, n, sig, seed=0):
    r = np.random.default_rng(seed)
    U = np.linalg.qr(r.standard_normal((m, len(sig))))[0]
    V = np.linalg.qr(r.standard_normal((n, len(sig))))[0]
    return (U * np.asarray(sig, dtype=float)) @ V.T, U, V


def principal_angle(Q1, Q2):
    s = np.linalg.svd(Q1.T @ Q2, compute_uv=False)
    return np.arccos(np.clip(s[-1], -1, 1))


def sin_principal_angle(Q1, Q2):
    # largest sine of a principal angle; precise near zero unlike arccos
    return np.linalg.norm(Q2 - Q1 @ (Q1.T @ Q2), 2)


# ---------------------------------------------------------------------------
# tsog1 / rf1
# ---------------------------------------------------------------------------

def test_tsog1_oblivious_never_touches_a():
    A = np.zeros((20, 15)).view(CountingMatrix)
    CountingMatrix.count = 0
    S = lr.tsog1(A, 4, p=0, seed=1)
    assert CountingMatrix.count == 0
    assert S.shape == (15, 4)
    # and the operator is exactly the oblivious sample (data-independent)
    B = np.random.default_rng(0).standard_normal((20, 15))
    assert np.array_equal(S, lr.tsog1(B, 4, p=0, seed=1))


def test_tsog1_product_count():
    for p in range(5):
        A = np.random.default_rng(1).standard_normal((12, 9)).view(CountingMatrix)
        CountingMatrix.count = 0
        lr.tsog1(A, 3, p=p, q=10, seed=2)  # q large: no stabilizer products
        assert CountingMatrix.count == p


def test_tsog1_odd_parity_starts_adjoint():
    # p = 1 gives S = A^T G for the m-by-k oblivious G with the same seed
    m, n, k = 14, 10, 3
    A = np.random.default_rng(2).standard_normal((m, n))
    S = lr.tsog1(A, k, p=1, q=10, seed=3)
    G = sketching.sample_operator("gaussian", k, m, RngKey(3)).T.matrix()
    assert np.allclose(S, A.T @ G)


def test_tsog1_power_iterations_align():
    # alignment of range(A S) with the top singular direction improves with p
    sig = [10.0] + [1.0] * 7
    wins = 0
    for seed in range(20):
        A, U, _ = factored(60, 40, sig, seed=seed)
        a0 = principal_angle(lr.orth(A @ lr.tsog1(A, 1, p=0, seed=seed)),
                             U[:, :1])
        a2 = principal_angle(lr.orth(A @ lr.tsog1(A, 1, p=2, seed=seed)),
                             U[:, :1])
        wins += a2 <= a0 + 1e-12
    assert wins >= 14


def test_rf1_drops_rank():
    A, _, _ = factored(30, 20, [3.0, 2.0, 1.0], seed=4)
    Q = lr.rf1(A, 5, seed=5)
    assert Q.shape[1] == 3


def test_rf1_orthonormal_input_recovers_range():
    r = np.random.default_rng(6)
    A = np.linalg.qr(r.standard_normal((40, 6)))[0]
    Q = lr.rf1(A, 6, seed=7)
    assert sin_principal_angle(Q, A) <= 1e-10


def test_rf1_spectral_error_bound():
    # || A - Q Q^T A ||_2 <= 3 sigma_{k+1} on a step spectrum with p = 2
    sig = [10.0] * 4 + [1.0] * 16
    hits = 0
    for seed in range(20):
        A, _, _ = factored(100, 60, sig, seed=100 + seed)
        Q = lr.rf1(A, 4, seed=seed, power_passes=2)
        err = np.linalg.norm(A - Q @ (Q.T @ A), 2)
        hits += err <= 3.0 * 1.0
    assert hits >= 18


# ---------------------------------------------------------------------------
# QB family
# ---------------------------------------------------------------------------

def test_qb1_consistency():
    A, _, _ = factored(50, 30, np.logspace(0, -3, 10), seed=8)
    qb = lr.qb1(A, 6, seed=9)
    assert np.array_equal(qb.B, qb.Q.T @ A)
    err_qb = np.linalg.norm(A - qb.Q @ qb.B)
    err_rf = np.linalg.norm(A - qb.Q @ (qb.Q.T @ A))
    assert err_qb == err_rf


def test_qb1_exact_on_low_rank():
    A, _, _ = factored(40, 25, [5, 4, 3], seed=10)
    qb = lr.qb1(A, 5, seed=11)
    assert np.linalg.norm(A - qb.approximation()) <= 1e-8 * np.linalg.norm(A)


@pytest.mark.parametrize("power_passes", [0, 1, 2, 3])
def test_qb2_stops_after_a_short_block(power_passes):
    # a rangefinder that keeps fewer columns than it asked for has spent
    # the range of A: rank 3 at k = 5 makes the products of one full block
    low = factored(40, 25, [5, 4, 3], seed=10)[0]
    full = factored(40, 25, np.logspace(0, -3, 25), seed=10)[0]
    counts = []
    for A in (low, full):
        CountingMatrix.count = 0
        qb = lr.qb1(np.ascontiguousarray(A).view(CountingMatrix), 5, seed=11,
                    power_passes=power_passes)
        counts.append(CountingMatrix.count)
    assert qb.Q.shape[1] == 5 and counts[0] == counts[1]
    qb = lr.qb2(low, 5, seed=11, power_passes=power_passes)
    assert qb.Q.shape[1] == 3
    assert np.linalg.norm(low - qb.approximation()) <= 1e-12 * np.linalg.norm(low)


_POWER_LAW = factored(300, 120, np.arange(1, 121.0) ** -1.0, seed=82)[0]


@pytest.mark.parametrize("seed", [RngKey(83), RngKey(84, 5, version=1)],
                         ids=["v2", "v1"])
@pytest.mark.parametrize("k", [7, 25])
def test_qb1_is_qb2_at_tol_zero(k, seed):
    qb, ref = lr.qb1(_POWER_LAW, k, seed=seed), lr.qb2(_POWER_LAW, k, seed=seed)
    assert np.array_equal(qb.Q, ref.Q) and np.array_equal(qb.B, ref.B)


def test_qb1_caps_the_rank_at_min_m_n():
    qb = lr.qb1(_POWER_LAW, 150, seed=85)
    assert qb.Q.shape == (300, 120) and qb.B.shape == (120, 120)
    assert (np.linalg.norm(_POWER_LAW - qb.approximation())
            <= 1e-13 * np.linalg.norm(_POWER_LAW))


def test_block_zero_is_orthonormalized_once(monkeypatch):
    # the first block's rangefinder returns an orthonormal basis, and there
    # is no earlier basis to reorthogonalize it against
    shapes = []
    svd = dk.svd

    def counting_svd(Y):
        shapes.append(Y.shape)
        return svd(Y)

    monkeypatch.setattr(dk, "svd", counting_svd)
    lr.svd1(_POWER_LAW, 20, seed=86)
    assert shapes == [(300, 25), (25, 120)]
    shapes.clear()
    qb = lr.qb2(_POWER_LAW, 40, block_size=10, seed=87)
    assert qb.Q.shape[1] == 40
    # one rangefinder SVD per block, and one reorthogonalization for each
    # block after the first
    assert shapes == [(300, 10)] * 7


def test_deflation_against_an_empty_basis_returns_its_input():
    # block 0 deflates against no columns: the product comes back as it is,
    # not as a copy
    Y = np.asfortranarray(_POWER_LAW[:, :6])
    op = lr._Deflated(_POWER_LAW, np.empty((300, 0)))
    assert op.project(Y) is Y
    Q = lr.orth(Y)
    assert np.allclose(lr._Deflated(_POWER_LAW, Q).project(Y), 0, atol=1e-12)


def test_qb2_tolerance_stop():
    # 90% of the Frobenius mass in rank 2: tol 0.5 stops within 2 blocks
    sig = np.array([10.0, 8.0, 0.1, 0.1, 0.1, 0.1])
    A, _, _ = factored(40, 30, sig, seed=12)
    qb = lr.qb2(A, 10, tol=0.5, block_size=2, seed=13)
    assert qb.Q.shape[1] <= 4
    err = np.linalg.norm(A - qb.approximation())
    assert err <= 0.5 * np.linalg.norm(A)


def test_qb2_error_tracker_matches_direct():
    A, _, _ = factored(35, 25, np.logspace(0, -2, 12), seed=14)
    for k in (4, 8):
        qb = lr.qb2(A, k, tol=0.0, block_size=3, seed=15)
        direct = np.linalg.norm(A - qb.approximation())
        # the tracker decided termination; recompute what it tracked
        tracked = np.sqrt(max(np.linalg.norm(A, "fro") ** 2
                              - np.linalg.norm(qb.B, "fro") ** 2, 0.0))
        assert abs(tracked - direct) <= 1e-6 * max(direct, 1e-12)


def test_qb2_full_decomposition():
    A = np.random.default_rng(16).standard_normal((18, 12))
    qb = lr.qb2(A, 12, tol=0.0, block_size=5, seed=17)
    assert np.linalg.norm(A - qb.approximation()) <= 1e-8 * np.linalg.norm(A)


def test_qb2_orthonormality_and_b_identity():
    A, _, _ = factored(60, 40, np.logspace(0, -4, 20), seed=18)
    qb = lr.qb2(A, 10, tol=0.0, block_size=4, seed=19)
    assert np.abs(qb.Q.T @ qb.Q - np.eye(qb.Q.shape[1])).max() <= 1e-8
    assert np.linalg.norm(qb.B - qb.Q.T @ A) <= 1e-8 * np.linalg.norm(A)


def _qb2_explicit(A, k, block_size, seed, tol=0.0, power_passes=2):
    """Textbook blocked QB: rangefinder on an explicitly downdated copy of
    A, the same per-block keys, stopped on the directly computed error."""
    m, n = A.shape
    A_work = A.copy()
    Q, B = np.zeros((m, 0)), np.zeros((0, n))
    block = 0
    while Q.shape[1] < k:
        Qi = lr.rf1(A_work, min(block_size, k - Q.shape[1]),
                    seed=RngKey(seed).substream(block),
                    power_passes=power_passes)
        Qi = lr.orth(Qi - Q @ (Q.T @ Qi))
        if Qi.shape[1] == 0:
            break
        Bi = Qi.T @ A_work
        Q, B = np.hstack([Q, Qi]), np.vstack([B, Bi])
        A_work -= Qi @ Bi
        block += 1
        if np.linalg.norm(A_work) <= tol * np.linalg.norm(A):
            break
    return Q, B


@pytest.mark.parametrize("k, block_size, tol", [
    (12, 3, 0.0), (20, 7, 0.0), (25, 25, 0.0), (9, 4, 0.0), (30, 5, 1e-3)])
def test_qb2_implicit_deflation_matches_explicit_downdate(k, block_size, tol):
    A, _, _ = factored(90, 60, np.arange(1, 61.0) ** -1.0, seed=70)
    qb = lr.qb2(A, k, tol=tol, block_size=block_size, seed=71)
    Q, B = _qb2_explicit(A, k, block_size, 71, tol)
    assert qb.Q.shape[1] == Q.shape[1]
    ref = Q @ B
    assert np.linalg.norm(qb.approximation() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("k, block_size", [(20, 5), (30, 7)])
def test_qb2_implicit_deflation_matches_explicit_on_rank_deficient(k, block_size):
    # rank 12 with a flat spectrum: the block that crosses rank 12 loses
    # columns to orth's rank cut, and the tracked error then meets tol
    A, _, _ = factored(80, 50, np.linspace(2.0, 1.0, 12), seed=72)
    qb = lr.qb2(A, k, tol=1e-6, block_size=block_size, seed=73)
    Q, B = _qb2_explicit(A, k, block_size, 73, tol=1e-6)
    assert qb.Q.shape[1] == Q.shape[1] == 12
    ref = Q @ B
    assert np.linalg.norm(qb.approximation() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("power_passes", [0, 1, 2, 3])
@pytest.mark.parametrize("spectrum, k, block_size, tol", [
    ("decaying", 12, 3, 0.0), ("decaying", 30, 5, 1e-3),
    ("rank12", 20, 5, 1e-6)], ids=["tol0", "tol1e-3", "rank_deficient"])
def test_qb2_matches_explicit_downdate_for_every_power_passes(
        spectrum, k, block_size, tol, power_passes):
    # odd counts start on the left, 0 has no product to carry a rider
    if spectrum == "decaying":
        A, _, _ = factored(90, 60, np.arange(1, 61.0) ** -1.0, seed=70)
    else:
        A, _, _ = factored(80, 50, np.linspace(2.0, 1.0, 12), seed=72)
    qb = lr.qb2(A, k, tol=tol, block_size=block_size, seed=71,
                power_passes=power_passes)
    Q, B = _qb2_explicit(A, k, block_size, 71, tol, power_passes)
    assert qb.Q.shape[1] == Q.shape[1]
    ref = Q @ B
    assert np.linalg.norm(qb.approximation() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("k", [11, 25, 40])
def test_qb2_fixed_rank_default_block_is_qb1(k):
    # tol 0 and no block_size: one block with qb2's first key is qb1's work
    A, _, _ = factored(120, 70, np.arange(1, 71.0) ** -0.5, seed=74)
    qb = lr.qb2(A, k, seed=RngKey(75))
    ref = lr.qb1(A, k, seed=RngKey(75).substream(0))
    assert qb.Q.shape[1] == ref.Q.shape[1] == k
    assert (np.linalg.norm(qb.approximation() - ref.approximation())
            <= 1e-12 * np.linalg.norm(ref.approximation()))


@pytest.mark.parametrize("tol", [0.0, 1e-3])
def test_qb2_rank_budget_above_n_returns_rank_n(tol):
    A = np.random.default_rng(76).standard_normal((60, 12))
    qb = lr.qb2(A, 30, tol=tol, seed=77)
    assert qb.Q.shape[1] == 12
    assert np.linalg.norm(A - qb.approximation()) <= 1e-12 * np.linalg.norm(A)


@pytest.mark.parametrize("seed", range(4))
def test_qb2_block_past_the_rank_budget_drops_its_noise(seed):
    # rank 12 with k 30: block 1 sketches a rank-2 residual near 3.5e-6,
    # whose rounding directions pass orth's relative cut, so it returns
    # more columns than the 12 - 10 left; they are noise and are dropped
    A, _, _ = factored(60, 12, np.logspace(0, -6, 12), seed=78)
    qb = lr.qb2(A, 30, tol=1e-9, block_size=10, seed=seed)
    assert qb.Q.shape[1] == 12
    assert np.linalg.norm(A - qb.approximation()) <= 1e-12 * np.linalg.norm(A)
    Q, B = _qb2_explicit(A, 30, 10, seed, 1e-9)
    assert np.linalg.norm(qb.approximation() - Q @ B) <= 1e-12 * np.linalg.norm(A)
    f = lr.svd1(A, 10, tol=1e-9, seed=seed)
    assert np.allclose(f.sigma, np.logspace(0, -6, 12)[:10], rtol=1e-8, atol=0)


@pytest.mark.parametrize("call", [
    lambda A: lr.svd1(A, 3, tol=1e-3),
    lambda A: lr.qb2(A, 8, tol=1e-3),
    lambda A: lr.qb2(A, 8, block_size=8)], ids=["svd1", "qb2_tol", "qb2_block"])
def test_blocks_wider_than_the_matrix_are_capped_by_the_rank_budget(call):
    # 20 x 5: blocks of min(k, 10) or 8 columns are wider than n = 5; each
    # block is capped at what is left of min(k, m, n)
    A = np.random.default_rng(81).standard_normal((20, 5))
    out = call(A)
    if isinstance(out, lr.SVDFactors):
        assert out.sigma.shape == (3,)
        assert np.allclose(out.sigma, np.linalg.svd(A, compute_uv=False)[:3],
                           rtol=1e-12, atol=0)
    else:
        assert out.Q.shape == (20, 5)
        assert np.linalg.norm(A - out.approximation()) <= 1e-13 * np.linalg.norm(A)


@pytest.mark.parametrize("sig", [np.ones(12), np.logspace(0, -3, 12)],
                         ids=["flat", "decaying"])
@pytest.mark.parametrize("block_size", [None, 4, 10])
def test_qb2_appends_no_rounding_noise_past_the_rank(sig, block_size):
    # rank 12 and k 30 at tol 0: once Q spans range(A), the next block
    # sketches rounding noise of A - Q B, which must not be appended
    A, _, _ = factored(80, 50, sig, seed=1)
    for s in range(6):
        qb = lr.qb2(A, 30, block_size=block_size, seed=s)
        assert qb.Q.shape[1] == 12
        assert np.linalg.norm(qb.B, axis=1).min() > 1e-6
        assert (np.linalg.norm(A - qb.approximation())
                <= 1e-13 * np.linalg.norm(A))


@pytest.mark.parametrize("seed", range(6))
def test_qb2_at_tol_zero_does_not_stop_on_the_cancelling_tracked_error(seed):
    # sigma down to 1e-12: once the residual falls below sqrt(eps) ||A||_F,
    # ||A||_F^2 - sum ||B_i||_F^2 cancels and can reach 0 with sigma_18 of A
    # still left; at tol 0 only the rank budget and the noise rows stop
    A, _, _ = factored(25, 30, np.logspace(0, -12, 25))
    qb = lr.qb2(A, 25, block_size=1, power_passes=4, seed=seed)
    assert qb.Q.shape[1] == 25
    assert (np.linalg.norm(A - qb.approximation())
            <= 1e-14 * np.linalg.norm(A))


def test_qb2_tracked_error_matches_direct_after_many_blocks():
    A, _, _ = factored(120, 80, np.arange(1, 81.0) ** -1.0, seed=78)
    anorm = np.linalg.norm(A)
    qb = lr.qb2(A, 60, tol=0.1, block_size=2, seed=79)
    assert qb.Q.shape[1] > 8 * 2  # more than 8 blocks ran
    direct = np.linalg.norm(A - qb.approximation())
    tracked = np.sqrt(anorm ** 2 - np.linalg.norm(qb.B) ** 2)
    assert abs(tracked - direct) <= 1e-10 * direct
    assert direct <= 0.1 * anorm
    # and the tracker stopped at the first block that met tol
    Bprev = qb.B[:-2]
    assert np.sqrt(anorm ** 2 - np.linalg.norm(Bprev) ** 2) > 0.1 * anorm


def test_qb3_matches_qb2_error():
    # on a well-conditioned (cleanly decaying) spectrum both methods settle
    # on the dominant subspace, so their errors agree tightly at equal rank
    A, _, _ = factored(50, 35, np.logspace(0, -6, 15), seed=20)
    qb2f = lr.qb2(A, 9, tol=0.0, block_size=3, seed=21)
    qb3f = lr.qb3(A, 9, tol=0.0, block_size=3, seed=21)
    e2 = np.linalg.norm(A - qb2f.approximation(), "fro")
    e3 = np.linalg.norm(A - qb3f.approximation(), "fro")
    assert abs(e3 - e2) <= 1e-4 * np.linalg.norm(A, "fro")


def test_qb3_low_rank_error_tracker():
    A, _, _ = factored(40, 30, [6, 5, 4], seed=22)
    qb = lr.qb3(A, 6, tol=0.0, block_size=3, seed=23)
    tracked = np.linalg.norm(A, "fro") ** 2 - np.linalg.norm(qb.B, "fro") ** 2
    assert tracked <= 1e-6 * np.linalg.norm(A, "fro") ** 2


def test_qb3_pass_efficiency():
    A = np.random.default_rng(24).standard_normal((30, 22)).view(CountingMatrix)
    CountingMatrix.count = 0
    lr.qb3(A, 8, tol=0.0, block_size=3, seed=25, power_passes=0)
    assert CountingMatrix.count == 2  # one product with A, one with A^T


def test_qb3_rejects_full_rank_request():
    with pytest.raises(ValueError):
        lr.qb3(np.eye(8), 8, seed=0)


def test_qb3_b_consistency_moderate():
    A, _, _ = factored(45, 30, np.logspace(0, -2, 12), seed=26)
    qb = lr.qb3(A, 8, tol=0.0, block_size=4, seed=27)
    rel = np.linalg.norm(qb.B - qb.Q.T @ A) / np.linalg.norm(A)
    assert rel <= 1e-6


def test_qb3_factors_through_the_detkernels_seam(monkeypatch):
    # two Householder QRs per block, both through dk.qr_econ
    calls = []
    qr_econ = dk.qr_econ

    def counting_qr_econ(Y):
        calls.append(Y.shape)
        return qr_econ(Y)

    monkeypatch.setattr(dk, "qr_econ", counting_qr_econ)
    lr.qb3(_POWER_LAW, 8, block_size=3, seed=88)
    assert calls == [(300, 3), (300, 3)] * 2 + [(300, 2), (300, 2)]


# ---------------------------------------------------------------------------
# SVD / EVD drivers
# ---------------------------------------------------------------------------

def test_svd1_accuracy_on_constructed_factors():
    sig = [10.0, 5.0, 1.0, 0.1, 0.05, 0.01]
    A, _, _ = factored(80, 50, sig, seed=28)
    out = lr.svd1(A, 2, s=2, seed=29, power_passes=2)
    assert np.all(np.abs(out.sigma - [10.0, 5.0]) / np.array([10.0, 5.0]) <= 0.05)


def test_svd1_exact_on_low_rank():
    A, _, _ = factored(40, 30, [3, 2, 1], seed=30)
    out = lr.svd1(A, 3, s=2, seed=31)
    assert np.linalg.norm(A - out.approximation()) <= 1e-8 * np.linalg.norm(A)


def test_svd1_rank_cap():
    A, _, _ = factored(40, 30, np.logspace(0, -1, 10), seed=32)
    out = lr.svd1(A, 4, s=5, seed=33)
    assert out.sigma.size <= 4
    assert out.U.shape[1] <= 4 and out.V.shape[1] <= 4


def test_evd1_diagonal_oracle():
    lam = np.array([5.0, -4.0, 0.1, 0.05, 0.01, 0.005])
    r = np.random.default_rng(34)
    V = np.linalg.qr(r.standard_normal((40, 40)))[0][:, :6]
    A = (V * lam) @ V.T
    out = lr.evd1(A, 2, s=3, seed=35)
    assert np.allclose(out.lam, [5.0, -4.0], rtol=0.05)
    assert abs(out.lam[0]) >= abs(out.lam[1])


def test_evd1_exact_psd_low_rank():
    r = np.random.default_rng(36)
    V = np.linalg.qr(r.standard_normal((30, 3)))[0]
    A = (V * [4.0, 2.0, 1.0]) @ V.T
    out = lr.evd1(A, 3, s=3, seed=37)
    assert np.linalg.norm(A - out.approximation()) <= 1e-8 * np.linalg.norm(A)


def test_evd1_rejects_nonhermitian():
    with pytest.raises(ValueError):
        lr.evd1(np.triu(np.ones((4, 4))), 2, seed=0)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("driver", [
    lambda A, k: lr.qb1(A, k),
    lambda A, k: lr.qb2(A, k),
    lambda A, k: lr.qb2(A, k, tol=0.1),
    lambda A, k: lr.qb3(A, k),
    lambda A, k: lr.svd1(A, k),
    lambda A, k: lr.evd1(A, k),
    lambda A, k: lr.evd2(A, k),
    lambda A, k: lr.osid1(A, k),
    lambda A, k: lr.osid1(A, k, axis="row"),
    lambda A, k: lr.osid_qrcp(A, k),
    lambda A, k: lr.rocs1(A, k),
    lambda A, k: lr.curd1(A, k),
], ids=["qb1", "qb2", "qb2_tol", "qb3", "svd1", "evd1", "evd2", "osid1",
        "osid1_row", "osid_qrcp", "rocs1", "curd1"])
def test_drivers_reject_nonpositive_rank(driver, k):
    r = np.random.default_rng(80).standard_normal((20, 20))
    with pytest.raises(ValueError, match="k"):
        driver(r @ r.T, k)


def test_evd2_constructed_oracle():
    lam = np.array([1.0, 0.5] + [1e-12] * 10)
    r = np.random.default_rng(38)
    V = np.linalg.qr(r.standard_normal((50, 12)))[0]
    A = (V * lam) @ V.T
    out = lr.evd2(A, 2, s=3, seed=39)
    assert np.allclose(out.lam, [1.0, 0.5], rtol=0.01)


def test_evd2_zero_matrix():
    out = lr.evd2(np.zeros((8, 8)), 3, s=2, seed=40)
    assert out.lam.size == 0
    assert out.V.shape == (8, 0)


def test_evd2_nystrom_dominance():
    # the Nystrom approximation never exceeds A as an operator
    r = np.random.default_rng(41)
    for trial in range(10):
        G0 = r.standard_normal((30, 30))
        A = G0 @ G0.T / 30
        out = lr.evd2(A, 6, s=4, seed=trial, power_passes=1)
        gap = np.linalg.eigvalsh(A - out.approximation()).min()
        assert gap >= -1e-8 * np.linalg.norm(A, 2)


def _evd2_cores(A, k, s, seed, tries):
    """The shifted cores S^T (Y + nu S) that evd2's first ``tries``
    Cholesky attempts factor: nu, then 10 nu, 100 nu, ..."""
    S = lr.tsog1(A, k + s, p=2, seed=seed)
    Y = lr._times(A, S)
    nu = np.sqrt(A.shape[0]) * lr._EPS * dk.norm2(Y)
    cores = []
    for _ in range(tries):
        cores.append(S.T @ (Y + nu * S))
        nu *= 10.0
    return cores


def _psd_power_law(n, seed):
    r = np.random.default_rng(seed)
    V = np.linalg.qr(r.standard_normal((n, n)))[0]
    return (V * np.arange(1.0, n + 1) ** -2.0) @ V.T


def test_evd2_escalates_the_shift_tenfold_after_a_cholesky_failure(
        monkeypatch):
    A = _psd_power_law(60, 44)
    ref = lr.evd2(A, 6, s=4, seed=45)
    real, seen = dk.chol, []

    def fails_once(G):
        seen.append(G)
        if len(seen) == 1:
            raise dk.CholeskyError(1)
        return real(G)

    monkeypatch.setattr(dk, "chol", fails_once)
    out = lr.evd2(A, 6, s=4, seed=45)
    assert len(seen) == 2
    for got, want in zip(seen, _evd2_cores(A, 6, 4, 45, 2)):
        assert np.array_equal(got, want)
    # still a valid decomposition: orthonormal V, and the eigenvalues of
    # the unfailed call up to the larger shift
    assert np.abs(out.V.T @ out.V - np.eye(6)).max() <= 1e-13
    assert np.allclose(out.lam, ref.lam, rtol=1e-10)
    assert np.allclose(out.lam, np.arange(1.0, 7) ** -2.0, rtol=1e-2)


def test_evd2_raises_after_four_cholesky_failures(monkeypatch):
    A = _psd_power_law(60, 46)
    seen = []

    def always_fails(G):
        seen.append(G)
        raise dk.CholeskyError(1)

    monkeypatch.setattr(dk, "chol", always_fails)
    with pytest.raises(dk.CholeskyError):
        lr.evd2(A, 6, s=4, seed=47)
    assert len(seen) == 4
    for got, want in zip(seen, _evd2_cores(A, 6, 4, 47, 4)):
        assert np.array_equal(got, want)


def test_evd2_eigenvalues_nonnegative():
    r = np.random.default_rng(42)
    G0 = r.standard_normal((25, 25))
    A = G0 @ G0.T / 25
    out = lr.evd2(A, 5, s=3, seed=43)
    assert np.all(out.lam >= 0)
    assert out.clamped == 0


# ---------------------------------------------------------------------------
# one-sided ID / subset selection / CUR
# ---------------------------------------------------------------------------

def test_osid_qrcp_prepivoted():
    W = np.random.default_rng(44).standard_normal((3, 5))
    Y = np.hstack([np.eye(3), W])
    oid = lr.osid_qrcp(Y, 3, axis="column")
    assert np.array_equal(oid.M[:, oid.skeleton], np.eye(3))
    assert np.linalg.norm(Y - oid.approximate(Y)) <= 1e-12


def test_osid_qrcp_exact_rank():
    A, _, _ = factored(4, 8, [3, 2, 1], seed=45)
    oid = lr.osid_qrcp(A, 3, axis="column")
    assert np.linalg.norm(A - oid.approximate(A)) <= 1e-8 * np.linalg.norm(A)


def test_osid_qrcp_truncation_error_matches_qrcp_tail():
    # reconstruction error equals || F2 T2 || from the truncated QRCP
    from randla import detkernels as dk
    Y = np.random.default_rng(46).standard_normal((4, 8))
    k = 3
    oid = lr.osid_qrcp(Y, k, axis="column")
    R, J = dk.qrcp(Y)
    tail = np.linalg.norm(R[k:, :], "fro")  # Q is orthogonal
    err = np.linalg.norm(Y - oid.approximate(Y), "fro")
    assert abs(err - tail) <= 1e-10 * max(tail, 1e-12)


def test_osid_qrcp_rank_reduction_warns():
    Y = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0))
    with pytest.warns(RuntimeWarning):
        oid = lr.osid_qrcp(Y, 3, axis="column")
    assert oid.skeleton.size == 1


def test_osid_qrcp_on_a_zero_panel_warns_and_returns_an_empty_skeleton():
    with pytest.warns(RuntimeWarning, match="rank of leading triangle is 0"):
        oid = lr.osid_qrcp(np.zeros((10, 6)), 3)
    assert oid.skeleton.size == 0 and oid.M.shape == (0, 6)


@pytest.mark.parametrize("tol", [0.0, 1e-3])
def test_qb2_and_svd1_on_a_zero_matrix_return_no_columns(tol):
    A = np.zeros((30, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qb = lr.qb2(A, 5, tol=tol, seed=1)
        svd = lr.svd1(A, 5, tol=tol, seed=1)
    assert qb.Q.shape == (30, 0) and qb.B.shape == (0, 20)
    assert svd.U.shape == (30, 0) and svd.sigma.size == 0
    assert svd.V.shape == (20, 0)


def test_osid1_exact_on_low_rank():
    A, _, _ = factored(60, 40, [5, 3, 1], seed=47)
    for axis in ("column", "row"):
        oid = lr.osid1(A, 3, s=5, axis=axis, seed=48, power_passes=1)
        assert np.linalg.norm(A - oid.approximate(A)) <= 1e-8 * np.linalg.norm(A)
        if axis == "column":
            assert np.array_equal(oid.M[:, oid.skeleton], np.eye(3))
        else:
            assert np.array_equal(oid.M[oid.skeleton, :], np.eye(3))


def test_osid1_interpolation_bound():
    # || A - A[:, J] X ||_2 <= (1 + ||X||_2) || A - (A Y^+) Y ||_2 holds
    # deterministically when (X, J) is a full-rank ID of the sketch Y
    # (s = 0), which is the instantiation the chain argument covers
    for seed in range(10):
        A, _, _ = factored(50, 35, np.logspace(0, -2, 12), seed=seed)
        k = 5
        oid = lr.osid1(A, k, s=0, axis="column", seed=RngKey(seed),
                       power_passes=2)
        S = lr.tsog1(A.T, k, p=2, seed=RngKey(seed))
        Y = S.T @ A
        lhs = np.linalg.norm(A - A[:, oid.skeleton] @ oid.M, 2)
        proj = A @ np.linalg.pinv(Y) @ Y
        eps_y = np.linalg.norm(A - proj, 2)
        rhs = (1 + np.linalg.norm(oid.M, 2)) * eps_y
        sig = np.linalg.svd(A, compute_uv=False)
        assert (1 - 1e-8) * sig[k] <= lhs <= rhs * (1 + 1e-10)


def test_rocs1_dominant_column():
    r = np.random.default_rng(49)
    for seed in range(20):
        A = r.standard_normal((30, 12))
        A[:, 7] *= 1e3
        sel = lr.rocs1(A, 3, s=3, axis="column", seed=seed)
        assert sel[0] == 7
    assert np.array_equal(lr.rocs1(A, 3, s=3, axis="column", seed=5),
                          lr.rocs1(A, 3, s=3, axis="column", seed=5))


def test_rocs1_full_selection_distinct():
    A = np.random.default_rng(50).standard_normal((40, 8))
    sel = lr.rocs1(A, 8, s=0, axis="column", seed=51)
    assert sorted(sel) == list(range(8))


def test_curd1_exact_on_low_rank_both_orientations():
    A, _, _ = factored(50, 30, [4, 2, 1], seed=52)
    for M in (A, A.T):
        cur = lr.curd1(M, 3, s=4, seed=53)
        rel = np.linalg.norm(M - cur.approximate(M)) / np.linalg.norm(M)
        assert rel <= 1e-6
        assert cur.I.size == cur.J.size == 3


def test_curd1_step_spectrum_vs_svd():
    sig = [10.0] * 3 + [0.5] * 12
    hits = 0
    for seed in range(20):
        A, _, _ = factored(60, 40, sig, seed=200 + seed)
        cur = lr.curd1(A, 3, s=5, seed=seed, power_passes=2)
        err = np.linalg.norm(A - cur.approximate(A), "fro")
        opt = np.sqrt(np.sum(np.array(sig)[3:] ** 2))
        hits += err <= 10 * opt
    assert hits >= 18


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

def test_spectral_bound_zero():
    assert lr.spectral_bound(np.zeros((5, 5)), 5, r=4, beta=2.0, seed=1) == 0.0


def test_spectral_bound_homogeneous():
    A = np.random.default_rng(54).standard_normal((10, 10))
    b1 = lr.spectral_bound(A, 10, r=6, beta=2.0, seed=2)
    b2 = lr.spectral_bound(2 * A, 10, r=6, beta=2.0, seed=2)
    assert np.isclose(b2, 2 * b1)


def test_spectral_bound_validity_monte_carlo():
    # bound >= ||A||_2 with probability >= 1 - beta^{-r} (~0.999 here)
    n, r, beta = 20, 10, 2.0
    fails = sum(
        lr.spectral_bound(np.eye(n), n, r=r, beta=beta, seed=seed) < 1.0
        for seed in range(1000)
    )
    assert fails <= 5  # expected ~1


def test_frob_estimate_identity():
    n = 30
    est = lr.frob_estimate(np.eye(n), n, r=500, seed=3)
    assert abs(est - n) <= 4 * np.sqrt(2.0 / 500) * n


def test_frob_estimate_unbiased_within_variance_bound():
    r0 = np.random.default_rng(55)
    A = r0.standard_normal((15, 15))
    fro2 = np.linalg.norm(A, "fro") ** 2
    spec2 = np.linalg.norm(A, 2) ** 2
    reps, r = 2000, 4
    vals = np.array([lr.frob_estimate(A, 15, r=r, seed=seed)
                     for seed in range(reps)])
    sigma = np.sqrt(2.0 / r * spec2 * fro2)
    assert abs(vals.mean() - fro2) <= 3 * sigma / np.sqrt(reps)


def test_frob_estimate_rank_one_expansion():
    # for A = u v^T the estimate is ||u||^2 (1/r) sum (v z_i)^2
    from randla import rng as _rng
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, -0.5, 1.0, 0.25])
    A = np.outer(u, v)
    r, seed = 6, RngKey(9)
    est = lr.frob_estimate(A, 4, r=r, seed=seed)
    stride = _rng.gaussian_counters_used(4)
    total = 0.0
    for j in range(r):
        z = _rng.gaussian_stream(seed.advance(j * stride), 4)
        total += (v @ z) ** 2
    assert np.isclose(est, (u @ u) * total / r)


# Operators whose products with a probe block are exact, or summed in one
# fixed order, so that the estimates hash alike on any BLAS: a diagonal of
# powers of two, a wide matrix with one power of two per row, and a running
# sum down the columns.
_NORM_OPERATORS = {
    "diagonal": lambda n: np.diag(2.0 ** -(np.arange(n) % 5)),
    "selection": lambda n: np.eye(n)[(7 * np.arange(n + 9)) % n] * 4.0,
    "cumsum": lambda n: lambda Z: np.cumsum(Z, axis=0),
}

NORM_GOLDEN = {
    ("spectral_bound", "diagonal"): "c79f7166f19420d9",
    ("spectral_bound", "selection"): "d2573a7fbb549c7e",
    ("spectral_bound", "cumsum"): "5dfc9c1807cf342a",
    ("frob_estimate", "diagonal"): "e15bc698cffb323c",
    ("frob_estimate", "selection"): "e3eb3e18d65c61f3",
    ("frob_estimate", "cumsum"): "04a650e4b6e11e03",
}


@pytest.mark.parametrize("case", NORM_GOLDEN, ids="-".join)
def test_norm_estimates_match_golden_digests(case):
    # odd and even n, r of 1, 6 and 11 probes, v2 and v1 keys
    estimate, operator = getattr(lr, case[0]), _NORM_OPERATORS[case[1]]
    values = [estimate(operator(n), n, r=r, seed=key)
              for n in (49, 50) for r in (1, 6, 11)
              for key in (RngKey(21, 5), RngKey(21, 5, version=1))]
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()[:16]
    assert digest == NORM_GOLDEN[case]


@pytest.mark.parametrize("seed", [RngKey(21, 5), RngKey(21, 5, version=1)],
                         ids=["v2", "v1"])
@pytest.mark.parametrize("n", [49, 50])
def test_norm_estimates_read_the_per_key_probes(n, seed):
    # probe j is the stream at seed.advance(j * stride), bitwise
    from randla import rng as _rng
    r, stride = 13, _rng.gaussian_counters_used(n)
    Z = _rng.stream_block([seed.advance(j * stride) for j in range(r)], n,
                          "gaussian")
    norms = np.linalg.norm(np.cumsum(Z, axis=0), axis=0)
    blocks = []

    def cumsum(block):
        blocks.append(block.copy())
        return np.cumsum(block, axis=0)

    assert lr.spectral_bound(cumsum, n, r=r, seed=seed) == (
        2.0 * np.sqrt(2.0 / np.pi) * max(0.0, *norms))
    assert lr.frob_estimate(cumsum, n, r=r, seed=seed) == (
        float(sum(norms ** 2)) / r)
    assert len(blocks) == 2
    assert all(np.array_equal(block, Z) for block in blocks)


# ---------------------------------------------------------------------------
# product layout
# ---------------------------------------------------------------------------

_RECT = factored(40, 30, np.logspace(0, -4, 30), seed=64)[0]
_PSD = _RECT.T @ _RECT


@pytest.mark.parametrize("A, driver", [
    (_RECT, lambda A: lr.svd1(A, 4, seed=65)),
    (_RECT, lambda A: lr.qb2(A, 20, tol=1e-2, block_size=3, seed=66)),
    (_RECT, lambda A: lr.qb3(A, 8, block_size=3, seed=67)),
    (_PSD, lambda A: lr.evd2(A, 4, seed=68)),
    (_RECT, lambda A: lr.osid1(A, 4, axis="column", seed=69)),
    (_RECT, lambda A: lr.osid1(A, 4, axis="row", seed=70)),
    (_RECT, lambda A: lr.rocs1(A, 4, axis="column", seed=71)),
    (_RECT, lambda A: lr.rocs1(A, 4, axis="row", seed=72)),
    (_RECT, lambda A: lr.curd1(A, 4, seed=73)),
    (_RECT.T, lambda A: lr.curd1(A, 4, seed=74)),
], ids=["svd1", "qb2", "qb3", "evd2", "osid1_column", "osid1_row",
        "rocs1_column", "rocs1_row", "curd1_tall", "curd1_wide"])
def test_drivers_put_a_on_the_right_of_every_product(A, driver):
    # OpenBLAS streams a large right-hand operand faster, so every product
    # of A or A^T with a skinny block is laid out with A on the right
    A = np.ascontiguousarray(A).view(CountingMatrix)
    CountingMatrix.sides = []
    driver(A)
    full = [side for side, shape in CountingMatrix.sides
            if shape in (A.shape, A.shape[::-1])]
    assert full and set(full) == {"right"}, CountingMatrix.sides


def test_qb2_makes_two_products_with_a_per_block():
    # B_i rides on block i+1's first product with A^T and block i+1's start
    # on block i's product with A: 4 blocks take 10 products, not 16
    A = np.ascontiguousarray(_RECT).view(CountingMatrix)
    CountingMatrix.count = 0
    qb = lr.qb2(A, 12, block_size=3, seed=80)
    assert qb.Q.shape[1] == 12
    assert CountingMatrix.count <= 2 * 4 + 2


# ---------------------------------------------------------------------------
# optimality floor
# ---------------------------------------------------------------------------

def test_no_driver_beats_eckart_young():
    sig = np.logspace(0, -2, 10)
    A, _, _ = factored(50, 40, sig, seed=59)
    k = 4
    opt = np.sqrt(np.sum(sig[k:] ** 2))
    for make in (
        lambda: lr.svd1(A, k, s=3, seed=60).approximation(),
        lambda: lr.qb2(A, k, block_size=2, seed=61).approximation(),
        lambda: lr.osid1(A, k, s=3, seed=62).approximate(A),
        lambda: lr.curd1(A, k, s=3, seed=63).approximate(A),
    ):
        err = np.linalg.norm(A - make(), "fro")
        assert err >= (1 - 1e-8) * opt


def test_probe_norms_apply_one_block_of_the_existing_probes():
    # the r probes keep their counter layout seed.advance(j * stride), are
    # drawn as one block and meet A (rectangular here) in one call
    from randla import rng as _rng
    A = np.random.default_rng(56).standard_normal((30, 50))
    seed, r = RngKey(10, 7), 6
    blocks = []

    def apply_A(Z):
        blocks.append(Z.copy())
        return A @ Z

    norms = lr._probe_norms(apply_A, 50, r, seed)
    assert len(blocks) == 1 and blocks[0].shape == (50, r)
    stride = _rng.gaussian_counters_used(50)
    for j in range(r):
        z = _rng.gaussian_stream(seed.advance(j * stride), 50)
        assert np.array_equal(blocks[0][:, j], z)
        assert np.isclose(norms[j], np.linalg.norm(A @ z), rtol=1e-14)
