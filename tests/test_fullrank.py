import numpy as np
import pytest
import scipy.linalg as la

from randla import detkernels as dk, fullrank as fr, lowrank, sketching
from randla.rng import RngKey


def tall(cond, m, n, rank=None, seed=0):
    r = np.random.default_rng(seed)
    rank = rank or n
    U = np.linalg.qr(r.standard_normal((m, rank)))[0]
    V = np.linalg.qr(r.standard_normal((n, rank)))[0]
    s = np.logspace(0, np.log10(cond), rank)[::-1]
    return (U * s) @ V.T


def sin_principal_angle(Q1, Q2):
    return np.linalg.norm(Q2 - Q1 @ (Q1.T @ Q2), 2)


# ---------------------------------------------------------------------------
# chol_qr
# ---------------------------------------------------------------------------

def test_chol_qr_orthonormal_input():
    A = np.linalg.qr(np.random.default_rng(0).standard_normal((30, 5)))[0]
    Q, R = fr.chol_qr(A)
    assert np.abs(R - np.eye(5)).max() < 1e-12
    assert np.abs(Q - A).max() < 1e-12


def test_chol_qr_hand_gram():
    A = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    Q, R = fr.chol_qr(A)
    assert np.allclose(R, np.diag([2.0, 3.0]))
    assert np.allclose(Q, A / np.array([2.0, 3.0]))


def test_chol_qr_breaks_at_high_condition():
    # documented failure mode: either Cholesky fails outright or the
    # computed factor is far from orthonormal
    A = tall(1e10, 500, 30, seed=1)
    try:
        Q, _ = fr.chol_qr(A)
        assert np.abs(Q.T @ Q - np.eye(30)).max() > 1e-4
    except dk.CholeskyError as err:
        assert err.pivot >= 1


# ---------------------------------------------------------------------------
# rand_chol_qr
# ---------------------------------------------------------------------------

def test_rand_chol_qr_stable_at_high_condition():
    A = tall(1e10, 4000, 50, seed=2)
    Q, R = fr.rand_chol_qr(A, 200, seed=3)
    assert np.abs(Q.T @ Q - np.eye(50)).max() <= 1e-12
    assert np.linalg.norm(A - Q @ R) <= 1e-10 * np.linalg.norm(A)


def test_rand_chol_qr_orthonormal_input():
    A = np.linalg.qr(np.random.default_rng(4).standard_normal((300, 8)))[0]
    Q, R = fr.rand_chol_qr(A, 32, seed=5)
    assert np.linalg.norm(A - Q @ R) <= 1e-12 * np.linalg.norm(A)


def test_rand_chol_qr_range_invariance():
    A = tall(1e6, 1000, 20, seed=6)
    Q, _ = fr.rand_chol_qr(A, 80, seed=7)
    U = lowrank.orth(A)
    assert sin_principal_angle(Q, U) <= 1e-10


def test_rand_chol_qr_rank_loss_raises():
    A = tall(100, 200, 10, rank=7, seed=8)
    with pytest.raises(np.linalg.LinAlgError):
        fr.rand_chol_qr(A, 40, seed=9)


# ---------------------------------------------------------------------------
# sap_chol_qrcp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
@pytest.mark.parametrize("deficiency", [0, 3])
def test_sap_chol_qrcp_exactness(cond, deficiency):
    n = 50
    A = tall(cond, 2000, n, rank=n - deficiency, seed=int(np.log10(cond)))
    res = fr.sap_chol_qrcp(A, seed=11)
    assert res.rank == n - deficiency
    recon = np.linalg.norm(A[:, res.J] - res.Q @ res.R) / np.linalg.norm(A)
    assert recon <= 1e-10
    assert np.abs(res.Q.T @ res.Q - np.eye(res.rank)).max() <= 1e-10


def test_sap_chol_qrcp_preconditioned_singular_values():
    # reciprocal identity: the singular values of the preconditioned panel
    # are the reciprocals of those of S U
    n, d = 40, 160
    A = tall(1e6, 1500, n, seed=12)
    res = fr.sap_chol_qrcp(A, d=d, seed=13, op_family="gaussian")
    k = res.rank
    A_pre = dk.solve_triangular(res.sketch_r[:k, :k], A[:, res.J[:k]].T,
                                trans="T").T
    S = sketching.sample_operator("gaussian", d, 1500, RngKey(13))
    U = lowrank.orth(A)
    sv_pre = np.sort(np.linalg.svd(A_pre, compute_uv=False))
    sv_su = np.sort(1.0 / np.linalg.svd(S.apply(U), compute_uv=False))
    assert np.abs(sv_pre - sv_su).max() <= 1e-8 * sv_su.max()


def test_sap_chol_qrcp_rank_one():
    v = np.random.default_rng(14).standard_normal(8)
    A = np.outer(np.eye(30)[:, 0], v)
    res = fr.sap_chol_qrcp(A, d=8, seed=15)
    assert res.rank == 1
    assert res.J[0] == np.argmax(np.abs(v))
    recon = np.linalg.norm(A[:, res.J] - res.Q @ res.R)
    assert recon <= 1e-12 * np.linalg.norm(A)


def test_sap_chol_qrcp_pivot_monotonicity():
    A = tall(1e4, 800, 25, seed=16)
    res = fr.sap_chol_qrcp(A, seed=17)
    diag = np.abs(np.diag(res.sketch_r))
    assert np.all(diag[:-1] >= diag[1:] - 1e-12)


def test_sap_chol_qrcp_conditioning_independence():
    # cond(A_pre) stays O(1) across wildly different cond(A)
    n, d = 30, 120
    for cond in (1e2, 1e6, 1e10):
        A = tall(cond, 1200, n, seed=18)
        res = fr.sap_chol_qrcp(A, d=d, seed=19, op_family="gaussian")
        k = res.rank
        A_pre = dk.solve_triangular(res.sketch_r[:k, :k], A[:, res.J[:k]].T,
                                    trans="T").T
        assert np.linalg.cond(A_pre) <= 10.0


def test_sap_chol_qrcp_zero_matrix():
    res = fr.sap_chol_qrcp(np.zeros((50, 4)), d=8, seed=20)
    assert res.rank == 0
    assert res.Q.shape == (50, 0)


def test_sap_chol_qrcp_retry_rebuilds_the_panel(monkeypatch):
    # a Cholesky failure at pivot p cuts the rank to p - 1 and refactors the
    # leading p - 1 pivoted columns on their own
    A = tall(1e4, 600, 12, seed=21)
    chol, calls = dk.chol, []

    def fail_once(G):
        calls.append(G.shape[0])
        if len(calls) == 1:
            raise dk.CholeskyError(9)
        return chol(G)

    monkeypatch.setattr(dk, "chol", fail_once)
    res = fr.sap_chol_qrcp(A, seed=22)
    assert calls == [12, 8] and res.rank == 8
    assert res.Q.shape == (600, 8) and res.R.shape == (8, 12)
    assert np.abs(res.Q.T @ res.Q - np.eye(8)).max() <= 1e-13
    lead = A[:, res.J[:8]]
    assert np.linalg.norm(lead - res.Q @ res.R[:, :8]) <= (
        1e-13 * np.linalg.norm(lead))


# ---------------------------------------------------------------------------
# one BLAS runtime and the accuracy of applying R^{-1} as a GEMM
# ---------------------------------------------------------------------------

def test_fullrank_stays_off_scipy_solves(monkeypatch):
    # R^{-1} is applied as a GEMM with numpy's inverse, chol names its
    # pivot and the sketch's pivoted QR runs, all without scipy
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} was called")
        return call

    monkeypatch.setattr(la, "solve_triangular", forbidden("solve_triangular"))
    monkeypatch.setattr(la, "qr", forbidden("qr"))
    for name in ("dpotrf", "dgeqp3", "dtrtrs"):
        monkeypatch.setattr(la.lapack, name, forbidden(f"lapack.{name}"))
    A = tall(1e6, 800, 20, seed=23)
    fr.chol_qr(tall(1e2, 800, 20, seed=24))
    fr.rand_chol_qr(A, seed=25)
    assert fr.sap_chol_qrcp(A, seed=26).rank == 20

    # a zero column: Cholesky fails at its pivot, the sketch loses rank,
    # and sap_chol_qrcp cuts the rank
    Z = A.copy()
    Z[:, 4] = 0.0
    with pytest.raises(dk.CholeskyError) as err:
        fr.chol_qr(Z)
    assert err.value.pivot == 5
    with pytest.raises(np.linalg.LinAlgError, match="sketch lost rank"):
        fr.rand_chol_qr(Z, seed=27)
    res = fr.sap_chol_qrcp(Z, seed=28)
    assert res.rank == 19 and 4 not in res.J[:19]
    res = fr.sap_chol_qrcp(tall(1e6, 800, 20, rank=16, seed=29), seed=30)
    assert res.rank == 16


def test_sketch_factorizations_never_form_q(monkeypatch):
    # every caller of the sketch's QR or QRCP reads only R and the pivots;
    # the low-rank drivers run without power steps, whose stabilizing QR
    # needs its Q
    A = tall(1e6, 800, 20, seed=75)
    np_qr = np.linalg.qr

    def np_r_only(M, mode="reduced"):
        if mode != "r":
            raise AssertionError(f"np.linalg.qr formed Q (mode={mode!r})")
        return np_qr(M, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", np_r_only)
    fr.rand_chol_qr(A, seed=76)
    assert fr.sap_chol_qrcp(A, seed=77).rank == 20
    for axis in ("column", "row"):
        lowrank.osid1(A, 5, axis=axis, seed=78, power_passes=0)
        lowrank.rocs1(A, 5, axis=axis, seed=79, power_passes=0)
    for B in (A, A.T):
        lowrank.curd1(B, 5, seed=80, power_passes=0)


def column_scaled(cond, m, n, seed=0):
    r = np.random.default_rng(seed)
    return r.standard_normal((m, n)) * np.logspace(0, -np.log10(cond), n)


@pytest.mark.parametrize("family", ["saso", "gaussian", "srft"])
def test_inverse_gemm_accuracy_sweep(family):
    # reconstruction and orthogonality stay at rounding level up to
    # cond 1e12, on rotated and on column-scaled inputs (worst seen about
    # 6e-15)
    m, n, d = 2000, 50, 200
    for i, cond in enumerate((1e2, 1e6, 1e10, 1e12)):
        for make in (tall, column_scaled):
            A = make(cond, m, n, seed=31 + i)
            normA = np.linalg.norm(A)
            Q, R = fr.rand_chol_qr(A, d, seed=40 + i, op_family=family)
            res = fr.sap_chol_qrcp(A, d, seed=50 + i, op_family=family)
            assert res.rank == n
            for B, Q, R in ((A, Q, R), (A[:, res.J], res.Q, res.R)):
                assert np.linalg.norm(B - Q @ R) <= 1e-13 * normA
                assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-13
