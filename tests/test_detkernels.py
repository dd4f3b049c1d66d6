import numpy as np
import pytest
import scipy.linalg as la

from randla import detkernels as dk, leastsq as ls, lowrank, trace
from randla.rng import RngKey


def make_conditioned(m, n, cond, seed=0):
    r = np.random.default_rng(seed)
    U = np.linalg.qr(r.standard_normal((m, n)))[0]
    V = np.linalg.qr(r.standard_normal((n, n)))[0]
    s = np.logspace(0, np.log10(cond), n)[::-1]
    return (U * s) @ V.T


# ---------------------------------------------------------------------------
# factorization seam
# ---------------------------------------------------------------------------

def test_qrcp_hand_oracle():
    # hand QR: only column 1 is nonzero with norm sqrt(5), so it pivots first
    A = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
    R, J = dk.qrcp(A)
    assert list(J) == [1, 0]
    assert R.shape == (2, 2) and R[1, 0] == 0.0
    assert np.isclose(abs(R[0, 0]), np.sqrt(5))
    # A[:, J] = Q R with Q orthonormal, so the Gram matrices agree
    assert np.linalg.norm(A[:, J].T @ A[:, J] - R.T @ R) < 1e-14


def test_qrcp_diagonal_nonincreasing():
    A = make_conditioned(40, 10, 1e4, seed=1)
    R, _ = dk.qrcp(A)
    d = np.abs(np.diag(R))
    assert np.all(d[:-1] >= d[1:] - 1e-12)


@pytest.mark.parametrize("shape, rank", [
    ((120, 10), 10), ((10, 120), 10), ((60, 20), 5), ((1200, 100), 100),
    ((55, 2000), 55), ((50, 4000), 50), ((1, 30), 1), ((30, 1), 1),
    ((20, 12), 0)],
    ids=["tall", "wide", "rank_deficient", "1200x100", "55x2000", "50x4000",
         "1xn", "mx1", "zero"])
def test_r_only_factors_match_the_economic_calls(shape, rank):
    # qr_r returns bitwise the R that the economic call returns alongside Q.
    # qrcp runs on numpy, so scipy's geqp3 is a reference to rounding: the
    # same pivots (past the rank they pick among rounding noise) and the
    # same leading rows of R up to their signs
    r = np.random.default_rng(3)
    A = r.standard_normal((shape[0], rank)) @ r.standard_normal((rank, shape[1]))
    assert np.array_equal(dk.qr_r(A), np.linalg.qr(A, mode="reduced")[1])
    _, R_ref, J_ref = la.qr(A, mode="economic", pivoting=True)
    R, J = dk.qrcp(A)
    assert R.shape == R_ref.shape == (min(shape), shape[1])
    assert np.array_equal(R, np.triu(R))
    full = rank == min(shape)
    assert np.array_equal(J, J_ref) if full else np.array_equal(J[:rank], J_ref[:rank])
    signs = np.sign(np.diag(R)[:rank] * np.diag(R_ref)[:rank])
    assert np.all(signs != 0)
    cols = slice(None) if full else slice(rank)
    lead, lead_ref = signs[:, None] * R[:rank, cols], R_ref[:rank, cols]
    assert np.abs(lead - lead_ref).max(initial=0.0) <= _tol(A)
    AJ = A[:, J]
    assert np.abs(AJ.T @ AJ - R.T @ R).max() <= _tol(A) * np.linalg.norm(A, 2)


def test_chol_identity():
    assert np.array_equal(dk.chol(np.eye(3)), np.eye(3))


def test_chol_failure_pivot(monkeypatch):
    # numpy's Cholesky alone names the pivot: scipy links another OpenBLAS
    # build, which may pass a pivot that numpy's rejects
    def dpotrf(*args, **kwargs):
        raise AssertionError("scipy.linalg.lapack.dpotrf was called")

    monkeypatch.setattr(la.lapack, "dpotrf", dpotrf)
    with pytest.raises(dk.CholeskyError) as err:
        dk.chol(np.diag([1.0, 4.0, -1.0]))
    assert err.value.pivot == 3
    # a negative diagonal entry at pivot p makes the Schur complement there
    # negative while the leading (p - 1) block stays positive definite
    n = 6
    X = np.random.default_rng(15).standard_normal((n, n))
    for p in (1, 2, n):
        G = X.T @ X + np.eye(n)
        G[p - 1, p - 1] = -1.0
        for A in (G, np.diag(np.diag(G))):
            with pytest.raises(dk.CholeskyError) as err:
                dk.chol(A)
            assert err.value.pivot == p


def test_svd_diagonal():
    U, s, V = dk.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3, 2, 1])
    assert np.allclose((U * s) @ V.T, np.diag([3.0, 2.0, 1.0]))


def test_reconstruction_residuals():
    A = make_conditioned(30, 8, 1e3, seed=2)
    Q, R = dk.qr_econ(A)
    assert np.linalg.norm(A - Q @ R) <= 1e-12 * np.linalg.norm(A)
    U, s, V = dk.svd(A)
    assert np.linalg.norm(A - (U * s) @ V.T) <= 1e-12 * np.linalg.norm(A)
    G = A.T @ A
    Rc = dk.chol(G)
    assert np.linalg.norm(G - Rc.T @ Rc) <= 1e-12 * np.linalg.norm(G)


def _nonfinite(value, shape, at):
    A = np.random.default_rng(16).standard_normal(shape)
    A = A.T @ A if shape[0] == shape[1] else A
    A[at] = A[at[::-1]] = value
    return A


NONFINITE = [np.nan, np.inf, -np.inf]


def solve_triangular_lhs(A):
    """dk.solve_triangular with A's leading square block as the triangle."""
    n = A.shape[1]
    return dk.solve_triangular(A[:n], np.ones(n))


def solve_triangular_rhs(A):
    """dk.solve_triangular with A as the right-hand side."""
    return dk.solve_triangular(np.eye(A.shape[0]), A)


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("factor", [
    dk.qr_econ, dk.svd, dk.eigh, ls.make_precond_qr, ls.make_precond_svd,
    dk.qr_r, dk.qrcp, solve_triangular_lhs, solve_triangular_rhs])
def test_nonfinite_input_raises_value_error(factor, value):
    shape = (5, 5) if factor is dk.eigh else (7, 4)
    for at in ((0, 0), (3, 1), (1, 3)):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            factor(_nonfinite(value, shape, at))


@pytest.mark.parametrize("value", NONFINITE)
def test_nonfinite_input_fails_chol_at_its_pivot(value):
    # Cholesky reads the upper triangle; the first pivot that meets the
    # non-finite entry is not a positive finite number, and chol names it.
    # OpenBLAS's dpotrf itself reports success on a NaN pivot.
    for at, pivot in (((0, 0), 1), ((2, 2), 3), ((1, 3), 4)):
        with pytest.raises(dk.CholeskyError) as err:
            dk.chol(_nonfinite(value, (5, 5), at) + 10.0 * np.eye(5))
        assert err.value.pivot == pivot
    with pytest.raises(dk.CholeskyError) as err:
        dk.chol(np.array([[1.0, value], [value, 1.0]]))
    assert err.value.pivot == 2


def _parity_inputs():
    r = np.random.default_rng(17)
    rank5 = r.standard_normal((30, 5)) @ r.standard_normal((5, 8))
    return {"tall": r.standard_normal((30, 8)),
            "wide": r.standard_normal((8, 30)),
            "square": r.standard_normal((12, 12)),
            "1x1": np.array([[-2.5]]),
            "rank-deficient": rank5}


PARITY = _parity_inputs()


def _tol(A):
    """Backward-stable rounding level: max(m, n) ulp of ||A||_2."""
    return max(A.shape) * np.finfo(float).eps * np.linalg.norm(A, 2)


@pytest.mark.parametrize("name", PARITY)
def test_svd_and_eigh_match_scipy(name):
    A = PARITY[name]
    _, s, _ = dk.svd(A)
    assert np.abs(s - la.svd(A, compute_uv=False)).max() <= _tol(A)
    for G in (A.T @ A, A @ A.T):
        # syevd (numpy) and syevr (scipy) agree to O(n eps ||G||), not ulp
        lam, V = dk.eigh(G)
        assert np.abs(lam - la.eigh(G)[0]).max() <= 4 * _tol(G)
        assert np.linalg.norm(G @ V - V * lam) <= _tol(G) * G.shape[0]


@pytest.mark.parametrize("name", PARITY)
def test_qr_and_chol_match_scipy(name):
    A = PARITY[name]
    _, R = dk.qr_econ(A)
    _, R_ref = la.qr(A, mode="economic")
    assert np.abs(R - R_ref).max() <= _tol(A)
    clear = np.abs(np.diag(R_ref)) > _tol(A)  # not rounding noise
    assert clear.sum() == np.linalg.matrix_rank(A)
    assert np.array_equal(np.sign(np.diag(R))[clear],
                          np.sign(np.diag(R_ref))[clear])
    G = A.T @ A + _tol(A.T @ A) * np.eye(A.shape[1])
    Rc = dk.chol(G)
    Rc_ref, info = la.lapack.dpotrf(G, lower=0)
    assert info == 0
    assert np.abs(Rc - np.triu(Rc_ref)).max() <= _tol(A)
    assert np.all(np.diag(Rc) > 0) and np.array_equal(Rc, np.triu(Rc))


@pytest.mark.parametrize("name", ["tall", "square", "1x1"])
@pytest.mark.parametrize("mu", [0.0, 1e-3])
def test_make_precond_qr_inverse_matches_triangular_solve(name, mu):
    # mu > 0: the ridge's QR form, the QR of [A; sqrt(mu) I]
    A = PARITY[name]
    if mu > 0.0:
        A = np.vstack([A, np.sqrt(mu) * np.eye(A.shape[1])])
    M = ls.make_precond_qr(A).M
    R = dk.qr_econ(A)[1]
    M_ref = la.solve_triangular(R, np.eye(A.shape[1]))
    assert np.all(np.abs(M - M_ref) <= 2 * np.spacing(np.abs(M_ref)))


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e12])
@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("trans", [0, "T"])
def test_solve_triangular_matches_scipy(cond, lower, trans):
    # both are backward stable, so each solution is within gamma_n
    # |op^{-1}| |op| |X| of the exact one (Higham, Thm 8.5); neither reads
    # the other triangle.  dk.solve_triangular reads an upper triangle, so a
    # lower T is passed as the upper triangle of its transpose, trans flipped
    r = np.random.default_rng(21)
    n = 40
    R = dk.qr_r(make_conditioned(n + 20, n, cond, seed=22))
    T = R.T if lower else R
    junk = np.tril(r.standard_normal((n, n)), -1)
    T_junk = T + (junk.T if lower else junk)
    op = T.T if trans == "T" else T
    for B in (r.standard_normal(n), r.standard_normal((n, 7))):
        if lower:
            X = dk.solve_triangular(T_junk.T, B,
                                    trans=0 if trans == "T" else "T")
        else:
            X = dk.solve_triangular(T_junk, B, trans=trans)
        X_ref = la.solve_triangular(T_junk, B, lower=lower, trans=trans)
        assert X.shape == B.shape
        bound = np.abs(np.linalg.inv(op)) @ (np.abs(op) @ np.abs(X_ref))
        assert np.all(np.abs(X - X_ref) <= 4 * n * np.finfo(float).eps * bound)


def test_factorizations_stay_on_numpy_lapack(monkeypatch):
    # numpy's and scipy's LAPACK link separate BLAS builds with separate
    # thread pools; a driver's loop should use one.  Only eigh_tridiagonal
    # may use scipy.
    from randla import errorest, fullrank, trace

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} was called")
        return call

    for name in ("svd", "eigh", "qr", "solve_triangular"):
        monkeypatch.setattr(la, name, forbidden(name))
    for name in ("dpotrf", "dgeqp3", "dtrtrs"):
        monkeypatch.setattr(la.lapack, name, forbidden(f"lapack.{name}"))

    r = np.random.default_rng(18)
    A = make_conditioned(300, 12, 1e3, seed=19)
    b = r.standard_normal(300)
    Q = np.linalg.qr(r.standard_normal((60, 60)))[0]
    G = (Q * np.logspace(0, -4, 60)) @ Q.T
    L = make_conditioned(80, 40, 1e4, seed=20)
    lowrank.qb2(L, 12, block_size=4, seed=1)
    lowrank.qb3(L, 12, block_size=4, seed=12)
    lowrank.svd1(L, 6, seed=2)
    lowrank.evd1(G, 6, seed=3)
    lowrank.evd2(G, 6, seed=4)
    ls.nystrom_pcg(G, 1e-2, r.standard_normal(60), rank=8, seed=5)
    for axis in ("column", "row"):
        lowrank.osid1(L, 6, axis=axis, seed=13)
        lowrank.rocs1(L, 6, axis=axis, seed=14)
    for M in (L, L.T):
        lowrank.curd1(M, 6, seed=15)
    ls.spo1(A, b, tol=1e-10, seed=6)
    ls.sps2(ls.SaddleProblem(A, b, None, 1e-2), tol=1e-10, seed=7)
    fullrank.rand_chol_qr(A, seed=8)
    fullrank.sap_chol_qrcp(A, seed=16)
    _, A_sk, _ = ls.sketch_and_solve_ols(A, b, 60, seed=9)
    trace.hutch_pp(G, 60, 30, seed=10)
    errorest.bootstrap_svd(A_sk, 3, B=5, seed=11)


# ---------------------------------------------------------------------------
# CholeskyQR2 path
# ---------------------------------------------------------------------------

CHOLQR2_SHAPES = [(4000, 55), (2000, 100), (1200, 100), (200, 50), (4000, 10)]


def cholqr2_bound(m, n):
    """The largest kappa within Yamamoto et al.'s CholeskyQR2 condition,
    8 kappa sqrt((m n + n (n + 1)) u) <= 1."""
    return 1.0 / (8.0 * np.sqrt((m * n + n * (n + 1)) * np.finfo(float).eps / 2))


@pytest.mark.parametrize("fraction", [0.5, 0.95])
@pytest.mark.parametrize("shape", CHOLQR2_SHAPES, ids=str)
def test_cholqr2_within_the_bound_is_orthonormal_and_backward_stable(
        shape, fraction):
    for seed in range(3):
        Y = make_conditioned(*shape, fraction * cholqr2_bound(*shape), seed=seed)
        fast = dk._cholqr2(Y)
        assert fast is not None
        Q, W, s, Zt = fast
        assert np.abs(Q.T @ Q - np.eye(shape[1])).max() <= 4e-15
        assert (np.linalg.norm(Y - Q @ ((W * s) @ Zt))
                <= 4e-15 * np.linalg.norm(Y))
        U, sig, V = dk.svd(Y)
        assert np.abs(U.T @ U - np.eye(shape[1])).max() <= 4e-15
        assert np.linalg.norm(Y - (U * sig) @ V.T) <= 4e-15 * np.linalg.norm(Y)
        Ut, sig_t, Vt = dk.svd(Y.T)
        assert np.array_equal(sig_t, sig)
        assert np.linalg.norm(Y.T - (Ut * sig_t) @ Vt.T) <= 4e-15 * np.linalg.norm(Y)
        Qs = dk.qr_q(Y)
        assert np.abs(Qs.T @ Qs - np.eye(shape[1])).max() <= 4e-15
        assert np.all(np.diag(Qs.T @ Y) > 0)  # R's diagonal is positive
        ref = np.linalg.svd(Y, compute_uv=False)
        assert np.abs(sig - ref).max() <= 4e-15 * ref[0]
        assert abs(dk.norm2(Y) - ref[0]) <= 4e-15 * ref[0]
        # a pseudoinverse is as accurate as kappa u allows
        P_ref = np.linalg.pinv(Y)
        tol = 1e-14 * (ref[0] / ref[-1]) * np.linalg.norm(P_ref)
        assert np.linalg.norm(dk.pinv(Y) - P_ref) <= tol
        assert np.linalg.norm(dk.pinv(Y.T) - P_ref.T) <= tol


def _rank_deficient(m, n, seed=0):
    r = np.random.default_rng(seed)
    return r.standard_normal((m, n - 5)) @ r.standard_normal((n - 5, n))


@pytest.mark.parametrize("cond", ["2x bound", 1e8, 1e12, "rank-deficient"])
@pytest.mark.parametrize("shape", CHOLQR2_SHAPES, ids=str)
def test_cholqr2_outside_the_bound_falls_back_to_lapack_bitwise(shape, cond):
    if cond == "rank-deficient":
        Y = _rank_deficient(*shape)
    else:
        kappa = 2 * cholqr2_bound(*shape) if cond == "2x bound" else cond
        Y = make_conditioned(*shape, kappa, seed=1)
    assert dk._cholqr2(Y) is None
    for A in (Y, Y.T):
        U, s, V = dk.svd(A)
        U_ref, s_ref, Vt_ref = np.linalg.svd(A, full_matrices=False)
        assert np.array_equal(U, U_ref) and np.array_equal(s, s_ref)
        assert np.array_equal(V, Vt_ref.T)
        assert dk.norm2(A) == np.linalg.norm(A, 2)
        assert np.array_equal(dk.pinv(A), np.linalg.pinv(A))
    assert np.array_equal(dk.qr_q(Y), np.linalg.qr(Y)[0])


def test_cholqr2_turns_down_a_failed_second_cholesky_for_lapack_bitwise(
        monkeypatch):
    Y = make_conditioned(200, 20, 1e3, seed=4)
    assert dk._cholqr2(Y) is not None
    real, calls = dk._upper_chol, []

    def second_fails(G):
        calls.append(G.shape)
        return None if len(calls) % 2 == 0 else real(G)

    monkeypatch.setattr(dk, "_upper_chol", second_fails)
    assert dk._cholqr2(Y) is None
    U, s, V = dk.svd(Y)
    U_ref, s_ref, Vt_ref = np.linalg.svd(Y, full_matrices=False)
    assert np.array_equal(U, U_ref) and np.array_equal(s, s_ref)
    assert np.array_equal(V, Vt_ref.T)
    assert np.array_equal(dk.qr_q(Y), np.linalg.qr(Y)[0])
    assert dk.norm2(Y) == np.linalg.norm(Y, 2)
    assert np.array_equal(dk.pinv(Y), np.linalg.pinv(Y))
    # each call reached the second Cholesky, on the 20-by-20 Gram of Q_1
    assert calls == [(20, 20)] * 10


@pytest.mark.parametrize("shape", [(4000, 55), (200, 50), (80, 20)], ids=str)
def test_orth_keeps_the_rank_of_a_rank_deficient_input(shape):
    Y = _rank_deficient(*shape, seed=2)
    Q = lowrank.orth(Y)
    assert Q.shape == (shape[0], shape[1] - 5)
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-14
    assert np.linalg.norm(Y - Q @ (Q.T @ Y)) <= 1e-13 * np.linalg.norm(Y)


def test_nonfinite_tall_input_raises_before_cholqr2():
    Y = make_conditioned(200, 50, 10.0)
    Y[3, 7] = np.nan
    for call in (dk.svd, lowrank.orth):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            call(Y)


def test_precond_svd_of_an_ill_conditioned_sketch_is_lapack_bitwise():
    # cond 1e6 is far past the bound at 1200 x 100 (about 3e4), so the SVD
    # preconditioner is built from LAPACK's factors, bitwise
    A_sk = make_conditioned(1200, 100, 1e6, seed=5)
    U, s, Vt = np.linalg.svd(A_sk, full_matrices=False)
    P = ls.make_precond_svd(A_sk)
    assert np.array_equal(P.M, Vt.T / s) and np.array_equal(P.aug_left, U)


def test_linear_operator_adjoint_consistency():
    A = np.random.default_rng(3).standard_normal((9, 5))
    op = dk.aslinop(A)
    r = np.random.default_rng(4)
    for _ in range(5):
        v = r.standard_normal(5)
        w = r.standard_normal(9)
        assert abs(op.apply(v) @ w - v @ op.apply_adjoint(w)) < 1e-12


@pytest.mark.parametrize("m", [255, 256, 700])
def test_column_major_copies_c_ordered_and_passes_fortran_through(m):
    A = np.random.default_rng(5).standard_normal((m, 7))
    F = dk.column_major(A)
    assert F.flags.f_contiguous and F is not A
    assert np.array_equal(F, A)
    assert dk.column_major(F) is F
    strided = A[::2, 1:]
    assert np.array_equal(dk.column_major(strided), strided)


# ---------------------------------------------------------------------------
# LSQR
# ---------------------------------------------------------------------------

def test_lsqr_orthonormal_one_iteration():
    r = np.random.default_rng(0)
    F = np.linalg.qr(r.standard_normal((30, 5)))[0]
    g = r.standard_normal(30)
    z, rep = dk.lsqr(F, g, tol=1e-12, maxit=20)
    assert rep.iterations == 1
    assert np.linalg.norm(z - F.T @ g) < 1e-12


def test_lsqr_consistent_diagonal():
    z, rep = dk.lsqr(np.diag([1.0, 10.0]), np.array([1.0, 10.0]),
                     tol=1e-12, maxit=50)
    assert rep.converged
    assert np.linalg.norm(z - 1.0) < 1e-12


def test_lsqr_zero_rhs():
    z, rep = dk.lsqr(np.eye(4), np.zeros(4), tol=1e-12, maxit=5)
    assert rep.iterations == 0 and rep.converged
    assert np.array_equal(z, np.zeros(4))


def test_lsqr_breakdown_returns_the_iterate_as_converged():
    # on the identity the first step leaves u = 0: beta = 0 breaks the
    # bidiagonalization down, and the Givens rotation of (rhobar, 0) is the
    # identity, so the iterate is g exactly
    g = np.arange(1.0, 6.0)
    z, rep = dk.lsqr(np.eye(5), g)
    assert rep.iterations == 1 and rep.converged
    assert np.array_equal(z, g)


def test_lsqr_warm_start():
    r = np.random.default_rng(5)
    F = r.standard_normal((40, 6))
    g = r.standard_normal(40)
    z_star = np.linalg.lstsq(F, g, rcond=None)[0]
    z, rep = dk.lsqr(F, g, tol=1e-13, maxit=100, z0=z_star)
    assert rep.iterations <= 2
    assert np.linalg.norm(z - z_star) < 1e-10


def test_lsqr_contraction_rate():
    # geometric-mean contraction of ||F(z - z*)|| stays within
    # (kappa-1)/(kappa+1) + 0.05
    kappa = 1e3
    F = make_conditioned(500, 40, kappa, seed=6)
    g = np.random.default_rng(7).standard_normal(500)
    z_star = np.linalg.lstsq(F, g, rcond=None)[0]
    e0 = np.linalg.norm(F @ z_star)  # error of the zero iterate
    iters = 40
    z, _ = dk.lsqr(F, g, tol=0.0, maxit=iters)
    e_end = np.linalg.norm(F @ (z - z_star))
    measured_rate = (e_end / e0) ** (1.0 / iters)
    assert measured_rate <= (kappa - 1) / (kappa + 1) + 0.05


def test_lsqr_validation():
    with pytest.raises(ValueError):
        dk.lsqr(np.eye(2), np.ones(2), tol=-1.0)
    with pytest.raises(ValueError):
        dk.lsqr(np.eye(2), np.ones(2), maxit=0)


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def test_pcg_zero_operator():
    x, rep = dk.pcg(np.zeros((3, 3)), 1.0, np.array([1.0, 2.0, 3.0]))
    assert rep.iterations == 1
    assert np.allclose(x, [1, 2, 3])


def test_pcg_perfect_preconditioner():
    G = np.diag([9.0, 0.0])
    x, rep = dk.pcg(G, 1.0, np.array([10.0, 1.0]),
                    apply_Pinv=np.diag([0.1, 1.0]))
    assert rep.iterations == 1
    assert np.allclose(x, [1.0, 1.0])


def test_pcg_matches_direct_solve():
    r = np.random.default_rng(10)
    Q = np.linalg.qr(r.standard_normal((60, 60)))[0]
    lam = np.logspace(-2, 2, 60)
    G = (Q * lam) @ Q.T
    h = r.standard_normal(60)
    x, rep = dk.pcg(G, 0.5, h, tol=1e-12, maxit=300)
    x_dense = np.linalg.solve(G + 0.5 * np.eye(60), h)
    assert rep.converged
    assert np.linalg.norm(x - x_dense) <= 1e-11 * np.linalg.norm(x_dense) * 10


def test_pcg_negative_curvature_raises():
    with pytest.raises(np.linalg.LinAlgError):
        dk.pcg(np.diag([-5.0, 1.0]), 0.0, np.array([1.0, 1.0]))


def test_pcg_zero_rhs():
    x, rep = dk.pcg(np.eye(3), 1.0, np.zeros(3))
    assert rep.iterations == 0 and np.array_equal(x, np.zeros(3))


@pytest.mark.parametrize("value", NONFINITE)
def test_solvers_stop_at_nonfinite_convergence_test(value):
    # a NaN or inf in the data makes every later test value non-finite, so
    # running on to maxit only spends products
    r = np.random.default_rng(12)
    h = r.standard_normal(30)
    h[7] = value
    A = r.standard_normal((200, 10))
    g = r.standard_normal(200)
    g[3] = value
    with np.errstate(invalid="ignore"):
        x, rep = dk.pcg(np.diag(np.linspace(1.0, 2.0, 30)), 0.5, h, maxit=80)
        assert rep.iterations == 0 and not rep.converged
        z, rep = dk.lsqr(A, g, tol=1e-12, maxit=100)
    assert rep.iterations == 1 and not rep.converged
    assert not np.isfinite(rep.residual_history[-1])


def test_pcg_nonfinite_operator_output_stops():
    # the third product (second iteration) turns NaN
    d, calls = np.array([1.0, 2.0, 3.0, 4.0]), []

    def G(v):
        calls.append(1)
        return np.full_like(v, np.nan) if len(calls) > 2 else d * v

    with np.errstate(invalid="ignore"):
        x, rep = dk.pcg(G, 0.0, np.ones(4), maxit=80)
    assert rep.iterations == 2 and not rep.converged


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------

def test_lanczos_hand_recurrence():
    # B = diag(1, 2), v0 = (1, 1)/sqrt(2): alpha1 = 1.5, beta1 = 0.5,
    # alpha2 = 1.5 by the three-term recurrence
    alpha, beta = dk.lanczos_tridiag(np.diag([1.0, 2.0]),
                                     np.array([1.0, 1.0]) / np.sqrt(2), 2)
    assert np.allclose(alpha, [1.5, 1.5])
    assert np.allclose(beta, [0.5])


def test_lanczos_invariant_subspace_terminates():
    alpha, beta = dk.lanczos_tridiag(3.0 * np.eye(5), np.eye(5)[0], 5)
    assert np.allclose(alpha, [3.0])
    assert beta.size == 0


def test_lanczos_interlacing():
    r = np.random.default_rng(11)
    Q = np.linalg.qr(r.standard_normal((20, 20)))[0]
    lam = np.sort(r.uniform(-3, 3, 20))
    B = (Q * lam) @ Q.T
    v0 = r.standard_normal(20)
    v0 /= np.linalg.norm(v0)
    for s in (3, 7, 12):
        alpha, beta = dk.lanczos_tridiag(B, v0, s)
        ritz = np.sort(la.eigh_tridiagonal(alpha, beta)[0])
        # Ritz values interlace: all inside [lam_min, lam_max], ordered
        assert ritz[0] >= lam[0] - 1e-10
        assert ritz[-1] <= lam[-1] + 1e-10


def test_lanczos_full_reorth_orthogonality():
    r = np.random.default_rng(12)
    Q = np.linalg.qr(r.standard_normal((120, 120)))[0]
    lam = np.logspace(-6, 0, 120)
    B = (Q * lam) @ Q.T
    v0 = r.standard_normal(120)
    v0 /= np.linalg.norm(v0)
    _, _, V = dk.lanczos_basis(B, v0, 50)
    gram = V.T @ V
    assert np.abs(gram - np.eye(V.shape[1])).max() <= 1e-10


def test_lanczos_validation():
    with pytest.raises(ValueError):
        dk.lanczos_tridiag(np.eye(3), np.ones(3), 2)  # not unit norm


def test_lanczos_basis_validation():
    with pytest.raises(ValueError):
        dk.lanczos_basis(np.eye(3), np.ones(3), 2)  # not unit norm
    with pytest.raises(ValueError):
        dk.lanczos_basis(np.eye(3), np.eye(3)[0], 0)


def test_lanczos_lockstep_matches_single_columns():
    # column 1 starts inside a 2-dimensional invariant subspace and breaks
    # down after two steps, column 2 inside a 1-dimensional one; the others
    # run all s steps.  Each column matches its own 1-D run.
    r = np.random.default_rng(13)
    n, s = 40, 12
    Q = np.linalg.qr(r.standard_normal((n, n)))[0]
    B = (Q * np.linspace(1.0, 3.0, n)) @ Q.T
    V0 = r.standard_normal((n, 4))
    V0[:, 1] = Q[:, 3] + 2.0 * Q[:, 7]
    V0[:, 2] = Q[:, 5]
    V0 /= np.linalg.norm(V0, axis=0)
    alpha, beta = dk.lanczos_tridiag(B, V0, s)
    assert alpha.shape == (s, 4) and beta.shape == (s - 1, 4)
    lengths = []
    for j in range(4):
        a1, b1 = dk.lanczos_tridiag(B, V0[:, j].copy(), s)
        lengths.append(a1.size)
        assert np.abs(alpha[:a1.size, j] - a1).max() <= 1e-12
        assert np.all(np.abs(beta[:b1.size, j] - b1) <= 1e-12)
        assert np.all(np.isnan(alpha[a1.size:, j]))
        assert np.all(np.isnan(beta[b1.size:, j]))
    assert lengths == [s, 2, 1, s]


def test_lanczos_lockstep_stops_when_all_columns_break_down():
    calls = []

    def B(V):
        calls.append(V.shape)
        return 2.0 * V

    alpha, beta, basis = dk.lanczos_tridiag(B, np.eye(6)[:, :3], 5,
                                            return_basis=True)
    assert calls == [(6, 3)]
    assert np.array_equal(alpha, [[2.0, 2.0, 2.0]])
    assert beta.shape == (0, 3)
    assert np.array_equal(basis[:, 0, :], np.eye(6)[:, :3])


def _batched_lanczos(B, V0, s, second_pass="cancelled"):
    """Lockstep Lanczos whose Gram-Schmidt passes are each one batched
    product over all starts; the input must not break down.  The second
    pass runs for the starts whose first left less than half the squared
    norm (``"cancelled"``, the rule of dk.lanczos_tridiag), for every start
    (``"always"``) or for none (``"never"``).  Returns alpha, beta and the
    (k, s, n) basis."""
    apply_B = dk._as_apply(B)
    V = V0.T.copy()
    k, n = V.shape
    basis = np.zeros((k, s, n))
    basis[:, 0] = V
    V_prev, beta_prev = np.zeros_like(V), np.zeros(k)
    alphas, betas = [], []

    def project(Q, W):
        return W - np.matmul(Q.transpose(0, 2, 1),
                             np.matmul(Q, W[:, :, None]))[:, :, 0]

    for j in range(s):
        W = np.ascontiguousarray(apply_B(V.T).T)
        alpha = np.einsum("ij,ij->i", V, W)
        alphas.append(alpha)
        if j == s - 1:
            break
        W = W - alpha[:, None] * V - beta_prev[:, None] * V_prev
        Q = basis[:, :j + 1]
        before = np.einsum("ij,ij->i", W, W)
        W = project(Q, W)
        again = {"always": np.ones(k, dtype=bool),
                 "never": np.zeros(k, dtype=bool),
                 "cancelled": np.einsum("ij,ij->i", W, W) < 0.5 * before,
                 }[second_pass]
        W[again] = project(Q[again], W[again])
        beta_prev = np.linalg.norm(W, axis=1)
        betas.append(beta_prev)
        V_prev, V = V, W / beta_prev[:, None]
        basis[:, j + 1] = V
    return np.array(alphas), np.array(betas), basis


def _max_orthogonality_loss(basis):
    """max |V^T V - I| over the starts of a (k, s, n) basis."""
    s = basis.shape[1]
    return max(np.abs(Q @ Q.T - np.eye(s)).max() for Q in basis)


def test_lanczos_block_basis_is_orthonormal_per_column():
    r = np.random.default_rng(14)
    Q = np.linalg.qr(r.standard_normal((80, 80)))[0]
    inputs = [((Q * np.logspace(-6, 0, 80)) @ Q.T, 80)]
    # five outliers over a bulk: without reorthogonalization every column
    # loses orthogonality.  At n = 1500, s = 30 the CGS2 groups hold 2, 2
    # and 1 starts, so a wrong group bound leaves a start unprojected.
    n, s, k = 1500, 30, 5
    assert dk._CGS_GROUP_BYTES // (8 * s * n) == 2
    spectrum = np.concatenate([np.logspace(-6, -1, n - 5), [1, 2, 4, 8, 16]])
    inputs.append((np.diag(spectrum), n))
    for B, n in inputs:
        V0 = r.standard_normal((n, k))
        V0 /= np.linalg.norm(V0, axis=0)
        alpha, beta, basis = dk.lanczos_tridiag(B, V0, s, return_basis=True)
        assert basis.shape == (n, s, k)
        for j in range(k):
            gram = basis[:, :, j].T @ basis[:, :, j]
            assert np.abs(gram - np.eye(s)).max() <= 1e-10
    ref_alpha, ref_beta, _ = _batched_lanczos(B, V0, s)
    assert np.array_equal(alpha, ref_alpha)
    assert np.array_equal(beta, ref_beta)


def test_lanczos_second_pass_runs_where_the_first_cancels():
    # B = diag(d), applied as (d + c) V - c V with c = 1e15 on the first
    # three coordinates: each product carries rounding errors of about
    # 0.1 |V| inside the invariant subspace span(e1, e2, e3).  The starts
    # lie within 1e-9 of it, so after three steps the recurrence nearly
    # breaks down, and the errors make up almost all of its residual w:
    # the first Gram-Schmidt pass cancels, and one pass leaves a basis
    # that is far from orthonormal.
    r = np.random.default_rng(15)
    n, s, k = 12, 8, 4
    d = np.concatenate([[1.0, 2.0, 3.0], np.linspace(1.5, 2.5, n - 3)])
    c = np.zeros(n)
    c[:3] = 1e15
    d, c = d[:, None], c[:, None]

    def B(V):
        return (d + c) * V - c * V

    V0 = np.zeros((n, k))
    V0[:3] = r.standard_normal((3, k))
    V0[3:] = 1e-9 * r.standard_normal((n - 3, k))
    V0 /= np.linalg.norm(V0, axis=0)
    alpha, beta, basis = dk.lanczos_tridiag(B, V0, s, return_basis=True)
    assert basis.shape == (n, s, k)
    assert _max_orthogonality_loss(basis.transpose(2, 1, 0)) <= 1e-12
    ref_alpha, ref_beta, _ = _batched_lanczos(B, V0, s)
    assert np.array_equal(alpha, ref_alpha)
    assert np.array_equal(beta, ref_beta)
    _, _, once = _batched_lanczos(B, V0, s, second_pass="never")
    assert _max_orthogonality_loss(once) >= 1e-10


def test_slq_samples_match_two_pass_reorthogonalization():
    # one pass where the first does not cancel moves slq's samples at
    # rounding level only
    r = np.random.default_rng(16)
    n, m, s = 300, 40, 30
    Q = np.linalg.qr(r.standard_normal((n, n)))[0]
    B = (Q / np.arange(1.0, n + 1)) @ Q.T
    key = RngKey(7)
    est = trace.slq(B, n, np.log1p, m, s, seed=key)
    W = trace._probes("rademacher", key, 0, m, n)
    pnorm = trace._column_norms(W)
    alpha, beta, _ = _batched_lanczos(B, W / pnorm, s, second_pass="always")
    ref = [trace._quadrature_rule(alpha[:, j], beta[:, j], pnorm[j])
           for j in range(m)]
    ref = np.array([rule.weights @ np.log1p(rule.nodes) for rule in ref])
    assert np.abs(est.samples - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lanczos_vector_start_calls_operator_with_vectors():
    shapes = []

    def B(v):
        shapes.append(v.shape)
        return np.arange(1.0, 5.0) * v

    dk.lanczos_tridiag(B, np.ones(4) / 2.0, 3)
    assert shapes == [(4,)] * 3


def test_lanczos_block_wrong_shape_raises():
    M = np.diag(np.arange(1.0, 6.0))
    with pytest.raises(ValueError, match=r"\(n, k\) blocks"):
        dk.lanczos_tridiag(lambda V: M @ V[:, 0], np.eye(5)[:, :2], 3)
    with pytest.raises(ValueError, match="unit vector"):
        dk.lanczos_tridiag(M, np.ones((5, 2)), 3)
    with pytest.raises(ValueError, match="not finite"):
        dk.lanczos_tridiag(lambda V: np.full_like(V, np.nan),
                           np.eye(5)[:, :2], 3)
