import numpy as np
import pytest

from randla import detkernels as dk, leastsq as ls, lowrank, sketching
from randla.rng import RngKey


def make_tall(m, n, cond=10.0, rank=None, seed=0):
    r = np.random.default_rng(seed)
    rank = rank or n
    U = np.linalg.qr(r.standard_normal((m, rank)))[0]
    V = np.linalg.qr(r.standard_normal((n, rank)))[0]
    s = np.logspace(0, np.log10(cond), rank)[::-1]
    return (U * s) @ V.T


# ---------------------------------------------------------------------------
# sketch-and-solve
# ---------------------------------------------------------------------------

def test_sketch_and_solve_consistent_is_exact():
    # b in range(A) and a rank-preserving sketch solve the problem exactly
    A = make_tall(300, 10, cond=50, seed=1)
    x_true = np.random.default_rng(2).standard_normal(10)
    b = A @ x_true
    x, _, _ = ls.sketch_and_solve_ols(A, b, 60, seed=3)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_sketch_and_solve_full_identity_sketch():
    r = np.random.default_rng(4)
    A = np.linalg.qr(r.standard_normal((40, 6)))[0]
    b = r.standard_normal(40)
    x, _, _ = ls.sketch_and_solve_ols(A, b, 40, seed=5, op_family="haar")
    # with d = m the sketch is a rotation, so the solution is exact
    assert np.linalg.norm(x - A.T @ b) < 1e-10


def test_sketch_and_solve_residual_bound():
    # ||A x_hat - b|| <= (1+delta)/(1-delta) ||A x* - b|| with delta the
    # effective distortion of S on the [A, b] basis (deterministic given
    # delta)
    m, n, d = 2000, 20, 200
    A = make_tall(m, n, cond=100, seed=6)
    b = np.random.default_rng(7).standard_normal(m)
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    opt = np.linalg.norm(A @ x_star - b)
    basis = lowrank.orth(np.column_stack([A, b]))
    for seed in range(20):
        S = sketching.sample_operator("gaussian", d, m, RngKey(seed))
        x, _, _ = ls.sketch_and_solve_ols(A, b, d, seed=RngKey(seed))
        delta = sketching.distortion_diagnostics(S, basis).eff_distortion
        assert np.linalg.norm(A @ x - b) <= (1 + delta) / (1 - delta) * opt + 1e-9


def test_sketch_and_solve_rank_deficient():
    A = make_tall(100, 8, cond=10, rank=5, seed=8)
    b = np.random.default_rng(9).standard_normal(100)
    x, _, _ = ls.sketch_and_solve_ols(A, b, 40, seed=10)
    assert np.all(np.isfinite(x))


# ---------------------------------------------------------------------------
# spo1
# ---------------------------------------------------------------------------

def test_spo1_orthonormal_converges_fast():
    # consistent system: the presolve is already exact, so the iterative
    # phase only has to confirm convergence
    r = np.random.default_rng(11)
    A = np.linalg.qr(r.standard_normal((400, 12)))[0]
    b = A @ r.standard_normal(12)
    x, rep = ls.spo1(A, b, tol=1e-12, maxit=20, seed=12)
    assert rep.iterations <= 5
    x_star = A.T @ b
    assert np.linalg.norm(x - x_star) <= 1e-10 * np.linalg.norm(x_star)


def test_spo1_arbitrary_rhs():
    r = np.random.default_rng(11)
    A = np.linalg.qr(r.standard_normal((400, 12)))[0]
    b = r.standard_normal(400)
    x, rep = ls.spo1(A, b, tol=1e-12, maxit=40, seed=12)
    assert rep.converged
    assert np.linalg.norm(x - A.T @ b) <= 1e-10 * np.linalg.norm(A.T @ b)


def test_spo1_zero_rhs():
    A = make_tall(50, 5)
    x, rep = ls.spo1(A, np.zeros(50))
    assert np.array_equal(x, np.zeros(5))
    assert rep.iterations == 0


def test_spo1_nan_in_rhs_stops_unconverged():
    A = make_tall(400, 10, seed=3)
    b = np.random.default_rng(4).standard_normal(400)
    b[17] = np.nan
    with np.errstate(invalid="ignore"):
        x, rep = ls.spo1(A, b, maxit=100, seed=5)
    assert rep.iterations == 1 and not rep.converged


def test_spo1_high_condition():
    A = make_tall(2000, 50, cond=1e8, seed=13)
    r = np.random.default_rng(14)
    b = A @ (r.standard_normal(50) * 1e-8) + r.standard_normal(2000)
    x, rep = ls.spo1(A, b, tol=3e-11, maxit=60, seed=15)
    res = b - A @ x
    nres = np.linalg.norm(A.T @ res) / (np.linalg.norm(A, 2) * np.linalg.norm(res))
    assert rep.iterations <= 50
    assert nres <= 1e-10


def test_spo1_rank_deficient_falls_back_to_svd_of_same_sketch(monkeypatch):
    # a rank-deficient sketch cannot give a QR preconditioner; spo1 must
    # switch to the SVD preconditioner of the sketch it already took and
    # return the canonical limiting solution
    A = make_tall(300, 12, cond=100, rank=9, seed=50)
    b = np.random.default_rng(51).standard_normal(300)
    svd_sketches = []
    make_svd = ls.make_precond_svd

    def recording_svd(A_sk, *args, **kwargs):
        svd_sketches.append(A_sk)
        return make_svd(A_sk, *args, **kwargs)

    monkeypatch.setattr(ls, "make_precond_svd", recording_svd)
    x, rep = ls.spo1(A, b, tol=1e-14, maxit=100, seed=52)
    x0, _ = ls.limiting_solution(A, b, np.zeros(12))
    assert len(svd_sketches) == 1
    assert np.linalg.norm(x - x0) <= 1e-12 * np.linalg.norm(x0)


def test_spo1_fallback_samples_and_sketches_once(monkeypatch):
    # the fallback reuses the sketch: one operator sampled, A sketched once,
    # and x bitwise equal to solving the same problem with sps2 (mu = 0)
    A = make_tall(3000, 12, cond=100, rank=9, seed=53)
    b = np.random.default_rng(54).standard_normal(3000)
    expected = ls.sps2(ls.SaddleProblem(A, b, None, 0.0), tol=1e-13,
                       maxit=100, seed=55).x
    samples, applies_to_A = [], []
    sample = sketching.sample_operator
    apply = sketching._OperatorBase.apply

    def recording_sample(*args, **kwargs):
        samples.append(args)
        return sample(*args, **kwargs)

    def recording_apply(self, M, *args, **kwargs):
        if M is A:
            applies_to_A.append(self)
        return apply(self, M, *args, **kwargs)

    monkeypatch.setattr(sketching, "sample_operator", recording_sample)
    monkeypatch.setattr(sketching._OperatorBase, "apply", recording_apply)
    x, _ = ls.spo1(A, b, tol=1e-13, maxit=100, seed=55)
    assert len(samples) == 1
    assert len(applies_to_A) == 1
    assert np.array_equal(x, expected)


def test_spo1_oracle_agreement():
    A = make_tall(500, 15, cond=1e3, seed=16)
    b = np.random.default_rng(17).standard_normal(500)
    x, _ = ls.spo1(A, b, tol=1e-13, maxit=80, seed=18)
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)


def test_lsqr_restart_report_keeps_the_larger_norm_estimate(monkeypatch):
    # the restarted solve reports the larger of its two LSQR runs' operator
    # norm estimates, not 0
    A = make_tall(3000, 20, cond=1e10, seed=1)
    r = np.random.default_rng(2)
    b = A @ r.standard_normal(20) + r.standard_normal(3000)
    reports = []
    lsqr = dk.lsqr

    def recording_lsqr(*args, **kwargs):
        z, rep = lsqr(*args, **kwargs)
        reports.append(rep)
        return z, rep

    monkeypatch.setattr(dk, "lsqr", recording_lsqr)
    _, rep = ls.spo1(A, b, tol=1e-14, seed=1)
    assert len(reports) == 2
    assert rep.op_norm_est == max(r.op_norm_est for r in reports) > 0
    reports.clear()
    sol = ls.sps2(ls.SaddleProblem(A, b, None, 1e-3), tol=1e-14, seed=1)
    assert sol.report.op_norm_est == max(r.op_norm_est for r in reports) > 0


@pytest.mark.parametrize("mu, with_c", [(0.0, False), (0.0, True),
                                        (1e-3, False), (1e-3, True)])
def test_spo1_and_sps2_do_not_depend_on_the_layout_of_A(mu, with_c):
    # LSQR runs on a column-major copy of A, so a C-ordered A and its
    # Fortran-ordered copy give bitwise the same x and y
    m, n = 3000, 20
    r = np.random.default_rng(3)
    A = r.standard_normal((m, n)) * np.logspace(0, -4, n)
    F = np.asfortranarray(A)
    b = r.standard_normal(m)
    c = r.standard_normal(n) if with_c else None
    if mu == 0 and not with_c:
        assert np.array_equal(ls.spo1(A, b, seed=4)[0], ls.spo1(F, b, seed=4)[0])
    sol_c = ls.sps2(ls.SaddleProblem(A, b, c, mu), seed=4)
    sol_f = ls.sps2(ls.SaddleProblem(F, b, c, mu), seed=4)
    assert np.array_equal(sol_c.x, sol_f.x)
    assert np.array_equal(sol_c.y, sol_f.y)


def _karlson_walden(A, b, x):
    """The Karlson-Walden estimate of the least-squares backward error of x,
    ||(A^T A + t^2 I)^{-1/2} A^T r|| / ||x|| with r = b - A x and
    t = ||r|| / ||x||, relative to ||A||_2."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    r = b - A @ x
    t2 = (r @ r) / (x @ x)
    return np.linalg.norm(s / np.sqrt(s ** 2 + t2) * (U.T @ r)) / (
        np.linalg.norm(x) * s[0])


@pytest.mark.parametrize("cond", [1e6, 1e10, 1e13])
@pytest.mark.parametrize("rho", [1e-6, 1e-2, 1.0])
def test_spo1_backward_error_within_a_stated_factor_of_householder_qr(cond, rho):
    # the grid behind "no backward-stability rework": spo1 at tol 1e-14
    # against Householder QR, Karlson-Walden estimates, residual of norm rho
    # orthogonal to range(A) next to a unit-norm A x.  Bound 50; the worst
    # ratio over the nine cells was 13.3 on problem seeds 1-3 (11.2 on this
    # seed), a headroom of 3.8.
    m, n = 3000, 40
    r = np.random.default_rng(1)
    Q = np.linalg.qr(r.standard_normal((m, n + 1)))[0]
    V = np.linalg.qr(r.standard_normal((n, n)))[0]
    A = (Q[:, :n] * np.logspace(0, -np.log10(cond), n)) @ V.T
    Ax = A @ r.standard_normal(n)
    b = Ax / np.linalg.norm(Ax) + rho * Q[:, n]
    x, rep = ls.spo1(A, b, tol=1e-14)
    Qa, Ra = np.linalg.qr(A)
    x_qr = np.linalg.solve(Ra, Qa.T @ b)
    assert rep.converged
    assert _karlson_walden(A, b, x) <= 50 * _karlson_walden(A, b, x_qr)


# ---------------------------------------------------------------------------
# sps2
# ---------------------------------------------------------------------------

def test_sps2_specializes_to_spo1():
    A = make_tall(600, 18, cond=1e3, seed=19)
    b = np.random.default_rng(20).standard_normal(600)
    x1, _ = ls.spo1(A, b, tol=1e-13, maxit=100, seed=21)
    sol = ls.sps2(ls.SaddleProblem(A, b, None, 0.0), tol=1e-13, maxit=100,
                  seed=21)
    assert np.linalg.norm(x1 - sol.x) <= 1e-9 * np.linalg.norm(x1)


def test_sps2_closed_form():
    # mu = 1, b = 0, c = e1, A = I: x = -e1/2, y = e1/2
    n = 8
    prob = ls.SaddleProblem(np.eye(n), np.zeros(n), np.eye(n)[0], 1.0)
    sol = ls.sps2(prob, tol=1e-14, maxit=50, seed=22)
    expected = -0.5 * np.eye(n)[0]
    assert np.linalg.norm(sol.x - expected) < 1e-10
    assert np.linalg.norm(sol.y + expected) < 1e-10


def test_sps2_rank_deficient_canonical():
    m, n = 150, 12
    r = np.random.default_rng(23)
    A = make_tall(m, n, cond=30, rank=n - 2, seed=24)
    b, c = r.standard_normal(m), r.standard_normal(n)
    sol = ls.sps2(ls.SaddleProblem(A, b, c, 0.0), tol=1e-14, maxit=200, seed=25)
    x_oracle = np.linalg.pinv(A.T @ A) @ (A.T @ b - c)
    assert np.linalg.norm(sol.x - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)


def test_sps2_regularized_rank_deficient_with_linear_term():
    # mu > 0 makes the problem well posed even though A loses rank; the
    # implicitly augmented sketch must reproduce the dense solve
    m, n, mu = 250, 12, 0.05
    r = np.random.default_rng(53)
    A = make_tall(m, n, cond=50, rank=8, seed=54)
    b, c = r.standard_normal(m), r.standard_normal(n)
    sol = ls.sps2(ls.SaddleProblem(A, b, c, mu), tol=1e-14, maxit=200, seed=55)
    x_star = np.linalg.solve(A.T @ A + mu * np.eye(n), A.T @ b - c)
    assert np.linalg.norm(sol.x - x_star) <= 1e-10 * np.linalg.norm(x_star)
    assert np.allclose(sol.y, b - A @ sol.x, rtol=0, atol=1e-12)


def test_sps2_dual_feasibility():
    # the pair satisfies the normal equations (A^T A + mu I) x = A^T b - c
    m, n, mu = 200, 10, 0.3
    r = np.random.default_rng(26)
    A = make_tall(m, n, cond=100, seed=27)
    b, c = r.standard_normal(m), r.standard_normal(n)
    sol = ls.sps2(ls.SaddleProblem(A, b, c, mu), tol=1e-14, maxit=100, seed=28)
    lhs = (A.T @ A + mu * np.eye(n)) @ sol.x
    rhs = A.T @ b - c
    scale = np.linalg.norm(A, 2) ** 2 * np.linalg.norm(sol.x) + np.linalg.norm(rhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * scale
    assert np.linalg.norm(sol.y - (b - A @ sol.x)) <= 1e-10 * (
        np.linalg.norm(b) + np.linalg.norm(A @ sol.x))


# ---------------------------------------------------------------------------
# preconditioners
# ---------------------------------------------------------------------------

def test_make_precond_qr_orthonormal_sketch():
    A_sk = np.linalg.qr(np.random.default_rng(29).standard_normal((30, 6)))[0]
    P = ls.make_precond_qr(A_sk)
    # M = R^{-1} with R orthogonal-diagonal signs, so |M| = I
    assert np.allclose(np.abs(P.M), np.eye(6), atol=1e-12)


def test_make_precond_qr_hand_cholesky():
    # the ridge mu = 3 as the QR of [A_sk; sqrt(mu) I]: R^T R = A_sk^T A_sk
    # + mu I = diag(7, 4), so R is that Cholesky factor up to row signs
    A_sk = np.vstack([np.diag([2.0, 1.0]), np.zeros((3, 2))])
    P = ls.make_precond_qr(np.vstack([A_sk, np.sqrt(3.0) * np.eye(2)]))
    assert np.allclose(np.abs(np.diag(P.M)), [1 / np.sqrt(7), 0.5])
    assert np.allclose(P.M - np.diag(np.diag(P.M)), 0.0)


def test_precond_orthogonalizes_augmented_sketch():
    # definitional: A_sk_mu @ M has orthonormal columns
    r = np.random.default_rng(30)
    A_sk = r.standard_normal((40, 7))
    for mu in (0.0, 2.5):
        aug = np.vstack([A_sk, np.sqrt(mu) * np.eye(7)])
        # the QR form takes the ridge as the augmented sketch itself
        for M in (ls.make_precond_qr(aug).M, ls.make_precond_svd(A_sk, mu).M):
            G = (aug @ M).T @ (aug @ M)
            assert np.abs(G - np.eye(M.shape[1])).max() < 1e-8


def test_make_precond_qr_rejects_rank_deficient():
    A_sk = np.zeros((10, 3))
    A_sk[:, :2] = np.random.default_rng(31).standard_normal((10, 2))
    with pytest.raises(np.linalg.LinAlgError):
        ls.make_precond_qr(A_sk)


def test_make_precond_svd_rank_deficient_truncates():
    r = np.random.default_rng(32)
    A_sk = r.standard_normal((20, 4)) @ np.eye(4)[:3].T @ np.eye(4)[:3]
    P = ls.make_precond_svd(A_sk, 0.0)
    assert P.rank == 3


def test_make_precond_svd_shifted_singular_values():
    A_sk = np.vstack([np.diag([2.0, 1.0]), np.zeros((2, 2))])
    P = ls.make_precond_svd(A_sk, 3.0)
    sig_hat = 1.0 / np.sort(np.linalg.svd(P.M, compute_uv=False))[::-1]
    assert np.allclose(np.sort(sig_hat), np.sort([np.sqrt(7), 2.0]))
    assert np.abs(P.aug_left.T @ P.aug_left - np.eye(2)).max() < 1e-10


def test_precond_spectrum_identity():
    # reciprocal identity: singular values of A M are reciprocals of those of
    # S U, U an orthonormal basis of range(A), including rank deficiency
    m, n, d = 300, 12, 48
    for seed in range(5):
        rank = n if seed % 2 == 0 else n - 3
        A = make_tall(m, n, cond=10 ** (2 + seed), rank=rank, seed=seed)
        S = sketching.sample_operator("gaussian", d, m, RngKey(40 + seed))
        P = ls.make_precond_svd(S.apply(A), 0.0)
        U = lowrank.orth(A)
        sv_am = np.sort(np.linalg.svd(A @ P.M, compute_uv=False))
        sv_su = np.sort(1.0 / np.linalg.svd(S.apply(U), compute_uv=False))
        assert np.abs(sv_am - sv_su).max() <= 1e-8 * sv_su.max()


def test_scale_invariance_of_preconditioned_pipeline():
    # replaying the spo1 pipeline with S and tS gives the same solution
    m, n, d = 400, 10, 40
    A = make_tall(m, n, cond=1e4, seed=33)
    b = np.random.default_rng(34).standard_normal(m)
    S = sketching.sample_operator("gaussian", d, m, RngKey(35)).matrix()
    outputs = []
    for t in (0.1, 1.0, 10.0):
        A_sk = (t * S) @ A
        b_sk = (t * S) @ b
        Q, R = dk.qr_econ(A_sk)
        z0 = Q.T @ b_sk
        op = dk.LinearOperator(
            m, n,
            lambda v, R=R: A @ dk.solve_triangular(R, v),
            lambda v, R=R: dk.solve_triangular(R, A.T @ v, trans="T"),
        )
        z, _ = dk.lsqr(op, b, tol=1e-13, maxit=60, z0=z0)
        outputs.append(dk.solve_triangular(R, z))
    for x in outputs[1:]:
        assert np.linalg.norm(x - outputs[0]) <= 1e-10 * np.linalg.norm(outputs[0])


# ---------------------------------------------------------------------------
# limiting solutions
# ---------------------------------------------------------------------------

def test_limiting_solution_full_rank():
    A = make_tall(60, 6, seed=36)
    b = np.random.default_rng(37).standard_normal(60)
    x0, y0 = ls.limiting_solution(A, b, np.zeros(6))
    assert np.allclose(x0, np.linalg.pinv(A) @ b)
    assert np.allclose(y0, b - A @ x0)


def test_limiting_solution_zero_matrix():
    b = np.arange(4.0)
    x0, y0 = ls.limiting_solution(np.zeros((4, 2)), b, np.zeros(2))
    assert np.array_equal(x0, np.zeros(2))
    assert np.array_equal(y0, b)


def test_limiting_solution_mu_slope():
    # || y(mu) - y0 || decays linearly in mu (slope 1 in log-log)
    m, n = 60, 10
    r = np.random.default_rng(38)
    A = make_tall(m, n, cond=20, rank=n - 2, seed=39)
    b, c = r.standard_normal(m), r.standard_normal(n)
    _, y0 = ls.limiting_solution(A, b, c)
    mus = np.array([1e-2, 1e-4, 1e-6])
    errs = []
    for mu in mus:
        y_mu = np.linalg.solve(A @ A.T + mu * np.eye(m), A @ c + mu * b)
        errs.append(np.linalg.norm(y_mu - y0))
    slope = np.polyfit(np.log(mus), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.1


# ---------------------------------------------------------------------------
# Nystrom PCG
# ---------------------------------------------------------------------------

def test_nystrom_pcg_zero_operator():
    x, rep = ls.nystrom_pcg(np.zeros((5, 5)), 1.0, np.arange(5.0), rank=2,
                            oversample=1, seed=40)
    assert rep.iterations == 1
    assert np.allclose(x, np.arange(5.0))


def test_nystrom_pcg_zero_rhs():
    G = np.eye(6)
    x, rep = ls.nystrom_pcg(G, 1.0, np.zeros(6), rank=2, oversample=2, seed=41)
    assert np.array_equal(x, np.zeros(6))


def test_nystrom_pcg_spiked_spectrum():
    n, mu = 200, 1.0
    r = np.random.default_rng(42)
    Q = np.linalg.qr(r.standard_normal((n, n)))[0]
    lam = np.concatenate([[100.0, 50.0], np.full(n - 2, 1e-3)])
    G = (Q * lam) @ Q.T
    h = r.standard_normal(n)
    x, rep = ls.nystrom_pcg(G, mu, h, rank=2, oversample=4, tol=1e-10,
                            maxit=50, seed=43)
    x_dense = np.linalg.solve(G + mu * np.eye(n), h)
    assert rep.iterations <= 10
    assert np.linalg.norm(x - x_dense) <= 1e-9 * np.linalg.norm(x_dense)


def test_nystrom_pcg_condition_bound():
    # kappa(P^{-1/2}(G + mu I)P^{-1/2}) <= 1 + lam_l / mu when the
    # eigenpairs are captured exactly
    n, mu, ell = 80, 1.0, 12
    r = np.random.default_rng(44)
    Q = np.linalg.qr(r.standard_normal((n, n)))[0]
    lam = np.concatenate([np.logspace(2, 1, 10), np.full(n - 10, 1e-4)])
    G = (Q * lam) @ Q.T
    evd = lowrank.evd2(G, ell, s=6, seed=45, power_passes=2)
    apply_pinv = ls.nystrom_precond(evd, mu, n)
    Pinv = np.column_stack([apply_pinv(v) for v in np.eye(n)])
    w, Vp = np.linalg.eigh(Pinv)
    sq = (Vp * np.sqrt(w)) @ Vp.T
    precond = sq @ (G + mu * np.eye(n)) @ sq
    kappa = np.linalg.cond(precond)
    assert kappa <= 1 + lam[ell - 1] / mu + 0.5


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_saddle_problem_validation():
    with pytest.raises(ValueError):
        ls.SaddleProblem(np.ones((2, 5)), np.ones(2), None, 0.0)
    with pytest.raises(ValueError):
        ls.SaddleProblem(np.ones((5, 2)), np.ones(5), None, -1.0)
