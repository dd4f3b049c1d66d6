"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here; nothing is deferred to calibration.
"""

import csv
import json

import numpy as np
import pytest

from randla import (bench, cli, detkernels as dk, errorest as ee,
                    fullrank as fr, leastsq as ls, leverage as lev,
                    lowrank as lr, sketching as sk, trace as tr)
from randla.rng import RngKey


def report(num: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def conditioned(m, n, cond, rank=None, seed=0):
    r = np.random.default_rng(seed)
    rank = rank or n
    U = np.linalg.qr(r.standard_normal((m, rank)))[0]
    V = np.linalg.qr(r.standard_normal((n, rank)))[0]
    s = np.logspace(0, np.log10(cond), rank)[::-1]
    return (U * s) @ V.T


def test_criterion_01_preconditioner_spectrum():
    # Singular values of A M match reciprocals of singular values of S U to
    # 1e-8 relative on 20 mixed instances (conditioning and rank
    # deficiency), m = 2000, n = 40.
    m, n, d = 2000, 40, 160
    worst = 0.0
    for seed in range(20):
        cond = 10.0 ** (1 + seed % 6)
        rank = n - (seed % 3) * 3
        A = conditioned(m, n, cond, rank=rank, seed=seed)
        S = sk.sample_operator("gaussian", d, m, RngKey(900 + seed))
        P = ls.make_precond_svd(S.apply(A), 0.0)
        U = lr.orth(A)
        sv_am = np.sort(np.linalg.svd(A @ P.M, compute_uv=False))
        sv_su = np.sort(1.0 / np.linalg.svd(S.apply(U), compute_uv=False))
        worst = max(worst, np.abs(sv_am - sv_su).max() / sv_su.max())
    report(1, worst <= 1e-8,
           f"preconditioner spectrum identity, worst rel dev {worst:.2e}")


def test_criterion_02_gaussian_effective_distortion():
    # d = 4n, n = 100, m = 4000: effective distortion 0.5 +- 0.1 and
    # cond(A M) in 3 +- 1, each for >= 18/20 seeds.
    m, n, d = 4000, 100, 400
    A = conditioned(m, n, 1e3, seed=7)
    U = lr.orth(A)
    dist_hits = cond_hits = 0
    for seed in range(20):
        S = sk.sample_operator("gaussian", d, m, RngKey(1000 + seed))
        rep = sk.distortion_diagnostics(S, U)
        dist_hits += 0.4 <= rep.eff_distortion <= 0.6
        P = ls.make_precond_svd(S.apply(A), 0.0)
        cond_am = np.linalg.cond(A @ P.M)
        cond_hits += 2.0 <= cond_am <= 4.0
    report(2, dist_hits >= 18 and cond_hits >= 18,
           f"effective distortion 0.5+-0.1 in {dist_hits}/20, "
           f"cond(AM) 3+-1 in {cond_hits}/20")


def _spo1_problem(cond, seed, m=2000, n=50):
    r = np.random.default_rng(seed)
    U = np.linalg.qr(r.standard_normal((m, n)))[0]
    V = np.linalg.qr(r.standard_normal((n, n)))[0]
    s = np.logspace(0, np.log10(cond), n)[::-1]
    A = (U * s) @ V.T
    g = r.standard_normal(n)
    x_true = g / np.linalg.norm(g) / s[0]
    w = r.standard_normal(m)
    w -= U @ (U.T @ w)
    w /= np.linalg.norm(w)
    return A, A @ x_true + w, s[0]


def test_criterion_03_sketch_and_precondition_accuracy():
    # cond-1e8 problems reach normalized normal-equation residual <= 1e-10
    # in <= 50 LSQR iterations, 20/20 seeds, with iteration counts within
    # +-5 of the cond-1e2 case on average.
    iters8, iters2 = [], []
    worst_nres = 0.0
    for seed in range(20):
        A, b, anorm = _spo1_problem(1e8, seed)
        x, rep = ls.spo1(A, b, tol=3e-11, maxit=50, seed=seed + 100)
        r = b - A @ x
        worst_nres = max(worst_nres, np.linalg.norm(A.T @ r)
                         / (anorm * np.linalg.norm(r)))
        iters8.append(rep.iterations)
        A, b, _ = _spo1_problem(1e2, seed)
        _, rep = ls.spo1(A, b, tol=3e-11, maxit=50, seed=seed + 100)
        iters2.append(rep.iterations)
    mean_gap = abs(np.mean(iters8) - np.mean(iters2))
    ok = worst_nres <= 1e-10 and max(iters8) <= 50 and mean_gap <= 5
    report(3, ok, f"spo1 cond-1e8: worst nres {worst_nres:.2e}, "
                  f"max iters {max(iters8)}, mean gap to cond-1e2 "
                  f"{mean_gap:.2f}")


def test_criterion_04_sketch_and_solve_bound():
    # residual ratio <= (1 + delta)/(1 - delta) with delta measured on the
    # [A, b] basis, every one of 20 seeds.
    m, n, d = 2000, 20, 200
    A = conditioned(m, n, 1e2, seed=11)
    b = np.random.default_rng(12).standard_normal(m)
    opt = np.linalg.norm(A @ np.linalg.lstsq(A, b, rcond=None)[0] - b)
    basis = lr.orth(np.column_stack([A, b]))
    ok = True
    worst_slack = np.inf
    for seed in range(20):
        S = sk.sample_operator("gaussian", d, m, RngKey(1100 + seed))
        x, _, _ = ls.sketch_and_solve_ols(A, b, d, seed=RngKey(1100 + seed))
        delta = sk.distortion_diagnostics(S, basis).eff_distortion
        bound = (1 + delta) / (1 - delta) * opt
        ratio = np.linalg.norm(A @ x - b)
        worst_slack = min(worst_slack, bound - ratio)
        ok = ok and ratio <= bound * (1 + 1e-12)
    report(4, ok, f"sketch-and-solve bound holds 20/20 "
                  f"(tightest slack {worst_slack:.2e})")


def test_criterion_05_sps2_rank_deficient():
    # canonical solutions on 10 rank-deficient instances to 1e-8 relative,
    # and the mu-limit slope test.
    worst_x = worst_y = 0.0
    for seed in range(10):
        m, n = 400, 16
        r = np.random.default_rng(seed)
        A = conditioned(m, n, 100.0, rank=n - 3, seed=seed + 30)
        b, c = r.standard_normal(m), r.standard_normal(n)
        sol = ls.sps2(ls.SaddleProblem(A, b, c, 0.0), tol=1e-14, maxit=200,
                      seed=seed)
        x0, y0 = ls.limiting_solution(A, b, c)
        x_pinv = np.linalg.pinv(A.T @ A) @ (A.T @ b - c)
        y_pinv = np.linalg.pinv(A.T) @ c + b - A @ np.linalg.pinv(A) @ b
        assert np.linalg.norm(x0 - x_pinv) <= 1e-9 * np.linalg.norm(x_pinv)
        worst_x = max(worst_x, np.linalg.norm(sol.x - x_pinv)
                      / np.linalg.norm(x_pinv))
        worst_y = max(worst_y, np.linalg.norm(sol.y - y_pinv)
                      / np.linalg.norm(y_pinv))
    # slope of log ||y(mu) - y0|| vs log mu
    r = np.random.default_rng(77)
    A = conditioned(80, 12, 50.0, rank=9, seed=78)
    b, c = r.standard_normal(80), r.standard_normal(12)
    _, y0 = ls.limiting_solution(A, b, c)
    mus = np.array([1e-2, 1e-4, 1e-6])
    errs = [np.linalg.norm(
        np.linalg.solve(A @ A.T + mu * np.eye(80), A @ c + mu * b) - y0)
        for mu in mus]
    slope = np.polyfit(np.log(mus), np.log(errs), 1)[0]
    ok = worst_x <= 1e-8 and worst_y <= 1e-8 and abs(slope - 1) <= 0.1
    report(5, ok, f"sps2 canonical solutions (x {worst_x:.2e}, "
                  f"y {worst_y:.2e}), mu-limit slope {slope:.3f}")


def test_criterion_06_nystrom_pcg_vs_cg():
    # 500x500 psd with 10 eigenvalues above mu: Nystrom PCG converges to
    # the 1e-10 stopping residual in <= 25 iterations while plain CG needs
    # >= 200, strict ordering on 10/10 seeds.
    n, mu = 500, 1.0
    pcg_iters, cg_iters = [], []
    for seed in range(10):
        r = np.random.default_rng(seed)
        Q = np.linalg.qr(r.standard_normal((n, n)))[0]
        lam = np.concatenate([np.logspace(11, 2, 10),
                              np.logspace(np.log10(0.9), -6, n - 10)])
        G = (Q * lam) @ Q.T
        h = r.standard_normal(n)
        _, rep_p = ls.nystrom_pcg(G, mu, h, rank=15, oversample=5, tol=1e-10,
                                  maxit=600, seed=seed, power_passes=1)
        _, rep_c = dk.pcg(G, mu, h, tol=1e-10, maxit=600)
        assert rep_p.converged
        pcg_iters.append(rep_p.iterations)
        cg_iters.append(rep_c.iterations)
    ok = max(pcg_iters) <= 25 and min(cg_iters) >= 200 and all(
        p < c for p, c in zip(pcg_iters, cg_iters))
    report(6, ok, f"nystrom pcg <= {max(pcg_iters)} iters vs plain cg >= "
                  f"{min(cg_iters)}, 10/10 seeds")


def test_criterion_07_lowrank_optimality_floor():
    # driver error within [optimal, 1.5 optimal] at rank k with p = 2 for
    # step and exponential spectra (>= 18/20 seeds); qb2 honors tol 20/20.
    k = 5
    results = {}
    for name, sig in (
        ("step", np.array([10.0] * k + [1.0] * 25)),
        ("exp", np.exp(-0.35 * np.arange(30))),
    ):
        hits = 0
        opt = np.sqrt(np.sum(sig[k:] ** 2))
        for seed in range(20):
            r = np.random.default_rng(3000 + seed)
            U = np.linalg.qr(r.standard_normal((300, sig.size)))[0]
            V = np.linalg.qr(r.standard_normal((80, sig.size)))[0]
            A = (U * sig) @ V.T
            out = lr.svd1(A, k, s=5, seed=RngKey(seed), power_passes=2)
            err = np.linalg.norm(A - out.approximation(), "fro")
            hits += (1 - 1e-8) * opt <= err <= 1.5 * opt
        results[name] = hits
    tol_hits = 0
    sig = np.exp(-0.3 * np.arange(40))
    for seed in range(20):
        r = np.random.default_rng(3100 + seed)
        U = np.linalg.qr(r.standard_normal((200, 40)))[0]
        V = np.linalg.qr(r.standard_normal((60, 40)))[0]
        A = (U * sig) @ V.T
        tol = 10.0 ** (-1 - (seed % 3))
        qb = lr.qb2(A, 40, tol=tol, block_size=4, seed=RngKey(seed))
        err = np.linalg.norm(A - qb.approximation(), "fro")
        tol_hits += err <= tol * np.linalg.norm(A, "fro")
    ok = results["step"] >= 18 and results["exp"] >= 18 and tol_hits == 20
    report(7, ok, f"svd1 within 1.5x optimal: step {results['step']}/20, "
                  f"exp {results['exp']}/20; qb2 tol honored {tol_hits}/20")


def test_criterion_08_id_regularity_and_chain_bound():
    # M[:, J] = I exactly and the two-sided interpolation chain bound holds on
    # every full-rank-sketch ID output, 20/20 (both sides computed densely).
    ok = True
    for seed in range(20):
        sig = np.logspace(0, -2, 14)
        r = np.random.default_rng(3200 + seed)
        U = np.linalg.qr(r.standard_normal((120, 14)))[0]
        V = np.linalg.qr(r.standard_normal((50, 14)))[0]
        A = (U * sig) @ V.T
        k = 6
        oid = lr.osid1(A, k, s=0, axis="column", seed=RngKey(seed),
                       power_passes=2)
        ok = ok and np.array_equal(oid.M[:, oid.skeleton], np.eye(k))
        S = lr.tsog1(A.T, k, p=2, seed=RngKey(seed))
        Y = S.T @ A
        lhs = np.linalg.norm(A - A[:, oid.skeleton] @ oid.M, 2)
        eps_y = np.linalg.norm(A - A @ np.linalg.pinv(Y) @ Y, 2)
        rhs = (1 + np.linalg.norm(oid.M, 2)) * eps_y
        sig_kp1 = np.linalg.svd(A, compute_uv=False)[k]
        ok = ok and (1 - 1e-8) * sig_kp1 <= lhs <= rhs * (1 + 1e-10)
    report(8, ok, "ID regularity exact and interpolation chain bound 20/20")


def test_criterion_09_cholesky_qrcp():
    # reconstruction <= 1e-10 relative and max |Q^T Q - I| <= 1e-10 for
    # full-rank and rank-(n-3) matrices with cond up to 1e10, 20/20 seeds;
    # the reciprocal-singular-value identity to 1e-8 (cond up to 1e8,
    # where the comparison itself is computable at that accuracy).
    n = 50
    worst_recon = worst_orth = 0.0
    for seed in range(20):
        cond = [1e2, 1e6, 1e10][seed % 3]
        rank = n if seed % 2 == 0 else n - 3
        A = conditioned(2000, n, cond, rank=rank, seed=seed + 500)
        res = fr.sap_chol_qrcp(A, seed=RngKey(seed))
        assert res.rank == rank
        worst_recon = max(worst_recon, np.linalg.norm(
            A[:, res.J] - res.Q @ res.R) / np.linalg.norm(A))
        worst_orth = max(worst_orth, np.abs(
            res.Q.T @ res.Q - np.eye(res.rank)).max())
    worst_p52 = 0.0
    for seed in range(10):
        cond = [1e2, 1e6, 1e8][seed % 3]
        A = conditioned(1500, 40, cond, seed=seed + 600)
        d = 160
        res = fr.sap_chol_qrcp(A, d=d, seed=RngKey(seed + 50),
                               op_family="gaussian")
        k = res.rank
        A_pre = dk.solve_triangular(res.sketch_r[:k, :k], A[:, res.J[:k]].T,
                                    trans="T").T
        S = sk.sample_operator("gaussian", d, 1500, RngKey(seed + 50))
        U = lr.orth(A)
        sv_pre = np.sort(np.linalg.svd(A_pre, compute_uv=False))
        sv_su = np.sort(1.0 / np.linalg.svd(S.apply(U), compute_uv=False))
        worst_p52 = max(worst_p52, np.abs(sv_pre - sv_su).max() / sv_su.max())
    ok = worst_recon <= 1e-10 and worst_orth <= 1e-10 and worst_p52 <= 1e-8
    report(9, ok, f"chol qrcp: recon {worst_recon:.2e}, orth "
                  f"{worst_orth:.2e}, reciprocal identity {worst_p52:.2e}")


def test_criterion_10_trace_estimators():
    n = 100
    est = tr.girard_hutchinson(np.eye(n), n, 30, "rademacher", seed=1)
    gh_ok = est.value == float(n) and est.sample_variance == 0.0

    r = np.random.default_rng(2)
    V = np.linalg.qr(r.standard_normal((n, 6)))[0]
    lam_r = np.array([9.0, 7.0, 5.0, 3.0, 2.0, 1.0])
    A = (V * lam_r) @ V.T
    est = tr.hutch_pp(A, n, 30, seed=3)  # sketch budget 10 >= rank 6
    hpp_ok = (abs(est.value - lam_r.sum()) <= 1e-10 * lam_r.sum()
              and est.sample_variance <= 1e-16)

    lam = np.linspace(0.05, 3.0, n)
    Q = np.linalg.qr(r.standard_normal((n, n)))[0]
    B = (Q * lam) @ Q.T
    truth = float(np.exp(np.linalg.eigvalsh(B)).sum())
    est = tr.slq(B, n, np.exp, 50, 20, seed=4)
    slq_ok = abs(est.value - truth) <= 0.05 * truth

    # degree <= 2s - 1 exactness, s <= 5, on 10x10 matrices
    from randla import rng as _rng
    exact_ok = True
    for s in (1, 3, 5):
        B10 = (lambda Qm, lm: (Qm * lm) @ Qm.T)(
            np.linalg.qr(r.standard_normal((10, 10)))[0],
            r.uniform(0.5, 2.0, 10))
        coeffs = r.standard_normal(2 * s)
        lamB, VB = np.linalg.eigh(B10)
        pB = (VB * np.polyval(coeffs, lamB)) @ VB.T
        est = tr.slq(B10, 10, lambda t: np.polyval(coeffs, t), 3, s, seed=5)
        for i in range(3):
            w = _rng.rademacher_stream(RngKey(5).substream(i), 10)
            direct = w @ pB @ w
            exact_ok = exact_ok and abs(est.samples[i] - direct) <= 1e-8 * max(
                abs(direct), 1.0)
    ok = gh_ok and hpp_ok and slq_ok and exact_ok
    report(10, ok, f"trace: GH exact {gh_ok}, Hutch++ exact {hpp_ok}, "
                   f"SLQ exp 5% {slq_ok}, quadrature exactness {exact_ok}")


def test_criterion_11_leverage_scores():
    # exact scores: sum = rank and gauge invariance to 1e-10
    r = np.random.default_rng(6)
    A = r.standard_normal((500, 20))
    G = r.standard_normal((20, 20))
    exact = lev.exact_leverage(A).scores
    exact_ok = (abs(exact.sum() - 20.0) <= 1e-8
                and np.abs(exact - lev.exact_leverage(A @ G).scores).max()
                <= 1e-10)

    # approximate scores within a multiplicative factor of 2 on an
    # incoherent 5000x50 matrix, >= 18/20 seeds (d1 = 12n, d2 = 200: the
    # sizes at which the factor-2 guarantee holds empirically)
    m, n = 5000, 50
    A = np.random.default_rng(7).standard_normal((m, n))
    exact = lev.exact_leverage(A).scores
    hits = 0
    for seed in range(20):
        approx = lev.approx_leverage(A, 12 * n, 200, seed=RngKey(seed)).scores
        hits += np.abs(approx / exact - 1.0).max() <= 1.0
    approx_ok = hits >= 18

    # leverage-vs-uniform row sampling separation on a coherent 4000x20
    # instance at d = ceil((n/eps^2) ln n * 4), eps = 0.5
    spec = bench.MatrixSpec(4000, 20,
                            {"kind": "step", "r": 1, "gap": 100.0},
                            {"kind": "spiked", "rows": 1, "weight": 100.0},
                            seed=8)
    Ac = bench.gen_matrix(spec)
    eps = 0.5
    d = int(np.ceil(20 / eps ** 2 * np.log(20) * 4))
    p_lev = lev.leverage_distribution(lev.exact_leverage(Ac)).probs
    p_unif = np.full(4000, 1 / 4000.0)
    ys = Ac @ np.random.default_rng(9).standard_normal((20, 50))
    norms2 = np.linalg.norm(ys, axis=0) ** 2
    lev_pass = unif_fail = 0
    for seed in range(50):
        Sl = sk.sample_row_sampler(d, p_lev, RngKey(4000 + seed))
        vals = np.linalg.norm(Sl.apply(ys), axis=0) ** 2
        lev_pass += np.all((vals >= (1 - eps) * norms2)
                           & (vals <= (1 + eps) * norms2))
        Su = sk.sample_row_sampler(d, p_unif, RngKey(5000 + seed))
        vals = np.linalg.norm(Su.apply(ys), axis=0) ** 2
        unif_fail += not np.all((vals >= (1 - eps) * norms2)
                                & (vals <= (1 + eps) * norms2))
    sep_ok = lev_pass >= 45 and unif_fail >= 25
    ok = exact_ok and approx_ok and sep_ok
    report(11, ok, f"leverage: exact {exact_ok}, factor-2 {hits}/20, "
                   f"separation lev {lev_pass}/50 vs uniform fails "
                   f"{unif_fail}/50")


def test_criterion_12_bootstrap_coverage():
    # empirical coverage of the 0.9-quantile estimate within [0.8, 0.98]
    # over 200 trials, for least squares and for singular values.
    r = np.random.default_rng(10)
    m, n, d = 2000, 10, 120
    A = r.standard_normal((m, n)) * np.logspace(0, 1, n)
    b = A @ r.standard_normal(n) + r.standard_normal(m)
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    ls_hits = 0
    for t in range(200):
        key = RngKey(6000 + t)
        x_hat, A_hat, b_hat = ls.sketch_and_solve_ols(A, b, d, seed=key)
        res = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=100, alpha=0.1,
                              seed=key.substream(99))
        ls_hits += np.linalg.norm(x_hat - x_star) <= res.quantile_estimate
    ls_cov = ls_hits / 200.0

    m2, n2, d2, k = 3000, 20, 300, 3
    A2 = r.standard_normal((m2, n2)) * np.concatenate([[8, 5, 3],
                                                       np.ones(n2 - 3)])
    sig_true = np.linalg.svd(A2, compute_uv=False)[:k]
    svd_hits = 0
    for t in range(200):
        key = RngKey(7000 + t)
        S = sk.sample_operator("gaussian", d2, m2, key)
        A_hat = S.apply(A2) / np.sqrt(d2)
        sig_hat = np.linalg.svd(A_hat, compute_uv=False)[:k]
        q_sig, _ = ee.bootstrap_svd(A_hat, k, B=100, alpha=0.1,
                                    seed=key.substream(99))
        svd_hits += np.abs(sig_hat - sig_true).max() <= q_sig.quantile_estimate
    svd_cov = svd_hits / 200.0
    ok = 0.8 <= ls_cov <= 0.98 and 0.8 <= svd_cov <= 0.98
    report(12, ok, f"bootstrap coverage: least squares {ls_cov:.3f}, "
                   f"singular values {svd_cov:.3f} (target [0.8, 0.98])")


def test_criterion_13_cli_reproducibility(tmp_path):
    # rerunning a CLI experiment reproduces every numeric column except
    # the timings.
    cfg = {
        "driver": "sps2",
        "matrix": {"m": 400, "n": 12,
                   "spectrum": {"kind": "exp", "decay": 0.2}, "seed": 3},
        "params": {"mu": 0.5, "tol": 1e-12},
        "trials": 4, "seed": "0x5",
    }
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", out2,
                     "--parallel", "4"]) == 0
    rows1 = list(csv.DictReader(open(out1 + ".csv")))
    rows2 = list(csv.DictReader(open(out2 + ".csv")))
    ok = len(rows1) == 4
    for r1, r2 in zip(rows1, rows2):
        for key in r1:
            if key != "wall_ms":
                ok = ok and r1[key] == r2[key]
    report(13, ok, "CLI rerun bitwise-identical apart from timings")
