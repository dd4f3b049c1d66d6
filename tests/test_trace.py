import numpy as np
import pytest

from randla import detkernels as dk, trace as tr
from randla.rng import RngKey


def random_psd(n, lam, seed=0):
    r = np.random.default_rng(seed)
    Q = np.linalg.qr(r.standard_normal((n, n)))[0]
    return (Q * np.asarray(lam, dtype=float)) @ Q.T


# ---------------------------------------------------------------------------
# Girard-Hutchinson
# ---------------------------------------------------------------------------

def test_gh_identity_exact_zero_variance():
    est = tr.girard_hutchinson(np.eye(9), 9, 25, "rademacher", seed=1)
    assert est.value == 9.0
    assert est.sample_variance == 0.0
    assert np.all(est.samples == 9.0)


def test_gh_sign_pattern_enumeration():
    # A = diag(1, -1): w^T A w over the four rademacher sign patterns is
    # always w1^2 - w2^2 = 0; the oracle enumeration confirms {0} only
    A = np.diag([1.0, -1.0])
    patterns = [np.array([a, b]) for a in (-1, 1) for b in (-1, 1)]
    values = sorted({float(w @ A @ w) for w in patterns})
    assert values == [0.0]
    est = tr.girard_hutchinson(A, 2, 100, "rademacher", seed=2)
    assert est.value == 0.0


def test_gh_offdiagonal_sign_pattern():
    # with an off-diagonal entry the patterns give {-2c, +2c}
    c = 0.7
    A = np.array([[1.0, c], [c, -1.0]])
    patterns = [np.array([a, b]) for a in (-1, 1) for b in (-1, 1)]
    values = sorted({round(float(w @ A @ w), 12) for w in patterns})
    assert values == [-2 * c, 2 * c]
    est = tr.girard_hutchinson(A, 2, 10**4, "rademacher", seed=3)
    sigma = 2 * c / np.sqrt(10**4)
    assert abs(est.value - 0.0) <= 3 * sigma


def test_gh_variance_bound_rademacher():
    # sample variance stays near the closed form 2(||A||_F^2 - sum A_ii^2)
    r = np.random.default_rng(4)
    A = r.standard_normal((30, 30))
    A = 0.5 * (A + A.T)
    theory = 2 * (np.linalg.norm(A, "fro") ** 2 - np.sum(np.diag(A) ** 2))
    est = tr.girard_hutchinson(A, 30, 4000, "rademacher", seed=5)
    assert est.sample_variance <= 1.2 * theory


def test_gh_unbiasedness():
    r = np.random.default_rng(6)
    A = r.standard_normal((50, 50))
    A = 0.5 * (A + A.T)
    truth = np.trace(A)
    est = tr.girard_hutchinson(A, 50, 5000, "rademacher", seed=7)
    sigma1 = np.sqrt(2 * (np.linalg.norm(A, "fro") ** 2
                          - np.sum(np.diag(A) ** 2)))
    assert abs(est.value - truth) <= 4 * sigma1 / np.sqrt(5000)


def test_gh_distributions_isotropic():
    A = random_psd(40, np.linspace(1, 4, 40), seed=8)
    truth = np.trace(A)
    for dist in ("rademacher", "gaussian", "sphere"):
        est = tr.girard_hutchinson(A, 40, 3000, dist, seed=9)
        assert abs(est.value - truth) / truth < 0.05


def test_gh_scheduling_independence():
    # probe i is a pure function of (seed, i)
    A = random_psd(20, np.linspace(1, 2, 20), seed=10)
    est5 = tr.girard_hutchinson(A, 20, 5, seed=11)
    est9 = tr.girard_hutchinson(A, 20, 9, seed=11)
    assert np.array_equal(est5.samples, est9.samples[:5])


# ---------------------------------------------------------------------------
# Hutch++
# ---------------------------------------------------------------------------

def test_hutchpp_exact_on_low_rank_psd():
    r = np.random.default_rng(12)
    V = np.linalg.qr(r.standard_normal((60, 4)))[0]
    A = (V * [5.0, 4.0, 3.0, 2.0]) @ V.T
    est = tr.hutch_pp(A, 60, 24, seed=13)
    assert abs(est.value - 14.0) <= 1e-10 * 14.0
    assert est.sample_variance <= 1e-20


def test_hutchpp_identity_within_mc_bounds():
    n, m = 50, 30
    est = tr.hutch_pp(np.eye(n), n, m, seed=14)
    # the deflated remainder of the identity has variance <= 2(n - q)/probes
    assert abs(est.value - n) <= 3 * np.sqrt(2.0 * n / est.probes_used)


def test_hutchpp_split_identity_dense():
    # trace(Q^T A Q) + trace(Delta) = trace(A) exactly when formed densely
    r = np.random.default_rng(15)
    A = r.standard_normal((12, 12))
    A = 0.5 * (A + A.T)
    Q = np.linalg.qr(r.standard_normal((12, 4)))[0]
    P = np.eye(12) - Q @ Q.T
    delta = P @ A @ P
    assert np.isclose(np.trace(Q.T @ A @ Q) + np.trace(delta), np.trace(A))


def test_hutchpp_beats_gh_on_decaying_spectrum():
    lam = np.arange(1, 81, dtype=float) ** -2.0
    A = random_psd(80, lam, seed=16)
    truth = np.trace(A)
    budget = 36
    wins = 0
    for seed in range(20):
        hpp = tr.hutch_pp(A, 80, budget, seed=RngKey(300 + seed))
        gh = tr.girard_hutchinson(A, 80, budget, seed=RngKey(300 + seed))
        wins += abs(hpp.value - truth) <= abs(gh.value - truth)
    assert wins >= 16


def test_hutchpp_budget_validation():
    with pytest.raises(ValueError):
        tr.hutch_pp(np.eye(4), 4, 5, seed=0)


# ---------------------------------------------------------------------------
# stochastic Lanczos quadrature
# ---------------------------------------------------------------------------

def test_slq_identity_function_matches_quadratic_form():
    from randla import rng as _rng
    B = random_psd(30, np.linspace(1, 5, 30), seed=17)
    est = tr.slq(B, 30, lambda t: t, 4, 8, seed=18)
    for i in range(4):
        w = _rng.rademacher_stream(RngKey(18).substream(i), 30)
        assert np.isclose(est.samples[i], w @ B @ w, rtol=1e-10)


def test_slq_scaled_identity():
    lam = 2.5
    est = tr.slq(lam * np.eye(12), 12, np.exp, 5, 3, seed=19)
    assert np.isclose(est.value, 12 * np.exp(lam))
    assert est.sample_variance <= 1e-18


def test_slq_exp_against_dense_oracle():
    lam = np.linspace(0.1, 3.0, 100)
    B = random_psd(100, lam, seed=20)
    truth = float(np.exp(np.linalg.eigvalsh(B)).sum())
    est = tr.slq(B, 100, np.exp, 50, 20, seed=21)
    assert abs(est.value - truth) <= 0.05 * truth


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_slq_polynomial_exactness(s):
    # Gaussian quadrature with s nodes integrates polynomials of degree
    # <= 2s - 1 exactly, so each sample equals w^T p(B) w
    from randla import rng as _rng
    r = np.random.default_rng(22)
    B = random_psd(10, r.uniform(0.5, 3.0, 10), seed=23)
    coeffs = r.standard_normal(2 * s)  # degree 2s - 1
    lam, V = np.linalg.eigh(B)
    pB = (V * np.polyval(coeffs, lam)) @ V.T

    def p(t):
        return np.polyval(coeffs, t)

    est = tr.slq(B, 10, p, 6, s, seed=24)
    for i in range(6):
        w = _rng.rademacher_stream(RngKey(24).substream(i), 10)
        direct = w @ pB @ w
        assert abs(est.samples[i] - direct) <= 1e-8 * max(abs(direct), 1.0)


def test_slq_quadrature_rule_mass():
    B = random_psd(25, np.linspace(1, 2, 25), seed=25)
    probe = np.random.default_rng(26).standard_normal(25)
    rule = tr.lanczos_quadrature(B, probe, 8)
    assert np.isclose(rule.weights.sum(), np.linalg.norm(probe) ** 2,
                      rtol=1e-8)
    lam = np.linalg.eigvalsh(B)
    assert rule.nodes.min() >= lam.min() - 1e-8
    assert rule.nodes.max() <= lam.max() + 1e-8


def test_slq_domain_error_reports_node():
    B = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(ValueError, match="node"):
        tr.slq(B, 3, np.log, 2, 3, seed=27)


def test_parse_scalar_function():
    assert tr.parse_scalar_function("identity")(3.0) == 3.0
    assert tr.parse_scalar_function("exp")(0.0) == 1.0
    assert tr.parse_scalar_function("log1p")(0.0) == 0.0
    f = tr.parse_scalar_function("inv_shift(0.5)")
    assert f(0.5) == 1.0
    with pytest.raises(ValueError):
        tr.parse_scalar_function("tan")


# ---------------------------------------------------------------------------
# block probes
# ---------------------------------------------------------------------------

class CountingOperator:
    def __init__(self, M):
        self.M = M
        self.shapes = []

    def __call__(self, V):
        self.shapes.append(V.shape)
        return self.M @ V


def test_probe_columns_match_per_probe_streams():
    from randla import rng as _rng
    seed, n = RngKey(40, 3), 33
    for dist, stream in (("rademacher", _rng.rademacher_stream),
                         ("gaussian", _rng.gaussian_stream)):
        W = tr._probes(dist, seed, 5, tr.PROBE_BLOCK, n)
        for j in range(tr.PROBE_BLOCK):
            assert np.array_equal(W[:, j], stream(seed.substream(5 + j), n))
    W = tr._probes("sphere", seed, 5, 3, n)
    for j in range(3):
        g = _rng.gaussian_stream(seed.substream(5 + j), n)
        assert np.array_equal(W[:, j], g * (np.sqrt(n) / np.linalg.norm(g)))


# the edges of a PROBE_BLOCK-wide block, and mid-block counts that leave
# most of a block as padding; the reference spans three blocks
P = tr.PROBE_BLOCK
EDGES = sorted({5, 31, 32, 33, 70, P - 1, P, P + 1, 2 * P + 2})


@pytest.mark.parametrize("m", EDGES)
def test_gh_samples_bitwise_stable_across_block_edges(m):
    A = random_psd(50, np.linspace(1, 2, 50), seed=41)
    ref = tr.girard_hutchinson(A, 50, 2 * P + 2, "gaussian", seed=42)
    est = tr.girard_hutchinson(A, 50, m, "gaussian", seed=42)
    assert np.array_equal(est.samples, ref.samples[:m])


@pytest.mark.parametrize("m", EDGES)
def test_slq_samples_bitwise_stable_across_block_edges(m):
    B = random_psd(50, np.linspace(1, 2, 50), seed=43)
    ref = tr.slq(B, 50, np.log, 2 * P + 2, 6, seed=44)
    est = tr.slq(B, 50, np.log, m, 6, seed=44)
    assert np.array_equal(est.samples, ref.samples[:m])


def test_estimators_apply_the_operator_once_per_block():
    n = 40
    A = random_psd(n, np.linspace(1, 2, n), seed=45)
    op = CountingOperator(A)
    tr.girard_hutchinson(op, n, 70, seed=46)
    assert op.shapes == [(n, 64)] * 2
    op = CountingOperator(A)
    est = tr.hutch_pp(op, n, 60, seed=47)  # S and Q of 20 columns, 20 probes
    assert est.probes_used == 20
    assert op.shapes == [(n, 20), (n, 20), (n, 64)]
    op = CountingOperator(A)
    tr.slq(op, n, np.log, 40, 5, seed=48)  # one block, one product per step
    assert op.shapes == [(n, 64)] * 5


def test_slq_samples_match_single_probe_quadrature():
    from randla import rng as _rng
    B = random_psd(30, np.linspace(0.5, 2, 30), seed=49)
    est = tr.slq(B, 30, np.log, 3, 8, seed=50)
    for i in range(3):
        w = _rng.rademacher_stream(RngKey(50).substream(i), 30)
        rule = tr.lanczos_quadrature(B, w, 8)
        assert np.isclose(est.samples[i], rule.weights @ np.log(rule.nodes),
                          rtol=1e-12)


@pytest.mark.parametrize("estimator", [
    lambda op: tr.girard_hutchinson(op, 6, 4, seed=51),
    lambda op: tr.hutch_pp(op, 6, 9, seed=52),
    lambda op: tr.slq(op, 6, np.exp, 4, 3, seed=53)])
def test_vector_only_operator_raises_clear_error(estimator):
    M = np.diag(np.arange(1.0, 7.0))
    with pytest.raises(ValueError, match=r"\(n, k\) blocks"):
        estimator(lambda v: M @ v[:, 0])


def test_hutchpp_smallest_budget_with_a_probe():
    # a budget of 6 splits 2 + 2 + 2: the remainder keeps m / 3 probes
    est = tr.hutch_pp(np.eye(10), 10, 6, seed=55)
    assert est.probes_used >= 2
    assert np.isfinite(est.value)
    with pytest.raises(ValueError, match="at least 6"):
        tr.hutch_pp(np.eye(10), 10, 5, seed=55)


def test_estimators_take_a_linear_operator_bitwise_as_its_matrix():
    G = np.random.default_rng(1).standard_normal((30, 30))
    B = G @ G.T
    L = dk.LinearOperator(30, 30, lambda V: B @ V, lambda V: B.T @ V)
    for run in (lambda A: tr.girard_hutchinson(A, 30, 70, seed=3),
                lambda A: tr.slq(A, 30, np.log1p, 70, 6, seed=3)):
        assert np.array_equal(run(L).samples, run(B).samples)
