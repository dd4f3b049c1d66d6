import numpy as np
import pytest

from randla import leverage as lev, lowrank, sketching
from randla.rng import RngKey


# ---------------------------------------------------------------------------
# exact scores
# ---------------------------------------------------------------------------

def test_exact_leverage_coordinate_basis():
    A = np.eye(3)[:, :2]
    assert np.allclose(lev.exact_leverage(A).scores, [1.0, 1.0, 0.0])


def test_exact_leverage_orthonormal_columns():
    A = np.linalg.qr(np.random.default_rng(0).standard_normal((40, 6)))[0]
    scores = lev.exact_leverage(A).scores
    assert np.allclose(scores, np.sum(A * A, axis=1))


def test_exact_leverage_gauge_invariance():
    r = np.random.default_rng(1)
    A = r.standard_normal((60, 8))
    G = r.standard_normal((8, 8))
    assert np.abs(lev.exact_leverage(A).scores
                  - lev.exact_leverage(A @ G).scores).max() <= 1e-10


def test_exact_leverage_sum_is_rank():
    r = np.random.default_rng(2)
    A = r.standard_normal((50, 10))
    assert np.isclose(lev.exact_leverage(A).scores.sum(), 10.0, atol=1e-8)
    B = r.standard_normal((50, 4)) @ r.standard_normal((4, 10))
    assert np.isclose(lev.exact_leverage(B).scores.sum(), 4.0, atol=1e-8)


def test_exact_leverage_bounds():
    r = np.random.default_rng(3)
    A = r.standard_normal((30, 5))
    scores = lev.exact_leverage(A).scores
    assert np.all(scores >= -1e-12)
    assert np.all(scores <= 1 + 1e-12)


def test_coherence_bounds():
    r = np.random.default_rng(4)
    m, n = 200, 8
    A = r.standard_normal((m, n))
    c = lev.coherence(A)
    assert n - 1e-8 <= c <= m + 1e-8


# ---------------------------------------------------------------------------
# approximate scores
# ---------------------------------------------------------------------------

def test_approx_leverage_exact_stage_two_identity():
    # d1 = m and an identity stage-two matrix leave no approximation
    r = np.random.default_rng(5)
    m, n = 256, 10
    A = r.standard_normal((m, n))
    approx = lev.approx_leverage(A, m, n, seed=6, s2=np.eye(n)).scores
    exact = lev.exact_leverage(A).scores
    assert np.abs(approx - exact).max() <= 1e-6


def test_approx_leverage_multiplicative_factor():
    # factor-2 recovery at roomy sketch sizes
    r = np.random.default_rng(7)
    m, n = 3000, 40
    A = r.standard_normal((m, n))
    exact = lev.exact_leverage(A).scores
    hits = 0
    for seed in range(10):
        approx = lev.approx_leverage(A, 12 * n, 200, seed=RngKey(seed)).scores
        hits += np.abs(approx / exact - 1.0).max() <= 1.0
    assert hits >= 9


def test_approx_leverage_documented_defaults_sane():
    # at the aggressive defaults (d1 = 4n) the stage-one sketch distorts by
    # about its effective distortion (~0.5), so expect factor-3 accuracy
    r = np.random.default_rng(7)
    m, n = 3000, 40
    A = r.standard_normal((m, n))
    exact = lev.exact_leverage(A).scores
    d1, d2 = 4 * n, int(np.ceil(8 * np.log(m)))
    approx = lev.approx_leverage(A, d1, d2, seed=RngKey(0)).scores
    assert np.abs(approx / exact - 1.0).max() <= 3.0


def test_approx_leverage_two_accesses(monkeypatch):
    # the fast path touches A exactly twice: once in the stage-one sketch,
    # once in the final product
    touches = {"count": 0}
    real_srft = sketching.sample_srft

    def counting_srft(d, m, seed):
        op = real_srft(d, m, seed)
        real_apply = op.apply

        def apply(A, side="left"):
            touches["count"] += 1
            return real_apply(A, side)

        object.__setattr__(op, "apply", apply)
        return op

    monkeypatch.setattr(lev.sketching, "sample_srft", counting_srft)

    class Counting(np.ndarray):
        def __matmul__(self, other):
            touches["count"] += 1
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            touches["count"] += 1
            return np.asarray(other) @ np.asarray(self)

    A = np.random.default_rng(8).standard_normal((128, 6)).view(Counting)
    lev.approx_leverage(A, 64, 5, seed=9)
    assert touches["count"] == 2


def test_approx_leverage_rank_deficient_warns():
    r = np.random.default_rng(10)
    A = r.standard_normal((100, 4)) @ np.array([[1.0, 0, 0, 1], [0, 1, 0, 0],
                                                [0, 0, 1, 0], [1, 0, 0, 1]])
    with pytest.warns(RuntimeWarning):
        scores = lev.approx_leverage(A, 32, 8, seed=11).scores
    assert np.all(np.isfinite(scores))


# ---------------------------------------------------------------------------
# subspace scores
# ---------------------------------------------------------------------------

def test_subspace_leverage_constructed_factors():
    r = np.random.default_rng(12)
    U0 = np.linalg.qr(r.standard_normal((300, 12)))[0]
    V0 = np.linalg.qr(r.standard_normal((40, 12)))[0]
    sig = np.array([10.0, 9.0] + [1e-6] * 10)
    A = (U0 * sig) @ V0.T
    out = lev.subspace_leverage(A, 2, s=4, seed=13, power_passes=2)
    truth = np.sum(U0[:, :2] ** 2, axis=1)
    assert np.abs(out.scores - truth).max() <= 1e-3
    assert out.kind == "rank_k" and out.k == 2


def test_subspace_leverage_sums_to_k():
    r = np.random.default_rng(14)
    A = r.standard_normal((80, 30))
    out = lev.subspace_leverage(A, 6, s=4, seed=15)
    assert abs(out.scores.sum() - 6.0) <= 1e-6


def test_subspace_leverage_reads_the_left_factor_of_svd1():
    A = np.random.default_rng(19).standard_normal((90, 40)) * 0.8 ** np.arange(40)
    U = lowrank.svd1(A, 10, s=5, seed=RngKey(20)).U
    out = lev.subspace_leverage(A, 10, s=5, seed=RngKey(20))
    assert np.array_equal(out.scores, np.sum(U * U, axis=1))


@pytest.mark.parametrize("k", [0, -1])
def test_subspace_leverage_rejects_nonpositive_rank(k):
    A = np.random.default_rng(18).standard_normal((30, 10))
    with pytest.raises(ValueError, match="k"):
        lev.subspace_leverage(A, k, s=4)


def test_subspace_leverage_scaling_stability():
    # top-score ordering is stable under global column scaling
    r = np.random.default_rng(16)
    U0 = np.linalg.qr(r.standard_normal((200, 10)))[0]
    V0 = np.linalg.qr(r.standard_normal((30, 10)))[0]
    sig = np.array([50.0, 40.0, 30.0] + [0.1] * 7)
    A = (U0 * sig) @ V0.T
    s1 = lev.subspace_leverage(A, 3, s=4, seed=17).scores
    s2 = lev.subspace_leverage(5.0 * A, 3, s=4, seed=17).scores
    top1 = np.argsort(s1)[::-1][:10]
    top2 = np.argsort(s2)[::-1][:10]
    assert np.array_equal(top1, top2)


# ---------------------------------------------------------------------------
# sampling distributions
# ---------------------------------------------------------------------------

def test_leverage_distribution_basic():
    d = lev.leverage_distribution(np.array([1.0, 1.0, 0.0]))
    assert np.allclose(d.probs, [0.5, 0.5, 0.0])
    u = lev.leverage_distribution(np.full(7, 0.3))
    assert np.allclose(u.probs, 1.0 / 7)
    assert np.isclose(u.probs.sum(), 1.0)


def test_leverage_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        lev.leverage_distribution(np.zeros(4))
    with pytest.raises(ValueError):
        lev.leverage_distribution(np.array([0.5, -0.1]))


def test_leverage_distribution_accepts_scores_object():
    A = np.random.default_rng(18).standard_normal((20, 3))
    scores = lev.exact_leverage(A)
    d = lev.leverage_distribution(scores)
    assert np.isclose(d.probs.sum(), 1.0)


def test_leverage_sampling_separation_small():
    # a heavy top direction makes uniform row sampling fail the two-sided
    # embedding bound while leverage sampling passes (small-scale preview
    # of the acceptance-scale experiment)
    from randla import bench
    spec = bench.MatrixSpec(800, 10,
                            {"kind": "step", "r": 1, "gap": 50.0},
                            {"kind": "spiked", "rows": 1, "weight": 50.0},
                            seed=19)
    A = bench.gen_matrix(spec)
    scores = lev.exact_leverage(A)
    p_lev = lev.leverage_distribution(scores).probs
    d = 300
    eps = 0.5
    r = np.random.default_rng(20)
    ys = A @ r.standard_normal((10, 25))
    lev_ok = unif_ok = 0
    for seed in range(10):
        S = sketching.sample_row_sampler(d, p_lev, RngKey(seed))
        vals = np.linalg.norm(S.apply(ys), axis=0) ** 2
        lev_ok += np.all((vals >= (1 - eps) * np.linalg.norm(ys, axis=0) ** 2)
                         & (vals <= (1 + eps) * np.linalg.norm(ys, axis=0) ** 2))
        Su = sketching.sample_row_sampler(d, np.full(800, 1 / 800.0),
                                          RngKey(100 + seed))
        vals_u = np.linalg.norm(Su.apply(ys), axis=0) ** 2
        unif_ok += np.all(
            (vals_u >= (1 - eps) * np.linalg.norm(ys, axis=0) ** 2)
            & (vals_u <= (1 + eps) * np.linalg.norm(ys, axis=0) ** 2))
    assert lev_ok >= 8
    assert unif_ok <= 4
