import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randla import errorest as ee, rng
from randla.rng import RngKey


def test_degenerate_identical_rows_ls():
    # every resample of identical rows solves the same problem exactly
    r = np.random.default_rng(0)
    row = r.standard_normal(4)
    A_hat = np.outer(np.linspace(1, 2, 30), row)  # identical up to scale
    x_hat = np.linalg.lstsq(A_hat, A_hat @ np.ones(4), rcond=None)[0]
    res = ee.bootstrap_ls(A_hat, A_hat @ x_hat, x_hat, B=25, alpha=0.1, seed=1)
    assert res.quantile_estimate <= 1e-10
    assert np.all(res.replicate_errors <= 1e-10)


def test_single_replicate_is_the_quantile():
    r = np.random.default_rng(2)
    A_hat = r.standard_normal((20, 3))
    b_hat = r.standard_normal(20)
    x_hat = np.linalg.lstsq(A_hat, b_hat, rcond=None)[0]
    res = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=1, alpha=0.37, seed=3)
    assert res.quantile_estimate == res.replicate_errors[0]


def test_bootstrap_ls_norm_options():
    r = np.random.default_rng(4)
    A_hat = r.standard_normal((25, 4))
    b_hat = r.standard_normal(25)
    x_hat = np.linalg.lstsq(A_hat, b_hat, rcond=None)[0]
    r2 = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=30, norm="l2", seed=5)
    ri = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=30, norm="linf", seed=5)
    assert np.all(ri.replicate_errors <= r2.replicate_errors + 1e-15)


def test_bootstrap_ls_rank_deficient_resamples_ok():
    # tiny d makes rank-deficient resamples likely; pseudoinverse handles it
    r = np.random.default_rng(6)
    A_hat = r.standard_normal((4, 3))
    b_hat = r.standard_normal(4)
    x_hat = np.linalg.lstsq(A_hat, b_hat, rcond=None)[0]
    res = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=200, seed=7)
    assert np.all(np.isfinite(res.replicate_errors))


def test_bootstrap_svd_identical_rows():
    rows = np.outer(np.ones(30), np.random.default_rng(8).standard_normal(4))
    q_sig, q_v = ee.bootstrap_svd(rows, 1, B=20, alpha=0.1, seed=9)
    assert q_sig.quantile_estimate <= 1e-10
    assert q_v.quantile_estimate <= 1e-8


def test_bootstrap_svd_weyl_bound():
    # any resample's top singular value is bounded by the max row-count
    # inflation, so deviations stay below 2 sigma_hat_1 here
    r = np.random.default_rng(10)
    A_hat = r.standard_normal((40, 5)) + 5 * np.eye(40, 5)
    sig1 = np.linalg.svd(A_hat, compute_uv=False)[0]
    q_sig, _ = ee.bootstrap_svd(A_hat, 1, B=100, alpha=0.01, seed=11)
    assert np.all(q_sig.replicate_errors <= 2 * sig1)


def test_sign_invariance():
    v = np.random.default_rng(12).standard_normal(6)
    assert ee.sign_invariant_distance(v, -v) == 0.0
    assert ee.sign_invariant_distance(v, v) == 0.0


def test_determinism_and_scheduling_independence():
    r = np.random.default_rng(13)
    A_hat = r.standard_normal((15, 3))
    b_hat = r.standard_normal(15)
    x_hat = np.linalg.lstsq(A_hat, b_hat, rcond=None)[0]
    r1 = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=12, seed=RngKey(5))
    r2 = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=12, seed=RngKey(5))
    assert np.array_equal(r1.replicate_errors, r2.replicate_errors)
    # replicate ell depends only on (seed, ell): a longer run extends it
    r3 = ee.bootstrap_ls(A_hat, b_hat, x_hat, B=20, seed=RngKey(5))
    assert np.array_equal(r1.replicate_errors, r3.replicate_errors[:12])


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=40),
       st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=0.02, max_value=0.98))
@settings(max_examples=60, deadline=None)
def test_quantile_monotone_in_level(values, a1, a2):
    lo, hi = max(a1, a2), min(a1, a2)  # lower alpha = higher level 1 - alpha
    q_low = ee.empirical_quantile(values, lo)
    q_high = ee.empirical_quantile(values, hi)
    assert q_high >= q_low


def test_quantile_inclusive_convention():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # smallest t with #(values <= t)/B >= 0.9 is the 9th order statistic
    assert ee.empirical_quantile(vals, 0.1) == 9.0
    assert ee.empirical_quantile(vals, 0.999) == 1.0


def test_validation():
    A = np.eye(4)
    x = np.ones(4)
    with pytest.raises(ValueError):
        ee.bootstrap_ls(A, np.ones(4), x, B=0)
    with pytest.raises(ValueError):
        ee.bootstrap_ls(A, np.ones(4), x, alpha=1.5)
    with pytest.raises(ValueError):
        ee.bootstrap_svd(np.eye(3), 5)


def test_bootstrap_svd_rejects_k_above_the_column_count():
    # a 5-by-3 sketch has 3 singular values; k = 5 used to fail in a
    # broadcast deep inside the replicate loop
    A_hat = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(ValueError, match=r"need k <= min\(d, n\)"):
        ee.bootstrap_svd(A_hat, 5, B=4)


@pytest.mark.parametrize("B, d", [(1, 7), (40, 200), (7, 300_000)])
def test_resample_indices_match_per_replicate_streams(B, d):
    # the block draw (in chunks of at most 2^20 counters) gives replicate
    # ell bitwise the indices of its own stream seed.substream(ell)
    seed = RngKey(31, 5)
    got = list(ee._resample_indices(seed, B, d))
    assert len(got) == B
    for ell, idx in enumerate(got):
        u = rng.uniform_stream(seed.substream(ell), d)
        assert np.array_equal(idx, np.minimum((u * d).astype(np.int64), d - 1))
