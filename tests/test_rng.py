import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from randla import rng

KEY = rng.RngKey(7, 0)


def box_muller_oracle(u1, u2):
    # direct formula evaluation, independent of the library path
    u1 = max(u1, np.nextafter(0.0, 1.0))
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)


def test_uniform_determinism():
    a = rng.uniform_stream(rng.RngKey(7, 0), 5)
    b = rng.uniform_stream(rng.RngKey(7, 0), 5)
    assert np.array_equal(a, b)


def test_uniform_counter_shift():
    bulk = rng.uniform_stream(KEY, 10)
    shifted = rng.uniform_stream(KEY.advance(3), 4)
    assert np.array_equal(bulk[3:7], shifted)


def test_uniform_statistics():
    u = rng.uniform_stream(KEY, 10**6)
    assert abs(u.mean() - 0.5) < 0.002
    counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
    expected = len(u) / 100
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < scipy.stats.chi2.ppf(0.999, 99)


def test_distinct_keys_are_independent():
    a = rng.uniform_stream(rng.RngKey(1, 0), 10**5)
    b = rng.uniform_stream(rng.RngKey(2, 0), 10**5)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_gaussian_matches_box_muller_oracle():
    n = 11  # odd length exercises the cosine-only tail
    u = rng.uniform_stream(KEY, 12)
    g = rng.gaussian_stream(KEY, n)
    expected = []
    for p in range(6):
        z0, z1 = box_muller_oracle(u[2 * p], u[2 * p + 1])
        expected.extend([z0, z1])
    assert np.array_equal(g, np.array(expected[:n]))


def test_box_muller_formula_fixed_point():
    z0, z1 = box_muller_oracle(0.5, 0.25)
    assert abs(z0 - 0.0) < 1e-15
    assert abs(z1 - np.sqrt(2 * np.log(2))) < 1e-15


def test_gaussian_statistics():
    g = rng.gaussian_stream(KEY, 10**6)
    assert abs(g.mean()) < 0.004
    assert abs(g.var() - 1.0) < 0.01


def test_gaussian_determinism():
    assert np.array_equal(
        rng.gaussian_stream(rng.RngKey(3, 9), 101),
        rng.gaussian_stream(rng.RngKey(3, 9), 101),
    )


def test_rademacher():
    r = rng.rademacher_stream(KEY, 10**6)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 0.004
    assert np.array_equal(r, rng.rademacher_stream(rng.RngKey(7, 0), 10**6))


def test_rademacher_is_thresholded_uniform():
    u = rng.uniform_stream(KEY, 1000)
    r = rng.rademacher_stream(KEY, 1000)
    assert np.array_equal(r, np.where(u < 0.5, -1.0, 1.0))


@given(
    key=st.integers(min_value=0, max_value=2**64 - 1),
    offset=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=64),
    i=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=50, deadline=None)
def test_order_independence(key, offset, n, i):
    # generating element i alone equals element i of a bulk generation,
    # including across the 2^64 counter wraparound
    i = i % n
    k = rng.RngKey(key, offset)
    bulk = rng.uniform_stream(k, n)
    single = rng.uniform_stream(k.advance(i), 1)
    assert bulk[i] == single[0]


def test_stream_bounds_and_validation():
    u = rng.uniform_stream(KEY, 1000)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert rng.uniform_stream(KEY, 0).size == 0
    with pytest.raises(ValueError):
        rng.uniform_stream(KEY, -1)


def test_substreams_disjoint():
    a = rng.uniform_stream(KEY.substream(0), 100)
    b = rng.uniform_stream(KEY.substream(1), 100)
    assert not np.array_equal(a, b)
    # substream(1) sits exactly 2^40 counters downstream
    assert np.array_equal(b, rng.uniform_stream(KEY.advance(2**40), 100))


def test_parse_seed_token():
    assert rng.parse_seed_token("42") == 42
    assert rng.parse_seed_token("0x2A") == 42
    assert rng.parse_seed_token(7) == 7


@pytest.mark.parametrize("dist, stream", [
    ("uniform", rng.uniform_stream),
    ("gaussian", rng.gaussian_stream),
    ("rademacher", rng.rademacher_stream)])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 33, 2000, 2001])
def test_stream_block_columns_match_streams(dist, stream, n):
    # column j is bitwise the per-stream draw at keys[j], for substreams and
    # advanced keys alike, odd and even lengths
    keys = ([KEY.substream(i) for i in (0, 1, 5, 32)]
            + [KEY.advance(j * 3) for j in range(3)]
            + [rng.RngKey(KEY.key, 2**64 - 3)])  # wraps around 2^64
    block = rng.stream_block(keys, n, dist)
    assert block.shape == (n, len(keys))
    assert block.flags.f_contiguous
    for j, k in enumerate(keys):
        assert np.array_equal(block[:, j], stream(k, n))


def test_stream_block_validation():
    assert rng.stream_block([KEY, KEY.substream(1)], 0).shape == (0, 2)
    assert rng.stream_block([], 5).shape == (5, 0)
    with pytest.raises(ValueError):
        rng.stream_block([KEY], -1)
    with pytest.raises(ValueError):
        rng.stream_block([KEY], 4, "sphere")
    with pytest.raises(ValueError, match="share one"):
        rng.stream_block([rng.RngKey(1), rng.RngKey(2)], 4)
