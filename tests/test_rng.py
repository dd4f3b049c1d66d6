import hashlib
import tracemalloc

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


@pytest.mark.parametrize("n", [1, 2 * rng._CHUNK + 3])
def test_derived_streams_draw_their_uniforms_through_uniform_stream(
        monkeypatch, n):
    # every counter of a single-key draw passes through uniform_stream, so
    # a wrapper of uniform_stream sees each one
    drawn = []
    inner = rng.uniform_stream

    def counting(k, m):
        drawn.append(m)
        return inner(k, m)

    monkeypatch.setattr(rng, "uniform_stream", counting)
    rng.gaussian_stream(KEY, n)
    assert sum(drawn) == rng.gaussian_counters_used(n)
    drawn.clear()
    rng.rademacher_stream(KEY, n)
    rng.uniform_grid(KEY, n, 2)
    assert sum(drawn) == 3 * n
    assert max(drawn) <= max(rng._CHUNK, 2 * n)


# ---------------------------------------------------------------------------
# The full-array generator the chunked kernel replaced, kept as the reference
# it must match bitwise: counters, Philox 4x32-10 over whole arrays, 53-bit
# doubles, Box-Muller on interleaved pairs, thresholded signs.
# ---------------------------------------------------------------------------

def oracle_words(key, counters):
    m32, sh = np.uint64(0xFFFFFFFF), np.uint64(32)
    c0, c1 = counters & m32, counters >> sh
    c2, c3 = np.zeros_like(counters), np.zeros_like(counters)
    k0, k1 = np.uint64(key & 0xFFFFFFFF), np.uint64(key >> 32)
    for _ in range(10):
        p0 = c0 * np.uint64(0xD2511F53)
        p1 = c2 * np.uint64(0xCD9E8D57)
        c0, c1, c2, c3 = ((p1 >> sh) ^ c1 ^ k0, p1 & m32,
                          (p0 >> sh) ^ c3 ^ k1, p0 & m32)
        k0 = (k0 + np.uint64(0x9E3779B9)) & m32
        k1 = (k1 + np.uint64(0xBB67AE85)) & m32
    return c0, c1


def oracle_uniform(k, n):
    with np.errstate(over="ignore"):
        counters = np.arange(n, dtype=np.uint64) + np.uint64(k.counter_offset)
    x0, x1 = oracle_words(k.key, counters)
    return (((x0 >> np.uint64(5)) << np.uint64(26))
            | (x1 >> np.uint64(6))) * (2.0 ** -53)


def oracle_stream(k, n, dist):
    if dist == "gaussian":
        u = oracle_uniform(k, 2 * ((n + 1) // 2))
        u1 = np.maximum(u[0::2], np.nextafter(0.0, 1.0))
        theta = 2.0 * np.pi * u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(u.shape)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]
    u = oracle_uniform(k, n)
    return np.where(u < 0.5, -1.0, 1.0) if dist == "rademacher" else u


STREAMS = {"uniform": rng.uniform_stream, "gaussian": rng.gaussian_stream,
           "rademacher": rng.rademacher_stream}


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_philox_known_answer():
    # Random123's known answer for philox4x32-10 at counter 0, key 0 (the
    # two words used here; words 2 and 3 are never read)
    x0, x1 = oracle_words(0, np.zeros(1, dtype=np.uint64))
    assert (int(x0[0]), int(x1[0])) == (0x6627E8D5, 0xE169C58D)
    u = ((0x6627E8D5 >> 5) * 2**26 + (0xE169C58D >> 6)) * 2.0 ** -53
    assert rng.uniform_stream(rng.RngKey(0, 0), 1)[0] == u
    assert rng.rademacher_stream(rng.RngKey(0, 0), 1)[0] == -1.0  # u < 1/2


C = rng._CHUNK
GOLDEN_KEYS = {"K": rng.RngKey(0x0123456789ABCDEF, 12345),
               "WRAP": rng.RngKey(0xDEADBEEF, 2**64 - 4321)}


def golden_draw(name):
    fn, tag, *args = name.split()
    k = GOLDEN_KEYS[tag]
    if fn == "uniform_grid":
        return rng.uniform_grid(k, int(args[0]), int(args[1]))
    if fn == "stream_block":
        keys = [k.substream(0), k.advance(7), k.substream(3),
                k.advance(2**64 - 1)]
        return rng.stream_block(keys, int(args[1]), args[0])
    return getattr(rng, fn)(k, int(args[0]))


# First 16 hex digits of the SHA-256 of each output's C-ordered bytes,
# recorded from the full-array generator before streams were chunked.
# Lengths sit at and around the chunk edge; the WRAP key's counters pass
# 2^64 inside every stream longer than 4321.
GOLDEN = {
    "uniform_stream K 1": "3209890dbfe874c3",
    "rademacher_stream K 1": "6c3c396ed6b5c36d",
    "uniform_stream K 16383": "d30ada20220410ab",
    "rademacher_stream K 16383": "127eed079eca5d00",
    "uniform_stream K 16384": "436a6ff64688f70c",
    "rademacher_stream K 16384": "ddc99da95a25174a",
    "uniform_stream K 16385": "fa104964267d9bb2",
    "rademacher_stream K 16385": "bb20f358bfcf6abe",
    "gaussian_stream K 1": "c0beab81e27aa4cf",
    "gaussian_stream K 16383": "5d04c94e0a775baa",
    "gaussian_stream K 16384": "dc5442ce10e7e270",
    "gaussian_stream K 16385": "efc75b24273a8615",
    "gaussian_stream K 32771": "e979b2dcaa00df91",
    "uniform_grid K 1 1": "3209890dbfe874c3",
    "uniform_grid K 127 129": "7434bb85a1965e34",
    "uniform_grid K 16384 1": "436a6ff64688f70c",
    "uniform_grid K 3 5462": "728011880ad79e34",
    "stream_block K uniform 1": "bd721a5ade034bf4",
    "stream_block K uniform 4095": "5a4d678200cda7b8",
    "stream_block K uniform 4097": "e29e633c7aa84c12",
    "stream_block K uniform 16385": "26a2b11bcf125dac",
    "stream_block K gaussian 1": "e94845d5cd752664",
    "stream_block K gaussian 4095": "a13985ee05aa61f3",
    "stream_block K gaussian 4097": "67ff33ca88410a1c",
    "stream_block K gaussian 16385": "24f974ac7d45ce3a",
    "stream_block K rademacher 1": "566d0f3c1a93c20d",
    "stream_block K rademacher 4095": "190e7c6f6955bfd6",
    "stream_block K rademacher 4097": "f1d0680b4db9beba",
    "stream_block K rademacher 16385": "25c103fdbb74a2df",
    "uniform_stream WRAP 1": "db57f13143670b75",
    "rademacher_stream WRAP 1": "6c3c396ed6b5c36d",
    "uniform_stream WRAP 16383": "3c81bb933e976c59",
    "rademacher_stream WRAP 16383": "090dea1aec671f85",
    "uniform_stream WRAP 16384": "acd7ff21e7c0a1be",
    "rademacher_stream WRAP 16384": "ae8c1baca0857210",
    "uniform_stream WRAP 16385": "1c96a89981f1ee39",
    "rademacher_stream WRAP 16385": "958e9a7579a92a39",
    "gaussian_stream WRAP 1": "52e926f9e1aac063",
    "gaussian_stream WRAP 16383": "0bbb4cb6e990e6e0",
    "gaussian_stream WRAP 16384": "b6de27bc1b85809e",
    "gaussian_stream WRAP 16385": "2def1b73b7af4659",
    "gaussian_stream WRAP 32771": "df25b77ef09c35c3",
    "uniform_grid WRAP 1 1": "db57f13143670b75",
    "uniform_grid WRAP 127 129": "1ad2f550621155ad",
    "uniform_grid WRAP 16384 1": "acd7ff21e7c0a1be",
    "uniform_grid WRAP 3 5462": "742281ea659eecd9",
    "stream_block WRAP uniform 1": "15b1657b1dee74b1",
    "stream_block WRAP uniform 4095": "5a85153f3762731c",
    "stream_block WRAP uniform 4097": "ef1c290ea535d76f",
    "stream_block WRAP uniform 16385": "e9faf5e70a511a82",
    "stream_block WRAP gaussian 1": "42f890e48a67a834",
    "stream_block WRAP gaussian 4095": "e9e61941a9955fe5",
    "stream_block WRAP gaussian 4097": "96b63052bb391a31",
    "stream_block WRAP gaussian 16385": "d57768278d5216ac",
    "stream_block WRAP rademacher 1": "9bbf32a4b18132e5",
    "stream_block WRAP rademacher 4095": "1b15612b36fef03a",
    "stream_block WRAP rademacher 4097": "28cf075fc7f9c9a5",
    "stream_block WRAP rademacher 16385": "c4afdaff10ed559b",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stream_outputs_match_golden_digests(name):
    a = np.ascontiguousarray(golden_draw(name))
    assert hashlib.sha256(a.tobytes()).hexdigest()[:16] == GOLDEN[name]


offsets = st.one_of(st.integers(0, 2**64 - 1),
                    st.integers(2**64 - 3 * C, 2**64 - 1))


@given(key=st.integers(0, 2**64 - 1), offset=offsets,
       n=st.integers(1, 3 * C + 1), dist=st.sampled_from(sorted(STREAMS)))
@settings(max_examples=40, deadline=None)
def test_streams_match_full_array_oracle(key, offset, n, dist):
    k = rng.RngKey(key, offset)
    assert same_bits(STREAMS[dist](k, n), oracle_stream(k, n, dist))


@given(key=st.integers(0, 2**64 - 1),
       starts=st.lists(offsets, min_size=1, max_size=9),
       n=st.one_of(st.integers(1, 64), st.integers(C - 3, 2 * C + 3)),
       dist=st.sampled_from(sorted(STREAMS)))
@settings(max_examples=40, deadline=None)
def test_stream_block_matches_full_array_oracle(key, starts, n, dist):
    keys = [rng.RngKey(key, s) for s in starts]
    block = rng.stream_block(keys, n, dist)
    expected = np.column_stack([oracle_stream(k, n, dist) for k in keys])
    assert same_bits(np.asfortranarray(expected), block)


@given(key=st.integers(0, 2**64 - 1), offset=offsets,
       d=st.integers(1, 300), m=st.integers(1, 300))
@settings(max_examples=20, deadline=None)
def test_uniform_grid_matches_full_array_oracle(key, offset, d, m):
    k = rng.RngKey(key, offset)
    expected = oracle_uniform(k, d * m).reshape((d, m), order="F")
    assert same_bits(rng.uniform_grid(k, d, m), expected)


MiB = 2**20


@pytest.mark.parametrize("draw", [
    lambda: rng.uniform_stream(KEY, 2_000_001),
    lambda: rng.gaussian_stream(KEY, 2_000_001),
    lambda: rng.rademacher_stream(KEY, 2_000_001),
    lambda: rng.uniform_grid(KEY, 1999, 1001),
    lambda: rng.stream_block([KEY.substream(i) for i in range(61)], 32769,
                             "uniform"),
    lambda: rng.stream_block([KEY.substream(i) for i in range(61)], 32769,
                             "gaussian"),
    lambda: rng.stream_block([KEY.substream(i) for i in range(61)], 32769,
                             "rademacher"),
], ids=["uniform", "gaussian", "rademacher", "grid", "block-uniform",
        "block-gaussian", "block-rademacher"])
def test_stream_scratch_memory_is_bounded(draw):
    # a ~16 MB draw may allocate its output and at most 4 MiB besides
    tracemalloc.start()
    try:
        out = draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes >= 15 * MiB
    assert peak <= out.nbytes + 4 * MiB
