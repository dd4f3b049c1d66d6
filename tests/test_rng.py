import hashlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from randla import rng

KEY = rng.RngKey(7, 0)
TINY = np.nextafter(0.0, 1.0)


# The transform's tables and constants as Python floats: cos and sin of
# 2 pi j/1024, log(1 - i/1024), ln 2 as a 41-bit head and a tail, and
# 2 pi/1024.  test_transform_tables_are_correctly_rounded checks each one
# against mpmath.
COS, SIN, LOG_C = rng._COS.tolist(), rng._SIN.tolist(), rng._LOG_C.tolist()
LN2_HI, LN2_LO, TWO_PI_N = rng._LN2_HI, rng._LN2_LO, rng._TWO_PI_N


def box_muller_oracle(u1, u2):
    """The Gaussian pair of one uniform pair, step by step in scalar Python
    floats, each step rounded as the library's array passes round it."""
    m, e = math.frexp(max(u1, TINY))
    i = int(m * -1024.0 + 1024.5)  # the nearest c_i = 1 - i/1024
    c = 1 - i / 1024
    f = (m - c) / c
    log1p = ((((f * (1 / 5) - 1 / 4) * f + 1 / 3) * f - 1 / 2) * f) * f + f
    r = math.sqrt((((log1p + e * LN2_LO) + LOG_C[i]) + e * LN2_HI) * -2.0)
    t = u2 * 1024.0
    j = math.floor(t + 0.5)
    delta = (t - j) * TWO_PI_N
    d2 = delta * delta
    sin_d = ((d2 * (1 / 120) - 1 / 6) * d2) * delta + delta
    one_minus_cos_d = (d2 * (-1 / 24) + 1 / 2) * d2
    C, S = COS[j], SIN[j]
    cos = C - (C * one_minus_cos_d + S * sin_d)
    sin = S + (sin_d * C - one_minus_cos_d * S)
    return r * cos, r * sin


def box_muller_pairs(u):
    """The oracle on the pairs (u[2p], u[2p + 1]) of an even-length u."""
    u = list(map(float, u))
    return np.array([z for p in range(0, len(u), 2)
                     for z in box_muller_oracle(u[p], u[p + 1])])


def test_uniform_determinism():
    for version in rng.VERSIONS:
        a = rng.uniform_stream(rng.RngKey(7, 0, version), 5)
        b = rng.uniform_stream(rng.RngKey(7, 0, version), 5)
        assert np.array_equal(a, b)


def test_uniform_counter_shift():
    for version in rng.VERSIONS:
        k = rng.RngKey(7, 0, version)
        bulk = rng.uniform_stream(k, 10)
        shifted = rng.uniform_stream(k.advance(3), 4)
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
    for version in rng.VERSIONS:
        k = rng.RngKey(7, 0, version)
        u = rng.uniform_stream(k, 12)
        g = rng.gaussian_stream(k, n)
        assert same_bits(g, box_muller_pairs(u)[:n])


def test_transform_tables_are_correctly_rounded():
    # every table entry is the double nearest its value, so within 1 ulp
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        cos = [float(mpmath.cospi(mpmath.mpf(j) / 512)) for j in range(1025)]
        sin = [float(mpmath.sinpi(mpmath.mpf(j) / 512)) for j in range(1025)]
        log_c = [float(mpmath.log(1 - mpmath.mpf(i) / 1024))
                 for i in range(513)]
        ln2 = mpmath.log(2)
        ln2_hi = float(mpmath.floor(ln2 * 2**41) / 2**41)
        constants = (ln2_hi, float(ln2 - ln2_hi), float(mpmath.pi / 512))
    assert same_bits(rng._COS, np.array(cos))
    assert same_bits(rng._SIN, np.array(sin))
    assert same_bits(rng._LOG_C, np.array(log_c))
    assert np.array_equal(rng._C, 1 - np.arange(513) / 1024)
    assert (rng._LN2_HI, rng._LN2_LO, rng._TWO_PI_N) == constants
    # 1074 * ln2_hi is exact: the head has at most 41 significant bits
    assert (rng._LN2_HI * 2**41).is_integer()


def ulps_from_mpmath(u, mpmath):
    """Distance of each transformed value of the pairs of ``u`` from the
    exact Box-Muller value, in ulps of max(|z|, 1)."""
    z = u.copy()
    rng._box_muller(z, rng._scratch(len(u) // 2))
    errors = []
    with mpmath.workprec(120):
        for p in range(0, len(u), 2):
            r = mpmath.sqrt(-2 * mpmath.log(max(u[p], TINY)))
            turn = 2 * mpmath.mpf(u[p + 1])
            for got, exact in ((z[p], r * mpmath.cospi(turn)),
                               (z[p + 1], r * mpmath.sinpi(turn))):
                ulp = np.spacing(max(abs(float(exact)), 1.0))
                errors.append(float(abs(mpmath.mpf(float(got)) - exact)) / ulp)
    return np.array(errors)


def test_gaussian_transform_is_within_4_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    edges = [0.0, 2.0**-53, 0.25, 0.5, 0.75, 1 - 2.0**-53]
    # uniforms within 2^-33 of 0 and of 1, where r is largest and smallest
    # and the angle sits at the ends of the table
    near = np.ldexp(np.floor(rng.uniform_stream(rng.RngKey(4), 2000) * 2**20)
                    + 1, -53)
    u = np.concatenate([np.ravel([(a, b) for a in edges for b in edges]),
                        rng.uniform_stream(rng.RngKey(3, 0), 4000),
                        rng.uniform_stream(rng.RngKey(3, 0, 1), 2000),
                        near, 1 - near])
    assert ulps_from_mpmath(u, mpmath).max() <= 4


@pytest.mark.parametrize("version", rng.VERSIONS)
def test_gaussian_stream_passes_kolmogorov_smirnov(version):
    g = rng.gaussian_stream(rng.RngKey(7, 0, version), 10**6)
    assert scipy.stats.kstest(g, "norm").pvalue > 0.01


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
    version=st.sampled_from(rng.VERSIONS),
)
@settings(max_examples=50, deadline=None)
def test_order_independence(key, offset, n, i, version):
    # generating element i alone equals element i of a bulk generation,
    # including across the 2^64 counter wraparound
    i = i % n
    k = rng.RngKey(key, offset, version)
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
    for version in rng.VERSIONS:
        k = rng.RngKey(7, 0, version)
        a = rng.uniform_stream(k.substream(0), 100)
        b = rng.uniform_stream(k.substream(1), 100)
        assert not np.array_equal(a, b)
        # substream(1) sits exactly 2^40 counters downstream
        assert k.substream(1).version == version
        assert np.array_equal(b, rng.uniform_stream(k.advance(2**40), 100))


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
    # advanced keys alike, odd and even lengths, under either version
    for version in rng.VERSIONS:
        k0 = rng.RngKey(7, 0, version)
        keys = ([k0.substream(i) for i in (0, 1, 5, 32)]
                + [k0.advance(j * 3) for j in range(3)]
                + [rng.RngKey(7, 2**64 - 3, version)])  # wraps around 2^64
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
    # keys need not share a 64-bit key or a stream version
    mixed = [rng.RngKey(1, 0, 1), rng.RngKey(2, 0, 1), rng.RngKey(7, 5, 2)]
    block = rng.stream_block(mixed, 4)
    for j, k in enumerate(mixed):
        assert np.array_equal(block[:, j], rng.uniform_stream(k, 4))


def test_unknown_stream_version_raises():
    for version in (0, 3):
        with pytest.raises(ValueError, match="stream version"):
            rng.RngKey(7, 0, version)
    assert rng.RngKey(7).version == 2
    assert rng.as_key(7) == rng.RngKey(7, 0, 2)


@pytest.mark.parametrize("dist", ["uniform", "gaussian", "rademacher"])
def test_v2_stream_block_accepts_any_keys(dist):
    # distinct 64-bit keys under v2, under v1, and both versions in one block
    v2 = [rng.RngKey(1, 0), rng.RngKey(2**64 - 1, 12345),
          rng.RngKey(0xDEADBEEF, 2**64 - 3)]
    v1 = [rng.RngKey(k.key, k.counter_offset, 1) for k in v2]
    for keys in (v2, v1, [v1[0], v2[0], v1[2], v2[1]]):
        block = rng.stream_block(keys, 37, dist)
        for j, k in enumerate(keys):
            assert np.array_equal(block[:, j], STREAMS[dist](k, 37))
        assert not np.array_equal(block[:, 0], block[:, 1])


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
    # a block of either version draws each column through uniform_stream
    for version in rng.VERSIONS:
        k = rng.RngKey(7, 0, version)
        drawn.clear()
        rng.stream_block([k, k.substream(1)], n, "gaussian")
        rng.stream_block([k], n, "uniform")
        rng.stream_block([k, k.advance(1)], n, "rademacher")
        assert sum(drawn) == 2 * rng.gaussian_counters_used(n) + 3 * n


# ---------------------------------------------------------------------------
# The full-array generators the chunked kernels must match bitwise.  v1:
# counters, Philox 4x32-10 over whole arrays, 53-bit doubles.  v2: numpy's raw
# Philox4x64-10 words, one call per 2^64 segment (pinned below by a
# pure-Python Philox4x64-10), then (w >> 11) * 2^-53.  Both: Box-Muller on
# interleaved pairs, thresholded signs.
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


M64 = 2**64 - 1


def philox4x64_10(ctr, key):
    """Random123's Philox4x64-10 on a 4-word counter and a 2-word key."""
    c, (k0, k1) = list(ctr), key
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c[0]
        p1 = 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & M64,
             (p0 >> 64) ^ c[3] ^ k1, p0 & M64]
        k0 = (k0 + 0x9E3779B97F4A7C15) & M64
        k1 = (k1 + 0xBB67AE8584CAA73B) & M64
    return c


def v2_words(key, offset, n):
    # numpy steps the counter before each block: start one block early
    parts = [np.zeros(0, np.uint64)]
    while n > 0:
        take = min(n, 2**64 - offset)
        block, skip = divmod(offset, 4)
        bits = np.random.Philox(key=key, counter=(block - 1) % 2**256)
        parts.append(bits.random_raw(skip + take)[skip:])
        offset, n = (offset + take) % 2**64, n - take
    return np.concatenate(parts)


def oracle_uniform(k, n):
    if k.version == 2:
        words = v2_words(k.key, k.counter_offset, n)
        return (words >> np.uint64(11)) * 2.0 ** -53
    with np.errstate(over="ignore"):
        counters = np.arange(n, dtype=np.uint64) + np.uint64(k.counter_offset)
    x0, x1 = oracle_words(k.key, counters)
    return (((x0 >> np.uint64(5)) << np.uint64(26))
            | (x1 >> np.uint64(6))) * (2.0 ** -53)


def oracle_stream(k, n, dist):
    if dist == "gaussian":
        return box_muller_pairs(oracle_uniform(k, 2 * ((n + 1) // 2)))[:n]
    u = oracle_uniform(k, n)
    return np.where(u < 0.5, -1.0, 1.0) if dist == "rademacher" else u


STREAMS = {"uniform": rng.uniform_stream, "gaussian": rng.gaussian_stream,
           "rademacher": rng.rademacher_stream}


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_philox4x64_known_answer():
    # Random123's known answers for philox4x64-10 (its kat_vectors file)
    assert philox4x64_10([0] * 4, [0, 0]) == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
        0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]
    assert philox4x64_10([M64] * 4, [M64, M64]) == [
        0x87B092C3013FE90B, 0x438C3C67BE8D0224,
        0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0]
    assert philox4x64_10(
        [0x243F6A8885A308D3, 0x13198A2E03707344,
         0xA4093822299F31D0, 0x082EFA98EC4E6C89],
        [0x452821E638D01377, 0xBE5466CF34E90C6C]) == [
        0xA528F45403E61D95, 0x38C72DBD566E9788,
        0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6]
    # numpy's compiled generator makes the same block one step after its
    # counter, also with an id in counter word 1 (the step borrows into it)
    for key, block, child in [(7, 0, 0), (7, 1, 0), (0xDEADBEEF, 5, 0),
                              (7, 2**62 - 1, 0), (M64, 0, 3), (7, 5, 3)]:
        start = (block + (child << 64) - 1) % 2**256
        words = np.random.Philox(key=key, counter=start).random_raw(4)
        assert [int(w) for w in words] == philox4x64_10(
            [block, child, 0, 0], [key, 0])


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 4 * 12345 + 2, 2**64 - 6,
                                    2**64 - 1])
def test_v2_uniform_stream_known_answer(offset):
    # value i is (w >> 11) * 2^-53 of word j = (offset + i) mod 2^64, word
    # j mod 4 of the block at counter (j // 4, 0, 0, 0) under key (key, 0);
    # the last two offsets cross word 2^64
    key, n = 0x0123456789ABCDEF, 11
    expected = []
    for i in range(n):
        j = (offset + i) % 2**64
        w = philox4x64_10([j // 4, 0, 0, 0], [key, 0])[j % 4]
        expected.append((w >> 11) * 2.0 ** -53)
    got = rng.uniform_stream(rng.RngKey(key, offset), n)
    assert same_bits(got, np.array(expected))


def test_philox_known_answer():
    # Random123's known answer for philox4x32-10 at counter 0, key 0 (the
    # two words used here; words 2 and 3 are never read)
    x0, x1 = oracle_words(0, np.zeros(1, dtype=np.uint64))
    assert (int(x0[0]), int(x1[0])) == (0x6627E8D5, 0xE169C58D)
    u = ((0x6627E8D5 >> 5) * 2**26 + (0xE169C58D >> 6)) * 2.0 ** -53
    assert rng.uniform_stream(rng.RngKey(0, 0, 1), 1)[0] == u
    assert rng.rademacher_stream(rng.RngKey(0, 0, 1), 1)[0] == -1.0  # u < 1/2


C = rng._CHUNK
GOLDEN_KEYS = {"K": (0x0123456789ABCDEF, 12345),
               "WRAP": (0xDEADBEEF, 2**64 - 4321)}


def golden_draw(name, version):
    fn, tag, *args = name.split()
    k = rng.RngKey(*GOLDEN_KEYS[tag], version)
    if fn == "uniform_grid":
        return rng.uniform_grid(k, int(args[0]), int(args[1]))
    if fn == "stream_block":
        keys = [k.substream(0), k.advance(7), k.substream(3),
                k.advance(2**64 - 1)]
        return rng.stream_block(keys, int(args[1]), args[0])
    return getattr(rng, fn)(k, int(args[0]))


# First 16 hex digits of the SHA-256 of each output's C-ordered bytes.  v1's
# were recorded from the full-array generator before streams were chunked;
# the Gaussian ones of both versions again when Box-Muller became portable,
# each checked equal to the full-array oracle and the same at AVX-512, AVX2
# and SSE4.2 dispatch.  Lengths sit at and around the chunk edge; the WRAP
# key's counters pass 2^64 inside every stream longer than 4321.
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
    "gaussian_stream K 16383": "53262327cb8c78d7",
    "gaussian_stream K 16384": "e5c4de3289d72493",
    "gaussian_stream K 16385": "c542b017cabc9611",
    "gaussian_stream K 32771": "5a11f372b34510e1",
    "uniform_grid K 1 1": "3209890dbfe874c3",
    "uniform_grid K 127 129": "7434bb85a1965e34",
    "uniform_grid K 16384 1": "436a6ff64688f70c",
    "uniform_grid K 3 5462": "728011880ad79e34",
    "stream_block K uniform 1": "bd721a5ade034bf4",
    "stream_block K uniform 4095": "5a4d678200cda7b8",
    "stream_block K uniform 4097": "e29e633c7aa84c12",
    "stream_block K uniform 16385": "26a2b11bcf125dac",
    "stream_block K gaussian 1": "92ce5a694f730e25",
    "stream_block K gaussian 4095": "35ef8231e51a73b6",
    "stream_block K gaussian 4097": "5ba9197cb01f5705",
    "stream_block K gaussian 16385": "e194a56724f414d8",
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
    "gaussian_stream WRAP 16383": "94f51bbd358a49b7",
    "gaussian_stream WRAP 16384": "1b0c1a46fed98d9f",
    "gaussian_stream WRAP 16385": "82b19d8b24b614b9",
    "gaussian_stream WRAP 32771": "35f2e17a52fdd442",
    "uniform_grid WRAP 1 1": "db57f13143670b75",
    "uniform_grid WRAP 127 129": "1ad2f550621155ad",
    "uniform_grid WRAP 16384 1": "acd7ff21e7c0a1be",
    "uniform_grid WRAP 3 5462": "742281ea659eecd9",
    "stream_block WRAP uniform 1": "15b1657b1dee74b1",
    "stream_block WRAP uniform 4095": "5a85153f3762731c",
    "stream_block WRAP uniform 4097": "ef1c290ea535d76f",
    "stream_block WRAP uniform 16385": "e9faf5e70a511a82",
    "stream_block WRAP gaussian 1": "8d955a830336895b",
    "stream_block WRAP gaussian 4095": "cdbf9fe6dc72c5b1",
    "stream_block WRAP gaussian 4097": "09ccd420ccfbeaf9",
    "stream_block WRAP gaussian 16385": "41a60cfa43c80bf8",
    "stream_block WRAP rademacher 1": "9bbf32a4b18132e5",
    "stream_block WRAP rademacher 4095": "1b15612b36fef03a",
    "stream_block WRAP rademacher 4097": "28cf075fc7f9c9a5",
    "stream_block WRAP rademacher 16385": "c4afdaff10ed559b",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stream_outputs_match_golden_digests(name):
    a = np.ascontiguousarray(golden_draw(name, version=1))
    assert hashlib.sha256(a.tobytes()).hexdigest()[:16] == GOLDEN[name]


# The same draws under v2, recorded when v2 became the default; each was
# checked equal to the v2 full-array oracle first.
GOLDEN_V2 = {
    "uniform_stream K 1": "808dadb08ba3534d",
    "rademacher_stream K 1": "e77817b649821c63",
    "uniform_stream K 16383": "8ad13051c21c8dbd",
    "rademacher_stream K 16383": "7539a79fbbd9f830",
    "uniform_stream K 16384": "0c27417c94c44fa6",
    "rademacher_stream K 16384": "4a85da74955303f9",
    "uniform_stream K 16385": "f966d49fb7518294",
    "rademacher_stream K 16385": "244c0978b2305def",
    "gaussian_stream K 1": "16f617fe8dfcf9e3",
    "gaussian_stream K 16383": "08a46ba87d88d792",
    "gaussian_stream K 16384": "20af413829b77df7",
    "gaussian_stream K 16385": "e430ee19e020079a",
    "gaussian_stream K 32771": "25863b56e4318e80",
    "uniform_grid K 1 1": "808dadb08ba3534d",
    "uniform_grid K 127 129": "74fda2ff54256d82",
    "uniform_grid K 16384 1": "0c27417c94c44fa6",
    "uniform_grid K 3 5462": "303b6203886f130e",
    "stream_block K uniform 1": "6dc5e2c72f9b6f86",
    "stream_block K uniform 4095": "bfd5e3f8d3bb47b1",
    "stream_block K uniform 4097": "24f5c1ab056dac99",
    "stream_block K uniform 16385": "44e9663d714a03cf",
    "stream_block K gaussian 1": "bd89f873a5f8df6e",
    "stream_block K gaussian 4095": "ec4ab08942c88087",
    "stream_block K gaussian 4097": "e25145155fe152aa",
    "stream_block K gaussian 16385": "a3124f7a5924507d",
    "stream_block K rademacher 1": "40f7f6643c98d166",
    "stream_block K rademacher 4095": "9d192a81217f1c5a",
    "stream_block K rademacher 4097": "1e185921729ab42d",
    "stream_block K rademacher 16385": "843dd28f47c36673",
    "uniform_stream WRAP 1": "7463aef2dae3877f",
    "rademacher_stream WRAP 1": "6c3c396ed6b5c36d",
    "uniform_stream WRAP 16383": "6e7d8667028a753a",
    "rademacher_stream WRAP 16383": "5ba01fc7a2bcf23b",
    "uniform_stream WRAP 16384": "8d5621e373f66c00",
    "rademacher_stream WRAP 16384": "b222a9e0283bfb7c",
    "uniform_stream WRAP 16385": "f875644dea12dcf7",
    "rademacher_stream WRAP 16385": "c5cfb360b6f9f13d",
    "gaussian_stream WRAP 1": "325a7b21140ba5a8",
    "gaussian_stream WRAP 16383": "9a3dd6fe2f621d45",
    "gaussian_stream WRAP 16384": "092cab9c68b6d56f",
    "gaussian_stream WRAP 16385": "166000c99f357a44",
    "gaussian_stream WRAP 32771": "5b150c0fc3d953c9",
    "uniform_grid WRAP 1 1": "7463aef2dae3877f",
    "uniform_grid WRAP 127 129": "8a0777be4aa2fa89",
    "uniform_grid WRAP 16384 1": "8d5621e373f66c00",
    "uniform_grid WRAP 3 5462": "986915ae1ea44764",
    "stream_block WRAP uniform 1": "ac818cc56db0dda7",
    "stream_block WRAP uniform 4095": "3cba48a71b15ac04",
    "stream_block WRAP uniform 4097": "d5349ff8637bd64e",
    "stream_block WRAP uniform 16385": "9f81e0da0b2c8aa8",
    "stream_block WRAP gaussian 1": "68f9d128baf29539",
    "stream_block WRAP gaussian 4095": "9d22b4896e624c0b",
    "stream_block WRAP gaussian 4097": "225da9aa2cbaad1f",
    "stream_block WRAP gaussian 16385": "2a0a4608a4aec03f",
    "stream_block WRAP rademacher 1": "76a449f8269ad0c3",
    "stream_block WRAP rademacher 4095": "788bf1f74fd7d313",
    "stream_block WRAP rademacher 4097": "26b4690d427bd559",
    "stream_block WRAP rademacher 16385": "ef1fac20175ac80a",
}


@pytest.mark.parametrize("name", GOLDEN_V2)
def test_v2_stream_outputs_match_golden_digests(name):
    a = np.ascontiguousarray(golden_draw(name, version=2))
    assert hashlib.sha256(a.tobytes()).hexdigest()[:16] == GOLDEN_V2[name]


def gaussian_digests():
    """Digests of long, chunk-crossing Gaussian draws of both versions."""
    digests = []
    for version in rng.VERSIONS:
        k = rng.RngKey(*GOLDEN_KEYS["K"], version)
        for a in (rng.gaussian_stream(k, 2 * C + 5),
                  rng.stream_block([k.substream(i) for i in range(9)], 1001,
                                   "gaussian")):
            a = np.ascontiguousarray(a)
            digests.append(hashlib.sha256(a.tobytes()).hexdigest()[:16])
    return digests


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch cap names an x86-64 level")
def test_gaussian_digests_hold_with_dispatch_capped_at_sse42():
    # a child process whose numpy dispatches no further than the SSE4.2
    # baseline draws the same Gaussians as this process
    from numpy._core import _multiarray_umath as umath
    if "X86_V2" not in umath.__cpu_baseline__ + umath.__cpu_dispatch__:
        pytest.skip("this numpy has no X86_V2 dispatch group")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES="X86_V2",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    child = subprocess.run(
        [sys.executable, "-c",
         "from numpy._core import _multiarray_umath as umath\n"
         "import test_rng\n"
         "print(umath.__cpu_features__['X86_V3'],"
         " *test_rng.gaussian_digests())"],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    avx2, *digests = child.stdout.split()
    assert avx2 == "False"  # the cap took effect
    assert digests == gaussian_digests()


offsets = st.one_of(st.integers(0, 2**64 - 1),
                    st.integers(2**64 - 3 * C, 2**64 - 1))


versions = st.sampled_from(rng.VERSIONS)


@given(key=st.integers(0, 2**64 - 1), offset=offsets,
       n=st.integers(1, 3 * C + 1), dist=st.sampled_from(sorted(STREAMS)),
       version=versions)
@settings(max_examples=40, deadline=None)
def test_streams_match_full_array_oracle(key, offset, n, dist, version):
    k = rng.RngKey(key, offset, version)
    assert same_bits(STREAMS[dist](k, n), oracle_stream(k, n, dist))


@given(key=st.integers(0, 2**64 - 1),
       starts=st.lists(offsets, min_size=1, max_size=9),
       n=st.one_of(st.integers(1, 64), st.integers(C - 3, 2 * C + 3)),
       dist=st.sampled_from(sorted(STREAMS)), version=versions)
@settings(max_examples=40, deadline=None)
def test_stream_block_matches_full_array_oracle(key, starts, n, dist,
                                                version):
    keys = [rng.RngKey(key, s, version) for s in starts]
    block = rng.stream_block(keys, n, dist)
    expected = np.column_stack([oracle_stream(k, n, dist) for k in keys])
    assert same_bits(np.asfortranarray(expected), block)


@given(key=st.integers(0, 2**64 - 1), offset=offsets,
       d=st.integers(1, 300), m=st.integers(1, 300), version=versions)
@settings(max_examples=20, deadline=None)
def test_uniform_grid_matches_full_array_oracle(key, offset, d, m, version):
    k = rng.RngKey(key, offset, version)
    expected = oracle_uniform(k, d * m).reshape((d, m), order="F")
    assert same_bits(rng.uniform_grid(k, d, m), expected)


MiB = 2**20


DRAWS = {
    "uniform": lambda k: rng.uniform_stream(k, 2_000_001),
    "gaussian": lambda k: rng.gaussian_stream(k, 2_000_001),
    "rademacher": lambda k: rng.rademacher_stream(k, 2_000_001),
    "grid": lambda k: rng.uniform_grid(k, 1999, 1001),
    "block-uniform": lambda k: rng.stream_block(
        [k.substream(i) for i in range(61)], 32769, "uniform"),
    "block-gaussian": lambda k: rng.stream_block(
        [k.substream(i) for i in range(61)], 32769, "gaussian"),
    "block-rademacher": lambda k: rng.stream_block(
        [k.substream(i) for i in range(61)], 32769, "rademacher"),
}


# unprefixed ids draw v2 (default) streams, "v1-" ids the same v1 streams
@pytest.mark.parametrize("name", [*DRAWS, *(f"v1-{d}" for d in DRAWS)])
def test_stream_scratch_memory_is_bounded(name):
    # a ~16 MB draw may allocate its output and at most 4 MiB besides
    version = 1 if name.startswith("v1-") else 2
    draw = DRAWS[name.removeprefix("v1-")]
    key = rng.RngKey(7, 0, version)
    tracemalloc.start()
    try:
        out = draw(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes >= 15 * MiB
    assert peak <= out.nbytes + 4 * MiB
