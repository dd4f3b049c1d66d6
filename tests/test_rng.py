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
# were recorded from the full-array generator before streams were chunked.
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
    "gaussian_stream K 16383": "752f7c89e1cb80de",
    "gaussian_stream K 16384": "2a2394470a3228d0",
    "gaussian_stream K 16385": "0316a0b266fc1f5a",
    "gaussian_stream K 32771": "24bfb73a414bb54e",
    "uniform_grid K 1 1": "808dadb08ba3534d",
    "uniform_grid K 127 129": "74fda2ff54256d82",
    "uniform_grid K 16384 1": "0c27417c94c44fa6",
    "uniform_grid K 3 5462": "303b6203886f130e",
    "stream_block K uniform 1": "6dc5e2c72f9b6f86",
    "stream_block K uniform 4095": "bfd5e3f8d3bb47b1",
    "stream_block K uniform 4097": "24f5c1ab056dac99",
    "stream_block K uniform 16385": "44e9663d714a03cf",
    "stream_block K gaussian 1": "b657f9fbd6a1152b",
    "stream_block K gaussian 4095": "6309dbc4be9617fa",
    "stream_block K gaussian 4097": "b0d3a7250cd76675",
    "stream_block K gaussian 16385": "f683c589fc87ce21",
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
    "gaussian_stream WRAP 16383": "0c3f02943f830175",
    "gaussian_stream WRAP 16384": "a35a5568af48f934",
    "gaussian_stream WRAP 16385": "3a1704e409b5bd72",
    "gaussian_stream WRAP 32771": "5e12470a0c462f35",
    "uniform_grid WRAP 1 1": "7463aef2dae3877f",
    "uniform_grid WRAP 127 129": "8a0777be4aa2fa89",
    "uniform_grid WRAP 16384 1": "8d5621e373f66c00",
    "uniform_grid WRAP 3 5462": "986915ae1ea44764",
    "stream_block WRAP uniform 1": "ac818cc56db0dda7",
    "stream_block WRAP uniform 4095": "3cba48a71b15ac04",
    "stream_block WRAP uniform 4097": "d5349ff8637bd64e",
    "stream_block WRAP uniform 16385": "9f81e0da0b2c8aa8",
    "stream_block WRAP gaussian 1": "775f400f2d726805",
    "stream_block WRAP gaussian 4095": "23b8255ab10c839b",
    "stream_block WRAP gaussian 4097": "8b20cb60080eaac8",
    "stream_block WRAP gaussian 16385": "7c43fb3c60081f60",
    "stream_block WRAP rademacher 1": "76a449f8269ad0c3",
    "stream_block WRAP rademacher 4095": "788bf1f74fd7d313",
    "stream_block WRAP rademacher 4097": "26b4690d427bd559",
    "stream_block WRAP rademacher 16385": "ef1fac20175ac80a",
}


@pytest.mark.parametrize("name", GOLDEN_V2)
def test_v2_stream_outputs_match_golden_digests(name):
    a = np.ascontiguousarray(golden_draw(name, version=2))
    assert hashlib.sha256(a.tobytes()).hexdigest()[:16] == GOLDEN_V2[name]


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
