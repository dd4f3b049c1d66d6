"""Counter-based random number generation.

Every random quantity in this library is a pure function of a 64-bit key, a
64-bit counter offset and a stream version.  Entry ``i`` of a stream depends
only on the counter value ``offset + i``, so streams can be generated in any
order, in parallel, or one element at a time, and always agree bitwise.

Two stream versions exist; ``RngKey`` carries one, 2 by default.  Only the
kernel that turns counters into uniforms differs between them:

- **v2** (the default): value i of the stream at ``(key, offset)`` is
  ``(w >> 11) * 2^-53`` of 64-bit word j = (offset + i) mod 2^64, and word j
  is word j mod 4 of the Philox4x64-10 block at counter (j // 4, 0, 0, 0)
  under key (key, 0).  Counter words 1-3 and key word 1 are zero, reserved
  for child ids and domain tags.  The words come from numpy's compiled
  ``np.random.Philox`` (Random123's constants, Salmon et al., SC'11).
- **v1**: Philox 4x32-10 on the block (c_lo, c_hi, 0, 0) of counter c, run
  as numpy ufunc passes; 27 bits of word 0 above 26 bits of word 1 make one
  double.  It is kept bitwise so that results drawn with
  ``RngKey(key, offset, version=1)`` can be reproduced.

Each version's kernel writes the uniforms of one stream in chunks of 2^14
counters straight into the returned array, from one generator per stream,
so scratch memory is O(chunk) whatever the stream length;
``uniform_stream`` picks the kernel.  Everything else is one path for both
versions: ``gaussian_stream`` transforms one ``uniform_stream`` draw in
place, a chunk at a time (Box-Muller on pairs), ``rademacher_stream``
thresholds one at 1/2, and ``stream_block`` and ``uniform_grid`` are made
of these stream functions.  Chunking does not change any entry.

Box-Muller (``_box_muller``) is built only from exactly rounded operations
(frexp, floor, +, -, *, /, sqrt) and lookups in tables computed at import
with integer arithmetic, so a Gaussian is the same at every SIMD level
numpy dispatches to, and within 4 ulp of max(|z|, 1) of the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# v1's Philox 4x32 multipliers and Weyl key increments.
_PHILOX_M0 = 0xD2511F53
_PHILOX_M1 = 0xCD9E8D57
_WEYL_0 = 0x9E3779B9
_WEYL_1 = 0xBB67AE85
_ROUNDS = 10

# Stride between derived substreams: 2^40 counters each, 2^24 substreams.
_SUBSTREAM_STRIDE = 1 << 40

_TINY = np.nextafter(0.0, 1.0)  # smallest positive double

VERSIONS = (1, 2)


@dataclass(frozen=True)
class RngKey:
    """Identifies a reproducible stream: a 64-bit key, a stream position
    and the stream version (see the module docstring).

    Two keys with equal ``(key, counter_offset, version)`` produce identical
    output; distinct keys produce statistically independent streams.
    """

    key: int = 0
    counter_offset: int = 0
    version: int = 2

    def __post_init__(self):
        if self.version not in VERSIONS:
            raise ValueError(f"unknown stream version {self.version!r}; "
                             f"choose from {VERSIONS}")
        object.__setattr__(self, "version", int(self.version))
        object.__setattr__(self, "key", int(self.key) & _MASK64)
        object.__setattr__(
            self, "counter_offset", int(self.counter_offset) & _MASK64
        )

    def advance(self, n: int) -> "RngKey":
        """Key for the same stream shifted forward by ``n`` counters."""
        return RngKey(self.key, self.counter_offset + int(n), self.version)

    def substream(self, i: int) -> "RngKey":
        """Key for the ``i``-th derived substream (disjoint counter blocks).

        Substreams are spaced 2^40 counters apart; callers must not draw
        more than 2^40 values from one substream.
        """
        return self.advance(int(i) * _SUBSTREAM_STRIDE)


def as_key(seed) -> RngKey:
    """Coerce an int or RngKey to an RngKey."""
    if isinstance(seed, RngKey):
        return seed
    return RngKey(int(seed), 0)


def parse_seed_token(token) -> int:
    """Parse a key/offset given as a decimal or 0x-prefixed hex string."""
    if isinstance(token, int):
        return token
    s = str(token).strip().lower()
    base = 16 if s.startswith("0x") else 10
    return int(s, base)


# Counters per kernel pass: a pass's buffers (about 1 MiB) stay in L2.
_CHUNK = 1 << 14
_RAMP = np.arange(_CHUNK, dtype=np.uint64)


def _philox4x32(key: int, offset: int, out: np.ndarray) -> None:
    """Write the v1 uniforms of counters offset, offset + 1, ... (mod 2^64)
    under ``key`` into the 1-D float array ``out``.

    Each pass of at most _CHUNK counters runs Philox 4x32-10 on the 128-bit
    blocks (c_lo, c_hi, 0, 0) in place in reused buffers and writes its
    uniforms straight into ``out``, so scratch memory is O(_CHUNK).
    """
    n = len(out)
    words = [np.empty(min(n, _CHUNK), np.uint64) for _ in range(6)]
    for col in range(0, n, _CHUNK):
        w = min(_CHUNK, n - col)
        a, b, c, d, p, q = (x[:w] for x in words)
        np.add(_RAMP[:w], np.uint64((offset + col) & _MASK64), out=a)
        np.right_shift(a, 32, out=b)
        np.bitwise_and(a, _MASK32, out=a)
        c.fill(0)
        d.fill(0)
        k0, k1 = key & _MASK32, key >> 32
        for _ in range(_ROUNDS):
            np.multiply(a, _PHILOX_M0, out=p)
            np.multiply(c, _PHILOX_M1, out=q)
            np.right_shift(q, 32, out=a)
            np.bitwise_xor(a, b, out=a)
            np.bitwise_xor(a, k0, out=a)
            np.bitwise_and(q, _MASK32, out=b)
            np.right_shift(p, 32, out=c)
            np.bitwise_xor(c, d, out=c)
            np.bitwise_xor(c, k1, out=c)
            np.bitwise_and(p, _MASK32, out=d)
            k0, k1 = (k0 + _WEYL_0) & _MASK32, (k1 + _WEYL_1) & _MASK32
        # doubles in [0, 1): 27 bits of word 0 above 26 bits of word 1
        np.right_shift(a, 5, out=a)
        np.left_shift(a, 26, out=a)
        np.right_shift(b, 6, out=b)
        np.bitwise_or(a, b, out=a)
        np.multiply(a, 2.0 ** -53, out=out[col:col + w])


def _philox4x64(key: int, offset: int, out: np.ndarray) -> None:
    """Write the v2 uniforms of words offset, offset + 1, ... (mod 2^64)
    under ``key`` into the 1-D float array ``out``.

    numpy's Philox steps its 256-bit counter before each block, so a run
    starting at word j starts the generator at block j // 4 - 1 and skips
    j mod 4 words; ``Generator.random`` then makes exactly
    ``(w >> 11) * 2^-53`` of each next word.  A stream that crosses word
    2^64 restarts at block 0 there.
    """
    n = len(out)
    col = 0
    while col < n:
        j = (offset + col) & _MASK64
        end = min(n, col + (1 << 64) - j)
        bits = np.random.Philox(key=key, counter=(j // 4 - 1) % (1 << 256))
        bits.random_raw(j % 4)
        gen = np.random.Generator(bits)
        for c in range(col, end, _CHUNK):
            gen.random(out=out[c:min(end, c + _CHUNK)])
        col = end


# Box-Muller from exactly rounded operations.  numpy's float64 log, cos and
# sin round differently at different SIMD dispatch levels; frexp, floor, +,
# -, *, /, sqrt and table lookups round the same at every level.  The tables
# are computed here in 2^-128 fixed point with Python integers, so no libm
# function enters them: each entry is the double nearest its real value.
_TABLE = 1024
_FIX = 1 << 128


def _arc(a: int, b: int, sign: int) -> int:
    """atanh(a/b) (sign 1) or atan(a/b) (sign -1) in fixed point, for
    0 <= a/b <= 1/3: the sum of sign^k (a/b)^(2k+1) / (2k+1)."""
    total, k, p = 0, 0, _FIX * a // b
    while p:
        total += sign ** k * (p // (2 * k + 1))
        p = p * a * a // (b * b)
        k += 1
    return total


def _sin_cos(x: int) -> tuple:
    """sin x and cos x in fixed point, for 0 <= x <= pi/2 in fixed point."""
    sc, k, term = [0, 0], 0, _FIX
    while term:
        sc[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term = term * x // (_FIX * k)
    return sc[1], sc[0]


def _tables():
    pi = 16 * _arc(1, 5, -1) - 4 * _arc(1, 239, -1)
    quarter = [_sin_cos(2 * pi * j // _TABLE) for j in range(_TABLE // 4 + 1)]
    sin, cos = [], []
    for j in range(_TABLE + 1):
        q, r = divmod(j, _TABLE // 4)
        s, c = quarter[r]
        for _ in range(q):  # a quarter turn: (sin, cos) -> (cos, -sin)
            s, c = c, -s
        sin.append(s / _FIX)
        cos.append(c / _FIX)
    # log(1 - i/1024) = -2 atanh(i / (2048 - i))
    log_c = [-2 * _arc(i, 2 * _TABLE - i, 1) / _FIX
             for i in range(_TABLE // 2 + 1)]
    ln2 = 2 * _arc(1, 3, 1)
    ln2_hi = ln2 >> 87 << 87  # 41 bits: e * ln2_hi is exact for |e| < 2^11
    return (np.array(cos), np.array(sin),
            np.array([1 - i / _TABLE for i in range(_TABLE // 2 + 1)]),
            np.array(log_c), ln2_hi / _FIX, (ln2 - ln2_hi) / _FIX,
            pi / (_TABLE // 2 * _FIX))


# cos and sin of 2 pi j/1024 (j = 0..1024); c_i = 1 - i/1024 and log c_i
# (i = 0..512); ln 2 as hi + lo; 2 pi/1024
_COS, _SIN, _C, _LOG_C, _LN2_HI, _LN2_LO, _TWO_PI_N = _tables()


def _box_muller(u: np.ndarray, scratch: tuple) -> None:
    """Replace each uniform pair (u1, u2) = (u[2p], u[2p + 1]) of the
    even-length 1-D ``u`` by (r cos theta, r sin theta), r^2 = -2 log
    max(u1, tiny) and theta = 2 pi u2.  ``scratch`` is ``_scratch(pairs)``
    for some pairs >= len(u) / 2.

    The log is e ln 2 + log c_i + log1p(f): u1 = m 2^e with m in [1/2, 1),
    c_i = 1 - i/1024 the table point nearest m (c_0 = 1, so the log stays
    accurate as u1 -> 1) and f = (m - c_i)/c_i, |f| <= 2^-10, under a
    degree-5 log1p.  The angle is reduced exactly on u2: with t = 1024 u2
    and j = floor(t + 1/2), theta = 2 pi j/1024 + delta, delta =
    (t - j) 2 pi/1024, and the table's cos and sin of 2 pi j/1024 are
    turned by delta through degree-5 sin delta and degree-4 1 - cos delta.
    """
    w = len(u) // 2
    floats, idx, e = (x[..., :w] for x in scratch)
    r, m, c, t, h, a, b = floats
    np.maximum(u[0::2], _TINY, out=r)
    np.frexp(r, out=(m, e))
    np.multiply(m, -_TABLE, out=r)
    r += _TABLE + 0.5  # exact
    np.copyto(idx, r, casting="unsafe")  # i = floor(r), as r > 0
    np.take(_C, idx, out=c, mode="clip")
    m -= c  # exact
    m /= c  # f
    np.multiply(m, 1 / 5, out=r)
    r -= 1 / 4
    r *= m
    r += 1 / 3
    r *= m
    r -= 1 / 2
    r *= m
    r *= m
    r += m  # log1p(f)
    np.multiply(e, _LN2_LO, out=c)
    r += c
    np.take(_LOG_C, idx, out=c, mode="clip")
    r += c
    np.multiply(e, _LN2_HI, out=c)
    r += c  # log u1
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(u[1::2], _TABLE, out=t)  # exact
    np.add(t, 0.5, out=h)
    np.floor(h, out=h)  # j
    np.copyto(idx, h, casting="unsafe")
    t -= h  # exact, |t| <= 1/2
    t *= _TWO_PI_N  # delta
    np.multiply(t, t, out=m)
    np.multiply(m, 1 / 120, out=a)
    a -= 1 / 6
    a *= m
    a *= t
    a += t  # sin delta
    np.multiply(m, -1 / 24, out=b)
    b += 1 / 2
    b *= m  # 1 - cos delta
    np.take(_COS, idx, out=c, mode="clip")
    np.take(_SIN, idx, out=h, mode="clip")
    # cos theta = C - (C (1 - cos delta) + S sin delta) and
    # sin theta = S + (C sin delta - S (1 - cos delta))
    np.multiply(c, b, out=t)
    np.multiply(h, a, out=m)
    t += m
    a *= c
    b *= h
    a -= b
    c -= t
    h += a
    np.multiply(r, c, out=u[0::2])
    np.multiply(r, h, out=u[1::2])


def _scratch(pairs: int) -> tuple:
    """Buffers for ``_box_muller`` on up to ``pairs`` uniform pairs."""
    return (np.empty((7, pairs)), np.empty(pairs, np.intp),
            np.empty(pairs, np.int32))


def _gaussian_in_place(u: np.ndarray) -> None:
    """Box-Muller on the pairs of the even-length 1-D ``u``, in place, a
    chunk at a time with one set of chunk-sized scratch buffers."""
    scratch = _scratch(min(len(u), _CHUNK) // 2)
    for col in range(0, len(u), _CHUNK):
        _box_muller(u[col:col + _CHUNK], scratch)


def uniform_stream(k, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1); element ``i`` is a function of counter
    ``offset + i`` alone."""
    k = as_key(k)
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    out = np.empty(n)
    kernel = _philox4x32 if k.version == 1 else _philox4x64
    kernel(k.key, k.counter_offset, out)
    return out


def gaussian_stream(k, n: int) -> np.ndarray:
    """``n`` standard normals via Box-Muller on consecutive uniform pairs.

    Pair ``p`` consumes uniforms at counters ``offset + 2p`` and
    ``offset + 2p + 1``; a trailing odd element uses the cosine branch of
    its pair.  A zero uniform is clamped to the smallest positive double
    before the logarithm.  The transform (``_box_muller``) uses only
    exactly rounded operations and fixed tables, so each value is the same
    at every SIMD level numpy dispatches to.  One ``uniform_stream`` draw
    is transformed in place a chunk at a time, with one set of chunk-sized
    scratch buffers.
    """
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    out = uniform_stream(k, gaussian_counters_used(n))
    _gaussian_in_place(out)
    return out[:n]


def rademacher_stream(k, n: int) -> np.ndarray:
    """``n`` independent signs in {-1.0, +1.0} with equal probability:
    -1.0 where the uniform stream is below 1/2."""
    out = uniform_stream(k, n)
    np.subtract(out, 0.5, out=out)  # negative exactly where u < 1/2
    np.copysign(1.0, out, out=out)
    return out


def stream_block(keys, n: int, dist: str = "uniform") -> np.ndarray:
    """An (n, len(keys)) block whose column j is bitwise the ``dist``
    stream of length n at ``keys[j]`` (``uniform_stream``,
    ``gaussian_stream`` or ``rademacher_stream`` on that key), so the keys
    may differ in any field, version included.  Columns are contiguous in
    memory.

    Gaussian columns are transformed in groups of max(1, chunk // counters
    per column) ``uniform_stream`` draws, a chunk of counters per
    ``_box_muller`` pass; that is bitwise the per-stream draw, since the
    transform works pair by pair.
    """
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    if dist not in ("uniform", "gaussian", "rademacher"):
        raise ValueError(f"unknown stream distribution {dist!r}")
    out = np.empty((len(keys), n))
    if dist == "gaussian":
        used = gaussian_counters_used(n)
        per = max(1, _CHUNK // max(used, 1))
        u = np.empty((min(per, len(keys)), used))
        for j in range(0, len(keys), per):
            group = keys[j:j + per]
            rows = u[:len(group)]
            for row, k in zip(rows, group):
                row[:] = uniform_stream(k, used)
            _gaussian_in_place(rows.reshape(-1))
            out[j:j + len(group)] = rows[:, :n]
        return out.T
    draw = {"uniform": uniform_stream,
            "rademacher": rademacher_stream}[dist]
    for j, k in enumerate(keys):
        out[j] = draw(k, n)
    return out.T


def uniform_grid(k, d: int, m: int) -> np.ndarray:
    """A d-by-m grid of uniforms where entry (i, j) uses counter
    ``offset + i + d*j`` (column-major layout)."""
    return uniform_stream(k, d * m).reshape((d, m), order="F")


def gaussian_counters_used(n: int) -> int:
    """Counters consumed by ``gaussian_stream(k, n)``."""
    return 2 * ((n + 1) // 2)
