"""Counter-based random number generation.

Every random quantity in this library is a pure function of a 64-bit key and
a 64-bit counter offset.  Entry ``i`` of a stream depends only on the counter
value ``offset + i``, so streams can be generated in any order, in parallel,
or one element at a time, and always agree bitwise.

The generator is Philox 4x32 with 10 rounds and the published round/Weyl
constants, frozen here for reproducibility.  Each counter value yields one
double-precision uniform built from 53 bits of generator output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox 4x32 multipliers and Weyl key increments.
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_WEYL_0 = 0x9E3779B9
_WEYL_1 = 0xBB67AE85
_ROUNDS = 10

# Stride between derived substreams: 2^40 counters each, 2^24 substreams.
_SUBSTREAM_STRIDE = 1 << 40

_TINY = np.nextafter(0.0, 1.0)  # smallest positive double


@dataclass(frozen=True)
class RngKey:
    """Identifies a reproducible stream: a 64-bit key plus a stream position.

    Two keys with equal ``(key, counter_offset)`` produce identical output;
    distinct keys produce statistically independent streams.
    """

    key: int = 0
    counter_offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "key", int(self.key) & _MASK64)
        object.__setattr__(
            self, "counter_offset", int(self.counter_offset) & _MASK64
        )

    def advance(self, n: int) -> "RngKey":
        """Key for the same stream shifted forward by ``n`` counters."""
        return RngKey(self.key, (self.counter_offset + int(n)) & _MASK64)

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


_CHUNK = 1 << 14  # keep the working set cache-resident


def _philox_block(key: int, counters: np.ndarray):
    """Philox 4x32-10 on one block of 64-bit counters.

    The 128-bit counter block is (c_lo, c_hi, 0, 0) for each 64-bit counter
    value.  Returns the first two 32-bit output words as uint64 arrays.
    """
    m32 = np.uint64(_MASK32)
    sh = np.uint64(32)
    c0 = counters & m32
    c1 = counters >> sh
    c2 = np.zeros_like(counters)
    c3 = np.zeros_like(counters)
    k0 = np.uint64(key & _MASK32)
    k1 = np.uint64((key >> 32) & _MASK32)
    for _ in range(_ROUNDS):
        p0 = c0 * _PHILOX_M0
        p1 = c2 * _PHILOX_M1
        c0, c1, c2, c3 = (
            (p1 >> sh) ^ c1 ^ k0,
            p1 & m32,
            (p0 >> sh) ^ c3 ^ k1,
            p0 & m32,
        )
        k0 = (k0 + np.uint64(_WEYL_0)) & m32
        k1 = (k1 + np.uint64(_WEYL_1)) & m32
    return c0, c1


def _philox(key: int, counters: np.ndarray):
    """Chunked Philox evaluation; returns the first two output words."""
    n = counters.size
    if n <= _CHUNK:
        return _philox_block(key, counters)
    x0 = np.empty(n, dtype=np.uint64)
    x1 = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        a, b = _philox_block(key, counters[start:stop])
        x0[start:stop] = a
        x1[start:stop] = b
    return x0, x1


def _unit_doubles(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from Philox output words: 53 random bits, 27 from
    the first word and 26 from the second."""
    hi = (x0 >> np.uint64(5)) << np.uint64(26)
    lo = x1 >> np.uint64(6)
    return (hi | lo) * (2.0 ** -53)


def _counters(k: RngKey, n: int) -> np.ndarray:
    base = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return base + np.uint64(k.counter_offset)


def uniform_stream(k, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1); element ``i`` is a function of counter
    ``offset + i`` alone."""
    k = as_key(k)
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    if n == 0:
        return np.empty(0)
    return _unit_doubles(*_philox(k.key, _counters(k, n)))


def gaussian_stream(k, n: int) -> np.ndarray:
    """``n`` standard normals via Box-Muller on consecutive uniform pairs.

    Pair ``p`` consumes uniforms at counters ``offset + 2p`` and
    ``offset + 2p + 1``; a trailing odd element uses the cosine branch of
    its pair.  A zero uniform is clamped to the smallest positive double
    before the logarithm.
    """
    k = as_key(k)
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    if n == 0:
        return np.empty(0)
    return _box_muller(uniform_stream(k, gaussian_counters_used(n)))[:n]


def rademacher_stream(k, n: int) -> np.ndarray:
    """``n`` independent signs in {-1.0, +1.0} with equal probability."""
    u = uniform_stream(k, n)
    return np.where(u < 0.5, -1.0, 1.0)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from uniform pairs along the last axis: pair p uses entries
    2p and 2p + 1, cosine branch first."""
    u1 = np.maximum(u[..., 0::2], _TINY)
    theta = 2.0 * np.pi * u[..., 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(u.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


def stream_block(keys, n: int, dist: str = "uniform") -> np.ndarray:
    """An (n, len(keys)) block whose column j is the ``dist`` stream of
    length n at ``keys[j]``, bitwise equal to ``uniform_stream``,
    ``gaussian_stream`` or ``rademacher_stream`` called on that key.

    The keys must share one 64-bit key (they differ in counter offset, as
    substreams and advanced keys of one seed do), so the whole block is one
    Philox evaluation.  Columns are contiguous in memory.
    """
    keys = [as_key(k) for k in keys]
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    if dist not in ("uniform", "gaussian", "rademacher"):
        raise ValueError(f"unknown stream distribution {dist!r}")
    if len({k.key for k in keys}) > 1:
        raise ValueError("a stream block needs keys that share one 64-bit key")
    if n == 0 or not keys:
        return np.empty((n, len(keys)))
    width = gaussian_counters_used(n) if dist == "gaussian" else n
    offsets = np.array([k.counter_offset for k in keys], dtype=np.uint64)
    with np.errstate(over="ignore"):
        counters = offsets[:, None] + np.arange(width, dtype=np.uint64)
    u = _unit_doubles(*_philox(keys[0].key, counters.ravel()))
    u = u.reshape(len(keys), width)
    if dist == "gaussian":
        u = _box_muller(u)[:, :n]
    elif dist == "rademacher":
        u = np.where(u < 0.5, -1.0, 1.0)
    return np.ascontiguousarray(u).T


def uniform_grid(k, d: int, m: int) -> np.ndarray:
    """A d-by-m grid of uniforms where entry (i, j) uses counter
    ``offset + i + d*j`` (column-major layout)."""
    return uniform_stream(k, d * m).reshape((d, m), order="F")


def gaussian_counters_used(n: int) -> int:
    """Counters consumed by ``gaussian_stream(k, n)``."""
    return 2 * ((n + 1) // 2)
