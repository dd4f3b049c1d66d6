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
counters straight into the returned array, so scratch memory is O(chunk)
whatever the stream length; ``uniform_stream`` picks the kernel.  Everything
else is one path for both versions: ``gaussian_stream`` and
``rademacher_stream`` transform one ``uniform_stream`` chunk at a time
(Box-Muller on pairs, a threshold at 1/2), and ``stream_block`` and
``uniform_grid`` are made of these stream functions.  Chunking does not
change any entry.
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


def _transform(u: np.ndarray, dist: str, out: np.ndarray) -> None:
    """Write the ``dist`` values of uniforms ``u`` into ``out`` along the
    last axis.  Rademacher: -1.0 where u < 1/2, else +1.0.  Gaussian:
    Box-Muller on pairs (2p, 2p + 1), cosine branch first; ``out`` may be
    one entry shorter than ``u``, and then its last entry has no sine."""
    if dist == "rademacher":
        out[...] = np.where(u < 0.5, -1.0, 1.0)
        return
    r = np.maximum(u[..., 0::2], _TINY)
    np.log(r, out=r)
    np.multiply(r, -2.0, out=r)
    np.sqrt(r, out=r)
    theta = 2.0 * np.pi * u[..., 1::2]
    out[..., 0::2] = r * np.cos(theta)
    s = out.shape[-1] // 2
    out[..., 1::2] = r[..., :s] * np.sin(theta[..., :s])


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


def _from_uniforms(k, n: int, dist: str) -> np.ndarray:
    """The ``dist`` stream of length ``n`` at ``k``, transformed from
    ``uniform_stream`` draws of at most _CHUNK counters each.  The one path
    from uniforms to Gaussians and signs, for every version and block."""
    k = as_key(k)
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    out = np.empty(n)
    for col in range(0, n, _CHUNK):
        dst = out[col:col + _CHUNK]
        used = len(dst)
        if dist == "gaussian":
            used = gaussian_counters_used(used)
        _transform(uniform_stream(k.advance(col), used), dist, dst)
    return out


def gaussian_stream(k, n: int) -> np.ndarray:
    """``n`` standard normals via Box-Muller on consecutive uniform pairs.

    Pair ``p`` consumes uniforms at counters ``offset + 2p`` and
    ``offset + 2p + 1``; a trailing odd element uses the cosine branch of
    its pair.  A zero uniform is clamped to the smallest positive double
    before the logarithm.
    """
    return _from_uniforms(k, n, "gaussian")


def rademacher_stream(k, n: int) -> np.ndarray:
    """``n`` independent signs in {-1.0, +1.0} with equal probability:
    -1.0 where the uniform stream is below 1/2."""
    return _from_uniforms(k, n, "rademacher")


def stream_block(keys, n: int, dist: str = "uniform") -> np.ndarray:
    """An (n, len(keys)) block whose column j is the ``dist`` stream of
    length n at ``keys[j]``, drawn by ``uniform_stream``, ``gaussian_stream``
    or ``rademacher_stream`` on that key, so the keys may differ in any
    field, version included.  Columns are contiguous in memory.
    """
    if n < 0:
        raise ValueError("stream length must be nonnegative")
    if dist not in ("uniform", "gaussian", "rademacher"):
        raise ValueError(f"unknown stream distribution {dist!r}")
    draw = {"uniform": uniform_stream, "gaussian": gaussian_stream,
            "rademacher": rademacher_stream}[dist]
    out = np.empty((len(keys), n))
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
