"""The drivers' shape preconditions, each stated once.  The drivers check
them on entry; ``bench`` names them in its adapters' annotations and checks
a config against them at load.  Each raises ValueError saying what is
wrong."""

import math

import numpy as np

# What a row-sampling embedding may hold: its d draws, indices and scales,
# and the d x vectors sketch of its test vectors with the rows it gathers.
SAMPLE_BYTES = 2 ** 30


def square(m: int, n: int, what: str = "matrix"):
    if m != n:
        raise ValueError(f"needs a square {what}, got {m}-by-{n}")


def tall(m: int, n: int, what: str = "matrix"):
    if m < n:
        raise ValueError(f"needs a tall {what} (m >= n), got {m}-by-{n}")


def sketch_rows(m: int, n: int, default=None, tall: bool = True,
                **size) -> int:
    """The one sketch size in ``size``, by name, for an m-by-n input: in
    [n, m], or at most m when the sketch need not be tall.  None stands for
    min(ceil(n * default), m), for a factor ``default``."""
    (name, d), = size.items()
    d = min(math.ceil(n * default), m) if d is None else d
    if tall and not n <= d <= m:
        raise ValueError(f"need n <= {name} <= m: {name!r} = {d} must lie "
                         f"in [n, m] = [{n}, {m}]")
    if d > m:
        raise ValueError(f"need {name} <= m: {name!r} = {d} must be at most "
                         f"m = {m}")
    return d


def sketch_dim(m: int, n: int, sampling_factor: float) -> int:
    """The tall sketch size min(ceil(n * sampling_factor), m), checked."""
    return sketch_rows(m, n, sampling_factor, d=None)


def rank_fits(m: int, n: int, dims: str = "m, n", **ranks):
    """A rank of at least 1 plus its oversampling, by name, at most
    min(m, n); ``dims`` names m and n."""
    (name, k), *_ = ranks.items()
    if k < 1:
        raise ValueError(f"need {name} >= 1, got {name!r} = {k}")
    total, top = sum(ranks.values()), min(m, n)
    if total > top:
        raise ValueError(f"need {' + '.join(ranks)} <= min({dims}): "
                         f"{' + '.join(map(repr, ranks))} = {total} must be "
                         f"at most min({dims}) = {top}")


def sample_rows(m: int, n: int, d=None, eps: float = 0.5,
                vectors: int = 50) -> int:
    """The rows of a row-sampling embedding of ``vectors`` test vectors in
    an m-by-n range at distortion ``eps``: ``d``, or ceil(4 n ln n / eps^2)
    (at least 1) for None.  The run holds about 8 d (2 vectors + 3) bytes,
    which must be at most SAMPLE_BYTES."""
    if d is None:
        d = max(1, int(np.ceil(n / eps ** 2 * np.log(n) * 4)))
    need = 8 * d * (2 * vectors + 3)
    if need > SAMPLE_BYTES:
        raise ValueError(f"'d' = {d} sampled rows of {vectors} vectors need "
                         f"about {need:.3g} bytes, more than 2^30")
    return d
