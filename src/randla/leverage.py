"""Leverage scores: exact, fast two-sketch approximation, and rank-k
(subspace) scores, plus the induced sampling distributions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _shapes, leastsq, lowrank
from . import detkernels as dk
from . import rng as _rng
from . import sketching
from .rng import as_key


@dataclass
class LeverageScores:
    """Row leverage scores; ``kind`` is 'standard' or 'rank_k'."""

    scores: np.ndarray
    kind: str = "standard"
    k: int | None = None


@dataclass
class SamplingDistribution:
    probs: np.ndarray


def exact_leverage(A) -> LeverageScores:
    """Exact standard leverage scores: squared row norms of an orthonormal
    basis for range(A)."""
    A = np.asarray(A, dtype=float)
    U = lowrank.orth(A)
    return LeverageScores(np.sum(U * U, axis=1), "standard")


def coherence(A) -> float:
    """m times the maximum leverage score; lies in [n, m] for full rank."""
    A = np.asarray(A, dtype=float)
    return A.shape[0] * float(exact_leverage(A).scores.max())


def approx_leverage(A, d1: int, d2: int, seed=0, s2=None) -> LeverageScores:
    """Fast two-sketch approximation of the standard leverage scores.

    Stage one pseudo-inverts through a d1-by-m SRFT sketch: the SVD of
    S1 A yields V1 Sigma1^{-1}, and the squared row norms of
    A V1 Sigma1^{-1} already estimate the scores.  The SRFT computes only
    its d1 sampled rows of the transform (``sketching.fwht``).  Stage two
    compresses that product from the right with a 1/sqrt(d2)-scaled
    Gaussian test matrix, so A is touched exactly twice; the row norms of
    the m-by-d2 product are summed in place, with no second m-by-d2 array.
    A rank-deficient stage-one sketch falls back to the truncated
    pseudoinverse with a warning.
    ``s2`` overrides the stage-two test matrix (used by exactness tests).

    The documented defaults d1 = 4n, d2 = ceil(8 ln m) target the
    aggressive effective-distortion regime; factor-2 recovery of the
    scores needs roomier sketches (d1 ~ 12n, d2 ~ 4 ln^2 m measured).
    Needs n <= d1 <= m and d2 >= 1.
    """
    A = np.asanyarray(A, dtype=float)
    m, n = A.shape
    _shapes.sketch_rows(m, n, d1=d1)
    if d2 < 1:
        raise ValueError("need d2 >= 1")
    seed = as_key(seed)
    P = leastsq.make_precond_svd(sketching.sample_srft(d1, m, seed).apply(A))
    M, r = P.M, P.rank  # M = V1 Sigma1^{-1}, n x r
    if r < n:
        warnings.warn(
            f"stage-one sketch is rank-deficient (rank {r} < {n}); "
            "scores use the truncated pseudoinverse",
            RuntimeWarning,
        )
    if s2 is None:
        g = _rng.gaussian_stream(seed.substream(1), n * d2)
        s2 = g.reshape((n, d2), order="F") / np.sqrt(d2)
    else:
        s2 = np.asarray(s2, dtype=float)
    T = dk.times(A, M @ s2[:r, :])  # second and last access to A
    return LeverageScores(np.einsum("ij,ij->i", T, T), "standard")


def subspace_leverage(A, k: int, s: int = 5, seed=0,
                      power_passes: int = 2) -> LeverageScores:
    """Approximate rank-k leverage scores: the squared row norms of the
    rank-k left factor U of ``lowrank.svd1`` (a rank-(k+s) QB, then the SVD
    of B).  Needs 1 <= k <= min(m, n) - s."""
    A = np.asarray(A, dtype=float)
    _shapes.rank_fits(*A.shape, k=k, s=s)
    U = lowrank.svd1(A, k, s=s, seed=seed, power_passes=power_passes).U
    return LeverageScores(np.sum(U * U, axis=1), "rank_k", k)


def leverage_distribution(scores) -> SamplingDistribution:
    """Normalize leverage scores into a sampling distribution."""
    if isinstance(scores, LeverageScores):
        scores = scores.scores
    scores = np.asarray(scores, dtype=float)
    if np.any(scores < 0):
        raise ValueError("leverage scores must be nonnegative")
    total = scores.sum()
    if total <= 0:
        raise ValueError("cannot normalize all-zero scores")
    return SamplingDistribution(scores / total)
