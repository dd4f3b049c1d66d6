"""Bootstrap a-posteriori error estimation for sketch-and-solve outputs.

Both methods resample rows of the sketched data with replacement, re-solve
the small problem per replicate, and report the empirical (1 - alpha)
quantile of the replicate-vs-estimate discrepancies as an error bound for
the estimate itself.  Replicates use per-replicate derived seeds and are
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _shapes
from . import detkernels as dk
from . import rng as _rng
from .rng import as_key


@dataclass
class BootstrapResult:
    """Empirical quantile estimate over B replicate errors.

    ``quantile_estimate`` is the inclusive empirical (1 - alpha) quantile:
    the smallest replicate value t with at least a (1 - alpha) fraction of
    replicates <= t.
    """

    quantile_estimate: float
    alpha: float
    B: int
    replicate_errors: np.ndarray


def empirical_quantile(values, alpha: float) -> float:
    values = np.sort(np.asarray(values, dtype=float))
    B = values.size
    j = int(np.ceil((1.0 - alpha) * B))
    j = min(max(j, 1), B)
    return float(values[j - 1])


def _check_args(B, alpha):
    if B < 1:
        raise ValueError("need at least one bootstrap replicate")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")


# counters per block draw of resample indices
_BLOCK_COUNTERS = 1 << 20


def _resample_indices(seed, B: int, d: int):
    """Resample indices of replicates 0, ..., B - 1, in order: replicate ell
    draws d row indices with replacement from ``seed.substream(ell)``.
    Replicates are drawn together, in blocks of up to 2^20 counters."""
    per = max(1, _BLOCK_COUNTERS // d)
    for start in range(0, B, per):
        keys = [seed.substream(ell) for ell in range(start, min(start + per, B))]
        u = _rng.stream_block(keys, d)
        yield from np.minimum((u * d).astype(np.int64), d - 1).T


def vector_distance(u, v, norm: str = "l2") -> float:
    if norm == "l2":
        return float(np.linalg.norm(u - v))
    if norm == "linf":
        return float(np.abs(u - v).max())
    raise ValueError("norm must be 'l2' or 'linf'")


def sign_invariant_distance(u, v) -> float:
    """min(||u - v||, ||u + v||): the singular-vector metric."""
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def bootstrap_ls(A_hat, b_hat, x_hat, B: int = 100, alpha: float = 0.1,
                 norm: str = "l2", seed=0) -> BootstrapResult:
    """Bootstrap error estimate for sketch-and-solve least squares.

    Each replicate resamples the d sketched rows with replacement, solves
    the resampled least squares problem (pseudoinverse semantics if it
    loses rank), and records the distance to x_hat.  Needs d >= n.
    """
    A_hat = np.asarray(A_hat, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    d, n = A_hat.shape
    _shapes.tall(d, n, "sketch")
    _check_args(B, alpha)
    seed = as_key(seed)
    errors = np.empty(B)
    for ell, idx in enumerate(_resample_indices(seed, B, d)):
        x_rep = np.linalg.lstsq(A_hat[idx], b_hat[idx], rcond=None)[0]
        errors[ell] = vector_distance(x_rep, x_hat, norm)
    return BootstrapResult(empirical_quantile(errors, alpha), alpha, B, errors)


def bootstrap_svd(A_hat, k: int, B: int = 100, alpha: float = 0.1, seed=0):
    """Bootstrap error estimates for sketch-and-solve one-sided SVD.

    Replicates resample rows of the sketch; per replicate the errors are
    the worst singular-value deviation over the top k and the worst
    sign-invariant right-singular-vector distance.  A resample is d-by-n,
    so its SVD has min(d, n) >= k singular values, and one that drops below
    rank k shows it as singular values at or near 0.  Needs
    1 <= k <= min(d, n) for the d-by-n sketch.

    Returns (sigma_result, v_result).
    """
    A_hat = np.asarray(A_hat, dtype=float)
    d, n = A_hat.shape
    _shapes.rank_fits(d, n, "d, n", k=k)
    _check_args(B, alpha)
    seed = as_key(seed)
    _, sig_hat, V_hat = dk.svd(A_hat)
    sig_hat, V_hat = sig_hat[:k], V_hat[:, :k]
    err_sig = np.empty(B)
    err_v = np.empty(B)
    for ell, idx in enumerate(_resample_indices(seed, B, d)):
        _, sig_rep, V_rep = dk.svd(A_hat[idx])
        err_sig[ell] = np.abs(sig_rep[:k] - sig_hat).max()
        err_v[ell] = max(
            sign_invariant_distance(V_rep[:, j], V_hat[:, j]) for j in range(k)
        )
    return (
        BootstrapResult(empirical_quantile(err_sig, alpha), alpha, B, err_sig),
        BootstrapResult(empirical_quantile(err_v, alpha), alpha, B, err_v),
    )
