"""Full-rank QR decompositions of very tall matrices: Cholesky QR,
sketch-preconditioned Cholesky QR, and pivoted Cholesky QRCP with rank
deficiency support.  The sketched ones take d in [n, m], min(12n, m) by
default."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _shapes, sketching
from . import detkernels as dk
from .leastsq import DEFAULT_SAMPLING_FACTOR
from .rng import as_key


@dataclass
class PivotedQR:
    """A[:, J] = Q R with Q m-by-k column-orthonormal, R k-by-n upper
    trapezoidal, and J a permutation of the column indices.

    ``rank`` is the detected numerical rank k; ``sketch_r`` keeps the
    triangular factor of the sketch for diagnostics (e.g. reconstructing
    the preconditioned panel).
    """

    Q: np.ndarray
    R: np.ndarray
    J: np.ndarray
    rank: int
    sketch_r: np.ndarray | None = field(default=None, repr=False)


def chol_qr(A):
    """Cholesky QR: R = chol(A^T A), Q = A R^{-1}.

    Only safe when cond(A) is comfortably below 1/sqrt(eps); a Gram matrix
    that is not numerically positive definite raises CholeskyError with the
    failing pivot.  Q is made with A on the right of the GEMM
    (``dk.times``), so it is column-major.
    """
    A = np.asarray(A, dtype=float)
    R = dk.chol(A.T @ A)
    return dk.times(A, dk.triu_inv(R)), R


def _sketch(A, d: int | None, seed, op_family: str) -> np.ndarray:
    """S A for a d-by-m operator of ``op_family``; d defaults to the
    library's min(12n, m) and must lie in [n, m]."""
    m, n = A.shape
    d = _shapes.sketch_rows(m, n, DEFAULT_SAMPLING_FACTOR, d=d)
    return sketching.sample_operator(op_family, d, m, as_key(seed)).apply(A)


def rand_chol_qr(A, d: int | None = None, seed=0,
                 op_family: str = "saso"):
    """Sketch-preconditioned Cholesky QR for full-column-rank matrices.

    An unpivoted QR of the sketch supplies a triangular preconditioner that
    flattens the spectrum before the Cholesky step, so the method is stable
    far beyond plain Cholesky QR.  It raises ``LinAlgError`` when some
    |R_ii| of the sketch's triangular factor is at or below
    n * eps * max |R_ii|.  That test does not reveal rank: an exactly
    rank-deficient A can pass it on some keys.  Use sap_chol_qrcp to find
    the rank.  Both products with A put A on the right of the GEMM
    (``dk.times``); Q is column-major.
    """
    A = np.asarray(A, dtype=float)
    R_sk = dk.qr_r(_sketch(A, d, seed, op_family))
    if dk._qr_rank_deficient(R_sk):
        raise np.linalg.LinAlgError(
            "sketch lost rank; the matrix looks rank-deficient "
            "(use sap_chol_qrcp)"
        )
    Q, R_pre = chol_qr(dk.times(A, dk.triu_inv(R_sk)))
    return Q, R_pre @ R_sk


def sap_chol_qrcp(A, d: int | None = None, seed=0,
                  op_family: str = "saso") -> PivotedQR:
    """QRCP via sketch-and-precondition and Cholesky QR.

    QRCP of the sketch chooses the pivots and the numerical rank k
    (diagonal entries above max(d, n) * eps times the leading one); the
    leading k pivoted columns of A are preconditioned by the sketch
    triangle and re-factored with Cholesky QR.  The preconditioned panel is
    well-conditioned whenever the sketch preserves rank, regardless of
    cond(A), so the Cholesky step is safe; if the rank was over-estimated
    the Cholesky failure reduces k to the failing pivot and retries.
    Both products with A put A on the right of the GEMM (``dk.times``); Q
    is column-major.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    SA = _sketch(A, d, seed, op_family)
    R_sk, J = dk.qrcp(SA)
    k = dk.numerical_rank(np.abs(np.diag(R_sk)), SA.shape)
    while k > 0:
        # A[:, J[:k]] R_sk[:k, :k]^{-1} as one GEMM over A, without
        # gathering the pivoted columns
        M = np.zeros((n, k))
        M[J[:k]] = dk.triu_inv(R_sk[:k, :k])
        try:
            Q, R_pre = chol_qr(dk.times(A, M))
            break
        except dk.CholeskyError as err:
            # sketch rank was over-estimated; retry below the failing pivot
            k = err.pivot - 1
    else:
        return PivotedQR(np.zeros((m, 0)), np.zeros((0, n)), J, 0, R_sk)
    R = R_pre @ R_sk[:k, :]
    return PivotedQR(Q, R, J, k, R_sk)
