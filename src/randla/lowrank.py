"""Low-rank approximation drivers and their computational routines.

Contents: power-iteration sketch generation, rangefinders, three QB
decompositions (plain, fully adaptive, pass-efficient), QB-backed SVD and
Hermitian eigendecompositions, a Nystrom eigendecomposition for psd inputs,
one-sided interpolative decompositions, row/column subset selection, CUR,
and randomized norm estimators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _shapes, sketching
from . import detkernels as dk
from . import rng as _rng
from .rng import as_key

_EPS = np.finfo(float).eps


def orth(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis for range(Y), dropping numerically null directions.

    The left singular vectors from ``dk.svd`` above its rank rule: for a
    well-conditioned tall or wide Y they come from CholeskyQR2 and the SVD
    of its small R, and such a Y keeps every column; otherwise from
    LAPACK's SVD."""
    Y = np.asarray(Y, dtype=float)
    if Y.size == 0:
        return np.zeros((Y.shape[0], 0))
    U, s, _ = dk.svd(Y)
    r = dk.numerical_rank(s, Y.shape)
    return U[:, :r]


# ---------------------------------------------------------------------------
# factor containers
# ---------------------------------------------------------------------------

@dataclass
class QBFactors:
    """A ~ Q B with Q column-orthonormal and B = Q^T A."""

    Q: np.ndarray
    B: np.ndarray

    def approximation(self) -> np.ndarray:
        return self.Q @ self.B


@dataclass
class SVDFactors:
    """A ~ U diag(sigma) V^T with orthonormal factors, sigma nonincreasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def approximation(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


@dataclass
class EVDFactors:
    """A ~ V diag(lam) V^T, eigenvalues sorted by decreasing magnitude."""

    V: np.ndarray
    lam: np.ndarray
    clamped: int = 0

    def approximation(self) -> np.ndarray:
        return (self.V * self.lam) @ self.V.T


@dataclass
class OneSidedID:
    """Interpolative decomposition along one axis.

    Column ID: A ~ A[:, skeleton] @ M with M[:, skeleton] = I exactly.
    Row ID:    A ~ M @ A[skeleton, :] with M[skeleton, :] = I exactly.
    """

    M: np.ndarray
    skeleton: np.ndarray
    axis: str

    def approximate(self, A: np.ndarray) -> np.ndarray:
        if self.axis == "column":
            return A[:, self.skeleton] @ self.M
        return self.M @ A[self.skeleton, :]


@dataclass
class CURFactors:
    """A ~ A[:, J] @ U @ A[I, :]."""

    J: np.ndarray
    U: np.ndarray
    I: np.ndarray

    def approximate(self, A: np.ndarray) -> np.ndarray:
        return A[:, self.J] @ self.U @ A[self.I, :]


# ---------------------------------------------------------------------------
# data-aware sketching via power iteration
# ---------------------------------------------------------------------------

def _times(A, X, adjoint: bool = False) -> np.ndarray:
    """A @ X (A^T @ X when ``adjoint``) for the full input A and a skinny
    block X, with A on the right of the GEMM (``dk.times``).  A
    ``_Deflated`` operator applies itself."""
    if isinstance(A, _Deflated):
        return A.apply(X, adjoint)
    return dk.times(A, X, adjoint)


def _gaussian_start(k: int, dim: int, seed) -> np.ndarray:
    """The oblivious dim-by-k Gaussian start of tsog1: the transpose of a
    wide dense sample."""
    return sketching.sample_dense("gaussian", k, dim, as_key(seed)).matrix().T


def tsog1(A, k: int, p: int = 2, q: int = 1, seed=0) -> np.ndarray:
    """Tall sketching operator for right-sketching A, sharpened by a p-step
    power method.

    Makes exactly p products with A or A^T; a stabilizing orthogonalization
    (``dk.qr_q``: CholeskyQR2 for a well-conditioned block, else
    Householder QR) runs after every q products.  p = 0 returns an
    oblivious operator without touching A.  Odd p starts from an m-by-k
    operator hit by A^T.
    The oblivious start is a Gaussian test matrix, the transpose of a wide
    dense sample; a ``_Deflated`` operator may hold it already (qb2 draws
    it one block early).
    """
    A = A if isinstance(A, _Deflated) else np.asanyarray(A, dtype=float)
    m, n = A.shape
    if p < 0 or q < 1:
        raise ValueError("need p >= 0 and q >= 1")
    if isinstance(A, _Deflated) and A.start is not None:
        S = A.start[0]
    else:
        S = _gaussian_start(k, m if p % 2 else n, seed)
    for done in range(1, p + 1):
        # the products alternate and the last one is with A^T
        S = _times(A, S, adjoint=(p - done) % 2 == 0)
        if done % q == 0:
            S = dk.qr_q(S)
    return S


def rf1(A, k: int, seed=0, power_passes: int = 2) -> np.ndarray:
    """Rangefinder: orthonormal basis for the range of a single row sketch
    A @ tsog1(A, k).  Returns at most min(k, rank A) columns."""
    A = A if isinstance(A, _Deflated) else np.asanyarray(A, dtype=float)
    S = tsog1(A, k, p=power_passes, seed=seed)
    return orth(_times(A, S))


# ---------------------------------------------------------------------------
# QB decompositions
# ---------------------------------------------------------------------------

def _check_rank(k: int):
    if k < 1:
        raise ValueError(f"need a rank k >= 1, got {k}")


def qb1(A, k: int, seed=0, power_passes: int = 2) -> QBFactors:
    """One-shot QB, ``qb2`` at tol 0: at most min(k, m, n) columns."""
    return qb2(A, k, seed=seed, power_passes=power_passes)


def _fused(A, X, rider, adjoint: bool):
    """_times(A, [X, rider], adjoint) as one GEMM, split back into the
    parts of X and of the rider (None when there is no rider)."""
    if rider is None:
        return _times(A, X, adjoint), None
    G = _times(A, np.hstack([X, rider]), adjoint)
    return G[:, :X.shape[1]], G[:, X.shape[1]:]


class _Deflated:
    """(I - Q Q^T) A for a column-orthonormal Q.  With B = Q^T A it is
    A - Q B, but it is applied without B: as (I - Q Q^T)(A X), and its
    adjoint as A^T (Y - Q (Q^T Y)).  A is the right-hand operand of every
    GEMM (``_times``).

    Riders let qb2 make fewer products with A; each is used once.
    ``start`` is a pair (S, A S) made one block early: tsog1 starts from S,
    and the product with S is not made again.  ``lead`` (m-by-r) joins the
    first adjoint product, as [Y, lead]^T A, and ``tail`` (n-by-r) the first
    product with A that is made, as A [X, tail]; ``lead_out`` = A^T lead
    and ``tail_out`` = A tail hold their parts.
    """

    def __init__(self, A, Q, start=None, lead=None, tail=None):
        self.A, self.Q, self.shape = A, Q, A.shape
        self.start, self.lead, self.tail = start, lead, tail
        self.lead_out = self.tail_out = None

    def project(self, Y):
        """(I - Q Q^T) Y; Y itself when Q has no columns."""
        if self.Q.shape[1] == 0:
            return Y
        return Y - self.Q @ (self.Q.T @ Y)

    def apply(self, X, adjoint: bool):
        if adjoint:
            Y, out = _fused(self.A, self.project(X), self.lead, True)
            if self.lead is not None:
                self.lead, self.lead_out = None, out
            return Y
        if self.start is not None and X is self.start[0]:
            AX, self.start = self.start[1], None
        else:
            AX, out = _fused(self.A, X, self.tail, False)
            if self.tail is not None:
                self.tail, self.tail_out = None, out
        return self.project(AX)


def qb2(A, k: int, tol: float = 0.0, block_size: int | None = None, seed=0,
        power_passes: int = 2) -> QBFactors:
    """Fully adaptive blocked QB.

    Block i runs the rangefinder (key ``seed.substream(i)``) on the
    deflated (I - Q Q^T) A, reorthogonalizes against Q (block 0 is
    orthonormalized once, by its rangefinder) and appends B_i = Q_i^T A,
    until the tracked error ||A||_F^2 - sum ||B_i||_F^2 drops to
    tol^2 ||A||_F^2 or Q holds min(k, m, n) columns.  At tol <= 0 the
    tracked error is not tested: below about sqrt(eps) ||A||_F it is a
    difference that cancels, and it can reach 0 while A - Q B is still far
    above rounding level.  No block follows one that keeps fewer columns
    than it asked for (the range of A is spent; its B_i is made at once),
    nor one with a row of B_i at rounding level, max(m, n) eps ||A||_F or
    less: that direction of Q_i is rounding noise of A - Q B, and dropped.
    ``block_size`` defaults to min(k, m, n) when ``tol <= 0`` (one block:
    qb1) and to min(k, 10) otherwise; no block is wider than the
    min(k, m, n) - (columns held) left of the rank budget.

    Products with A carry riders.  B_i is made one block late, inside
    block i+1's first product with A^T, and its tests run there; if they
    stop the loop, block i+1 is discarded.  With an even power_passes >= 2,
    block i+1's Gaussian start rides on block i's first product with A
    that is made.  A block so makes power_passes products with A
    (power_passes + 1 when odd) instead of power_passes + 2: at the default
    2, two products of width 2 * block_size.  With an even power_passes the
    first block makes one more, and the last B_i is made alone.  With
    power_passes = 0 every product runs alone.
    """
    A = np.asanyarray(A, dtype=float)
    m, n = A.shape
    _check_rank(k)
    rank_cap = min(k, m, n)
    if block_size is None:
        block_size = rank_cap if tol <= 0 else min(k, 10)
    elif block_size < 1:
        raise ValueError("block_size must be positive")
    seed = as_key(seed)
    p = power_passes

    anorm = np.linalg.norm(A, "fro")
    anorm2 = anorm ** 2
    threshold2 = tol ** 2 * anorm2
    noise = max(m, n) * np.finfo(float).eps * anorm
    Q = np.empty((m, rank_cap))
    B = np.empty((rank_cap, n))
    # Q[:, :rows] have their rows of B; Q[:, rows:cols] wait for theirs
    rows = cols = 0
    squared_error = anorm2

    def settle(Bi) -> bool:
        """Put the rows Bi of the waiting columns in place, dropping those
        at rounding level; True when the loop stops."""
        nonlocal rows, cols, squared_error
        signal = np.linalg.norm(Bi, axis=1) > noise
        kept = rows + int(signal.sum())
        Q[:, rows:kept] = Q[:, rows:cols][:, signal]
        B[rows:kept] = Bi[signal]
        squared_error -= np.linalg.norm(B[rows:kept], "fro") ** 2
        rows = cols = kept
        return (not signal.all() or cols >= rank_cap
                or tol > 0 and squared_error <= threshold2)

    ahead = None
    for block in range(rank_cap):
        w = min(block_size, rank_cap - cols)
        tail = None
        if p and p % 2 == 0 and cols + w < rank_cap:
            tail = _gaussian_start(min(block_size, rank_cap - cols - w), n,
                                   seed.substream(block + 1))
        op = _Deflated(A, Q[:, :cols], start=ahead, tail=tail,
                       lead=Q[:, rows:cols] if cols > rows else None)
        Qi = rf1(op, w, seed=seed.substream(block), power_passes=p)
        if op.lead_out is not None and settle(op.lead_out.T):
            break
        Qi = orth(op.project(Qi)) if cols else Qi
        if Qi.shape[1] == 0:
            break
        Q[:, cols:cols + Qi.shape[1]] = Qi
        cols += Qi.shape[1]
        ahead = (tail, op.tail_out) if tail is not None else None
        done = cols >= rank_cap or Qi.shape[1] < w
        if (p == 0 or done) and (settle(Qi.T @ A) or done):
            break
    return QBFactors(np.ascontiguousarray(Q[:, :cols]), B[:cols])


def qb3(A, k: int, tol: float = 0.0, block_size: int | None = None, seed=0,
        power_passes: int = 2) -> QBFactors:
    """Pass-efficient, partially adaptive QB.

    Computes G = A S and H = A^T G up front (one multiply with A and one
    with A^T) and never touches A inside the block loop.  Must not be
    called with k = min(m, n).
    """
    A = np.asanyarray(A, dtype=float)
    m, n = A.shape
    if not 1 <= k < min(m, n):
        raise ValueError("qb3 requires 1 <= k < min(m, n)")
    if block_size is None:
        block_size = min(k, 10)
    seed = as_key(seed)

    S = tsog1(A, k, p=power_passes, seed=seed)
    G = _times(A, S)
    H = _times(A, G, adjoint=True)
    anorm2 = np.linalg.norm(A, "fro") ** 2
    threshold2 = (max(tol, 0.0) ** 2) * anorm2

    Q = np.zeros((m, 0))
    B = np.zeros((0, n))
    squared_error = anorm2
    max_blocks = -(-k // block_size)
    for i in range(max_blocks):
        bs, be = i * block_size, min((i + 1) * block_size, k)
        Si = S[:, bs:be]
        Yi = G[:, bs:be] - Q @ (B @ Si)
        Qi, Ri = dk.qr_econ(Yi)
        Qi = Qi - Q @ (Q.T @ Qi)
        Qi, Rhat = dk.qr_econ(Qi)
        Ri = Rhat @ Ri
        # The recurrence uses Y_i^T Q' B, written with mismatched shapes in
        # some statements of the algorithm; this is the consistent form.
        Bi = H[:, bs:be].T - (Yi.T @ Q) @ B - (B @ Si).T @ B
        Bi = dk.solve_triangular(Ri, Bi, trans="T")
        B = np.vstack([B, Bi])
        Q = np.hstack([Q, Qi])
        squared_error -= np.linalg.norm(Bi, "fro") ** 2
        if max(squared_error, 0.0) <= threshold2:
            break
    return QBFactors(Q, B)


# ---------------------------------------------------------------------------
# spectral drivers
# ---------------------------------------------------------------------------

def svd1(A, k: int, tol: float = 0.0, s: int = 5, seed=0,
         power_passes: int = 2) -> SVDFactors:
    """QB-backed low-rank SVD, truncated to rank at most k.

    U = Q U_B for the QB phase, ``qb2`` at rank k + s, and the SVD of B: with
    ``tol <= 0`` that is ``qb1``, one rangefinder block orthonormalized
    once, otherwise blocks of 10 until the tracked error meets ``tol``."""
    A = np.asanyarray(A, dtype=float)
    _check_rank(k)
    qb = qb2(A, k + s, tol=tol, seed=seed, power_passes=power_passes)
    U, sig, V = dk.svd(qb.B)
    return SVDFactors(qb.Q @ U[:, :k], sig[:k], V[:, :k])


def evd1(A, k: int, tol: float = 0.0, s: int = 5, seed=0,
         power_passes: int = 2) -> EVDFactors:
    """QB-backed low-rank eigendecomposition of a Hermitian matrix.

    The QB phase is ``qb2`` at rank k + s and tolerance tol/2, so the
    symmetrized approximation meets tol; with ``tol <= 0`` it is one
    rangefinder block of k + s columns."""
    A = np.asanyarray(A, dtype=float)
    _check_rank(k)
    scale = np.abs(A).max() if A.size else 0.0
    if A.shape[0] != A.shape[1] or np.abs(A - A.T).max() > 1e-10 * max(scale, 1e-300):
        raise ValueError("evd1 requires a Hermitian input (not symmetrized silently)")
    qb = qb2(A, k + s, tol=tol / 2.0, seed=seed, power_passes=power_passes)
    C = qb.B @ qb.Q
    C = 0.5 * (C + C.T)
    lam, U = dk.eigh(C)
    order = np.argsort(-np.abs(lam))[:k]
    return EVDFactors(qb.Q @ U[:, order], lam[order])


def evd2(A, k: int, s: int = 5, seed=0, power_passes: int = 2) -> EVDFactors:
    """Nystrom low-rank eigendecomposition for psd matrices.

    Shifts by nu = sqrt(n) eps ||Y||_2 for stability, Cholesky-factors the
    core, and removes the shift from the recovered eigenvalues, dropping
    any that do not clear nu.  A Cholesky failure escalates the shift by
    10x, at most three times.  Needs a square A and 1 <= k <= n - s.
    """
    A = np.asanyarray(A, dtype=float)
    _shapes.square(*A.shape)
    n = A.shape[0]
    _shapes.rank_fits(n, n, k=k, s=s)
    S = tsog1(A, k + s, p=power_passes, seed=seed)
    Y = _times(A, S)
    ynorm = dk.norm2(Y) if Y.size else 0.0
    if ynorm == 0.0:
        return EVDFactors(np.zeros((n, 0)), np.zeros(0))
    nu = np.sqrt(n) * _EPS * ynorm
    R = None
    for attempt in range(4):
        try:
            Yshift = Y + nu * S
            R = dk.chol(S.T @ Yshift)
            break
        except dk.CholeskyError:
            if attempt == 3:
                raise
            nu *= 10.0
    B = dk.solve_triangular(R, Yshift.T, trans="T").T
    V, sig, _ = dk.svd(B)
    lam = sig ** 2
    r = min(k, int(np.sum(lam > nu)))
    lam = lam[:r] - nu
    clamped = int(np.sum(lam < 0))
    lam = np.maximum(lam, 0.0)
    return EVDFactors(V[:, :r], lam, clamped)


# ---------------------------------------------------------------------------
# one-sided ID, subset selection, CUR
# ---------------------------------------------------------------------------

def osid_qrcp(Y, k: int, axis: str = "column") -> OneSidedID:
    """Deterministic one-sided ID of Y via QRCP truncated at rank k.

    An exactly singular leading triangle reduces k to the numerical rank
    with a warning.  Row ID is the column ID of Y^T, transposed back.
    """
    Y = np.asarray(Y, dtype=float)
    if axis not in ("row", "column"):
        raise ValueError("axis must be 'row' or 'column'")
    if axis == "row":
        cid = osid_qrcp(Y.T, k, axis="column")
        return OneSidedID(cid.M.T, cid.skeleton, "row")
    ell, w = Y.shape
    _shapes.rank_fits(ell, w, k=k)
    R, J = dk.qrcp(Y)
    diag = np.abs(np.diag(R))
    if diag.size and diag[0] > 0:
        k_num = int(np.sum(diag[:k] > min(ell, w) * _EPS * diag[0]))
    else:
        k_num = 0
    if k_num < k:
        warnings.warn(
            f"rank of leading triangle is {k_num} < k = {k}; reducing",
            RuntimeWarning,
        )
        k = k_num
    T = dk.solve_triangular(R[:k, :k], R[:k, k:])
    X = np.zeros((k, w))
    X[:, J] = np.hstack([np.eye(k), T])
    return OneSidedID(X, J[:k].copy(), "column")


def _axis_sketch(A, ell: int, axis: str, seed,
                 power_passes: int) -> np.ndarray:
    """The power-iteration sketch that row or column selection reads: A S
    (m-by-ell, rows of A) or S^T A (ell-by-n, columns of A), S from tsog1."""
    if axis == "row":
        return _times(A, tsog1(A, ell, p=power_passes, seed=seed))
    if axis == "column":
        return tsog1(A.T, ell, p=power_passes, seed=seed).T @ A
    raise ValueError("axis must be 'row' or 'column'")


def osid1(A, k: int, s: int = 5, axis: str = "column", seed=0,
          power_passes: int = 2) -> OneSidedID:
    """Randomized one-sided ID: a full-rank ID of a power-iteration sketch,
    re-used verbatim for A.  Needs 1 <= k <= min(m, n) - s."""
    A = np.asanyarray(A, dtype=float)
    _shapes.rank_fits(*A.shape, k=k, s=s)
    Y = _axis_sketch(A, k + s, axis, seed, power_passes)
    return osid_qrcp(Y, k, axis=axis)


def rocs1(A, k: int, s: int = 5, axis: str = "column", seed=0,
          power_passes: int = 2) -> np.ndarray:
    """Row or column subset selection: the first k QRCP pivots of a
    power-iteration sketch."""
    A = np.asanyarray(A, dtype=float)
    _check_rank(k)
    Y = _axis_sketch(A, k + s, axis, seed, power_passes)
    _, piv = dk.qrcp(Y.T if axis == "row" else Y)
    return piv[:k].copy()


def curd1(A, k: int, s: int = 5, seed=0, power_passes: int = 2) -> CURFactors:
    """CUR decomposition built from a randomized column ID plus QRCP
    subset selection of rows on the chosen panel; the linking matrix
    applies one pseudoinverse and tolerates rank deficiency.  A wide A
    gets the CUR of A^T, transposed."""
    A = np.asanyarray(A, dtype=float)
    m, n = A.shape
    if m < n:
        cur = curd1(A.T, k, s=s, seed=seed, power_passes=power_passes)
        return CURFactors(cur.I, cur.U.T, cur.J)
    cid = osid1(A, k, s=s, axis="column", seed=seed,
                power_passes=power_passes)
    J = cid.skeleton
    _, I = dk.qrcp(A[:, J].T)
    I = I[: J.size].copy()
    U = cid.M @ dk.pinv(A[I, :])
    return CURFactors(J, U, I)


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

def _probe_norms(apply_A, n: int, r: int, seed) -> np.ndarray:
    """||A z_j|| for r Gaussian probes, one stream at seed cut into columns
    of stride = gaussian_counters_used(n): z_j, the first n of column j, is
    the stream at seed.advance(j * stride).  A meets the (n, r) block once."""
    stride = _rng.gaussian_counters_used(n)
    Z = _rng.gaussian_stream(seed, stride * r).reshape((stride, r), order="F")
    return np.linalg.norm(dk._apply_block(dk._as_apply(apply_A), Z[:n],
                                          square=False), axis=0)


def spectral_bound(apply_A, n: int, r: int = 10, beta: float = 2.0, seed=0) -> float:
    """Probabilistic spectral-norm bound beta sqrt(2/pi) max_j ||A z_j||
    over r Gaussian probes; valid with probability at least 1 - beta^-r."""
    if r < 1 or beta <= 1:
        raise ValueError("need r >= 1 and beta > 1")
    best = max(0.0, *_probe_norms(apply_A, n, r, seed))
    return beta * np.sqrt(2.0 / np.pi) * best


def frob_estimate(apply_A, n: int, r: int = 10, seed=0) -> float:
    """Unbiased estimate (1/r) ||A Z||_F^2 of the squared Frobenius norm,
    Z an n-by-r Gaussian probe matrix, its column norms summed in order."""
    if r < 1:
        raise ValueError("need r >= 1")
    return float(sum(_probe_norms(apply_A, n, r, seed) ** 2)) / r
