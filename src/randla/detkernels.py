"""Deterministic building blocks.

Dense factorizations go through this one seam.  QR, QR with column
pivoting, SVD, Hermitian eigendecomposition, Cholesky, triangular solves
and the inverse of a triangular factor run on numpy's LAPACK or on numpy
alone (CholeskyQR2, below, is numpy's BLAS and LAPACK on small factors),
the same BLAS runtime as every matrix product in the library, so a
driver's loop does not hand work back and forth between numpy's and
scipy's BLAS thread pools.  Such a hand-off was measured to stall: with
``qrcp`` on scipy's ``geqp3``, a 100 x 100 ``triu_inv`` right after it
took 59 ms inside ``sap_chol_qrcp`` against 1.3 ms inside
``rand_chol_qr``, and on a 4000 x 2000 input ``osid1``'s QRCP took 52 ms
and ``curd1``'s two 126 ms, against 12-25 ms when timed alone; on numpy,
``osid1`` fell from 0.18 to 0.11 s on that input.  The only scipy LAPACK
call left in the library is ``scipy.linalg.eigh_tridiagonal`` in
``trace.slq``, which uses no BLAS threads.

numpy has neither a pivoted QR nor a triangular solve:

- ``qrcp`` is a blocked Householder QR with column pivoting written with
  numpy, after LAPACK's ``geqp3``.  ``sap_chol_qrcp`` runs it on the
  sketch, and ``lowrank``'s ID, subset selection and CUR on a sketch or a
  k-row or k-column panel.  Every caller reads only R and the pivots, so
  it returns those and never forms Q.  Its per-step Python work makes it
  slower than ``geqp3`` on small square inputs (3-6 ms against 0.6 ms at
  100 x 100, and 1.5-1.7 times ``geqp3``'s time on a 1200 x 100 sketch);
  on the wide panels of ``osid1`` and ``curd1`` and at 4800 x 400 it is
  as fast or faster.  Its R may differ from earlier versions in the signs of its
  rows and in the last bits, as the other factorizations' did when they
  moved to numpy.
- ``solve_triangular`` is ``np.linalg.solve`` on the triangle.  Partial
  pivoting on an upper-triangular matrix swaps no rows and eliminates
  nothing, so LU's solve is ``trsm``'s back substitution; the transposed
  (lower-triangular) system is solved with rows and columns reversed,
  which makes it upper triangular.  ``lowrank.evd2``'s Nystrom core,
  ``qb3`` and ``osid_qrcp`` use it.
- ``make_precond_qr`` builds its preconditioner ``M = R^{-1}`` with
  ``triu_inv``, and the ``fullrank`` drivers apply R^{-1} to the tall A
  as one GEMM, ``A @ triu_inv(R)``: ``chol_qr`` its Cholesky factor,
  ``rand_chol_qr`` and ``sap_chol_qrcp`` the sketch's R and then, through
  ``chol_qr``, the Cholesky factor.  An explicit inverse is said to lose
  accuracy on ill-conditioned factors; for these drivers it does not.
  Over rotated and column-scaled 3000 x 50 inputs at cond 1e2 to 1e12,
  with SASO, Gaussian and SRFT sketches (d = 200), the worst of
  ||A - QR|| / ||A|| and max |Q^T Q - I| for ``rand_chol_qr`` and
  ``sap_chol_qrcp`` was 5.8e-15, against 2.0e-15 with ``trtrs``.  Plain
  ``chol_qr``'s reconstruction error rose from 1.4e-16 to 2.2e-15 at cond
  1e7; its orthogonality, governed by cond^2, did not change.

Tall blocks, and wide ones transposed, that are well conditioned skip
LAPACK's Householder QR and SVD: ``svd``, ``qr_q``, ``norm2`` and ``pinv``
first try CholeskyQR2 (``_cholqr2``), two passes of a Gram product, its
Cholesky factor and one GEMM with the factor's inverse, and ``svd`` then
takes U = Q W from the SVD of the small R.  LAPACK factors such blocks
slowly: on a 2-core Xeon with OpenBLAS at 2 threads, ``np.linalg.svd``
and ``np.linalg.qr`` each take about 22 ms at 4000 x 55, and the
CholeskyQR2 path 6 ms.  Its Q is
orthonormal to O(u) and Y - Q R = O(u) ||Y|| whenever
8 kappa(Y) sqrt((m n + n (n + 1)) u) <= 1 (Yamamoto, Nakatsukasa,
Yanagisawa and Fukaya, ETNA 44, 2015), kappa at most about 2.5e4 at
4000 x 55; the path checks that bound on the singular values of the
computed R.  A block past the bound, a rank-deficient one (a Cholesky
fails), a square one and non-finite data run the LAPACK call itself, so
those results are bitwise as before: among them the cond-1e6 sketches of
``make_precond_svd`` in ``sps2`` and ``approx_leverage``.  ``qr_econ``,
``qr_r``, ``qrcp`` and ``make_precond_qr`` stay on Householder QR.

``chol`` names a failing pivot with numpy alone, by bisecting for the
first leading principal block that numpy rejects.

Products of the full tall input A with a small dense factor go through
``times``, which puts A on the right of the GEMM: the products with A in
``lowrank``, ``chol_qr``'s Q = A R^{-1}, the preconditioned panels of
``rand_chol_qr`` and ``sap_chol_qrcp``, and ``approx_leverage``'s
A V_1 Sigma_1^{-1} S_2.  Their results are column-major.
LSQR's products are matrix-vector products, not GEMMs: ``spo1`` and
``sps2`` run them on ``column_major``'s copy of A.

Like scipy, the seam rejects infs and NaNs with
``ValueError("array must not contain infs or NaNs")``; ``chol`` instead
raises ``CholeskyError`` at the first pivot that is not a positive finite
number, and ``qr_q``, ``norm2`` and ``pinv`` hand them to the numpy call
they fall back to, as their callers did before.  The iterative methods
(LSQR, PCG, Lanczos tridiagonalization) are implemented here directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class CholeskyError(np.linalg.LinAlgError):
    """Cholesky failed; ``pivot`` is the 1-based index of the failing pivot."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (failing pivot {pivot})")


class LinearOperator:
    """A linear map given by its action and the action of its adjoint."""

    def __init__(self, nrows, ncols, apply, apply_adjoint):
        self.nrows = nrows
        self.ncols = ncols
        self._apply = apply
        self._apply_adjoint = apply_adjoint

    def apply(self, v):
        return self._apply(v)

    def apply_adjoint(self, v):
        return self._apply_adjoint(v)

    @property
    def shape(self):
        return (self.nrows, self.ncols)


def aslinop(A) -> LinearOperator:
    """Wrap a dense matrix (or pass through an existing operator)."""
    if isinstance(A, LinearOperator):
        return A
    A = np.asarray(A, dtype=float)
    return LinearOperator(A.shape[0], A.shape[1], lambda v: A @ v, lambda v: A.T @ v)


@dataclass
class IterativeReport:
    """Outcome of an iterative solve."""

    iterations: int
    converged: bool
    residual_history: list = field(default_factory=list)
    op_norm_est: float = 0.0


# ---------------------------------------------------------------------------
# dense factorizations (the LAPACK seam)
# ---------------------------------------------------------------------------

def _finite(A):
    """A as a float array; ValueError on infs or NaNs, as scipy checks."""
    return np.asarray_chkfinite(A, dtype=float)


def qr_econ(A):
    """Economic unpivoted (Householder) QR: A = Q R."""
    return np.linalg.qr(_finite(A), mode="reduced")


def qr_r(A):
    """The min(m, n)-by-n triangular factor R of A = Q R, without forming
    Q.  R is bitwise the R of ``qr_econ``; skipping Q's accumulation
    (``orgqr``) more than halves the QR of a 1200 x 100 sketch."""
    return np.linalg.qr(_finite(A), mode="r")


# columns per panel of qrcp's delayed (blocked) update
_QRCP_BLOCK = 16
# LAPACK's tol3z: a downdated column norm whose square falls to this
# fraction of its last recomputed square has too few digits left, and is
# recomputed
_NORM_RECOMPUTE = math.sqrt(np.finfo(float).eps)


def qrcp(A):
    """QR with column pivoting, without forming Q: returns (R, J) with
    A[:, J] = Q R for an orthonormal Q, R min(m, n)-by-n upper trapezoidal
    and |R_ii| nonincreasing.

    Householder QR with column pivoting (Businger and Golub), blocked as in
    LAPACK's ``geqp3``: step j swaps in the column of largest remaining
    norm (the lowest index on a tie) and reflects it onto R_jj with
    LAPACK's reflector (``dlarfg``).  A tall A is first reduced to its
    n-by-n R with ``qr_r``, which leaves column norms, and so the pivots,
    unchanged in exact arithmetic.  Away from near-ties in the column
    norms, J is ``geqp3``'s pivot order and R is its R to rounding, up to
    the signs of R's rows."""
    A = _finite(A)
    m, n = A.shape
    if m > n:
        A = qr_r(A)
    k = A.shape[0]
    A = np.array(A, order="F")
    J = np.arange(n)
    norms = np.linalg.norm(A, axis=0)
    ref = norms.copy()  # each norm at its last recomputation
    j = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while j < k:
            j = _qrcp_panel(A, J, norms, ref, j)
    return np.triu(A), J


def _qrcp_panel(A, J, norms, ref, j):
    """Pivoted Householder steps j, j+1, ... on the k-by-n A in place (LAPACK's
    ``dlaqps``), returning the first step not taken.  Within the panel the
    trailing columns are updated only in the rows that become R's; F
    accumulates the rest, which one GEMM applies at the end.  The panel
    stops early when a downdated norm must be recomputed, since that needs
    the updated trailing column."""
    k, n = A.shape
    F = np.zeros((n - j, _QRCP_BLOCK))
    t, stale = 0, None
    while t < min(_QRCP_BLOCK, k - j) and stale is None:
        c = j + t
        p = c + int(norms[c:].argmax())
        if p != c:
            col = A[:, c].copy()
            A[:, c] = A[:, p]
            A[:, p] = col
            row = F[c - j, :t].copy()
            F[c - j, :t] = F[p - j, :t]
            F[p - j, :t] = row
            J[c], J[p] = J[p], J[c]
            norms[p], ref[p] = norms[c], ref[c]
        if t:
            A[c:, c] -= A[c:, j:c] @ F[c - j, :t]
        # reflector I - tau [1; v] [1; v]^T taking [alpha; x] to [beta; 0]
        alpha = float(A[c, c])
        x = A[c + 1:, c]
        xnorm = float(np.linalg.norm(x))
        tau, beta = 0.0, alpha
        if xnorm > 0.0:
            beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
            tau = (beta - alpha) / beta
            x *= 1.0 / (alpha - beta)
        A[c, c] = 1.0
        v = A[c:, c]
        F[c + 1 - j:, t] = tau * (v @ A[c:, c + 1:])
        if t:
            F[:, t] += F[:, :t] @ (-tau * (v @ A[c:, j:c]))
        A[c, c + 1:] -= A[c, j:c + 1] @ F[c + 1 - j:, :t + 1].T
        if c + 1 < k:
            # downdate the trailing norms by the row just formed; a zero
            # column gives 0/0, which fmax turns into a zero downdate
            tail, tail_ref = norms[c + 1:], ref[c + 1:]
            shrink = np.fmax(1.0 - (A[c, c + 1:] / tail) ** 2, 0.0)
            lost = shrink * (tail / tail_ref) ** 2 <= _NORM_RECOMPUTE
            tail *= np.sqrt(shrink)
            if lost.any():
                stale = c + 1 + np.flatnonzero(lost)
        A[c, c] = beta
        t += 1
    e = j + t
    if e < k:
        A[e:, e:] -= A[e:, j:e] @ F[t:, :t].T
        if stale is not None:
            norms[stale] = ref[stale] = np.linalg.norm(A[e:, stale], axis=0)
    return e


def chol(A):
    """Upper-triangular R with R^T R = A, read from A's upper triangle;
    CholeskyError names the first pivot that is not positive and finite."""
    A = np.asarray(A, dtype=float)
    R = _upper_chol(A)
    if R is None:
        # numpy does not say which pivot failed: bisect for the first
        # leading principal block it rejects (block lo passes, hi fails)
        lo, hi = 0, A.shape[0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _upper_chol(A[:mid, :mid]) is None:
                hi = mid
            else:
                lo = mid
        raise CholeskyError(hi)
    return R


def _upper_chol(A):
    """numpy's upper Cholesky factor of A, or None if a pivot is not a
    positive finite number (OpenBLAS passes NaN and inf pivots)."""
    try:
        R = np.linalg.cholesky(A, upper=True)
    except np.linalg.LinAlgError:
        return None
    return R if np.isfinite(R.diagonal()).all() else None


def triu_inv(R):
    """R^{-1} for a nonsingular upper-triangular R.  Partial pivoting swaps
    no rows of a triangular R, so this is back substitution against I."""
    return np.linalg.inv(R)


def _cholqr2(Y):
    """CholeskyQR2 of a tall Y: (Q, W, sigma, Zt) with Y = Q R, Q
    column-orthonormal and R = W diag(sigma) Zt the SVD of the n-by-n R,
    or None where the factorization cannot be trusted.

    Two Cholesky QR passes: R_1 is the Cholesky factor of the Gram Y^T Y
    and Q_1 = Y R_1^{-1}, then the same again on Q_1, and R = R_2 R_1.
    Yamamoto, Nakatsukasa, Yanagisawa and Fukaya (ETNA 44, 2015) show that
    Q is orthonormal to O(u) and Y - Q R = O(u) ||Y|| whenever
    8 kappa(Y) sqrt((m n + n (n + 1)) u) <= 1, for u the unit roundoff.
    None is returned when a Cholesky fails (Y rank-deficient, or not
    finite) or when kappa breaks that bound: early, when the diagonal of
    R_1 already shows it (max |r_ii| / min |r_ii| is a lower bound on
    kappa), else from sigma, the singular values of the computed R."""
    m, n = Y.shape
    scale = 8.0 * math.sqrt((m * n + n * (n + 1)) * np.finfo(float).eps / 2)
    R1 = _upper_chol(Y.T @ Y)
    if R1 is None:
        return None
    d = np.abs(R1.diagonal())
    if d.max() * scale > d.min():
        return None
    Q = Y @ triu_inv(R1)
    R2 = _upper_chol(Q.T @ Q)
    if R2 is None:
        return None
    W, s, Zt = np.linalg.svd(R2 @ R1)
    if not s[0] * scale <= s[-1]:
        return None
    return Q @ triu_inv(R2), W, s, Zt


def _cholqr2_svd(A):
    """(U, sigma, V) from ``_cholqr2`` of Y = A for a tall A, or Y = A^T
    for a wide one: with Y = Q W diag(sigma) Z^T, U = Q W and V = Z (U = Z
    and V = Q W for a wide A).  None for a square or empty A, where the SVD
    of R would cost what the SVD of A does, and wherever ``_cholqr2`` turns
    Y down."""
    m, n = A.shape
    if m == n or A.size == 0:
        return None
    fast = _cholqr2(A if m > n else A.T)
    if fast is None:
        return None
    Q, W, s, Zt = fast
    return (Q @ W, s, Zt.T) if m > n else (Zt.T, s, Q @ W)


def svd(A):
    """Compact SVD: U, sigma (nonincreasing), V with A = U diag(sigma) V^T.

    A tall input (a wide one transposed) within CholeskyQR2's bound is
    factored as Q R with ``_cholqr2``, and U = Q W comes from the SVD
    R = W diag(sigma) Z^T of the small R.  Square inputs, and inputs that
    ``_cholqr2`` turns down, go to LAPACK's ``gesdd``."""
    A = _finite(A)
    fast = _cholqr2_svd(A)
    if fast is not None:
        return fast
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U, s, Vt.T


def qr_q(A):
    """A column-orthonormal Q with A = Q R for an upper-triangular R: from
    ``_cholqr2`` for a tall A within its bound (R's diagonal is then
    positive), else the Householder Q of ``np.linalg.qr``."""
    A = np.asarray(A, dtype=float)
    fast = _cholqr2(A) if A.shape[0] > A.shape[1] > 0 else None
    return np.linalg.qr(A)[0] if fast is None else fast[0]


def norm2(A):
    """The spectral norm ||A||_2: sigma_1 from ``_cholqr2`` for a tall or
    wide A within its bound, else ``np.linalg.norm(A, 2)``."""
    A = np.asarray(A, dtype=float)
    fast = _cholqr2_svd(A)
    return np.linalg.norm(A, 2) if fast is None else fast[1][0]


def pinv(A):
    """The pseudoinverse A^+ = V diag(1/sigma) U^T: from ``_cholqr2`` for a
    tall or wide A within its bound, else ``np.linalg.pinv``.  Within the
    bound sigma_n > 1e-7 sigma_1, so no singular value falls below pinv's
    cutoff, 1e-15 sigma_1, and the two keep the same ones."""
    A = np.asarray(A, dtype=float)
    fast = _cholqr2_svd(A)
    if fast is None:
        return np.linalg.pinv(A)
    U, s, V = fast
    return (V / s) @ U.T


def eigh(A):
    """Hermitian eigendecomposition from A's lower triangle, eigenvalues
    ascending (LAPACK order)."""
    return np.linalg.eigh(_finite(A))


def solve_triangular(R, B, trans=0):
    """X with op(T) X = B, for T the upper triangle of R (the strict lower
    triangle is not read) and op(T) = T for ``trans`` 0 or T^T for
    ``trans`` "T".  A lower-triangular L is solved as op of the upper
    triangle L^T.

    numpy's LU solve (``gesv``) does the work.  On the upper-triangular T,
    partial pivoting swaps no rows and the elimination subtracts only zero
    multiples, so this is ``trsm`` back substitution.  The lower-triangular
    T^T is solved with its rows and columns reversed, which makes it upper
    triangular."""
    T = np.triu(_finite(R))
    B = _finite(B)
    if trans == 0:
        return np.linalg.solve(T, B)
    if trans != "T":
        raise ValueError(f"trans must be 0 or 'T', got {trans!r}")
    return np.linalg.solve(T.T[::-1, ::-1], B[::-1])[::-1]


def numerical_rank(s: np.ndarray, shape) -> int:
    """Default rank rule for a vector of singular values."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(shape) * np.finfo(float).eps * s[0]
    return int(np.sum(s > tol))


def _qr_rank_deficient(R) -> bool:
    """Rank rule for the triangular factor of a sketch's QR: some |R_ii| is
    at or below n * eps times the largest one (or R is empty)."""
    diag = np.abs(np.diag(R))
    if diag.size == 0:
        return True
    tol = R.shape[1] * np.finfo(float).eps * max(diag.max(), 1e-300)
    return bool(diag.min() <= tol)


# ---------------------------------------------------------------------------
# products with the full input A
# ---------------------------------------------------------------------------

# rows per panel of column_major's blocked transpose
_TRANSPOSE_PANEL = 256


def times(A, X, adjoint: bool = False) -> np.ndarray:
    """A @ X (A^T @ X when ``adjoint``) for the full input A and a small
    dense X, computed as (X^T A^T)^T (as (X^T A)^T) so that A is the
    right-hand operand of the GEMM.  The result is column-major.

    OpenBLAS streams a large right-hand operand faster: at 4000 x 2000 with
    k = 10 and 2 threads, A @ X takes 8.3 ms this way against 11.2 ms, and
    A^T @ Y 6.9 ms against 18.4 ms.  On a tall A with an n-by-n X (medians
    of 7, 2 threads) A @ X takes 34 ms against 43 ms at 100000 x 100, and
    155 ms against 193 ms at 50000 x 400.  At those sizes the result is
    bitwise the plain product (the Q and R of ``rand_chol_qr`` and
    ``sap_chol_qrcp`` on the benchmark's 100000 x 100 input did not move);
    at small sizes the two can differ in the last bits, as accumulation
    order inside a product is the backend's business.
    """
    return (X.T @ A).T if adjoint else (X.T @ A.T).T


def column_major(A) -> np.ndarray:
    """A column-major copy of the 2-D array A, or A itself when it is
    already F-contiguous.

    The copy is a blocked transpose: panels of 256 rows are written, each
    transposed, into an n-by-m C-ordered array, whose transpose is returned.
    It is for LSQR, whose two products per iteration are GEMVs.  OpenBLAS
    runs both at memory speed on a column-major A and not on a C-ordered
    one: at 100000 x 100 with 2 threads (medians of 15), A (M v) takes 2.9
    against 3.8 ms and M^T (A^T u) 2.5 against 5.4 ms.  The copy takes
    30 ms there (``np.asfortranarray`` 64 ms) and repays itself after
    about 8 iterations; at 50000 x 400 it takes 101 ms and needs about 23
    (README has the table).
    """
    if A.flags.f_contiguous:
        return A
    m, n = A.shape
    out = np.empty((n, m), dtype=A.dtype)
    for i in range(0, m, _TRANSPOSE_PANEL):
        out[:, i:i + _TRANSPOSE_PANEL] = A[i:i + _TRANSPOSE_PANEL].T
    return out.T


# ---------------------------------------------------------------------------
# LSQR
# ---------------------------------------------------------------------------

def _sym_ortho(a, b):
    if b == 0:
        return np.sign(a) if a != 0 else 1.0, 0.0, abs(a)
    if a == 0:
        return 0.0, np.sign(b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / np.sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / np.sqrt(1 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def lsqr(F, g, tol: float = 1e-12, maxit: int = 100, z0=None):
    """Golub-Kahan bidiagonalization solver for min ||F z - g||_2.

    Stops when the normalized normal-equation residual
    ``||F^T(Fz - g)|| / (||F||_est ||Fz - g||)`` drops below ``tol`` or after
    ``maxit`` iterations.  ``||F||_est`` is the running Frobenius-style
    estimate accumulated from the bidiagonalization.  A warm start ``z0``
    shifts the problem to the residual system.  Bidiagonalization breakdown
    (an exactly zero vector) returns the current iterate as converged; a
    non-finite test value (NaN or inf in the data) stops it unconverged.
    """
    F = aslinop(F)
    g = np.asarray(g, dtype=float)
    if tol < 0 or maxit < 1:
        raise ValueError("need tol >= 0 and maxit >= 1")
    m, n = F.shape
    eps = np.finfo(float).eps

    x = np.zeros(n)
    u = g.copy() if z0 is None else g - F.apply(np.asarray(z0, dtype=float))
    gnorm = np.linalg.norm(g)
    history: list = []
    anorm = 0.0

    def finish(it, conv, z):
        rep = IterativeReport(it, conv, history, anorm)
        return z, rep

    beta = np.linalg.norm(u)
    # a warm start whose residual sits at the rounding floor is optimal
    res_floor = 100 * eps * (gnorm + np.linalg.norm(g - u))
    if beta <= res_floor:
        return finish(0, True, x if z0 is None else np.asarray(z0, dtype=float))
    u /= beta
    v = F.apply_adjoint(u)
    alpha = np.linalg.norm(v)
    if alpha == 0:
        # g (shifted) is orthogonal to range(F): current iterate is optimal
        return finish(0, True, x if z0 is None else np.asarray(z0, dtype=float))
    v /= alpha

    w = v.copy()
    phibar = beta
    rhobar = alpha
    arnorm = alpha * beta

    it = 0
    converged = False
    while it < maxit:
        it += 1
        u = F.apply(v) - alpha * u
        beta = np.linalg.norm(u)
        anorm = np.sqrt(anorm ** 2 + alpha ** 2 + beta ** 2)
        if beta > 0:
            u /= beta
            v_new = F.apply_adjoint(u) - beta * v
            alpha = np.linalg.norm(v_new)
            if alpha > 0:
                v = v_new / alpha
        c, s, rho = _sym_ortho(rhobar, beta)
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar

        x += (phi / rho) * w
        w = v - (theta / rho) * w

        rnorm = phibar
        arnorm = alpha * abs(s * phi)
        test2 = arnorm / (anorm * rnorm + eps)
        history.append(test2)
        if beta == 0 or alpha == 0:
            converged = True
            break
        if test2 <= tol:
            converged = True
            break
        if not np.isfinite(test2):
            break

    z = x if z0 is None else np.asarray(z0, dtype=float) + x
    return finish(it, converged, z)


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def pcg(apply_G, mu: float, h, apply_Pinv=None, tol: float = 1e-10,
        maxit: int = 100):
    """Preconditioned conjugate gradient for (G + mu I) x = h, started at
    x = 0.

    ``apply_G`` and ``apply_Pinv`` may be LinearOperators, matrices, or
    callables; ``apply_Pinv`` defaults to the identity.  Stops on the
    recursively-updated relative residual ||(G + mu I)x - h|| / ||h||, and
    unconverged at the first non-finite one.
    Detected negative curvature raises, since it certifies a non-psd input.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    h = np.asarray(h, dtype=float)
    n = h.size
    G = _as_apply(apply_G)
    Pinv = _as_apply(apply_Pinv) if apply_Pinv is not None else (lambda v: v)

    def op(v):
        return G(v) + mu * v

    x = np.zeros(n)
    hnorm = np.linalg.norm(h)
    history: list = []
    if hnorm == 0:
        return x, IterativeReport(0, True, history)
    r = h - op(x)
    z = Pinv(r)
    p = z.copy()
    rz = r @ z
    it = 0
    relres = np.linalg.norm(r) / hnorm
    while it < maxit and tol < relres < np.inf:
        it += 1
        q = op(p)
        curv = p @ q
        if curv <= 0:
            raise np.linalg.LinAlgError(
                "negative curvature encountered; operator is not positive "
                "semidefinite"
            )
        alpha = rz / curv
        x += alpha * p
        r -= alpha * q
        relres = np.linalg.norm(r) / hnorm
        history.append(relres)
        if not tol < relres < np.inf:
            break
        z = Pinv(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, IterativeReport(it, bool(relres <= tol), history)


def _as_apply(A):
    """A LinearOperator, callable or matrix as a callable."""
    if isinstance(A, LinearOperator):
        return A.apply
    if callable(A):
        return A
    A = np.asarray(A, dtype=float)
    return lambda v: A @ v


def _apply_block(A, W, square: bool = True):
    """A(W) for an (n, k) block W, checked to be an (n, k) block (any number
    of rows, if not ``square``), so an operator written for vectors only
    fails loudly instead of broadcasting."""
    out = np.asarray(A(W), dtype=float)
    if out.ndim != 2 or out.shape[1] != W.shape[1] or (
            square and out.shape[0] != W.shape[0]):
        want = f"{W.shape}" if square else f"(?, {W.shape[1]})"
        raise ValueError(
            f"operator returned shape {out.shape} for a {W.shape} block; "
            f"expected {want}: operators must accept (n, k) blocks")
    return out


# ---------------------------------------------------------------------------
# Lanczos tridiagonalization
# ---------------------------------------------------------------------------

# memory budget of one start group's Lanczos basis during full
# reorthogonalization: a Gram-Schmidt pass reads a group's basis twice, for
# Q w and then for Q^T (Q w), and it stays in cache between the two reads
# (see lanczos_tridiag)
_CGS_GROUP_BYTES = 2 ** 20

# a start's Gram-Schmidt pass runs again when it left less than eta = 1/sqrt(2)
# of the norm it was given ("twice is enough"); compared squared
_ETA_SQUARED = 0.5


def lanczos_tridiag(apply_B, v0, s: int, return_basis: bool = False):
    """s-step Lanczos on a Hermitian operator, started at the unit vector v0
    or, for an (n, k) block v0, at each of its unit columns.

    Returns the tridiagonal coefficients (alpha, beta) of the Jacobi matrix;
    beta has one fewer entry.  Terminates early (shorter output) when an
    off-diagonal drops below 1e-12 times the running norm estimate.  Every
    step is fully reorthogonalized: the residual w of the three-term
    recurrence is re-projected against the whole basis by classical
    Gram-Schmidt, and a second pass runs only when the first cancelled,
    leaving ||w|| below 1/sqrt(2) of its norm before the pass (the criterion
    of Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 1976; two passes
    give a basis orthonormal to rounding level, Giraud, Langou and
    Rozloznik, Comput. Math. Appl. 50, 2005).  With ``return_basis`` the
    Lanczos vectors are returned as a third output, one per column.

    A block v0 runs the k recurrences in lockstep with one product B(V) on
    an (n, k) block per step.  Then alpha is (steps, k) and beta
    (steps - 1, k) for the number of lockstep steps taken; column j of
    each holds that start's coefficients, and a column that breaks down is
    frozen, its later entries NaN (a non-finite coefficient raises, so NaN
    marks only breakdown).  The basis is then (n, steps, k), zero past a
    column's breakdown.  A 1-D v0 calls B with 1-D vectors and
    returns 1-D coefficients and an (n, steps) basis.

    The reorthogonalization keeps k * s * n floats of basis (about 24 MB
    at n = 2000, s = 30, k = 50).  The first pass runs on one group of
    max(1, 2**20 // (8 s n)) starts before it moves to the next, so a
    group's basis (at most 1 MiB) stays in cache between the pass's two
    reads of it; a second pass runs one start at a time.  Each start is
    projected on its own basis alone, and decides on its own second pass,
    so the coefficients are bitwise those of one batched product over all
    k starts.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim not in (1, 2):
        raise ValueError("v0 must be a vector or an (n, k) block")
    V = v0.reshape(v0.shape[0], -1).T.copy()  # one start per row
    if np.any(np.abs(np.linalg.norm(V, axis=1) - 1.0) > 1e-12):
        raise ValueError("v0 must be a unit vector (every column, for a block)")
    if s < 1:
        raise ValueError("need at least one Lanczos step")
    k, n = V.shape
    B = _as_apply(apply_B)
    # W is updated in place, so it is a copy of the operator's output
    if v0.ndim == 1:
        def product(V):
            return np.array(B(V[0]), dtype=float).reshape(1, n)
    else:
        def product(V):
            return np.array(_apply_block(B, V.T).T, order="C")

    alphas = np.full((s, k), np.nan)
    betas = np.full((s - 1, k), np.nan)
    basis = np.zeros((k, s, n))
    basis[:, 0] = V
    # starts per CGS group: a group's basis fits in _CGS_GROUP_BYTES
    group = max(1, _CGS_GROUP_BYTES // (8 * s * n))
    active = np.ones(k, dtype=bool)
    V_prev = np.zeros_like(V)
    beta_prev = np.zeros(k)
    norm_est = np.zeros(k)
    steps = 0
    for j in range(s):
        W = product(V)
        alpha = np.einsum("ij,ij->i", V, W)
        if not np.all(np.isfinite(alpha[active])):
            raise ValueError("Lanczos coefficient is not finite; the operator "
                             "returned non-finite values")
        alphas[j, active] = alpha[active]
        norm_est = np.maximum(norm_est, np.sqrt(alpha ** 2 + beta_prev ** 2))
        steps = j + 1
        if j == s - 1:
            break
        W -= alpha[:, None] * V
        W -= beta_prev[:, None] * V_prev
        before = np.einsum("ij,ij->i", W, W)
        for a in range(0, k, group):
            _project(basis[a:a + group, :j + 1], W[a:a + group])
        again = np.einsum("ij,ij->i", W, W) < _ETA_SQUARED * before
        for a in np.flatnonzero(again):
            _project(basis[a:a + 1, :j + 1], W[a:a + 1])
        beta = np.linalg.norm(W, axis=1)
        active &= ~(beta <= 1e-12 * np.maximum(norm_est, 1e-300))
        if not active.any():
            break
        betas[j, active] = beta[active]
        beta_prev = np.where(active, beta, 0.0)
        W /= np.where(active, beta, 1.0)[:, None]
        W[~active] = 0.0
        V_prev, V = V, W
        basis[:, j + 1] = V
    alphas, betas = alphas[:steps], betas[:steps - 1]
    if v0.ndim == 1:
        alphas, betas = alphas[:, 0], betas[:, 0]
    if not return_basis:
        return alphas, betas
    basis = basis[:, :steps].transpose(2, 1, 0)
    return alphas, betas, basis[:, :, 0] if v0.ndim == 1 else basis


def _project(Q, W):
    """One classical Gram-Schmidt pass, in place: each row of W less its
    projection on the rows of its own basis in Q (g, j, n)."""
    W -= np.matmul(Q.transpose(0, 2, 1), np.matmul(Q, W[:, :, None]))[:, :, 0]


def lanczos_basis(apply_B, v0, s: int):
    """lanczos_tridiag that also returns the Lanczos basis (for tests)."""
    return lanczos_tridiag(apply_B, v0, s, return_basis=True)
