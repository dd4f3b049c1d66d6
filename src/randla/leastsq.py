"""Sketch-and-solve and sketch-and-precondition drivers for saddle point
problems.

A saddle point problem is defined by a tall m-by-n matrix A, vectors b (m)
and c (n), and a regularization parameter mu >= 0.  The primal problem
minimizes ||Ax - b||^2 + mu ||x||^2 + 2 c^T x; the dual minimizes
||A^T y - c||^2 + mu ||y - b||^2 (for mu = 0: min ||y - b|| s.t. A^T y = c).
For rank-deficient A with mu = 0 the drivers return the canonical limiting
solutions x = (A^T A)^+ (A^T b - c), y = (A^T)^+ c + (I - A A^+) b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _shapes, lowrank, sketching
from . import detkernels as dk
from .detkernels import IterativeReport, LinearOperator
from .rng import as_key

# d = 12n, from a sweep of 4n to 24n (CHANGES.md).  On 100000x100 and
# 200000x50 at cond 1e6, spo1 needs 19-20 LSQR iterations instead of 29-34
# at 4n and runs 20-31% faster.  Past 12n it gains 3% more on 100000x100
# (16% on 200000x50) while every driver slows on 50000x400, where 12n
# already makes sps2 13% and the fullrank drivers 23-24% slower.
DEFAULT_SAMPLING_FACTOR = 12.0
DEFAULT_PRECOND_FAMILY = "saso"


@dataclass(frozen=True)
class SaddleProblem:
    """(A, b, c, mu) with A m-by-n, m >= n, mu >= 0."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray = None
    mu: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        m, n = A.shape
        _shapes.tall(m, n)
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.zeros(m) if self.b is None
                           else np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.zeros(n) if self.c is None
                           else np.asarray(self.c, dtype=float))


@dataclass
class SaddleSolution:
    x: np.ndarray
    y: np.ndarray
    report: IterativeReport


@dataclass
class Preconditioner:
    """n-by-k matrix M orthogonalizing the (implicitly augmented) sketch.

    ``aug_left`` is the column-orthonormal left factor of the augmented
    sketch, [A_sk; sqrt(mu) I] M = aug_left.  It is Q of the Householder QR
    for the QR form (which has mu = 0), U[:, :k] for the SVD form with
    mu = 0, and [U D1; V D2] with D1 = diag(sigma / sigma_hat),
    D2 = sqrt(mu) diag(1 / sigma_hat) for the SVD form with mu > 0.
    """

    M: np.ndarray
    mu_used: float
    aug_left: np.ndarray

    @property
    def rank(self) -> int:
        return self.M.shape[1]


def _lsqr_restarted(op: LinearOperator, rhs: np.ndarray, tol: float,
                    maxit: int, z0: np.ndarray | None):
    """LSQR plus one restart against the freshly recomputed residual.

    The recursively-updated quantities inside LSQR drift once the iterate is
    nearly converged; re-solving the correction system with an exact initial
    residual restores the attainable accuracy at a modest iteration cost.
    """
    z, rep = dk.lsqr(op, rhs, tol=tol, maxit=maxit, z0=z0)
    total = rep.iterations
    history = list(rep.residual_history)
    converged = rep.converged
    norm_est = rep.op_norm_est
    if 0 < total < maxit and tol > 0:
        r_true = rhs - op.apply(z)
        floor = 100 * np.finfo(float).eps * (
            np.linalg.norm(rhs) + rep.op_norm_est * np.linalg.norm(z))
        if np.linalg.norm(r_true) > floor:
            dz, rep2 = dk.lsqr(op, r_true, tol=tol, maxit=maxit - total)
            z = z + dz
            total += rep2.iterations
            history.extend(rep2.residual_history)
            converged = converged and rep2.converged
            norm_est = max(norm_est, rep2.op_norm_est)
    return z, IterativeReport(total, converged, history, norm_est)


def _solve_preconditioned(A, b, P: Preconditioner, b_sk, tol, maxit):
    """LSQR on [A; sqrt(mu) I] M against the right-hand side b, warm-started
    at the sketched solution aug_left^T b_sk; returns (M z, report).

    A is the column-major copy of the input (``dk.column_major``).  For
    mu > 0, b and b_sk carry the n trailing entries of the identity block,
    which is applied implicitly.
    """
    m = A.shape[0]
    M, root_mu = P.M, np.sqrt(P.mu_used)
    if root_mu:
        def apply(v):
            w = M @ v
            return np.concatenate([A @ w, root_mu * w])

        precond = LinearOperator(
            m + M.shape[0], P.rank, apply,
            lambda u: M.T @ (A.T @ u[:m] + root_mu * u[m:]))
    else:
        precond = LinearOperator(m, P.rank, lambda v: A @ (M @ v),
                                 lambda u: M.T @ (A.T @ u))
    z, report = _lsqr_restarted(precond, b, tol, maxit, P.aug_left.T @ b_sk)
    return M @ z, report


def sketch_and_solve_ols(A, b, d: int, seed=0, op_family: str = "gaussian"):
    """Sketch-and-solve for overdetermined least squares: minimize the
    sketched residual ||S(Ax - b)|| directly.

    Returns (x_hat, A_sk, b_sk); the sketched data supports bootstrap error
    estimation downstream.  A rank-deficient sketch falls back to the
    pseudoinverse (SVD) path.  Needs n <= d <= m.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    _shapes.sketch_rows(m, n, d=d)
    S = sketching.sample_operator(op_family, d, m, as_key(seed))
    A_sk, b_sk = S.apply(A), S.apply(b)
    P = _precond_qr_or_svd(A_sk)
    return P.M @ (P.aug_left.T @ b_sk), A_sk, b_sk


def spo1(A, b, tol: float = 1e-12, maxit: int = 100,
         sampling_factor: float = DEFAULT_SAMPLING_FACTOR, seed=0,
         op_family: str = DEFAULT_PRECOND_FAMILY):
    """Sketch-and-precondition for overdetermined least squares.

    Sketches A and b, takes an economic QR of the sketch, presolves in the
    sketched space, and runs LSQR on A R^{-1} warm-started at the presolve.
    A numerically singular R falls back to the SVD preconditioner of the
    same sketch (pseudoinverse semantics, as ``sps2`` with mu = 0).
    LSQR runs on a column-major copy of A, made after the sketch
    (``dk.column_major``), so the solve holds one extra m-by-n array
    unless A is already Fortran-ordered, and x does not depend on A's
    layout.

    Needs d = min(ceil(n * sampling_factor), m) >= n, so m >= n.
    Returns (x, IterativeReport).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    d = _shapes.sketch_dim(m, n, sampling_factor)
    if not np.any(b):
        return np.zeros(n), IterativeReport(0, True, [])
    S = sketching.sample_operator(op_family, d, m, as_key(seed))
    P = _precond_qr_or_svd(S.apply(A))
    return _solve_preconditioned(dk.column_major(A), b, P, S.apply(b), tol,
                                 maxit)


def sps2(problem: SaddleProblem, tol: float = 1e-12, maxit: int = 100,
         sampling_factor: float = DEFAULT_SAMPLING_FACTOR, seed=0,
         op_family: str = DEFAULT_PRECOND_FAMILY) -> SaddleSolution:
    """Sketch, transform a saddle point problem to least squares, and
    precondition.

    Handles mu > 0 by implicit augmentation with sqrt(mu) I, builds an SVD
    preconditioner for the augmented sketch [S A; sqrt(mu) I], shifts b so
    the linear term vanishes, presolves, and runs LSQR on [A; sqrt(mu) I] M.
    For mu = 0 with c outside the row space, c is implicitly projected onto
    it (the canonical limiting solution is unchanged by that projection).
    LSQR and y = b - A x use a column-major copy of A, made after the
    sketch (``dk.column_major``), so the solve holds one extra m-by-n array
    unless A is already Fortran-ordered, and x and y do not depend on A's
    layout.  Needs d = min(ceil(n * sampling_factor), m) >= n.
    """
    A, b, c, mu = problem.A, problem.b, problem.c, problem.mu
    m, n = A.shape
    d = _shapes.sketch_dim(m, n, sampling_factor)
    S = sketching.sample_operator(op_family, d, m, as_key(seed))
    P = make_precond_svd(S.apply(A), mu)
    A = dk.column_major(A)

    b_mod = np.concatenate([b, np.zeros(n)]) if mu > 0 else b
    if np.any(c):
        # shift b by a vector whose image under [A; sqrt(mu) I]^T is c
        # (projected onto the row space)
        v_hat = P.aug_left @ (P.M.T @ c)
        b_mod = b_mod - np.concatenate([S.T.apply(v_hat[:d]), v_hat[d:]])
    b_sk = np.concatenate([S.apply(b_mod[:m]), b_mod[m:]])
    x, report = _solve_preconditioned(A, b_mod, P, b_sk, tol, maxit)
    return SaddleSolution(x, b - A @ x, report)


def make_precond_qr(A_sk) -> Preconditioner:
    """Triangular preconditioner M = R^{-1} from the Householder QR
    A_sk = Q R of a tall sketch, with ``aug_left`` = Q and mu = 0.

    A numerically rank-deficient R raises LinAlgError so the caller can
    switch to ``make_precond_svd``.  A ridge mu > 0 is the QR of the
    augmented sketch [A_sk; sqrt(mu) I], or ``make_precond_svd(A_sk, mu)``.
    """
    A_sk = np.asarray(A_sk, dtype=float)
    _shapes.tall(*A_sk.shape, "sketch")
    Q, R = dk.qr_econ(A_sk)
    if dk._qr_rank_deficient(R):
        raise np.linalg.LinAlgError(
            "sketch is numerically rank-deficient; use make_precond_svd"
        )
    return Preconditioner(dk.triu_inv(R), 0.0, Q)


def make_precond_svd(A_sk, mu: float = 0.0) -> Preconditioner:
    """SVD preconditioner from the sketch, with pseudoinverse semantics.

    mu = 0: M keeps one column v_i / sigma_i per singular value above the
    numerical-rank cutoff.  mu > 0: M = V diag(1/sigma_hat) with
    sigma_hat = sqrt(sigma^2 + mu), and the left singular vectors of the
    augmented sketch are returned as the column-orthonormal [U D1; V D2].
    """
    A_sk = np.asarray(A_sk, dtype=float)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    U, sig, V = dk.svd(A_sk)
    if mu == 0.0:
        r = dk.numerical_rank(sig, A_sk.shape)
        return Preconditioner(V[:, :r] / sig[:r], 0.0, U[:, :r])
    sig_hat = np.sqrt(sig ** 2 + mu)
    aug_left = np.vstack([U * (sig / sig_hat), V * (np.sqrt(mu) / sig_hat)])
    return Preconditioner(V / sig_hat, mu, aug_left)


def _precond_qr_or_svd(A_sk) -> Preconditioner:
    """The QR preconditioner of the sketch, or its SVD one (pseudoinverse
    semantics) if the sketch is numerically rank-deficient."""
    try:
        return make_precond_qr(A_sk)
    except np.linalg.LinAlgError:
        return make_precond_svd(A_sk)


def limiting_solution(A, b, c):
    """Canonical (mu -> 0) saddle point solutions via a dense SVD:
    x0 = (A^T A)^+ (A^T b - c) and y0 = (A^T)^+ c + (I - A A^+) b."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    U, sig, V = dk.svd(A)
    r = dk.numerical_rank(sig, A.shape)
    U, sig, V = U[:, :r], sig[:r], V[:, :r]
    x0 = V @ ((V.T @ (A.T @ b - c)) / sig ** 2)
    y0 = U @ ((V.T @ c) / sig) + (b - U @ (U.T @ b))
    return x0, y0


def nystrom_precond(evd: lowrank.EVDFactors, mu: float, n: int):
    """P^{-1} = V diag(lam + mu)^{-1} V^T + (mu + lam_min)^{-1} (I - V V^T)
    as a callable, from a Nystrom eigendecomposition."""
    V, lam = evd.V, evd.lam
    lam_floor = lam[-1] if lam.size else 0.0
    tail = 1.0 / (mu + lam_floor)

    def apply_pinv(v):
        if V.shape[1] == 0:
            return tail * v
        w = V.T @ v
        return V @ (w / (lam + mu)) + tail * (v - V @ w)

    return apply_pinv


def nystrom_pcg(G, mu: float, h, rank: int = 10, oversample: int = 5,
                tol: float = 1e-10, maxit: int = 200, seed=0,
                power_passes: int = 0):
    """Nystrom-preconditioned conjugate gradient for (G + mu I) x = h.

    Builds a rank-``rank`` Nystrom eigendecomposition of the psd matrix G,
    preconditions with it, and runs PCG.  Needs mu > 0 and
    1 <= rank <= n - oversample.  Returns (x, IterativeReport).
    """
    if mu <= 0:
        raise ValueError("nystrom_pcg requires mu > 0")
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    n = h.size
    _shapes.rank_fits(n, n, rank=rank, oversample=oversample)
    evd = lowrank.evd2(G, rank, s=oversample, seed=seed,
                       power_passes=power_passes)
    apply_pinv = nystrom_precond(evd, mu, n)
    return dk.pcg(G, mu, h, apply_Pinv=apply_pinv, tol=tol, maxit=maxit)
