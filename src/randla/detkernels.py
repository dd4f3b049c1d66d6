"""Deterministic building blocks.

Dense factorizations are delegated to LAPACK through scipy behind this one
seam; the iterative methods (LSQR, PCG, Lanczos tridiagonalization) are
implemented here directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la


class CholeskyError(np.linalg.LinAlgError):
    """Cholesky failed; ``pivot`` is the 1-based index of the failing pivot."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (failing pivot {pivot})")


class LinearOperator:
    """A linear map given by its action and the action of its adjoint."""

    def __init__(self, nrows, ncols, apply, apply_adjoint=None):
        self.nrows = nrows
        self.ncols = ncols
        self._apply = apply
        self._apply_adjoint = apply_adjoint

    def apply(self, v):
        return self._apply(v)

    def apply_adjoint(self, v):
        if self._apply_adjoint is None:
            raise ValueError("operator has no adjoint")
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
    backward_error_history: list | None = None
    op_norm_est: float = 0.0


# ---------------------------------------------------------------------------
# dense factorizations (the scipy/LAPACK seam)
# ---------------------------------------------------------------------------

def qr_econ(A):
    """Economic unpivoted (Householder) QR: A = Q R."""
    return la.qr(np.asarray(A, dtype=float), mode="economic")


def qrcp(A):
    """Economic QR with column pivoting: A[:, J] = Q R, |R_ii| nonincreasing."""
    Q, R, J = la.qr(np.asarray(A, dtype=float), mode="economic", pivoting=True)
    return Q, R, J


def chol(A):
    """Upper-triangular R with R^T R = A; CholeskyError names the failing
    pivot when A is not positive definite."""
    A = np.asarray(A, dtype=float)
    R, info = la.lapack.dpotrf(A, lower=0, overwrite_a=0)
    if info > 0:
        raise CholeskyError(int(info))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return np.triu(R)


def svd(A):
    """Compact SVD: U, sigma (nonincreasing), V with A = U diag(sigma) V^T."""
    U, s, Vt = la.svd(np.asarray(A, dtype=float), full_matrices=False)
    return U, s, Vt.T


def eigh(A):
    """Hermitian eigendecomposition, eigenvalues ascending (LAPACK order)."""
    return la.eigh(np.asarray(A, dtype=float))


def solve_triangular(R, B, lower=False, trans=0):
    return la.solve_triangular(R, B, lower=lower, trans=trans)


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


def lsqr(F, g, tol: float = 1e-12, maxit: int = 100, z0=None,
         track_backward_error: bool = False):
    """Golub-Kahan bidiagonalization solver for min ||F z - g||_2.

    Stops when the normalized normal-equation residual
    ``||F^T(Fz - g)|| / (||F||_est ||Fz - g||)`` drops below ``tol`` or after
    ``maxit`` iterations.  ``||F||_est`` is the running Frobenius-style
    estimate accumulated from the bidiagonalization.  A warm start ``z0``
    shifts the problem to the residual system.  Bidiagonalization breakdown
    (an exactly zero vector) returns the current iterate as converged.

    With ``track_backward_error`` the report also records, per iteration,
    the Stewart rank-one data-perturbation norm ``||F^T r|| / ||r||`` and the
    consistent-system bound ``||r|| / ||g||`` (the eps_A = 0 convention).
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
    be_history: list = [] if track_backward_error else None
    anorm = 0.0

    def finish(it, conv, z):
        rep = IterativeReport(it, conv, history, be_history, anorm)
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
        if track_backward_error:
            be_history.append(
                (arnorm / (rnorm + eps), rnorm / (gnorm + eps))
            )
        if beta == 0 or alpha == 0:
            converged = True
            break
        if test2 <= tol:
            converged = True
            break

    z = x if z0 is None else np.asarray(z0, dtype=float) + x
    return finish(it, converged, z)


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------

def pcg(apply_G, mu: float, h, apply_Pinv=None, tol: float = 1e-10,
        maxit: int = 100, x0=None):
    """Preconditioned conjugate gradient for (G + mu I) x = h.

    ``apply_G`` and ``apply_Pinv`` may be LinearOperators, matrices, or
    callables; ``apply_Pinv`` defaults to the identity.  Stops on the
    recursively-updated relative residual ||(G + mu I)x - h|| / ||h||.
    Detected negative curvature raises, since it certifies a non-psd input.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    h = np.asarray(h, dtype=float)
    n = h.size
    G = _as_apply(apply_G, n)
    Pinv = _as_apply(apply_Pinv, n) if apply_Pinv is not None else (lambda v: v)

    def op(v):
        return G(v) + mu * v

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    hnorm = np.linalg.norm(h)
    history: list = []
    if hnorm == 0:
        return np.zeros(n), IterativeReport(0, True, history)
    r = h - op(x)
    z = Pinv(r)
    p = z.copy()
    rz = r @ z
    it = 0
    converged = np.linalg.norm(r) / hnorm <= tol
    while it < maxit and not converged:
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
        if relres <= tol:
            converged = True
            break
        z = Pinv(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, IterativeReport(it, converged, history)


def _as_apply(A, n):
    if A is None:
        return lambda v: np.zeros(n)
    if isinstance(A, LinearOperator):
        return A.apply
    if callable(A):
        return A
    A = np.asarray(A, dtype=float)
    return lambda v: A @ v


# ---------------------------------------------------------------------------
# Lanczos tridiagonalization
# ---------------------------------------------------------------------------

def lanczos_tridiag(apply_B, v0, s: int, reorth: str = "full",
                    return_basis: bool = False):
    """s-step Lanczos on a Hermitian operator, started at the unit vector v0.

    Returns the tridiagonal coefficients (alpha, beta) of the Jacobi matrix;
    beta has one fewer entry.  Terminates early (shorter output) when an
    off-diagonal drops below 1e-12 times the running norm estimate.
    ``reorth`` is 'full' (keep and re-project against the whole basis) or
    'none'.  With ``return_basis`` the Lanczos vectors are returned as a
    third output, one per column.
    """
    v0 = np.asarray(v0, dtype=float)
    if abs(np.linalg.norm(v0) - 1.0) > 1e-12:
        raise ValueError("v0 must be a unit vector")
    if s < 1:
        raise ValueError("need at least one Lanczos step")
    if reorth not in ("full", "none"):
        raise ValueError("reorth must be 'full' or 'none'")
    B = _as_apply(apply_B, v0.size)

    alphas: list = []
    betas: list = []
    basis = [v0]
    v_prev = np.zeros_like(v0)
    v = v0
    beta_prev = 0.0
    norm_est = 0.0
    for j in range(s):
        w = B(v)
        alpha = v @ w
        w = w - alpha * v - beta_prev * v_prev
        if reorth == "full":
            for q in basis:
                w -= (q @ w) * q
        alphas.append(float(alpha))
        norm_est = max(norm_est, np.sqrt(alpha ** 2 + beta_prev ** 2))
        if j == s - 1:
            break
        beta = np.linalg.norm(w)
        if beta <= 1e-12 * max(norm_est, 1e-300):
            break
        betas.append(float(beta))
        v_prev = v
        v = w / beta
        if reorth == "full" or return_basis:
            basis.append(v)
        beta_prev = beta
    if return_basis:
        return np.array(alphas), np.array(betas), np.column_stack(basis)
    return np.array(alphas), np.array(betas)


def lanczos_basis(apply_B, v0, s: int, reorth: str = "full"):
    """lanczos_tridiag that also returns the Lanczos basis (for tests)."""
    return lanczos_tridiag(apply_B, v0, s, reorth, return_basis=True)
