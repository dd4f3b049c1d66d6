"""Stochastic trace estimation for implicit operators: Girard-Hutchinson,
Hutch++ (deflation + Girard-Hutchinson on the remainder), and stochastic
Lanczos quadrature for trace(f(B)).

Probe i is drawn from ``seed.substream(i)``, so every probe is bitwise a
pure function of ``(seed, i)``.  Operators are applied to blocks: a
callable (or LinearOperator) receives an (n, k) array and must return an
(n, k) array, one product per column.  The estimators take probes in fixed
blocks of ``PROBE_BLOCK`` = 64 consecutive indices, aligned at multiples of
64 from the first probe index, and apply the operator once per block (once
per Lanczos step, for ``slq``); the last block is filled up with the next
probe indices, whose results are dropped, so at most 63 padding probes are
applied per estimator stage.  ``slq`` runs no Lanczos recurrence for its
padding probes: their columns of every product input hold their unit start
vectors.

Each sample stays a pure function of ``(seed, i)`` as long as a product's
column does not depend on the values in the other columns, which every
matrix product meets.  Its last bits may depend on the block width and on
the column's place in the block; the alignment gives every sample the same
width and place whatever the probe count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import detkernels as dk
from . import lowrank
from . import rng as _rng
from .rng import as_key

PROBE_DISTRIBUTIONS = ("rademacher", "gaussian", "sphere")


@dataclass
class TraceEstimate:
    """value = mean(samples); sample_variance is the unbiased variance."""

    value: float
    samples: np.ndarray
    sample_variance: float
    probes_used: int


@dataclass
class QuadratureRule:
    """Gaussian quadrature rule for one probe's spectral measure: nodes are
    Ritz values, weights sum to the squared probe norm."""

    nodes: np.ndarray
    weights: np.ndarray


def _make_estimate(samples) -> TraceEstimate:
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    var = float(np.var(samples, ddof=1)) if m > 1 else 0.0
    return TraceEstimate(float(samples.mean()), samples, var, m)


# probes per operator call; blocks start at multiples of this from the
# first probe index of an estimator stage
PROBE_BLOCK = 64


def _column_norms(W) -> np.ndarray:
    """Euclidean norm of each column, computed as for a single vector."""
    return np.array([np.linalg.norm(w) for w in W.T])


def _probes(dist: str, seed, start: int, count: int, n: int) -> np.ndarray:
    """Probes start, ..., start + count - 1 as an (n, count) block; column j
    is drawn from ``seed.substream(start + j)``."""
    if dist not in PROBE_DISTRIBUTIONS:
        raise ValueError(f"unknown probe distribution {dist!r}")
    keys = [seed.substream(start + j) for j in range(count)]
    if dist == "rademacher":
        return _rng.stream_block(keys, n, "rademacher")
    W = _rng.stream_block(keys, n, "gaussian")
    if dist == "sphere":
        W *= np.sqrt(n) / _column_norms(W)
    return W


def _probe_blocks(dist: str, seed, first: int, m: int, n: int):
    """(q, W) for the aligned probe blocks covering probes first, ...,
    first + m - 1: W holds probes first + q, ..., first + q + PROBE_BLOCK - 1
    and only its first min(PROBE_BLOCK, m - q) columns count."""
    for q in range(0, m, PROBE_BLOCK):
        yield q, _probes(dist, seed, first + q, PROBE_BLOCK, n)


def _column_dots(X, Y) -> np.ndarray:
    return np.einsum("ij,ij->j", X, Y)


def girard_hutchinson(apply_A, n: int, m: int, dist: str = "rademacher",
                      seed=0) -> TraceEstimate:
    """Average of m quadratic forms w^T A w over isotropic probes
    (E[w w^T] = I for every supported distribution).  ``apply_A`` receives
    (n, 64) probe blocks; a product column must not depend on the values in
    the other columns."""
    if m < 1:
        raise ValueError("need at least one probe")
    seed = as_key(seed)
    A = dk._as_apply(apply_A)
    samples = np.empty(m)
    for q, W in _probe_blocks(dist, seed, 0, m, n):
        samples[q:q + PROBE_BLOCK] = _column_dots(
            W, dk._apply_block(A, W))[:m - q]
    return _make_estimate(samples)


def hutch_pp(apply_A, n: int, m: int, seed=0) -> TraceEstimate:
    """Hutch++: deflate with Q = orth(A S), take trace(Q^T A Q) exactly, and
    run Girard-Hutchinson on the deflated remainder.  S and the remainder
    probes are Rademacher.

    The matrix-vector budget m >= 6 splits in thirds: floor(m / 3) columns
    for S, as many again for A Q, and the rest (at least m / 3, plus any
    slack when orth drops columns) as probes.  ``apply_A`` receives S and Q
    as blocks, then the remainder probes in (n, 64) blocks aligned from
    probe index floor(m / 3), with at most 63 padding probes; a product
    column must not depend on the values in the other columns.

    Per-probe samples include the exact deflated part, so value ==
    mean(samples) and the variance reflects only the residual estimator.
    """
    if m < 6:
        raise ValueError("hutch_pp needs a matrix-vector budget of at least 6")
    n_sketch = m // 3
    seed = as_key(seed)
    A = dk._as_apply(apply_A)

    S = _probes("rademacher", seed, 0, n_sketch, n)
    Q = lowrank.orth(dk._apply_block(A, S))
    head = float(np.sum(Q * dk._apply_block(A, Q)))  # trace(Q^T A Q)

    n_probes = m - n_sketch - Q.shape[1]
    samples = np.empty(n_probes)
    for q, W in _probe_blocks("rademacher", seed, n_sketch, n_probes, n):
        Wd = W - Q @ (Q.T @ W)
        V = dk._apply_block(A, Wd)
        samples[q:q + PROBE_BLOCK] = _column_dots(
            Wd, V - Q @ (Q.T @ V))[:n_probes - q]
    return _make_estimate(head + samples)


def _quadrature_rule(alpha, beta, pnorm: float) -> QuadratureRule:
    if alpha.size == 1:
        nodes, vecs = alpha.copy(), np.ones((1, 1))
    else:
        nodes, vecs = la.eigh_tridiagonal(alpha, beta)
    return QuadratureRule(nodes, (pnorm ** 2) * vecs[0, :] ** 2)


def lanczos_quadrature(apply_B, probe, steps: int) -> QuadratureRule:
    """Gaussian quadrature rule for the spectral measure of one probe:
    nodes are the eigenvalues of the Lanczos Jacobi matrix, weights are the
    squared first components of its eigenvectors times ||probe||^2."""
    probe = np.asarray(probe, dtype=float)
    pnorm = np.linalg.norm(probe)
    if pnorm == 0:
        raise ValueError("probe must be nonzero")
    alpha, beta = dk.lanczos_tridiag(apply_B, probe / pnorm, steps)
    return _quadrature_rule(alpha, beta, pnorm)


def _padded(B, U, live: int):
    """B on (n, live) blocks, applied as one product on a full-width block
    that holds the input in its first ``live`` columns and U's other
    columns after them; the other columns of the output are dropped.  One
    copy of U is made, and each product writes only its live columns."""
    X = U.copy()

    def apply(V):
        X[:, :live] = V
        return dk._apply_block(B, X)[:, :live]
    return apply


def slq(apply_B, n: int, f, m: int, s: int, seed=0) -> TraceEstimate:
    """Stochastic Lanczos quadrature estimate of trace(f(B)) for Hermitian B.

    Each Rademacher probe's quadratic form w^T f(B) w is approximated by an
    s-node Gaussian quadrature of its spectral measure (exact for
    polynomials of degree <= 2s - 1), from s steps of fully
    reorthogonalized Lanczos (``dk.lanczos_tridiag``: one Gram-Schmidt pass
    per step, and a second where the first cancels).  The live probes of
    one 64-wide block run their Lanczos recurrences in lockstep, and
    ``apply_B`` receives (n, 64) blocks.  In a partial last block only the
    live probes run a recurrence: each product input holds the padding
    probes' unit start vectors in their columns, and those output columns
    are dropped.  So a product column must not depend on the values in the
    other columns.  A non-finite f value surfaces the offending node.
    """
    if m < 1 or s < 1:
        raise ValueError("need m >= 1 probes and s >= 1 Lanczos steps")
    seed = as_key(seed)
    B = dk._as_apply(apply_B)
    samples = np.empty(m)
    for q, W in _probe_blocks("rademacher", seed, 0, m, n):
        live = min(PROBE_BLOCK, m - q)
        pnorm = _column_norms(W)
        U = W / pnorm
        alpha, beta = dk.lanczos_tridiag(_padded(B, U, live), U[:, :live], s)
        for j in range(live):
            steps = int(np.sum(~np.isnan(alpha[:, j])))
            rule = _quadrature_rule(alpha[:steps, j], beta[:steps - 1, j],
                                    pnorm[j])
            with np.errstate(all="ignore"):
                fvals = np.asarray(f(rule.nodes), dtype=float)
            if not np.all(np.isfinite(fvals)):
                bad = rule.nodes[~np.isfinite(fvals)][0]
                raise ValueError(f"f is not finite at quadrature node {bad}")
            samples[q + j] = rule.weights @ fvals
    return _make_estimate(samples)


_INV_SHIFT_RE = re.compile(r"^inv_shift\(\s*([-+0-9.eE]+)\s*\)$")


def parse_scalar_function(name: str):
    """Scalar functions accepted by the command line: identity, exp, log1p,
    inv_shift(mu)."""
    name = name.strip()
    if name == "identity":
        return lambda t: t
    if name == "exp":
        return np.exp
    if name == "log1p":
        return np.log1p
    match = _INV_SHIFT_RE.match(name)
    if match:
        mu = float(match.group(1))
        return lambda t: 1.0 / (t + mu)
    raise ValueError(f"unknown scalar function {name!r}")
