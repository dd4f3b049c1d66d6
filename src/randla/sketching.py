"""Data-oblivious sketching operators.

Families covered: dense iid operators (gaussian, rademacher, uniform), Haar
row/column-orthonormal operators, short-axis-sparse operators (SASO),
row-sampling operators, and subsampled randomized fast trigonometric
transforms built on the Walsh-Hadamard transform.

All operators are sampled as pure functions of their arguments, including the
seed, and are immutable afterwards.  Entry (i, j) of a wide dense d-by-m
operator is drawn at counter ``i + d*j``; tall operators are transpose views
of wide ones, never separate kernels.  Dense, SASO and SRFT operators
serialize to small JSON descriptors, never as dense data; row samplers and
transposed views have no descriptor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import rng
from .rng import RngKey, as_key

DENSE_FAMILIES = ("gaussian", "rademacher", "uniform", "haar")
OPERATOR_FAMILIES = DENSE_FAMILIES + ("saso", "srft")


def _as_2d(A):
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        return A[:, None], True
    return A, False


class _OperatorBase:
    """Common apply/transpose plumbing shared by all operator types."""

    def apply(self, A, side: str = "left") -> np.ndarray:
        """Compute S @ A (side='left') or A @ S (side='right')."""
        A2, was_vec = _as_2d(A)
        if side == "left":
            out = self._apply_left(A2)
        elif side == "right":
            out = self._apply_right(A2)
        else:
            raise ValueError("side must be 'left' or 'right'")
        return out[:, 0] if was_vec and out.ndim == 2 else out

    def _apply_left(self, A):
        return self.matrix() @ A

    def _apply_right(self, A):
        return A @ self.matrix()

    def __matmul__(self, A):
        return self.apply(A, side="left")

    def __rmatmul__(self, A):
        return self.apply(A, side="right")

    @property
    def shape(self):
        return (self.d, self.m)

    @property
    def T(self):
        return TransposedOp(self)


@dataclass(frozen=True)
class TransposedOp(_OperatorBase):
    """Lazy transpose view of another operator (the canonical wide/tall
    duality: no duplicated kernels)."""

    base: _OperatorBase

    @property
    def d(self):
        return self.base.m

    @property
    def m(self):
        return self.base.d

    @property
    def T(self):
        return self.base

    def matrix(self):
        return self.base.matrix().T

    def _apply_left(self, A):
        # (S^T) A = (A^T S)^T
        return self.base._apply_right(A.T).T

    def _apply_right(self, A):
        return self.base._apply_left(A.T).T


def _seed_json(seed: RngKey) -> dict:
    """A descriptor's record of the stream its operator was drawn from."""
    return {"key": seed.key, "offset": seed.counter_offset,
            "version": seed.version}


@dataclass(frozen=True)
class DenseSketchOp(_OperatorBase):
    """Wide (d <= m) dense operator with iid entries, or a Haar one with
    orthonormal rows; use ``.T`` for the tall dual.  Entries are unscaled
    (rademacher entries are exactly +-1); drivers apply any 1/sqrt(d)
    normalization themselves.
    """

    family: str
    d: int
    m: int
    seed: RngKey
    _mat: np.ndarray = field(default=None, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        return self._mat

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "dense",
                "family": self.family,
                "d": self.d,
                "m": self.m,
                "seed": _seed_json(self.seed),
            }
        )


def _entry_grid(family: str, seed: RngKey, d: int, m: int) -> np.ndarray:
    # One stream laid out column-major on the (d, m) grid.  The stream
    # function is looked up on ``rng`` at call time, so wrappers installed
    # there see the draw.
    draw = {"gaussian": rng.gaussian_stream,
            "rademacher": rng.rademacher_stream,
            "uniform": rng.uniform_stream}[family]
    grid = draw(seed, d * m).reshape((d, m), order="F")
    return 2.0 * grid - 1.0 if family == "uniform" else grid


def sample_dense(family: str, d: int, m: int, seed) -> DenseSketchOp:
    """Sample a wide dense sketching operator of shape (d, m), d <= m.

    Haar operators come from QR of a Gaussian sample with the triangular
    factor's diagonal signs fixed, so the result is Haar-distributed and
    deterministic given the seed.
    """
    seed = as_key(seed)
    if d < 1 or m < 1:
        raise ValueError("operator dimensions must be positive")
    if d > m:
        raise ValueError("dense operators are wide (d <= m); use .T for the tall dual")
    if family == "haar":
        G = _entry_grid("gaussian", seed, d, m)
        Q, R = np.linalg.qr(G.T)
        mat = (Q * np.sign(np.diag(R))).T
    elif family in DENSE_FAMILIES:
        mat = _entry_grid(family, seed, d, m)
    else:
        raise ValueError(f"unknown dense family {family!r}")
    return DenseSketchOp(family, d, m, seed, mat)


def _fisher_yates(u: np.ndarray, n: int) -> np.ndarray:
    """First k entries of a Fisher-Yates shuffle of range(n), one shuffle per
    column of the (k, m) uniforms ``u``: at step t, column j swaps position t
    with its target ``r[t, j] = t + floor(u[t, j] * (n - t))``.

    A column whose targets are distinct, each either t itself or at least k,
    never moves an entry twice, so its k entries are its targets; when
    k^2 << n that is most columns.  Only the other columns are replayed, on
    2k slots each: positions 0..k-1, then one slot per distinct target >= k.
    Cost and scratch memory are O(k log k * m) whatever n is, with no Python
    loop over columns.  For n <= 4k the replay runs every column on the
    whole of range(n), which is then no larger than the sort's temporaries.
    """
    k, m = u.shape
    steps = np.arange(k)[:, None]
    r = (u * (n - steps)).astype(np.int64)
    r += steps
    if n <= 4 * k:
        pool = np.empty((n, m), dtype=np.int64)
        pool[:] = np.arange(n)[:, None]
        return _swap_steps(r, pool).copy()  # drop the n-row pool
    rs = np.sort(r, axis=0)
    replay = ((r > steps) & (r < k)).any(axis=0) | (rs[1:] == rs[:-1]).any(axis=0)
    if replay.any():
        rb = r[:, replay]
        order = np.argsort(rb, axis=0)
        rbs = np.take_along_axis(rb, order, axis=0)
        # a target >= k takes slot k + the sorted position of its first copy
        first = np.zeros_like(rb)
        first[1:] = np.where(rbs[1:] != rbs[:-1], steps[1:], 0)
        np.maximum.accumulate(first, axis=0, out=first)
        slot = np.empty_like(rb)
        np.put_along_axis(slot, order, k + first, axis=0)
        pool = np.concatenate([np.broadcast_to(steps, rb.shape), rbs])
        r[:, replay] = _swap_steps(np.where(rb < k, rb, slot), pool)
    return r


def _swap_steps(slot: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Run the k steps of a (k, c) ``slot`` table on a (rows, c) ``pool``:
    step t swaps ``pool[t, j]`` with ``pool[slot[t, j], j]`` in every column
    j.  Returns the first k rows."""
    k, c = slot.shape
    flat = pool.reshape(-1)
    cols = np.arange(c)
    for t in range(k):
        swap = slot[t] * c + cols
        head = pool[t].copy()
        pool[t] = flat[swap]
        flat[swap] = head
    return pool[:k]


@dataclass(frozen=True)
class SASO(_OperatorBase):
    """Short-axis-sparse operator: every short-axis vector has exactly k
    nonzeros with values +-1/sqrt(k).

    Wide by construction (d <= m, columns are the short axis); use ``.T``
    for the tall dual.  Column j draws its 2k uniforms at counters
    ``[2kj, 2kj + 2k)``: the first k drive the index choice, the rest the
    signs.  All of them are drawn once, at sampling, where the CSC matrix
    is built; ``matrix()``, ``apply`` and ``.T`` reuse it.

    Caveat: applying a SASO reads only the entries its sparsity pattern
    touches, so a NaN or Inf in an untouched entry of the data does not
    propagate to the sketch.
    """

    d: int
    m: int
    k: int
    seed: RngKey
    rows: np.ndarray = field(repr=False, compare=False)  # (k, m) row indices
    _mat: sp.csc_array = field(repr=False, compare=False)

    def matrix(self, dense: bool = False):
        return self._mat.toarray() if dense else self._mat

    def nnz_per_column(self) -> np.ndarray:
        s = np.sort(self.rows, axis=0)
        return 1 + np.count_nonzero(s[1:] != s[:-1], axis=0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "saso",
                "d": self.d,
                "m": self.m,
                "k": self.k,
                "seed": _seed_json(self.seed),
            }
        )


def sample_saso(d: int, m: int, k: int, seed) -> SASO:
    """Sample a wide d-by-m SASO with k nonzeros per column.

    Each column's row indices are drawn uniformly without replacement via
    partial Fisher-Yates, in O(k log k * m) time and O(k * m) memory
    whatever d is (see ``_fisher_yates``).
    """
    seed = as_key(seed)
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d for a wide SASO")
    if d > m:
        raise ValueError("SASOs are wide (d <= m); use .T for the tall dual")
    u = rng.uniform_grid(seed, 2 * k, m)
    rows = _fisher_yates(u[:k], d)
    vals = np.where(u[k:] < 0.5, -1.0, 1.0) / np.sqrt(k)
    indptr = np.arange(0, k * (m + 1), k)
    mat = sp.csc_array(
        (vals.ravel(order="F"), rows.ravel(order="F"), indptr), shape=(d, m)
    )
    return SASO(d, m, k, seed, rows, mat)


@dataclass(frozen=True)
class RowSampleOp(_OperatorBase):
    """d-by-m row sampler: row i of the operator is e_{t_i}^T / sqrt(d q_{t_i})
    with t_i drawn iid from the distribution q."""

    d: int
    m: int
    probs: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    scales: np.ndarray = field(repr=False)
    seed: RngKey = RngKey(0)

    def matrix(self, dense: bool = False):
        S = sp.csr_array(
            (self.scales, self.indices, np.arange(self.d + 1)),
            shape=(self.d, self.m),
        )
        return S.toarray() if dense else S

    def _apply_left(self, A):
        return self.scales[:, None] * A[self.indices, :]

    def _apply_right(self, A):
        out = np.zeros((A.shape[0], self.m))
        np.add.at(out, (slice(None), self.indices), A * self.scales[None, :])
        return out


def sample_row_sampler(d: int, q, seed) -> RowSampleOp:
    """Sample a d-row sampling operator for the distribution q over [m]."""
    seed = as_key(seed)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("sampling probabilities must be nonnegative")
    if abs(q.sum() - 1.0) > 1e-12:
        raise ValueError("sampling probabilities must sum to 1 within 1e-12")
    m = q.size
    cdf = np.cumsum(q)
    u = rng.uniform_stream(seed, d)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), m - 1)
    # guard against landing on a zero-probability tail index via rounding
    if np.any(q[idx] == 0):
        bad = q[idx] == 0
        idx[bad] = np.argmax(q)
    scales = 1.0 / np.sqrt(d * q[idx])
    return RowSampleOp(d, m, q, idx, scales, seed)


def next_pow_two(m: int) -> int:
    p = 1
    while p < m:
        p *= 2
    return p


def _hadamard(rows: np.ndarray, cols: int) -> np.ndarray:
    """``H[rows, :cols]`` of any Sylvester Hadamard matrix H of order above
    both, from bit parity: H[i, j] = (-1)^popcount(i & j)."""
    return np.where(np.bitwise_count(rows[:, None] & np.arange(cols)) & 1,
                    -1.0, 1.0)


def _wht_split(rows: np.ndarray, n: int, m: int):
    """Split H_n = H_f2 (x) H_f1 on the high and low bits of an index, for
    the output ``rows`` of a transform of m <= n inputs.

    f2 is the power of two nearest sqrt(4 len(rows)) on a log scale, at
    most n.  Returns f1; ``used``, the number of f1-blocks that hold inputs;
    ``H2``, the rows of H_f2 for the blocks that hold a wanted output, cut
    to its first ``used`` columns; and a generator of one ``(positions in
    rows, rows of H_f1)`` pair per such block, in the order of H2's rows.
    Each block's rows of H_f1 are made as the loop reaches it, so no
    f1-by-f1 matrix, and no len(rows)-by-f1 one, is ever built.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("fwht length must be a power of two")
    if not m <= n:
        raise ValueError("fwht input has more rows than the transform")
    if rows.size and not 0 <= rows.min() <= rows.max() < n:
        raise ValueError("fwht rows must lie in [0, n)")
    f2 = min(1 << ((4 * rows.size).bit_length() // 2), n)
    f1 = n // f2
    hi, lo = np.divmod(rows, f1)
    order = np.argsort(hi, kind="stable")
    blocks, starts = np.unique(hi[order], return_index=True)
    bounds = np.append(starts, rows.size)
    groups = ((order[a:b], _hadamard(lo[order[a:b]], f1))
              for a, b in zip(bounds[:-1], bounds[1:]))
    used = -(-m // f1)
    return f1, used, _hadamard(blocks, used), groups


def fwht(X: np.ndarray, signs, rows, n: int) -> np.ndarray:
    """Rows ``rows`` of the unnormalized Walsh-Hadamard transform of order n
    (a power of two) of D X zero-padded to n rows, D = diag(signs):
    ``H_n[rows, :m] @ D X`` along axis 0 for the m <= n rows of X,
    vectorized over the remaining axes.  The input is not modified.

    Only the wanted rows are computed (Woolfe, Liberty, Rokhlin and Tygert,
    2008).  With H_n = H_f2 (x) H_f1 (see ``_wht_split``), stage one is one
    GEMM of H_f2's needed entries against D X viewed as ``(used, f1 * c)``;
    stage two multiplies, per f1-block, the needed rows of H_f1 by that
    block's stage-one output.  That is 2*n*f2 + 2*len(rows)*n/f2 flops per
    column, and about (m + n) * c floats of scratch memory.
    """
    X = np.asarray(X, dtype=float)
    rows = np.asarray(rows, dtype=np.int64)
    m, rest = X.shape[0], X.shape[1:]
    f1, used, H2, groups = _wht_split(rows, n, m)
    c = math.prod(rest)
    DX = np.zeros((used * f1, c))
    np.multiply(X.reshape(m, c), np.reshape(signs, (m, 1)), out=DX[:m])
    Z = H2 @ DX.reshape(used, f1 * c)
    out = np.empty((rows.size, c))
    for Zb, (idx, H1) in zip(Z, groups):
        out[idx] = H1 @ Zb.reshape(f1, c)
    return out.reshape(rows.shape + rest)


def fwht_adjoint(Y: np.ndarray, signs, rows, n: int) -> np.ndarray:
    """The adjoint of ``fwht`` for m = len(signs) inputs:
    ``D H_n[:m, rows] @ Y``, on the same split and at the same cost."""
    Y = np.asarray(Y, dtype=float)
    rows = np.asarray(rows, dtype=np.int64)
    m, rest = len(signs), Y.shape[1:]
    f1, used, H2, groups = _wht_split(rows, n, m)
    c = math.prod(rest)
    Y2 = Y.reshape(rows.size, c)
    Z = np.empty((H2.shape[0], f1 * c))
    for Zb, (idx, H1) in zip(Z, groups):
        np.matmul(H1.T, Y2[idx], out=Zb.reshape(f1, c))
    out = (H2.T @ Z).reshape(used * f1, c)[:m]
    out *= np.reshape(signs, (m, 1))
    return out.reshape((m,) + rest)


@dataclass(frozen=True)
class SRFTOp(_OperatorBase):
    """Subsampled randomized Walsh-Hadamard transform.

    Acting on an m-vector x: flip signs, zero-pad to the next power of two
    m_pad, apply the orthonormal Walsh-Hadamard transform, keep d distinct
    coordinates, and scale by sqrt(m_pad/d) so the pre-sampling product is
    orthogonal.  Only the d kept coordinates are computed (see ``fwht``):
    with f2 the power of two nearest sqrt(4d), an apply costs
    2*m_pad*f2 + 2*d*m_pad/f2 flops per column, all in BLAS, and about
    (m + m_pad) floats of scratch memory per column.
    """

    d: int
    m: int
    m_pad: int
    signs: np.ndarray = field(repr=False, compare=False)
    coords: np.ndarray = field(repr=False, compare=False)
    seed: RngKey = RngKey(0)

    def matrix(self) -> np.ndarray:
        return self._apply_left(np.eye(self.m))

    def _apply_left(self, A):
        # sqrt(m_pad/d) * (H/sqrt(m_pad)) == 1/sqrt(d) on the raw transform
        B = fwht(A, self.signs, self.coords, self.m_pad)
        return B / np.sqrt(self.d)

    def _apply_right(self, A):
        B = fwht_adjoint(A.T, self.signs, self.coords, self.m_pad)
        return B.T / np.sqrt(self.d)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "srft",
                "d": self.d,
                "m": self.m,
                "seed": _seed_json(self.seed),
            }
        )


def sample_srft(d: int, m: int, seed) -> SRFTOp:
    """Sample a d-by-m SRFT (d <= m).  Counters [0, m) drive the sign flips
    and [m, m + d) the coordinate sample."""
    seed = as_key(seed)
    if d > m:
        raise ValueError("SRFTs are wide (d <= m)")
    m_pad = next_pow_two(m)
    signs = rng.rademacher_stream(seed, m)
    u = rng.uniform_stream(seed.advance(m), d)
    coords = _fisher_yates(u[:, None], m_pad)[:, 0]
    return SRFTOp(d, m, m_pad, signs, coords, seed)


@dataclass(frozen=True)
class DistortionReport:
    """Restricted singular values of an operator on a subspace, the induced
    condition number, and the scale-invariant effective distortion
    (kappa - 1) / (kappa + 1)."""

    sigma_max: float
    sigma_min: float
    cond: float
    eff_distortion: float


def distortion_diagnostics(S, U) -> DistortionReport:
    """Measure how an operator distorts the subspace spanned by the
    column-orthonormal matrix U.

    sigma_max/sigma_min are the extreme singular values of S @ U; a
    rank-deficient product gives effective distortion exactly 1.
    """
    U = np.asarray(U, dtype=float)
    gram_err = np.abs(U.T @ U - np.eye(U.shape[1])).max()
    if gram_err > 1e-8:
        raise ValueError("U must have orthonormal columns (to 1e-8)")
    SU = S.apply(U) if hasattr(S, "apply") else np.asarray(S) @ U
    svals = np.linalg.svd(SU, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    if smin <= smax * np.finfo(float).eps or svals.size < U.shape[1]:
        return DistortionReport(smax, smin, np.inf, 1.0)
    cond = smax / smin
    return DistortionReport(smax, smin, cond, (cond - 1.0) / (cond + 1.0))


def sample_operator(family: str, d: int, m: int, seed, saso_k: int = 8):
    """Dispatch on family name; the one-stop constructor used by drivers.

    family is one of the dense families, 'saso', or 'srft'.
    """
    if family in DENSE_FAMILIES:
        return sample_dense(family, d, m, seed)
    if family == "saso":
        return sample_saso(d, m, min(saso_k, d), seed)
    if family == "srft":
        return sample_srft(d, m, seed)
    raise ValueError(f"unknown sketching family {family!r}")


# Keys that descriptors of earlier versions carry with the one value this
# version builds: a dense operator's axis and a SASO's row construction.
_FIXED_DESCRIPTOR_KEYS = {"orientation": "wide", "method": "replacement_free"}


def operator_from_json(s: str):
    """Rebuild an operator from its JSON descriptor."""
    desc = json.loads(s)
    for key, value in _FIXED_DESCRIPTOR_KEYS.items():
        if desc.get(key, value) != value:
            raise ValueError(f"cannot rebuild an operator with {key} "
                             f"{desc[key]!r}; only {value!r} is supported")
    # descriptors written before stream versions existed drew v1 streams
    seed = RngKey(desc["seed"]["key"], desc["seed"]["offset"],
                  desc["seed"].get("version", 1))
    kind = desc["kind"]
    if kind == "dense":
        return sample_dense(desc["family"], desc["d"], desc["m"], seed)
    if kind == "saso":
        return sample_saso(desc["d"], desc["m"], desc["k"], seed)
    if kind == "srft":
        return sample_srft(desc["d"], desc["m"], seed)
    raise ValueError(f"unknown operator kind {kind!r}")
