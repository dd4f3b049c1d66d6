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

# Uniforms per block of SASO columns: a block's draw (1 MiB) stays in L2
# while it is transposed into targets and signs.
_SASO_BLOCK = 1 << 17


def _as_2d(A):
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        return A[:, None], True
    return A, False


class _OperatorBase:
    """Common apply/transpose plumbing shared by all operator types.  Dense,
    SASO and row-sampling operators keep their sampled matrix in ``_mat``."""

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

    def matrix(self, dense: bool = False):
        """The sampled matrix; ``dense=True`` makes a sparse one an ndarray."""
        if dense and sp.issparse(self._mat):
            return self._mat.toarray()
        return self._mat

    def _apply_left(self, A):
        return self.matrix() @ A

    def _apply_right(self, A):
        return A @ self.matrix()

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


class _Described:
    """An operator with a JSON descriptor: its ``_KIND``, the ``_FIELDS``
    its sampler takes before the seed, and that seed."""

    def to_json(self) -> str:
        desc = {"kind": self._KIND}
        desc.update((name, getattr(self, name)) for name in self._FIELDS)
        desc["seed"] = {"key": self.seed.key,
                        "offset": self.seed.counter_offset,
                        "version": self.seed.version}
        return json.dumps(desc)


@dataclass(frozen=True)
class DenseSketchOp(_Described, _OperatorBase):
    """Wide (d <= m) dense operator with iid entries, or a Haar one with
    orthonormal rows; use ``.T`` for the tall dual.  Entries are unscaled
    (rademacher entries are exactly +-1); drivers apply any 1/sqrt(d)
    normalization themselves.
    """

    _KIND, _FIELDS = "dense", ("family", "d", "m")

    family: str
    d: int
    m: int
    seed: RngKey
    _mat: np.ndarray = field(repr=False, compare=False)


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


def _swap_targets(u: np.ndarray, n: int) -> np.ndarray:
    """The C-contiguous (k, m) int64 targets ``r[t, j] = t + floor(u[t, j] *
    (n - t))`` of the (k, m) uniforms ``u``, in any layout: the multiply
    runs with rows of m however ``u`` is strided."""
    k, m = u.shape
    steps = np.arange(k)[:, None]
    r = np.empty((k, m), np.int64)
    # the cast truncates, which is floor on these nonnegative products
    np.multiply(u, n - steps, out=r, casting="unsafe")
    r += steps
    return r


def _first_copies(r: np.ndarray) -> np.ndarray:
    """For each step t of each column of the (k, c) targets ``r``, the first
    step of that column with target ``r[t, j]``; t itself when no earlier
    step has it.

    With at least as many columns as steps, k - 1 comparisons of contiguous
    row blocks (O(k^2 c) work in O(k) calls).  With fewer, as for the SRFT's
    one column of d steps, a stable sort of each column, whose cost per
    column is higher but whose number of calls does not grow with k."""
    k, c = r.shape
    steps = np.arange(k)[:, None]
    if c >= k:
        first = np.empty_like(r)
        first[:] = steps
        for t in range(k - 2, -1, -1):
            np.copyto(first[t + 1:], t, where=r[t + 1:] == r[t])
        return first
    order = np.argsort(r, axis=0, kind="stable")
    rs = np.take_along_axis(r, order, axis=0)
    start = np.zeros_like(r)  # sorted position of the first copy
    start[1:] = np.where(rs[1:] != rs[:-1], steps[1:], 0)
    np.maximum.accumulate(start, axis=0, out=start)
    first = np.empty_like(r)
    np.put_along_axis(first, order, np.take_along_axis(order, start, axis=0),
                      axis=0)
    return first


def _needs_replay(r: np.ndarray, n: int) -> np.ndarray:
    """A superset of the columns of the (k, m) targets ``r`` that are not
    their own answer: every column when n <= 4k; else every column with a
    repeated target.

    With at least as many columns as steps, the k - 1 pairwise block
    comparisons run on the targets' low 16 bits, a quarter of the bytes;
    targets that differ only above them also replay, which is exact, and
    none do while n <= 2^16."""
    k, m = r.shape
    if n <= 4 * k:
        return np.ones(m, dtype=bool)
    if m < k:
        return (_first_copies(r) != np.arange(k)[:, None]).any(axis=0)
    low = r.astype(np.uint16)
    hit = np.zeros((k, m), dtype=bool)
    for t in range(k - 1):
        hit[t + 1:] |= low[t + 1:] == low[t]
    return hit.any(axis=0)


def _replay(r: np.ndarray, n: int) -> np.ndarray:
    """Run the shuffle on each column of the (k, c) targets ``r`` and return
    its first k entries.  For n <= 4k on the whole of range(n); else on 2k
    slots per column: positions 0..k-1, then slot k + f for the target of
    step f, where a repeated target takes the slot of its first copy."""
    k, c = r.shape
    if n <= 4 * k:
        pool = np.empty((n, c), dtype=np.int64)
        pool[:] = np.arange(n)[:, None]
        return _swap_steps(r, pool)
    steps = np.arange(k)[:, None]
    slot = np.where(r < k, r, k + _first_copies(r))
    pool = np.concatenate([np.broadcast_to(steps, r.shape), r])
    return _swap_steps(slot, pool)


def _fisher_yates(u: np.ndarray, n: int) -> np.ndarray:
    """First k entries of a Fisher-Yates shuffle of range(n), one shuffle per
    column of the (k, m) uniforms ``u``: at step t, column j swaps position t
    with its target ``r[t, j] = t + floor(u[t, j] * (n - t))``.

    No later step touches position t, and step t reads position
    ``r[t, j] >= t``, which an earlier step wrote only if it had the same
    target.  So a column whose targets are distinct takes them as its k
    entries; when k^2 << n that is most columns, and only the others replay
    the shuffle (see ``_replay``).  Every pass runs over the C-contiguous
    (k, m) targets a row at a time: O(k^2 m) elementwise work in O(k) numpy
    calls, and O(k m) scratch memory whatever n is.
    """
    r = _swap_targets(u, n)
    cols = np.flatnonzero(_needs_replay(r, n))
    if len(cols):
        r[:, cols] = _replay(r[:, cols], n)
    return r


def _swap_steps(slot: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Run the k steps of a (k, c) ``slot`` table on a (rows, c) ``pool``:
    step t swaps ``pool[t, j]`` with ``pool[slot[t, j], j]`` in every column
    j.  Returns the first k rows."""
    k, c = slot.shape
    flat = pool.reshape(-1)
    swap = slot * c + np.arange(c)
    for t in range(k):
        head = pool[t].copy()
        pool[t] = flat[swap[t]]
        flat[swap[t]] = head
    return pool[:k]


@dataclass(frozen=True)
class SASO(_Described, _OperatorBase):
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

    _KIND, _FIELDS = "saso", ("d", "m", "k")

    d: int
    m: int
    k: int
    seed: RngKey
    rows: np.ndarray = field(repr=False, compare=False)  # (k, m) row indices
    _mat: sp.csc_array = field(repr=False, compare=False)

    def nnz_per_column(self) -> np.ndarray:
        s = np.sort(self.rows, axis=0)
        return 1 + np.count_nonzero(s[1:] != s[:-1], axis=0)


def sample_saso(d: int, m: int, k: int, seed) -> SASO:
    """Sample a wide d-by-m SASO with k nonzeros per column.

    Each column's row indices are drawn uniformly without replacement via
    partial Fisher-Yates (see ``_fisher_yates``).  The 2k x m uniforms are
    drawn a block of columns at a time, so a block's draw is still in cache
    while its swap targets are laid out as contiguous rows, tested for
    repeats and transposed into the CSC ``indices``, and its signs written
    into the CSC ``data``; the few columns with a repeated target, from all
    blocks, are replayed together at the end.  Time is O(k^2 m) elementwise work
    whatever d is.  Memory is the two (m, k) CSC arrays, one block's
    scratch and the replayed columns; no 2k x m grid is held.  ``rows`` is
    a view of the CSC ``indices``.
    """
    seed = as_key(seed)
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d for a wide SASO")
    if d > m:
        raise ValueError("SASOs are wide (d <= m); use .T for the tall dual")
    rows = np.empty((m, k), dtype=np.int64)  # column j's indices in row j
    vals = np.empty((m, k))
    replay = np.empty(m, dtype=bool)
    width = max(1, _SASO_BLOCK // (2 * k))
    for j in range(0, m, width):
        u = rng.uniform_stream(seed.advance(2 * k * j),
                               2 * k * min(width, m - j)).reshape(-1, 2 * k)
        r = _swap_targets(u[:, :k].T, d)
        replay[j:j + width] = _needs_replay(r, d)
        rows[j:j + width] = r.T
        # -1/sqrt(k) where u < 1/2, else +1/sqrt(k); copied first, as
        # numpy copies rows of k faster than it computes on them
        v = vals[j:j + width]
        v[...] = u[:, k:]
        v -= 0.5
        np.copysign(1 / np.sqrt(k), v, out=v)
    cols = np.flatnonzero(replay)
    if len(cols):
        rows[cols] = _replay(rows[cols].T.copy(), d).T
    indptr = np.arange(0, k * (m + 1), k)
    mat = sp.csc_array((vals.reshape(-1), rows.reshape(-1), indptr),
                       shape=(d, m))
    return SASO(d, m, k, seed, rows.T, mat)


@dataclass(frozen=True)
class RowSampleOp(_OperatorBase):
    """d-by-m row sampler: row i of the operator is e_{t_i}^T / sqrt(d q_{t_i})
    with t_i drawn iid from the distribution q, kept as CSR.  S A gathers
    rows of A: a CSR product would turn an entry -0.0 of A into +0.0."""

    d: int
    m: int
    probs: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    scales: np.ndarray = field(repr=False)
    _mat: sp.csr_array = field(repr=False, compare=False)
    seed: RngKey = RngKey(0)

    def _apply_left(self, A):
        return self.scales[:, None] * A[self.indices, :]


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
    mat = sp.csr_array((scales, idx, np.arange(d + 1)), shape=(d, m))
    return RowSampleOp(d, m, q, idx, scales, mat, seed)


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
class SRFTOp(_Described, _OperatorBase):
    """Subsampled randomized Walsh-Hadamard transform.

    Acting on an m-vector x: flip signs, zero-pad to the next power of two
    m_pad, apply the orthonormal Walsh-Hadamard transform, keep d distinct
    coordinates, and scale by sqrt(m_pad/d) so the pre-sampling product is
    orthogonal.  Only the d kept coordinates are computed (see ``fwht``):
    with f2 the power of two nearest sqrt(4d), an apply costs
    2*m_pad*f2 + 2*d*m_pad/f2 flops per column, all in BLAS, and about
    (m + m_pad) floats of scratch memory per column.
    """

    _KIND, _FIELDS = "srft", ("d", "m")

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
    for cls, sampler in ((DenseSketchOp, sample_dense), (SASO, sample_saso),
                         (SRFTOp, sample_srft)):
        if desc["kind"] == cls._KIND:
            return sampler(*(desc[name] for name in cls._FIELDS), seed)
    raise ValueError(f"unknown operator kind {desc['kind']!r}")
