"""Synthetic test-matrix generation and the experiment harness behind the
command line: run any driver over repeated trials, record one CSV row per
trial, and summarize to JSON.

Randomness policy: the test matrix and its right-hand-side data are fixed
by the matrix seed; each trial re-randomizes only the driver with a derived
per-trial key, so reruns of one config are bitwise identical apart from
timings, under any --parallel setting.
"""

from __future__ import annotations

import csv
import inspect
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import (Annotated, Callable, Literal, NamedTuple, get_args,
                    get_origin)

import numpy as np

from . import _shapes
from . import detkernels as dk
from . import errorest, fullrank, leastsq, leverage, lowrank, sketching, trace
from . import rng as _rng
from .rng import RngKey, parse_seed_token


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def schema(fn) -> dict[str, inspect.Parameter]:
    """The config schema of ``fn``: its keyword-only parameters, by name."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    return {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}


def _check_keys(given: dict, accepted, what: str):
    if not isinstance(given, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = [key for key in given if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown {what} key {', '.join(map(repr, unknown))}"
                          f"; accepted: {', '.join(accepted) or 'none'}")


def _coerce(value, kind, where: str, hint=inspect.Parameter.empty):
    """``value`` converted by ``kind`` (a type or a parser); a bool also from
    0 or 1, an int also from an integral float.  A ``Literal`` hint lists the
    allowed values; an ``Annotated`` hint's metadata is a parser to pass."""
    try:
        if kind is bool and value in (0, 1):
            return bool(value)
        if isinstance(value, bool) or (kind in (bool, str)
                                       and not isinstance(value, kind)):
            raise TypeError(f"expected {kind.__name__}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        value = kind(value)
        if get_origin(hint) is Literal and value not in get_args(hint):
            raise ValueError(f"choose from {', '.join(get_args(hint))}")
        if get_origin(hint) is Annotated:
            hint.__metadata__[0](value)
        return value
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: bad value {value!r} ({err})") from None


def _check(ok, problem: str):
    """A check for an ``Annotated`` hint: ValueError(problem) unless
    ``ok(value)``."""
    def check(value):
        if not ok(value):
            raise ValueError(problem)
    return check


_positive = _check(lambda v: v >= 1, "must be at least 1")
_nonnegative = _check(lambda v: v >= 0, "must be nonnegative")
# A count or size param (rank, probes, sketch dimension, ...): a positive int.
_Count = Annotated[int, _positive]
# Zero or more: a tolerance or sps2's mu; a count that may be 0
# (oversampling, power passes).
_NonNegative = Annotated[float, _nonnegative]
_Count0 = Annotated[int, _nonnegative]
# A sampling factor or nystrom_pcg's mu.
_Positive = Annotated[float, _check(lambda v: v > 0, "must be positive")]
# A bootstrap's alpha or an embedding's eps: strictly between 0 and 1.
_Fraction = Annotated[float, _check(lambda v: 0 < v < 1, "must lie in (0, 1)")]


class _Shape(NamedTuple):
    """A library shape check in an adapter's annotation, applied at load as
    ``check(rows, n, **values)``: the annotated param's value and those of
    ``also``, by name (none for ``A``), with ``rows`` m or a sketch size
    checked before; skipped unless the bool param ``when`` is set."""

    check: Callable
    also: tuple = ()
    rows: str = "m"
    when: str | None = None


# The matrix spec's shape, on an adapter's ``A``.
_Tall = Annotated[np.ndarray,
                  _Shape(partial(_shapes.tall, what="matrix spec"))]
_Square = Annotated[np.ndarray,
                    _Shape(partial(_shapes.square, what="matrix spec"))]
# A sketch size in [n, m] (tall) or at most m (wide); None is min(4n, m),
# or min(12n, m) where ``fullrank`` resolves it.
_tall_rows = partial(_shapes.sketch_rows, default=4)
_wide_rows = partial(_shapes.sketch_rows, default=4, tall=False)
_TallRows = Annotated[_Count, _Shape(_tall_rows)]
_WideRows = Annotated[_Count, _Shape(_wide_rows)]
_QRRows = Annotated[_Count, _Shape(partial(
    _shapes.sketch_rows, default=leastsq.DEFAULT_SAMPLING_FACTOR))]
# spo1's and sps2's: the tall sketch size min(ceil(n f), m) in [n, m].
_Factor = Annotated[_Positive, _Shape(_shapes.sketch_dim)]
# A rank k that, plus its oversampling, is at most min(m, n).
_Rank = Annotated[_Count, _Shape(_shapes.rank_fits, ("oversample",))]


def _bind(fn, given: dict, what: str) -> dict:
    """``given`` checked against ``schema(fn)``, each value coerced to the
    type of its default (int for None: ``fn`` computes it from the problem)."""
    accepted = schema(fn)
    _check_keys(given, accepted, f"{what} params")
    kinds = {name: int if p.default is None else type(p.default)
             for name, p in accepted.items()}
    return {name: _coerce(value, kinds[name], f"{what} param {name!r}",
                          accepted[name].annotation)
            for name, value in given.items()}


def _step(n, *, r=1, gap=10.0):
    if not 1 <= r <= n:
        raise ConfigError("step spectrum needs 1 <= r <= min(m, n)")
    return np.concatenate([np.full(r, gap), np.ones(n - r)])


def _spiked(U, *, rows=1, weight=100.0):
    """Rotate leading left singular vectors toward coordinate axes to
    implant heavy-leverage rows."""
    m, r = U.shape
    if not 1 <= rows <= min(m, r):
        raise ConfigError("spiked coherence needs 1 <= rows <= min(m, rank)")
    E = np.zeros((m, r))
    E[np.arange(rows), np.arange(rows)] = 1.0
    return np.linalg.qr(U + weight * E)[0]


SPECTRA = {"flat": lambda n: np.ones(n),
           "step": _step,
           "power": lambda n, *, decay=1.0: np.arange(1, n + 1.0) ** -decay,
           "exp": lambda n, *, decay=0.1: np.exp(-decay * np.arange(n))}
COHERENCE = {"incoherent": lambda U: U, "spiked": _spiked}


def _kind_object(d: dict, what: str, kinds: dict) -> dict:
    """``d[what]``: a ``{"kind": name, <field>: value}`` object, or a kind name
    (by default the first of ``kinds``), checked against ``kinds[name]``."""
    obj = d.get(what, next(iter(kinds)))
    obj = obj if isinstance(obj, dict) else {"kind": obj}
    kind = _coerce(obj.get("kind"), str, f"{what} kind", Literal[tuple(kinds)])
    given = {k: v for k, v in obj.items() if k != "kind"}
    return {"kind": kind, **_bind(kinds[kind], given, f"{kind} {what}")}


@dataclass(frozen=True)
class MatrixSpec:
    """Synthetic m-by-n matrix with a prescribed spectrum and coherence
    profile, realized as U diag(sigma) V^T with orthonormalized-Gaussian
    factors."""

    m: int
    n: int
    spectrum: dict = field(default_factory=lambda: {"kind": "flat"})
    coherence: dict = field(default_factory=lambda: {"kind": "incoherent"})
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "MatrixSpec":
        _check_keys(d, [f.name for f in fields(cls)], "matrix spec")
        m, n = (_coerce(d.get(k, 0), int, f"matrix {k}") for k in ("m", "n"))
        if m < 1 or n < 1:
            raise ConfigError("matrix spec needs a positive 'm' and 'n'")
        spec = cls(m, n, _kind_object(d, "spectrum", SPECTRA),
                   _kind_object(d, "coherence", COHERENCE),
                   _coerce(d.get("seed", 0), parse_seed_token, "matrix seed"))
        spec.singular_values()  # validate eagerly
        return spec

    def singular_values(self) -> np.ndarray:
        """The spectrum's min(m, n) values, sorted nonincreasing (a
        ``step`` with gap < 1 or a negative ``decay`` lists them
        increasing)."""
        spectrum = dict(self.spectrum)
        sig = SPECTRA[spectrum.pop("kind")](min(self.m, self.n), **spectrum)
        return np.sort(sig)[::-1]


def _orth_gaussian(key: RngKey, rows: int, cols: int) -> np.ndarray:
    G = _rng.gaussian_stream(key, rows * cols).reshape((rows, cols), order="F")
    return np.linalg.qr(G)[0]


def gen_matrix(spec: MatrixSpec) -> np.ndarray:
    """Realize a MatrixSpec.  The singular values match the spec exactly;
    the spiked coherence profile implants heavy-leverage rows."""
    sig = spec.singular_values()
    r = sig.size
    key = RngKey(spec.seed)
    U = _orth_gaussian(key.substream(0), spec.m, r)
    V = _orth_gaussian(key.substream(1), spec.n, r)
    coherence = dict(spec.coherence)
    U = COHERENCE[coherence.pop("kind")](U, **coherence)
    return (U * sig) @ V.T


def _lstsq_data(A: np.ndarray, key: RngKey):
    """Benchmark right-hand side: unit-norm planted solution plus a
    unit-norm residual orthogonal to range(A)."""
    m, n = A.shape
    x = _rng.gaussian_stream(key.substream(0), n)
    x /= np.linalg.norm(x)
    w = _rng.gaussian_stream(key.substream(1), m)
    U = lowrank.orth(A)
    w -= U @ (U.T @ w)
    nw = np.linalg.norm(w)
    if nw > 0:
        w /= nw
    scale = np.linalg.norm(A, 2)
    return A @ (x / scale) + w


# ---------------------------------------------------------------------------
# drivers: run(A, spec, key, *, <param>=<default>, ...) -> metrics
# ---------------------------------------------------------------------------

SketchFamily = Literal[sketching.OPERATOR_FAMILIES]


def _psd_from(A: np.ndarray, spec: MatrixSpec) -> np.ndarray:
    """The psd test matrix of a square spec: its singular values as
    eigenvalues."""
    lam = spec.singular_values()
    V = _orth_gaussian(RngKey(spec.seed).substream(0), spec.n, lam.size)
    return (V * lam) @ V.T


def _lowrank_error(A, Ahat, sig, k):
    err = np.linalg.norm(A - Ahat, "fro")
    opt = float(np.sqrt(np.sum(sig[k:] ** 2)))
    return {"fro_err": float(err),
            "err_over_opt": float(err / opt) if opt > 0 else 1.0}


def _trace_error(est, truth):
    return {"estimate": est.value,
            "rel_err": abs(est.value - truth) / abs(truth)}


def _run_spo1(A: _Tall, spec, key, *, tol: _NonNegative = 1e-11,
              maxit: _Count = 100,
              sampling_factor: _Factor = leastsq.DEFAULT_SAMPLING_FACTOR,
              family: SketchFamily = "saso"):
    b = _lstsq_data(A, RngKey(spec.seed).substream(7))
    x, rep = leastsq.spo1(A, b, tol=tol, maxit=maxit,
                          sampling_factor=sampling_factor, seed=key,
                          op_family=family)
    r = b - A @ x
    anorm = np.linalg.norm(A, 2)
    return {"iters": rep.iterations,
            "rel_nres": float(np.linalg.norm(A.T @ r)
                              / (anorm * np.linalg.norm(r))),
            "converged": int(rep.converged)}


def _run_sps2(A: _Tall, spec, key, *, mu: _NonNegative = 0.0,
              tol: _NonNegative = 1e-12, maxit: _Count = 200,
              sampling_factor: _Factor = leastsq.DEFAULT_SAMPLING_FACTOR,
              family: SketchFamily = "saso"):
    data_key = RngKey(spec.seed)
    b = _lstsq_data(A, data_key.substream(7))
    c = _rng.gaussian_stream(data_key.substream(8), A.shape[1])
    prob = leastsq.SaddleProblem(A, b, c, mu)
    sol = leastsq.sps2(prob, tol=tol, maxit=maxit,
                       sampling_factor=sampling_factor, seed=key,
                       op_family=family)
    lhs = (A.T @ A + mu * np.eye(A.shape[1])) @ sol.x
    rhs = A.T @ b - c
    return {"iters": sol.report.iterations,
            "normal_eq_err": float(np.linalg.norm(lhs - rhs)
                                   / np.linalg.norm(rhs))}


def _run_sketch_and_solve(A: _Tall, spec, key, *, d: _TallRows = None,
                          family: SketchFamily = "gaussian"):
    b = _lstsq_data(A, RngKey(spec.seed).substream(7))
    d = _tall_rows(*A.shape, d=d)
    x, _, _ = leastsq.sketch_and_solve_ols(A, b, d, seed=key, op_family=family)
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    num = np.linalg.norm(A @ x - b)
    den = np.linalg.norm(A @ x_star - b)
    return {"residual_ratio": float(num / den) if den > 0 else np.inf}


def _run_nystrom_pcg(A: _Square, spec, key, *,
                     mu: _Positive = 1.0, preconditioned=True,
                     rank: Annotated[_Count, _Shape(
                         _shapes.rank_fits, ("oversample",),
                         when="preconditioned")] = 10,
                     oversample: _Count0 = 5,
                     tol: _NonNegative = 1e-10, maxit: _Count = 200):
    G = _psd_from(A, spec)
    h = _rng.gaussian_stream(RngKey(spec.seed).substream(9), spec.n)
    if preconditioned:
        x, rep = leastsq.nystrom_pcg(G, mu, h, rank=rank,
                                     oversample=oversample, tol=tol,
                                     maxit=maxit, seed=key)
    else:  # plain CG baseline on the same instance
        x, rep = dk.pcg(G, mu, h, tol=tol, maxit=maxit)
    res = np.linalg.norm((G + mu * np.eye(spec.n)) @ x - h) / np.linalg.norm(h)
    return {"iters": rep.iterations, "rel_res": float(res),
            "converged": int(rep.converged)}


def _run_distortion(A, spec, key, *, d: _WideRows = None,
                    family: SketchFamily = "gaussian"):
    """Effective distortion of an oblivious sketch on range(A), plus the
    condition number of the induced preconditioned matrix."""
    S = sketching.sample_operator(family, _wide_rows(*A.shape, d=d),
                                  A.shape[0], key)
    U = lowrank.orth(A)
    rep = sketching.distortion_diagnostics(S, U)
    P = leastsq.make_precond_svd(S.apply(A), 0.0)
    return {"eff_distortion": rep.eff_distortion, "cond": rep.cond,
            "cond_am": float(np.linalg.cond(A @ P.M))}


def _run_precond_spectrum(A, spec, key, *, d: _WideRows = None,
                          family: SketchFamily = "gaussian"):
    """Worst relative deviation between sv(A M) and 1/sv(S U); infinite
    when the sketch loses rank, as ``distortion_diagnostics``' cond."""
    S = sketching.sample_operator(family, _wide_rows(*A.shape, d=d),
                                  A.shape[0], key)
    P = leastsq.make_precond_svd(S.apply(A), 0.0)
    U = lowrank.orth(A)
    if P.rank < U.shape[1]:
        return {"identity_dev": np.inf}
    sv_am = np.sort(np.linalg.svd(A @ P.M, compute_uv=False))
    sv_su = np.sort(1.0 / np.linalg.svd(S.apply(U), compute_uv=False))
    return {"identity_dev": float(np.abs(sv_am - sv_su).max() / sv_su.max())}


def _run_row_sample_embedding(
        A, spec, key, *, eps: _Fraction = 0.5, d: _Count = None,
        vectors: _Count = 50,
        dist: Literal["leverage", "uniform"] = "leverage"):
    """Two-sided norm-preservation check for row sampling driven by either
    the exact leverage distribution or the uniform one."""
    m, n = A.shape
    if d is None:
        d = max(1, int(np.ceil(n / eps ** 2 * np.log(n) * 4)))
    if dist == "leverage":
        probs = leverage.leverage_distribution(leverage.exact_leverage(A)).probs
    else:
        probs = np.full(m, 1.0 / m)
    G = _rng.gaussian_stream(RngKey(spec.seed).substream(10), n * vectors)
    ys = A @ G.reshape((n, vectors), order="F")
    norms2 = np.linalg.norm(ys, axis=0) ** 2
    S = sketching.sample_row_sampler(d, probs, key)
    vals = np.linalg.norm(S.apply(ys), axis=0) ** 2
    ok = np.all((vals >= (1 - eps) * norms2) & (vals <= (1 + eps) * norms2))
    return {"embedded": int(ok),
            "worst_ratio": float(np.max(np.abs(vals / norms2 - 1.0)))}


def _run_svd1(A, spec, key, *, k: _Count = 5, tol: _NonNegative = 0.0,
              oversample: _Count0 = 5, power_passes: _Count0 = 2):
    out = lowrank.svd1(A, k, tol=tol, s=oversample, seed=key,
                       power_passes=power_passes)
    return _lowrank_error(A, out.approximation(), spec.singular_values(), k)


def _run_qb2(A, spec, key, *, k: _Count = 5, tol: _NonNegative = 0.0,
             block_size: _Count = None, power_passes: _Count0 = 2):
    qb = lowrank.qb2(A, k, tol=tol, block_size=block_size, seed=key,
                     power_passes=power_passes)
    out = _lowrank_error(A, qb.approximation(), spec.singular_values(), k)
    out["rank"] = qb.Q.shape[1]
    return out


def _run_evd2(A: _Square, spec, key, *, k: _Rank = 5, oversample: _Count0 = 5,
              power_passes: _Count0 = 2):
    G = _psd_from(A, spec)
    out = lowrank.evd2(G, k, s=oversample, seed=key, power_passes=power_passes)
    lam = spec.singular_values()
    return {"fro_err": float(np.linalg.norm(G - out.approximation(), "fro")),
            "top_eig_rel_err": float(abs(out.lam[0] - lam[0]) / lam[0])}


def _run_osid1(A, spec, key, *, k: _Rank = 5, oversample: _Count0 = 5,
               power_passes: _Count0 = 2,
               axis: Literal["row", "column"] = "column"):
    oid = lowrank.osid1(A, k, s=oversample, axis=axis, seed=key,
                        power_passes=power_passes)
    return _lowrank_error(A, oid.approximate(A), spec.singular_values(), k)


def _run_curd1(A, spec, key, *, k: _Rank = 5, oversample: _Count0 = 5,
               power_passes: _Count0 = 2):
    cur = lowrank.curd1(A, k, s=oversample, seed=key,
                        power_passes=power_passes)
    return _lowrank_error(A, cur.approximate(A), spec.singular_values(), k)


def _run_sap_chol_qrcp(A: _Tall, spec, key, *, d: _QRRows = None,
                       family: SketchFamily = "saso"):
    res = fullrank.sap_chol_qrcp(A, d=d, seed=key, op_family=family)
    recon = np.linalg.norm(A[:, res.J] - res.Q @ res.R) / np.linalg.norm(A)
    orth_err = np.abs(res.Q.T @ res.Q - np.eye(res.rank)).max() if res.rank else 0.0
    return {"rank": res.rank, "recon": float(recon), "orth_err": float(orth_err)}


def _run_rand_chol_qr(A: _Tall, spec, key, *, d: _QRRows = None,
                      family: SketchFamily = "saso"):
    Q, R = fullrank.rand_chol_qr(A, d=d, seed=key, op_family=family)
    recon = np.linalg.norm(A - Q @ R) / np.linalg.norm(A)
    return {"recon": float(recon),
            "orth_err": float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max())}


def _run_girard_hutchinson(
        A: _Square, spec, key, *, probes: _Count = 50,
        dist: Literal[trace.PROBE_DISTRIBUTIONS] = "rademacher"):
    G = _psd_from(A, spec)
    est = trace.girard_hutchinson(G, spec.n, probes, dist, seed=key)
    return {**_trace_error(est, float(np.trace(G))),
            "sample_variance": est.sample_variance}


def _hutch_budget(value):
    _positive(value)
    if value < 6:
        raise ValueError("Hutch++ needs at least 6: a third each for its "
                         "sketch and A Q, the rest as probes")


def _run_hutch_pp(A: _Square, spec, key, *,
                  budget: Annotated[int, _hutch_budget] = 60):
    G = _psd_from(A, spec)
    return _trace_error(trace.hutch_pp(G, spec.n, budget, seed=key),
                        float(np.trace(G)))


def _run_slq(A: _Square, spec, key, *,
             f: Annotated[str, trace.parse_scalar_function] = "identity",
             probes: _Count = 30, steps: _Count = 15):
    G = _psd_from(A, spec)
    fn = trace.parse_scalar_function(f)
    est = trace.slq(G, spec.n, fn, probes, steps, seed=key)
    return _trace_error(est, float(np.sum(fn(np.linalg.eigvalsh(G)))))


def _run_exact_leverage(A, spec, key):
    scores = leverage.exact_leverage(A).scores
    return {"sum": float(scores.sum()), "max": float(scores.max()),
            "coherence": float(spec.m * scores.max())}


def _run_approx_leverage(A: _Tall, spec, key, *, d1: _TallRows = None,
                         d2: _Count = None):
    m, n = A.shape
    if d2 is None:
        d2 = max(1, int(np.ceil(8 * np.log(m))))
    approx = leverage.approx_leverage(A, _tall_rows(m, n, d1=d1), d2,
                                      seed=key).scores
    exact = leverage.exact_leverage(A).scores
    mask = exact > 1e-12
    dev = np.abs(approx[mask] / exact[mask] - 1.0).max()
    return {"max_mult_dev": float(dev)}


def _run_subspace_leverage(A, spec, key, *, k: _Rank = 5,
                           oversample: _Count0 = 5, power_passes: _Count0 = 2):
    scores = leverage.subspace_leverage(A, k, s=oversample, seed=key,
                                        power_passes=power_passes).scores
    return {"sum": float(scores.sum()), "k": k}


def _run_bootstrap_ls(A: _Tall, spec, key, *, d: _TallRows = None,
                      family: SketchFamily = "gaussian", B: _Count = 100,
                      alpha: _Fraction = 0.1,
                      norm: Literal["l2", "linf"] = "l2"):
    b = _lstsq_data(A, RngKey(spec.seed).substream(7))
    x_hat, A_hat, b_hat = leastsq.sketch_and_solve_ols(
        A, b, _tall_rows(*A.shape, d=d), seed=key, op_family=family)
    res = errorest.bootstrap_ls(A_hat, b_hat, x_hat, B=B, alpha=alpha,
                                norm=norm, seed=key.substream(500))
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    actual = float(np.linalg.norm(x_hat - x_star))
    return {"quantile": res.quantile_estimate, "actual_err": actual,
            "covered": int(actual <= res.quantile_estimate)}


def _run_bootstrap_svd(A, spec, key, *, d: _WideRows = None,
                       k: Annotated[_Count, _Shape(partial(
                           _shapes.rank_fits, dims="d, n"), rows="d")] = 3,
                       family: SketchFamily = "gaussian", B: _Count = 100,
                       alpha: _Fraction = 0.1):
    d = _wide_rows(*A.shape, d=d)
    S = sketching.sample_operator(family, d, A.shape[0], key)
    A_hat = S.apply(A) / np.sqrt(d)
    q_sig, q_v = errorest.bootstrap_svd(A_hat, k, B=B, alpha=alpha,
                                        seed=key.substream(500))
    sig_true = np.linalg.svd(A, compute_uv=False)[:k]
    sig_hat = np.linalg.svd(A_hat, compute_uv=False)[:k]
    actual = float(np.abs(sig_hat - sig_true).max())
    return {"q_sigma": q_sig.quantile_estimate, "q_v": q_v.quantile_estimate,
            "actual_sigma_err": actual,
            "covered": int(actual <= q_sig.quantile_estimate)}


# CLI family -> its drivers, each named by its adapter ``_run_<driver>``;
# the first driver of a family is its default.
FAMILIES = {family: {run.__name__.removeprefix("_run_"): run for run in runs}
            for family, runs in [
    ("lstsq", (_run_spo1, _run_sps2, _run_sketch_and_solve, _run_nystrom_pcg,
               _run_distortion, _run_precond_spectrum)),
    ("lowrank", (_run_svd1, _run_qb2, _run_evd2, _run_osid1, _run_curd1)),
    ("qrcp", (_run_sap_chol_qrcp, _run_rand_chol_qr)),
    ("trace", (_run_girard_hutchinson, _run_hutch_pp, _run_slq)),
    ("leverage", (_run_approx_leverage, _run_exact_leverage,
                  _run_subspace_leverage, _run_row_sample_embedding)),
    ("bootstrap", (_run_bootstrap_ls, _run_bootstrap_svd))]}
DRIVERS = {name: run for drivers in FAMILIES.values()
           for name, run in drivers.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """One driver, its parameters, a matrix spec, and a trial count."""

    driver: str
    matrix: MatrixSpec
    params: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        """Apply the ``_Shape`` checks in the driver's annotations."""
        run, n = DRIVERS[self.driver], self.matrix.n
        given = {k: p.default for k, p in schema(run).items()} | self.params
        rows = {"m": self.matrix.m}
        for name, p in inspect.signature(run, eval_str=True).parameters.items():
            for rule in getattr(p.annotation, "__metadata__", ()):
                if isinstance(rule, _Shape) and given.get(rule.when, True):
                    named = {k: given[k] for k in (name, *rule.also)
                             if k in given}
                    try:
                        rows[name] = rule.check(rows[rule.rows], n, **named)
                    except ValueError as err:
                        at = f" param {name!r}:" if named else ""
                        raise ConfigError(f"{self.driver}{at} {err}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, [f.name for f in fields(cls)], "experiment config")
        driver = _coerce(d.get("driver"), str, "'driver'",
                         Literal[tuple(DRIVERS)])
        trials = _coerce(d.get("trials", 1), int, "'trials'")
        if trials < 0:
            raise ConfigError("trials must be nonnegative")
        return cls(driver, MatrixSpec.from_dict(d.get("matrix")),
                   _bind(DRIVERS[driver], d.get("params", {}), driver), trials,
                   _coerce(d.get("seed", 0), parse_seed_token, "'seed'"),
                   _coerce(d.get("out", ""), str, "'out'") or None)


_BASE_COLUMNS = ["trial", "seed_key", "seed_offset", "status", "wall_ms",
                 "seed_version"]


def _run_trial(config: ExperimentConfig, A, trial: int):
    key = RngKey(config.seed).substream(trial)
    row = {"trial": trial, "seed_key": key.key,
           "seed_offset": key.counter_offset, "seed_version": key.version}
    start = time.perf_counter()
    try:
        metrics = DRIVERS[config.driver](A, config.matrix, key,
                                         **config.params)
        row.update(status="ok", **metrics)
    except Exception as err:  # recorded per trial; exit code decided later
        frame = inspect.trace(0)[-1].frame
        row.update(status=f"error: {err}", error_type=type(err).__name__,
                   error_where=f"{frame.f_globals.get('__name__')}."
                               f"{frame.f_code.co_name}")
    row["wall_ms"] = 1000.0 * (time.perf_counter() - start)
    return row


def _quantiles(vals, qs) -> np.ndarray:
    """``np.quantile`` of ``vals`` at ``qs`` (linear interpolation), with an
    infinity where numpy gives NaN only because of one.  numpy interpolates
    towards the next order statistic even at zero weight, so an infinite
    neighbour reads NaN; the quantile is then the order statistic it sits
    on, or the infinity it lies next to."""
    v = np.sort(np.asarray(vals, dtype=float))
    with np.errstate(invalid="ignore"):
        q = np.quantile(v, qs)
    if np.isnan(v).any():
        return q
    pos = (len(v) - 1) * np.asarray(qs)
    lo, hi = v[np.floor(pos).astype(int)], v[np.ceil(pos).astype(int)]
    at = np.where(lo == hi, lo, np.where(np.isposinf(hi), hi, lo))
    return np.where(np.isnan(q), at, q)


def run_experiment(config: ExperimentConfig, parallel: int = 1):
    """Run all trials; write CSV rows and a JSON summary when ``config.out``
    is set.  Returns (rows, summary).  ``parallel`` is the number of
    threads that run trials; it must be at least 1."""
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel!r}")
    A = gen_matrix(config.matrix)
    trials = range(config.trials)
    if parallel > 1 and config.trials > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(lambda t: _run_trial(config, A, t), trials))
    else:
        rows = [_run_trial(config, A, t) for t in trials]
    columns = list(dict.fromkeys(_BASE_COLUMNS + [k for r in rows for k in r]))

    summary = {
        "config": {k: v for k, v in asdict(config).items() if k != "out"},
        "seed_version": RngKey(config.seed).version,
        "completed": sum(r["status"] == "ok" for r in rows),
        "failed": sum(r["status"] != "ok" for r in rows),
        "metrics": {},
    }
    for col in columns:
        if col in _BASE_COLUMNS:
            continue
        vals = [r[col] for r in rows
                if r.get("status") == "ok" and isinstance(r.get(col), (int, float))]
        if vals:
            q10, med, q90 = _quantiles(vals, [0.1, 0.5, 0.9])
            summary["metrics"][col] = {"median": float(med), "q10": float(q10),
                                       "q90": float(q90)}

    if config.out:
        write_report(config.out, rows, columns, summary)
    return rows, summary


def write_report(out_base: str, rows, columns, summary):
    """Write ``<out_base>.csv`` (one row per trial) and ``<out_base>.json``."""
    if out_base.endswith(".csv") or out_base.endswith(".json"):
        out_base = out_base.rsplit(".", 1)[0]
    with open(out_base + ".csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})
    with open(out_base + ".json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
