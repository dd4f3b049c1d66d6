"""The benchmark's three workloads: inputs, driver calls, LAPACK references
and the accuracy check of every driver call.

Inputs are a pure function of ``(workload, seed, size)``.  The library only
ever receives the generated matrices and the per-call ``RngKey``s; the
benchmark's own randomness (right-hand sides, psd eigenbases) comes from
numpy's ``default_rng`` seeded from the same workload seed.

Every op's accuracy tolerance leaves room over the worst value seen on the
seeds tried while defining the benchmark: at least 10x for residuals of
iterative solves and 1.14x for ratios to the Eckart-Young optimum.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from randla import (bench, errorest, fullrank, leastsq, leverage, lowrank,
                    sketching, trace)
from randla.rng import RngKey

# Library calls made by one pass are keyed base.substream(pass * KEYS_PER_PASS
# + i); no workload makes more calls than this per pass.
KEYS_PER_PASS = 16


def derive(workload: str, seed: int, label: str) -> int:
    """A 63-bit integer fixed by (workload, seed, label)."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{label}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Keys:
    """Hands out a fresh public ``RngKey`` for every library call of a pass,
    the way a user keys independent calls: one substream index per call."""

    def __init__(self, base: RngKey, pass_index: int):
        self._base = base
        self._next = pass_index * KEYS_PER_PASS
        self._stop = self._next + KEYS_PER_PASS

    def __call__(self) -> RngKey:
        if self._next >= self._stop:
            raise RuntimeError("a pass asked for more than KEYS_PER_PASS keys")
        key = self._base.substream(self._next)
        self._next += 1
        return key


class CountingOperator:
    """Matrix-vector product callable that counts its calls (trace.matvecs)."""

    def __init__(self, M: np.ndarray):
        self.M = M
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.M @ v


@dataclass(frozen=True)
class Op:
    """One driver call.  ``module`` names the driver module whose
    ``<module>_s`` metric the call's time counts toward; the call passes its
    check when ``check(inputs, output) <= tol``."""

    name: str
    module: str
    call: Callable
    check: Callable
    tol: float


@dataclass(frozen=True)
class Ref:
    """A LAPACK call that answers the problems of the ops named in
    ``matches``."""

    name: str
    matches: tuple
    call: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # "full" and "smoke" size dictionaries
    make_inputs: Callable  # (seed, size) -> (inputs, seconds in gen_matrix)
    ops: tuple
    refs: tuple


def _gen_matrix(spec: bench.MatrixSpec):
    t0 = time.perf_counter()
    A = bench.gen_matrix(spec)
    return A, time.perf_counter() - t0


def _psd(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    n = lam.size
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    G = (V * lam) @ V.T
    return 0.5 * (G + G.T)


def _over_optimum(matrix: str, rank: str):
    """Check: Frobenius error of ``out`` as an approximation of
    ``inp[matrix]``, over the Eckart-Young optimum of rank ``inp[rank]``."""
    def check(inp, out):
        M, k = inp[matrix], inp[rank]
        approx = (out.approximation() if hasattr(out, "approximation")
                  else out.approximate(M))
        return float(np.linalg.norm(M - approx)
                     / np.sqrt(np.sum(inp["sig"][k:] ** 2)))
    return check


def _qr_error(A, Q, R) -> float:
    recon = np.linalg.norm(A - Q @ R) / np.linalg.norm(A)
    orth = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
    return float(max(recon, orth))


# ---------------------------------------------------------------------------
# tall_skinny: the paper's headline regime, sketch-and-precondition vs LAPACK
# ---------------------------------------------------------------------------

def _tall_inputs(seed: int, size: dict):
    m, n = size["m"], size["n"]
    spec = bench.MatrixSpec(
        m, n, {"kind": "exp", "decay": float(np.log(1e6) / (n - 1))},
        {"kind": "incoherent"}, seed=derive("tall_skinny", seed, "A"))
    A, gen_s = _gen_matrix(spec)
    Q = np.linalg.qr(A)[0]
    rng = np.random.default_rng(derive("tall_skinny", seed, "b"))
    x = rng.standard_normal(n)
    w = rng.standard_normal(m)
    w -= Q @ (Q.T @ w)
    # sigma_1 = 1, so the planted part and the residual both have norm <= 1
    b = A @ (x / np.linalg.norm(x)) + w / np.linalg.norm(w)
    inputs = {"A": A, "b": b, "leverage": np.sum(Q * Q, axis=1),
              "sig": spec.singular_values(), "d2": size["d2"]}
    return inputs, gen_s


def _normal_eq_residual(inp, x, mu=0.0) -> float:
    A, b = inp["A"], inp["b"]
    Atb = A.T @ b
    return float(np.linalg.norm(A.T @ (A @ x) + mu * x - Atb) / np.linalg.norm(Atb))


def _leverage_deviation(inp, scores) -> float:
    exact = inp["leverage"]
    return float(np.abs(scores.scores / exact - 1.0).max())


def _pivoted_error(inp, res) -> float:
    if res.rank != inp["A"].shape[1]:
        return np.inf
    return _qr_error(inp["A"][:, res.J], res.Q, res.R)


SPS2_MU = 1e-3

TALL_SKINNY = Workload(
    "tall_skinny",
    {"full": {"m": 100000, "n": 100, "d2": 93},
     "smoke": {"m": 4000, "n": 50, "d2": 67}},
    _tall_inputs,
    (
        Op("spo1", "leastsq",
           lambda inp, keys: leastsq.spo1(inp["A"], inp["b"], tol=1e-11,
                                          seed=keys(), op_family="saso"),
           lambda inp, out: _normal_eq_residual(inp, out[0]), 1e-9),
        Op("sps2", "leastsq",
           lambda inp, keys: leastsq.sps2(
               leastsq.SaddleProblem(inp["A"], inp["b"], None, SPS2_MU),
               tol=1e-11, seed=keys(), op_family="saso"),
           lambda inp, out: _normal_eq_residual(inp, out.x, SPS2_MU), 1e-9),
        Op("rand_chol_qr", "fullrank",
           lambda inp, keys: fullrank.rand_chol_qr(inp["A"], seed=keys()),
           lambda inp, out: _qr_error(inp["A"], *out), 1e-12),
        Op("sap_chol_qrcp", "fullrank",
           lambda inp, keys: fullrank.sap_chol_qrcp(inp["A"], seed=keys()),
           _pivoted_error, 1e-12),
        Op("approx_leverage", "leverage",
           lambda inp, keys: leverage.approx_leverage(
               inp["A"], 4 * inp["A"].shape[1], inp["d2"], seed=keys()),
           _leverage_deviation, 3.0),
    ),
    (
        Ref("lstsq", ("spo1",),
            lambda inp: np.linalg.lstsq(inp["A"], inp["b"], rcond=None)),
        Ref("qr", ("rand_chol_qr",), lambda inp: np.linalg.qr(inp["A"])),
        Ref("qrcp", ("sap_chol_qrcp",),
            lambda inp: scipy.linalg.qr(inp["A"], mode="economic",
                                        pivoting=True)),
        Ref("qr_leverage", ("approx_leverage",),
            lambda inp: np.sum(np.linalg.qr(inp["A"])[0] ** 2, axis=1)),
    ),
)


# ---------------------------------------------------------------------------
# square_lowrank: BLAS-3 passes and small dense factorizations; the sketch
# layers draw only n-by-k Gaussians here
# ---------------------------------------------------------------------------

def _square_inputs(seed: int, size: dict):
    m, n = size["m"], size["n"]
    spec = bench.MatrixSpec(m, n, {"kind": "power", "decay": 1.0},
                            {"kind": "incoherent"},
                            seed=derive("square_lowrank", seed, "A"))
    A, gen_s = _gen_matrix(spec)
    sig = spec.singular_values()
    rng = np.random.default_rng(derive("square_lowrank", seed, "G"))
    G = _psd(rng, sig)
    inputs = {"A": A, "sig": sig, "G": G, "h": rng.standard_normal(n),
              "k": size["k"], "k_qb": size["k_qb"]}
    return inputs, gen_s


PCG_MU = 1e-3


def _pcg_residual(inp, out) -> float:
    G, h = inp["G"], inp["h"]
    x = out[0]
    return float(np.linalg.norm(G @ x + PCG_MU * x - h) / np.linalg.norm(h))


SQUARE_LOWRANK = Workload(
    "square_lowrank",
    {"full": {"m": 4000, "n": 2000, "k": 50, "k_qb": 150},
     "smoke": {"m": 400, "n": 200, "k": 10, "k_qb": 30}},
    _square_inputs,
    (
        Op("svd1", "lowrank",
           lambda inp, keys: lowrank.svd1(inp["A"], inp["k"], seed=keys()),
           _over_optimum("A", "k"), 1.2),
        Op("qb2", "lowrank",
           lambda inp, keys: lowrank.qb2(inp["A"], inp["k_qb"], block_size=10,
                                         seed=keys()),
           _over_optimum("A", "k_qb"), 1.2),
        Op("evd2", "lowrank",
           lambda inp, keys: lowrank.evd2(inp["G"], inp["k"], seed=keys()),
           _over_optimum("G", "k"), 1.2),
        Op("nystrom_pcg", "leastsq",
           lambda inp, keys: leastsq.nystrom_pcg(inp["G"], PCG_MU, inp["h"],
                                                 rank=inp["k"], seed=keys()),
           _pcg_residual, 1e-9),
        Op("osid1", "lowrank",
           lambda inp, keys: lowrank.osid1(inp["A"], inp["k"], seed=keys()),
           _over_optimum("A", "k"), 3.0),
        Op("curd1", "lowrank",
           lambda inp, keys: lowrank.curd1(inp["A"], inp["k"], seed=keys()),
           _over_optimum("A", "k"), 4.0),
    ),
    (
        # the SVD gives the optimal rank-k factors that svd1 and qb2
        # approximate; eigh gives the eigenpairs and the shifted solve
        Ref("svd", ("svd1", "qb2"),
            lambda inp: np.linalg.svd(inp["A"], full_matrices=False)),
        Ref("eigh", ("evd2", "nystrom_pcg"),
            lambda inp: np.linalg.eigh(inp["G"])),
    ),
)


# ---------------------------------------------------------------------------
# many_probes: ~1000 short rng streams per pass next to two dense Gaussian
# sketches; Lanczos and the bootstrap loops take most of the rest
# ---------------------------------------------------------------------------

def _many_inputs(seed: int, size: dict):
    n, m, p = size["n"], size["m"], size["p"]
    rng = np.random.default_rng(derive("many_probes", seed, "G"))
    lam = 1.0 / np.arange(1, n + 1)
    G = _psd(rng, lam)
    spec = bench.MatrixSpec(m, p, {"kind": "power", "decay": 1.0},
                            {"kind": "spiked", "rows": 5, "weight": 100.0},
                            seed=derive("many_probes", seed, "A"))
    A, gen_s = _gen_matrix(spec)
    x = rng.standard_normal(p)
    y = A @ x + 0.1 * rng.standard_normal(m)
    inputs = {"G": G, "trace": float(lam.sum()),
              "trace_log1p": float(np.log1p(lam).sum()), "A": A, "y": y,
              "d": size["d"], "probes": size["probes"]}
    return inputs, gen_s


def _counted(method):
    """Run a trace estimator on a fresh counting operator; the output keeps
    the number of products it made."""
    def call(inp, keys):
        op = CountingOperator(inp["G"])
        return method(inp, op, keys()), op.calls
    return call


def _trace_error(truth: str):
    def check(inp, out):
        return abs(out[0].value - inp[truth]) / inp[truth]
    return check


def _bootstrap_ls(inp, keys):
    x_hat, A_sk, b_sk = leastsq.sketch_and_solve_ols(
        inp["A"], inp["y"], inp["d"], seed=keys(), op_family="gaussian")
    return errorest.bootstrap_ls(A_sk, b_sk, x_hat, B=200, seed=keys())


def _bootstrap_svd(inp, keys):
    d = inp["d"]
    S = sketching.sample_dense("gaussian", d, inp["A"].shape[0], keys())
    A_hat = S.apply(inp["A"]) / np.sqrt(d)
    return errorest.bootstrap_svd(A_hat, 5, B=100, seed=keys())


def _bad_quantiles(*results) -> float:
    """Number of bootstrap quantiles that are not finite and positive."""
    q = np.array([r.quantile_estimate for r in results])
    return float(np.sum(~(np.isfinite(q) & (q > 0))))


# The estimator tolerances are at least six standard deviations of each
# estimate (Rademacher probes on the known spectrum).
MANY_PROBES = Workload(
    "many_probes",
    {"full": {"n": 2000, "m": 30000, "p": 50, "d": 200, "probes": 200},
     "smoke": {"n": 200, "m": 3000, "p": 20, "d": 80, "probes": 200}},
    _many_inputs,
    (
        Op("girard_hutchinson", "trace",
           _counted(lambda inp, op, key: trace.girard_hutchinson(
               op, op.M.shape[0], inp["probes"], seed=key)),
           _trace_error("trace"), 0.1),
        Op("hutch_pp", "trace",
           _counted(lambda inp, op, key: trace.hutch_pp(
               op, op.M.shape[0], 3 * inp["probes"] // 2, seed=key)),
           _trace_error("trace"), 0.05),
        Op("slq", "trace",
           _counted(lambda inp, op, key: trace.slq(
               op, op.M.shape[0], np.log1p, inp["probes"] // 4, 30,
               seed=key)),
           _trace_error("trace_log1p"), 0.15),
        Op("bootstrap_ls", "errorest", _bootstrap_ls,
           lambda inp, out: _bad_quantiles(out), 0.0),
        Op("bootstrap_svd", "errorest", _bootstrap_svd,
           lambda inp, out: _bad_quantiles(*out), 0.0),
    ),
    (
        Ref("eigvalsh", ("slq",),
            lambda inp: np.sum(np.log1p(np.linalg.eigvalsh(inp["G"])))),
    ),
)

WORKLOADS = {w.name: w for w in (TALL_SKINNY, SQUARE_LOWRANK, MANY_PROBES)}
