import csv
import json

import numpy as np
import pytest

from randla import bench, fullrank, leverage, rng
from randla.bench import ConfigError, ExperimentConfig, MatrixSpec


def test_step_spectrum_values():
    spec = MatrixSpec(50, 10, {"kind": "step", "r": 3, "gap": 100.0}, seed=1)
    A = bench.gen_matrix(spec)
    sv = np.linalg.svd(A, compute_uv=False)
    assert np.abs(sv - np.array([100.0] * 3 + [1.0] * 7)).max() <= 1e-10 * 100


def test_spectra_realized_exactly():
    for spectrum in ({"kind": "flat"}, {"kind": "power", "decay": 1.5},
                     {"kind": "exp", "decay": 0.4}):
        spec = MatrixSpec(40, 12, spectrum, seed=2)
        A = bench.gen_matrix(spec)
        sv = np.linalg.svd(A, compute_uv=False)
        expected = np.sort(spec.singular_values())[::-1]
        assert np.abs(sv - expected).max() <= 1e-10 * expected[0]


@pytest.mark.parametrize("spectrum", [
    {"kind": "power", "decay": -1.0}, {"kind": "step", "r": 2, "gap": 0.1},
    {"kind": "exp", "decay": -0.1}], ids=json.dumps)
def test_increasing_spectra_are_sorted_for_eckart_young(spectrum):
    # these kinds list their values increasing; the rank-k optimum is the
    # tail after the k largest, so no rank-k approximation can beat it
    spec = MatrixSpec(60, 30, spectrum, seed=2)
    sig = spec.singular_values()
    assert np.all(np.diff(sig) <= 0)
    sv = np.linalg.svd(bench.gen_matrix(spec), compute_uv=False)
    assert np.abs(sv - sig).max() <= 1e-10 * sig[0]
    for driver in ("svd1", "osid1", "curd1"):
        cfg = ExperimentConfig.from_dict({
            "driver": driver, "matrix": {"m": 60, "n": 30,
                                         "spectrum": spectrum, "seed": 2}})
        rows, _ = bench.run_experiment(cfg)
        assert rows[0]["err_over_opt"] >= 1.0 - 1e-12, (driver, rows[0])


@pytest.mark.parametrize("driver, params", [
    ("svd1", {"k": 3, "tol": 1e-3}), ("qb2", {"k": 8, "block_size": 8}),
    ("qb2", {"k": 8, "tol": 1e-3})], ids=json.dumps)
def test_small_matrix_blocks_run_within_the_rank_budget(driver, params):
    # blocks wider than n = 5 used to ask for a Gaussian wider than the
    # matrix and fail every trial
    cfg = ExperimentConfig.from_dict({
        "driver": driver, "matrix": {"m": 20, "n": 5}, "params": params,
        "trials": 2})
    rows, summary = bench.run_experiment(cfg)
    assert summary["failed"] == 0
    if driver == "qb2":
        assert all(r["rank"] <= 5 for r in rows)


def test_incoherent_matrix_has_flat_leverage():
    hits = 0
    for seed in range(20):
        spec = MatrixSpec(1000, 10, seed=seed)
        A = bench.gen_matrix(spec)
        hits += leverage.exact_leverage(A).scores.max() <= 5 * 10 / 1000
    assert hits >= 19


def test_spiked_matrix_is_coherent():
    spec = MatrixSpec(500, 8, {"kind": "step", "r": 1, "gap": 10.0},
                      {"kind": "spiked", "rows": 1, "weight": 100.0}, seed=3)
    A = bench.gen_matrix(spec)
    scores = leverage.exact_leverage(A).scores
    assert scores[0] >= 0.9
    sv = np.linalg.svd(A, compute_uv=False)
    assert np.isclose(sv[0], 10.0)


def test_gen_matrix_deterministic():
    spec = MatrixSpec(30, 6, {"kind": "flat"}, seed=4)
    assert np.array_equal(bench.gen_matrix(spec), bench.gen_matrix(spec))


def test_infeasible_spec_rejected():
    with pytest.raises(ConfigError):
        MatrixSpec.from_dict({"m": 10, "n": 5,
                              "spectrum": {"kind": "step", "r": 7}})
    with pytest.raises(ConfigError):
        MatrixSpec.from_dict({"m": 0, "n": 5})
    with pytest.raises(ConfigError):
        MatrixSpec.from_dict({"m": 10, "n": 5, "spectrum": {"kind": "zipf"}})


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"driver": "nope",
                                    "matrix": {"m": 10, "n": 2}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"driver": "spo1"})
    cfg = ExperimentConfig.from_dict(
        {"driver": "spo1", "matrix": {"m": 40, "n": 4}, "seed": "0x10"})
    assert cfg.seed == 16


def test_zero_trials_empty_csv(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "driver": "spo1", "matrix": {"m": 40, "n": 4}, "trials": 0,
        "out": str(tmp_path / "empty")})
    rows, summary = bench.run_experiment(cfg)
    assert rows == []
    with open(tmp_path / "empty.csv") as f:
        lines = f.read().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("trial,seed_key,seed_offset,status,wall_ms")
    assert summary["completed"] == 0 and summary["failed"] == 0


def test_rows_and_summary_record_seed_version(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "driver": "spo1", "matrix": {"m": 40, "n": 4}, "trials": 2,
        "out": str(tmp_path / "v")})
    rows, summary = bench.run_experiment(cfg)
    assert [r["seed_version"] for r in rows] == [2, 2]
    assert summary["seed_version"] == 2
    assert json.loads((tmp_path / "v.json").read_text())["seed_version"] == 2
    got = list(csv.DictReader((tmp_path / "v.csv").open()))
    assert [r["seed_version"] for r in got] == ["2", "2"]


def test_infinite_metrics_summarize_as_inf_not_nan():
    # d = 5 < n = 10: every sketch is rank-deficient and cond is inf in every
    # trial; the summary used to read NaN
    cfg = ExperimentConfig.from_dict({
        "driver": "distortion", "matrix": {"m": 40, "n": 10},
        "params": {"d": 5}, "trials": 3})
    rows, summary = bench.run_experiment(cfg)
    assert all(r["cond"] == np.inf for r in rows)
    assert summary["metrics"]["cond"] == {"median": np.inf, "q10": np.inf,
                                          "q90": np.inf}
    qs = [0.1, 0.5, 0.9]
    # a quantile next to an infinity is that infinity (numpy's reads NaN);
    # the others are np.quantile's
    with np.errstate(invalid="ignore"):
        for vals, expected in (
                ([1.0, 2.0, np.inf], [np.quantile([1.0, 2.0], 0.2), 2.0,
                                      np.inf]),
                ([-np.inf, 1.0, 2.0], [-np.inf, 1.0,
                                       np.quantile([1.0, 2.0], 0.8)])):
            assert np.isnan(np.quantile(vals, qs)).any()
            assert np.array_equal(bench._quantiles(vals, qs), expected)
    # finite summaries stay bitwise np.quantile's
    values = np.random.default_rng(3).standard_normal((20, 7)) * 1e3
    for vals in values:
        assert np.quantile(vals, qs).tobytes() == (
            bench._quantiles(list(vals), qs).tobytes())
    assert np.array_equal(bench._quantiles([4, 1, 3], qs),
                          np.quantile([4, 1, 3], qs))


def test_a_nan_metric_summarizes_as_nan():
    assert np.isnan(bench._quantiles([1.0, np.nan, 3.0], [0.1, 0.5, 0.9])).all()


def test_row_sample_embedding_uniform_dist_misses_a_heavy_row():
    # row 0 alone carries column 0: leverage sampling keeps it, 20 uniform
    # draws of 400 rows miss it and lose that column's share of every norm
    m = 400
    A = np.zeros((m, 2))
    A[0, 0], A[1:, 1] = 1.0, 1 / np.sqrt(m - 1)
    spec, key = MatrixSpec(m, 2, seed=0), rng.RngKey(0)
    uniform = bench._run_row_sample_embedding(A, spec, key, d=20,
                                              dist="uniform")
    lev = bench._run_row_sample_embedding(A, spec, key, d=20)
    assert uniform["embedded"] == 0 and uniform["worst_ratio"] > 0.9
    assert lev["embedded"] == 1 and lev["worst_ratio"] < 1e-12


@pytest.mark.parametrize("parallel", [0, -3])
def test_parallel_below_one_raises(parallel, tmp_path):
    # the CLI rejects such --parallel values at parsing; the library call
    # used to run the trials serially and return normally
    cfg = ExperimentConfig.from_dict({
        "driver": "spo1", "matrix": {"m": 40, "n": 4}, "trials": 2,
        "out": str(tmp_path / "spo1")})
    with pytest.raises(ValueError, match="parallel must be at least 1"):
        bench.run_experiment(cfg, parallel=parallel)
    assert not (tmp_path / "spo1.csv").exists()


def test_spo1_experiment_schema(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "driver": "spo1",
        "matrix": {"m": 300, "n": 10,
                   "spectrum": {"kind": "step", "r": 2, "gap": 50}},
        "trials": 3, "out": str(tmp_path / "spo1")})
    rows, summary = bench.run_experiment(cfg)
    with open(tmp_path / "spo1.csv") as f:
        reader = csv.DictReader(f)
        got = list(reader)
    assert {"trial", "iters", "rel_nres", "wall_ms"} <= set(got[0])
    assert len(got) == 3
    assert all(r["status"] == "ok" for r in got)
    with open(tmp_path / "spo1.json") as f:
        js = json.load(f)
    assert js["config"]["params"] == {}
    assert "rel_nres" in js["metrics"]


def test_rerun_reproducible(tmp_path):
    base = {
        "driver": "svd1",
        "matrix": {"m": 120, "n": 40,
                   "spectrum": {"kind": "exp", "decay": 0.3}, "seed": 7},
        "params": {"k": 5}, "trials": 4, "seed": 9}
    out1 = dict(base, out=str(tmp_path / "a"))
    out2 = dict(base, out=str(tmp_path / "b"))
    bench.run_experiment(ExperimentConfig.from_dict(out1))
    bench.run_experiment(ExperimentConfig.from_dict(out2), parallel=4)
    rows1 = list(csv.DictReader(open(tmp_path / "a.csv")))
    rows2 = list(csv.DictReader(open(tmp_path / "b.csv")))
    for r1, r2 in zip(rows1, rows2):
        for key in r1:
            if key != "wall_ms":
                assert r1[key] == r2[key]


def test_all_drivers_run_one_trial():
    matrix = {"m": 80, "n": 24, "spectrum": {"kind": "exp", "decay": 0.3},
              "seed": 3}
    square = {"m": 48, "n": 48, "spectrum": {"kind": "exp", "decay": 0.3},
              "seed": 3}
    needs_square = {"nystrom_pcg", "evd2", "girard_hutchinson", "hutch_pp",
                    "slq"}
    shared = {"k": 4, "rank": 4, "budget": 12, "probes": 6, "steps": 4,
              "B": 10}
    for driver in bench.DRIVERS:
        accepted = bench.schema(bench.DRIVERS[driver])
        cfg = ExperimentConfig.from_dict({
            "driver": driver,
            "matrix": square if driver in needs_square else matrix,
            "params": {k: v for k, v in shared.items() if k in accepted},
            "trials": 1, "seed": 1})
        rows, summary = bench.run_experiment(cfg)
        assert summary["completed"] == 1, (driver, rows[0]["status"])


# Every singular value 0: the zero matrix under any seed and stream version,
# so every sketch's R is zero and rand_chol_qr raises on every draw (a wide
# spec no longer loads for it)
RANK_DEFICIENT = {"m": 40, "n": 10,
                  "spectrum": {"kind": "step", "r": 10, "gap": 0.0}}


@pytest.mark.parametrize("version", rng.VERSIONS)
def test_rank_deficient_fixture_fails_on_every_draw(version):
    for seed in range(200):
        spec = MatrixSpec.from_dict({**RANK_DEFICIENT, "seed": seed})
        A = bench.gen_matrix(spec)
        assert A.shape == (40, 10) and not A.any()
        with pytest.raises(np.linalg.LinAlgError, match="sketch lost rank"):
            fullrank.rand_chol_qr(A, seed=rng.RngKey(seed, 0, version))


def test_driver_failure_recorded():
    cfg = ExperimentConfig.from_dict({
        "driver": "rand_chol_qr", "matrix": RANK_DEFICIENT,
        "trials": 2, "seed": 1})
    rows, summary = bench.run_experiment(cfg)
    assert summary["completed"] == 0 and summary["failed"] == 2
    assert all(r["status"].startswith("error") for r in rows)


def test_failed_trial_records_error_type_and_place(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "driver": "rand_chol_qr", "matrix": RANK_DEFICIENT,
        "trials": 1, "seed": 1, "out": str(tmp_path / "fail")})
    rows, _ = bench.run_experiment(cfg)
    assert rows[0]["status"].startswith("error: sketch lost rank")
    assert rows[0]["error_type"] == "LinAlgError"
    assert rows[0]["error_where"] == "randla.fullrank.rand_chol_qr"
    got = list(csv.DictReader(open(tmp_path / "fail.csv")))
    assert got[0]["error_where"] == "randla.fullrank.rand_chol_qr"


def test_params_and_spec_fields_coerced_at_load():
    cfg = ExperimentConfig.from_dict({
        "driver": "sketch_and_solve",
        "matrix": {"m": "40", "n": 4.0,
                   "spectrum": {"kind": "step", "r": 2.0, "gap": 5}},
        "params": {"d": 12.0, "family": "saso"},
        "trials": 3.0})
    assert cfg.params == {"d": 12, "family": "saso"}
    assert type(cfg.params["d"]) is int
    assert (cfg.matrix.m, cfg.matrix.n, cfg.trials) == (40, 4, 3)
    assert cfg.matrix.spectrum == {"kind": "step", "r": 2, "gap": 5.0}
    assert type(cfg.matrix.spectrum["r"]) is int
    pcg = ExperimentConfig.from_dict({
        "driver": "nystrom_pcg", "matrix": {"m": 16, "n": 16},
        "params": {"preconditioned": 1}})
    assert pcg.params["preconditioned"] is True


def test_unknown_param_error_lists_accepted_names():
    with pytest.raises(ConfigError, match="tolerance.*accepted: tol, maxit, "
                                          "sampling_factor, family"):
        ExperimentConfig.from_dict({"driver": "spo1",
                                    "matrix": {"m": 40, "n": 4},
                                    "params": {"tolerance": 1e-8}})
