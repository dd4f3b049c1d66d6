import csv
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from randla import bench, cli


def write_config(path, data):
    with open(path, "w") as f:
        json.dump(data, f)
    return str(path)


@pytest.fixture
def lstsq_config(tmp_path):
    return write_config(tmp_path / "cfg.json", {
        "matrix": {"m": 200, "n": 8,
                   "spectrum": {"kind": "step", "r": 2, "gap": 30},
                   "seed": 5},
        "params": {"tol": 1e-10, "maxit": 40},
        "trials": 2,
        "seed": 11,
    })


def test_gen_subcommand(tmp_path):
    cfg = write_config(tmp_path / "gen.json", {
        "matrix": {"m": 30, "n": 6, "spectrum": {"kind": "flat"}, "seed": 2}})
    out = str(tmp_path / "A.mtx")
    assert cli.main(["gen", "--config", cfg, "--out", out]) == 0
    A = np.asarray(scipy.io.mmread(out))
    assert A.shape == (30, 6)
    assert np.allclose(np.linalg.svd(A, compute_uv=False), 1.0)


def test_gen_seed_override(tmp_path):
    cfg = write_config(tmp_path / "gen.json", {
        "matrix": {"m": 10, "n": 3, "seed": 2}})
    out1, out2 = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    cli.main(["gen", "--config", cfg, "--out", out1, "--seed", "0x7"])
    cli.main(["gen", "--config", cfg, "--out", out2, "--seed", "7"])
    assert np.array_equal(np.asarray(scipy.io.mmread(out1)),
                          np.asarray(scipy.io.mmread(out2)))


def test_lstsq_subcommand_runs(tmp_path, lstsq_config, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["lstsq", "--config", lstsq_config, "--out", out]) == 0
    rows = list(csv.DictReader(open(out + ".csv")))
    assert len(rows) == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["driver"] == "spo1"


def test_family_driver_restriction(tmp_path, lstsq_config):
    code = cli.main(["trace", "--config", lstsq_config, "--driver", "spo1"])
    assert code == 2


def test_run_requires_driver(tmp_path, lstsq_config):
    assert cli.main(["run", "--config", lstsq_config]) == 2


def test_reproducible_rerun(tmp_path, lstsq_config):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cli.main(["lstsq", "--config", lstsq_config, "--out", out1])
    cli.main(["lstsq", "--config", lstsq_config, "--out", out2,
              "--parallel", "2"])
    rows1 = list(csv.DictReader(open(out1 + ".csv")))
    rows2 = list(csv.DictReader(open(out2 + ".csv")))
    for r1, r2 in zip(rows1, rows2):
        assert {k: v for k, v in r1.items() if k != "wall_ms"} == \
               {k: v for k, v in r2.items() if k != "wall_ms"}


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_parallel_below_one_exits_2(lstsq_config, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lstsq", "--config", lstsq_config, "--parallel", threads])
    assert exc.value.code == 2
    assert "--parallel: must be an integer of at least 1" in capsys.readouterr().err


def test_all_trials_failed_exit_code(tmp_path):
    cfg = write_config(tmp_path / "bad.json", {
        "driver": "rand_chol_qr",
        # the zero matrix: every trial's sketch loses rank and rand_chol_qr
        # raises
        "matrix": {"m": 40, "n": 10,
                   "spectrum": {"kind": "step", "r": 10, "gap": 0.0}},
        "trials": 2,
    })
    assert cli.main(["run", "--config", cfg]) == 3


def test_missing_config_exit_code(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_bootstrap_subcommand(tmp_path):
    cfg = write_config(tmp_path / "bs.json", {
        "matrix": {"m": 300, "n": 6, "seed": 4},
        "params": {"B": 20, "d": 60},
        "trials": 2,
    })
    assert cli.main(["bootstrap", "--config", cfg,
                     "--out", str(tmp_path / "bs")]) == 0
    rows = list(csv.DictReader(open(str(tmp_path / "bs") + ".csv")))
    assert "quantile" in rows[0]


def test_trace_subcommand_with_slq(tmp_path):
    cfg = write_config(tmp_path / "tr.json", {
        "matrix": {"m": 40, "n": 40,
                   "spectrum": {"kind": "power", "decay": 1.0}, "seed": 6},
        "params": {"probes": 8, "steps": 6, "f": "exp"},
        "trials": 1,
    })
    assert cli.main(["trace", "--config", cfg, "--driver", "slq",
                     "--out", str(tmp_path / "tr")]) == 0
    rows = list(csv.DictReader(open(str(tmp_path / "tr") + ".csv")))
    assert float(rows[0]["rel_err"]) < 0.5


BASE_RUN = {
    "driver": "spo1",
    "matrix": {"m": 200, "n": 8,
               "spectrum": {"kind": "step", "r": 2, "gap": 30},
               "coherence": {"kind": "spiked", "rows": 1, "weight": 10.0},
               "seed": 5},
    "params": {"tol": 1e-10},
    "trials": 1,
}


def _with_matrix(**changes):
    return pytest.param({"matrix": dict(BASE_RUN["matrix"], **changes)},
                        id="matrix " + json.dumps(changes))


@pytest.mark.parametrize("change", [
    {"params": {"tolerance": 1e-8}},
    {"params": {"maxiter": 10}},
    {"params": {"famly": "saso"}},
    {"params": {"family": "gauss"}},
    {"driver": "svd1", "params": {"k": "five"}},
    {"driver": "svd1", "params": {"k": 2.5}},
    {"driver": "svd1", "params": {"tol": [0.1]}},
    {"driver": "nystrom_pcg", "params": {"preconditioned": "yes"}},
    {"trails": 5},
    {"trials": 2.7},
    {"trials": "two"},
    {"seed": "0xzz"},
    {"out": 5},
    _with_matrix(spectrm={"kind": "flat"}),
    _with_matrix(m="abc"),
    _with_matrix(n=4.5),
    _with_matrix(seed="0xzz"),
    _with_matrix(spectrum={"kind": "power", "decy": 3}),
    _with_matrix(spectrum={"kind": "step", "r": "two"}),
    _with_matrix(spectrum=["flat"]),
    _with_matrix(coherence={"kind": "spiked", "rowz": 3}),
    _with_matrix(coherence={"kind": "spiked", "weight": "heavy"}),
    {"driver": "girard_hutchinson", "params": {"dist": "normal"}},
    {"driver": "row_sample_embedding", "params": {"dist": "levrage"}},
    {"driver": "bootstrap_ls", "params": {"norm": "l1"}},
    {"driver": "osid1", "params": {"axis": "columns"}},
    {"driver": "slq", "params": {"f": "sqrt"}},
    {"driver": "hutch_pp", "matrix": {"m": 40, "n": 40, "seed": 3},
     "params": {"budget": 5}},
    {"driver": "exact_leverage", "params": {"k": 3}},
    {"driver": ["spo1"]},
    {"params": {"tol": -1}},
    {"params": {"maxit": 0}},
    {"params": {"sampling_factor": 0}},
    {"driver": "sps2", "params": {"mu": -1}},
    {"driver": "bootstrap_ls", "params": {"alpha": 0}},
    {"driver": "row_sample_embedding", "params": {"eps": -0.5}},
    {"driver": "svd1", "params": {"power_passes": -1}},
    {"driver": "svd1", "params": {"oversample": -3}},
], ids=json.dumps)
def test_bad_config_exits_2_at_load(tmp_path, change):
    cfg = write_config(tmp_path / "bad.json", dict(BASE_RUN, **change))
    assert cli.main(["run", "--config", cfg]) == 2


SQUARE = {"m": 12, "n": 12, "seed": 3}


@pytest.mark.parametrize("driver, param", [
    ("svd1", "k"), ("qb2", "k"), ("qb2", "block_size"), ("evd2", "k"),
    ("osid1", "k"), ("curd1", "k"), ("subspace_leverage", "k"),
    ("bootstrap_svd", "k"), ("girard_hutchinson", "probes"),
    ("slq", "probes"), ("slq", "steps"), ("hutch_pp", "budget"),
    ("bootstrap_ls", "B"), ("bootstrap_svd", "B"), ("nystrom_pcg", "rank"),
    ("row_sample_embedding", "vectors"), ("sketch_and_solve", "d"),
    ("distortion", "d"), ("precond_spectrum", "d"),
    ("row_sample_embedding", "d"), ("sap_chol_qrcp", "d"),
    ("rand_chol_qr", "d"), ("bootstrap_ls", "d"), ("bootstrap_svd", "d"),
    ("approx_leverage", "d1"), ("approx_leverage", "d2")])
@pytest.mark.parametrize("value", [0, -1])
def test_nonpositive_counts_exit_2_at_load(tmp_path, driver, param, value):
    raw = {"driver": driver, "matrix": SQUARE, "params": {param: value}}
    with pytest.raises(bench.ConfigError, match=f"param '{param}'.*at least 1"):
        bench.ExperimentConfig.from_dict(raw)
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "bad.json", raw)]) == 2


@pytest.mark.parametrize("driver, params, match", [
    ("approx_leverage", {"d1": 5}, r"'d1' = 5 must lie in \[n, m\] = \[10, 40\]"),
    ("approx_leverage", {"d1": 41}, r"'d1' = 41 must lie in \[n, m\]"),
    ("bootstrap_svd", {"k": 11}, r"'k' = 11 must be at most min\(d, n\) = 10"),
    ("bootstrap_svd", {"k": 7, "d": 6}, r"'k' = 7 .* min\(d, n\) = 6")],
    ids=["d1 below n", "d1 above m", "k above n", "k above d"])
def test_shape_dependent_ranges_exit_2_at_load(tmp_path, driver, params,
                                                match):
    # these ran every trial into a library ValueError and exited 3
    raw = {"driver": driver, "matrix": {"m": 40, "n": 10, "seed": 3},
           "params": params}
    with pytest.raises(bench.ConfigError, match=match):
        bench.ExperimentConfig.from_dict(raw)
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "bad.json", raw)]) == 2


WIDE = {"m": 30, "n": 60, "seed": 3}
TALL = {"m": 40, "n": 10, "seed": 3}
SQUARE_10 = {"m": 10, "n": 10, "seed": 3}


def _shape_case(driver, matrix, params, match, what):
    return pytest.param(driver, matrix, params, match, id=f"{driver} {what}")


@pytest.mark.parametrize("driver, matrix, params, match", [
    *[_shape_case(driver, WIDE, {}, "needs a tall matrix spec", "wide")
      for driver in ("spo1", "sps2", "sketch_and_solve", "bootstrap_ls",
                     "rand_chol_qr", "sap_chol_qrcp")],
    *[_shape_case(driver, TALL, {"d": d},
                  rf"'d' = {d} must lie in \[n, m\] = \[10, 40\]", f"d={d}")
      for driver in ("sketch_and_solve", "bootstrap_ls", "rand_chol_qr",
                     "sap_chol_qrcp") for d in (9, 41)],
    *[_shape_case(driver, TALL, {"d": 41}, "'d' = 41 must be at most m = 40",
                  "d=41")
      for driver in ("bootstrap_svd", "distortion", "precond_spectrum")],
    *[_shape_case(driver, matrix, params,
                  rf"'{rank}' \+ 'oversample' = 11 must be at most "
                  rf"min\(m, n\) = 10", f"{matrix['m']}x{matrix['n']}")
      for driver, matrix, params, rank in [
          ("osid1", TALL, {"k": 6}, "k"), ("curd1", TALL, {"k": 6}, "k"),
          ("curd1", {"m": 10, "n": 40}, {"k": 3, "oversample": 8}, "k"),
          ("subspace_leverage", TALL, {"oversample": 6}, "k"),
          ("evd2", SQUARE_10, {"k": 6}, "k"),
          ("nystrom_pcg", SQUARE_10, {"rank": 6}, "rank")]]])
def test_shape_rules_exit_2_at_load(tmp_path, driver, matrix, params, match):
    # each ran every trial into a library error and exited 3
    raw = {"driver": driver, "matrix": matrix, "params": params}
    with pytest.raises(bench.ConfigError, match=match):
        bench.ExperimentConfig.from_dict(raw)
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "bad.json", raw)]) == 2


@pytest.mark.parametrize("driver, params", [
    ("approx_leverage", {"d1": 10}), ("approx_leverage", {"d1": 40}),
    ("bootstrap_svd", {"k": 6, "d": 6, "B": 5}),
    ("sketch_and_solve", {"d": 10}), ("sketch_and_solve", {"d": 40}),
    ("bootstrap_ls", {"d": 10, "B": 5}), ("rand_chol_qr", {"d": 40}),
    ("sap_chol_qrcp", {"d": 10}), ("bootstrap_svd", {"d": 40, "B": 5}),
    ("distortion", {"d": 40}), ("osid1", {"k": 5, "oversample": 5}),
    ("curd1", {"k": 10, "oversample": 0}),
    ("subspace_leverage", {"k": 9, "oversample": 1})])
def test_shape_dependent_ranges_accept_their_ends(tmp_path, driver, params):
    cfg = write_config(tmp_path / "ok.json", {
        "driver": driver, "matrix": {"m": 40, "n": 10, "seed": 3},
        "params": params})
    assert cli.main(["run", "--config", cfg]) == 0


@pytest.mark.parametrize("driver, params", [
    ("svd1", {"oversample": 0, "power_passes": 0}),
    ("osid1", {"oversample": 0, "power_passes": 0}),
    ("nystrom_pcg", {"oversample": 0}),
    ("sps2", {"mu": 0}),
    ("nystrom_pcg", {"preconditioned": False})])  # rank 10 + 5 > n: unused
def test_zero_oversample_passes_and_mu_stay_valid(tmp_path, driver, params):
    cfg = write_config(tmp_path / "ok.json", {
        "driver": driver, "matrix": SQUARE, "params": params})
    assert cli.main(["run", "--config", cfg]) == 0


@pytest.mark.parametrize("mu", [0, -1e-3])
def test_nystrom_pcg_needs_positive_mu_at_load(tmp_path, mu):
    # sps2 accepts mu = 0 (above); nystrom_pcg would fail every trial
    raw = {"driver": "nystrom_pcg", "matrix": SQUARE, "params": {"mu": mu}}
    with pytest.raises(bench.ConfigError, match="param 'mu'.*positive"):
        bench.ExperimentConfig.from_dict(raw)
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "bad.json", raw)]) == 2


@pytest.mark.parametrize("driver", ["nystrom_pcg", "evd2", "girard_hutchinson",
                                    "hutch_pp", "slq"])
def test_psd_drivers_need_square_spec_at_load(tmp_path, driver):
    raw = {"driver": driver, "matrix": {"m": 30, "n": 10}}
    with pytest.raises(bench.ConfigError, match="square"):
        bench.ExperimentConfig.from_dict(raw)
    assert cli.main(["run", "--config",
                     write_config(tmp_path / "bad.json", raw)]) == 2


def test_bad_seed_flag_and_gen_spec_exit_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASE_RUN)
    assert cli.main(["run", "--config", cfg, "--seed", "0xzz"]) == 2
    gen = write_config(tmp_path / "gen.json",
                       {"m": 10, "n": 3, "spectrum": {"kind": "exp",
                                                      "decay": 0.1,
                                                      "rate": 2}})
    assert cli.main(["gen", "--config", gen,
                     "--out", str(tmp_path / "A.mtx")]) == 2
    listed = write_config(tmp_path / "list.json", [BASE_RUN])
    assert cli.main(["run", "--config", listed]) == 2


def test_gen_accepts_out_beside_a_bare_spec(tmp_path):
    out = str(tmp_path / "A.mtx")
    cfg = write_config(tmp_path / "gen.json", {"m": 12, "n": 3, "out": out})
    assert cli.main(["gen", "--config", cfg]) == 0
    assert np.asarray(scipy.io.mmread(out)).shape == (12, 3)


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_example_config_runs(tmp_path, capsys):
    text = _readme()
    start = text.index("```json", text.index("Example config:")) + len("```json")
    example = json.loads(text[start:text.index("```", start)])
    cfg = write_config(tmp_path / "example.json", example)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "ex")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["completed"] == example["trials"]


def test_readme_driver_table_matches_schemas():
    text = _readme()
    for family, drivers in bench.FAMILIES.items():
        for driver, run in drivers.items():
            params = ", ".join(f"`{name}={p.default}`"
                               for name, p in bench.schema(run).items())
            row = f"| `{family}` | `{driver}` | {params or '—'} |"
            assert row in text, row
