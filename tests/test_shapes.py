"""The drivers' shape contract: the library's checks reject what the
drivers cannot run on, and a config that the harness loads runs without
a ValueError."""

import json
from typing import Literal, get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randla import bench, cli, leastsq
from randla.bench import ConfigError, ExperimentConfig, MatrixSpec


def _run(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return cli.main(["run", "--config", str(path)])


@pytest.mark.parametrize("sampling_factor", [0.5, 0.97])
def test_spo1_and_sps2_reject_a_sampling_factor_that_gives_d_below_n(
        sampling_factor):
    # d = ceil(40 f) is 20 and 39; sps2 used to return a wrong x, reported
    # as converged, and spo1 failed later inside make_precond_qr
    A = bench.gen_matrix(MatrixSpec(400, 40))
    b = np.ones(400)
    match = r"need n <= d <= m: 'd' = (20|39) must lie in \[n, m\]"
    with pytest.raises(ValueError, match=match):
        leastsq.spo1(A, b, sampling_factor=sampling_factor)
    with pytest.raises(ValueError, match=match):
        leastsq.sps2(leastsq.SaddleProblem(A, b),
                     sampling_factor=sampling_factor)


@pytest.mark.parametrize("driver", ["spo1", "sps2"])
def test_sampling_factor_below_one_exits_2_at_load(tmp_path, driver):
    raw = {"driver": driver, "matrix": {"m": 400, "n": 40},
           "params": {"sampling_factor": 0.5}}
    with pytest.raises(ConfigError, match="param 'sampling_factor'"):
        ExperimentConfig.from_dict(raw)
    assert _run(tmp_path, raw) == 2
    # ceil(40 * 0.99) = 40 = n is the smallest sketch that is tall
    raw["params"]["sampling_factor"] = 0.99
    raw["trials"] = 1
    assert _run(tmp_path, raw) == 0


def test_approx_leverage_default_d2_is_at_least_one(tmp_path):
    # ceil(8 ln m) is 0 at m = 1
    raw = {"driver": "approx_leverage", "matrix": {"m": 1, "n": 1},
           "trials": 2}
    rows, summary = bench.run_experiment(ExperimentConfig.from_dict(raw))
    assert summary["failed"] == 0
    assert _run(tmp_path, raw) == 0


def test_row_sample_embedding_default_d_is_at_least_one():
    # ceil(n / eps^2 ln(n) 4) is 0 at n = 1; one leverage-sampled row of a
    # rank-one A preserves every norm exactly, zero rows preserve none
    raw = {"driver": "row_sample_embedding", "matrix": {"m": 5, "n": 1},
           "trials": 2}
    rows, _ = bench.run_experiment(ExperimentConfig.from_dict(raw))
    assert [row["embedded"] for row in rows] == [1, 1]
    assert max(row["worst_ratio"] for row in rows) < 1e-12


def test_precond_spectrum_reports_inf_when_the_sketch_loses_rank():
    raw = {"driver": "precond_spectrum",
           "matrix": {"m": 3, "n": 3, "seed": 1},
           "params": {"family": "rademacher"}, "trials": 20}
    rows, summary = bench.run_experiment(ExperimentConfig.from_dict(raw))
    assert summary["failed"] == 0
    devs = np.array([row["identity_dev"] for row in rows])
    assert np.isinf(devs).any() and np.isfinite(devs).any()
    assert devs[np.isfinite(devs)].max() < 1e-12


def _values(param):
    """Values for one schema param, near and past the edges of its range:
    the choices of a Literal, and small numbers otherwise."""
    hint, default = param.annotation, param.default
    if get_origin(hint) is Literal:
        return st.sampled_from(get_args(hint))
    kind = int if default is None else type(default)
    if kind is bool:
        return st.booleans()
    if kind is float:  # not tiny: eps sets row_sample_embedding's d
        return st.sampled_from([-0.5, 0.0, 0.05, 0.5, 0.97, 1.0, 2.5, 12.0])
    if kind is int:
        return st.integers(-1, 24)
    return st.just(default)  # slq's f: a parsed string


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_a_config_that_loads_raises_no_value_error_at_run_time(data):
    driver = data.draw(st.sampled_from(sorted(bench.DRIVERS)), label="driver")
    n = data.draw(st.integers(1, 20), label="n")
    m = data.draw(st.just(n) | st.integers(1, 20), label="m")
    params = {name: data.draw(_values(param), label=name)
              for name, param in bench.schema(bench.DRIVERS[driver]).items()
              if data.draw(st.booleans())}
    raw = {"driver": driver, "params": params, "trials": 2,
           "matrix": {"m": m, "n": n, "seed": data.draw(st.integers(0, 3))}}
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    rows, _ = bench.run_experiment(config)
    # LinAlgError (a sketch that loses rank in rand_chol_qr) is a run-time
    # outcome; a ValueError is a precondition the load did not check
    assert [row["status"] for row in rows
            if row.get("error_type") == "ValueError"] == []
