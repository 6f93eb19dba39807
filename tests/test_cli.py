import json

import numpy as np
import pytest

from opinion_limits import cli
from opinion_limits.abm import ENGINE_VERSION
from opinion_limits.cli import main
from opinion_limits.config import ConfigError, config_from_dict, parse_config
from opinion_limits.trajectory import Trajectory

SMALL_COMPARE = """
[experiment]
type = compare
base_seed = 3
output_dir = {out}

[model]
n_agents = 10
h = 1e-3
horizon = 1.0

[dem]
dt = 0.01
"""


def test_defaults_resolved():
    cfg = parse_config("[experiment]\ntype = compare\n[model]\nh = 1e-3\nhorizon = 1.0\n")
    d = cfg.to_dict()
    assert d["model"]["n_agents"] == 50
    assert d["kernel"] == {
        "type": "mollified_bc", "radius": 0.5, "value": 1.0,
        "mollifier": "normal", "mean": 0.0, "std": 0.01, "lo": -0.05, "hi": 0.05,
    }
    assert d["selection"]["p_conn"] == 0.1
    assert d["dem"]["dt"] == 0.01
    assert d["experiment"]["n_runs"] == 500
    assert d["experiment"]["error_norm"] == "duration"


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[bogus]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[model]\nfoo = 1\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[model]\nn_agents = many\n")
    with pytest.raises(ConfigError, match="timestep"):
        parse_config("[model]\nh = 0\n")
    with pytest.raises(ConfigError, match="unknown value"):
        parse_config("[experiment]\ntype = frobnicate\n")
    with pytest.raises(ConfigError, match="unknown value"):
        parse_config("[kernel]\ntype = quadratic\n")
    with pytest.raises(ConfigError, match="unknown value"):
        parse_config("[noise]\nkind = pink\n")
    with pytest.raises(ConfigError, match=r"^\[init\] lo, hi"):
        parse_config("[init]\nlo = 1.0\nhi = -1.0\n")


@pytest.mark.parametrize(
    "section, settings, message",
    [
        ("kernel", "std = 0", "std must be positive"),
        ("kernel", "radius = -1", "radius must be non-negative"),
        ("selection", "scheme = degree_weighted\np_conn = 2", "connection probability"),
        ("noise", "kind = external\nvar_per_h = -1", "var_per_h must be non-negative"),
    ],
    ids=["kernel-std", "kernel-radius", "selection-p_conn", "noise-var_per_h"],
)
def test_value_errors_name_their_section(section, settings, message):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{settings}\n")
    assert str(err.value).startswith(f"[{section}] {message}")


@pytest.mark.parametrize("experiment", ["compare", "sweep_h", "ensemble"])
def test_horizon_off_dt_grid_rejected(experiment):
    with pytest.raises(ConfigError, match="horizon.*not a multiple of dt"):
        parse_config(
            f"[experiment]\ntype = {experiment}\n[model]\nh = 1e-3\nhorizon = 1.005\n"
            "[dem]\ndt = 0.01\n"
        )


def test_discontinuous_kernel_rejected_for_compare():
    with pytest.raises(ConfigError, match="discontinuous"):
        parse_config("[kernel]\ntype = bounded_confidence\n")


def test_noise_assumption_violations_surface_as_config_errors():
    with pytest.raises(ConfigError, match="mean"):
        parse_config("[noise]\nkind = external\nmean_per_h = 1.0\nvar_per_h = 0.05\n")


def test_explicit_x0():
    cfg = parse_config(
        "[model]\nn_agents = 3\nh = 1e-3\nhorizon = 1.0\n"
        "[init]\nx0 = explicit\nvalues = -0.5, 0.0, 0.5\n"
    )
    assert np.array_equal(cfg.x0(), [-0.5, 0.0, 0.5])
    with pytest.raises(ConfigError, match="expected 3"):
        parse_config(
            "[model]\nn_agents = 3\nh = 1e-3\nhorizon = 1.0\n"
            "[init]\nx0 = explicit\nvalues = 0.1, 0.2\n"
        )


def test_x0_reproducible_across_builds():
    cfg = parse_config("[init]\nseed = 42\n")
    assert np.array_equal(cfg.x0(), cfg.x0())


def test_manifest_round_trip_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc = main([str(_write(tmp_path, SMALL_COMPARE.format(out=out1)))])
    assert rc == 0
    rc = main([str(out1 / "manifest.json"), "--out", str(out2)])
    assert rc == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m2["config"]["experiment"]["output_dir"] = m1["config"]["experiment"]["output_dir"]
    assert m1 == m2
    assert (out1 / "abm.csv").read_bytes() == (out2 / "abm.csv").read_bytes()
    assert (out1 / "dem.csv").read_bytes() == (out2 / "dem.csv").read_bytes()
    assert (out1 / "error.csv").read_bytes() == (out2 / "error.csv").read_bytes()


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_compare_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([str(_write(tmp_path, SMALL_COMPARE.format(out=out)))])
    assert rc == 0
    assert "max Error(t)" in capsys.readouterr().out
    abm = Trajectory.from_csv(out / "abm.csv")
    dem = Trajectory.from_csv(out / "dem.csv")
    assert abm.values.shape == (101, 10)
    assert np.array_equal(abm.sample_times, dem.sample_times)
    assert np.array_equal(abm.values[0], dem.values[0])


def test_exit_code_config_error(tmp_path, capsys):
    rc = main([str(_write(tmp_path, "[model]\nh = 0\n"))])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    rc = main([str(tmp_path / "missing.ini")])
    assert rc == 1
    rc = main([str(_write(tmp_path, "[init]\nlo = 1.0\nhi = -1.0\n"))])
    assert rc == 1
    assert "config error: [init]" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_refused(tmp_path, capsys, threads):
    out = tmp_path / "out"
    rc = main([str(_write(tmp_path, SMALL_COMPARE.format(out=out))), "--threads", threads])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_simulation_error(tmp_path, capsys):
    # every pairwise probability is zero, so the proportional scheme fails
    text = """
[experiment]
type = compare
output_dir = {out}

[model]
n_agents = 3
h = 1e-3
horizon = 0.1

[kernel]
type = constant
value = 0.0

[selection]
scheme = probability_proportional
""".format(out=tmp_path / "out")
    rc = main([str(_write(tmp_path, text))])
    assert rc == 2
    assert "simulation error" in capsys.readouterr().err


def test_sweep_h_rows(tmp_path):
    out = tmp_path / "out"
    text = """
[experiment]
type = sweep_h
h_list = 1e-2,1e-3
runs_per_h = 3
output_dir = {out}

[model]
n_agents = 8
h = 1e-3
horizon = 0.5
""".format(out=out)
    rc = main([str(_write(tmp_path, text))])
    assert rc == 0
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "h,run,error"
    assert len(lines) == 1 + 2 * 3


def test_sweep_h_refuses_noise(tmp_path, capsys):
    text = """
[experiment]
type = sweep_h
output_dir = {out}

[model]
n_agents = 8
h = 1e-3
horizon = 0.5

[noise]
kind = external
var_per_h = 0.05
""".format(out=tmp_path / "out")
    rc = main([str(_write(tmp_path, text))])
    assert rc == 1
    assert "deterministic limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ensemble_outputs(tmp_path):
    out = tmp_path / "out"
    text = """
[experiment]
type = ensemble
n_runs = 4
output_dir = {out}

[model]
n_agents = 5
h = 1e-3
horizon = 0.2

[noise]
kind = external
var_per_h = 0.05
""".format(out=out)
    rc = main([str(_write(tmp_path, text))])
    assert rc == 0
    for name in ("abm_mean.csv", "abm_var.csv", "dem_mean.csv", "dem_var.csv",
                 "mean_error.csv", "var_error.csv"):
        assert (out / name).exists()
    var = Trajectory.from_csv(out / "abm_var.csv")
    assert np.all(var.values[0] == 0.0)  # all runs share x0


def test_limitcheck_summary(tmp_path, capsys):
    out = tmp_path / "out"
    text = """
[experiment]
type = limitcheck
h_list = 1e-2,1e-3
n_states = 2
samples = 20000
output_dir = {out}

[model]
n_agents = 5
h = 1e-3
horizon = 1.0
""".format(out=out)
    rc = main([str(_write(tmp_path, text))])
    assert rc == 0
    assert "drift condition" in capsys.readouterr().out
    assert (out / "limitcheck.csv").exists()
    assert "PASS" in (out / "summary.txt").read_text()


def test_paper_scale_flag_updates_manifest(tmp_path):
    cfg_path = _write(tmp_path, SMALL_COMPARE.format(out=tmp_path / "out"))
    from opinion_limits.cli import _load_config

    cfg = _load_config(str(cfg_path), None, True)
    assert cfg.raw["experiment"]["n_runs"] == 5000


def test_config_from_dict_matches_ini():
    text = "[experiment]\ntype = compare\n[model]\nn_agents = 12\nh = 1e-3\nhorizon = 1.0\n"
    a = parse_config(text)
    b = config_from_dict(a.to_dict())
    assert a.to_dict() == b.to_dict()


_SMALL_MODEL = """
[model]
n_agents = 5
h = 1e-3
horizon = 0.2
"""


@pytest.mark.parametrize(
    "experiment, settings, key",
    [
        ("sweep_h", "runs_per_h = 0", "runs_per_h"),
        ("ensemble", "n_runs = 1", "n_runs"),
        ("ensemble", "n_runs = 0", "n_runs"),
        ("limitcheck", "n_states = -1", "n_states"),
        ("sweep_h", "h_list = 1e-2,0", "h_list"),
        ("limitcheck", "h_list = 1e-2,-1e-3", "h_list"),
        ("limitcheck", "h_list = 1e-2,1e-2", "h_list"),
        ("limitcheck", "samples = 5000\n[noise]\nkind = adaptation\nvar_per_h = 0.05", "samples"),
        # with no derived limit there is no target to measure the coefficients against
        ("limitcheck", "[kernel]\ntype = bounded_confidence", "discontinuous"),
        (
            "limitcheck",
            "[selection]\nscheme = degree_weighted\n[noise]\nkind = external\nvar_per_h = 0.05",
            "no derived limit",
        ),
    ],
    ids=[
        "runs_per_h=0", "n_runs=1", "n_runs=0", "n_states=-1", "sweep_h-h_zero",
        "limitcheck-h_negative", "limitcheck-h_repeated", "noisy-samples=5000",
        "limitcheck-bounded_confidence", "limitcheck-degree_weighted-external",
    ],
)
def test_bad_experiment_counts_rejected_at_config_time(tmp_path, capsys, experiment, settings, key):
    out = tmp_path / "out"
    text = f"[experiment]\ntype = {experiment}\noutput_dir = {out}\n{settings}\n{_SMALL_MODEL}"
    rc = main([str(_write(tmp_path, text))])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_manifest_with_integration_scheme_rejected(tmp_path, capsys):
    # the integrator follows from the limit; a manifest that still names one
    # is refused rather than rerun under a different meaning
    cfg = parse_config(SMALL_COMPARE.format(out=tmp_path / "out")).to_dict()
    cfg["dem"]["scheme"] = "euler_maruyama"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": cfg}))
    rc = main([str(path)])
    assert rc == 1
    assert "unknown key 'scheme'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("engine", [None, 1], ids=["no_key", "engine=1"])
def test_manifest_from_older_engine_rejected(tmp_path, capsys, engine):
    # manifests written before the engine key are version 1; their random
    # stream is not the one this engine draws, so they are refused, not rerun
    manifest = {"config": parse_config(SMALL_COMPARE.format(out=tmp_path / "out")).to_dict()}
    if engine is not None:
        manifest["engine"] = engine
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = main([str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"engine version 1, this is engine version {ENGINE_VERSION}" in err
    assert not (tmp_path / "out").exists()


def test_manifest_records_engine_version(tmp_path):
    out = tmp_path / "out"
    assert main([str(_write(tmp_path, SMALL_COMPARE.format(out=out)))]) == 0
    assert json.loads((out / "manifest.json").read_text())["engine"] == ENGINE_VERSION


def test_manifest_records_versions(tmp_path):
    out = tmp_path / "out"
    assert main([str(_write(tmp_path, SMALL_COMPARE.format(out=out)))]) == 0
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert sorted(versions) == ["numpy", "opinion_limits", "python", "scipy"]
    assert versions["numpy"] == np.__version__
    assert all(isinstance(v, str) and v for v in versions.values())


# each written as %.17g: signed zero, subnormal, huge, inexact sums and small
# magnitudes all need 17 significant digits or the exponent form
AWKWARD = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0, 1e-7, -1e-300]
AWKWARD_TEXT = "-0,4.9406564584124654e-324,1e+308,0.30000000000000004,1,9.9999999999999995e-08,-1e-300"


def test_csv_writers_pin_the_bytes_of_awkward_floats(tmp_path):
    path = tmp_path / "traj.csv"
    Trajectory(np.array([0.0, 0.5]), np.array([AWKWARD, AWKWARD[::-1]])).to_csv(path)
    header = "t," + ",".join(f"x_{i}" for i in range(len(AWKWARD)))
    reversed_text = ",".join(AWKWARD_TEXT.split(",")[::-1])
    assert path.read_text() == f"{header}\n0,{AWKWARD_TEXT}\n0.5,{reversed_text}\n"

    path = tmp_path / "series.csv"
    cli._write_series_csv(path, np.arange(len(AWKWARD), dtype=float), np.array(AWKWARD))
    rows = [f"{t},{v}\n" for t, v in enumerate(AWKWARD_TEXT.split(","))]
    assert path.read_text() == "t,error\n" + "".join(rows)


def test_trajectory_csv_round_trips_awkward_floats_bit_for_bit(tmp_path):
    path = tmp_path / "traj.csv"
    values = np.array([AWKWARD, AWKWARD[::-1]])
    Trajectory(np.array([0.0, 0.5]), values).to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.values.tobytes() == values.tobytes()
    assert back.sample_times.tobytes() == np.array([0.0, 0.5]).tobytes()


_THREADED = {
    "ensemble": """
[experiment]
type = ensemble
n_runs = 5
base_seed = 11

[model]
n_agents = 6
h = 1e-3
horizon = 0.2

[noise]
kind = external
var_per_h = 0.05
""",
    "sweep_h": """
[experiment]
type = sweep_h
h_list = 1e-2,3e-3,1e-3
runs_per_h = 2
base_seed = 11

[model]
n_agents = 6
h = 1e-3
horizon = 0.2
""",
}


@pytest.mark.parametrize("experiment", sorted(_THREADED))
def test_threads_do_not_change_outputs(tmp_path, experiment):
    path = _write(tmp_path, _THREADED[experiment])
    outs = [tmp_path / f"threads{k}" for k in (1, 2)]
    for k, out in zip((1, 2), outs):
        assert main([str(path), "--out", str(out), "--threads", str(k)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    for m in manifests:
        m["config"]["experiment"]["output_dir"] = "out"
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("experiment", sorted(_THREADED))
def test_batched_and_serial_runs_write_the_same_bytes(tmp_path, monkeypatch, experiment):
    # the experiments above are below the batching crossover; move it to
    # send every block through run_abm_batch, then through run_abm alone
    path = _write(tmp_path, _THREADED[experiment])
    outs = []
    for min_runs in (1, 10**9):
        monkeypatch.setattr(cli, "_BATCH_MIN_RUNS", min_runs)
        outs.append(tmp_path / f"min{min_runs}")
        assert main([str(path), "--out", str(outs[-1])]) == 0
    for p in outs[0].iterdir():
        if p.name != "manifest.json":
            assert p.read_bytes() == (outs[1] / p.name).read_bytes(), p.name
