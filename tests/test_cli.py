import builtins
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opinion_limits import abm, cli, dem
from opinion_limits.abm import ENGINE_VERSION, ProbabilityProportional, UniformWithReplacement
from opinion_limits.cli import main
from opinion_limits.config import _SCHEMA, ConfigError, config_from_dict, parse_config
from opinion_limits.dem import build_limit
from opinion_limits.kernel import erdos_renyi
from opinion_limits.limitcheck import SweepRow, write_sweep_csv
from opinion_limits.trajectory import Trajectory, write_csv

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


# a negative [init] seed escaped as numpy's bare ValueError, a negative
# base_seed ran until its first stream, after writing the manifest, and a
# negative network_seed was refused without its key name
@pytest.mark.parametrize(
    "section, key", [("init", "seed"), ("experiment", "base_seed"), ("selection", "network_seed")]
)
def test_negative_seed_refused_with_its_key(tmp_path, capsys, monkeypatch, section, key):
    monkeypatch.chdir(tmp_path)
    text = f"[model]\nn_agents = 5\nh = 1e-3\nhorizon = 0.2\n[{section}]\n{key} = -2\n"
    if section == "selection":
        text += "scheme = degree_weighted\n"
    assert main([str(_write(tmp_path, text))]) == 1
    assert f"config error: [{section}] {key}: must be non-negative, got -2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "dt, horizon, message",
    [
        # 1.5 steps passed an absolute 1e-9 and integrated to 2e-9
        ("1e-9", "1.5e-9", r"\[model\] horizon: time 1.5e-09 is not a multiple of dt=1e-09"),
        # the 12-decimal sample grid rounds every sample of this dt to 0 or 1e-12
        ("3e-13", "3e-12", r"\[dem\] dt: must be a multiple of 1e-12"),
        # within 1e-6 of a dt step, but the grid's end, 1.0, is past the horizon
        ("0.01", "0.999999999", r"\[model\] horizon: 0.999999999 is not a multiple of dt=0.01"),
    ],
)
def test_dt_grid_checked_at_a_fraction_of_a_step(dt, horizon, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(f"[model]\nh = 1e-10\nhorizon = {horizon}\n[dem]\ndt = {dt}\n")


def test_dt_on_the_sample_grid_accepted():
    cfg = parse_config("[model]\nh = 1e-10\nhorizon = 2e-9\n[dem]\ndt = 1e-9\n")
    assert cfg.integrator.steps(cfg.spec.horizon) == 2


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
    assert np.array_equal(cfg.x0, [-0.5, 0.0, 0.5])
    with pytest.raises(ConfigError, match="expected 3"):
        parse_config(
            "[model]\nn_agents = 3\nh = 1e-3\nhorizon = 1.0\n"
            "[init]\nx0 = explicit\nvalues = 0.1, 0.2\n"
        )


def test_x0_reproducible_across_builds():
    text = "[init]\nseed = 42\n"
    assert parse_config(text).x0.tobytes() == parse_config(text).x0.tobytes()


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


def _table(path):
    """An output CSV's rows of floats: the sample time, then one column per agent."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_compare_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([str(_write(tmp_path, SMALL_COMPARE.format(out=out)))])
    assert rc == 0
    assert "max Error(t)" in capsys.readouterr().out
    abm = _table(out / "abm.csv")
    dem = _table(out / "dem.csv")
    assert abm[:, 1:].shape == (101, 10)
    assert np.array_equal(abm[:, 0], dem[:, 0])
    assert np.array_equal(abm[0, 1:], dem[0, 1:])


def test_exit_code_config_error(tmp_path, capsys):
    rc = main([str(_write(tmp_path, "[model]\nh = 0\n"))])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    rc = main([str(tmp_path / "missing.ini")])
    assert rc == 1
    rc = main([str(_write(tmp_path, "[init]\nlo = 1.0\nhi = -1.0\n"))])
    assert rc == 1
    assert "config error: [init]" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bad.ini", "bad.json"])
def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe[model]\nh = 1e-3\n")
    assert main([str(path)]) == 1
    assert "config error: 'utf-8' codec can't decode" in capsys.readouterr().err


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
    # the run index is written as a float by %.17g, which prints it as an integer
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2"] * 2


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


# the noise-free limit runs are all one trajectory, so their variance is 0;
# at this size a two-pass variance over the stacked runs is not exactly 0
@pytest.mark.parametrize(
    "n_runs, n_agents, horizon, noise",
    [(4, 5, 0.2, "external\nvar_per_h = 0.05"), (20, 10, 0.1, "none")],
    ids=["external", "noise_free"],
)
def test_ensemble_outputs(tmp_path, n_runs, n_agents, horizon, noise):
    out = tmp_path / "out"
    text = f"""
[experiment]
type = ensemble
n_runs = {n_runs}
output_dir = {out}

[model]
n_agents = {n_agents}
h = 1e-3
horizon = {horizon}

[noise]
kind = {noise}
"""
    rc = main([str(_write(tmp_path, text))])
    assert rc == 0
    for name in ("abm_mean.csv", "abm_var.csv", "dem_mean.csv", "dem_var.csv",
                 "mean_error.csv", "var_error.csv"):
        assert (out / name).exists()
    var = _table(out / "abm_var.csv")
    assert np.all(var[0, 1:] == 0.0)  # all runs share x0
    if noise == "none":
        assert np.all(_table(out / "dem_var.csv")[:, 1:] == 0.0)


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
        ("limitcheck", "h_list = 1e-2", "h_list"),
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
        "limitcheck-h_negative", "limitcheck-h_repeated", "limitcheck-h_single",
        "noisy-samples=5000", "limitcheck-bounded_confidence", "limitcheck-degree_weighted-external",
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("double_weighting", True, "unknown key 'double_weighting'"),
        ("update_mode", "single_without_replacement", "unknown key 'update_mode'"),
        ("update_mode", "single", "unknown key 'update_mode'"),
        ("update_mode", "both", "unknown key 'update_mode'"),
    ],
    ids=[
        "double_weighting", "single_without_replacement", "update_mode=single", "update_mode=both",
    ],
)
def test_manifest_with_old_variant_spelling_rejected(tmp_path, capsys, key, value, message):
    # the selection scheme states the model variant; a manifest that still
    # spells it in [model] is refused, not rerun
    cfg = parse_config(SMALL_COMPARE.format(out=tmp_path / "out")).to_dict()
    cfg["model"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": cfg, "engine": ENGINE_VERSION}))
    rc = main([str(path)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_double_weighting_is_a_selection_scheme():
    cfg = parse_config("[selection]\nscheme = probability_proportional_double\n" + _SMALL_MODEL)
    assert cfg.spec.selection == ProbabilityProportional(double_weighting=True)
    cfg = parse_config("[selection]\nscheme = probability_proportional\n" + _SMALL_MODEL)
    assert cfg.spec.selection == ProbabilityProportional()


def test_both_update_is_a_selection_scheme():
    cfg = parse_config("[selection]\nscheme = uniform_with_replacement_both\n" + _SMALL_MODEL)
    spec = cfg.spec
    assert spec.selection == UniformWithReplacement(both_update=True)
    assert spec.mu == 5 * 1e-3 / 2
    cfg = parse_config("[selection]\nscheme = uniform_with_replacement\n" + _SMALL_MODEL)
    assert cfg.spec.selection == UniformWithReplacement()


def test_selection_without_replacement_is_single_update():
    text = "[selection]\nscheme = uniform_without_replacement\n" + _SMALL_MODEL
    spec = parse_config(text).spec
    assert spec.mu == (5 - 1) * 1e-3
    with pytest.raises(ConfigError, match="unknown key 'update_mode'"):
        parse_config(text + "update_mode = both\n")


def test_readme_ini_examples_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        parse_config(block)


def _keys(typ):
    """(section, key) of each schema key of type typ; typ tuple gives the enumerated keys."""
    return [
        (section, key)
        for section, keys in _SCHEMA.items()
        for key, (t, _) in keys.items()
        if (isinstance(t, tuple) if typ is tuple else t is typ)
    ]


@pytest.mark.parametrize("section, key", _keys(tuple))
def test_enumerated_keys_refuse_unknown_values(section, key):
    # refused by the schema itself, whether or not the experiment reads the key
    with pytest.raises(ConfigError) as err:
        config_from_dict({section: {key: "bogus"}})
    choices = _SCHEMA[section][key][0]
    assert str(err.value) == (
        f"[{section}] {key}: unknown value 'bogus'; expected one of {', '.join(choices)}"
    )


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", _keys(float))
def test_float_keys_refuse_non_finite_values(section, key, value):
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be finite"):
        parse_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key", _keys(int))
def test_int_keys_refuse_bool(section, key):
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: cannot parse 'True' as int"):
        config_from_dict({section: {key: True}})

@pytest.mark.parametrize("data", [[], {"model": 5}, {"model": ["n_agents"]}, {"dem": None}])
def test_non_table_config_or_section_refused(data):
    with pytest.raises(ConfigError, match="table"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "text, message",
    [
        # a compare config does not read h_list, but its entries are still checked
        ("[experiment]\nh_list = 1e-3, x\n", "h_list: cannot parse 'x' as float"),
        ("[experiment]\nh_list = 1e-3, nan\n", "h_list: must be finite"),
        (
            "[model]\nn_agents = 2\n[init]\nx0 = explicit\nvalues = 0.1, x\n",
            "values: cannot parse 'x' as float",
        ),
        (
            "[model]\nn_agents = 2\n[init]\nx0 = explicit\nvalues = 0.1, inf\n",
            "values: must be finite",
        ),
    ],
    ids=["h_list-text", "h_list-nan", "values-text", "values-inf"],
)
def test_list_entries_parse_as_finite_floats(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_readme_lists_every_allowed_value():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    missing = [
        f"[{section}] {key} = {choice}"
        for section, key in _keys(tuple)
        for choice in _SCHEMA[section][key][0]
        if f"`{choice}`" not in readme
    ]
    assert not missing


def test_readme_names_only_schema_keys():
    # the converse of the check above: a key removed from the schema must
    # leave the README's list of config sections too
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    entries = re.findall(r"^- `\[(\w+)\]`:(.*?)(?=^- `\[|^$)", readme, re.S | re.M)
    assert sorted(section for section, _ in entries) == sorted(_SCHEMA)
    unknown = []
    for section, text in entries:
        values = {c for t, _ in _SCHEMA[section].values() if isinstance(t, tuple) for c in t}
        names = set(re.findall(r"`(\w+)`", text)) - values
        unknown += [f"[{section}] {name}" for name in sorted(names - set(_SCHEMA[section]))]
    assert not unknown


# each was accepted before the schema checked every key given: NaN and inf
# ran or crashed at run time, and an unread enumerated key went unchecked
_BAD_VALUES = {
    "kernel-std-nan": {"kernel": {"std": math.nan}},
    "model-h-nan": {"model": {"h": math.nan}},
    "model-horizon-inf": {"model": {"horizon": math.inf}},
    "dem-dt-inf": {"dem": {"dt": math.inf}},
    "constant-kernel-bogus-mollifier": {"kernel": {"type": "constant", "mollifier": "bogus"}},
    "no-noise-bogus-law": {"noise": {"kind": "none", "law": "bogus"}},
}


@pytest.mark.parametrize("form", ["ini", "manifest"])
@pytest.mark.parametrize("bad", _BAD_VALUES.values(), ids=_BAD_VALUES)
def test_bad_values_refused_before_anything_runs(tmp_path, capsys, monkeypatch, bad, form):
    monkeypatch.chdir(tmp_path)
    cfg = {"model": {"n_agents": 5, "h": 1e-3, "horizon": 0.2}}
    for section, keys in bad.items():
        cfg.setdefault(section, {}).update(keys)
    if form == "ini":
        path = _write(tmp_path, "".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for s, keys in cfg.items()
        ))
    else:
        path = _write(tmp_path, json.dumps({"config": cfg, "engine": ENGINE_VERSION}), "m.json")
    assert main([str(path)]) == 1
    assert "config error: [" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"config": {"model": {"n_agents": True}}}, "[model] n_agents: cannot parse 'True'"),
        ({"config": {"model": [5]}}, "[model] is not a table"),
        ({"config": {"model": "n_agents = 5"}}, "[model] is not a table"),
        ({"config": []}, "a config is a table"),
        (["config"], 'a manifest is a JSON object with a "config" table'),
        ({"engine": ENGINE_VERSION}, 'a manifest is a JSON object with a "config" table'),
        # a string key takes only a string: null once named the directory 'None'
        (
            {"config": {"experiment": {"output_dir": None}}},
            "[experiment] output_dir: expected a string, got None",
        ),
        (
            {"config": {"selection": {"network_file": None}}},
            "[selection] network_file: expected a string, got None",
        ),
        ({"config": {"noise": {"kind": 1}}}, "[noise] kind: expected a string, got 1"),
    ],
    ids=["bool-n_agents", "list-section", "string-section", "list-config", "not-an-object",
         "no-config", "null-output_dir", "null-network_file", "int-noise-kind"],
)
def test_malformed_manifest_is_a_config_error(tmp_path, capsys, monkeypatch, manifest, message):
    monkeypatch.chdir(tmp_path)
    rc = main([str(_write(tmp_path, json.dumps(manifest), "manifest.json"))])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "engine",
    [None, 1, 2, 3, 4, 5, 6, 7],
    ids=[
        "no_key", "engine=1", "engine=2", "engine=3", "engine=4", "engine=5", "engine=6",
        "engine=7",
    ],
)
def test_manifest_from_older_engine_rejected(tmp_path, capsys, engine):
    # manifests written before the engine key are version 1; an older
    # engine's outputs are not the ones this engine writes, so its
    # manifests are refused, not rerun
    manifest = {"config": parse_config(SMALL_COMPARE.format(out=tmp_path / "out")).to_dict()}
    if engine is not None:
        manifest["engine"] = engine
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = main([str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"engine version {engine or 1}, this is engine version {ENGINE_VERSION}" in err
    assert not (tmp_path / "out").exists()


def test_manifest_records_engine_version(tmp_path):
    out = tmp_path / "out"
    assert main([str(_write(tmp_path, SMALL_COMPARE.format(out=out)))]) == 0
    assert json.loads((out / "manifest.json").read_text())["engine"] == ENGINE_VERSION


def test_manifest_records_versions(tmp_path):
    out = tmp_path / "out"
    assert main([str(_write(tmp_path, SMALL_COMPARE.format(out=out)))]) == 0
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert sorted(versions) == ["numpy", "opinion_limits", "python"]
    assert versions["numpy"] == np.__version__
    assert all(isinstance(v, str) and v for v in versions.values())


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: the runtime's one special function,
    # the normal CDF, is kernel.ndtr
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, opinion_limits.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # a --threads 1 run never starts a worker, so it does not pay for the imports
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, opinion_limits.cli; "
        "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process' "
        "or m.split('.')[0] == 'multiprocessing'))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


_LIMITED = {
    "ensemble": ("""
[experiment]
type = ensemble
n_runs = 3
output_dir = {out}

[model]
n_agents = 5
h = 1e-3
horizon = 0.1

[noise]
kind = external
var_per_h = 0.05
""", "additive-noise SDE"),
    "limitcheck": ("""
[experiment]
type = limitcheck
h_list = 1e-2,1e-3
n_states = 1
output_dir = {out}

[model]
n_agents = 5
h = 1e-3
horizon = 1.0
""", "standard ODE"),
}


@pytest.mark.parametrize("experiment", sorted(_LIMITED))
def test_manifest_records_the_limit(tmp_path, experiment):
    text, provenance = _LIMITED[experiment]
    out = tmp_path / "out"
    assert main([str(_write(tmp_path, text.format(out=out)))]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["limit"] == provenance
    spec = config_from_dict(manifest["config"]).spec
    assert manifest["limit"] == build_limit(spec).provenance


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
    write_csv(path, ["t", "error"], np.column_stack((np.arange(len(AWKWARD)), AWKWARD)))
    rows = [f"{t},{v}\n" for t, v in enumerate(AWKWARD_TEXT.split(","))]
    assert path.read_text() == "t,error\n" + "".join(rows)

    path = tmp_path / "limitcheck.csv"
    write_sweep_csv([SweepRow(*AWKWARD[:4]), SweepRow(*AWKWARD[3:])], path)
    text = AWKWARD_TEXT.split(",")
    rows = [",".join(text[:4]) + "\n", ",".join(text[3:]) + "\n"]
    assert path.read_text() == "h,b_deviation,a_deviation,gamma4\n" + "".join(rows)


@pytest.mark.parametrize(
    "shape, names",
    [((4, 3), 2), ((4, 1), 2), ((0, 3), 2), ((4,), 4), ((2, 2, 2), 2)],
    ids=["3_under_2", "1_under_2", "empty_3_under_2", "1d", "3d"],
)
def test_csv_writer_refuses_a_table_that_does_not_fit_its_header(tmp_path, shape, names):
    path = tmp_path / "table.csv"
    header = [f"c{k}" for k in range(names)]
    with pytest.raises(ValueError) as err:
        write_csv(path, header, np.zeros(shape))
    if len(shape) == 2:
        assert f"{shape[1]} values" in str(err.value)
        assert f"{names} names" in str(err.value)
    else:
        assert str(shape) in str(err.value)
    assert not path.exists()


# beside AWKWARD: the other zero, subnormals, the smallest normal, the
# largest finite float and integers whose text has or lacks an exponent
_SPECIAL = AWKWARD + [0.0, -5e-324, 1e-310, 2.2250738585072014e-308, -1.7976931348623157e308,
                      3.0, -12.0, 2.0**53, 1e16, 1e17]


@pytest.mark.parametrize(
    "shape", [(0, 1), (0, 4), (1, 1), (40, 1), (7, 3), (26, 501)], ids=lambda s: "x".join(map(str, s))
)
def test_csv_writer_matches_a_per_value_format_reference(tmp_path, shape):
    # seeded draws over the whole exponent range, a third replaced by _SPECIAL
    rng = np.random.default_rng([17, *shape])
    drawn = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    special = rng.choice(_SPECIAL, shape)
    rows = np.where(rng.random(shape) < 1 / 3, special, drawn)
    header = ["t", *(f"x_{k}" for k in range(shape[1] - 1))]
    path = tmp_path / "table.csv"
    write_csv(path, header, rows)
    lines = [header, *([format(v, ".17g") for v in row] for row in rows.tolist())]
    assert path.read_bytes() == "".join(",".join(line) + "\n" for line in lines).encode()


def test_trajectory_csv_round_trips_awkward_floats_bit_for_bit(tmp_path):
    path = tmp_path / "traj.csv"
    values = np.array([AWKWARD, AWKWARD[::-1]])
    Trajectory(np.array([0.0, 0.5]), values).to_csv(path)
    back = _table(path)
    assert back[:, 1:].tobytes() == values.tobytes()
    assert back[:, 0].tobytes() == np.array([0.0, 0.5]).tobytes()


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


# bench/worker.py traces these names as cli binds them, so each experiment
# must keep calling through them for its spans to read
_TRACED = ("run_abm", "integrate", "sweep_error", "ensemble_stats")


@pytest.mark.parametrize("experiment, calls", [
    ("compare", {"run_abm": 1, "integrate": 1, "sweep_error": 0, "ensemble_stats": 0}),
    ("sweep_h", {"run_abm": 6, "integrate": 1, "sweep_error": 6, "ensemble_stats": 0}),
    ("ensemble", {"run_abm": 5, "integrate": 0, "sweep_error": 0, "ensemble_stats": 2}),
])
def test_experiments_call_through_the_traced_names(tmp_path, monkeypatch, experiment, calls):
    counts = dict.fromkeys(_TRACED, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in _TRACED:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    text = SMALL_COMPARE.format(out="out") if experiment == "compare" else _THREADED[experiment]
    assert main([str(_write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 0
    assert counts == calls


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each block when it is
    submitted and records the worker count and the blocks; it starts no
    process."""

    made = []

    def __init__(self, max_workers, mp_context):
        self.workers, self.blocks, self.read = max_workers, [], 0
        _InlinePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.blocks.append(args[-2:])
        # a block is submitted only when at most one result per worker waits
        assert len(self.blocks) - self.read <= self.workers + 1
        return _Done(self, fn(*args))


class _Done:
    """A finished block's future; reading it counts as a read of the pool."""

    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.read += 1
        return self.value


@pytest.mark.parametrize("threads, cpus, workers, blocks", [
    (4, 2, 2, 4), (1000, 2, 2, 5), (3, 8, 3, 3), (2, 1, 1, 0),
])
def test_fan_out_caps_workers_at_usable_cpus(tmp_path, monkeypatch, threads, cpus, workers, blocks):
    # 5 runs in min(threads, 5) contiguous blocks, in min(blocks, cpus)
    # workers; one usable CPU runs the blocks in this process
    path = _write(tmp_path, _THREADED["ensemble"])
    _InlinePool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    outs = [tmp_path / "serial", tmp_path / "fanned"]
    assert main([str(path), "--out", str(outs[0])]) == 0
    assert main([str(path), "--out", str(outs[1]), "--threads", str(threads)]) == 0
    if blocks:
        [pool] = _InlinePool.made
        assert pool.workers == workers
        cuts = [5 * b // blocks for b in range(blocks + 1)]
        assert pool.blocks == list(zip(cuts, cuts[1:]))
    else:
        assert _InlinePool.made == []
    for p in outs[0].iterdir():
        if p.name != "manifest.json":
            assert p.read_bytes() == (outs[1] / p.name).read_bytes(), p.name


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_working_set_does_not_grow_with_samples(tmp_path, monkeypatch, threads):
    # tracemalloc sees numpy's buffers. The runs stream into the moments, so
    # 201 samples peak as 3 do, at about 0.8 MB; keeping every run's
    # trajectory (48 runs x 2 engines x 201 samples x 20 agents) peaked at 3.4 MB.
    # With one usable CPU, --threads 2 runs in this process and streams too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for dt in ("0.1", "0.001"):
        cfg = parse_config(f"""
[experiment]
type = ensemble
n_runs = 48
output_dir = {tmp_path / dt}

[model]
n_agents = 20
h = 1e-3
horizon = 0.2

[noise]
kind = external
var_per_h = 0.05

[dem]
dt = {dt}
""")
        tracemalloc.start()
        try:
            cli.run_experiment(cfg, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_200_000, (dt, peak)


def _poisoned_draw(monkeypatch):
    original = abm._draw

    def draw(spec, m, rng):
        d = original(spec, m, rng)
        d.z[0] = np.nan
        return d

    monkeypatch.setattr(abm, "_draw", draw)


def _poisoned_limit(monkeypatch):
    # the limit an in-process ensemble integrates is the config's
    def build(spec):
        model = build_limit(spec)

        def fields(x):
            b, sigma = model.fields(x)
            return b + np.nan, sigma

        return dataclasses.replace(model, fields=fields)

    monkeypatch.setattr("opinion_limits.config.build_limit", build)


@pytest.mark.parametrize("poison", [_poisoned_draw, _poisoned_limit])
@pytest.mark.parametrize("min_runs", [1, 10**9])
def test_ensemble_refuses_a_non_finite_state(tmp_path, capsys, monkeypatch, poison, min_runs):
    # through run_abm_batch and through run_abm alone, then the limit
    monkeypatch.setattr(cli, "_BATCH_MIN_RUNS", min_runs)
    poison(monkeypatch)
    path = _write(tmp_path, _THREADED["ensemble"])
    assert main([str(path), "--out", str(tmp_path / "out")]) == 2
    assert "trajectory contains non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_in_process_ensemble_integrates_the_config_limit(tmp_path, monkeypatch, threads):
    # the config built the limit; an ensemble in this process builds no other,
    # at --threads 2 too when one CPU is usable
    def build(spec):
        raise AssertionError("built a second limit")

    monkeypatch.setattr(cli, "build_limit", build)
    monkeypatch.setattr(dem, "build_limit", build)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    path = _write(tmp_path, _THREADED["ensemble"])
    assert main([str(path), "--out", str(tmp_path / "out"), "--threads", threads]) == 0


def test_em_block_size_does_not_change_outputs(tmp_path, monkeypatch):
    # fields on one state at a time, on slices of two (5 runs split 2-2-1), on 16
    path = _write(tmp_path, _THREADED["ensemble"])
    outs = []
    for block in (1, 2, dem._EM_BLOCK):
        monkeypatch.setattr(dem, "_EM_BLOCK", block)
        outs.append(tmp_path / f"block{block}")
        assert main([str(path), "--out", str(outs[-1])]) == 0
    for p in outs[0].iterdir():
        if p.name != "manifest.json":
            for out in outs[1:]:
                assert p.read_bytes() == (out / p.name).read_bytes(), p.name


_NETWORK_COMPARE = SMALL_COMPARE + """
[selection]
scheme = degree_weighted
{network}
"""


def _network_run(tmp_path, name, network):
    out = tmp_path / name
    text = _NETWORK_COMPARE.format(out=out, network=network)
    return main([str(_write(tmp_path, text, f"{name}.ini"))]), out


def test_network_file_matches_generated_network(tmp_path):
    # the file holds the graph that p_conn and network_seed generate
    path = tmp_path / "net.csv"
    erdos_renyi(10, 0.3, 5).to_csv(path)
    rc, generated = _network_run(tmp_path, "generated", "p_conn = 0.3\nnetwork_seed = 5")
    assert rc == 0
    rc, loaded = _network_run(tmp_path, "loaded", f"network_file = {path}")
    assert rc == 0
    names = sorted(p.name for p in generated.iterdir())
    assert names == sorted(p.name for p in loaded.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (generated / name).read_bytes() == (loaded / name).read_bytes(), name


def _ones(n, rows):
    """rows lines of n comma-separated ones."""
    return "\n".join(",".join(["1.0"] * n) for _ in range(rows))


@pytest.mark.parametrize(
    "text, message",
    [
        ("# n=4\n" + _ones(4, 4), "network size"),
        ("# n=10\n" + _ones(10, 9), "10x10"),
        ("# size=10\n" + _ones(10, 10), "header"),
        (
            "# n=10\n1.0,nan" + ",0.0" * 8 + "\n" + _ones(10, 9),
            "[selection] adjacency entries must lie in [0, 1]",
        ),
        (None, "config error: [selection] network_file: [Errno 2] No such file"),
    ],
    ids=["wrong-size", "short", "bad-header", "nan", "missing"],
)
def test_bad_network_file_refused(tmp_path, capsys, text, message):
    path = tmp_path / "net.csv"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    ini = _NETWORK_COMPARE.format(out=out, network=f"network_file = {path}")
    rc = main([str(_write(tmp_path, ini))])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_network_file_is_read_once_per_config(tmp_path, monkeypatch):
    path = tmp_path / "net.csv"
    erdos_renyi(10, 0.3, 5).to_csv(path)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    reads = []
    real_open = builtins.open

    def counted(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    out = tmp_path / "out"
    cfg = parse_config(_NETWORK_COMPARE.format(out=out, network=f"network_file = {path}"))
    graph = cfg.spec.selection.network.adjacency
    cli.run_experiment(cfg)
    assert cfg.network_sha256 == sha
    assert json.loads((out / "manifest.json").read_text())["network_sha256"] == sha
    assert len(reads) == 1
    # another graph in the file's place changes neither the graph nor the
    # hash the loaded config reports
    erdos_renyi(10, 0.3, 6).to_csv(path)
    assert cfg.network_sha256 == sha
    assert np.array_equal(cfg.spec.selection.network.adjacency, graph)
    assert len(reads) == 1


def test_cli_run_builds_its_network_once(tmp_path, monkeypatch):
    # one read of network_file per CLI run, whether from INI or a manifest
    path = tmp_path / "net.csv"
    erdos_renyi(10, 0.3, 5).to_csv(path)
    reads = []
    real_open = builtins.open

    def counted(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    rc, out = _network_run(tmp_path, "first", f"network_file = {path}")
    assert rc == 0 and len(reads) == 1
    assert main([str(out / "manifest.json"), "--out", str(tmp_path / "rerun")]) == 0
    assert len(reads) == 2
    # a generated graph is generated once per CLI run
    calls = []

    def generate(*args):
        calls.append(args)
        return erdos_renyi(*args)

    monkeypatch.setattr("opinion_limits.config.erdos_renyi", generate)
    rc, out = _network_run(tmp_path, "generated", "p_conn = 0.3")
    assert rc == 0 and len(calls) == 1
    assert main([str(out / "manifest.json"), "--out", str(tmp_path / "regenerated")]) == 0
    assert len(calls) == 2


def test_manifest_pins_the_network_file(tmp_path, capsys):
    path = tmp_path / "net.csv"
    erdos_renyi(10, 0.3, 5).to_csv(path)
    rc, out = _network_run(tmp_path, "first", f"network_file = {path}")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["network_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    # the same file reruns; another graph in its place is refused
    assert main([str(out / "manifest.json"), "--out", str(tmp_path / "same")]) == 0
    assert (tmp_path / "same" / "abm.csv").read_bytes() == (out / "abm.csv").read_bytes()
    erdos_renyi(10, 0.3, 6).to_csv(path)
    capsys.readouterr()
    assert main([str(out / "manifest.json"), "--out", str(tmp_path / "other")]) == 1
    assert "[selection] network_file: its sha256 is not the one" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()
    # so is a manifest that reads a network file but records no hash
    del manifest["network_sha256"]
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    assert main([str(tmp_path / "old.json"), "--out", str(tmp_path / "old")]) == 1
    assert not (tmp_path / "old").exists()


def test_manifest_without_network_file_records_no_hash(tmp_path):
    rc, out = _network_run(tmp_path, "generated", "p_conn = 0.3")
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["network_sha256"] is None
