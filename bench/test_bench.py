"""Tests of the benchmark itself: span arithmetic, tracing install/restore,
the speed normalisation, the per-workload output checks and BENCHMARK.json.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_children_on_synthetic_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, True),
        Span(0, "a", 1.0, 4.0, 0, True),
        Span(0, "b", 5.0, 9.0, 0, False),
        Span(0, "c", 6.0, 7.0, 2, True),
        Span(1, "root", 20.0, 22.0, -1, True),
    ]
    totals = layer_totals(spans)
    assert totals[0]["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "errors": 0}
    assert totals[0]["a"]["self_s"] == 3.0
    assert totals[0]["b"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0, "errors": 1}
    assert totals[0]["c"]["self_s"] == 1.0
    assert totals[1]["root"]["self_s"] == 2.0


def test_self_time_counts_overlapping_children_once():
    assert tracing._covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0


def test_tracer_records_nesting_counters_and_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap("inner", inner, count=lambda a: {"items": a["x"]})

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(3) == 6
    tracer.run = 1
    with pytest.raises(ValueError):
        traced_inner(-1)
    spans = tracer.finished_spans()
    assert [(s.name, s.parent, s.ok) for s in spans] == [
        ("outer", -1, True), ("inner", 0, True), ("inner", 0, True), ("inner", -1, False)
    ]
    totals = layer_totals(spans)
    # outer spans ticks 0..5, its children 1..2 and 3..4
    assert totals[0]["outer"]["busy_s"] == 5.0 and totals[0]["outer"]["self_s"] == 3.0
    assert totals[1]["inner"]["errors"] == 1
    assert tracer.counters[0]["items"] == 6 and tracer.counters[1]["items"] == -1


def test_patch_and_restore_by_identity():
    def f():
        return 1

    a = types.SimpleNamespace(f=f, g=f, h=len)
    b = types.SimpleNamespace(alias=f)
    tracer = Tracer()
    assert tracer.patch(f, tracer.wrap("f", f), (a, b)) == 3
    assert a.f is not f and a.h is len and b.alias() == 1
    tracer.restore()
    assert a.f is f and a.g is f and b.alias is f


def test_normalise_rescales_by_the_median_of_nearby_reference_times():
    nominal = 0.03
    # one slow pass (4x) among the references does not move the result
    refs = [nominal, nominal, 4 * nominal, nominal, nominal, nominal]
    assert reference.normalise([1.0] * 5, refs, nominal) == pytest.approx([1.0] * 5)
    # a machine at half speed doubles both, so the normalised time is unchanged
    slow = reference.normalise([2.0, 2.0], [2 * nominal] * 3, nominal)
    assert slow == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        reference.normalise([1.0, 1.0], [nominal, nominal], nominal)


def test_references_are_independent_of_the_package():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import reference; "
        "reference.measure(); "
        "exec(reference.SETUP_REF_ARGS[1]); "
        "assert not [m for m in sys.modules if m.startswith('opinion_limits')]"
    )
    subprocess.run([sys.executable, "-c", code, BENCH], check=True, cwd=ROOT, timeout=60)


def _modules():
    from opinion_limits import abm, analysis, cli, dem, kernel, limitcheck, trajectory

    return abm, analysis, cli, dem, kernel, limitcheck, trajectory


def test_install_tracing_binds_every_span_and_restores_every_name():
    modules = _modules()
    before = [dict(vars(m)) for m in modules] + [dict(vars(modules[-1].Trajectory))]
    tracer = Tracer()
    assert worker.install_tracing(tracer, modules) == []
    assert modules[2].run_abm is not before[2]["run_abm"]
    tracer.restore()
    after = [dict(vars(m)) for m in modules] + [dict(vars(modules[-1].Trajectory))]
    for b, a in zip(before, after):
        assert a.keys() == b.keys() and all(a[k] is b[k] for k in b)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload run once at seed 0: name -> (output dir, resolved config)."""
    from opinion_limits.cli import run_experiment
    from opinion_limits.config import parse_config

    base = tmp_path_factory.mktemp("bench")
    result = {}
    for name, w in WORKLOADS.items():
        cfg = parse_config(w.config(0, str(base / name)))
        with contextlib.redirect_stdout(io.StringIO()):
            run_experiment(cfg)
        result[name] = (str(base / name), cfg)
    return result


def _corrupt(outputs, name, tmp_path):
    src, cfg = outputs[name]
    dst = str(tmp_path / name)
    shutil.copytree(src, dst)
    return dst, cfg.to_dict()


def _rewrite(path, values):
    with open(path) as f:
        header = f.readline()
    with open(path, "w") as f:
        f.write(header)
        for row in np.atleast_2d(values):
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _load(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_real_outputs(outputs, name):
    out, cfg = outputs[name]
    ok, detail = WORKLOADS[name].check(out, cfg.to_dict())
    assert ok, detail


def test_ensemble_check_rejects_means_shifted_by_10_se(outputs, tmp_path):
    out, cfg = _corrupt(outputs, "ensemble_external", tmp_path)
    r = cfg["experiment"]["n_runs"]
    mean = _load(os.path.join(out, "abm_mean.csv"))
    se = np.sqrt((_load(os.path.join(out, "abm_var.csv"))[:, 1:]
                  + _load(os.path.join(out, "dem_var.csv"))[:, 1:]) / r)
    mean[:, 1:] += 10 * se
    _rewrite(os.path.join(out, "abm_mean.csv"), mean)
    ok, detail = WORKLOADS["ensemble_external"].check(out, cfg)
    assert not ok, detail


def test_sweep_check_rejects_swapped_medians(outputs, tmp_path):
    out, cfg = _corrupt(outputs, "sweep_proportional", tmp_path)
    rows = _load(os.path.join(out, "errors.csv"))
    small, large = rows[:, 0].min(), rows[:, 0].max()
    rows[:, 0] = np.where(rows[:, 0] == small, large, small)
    _rewrite(os.path.join(out, "errors.csv"), rows)
    ok, detail = WORKLOADS["sweep_proportional"].check(out, cfg)
    assert not ok, detail


def test_limitcheck_check_rejects_a_fail_line(outputs, tmp_path):
    out, cfg = _corrupt(outputs, "limitcheck_mc", tmp_path)
    path = os.path.join(out, "summary.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    lines[1] = lines[1].replace("PASS", "FAIL")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    ok, detail = WORKLOADS["limitcheck_mc"].check(out, cfg)
    assert not ok and "FAIL" in detail


def test_compare_check_rejects_nonfinite_short_and_distant_outputs(outputs, tmp_path):
    check = WORKLOADS["compare_n500"].check
    out, cfg = _corrupt(outputs, "compare_n500", tmp_path / "nan")
    abm = _load(os.path.join(out, "abm.csv"))
    abm[3, 7] = np.nan
    _rewrite(os.path.join(out, "abm.csv"), abm)
    assert not check(out, cfg)[0]

    out, cfg = _corrupt(outputs, "compare_n500", tmp_path / "short")
    _rewrite(os.path.join(out, "dem.csv"), _load(os.path.join(out, "dem.csv"))[:-1])
    assert not check(out, cfg)[0]

    # a consistent error.csv whose per-agent gap exceeds the bound
    out, cfg = _corrupt(outputs, "compare_n500", tmp_path / "far")
    abm, dem = _load(os.path.join(out, "abm.csv")), _load(os.path.join(out, "dem.csv"))
    dem[:, 1:] += 0.1
    err = np.column_stack([dem[:, 0], np.abs(abm[:, 1:] - dem[:, 1:]).sum(axis=1)])
    _rewrite(os.path.join(out, "dem.csv"), dem)
    _rewrite(os.path.join(out, "error.csv"), err)
    ok, detail = check(out, cfg)
    assert not ok and "bound" in detail


def test_traced_limitcheck_bypasses_abm_and_integrate(tmp_path):
    from opinion_limits.config import parse_config

    modules = _modules()
    cfg = parse_config(WORKLOADS["limitcheck_mc"].config(3, str(tmp_path)))
    tracer = Tracer()
    try:
        worker.install_tracing(tracer, modules)
        with contextlib.redirect_stdout(io.StringIO()):
            modules[2].run_experiment(cfg)
    finally:
        tracer.restore()
    totals = layer_totals(tracer.finished_spans())[0]
    m = worker.per_layer_of_run(totals, tracer.counters[0], 0)
    assert m["cli.run_experiment.calls"] == 1
    assert m["abm.run_abm.calls"] == 0 and m["dem.integrate.calls"] == 0
    assert m["limitcheck.mc_coefficients.calls"] == 9
    assert m["limitcheck.mc_samples"] == 9 * 100_000
    assert m["limitcheck.mc_samples_per_s"] > 0 and m["abm.steps_per_s"] == 0.0


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
