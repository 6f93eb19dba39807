"""Golden hashes pinning the random stream of the ABM engine and the limit.

run_abm promises bit-identical trajectories per seed, and mc_coefficients
promises bit-identical estimates per seed under single-update schemes.
Each case below runs one selection scheme x noise kind variant
from a fixed seed and compares the sha256 of the raw float64 output with
a recorded value, so any refactor that moves a draw or reorders the
arithmetic of a step shows up here. The same variants pin the limiting
system: integrate(build_limit(spec), ...) for every variant with a derived
limit (Euler-Maruyama from a fixed seed where there is diffusion), and the
convergence_sweep rows measured against it.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from opinion_limits import abm, dem
from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    run_abm,
)
from opinion_limits.cli import main
from opinion_limits.dem import IntegratorSpec, NoDerivedLimitError, build_limit, integrate
from opinion_limits.kernel import MollifiedBC, NormalMollifier, erdos_renyi
from opinion_limits.limitcheck import convergence_sweep, mc_coefficients
from opinion_limits.noise import Degenerate, GaussianScaled, NoiseFamily, NoiseKind

KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))

# (name, selection factory of n)
_SCHEMES = [
    ("uwr_single", lambda n: UniformWithReplacement()),
    ("uwr_both", lambda n: UniformWithReplacement(both_update=True)),
    ("uwor", lambda n: UniformWithoutReplacement()),
    ("degree", lambda n: DegreeWeighted(erdos_renyi(n, 0.5, seed=n))),
    ("proportional", lambda n: ProbabilityProportional()),
    ("proportional_double", lambda n: ProbabilityProportional(double_weighting=True)),
]
_KINDS = list(NoiseKind)


def _noise(kind: NoiseKind, n: int) -> NoiseFamily:
    if kind is NoiseKind.NONE:
        return NoiseFamily()
    if kind is NoiseKind.RANDOM_UPDATE_DISTANCE:
        return NoiseFamily(kind, GaussianScaled(float(n), 2.0))
    return NoiseFamily(kind, GaussianScaled(0.0, 0.05))


def _case(si: int, ki: int):
    name, selection = _SCHEMES[si]
    kind = _KINDS[ki]
    n = 6 + (si + ki) % 5
    spec = ModelSpec(
        n_agents=n,
        h=1e-3,
        horizon=2.0,
        kernel=KERNEL,
        selection=selection(n),
        noise=_noise(kind, n),
    )
    x0 = np.random.default_rng([7, si, ki]).uniform(-1.0, 1.0, n)
    return f"{name}-{kind.value}", spec, x0, [7, si, ki, 1]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


_ALL = [(si, ki) for si in range(len(_SCHEMES)) for ki in range(len(_KINDS))]
_SINGLE = [(si, ki) for si, ki in _ALL if _SCHEMES[si][0] != "uwr_both"]

# The engine version the run_abm and mc_coefficients hashes were checked
# under. A change to the random stream bumps abm.ENGINE_VERSION, so that
# older manifests are refused, and re-records the hashes with it; a bump
# for other outputs re-records only their hashes (4: ensemble variances,
# none; 5: exact coefficients, the noise-free sweep hashes; 6: banded limit
# fields at N >= dem._BAND_MIN_AGENTS, none: every case here is smaller;
# 7: fourth powers as squared squares, the sweep hashes whose gamma4 moved;
# 8: Monte Carlo batches of 4096 steps, every mc_coefficients hash and the
# noisy sweep hashes; 9: the vendored normal CDF, the integrate hashes whose
# fields moved by rounding).
GOLDEN_ENGINE = 9


def test_golden_hashes_match_engine_version():
    assert abm.ENGINE_VERSION == GOLDEN_ENGINE


# first 16 hex digits of each sha256
RUN_ABM_SHA256 = {
    "uwr_single-none": "7b45da1518ce8afc",
    "uwr_single-ambiguity": "9e7ce75a8dc1059a",
    "uwr_single-external": "7cf68f4b56b3d7c9",
    "uwr_single-adaptation": "9c49a15585e74289",
    "uwr_single-random_update_distance": "136610f2c439c95a",
    "uwr_both-none": "661c6909fdd8e74c",
    "uwr_both-ambiguity": "434c147be70c8dd7",
    "uwr_both-external": "3cf16d9de2369939",
    "uwr_both-adaptation": "8c0452934e0c1514",
    "uwr_both-random_update_distance": "fcc3428cc7a0a336",
    "uwor-none": "91a9b2a498e088ec",
    "uwor-ambiguity": "bd026579672d0863",
    "uwor-external": "d2c362ed344cc81b",
    "uwor-adaptation": "40d611bb657c6585",
    "uwor-random_update_distance": "35283641bdea037f",
    "degree-none": "f081f812c91a4452",
    "degree-ambiguity": "c9829194e634279a",
    "degree-external": "1214dfc8c58a3cd8",
    "degree-adaptation": "31a52398acac7f1c",
    "degree-random_update_distance": "fb837d6d671efa8d",
    "proportional-none": "a35712bda2a3eb88",
    "proportional-ambiguity": "3d3507f1c3d977e3",
    "proportional-external": "62b349aa3b6dc79c",
    "proportional-adaptation": "83e01287fa9398db",
    "proportional-random_update_distance": "64dc349f3588bbd8",
    "proportional_double-none": "4f6a3b7dbcdc0f8a",
    "proportional_double-ambiguity": "f0c2a0062311071e",
    "proportional_double-external": "98056697a28cc6c0",
    "proportional_double-adaptation": "42cea38c915595d8",
    "proportional_double-random_update_distance": "64078babd4b1a5b9",
}

MC_SHA256 = {
    "uwr_single-none": "76a2898a755b5f69",
    "uwr_single-ambiguity": "4995e3c1520683c8",
    "uwr_single-external": "2112b4ab08b79219",
    "uwr_single-adaptation": "83ec8f9635d56289",
    "uwr_single-random_update_distance": "bfea5d0c8b9ccc15",
    "uwor-none": "92830aeeaefb25c7",
    "uwor-ambiguity": "c3b2344f55c6413a",
    "uwor-external": "0417cc1965515812",
    "uwor-adaptation": "9f5874b9b49854ff",
    "uwor-random_update_distance": "0fd44f44cb0bd062",
    "degree-none": "4e090581c1e998b7",
    "degree-ambiguity": "4b8e1f883c6b76ec",
    "degree-external": "6e01ab4fc52b498e",
    "degree-adaptation": "73865fef30249d1f",
    "degree-random_update_distance": "32b8c25482f9877b",
    "proportional-none": "4020ae9607d45f72",
    "proportional-ambiguity": "041a0db8cdbfd9ce",
    "proportional-external": "2b64b536128cba21",
    "proportional-adaptation": "a8bf825019686176",
    "proportional-random_update_distance": "aeb527f853a8b781",
    "proportional_double-none": "4761bbc21a32b01c",
    "proportional_double-ambiguity": "8cb3b408da4a27f7",
    "proportional_double-external": "b94ddd73207a0873",
    "proportional_double-adaptation": "a6fe2ebd24708389",
    "proportional_double-random_update_distance": "a74da60f3f8f7713",
}


@pytest.mark.parametrize("si,ki", _ALL)
def test_run_abm_golden_hash(si, ki):
    label, spec, x0, seed = _case(si, ki)
    traj = run_abm(spec, x0, np.linspace(0.0, 2.0, 5), np.random.default_rng(seed))
    assert _sha(traj.values) == RUN_ABM_SHA256[label], label


@pytest.mark.parametrize("si,ki", _SINGLE)
def test_mc_coefficients_golden_hash(si, ki):
    label, spec, x0, seed = _case(si, ki)
    rep = mc_coefficients(x0, spec, 10_000, np.random.default_rng(seed))
    assert _sha(rep.b_h, rep.a_h_diag) == MC_SHA256[label], label


def _integrate(spec, x0, seed):
    traj = integrate(
        build_limit(spec), x0, IntegratorSpec(dt=0.01), 2.0, np.linspace(0.0, 2.0, 5),
        np.random.default_rng(seed),
    )
    return traj.values


# variants without an entry here have no derived limit
INTEGRATE_SHA256 = {
    "uwr_single-none": "08eb7fdd1a1d7825",
    "uwr_single-ambiguity": "8142ee28b5288040",
    "uwr_single-external": "717bc9e2c08bf4ca",
    "uwr_single-adaptation": "0c3b8d3924f69bcd",
    "uwr_single-random_update_distance": "2df8a5d80cd6c9dd",
    "uwr_both-none": "a2497c9dd37d53db",
    "uwor-none": "94b41b248848359c",
    "degree-none": "49bc07b346d4c2a9",
    "proportional-none": "ce3fd1f825c8f7e5",
    "proportional_double-none": "3a9d12c914e7d14b",
}


@pytest.mark.parametrize("si,ki", _ALL)
def test_integrate_golden_hash(si, ki):
    label, spec, x0, seed = _case(si, ki)
    if label not in INTEGRATE_SHA256:
        with pytest.raises(NoDerivedLimitError):
            build_limit(spec)
        return
    assert _sha(_integrate(spec, x0, seed + [2])) == INTEGRATE_SHA256[label], label


def test_integrate_golden_hash_degenerate_noise():
    label, spec, x0, seed = _case(0, _KINDS.index(NoiseKind.RANDOM_UPDATE_DISTANCE))
    noise = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(float(spec.n_agents)))
    spec = replace(spec, noise=noise)
    assert not build_limit(spec).has_diffusion
    assert _sha(_integrate(spec, x0, seed + [2])) == "b27f2e1697f1875b", label


# the same limits at 128 agents, where every scheme but degree-weighted
# selection evaluates them banded; a random update distance keeps the
# dense form
INTEGRATE_BANDED_SHA256 = {
    "uwr_single-none": "9c8290931c5f209c",
    "uwr_single-ambiguity": "67ae42b6ad144d58",
    "uwr_single-external": "57b3524df5e1c977",
    "uwr_single-adaptation": "bde69c9f509e2c42",
    "uwr_single-random_update_distance": "22965240ca954e7f",
    "uwr_both-none": "dc9818c273dcd0d5",
    "uwor-none": "89a9a1f2b6842218",
    "proportional-none": "6980d644006a7948",
    "proportional_double-none": "433c27d8d21e2eda",
}


@pytest.mark.parametrize("label", sorted(INTEGRATE_BANDED_SHA256))
def test_integrate_banded_golden_hash(label):
    n = 128
    assert n >= dem._BAND_MIN_AGENTS
    name, kind = label.split("-")
    si = [s[0] for s in _SCHEMES].index(name)
    ki = _KINDS.index(NoiseKind(kind))
    _, spec, _, seed = _case(si, ki)
    spec = replace(spec, n_agents=n, selection=_SCHEMES[si][1](n), noise=_noise(_KINDS[ki], n))
    x0 = np.random.default_rng([7, si, ki, n]).uniform(-1.0, 1.0, n)
    assert _sha(_integrate(spec, x0, seed + [2])) == INTEGRATE_BANDED_SHA256[label], label


# one noise-free and one noisy variant per limit form: exact targets for the
# degree and proportional normalisations, Monte Carlo for each diffusion
SWEEP_SHA256 = {
    "degree-none": "03ce54b9945f341f",
    "proportional_double-none": "ab6de096bcd26c26",
    "uwr_single-external": "2b16395b00424dbc",
    "uwr_single-adaptation": "09b07db947f81613",
    "uwr_single-random_update_distance": "b97141f4ffe582c1",
}


@pytest.mark.parametrize("label", sorted(SWEEP_SHA256))
def test_convergence_sweep_golden_hash(label):
    name, kind = label.split("-")
    si = [s[0] for s in _SCHEMES].index(name)
    label, spec, x0, seed = _case(si, _KINDS.index(NoiseKind(kind)))
    rows = convergence_sweep(
        x0, spec, build_limit(spec), [1e-2, 1e-3, 1e-4], 10_000, np.random.default_rng(seed)
    )
    values = [(r.h, r.b_deviation, r.a_deviation, r.gamma4) for r in rows]
    assert _sha(values) == SWEEP_SHA256[label], label


# One small config per CLI experiment. Each output file but manifest.json
# (which records the software versions and the output directory) is pinned
# by its sha256 under GOLDEN_ENGINE, so a refactor that moves an experiment
# off its stream tags or its run order shows up here. sweep_h and ensemble
# run at --threads 1 and 2 against the same hashes; 48 ensemble runs make
# two blocks of 24, so both forms go through the batched engines.
CLI_CONFIGS = {
    "compare": """
[experiment]
type = compare
base_seed = 5

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
h_list = 1e-2,1e-3
runs_per_h = 2
base_seed = 5

[model]
n_agents = 6
h = 1e-3
horizon = 0.2
""",
    "ensemble": """
[experiment]
type = ensemble
n_runs = 48
base_seed = 5

[model]
n_agents = 5
h = 1e-3
horizon = 0.1

[noise]
kind = external
var_per_h = 0.05
""",
    "limitcheck": """
[experiment]
type = limitcheck
h_list = 1e-2,1e-3
n_states = 1
samples = 10000
base_seed = 5

[model]
n_agents = 5
h = 1e-3
horizon = 1.0

[noise]
kind = adaptation
var_per_h = 0.05
""",
}

CLI_SHA256 = {
    "compare": {
        "abm.csv": "4cd38e41c03147c3",
        "dem.csv": "9e4f0a0abafea3dc",
        "error.csv": "984b4172767c4db4",
    },
    "sweep_h": {"errors.csv": "39ea424f7cfb1266"},
    "ensemble": {
        "abm_mean.csv": "2cbcac8feb6ce107",
        "abm_var.csv": "02aca3d2c1b93663",
        "dem_mean.csv": "2e0c529234539d0f",
        "dem_var.csv": "4d0ad1e39324ee1b",
        "mean_error.csv": "0c6c364ae49f176c",
        "var_error.csv": "84aae8d645448828",
    },
    "limitcheck": {"limitcheck.csv": "3c802b94dc063e64", "summary.txt": "8901fb658e62ab2b"},
}

_CLI_CASES = [
    ("compare", 1), ("sweep_h", 1), ("sweep_h", 2), ("ensemble", 1), ("ensemble", 2),
    ("limitcheck", 1),
]


@pytest.mark.parametrize("experiment, threads", _CLI_CASES)
def test_cli_outputs_golden_hash(tmp_path, experiment, threads):
    config = tmp_path / "exp.ini"
    config.write_text(CLI_CONFIGS[experiment])
    out = tmp_path / "out"
    assert main([str(config), "--out", str(out), "--threads", str(threads)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(out.iterdir()) if p.name != "manifest.json"
    }
    assert got == CLI_SHA256[experiment]
