"""Experiment configuration: strict parsing, validation, defaults, and
the one build of an experiment's model, initial state and limit.

Config files are INI-style: named sections of key = value lines. The
schema states each key's type, or the strings an enumerated key accepts,
and every key given is checked against it, whether or not the experiment
reads it; unknown sections or keys are errors.
The fully resolved configuration (all defaults filled in) round-trips
through a plain dict, which is what the emitted manifest stores.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    SelectionScheme,
    UniformWithoutReplacement,
    UniformWithReplacement,
)
from .dem import IntegratorSpec, LimitModel, build_limit
from .kernel import (
    BoundedConfidence,
    Constant,
    InteractionKernel,
    MollifiedBC,
    Network,
    NormalMollifier,
    UniformMollifier,
    erdos_renyi,
)
from .limitcheck import MIN_MC_SAMPLES
from .noise import Degenerate, GaussianScaled, NoiseFamily, NoiseKind

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "config_from_dict"]


class ConfigError(ValueError):
    """Configuration syntax or schema violation."""


# section -> key -> (type, default); an enumerated key's type is the tuple
# of the strings it accepts
_SCHEMA: dict[str, dict[str, tuple[type | tuple[str, ...], Any]]] = {
    "experiment": {
        "type": (("compare", "sweep_h", "ensemble", "limitcheck"), "compare"),
        "base_seed": (int, 0),
        "h_list": (str, "1e-2,1e-3,1e-4"),
        "runs_per_h": (int, 20),
        "n_runs": (int, 500),
        "samples": (int, 100_000),
        "n_states": (int, 100),
        "b_tol": (float, 1e-9),
        "output_dir": (str, "out"),
        "error_norm": (("duration", "samples"), "duration"),
    },
    "model": {
        "n_agents": (int, 50),
        "h": (float, 1e-5),
        "horizon": (float, 20.0),
    },
    "kernel": {
        "type": (("bounded_confidence", "constant", "mollified_bc"), "mollified_bc"),
        "radius": (float, 0.5),
        "value": (float, 1.0),
        "mollifier": (("normal", "uniform"), "normal"),
        "mean": (float, 0.0),
        "std": (float, 0.01),
        "lo": (float, -0.05),
        "hi": (float, 0.05),
    },
    "selection": {
        "scheme": (
            (
                "uniform_with_replacement",
                "uniform_with_replacement_both",
                "uniform_without_replacement",
                "degree_weighted",
                "probability_proportional",
                "probability_proportional_double",
            ),
            "uniform_with_replacement",
        ),
        "p_conn": (float, 0.1),
        "network_seed": (int, 1),
        "network_file": (str, ""),
    },
    "noise": {
        "kind": (tuple(k.value for k in NoiseKind), "none"),
        "law": (("gaussian", "degenerate"), "gaussian"),
        "mean_per_h": (float, 0.0),
        "var_per_h": (float, 0.0),
        "value_per_h": (float, 0.0),
    },
    "dem": {
        "dt": (float, 0.01),
    },
    "init": {
        "x0": (("uniform", "explicit"), "uniform"),
        "lo": (float, -1.0),
        "hi": (float, 1.0),
        "seed": (int, 1000),
        "values": (str, ""),
    },
}


# the keys that seed a numpy stream, which takes only a non-negative integer
_SEEDS = (("experiment", "base_seed"), ("selection", "network_seed"), ("init", "seed"))


def _coerce(section: str, key: str, raw: Any, typ: type | tuple[str, ...]):
    """raw as a value of [section] key, or a ConfigError if the key refuses it.

    typ is the key's type or the tuple of the strings it accepts. A string
    key takes only a str (INI text and written manifests give one, so a
    JSON null is no path). A value of another type is parsed from its text,
    so a bool is no int; a float must be finite.
    """
    choices = typ if isinstance(typ, tuple) else ()
    typ = str if choices else typ
    if typ is str and not isinstance(raw, str):
        raise ConfigError(f"[{section}] {key}: expected a string, got {raw!r}")
    value = raw
    if type(raw) is not typ:
        s = str(raw).strip()
        try:
            value = typ(s)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: cannot parse {s!r} as {typ.__name__}"
            ) from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {value}")
    if choices and value not in choices:
        raise ConfigError(
            f"[{section}] {key}: unknown value {value!r}; expected one of {', '.join(choices)}"
        )
    return value


@contextmanager
def _section(name: str):
    """Report a ValueError raised inside the block as a ConfigError of [name];
    a ConfigError, already labelled, passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"[{name}] {e}") from None


def _resolve(raw: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    if not isinstance(raw, dict):
        raise ConfigError("a config is a table of sections")
    for section, entries in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        if not isinstance(entries, dict):
            raise ConfigError(f"[{section}] is not a table of keys")
        for key in entries:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    resolved: dict[str, dict[str, Any]] = {}
    for section, schema in _SCHEMA.items():
        got = raw.get(section, {})
        resolved[section] = {
            key: _coerce(section, key, got[key], typ) if key in got else default
            for key, (typ, default) in schema.items()
        }
    return resolved


# the builders below branch on enumerated keys; _coerce admitted only the
# values they name


@_section("kernel")
def _kernel(k: dict[str, Any]) -> InteractionKernel:
    if k["type"] == "bounded_confidence":
        return BoundedConfidence(k["radius"])
    if k["type"] == "constant":
        return Constant(k["value"])
    if k["mollifier"] == "normal":
        return MollifiedBC(k["radius"], NormalMollifier(k["mean"], k["std"]))
    return MollifiedBC(k["radius"], UniformMollifier(k["lo"], k["hi"]))


@_section("selection")
def _selection(r: dict[str, dict[str, Any]]) -> tuple[SelectionScheme, str | None]:
    """The selection scheme, and the sha256 of the network file it read, if any.

    The graph and the hash come from one read of the file, so the hash is
    that of the graph used.
    """
    s = r["selection"]
    scheme = s["scheme"]
    if scheme == "uniform_without_replacement":
        return UniformWithoutReplacement(), None
    if scheme.startswith("probability_proportional"):
        return ProbabilityProportional(double_weighting=scheme.endswith("_double")), None
    if scheme != "degree_weighted":
        return UniformWithReplacement(both_update=scheme.endswith("_both")), None
    if not s["network_file"]:
        network = erdos_renyi(r["model"]["n_agents"], s["p_conn"], s["network_seed"])
        return DegreeWeighted(network), None
    try:
        with open(s["network_file"], "rb") as f:
            data = f.read()
    except OSError as e:
        raise ConfigError(f"[selection] network_file: {e}") from None
    return DegreeWeighted(Network.from_csv_bytes(data)), hashlib.sha256(data).hexdigest()


@_section("noise")
def _noise(nz: dict[str, Any]) -> NoiseFamily:
    kind = NoiseKind(nz["kind"])
    if kind is NoiseKind.NONE:
        return NoiseFamily()
    if nz["law"] == "gaussian":
        return NoiseFamily(kind, GaussianScaled(nz["mean_per_h"], nz["var_per_h"]))
    return NoiseFamily(kind, Degenerate(nz["value_per_h"]))


def _x0(init: dict[str, Any], n: int) -> np.ndarray:
    if init["x0"] == "uniform":
        lo, hi = init["lo"], init["hi"]
        if not 0.0 <= hi - lo < math.inf:
            raise ConfigError(f"[init] lo, hi: need finite lo <= hi, got ({lo}, {hi})")
        return np.random.default_rng(init["seed"]).uniform(lo, hi, n)
    vals = np.array([_coerce("init", "values", v, float) for v in init["values"].split(",")])
    if len(vals) != n:
        raise ConfigError(f"[init] values: expected {n} entries, got {len(vals)}")
    return vals


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A resolved, validated experiment: the table the manifest stores and
    what config_from_dict built from it, once."""

    raw: dict[str, dict[str, Any]] = field(repr=False)
    spec: ModelSpec
    # None for limitcheck, which integrates nothing and reads no [dem] dt
    integrator: IntegratorSpec | None
    # the sample grid every run of the experiment records at: k * dt
    # rounded to 12 decimals, from 0 to the horizon; None for limitcheck
    times: np.ndarray | None = field(repr=False)
    x0: np.ndarray = field(repr=False)
    h_list: list[float]
    limit: LimitModel = field(repr=False)
    # sha256 of the network file the graph was parsed from, if any
    network_sha256: str | None

    @property
    def experiment(self) -> str:
        return self.raw["experiment"]["type"]

    @property
    def base_seed(self) -> int:
        return self.raw["experiment"]["base_seed"]

    @property
    def output_dir(self) -> str:
        return self.raw["experiment"]["output_dir"]

    @property
    def error_norm(self) -> str:
        return self.raw["experiment"]["error_norm"]

    def to_dict(self) -> dict[str, dict[str, Any]]:
        return {s: dict(v) for s, v in self.raw.items()}


def config_from_dict(data: dict[str, dict[str, Any]]) -> ExperimentConfig:
    """Resolve the table and build its experiment, checking the fields
    against each other; raises ConfigError on the first problem."""
    r = _resolve(data)
    for section, key in _SEEDS:
        if r[section][key] < 0:
            raise ConfigError(f"[{section}] {key}: must be non-negative, got {r[section][key]}")
    exp = r["experiment"]
    experiment = exp["type"]
    kernel = _kernel(r["kernel"])
    selection, network_sha256 = _selection(r)
    noise = _noise(r["noise"])
    with _section("model"):  # [model] holds n_agents, h and horizon
        spec = ModelSpec(**r["model"], kernel=kernel, selection=selection, noise=noise)
    x0 = _x0(r["init"], spec.n_agents)
    entries = exp["h_list"].split(",")
    h_list = [_coerce("experiment", "h_list", v, float) for v in entries if v.strip()]
    # every experiment measures the model against its limit
    try:
        limit = build_limit(spec)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    integrator = times = None
    if experiment != "limitcheck":
        dt = r["dem"]["dt"]
        with _section("dem"):
            integrator = IntegratorSpec(dt=dt)
        # the grid samples at k * dt rounded to 12 decimals, which moves a
        # sample off the dt grid unless dt lies on that decimal grid
        if np.round(dt, 12) != dt:
            raise ConfigError(f"[dem] dt: must be a multiple of 1e-12, got {dt}")
        try:
            steps = integrator.steps(spec.horizon)
        except ValueError as e:
            raise ConfigError(f"[model] horizon: {e}") from None
        times = np.round(np.arange(steps + 1) * dt, 12)
        # run_abm refuses a last sample past the horizon by more than 1e-6 of
        # its step; the grid's end may pass it by rounding, 1e-15 relative,
        # which is less up to 10^9 steps
        if times[-1] > spec.horizon * (1 + 1e-15):
            raise ConfigError(
                f"[model] horizon: {spec.horizon} is not a multiple of dt={dt}; "
                f"the sample grid ends at {times[-1]}"
            )
    if experiment == "sweep_h" and limit.has_diffusion:
        raise ConfigError(
            "sweep_h compares against a deterministic limit; this model's limit has diffusion"
        )
    if experiment in ("sweep_h", "limitcheck"):
        if not (h_list and all(h > 0 for h in h_list)):
            raise ConfigError("[experiment] h_list: must be a non-empty list of positive steps")
        if experiment == "limitcheck" and len(set(h_list)) < len(h_list):
            raise ConfigError("[experiment] h_list: limitcheck needs distinct steps")
        # sweep_summary's shrink conditions compare the largest h with
        # the smallest, so a single h could only read FAIL
        if experiment == "limitcheck" and len(h_list) < 2:
            raise ConfigError("[experiment] h_list: limitcheck needs at least two steps")
    noisy = noise.kind is not NoiseKind.NONE
    least = {
        "sweep_h": {"runs_per_h": 1},
        "ensemble": {"n_runs": 2},
        "limitcheck": {"n_states": 0, "samples": MIN_MC_SAMPLES if noisy else 0},
    }.get(experiment, {})
    for key, low in least.items():
        got = exp[key]
        if got < low:
            raise ConfigError(f"[experiment] {key}: must be at least {low}, got {got}")
    return ExperimentConfig(r, spec, integrator, times, x0, h_list, limit, network_sha256)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate INI-style configuration text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax error: {e}") from None
    raw = {section: dict(parser[section]) for section in parser.sections()}
    return config_from_dict(raw)
