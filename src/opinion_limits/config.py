"""Experiment configuration: strict parsing, validation, defaults.

Config files are INI-style: named sections of key = value lines. The
schema states each key's type, or the strings an enumerated key accepts,
and every key given is checked against it, whether or not the experiment
reads it; unknown sections or keys are errors.
The fully resolved configuration (all defaults filled in) round-trips
through a plain dict, which is what the emitted manifest stores.
"""

from __future__ import annotations

import configparser
import functools
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
from .dem import IntegratorSpec, build_limit
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved and validated experiment configuration."""

    raw: dict[str, dict[str, Any]] = field(repr=False)

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

    @property
    def h_list(self) -> list[float]:
        entries = self.raw["experiment"]["h_list"].split(",")
        return [_coerce("experiment", "h_list", v, float) for v in entries if v.strip()]

    # the builders below branch on enumerated keys; _coerce admitted only
    # the values they name

    @_section("kernel")
    def kernel(self) -> InteractionKernel:
        k = self.raw["kernel"]
        if k["type"] == "bounded_confidence":
            return BoundedConfidence(k["radius"])
        if k["type"] == "constant":
            return Constant(k["value"])
        if k["mollifier"] == "normal":
            return MollifiedBC(k["radius"], NormalMollifier(k["mean"], k["std"]))
        return MollifiedBC(k["radius"], UniformMollifier(k["lo"], k["hi"]))

    @functools.cached_property
    def _network_bytes(self) -> bytes:
        """The bytes of network_file, read once per config: the graph and its
        sha256 both come from them, so the hash is that of the graph used."""
        path = self.raw["selection"]["network_file"]
        try:
            with open(path, "rb") as f:
                return f.read()
        except OSError as e:
            raise ConfigError(f"[selection] network_file: {e}") from None

    def network(self) -> Network:
        s = self.raw["selection"]
        if s["network_file"]:
            return Network.from_csv_bytes(self._network_bytes)
        return erdos_renyi(self.raw["model"]["n_agents"], s["p_conn"], s["network_seed"])

    def network_sha256(self) -> str | None:
        """sha256 of the network file the selection scheme reads, if any."""
        s = self.raw["selection"]
        if s["scheme"] != "degree_weighted" or not s["network_file"]:
            return None
        return hashlib.sha256(self._network_bytes).hexdigest()

    @_section("selection")
    def selection(self) -> SelectionScheme:
        scheme = self.raw["selection"]["scheme"]
        if scheme == "uniform_without_replacement":
            return UniformWithoutReplacement()
        if scheme == "degree_weighted":
            return DegreeWeighted(self.network())
        if scheme.startswith("probability_proportional"):
            return ProbabilityProportional(double_weighting=scheme.endswith("_double"))
        return UniformWithReplacement(both_update=scheme.endswith("_both"))

    @_section("noise")
    def noise(self) -> NoiseFamily:
        nz = self.raw["noise"]
        kind = NoiseKind(nz["kind"])
        if kind is NoiseKind.NONE:
            return NoiseFamily()
        if nz["law"] == "gaussian":
            return NoiseFamily(kind, GaussianScaled(nz["mean_per_h"], nz["var_per_h"]))
        return NoiseFamily(kind, Degenerate(nz["value_per_h"]))

    def model_spec(self) -> ModelSpec:
        m = self.raw["model"]
        kernel, selection, noise = self.kernel(), self.selection(), self.noise()
        with _section("model"):
            return ModelSpec(
                n_agents=m["n_agents"],
                h=m["h"],
                horizon=m["horizon"],
                kernel=kernel,
                selection=selection,
                noise=noise,
            )

    @_section("dem")
    def integrator(self) -> IntegratorSpec:
        return IntegratorSpec(dt=self.raw["dem"]["dt"])

    def x0(self) -> np.ndarray:
        init = self.raw["init"]
        n = self.raw["model"]["n_agents"]
        if init["x0"] == "uniform":
            lo, hi = init["lo"], init["hi"]
            if not 0.0 <= hi - lo < math.inf:
                raise ConfigError(f"[init] lo, hi: need finite lo <= hi, got ({lo}, {hi})")
            return np.random.default_rng(init["seed"]).uniform(lo, hi, n)
        vals = np.array([_coerce("init", "values", v, float) for v in init["values"].split(",")])
        if len(vals) != n:
            raise ConfigError(f"[init] values: expected {n} entries, got {len(vals)}")
        return vals

    def validate(self) -> None:
        """Cross-field validation; raises ConfigError on the first problem."""
        spec = self.model_spec()
        self.x0()
        h_list = self.h_list
        # every experiment measures the model against its limit
        try:
            model = build_limit(spec)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.experiment in ("compare", "sweep_h", "ensemble"):
            integrator = self.integrator()
            try:
                integrator.steps(spec.horizon)
            except ValueError as e:
                raise ConfigError(f"[model] horizon: {e}") from None
        if self.experiment == "sweep_h" and model.has_diffusion:
            raise ConfigError(
                "sweep_h compares against a deterministic limit; this model's limit has diffusion"
            )
        if self.experiment in ("sweep_h", "limitcheck"):
            if not (h_list and all(h > 0 for h in h_list)):
                raise ConfigError("[experiment] h_list: must be a non-empty list of positive steps")
            if self.experiment == "limitcheck" and len(set(h_list)) < len(h_list):
                raise ConfigError("[experiment] h_list: limitcheck needs distinct steps")
            # sweep_summary's shrink conditions compare the largest h with
            # the smallest, so a single h could only read FAIL
            if self.experiment == "limitcheck" and len(h_list) < 2:
                raise ConfigError("[experiment] h_list: limitcheck needs at least two steps")
        noisy = spec.noise.kind is not NoiseKind.NONE
        least = {
            "sweep_h": {"runs_per_h": 1},
            "ensemble": {"n_runs": 2},
            "limitcheck": {"n_states": 0, "samples": MIN_MC_SAMPLES if noisy else 0},
        }.get(self.experiment, {})
        for key, low in least.items():
            got = self.raw["experiment"][key]
            if got < low:
                raise ConfigError(f"[experiment] {key}: must be at least {low}, got {got}")

    def to_dict(self) -> dict[str, dict[str, Any]]:
        return {s: dict(v) for s, v in self.raw.items()}


def config_from_dict(data: dict[str, dict[str, Any]]) -> ExperimentConfig:
    cfg = ExperimentConfig(raw=_resolve(data))
    cfg.validate()
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate INI-style configuration text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax error: {e}") from None
    raw = {section: dict(parser[section]) for section in parser.sections()}
    return config_from_dict(raw)
