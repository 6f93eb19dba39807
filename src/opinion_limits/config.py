"""Experiment configuration: strict parsing, validation, defaults.

Config files are INI-style: named sections of key = value lines. Every
key is checked against the schema; unknown sections or keys are errors.
The fully resolved configuration (all defaults filled in) round-trips
through a plain dict, which is what the emitted manifest stores.
"""

from __future__ import annotations

import configparser
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
    UpdateMode,
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


# section -> key -> (type, default)
_SCHEMA: dict[str, dict[str, tuple[type, Any]]] = {
    "experiment": {
        "type": (str, "compare"),
        "base_seed": (int, 0),
        "h_list": (str, "1e-2,1e-3,1e-4"),
        "runs_per_h": (int, 20),
        "n_runs": (int, 500),
        "samples": (int, 100_000),
        "n_states": (int, 100),
        "b_tol": (float, 1e-9),
        "output_dir": (str, "out"),
        "error_norm": (str, "duration"),
    },
    "model": {
        "n_agents": (int, 50),
        "h": (float, 1e-5),
        "horizon": (float, 20.0),
        "update_mode": (str, "single"),
    },
    "kernel": {
        "type": (str, "mollified_bc"),
        "radius": (float, 0.5),
        "value": (float, 1.0),
        "mollifier": (str, "normal"),
        "mean": (float, 0.0),
        "std": (float, 0.01),
        "lo": (float, -0.05),
        "hi": (float, 0.05),
    },
    "selection": {
        "scheme": (str, "uniform_with_replacement"),
        "p_conn": (float, 0.1),
        "network_seed": (int, 1),
        "network_file": (str, ""),
    },
    "noise": {
        "kind": (str, "none"),
        "law": (str, "gaussian"),
        "mean_per_h": (float, 0.0),
        "var_per_h": (float, 0.0),
        "value_per_h": (float, 0.0),
    },
    "dem": {
        "dt": (float, 0.01),
    },
    "init": {
        "x0": (str, "uniform"),
        "lo": (float, -1.0),
        "hi": (float, 1.0),
        "seed": (int, 1000),
        "values": (str, ""),
    },
}

_EXPERIMENTS = ("compare", "sweep_h", "ensemble", "limitcheck")


def _coerce(section: str, key: str, raw: Any, typ: type):
    if isinstance(raw, typ):
        return raw
    s = str(raw).strip()
    try:
        return typ(s)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {s!r} as {typ.__name__}"
        ) from None


@contextmanager
def _section(name: str):
    """Report a ValueError raised inside the block as a ConfigError of [name]."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"[{name}] {e}") from None


def _resolve(raw: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    resolved: dict[str, dict[str, Any]] = {}
    for section, entries in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        schema = _SCHEMA[section]
        for key in entries:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
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
    experiment: str = "compare"

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
        try:
            return [float(v) for v in self.raw["experiment"]["h_list"].split(",") if v.strip()]
        except ValueError:
            raise ConfigError("[experiment] h_list: expected comma-separated floats") from None

    @_section("kernel")
    def kernel(self) -> InteractionKernel:
        k = self.raw["kernel"]
        if k["type"] == "bounded_confidence":
            return BoundedConfidence(k["radius"])
        if k["type"] == "constant":
            return Constant(k["value"])
        if k["type"] == "mollified_bc":
            if k["mollifier"] == "normal":
                return MollifiedBC(k["radius"], NormalMollifier(k["mean"], k["std"]))
            if k["mollifier"] == "uniform":
                return MollifiedBC(k["radius"], UniformMollifier(k["lo"], k["hi"]))
            raise ConfigError(f"[kernel] mollifier: unknown value {k['mollifier']!r}")
        raise ConfigError(f"[kernel] type: unknown value {k['type']!r}")

    def network(self) -> Network:
        s = self.raw["selection"]
        if s["network_file"]:
            return Network.from_csv(s["network_file"])
        return erdos_renyi(self.raw["model"]["n_agents"], s["p_conn"], s["network_seed"])

    @_section("selection")
    def selection(self) -> SelectionScheme:
        scheme = self.raw["selection"]["scheme"]
        if scheme == "uniform_with_replacement":
            return UniformWithReplacement()
        if scheme == "uniform_without_replacement":
            return UniformWithoutReplacement()
        if scheme == "degree_weighted":
            return DegreeWeighted(self.network())
        if scheme == "probability_proportional":
            return ProbabilityProportional()
        if scheme == "probability_proportional_double":
            return ProbabilityProportional(double_weighting=True)
        raise ConfigError(f"[selection] scheme: unknown value {scheme!r}")

    @_section("noise")
    def noise(self) -> NoiseFamily:
        nz = self.raw["noise"]
        try:
            kind = NoiseKind(nz["kind"])
        except ValueError:
            raise ConfigError(f"[noise] kind: unknown value {nz['kind']!r}") from None
        if kind is NoiseKind.NONE:
            return NoiseFamily()
        if nz["law"] == "gaussian":
            return NoiseFamily(kind, GaussianScaled(nz["mean_per_h"], nz["var_per_h"]))
        if nz["law"] == "degenerate":
            return NoiseFamily(kind, Degenerate(nz["value_per_h"]))
        raise ConfigError(f"[noise] law: unknown value {nz['law']!r}")

    def model_spec(self) -> ModelSpec:
        m = self.raw["model"]
        try:
            mode = UpdateMode(m["update_mode"])
        except ValueError:
            raise ConfigError(f"[model] update_mode: unknown value {m['update_mode']!r}") from None
        kernel, selection, noise = self.kernel(), self.selection(), self.noise()
        with _section("model"):
            return ModelSpec(
                n_agents=m["n_agents"],
                h=m["h"],
                horizon=m["horizon"],
                kernel=kernel,
                selection=selection,
                update_mode=mode,
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
        if init["x0"] == "explicit":
            try:
                vals = np.array([float(v) for v in init["values"].split(",")])
            except ValueError:
                raise ConfigError("[init] values: expected comma-separated floats") from None
            if len(vals) != n:
                raise ConfigError(f"[init] values: expected {n} entries, got {len(vals)}")
            return vals
        raise ConfigError(f"[init] x0: unknown value {init['x0']!r}")

    def validate(self) -> None:
        """Cross-field validation; raises ConfigError on the first problem."""
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"[experiment] type: unknown value {self.experiment!r}; "
                f"expected one of {', '.join(_EXPERIMENTS)}"
            )
        if self.error_norm not in ("duration", "samples"):
            raise ConfigError(f"[experiment] error_norm: unknown value {self.error_norm!r}")
        spec = self.model_spec()
        self.x0()
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
            h_list = self.h_list
            if not (h_list and all(h > 0 for h in h_list)):
                raise ConfigError("[experiment] h_list: must be a non-empty list of positive steps")
            if self.experiment == "limitcheck" and len(set(h_list)) < len(h_list):
                raise ConfigError("[experiment] h_list: limitcheck needs distinct steps")
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
    resolved = _resolve(data)
    cfg = ExperimentConfig(raw=resolved, experiment=resolved["experiment"]["type"])
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
