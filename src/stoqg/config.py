"""Run-configuration schema: strict JSON ingestion and normalization.

Configs are JSON documents with sections model / spectrum / sim / analysis /
io. Validation is strict: unknown keys are rejected and every error names the
offending key path, because silently ignored typos are the main
reproducibility hazard in experiment configs. Loading is two passes:
`normalize` checks the schema (defaults filled in, output times snapped onto
the step grid) and is idempotent, so normalize -> serialize -> normalize is a
fixed point; `materialize` builds each model object once, and the value
ranges are checked there, by the constructors.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import DIRICHLET_C1
from .dynamics import InitialCondition, ModelParams, SimConfig, snap_output_times
from .noise import NoiseSpectrum, build_spectrum, spectrum_from_list
from .spectral import Basis, ParameterError

_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _require(section: dict, path: str, allowed: set[str]):
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    unknown = set(section) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}", "unknown key")


def _get(section: dict, path: str, key: str, types, default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "required key missing")
        return default
    value = section[key]
    if types is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        value = _finite(f"{path}.{key}", value)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}", f"expected {getattr(types, '__name__', types)}, got {type(value).__name__}")
    return value


def _finite(key: str, number: int | float) -> float:
    """The number as a float; json.loads accepts NaN and Infinity, which no range rule catches."""
    try:
        value = float(number)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(key, "must be a finite number")
    return value


def _number_list(section: dict, path: str, key: str, default=_REQUIRED):
    value = _get(section, path, key, list, default)
    if value is None:
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{path}.{key}", "expected a list of numbers")
    return [_finite(f"{path}.{key}", v) for v in value]


_MODEL_KEYS = {"nu", "r", "beta", "linearized", "beta_term"}
_SPECTRUM_KEYS = {"c_mu", "mu_exp", "theta", "mu_sq_list"}
_SIM_KEYS = {
    "M", "dt", "T", "output_times", "n_paths", "master_seed", "initial_condition",
    "batch_size", "noise_fault_scale",
}
_ANALYSIS_KEYS = {"gamma", "c1", "alpha_grid", "split", "mu_tilde", "holder", "asymptotics"}
_IO_KEYS = {"out_dir", "formats", "write_trajectories"}


def _key_of(field: str) -> str:
    """Config key path of the constructor argument a ParameterError names."""
    for section, keys in (("model", _MODEL_KEYS), ("spectrum", _SPECTRUM_KEYS), ("sim", _SIM_KEYS)):
        if field in keys:
            return f"{section}.{field}"
    return {"mu": "spectrum.mu_sq_list", "coeffs": "sim.initial_condition.values",
            "sigma": "sim.initial_condition.sigma"}[field]


@contextmanager
def _keyed():
    """Report a constructor's ParameterError as a ConfigError under the config key it names."""
    try:
        yield
    except ParameterError as err:
        raise ConfigError(_key_of(err.field), str(err)) from None


def _normalize_model(raw: dict) -> dict:
    _require(raw, "model", _MODEL_KEYS)
    return {
        "nu": _get(raw, "model", "nu", float),
        "r": _get(raw, "model", "r", float),
        "beta": _get(raw, "model", "beta", float, 0.0),
        "linearized": _get(raw, "model", "linearized", bool, False),
        "beta_term": _get(raw, "model", "beta_term", bool, True),
    }


def _normalize_spectrum(raw: dict) -> dict:
    _require(raw, "spectrum", _SPECTRUM_KEYS)
    theta = _get(raw, "spectrum", "theta", float)
    if "mu_sq_list" in raw:
        if "c_mu" in raw or "mu_exp" in raw:
            raise ConfigError("spectrum.mu_sq_list", "exclusive with c_mu / mu_exp")
        return {"mu_sq_list": _number_list(raw, "spectrum", "mu_sq_list"), "theta": theta}
    return {
        "c_mu": _get(raw, "spectrum", "c_mu", float),
        "mu_exp": _get(raw, "spectrum", "mu_exp", float),
        "theta": theta,
    }


def _normalize_output_times(raw: dict, dt: float, T: float) -> dict:
    _require(raw, "sim.output_times", {"kind", "n", "t_min", "times"})
    kind = _get(raw, "sim.output_times", "kind", str)
    if kind == "uniform":
        n = _get(raw, "sim.output_times", "n", int)
        if n < 2:
            raise ConfigError("sim.output_times.n", "need at least 2 output times")
        times = np.linspace(0.0, T, n)
    elif kind == "geometric":
        n = _get(raw, "sim.output_times", "n", int)
        t_min = _get(raw, "sim.output_times", "t_min", float)
        if not 0.0 < t_min < T:
            raise ConfigError("sim.output_times.t_min", "must lie in (0, T)")
        if n < 2:
            raise ConfigError("sim.output_times.n", "need at least 2 output times")
        times = np.concatenate(([0.0], np.geomspace(t_min, T, n)))
    elif kind == "explicit":
        times = np.asarray(_number_list(raw, "sim.output_times", "times"), dtype=float)
    else:
        raise ConfigError("sim.output_times.kind", f"unknown kind {kind!r}")
    snapped = snap_output_times(times, dt, T)
    return {"kind": "explicit", "times": [float(t) for t in snapped]}


def _normalize_initial_condition(raw: dict) -> dict:
    path = "sim.initial_condition"
    _require(raw, path, {"type", "values", "sigma"})
    kind = _get(raw, path, "type", str)
    if kind == "zero":
        return {"type": "zero"}
    if kind == "coeffs":
        return {"type": "coeffs", "values": _number_list(raw, path, "values")}
    if kind == "gaussian":
        if isinstance(raw.get("sigma"), list):
            return {"type": "gaussian", "sigma": _number_list(raw, path, "sigma")}
        return {"type": "gaussian", "sigma": _get(raw, path, "sigma", float)}
    raise ConfigError(f"{path}.type", f"unknown type {kind!r}")


def _normalize_sim(raw: dict) -> dict:
    _require(raw, "sim", _SIM_KEYS)
    out = {
        "M": _get(raw, "sim", "M", int),
        "dt": _get(raw, "sim", "dt", float),
        "T": _get(raw, "sim", "T", float),
        "n_paths": _get(raw, "sim", "n_paths", int),
        "master_seed": _get(raw, "sim", "master_seed", int),
        "batch_size": _get(raw, "sim", "batch_size", int, 32),
        "noise_fault_scale": _get(raw, "sim", "noise_fault_scale", float, 1.0),
    }
    out_times = _get(raw, "sim", "output_times", dict)
    ic = _get(raw, "sim", "initial_condition", dict, {"type": "zero"})
    with _keyed():
        SimConfig(output_times=[0.0], **out)  # range-checks the step grid before snapping onto it
    out["output_times"] = _normalize_output_times(out_times, out["dt"], out["T"])
    out["initial_condition"] = _normalize_initial_condition(ic)
    return out


def _normalize_holder(raw: dict) -> dict:
    _require(raw, "analysis.holder", {"window", "lags"})
    out = {}
    window = _number_list(raw, "analysis.holder", "window", None)
    if window is not None:
        if len(window) != 2 or not 0 < window[0] < window[1]:
            raise ConfigError("analysis.holder.window", "expected [t0, t1] with 0 < t0 < t1")
        out["window"] = window
    lags = _number_list(raw, "analysis.holder", "lags", None)
    if lags is not None:
        if len(lags) < 5 or min(lags) <= 0:
            raise ConfigError("analysis.holder.lags", "need >= 5 positive lags")
        out["lags"] = sorted(lags)
    return out


def _normalize_asymptotics(raw: dict) -> dict:
    _require(raw, "analysis.asymptotics", {"mode", "delta", "gamma_reg", "rho"})
    mode = _get(raw, "analysis.asymptotics", "mode", str, "zero")
    if mode not in ("zero", "general"):
        raise ConfigError("analysis.asymptotics.mode", "must be 'zero' or 'general'")
    delta = _get(raw, "analysis.asymptotics", "delta", float, 0.5)
    if not 0.0 < delta < 1.0:
        raise ConfigError("analysis.asymptotics.delta", "must lie in (0, 1)")
    rho = _get(raw, "analysis.asymptotics", "rho", float, 0.01)
    if not 0.0 < rho < 0.25:
        raise ConfigError("analysis.asymptotics.rho", "must lie in (0, 1/4)")
    return {
        "mode": mode, "delta": delta,
        "gamma_reg": _get(raw, "analysis.asymptotics", "gamma_reg", float, 1.0),
        "rho": rho,
    }


def _nullable(raw: dict, key: str, positive: bool = False) -> float | None:
    """An analysis number that may be null, meaning: derive it from the model."""
    if raw.get(key) is None:
        return None
    value = _get(raw, "analysis", key, float)
    if positive and value <= 0:
        raise ConfigError(f"analysis.{key}", "expected a positive number or null")
    return value


def _normalize_analysis(raw: dict) -> dict:
    _require(raw, "analysis", _ANALYSIS_KEYS)
    split = _get(raw, "analysis", "split", float, 0.5)
    if not 0.0 < split < 1.0:
        raise ConfigError("analysis.split", "must lie in (0, 1)")
    alpha_grid = _number_list(raw, "analysis", "alpha_grid",
                              default=[float(a) for a in np.geomspace(1e2, 1e4, 9)])
    if any(a < 0 for a in alpha_grid):
        raise ConfigError("analysis.alpha_grid", "entries must be >= 0")
    return {
        "gamma": _nullable(raw, "gamma"),
        "c1": _nullable(raw, "c1", positive=True),
        "split": split,
        "alpha_grid": alpha_grid,
        "mu_tilde": _nullable(raw, "mu_tilde", positive=True),
        "holder": _normalize_holder(raw.get("holder", {})),
        "asymptotics": _normalize_asymptotics(raw.get("asymptotics", {})),
    }


def _normalize_io(raw: dict) -> dict:
    _require(raw, "io", _IO_KEYS)
    formats = raw.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats or not all(f in ("csv", "json") for f in formats):
        raise ConfigError("io.formats", "expected a nonempty subset of ['csv', 'json']")
    return {
        "out_dir": _get(raw, "io", "out_dir", str, "out"),
        "formats": sorted(set(formats)),
        "write_trajectories": _get(raw, "io", "write_trajectories", bool, False),
    }


def normalize(raw: dict) -> dict:
    """Check the schema of a raw configuration document and normalize it.

    The normalizers check unknown keys, types, defaults and the output-time
    grid; the step grid is range-checked before times are snapped onto it.
    Every other value range is checked by `materialize`.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    _require(raw, "<root>", {"model", "spectrum", "sim", "analysis", "io"})
    for name in ("model", "spectrum", "sim"):
        if name not in raw:
            raise ConfigError(name, "required section missing")
    return {
        "model": _normalize_model(raw["model"]),
        "spectrum": _normalize_spectrum(raw["spectrum"]),
        "sim": _normalize_sim(raw["sim"]),
        "analysis": _normalize_analysis(raw.get("analysis", {})),
        "io": _normalize_io(raw.get("io", {})),
    }


@dataclass
class RunConfig:
    """Materialized configuration: model objects plus the normalized document."""

    params: ModelParams
    spectrum: NoiseSpectrum
    sim: SimConfig
    analysis: dict
    io: dict
    document: dict

    @property
    def basis(self) -> Basis:
        return self.spectrum.basis

    def c1(self) -> float:
        return self.analysis["c1"] if self.analysis["c1"] is not None else DIRICHLET_C1

    def mu_tilde_default(self) -> float | None:
        if self.analysis["mu_tilde"] is not None:
            return self.analysis["mu_tilde"]
        if self.spectrum.mu_exp is None or self.spectrum.mu_exp <= 0:
            return None
        return 0.9 * min(self.spectrum.mu_exp, 1.0)


def materialize(document: dict) -> RunConfig:
    """Build each model object once from a normalized document, checking the value ranges.

    A run stores its fields exactly when it dumps them (`io.write_trajectories`).
    """
    with _keyed():
        params = ModelParams(**document["model"])
        sim_doc = dict(document["sim"])
        basis = Basis(sim_doc["M"], params.nu)
        spec_doc = document["spectrum"]
        if "mu_sq_list" in spec_doc:
            spectrum = spectrum_from_list(basis, spec_doc["mu_sq_list"], spec_doc["theta"])
        else:
            spectrum = build_spectrum(basis, spec_doc["c_mu"], spec_doc["mu_exp"], spec_doc["theta"])
        ic_doc = sim_doc.pop("initial_condition")
        if ic_doc["type"] == "zero":
            ic = InitialCondition("zero")
        elif ic_doc["type"] == "coeffs":
            ic = InitialCondition("coeffs", coeffs=tuple(ic_doc["values"]))
        else:
            sigma = ic_doc["sigma"]
            ic = InitialCondition("gaussian", sigma=tuple(sigma) if isinstance(sigma, list) else sigma)
        sim_doc["output_times"] = sim_doc["output_times"]["times"]
        sim = SimConfig(**sim_doc, initial_condition=ic,
                        store_fields=document["io"]["write_trajectories"])
    return RunConfig(params, spectrum, sim, document["analysis"], document["io"], document)


def read_document(path: str | Path):
    """Parse a JSON configuration file; a file that cannot be read or parsed is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:  # missing, a directory, unreadable
        raise ConfigError("<file>", f"cannot read config file {path}: {err.strerror or err}") from None
    except ValueError as err:  # malformed JSON, not UTF-8, an integer literal over the digit limit
        raise ConfigError("<file>", f"invalid JSON: {err}") from None


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def config_sha256(document: dict) -> str:
    """Stable hash of a normalized configuration document."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
