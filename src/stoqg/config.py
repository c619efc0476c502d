"""Run-configuration schema: strict JSON ingestion and normalization.

Configs are JSON documents with sections model / spectrum / sim / analysis /
io. Validation is strict: unknown keys are rejected and every error names the
offending key path, because silently ignored typos are the main
reproducibility hazard in experiment configs. Loading is two passes:
`normalize` checks the schema (defaults filled in, output times snapped onto
the step grid) and is idempotent, so normalize -> serialize -> normalize is a
fixed point; `materialize` builds each model object once, and the value
ranges are checked there: by the constructors, and for the analysis settings
by the rules in `analysis`, so a bad setting fails before any path runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import admissible_mu_tilde, check_asymptotics, holder_pairs
from .dynamics import InitialCondition, ModelParams, SimConfig, snap_output_times
from .noise import NoiseSpectrum, build_spectrum, spectrum_from_list
from .spectral import Basis, ParameterError

_REQUIRED = object()


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


# the keys of every section, by path; a key that is itself a path holds a section
_SCHEMA = {
    "<root>": {"model", "spectrum", "sim", "analysis", "io"},
    "model": {"nu", "r", "beta", "linearized", "beta_term"},
    "spectrum": {"c_mu", "mu_exp", "theta", "mu_sq_list"},
    "sim": {"M", "dt", "T", "output_times", "n_paths", "master_seed", "initial_condition",
            "batch_size"},
    "sim.output_times": {"kind", "n", "t_min", "times"},
    "sim.initial_condition": {"type", "values", "sigma"},
    "analysis": {"gamma", "mu_tilde", "holder", "asymptotics"},
    "analysis.holder": {"window", "lags"},
    "analysis.asymptotics": {"mode", "delta", "gamma_reg"},
    "io": {"out_dir", "write_trajectories"},
}


def _require(section: dict, path: str):
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    unknown = set(section) - _SCHEMA[path]
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}", "unknown key")


def _get(section: dict, path: str, key: str, types, default=_REQUIRED):
    if key not in section or section[key] is None and default is None:  # null stands for a None default
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


def _number_list(section: dict, path: str, key: str):
    value = _get(section, path, key, list)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{path}.{key}", "expected a list of numbers")
    return [_finite(f"{path}.{key}", v) for v in value]


def _key_of(field: str) -> str:
    """Config key path of the argument or setting a ParameterError names; leaf names are unique."""
    for path, keys in _SCHEMA.items():
        if field in keys and path != "<root>":
            return f"{path}.{field}"
    return {"mu": "spectrum.mu_sq_list", "coeffs": "sim.initial_condition.values"}[field]


@contextmanager
def keyed():
    """Report a ParameterError of a constructor or an analysis rule as a ConfigError under its key."""
    try:
        yield
    except ParameterError as err:
        raise ConfigError(_key_of(err.field), str(err)) from None


def _normalize_model(raw: dict) -> dict:
    _require(raw, "model")
    return {
        "nu": _get(raw, "model", "nu", float),
        "r": _get(raw, "model", "r", float),
        "beta": _get(raw, "model", "beta", float, 0.0),
        "linearized": _get(raw, "model", "linearized", bool, False),
        "beta_term": _get(raw, "model", "beta_term", bool, True),
    }


def _normalize_spectrum(raw: dict) -> dict:
    _require(raw, "spectrum")
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
    _require(raw, "sim.output_times")
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
        if np.any((times < 0.0) | (times > T + 1e-9 * T)):  # snapping would clip them silently
            raise ConfigError("sim.output_times.times", "must lie within [0, T]")
    else:
        raise ConfigError("sim.output_times.kind", f"unknown kind {kind!r}")
    snapped = snap_output_times(times, dt, T)
    return {"kind": "explicit", "times": [float(t) for t in snapped]}


def _normalize_initial_condition(raw: dict) -> dict:
    path = "sim.initial_condition"
    _require(raw, path)
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
    _require(raw, "sim")
    out = {
        "M": _get(raw, "sim", "M", int),
        "dt": _get(raw, "sim", "dt", float),
        "T": _get(raw, "sim", "T", float),
        "n_paths": _get(raw, "sim", "n_paths", int),
        "master_seed": _get(raw, "sim", "master_seed", int),
        "batch_size": _get(raw, "sim", "batch_size", int, 32),
    }
    out_times = _get(raw, "sim", "output_times", dict)
    ic = _get(raw, "sim", "initial_condition", dict, {"type": "zero"})
    with keyed():
        SimConfig(output_times=[0.0], **out)  # range-checks the step grid before snapping onto it
    out["output_times"] = _normalize_output_times(out_times, out["dt"], out["T"])
    out["initial_condition"] = _normalize_initial_condition(ic)
    return out


def _normalize_holder(raw: dict) -> dict:
    """Optional, but a holder section names both its window and its lags."""
    _require(raw, "analysis.holder")
    return {key: _number_list(raw, "analysis.holder", key) for key in ("window", "lags")} if raw else {}


def _normalize_asymptotics(raw: dict) -> dict:
    _require(raw, "analysis.asymptotics")
    return {
        "mode": _get(raw, "analysis.asymptotics", "mode", str, "zero"),
        "delta": _get(raw, "analysis.asymptotics", "delta", float, 0.5),
        "gamma_reg": _get(raw, "analysis.asymptotics", "gamma_reg", float, 1.0),
    }


def _normalize_analysis(raw: dict) -> dict:
    _require(raw, "analysis")
    return {
        "gamma": _get(raw, "analysis", "gamma", float, None),  # None: derived from the model
        "mu_tilde": _get(raw, "analysis", "mu_tilde", float, None),
        "holder": _normalize_holder(raw.get("holder", {})),
        "asymptotics": _normalize_asymptotics(raw.get("asymptotics", {})),
    }


def _normalize_io(raw: dict) -> dict:
    _require(raw, "io")
    return {
        "out_dir": _get(raw, "io", "out_dir", str, "out"),
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
    _require(raw, "<root>")
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


def materialize(document: dict) -> RunConfig:
    """Build each model object once from a normalized document, checking the value ranges.

    The analysis settings are checked here against the model and the output
    times, whatever the command: a holder section, if given, must be one the
    output grid realizes. A run stores its fields exactly when it dumps them
    (`io.write_trajectories`).
    """
    with keyed():
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
        analysis = document["analysis"]
        admissible_mu_tilde(analysis["mu_tilde"], spectrum.mu_exp)
        if analysis["holder"]:
            holder_pairs(sim.output_times, **analysis["holder"])
        check_asymptotics(**analysis["asymptotics"])
    return RunConfig(params, spectrum, sim, analysis, document["io"], document)


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
