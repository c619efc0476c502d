"""Run-configuration schema: strict JSON ingestion and normalization.

Configs are JSON documents with sections model / spectrum / sim / analysis /
io, each key declared once in `_SCHEMA`. Validation is strict: unknown keys,
keys of a variant the config did not choose and keys named twice are
rejected, and every error names the offending key path, because silently
ignored typos are the main reproducibility hazard in experiment configs.
Loading is two passes: `normalize` checks the schema (defaults filled in,
output times snapped onto the step grid) and is idempotent, so normalize ->
serialize -> normalize is a fixed point; `materialize` builds each model
object once, and the value ranges are checked there: by the constructors,
and for the analysis settings by the rules in `analysis`, so a bad setting
fails before any path runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import check_asymptotics, holder_pairs
from .dynamics import (
    MAX_ARRAY_VALUES,
    InitialCondition,
    ModelParams,
    SimConfig,
    snap_output_times,
)
from .noise import NoiseSpectrum, build_spectrum, spectrum_from_list
from .spectral import Basis, ParameterError

_REQUIRED, _OPTIONAL = object(), object()
_NUMBERS = "list of numbers"  # the type of a key that takes a list of finite numbers


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class _Variants:
    """A section whose other keys are those of the variant its `key` names."""

    key: str
    variants: dict


# The one declaration of the config: each key maps to (type, default). A type is float,
# int, bool, str, _NUMBERS or a tuple of these, or a section: a dict of its keys or
# _Variants. A default is _REQUIRED, _OPTIONAL (left out when absent), a value, or for a
# section the raw section.
_SCHEMA = {
    "model": ({"nu": (float, _REQUIRED), "r": (float, _REQUIRED), "beta": (float, 0.0),
               "linearized": (bool, False), "beta_term": (bool, True)}, _REQUIRED),
    "spectrum": ({"mu_sq_list": (_NUMBERS, _OPTIONAL), "c_mu": (float, _OPTIONAL),
                  "mu_exp": (float, _OPTIONAL), "theta": (float, _REQUIRED)}, _REQUIRED),
    "sim": ({
        "M": (int, _REQUIRED), "dt": (float, _REQUIRED), "T": (float, _REQUIRED),
        "n_paths": (int, _REQUIRED), "master_seed": (int, _REQUIRED), "batch_size": (int, 32),
        "output_times": (_Variants("kind", {
            "uniform": {"n": (int, _REQUIRED)},
            "geometric": {"n": (int, _REQUIRED), "t_min": (float, _REQUIRED)},
            "explicit": {"times": (_NUMBERS, _REQUIRED)},
        }), _REQUIRED),
        "initial_condition": (_Variants("type", {
            "zero": {},
            "coeffs": {"values": (_NUMBERS, _REQUIRED)},
            "gaussian": {"sigma": ((float, _NUMBERS), _REQUIRED)},
        }), {"type": "zero"}),
    }, _REQUIRED),
    "analysis": ({
        "holder": ({"window": (_NUMBERS, _OPTIONAL), "lags": (_NUMBERS, _OPTIONAL)}, {}),
        "asymptotics": ({"mode": (str, "zero"), "delta": (float, 0.5)}, {}),
    }, {}),
    "io": ({"out_dir": (str, "out"), "write_trajectories": (bool, False)}, {}),
}


def _key(path: str, key: str) -> str:
    return key if path == "<root>" else f"{path}.{key}"


def _reject(path: str, keys, message: str):
    """Name the first of the offending `keys`, if there is one."""
    if keys:
        raise ConfigError(_key(path, min(keys)), message)


def _keys(table) -> dict:
    """Every key a section takes, with its (type, default); a variant's keys included."""
    if not isinstance(table, _Variants):
        return table
    return {table.key: (str, _REQUIRED),
            **{key: spec for keys in table.variants.values() for key, spec in keys.items()}}


def _walk(raw, path: str, table) -> dict:
    """Check a section against its table: unknown keys, types and defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    _reject(path, raw.keys() - _keys(table).keys(), "unknown key")
    if isinstance(table, _Variants):
        choice, variants = table.key, table.variants
        variant = _value(raw, path, choice, str, _REQUIRED)
        if variant not in variants:
            raise ConfigError(_key(path, choice), f"unknown {choice} {variant!r}")
        table = {choice: (str, _REQUIRED), **variants[variant]}
        _reject(path, raw.keys() - table.keys(), f"does not apply to {choice} {variant!r}")
    return {key: _value(raw, path, key, kind, default) for key, (kind, default) in table.items()
            if key in raw or default is not _OPTIONAL}


def _matches(value, want) -> bool:
    if want is _NUMBERS:
        return isinstance(value, list) and all(_matches(v, float) for v in value)
    if want is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, want) and (want is bool or not isinstance(value, bool))


def _value(section: dict, path: str, key: str, kind, default):
    """The checked value of one key, its default filled in; a section is walked."""
    name, value = _key(path, key), section.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(name, "required key missing")
    if isinstance(kind, (dict, _Variants)):
        return _walk(value, name, kind)
    wants = kind if isinstance(kind, tuple) else (kind,)
    for want in wants:
        if _matches(value, want):
            if want is _NUMBERS:
                return [_finite(name, v) for v in value]
            return _finite(name, value) if want is float else value
    names = " or ".join(getattr(want, "__name__", want) for want in wants)
    raise ConfigError(name, f"expected {names}, got {type(value).__name__}")


def _finite(key: str, number: int | float) -> float:
    """The number as a float; json.loads accepts NaN and Infinity, which no range rule catches."""
    try:
        value = float(number)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(key, "must be a finite number")
    return value


def _key_paths(table=_SCHEMA, path: str = "<root>"):
    """Every key path `_SCHEMA` declares: sections, leaves and each variant's keys."""
    for key, (kind, _) in _keys(table).items():
        yield _key(path, key)
        if isinstance(kind, (dict, _Variants)):
            yield from _key_paths(kind, _key(path, key))


def _key_of(field: str) -> str:
    """Config key path of the argument or setting a ParameterError names; key names are unique."""
    for path in _key_paths():
        if path.rpartition(".")[2] == field:
            return path
    return {"mu": "spectrum.mu_sq_list", "coeffs": "sim.initial_condition.values"}[field]


@contextmanager
def keyed():
    """Report a ParameterError of a constructor or an analysis rule as a ConfigError under its key."""
    try:
        yield
    except ParameterError as err:
        raise ConfigError(_key_of(err.field), str(err)) from None


def _output_grid(spec: dict, dt: float, T: float) -> dict:
    """The times a `sim.output_times` variant names, snapped onto the step grid."""
    kind = spec["kind"]
    if kind == "geometric" and not 0.0 < spec["t_min"] < T:
        raise ConfigError("sim.output_times.t_min", "must lie in (0, T)")
    if kind != "explicit" and not 2 <= spec["n"] <= MAX_ARRAY_VALUES:
        raise ConfigError("sim.output_times.n", f"must lie in [2, {MAX_ARRAY_VALUES}], got {spec['n']}")
    if kind == "uniform":
        times = np.linspace(0.0, T, spec["n"])
    elif kind == "geometric":
        times = np.concatenate(([0.0], np.geomspace(spec["t_min"], T, spec["n"])))
    else:
        times = np.asarray(spec["times"], dtype=float)
        if np.any((times < 0.0) | (times > T + 1e-9 * T)):  # snapping would clip them silently
            raise ConfigError("sim.output_times.times", "must lie within [0, T]")
    return {"kind": "explicit", "times": [float(t) for t in snap_output_times(times, dt, T)]}


def normalize(raw: dict) -> dict:
    """Check a raw configuration document against `_SCHEMA` and normalize it.

    The walk checks unknown keys, types and defaults; the rules here check what
    involves more than one key, and the step grid is range-checked before the
    output times are snapped onto it. Every other value range is checked by
    `materialize`.
    """
    doc = _walk(raw, "<root>", _SCHEMA)
    spectrum, power_rule = doc["spectrum"], {"c_mu", "mu_exp"}
    if "mu_sq_list" not in spectrum:
        _reject("spectrum", power_rule - spectrum.keys(), "required key missing")
    elif power_rule & spectrum.keys():
        raise ConfigError("spectrum.mu_sq_list", "exclusive with c_mu / mu_exp")
    sim = doc["sim"]
    with keyed():  # range-checks the step grid before snapping onto it
        SimConfig(**{key: value for key, value in sim.items() if not isinstance(value, dict)},
                  output_times=[0.0])
    sim["output_times"] = _output_grid(sim["output_times"], sim["dt"], sim["T"])
    holder = doc["analysis"]["holder"]
    if holder:  # optional, but one names both its window and its lags
        _reject("analysis.holder", {"window", "lags"} - holder.keys(), "required key missing")
    return doc


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

    The analysis settings are checked here, whatever the command: a holder
    section, if given, must be one the output grid realizes. A run stores its
    fields exactly when it dumps them (`io.write_trajectories`).
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
        if analysis["holder"]:
            holder_pairs(sim.output_times, **analysis["holder"])
        check_asymptotics(**analysis["asymptotics"])
    return RunConfig(params, spectrum, sim, analysis, document["io"], document)


def _key_path(node, target) -> list[str] | None:
    """The keys that lead from `node` to the object `target` itself, or None."""
    if node is target:
        return []
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        tail = _key_path(child, target)
        if tail is not None:
            return [str(key), *tail]
    return None


def read_document(path: str | Path):
    """Parse a JSON configuration file; a file that cannot be read or parsed is a ConfigError.

    A key an object names twice is a ConfigError under its path: plain JSON
    parsing would keep the last value silently.
    """
    repeated = []  # (object, key) of each key an object names again

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                repeated.append((obj, key))
            obj[key] = value
        return obj

    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except OSError as err:  # missing, a directory, unreadable
        raise ConfigError("<file>", f"cannot read config file {path}: {err.strerror or err}") from None
    except (ValueError, RecursionError) as err:  # malformed, not UTF-8, too long an integer or too deep
        raise ConfigError("<file>", f"invalid JSON: {err}") from None
    for obj, key in repeated:  # an object under a repeated key is gone from the document
        keys = _key_path(document, obj)
        if keys is not None:
            raise ConfigError(".".join([*keys, key]), "duplicate key")
    return document


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def config_sha256(document: dict) -> str:
    """Stable hash of a normalized configuration document."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
