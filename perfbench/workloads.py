"""Workload configs and their seed-independent output checks.

Each workload is one `stoqg simulate` config built from the benchmark seed
(it becomes `sim.master_seed`; nothing else depends on it). `tiny=True`
shrinks the horizon and the ensemble so the smoke mode runs every check in
seconds. The reasons for each workload are in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stoqg import analysis as lab
from stoqg import noise as noise_mod
from stoqg.config import RunConfig
from stoqg.spectral import dealias_resolution

SPECTRUM = {"c_mu": 1.0, "mu_exp": 2.0, "theta": 0.1}  # mu_k^2 = k^-2


def _document(model: dict, sim: dict, io: dict | None = None) -> dict:
    return {"model": model, "spectrum": dict(SPECTRUM), "sim": sim, "analysis": {}, "io": io or {}}


def _nl16_pool(seed: int, tiny: bool) -> dict:
    T, n_paths = (0.02, 8) if tiny else (1.0, 256)
    sim = {"M": 16, "dt": 1e-3, "T": T, "output_times": {"kind": "uniform", "n": 21},
           "n_paths": n_paths, "master_seed": seed}
    if tiny:
        sim["batch_size"] = 4  # two batches, so the pool is still crossed
    return _document({"nu": 1.0, "r": 0.1, "beta": 0.0, "linearized": False, "beta_term": False}, sim)


def _lin16_dense(seed: int, tiny: bool) -> dict:
    T, n_paths = (0.02, 4) if tiny else (0.5, 64)
    n_out = int(round(T / 1e-3)) + 1  # an output at every step
    sim = {"M": 16, "dt": 1e-3, "T": T, "output_times": {"kind": "uniform", "n": n_out},
           "n_paths": n_paths, "master_seed": seed}
    return _document({"nu": 1.0, "r": 0.1, "beta": 0.0, "linearized": True, "beta_term": False}, sim)


def _nl32_dump(seed: int, tiny: bool) -> dict:
    T, n_paths = (0.01, 4) if tiny else (0.5, 64)
    sim = {"M": 32, "dt": 1e-3, "T": T, "output_times": {"kind": "uniform", "n": 11},
           "n_paths": n_paths, "master_seed": seed,
           "initial_condition": {"type": "gaussian", "sigma": 0.1}}
    return _document({"nu": 1.0, "r": 0.1, "beta": 0.2, "linearized": False, "beta_term": True},
                     sim, {"write_trajectories": True})


def _load_trace_json(out_dir: Path) -> dict:
    return json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))


def _check_nl16_pool(out_dir: Path, cfg: RunConfig) -> str | None:
    """Criterion 5: the constant-free trace-class envelope dominates the run."""
    doc = _load_trace_json(out_dir)
    times, mean, se = (np.asarray(doc[k], dtype=float) for k in ("times", "ens_mean", "ens_se"))
    if not (np.isfinite(mean).all() and np.isfinite(se).all()):
        return "nonfinite enstrophy trace"
    trace = lab.EnstrophyTrace(times=times, ens_mean=mean, ens_se=se, n_paths=doc["n_paths"])
    gamma = lab.gamma_threshold(cfg.params.nu, cfg.params.r, 0.0) + 0.1
    envelope = lab.trace_class_envelope(0.0, gamma, noise_mod.trace(cfg.spectrum), times)
    report = lab.validate_bound(trace, envelope)
    if report.verdict != "pass":
        return f"trace-class envelope violated at t={report.violations}"
    return None


def _check_lin16_dense(out_dir: Path, cfg: RunConfig) -> str | None:
    """Criterion 8(i): with a zero IC and no drift, omega == W_A on every path."""
    doc = _load_trace_json(out_dir)
    if any(value != 0.0 for value in doc["residual_mean"]):
        return "residual_mean is not identically 0"
    ens = np.asarray(doc["ens_mean"], dtype=float)
    if not np.array_equal(np.asarray(doc["wa_var_empirical"], dtype=float), 2.0 * ens):
        return "wa_var_empirical != 2 * ens_mean"
    return None


def _check_nl32_dump(out_dir: Path, cfg: RunConfig) -> str | None:
    """The dump has one row per (path, time) and reproduces the trace."""
    n_paths, n_out, n_modes = cfg.sim.n_paths, len(cfg.sim.output_times), cfg.basis.n_modes
    rows = np.loadtxt(out_dir / "trajectories.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (n_paths * n_out, n_modes + 2):
        return f"trajectories.csv is {rows.shape}, expected {(n_paths * n_out, n_modes + 2)}"
    coeffs = rows[:, 2:].reshape(n_paths, n_out, n_modes)
    recomputed = 0.5 * np.mean(np.sum(coeffs * coeffs, axis=2), axis=0)
    ens = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    rel = np.max(np.abs(recomputed - ens) / np.maximum(np.abs(ens), np.finfo(float).tiny))
    if not rel <= 1e-12:
        return f"dumped coefficients give enstrophy off by {rel:.3g} relative"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    build: Callable[[int, bool], dict]
    check: Callable[[Path, RunConfig], str | None]


WORKLOADS = {w.name: w for w in (
    Workload("nl16_pool", 2, _nl16_pool, _check_nl16_pool),
    Workload("lin16_dense", 1, _lin16_dense, _check_lin16_dense),
    Workload("nl32_dump", 1, _nl32_dump, _check_nl32_dump),
)}


def path_steps(cfg: RunConfig) -> int:
    return cfg.sim.n_paths * int(cfg.sim.output_steps()[-1])


def drift_flop(cfg: RunConfig) -> float:
    """GEMM flops of all drift evaluations, 2mkn per product.

    Per path and step: four derivative grids, each (Q x M)(M x M)(M x Q),
    the projection (M x Q)(Q x Q)(Q x M), with Q = P - 1 interior points, and
    the beta term (M x M)(M x M) when it is on.
    """
    params = cfg.params
    M = cfg.sim.M
    Q = dealias_resolution(M) - 1
    per_path = 0.0
    if not params.linearized:
        per_path += 4 * (2 * Q * M * M + 2 * Q * M * Q) + (2 * M * Q * Q + 2 * M * Q * M)
    if params.beta_term and params.beta != 0.0:
        per_path += 2 * M**3
    return float(per_path * path_steps(cfg))


def draw_values(cfg: RunConfig) -> int:
    """Standard normals the run draws: one per mode and step, plus the Gaussian IC."""
    per_path = int(cfg.sim.output_steps()[-1])
    if cfg.sim.initial_condition.kind == "gaussian":
        per_path += 1
    return cfg.sim.n_paths * per_path * cfg.basis.n_modes

