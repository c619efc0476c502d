"""Time integration of the stochastic vorticity equation in mild form.

The scheme is a per-mode exponential Euler step: with linear symbols
l_k = lambda_k - r (viscous decay plus Ekman drag folded into the
propagator), one step of size h reads

    a_k <- e^(l_k h) a_k + h phi1(l_k h) drift_k(omega) + eta_k,

where phi1(z) = (e^z - 1)/z, drift is the projected -beta psi_x - J(psi,
omega), and eta_k is an exact Ornstein-Uhlenbeck increment. The linear
subsystem is therefore integrated without any time-discretization error;
only the drift carries the first-order error. A pure-convolution companion
state is advanced with the same eta draws, giving each path its own exact
record of the forced linear response.

Paths are deterministic functions of (master_seed, path_index): every path
derives its generators from a seed sequence spawned with the path index as
key, with separate substreams for the initial condition and the forcing.
Ensembles are processed in fixed-size batches whose composition depends only
on the configuration, never on the worker count, so results are bitwise
reproducible under any parallel schedule.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .noise import NoiseSpectrum, ou_transition_std
from .spectral import Basis, ParameterError, SpectralField, dealias_resolution, grid_max_norm


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and term switches of the vorticity equation."""

    nu: float
    r: float
    beta: float = 0.0
    linearized: bool = False
    beta_term: bool = True

    def __post_init__(self):
        if self.nu <= 0:
            raise ParameterError("nu", f"must be > 0, got {self.nu}")
        if self.r <= 0:
            raise ParameterError("r", f"must be > 0, got {self.r}")
        if self.beta < 0:
            raise ParameterError("beta", f"must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class InitialCondition:
    """Initial vorticity: zero, explicit coefficients, or per-mode Gaussian."""

    kind: str = "zero"
    coeffs: tuple[float, ...] | None = None
    sigma: float | tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "coeffs", "gaussian"):
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        if self.kind == "coeffs" and self.coeffs is None:
            raise ValueError("initial condition of kind 'coeffs' needs coefficient values")
        if self.kind == "gaussian" and self.sigma is None:
            raise ValueError("initial condition of kind 'gaussian' needs sigma")
        if self.kind == "gaussian" and np.any(np.asarray(self.sigma, dtype=float) < 0):
            raise ParameterError("sigma", "entries must be >= 0")

    def sigmas(self, n_modes: int) -> np.ndarray:
        if self.kind != "gaussian":
            raise ValueError("per-mode sigmas only defined for gaussian initial conditions")
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 0:
            return np.full(n_modes, float(sig))
        if sig.shape != (n_modes,):
            raise ParameterError("sigma", f"needs a number or {n_modes} entries, got {sig.shape}")
        return sig

    def mean_sq_norm(self, n_modes: int) -> float:
        """E ||omega_0||^2 for this initial condition."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "coeffs":
            vals = np.asarray(self.coeffs, dtype=float)
            return float(np.sum(vals**2))
        return float(np.sum(self.sigmas(n_modes) ** 2))


@dataclass
class SimConfig:
    """Truncation, stepping, output and ensemble controls for one run."""

    M: int
    dt: float
    T: float
    output_times: np.ndarray
    n_paths: int
    master_seed: int
    initial_condition: InitialCondition = field(default_factory=InitialCondition)
    batch_size: int = 32
    store_fields: bool = False
    noise_fault_scale: float = 1.0  # test hook: mis-scales solver noise only

    def __post_init__(self):
        if self.M < 1:
            raise ParameterError("M", f"must be >= 1, got {self.M}")
        if self.dt <= 0:
            raise ParameterError("dt", f"must be > 0, got {self.dt}")
        if self.T <= 0 or self.dt > self.T:
            raise ParameterError("T", f"must satisfy 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if self.n_paths < 1:
            raise ParameterError("n_paths", f"must be >= 1, got {self.n_paths}")
        if self.batch_size < 1:
            raise ParameterError("batch_size", f"must be >= 1, got {self.batch_size}")
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError("master_seed", "must be a 64-bit unsigned integer")
        if self.noise_fault_scale < 0:
            raise ParameterError("noise_fault_scale", f"must be >= 0, got {self.noise_fault_scale}")
        ic, n_modes = self.initial_condition, self.M * self.M
        if ic.kind == "coeffs" and np.shape(ic.coeffs) != (n_modes,):
            raise ParameterError("coeffs", f"needs {n_modes} entries, got {np.shape(ic.coeffs)}")
        if ic.kind == "gaussian":
            ic.sigmas(n_modes)  # rejects a per-mode list of the wrong length
        self.output_times = np.asarray(self.output_times, dtype=float)
        if self.output_times.size == 0:
            raise ParameterError("output_times", "needs at least one entry")
        if np.any(np.diff(self.output_times) <= 0):
            raise ParameterError("output_times", "must be strictly increasing")
        if self.output_times[0] < 0 or self.output_times[-1] > self.T + 1e-9 * self.T:
            raise ParameterError("output_times", "must lie within [0, T]")
        steps = self.output_steps()
        if np.any(np.abs(steps * self.dt - self.output_times) > 1e-9 * max(self.dt, 1.0)):
            raise ParameterError("output_times", "must be multiples of dt; snap them at load time")

    def output_steps(self) -> np.ndarray:
        return np.rint(self.output_times / self.dt).astype(np.int64)


def snap_output_times(times, dt: float, T: float) -> np.ndarray:
    """Snap requested output times onto the step grid, warning on movement."""
    times = np.asarray(times, dtype=float)
    snapped = np.rint(times / dt) * dt
    moved = np.abs(snapped - times) > 1e-9 * np.maximum(np.abs(times), dt)
    if np.any(moved):
        warnings.warn(
            f"snapped {int(np.sum(moved))} output time(s) onto the dt={dt} grid",
            stacklevel=2,
        )
    snapped = np.unique(np.clip(snapped, 0.0, np.rint(T / dt) * dt))
    return snapped


@dataclass
class EnsembleRecord:
    """Diagnostics of one batch of paths at the output times, one row per path.

    Scalars, each (n_paths, n_out): squared norms of the vorticity and its
    gradient, the squared distance to the companion convolution
    (u_sq = ||omega - V||^2) and the companion's squared norm
    (wa_sq = ||W_A||^2). The coefficient snapshots, (n_paths, n_out, M^2),
    are kept only when the run stores fields; the companion's sup norm comes
    from `convolution_sup_norms`. `failures` holds a (path, time) pair for
    each path with nonfinite coefficients, at the first such output time.
    """

    path_index: np.ndarray
    times: np.ndarray
    omega_sq: np.ndarray
    grad_sq: np.ndarray
    u_sq: np.ndarray
    wa_sq: np.ndarray
    fields: np.ndarray | None = None
    failures: list[tuple[int, float]] = field(default_factory=list)


class BlowupError(RuntimeError):
    """Nonfinite coefficients encountered; carries all failing (path, time) pairs."""

    def __init__(self, failures: list[tuple[int, float]]):
        self.failures = failures
        listing = ", ".join(f"path {p} at t={t:g}" for p, t in failures)
        super().__init__(f"nonfinite coefficients in {len(failures)} path(s): {listing}")


def phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the removable singularity handled by series."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = (np.exp(safe) - 1.0) / safe
    return np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, out)


class _Stepper:
    """Precomputed batched exponential-Euler apparatus for one (params, spectrum, dt)."""

    def __init__(self, params: ModelParams, spectrum: NoiseSpectrum, dt: float, fault_scale: float = 1.0):
        basis = self.basis = spectrum.basis
        self.rates = basis.eigenvalues - params.r
        self.decay = np.exp(self.rates * dt)
        self.drift_weight = dt * phi1(self.rates * dt)
        self.noise_std = fault_scale * ou_transition_std(spectrum.mu, self.rates, dt)

        self.inv_lap = basis.to_grid2d(-1.0 / basis.sq_wavenumbers).reshape(basis.M, basis.M)
        self.advective = not params.linearized
        self.beta = params.beta if params.beta_term else 0.0
        self.needs_drift = self.advective or self.beta != 0.0
        self._work: dict[tuple[int, ...], list[np.ndarray]] = {}
        if self.advective:
            P = dealias_resolution(basis.M)
            sin_mat, dsin_mat = basis.trig_matrices(P)
            # left factors carry the factor 2 of the orthonormal eigenfunctions;
            # left[i] X right[i] is the grid of d/dx (i = 0) or d/dy (i = 1) of X
            self.left = np.stack([2.0 * dsin_mat.T, 2.0 * sin_mat.T])[:, None, None]
            self.right = np.stack([sin_mat, dsin_mat])[:, None, None]
            self.project_left = (2.0 / P**2) * sin_mat
            self.project_right = sin_mat.T.copy()
        if self.beta != 0.0:
            self.dx_matrix = basis.x_derivative_matrix()

    def drift_flat(self, a: np.ndarray) -> np.ndarray:
        """Projected drift -beta psi_x - J(psi, omega) of a batch of states (B, K)."""
        if not self.needs_drift:
            return np.zeros_like(a)
        # the work arrays are reused: fresh grid-sized arrays on every step make the
        # C allocator return their pages and fault them in again each step, which
        # costs more than the arithmetic at M=16
        work = self._work.get(a.shape)
        if work is None:
            B, M, n = a.shape[0], self.basis.M, dealias_resolution(self.basis.M) - 1
            work = self._work[a.shape] = [np.empty((2, B, M, M))]
            if self.advective:
                work += [np.empty((2, 2, B, n, M)), np.empty((2, 2, B, n, n)), np.empty((B, M, n))]
        fields = work[0]
        fields[1] = self.basis.to_grid2d(a)
        psi2 = np.multiply(fields[1], self.inv_lap, out=fields[0])
        out = 0.0
        if self.advective:
            half, grids, proj = work[1:]
            # grids[i, j]: d/dx (i = 0) or d/dy (i = 1) of psi (j = 0) or omega (j = 1)
            np.matmul(np.matmul(self.left, fields, out=half), self.right, out=grids)
            (px, ox), (py, oy) = grids
            jac = np.subtract(np.multiply(px, oy, out=px), np.multiply(py, ox, out=py), out=px)
            out = -(np.matmul(self.project_left, jac, out=proj) @ self.project_right)
        if self.beta != 0.0:
            out = out - self.beta * (self.dx_matrix @ psi2)
        return self.basis.from_grid2d(out)

    def advance(self, a: np.ndarray, v: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step for a batch, in place: states a, v and standard normals xi, each (B, K).

        a and v are overwritten with the new states and returned; xi is only read.
        The operations keep the order of decay * a + drift_weight * drift + eta.
        """
        eta = self.noise_std * xi
        if self.needs_drift:
            drift = self.drift_flat(a)
            drift *= self.drift_weight
        else:
            drift = 0.0  # adding it still turns a -0.0 into +0.0
        a *= self.decay
        a += drift
        a += eta
        v *= self.decay
        v += eta
        return a, v


# byte budget of one block of forcing draws: (B, n, K) doubles per batch
_DRAW_BLOCK_BYTES = 2**20


def _path_generators(master_seed: int, path_index: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Disjoint (initial-condition, forcing) generators for one path.

    This mapping is the reproducibility contract: (master_seed, path_index)
    -> streams, independent of batching and worker scheduling. Refactors must
    preserve it to keep golden trajectories valid.
    """
    root = np.random.SeedSequence(master_seed, spawn_key=(path_index,))
    ic_seq, noise_seq = root.spawn(2)
    return np.random.default_rng(ic_seq), np.random.default_rng(noise_seq)


def _initial_coeffs(config: SimConfig, basis: Basis, rng: np.random.Generator) -> np.ndarray:
    ic = config.initial_condition
    if ic.kind == "zero":
        return np.zeros(basis.n_modes)
    if ic.kind == "coeffs":
        return np.array(ic.coeffs, dtype=float)
    return ic.sigmas(basis.n_modes) * rng.standard_normal(basis.n_modes)


def _simulate_batch(
    params: ModelParams,
    spectrum: NoiseSpectrum,
    config: SimConfig,
    path_indices: np.ndarray,
) -> EnsembleRecord:
    """Simulate one batch of paths and record it at the output times.

    Each path's forcing generator fills its rows of one reused (B, n, K)
    buffer with a single draw per block of n steps (n from _DRAW_BLOCK_BYTES;
    the last block holds only the steps left). A block draw gives the same
    numbers as n draws of K, so results do not depend on the block length.
    The state is advanced in place, and the four squared norms of each
    output come from one reduction over a reused (4, B, K) buffer.
    """
    basis = spectrum.basis
    B = len(path_indices)
    K = basis.n_modes
    stepper = _Stepper(params, spectrum, config.dt, config.noise_fault_scale)

    gens = [_path_generators(config.master_seed, int(p)) for p in path_indices]
    a = np.stack([_initial_coeffs(config, basis, ic_rng) for ic_rng, _ in gens])
    v = np.zeros((B, K))
    noise_rngs = [noise_rng for _, noise_rng in gens]

    out_steps = config.output_steps()
    n_steps = int(out_steps[-1])
    slot_of = {int(s): i for i, s in enumerate(out_steps)}
    n_out = len(out_steps)
    series = np.empty((4, B, n_out))  # omega_sq, grad_sq, u_sq, wa_sq
    rec = EnsembleRecord(
        path_index=np.array(path_indices),
        times=config.output_times.copy(),
        omega_sq=series[0],
        grad_sq=series[1],
        u_sq=series[2],
        wa_sq=series[3],
        fields=np.empty((B, n_out, K)) if config.store_fields else None,
    )
    failed_at = [None] * B

    sq_wn = basis.sq_wavenumbers
    squares = np.empty((4, B, K))

    def record(slot: int, t: float):
        np.multiply(a, a, out=squares[0])
        np.multiply(np.multiply(sq_wn, a, out=squares[1]), a, out=squares[1])
        diff = np.subtract(a, v, out=squares[2])
        np.multiply(diff, diff, out=diff)
        np.multiply(v, v, out=squares[3])
        np.sum(squares, axis=2, out=series[:, :, slot])
        if rec.fields is not None:
            rec.fields[:, slot] = a
        # a nonfinite coefficient makes omega_sq nonfinite; a finite state whose
        # square overflows is not a failure, so the exact test is on a itself
        if not np.isfinite(series[0, :, slot]).all():
            for b in np.flatnonzero(~np.isfinite(a).all(axis=1)):
                if failed_at[b] is None:
                    failed_at[b] = t

    if 0 in slot_of:
        record(slot_of[0], 0.0)
    block = max(1, _DRAW_BLOCK_BYTES // (B * K * 8))
    xi_block = np.empty((B, min(block, n_steps), K))
    for first in range(1, n_steps + 1, block):
        n = min(block, n_steps + 1 - first)
        for rng, rows in zip(noise_rngs, xi_block):
            rng.standard_normal(out=rows[:n])
        for s in range(first, first + n):
            stepper.advance(a, v, xi_block[:, s - first])
            if s in slot_of:
                record(slot_of[s], s * config.dt)

    rec.failures = [(int(p), t) for p, t in zip(path_indices, failed_at) if t is not None]
    return rec


def simulate_path(
    config: SimConfig,
    params: ModelParams,
    spectrum: NoiseSpectrum,
    path_index: int,
) -> EnsembleRecord:
    """Simulate one path; a pure function of (master_seed, path_index)."""
    _check_basis(config, params, spectrum)
    rec = _simulate_batch(params, spectrum, config, np.array([path_index]))
    if rec.failures:
        raise BlowupError(rec.failures)
    return rec


def convolution_sup_norms(
    config: SimConfig,
    params: ModelParams,
    spectrum: NoiseSpectrum,
    path_index: int,
) -> np.ndarray:
    """||V||_inf of one path's companion convolution at the output times.

    V depends only on the path's forcing draws and the rates lambda_k - r, so
    replaying the path from rest with the drift switched off gives omega == V
    bit for bit. The sup norm is the grid max at resolution 4M.
    """
    replay = replace(config, initial_condition=InitialCondition(), store_fields=True)
    linear = replace(params, linearized=True, beta_term=False)
    rec = simulate_path(replay, linear, spectrum, path_index)
    return np.array([grid_max_norm(SpectralField(spectrum.basis, a), 4 * config.M)
                     for a in rec.fields[0]])


def _check_basis(config: SimConfig, params: ModelParams, spectrum: NoiseSpectrum):
    """The run's basis is the spectrum's; it must match the config's M and the params' nu."""
    basis = spectrum.basis
    if basis.M != config.M:
        raise ValueError(f"spectrum basis M={basis.M} does not match config M={config.M}")
    if basis.nu != params.nu:
        raise ValueError(f"spectrum basis nu={basis.nu} does not match params nu={params.nu}")


def run_ensemble(
    config: SimConfig,
    params: ModelParams,
    spectrum: NoiseSpectrum,
    n_workers: int = 1,
) -> list[EnsembleRecord]:
    """Simulate the full ensemble: one record per batch, in path-index order.

    Paths are grouped into batches of config.batch_size; the grouping depends
    only on the configuration, so any worker count produces bit-identical
    results. Raises BlowupError listing every failing path.
    """
    _check_basis(config, params, spectrum)
    indices = np.arange(config.n_paths)
    batches = [
        indices[lo: lo + config.batch_size]
        for lo in range(0, config.n_paths, config.batch_size)
    ]
    columns = (repeat(params), repeat(spectrum), repeat(config), batches)
    if n_workers > 1 and len(batches) > 1:
        # a fork pool starts every worker at the first submit: fork no idle ones
        with ProcessPoolExecutor(max_workers=min(n_workers, len(batches))) as pool:
            records = list(pool.map(_simulate_batch, *columns))
    else:
        records = list(map(_simulate_batch, *columns))
    failures = [failure for rec in records for failure in rec.failures]
    if failures:
        raise BlowupError(failures)
    return records
