"""Time integration of the stochastic vorticity equation in mild form.

The scheme is a per-mode exponential Euler step: with linear symbols
l_k = lambda_k - r (viscous decay plus Ekman drag folded into the
propagator), one step of size h reads

    a_k <- e^(l_k h) a_k + h phi1(l_k h) drift_k(omega) + eta_k,

where phi1(z) = (e^z - 1)/z, drift is the projected -beta psi_x - J(psi,
omega), and eta_k is an exact Ornstein-Uhlenbeck increment. The linear
subsystem is therefore integrated without any time-discretization error;
only the drift carries the first-order error. A pure-convolution companion
state takes the drift-free step on the same eta draws, giving each path its
own exact record of the forced linear response. A run without a drift takes
that step too, so from rest it is the companion (omega == W_A, Lemma 1 with
U == 0): it steps one state, and its records name omega_sq alone.

Paths are deterministic functions of (master_seed, path_index): every path
derives its generators from a seed sequence spawned with the path index as
key, with separate substreams for the initial condition and the forcing.
Ensembles are processed in fixed-size batches whose composition depends only
on the configuration, never on the worker count, so results are bitwise
reproducible under any parallel schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .noise import _BLOCK_VALUES, NoiseSpectrum, ou_transition_std
from .spectral import Basis, ParameterError, dealias_resolution


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

    @property
    def effective_beta(self) -> float:
        """The beta the equation runs with: 0 when the beta term is switched off."""
        return self.beta if self.beta_term else 0.0


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

    def moments(self, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode mean c_k and SD sigma_k of the start, a_k(0) ~ N(c_k, sigma_k^2), for every kind."""
        zeros = np.zeros(n_modes)
        if self.kind == "zero":
            return zeros, zeros
        if self.kind == "coeffs":
            if np.shape(self.coeffs) != (n_modes,):
                raise ParameterError("coeffs", f"needs {n_modes} entries, got {np.shape(self.coeffs)}")
            return np.array(self.coeffs, dtype=float), zeros
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 0:
            return zeros, np.full(n_modes, float(sig))
        if sig.shape != (n_modes,):
            raise ParameterError("sigma", f"needs a number or {n_modes} entries, got {sig.shape}")
        return zeros, sig

    @property
    def at_rest(self) -> bool:
        """omega_0 = 0 on every path: kind zero, or no nonzero coefficient or sigma."""
        return self.kind == "zero" or not np.any(self.coeffs if self.kind == "coeffs" else self.sigma)


# the largest count a config may size one array by: from about twice this, 8 bytes
# a value (with np.arange's padding) overflow np.intp, and numpy raises ValueError
# where a count that only exceeds memory raises MemoryError
MAX_ARRAY_VALUES = np.iinfo(np.intp).max // 16


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

    def __post_init__(self):
        if self.M < 1:
            raise ParameterError("M", f"must be >= 1, got {self.M}")
        if self.M * self.M > MAX_ARRAY_VALUES:
            raise ParameterError("M", f"must be <= {math.isqrt(MAX_ARRAY_VALUES)} to size an "
                                      f"array of M^2 coefficients, got {self.M}")
        if self.dt <= 0:
            raise ParameterError("dt", f"must be > 0, got {self.dt}")
        if self.T <= 0 or self.dt > self.T:
            raise ParameterError("T", f"must satisfy 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if self.T / self.dt >= 2.0**63:  # the step count is an int64
            raise ParameterError("dt", f"makes T/dt = {self.T / self.dt:.3g} steps, beyond 64-bit integers")
        if not 1 <= self.n_paths <= MAX_ARRAY_VALUES:
            raise ParameterError("n_paths", f"must lie in [1, {MAX_ARRAY_VALUES}], got {self.n_paths}")
        if self.batch_size < 1:
            raise ParameterError("batch_size", f"must be >= 1, got {self.batch_size}")
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError("master_seed", "must be a 64-bit unsigned integer")
        self.initial_condition.moments(self.M * self.M)  # rejects a list of the wrong length
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
    """Snap requested output times onto the step grid, warning on movement.

    A time that would snap past T takes the last step on or before T.
    """
    times = np.asarray(times, dtype=float)
    snapped = np.rint(times / dt) * dt
    moved = np.abs(snapped - times) > 1e-9 * np.maximum(np.abs(times), dt)
    if np.any(moved):
        warnings.warn(
            f"snapped {int(np.sum(moved))} output time(s) onto the dt={dt} grid",
            stacklevel=2,
        )
    last = np.rint(T / dt)  # the last step on or before T, within SimConfig's tolerance
    if last * dt > T + 1e-9 * T:  # an off-grid T whose fractional step is >= 1/2
        last -= 1.0
    # sorted, each entry kept unless it equals its left neighbour: np.unique's
    # result, without the numpy.ma import its first call costs every process
    snapped = np.sort(np.clip(snapped, 0.0, last * dt))
    keep = np.empty(snapped.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(snapped[1:], snapped[:-1], out=keep[1:])
    return snapped[keep]


# the per-path series a record reduces, omega_sq first; a one-state record holds it alone
SERIES = ("omega_sq", "u_sq", "wa_sq")


@dataclass
class EnsembleRecord:
    """Diagnostics of one batch of paths at the output times, one row per path.

    `series` (len(names), n_paths, n_out) holds one scalar per path and output
    for each of its `names`, and `rec[name]` reads one: the squared norm of
    the vorticity (omega_sq = ||omega||^2), the squared distance to the
    companion convolution (u_sq = ||omega - V||^2) and the companion's squared
    norm (wa_sq = ||W_A||^2); nothing else is reduced at an output. A run
    without a drift from rest steps no companion: omega is W_A there and U is
    0, so its records name omega_sq alone. The coefficient snapshots,
    (n_paths, n_out, M^2), are kept only when the run stores fields; other
    quadratic diagnostics, such as ||grad omega||^2, come from them.
    A batch reports no blowup: `run_ensemble` finds one in the series.
    """

    path_index: np.ndarray
    times: np.ndarray
    names: tuple[str, ...]
    series: np.ndarray
    fields: np.ndarray | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.series[self.names.index(name)]


class WorkerError(RuntimeError):
    """A worker process of the ensemble's pool died before the run finished."""


class BlowupError(RuntimeError):
    """Nonfinite squared norms encountered; carries all failing (path, time) pairs."""

    def __init__(self, failures: list[tuple[int, float]]):
        self.failures = failures
        listing = ", ".join(f"path {p} at t={t:g}" for p, t in failures)
        super().__init__(f"nonfinite squared norms in {len(failures)} path(s): {listing}")


def phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, as expm1(z) / z; 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)


# byte budget of a drift chunk's two grid-sized work arrays, 4 * 8 * Q * (M + Q)
# bytes a path; the forcing draws take noise._BLOCK_VALUES (256 KiB), a budget that
# slows nonlinear batches by 5-17% when the chunks share it
_DRIFT_CHUNK_BYTES = 2**20


class _Stepper:
    """Precomputed batched exponential-Euler apparatus for one (params, spectrum, dt).

    `drift_flat` evaluates a batch in chunks of at most `chunk` paths: as many
    as fit _DRIFT_CHUNK_BYTES with their derivative grids on the dealiased
    P-grid (Q = P - 1 interior points a side), at least one. That is a whole
    32-path batch at M=16, 8 paths at M=32 and 2 at M=64, so the drift's work
    arrays stop growing with the batch past the budget. Every product and
    elementwise operation acts per path, so the chunking changes no bit. The
    forcing draws keep to the smaller noise._BLOCK_VALUES; the grid products
    lose speed in chunks that small.
    """

    def __init__(self, params: ModelParams, spectrum: NoiseSpectrum, dt: float):
        basis = self.basis = spectrum.basis
        self.rates = basis.eigenvalues - params.r
        self.decay = np.exp(self.rates * dt)
        self.drift_weight = dt * phi1(self.rates * dt)
        self.noise_std = ou_transition_std(spectrum.mu, self.rates, dt)

        self.inv_lap = basis.to_grid2d(-1.0 / basis.sq_wavenumbers).reshape(basis.M, basis.M)
        self.advective = not params.linearized
        self.beta = params.effective_beta
        self.needs_drift = self.advective or self.beta != 0.0
        P = dealias_resolution(basis.M)
        self.chunk = max(1, _DRIFT_CHUNK_BYTES // (32 * (P - 1) * (basis.M + P - 1)))
        # work arrays are reused, per chunk shape and per batch shape: fresh
        # arrays of 128 KiB and more on every step make the C allocator return
        # their pages and fault them in again each step, which costs more than
        # the arithmetic (grid-sized ones at M=16, the (B, K) ones at M=32)
        self._work: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._step_work: dict[tuple[int, ...], np.ndarray] = {}
        if self.advective:
            sin_mat, dsin_mat = basis.trig_matrices(P)
            # left factors carry the factor 2 of the orthonormal eigenfunctions;
            # left[i] X right[i] is the grid of d/dx (i = 0) or d/dy (i = 1) of X
            self.left = np.stack([2.0 * dsin_mat.T, 2.0 * sin_mat.T])[:, None, None]
            self.right = np.stack([sin_mat, dsin_mat])[:, None, None]
            self.project_left = (2.0 / P**2) * sin_mat
            self.project_right = sin_mat.T.copy()
        if self.beta != 0.0:
            self.dx_matrix = basis.x_derivative_matrix()

    def drift_flat(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Projected drift -beta psi_x - J(psi, omega) of a batch of states (B, K).

        Written into `out` (B, K) if given, else into a new array.
        """
        if out is None:
            out = np.empty_like(a)
        if not self.needs_drift:
            out.fill(0.0)
            return out
        for lo in range(0, len(a), self.chunk):
            self._drift_chunk(a[lo:lo + self.chunk], out[lo:lo + self.chunk])
        return out

    def _drift_chunk(self, a: np.ndarray, out: np.ndarray):
        """The drift of one chunk of states (C, K), written into out (C, K)."""
        work = self._work.get(a.shape)
        if work is None:
            C, M, n = a.shape[0], self.basis.M, dealias_resolution(self.basis.M) - 1
            work = self._work[a.shape] = [np.empty((2, C, M, M))]
            if self.advective:
                work += [np.empty((2, 2, C, n, M)), np.empty((2, 2, C, n, n)), np.empty((C, M, n))]
        fields = work[0]
        self.basis.to_grid2d(a, out=fields[1])
        psi2 = np.multiply(fields[1], self.inv_lap, out=fields[0])
        drift = 0.0
        if self.advective:
            half, grids, proj = work[1:]
            # grids[i, j]: d/dx (i = 0) or d/dy (i = 1) of psi (j = 0) or omega (j = 1)
            np.matmul(np.matmul(self.left, fields, out=half), self.right, out=grids)
            (px, ox), (py, oy) = grids
            jac = np.subtract(np.multiply(px, oy, out=px), np.multiply(py, ox, out=py), out=px)
            drift = -(np.matmul(self.project_left, jac, out=proj) @ self.project_right)
        if self.beta != 0.0:
            drift = drift - self.beta * (self.dx_matrix @ psi2)
        self.basis.from_grid2d(drift, out=out)

    def propagate(self, x: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """The drift-free step decay * x + eta of a batch (B, K), in place: the companion's."""
        x *= self.decay
        x += eta
        return x

    def advance(self, a: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """One step of a batch of states a on OU increments eta, each (B, K), in place.

        a is overwritten with the new states and returned; eta is only read. The
        operations keep the order of decay * a + drift_weight * drift + eta.
        """
        if not self.needs_drift:
            return self.propagate(a, eta)
        drift = self._step_work.get(a.shape)
        if drift is None:
            drift = self._step_work[a.shape] = np.empty_like(a)
        self.drift_flat(a, out=drift)
        drift *= self.drift_weight
        a *= self.decay
        a += drift
        a += eta
        return a


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
    """A path's start: its mean, or for a Gaussian start (mean 0) K draws scaled by the SDs."""
    c, sigma = config.initial_condition.moments(basis.n_modes)
    return sigma * rng.standard_normal(basis.n_modes) if config.initial_condition.kind == "gaussian" else c


def _simulate_batch(
    params: ModelParams,
    spectrum: NoiseSpectrum,
    config: SimConfig,
    path_indices: np.ndarray,
) -> EnsembleRecord:
    """Simulate one batch of paths and record it at the output times.

    Each path's forcing generator fills its rows of one reused (B, n, K)
    buffer with a single draw per block of n steps: as many as fit
    noise._BLOCK_VALUES, at least one (4 steps for 32 paths at M=16, 1 at
    M=32 and beyond); the last block holds only the steps left. A block draw
    gives the same numbers as n draws of K, so results do not depend on the
    block length; one multiply by the OU transition stds makes the block the
    steps' increments.
    The state is advanced in place, and the squared norms of each output come
    from one reduction of a reused (S, B, K) buffer into the record's
    (S, B, n_out) series.

    A run without a drift from rest keeps no companion: the state takes the
    companion's drift-free step on the same increments, so from +0.0 it is
    the companion bit for bit (a -0.0 start differs from it at most in a
    zero's sign). It reduces a^2 alone (S = 1, not 3).
    """
    basis = spectrum.basis
    B = len(path_indices)
    K = basis.n_modes
    stepper = _Stepper(params, spectrum, config.dt)

    gens = [_path_generators(config.master_seed, int(p)) for p in path_indices]
    a = np.stack([_initial_coeffs(config, basis, ic_rng) for ic_rng, _ in gens])
    v = None if not stepper.needs_drift and config.initial_condition.at_rest else np.zeros((B, K))
    noise_rngs = [noise_rng for _, noise_rng in gens]

    out_steps = config.output_steps()
    n_steps = int(out_steps[-1])
    slot_of = {int(s): i for i, s in enumerate(out_steps)}
    n_out = len(out_steps)
    names = SERIES[:1] if v is None else SERIES
    squares = np.empty((len(names), B, K))
    series = np.empty((len(names), B, n_out))
    rec = EnsembleRecord(
        path_index=np.array(path_indices),
        times=config.output_times.copy(),
        names=names,
        series=series,
        fields=np.empty((B, n_out, K)) if config.store_fields else None,
    )

    def record(slot: int):
        np.square(a, out=squares[0])
        if v is not None:
            np.square(np.subtract(a, v, out=squares[1]), out=squares[1])
            np.square(v, out=squares[2])
        np.add.reduce(squares, axis=2, out=series[:, :, slot])
        if rec.fields is not None:
            rec.fields[:, slot] = a

    block = max(1, _BLOCK_VALUES // (B * K))
    eta_block = np.empty((B, min(block, n_steps), K))
    # a state that overflows is a nonfinite series, which `run_ensemble` reports as a blowup
    with np.errstate(over="ignore", invalid="ignore"):
        if 0 in slot_of:
            record(slot_of[0])
        for first in range(1, n_steps + 1, block):
            n = min(block, n_steps + 1 - first)
            for rng, rows in zip(noise_rngs, eta_block):
                rng.standard_normal(out=rows[:n])
            eta_block[:, :n] *= stepper.noise_std
            for s in range(first, first + n):
                eta = eta_block[:, s - first]
                stepper.advance(a, eta)
                if v is not None:
                    stepper.propagate(v, eta)
                if s in slot_of:
                    record(slot_of[s])
    return rec


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
    results. Raises BlowupError listing, in path order, each path whose record
    holds a nonfinite series with the first such output time, and WorkerError
    when a pool worker dies.
    """
    _check_basis(config, params, spectrum)
    indices = np.arange(config.n_paths)
    batches = [
        indices[lo: lo + config.batch_size]
        for lo in range(0, config.n_paths, config.batch_size)
    ]
    columns = (repeat(params), repeat(spectrum), repeat(config), batches)
    if n_workers > 1 and len(batches) > 1:
        # the pool's module, with logging and multiprocessing, loads only here
        import concurrent.futures

        # a fork pool starts every worker at the first submit: fork no idle ones
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=min(n_workers, len(batches))) as pool:
                records = list(pool.map(_simulate_batch, *columns))
        except concurrent.futures.BrokenExecutor as err:
            raise WorkerError(str(err)) from err
    else:
        records = list(map(_simulate_batch, *columns))
    steps = config.output_steps()
    failures = []
    for rec in records:
        bad = ~np.isfinite(rec.series).all(axis=0)  # (n_paths, n_out)
        failures += [(int(rec.path_index[b]), float(steps[bad[b].argmax()] * config.dt))
                     for b in np.flatnonzero(bad.any(axis=1))]
    if failures:
        raise BlowupError(failures)
    return records
