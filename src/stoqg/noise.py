"""Forcing spectra and exact sampling of the stochastic convolution.

The forcing is a diagonal Wiener process on the sine basis: independent
Brownian motions scaled by per-mode amplitudes mu_k, assigned in rank order.
The canonical amplitude family is the power law mu_k^2 = c_mu * k^(-mu_exp);
an explicit list can be supplied instead for one-off experiments.

Pushed through a stable linear propagator with per-mode rates l_k < 0, each
mode of the convolution is an Ornstein-Uhlenbeck process. The transition over
a step h is Gaussian with known mean and variance, so increments are sampled
exactly in distribution; there is no time-discretization error anywhere in
the linear-plus-noise subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Basis, ParameterError


@dataclass
class NoiseSpectrum:
    """Per-mode noise amplitudes mu_k over a basis, in rank order.

    Attributes:
        basis: the mode set the amplitudes refer to.
        mu: amplitudes mu_k >= 0, shape (M^2,).
        theta: summability exponent in (0, 1) used by phi_alpha.
        c_mu, mu_exp: generation rule mu_k^2 = c_mu * k^(-mu_exp), or None
            when the spectrum was given as an explicit list.
        trace_class: whether sum mu_k^2 converges for the untruncated rule
            (mu_exp > 1; explicit finite lists are trivially summable).
    """

    basis: Basis
    mu: np.ndarray
    theta: float
    c_mu: float | None = None
    mu_exp: float | None = None
    trace_class: bool = True

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.shape != (self.basis.n_modes,):
            raise ParameterError("mu", f"needs {self.basis.n_modes} entries, got {self.mu.shape}")
        if np.any(self.mu < 0):
            raise ParameterError("mu", "entries must be nonnegative")
        if not 0.0 < self.theta < 1.0:
            raise ParameterError("theta", f"must lie in (0, 1), got {self.theta}")

    @property
    def mu_sq(self) -> np.ndarray:
        return self.mu**2


class SummabilityError(ParameterError):
    """Raised when a generation rule violates the noise summability condition."""


def build_spectrum(basis: Basis, c_mu: float, mu_exp: float, theta: float) -> NoiseSpectrum:
    """Power-law spectrum mu_k^2 = c_mu * k^(-mu_exp).

    Validates the summability surrogate mu_exp > theta (the mode counting
    |lambda_k| ~ c k turns the condition sum mu_k^2 / |lambda_k|^(1-theta)
    < infinity into mu_exp + (1 - theta) > 1) and flags whether the full,
    untruncated covariance would be trace-class (mu_exp > 1).
    """
    if c_mu < 0:
        raise ParameterError("c_mu", f"must be >= 0, got {c_mu}")
    if c_mu > 0 and mu_exp <= theta:
        raise SummabilityError("mu_exp", f"must exceed theta={theta} for summability, got {mu_exp}")
    k = np.arange(1, basis.n_modes + 1, dtype=float)
    mu = np.sqrt(c_mu) * k ** (-mu_exp / 2.0)
    trace_class = (c_mu == 0) or (mu_exp > 1.0)
    return NoiseSpectrum(basis, mu, theta, c_mu=c_mu, mu_exp=mu_exp, trace_class=trace_class)


def spectrum_from_list(basis: Basis, mu_sq_list, theta: float) -> NoiseSpectrum:
    """Explicit-list spectrum; the list length must match the mode count."""
    mu_sq = np.asarray(mu_sq_list, dtype=float)
    if np.any(mu_sq < 0):
        raise ParameterError("mu_sq_list", "entries must be nonnegative")
    return NoiseSpectrum(basis, np.sqrt(mu_sq), theta, trace_class=True)


def trace(spec: NoiseSpectrum) -> float:
    """Truncated trace of the covariance operator, sum of mu_k^2."""
    return float(np.sum(spec.mu_sq))


def phi_alpha(spec: NoiseSpectrum, alpha: float) -> float:
    """The series sum_k mu_k^2 |lambda_k|^theta / (alpha - lambda_k).

    Controls the sup-norm moments of the shifted convolution; strictly
    decreasing in alpha, finite for every alpha >= 0 since lambda_k < 0.
    """
    if alpha < 0:
        raise ValueError(f"shift alpha must be >= 0, got {alpha}")
    lam_abs = -spec.basis.eigenvalues
    return float(np.sum(spec.mu_sq * lam_abs**spec.theta / (alpha + lam_abs)))


# a block of output times is a whole multiple of this many rows ...
_BLOCK_ALIGN = 64
# ... holding at most this many values, or one aligned step when the modes alone exceed it
_BLOCK_VALUES = 2**15


def _checked_rates(spec: NoiseSpectrum, rates) -> np.ndarray:
    """One strictly negative rate per mode of the spectrum."""
    rates = np.asarray(rates, dtype=float)
    if rates.shape != spec.mu.shape:
        raise ValueError(f"rates must have the spectrum's shape {spec.mu.shape}, got {rates.shape}")
    if np.any(rates >= 0):
        raise ValueError("convolution rates must be strictly negative")
    return rates


def _ou_saturation_walk(rates: np.ndarray, t, reduce) -> np.ndarray | float:
    """Reduce 1 - e^(2 l_k t) over the modes, one block of output times at a time.

    Each block of the (times x modes) matrix is formed in one reused array and
    handed to `reduce`, which may overwrite it and returns one value per time,
    so memory is O(block) rather than O(times x modes). Blocks are whole
    multiples of 64 times, and a one-time tail joins the block before it:
    numpy sends a one-row matrix through a vector dot instead of gemv, so only
    this rule keeps every per-time value the bits of one full-matrix reduction.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")
    times = t_arr.ravel()
    n_times = times.size
    step = _BLOCK_ALIGN * max(1, _BLOCK_VALUES // (_BLOCK_ALIGN * rates.size))
    block = np.empty((min(n_times, step + 1), rates.size))
    out = np.empty(n_times)
    start = 0
    while start < n_times:
        stop = n_times if n_times - (start + step) <= 1 else start + step
        rows = block[:stop - start]
        np.multiply.outer(times[start:stop], rates, out=rows)
        rows *= 2.0
        np.exp(rows, out=rows)
        np.subtract(1.0, rows, out=rows)
        out[start:stop] = reduce(rows)
        start = stop
    return out.reshape(t_arr.shape) if t_arr.shape else float(out[0])


def analytic_convolution_variance(spec: NoiseSpectrum, rates: np.ndarray, t) -> np.ndarray | float:
    """E ||W(t)||^2 of the mode-wise OU system with the given negative rates.

    Equals sum_k mu_k^2 (1 - e^(2 l_k t)) / (-2 l_k): zero at t = 0, strictly
    increasing and concave in t, saturating at sum mu_k^2 / (-2 l_k). `rates`
    holds one rate per mode of the spectrum. The sum over modes is one matmul
    per block of output times (whole multiples of 64 times, a one-time tail
    merged into the block before it), which gives the bits of one matmul over
    all times.
    """
    rates = _checked_rates(spec, rates)
    per_mode = spec.mu_sq / (-2.0 * rates)
    return _ou_saturation_walk(rates, t, lambda rows: rows @ per_mode)


def mode_variance_sum_sq(spec: NoiseSpectrum, rates: np.ndarray, t) -> np.ndarray | float:
    """sum_k s_k(t)^2 of the per-mode variances s_k(t) = mu_k^2 (1 - e^(2 l_k t)) / (-2 l_k).

    Half of it is the variance of 0.5 ||W(t)||^2, since W_k(t) ~ N(0, s_k(t))
    independently. Reduced over the same blocks of output times as
    `analytic_convolution_variance` (whole multiples of 64 times, a one-time
    tail merged), with the bits of one full-matrix `np.sum(s**2, axis=1)`.
    """
    rates = _checked_rates(spec, rates)
    mu_sq, denom = spec.mu_sq, -2.0 * rates

    def reduce(rows):
        rows *= mu_sq
        rows /= denom
        np.square(rows, out=rows)
        return rows.sum(axis=1)

    return _ou_saturation_walk(rates, t, reduce)


def stationary_tail_bound(spec: NoiseSpectrum) -> float:
    """Upper estimate of the stationary variance lost to truncation.

    Uses the first-order Weyl growth |lambda_k| ~ 4 pi nu k of the unit-square
    spectrum to bound sum_{k > M^2} mu_k^2 / (2 |lambda_k|) under the power
    rule by an integral. Reported as a diagnostic; explicit-list spectra
    carry no tail and return 0.
    """
    if spec.c_mu is None or spec.c_mu == 0 or spec.mu_exp is None:
        return 0.0
    if spec.mu_exp <= 0:
        return float("inf")
    K = spec.basis.n_modes
    return spec.c_mu / (8.0 * np.pi * spec.basis.nu * spec.mu_exp * K**spec.mu_exp)


def ou_transition_std(mu: np.ndarray, rates: np.ndarray, h: float) -> np.ndarray:
    """Standard deviation mu_k sqrt((1 - e^(2 l_k h)) / (-2 l_k)) of one step.

    The transition v_k <- e^(l_k h) v_k + std_k * xi_k is exact in
    distribution, so v_k(t) started from zero is
    Normal(0, mu_k^2 (1 - e^(2 l_k t)) / (-2 l_k)) for any partition of [0, t].
    """
    return mu * np.sqrt((1.0 - np.exp(2.0 * rates * h)) / (-2.0 * rates))
