"""Forcing spectra and exact sampling of the stochastic convolution.

The forcing is a diagonal Wiener process on the sine basis: independent
Brownian motions scaled by per-mode amplitudes mu_k, assigned in rank order.
The canonical amplitude family is the power law mu_k^2 = c_mu * k^(-mu_exp);
an explicit list can be supplied instead for one-off experiments.

Pushed through a stable linear propagator with per-mode rates l_k < 0, each
mode of the convolution is an Ornstein-Uhlenbeck process. The transition over
a step h is Gaussian with known mean and variance, so increments are sampled
exactly in distribution; there is no time-discretization error anywhere in
the linear-plus-noise subsystem. `companion_law` gives that convolution's law
from rest at the solver's rates: the mean and standard deviation of ||W_A(t)||^2.
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


# a block of output times holds at most this many values (256 KiB), or one time when
# the modes alone exceed it. The forcing draws (dynamics) share this budget; the
# estimator (analysis) folds one record at a time, so its block is one batch's rows
_BLOCK_VALUES = 2**15


def companion_law(spec: NoiseSpectrum, r: float, times) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of ||W_A(t)||^2, the companion convolution from rest.

    Mode k of W_A is an OU process at the solver's rate l_k = lambda_k - r, so
    W_k(t) ~ N(0, s_k(t)) independently, s_k(t) = mu_k^2 (1 - e^(2 l_k t)) / (-2 l_k),
    and ||W_A(t)||^2 has mean sum_k s_k(t) and variance 2 sum_k s_k(t)^2. The mean
    is zero at t = 0, increasing and concave, saturating at sum mu_k^2 / (-2 l_k).
    `times` is a 1-D array of times >= 0.

    Each output time is one numpy sum over the modes, so its bits depend neither on
    the other times nor on the block of times it is computed in; memory is one block.
    The sums run at the amplitudes scaled by the power of two that brings max mu_k^2
    into [0.5, 2), so the squares stay in the double range at any amplitude, and
    are scaled back exactly after the square root.
    """
    if not r >= 0:
        raise ValueError(f"Ekman rate r must be >= 0, got {r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0):
        raise ValueError("times must be a 1-D array of values >= 0")
    rates = spec.basis.eigenvalues - r
    h = int(np.frexp(spec.mu_sq.max())[1]) // 2
    per_mode = np.square(np.ldexp(spec.mu, -h)) / (-2.0 * rates)
    step = max(1, _BLOCK_VALUES // rates.size)
    block = np.empty((min(times.size, step), rates.size))
    mean, sum_sq = np.empty(times.size), np.empty(times.size)
    for start in range(0, times.size, step):
        stop = min(start + step, times.size)
        rows = block[:stop - start]
        np.multiply.outer(times[start:stop], 2.0 * rates, out=rows)
        np.exp(rows, out=rows)
        np.subtract(1.0, rows, out=rows)
        rows *= per_mode
        mean[start:stop] = rows.sum(axis=1)
        np.square(rows, out=rows)
        sum_sq[start:stop] = rows.sum(axis=1)
    return np.ldexp(mean, 2 * h), np.ldexp(np.sqrt(2.0 * sum_sq), 2 * h)


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
