"""Forcing spectra and exact sampling of the stochastic convolution.

The forcing is a diagonal Wiener process on the sine basis: independent
Brownian motions scaled by per-mode amplitudes mu_k, assigned in rank order.
The canonical amplitude family is the power law mu_k^2 = c_mu * k^(-mu_exp);
an explicit list can be supplied instead for one-off experiments.

Pushed through a stable linear propagator with per-mode rates l_k < 0, each
mode of the convolution is an Ornstein-Uhlenbeck process. The transition over
a step h is Gaussian with known mean and variance, so increments are sampled
exactly in distribution; there is no time-discretization error anywhere in
the linear-plus-noise subsystem. `ou_variance` forms s_k(t), the variance a
mode gains from 0 over t, for the step's std and for `linear_law`: the mean and
SD of ||a(t)||^2 of a linear run a(t) = e^(At) a(0) + W_A(t) from a Gaussian or
fixed start, at the solver's rates; from rest, the law of W_A.
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


# the law's work arrays for a block of output times hold at most this many values
# (256 KiB), or one time's when the modes alone exceed it. The forcing draws (dynamics)
# share this budget; the estimator (analysis) folds one record at a time
_BLOCK_VALUES = 2**15


def ou_variance(mu_sq, rates: np.ndarray, t) -> np.ndarray:
    """s_k(t) = mu_k^2 (e^(2 l_k t) - 1) / (2 l_k), the variance mode k gains from 0 over t.

    Formed with expm1, which keeps its bits at small |l_k| t, where 1 - e^(2 l_k t)
    cancels. `mu_sq` and `t` broadcast against the rates: a column of times gives
    one row a time.
    """
    return mu_sq * (np.expm1(2.0 * rates * t) / (2.0 * rates))


def linear_law(spec: NoiseSpectrum, r: float, times, c=0.0, sigma=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of ||a(t)||^2 for a linear run from a_k(0) ~ N(c_k, sigma_k^2).

    Mode k is an OU process at the solver's rate l_k = lambda_k - r, so
    a_k(t) ~ N(m_k, v_k) independently, m_k = e^(l_k t) c_k and
    v_k = e^(2 l_k t) sigma_k^2 + s_k(t) (`ou_variance`), and ||a(t)||^2 has mean
    sum_k (m_k^2 + v_k) and variance sum_k (2 v_k^2 + 4 m_k^2 v_k). From rest (c =
    sigma = 0) it is the law of W_A, saturating at sum mu_k^2 / (-2 l_k). `c` and
    `sigma` are numbers or per-mode arrays; `times` is a 1-D array of times >= 0.

    Each output time is one numpy sum over the modes, so its bits depend neither on
    the other times nor on the block of times it is computed in. The sums run at
    mu_k, c_k and sigma_k scaled by the power of two that brings the largest into
    [0.5, 1), so the squares stay in the double range at any amplitude, and are
    scaled back exactly after the square root.
    """
    if not r >= 0:
        raise ValueError(f"Ekman rate r must be >= 0, got {r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0):
        raise ValueError("times must be a 1-D array of values >= 0")
    rates = spec.basis.eigenvalues - r
    h = int(np.frexp(max(np.max(spec.mu), np.max(np.abs(c)), np.max(sigma)))[1])
    mu_sq, c_sq, sigma_sq = (np.square(np.ldexp(x, -h)) for x in (spec.mu, c, sigma))
    step = max(1, _BLOCK_VALUES // (4 * rates.size))
    mean, var = np.empty(times.size), np.empty(times.size)
    for start in range(0, times.size, step):
        t = times[start:start + step, None]
        grow = np.exp(2.0 * rates * t)
        m_sq = grow * c_sq
        v = grow * sigma_sq + ou_variance(mu_sq, rates, t)
        mean[start:start + step] = np.sum(m_sq + v, axis=1)
        var[start:start + step] = np.sum(v * (v + 2.0 * m_sq), axis=1)
    return np.ldexp(mean, 2 * h), np.ldexp(np.sqrt(2.0 * var), 2 * h)


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
    """Standard deviation sqrt(s_k(h)) of one step, as mu_k sqrt(s_k(h) / mu_k^2): an
    amplitude whose square underflows keeps its bits.

    The transition v_k <- e^(l_k h) v_k + std_k * xi_k is exact in distribution,
    so v_k(t) from zero is Normal(0, s_k(t)) for any partition of [0, t].
    """
    return mu * np.sqrt(ou_variance(1.0, rates, h))
