"""Spectrum construction, the phi(alpha) series, and exact OU sampling."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from stoqg import (
    Basis,
    SummabilityError,
    build_spectrum,
    linear_law,
    phi_alpha,
    spectrum_from_list,
    trace,
)
from stoqg import noise
from stoqg.noise import ou_transition_std, stationary_tail_bound


def basis_with_lambda(value: float):
    """Single-mode basis whose eigenvalue equals -value (value > 0)."""
    return Basis(1, value / (2 * np.pi**2))


class TestBuildSpectrum:
    def test_rejects_summability_violation(self):
        b = Basis(2, 1.0)
        with pytest.raises(SummabilityError):
            build_spectrum(b, c_mu=1.0, mu_exp=0.0, theta=0.1)

    def test_rejects_bad_theta(self):
        b = Basis(2, 1.0)
        for theta in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                build_spectrum(b, c_mu=1.0, mu_exp=2.0, theta=theta)

    def test_power_rule_values(self):
        # c_mu=4, mu_exp=2 on 3 modes: mu^2 = {4, 1, 4/9}, trace 49/9
        b = Basis(2, 1.0)
        spec = build_spectrum(b, c_mu=4.0, mu_exp=2.0, theta=0.5)
        np.testing.assert_allclose(spec.mu_sq[:3], [4.0, 1.0, 4.0 / 9.0])
        partial = spectrum_from_list(b, [4.0, 1.0, 4.0 / 9.0, 0.0], theta=0.5)
        assert trace(partial) == pytest.approx(49.0 / 9.0)

    def test_non_trace_class_flag(self):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, c_mu=1.0, mu_exp=0.5, theta=0.25)
        assert not spec.trace_class
        assert build_spectrum(b, c_mu=1.0, mu_exp=2.0, theta=0.25).trace_class
        assert build_spectrum(b, c_mu=0.0, mu_exp=0.5, theta=0.25).trace_class

    def test_explicit_list_roundtrip(self):
        b = Basis(2, 1.0)
        spec = spectrum_from_list(b, [1.0, 0.0, 0.25, 4.0], theta=0.3)
        np.testing.assert_allclose(spec.mu, [1.0, 0.0, 0.5, 2.0])
        with pytest.raises(ValueError):
            spectrum_from_list(b, [1.0, -1.0, 0.0, 0.0], theta=0.3)


class TestTrace:
    def test_unit_modes(self):
        b = Basis(2, 1.0)
        assert trace(spectrum_from_list(b, [1.0, 1.0, 1.0, 0.0], theta=0.5)) == 3.0

    def test_zero_spectrum(self):
        b = Basis(2, 1.0)
        assert trace(build_spectrum(b, 0.0, 2.0, 0.5)) == 0.0

    def test_partial_sum_oracle(self):
        # direct-summation oracle at two truncations of mu_k^2 = k^-2
        b10 = Basis(10, 1.0)
        spec = build_spectrum(b10, 1.0, 2.0, 0.5)
        assert trace(spec) == pytest.approx(1.6349839001848931, rel=1e-12)
        b16 = Basis(16, 1.0)
        assert trace(build_spectrum(b16, 1.0, 2.0, 0.5)) == pytest.approx(
            np.sum(1.0 / np.arange(1, 257.0) ** 2), rel=1e-14
        )

    def test_tail_bound_diagnostic(self):
        b8 = Basis(8, 1.0)
        b16 = Basis(16, 1.0)
        t8 = stationary_tail_bound(build_spectrum(b8, 1.0, 2.0, 0.5))
        t16 = stationary_tail_bound(build_spectrum(b16, 1.0, 2.0, 0.5))
        assert 0.0 < t16 < t8


class TestPhiAlpha:
    def test_single_mode_value(self):
        # mu^2 = 2, lambda = -2, theta = 0.5, alpha = 0 -> 2 * 2^0.5 / 2 = sqrt(2)
        spec = spectrum_from_list(basis_with_lambda(2.0), [2.0], theta=0.5)
        assert phi_alpha(spec, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_strictly_decreasing_to_zero(self):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 1.5, 0.2)
        alphas = np.geomspace(1e-2, 1e6, 20)
        values = [phi_alpha(spec, a) for a in alphas]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 1e-4 * values[0]

    def test_termwise_bound(self):
        b = Basis(6, 1.0)
        spec = build_spectrum(b, 2.0, 1.2, 0.3)
        lam_abs = -b.eigenvalues
        cap = np.sum(spec.mu_sq * lam_abs**spec.theta)
        for alpha in (0.5, 5.0, 50.0, 5e3):
            assert phi_alpha(spec, alpha) <= cap / alpha

    def test_scaling_exponent(self):
        # numeric fit of the alpha^(theta - mu_exp) regime; the eigenvalue
        # range of the nu=2, M=32 basis brackets the fit window [1e2, 1e4]
        b = Basis(32, 2.0)
        spec = build_spectrum(b, 1.0, 0.6, 0.1)
        alphas = np.geomspace(1e2, 1e4, 9)
        values = np.array([phi_alpha(spec, a) for a in alphas])
        slope = np.polyfit(np.log(alphas), np.log(values), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_rejects_negative_alpha(self):
        spec = spectrum_from_list(basis_with_lambda(1.0), [1.0], theta=0.5)
        with pytest.raises(ValueError):
            phi_alpha(spec, -1.0)


class TestAnalyticVariance:
    def test_single_mode_value(self):
        # s(1) = (1 - e^-2) / 2 at l = -1, and W^2 ~ s chi^2_1 has SD sqrt(2) s
        spec = spectrum_from_list(basis_with_lambda(1.0), [1.0], theta=0.5)
        mean, sd = linear_law(spec, 0.0, np.array([1.0]))
        assert mean[0] == pytest.approx(0.43233235838169365, rel=1e-14)
        assert sd[0] == pytest.approx(np.sqrt(2.0) * 0.43233235838169365, rel=1e-14)

    def test_zero_at_time_zero(self):
        b = Basis(3, 1.0)
        spec = build_spectrum(b, 2.0, 1.5, 0.2)
        mean, sd = linear_law(spec, 0.1, np.array([0.0]))
        assert mean.tolist() == [0.0] and sd.tolist() == [0.0]

    def test_increasing_concave_saturating(self):
        b = Basis(3, 0.05)  # slow decay keeps increments resolvable
        spec = build_spectrum(b, 2.0, 1.5, 0.2)
        ts = np.linspace(0.0, 2.0, 50)
        var, _ = linear_law(spec, 0.0, ts)
        assert np.all(np.diff(var) > 0)
        assert np.all(np.diff(var, 2) < 1e-12)
        limit = np.sum(spec.mu_sq / (-2.0 * b.eigenvalues))
        assert var[-1] <= limit
        far, _ = linear_law(spec, 0.0, np.array([50.0]))
        assert far[0] == pytest.approx(limit, rel=1e-9)

    def test_small_time_growth_exponent(self):
        # consistency with the small-time power law: slope >= delta - 0.05
        delta = 0.5
        b = Basis(32, 1.0)
        spec = build_spectrum(b, 1.0, delta, 0.1)
        ts = np.geomspace(1e-5, 1e-3, 9)
        var, _ = linear_law(spec, 0.0, ts)
        slope = np.polyfit(np.log(ts), np.log(var), 1)[0]
        assert slope >= delta - 0.05

    def test_rejects_negative_r(self):
        spec = spectrum_from_list(basis_with_lambda(1.0), [1.0], theta=0.5)
        for r in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="Ekman rate"):
                linear_law(spec, r, np.array([1.0]))

    @pytest.mark.parametrize("times", [np.array([0.0, -1e-3]), 1.0, np.ones((2, 2))])
    def test_rejects_negative_or_non_1d_times(self, times):
        spec = spectrum_from_list(basis_with_lambda(1.0), [1.0], theta=0.5)
        with pytest.raises(ValueError, match="1-D array of values >= 0"):
            linear_law(spec, 0.1, times)

    def test_memory_does_not_grow_with_output_times(self):
        # 4001 times x 1024 modes is 32.8 MB as one matrix; the blocked walk's
        # work arrays for 8 times at M=32 hold 256 KiB
        b = Basis(32, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        times = np.linspace(0.0, 4.0, 4001)
        tracemalloc.start()
        try:
            linear_law(spec, 0.1, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_small_times_keep_their_bits(self):
        # lin16_dense's physics at t = 1e-8: s_k(t) = mu_k^2 t (1 + l t + 2/3 (l t)^2 + 1/3 (l t)^3
        # + ...), and 1 - e^(2 l t) cancelled to 6.5e-11 relative where expm1 keeps the bits
        b, t = Basis(16, 1.0), 1e-8
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        lt = (b.eigenvalues - 0.1) * t
        want = math.fsum(spec.mu_sq * t * (1.0 + lt + 2.0 / 3.0 * lt**2 + lt**3 / 3.0))
        mean, _ = linear_law(spec, 0.1, np.array([t]))
        assert abs(mean[0] - want) <= 1e-15 * want

    def test_law_from_a_start(self):
        # one mode at l = -1: a(1) ~ N(m, v), m = 2 e^-1, v = 0.25 e^-2 + (1 - e^-2) / 2, and
        # ||a||^2 has mean m^2 + v and variance 2 v^2 + 4 m^2 v
        spec = spectrum_from_list(basis_with_lambda(1.0), [1.0], theta=0.5)
        m, v = 2.0 * math.exp(-1.0), 0.25 * math.exp(-2.0) + 0.43233235838169365
        mean, sd = linear_law(spec, 0.0, np.array([1.0]), 2.0, 0.5)
        assert mean[0] == pytest.approx(m**2 + v, rel=1e-14)
        assert sd[0] == pytest.approx(math.sqrt(2.0 * v**2 + 4.0 * m**2 * v), rel=1e-14)

    def test_start_at_time_zero_is_its_sum_of_squares(self):
        # the bounds' E||omega_0||^2: the bits of the plain sum of squares in the normal range
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 3.0, 2.0, 0.1)
        c, sigma = np.linspace(-1.3, 2.9, 16), np.linspace(0.0, 0.7, 16)
        for start, want in (((c, 0.0), np.sum(c**2)), ((0.0, sigma), np.sum(sigma**2))):
            mean, _ = linear_law(spec, 0.1, np.array([0.0]), *start)
            assert mean.tolist() == [want]
        _, sd = linear_law(spec, 0.1, np.array([0.0]), c)
        assert sd.tolist() == [0.0]

    def test_start_scales_exactly_with_the_amplitude(self):
        # the power of two is taken over mu_k, c_k and sigma_k together: at 2^-300 the
        # variance's terms (about 2^-1200) underflow unless the law is taken scaled
        b, t = Basis(4, 1.0), np.linspace(0.0, 0.5, 5)
        c, sigma = np.linspace(-1.0, 2.0, 16), np.linspace(0.5, 0.1, 16)
        unit = linear_law(build_spectrum(b, 1.0, 2.0, 0.1), 0.1, t, c, sigma)
        tiny = linear_law(build_spectrum(b, 2.0**-600, 2.0, 0.1), 0.1, t, c * 2.0**-300, sigma * 2.0**-300)
        assert [a.tolist() for a in tiny] == [np.ldexp(a, -600).tolist() for a in unit]
        assert np.all(tiny[1] > 0)

    @pytest.mark.parametrize("c_mu", [1e-300, 1e300])
    def test_law_keeps_its_range_and_scales_exactly(self, c_mu):
        # the sums of squares run at scaled amplitudes: at 1e300 they would overflow and
        # at 1e-300 underflow; c_mu * 2^(2j) scales mu_k by 2^j and the law by 2^(2j)
        b, t = Basis(4, 1.0), np.linspace(0.0, 0.5, 5)
        mean, sd = linear_law(build_spectrum(b, c_mu, 2.0, 0.1), 0.1, t)
        assert np.all(np.isfinite(sd)) and np.all(sd[1:] > 0) and np.all(mean[1:] > 0)
        for j in (-3, 3):
            scaled = linear_law(build_spectrum(b, np.ldexp(c_mu, 2 * j), 2.0, 0.1), 0.1, t)
            assert [a.tolist() for a in scaled] == [np.ldexp(mean, 2 * j).tolist(),
                                                   np.ldexp(sd, 2 * j).tolist()], j


# Runs in a child with the given BLAS thread count; prints the law's bits as hex.
_LAW_BITS_PROBE = """
import json, sys
import numpy as np
from stoqg import Basis, build_spectrum
from stoqg.noise import linear_law

out = {}
for M, counts in json.loads(sys.argv[1]):
    spec = build_spectrum(Basis(M, 1.0), 1.0, 2.0, 0.1)
    for n in counts:
        law = linear_law(spec, 0.1, np.linspace(0.0, 0.5, n))
        out[f"{M},{n}"] = [a.tobytes().hex() for a in law]
print(json.dumps(out))
"""


def _law_bits(cases, threads: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LAW_BITS_PROBE, json.dumps(cases)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout)


class TestBlockedReduction:
    @pytest.mark.parametrize("M", [16, 32])
    def test_bits_do_not_depend_on_the_block(self, monkeypatch, M):
        # one time a block, and 3 times a block (the law's four work arrays share 12 K
        # values), against the default (32 times at M=16, 8 at M=32): each time is its
        # own sum over the modes
        b = Basis(M, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        for n in (1, 2, 129, 501):
            t = np.linspace(0.0, 0.5, n)
            default = [a.tobytes() for a in linear_law(spec, 0.1, t)]
            for values in (1, 12 * b.n_modes):
                monkeypatch.setattr(noise, "_BLOCK_VALUES", values)
                assert [a.tobytes() for a in linear_law(spec, 0.1, t)] == default, (n, values)
                monkeypatch.undo()

    def test_blocked_bits_do_not_depend_on_blas_threads(self):
        # a threaded gemv over all the times moved some values by an ulp under 2
        # threads; the law's sums make no BLAS call
        cases = [(32, [129, 501]), (64, [139])]
        assert _law_bits(cases, "1") == _law_bits(cases, "2")


class TestOUIncrement:
    def test_unit_step_oracle_value(self):
        # Ito isometry: integral_0^1 e^(-2s) ds = (1 - e^-2)/2; sqrt = 0.657520
        spec = spectrum_from_list(basis_with_lambda(1.0), [1.0], theta=0.5)
        std = ou_transition_std(spec.mu, np.array([-1.0]), 1.0)
        assert std[0] == pytest.approx(0.6575198539828996, rel=1e-14)

    def test_split_step_distributional_equality(self):
        # two half-steps vs one full step: Kolmogorov-Smirnov below the 1%
        # critical value for n = m = 1e5 (statistical oracle, fixed seed)
        n = 100_000
        rate, mu, h = np.array([-1.0]), np.array([1.0]), 1.0
        rng = np.random.default_rng(1234)
        full = ou_transition_std(mu, rate, h)[0] * rng.standard_normal(n)
        half_std = ou_transition_std(mu, rate, h / 2)[0]
        decay = np.exp(rate[0] * h / 2)
        half = decay * (half_std * rng.standard_normal(n)) + half_std * rng.standard_normal(n)
        stat = stats.ks_2samp(full, half).statistic
        critical = 1.628 * np.sqrt(2.0 / n)  # c(0.01) sqrt((n+m)/(n m))
        assert stat < critical

    def test_sampled_variance_matches_analytic(self):
        # empirical variance within 4 standard errors of the estimator,
        # under an uneven step schedule partitioning [0, 0.7]
        n = 100_000
        b = Basis(2, 1.0)
        spec = spectrum_from_list(b, [1.0, 0.5, 0.25, 2.0], theta=0.5)
        rates = b.eigenvalues / 50.0  # slow rates so variance accumulates
        rng = np.random.default_rng(77)
        values = np.zeros((n, 4))
        t = 0.0
        for h in (0.1, 0.25, 0.05, 0.3):
            decay = np.exp(rates * h)
            std = ou_transition_std(spec.mu, rates, h)
            values = decay * values + std * rng.standard_normal((n, 4))
            t += h
        per_mode = spec.mu_sq * (1.0 - np.exp(2.0 * rates * t)) / (-2.0 * rates)
        sample_var = values.var(axis=0, ddof=1)
        se = per_mode * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(sample_var - per_mode) <= 4.0 * se)

    def test_disjoint_increments_uncorrelated(self):
        n = 100_000
        rate, mu = np.array([-0.5]), np.array([1.0])
        rng = np.random.default_rng(4242)
        std = ou_transition_std(mu, rate, 0.2)[0]
        inc1 = std * rng.standard_normal(n)
        inc2 = std * rng.standard_normal(n)
        rho = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(rho) <= 4.0 / np.sqrt(n)

    def test_marginal_law_invariant_under_partition(self):
        # deterministic check of the variance bookkeeping across partitions
        spec = spectrum_from_list(basis_with_lambda(0.8), [1.3], theta=0.5)
        rate = np.array([-0.8])
        total = ou_transition_std(spec.mu, rate, 1.0)[0] ** 2
        split = (
            np.exp(2 * rate[0] * 0.6) * ou_transition_std(spec.mu, rate, 0.4)[0] ** 2
            + ou_transition_std(spec.mu, rate, 0.6)[0] ** 2
        )
        assert split == pytest.approx(total, rel=1e-12)
