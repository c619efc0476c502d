"""Enstrophy estimation, bound envelopes, fitting protocol, regularity checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoqg import (
    Basis,
    EnsembleRecord,
    EnstrophyTrace,
    InitialCondition,
    ModelParams,
    SimConfig,
    asymptotics_check,
    build_spectrum,
    estimate_enstrophy,
    fit_and_validate_bound,
    gamma_threshold,
    holder_exponent_fit,
    linear_law,
    linear_oracle_check,
    run_ensemble,
    snap_output_times,
    theorem2_shape,
    trace_class_envelope,
    validate_bound,
)
from stoqg.analysis import bound_parameters
from stoqg.dynamics import SERIES
from stoqg.spectral import ParameterError


# the one-mode spectrum the fake_record tests hand the estimator for its companion
TINY_SPECTRUM = build_spectrum(Basis(1, 1.0), 1.0, 2.0, 0.1)


def fake_record(times, omega_sq, index=0):
    """A one-path record with the given ||omega||^2 series and zero companions."""
    times = np.asarray(times, dtype=float)
    series = np.zeros((3, 1, len(times)))
    series[0, 0] = omega_sq
    return EnsembleRecord(path_index=np.array([index]), times=times, names=SERIES, series=series)


def synthetic_trace(times, ens, se=None):
    times = np.asarray(times, dtype=float)
    ens = np.asarray(ens, dtype=float)
    se = np.zeros_like(ens) if se is None else np.asarray(se, dtype=float)
    return EnstrophyTrace(times=times, ens_mean=ens, ens_se=se, n_paths=2)


class TestEstimator:
    @pytest.mark.parametrize("ens, se", [([-1.0], [0.0]), ([np.nan], [0.0]), ([1.0], [np.nan])],
                             ids=["negative", "nan_mean", "nan_se"])
    def test_trace_rejects_negative_or_nan_estimates(self, ens, se):
        with pytest.raises(ValueError, match="nonnegative, not NaN"):
            synthetic_trace([0.5], ens, se)

    def test_rejects_single_path(self):
        with pytest.raises(ValueError):
            estimate_enstrophy([fake_record([0.0, 1.0], [1.0, 1.0])], TINY_SPECTRUM, 0.1)

    def test_all_zero_paths(self):
        records = [fake_record([0.0, 1.0], [0.0, 0.0], i) for i in range(3)]
        trace = estimate_enstrophy(records, TINY_SPECTRUM, 0.1)
        assert np.all(trace.ens_mean == 0.0) and np.all(trace.ens_se == 0.0)

    def test_two_point_statistics(self):
        records = [
            fake_record([0.5], [2.0], 0),
            fake_record([0.5], [4.0], 1),
        ]
        trace = estimate_enstrophy(records, TINY_SPECTRUM, 0.1)
        assert trace.ens_mean[0] == pytest.approx(1.5)
        assert trace.ens_se[0] == pytest.approx(0.5)

    def test_records_must_name_the_same_series(self):
        # a one-state record beside a two-state one
        one = EnsembleRecord(path_index=np.array([0]), times=np.array([0.5]), names=SERIES[:1],
                             series=np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match="same series"):
            estimate_enstrophy([one, fake_record([0.5], [1.0], 1)], TINY_SPECTRUM, 0.1)

    @pytest.mark.parametrize("mu_exp", [2.0, 0.5])  # trace-class and not
    def test_linear_system_matches_analytic(self, mu_exp):
        b = Basis(8, 1.0)
        spec = build_spectrum(b, 1.0, mu_exp, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)
        cfg = SimConfig(
            M=8, dt=0.02, T=0.4, output_times=np.round(np.arange(0, 11) * 0.04, 10),
            n_paths=500, master_seed=314,
        )
        records = run_ensemble(cfg, params, spec)
        trace = estimate_enstrophy(records, spec, params.r)
        dev = np.abs(trace.ens_mean - trace.wa_half_analytic)
        assert np.all(dev <= 3.0 * np.maximum(trace.ens_se, 1e-300))

    def test_se_shrinks_with_sqrt_paths(self):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)

        def run(n):
            cfg = SimConfig(M=4, dt=0.02, T=0.2, output_times=np.array([0.2]),
                            n_paths=n, master_seed=9)
            return estimate_enstrophy(run_ensemble(cfg, params, spec), spec, params.r).ens_se[0]

        ratio = run(2000) / run(4000)
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.1)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5).filter(lambda s: sum(s) >= 2),
           n_times=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_bits_of_mean_and_std(self, sizes, n_times, seed):
        # n = 2 and a single batch included; each estimate has the bits of numpy's
        # mean and std(ddof=1) of the concatenated (halved) series
        rng = np.random.default_rng(seed)
        times = np.arange(n_times, dtype=float)
        records, lo = [], 0
        for size in sizes:
            series = rng.exponential(size=(3, size, n_times)) * rng.choice([1e-3, 1.0, 1e5])
            records.append(EnsembleRecord(path_index=np.arange(lo, lo + size), times=times,
                                          names=SERIES, series=series))
            lo += size
        trace = estimate_enstrophy(records, TINY_SPECTRUM, 0.1)
        ens, wa, resid = (np.concatenate([r[name] for r in records])
                          for name in ("omega_sq", "wa_sq", "u_sq"))
        scale = np.sqrt(lo)
        want = {"ens_mean": (0.5 * ens).mean(axis=0), "ens_se": (0.5 * ens).std(axis=0, ddof=1) / scale,
                "wa_half_empirical": (0.5 * wa).mean(axis=0), "resid_mean": resid.mean(axis=0),
                "resid_se": resid.std(axis=0, ddof=1) / scale}
        for name, value in want.items():
            assert getattr(trace, name).tobytes() == value.tobytes(), name

    def test_many_records_fold_one_at_a_time(self):
        # 130 records of 1-63 paths x 21 outputs, each folded by itself onto the running
        # sum; each estimate keeps the bits of numpy's mean and std(ddof=1)
        rng = np.random.default_rng(21)
        times, records, lo = np.arange(21, dtype=float), [], 0
        for size in rng.integers(1, 64, size=130):
            series = rng.exponential(size=(3, size, 21)) * rng.lognormal(0.0, 2.0, (3, size, 21))
            records.append(EnsembleRecord(path_index=np.arange(lo, lo + size), times=times,
                                          names=SERIES, series=series))
            lo += size
        trace = estimate_enstrophy(records, TINY_SPECTRUM, 0.1)
        for name, mean, se, half in (("omega_sq", "ens_mean", "ens_se", 0.5), ("u_sq", "resid_mean", "resid_se", 1.0),
                                     ("wa_sq", "wa_half_empirical", None, 0.5)):
            series = half * np.concatenate([r[name] for r in records])
            assert getattr(trace, mean).tobytes() == series.mean(axis=0).tobytes(), name
            if se is not None:
                want = series.std(axis=0, ddof=1) / np.sqrt(lo)
                assert getattr(trace, se).tobytes() == want.tobytes(), name

    def test_one_output_time_keeps_the_pairwise_bits(self):
        # with one output time numpy's mean and std sum the column pairwise; over 331
        # paths in four records a sum in path order has other bits, so the estimator
        # reduces the gathered column
        rng = np.random.default_rng(11)
        sizes, lo, records = (5, 70, 200, 56), 0, []
        for size in sizes:
            series = rng.exponential(size=(3, size, 1)) * rng.lognormal(0.0, 3.0, (3, size, 1))
            records.append(EnsembleRecord(path_index=np.arange(lo, lo + size), times=np.array([0.5]),
                                          names=SERIES, series=series))
            lo += size
        trace = estimate_enstrophy(records, TINY_SPECTRUM, 0.1)
        for name, mean, se, half in (("omega_sq", "ens_mean", "ens_se", 0.5), ("u_sq", "resid_mean", "resid_se", 1.0)):
            column = half * np.concatenate([r[name] for r in records])
            assert np.cumsum(column)[-1] != column.sum()  # the order of the sum shows in the bits
            assert getattr(trace, mean).tobytes() == column.mean(axis=0).tobytes(), name
            assert getattr(trace, se).tobytes() == (column.std(axis=0, ddof=1) / np.sqrt(lo)).tobytes(), name

    def test_working_memory_is_one_batch(self):
        # 4096 paths x 2001 times: one series is 65.6 MB; the estimator folds the records
        # where they lie through one (33, 2001) block, where gathering the series held two
        n_paths, n_times, batch = 4096, 2001, 32
        times = np.arange(n_times, dtype=float)
        block = np.random.default_rng(5).exponential(size=(batch, n_times))
        series = np.stack([block] * 3)
        records = [EnsembleRecord(path_index=np.arange(lo, lo + batch), times=times,
                                  names=SERIES, series=series)
                   for lo in range(0, n_paths, batch)]
        series_bytes = n_paths * n_times * 8
        tracemalloc.start()
        try:
            estimate_enstrophy(records, TINY_SPECTRUM, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * series_bytes, peak / series_bytes

    @pytest.mark.parametrize("ic, n_series", [(InitialCondition(), 1),
                                              (InitialCondition("gaussian", sigma=0.1), 3)],
                             ids=["one-state", "two-state"])
    def test_run_holds_each_series_once(self, ic, n_series):
        # 2048 linearized M=2 paths x 201 outputs: a one-state run holds omega_sq alone,
        # a two-state run its three series; the run and the estimator add one batch's
        # draws, series and block, where the gathered series, their zeros and std's
        # temporary held about 4 and 5 series
        b = Basis(2, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)
        n_paths, n_out, batch = 2048, 201, 32

        def run(n):
            cfg = SimConfig(M=2, dt=1e-3, T=0.2, output_times=np.round(np.arange(n_out) * 1e-3, 10),
                            n_paths=n, master_seed=3, initial_condition=ic)
            tracemalloc.start()
            try:
                estimate_enstrophy(run_ensemble(cfg, params, spec), spec, params.r)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(4)  # lazy imports and first-call caches are not the run's
        series_bytes = n_paths * n_out * 8
        batch_bytes = batch * (n_out - 1) * b.n_modes * 8 + 4 * batch * n_out * 8
        peak = run(n_paths)
        assert peak < (n_series + 0.1) * series_bytes + batch_bytes, peak / series_bytes


class TestGammaThreshold:
    def test_dirichlet_value(self):
        got = gamma_threshold(1.0, 0.1, 0.0)
        assert got == pytest.approx(-2 * np.pi**2 - 0.1)
        assert got == pytest.approx(-19.839, abs=1e-3)

    def test_negative_without_beta(self):
        for nu, r in [(0.1, 0.01), (2.0, 5.0), (1e-3, 1e-3)]:
            assert gamma_threshold(nu, r, 0.0) < 0

    def test_algebraic_inversion(self):
        beta = np.pi * np.sqrt(2.0) * (2 * np.pi**2 + 2.0)
        assert gamma_threshold(1.0, 1.0, beta) == pytest.approx(1.0)


class TestBoundParameters:
    TIMES = np.array([0.0, 0.5, 1.0])

    def test_gamma_is_a_tenth_above_the_threshold(self):
        for nu, r, beta in [(1.0, 0.1, 0.0), (0.5, 2.0, 3.0)]:
            gamma, threshold, _ = bound_parameters(nu, r, beta, 2.0, self.TIMES)
            assert threshold == gamma_threshold(nu, r, beta)
            assert gamma == threshold + 0.1

    @pytest.mark.parametrize("mu_exp, expected", [
        (0.5, 0.45), (1.0, 0.9), (2.0, 0.9), (0.0, None), (-1.0, None), (None, None),
    ])
    def test_mu_tilde_rule(self, mu_exp, expected):
        _, _, mu_tilde = bound_parameters(1.0, 0.1, 0.0, mu_exp, self.TIMES)
        if expected is None:
            assert mu_tilde is None
        else:
            assert mu_tilde == pytest.approx(expected, rel=1e-15)
            assert 0.0 < mu_tilde < mu_exp  # Theorem 2(a)'s premise

    def test_overflow_names_the_horizon(self):
        # beta = 1000 gives gamma = 205.34: e^(2 gamma t) is finite at t = 1, not at t = 2
        gamma, _, _ = bound_parameters(1.0, 0.1, 1000.0, 2.0, [0.0, 1.0])
        assert gamma == pytest.approx(205.34, abs=5e-3)
        with pytest.raises(ParameterError) as err:
            bound_parameters(1.0, 0.1, 1000.0, 2.0, [0.0, 1.0, 2.0])
        assert err.value.field == "T"


class TestTraceClassEnvelope:
    def test_long_time_limit(self):
        env = trace_class_envelope(0.0, -1.0, 1.0, np.array([0.0, 1.0, 50.0]))
        assert env.values[-1] == pytest.approx(0.25, rel=1e-10)
        assert env.params["long_time_limit"] == pytest.approx(0.25)

    def test_initial_value(self):
        env = trace_class_envelope(2.5, -3.0, 7.0, np.array([0.0, 0.5]))
        assert env.values[0] == pytest.approx(2.5)

    def test_pure_decay_term(self):
        env = trace_class_envelope(1.0, -1.0, 0.0, np.array([1.0]))
        assert env.values[0] == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_gamma_zero_limit_form(self):
        env = trace_class_envelope(1.0, 0.0, 2.0, np.array([0.0, 3.0]))
        assert env.params["gamma_zero_limit_form"]
        assert env.values[1] == pytest.approx(1.0 + 3.0, rel=1e-12)  # Ens0 + TrQ t / 2

    def test_validate_dominates(self):
        times = np.linspace(0.0, 1.0, 9)
        env = trace_class_envelope(1.0, -1.0, 1.0, times)
        good = synthetic_trace(times, env.values * 0.9)
        bad = synthetic_trace(times, env.values * 1.1)
        assert validate_bound(good, env).verdict == "pass"
        report = validate_bound(bad, env)
        assert report.verdict == "fail" and len(report.violations) == 9


class TestTheorem2:
    def test_case_b_frozen_value(self):
        # Theorem 2(b) is the shape at mu_tilde = 1; closed-form integral:
        # t (1 - e^(2 gamma t)) / (-2 gamma) + 1 at t=1
        shape = theorem2_shape(0.0, -1.0, np.array([1.0]), 1.0)
        assert shape[0] == pytest.approx(0.43233235838169365 + 1.0, rel=1e-12)

    def test_value_at_time_zero(self):
        # E||omega_0||^2 + 1, whatever gamma
        assert theorem2_shape(4.0, -1.0, np.array([0.0]), 1.0)[0] == pytest.approx(4.0 + 1.0)

    def test_time_zero_limit_of_negative_power(self):
        # mu_tilde > 2 gives t a negative power, but t^power * int_0^t e^(2 gamma s) ds
        # is O(t^(2/mu_tilde)) and tends to 0; a RuntimeWarning fails the suite
        times = np.array([0.0, 0.05, 0.1])
        shape = theorem2_shape(4.0, -1.0, times, 2.5)
        assert shape[0] == 4.0 + 1.0
        assert np.all(np.isfinite(shape))

    def test_rejects_bad_mu_tilde(self):
        # mu_tilde < mu_exp, Theorem 2(a)'s premise, holds for the value bound_parameters derives
        for mu_tilde in (None, 0.0, -0.5):
            with pytest.raises(ValueError):
                theorem2_shape(0.0, -1.0, np.array([1.0]), mu_tilde)


class TestFitProtocol:
    def test_self_consistency_recovers_constant(self):
        times = np.linspace(0.0, 1.0, 12)
        shape = theorem2_shape(1.0, -2.0, times, 1.0)
        trace = synthetic_trace(times, 2.0 * shape)
        report = fit_and_validate_bound(trace, shape, kind="theorem2b")
        assert report.verdict == "pass"
        assert report.fitted["C"] == pytest.approx(2.0, rel=1e-12)

    def test_fit_recovers_generating_constant_within_1pct(self):
        times = np.linspace(0.0, 2.0, 16)
        shape = theorem2_shape(0.5, -1.0, times, 1.0)
        trace = synthetic_trace(times, 3.7 * shape, se=1e-4 * shape)
        report = fit_and_validate_bound(trace, shape)
        assert report.fitted["C"] == pytest.approx(3.7, rel=0.01)
        assert report.verdict == "pass"

    def test_constructed_counterexample_fails(self):
        gamma = -1.0
        times = np.linspace(0.0, 3.0, 16)
        shape = np.exp(2 * gamma * times) + 1e-12  # decaying envelope family
        trace = synthetic_trace(times, np.exp(3.0 * abs(gamma) * times))
        report = fit_and_validate_bound(trace, shape)
        assert report.verdict == "fail"
        assert report.violations

    def test_degenerate_trace_not_applicable(self):
        times = np.linspace(0.0, 1.0, 10)
        trace = synthetic_trace(times, np.zeros_like(times))
        report = fit_and_validate_bound(trace, np.ones_like(times))
        assert report.verdict == "not_applicable"

    def test_requires_enough_times(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            fit_and_validate_bound(synthetic_trace(times, times), np.ones_like(times))


class TestHolderFit:
    LAGS = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]

    def test_sqrt_trace_recovers_half(self):
        t0 = 1e-8
        times = np.concatenate(([t0], t0 + np.asarray(self.LAGS)))
        trace = synthetic_trace(times, np.sqrt(times))
        result = holder_exponent_fit(trace, (t0, 1.0), self.LAGS)
        assert result["exponent"] == pytest.approx(0.5, abs=0.01)
        assert result["verdict"] == "pass"

    def test_linear_trace_recovers_one(self):
        t0 = 1e-8
        times = np.concatenate(([t0], t0 + np.asarray(self.LAGS)))
        trace = synthetic_trace(times, times)
        result = holder_exponent_fit(trace, (t0, 1.0), self.LAGS)
        assert result["exponent"] == pytest.approx(1.0, abs=0.01)
        assert result["verdict"] == "pass"

    def test_noise_floor_triggers_not_applicable(self):
        t0 = 1e-8
        times = np.concatenate(([t0], t0 + np.asarray(self.LAGS)))
        trace = synthetic_trace(times, np.sqrt(times), se=np.full(len(times), 10.0))
        result = holder_exponent_fit(trace, (t0, 1.0), self.LAGS)
        assert result["verdict"] == "not_applicable"
        assert result["exponent"] is None

    def test_requires_lag_span(self):
        trace = synthetic_trace(np.linspace(0.01, 1.0, 100), np.linspace(0.01, 1.0, 100))
        with pytest.raises(ValueError):
            holder_exponent_fit(trace, (0.01, 1.0), [0.01, 0.02, 0.03, 0.04, 0.05])

    def test_repeated_lags_are_rejected(self):
        # four copies of 0.002 and 0.02 are 5 lags spanning a decade, but 2 distinct
        # ones: counted as 5 they passed a smooth trace with a 2.2e-15 wide band
        times = np.round(np.arange(1, 201) * 1e-3, 12)
        trace = synthetic_trace(times, times**0.75)
        for lags in ([0.002] * 4 + [0.02], [0.002, 0.004, 0.004 * (1 + 1e-9), 0.01, 0.02]):
            with pytest.raises(ParameterError) as err:
                holder_exponent_fit(trace, (0.001, 0.1), lags)
            assert err.value.field == "lags"
            assert "distinct" in str(err.value)

    def test_uniform_grid_pairs(self):
        # on a uniform grid every lag has many (t, t+h) pairs; for a concave
        # increasing trace the max increment sits at the window start, so the
        # recorded maxima must equal the closed form there
        times = np.round(np.arange(1, 201) * 1e-3, 12)
        trace = synthetic_trace(times, times**0.75)
        lags = [1e-3, 4e-3, 1e-2, 4e-2, 1e-1]
        result = holder_exponent_fit(trace, (1e-3, 0.2), lags)
        t0 = 1e-3
        expected = [(t0 + h) ** 0.75 - t0**0.75 for h in lags]
        np.testing.assert_allclose(result["max_increments"], expected, rtol=1e-9)
        assert result["verdict"] == "pass"


class TestLinearOracle:
    def test_calibration_at_lin16_dense_physics(self, noise_fault):
        # lin16_dense's physics (64 linearized M=16 paths from rest, dt=1e-3) at T = 0.1,
        # an output at each step: over seeds 1-50 correct code fails 0 times, a 1.1x
        # noise fault 18 times and a 1.2x one 47 times
        spec = build_spectrum(Basis(16, 1.0), 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)
        times = snap_output_times(np.linspace(0.0, 0.1, 101), 1e-3, 0.1)

        def failures():
            count = 0
            for seed in range(1, 51):
                cfg = SimConfig(M=16, dt=1e-3, T=0.1, output_times=times, n_paths=64, master_seed=seed)
                trace = estimate_enstrophy(run_ensemble(cfg, params, spec), spec, params.r)
                count += linear_oracle_check(trace, *linear_law(spec, params.r, trace.times))["verdict"] == "fail"
            return count

        assert failures() <= 1  # at most 2% false alarms
        noise_fault(1.2)
        assert failures() >= 40  # the fault is caught at 80% of seeds or more

    def test_start_off_rest_sees_the_decay(self, rate_fault):
        # lin16_dense's physics (64 linearized M=16 paths, dt=1e-3, T=0.5, 51 outputs) from
        # every c_k = 10, against the law from that start at the config's r: the start's
        # decay moves the mean by about 2 delta t e^(2 l t) c^2, so a rate fault delta = 1
        # (the drag at 1.1, not 0.1), which the oracle from rest misses at every seed, is
        # caught. Over seeds 1-100 correct code fails 0 times and the fault is caught 100 times.
        spec = build_spectrum(Basis(16, 1.0), 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)
        start = InitialCondition("coeffs", coeffs=(10.0,) * 256)
        times = snap_output_times(np.linspace(0.0, 0.5, 51), 1e-3, 0.5)
        law = linear_law(spec, params.r, times, *start.moments(256))

        def failures():
            count = 0
            for seed in range(1, 11):
                cfg = SimConfig(M=16, dt=1e-3, T=0.5, output_times=times, n_paths=64, master_seed=seed,
                                initial_condition=start)
                trace = estimate_enstrophy(run_ensemble(cfg, params, spec), spec, params.r)
                count += linear_oracle_check(trace, *law)["verdict"] == "fail"
            return count

        assert failures() <= 1
        rate_fault(1.0)
        assert failures() == 10


class TestAsymptotics:
    def zero_mode_linear_run(self, n_paths=64, r=0.1):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=r, beta=0.0, linearized=True, beta_term=False)
        times = np.round(np.array([0.0, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2]), 12)
        cfg = SimConfig(M=4, dt=1e-3, T=0.032, output_times=times,
                        n_paths=n_paths, master_seed=555)
        records = run_ensemble(cfg, params, spec)
        return spec, estimate_enstrophy(records, spec, params.r)

    def test_zero_mode_empirical_ratio_is_one_for_linear_runs(self):
        spec, trace = self.zero_mode_linear_run()
        result = asymptotics_check(trace, "zero", delta=0.5)
        ratios = np.asarray(result["ratio_empirical"])
        np.testing.assert_allclose(ratios, 1.0, rtol=1e-12)
        # the analytic ratio divides by the trace's companion, at the solver's rates
        assert result["ratio_analytic"] == (trace.ens_mean[1:] / trace.wa_half_analytic[1:]).tolist()
        # the 5% band widens to 3 exact SE of the companion where the ensemble is too small for it
        companion = trace.wa_half_analytic[1:3]
        allowance = np.maximum(0.05 * companion, 3.0 * trace.wa_half_se[1:3])
        assert result["ratio_tolerance"] == (allowance / companion).tolist()
        assert min(result["ratio_tolerance"]) > 0.05
        assert "notes" not in result

    def test_zero_mode_calibration_at_lin16_dense_physics(self, noise_fault):
        # lin16_dense's physics (64 linearized M=16 paths from rest, dt=1e-3): a path's
        # first steps do not depend on T, so 3-step runs give the workload's two smallest
        # output times. Over seeds 1-500 correct code fails 3 times and a 1.2x noise
        # fault 423 times (1000 seeds: 8 and 849; the sample-SE rule gave 25 and 471).
        spec = build_spectrum(Basis(16, 1.0), 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)
        times = np.array([0.0, 1e-3, 2e-3, 3e-3])

        def failures():
            count = 0
            for seed in range(1, 501):
                cfg = SimConfig(M=16, dt=1e-3, T=3e-3, output_times=times, n_paths=64, master_seed=seed)
                trace = estimate_enstrophy(run_ensemble(cfg, params, spec), spec, params.r)
                count += asymptotics_check(trace, "zero", delta=0.5)["verdict"] == "fail"
            return count

        assert failures() <= 5  # at most 1% false alarms
        noise_fault(1.2)
        assert failures() >= 400  # the fault is caught at 80% of seeds or more

    def test_general_mode_deterministic_decay_exponent_one(self):
        # omega_0 = phi_11, zero noise: |Ens(t) - Ens(0)| = O(t) exactly
        b = Basis(2, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        times = np.round(np.concatenate(([0.0], np.geomspace(1e-4, 1e-3, 7))), 12)
        snapped = np.unique(np.round(times / 1e-4) * 1e-4)
        cfg = SimConfig(M=2, dt=1e-4, T=1e-3, output_times=snapped,
                        n_paths=2, master_seed=1,
                        initial_condition=InitialCondition("coeffs", coeffs=(1.0, 0.0, 0.0, 0.0)))
        trace = estimate_enstrophy(run_ensemble(cfg, params, spec), spec, params.r)
        result = asymptotics_check(trace, "general", delta=0.5)
        assert result["exponent"] == pytest.approx(1.0, abs=0.05)
        assert result["verdict"] == "pass"

    def test_two_point_fit_reports_no_se(self):
        # a line through two points has no residual to estimate its SE from; JSON has no NaN
        trace = synthetic_trace(np.array([0.0, 1e-3, 2e-3, 4e-3]), np.array([1.0, 1.0, 1.5, 2.0]))
        result = asymptotics_check(trace, "general", delta=0.5)
        assert result["exponent"] == pytest.approx(1.0) and result["exponent_se"] is None

    def test_general_mode_fits_only_times_within_the_limit(self):
        # Ens(t) = 1 + t until the curve has relaxed at t = 4e-3, flat after it
        times = np.array([0.0, 1e-3, 2e-3, 4e-3, 0.1, 0.2, 0.3])
        trace = synthetic_trace(times, np.minimum(1.0 + times, 1.004))
        unlimited = asymptotics_check(trace, "general", delta=0.5)
        assert unlimited["verdict"] == "fail" and "fit_time_limit" not in unlimited
        limited = asymptotics_check(trace, "general", delta=0.5, fit_time_limit=0.01)
        assert limited["exponent"] == pytest.approx(1.0, abs=1e-9)
        assert limited["verdict"] == "pass" and limited["fit_time_limit"] == 0.01
        # one usable time is no fit
        relaxed = asymptotics_check(trace, "general", delta=0.5, fit_time_limit=1.5e-3)
        assert relaxed["verdict"] == "not_applicable" and relaxed["fit_time_limit"] == 1.5e-3

    def test_general_mode_noise_floor(self):
        times = np.array([0.0, 1e-4, 1e-3, 1e-2])
        trace = synthetic_trace(times, np.full(4, 5.0), se=np.full(4, 2.0))
        result = asymptotics_check(trace, "general", delta=0.5, ens0=5.0)
        assert result["verdict"] == "not_applicable"

    def test_rejects_unknown_mode(self):
        trace = synthetic_trace(np.array([1e-3, 1e-2, 1e-1]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            asymptotics_check(trace, "weird", delta=0.5)
        # zero mode compares with the trace's own analytic companion, which this one lacks
        with pytest.raises(ValueError, match="analytic companion"):
            asymptotics_check(trace, "zero", delta=0.5)
