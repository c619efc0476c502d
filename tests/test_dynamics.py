"""Exponential-Euler stepping, ensemble reproducibility, conservation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from stoqg import (
    BlowupError,
    InitialCondition,
    ModelParams,
    SimConfig,
    analytic_convolution_variance,
    build_basis,
    build_spectrum,
    convolution_sup_norms,
    estimate_enstrophy,
    field_from_modes,
    jacobian,
    laplace_invert,
    run_ensemble,
    simulate_path,
    snap_output_times,
)
from stoqg import dynamics
from stoqg.dynamics import _path_generators, _simulate_batch, _Stepper, phi1
from stoqg.noise import ou_transition_std
from stoqg.spectral import SpectralField, x_derivative_projected


def linear_params(**kw):
    return ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False, **kw)


def small_config(**overrides):
    kw = dict(
        M=4,
        dt=0.01,
        T=0.1,
        output_times=np.round(np.arange(0, 11) * 0.01, 10),
        n_paths=4,
        master_seed=7,
    )
    kw.update(overrides)
    return SimConfig(**kw)


def stepper_for(basis, params, c_mu=1.0):
    return _Stepper(params, build_spectrum(basis, c_mu, 2.0, 0.1), 0.01)


def stepper_drift(omega: SpectralField, params) -> np.ndarray:
    return stepper_for(omega.basis, params).drift_flat(omega.coeffs[None, :])[0]


def reference_drift(omega: SpectralField, params) -> np.ndarray:
    """-J(psi, omega) - beta psi_x from the per-field spectral operators."""
    psi = laplace_invert(omega)
    total = np.zeros(omega.basis.n_modes)
    if not params.linearized:
        total -= jacobian(psi, omega).coeffs
    if params.beta_term and params.beta != 0.0:
        total -= params.beta * x_derivative_projected(psi).coeffs
    return total


class TestPhi1:
    def test_limit_and_series(self):
        assert phi1(np.array([0.0]))[0] == 1.0
        z = np.array([1e-7, -1e-7])
        np.testing.assert_allclose(phi1(z), 1.0 + z / 2.0 + z**2 / 6.0, rtol=1e-14)

    def test_generic_value(self):
        assert phi1(np.array([-2.0]))[0] == pytest.approx((np.exp(-2.0) - 1.0) / -2.0)


class TestDrift:
    def test_linearized_without_beta_is_zero(self, basis8, rng):
        params = linear_params()
        omega = SpectralField(basis8, rng.standard_normal(64))
        assert np.all(stepper_drift(omega, params) == 0.0)

    def test_beta_term_projection_values(self):
        # psi = -phi_11 / (2 pi^2); oracle values from the parity expansion
        b = build_basis(4, 1.0)
        omega = field_from_modes(b, {(1, 1): 1.0})
        params = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=True, beta_term=True)
        d = stepper_drift(omega, params)
        expected = {(2, 1): 4.0 / (3.0 * np.pi**2), (4, 1): 8.0 / (15.0 * np.pi**2)}
        for k in range(b.n_modes):
            want = expected.get((int(b.m[k]), int(b.n[k])), 0.0)
            assert d[k] == pytest.approx(want, abs=1e-14)

    def test_eigenfield_jacobian_vanishes(self):
        # J(psi, omega) = 0 when psi is a multiple of omega: drift reduces to beta term
        b = build_basis(4, 1.0)
        omega = field_from_modes(b, {(1, 1): 1.0})
        full = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=False, beta_term=True)
        lin = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=True, beta_term=True)
        np.testing.assert_allclose(
            stepper_drift(omega, full), stepper_drift(omega, lin), atol=1e-15
        )

    def test_beta_switch_off(self, basis8, rng):
        omega = SpectralField(basis8, rng.standard_normal(64))
        on = ModelParams(nu=1.0, r=0.1, beta=2.0, linearized=False, beta_term=True)
        off = ModelParams(nu=1.0, r=0.1, beta=2.0, linearized=False, beta_term=False)
        diff = stepper_drift(omega, on) - stepper_drift(omega, off)
        expected = -2.0 * x_derivative_projected(
            SpectralField(basis8, omega.coeffs / -basis8.sq_wavenumbers)
        ).coeffs
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    @pytest.mark.parametrize("M", [8, 16, 32])
    def test_jacobian_identities_on_batch(self, rng, M):
        # <J(psi, omega), omega> = <J(psi, omega), psi> = 0 for the production drift
        b = build_basis(M, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        omega = rng.standard_normal((32, M * M))
        psi = omega / -b.sq_wavenumbers
        d = stepper_for(b, params).drift_flat(omega)
        scale = np.sqrt(np.sum(b.sq_wavenumbers * psi**2, axis=1)
                        * np.sum(b.sq_wavenumbers * omega**2, axis=1))
        r1 = np.abs(np.sum(d * omega, axis=1)) / (scale * np.linalg.norm(omega, axis=1))
        r2 = np.abs(np.sum(d * psi, axis=1)) / (scale * np.linalg.norm(psi, axis=1))
        assert np.max(r1) <= 1e-12 and np.max(r2) <= 1e-12


class TestStep:
    @pytest.mark.parametrize("linearized, beta_term, calls_per_step", [
        (False, False, 1), (False, True, 1), (True, True, 1), (True, False, 0),
    ])
    def test_drift_evaluated_once_per_step(self, monkeypatch, linearized, beta_term, calls_per_step):
        calls = []
        drift_flat = _Stepper.drift_flat

        def counted(self, a):
            calls.append(a.shape)
            return drift_flat(self, a)

        monkeypatch.setattr(_Stepper, "drift_flat", counted)
        b = build_basis(4, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=0.5, linearized=linearized, beta_term=beta_term)
        run_ensemble(small_config(n_paths=5, batch_size=3), params, build_spectrum(b, 1.0, 2.0, 0.1))
        assert calls == calls_per_step * ([(3, 16)] * 10 + [(2, 16)] * 10)

    def test_pure_decay(self):
        # no forcing: omega and the companion decay at the solver rates whatever the draws
        b = build_basis(2, 1.0)
        params = linear_params()
        stepper = stepper_for(b, params, c_mu=0.0)
        omega = field_from_modes(b, {(1, 1): 1.0})
        a0, v0 = omega.coeffs[None, :].copy(), np.full((1, 4), 3.0)
        a, v = stepper.advance(a0, v0, np.full((1, 4), 12.34))
        assert a is a0 and v is v0  # advanced in place
        assert a[0, 0] == pytest.approx(np.exp((-2 * np.pi**2 - 0.1) * 0.01), rel=1e-14)
        np.testing.assert_allclose(v[0], 3.0 * np.exp((b.eigenvalues - params.r) * 0.01),
                                   rtol=1e-14)

    def test_step_without_drift_keeps_sign_of_zero_rule(self):
        # as decay * a + drift_weight * 0.0 + eta did: a -0.0 state becomes +0.0,
        # while the companion, which never adds a drift, keeps -0.0 + -0.0 = -0.0
        stepper = stepper_for(build_basis(2, 1.0), linear_params(), c_mu=0.0)
        a, v = stepper.advance(np.full((1, 4), -0.0), np.full((1, 4), -0.0), np.full((1, 4), -1.0))
        assert not np.signbit(a).any()
        assert np.signbit(v).all()

    @pytest.mark.parametrize("M", [4, 16, 32])  # drift grids P = 7, 25, 49
    def test_matches_batched_stepper(self, rng, M):
        # the exponential-Euler step written out per field equals the batched advance
        b = build_basis(M, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.7, linearized=False, beta_term=True)
        h = 0.01
        a0, v0 = 0.3 * rng.standard_normal((2, 2, M * M))
        xi = rng.standard_normal((2, M * M))
        stepper = _Stepper(params, spec, h)
        a, v = stepper.advance(a0.copy(), v0.copy(), xi)
        rates = b.eigenvalues - params.r
        for i in range(2):
            eta = ou_transition_std(spec.mu, rates, h) * xi[i]
            drift = reference_drift(SpectralField(b, a0[i]), params)
            want_a = np.exp(rates * h) * a0[i] + h * phi1(rates * h) * drift + eta
            np.testing.assert_allclose(a[i], want_a, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(v[i], np.exp(rates * h) * v0[i] + eta,
                                       rtol=1e-12, atol=1e-15)


class TestLinearExactness:
    def test_omega_equals_convolution_with_zero_drift(self):
        # F == 0 and omega_0 = 0: the solution IS the stochastic convolution
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        rec = simulate_path(small_config(), linear_params(), spec, 0)
        np.testing.assert_array_equal(rec.omega_sq[0], rec.wa_sq[0])
        assert np.max(rec.u_sq[0]) == 0.0

    def test_zero_spectrum_zero_ic_stays_zero(self):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=False, beta_term=True)
        rec = simulate_path(small_config(), params, spec, 0)
        assert np.all(rec.omega_sq[0] == 0.0)


class TestDeterminism:
    def test_same_seed_same_path_bit_identical(self):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.3, linearized=False, beta_term=True)
        cfg = small_config(store_fields=True,
                           initial_condition=InitialCondition("gaussian", sigma=0.2))
        t1 = simulate_path(cfg, params, spec, 3)
        t2 = simulate_path(cfg, params, spec, 3)
        np.testing.assert_array_equal(t1.fields, t2.fields)

    def test_single_path_ensemble_reduces_to_simulate_path(self):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        cfg = small_config(n_paths=1, store_fields=True)
        ens = run_ensemble(cfg, params, spec)
        solo = simulate_path(cfg, params, spec, 0)
        np.testing.assert_array_equal(ens[0].fields, solo.fields)

    def test_worker_count_bit_identical(self):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        cfg = lambda: small_config(n_paths=10, batch_size=3, store_fields=True)
        serial = run_ensemble(cfg(), params, spec, n_workers=1)
        parallel = run_ensemble(cfg(), params, spec, n_workers=3)
        assert np.concatenate([r.path_index for r in parallel]).tolist() == list(range(10))
        for a, b_ in zip(serial, parallel):
            np.testing.assert_array_equal(a.fields, b_.fields)

    def test_pool_never_exceeds_batch_count(self, monkeypatch):
        # a fork pool forks all max_workers processes at the first submit
        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        sizes = []
        monkeypatch.setattr(dynamics, "ProcessPoolExecutor", SerialPool)
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        records = run_ensemble(small_config(n_paths=6, batch_size=3), linear_params(), spec,
                               n_workers=8)
        assert sizes == [2]
        assert [r.path_index.tolist() for r in records] == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("batch_size", [3, 10])  # 3+3+3+1 is uneven
    def test_batch_size_does_not_change_paths(self, batch_size):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.6, linearized=False, beta_term=True)

        def run(size):
            cfg = small_config(n_paths=10, batch_size=size, store_fields=True,
                               initial_condition=InitialCondition("gaussian", sigma=0.3))
            return run_ensemble(cfg, params, spec)

        single, batched = run(1), run(batch_size)
        assert len(batched) == -(-10 // batch_size)

        def joined(records, name):
            return np.concatenate([getattr(r, name) for r in records])

        np.testing.assert_array_equal(joined(batched, "path_index"), joined(single, "path_index"))
        for name in ("omega_sq", "fields"):
            np.testing.assert_allclose(joined(batched, name), joined(single, name), rtol=1e-12)
        rates = b.eigenvalues - params.r
        want = estimate_enstrophy(single, spec, rates)
        got = estimate_enstrophy(batched, spec, rates)
        for name in ("times", "ens_mean", "ens_se", "wa_half_empirical", "wa_half_analytic",
                     "resid_mean", "resid_se"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12)
        assert got.n_paths == want.n_paths == 10

    def test_draw_block_does_not_change_paths(self, monkeypatch):
        # batches of 32 and 8 paths at M=4; 300 steps: the 32-path batch draws one full
        # block and a short one, the 8-path batch one short block; outputs fall on the
        # last step of the first block, the first of the next, and off the block edges
        block = dynamics._DRAW_BLOCK_BYTES // (32 * 16 * 8)
        assert 100 < block < 299 and 300 % block
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.6, linearized=False, beta_term=True)
        cfg = SimConfig(
            M=4, dt=1e-3, T=0.3, output_times=np.array([0, 100, block, block + 1, 300]) * 1e-3,
            n_paths=40, master_seed=11, batch_size=32, store_fields=True,
            initial_condition=InitialCondition("gaussian", sigma=0.3),
        )
        blocked = run_ensemble(cfg, params, spec)
        monkeypatch.setattr(dynamics, "_DRAW_BLOCK_BYTES", 1)  # one step per draw
        stepwise = run_ensemble(cfg, params, spec)
        assert len(blocked) == len(stepwise) == 2
        for got, want in zip(blocked, stepwise):
            for name in ("path_index", "omega_sq", "grad_sq", "u_sq", "wa_sq", "fields"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.failures == want.failures

    def test_golden_trajectory_guards_rng_contract(self):
        # frozen output of the documented (master_seed, path_index) mapping;
        # a change here means the reproducibility contract was broken
        basis = build_basis(2, 1.0)
        spec = build_spectrum(basis, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.5, linearized=False, beta_term=True)
        cfg = SimConfig(
            M=2, dt=0.01, T=0.03, output_times=np.array([0.01, 0.03]),
            n_paths=1, master_seed=2024,
            initial_condition=InitialCondition("gaussian", sigma=0.5),
            store_fields=True,
        )
        rec = simulate_path(cfg, params, spec, 0)
        np.testing.assert_allclose(
            rec.fields[0, 0],
            [-0.4601643090687408, -0.1428684046642693, -0.26984576976547986,
             0.17546880275232649],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            rec.fields[0, 1],
            [-0.33286195220606446, -0.06344526550777917, -0.053959630213856434,
             0.054774242875657346],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            convolution_sup_norms(cfg, params, spec, 0),
            [0.09687473431106187, 0.1254303247789333], rtol=1e-13,
        )


class TestBlockedDraws:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), K=st.integers(1, 1024), n=st.integers(1, 20))
    def test_block_draw_equals_per_step_draws(self, seed, K, n):
        # the forcing stream of a path does not depend on how many steps one call draws
        _, block_rng = _path_generators(seed, 0)
        _, step_rng = _path_generators(seed, 0)
        buf = np.empty((n + 1, K))
        block_rng.standard_normal(out=buf[:n])
        want = np.stack([step_rng.standard_normal(K) for _ in range(n)])
        assert buf[:n].tobytes() == want.tobytes()
        assert block_rng.bit_generator.state == step_rng.bit_generator.state


class TestTrajectoryRecords:
    def test_scalars_consistent_with_stored_fields(self, rng):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.4, linearized=False, beta_term=True)
        cfg = small_config(store_fields=True,
                           initial_condition=InitialCondition("gaussian", sigma=0.3))
        rec = simulate_path(cfg, params, spec, 1)
        for i in range(len(rec.times)):
            om = rec.fields[0, i]
            assert rec.omega_sq[0, i] == pytest.approx(np.sum(om**2), rel=1e-10)
            assert rec.grad_sq[0, i] == pytest.approx(
                np.sum(b.sq_wavenumbers * om**2), rel=1e-10
            )

    def test_times_strictly_increasing(self):
        b = build_basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        rec = simulate_path(small_config(), linear_params(), spec, 0)
        assert np.all(np.diff(rec.times) > 0)


class TestEnsembleStatistics:
    def test_linear_mean_matches_analytic_oracle(self):
        b = build_basis(8, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = linear_params()
        cfg = SimConfig(
            M=8, dt=0.05, T=0.5, output_times=np.round(np.arange(0, 11) * 0.05, 10),
            n_paths=600, master_seed=11,
        )
        records = run_ensemble(cfg, params, spec)
        ens = 0.5 * np.concatenate([r.omega_sq for r in records])
        mean = ens.mean(axis=0)
        se = ens.std(axis=0, ddof=1) / np.sqrt(len(ens))
        oracle = 0.5 * analytic_convolution_variance(
            spec, b.eigenvalues - params.r, cfg.output_times
        )
        assert np.all(np.abs(mean - oracle) <= 3.0 * np.maximum(se, 1e-300))


class TestConservation:
    def test_deterministic_dissipation_monotone(self, rng):
        # zero noise, beta = 0: discrete enstrophy non-increasing at every step
        M = 16
        b = build_basis(M, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        ic = rng.standard_normal(M * M) / (1.0 + b.sq_wavenumbers / np.pi**2)
        n_steps = 50
        cfg = SimConfig(
            M=M, dt=1e-3, T=n_steps * 1e-3,
            output_times=np.round(np.arange(0, n_steps + 1) * 1e-3, 12),
            n_paths=1, master_seed=0,
            initial_condition=InitialCondition("coeffs", coeffs=tuple(ic)),
        )
        rec = run_ensemble(cfg, params, spec)[0]
        assert np.all(np.diff(0.5 * rec.omega_sq[0]) <= 0.0)

    def test_energy_balance_residual_first_order(self, rng):
        # |d(enstrophy)/dt + nu ||grad w||^2 + r ||w||^2| halves with dt
        M = 8
        b = build_basis(M, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        ic = tuple(rng.standard_normal(M * M) / (1.0 + b.sq_wavenumbers / np.pi**2))

        def mean_residual(h):
            n = int(round(0.02 / h))
            cfg = SimConfig(
                M=M, dt=h, T=0.02,
                output_times=np.round(np.arange(0, n + 1) * h, 12),
                n_paths=1, master_seed=0,
                initial_condition=InitialCondition("coeffs", coeffs=ic),
            )
            rec = run_ensemble(cfg, params, spec)[0]
            ens = 0.5 * rec.omega_sq[0]
            resid = (np.diff(ens) / h + params.nu * rec.grad_sq[0, :-1]
                     + params.r * rec.omega_sq[0, :-1])
            return np.mean(np.abs(resid))

        r1, r2 = mean_residual(1e-3), mean_residual(5e-4)
        assert r1 / r2 == pytest.approx(2.0, rel=0.3)

    def test_deterministic_convergence_first_order(self, rng):
        # halving h halves the error against a high-order reference integrator
        M = 8
        b = build_basis(M, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        ic = 0.5 * rng.standard_normal(M * M) / (1.0 + np.arange(M * M))
        rates = b.eigenvalues - params.r
        stepper = _Stepper(params, spec, 1.0)

        def rhs(_t, a):
            return rates * a + stepper.drift_flat(a[None, :])[0]

        ref = solve_ivp(rhs, (0.0, 0.1), ic, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]

        def endpoint(h):
            cfg = SimConfig(
                M=M, dt=h, T=0.1, output_times=np.array([0.1]), n_paths=1,
                master_seed=1, initial_condition=InitialCondition("coeffs", coeffs=tuple(ic)),
                store_fields=True,
            )
            return run_ensemble(cfg, params, spec)[0].fields[0, 0]

        e1 = np.linalg.norm(endpoint(2e-3) - ref)
        e2 = np.linalg.norm(endpoint(1e-3) - ref)
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)


class TestBlowupHandling:
    def test_blowup_reported_with_paths_and_time(self):
        b = build_basis(2, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        cfg = SimConfig(
            M=2, dt=0.01, T=0.02, output_times=np.array([0.01, 0.02]),
            n_paths=2, master_seed=5,
            initial_condition=InitialCondition("coeffs", coeffs=(1e200, -1e200, 1e200, -1e200)),
        )
        with pytest.raises(BlowupError) as err, np.errstate(all="ignore"):
            run_ensemble(cfg, params, spec)
        failing = sorted(p for p, _ in err.value.failures)
        assert failing == [0, 1]
        assert all(t in (0.01, 0.02) for _, t in err.value.failures)

    @pytest.mark.parametrize("value, failures", [
        (np.nan, [(0, 0.0), (1, 0.0)]),
        (1e200, []),  # finite, though omega_sq overflows
    ])
    def test_failure_means_a_nonfinite_coefficient(self, value, failures):
        b = build_basis(2, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        cfg = SimConfig(
            M=2, dt=0.01, T=0.02, output_times=np.array([0.0, 0.01, 0.02]),
            n_paths=2, master_seed=5,
            initial_condition=InitialCondition("coeffs", coeffs=(value, 0.5, 0.0, -0.5)),
        )
        with np.errstate(all="ignore"):
            rec = _simulate_batch(linear_params(), spec, cfg, np.arange(2))
        assert rec.failures == failures
        assert not np.isfinite(rec.omega_sq).any()


class TestConfigPlumbing:
    def test_output_times_must_align_with_dt(self):
        with pytest.raises(ValueError):
            SimConfig(M=2, dt=0.01, T=1.0, output_times=np.array([0.005]),
                      n_paths=1, master_seed=0)

    def test_snap_warns_and_aligns(self):
        with pytest.warns(UserWarning):
            snapped = snap_output_times([0.0, 0.014, 0.03], dt=0.01, T=0.1)
        np.testing.assert_allclose(snapped, [0.0, 0.01, 0.03])

    def test_gaussian_sigma_shapes(self):
        ic = InitialCondition("gaussian", sigma=0.5)
        assert ic.sigmas(4).tolist() == [0.5] * 4
        ic_list = InitialCondition("gaussian", sigma=(0.1, 0.2, 0.3, 0.4))
        assert ic_list.sigmas(4).tolist() == [0.1, 0.2, 0.3, 0.4]
        with pytest.raises(ValueError):
            ic_list.sigmas(9)

    def test_mean_sq_norm(self):
        assert InitialCondition("zero").mean_sq_norm(4) == 0.0
        assert InitialCondition("coeffs", coeffs=(3.0, 4.0, 0.0, 0.0)).mean_sq_norm(4) == 25.0
        assert InitialCondition("gaussian", sigma=2.0).mean_sq_norm(4) == pytest.approx(16.0)

    def test_constructors_reject_negative_scales(self):
        with pytest.raises(ValueError):
            SimConfig(M=2, dt=0.01, T=1.0, output_times=np.array([0.0]),
                      n_paths=1, master_seed=0, noise_fault_scale=-1.0)
        with pytest.raises(ValueError):
            InitialCondition("gaussian", sigma=-0.1)
        with pytest.raises(ValueError):
            InitialCondition("gaussian", sigma=(0.1, -0.2, 0.3, 0.4))

    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(nu=0.0, r=0.1)
        with pytest.raises(ValueError):
            ModelParams(nu=1.0, r=0.0)
        with pytest.raises(ValueError):
            ModelParams(nu=1.0, r=0.1, beta=-1.0)
