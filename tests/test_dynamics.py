"""Exponential-Euler stepping, ensemble reproducibility, conservation laws."""

import concurrent.futures
import math
import pickle
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from stoqg import (
    Basis,
    BlowupError,
    EnsembleRecord,
    InitialCondition,
    ModelParams,
    SimConfig,
    build_spectrum,
    linear_law,
    estimate_enstrophy,
    run_ensemble,
    snap_output_times,
    spectrum_from_list,
)
from stoqg import dynamics
from stoqg.dynamics import SERIES, _path_generators, _simulate_batch, _Stepper, phi1
from stoqg.noise import ou_transition_std
from stoqg.spectral import ParameterError

import reference as ref


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


def path_record(config, params, spectrum, p):
    """Path p as a one-path record: the last row of an ensemble of p + 1 paths."""
    rec = run_ensemble(replace(config, n_paths=p + 1), params, spectrum)[-1]
    return replace(rec, path_index=rec.path_index[-1:], series=rec.series[:, -1:],
                   fields=None if rec.fields is None else rec.fields[-1:])


def joined(records, name):
    """A record attribute of a run, its batches' paths joined in order."""
    return np.concatenate([getattr(r, name) for r in records], axis=1 if name == "series" else 0)


def stepper_for(basis, params, c_mu=1.0):
    return _Stepper(params, build_spectrum(basis, c_mu, 2.0, 0.1), 0.01)


def stepper_drift(basis, omega, params) -> np.ndarray:
    return stepper_for(basis, params).drift_flat(omega[None, :])[0]


def reference_drift(basis, omega, params) -> np.ndarray:
    """-J(psi, omega) - beta psi_x from the reference calculus."""
    beta = params.beta if params.beta_term else 0.0
    return ref.drift(basis, omega, beta, advective=not params.linearized)


class TestPhi1:
    def test_limit_and_series(self):
        assert phi1(np.array([0.0]))[0] == 1.0
        z = np.array([1e-7, -1e-7])
        np.testing.assert_allclose(phi1(z), 1.0 + z / 2.0 + z**2 / 6.0, rtol=1e-14)

    def test_generic_value(self):
        assert phi1(np.array([-2.0]))[0] == pytest.approx((np.exp(-2.0) - 1.0) / -2.0)

    def test_drift_weights_keep_their_bits(self):
        # the rates of M=16 at dt=1e-5 (|z| <= 0.05) against phi1's series to z^11: the
        # cancelling (e^z - 1) / z was off by up to 1.2e-13 relative there
        z = (Basis(16, 1.0).eigenvalues - 0.1) * 1e-5
        want = sum(z**n / math.factorial(n + 1) for n in range(11, -1, -1))
        np.testing.assert_allclose(phi1(z), want, rtol=1e-15, atol=0.0)


class TestDrift:
    def test_linearized_without_beta_is_zero(self, basis8, rng):
        params = linear_params()
        assert np.all(stepper_drift(basis8, rng.standard_normal(64), params) == 0.0)

    def test_beta_term_projection_values(self):
        # psi = -phi_11 / (2 pi^2); oracle values from the parity expansion
        b = Basis(4, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=True, beta_term=True)
        d = stepper_drift(b, ref.modes(b, {(1, 1): 1.0}), params)
        expected = {(2, 1): 4.0 / (3.0 * np.pi**2), (4, 1): 8.0 / (15.0 * np.pi**2)}
        for k in range(b.n_modes):
            want = expected.get((int(b.m[k]), int(b.n[k])), 0.0)
            assert d[k] == pytest.approx(want, abs=1e-14)

    def test_eigenfield_jacobian_vanishes(self):
        # J(psi, omega) = 0 when psi is a multiple of omega: drift reduces to beta term
        b = Basis(4, 1.0)
        omega = ref.modes(b, {(1, 1): 1.0})
        full = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=False, beta_term=True)
        lin = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=True, beta_term=True)
        np.testing.assert_allclose(
            stepper_drift(b, omega, full), stepper_drift(b, omega, lin), atol=1e-15
        )

    def test_beta_switch_off(self, basis8, rng):
        omega = rng.standard_normal(64)
        on = ModelParams(nu=1.0, r=0.1, beta=2.0, linearized=False, beta_term=True)
        off = ModelParams(nu=1.0, r=0.1, beta=2.0, linearized=False, beta_term=False)
        diff = stepper_drift(basis8, omega, on) - stepper_drift(basis8, omega, off)
        expected = ref.drift(basis8, omega, beta=2.0, advective=False)
        np.testing.assert_allclose(diff, expected, atol=1e-12)
        assert (on.effective_beta, off.effective_beta) == (2.0, 0.0)
        assert stepper_for(basis8, off).beta == 0.0

    @pytest.mark.parametrize("M", [8, 16, 32])
    def test_jacobian_identities_on_batch(self, rng, M):
        # <J(psi, omega), omega> = <J(psi, omega), psi> = 0 for the production drift
        b = Basis(M, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        omega = rng.standard_normal((32, M * M))
        psi = omega / -b.sq_wavenumbers
        d = stepper_for(b, params).drift_flat(omega)
        scale = np.sqrt(np.sum(b.sq_wavenumbers * psi**2, axis=1)
                        * np.sum(b.sq_wavenumbers * omega**2, axis=1))
        r1 = np.abs(np.sum(d * omega, axis=1)) / (scale * np.linalg.norm(omega, axis=1))
        r2 = np.abs(np.sum(d * psi, axis=1)) / (scale * np.linalg.norm(psi, axis=1))
        assert np.max(r1) <= 1e-12 and np.max(r2) <= 1e-12

    @pytest.mark.parametrize("M, chunk", [(16, 34), (32, 8), (64, 2)])
    def test_chunk_rule(self, M, chunk):
        # paths per chunk: half and grids, 4 * 8 * Q * (M + Q) bytes a path, fit the budget
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        assert stepper_for(Basis(M, 1.0), params).chunk == chunk

    # 11 = 8 + 3 paths at M=32 and 5 = 2 + 2 + 1 at M=64: each ends on a remainder chunk
    @pytest.mark.parametrize("M, B", [(32, 11), (64, 5)])
    def test_chunked_drift_equals_per_path_and_whole_batch(self, monkeypatch, rng, M, B):
        b = Basis(M, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=0.6, linearized=False, beta_term=True)
        a = 0.3 * rng.standard_normal((B, M * M))
        chunked = stepper_for(b, params)
        monkeypatch.setattr(dynamics, "_DRIFT_CHUNK_BYTES", 1)
        per_path = stepper_for(b, params)
        monkeypatch.setattr(dynamics, "_DRIFT_CHUNK_BYTES", 2**40)
        whole = stepper_for(b, params)
        assert per_path.chunk == 1 < chunked.chunk < B <= whole.chunk and B % chunked.chunk
        got = chunked.drift_flat(a).tobytes()
        assert got == per_path.drift_flat(a).tobytes() == whole.drift_flat(a).tobytes()
        out = np.empty_like(a)
        assert chunked.drift_flat(a, out=out) is out  # again, on the reused work arrays
        assert out.tobytes() == got


class TestStep:
    @pytest.mark.parametrize("linearized, beta_term, calls_per_step", [
        (False, False, 1), (False, True, 1), (True, True, 1), (True, False, 0),
    ])
    def test_drift_evaluated_once_per_step(self, monkeypatch, linearized, beta_term, calls_per_step):
        calls = []
        drift_flat = _Stepper.drift_flat

        def counted(self, a, **kwargs):
            calls.append(a.shape)
            return drift_flat(self, a, **kwargs)

        monkeypatch.setattr(_Stepper, "drift_flat", counted)
        b = Basis(4, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=0.5, linearized=linearized, beta_term=beta_term)
        run_ensemble(small_config(n_paths=5, batch_size=3), params, build_spectrum(b, 1.0, 2.0, 0.1))
        assert calls == calls_per_step * ([(3, 16)] * 10 + [(2, 16)] * 10)

    def test_one_drift_call_per_batch_step_when_chunked(self, monkeypatch):
        # a traced drift_flat span covers one batch-step, however many chunks it runs
        calls, chunks = [], []
        drift_flat, drift_chunk = _Stepper.drift_flat, _Stepper._drift_chunk

        def counted(self, a, **kwargs):
            calls.append(a.shape)
            return drift_flat(self, a, **kwargs)

        def counted_chunk(self, a, out):
            chunks.append(a.shape)
            return drift_chunk(self, a, out)

        monkeypatch.setattr(_Stepper, "drift_flat", counted)
        monkeypatch.setattr(_Stepper, "_drift_chunk", counted_chunk)
        b = Basis(32, 1.0)
        params = ModelParams(nu=1.0, r=0.1, beta=0.2, linearized=False, beta_term=True)
        cfg = small_config(M=32, n_paths=13, batch_size=10)  # batches of 10 and 3 paths
        run_ensemble(cfg, params, build_spectrum(b, 1.0, 2.0, 0.1))
        assert calls == [(10, 1024)] * 10 + [(3, 1024)] * 10
        assert chunks == [(8, 1024), (2, 1024)] * 10 + [(3, 1024)] * 10

    def test_pure_decay(self):
        # no forcing: omega and the companion decay at the solver rates whatever the draws
        b = Basis(2, 1.0)
        params = linear_params()
        stepper = stepper_for(b, params, c_mu=0.0)
        a0, v0 = ref.modes(b, {(1, 1): 1.0})[None, :], np.full((1, 4), 3.0)
        eta = stepper.noise_std * np.full((1, 4), 12.34)
        a, v = stepper.advance(a0, eta), stepper.propagate(v0, eta)
        assert a is a0 and v is v0  # advanced in place
        assert a[0, 0] == pytest.approx(np.exp((-2 * np.pi**2 - 0.1) * 0.01), rel=1e-14)
        np.testing.assert_allclose(v[0], 3.0 * np.exp((b.eigenvalues - params.r) * 0.01),
                                   rtol=1e-14)

    def test_step_without_drift_keeps_sign_of_zero_rule(self):
        # one rule, decay * x + eta, for a drift-free state and the companion:
        # both keep -0.0 + -0.0 = -0.0
        stepper = stepper_for(Basis(2, 1.0), linear_params(), c_mu=0.0)
        eta = stepper.noise_std * np.full((1, 4), -1.0)  # -0.0 increments
        a = stepper.advance(np.full((1, 4), -0.0), eta)
        v = stepper.propagate(np.full((1, 4), -0.0), eta)
        assert np.signbit(a).all() and np.signbit(v).all()

    @pytest.mark.parametrize("M", [4, 16, 32])  # drift grids P = 7, 25, 49
    def test_matches_batched_stepper(self, rng, M):
        # the exponential-Euler step written out per field equals the batched advance
        b = Basis(M, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.7, linearized=False, beta_term=True)
        h = 0.01
        a0, v0 = 0.3 * rng.standard_normal((2, 2, M * M))
        rates = b.eigenvalues - params.r
        eta = ou_transition_std(spec.mu, rates, h) * rng.standard_normal((2, M * M))
        stepper = _Stepper(params, spec, h)
        a, v = stepper.advance(a0.copy(), eta), stepper.propagate(v0.copy(), eta)
        for i in range(2):
            drift = reference_drift(b, a0[i], params)
            want_a = np.exp(rates * h) * a0[i] + h * phi1(rates * h) * drift + eta[i]
            np.testing.assert_allclose(a[i], want_a, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(v[i], np.exp(rates * h) * v0[i] + eta[i],
                                       rtol=1e-12, atol=1e-15)

    def test_composed_increment_is_one_step_of_twice_the_size(self, rng):
        # e^(l h) eta1 + eta2 is the OU increment over 2h: a 2h step on it equals
        # two h-steps on eta1, eta2, which is how step sizes share one forcing path
        b = Basis(16, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        fine, coarse = _Stepper(linear_params(), spec, 0.01), _Stepper(linear_params(), spec, 0.02)
        np.testing.assert_allclose(
            np.sqrt(fine.decay**2 * fine.noise_std**2 + fine.noise_std**2), coarse.noise_std,
            rtol=1e-12)
        a0 = rng.standard_normal((3, b.n_modes))
        eta1, eta2 = fine.noise_std * rng.standard_normal((2, 3, b.n_modes))
        a = fine.advance(fine.advance(a0.copy(), eta1), eta2)
        a2 = coarse.advance(a0.copy(), fine.decay * eta1 + eta2)
        np.testing.assert_allclose(a2, a, rtol=1e-12)


class TestLinearExactness:
    def test_omega_equals_convolution_with_zero_drift(self):
        # F == 0 and omega_0 = 0: the solution IS the stochastic convolution
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        records = run_ensemble(small_config(), linear_params(), spec)
        assert records[0].names == ("omega_sq",)  # one state: omega is W_A
        trace = estimate_enstrophy(records, spec, 0.1)
        np.testing.assert_array_equal(trace.ens_mean, trace.wa_half_empirical)
        assert np.max(trace.resid_mean) == 0.0

    def test_zero_spectrum_zero_ic_stays_zero(self):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=1.0, linearized=False, beta_term=True)
        rec = path_record(small_config(), params, spec, 0)
        assert np.all(rec["omega_sq"][0] == 0.0)

    def test_zero_noise_leaves_no_convolution(self):
        # mu == 0: V == 0, so U IS the solution
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.4, linearized=False, beta_term=True)
        cfg = small_config(initial_condition=InitialCondition("gaussian", sigma=0.3))
        rec = run_ensemble(cfg, params, spec)[0]
        assert np.all(rec["wa_sq"] == 0.0)
        np.testing.assert_array_equal(rec["u_sq"], rec["omega_sq"])
        assert np.min(rec["u_sq"]) > 0.0


class TestDeterminism:
    def test_same_seed_same_path_bit_identical(self):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.3, linearized=False, beta_term=True)
        cfg = small_config(store_fields=True,
                           initial_condition=InitialCondition("gaussian", sigma=0.2))
        t1 = path_record(cfg, params, spec, 3)
        t2 = path_record(cfg, params, spec, 3)
        np.testing.assert_array_equal(t1.fields, t2.fields)

    def test_worker_count_bit_identical(self):
        b = Basis(4, 1.0)
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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        records = run_ensemble(small_config(n_paths=6, batch_size=3), linear_params(), spec,
                               n_workers=8)
        assert sizes == [2]
        assert [r.path_index.tolist() for r in records] == [[0, 1, 2], [3, 4, 5]]

    # 3+3+3+1 is uneven; M = 32 runs the P = 49 drift grid; at one output time the
    # estimator sums the gathered column, which numpy sums pairwise from 8 paths on
    @pytest.mark.parametrize("M, batch_size, n_out", [(4, 3, 11), (4, 10, 11), (32, 4, 11), (4, 10, 1)],
                             ids=["3", "10", "M32-4", "10-one-time"])
    def test_batch_size_does_not_change_paths(self, M, batch_size, n_out):
        b = Basis(M, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.6, linearized=False, beta_term=True)

        def run(size):
            cfg = small_config(M=M, n_paths=10, batch_size=size, store_fields=True,
                               output_times=np.round(np.arange(11 - n_out, 11) * 0.01, 10),
                               initial_condition=InitialCondition("gaussian", sigma=0.3))
            return run_ensemble(cfg, params, spec)

        single, batched = run(1), run(batch_size)
        assert len(batched) == -(-10 // batch_size)

        for name in ("path_index", "series", "fields"):
            np.testing.assert_array_equal(joined(batched, name), joined(single, name), err_msg=name)
        want = estimate_enstrophy(single, spec, params.r)
        got = estimate_enstrophy(batched, spec, params.r)
        for name in ("times", "ens_mean", "ens_se", "wa_half_empirical", "wa_half_analytic",
                     "resid_mean", "resid_se"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert got.n_paths == want.n_paths == 10

    def test_draw_block_does_not_change_paths(self, monkeypatch):
        # batches of 32 and 8 paths at M=4; 100 steps: the 32-path batch draws one full
        # block of 64 steps and a short one of 36, the 8-path batch all 100 in one short
        # block (its budget is 256 steps); outputs fall on the last step of the first
        # block, the first of the next, and off the block edges
        block = dynamics._BLOCK_VALUES // (32 * 16)
        assert block == 64 and dynamics._BLOCK_VALUES // (8 * 16) > 100
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.6, linearized=False, beta_term=True)
        cfg = SimConfig(
            M=4, dt=1e-3, T=0.1, output_times=np.array([0, 30, block, block + 1, 100]) * 1e-3,
            n_paths=40, master_seed=11, batch_size=32, store_fields=True,
            initial_condition=InitialCondition("gaussian", sigma=0.3),
        )
        blocked = run_ensemble(cfg, params, spec)
        monkeypatch.setattr(dynamics, "_BLOCK_VALUES", 1)  # one step per draw
        stepwise = run_ensemble(cfg, params, spec)
        assert len(blocked) == len(stepwise) == 2
        for got, want in zip(blocked, stepwise):
            assert got.names == want.names
            for name in ("path_index", "series", "fields"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.failures == want.failures

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(2, 40), n_paths=st.integers(1, 7), batch_size=st.integers(1, 7),
           draw_values=st.integers(0, 15).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1) - 1)),
           chunk_bytes=st.integers(0, 20).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1) - 1)),
           n_steps=st.integers(1, 4), linearized=st.booleans(), beta_term=st.booleans(),
           sigma=st.sampled_from([0.3, 1e160, 0.0]), seed=st.integers(0, 2**64 - 1))
    def test_stepper_over_time_matches_one_path_batches(self, M, n_paths, batch_size, draw_values,
                                                        chunk_bytes, n_steps, linearized,
                                                        beta_term, sigma, seed):
        # any batching, any draw block budget and any drift chunk budget, each set on
        # its own, give the bits of one-path batches; sigma=1e160 overflows ||omega||^2
        # at t = 0 whatever the draws, and sigma=0.0 without a drift term keeps one state
        b = Basis(M, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.6, linearized=linearized, beta_term=beta_term)

        def run(size):
            cfg = SimConfig(M=M, dt=1e-3, T=n_steps * 1e-3,
                            output_times=np.arange(n_steps + 1) * 1e-3, n_paths=n_paths,
                            master_seed=seed, batch_size=size, store_fields=True,
                            initial_condition=InitialCondition("gaussian", sigma=sigma))
            try:
                records = run_ensemble(cfg, params, spec)
            except BlowupError as err:
                return None, err.failures
            return {n: joined(records, n).tobytes() for n in ("path_index", "series", "fields")}, []

        want = run(1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_BLOCK_VALUES", min(draw_values, dynamics._BLOCK_VALUES))
            patch.setattr(dynamics, "_DRIFT_CHUNK_BYTES", min(chunk_bytes, dynamics._DRIFT_CHUNK_BYTES))
            got = run(batch_size)
        assert got == want
        assert (want[0] is None) == (sigma > 1.0)

    def test_golden_trajectory_guards_rng_contract(self):
        # frozen output of the documented (master_seed, path_index) mapping;
        # a change here means the reproducibility contract was broken
        basis = Basis(2, 1.0)
        spec = build_spectrum(basis, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.5, linearized=False, beta_term=True)
        cfg = SimConfig(
            M=2, dt=0.01, T=0.03, output_times=np.array([0.01, 0.03]),
            n_paths=1, master_seed=2024,
            initial_condition=InitialCondition("gaussian", sigma=0.5),
            store_fields=True,
        )
        rec = path_record(cfg, params, spec, 0)
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


def two_state_reference(config, params, spectrum, path_indices):
    """The batch's record with the companion stepped as its own state, on the same draws.

    The state takes `advance`, the companion the drift-free step `propagate`;
    beside the record's series it returns the companion's snapshots as
    `companion_fields`. Each step draws K values per path, which a draw block
    reproduces bit for bit.
    """
    basis, K = spectrum.basis, spectrum.basis.n_modes
    stepper = _Stepper(params, spectrum, config.dt)
    gens = [_path_generators(config.master_seed, int(p)) for p in path_indices]
    a = np.stack([dynamics._initial_coeffs(config, basis, ic_rng) for ic_rng, _ in gens])
    v = np.zeros_like(a)
    out_steps = config.output_steps().tolist()
    series = {name: [] for name in ("omega_sq", "u_sq", "wa_sq", "fields", "companion_fields")}
    for s in range(out_steps[-1] + 1):
        if s:
            eta = np.stack([rng.standard_normal(K) for _, rng in gens]) * stepper.noise_std
            stepper.advance(a, eta)
            stepper.propagate(v, eta)
        if s in out_steps:
            for name, value in (("omega_sq", a * a), ("u_sq", (a - v) ** 2), ("wa_sq", v * v)):
                series[name].append(np.sum(value, axis=1))
            series["fields"].append(a.copy())
            series["companion_fields"].append(v.copy())
    return {name: np.stack(rows, axis=1) for name, rows in series.items()}


class TestOneState:
    """A run without a drift from rest steps only omega, which is its companion W_A."""

    @pytest.mark.parametrize("beta_term, c_mu, ic, one_state", [
        (False, 1.0, InitialCondition(), True),
        (False, 0.0, InitialCondition("coeffs", coeffs=(-0.0,) * 16), True),  # -0.0 increments
        (False, 1.0, InitialCondition("gaussian", sigma=0.0), True),
        (False, 1.0, InitialCondition("gaussian", sigma=0.3), False),
        (True, 1.0, InitialCondition(), False),  # the beta term is a drift
    ], ids=["zero", "minus-zero", "sigma-0", "nonzero-ic", "beta-term"])
    def test_matches_two_state_reference(self, monkeypatch, beta_term, c_mu, ic, one_state):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, c_mu, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.5, linearized=True, beta_term=beta_term)
        cfg = small_config(n_paths=5, batch_size=3, store_fields=True, initial_condition=ic)
        want = [two_state_reference(cfg, params, spec, idx) for idx in ([0, 1, 2], [3, 4])]
        states, companion_steps = [], []
        advance, propagate = _Stepper.advance, _Stepper.propagate

        def spied_advance(self, a, eta):
            states.append(a)
            return advance(self, a, eta)

        def spied_propagate(self, x, eta):
            # a drift-free advance steps its state through propagate: count the others
            if x is not states[-1]:
                companion_steps.append(x.shape)
            return propagate(self, x, eta)

        monkeypatch.setattr(_Stepper, "advance", spied_advance)
        monkeypatch.setattr(_Stepper, "propagate", spied_propagate)
        records = run_ensemble(cfg, params, spec)
        assert len(states) == 20  # 10 steps for each of the 2 batches
        assert companion_steps == ([] if one_state else [(3, 16)] * 10 + [(2, 16)] * 10)
        # one state reduces one series: the records name omega_sq alone
        assert [rec.names for rec in records] == [SERIES[:1] if one_state else SERIES] * 2
        for rec, ref_rec in zip(records, want):
            for name in rec.names:
                assert rec[name].tobytes() == ref_rec[name].tobytes(), name
            assert rec.fields.tobytes() == ref_rec["fields"].tobytes()
        # and the estimator gives it the bits of the reference's three series
        three = [EnsembleRecord(rec.path_index, rec.times, SERIES, np.stack([ref_rec[n] for n in SERIES]))
                 for rec, ref_rec in zip(records, want)]
        got, expected = (estimate_enstrophy(r, spec, params.r) for r in (records, three))
        for name in ("ens_mean", "ens_se", "wa_half_empirical", "resid_mean", "resid_se"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_one_state_from_rest_is_its_companion_bit_for_bit(self):
        # from +0.0 the one state takes the companion's step on the same increments, so
        # its snapshots are the companion's, zero signs included; the modes of zero
        # amplitude draw -0.0 and +0.0 increments
        b = Basis(4, 1.0)
        spec = spectrum_from_list(b, [0.0 if k % 3 else 1.0 / (k + 1) ** 2 for k in range(16)], 0.1)
        cfg = small_config(n_paths=5, batch_size=3, store_fields=True)
        records = run_ensemble(cfg, linear_params(), spec)
        assert all(rec.names == ("omega_sq",) for rec in records)  # one state
        for rec, idx in zip(records, ([0, 1, 2], [3, 4])):
            want = two_state_reference(cfg, linear_params(), spec, idx)["companion_fields"]
            assert rec.fields.tobytes() == want.tobytes()
            assert np.all(rec.fields[:, :, spec.mu_sq == 0.0] == 0.0)


    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_one_state_records_cross_the_pool_with_one_series(self, n_workers):
        # a pool's workers send their one-state records back holding omega_sq alone
        spec = build_spectrum(Basis(4, 1.0), 1.0, 2.0, 0.1)
        cfg = small_config(n_paths=5, batch_size=3)
        records = run_ensemble(cfg, linear_params(), spec, n_workers=n_workers)
        assert [rec.path_index.tolist() for rec in records] == [[0, 1, 2], [3, 4]]
        for rec in records:
            assert rec.names == ("omega_sq",)
            assert rec.series.shape == (1, len(rec.path_index), 11)
        # a two-state record round-trips through pickle with the same bytes
        gaussian = replace(cfg, initial_condition=InitialCondition("gaussian", sigma=0.3))
        rec = run_ensemble(gaussian, linear_params(), spec, n_workers=n_workers)[0]
        copied = pickle.loads(pickle.dumps(rec))
        assert copied.names == rec.names == SERIES
        assert copied.series.shape == rec.series.shape == (3, 3, 11)
        assert copied.series.tobytes() == rec.series.tobytes()


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

    def test_batch_holds_little_beyond_its_record(self):
        # one lin16_dense batch: 32 linearized M=16 paths from rest, 500 steps, an output
        # at each; its 4-step draw block (256 KiB) is most of what the batch holds beyond
        # the record's (32, 501) series, where a 16-step block of 1 MiB was
        b = Basis(16, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        cfg = SimConfig(M=16, dt=1e-3, T=0.5, output_times=np.round(np.arange(501) * 1e-3, 10),
                        n_paths=32, master_seed=5)
        _simulate_batch(linear_params(), spec, cfg, np.arange(32))  # first-call caches
        tracemalloc.start()
        try:
            rec = _simulate_batch(linear_params(), spec, cfg, np.arange(32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = rec.series.nbytes + rec.times.nbytes + rec.path_index.nbytes
        assert rec.names == ("omega_sq",)  # one state
        assert peak - held < 700 * 1024, (peak - held) / 1024


class TestTrajectoryRecords:
    def test_scalars_consistent_with_stored_fields(self, rng):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.4, linearized=False, beta_term=True)
        cfg = small_config(store_fields=True,
                           initial_condition=InitialCondition("gaussian", sigma=0.3))
        rec = path_record(cfg, params, spec, 1)
        grad_sq = ref.grad_sq(b, rec.fields[0])
        for i in range(len(rec.times)):
            om = rec.fields[0, i]
            assert rec["omega_sq"][0, i] == pytest.approx(np.sum(om**2), rel=1e-10)
            assert grad_sq[i] == pytest.approx(np.sum(b.sq_wavenumbers * om**2), rel=1e-10)

    def test_series_names_are_pinned(self):
        # a new per-path series has to change these tuples on purpose
        names = [f.name for f in fields(EnsembleRecord)]
        assert names == ["path_index", "times", "names", "series", "fields", "failures"]
        spec = build_spectrum(Basis(4, 1.0), 1.0, 2.0, 0.1)
        for ic, pinned in ((InitialCondition(), ("omega_sq",)),  # one state
                           (InitialCondition("gaussian", sigma=0.3), ("omega_sq", "u_sq", "wa_sq"))):
            rec = run_ensemble(small_config(n_paths=3, initial_condition=ic), linear_params(),
                               spec)[0]
            assert rec.names == pinned and rec.series.shape == (len(pinned), 3, 11)

    def test_times_strictly_increasing(self):
        b = Basis(4, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        rec = path_record(small_config(), linear_params(), spec, 0)
        assert np.all(np.diff(rec.times) > 0)


class TestEnsembleStatistics:
    def test_linear_mean_matches_analytic_oracle(self):
        b = Basis(8, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        params = linear_params()
        cfg = SimConfig(
            M=8, dt=0.05, T=0.5, output_times=np.round(np.arange(0, 11) * 0.05, 10),
            n_paths=600, master_seed=11,
        )
        records = run_ensemble(cfg, params, spec)
        ens = 0.5 * np.concatenate([r["omega_sq"] for r in records])
        mean = ens.mean(axis=0)
        se = ens.std(axis=0, ddof=1) / np.sqrt(len(ens))
        oracle = 0.5 * linear_law(spec, params.r, cfg.output_times)[0]
        assert np.all(np.abs(mean - oracle) <= 3.0 * np.maximum(se, 1e-300))


class TestConservation:
    def test_deterministic_dissipation_monotone(self, rng):
        # zero noise, beta = 0: discrete enstrophy non-increasing at every step
        M = 16
        b = Basis(M, 1.0)
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
        assert np.all(np.diff(0.5 * rec["omega_sq"][0]) <= 0.0)

    def test_energy_balance_residual_first_order(self, rng):
        # |d(enstrophy)/dt + nu ||grad w||^2 + r ||w||^2| halves with dt
        M = 8
        b = Basis(M, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        ic = tuple(rng.standard_normal(M * M) / (1.0 + b.sq_wavenumbers / np.pi**2))

        def mean_residual(h):
            n = int(round(0.02 / h))
            cfg = SimConfig(
                M=M, dt=h, T=0.02,
                output_times=np.round(np.arange(0, n + 1) * h, 12),
                n_paths=1, master_seed=0, store_fields=True,
                initial_condition=InitialCondition("coeffs", coeffs=ic),
            )
            rec = run_ensemble(cfg, params, spec)[0]
            ens = 0.5 * rec["omega_sq"][0]
            resid = (np.diff(ens) / h + params.nu * ref.grad_sq(b, rec.fields[0, :-1])
                     + params.r * rec["omega_sq"][0, :-1])
            return np.mean(np.abs(resid))

        r1, r2 = mean_residual(1e-3), mean_residual(5e-4)
        assert r1 / r2 == pytest.approx(2.0, rel=0.3)

    def test_deterministic_convergence_first_order(self, rng):
        # halving h halves the error against a high-order reference integrator
        M = 8
        b = Basis(M, 1.0)
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
        b = Basis(2, 1.0)
        spec = build_spectrum(b, 0.0, 2.0, 0.1)
        params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
        cfg = SimConfig(
            M=2, dt=0.01, T=0.02, output_times=np.array([0.01, 0.02]),
            n_paths=2, master_seed=5,
            initial_condition=InitialCondition("coeffs", coeffs=(1e200, -1e200, 1e200, -1e200)),
        )
        with pytest.raises(BlowupError) as err:
            run_ensemble(cfg, params, spec)
        failing = sorted(p for p, _ in err.value.failures)
        assert failing == [0, 1]
        assert all(t in (0.01, 0.02) for _, t in err.value.failures)

    @pytest.mark.parametrize("value, failures", [
        (np.nan, [(0, 0.0), (1, 0.0)]),
        (1e200, [(0, 0.0), (1, 0.0)]),  # finite, but omega_sq overflows
    ])
    def test_failure_means_a_nonfinite_series(self, value, failures):
        b = Basis(2, 1.0)
        spec = build_spectrum(b, 1.0, 2.0, 0.1)
        cfg = SimConfig(
            M=2, dt=0.01, T=0.02, output_times=np.array([0.0, 0.01, 0.02]),
            n_paths=2, master_seed=5,
            initial_condition=InitialCondition("coeffs", coeffs=(value, 0.5, 0.0, -0.5)),
        )
        rec = _simulate_batch(linear_params(), spec, cfg, np.arange(2))
        assert rec.failures == failures
        assert not np.isfinite(rec["omega_sq"]).any()


class TestConfigPlumbing:
    def test_output_times_must_align_with_dt(self):
        with pytest.raises(ValueError):
            SimConfig(M=2, dt=0.01, T=1.0, output_times=np.array([0.005]),
                      n_paths=1, master_seed=0)

    def test_step_count_must_fit_int64(self):
        # 2**62 steps is a long run but a valid one; 1e300 steps has no int64 count
        cfg = small_config(dt=2.0**-62, T=1.0, output_times=np.array([0.0, 1.0]))
        assert cfg.output_steps().tolist() == [0, 2**62]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as err:
                small_config(dt=1e-300, T=1.0, output_times=np.array([0.0]))
        assert err.value.field == "dt"

    def test_snap_warns_and_aligns(self):
        with pytest.warns(UserWarning):
            snapped = snap_output_times([0.0, 0.014, 0.03], dt=0.01, T=0.1)
        np.testing.assert_allclose(snapped, [0.0, 0.01, 0.03])

    @settings(max_examples=200, deadline=None)
    @given(dt=st.sampled_from([1e-3, 0.01, 0.1, 0.3]), n_steps=st.integers(1, 40),
           raw=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=30),
           copies=st.integers(1, 3))
    def test_snap_equals_np_unique(self, dt, n_steps, raw, copies):
        # duplicates, exact and after snapping, and times clipped to 0 and to T
        T = n_steps * dt
        times = np.array(raw * copies) * T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = snap_output_times(times, dt=dt, T=T)
        want = np.unique(np.clip(np.rint(times / dt) * dt, 0.0, np.rint(T / dt) * dt))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_moments_of_every_kind(self):
        # a_k(0) ~ N(c_k, sigma_k^2): zero, fixed coefficients, a scalar or per-mode sigma
        moments = {kind: [a.tolist() for a in ic.moments(4)] for kind, ic in (
            ("zero", InitialCondition()),
            ("coeffs", InitialCondition("coeffs", coeffs=(3.0, 4.0, 0.0, 0.0))),
            ("gaussian", InitialCondition("gaussian", sigma=0.5)),
            ("list", InitialCondition("gaussian", sigma=(0.1, 0.2, 0.3, 0.4))))}
        assert moments == {"zero": [[0.0] * 4] * 2, "coeffs": [[3.0, 4.0, 0.0, 0.0], [0.0] * 4],
                           "gaussian": [[0.0] * 4, [0.5] * 4], "list": [[0.0] * 4, [0.1, 0.2, 0.3, 0.4]]}
        for ic, key in ((InitialCondition("gaussian", sigma=(0.1, 0.2, 0.3, 0.4)), "sigma"),
                        (InitialCondition("coeffs", coeffs=(1.0, 2.0)), "coeffs")):
            with pytest.raises(ParameterError) as err:
                ic.moments(9)
            assert err.value.field == key

    def test_at_rest_means_no_nonzero_entry(self):
        # 1e-200 squares to 0.0, so no sum of squares can tell it from rest
        assert InitialCondition().at_rest
        assert InitialCondition("coeffs", coeffs=(-0.0, 0.0, 0.0, 0.0)).at_rest
        assert InitialCondition("gaussian", sigma=0.0).at_rest
        assert InitialCondition("gaussian", sigma=(0.0,) * 4).at_rest
        assert not InitialCondition("coeffs", coeffs=(1e-200, 0.0, 0.0, 0.0)).at_rest
        assert not InitialCondition("gaussian", sigma=(0.0, 1e-200, 0.0, 0.0)).at_rest

    def test_constructors_reject_negative_scales(self):
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
