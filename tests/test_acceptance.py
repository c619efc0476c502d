"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The heavy ensemble runs use 4 workers; the full module takes a
few minutes on a 4-core machine.
"""

import json
import time

import numpy as np
import pytest

import reference as ref
from stoqg import (
    Basis,
    InitialCondition,
    ModelParams,
    SimConfig,
    build_spectrum,
    estimate_enstrophy,
    gamma_threshold,
    holder_exponent_fit,
    phi_alpha,
    run_ensemble,
    trace,
    trace_class_envelope,
    validate_bound,
    asymptotics_check,
)
from stoqg.cli import main
from stoqg.dynamics import _Stepper

WORKERS = 4


def report(n: int, text: str):
    print(f"[PASS] criterion {n}: {text}")


def uniform_times(T, n):
    return np.round(np.linspace(0.0, T, n), 12)


def test_criterion_1_linear_oracle_equivalence():
    # linearized system, M=16, mu_k^2 = k^-2, N=2000, T=1, dt=1e-3,
    # 11 output times: Ens(t) within 3 SE of the closed-form OU variance
    started = time.perf_counter()
    M = 16
    basis = Basis(M, 1.0)
    spectrum = build_spectrum(basis, 1.0, 2.0, 0.1)
    params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=True, beta_term=False)
    cfg = SimConfig(M=M, dt=1e-3, T=1.0, output_times=uniform_times(1.0, 11),
                    n_paths=2000, master_seed=20260810)
    records = run_ensemble(cfg, params, spectrum, n_workers=WORKERS)
    tr = estimate_enstrophy(records, spectrum, params.r)
    rates = basis.eigenvalues - params.r
    oracle = 0.5 * np.array([
        np.sum(spectrum.mu_sq * (1.0 - np.exp(2.0 * rates * t)) / (-2.0 * rates))
        for t in tr.times
    ])
    z = np.abs(tr.ens_mean - oracle) / np.maximum(tr.ens_se, 1e-300)
    z[tr.ens_se == 0.0] = 0.0  # t = 0: both sides identically zero
    elapsed = time.perf_counter() - started
    assert np.all(z <= 3.0), f"worst z = {z.max():.2f}"
    assert elapsed < 120.0, f"linear run took {elapsed:.1f}s"
    report(1, f"linear oracle, worst |z| = {z.max():.2f}, {elapsed:.1f}s")


def test_criterion_2_jacobian_identities():
    # on the drift a run executes, -J(psi, omega) - beta psi_x with
    # psi = Lap^-1 omega: <J, omega> = <J, psi> = 0, and with the beta term
    # <drift, psi> = 0 still, since <psi_x, psi> = 0
    M = 16
    basis = Basis(M, 1.0)
    spectrum = build_spectrum(basis, 1.0, 2.0, 0.1)
    rng = np.random.default_rng(2)
    omega = rng.standard_normal((100, M * M))
    psi = ref.inverse_laplacian(basis, omega)
    grad_psi = np.sqrt(np.sum(basis.sq_wavenumbers * psi**2, axis=1))
    grad_omega = np.sqrt(np.sum(basis.sq_wavenumbers * omega**2, axis=1))

    def drift(beta):
        params = ModelParams(nu=1.0, r=0.1, beta=beta, linearized=False, beta_term=True)
        return _Stepper(params, spectrum, 1e-3).drift_flat(omega)

    j = -drift(0.0)
    scale = grad_psi * grad_omega
    r1 = np.abs(np.sum(j * omega, axis=1)) / (scale * np.linalg.norm(omega, axis=1))
    r2 = np.abs(np.sum(j * psi, axis=1)) / (scale * np.linalg.norm(psi, axis=1))
    beta = 0.7
    r3 = (np.abs(np.sum(drift(beta) * psi, axis=1))
          / ((scale + beta * grad_psi) * np.linalg.norm(psi, axis=1)))
    worst_ortho = max(r1.max(), r2.max(), r3.max())
    assert np.all(r1 <= 1e-8) and np.all(r2 <= 1e-8) and np.all(r3 <= 1e-8)
    # second opinion: the reference Jacobian of a general pair with itself
    f = rng.standard_normal(M * M)
    self_j = np.max(np.abs(ref.jacobian(basis, f, f)))
    assert self_j <= 1e-12
    report(2, f"jacobian identities, worst relative pairing {worst_ortho:.2e}")


def test_criterion_3_parseval_and_transforms():
    # the basis' grid transforms round-trip, and the grid and the Gauss-Legendre
    # quadrature of f^2 both give ||f||^2 = sum a_k^2, the norm a run records
    rng = np.random.default_rng(3)
    worst = 0.0
    x, w = ref.gauss_grid(96)
    for M in (4, 8, 16):
        basis = Basis(M, 1.0)
        a = rng.standard_normal(M * M)
        P = 2 * M + 1
        sin_mat, _ = basis.trig_matrices(P)
        grid = sin_mat.T @ basis.to_grid2d(2.0 * a) @ sin_mat
        back = basis.from_grid2d((2.0 / P**2) * (sin_mat @ grid @ sin_mat.T))
        rt_err = np.max(np.abs(back - a)) / np.max(np.abs(a))
        norm_sq = np.sum(a**2)
        grid_err = abs(np.sum(grid**2) / P**2 - norm_sq) / norm_sq
        q_err = abs(w @ ref.evaluate(basis, a, x)[0] ** 2 @ w - norm_sq) / norm_sq
        worst = max(worst, rt_err, grid_err, q_err)
        assert rt_err <= 1e-10 and grid_err <= 1e-10 and q_err <= 1e-10
    report(3, f"parseval/transform agreement, worst relative error {worst:.2e}")


def test_criterion_4_deterministic_dissipation():
    M = 16
    basis = Basis(M, 1.0)
    spectrum = build_spectrum(basis, 0.0, 2.0, 0.1)
    params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
    rng = np.random.default_rng(4)
    ic = tuple(rng.standard_normal(M * M) / (1.0 + basis.sq_wavenumbers / np.pi**2))

    def run(dt, T=0.05):
        n = int(round(T / dt))
        cfg = SimConfig(M=M, dt=dt, T=T,
                        output_times=np.round(np.arange(0, n + 1) * dt, 12),
                        n_paths=1, master_seed=0, store_fields=True,
                        initial_condition=InitialCondition("coeffs", coeffs=ic))
        return run_ensemble(cfg, params, spectrum)[0]

    coarse = run(1e-3)
    ens = 0.5 * coarse.omega_sq[0]
    assert np.all(np.diff(ens) <= 0.0), "discrete enstrophy increased"

    def residual(rec, dt):
        e = 0.5 * rec.omega_sq[0]
        return np.abs(np.diff(e) / dt + params.nu * ref.grad_sq(basis, rec.fields[0, :-1])
                      + params.r * rec.omega_sq[0, :-1])

    fine = run(5e-4)
    r_coarse = np.mean(residual(coarse, 1e-3))
    r_fine = np.mean(residual(fine, 5e-4))
    ratio = r_coarse / r_fine
    assert 1.4 <= ratio <= 2.6, f"residual ratio {ratio:.2f} outside 2 +- 30%"
    report(4, f"dissipation monotone; residual halving ratio {ratio:.2f}")


def test_criterion_5_trace_class_bound():
    # constant-free envelope dominates the full nonlinear run; at t=1 the
    # envelope is within 10% of its long-time limit -Tr(Q)/(4 gamma)
    M = 16
    basis = Basis(M, 1.0)
    spectrum = build_spectrum(basis, 1.0, 2.0, 0.1)
    params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
    gamma = gamma_threshold(params.nu, params.r, 0.0) + 0.1
    assert gamma == pytest.approx(-19.739, abs=1e-3)
    cfg = SimConfig(M=M, dt=1e-3, T=1.0, output_times=uniform_times(1.0, 21),
                    n_paths=1000, master_seed=55)
    records = run_ensemble(cfg, params, spectrum, n_workers=WORKERS)
    tr = estimate_enstrophy(records, spectrum, params.r)
    envelope = trace_class_envelope(0.0, gamma, trace(spectrum), tr.times)
    verdict = validate_bound(tr, envelope)
    assert verdict.verdict == "pass", f"violations at {verdict.violations}"
    limit = -trace(spectrum) / (4.0 * gamma)
    assert envelope.values[-1] == pytest.approx(limit, rel=0.10)
    margin = np.min(envelope.values[1:] / np.maximum(tr.ens_mean[1:], 1e-300))
    report(5, f"trace-class envelope dominates (min margin x{margin:.2f}); "
              f"envelope(1) = {envelope.values[-1]:.5f} vs limit {limit:.5f}")


def test_criterion_6_phi_alpha_scaling():
    # mu_k^2 = k^-0.6, theta = 0.1, M = 32: log-log slope over [1e2, 1e4]
    # equals theta - mu_exp = -0.5 within 10%; nu = 2 places the eigenvalue
    # range around the fit window
    basis = Basis(32, 2.0)
    spectrum = build_spectrum(basis, 1.0, 0.6, 0.1)
    alphas = np.geomspace(1e2, 1e4, 9)
    values = np.array([phi_alpha(spectrum, a) for a in alphas])
    slope = np.polyfit(np.log(alphas), np.log(values), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05), f"slope {slope:.4f}"
    report(6, f"phi(alpha) scaling slope {slope:.4f} (target -0.5 +- 0.05)")


def test_criterion_7_holder_floor():
    # pipeline trace of the criterion-5 physics on a dense grid; geometric
    # lags spanning [1e-3, 1e-1]; exponent floor 0.25 - 0.05 = 0.20
    M = 16
    basis = Basis(M, 1.0)
    spectrum = build_spectrum(basis, 1.0, 2.0, 0.1)
    params = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
    n_out = 520
    cfg = SimConfig(M=M, dt=1e-3, T=0.52,
                    output_times=np.round(np.arange(0, n_out + 1) * 1e-3, 12),
                    n_paths=1000, master_seed=77)
    records = run_ensemble(cfg, params, spectrum, n_workers=WORKERS)
    tr = estimate_enstrophy(records, spectrum, params.r)
    lags = [1e-3, 3e-3, 1e-2, 3.2e-2, 1e-1]
    result = holder_exponent_fit(tr, (0.005, 0.405), lags)
    if result["verdict"] == "not_applicable":
        report(7, "holder floor: increments below noise floor (not applicable)")
    else:
        assert result["exponent"] >= 0.20, f"exponent {result['exponent']:.3f}"
        report(7, f"holder increment exponent {result['exponent']:.3f} >= 0.20 "
                  f"({result['usable_lags']} usable lags)")

    # synthetic recoveries: sqrt(t) -> 0.5, t -> 1.0, both within 0.01
    t0 = 1e-8
    times = np.concatenate(([t0], t0 + np.asarray(lags)))
    from stoqg import EnstrophyTrace

    sqrt_trace = EnstrophyTrace(times=times, ens_mean=np.sqrt(times),
                                ens_se=np.zeros_like(times), n_paths=2)
    lin_trace = EnstrophyTrace(times=times, ens_mean=times.copy(),
                               ens_se=np.zeros_like(times), n_paths=2)
    got_sqrt = holder_exponent_fit(sqrt_trace, (t0, 1.0), lags)["exponent"]
    got_lin = holder_exponent_fit(lin_trace, (t0, 1.0), lags)["exponent"]
    assert got_sqrt == pytest.approx(0.5, abs=0.01)
    assert got_lin == pytest.approx(1.0, abs=0.01)


def test_criterion_8_small_time_asymptotics():
    # (i) zero-IC linearized run: Ens(t) equals half the recorded convolution
    # variance to 1e-12 (pathwise identity omega == W_A)
    M = 16
    basis = Basis(M, 1.0)
    spectrum = build_spectrum(basis, 1.0, 2.0, 0.1)
    lin = ModelParams(nu=1.0, r=1e-9, beta=0.0, linearized=True, beta_term=False)
    times_i = np.round(np.concatenate(([0.0], np.geomspace(1e-3, 1e-1, 7))), 12)
    snapped_i = np.unique(np.round(times_i / 1e-3) * 1e-3)
    cfg_i = SimConfig(M=M, dt=1e-3, T=0.1, output_times=snapped_i,
                      n_paths=200, master_seed=81)
    records = run_ensemble(cfg_i, lin, spectrum, n_workers=WORKERS)
    tr_i = estimate_enstrophy(records, spectrum, lin.r)
    res_i = asymptotics_check(tr_i, "zero", delta=0.5)
    ratios = np.asarray(res_i["ratio_empirical"])
    np.testing.assert_allclose(ratios, 1.0, rtol=1e-12)

    # (ii) full nonlinear, delta = 0.5 spectrum, N = 4000, geometric times
    # down to 1e-4: analytic ratio within 5% at the two smallest times and
    # residual exponent >= 0.43 (drift-regularity floor at rho = 0.01)
    delta = 0.5
    spectrum2 = build_spectrum(basis, 1.0, delta, 0.1)
    full = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
    geo = np.concatenate(([0.0], np.geomspace(1e-4, 1e-2, 9)))
    snapped = np.unique(np.round(geo / 1e-5) * 1e-5)
    cfg_ii = SimConfig(M=M, dt=1e-5, T=1e-2, output_times=snapped,
                       n_paths=4000, master_seed=82)
    records2 = run_ensemble(cfg_ii, full, spectrum2, n_workers=WORKERS)
    tr_ii = estimate_enstrophy(records2, spectrum2, full.r)
    res_ii = asymptotics_check(tr_ii, "zero", delta=delta)
    ratio2 = np.asarray(res_ii["ratio_analytic"])[:2]
    assert np.all(np.abs(ratio2 - 1.0) <= 0.05), f"ratios {ratio2}"
    assert "residual_exponent" in res_ii, "residuals below Monte Carlo resolution"
    assert res_ii["residual_exponent"] >= 0.43, res_ii["residual_exponent"]
    assert res_ii["verdict"] == "pass"

    # (iii) deterministic omega_0 = phi_11, zero noise: |Ens(t) - Ens(0)|
    # fits exponent 1.0 +- 0.05
    basis2 = Basis(2, 1.0)
    spectrum0 = build_spectrum(basis2, 0.0, 2.0, 0.1)
    det = ModelParams(nu=1.0, r=0.1, beta=0.0, linearized=False, beta_term=False)
    geo3 = np.concatenate(([0.0], np.geomspace(1e-4, 1e-3, 7)))
    snapped3 = np.unique(np.round(geo3 / 1e-5) * 1e-5)
    cfg_iii = SimConfig(M=2, dt=1e-5, T=1e-3, output_times=snapped3,
                        n_paths=2, master_seed=83,
                        initial_condition=InitialCondition("coeffs", coeffs=(1.0, 0, 0, 0)))
    tr_iii = estimate_enstrophy(run_ensemble(cfg_iii, det, spectrum0), spectrum0, det.r)
    res_iii = asymptotics_check(tr_iii, "general", delta=delta, ens0=0.5)
    assert res_iii["exponent"] == pytest.approx(1.0, abs=0.05)
    report(8, f"asymptotics: linear ratio == 1 exactly; nonlinear ratios "
              f"{ratio2.round(4)}; residual exponent "
              f"{res_ii['residual_exponent']:.2f}; deterministic exponent "
              f"{res_iii['exponent']:.3f}")


def test_criterion_9_reproducibility_across_workers(tmp_path):
    cfg = {
        "model": {"nu": 1.0, "r": 0.1, "beta": 0.2, "linearized": False,
                  "beta_term": True},
        "spectrum": {"c_mu": 1.0, "mu_exp": 2.0, "theta": 0.1},
        "sim": {"M": 4, "dt": 0.01, "T": 0.1,
                "output_times": {"kind": "uniform", "n": 11},
                "n_paths": 16, "master_seed": 90,
                "initial_condition": {"type": "gaussian", "sigma": 0.1},
                "batch_size": 4},
        "analysis": {},
        "io": {"out_dir": str(tmp_path / "w1")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    digests = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = main(["simulate", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        digests.append((out / "trace.csv").read_bytes())
    assert digests[0] == digests[1] == digests[2]
    report(9, "byte-identical trace.csv across 1, 2 and 8 workers")
