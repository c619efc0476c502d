"""Basis construction and the operators a run executes, against the reference calculus.

Under test: `Basis` with `trig_matrices` and `to_grid2d`/`from_grid2d`, the
stepper's derivative grids, inverse Laplacian, x-derivative and drift, and
the norms a run records. `reference.py` is the second opinion; it shares
nothing with them but the rank order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from stoqg import Basis, InitialCondition, ModelParams, SimConfig, build_spectrum
from stoqg.dynamics import _simulate_batch, _Stepper
from stoqg.spectral import dealias_resolution


def to_grid(basis, coeffs, P):
    """Values at the interior grid of resolution P, by the basis' transforms."""
    sin_mat, _ = basis.trig_matrices(P)
    return sin_mat.T @ basis.to_grid2d(2.0 * coeffs) @ sin_mat


def from_grid(basis, values, P):
    """Coefficients of grid values by the basis' transforms; inverts to_grid for P >= M + 1."""
    sin_mat, _ = basis.trig_matrices(P)
    return basis.from_grid2d((2.0 / P**2) * (sin_mat @ values @ sin_mat.T))


def stepper(basis):
    """The stepper of the full equation without the beta term."""
    return _Stepper(ModelParams(nu=basis.nu, r=0.1), build_spectrum(basis, 1.0, 2.0, 0.1), 0.01)


def derivative_grids(step, coeffs):
    """(f_x, f_y) on the stepper's dealias grid, by the matrices its drift multiplies with."""
    A = step.basis.to_grid2d(coeffs)
    return [step.left[i, 0, 0] @ A @ step.right[i, 0, 0] for i in (0, 1)]


def inverse_laplacian(step, coeffs):
    basis = step.basis
    return basis.from_grid2d(basis.to_grid2d(coeffs) * step.inv_lap)


def x_derivative(basis, coeffs):
    """The projected d/dx of the stepper's beta term."""
    return basis.from_grid2d(basis.x_derivative_matrix() @ basis.to_grid2d(coeffs))


def recorded_norms(basis, coeffs):
    """(||f||^2, ||grad f||^2) of a run's initial state: recorded, and from its stored field."""
    cfg = SimConfig(M=basis.M, dt=0.01, T=0.01, output_times=np.array([0.0]), n_paths=1,
                    master_seed=0, store_fields=True,
                    initial_condition=InitialCondition("coeffs", coeffs=tuple(coeffs)))
    rec = _simulate_batch(ModelParams(nu=basis.nu, r=0.1), build_spectrum(basis, 0.0, 2.0, 0.1),
                          cfg, np.array([0]))
    return rec.omega_sq[0, 0], ref.grad_sq(basis, rec.fields[0, 0])


class TestBasis:
    def test_mode_ranking_m2(self):
        b = Basis(2, 1.0)
        assert list(zip(b.m, b.n)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert np.allclose(b.eigenvalues, np.array([-2, -5, -5, -8]) * np.pi**2)

    def test_single_mode_eigenvalue(self):
        b = Basis(1, 1.0)
        assert b.eigenvalues[0] == pytest.approx(-2 * np.pi**2)
        assert b.eigenvalues[0] == pytest.approx(-19.7392, abs=1e-4)

    def test_eigenvalue_scales_with_viscosity(self):
        assert Basis(1, 2.0).eigenvalues[0] == pytest.approx(-4 * np.pi**2)

    def test_eigenvalues_non_increasing(self):
        b = Basis(7, 0.3)
        assert np.all(np.diff(b.eigenvalues) <= 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Basis(0, 1.0)
        with pytest.raises(ValueError):
            Basis(4, 0.0)
        with pytest.raises(ValueError):
            Basis(4, -1.0)

    def test_rank_is_bijection(self):
        b = Basis(5, 1.0)
        assert sorted(zip(b.m, b.n)) == [(m, n) for m in range(1, 6) for n in range(1, 6)]


class TestNorms:
    def test_parseval_two_modes(self):
        b = Basis(2, 1.0)
        omega_sq, _ = recorded_norms(b, ref.modes(b, {(1, 1): 3.0, (2, 1): 4.0}))
        assert omega_sq == pytest.approx(25.0)

    def test_parseval_zero_field(self):
        assert recorded_norms(Basis(3, 1.0), np.zeros(9)) == (0.0, 0.0)

    def test_parseval_matches_quadrature(self):
        b = Basis(1, 1.0)
        x, w = ref.gauss_grid(64)
        integral = w @ ref.evaluate(b, [1.0], x)[0] ** 2 @ w
        omega_sq, _ = recorded_norms(b, [1.0])
        assert abs(omega_sq - integral) <= 1e-10 * integral

    def test_parseval_quadrature_random_fields(self, basis16, rng):
        x, w = ref.gauss_grid(96)
        for _ in range(5):
            a = rng.standard_normal(basis16.n_modes)
            integral = w @ ref.evaluate(basis16, a, x)[0] ** 2 @ w
            omega_sq, _ = recorded_norms(basis16, a)
            assert abs(omega_sq - integral) <= 1e-10 * omega_sq

    def test_gradient_norm_first_mode(self):
        # integral of |grad phi_11|^2 = 2 pi^2
        b = Basis(2, 1.0)
        _, grad_sq = recorded_norms(b, ref.modes(b, {(1, 1): 1.0}))
        assert grad_sq == pytest.approx(2.0 * np.pi**2, rel=1e-14)

    def test_gradient_norm_additivity(self):
        b = Basis(2, 1.0)
        _, grad_sq = recorded_norms(b, ref.modes(b, {(1, 1): 1.0, (2, 2): 1.0}))
        assert grad_sq == pytest.approx(10.0 * np.pi**2, rel=1e-14)

    def test_gradient_norm_zero(self):
        assert recorded_norms(Basis(4, 1.0), np.zeros(16))[1] == 0.0

    def test_gradient_norm_matches_quadrature(self, rng):
        b = Basis(4, 1.0)
        a = rng.standard_normal(16)
        x, w = ref.gauss_grid(64)
        _, fx, fy = ref.evaluate(b, a, x)
        integral = w @ (fx**2 + fy**2) @ w
        assert recorded_norms(b, a)[1] == pytest.approx(integral, rel=1e-10)


class TestLaplace:
    def test_eigenrelation(self):
        b = Basis(2, 1.0)
        psi = inverse_laplacian(stepper(b), ref.modes(b, {(1, 1): -2 * np.pi**2}))
        assert psi[0] == pytest.approx(1.0)

    def test_zero_maps_to_zero(self):
        assert np.all(inverse_laplacian(stepper(Basis(3, 1.0)), np.zeros(9)) == 0.0)

    def test_round_trip_identity(self, basis8, rng):
        a = rng.standard_normal(64)
        np.testing.assert_allclose(inverse_laplacian(stepper(basis8), a),
                                   ref.inverse_laplacian(basis8, a), rtol=1e-14)


class TestTransforms:
    def test_point_value_center(self):
        assert to_grid(Basis(1, 1.0), np.array([1.0]), 4)[1, 1] == pytest.approx(2.0)  # 2 sin^2(pi/2)

    def test_round_trip_random(self, rng):
        b = Basis(8, 1.0)
        a = rng.standard_normal(64)
        np.testing.assert_allclose(from_grid(b, to_grid(b, a, 16), 16), a, rtol=1e-12, atol=1e-14)

    def test_zero_grid_round_trip(self):
        b = Basis(4, 1.0)
        g = to_grid(b, np.zeros(16), 8)
        assert np.all(g == 0.0)
        assert np.all(from_grid(b, g, 8) == 0.0)

    def test_grid_matches_direct_evaluation(self, rng):
        b = Basis(6, 1.0)
        a = rng.standard_normal(36)
        x = b.grid_points(13)
        np.testing.assert_allclose(to_grid(b, a, 13), ref.evaluate(b, a, x)[0], atol=1e-12)

    def test_scatter_into_out(self, rng):
        b = Basis(16, 1.0)
        a = rng.standard_normal((3, 256))
        out = np.empty((2, 3, 16, 16))[1]
        assert b.to_grid2d(a, out=out) is out
        assert out.tobytes() == b.to_grid2d(a).tobytes()
        # a strided out would be scattered into a copy: refused, not silently ignored
        with pytest.raises(ValueError, match="C-contiguous"):
            b.to_grid2d(a, out=np.empty((3, 16, 32))[..., ::2])

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 32), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_round_trip_any_truncation(self, M, seed, data):
        b = Basis(M, 1.0)
        P = data.draw(st.integers(M + 1, 4 * M), label="P")
        a = np.random.default_rng(seed).standard_normal(M * M)
        back = from_grid(b, to_grid(b, a, P), P)
        assert np.max(np.abs(back - a)) <= 1e-10 * np.max(np.abs(a))


class TestDerivatives:
    # M = 10 puts the drift grid at P = 16, which holds x = 1/4 and 1/2
    def test_value_first_mode(self):
        # 2 pi cos(pi/4) sin(pi/4) = pi
        b = Basis(10, 1.0)
        dx, _ = derivative_grids(stepper(b), ref.modes(b, {(1, 1): 1.0}))
        assert dx[3, 3] == pytest.approx(np.pi, rel=1e-12)

    def test_value_mode21_vanishes(self):
        # 4 pi cos(pi/2) sin(pi/2) = 0 at (1/4, 1/2)
        b = Basis(10, 1.0)
        dx, _ = derivative_grids(stepper(b), ref.modes(b, {(2, 1): 1.0}))
        assert dx[3, 7] == pytest.approx(0.0, abs=1e-12)

    def test_zero_field(self):
        b = Basis(4, 1.0)
        assert all(np.all(g == 0.0) for g in derivative_grids(stepper(b), np.zeros(16)))

    def test_matches_symbolic_oracle(self, rng):
        b = Basis(5, 1.0)
        a = rng.standard_normal(25)
        _, fx, fy = ref.evaluate(b, a, b.grid_points(dealias_resolution(5)))
        dx, dy = derivative_grids(stepper(b), a)
        np.testing.assert_allclose(dx, fx, atol=1e-11)
        np.testing.assert_allclose(dy, fy, atol=1e-11)

    def test_grid_at_dealias_resolution(self):
        assert dealias_resolution(8) == 13  # ceil(3 * 8 / 2) + 1
        b = Basis(8, 1.0)
        dx, dy = derivative_grids(stepper(b), np.ones(64))
        assert dx.shape == dy.shape == (12, 12)
        np.testing.assert_allclose(b.grid_points(13), np.arange(1, 13) / 13)


class TestXDerivativeProjection:
    def test_matches_quadrature_oracle(self):
        b = Basis(4, 1.0)
        phi11 = ref.modes(b, {(1, 1): 1.0})
        x, w = ref.gauss_grid(64)
        want = ref.project(b, ref.evaluate(b, phi11, x)[1], x, w)
        np.testing.assert_allclose(x_derivative(b, phi11), want, atol=1e-12)

    def test_parity_values(self):
        # frozen from the parity formula 4 m m' / (m'^2 - m^2), m + m' odd
        b = Basis(4, 1.0)
        proj = x_derivative(b, ref.modes(b, {(1, 1): 1.0}))
        expected = {(2, 1): 8.0 / 3.0, (4, 1): 16.0 / 15.0}
        for k in range(b.n_modes):
            want = expected.get((int(b.m[k]), int(b.n[k])), 0.0)
            assert proj[k] == pytest.approx(want, abs=1e-12)


class TestJacobian:
    def test_self_jacobian_vanishes(self, basis16, rng):
        f = rng.standard_normal(256)
        assert np.max(np.abs(ref.jacobian(basis16, f, f))) <= 1e-12
        # the drift of a field in one eigenspace, where psi is a multiple of omega
        shell = (basis16.m**2 + basis16.n**2) == 65  # (1, 8), (4, 7), (7, 4), (8, 1)
        omega = np.where(shell, rng.standard_normal(256), 0.0)
        assert np.max(np.abs(stepper(basis16).drift_flat(omega[None])[0])) <= 1e-12

    def test_grid_value_oracle(self):
        # J(phi_11, phi_12) at (1/4, 1/4) is -pi^2 sqrt(2); on the drift grid of M = 10
        b = Basis(10, 1.0)
        step = stepper(b)
        px, py = derivative_grids(step, ref.modes(b, {(1, 1): 1.0}))
        ox, oy = derivative_grids(step, ref.modes(b, {(1, 2): 1.0}))
        assert (px * oy - py * ox)[3, 3] == pytest.approx(-np.pi**2 * np.sqrt(2.0), rel=1e-12)

    def test_zero_stream_function(self, basis8, rng):
        assert np.all(ref.jacobian(basis8, np.zeros(64), rng.standard_normal(64)) == 0.0)

    def test_antisymmetry(self, basis16, rng):
        f, g = rng.standard_normal((2, 256))
        fg, gf = ref.jacobian(basis16, f, g), ref.jacobian(basis16, g, f)
        np.testing.assert_allclose(fg, -gf, atol=1e-12 * max(1.0, np.max(np.abs(fg))))

    def test_orthogonality_identities(self, basis16, rng):
        # general (psi, omega) pairs, which the drift never sees, on the reference
        for _ in range(20):
            psi, omega = rng.standard_normal((2, 256))
            j = ref.jacobian(basis16, psi, omega)
            scale = np.sqrt(np.sum(basis16.sq_wavenumbers * psi**2)
                            * np.sum(basis16.sq_wavenumbers * omega**2))
            assert abs(np.dot(j, omega)) <= 1e-8 * scale * np.linalg.norm(omega)
            assert abs(np.dot(j, psi)) <= 1e-8 * scale * np.linalg.norm(psi)

    def test_projection_matches_continuous_oracle(self, rng):
        # the dealiased drift equals the continuous Galerkin coefficients
        for M in (4, 11, 16):
            b = Basis(M, 1.0)
            omega = rng.standard_normal((3, M * M))
            got = stepper(b).drift_flat(omega)
            for i in range(3):
                np.testing.assert_allclose(got[i], ref.drift(b, omega[i]), rtol=1e-10, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_drift_pairings_vanish(self, M, seed):
        b = Basis(M, 1.0)
        omega = np.random.default_rng(seed).standard_normal((4, M * M))
        d = stepper(b).drift_flat(omega)
        psi = ref.inverse_laplacian(b, omega)
        # normalised as in criterion 2: by ||grad psi|| ||grad omega|| times ||omega|| or ||psi||
        scale = np.sqrt(np.sum(b.sq_wavenumbers * psi**2, axis=1)
                        * np.sum(b.sq_wavenumbers * omega**2, axis=1))
        assert np.all(np.abs(np.sum(d * omega, axis=1)) <= 1e-12 * scale * np.linalg.norm(omega, axis=1))
        assert np.all(np.abs(np.sum(d * psi, axis=1)) <= 1e-12 * scale * np.linalg.norm(psi, axis=1))


class TestEigenfunctionBounds:
    def test_sup_and_gradient_bounds_m32(self):
        # |phi_k| <= 2 and |grad phi_k| <= 2 sqrt(|lambda_k| / nu) on the grid
        b = Basis(32, 1.0)
        x = b.grid_points(4 * 32)
        sin_max = np.max(np.abs(np.sin(np.outer(np.arange(1, 33) * np.pi, x))), axis=1)
        cos_max = np.max(np.abs(np.cos(np.outer(np.arange(1, 33) * np.pi, x))), axis=1)
        sup_phi = 2.0 * sin_max[b.m - 1] * sin_max[b.n - 1]
        assert np.all(sup_phi <= 2.0 + 1e-9)
        # gradient bound from the componentwise maxima
        gx = 2.0 * b.m * np.pi * cos_max[b.m - 1] * sin_max[b.n - 1]
        gy = 2.0 * b.n * np.pi * sin_max[b.m - 1] * cos_max[b.n - 1]
        grad_max = np.sqrt(gx**2 + gy**2)
        assert np.all(grad_max <= 2.0 * np.sqrt(-b.eigenvalues / b.nu) + 1e-6)
