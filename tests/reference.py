"""Dense reference calculus on the sine basis, for the tests only.

Fields are evaluated by direct sin/cos sums at Gauss-Legendre nodes and
projected back onto phi_mn = 2 sin(m pi x) sin(n pi y) by quadrature. No grid
transform, coefficient layout or dealias rule of the package is used: only
the rank order `basis.m`, `basis.n` is shared, to read and write coefficient
vectors. The quadrature is exact to roundoff for the products formed here.
"""

import numpy as np


def gauss_grid(n_nodes: int = 64):
    """Gauss-Legendre nodes/weights mapped onto (0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def modes(basis, entries):
    """Rank-ordered coefficients from a sparse {(m, n): value} description."""
    a = np.zeros(basis.n_modes)
    for (m, n), value in entries.items():
        a[np.flatnonzero((basis.m == m) & (basis.n == n))[0]] = value
    return a


def _sines(wave, x):
    """sin(wave x) and its x-derivative, each (K, len(x))."""
    phase = np.outer(wave, x)
    return np.sin(phase), wave[:, None] * np.cos(phase)


def evaluate(basis, coeffs, x):
    """f, f_x and f_y of sum_k a_k phi_k on the tensor grid x by x, each (len(x), len(x))."""
    sx, dx = _sines(basis.m * np.pi, x)
    sy, dy = _sines(basis.n * np.pi, x)
    a = 2.0 * np.asarray(coeffs, dtype=float)[:, None]
    return (a * sx).T @ sy, (a * dx).T @ sy, (a * sx).T @ dy


def project(basis, values, x, w):
    """Coefficients <g, phi_k> of grid values g at the nodes x with weights w."""
    sx, _ = _sines(basis.m * np.pi, x)
    sy, _ = _sines(basis.n * np.pi, x)
    return 2.0 * np.sum((sx @ (values * np.outer(w, w))) * sy, axis=1)


def quadrature(basis):
    """Nodes that integrate a quadratic product times phi_k exactly (degree 3M per axis)."""
    return gauss_grid(3 * basis.M + 16)


def grad_sq(basis, fields):
    """||grad f||^2 = sum_k pi^2 (m_k^2 + n_k^2) a_k^2 of coefficient vectors (..., K)."""
    fields = np.asarray(fields, dtype=float)
    return np.sum((basis.m**2 + basis.n**2) * np.pi**2 * fields**2, axis=-1)


def inverse_laplacian(basis, omega):
    """psi with Lap psi = omega, psi = 0 on the boundary."""
    return np.asarray(omega, dtype=float) / (-(basis.m**2 + basis.n**2) * np.pi**2)


def jacobian(basis, psi, omega):
    """Galerkin coefficients of J(psi, omega) = psi_x omega_y - psi_y omega_x."""
    x, w = quadrature(basis)
    _, px, py = evaluate(basis, psi, x)
    _, ox, oy = evaluate(basis, omega, x)
    return project(basis, px * oy - py * ox, x, w)


def drift(basis, omega, beta=0.0, advective=True):
    """Galerkin coefficients of -J(psi, omega) - beta psi_x with psi = Lap^-1 omega."""
    psi = inverse_laplacian(basis, omega)
    x, w = quadrature(basis)
    out = -beta * project(basis, evaluate(basis, psi, x)[1], x, w)
    if advective:
        out = out - jacobian(basis, psi, omega)
    return out
