"""Orthonormal sine basis on the unit square and its spectral calculus.

The basis functions are phi_mn(x, y) = 2 sin(m pi x) sin(n pi y) for
1 <= m, n <= M. They vanish on the boundary of (0, 1)^2, are orthonormal in
L^2, and diagonalize the viscous operator nu*Laplacian with eigenvalues
-nu (m^2 + n^2) pi^2. Modes carry a global rank k = 1..M^2 assigned by
sorting on m^2 + n^2 with lexicographic (m, n) tie-break; every coefficient
vector, eigenvalue array and noise amplitude in this package is indexed by
that rank.

Physical-space evaluation uses the interior collocation points x_i = i/P,
i = 1..P-1. Transforms are implemented as dense sine/cosine matrix products,
which at the truncation orders used here (M <= 64) are exact, cheap and
batch naturally over ensemble members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dealias_resolution(M: int) -> int:
    """Smallest grid resolution at which quadratic products are alias-free.

    Products of two degree-M sine polynomials contain sine content up to
    degree 2M per axis; projecting them from P-1 interior points back onto
    modes 1..M is exact once 2P - M > 2M, i.e. P >= ceil(3M/2) + 1.
    """
    return -(-3 * M // 2) + 1


class ParameterError(ValueError):
    """A model parameter is out of range; `field` names the argument it came in."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


class Basis:
    """Truncated, rank-ordered sine basis with viscous eigenvalues.

    Attributes:
        M: truncation order per axis (M^2 modes in total).
        nu: viscosity, > 0.
        m, n: integer wavenumber arrays in rank order, shape (M^2,).
        sq_wavenumbers: (m^2 + n^2) pi^2 per rank (eigenvalues of -Laplacian).
        eigenvalues: lambda_k = -nu (m^2 + n^2) pi^2 per rank, non-increasing.
    """

    def __init__(self, M: int, nu: float):
        if M < 1:
            raise ParameterError("M", f"must be >= 1, got {M}")
        if nu <= 0:
            raise ParameterError("nu", f"must be > 0, got {nu}")
        self.M = int(M)
        self.nu = float(nu)

        grid = np.arange(1, M + 1)
        mm, nn = np.meshgrid(grid, grid, indexing="ij")
        mm, nn = mm.ravel(), nn.ravel()
        ssq = mm**2 + nn**2
        order = np.lexsort((nn, mm, ssq))
        self.m = mm[order]
        self.n = nn[order]
        self.sq_wavenumbers = (ssq[order] * np.pi**2).astype(float)
        self.eigenvalues = -self.nu * self.sq_wavenumbers
        self.n_modes = M * M

        # rank <-> 2D (m-1, n-1) layout used by the grid transforms
        flat = (self.m - 1) * M + (self.n - 1)
        self._gather_idx = flat
        self._scatter_idx = np.empty(self.n_modes, dtype=np.intp)
        self._scatter_idx[flat] = np.arange(self.n_modes)

        self._trig_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, Basis) and other.M == self.M and other.nu == self.nu

    def __hash__(self):
        return hash((self.M, self.nu))

    def __repr__(self) -> str:
        return f"Basis(M={self.M}, nu={self.nu})"

    def rank_of(self, m: int, n: int) -> int:
        """1-based global rank of mode (m, n)."""
        hits = np.flatnonzero((self.m == m) & (self.n == n))
        if hits.size == 0:
            raise KeyError(f"mode ({m}, {n}) outside truncation M={self.M}")
        return int(hits[0]) + 1

    def grid_points(self, P: int) -> np.ndarray:
        """Interior collocation points i/P, i = 1..P-1."""
        return np.arange(1, P) / P

    def trig_matrices(self, P: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached sine samples and their derivatives, both of shape (M, P-1).

        sin_mat[m-1, i] = sin(m pi x_i) and dsin_mat[m-1, i] = m pi cos(m pi x_i)
        at the interior points x_i of resolution P.
        """
        cached = self._trig_cache.get(P)
        if cached is None:
            wave = np.arange(1, self.M + 1) * np.pi
            phase = np.outer(wave, self.grid_points(P))
            cached = (np.sin(phase), wave[:, None] * np.cos(phase))
            self._trig_cache[P] = cached
        return cached

    def to_grid2d(self, coeffs: np.ndarray) -> np.ndarray:
        """Scatter rank-ordered coefficients into the (..., M, M) layout."""
        shaped = np.take(coeffs, self._scatter_idx, axis=-1)
        return shaped.reshape(coeffs.shape[:-1] + (self.M, self.M))

    def from_grid2d(self, coeffs2d: np.ndarray) -> np.ndarray:
        """Gather an (..., M, M) coefficient array back into rank order."""
        flat = coeffs2d.reshape(coeffs2d.shape[:-2] + (self.n_modes,))
        return np.take(flat, self._gather_idx, axis=-1)

    def x_derivative_matrix(self) -> np.ndarray:
        """Exact L^2 projection of d/dx onto the truncated sine basis.

        Acting on the (M, M) coefficient layout from the left:
        (d_x f)_{m'n} = sum_m D[m'-1, m-1] f_{mn} with
        D[m'-1, m-1] = 4 m m' / (m'^2 - m^2) when m + m' is odd, else 0.
        The odd-parity coupling is the full Galerkin projection of the
        cosine series, so no grid and hence no aliasing is involved.
        """
        if not hasattr(self, "_dx_matrix"):
            idx = np.arange(1, self.M + 1, dtype=float)
            mp, m = np.meshgrid(idx, idx, indexing="ij")
            with np.errstate(divide="ignore", invalid="ignore"):
                D = 4.0 * m * mp / (mp**2 - m**2)
            D[((m + mp) % 2) == 0] = 0.0
            self._dx_matrix = D
        return self._dx_matrix


@dataclass
class SpectralField:
    """Vorticity-like field as rank-ordered coefficients over a Basis."""

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.n_modes,):
            raise ValueError(
                f"expected {self.basis.n_modes} coefficients, got shape {self.coeffs.shape}"
            )


@dataclass
class GridField:
    """Point values at the interior collocation grid of resolution P."""

    resolution: int
    values: np.ndarray

    def __post_init__(self):
        P = self.resolution
        if self.values.shape != (P - 1, P - 1):
            raise ValueError(
                f"expected ({P - 1}, {P - 1}) values for resolution {P}, got {self.values.shape}"
            )


def build_basis(M: int, nu: float) -> Basis:
    """Construct the rank-ordered sine basis for truncation M and viscosity nu."""
    return Basis(M, nu)


def zero_field(basis: Basis) -> SpectralField:
    return SpectralField(basis, np.zeros(basis.n_modes))


def field_from_modes(basis: Basis, entries: dict[tuple[int, int], float]) -> SpectralField:
    """Build a field from a sparse {(m, n): coefficient} description."""
    coeffs = np.zeros(basis.n_modes)
    for (m, n), value in entries.items():
        coeffs[basis.rank_of(m, n) - 1] = value
    return SpectralField(basis, coeffs)


def parseval_norm(f: SpectralField) -> float:
    """L^2 norm, sqrt(sum a_k^2) by orthonormality."""
    return float(np.sqrt(np.sum(f.coeffs**2)))


def gradient_norm(f: SpectralField) -> float:
    """H^1 seminorm ||grad f||, using ||grad phi_mn||^2 = (m^2+n^2) pi^2."""
    return float(np.sqrt(np.sum(f.basis.sq_wavenumbers * f.coeffs**2)))


def laplacian(f: SpectralField) -> SpectralField:
    """Apply the Laplacian: multiply each mode by -(m^2+n^2) pi^2."""
    return SpectralField(f.basis, -f.basis.sq_wavenumbers * f.coeffs)


def laplace_invert(omega: SpectralField) -> SpectralField:
    """Stream function psi with Delta psi = omega (and psi = 0 on the boundary)."""
    return SpectralField(omega.basis, omega.coeffs / (-omega.basis.sq_wavenumbers))


def to_grid(f: SpectralField, P: int) -> GridField:
    """Evaluate sum a_k phi_k at the interior collocation points of resolution P."""
    basis = f.basis
    if P < basis.M + 1:
        raise ValueError(f"resolution P={P} too small, need P >= M+1 = {basis.M + 1}")
    sin_mat, _ = basis.trig_matrices(P)
    A = basis.to_grid2d(2.0 * f.coeffs)
    return GridField(P, sin_mat.T @ A @ sin_mat)


def from_grid(g: GridField, basis: Basis) -> SpectralField:
    """Project grid values onto modes 1..M of the basis.

    Exact for sine content of degree <= P-1 in each direction; content beyond
    2P - M would alias onto the retained modes, which the dealias rule of
    `jacobian` rules out by construction.
    """
    P = g.resolution
    if P < basis.M + 1:
        raise ValueError(f"resolution P={P} too small, need P >= M+1 = {basis.M + 1}")
    sin_mat, _ = basis.trig_matrices(P)
    coeffs2d = (2.0 / P**2) * (sin_mat @ g.values @ sin_mat.T)
    return SpectralField(basis, basis.from_grid2d(coeffs2d))


def _derivative_grids(f: SpectralField, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(f_x, f_y) point values in the mixed cosine-sine representation."""
    basis = f.basis
    sin_mat, dsin_mat = basis.trig_matrices(P)
    A = basis.to_grid2d(2.0 * f.coeffs)
    return dsin_mat.T @ A @ sin_mat, sin_mat.T @ A @ dsin_mat


def _check_dealias(M: int, P: int):
    need = dealias_resolution(M)
    if P < need:
        raise ValueError(f"resolution P={P} below dealias requirement {need} for M={M}")


def derivative_x(f: SpectralField, P: int) -> GridField:
    """d/dx of the field, evaluated on the dealias-sized grid."""
    _check_dealias(f.basis.M, P)
    fx, _ = _derivative_grids(f, P)
    return GridField(P, fx)


def derivative_y(f: SpectralField, P: int) -> GridField:
    """d/dy of the field, evaluated on the dealias-sized grid."""
    _check_dealias(f.basis.M, P)
    _, fy = _derivative_grids(f, P)
    return GridField(P, fy)


def jacobian_grid(psi: SpectralField, omega: SpectralField, P: int) -> GridField:
    """Pointwise J(psi, omega) = psi_x omega_y - psi_y omega_x on the grid."""
    if psi.basis != omega.basis:
        raise ValueError("jacobian arguments must share one basis")
    _check_dealias(psi.basis.M, P)
    px, py = _derivative_grids(psi, P)
    ox, oy = _derivative_grids(omega, P)
    return GridField(P, px * oy - py * ox)


def jacobian(psi: SpectralField, omega: SpectralField, P: int | None = None) -> SpectralField:
    """Galerkin-truncated advection term J(psi, omega) on modes 1..M.

    The product is formed pointwise on a grid of resolution
    P >= ceil(3M/2) + 1 and projected back; at that resolution the projection
    of the quadratic product carries no aliasing error, so the discrete
    analogues of <J(psi,omega), omega> = <J(psi,omega), psi> = 0 hold to
    roundoff.
    """
    if P is None:
        P = dealias_resolution(psi.basis.M)
    return from_grid(jacobian_grid(psi, omega, P), psi.basis)


def x_derivative_projected(f: SpectralField) -> SpectralField:
    """Exact projection of d/dx f onto the truncated sine basis."""
    basis = f.basis
    A = basis.to_grid2d(f.coeffs)
    return SpectralField(basis, basis.from_grid2d(basis.x_derivative_matrix() @ A))


def grid_max_norm(f: SpectralField, P: int) -> float:
    """Sup-norm surrogate: max |f| over an oversampled collocation grid."""
    if P < 4 * f.basis.M:
        raise ValueError(f"resolution P={P} too coarse for max norm, need P >= 4M = {4 * f.basis.M}")
    return float(np.max(np.abs(to_grid(f, P).values)))
