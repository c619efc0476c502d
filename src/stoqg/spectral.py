"""Orthonormal sine basis on the unit square and its grid transforms.

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
batch naturally over ensemble members. The dealiased drift built from them
is `dynamics._Stepper.drift_flat`.
"""

from __future__ import annotations

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

    def __repr__(self) -> str:
        return f"Basis(M={self.M}, nu={self.nu})"

    def grid_points(self, P: int) -> np.ndarray:
        """Interior collocation points i/P, i = 1..P-1."""
        return np.arange(1, P) / P

    def trig_matrices(self, P: int) -> tuple[np.ndarray, np.ndarray]:
        """Sine samples and their derivatives, both of shape (M, P-1).

        sin_mat[m-1, i] = sin(m pi x_i) and dsin_mat[m-1, i] = m pi cos(m pi x_i)
        at the interior points x_i of resolution P.
        """
        wave = np.arange(1, self.M + 1) * np.pi
        phase = np.outer(wave, self.grid_points(P))
        return np.sin(phase), wave[:, None] * np.cos(phase)

    def to_grid2d(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Scatter rank-ordered coefficients into the (..., M, M) layout, into out if given.

        out must be C-contiguous, so that its flat view is the array itself.
        """
        if out is None:
            out = np.empty(coeffs.shape[:-1] + (self.M, self.M), dtype=coeffs.dtype)
        elif not out.flags.c_contiguous:
            raise ValueError("to_grid2d needs a C-contiguous out")
        flat = out.reshape(coeffs.shape)  # a view of out, which is C-contiguous
        np.take(coeffs, self._scatter_idx, axis=-1, out=flat, mode="clip")  # see from_grid2d
        return out

    def from_grid2d(self, coeffs2d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gather an (..., M, M) coefficient array back into rank order, into out if given."""
        flat = coeffs2d.reshape(coeffs2d.shape[:-2] + (self.n_modes,))
        # the indices are a permutation, so "clip" never acts; unlike the default
        # "raise", it lets take write into out without a buffered copy
        return np.take(flat, self._gather_idx, axis=-1, out=out, mode="clip")

    def x_derivative_matrix(self) -> np.ndarray:
        """Exact L^2 projection of d/dx onto the truncated sine basis.

        Acting on the (M, M) coefficient layout from the left:
        (d_x f)_{m'n} = sum_m D[m'-1, m-1] f_{mn} with
        D[m'-1, m-1] = 4 m m' / (m'^2 - m^2) when m + m' is odd, else 0.
        The odd-parity coupling is the full Galerkin projection of the
        cosine series, so no grid and hence no aliasing is involved.
        """
        idx = np.arange(1, self.M + 1, dtype=float)
        mp, m = np.meshgrid(idx, idx, indexing="ij")
        with np.errstate(divide="ignore", invalid="ignore"):
            D = 4.0 * m * mp / (mp**2 - m**2)
        D[((m + mp) % 2) == 0] = 0.0
        return D

