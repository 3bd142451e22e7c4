"""Truncated Mercer spectrum on [0, 1] with a sine eigenbasis.

The kernel is never materialized; everything works on its spectral side:
eigenvalues lambda_0 = 1 and lambda_j = exp(-c * j**alpha) for j >= 1,
eigenfunctions e_0 = 1 and e_j(x) = sqrt(2) * sin(pi * j * x).  Mode 0 is a
bookkeeping slot only: coefficient vectors carry it pinned to zero and every
norm, isometry and truncation statement here quantifies over modes j >= 1.

Densities are represented as probability mass functions on a fixed evaluation
grid, obtained by clamping the truncated expansion at a small floor and
renormalizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def midpoint_grid(T: int) -> np.ndarray:
    """Grid x_t = (t - 1/2) / T for t = 1..T.

    On this grid the sine modes 1 <= j <= T - 1 are exactly discretely
    orthonormal under the (1/T)-weighted inner product, which is what makes
    the orthonormality checks tight instead of O(1/T)-approximate.
    """
    if T < 1:
        raise ValueError(f"grid size must be >= 1, got {T}")
    return (np.arange(1, T + 1) - 0.5) / T


@dataclass(frozen=True)
class MercerSpectrum:
    """Eigenvalue sequence and sine basis restricted to M modes.

    Parameters
    ----------
    alpha : decay exponent, lambda_j = exp(-c * j**alpha) for j >= 1.
    M : number of retained modes (indices 0..M-1).
    domain_grid : strictly increasing evaluation points in [0, 1], length >= M.
    c : decay rate constant, default 1.
    """

    alpha: float
    M: int
    domain_grid: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        grid = np.asarray(self.domain_grid, dtype=np.float64)
        if grid.ndim != 1:
            raise ValueError("domain_grid must be one-dimensional")
        if grid.size < self.M:
            raise ValueError(
                f"grid length {grid.size} shorter than mode count M={self.M}"
            )
        if np.any(grid < 0.0) or np.any(grid > 1.0):
            raise ValueError("domain_grid must lie in [0, 1]")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("domain_grid must be strictly increasing")
        grid.flags.writeable = False
        object.__setattr__(self, "domain_grid", grid)

    @classmethod
    def on_midpoint_grid(cls, alpha: float, M: int, T: int, c: float = 1.0
                         ) -> "MercerSpectrum":
        return cls(alpha=alpha, M=M, domain_grid=midpoint_grid(T), c=c)

    @property
    def T(self) -> int:
        return self.domain_grid.size

    def eigenvalue(self, j: int) -> float:
        """lambda_j = exp(-c * j**alpha); lambda_0 = 1 by convention."""
        if not 0 <= j < self.M:
            raise IndexError(f"mode index {j} out of range [0, {self.M})")
        return float(self.eigenvalues()[j])

    def eigenvalues(self) -> np.ndarray:
        """All M eigenvalues as a vector, lambda_0 first; built once, read-only."""
        lam = self.__dict__.get("_eigenvalues")
        if lam is None:
            j = np.arange(self.M, dtype=np.float64)
            lam = np.exp(-self.c * j ** self.alpha)
            lam[0] = 1.0
            lam.flags.writeable = False
            object.__setattr__(self, "_eigenvalues", lam)
        return lam

    def basis_eval(self, j: int, x):
        """e_j(x): 1 for j = 0, else sqrt(2) * sin(pi * j * x).

        Accepts a scalar or an array; x must lie in [0, 1].
        """
        if not 0 <= j < self.M:
            raise IndexError(f"mode index {j} out of range [0, {self.M})")
        xa = np.asarray(x, dtype=np.float64)
        if np.any(xa < 0.0) or np.any(xa > 1.0):
            raise ValueError("basis argument outside [0, 1]")
        if j == 0:
            out = np.ones_like(xa)
        else:
            out = np.sqrt(2.0) * np.sin(np.pi * j * xa)
        return float(out) if xa.ndim == 0 else out

    def basis_matrix(self) -> np.ndarray:
        """(M, T) matrix with row j = e_j on the grid; built once, read-only."""
        B = self.__dict__.get("_basis")
        if B is None:
            B = np.stack([self.basis_eval(j, self.domain_grid)
                          for j in range(self.M)])
            B.flags.writeable = False
            object.__setattr__(self, "_basis", B)
        return B


def synth_density(spec: MercerSpectrum, z, clamp_eps: float = 1e-6
                  ) -> np.ndarray:
    """Probability mass function of the clamped truncated expansion.

    Evaluates mu~(x_t) = sum_j lambda_j * z_j * e_j(x_t) on the grid, floors
    it at clamp_eps and normalizes.  z has shape (..., M) with z[..., 0] = 0
    and the result shape (..., T), one pmf per row; the all-clamped case is
    legal and yields the uniform pmf.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] != spec.M:
        raise ValueError(f"coefficients must have shape (..., {spec.M}), got {z.shape}")
    if np.any(z[..., 0] != 0.0):
        raise ValueError("mode-0 coefficient must be zero")
    if not clamp_eps > 0:
        raise ValueError(f"clamp_eps must be positive, got {clamp_eps}")
    # (..., 1, M) @ (M, T) runs one vector-matrix product per row, so each
    # row is bitwise the 1-d result (a 2-d GEMM sums in another order)
    vals = ((spec.eigenvalues() * z)[..., None, :] @ spec.basis_matrix())[..., 0, :]
    clamped = np.maximum(vals, clamp_eps)
    return clamped / clamped.sum(axis=-1, keepdims=True)


def _powers(lam: np.ndarray, e, rows: tuple) -> np.ndarray:
    """lam ** e_i for each exponent of e broadcast to rows: (*rows, lam.size).

    numpy raises by a scalar 0.5, 2 or -1 as sqrt, square or reciprocal, and
    by an array of exponents elementwise, which can differ in the last bit;
    so each distinct exponent is applied as a scalar, as one vector's is.
    """
    uniq, inv = np.unique(np.broadcast_to(e, rows), return_inverse=True)
    return np.array([lam ** u for u in uniq]).reshape(-1, lam.size)[inv.reshape(rows)]


def gen_norm_sq(spec: MercerSpectrum, b, a):
    """Squared generalized norm sum_{j>=1} lambda_j**(-a) * b_j**2.

    a = 0 is plain L2 on the coefficients, a = 1 the RKHS norm, a = -1 the
    MMD norm.  Mode 0 never contributes.  Rows b (..., M) take a broadcast
    over them; each row is bitwise its one-vector call, which gives a float.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 1 or b.shape[-1] != spec.M:
        raise ValueError(f"coefficients must have shape (..., {spec.M}), got {b.shape}")
    factors = _powers(spec.eigenvalues()[1:], -np.asarray(a) / 2.0, b.shape[:-1])
    # sum of squared factors rather than lam**(-a) * b**2: same value, but
    # the intermediate stays in float64 range when b_j itself carries a
    # large power of lambda (as after isometry_map with steep spectra)
    out = np.sum((factors * b[..., 1:]) ** 2, axis=-1)
    return float(out) if out.ndim == 0 else out


def isometry_map(spec: MercerSpectrum, b, b_norm, c_norm) -> np.ndarray:
    """Coefficient map b_j -> lambda_j**((c_norm - b_norm)/2) * b_j.

    Carries the b_norm-generalized norm isometrically onto the c_norm one:
    gen_norm_sq(output, c_norm) == gen_norm_sq(input, b_norm) exactly in
    arithmetic.  Rows b (..., M) take b_norm and c_norm broadcast over them;
    each row is bitwise its one-vector call.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 1 or b.shape[-1] != spec.M:
        raise ValueError(f"coefficients must have shape (..., {spec.M}), got {b.shape}")
    e = (np.asarray(c_norm) - b_norm) / 2.0
    return _powers(spec.eigenvalues(), e, b.shape[:-1]) * b


def truncation_bound(spec: MercerSpectrum, D: int, gamma_f: float,
                     gamma_b: float) -> float:
    """Worst-case gamma_f-norm of the discarded tail past mode D.

    For any coefficients with gen_norm_sq(., gamma_b) <= 1, the tail satisfies
    sqrt(sum_{j>D} lambda_j**(-gamma_f) b_j**2) <= lambda_{D+1}**((-gamma_f+gamma_b)/2).
    Requires gamma_f < 0 < gamma_b, which makes the exponent positive, and
    D + 1 < M so the leading discarded eigenvalue exists.
    """
    if not gamma_f < 0:
        raise ValueError(f"gamma_f must be negative, got {gamma_f}")
    if not gamma_b > 0:
        raise ValueError(f"gamma_b must be positive, got {gamma_b}")
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    lam_next = spec.eigenvalue(D + 1)
    return float(lam_next ** ((-gamma_f + gamma_b) / 2.0))
