"""Truncated Mercer spectrum on [0, 1] with a sine eigenbasis.

The kernel is never materialized; everything works on its spectral side:
eigenvalues lambda_0 = 1 and lambda_j = exp(-j**alpha) for j >= 1,
eigenfunctions e_0 = 1 and e_j(x) = sqrt(2) * sin(pi * j * x).  Mode 0 is a
bookkeeping slot only: coefficient vectors carry it pinned to zero and every
norm, isometry and truncation statement here quantifies over modes j >= 1.

Densities are represented as probability mass functions on the midpoint grid
of T points, obtained by clamping the truncated expansion at a small floor
and renormalizing.

The package checks every count, size and real setting with _integer (and
_length when it becomes an array length) and _real, and every seed with
_rng, kept here because this module imports nothing from the package.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


def _integer(name: str, value, low: int) -> int:
    """value as an int: any integer type but bool (True is 1), at least low."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _length(name: str, value) -> int:
    """_integer >= 1 that fits an array length (and a multinomial count): < 2**63."""
    if _integer(name, value, 1) > 2**63 - 1:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {value!r}")
    return int(value)


def _rng(seed) -> np.random.Generator:
    """A Generator from seed: a Generator (itself), a SeedSequence, or _integer >= 0."""
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        seed = _integer("seed", seed, 0)
    return np.random.default_rng(seed)


def _real(name: str, value, ok, rule: str):
    """value unchanged: any real type but bool (True is 1.0), where ok(value)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not ok(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _positive(x) -> bool:
    """The ok predicate of a real setting that must be positive and finite."""
    return 0 < x < np.inf


def midpoint_grid(T: int) -> np.ndarray:
    """Grid x_t = (t - 1/2) / T for t = 1..T.

    On this grid the sine modes 1 <= j <= T - 1 are exactly discretely
    orthonormal under the (1/T)-weighted inner product, which is what makes
    the orthonormality checks tight instead of O(1/T)-approximate.
    """
    T = _integer("T", T, 1)
    return (np.arange(1, T + 1) - 0.5) / T


@dataclass(frozen=True)
class MercerSpectrum:
    """Eigenvalue sequence and sine basis restricted to M modes.

    Parameters
    ----------
    alpha : decay exponent, lambda_j = exp(-j**alpha) for j >= 1.
    M : number of retained modes (indices 0..M-1).
    T : size of the evaluation grid, midpoint_grid(T); T >= M.

    A spectrum is its three values: the grid, the eigenvalues and the basis
    are built from them once, read-only, so equality and hashing go by
    (alpha, M, T).
    """

    alpha: float
    M: int
    T: int
    domain_grid: np.ndarray = field(init=False, compare=False, repr=False)
    _eigenvalues: np.ndarray = field(init=False, compare=False, repr=False)
    _basis: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _real("alpha", self.alpha, _positive, "positive and finite")
        object.__setattr__(self, "M", _integer("M", self.M, 1))
        object.__setattr__(self, "T", _integer("T", self.T, self.M))
        object.__setattr__(self, "domain_grid", midpoint_grid(self.T))
        lam = np.exp(-np.arange(self.M, dtype=np.float64) ** self.alpha)
        lam[0] = 1.0
        object.__setattr__(self, "_eigenvalues", lam)
        object.__setattr__(self, "_basis", np.stack(
            [self.basis_eval(j, self.domain_grid) for j in range(self.M)]))
        for name in ("domain_grid", "_eigenvalues", "_basis"):
            getattr(self, name).flags.writeable = False

    def eigenvalues(self) -> np.ndarray:
        """All M eigenvalues as a vector, lambda_0 = 1 first; read-only."""
        return self._eigenvalues

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
        """(M, T) matrix with row j = e_j on the grid; read-only."""
        return self._basis


def _coefficients(spec: MercerSpectrum, b) -> np.ndarray:
    """b as float64 rows of shape (..., M): the one coefficient-shape rule."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 1 or b.shape[-1] != spec.M:
        raise ValueError(f"coefficients must have shape (..., {spec.M}), got {b.shape}")
    return b


def synth_density(spec: MercerSpectrum, z, clamp_eps: float) -> np.ndarray:
    """Probability mass function of the clamped truncated expansion.

    Evaluates mu~(x_t) = sum_j lambda_j * z_j * e_j(x_t) on the grid, floors
    it at clamp_eps and normalizes.  z has shape (..., M) with z[..., 0] = 0
    and the result shape (..., T), one pmf per row; the all-clamped case is
    legal and yields the uniform pmf.
    """
    z = _coefficients(spec, z)
    if (z[..., 0] != 0.0).any():
        raise ValueError("mode-0 coefficient must be zero")
    _real("clamp_eps", clamp_eps, _positive, "positive and finite")
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
    b = _coefficients(spec, b)
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
    b = _coefficients(spec, b)
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
    _real("gamma_f", gamma_f, lambda x: x < 0, "negative")
    _real("gamma_b", gamma_b, lambda x: x > 0, "positive")
    D = _integer("D", D, 1)
    if D + 1 >= spec.M:
        raise IndexError(f"mode index {D + 1} out of range [0, {spec.M})")
    lam_next = float(spec.eigenvalues()[D + 1])
    return float(lam_next ** ((-gamma_f + gamma_b) / 2.0))
