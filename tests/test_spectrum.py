"""Spectrum layer: midpoint grid, eigenvalue decay, discrete orthonormality,
density synthesis, generalized norms, coefficient isometries and the
truncation tail bound.

Reference values are frozen from scalar-loop oracles written out inside the
tests, so a regression in the vectorized code cannot hide behind itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_attn import (
    MercerSpectrum,
    gen_norm_sq,
    isometry_map,
    midpoint_grid,
    synth_density,
    truncation_bound,
)


def make_spec(alpha=1.0, M=16, T=32):
    return MercerSpectrum(alpha=alpha, M=M, T=T)


# ----------------------------------------------------------------- grid

def test_midpoint_grid_explicit_values():
    np.testing.assert_array_equal(midpoint_grid(4),
                                  [0.125, 0.375, 0.625, 0.875])


def test_midpoint_grid_interior_and_even_spacing():
    g = midpoint_grid(97)
    assert g.shape == (97,)
    assert np.all(g > 0.0) and np.all(g < 1.0)
    np.testing.assert_allclose(np.diff(g), 1.0 / 97, rtol=1e-12)


def test_midpoint_grid_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        midpoint_grid(0)
    with pytest.raises(ValueError, match="^T must be an integer >= 1"):
        midpoint_grid(4.5)   # would build 5 points ending at x = 1


# ----------------------------------------------------------- eigenvalues

def test_eigenvalue_head_values():
    lam = make_spec(alpha=1.0).eigenvalues()
    assert lam[0] == 1.0
    assert lam[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert lam[2] == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert make_spec(alpha=2.0).eigenvalues()[3] == pytest.approx(
        math.exp(-9.0), rel=1e-15)


def test_eigenvalues_vector_matches_scalar_loop():
    for alpha in (0.5, 1.0, 2.0):
        spec = make_spec(alpha=alpha)
        loop = [1.0] + [math.exp(-float(j) ** alpha)
                        for j in range(1, spec.M)]
        np.testing.assert_allclose(spec.eigenvalues(), loop, rtol=1e-15)
        assert np.all(np.diff(spec.eigenvalues()) < 0.0)


# ----------------------------------------------------------------- basis

def test_basis_eval_known_points():
    spec = make_spec()
    assert spec.basis_eval(0, 0.3) == 1.0
    val = spec.basis_eval(1, 0.5)
    assert isinstance(val, float)
    assert val == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # sin(pi * 2 * 0.25) = 1, sin(pi * 2 * 0.75) = -1
    np.testing.assert_allclose(spec.basis_eval(2, np.array([0.25, 0.75])),
                               [math.sqrt(2.0), -math.sqrt(2.0)], rtol=1e-14)


def test_basis_eval_rejects_bad_arguments():
    spec = make_spec()
    with pytest.raises(ValueError):
        spec.basis_eval(1, 1.5)
    with pytest.raises(ValueError):
        spec.basis_eval(1, -0.1)
    with pytest.raises(IndexError):
        spec.basis_eval(spec.M, 0.5)


def test_basis_eval_takes_an_integer_mode_index():
    spec = make_spec()
    # 1.5 read as a mode gave sqrt(2) sin(1.5 pi x), and True gave e_1
    for j in (1.5, 1.0, np.float64(2.0), True, False, "1", None):
        with pytest.raises(ValueError, match="mode index must be an integer"):
            spec.basis_eval(j, 0.3)
    for j in (np.int64(1), np.int32(2), np.uint8(0)):
        assert spec.basis_eval(j, 0.3) == spec.basis_eval(int(j), 0.3)
    for j in (-1, spec.M, np.int64(spec.M)):
        with pytest.raises(IndexError):
            spec.basis_eval(j, 0.3)


def test_sine_block_exactly_orthonormal_on_midpoint_grid():
    # the midpoint grid makes modes 1..M-1 exactly orthonormal under the
    # (1/T)-weighted inner product, far below any float tolerance
    for M, T in ((16, 32), (8, 64), (5, 10)):
        spec = make_spec(M=M, T=T)
        B = spec.basis_matrix()
        gram = (B[1:] @ B[1:].T) / T
        assert np.max(np.abs(gram - np.eye(M - 1))) <= 1e-12


def test_basis_matrix_is_built_once_and_read_only():
    spec = make_spec(M=8, T=20)
    B = vars(spec)["_basis"]   # present right after construction
    assert spec.basis_matrix() is B and spec.basis_matrix() is B
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[1, 0] = 0.0
    np.testing.assert_array_equal(
        B, np.stack([spec.basis_eval(j, spec.domain_grid) for j in range(8)]))


def test_eigenvalues_are_built_once_and_read_only():
    spec = make_spec(M=8, T=20)
    lam = vars(spec)["_eigenvalues"]   # present right after construction
    assert spec.eigenvalues() is lam and spec.eigenvalues() is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[1] = 0.0
    j = np.arange(8, dtype=np.float64)
    np.testing.assert_array_equal(lam[1:], np.exp(-(j ** spec.alpha))[1:])
    assert lam[0] == 1.0


def test_constant_mode_unit_norm_but_not_orthogonal_to_odd_sines():
    spec = make_spec(M=16, T=32)
    B = spec.basis_matrix()
    assert (B[0] @ B[0]) / spec.T == pytest.approx(1.0, abs=1e-15)
    # the continuum inner product <e_0, e_1> is 2*sqrt(2)/pi, not 0; the grid
    # reproduces it to the midpoint-rule error, which is why every norm and
    # orthonormality statement quantifies over modes j >= 1 only
    mixed = (B[0] @ B[1]) / spec.T
    assert mixed == pytest.approx(0.9003163161571062, abs=2e-3)


# --------------------------------------------------------- synth_density

def test_synth_density_zero_coefficients_is_uniform():
    spec = make_spec()
    p = synth_density(spec, np.zeros(spec.M), 1e-6)
    np.testing.assert_allclose(p, np.full(spec.T, 1.0 / spec.T), atol=1e-15)


def test_synth_density_everywhere_clamped_is_uniform():
    spec = make_spec()
    z = np.zeros(spec.M)
    z[1] = -1.0  # -lambda_1 * sqrt(2) * sin(pi x) < 0 on the whole grid
    p = synth_density(spec, z, 1e-6)
    np.testing.assert_allclose(p, np.full(spec.T, 1.0 / spec.T), rtol=1e-14)


def test_synth_density_single_mode_scalar_loop():
    spec = make_spec(alpha=1.0, M=16, T=32)
    z = np.zeros(spec.M)
    z[1] = 1.0
    eps = 1e-6
    vals = [math.exp(-1.0) * math.sqrt(2.0) * math.sin(math.pi * x)
            for x in spec.domain_grid]
    clamped = [max(v, eps) for v in vals]
    oracle = np.array(clamped) / sum(clamped)
    np.testing.assert_allclose(synth_density(spec, z, eps), oracle, rtol=1e-12)


def test_synth_density_random_coefficients_scalar_loop():
    spec = make_spec()
    lam = spec.eigenvalues()
    rng = np.random.default_rng(42)
    for _ in range(5):
        z = rng.standard_normal(spec.M)
        z[0] = 0.0
        oracle = []
        for x in spec.domain_grid:
            v = sum(lam[j] * z[j] * math.sqrt(2.0) * math.sin(math.pi * j * x)
                    for j in range(1, spec.M))
            oracle.append(max(v, 1e-6))
        oracle = np.array(oracle)
        oracle /= oracle.sum()
        np.testing.assert_allclose(synth_density(spec, z, 1e-6), oracle,
                                   rtol=1e-11, atol=1e-15)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([1e-8, 1e-6, 1e-3, 1.0]))
@settings(max_examples=60, deadline=None)
def test_synth_density_is_strictly_positive_pmf(seed, eps):
    spec = make_spec()
    z = np.random.default_rng(seed).standard_normal(spec.M)
    z[0] = 0.0
    p = synth_density(spec, z, eps)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_synth_density_rows_match_single_calls(alpha):
    # stacked rows are bitwise the 1-d calls, and both are bitwise this 1-d
    # product: one vector-matrix product per row, not a GEMM or an einsum,
    # whose summation orders differ in the last digits
    spec = make_spec(alpha=alpha)

    def single(z):
        vals = np.maximum((spec.eigenvalues() * z) @ spec.basis_matrix(), 1e-6)
        return vals / vals.sum()

    z = np.random.default_rng(7).standard_normal((4, 3, spec.M))
    z[..., 0] = 0.0
    z[2, 1] = 0.0
    z[2, 1, 1] = -1.0  # clamped everywhere: the uniform pmf
    p = synth_density(spec, z, 1e-6)
    assert p.shape == (4, 3, spec.T)
    for idx in np.ndindex(4, 3):
        np.testing.assert_array_equal(p[idx], synth_density(spec, z[idx], 1e-6))
        np.testing.assert_array_equal(p[idx], single(z[idx]))
    np.testing.assert_allclose(p[2, 1], np.full(spec.T, 1.0 / spec.T), rtol=1e-14)
    z[3, 2, 0] = 0.5  # one row with a mode-0 coefficient rejects the stack
    with pytest.raises(ValueError, match="mode-0"):
        synth_density(spec, z, 1e-6)


def test_synth_density_rejects_bad_coefficients():
    spec = make_spec()
    z = np.zeros(spec.M)
    z[0] = 0.5
    with pytest.raises(ValueError):
        synth_density(spec, z, 1e-6)
    with pytest.raises(ValueError):
        synth_density(spec, np.zeros(spec.M - 1), 1e-6)
    with pytest.raises(ValueError):
        synth_density(spec, np.zeros(spec.M), clamp_eps=0.0)
    # True would floor every density at 1 and inf would give NaN pmfs
    for clamp_eps in (True, math.inf):
        with pytest.raises(ValueError, match="^clamp_eps must be positive and finite"):
            synth_density(spec, np.zeros(spec.M), clamp_eps)


# ----------------------------------------------------------- gen_norm_sq

def test_gen_norm_sq_zero_vector_and_plain_l2():
    spec = make_spec()
    assert gen_norm_sq(spec, np.zeros(spec.M), a=1.0) == 0.0
    b = np.random.default_rng(0).standard_normal(spec.M)
    assert gen_norm_sq(spec, b, a=0.0) == pytest.approx(
        float(np.sum(b[1:] ** 2)), rel=1e-14)


def test_gen_norm_sq_rkhs_norm_of_sqrt_eigenvalues_counts_modes():
    # b_j = lambda_j^{1/2} makes every mode j >= 1 contribute exactly 1
    spec = make_spec()
    b = np.sqrt(spec.eigenvalues())
    b[0] = 0.0
    assert gen_norm_sq(spec, b, a=1.0) == pytest.approx(spec.M - 1, rel=1e-12)


def test_gen_norm_sq_ignores_mode_zero():
    spec = make_spec()
    b = np.random.default_rng(3).standard_normal(spec.M)
    b2 = b.copy()
    b2[0] = 123.0
    assert gen_norm_sq(spec, b, 1.0) == gen_norm_sq(spec, b2, 1.0)


def test_gen_norm_sq_scalar_loop_oracle():
    rng = np.random.default_rng(9)
    for alpha in (0.5, 1.0):
        spec = make_spec(alpha=alpha)
        lam = spec.eigenvalues()
        for a in (-1.0, 0.0, 1.0, 2.0):
            b = rng.standard_normal(spec.M)
            oracle = sum(lam[j] ** (-a) * b[j] ** 2
                         for j in range(1, spec.M))
            assert gen_norm_sq(spec, b, a) == pytest.approx(oracle, rel=1e-12)


def test_gen_norm_sq_finite_on_steep_isometry_images():
    # coefficients carrying lambda^{-1} at alpha=2 would overflow float64 if
    # the norm were computed as lambda**(-a) * b**2 instead of as a sum of
    # squared factors
    spec = make_spec(alpha=2.0)
    b = np.random.default_rng(5).standard_normal(spec.M)
    b[0] = 0.0
    mapped = isometry_map(spec, b, b_norm=0.0, c_norm=2.0)
    val = gen_norm_sq(spec, mapped, a=2.0)
    assert math.isfinite(val)
    assert val == pytest.approx(gen_norm_sq(spec, b, 0.0), rel=1e-10)


def test_gen_norm_sq_rejects_wrong_length():
    spec = make_spec()
    with pytest.raises(ValueError):
        gen_norm_sq(spec, np.zeros(spec.M + 1), 0.0)


# ----------------------------------------------------------- isometry_map

def test_isometry_map_identity_when_norms_match():
    spec = make_spec()
    b = np.random.default_rng(1).standard_normal(spec.M)
    np.testing.assert_array_equal(isometry_map(spec, b, 0.7, 0.7), b)


def test_isometry_map_single_mode_frozen_value():
    # factor = lambda_1^{(0 - (-1))/2} = e^{-1/2}
    spec = make_spec(alpha=1.0)
    b = np.zeros(spec.M)
    b[1] = 1.0
    out = isometry_map(spec, b, b_norm=-1.0, c_norm=0.0)
    assert out[1] == pytest.approx(0.6065306597126334, rel=1e-15)
    assert np.all(out[2:] == 0.0) and out[0] == 0.0


def test_isometry_map_preserves_generalized_norm():
    rng = np.random.default_rng(2024)
    for alpha in (0.5, 1.0, 2.0):
        spec = make_spec(alpha=alpha)
        for _ in range(25):
            b = rng.standard_normal(spec.M)
            b[0] = 0.0
            b_norm, c_norm = rng.uniform(-2.0, 2.0, 2)
            mapped = isometry_map(spec, b, b_norm, c_norm)
            lhs = gen_norm_sq(spec, mapped, c_norm)
            rhs = gen_norm_sq(spec, b, b_norm)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_isometry_map_round_trip():
    spec = make_spec(alpha=1.0)
    b = np.random.default_rng(6).standard_normal(spec.M)
    b[0] = 0.0
    back = isometry_map(spec, isometry_map(spec, b, 1.0, -1.0), -1.0, 1.0)
    np.testing.assert_allclose(back, b, rtol=1e-12)


def test_stacked_rows_are_bitwise_one_vector_calls():
    # the per-row exponents include 0.5, 2 and -1, which numpy takes as
    # sqrt, square and reciprocal when they come as a scalar
    rng = np.random.default_rng(17)
    a = np.concatenate([[0.0, 1.0, -1.0, 2.0, -2.0, -4.0],
                        rng.uniform(-2.0, 2.0, 18)]).reshape(4, 6)
    b_norm = rng.choice([-1.0, 0.0, 1.0], (4, 6))
    c_norm = b_norm + 2.0 * np.concatenate(
        [[0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0], rng.uniform(-1.0, 1.0, 17)]
    ).reshape(4, 6)
    for alpha in (0.5, 1.0, 2.0):
        spec = make_spec(alpha=alpha)
        b = rng.standard_normal((4, 6, spec.M))
        b[..., 0] = 0.0
        norms, shared = gen_norm_sq(spec, b, a), gen_norm_sq(spec, b, 1.0)
        mapped = isometry_map(spec, b, b_norm, c_norm)
        assert norms.shape == shared.shape == (4, 6)
        for i, j in np.ndindex(4, 6):
            one = gen_norm_sq(spec, b[i, j], float(a[i, j]))
            assert isinstance(one, float) and norms[i, j] == one
            assert shared[i, j] == gen_norm_sq(spec, b[i, j], 1.0)
            np.testing.assert_array_equal(
                mapped[i, j],
                isometry_map(spec, b[i, j], float(b_norm[i, j]), float(c_norm[i, j])))


# ------------------------------------------------------- truncation_bound

def test_truncation_bound_frozen_value():
    # lambda_4^{(1 + 1)/2} = e^{-4} at alpha = 1, c = 1
    spec = make_spec(alpha=1.0)
    bound = truncation_bound(spec, D=3, gamma_f=-1.0, gamma_b=1.0)
    assert bound == pytest.approx(0.01831563888873418, rel=1e-15)


def test_truncation_bound_monotone_in_D():
    spec = make_spec(alpha=1.0)
    bounds = [truncation_bound(spec, D, -1.0, 1.0)
              for D in range(1, spec.M - 1)]
    assert np.all(np.diff(bounds) < 0.0)


def test_truncation_bound_dominates_random_ball_draws():
    rng = np.random.default_rng(7)
    gamma_f, gamma_b = -1.0, 1.0
    spec = make_spec(alpha=1.0)
    lam = spec.eigenvalues()
    D = 3
    bound = truncation_bound(spec, D, gamma_f, gamma_b)
    for _ in range(100):
        b = rng.standard_normal(spec.M)
        b[0] = 0.0
        b = b / math.sqrt(gen_norm_sq(spec, b, gamma_b)) * rng.uniform(0, 1)
        tail = math.sqrt(sum(lam[j] ** (-gamma_f) * b[j] ** 2
                             for j in range(D + 1, spec.M)))
        assert tail <= bound * (1.0 + 1e-12)


def test_truncation_bound_validates_arguments():
    spec = make_spec()
    with pytest.raises(ValueError):
        truncation_bound(spec, 3, gamma_f=0.5, gamma_b=1.0)
    with pytest.raises(ValueError):
        truncation_bound(spec, 3, gamma_f=-1.0, gamma_b=-1.0)
    with pytest.raises(ValueError):
        truncation_bound(spec, 0, gamma_f=-1.0, gamma_b=1.0)
    with pytest.raises(IndexError):
        truncation_bound(spec, spec.M - 1, gamma_f=-1.0, gamma_b=1.0)
    with pytest.raises(ValueError, match="^D must be an integer >= 1"):
        truncation_bound(spec, 2.5, gamma_f=-1.0, gamma_b=1.0)


# ------------------------------------------------------------- validation

def test_spectrum_constructor_validation():
    with pytest.raises(ValueError):
        MercerSpectrum(alpha=0.0, M=4, T=8)
    with pytest.raises(ValueError):
        MercerSpectrum(alpha=1.0, M=0, T=8)
    with pytest.raises(ValueError):
        MercerSpectrum(alpha=1.0, M=9, T=8)  # grid too short
    # alpha = inf would leave the degenerate lambda = 1, e^-1, 0, 0, ...
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            MercerSpectrum(alpha=alpha, M=4, T=8)
    for args, name in (((1.0, 4, 8.5), "T"),   # would build a 9-point grid
                       ((1.0, 16.0, 32), "M"),
                       ((True, 4, 8), "alpha"), ((1.0, True, 4), "M"),
                       (("1", 4, 8), "alpha")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            MercerSpectrum(*args)


def test_spectrum_equality_and_hash_go_by_its_three_values():
    a, b = MercerSpectrum(1.0, 16, 32), MercerSpectrum(1.0, 16, 32)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    np.testing.assert_array_equal(a.domain_grid, midpoint_grid(32))
    for other in (MercerSpectrum(2.0, 16, 32), MercerSpectrum(1.0, 8, 32),
                  MercerSpectrum(1.0, 16, 64)):
        assert a != other and len({a, other}) == 2
    numpy_sized = MercerSpectrum(1.0, np.int64(16), np.int32(32))
    assert numpy_sized == a and hash(numpy_sized) == hash(a)
    assert type(numpy_sized.M) is int and type(numpy_sized.T) is int


def test_spectrum_grid_is_immutable():
    spec = make_spec()
    with pytest.raises(ValueError):
        spec.domain_grid[0] = 0.5
