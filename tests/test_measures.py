"""Discrete measures, tagged mixtures and the 1-D W1.

W1 values are checked against hand-computed quantile couplings and against
scipy.stats.wasserstein_distance as an independent second oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from measure_attn import (
    DiscreteMeasure,
    ExperimentConfig,
    MixtureContext,
    build_mixture,
    flatten,
    gen_example,
    synth_density,
    wasserstein1_1d,
)
from measure_attn.measures import _w1_line


def random_measure(rng, n, lo=-1.0, hi=1.0):
    return DiscreteMeasure(rng.uniform(lo, hi, n), rng.dirichlet(np.ones(n)))


# -------------------------------------------------------- DiscreteMeasure

def test_scalar_support_is_reshaped_to_column():
    mu = DiscreteMeasure(np.array([0.1, 0.7]), np.array([0.5, 0.5]))
    assert mu.support.shape == (2, 1)
    assert mu.n_points == 2 and mu.dim == 1


def test_dirac_and_uniform_constructors():
    d = DiscreteMeasure.dirac([1.0, 2.0])
    assert d.n_points == 1 and d.dim == 2
    np.testing.assert_array_equal(d.weights, [1.0])
    u = DiscreteMeasure.uniform_on(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(u.weights, np.full(3, 1.0 / 3.0))


def test_uniform_on_weighs_each_run_of_equal_rows_by_its_length():
    # runs are of bitwise-equal consecutive rows: 0.0 and -0.0 stay apart,
    # and a row that comes back after another starts a new run
    pts = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
    u = DiscreteMeasure.uniform_on(pts)
    assert u.support.tobytes() == pts[[0, 2, 3, 4]].tobytes()
    np.testing.assert_array_equal(u.weights, [0.4, 0.2, 0.2, 0.2])
    column = DiscreteMeasure.uniform_on(np.array([3.0, 3.0, 3.0, 1.0]))
    np.testing.assert_array_equal(column.support, [[3.0], [1.0]])
    np.testing.assert_array_equal(column.weights, [0.75, 0.25])


@pytest.mark.parametrize("shape", [(0, 2), (3, 0), (2, 2, 2), ()])
def test_support_must_be_rows_of_at_least_one_coordinate(shape):
    with pytest.raises(ValueError, match=r"support must be \(N, d\) with N, d >= 1"):
        DiscreteMeasure(np.zeros(shape), np.ones(shape[:1]) / max(shape[:1], default=1))
    with pytest.raises(ValueError, match=r"support must be \(N, d\) with N, d >= 1"):
        DiscreteMeasure.uniform_on(np.zeros(shape))


def test_weight_validation():
    pts = np.zeros((2, 1))
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([0.6, 0.6]))  # sums to 1.2
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([1.5, -0.5]))  # negative mass
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([1.0]))  # shape mismatch
    # nan < 0 and abs(nan - 1) > 1e-9 are both False, so each check is
    # written for a NaN to fail it
    for w in ([np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="^weights must be nonnegative, not NaN"):
            DiscreteMeasure(pts, np.array(w))


def test_support_must_be_finite():
    # a NaN row passed, and W1 then read its column as constant: 0.0 between
    # [[0.3], [nan]] and [[0.3], [0.3]]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^support must be finite"):
            DiscreteMeasure([[0.3], [bad]], [0.5, 0.5])
        with pytest.raises(ValueError, match="^support must be finite"):
            DiscreteMeasure.uniform_on([[0.3], [bad]])


def test_measure_arrays_are_immutable():
    mu = DiscreteMeasure.dirac(0.5)
    with pytest.raises(ValueError):
        mu.support[0, 0] = 0.9
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9


# ---------------------------------------------------- mixtures and tokens

def test_build_mixture_two_components_signed_tags():
    comps = [DiscreteMeasure.dirac(0.3), DiscreteMeasure.dirac(0.8)]
    ctx, query = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=0)
    assert ctx.n_components == 2
    np.testing.assert_array_equal(query, [1.0, 0.0])
    _, query2 = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=1)
    np.testing.assert_array_equal(query2, [-1.0, 0.0])


def test_build_mixture_single_component():
    ctx, query = build_mixture([DiscreteMeasure.dirac(0.5)],
                               np.array([[1.0]]), star_index=0)
    np.testing.assert_array_equal(query, [1.0, 0.0])


def test_mixture_tag_validation():
    comps = [DiscreteMeasure.dirac(0.3), DiscreteMeasure.dirac(0.8)]
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0], [2.0]]), 0)  # not unit
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0, 0.0], [0.6, 0.8]]), 0)  # dot 0.6
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0]]), 0)  # one tag, two components
    for tags in ([np.nan], [[np.nan, 0.0]]):
        with pytest.raises(ValueError, match="^tags must be unit vectors"):
            MixtureContext((comps[0],), tags, 0)
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0], [-1.0]]), 2)  # star out of range
    for star in (0.0, True):
        with pytest.raises(ValueError, match="^star_index must be an integer >= 0"):
            build_mixture(comps, np.array([[1.0], [-1.0]]), star)


def test_mixture_needs_a_component_and_takes_1d_tags_as_a_column():
    with pytest.raises(ValueError, match="^mixture needs at least one component"):
        MixtureContext((), np.zeros((0, 1)), 0)
    comps = (DiscreteMeasure.dirac(0.3), DiscreteMeasure.dirac(0.8))
    ctx = MixtureContext(comps, [1.0, -1.0], 1)
    assert ctx.tags.shape == (2, 1) and ctx.tag_dim == 1
    np.testing.assert_array_equal(ctx.tags, [[1.0], [-1.0]])


def test_mixture_context_rejects_mismatched_components():
    a = DiscreteMeasure.dirac(0.3)
    b = DiscreteMeasure.dirac([0.1, 0.2])
    with pytest.raises(ValueError):
        MixtureContext((a, b), np.array([[1.0], [-1.0]]), 0)


def test_flatten_total_weight_and_layout():
    rng = np.random.default_rng(4)
    comps = [random_measure(rng, 3, 0.0, 1.0), random_measure(rng, 2, 0.0, 1.0)]
    ctx = MixtureContext(tuple(comps), np.array([[1.0], [-1.0]]), 0)
    flat = flatten(ctx)
    assert flat.n_points == 5
    assert flat.weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(flat.support[:3, 0], np.ones(3))
    np.testing.assert_array_equal(flat.support[3:, 0], -np.ones(2))
    np.testing.assert_array_equal(flat.support[:3, 1], comps[0].support[:, 0])
    np.testing.assert_allclose(flat.weights[:3], 0.5 * comps[0].weights,
                               rtol=1e-15)
    np.testing.assert_allclose(flat.weights[3:], 0.5 * comps[1].weights,
                               rtol=1e-15)
    # one-hot vector tags: each component's tag row prepended, content kept
    comps = [random_measure(rng, n) for n in (1, 4, 2)]
    flat = flatten(MixtureContext(tuple(comps), np.eye(3), 2))
    assert flat.dim == 4
    np.testing.assert_array_equal(flat.support[:, :3], np.eye(3)[[0, 1, 1, 1, 1, 2, 2]])
    np.testing.assert_array_equal(flat.support[:, 3:],
                                  np.vstack([c.support for c in comps]))
    np.testing.assert_array_equal(
        flat.weights, np.concatenate([(1.0 / 3) * c.weights for c in comps]))


@pytest.mark.parametrize("I", [1, 2, 3, 7])
def test_flatten_weights_each_component_by_one_over_I(I):
    # bitwise the weights that a mixture-weight vector np.full(I, 1.0 / I) gave
    rng = np.random.default_rng(40 + I)
    comps = [random_measure(rng, int(rng.integers(1, 6)), 0.0, 1.0)
             for _ in range(I)]
    ctx, _ = build_mixture(comps, np.eye(I), star_index=0)
    uniform = np.full(I, 1.0 / I)
    np.testing.assert_array_equal(
        flatten(ctx).weights,
        np.concatenate([uniform[i] * c.weights for i, c in enumerate(comps)]))


# -------------------------------------------------------------------- W1

def test_w1_between_diracs_is_distance():
    assert wasserstein1_1d(DiscreteMeasure.dirac(0.0),
                           DiscreteMeasure.dirac(1.0)) == pytest.approx(1.0)
    mu = DiscreteMeasure(np.array([0.1, 0.4]), np.array([0.5, 0.5]))
    assert wasserstein1_1d(mu, mu) == 0.0


def test_w1_split_mass_against_midpoint():
    mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure.dirac(0.5)
    assert wasserstein1_1d(mu, nu) == pytest.approx(0.5, abs=1e-15)


def test_w1_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu = random_measure(rng, int(rng.integers(1, 9)))
        nu = random_measure(rng, int(rng.integers(1, 9)))
        want = stats.wasserstein_distance(
            mu.support[:, 0], nu.support[:, 0], mu.weights, nu.weights)
        assert wasserstein1_1d(mu, nu) == pytest.approx(want, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_w1_metric_properties(seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, int(rng.integers(1, 7)))
    nu = random_measure(rng, int(rng.integers(1, 7)))
    rho = random_measure(rng, int(rng.integers(1, 7)))
    d_mn = wasserstein1_1d(mu, nu)
    assert d_mn >= 0.0
    assert d_mn == pytest.approx(wasserstein1_1d(nu, mu), abs=1e-14)
    assert d_mn <= (wasserstein1_1d(mu, rho) + wasserstein1_1d(rho, nu)
                    + 1e-12)


def test_w1_in_higher_dimension_single_varying_coordinate():
    base = np.array([0.3, 0.0])
    mu = DiscreteMeasure(np.array([[0.3, 0.0], [0.3, 1.0]]),
                         np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[0.3, 0.5]]), np.array([1.0]))
    assert wasserstein1_1d(mu, nu) == pytest.approx(0.5, abs=1e-15)
    # identical constant supports: distance 0
    d0 = DiscreteMeasure.dirac(base)
    assert wasserstein1_1d(d0, d0) == 0.0
    # constant columns that disagree become the varying coordinate
    d1 = DiscreteMeasure.dirac(np.array([1.3, 0.0]))
    assert wasserstein1_1d(d0, d1) == pytest.approx(1.0)


def test_w1_rejects_two_varying_coordinates():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]),
                         np.array([0.5, 0.5]))
    nu = DiscreteMeasure.dirac(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        wasserstein1_1d(mu, nu)


def test_w1_rejects_dimension_mismatch_and_unnormalized():
    mu = DiscreteMeasure.dirac(0.0)
    nu = DiscreteMeasure.dirac([0.0, 1.0])
    with pytest.raises(ValueError):
        wasserstein1_1d(mu, nu)


def test_w1_conditioning_on_tag_recovers_component_distance():
    # tokens of one tag, viewed as an empirical measure on the content
    # coordinate, converge to that component in W1
    cfg = ExperimentConfig(alpha_list=(1.0,), n_tokens=40_000)
    spec = cfg.spectrum(1.0)
    ex = gen_example(spec, cfg, 21)
    comp = DiscreteMeasure(spec.domain_grid,
                           synth_density(spec, ex.latents[0], cfg.clamp_eps))
    tokens = ex.context_tokens
    contents = tokens[tokens[:, 1] == ex.query_token[1]][:, 0]
    empirical = DiscreteMeasure.uniform_on(contents)
    assert wasserstein1_1d(empirical, comp) <= 0.02


@pytest.mark.parametrize("seed", [1, 7])
def test_w1_of_token_list_contexts_is_the_sorted_coupling(seed):
    # 5,000 tokens on at most 64 distinct contents each: the empirical
    # measures hold one point per run and still give the quantile coupling
    cfg = ExperimentConfig(alpha_list=(1.0,))
    spec = cfg.spectrum(1.0)
    a, b = (gen_example(spec, cfg, s).context_tokens[:, 0] for s in (seed, seed + 1))
    mu, nu = DiscreteMeasure.uniform_on(a), DiscreteMeasure.uniform_on(b)
    assert max(mu.n_points, nu.n_points) <= 64 < len(a) == len(b) == 5000
    exact = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    assert abs(wasserstein1_1d(mu, nu) - exact) <= 1e-12


def _cdf_at(values, weights, grid):
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = np.searchsorted(values[order], grid, side="right")
    out = np.zeros_like(grid)
    nz = idx > 0
    out[nz] = cum[idx[nz] - 1]
    return out


def grid_cdf_w1(a, wa, b, wb):
    """The W1 formula the merged-points sweep replaced: |F_mu - F_nu|
    evaluated on the grid of distinct points, times the grid gaps."""
    grid = np.unique(np.concatenate([a, b]))
    gap = np.abs(_cdf_at(a, wa, grid) - _cdf_at(b, wb, grid))
    return float(np.sum(gap[:-1] * np.diff(grid)))


def test_w1_matches_grid_cdf_reference_with_ties_zero_weights_and_diracs():
    rng = np.random.default_rng(17)
    rows = []
    for trial in range(300):
        n, m = (int(k) for k in rng.integers(1, 9, 2))
        if trial % 3 == 0:   # ties within and across the two supports
            a, b = rng.integers(0, 4, n) / 4.0, rng.integers(0, 4, m) / 4.0
        else:
            a, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)
        wa, wb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        if trial % 2 == 0 and n > 1:   # a massless point
            wa[0] = 0.0
            wa /= wa.sum()
        want = grid_cdf_w1(a, wa, b, wb)
        got = wasserstein1_1d(DiscreteMeasure(a, wa), DiscreteMeasure(b, wb))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        rows.append((a, wa, b, wb, got))
    # one stacked sweep over zero-padded rows gives each row's distance
    width = 16
    values, signed = np.zeros((len(rows), width)), np.zeros((len(rows), width))
    for i, (a, wa, b, wb, _) in enumerate(rows):
        v, w = np.concatenate([a, b]), np.concatenate([wa, -wb])
        values[i], signed[i, :v.size] = v[np.minimum(np.arange(width), v.size - 1)], w
    np.testing.assert_array_equal(_w1_line(values, signed), [r[-1] for r in rows])
