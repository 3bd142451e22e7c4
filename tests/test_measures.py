"""Discrete measures, tagged mixtures, token sampling and the 1-D W1.

W1 values are checked against hand-computed quantile couplings and against
scipy.stats.wasserstein_distance as an independent second oracle; sampling
frequencies are checked against binomial confidence bands at fixed seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from measure_attn import (
    DiscreteMeasure,
    MixtureContext,
    build_mixture,
    flatten,
    product_embed,
    pushforward,
    sample_tokens,
    wasserstein1_1d,
)
from measure_attn.measures import _histograms


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


def test_weight_validation():
    pts = np.zeros((2, 1))
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([0.6, 0.6]))  # sums to 1.2
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([1.5, -0.5]))  # negative mass
    with pytest.raises(ValueError):
        DiscreteMeasure(pts, np.array([1.0]))  # shape mismatch
    # unnormalized weights are fine when declared as such
    mu = DiscreteMeasure(pts, np.array([0.6, 0.6]), normalized=False)
    assert mu.weights.sum() == pytest.approx(1.2)


def test_measure_arrays_are_immutable():
    mu = DiscreteMeasure.dirac(0.5)
    with pytest.raises(ValueError):
        mu.support[0, 0] = 0.9
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(0)
    mu = random_measure(rng, 5)
    back = DiscreteMeasure.from_json(mu.to_json())
    np.testing.assert_array_equal(back.support, mu.support)
    np.testing.assert_array_equal(back.weights, mu.weights)


# ------------------------------------------------------------ pushforward

def test_pushforward_identity():
    mu = random_measure(np.random.default_rng(1), 4)
    out = pushforward(mu, lambda p: p)
    np.testing.assert_array_equal(out.support, mu.support)
    np.testing.assert_array_equal(out.weights, mu.weights)


def test_pushforward_feature_map_matches_direct_computation():
    mu = DiscreteMeasure(np.array([0.2, 0.5, 0.9]), np.array([0.5, 0.3, 0.2]))
    out = pushforward(mu, lambda p: np.array([p[0], p[0] ** 2]))
    np.testing.assert_array_equal(out.support[:, 0], mu.support[:, 0])
    np.testing.assert_array_equal(out.support[:, 1], mu.support[:, 0] ** 2)
    np.testing.assert_array_equal(out.weights, mu.weights)


def test_pushforward_linear_map_commutes_with_mean():
    # for linear f, mean of f_# mu equals f(mean of mu)
    rng = np.random.default_rng(2)
    mu = DiscreteMeasure(rng.uniform(-1, 1, (6, 3)), rng.dirichlet(np.ones(6)))
    A = rng.standard_normal((2, 3))
    out = pushforward(mu, lambda p: A @ p)
    np.testing.assert_allclose(out.weights @ out.support,
                               A @ (mu.weights @ mu.support), rtol=1e-12)


def test_pushforward_keeps_duplicate_images():
    mu = DiscreteMeasure(np.array([0.1, 0.9]), np.array([0.3, 0.7]))
    out = pushforward(mu, lambda p: np.array([0.0]))
    assert out.n_points == 2  # not merged
    np.testing.assert_array_equal(out.weights, mu.weights)


# ---------------------------------------------------------- product_embed

def test_product_embed_dirac():
    out = product_embed(DiscreteMeasure.dirac(0.0), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(out.support, [[1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(out.weights, [1.0])


def test_product_embed_prepends_tag_and_keeps_weights():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, 5)
    v = np.array([0.6, -0.8])
    out = product_embed(mu, v)
    assert out.dim == mu.dim + 2
    np.testing.assert_array_equal(out.support[:, :2], np.tile(v, (5, 1)))
    np.testing.assert_array_equal(out.support[:, 2:], mu.support)
    np.testing.assert_array_equal(out.weights, mu.weights)


# ---------------------------------------------------- mixtures and tokens

def test_build_mixture_two_components_signed_tags():
    comps = [DiscreteMeasure.dirac(0.3), DiscreteMeasure.dirac(0.8)]
    ctx, query = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=0)
    assert ctx.n_components == 2
    np.testing.assert_array_equal(ctx.mix_weights, [0.5, 0.5])
    np.testing.assert_array_equal(query, [1.0, 0.0])
    _, query2 = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=1)
    np.testing.assert_array_equal(query2, [-1.0, 0.0])


def test_build_mixture_single_component():
    ctx, query = build_mixture([DiscreteMeasure.dirac(0.5)],
                               np.array([[1.0]]), star_index=0)
    np.testing.assert_array_equal(ctx.mix_weights, [1.0])
    np.testing.assert_array_equal(query, [1.0, 0.0])


def test_mixture_tag_validation():
    comps = [DiscreteMeasure.dirac(0.3), DiscreteMeasure.dirac(0.8)]
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0], [2.0]]), 0)  # not unit
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0, 0.0], [0.6, 0.8]]), 0)  # dot 0.6
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0]]), 0)  # one tag, two components
    with pytest.raises(ValueError):
        build_mixture(comps, np.array([[1.0], [-1.0]]), 2)  # star out of range


def test_mixture_context_rejects_mismatched_components():
    a = DiscreteMeasure.dirac(0.3)
    b = DiscreteMeasure.dirac([0.1, 0.2])
    with pytest.raises(ValueError):
        MixtureContext((a, b), np.array([[1.0], [-1.0]]),
                       np.array([0.5, 0.5]), 0)
    with pytest.raises(ValueError):
        MixtureContext((a, a), np.array([[1.0], [-1.0]]),
                       np.array([0.4, 0.4]), 0)  # mix weights sum 0.8


def test_flatten_total_weight_and_layout():
    rng = np.random.default_rng(4)
    comps = [random_measure(rng, 3, 0.0, 1.0), random_measure(rng, 2, 0.0, 1.0)]
    ctx = MixtureContext(tuple(comps), np.array([[1.0], [-1.0]]),
                         np.array([0.3, 0.7]), 0)
    flat = flatten(ctx)
    assert flat.n_points == 5
    assert flat.weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(flat.support[:3, 0], np.ones(3))
    np.testing.assert_array_equal(flat.support[3:, 0], -np.ones(2))
    np.testing.assert_array_equal(flat.support[:3, 1], comps[0].support[:, 0])
    np.testing.assert_allclose(flat.weights[:3], 0.3 * comps[0].weights,
                               rtol=1e-15)
    np.testing.assert_allclose(flat.weights[3:], 0.7 * comps[1].weights,
                               rtol=1e-15)


def test_sample_tokens_dirac_contents_and_tag_frequency():
    comps = [DiscreteMeasure.dirac(0.5), DiscreteMeasure.dirac(0.5)]
    ctx, _ = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=0)
    tokens = sample_tokens(ctx, 10_000, rng_seed=123)
    assert tokens.shape == (10_000, 2)
    np.testing.assert_array_equal(tokens[:, 1], np.full(10_000, 0.5))
    assert set(np.unique(tokens[:, 0])) == {-1.0, 1.0}
    # binomial p=1/2, N=1e4: 3 sigma is 0.015, band below is looser
    frac = np.mean(tokens[:, 0] == 1.0)
    assert 0.47 <= frac <= 0.53


def test_sample_tokens_conditional_content_frequencies():
    support = np.array([0.2, 0.5, 0.9])
    weights = np.array([0.2, 0.3, 0.5])
    comps = [DiscreteMeasure(support, weights), DiscreteMeasure.dirac(0.5)]
    ctx, _ = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=0)
    tokens = sample_tokens(ctx, 20_000, rng_seed=7)
    plus = tokens[tokens[:, 0] == 1.0]
    for x, w in zip(support, weights):
        freq = np.mean(plus[:, 1] == x)
        sigma = math.sqrt(w * (1 - w) / plus.shape[0])
        assert abs(freq - w) <= 4 * sigma


def test_sample_tokens_deterministic_in_seed():
    rng = np.random.default_rng(5)
    comps = [random_measure(rng, 4, 0.0, 1.0), random_measure(rng, 3, 0.0, 1.0)]
    ctx, _ = build_mixture(comps, np.array([[1.0], [-1.0]]), star_index=1)
    a = sample_tokens(ctx, 50, rng_seed=99)
    b = sample_tokens(ctx, 50, rng_seed=99)
    np.testing.assert_array_equal(a, b)
    c = sample_tokens(ctx, 50, rng_seed=100)
    assert not np.array_equal(a, c)


def test_sample_tokens_rejects_empty_request():
    ctx, _ = build_mixture([DiscreteMeasure.dirac(0.5)], np.array([[1.0]]), 0)
    with pytest.raises(ValueError):
        sample_tokens(ctx, 0, rng_seed=0)


# ------------------------------------------------- histograms over atoms

def check_histograms(contexts, groups):
    """Groups cover contexts in order, each context's tokens are its counts
    on its group's atoms, and no counts array outgrows its group's tokens."""
    assert [g[0] for g in groups] == [0] + [g[1] for g in groups[:-1]]
    assert groups[-1][1] == len(contexts)
    for lo, hi, atoms, counts in groups:
        assert counts.size <= sum(len(c) for c in contexts[lo:hi])
        assert np.array_equal(np.lexsort(atoms.T), np.arange(len(atoms)))
        assert len(np.unique(atoms, axis=0)) == len(atoms)
        for context, row in zip(contexts[lo:hi], counts):
            tokens = context[np.lexsort(context.T)]
            assert np.array_equal(np.repeat(atoms, row, axis=0), tokens)


def test_histograms_of_continuous_contexts_stay_within_their_tokens():
    # no two contexts share a token, so counts over shared atoms would grow
    # quadratically; each group must be split down to its own tokens
    rng = np.random.default_rng(8)
    contexts = [np.column_stack([rng.uniform(0, 1, T), rng.choice([-1.0, 1.0], T)])
                for T in rng.integers(1, 30, 41)]
    contexts[3] = np.vstack([contexts[3], contexts[3][:2]])   # repeated tokens
    groups = _histograms(contexts)
    check_histograms(contexts, groups)
    assert len(groups) > 1


def test_histograms_of_grid_contexts_share_one_set_of_atoms():
    rng = np.random.default_rng(9)
    grid = (np.arange(32) + 0.5) / 32
    contexts = [np.column_stack([rng.choice(grid, T), rng.choice([-1.0, 1.0], T)])
                for T in (100, 80, 120, 64, 90, 100, 70, 110, 95, 85, 75)]
    groups = _histograms(contexts)
    check_histograms(contexts, groups)
    [(_, _, atoms, _)] = groups
    assert len(atoms) == 64


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
    un = DiscreteMeasure(np.array([[0.0]]), np.array([0.5]), normalized=False)
    with pytest.raises(ValueError):
        wasserstein1_1d(mu, un)


def test_w1_conditioning_on_tag_recovers_component_distance():
    # tokens of one tag, viewed as an empirical measure on the content
    # coordinate, converge to that component in W1
    support = np.array([0.2, 0.5, 0.9])
    weights = np.array([0.2, 0.3, 0.5])
    comp = DiscreteMeasure(support, weights)
    ctx, _ = build_mixture([comp, DiscreteMeasure.dirac(0.7)],
                           np.array([[1.0], [-1.0]]), star_index=0)
    tokens = sample_tokens(ctx, 40_000, rng_seed=21)
    contents = tokens[tokens[:, 0] == 1.0][:, 1]
    empirical = DiscreteMeasure.uniform_on(contents)
    assert wasserstein1_1d(empirical, comp) <= 0.02
