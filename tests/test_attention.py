"""Measure attention: softmax tilting, the recall construction and its
closed-form star mass, and the Lipschitz probe with its batched trials.

The softmax oracle is an unstabilized scalar loop; the recall oracle is the
direct weighted sum over the starred component; the star-mass value
200/101 = I*exp(c^2) / (exp(c^2) + I - 1) at I=2, c^2 = ln 100 is frozen
from that formula.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_attn import (
    AttnHead,
    AttnParams,
    DiscreteMeasure,
    MercerSpectrum,
    build_mixture,
    build_recall_params,
    featured_mixture,
    lipschitz_probe,
    measure_attention,
    random_lipschitz_trials,
    recall_feature_map,
    softmax_weights,
    temperature_for_error,
)
from measure_attn.attention import (_FAMILY, _draw_trials, _probe, _probe_trials,
                                    _softmax, _stack_heads)


def eye_head(d):
    return AttnHead(W=np.eye(d), Q=np.eye(d), K=np.eye(d), V=np.eye(d))


def random_params(rng, d, n_heads=2):
    heads = tuple(AttnHead(*(rng.standard_normal((d, d)) for _ in range(4)))
                  for _ in range(n_heads))
    return AttnParams(heads, rng.standard_normal((d, d)))


# ------------------------------------------------------------- validation

def test_head_and_params_validation():
    with pytest.raises(ValueError):
        AttnHead(W=np.zeros((2, 3)), Q=np.eye(2), K=np.eye(2), V=np.eye(2))
    with pytest.raises(ValueError):
        AttnHead(W=np.eye(2), Q=np.eye(3), K=np.eye(2), V=np.eye(2))
    with pytest.raises(ValueError):
        AttnParams((eye_head(2),), np.eye(3))
    with pytest.raises(ValueError):
        AttnParams((), np.zeros(3))


def test_entry_and_sparsity_bounds():
    h = AttnHead(W=np.diag([1.0, 0.0]), Q=3.0 * np.eye(2),
                 K=3.0 * np.eye(2), V=np.diag([0.0, -2.0]))
    params = AttnParams((h,), np.eye(2))
    assert params.entry_bound() == 3.0
    assert params.sparsity_bound() == 2  # Q and K have two nonzeros
    empty = AttnParams((), np.eye(2))
    assert empty.entry_bound() == 0.0
    assert empty.sparsity_bound() == 0


# -------------------------------------------------------- softmax_weights

def test_softmax_zero_query_projection_reproduces_measure():
    rng = np.random.default_rng(1)
    mu = DiscreteMeasure(rng.uniform(-1, 1, (6, 2)), rng.dirichlet(np.ones(6)))
    head = AttnHead(W=np.eye(2), Q=np.zeros((2, 2)), K=np.eye(2), V=np.eye(2))
    w = softmax_weights(head, mu, np.array([0.3, -0.7]))
    np.testing.assert_allclose(w, mu.weights, rtol=1e-15)


def test_softmax_single_point_is_one():
    head = eye_head(1)
    w = softmax_weights(head, DiscreteMeasure.dirac(0.4), np.array([2.0]))
    np.testing.assert_array_equal(w, [1.0])


def test_softmax_log3_gap_gives_quarter_three_quarters():
    # scores (0, ln 3) under uniform weights tilt to (1/4, 3/4)
    head = eye_head(1)
    mu = DiscreteMeasure(np.array([0.0, math.log(3.0)]), np.array([0.5, 0.5]))
    w = softmax_weights(head, mu, np.array([1.0]))
    np.testing.assert_allclose(w, [0.25, 0.75], rtol=1e-12)


def test_softmax_matches_unstabilized_scalar_loop():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        mu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)),
                             rng.dirichlet(np.ones(n)))
        head = AttnHead(*(rng.standard_normal((d, d)) for _ in range(4)))
        x = rng.uniform(-1, 1, d)
        w = softmax_weights(head, mu, x)
        qx = head.Q @ x
        raw = [mu.weights[t] * math.exp(float((head.K @ mu.support[t]) @ qx))
               for t in range(n)]
        oracle = np.array(raw) / sum(raw)
        np.testing.assert_allclose(w, oracle, rtol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)


def test_softmax_permutation_equivariance():
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5)))
    head = AttnHead(*(rng.standard_normal((2, 2)) for _ in range(4)))
    x = rng.uniform(-1, 1, 2)
    w = softmax_weights(head, mu, x)
    perm = rng.permutation(5)
    mu_p = DiscreteMeasure(mu.support[perm], mu.weights[perm])
    np.testing.assert_allclose(softmax_weights(head, mu_p, x), w[perm],
                               rtol=1e-12)


def test_softmax_survives_extreme_temperature():
    head = AttnHead(W=np.eye(1), Q=np.array([[1000.0]]),
                    K=np.array([[1000.0]]), V=np.eye(1))
    mu = DiscreteMeasure(np.array([0.0, 0.5, 1.0]), np.full(3, 1.0 / 3))
    w = softmax_weights(head, mu, np.array([1.0]))
    assert np.all(np.isfinite(w))
    assert w[2] == pytest.approx(1.0, abs=1e-12)


def test_softmax_ignores_zero_weight_point_with_highest_score():
    # the massless point at 1000 must not underflow the two that carry mass
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [1000.0]]),
                         np.array([0.5, 0.5, 0.0]))
    w = softmax_weights(eye_head(1), mu, np.array([1.0]))
    e = math.e
    np.testing.assert_allclose(w, [1 / (1 + e), e / (1 + e), 0.0], rtol=1e-12)
    assert w[2] == 0.0


def test_softmax_rejects_rows_without_mass():
    scores = np.array([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match="vanished"):
        _softmax(scores, np.array([[0.5, 0.5], [0.0, 0.0]]))


def stabilized_softmax_reference(scores, weights=None):
    """The kernel's arithmetic before it skipped massless points."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    if weights is not None:
        e = e * weights
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(1,), (7,), (4, 1000), (4, 3, 64)])
@pytest.mark.parametrize("weighted", [False, True])
def test_softmax_unchanged_without_zero_weights(shape, weighted):
    # unit weights give the unweighted softmax bitwise
    rng = np.random.default_rng(sum(shape))
    scores = 5.0 * rng.standard_normal(shape)
    weights = rng.uniform(0.01, 1.0, shape[-1:]) if weighted else None
    p = np.ones(shape[-1:]) if weights is None else weights
    np.testing.assert_array_equal(_softmax(scores.copy(), p),
                                  stabilized_softmax_reference(scores, weights))


def test_softmax_dimension_mismatch():
    head = eye_head(2)
    with pytest.raises(ValueError):
        softmax_weights(head, DiscreteMeasure.dirac(0.5), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        softmax_weights(head, DiscreteMeasure.dirac([0.5, 0.5]),
                        np.array([0.0]))


# ------------------------------------------------------ measure_attention

def test_attention_skip_only_is_linear_in_x():
    params = AttnParams((), np.eye(3))
    mu = DiscreteMeasure.dirac([0.1, 0.2, 0.3])
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(measure_attention(params, mu, x), x)
    doubled = AttnParams((), 2.0 * np.eye(3))
    np.testing.assert_array_equal(measure_attention(doubled, mu, x), 2.0 * x)


def test_attention_single_token_identity_head_returns_token():
    params = AttnParams((eye_head(2),), np.zeros((2, 2)))
    y = np.array([0.3, -0.6])
    out = measure_attention(params, DiscreteMeasure.dirac(y),
                            np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, y, rtol=1e-15)


def test_attention_matches_manual_head_sum():
    rng = np.random.default_rng(4)
    d = 3
    params = random_params(rng, d, n_heads=2)
    mu = DiscreteMeasure(rng.uniform(-1, 1, (5, d)), rng.dirichlet(np.ones(5)))
    x = rng.uniform(-1, 1, d)
    out = measure_attention(params, mu, x)
    manual = params.skip @ x
    for head in params.heads:
        w = softmax_weights(head, mu, x)
        manual = manual + head.W @ (head.V @ (w @ mu.support))
    np.testing.assert_allclose(out, manual, rtol=1e-12)


# ------------------------------------------------------ recall construction

def test_temperature_for_error_frozen_value_and_validation():
    assert temperature_for_error(2, 1e-4) == pytest.approx(
        3.360027070375478, rel=1e-15)
    with pytest.raises(ValueError):
        temperature_for_error(0, 1e-4)
    with pytest.raises(ValueError):
        temperature_for_error(2, 0.0)
    with pytest.raises(ValueError):
        temperature_for_error(1, 2.0)  # ln(1/2) < 0


def test_build_recall_params_structure_and_class_bounds():
    d1, d2, D, c = 3, 1, 4, 3.0
    params = build_recall_params(d1, d2, D, c)
    d = d1 + d2 + D
    assert params.d_attn == d and params.n_heads == D
    assert params.entry_bound() == c
    assert params.sparsity_bound() == d1  # Q, K carry d1 entries; W, V one
    np.testing.assert_array_equal(params.skip[:d1 + d2, :d1 + d2],
                                  np.eye(d1 + d2))
    assert np.count_nonzero(params.skip) == d1 + d2
    for h, head in enumerate(params.heads):
        np.testing.assert_array_equal(head.Q, head.K)
        assert head.Q[0, 0] == c
        assert np.count_nonzero(head.W) == 1
        assert head.W[d1 + d2 + h, d1 + d2 + h] == 1.0


def make_recall_instance(I, D, c, rng):
    """Orthogonal-tag scalar-content mixture with its featured flattening."""
    spec = MercerSpectrum.on_midpoint_grid(1.0, 16, 32)
    comps = []
    for _ in range(I):
        n = int(rng.integers(3, 7))
        pts = np.sort(rng.uniform(0.05, 0.95, n))
        comps.append(DiscreteMeasure(pts, rng.dirichlet(np.ones(n))))
    ctx, query = build_mixture(comps, np.eye(I),
                               star_index=int(rng.integers(I)))
    params = build_recall_params(I, 1, D, c)
    featured = featured_mixture(spec, ctx, D)
    q_feat = recall_feature_map(spec, I, D)(query)
    return spec, ctx, featured, q_feat, params


def test_recall_star_mass_closed_form():
    # per-unit-mass weight on star tokens: I e^{c^2} / (e^{c^2} + I - 1),
    # which is 200/101 at I = 2, c^2 = ln 100
    rng = np.random.default_rng(5)
    c = math.sqrt(math.log(100.0))
    spec, ctx, featured, q_feat, params = make_recall_instance(2, 4, c, rng)
    w = softmax_weights(params.heads[0], featured, q_feat)
    star = ctx.star_index
    n_star = ctx.components[star].n_points
    start = sum(ctx.components[i].n_points for i in range(star))
    star_mass = float(w[start:start + n_star].sum())
    per_unit = star_mass * ctx.n_components
    assert per_unit == pytest.approx(200.0 / 101.0, abs=1e-10)


def test_recall_star_mass_monotone_in_temperature():
    masses = []
    for c2 in (1.0, 4.0, 9.0, math.log(1e4)):
        rng = np.random.default_rng(6)  # same mixture each time
        spec, ctx, featured, q_feat, params = make_recall_instance(
            2, 4, math.sqrt(c2), rng)
        w = softmax_weights(params.heads[0], featured, q_feat)
        n0 = ctx.components[0].n_points
        start = 0 if ctx.star_index == 0 else n0
        n_star = ctx.components[ctx.star_index].n_points
        masses.append(float(w[start:start + n_star].sum()) * 2)
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 2.0  # bounded by I


def test_recall_extracts_star_coefficients():
    rng = np.random.default_rng(7)
    eps2 = 1e-4
    D = 8
    for I in (2, 4):
        c = temperature_for_error(I, eps2)
        spec, ctx, featured, q_feat, params = make_recall_instance(I, D, c, rng)
        out = measure_attention(params, featured, q_feat)
        star = ctx.components[ctx.star_index]
        for j in range(1, D + 1):
            vals = spec.basis_eval(j, star.support[:, 0])
            oracle = float(star.weights @ vals)
            tol = 5.0 * eps2 * max(float(np.max(np.abs(vals))), 1e-12)
            assert abs(out[I + 1 + (j - 1)] - oracle) <= tol


def test_recall_skip_passes_query_through():
    rng = np.random.default_rng(8)
    I, D = 2, 4
    c = temperature_for_error(I, 1e-4)
    _, _, featured, q_feat, params = make_recall_instance(I, D, c, rng)
    out = measure_attention(params, featured, q_feat)
    # (tag, content) block of the output is the query's own block
    np.testing.assert_allclose(out[:I + 1], q_feat[:I + 1], rtol=1e-12)


# -------------------------------------------------------- Lipschitz probe

def test_probe_skips_identical_inputs():
    params = random_params(np.random.default_rng(11), 2)
    mu = DiscreteMeasure.dirac([0.1, 0.2])
    x = np.array([0.3, 0.4])
    rep = lipschitz_probe(params, mu, mu, x, x)
    assert rep.skipped and rep.ratio == 0.0 and not rep.violated


def test_probe_zero_parameters_zero_ratio():
    zero_head = AttnHead(*(np.zeros((2, 2)) for _ in range(4)))
    params = AttnParams((zero_head,), np.zeros((2, 2)))
    mu1 = DiscreteMeasure(np.array([[0.1, 0.0], [0.5, 0.0]]),
                          np.array([0.5, 0.5]))
    mu2 = DiscreteMeasure(np.array([[0.9, 0.0]]), np.array([1.0]))
    rep = lipschitz_probe(params, mu1, mu2, np.zeros(2), np.ones(2))
    assert rep.ratio == 0.0 and not rep.violated


def test_probe_reports_w1_and_dx():
    params = AttnParams((), np.eye(1))
    mu1 = DiscreteMeasure.dirac(0.0)
    mu2 = DiscreteMeasure.dirac(1.0)
    rep = lipschitz_probe(params, mu1, mu2, np.array([0.0]), np.array([2.0]))
    assert rep.w1 == pytest.approx(1.0)
    assert rep.dx == pytest.approx(2.0)
    # skip-only attention: |x1 - x2| / (w1 + dx) = 2/3, bound covers it
    assert rep.ratio == pytest.approx(2.0 / 3.0)
    assert not rep.violated


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_probe_bound_holds_on_random_instances(seed):
    summary = random_lipschitz_trials(20, rng_seed=seed)
    assert summary.violations == 0


def test_random_trials_campaign_no_violations():
    summary = random_lipschitz_trials(1000, rng_seed=13)
    assert summary.trials == 1000
    assert summary.violations == 0
    assert summary.violations_2x == 0
    assert summary.trials - summary.skipped >= 500
    assert summary.max_ratio_over_bound <= 1.0


def test_random_trials_seed13_summary_is_pinned():
    # values of the array drawer's trials at seed 13
    summary = random_lipschitz_trials(1000, rng_seed=13)
    assert (summary.trials, summary.skipped, summary.violations,
            summary.violations_2x) == (1000, 3, 0, 0)
    assert summary.max_ratio == pytest.approx(0.935494289524539, rel=1e-12)
    assert summary.max_ratio_over_bound == pytest.approx(0.29754888596508405,
                                                         rel=1e-12)


def within_5_sigma(count, total, p):
    return abs(count - total * p) <= 5.0 * math.sqrt(total * p * (1.0 - p))


def test_drawn_trials_are_the_probe_family():
    N = 20_000
    n_max, d_max, b_max, h_max = _FAMILY
    heads, n_heads, skip, support, weights, x, coord = _draw_trials(
        np.random.default_rng(5), N)
    # the base point and the varying coordinate are nonzero inside the
    # trial's dimension d, and every coordinate beyond it is zero
    nonzero = support[:, 0, 0] != 0.0
    d = nonzero.sum(axis=1)
    in_d = np.arange(d_max) < d[:, None]
    assert np.array_equal(nonzero, in_d)
    assert np.all(x[~np.broadcast_to(in_d[:, None], x.shape)] == 0.0)
    assert np.all(coord < d)

    # 1-3 nonzeros in the (d, d) block of each live matrix, none outside
    # it, none in the heads beyond n_heads
    mats = np.concatenate([heads.reshape(N, 4 * h_max, d_max, d_max),
                           skip[:, None]], axis=1)
    live = np.concatenate([np.arange(4 * h_max) < 4 * n_heads[:, None],
                           np.ones((N, 1), dtype=bool)], axis=1)
    block = in_d[:, None, :, None] & in_d[:, None, None, :]
    nnz = np.count_nonzero(mats * block, axis=(-2, -1))
    assert np.all(mats[~np.broadcast_to(block, mats.shape)] == 0.0)
    assert np.all((nnz[live] >= 1) & (nnz[live] <= 3))
    assert np.all(nnz[~live] == 0)
    assert np.abs(mats).max() <= b_max
    # each cell of the block is as likely as any other: E[nnz] / d^2 = 2 / d^2
    for dd in range(2, d_max + 1):
        m = mats[d == dd][live[d == dd]][:, :dd, :dd] != 0.0
        assert all(within_5_sigma(c, len(m), 2.0 / dd ** 2)
                   for c in m.sum(axis=0).ravel())

    # supports differ from their base point only in coord
    off = np.arange(d_max) != coord[:, None]
    assert np.all((support == support[:, :1, :1])[np.broadcast_to(
        off[:, None, None], support.shape)])
    # padded points repeat the last real point at weight 0; real weights
    # are positive and sum to 1
    n = np.count_nonzero(weights, axis=-1)
    real = np.arange(n_max) < n[..., None]
    assert np.all(weights[real] > 0.0)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    last = np.take_along_axis(support, (n - 1)[..., None, None], axis=2)
    assert np.all((support == last)[~real])

    same_mu = (np.all(support[:, 0] == support[:, 1], axis=(-2, -1))
               & np.all(weights[:, 0] == weights[:, 1], axis=-1))
    same_x = np.all(x[:, 0] == x[:, 1], axis=-1)
    assert within_5_sigma(same_mu.sum(), N, 0.05)
    assert within_5_sigma(same_x.sum(), N, 0.1)
    for values, lo, hi in ((d, 2, d_max), (n_heads, 1, h_max), (nnz[live], 1, 3),
                           (n[:, 0], 1, n_max), (n[~same_mu, 1], 1, n_max)):
        p = 1.0 / (hi - lo + 1)
        assert all(within_5_sigma(np.sum(values == v), values.size, p)
                   for v in range(lo, hi + 1))


def test_probe_equals_its_trial_in_the_batch():
    # the reference trials are drawn pass by pass on one generator, as
    # _probe_trials draws them: 250, then 50
    n = 300   # seed 1 has 1 skipped trial among these
    rng = np.random.default_rng(1)
    passes = [_draw_trials(rng, k) for k in (250, 50)]
    heads, n_heads, skip, support, weights, x, _ = (np.concatenate(p)
                                                    for p in zip(*passes))
    ratio, bound, skipped = _probe_trials(n, 1)
    assert 0 < skipped.sum() < n
    for i in range(n):
        params = AttnParams(tuple(AttnHead(*h) for h in heads[i, :n_heads[i]]),
                            skip[i])
        mu1, mu2 = (DiscreteMeasure(support[i, k], weights[i, k]) for k in (0, 1))
        rep = lipschitz_probe(params, mu1, mu2, x[i, 0], x[i, 1])
        assert (rep.ratio, rep.bound, rep.skipped) == (ratio[i], bound[i], skipped[i])


def test_probe_trials_memory_does_not_grow_with_passes():
    # a pass's arrays are freed before the next pass is drawn, so four
    # passes peak where one does
    _probe_trials(10, 0)   # warm up outside the measurement

    def peak(n_trials):
        tracemalloc.start()
        try:
            _probe_trials(n_trials, 13)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1000) <= peak(250) + 64 * 1024


def test_probe_padding_is_exact():
    # a trial cropped to its own dimension and support sizes gives the
    # padded trial's report
    rng = np.random.default_rng(12)
    d = 2
    params = random_params(rng, d, n_heads=1)
    mu1 = DiscreteMeasure(np.column_stack([rng.uniform(-1, 1, 3), np.full(3, 0.4)]),
                          rng.dirichlet(np.ones(3)))
    mu2 = DiscreteMeasure(np.array([[0.2, 0.4]]), np.array([1.0]))
    x1, x2 = rng.uniform(-1, 1, (2, d))
    rep = lipschitz_probe(params, mu1, mu2, x1, x2)

    def pad(m, shape):
        out = np.zeros(shape)
        out[tuple(slice(0, k) for k in m.shape)] = m
        return out

    zero_head = AttnHead(*(np.zeros((3, 3)) for _ in range(4)))
    padded = AttnParams(tuple(AttnHead(*(pad(getattr(h, a), (3, 3)) for a in "WQKV"))
                              for h in params.heads) + (zero_head,),
                        pad(params.skip, (3, 3)))
    wide = [DiscreteMeasure(pad(mu.support, (mu.n_points, 3)), mu.weights)
            for mu in (mu1, mu2)]
    heads = _stack_heads(padded.heads, 3)
    support = np.stack([np.pad(mu.support, ((0, 3 - mu.n_points), (0, 0)), mode="edge")
                        for mu in wide])
    weights = np.stack([np.pad(mu.weights, (0, 3 - mu.n_points)) for mu in wide])
    ratio, bound, dx, skipped = _probe(heads, params.n_heads, padded.skip, support,
                                       weights, np.stack([pad(x1, (3,)), pad(x2, (3,))]),
                                       rep.w1)
    assert not skipped and dx == pytest.approx(rep.dx, rel=1e-15)
    assert ratio == pytest.approx(rep.ratio, rel=1e-13)
    assert bound == pytest.approx(rep.bound, rel=1e-15)
