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
    ExperimentConfig,
    MercerSpectrum,
    build_mixture,
    build_recall_params,
    featured_mixture,
    flatten,
    gen_example,
    measure_attention,
    recall_feature_map,
    softmax_weights,
    temperature_for_error,
    wasserstein1_1d,
)
from measure_attn import measures
from measure_attn.attention import (_FAMILY, _attend, _draw_trials, _probe,
                                    _probe_trials, _softmax, _stack_heads,
                                    _summarize, _tilt)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_head_and_skip_matrices_must_be_finite(bad):
    # a non-finite matrix made the probe report ratio=nan, violated=False
    for name in ("W", "Q", "K", "V"):
        mats = {n: np.eye(2) for n in ("W", "Q", "K", "V")}
        mats[name] = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"^head matrix {name} must be finite$"):
            AttnHead(**mats)
    with pytest.raises(ValueError, match="^skip matrix must be finite$"):
        AttnParams((eye_head(2),), np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^skip matrix must be finite$"):
        AttnParams((), np.full((1, 1), bad))


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
    with pytest.raises(ValueError, match="^I must be an integer >= 1"):
        temperature_for_error(True, 1e-4)


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


@pytest.mark.parametrize("fn, args, name", [
    pytest.param(build_recall_params, (3, 1, 8.0, 3.0), "D", id="recall-D-float"),
    pytest.param(build_recall_params, (3, True, 4, 3.0), "d2", id="recall-d2-bool"),
    pytest.param(build_recall_params, (3, 1, 4, math.inf), "temperature_c",
                 id="recall-temperature-inf"),
    pytest.param(_probe_trials, (0, 1), "n_trials", id="trials-0"),
    pytest.param(_probe_trials, (10.5, 1), "n_trials", id="trials-float"),
])
def test_recall_params_and_probe_trials_validate_settings(fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        fn(*args)


def make_recall_instance(I, D, c, rng):
    """Orthogonal-tag scalar-content mixture with its featured flattening."""
    spec = MercerSpectrum(1.0, 16, 32)
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


@pytest.mark.parametrize("d1", [1, 3])
def test_recall_feature_map_takes_rows(d1):
    # a stack of rows (N, d1 + 1) maps bitwise as each row does alone
    spec = MercerSpectrum(1.0, 16, 32)
    D = 9
    rng = np.random.default_rng(20 + d1)
    rows = rng.uniform(0.0, 1.0, (12, d1 + 1))
    rows[0, d1], rows[1, d1] = 0.0, 1.0
    fmap = recall_feature_map(spec, d1, D)
    out = fmap(rows)
    assert out.shape == (12, d1 + 1 + D)
    np.testing.assert_array_equal(out, np.stack([fmap(r) for r in rows]))
    np.testing.assert_array_equal(out[:, :d1 + 1], rows)
    np.testing.assert_array_equal(recall_feature_map(spec, d1, 0)(rows), rows)
    for bad in (rows[:, :d1], np.hstack([rows, rows[:, :1]])):
        with pytest.raises(ValueError, match="expected"):
            fmap(bad)
    outside = rows.copy()
    outside[3, d1] = 1.5
    with pytest.raises(ValueError, match="outside"):
        fmap(outside)
    with pytest.raises(ValueError, match="modes"):
        recall_feature_map(spec, d1, spec.M)
    # checked when the map is built, not on its first call
    for bad_d1, bad_D, name in ((d1, 2.0, "D"), (d1, -1, "D"), (0, D, "d1"),
                                (float(d1), D, "d1")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            recall_feature_map(spec, bad_d1, bad_D)


def test_featured_mixture_is_the_written_out_construction():
    # tag row, content, then e_1(content)..e_D(content); each component's
    # weights times 1/I
    spec = MercerSpectrum(1.0, 16, 32)
    D = 5
    rng = np.random.default_rng(23)
    comps = [DiscreteMeasure(rng.uniform(0.0, 1.0, n), rng.dirichlet(np.ones(n)))
             for n in (3, 1, 4)]
    ctx, _ = build_mixture(comps, np.eye(3), star_index=1)
    featured = featured_mixture(spec, ctx, D)
    rows = [[*tag, z, *(spec.basis_eval(j, z) for j in range(1, D + 1))]
            for tag, c in zip(np.eye(3), comps) for z in c.support[:, 0]]
    np.testing.assert_array_equal(featured.support, np.array(rows))
    np.testing.assert_array_equal(
        featured.weights, np.concatenate([(1.0 / 3) * c.weights for c in comps]))
    ctx2, _ = build_mixture([DiscreteMeasure.dirac([0.2, 0.3])], np.eye(1), 0)
    with pytest.raises(ValueError, match="scalar content"):
        featured_mixture(spec, ctx2, D)


# ---------------------------------------- distinct consecutive atoms
# measure_attention and softmax_weights integrate over a measure's runs of
# bitwise-equal consecutive rows; the references below run on every row

def row_by_row(params, mu, x):
    """Attn(mu, x) and each head's softmax weights over all of mu's rows."""
    d = params.d_attn
    return (_attend(_stack_heads(params.heads, d), params.skip, mu.support,
                    mu.weights, x),
            [_tilt(_stack_heads((h,), d), mu.support, mu.weights, x)[0]
             for h in params.heads])


@pytest.mark.parametrize("seed", range(4))
def test_measure_without_repeated_rows_is_computed_on_its_rows_bitwise(seed):
    rng = np.random.default_rng(seed)
    n, d = (1, 2) if seed == 0 else (int(rng.integers(2, 40)), int(rng.integers(1, 5)))
    mu = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), rng.dirichlet(np.ones(n)))
    params, x = random_params(rng, d, n_heads=3), rng.uniform(-1, 1, d)
    out, tilts = row_by_row(params, mu, x)
    assert np.array_equal(measure_attention(params, mu, x), out)
    for head, w in zip(params.heads, tilts):
        assert np.array_equal(softmax_weights(head, mu, x), w)
    u = DiscreteMeasure.uniform_on(mu.support)
    assert np.array_equal(u.support, mu.support)
    assert np.array_equal(u.weights, np.full(n, 1.0 / n))


def token_list_measures(seed):
    """A 5,000-token gen_example context as its uniform measure on (x, tag),
    with a random two-head operator and query, and as the recall
    construction's featured mixture of its two tag halves, with the recall
    parameters and query.
    """
    cfg = ExperimentConfig(alpha_list=(1.0,))
    spec = cfg.spectrum(1.0)
    ex = gen_example(spec, cfg, seed)
    tokens = ex.context_tokens
    rng = np.random.default_rng(seed)
    raw = DiscreteMeasure(tokens, np.full(len(tokens), 1.0 / len(tokens)))
    yield raw, random_params(rng, 2), rng.uniform(-1, 1, 2)
    D, tags = 8, np.array([[1.0], [-1.0]])
    halves = [tokens[tokens[:, 1] == t, :1] for t in tags[:, 0]]
    comps = [DiscreteMeasure(h, np.full(len(h), 1.0 / len(h))) for h in halves]
    ctx, query = build_mixture(comps, tags, star_index=int(ex.query_token[1] < 0))
    params = build_recall_params(1, 1, D, temperature_for_error(2, 1e-4))
    yield (featured_mixture(spec, ctx, D), params,
           recall_feature_map(spec, 1, D)(query))


def test_runs_are_built_on_first_read(monkeypatch):
    # building a measure scans no runs (uniform_on's one scan is its own
    # merge), nor do flatten and wasserstein1_1d; softmax_weights then
    # measure_attention scan each measure once
    calls, real = [], measures._runs
    monkeypatch.setattr(measures, "_runs", lambda C: calls.append(len(C)) or real(C))
    pts = np.repeat(np.array([[0.1, 1.0], [0.3, 1.0], [0.3, -1.0]]), [3, 1, 2], axis=0)
    mu = DiscreteMeasure(pts, np.full(6, 1.0 / 6.0))
    nu = DiscreteMeasure.uniform_on(pts)
    content = DiscreteMeasure(pts[:, :1], mu.weights)
    mix, _ = build_mixture([content] * 2, np.array([[1.0], [-1.0]]), 0)
    assert calls == [6]
    flat = flatten(mix)
    assert wasserstein1_1d(content, DiscreteMeasure(pts[::-1, :1], mu.weights)) < 1e-15
    assert calls == [6]
    rng = np.random.default_rng(5)
    params, x = random_params(rng, 2), rng.uniform(-1, 1, 2)
    for m in (mu, nu, flat):
        softmax_weights(params.heads[0], m, x)
        measure_attention(params, m, x)
    assert calls == [6, 6, 3, 12]


@pytest.mark.parametrize("seed", [1, 7])
def test_token_list_contexts_match_the_row_by_row_computation(seed):
    for mu, params, x in token_list_measures(seed):
        atoms, _, lengths = mu._atoms
        assert lengths is not None and len(atoms) <= 64 < mu.n_points == 5000
        out, tilts = row_by_row(params, mu, x)
        got = measure_attention(params, mu, x)
        np.testing.assert_allclose(got, out, rtol=1e-12, atol=1e-12 * np.abs(out).max())
        for head, want in zip(params.heads, tilts):
            w = softmax_weights(head, mu, x)
            np.testing.assert_allclose(w, want, rtol=1e-12, atol=0.0)
            assert abs(w.sum() - 1.0) <= 1e-12


def test_rows_of_one_run_share_its_mass_by_their_weights():
    # runs of 3, 1 and 2 rows with unequal weights, one of them zero
    rng = np.random.default_rng(8)
    support = np.repeat(rng.uniform(-1, 1, (3, 2)), [3, 1, 2], axis=0)
    mu = DiscreteMeasure(support, np.array([0.1, 0.0, 0.3, 0.2, 0.25, 0.15]))
    params, x = random_params(rng, 2), rng.uniform(-1, 1, 2)
    out, tilts = row_by_row(params, mu, x)
    np.testing.assert_allclose(measure_attention(params, mu, x), out, rtol=1e-12)
    for head, want in zip(params.heads, tilts):
        w = softmax_weights(head, mu, x)
        np.testing.assert_allclose(w, want, rtol=1e-12, atol=0.0)
        assert w[1] == 0.0


def test_zero_mass_run_gets_zero_weight_without_warning():
    # pytest turns a warning into an error, so a 0/0 would fail here
    support = np.array([[0.5, 0.1], [0.5, 0.1], [-0.2, 0.3], [-0.2, 0.3], [0.9, 0.0]])
    mu = DiscreteMeasure(support, np.array([0.0, 0.0, 0.25, 0.25, 0.5]))
    params = random_params(np.random.default_rng(9), 2)
    x = np.array([0.4, -0.7])
    out, tilts = row_by_row(params, mu, x)
    got = measure_attention(params, mu, x)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, out, rtol=1e-12)
    for head, want in zip(params.heads, tilts):
        w = softmax_weights(head, mu, x)
        assert np.all(np.isfinite(w)) and np.array_equal(w[:2], [0.0, 0.0])
        np.testing.assert_allclose(w, want, rtol=1e-12, atol=0.0)


# -------------------------------------------------------- Lipschitz probe

def probe(params, mu1, mu2, x1, x2):
    """_probe on a stack of one instance: (ratio, bound, skipped).

    The shorter support repeats its last point at weight 0, as the drawn
    trials pad theirs.
    """
    n = max(mu1.n_points, mu2.n_points)
    support = np.stack([np.pad(mu.support, ((0, n - mu.n_points), (0, 0)), mode="edge")
                        for mu in (mu1, mu2)])
    weights = np.stack([np.pad(mu.weights, (0, n - mu.n_points)) for mu in (mu1, mu2)])
    ratio, bound, skipped = _probe(
        params._stacked[None], np.array([params.n_heads]), params.skip[None],
        support[None], weights[None], np.stack([x1, x2])[None],
        np.array([wasserstein1_1d(mu1, mu2)]))
    return ratio[0], bound[0], skipped[0]


def test_probe_skips_identical_inputs():
    params = random_params(np.random.default_rng(11), 2)
    mu = DiscreteMeasure.dirac([0.1, 0.2])
    x = np.array([0.3, 0.4])
    ratio, bound, skipped = probe(params, mu, mu, x, x)
    assert skipped and ratio == 0.0 and ratio <= bound


def test_non_finite_query_is_rejected():
    # a NaN query would give a NaN attention output
    params = AttnParams((eye_head(1),), np.eye(1))
    mu = DiscreteMeasure.dirac(0.0)
    for x in (np.array([np.nan]), np.array([np.inf])):
        with pytest.raises(ValueError, match="^query must be finite"):
            softmax_weights(params.heads[0], mu, x)
        with pytest.raises(ValueError, match="^query must be finite"):
            measure_attention(params, mu, x)


def test_probe_zero_parameters_zero_ratio():
    zero_head = AttnHead(*(np.zeros((2, 2)) for _ in range(4)))
    params = AttnParams((zero_head,), np.zeros((2, 2)))
    mu1 = DiscreteMeasure(np.array([[0.1, 0.0], [0.5, 0.0]]),
                          np.array([0.5, 0.5]))
    mu2 = DiscreteMeasure(np.array([[0.9, 0.0]]), np.array([1.0]))
    ratio, bound, skipped = probe(params, mu1, mu2, np.zeros(2), np.ones(2))
    assert not skipped and ratio == 0.0 and ratio <= bound


def test_probe_reports_w1_and_dx():
    params = AttnParams((), np.eye(1))
    mu1 = DiscreteMeasure.dirac(0.0)
    mu2 = DiscreteMeasure.dirac(1.0)
    ratio, bound, skipped = probe(params, mu1, mu2, np.array([0.0]), np.array([2.0]))
    # skip-only attention: |x1 - x2| / (w1 + dx) = 2/3, bound covers it
    assert ratio == pytest.approx(2.0 / 3.0)
    assert not skipped and ratio <= bound


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_probe_bound_holds_on_random_instances(seed):
    summary = _summarize(*_probe_trials(20, rng_seed=seed))
    assert summary.violations == 0


def test_random_trials_campaign_no_violations():
    summary = _summarize(*_probe_trials(1000, rng_seed=13))
    assert summary.trials == 1000
    assert summary.violations == 0
    assert summary.violations_2x == 0
    assert summary.trials - summary.skipped >= 500
    assert summary.max_ratio_over_bound <= 1.0


def test_random_trials_seed13_summary_is_pinned():
    # values of the array drawer's trials at seed 13
    summary = _summarize(*_probe_trials(1000, rng_seed=13))
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
        x1, x2 = x[i]
        assert probe(params, mu1, mu2, x1, x2) == (ratio[i], bound[i], skipped[i])
        # and the ratio by its definition, through the public operator; a
        # shift that is 0 in exact arithmetic (trial 21: the queries are
        # equal and the measures differ in a coordinate the output does not
        # depend on) leaves 9e-18 of rounding in the padded pass, hence the
        # absolute floor
        denom = wasserstein1_1d(mu1, mu2) + np.linalg.norm(x1 - x2)
        shift = np.abs(measure_attention(params, mu1, x1)
                       - measure_attention(params, mu2, x2)).max()
        want = 0.0 if skipped[i] else shift / denom
        np.testing.assert_allclose(ratio[i], want, rtol=1e-12, atol=1e-15)


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
    want_ratio, want_bound, _ = probe(params, mu1, mu2, x1, x2)

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
    ratio, bound, skipped = _probe(heads, params.n_heads, padded.skip, support,
                                   weights, np.stack([pad(x1, (3,)), pad(x2, (3,))]),
                                   wasserstein1_1d(mu1, mu2))
    assert not skipped
    assert ratio == pytest.approx(want_ratio, rel=1e-13)
    assert bound == pytest.approx(want_bound, rel=1e-15)
