"""Student model: deterministic init, forward invariances, and the
hand-written reverse pass against a central finite-difference oracle.

The FD helper is written locally so the gradient check does not depend on
the package's own verification code.
"""

import itertools

import numpy as np
import pytest

from measure_attn import (AdamState, AttnHead, DiscreteMeasure,
                          ExperimentConfig, ModelCache, StudentConfig,
                          StudentModel, TrainConfig, adam_step, gen_example,
                          softmax_weights)
from measure_attn.model import _backward, _block_views, _forward, _layout, _runs


def fd_grad(model, context, query, coord, step=1e-5):
    theta = model.params[coord]
    model.params[coord] = theta + step
    up, _ = model.forward(context, query)
    model.params[coord] = theta - step
    down, _ = model.forward(context, query)
    model.params[coord] = theta
    return (up - down) / (2.0 * step)


def random_batch(rng, T=6):
    context = np.column_stack([rng.uniform(0, 1, T),
                               rng.choice([-1.0, 1.0], T)])
    query = np.array([0.0, float(rng.choice([-1.0, 1.0]))])
    return context, query


def einsum_reference(model, context, query, upstream):
    """Prediction and per-block gradients from the per-head einsum formulas.

    An independent statement of the same network: every contraction over
    heads and tokens is spelled out as an einsum on (H, T, hd) tensors.
    """
    cfg = model.config
    relu = cfg.activation == "relu"

    def f(x):
        return np.maximum(x, 0.0) if relu else np.tanh(x)

    def f_grad(x):
        return (x > 0.0).astype(float) if relu else 1.0 - np.tanh(x) ** 2

    w = {n: model.block(n) for n in model.block_names()}
    H, hd = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(hd)
    ctx_pre = context @ w["ctx_w1"].T + w["ctx_b1"]
    ctx_emb = f(ctx_pre) @ w["ctx_w2"].T + w["ctx_b2"]
    qry_pre = w["qry_w1"] @ query + w["qry_b1"]
    qry_emb = w["qry_w2"] @ f(qry_pre) + w["qry_b2"]
    head_q = np.einsum("hij,j->hi", w["attn_q"], qry_emb)
    head_k = np.einsum("hij,tj->hti", w["attn_k"], ctx_emb)
    head_v = np.einsum("hij,tj->hti", w["attn_v"], ctx_emb)
    scores = scale * np.einsum("hti,hi->ht", head_k, head_q)
    attn = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    head_out = np.einsum("ht,hti->hi", attn, head_v)
    mixed = w["attn_out"] @ head_out.reshape(H * hd)
    out_pre = w["head_w1"] @ mixed + w["head_b1"]
    pred = float(w["head_w2"][0] @ f(out_pre) + w["head_b2"][0])

    g = {}
    g["head_w2"] = upstream * f(out_pre)[None, :]
    g["head_b2"] = np.array([upstream])
    d_out_pre = upstream * w["head_w2"][0] * f_grad(out_pre)
    g["head_w1"] = np.outer(d_out_pre, mixed)
    g["head_b1"] = d_out_pre
    d_mixed = w["head_w1"].T @ d_out_pre
    g["attn_out"] = np.outer(d_mixed, head_out.reshape(H * hd))
    d_head_out = (w["attn_out"].T @ d_mixed).reshape(H, hd)
    d_attn = np.einsum("hti,hi->ht", head_v, d_head_out)
    d_head_v = attn[:, :, None] * d_head_out[:, None, :]
    inner = np.einsum("ht,ht->h", attn, d_attn)
    d_scores = attn * (d_attn - inner[:, None])
    d_head_q = scale * np.einsum("ht,hti->hi", d_scores, head_k)
    d_head_k = scale * d_scores[:, :, None] * head_q[:, None, :]
    g["attn_q"] = np.einsum("hi,j->hij", d_head_q, qry_emb)
    g["attn_k"] = np.einsum("hti,tj->hij", d_head_k, ctx_emb)
    g["attn_v"] = np.einsum("hti,tj->hij", d_head_v, ctx_emb)
    d_qry_emb = np.einsum("hij,hi->j", w["attn_q"], d_head_q)
    d_ctx_emb = (np.einsum("hij,hti->tj", w["attn_k"], d_head_k)
                 + np.einsum("hij,hti->tj", w["attn_v"], d_head_v))
    g["qry_w2"] = np.outer(d_qry_emb, f(qry_pre))
    g["qry_b2"] = d_qry_emb
    d_qry_pre = (w["qry_w2"].T @ d_qry_emb) * f_grad(qry_pre)
    g["qry_w1"] = np.outer(d_qry_pre, query)
    g["qry_b1"] = d_qry_pre
    g["ctx_w2"] = d_ctx_emb.T @ f(ctx_pre)
    g["ctx_b2"] = d_ctx_emb.sum(axis=0)
    d_ctx_pre = (d_ctx_emb @ w["ctx_w2"]) * f_grad(ctx_pre)
    g["ctx_w1"] = d_ctx_pre.T @ context
    g["ctx_b1"] = d_ctx_pre.sum(axis=0)
    return pred, g


# ---------------------------------------------------------- construction

def test_init_deterministic_in_seed():
    cfg = StudentConfig()
    a = StudentModel.init(cfg, 42)
    b = StudentModel.init(cfg, 42)
    np.testing.assert_array_equal(a.params, b.params)
    c = StudentModel.init(cfg, 43)
    assert not np.array_equal(a.params, c.params)


def test_init_biases_zero_weights_bounded():
    cfg = StudentConfig()
    model = StudentModel.init(cfg, 0)
    for name in ("ctx_b1", "ctx_b2", "qry_b1", "qry_b2", "head_b1", "head_b2"):
        np.testing.assert_array_equal(model.block(name), 0.0)
    w1 = model.block("ctx_w1")
    s = np.sqrt(6.0 / (cfg.d_hidden + cfg.input_dim))
    assert np.max(np.abs(w1)) <= s


def test_config_validation():
    with pytest.raises(ValueError):
        StudentConfig(d_model=6, n_heads=4)  # not divisible
    with pytest.raises(ValueError):
        StudentConfig(d_model=0)
    with pytest.raises(ValueError):
        StudentConfig(activation="gelu")


def test_params_shape_validation():
    cfg = StudentConfig()
    n = StudentModel(cfg).n_params
    with pytest.raises(ValueError):
        StudentModel(cfg, np.zeros(n + 1))


def test_block_views_cover_all_parameters():
    model = StudentModel(StudentConfig())
    total = sum(model.block(n).size for n in model.block_names())
    assert total == model.n_params
    # block returns a writable view into the flat vector
    model.block("ctx_b1")[0] = 7.0
    assert 7.0 in model.params


BLOCKS = ["ctx_w1", "ctx_b1", "ctx_w2", "ctx_b2", "qry_w1", "qry_b1", "qry_w2",
          "qry_b2", "attn_q", "attn_k", "attn_v", "attn_out", "head_w1",
          "head_b1", "head_w2", "head_b2"]


@pytest.mark.parametrize("config", [{}, {"n_heads": 1, "d_hidden": 5}],
                         ids=["default", "one-head"])
def test_layout_holds_the_blocks_and_the_model_counts_them(config):
    cfg = StudentConfig(**config)
    table = _layout(cfg)
    assert list(table) == BLOCKS
    model = StudentModel(cfg)
    assert model.n_params == sum(int(np.prod(shape)) for _, shape in table.values())
    # the blocks tile the flat vector in order, with no gap and no overlap
    ends = [off + int(np.prod(shape)) for off, shape in table.values()]
    assert [off for off, _ in table.values()] == [0, *ends[:-1]]
    assert ends[-1] == model.n_params
    flat = np.arange(model.n_params, dtype=np.float64)
    stack = np.stack([flat, -flat, 2 * flat])
    for lead, views in (((), _block_views(table, flat)),
                        ((3,), _block_views(table, stack))):
        assert list(views) == BLOCKS
        for name, (_, shape) in table.items():
            assert views[name].shape == lead + shape
            assert np.shares_memory(views[name], flat if not lead else stack)
        np.testing.assert_array_equal(
            np.concatenate([v.reshape(lead + (-1,)) for v in views.values()], axis=-1),
            flat if not lead else stack)


# --------------------------------------------------------------- forward

def test_forward_returns_finite_scalar_and_cache():
    rng = np.random.default_rng(0)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    pred, cache = model.forward(context, query)
    assert isinstance(pred, float) and np.isfinite(pred)
    assert isinstance(cache, ModelCache)


def test_forward_input_validation():
    model = StudentModel.init(StudentConfig(), 0)
    with pytest.raises(ValueError):
        model.forward(np.zeros((0, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        model.forward(np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        model.forward(np.zeros((3, 2)), np.zeros(3))


def test_single_context_token_gets_full_attention():
    rng = np.random.default_rng(1)
    model = StudentModel.init(StudentConfig(), rng)
    context = np.array([[0.4, 1.0]])
    _, cache = model.forward(context, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(cache.attn[:, 0], np.ones((4, 1)))


def test_attention_rows_are_simplex_rows():
    rng = np.random.default_rng(2)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng, T=9)
    _, cache = model.forward(context, query)
    rows = cache.attn[:, 0]
    assert rows.shape == (4, 9)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(rows >= 0.0)


def test_identical_tokens_get_uniform_attention():
    rng = np.random.default_rng(3)
    model = StudentModel.init(StudentConfig(), rng)
    context = np.tile([[0.3, 1.0]], (7, 1))
    _, cache = model.forward(context, np.array([0.0, -1.0]))
    runs = cache.weights[0].astype(int)
    rows = np.repeat(cache.attn[:, 0] / cache.weights[0], runs, axis=-1)
    np.testing.assert_allclose(rows, 1.0 / 7.0, rtol=1e-12)


def test_prediction_invariant_to_context_permutation():
    rng = np.random.default_rng(4)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng, T=8)
    pred, _ = model.forward(context, query)
    perm = rng.permutation(8)
    pred_p, _ = model.forward(context[perm], query)
    assert pred_p == pytest.approx(pred, abs=1e-12)


def test_prediction_invariant_to_context_duplication():
    rng = np.random.default_rng(5)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng, T=5)
    pred, _ = model.forward(context, query)
    pred_dup, cache = model.forward(np.vstack([context, context]), query)
    assert pred_dup == pytest.approx(pred, abs=1e-12)
    rows = cache.attn[:, 0]
    # each duplicated token carries half its original weight
    np.testing.assert_allclose(rows[:, :5], rows[:, 5:], rtol=1e-12)


def test_query_continuity():
    rng = np.random.default_rng(6)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    pred, _ = model.forward(context, query)
    pred_eps, _ = model.forward(context, query + np.array([1e-8, 0.0]))
    assert abs(pred_eps - pred) <= 1e-4


def test_zero_params_predict_zero():
    model = StudentModel(StudentConfig())
    pred, _ = model.forward(np.array([[0.5, 1.0]]), np.array([0.0, 1.0]))
    assert pred == 0.0


# -------------------------------------------------------------- backward

def test_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(7)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    _, cache = model.forward(context, query)
    model.backward(cache, 0.0)
    np.testing.assert_array_equal(model.grads, 0.0)


def test_backward_linear_in_upstream():
    rng = np.random.default_rng(8)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    _, cache = model.forward(context, query)
    model.backward(cache, 1.0)
    g1 = model.grads.copy()
    model.backward(cache, 2.0)
    np.testing.assert_allclose(model.grads, 2.0 * g1, rtol=1e-14)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradient_matches_finite_differences(activation):
    cfg = StudentConfig(activation=activation)
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        model = StudentModel.init(cfg, rng)
        context, query = random_batch(rng, T=int(rng.integers(3, 8)))
        _, cache = model.forward(context, query)
        model.backward(cache, 1.0)
        analytic = model.grads.copy()
        coords = rng.choice(model.n_params, size=60, replace=False)
        for coord in coords:
            fd = fd_grad(model, context, query, int(coord))
            rel = abs(analytic[coord] - fd) / max(abs(analytic[coord]),
                                                  abs(fd), 1e-8)
            worst = max(worst, rel)
    assert worst <= 1e-4


def test_gradient_agrees_on_duplicated_context():
    # prediction is identical on (C) and (C; C), so the parameter gradient
    # must be too
    rng = np.random.default_rng(9)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng, T=4)
    _, cache = model.forward(context, query)
    model.backward(cache, 1.0)
    g_single = model.grads.copy()
    _, cache_dup = model.forward(np.vstack([context, context]), query)
    model.backward(cache_dup, 1.0)
    np.testing.assert_allclose(model.grads, g_single, atol=1e-10)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("n_heads", [1, 4])
@pytest.mark.parametrize("T", [1, 7, 1000])
def test_passes_match_einsum_reference(T, n_heads, activation):
    cfg = StudentConfig(n_heads=n_heads, activation=activation)
    rng = np.random.default_rng(T + 10 * n_heads)
    model = StudentModel.init(cfg, rng)
    context, query = random_batch(rng, T=T)
    pred, cache = model.forward(context, query)
    model.backward(cache, 1.7)
    ref_pred, ref_grads = einsum_reference(model, context, query, 1.7)
    assert pred == pytest.approx(ref_pred, rel=1e-12)
    scale = max(np.max(np.abs(g)) for g in ref_grads.values())
    assert set(ref_grads) == set(model.block_names())
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(model.grad_block(name), ref, rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=name)
    assert cache.head_k.shape == cache.head_v.shape == (n_heads, T, cfg.head_dim)


# ------------------------------------------------ batched pass over atoms

def gen_contexts(rng, B):
    cfg = ExperimentConfig(n_tokens=300)
    examples = [gen_example(cfg.spectrum(1.0), cfg, rng) for _ in range(B)]
    return ([ex.context_tokens for ex in examples],
            np.array([ex.query_token for ex in examples]), examples[0].atoms,
            np.array([ex.counts for ex in examples]))


def continuous_contexts(rng, B):
    """random_batch contexts on the union of their tokens, a zero weight
    wherever a context lacks an atom."""
    contexts, queries = zip(*(random_batch(rng, T=int(rng.integers(1, 9)))
                              for _ in range(B)))
    atoms, inverse = np.unique(np.concatenate(contexts), axis=0,
                               return_inverse=True)
    owner = np.repeat(np.arange(B), [len(c) for c in contexts])
    counts = np.zeros((B, len(atoms)))
    np.add.at(counts, (owner, inverse.reshape(-1)), 1.0)
    return list(contexts), np.array(queries), atoms, counts


@pytest.mark.parametrize("make", [gen_contexts, continuous_contexts],
                         ids=["gen_example", "continuous"])
@pytest.mark.parametrize("n_heads", [1, 4])
def test_batched_pass_matches_token_passes(make, n_heads):
    rng = np.random.default_rng(20 + n_heads)
    model = StudentModel.init(StudentConfig(n_heads=n_heads), rng)
    contexts, queries, atoms, counts = make(rng, 5)
    upstream = rng.standard_normal(len(contexts))
    preds, cache = model.forward(atoms, queries, counts)
    assert preds.shape == (5,) and cache.attn.shape == (n_heads, 5, len(atoms))
    model.backward(cache, upstream)
    summed = model.grads.copy()
    want, token_preds = np.zeros_like(summed), []
    for context, query, up in zip(contexts, queries, upstream):
        pred, cache = model.forward(context, query)
        model.backward(cache, up)
        want += model.grads
        token_preds.append(pred)
    np.testing.assert_allclose(preds, token_preds, rtol=1e-12)
    np.testing.assert_allclose(summed, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("config", [{}, {"n_heads": 1, "d_hidden": 5}],
                         ids=["default", "one-head"])
def test_stacked_rows_are_forward_bitwise(activation, config):
    cfg = StudentConfig(activation=activation, **config)
    rng = np.random.default_rng(41)
    thetas = np.stack([StudentModel.init(cfg, rng).params for _ in range(6)])
    thetas[1] = thetas[0]
    thetas[1, 7] += 1e-5   # a perturbed row, as the gradient check builds
    context, query = random_batch(rng, T=7)
    repeats = np.repeat(context, [1, 3, 1, 2, 1, 1, 4], axis=0)
    queries = np.column_stack([np.zeros(3), rng.choice([-1.0, 1.0], 3)])
    for C, q in itertools.product((context, repeats), (query, queries)):
        points, runs = _runs(C)
        B = len(q) if q.ndim == 2 else 1
        stacked = _forward(_block_views(_layout(cfg), thetas), cfg, points,
                           q.reshape(B, -1), np.broadcast_to(runs, (B, len(points))))
        stacked = stacked["pred"].reshape(thetas.shape[:-1] + q.shape[:-1])
        assert stacked.shape == (6,) + q.shape[:-1]
        for theta, row in zip(thetas, stacked):
            pred, _ = StudentModel(cfg, theta).forward(C, q)
            assert np.asarray(pred).tobytes() == row.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("H", [1, 4])
def test_stacked_backward_rows_are_their_own_calls_bitwise(activation, H):
    # a training stack: each row its own parameters, queries, counts and
    # upstream, on shared atoms, with some atoms at zero count in every row
    rng = np.random.default_rng(47)
    cfg = StudentConfig(n_heads=H, activation=activation)
    table, S, A = _layout(cfg), 3, 9
    atoms, _ = random_batch(rng, T=A)
    for B in range(1, 5):
        params = np.stack([StudentModel.init(cfg, rng).params for _ in range(S)])
        grads = np.zeros_like(params)
        queries = np.stack([random_batch(rng, T=B)[0] for _ in range(S)])
        counts = rng.integers(0, 4, (S, B, A)).astype(np.float64)
        counts[..., :2] = 0.0
        counts[..., 2] += 1.0   # every context carries mass
        up = rng.standard_normal((S, B))
        b, gb = _block_views(table, params), _block_views(table, grads)
        f = _forward(b, cfg, atoms, queries, counts)
        _backward(b, gb, cfg, f, atoms, queries, up)
        for s in range(S):
            model = StudentModel(cfg, params[s])
            row = _forward(model._blocks, cfg, atoms, queries[s], counts[s])
            _backward(model._blocks, model._grad_blocks, cfg, row, atoms,
                      queries[s], up[s])
            for name, arr in row.items():
                assert arr.tobytes() == np.ascontiguousarray(f[name][s]).tobytes(), name
            assert model.grads.tobytes() == grads[s].tobytes(), (B, s)


def grads_of(model, *args):
    pred, cache = model.forward(*args)
    model.backward(cache, np.ones_like(pred))
    return pred, cache, model.grads.copy()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_token_runs_are_the_counts_pass_bitwise(activation):
    rng = np.random.default_rng(43)
    model = StudentModel.init(StudentConfig(activation=activation), rng)
    cfg = ExperimentConfig(n_tokens=300)
    for _ in range(3):
        ex = gen_example(cfg.spectrum(1.0), cfg, rng)
        c = ex.counts
        pred, cache, grads = grads_of(model, ex.context_tokens, ex.query_token)
        want, want_cache, want_grads = grads_of(
            model, ex.atoms[c > 0], ex.query_token[None], c[c > 0][None])
        assert np.asarray(pred).tobytes() == want.tobytes()
        assert grads.tobytes() == want_grads.tobytes()
        assert cache.context.tobytes() == want_cache.context.tobytes()
        assert cache.weights.tobytes() == want_cache.weights.tobytes()


def test_token_runs_without_repeats_are_the_token_pass_bitwise():
    rng = np.random.default_rng(44)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng, T=50)
    context[1::2] = context[0::2]
    context = context[rng.permutation(50)]
    # drop adjacent repeats: equal rows remain, none of them adjacent
    context = context[np.r_[True, (context[1:] != context[:-1]).any(axis=1)]]
    assert len(np.unique(context, axis=0)) < len(context)
    queries = np.column_stack([rng.uniform(-1, 1, 3), rng.choice([-1.0, 1.0], 3)])
    for q in (query, queries):
        preds, cache, grads = grads_of(model, context, q)
        B = len(queries) if q.ndim == 2 else 1
        f = _forward(model._blocks, model.config, context,
                     q.reshape(B, -1), np.ones((B, len(context))))
        _backward(model._blocks, model._grad_blocks, model.config, f, context,
                  q.reshape(B, -1), np.ones(B))
        assert cache.context.tobytes() == context.tobytes()
        for name, arr in f.items():
            assert getattr(cache, name).tobytes() == arr.tobytes(), name
        assert grads.tobytes() == model.grads.tobytes()


def test_token_runs_split_bitwise_unequal_rows():
    model = StudentModel.init(StudentConfig(), np.random.default_rng(45))
    context = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0],
                        [0.5, -1.0], [0.5, 1.0], [0.5, 1.0], [0.5, 1.0]])
    _, cache = model.forward(context, np.array([0.0, 1.0]))
    assert cache.weights.tolist() == [[1.0, 2.0, 1.0, 3.0]]
    assert cache.context.tobytes() == context[[0, 1, 3, 4]].tobytes()
    assert np.signbit(cache.context[:2, 0]).tolist() == [False, True]


def test_token_runs_of_a_shuffled_list_match_the_grouped_list():
    rng = np.random.default_rng(46)
    model = StudentModel.init(StudentConfig(), rng)
    cfg = ExperimentConfig(n_tokens=300)
    ex = gen_example(cfg.spectrum(1.0), cfg, rng)
    grouped = grads_of(model, ex.context_tokens, ex.query_token)
    shuffled = ex.context_tokens[rng.permutation(cfg.n_tokens)]
    pred, cache, grads = grads_of(model, shuffled, ex.query_token)
    assert len(cache.context) > len(grouped[1].context)
    assert pred == pytest.approx(grouped[0], rel=1e-12)
    np.testing.assert_allclose(grads, grouped[2], rtol=1e-12,
                               atol=1e-12 * np.abs(grouped[2]).max())


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_batched_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(31)
    model = StudentModel.init(StudentConfig(activation=activation), rng)
    B, A = 3, 6
    atoms, _ = random_batch(rng, T=A)
    weights = rng.uniform(0.0, 1.0, (B, A)) * (rng.random((B, A)) < 0.7)
    weights[:, 0] += 0.1   # every row carries mass; the rest are non-uniform
    queries = np.column_stack([rng.uniform(-1, 1, B),
                               rng.choice([-1.0, 1.0], B)])
    upstream = rng.standard_normal(B)
    _, cache = model.forward(atoms, queries, weights)
    model.backward(cache, upstream)
    analytic = model.grads.copy()
    worst = 0.0
    for coord in range(model.n_params):
        theta = model.params[coord]
        sides = []
        for step in (1e-5, -1e-5):
            model.params[coord] = theta + step
            sides.append(model.forward(atoms, queries, weights)[0] @ upstream)
        model.params[coord] = theta
        fd = (sides[0] - sides[1]) / 2e-5
        worst = max(worst, abs(analytic[coord] - fd)
                    / max(abs(analytic[coord]), abs(fd), 1e-8))
    assert worst <= 1e-4


real_squared_loss_grads = StudentModel._squared_loss_grads


def _scale_one_block(self, atoms, queries, weights, targets):
    resid = real_squared_loss_grads(self, atoms, queries, weights, targets)
    self.grad_block("attn_k")[...] *= 1.001
    return resid


def _upstream_without_the_two(self, atoms, queries, weights, targets):
    real_squared_loss_grads(self, atoms, queries, weights, targets)
    f = _forward(self._blocks, self.config, atoms, queries, weights)
    resid = f["pred"] - targets
    _backward(self._blocks, self._grad_blocks, self.config, f, atoms, queries,
              resid / len(targets))
    return resid


@pytest.mark.parametrize("corrupted", [_scale_one_block, _upstream_without_the_two],
                         ids=["one-block-scaled", "upstream-resid-over-B"])
def test_gradient_suite_checks_the_training_step(monkeypatch, corrupted):
    from measure_attn import verify
    assert verify.run_suites(["gradient"])[0].passed
    monkeypatch.setattr(StudentModel, "_squared_loss_grads", corrupted)
    assert not verify.run_suites(["gradient"])[0].passed


def test_batched_pass_input_validation():
    model = StudentModel.init(StudentConfig(), np.random.default_rng(0))
    atoms = np.array([[0.1, 1.0], [0.2, -1.0]])
    queries = np.array([[0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="weights"):
        model.forward(atoms, queries, np.ones((2, 3)))
    with pytest.raises(ValueError, match="weights"):
        model.forward(atoms, queries[0], np.ones((2, 2)))
    with pytest.raises(ValueError, match="query"):
        model.forward(atoms, np.zeros((0, 2)), np.ones((0, 2)))
    _, cache = model.forward(atoms, queries, np.ones((2, 2)))
    with pytest.raises(ValueError, match="upstream"):
        model.backward(cache, 1.0)


def test_block_views_track_adam_step_and_stale_cache_is_rejected():
    rng = np.random.default_rng(12)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    views = {n: model.block(n) for n in model.block_names()}
    before = {n: v.copy() for n, v in views.items()}
    _, cache = model.forward(context, query)
    model.backward(cache, 1.0)
    state = AdamState(np.zeros_like(model.params), np.zeros_like(model.params))
    adam_step(state, model.params, model.grads.copy(), TrainConfig(), 0)
    assert any(not np.array_equal(views[n], before[n]) for n in views)
    for name, view in views.items():
        assert model.block(name) is view
        assert np.shares_memory(view, model.params)
    np.testing.assert_array_equal(
        np.concatenate([views[n].ravel() for n in model.block_names()]),
        model.params)
    with pytest.raises(ValueError, match="stale cache"):
        model.backward(cache, 1.0)


@pytest.mark.parametrize("n_heads", [1, 4])
def test_student_rows_equal_lemma_softmax_on_uniform_measure(n_heads):
    # the student's attention row for head h is softmax_weights on the
    # uniform empirical measure of the embedded context, with the head's
    # query/key projections (times sqrt(scale)) zero-padded to square
    cfg = StudentConfig(n_heads=n_heads)
    rng = np.random.default_rng(13 + n_heads)
    model = StudentModel.init(cfg, rng)
    context, query = random_batch(rng, T=1000)
    _, cache = model.forward(context, query)
    dm, hd = cfg.d_model, cfg.head_dim
    root = np.sqrt(1.0 / np.sqrt(hd))
    mu = DiscreteMeasure.uniform_on(cache.ctx_emb)
    for h in range(n_heads):
        Q, K = np.zeros((dm, dm)), np.zeros((dm, dm))
        Q[:hd] = root * model.block("attn_q")[h]
        K[:hd] = root * model.block("attn_k")[h]
        head = AttnHead(W=np.eye(dm), Q=Q, K=K, V=np.eye(dm))
        w = softmax_weights(head, mu, cache.qry_emb[0])
        np.testing.assert_allclose(w, cache.attn[h, 0], rtol=1e-12, atol=0.0)


def test_backward_rejects_stale_cache():
    rng = np.random.default_rng(10)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    _, cache = model.forward(context, query)
    model.params[0] += 0.5
    with pytest.raises(ValueError):
        model.backward(cache, 1.0)


# ---------------------------------------------------------- serialization

def test_serialization_round_trip_preserves_predictions():
    rng = np.random.default_rng(11)
    model = StudentModel.init(StudentConfig(), rng)
    context, query = random_batch(rng)
    pred, _ = model.forward(context, query)
    back = StudentModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(back.params, model.params)
    pred_back, _ = back.forward(context, query)
    assert pred_back == pred
