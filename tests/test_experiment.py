"""Synthetic experiment: example generation against Monte-Carlo moments and
against a token-by-token reference generator's law, contexts as counts on
shared atoms, attention-mass bookkeeping on hand-built rows, query-shuffle
ablation, single-cell training, rate fits against a brute-force grid
search, and the sweep bundle's persistence and reproducibility.
"""

import concurrent.futures
import functools
import hashlib
import json
import math
import multiprocessing
import operator
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from measure_attn import (
    Dataset,
    Example,
    ExperimentConfig,
    RiskCurve,
    StudentConfig,
    StudentModel,
    TrainConfig,
    attention_mass_stats,
    fit_rate,
    gen_example,
    query_shuffle_eval,
    run_cell,
    scaling_axis,
    sweep,
    synth_density,
    train,
)
from measure_attn.attention import _probe_trials
from measure_attn.experiment import (_STACK, _STREAM_LOOP, _atomic_write,
                                     _attention_stats, _cell_key, _cell_seedseq,
                                     _draw, _gen, _grid_atoms, _targets, _val_set,
                                     _validate, risk_curves)
from measure_attn.model import (_BLOCK, _block_views, _context_side, _forward,
                                _head, _layout, _query_side, _score_rows)
from measure_attn.spectrum import MercerSpectrum

SMALL = ExperimentConfig(
    alpha_list=(1.0,),
    n_list=(2, 4),
    seeds=1,
    n_tokens=60,
    n_val=10,
    n_stat_examples=5,
    train=TrainConfig(epochs=2, batch_size=2, lr0=5e-3,
                      decay_per_epoch=0.95),
)


GRID = (np.arange(32) + 0.5) / 32
# x on GRID with tag -1, then with tag +1, as gen_example orders its atoms
ATOMS = np.column_stack([np.tile(GRID, 2), np.repeat([-1.0, 1.0], GRID.size)])


@dataclass(frozen=True)
class Item:
    context_tokens: np.ndarray
    atoms: np.ndarray
    counts: np.ndarray
    query_token: np.ndarray
    target: float


def on_atoms(context, atoms, query, target):
    """An Item whose counts are its context's tokens counted on atoms."""
    counts = (context[:, None] == atoms).all(axis=-1).sum(axis=0)
    return Item(context, atoms, counts, query, target)


def balanced_items(n_examples, T, query_tag=1.0, rng=None):
    rng = rng or np.random.default_rng(0)
    items = []
    for _ in range(n_examples):
        tags = np.repeat([1.0, -1.0], T // 2)
        context = np.column_stack([rng.choice(GRID, T), tags])
        items.append(on_atoms(context, ATOMS, np.array([0.0, query_tag]),
                              float(rng.standard_normal())))
    return items


# ----------------------------------------------------------- generation

def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(8, 4))
    for n_list in ((0, 4), (-3, 4)):
        with pytest.raises(ValueError, match="n_list"):
            ExperimentConfig(n_list=n_list)
    with pytest.raises(ValueError):
        ExperimentConfig(alpha_list=())
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(alpha_list=(1.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(M=20, T=32)
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=0)
    with pytest.raises(ValueError, match="n_tokens"):
        ExperimentConfig(n_tokens=0)
    # multinomial draws counts as C longs and arrays take lengths as signed
    # 64-bit ints: 2**63 - 1 is the largest either takes
    for name, value in (("n_tokens", lambda v: v), ("n_val", lambda v: v),
                        ("n_list", lambda v: (4, v)), ("T", lambda v: v)):
        cfg = ExperimentConfig(**{name: value(2**63 - 1)})
        assert getattr(cfg, name) == value(2**63 - 1)
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value(2**63)})
    with pytest.raises(ValueError):
        ExperimentConfig(n_stat_examples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    for alpha in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha_list=(1.0, alpha))
    with pytest.raises(ValueError):
        ExperimentConfig(M=0)
    for eps in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError):
            ExperimentConfig(clamp_eps=eps)
    assert ExperimentConfig().train == TrainConfig()
    # a sweep keys every (alpha, n, seed) cell before any runs: at most 100,000
    grid = dict(alpha_list=(0.5, 1.0), n_list=(2, 4, 8, 16, 32))
    assert ExperimentConfig(**grid, seeds=10_000).seeds == 10_000
    with pytest.raises(ValueError, match="100010 cells"):
        ExperimentConfig(**grid, seeds=10_001)
    one = dict(alpha_list=(1.0,), n_list=(4,))
    assert ExperimentConfig(**one, seeds=100_000).seeds == 100_000
    for seeds in (100_001, 99999999999999999999):
        with pytest.raises(ValueError, match=f"grid has {seeds} cells"):
            ExperimentConfig(**one, seeds=seeds)


def test_numpy_integer_settings_are_stored_as_python_ints():
    student = StudentConfig(d_model=np.int64(8))
    train_cfg = TrainConfig(epochs=np.int64(3))
    cfg = ExperimentConfig(M=np.int64(8), T=np.int64(16),
                           n_list=(np.int64(4), np.int32(8)),
                           student=student, train=train_cfg)
    for c, name in ((student, "d_model"), (train_cfg, "epochs"), (cfg, "M"),
                    (cfg, "T")):
        assert type(getattr(c, name)) is int, name
        json.dumps(asdict(c))
    assert [type(n) for n in cfg.n_list] == [int, int]
    _cell_key(cfg, 1.0, 4, 0)


def test_target_value_zero_coefficients_and_oddness():
    spec = SMALL.spectrum(1.0)
    lam = spec.eigenvalues()
    assert _targets(lam, 1.0, np.zeros(spec.M)) == 0.0
    z = np.random.default_rng(0).standard_normal(spec.M)
    z[0] = 0.0
    y = _targets(lam, 1.0, z)
    assert _targets(lam, -1.0, z) == -y
    oracle = sum(lam[j] * z[j] ** 2 for j in range(1, spec.M))
    assert y == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_stacked_targets_are_per_row_targets_bitwise(alpha):
    # _draw computes its targets in one expression; each must be the 1-d sum
    # that _targets takes of its row
    spec = SMALL.spectrum(alpha)
    lam = spec.eigenvalues()
    rng = np.random.default_rng(17)
    z = rng.standard_normal((4000, spec.M))
    v1 = np.where(rng.random(4000) < 0.5, 1.0, -1.0)
    stacked = _targets(lam, v1, z)
    for v, row, y in zip(v1, z, stacked):
        assert y == v * np.sum(lam[1:] * row[1:] ** 2)
        assert y == _targets(lam, v, row)


def test_gen_example_layout_and_determinism():
    spec = SMALL.spectrum(1.0)
    ex = gen_example(spec, SMALL, 123)
    assert ex.context_tokens.shape == (SMALL.n_tokens, 2)
    assert np.all(np.isin(ex.context_tokens[:, 0], spec.domain_grid))
    assert set(np.unique(ex.context_tokens[:, 1])) <= {-1.0, 1.0}
    assert ex.query_token[0] == 0.0 and ex.query_token[1] in (-1.0, 1.0)
    assert ex.latents.shape == (2, spec.M)
    assert ex.latents[0, 0] == 0.0 and ex.latents[1, 0] == 0.0
    assert ex.target == _targets(spec.eigenvalues(), ex.query_token[1], ex.latents[0])
    ex2 = gen_example(spec, SMALL, 123)
    np.testing.assert_array_equal(ex.context_tokens, ex2.context_tokens)
    assert ex.target == ex2.target


def test_gen_example_keeps_its_draws_latents():
    # the latents are the draw's z row, and with the query's tag they give
    # the target bitwise
    spec = SMALL.spectrum(1.0)
    lam = spec.eigenvalues()
    for seed in (0, 5, 123):
        ex = gen_example(spec, SMALL, seed)
        data, z = _draw(spec, SMALL, np.random.default_rng(seed), 1)
        assert ex.latents.shape == z[0].shape == (2, spec.M)
        assert ex.latents.tobytes() == z[0].tobytes()
        assert ex.query_token.tobytes() == data.queries[0].tobytes()
        y = _targets(lam, ex.query_token[1], ex.latents[0])
        assert np.float64(ex.target).tobytes() == np.float64(y).tobytes()


def test_example_reads_its_tokens_from_its_counts_once():
    ex = gen_example(SMALL.spectrum(1.0), SMALL, 5)
    assert "context_tokens" not in vars(ex)   # built on first use, not stored
    tokens = ex.context_tokens
    np.testing.assert_array_equal(tokens, np.repeat(ex.atoms, ex.counts, axis=0))
    assert ex.context_tokens is tokens


def test_gen_example_records_keep_counts_not_tokens():
    # counts are 64 integers a record, where a token array each keeps 17 MB
    cfg = replace(SMALL, n_tokens=1000)
    spec = cfg.spectrum(1.0)
    gen_example(spec, cfg, 0)  # build the basis and atoms outside the measurement
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        examples = [gen_example(spec, cfg, rng) for _ in range(1000)]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(examples) == 1000 and kept < 4 * 2**20


def test_gen_example_stream_is_pinned():
    # one example's tokens (in atom order), counts and target; a change to
    # the random stream, or to how draws become counts, changes the digest
    ex = gen_example(SMALL.spectrum(1.0), SMALL, 123)
    digest = hashlib.sha256()
    for blob in (ex.context_tokens.tobytes(), ex.counts.tobytes(),
                 repr(ex.target).encode()):
        digest.update(blob)
    assert digest.hexdigest() == (
        "8483a1ec02c9eb816e8cfdf3d2e568870bdf5d02e5952255eb176a7be9e1eda5")


@pytest.mark.parametrize("seed", [0, 1])
def test_gen_example_tokens_follow_the_component_pmfs(seed):
    cfg = replace(SMALL, n_tokens=20_000)
    spec = cfg.spectrum(1.0)
    ex = gen_example(spec, cfg, seed)
    tags = ex.context_tokens[:, 1]
    # each token picks the v1 component with probability 1/2
    sigma = math.sqrt(0.25 / cfg.n_tokens)
    v1 = ex.query_token[1]
    assert abs(np.mean(tags == v1) - 0.5) <= 4 * sigma
    for tag, z in ((v1, ex.latents[0]), (-v1, ex.latents[1])):
        counts = ex.counts[ex.atoms[:, 1] == tag]  # the tag's T grid points
        n = counts.sum()
        assert n == np.sum(tags == tag)
        p = synth_density(spec, z, cfg.clamp_eps)
        band = 4 * np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= band), tag


def test_gen_example_conditional_target_mean():
    # Y | v1 = +1 is a positively weighted chi-square sum with mean
    # sum_j lambda_j and variance 2 sum_j lambda_j^2
    cfg = ExperimentConfig(n_tokens=1)
    spec = cfg.spectrum(1.0)
    lam = spec.eigenvalues()[1:]
    rng = np.random.default_rng(2)
    draws = [gen_example(spec, cfg, rng) for _ in range(8000)]
    for v1 in (1.0, -1.0):
        ys = np.array([ex.target for ex in draws if ex.query_token[1] == v1])
        mean_want = v1 * float(lam.sum())
        sigma = math.sqrt(2.0 * float((lam**2).sum()) / ys.size)
        assert abs(ys.mean() - mean_want) <= 3.0 * sigma


def reference_example(spec, cfg, rng):
    """One example drawn token by token, as gen_example once drew it.

    Returns tokens, counts, query, target and (z1, z2, v1); each token picks
    its component with probability 1/2, then its grid point by inverse cdf,
    so the counts are the oracle for the law of _gen's multinomial draws.
    """
    v1 = 1.0 if rng.random() < 0.5 else -1.0
    z1 = rng.standard_normal(spec.M)
    z2 = rng.standard_normal(spec.M)
    z1[0] = 0.0
    z2[0] = 0.0
    comp = rng.choice(2, size=cfg.n_tokens, p=[0.5, 0.5])
    u = rng.random(cfg.n_tokens)
    index = np.empty(cfg.n_tokens, dtype=np.intp)
    for i, (z, tag) in enumerate(((z1, v1), (z2, -v1))):
        cdf = np.cumsum(synth_density(spec, z, cfg.clamp_eps))
        cdf[-1] = max(cdf[-1], 1.0)
        mask = comp == i
        pos = np.minimum(np.searchsorted(cdf, u[mask], side="right"), spec.T - 1)
        index[mask] = pos + (spec.T if tag > 0 else 0)
    return (ATOMS[index], np.bincount(index, minlength=2 * spec.T),
            np.array([0.0, v1]), float(_targets(spec.eigenvalues(), v1, z1)),
            (z1, z2, v1))


def test_gen_counts_follow_the_token_by_token_law():
    # at few tokens a context's counts are far from their mean, so the joint
    # law shows: per-atom mean counts against the oracle's, and the count on
    # tag v1, Binomial(n, 1/2), against its mean and variance
    cfg = replace(SMALL, n_tokens=10)
    spec = cfg.spectrum(1.0)
    N, T, n = 4000, cfg.T, cfg.n_tokens
    data = _gen(cfg, spec, N, 0)
    rng = np.random.default_rng(1)
    ref = np.array([reference_example(spec, cfg, rng)[1] for _ in range(N)])
    assert data.counts.shape == ref.shape == (N, 2 * T)
    assert np.all(data.counts.sum(axis=1) == n)
    se = np.sqrt((data.counts.var(axis=0) + ref.var(axis=0)) / N)
    gap = np.abs(data.counts.mean(axis=0) - ref.mean(axis=0))
    assert np.all(gap <= 5 * se)
    on_v1 = np.where(data.queries[:, 1] > 0, data.counts[:, T:].sum(axis=1),
                     data.counts[:, :T].sum(axis=1))
    # Binomial(10, 1/2): variance 2.5, fourth central moment 17.5
    assert abs(on_v1.mean() - n / 2) <= 5 * math.sqrt(n / 4 / N)
    assert abs(on_v1.var() - n / 4) <= 5 * math.sqrt((17.5 - 2.5**2) / N)


def test_gen_working_memory_does_not_grow_with_context_length():
    cfg = replace(SMALL, n_tokens=100_000)
    spec = cfg.spectrum(1.0)
    _gen(cfg, spec, 1, 0)  # build the basis and atoms outside the measurement
    tracemalloc.start()
    try:
        data = _gen(cfg, spec, 16, 0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(data.counts.sum(axis=1) == cfg.n_tokens)
    # the working arrays are (16, 2T) and (16, 2, M), whatever n_tokens is
    assert peak - kept < 2**20


# ------------------------------------------------------- attention stats

def _stats_from_rows(rows_per_example, same_masks):
    """_validate's stats for examples whose attention rows are given.

    Token t of an example is on the query's tag where its mask is True and
    on the other tag elsewhere; _attention_stats gets each example's
    per-head masses on the two sides and its token count on each, as
    _validate hands it _score_rows' masses.
    """
    mass = np.array([[[row[same].sum(), row[~same].sum()] for row in rows]
                     for rows, same in zip(rows_per_example, same_masks)])
    sides = np.array([[same.sum(), (~same).sum()] for same in same_masks])
    return _attention_stats(mass, sides)


def test_stats_from_hand_built_rows():
    rows = [np.array([[0.5, 0.5, 0.0, 0.0]])]
    masks = [np.array([True, True, False, False])]
    stats = _stats_from_rows(rows, masks)
    assert stats.m_same_mean[0] == 1.0
    assert stats.m_diff_mean[0] == 0.0
    assert stats.w_same_mean[0] == 0.5
    assert stats.w_diff_mean[0] == 0.0


def test_stats_aggregation_across_examples():
    rows = [np.array([[0.25, 0.25, 0.25, 0.25]]),
            np.array([[0.7, 0.1, 0.1, 0.1]])]
    masks = [np.array([True, True, False, False]),
             np.array([True, False, False, False])]
    stats = _stats_from_rows(rows, masks)
    assert stats.m_same_mean[0] == pytest.approx((0.5 + 0.7) / 2)
    assert stats.m_diff_mean[0] == pytest.approx((0.5 + 0.3) / 2)
    assert stats.w_diff_mean[0] == pytest.approx((0.25 + 0.1) / 2)


def test_stats_with_single_sided_example():
    # an all-same example must not contribute to the different-tag side
    rows = [np.full((1, 3), 1.0 / 3.0), np.array([[0.5, 0.25, 0.25]])]
    masks = [np.array([True, True, True]),
             np.array([True, False, False])]
    stats = _stats_from_rows(rows, masks)
    assert stats.m_same_mean[0] == pytest.approx((1.0 + 0.5) / 2)
    assert stats.m_diff_mean[0] == pytest.approx(0.5)  # second example only


def stats_loop_reference(rows_per_example, same_masks):
    """Per-head, per-example loop with boolean-mask indexing."""
    n_heads = rows_per_example[0].shape[0]
    acc = {k: [[] for _ in range(n_heads)] for k in ("ws", "wd", "ms", "md")}
    for rows, same in zip(rows_per_example, same_masks):
        diff = ~same
        for h in range(n_heads):
            if same.any():
                acc["ws"][h].append(rows[h, same].mean())
                acc["ms"][h].append(rows[h, same].sum())
            if diff.any():
                acc["wd"][h].append(rows[h, diff].mean())
                acc["md"][h].append(rows[h, diff].sum())

    def agg(key, fn):
        return np.array([fn(v) if v else np.nan for v in acc[key]])

    return {"w_same_mean": agg("ws", np.mean), "w_diff_mean": agg("wd", np.mean),
            "w_same_std": agg("ws", np.std), "w_diff_std": agg("wd", np.std),
            "m_same_mean": agg("ms", np.mean), "m_diff_mean": agg("md", np.mean),
            "m_same_std": agg("ms", np.std), "m_diff_std": agg("md", np.std)}


@pytest.mark.parametrize("one_sided", ["none", "some", "all_same"])
def test_stats_match_loop_reference_bitwise(one_sided):
    rng = np.random.default_rng(11)
    H, T = 4, 257
    rows, masks = [], []
    for i in range(37):
        logits = rng.normal(size=(H, T)) * 3.0
        rows.append(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
        same = rng.random(T) < rng.uniform(0.1, 0.9)
        if one_sided == "all_same" or (one_sided == "some" and i % 5 == 0):
            same[:] = True
        if one_sided == "some" and i % 7 == 3:
            same[:] = False
        masks.append(same)
    stats = _stats_from_rows(rows, masks)
    # the reference's np.mean and np.std add a 1-d list of examples
    # pairwise, _attention_stats adds each head's examples one after
    # another: a few ulp apart
    for key, want in stats_loop_reference(rows, masks).items():
        np.testing.assert_allclose(getattr(stats, key), want,
                                   rtol=4 * np.finfo(np.float64).eps, atol=0,
                                   equal_nan=True, err_msg=key)


def test_stats_sum_each_heads_examples_in_sequence(monkeypatch):
    # _attention_stats gets a model's masses as (examples, H) with the heads
    # on the contiguous axis, so its mean and std add each head's examples
    # one after another, not pairwise as a contiguous 1-d array would; the
    # one-model and the stacked pass both keep that order
    from measure_attn import experiment
    cfg = replace(SMALL, n_val=3 * 64, n_stat_examples=2 * 64 + 40)
    data, n_stat = _val_set(cfg, cfg.spectrum(1.0), 1.0, 0), cfg.n_stat_examples
    models = [StudentModel.init(cfg.student, s) for s in range(3)]
    seen, real = [], experiment._attention_stats

    def recording(mass, sides):
        seen.append((mass.copy(), sides.copy()))
        return real(mass, sides)

    monkeypatch.setattr(experiment, "_attention_stats", recording)
    stacked = _validate(models, data, n_stat)
    pairwise_apart = 0
    for i, (model, (_, stack_stats)) in enumerate(zip(models, stacked)):
        stats = _validate([model], data, n_stat)[0][1]
        mass, sides = seen[len(models) + i]   # the model's own call
        assert mass.shape[0] == sides.shape[0] == n_stat
        assert mass.tobytes() == seen[i][0].tobytes()
        values = {}
        for j, side in enumerate(("same", "diff")):
            has = sides[:, j] > 0
            values[f"m_{side}"] = mass[has, :, j].tolist()   # (examples, H)
            values[f"w_{side}"] = (mass[has, :, j] / sides[has, j, None]).tolist()
        for key, per_example in values.items():
            for h, xs in enumerate(zip(*per_example)):
                mean = functools.reduce(operator.add, xs) / len(xs)
                dev = [x - mean for x in xs]
                sq = functools.reduce(operator.add, [d * d for d in dev])   # as np.std
                for got in (stats, stack_stats):
                    assert getattr(got, f"{key}_mean")[h] == mean, (key, h)
                    assert getattr(got, f"{key}_std")[h] == math.sqrt(sq / len(xs))
                pairwise_apart += float(np.mean(xs)) != mean
    assert pairwise_apart > 0   # the order is visible in these digits


@pytest.mark.parametrize("H", [1, 4])
def test_stacked_validate_is_each_models_own_call_bitwise(H):
    cfg = replace(SMALL, n_val=2 * 64 + 9, n_stat_examples=64 + 3,
                  student=StudentConfig(n_heads=H))
    data = _val_set(cfg, cfg.spectrum(1.0), 1.0, 0)
    models = [StudentModel.init(cfg.student, s) for s in range(4)]
    for n_stat in (0, cfg.n_stat_examples):
        for model, (val_mse, stats) in zip(models, _validate(models, data, n_stat)):
            (want_mse, want), = _validate([model], data, n_stat)
            assert isinstance(val_mse, float) and val_mse == want_mse
            if n_stat == 0:
                assert stats is None and want is None
                continue
            for key, arr in vars(want).items():
                assert getattr(stats, key).tobytes() == arr.tobytes(), key


def _score(models, data):
    """model._score_rows of the models, as one stack, over data's rows."""
    b = _block_views(_layout(models[0].config), np.stack([m.params for m in models]))
    return _score_rows(b, models[0].config, data.atoms, data.queries, data.counts)


def _rows_through_forward(model, data):
    """Each row of data through its own one-row _forward: the predictions
    (N,) and each head's masses on the query's tag and on the rest (N, H, 2)."""
    preds, masses = [], []
    for q, counts in zip(data.queries, data.counts):
        f = _forward(model._blocks, model.config, data.atoms, q[None], counts[None])
        same = data.atoms[:, 1] == q[1]
        preds.append(f["pred"][0])
        masses.append(np.stack([f["attn"][:, 0, same].sum(axis=-1),
                                f["attn"][:, 0, ~same].sum(axis=-1)], axis=-1))
    return np.array(preds), np.array(masses)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("H", [1, 4])
def test_score_rows_match_forward_row_by_row(monkeypatch, activation, H):
    from measure_attn import model as student
    cfg = replace(SMALL, n_val=40,
                  student=StudentConfig(n_heads=H, activation=activation))
    data = _val_set(cfg, cfg.spectrum(1.0), 1.0, 0)
    model = StudentModel.init(cfg.student, 3)
    model._blocks["attn_k"][...] *= 8.0   # scores far apart: the stabilizer counts
    T, counts = cfg.T, data.counts.copy()
    # no row has a token on an atom that some head scores highest under
    # either query, so the max over all atoms is not the max over the set's
    f = _forward(model._blocks, cfg.student, data.atoms,
                 np.array([[0.0, -1.0], [0.0, 1.0]]), np.ones((2, 2 * T)))
    counts[:, f["attn"].argmax(axis=-1).ravel()] = 0
    counts[1, :T] = 0   # a context all on tag +1
    counts[2, T:] = 0   # and one all on tag -1
    assert counts.sum(axis=1).min() > 0
    queries = data.queries[np.random.default_rng(0).permutation(len(counts))]
    data = replace(data, counts=counts, queries=queries)
    rescored = []
    monkeypatch.setattr(student, "_forward", lambda *args: rescored.append(args))
    pred, mass, sides = _score([model], data)
    assert rescored == []
    want_pred, want_mass = _rows_through_forward(model, data)
    np.testing.assert_allclose(pred[0], want_pred, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mass[0], want_mass, rtol=1e-12, atol=0)
    same = data.atoms[:, 1] == queries[:, 1:]
    np.testing.assert_array_equal(sides, np.stack([(counts * same).sum(axis=1),
                                                   (counts * ~same).sum(axis=1)], axis=1))


def test_a_row_whose_normalizer_underflows_goes_through_forward(monkeypatch):
    from measure_attn import model as student
    cfg = replace(SMALL, n_val=2, student=StudentConfig(n_heads=4))
    data = _val_set(cfg, cfg.spectrum(1.0), 1.0, 0)
    steep, plain = (StudentModel.init(cfg.student, s) for s in (2, 3))
    steep._blocks["attn_k"][...] *= 1e4
    q = data.queries[:1]
    f = _forward(steep._blocks, cfg.student, data.atoms, q, np.ones((1, 2 * cfg.T)))
    scores = (f["head_q"] @ f["head_k"].swapaxes(-1, -2))[0, 0]   # head 0's
    low, high = scores.argmin(), scores.argmax()
    assert (scores[high] - scores[low]) / math.sqrt(cfg.student.head_dim) > 800
    forward, rescored = student._forward, []

    def spy(b, cfg_, C, queries, weights):
        rescored.append(weights.tolist())
        return forward(b, cfg_, C, queries, weights)

    monkeypatch.setattr(student, "_forward", spy)
    # a zero-count atom does not set the stabilizer: with every token on
    # head 0's lowest-scoring atom, no row underflows
    counts = np.zeros_like(data.counts)
    counts[:, low] = [3, 5]
    data = replace(data, counts=counts, queries=np.repeat(q, 2, axis=0))
    pred, _, _ = _score([steep], data)
    assert rescored == []
    np.testing.assert_allclose(pred[0], _rows_through_forward(steep, data)[0],
                               rtol=1e-12, atol=0)
    counts[0, high] = 1   # row 0 puts the set's max at head 0's top atom,
    counts[0, low] = 1    # so row 1's head-0 normalizer is below exp(-800) = 0
    pred, mass, _ = _score([steep, plain], data)
    assert rescored == [counts[1:].tolist()]   # row 1 alone, once
    want = forward(steep._blocks, cfg.student, data.atoms, q, counts[1:])
    assert pred[0, 1] == want["pred"][0]
    assert np.isfinite(pred).all() and np.isfinite(mass).all()
    # the plain model keeps its factored row 1: each model's rows are its own call
    for i, model in enumerate((steep, plain)):
        alone = _score([model], data)
        assert pred[i].tobytes() == alone[0][0].tobytes()
        assert mass[i].tobytes() == alone[1][0].tobytes()
    assert rescored[1:] == [counts[1:].tolist()]   # only the steep model's call


@pytest.mark.parametrize("empty", [[3], slice(None)], ids=["one-row", "every-row"])
def test_a_zero_mass_row_still_has_no_softmax_normalizer(empty):
    data = _val_set(SMALL, SMALL.spectrum(1.0), 1.0, 0)
    counts = data.counts.copy()
    counts[empty] = 0
    with pytest.raises(ValueError, match="softmax normalizer vanished"):
        _validate([StudentModel.init(SMALL.student, 0)], replace(data, counts=counts))


def test_a_nan_query_scores_nan_like_forward():
    # rows are grouped by their query's bits, so a NaN query is a group of
    # its own and the pass ends, with a NaN MSE as _forward gives
    data = _val_set(SMALL, SMALL.spectrum(1.0), 1.0, 0)
    queries = data.queries.copy()
    queries[[2, 4], 1] = np.nan
    data = replace(data, queries=queries)
    model = StudentModel.init(SMALL.student, 0)
    pred, mass, _ = _score([model], data)
    assert np.isnan(pred[0, [2, 4]]).all() and np.isfinite(np.delete(pred[0], [2, 4])).all()
    assert math.isnan(_validate([model], data)[0][0])
    np.testing.assert_allclose(np.delete(pred[0], [2, 4]),
                               np.delete(_rows_through_forward(model, data)[0], [2, 4]),
                               rtol=1e-12, atol=0)


# ------------------------------------------- a context set in row blocks
#
# _draw and _score_rows take a set one block of rows at a time.  The two
# functions below do the same arithmetic over a whole set, or all of a
# query's rows, at once: references the blocks must match bitwise.

def _whole_set_draw(spec, cfg, rng, rows):
    """A set's counts, queries, targets and latents with every pmf from one
    synth_density arithmetic over the set, flipped and copied by tag."""
    queries = np.zeros((rows, 2))
    v1 = queries[:, 1] = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    z = rng.standard_normal((rows, 2, spec.M))
    z[:, :, 0] = 0.0
    vals = ((spec.eigenvalues() * z)[..., None, :] @ spec.basis_matrix())[..., 0, :]
    clamped = np.maximum(vals, cfg.clamp_eps)
    pmf = clamped / clamped.sum(axis=-1, keepdims=True)
    pmf = 0.5 * np.where((v1 > 0)[:, None, None], pmf[:, ::-1], pmf).reshape(rows, -1)
    counts = rng.multinomial(cfg.n_tokens, pmf[0] if rows == 1 else pmf)
    return (counts.reshape(rows, -1), queries,
            _targets(spec.eigenvalues(), v1, z[:, 0]), z)


def _whole_group_scores(b, cfg, C, queries, counts):
    """_score_rows with each query's rows as one GEMM, and its underflowing
    rows as one _forward call."""
    S, (N, A), H, hd = b["head_b2"].shape[0], counts.shape, cfg.n_heads, cfg.head_dim
    ctx = _context_side(b, cfg, C)
    live, tiny = counts.any(axis=0), np.finfo(np.float64).tiny
    pred, mass, sides = np.empty((S, N)), np.empty((S, N, H, 2)), np.empty((N, 2), int)
    bits = queries.view(np.uint64)
    for q in np.unique(queries, axis=0):
        rows = np.flatnonzero((bits == q.view(np.uint64)).all(axis=1))
        side = np.stack([C[:, -1] == q[-1], C[:, -1] != q[-1]], axis=-1)
        s = (1.0 / math.sqrt(hd)) * (_query_side(b, cfg, q[None])["head_q"]
                                     @ ctx["head_k"].swapaxes(-1, -2))[..., 0, :]
        top = np.where(live, s, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(live, s - top, -np.inf))[..., None]
        cols = np.concatenate([e * ctx["head_v"], e * side], axis=-1).swapaxes(1, 2)
        w = counts[rows]
        x = (w @ cols.reshape(S, A, -1)).reshape(S, len(rows), H, hd + 2)
        z = x[..., hd:hd + 1] + x[..., hd + 1:]
        x /= np.maximum(z, tiny)
        p = _head(b, cfg, x[..., :hd].reshape(S, len(rows), -1))["pred"]
        m, low = x[..., hd:], (z < tiny).any(axis=(2, 3))
        if low.any():
            redo = low.any(axis=0)
            f = _forward(b, cfg, C, queries[rows[redo]], w[redo])
            p[:, redo] = np.where(low[:, redo], f["pred"], p[:, redo])
            m[:, redo] = np.where(low[:, redo, None, None],
                                  (f["attn"] @ side).swapaxes(1, 2), m[:, redo])
        pred[:, rows], mass[:, rows], sides[rows] = p, m, w @ side
    return pred, mass, sides


# one row, fewer rows than a block, a block and one row (a lone last row),
# and three blocks and more with ragged ends
BLOCK_ROWS = (1, 5, _BLOCK + 1, 3 * _BLOCK + 1, 3 * _BLOCK + 2, 3 * _BLOCK + 77)


@pytest.mark.parametrize("n_tokens", [3, 1000])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_a_set_drawn_in_blocks_is_the_whole_set_draw_bitwise(rows, n_tokens):
    # at 3 tokens most atoms of a context have no count
    cfg = replace(SMALL, n_tokens=n_tokens)
    spec = cfg.spectrum(1.0)
    data, z = _draw(spec, cfg, np.random.default_rng(rows), rows)
    want = _whole_set_draw(spec, cfg, np.random.default_rng(rows), rows)
    for got, arr in zip((data.counts, data.queries, data.targets, z), want):
        assert got.dtype == arr.dtype and np.array_equal(got, arr)
    assert data.counts.sum(axis=1).tolist() == [n_tokens] * rows


def _steep_rows(model, cfg, atoms, q, counts, rows):
    """Puts the given rows' tokens all on head 0's lowest-scoring atom under
    query q, and one token of row 0 on its highest: the rows' head-0
    normalizers of the steepened model then underflow."""
    model._blocks["attn_k"][...] *= 1e4
    f = _forward(model._blocks, cfg.student, atoms, q[None], np.ones((1, len(atoms))))
    scores = f["head_q"][0, 0] @ f["head_k"][0].T
    counts[rows] = 0
    counts[rows, scores.argmin()] = 2
    counts[0, scores.argmax()] += 1


@pytest.mark.parametrize("one_query", [False, True], ids=["drawn-queries", "one-query"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_rows_scored_in_blocks_are_the_whole_group_gemm_bitwise(rows, one_query):
    cfg = replace(SMALL, n_tokens=3, student=StudentConfig(n_heads=4))
    data = _draw(cfg.spectrum(1.0), cfg, np.random.default_rng(rows), rows)[0]
    counts, queries = data.counts.copy(), data.queries.copy()
    if one_query:   # one group of every row, so a lone last row is a block's
        queries[:] = queries[0]
    if rows > 2:   # a context all on tag -1, and one all on tag +1
        counts[1, :cfg.T], counts[1, cfg.T + 3] = 0, 4
        counts[2, cfg.T:], counts[2, 5] = 0, 4
    models = [StudentModel.init(cfg.student, s) for s in range(3)]
    steep = np.flatnonzero((queries == queries[0]).all(axis=1))[3::2]
    if len(steep):   # every other row of query 0 (row 0's) underflows in model 2
        _steep_rows(models[2], cfg, data.atoms, queries[0], counts, steep)
    b = _block_views(_layout(cfg.student), np.stack([m.params for m in models]))
    got = _score_rows(b, cfg.student, data.atoms, queries, counts)
    want = _whole_group_scores(b, cfg.student, data.atoms, queries, counts)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.isfinite(got[0]).all() and np.isfinite(got[1]).all()
    if rows > _BLOCK + 1 and one_query:   # the fallback's rows span blocks too
        assert len(steep) > _BLOCK + 1


def test_a_context_set_is_drawn_and_scored_in_one_block_of_working_memory():
    # 8 blocks of rows at 5,000 tokens: beyond the set's own arrays (and its
    # latents, or the scores), a draw or a scoring pass holds about 4 blocks
    # of float counts; whole-set temporaries held 17 and 10
    cfg = replace(SMALL, n_tokens=5000, n_val=8 * _BLOCK)
    spec, block = cfg.spectrum(1.0), _BLOCK * 2 * cfg.T * 8   # a block of float counts
    model = StudentModel.init(cfg.student, 0)
    _validate([model], _gen(cfg, spec, 3, np.random.SeedSequence(0)), 3)   # warm up
    tracemalloc.start()
    try:
        data = _gen(cfg, spec, cfg.n_val, np.random.SeedSequence(1))
        drawn = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _validate([model], data, _BLOCK)
        scored = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    N, H = cfg.n_val, cfg.student.n_heads
    own = data.counts.nbytes + data.queries.nbytes + data.targets.nbytes
    latents = N * 2 * cfg.M * 8
    assert drawn < own + latents + 8 * block
    scores = N * 8 + N * H * 2 * 8 + N * 2 * 8   # pred, masses and sides
    assert scored < scores + 8 * block


def test_spectrum_is_one_shared_read_only_object_per_alpha_M_T():
    spec = SMALL.spectrum(1.0)
    assert SMALL.spectrum(1.0) is spec
    assert replace(SMALL, seed=9, n_val=3).spectrum(1.0) is spec
    assert SMALL.spectrum(2.0) is not spec and replace(SMALL, M=4).spectrum(1.0) is not spec
    assert spec == MercerSpectrum(1.0, SMALL.M, SMALL.T)
    for arr in (spec.domain_grid, spec.eigenvalues(), spec.basis_matrix()):
        assert not arr.flags.writeable
    for alpha in (True, [1.0]):   # checked before the cache: True is not alpha 1
        with pytest.raises(ValueError, match="^alpha must be positive"):
            SMALL.spectrum(alpha)


def test_uniform_attention_balanced_tags_mass_statistics():
    # an all-zero student attends uniformly: per-token weight 1/T and
    # half the mass on each tag side
    model = StudentModel(StudentConfig())
    items = balanced_items(3, T=5000)
    stats = attention_mass_stats(model, items)
    np.testing.assert_allclose(stats.w_same_mean, 2e-4, rtol=1e-12)
    np.testing.assert_allclose(stats.w_diff_mean, 2e-4, rtol=1e-12)
    np.testing.assert_allclose(stats.m_same_mean, 0.5, rtol=1e-12)
    np.testing.assert_allclose(stats.m_diff_mean, 0.5, rtol=1e-12)


def test_attention_masses_partition_to_one():
    rng = np.random.default_rng(3)
    model = StudentModel.init(StudentConfig(), rng)
    items = balanced_items(4, T=12, rng=rng)
    stats = attention_mass_stats(model, items)
    np.testing.assert_allclose(stats.m_same_mean + stats.m_diff_mean, 1.0,
                               atol=1e-9)


def test_attention_stats_round_trip_and_empty_input():
    model = StudentModel(StudentConfig())
    stats = attention_mass_stats(model, balanced_items(2, T=6))
    np.testing.assert_array_equal(stats.to_dict()["m_same_mean"], stats.m_same_mean)
    with pytest.raises(ValueError):
        attention_mass_stats(model, [])


# ----------------------------------------------------------- query shuffle

def test_shuffle_query_independent_model_sees_no_difference():
    model = StudentModel(StudentConfig())  # predicts 0 for every query
    items = balanced_items(5, T=8)
    orig, shuf = query_shuffle_eval(model, items, seed=9)
    assert shuf == orig


def test_shuffle_explicit_permutation_manual_oracle():
    rng = np.random.default_rng(5)
    model = StudentModel.init(StudentConfig(), rng)
    items = (balanced_items(2, T=8, rng=rng)
             + balanced_items(2, T=8, query_tag=-1.0, rng=rng))
    seed = 2
    perm = np.random.default_rng(seed).permutation(len(items))
    assert not np.array_equal(perm, np.arange(len(items)))
    orig, shuf = query_shuffle_eval(model, items, seed=seed)
    # example i keeps its context and target and takes example perm[i]'s query
    want = np.mean([(model.forward(ex.context_tokens, items[p].query_token)[0]
                     - ex.target) ** 2 for ex, p in zip(items, perm)])
    assert shuf == pytest.approx(want, rel=1e-15)
    assert 0.0 <= orig != shuf


def test_shuffle_validation():
    model = StudentModel(StudentConfig())
    items = balanced_items(3, T=4)
    with pytest.raises(ValueError):
        query_shuffle_eval(model, items[:1])


def test_shuffle_deterministic_in_seed():
    rng = np.random.default_rng(6)
    model = StudentModel.init(StudentConfig(), rng)
    items = balanced_items(5, T=6, rng=rng)
    assert (query_shuffle_eval(model, items, seed=3)
            == query_shuffle_eval(model, items, seed=3))


# --------------------------------------------------------------- run_cell

def test_run_cell_runs_one_forward_pass_per_minibatch_and_none_to_validate(
        monkeypatch):
    from measure_attn import model
    # 2T tokens per context, so every set of contexts fits one pass over the
    # 2T shared atoms; validation scores its rows without _forward
    cfg = replace(SMALL, n_tokens=2 * SMALL.T, n_val=64 + 3)
    sizes = []
    forward = model._forward

    def counting(b, cfg, C, q, weights):
        sizes.append(weights.shape[-2])   # (stack, batch, atoms)
        return forward(b, cfg, C, q, weights)

    monkeypatch.setattr(model, "_forward", counting)
    n, bs = 4, cfg.train.batch_size
    run_cell(1.0, n, 0, cfg)
    assert sizes == [bs] * (n // bs * cfg.train.epochs)


def test_run_cell_mse_and_stats_match_separate_passes():
    val_mse, model, result = run_cell(1.0, 4, 0, SMALL)
    # run_cell's validation set, with each row's tokens
    val_set = _val_set(SMALL, SMALL.spectrum(1.0), 1.0, 0)
    assert val_mse == _validate([model], val_set)[0][0]
    tokens = [np.repeat(val_set.atoms, c, axis=0) for c in val_set.counts]
    token_mse = np.mean([(model.forward(C, q)[0] - y) ** 2 for C, q, y
                         in zip(tokens, val_set.queries, val_set.targets)])
    assert val_mse == pytest.approx(token_mse, rel=1e-12)
    stat_rows = list(zip(tokens, val_set.queries))[:SMALL.n_stat_examples]
    rows = []
    for C, q in stat_rows:   # per-token rows from the pass over the tokens' runs
        cache = model.forward(C, q)[1]
        runs = cache.weights[0].astype(int)
        rows.append(np.repeat(cache.attn[:, 0] / cache.weights[0], runs, axis=-1))
    masks = [C[:, 1] == q[1] for C, q in stat_rows]
    for key, want in stats_loop_reference(rows, masks).items():
        np.testing.assert_allclose(getattr(result.stats, key), want,
                                   rtol=1e-12, atol=0, err_msg=key)


def test_run_cell_deterministic_and_consistent():
    mse1, model1, res1 = run_cell(1.0, 2, 0, SMALL)
    mse2, model2, res2 = run_cell(1.0, 2, 0, SMALL)
    assert mse1 == mse2
    np.testing.assert_array_equal(model1.params, model2.params)
    assert res1.train_losses == res2.train_losses
    assert mse1 >= 0.0
    assert res1.alpha == 1.0 and res1.n == 2 and res1.seed == 0
    assert len(res1.train_losses) == SMALL.train.epochs
    assert res1.val_mse == mse1
    assert res1.stats.w_same_mean.shape == (SMALL.student.n_heads,)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda out: run_cell(1.0, 0, 0, SMALL), "n", id="run-cell-n-0"),
    pytest.param(lambda out: run_cell(1.0, 4.0, 0, SMALL), "n", id="run-cell-n-float"),
    pytest.param(lambda out: run_cell(1.0, 2, True, SMALL), "seed",
                 id="run-cell-seed-bool"),
    pytest.param(lambda out: sweep(SMALL, out, jobs=0), "jobs", id="sweep-jobs-0"),
    pytest.param(lambda out: sweep(SMALL, out, jobs=2.5), "jobs",
                 id="sweep-jobs-float"),
])
def test_run_cell_and_sweep_validate_settings(tmp_path, call, name):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(str(out))
    assert not out.exists()   # checked before anything is written


@pytest.mark.parametrize("seed", [True, 1.5], ids=["bool", "float"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda seed: gen_example(SMALL.spectrum(1.0), SMALL, seed),
                 id="gen-example"),
    pytest.param(lambda seed: query_shuffle_eval(
        StudentModel.init(SMALL.student, 0), balanced_items(2, T=6), seed),
                 id="query-shuffle"),
    pytest.param(lambda seed: StudentModel.init(SMALL.student, seed), id="init"),
    pytest.param(lambda seed: train([StudentModel.init(SMALL.student, 0)],
                                    [_gen(SMALL, SMALL.spectrum(1.0), 2, 0)],
                                    SMALL.train, [seed]), id="train"),
    pytest.param(lambda seed: _probe_trials(20, seed), id="probe"),
])
def test_every_seed_is_checked_by_one_rule(call, seed):
    # numpy alone would take True as seed 1 and reject 1.5 with a TypeError
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        call(seed)


def test_run_cell_seed_changes_result():
    mse_a, _, _ = run_cell(1.0, 2, 0, SMALL)
    mse_b, _, _ = run_cell(1.0, 2, 1, SMALL)
    assert mse_a != mse_b


# ------------------------------------------- contexts as counts on atoms

def test_gen_example_counts_its_tokens_on_shared_atoms():
    spec = SMALL.spectrum(1.0)
    a, b = (gen_example(spec, SMALL, seed) for seed in (123, 124))
    for ex in (a, b):
        assert np.issubdtype(ex.counts.dtype, np.integer)
        assert ex.counts.sum() == SMALL.n_tokens
        by_tag_then_x = ex.context_tokens[np.lexsort(ex.context_tokens.T)]
        np.testing.assert_array_equal(np.repeat(ex.atoms, ex.counts, axis=0),
                                      by_tag_then_x)
    assert a.atoms is b.atoms and a.atoms.shape == (2 * SMALL.T, 2)
    assert not a.atoms.flags.writeable


def test_grid_atoms_are_one_shared_array_per_T():
    for T in (1, 8, 32):
        atoms = _grid_atoms(T)
        assert atoms is _grid_atoms(T) and not atoms.flags.writeable
        x = (np.arange(1, T + 1) - 0.5) / T   # the midpoint grid, written out
        np.testing.assert_array_equal(atoms[:T], np.column_stack([x, -np.ones(T)]))
        np.testing.assert_array_equal(atoms[T:], np.column_stack([x, np.ones(T)]))
    assert _grid_atoms(8) is not _grid_atoms(32)
    # a spectrum holds its grid and its own arrays, and nothing else
    spec = SMALL.spectrum(1.0)
    ex = gen_example(spec, SMALL, 5)
    assert ex.atoms is _grid_atoms(SMALL.T)
    assert set(vars(spec)) == {"alpha", "M", "T", "domain_grid", "_eigenvalues", "_basis"}


def test_train_and_validate_reject_examples_on_different_atoms(monkeypatch):
    rng = np.random.default_rng(15)
    examples = [gen_example(SMALL.spectrum(1.0), SMALL, rng)
                for _ in range(64 + 2)]
    # the odd one out is the last
    examples[-1] = replace(examples[-1], atoms=examples[-1].atoms[::-1].copy())
    model = StudentModel.init(StudentConfig(), rng)
    before = model.params.copy()

    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran before the atoms were checked")

    monkeypatch.setattr(StudentModel, "forward", no_pass)
    # train and _validate read a Dataset, and Dataset.of refuses to stack these
    with pytest.raises(ValueError, match="atoms"):
        Dataset.of(examples)
    with pytest.raises(ValueError, match="atoms"):
        attention_mass_stats(model, examples)
    with pytest.raises(ValueError, match="atoms"):
        query_shuffle_eval(model, examples)
    np.testing.assert_array_equal(model.params, before)


def test_gen_dataset_is_stacked_gen_example_draws():
    # gen_example is _gen's one-row case, and _gen's Dataset, which holds no
    # tokens, is bitwise Dataset.of of Examples that wrap one draw's rows:
    # every result on the one is the result on the other
    spec = SMALL.spectrum(1.0)
    for seed in (0, 5, 123):
        ex, data = gen_example(spec, SMALL, seed), _gen(SMALL, spec, 1, seed)
        assert ex.counts.tobytes() == data.counts[0].tobytes()
        assert ex.query_token.tobytes() == data.queries[0].tobytes()
        assert ex.target == data.targets[0]
    sets = {}
    for count in (1, 17, 64 + 5):
        data = _gen(SMALL, spec, count, np.random.SeedSequence(count))
        drawn, z = _draw(spec, SMALL, np.random.default_rng(
            np.random.SeedSequence(count)), count)
        v1 = drawn.queries[:, 1]
        examples = [Example(_grid_atoms(spec.T), drawn.counts[i],
                            np.array([0.0, v1[i]]),
                            float(_targets(spec.eigenvalues(), v1[i], z[i, 0])),
                            z[i])
                    for i in range(count)]
        assert all(ex.context_tokens.shape == (SMALL.n_tokens, 2) for ex in examples)
        stacked = Dataset.of(examples)
        assert data.atoms is stacked.atoms
        for name in ("counts", "queries", "targets"):
            got, want = getattr(data, name), getattr(stacked, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        sets[count] = data, examples, stacked
    data, _, stacked = sets[17]
    cfg = replace(SMALL.train, epochs=3)
    m1, m2 = StudentModel.init(SMALL.student, 1), StudentModel.init(SMALL.student, 1)
    l1, = train([m1], [data], cfg, [2])
    l2, = train([m2], [stacked], cfg, [2])
    assert l1 == l2
    np.testing.assert_array_equal(m1.params, m2.params)
    data, examples, stacked = sets[64 + 5]
    (mse, stats), = _validate([m1], data, 10)
    (stacked_mse, stacked_stats), = _validate([m1], stacked, 10)
    assert mse == stacked_mse and stats.to_dict() == stacked_stats.to_dict()
    perm = np.random.default_rng(3).permutation(len(data.targets))
    shuffled = replace(data, queries=data.queries[perm])
    assert (query_shuffle_eval(m1, examples, seed=3)
            == (mse, _validate([m1], shuffled)[0][0]))


# ------------------------------------------------------------------- fits

def grid_fit(t, y, lo=-8.0, hi=8.0, rounds=60, size=81, keep=20):
    """Brute-force least squares over (A, C); oracle for fit_rate.

    Each round keeps the keep cells either side of the best grid point.  On
    an axis with a large common offset the SSE valley is narrow and long, so
    the best grid point can sit many cells along it from the minimum.
    """
    A_lo, A_hi, C_lo, C_hi = lo, hi, lo, hi
    best = (np.nan, np.nan)
    for _ in range(rounds):
        As = np.linspace(A_lo, A_hi, size)
        Cs = np.linspace(C_lo, C_hi, size)
        pred = As[:, None, None] - Cs[None, :, None] * t[None, None, :]
        sse = np.sum((y[None, None, :] - pred)**2, axis=2)
        i, j = np.unravel_index(np.argmin(sse), sse.shape)
        best = (As[i], Cs[j])
        dA = (A_hi - A_lo) / (size - 1)
        dC = (C_hi - C_lo) / (size - 1)
        A_lo, A_hi = As[i] - keep * dA, As[i] + keep * dA
        C_lo, C_hi = Cs[j] - keep * dC, Cs[j] + keep * dC
    return best


def test_scaling_axis_values_and_inf_limit():
    n = np.array([4, 16, 64])
    np.testing.assert_allclose(scaling_axis(1.0, n), np.sqrt(np.log(n)),
                               rtol=1e-15)
    np.testing.assert_array_equal(scaling_axis(np.inf, n), np.log(n))
    np.testing.assert_allclose(scaling_axis(1e12, n), np.log(n), rtol=1e-9)


def test_fit_rate_recovers_exact_collinear_input():
    A, C, alpha = 1.0, 2.0, 1.0
    n_values = (4, 16, 64, 256)
    t = scaling_axis(alpha, n_values)
    curve = RiskCurve(alpha, n_values, tuple(np.exp(A - C * t)),
                      (0.0,) * 4)
    fit = fit_rate(curve, alpha)
    assert fit.A == pytest.approx(A, abs=1e-10)
    assert fit.C == pytest.approx(C, abs=1e-10)
    assert fit.residual_rms <= 1e-10


def test_fit_rate_matches_grid_search_on_noisy_points():
    alpha = 1.0
    # at n up to 2**40 the axis is about 5.00, 5.13, 5.27: its common offset
    # is about 20 times its spread
    for n_values in [(4, 16, 64), (2**36, 2**38, 2**40)]:
        rng = np.random.default_rng(7)
        t = scaling_axis(alpha, n_values)
        y = 0.3 - 1.1 * t + 0.05 * rng.standard_normal(3)
        curve = RiskCurve(alpha, n_values, tuple(np.exp(y)), (0.0,) * 3)
        fit = fit_rate(curve, alpha)
        A_grid, C_grid = grid_fit(t, y)
        assert fit.A == pytest.approx(A_grid, abs=1e-6)
        assert fit.C == pytest.approx(C_grid, abs=1e-6)
        # the grid resolves (A, C) to about 1e-7; np.polyfit, which scales
        # its columns, pins them to 1e-12, where raw sums of t*y and t*t
        # miss A on the offset axis
        slope, intercept = np.polyfit(t, y, 1)
        assert fit.A == pytest.approx(intercept, rel=1e-12)
        assert fit.C == pytest.approx(-slope, rel=1e-12)


def test_fit_rate_inf_alpha_is_log_log_fit():
    n_values = (4, 16, 64)
    mse = (0.9, 0.5, 0.3)
    curve = RiskCurve(np.inf, n_values, mse, (0.0,) * 3)
    fit = fit_rate(curve, np.inf)
    slope, intercept = np.polyfit(np.log(n_values), np.log(mse), 1)
    assert fit.A == pytest.approx(intercept, rel=1e-12)
    assert fit.C == pytest.approx(-slope, rel=1e-12)


def test_fit_rate_affine_equivariance():
    # scaling every risk by k shifts A by log k and leaves C alone
    alpha = 0.5
    n_values = (4, 8, 32)
    rng = np.random.default_rng(8)
    mse = np.exp(rng.uniform(-2, 0, 3))
    base = fit_rate(RiskCurve(alpha, n_values, tuple(mse), (0.0,) * 3), alpha)
    k = 7.5
    scaled = fit_rate(RiskCurve(alpha, n_values, tuple(k * mse), (0.0,) * 3),
                      alpha)
    assert scaled.C == pytest.approx(base.C, abs=1e-12)
    assert scaled.A == pytest.approx(base.A + math.log(k), abs=1e-12)
    assert scaled.residual_rms == pytest.approx(base.residual_rms, abs=1e-12)


def test_fit_rate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_rate(RiskCurve(1.0, (4, 4), (0.5, 0.4), (0.0, 0.0)), 1.0)
    with pytest.raises(ValueError):
        fit_rate(RiskCurve(1.0, (4, 8), (0.5, 0.0), (0.0, 0.0)), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_fit_rate_rejects_non_finite_risk(bad):
    with pytest.raises(ValueError, match="finite"):
        fit_rate(RiskCurve(1.0, (4, 8, 16), (0.5, bad, 0.2), (0.0,) * 3), 1.0)
    # risk_curves keeps the curve, with no warning, and fits no rate to it
    # (the std of a non-finite row is nan)
    curves, fits = risk_curves([(1.0, 4, 0.5), (1.0, 8, bad), (1.0, 16, 0.2)])
    assert curves[1.0].n_values == (4, 8, 16) and fits == {}
    assert math.isnan(curves[1.0].std_mse[1])


def test_risk_curves_fit_without_polyfit_or_lapack(monkeypatch):
    rng = np.random.default_rng(9)
    rows = [(alpha, n, float(rng.uniform(0.1, 1.0)))
            for alpha in (0.5, 1.0, 2.0) for n in (4, 8, 16) for _ in range(2)]
    want = {}
    for alpha, curve in risk_curves(rows)[0].items():
        slope, intercept = np.polyfit(scaling_axis(alpha, curve.n_values),
                                      np.log(curve.mean_mse), 1)
        want[alpha] = (intercept, -slope)

    def refuse(*args, **kwargs):
        raise AssertionError("a rate fit called LAPACK")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    _, fits = risk_curves(rows)
    assert set(fits) == {0.5, 1.0, 2.0}
    for alpha, (A, C) in want.items():
        assert fits[alpha].A == pytest.approx(A, rel=1e-12)
        assert fits[alpha].C == pytest.approx(C, rel=1e-12)


def test_risk_curves_leave_numpy_ma_unimported():
    # numpy.ma costs tens of milliseconds to import, on the serial tail of
    # every sweep and analyze; a fresh interpreter shows whether fits load it
    code = ("import sys\n"
            "from measure_attn.experiment import risk_curves\n"
            "curves, fits = risk_curves([(1.0, 4, 0.5), (1.0, 8, 0.3), (1.0, 16, 0.2)])\n"
            "assert len(fits) == 1\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_only_a_sweep_that_starts_a_pool_imports_the_pool_modules(tmp_path):
    # multiprocessing and its pool cost about 2 MB in every process that
    # imports them; a fresh interpreter shows which calls load them
    code = ("import sys\n"
            "import measure_attn, measure_attn.cli, measure_attn.verify\n"
            "from measure_attn import ExperimentConfig, TrainConfig, run_cell, sweep\n"
            "cfg = ExperimentConfig(alpha_list=(1.0,), n_list=(2, 4), seeds=1,\n"
            "                       n_tokens=60, n_val=10, n_stat_examples=5,\n"
            "                       train=TrainConfig(epochs=2, batch_size=2))\n"
            "def pool_loaded():\n"
            "    return [m in sys.modules\n"
            "            for m in ('multiprocessing', 'concurrent.futures.process')]\n"
            "run_cell(1.0, 2, 0, cfg)\n"
            "assert sweep(cfg, sys.argv[1], jobs=1)['cells_failed'] == 0\n"
            "print(pool_loaded())\n"
            "assert sweep(cfg, sys.argv[2], jobs=2)['cells_failed'] == 0\n"
            "print(pool_loaded())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "serial"),
                          str(tmp_path / "pool")], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[False, False]", "[True, True]"]


# ------------------------------------------------------------------ sweep

def test_sweep_writes_bundle_and_resumes(tmp_path):
    out = str(tmp_path / "bundle")
    summary = sweep(SMALL, out)
    assert summary["cells_failed"] == 0
    assert summary["cells_total"] == 2
    for name in ("risk_curve.csv", "attention_stats.csv", "fit.json",
                 "scaling_axis.dat", "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    cells = sorted(os.listdir(os.path.join(out, "cells")))
    assert len(cells) == 2
    manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
    assert manifest["complete"]
    assert all(c["status"] == "done" for c in manifest["cells"].values())
    fit_doc = json.loads(Path(os.path.join(out, "fit.json")).read_text())
    assert len(fit_doc) == 1
    (entry,) = fit_doc.values()
    assert set(entry) >= {"A", "C", "residual_rms"}

    # resume: identical config must reuse every cell file untouched
    stamps = {c: os.stat(os.path.join(out, "cells", c)).st_mtime_ns
              for c in cells}
    risk_before = Path(os.path.join(out, "risk_curve.csv")).read_bytes()
    summary2 = sweep(SMALL, out)
    assert summary2["cells_failed"] == 0
    for c in cells:
        assert os.stat(os.path.join(out, "cells", c)).st_mtime_ns == stamps[c]
    assert Path(os.path.join(out, "risk_curve.csv")).read_bytes() == risk_before


def test_cell_result_to_dict_is_the_cell_payload(tmp_path):
    _, _, result = run_cell(1.0, 2, 0, SMALL)
    record = result.to_dict()
    assert list(record) == ["alpha", "n", "seed", "val_mse", "train_losses",
                            "attention_stats"]
    assert record["train_losses"] == list(result.train_losses)
    assert record["attention_stats"] == result.stats.to_dict()
    out = str(tmp_path / "bundle")
    sweep(SMALL, out)
    key, key_inputs = _cell_key(SMALL, 1.0, 2, 0)
    cell = json.loads(Path(os.path.join(out, "cells", key + ".json")).read_text())
    assert cell == json.loads(json.dumps({**record, "key_inputs": key_inputs}))


def test_sweep_records_non_finite_val_mse_as_failure(tmp_path, monkeypatch):
    from measure_attn import experiment
    validate = experiment._validate
    # a sweep scores a row's cells as one list of models
    monkeypatch.setattr(experiment, "_validate", lambda models, *args: [
        (math.nan, stats) for _, stats in validate(models, *args)])
    out = str(tmp_path / "bundle")
    summary = sweep(SMALL, out, jobs=1)
    assert summary["cells_failed"] == 2
    manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
    assert not manifest["complete"]
    for cell in manifest["cells"].values():
        assert cell["status"] == "failed"
        assert "non-finite val_mse" in cell["error"]
    assert os.listdir(os.path.join(out, "cells")) == []
    assert 1.0 not in summary["fits"]


def bundle_bytes(out):
    return {os.path.relpath(os.path.join(d, f), out):
            Path(os.path.join(d, f)).read_bytes()
            for d, _, files in os.walk(out) for f in files}


def test_sweep_resume_recomputes_cell_with_tampered_key_inputs(tmp_path):
    out = str(tmp_path / "bundle")
    sweep(SMALL, out)
    original = bundle_bytes(out)
    cells = sorted(os.listdir(os.path.join(out, "cells")))
    tampered, kept = (os.path.join(out, "cells", c) for c in cells)
    doc = json.loads(Path(tampered).read_text())
    doc["key_inputs"]["n_tokens"] += 1
    doc["val_mse"] = 123.0
    with open(tampered, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
    kept_stamp = os.stat(kept).st_mtime_ns
    summary = sweep(SMALL, out)
    assert summary["cells_failed"] == 0
    assert os.stat(kept).st_mtime_ns == kept_stamp
    assert bundle_bytes(out) == original

    # a cell file without key_inputs is not trusted either
    del doc["key_inputs"]
    with open(tampered, "w") as f:
        json.dump(doc, f)
    sweep(SMALL, out)
    assert bundle_bytes(out) == original

    # nor is one cut to half its bytes (not JSON) or one holding a list
    text = Path(tampered).read_bytes()
    Path(tampered).write_bytes(text[:len(text) // 2])
    Path(kept).write_text("[]")
    with pytest.raises(json.JSONDecodeError):
        json.loads(Path(tampered).read_text())
    with pytest.raises(TypeError):
        json.loads(Path(kept).read_text())["key_inputs"]
    assert sweep(SMALL, out)["cells_failed"] == 0
    assert bundle_bytes(out) == original


def test_sweep_resume_recomputes_a_cell_file_without_its_results(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    out = str(tmp_path / "bundle")
    sweep(cfg, out)
    original = bundle_bytes(out)
    cells = os.path.join(out, "cells")
    by_name = {_cell_key(cfg, 1.0, n, s)[0] + ".json": (1.0, n, s)
               for n in cfg.n_list for s in range(cfg.seeds)}
    names = sorted(by_name)
    # one file without val_mse, one without attention_stats, one with a
    # stats column a head short: each parses and has the right key_inputs
    for name, cut in zip(names, ("val_mse", "attention_stats", "m_diff_mean")):
        path = os.path.join(cells, name)
        doc = json.loads(Path(path).read_text())
        if cut in doc:
            del doc[cut]
        else:
            doc["attention_stats"][cut].pop()
        Path(path).write_text(json.dumps(doc))
    kept = names[3]
    kept_stamp = os.stat(os.path.join(cells, kept)).st_mtime_ns
    recomputed = []
    real_setup = experiment._cell_setup

    def spy(cfg_, *cell):
        recomputed.append(cell)
        return real_setup(cfg_, *cell)

    monkeypatch.setattr(experiment, "_cell_setup", spy)
    assert sweep(cfg, out)["cells_failed"] == 0
    assert sorted(recomputed) == sorted(by_name[name] for name in names[:3])
    assert os.stat(os.path.join(cells, kept)).st_mtime_ns == kept_stamp
    assert bundle_bytes(out) == original


def test_sweep_reproducible_across_directories_and_jobs(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    sweep(SMALL, out1, jobs=1)
    sweep(SMALL, out2, jobs=2)
    for name in ("risk_curve.csv", "attention_stats.csv", "fit.json",
                 "scaling_axis.dat"):
        b1 = Path(os.path.join(out1, name)).read_bytes()
        b2 = Path(os.path.join(out2, name)).read_bytes()
        assert b1 == b2, name


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="pool workers must inherit the monkeypatched functions")


@FORK_ONLY
def test_sweep_resumes_after_a_killed_worker(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)

    val_set = experiment._val_set

    def dying(cfg, spec, alpha, seed):
        if seed == 1:
            os._exit(1)   # the worker scoring row seed 1 dies without raising
        return val_set(cfg, spec, alpha, seed)

    out = str(tmp_path / "bundle")
    monkeypatch.setattr(experiment, "_val_set", dying)
    summary = sweep(cfg, out, jobs=2)
    assert summary["cells_failed"] >= 1
    manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
    assert not manifest["complete"]
    failed = [c for c in manifest["cells"].values() if c["status"] == "failed"]
    assert failed and all("BrokenProcessPool" in c["error"] for c in failed)
    assert not [f for d, _, files in os.walk(out) for f in files
                if f.startswith(".tmp-")]
    # the dying row (seed 1) breaks its rerun's pool too, so exactly its two
    # cells fail; the other row reruns alone if it was caught in the break
    assert summary["cells_failed"] == 2
    assert sorted((c["n"], c["seed"]) for c in failed) == [(2, 1), (4, 1)]
    clean_cells = bundle_bytes(os.path.join(clean, "cells"))
    row = {_cell_key(cfg, 1.0, n, 0)[0] + ".json" for n in (2, 4)}
    assert bundle_bytes(os.path.join(out, "cells")) == {
        name: blob for name, blob in clean_cells.items() if name in row}

    monkeypatch.setattr(experiment, "_val_set", val_set)
    assert sweep(cfg, out, jobs=2)["cells_failed"] == 0
    assert bundle_bytes(out) == bundle_bytes(clean)


@FORK_ONLY
def test_rows_of_a_broken_pool_rerun_jobs_at_a_time(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=4)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)

    val_set = experiment._val_set

    def dying(cfg, spec, alpha, seed):
        if seed == 0:
            os._exit(1)   # row seed 0 dies as it is scored, in every pool
        # the other rows score slowly enough to be still pending when the
        # pool breaks, and for two of their one-worker reruns to overlap
        time.sleep(0.2)
        return val_set(cfg, spec, alpha, seed)

    lock, alone = threading.Lock(), {"open": 0, "most": 0}

    class CountingPool(ProcessPoolExecutor):
        """Counts the one-worker pools open at once."""

        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.alone = max_workers == 1
            with lock:
                alone["open"] += self.alone
                alone["most"] = max(alone["most"], alone["open"])

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            with lock:
                alone["open"] -= self.alone
            self.alone = False

    monkeypatch.setattr(experiment, "_val_set", dying)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    out = str(tmp_path / "bundle")
    summary = sweep(cfg, out, jobs=2)
    assert alone == {"open": 0, "most": 2}
    assert sorted(n for _, n, seed in summary["failures"] if seed == 0) == [2, 4]
    assert summary["cells_failed"] == 2
    assert all("BrokenProcessPool" in e for e in summary["failures"].values())
    dead_row = {_cell_key(cfg, 1.0, n, 0)[0] + ".json" for n in (2, 4)}
    assert bundle_bytes(os.path.join(out, "cells")) == {
        name: blob for name, blob in bundle_bytes(os.path.join(clean, "cells")).items()
        if name not in dead_row}


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
@pytest.mark.parametrize("fault, reason", [
    ("nan", "non-finite val_mse"),
    ("raise", "RuntimeError: injected training fault"),
    ("nan_grad", "ValueError: non-finite gradient"),
])
def test_sweep_fails_only_the_faulty_cell_of_a_row(tmp_path, monkeypatch, jobs,
                                                   fault, reason):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)

    # the fault hits (n=2, seed=1): the rest of its stack (n=2, seed=0) and
    # of its row (n=4, seed=1) must go on
    def loop_seed(n, seed):
        ss = _cell_seedseq(cfg, 1.0, n, seed, _STREAM_LOOP)
        return int(ss.generate_state(1, np.uint64)[0])

    faulty_seed = loop_seed(2, 1)
    assert faulty_seed not in {loop_seed(n, s) for n, s in ((2, 0), (4, 0), (4, 1))}
    real_train = experiment.train

    def faulty_train(models, datasets, train_cfg, seeds):
        # a sweep trains stacks; after a stack raises, a stack of each cell
        hit = [s == faulty_seed for s in seeds]
        if fault == "raise" and any(hit):
            raise RuntimeError("injected training fault")
        if fault == "nan_grad":
            datasets = [replace(d, targets=np.full_like(d.targets, np.nan)) if h else d
                        for d, h in zip(datasets, hit)]
        losses = real_train(models, datasets, train_cfg, seeds)
        if fault == "nan":
            for model, h in zip(models, hit):
                if h:
                    model.params[:] = np.nan
        return losses

    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiment, "train", faulty_train)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    out = str(tmp_path / "bundle")
    summary = sweep(cfg, out, jobs=jobs)
    # a raising stack's cells go back to the sweep's own pool, one by one
    assert pools == ([2] if jobs == 2 else [])
    assert summary["cells_failed"] == 1
    manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
    status = {(c["n"], c["seed"]): c for c in manifest["cells"].values()}
    assert status.pop((2, 1))["status"] == "failed"
    assert reason in manifest["cells"][_cell_key(cfg, 1.0, 2, 1)[0]]["error"]
    assert all(c["status"] == "done" for c in status.values()) and len(status) == 3
    cells = bundle_bytes(os.path.join(out, "cells"))
    clean_cells = bundle_bytes(os.path.join(clean, "cells"))
    del clean_cells[_cell_key(cfg, 1.0, 2, 1)[0] + ".json"]
    assert cells == clean_cells


def raise_in_training(monkeypatch, cfg, n, seed):
    """experiment.train raises for every stack that holds cell (1.0, n, seed)."""
    from measure_attn import experiment
    ss = _cell_seedseq(cfg, 1.0, n, seed, _STREAM_LOOP)
    faulty_seed = int(ss.generate_state(1, np.uint64)[0])
    real_train = experiment.train

    def faulty_train(models, datasets, train_cfg, seeds):
        if faulty_seed in seeds:
            raise RuntimeError("injected training fault")
        return real_train(models, datasets, train_cfg, seeds)

    monkeypatch.setattr(experiment, "train", faulty_train)


def test_a_worker_splits_its_own_raising_task(monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    ((_, (params, losses)),) = experiment._sweep_cell_worker((cfg, ((1.0, 2, 0),), None))
    raise_in_training(monkeypatch, cfg, 2, 1)
    got = experiment._sweep_cell_worker((cfg, ((1.0, 2, 0), (1.0, 2, 1)), None))
    assert [cell for cell, _ in got] == [(1.0, 2, 0), (1.0, 2, 1)]
    assert got[1][1] == "RuntimeError: injected training fault"
    got_params, got_losses = got[0][1]
    assert got_params.tobytes() == params.tobytes()
    assert np.asarray(got_losses).tobytes() == np.asarray(losses).tobytes()


@FORK_ONLY
def test_a_raising_task_goes_to_the_pool_once(tmp_path, monkeypatch):
    cfg = replace(SMALL, seeds=2)
    raise_in_training(monkeypatch, cfg, 2, 1)
    submitted = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, task):
            submitted.append(task[1])
            return super().submit(fn, task)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    summary = sweep(cfg, str(tmp_path / "bundle"), jobs=2)
    assert list(summary["failures"]) == [(1.0, 2, 1)]
    # the two stacks, largest n first, then the two rows: the worker that
    # ran the raising n=2 stack split it, so nothing went back to the pool
    assert submitted == [((1.0, 4, 0), (1.0, 4, 1)), ((1.0, 2, 0), (1.0, 2, 1)),
                         ((1.0, 2, 0), (1.0, 4, 0)), ((1.0, 4, 1),)]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_sweep_fails_only_the_cell_whose_scoring_raises(tmp_path, monkeypatch, jobs):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)
    real_payload = experiment._payload

    def faulty_payload(cell, *args):
        if cell == (1.0, 4, 1):   # scored in row seed 1, beside (n=2, seed=1)
            raise RuntimeError("injected scoring fault")
        return real_payload(cell, *args)

    monkeypatch.setattr(experiment, "_payload", faulty_payload)
    out = str(tmp_path / "bundle")
    summary = sweep(cfg, out, jobs=jobs)
    assert summary["failures"] == {(1.0, 4, 1): "RuntimeError: injected scoring fault"}
    clean_cells = bundle_bytes(os.path.join(clean, "cells"))
    del clean_cells[_cell_key(cfg, 1.0, 4, 1)[0] + ".json"]
    assert bundle_bytes(os.path.join(out, "cells")) == clean_cells


def test_sweep_fails_only_the_cell_whose_training_set_draw_raises(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)
    real_gen = experiment._gen

    def faulty_gen(cfg_, spec, count, ss):
        if ss.entropy[2:] == (2, 1, experiment._STREAM_TRAIN):   # cell n=2, seed 1
            raise MemoryError("injected draw fault")
        return real_gen(cfg_, spec, count, ss)

    monkeypatch.setattr(experiment, "_gen", faulty_gen)
    out = str(tmp_path / "bundle")
    summary = sweep(cfg, out, jobs=1)
    assert summary["failures"] == {(1.0, 2, 1): "MemoryError: injected draw fault"}
    clean_cells = bundle_bytes(os.path.join(clean, "cells"))
    del clean_cells[_cell_key(cfg, 1.0, 2, 1)[0] + ".json"]
    assert bundle_bytes(os.path.join(out, "cells")) == clean_cells


@FORK_ONLY
def test_sweep_fails_only_the_n_whose_training_worker_died(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)
    real_train = experiment.train

    def dying(models, datasets, train_cfg, seeds):
        if len(datasets[0].targets) == 4:
            os._exit(1)   # the worker training n=4 dies without raising
        return real_train(models, datasets, train_cfg, seeds)

    pools = []

    class CountingPool(ProcessPoolExecutor):
        """Records its size and the kinds of task it took."""

        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.size, self.kinds = max_workers, set()
            pools.append(self)

        def submit(self, fn, task):
            future = super().submit(fn, task)
            self.kinds.add("train" if task[2] is None else "score")
            return future

    monkeypatch.setattr(experiment, "train", dying)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    out = str(tmp_path / "bundle")
    summary = sweep(cfg, out, jobs=2)
    assert sorted(summary["failures"]) == [(1.0, 4, 0), (1.0, 4, 1)]
    assert all("BrokenProcessPool" in e for e in summary["failures"].values())
    dead_n = {_cell_key(cfg, 1.0, 4, s)[0] + ".json" for s in (0, 1)}
    assert bundle_bytes(os.path.join(out, "cells")) == {
        name: blob for name, blob in bundle_bytes(os.path.join(clean, "cells")).items()
        if name not in dead_n}
    # the broken pool's reruns run in one-worker pools, and the rows are
    # scored in one fresh two-worker pool
    assert pools[0].size == 2 and pools[0].kinds == {"train"}
    assert [p.size for p in pools if "score" in p.kinds] == [2]
    assert [p.size for p in pools[1:-1]] == [1] * (len(pools) - 2)


@FORK_ONLY
@pytest.mark.parametrize("phase", ["train", "score"])
def test_sweep_fails_only_the_cell_whose_worker_died(tmp_path, monkeypatch, phase):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=3)
    clean = str(tmp_path / "clean")
    sweep(cfg, clean, jobs=1)

    # cell (n=4, seed=1) kills the worker that trains its stack (n=4, seeds
    # 0-2) or scores its row (seed 1, n=2 and 4), in every pool
    ss = _cell_seedseq(cfg, 1.0, 4, 1, _STREAM_LOOP)
    dying_seed = int(ss.generate_state(1, np.uint64)[0])
    real_train, real_payload = experiment.train, experiment._payload

    def dying_train(models, datasets, train_cfg, seeds):
        if dying_seed in seeds:
            os._exit(1)
        return real_train(models, datasets, train_cfg, seeds)

    def dying_payload(cell, *args):
        if cell == (1.0, 4, 1):
            os._exit(1)
        return real_payload(cell, *args)

    if phase == "train":
        monkeypatch.setattr(experiment, "train", dying_train)
    else:
        monkeypatch.setattr(experiment, "_payload", dying_payload)
    out = str(tmp_path / "bundle")
    summary = sweep(cfg, out, jobs=2)
    assert list(summary["failures"]) == [(1.0, 4, 1)]
    assert "BrokenProcessPool" in summary["failures"][(1.0, 4, 1)]
    clean_cells = bundle_bytes(os.path.join(clean, "cells"))
    del clean_cells[_cell_key(cfg, 1.0, 4, 1)[0] + ".json"]
    assert bundle_bytes(os.path.join(out, "cells")) == clean_cells


def test_sweep_pool_has_no_more_workers_than_a_phase_has_tasks(tmp_path, monkeypatch):
    from measure_attn import experiment
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            raise RuntimeError("no pool starts here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # three stacks (one per n) and three (alpha, seed) rows
    cfg = replace(SMALL, alpha_list=(0.5, 1.0, 2.0), n_list=(2, 4, 8))
    with pytest.raises(RuntimeError, match="no pool starts here"):
        sweep(cfg, str(tmp_path / "bundle"), jobs=10_000)
    assert sizes == [3]


def test_sweep_trains_stacks_of_one_n_largest_n_first(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=_STACK + 1, n_val=4, n_stat_examples=2)
    stacks = []
    real_train = experiment.train

    def spy(models, datasets, train_cfg, seeds):
        stacks.append([len(d.targets) for d in datasets])
        return real_train(models, datasets, train_cfg, seeds)

    monkeypatch.setattr(experiment, "train", spy)
    out = str(tmp_path / "bundle")
    assert sweep(cfg, out, jobs=1)["cells_failed"] == 0
    assert stacks == [[4] * _STACK, [4], [2] * _STACK, [2]]

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool started with nothing pending")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    stacks.clear()
    assert sweep(cfg, out, jobs=2)["cells_failed"] == 0
    assert stacks == []


def test_sweep_draws_each_rows_validation_set_once(tmp_path, monkeypatch):
    from measure_attn import experiment
    cfg = replace(SMALL, seeds=2)
    drawn = []
    real_gen = experiment._gen

    def spy(cfg_, spec, count, ss):
        drawn.append(count)
        return real_gen(cfg_, spec, count, ss)

    monkeypatch.setattr(experiment, "_gen", spy)
    out = str(tmp_path / "bundle")
    sweep(cfg, out, jobs=1)
    # each n's training sets, largest n first, then each (alpha, seed) row's
    # validation set
    assert drawn == [4, 4, 2, 2] + [cfg.n_val] * 2
    clean = bundle_bytes(out)

    # resume with only the largest n of the second row pending
    cells = os.path.join(out, "cells")
    os.remove(os.path.join(cells, _cell_key(cfg, 1.0, 4, 1)[0] + ".json"))
    stamps = {f: os.stat(os.path.join(cells, f)).st_mtime_ns for f in os.listdir(cells)}
    drawn.clear()
    assert sweep(cfg, out, jobs=1)["cells_failed"] == 0
    assert drawn == [4, cfg.n_val]
    assert {f: os.stat(os.path.join(cells, f)).st_mtime_ns for f in stamps} == stamps
    assert bundle_bytes(out) == clean


def test_atomic_write_gives_files_the_umask_mode(tmp_path):
    old = os.umask(0o027)
    try:
        out = str(tmp_path / "bundle")
        sweep(SMALL, out)
        modes = {f: os.stat(os.path.join(d, f)).st_mode & 0o777
                 for d, _, files in os.walk(out) for f in files}
        assert len(modes) == 7 and set(modes.values()) == {0o640}
        os.umask(0o022)
        path = str(tmp_path / "bundle" / "fit.json")
        _atomic_write(path, "{}")   # replaces a file written under another umask
        assert os.stat(path).st_mode & 0o777 == 0o644
        assert Path(path).read_text() == "{}"
    finally:
        os.umask(old)


def _interrupt(src, dst):
    raise KeyboardInterrupt


@pytest.mark.parametrize("existing", [None, "old"], ids=["absent", "present"])
@pytest.mark.parametrize("data, replace, error", [
    ("\ud800", os.replace, UnicodeEncodeError),   # no file encoding holds it
    ("new", _interrupt, KeyboardInterrupt),
], ids=["write-fails", "replace-interrupted"])
def test_atomic_write_cleans_up_when_it_fails(tmp_path, monkeypatch, existing,
                                              data, replace, error):
    # an interrupted sweep must leave its target as it was and no .part file
    path = tmp_path / "fit.json"
    if existing is not None:
        path.write_text(existing)
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(error):
        _atomic_write(str(path), data)
    monkeypatch.undo()
    assert (path.read_text() if path.exists() else None) == existing
    assert list(tmp_path.glob(".tmp-*.part")) == []


def test_sweep_curves_match_cell_results(tmp_path):
    out = str(tmp_path / "bundle")
    summary = sweep(SMALL, out)
    curve = summary["curves"][1.0]
    assert curve.n_values == (2, 4)
    for n, mean in zip(curve.n_values, curve.mean_mse):
        direct, _, _ = run_cell(1.0, n, 0, SMALL)
        assert mean == pytest.approx(direct, rel=1e-15)
    fit = summary["fits"][1.0]
    assert np.isfinite(fit.C)
