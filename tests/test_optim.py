"""Adam step against a scalar reference implementation, the training loop's
determinism and overfitting behavior, the clean validation MSE, and the
loss-trace CSV layout.

The Adam oracle below recomputes the bias-corrected update with plain
floats; the training oracle is a single-example overfit that must reach
1e-3 within 500 steps at a constant learning rate.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from measure_attn import (
    AdamState,
    Dataset,
    ExperimentConfig,
    StudentConfig,
    StudentModel,
    TrainConfig,
    adam_step,
    gen_example,
    train,
)
from measure_attn.experiment import _validate
from measure_attn.model import _backward, _forward, _runs
from measure_attn.optim import losses_to_csv


# x on an 8-point grid with tag -1, then with tag +1
ATOMS = np.column_stack([np.tile((np.arange(8) + 0.5) / 8, 2),
                         np.repeat([-1.0, 1.0], 8)])


@dataclass(frozen=True)
class Item:
    context_tokens: np.ndarray
    atoms: np.ndarray
    counts: np.ndarray
    query_token: np.ndarray
    target: float


def make_dataset(rng, n, T=5):
    """n contexts of T tokens drawn from the shared ATOMS, as Items."""
    items = []
    for _ in range(n):
        drawn = rng.integers(len(ATOMS), size=T)
        query = np.array([0.0, float(rng.choice([-1.0, 1.0]))])
        items.append(Item(ATOMS[drawn], ATOMS,
                          np.bincount(drawn, minlength=len(ATOMS)), query,
                          float(rng.standard_normal())))
    return items


# -------------------------------------------------------------- adam_step

def fresh_state(params):
    return AdamState(np.zeros_like(params), np.zeros_like(params))


def test_adam_sign_limit_update_magnitude():
    # beta1 = beta2 = 0, eps -> 0: the update is exactly lr_t * sign(g)
    cfg = TrainConfig(lr0=0.01, decay_per_epoch=0.9, beta1=0.0, beta2=0.0,
                      eps=1e-16)
    params = np.zeros(3)
    adam_step(fresh_state(params), params, np.array([1.0, 1.0, -1.0]), cfg, 0)
    np.testing.assert_allclose(params, [-0.01, -0.01, 0.01], rtol=1e-12)
    params2 = np.zeros(1)
    adam_step(fresh_state(params2), params2, np.array([1.0]), cfg, 3)
    assert abs(params2[0]) == pytest.approx(0.01 * 0.9**3, rel=1e-12)


def test_adam_matches_scalar_reference_over_steps():
    rng = np.random.default_rng(0)
    params = rng.standard_normal(4)
    ref = params.copy()
    lr0, decay, b1, b2, eps = 3e-3, 0.95, 0.9, 0.999, 1e-8
    cfg = TrainConfig(lr0=lr0, decay_per_epoch=decay, beta1=b1, beta2=b2,
                      eps=eps)
    state = fresh_state(params)
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 8):
        g = rng.standard_normal(4)
        epoch = (t - 1) // 3
        assert adam_step(state, params, g.copy(), cfg, epoch) is None
        assert state.t == t
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        ref -= lr0 * decay**epoch * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(params, ref, rtol=1e-14)


def test_adam_rejects_bad_gradients_without_side_effects():
    params = np.ones(2)
    state = fresh_state(params)
    with pytest.raises(ValueError):
        adam_step(state, params, np.array([1.0, np.nan]), TrainConfig(), 0)
    np.testing.assert_array_equal(params, np.ones(2))
    assert state.t == 0
    np.testing.assert_array_equal(state.m, np.zeros(2))
    np.testing.assert_array_equal(state.v, np.zeros(2))
    with pytest.raises(ValueError):
        adam_step(state, params, np.ones(3), TrainConfig(), 0)


def test_adam_updates_its_moments_in_place():
    state = AdamState(np.zeros(3), np.zeros(3))
    m, v = state.m, state.v
    params = np.ones(3)
    adam_step(state, params, np.array([0.5, -1.0, 2.0]), TrainConfig(), 0)
    assert state.m is m and state.v is v
    assert np.all(m != 0.0) and np.all(v > 0.0)
    # a rejected step keeps the same arrays and leaves every value as it was
    before = params.copy(), m.copy(), v.copy()
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(state, params, np.array([0.5, np.inf, 2.0]), TrainConfig(), 1)
    assert state.m is m and state.v is v and state.t == 1
    for now, then in zip((params, m, v), before):
        np.testing.assert_array_equal(now, then)


def test_stacked_adam_rejects_a_nan_row_without_touching_any_state():
    rng = np.random.default_rng(8)
    params = rng.standard_normal((3, 4))
    state = fresh_state(params)
    adam_step(state, params, rng.standard_normal((3, 4)), TrainConfig(), 0)
    before = params.copy(), state.m.copy(), state.v.copy()
    grads = rng.standard_normal((3, 4))
    grads[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite gradient; step rejected"):
        adam_step(state, params, grads, TrainConfig(), 0)
    assert state.t == 1
    for now, then in zip((params, state.m, state.v), before):
        assert now.tobytes() == then.tobytes()
    # redone without that row, the others step as each would alone
    keep = [0, 2]
    kept, kept_params = AdamState(state.m[keep], state.v[keep], state.t), params[keep]
    adam_step(kept, kept_params, grads[keep], TrainConfig(), 0)
    for row, i in enumerate(keep):
        alone = AdamState(state.m[i].copy(), state.v[i].copy(), state.t)
        adam_step(alone, params[i], grads[i], TrainConfig(), 0)
        assert kept_params[row].tobytes() == params[i].tobytes()
        assert kept.m[row].tobytes() == alone.m.tobytes()
        assert kept.v[row].tobytes() == alone.v.tobytes()


def test_adam_state_validation():
    # the step-size decay Adam reads is checked where it lives, in TrainConfig
    for decay in (0.0, 1.5):
        with pytest.raises(ValueError):
            TrainConfig(decay_per_epoch=decay)
    # moments sized for other params are refused before any update
    params = np.ones(2)
    state = AdamState(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        adam_step(state, params, np.ones(2), TrainConfig(), 0)
    np.testing.assert_array_equal(params, np.ones(2))
    assert state.t == 0


# ------------------------------------------------------------ TrainConfig

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(noise_std=noise)
    for lr0 in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(lr0=lr0)
    for beta in (-1.0, 1.0, 2.0, float("nan")):
        for name in ("beta1", "beta2"):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: beta})
    for eps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            TrainConfig(eps=eps)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=None)
    for decay in (0.0, 1.5, -0.5, float("nan")):
        with pytest.raises(ValueError):
            TrainConfig(decay_per_epoch=decay)
    with pytest.raises(TypeError):
        TrainConfig(seed=0)  # the loop seed is train's argument
    assert TrainConfig(epochs=0).epochs == 0  # degenerate no-op is legal
    assert TrainConfig(decay_per_epoch=1.0).decay_per_epoch == 1.0


# ------------------------------------------------------------------ train

def test_zero_epochs_leaves_model_unchanged():
    rng = np.random.default_rng(1)
    model = StudentModel.init(StudentConfig(), rng)
    before = model.params.copy()
    losses, = train([model], [Dataset.of(make_dataset(rng, 4))],
                    TrainConfig(epochs=0), [0])
    np.testing.assert_array_equal(model.params, before)
    assert losses == []


def test_loss_trace_length_equals_epochs():
    rng = np.random.default_rng(2)
    model = StudentModel.init(StudentConfig(), rng)
    losses, = train([model], [Dataset.of(make_dataset(rng, 6))],
                    TrainConfig(epochs=7, batch_size=3), [0])
    assert len(losses) == 7
    assert all(np.isfinite(l) and l >= 0.0 for l in losses)


def test_train_deterministic_in_seed():
    rng = np.random.default_rng(3)
    dataset = Dataset.of(make_dataset(rng, 5))
    cfg = TrainConfig(epochs=3, batch_size=2)
    m1, m2, m3 = (StudentModel.init(StudentConfig(), 7) for _ in range(3))
    l1, = train([m1], [dataset], cfg, [11])
    l2, = train([m2], [dataset], cfg, [11])
    np.testing.assert_array_equal(m1.params, m2.params)
    assert l1 == l2
    train([m3], [dataset], cfg, [12])
    assert not np.array_equal(m1.params, m3.params)


def token_train_reference(model, dataset, cfg, seed):
    """The training loop on raw tokens: one pass per presentation."""
    rng = np.random.default_rng(seed)
    state = fresh_state(model.params)
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_sq = 0.0
        for start in range(0, len(dataset), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grad_sum = np.zeros_like(model.params)
            for i in idx:
                ex = dataset[int(i)]
                target = ex.target + cfg.noise_std * rng.standard_normal()
                pred, cache = model.forward(ex.context_tokens, ex.query_token)
                epoch_sq += (pred - target) ** 2
                model.backward(cache, 2.0 * (pred - target) / idx.size)
                grad_sum += model.grads
            adam_step(state, model.params, grad_sum, cfg, epoch)
        losses.append(epoch_sq / len(dataset))
    return model, losses


@pytest.mark.parametrize("source", ["make_dataset", "gen_example"])
def test_train_matches_token_passes(source):
    rng = np.random.default_rng(13)
    if source == "make_dataset":
        dataset = make_dataset(rng, 7)
    else:
        exp = ExperimentConfig(n_tokens=100)
        dataset = [gen_example(exp.spectrum(1.0), exp, rng) for _ in range(7)]
    cfg = TrainConfig(epochs=4, batch_size=3)
    batched = StudentModel.init(StudentConfig(), 5)
    losses, = train([batched], [Dataset.of(dataset)], cfg, [17])
    token, token_losses = token_train_reference(
        StudentModel.init(StudentConfig(), 5), dataset, cfg, 17)
    np.testing.assert_allclose(losses, token_losses, rtol=1e-12)
    np.testing.assert_allclose(batched.params, token.params, rtol=1e-9,
                               atol=1e-12)


def public_train_reference(model, dataset, cfg, seed):
    """train's loop written with _forward and _backward on each batch."""
    rng = np.random.default_rng(seed)
    state = fresh_state(model.params)
    n = len(dataset.targets)
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sq = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            noisy = (dataset.targets[idx]
                     + cfg.noise_std * rng.standard_normal(idx.size))
            queries = dataset.queries[idx]
            f = _forward(model._blocks, model.config, dataset.atoms, queries,
                         dataset.counts[idx])
            resid = f["pred"] - noisy
            epoch_sq += float(resid @ resid)
            _backward(model._blocks, model._grad_blocks, model.config, f,
                      dataset.atoms, queries, 2.0 * resid / idx.size)
            adam_step(state, model.params, model.grads, cfg, epoch)
        losses.append(epoch_sq / n)
    return model, losses


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_train_step_is_the_public_passes_bitwise(activation, monkeypatch):
    rng = np.random.default_rng(23)
    items = make_dataset(rng, 7)
    dataset = Dataset.of(items)
    cfg = TrainConfig(epochs=3, batch_size=3, noise_std=0.05)  # last batch: 1
    student = StudentConfig(activation=activation)
    digests = []
    digest = StudentModel._digest
    monkeypatch.setattr(StudentModel, "_digest",
                        lambda self: digests.append(1) or digest(self))
    lean = StudentModel.init(student, 5)
    losses, = train([lean], [dataset], cfg, [17])
    assert digests == []   # a training step builds no cache
    public, public_losses = public_train_reference(
        StudentModel.init(student, 5), dataset, cfg, 17)
    assert losses == public_losses
    np.testing.assert_array_equal(lean.params, public.params)

    # the public pass on a token list is _forward on its runs, a batch of one
    for ex in items[:3]:
        pred, cache = lean.forward(ex.context_tokens, ex.query_token)
        assert isinstance(pred, float)
        assert cache.attn.shape == (student.n_heads, 1, len(cache.context))
        lengths = cache.weights[0].astype(int)
        rows = np.repeat(cache.attn[:, 0] / cache.weights[0], lengths, axis=-1)
        assert rows.shape == (student.n_heads, len(ex.context_tokens))
        lean.backward(cache, 1.5)
        one = lean.grads.copy()
        points, runs = _runs(ex.context_tokens)
        q = ex.query_token[None]
        f = _forward(lean._blocks, student, points, q, runs[None])
        assert f["pred"].tolist() == [pred]
        _backward(lean._blocks, lean._grad_blocks, student, f, points, q,
                  np.array([1.5]))
        np.testing.assert_array_equal(lean.grads, one)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("first_step", [True, False])
def test_stacked_train_rows_are_their_own_training_bitwise(activation, first_step):
    # 7 contexts in batches of 3 (the last batch holds 1), with noise on; the
    # third cell has NaN targets, so its first step is rejected, or, with one
    # NaN target presented last in the first epoch, its third
    rng = np.random.default_rng(29)
    student = StudentConfig(activation=activation)
    cfg = TrainConfig(epochs=3, batch_size=3, noise_std=0.05)
    datasets = [Dataset.of(make_dataset(rng, 7)) for _ in range(4)]
    seeds = [31, 32, 33, 34]
    targets = datasets[2].targets.copy()
    last = np.random.default_rng(seeds[2]).permutation(7)[-1]   # train's stream
    targets[slice(None) if first_step else last] = np.nan
    datasets[2] = Dataset(datasets[2].atoms, datasets[2].counts,
                          datasets[2].queries, targets)
    # a stack with the NaN row raises, and leaves every model as it was
    models = [StudentModel.init(student, i) for i in range(4)]
    before = [m.params.copy() for m in models]
    with pytest.raises(ValueError, match="non-finite gradient; step rejected"):
        train(models, datasets, cfg, seeds)
    for m, p in zip(models, before):
        assert m.params.tobytes() == p.tobytes()
    with pytest.raises(ValueError, match="non-finite gradient; step rejected"):
        train([StudentModel.init(student, 2)], [datasets[2]], cfg, [seeds[2]])
    # the other rows, trained as a stack, are each their own unstacked training
    rows = (0, 1, 3)
    stacked_models = [StudentModel.init(student, i) for i in rows]
    stacked = train(stacked_models, [datasets[i] for i in rows], cfg,
                    [seeds[i] for i in rows])
    for i, stacked_model, stacked_losses in zip(rows, stacked_models, stacked):
        model, losses = public_train_reference(StudentModel.init(student, i),
                                               datasets[i], cfg, seeds[i])
        assert stacked_model.params.tobytes() == model.params.tobytes()
        assert stacked_losses == losses and len(losses) == cfg.epochs


@pytest.mark.parametrize("case", ["huge-step", "nan-target-last"])
def test_a_model_whose_step_adam_rejects_is_left_as_it_was(monkeypatch, case):
    # Adam accepts the first steps and rejects a later one: at lr0=1e300 the
    # first step sends the params to about 1e300, so the next gradient is
    # not finite; or one NaN target is presented last in the first epoch
    from measure_attn import optim
    rng = np.random.default_rng(37)
    data = Dataset.of(make_dataset(rng, 7))
    cfg = TrainConfig(epochs=2, batch_size=3,
                      lr0=1e300 if case == "huge-step" else 5e-3)
    if case == "nan-target-last":
        targets = data.targets.copy()
        targets[np.random.default_rng(3).permutation(7)[-1]] = np.nan   # train's stream
        data = Dataset(data.atoms, data.counts, data.queries, targets)
    accepted, step = [], optim.adam_step

    def counted(*args):
        step(*args)
        accepted.append(args[3])

    monkeypatch.setattr(optim, "adam_step", counted)
    model = StudentModel.init(StudentConfig(), 5)
    before, blocks = model.params.copy(), model._blocks["attn_q"]
    with pytest.raises(ValueError, match="non-finite gradient; step rejected"):
        train([model], [data], cfg, [3])
    assert len(accepted) == (1 if case == "huge-step" else 2)
    # none of the accepted steps reached the model, which keeps its arrays
    assert model.params.tobytes() == before.tobytes()
    assert model._blocks["attn_q"] is blocks
    train([model], [Dataset.of(make_dataset(rng, 7))], TrainConfig(epochs=1), [0])
    assert model.params.tobytes() != before.tobytes()


def test_stacked_train_needs_one_size_and_atoms():
    rng = np.random.default_rng(30)
    models = [StudentModel.init(StudentConfig(), i) for i in range(2)]
    before = [m.params.copy() for m in models]
    for other in (Dataset.of(make_dataset(rng, 6)),
                  Dataset.of([Item(i.context_tokens, ATOMS[::-1], i.counts,
                                   i.query_token, i.target)
                              for i in make_dataset(rng, 5)])):
        with pytest.raises(ValueError, match="one size on the same atoms"):
            train(models, [Dataset.of(make_dataset(rng, 5)), other],
                  TrainConfig(), [0, 1])
    with pytest.raises(ValueError, match="one dataset and seed per model"):
        train(models, [Dataset.of(make_dataset(rng, 5))] * 2, TrainConfig(), [0])
    for m, p in zip(models, before):
        assert m.params.tobytes() == p.tobytes()


@pytest.mark.parametrize("call", [
    lambda data: train([], [], TrainConfig(), []),
    lambda data: _validate([], data),
], ids=["train", "validate"])
def test_an_empty_stack_is_refused(call):
    data = Dataset.of(make_dataset(np.random.default_rng(38), 3))
    with pytest.raises(ValueError, match="empty stack"):
        call(data)


def test_single_example_overfit_within_500_steps():
    # constant learning rate (decay 1.0): the default per-epoch decay 0.95
    # freezes the step size long before 500 single-example epochs
    rng = np.random.default_rng(4)
    model = StudentModel.init(StudentConfig(), rng)
    dataset = Dataset.of(make_dataset(rng, 1))
    cfg = TrainConfig(epochs=500, batch_size=1, lr0=1e-2,
                      decay_per_epoch=1.0, noise_std=0.0)
    losses, = train([model], [dataset], cfg, [0])
    assert losses[-1] < 1e-3
    assert _validate([model], dataset)[0][0] < 1e-3


def test_train_rejects_empty_dataset():
    # train and _validate read a Dataset; an empty set of examples makes none
    with pytest.raises(ValueError, match="no examples"):
        Dataset.of([])


# ------------------------------------------ clean MSE (experiment._validate)

def test_evaluate_zero_model_is_mean_squared_target():
    rng = np.random.default_rng(5)
    dataset = Dataset.of(make_dataset(rng, 8))
    model = StudentModel(StudentConfig())  # all-zero params predict 0
    want = float(np.mean(dataset.targets**2))
    assert _validate([model], dataset)[0][0] == pytest.approx(want, rel=1e-15)


def test_evaluate_ignores_training_noise():
    rng = np.random.default_rng(6)
    dataset = Dataset.of(make_dataset(rng, 3))
    model = StudentModel.init(StudentConfig(), rng)
    assert _validate([model], dataset)[0][0] == _validate([model], dataset)[0][0]


# ----------------------------------------------------------------- losses

def test_losses_to_csv_layout():
    csv_text = losses_to_csv([0.5, 0.25])
    lines = csv_text.splitlines()
    assert lines[0] == "epoch,train_loss"
    assert lines[1] == "0,0.5"
    assert lines[2] == "1,0.25"
    assert csv_text.endswith("\n")
