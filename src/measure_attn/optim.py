"""Training settings, Adam with per-epoch learning-rate decay, and the loop.

TrainConfig holds every training setting and AdamState only Adam's moments.
The loop trains on squared loss with fresh Gaussian noise added to each
target presentation.  A Dataset holds a set of contexts as arrays: counts
on shared atoms, queries and targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _block_views, _layout, _squared_loss_grads
from .spectrum import _integer, _positive, _real, _rng


@dataclass
class AdamState:
    """First and second moment accumulators and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; epoch e steps at lr0 * decay_per_epoch**e."""

    epochs: int = 20
    # tuned so that risk reliably halves from n=4 to n=64 at alpha=1 with
    # 3 seeds on both the default and the reduced token profile
    batch_size: int = 4
    lr0: float = 5e-3
    decay_per_epoch: float = 0.95
    noise_std: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        for name, ok, rule in (
                ("lr0", _positive, "positive and finite"),
                ("decay_per_epoch", lambda x: 0 < x <= 1, "in (0, 1]"),
                ("noise_std", lambda x: 0 <= x < np.inf, "finite and >= 0"),
                ("beta1", lambda x: 0 <= x < 1, "in [0, 1)"),
                ("beta2", lambda x: 0 <= x < 1, "in [0, 1)"),
                ("eps", _positive, "positive and finite")):
            _real(name, getattr(self, name), ok, rule)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              cfg: TrainConfig, epoch: int) -> None:
    """One bias-corrected Adam update at epoch's step size, in place on
    params and on the moment arrays state.m and state.v.

    params may be one model's (P,) or a stack's (S, P): every update is
    elementwise, so each row steps bitwise as it would alone.  Rejects
    non-finite gradients, in any row, before touching any state, so a
    failed step leaves params and moments untouched.
    """
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError("params/grads shape does not match optimizer state")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient; step rejected")
    state.t += 1
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * grads
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * grads ** 2
    m_hat = state.m / (1.0 - cfg.beta1 ** state.t)
    v_hat = state.v / (1.0 - cfg.beta2 ** state.t)
    lr_t = cfg.lr0 * cfg.decay_per_epoch ** epoch
    params -= lr_t * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass(frozen=True)
class Dataset:
    """N labelled contexts: counts[i, a] of context i's tokens equal atoms[a]."""

    atoms: np.ndarray    # (A, d), shared by every context
    counts: np.ndarray   # (N, A) integer
    queries: np.ndarray  # (N, d)
    targets: np.ndarray  # (N,)

    @classmethod
    def of(cls, examples) -> "Dataset":
        """The examples' atoms, counts, query_token and target, stacked; raises
        ValueError when there are no examples or their atoms differ."""
        if len(examples) == 0:
            raise ValueError("no examples")
        atoms = examples[0].atoms
        if any(ex.atoms is not atoms and not np.array_equal(ex.atoms, atoms)
               for ex in examples):
            raise ValueError("examples carry their contexts on different atoms")
        return cls(atoms, np.array([ex.counts for ex in examples]),
                   np.array([ex.query_token for ex in examples], dtype=np.float64),
                   np.array([ex.target for ex in examples], dtype=np.float64))


def train(model, dataset, cfg: TrainConfig, seed):
    """Seeded minibatch training; returns the model and per-epoch mean loss.

    Each epoch reshuffles the dataset, each presentation jitters the target
    with fresh N(0, noise_std^2) noise, and each minibatch is one batched
    pass over its counts and one Adam step on the mean squared loss.  The
    recorded loss is the mean over the epoch's (noisy) presentations.

    Equal-length sequences of models, datasets and seeds, the datasets of
    one size on the same atoms, train in lockstep as one stack: each model
    keeps its own stream (per epoch its permutation, then its noise) and
    is bitwise what its own call would train.  Returns per model (model,
    losses).  The models' params are written when the stack finishes, so a
    stack whose step Adam rejects raises and leaves every model as it was.
    """
    stack = isinstance(model, (list, tuple))
    models, datasets, seeds = ((model, dataset, seed) if stack
                               else ([model], [dataset], [seed]))
    n, atoms = len(datasets[0].targets), datasets[0].atoms
    if not len(models) == len(datasets) == len(seeds) or any(
            len(d.targets) != n or not np.array_equal(d.atoms, atoms)
            for d in datasets):
        raise ValueError("a stack needs one dataset and seed per model, "
                         "and datasets of one size on the same atoms")
    rngs, student = [_rng(s) for s in seeds], models[0].config
    params = np.stack([m.params for m in models]) if stack else model.params
    grads, table = np.zeros_like(params), _layout(student)
    views = (_block_views(table, params), _block_views(table, grads))
    state = AdamState(np.zeros_like(params), np.zeros_like(params))
    losses = np.zeros((len(models), cfg.epochs))
    gather = np.stack if stack else (lambda rows: rows[0])
    for epoch in range(cfg.epochs):
        # an epoch's rows in its order, and all its noise in one draw: the
        # stream of one standard_normal(batch) per minibatch, in one call
        orders = [rng.permutation(n) for rng in rngs]
        queries = gather([d.queries[o] for d, o in zip(datasets, orders)])
        counts = gather([d.counts[o] for d, o in zip(datasets, orders)])
        noisy = [d.targets[o] for d, o in zip(datasets, orders)]
        if cfg.noise_std > 0:
            noisy = [y + cfg.noise_std * rng.standard_normal(n)
                     for rng, y in zip(rngs, noisy)]
        noisy, epoch_sq = gather(noisy), 0.0
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            resid = _squared_loss_grads(*views, student, atoms, queries[..., batch, :],
                                        counts[..., batch, :], noisy[..., batch])
            epoch_sq = epoch_sq + (resid[..., None, :] @ resid[..., None])[..., 0, 0]
            adam_step(state, params, grads, cfg, epoch)
        losses[:, epoch] = epoch_sq / n
    if not stack:
        return model, losses[0].tolist()
    for m, row in zip(models, params):
        m.params[...] = row
    return [(m, row.tolist()) for m, row in zip(models, losses)]


def losses_to_csv(losses: list[float]) -> str:
    """Per-epoch loss trace in the epoch,train_loss CSV layout."""
    lines = ["epoch,train_loss"]
    lines += [f"{e},{loss:.17g}" for e, loss in enumerate(losses)]
    return "\n".join(lines) + "\n"
