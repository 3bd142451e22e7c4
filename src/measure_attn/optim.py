"""Training settings, Adam with per-epoch learning-rate decay, and the loop.

TrainConfig holds every training setting and AdamState only Adam's moments.
The loop trains on squared loss with fresh Gaussian noise added to each
target presentation.  A Dataset holds a set of contexts as arrays: counts
on shared atoms, queries and targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import StudentModel
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

    Rejects non-finite gradients before touching any state, so a failed
    step leaves params and moments untouched.
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


def train(model: StudentModel, dataset: Dataset, cfg: TrainConfig, seed: int
          ) -> tuple[StudentModel, list[float]]:
    """Seeded minibatch training; returns the model and per-epoch mean loss.

    Each epoch reshuffles the dataset, each presentation jitters the target
    with fresh N(0, noise_std^2) noise, and each minibatch is one batched
    pass over its counts and one Adam step on the mean squared loss.  The
    recorded loss is the mean over the epoch's (noisy) presentations.
    """
    n = len(dataset.targets)
    rng = _rng(seed)
    state = AdamState(np.zeros_like(model.params), np.zeros_like(model.params))
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        # an epoch's rows in its order, and all its noise in one draw: the
        # stream of one standard_normal(batch) per minibatch, in one call
        queries, counts = dataset.queries[order], dataset.counts[order]
        noisy = dataset.targets[order]
        if cfg.noise_std > 0:
            noisy = noisy + cfg.noise_std * rng.standard_normal(n)
        epoch_sq = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            resid = model._squared_loss_grads(dataset.atoms, queries[batch],
                                              counts[batch], noisy[batch])
            epoch_sq += float(resid @ resid)
            adam_step(state, model.params, model.grads, cfg, epoch)
        losses.append(epoch_sq / n)
    return model, losses


def losses_to_csv(losses: list[float]) -> str:
    """Per-epoch loss trace in the epoch,train_loss CSV layout."""
    lines = ["epoch,train_loss"]
    lines += [f"{e},{loss:.17g}" for e, loss in enumerate(losses)]
    return "\n".join(lines) + "\n"
