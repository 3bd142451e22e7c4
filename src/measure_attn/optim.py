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
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ValueError(f"epochs must be an integer >= 0, got {self.epochs!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError(
                f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        for name, ok, rule in (
                ("lr0", 0 < self.lr0 < np.inf, "positive and finite"),
                ("decay_per_epoch", 0 < self.decay_per_epoch <= 1, "in (0, 1]"),
                ("noise_std", 0 <= self.noise_std < np.inf, "finite and >= 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("eps", 0 < self.eps < np.inf, "positive and finite")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              cfg: TrainConfig, epoch: int) -> None:
    """One bias-corrected Adam update at epoch's step size, in place.

    Rejects non-finite gradients before touching any state, so a failed
    step leaves params and moments untouched.
    """
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError("params/grads shape does not match optimizer state")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient; step rejected")
    state.t += 1
    state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grads
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grads ** 2
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
    rng = np.random.default_rng(seed)
    state = AdamState(np.zeros_like(model.params), np.zeros_like(model.params))
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sq = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            noisy = dataset.targets[idx]
            if cfg.noise_std > 0:
                noisy = noisy + cfg.noise_std * rng.standard_normal(idx.size)
            resid = model._squared_loss_grads(dataset.atoms, dataset.queries[idx],
                                              dataset.counts[idx], noisy)
            epoch_sq += float(resid @ resid)
            adam_step(state, model.params, model.grads, cfg, epoch)
        losses.append(epoch_sq / n)
    return model, losses


def losses_to_csv(losses: list[float]) -> str:
    """Per-epoch loss trace in the epoch,train_loss CSV layout."""
    lines = ["epoch,train_loss"]
    lines += [f"{e},{loss:.17g}" for e, loss in enumerate(losses)]
    return "\n".join(lines) + "\n"
