"""Training settings, Adam with per-epoch learning-rate decay, and the loop.

TrainConfig holds every training setting and AdamState only Adam's moments.
The loop trains on squared loss with fresh Gaussian noise added to each
target presentation.  Datasets are sequences of examples exposing shared
atoms, their counts on them, query_token and target.
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
        if not self.lr0 > 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if not 0 < self.decay_per_epoch <= 1:
            raise ValueError(
                f"decay_per_epoch must be in (0, 1], got {self.decay_per_epoch}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


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


def _batches(examples, size: int, queries=None):
    """(atoms, counts, queries, targets) of each slice of size examples;
    raises ValueError before the first when there are no examples or their
    atoms differ.  queries, when given, replaces the examples' queries."""
    if len(examples) == 0:
        raise ValueError("no examples")
    atoms = examples[0].atoms
    if any(ex.atoms is not atoms and not np.array_equal(ex.atoms, atoms)
           for ex in examples):
        raise ValueError("examples carry their contexts on different atoms")
    queries = np.array([ex.query_token for ex in examples] if queries is None
                       else queries, dtype=np.float64)
    targets = np.array([ex.target for ex in examples], dtype=np.float64)
    for lo in range(0, len(examples), size):
        counts = np.array([ex.counts for ex in examples[lo:lo + size]])
        yield atoms, counts, queries[lo:lo + size], targets[lo:lo + size]


def train(model: StudentModel, dataset, cfg: TrainConfig, seed: int
          ) -> tuple[StudentModel, list[float]]:
    """Seeded minibatch training; returns the model and per-epoch mean loss.

    Each epoch reshuffles the dataset, each presentation jitters the target
    with fresh N(0, noise_std^2) noise, and each minibatch is one batched
    pass over its counts and one Adam step on the mean squared loss.  The
    recorded loss is the mean over the epoch's (noisy) presentations.
    """
    atoms, counts, queries, targets = next(_batches(dataset, len(dataset)))
    n = len(dataset)
    rng = np.random.default_rng(seed)
    state = AdamState(np.zeros_like(model.params), np.zeros_like(model.params))
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sq = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            noisy = targets[idx]
            if cfg.noise_std > 0:
                noisy = noisy + cfg.noise_std * rng.standard_normal(idx.size)
            pred, cache = model.forward(atoms, queries[idx], counts[idx])
            resid = pred - noisy
            epoch_sq += float(resid @ resid)
            model.backward(cache, 2.0 * resid / idx.size)
            adam_step(state, model.params, model.grads, cfg, epoch)
        losses.append(epoch_sq / n)
    return model, losses


def losses_to_csv(losses: list[float]) -> str:
    """Per-epoch loss trace in the epoch,train_loss CSV layout."""
    lines = ["epoch,train_loss"]
    lines += [f"{e},{loss:.17g}" for e, loss in enumerate(losses)]
    return "\n".join(lines) + "\n"
