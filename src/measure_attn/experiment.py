"""Synthetic associative-recall experiment: data, sweeps, fits, ablations.

Each example hides a sign v1 and two coefficient vectors Z1, Z2.  Component
densities are synthesized from the spectrum, tokens (x, v) are sampled from
the two-component mixture {v1: Z1, -v1: Z2}, the query token is (0, v1) and
the target is Y = v1 * sum_{j>=1} lambda_j * Z1_j^2.  Recovering Y forces
the student to route attention by tag: the head MLP sees only the attention
output, so the sign of Y is unreadable unless attention mass separates the
two tag populations.

The sweep grid is (alpha, n, seed); cells are content-addressed by their
generating configuration, written atomically, and skipped on resume.  Risk
curves per alpha feed a least-squares fit of log L on t = (log n)^(alpha/(alpha+1)).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import pickle
import tempfile
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import model as student
from .model import StudentConfig, StudentModel
from .optim import Dataset, TrainConfig, train
from .spectrum import (MercerSpectrum, _integer, _length, _positive, _real,
                       _rng, midpoint_grid, synth_density)

# Fixed stream labels for per-cell SeedSequence derivation.
_STREAM_TRAIN, _STREAM_VAL, _STREAM_INIT, _STREAM_LOOP = range(4)

# most (alpha, n, seed) cells a config may ask for: a sweep holds a key per
# cell (about 1.2 kB each) before any cell runs, and between its two phases
# also each pending cell's trained params and losses (4,477 B per cell
# pickled, at the default student and 20 epochs)
_MAX_CELLS = 100_000

_AXIS = {"key": None}   # a grid axis (see _settings): a cell's key holds its own value


@dataclass(frozen=True)
class ExperimentConfig:
    alpha_list: tuple[float, ...] = field(default=(0.5, 1.0, 2.0), metadata=_AXIS)
    M: int = 16
    T: int = 32
    n_tokens: int = 5000
    n_list: tuple[int, ...] = field(default=(4, 8, 16, 32, 64), metadata=_AXIS)
    n_val: int = 2000
    clamp_eps: float = 1e-6
    seeds: int = field(default=3, metadata=_AXIS)
    n_stat_examples: int = 1000
    seed: int = field(default=0, metadata={"key": "global_seed"})
    student: StudentConfig = field(default_factory=StudentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        object.__setattr__(self, "alpha_list", tuple(
            float(_real("alpha", a, _positive, "positive and finite"))
            for a in self.alpha_list))
        if len(self.alpha_list) == 0:
            raise ValueError("alpha_list is empty")
        if len(set(self.alpha_list)) != len(self.alpha_list):
            raise ValueError(f"alpha_list repeats an alpha: {self.alpha_list}")
        object.__setattr__(self, "n_list", tuple(_length("n_list", n) for n in self.n_list))
        if len(self.n_list) == 0:
            raise ValueError("n_list is empty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing, got {self.n_list}")
        for name, low in (("M", 1), ("seeds", 1), ("n_stat_examples", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        for name in ("T", "n_tokens", "n_val"):
            object.__setattr__(self, name, _length(name, getattr(self, name)))
        cells = len(self.alpha_list) * len(self.n_list) * self.seeds
        if cells > _MAX_CELLS:
            raise ValueError(f"the (alpha, n, seed) grid has {cells} cells, "
                             f"more than {_MAX_CELLS}")
        if self.M > self.T // 2:
            raise ValueError(f"M={self.M} must satisfy M <= T/2 with T={self.T}")
        _real("clamp_eps", self.clamp_eps, _positive, "positive and finite")
        if self.student.input_dim != 2:
            raise ValueError("student.input_dim must be 2, the size of a token "
                             f"(x, tag), got {self.student.input_dim}")

    def spectrum(self, alpha: float) -> MercerSpectrum:
        """The spectrum of alpha on (M, T): one shared, read-only object per
        (alpha, M, T) and process."""
        alpha = _real("alpha", alpha, _positive, "positive and finite")   # before the cache
        return _spectrum(alpha, self.M, self.T)


_spectrum = functools.cache(MercerSpectrum)


@dataclass(frozen=True)
class Example:
    """One labelled context, stored as counts[a] of its tokens equal atoms[a].

    latents are the draw's coefficients, kept for diagnostics and not
    visible to the student; the tag v1 is query_token[1].
    """

    atoms: np.ndarray           # (2T, 2) grid tokens, tag -1 first; shared, read-only
    counts: np.ndarray          # (2T,) integer
    query_token: np.ndarray     # (0, v1)
    target: float
    latents: np.ndarray         # (2, M): z1, the query's component, then z2

    @functools.cached_property
    def context_tokens(self) -> np.ndarray:
        """(n_tokens, 2) rows (x, v) in atom order, built on first use."""
        return np.repeat(self.atoms, self.counts, axis=0)


def _targets(lam: np.ndarray, v1, z1: np.ndarray):
    """Y = v1 * sum_{j>=1} lambda_j * z1_j^2 of each row of z1, odd in v1; each
    row is bitwise its 1-d call (a matmul with lam would not be)."""
    return v1 * (lam[1:] * z1[..., 1:] ** 2).sum(axis=-1)


@functools.cache
def _grid_atoms(T: int) -> np.ndarray:
    """The 2T tokens (x, v) on midpoint_grid(T), tag -1 first; shared, read-only."""
    grid = midpoint_grid(T)
    atoms = np.column_stack([np.tile(grid, 2), np.repeat([-1.0, 1.0], T)])
    atoms.flags.writeable = False
    return atoms


def gen_example(spec: MercerSpectrum, cfg: ExperimentConfig, rng_seed) -> Example:
    """One labelled context: row 0 of a one-row _draw, with its latents.

    The context is the mixture of two pmfs on the grid, synth_density of z1
    under tag v1 and of z2 under tag -v1, with weight 1/2 each, and its
    counts are one multinomial draw of n_tokens on that mixture.
    """
    data, z = _draw(spec, cfg, _rng(rng_seed), 1)
    # copied: a row view would keep data.queries alive too (128 B per Example)
    return Example(data.atoms, data.counts[0], data.queries[0].copy(),
                   float(data.targets[0]), z[0])


def _draw(spec: MercerSpectrum, cfg: ExperimentConfig, rng: np.random.Generator,
          rows: int) -> tuple[Dataset, np.ndarray]:
    """rows examples on rng: their Dataset and latents z (rows, 2, M); each
    row's tag v1 is its query's, Dataset.queries[:, 1].

    The one place a context set's counts, queries (0, v1) and targets are
    built, beside the pmfs they come from.  Draws, in this order:
    random(rows) for v1, standard_normal for z1 and z2, then one multinomial
    of n_tokens per row on 1/2 P_{v1} + 1/2 P_{-v1}.  That is the law of
    n_tokens tokens that each pick a component with probability 1/2 and then
    an atom from its pmf, at a cost that does not grow with n_tokens.  Pmfs,
    counts and targets are built in row blocks (model._blocks), bitwise.
    """
    queries = np.zeros((rows, 2))
    v1 = queries[:, 1] = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    z = rng.standard_normal((rows, 2, spec.M))
    z[:, :, 0] = 0.0
    counts, targets = np.empty((rows, 2 * spec.T), dtype=np.int64), np.empty(rows)
    for block in student._blocks(rows):
        # z[:, 0] is component 0, tag v1; atoms put tag -1 first
        flip = (v1[block] > 0)[:, None, None]
        pmf = synth_density(spec, np.where(flip, z[block, ::-1], z[block]),
                            cfg.clamp_eps).reshape(len(flip), -1)
        pmf *= 0.5
        # one row goes in as a 1-d pmf: the same counts, drawn on a cheaper path
        counts[block] = rng.multinomial(cfg.n_tokens, pmf[0] if rows == 1 else pmf)
        targets[block] = _targets(spec.eigenvalues(), v1[block], z[block, 0])
    return Dataset(_grid_atoms(spec.T), counts, queries, targets), z


@dataclass(frozen=True)
class AttentionStats:
    """Per-head attention mass statistics over a set of examples.

    w_* are mean per-token weights, m_* total masses; *_std are standard
    deviations over examples.  Arrays have length n_heads.
    """

    w_same_mean: np.ndarray
    w_diff_mean: np.ndarray
    w_same_std: np.ndarray
    w_diff_std: np.ndarray
    m_same_mean: np.ndarray
    m_diff_mean: np.ndarray
    m_same_std: np.ndarray
    m_diff_std: np.ndarray

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


# the per-head columns of a bundle's attention_stats.csv, in their order
_STATS_COLUMNS = ("w_same_mean", "w_diff_mean", "w_same_std", "w_diff_std",
                  "m_same_mean", "m_diff_mean")


# most cells of one n a sweep trains as one stack: keeps a large grid of one
# n parallel and bounds a stack's memory at 16 cells', not an option
_STACK = 16


def _attention_stats(mass, sides) -> AttentionStats:
    """Stats of rows' masses (N, H, 2) on the query's tag and on the rest,
    with sides (N, 2) their tokens there: a row counts only on a side where
    it has tokens, and each head adds its rows one after another."""
    stats = {}
    for j, side in enumerate(("same", "diff")):
        has = sides[:, j] > 0
        m = mass[has, :, j]                                           # (rows, H)
        for key, per_row in (("m", m), ("w", m / sides[has, j, None])):
            if len(per_row) == 0:
                per_row = np.full((1, mass.shape[1]), np.nan)
            stats[f"{key}_{side}_mean"] = per_row.mean(axis=0)
            stats[f"{key}_{side}_std"] = per_row.std(axis=0)
    return AttentionStats(**stats)


def _validate(models, data: Dataset, n_stat: int = 0) -> list[tuple]:
    """Each model's (clean MSE over data, attention stats over its first
    n_stat rows); stats are None when n_stat is 0.

    The models, of one config, are scored as one stack over the shared
    data by model._score_rows, a GEMM per query and row block; for the
    first n_stat rows each head's attention is reduced to its masses on the
    context tokens whose tag equals the query's and on the rest.  A model's
    scores are bitwise those of a stack of it alone.
    """
    if len(models) == 0:
        raise ValueError("empty stack: _validate needs at least one model")
    cfg = models[0].config
    b = student._block_views(student._layout(cfg), np.stack([m.params for m in models]))
    pred, mass, sides = student._score_rows(b, cfg, data.atoms, data.queries, data.counts)
    return [(mse, _attention_stats(mass[i, :n_stat], sides[:n_stat])
             if n_stat >= 1 else None) for i, mse
            in enumerate(((pred - data.targets) ** 2).mean(axis=-1).tolist())]


def query_shuffle_eval(model: StudentModel, examples, seed: int = 0
                       ) -> tuple[float, float]:
    """Clean MSE with original queries vs queries permuted across examples.

    The permutation is uniform over permutations (fixed points allowed),
    drawn from the seed.
    """
    n = len(examples)
    if n < 2:
        raise ValueError("need at least 2 examples to shuffle queries")
    permutation = _rng(seed).permutation(n)
    data = Dataset.of(examples)
    shuffled = replace(data, queries=data.queries[permutation])
    return _validate([model], data)[0][0], _validate([model], shuffled)[0][0]


@dataclass(frozen=True)
class CellResult:
    alpha: float
    n: int
    seed: int
    val_mse: float
    train_losses: tuple[float, ...]
    stats: AttentionStats

    def to_dict(self) -> dict:
        """The cell's record: a sweep's cell payload, train's metrics.json."""
        return {"alpha": self.alpha, "n": self.n, "seed": self.seed,
                "val_mse": self.val_mse, "train_losses": list(self.train_losses),
                "attention_stats": self.stats.to_dict()}


def _cell_seedseq(cfg: ExperimentConfig, alpha: float, n: int, seed: int,
                  stream: int) -> np.random.SeedSequence:
    alpha_bits = int(np.float64(alpha).view(np.uint64))
    return np.random.SeedSequence(entropy=(cfg.seed, alpha_bits, n, seed, stream))


def _gen(cfg: ExperimentConfig, spec: MercerSpectrum, count: int,
         ss: np.random.SeedSequence) -> Dataset:
    """count examples on one stream: _draw's Dataset, without its latents."""
    return _draw(spec, cfg, _rng(ss), count)[0]


def run_cell(alpha: float, n: int, seed: int, cfg: ExperimentConfig
             ) -> tuple[float, StudentModel, CellResult]:
    """Train one grid cell and collect validation MSE and attention stats.

    One scoring pass over the validation set yields both; the stats cover
    the first n_stat_examples.  The validation set depends on (alpha, seed)
    but not on n, so risk curves across n are measured on a shared
    yardstick; a sweep generates it once per (alpha, seed) row and gets, for
    each n, what run_cell returns.
    """
    n, seed = _length("n", n), _integer("seed", seed, 0)
    spec = cfg.spectrum(alpha)
    val_set = _val_set(cfg, spec, alpha, seed)
    model, train_set, loop_seed = _cell_setup(cfg, alpha, n, seed)
    losses, = train([model], [train_set], cfg.train, [loop_seed])
    (val_mse, stats), = _validate([model], val_set, cfg.n_stat_examples)
    return val_mse, model, CellResult(alpha, n, seed, val_mse, tuple(losses), stats)


def _val_set(cfg: ExperimentConfig, spec: MercerSpectrum, alpha: float,
             seed: int) -> Dataset:
    """The validation set of every n at (alpha, seed): its stream has n = 0."""
    return _gen(cfg, spec, cfg.n_val, _cell_seedseq(cfg, alpha, 0, seed, _STREAM_VAL))


def _cell_setup(cfg: ExperimentConfig, alpha: float, n: int, seed: int
                ) -> tuple[StudentModel, Dataset, int]:
    """Cell (alpha, n, seed)'s initial model, training set and loop seed,
    each from its own stream."""
    train_set = _gen(cfg, cfg.spectrum(alpha), n,
                     _cell_seedseq(cfg, alpha, n, seed, _STREAM_TRAIN))
    model = StudentModel.init(cfg.student,
                              _cell_seedseq(cfg, alpha, n, seed, _STREAM_INIT))
    loop_seed = int(_cell_seedseq(cfg, alpha, n, seed, _STREAM_LOOP)
                    .generate_state(1, np.uint64)[0])
    return model, train_set, loop_seed


@dataclass(frozen=True)
class RiskCurve:
    """Validation risk vs training-set size for one alpha."""

    alpha: float
    n_values: tuple[int, ...]
    mean_mse: tuple[float, ...]
    std_mse: tuple[float, ...]


@dataclass(frozen=True)
class FitResult:
    """log L = A - C * t with t = (log n)^(alpha/(alpha+1)).

    C > 0 means risk decays on the transformed axis; the sign is preserved
    so collinear inputs are reproduced exactly.
    """

    A: float
    C: float
    residual_rms: float


def scaling_axis(alpha: float, n_values) -> np.ndarray:
    """t = (log n)^(alpha/(alpha+1)); the alpha -> inf limit is log n."""
    expo = 1.0 if np.isinf(alpha) else alpha / (alpha + 1.0)
    return np.log(np.asarray(n_values, dtype=np.float64)) ** expo


def fit_rate(curve: RiskCurve, alpha: float) -> FitResult:
    """Least squares of log mean risk y on the transformed axis t.

    Closed form on centred sums, with no LAPACK or BLAS call: slope =
    sum(tc * yc) / sum(tc * tc), tc = t - mean(t), yc = y - mean(y).
    """
    mse = np.asarray(curve.mean_mse, dtype=np.float64)
    # a set, not np.unique, which imports numpy.ma on first use
    if len(set(curve.n_values)) < 2:
        raise ValueError("need at least 2 distinct n to fit a rate")
    if not np.all((mse > 0) & (mse < np.inf)):
        raise ValueError("risk values must be positive and finite to fit in log space")
    t = scaling_axis(alpha, curve.n_values)
    y = np.log(mse)
    tc = t - t.mean()
    slope = (tc * (y - y.mean())).sum() / (tc * tc).sum()
    intercept = y.mean() - slope * t.mean()
    resid = y - (intercept + slope * t)
    return FitResult(A=float(intercept), C=float(-slope),
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def risk_curves(rows) -> tuple[dict[float, RiskCurve], dict[float, FitResult]]:
    """Risk curves and rate fits from (alpha, n, val_mse) rows.

    Each curve holds the mean and std over the rows of each n, in increasing
    n; alphas keep their first-seen order.  An alpha is fitted when it has
    at least two n values and every mean is positive and finite.
    """
    by_alpha: dict[float, dict[int, list[float]]] = {}
    for alpha, n, val_mse in rows:
        by_alpha.setdefault(alpha, {}).setdefault(n, []).append(val_mse)
    curves: dict[float, RiskCurve] = {}
    fits: dict[float, FitResult] = {}
    for alpha, by_n in by_alpha.items():
        ns = sorted(by_n)
        curve = RiskCurve(alpha, tuple(ns),
                          tuple(float(np.mean(by_n[n])) for n in ns),
                          # np.std of a row holding inf warns; it has no spread
                          tuple(float(np.std(by_n[n])) if np.isfinite(by_n[n]).all()
                                else np.nan for n in ns))
        curves[alpha] = curve
        if len(ns) >= 2 and all(0 < m < np.inf for m in curve.mean_mse):
            fits[alpha] = fit_rate(curve, alpha)
    return curves, fits


def _settings(config) -> dict:
    """A config's part of a cell key: each field under its metadata "key"
    name (its own by default; None leaves it out), a nested config as its
    own dict, and a field declared "variant" only when off its default."""
    payload = {}
    for f in fields(config):
        value, name = getattr(config, f.name), f.metadata.get("key", f.name)
        if name is not None and not (f.metadata.get("variant") and value == (
                f.default if f.default_factory is MISSING else f.default_factory())):
            payload[name] = _settings(value) if is_dataclass(value) else value
    return payload


def _cell_key(cfg: ExperimentConfig, alpha: float, n: int, seed: int
              ) -> tuple[str, dict]:
    """Content address: the config's _settings and the cell's alpha, n and seed."""
    payload = {**_settings(cfg), "alpha": float(alpha), "n": int(n), "seed": int(seed)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16], payload


def _atomic_write(path: str, data: str) -> None:
    """Write path through a temporary file, with the mode open() would give."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    umask = os.umask(0)  # mkstemp makes the file 0600; read the umask to undo it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as f:
            os.chmod(tmp, 0o666 & ~umask)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _error(e: Exception) -> str:
    """An exception as a failed cell's error text."""
    return f"{type(e).__name__}: {e}"


def _payload(cell, losses, val_mse: float, stats: AttentionStats) -> dict | str:
    """The cell's results payload, or its error text if val_mse is not finite."""
    if not np.isfinite(val_mse):
        return _error(FloatingPointError(f"non-finite val_mse {val_mse}"))
    return CellResult(*cell, val_mse, tuple(losses), stats).to_dict()


def _sweep_cell_worker(task) -> list[tuple[tuple, object]]:
    """One sweep task, under _isolated: (cell, value) per (alpha, n, seed).

    A task (cfg, cells, None) trains its cells, all of one n, as one stack
    and returns their (params, losses); a task (cfg, cells, trained) draws
    one (alpha, seed) row's validation set once and scores the row's
    trained cells as one stack, returning their result payloads, or the
    error text of a cell whose val_mse is not finite.  It never raises.
    """
    return _isolated(_phase, task)


def _phase(task) -> list[tuple[tuple, object]]:
    """_sweep_cell_worker's training or scoring body, which may raise."""
    cfg, cells, trained = task
    if trained is None:
        models, sets, seeds = map(list, zip(*(_cell_setup(cfg, *c) for c in cells)))
        return [(c, (m.params, losses)) for c, m, losses
                in zip(cells, models, train(models, sets, cfg.train, seeds))]
    alpha, _, seed = cells[0]
    val_set = _val_set(cfg, cfg.spectrum(alpha), alpha, seed)
    models = [StudentModel(cfg.student, params) for params, _ in trained]
    return [(c, _payload(c, losses, *score)) for c, (_, losses), score
            in zip(cells, trained, _validate(models, val_set, cfg.n_stat_examples))]


def _parts(task) -> list[tuple]:
    """The one-cell tasks a failed task splits into, in its cells' order."""
    cfg, cells, trained = task
    return [(cfg, cells[i:i + 1], trained and trained[i:i + 1]) for i in range(len(cells))]


def _isolated(run, task) -> list[tuple[tuple, object]]:
    """run(task), the sweep's one failure rule: if it raises, each one-cell
    part of the task is run in turn, and a cell that fails alone gets the
    error text."""
    try:
        return run(task)
    except Exception as e:  # noqa: BLE001 - cell failures are data
        if len(task[1]) == 1:
            return [(task[1][0], _error(e))]
    return [value for part in _parts(task) for value in _isolated(run, part)]


def _run(tasks, jobs: int):
    """Yield (cell, value) for every cell of the tasks from _sweep_cell_worker:
    here at jobs=1 or where os.fork is missing, else each task in a forked
    child of its own, at most jobs alive at a time.

    A task reaches its child by fork and is never pickled; the child pipes
    back its pickled result and leaves by os._exit, and only the result of
    a child that exited 0 is read.  The worker splits a task that raises
    (_isolated), so a task fails here only when its child dies (a signal, a
    non-zero exit or a cut-off result).  By the same rule its one-cell parts
    then run, each in a fresh child, and a cell whose child dies alone gets
    "ChildProcessError: worker died with exit code N" (minus the signal
    that killed it).  On any exception the children still running are
    killed and reaped, so none outlives this generator.
    """
    if jobs == 1 or not hasattr(os, "fork"):
        for task in tasks:
            yield from _sweep_cell_worker(task)
        return
    import selectors
    import signal
    todo, children = list(reversed(tasks)), selectors.DefaultSelector()
    try:
        while todo or children.get_map():
            while todo and len(children.get_map()) < jobs:
                import numpy.random  # noqa: F401 - once here, not in every child
                task, (r, w) = todo.pop(), os.pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        with open(w, "wb") as f:
                            f.write(pickle.dumps(_sweep_cell_worker(task)))
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(w)
                children.register(r, selectors.EVENT_READ, (pid, task, []))
            for key, _ in children.select():
                pid, task, chunks = key.data
                chunks.append(os.read(key.fd, 1 << 20))
                if chunks[-1]:
                    continue
                children.unregister(key.fd)
                os.close(key.fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code == 0:
                    yield from pickle.loads(b"".join(chunks))
                elif len(task[1]) == 1:
                    yield task[1][0], _error(ChildProcessError(
                        f"worker died with exit code {code}"))
                else:
                    todo.extend(reversed(_parts(task)))
    finally:
        for key in list(children.get_map().values()):
            os.kill(key.data[0], signal.SIGKILL)
            os.waitpid(key.data[0], 0)
            os.close(key.fd)
        children.close()


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _label(alpha: float) -> str:
    """alpha as the shortest text that reads back as it, 2.0 as "2"."""
    return repr(float(alpha)).removesuffix(".0")


def sweep(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> dict:
    """Run the (alpha, n, seed) grid and persist the result bundle.

    Pending cells run in two phases, each task in a forked child of its
    own, at most jobs at a time, or in this process at jobs=1 (see _run).
    First the cells of each n train in lockstep, as stacks of at most
    _STACK cells, largest n first.  Then each (alpha, seed) row draws its
    validation set once and scores all its trained cells as one stack over
    it; its child reads the trained results copy-on-write.  Failures
    follow one rule, _isolated: a task that raises is split cell by cell
    where it ran, and one whose child dies reruns cell by cell in fresh
    children, so only a cell that fails alone fails.  Cell files are
    written as rows are scored, so a sweep stopped while training keeps
    none of its newly trained cells.

    Writes cells/<key>.json per cell (atomic, reused on resume when the key
    matches and its results are whole), risk_curve.csv, attention_stats.csv,
    fit.json, a gnuplot-ready scaling_axis.dat and a manifest marking
    failed cells.  Returns a summary dict with curves and fits.
    """
    jobs = _integer("jobs", jobs, 1)
    os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)
    key_pairs = {(alpha, n, s): _cell_key(cfg, alpha, n, s) for alpha in cfg.alpha_list
                 for n in cfg.n_list for s in range(cfg.seeds)}
    keyed = {cell: key for cell, (key, _) in key_pairs.items()}
    results: dict[tuple, dict] = {}
    failures: dict[tuple, str] = {}

    pending = []
    for cell, (key, key_inputs) in key_pairs.items():
        try:
            with open(os.path.join(out_dir, "cells", key + ".json")) as f:
                cached = json.load(f)
            mse, stats = cached["val_mse"], cached["attention_stats"]
            if (cached["key_inputs"] == json.loads(json.dumps(key_inputs))
                    and isinstance(mse, float) and np.isfinite(mse)
                    and all(len(stats[k]) == cfg.student.n_heads for k in _STATS_COLUMNS)):
                results[cell] = cached
                continue
        except (json.JSONDecodeError, OSError, KeyError, TypeError):
            pass  # missing, corrupt, incomplete or stale cell file: recompute
        pending.append(cell)

    by_n: dict[int, list[tuple]] = {}
    for cell in pending:
        by_n.setdefault(cell[1], []).append(cell)
    groups = [(cfg, tuple(cells[i:i + _STACK]), None)
              for _, cells in sorted(by_n.items(), reverse=True)
              for i in range(0, len(cells), _STACK)]
    trained = {}
    for cell, value in _run(groups, jobs):
        (failures if isinstance(value, str) else trained)[cell] = value
    rows: dict[tuple[float, int], list[tuple]] = {}
    for cell in pending:
        if cell in trained:
            rows.setdefault((cell[0], cell[2]), []).append(cell)
    tasks = [(cfg, tuple(cells), tuple(trained[cell] for cell in cells))
             for cells in rows.values()]
    for cell, payload in _run(tasks, jobs):
        if isinstance(payload, str):
            failures[cell] = payload
            continue
        payload["key_inputs"] = key_pairs[cell][1]
        path = os.path.join(out_dir, "cells", keyed[cell] + ".json")
        _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1))
        results[cell] = payload

    curves, fits = risk_curves((alpha, n, results[(alpha, n, s)]["val_mse"])
                               for alpha, n, s in keyed if (alpha, n, s) in results)
    _write_bundle(cfg, out_dir, results, curves, fits, keyed, failures)
    return {"curves": curves, "fits": fits, "failures": failures,
            "cells_total": len(keyed), "cells_failed": len(failures)}


def _write_bundle(cfg, out_dir, results, curves, fits, keyed, failures):
    risk = io.StringIO()
    w = csv.writer(risk, lineterminator="\n")
    w.writerow(["alpha", "n", "seed", "val_mse"])
    for alpha, n, s in keyed:   # in grid order
        if (alpha, n, s) in results:
            w.writerow([_label(alpha), n, s, _fmt(results[(alpha, n, s)]["val_mse"])])
    _atomic_write(os.path.join(out_dir, "risk_curve.csv"), risk.getvalue())

    stats = io.StringIO()
    w = csv.writer(stats, lineterminator="\n")
    w.writerow(["alpha", "n", "head", *_STATS_COLUMNS])
    for alpha in cfg.alpha_list:
        for n in cfg.n_list:
            per_seed = [results[(alpha, n, s)]["attention_stats"]
                        for s in range(cfg.seeds) if (alpha, n, s) in results]
            if not per_seed:
                continue
            for h in range(len(per_seed[0]["w_same_mean"])):
                w.writerow([_label(alpha), n, h,
                            *(_fmt(np.mean([st[k][h] for st in per_seed]))
                              for k in _STATS_COLUMNS)])
    _atomic_write(os.path.join(out_dir, "attention_stats.csv"), stats.getvalue())

    fit_doc = {_label(alpha): {"A": fit.A, "C": fit.C,
                               "residual_rms": fit.residual_rms,
                               "n_list": list(curves[alpha].n_values)}
               for alpha, fit in fits.items()}
    _atomic_write(os.path.join(out_dir, "fit.json"),
                  json.dumps(fit_doc, sort_keys=True, indent=1) + "\n")

    dat = []
    for alpha, curve in curves.items():   # in grid order, each with an n
        dat.append(f"# alpha={_label(alpha)}  t=(log n)^(alpha/(alpha+1))  log_mean_mse")
        t = scaling_axis(alpha, curve.n_values)
        for ti, mse in zip(t, curve.mean_mse):
            if mse > 0:
                dat.append(f"{_fmt(ti)} {_fmt(np.log(mse))}")
        dat += ["", ""]
    _atomic_write(os.path.join(out_dir, "scaling_axis.dat"), "\n".join(dat))

    manifest = {
        "cells": {
            keyed[cell]: {
                "alpha": cell[0], "n": cell[1], "seed": cell[2],
                "status": ("done" if cell in results
                           else "failed" if cell in failures else "missing"),
                **({"error": failures[cell]} if cell in failures else {}),
            }
            for cell in keyed
        },
        "complete": not failures and len(results) == len(keyed),
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=1) + "\n")
