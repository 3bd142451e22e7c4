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

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import model as student
from .model import StudentConfig, StudentModel
from .optim import Dataset, TrainConfig, train
from .spectrum import (MercerSpectrum, _integer, _length, _positive, _real,
                       _rng, midpoint_grid, synth_density)

# Fixed stream labels for per-cell SeedSequence derivation.
_STREAM_TRAIN, _STREAM_VAL, _STREAM_INIT, _STREAM_LOOP, _STREAM_SHUFFLE = range(5)

# most (alpha, n, seed) cells a config may ask for: a sweep holds a key per
# cell (about 1.2 kB each) before any cell runs
_MAX_CELLS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    alpha_list: tuple[float, ...] = (0.5, 1.0, 2.0)
    M: int = 16
    T: int = 32
    n_tokens: int = 5000
    n_list: tuple[int, ...] = (4, 8, 16, 32, 64)
    n_val: int = 2000
    clamp_eps: float = 1e-6
    seeds: int = 3
    n_stat_examples: int = 1000
    seed: int = 0
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
        return MercerSpectrum(alpha, self.M, self.T)


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
    built, beside the pmfs they come from.  Whole-array draws, in this order:
    random(rows) for v1, standard_normal for z1 and z2, then one multinomial
    of n_tokens per row on 1/2 P_{v1} + 1/2 P_{-v1}.  That is the law of
    n_tokens tokens that each pick a component with probability 1/2 and then
    an atom from its pmf, at a cost that does not grow with n_tokens.
    """
    queries = np.zeros((rows, 2))
    v1 = queries[:, 1] = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    z = rng.standard_normal((rows, 2, spec.M))
    z[:, :, 0] = 0.0
    pmf = synth_density(spec, z, cfg.clamp_eps)
    # pmf[:, 0] is component 0, tag v1; atoms put tag -1 first
    pmf = 0.5 * np.where((v1 > 0)[:, None, None], pmf[:, ::-1], pmf).reshape(rows, -1)
    # one row goes in as a 1-d pmf: the same counts, drawn on a cheaper path
    counts = rng.multinomial(cfg.n_tokens, pmf[0] if rows == 1 else pmf)
    return Dataset(_grid_atoms(spec.T), counts.reshape(rows, -1), queries,
                   _targets(spec.eigenvalues(), v1, z[:, 0])), z


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

    @property
    def n_heads(self) -> int:
        return self.w_same_mean.size

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


# the per-head columns of a bundle's attention_stats.csv, in their order
_STATS_COLUMNS = ("w_same_mean", "w_diff_mean", "w_same_std", "w_diff_std",
                  "m_same_mean", "m_diff_mean")


# validation examples per batched pass: bounds peak memory, not an option
_CHUNK = 64


def _tag_masses(attn, counts, tags, query_tags):
    """Tag-split masses of rows attn (H, B, A) over atoms with these tags.

    Side "same" of example b is the atoms whose tag equals query_tags[b],
    side "diff" the rest.  Returns each side's (H, b) masses m_* and
    per-token weights w_* over the b examples with tokens on that side.
    Masses are summed per run of equal tags (atoms are sorted by tag), and
    one (runs, B) mask assigns the runs to sides.
    """
    cuts = [0, *(np.flatnonzero(np.diff(tags)) + 1), tags.size]
    runs = list(zip(cuts, cuts[1:]))
    same = tags[cuts[:-1], None] == query_tags
    mass = np.stack([attn[..., a:b].sum(axis=-1) for a, b in runs])  # (runs, H, B)
    count = np.stack([counts[:, a:b].sum(axis=-1) for a, b in runs])  # (runs, B)
    out = {}
    for side, mask in (("same", same), ("diff", ~same)):
        m = np.where(mask[:, None], mass, 0.0).sum(axis=0)
        c = np.where(mask, count, 0).sum(axis=0)
        m = m[:, c > 0]
        out[f"m_{side}"], out[f"w_{side}"] = m, m / c[c > 0]
    return out


def _validate(model: StudentModel, data: Dataset, n_stat: int = 0
              ) -> tuple[float, AttentionStats | None]:
    """Clean MSE over data, and attention stats over its first n_stat rows.

    Each slice of _CHUNK rows is one batched pass of the student's forward
    arithmetic over their counts, as training runs it.  For the first n_stat
    rows the attention is reduced to per-head masses on the context tokens
    whose tag equals the query's and on the rest; a context with an empty
    side counts only on the other side.  Stats are None when n_stat is 0.
    """
    acc = {k: [] for k in ("w_same", "w_diff", "m_same", "m_diff")}  # (H, b) each
    total = 0.0
    for lo in range(0, len(data.targets), _CHUNK):
        counts, q = data.counts[lo:lo + _CHUNK], data.queries[lo:lo + _CHUNK]
        f = student._forward(model._blocks, model.config, data.atoms, q, counts)
        total += float(np.sum((f["pred"] - data.targets[lo:lo + _CHUNK]) ** 2))
        k = n_stat - lo   # rows of this pass that feed the stats
        if k > 0:
            masses = _tag_masses(f["attn"][:, :k], counts[:k], data.atoms[:, 1],
                                 q[:k, 1])
            for key, val in masses.items():
                acc[key].append(val)
    if n_stat < 1:
        return total / len(data.targets), None
    stats = {}
    for key, vals in acc.items():
        # (H, N) C-contiguous, so each head reduces over examples exactly as a
        # 1-d array of that head's values would
        per_head = np.concatenate(vals, axis=1)
        if per_head.shape[1] == 0:
            per_head = np.full((per_head.shape[0], 1), np.nan)
        stats[f"{key}_mean"], stats[f"{key}_std"] = (per_head.mean(axis=1),
                                                     per_head.std(axis=1))
    return total / len(data.targets), AttentionStats(**stats)


def attention_mass_stats(model: StudentModel, examples) -> AttentionStats:
    """Same-tag vs different-tag attention masses on given examples.

    The query token itself is never among the keys, so rows cover the
    partition exactly and m_same + m_diff = 1 per head and example.
    """
    return _validate(model, Dataset.of(examples), len(examples))[1]


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
    return _validate(model, data)[0], _validate(model, shuffled)[0]


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

    One batched pass per validation chunk yields both; the stats cover the
    first n_stat_examples.  The validation set depends on (alpha, seed) but
    not on n, so risk curves across n are measured on a shared yardstick;
    a sweep generates it once per (alpha, seed) row and gets, for each n,
    what run_cell returns.
    """
    n, seed = _length("n", n), _integer("seed", seed, 0)
    spec = cfg.spectrum(alpha)
    model, result = _train_and_validate(cfg, spec, alpha, n, seed,
                                        _val_set(cfg, spec, alpha, seed))
    return result.val_mse, model, result


def _val_set(cfg: ExperimentConfig, spec: MercerSpectrum, alpha: float,
             seed: int) -> Dataset:
    """The validation set of every n at (alpha, seed): its stream has n = 0."""
    return _gen(cfg, spec, cfg.n_val, _cell_seedseq(cfg, alpha, 0, seed, _STREAM_VAL))


def _train_and_validate(cfg: ExperimentConfig, spec: MercerSpectrum, alpha: float,
                        n: int, seed: int, val_set: Dataset
                        ) -> tuple[StudentModel, CellResult]:
    """Cell (alpha, n, seed) trained on its own streams and scored on val_set."""
    train_set = _gen(cfg, spec, n, _cell_seedseq(cfg, alpha, n, seed, _STREAM_TRAIN))
    model = StudentModel.init(cfg.student,
                              _cell_seedseq(cfg, alpha, n, seed, _STREAM_INIT))
    loop_seed = int(_cell_seedseq(cfg, alpha, n, seed, _STREAM_LOOP)
                    .generate_state(1, np.uint64)[0])
    model, losses = train(model, train_set, cfg.train, loop_seed)
    val_mse, stats = _validate(model, val_set, cfg.n_stat_examples)
    return model, CellResult(alpha, n, seed, val_mse, tuple(losses), stats)


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
    """Least squares of log mean risk on the transformed axis."""
    mse = np.asarray(curve.mean_mse, dtype=np.float64)
    # a set, not np.unique, which imports numpy.ma on first use
    if len(set(curve.n_values)) < 2:
        raise ValueError("need at least 2 distinct n to fit a rate")
    if np.any(mse <= 0):
        raise ValueError("risk values must be positive to fit in log space")
    t = scaling_axis(alpha, curve.n_values)
    y = np.log(mse)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (intercept + slope * t)
    return FitResult(A=float(intercept), C=float(-slope),
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def risk_curves(rows) -> tuple[dict[float, RiskCurve], dict[float, FitResult]]:
    """Risk curves and rate fits from (alpha, n, val_mse) rows.

    Each curve holds the mean and std over the rows of each n, in increasing
    n; alphas keep their first-seen order.  An alpha is fitted when it has
    at least two n values and every mean is positive.
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
                          tuple(float(np.std(by_n[n])) for n in ns))
        curves[alpha] = curve
        if len(ns) >= 2 and all(m > 0 for m in curve.mean_mse):
            fits[alpha] = fit_rate(curve, alpha)
    return curves, fits


def _cell_key(cfg: ExperimentConfig, alpha: float, n: int, seed: int
              ) -> tuple[str, dict]:
    """Content address: every value that feeds the cell's computation."""
    payload = {
        "alpha": float(alpha), "n": int(n), "seed": int(seed),
        "M": cfg.M, "T": cfg.T, "n_tokens": cfg.n_tokens, "n_val": cfg.n_val,
        "clamp_eps": cfg.clamp_eps, "global_seed": cfg.seed,
        "n_stat_examples": cfg.n_stat_examples,
        "student": asdict(cfg.student), "train": asdict(cfg.train),
    }
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


def _sweep_cell_worker(args) -> list[tuple[int, dict | None, str | None]]:
    """One (alpha, seed) row of a sweep: (n, payload, error) per pending n.

    The payload is the cell's results; the sweep adds its key inputs.  A
    cell that raises or whose val_mse is not finite gets its error text,
    and the row goes on to its next n.
    """
    cfg, alpha, seed, ns = args
    spec = cfg.spectrum(alpha)
    val_set = _val_set(cfg, spec, alpha, seed)
    cells = []
    for n in ns:
        try:
            _, result = _train_and_validate(cfg, spec, alpha, n, seed, val_set)
            if not np.isfinite(result.val_mse):
                raise FloatingPointError(f"non-finite val_mse {result.val_mse}")
        except Exception as e:  # noqa: BLE001 - cell failures are data
            cells.append((n, None, f"{type(e).__name__}: {e}"))
            continue
        cells.append((n, result.to_dict(), None))
    return cells


def _row_cells(task, fut) -> list[tuple[int, dict | None, str | None]]:
    """A row's cells: fut's result, or the row run here when fut is None.

    A row whose pool broke (a worker died without raising, which fails every
    row still pending in that pool) runs again alone in a fresh one-worker
    pool.  A row that raises, or whose rerun breaks its pool too, fails each
    of its cells with that error.
    """
    try:
        if fut is None:
            return _sweep_cell_worker(task)
        try:
            return fut.result()
        except BrokenProcessPool:
            with ProcessPoolExecutor(max_workers=1) as alone:
                return alone.submit(_sweep_cell_worker, task).result()
    except Exception as e:  # noqa: BLE001 - the whole row failed
        return [(n, None, f"{type(e).__name__}: {e}") for n in task[3]]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def sweep(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> dict:
    """Run the (alpha, n, seed) grid and persist the result bundle.

    Pending cells run as (alpha, seed) rows, jobs rows at a time: a row
    generates its validation set once and trains every pending n on it.  A
    worker that dies fails only its own row (see _row_cells).

    Writes cells/<key>.json per cell (atomic, reused on resume when the key
    matches), risk_curve.csv, attention_stats.csv, fit.json, a gnuplot-ready
    scaling_axis.dat and a manifest marking failed cells.  Returns a summary
    dict with curves and fits.
    """
    jobs = _integer("jobs", jobs, 1)
    os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)
    grid = [(alpha, n, s) for alpha in cfg.alpha_list for n in cfg.n_list
            for s in range(cfg.seeds)]
    key_pairs = {cell: _cell_key(cfg, *cell) for cell in grid}
    keyed = {cell: key for cell, (key, _) in key_pairs.items()}
    results: dict[tuple, dict] = {}
    failures: dict[tuple, str] = {}

    pending = []
    for cell, (key, key_inputs) in key_pairs.items():
        try:
            with open(os.path.join(out_dir, "cells", key + ".json")) as f:
                cached = json.load(f)
            if cached["key_inputs"] == json.loads(json.dumps(key_inputs)):
                results[cell] = cached
                continue
        except (json.JSONDecodeError, OSError, KeyError, TypeError):
            pass  # missing, corrupt or stale cell file: recompute
        pending.append(cell)

    rows: dict[tuple[float, int], list[int]] = {}
    for alpha, n, s in pending:
        rows.setdefault((alpha, s), []).append(n)
    tasks = [(cfg, alpha, s, tuple(ns)) for (alpha, s), ns in rows.items()]
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 and tasks else None
    with pool or contextlib.nullcontext():
        futures = [pool.submit(_sweep_cell_worker, task) if pool else None
                   for task in tasks]
        for task, fut in zip(tasks, futures):
            _, alpha, s, _ = task
            for n, payload, error in _row_cells(task, fut):
                cell = (alpha, n, s)
                if error is not None:
                    failures[cell] = error
                    continue
                payload["key_inputs"] = key_pairs[cell][1]
                path = os.path.join(out_dir, "cells", keyed[cell] + ".json")
                _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1))
                results[cell] = payload

    curves, fits = risk_curves((alpha, n, results[(alpha, n, s)]["val_mse"])
                               for alpha, n, s in keyed if (alpha, n, s) in results)
    _write_bundle(cfg, out_dir, results, curves, fits, keyed, failures)
    return {"curves": curves, "fits": fits, "failures": failures,
            "cells_total": len(grid), "cells_failed": len(failures)}


def _write_bundle(cfg, out_dir, results, curves, fits, keyed, failures):
    risk = io.StringIO()
    w = csv.writer(risk, lineterminator="\n")
    w.writerow(["alpha", "n", "seed", "val_mse"])
    for alpha, n, s in keyed:   # in grid order
        if (alpha, n, s) in results:
            w.writerow([_fmt(alpha), n, s, _fmt(results[(alpha, n, s)]["val_mse"])])
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
                w.writerow([_fmt(alpha), n, h,
                            *(_fmt(np.mean([st[k][h] for st in per_seed]))
                              for k in _STATS_COLUMNS)])
    _atomic_write(os.path.join(out_dir, "attention_stats.csv"), stats.getvalue())

    fit_doc = {f"{alpha:g}": {"A": fit.A, "C": fit.C,
                              "residual_rms": fit.residual_rms,
                              "n_list": list(curves[alpha].n_values)}
               for alpha, fit in fits.items()}
    _atomic_write(os.path.join(out_dir, "fit.json"),
                  json.dumps(fit_doc, sort_keys=True, indent=1) + "\n")

    dat = []
    for alpha in cfg.alpha_list:
        curve = curves.get(alpha)
        if curve is None or not curve.n_values:
            continue
        dat.append(f"# alpha={alpha:g}  t=(log n)^(alpha/(alpha+1))  log_mean_mse")
        t = scaling_axis(alpha, curve.n_values)
        for ti, mse in zip(t, curve.mean_mse):
            if mse > 0:
                dat.append(f"{_fmt(ti)} {_fmt(np.log(mse))}")
        dat.append("")
        dat.append("")
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
