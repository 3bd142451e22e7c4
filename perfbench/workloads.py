"""The three benchmark workloads, driven through measure_attn's public API.

Each workload is built from the benchmark seed (its set-up), then ``run``
does the fixed work once and returns an Outcome: how many operations were
attempted, which output checks failed, and the quality figure.  Modules are
called through their attributes so that a traced run, which patches those
attributes, sees every call.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from measure_attn import attention, experiment, measures, model, verify

# Streams of the benchmark seed, kept apart from run_cell's own derivation.
_STREAM_FRESH, _STREAM_INIT, _STREAM_INPUTS = 101, 102, 103


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    quality: float = math.nan
    counters: dict = field(default_factory=dict)

    def check(self, ok, what: str) -> None:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _no_span(_name):
    return nullcontext()


class CellN64:
    """One criterion-5 cell at n=64, then the criterion-8 query shuffle."""

    name = "cell-n64"
    alpha, n = 1.0, 64
    n_fresh = 1000

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.cfg = experiment.ExperimentConfig(
            alpha_list=(self.alpha,), n_list=(self.n,), seeds=1,
            n_tokens=1000, n_val=1000, n_stat_examples=1000, seed=seed)
        self.spec = self.cfg.spectrum(self.alpha)

    def run(self, span=_no_span) -> Outcome:
        out = Outcome()
        val_mse, trained, result = experiment.run_cell(self.alpha, self.n, 0, self.cfg)
        rng = _rng(self.seed, _STREAM_FRESH)
        with span("bench.fresh_contexts"):
            fresh = [experiment.gen_example(self.spec, self.cfg, rng)
                     for _ in range(self.n_fresh)]
        mse_orig, mse_shuf = experiment.query_shuffle_eval(trained, fresh, seed=self.seed)

        out.check(math.isfinite(val_mse), f"run_cell: val_mse={val_mse}")
        mass = result.stats.m_same_mean + result.stats.m_diff_mean
        out.check(np.all(np.abs(mass - 1.0) <= 1e-9),
                  f"run_cell: m_same + m_diff per head = {mass.tolist()}")
        out.check(math.isfinite(mse_orig) and math.isfinite(mse_shuf),
                  f"query_shuffle_eval: mse={mse_orig}, shuffled={mse_shuf}")
        out.quality = val_mse
        return out


class SweepGrid:
    """A 3x3 (alpha, n) grid with one seed over two workers, then a resume."""

    name = "sweep-grid"
    jobs = 2
    bundle_files = ("risk_curve.csv", "attention_stats.csv", "fit.json",
                    "scaling_axis.dat", "manifest.json")

    def __init__(self, seed: int, out_dir: str):
        self.cfg = experiment.ExperimentConfig(
            alpha_list=(0.5, 1.0, 2.0), n_list=(4, 8, 16), seeds=1,
            n_tokens=1000, n_val=500, seed=seed)
        self.out_dir = os.path.join(out_dir, "sweep")
        if os.path.exists(self.out_dir):
            shutil.rmtree(self.out_dir)

    def _snapshot(self):
        cells = os.path.join(self.out_dir, "cells")
        stamps = {f: (os.stat(os.path.join(cells, f)).st_ino,
                      os.stat(os.path.join(cells, f)).st_mtime_ns)
                  for f in os.listdir(cells)}
        bundle = {}
        for f in self.bundle_files:
            with open(os.path.join(self.out_dir, f), "rb") as fh:
                bundle[f] = fh.read()
        return stamps, bundle

    def run(self, span=_no_span) -> Outcome:
        out = Outcome()
        done = experiment.sweep(self.cfg, self.out_dir, jobs=self.jobs)
        first = self._snapshot()
        again = experiment.sweep(self.cfg, self.out_dir, jobs=self.jobs)
        second = self._snapshot()

        with open(os.path.join(self.out_dir, "manifest.json")) as f:
            manifest = json.load(f)
        mses = []
        for key, cell in sorted(manifest["cells"].items()):
            with open(os.path.join(self.out_dir, "cells", key + ".json")) as f:
                mse = json.load(f)["val_mse"] if cell["status"] == "done" else math.nan
            mses.append(mse)
            out.check(cell["status"] == "done" and math.isfinite(mse),
                      f"sweep cell {cell}: val_mse={mse}")
        out.check(len(mses) == 9 and manifest["complete"]
                  and again["cells_failed"] == 0 and first == second,
                  "resumed sweep recomputed a cell or changed a bundle file")
        out.quality = float(np.mean(mses))
        out.counters = {
            "experiment.sweep.cells_done": done["cells_total"] - done["cells_failed"],
            "experiment.sweep.cells_failed": done["cells_failed"]}
        shutil.rmtree(self.out_dir)
        return out


class KernelsT5000:
    """Student passes and lemma-side kernels at the CLI's 5000 tokens."""

    name = "kernels-t5000"
    n_contexts = 64      # generated contexts; forward-only passes
    n_backward = 48      # forward + backward passes
    D = 8                # recall heads: basis coefficients read off
    eps2 = 1e-4

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.cfg = experiment.ExperimentConfig(seed=seed)
        self.spec = self.cfg.spectrum(1.0)
        self.model = model.StudentModel.init(self.cfg.student, _rng(seed, _STREAM_INIT))
        self.params = attention.build_recall_params(
            1, 1, self.D, attention.temperature_for_error(2, self.eps2))

    def _featured(self, ex):
        """The context as a 5000-point featured measure and its recall query.

        Support rows are (tag, x, e_1(x)..e_D(x)); each tag half carries
        mass 1/2 spread evenly over its tokens, and the query's tag is v1.
        Also returns the oracle (the star half's mean features) and the
        lemma's error budget 5 * eps2 * max |e_j| over the star half.
        """
        x, v = ex.context_tokens[:, 0], ex.context_tokens[:, 1]
        j = np.arange(1, self.D + 1)
        feats = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, j))
        star = v == ex.query_token[1]
        w = np.where(star, 0.5 / star.sum(), 0.5 / (~star).sum())
        mu = measures.DiscreteMeasure(np.column_stack([v, x, feats]), w)
        query = np.zeros(2 + self.D)
        query[0] = ex.query_token[1]
        budget = 5 * self.eps2 * np.abs(feats[star]).max(axis=0)
        return mu, query, feats[star].mean(axis=0), budget

    def run(self, span=_no_span) -> Outcome:
        out = Outcome()
        rng = _rng(self.seed, _STREAM_INPUTS)
        examples = [experiment.gen_example(self.spec, self.cfg, rng)
                    for _ in range(self.n_contexts)]
        preds = [self.model.forward(ex.context_tokens, ex.query_token)[0]
                 for ex in examples]
        grads_ok = []
        for ex in examples[:self.n_backward]:
            pred, cache = self.model.forward(ex.context_tokens, ex.query_token)
            self.model.backward(cache, 2.0 * (pred - ex.target))
            grads_ok.append(bool(np.all(np.isfinite(self.model.grads))))
        attn = []
        for ex in examples:
            mu, query, oracle, budget = self._featured(ex)
            w = attention.softmax_weights(self.params.heads[0], mu, query)
            extracted = attention.measure_attention(self.params, mu, query)[2:]
            attn.append((w.sum(), np.abs(extracted - oracle), budget))
        w1 = []
        for a, b in zip(examples, examples[1:]):
            xa, xb = a.context_tokens[:, :1], b.context_tokens[:, :1]
            d = measures.wasserstein1_1d(measures.DiscreteMeasure.uniform_on(xa),
                                         measures.DiscreteMeasure.uniform_on(xb))
            w1.append((d, xa[:, 0], xb[:, 0]))
        suites = verify.run_suites()

        for i, ex in enumerate(examples):
            out.check(ex.context_tokens.shape == (self.cfg.n_tokens, 2)
                      and math.isfinite(ex.target), f"gen_example {i}")
        for i, p in enumerate(preds):
            out.check(math.isfinite(p), f"forward {i}: prediction {p}")
        for i, ok in enumerate(grads_ok):
            out.check(ok, f"backward {i}: non-finite gradient")
        for i, (total, err, budget) in enumerate(attn):
            out.check(abs(total - 1.0) <= 1e-12 and np.all(err <= budget),
                      f"attention {i}: weight sum {total}, recall error/budget "
                      f"{(err / budget).max()}")
        for i, (d, xa, xb) in enumerate(w1):
            exact = float(np.mean(np.abs(np.sort(xa) - np.sort(xb))))
            out.check(abs(d - exact) <= 1e-12 * max(exact, 1.0),
                      f"wasserstein1_1d {i}: {d} vs sorted coupling {exact}")
        for s in suites:
            out.check(s.passed, f"verify {s.suite}: "
                      + "; ".join(c.detail for c in s.checks if not c.passed))
        out.quality = float(np.mean([(p - ex.target) ** 2
                                     for p, ex in zip(preds, examples)]))
        out.counters = {f"verify.{s.suite}.s": s.seconds for s in suites}
        return out


WORKLOADS = {w.name: w for w in (CellN64, SweepGrid, KernelsT5000)}
