"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --out DIR
                             [--trace] [--setup-only]

Imports the package from the checkout's ``src``, builds the workload (its
set-up), then does the fixed work once and prints one JSON line: the
CLOCK_MONOTONIC instant the set-up finished, wall time, peak RSS of this
process and its largest child, operations attempted and failed, the quality
figure and, with --trace, the per-layer metrics.  ``run.py`` starts this script.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import flops  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SUITES = ("orthonormality", "isometry", "truncation", "recall", "lipschitz",
          "gradient")
STAGES = ("generate", "train", "evaluate", "stats", "shuffle")
LAYER_TIMES = ("spectrum.basis_matrix", "spectrum.synth_density",
               "measures.sample_tokens", "attention.softmax_weights",
               "model.forward", "model.backward", "optim.adam_step",
               "experiment.gen_example")


def layer_metrics(s: dict, cfg, jobs: int) -> dict:
    """The per-layer table from summarized spans (see README.md).

    Layers a workload does not exercise read 0; counters the workload
    reports itself (verify suite times, sweep cell counts) override these.
    """
    calls, self_s, incl, tokens, under = (s["calls"], s["self"], s["incl"],
                                          s["tokens"], s["under"])
    m = {}
    for name in LAYER_TIMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("measures.wasserstein1_1d", "attention.measure_attention",
                 "optim.train", "optim.evaluate",
                 "experiment.attention_mass_stats"):
        m[f"{name}.self_s"] = self_s[name]
    for name, counts in (("model.forward", flops.forward_counts(cfg)),
                         ("model.backward", flops.backward_counts(cfg))):
        t = tokens[name]
        m[f"{name}.s_per_token"] = self_s[name] / t if t else 0.0
        f, b = flops.computed(counts, t, calls[name])
        m[f"{name}.flops_computed"] = f
        m[f"{name}.bytes_computed"] = b
    stage = {
        "generate": incl["experiment._gen"] + incl["bench.fresh_contexts"],
        "train": incl["optim.train"],
        "evaluate": under[("optim.evaluate", "experiment.run_cell")],
        "stats": incl["experiment.attention_mass_stats"],
        "shuffle": incl["experiment.query_shuffle_eval"],
    }
    for k in STAGES:
        m[f"experiment.stage.{k}_s"] = stage[k]
    for suite in SUITES:
        m[f"verify.{suite}.s"] = 0.0
    m["experiment.sweep.cells_done"] = m["experiment.sweep.cells_failed"] = 0
    sweep_s = incl["experiment.sweep"]
    m["experiment.sweep.bundle_write_s"] = incl["experiment._write_bundle"]
    m["experiment.sweep.parallel_eff"] = (
        incl["experiment._sweep_cell_worker"] / (jobs * sweep_s) if sweep_s else 0.0)
    return m


def blas_env() -> dict:
    """numpy's version, its BLAS library and the thread count BLAS reports."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {"numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": None}
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                return env
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, args.out)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        spill_dir = os.path.join(args.out, "spans")
        os.makedirs(spill_dir, exist_ok=True)
        for f in os.listdir(spill_dir):
            os.unlink(os.path.join(spill_dir, f))
        tracer = spans.Tracer(spill_dir)
        tracer.install()

    t0 = time.perf_counter()
    outcome = work.run(tracer.span) if tracer else work.run()
    wall_s = time.perf_counter() - t0

    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rep = {"ready": ready, "wall_s": wall_s, "peak_rss_mb": kb / 1024.0,
           "attempted": outcome.attempted, "failures": outcome.failures,
           "quality": outcome.quality, "env": blas_env()}
    if tracer is not None:
        sets = [tracer.to_dict()] + spans.load_spills(tracer.spill_dir)
        with open(os.path.join(args.out, "spans.json"), "w") as f:
            json.dump({"missing": tracer.missing, "sets": sets}, f)
        rep["layers"] = {**layer_metrics(spans.summarize(sets), work.cfg.student,
                                         getattr(work, "jobs", 1)),
                         **outcome.counters}
        rep["missing"] = tracer.missing
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
