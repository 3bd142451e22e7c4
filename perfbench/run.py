"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cell-n64 --seed 1 --seconds 42 --trace 0

Runs rounds of repetitions of the workload's fixed work, each repetition in
a fresh interpreter (``rep.py``), for about ``--seconds`` seconds or 12
repetitions, whichever comes first; never fewer than one round.  A round of
a single-process workload runs one repetition per CPU.  With ``--trace 0``
it prints the end-to-end metrics: medians over repetitions of wall time and
peak RSS, and the median set-up time of five interpreters started one at a
time.  With ``--trace 1`` it adds one round of traced repetitions and prints
the per-layer metrics of the first, plus the tracing overhead (traced median
wall time minus the untraced median).  The last stdout line is the JSON
result; the line before it records the environment.  Details and the reasons
for each workload are in README.md.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Processes one repetition keeps busy (sweep-grid runs sweep(jobs=2)).  A run
# starts nproc // PROCESSES repetitions at a time, and BLAS gets one thread
# per process, so processes x threads <= nproc.
PROCESSES = {"cell-n64": 1, "sweep-grid": 2, "kernels-t5000": 1}
SETUP_PROBES = 5      # set-up-only interpreters, run one at a time
MAX_REPS = 12         # enough for a steady median; keeps short workloads short
RUN_LIMIT_S = 170.0   # the whole run, set-up probes and traced repetition included


class RepFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # same import cost on every run
    env["PYTHONHASHSEED"] = "0"
    return env


def _round(args, env, deadline, copies: int, *flags) -> list[dict]:
    """Run ``copies`` rep.py processes at once; return their JSON lines.

    Each result carries its measured set-up time (rep.py reports the
    CLOCK_MONOTONIC instant it was ready; perf_counter reads the same clock)
    and the elapsed time of the whole round.
    """
    t0 = time.perf_counter()
    procs = []
    try:
        for slot in range(copies):
            cmd = [sys.executable, os.path.join(HERE, "rep.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--out", os.path.join(OUT, args.workload, str(slot)), *flags]
            procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                          start_new_session=True, text=True))
        outs = []
        for proc in procs:
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                raise RepFailed(f"run passed its {RUN_LIMIT_S:.0f} s limit")
            if proc.returncode != 0 or not out.strip():
                raise RepFailed(f"{' '.join(proc.args)} exited with {proc.returncode}")
            outs.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    elapsed = time.perf_counter() - t0
    for rep in outs:
        rep["setup_s"] = rep["ready"] - t0
        rep["elapsed_s"] = elapsed
    return outs


def _src_counts() -> tuple[int, int]:
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "measure_attn")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    lines += sum(1 for _ in fh)
    with open(os.path.join(SRC, "measure_attn", "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    exported = 0
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported = sum(1 for n in ast.literal_eval(node.value)
                           if not n.startswith("__"))
    return lines, exported


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "measure_attn", "__init__.py")):
        print(f"run.py: no measure_attn package under {SRC}", file=sys.stderr)
        return 2

    # a SIGTERM unwinds through _round's cleanup, which kills and reaps children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    copies = max(1, nproc // PROCESSES[args.workload])
    env = _child_env()
    try:
        probes = [rep for _ in range(SETUP_PROBES)
                  for rep in _round(args, env, deadline, 1, "--setup-only")]
        reps = []
        measure_start = time.perf_counter()
        while True:
            reps += _round(args, env, deadline, copies)
            spent = time.perf_counter() - measure_start
            if spent + reps[-1]["elapsed_s"] > args.seconds or len(reps) >= MAX_REPS:
                break
        traced = _round(args, env, deadline, copies, "--trace") if args.trace else []
    except RepFailed as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    done = reps + traced
    attempted = sum(r["attempted"] for r in done)
    failures = [f for r in done for f in r["failures"]]
    for f in failures:
        print(f"run.py: check failed: {f}", file=sys.stderr)

    wall = statistics.median(r["wall_s"] for r in reps)
    if traced:
        first = traced[0]
        overhead = statistics.median(r["wall_s"] for r in traced) - wall
        layers = {**first["layers"], "quality.val_mse": first["quality"],
                  "trace.overhead_s": overhead}
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        if first["missing"]:
            print(f"run.py: not traced (name not found): {first['missing']}",
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(
                r["setup_s"] for r in probes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }

    lines, exported = _src_counts()
    env_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "concurrent_repetitions": copies,
        "nproc": nproc, "worker_processes": PROCESSES[args.workload],
        "python": platform.python_version(), **reps[0]["env"],
        "git_commit": _git_commit(), "src_lines": lines,
        "src_exported_names": exported,
        "run_s": time.perf_counter() - start,
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"env": env_record, "result": result, "reps": done,
                   "setup_probes": probes}, f, indent=1)
    print(json.dumps({"env": env_record}))
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", "cells_done", "cells_failed")):
        return "count"
    if name.endswith(".s_per_token"):
        return "s/token"
    if name.endswith(".flops_computed"):
        return "flop"
    if name.endswith(".bytes_computed"):
        return "byte"
    if name == "quality.val_mse":
        return "mse"
    if name.endswith("parallel_eff"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
