"""Command-line surface: verify | gen | train | sweep | analyze.

Exit codes: 0 success, 1 property, training or sweep failure, 2 usage/IO
error or a gen or train size too large to hold in memory.
Config precedence is flags > --profile > config file > built-in defaults.
Commands with an output directory write config_resolved.json there.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import experiment, verify
from .experiment import ExperimentConfig, _label, gen_example, risk_curves, run_cell
from .model import StudentConfig
from .optim import TrainConfig, losses_to_csv
from .spectrum import _integer, _length, _positive, _real

class CliError(Exception):
    """Usage or IO problem; maps to exit code 2."""


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise CliError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CliError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object, "
                       f"got {type(doc).__name__}")
    return doc


def _resolve_config(args, **defaults) -> ExperimentConfig:
    """Merge defaults < config file < --profile < flags.

    defaults, when given, replace the built-in defaults of those fields.
    """
    flags = {k: v for k, v in vars(args).items() if v is not None}
    merged = {**defaults, **_load_config_file(flags.get("config"))}
    if flags.get("profile") == "reduced":
        merged["n_tokens"] = 1000
        merged["n_val"] = 500
    # a flag sets the TrainConfig or ExperimentConfig field of its own name
    train_over = {f.name: flags[f.name] for f in fields(TrainConfig) if f.name in flags}
    merged.update((f.name, flags[f.name]) for f in fields(ExperimentConfig)
                  if f.name in flags)
    try:
        for attr, key, conv in (("alpha", "alpha_list", float),
                                ("n", "n_list", int)):
            if attr in flags:
                merged[key] = tuple(conv(x) for x in flags[attr].split(",")
                                    if x.strip())
        student = StudentConfig(**merged.pop("student", {}))
        train = TrainConfig(**{**merged.pop("train", {}), **train_over})
        return ExperimentConfig(student=student, train=train, **merged)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad configuration: {e}")


def _one_alpha_config(args, default: float) -> tuple[ExperimentConfig, float]:
    """The config of a command that takes one alpha, default when none is given."""
    cfg = _resolve_config(args, alpha_list=(default,))
    if len(cfg.alpha_list) != 1:
        raise CliError(f"bad configuration: {args.command} takes one alpha, "
                       f"got {list(cfg.alpha_list)}")
    return cfg, cfg.alpha_list[0]


def _write_resolved(cfg: ExperimentConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    experiment._atomic_write(os.path.join(out_dir, "config_resolved.json"),
                             json.dumps(asdict(cfg), sort_keys=True, indent=1) + "\n")


def _split_suites(arg) -> list[str] | None:
    if arg is None:
        return None
    return [s.strip() for item in arg for s in item.split(",") if s.strip()]


def cmd_verify(args) -> int:
    try:
        results = verify.run_suites(_split_suites(args.suite))
    except ValueError as e:
        raise CliError(str(e))
    width = max(len(r.suite) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"{r.suite:<{width}}  {len(r.checks):>2} checks  {status}  "
              f"{r.seconds:7.2f}s")
        for c in r.checks:
            if not c.passed or args.verbose:
                mark = "ok" if c.passed else "FAILED"
                print(f"    {c.name}: {mark} ({c.detail})")
    print("verify:", "all suites passed" if all_ok else "SUITE FAILURES")
    return 0 if all_ok else 1


def cmd_gen(args) -> int:
    cfg, alpha = _one_alpha_config(args, 0.5)
    try:
        ex = gen_example(cfg.spectrum(alpha), cfg, cfg.seed)
        doc = {
            "alpha": alpha,
            "context_tokens": ex.context_tokens.tolist(),
            "query_token": ex.query_token.tolist(),
            "target": ex.target,
            "hidden": {"z1": ex.latents[0].tolist(), "z2": ex.latents[1].tolist(),
                       "v1": float(ex.query_token[1])},
        }
        text = json.dumps(doc, indent=1)
    except MemoryError as e:
        raise CliError(f"cannot hold a context of {cfg.n_tokens} tokens in memory") from e
    if args.out:
        try:
            experiment._atomic_write(args.out, text + "\n")
        except OSError as e:  # the error names the temporary file, not --out
            raise CliError(f"cannot write {args.out}: {e.strerror or e}") from e
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_train(args) -> int:
    try:
        _length("--n-train", args.n_train)
        _integer("--cell-seed", args.cell_seed, 0)
    except ValueError as e:
        raise CliError(str(e))
    cfg, alpha = _one_alpha_config(args, 1.0)
    # --out is made after training: fail now if it cannot be made
    if not args.out:
        raise CliError("--out must name a directory, got ''")
    parent = os.path.abspath(args.out)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise CliError(f"cannot write {args.out}: {parent} is not a directory")
    try:
        val_mse, model, result = run_cell(alpha, args.n_train, args.cell_seed, cfg)
        metrics = experiment._payload((alpha, args.n_train, args.cell_seed),
                                      result.train_losses, val_mse, result.stats)
    except ValueError as e:   # a rejected Adam step
        metrics = experiment._error(e)
    except MemoryError as e:
        raise CliError(f"cannot hold {args.n_train} training and {cfg.n_val} validation "
                       f"contexts in memory") from e
    # written after the draw, so a size too large to hold leaves --out as it was
    _write_resolved(cfg, args.out)
    if isinstance(metrics, str):
        print(f"error: training failed: {metrics}", file=sys.stderr)
        return 1
    del metrics["train_losses"]   # losses.csv holds them
    for name, text in (("checkpoint.json", json.dumps(model.to_dict())),
                       ("losses.csv", losses_to_csv(list(result.train_losses))),
                       ("metrics.json", json.dumps(metrics, indent=1))):
        experiment._atomic_write(os.path.join(args.out, name), text)
    print(f"alpha={_label(alpha)} n={args.n_train} seed={args.cell_seed}  "
          f"val_mse={val_mse:.6g}")
    print(f"wrote checkpoint.json, losses.csv, metrics.json to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _resolve_config(args)
    _write_resolved(cfg, args.out)
    summary = experiment.sweep(cfg, args.out, jobs=args.jobs)
    done = summary["cells_total"] - summary["cells_failed"]
    print(f"sweep: {done}/{summary['cells_total']} cells")
    for alpha, fit in sorted(summary["fits"].items()):
        print(f"  alpha={_label(alpha)}: A={fit.A:.4f} C={fit.C:.4f} "
              f"residual_rms={fit.residual_rms:.4f}")
    if summary["cells_failed"]:
        for cell, err in sorted(summary["failures"].items()):
            print(f"  FAILED cell {cell}: {err}", file=sys.stderr)
        return 1
    print(f"bundle written to {args.out}")
    return 0


def _read_csv(path: str, columns: dict) -> list[dict]:
    """A CSV file's rows, each holding the named columns converted."""
    # bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError; on
    # Python 3.10 a NUL byte raises csv.Error
    try:
        with open(path, encoding="utf-8") as f:
            return [{k: conv(r[k]) for k, conv in columns.items()}
                    for r in csv.DictReader(f)]
    except (KeyError, TypeError, ValueError, csv.Error) as e:
        raise CliError(f"malformed {path}: {type(e).__name__}: {e}")


def _finite(text: str) -> float:
    return _real("value", float(text), math.isfinite, "finite")


def _alpha(text: str) -> float:
    return _real("alpha", float(text), _positive, "positive and finite")


def _n(text: str) -> int:
    return _integer("n", int(text), 1)


def cmd_analyze(args) -> int:
    risk_path = os.path.join(args.results_dir, "risk_curve.csv")
    if not os.path.isfile(risk_path):
        raise CliError(f"missing {risk_path}")
    risk = _read_csv(risk_path, {"alpha": _alpha, "n": _n, "val_mse": _finite})
    curves, fits = risk_curves((r["alpha"], r["n"], r["val_mse"]) for r in risk)

    stats_path = os.path.join(args.results_dir, "attention_stats.csv")
    stats = []
    if os.path.isfile(stats_path):
        stats = _read_csv(stats_path, {
            "alpha": _alpha, "n": _n, "head": int,
            **{k: float for k in experiment._STATS_COLUMNS}})

    if args.format == "json":
        doc = {
            "fits": {_label(a): {"A": f.A, "C": f.C, "residual_rms": f.residual_rms}
                     for a, f in fits.items()},
            "curves": {_label(a): {"n": list(c.n_values),
                                 "mean_mse": list(c.mean_mse),
                                 "std_mse": list(c.std_mse)}
                       for a, c in curves.items()},
            # a side with no tokens has NaN stats, which strict JSON writes as null
            "attention_stats": [{k: None if math.isnan(v) else v for k, v in r.items()}
                                for r in stats],
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0

    print("risk scaling fits  (log L = A - C t,  t = (log n)^(alpha/(alpha+1)))")
    print(f"{'alpha':>6} {'A':>10} {'C':>10} {'resid_rms':>10}")
    for alpha, fit in sorted(fits.items()):
        print(f"{_label(alpha):>6} {fit.A:>10.4f} {fit.C:>10.4f} "
              f"{fit.residual_rms:>10.4f}")
    for alpha, curve in sorted(curves.items()):
        pts = "  ".join(f"n={n}: {m:.4g}"
                        for n, m in zip(curve.n_values, curve.mean_mse))
        print(f"curve alpha={_label(alpha)}:  {pts}")
    if stats:
        # show the most-trained block: prefer alpha=1, then the largest n
        keys = {(r["alpha"], r["n"]) for r in stats}
        ones = [k for k in keys if k[0] == 1.0]
        show = max(ones) if ones else max(keys)
        print(f"\nattention masses at alpha={_label(show[0])}, n={show[1]} "
              "(means over validation examples)")
        print(f"{'head':>4} {'w_same':>12} {'w_diff':>12} {'m_same':>9} "
              f"{'m_diff':>9}")
        for r in stats:
            if (r["alpha"], r["n"]) == show:
                print(f"{r['head']:>4} {r['w_same_mean']:>12.3e} "
                      f"{r['w_diff_mean']:>12.3e} {r['m_same_mean']:>9.4f} "
                      f"{r['m_diff_mean']:>9.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="measure-attn",
        description="Measure-theoretic attention laboratory: property "
                    "verification, synthetic recall experiments, and "
                    "risk-scaling analysis.")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run lemma-level property suites")
    pv.add_argument("--suite", action="append",
                    help="comma-separated suite names (default: all); "
                         f"available: {', '.join(verify.SUITE_NAMES)}")
    pv.add_argument("--verbose", action="store_true",
                    help="print every check, not only failures")
    pv.set_defaults(fn=cmd_verify)

    def add_common(sp, with_train=True):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--alpha", help="comma-separated decay exponents")
        sp.add_argument("--seed", type=int, help="global seed")
        sp.add_argument("--n-tokens", dest="n_tokens", type=int)
        sp.add_argument("--n-val", dest="n_val", type=int)
        sp.add_argument("--clamp-eps", dest="clamp_eps", type=float)
        sp.add_argument("--profile", choices=["default", "reduced"],
                        help="reduced sets n_tokens=1000, n_val=500")
        if with_train:
            sp.add_argument("--epochs", type=int)
            sp.add_argument("--batch-size", dest="batch_size", type=int)
            sp.add_argument("--lr0", type=float)
            sp.add_argument("--decay", dest="decay_per_epoch", type=float,
                            help="learning-rate decay per epoch")
            sp.add_argument("--noise-std", dest="noise_std", type=float)

    pg = sub.add_parser("gen", help="generate one example (debugging)")
    add_common(pg, with_train=False)
    pg.add_argument("--out", help="output JSON path (default: stdout)")
    pg.set_defaults(fn=cmd_gen)

    pt = sub.add_parser("train", help="train a single grid cell")
    add_common(pt)
    pt.add_argument("--n-train", dest="n_train", type=int, default=64,
                    help="training set size")
    pt.add_argument("--cell-seed", dest="cell_seed", type=int, default=0,
                    help="per-cell seed")
    pt.add_argument("--out", required=True, help="output directory")
    pt.set_defaults(fn=cmd_train)

    ps = sub.add_parser("sweep", help="run the (alpha, n, seed) grid")
    add_common(ps)
    ps.add_argument("--n", help="comma-separated training sizes")
    ps.add_argument("--seeds", type=int, help="seeds per cell")
    ps.add_argument("--n-stat-examples", dest="n_stat_examples", type=int)
    ps.add_argument("--jobs", type=int, default=1,
                    help="most tasks run at once, each in a forked child process "
                         "(1: all in this process); a task trains up to 16 cells "
                         "of one n or scores one (alpha, seed) row")
    ps.add_argument("--out", default="sweep_out", help="output directory")
    ps.set_defaults(fn=cmd_sweep)

    pa = sub.add_parser("analyze", help="recompute fits from a sweep bundle")
    pa.add_argument("results_dir")
    pa.add_argument("--format", choices=["table", "json"], default="table")
    pa.set_defaults(fn=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (CliError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
