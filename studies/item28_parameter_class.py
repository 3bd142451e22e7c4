"""The lemma's parameter class read on trained students (ROADMAP item 28).

Trains default-task students with run_cell at alpha=1 on the reduced token
profile, reads each one's attention layer as the lemma's operator and
prints one Markdown table row per (n, seed):

- B_a and S_a, the entry and sparsity bounds of the operator's heads
  (AttnParams.entry_bound and sparsity_bound);
- b_x and b_y, the largest absolute entries of the embedded queries (both
  tags) and of the embedded grid atoms, the points the operator sees;
- the explicit W1-Lipschitz constant those give (attention._lipschitz_bound),
  inf where it overflows;
- the largest relative gap between measure_attention and the student's
  projected attention output, mixed, over the first 20 validation rows.

Head h of a student is an AttnHead of dimension d_model: Q = attn_q[h]/sqrt(hd),
K = attn_k[h] and V = attn_v[h] in the first hd rows of zero matrices, and
W = attn_out's columns of head h in its first hd columns; the skip is zero.
A row's measure is the context MLP's pushforward of its counts.

Run from the repository root:

    python studies/item28_parameter_class.py           # n = 4 ... 1024, seeds 0-2
    python studies/item28_parameter_class.py --quick   # n = 4, seed 0
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from measure_attn import (AttnHead, AttnParams, DiscreteMeasure,  # noqa: E402
                          ExperimentConfig, measure_attention, run_cell)
from measure_attn.attention import _lipschitz_bound  # noqa: E402
from measure_attn.experiment import _val_set  # noqa: E402
from measure_attn.model import _forward, _query_side  # noqa: E402

ALPHA, N_LIST, SEEDS, BRIDGE_ROWS = 1.0, (4, 16, 64, 256, 1024), (0, 1, 2), 20


def lemma_params(model) -> AttnParams:
    """The student's attention layer as the lemma's AttnParams, zero skip."""
    cfg, b = model.config, model._blocks
    dm, hd = cfg.d_model, cfg.head_dim
    heads = []
    for h in range(cfg.n_heads):
        Q, K, V, W = (np.zeros((dm, dm)) for _ in range(4))
        Q[:hd] = b["attn_q"][h] / np.sqrt(hd)
        K[:hd] = b["attn_k"][h]
        V[:hd] = b["attn_v"][h]
        W[:, :hd] = b["attn_out"][:, h * hd:(h + 1) * hd]
        heads.append(AttnHead(W=W, Q=Q, K=K, V=V))
    return AttnParams(tuple(heads), np.zeros((dm, dm)))


def read_student(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    """Train cell (ALPHA, n, seed) and read its parameter class."""
    val_mse, model, _ = run_cell(ALPHA, n, seed, cfg)
    params = lemma_params(model)
    val = _val_set(cfg, cfg.spectrum(ALPHA), ALPHA, seed)
    rows = slice(0, BRIDGE_ROWS)
    f = _forward(model._blocks, model.config, val.atoms, val.queries[rows],
                 val.counts[rows])
    gap = 0.0
    for counts, x, mixed in zip(val.counts[rows], f["qry_emb"], f["mixed"]):
        got = measure_attention(params, DiscreteMeasure(f["ctx_emb"], counts / counts.sum()), x)
        gap = max(gap, np.linalg.norm(got - mixed) / np.linalg.norm(mixed))
    queries = np.array([[0.0, -1.0], [0.0, 1.0]])
    b_x = np.abs(_query_side(model._blocks, model.config, queries)["qry_emb"]).max()
    b_y = np.abs(f["ctx_emb"]).max()
    constant = _lipschitz_bound(params._stacked, params.n_heads, params.skip, b_x, b_y)
    return dict(n=n, seed=seed, val_mse=val_mse, B_a=params.entry_bound(),
                S_a=params.sparsity_bound(), b_x=b_x, b_y=b_y,
                constant=float(constant), gap=gap)


def revision() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="only n=4 at seed 0")
    args = parser.parse_args(argv)
    cells = [(4, 0)] if args.quick else [(n, s) for n in N_LIST for s in SEEDS]
    cfg = ExperimentConfig(alpha_list=(ALPHA,), n_tokens=1000, n_val=500)
    st, tr = cfg.student, cfg.train
    print(f"item 28 parameter class: alpha={ALPHA:g}, n_tokens={cfg.n_tokens}, "
          f"n_val={cfg.n_val}, T={cfg.T}, M={cfg.M}, student d_model={st.d_model} "
          f"heads={st.n_heads} {st.activation}, {tr.epochs} epochs at batch "
          f"{tr.batch_size}, bridge over {BRIDGE_ROWS} validation rows, "
          f"git {revision()}")
    print()
    print("| n | seed | val_mse | B_a | S_a | b_x | b_y | Lipschitz constant | bridge gap |")
    print("|---|------|---------|-----|-----|-----|-----|--------------------|------------|")
    for n, seed in cells:
        r = read_student(cfg, n, seed)
        print(f"| {r['n']} | {r['seed']} | {r['val_mse']:.4g} | {r['B_a']:.3f} | "
              f"{r['S_a']} | {r['b_x']:.3f} | {r['b_y']:.3f} | {r['constant']:.3g} | "
              f"{r['gap']:.2g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
