"""Analytic floating-point operations and bytes of the student's passes.

Counts follow ``StudentModel.forward`` / ``backward`` op by op from the
array shapes, for a context of T tokens.  A multiply-add counts as 2 flops;
an elementwise op (bias add, activation, exp, divide, compare) as 1.  Bytes
are 8 per float64 element read or written by each op, weights included,
plus the parameter bytes the digest hashes; caches are ignored, so the
numbers are labelled "computed", not measured.  Every count is
``per_token * T + per_call``.
"""

from __future__ import annotations


def _dims(cfg):
    return (cfg.input_dim, cfg.d_hidden, cfg.d_model, cfg.n_heads,
            cfg.head_dim)


def _n_params(cfg) -> int:
    di, dh, dm, H, hd = _dims(cfg)
    mlp = dh * di + dh + dm * dh + dm
    return 2 * mlp + 3 * H * hd * dm + dm * dm + dh * dm + dh + dh + 1


def forward_counts(cfg) -> tuple[tuple[int, int], tuple[int, int]]:
    """((flops per token, per call), (bytes per token, per call))."""
    di, dh, dm, H, hd = _dims(cfg)
    # (flops/token, flops/call, elements/token, elements/call)
    ops = [
        # context MLP: C @ W1.T + b1, act, @ W2.T + b2
        (2 * di * dh + dh, 0, di + dh, dh * di + dh),
        (dh, 0, 2 * dh, 0),
        (2 * dh * dm + dm, 0, dh + dm, dm * dh + dm),
        # query MLP
        (0, 2 * di * dh + 2 * dh + 2 * dh * dm + dm, 0,
         di + 3 * dh + dm + dh * di + dh + dm * dh + dm),
        # Q/K/V projections
        (0, 2 * H * hd * dm, 0, dm + H * hd * dm + H * hd),
        (4 * H * hd * dm, 0, 2 * (dm + H * hd), 2 * H * hd * dm),
        # scores and the stabilized softmax (max, sub, exp, sum, divide)
        (2 * H * hd + H, 0, H * hd + H, H * hd),
        (5 * H, 0, 8 * H, 0),
        # attention-weighted values, output projection
        (2 * H * hd, 0, H + H * hd, H * hd),
        (0, 2 * dm * dm, 0, dm * dm + 2 * dm),
        # head MLP
        (0, 2 * dm * dh + 2 * dh + 2 * dh + 1, 0,
         dm + dh * dm + 3 * dh + dh + 2),
    ]
    return _totals(ops, _n_params(cfg))


def backward_counts(cfg) -> tuple[tuple[int, int], tuple[int, int]]:
    """((flops per token, per call), (bytes per token, per call))."""
    di, dh, dm, H, hd = _dims(cfg)
    ops = [
        # head MLP and output projection (no T dependence)
        (0, 6 * dh + 4 * dh * dm + 1, 0, 8 * dh + 3 * dh * dm + 2 * dm),
        (0, 3 * dm * dm, 0, 3 * dm * dm + 3 * dm),
        # d_attn, d_head_v, inner, d_scores
        (2 * H * hd, 0, 2 * H * hd + H, 0),
        (H * hd, 0, H + H * hd, H * hd),
        (2 * H, 0, 2 * H, 0),
        (2 * H, 0, 3 * H, H),
        # d_head_q, d_head_k
        (2 * H * hd, H * hd, H + H * hd, H * hd),
        (H + H * hd, 0, H + H * hd, H * hd),
        # weight gradients of Q, K, V and the embedding gradients
        (0, H * hd * dm, 0, H * hd + dm + H * hd * dm),
        (4 * H * hd * dm, 0, 2 * (H * hd + dm), 2 * H * hd * dm),
        (0, 2 * H * hd * dm, 0, H * hd * dm + H * hd + dm),
        (4 * H * hd * dm + dm, 0, 2 * H * hd + 2 * dm, 2 * H * hd * dm),
        # query MLP
        (0, 4 * dh * dm + 3 * dh + 2 * dh * di + dm, 0,
         3 * dh * dm + 6 * dh + 2 * dh * di + 2 * dm + di),
        # context MLP: d_ctx_act, W2 and b2 grads, act grad, W1 and b1 grads
        (2 * dm * dh, 0, dm + dh, dm * dh),
        (2 * dm * dh + dm, 0, dm + dh, dm * dh + dm),
        (2 * dh, 0, 3 * dh, 0),
        (2 * dh * di + dh, 0, dh + di, dh * di + dh),
    ]
    return _totals(ops, _n_params(cfg))


def _totals(ops, n_params):
    f_tok = sum(o[0] for o in ops)
    f_call = sum(o[1] for o in ops)
    b_tok = 8 * sum(o[2] for o in ops)
    b_call = 8 * (sum(o[3] for o in ops) + n_params)
    return (f_tok, f_call), (b_tok, b_call)


def computed(counts, tokens: int, calls: int) -> tuple[int, int]:
    """Total (flops, bytes) over calls that processed ``tokens`` tokens."""
    (f_tok, f_call), (b_tok, b_call) = counts
    return f_tok * tokens + f_call * calls, b_tok * tokens + b_call * calls
