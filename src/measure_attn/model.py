"""Depth-2 student: token/query MLPs, one multi-head attention, MLP head.

Forward and reverse passes are written out by hand against a single flat
parameter vector, so gradients are exact (up to float64 rounding) and the
whole model serializes as one array.  The query is embedded by its own MLP
and provides the attention query; context tokens provide keys and values;
the query token is never part of the key/value set.  The head MLP sees the
projected attention output alone and emits a scalar.

No layer norm, no dropout, no biases inside the attention projections.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .attention import _softmax
from .spectrum import _integer, _rng


# name -> (activation, its derivative at the pre-activation); relu's is a
# boolean mask, which multiplies as 0.0 and 1.0 do
_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda pre: pre > 0.0),
    "tanh": (np.tanh, lambda pre: 1.0 - np.tanh(pre) ** 2),
}


@dataclass(frozen=True)
class StudentConfig:
    d_model: int = 8
    d_hidden: int = 8
    n_heads: int = 4
    input_dim: int = 2
    activation: str = "relu"

    def __post_init__(self):
        for name in ("d_model", "d_hidden", "n_heads", "input_dim"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def _layout(cfg: StudentConfig) -> dict[str, tuple[int, tuple[int, ...]]]:
    """name -> (offset, shape) for the flat parameter vector.

    The layout is a pure function of the config; weights appear in forward
    order so a checkpoint is readable without the code at hand.
    """
    dm, dh, H, hd, di = (cfg.d_model, cfg.d_hidden, cfg.n_heads,
                         cfg.head_dim, cfg.input_dim)
    shapes = [
        ("ctx_w1", (dh, di)), ("ctx_b1", (dh,)),
        ("ctx_w2", (dm, dh)), ("ctx_b2", (dm,)),
        ("qry_w1", (dh, di)), ("qry_b1", (dh,)),
        ("qry_w2", (dm, dh)), ("qry_b2", (dm,)),
        ("attn_q", (H, hd, dm)), ("attn_k", (H, hd, dm)), ("attn_v", (H, hd, dm)),
        ("attn_out", (dm, dm)),
        ("head_w1", (dh, dm)), ("head_b1", (dh,)),
        ("head_w2", (1, dh)), ("head_b2", (1,)),
    ]
    table = {}
    off = 0
    for name, shape in shapes:
        table[name] = (off, shape)
        off += math.prod(shape)
    return table


def _block_views(table, flat: np.ndarray) -> dict[str, np.ndarray]:
    """name -> view of its block in flat (..., P); leading axes ride along."""
    lead = flat.shape[:-1]
    return {n: flat[..., off:off + math.prod(shape)].reshape(lead + shape)
            for n, (off, shape) in table.items()}


def _forward(b: dict, cfg: StudentConfig, C: np.ndarray, q: np.ndarray,
             weights) -> dict[str, np.ndarray]:
    """The student's forward arithmetic for one model or a stack of models.

    Every block of b is a model's own block or carries one leading stack
    axis S.  The points C (A, input_dim) are shared by the stack; the
    queries q (B, input_dim) and the weights (B, A) are shared or carry the
    stack axis too, (S, B, input_dim) and (S, B, A).  Returns the
    intermediates by name: the context side is (S, A, .), the query side
    (S, B, .), the attention side (S, H, B, .) and pred (S, B), each without
    S when b is unstacked.  A stacked row is computed with the same calls
    on the same operands as the unstacked pass, so it is bitwise that pass.
    """
    act, _ = _ACTIVATIONS[cfg.activation]
    H, hd, dm = cfg.n_heads, cfg.head_dim, cfg.d_model
    stack, A = b["head_b2"].shape[:-1], C.shape[0]

    # each dense layer is x @ w^T + bias, the bias broadcast over rows
    ctx_pre = C @ b["ctx_w1"].swapaxes(-1, -2) + b["ctx_b1"][..., None, :]
    ctx_act = act(ctx_pre)
    ctx_emb = ctx_act @ b["ctx_w2"].swapaxes(-1, -2) + b["ctx_b2"][..., None, :]

    qry_pre = q @ b["qry_w1"].swapaxes(-1, -2) + b["qry_b1"][..., None, :]
    qry_act = act(qry_pre)
    qry_emb = qry_act @ b["qry_w2"].swapaxes(-1, -2) + b["qry_b2"][..., None, :]

    scale = 1.0 / math.sqrt(hd)
    # one GEMM per projection for all heads; queries viewed as (H, B, hd),
    # keys and values as (H, A, hd)
    head_q = (b["attn_q"] @ qry_emb.swapaxes(-1, -2)[..., None, :, :]).swapaxes(-1, -2)
    heads, per_head = stack + (H * hd, dm), stack + (A, H, hd)
    head_k = ((ctx_emb @ b["attn_k"].reshape(heads).swapaxes(-1, -2))
              .reshape(per_head).swapaxes(-3, -2))
    head_v = ((ctx_emb @ b["attn_v"].reshape(heads).swapaxes(-1, -2))
              .reshape(per_head).swapaxes(-3, -2))
    attn = _softmax(scale * (head_q @ head_k.swapaxes(-1, -2)),
                    weights[..., None, :, :])
    head_out = attn @ head_v
    mixed = (head_out.swapaxes(-3, -2).reshape(stack + (-1, H * hd))
             @ b["attn_out"].swapaxes(-1, -2))

    out_pre = mixed @ b["head_w1"].swapaxes(-1, -2) + b["head_b1"][..., None, :]
    out_act = act(out_pre)
    pred = (out_act @ b["head_w2"].swapaxes(-1, -2)
            + b["head_b2"][..., None, :])[..., 0]
    return dict(ctx_pre=ctx_pre, ctx_act=ctx_act, ctx_emb=ctx_emb,
                qry_pre=qry_pre, qry_act=qry_act, qry_emb=qry_emb,
                head_q=head_q, head_k=head_k, head_v=head_v, attn=attn,
                head_out=head_out, mixed=mixed, out_pre=out_pre,
                out_act=out_act, pred=pred)


def _backward(b: dict, gb: dict, cfg: StudentConfig, f: dict, C: np.ndarray,
              q: np.ndarray, up: np.ndarray) -> None:
    """The student's backward arithmetic: writes d(sum_b up[b] pred[b])/d(b)
    into the blocks gb, overwriting each in place through out=.

    b, gb and f are one model's blocks and the intermediates _forward
    returned for the points C (A, input_dim) and the queries q
    (B, input_dim), with up (B,); or they all carry one leading stack axis
    S, with q (S, B, input_dim) or shared and up (S, B).  As in _forward, a
    stacked row is bitwise that row's own call.
    """
    _, act_grad = _ACTIVATIONS[cfg.activation]
    H, hd, dm = cfg.n_heads, cfg.head_dim, cfg.d_model
    scale = 1.0 / math.sqrt(hd)
    stack, B = up.shape[:-1], up.shape[-1]

    # head MLP
    d_out_pre = up[..., None] * b["head_w2"] * act_grad(f["out_pre"])
    np.matmul(up[..., None, :], f["out_act"], out=gb["head_w2"])
    up.sum(axis=-1, keepdims=True, out=gb["head_b2"])
    np.matmul(d_out_pre.swapaxes(-1, -2), f["mixed"], out=gb["head_w1"])
    d_out_pre.sum(axis=-2, out=gb["head_b1"])
    d_mixed = d_out_pre @ b["head_w1"]

    # output projection
    np.matmul(d_mixed.swapaxes(-1, -2),
              f["head_out"].swapaxes(-3, -2).reshape(stack + (B, H * hd)),
              out=gb["attn_out"])
    d_head_out = ((d_mixed @ b["attn_out"]).reshape(stack + (B, H, hd))
                  .swapaxes(-3, -2))

    # attention: o_hb = sum_a a_hba v_ha, a = softmax(scale * k q).  The
    # key and value gradients d_k[h,a] = scale sum_b d_scores[h,b,a] q_hb
    # and d_v[h,a] = sum_b a_hba d_o_hb have rank B per head, so they meet
    # ctx_emb as (H, B, A) weights, never as (H, A, hd) tensors.
    ctx, attn = f["ctx_emb"], f["attn"].reshape(stack + (H * B, -1))
    sq = scale * f["head_q"]
    Wq, Wk, Wv = b["attn_q"], b["attn_k"], b["attn_v"]
    u_v = d_head_out @ Wv                                        # (H, B, dm)
    d_attn = u_v.reshape(stack + (H * B, dm)) @ ctx.swapaxes(-1, -2)  # (H B, A)
    d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
    s_ctx = (d_scores @ ctx).reshape(stack + (H, B, dm))
    d_head_q = scale * (Wk @ s_ctx.swapaxes(-1, -2))             # (H, hd, B)
    np.matmul(d_head_q, f["qry_emb"][..., None, :, :], out=gb["attn_q"])
    np.matmul(sq.swapaxes(-1, -2), s_ctx, out=gb["attn_k"])
    np.matmul(d_head_out.swapaxes(-1, -2),
              (attn @ ctx).reshape(stack + (H, B, dm)), out=gb["attn_v"])
    d_qry_emb = (d_head_q.swapaxes(-1, -2).swapaxes(-3, -2)
                 .reshape(stack + (B, H * hd)) @ Wq.reshape(stack + (H * hd, dm)))
    d_ctx_emb = (d_scores.swapaxes(-1, -2) @ (sq @ Wk).reshape(stack + (H * B, dm))
                 + attn.swapaxes(-1, -2) @ u_v.reshape(stack + (H * B, dm)))

    # query MLP
    np.matmul(d_qry_emb.swapaxes(-1, -2), f["qry_act"], out=gb["qry_w2"])
    d_qry_emb.sum(axis=-2, out=gb["qry_b2"])
    d_qry_pre = (d_qry_emb @ b["qry_w2"]) * act_grad(f["qry_pre"])
    np.matmul(d_qry_pre.swapaxes(-1, -2), q, out=gb["qry_w1"])
    d_qry_pre.sum(axis=-2, out=gb["qry_b1"])

    # context MLP
    d_ctx_act = d_ctx_emb @ b["ctx_w2"]
    np.matmul(d_ctx_emb.swapaxes(-1, -2), f["ctx_act"], out=gb["ctx_w2"])
    d_ctx_emb.sum(axis=-2, out=gb["ctx_b2"])
    d_ctx_pre = d_ctx_act * act_grad(f["ctx_pre"])
    np.matmul(d_ctx_pre.swapaxes(-1, -2), C, out=gb["ctx_w1"])
    d_ctx_pre.sum(axis=-2, out=gb["ctx_b1"])


def _squared_loss_grads(b: dict, gb: dict, cfg: StudentConfig, atoms, queries,
                        weights, targets) -> np.ndarray:
    """One training pass: writes the gradient of the mean squared loss of
    each model's B predictions into gb and returns pred - targets (.., B).

    The arithmetic of _forward then _backward with upstream 2 resid / B,
    with no input checks and no cache, on one model's blocks or a stack's.
    """
    f = _forward(b, cfg, atoms, queries, weights)
    resid = f["pred"] - targets
    _backward(b, gb, cfg, f, atoms, queries, 2.0 * resid / targets.shape[-1])
    return resid


def _runs(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A token list (T, d) as a measure: the first row of each run of
    bitwise-equal consecutive rows (A, d), and the run lengths (A,) as
    float weights.

    One neighbour comparison per column and no sort, so rows equal as
    floats but not in bits (0.0 and -0.0) stay separate points, and a list
    with no adjacent repeats comes back as its own rows with unit weights.
    """
    bits = C.view(np.uint64)
    edges = np.ones(len(C) + 1, dtype=bool)   # each run's start, then the end
    edges[1:-1] = bits[1:, 0] != bits[:-1, 0]
    for j in range(1, C.shape[1]):
        edges[1:-1] |= bits[1:, j] != bits[:-1, j]
    at = np.flatnonzero(edges)
    return C.take(at[:-1], axis=0), np.diff(at).astype(np.float64)


class ModelCache(SimpleNamespace):
    """Intermediates of one forward pass, consumed by backward.

    Describes the pass that ran: context holds its points (A, input_dim),
    for a token list the first token of each run, and weights (B, A) the
    weights it used.  Holds _forward's arrays by name over those points,
    pred included, with the batch axis always present (a query (input_dim,)
    is a batch of one), plus the query as given and params_digest, the exact
    parameter bytes the pass used; backward refuses a cache whose parameters
    have since changed.
    """


class StudentModel:
    """Flat-parameter student network with hand-written gradients."""

    def __init__(self, config: StudentConfig, params: Optional[np.ndarray] = None):
        self.config = config
        table = _layout(config)
        self.n_params = sum(math.prod(shape) for _, shape in table.values())
        if params is None:
            self.params = np.zeros(self.n_params)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (self.n_params,):
                raise ValueError(
                    f"params must have shape ({self.n_params},), got {params.shape}"
                )
            self.params = params.copy()
        self.grads = np.zeros(self.n_params)
        # params and grads only ever change in place, so views built once stay valid
        self._blocks = _block_views(table, self.params)
        self._grad_blocks = _block_views(table, self.grads)

    @classmethod
    def init(cls, config: StudentConfig, rng_seed) -> "StudentModel":
        """Glorot-uniform weights, zero biases, deterministic in the seed.

        Each weight matrix is drawn uniform on [-s, s] with
        s = sqrt(6 / (fan_in + fan_out)); the (H, hd, dm) projection stacks
        use per-head fans.
        """
        rng = _rng(rng_seed)
        model = cls(config)
        for name, w in model._blocks.items():
            if name.endswith(("_b1", "_b2")):
                continue
            s = np.sqrt(6.0 / (w.shape[-1] + w.shape[-2]))
            w[...] = rng.uniform(-s, s, w.shape)
        return model

    def block(self, name: str) -> np.ndarray:
        """Writable view of one named parameter block."""
        return self._blocks[name]

    def grad_block(self, name: str) -> np.ndarray:
        return self._grad_blocks[name]

    def block_names(self) -> list[str]:
        return list(self._blocks)

    def _digest(self) -> bytes:
        return hashlib.blake2b(self.params.tobytes(), digest_size=16).digest()

    def forward(self, context, query, weights=None
                ) -> tuple[float | np.ndarray, ModelCache]:
        """Prediction for a query attending over a context, and the cache.

        The context is a measure on the points context (A, input_dim): point
        a weighs weights[a].  With weights None the context is a token list,
        the unit-weight measure on its tokens, and the pass runs on its runs
        of bitwise-equal consecutive tokens, each run one point weighted by
        its length: the cost is linear in the runs, and a list grouped by
        atom is bitwise the pass on its counts.  Queries (B, input_dim) with
        weights (B, A) make one batched pass over B measures on the same
        points and return B predictions; a query (input_dim,) returns a
        float.
        """
        cfg = self.config
        C = np.asarray(context, dtype=np.float64)
        q = np.asarray(query, dtype=np.float64)
        if C.ndim != 2 or C.shape[1] != cfg.input_dim or C.shape[0] < 1:
            raise ValueError(
                f"context must be (T, {cfg.input_dim}) with T >= 1, got {C.shape}"
            )
        if q.ndim not in (1, 2) or q.shape[-1] != cfg.input_dim or q.size == 0:
            raise ValueError(f"query must have shape ({cfg.input_dim},) or "
                             f"(B, {cfg.input_dim}), got {q.shape}")
        lead, queries = q.shape[:-1], q.reshape(-1, cfg.input_dim)
        if weights is None:
            C, runs = _runs(C)
            weights = np.broadcast_to(runs, (len(queries), len(C)))
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != lead + (len(C),):
                raise ValueError(
                    f"weights must have shape {lead + (len(C),)}, got {weights.shape}")
            weights = weights.reshape(len(queries), -1)

        f = _forward(self._blocks, cfg, C, queries, weights)
        cache = ModelCache(context=C, query=q, weights=weights,
                           params_digest=self._digest(), **f)
        return (f["pred"] if lead else float(f["pred"][0])), cache

    def backward(self, cache: ModelCache, upstream) -> None:
        """Write d(prediction)/d(params) * upstream into self.grads.

        upstream has the shape of the predictions; a batched pass writes the
        sum over its examples.  Overwrites every gradient block on every
        call; callers accumulate explicitly.
        """
        if cache.params_digest != self._digest():
            raise ValueError(
                "stale cache: parameters changed since the forward pass"
            )
        up = np.asarray(upstream, dtype=np.float64)
        lead = cache.query.shape[:-1]
        if up.shape != lead:
            raise ValueError(f"upstream must have shape {lead}, got {up.shape}")
        _backward(self._blocks, self._grad_blocks, self.config, vars(cache),
                  cache.context, cache.query.reshape(-1, self.config.input_dim),
                  up.reshape(-1))

    def _squared_loss_grads(self, atoms, queries, weights, targets) -> np.ndarray:
        """The training pass, _squared_loss_grads, on this model's blocks."""
        return _squared_loss_grads(self._blocks, self._grad_blocks, self.config,
                                   atoms, queries, weights, targets)

    def to_dict(self) -> dict:
        return {"config": asdict(self.config), "params": self.params.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "StudentModel":
        return cls(StudentConfig(**d["config"]), np.asarray(d["params"]))
