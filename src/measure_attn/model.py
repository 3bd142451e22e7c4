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
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .attention import _softmax


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(pre):
    return (pre > 0.0).astype(np.float64)


def _tanh(x):
    return np.tanh(x)


def _tanh_grad(pre):
    return 1.0 - np.tanh(pre) ** 2


_ACTIVATIONS = {"relu": (_relu, _relu_grad), "tanh": (_tanh, _tanh_grad)}


@dataclass(frozen=True)
class StudentConfig:
    d_model: int = 8
    d_hidden: int = 8
    n_heads: int = 4
    input_dim: int = 2
    activation: str = "relu"

    def __post_init__(self):
        for name in ("d_model", "d_hidden", "n_heads", "input_dim"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
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
        off += int(np.prod(shape))
    table["__total__"] = (off, ())
    return table


@dataclass
class ModelCache:
    """Intermediates of one forward pass, consumed by backward.

    Query-side arrays lead with the batch axis and attention-side ones carry
    it after the head axis, as attn (H, B, A); an unbatched pass has no
    batch axis.  params_digest pins the exact parameter bytes the pass used;
    backward refuses a cache whose parameters have since changed.
    """

    context: np.ndarray
    query: np.ndarray
    ctx_pre: np.ndarray
    ctx_act: np.ndarray
    ctx_emb: np.ndarray
    qry_pre: np.ndarray
    qry_act: np.ndarray
    qry_emb: np.ndarray
    head_q: np.ndarray
    head_k: np.ndarray
    head_v: np.ndarray
    attn: np.ndarray
    head_out: np.ndarray
    mixed: np.ndarray
    out_pre: np.ndarray
    out_act: np.ndarray
    params_digest: bytes


class StudentModel:
    """Flat-parameter student network with hand-written gradients."""

    def __init__(self, config: StudentConfig, params: Optional[np.ndarray] = None):
        self.config = config
        self._table = _layout(config)
        self.n_params = self._table["__total__"][0]
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
        self._blocks, self._grad_blocks = (
            {n: flat[off:off + int(np.prod(shape))].reshape(shape)
             for n, (off, shape) in self._table.items() if n != "__total__"}
            for flat in (self.params, self.grads))

    @classmethod
    def init(cls, config: StudentConfig, rng_seed) -> "StudentModel":
        """Glorot-uniform weights, zero biases, deterministic in the seed.

        Each weight matrix is drawn uniform on [-s, s] with
        s = sqrt(6 / (fan_in + fan_out)); the (H, hd, dm) projection stacks
        use per-head fans.
        """
        rng = np.random.default_rng(rng_seed)
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

        The context is a measure on the points context (A, input_dim): each
        point weighs 1 when weights is None, as tokens do, and weights[a]
        otherwise.  Queries (B, input_dim) with weights (B, A) make one
        batched pass over B measures on the same points and return B
        predictions; a query (input_dim,) returns a float.
        """
        cfg = self.config
        act, _ = _ACTIVATIONS[cfg.activation]
        C = np.asarray(context, dtype=np.float64)
        q = np.asarray(query, dtype=np.float64)
        if C.ndim != 2 or C.shape[1] != cfg.input_dim or C.shape[0] < 1:
            raise ValueError(
                f"context must be (T, {cfg.input_dim}) with T >= 1, got {C.shape}"
            )
        if q.ndim not in (1, 2) or q.shape[-1] != cfg.input_dim or q.size == 0:
            raise ValueError(f"query must have shape ({cfg.input_dim},) or "
                             f"(B, {cfg.input_dim}), got {q.shape}")
        lead, A = q.shape[:-1], C.shape[0]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != lead + (A,):
                raise ValueError(
                    f"weights must have shape {lead + (A,)}, got {weights.shape}")

        b = self._blocks
        ctx_pre = C @ b["ctx_w1"].T + b["ctx_b1"]
        ctx_act = act(ctx_pre)
        ctx_emb = ctx_act @ b["ctx_w2"].T + b["ctx_b2"]

        qry_pre = q @ b["qry_w1"].T + b["qry_b1"]
        qry_act = act(qry_pre)
        qry_emb = qry_act @ b["qry_w2"].T + b["qry_b2"]

        H, hd, dm = cfg.n_heads, cfg.head_dim, cfg.d_model
        scale = 1.0 / np.sqrt(hd)
        # one GEMM per projection for all heads; queries viewed as (H, B, hd),
        # keys and values as (H, A, hd)
        head_q = np.moveaxis(b["attn_q"] @ qry_emb.T, 1, -1)
        head_k, head_v = ((ctx_emb @ b[w].reshape(H * hd, dm).T)
                          .reshape(-1, H, hd).transpose(1, 0, 2)
                          for w in ("attn_k", "attn_v"))
        scores = head_q.reshape(H, -1, hd) @ head_k.transpose(0, 2, 1)
        attn = _softmax(scale * scores.reshape((H,) + lead + (A,)), weights)
        head_out = (attn.reshape(H, -1, A) @ head_v).reshape((H,) + lead + (hd,))
        mixed = (np.moveaxis(head_out, 0, -2).reshape(lead + (H * hd,))
                 @ b["attn_out"].T)

        out_pre = mixed @ b["head_w1"].T + b["head_b1"]
        out_act = act(out_pre)
        pred = (out_act @ b["head_w2"].T + b["head_b2"])[..., 0]

        cache = ModelCache(C, q, ctx_pre, ctx_act, ctx_emb, qry_pre, qry_act,
                           qry_emb, head_q, head_k, head_v, attn, head_out,
                           mixed, out_pre, out_act, self._digest())
        return (pred if lead else float(pred)), cache

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
        cfg = self.config
        _, act_grad = _ACTIVATIONS[cfg.activation]
        H, hd, dm = cfg.n_heads, cfg.head_dim, cfg.d_model
        scale = 1.0 / np.sqrt(hd)
        b, gb = self._blocks, self._grad_blocks
        up = np.asarray(upstream, dtype=np.float64)
        lead = cache.query.shape[:-1]
        if up.shape != lead:
            raise ValueError(f"upstream must have shape {lead}, got {up.shape}")
        B, A = up.size, cache.context.shape[0]

        def batch_sum_outer(x, y):   # sum over the batch of outer(x_b, y_b)
            return x.reshape(B, -1).T @ y.reshape(B, -1)

        # head MLP
        d_out_pre = up[..., None] * b["head_w2"][0] * act_grad(cache.out_pre)
        gb["head_w2"][:] = batch_sum_outer(up, cache.out_act)
        gb["head_b2"][0] = up.sum()
        gb["head_w1"][:] = batch_sum_outer(d_out_pre, cache.mixed)
        gb["head_b1"][:] = d_out_pre.reshape(B, -1).sum(axis=0)
        d_mixed = d_out_pre @ b["head_w1"]

        # output projection
        gb["attn_out"][:] = batch_sum_outer(d_mixed, np.moveaxis(cache.head_out, 0, -2))
        d_head_out = np.moveaxis((d_mixed @ b["attn_out"]).reshape(lead + (H, hd)),
                                 -2, 0).reshape(H, B, hd)

        # attention: o_hb = sum_a a_hba v_ha, a = softmax(scale * k q).  The
        # key and value gradients d_k[h,a] = scale sum_b d_scores[h,b,a] q_hb
        # and d_v[h,a] = sum_b a_hba d_o_hb have rank B per head, so they meet
        # ctx_emb as (H, B, A) weights, never as (H, A, hd) tensors.
        ctx, attn = cache.ctx_emb, cache.attn.reshape(H * B, A)
        sq = scale * cache.head_q.reshape(H, B, hd)
        Wq, Wk, Wv = b["attn_q"], b["attn_k"], b["attn_v"]
        u_v = d_head_out @ Wv                                   # (H, B, dm)
        d_attn = u_v.reshape(H * B, dm) @ ctx.T                 # (H B, A)
        d_scores = attn * (d_attn - (attn * d_attn).sum(axis=1, keepdims=True))
        s_ctx = (d_scores @ ctx).reshape(H, B, dm)
        d_head_q = scale * (Wk @ s_ctx.transpose(0, 2, 1))      # (H, hd, B)
        gb["attn_q"][:] = d_head_q @ cache.qry_emb.reshape(B, dm)
        gb["attn_k"][:] = sq.transpose(0, 2, 1) @ s_ctx
        gb["attn_v"][:] = (d_head_out.transpose(0, 2, 1)
                           @ (attn @ ctx).reshape(H, B, dm))
        d_qry_emb = (np.moveaxis(d_head_q, 2, 0).reshape(lead + (H * hd,))
                     @ Wq.reshape(H * hd, dm))
        d_ctx_emb = (d_scores.T @ (sq @ Wk).reshape(H * B, dm)
                     + attn.T @ u_v.reshape(H * B, dm))

        # query MLP
        gb["qry_w2"][:] = batch_sum_outer(d_qry_emb, cache.qry_act)
        gb["qry_b2"][:] = d_qry_emb.reshape(B, dm).sum(axis=0)
        d_qry_pre = (d_qry_emb @ b["qry_w2"]) * act_grad(cache.qry_pre)
        gb["qry_w1"][:] = batch_sum_outer(d_qry_pre, cache.query)
        gb["qry_b1"][:] = d_qry_pre.reshape(B, -1).sum(axis=0)

        # context MLP
        d_ctx_act = d_ctx_emb @ b["ctx_w2"]
        gb["ctx_w2"][:] = d_ctx_emb.T @ cache.ctx_act
        gb["ctx_b2"][:] = d_ctx_emb.sum(axis=0)
        d_ctx_pre = d_ctx_act * act_grad(cache.ctx_pre)
        gb["ctx_w1"][:] = d_ctx_pre.T @ cache.context
        gb["ctx_b1"][:] = d_ctx_pre.sum(axis=0)

    def to_dict(self) -> dict:
        return {"config": asdict(self.config), "params": self.params.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "StudentModel":
        return cls(StudentConfig(**d["config"]), np.asarray(d["params"]))
