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

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .attention import _softmax
from .measures import _runs
from .spectrum import _integer, _rng

# rows of a context set that a draw or _score_rows takes at once (_blocks):
# a set's working memory is its counts plus one block, not an option
_BLOCK = 128

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

    def mlp(name, d_in, d_out):   # _mlp's blocks
        return [(name + "_w1", (dh, d_in)), (name + "_b1", (dh,)),
                (name + "_w2", (d_out, dh)), (name + "_b2", (d_out,))]
    shapes = [*mlp("ctx", di, dm), *mlp("qry", di, dm),
              ("attn_q", (H, hd, dm)), ("attn_k", (H, hd, dm)), ("attn_v", (H, hd, dm)),
              ("attn_out", (dm, dm)), *mlp("head", dm, 1)]
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


def _mlp(b: dict, cfg: StudentConfig, name: str, x: np.ndarray) -> tuple:
    """The two-layer MLP of the blocks name_w1, _b1, _w2, _b2 on the rows x:
    (pre, act, out); each layer is x @ w^T + bias, the bias broadcast over rows."""
    pre = x @ b[name + "_w1"].swapaxes(-1, -2) + b[name + "_b1"][..., None, :]
    act = _ACTIVATIONS[cfg.activation][0](pre)
    return pre, act, act @ b[name + "_w2"].swapaxes(-1, -2) + b[name + "_b2"][..., None, :]


def _mlp_grads(b: dict, gb: dict, cfg: StudentConfig, name: str, x: np.ndarray,
               pre: np.ndarray, act: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """_mlp's reverse: writes its four blocks' gradients into gb from the
    upstream d_out = d/d(out) and returns d/d(pre)."""
    d_pre = (d_out @ b[name + "_w2"]) * _ACTIVATIONS[cfg.activation][1](pre)
    np.matmul(d_out.swapaxes(-1, -2), act, out=gb[name + "_w2"])
    d_out.sum(axis=-2, out=gb[name + "_b2"])
    np.matmul(d_pre.swapaxes(-1, -2), x, out=gb[name + "_w1"])
    d_pre.sum(axis=-2, out=gb[name + "_b1"])
    return d_pre


def _context_side(b: dict, cfg: StudentConfig, C: np.ndarray) -> dict:
    """_forward's context MLP over the points C, and each head's keys and values."""
    ctx_pre, ctx_act, ctx_emb = _mlp(b, cfg, "ctx", C)
    # one GEMM per projection for all heads, viewed as (H, A, hd)
    heads = b["head_b2"].shape[:-1] + (cfg.d_model, cfg.d_model)
    per_head = b["head_b2"].shape[:-1] + (len(C), cfg.n_heads, cfg.head_dim)
    head_k = (ctx_emb @ b["attn_k"].reshape(heads).swapaxes(-1, -2)).reshape(per_head)
    head_v = (ctx_emb @ b["attn_v"].reshape(heads).swapaxes(-1, -2)).reshape(per_head)
    return dict(ctx_pre=ctx_pre, ctx_act=ctx_act, ctx_emb=ctx_emb,
                head_k=head_k.swapaxes(-3, -2), head_v=head_v.swapaxes(-3, -2))


def _query_side(b: dict, cfg: StudentConfig, q: np.ndarray) -> dict:
    """_forward's query MLP over the queries q, and each head's query."""
    qry_pre, qry_act, qry_emb = _mlp(b, cfg, "qry", q)
    head_q = (b["attn_q"] @ qry_emb.swapaxes(-1, -2)[..., None, :, :]).swapaxes(-1, -2)
    return dict(qry_pre=qry_pre, qry_act=qry_act, qry_emb=qry_emb, head_q=head_q)


def _head(b: dict, cfg: StudentConfig, heads_out: np.ndarray) -> dict:
    """_forward's output projection and head MLP on the heads' outputs (S, B, H*hd)."""
    mixed = heads_out @ b["attn_out"].swapaxes(-1, -2)
    out_pre, out_act, out = _mlp(b, cfg, "head", mixed)
    return dict(mixed=mixed, out_pre=out_pre, out_act=out_act, pred=out[..., 0])


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
    f = {**_context_side(b, cfg, C), **_query_side(b, cfg, q)}
    scale = 1.0 / math.sqrt(cfg.head_dim)
    f["attn"] = _softmax(scale * (f["head_q"] @ f["head_k"].swapaxes(-1, -2)),
                         weights[..., None, :, :])
    f["head_out"] = f["attn"] @ f["head_v"]
    heads_out = f["head_out"].swapaxes(-3, -2).reshape(
        b["head_b2"].shape[:-1] + (-1, cfg.d_model))
    return {**f, **_head(b, cfg, heads_out)}


def _blocks(n: int):
    """Slices of range(n): _BLOCK rows each from row 0, a lone last row kept
    with its block (a one-row product runs other BLAS kernels).  Each row
    keeps its offset modulo kernel tiles dividing _BLOCK, so the blocks'
    products are bitwise one product over all n rows."""
    ends = [*range(_BLOCK, n - 1, _BLOCK), n] if n else []
    return map(slice, [0, *ends[:-1]], ends)


def _score_rows(b: dict, cfg: StudentConfig, C: np.ndarray, queries: np.ndarray,
                counts: np.ndarray):
    """_forward's predictions (S, N) of the stacked models b for the count
    rows (N, A) on the points C with their queries, each head's attention
    masses on the points whose last coordinate (the tag) equals the query's
    and on the rest (S, N, H, 2), and each row's counts there (N, 2).

    A head's output is counts @ (e^s * V) over counts @ e^s, and the rows
    of one query share s: so they are GEMMs against e^s * V and e^s on
    either side, per head, e^s stabilized by the max over points with mass
    in some row.  A model's row whose normalizer is below the smallest
    normal float in some head goes through _forward.  Both passes take a
    query's rows in _blocks, bitwise one pass over them all.
    """
    S, (N, A), H, hd = b["head_b2"].shape[0], counts.shape, cfg.n_heads, cfg.head_dim
    ctx = _context_side(b, cfg, C)
    live, tiny = counts.any(axis=0), np.finfo(np.float64).tiny
    pred, mass, sides = np.empty((S, N)), np.empty((S, N, H, 2)), np.empty((N, 2), int)

    def one_query(q, rows):   # a function, so its arrays go before the next query's
        side = np.stack([C[:, -1] == q[-1], C[:, -1] != q[-1]], axis=-1)
        s = (1.0 / math.sqrt(hd)) * (_query_side(b, cfg, q[None])["head_q"]
                                     @ ctx["head_k"].swapaxes(-1, -2))[..., 0, :]
        top = np.where(live, s, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(live, s - top, -np.inf))[..., None]       # (S, H, A, 1)
        cols = np.concatenate([e * ctx["head_v"], e * side], axis=-1).swapaxes(1, 2)
        cols, low = cols.reshape(S, A, -1), np.empty((S, len(rows)), dtype=bool)
        for i in _blocks(len(rows)):
            w = counts[rows[i]]
            x = (w @ cols).reshape(S, len(w), H, hd + 2)
            z = x[..., hd:hd + 1] + x[..., hd + 1:]
            x /= np.maximum(z, tiny)
            pred[:, rows[i]] = _head(b, cfg, x[..., :hd].reshape(S, len(w), -1))["pred"]
            mass[:, rows[i]], sides[rows[i]] = x[..., hd:], w @ side
            low[:, i] = (z < tiny).any(axis=(2, 3))
        redo, low = rows[low.any(axis=0)], low[:, low.any(axis=0)]
        for i in _blocks(len(redo)):
            f = _forward(b, cfg, C, queries[redo[i]], counts[redo[i]])
            pred[:, redo[i]] = np.where(low[:, i], f["pred"], pred[:, redo[i]])
            mass[:, redo[i]] = np.where(low[:, i, None, None],
                                        (f["attn"] @ side).swapaxes(1, 2), mass[:, redo[i]])

    # rows are grouped by their query's bits, so a NaN query equals itself
    todo, bits = np.ones(N, dtype=bool), queries.view(np.uint64)
    while todo.any():
        q = queries[todo.argmax()]
        rows = np.flatnonzero((bits == bits[todo.argmax()]).all(axis=1))
        todo[rows] = False
        one_query(q, rows)
    return pred, mass, sides


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
    H, hd, dm = cfg.n_heads, cfg.head_dim, cfg.d_model
    scale = 1.0 / math.sqrt(hd)
    stack, B = up.shape[:-1], up.shape[-1]

    # head MLP, its one output's upstream a column
    d_mixed = _mlp_grads(b, gb, cfg, "head", f["mixed"], f["out_pre"], f["out_act"],
                         up[..., None]) @ b["head_w1"]

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

    # query and context MLPs
    _mlp_grads(b, gb, cfg, "qry", q, f["qry_pre"], f["qry_act"], d_qry_emb)
    _mlp_grads(b, gb, cfg, "ctx", C, f["ctx_pre"], f["ctx_act"], d_ctx_emb)


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

    def _digest(self) -> bytes:
        return self.params.tobytes()

    def forward(self, context, query) -> tuple[float, SimpleNamespace]:
        """Prediction for a query (input_dim,) attending over a token list
        (T, input_dim), and the cache backward consumes.

        The list is the unit-weight measure on its tokens, and the pass is
        _forward on its runs of bitwise-equal consecutive tokens (_runs), each
        run one point weighted by its length: the cost is linear in the runs.
        The cache holds _forward's arrays by name (a batch of one), the runs'
        first tokens as context (A, input_dim), their lengths as weights
        (1, A), the query, and params_digest, the exact parameter bytes the
        pass used; backward refuses a cache whose parameters have since changed.
        """
        cfg = self.config
        C = np.asarray(context, dtype=np.float64)
        q = np.asarray(query, dtype=np.float64)
        if C.ndim != 2 or C.shape[1] != cfg.input_dim or C.shape[0] < 1:
            raise ValueError(
                f"context must be (T, {cfg.input_dim}) with T >= 1, got {C.shape}"
            )
        if q.shape != (cfg.input_dim,):
            raise ValueError(f"query must have shape ({cfg.input_dim},), got {q.shape}")
        C, runs = _runs(C)
        f = _forward(self._blocks, cfg, C, q[None], runs[None])
        return float(f["pred"][0]), SimpleNamespace(
            context=C, query=q, weights=runs[None], params_digest=self._digest(), **f)

    def backward(self, cache: SimpleNamespace, upstream: float) -> None:
        """Write d(prediction)/d(params) * upstream into self.grads.

        Overwrites every gradient block on every call; callers accumulate
        explicitly.
        """
        if cache.params_digest != self._digest():
            raise ValueError(
                "stale cache: parameters changed since the forward pass"
            )
        up = np.asarray(upstream, dtype=np.float64)
        if up.shape != ():
            raise ValueError(f"upstream must be a scalar, got shape {up.shape}")
        _backward(self._blocks, self._grad_blocks, self.config, vars(cache),
                  cache.context, cache.query[None], up[None])

    def to_dict(self) -> dict:
        return {"config": asdict(self.config), "params": self.params.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "StudentModel":
        return cls(StudentConfig(**d["config"]), np.asarray(d["params"]))
