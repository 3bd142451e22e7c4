"""Measure-theoretic softmax attention and the explicit recall construction.

The operator acts on a pair (measure, point):

    Attn(mu, x) = A x + sum_h W_h * integral Softmax(<Q_h x, K_h y>) V_h y dmu(y)

where the softmax normalizer integrates against mu, so the measure's weights
enter the kernel normalization rather than reweighting a finite softmax.  On
a uniformly weighted support this reduces to ordinary attention.

Also here: hand-built parameters whose softmax selects one mixture
component almost exactly, and an empirical probe of the joint Lipschitz
bound in (W1 distance, query distance).  One kernel evaluates every head of
one instance or of a stack of zero-padded instances in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measures import DiscreteMeasure, MixtureContext, _w1_line, flatten
from .spectrum import MercerSpectrum, _integer, _positive, _real, _rng


@dataclass(frozen=True)
class AttnHead:
    """One attention head: output mixer W and projections Q, K, V."""

    W: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        for name in ("W", "Q", "K", "V"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"head matrix {name} must be square, got {m.shape}")
            if m.shape[0] != self.W.shape[0]:   # W is set first
                raise ValueError("head matrices must share one dimension")
            if not np.isfinite(m).all():
                raise ValueError(f"head matrix {name} must be finite")
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @property
    def d_attn(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class AttnParams:
    """H heads plus the skip matrix A, all square of one dimension."""

    heads: tuple[AttnHead, ...]
    skip: np.ndarray
    _stacked: np.ndarray = field(init=False, compare=False, repr=False)   # (H, 4, d, d)

    def __post_init__(self):
        heads = tuple(self.heads)
        skip = np.asarray(self.skip, dtype=np.float64)
        if skip.ndim != 2 or skip.shape[0] != skip.shape[1]:
            raise ValueError(f"skip matrix must be square, got {skip.shape}")
        if not np.isfinite(skip).all():
            raise ValueError("skip matrix must be finite")
        if any(h.d_attn != skip.shape[0] for h in heads):
            raise ValueError("heads and skip must share one dimension")
        stacked = _stack_heads(heads, skip.shape[0])
        skip.flags.writeable = stacked.flags.writeable = False
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "skip", skip)
        object.__setattr__(self, "_stacked", stacked)

    @property
    def d_attn(self) -> int:
        return self.skip.shape[0]

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    def entry_bound(self) -> float:
        """B_a: largest absolute entry over the head matrices."""
        return float(_entry_bound(self._stacked))

    def sparsity_bound(self) -> int:
        """S_a: largest nonzero count over the head matrices."""
        return int(_sparsity_bound(self._stacked))


def _stack_heads(heads, d: int) -> np.ndarray:
    """Head matrices as one (H, 4, d, d) array, each head's W, Q, K, V."""
    return np.array([(h.W, h.Q, h.K, h.V) for h in heads]).reshape(-1, 4, d, d)


def _abs_max(a: np.ndarray, axis) -> np.ndarray:
    """max |a| over axis, 0 when empty, without an |a| copy of a."""
    return np.maximum(a.max(axis=axis, initial=0.0), -a.min(axis=axis, initial=0.0))


def _entry_bound(heads: np.ndarray) -> np.ndarray:
    """B_a of stacked heads (..., H, 4, d, d); 0 without heads."""
    return _abs_max(heads, (-4, -3, -2, -1))


def _sparsity_bound(heads: np.ndarray) -> np.ndarray:
    """S_a of stacked heads (..., H, 4, d, d); 0 without heads."""
    return np.count_nonzero(heads, axis=(-2, -1)).max(axis=(-2, -1), initial=0)


def _softmax(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, integrated against the weights.

    Returns p_t exp(s_t) / sum_u p_u exp(s_u) with p the weights, stabilized
    by subtracting the max score as in Milakov & Gimelshein, "Online
    normalizer calculation for softmax" (2018).  The max runs over the
    points that carry mass, and the others get exp(-inf) = 0, so a
    zero-weight point with the highest score cannot underflow the rest.
    Unit weights give the ordinary softmax bitwise: the student's rows over
    a token list are this operator on the tokens' unit-weight measure.
    """
    e = np.where(weights > 0, scores, -np.inf)
    top = e.max(axis=-1, keepdims=True)
    if (top == -np.inf).any():
        raise ValueError("softmax normalizer vanished (zero-mass tilt)")
    e -= top
    np.exp(e, out=e)   # in place: one fresh (.., T) buffer per call, not two
    e *= weights
    total = e.sum(axis=-1, keepdims=True)
    if total.min(initial=np.inf) <= 0.0:
        raise ValueError("softmax normalizer vanished (zero-mass tilt)")
    e /= total
    return e


def _tilt(heads, support, weights, x) -> np.ndarray:
    """Every head's softmax density on the support, over leading axes.

    heads (..., H, 4, d, d) stack each head's W, Q, K, V; the support
    (..., n, d), weights (..., n) and query (..., d) broadcast against the
    heads' leading axes.  Returns (..., H, n).  The score <Q x, K y> is taken
    as <K^T Q x, y>, so no (H, n, d) projection of the support is formed.
    """
    kq = heads[..., 2, :, :].swapaxes(-1, -2) @ (heads[..., 1, :, :] @ x[..., None, :, None])
    return _softmax((support[..., None, :, :] @ kq)[..., 0], weights[..., None, :])


def _attend(heads, skip, support, weights, x) -> np.ndarray:
    """Attn(mu, x) over leading axes, shapes as in _tilt and skip (..., d, d).

    Every product is a matrix-vector one per head, so a head's arithmetic
    does not depend on how many heads share its stack, and the heads add
    onto A x one at a time in their order: zero-padded heads add exact
    zeros after the real ones.
    """
    w = _tilt(heads, support, weights, x)
    pooled = (w[..., None, :] @ support[..., None, :, :])[..., 0, :]   # (..., H, d)
    per_head = (heads[..., 0, :, :] @ (heads[..., 3, :, :] @ pooled[..., None]))[..., 0]
    out = (skip @ x[..., None])[..., 0]
    for h in range(per_head.shape[-2]):
        out += per_head[..., h, :]
    return out


def _query(d: int, mu: DiscreteMeasure, x, what: str) -> np.ndarray:
    """x as a finite float vector, checked against the operator's dimension d."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,) or mu.dim != d:
        raise ValueError(
            f"dimension mismatch: {what} {d}, measure {mu.dim}, query {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("query must be finite")
    return x


def softmax_weights(head: AttnHead, mu: DiscreteMeasure, x) -> np.ndarray:
    """Density of the softmax-tilted measure on mu's support.

    w_t = p_t exp(s_t) / sum_u p_u exp(s_u) with s_t = <Qx, K y_t>.  With
    Q = 0 the weights reproduce mu.  The tilt runs on mu's runs of equal
    rows, and a run's mass goes to its rows in proportion to their weights.
    """
    x = _query(head.d_attn, mu, x, "head")
    support, weights, lengths = mu._atoms
    w = _tilt(_stack_heads((head,), head.d_attn), support, weights, x)[0]
    if lengths is None:
        return w
    ratio = np.divide(w, weights, out=np.zeros_like(w), where=weights > 0)
    return np.repeat(ratio, lengths) * mu.weights


def measure_attention(params: AttnParams, mu: DiscreteMeasure, x) -> np.ndarray:
    """Attn(mu, x) evaluated exactly on mu's runs of equal rows, all heads at once."""
    x = _query(params.d_attn, mu, x, "params")
    return _attend(params._stacked, params.skip, *mu._atoms[:2], x)


def temperature_for_error(I: int, eps2: float) -> float:
    """Inverse of the recall error budget: c = sqrt(ln(I^3 / eps2)).

    At this temperature the non-star components retain softmax mass
    O(eps2 / I) in total, so recall is eps2-accurate per unit mass.
    """
    I = _integer("I", I, 1)
    _real("eps2", eps2, lambda x: x > 0, "positive")
    val = np.log(I ** 3 / eps2)
    if val <= 0:
        raise ValueError(f"error budget too loose: ln(I^3/eps2) = {val} <= 0")
    return float(np.sqrt(val))


def build_recall_params(d1: int, d2: int, D: int, temperature_c: float
                        ) -> AttnParams:
    """Parameters whose attention reads off D basis coefficients of the
    starred component.

    Operates on feature-mapped tokens (tag || content || e_1..e_D(content)),
    dimension d1 + d2 + D.  Every head scores tokens by the tag block alone
    at temperature c, so tokens of the starred component get weight close to
    their conditional mass; head h copies feature slot h through W = V =
    e_{d1+d2+h} e_{d1+d2+h}^T.  The skip passes (tag, content) through and
    zeroes the feature block, so output coordinate d1+d2+h is the extracted
    coefficient integral of e_{h+1} against the starred component.
    """
    d1, d2, D = _integer("d1", d1, 1), _integer("d2", d2, 0), _integer("D", D, 1)
    _real("temperature_c", temperature_c, _positive, "positive and finite")
    d = d1 + d2 + D
    tag_proj = np.zeros((d, d))
    tag_proj[:d1, :d1] = np.eye(d1)
    qk = temperature_c * tag_proj
    skip = np.zeros((d, d))
    skip[:d1 + d2, :d1 + d2] = np.eye(d1 + d2)
    heads = []
    for h in range(D):
        sel = np.zeros((d, d))
        sel[d1 + d2 + h, d1 + d2 + h] = 1.0
        heads.append(AttnHead(W=sel, Q=qk, K=qk, V=sel))
    return AttnParams(tuple(heads), skip)


def recall_feature_map(spec: MercerSpectrum, d1: int, D: int
                       ) -> Callable[[np.ndarray], np.ndarray]:
    """Map (tag || z) -> (tag || z || e_1(z)..e_D(z)) for scalar content.

    The map takes rows (..., d1 + 1) and returns rows (..., d1 + 1 + D).
    The features are exact basis evaluations, so the feature block of a
    token carries the integrands whose mixture averages the recall
    construction extracts.
    """
    d1, D = _integer("d1", d1, 1), _integer("D", D, 0)
    if D >= spec.M:
        raise ValueError(f"D={D} features need modes 1..{D} but M={spec.M}")

    def fmap(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim < 1 or points.shape[-1] != d1 + 1:
            raise ValueError(f"expected (tag || scalar content), got shape {points.shape}")
        feats = np.empty(points.shape[:-1] + (D,))   # D = 0 appends nothing
        for j in range(1, D + 1):
            feats[..., j - 1] = spec.basis_eval(j, points[..., d1])
        return np.concatenate([points, feats], axis=-1)

    return fmap


def featured_mixture(spec: MercerSpectrum, ctx: MixtureContext, D: int
                     ) -> DiscreteMeasure:
    """Flatten a scalar-content mixture and append its exact basis features."""
    if ctx.content_dim != 1:
        raise ValueError("feature mapping requires scalar content")
    flat = flatten(ctx)
    return DiscreteMeasure(recall_feature_map(spec, ctx.tag_dim, D)(flat.support),
                           flat.weights)


def _lipschitz_bound(heads, n_heads, skip, b_x, b_y) -> np.ndarray:
    """Explicit joint-Lipschitz constant of Attn in (W1, ||dx||_2).

    Over leading axes: heads (..., H, 4, d, d) of which n_heads (...) are
    real, the rest zero.  The two exponential terms bound the measure part
    (normalizer shift and integrand shift); the trailing term is the exact
    contribution of the skip matrix, which the exponential terms do not
    cover when the heads are small or absent.
    """
    Sa = _sparsity_bound(heads).astype(np.float64)
    Ba = _entry_bound(heads)
    g = Sa ** 2 * Ba ** 2 * b_x * b_y
    with np.errstate(over="ignore"):
        term_norm = n_heads * Sa ** 4 * Ba ** 4 * b_x * b_y * np.exp(4.0 * g)
        term_int = n_heads * (1.0 + g) * Sa ** 2 * Ba ** 2 * np.exp(2.0 * g)
    skip_term = np.count_nonzero(skip, axis=(-2, -1)) * _abs_max(skip, (-2, -1))
    return term_norm + term_int + skip_term


def _probe(heads, n_heads, skip, support, weights, x, w1):
    """The probe over leading axes: (ratio, bound, skipped).

    Each instance pairs two measures, support (..., 2, n, d) with weights
    (..., 2, n), and two queries x (..., 2, d); w1 (...) is their W1.  The
    heads are as in _lipschitz_bound and skip is (..., d, d).
    """
    out = _attend(heads[..., None, :, :, :, :], skip[..., None, :, :],
                  support, weights, x)
    dx = np.linalg.norm(x[..., 0, :] - x[..., 1, :], axis=-1)
    denom = w1 + dx
    bound = _lipschitz_bound(heads, n_heads, skip, _abs_max(x, (-2, -1)),
                             _abs_max(support, (-3, -2, -1)))
    skipped = denom == 0.0
    shift = np.abs(out[..., 0, :] - out[..., 1, :]).max(axis=-1)
    ratio = np.where(skipped, 0.0, shift / np.where(skipped, 1.0, denom))
    return ratio, bound, skipped


@dataclass(frozen=True)
class ProbeSummary:
    trials: int
    skipped: int
    violations: int
    violations_2x: int
    max_ratio: float
    max_ratio_over_bound: float


# the probe's instance family: measures of at most n_max points in at most
# d_max dimensions, head and skip entries in [-b_max, b_max], h_max heads
_FAMILY = (8, 4, 1.0, 2)   # (n_max, d_max, b_max, h_max)


def _draw_trials(rng: np.random.Generator, n_trials: int):
    """Random instances of _FAMILY as zero-padded arrays, one array draw per field.

    A trial has d ~ U{2..d_max}, n_heads ~ U{1..h_max} and scale ~
    U(0.1, b_max).  The W, Q, K, V of each real head and the skip matrix
    get 1-3 distinct nonzero cells, uniform in the leading (d, d) block,
    with entries U(-scale, scale).  Two measures of U{1..n_max} points with
    Dirichlet(1, ..., 1) weights share a base point in U(-1, 1)^d and vary
    in one coordinate; the second equals the first with probability 0.05,
    and the queries in U(-1, 1)^d are equal with probability 0.1.

    Returns heads (N, h_max, 4, d_max, d_max), n_heads (N,), skip
    (N, d_max, d_max), support (N, 2, n_max, d_max), weights (N, 2, n_max),
    queries x (N, 2, d_max) and the varying coordinate (N,).  Padding is
    exact: zero heads add 0, zero coordinates change no score or bound, and
    a measure's padded points repeat its last point at weight 0.
    """
    N = n_trials
    n_max, d_max, b_max, h_max = _FAMILY
    d = rng.integers(2, d_max + 1, N)
    n_heads = rng.integers(1, h_max + 1, N)
    scale = rng.uniform(0.1, b_max, N)
    in_d = np.arange(d_max) < d[:, None]

    def sparse(mats, live):   # 1-3 distinct nonzeros in the (d, d) block of live mats
        nnz = rng.integers(1, 4, live.shape)
        picks = np.zeros(live.shape + (3,), dtype=np.int64)
        for j in range(3):
            # uniform over the d*d - j cells left: step past each earlier
            # pick, in ascending order, that is not above the draw
            u = rng.integers(0, (d * d - j)[:, None], live.shape)
            for s in np.moveaxis(np.sort(picks[..., :j], axis=-1), -1, 0):
                u += u >= s
            picks[..., j] = u
        vals = rng.uniform(-scale[:, None, None], scale[:, None, None], picks.shape)
        i, k, j = np.nonzero(live[..., None] & (np.arange(3) < nnz[..., None]))
        rows, cols = np.divmod(picks[i, k, j], d[i])
        mats[i, k, rows, cols] = vals[i, k, j]

    heads = np.zeros((N, h_max, 4, d_max, d_max))
    skip = np.zeros((N, d_max, d_max))
    sparse(heads.reshape(N, 4 * h_max, d_max, d_max),
           np.arange(4 * h_max) < 4 * n_heads[:, None])
    sparse(skip[:, None], np.ones((N, 1), dtype=bool))

    # two measures that share a base point and vary in coordinate coord
    base = np.where(in_d, rng.uniform(-1.0, 1.0, (N, d_max)), 0.0)
    coord = rng.integers(0, d, N)
    n = rng.integers(1, n_max + 1, (N, 2))
    # padded slots repeat the last point
    last = np.minimum(np.arange(n_max), n[..., None] - 1)
    points = np.take_along_axis(rng.uniform(-1.0, 1.0, (N, 2, n_max)), last, axis=-1)
    support = np.where((np.arange(d_max) == coord[:, None])[:, None, None, :],
                       points[..., None], base[:, None, None, :])
    # Dirichlet(1, ..., 1) weights as normalized standard exponentials
    weights = np.where(np.arange(n_max) < n[..., None],
                       rng.standard_exponential((N, 2, n_max)), 0.0)
    weights /= weights.sum(axis=-1, keepdims=True)
    same_mu = rng.random(N) < 0.05
    support[same_mu, 1], weights[same_mu, 1] = support[same_mu, 0], weights[same_mu, 0]

    x = np.where(in_d[:, None, :], rng.uniform(-1.0, 1.0, (N, 2, d_max)), 0.0)
    same_x = rng.random(N) < 0.1
    x[same_x, 1] = x[same_x, 0]
    return heads, n_heads, skip, support, weights, x, coord


# trials drawn and probed per pass: the padded arrays of 250 trials take
# 0.5 MB, where all 1,000 trials of the verify suite take 2 MB
_TRIALS_PER_PASS = 250


def _probe_trials(n_trials: int, rng_seed):
    """Draw the trials and probe them in stacked passes: (ratio, bound, skipped).

    Each pass draws its trials as whole arrays from the one generator, so
    the trials depend on the pass size as well as the seed: passes of 250
    and 50 draw other trials than one pass of 300 would.
    """
    n_trials = _integer("n_trials", n_trials, 1)
    rng = _rng(rng_seed)
    parts = []
    for start in range(0, n_trials, _TRIALS_PER_PASS):
        n = min(_TRIALS_PER_PASS, n_trials - start)
        heads, n_heads, skip, support, weights, x, coord = _draw_trials(rng, n)
        line = np.take_along_axis(support, coord[:, None, None, None], axis=-1)
        w1 = _w1_line(line.reshape(n, -1),
                      np.concatenate([weights[:, 0], -weights[:, 1]], axis=-1))
        parts.append(_probe(heads, n_heads, skip, support, weights, x, w1))
        # freed before the next pass is drawn, so passes do not overlap in memory
        del heads, n_heads, skip, support, weights, x, coord, line, w1
    return tuple(np.concatenate(p) for p in zip(*parts))


def _summarize(ratio, bound, skipped) -> ProbeSummary:
    live = ~skipped
    r, b = ratio[live], bound[live]
    pos = b > 0
    return ProbeSummary(int(ratio.size), int(skipped.sum()), int(np.sum(r > b)),
                        int(np.sum(r > 2.0 * b)), float(r.max(initial=0.0)),
                        float((r[pos] / b[pos]).max(initial=0.0)))

