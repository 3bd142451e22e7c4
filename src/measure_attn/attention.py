"""Measure-theoretic softmax attention and the explicit recall construction.

The operator acts on a pair (measure, point):

    Attn(mu, x) = A x + sum_h W_h * integral Softmax(<Q_h x, K_h y>) V_h y dmu(y)

where the softmax normalizer integrates against mu, so the measure's weights
enter the kernel normalization rather than reweighting a finite softmax.  On
a uniformly weighted support this reduces to ordinary attention.

Also here: composition of (measure, point) -> point maps via pushforward,
hand-built parameters whose softmax selects one mixture component almost
exactly, and an empirical probe of the joint Lipschitz bound in
(W1 distance, query distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import DiscreteMeasure, MixtureContext, flatten, pushforward, wasserstein1_1d
from .spectrum import MercerSpectrum


@dataclass(frozen=True)
class AttnHead:
    """One attention head: output mixer W and projections Q, K, V."""

    W: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        mats = {}
        d = None
        for name in ("W", "Q", "K", "V"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"head matrix {name} must be square, got {m.shape}")
            if d is None:
                d = m.shape[0]
            elif m.shape[0] != d:
                raise ValueError("head matrices must share one dimension")
            m.flags.writeable = False
            mats[name] = m
        for name, m in mats.items():
            object.__setattr__(self, name, m)

    @property
    def d_attn(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class AttnParams:
    """H heads plus the skip matrix A, all square of one dimension."""

    heads: tuple[AttnHead, ...]
    skip: np.ndarray

    def __post_init__(self):
        heads = tuple(self.heads)
        skip = np.asarray(self.skip, dtype=np.float64)
        if skip.ndim != 2 or skip.shape[0] != skip.shape[1]:
            raise ValueError(f"skip matrix must be square, got {skip.shape}")
        if any(h.d_attn != skip.shape[0] for h in heads):
            raise ValueError("heads and skip must share one dimension")
        skip.flags.writeable = False
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "skip", skip)

    @property
    def d_attn(self) -> int:
        return self.skip.shape[0]

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    def entry_bound(self) -> float:
        """B_a: largest absolute entry over the head matrices."""
        if not self.heads:
            return 0.0
        return max(float(np.max(np.abs(m))) for h in self.heads
                   for m in (h.W, h.Q, h.K, h.V))

    def sparsity_bound(self) -> int:
        """S_a: largest nonzero count over the head matrices."""
        if not self.heads:
            return 0
        return max(int(np.count_nonzero(m)) for h in self.heads
                   for m in (h.W, h.Q, h.K, h.V))

    def to_dict(self) -> dict:
        return {
            "heads": [{n: getattr(h, n).tolist() for n in ("W", "Q", "K", "V")}
                      for h in self.heads],
            "skip": self.skip.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AttnParams":
        heads = tuple(AttnHead(**{n: np.asarray(hd[n]) for n in ("W", "Q", "K", "V")})
                      for hd in d["heads"])
        return cls(heads, np.asarray(d["skip"]))


def _softmax(scores: np.ndarray, weights=None) -> np.ndarray:
    """Softmax along the last axis, integrated against weights if given.

    Returns p_t exp(s_t) / sum_u p_u exp(s_u) (p = 1 when weights is None),
    stabilized by subtracting the max score as in Milakov & Gimelshein,
    "Online normalizer calculation for softmax" (2018).  With weights the
    max runs over the points that carry mass, and the others get exp(-inf)
    = 0, so a zero-weight point with the highest score cannot underflow the
    rest.  The student's rows are this operator on the empirical measure of
    its tokens.
    """
    if weights is None:
        e = scores - scores.max(axis=-1, keepdims=True)
    else:
        e = np.where(weights > 0, scores, -np.inf)
        top = e.max(axis=-1, keepdims=True)
        if np.isneginf(top).any():
            raise ValueError("softmax normalizer vanished (zero-mass tilt)")
        e -= top
    np.exp(e, out=e)   # in place: one fresh (.., T) buffer per call, not two
    if weights is not None:
        e *= weights
    total = e.sum(axis=-1, keepdims=True)
    if total.min() <= 0.0:
        raise ValueError("softmax normalizer vanished (zero-mass tilt)")
    e /= total
    return e


def softmax_weights(head: AttnHead, mu: DiscreteMeasure, x) -> np.ndarray:
    """Density of the softmax-tilted measure on mu's support.

    w_t = p_t exp(s_t) / sum_u p_u exp(s_u) with s_t = <Qx, K y_t>.  With
    Q = 0 the weights reproduce mu.
    """
    x = np.asarray(x, dtype=np.float64)
    if mu.n_points < 1:
        raise ValueError("empty support")
    if x.shape != (head.d_attn,) or mu.dim != head.d_attn:
        raise ValueError(
            f"dimension mismatch: head {head.d_attn}, measure {mu.dim}, "
            f"query {x.shape}"
        )
    return _softmax((mu.support @ head.K.T) @ (head.Q @ x), mu.weights)


def measure_attention(params: AttnParams, mu: DiscreteMeasure, x) -> np.ndarray:
    """Attn(mu, x) evaluated exactly on the discrete support."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d_attn,) or mu.dim != params.d_attn:
        raise ValueError(
            f"dimension mismatch: params {params.d_attn}, measure {mu.dim}, "
            f"query {x.shape}"
        )
    out = params.skip @ x
    for head in params.heads:
        w = softmax_weights(head, mu, x)
        out += head.W @ (head.V @ (w @ mu.support))
    return out


def temperature_for_error(I: int, eps2: float) -> float:
    """Inverse of the recall error budget: c = sqrt(ln(I^3 / eps2)).

    At this temperature the non-star components retain softmax mass
    O(eps2 / I) in total, so recall is eps2-accurate per unit mass.
    """
    if I < 1:
        raise ValueError(f"I must be >= 1, got {I}")
    if not eps2 > 0:
        raise ValueError(f"eps2 must be positive, got {eps2}")
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
    if d1 < 1 or d2 < 0 or D < 1:
        raise ValueError(f"bad dimensions d1={d1}, d2={d2}, D={D}")
    if not temperature_c > 0:
        raise ValueError(f"temperature must be positive, got {temperature_c}")
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

    The features are exact basis evaluations, so the feature block of a
    token carries the integrands whose mixture averages the recall
    construction extracts.
    """
    if D >= spec.M:
        raise ValueError(f"D={D} features need modes 1..{D} but M={spec.M}")

    def fmap(point: np.ndarray) -> np.ndarray:
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (d1 + 1,):
            raise ValueError(f"expected (tag || scalar content), got shape {point.shape}")
        z = point[d1]
        feats = np.array([spec.basis_eval(j, z) for j in range(1, D + 1)])
        return np.concatenate([point, feats])

    return fmap


def featured_mixture(spec: MercerSpectrum, ctx: MixtureContext, D: int
                     ) -> DiscreteMeasure:
    """Flatten a scalar-content mixture and append its exact basis features."""
    if ctx.content_dim != 1:
        raise ValueError("feature mapping requires scalar content")
    return pushforward(flatten(ctx), recall_feature_map(spec, ctx.tag_dim, D))


@dataclass(frozen=True)
class MeasureMap:
    """A (measure, point) -> point map with declared dimensions."""

    fn: Callable[[DiscreteMeasure, np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int

    def __call__(self, mu: DiscreteMeasure, x) -> np.ndarray:
        return self.fn(mu, np.asarray(x, dtype=np.float64))


def attention_map(params: AttnParams) -> MeasureMap:
    return MeasureMap(lambda mu, x: measure_attention(params, mu, x),
                      params.d_attn, params.d_attn)


def pointwise_map(f: Callable[[np.ndarray], np.ndarray], in_dim: int,
                  out_dim: int) -> MeasureMap:
    """Lift a measure-independent map (an MLP, a projection) to a MeasureMap."""
    return MeasureMap(lambda mu, x: np.atleast_1d(np.asarray(f(x), dtype=np.float64)),
                      in_dim, out_dim)


def compose(g2: MeasureMap, g1: MeasureMap) -> MeasureMap:
    """(g2 after g1)(nu, x) = g2(g1(nu, .)_# nu, g1(nu, x)).

    The intermediate measure is the pushforward of nu through g1 with nu
    itself as the measure argument, so measure-independent stages reduce to
    mapping each token.
    """
    if g1.out_dim != g2.in_dim:
        raise ValueError(
            f"composition dimension mismatch: {g1.out_dim} feeds {g2.in_dim}"
        )

    def composed(nu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
        mu1 = pushforward(nu, lambda p: g1.fn(nu, p))
        return g2.fn(mu1, g1.fn(nu, x))

    return MeasureMap(composed, g1.in_dim, g2.out_dim)


@dataclass(frozen=True)
class LipschitzReport:
    """One probe trial: observed ratio against the certified bound."""

    ratio: float
    bound: float
    w1: float
    dx: float
    skipped: bool

    @property
    def violated(self) -> bool:
        return (not self.skipped) and self.ratio > self.bound


def _lipschitz_bound(params: AttnParams, b_x: float, b_y: float) -> float:
    """Explicit joint-Lipschitz constant of Attn in (W1, ||dx||_2).

    The two exponential terms bound the measure part (normalizer shift and
    integrand shift); the trailing term is the exact contribution of the
    skip matrix, which the exponential terms do not cover when the heads
    are small or absent.
    """
    H = params.n_heads
    Sa = float(params.sparsity_bound())
    Ba = params.entry_bound()
    g = Sa ** 2 * Ba ** 2 * b_x * b_y
    with np.errstate(over="ignore"):
        term_norm = H * Sa ** 4 * Ba ** 4 * b_x * b_y * np.exp(4.0 * g)
        term_int = H * (1.0 + g) * Sa ** 2 * Ba ** 2 * np.exp(2.0 * g)
    skip_term = float(np.count_nonzero(params.skip)) * float(np.max(np.abs(params.skip), initial=0.0))
    return float(term_norm + term_int + skip_term)


def lipschitz_probe(params: AttnParams, mu1: DiscreteMeasure,
                    mu2: DiscreteMeasure, x1, x2) -> LipschitzReport:
    """Compare the realized attention shift against the certified bound.

    ratio = ||Attn(mu1, x1) - Attn(mu2, x2)||_inf / (W1(mu1, mu2) + ||x1 - x2||_2).
    A zero denominator (identical inputs) skips the trial.  mu1, mu2 must be
    admissible for the one-dimensional W1 (vary in at most one coordinate).
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    w1 = wasserstein1_1d(mu1, mu2)
    dx = float(np.linalg.norm(x1 - x2))
    denom = w1 + dx
    b_x = max(float(np.max(np.abs(x1))), float(np.max(np.abs(x2))))
    b_y = max(float(np.max(np.abs(mu1.support))), float(np.max(np.abs(mu2.support))))
    bound = _lipschitz_bound(params, b_x, b_y)
    if denom == 0.0:
        return LipschitzReport(0.0, bound, w1, dx, skipped=True)
    diff = measure_attention(params, mu1, x1) - measure_attention(params, mu2, x2)
    ratio = float(np.max(np.abs(diff))) / denom
    return LipschitzReport(ratio, bound, w1, dx, skipped=False)


@dataclass(frozen=True)
class ProbeSummary:
    trials: int
    skipped: int
    violations: int
    violations_2x: int
    max_ratio: float
    max_ratio_over_bound: float


def _random_sparse(rng: np.random.Generator, d: int, b_max: float) -> np.ndarray:
    m = np.zeros((d, d))
    nnz = int(rng.integers(1, 4))
    flat = rng.choice(d * d, size=nnz, replace=False)
    m.flat[flat] = rng.uniform(-b_max, b_max, size=nnz)
    return m


def random_lipschitz_trials(n_trials: int, rng_seed, n_max: int = 8,
                            d_max: int = 4, b_max: float = 1.0,
                            h_max: int = 2) -> ProbeSummary:
    """Probe random small instances; the inequality itself is the oracle.

    Supports share a random base point and vary in one random coordinate so
    the exact 1-D W1 applies.  Queries and supports live in [-1, 1]^d, head
    entries in [-b_max, b_max].  A small fraction of trials deliberately
    duplicates x or mu to exercise the skip path of the probe.
    """
    rng = np.random.default_rng(rng_seed)
    skipped = violations = violations_2x = 0
    max_ratio = 0.0
    max_rel = 0.0
    for _ in range(n_trials):
        d = int(rng.integers(2, d_max + 1))
        n_heads = int(rng.integers(1, h_max + 1))
        scale = rng.uniform(0.1, b_max)
        heads = tuple(AttnHead(*(_random_sparse(rng, d, scale) for _ in range(4)))
                      for _ in range(n_heads))
        params = AttnParams(heads, _random_sparse(rng, d, scale))
        base = rng.uniform(-1.0, 1.0, d)
        coord = int(rng.integers(d))

        def rand_measure() -> DiscreteMeasure:
            n = int(rng.integers(1, n_max + 1))
            pts = np.tile(base, (n, 1))
            pts[:, coord] = rng.uniform(-1.0, 1.0, n)
            return DiscreteMeasure(pts, rng.dirichlet(np.ones(n)))

        mu1 = rand_measure()
        mu2 = mu1 if rng.random() < 0.05 else rand_measure()
        x1 = rng.uniform(-1.0, 1.0, d)
        x2 = x1.copy() if rng.random() < 0.1 else rng.uniform(-1.0, 1.0, d)
        rep = lipschitz_probe(params, mu1, mu2, x1, x2)
        if rep.skipped:
            skipped += 1
            continue
        max_ratio = max(max_ratio, rep.ratio)
        if rep.bound > 0:
            max_rel = max(max_rel, rep.ratio / rep.bound)
        if rep.ratio > rep.bound:
            violations += 1
        if rep.ratio > 2.0 * rep.bound:
            violations_2x += 1
    return ProbeSummary(n_trials, skipped, violations, violations_2x,
                        max_ratio, max_rel)
