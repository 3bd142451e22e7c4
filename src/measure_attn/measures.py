"""Discrete measures on R^d and tagged mixture contexts.

A DiscreteMeasure is a finite weighted point set; a MixtureContext is a
family of content measures on R^{d2}, one per tag vector in R^{d1}, from
which tokens (tag || content) are drawn.  Tags must be near-orthogonal so a
query built from one tag can single out its component.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-9
TAG_DOT_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point set; a probability measure unless tagged otherwise.

    support has shape (N, d); a 1-D array of N scalars is accepted and
    reshaped to (N, 1).  weights are nonnegative and, when normalized=True,
    sum to 1 within 1e-9.
    """

    support: np.ndarray
    weights: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        pts = np.asarray(self.support, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"support must be (N, d) with N >= 1, got shape {pts.shape}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise ValueError(
                f"weights shape {w.shape} does not match {pts.shape[0]} support points"
            )
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if self.normalized and abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {WEIGHT_TOL}")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        pt = np.atleast_1d(np.asarray(point, dtype=np.float64))
        return cls(pt[None, :], np.array([1.0]))

    @classmethod
    def uniform_on(cls, points) -> "DiscreteMeasure":
        pts = np.asarray(points, dtype=np.float64)
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    def to_dict(self) -> dict:
        return {"support": self.support.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteMeasure":
        return cls(np.asarray(d["support"], dtype=np.float64),
                   np.asarray(d["weights"], dtype=np.float64))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "DiscreteMeasure":
        return cls.from_dict(json.loads(s))


def pushforward(mu: DiscreteMeasure, f) -> DiscreteMeasure:
    """Image measure under a pointwise map; weights ride along unchanged.

    Duplicate images are kept as repeated support points, not merged.
    """
    rows = [np.atleast_1d(np.asarray(f(p), dtype=np.float64)) for p in mu.support]
    return DiscreteMeasure(np.stack(rows), mu.weights, mu.normalized)


def product_embed(mu0: DiscreteMeasure, v) -> DiscreteMeasure:
    """delta_v tensor mu0: prepend the tag v to every support point."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    tiled = np.broadcast_to(v, (mu0.n_points, v.size))
    return DiscreteMeasure(np.hstack([tiled, mu0.support]), mu0.weights,
                           mu0.normalized)


@dataclass(frozen=True)
class MixtureContext:
    """I tagged content measures with mixture weights and a starred index.

    tags are unit vectors with pairwise inner products <= 1e-12 (signed, so
    the one-dimensional pair {+1, -1} qualifies).
    """

    components: tuple[DiscreteMeasure, ...]
    tags: np.ndarray
    mix_weights: np.ndarray
    star_index: int

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        d2 = comps[0].dim
        if any(c.dim != d2 for c in comps):
            raise ValueError("components must share content dimension")
        if any(not c.normalized for c in comps):
            raise ValueError("components must be probability measures")
        tags = np.asarray(self.tags, dtype=np.float64)
        if tags.ndim == 1:
            tags = tags[:, None]
        if tags.shape[0] != len(comps):
            raise ValueError("one tag per component required")
        norms = np.linalg.norm(tags, axis=1)
        if np.any(np.abs(norms - 1.0) > WEIGHT_TOL):
            raise ValueError("tags must be unit vectors")
        gram = tags @ tags.T
        off = gram - np.diag(np.diag(gram))
        if np.any(off > TAG_DOT_TOL):
            raise ValueError(
                "tag separation violated: pairwise inner products must be <= "
                f"{TAG_DOT_TOL}, worst {off.max()!r}"
            )
        w = np.asarray(self.mix_weights, dtype=np.float64)
        if w.shape != (len(comps),):
            raise ValueError("mix_weights must have one entry per component")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("mix_weights must be a probability vector")
        if not 0 <= self.star_index < len(comps):
            raise ValueError(f"star_index {self.star_index} out of range")
        tags.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "mix_weights", w)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def tag_dim(self) -> int:
        return self.tags.shape[1]

    @property
    def content_dim(self) -> int:
        return self.components[0].dim


def build_mixture(components, tags, star_index: int
                  ) -> tuple[MixtureContext, np.ndarray]:
    """Uniform mixture over tagged components plus its recall query.

    The query is the starred tag padded with zeros on the content block.
    """
    I = len(components)
    ctx = MixtureContext(tuple(components), tags, np.full(I, 1.0 / I),
                         star_index)
    query = np.concatenate([ctx.tags[star_index],
                            np.zeros(ctx.content_dim)])
    return ctx, query


def flatten(ctx: MixtureContext) -> DiscreteMeasure:
    """The mixture as one measure on R^{d1+d2}, tags prepended."""
    parts = [product_embed(c, ctx.tags[i]) for i, c in enumerate(ctx.components)]
    support = np.vstack([p.support for p in parts])
    weights = np.concatenate(
        [ctx.mix_weights[i] * p.weights for i, p in enumerate(parts)])
    return DiscreteMeasure(support, weights)


def sample_tokens(ctx: MixtureContext, n_tokens: int, rng_seed) -> np.ndarray:
    """n_tokens i.i.d. draws (tag_i || content point) from the mixture.

    Each token draws its component from mix_weights, then a content point by
    inverse-cdf on that component's weights.  Fully determined by the seed.
    """
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    rng = np.random.default_rng(rng_seed)
    comp_idx = rng.choice(ctx.n_components, size=n_tokens, p=ctx.mix_weights)
    u = rng.random(n_tokens)
    out = np.empty((n_tokens, ctx.tag_dim + ctx.content_dim))
    for i, comp in enumerate(ctx.components):
        mask = comp_idx == i
        if not np.any(mask):
            continue
        cdf = np.cumsum(comp.weights)
        cdf[-1] = max(cdf[-1], 1.0)  # guard against cumsum rounding below 1
        pos = np.searchsorted(cdf, u[mask], side="right")
        pos = np.minimum(pos, comp.n_points - 1)
        out[mask, :ctx.tag_dim] = ctx.tags[i]
        out[mask, ctx.tag_dim:] = comp.support[pos]
    return out


def _varying_column(a: np.ndarray, b: np.ndarray) -> int | None:
    """Index of the single column where the union of rows varies.

    Returns None when every column is constant across both supports; raises
    when more than one column varies.
    """
    union = np.vstack([a, b])
    varying = np.nonzero(np.ptp(union, axis=0) > 0.0)[0]
    if varying.size == 0:
        return None
    if varying.size > 1:
        raise ValueError(
            "wasserstein1_1d supports variation in exactly one coordinate; "
            f"columns {varying.tolist()} all vary"
        )
    return int(varying[0])


def _cdf_at(values: np.ndarray, weights: np.ndarray, grid: np.ndarray
            ) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(weights[order])
    idx = np.searchsorted(v, grid, side="right")
    out = np.zeros_like(grid)
    nz = idx > 0
    out[nz] = cum[idx[nz] - 1]
    return out


def wasserstein1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between measures on a line: integral of |F_mu - F_nu|.

    Supports in R^d are accepted when they vary in exactly one coordinate
    and agree on all the others; the distance is then computed along the
    varying coordinate (quantile coupling, exact for discrete measures).
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if not (mu.normalized and nu.normalized):
        raise ValueError("W1 requires probability measures")
    if mu.dim == 1:
        col = 0 if np.ptp(np.vstack([mu.support, nu.support])) > 0 else None
    else:
        col = _varying_column(mu.support, nu.support)
    if col is None:
        return 0.0
    a, b = mu.support[:, col], nu.support[:, col]
    grid = np.unique(np.concatenate([a, b]))
    gap = np.abs(_cdf_at(a, mu.weights, grid) - _cdf_at(b, nu.weights, grid))
    return float(np.sum(gap[:-1] * np.diff(grid)))
