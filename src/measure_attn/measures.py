"""Discrete measures on R^d and tagged mixture contexts.

A DiscreteMeasure is a finite weighted point set; a MixtureContext is a
family of content measures on R^{d2}, one per tag vector in R^{d1}; its
points are tokens (tag || content).  Tags must be near-orthogonal so a
query built from one tag can single out its component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectrum import _integer

WEIGHT_TOL = 1e-9
TAG_DOT_TOL = 1e-12


def _rows(points) -> np.ndarray:
    """points as float rows (N, d), a 1-D array of N scalars as (N, 1)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError(f"support must be (N, d) with N, d >= 1, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("support must be finite")
    return pts


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


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point set, a probability measure.

    support has shape (N, d), finite; a 1-D array of N scalars is accepted
    and reshaped to (N, 1).  weights are nonnegative and sum to 1 within 1e-9.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _rows(self.support)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise ValueError(
                f"weights shape {w.shape} does not match {pts.shape[0]} support points"
            )
        # written so that a NaN fails each check
        if not np.all(w >= 0.0):
            raise ValueError("weights must be nonnegative, not NaN")
        if not abs(w.sum() - 1.0) <= WEIGHT_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {WEIGHT_TOL}")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)

    @functools.cached_property
    def _atoms(self) -> tuple:
        """The measure on its runs of equal rows (_runs), built on first read:
        their first rows, summed weights and lengths, or (support, weights,
        None) if no row repeats."""
        atoms, lengths = _runs(self.support)
        if len(atoms) == len(self.support):
            return self.support, self.weights, None
        lengths = lengths.astype(np.intp)
        return atoms, np.add.reduceat(self.weights, lengths.cumsum() - lengths), lengths

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
        """Empirical measure of points: one point per run (_runs), weight length / n."""
        pts = _rows(points)
        atoms, lengths = _runs(pts)
        return cls(atoms, lengths / len(pts))


@dataclass(frozen=True)
class MixtureContext:
    """I tagged content measures, mixed uniformly, and a starred index.

    The mixture is nu = I^-1 sum_i mu^(i).  tags are unit vectors with
    pairwise inner products <= 1e-12 (signed, so the one-dimensional pair
    {+1, -1} qualifies).
    """

    components: tuple[DiscreteMeasure, ...]
    tags: np.ndarray
    star_index: int

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        d2 = comps[0].dim
        if any(c.dim != d2 for c in comps):
            raise ValueError("components must share content dimension")
        tags = np.asarray(self.tags, dtype=np.float64)
        if tags.ndim == 1:
            tags = tags[:, None]
        if tags.shape[0] != len(comps):
            raise ValueError("one tag per component required")
        norms = np.linalg.norm(tags, axis=1)
        if not np.all(np.abs(norms - 1.0) <= WEIGHT_TOL):   # a NaN fails
            raise ValueError("tags must be unit vectors")
        gram = tags @ tags.T
        off = gram - np.diag(np.diag(gram))
        if not np.all(off <= TAG_DOT_TOL):
            raise ValueError(
                "tag separation violated: pairwise inner products must be <= "
                f"{TAG_DOT_TOL}, worst {off.max()!r}"
            )
        star = _integer("star_index", self.star_index, 0)
        if star >= len(comps):
            raise ValueError(f"star_index {star} out of range")
        tags.flags.writeable = False
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "star_index", star)

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
    ctx = MixtureContext(tuple(components), tags, star_index)
    query = np.concatenate([ctx.tags[ctx.star_index],
                            np.zeros(ctx.content_dim)])
    return ctx, query


def flatten(ctx: MixtureContext) -> DiscreteMeasure:
    """The mixture as one measure on R^{d1+d2}, tags prepended.

    Each component carries mass 1/I.
    """
    comps = ctx.components
    tags = np.repeat(ctx.tags, [c.n_points for c in comps], axis=0)
    support = np.hstack([tags, np.vstack([c.support for c in comps])])
    weights = np.concatenate([(1.0 / ctx.n_components) * c.weights for c in comps])
    return DiscreteMeasure(support, weights)


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


def _w1_line(values: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """W1 on a line, over leading axes, as the integral of |F_mu - F_nu|.

    The points values (..., m) carry the signed weights (..., m): mu's with
    a plus sign, nu's with a minus sign.  The cumulative signed weight over
    the sorted merged points is F_mu - F_nu on each gap between them.  The
    sum runs in sorted order, so extra zero-weight points that repeat a point
    add exact zeros and leave the distance bitwise unchanged.
    """
    order = np.argsort(values, axis=-1, kind="stable")
    gap = np.abs(np.cumsum(np.take_along_axis(signed, order, axis=-1), axis=-1))
    v = np.take_along_axis(values, order, axis=-1)
    width = np.diff(v, axis=-1, append=v[..., -1:])   # the last point opens no gap
    return np.cumsum(gap * width, axis=-1)[..., -1]


def wasserstein1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between measures on a line: integral of |F_mu - F_nu|.

    Supports in R^d are accepted when they vary in exactly one coordinate
    and agree on all the others; the distance is then computed along the
    varying coordinate (quantile coupling, exact for discrete measures).
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    col = _varying_column(mu.support, nu.support)
    if col is None:
        return 0.0
    return float(_w1_line(np.concatenate([mu.support[:, col], nu.support[:, col]]),
                          np.concatenate([mu.weights, -nu.weights])))
