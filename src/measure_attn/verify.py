"""Self-contained property suites behind the `verify` CLI command.

Each suite checks one lemma-level guarantee at a stated tolerance and
returns named per-check outcomes, so a failure points at the violated
assertion rather than at a stack trace.  Every suite draws and checks its
random instances as arrays of a fixed size.  A suite's fault flag
deliberately corrupts one computation path, so that the failure reporting
itself can be tested; run_suites names, times and faults every suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import attention, spectrum
from .measures import DiscreteMeasure, build_mixture
from .model import StudentConfig, StudentModel, _block_views, _forward, _layout

# fixed sizes: isometry draws per alpha, truncation draws per (alpha, D),
# probe trials, and gradient seeds with their coordinates per seed
_ISOMETRY_DRAWS, _TRUNCATION_DRAWS, _LIPSCHITZ_TRIALS = 50, 100, 1000
_GRADIENT_SEEDS, _GRADIENT_COORDS = 10, 200


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[Check, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def suite_orthonormality(fault: bool) -> list[Check]:
    """(1/T) sum_t e_j(x_t) e_k(x_t) = delta_jk on the midpoint grid.

    Quantified over the sine modes 1 <= j, k < M plus the (0, 0) diagonal
    pair; the constant mode is not orthogonal to odd sines on [0, 1] (the
    continuum integral of e_k is 2*sqrt(2)/(pi*k) for odd k) and carries no
    coefficients anywhere in the package, so mixed (0, k) pairs are out of
    scope by the mode-0 convention.
    """
    checks = []
    for M, T in ((16, 32), (8, 64), (5, 10)):
        spec = spectrum.MercerSpectrum(1.0, M, T)
        B = spec.basis_matrix()
        if fault:
            B = B * (1.0 + 1e-6)
        gram = (B[1:] @ B[1:].T) / spec.T
        err_sine = float(np.max(np.abs(gram - np.eye(M - 1))))
        err_const = abs(float(B[0] @ B[0]) / spec.T - 1.0)
        err = max(err_sine, err_const)
        checks.append(Check(
            f"orthonormality_gram_M{M}_T{T}", err <= 1e-9,
            f"max |gram - I| = {err:.3e} (tol 1e-9)"))
    return checks


def suite_isometry(fault: bool) -> list[Check]:
    """Norm transport and round-trip identity of the coefficient isometry."""
    checks = []
    rng = np.random.default_rng(2024)
    for alpha in (0.5, 1.0, 2.0):
        spec = spectrum.MercerSpectrum(alpha, 16, 32)
        b = rng.standard_normal((_ISOMETRY_DRAWS, spec.M))
        b[:, 0] = 0.0
        b_norm, c_norm = rng.uniform(-2, 2, (2, _ISOMETRY_DRAWS))
        mapped = spectrum.isometry_map(spec, b, b_norm, c_norm)
        if fault:
            mapped = mapped * (1.0 + 1e-6)
        lhs = spectrum.gen_norm_sq(spec, mapped, c_norm)
        rhs = spectrum.gen_norm_sq(spec, b, b_norm)
        worst_norm = float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)))
        back = spectrum.isometry_map(spec, mapped, c_norm, b_norm)
        worst_round = float(np.max(np.abs(back - b).max(axis=-1)
                                   / np.maximum(np.abs(b).max(axis=-1), 1e-300)))
        checks.append(Check(
            f"isometry_norm_preservation_alpha{alpha:g}", worst_norm <= 1e-10,
            f"worst relative norm error = {worst_norm:.3e} (tol 1e-10)"))
        checks.append(Check(
            f"isometry_round_trip_alpha{alpha:g}", worst_round <= 1e-12,
            f"worst relative round-trip error = {worst_round:.3e} (tol 1e-12)"))
    return checks


def suite_truncation(fault: bool) -> list[Check]:
    """Tail-norm domination over random unit-ball draws per (alpha, D)."""
    checks = []
    rng = np.random.default_rng(7)
    gamma_f, gamma_b = -1.0, 1.0
    for alpha in (0.5, 1.0, 2.0):
        spec = spectrum.MercerSpectrum(alpha, 16, 32)
        lam = spec.eigenvalues()
        for D in (2, 4, 8):
            bound = spectrum.truncation_bound(spec, D, gamma_f, gamma_b)
            if fault:
                bound = bound * 1e-3
            b = rng.standard_normal((_TRUNCATION_DRAWS, spec.M))
            b[:, 0] = 0.0
            scale = np.sqrt(spectrum.gen_norm_sq(spec, b, gamma_b))
            # inside the unit ball
            b = b / scale[:, None] * rng.uniform(0.0, 1.0, (_TRUNCATION_DRAWS, 1))
            tail = np.sqrt(np.sum(lam[D + 1:] ** (-gamma_f) * b[:, D + 1:] ** 2,
                                  axis=-1))
            checks.append(Check(
                f"truncation_domination_alpha{alpha:g}_D{D}",
                bool(np.all(tail <= bound * (1 + 1e-12))),
                f"worst tail/bound = {float(np.max(tail / bound)):.3e} "
                f"over {_TRUNCATION_DRAWS} draws"))
    return checks


def _recall_setup(spec, I: int, D: int, eps2: float, rng):
    """Random I-component scalar-content mixture plus its featured form.

    Tags are the first I standard basis vectors (pairwise orthogonal), so
    non-star tokens score exactly zero and the closed-form star mass
    I * exp(c^2) / (exp(c^2) + I - 1) applies.
    """
    d1 = I
    tags = np.eye(I)
    comps = []
    for _ in range(I):
        npts = int(rng.integers(3, 9))
        pts = np.sort(rng.uniform(0.05, 0.95, npts))[:, None]
        w = rng.dirichlet(np.ones(npts))
        comps.append(DiscreteMeasure(pts, w))
    ctx, query_vd = build_mixture(comps, tags, star_index=int(rng.integers(I)))
    c = attention.temperature_for_error(I, eps2)
    params = attention.build_recall_params(d1, 1, D, c)
    featured = attention.featured_mixture(spec, ctx, D)
    fmap = attention.recall_feature_map(spec, d1, D)
    return ctx, featured, fmap(query_vd), params, d1


def suite_recall(fault: bool) -> list[Check]:
    """One-hot selection: extracted coefficients match the star component.

    The oracle is the direct weighted sum over the starred component's pmf,
    with the lemma's error budget 5 * eps2 * max_t |e_j(z_t)| at
    c = sqrt(ln(I^3/eps2)).
    """
    checks = []
    rng = np.random.default_rng(11)
    eps2 = 1e-4
    D = 8
    spec = spectrum.MercerSpectrum(1.0, 16, 32)
    for I in (2, 4):
        ctx, featured, query, params, d1 = _recall_setup(spec, I, D, eps2, rng)
        out = attention.measure_attention(params, featured, query)
        star = ctx.components[ctx.star_index]
        worst = 0.0
        ok = True
        for j in range(1, D + 1):
            vals = spec.basis_eval(j, star.support[:, 0])
            oracle = float(star.weights @ vals)
            extracted = out[d1 + 1 + (j - 1)]
            if fault:
                extracted = extracted + 10 * eps2
            tol = 5 * eps2 * max(float(np.max(np.abs(vals))), 1e-12)
            err = abs(extracted - oracle)
            worst = max(worst, err / tol)
            ok = ok and err <= tol
        checks.append(Check(
            f"recall_one_hot_I{I}", ok,
            f"worst |extracted - oracle| / tol = {worst:.3e} at eps2={eps2:g}"))
    return checks


def suite_lipschitz(fault: bool) -> list[Check]:
    """Joint Lipschitz inequality on random small instances, 2x slack.

    The trials are drawn as zero-padded arrays and probed in stacked passes.
    """
    ratio, bound, skipped = attention._probe_trials(_LIPSCHITZ_TRIALS, rng_seed=13)
    if fault:
        bound = bound * 1e-3
    summary = attention._summarize(ratio, bound, skipped)
    violations = summary.violations_2x
    return [
        Check("lipschitz_no_2x_violations", violations == 0,
              f"{violations} violations beyond 2x slack in {summary.trials} trials "
              f"({summary.skipped} skipped, max ratio/bound = {summary.max_ratio_over_bound:.3e})"),
        Check("lipschitz_trials_informative",
              summary.trials - summary.skipped >= _LIPSCHITZ_TRIALS // 2,
              f"{summary.trials - summary.skipped} non-degenerate trials"),
    ]


# coordinates per stacked pass of the gradient suite: its (100, P) rows and
# their intermediates stay under 1 MB, where all 400 rows of a seed need 3 MB
_FD_COORDS_PER_PASS = 50


def suite_gradient(fault: bool) -> list[Check]:
    """Training-step gradient vs central differences, rel. err <= 1e-4.

    Checks _GRADIENT_COORDS coordinates on each of _GRADIENT_SEEDS random
    batches: B queries on A shared atoms, integer counts with zeros among
    them, a target per query.  The analytic gradient is the mean squared
    loss's, as StudentModel._squared_loss_grads writes it.  The oracle is
    forward-only: the (2k, P) matrix of theta + step * e_c, then
    theta - step * e_c, for k of a seed's coordinates c goes through
    _forward as one stacked pass, and each coordinate's B prediction
    differences meet the loss's upstream 2 (pred - y) / B.
    """
    step = 1e-5
    worst = 0.0
    cfg = StudentConfig()
    table = _layout(cfg)
    for seed in range(_GRADIENT_SEEDS):
        rng = np.random.default_rng(1000 + seed)
        model = StudentModel.init(cfg, rng)
        A, B = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        atoms = np.column_stack([rng.uniform(0, 1, A), rng.choice([-1.0, 1.0], A)])
        queries = np.column_stack([np.zeros(B), rng.choice([-1.0, 1.0], B)])
        counts = rng.integers(0, 4, (B, A))
        counts[counts.sum(axis=1) == 0, 0] = 1   # every context carries mass
        targets = rng.standard_normal(B)
        model._squared_loss_grads(atoms, queries, counts, targets)
        analytic = model.grads.copy()
        if fault:
            analytic = analytic * (1.0 + 1e-3)
        pred = _forward(model._blocks, cfg, atoms, queries, counts)["pred"]
        upstream = 2.0 * (pred - targets) / B
        coords = rng.choice(model.n_params, size=_GRADIENT_COORDS, replace=False)
        for start in range(0, _GRADIENT_COORDS, _FD_COORDS_PER_PASS):
            part = coords[start:start + _FD_COORDS_PER_PASS]
            k = part.size
            thetas = np.tile(model.params, (2 * k, 1))
            thetas[np.arange(k), part] += step
            thetas[np.arange(k, 2 * k), part] -= step
            preds = _forward(_block_views(table, thetas), cfg, atoms, queries,
                             counts)["pred"]
            fd = (preds[:k] - preds[k:]) / (2.0 * step) @ upstream
            a = analytic[part]
            rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
            worst = max(worst, float(rel.max()))
    return [Check(
        "gradient_matches_central_differences", worst <= 1e-4,
        f"worst relative error = {worst:.3e} over {_GRADIENT_SEEDS * _GRADIENT_COORDS} "
        f"coordinates (tol 1e-4)")]


_SUITES = {
    "orthonormality": suite_orthonormality,
    "isometry": suite_isometry,
    "truncation": suite_truncation,
    "recall": suite_recall,
    "lipschitz": suite_lipschitz,
    "gradient": suite_gradient,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names=None, fault: str | None = None) -> list[SuiteResult]:
    """Run the named suites once each, in order (default: all of them).

    Each result carries its suite's name and wall time; fault names the one
    suite whose computation is corrupted.
    """
    names = list(SUITE_NAMES) if names is None else list(dict.fromkeys(names))
    if not names:
        raise ValueError(f"no suite selected; available: {list(SUITE_NAMES)}")
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; available: {list(SUITE_NAMES)}")
    if fault is not None and fault not in names:
        raise ValueError(f"fault {fault!r} is injected into no selected suite; "
                         f"selected: {names}")
    results = []
    for name in names:
        t0 = time.perf_counter()
        checks = _SUITES[name](fault == name)
        results.append(SuiteResult(name, tuple(checks), time.perf_counter() - t0))
    return results
