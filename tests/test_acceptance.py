"""Acceptance gate: nine numbered criteria, one test per criterion.

Running `pytest -v tests/test_acceptance.py` prints exactly one labeled
PASSED/FAILED line per criterion; assertion messages carry the measured
numbers.  Criterion 8 documents a real limitation of the synthetic recall
task (see its docstring): it is expected to fail, and the failure is the
honest measurement.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from measure_attn import (
    DiscreteMeasure,
    ExperimentConfig,
    MercerSpectrum,
    RiskCurve,
    build_mixture,
    build_recall_params,
    featured_mixture,
    fit_rate,
    gen_example,
    measure_attention,
    query_shuffle_eval,
    recall_feature_map,
    run_cell,
    scaling_axis,
    softmax_weights,
    sweep,
    temperature_for_error,
)
from measure_attn import verify

# alpha = 1 risk-scaling study at the reduced token budget; n_val = 1000 so
# the attention statistics (criterion 7) and the shuffle ablation
# (criterion 8) both see 1000 validation examples
CFG = replace(ExperimentConfig(), alpha_list=(1.0,), n_list=(4, 64),
              n_tokens=1000, n_val=1000)


def recall_instance(I, D, c, rng):
    """Orthogonal-tag scalar-content mixture plus its featured flattening."""
    spec = MercerSpectrum.on_midpoint_grid(1.0, 16, 32)
    comps = []
    for _ in range(I):
        n = int(rng.integers(3, 7))
        pts = np.sort(rng.uniform(0.05, 0.95, n))
        comps.append(DiscreteMeasure(pts, rng.dirichlet(np.ones(n))))
    ctx, query = build_mixture(comps, np.eye(I),
                               star_index=int(rng.integers(I)))
    params = build_recall_params(I, 1, D, c)
    featured = featured_mixture(spec, ctx, D)
    q_feat = recall_feature_map(spec, I, D)(query)
    return spec, ctx, featured, q_feat, params


@pytest.fixture(scope="module")
def cells():
    t0 = time.perf_counter()
    out = {}
    for n in CFG.n_list:
        for seed in range(CFG.seeds):
            out[(n, seed)] = run_cell(1.0, n, seed, CFG)
    return {"cells": out, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def reduced_sweep(tmp_path_factory):
    cfg = replace(ExperimentConfig(), n_tokens=1000, n_val=500)
    out_dir = str(tmp_path_factory.mktemp("sweep"))
    t0 = time.perf_counter()
    summary = sweep(cfg, out_dir, jobs=4)
    return summary, time.perf_counter() - t0


def test_criterion_1_recall_extraction_accuracy():
    """The explicit construction reads off the starred component's first
    eight basis coefficients within 5 * eps2 * max_t |e_j(z_t)| for
    I in {2, 4} components at eps2 = 1e-4, in under a second."""
    eps2, D = 1e-4, 8
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for I in (2, 4):
        c = temperature_for_error(I, eps2)
        spec, ctx, featured, q_feat, params = recall_instance(I, D, c, rng)
        out = measure_attention(params, featured, q_feat)
        star = ctx.components[ctx.star_index]
        for j in range(1, D + 1):
            vals = spec.basis_eval(j, star.support[:, 0])
            oracle = float(star.weights @ vals)
            budget = 5.0 * eps2 * float(np.max(np.abs(vals)))
            err = abs(out[I + 1 + (j - 1)] - oracle)
            worst = max(worst, err / budget)
            assert err <= budget, (
                f"criterion 1: I={I} mode {j}: |error|={err:.3e} exceeds "
                f"budget {budget:.3e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1: took {elapsed:.2f}s (budget 1s)"
    print(f"criterion 1: worst error/budget = {worst:.3f}, {elapsed:.3f}s")


def test_criterion_2_star_mass_closed_form():
    """Per-unit-mass attention on the starred component equals
    I e^{c^2} / (e^{c^2} + I - 1) = 200/101 at I = 2, c^2 = ln 100,
    to 1e-10, in under a second."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    c = math.sqrt(math.log(100.0))
    _, ctx, featured, q_feat, params = recall_instance(2, 4, c, rng)
    w = softmax_weights(params.heads[0], featured, q_feat)
    star = ctx.star_index
    n_star = ctx.components[star].n_points
    start = sum(ctx.components[i].n_points for i in range(star))
    per_unit = float(w[start:start + n_star].sum()) * ctx.n_components
    elapsed = time.perf_counter() - t0
    assert per_unit == pytest.approx(200.0 / 101.0, abs=1e-10), (
        f"criterion 2: got {per_unit!r}, want {200.0 / 101.0!r}")
    assert elapsed < 1.0, f"criterion 2: took {elapsed:.2f}s (budget 1s)"
    print(f"criterion 2: per-unit star mass {per_unit:.12f}, {elapsed:.3f}s")


def test_criterion_3_property_suites():
    """Orthonormality (1e-9), isometry (1e-10 relative), truncation
    domination (>= 100 draws per alpha in {0.5, 1, 2}, D in {2, 4, 8}) and
    the Lipschitz probe (no violation beyond 2x the bound over 1000 random
    trials) all pass within a 30 second budget."""
    results = verify.run_suites(
        ["orthonormality", "isometry", "truncation", "lipschitz"])
    total = sum(r.seconds for r in results)
    detail = ", ".join(
        f"{r.suite}={'ok' if r.passed else 'FAIL'} ({r.seconds:.2f}s)"
        for r in results)
    assert all(r.passed for r in results), f"criterion 3: {detail}"
    assert total < 30.0, f"criterion 3: suites took {total:.1f}s (budget 30s)"
    print(f"criterion 3: {detail}")


def test_criterion_4_gradient_check():
    """Manual reverse-mode gradients match central differences to relative
    error 1e-4 on 200 random coordinates for each of 10 seeds, within a
    30 second budget."""
    (result,) = verify.run_suites(["gradient"])
    failed = [c.name for c in result.checks if not c.passed]
    assert result.passed, f"criterion 4: failed checks {failed}"
    assert result.seconds < 30.0, (
        f"criterion 4: took {result.seconds:.1f}s (budget 30s)")
    print(f"criterion 4: {len(result.checks)} checks in {result.seconds:.1f}s")


def test_criterion_5_risk_halves_from_4_to_64(cells):
    """At alpha = 1 the mean validation MSE over three seeds at n = 64 is
    at most half the mean at n = 4, with the whole six-cell computation
    finishing inside five minutes at the reduced token budget."""
    mse = {n: [cells["cells"][(n, s)][0] for s in range(CFG.seeds)]
           for n in CFG.n_list}
    for n in CFG.n_list:
        assert all(np.isfinite(v) and v > 0 for v in mse[n])
    mean4 = float(np.mean(mse[4]))
    mean64 = float(np.mean(mse[64]))
    ratio = mean64 / mean4
    assert ratio <= 0.5, (
        f"criterion 5: mean MSE n=64 {mean64:.4f} vs n=4 {mean4:.4f}, "
        f"ratio {ratio:.3f} > 0.5")
    assert cells["seconds"] < 300.0, (
        f"criterion 5: cells took {cells['seconds']:.0f}s (budget 300s)")
    print(f"criterion 5: mean4={mean4:.4f} mean64={mean64:.4f} "
          f"ratio={ratio:.3f} in {cells['seconds']:.0f}s")


def test_criterion_6_positive_rates_and_exact_fit(reduced_sweep):
    """The full grid at the reduced token budget yields a positive fitted
    rate constant C for every alpha in {0.5, 1, 2}, and the fitter recovers
    exactly collinear synthetic input to residual 1e-10."""
    summary, elapsed = reduced_sweep
    assert summary["cells_failed"] == 0, (
        f"criterion 6: failed cells {summary['failures']}")
    cs = {alpha: summary["fits"][alpha].C for alpha in (0.5, 1.0, 2.0)}
    assert all(c > 0 for c in cs.values()), f"criterion 6: C values {cs}"

    A, C = 1.0, 2.0
    n_values = (4, 16, 64, 256)
    t = scaling_axis(1.0, n_values)
    curve = RiskCurve(1.0, n_values, tuple(np.exp(A - C * t)), (0.0,) * 4)
    fit = fit_rate(curve, 1.0)
    assert abs(fit.A - A) <= 1e-10 and abs(fit.C - C) <= 1e-10, (
        f"criterion 6: exact-fit recovery A={fit.A!r} C={fit.C!r}")
    assert fit.residual_rms <= 1e-10, (
        f"criterion 6: exact-fit residual {fit.residual_rms!r}")
    print(f"criterion 6: C = {cs} in {elapsed:.0f}s; "
          f"exact fit residual {fit.residual_rms:.2e}")


def test_criterion_7_head_specializes_to_matching_tag(cells):
    """After training at alpha = 1, n = 64, some seed in {0, 1, 2} has a
    head whose same-tag vs different-tag mass means differ by at least 0.9
    over 1000 validation examples, while the across-head mean puts more
    mass on the matching side."""
    lines = []
    passed = False
    for seed in range(CFG.seeds):
        stats = cells["cells"][(64, seed)][2].stats
        sep = float(np.max(np.abs(stats.m_same_mean - stats.m_diff_mean)))
        same = float(np.mean(stats.m_same_mean))
        diff = float(np.mean(stats.m_diff_mean))
        ok = sep >= 0.9 and same > diff
        passed = passed or ok
        lines.append(f"seed {seed}: max|m_same-m_diff|={sep:.3f} "
                     f"mean m_same={same:.3f} m_diff={diff:.3f} "
                     f"{'PASS' if ok else 'fail'}")
    assert passed, "criterion 7: no seed qualified: " + "; ".join(lines)
    print("criterion 7:", "; ".join(lines))


def test_criterion_8_query_shuffle_degrades_tenfold(cells):
    """Breaking the query-context pairing should multiply the validation
    MSE by at least 10 for some seed at alpha = 1, n = 64.

    This criterion states a property the synthetic task cannot deliver, so
    the test fails and the failure is the finding.  The query tag tells the
    student which mixture component to read, but the target also carries an
    overall magnitude that the context communicates only through a
    normalized token histogram, and a normalized histogram is invariant to
    the coefficient scale.  The context-conditional Bayes predictor
    therefore keeps a mean squared error around 0.077 on this
    configuration, while routing by the query's sign and predicting the
    target's mean magnitude scores 2 sum lambda_j^2 ~ 0.313 (predicting
    the unconditional mean, which is 0, scores E[Y^2] = (sum lambda_j)^2 +
    2 sum lambda_j^2 ~ 0.652); shuffling queries can only move a trained
    student between those two floors, capping the achievable degradation
    near 3-4x regardless of training quality.  The assertion message
    records the measured ratios.
    """
    spec = CFG.spectrum(1.0)
    rng = np.random.default_rng(20260815)
    examples = [gen_example(spec, CFG, rng) for _ in range(1000)]
    ratios = {}
    for seed in range(CFG.seeds):
        model = cells["cells"][(64, seed)][1]
        orig, shuf = query_shuffle_eval(model, examples, seed=seed)
        ratios[seed] = shuf / orig
    best = max(ratios.values())
    print(f"criterion 8: shuffle/original MSE ratios {ratios}")
    assert best >= 10.0, (
        "criterion 8: best shuffled/original MSE ratio over seeds is "
        f"{best:.2f} (per-seed "
        + ", ".join(f"seed {s}: {r:.2f}" for s, r in ratios.items())
        + "); the normalized-histogram scale invariance described in the "
        "docstring caps this ratio near 3-4x, so the 10x requirement is "
        "unattainable on this task")


def test_criterion_9_sweep_is_bitwise_reproducible(tmp_path):
    """Two sweeps with identical configuration and seeds, one serial and
    one with two worker processes, produce byte-identical result files."""
    cfg = replace(ExperimentConfig(), alpha_list=(1.0,), n_list=(4, 8),
                  seeds=2, n_tokens=200, n_val=50, n_stat_examples=20)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    sweep(cfg, out1, jobs=1)
    sweep(cfg, out2, jobs=2)
    for name in ("risk_curve.csv", "attention_stats.csv", "fit.json",
                 "scaling_axis.dat"):
        b1 = Path(os.path.join(out1, name)).read_bytes()
        b2 = Path(os.path.join(out2, name)).read_bytes()
        assert b1 == b2, f"criterion 9: {name} differs between runs"
    print("criterion 9: 4/4 bundle files byte-identical")
