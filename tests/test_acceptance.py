"""Acceptance gate: one check per shipped guarantee, each with a runtime
budget, printed as a single PASS/FAIL line.

Every check compares the library against an independent oracle (loop
evaluations, finite differences, factorial enumeration, closed-form
limits) or a directional claim on a shipped seeded instance. The verdict
lines surface in the terminal summary (see conftest) and in the captured
stdout of any failing check.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np
from conftest import blas_env, record_verdict

from infoot import (GeneratorConfig, PointSet, ProjectionRequest,
                    SolverConfig, adaptation_pipeline, barycentric_project,
                    build_kde_model, circular_validation, cluster_coherence,
                    conditional_project, entropy, fit_alignment,
                    gen_clusters, importance_scores, importance_weights,
                    load_spec, mi_gradient, mutual_information,
                    pairwise_distances, precision_at_k, project_pipeline,
                    sinkhorn, solve_fused_infoot, uniform_weights)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
BANDWIDTH_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def _verdict(num: int, name: str, ok: bool, detail: str,
             elapsed: float, budget: float) -> None:
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = (f"[criterion {num:02d}] {status} {name}: {detail}; "
            f"runtime {elapsed:.2f}s (budget {budget:g}s)")
    print(line)
    record_verdict(line)
    assert ok, line
    assert elapsed < budget, line


def _cloud_model(seed: int, n_max: int, h: float):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, n_max + 1, size=2)
    xs = PointSet(rng.normal(size=(n, 2)))
    ys = PointSet(rng.normal(size=(m, 2)))
    model = build_kde_model(
        pairwise_distances(xs, xs),
        pairwise_distances(ys, ys), h)
    return model, xs, ys


def _feasible_plan(seed: int, n: int, m: int) -> np.ndarray:
    """Strictly positive coupling with exact uniform marginals."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, (n, m))
    coupling, report = sinkhorn(C, uniform_weights(n), uniform_weights(m),
                                eps=0.5, max_iter=5000)
    assert report.converged
    return coupling.values


def test_criterion_01_independence_null():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        h = BANDWIDTH_GRID[seed % len(BANDWIDTH_GRID)]
        model, xs, ys = _cloud_model(seed, 50, h)
        plan = np.outer(uniform_weights(model.n), uniform_weights(model.m))
        worst = max(worst, abs(mutual_information(model, plan)))
    elapsed = time.perf_counter() - start
    _verdict(1, "independence null", worst <= 1e-12,
             f"max |MI(product coupling)| {worst:.2e} <= 1e-12 over 20 "
             f"instances", elapsed, 5.0)


def test_criterion_02_gradient_vs_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    step = 1e-6
    for seed in range(10):
        model, _, _ = _cloud_model(seed, 10, 0.5)
        g = _feasible_plan(seed + 100, model.n, model.m)
        grad = mi_gradient(model, g) + np.log(model.n * model.m)
        rng = np.random.default_rng(seed + 200)
        for _ in range(10):
            direction = rng.normal(size=g.shape)
            direction /= np.linalg.norm(direction)
            fd = (mutual_information(model, g + step * direction)
                  - mutual_information(model, g - step * direction)) / (2 * step)
            analytic = float((grad * direction).sum())
            rel = abs(analytic - fd) / max(abs(fd), 1e-10)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(2, "gradient vs central differences", worst < 1e-5,
             f"max relative error {worst:.2e} < 1e-5 over 10 instances x 10 "
             f"directions", elapsed, 30.0)


def test_criterion_03_small_bandwidth_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    xs = PointSet(rng.normal(size=(10, 2)))
    ys = PointSet(rng.normal(size=(10, 2)))
    dx = pairwise_distances(xs, xs)
    dy = pairwise_distances(ys, ys)
    plan = _feasible_plan(303, 10, 10)
    # The plan's Shannon MI under uniform marginals, which the estimate
    # approaches as h shrinks on distinct points.
    target = math.log(plan.size) - entropy(plan)
    gaps = []
    for h in (0.1, 0.03, 0.01, 0.003, 0.001):
        mi = mutual_information(build_kde_model(dx, dy, h), plan)
        gaps.append(abs(mi - target))
    monotone = all(a >= b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - start
    _verdict(3, "entropy limit at small bandwidth",
             monotone and gaps[-1] < 1e-3,
             f"|MI + H - log(nm)| at h=1e-3 is {gaps[-1]:.2e} < 1e-3, gap "
             f"monotone over 5 bandwidths ({'yes' if monotone else 'NO'})",
             elapsed, 5.0)


def test_criterion_04_sinkhorn_vs_exact_assignment():
    # The exact assignment optimum is enumerated over all 7! permutations.
    start = time.perf_counter()
    worst = 0.0
    converged = 0
    p = q = uniform_weights(7)
    for seed in range(10):
        C = np.random.default_rng(seed).uniform(0.0, 1.0, (7, 7))
        optimum = min(float(C[np.arange(7), list(sigma)].mean())
                      for sigma in permutations(range(7)))
        coupling, report = sinkhorn(C, p, q, eps=0.01, max_iter=5000)
        converged += int(report.converged)
        worst = max(worst, abs(float((coupling.values * C).sum()) - optimum))
    elapsed = time.perf_counter() - start
    _verdict(4, "sinkhorn cost vs assignment optimum",
             worst < 1e-2 and converged == 10,
             f"max |cost gap| {worst:.2e} < 1e-2 at eps=0.01 with "
             f"{converged}/10 solves converged; optimum enumerated over "
             f"7! permutations on 10 instances", elapsed, 10.0)


def test_criterion_05_cluster_coherence_vs_plain_sinkhorn():
    start = time.perf_counter()
    spec = load_spec(SPEC_DIR / "two_cluster_rotated.json")
    sample = gen_clusters(spec.generator)
    # cheaper inner settings for the bandwidth sweep; the final solve
    # then runs at the spec's full precision with the chosen bandwidth
    sweep_cfg = replace(spec.solver, outer_iters=30, inner_max_iter=300,
                        inner_tol=1e-7)
    chosen, _ = circular_validation(sample.source, sample.target, sweep_cfg,
                                    spec.bandwidth_grid)
    fit = fit_alignment(sample.source, sample.target,
                        replace(spec.solver, bandwidth=chosen))
    coherent = cluster_coherence(fit.result.coupling, sample.source_ids,
                                 sample.target_ids)
    cross = pairwise_distances(sample.source, sample.target)
    plain, _ = sinkhorn(cross.values, sample.source.weights,
                        sample.target.weights, eps=spec.solver.eps)
    baseline = cluster_coherence(plain, sample.source_ids, sample.target_ids)
    elapsed = time.perf_counter() - start
    _verdict(5, "cluster coherence on rotated two-cluster data",
             coherent >= 0.95 and baseline <= 0.60 and fit.result.converged,
             f"regularized {coherent:.3f} >= 0.95 at validated h={chosen:g} "
             f"(fit converged: {fit.result.converged}); "
             f"plain sinkhorn {baseline:.3f} <= 0.60", elapsed, 30.0)


def test_criterion_06_conditional_collapses_to_barycentric():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(3):
        model, xs, ys = _cloud_model(seed + 40, 12, 0.5)
        plan = _feasible_plan(seed + 400, model.n, model.m)
        bary = barycentric_project(plan, ys)
        cond = conditional_project(model, plan, None, ys, h_proj=1e-4)
        worst = max(worst, float(np.abs(cond - bary).max()))
    elapsed = time.perf_counter() - start
    _verdict(6, "projection limit at small bandwidth", worst < 1e-6,
             f"max in-sample |conditional - barycentric| {worst:.2e} < 1e-6 "
             f"at h_proj=1e-4 over 3 instances", elapsed, 5.0)


def test_criterion_07_outlier_robustness():
    start = time.perf_counter()
    spec = load_spec(SPEC_DIR / "outliers.json")
    report, fit, sample, _ = project_pipeline(spec)
    cond_hits = report.metrics["outlier_hit_count_conditional"]
    bary_hits = report.metrics["outlier_hit_count_barycentric"]
    elapsed = time.perf_counter() - start
    _verdict(7, "outlier robustness of conditional projection",
             cond_hits == 0.0 and bary_hits >= 1.0
             and report.metrics["converged"] == 1.0,
             f"conditional projections within sigma/2 of an outlier: "
             f"{cond_hits:g} (need 0); barycentric: {bary_hits:g} (need >=1)",
             elapsed, 10.0)


def test_criterion_08_imbalance_robustness():
    start = time.perf_counter()
    spec = load_spec(SPEC_DIR / "imbalance.json")
    wins = ties = 0
    deltas = []
    per_seed_ok = True
    for seed in range(10):
        gen = replace(spec.generator, seed=seed)
        accs = {}
        couplings = {}
        for mode in ("conditional", "barycentric"):
            run = replace(spec, generator=gen,
                          projection=ProjectionRequest(mode=mode))
            report, fit, _, _ = adaptation_pipeline(run)
            accs[mode] = report.metrics["accuracy"]
            couplings[mode] = fit.result.coupling.values
        # identical spec modulo projection mode -> identical couplings
        per_seed_ok = per_seed_ok and np.array_equal(
            couplings["conditional"], couplings["barycentric"])
        delta = accs["conditional"] - accs["barycentric"]
        per_seed_ok = per_seed_ok and delta >= -1e-12
        deltas.append(delta)
        wins += int(delta > 0)
        ties += int(delta == 0)
    mean_delta = float(np.mean(deltas))
    elapsed = time.perf_counter() - start
    _verdict(8, "imbalance robustness of conditional projection",
             per_seed_ok and mean_delta > 0.0,
             f"conditional >= barycentric accuracy on all 10 seeds "
             f"({wins} wins, {ties} ties) with shared couplings; mean "
             f"improvement {mean_delta:+.3f} > 0", elapsed, 120.0)


def test_criterion_09_objective_descent():
    start = time.perf_counter()
    worst = -np.inf
    all_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed + 1000)
        sizes = tuple(int(rng.integers(8, 25))
                      for _ in range(int(rng.integers(2, 4))))
        sample = gen_clusters(GeneratorConfig(
            sizes=sizes, seed=seed, rotation=float(rng.uniform(0.0, 1.2)),
            spread=float(rng.uniform(0.2, 0.45))))
        C = pairwise_distances(sample.source, sample.target).values
        res = solve_fused_infoot(
            C, pairwise_distances(sample.source, sample.source),
            pairwise_distances(sample.target, sample.target),
            sample.source.weights, sample.target.weights,
            SolverConfig(lam=1.0, eps=1.0, bandwidth=0.5,
                         inner_max_iter=5000))
        trace = res.objective_trace
        rises = [b - a for a, b in zip(trace, trace[1:])]
        worst = max(worst, max(rises, default=0.0))
        all_ok = all_ok and all(r <= 1e-6 for r in rises)
    elapsed = time.perf_counter() - start
    _verdict(9, "per-step objective descent", all_ok,
             f"max per-step objective rise {worst:.2e} <= 1e-6 over 10 "
             f"seeded instances at unit trade-off weight", elapsed, 60.0)


def test_criterion_10_out_of_sample_consistency():
    start = time.perf_counter()
    sample = gen_clusters(GeneratorConfig(sizes=(8, 8, 8), seed=9,
                                          rotation=0.5, spread=0.25))
    fit = fit_alignment(sample.source, sample.target,
                        SolverConfig(lam=100.0, eps=1.0, bandwidth=0.5,
                                     inner_max_iter=5000))
    g = fit.result.coupling
    i = 5
    w_in = importance_weights(fit.model, g, i, fit.target)
    w_dup = importance_weights(fit.model, g, sample.source.points[i],
                               fit.target, source_points=sample.source)
    weight_dev = float(np.abs(w_in - w_dup).max())

    in_scores = importance_scores(fit.model, g, None, fit.target)
    dup_scores = importance_scores(fit.model, g, sample.source.points,
                                   fit.target, source_points=sample.source)
    p_in = precision_at_k(in_scores, sample.source_ids, sample.target_ids)
    p_dup = precision_at_k(dup_scores, sample.source_ids, sample.target_ids)
    elapsed = time.perf_counter() - start
    _verdict(10, "out-of-sample consistency",
             weight_dev <= 1e-12 and p_in == p_dup,
             f"duplicate-query weight deviation {weight_dev:.2e} <= 1e-12; "
             f"P@k equal: {p_in == p_dup} (in-sample {p_in})", elapsed, 10.0)


def test_criterion_11_cli_determinism(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "run"
    reports = []
    couplings = []
    for threads in (1, 1, 4):
        proc = subprocess.run(
            [sys.executable, "-m", "infoot.cli", "adapt",
             str(SPEC_DIR / "adaptation.json"),
             "--out", str(out)],
            capture_output=True, text=True, env=blas_env(threads))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "report.json").read_text())
        payload.pop("wall_time")
        reports.append(json.dumps(payload, sort_keys=True))
        couplings.append((out / "coupling.csv").read_bytes())
    identical = (reports[0] == reports[1] == reports[2]
                 and couplings[0] == couplings[1] == couplings[2])
    elapsed = time.perf_counter() - start
    _verdict(11, "CLI determinism across BLAS thread counts", identical,
             "three adapt runs (BLAS threads 1, 1, 4) agree byte for byte on "
             "report (timing dropped) and coupling", elapsed, 60.0)
