"""Experiment specs, evaluation metrics, and the scenario pipelines."""

import json
import threading

import numpy as np
import pytest
from conftest import run_child

from infoot import (EvalReport, ExperimentSpec, GeneratorConfig,
                    ProjectionRequest, SolverConfig, adaptation_pipeline,
                    circular_validation, cluster_coherence, gen_clusters,
                    load_spec, nn_classify, outlier_hits, precision_at_k,
                    retrieval_pipeline, solve_pipeline, spec_from_dict,
                    stratified_holdout, validate_bandwidth_pipeline,
                    version_stamp)
from infoot._version import __version__

FAST = dict(outer_iters=20, inner_max_iter=2000, inner_tol=1e-8)


def _spec_dict(**over):
    data = {
        "scenario": "point_cloud",
        "generator": {"sizes": [5, 5], "seed": 3, "rotation": 0.4},
        "solver": {"lam": 10.0, "eps": 1.0, "bandwidth": 0.5},
        "projection": {"mode": "conditional"},
    }
    data.update(over)
    return data


def test_spec_round_trip():
    spec = spec_from_dict(_spec_dict())
    assert spec.scenario == "point_cloud"
    assert spec.generator.sizes == (5, 5)
    # solver seed inherits the generator seed unless given
    assert spec.solver.seed == 3
    again = spec_from_dict(json.loads(json.dumps(_spec_dict())))
    assert again == spec


def test_spec_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown spec keys: extra"):
        spec_from_dict(_spec_dict(extra=1))
    with pytest.raises(ValueError, match="unknown generator keys"):
        spec_from_dict(_spec_dict(generator={"sizes": [3], "seed": 0,
                                             "shape": "ring"}))
    with pytest.raises(ValueError, match="seed is required"):
        spec_from_dict(_spec_dict(generator={"sizes": [3]}))
    with pytest.raises(ValueError, match="sizes is required"):
        spec_from_dict(_spec_dict(generator={"seed": 0}))
    with pytest.raises(ValueError, match="scenario"):
        spec_from_dict(_spec_dict(scenario="clustering"))
    with pytest.raises(ValueError):
        spec_from_dict(_spec_dict(bandwidth_grid=[]))
    with pytest.raises(ValueError):
        spec_from_dict([1, 2, 3])


def test_load_spec_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "scenario": "point_cloud",\n  oops\n}\n')
    with pytest.raises(ValueError, match=r"broken\.json:3"):
        load_spec(path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_spec_dict()))
    assert load_spec(good).generator.seed == 3


def test_version_stamp_prefix():
    stamp = version_stamp()
    assert stamp.startswith(__version__)


def test_eval_report_validation():
    report = EvalReport("point_cloud", {"coherence": 0.9}, {}, "0", 0.1)
    payload = json.loads(report.to_json())
    assert payload["metrics"]["coherence"] == 0.9
    with pytest.raises(ValueError, match="outside"):
        EvalReport("point_cloud", {"accuracy": 1.5}, {}, "0", 0.1)
    with pytest.raises(ValueError, match="finite"):
        EvalReport("point_cloud", {"mi": float("nan")}, {}, "0", 0.1)
    with pytest.raises(ValueError):
        EvalReport("point_cloud", {}, {}, "0", -1.0)


def test_stratified_holdout_properties():
    labels = np.array([0] * 20 + [1] * 10 + [2] * 5)
    train, test = stratified_holdout(labels, fraction=0.2, seed=7)
    assert np.array_equal(np.sort(np.concatenate([train, test])),
                          np.arange(35))
    # per-class test counts: round(0.2 * size), clamped to [1, size - 1]
    assert np.sum(labels[test] == 0) == 4
    assert np.sum(labels[test] == 1) == 2
    assert np.sum(labels[test] == 2) == 1
    # deterministic and sorted
    train2, test2 = stratified_holdout(labels, fraction=0.2, seed=7)
    assert np.array_equal(test, test2)
    assert np.all(np.diff(test) > 0) and np.all(np.diff(train) > 0)
    # different seed, different draw
    _, test3 = stratified_holdout(labels, fraction=0.2, seed=8)
    assert not np.array_equal(test, test3)


def test_stratified_holdout_guards():
    with pytest.raises(ValueError):
        stratified_holdout(np.array([0]), fraction=0.5)
    with pytest.raises(ValueError):
        stratified_holdout(np.array([0, 1]), fraction=0.0)
    # singleton classes never land in the test side
    train, test = stratified_holdout(np.array([0, 0, 0, 0, 1]), 0.2, 0)
    assert 4 in train


def test_nn_classify_tie_breaks_low_index():
    train = np.array([[0.0, 0.0], [2.0, 0.0]])
    labels = np.array([7, 9])
    # query equidistant from both training points
    pred = nn_classify(train, labels, np.array([[1.0, 0.0]]))
    assert pred[0] == 7
    pred = nn_classify(train, labels, np.array([[1.9, 0.0], [0.1, 0.0]]))
    np.testing.assert_array_equal(pred, [9, 7])


def test_cluster_coherence_hand_computed():
    # two source clusters, two target clusters, mass laid out by hand
    source_ids = np.array([0, 0, 1])
    target_ids = np.array([0, 1])
    plan = np.array([[0.30, 0.05],
                     [0.25, 0.00],
                     [0.05, 0.35]])
    # pairing 0->0, 1->1 carries 0.30+0.25+0.35 = 0.90 of the unit mass
    assert abs(cluster_coherence(plan, source_ids, target_ids) - 0.90) < 1e-12
    # outlier mass (id -1) counts in the denominator only
    target_ids_out = np.array([0, -1])
    plan_out = np.array([[0.5, 0.1],
                         [0.3, 0.1]])
    score = cluster_coherence(plan_out, np.array([0, 0]), target_ids_out)
    assert abs(score - 0.8) < 1e-12
    with pytest.raises(ValueError, match="same number"):
        cluster_coherence(plan, source_ids, np.array([0, 2]) * 0)


def test_cluster_coherence_is_one_without_off_pairing_mass():
    # The off-pairing mass is below rounding, so the score is exactly 1,
    # however the total's summation order rounds.
    source_ids = np.array([0, 0, 1, 1])
    target_ids = np.array([0, 1, 1, 0])
    paired = source_ids[:, None] == target_ids[None, :]
    plan = np.zeros((4, 4))
    plan[paired] = [0.34, 0.17, 0.07, 0.06, 0.42, 0.46, 0.32, 0.38]
    plan /= plan.sum()
    plan[~paired] = 1e-90
    assert cluster_coherence(plan, source_ids, target_ids) == 1.0


def test_precision_at_k_hand_counted():
    scores = np.array([[0.9, 0.8, 0.1, 0.7],
                       [0.2, 0.2, 0.9, 0.1]])
    query_labels = np.array([0, 1])
    target_labels = np.array([0, 1, 1, 0])
    p = precision_at_k(scores, query_labels, target_labels, ks=(1, 2, 4))
    # query 0 ranks targets 0,1,3,2 -> hits 1,0,1,0; query 1 ranks 2,0,1,3
    assert p[1] == 1.0
    assert abs(p[2] - 0.5) < 1e-12
    assert abs(p[4] - 0.5) < 1e-12
    # stable tie handling: equal scores rank the lower index first
    tied = np.array([[0.5, 0.5]])
    p_tied = precision_at_k(tied, np.array([1]), np.array([0, 1]), ks=(1,))
    assert p_tied[1] == 0.0
    with pytest.raises(ValueError, match="out of range"):
        precision_at_k(scores, query_labels, target_labels, ks=(5,))
    with pytest.raises(ValueError):
        precision_at_k(scores[:, :3], query_labels, target_labels)


def test_outlier_hits_counts_within_radius():
    projected = np.array([[0.0, 0.0], [5.0, 0.0], [9.8, 0.0]])
    outliers = np.array([[10.0, 0.0]])
    assert outlier_hits(projected, outliers, radius=0.5) == 1
    assert outlier_hits(projected, outliers, radius=20.0) == 3
    assert outlier_hits(projected, np.empty((0, 2)), radius=1.0) == 0


def test_solve_pipeline_produces_report():
    spec = spec_from_dict(_spec_dict(solver={"lam": 10.0, "bandwidth": 0.5,
                                             **FAST}))
    report, fit, sample = solve_pipeline(spec)
    assert report.scenario == "point_cloud"
    for key in ("coherence", "mi", "objective", "converged",
                "outer_iterations"):
        assert key in report.metrics
    assert report.config["generator"]["seed"] == 3
    assert sample.source.n == 10
    assert fit.result.coupling.values.shape == (10, 15 - 5)


def test_fit_builds_one_kde_model(monkeypatch):
    import infoot.kernels
    import infoot.pipelines
    import infoot.solver

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return infoot.kernels.build_kde_model(*args, **kwargs)

    # Both names a fit could reach the builder through.
    monkeypatch.setattr(infoot.solver, "build_kde_model", counted)
    monkeypatch.setattr(infoot.pipelines, "build_kde_model", counted)
    sample = gen_clusters(GeneratorConfig(sizes=(4, 4), seed=2))
    fit = infoot.pipelines.fit_alignment(sample.source, sample.target,
                                         SolverConfig(lam=10.0, **FAST))
    assert len(calls) == 1
    assert fit.model is fit.result.model


def test_project_pipeline_projects_each_mode_once(monkeypatch):
    import infoot.pipelines

    calls = {"conditional": 0, "barycentric": 0}

    def counted(mode, original):
        def wrapper(*args, **kwargs):
            calls[mode] += 1
            return original(*args, **kwargs)
        return wrapper

    for mode in calls:
        name = f"{mode}_project"
        monkeypatch.setattr(infoot.pipelines, name,
                            counted(mode, getattr(infoot.pipelines, name)))
    data = _spec_dict(scenario="outliers",
                      generator={"sizes": [5, 5], "seed": 3, "outliers": 2},
                      solver={"lam": 10.0, "bandwidth": 0.5, **FAST})
    for mode in calls:
        before = dict(calls)
        spec = spec_from_dict(data | {"projection": {"mode": mode}})
        report, fit, sample, projected = \
            infoot.pipelines.project_pipeline(spec)
        assert {m: calls[m] - before[m] for m in calls} == \
            {"conditional": 1, "barycentric": 1}
        radius = sample.data_sigma / 2.0
        assert report.metrics[f"outlier_hit_count_{mode}"] == \
            outlier_hits(projected, sample.target_outliers, radius)


def test_adaptation_identity_instance_is_perfect():
    # identical domains: label transfer must be exact
    data = _spec_dict(
        scenario="adaptation",
        generator={"sizes": [10, 10], "seed": 4, "identity": True},
        solver={"lam": 100.0, "eps": 1.0, "bandwidth": 0.5, **FAST},
    )
    report, fit, sample, projected = adaptation_pipeline(spec_from_dict(data))
    assert report.metrics["accuracy"] == 1.0
    assert report.metrics["n_test"] == 2.0
    assert projected.shape == (20, 2)


def test_retrieval_pipeline_metrics():
    data = _spec_dict(
        scenario="retrieval",
        generator={"sizes": [12, 12], "seed": 6, "rotation": 0.3,
                   "spread": 0.25},
        solver={"lam": 100.0, "eps": 1.0, "bandwidth": 0.5, **FAST},
    )
    report, fit, sample, scores = retrieval_pipeline(spec_from_dict(data))
    assert report.metrics["n_queries"] == 2.0
    assert scores.shape == (2, 24)
    for k in (1, 5, 15):
        assert 0.0 <= report.metrics[f"p_at_{k}"] <= 1.0
    assert report.metrics["p_at_1"] == 1.0


def test_circular_validation_prefers_smaller_h_on_ties():
    sample = gen_clusters(GeneratorConfig(sizes=(8, 8), seed=4,
                                          identity=True))
    cfg = SolverConfig(lam=100.0, eps=1.0, bandwidth=0.5, **FAST)
    best, pairs = circular_validation(sample.source, sample.target, cfg,
                                      grid=[0.6, 0.3])
    # identity geometry scores 1.0 everywhere; tie goes to the smaller h
    assert [h for h, _ in pairs] == [0.3, 0.6]
    assert all(s == 1.0 for _, s in pairs)
    assert best == 0.3


def test_circular_validation_guards():
    sample = gen_clusters(GeneratorConfig(sizes=(4, 4), seed=0))
    cfg = SolverConfig(bandwidth=0.5)
    unlabeled = sample.source.points
    from infoot import PointSet
    with pytest.raises(ValueError, match="labeled"):
        circular_validation(PointSet(unlabeled), sample.target, cfg, [0.5])
    with pytest.raises(ValueError):
        circular_validation(sample.source, sample.target, cfg, [])


def test_validate_bandwidth_pipeline_single_entry_grid():
    data = _spec_dict(
        generator={"sizes": [6, 6], "seed": 8, "identity": True},
        solver={"lam": 100.0, "bandwidth": 0.5, **FAST},
        bandwidth_grid=[0.4],
    )
    report, chosen, pairs = validate_bandwidth_pipeline(spec_from_dict(data))
    assert chosen == 0.4
    assert report.metrics["chosen_bandwidth"] == 0.4
    assert report.metrics["score_h_0.4"] == pairs[0][1]


def test_reports_identical_across_thread_counts():
    data = _spec_dict(
        generator={"sizes": [6, 6], "seed": 8, "rotation": 0.2},
        solver={"lam": 100.0, "bandwidth": 0.5, **FAST},
        bandwidth_grid=[0.3, 0.5],
    )
    code = ("import json, sys\n"
            "from infoot import spec_from_dict, validate_bandwidth_pipeline\n"
            "spec = spec_from_dict(json.loads(sys.argv[1]))\n"
            "report, _, _ = validate_bandwidth_pipeline(spec)\n"
            "print(json.dumps(report.metrics, sort_keys=True))\n")
    metrics = [run_child(code, threads, json.dumps(data))
               for threads in (1, 4)]
    assert metrics[0] == metrics[1]
    assert json.loads(metrics[0])["chosen_bandwidth"] in (0.3, 0.5)


def test_sweep_runs_on_the_calling_thread(monkeypatch):
    def refuse(thread):
        raise RuntimeError("circular validation started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    sample = gen_clusters(GeneratorConfig(sizes=(6, 6), seed=8,
                                          rotation=0.2))
    cfg = SolverConfig(lam=100.0, bandwidth=0.5, **FAST)
    chosen, pairs = circular_validation(sample.source, sample.target, cfg,
                                        [0.5, 0.3])
    assert [h for h, _ in pairs] == [0.3, 0.5]
    assert chosen in (0.3, 0.5)
