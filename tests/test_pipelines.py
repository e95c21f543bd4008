"""Experiment specs, evaluation metrics, and the pipelines."""

import json
import threading
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from conftest import run_child

from infoot import (EvalReport, ExperimentSpec, GeneratorConfig, PointSet,
                    ProjectionRequest, SolverConfig, adaptation_pipeline,
                    circular_validation, cluster_coherence, fit_alignment,
                    gen_clusters, load_spec, nn_classify, outlier_hits, precision_at_k,
                    retrieval_pipeline, solve_pipeline, spec_from_dict,
                    stratified_holdout, validate_bandwidth_pipeline,
                    version_stamp)
from infoot._version import __version__
from infoot.kernels import _euclidean
from infoot.pipelines import _best_pairing

FAST = dict(outer_iters=20, inner_max_iter=2000, inner_tol=1e-8)


def _spec_dict(**over):
    data = {
        "generator": {"sizes": [5, 5], "seed": 3, "rotation": 0.4},
        "solver": {"lam": 10.0, "eps": 1.0, "bandwidth": 0.5},
        "projection": {"mode": "conditional"},
    }
    data.update(over)
    return data


def test_spec_round_trip():
    spec = spec_from_dict(_spec_dict())
    assert spec.class_penalty is None
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
    data = _spec_dict()
    del data["generator"]
    with pytest.raises(ValueError, match=r"^generator\.sizes is required$"):
        spec_from_dict(data)
    with pytest.raises(ValueError, match="^unknown spec keys: scenario$"):
        spec_from_dict(_spec_dict(scenario="adaptation"))
    with pytest.raises(ValueError):
        spec_from_dict(_spec_dict(bandwidth_grid=[]))
    with pytest.raises(ValueError):
        spec_from_dict([1, 2, 3])


def test_spec_out_is_a_path_string_or_null():
    # Anything else would reach Path() in the CLI and end in a traceback.
    for bad in (3, True, ["run"]):
        with pytest.raises(ValueError, match="^invalid spec value: out must"):
            spec_from_dict(_spec_dict(out=bad))
    assert spec_from_dict(_spec_dict(out="run")).out == "run"
    assert spec_from_dict(_spec_dict()).out is None


def test_load_spec_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "class_penalty": 2.0,\n  oops\n}\n')
    with pytest.raises(ValueError, match=r"broken\.json:3"):
        load_spec(path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_spec_dict()))
    assert load_spec(good).generator.seed == 3


def test_version_stamp_prefix():
    stamp = version_stamp()
    assert stamp.startswith(__version__)


def test_eval_report_validation():
    report = EvalReport({"coherence": 0.9}, {}, "0", 0.1)
    payload = json.loads(report.to_json())
    assert payload["metrics"]["coherence"] == 0.9
    with pytest.raises(ValueError, match="outside"):
        EvalReport({"accuracy": 1.5}, {}, "0", 0.1)
    with pytest.raises(ValueError, match="finite"):
        EvalReport({"mi": float("nan")}, {}, "0", 0.1)
    with pytest.raises(ValueError):
        EvalReport({}, {}, "0", -1.0)


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
    for bad in ("0.5", None, True):
        with pytest.raises(TypeError,
                           match=f"^fraction must be a real number, got {bad!r}$"):
            stratified_holdout([0, 0, 1, 1], fraction=bad)
    with pytest.raises(ValueError, match=r"^holdout fraction must lie in \(0, 1\)$"):
        stratified_holdout([0, 0, 1, 1], fraction=1.0)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        stratified_holdout(np.array([0, 0, 1, 1]), 0.5, seed=-1)
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


def test_evaluation_helpers_check_vector_lengths():
    # One label per training point, one id per plan row and per column:
    # a short vector is a ValueError that names it, not a silent label or
    # NumPy's boolean-index error.
    with pytest.raises(ValueError,
                       match=r"^train_labels must have shape \(3,\), got \(2,\)$"):
        nn_classify(np.zeros((3, 2)), [0, 1], np.zeros((1, 2)))
    plan = np.full((4, 3), 1.0 / 12)
    with pytest.raises(ValueError,
                       match=r"^source_ids must have shape \(4,\), got \(3,\)$"):
        cluster_coherence(plan, [0, 1, 2], [0, 1, 2])
    with pytest.raises(ValueError,
                       match=r"^target_ids must have shape \(3,\), got \(4,\)$"):
        cluster_coherence(plan, [0, 1, 2, 2], [0, 1, 2, 2])


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
    with pytest.raises(ValueError, match="^coherence needs a plan with "):
        cluster_coherence(np.zeros((2, 2)), [0, 1], [0, 1])


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


def _coherence_by_enumeration(plan):
    """Coherence of a plan with one sample per cluster, from the best of
    all k! pairings."""
    k = plan.shape[0]
    best = max(permutations(range(k)),
               key=lambda perm: plan[range(k), perm].sum())
    off = np.ones((k, k), dtype=bool)
    off[range(k), best] = False
    return float(1.0 - plan[off].sum() / plan.sum())


@pytest.mark.parametrize("k", range(1, 7))
def test_cluster_coherence_matches_enumeration(k):
    rng = np.random.default_rng(k)
    ids = np.arange(k)
    for _ in range(20):
        plan = rng.random((k, k)) ** 4
        plan /= plan.sum()
        assert (cluster_coherence(plan, ids, ids)
                == _coherence_by_enumeration(plan))
    # Every pairing ties here, and every one gives the same score.
    flat = np.full((k, k), 1.0 / k**2)
    assert cluster_coherence(flat, ids, ids) == _coherence_by_enumeration(flat)


def test_best_pairing_matches_scipy_assignment():
    linear_sum_assignment = pytest.importorskip(
        "scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(0)
    for k in [*range(1, 12), 20, 31]:
        for _ in range(5):
            mass = rng.random((k, k)) ** 3
            _, cols = linear_sum_assignment(mass, maximize=True)
            np.testing.assert_array_equal(_best_pairing(mass), cols)


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
    assert precision_at_k(scores, query_labels, target_labels, ks=()) == {}
    with pytest.raises(ValueError, match="out of range"):
        precision_at_k(scores, query_labels, target_labels, ks=(5,))
    with pytest.raises(ValueError):
        precision_at_k(scores[:, :3], query_labels, target_labels)


def _precision_by_sort(scores, query_labels, target_labels, ks):
    """Precision at k from a full stable descending sort of every row."""
    order = np.argsort(-scores, axis=1, kind="stable")
    return {int(k): float((target_labels[order[:, :int(k)]]
                           == query_labels[:, None]).mean()) for k in ks}


def test_precision_at_k_matches_stable_sort_oracle():
    rng = np.random.default_rng(12)
    for trial in range(1200):
        q, m = rng.integers(1, 12), rng.integers(1, 40)
        if trial % 2:
            # few distinct values: ties straddle the k boundary
            scores = rng.integers(0, rng.integers(1, 5), (q, m)).astype(float)
        else:
            scores = rng.uniform(size=(q, m))
        query_labels = rng.integers(0, 3, q)
        target_labels = rng.integers(0, 3, m)
        ks = tuple(rng.integers(1, m + 1, rng.integers(0, 4)))
        got = precision_at_k(scores, query_labels, target_labels, ks)
        assert got == _precision_by_sort(scores, query_labels,
                                         target_labels, ks)
        assert all(type(v) is float for v in got.values())


def test_precision_at_k_top_block_edges():
    rng = np.random.default_rng(31)
    m = 9
    target_labels = rng.integers(0, 3, m)
    # q=1, k=m, and a continuous and a tie-heavy row each
    for row in (rng.uniform(size=(1, m)),
                rng.integers(0, 3, (1, m)).astype(float)):
        label = rng.integers(0, 3, 1)
        for ks in ((m,), (1, m), (3,), ()):
            assert precision_at_k(row, label, target_labels, ks) == \
                _precision_by_sort(row, label, target_labels, ks)
    # Ties at the K-th score run past the block, so the row takes the full
    # sort, in rows 0 and 2 at every K below 9, in row 1 at K=3 but not at
    # K=4, and in row 3, one tie across the whole row, at every K below 9.
    scores = np.array([[5, 4, 3, 3, 3, 3, 1, 0, 3],
                       [5, 4, 3, 3, 2, 2, 1, 0, 2],
                       [0, 2, 2, 2, 9, 2, 2, 2, 2],
                       [1, 1, 1, 1, 1, 1, 1, 1, 1]], dtype=float)
    query_labels = np.array([0, 1, 2, 0])
    target_labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
    for ks in ((3,), (1, 4), (2, 3, 5), (9,)):
        assert precision_at_k(scores, query_labels, target_labels, ks) == \
            _precision_by_sort(scores, query_labels, target_labels, ks)


def test_precision_at_k_rejects_non_finite_scores():
    labels = np.array([0, 1])
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([[0.5, bad], [0.2, 0.1]])
        with pytest.raises(ValueError, match="finite"):
            precision_at_k(scores, labels, labels, ks=(1,))


@pytest.mark.parametrize("k", [1.5, 1.0, True, "1"])
def test_precision_at_k_rejects_non_integer_k(k):
    labels = np.array([0, 1])
    with pytest.raises(TypeError, match="integer"):
        precision_at_k(np.eye(2), labels, labels, ks=(k,))


def test_outlier_hits_counts_within_radius():
    projected = np.array([[0.0, 0.0], [5.0, 0.0], [9.8, 0.0]])
    outliers = np.array([[10.0, 0.0]])
    assert outlier_hits(projected, outliers, radius=0.5) == 1
    assert outlier_hits(projected, outliers, radius=20.0) == 3
    assert outlier_hits(projected, np.empty((0, 2)), radius=1.0) == 0
    assert outlier_hits(projected, [], radius=1.0) == 0
    assert outlier_hits(projected, outliers, radius=0.0) == 0
    for bad in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="^radius must be nonnegative"):
            outlier_hits(projected, outliers, bad)


def test_evaluation_helpers_reject_non_finite_points():
    # A NaN point loses every distance comparison: unchecked, nn_classify
    # gives the query the label of a point it does not sit on, and
    # outlier_hits counts a NaN projection as a miss.
    train = np.array([[np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="^train_points must be finite$"):
        nn_classify(train, [5, 7], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="^query_points must be finite$"):
        nn_classify([[0.0, 0.0], [1.0, 0.0]], [5, 7], [[np.nan, 0.0]])
    with pytest.raises(ValueError, match="^projected must be finite$"):
        outlier_hits([[np.nan, 0.0]], [[0.0, 0.0]], radius=1.0)
    with pytest.raises(ValueError, match="^outliers must be finite$"):
        outlier_hits([[0.0, 0.0]], [[np.inf, 0.0]], radius=1.0)


def test_solve_pipeline_produces_report():
    spec = spec_from_dict(_spec_dict(solver={"lam": 10.0, "bandwidth": 0.5,
                                             **FAST}))
    report, fit, sample = solve_pipeline(spec)
    assert report.config["class_penalty"] is None
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
    data = _spec_dict(generator={"sizes": [5, 5], "seed": 3, "outliers": 2},
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
        generator={"sizes": [10, 10], "seed": 4, "identity": True},
        solver={"lam": 100.0, "eps": 1.0, "bandwidth": 0.5, **FAST},
        class_penalty=5000.0,
    )
    report, fit, sample, projected = adaptation_pipeline(spec_from_dict(data))
    assert report.metrics["accuracy"] == 1.0
    assert report.metrics["n_test"] == 2.0
    assert projected.shape == (20, 2)


@pytest.mark.parametrize("penalty", [None, 2.0, 5000.0])
def test_adaptation_fits_with_the_spec_source_cost(penalty):
    # adapt fits with the spec's class penalty, the one validate-bandwidth
    # tunes for: the plain source cost when it is None, the class-conditional
    # one at that penalty otherwise.
    spec = spec_from_dict(_spec_dict(class_penalty=penalty))
    _, fit, sample, _ = adaptation_pipeline(spec)
    train, _ = stratified_holdout(sample.target_ids, seed=spec.generator.seed)
    train_target = PointSet(sample.target.points[train],
                            labels=sample.target_ids[train])
    expected = fit_alignment(sample.source, train_target, spec.solver,
                             class_penalty=penalty)
    assert np.array_equal(fit.result.coupling.values,
                          expected.result.coupling.values)
    plain = fit_alignment(sample.source, train_target, spec.solver)
    assert np.array_equal(fit.result.coupling.values,
                          plain.result.coupling.values) == (penalty is None)


def test_retrieval_pipeline_metrics():
    data = _spec_dict(
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
    with pytest.raises(ValueError, match="^bandwidth_grid entries must be"):
        circular_validation(sample.source, sample.target, cfg, [0.5, np.inf])
    with pytest.raises(TypeError, match="^bandwidth_grid entries must be"):
        circular_validation(sample.source, sample.target, cfg, ["0.5"])
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="^class_penalty must be"):
            circular_validation(sample.source, sample.target, cfg, [0.5],
                                class_penalty=bad)


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


def test_validate_bandwidth_pipeline_keys_each_grid_value():
    # Grid values that print alike at six significant digits keep their
    # own scores; 0.3, 0.5 and 1 keep the keys they have always had.
    data = _spec_dict(
        generator={"sizes": [6, 6], "seed": 8, "identity": True},
        solver={"lam": 100.0, "bandwidth": 0.5, **FAST},
        bandwidth_grid=[0.5, 0.5000001, 0.3, 1],
    )
    report, _, pairs = validate_bandwidth_pipeline(spec_from_dict(data))
    assert [h for h, _ in pairs] == [0.3, 0.5, 0.5000001, 1.0]
    scores = {k: v for k, v in report.metrics.items()
              if k.startswith("score_h_")}
    assert scores == {"score_h_0.3": pairs[0][1], "score_h_0.5": pairs[1][1],
                      "score_h_0.5000001": pairs[2][1],
                      "score_h_1": pairs[3][1]}


def test_bandwidth_grid_lists_each_value_once():
    with pytest.raises(ValueError, match=r"^bandwidth_grid lists 0\.5 twice$"):
        spec_from_dict(_spec_dict(bandwidth_grid=[0.5, 0.3, 0.5]))
    sample = gen_clusters(GeneratorConfig(sizes=(4, 4), seed=0))
    with pytest.raises(ValueError, match=r"^bandwidth_grid lists 1\.0 twice$"):
        circular_validation(sample.source, sample.target,
                            SolverConfig(bandwidth=0.5), [1, 0.5, 1.0])
    for given in ((0.3, 0.5), np.array([0.3, 0.5])):
        spec = spec_from_dict(_spec_dict(bandwidth_grid=given))
        assert spec.bandwidth_grid == (0.3, 0.5)
    for bad in (0.5, "0.5", b"0.5"):
        with pytest.raises(TypeError, match="^bandwidth_grid must be a list "
                                            "of real numbers, got "):
            replace(spec, bandwidth_grid=bad)


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


def _sweep_by_fits(source, target, cfg, grid, class_penalty=None):
    """Reference: circular validation with one fit_alignment per fit,
    each building its own distances."""
    import infoot.pipelines as pipelines

    request = ProjectionRequest()
    grid = sorted(grid)
    scores = []
    for h in grid:
        cfg_h = replace(cfg, bandwidth=h)
        forward = pipelines.fit_alignment(source, target, cfg_h,
                                          class_penalty=class_penalty)
        pseudo = nn_classify(pipelines.project_source(forward, request),
                             source.labels, target.points)
        pseudo_target = PointSet(target.points, labels=pseudo,
                                 weights=target.weights)
        reverse = pipelines.fit_alignment(pseudo_target, source, cfg_h,
                                          class_penalty=class_penalty)
        predicted = nn_classify(pipelines.project_source(reverse, request),
                                pseudo, source.points)
        scores.append(float(np.mean(predicted == source.labels)))
    return grid[int(np.argmax(scores))], list(zip(grid, scores))


@pytest.mark.parametrize("class_penalty", [None, 2.0])
def test_sweep_equals_one_fit_alignment_per_fit(monkeypatch, class_penalty):
    # Distances built once per sweep give the fits that per-fit distances
    # give, bit for bit: the same plans, scores and chosen h. Without a
    # class penalty only the forward fits are solved; the reverse plans
    # are their transposes, which give the same scores here.
    import infoot.pipelines as pipelines

    plans = []
    solve = pipelines.solve_fused_infoot

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        plans.append(result.coupling.values)
        return result

    monkeypatch.setattr(pipelines, "solve_fused_infoot", recorded)
    sample = gen_clusters(GeneratorConfig(sizes=(8, 8), seed=0,
                                          rotation=1.2, spread=0.6))
    cfg = SolverConfig(lam=100.0, bandwidth=0.5, **FAST)
    grid = [0.8, 0.2, 0.4]
    got = circular_validation(sample.source, sample.target, cfg, grid,
                              class_penalty=class_penalty)
    hoisted = plans[:]
    plans.clear()
    want = _sweep_by_fits(sample.source, sample.target, cfg, grid,
                          class_penalty=class_penalty)
    assert got == want
    assert len(plans) == 2 * len(grid)
    if class_penalty is None:
        assert got[1][0] == (0.2, 0.9375)  # not a sweep of ties
        assert len(hoisted) == len(grid)
        plans = plans[::2]  # the forward fits
    else:
        assert len(hoisted) == 2 * len(grid)
    assert all(np.array_equal(x, y) for x, y in zip(hoisted, plans))


def _weighted(points: PointSet, rng) -> PointSet:
    w = rng.uniform(0.5, 1.5, points.points.shape[0])
    return PointSet(points.points, labels=points.labels, weights=w / w.sum())


@pytest.mark.parametrize("settings", [
    # The sweep benchmark's inner settings and outer cap, which h=0.2 hits.
    dict(outer_iters=3, inner_max_iter=300, inner_tol=1e-7),
    {},
])
def test_reverse_fit_is_the_forward_plan_transposed(monkeypatch, settings):
    # Without a class penalty the sweep reads each reverse fit off the
    # forward one. A solved reverse fit takes the same outer steps and
    # reaches the same plan to the inner tolerance, and gives the same
    # sweep scores. n != m and non-uniform weights expose a plan, a pair
    # of marginals or a model left on the forward side.
    import infoot.pipelines as pipelines

    fits = []
    project = pipelines.project_source

    def recorded(fit, request):
        fits.append(fit)
        return project(fit, request)

    monkeypatch.setattr(pipelines, "project_source", recorded)
    sample = gen_clusters(GeneratorConfig(sizes=(9, 7), target_sizes=(5, 10),
                                          seed=3, rotation=1.2, spread=0.5))
    rng = np.random.default_rng(7)
    source = _weighted(sample.source, rng)
    target = _weighted(sample.target, rng)
    cfg = SolverConfig(lam=100.0, **settings)
    grid = [0.2, 0.5, 0.8]
    got = circular_validation(source, target, cfg, grid)
    monkeypatch.setattr(pipelines, "project_source", project)
    assert got == _sweep_by_fits(source, target, cfg, grid)
    assert len(fits) == 2 * len(grid)
    for h, forward, reverse in zip(grid, fits[::2], fits[1::2]):
        assert reverse.target is source
        assert np.array_equal(reverse.source.points, target.points)
        want = pipelines.fit_alignment(reverse.source, source,
                                       replace(cfg, bandwidth=h)).result
        plan, want_plan = reverse.result.coupling, want.coupling
        assert plan.shape == (15, 16)
        assert np.abs(plan.values - want_plan.values).max() <= 1e-6
        assert np.array_equal(plan.row_marginal, want_plan.row_marginal)
        assert np.array_equal(plan.col_marginal, want_plan.col_marginal)
        assert np.array_equal(reverse.model.gram_x, want.model.gram_x)
        assert np.array_equal(reverse.model.gram_y, want.model.gram_y)
        assert reverse.result.iterations == want.iterations
        assert reverse.result.converged == want.converged
        if settings and h == 0.2:
            assert want.iterations == cfg.outer_iters
            assert not want.converged


@pytest.mark.parametrize("class_penalty", [None, 2.0])
def test_sweep_builds_each_distance_once(monkeypatch, class_penalty):
    import infoot.kernels
    import infoot.pipelines as pipelines

    calls, scales, euclidean = [], [], []
    distances = pipelines.pairwise_distances
    estimate = infoot.kernels.estimate_scale

    def counted(a, b):
        calls.append((a, b))
        return distances(a, b)

    def counted_scale(d):
        scales.append(d)
        return estimate(d)

    def counted_euclidean(a, b):
        euclidean.append((a.shape[0], b.shape[0]))
        return _euclidean(a, b)

    monkeypatch.setattr(pipelines, "pairwise_distances", counted)
    monkeypatch.setattr(infoot.kernels, "estimate_scale", counted_scale)
    # Every distance matrix, here or in infoot.datasets, comes from here.
    monkeypatch.setattr(infoot.kernels, "_euclidean", counted_euclidean)
    sample = gen_clusters(GeneratorConfig(sizes=(6, 6), seed=8,
                                          rotation=0.2))
    cfg = SolverConfig(lam=100.0, bandwidth=0.5, **FAST)
    grid = [0.3, 0.5, 0.7]
    circular_validation(sample.source, sample.target, cfg, grid,
                        class_penalty=class_penalty)
    # Source, target and cross: none depends on h, and the reverse fit
    # reuses them with the sides swapped.
    src, tgt = id(sample.source), id(sample.target)
    assert sorted((id(a), id(b)) for a, b in calls) \
        == sorted([(src, src), (tgt, tgt), (src, tgt)])
    assert len(euclidean) == 3
    if class_penalty is None:
        assert len(scales) == 2
    else:
        # The plain source matrix is the reverse fit's target matrix, and
        # the forward fit's class-conditional one is built on it; each h's
        # pseudo-labels give the reverse fit its own class-conditional
        # source matrix, built on the target distances already held.
        assert len(scales) == 3 + len(grid)


def test_euclidean_is_symmetric_bitwise():
    # The sweep hands the reverse fit the transpose of the forward cross
    # matrix in place of a new one; that is exact only because swapping
    # the point sets changes no rounding.
    rng = np.random.default_rng(12)
    for d in (1, 2, 5):
        for scale in (1e-3, 1.0, 1e3):
            a = scale * rng.normal(size=(9, d))
            b = scale * rng.normal(size=(13, d))
            assert np.array_equal(_euclidean(b, a), _euclidean(a, b).T)
