"""Barycentric and conditional projection, and retrieval scores.

Frozen weights below come from an independent double-loop evaluation of
the importance-weight formula on the fixed 3x2 instance shared with the
kernel tests (same kernels recomputed from scratch, no package code).
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from conftest import run_child

from infoot import (GeneratorConfig, PointSet, ProjectionRequest, ScoreMatrix,
                    SolverConfig, barycentric_project, build_kde_model,
                    conditional_project, fit_alignment, gen_clusters,
                    importance_scores, importance_weights, pairwise_distances,
                    precision_at_k)

X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
Y = PointSet(np.array([[1.0, 1.0], [2.0, 0.0]]))
PLAN = np.array([[0.20, 0.10], [0.05, 0.25], [0.25, 0.15]])
H = 0.5

W0 = np.array([0.15218557543472067, 0.1555839824801364])
W2 = np.array([0.22144754495208552, 0.16069335699442702])
PROJ0 = np.array([1.5055210253223876, 0.49447897467761276])


def _model(h=H):
    return build_kde_model(pairwise_distances(X, X),
                           pairwise_distances(Y, Y), h)


def test_barycentric_matches_loop_oracle():
    rng = np.random.default_rng(7)
    g = rng.uniform(0.1, 1.0, (5, 4))
    ys = PointSet(rng.normal(size=(4, 3)))
    proj = barycentric_project(g, ys)
    for i in range(5):
        expect = np.zeros(3)
        for j in range(4):
            expect += g[i, j] * ys.points[j]
        expect /= g[i].sum()
        np.testing.assert_allclose(proj[i], expect, atol=1e-14)


def test_barycentric_rejects_zero_mass_row():
    g = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero-mass"):
        barycentric_project(g, Y)


def test_barycentric_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        barycentric_project(np.ones((3, 3)) / 9, Y)


def test_importance_weights_frozen_values():
    model = _model()
    np.testing.assert_allclose(importance_weights(model, PLAN, 0, Y), W0,
                               atol=1e-15)
    np.testing.assert_allclose(importance_weights(model, PLAN, 2, Y), W2,
                               atol=1e-15)


def test_conditional_projection_frozen_value():
    proj = conditional_project(_model(), PLAN, 0, Y)
    np.testing.assert_allclose(proj[0], PROJ0, atol=1e-14)


def test_weights_positive_and_normalization():
    model = _model()
    w = importance_weights(model, PLAN, 1, Y)
    assert np.all(w > 0)
    wn = importance_scores(model, PLAN, 1, Y).values[0]
    assert abs(wn.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(wn, w / w.sum(), atol=1e-15)


def test_conditional_approaches_barycentric():
    # On distinct points the conditional map collapses to the barycentric
    # one as the projection bandwidth shrinks; the gap must be monotone.
    model = _model()
    bary = barycentric_project(PLAN, Y)
    gaps = []
    for h_proj in (0.3, 0.1, 0.03, 0.01, 1e-3):
        cond = conditional_project(model, PLAN, None, Y, h_proj)
        gaps.append(float(np.abs(cond - bary).max()))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_out_of_sample_duplicate_matches_in_sample():
    model = _model()
    w_in = importance_weights(model, PLAN, 1, Y)
    w_out = importance_weights(model, PLAN, X.points[1], Y, source_points=X)
    np.testing.assert_allclose(w_out, w_in, atol=1e-12)


def test_query_distances_path_matches_coordinates():
    model = _model()
    q = np.array([0.3, 0.7])
    d = np.sqrt(((X.points - q) ** 2).sum(axis=1))
    w_coords = importance_weights(model, PLAN, q, Y, source_points=X)
    w_dist = importance_weights(model, PLAN, q, Y, query_distances=d)
    np.testing.assert_allclose(w_dist, w_coords, atol=1e-15)


@pytest.mark.parametrize("index", [1, np.int64(1)], ids=["int", "int64"])
def test_index_query_refuses_query_distances(index):
    # An index selects its own distance row, so distances given with it
    # would be dropped without a word.
    model = _model()
    with pytest.raises(ValueError, match="query.*query_distances"):
        importance_weights(model, PLAN, index, Y,
                           query_distances=model.dist_x.values[0])


@pytest.mark.parametrize("h_proj", [H, 0.3, 1e-170])
def test_query_forms_give_equal_weights(h_proj):
    # An in-sample index, the same point as coordinates and its distance
    # row all take one path, so their weights agree bit for bit, even at a
    # bandwidth whose squared scale underflows to zero.
    model = _model()
    i = 2
    by_index = importance_weights(model, PLAN, i, Y, h_proj)
    by_coords = importance_weights(model, PLAN, X.points[i], Y, h_proj,
                                   source_points=X)
    by_dist = importance_weights(model, PLAN, X.points[i], Y, h_proj,
                                 query_distances=model.dist_x.values[i])
    assert np.all(np.isfinite(by_index)) and np.all(by_index > 0)
    assert np.array_equal(by_coords, by_index)
    assert np.array_equal(by_dist, by_index)
    batch = importance_scores(model, PLAN, None, Y, h_proj).values
    coords = importance_scores(model, PLAN, X.points, Y, h_proj,
                               source_points=X).values
    assert np.array_equal(coords, batch)


def test_nan_inputs_rejected():
    model = _model()
    with pytest.raises(ValueError, match="bandwidth"):
        importance_weights(model, PLAN, 0, Y, h_proj=float("nan"))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        importance_weights(model, PLAN, np.array([0.1, 0.2]), Y,
                           query_distances=[np.nan, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        importance_scores(model, PLAN, np.array([[np.nan, 0.0]]), Y,
                          source_points=X)

def test_projection_bandwidth_follows_the_real_rule():
    model = _model()
    for bad in (np.inf, -np.inf, 0.0):
        with pytest.raises(ValueError, match="^projection bandwidth must be"):
            importance_scores(model, PLAN, None, Y, h_proj=bad)
    for bad in (True, "0.3"):
        with pytest.raises(TypeError, match="^projection bandwidth must be"):
            importance_weights(model, PLAN, 0, Y, h_proj=bad)


def test_out_of_sample_needs_source_info():
    with pytest.raises(ValueError, match="supply"):
        importance_weights(_model(), PLAN, np.array([0.1, 0.2]), Y)


def test_source_points_must_match_model_size():
    with pytest.raises(ValueError, match=r"^source_points must have shape "
                                         r"\(3, 2\), got \(2, 2\)$"):
        importance_scores(_model(), PLAN, np.array([[0.1, 0.2]]), Y,
                          source_points=PointSet(X.points[:2]))


def test_bad_queries_and_shapes():
    model = _model()
    with pytest.raises(ValueError, match="out of range"):
        importance_weights(model, PLAN, 3, Y)
    with pytest.raises(ValueError):
        importance_weights(model, np.ones((2, 2)) / 4, 0, Y)
    with pytest.raises(ValueError):
        importance_weights(model, PLAN, 0, Y, h_proj=0.0)
    with pytest.raises(ValueError):
        importance_weights(model, PLAN, np.array([0.1, 0.2]), Y,
                           query_distances=np.array([1.0, -1.0, 2.0]))


def test_importance_scores_batches_all_queries():
    model = _model()
    scores = importance_scores(model, PLAN, None, Y)
    assert scores.shape == (3, 2)
    w0 = importance_weights(model, PLAN, 0, Y)
    np.testing.assert_allclose(scores.values[0], w0 / w0.sum(), atol=1e-15)
    # index-array and coordinate-batch specs
    sub = importance_scores(model, PLAN, np.array([2, 0]), Y)
    np.testing.assert_allclose(sub.values[0], scores.values[2], atol=1e-15)
    coords = importance_scores(model, PLAN, X.points[:2], Y, source_points=X)
    np.testing.assert_allclose(coords.values, scores.values[:2], atol=1e-12)


def test_scores_identical_across_thread_counts():
    queries = np.random.default_rng(13).normal(size=(6, 2))
    code = ("import json, sys\n"
            "import numpy as np\n"
            "from infoot import (PointSet, build_kde_model, "
            "importance_scores, pairwise_distances)\n"
            "x, y, plan, queries, h = json.loads(sys.argv[1])\n"
            "X, Y = PointSet(np.array(x)), PointSet(np.array(y))\n"
            "model = build_kde_model(pairwise_distances(X, X), "
            "pairwise_distances(Y, Y), h)\n"
            "scores = importance_scores(model, np.array(plan), "
            "np.array(queries), Y, source_points=X)\n"
            "print(json.dumps(scores.values.tolist()))\n")
    args = json.dumps([X.points.tolist(), Y.points.tolist(), PLAN.tolist(),
                       queries.tolist(), H])
    results = [run_child(code, threads, args) for threads in (1, 4)]
    assert results[0] == results[1]
    expected = importance_scores(_model(), PLAN, queries, Y, source_points=X)
    np.testing.assert_array_equal(json.loads(results[0]), expected.values)


def test_target_gram_memo_keeps_scores_bit_identical():
    sample = gen_clusters(GeneratorConfig(sizes=(6, 6), seed=5, rotation=0.4))
    fit = fit_alignment(sample.source, sample.target,
                        SolverConfig(lam=10.0, eps=1.0, bandwidth=0.5))
    model, plan = fit.model, fit.result.coupling
    queries = np.random.default_rng(2).normal(size=(7, 2))

    def scores(m, h):
        return importance_scores(m, plan, queries, fit.target, h,
                                 source_points=fit.source).values

    for h in (model.bandwidth, 0.3, 0.4, 0.3):
        fresh = build_kde_model(model.dist_x, model.dist_y, model.bandwidth)
        assert np.array_equal(scores(model, h), scores(fresh, h))
        memo = model._factor
        assert memo[0] == h and not memo[2].flags.writeable
    assert model._factor[0] == 0.3
    assert model._factor[1] is plan.values
    w, sums = model.projection_factor(plan.values, 0.3)
    assert w is model._factor[2] and sums is model._factor[3]
    assert not w.flags.writeable and not sums.flags.writeable


def _memo_case():
    sample = gen_clusters(GeneratorConfig(sizes=(6, 6), seed=5, rotation=0.4))
    fit = fit_alignment(sample.source, sample.target,
                        SolverConfig(lam=10.0, eps=1.0, bandwidth=0.5))
    queries = np.random.default_rng(4).normal(size=(5, 2))

    def scores(model, plan, h):
        return importance_scores(model, plan, queries, fit.target, h,
                                 source_points=fit.source).values

    def fresh():
        return build_kde_model(fit.model.dist_x, fit.model.dist_y,
                               fit.model.bandwidth)

    return fit, scores, fresh


def _one_memo_entry(model, h):
    memo_fields = [f for f in vars(model) if f.startswith("_")]
    assert memo_fields == ["_factor"]
    assert len(model._factor) == 4 and model._factor[0] == h


def test_factor_memo_two_plans_alternated():
    fit, scores, fresh = _memo_case()
    model = fit.model
    solved = fit.result.coupling
    uniform = np.full(solved.shape, 1.0 / solved.values.size)
    for plan in (solved, uniform, solved, uniform, uniform, solved):
        assert np.array_equal(scores(model, plan, 0.3),
                              scores(fresh(), plan, 0.3))
        _one_memo_entry(model, 0.3)
    assert not np.array_equal(scores(model, solved, 0.3),
                              scores(model, uniform, 0.3))


def test_factor_memo_never_serves_a_mutated_plan():
    fit, scores, fresh = _memo_case()
    model = fit.model
    scores(model, fit.result.coupling, 0.3)
    kept = model._factor
    plan = np.array(fit.result.coupling.values)
    rng = np.random.default_rng(8)
    for h in (0.3, model.bandwidth):
        for _ in range(3):
            before = scores(model, plan, h)
            plan *= rng.uniform(0.5, 1.5, plan.shape)
            plan /= plan.sum()
            after = scores(model, plan, h)
            assert np.array_equal(after, scores(fresh(), plan, h))
            assert not np.array_equal(before, after)
            # a writable plan is never kept, nor does it evict the kept one
            assert model._factor is kept
    _one_memo_entry(model, 0.3)
    assert kept[1] is fit.result.coupling.values


def test_factor_memo_alternating_bandwidths():
    fit, scores, fresh = _memo_case()
    model, plan = fit.model, fit.result.coupling
    for h in (model.bandwidth, 0.3, model.bandwidth, 0.3, 0.3,
              model.bandwidth):
        assert np.array_equal(scores(model, plan, h),
                              scores(fresh(), plan, h))
        _one_memo_entry(model, h)
    # at the fitted bandwidth the target row sums are gram_y's
    np.testing.assert_array_equal(model._factor[3],
                                  model.gram_y.sum(axis=1))


def test_projection_request_validation():
    req = ProjectionRequest()
    assert req.mode == "conditional"
    # The request is the mode alone; the conditional map runs at the
    # fitted bandwidth.
    assert [f.name for f in fields(ProjectionRequest)] == ["mode"]
    with pytest.raises(ValueError):
        ProjectionRequest(mode="nearest")


def test_score_matrix_validation():
    with pytest.raises(ValueError):
        ScoreMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ScoreMatrix(np.array([[1.5, -0.5]]))  # sums to 1; fails on the sign
    with pytest.raises(ValueError, match="sum to 1"):
        ScoreMatrix(np.array([[0.4, 0.4]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ScoreMatrix(np.array([[0.5, bad]]))
    ok = ScoreMatrix(np.array([[0.4, 0.6]]))
    assert ok.shape == (1, 2)


def test_score_matrix_keeps_its_own_values():
    # The checked values are a read-only copy: a later write to the
    # caller's array cannot reach them, nor a ranking that trusts them.
    a = np.array([[0.4, 0.6], [0.5, 0.5]])
    scores = ScoreMatrix(a)
    a[0, 0] = np.nan
    assert scores.values[0, 0] == 0.4
    assert not scores.values.flags.writeable
    assert precision_at_k(scores, [0, 1], [0, 1], ks=(1,)) == {1: 0.0}


def test_projection_stays_in_target_hull():
    rng = np.random.default_rng(29)
    xs = PointSet(rng.normal(size=(8, 2)))
    ys = PointSet(rng.normal(size=(6, 2)))
    g = rng.uniform(0.1, 1.0, (8, 6))
    g /= g.sum()
    model = build_kde_model(pairwise_distances(xs, xs),
                            pairwise_distances(ys, ys),
                            0.5)
    proj = conditional_project(model, g, None, ys)
    lo, hi = ys.points.min(axis=0), ys.points.max(axis=0)
    assert np.all(proj >= lo - 1e-12) and np.all(proj <= hi + 1e-12)


def _rectangular_case():
    rng = np.random.default_rng(41)
    xs = PointSet(rng.normal(size=(7, 2)))
    ys = PointSet(rng.normal(size=(5, 2)) + 0.5)
    g = rng.uniform(0.1, 1.0, (7, 5))
    g /= g.sum()
    model = build_kde_model(pairwise_distances(xs, xs),
                            pairwise_distances(ys, ys),
                            0.5)
    return model, g, xs, ys


def _oracle_row(d_row, model, g, ys, h):
    # w_j ∝ f_plan(x, y_j) / (f_X(x) f_Y(y_j)) for one query whose distances
    # to the source samples are d_row, recomputed from scratch.
    sx, sy = model.dist_x.scale, model.dist_y.scale
    kx = np.exp(-d_row ** 2 / (2 * h * h * sx * sx))
    dy = np.sqrt(((ys.points[:, None] - ys.points[None]) ** 2).sum(axis=2))
    ky = np.exp(-dy ** 2 / (2 * h * h * sy * sy))
    np.fill_diagonal(ky, 1.0)
    joint = np.maximum(kx @ g @ ky.T, 1e-300)
    w = joint / (kx.sum() * ky.sum(axis=1))
    return w / w.sum()


def test_batched_scores_match_per_row_oracle():
    model, g, xs, ys = _rectangular_case()
    h_proj = 0.3
    assert (model.n, model.m) == (7, 5) and h_proj != model.bandwidth
    dist_x = np.sqrt(((xs.points[:, None] - xs.points[None]) ** 2).sum(axis=2))
    idx = np.array([4, 0, 6, 4])
    by_index = importance_scores(model, g, idx, ys, h_proj).values
    for row, i in zip(by_index, idx):
        np.testing.assert_allclose(row, _oracle_row(dist_x[i], model, g, ys,
                                                    h_proj), rtol=0, atol=1e-15)
    queries = np.random.default_rng(43).normal(size=(6, 2)) * 2.0
    by_coords = importance_scores(model, g, queries, ys, h_proj,
                                  source_points=xs).values
    for row, q in zip(by_coords, queries):
        d_row = np.sqrt(((xs.points - q) ** 2).sum(axis=1))
        expect = _oracle_row(d_row, model, g, ys, h_proj)
        np.testing.assert_allclose(row, expect, rtol=0, atol=1e-15)
        by_dist = importance_weights(model, g, q, ys, h_proj,
                                     query_distances=d_row)
        np.testing.assert_allclose(by_dist / by_dist.sum(), expect, rtol=0,
                                   atol=1e-15)


def test_batch_with_one_bad_index_raises():
    with pytest.raises(ValueError, match="out of range"):
        importance_scores(_model(), PLAN, np.array([0, 3, 1]), Y)


def test_far_query_scores_finite():
    sample = gen_clusters(GeneratorConfig(sizes=(10, 10, 10), seed=0))
    fit = fit_alignment(sample.source, sample.target,
                        SolverConfig(lam=100.0, eps=1.0, bandwidth=0.5, seed=0))
    scores = importance_scores(fit.model, fit.result.coupling,
                               np.array([[50.0, 50.0]]), fit.target,
                               source_points=fit.source)
    assert np.all(np.isfinite(scores.values)) and np.all(scores.values >= 0)
    assert abs(scores.values.sum() - 1.0) < 1e-12


def test_empty_batch_rejected():
    model = _model()
    with pytest.raises(ValueError, match="empty"):
        importance_scores(model, PLAN, np.array([], dtype=int), Y)
    with pytest.raises(ValueError, match="empty"):
        importance_scores(model, PLAN, np.empty((0, 2)), Y, source_points=X)


def test_bool_queries_rejected():
    with pytest.raises(ValueError, match="bool"):
        importance_scores(_model(), PLAN, np.array([True, False]), Y,
                          source_points=X)
