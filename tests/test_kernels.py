"""Distances, Gaussian Grams, and the KDE model.

The fixed instance used throughout (3 source points, 2 target points,
h = 0.5) has frozen expected values computed with an independent
double-loop implementation; the loop oracles in this file recompute the
same quantities entrywise.
"""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from infoot import (CouplingMatrix, DistanceMatrix, KdeModel, PointSet,
                    ScoreMatrix, SolverConfig, barycentric_project,
                    build_kde_model, check_marginal, circular_validation,
                    cluster_coherence, conditional_project, entropy,
                    estimate_scale, fit_alignment, gaussian_kernel,
                    importance_scores, importance_weights, mi_gradient,
                    mutual_information, nn_classify, outlier_hits,
                    pairwise_distances, precision_at_k, sinkhorn,
                    solve_fused_infoot, stratified_holdout, uniform_weights)
from infoot.kernels import _euclidean, _finite, _plan_values, _real, _shaped

X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
Y = PointSet(np.array([[1.0, 1.0], [2.0, 0.0]]))
PLAN = np.array([[0.20, 0.10], [0.05, 0.25], [0.25, 0.15]])
H = 0.5

# Frozen oracle values for the instance above (double-loop implementation).
SCALE_X = 2.0
SCALE_Y = 1.4142135623730951
MARGINAL_X = [1.741865942949246, 1.6886156583365322, 1.2174202818605115]
JOINT_00 = 0.300962477607731
JOINT_21 = 0.22210717639344807


def _loop_distances(a, b):
    out = np.zeros((len(a), len(b)))
    for i, xi in enumerate(a):
        for j, yj in enumerate(b):
            out[i, j] = math.sqrt(float(np.sum((xi - yj) ** 2)))
    return out


def test_pairwise_distances_match_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = PointSet(rng.normal(size=(rng.integers(2, 12), 3)))
        b = PointSet(rng.normal(size=(rng.integers(2, 12), 3)))
        d = pairwise_distances(a, b)
        np.testing.assert_allclose(d.values, _loop_distances(a.points, b.points),
                                   atol=1e-12)
        assert not d.is_intra


def test_euclidean_equals_scipy_cdist_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(1, 7), (7, 1), (1, 1), (9, 13), (40, 25)]
    for d in (0, 1, 2, 64):
        for scale in (1e-3, 1.0, 1e3):
            for n, m in shapes:
                a = scale * rng.normal(size=(n, d))
                b = scale * rng.normal(size=(m, d))
                assert np.array_equal(_euclidean(a, b), cdist(a, b))
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        pairwise_distances(X, PointSet(np.zeros((2, 3))))


def test_self_distances_have_zero_diagonal():
    a = PointSet(np.random.default_rng(12).normal(size=(30, 5)))
    d = pairwise_distances(a, a)
    assert np.array_equal(d.values, cdist(a.points, a.points))
    assert np.all(np.diag(d.values) == 0.0)


def test_intra_is_read_off_the_values():
    copy = PointSet(X.points)
    for d in (pairwise_distances(X, X), pairwise_distances(X, copy),
              DistanceMatrix(_loop_distances(X.points, X.points))):
        assert d.is_intra
        assert np.all(np.diag(d.values) == 0.0)
        np.testing.assert_allclose(d.values, d.values.T, atol=1e-15)
        model = build_kde_model(d, pairwise_distances(Y, Y), H)
        assert model.dist_x.scale == SCALE_X
    assert np.array_equal(pairwise_distances(X, copy).values,
                          pairwise_distances(X, X).values)
    # Symmetric to the tolerance, not bit for bit, is still intra-domain.
    near = _loop_distances(X.points, X.points)
    near[0, 1] += 1e-13
    assert DistanceMatrix(near).is_intra


def test_distance_matrix_invariants():
    for bad in (np.array([[0.0, -1.0], [1.0, 0.0]]),
                np.array([[0.0, np.nan], [1.0, 0.0]]),
                np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            DistanceMatrix(bad)
    # Valid distances that are not intra-domain: the KDE model and the
    # scale estimate reject them, on either side.
    intra = pairwise_distances(Y, Y)
    for bad in (np.array([[0.0, 1.0], [2.0, 0.0]]),  # asymmetric
                np.array([[0.0, 1.0], [1.0 + 2e-12, 0.0]]),
                np.array([[0.5, 1.0], [1.0, 0.0]]),  # nonzero diagonal
                np.zeros((2, 3))):  # not square
        d = DistanceMatrix(bad)
        assert not d.is_intra
        for dx, dy in ((d, intra), (intra, d)):
            with pytest.raises(ValueError, match="KDE model needs "
                               "intra-domain distance matrices: square, "
                               "zero diagonal, symmetric to 1e-12"):
                build_kde_model(dx, dy, H)
        with pytest.raises(ValueError, match="intra-domain"):
            estimate_scale(d)


def test_estimate_scale_frozen_values():
    assert estimate_scale(pairwise_distances(X, X)) == SCALE_X
    assert estimate_scale(pairwise_distances(Y, Y)) == SCALE_Y


def test_estimate_scale_degenerate_domain():
    same = PointSet(np.zeros((3, 2)))
    d = pairwise_distances(same, same)
    with pytest.raises(ValueError, match="degenerate"):
        estimate_scale(d)


def test_gaussian_kernel_pointwise():
    d = np.array([0.0, 1.0, 2.0])
    k = gaussian_kernel(d, h=0.5, sigma=2.0)
    expect = np.exp(-d ** 2 / (2 * 0.25 * 4.0))
    np.testing.assert_allclose(k, expect, rtol=1e-15)
    with pytest.raises(ValueError):
        gaussian_kernel(d, h=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        gaussian_kernel(d, h=0.5, sigma=0.0)


def _gram(d, h):
    return build_kde_model(d, pairwise_distances(Y, Y), h).gram_x


def test_gram_unit_diagonal_and_symmetry():
    gram = _gram(pairwise_distances(X, X), 0.3)
    assert np.all(np.diag(gram) == 1.0)
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)
    assert np.all(gram >= 0.0) and np.all(gram <= 1.0)


def test_gram_underflows_to_zero_at_tiny_bandwidth():
    # Mathematically entries are positive; in float64 they underflow, which
    # the model allows and downstream densities clamp.
    gram = _gram(pairwise_distances(X, X), 1e-4)
    off = gram[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.0)


def test_real_setting_rule():
    # A finite real comes back as a float; the sign, when given, is checked.
    assert _real("h", np.float32(0.5), "positive") == 0.5
    assert type(_real("h", 2, "positive")) is float
    assert _real("rotation", -1.5) == -1.5
    assert _real("spread", 0, "nonnegative") == 0.0
    for bad in (True, np.bool_(True), "0.5", None, np.array(0.5)):
        with pytest.raises(TypeError, match="^h must be a real number"):
            _real("h", bad, "positive")
    for sign, bad in [(None, math.nan), (None, math.inf), (None, -math.inf),
                      (None, 10**400), ("nonnegative", -1e-300),
                      ("positive", 0), ("positive", -0.0)]:
        with pytest.raises(ValueError, match="^h must be .*finite, got"):
            _real("h", bad, sign)
    with pytest.raises(ValueError, match="^h must be positive and finite"):
        _real("h", math.inf, "positive")


def test_finite_array_rule():
    # A float64 array comes back as itself; others as a float array.
    a = np.array([[0.0, -1.5], [2.0, 3.0]])
    assert _finite("a", a) is a
    assert _finite("a", [[1, 2]]).dtype == float
    assert _finite("a", np.array([-0.0, 0.0]), "nonnegative").shape == (2,)
    assert _finite("a", np.empty((0, 3)), "nonnegative").shape == (0, 3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^a must be finite$"):
            _finite("a", [[0.0, bad]])
    for bad in (math.nan, math.inf, -math.inf, -1e-300):
        with pytest.raises(ValueError,
                           match="^a must be finite and nonnegative$"):
            _finite("a", [[0.0, bad]], "nonnegative")


def test_plan_values_trust_checked_matrices_only():
    p, q = uniform_weights(3), uniform_weights(2)
    coupling = CouplingMatrix(np.outer(p, q), p, q)
    scores = ScoreMatrix(np.full((2, 2), 0.5))
    assert _plan_values(coupling) is coupling.values
    assert _plan_values(scores) is scores.values
    assert np.array_equal(_plan_values(PLAN.tolist()), PLAN)
    with pytest.raises(ValueError, match=r"^plan must be 2-d, got shape \(6,\)"):
        mutual_information(_model(), PLAN.ravel())


def _entry(a, value, at=(0, 1)):
    """A float copy of ``a`` with ``value`` at index ``at``."""
    a = np.array(a, dtype=float)
    a[at] = value
    return a


def _model():
    return build_kde_model(pairwise_distances(X, X),
                           pairwise_distances(Y, Y), H)


P3, Q2 = uniform_weights(3), uniform_weights(2)
_PLAN_USERS = {
    "mutual_information": lambda g: mutual_information(_model(), g),
    "mi_gradient": lambda g: mi_gradient(_model(), g),
    "entropy": entropy,
    "barycentric_project": lambda g: barycentric_project(g, Y),
    "importance_weights": lambda g: importance_weights(_model(), g, 0, Y),
    "importance_scores": lambda g: importance_scores(_model(), g, None, Y),
    "conditional_project": lambda g: conditional_project(_model(), g, None, Y),
    "cluster_coherence": lambda g: cluster_coherence(g, [0, 1, 1], [0, 1]),
}
_ARRAY_SITES = [
    ("DistanceMatrix-nan", lambda: DistanceMatrix(_entry(np.zeros((2, 2)),
                                                         np.nan)),
     "distance matrix must be finite and nonnegative"),
    ("DistanceMatrix-negative",
     lambda: DistanceMatrix(_entry(np.zeros((2, 2)), -1.0)),
     "distance matrix must be finite and nonnegative"),
    ("PointSet", lambda: PointSet(_entry(X.points, np.nan)),
     "points must be finite"),
    ("CouplingMatrix", lambda: CouplingMatrix(_entry(PLAN, -0.01), P3, Q2,
                                              strict=False),
     "plan entries must be finite and nonnegative"),
    ("sinkhorn-cost", lambda: sinkhorn(_entry(np.zeros((3, 2)), np.nan),
                                       P3, Q2, 1.0),
     "cost matrix must be finite"),
    ("sinkhorn-init", lambda: sinkhorn(np.zeros((3, 2)), P3, Q2, 1.0,
                                       init=[0.0, np.nan]),
     "init must be finite"),
    ("solve_fused_infoot", lambda: solve_fused_infoot(
        _entry(np.zeros((3, 2)), np.nan), pairwise_distances(X, X),
        pairwise_distances(Y, Y), P3, Q2, SolverConfig()),
     "cross cost must be finite"),
    ("ScoreMatrix", lambda: ScoreMatrix([[1.5, -0.5]]),
     "scores must be finite and nonnegative"),
    ("precision_at_k", lambda: precision_at_k(
        _entry(np.eye(2), np.nan), [0, 1], [0, 1], ks=(1,)),
     "scores must be finite"),
    ("query-coordinates", lambda: importance_scores(
        _model(), PLAN, [[np.nan, 0.0]], Y, source_points=X),
     "query coordinates must be finite"),
    ("query_distances", lambda: importance_weights(
        _model(), PLAN, [0.1, 0.2], Y, query_distances=[np.nan, 1.0, 2.0]),
     "query distances must be finite and nonnegative"),
] + [
    (f"{name}-{kind}", lambda use=use, bad=bad: use(_entry(PLAN, bad)),
     "plan must be finite and nonnegative")
    for name, use in _PLAN_USERS.items()
    for kind, bad in (("nan", np.nan), ("negative", -0.01))
]


@pytest.mark.parametrize("call, message", [case[1:] for case in _ARRAY_SITES],
                         ids=[case[0] for case in _ARRAY_SITES])
def test_array_rule_names_the_input(call, message):
    # A NaN, or a negative entry where the rule is nonnegative, is a
    # ValueError that names the array, the same words at every entry point.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_shape_rule():
    # The array comes back as itself; None admits any length.
    a = np.zeros((2, 3))
    assert _shaped("a", a, (2, 3)) is a
    assert _shaped("a", a, (None, 3)) is a
    assert _shaped("a", [1, 2], (None,)).shape == (2,)
    assert _shaped("a", np.empty((0, 3)), (0, None)).shape == (0, 3)
    with pytest.raises(ValueError, match=r"^a must be 1-d, got shape \(2, 3\)$"):
        _shaped("a", a, (None,))
    with pytest.raises(ValueError, match=r"^a must be 2-d, got shape \(\)$"):
        _shaped("a", 1.0, (None, None))
    # The expected shape fills a free axis with the length the array has.
    with pytest.raises(ValueError,
                       match=r"^a must have shape \(2, 4\), got \(2, 3\)$"):
        _shaped("a", a, (None, 4))
    # The nonempty rule of a marginal stays its own.
    with pytest.raises(ValueError, match="^marginal must be a nonempty vector$"):
        check_marginal([])


_QS = [[0.4, 0.6], [0.5, 0.5]]
_SHAPE_SITES = [
    ("DistanceMatrix", lambda: DistanceMatrix(np.zeros(3)),
     r"distance matrix must be 2-d, got shape \(3,\)"),
    ("plan-2d", lambda: entropy(PLAN.ravel()),
     r"plan must be 2-d, got shape \(6,\)"),
    ("projection_factor", lambda: _model().projection_factor(PLAN.T, H),
     r"plan must have shape \(3, 2\), got \(2, 3\)"),
    ("check_marginal", lambda: check_marginal([[0.5, 0.5]], "weights"),
     r"weights must be 1-d, got shape \(1, 2\)"),
    ("PointSet-points", lambda: PointSet([0.0, 1.0]),
     r"points must be 2-d, got shape \(2,\)"),
    ("PointSet-labels-length", lambda: PointSet(X.points, labels=[0, 1]),
     r"labels must have shape \(3,\), got \(2,\)"),
    ("PointSet-labels-ndim",
     lambda: PointSet(X.points, labels=[[0], [1], [1]]),
     r"labels must be 1-d, got shape \(3, 1\)"),
    ("PointSet-weights", lambda: PointSet(X.points, weights=Q2),
     r"weights must have shape \(3,\), got \(2,\)"),
    ("CouplingMatrix", lambda: CouplingMatrix(PLAN.T, P3, Q2),
     r"plan must have shape \(3, 2\), got \(2, 3\)"),
    ("sinkhorn-cost-ndim", lambda: sinkhorn(np.zeros(6), P3, Q2, 1.0),
     r"cost matrix must be 2-d, got shape \(6,\)"),
    ("sinkhorn-cost-length", lambda: sinkhorn(np.zeros((2, 3)), P3, Q2, 1.0),
     r"cost matrix must have shape \(3, 2\), got \(2, 3\)"),
    ("sinkhorn-init", lambda: sinkhorn(np.zeros((3, 2)), P3, Q2, 1.0,
                                       init=np.zeros(3)),
     r"init must have shape \(2,\), got \(3,\)"),
    ("mutual_information", lambda: mutual_information(_model(), PLAN.T),
     r"plan must have shape \(3, 2\), got \(2, 3\)"),
    ("solve_fused_infoot", lambda: solve_fused_infoot(
        np.zeros((2, 3)), pairwise_distances(X, X), pairwise_distances(Y, Y),
        P3, Q2, SolverConfig()),
     r"cross cost must have shape \(3, 2\), got \(2, 3\)"),
    ("ScoreMatrix", lambda: ScoreMatrix([0.5, 0.5]),
     r"scores must be 2-d, got shape \(2,\)"),
    ("barycentric_project", lambda: barycentric_project(PLAN, X),
     r"plan must have shape \(3, 3\), got \(3, 2\)"),
    ("targets", lambda: importance_scores(_model(), PLAN, None, X),
     r"targets must have shape \(2, 2\), got \(3, 2\)"),
    ("query-coordinates", lambda: importance_scores(
        _model(), PLAN, [[0.1, 0.2, 0.3]], Y, source_points=X),
     r"query coordinates must have shape \(1, 2\), got \(1, 3\)"),
    ("source_points", lambda: importance_scores(
        _model(), PLAN, [[0.1, 0.2]], Y, source_points=Y),
     r"source_points must have shape \(3, 2\), got \(2, 2\)"),
    ("query_distances", lambda: importance_weights(
        _model(), PLAN, [0.1, 0.2], Y, query_distances=[1.0, 2.0]),
     r"query distances must have shape \(3,\), got \(2,\)"),
    ("stratified_holdout", lambda: stratified_holdout([[0, 1], [0, 1]]),
     r"labels must be 1-d, got shape \(2, 2\)"),
    ("nn_classify", lambda: nn_classify(X.points, [[0], [1], [1]], Y.points),
     r"train_labels must be 1-d, got shape \(3, 1\)"),
    ("cluster_coherence-source", lambda: cluster_coherence(
        PLAN, [[0, 1, 1]], [0, 1]),
     r"source_ids must be 1-d, got shape \(1, 3\)"),
    ("cluster_coherence-target", lambda: cluster_coherence(
        PLAN, [0, 1, 1], [0, 1, 1]),
     r"target_ids must have shape \(2,\), got \(3,\)"),
    # Labels of shape (q, 1) or (1, q) have the right size, but broadcast
    # against each other into wrong precisions.
    ("precision_at_k-column", lambda: precision_at_k(
        _QS, [[0], [1]], [0, 1], ks=(1,)),
     r"query_labels must be 1-d, got shape \(2, 1\)"),
    ("precision_at_k-row", lambda: precision_at_k(
        _QS, [[0, 1]], [0, 1], ks=(1,)),
     r"query_labels must be 1-d, got shape \(1, 2\)"),
    ("precision_at_k-targets-column", lambda: precision_at_k(
        _QS, [0, 1], [[0], [1]], ks=(1,)),
     r"target_labels must be 1-d, got shape \(2, 1\)"),
    ("precision_at_k-length", lambda: precision_at_k(
        _QS, [0, 1, 1], [0, 1], ks=(1,)),
     r"query_labels must have shape \(2,\), got \(3,\)"),
    # A second set of points must have the width of the first.
    ("nn_classify-width", lambda: nn_classify(
        X.points, [0, 1, 1], [[0.0, 0.0, 0.0]]),
     r"query_points must have shape \(1, 2\), got \(1, 3\)"),
    ("outlier_hits-width", lambda: outlier_hits(
        X.points, np.zeros((1, 3)), 1.0),
     r"outliers must have shape \(1, 2\), got \(1, 3\)"),
    ("fit_alignment-width", lambda: fit_alignment(
        X, PointSet(np.zeros((2, 3))), SolverConfig()),
     r"target points must have shape \(2, 2\), got \(2, 3\)"),
    ("circular_validation-width", lambda: circular_validation(
        PointSet(X.points, labels=[0, 1, 1]), PointSet(np.zeros((2, 3))),
        SolverConfig(), [0.5]),
     r"target points must have shape \(2, 2\), got \(2, 3\)"),
    ("nn_classify-empty", lambda: nn_classify(
        np.zeros((0, 2)), [], [[0.0, 0.0]]),
     "train_points must be nonempty"),
    ("nn_classify-empty-list", lambda: nn_classify([], [], [[0.0, 0.0]]),
     "train_points must be nonempty"),
    # Points of more than two axes are refused, not read through a slice.
    ("nn_classify-3d", lambda: nn_classify(
        np.zeros((2, 1, 2)), [0, 1], [[0.0]]),
     r"train_points must be 2-d, got shape \(2, 1, 2\)"),
    ("outlier_hits-3d", lambda: outlier_hits(
        np.zeros((2, 1, 2)), np.zeros((1, 1)), 1.0),
     r"projected must be 2-d, got shape \(2, 1, 2\)"),
    ("outlier_hits-outliers-3d", lambda: outlier_hits(
        X.points, np.zeros((0, 1, 2)), 1.0),
     r"outliers must be 2-d, got shape \(0, 1, 2\)"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in _SHAPE_SITES],
                         ids=[case[0] for case in _SHAPE_SITES])
def test_shape_rule_names_the_input(call, message):
    # A wrong number of axes, or a length that does not match what the
    # array goes with, is a ValueError that names the array, its expected
    # shape and the shape it has, the same words at every entry point.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("h, sigma", [(math.inf, 1.0), (0.5, math.inf),
                                      (0.5, 0.0), (True, 1.0)])
def test_kernel_refuses_a_bad_bandwidth_or_scale(h, sigma):
    error = TypeError if h is True else ValueError
    with pytest.raises(error, match="^(bandwidth|scale) must be"):
        gaussian_kernel(np.zeros((2, 2)), h, sigma)


def test_kernel_takes_its_limit_when_the_scale_underflows():
    # 2 h^2 sigma^2 is zero in float64 at h = 1e-170: the kernel is 1 at
    # zero distance, duplicates included, and 0 elsewhere, with no warning.
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    k = gaussian_kernel(d, 1e-170, 1.0)
    np.testing.assert_array_equal(k, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    gram = _gram(DistanceMatrix(d), 1e-170)
    np.testing.assert_array_equal(gram, k)
    before = d.copy()
    gaussian_kernel(d, 0.5, 1.0)  # computed in a new array, not in d
    np.testing.assert_array_equal(d, before)
    with pytest.raises(ValueError, match="positive"):
        gaussian_kernel(d, float("nan"), 1.0)


def test_kernel_at_a_subnormal_scale_is_quiet_and_exact():
    # 2 h^2 sigma^2 = 2e-320 is subnormal: a unit distance overflows the
    # exponent to -inf, kernel 0, with no warning (tier-1 turns
    # RuntimeWarnings into errors); a subnormal distance keeps its value.
    k = gaussian_kernel([[0.0, 1.0], [1.0, 0.0]], 1e-160, 1.0)
    np.testing.assert_array_equal(k, [[1, 0], [0, 1]])
    d2 = 1e-161 ** 2
    tiny = gaussian_kernel([[1e-161]], 1e-160, 1.0)
    assert tiny[0, 0] == math.exp(-d2 / (2.0 * 1e-160 * 1e-160))


def test_kde_model_is_derived_from_distances_and_bandwidth():
    dx = pairwise_distances(X, X)
    dy = pairwise_distances(Y, Y)
    model = KdeModel(dx, dy, H)
    for gram, d in ((model.gram_x, dx), (model.gram_y, dy)):
        np.testing.assert_array_equal(
            gram, gaussian_kernel(d.values, H, estimate_scale(d)))
        with pytest.raises(ValueError, match="read-only"):
            gram[0, 0] = 0.5
    cross = pairwise_distances(X, Y)
    with pytest.raises(ValueError, match="intra-domain"):
        KdeModel(cross, dy, H)
    with pytest.raises(ValueError, match="intra-domain"):
        KdeModel(dx, cross, H)
    for h in (float("nan"), 0.0, -0.5):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            KdeModel(dx, dy, h)


def test_kde_model_frozen_marginals():
    model = build_kde_model(pairwise_distances(X, X),
                            pairwise_distances(Y, Y), H)
    assert model.n == 3 and model.m == 2
    assert model.dist_x.scale == SCALE_X
    assert model.dist_y.scale == SCALE_Y
    marginal_x, marginal_y = model.gram_x.sum(axis=1), model.gram_y.sum(axis=1)
    np.testing.assert_allclose(marginal_x, MARGINAL_X, rtol=1e-14)
    assert np.all(marginal_x > 0) and np.all(marginal_y > 0)


def test_kde_model_single_point_domain():
    one = PointSet(np.array([[5.0, 5.0]]))
    model = build_kde_model(pairwise_distances(one, one),
                            pairwise_distances(Y, Y), 0.7)
    np.testing.assert_array_equal(model.gram_x, [[1.0]])
    np.testing.assert_array_equal(model.gram_x.sum(axis=1), [1.0])


def test_joint_density_matches_loop_oracle():
    # The MI estimate and its gradient, recomputed entrywise from a
    # loop-built joint J and the Gram row sums.
    model = build_kde_model(pairwise_distances(X, X),
                            pairwise_distances(Y, Y), H)
    kx, ky = model.gram_x, model.gram_y
    pairs = [(k, l) for k in range(3) for l in range(2)]
    joint = np.zeros((3, 2))
    for i, j in pairs:
        joint[i, j] = sum(PLAN[k, l] * kx[i, k] * ky[j, l] for k, l in pairs)
    assert abs(joint[0, 0] - JOINT_00) < 1e-14
    assert abs(joint[2, 1] - JOINT_21) < 1e-14
    ratio = joint / np.outer(kx.sum(axis=1), ky.sum(axis=1))
    mi = sum(PLAN[i, j] * math.log(6 * ratio[i, j]) for i, j in pairs)
    assert abs(mutual_information(model, PLAN) - mi) < 1e-14
    grad = np.zeros((3, 2))
    for i, j in pairs:
        grad[i, j] = math.log(ratio[i, j]) + sum(
            kx[i, k] * PLAN[k, l] / joint[k, l] * ky[j, l] for k, l in pairs)
    np.testing.assert_allclose(mi_gradient(model, PLAN), grad, rtol=1e-14)


def test_joint_density_shape_check():
    model = build_kde_model(pairwise_distances(X, X),
                            pairwise_distances(Y, Y), H)
    for consumer in (mutual_information, mi_gradient):
        with pytest.raises(ValueError, match=r"^plan must have shape "
                                             r"\(3, 2\), got \(2, 3\)$"):
            consumer(model, PLAN.T)
    with pytest.raises(ValueError, match=r"^plan must have shape "
                                         r"\(3, 2\), got \(2, 3\)$"):
        importance_scores(model, PLAN.T, None, Y)


def test_load_distance_csv(tmp_path):
    vals = _loop_distances(X.points, X.points)
    path = tmp_path / "d.csv"
    np.savetxt(path, vals, delimiter=",")
    d = DistanceMatrix(np.loadtxt(path, delimiter=",", ndmin=2))
    np.testing.assert_allclose(d.values, vals, atol=1e-12)
    assert d.is_intra
    build_kde_model(d, pairwise_distances(Y, Y), H)
    cross = _loop_distances(X.points, Y.points)
    path2 = tmp_path / "c.csv"
    np.savetxt(path2, cross, delimiter=",")
    c = DistanceMatrix(np.loadtxt(path2, delimiter=",", ndmin=2))
    assert c.shape == (3, 2) and not c.is_intra
    with pytest.raises(ValueError, match="square"):
        build_kde_model(c, pairwise_distances(Y, Y), H)
    with pytest.raises(ValueError, match="intra-domain"):
        estimate_scale(c)
