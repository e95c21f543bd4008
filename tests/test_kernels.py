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

from infoot import (DistanceMatrix, KdeModel, PointSet, build_kde_model,
                    estimate_scale, gaussian_kernel, importance_scores,
                    load_distance_csv, mi_gradient, mutual_information,
                    pairwise_distances)
from infoot.kernels import _euclidean

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
        assert d.kind == "cross"


def test_euclidean_equals_scipy_cdist_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(1, 7), (7, 1), (1, 1), (9, 13), (40, 25)]
    for d in (1, 2, 64):
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


def test_intra_kind_defaults_when_same_object():
    d = pairwise_distances(X, X)
    assert d.kind == "intra-source"
    assert np.all(np.diag(d.values) == 0.0)
    np.testing.assert_allclose(d.values, d.values.T, atol=1e-15)


def test_distance_matrix_invariants():
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), kind="cross")
    with pytest.raises(ValueError):  # asymmetric intra
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), kind="intra-source")
    with pytest.raises(ValueError):  # nonzero diagonal
        DistanceMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]), kind="intra-target")
    with pytest.raises(ValueError):  # intra must be square
        DistanceMatrix(np.zeros((2, 3)), kind="intra-source")
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((2, 2)), kind="nonsense")


def test_estimate_scale_frozen_values():
    assert estimate_scale(pairwise_distances(X, X)) == SCALE_X
    assert estimate_scale(pairwise_distances(Y, Y, kind="intra-target")) \
        == SCALE_Y


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


def test_kernel_takes_its_limit_when_the_scale_underflows():
    # 2 h^2 sigma^2 is zero in float64 at h = 1e-170: the kernel is 1 at
    # zero distance, duplicates included, and 0 elsewhere, with no warning.
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    k = gaussian_kernel(d, 1e-170, 1.0)
    np.testing.assert_array_equal(k, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    gram = _gram(DistanceMatrix(d, kind="intra-source"), 1e-170)
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
    dy = pairwise_distances(Y, Y, kind="intra-target")
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
                            pairwise_distances(Y, Y, kind="intra-target"), H)
    assert model.n == 3 and model.m == 2
    assert model.dist_x.scale == SCALE_X
    assert model.dist_y.scale == SCALE_Y
    marginal_x, marginal_y = model.gram_x.sum(axis=1), model.gram_y.sum(axis=1)
    np.testing.assert_allclose(marginal_x, MARGINAL_X, rtol=1e-14)
    assert np.all(marginal_x > 0) and np.all(marginal_y > 0)


def test_kde_model_single_point_domain():
    one = PointSet(np.array([[5.0, 5.0]]))
    model = build_kde_model(pairwise_distances(one, one),
                            pairwise_distances(Y, Y, kind="intra-target"), 0.7)
    np.testing.assert_array_equal(model.gram_x, [[1.0]])
    np.testing.assert_array_equal(model.gram_x.sum(axis=1), [1.0])


def test_joint_density_matches_loop_oracle():
    # The MI estimate and its gradient, recomputed entrywise from a
    # loop-built joint J and the Gram row sums.
    model = build_kde_model(pairwise_distances(X, X),
                            pairwise_distances(Y, Y, kind="intra-target"), H)
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
                            pairwise_distances(Y, Y, kind="intra-target"), H)
    for consumer in (mutual_information, mi_gradient):
        with pytest.raises(ValueError, match="does not match model"):
            consumer(model, PLAN.T)
    with pytest.raises(ValueError, match="does not match model"):
        importance_scores(model, PLAN.T, None, Y)


def test_load_distance_csv(tmp_path):
    vals = _loop_distances(X.points, X.points)
    path = tmp_path / "d.csv"
    np.savetxt(path, vals, delimiter=",")
    d = load_distance_csv(path, kind="intra-source")
    np.testing.assert_allclose(d.values, vals, atol=1e-12)
    cross = _loop_distances(X.points, Y.points)
    path2 = tmp_path / "c.csv"
    np.savetxt(path2, cross, delimiter=",")
    with pytest.raises(ValueError, match="square"):
        load_distance_csv(path2, kind="intra-source")
