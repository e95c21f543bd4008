"""Synthetic scenario generators and the class-conditional cost."""

import re

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from infoot import GeneratorConfig, class_conditional_cost, gen_clusters
from infoot.datasets import OUTLIER_ID, _mode_centers


def test_generation_is_bitwise_deterministic():
    cfg = GeneratorConfig(sizes=(5, 7), seed=123, rotation=0.3, outliers=2)
    a = gen_clusters(cfg)
    b = gen_clusters(cfg)
    np.testing.assert_array_equal(a.source.points, b.source.points)
    np.testing.assert_array_equal(a.target.points, b.target.points)
    np.testing.assert_array_equal(a.target_ids, b.target_ids)
    assert a.data_sigma == b.data_sigma


def test_sizes_and_labels():
    cfg = GeneratorConfig(sizes=(3, 4, 5), seed=0, target_sizes=(2, 2, 9))
    s = gen_clusters(cfg)
    assert s.source.n == 12 and s.target.n == 13
    np.testing.assert_array_equal(np.bincount(s.source_ids), [3, 4, 5])
    np.testing.assert_array_equal(np.bincount(s.target_ids), [2, 2, 9])
    np.testing.assert_array_equal(s.source.labels, s.source_ids)


def test_mode_centers_on_circle():
    centers = _mode_centers(4, separation=3.0)
    np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 3.0,
                               atol=1e-12)
    # first mode on the positive x axis, angles evenly spaced
    np.testing.assert_allclose(centers[0], [3.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(centers[1], [0.0, 3.0], atol=1e-12)


def test_rotation_applied_to_target_only():
    base = GeneratorConfig(sizes=(6, 6), seed=11, spread=0.2)
    rot = GeneratorConfig(sizes=(6, 6), seed=11, spread=0.2,
                          rotation=np.pi / 2)
    a, b = gen_clusters(base), gen_clusters(rot)
    np.testing.assert_array_equal(a.source.points, b.source.points)
    mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(b.target.points, a.target.points @ mat.T,
                               atol=1e-12)


def test_identity_copies_source():
    cfg = GeneratorConfig(sizes=(4, 4), seed=2, identity=True)
    s = gen_clusters(cfg)
    np.testing.assert_array_equal(s.target.points, s.source.points)
    np.testing.assert_array_equal(s.target_ids, s.source_ids)


def test_outliers_placed_on_far_ring():
    cfg = GeneratorConfig(sizes=(10, 10), seed=3, outliers=4,
                          outlier_scale=8.0)
    s = gen_clusters(cfg)
    assert s.target.n == 24
    np.testing.assert_array_equal(s.outlier_indices, [20, 21, 22, 23])
    assert np.all(s.target_ids[20:] == OUTLIER_ID)
    clean = s.target.points[:20]
    centroid = clean.mean(axis=0)
    # data_sigma is the clean target's RMS radius about its centroid
    rms = np.sqrt(np.mean(((clean - centroid) ** 2).sum(axis=1)))
    assert abs(s.data_sigma - rms) < 1e-12
    radii = np.linalg.norm(s.target_outliers - centroid, axis=1)
    np.testing.assert_allclose(radii, 8.0 * s.data_sigma, atol=1e-9)


def test_zero_spread_collapses_to_centers():
    cfg = GeneratorConfig(sizes=(2, 3), seed=5, spread=0.0, separation=1.5)
    s = gen_clusters(cfg)
    centers = _mode_centers(2, 1.5)
    np.testing.assert_allclose(s.source.points[:2], np.tile(centers[0], (2, 1)),
                               atol=1e-12)
    np.testing.assert_allclose(s.source.points[2:], np.tile(centers[1], (3, 1)),
                               atol=1e-12)


def test_single_point_clusters():
    s = gen_clusters(GeneratorConfig(sizes=(1,), seed=0, spread=0.0))
    assert s.source.n == s.target.n == 1


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(sizes=(), seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(sizes=(0, 3), seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(sizes=(3,), seed=0, target_sizes=(3, 3))
    with pytest.raises(ValueError):
        GeneratorConfig(sizes=(3,), seed=0, spread=-0.1)
    with pytest.raises(ValueError):
        GeneratorConfig(sizes=(3,), seed=0, outliers=-1)
    with pytest.raises(ValueError, match="identity"):
        GeneratorConfig(sizes=(3, 3), seed=0, identity=True,
                        target_sizes=(2, 4))
    for name, bad in [("sizes", (2.5, 3)), ("sizes", (True, 3)),
                      ("target_sizes", (3, 2.5)), ("outliers", 2.5),
                      ("outliers", True), ("rotation", "x"),
                      ("rotation", True)]:
        with pytest.raises(TypeError, match=f"^{name} must be"):
            GeneratorConfig(**{"sizes": (3, 3), "seed": 0, name: bad})
    cfg = GeneratorConfig(sizes=[np.int64(4), 4], seed=1,
                          outliers=np.int64(2), rotation=np.float32(0.5))
    assert cfg.sizes == (4, 4) and cfg.n_clusters == 2
    assert all(type(s) is int for s in cfg.sizes)
    assert cfg.seed == 1


def test_size_lists_refuse_strings_and_bare_numbers():
    # A string or bytes would be read one character at a time.
    for name in ("sizes", "target_sizes"):
        for bad in (5, "25", b"\x05", None if name == "sizes" else 2.0):
            message = f"{name} must be a list of integers, got {bad!r}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                GeneratorConfig(**{"sizes": (3, 3), "seed": 0, name: bad})
    for given in ((3, 4), [3, 4], np.array([3, 4])):
        cfg = GeneratorConfig(sizes=given, seed=0, target_sizes=given)
        assert cfg.sizes == cfg.target_sizes == (3, 4)


def test_class_conditional_cost_structure():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(6, 2))
    labels = np.array([0, 0, 1, 1, 2, 2])
    from infoot import PointSet
    ps = PointSet(pts, labels=labels)
    d = class_conditional_cost(ps, penalty=100.0)
    vals = d.values
    assert d.is_intra
    mismatch = labels[:, None] != labels[None, :]
    assert np.array_equal(vals, cdist(pts, pts) + 100.0 * mismatch)
    np.testing.assert_array_equal(np.diag(vals), np.zeros(6))
    np.testing.assert_allclose(vals, vals.T, atol=1e-12)
    for i in range(6):
        for j in range(6):
            base = np.linalg.norm(pts[i] - pts[j])
            expect = base + (100.0 if labels[i] != labels[j] else 0.0)
            assert abs(vals[i, j] - expect) < 1e-12


@pytest.mark.parametrize("name", ["rotation", "spread", "separation",
                                  "outlier_scale"])
def test_generator_reals_follow_one_rule(name):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GeneratorConfig(sizes=(3,), seed=0, **{name: bad})
    for bad in (True, "1"):
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            GeneratorConfig(sizes=(3,), seed=0, **{name: bad})
    # The record keeps the value as given.
    assert getattr(GeneratorConfig(sizes=(3,), seed=0, **{name: 1}), name) == 1


def test_class_conditional_cost_guards():
    from infoot import PointSet
    unlabeled = PointSet(np.zeros((3, 2)) + np.arange(3)[:, None])
    with pytest.raises(ValueError, match="label"):
        class_conditional_cost(unlabeled)
    labeled = PointSet(unlabeled.points, labels=np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        class_conditional_cost(labeled, penalty=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^penalty must be nonnegative"):
            class_conditional_cost(labeled, penalty=bad)
    with pytest.raises(TypeError, match="^penalty must be a real number"):
        class_conditional_cost(labeled, penalty="5000")
