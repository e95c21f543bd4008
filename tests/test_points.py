"""Point-set container and CSV round trips."""

import numpy as np
import pytest

from infoot import PointSet, check_marginal, save_points_csv, uniform_weights


def test_uniform_weights_sum_to_one():
    for n in (1, 3, 17):
        w = uniform_weights(n)
        assert w.shape == (n,)
        assert abs(w.sum() - 1.0) < 1e-15


def test_uniform_weights_rejects_empty():
    with pytest.raises(ValueError):
        uniform_weights(0)


def test_pointset_defaults():
    ps = PointSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert ps.n == 2 and ps.d == 2
    assert ps.labels is None
    np.testing.assert_allclose(ps.weights, [0.5, 0.5])


def test_pointset_arrays_are_readonly():
    ps = PointSet(np.array([[0.0, 1.0]]), labels=np.array([3]))
    with pytest.raises(ValueError):
        ps.points[0, 0] = 7.0
    with pytest.raises(ValueError):
        ps.weights[0] = 0.2


def test_pointset_leaves_caller_arrays_writable():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    labels = np.array([1, 2])
    w = np.array([0.25, 0.75])
    ps = PointSet(x, labels=labels, weights=w)
    assert x.flags.writeable and labels.flags.writeable and w.flags.writeable
    x[0, 0] = 9.0  # the point set holds its own copy
    assert ps.points[0, 0] == 0.0
    assert np.issubdtype(ps.labels.dtype, np.signedinteger)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros(3))  # 1-d
    with pytest.raises(ValueError):
        PointSet(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2)), labels=np.array([1]))  # wrong length
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2)), weights=np.array([0.7, 0.7]))  # sum != 1
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2)), weights=np.array([-0.1, 1.1]))


def test_pointset_rejects_nan_weights():
    with pytest.raises(ValueError, match="strictly positive"):
        PointSet(np.zeros((3, 2)), weights=np.array([np.nan, 0.5, 0.5]))


def test_pointset_weights_follow_the_marginal_rule():
    # Weights are the Sinkhorn marginals, so a point set accepts exactly
    # the histograms that the solvers accept.
    pts = np.zeros((3, 2))
    for check in (lambda w: PointSet(pts, weights=w), check_marginal):
        with pytest.raises(ValueError, match="strictly positive"):
            check(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            check(np.array([0.25, 0.25, 0.5 + 5e-11]))
        # The sum prints as a plain float, not as NumPy's scalar repr.
        with pytest.raises(ValueError, match=r"sum to 1, got 1\.1$"):
            check(np.array([0.25, 0.25, 0.6]))
    for ps in (PointSet(pts), PointSet(pts, weights=[0.25, 0.25, 0.5])):
        np.testing.assert_array_equal(check_marginal(ps.weights), ps.weights)


def test_csv_round_trip_with_labels(tmp_path):
    # A header of feature names and a trailing label column; np.loadtxt
    # reads back the exact floats, and PointSet the labels.
    rng = np.random.default_rng(0)
    ps = PointSet(rng.normal(size=(6, 3)), labels=np.array([0, 0, 1, 1, 2, 2]))
    path = tmp_path / "pts.csv"
    save_points_csv(path, ps)
    assert path.read_text().splitlines()[0] == "x0,x1,x2,label"
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    back = PointSet(data[:, :-1], labels=data[:, -1])
    np.testing.assert_array_equal(back.points, ps.points)
    np.testing.assert_array_equal(back.labels, ps.labels)


def test_pointset_labels_are_whole_numbers(tmp_path):
    # A fractional or non-finite label is refused, not truncated; labels
    # read back from a CSV as floats reach the same rule through PointSet.
    for bad in ([0, 1.7], [0, np.nan], [0, np.inf]):
        with pytest.raises(ValueError, match="^labels must be whole numbers"):
            PointSet(np.zeros((2, 2)), labels=bad)
    ps = PointSet(np.zeros((3, 2)), labels=[0, 2.0, -1.0])
    assert ps.labels.tolist() == [0, 2, -1]
    assert np.issubdtype(ps.labels.dtype, np.signedinteger)
    path = tmp_path / "frac.csv"
    path.write_text("x0,label\n1.0,0\n2.0,1.5\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with pytest.raises(ValueError, match="^labels must be whole"):
        PointSet(data[:, :-1], labels=data[:, -1])
    path.write_text("x0,label\n1.0,0\n2.0,1.0\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert PointSet(data[:, :-1], labels=data[:, -1]).labels.tolist() == [0, 1]


def test_csv_round_trip_unlabeled(tmp_path):
    ps = PointSet(np.array([[1.5, -2.0], [0.25, 1e-12]]))
    path = tmp_path / "pts.csv"
    save_points_csv(path, ps)
    assert path.read_text() == "x0,x1\n1.5,-2.0\n0.25,1e-12\n"
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(back, ps.points)
