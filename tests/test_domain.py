"""Coefficient index set A, data lattice, octahedron neighborhoods, and
boundary-class symmetry reduction."""

from fractions import Fraction

import numpy as np
import pytest

from boxqi import domain, geometry


def _alphas(grid):
    mask = domain.active_mask(grid)
    return [tuple(int(v) for v in a) for a in np.argwhere(mask) - 1]


def test_index_set_count_canonical(grid11):
    mask = domain.active_mask(grid11)
    assert mask.shape == (15, 15, 15)
    assert int(mask.sum()) == 3211
    assert mask.size == 3375


def test_index_set_excludes_only_extreme_corners(grid11):
    mask = domain.active_mask(grid11)
    excluded = np.argwhere(~mask) - 1
    # every excluded index has at least two coordinates outside [0, m]
    m = grid11.m[0]
    outside = (excluded < 0).astype(int) + (excluded > m).astype(int)
    assert (outside.sum(axis=1) >= 2).all()


def test_centers(grid11):
    c = domain.centers(np.array([[1, 2, 3], [0, 0, -1]]), grid11)
    np.testing.assert_allclose(c, [[0.5, 1.5, 2.5], [-0.5, -0.5, -1.5]])
    exact = domain.center_exact((1, 2, 3))
    assert tuple(exact) == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))


def test_data_points_clamped(grid11):
    pts = domain.data_points(grid11)
    assert pts.shape == (13, 13, 13, 3)
    xs = pts[:, 0, 0, 0]
    # interior samples at half-integers, the two extremes on the boundary
    np.testing.assert_allclose(xs[0], 0.0)
    np.testing.assert_allclose(xs[-1], 11.0)
    np.testing.assert_allclose(xs[1:-1], np.arange(1, 12) - 0.5)
    assert domain.data_coordinate_exact(0, 11) == 0
    assert domain.data_coordinate_exact(5, 11) == Fraction(9, 2)
    assert domain.data_coordinate_exact(12, 11) == 11
    np.testing.assert_allclose(domain.data_coordinate(np.arange(13), 11, 1.0),
                               [float(domain.data_coordinate_exact(i, 11))
                                for i in range(13)])


def test_project_index(grid11):
    assert tuple(domain.project_index((-3, 5, 14), grid11)) == (0, 5, 12)
    assert tuple(domain.project_index((4, 4, 4), grid11)) == (4, 4, 4)


def test_octahedron_offsets_counts():
    # lattice points with |i| + |j| + |k| <= n
    for n, count in [(1, 7), (2, 25), (3, 63), (4, 129)]:
        offs = domain.octahedron_offsets(n)
        assert offs.shape == (count, 3)
        assert (np.abs(offs).sum(axis=1) <= n).all()
        assert len({tuple(o) for o in offs}) == count


def test_octahedron_offsets_are_read_only():
    offs = domain.octahedron_offsets(2)
    assert domain.octahedron_offsets(2) is offs
    with pytest.raises(ValueError, match="read-only"):
        offs[0, 0] = 7
    assert offs[0].tolist() == [-2, 0, 0]


def test_octahedron_interior_and_clamped(grid11):
    inner = domain.octahedron((6, 6, 6), 2, grid11)
    assert len(domain.octahedron_offsets(2)) == 25
    assert len(inner) == 25
    corner = domain.octahedron((0, 0, -1), 4, grid11)
    assert len(domain.octahedron_offsets(4)) == 129
    # projection onto the boundary merges points: fewer but unique
    assert len(corner) == 25
    assert len({tuple(p) for p in corner}) == len(corner)
    assert (corner >= 0).all()
    assert (corner <= 12).all()


def test_class_keys_and_partition(grid11):
    assert len(domain.CLASS_KEYS) == 23
    counts = {}
    for alpha in _alphas(grid11):
        key, transform = domain.classify(alpha, grid11)
        assert key in domain.CLASS_KEYS
        counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == 3211
    assert len(counts) == 23
    # frozen populations for a few landmark classes
    assert counts[(0, 0, -1)] == 24   # 8 corners x 3 axis orientations
    assert counts[(0, 0, 0)] == 8     # 8 corners
    assert counts[(1, 1, 1)] == 8
    assert counts[(3, 3, 3)] == 343   # interior 7^3 block
    assert counts[(2, 2, -1)] == 486


def test_classify_canonical_identity(grid11):
    key, t = domain.classify((0, 0, -1), grid11)
    assert key == (0, 0, -1)
    assert t.perm == (0, 1, 2)
    assert t.flips == (False, False, False)


def test_classify_rejects_outside(grid11):
    m = grid11.m[0]
    for alpha in [(-2, -1, -1), (-2, 5, 5), (5, m + 3, 5),
                  (-1, -1, 5), (m + 2, 4, -1), (3, m + 2, m + 2)]:
        with pytest.raises(ValueError, match="not in the index set A"):
            domain.classify(alpha, grid11)


def test_transform_maps_canonical_points_into_lattice(grid11):
    rng = np.random.default_rng(11)
    alphas = _alphas(grid11)
    for idx in rng.choice(len(alphas), 40, replace=False):
        alpha = alphas[idx]
        key, t = domain.classify(alpha, grid11)
        canon = domain.octahedron(key, 2, grid11)
        mapped = np.array(alpha) + t.offsets(canon - key)
        assert mapped.shape == canon.shape
        assert (mapped >= 0).all() and (mapped <= 12).all()
        # distinct canonical points stay distinct
        assert len({tuple(p) for p in mapped}) == len(canon)


def test_transform_preserves_center_distance(grid11):
    """The symmetry maps data points rigidly: distances from a point to the
    class center equal distances from its image to the instance center."""
    for alpha in [(11, 11, 12), (0, 4, 12), (12, 0, 3), (5, 12, 12)]:
        key, t = domain.classify(alpha, grid11)
        canon = domain.octahedron(key, 2, grid11)
        mapped = np.array(alpha) + t.offsets(canon - key)
        c_canon = np.array([float(v) for v in domain.center_exact(key)])
        c_alpha = np.array([float(v) for v in domain.center_exact(alpha)])
        d0 = np.sort(np.linalg.norm(
            domain.data_coordinate(canon, 11, 1.0) - c_canon,
            axis=1))
        d1 = np.sort(np.linalg.norm(
            domain.data_coordinate(mapped, 11, 1.0) - c_alpha, axis=1))
        np.testing.assert_allclose(d0, d1, atol=1e-12)
