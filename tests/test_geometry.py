"""Type-6 tetrahedral partition: cube splitting, point location,
barycentric bookkeeping."""

import numpy as np
import pytest

from boxqi import bernstein as bb
from boxqi import geometry as geo
from boxqi import qi


def _tet_volume(verts):
    a, b, c, d = verts
    return abs(np.linalg.det(np.stack([b - a, c - a, d - a]))) / 6.0


def test_grid_validation_and_properties():
    g = geo.DomainGrid(4, 5, 6, 0.5)
    assert g.m == (4, 5, 6)
    assert g.extent == (2.0, 2.5, 3.0)
    with pytest.raises(ValueError):
        geo.DomainGrid(0, 4, 4, 1.0)
    with pytest.raises(ValueError):
        geo.DomainGrid(4, 4, 4, -1.0)
    with pytest.raises(ValueError):
        geo.DomainGrid(10, 11, 11, 1.0).require_quasi_interpolation()
    geo.DomainGrid(11, 11, 11, 1.0).require_quasi_interpolation()
    # numpy scalars are integers and reals like any other
    geo.DomainGrid(np.int64(11), 11, 11, np.float64(0.5))


def test_grid_stores_python_int_counts():
    """A numpy count is stored as the Python int it equals, so the grid
    reads, prints and compares like one built from ints."""
    g = geo.DomainGrid(np.int64(5), np.uint8(5), 5)
    assert g == geo.DomainGrid(5, 5, 5)
    assert all(type(m) is int for m in g.m)
    with pytest.raises(ValueError, match=r"got \(5, 5, 5\)$"):
        g.require_quasi_interpolation()


@pytest.mark.parametrize("args, message", [
    ((11, 11, 11, float("inf")), "h must be a positive finite number"),
    ((11, 11, 11, float("nan")), "h must be a positive finite number"),
    ((11, 11, 11, True), "h must be a positive finite number"),
    ((11, 11, 11, "1"), "h must be a positive finite number"),
    ((11.0, 11, 11, 1.0), "must be positive integers"),
    ((11, 11.5, 11, 1.0), "must be positive integers"),
    ((11, 11, True, 1.0), "must be positive integers"),
    ((11, "11", 11, 1.0), "must be positive integers"),
    ((np.True_, 11, 11, 1.0), "must be positive integers"),
    ((11, None, 11, 1.0), "must be positive integers"),
    ((11, 11, {11}, 1.0), "must be positive integers"),
    ((np.array(11), 11, 11, 1.0), "must be positive integers"),
    (((11, 11), 11, 11, 1.0), "must be positive integers"),
    ((11, [11, [11]], 11, 1.0), "must be positive integers"),
])
def test_grid_rejects_bad_sizes_with_one_error(args, message):
    with pytest.raises(ValueError, match=message):
        geo.DomainGrid(*args)


def test_cube_splits_into_24_tets_filling_the_cube():
    g = geo.DomainGrid(4, 4, 4, 0.5)
    tets = geo.tetrahedra_of_cube((1, 2, 3), g)
    assert tets.shape == (24, 4, 3)
    lo = np.array([1, 2, 3]) * g.h
    assert (tets >= lo - 1e-15).all() and (tets <= lo + g.h + 1e-15).all()
    volumes = np.array([_tet_volume(t) for t in tets])
    # 24 congruent tetrahedra of volume h^3 / 24
    np.testing.assert_allclose(volumes, g.h ** 3 / 24, rtol=1e-12)
    # all share the cube center
    center = lo + g.h / 2
    for t in tets:
        assert np.min(np.linalg.norm(t - center, axis=1)) < 1e-15


def test_unit_tets_match_scaled_cube():
    g = geo.DomainGrid(3, 3, 3, 1.0)
    tets = geo.tetrahedra_of_cube((0, 0, 0), g)
    np.testing.assert_allclose(tets, np.asarray(geo.TET_VERTICES_UNIT, float))


def test_locate_reconstructs_points(rng):
    g = geo.DomainGrid(5, 4, 6, 0.7)
    pts = rng.uniform(0.0, 1.0, size=(500, 3)) * np.array(g.extent)
    cube, tet, bary = geo.locate(pts, g)
    assert cube.shape == (500, 3) and tet.shape == (500,)
    assert (tet >= 0).all() and (tet < 24).all()
    assert (bary > -1e-12).all()
    np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-12)
    # barycentric combination of the located tet's vertices returns the point
    for i in range(0, 500, 37):
        verts = geo.tetrahedra_of_cube(tuple(cube[i]), g)[tet[i]]
        np.testing.assert_allclose(bary[i] @ verts, pts[i], atol=1e-12)


def test_locate_handles_domain_boundary():
    g = geo.DomainGrid(4, 4, 4, 1.0)
    corners = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0], [4.0, 0.0, 2.5]])
    cube, tet, bary = geo.locate(corners, g)
    assert (cube >= 0).all() and (cube < 4).all()
    with pytest.raises(ValueError):
        geo.locate(np.array([[4.0 + 1e-9, 0.0, 0.0]]), g)
    with pytest.raises(ValueError):
        geo.locate(np.array([[-1e-9, 0.0, 0.0]]), g)


def test_barycentric_matrices_are_exact_halves():
    hom = np.ones((24, 4, 4), dtype=np.int64)
    hom[:, :3] = geo.TET_VERTICES_UNIT_2X.transpose(0, 2, 1)
    twice = 2 * geo.BARYCENTRIC_MATRICES
    assert (twice == np.rint(twice)).all()
    for t in range(24):
        assert (twice[t].astype(np.int64) @ hom[t]
                == 2 * np.eye(4, dtype=np.int64)).all()


def test_domain_points_cover_tet(rng):
    g = geo.DomainGrid(3, 3, 3, 1.0)
    tet = geo.tetrahedra_of_cube((1, 1, 1), g)[5]
    dp = bb.domain_points(tet)
    assert dp.shape == (35, 3)
    # vertices are among the domain points; all points inside the tet hull
    for v in tet:
        assert np.min(np.linalg.norm(dp - v, axis=1)) < 1e-14
    bary = np.asarray(bb.domain_point_barycentrics(), float)
    np.testing.assert_allclose(bary @ tet, dp, atol=1e-14)


def test_barycentric_direction_is_step_derivative():
    g = geo.DomainGrid(4, 4, 4, 0.5)
    p = np.array([[0.63, 1.07, 1.66]])
    cube, tet, bary = geo.locate(p, g)
    for axis in range(3):
        d = geo.AXIS_DIRECTIONS[tet[0], axis]
        assert abs(d.sum()) < 1e-14
        t = 1e-3
        step = np.zeros(3)
        step[axis] = t
        c2, t2, b2 = geo.locate(p + step, g)
        assert (c2 == cube).all() and (t2 == tet).all()
        np.testing.assert_allclose((b2[0] - bary[0]) * g.h / t, d, atol=1e-9)


# -- the tie rule of locate_unit ------------------------------------------
#
# The documented rule: the first tetrahedron in canonical order whose
# barycentric coordinates are all >= -1e-12.  The reference below applies
# that rule literally, testing all 24 candidates per point.  It holds for
# the closed cube within tolerance, which `locate_unit` is given; points
# further out are left out of the comparison.

_TIE_TOL = 1e-12
_BARY_ATOL = 4.5e-16


def _first_containing(local, chunk=100_000):
    tets, barys = [], []
    for start in range(0, len(local), chunk):
        u = local[start:start + chunk]
        hom = np.concatenate([2.0 * u, np.ones((len(u), 1))], axis=1)
        cand = np.einsum('tij,nj->nti', geo.BARYCENTRIC_MATRICES, hom)
        inside = cand.min(axis=2) >= -_TIE_TOL
        assert inside.any(axis=1).all()
        tet = inside.argmax(axis=1)
        tets.append(tet)
        barys.append(cand[np.arange(len(u)), tet])
    return np.concatenate(tets), np.concatenate(barys)


def _locate_chunked(local, chunk=100_000):
    out = [geo.locate_unit(local[s:s + chunk])
           for s in range(0, len(local), chunk)]
    return (np.concatenate([o[0] for o in out]),
            np.concatenate([o[1] for o in out]))


def _in_cube(local):
    """Points whose doubled coordinates lie within tolerance of [0, 2]^3."""
    doubled = 2.0 * local
    return ((doubled.min(axis=1) >= -_TIE_TOL)
            & (2.0 - doubled.max(axis=1) >= -_TIE_TOL))


def _assert_tie_rule(local):
    local = local[_in_cube(local)]
    tet, bary = _locate_chunked(local)
    ref_tet, ref_bary = _first_containing(local)
    bad = np.flatnonzero(tet != ref_tet)
    assert bad.size == 0, (
        f"{bad.size} points change tetrahedron, e.g. {local[bad[0]]!r}: "
        f"{tet[bad[0]]} instead of {ref_tet[bad[0]]}")
    assert np.abs(bary - ref_bary).max() <= _BARY_ATOL


def _plane_points(rng, n):
    """Random points on the six diagonal planes through the cube center."""
    t, s = rng.uniform(0.0, 1.0, size=(2, n))
    out = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        c = 3 - a - b
        for mirror in (False, True):
            p = np.empty((n, 3))
            p[:, a] = t
            p[:, b] = 1.0 - t if mirror else t
            p[:, c] = s
            out.append(p)
    return np.concatenate(out)


def _boundary_points(rng, n):
    """Random points on the cube's faces and edges, plus its corners."""
    out = []
    for axis in range(3):
        for side in (0.0, 1.0):
            p = rng.uniform(0.0, 1.0, size=(n, 3))
            p[:, axis] = side
            out.append(p)
            q = rng.uniform(0.0, 1.0, size=(n, 3))
            q[:, axis] = side
            q[:, (axis + 1) % 3] = rng.integers(0, 2, size=n)
            out.append(q)
    corners = np.array([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0)
                        for k in (0.0, 1.0)])
    return np.concatenate(out + [corners])


def test_locate_unit_hand_checked_ties():
    pts = np.array([
        [0.5, 0.5, 0.5],   # cube center: in all 24, first is tet 0
        [0.0, 0.0, 0.0],   # corner shared by faces -x, -y, -z
        [1.0, 1.0, 1.0],   # corner: face +x, edge (1,1,0)-(1,1,1)
        [0.5, 0.5, 0.0],   # center of face -z
        [0.2, 0.2, 0.5],   # plane x = y, between the -x and -y pyramids
        [0.0, 0.5, 0.5],   # center of face -x
    ])
    tet, bary = geo.locate_unit(pts)
    np.testing.assert_array_equal(tet, [0, 0, 5, 16, 3, 0])
    np.testing.assert_allclose(bary, [[1, 0, 0, 0], [0, 0, 1, 0],
                                      [0, 0, 0, 1], [0, 1, 0, 0],
                                      [0.4, 0.0, 0.3, 0.3], [0, 1, 0, 0]],
                               rtol=0, atol=1e-15)


def _lattice():
    """k/8 lattice: corners, edge and face midpoints, the center, and many
    points on several diagonal planes at once."""
    k = np.arange(9) / 8.0
    return np.stack(np.meshgrid(k, k, k, indexing="ij"),
                    axis=-1).reshape(-1, 3)


def _lattice_offsets():
    """The k/8 lattice with each axis offset independently, so that several
    plane values sit in the tolerance bands at once."""
    off = np.array([0.0, 1.1e-13, -1.1e-13, 2.9e-13, -2.9e-13, 6.7e-13,
                    -6.7e-13])
    shifts = np.stack(np.meshgrid(off, off, off, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    return (_lattice()[:, None, :] + shifts[None, :, :]).reshape(-1, 3)


def test_locate_unit_tie_rule_on_lattice():
    _assert_tie_rule(_lattice())
    offset = _lattice_offsets()
    d = 2.0 * offset - 1.0
    planes = np.concatenate([d[:, [0, 0, 1]] - d[:, [1, 2, 2]],
                             d[:, [0, 0, 1]] + d[:, [1, 2, 2]]], axis=1)
    # no plane value within 1e-14 of +-1e-12 or +-2e-12, the tolerances a
    # barycentric coordinate d_a +- d_b or (d_a +- d_b) / 2 is tested at,
    # where roundoff could decide
    edges = np.array([1e-12, 2e-12])[:, None, None]
    assert np.abs(np.abs(planes) - edges).min() > 1e-14
    near = (np.abs(planes) <= 3e-12).sum(axis=1)
    assert (near >= 2).sum() > 1000  # several planes near zero at once
    _assert_tie_rule(offset)


def test_locate_unit_tie_rule_on_planes_faces_edges(rng):
    _assert_tie_rule(_plane_points(rng, 2000))
    _assert_tie_rule(_boundary_points(rng, 2000))


def test_locate_unit_tie_rule_near_planes(rng):
    # offsets on either side of the 1e-12 tolerance, none close to it
    base = np.concatenate([_plane_points(rng, 500), _boundary_points(rng, 200)])
    shifted = []
    for eps in (1e-13, 3e-13, 8e-13, 2e-12):
        for sign in (1.0, -1.0):
            for axis in range(3):
                p = base.copy()
                p[:, axis] += sign * eps
                shifted.append(p)
    _assert_tie_rule(np.concatenate(shifted))


def _hom(local):
    return np.concatenate([2.0 * local, np.ones((len(local), 1))], axis=1)


def test_plane_values_are_exact_multiples_of_barycentric_rows(rng):
    points = np.concatenate([_lattice_offsets(), _plane_points(rng, 2000),
                             rng.uniform(0.0, 1.0, size=(2000, 3))])
    rows = geo.BARYCENTRIC_MATRICES.reshape(96, 4)
    on_plane = np.count_nonzero(rows[:, :3], axis=1) == 2
    assert on_plane.sum() == 72
    for n in (1, 3, 64, len(points)):
        hom = _hom(points[:n])
        bary = np.einsum('tij,nj->nti', geo.BARYCENTRIC_MATRICES,
                         hom).reshape(n, 96)
        planes = geo._plane_values(hom)
        for r in np.flatnonzero(on_plane):
            matches = [(k, s) for k in range(6) for s in (1, -1, 0.5, -0.5)
                       if np.array_equal(rows[r], s * geo._PLANE_ROWS[k])]
            assert len(matches) == 1
            k, s = matches[0]
            assert np.array_equal(bary[:, r], s * planes[k]), (n, r)


def test_every_band_pattern_has_a_containing_tet():
    contains = geo._band_containment()
    assert contains.shape == (5 ** 6, 24)
    assert contains.any(axis=1).all()


def test_locate_clamps_points_within_tolerance_outside_the_domain(rng):
    """A point accepted within tolerance outside Omega is located, and
    evaluated, at its clamped point; one further out, or not finite, still
    raises."""
    spline = qi.approximate(rng.normal(size=(14, 13, 15)), h=0.1)
    g = spline.grid
    m = np.array(g.m, dtype=np.float64)
    tol = 1e-12 * m.max()
    u = rng.uniform(0.0, 1.0, size=(3000, 3)) * m
    side = rng.integers(0, 3, size=u.shape)  # inside, below 0, above m
    side[np.arange(len(u)), rng.integers(0, 3, len(u))] = rng.integers(
        1, 3, len(u))  # every point outside on some axis
    u = np.where(side == 1, -tol / 2, np.where(side == 2, m + tol / 2, u))
    pts = u * g.h
    clamped = np.clip(pts, 0.0, np.array(g.extent))
    assert not (pts == clamped).all(axis=1).any()
    for got, want in zip(geo.locate(pts, g), geo.locate(clamped, g)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(spline.eval(pts), spline.eval(clamped))
    np.testing.assert_array_equal(spline.gradient(pts),
                                  spline.gradient(clamped))
    for bad, message in [((np.nan, 0.5, 0.5), "is not finite"),
                         ((0.5, np.inf, 0.5), "is not finite"),
                         ((-2 * tol * g.h, 0.5, 0.5), "outside the domain"),
                         ((0.5, 0.5, (m[2] + 2 * tol) * g.h),
                          "outside the domain")]:
        with pytest.raises(ValueError, match=message):
            geo.locate(np.array([[0.5, 0.5, 0.5], bad]), g)


def test_locate_unit_matches_rule_on_random_points(rng):
    _assert_tie_rule(rng.uniform(0.0, 1.0, size=(1_000_000, 3)))


def test_locate_rejects_non_finite_points():
    g = geo.DomainGrid(4, 4, 4, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            geo.locate(np.array([[1.0, bad, 2.0]]), g)
