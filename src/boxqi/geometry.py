"""Uniform type-6 tetrahedral partitions of a box.

The domain Omega = [0, m1*h] x [0, m2*h] x [0, m3*h] is split into
m1*m2*m3 cubes of side h, and every cube is cut by the six diagonal planes
x = +-y, y = +-z, x = +-z (through the cube center) into 24 congruent
tetrahedra.

Canonical tetrahedron enumeration
---------------------------------
Tetrahedron ``t = 4*f + e`` where ``f`` enumerates cube faces in the order
(-x, +x, -y, +y, -z, +z) and ``e`` the four edges of that face in cyclic
order (0,0) -> (1,0) -> (1,1) -> (0,1) over the two remaining axes in
increasing axis order.  Each tetrahedron lists its vertices as

    (cube center, face center, edge corner A, edge corner B),

so BB multi-index position 0 always sits at the cube center.  All BB tables
in this package index against this order.

The 24 tetrahedra are one tetrahedron under the cube's symmetries: for each
t exactly one signed axis permutation g_t about the cube center maps
tetrahedron 0 onto t, vertex by vertex (``SYMMETRY_PERM``,
``SYMMETRY_SIGN``).

Internally coordinates are kept in grid units u = x/h; cube vertices then
have half-integer coordinates, which this module doubles to integers where
exactness matters.  The barycentric map of tetrahedron t is
lam = M_t @ (2u, 1) (``BARYCENTRIC_MATRICES``); every entry of M_t is an
exact half, rounded from one float inverse and checked at import in int64.
``AXIS_DIRECTIONS[t, a]`` is the barycentric direction of the unit vector
e_a (grid units), the input of `bernstein.derivative_reduce`; a
physical derivative carries 1/h per order.

Point location
--------------
A point of a cube belongs to the first tetrahedron in canonical order whose
barycentric coordinates are all >= -1e-12 (tol).  Each of the 96 barycentric
rows is a cube-face row, which every point of the cube passes, or s * P_k
with s in {+-1, +-1/2} and P_k one of the six diagonal-plane functions
d_a -+ d_b, d = 2u - 1.  Scaling by a power of two is exact, so the band of
each P_k, cut at +-tol and +-2 tol, decides every row's test bit for bit,
and a table of the 5**6 band patterns, built at import, holds the
tetrahedron.  Points outside the cube beyond tolerance may lie in no
tetrahedron; they alone test all 24 candidates for the best fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from numbers import Integral, Real

import numpy as np

__all__ = [
    "DomainGrid", "TET_VERTICES_UNIT", "tetrahedra_of_cube", "locate",
    "AXIS_DIRECTIONS", "SYMMETRY_PERM", "SYMMETRY_SIGN",
]


def _is_count(c, least: int) -> bool:
    return isinstance(c, Integral) and not isinstance(c, bool) and c >= least


def as_count(c, least: int, what: str) -> int:
    """``c`` as a Python int if it is an integer (numpy's too), not a bool,
    of at least ``least``; else one ``ValueError``: "{what}, got {c!r}"."""
    if not _is_count(c, least):
        raise ValueError(f"{what}, got {c!r}")
    return int(c)


def as_counts(n, least: int, what: str) -> tuple[int, int, int]:
    """Three `as_count` ints from one count or a tuple, list or 1-d array of
    three; anything else (a ragged list, a set, a wrong length, a 0-d
    array) raises the one ``ValueError`` of `as_count`, naming ``n``."""
    per_axis = isinstance(n, (tuple, list)) or np.ndim(n)
    counts = tuple(n) if per_axis else (n,) * 3
    if len(counts) != 3 or not all(_is_count(c, least) for c in counts):
        raise ValueError(f"{what}, got {n!r}")
    return tuple(map(int, counts))


@dataclass(frozen=True)
class DomainGrid:
    """A box domain with its uniform cube partition.

    Parameters
    ----------
    m1, m2, m3 : int
        Number of cubes per axis (positive integers, kept as Python ints).
    h : float
        Cube side length (positive and finite).
    """
    m1: int
    m2: int
    m3: int
    h: float = 1.0

    def __post_init__(self):
        m = as_counts(self.m, 1, "m1, m2, m3 must be positive integers")
        for name, value in zip(("m1", "m2", "m3"), m):
            object.__setattr__(self, name, value)
        if not (isinstance(self.h, Real) and not isinstance(self.h, bool)
                and 0 < self.h < float("inf")):
            raise ValueError(
                f"h must be a positive finite number, got {self.h!r}")

    @property
    def m(self):
        return (self.m1, self.m2, self.m3)

    @property
    def extent(self):
        """Upper corner of Omega = [0, m1*h] x [0, m2*h] x [0, m3*h]."""
        return (self.m1 * self.h, self.m2 * self.h, self.m3 * self.h)

    def require_quasi_interpolation(self):
        """Validate the construction rule m_a >= 11 for quasi-interpolation."""
        if min(self.m) < 11:
            raise ValueError(
                f"quasi-interpolation requires m1, m2, m3 >= 11, got {self.m}")


def _build_unit_tets():
    """Vertices of the 24 canonical tetrahedra of [0,1]^3, doubled to ints."""
    center = (1, 1, 1)
    tets = []
    for axis in range(3):
        for side in (0, 1):
            face_center = [1, 1, 1]
            face_center[axis] = 2 * side
            b, c = [a for a in range(3) if a != axis]
            corners = []
            for pb, pc in ((0, 0), (1, 0), (1, 1), (0, 1)):
                corner = [0, 0, 0]
                corner[axis] = 2 * side
                corner[b] = 2 * pb
                corner[c] = 2 * pc
                corners.append(tuple(corner))
            for e in range(4):
                tets.append((center, tuple(face_center),
                             corners[e], corners[(e + 1) % 4]))
    return np.array(tets, dtype=np.int64)


#: (24, 4, 3) integer array: doubled vertices of the canonical tetrahedra
#: of the unit cube (divide by 2 for actual coordinates).
TET_VERTICES_UNIT_2X = _build_unit_tets()

#: (24, 4, 3) float array: vertices of the canonical tetrahedra of [0,1]^3.
TET_VERTICES_UNIT = TET_VERTICES_UNIT_2X / 2.0


def _build_symmetries():
    """The signed axis permutation g_t taking tetrahedron 0 onto t.

    In centred doubled coordinates d = 2u - 1, g_t(d)[perm[i]] =
    sign[i] * d[i]; exactly one of the 48 maps every vertex of tetrahedron
    0 onto the same-numbered vertex of t."""
    perm, sign = (np.array(a) for a in zip(*product(
        permutations(range(3)), product((1, -1), repeat=3))))
    centred = TET_VERTICES_UNIT_2X - 1
    images = np.empty((48, 4, 3), dtype=np.int64)
    np.put_along_axis(images, perm[:, None], centred[0] * sign[:, None],
                      axis=2)
    g = (images == centred[:, None]).all(axis=(2, 3)).argmax(axis=1)
    return perm[g], sign[g]


#: (24, 3) axis permutations and (24, 3) signs of g_t (see above): axis i
#: of tetrahedron 0 goes to axis ``SYMMETRY_PERM[t, i]`` of t, scaled by
#: ``SYMMETRY_SIGN[t, i]``.
SYMMETRY_PERM, SYMMETRY_SIGN = _build_symmetries()


def _build_barycentric_matrices():
    """Per-tet matrices mapping homogeneous doubled coords to barycentrics.

    For tetrahedron t with doubled vertices w0..w3 the barycentric
    coordinates of a point u (grid units) solve  sum lam_i * w_i = 2u,
    sum lam_i = 1, i.e.  lam = M @ (2u_x, 2u_y, 2u_z, 1) with M the inverse
    of H = [w0..w3; 1 1 1 1].  Every entry of M is a multiple of 1/2, so
    the float inverse is rounded to halves and checked exactly:
    2M @ H == 2I in int64.
    """
    hom = np.ones((24, 4, 4), dtype=np.int64)
    hom[:, :3] = TET_VERTICES_UNIT_2X.transpose(0, 2, 1)
    twice = np.rint(2.0 * np.linalg.inv(hom)).astype(np.int64)
    if not (twice @ hom == 2 * np.eye(4, dtype=np.int64)).all():
        raise ArithmeticError("barycentric matrices are not exact halves")
    return twice / 2.0


#: (24, 4, 4) float matrices of exact halves:
#: barycentric = mat @ (2*ux, 2*uy, 2*uz, 1).
BARYCENTRIC_MATRICES = _build_barycentric_matrices()

#: (24, 3, 4) float: row a = barycentric direction of unit vector e_a
#: (grid units) within tetrahedron t, i.e. 2 * column a of the matrix.
AXIS_DIRECTIONS = 2.0 * BARYCENTRIC_MATRICES[:, :, :3].transpose(0, 2, 1)

_LOCATE_TOL = 1e-12


#: (6, 4) rows on (2u, 1) of the six diagonal planes d_a - d_b and
#: d_a + d_b, d = 2u - 1, for the axis pairs (x, y), (x, z), (y, z)
_PLANE_ROWS = np.array([[1, -1, 0, 0], [1, 1, 0, -2], [1, 0, -1, 0],
                        [1, 0, 1, -2], [0, 1, -1, 0], [0, 1, 1, -2]], float)


def _plane_values(hom):
    """(6, n) values of `_PLANE_ROWS` at homogeneous doubled coordinates,
    summed in the pairing (p0 + p2) + (p1 + p3) that np.einsum uses for a
    barycentric row, so each barycentric plane row gives exactly s * P_k."""
    x, y, z = hom[:, 0], hom[:, 1], hom[:, 2]
    y2 = y - 2.0
    with np.errstate(invalid="ignore"):  # inf - inf for non-finite points
        return np.stack([x - y, x + y2, x - z, (x + z) - 2.0, y - z, z + y2])


def _band_containment():
    """(5**6, 24) bool: the tetrahedra passing the tie test in the cube, per
    band pattern sum_k band_k * 5**(5 - k) (see the module notes)."""
    inside = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])  # one value per band / tol
    contains = np.ones((24,) + (5,) * 6, dtype=bool)
    for r, row in enumerate(BARYCENTRIC_MATRICES.reshape(96, 4)):
        axes = np.flatnonzero(row[:3])
        if len(axes) == 2:  # else a face row, passed everywhere in the cube
            s = row[axes[0]]
            k = np.flatnonzero((row == s * _PLANE_ROWS).all(axis=1))[0]
            shape = [1] * 6
            shape[k] = 5
            contains[r // 4] &= (s * inside >= -1.0).reshape(shape)
    return contains.reshape(24, -1).T


#: first containing tetrahedron of each band pattern
_TET_OF_BANDS = _band_containment().argmax(axis=1)
_BAND_WEIGHTS = 5 ** np.arange(5, -1, -1)


def tetrahedra_of_cube(cube, grid):
    """Vertex coordinates of the 24 tetrahedra of one cube.

    Parameters
    ----------
    cube : length-3 sequence of int
        0-based cube index per axis.
    grid : DomainGrid

    Returns
    -------
    (24, 4, 3) ndarray of physical coordinates.
    """
    cube = np.asarray(cube, dtype=np.int64)
    if cube.shape != (3,):
        raise ValueError("cube must be a 3-index")
    if np.any(cube < 0) or np.any(cube >= grid.m):
        raise IndexError(f"cube index {tuple(cube)} outside grid {grid.m}")
    return (TET_VERTICES_UNIT + cube) * grid.h


def _first_containing_tet(hom):
    """The tie rule applied literally: test all 24 candidates per point.

    `hom` holds homogeneous doubled coordinates (2u, 1).  Returns the first
    tetrahedron in canonical order whose barycentrics are all >= -tol, or
    the best fit if roundoff pushed every candidate slightly negative.
    """
    bary_all = np.einsum('tij,nj->nti', BARYCENTRIC_MATRICES, hom)
    # pairwise minima: exactly min(axis=2), without a slow short-axis reduce
    minc = np.minimum(np.minimum(bary_all[..., 0], bary_all[..., 1]),
                      np.minimum(bary_all[..., 2], bary_all[..., 3]))
    inside = minc >= -_LOCATE_TOL
    tet = np.where(inside.any(axis=1), inside.argmax(axis=1),
                   minc.argmax(axis=1))
    return tet, bary_all[np.arange(len(hom)), tet]


def locate_unit(local):
    """Locate points of the closed unit cube in the 24-tetrahedron split.

    One rule serves the whole cube, within tolerance: the bands of the six
    plane values index the table of first containing tetrahedra, and one
    4x4 matrix gives the barycentric coordinates (see the module notes).
    Points outside the cube beyond tolerance, and non-finite points, may lie
    in no tetrahedron; only they test all 24 candidates, for the best fit.

    Parameters
    ----------
    local : (n, 3) array
        Coordinates in [0, 1]^3 (slight excursions tolerated).

    Returns
    -------
    tet : (n,) intp
        First tetrahedron in canonical order containing each point, with
        every barycentric coordinate >= -1e-12 (best fit if none).
    bary : (n, 4) float64
        Barycentric coordinates with respect to that tetrahedron.
    """
    local = np.asarray(local, dtype=np.float64)
    hom = np.empty((local.shape[0], 4))
    hom[:, :3] = 2.0 * local
    hom[:, 3] = 1.0
    planes = _plane_values(hom)
    # bands: P < -2 tol, P < -tol, |P| <= tol, P <= 2 tol, P > 2 tol
    band = ((planes >= -2 * _LOCATE_TOL).view(np.int8)
            + (planes >= -_LOCATE_TOL).view(np.int8)
            + (planes > _LOCATE_TOL).view(np.int8)
            + (planes > 2 * _LOCATE_TOL).view(np.int8))
    tet = _TET_OF_BANDS[_BAND_WEIGHTS @ band]
    bary = np.einsum('nij,nj->ni', BARYCENTRIC_MATRICES[tet], hom)
    # the cube-face rows are 2u_a and 2 - 2u_a; NaN fails both tests
    x, y, z = hom[:, 0], hom[:, 1], hom[:, 2]
    outside = ~((np.minimum(np.minimum(x, y), z) >= -_LOCATE_TOL)
                & (2.0 - np.maximum(np.maximum(x, y), z) >= -_LOCATE_TOL))
    if outside.any():
        tet[outside], bary[outside] = _first_containing_tet(hom[outside])
    return tet, bary


def locate(points, grid):
    """Point location in the type-6 partition of the grid.

    Ties on shared faces/knot planes resolve to the lexicographically
    smallest (cube, tet) pair: cube index by clamp(ceil(u)-1) per axis, then
    the first containing tetrahedron in canonical order.

    Parameters
    ----------
    points : (n, 3) or (3,) array_like
        Physical points inside Omega.
    grid : DomainGrid

    Returns
    -------
    cube : (n, 3) int64 array
    tet : (n,) intp array
    bary : (n, 4) float64 array

    Raises
    ------
    ValueError
        If any point is not finite or lies outside Omega (beyond roundoff
        tolerance).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts).all(axis=1)][0]
        raise ValueError(f"point {tuple(bad.tolist())} is not finite")
    u = pts / grid.h
    m = np.array(grid.m, dtype=np.float64)
    tol = _LOCATE_TOL * max(1.0, float(m.max()))
    if np.any(u < -tol) or np.any(u > m + tol):
        bad = pts[np.any((u < -tol) | (u > m + tol), axis=1)][0]
        raise ValueError(f"point {tuple(bad.tolist())} outside the domain")
    cube = np.ceil(u).astype(np.int64) - 1
    np.maximum(cube, 0, out=cube)
    np.minimum(cube, np.array(grid.m) - 1, out=cube)
    tet, bary = locate_unit(u - cube)
    return cube, tet, bary
