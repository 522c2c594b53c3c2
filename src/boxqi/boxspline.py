"""The seven-direction quartic box spline and its Bernstein-Bezier table.

The box spline B(.|X) is defined by the direction set

    X = {(1,0,0), (0,1,0), (0,0,1), (1,1,1), (-1,1,1), (1,-1,1), (-1,-1,1)},

a piecewise quartic of smoothness C^2 whose pieces live on the type-6
tetrahedral partition of the integer grid.  Its support is the truncated
rhombic dodecahedron centered at (1/2, 1/2, 5/2), contained in the box
[-2,3] x [-2,3] x [0,5] (125 unit cubes).

Two independent evaluation routes are provided:

* ``eval_oracle`` - the de Boor recurrence down to the base case
  B(.|{e1,e2,e3}) = indicator of the half-open unit cube.  Slow but
  self-contained; only valid off the knot planes.
* ``BoxSplineTable`` - per-tetrahedron quartic BB coefficients obtained by
  sampling the oracle at 35 unisolvent points per tetrahedron (domain points
  shrunk toward the centroid so no sample hits a knot plane, which the
  build proves on the samples' integer barycentric numerators) and solving
  the Bernstein interpolation system once.  The coefficients snap to exact
  rationals, kept as int64 numerators over one common denominator (1536),
  and are then verified exactly: partition of unity and linear precision on
  every build and load, all C^0/C^1/C^2 face conditions on request
  (`BoxSplineTable.verify_smoothness_exact`, on the numerators as Python
  integers; it reads the barycentric maps of
  `geometry.BARYCENTRIC_MATRICES`, whose entries are exact halves checked
  at import).

Scaled translates on a grid follow  B_a(x, y, z) =
B(x/h - i + 1, y/h - j + 1, z/h - k + 3)  for a = (i, j, k), with support
center C_a = ((i - 1/2) h, (j - 1/2) h, (k - 1/2) h).

The exact table ships with the package (``boxspline_table.npz``, the same
numerators and denominator) and `get_table` loads it, re-verifying partition
of unity and linear precision in integer arithmetic.  Regenerate it from the
oracle (several seconds) with::

    from boxqi.boxspline import BoxSplineTable
    BoxSplineTable.build().save("src/boxqi/boxspline_table.npz")
"""

from __future__ import annotations

import math
from fractions import Fraction
from importlib import resources
from numbers import Integral

import numpy as np

from . import bernstein, geometry
from .bernstein import MULTI_INDICES_4
from .geometry import BARYCENTRIC_MATRICES, TET_VERTICES_UNIT_2X

__all__ = [
    "DIRECTIONS", "SUPPORT_LO", "SUPPORT_HI", "SUPPORT_CENTER",
    "eval_oracle", "BoxSplineTable", "get_table",
    "TRANSLATE_OFFSET", "derivative_order",
]

#: The seven direction vectors, rows e1..e7.
DIRECTIONS = np.array([
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (-1, 1, 1),
    (1, -1, 1),
    (-1, -1, 1),
], dtype=np.int64)

#: Support box corners (the zonotope sum of [0, e_i] lies inside this box).
SUPPORT_LO = np.array([-2, -2, 0], dtype=np.int64)
SUPPORT_HI = np.array([3, 3, 5], dtype=np.int64)

#: Center of the support, sum(e_i)/2.
SUPPORT_CENTER = np.array([0.5, 0.5, 2.5])

#: B_a(x) = B(x/h - a + TRANSLATE_OFFSET).
TRANSLATE_OFFSET = np.array([1, 1, 3], dtype=np.int64)

_FULL_MASK = (1 << 7) - 1
_ORACLE_CHUNK = 8192
_EVAL_BLOCK = 4096  # points per pass of `BoxSplineTable.eval`

# ---------------------------------------------------------------------------
# de Boor recurrence oracle
# ---------------------------------------------------------------------------

# Per-mask linear algebra, built lazily: for spanning 3-masks the inverse of
# the direction triple; for larger masks the pseudo-inverse giving the
# minimum-norm representation x = sum t_i e_i.
_MASK_CACHE = {}


def _mask_data(mask):
    data = _MASK_CACHE.get(mask)
    if data is None:
        dirs = [i for i in range(7) if mask >> i & 1]
        X = DIRECTIONS[dirs].astype(np.float64)
        if len(dirs) == 3:
            det = round(float(np.linalg.det(X)))
            inv = np.linalg.inv(X.T) if det != 0 else None
            data = (dirs, det, inv)
        else:
            # rows of P give t = P @ x with minimum norm
            P = np.linalg.pinv(X.T)
            data = (dirs, None, P)
        _MASK_CACHE[mask] = data
    return data


def _oracle_chunk(pts):
    """Recurrence evaluation for one chunk of points, (n, 3) float."""
    memo = {}

    def rec(mask, shift):
        key = (mask, shift)
        val = memo.get(key)
        if val is not None:
            return val
        dirs, det, lin = _mask_data(mask)
        x = pts - np.asarray(shift, dtype=np.float64)
        if len(dirs) == 3:
            if det == 0:
                # degenerate triple: a distribution supported on a plane,
                # identically zero off it (callers stay off knot planes)
                val = np.zeros(len(pts))
            else:
                t = x @ lin.T
                inside = np.all((t >= 0.0) & (t < 1.0), axis=1)
                val = inside / abs(det)
        else:
            t = x @ lin.T
            acc = np.zeros(len(pts))
            for col, j in enumerate(dirs):
                sub = mask & ~(1 << j)
                ej = DIRECTIONS[j]
                b_here = rec(sub, shift)
                b_shift = rec(sub, (shift[0] + ej[0], shift[1] + ej[1],
                                    shift[2] + ej[2]))
                acc += t[:, col] * b_here + (1.0 - t[:, col]) * b_shift
            val = acc / (len(dirs) - 3)
        memo[key] = val
        return val

    return rec(_FULL_MASK, (0, 0, 0))


def eval_oracle(points):
    """Box-spline values by the de Boor recurrence.

    Parameters
    ----------
    points : (n, 3) or (3,) array_like
        Evaluation points, assumed off the knot planes (integer planes of
        x, y, z and x+-y, x+-z, y+-z); on a knot plane the returned value is
        one of the one-sided limits.

    Returns
    -------
    (n,) ndarray (or scalar for a single point), accurate to ~1e-12.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    scalar = np.asarray(points).ndim == 1
    out = np.empty(len(pts))
    for start in range(0, len(pts), _ORACLE_CHUNK):
        stop = min(start + _ORACLE_CHUNK, len(pts))
        out[start:stop] = _oracle_chunk(pts[start:stop])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# BB table construction
# ---------------------------------------------------------------------------

#: Shrink factor pulling domain points toward the patch centroid before
#: sampling the oracle; 83/100 leaves every sample strictly off the knot
#: planes (checked exactly at build time).
SHRINK_NUM, SHRINK_DEN = 83, 100

TABLE_VERSION = 2

#: File name of the packaged exact table.
PACKAGED_TABLE = "boxspline_table.npz"

_N_CUBES = 125  # 5 x 5 x 5 support cubes


def support_cubes():
    """The 125 cube offsets of the support box, lexicographic order."""
    return [(i, j, k)
            for i in range(-2, 3) for j in range(-2, 3) for k in range(0, 5)]


_CUBE_INDEX = {c: n for n, c in enumerate(support_cubes())}


def derivative_order(gamma) -> tuple[int, int, int]:
    """``gamma`` as a 3-tuple of ints with |gamma| <= 3.

    Entries must be non-bool ``Integral`` values: ``(0.5, 0, 0)`` or
    ``(True, 0, 0)`` raise one ``ValueError`` instead of truncating.
    """
    gamma = tuple(gamma)
    if (len(gamma) != 3
            or not all(isinstance(g, Integral) and not isinstance(g, bool)
                       for g in gamma)
            or min(gamma) < 0 or sum(gamma) > 3):
        raise ValueError("gamma must be 3 nonnegative ints, |gamma|<=3")
    return tuple(int(g) for g in gamma)


def _shrunk_numerators():
    """Barycentric coordinates of the 35 shrunk sample points times
    4 SHRINK_DEN, as integers: 1/4 + s (nu/4 - 1/4) with s = SHRINK_NUM /
    SHRINK_DEN is (SHRINK_DEN + SHRINK_NUM (nu - 1)) / (4 SHRINK_DEN)."""
    return SHRINK_DEN + SHRINK_NUM * (np.array(MULTI_INDICES_4) - 1)


#: Normals of the nine knot-plane families: x, y, z, x +- y, x +- z, y +- z.
_KNOT_NORMALS = np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                          (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                          (0, 1, 1), (0, 1, -1)])


def _assert_samples_off_knot_planes():
    """Exact check: no shrunk sample point lies on any knot plane.

    A sample of tetrahedron t in cube (0, 0, 0) is sum_v lam_v w_v / 2 for
    the doubled vertices w, so 8 SHRINK_DEN times it is an integer vector;
    it lies on a knot plane iff some normal's product with that vector is
    a multiple of 8 SHRINK_DEN.  Integer cube offsets never move a point
    onto or off a plane of these families, so one cube suffices.
    """
    level = np.einsum('pv,tva,ka->tpk', _shrunk_numerators(),
                      TET_VERTICES_UNIT_2X, _KNOT_NORMALS)
    on_plane = np.argwhere(level % (8 * SHRINK_DEN) == 0)
    if len(on_plane):
        raise AssertionError(
            f"shrunk sample on a knot plane (tet {on_plane[0][0]})")


class BoxSplineTable:
    """Per-tetrahedron quartic BB coefficients of B over its support.

    Attributes
    ----------
    numerators : (125, 24, 35) int64
        The exact coefficients times `denominator`; cube offsets ordered by
        `support_cubes()`, tetrahedra by the canonical order of `geometry`,
        multi-indices by `bernstein.MULTI_INDICES_4`.
    denominator : int
        The common denominator of all coefficients (1536).
    coeffs : (125, 24, 35) float64
        ``numerators / denominator``, the BB coefficients in floating point.
    min_coefficient : float
        Smallest BB coefficient (box-spline nonnegativity watch).
    """

    def __init__(self, numerators, denominator):
        # below 2**31 the exact checks' int64 sums cannot overflow
        if not (0 < denominator < 2 ** 31 and -2 ** 31 < numerators.min()
                and numerators.max() < 2 ** 31):
            raise ArithmeticError(
                "table entries out of range for exact int64 checks")
        self.numerators = numerators
        self.denominator = denominator
        self.coeffs = numerators / denominator
        self.min_coefficient = float(self.coeffs.min())

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls):
        """Build the table from the recurrence oracle.

        The exact partition-of-unity and linear-precision checks run on the
        result (integer arithmetic, milliseconds); the C^0/C^1/C^2 face
        conditions are `verify_smoothness_exact`.

        Sampling the oracle dominates; a build takes several seconds, which
        is why `get_table` loads the packaged table instead.
        """
        _assert_samples_off_knot_planes()
        lam_f = _shrunk_numerators() / (4 * SHRINK_DEN)
        M = bernstein.bernstein_basis(lam_f)

        cubes = support_cubes()
        pts = np.empty((_N_CUBES, 24, 35, 3))
        for n, c in enumerate(cubes):
            verts = geometry.TET_VERTICES_UNIT + np.asarray(c, dtype=np.float64)
            pts[n] = np.einsum('pv,tvx->tpx', lam_f, verts)
        values = eval_oracle(pts.reshape(-1, 3)).reshape(_N_CUBES * 24, 35)

        coeffs = np.linalg.solve(M, values.T).T
        # one step of iterative refinement to push the solve error near eps
        resid = coeffs @ M.T - values
        coeffs -= np.linalg.solve(M, resid.T).T
        coeffs = coeffs.reshape(_N_CUBES, 24, 35)

        num, den, snap_err = _rationalize(coeffs)
        if snap_err > 1e-9:
            raise ArithmeticError(
                f"BB coefficients failed to snap to rationals "
                f"(max deviation {snap_err:.3e})")
        common = int(np.lcm.reduce(np.unique(den)))
        table = cls(num * (common // den), common)
        table.verify_partition_of_unity_exact()
        table.verify_linear_precision_exact()
        return table

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """Write the exact table; `load` restores it bit for bit."""
        np.savez_compressed(path, version=TABLE_VERSION,
                            denominator=self.denominator,
                            numerators=self.numerators)

    @classmethod
    def load(cls, path):
        """Read a table written by `save` and verify it exactly.

        Raises
        ------
        ValueError
            If the file has another version or shape, holds entries out of
            range for the integer checks, or fails the exact
            partition-of-unity or linear-precision check.
        """
        with np.load(path) as data:
            if int(data["version"]) != TABLE_VERSION:
                raise ValueError(f"unsupported table version in {path}")
            den = int(data["denominator"])
            numerators = data["numerators"].astype(np.int64)
        if numerators.shape != (_N_CUBES, 24, 35):
            raise ValueError(f"malformed box-spline table in {path}")
        try:
            table = cls(numerators, den)
            table.verify_partition_of_unity_exact()
            table.verify_linear_precision_exact()
        except (AssertionError, ArithmeticError) as exc:
            raise ValueError(f"corrupt box-spline table in {path}: {exc}") \
                from None
        return table

    # -- exact verification --------------------------------------------------

    def verify_partition_of_unity_exact(self):
        """sum over the 125 cube offsets of each patch coefficient == 1.

        Equivalent to sum_{a in Z^3} B(x - a) = 1 by linear independence of
        the Bernstein basis.  Exact: integers over the common denominator.
        """
        bad = np.argwhere(self.numerators.sum(axis=0) != self.denominator)
        if len(bad):
            t, p = bad[0]
            raise AssertionError(
                f"partition of unity violated at tet {t} index {p}")

    def verify_linear_precision_exact(self):
        """sum_a p(a + center) B(x - a) == p(x) for linear p, exactly.

        In BB form: for every tetrahedron patch and multi-index nu,
        sum over cube offsets o of table[o] * p(-o + center) must equal
        p(domain point), the degree-4 BB coefficient of the linear p.
        Scaled by 8 times the common denominator, both sides are integers:
        4 * sum_o numerators[o] * (2 center - 2 o) == denominator *
        sum_v nu_v w_v with w the doubled vertices.
        """
        offsets2 = np.array([1, 1, 5]) - 2 * np.array(support_cubes())
        lhs = 4 * np.einsum('ntp,na->tpa', self.numerators, offsets2)
        rhs = self.denominator * np.einsum(
            'pv,tva->tpa', np.array(MULTI_INDICES_4), TET_VERTICES_UNIT_2X)
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if len(bad):
            t, p = bad[0]
            raise AssertionError(
                f"linear precision violated at tet {t}, "
                f"nu={MULTI_INDICES_4[p]}")

    def verify_smoothness_exact(self):
        """Exact C^0/C^1/C^2 conditions across every face of the support.

        Faces between a support tetrahedron and the outside compare against
        the zero patch (B joins the zero function with C^2 smoothness).
        """
        faces = _face_adjacency()
        patches = self.numerators.tolist()
        zero = [0] * 35
        for face_key, incidences in faces.items():
            if len(incidences) > 2:
                raise AssertionError("non-manifold face in the support mesh")
            (cube_a, tet_a) = incidences[0]
            patch_a = patches[_CUBE_INDEX[cube_a]][tet_a] \
                if cube_a in _CUBE_INDEX else zero
            if len(incidences) == 2:
                (cube_b, tet_b) = incidences[1]
            else:
                cube_b, tet_b = _mirror_neighbor(face_key, cube_a, tet_a)
            patch_b = patches[_CUBE_INDEX[cube_b]][tet_b] \
                if cube_b in _CUBE_INDEX else zero
            if patch_a is zero and patch_b is zero:
                continue
            _check_face_smoothness(cube_a, tet_a, patch_a,
                                   cube_b, tet_b, patch_b)

    # -- evaluation ----------------------------------------------------------

    def eval(self, points):
        """B at arbitrary points (0 outside the support box)."""
        return self.eval_derivative(points, (0, 0, 0))

    def eval_derivative(self, points, gamma):
        """Partial derivative D^gamma B, |gamma| <= 3 (one-sided on faces).

        Points are processed in blocks of `_EVAL_BLOCK`, so the working set
        beyond the (n,) result does not grow with n.
        """
        gamma = derivative_order(gamma)
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        scalar = np.asarray(points).ndim == 1
        out = np.zeros(len(pts))
        for start in range(0, len(pts), _EVAL_BLOCK):
            block = pts[start:start + _EVAL_BLOCK]
            inside = np.all((block >= SUPPORT_LO) & (block < SUPPORT_HI),
                            axis=1)
            if inside.any():
                out[start:start + _EVAL_BLOCK][inside] = self._eval_inside(
                    block[inside], gamma)
        return float(out[0]) if scalar else out

    def _eval_inside(self, pts, gamma):
        cube = np.floor(pts).astype(np.int64)
        np.clip(cube, SUPPORT_LO, SUPPORT_HI - 1, out=cube)
        tet, bary = geometry.locate_unit(pts - cube)
        rel = cube - SUPPORT_LO
        flat_cube = (rel[:, 0] * 5 + rel[:, 1]) * 5 + rel[:, 2]
        patches = self.coeffs[flat_cube, tet]
        degree = 4
        for axis in range(3):
            direction = geometry.AXIS_DIRECTIONS[tet, axis]
            for _ in range(gamma[axis]):
                patches = bernstein.derivative_reduce(patches, direction,
                                                      degree)
                degree -= 1
        return bernstein.eval_bb(patches, bary, degree)


def _rationalize(coeffs):
    """Snap a float coefficient array to rationals, return (num, den, err)."""
    num = np.empty(coeffs.shape, dtype=np.int64)
    den = np.empty(coeffs.shape, dtype=np.int64)
    flat_c = coeffs.ravel()
    flat_n = num.ravel()
    flat_d = den.ravel()
    err = 0.0
    for i, v in enumerate(flat_c):
        f = Fraction(float(v)).limit_denominator(10 ** 7)
        flat_n[i] = f.numerator
        flat_d[i] = f.denominator
        err = max(err, abs(float(f) - float(v)))
    return num, den, err


# -- smoothness machinery ----------------------------------------------------


def _global_vertices(cube, tet):
    """Doubled integer vertex coordinates of (cube, tet) in global coords."""
    off = np.asarray(cube, dtype=np.int64) * 2
    return [tuple(int(v) for v in row) for row in TET_VERTICES_UNIT_2X[tet] + off]


def _face_adjacency():
    """Map frozenset-of-3-vertices -> list of (cube, tet) incidences."""
    faces = {}
    for cube in support_cubes():
        for tet in range(24):
            verts = _global_vertices(cube, tet)
            for drop in range(4):
                key = frozenset(v for i, v in enumerate(verts) if i != drop)
                faces.setdefault(key, []).append((cube, tet))
    return faces


def _mirror_neighbor(face_key, cube, tet):
    """The (cube, tet) on the far side of a support-boundary face.

    The type-6 partition is translation invariant, so the neighbor exists in
    the infinite mesh even when outside the stored 125 cubes; its patch is
    then zero.  Found by locating a probe point just beyond the face.
    """
    verts = np.array(sorted(face_key), dtype=np.float64) / 2.0
    centroid = verts.mean(axis=0)
    own = np.array(_global_vertices(cube, tet), dtype=np.float64) / 2.0
    inward = own.mean(axis=0) - centroid
    probe = centroid - inward * 1e-4
    pcube = np.floor(probe).astype(np.int64)
    tets, _ = geometry.locate_unit((probe - pcube)[None, :])
    return tuple(int(v) for v in pcube), int(tets[0])


def _check_face_smoothness(cube_a, tet_a, patch_a, cube_b, tet_b, patch_b):
    """Exact C^0..C^2 conditions between two patches sharing a face.

    The patches are numerators over one denominator and the barycentric
    coordinates mu of B's apex in A's tetrahedron are halves, so each C^r
    condition is checked times 2^r, in integers: 2^r N_B[nu] ==
    sum_{|delta| = r} multinomial(delta) (2 mu)^delta N_A[base + delta].
    """
    verts_a = _global_vertices(cube_a, tet_a)
    verts_b = _global_vertices(cube_b, tet_b)
    shared = set(verts_a) & set(verts_b)
    if len(shared) != 3:
        raise AssertionError("adjacent tetrahedra do not share a face")
    apex_b = next(i for i, v in enumerate(verts_b) if v not in shared)
    # position map: for each B-vertex slot (not apex_b), the slot in A
    slot_in_a = {i: verts_a.index(v) for i, v in enumerate(verts_b)
                 if i != apex_b}
    local = [v - 2 * c for v, c in zip(verts_b[apex_b], cube_a)] + [1]
    mu2 = [int(v) for v in 2 * BARYCENTRIC_MATRICES[tet_a] @ local]

    pos4 = {nu: i for i, nu in enumerate(MULTI_INDICES_4)}
    for r in range(3):
        terms = [(delta, bernstein.multinomial(delta)
                  * math.prod(m ** d for m, d in zip(mu2, delta)))
                 for delta in _compositions(r)]
        for nu in MULTI_INDICES_4:
            if nu[apex_b] != r:
                continue
            base = [0, 0, 0, 0]
            for slot_b, count in enumerate(nu):
                if slot_b != apex_b:
                    base[slot_in_a[slot_b]] += count
            rhs = sum(weight * patch_a[pos4[tuple(b + d for b, d
                                                  in zip(base, delta))]]
                      for delta, weight in terms)
            if 2 ** r * patch_b[pos4[nu]] != rhs:
                raise AssertionError(
                    f"C^{r} condition violated across face of "
                    f"{cube_a}/{tet_a} and {cube_b}/{tet_b}")


def _compositions(r):
    """All 4-part multi-indices of total degree r."""
    return [nu for nu in bernstein.multi_indices(r)] if r > 0 else [(0, 0, 0, 0)]


# ---------------------------------------------------------------------------
# process-wide table instance
# ---------------------------------------------------------------------------

_TABLE = None


def get_table():
    """The process-wide BB table, loaded from package data on first use."""
    global _TABLE
    if _TABLE is None:
        source = resources.files(__package__).joinpath(PACKAGED_TABLE)
        with source.open("rb") as fh:
            _TABLE = BoxSplineTable.load(fh)
    return _TABLE
