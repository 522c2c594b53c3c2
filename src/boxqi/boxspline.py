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
  every build and load, and all C^0/C^1/C^2 face conditions on every build
  (`BoxSplineTable.verify_smoothness_exact`: one integer matrix per order
  from an integer face-neighbour table built on first use, with the exact
  halves of `geometry.BARYCENTRIC_MATRICES`; a few hundredths of a second).

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

from fractions import Fraction
from functools import lru_cache
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

        The exact partition-of-unity and linear-precision checks and the
        C^0/C^1/C^2 face proof `verify_smoothness_exact` run on the result
        (integer arithmetic, milliseconds), so a rebuilt table is proven
        C^2 before it can be saved.

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
        if snap_err > _SNAP_TOL:
            raise ArithmeticError(
                f"BB coefficients failed to snap to rationals "
                f"(max deviation {snap_err:.3e})")
        table = cls(num, den)
        table.verify_partition_of_unity_exact()
        table.verify_linear_precision_exact()
        table.verify_smoothness_exact()
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

        A = (c, t) meets across its face opposite slot i the patch
        B = (c + offset, t') of `_face_neighbours`; each C^r condition is
        one integer matrix, 2^r N_B[rows] == W @ N_A (`_face_conditions`;
        Lai & Schumaker 2007, ch. 2), checked for all 125 cubes at once on
        the numerators zero-padded to 7^3 cubes, so faces against the
        outside compare with the zero patch.  Orders run outermost, so an
        error names the lowest violated one.
        """
        offset, tet_b, _, _, _ = _face_neighbours()
        padded = np.zeros((7, 7, 7, 24, 35), dtype=np.int64)
        padded[1:6, 1:6, 1:6] = self.numerators.reshape(5, 5, 5, 24, 35)
        cubes = np.array(support_cubes())
        cube_b = cubes[:, None, None] + offset
        where = tuple(np.moveaxis(cube_b - SUPPORT_LO + 1, -1, 0))
        patch_b = padded[where + (tet_b,)]
        for r in range(3):
            rows, W = _face_conditions(r)
            lhs = 2 ** r * np.take_along_axis(patch_b, rows[None], axis=-1)
            rhs = np.einsum('tikp,ctp->ctik', W, self.numerators)
            bad = np.argwhere(lhs != rhs)
            if len(bad):
                c, t, i, _ = bad[0].tolist()
                raise AssertionError(
                    f"C^{r} condition violated across face of "
                    f"{tuple(cubes[c].tolist())}/{t} and "
                    f"{tuple(cube_b[c, t, i].tolist())}/{tet_b[t, i]}")

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


_SNAP_TOL = 1e-9  # largest accepted |coefficient - snapped rational|


def _rationalize(coeffs):
    """Snap a float coefficient array to integers over one common
    denominator; return (numerators, denominator, max deviation).

    All coefficients are rounded to multiples of 1/den at once.  While one
    misses by more than ``_SNAP_TOL``, the first such one alone is snapped
    by `Fraction.limit_denominator` and den becomes the lcm with its
    denominator (at least doubling), so den ends as the lcm of the
    coefficients' own denominators.  A coefficient that snaps to no
    rational, or a den beyond 2**31, ends the search with numerators None.
    """
    flat, den = coeffs.ravel(), 1
    while True:
        num = np.rint(flat * den)
        dev = np.abs(num / den - flat)
        bad = np.flatnonzero(dev > _SNAP_TOL)
        if not len(bad):
            return num.astype(np.int64).reshape(coeffs.shape), den, \
                float(dev.max())
        value = float(flat[bad[0]])
        f = Fraction(value).limit_denominator(10 ** 7)
        den = int(np.lcm(den, f.denominator))
        if abs(float(f) - value) > _SNAP_TOL or den >= 2 ** 31:
            return None, den, float(dev.max())


# -- smoothness across faces -------------------------------------------------


@lru_cache(maxsize=1)
def _face_neighbours():
    """The tetrahedron across face (t, i), opposite slot i of tetrahedron t.

    Read-only arrays indexed [t, i], derived in integers by matching the
    doubled vertices `TET_VERTICES_UNIT_2X` of the cube and its six face
    neighbours: ``offset`` (24, 4, 3), the neighbour's cube offset (+-e_a
    for i = 0, the face on cube face t // 4, else 0); ``tet`` and
    ``apex``, the neighbour t' and its slot j off the face; ``slots``
    (24, 4, 4), the slot of t holding vertex s of t' (i for s = j); and
    ``mu2``, the barycentrics of the apex of t' in t, doubled to integers
    from `geometry.BARYCENTRIC_MATRICES`.
    """
    eye = np.eye(3, dtype=np.int64)
    steps = np.concatenate([0 * eye[:1], eye, -eye])
    verts = TET_VERTICES_UNIT_2X
    # same[t, k, o, u, s]: vertex k of t is vertex s of u in cube steps[o]
    same = (verts[:, :, None, None, None]
            == verts + 2 * steps[:, None, None]).all(axis=-1)
    shared = same.any(axis=-1)
    # the neighbour holds the three vertices of t other than i, but not i
    across = (shared.sum(axis=1) == 3)[:, None] & ~shared
    if not (across.sum(axis=(2, 3)) == 1).all():
        raise AssertionError("a face without exactly one neighbour")
    step, tet = np.divmod(across.reshape(24, 4, -1).argmax(axis=-1), 24)
    match = same[np.arange(24)[:, None], :, step, tet]  # [t, i, k, s]
    apex = (~match.any(axis=2)).argmax(axis=-1)
    slots = match.argmax(axis=2)
    np.put_along_axis(slots, apex[..., None], np.arange(4)[:, None], axis=-1)
    offset = steps[step]
    far = np.ones((24, 4, 4), dtype=np.int64)
    far[..., :3] = verts[tet, apex] + 2 * offset
    twice = (2 * BARYCENTRIC_MATRICES).astype(np.int64)  # exact integers
    table = (offset, tet, apex, slots, np.einsum('tab,tib->tia', twice, far))
    for a in table:
        a.setflags(write=False)
    return table


def _face_conditions(r):
    """The C^r conditions of every face (t, i) as integer rows.

    Returns ``rows`` (24, 4, n) and ``W`` (24, 4, n, 35) with
    2^r N_B[rows] == W @ N_A for the patch N_A of t and N_B of its
    neighbour: the rows are B's multi-indices nu with nu_j = r, and W
    puts multinomial(delta) (2 mu)^delta at base + delta, |delta| = r.
    """
    _, _, _, slots, mu2 = _face_neighbours()
    nus = np.array(MULTI_INDICES_4)
    position = np.zeros((5,) * 4, dtype=np.intp)
    position[tuple(nus.T)] = np.arange(35)
    deltas = np.array(bernstein.multi_indices(r))
    # nu in A's slots with nu_i = r; B's multi-index reads it through slots
    nu_a = np.stack([nus[nus[:, i] == r] for i in range(4)])
    nu_b = np.take_along_axis(nu_a[None], slots[:, :, None], axis=-1)
    base = nu_a * (1 - np.eye(4, dtype=np.int64))[:, None]
    cols = position[tuple(np.moveaxis(base[:, :, None] + deltas, -1, 0))]
    weights = (np.array([bernstein.multinomial(d) for d in deltas])
               * (mu2[:, :, None] ** deltas).prod(axis=-1))
    W = np.zeros((24, 4, len(nu_a[0]), 35), dtype=np.int64)
    np.put_along_axis(W, np.broadcast_to(cols, W.shape[:3] + cols.shape[-1:]),
                      weights[:, :, None], axis=-1)
    return position[tuple(np.moveaxis(nu_b, -1, 0))], W


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
