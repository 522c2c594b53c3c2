"""Assembly and evaluation of the quasi-interpolating spline Qf.

``approximate`` turns a complete grid of samples into spline coefficients by
applying the class stencil of every basis index (vectorized over the
products of ``domain.class_runs``, index regions that share one stencil
layout).  ``QISpline`` evaluates values and derivatives straight from the
coefficients: on one tetrahedron of the type-6 partition only 53 of the 125
translates of a cube's 5x5x5 window are nonzero, so each BB patch is a fixed
(53, 35) linear map of 53 gathered coefficients, and the patches of a
derivative or of the gradient are fixed maps too (the gradient's three cubic
patches: (53, 60)).  Points are processed in blocks of ``_EVAL_BLOCK``,
located once per block and sorted by tetrahedron; each tetrahedron's run
fills its rows of one patch array, and one ``einsum`` contracts the whole
block with its Bernstein basis, so an evaluation's working set does not grow
with the call.
``mode="direct"`` sums the basis translates instead and serves as an
independent oracle.  ``compile`` is an optional export of the
per-tetrahedron patches (dense, within ``DEFAULT_COMPILE_BUDGET``) or, above
it, a slab plan; evaluation reads neither.  Assembly, export and evaluation
run their blocks one after another on the calling thread.  Uniform grids
over the domain are walked here alone, in whole evaluation blocks.

Spline file layout (little-endian, version 1):

    bytes 0..3   magic ``b"BQIS"``
    u32          format version (1)
    u32 x 3      m1, m2, m3
    f64          h
    f64 x N      coefficients, C order, shape (m1+4, m2+4, m3+4)

The coefficient array is indexed ``[i+1, j+1, k+1]`` for basis index
(i, j, k) in [-1, m+2]^3; slots outside the active set A hold zeros (those
translates vanish on the domain).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from math import prod
from numbers import Integral

import numpy as np

from . import stencils
from .bernstein import DIMENSION, bernstein_basis, derivative_reduce
from .boxspline import TRANSLATE_OFFSET, get_table
from .domain import class_runs, index_set
from .geometry import AXIS_DIRECTIONS, DomainGrid, locate, locate_unit

__all__ = [
    "QISpline",
    "SizeError",
    "approximate",
    "grid_points",
    "grid_chunks",
    "grid_values",
    "DEFAULT_COMPILE_BUDGET",
]

_NC = DIMENSION[4]  # 35 quartic Bernstein coefficients per tetrahedron

# default ceiling for materialized per-tetrahedron patches: 1 GiB.  Larger
# grids compile to a streamed plan (a slab schedule, no patches).
DEFAULT_COMPILE_BUDGET = 1 << 30

_PATCH_BYTES_PER_CUBE = 24 * _NC * 8  # 6720
_GATHER_CHUNK = 4 << 20  # float64 elements per temporary in bulk gathers
_EVAL_BLOCK = 4096  # points per located, sorted and contracted block
_GRID_CHUNK = 16 * _EVAL_BLOCK  # uniform-grid points per streamed chunk


class SizeError(MemoryError):
    """Raised when a dense compile would exceed its memory budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"dense patch table needs {required} bytes "
            f"(budget {budget}); mode='auto' gives a streamed slab plan")


# ---------------------------------------------------------------------------
# coefficient assembly
# ---------------------------------------------------------------------------

def approximate(samples: np.ndarray, grid: DomainGrid | None = None, *,
                h: float = 1.0) -> "QISpline":
    """Build the quasi-interpolant from a complete sample grid.

    ``samples`` has shape (m1+2, m2+2, m3+2): one value per data point,
    boundary points included.  Each spline coefficient is that index's class
    stencil applied to the samples; the result reproduces cubics and
    satisfies ``|Qf| <= 9.945 max|f|``.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 3:
        raise ValueError("samples must be a 3D array over the data points")
    if grid is None:
        grid = DomainGrid(*(n - 2 for n in samples.shape), h=h)
    grid.require_quasi_interpolation()
    expected = tuple(m + 2 for m in grid.m)
    if samples.shape != expected:
        raise ValueError(
            f"samples shape {samples.shape} does not cover the data point "
            f"set; expected {expected}")
    if not np.isfinite(samples).all():
        raise ValueError("samples contain non-finite values")

    coeffs = np.zeros(tuple(m + 4 for m in grid.m))
    for (lo1, hi1, c1, _), (lo2, hi2, c2, _), (lo3, hi3, c3, _) in product(
            *(class_runs(m) for m in grid.m)):
        if (c1, c2, c3).count(-1) >= 2:
            continue  # inactive corner region: coefficients stay 0
        rep = (lo1, lo2, lo3)
        mapped, w = stencils.functional(rep, grid)
        delta = mapped - np.array(rep)
        a2 = np.arange(lo2, hi2 + 1)
        a3 = np.arange(lo3, hi3 + 1)
        n2, n3, k = len(a2), len(a3), len(w)
        idx2 = (a2[:, None] + delta[:, 1])[None, :, None, :]
        idx3 = (a3[:, None] + delta[:, 2])[None, None, :, :]
        rows = max(1, _GATHER_CHUNK // max(1, n2 * n3 * k))
        for start in range(lo1, hi1 + 1, rows):
            stop = min(start + rows, hi1 + 1)
            a1 = np.arange(start, stop)
            idx1 = (a1[:, None] + delta[:, 0])[:, None, None, :]
            gathered = samples[idx1, idx2, idx3]
            block = gathered @ w
            coeffs[start + 1:stop + 1,
                   lo2 + 1:hi2 + 2, lo3 + 1:hi3 + 2] = block
    coeffs.setflags(write=False)
    return QISpline(grid=grid, coefficients=coeffs)


# ---------------------------------------------------------------------------
# patch machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _patch_matrix() -> np.ndarray:
    """(125, 24*35) map from a 5x5x5 coefficient window to patch coefficients.

    Window slot w in [0,5)^3 holds the coefficient of translate
    alpha = cube + w - 1; its contribution to the cube's patches is the
    basis table entry for local support cube (2, 2, 4) - w.  The table
    orders cubes lexicographically (`boxspline.support_cubes`), so that is
    row 124 - (25 w_x + 5 w_y + w_z): the table read backwards.
    """
    return np.ascontiguousarray(get_table().coeffs[::-1]).reshape(125, -1)


_WINDOW_OFFSETS = (
    np.repeat(np.arange(5), 25),
    np.tile(np.repeat(np.arange(5), 5), 5),
    np.tile(np.arange(5), 25),
)


@lru_cache(maxsize=None)
def _tet_blocks(gammas: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per-tetrahedron maps from window coefficients to derivative patches.

    ``rows[t]`` lists the 53 window slots whose translates are nonzero on
    tetrahedron t; ``blocks[t]`` (53, q*d) maps their coefficients to the
    degree 4-|gamma| BB coefficients (d of them) of D^gamma Qf in grid
    units, for each of the q multi-indices in ``gammas``, side by side.
    """
    matrix = _patch_matrix().reshape(125, 24, _NC)
    rows = np.array([np.flatnonzero(matrix[:, t].any(axis=1))
                     for t in range(24)])
    value = matrix[rows, np.arange(24)[:, None]]  # (24, 53, 35)
    parts = []
    for gamma in gammas:
        coeffs, degree = value, 4
        for axis in range(3):
            for _ in range(gamma[axis]):
                coeffs = derivative_reduce(
                    coeffs, AXIS_DIRECTIONS[:, None, axis], degree)
                degree -= 1
        parts.append(coeffs)
    blocks = np.concatenate(parts, axis=-1)
    blocks.setflags(write=False)  # shared by every caller of the cache
    return rows, blocks


def _windows(coeffs: np.ndarray, cube: np.ndarray) -> np.ndarray:
    """Gather the (n, 125) coefficient windows feeding each cube's patches."""
    return coeffs[cube[:, 0, None] + _WINDOW_OFFSETS[0],
                  cube[:, 1, None] + _WINDOW_OFFSETS[1],
                  cube[:, 2, None] + _WINDOW_OFFSETS[2]]


@dataclass(frozen=True)
class CompiledPatches:
    """Exported per-tetrahedron Bernstein coefficients (dense) or a slab
    plan (streamed); evaluation reads neither."""

    mode: str                      # "dense" | "streamed"
    patches: np.ndarray | None     # dense: (m1, m2, m3, 24, 35)
    slab_rows: int                 # streamed: cube rows of axis 0 per slab

    @property
    def nbytes(self) -> int:
        return 0 if self.patches is None else self.patches.nbytes


# ---------------------------------------------------------------------------
# the spline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QISpline:
    """C^2 quartic spline on the type-6 partition of [0, m1 h] x ... x [0, m3 h]."""

    grid: DomainGrid
    coefficients: np.ndarray
    compiled: CompiledPatches | None = None

    def __post_init__(self):
        expected = tuple(m + 4 for m in self.grid.m)
        if self.coefficients.shape != expected:
            raise ValueError(
                f"coefficient array shape {self.coefficients.shape} does "
                f"not match grid (expected {expected})")
        # `compile` re-runs this through `replace`; checked once, uncompiled
        if self.compiled is None and not np.isfinite(self.coefficients).all():
            raise ValueError("spline coefficients contain non-finite values")

    # -- compilation -------------------------------------------------------

    def compile(self, mode: str = "auto") -> "QISpline":
        """Attach exported patches (dense) or a slab plan (streamed).

        ``mode="dense"`` materializes 24*35 coefficients per cube in
        ``compiled.patches`` and raises :class:`SizeError` above
        ``DEFAULT_COMPILE_BUDGET``; ``"auto"`` picks dense when it fits and
        else a slab schedule within that budget.  Evaluation reads neither.
        """
        budget = DEFAULT_COMPILE_BUDGET
        m1, m2, m3 = self.grid.m
        required = m1 * m2 * m3 * _PATCH_BYTES_PER_CUBE
        if mode not in ("auto", "dense"):
            raise ValueError(f"unknown compile mode {mode!r}")
        if mode == "auto" and required > budget:
            slab_rows = max(1, min(m1, budget // (required // m1)))
            return replace(self, compiled=CompiledPatches(
                "streamed", None, slab_rows))
        if required > budget:
            raise SizeError(required, budget)
        patches = np.empty((m1, m2, m3, 24, _NC))
        flat = patches.reshape(m1 * m2 * m3, 24 * _NC)
        cubes = _all_cubes(self.grid.m)
        matrix = _patch_matrix()
        rows = max(1, _GATHER_CHUNK // (24 * _NC))
        for start in range(0, len(cubes), rows):
            flat[start:start + rows] = _windows(
                self.coefficients, cubes[start:start + rows]) @ matrix
        patches.setflags(write=False)
        return replace(self, compiled=CompiledPatches("dense", patches, m1))

    # -- evaluation --------------------------------------------------------

    def eval(self, points, mode: str = "auto") -> np.ndarray:
        """Spline values at points inside the closed domain.

        ``mode``: "auto" and "compiled" contract gathered coefficients with
        per-tetrahedron blocks; "direct" sums the <=125 basis translates
        covering each point (the independent oracle).
        """
        points, scalar = _as_points(points)
        if mode == "direct":
            values = self._eval_direct(points)
        elif mode in ("auto", "compiled"):
            values = self._evaluate(points, ((0, 0, 0),))[:, 0]
        else:
            raise ValueError(f"unknown eval mode {mode!r}")
        return values[0] if scalar else values

    def eval_derivative(self, points, gamma) -> np.ndarray:
        """Partial derivative D^gamma(Qf), |gamma| <= 3 (exact per patch)."""
        gamma = tuple(gamma)
        if (len(gamma) != 3
                or not all(isinstance(g, Integral) and not isinstance(g, bool)
                           for g in gamma)
                or min(gamma) < 0 or sum(gamma) > 3):
            raise ValueError("gamma must be 3 nonnegative ints, |gamma|<=3")
        gamma = tuple(int(g) for g in gamma)
        points, scalar = _as_points(points)
        values = self._evaluate(points, (gamma,))[:, 0]
        return values[0] if scalar else values

    def gradient(self, points) -> np.ndarray:
        points, scalar = _as_points(points)
        out = self._evaluate(points, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        return out[0] if scalar else out

    def eval_lattice(self, r) -> np.ndarray:
        """Values on the lattice of spacing h / r_a along each axis a.

        ``r`` is a positive integer, or one per axis.  The result has shape
        (r1 m1 + 1, r2 m2 + 1, r3 m3 + 1); entry (j1, j2, j3) is the value
        at (j1 h / r1, j2 h / r2, j3 h / r3).  Lattice planes go to cubes by
        `locate`'s rule, cube clamp(ceil(u) - 1), so every cube holds the
        local offsets k / r_a, k = 1..r_a, and cube 0 also the plane
        u_a = 0; each point uses the patch `eval` would use.  One offset is
        one 53-tap kernel, ``blocks[t] @ bernstein_basis(bary)``, applied to
        shifted slices of the coefficient array: no point is located,
        gathered or sorted.
        """
        r = (r,) * 3 if np.ndim(r) == 0 else tuple(r)
        if len(r) != 3 or not all(isinstance(x, Integral)
                                  and not isinstance(x, bool) and x >= 1
                                  for x in r):
            raise ValueError(
                f"lattice factors must be positive integers, got {r!r}")
        rows, blocks = _tet_blocks(((0, 0, 0),))
        offsets = list(np.ndindex(*(x + 1 for x in r)))
        tet, bary = locate_unit(np.array(offsets) / np.array(r))
        kernels = np.einsum("nsj,nj->ns", blocks[tet], bernstein_basis(bary))
        taps = np.stack(_WINDOW_OFFSETS, axis=1)[rows[tet]]  # (n, 53, 3)
        m = self.grid.m
        out = np.empty(tuple(x * n + 1 for x, n in zip(r, m)))
        for k, kernel, tap in zip(offsets, kernels, taps):
            size = [n if ka else 1 for ka, n in zip(k, m)]
            acc = np.zeros(size)
            for weight, (a, b, c) in zip(kernel, tap):
                acc += weight * self.coefficients[a:a + size[0],
                                                  b:b + size[1],
                                                  c:c + size[2]]
            out[tuple(slice(ka, None, x) if ka else slice(0, 1)
                      for ka, x in zip(k, r))] = acc
        return out

    # direct translate summation
    def _eval_direct(self, points: np.ndarray) -> np.ndarray:
        table = get_table()
        grid = self.grid
        u = points / grid.h
        cube, _, _ = locate(points, grid)
        values = np.zeros(len(points))
        shift = np.array(TRANSLATE_OFFSET, dtype=np.float64)
        for ox in range(-1, 4):
            for oy in range(-1, 4):
                for oz in range(-1, 4):
                    alpha = cube + (ox, oy, oz)
                    local = u - alpha + shift
                    coeff = self.coefficients[alpha[:, 0] + 1,
                                              alpha[:, 1] + 1,
                                              alpha[:, 2] + 1]
                    values += coeff * table.eval(local)
        return values

    def _evaluate(self, points: np.ndarray, gammas: tuple) -> np.ndarray:
        """(n, q) values of D^gamma Qf for the q multi-indices ``gammas``,
        all of one order, block by block of ``_EVAL_BLOCK`` points.

        A block is located once and sorted by tetrahedron.  Each
        tetrahedron's run of points gathers its 53 window coefficients and
        maps them by ``blocks[t]`` into its rows of one (block, q*d) patch
        array; one ``einsum`` then contracts every patch with the block's
        Bernstein basis.  ``locate`` and ``bernstein_basis`` are called
        through this module's globals, which the benchmark's tracer wraps.
        """
        order = sum(gammas[0])
        degree = 4 - order
        rows, blocks = _tet_blocks(gammas)
        flat = np.ravel(self.coefficients)
        _, m2, m3 = self.coefficients.shape
        offsets = ((_WINDOW_OFFSETS[0] * m2 + _WINDOW_OFFSETS[1]) * m3
                   + _WINDOW_OFFSETS[2])[rows]
        out = np.empty((len(points), len(gammas)))
        patches = np.empty((min(len(points), _EVAL_BLOCK), blocks.shape[-1]))
        for start in range(0, len(points), _EVAL_BLOCK):
            cube, tet, bary = locate(points[start:start + _EVAL_BLOCK],
                                     self.grid)
            perm = np.argsort(tet.astype(np.uint8), kind="stable")
            tet, cube = tet[perm], cube[perm]
            base = (cube[:, 0] * m2 + cube[:, 1]) * m3 + cube[:, 2]
            basis = bernstein_basis(bary[perm], degree)
            patch = patches[:len(perm)]
            edges = np.flatnonzero(np.diff(tet)) + 1
            for lo, hi in zip([0, *edges], [*edges, len(tet)]):
                t = tet[lo]
                np.matmul(flat.take(base[lo:hi, None] + offsets[t]),
                          blocks[t], out=patch[lo:hi])
            values = np.einsum("iqj,ij->iq",
                               patch.reshape(len(perm), len(gammas), -1),
                               basis)
            if order:
                values /= self.grid.h ** order
            out[start:start + _EVAL_BLOCK][perm] = values
        return out

    # -- persistence --------------------------------------------------------

    MAGIC = b"BQIS"
    VERSION = 1

    def save(self, path) -> None:
        """Write the versioned little-endian layout documented above."""
        header = self.MAGIC + struct.pack(
            "<IIIId", self.VERSION, *self.grid.m, self.grid.h)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(
                self.coefficients, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "QISpline":
        with open(path, "rb") as fh:
            blob = fh.read()
        head = len(cls.MAGIC) + struct.calcsize("<IIIId")
        if blob[:len(cls.MAGIC)] != cls.MAGIC:
            raise ValueError("not a spline file (bad magic)")
        if len(blob) < head:
            raise ValueError(f"spline file truncated: {len(blob)} bytes, "
                             f"header alone is {head}")
        version, m1, m2, m3, h = struct.unpack(
            "<IIIId", blob[len(cls.MAGIC):head])
        if version != cls.VERSION:
            raise ValueError(f"unsupported spline file version {version}")
        grid = DomainGrid(m1, m2, m3, h=h)
        shape = tuple(m + 4 for m in grid.m)
        expected = head + prod(shape) * 8
        if len(blob) != expected:
            raise ValueError(
                f"spline file truncated: {len(blob)} bytes, "
                f"expected {expected}")
        coeffs = np.frombuffer(blob[head:], dtype="<f8").reshape(shape)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        coeffs.setflags(write=False)
        return cls(grid=grid, coefficients=coeffs)


# ---------------------------------------------------------------------------
# uniform grids over Omega
# ---------------------------------------------------------------------------

def grid_points(grid: DomainGrid, n: int, ids) -> np.ndarray:
    """The points of flat (C-order) ids ``ids`` on the grid of n points per
    axis over Omega: ``np.linspace(0, m_a h, n)[j_a]`` along each axis a."""
    axes = [np.linspace(0.0, m * grid.h, n) for m in grid.m]
    return np.stack([ax[i] for ax, i in
                     zip(axes, np.unravel_index(ids, (n, n, n)))], axis=-1)


def grid_chunks(grid: DomainGrid, n: int):
    """The n^3 points of `grid_points` in id order, ``_GRID_CHUNK`` at a
    time: whole evaluation blocks, so ``QISpline.eval`` gives every point
    the bits it would give in one whole-grid call."""
    if n < 1:
        raise ValueError(f"evaluation grid needs n >= 1 points per axis, "
                         f"got {n}")
    return (grid_points(grid, n, np.arange(start, min(start + _GRID_CHUNK,
                                                      n ** 3)))
            for start in range(0, n ** 3, _GRID_CHUNK))


def grid_values(spline, n: int) -> np.ndarray:
    """The (n, n, n) values of ``spline`` on the grid of `grid_points`.

    When every m_a divides n - 1 they are read by ``spline.eval_lattice``,
    whose cube rule puts each plane where ``eval`` would; otherwise the
    chunks of `grid_chunks` are evaluated into one preallocated array.
    ``spline`` needs ``grid`` and ``eval``, and ``eval_lattice`` if aligned.
    """
    chunks = grid_chunks(spline.grid, n)
    m = spline.grid.m
    if n > 1 and all((n - 1) % k == 0 for k in m):
        return spline.eval_lattice([(n - 1) // k for k in m])
    out = np.empty(n ** 3)
    for start, points in zip(range(0, n ** 3, _GRID_CHUNK), chunks):
        out[start:start + len(points)] = spline.eval(points)
    return out.reshape(n, n, n)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _as_points(points) -> tuple[np.ndarray, bool]:
    arr = np.asarray(points, dtype=np.float64)
    scalar = arr.ndim == 1
    arr = arr.reshape(1, -1) if scalar else np.ascontiguousarray(arr)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("points must have shape (n, 3) or (3,)")
    return arr, scalar


def _all_cubes(m: tuple[int, int, int]) -> np.ndarray:
    grids = np.meshgrid(*(np.arange(x) for x in m), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def active_mask(grid: DomainGrid) -> np.ndarray:
    """Boolean (m1+4, m2+4, m3+4) mask of the active coefficient slots."""
    return index_set(grid).mask()
