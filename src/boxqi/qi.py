"""Assembly and evaluation of the quasi-interpolating spline Qf.

Each coefficient is a fixed-weight stencil over the samples, each BB patch
or lattice value one over the coefficients; every such loop reads a cube's
5x5x5 coefficient window (``_WINDOW``, or ``sliding_window_view`` slabs in
``compile``) or runs ``_correlate``, the one slab-wise correlation.
``approximate`` applies the class stencil of every basis index to a
complete sample grid.  It walks the products of ``domain.class_runs``,
boxes of indices that share one stencil layout, and reads each box's taps
from one table keyed by its per-axis run labels; the table holds no grid
size and is built from the labels alone, once per process on the first
call (about 0.02 s), so no index is classified.  A box of at least
``_SLICED_REGION`` coefficients (the interior, and the big face slabs) is
correlated, so beyond the coefficient array it allocates one slab buffer;
a smaller box (corners, edges, small faces) is gathered as (n, k) and
contracted with ``@ w``.
``QISpline`` evaluates values and derivatives straight from the
coefficients: on one tetrahedron of the type-6 partition only 53 of the 125
translates of a cube's window are nonzero, so each BB patch is a fixed
(53, 35) linear map of 53 gathered coefficients.  The 24 tetrahedra are one
under the cube's signed axis permutations g_t, so one map serves them all:
tetrahedron t gathers its coefficients at the slots g_t(w) of tetrahedron
0's slots w and applies tetrahedron 0's map.  A derivative's map covers the
axis permutations of its multi-indices (the gradient's three cubic patches:
(53, 60)), is taken exactly on the table's integers and rounded once, and
each tetrahedron picks its column and sign.  Points are processed in blocks
of ``_EVAL_BLOCK``, in point order, each located once and given its
Bernstein basis, then gathered, multiplied and contracted by one ``take``,
one product and one ``einsum`` per cache-sized run, so an evaluation's
working set does not grow with the call.  On an aligned
lattice (``eval_lattice``) each local offset is one 53-tap kernel,
correlated into one contiguous block.
``mode="direct"`` sums the basis translates instead and serves as an
independent oracle.  ``compile`` is an optional export of the
per-tetrahedron patches (dense, within ``DEFAULT_COMPILE_BUDGET``) or, above
it, a slab plan; evaluation reads neither.  Uniform grids over the domain
are walked here alone, in whole evaluation blocks.

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

import os
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from numbers import Integral

import numpy as np

from . import stencils
from .bernstein import DIMENSION, bernstein_basis, derivative_reduce
from .boxspline import TRANSLATE_OFFSET, derivative_order, get_table
from .domain import class_runs, label_class
from .geometry import (AXIS_DIRECTIONS, SYMMETRY_PERM, SYMMETRY_SIGN,
                       DomainGrid, locate, locate_unit)

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
_GATHER_CHUNK = 1 << 20  # float64 elements per window slab in `compile`
# Assembly method by region size.  Slicing pays two ufunc calls per tap
# and slab, gathering pays more per element, so a box of at least this
# many coefficients is sliced.  For a 20-tap face stencil slicing took
# 1.3-1.5x the gather at 512 coefficients and 0.67-0.86x at 1536; this is
# the break-even.  m = 32 keeps its 625-coefficient faces gathered, m = 64
# slices its 3249-coefficient faces, and every gathered temporary stays
# under 1024 x 23 elements.
_SLICED_REGION = 1024
# float64 elements per cache-sized slab (256 KiB): of `_correlate`'s output,
# and of the coefficients `_evaluate` gathers at a time
_SLAB = 1 << 15
_EVAL_BLOCK = 4096  # points per located and contracted block
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

    Each box of indices with one stencil layout takes its tap offsets and
    weights from ``_region_table`` (built by the first call in a process)
    and is assembled at once: by shifted slices (``_correlate``) if it
    holds at least ``_SLICED_REGION`` coefficients, else by one gather and
    ``@ w``.  The two sum the taps in different orders, so they agree to a
    few ulps, not bit for bit.  Memory beyond the result is one slab buffer
    or one small gathered array.
    """
    samples = np.ascontiguousarray(_real(np.asarray(samples), "samples"),
                                   dtype=np.float64)
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
    if not _finite(samples):
        raise ValueError("samples contain non-finite values")

    table = _region_table()
    coeffs = np.zeros(tuple(m + 4 for m in grid.m))
    # each run's label and indices, shaped to broadcast over a gathered box
    axes = [[(lo, hi, (c, flip), np.arange(lo, hi + 1).reshape(shape))
             for lo, hi, c, flip in class_runs(m)]
            for m, shape in zip(grid.m, ((-1, 1, 1, 1), (-1, 1, 1), (-1, 1)))]
    for (lo1, hi1, l1, i1), (lo2, hi2, l2, i2), (lo3, hi3, l3, i3) in product(
            *axes):
        taps = table.get((l1, l2, l3))
        if taps is None:
            continue  # inactive corner region: coefficients stay 0
        delta, w = taps
        out = coeffs[lo1 + 1:hi1 + 2, lo2 + 1:hi2 + 2, lo3 + 1:hi3 + 2]
        if out.size >= _SLICED_REGION:
            _correlate(samples, delta + (lo1, lo2, lo3), w, out)
        else:
            d1, d2, d3 = delta.T
            out[...] = samples[i1 + d1, i2 + d2, i3 + d3] @ w
    coeffs.setflags(write=False)
    return QISpline(grid=grid, coefficients=coeffs)


@lru_cache(maxsize=1)
def _region_table() -> dict:
    """The taps of every region label, shared by all grids.

    A region is a product of `domain.class_runs`, keyed by its three runs'
    (class, reflection) labels.  Its value is (offsets, w): the data
    indices read by the region's first index minus that index, as
    read-only int64 (k, 3) in tap order, and the class stencil's shared
    weights.  A run's first index has exactly its label's class and flag,
    so `domain.label_class` of the labels gives the stencil and its
    transform, and `SymmetryTransform.offsets` the taps, which hold no grid
    size.  The labels are those of m = 11, where every label occurs;
    inactive corner labels are left out.  The build takes about 0.02 s.
    """
    lib = stencils.library()
    table = {}
    for runs in product(class_runs(11), repeat=3):
        labels = tuple(run[2:] for run in runs)
        classes, flips = zip(*labels)
        if classes.count(-1) >= 2:
            continue
        key, transform = label_class(classes, flips)
        idx, w = lib[key].arrays
        offsets = transform.offsets(idx - key)
        offsets.setflags(write=False)
        table[labels] = (offsets, w)
    return table


def _finite(a: np.ndarray) -> bool:
    """Whether ``a`` holds no NaN or infinity.  Its min and max propagate
    NaN and reach any infinity, with no boolean mask the size of ``a``."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _correlate(src, taps, w, out):
    """Correlate ``src`` with k taps into ``out``, in tap order:
    ``out[i] = sum_t w[t] src[i + taps[t]]`` for (k, 3) offsets ``taps``.

    ``out`` is walked in slabs of whole axis-0 rows, about ``_SLAB``
    elements each: the first tap writes the slab of ``out``, and every
    later tap is multiplied into one reused buffer and added in place.
    """
    n1, n2, n3 = out.shape
    rows = max(1, _SLAB // (n2 * n3))
    buf = np.empty((min(rows, n1), n2, n3))
    taps = taps.tolist()
    for start in range(0, n1, rows):
        dst = out[start:start + rows]
        tmp = buf[:len(dst)]
        for t, ((d1, d2, d3), wt) in enumerate(zip(taps, w)):
            part = src[d1 + start:d1 + start + len(dst),
                       d2:d2 + n2, d3:d3 + n3]
            if t == 0:
                np.multiply(part, wt, out=dst)
            else:
                np.multiply(part, wt, out=tmp)
                dst += tmp


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


# slot w of a cube's 5x5x5 coefficient window, in C order: (125, 3)
_WINDOW = np.array(list(np.ndindex(5, 5, 5)))


@lru_cache(maxsize=None)
def _tet_blocks(gammas: tuple) -> tuple:
    """Maps from window coefficients to the derivative patches of every
    tetrahedron, through tetrahedron 0 and the symmetries g_t.

    Window slot w of tetrahedron 0 contributes to its patch exactly what
    slot g_t(w) contributes to tetrahedron t's (about the window centre
    2), so ``slots[t]`` (24, 53) lists g_t of tetrahedron 0's 53 nonzero
    slots, and ``block`` (53, Q*d) maps their coefficients to the degree
    4-|gamma| BB coefficients (d of them) of D^gamma' on tetrahedron 0, in
    grid units, for the Q multi-indices gamma' of the orbit of ``gammas``
    under axis permutations, side by side (``gammas`` first).  As
    g_t takes axis i to axis perm[i] with sign s_i, D^gamma on t is
    ``sign[t, k] * D^gamma'`` with gamma'_i = gamma_perm[i] and sign
    prod_i s_i^gamma'_i, read from column ``pick[t, k]`` for ``gammas[k]``.
    The derivatives are taken on the table's integer numerators, exactly,
    and divided by its denominator once, so every entry is correctly
    rounded (for gamma = 0 it is `_patch_matrix`'s, bit for bit).
    """
    table = get_table()
    numerators = table.numerators[::-1].reshape(125, 24, _NC)[:, 0]
    rows = np.flatnonzero(numerators.any(axis=1))
    perm, signs = SYMMETRY_PERM[:, None], SYMMETRY_SIGN[:, None]
    mapped = np.empty((24, len(rows), 3), dtype=np.intp)
    np.put_along_axis(mapped, perm, signs * (_WINDOW[rows] - 2) + 2, axis=2)
    slots = mapped @ (25, 5, 1)
    primed = np.take_along_axis(np.array(gammas)[None], perm, axis=2)
    orbit = list(dict.fromkeys(map(tuple, primed.reshape(-1, 3).tolist())))
    pick = np.array([[orbit.index(tuple(g)) for g in tet]
                     for tet in primed.tolist()])
    sign = np.prod(signs.astype(np.float64) ** primed, axis=2)
    parts = []
    for gamma in orbit:
        coeffs, degree = numerators[rows].astype(np.float64), 4
        for axis in range(3):
            for _ in range(gamma[axis]):
                coeffs = derivative_reduce(coeffs, AXIS_DIRECTIONS[0, axis],
                                           degree)
                degree -= 1
        parts.append(coeffs / table.denominator)
    block = np.concatenate(parts, axis=-1)
    for a in (slots, block, pick, sign):
        a.setflags(write=False)  # shared by every caller of the cache
    return slots, block, pick, sign


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
        c = _real(self.coefficients, "spline coefficients")
        expected = tuple(m + 4 for m in self.grid.m)
        if c.shape != expected:
            raise ValueError(
                f"coefficient array shape {c.shape} does "
                f"not match grid (expected {expected})")
        # `compile` re-runs this through `replace`; checked once, uncompiled
        if self.compiled is None and not _finite(c):
            raise ValueError("spline coefficients contain non-finite values")

    # -- compilation -------------------------------------------------------

    def compile(self, mode: str = "auto") -> "QISpline":
        """Attach exported patches (dense) or a slab plan (streamed).

        ``mode="dense"`` fills 24*35 coefficients per cube of
        ``compiled.patches``, one slab of axis-0 cube rows (about
        ``_GATHER_CHUNK`` elements of a ``sliding_window_view``) times
        ``_patch_matrix()`` at a time, and raises :class:`SizeError` above
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
        windows = np.lib.stride_tricks.sliding_window_view(
            self.coefficients, (5, 5, 5))
        matrix = _patch_matrix()
        plane = m2 * m3
        rows = max(1, _GATHER_CHUNK // (plane * 125))
        for start in range(0, m1, rows):  # an unnamed slab is freed at once
            np.matmul(windows[start:start + rows].reshape(-1, 125), matrix,
                      out=flat[start * plane:(start + rows) * plane])
        patches.setflags(write=False)
        return replace(self, compiled=CompiledPatches("dense", patches, m1))

    # -- evaluation --------------------------------------------------------

    def eval(self, points, mode: str = "auto") -> np.ndarray:
        """Spline values at points inside the closed domain.

        ``mode``: "auto" and "compiled" contract gathered coefficients with
        tetrahedron 0's map; "direct" sums the <=125 basis translates
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
        gamma = derivative_order(gamma)
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
        one 53-tap kernel, tetrahedron 0's map times its Bernstein basis on
        the slots g_t(w) of its tetrahedron t, sorted into window order.
        ``_correlate`` applies its nonzero taps (32 at a cube's corner
        offset) into one contiguous block, then copied into the result: no
        point is located or gathered.
        """
        r = (r,) * 3 if np.ndim(r) == 0 else tuple(r)
        if len(r) != 3 or not all(isinstance(x, Integral)
                                  and not isinstance(x, bool) and x >= 1
                                  for x in r):
            raise ValueError(
                f"lattice factors must be positive integers, got {r!r}")
        slots, block, _, _ = _tet_blocks(((0, 0, 0),))
        offsets = list(np.ndindex(*(x + 1 for x in r)))
        tet, bary = locate_unit(np.array(offsets) / np.array(r))
        kernels = np.einsum("sj,nj->ns", block, bernstein_basis(bary))
        order = np.argsort(slots[tet], axis=1)  # taps in window order
        kernels = np.take_along_axis(kernels, order, axis=1)
        taps = _WINDOW[np.take_along_axis(slots[tet], order, axis=1)]
        m = self.grid.m
        out = np.empty(tuple(x * n + 1 for x, n in zip(r, m)))
        buf = np.empty(m[0] * m[1] * m[2])  # every offset's block, reused
        for k, kernel, tap in zip(offsets, kernels, taps):
            size = [n if ka else 1 for ka, n in zip(k, m)]
            block = buf[:size[0] * size[1] * size[2]].reshape(size)
            nonzero = kernel != 0
            _correlate(self.coefficients, tap[nonzero], kernel[nonzero],
                       block)
            out[tuple(slice(ka, None, x) if ka else slice(0, 1)
                      for ka, x in zip(k, r))] = block
        return out

    # direct translate summation
    def _eval_direct(self, points: np.ndarray) -> np.ndarray:
        table = get_table()
        grid = self.grid
        u = points / grid.h
        cube, _, _ = locate(points, grid)
        values = np.zeros(len(points))
        for offset in _WINDOW - 1:
            alpha = cube + offset
            coeff = self.coefficients[tuple((alpha + 1).T)]
            values += coeff * table.eval(u - alpha + TRANSLATE_OFFSET)
        return values

    def _evaluate(self, points: np.ndarray, gammas: tuple) -> np.ndarray:
        """(n, q) values of D^gamma Qf for the q multi-indices ``gammas``,
        all of one order, block by block of ``_EVAL_BLOCK`` points.

        Every tetrahedron is read as tetrahedron 0 (`_tet_blocks`): a
        block is located once and given its Bernstein basis; then, in runs
        of ``_SLAB // 53`` points (256 KiB of gathered coefficients, so the
        run's arrays stay in cache), each point gathers the 53 coefficients
        of its tetrahedron's slots in one ``take``, one product with the
        canonical block gives all its patches, and one ``einsum``
        contracts them with the basis; a derivative then picks each
        point's column and sign.  ``locate`` and ``bernstein_basis`` are
        called through this module's globals, which the benchmark's tracer
        wraps.
        """
        order = sum(gammas[0])
        degree = 4 - order
        slots, block, pick, sign = _tet_blocks(gammas)
        flat = np.ravel(self.coefficients)
        _, m2, m3 = self.coefficients.shape
        offsets = (_WINDOW @ (m2 * m3, m3, 1))[slots]
        run = _SLAB // slots.shape[1]
        out = np.empty((len(points), len(gammas)))
        for start in range(0, len(points), _EVAL_BLOCK):
            cube, tet, bary = locate(points[start:start + _EVAL_BLOCK],
                                     self.grid)
            base = (cube[:, 0] * m2 + cube[:, 1]) * m3 + cube[:, 2]
            basis = bernstein_basis(bary, degree)
            values = out[start:start + _EVAL_BLOCK]
            for lo in range(0, len(tet), run):
                t = tet[lo:lo + run]
                index = offsets[t]
                index += base[lo:lo + run, None]
                patch = (flat.take(index) @ block).reshape(
                    len(t), -1, DIMENSION[degree])
                part = np.einsum("iqj,ij->iq", patch, basis[lo:lo + run])
                if order:
                    part = np.take_along_axis(part, pick[t], axis=1)
                values[lo:lo + run] = part
            if order:
                values *= sign[tet]
                values /= self.grid.h ** order
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
                self.coefficients, dtype="<f8").data)

    @classmethod
    def load(cls, path) -> "QISpline":
        """Read a spline file.  The body is read straight into an aligned
        array: a view at the 28-byte header offset would be misaligned for
        float64, and every later gather from it would copy."""
        head = len(cls.MAGIC) + struct.calcsize("<IIIId")
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(head)
            if header[:len(cls.MAGIC)] != cls.MAGIC:
                raise ValueError("not a spline file (bad magic)")
            if len(header) < head:
                raise ValueError(f"spline file truncated: {size} bytes, "
                                 f"header alone is {head}")
            version, m1, m2, m3, h = struct.unpack(
                "<IIIId", header[len(cls.MAGIC):])
            if version != cls.VERSION:
                raise ValueError(
                    f"unsupported spline file version {version}")
            grid = DomainGrid(m1, m2, m3, h=h)
            shape = (m1 + 4, m2 + 4, m3 + 4)
            expected = head + 8 * shape[0] * shape[1] * shape[2]
            # allocate only what the file holds, not what its header claims
            coeffs = np.empty(shape, dtype="<f8") if size == expected else None
            if coeffs is None or fh.readinto(
                    coeffs.reshape(-1).view(np.uint8)) != coeffs.nbytes:
                raise ValueError(
                    f"spline file truncated: {size} bytes, "
                    f"expected {expected}")
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

def _real(a, what: str) -> np.ndarray:
    """``a`` if it is an ndarray of real integers or floats; anything else
    (complex, bool, str, object or no ndarray) raises one ``ValueError``."""
    if not isinstance(a, np.ndarray) or a.dtype.kind not in "iuf":
        got = getattr(a, "dtype", type(a).__name__)
        raise ValueError(f"{what} must be a real integer or floating "
                         f"ndarray, got {got}")
    return a


def _as_points(points) -> tuple[np.ndarray, bool]:
    arr = np.asarray(_real(np.asarray(points), "points"), dtype=np.float64)
    scalar = arr.ndim == 1
    arr = arr.reshape(1, -1) if scalar else np.ascontiguousarray(arr)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("points must have shape (n, 3) or (3,)")
    return arr, scalar
