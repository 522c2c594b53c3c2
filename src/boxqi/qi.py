"""Assembly and evaluation of the quasi-interpolating spline Qf.

Each coefficient is a fixed-weight stencil over the samples, each BB patch
or lattice value one over the coefficients; every such loop reads a cube's
5x5x5 coefficient window (``_WINDOW``, or ``sliding_window_view`` slabs in
``compile``) or runs ``_correlate``, the one slab-wise correlation (or,
for small stencil boxes, ``_gather``, which sums in its order).
``approximate`` applies the class stencil of every basis index to a
complete sample grid.  The indices fall into 1215 boxes, products of
``domain.class_runs``, that share one stencil layout; each box's taps come
from one table keyed by its per-axis run labels, which holds no grid size
and is built from the labels alone, once per process on the first call
(about 0.02 s), so no index is classified.  A box of at least
``_SLICED_REGION`` coefficients (the interior, and the big face slabs) is
correlated over shifted slices; all smaller boxes (corners, edges, small
faces) are assembled together by one chunked gather per tap.  Both sum the
taps in table order, so a coefficient is the same bit for bit whichever
path its box takes.
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
working set does not grow with the call.
Uniform grids are read by local offset, not point by point: an offset's
tetrahedron, basis and block columns fold into one 53-tap kernel
(`_kernels`), correlated straight into the offset's strided view of an
aligned lattice (``_lattice_values``) or dotted with each point's gathered
window on any grid of n_a points along each axis a (``grid_blocks``);
`grid_values` reads every such grid through one of the two.
``_correlate`` sums each slab of its output in one contiguous accumulator
and copies a finished slab into the (usually strided) output once, with
the same products and sums in the same order as per-tap whole-array sums.
``mode="direct"`` sums the basis translates instead and serves as an
independent oracle.  ``compile`` is an optional export of the
per-tetrahedron patches (dense, within ``DEFAULT_COMPILE_BUDGET``) or, above
it, a slab plan; evaluation reads neither.

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
from math import gcd

import numpy as np

from . import stencils
from .bernstein import DIMENSION, bernstein_basis, derivative_reduce
from .boxspline import TRANSLATE_OFFSET, derivative_order, get_table
from .domain import class_runs, label_class
from .geometry import (AXIS_DIRECTIONS, SYMMETRY_PERM, SYMMETRY_SIGN,
                       DomainGrid, as_counts, locate, locate_unit)

__all__ = [
    "QISpline",
    "SizeError",
    "approximate",
    "grid_points",
    "grid_values",
    "DEFAULT_COMPILE_BUDGET",
]

_NC = DIMENSION[4]  # 35 quartic Bernstein coefficients per tetrahedron

# default ceiling for materialized per-tetrahedron patches: 1 GiB.  Larger
# grids compile to a streamed plan (a slab schedule, no patches).
DEFAULT_COMPILE_BUDGET = 1 << 30

_PATCH_BYTES_PER_CUBE = 24 * _NC * 8  # 6720
_GATHER_CHUNK = 1 << 20  # float64 elements per window slab in `compile`
# Assembly method by box size.  Slicing pays two ufunc calls per tap and
# slab of each box; the gather serves all smaller boxes at once, with about
# six passes over each tap's elements.  Gathering the 30 faces of a cube
# instead of slicing them made the whole assembly take 0.61-0.76x the time
# at 324-676 coefficients a face (m = 24-32) and 0.94-1.2x at 784-1156
# (m = 34-40), one BLAS thread on 2 shared vCPUs; so a box of at least
# this many coefficients is sliced.  m = 32 gathers its faces, m = 64
# slices its 3364-coefficient faces.
_SLICED_REGION = 1024
# float64 elements per cache-sized slab (256 KiB): of `_correlate`'s output,
# and of the coefficients `_evaluate` gathers at a time
_SLAB = 1 << 15
_EVAL_BLOCK = 4096  # points per located and contracted block
_GRID_POINTS = "evaluation grid needs n >= 1 points per axis"
# coefficients per chunk of `_gather`: half a slab, as a chunk holds about
# six index and value arrays of its length at once
_BOX_CHUNK = _SLAB // 2


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
                h: float | None = None) -> "QISpline":
    """Build the quasi-interpolant from a complete sample grid.

    ``samples`` has shape (m1+2, m2+2, m3+2): one value per data point,
    boundary points included; without ``grid`` it sizes the grid, of cube
    side ``h`` (1.0 if not given; a grid carries its own).  Each spline
    coefficient is that index's class stencil applied to the samples; the
    result reproduces cubics and satisfies ``|Qf| <= 9.945 max|f|``.

    Each box of indices with one stencil layout takes its tap offsets and
    weights from ``_box_table`` (built by the first call in a process).  A
    box of at least ``_SLICED_REGION`` coefficients is correlated over
    shifted slices (``_correlate``); the smaller ones are gathered
    together, chunk by chunk (``_gather``).  Both sum each coefficient's
    taps in table order, so the two paths agree bit for bit.  Memory beyond
    the result is two slab buffers or one chunk's index and value arrays.
    """
    samples = np.ascontiguousarray(_real(np.asarray(samples), "samples"),
                                   dtype=np.float64)
    if samples.ndim != 3:
        raise ValueError("samples must be a 3D array over the data points")
    if grid is None:
        grid = DomainGrid(*(n - 2 for n in samples.shape),
                          h=1.0 if h is None else h)
    elif h is not None:
        raise ValueError("pass a grid or h, not both (a grid has its own h)")
    grid.require_quasi_interpolation()
    expected = tuple(m + 2 for m in grid.m)
    if samples.shape != expected:
        raise ValueError(
            f"samples shape {samples.shape} does not cover the data point "
            f"set; expected {expected}")
    if not _finite(samples):
        raise ValueError("samples contain non-finite values")

    runs, taps, weights, counts = _box_table()
    m = np.array(grid.m)
    # run r of an axis of m cells starts at index r - 1 up to the middle
    # run 5 (indices 4 .. m - 3), at m - 8 + r after it
    first = runs - 1 + (runs > 5) * (m - 7)
    extent = np.where(runs == 5, m - 6, 1)
    sizes = extent.prod(axis=1)
    sliced = sizes >= _SLICED_REGION
    coeffs = np.zeros(tuple(m + 4))
    for b in np.flatnonzero(sliced):
        (l1, l2, l3), (e1, e2, e3), k = first[b] + 1, extent[b], counts[b]
        _correlate(samples, taps[:k, b] + first[b], weights[:k, b],
                   coeffs[l1:l1 + e1, l2:l2 + e2, l3:l3 + e3])
    _gather(samples, coeffs, first, extent, np.where(sliced, 0, sizes))
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


@lru_cache(maxsize=1)
def _box_table() -> tuple:
    """`_region_table` as tap-major arrays over the n = 1215 active boxes.

    Returns (runs, taps, weights, counts): each box's (n, 3) run ids, its
    position 0..10 in `domain.class_runs` along each axis; its offsets
    (k, n, 3) and weights (k, n) by tap, in `_region_table`'s order and
    zero past the box's ``counts`` taps.  Boxes are sorted by tap count,
    descending (stably), so those with more than t taps are a prefix.
    """
    labels = [run[2:] for run in class_runs(11)]
    table = _region_table()
    order = sorted(table, key=lambda key: -len(table[key][1]))
    counts = np.array([len(table[key][1]) for key in order])
    runs = np.array([[labels.index(label) for label in key] for key in order])
    taps = np.zeros((counts[0], len(order), 3), dtype=np.int64)
    weights = np.zeros((counts[0], len(order)))
    for b, key in enumerate(order):
        taps[:counts[b], b], weights[:counts[b], b] = table[key]
    for a in (runs, taps, weights, counts):
        a.setflags(write=False)
    return runs, taps, weights, counts


def _gather(samples, coeffs, first, extent, sizes):
    """Assemble the ``sizes[b]`` (0 or all) coefficients of every box b of
    `_box_table` into ``coeffs``, all boxes at once.

    Box b holds the indices first[b] + p, 0 <= p < extent[b].  Its
    coefficients are listed box after box, in C order within a box, and
    walked in chunks of ``_BOX_CHUNK``; `_tap_sums` sums each chunk tap
    after tap, so each coefficient is rounded as `_correlate` rounds it,
    bit for bit.
    """
    _, _, weights, counts = _box_table()
    src, dst = np.ravel(samples), coeffs.reshape(-1)
    s, c = (np.array(a.strides) // a.itemsize for a in (samples, coeffs))
    frames = (first @ s, s), ((first + 1) @ c, c)
    index = _tap_index(tuple(s.tolist()))
    reach = np.searchsorted(-counts, -np.arange(counts[0]))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    for lo in range(0, ends[-1], _BOX_CHUNK):
        share = np.clip(np.minimum(ends, lo + _BOX_CHUNK)
                        - np.maximum(starts, lo), 0, None)  # per box
        local, out = _box_offsets(lo, share, starts, extent, *frames)
        dst[out] = _tap_sums(src, local, index, weights, reach, share)


@lru_cache(maxsize=4)
def _tap_index(strides: tuple) -> np.ndarray:
    """The flat offsets of `_box_table`'s (k, n, 3) taps in samples whose
    strides, in elements, are ``strides``, as read-only (k, n) int64: one
    product per sample shape, not one per `_gather` call."""
    index = _box_table()[1] @ np.array(strides)
    index.setflags(write=False)
    return index


def _tap_sums(src, local, index, weights, reach, share):
    """The coefficients of one chunk, ``share[b]`` of them from box b.

    Tap t reaches the first ``reach[t]`` boxes, those with more than t
    taps, whose coefficients lead the chunk: it gathers ``src`` at their
    flat indices ``local`` plus the box's tap offset ``index[t, b]``,
    multiplies them by the tap's weights and adds the products to their
    sums; the first tap's products start the sums, as in `_correlate`.
    """
    for t, b in enumerate(reach):
        at = np.repeat(index[t, :b], share[:b])
        at += local[:len(at)]
        part = src.take(at)
        part *= np.repeat(weights[t, :b], share[:b])
        if t == 0:
            acc = part
        else:
            acc[:len(part)] += part
    return acc


def _box_offsets(lo, share, starts, extent, *frames):
    """Flat indices of the coefficients number lo, lo + 1, ... of
    `_gather`'s list, ``share[b]`` of them in box b, whose first is number
    ``starts[b]``, in each (base, strides) frame: box b's index first[b] + p
    is at ``base[b] + p @ strides``."""
    p = np.arange(lo, lo + share.sum()) - np.repeat(starts, share)
    p, p3 = np.divmod(p, np.repeat(extent[:, 2], share))
    p, p2 = np.divmod(p, np.repeat(extent[:, 1], share))
    offsets = []
    for base, (s1, s2, _) in frames:
        flat = np.repeat(base, share)
        flat += p * s1
        flat += p2 * s2
        flat += p3
        offsets.append(flat)
    return offsets


def _finite(a: np.ndarray) -> bool:
    """Whether ``a`` holds no NaN or infinity.  Its min and max propagate
    NaN and reach any infinity, with no boolean mask the size of ``a``."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _correlate(src, taps, w, out):
    """Correlate ``src`` with k taps into ``out``, in tap order:
    ``out[i] = sum_t w[t] src[i + taps[t]]`` for (k, 3) offsets ``taps``.

    ``out`` is walked in slabs of whole axis-0 rows, about ``_SLAB``
    elements each, and each slab is summed in one contiguous accumulator:
    the first tap writes it, every later tap is multiplied into one reused
    buffer and added in place.  ``out`` (a sub-box of the coefficients, a
    lattice view) receives each finished slab in one copy.
    """
    n1, n2, n3 = out.shape
    rows = min(n1, max(1, _SLAB // (n2 * n3)))
    acc = np.empty((rows, n2, n3))
    buf = np.empty((rows, n2, n3))
    taps = taps.tolist()
    for start in range(0, n1, rows):
        dst = out[start:start + rows]
        total = acc[:len(dst)]
        tmp = buf[:len(dst)]
        for t, ((d1, d2, d3), wt) in enumerate(zip(taps, w)):
            part = src[d1 + start:d1 + start + len(dst),
                       d2:d2 + n2, d3:d3 + n3]
            if t == 0:
                np.multiply(part, wt, out=total)
            else:
                np.multiply(part, wt, out=tmp)
                total += tmp
        dst[...] = total


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


def _kernels(local, gammas, h):
    """(tet, kernels) of D^gamma at (k, 3) cube-local offsets ``local``.

    Each offset is located once (`locate_unit`) and given its Bernstein
    basis; ``kernels[i, c]`` (53 taps, in tetrahedron ``tet[i]``'s slot
    order ``slots[tet[i]]`` of `_tet_blocks`) is the basis times the block
    columns its tetrahedron picks for ``gammas[c]``, times that pick's
    sign and 1/h^|gamma|.  The value at a point of that offset is then the
    dot product of a kernel with the 53 coefficients at those slots.
    """
    order = sum(gammas[0])
    _, block, pick, sign = _tet_blocks(gammas)
    tet, bary = locate_unit(local)
    basis = bernstein_basis(bary, 4 - order)
    d = basis.shape[1]
    # one matrix product per block column group: about 7x faster than the
    # same sums by `einsum` at 30k offsets, and rounded differently
    parts = [basis @ block[:, c:c + d].T
             for c in range(0, block.shape[1], d)]
    if len(parts) == len(gammas) == 1:  # every tetrahedron picks column 0
        kernels = parts[0][:, None]
    else:
        kernels = np.take_along_axis(np.stack(parts, axis=1),
                                     pick[tet][:, :, None], axis=1)
    if order:
        kernels *= sign[tet][:, :, None]
        kernels /= h ** order
    return tet, kernels


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

    def grid_blocks(self, n, gammas=((0, 0, 0),)):
        """D^gamma Qf for the q multi-indices ``gammas`` (all of one order)
        on the grid of n_a points along each axis a over the domain (``n``
        as in `grid_values`), at the exact lattice j_a m_a h / (n_a - 1),
        in blocks of whole lines of the last axis: yields (j, k, values
        (a, b, n3, q)) for planes j .. j + a - 1 of the first axis and rows
        k .. k + b - 1 of the second, each point once.

        By `_grid_axis` the grid is copies of one tile of distinct local
        offset triples, each copy a shift of the flat coefficient index.
        For each batch of tile rows of the first two axes (at most
        ``_EVAL_BLOCK`` kernels, at least one line) every triple is located
        and given its basis once, as one kernel per multi-index
        (`_kernels`) beside the flat indices of its 53 slot coefficients;
        each copy of the batch is then one ``take`` from the shifted
        coefficients and one ``einsum`` with the kernels.  Values are
        within 1.6e-15 of max |Qf| of point ``eval`` at `grid_points`,
        gradients within 7.1e-15 (f2, m = 32 and 64, n = 101 and 139).
        """
        n = as_counts(n, 1, _GRID_POINTS)
        gammas = tuple(derivative_order(g) for g in gammas)
        if not gammas or len({sum(g) for g in gammas}) != 1:
            raise ValueError(
                f"gammas must be multi-indices of one order, got {gammas}")
        _, m2, m3 = self.coefficients.shape
        strides = (m2 * m3, m3, 1)
        offsets = (_WINDOW @ strides)[_tet_blocks(gammas)[0]]
        axes = [_grid_axis(m, k) for m, k in zip(self.grid.m, n)]
        (cx, ux, _, _), (cy, uy, _, _), (cz, uz, _, _) = axes
        lines = max(1, _EVAL_BLOCK // (len(gammas) * len(uz)))
        step_y = min(len(uy), lines)
        step_x = max(1, lines // len(uy))
        flat = np.ravel(self.coefficients)

        def copies(axis, lo, hi):
            """(first grid index, first batch row, flat index shift) of each
            copy of tile rows lo .. hi - 1 along ``axis``; a copy past the
            first starts at tile row 1."""
            _, _, period, count = axes[axis]
            step = self.grid.m[axis] // count
            for k in range(count):
                first = max(lo, int(k > 0))
                if first < hi:
                    yield (k * period + first, first - lo,
                           k * step * strides[axis])

        def blocks():
            for xlo, ylo in product(range(0, len(ux), step_x),
                                    range(0, len(uy), step_y)):
                xhi, yhi = xlo + step_x, ylo + step_y
                local = np.stack(np.meshgrid(ux[xlo:xhi], uy[ylo:yhi], uz,
                                             indexing="ij"), axis=-1)
                shape = local.shape[:3]
                tet, kernels = _kernels(
                    local.reshape(-1, 3) / np.maximum(np.subtract(n, 1), 1),
                    gammas, self.grid.h)
                kernels = kernels.reshape(shape + (len(gammas), -1))
                index = offsets[tet].reshape(shape + (-1,))
                index += (cx[xlo:xhi, None, None] * strides[0]
                          + cy[ylo:yhi, None] * strides[1] + cz)[..., None]
                for (jx, ax, sx), (jy, ay, sy) in product(
                        copies(0, xlo, xlo + shape[0]),
                        copies(1, ylo, ylo + shape[1])):
                    out = np.empty((shape[0] - ax, shape[1] - ay, n[2],
                                    len(gammas)))
                    for jz, az, sz in copies(2, 0, len(uz)):
                        box = (slice(ax, None), slice(ay, None),
                               slice(az, None))
                        np.einsum("xyzs,xyzqs->xyzq",
                                  flat[sx + sy + sz:].take(index[box]),
                                  kernels[box],
                                  out=out[:, :, jz:jz + len(uz) - az])
                    yield jx, jy, out

        return blocks()

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
        block is located once; then, in runs of ``_SLAB // 53`` points
        (256 KiB of gathered coefficients, so the run's arrays stay in
        cache), the run is given its Bernstein basis, each point gathers
        the 53 coefficients of its tetrahedron's slots in one ``take``, one
        product with the canonical block gives all its patches, and one
        ``einsum`` contracts them with the basis; a derivative then picks
        each point's column and sign.  ``locate`` and ``bernstein_basis`` are
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
            values = out[start:start + _EVAL_BLOCK]
            for lo in range(0, len(tet), run):
                t = tet[lo:lo + run]
                index = offsets[t]
                index += base[lo:lo + run, None]
                patch = (flat.take(index) @ block).reshape(
                    len(t), -1, DIMENSION[degree])
                part = np.einsum("iqj,ij->iq", patch,
                                 bernstein_basis(bary[lo:lo + run], degree))
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

def grid_points(grid: DomainGrid, n, ids) -> np.ndarray:
    """The points of flat (C-order) ``ids`` on the grid of `grid_values`:
    ``np.linspace(0, m_a h, n_a)[j_a]`` along each axis a.  Reference
    functions are read here; `QISpline.grid_blocks` reads the spline at the
    exact lattice j_a m_a h / (n_a - 1) these points round."""
    n = as_counts(n, 1, _GRID_POINTS)
    axes = [np.linspace(0.0, m * grid.h, k) for m, k in zip(grid.m, n)]
    return np.stack([ax[i] for ax, i in
                     zip(axes, np.unravel_index(ids, n))], axis=-1)


def grid_values(spline, n) -> np.ndarray:
    """The (n1, n2, n3) values of ``spline`` on the grid of `grid_points`;
    ``n`` is the points per axis, one count or three.

    When every m_a divides n_a - 1 they are read by `_lattice_values`,
    whose cube rule puts each plane where ``eval`` would; otherwise block
    by block of ``spline.grid_blocks`` at the exact lattice j m_a h /
    (n_a - 1), which `grid_points` can miss by an ulp, into one
    preallocated array.  No point is located.
    """
    counts, m = as_counts(n, 1, _GRID_POINTS), spline.grid.m
    if all(c > 1 and (c - 1) % k == 0 for c, k in zip(counts, m)):
        return _lattice_values(spline, np.subtract(counts, 1) // m)
    out = np.empty(counts)
    for j, k, block in spline.grid_blocks(n):
        out[j:j + block.shape[0], k:k + block.shape[1]] = block[..., 0]
    return out


def _lattice_values(spline, r) -> np.ndarray:
    """The (r_a m_a + 1) values at j_a h / r_a along each axis a, for
    positive integer factors ``r``.  Planes go to cubes by `locate`'s rule,
    cube clamp(ceil(u) - 1), so each point uses the patch `eval` would use
    and every cube holds the local offsets k / r_a, k = 1..r_a (cube 0 also
    k = 0).  One offset is one 53-tap `_kernels` kernel in window order,
    whose nonzero taps (32 at a corner) ``_correlate`` applies straight into
    the offset's strided view of the result: no point is located or
    gathered, and memory beyond the result is `_correlate`'s two slabs."""
    slots = _tet_blocks(((0, 0, 0),))[0]
    offsets = list(np.ndindex(*(x + 1 for x in r)))
    tet, kernels = _kernels(np.array(offsets) / np.array(r),
                            ((0, 0, 0),), spline.grid.h)
    order = np.argsort(slots[tet], axis=1)  # taps in window order
    kernels = np.take_along_axis(kernels[:, 0], order, axis=1)
    taps = _WINDOW[np.take_along_axis(slots[tet], order, axis=1)]
    m = spline.grid.m
    out = np.empty(tuple(x * n + 1 for x, n in zip(r, m)))
    for k, kernel, tap in zip(offsets, kernels, taps):
        nonzero = kernel != 0
        _correlate(spline.coefficients, tap[nonzero], kernel[nonzero],
                   out[tuple(slice(ka, None, x) if ka else slice(0, 1)
                             for ka, x in zip(k, r))])
    return out


def _grid_axis(m: int, n: int):
    """The n grid planes j m / (n - 1) (grid units) along an axis of m
    cubes as (cube, numerator, P, g): a tile and g copies of it.

    By `locate`'s rule in integers, plane j lies in cube clamp(ceil(j m /
    (n - 1)) - 1) at local offset (j m - cube (n - 1)) / (n - 1).  With
    g = gcd(n - 1, m) and P = (n - 1) / g, planes 0 .. P (the tile, P + 1
    distinct offsets) give ``cube`` and ``numerator``, and plane k P + t,
    1 <= t <= P, 0 <= k < g, has plane t's offset in cube cube[t] + k m /
    g.  For n = 1 the tile is plane 0 alone (P = 0, g = 1).
    """
    d = n - 1
    g = gcd(d, m) if d else 1
    num = np.arange(d // g + 1) * m
    cube = np.maximum(-(-num // max(d, 1)) - 1, 0)
    return cube, num - cube * d, d // g, g


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
