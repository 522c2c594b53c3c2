"""Quasi-interpolant construction, evaluation paths, derivatives, and
spline persistence."""

import hashlib
import math
import struct
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from boxqi import (bernstein, boxspline, convergence, domain, geometry, qi,
                   stencils)
from test_bernstein import oracle_basis


def _samples_of(fn, grid):
    pts = domain.data_points(grid)
    return fn(pts[..., 0], pts[..., 1], pts[..., 2])


def _probe_points(rng, grid, n):
    return rng.uniform(0.0, 1.0, size=(n, 3)) * np.array(grid.extent)


def test_constant_field_reproduced(rng):
    spline = qi.approximate(np.full((13, 13, 13), 2.5), h=1.0)
    pts = _probe_points(rng, spline.grid, 300)
    np.testing.assert_allclose(spline.eval(pts), 2.5, rtol=0, atol=1e-12)


def test_linearity(rng):
    f = rng.normal(size=(13, 13, 13))
    g = rng.normal(size=(13, 13, 13))
    sf = qi.approximate(f, h=1.0)
    sg = qi.approximate(g, h=1.0)
    s_mix = qi.approximate(2.0 * f - 0.5 * g, h=1.0)
    np.testing.assert_allclose(
        s_mix.coefficients, 2.0 * sf.coefficients - 0.5 * sg.coefficients,
        rtol=0, atol=1e-12)


def _active(grid):
    """The index set A of ``grid`` as index triples, in C order."""
    return [tuple(int(v) for v in a)
            for a in np.argwhere(domain.active_mask(grid)) - 1]


def _region_sizes(grid):
    """Coefficient counts of the active regions `approximate` walks."""
    return [(hi1 - lo1 + 1) * (hi2 - lo2 + 1) * (hi3 - lo3 + 1)
            for (lo1, hi1, c1, _), (lo2, hi2, c2, _), (lo3, hi3, c3, _)
            in product(*(domain.class_runs(m) for m in grid.m))
            if (c1, c2, c3).count(-1) < 2]


def _exact_coefficient(alpha, grid, data):
    """``alpha``'s class stencil applied to ``data``, rounded once: every
    product of two doubles is an exact integer over a power of two, so the
    sum is taken exactly in integers.  A float dot product rounds each
    partial sum in its own order."""
    idx, w = stencils.functional(alpha, grid)
    terms = [(nx * nw, (dx * dw).bit_length() - 1)
             for (nx, dx), (nw, dw) in zip(
                 map(float.as_integer_ratio, data[tuple(idx.T)].tolist()),
                 map(float.as_integer_ratio, w.tolist()))]
    shift = max(e for _, e in terms)
    return sum(n << (shift - e) for n, e in terms) / (1 << shift)


def test_coefficients_match_per_class_stencils(rng, monkeypatch):
    """Every active coefficient, gathered or correlated over slices, is its
    class stencil applied to the data, to 1e-12 of the exact sum.  At
    (40, 40, 12) the interior box fits one slab; slabs of 660 elements walk
    it in 4-row slabs and a 1-row remainder."""
    grids = [geometry.DomainGrid(11, 11, 11, 1.0),
             geometry.DomainGrid(40, 40, 12, 1.0)]
    sizes = [n for grid in grids for n in _region_sizes(grid)]
    assert min(sizes) < qi._SLICED_REGION <= max(sizes)
    for grid in grids:
        data = rng.normal(size=tuple(m + 2 for m in grid.m))
        active = _active(grid)
        want = [_exact_coefficient(alpha, grid, data) for alpha in active]
        for slab in (qi._SLAB, 660):
            monkeypatch.setattr(qi, "_SLAB", slab)
            coeffs = qi.approximate(data, grid).coefficients
            got = [coeffs[tuple(a + 1 for a in alpha)] for alpha in active]
            np.testing.assert_allclose(got, want, rtol=1e-12)


def test_assembly_memory_is_the_coefficients():
    """Assembly allocates the coefficient array plus slab-sized
    temporaries: no gathered (n, k) array of a large region, and the small
    boxes' coefficients (57 248 of them at (254, 254, 97)) gathered chunk by
    chunk.  The per-shape tap offsets are cleared first, so their product
    on a shape's first call is inside the bound too."""
    qi.approximate(np.zeros((13, 13, 13)))  # stencil library, outside
    for m in [(96, 96, 40), (254, 254, 97)]:
        grid = geometry.DomainGrid(*m, 1.0)
        samples = np.random.default_rng(5).normal(
            size=tuple(n + 2 for n in m))
        qi._tap_index.cache_clear()
        tracemalloc.start()
        try:
            spline = qi.approximate(samples, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= spline.coefficients.nbytes + (2 << 20), m


def _per_tap_sums(src, taps, w, shape):
    """``w[0] src[taps[0]:]``, then ``+= w[t] src[taps[t]:]`` in tap order,
    each over the whole ``shape``."""
    parts = [src[d1:d1 + shape[0], d2:d2 + shape[1], d3:d3 + shape[2]]
             for d1, d2, d3 in taps]
    acc = parts[0] * w[0]
    for part, wt in zip(parts[1:], w[1:]):
        acc += part * wt
    return acc


@pytest.mark.parametrize("case", ["contiguous", "interior", "z-face",
                                  "x-face", "remainder", "one tap"])
def test_correlate_is_bitwise_the_whole_array_per_tap_sums(case,
                                                           monkeypatch):
    """`_correlate` into a C-contiguous ``out``, or into a strided box of a
    larger array (the coefficients' interior, a face of extent 1 on the
    last or the first axis), in one slab or in 5-row slabs and a 4-row
    remainder, gives the per-tap sums bit for bit and leaves the rest of
    the larger array alone."""
    rng = np.random.default_rng(31)
    src = rng.normal(size=(30, 24, 20))
    taps = rng.integers(0, 5, size=(7, 3))
    w = rng.normal(size=7)
    host = np.full((32, 26, 22), 7.0)
    box = {"contiguous": None,
           "interior": np.s_[3:27, 2:20, 4:18],
           "z-face": np.s_[3:27, 2:20, 5:6],
           "x-face": np.s_[5:6, 2:20, 4:18],
           "remainder": np.s_[3:27, 2:20, 4:18],
           "one tap": np.s_[3:27, 2:20, 4:18]}[case]
    out = np.empty((25, 20, 16)) if box is None else host[box]
    assert out.flags.c_contiguous == (box is None)
    if case == "remainder":
        monkeypatch.setattr(qi, "_SLAB", 5 * 18 * 14 + 3)
    if case == "one tap":
        taps, w = taps[:1], w[:1]
    qi._correlate(src, taps, w, out)
    np.testing.assert_array_equal(_bits(out),
                                  _bits(_per_tap_sums(src, taps, w,
                                                      out.shape)))
    if box is not None:
        outside = np.ones(host.shape, dtype=bool)
        outside[box] = False
        assert (host[outside] == 7.0).all()


def test_gather_computes_the_tap_offsets_once_per_shape():
    """Assemblies on interleaved sample shapes, one of them anisotropic,
    take each shape's flat tap offsets from one product, read-only, and
    give the per-region oracle's bits on every call."""
    qi._tap_index.cache_clear()
    rng = np.random.default_rng(33)
    for m in [(11, 11, 11), (13, 11, 17), (32, 32, 32), (11, 11, 11)]:
        grid = geometry.DomainGrid(*m, 1.0)
        samples = rng.normal(size=tuple(n + 2 for n in m))
        np.testing.assert_array_equal(qi.approximate(samples).coefficients,
                                      _approximate_per_region(samples, grid))
    info = qi._tap_index.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    assert not qi._tap_index((13 * 19, 19, 1)).flags.writeable


@pytest.mark.parametrize("m, digest", [
    ((254, 254, 97),
     "4cf3cc187bb2cb5ef8325d09d75a06fa8cd34cc098ce5316338a143d8bb8eedb"),
    ((64, 64, 64),
     "71a23c89ca8220acca406cb81231e88fbd4855b7f3749b1fdc8c1928b871ce1a")])
def test_assembly_bits_are_pinned(m, digest):
    """The coefficients of integer-valued samples keep their SHA-256.  The
    samples come from integer arithmetic on the indices, not from a random
    generator whose stream may change between numpy versions, and assembly
    runs only elementwise IEEE products and sums in a fixed order (no
    BLAS), so the bits do not depend on the platform."""
    i, j, k = np.indices(tuple(n + 2 for n in m))
    samples = ((i * 7919 + j * 104729 + k * 1299709) % 65536).astype(float)
    coeffs = qi.approximate(samples).coefficients
    assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest


def _approximate_per_region(samples, grid):
    """The oracle: every region's functional classified at its first index
    through `stencils.functional` on each call, and every region, small or
    large, correlated over shifted slices by `qi._correlate`."""
    coeffs = np.zeros(tuple(m + 4 for m in grid.m))
    for (lo1, hi1, c1, _), (lo2, hi2, c2, _), (lo3, hi3, c3, _) in product(
            *(domain.class_runs(m) for m in grid.m)):
        if (c1, c2, c3).count(-1) >= 2:
            continue
        mapped, w = stencils.functional((lo1, lo2, lo3), grid)
        qi._correlate(samples, mapped, w,
                      coeffs[lo1 + 1:hi1 + 2, lo2 + 1:hi2 + 2, lo3 + 1:hi3 + 2])
    return coeffs


_TABLE_GRIDS = [(11, 11, 11), (12, 12, 12), (13, 11, 17), (32, 32, 32),
                (33, 32, 31), (64, 64, 64), (100, 11, 12), (254, 254, 97)]


@pytest.mark.parametrize("m", _TABLE_GRIDS)
def test_region_table_is_grid_independent(m):
    """Every region's functional, at its first index on this grid and
    relative to it, is the table entry of its run labels, tap for tap."""
    grid = geometry.DomainGrid(*m, 1.0)
    table = qi._region_table()
    assert len(table) == 1215
    seen = set()
    for runs in product(*(domain.class_runs(n) for n in m)):
        labels = tuple(run[2:] for run in runs)
        if [c for c, _ in labels].count(-1) >= 2:
            assert labels not in table
            continue
        rep = tuple(run[0] for run in runs)
        idx, w = stencils.functional(rep, grid)
        offsets, weights = table[labels]
        np.testing.assert_array_equal(offsets, idx - rep)
        assert weights is w
        assert not offsets.flags.writeable
        seen.add(labels)
    assert seen == set(table)


def test_region_table_is_built_without_a_grid(monkeypatch):
    """The table comes from run labels alone: rebuilt with no index
    classified, no functional instantiated and no grid made, it is the
    same table."""
    before = qi._region_table()

    def refuse(*args, **kwargs):
        raise AssertionError("the region table used a grid or an index")

    monkeypatch.setattr(domain, "classify", refuse)
    monkeypatch.setattr(stencils, "classify", refuse)
    monkeypatch.setattr(stencils, "functional", refuse)
    monkeypatch.setattr(geometry, "DomainGrid", refuse)
    monkeypatch.setattr(qi, "DomainGrid", refuse)
    qi._region_table.cache_clear()
    try:
        after = qi._region_table()
    finally:
        qi._region_table.cache_clear()
    assert after.keys() == before.keys() and len(after) == 1215
    for labels, (offsets, w) in after.items():
        np.testing.assert_array_equal(offsets, before[labels][0])
        assert offsets.dtype == np.int64 and not offsets.flags.writeable
        assert w is before[labels][1]


def test_approximate_classifies_nothing_once_the_table_exists(monkeypatch):
    qi._region_table()

    def refuse(*args, **kwargs):
        raise AssertionError("an index was classified during assembly")

    for owner in (stencils, domain):
        monkeypatch.setattr(owner, "classify", refuse)
    monkeypatch.setattr(stencils, "functional", refuse)
    rng = np.random.default_rng(14)
    for m in [(11, 11, 11), (40, 40, 12), (13, 11, 17)]:
        qi.approximate(rng.normal(size=tuple(n + 2 for n in m)))


@pytest.mark.parametrize("slab", [qi._SLAB, 660])
def test_table_assembly_is_bitwise_the_per_region_oracle(rng, monkeypatch,
                                                         slab):
    monkeypatch.setattr(qi, "_SLAB", slab)
    for m in [(11, 11, 11), (40, 40, 12)]:
        grid = geometry.DomainGrid(*m, 1.0)
        data = rng.normal(size=tuple(n + 2 for n in m))
        np.testing.assert_array_equal(qi.approximate(data, grid).coefficients,
                                      _approximate_per_region(data, grid))


def test_table_assembly_of_f2_is_bitwise_the_per_region_oracle(f2_m32):
    from boxqi import volume
    samples, grid, _ = volume.sample_test_function("f2", 32)
    np.testing.assert_array_equal(f2_m32.coefficients,
                                  _approximate_per_region(samples, grid))


@pytest.mark.parametrize("m", [(11, 11, 11), (40, 40, 12), (13, 11, 17)])
def test_gathered_and_correlated_boxes_are_bitwise_equal(m, monkeypatch):
    """Every box correlated (threshold 1) and every box gathered (threshold
    above the largest box) give the same coefficients, bit for bit, and so
    do gathered chunks of 97 coefficients, which split boxes and whose last
    taps reach one or two of a chunk's boxes."""
    samples = np.random.default_rng(25).normal(size=tuple(n + 2 for n in m))
    default = qi.approximate(samples).coefficients
    for threshold in (1, max(_region_sizes(geometry.DomainGrid(*m))) + 1):
        monkeypatch.setattr(qi, "_SLICED_REGION", threshold)
        np.testing.assert_array_equal(qi.approximate(samples).coefficients,
                                      default)
    monkeypatch.setattr(qi, "_BOX_CHUNK", 97)
    np.testing.assert_array_equal(qi.approximate(samples).coefficients,
                                  default)


@pytest.mark.parametrize("m", [11, 32])
def test_only_large_boxes_are_correlated(m, monkeypatch):
    """Boxes under ``_SLICED_REGION`` coefficients are gathered: m = 11
    correlates none, m = 32 exactly the boxes at or above it."""
    sizes = []
    correlate = qi._correlate

    def spy(src, taps, w, out):
        sizes.append(out.size)
        correlate(src, taps, w, out)

    monkeypatch.setattr(qi, "_correlate", spy)
    qi.approximate(np.random.default_rng(3).normal(size=(m + 2,) * 3))
    large = [n for n in _region_sizes(geometry.DomainGrid(m, m, m))
             if n >= qi._SLICED_REGION]
    assert sorted(sizes) == sorted(large)
    assert (m == 11) == (not sizes)


@pytest.mark.parametrize("m", [11, 12])
def test_functional_is_invariant_along_class_runs(m):
    """`approximate` applies the functional of each region's first index to
    the whole region (a product of `domain.class_runs`); every active index
    must have the same (data offset, weight) pairs as that first index."""
    grid = geometry.DomainGrid(m, m, m, 1.0)
    first = {a: lo for lo, hi, _, _ in domain.class_runs(m)
             for a in range(lo, hi + 1)}

    def pairs(alpha):
        idx, w = stencils.functional(alpha, grid)
        return sorted(zip(map(tuple, (idx - alpha).tolist()), w.tolist()))

    checked = 0
    for alpha in _active(grid):
        rep = tuple(first[a] for a in alpha)
        if rep != alpha:
            assert pairs(alpha) == pairs(rep), (alpha, rep)
            checked += 1
    assert checked


@pytest.mark.parametrize("m", [11, 12])
def test_adjacent_class_runs_cannot_merge(m):
    """Every pair of adjacent runs along an axis differs in the (data offset,
    weight) pairs of its first indices in some region, so no coarser runs
    would serve `approximate`."""
    grid = geometry.DomainGrid(m, m, m, 1.0)
    runs = domain.class_runs(m)
    active = set(_active(grid))

    def pairs(alpha):
        idx, w = stencils.functional(alpha, grid)
        return sorted(zip(map(tuple, (idx - alpha).tolist()), w.tolist()))

    for left, right in zip(runs, runs[1:]):
        assert any(
            pairs((left[0], b, c)) != pairs((right[0], b, c))
            for (b, _, _, _), (c, _, _, _) in product(runs, runs)
            if (left[0], b, c) in active and (right[0], b, c) in active
        ), (left, right)


def test_cubic_reproduction(rng):
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)

    def p(x, y, z):
        return ((x - 0.3) * (y + 0.1) * (z - 0.7)
                + 2.0 * x * x * z - y * y * y + 0.25)

    spline = qi.approximate(_samples_of(p, grid), grid)
    pts = _probe_points(rng, grid, 4000)
    exact = p(pts[:, 0], pts[:, 1], pts[:, 2])
    scale = np.abs(exact).max()
    assert np.abs(spline.eval(pts) - exact).max() <= 1e-9 * scale


def test_patch_coefficients_equal_bb_form_of_cubic():
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)

    def p(x, y, z):
        return x * y * z - 0.5 * z * z + 3.0 * x - 0.2

    spline = qi.approximate(_samples_of(p, grid), grid).compile("dense")
    colloc = bernstein.bernstein_basis(bernstein.domain_point_barycentrics())
    for cube, tet in [((5, 6, 7), 3), ((0, 0, 0), 17), ((11, 4, 2), 21)]:
        verts = geometry.tetrahedra_of_cube(cube, grid)[tet]
        dp = bernstein.domain_points(verts)
        bb_of_p = np.linalg.solve(colloc, p(dp[:, 0], dp[:, 1], dp[:, 2]))
        patch = spline.compiled.patches[cube][tet]
        np.testing.assert_allclose(patch, bb_of_p, rtol=0, atol=1e-9)


def test_eval_modes_agree(rng, monkeypatch):
    spline = qi.approximate(rng.normal(size=(13, 14, 15)), h=0.5)
    pts = _probe_points(rng, spline.grid, 2000)
    direct = spline.eval(pts, mode="direct")
    dense = spline.compile("dense").eval(pts, mode="compiled")
    monkeypatch.setattr(qi, "DEFAULT_COMPILE_BUDGET", 1000)
    plan = spline.compile()
    assert plan.compiled.mode == "streamed"
    streamed = plan.eval(pts, mode="compiled")
    auto = spline.eval(pts)
    np.testing.assert_allclose(dense, direct, rtol=0, atol=1e-11)
    np.testing.assert_allclose(streamed, direct, rtol=0, atol=1e-11)
    np.testing.assert_allclose(auto, direct, rtol=0, atol=1e-11)
    with pytest.raises(ValueError):
        spline.eval(pts, mode="bogus")
    for mode in ("bogus", "streamed"):  # a streamed plan comes from auto
        with pytest.raises(ValueError):
            spline.compile(mode)


def test_eval_rejects_outside_domain(rng):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    with pytest.raises(ValueError):
        spline.eval(np.array([[11.5, 3.0, 3.0]]))


def test_derivatives_match_finite_differences(rng):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    pts = _probe_points(rng, spline.grid, 50) * 0.8 + 1.0  # keep interior
    step = 1e-5
    for axis in range(3):
        gamma = [0, 0, 0]
        gamma[axis] = 1
        e = np.zeros(3)
        e[axis] = step
        fd = (spline.eval(pts + e) - spline.eval(pts - e)) / (2 * step)
        np.testing.assert_allclose(spline.eval_derivative(pts, gamma), fd,
                                   rtol=0, atol=1e-6)
    # mixed second derivative d^2/dxdy via nested differences
    exy = np.array([step, 0.0, 0.0]), np.array([0.0, step, 0.0])
    fd2 = (spline.eval(pts + exy[0] + exy[1])
           - spline.eval(pts + exy[0] - exy[1])
           - spline.eval(pts - exy[0] + exy[1])
           + spline.eval(pts - exy[0] - exy[1])) / (4 * step * step)
    np.testing.assert_allclose(spline.eval_derivative(pts, (1, 1, 0)), fd2,
                               rtol=0, atol=1e-4)


def test_gradient_stacks_first_derivatives(rng):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    pts = _probe_points(rng, spline.grid, 200)
    grad = spline.gradient(pts)
    assert grad.shape == (200, 3)
    for axis, gamma in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        np.testing.assert_allclose(grad[:, axis],
                                   spline.eval_derivative(pts, gamma),
                                   rtol=0, atol=1e-12)


def test_derivative_order_validation(rng):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    pts = _probe_points(rng, spline.grid, 5)
    spline.eval_derivative(pts, (1, 1, 1))  # |gamma| = 3 is fine
    np.testing.assert_array_equal(
        spline.eval_derivative(pts, np.array([1, 0, 2])),
        spline.eval_derivative(pts, (1, 0, 2)))
    for gamma in [(2, 1, 1), (-1, 0, 0), (1, 0), (0.5, 0, 0), (1.9, 0, 0),
                  (1.0, 0, 0), ("1", 0, 0), (True, 0, 0), "100"]:
        with pytest.raises(ValueError, match="gamma must be"):
            spline.eval_derivative(pts, gamma)


def test_save_load_round_trip(rng, tmp_path):
    spline = qi.approximate(rng.normal(size=(13, 14, 15)), h=0.25)
    path = tmp_path / "model.qis"
    spline.save(path)
    loaded = qi.QISpline.load(path)
    assert loaded.grid == spline.grid
    np.testing.assert_array_equal(loaded.coefficients, spline.coefficients)
    # deterministic byte stream
    path2 = tmp_path / "model2.qis"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_saved_bytes_are_header_and_coefficients(rng, tmp_path):
    spline = qi.approximate(rng.normal(size=(13, 14, 15)), h=0.25)
    path = tmp_path / "model.qis"
    spline.save(path)
    header = qi.QISpline.MAGIC + struct.pack(
        "<IIIId", qi.QISpline.VERSION, 11, 12, 13, 0.25)
    assert path.read_bytes() == (
        header + spline.coefficients.astype("<f8").tobytes())
    loaded = qi.QISpline.load(path).coefficients
    np.testing.assert_array_equal(loaded, spline.coefficients)
    assert loaded.flags.aligned and not loaded.flags.writeable


def test_a_numpy_int_grid_saves_the_same_bytes(rng, tmp_path):
    """A grid built from numpy counts is the int grid: same spline, same
    .qis bytes."""
    samples = rng.normal(size=(13, 14, 15))
    paths = []
    for m in [(11, 12, 13), (np.int64(11), np.int32(12), np.uint8(13))]:
        paths.append(tmp_path / f"{len(paths)}.qis")
        qi.approximate(samples, geometry.DomainGrid(*m, h=0.25)).save(
            paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_approximate_takes_a_grid_or_h_not_both(rng):
    """h sizes the grid read from the samples' shape (1.0 if not given); a
    given grid carries its own h, so a second h is an error, not ignored."""
    samples = rng.normal(size=(13, 13, 13))
    assert qi.approximate(samples).grid == geometry.DomainGrid(11, 11, 11)
    grid = geometry.DomainGrid(11, 11, 11, h=0.5)
    assert qi.approximate(samples, h=0.5).grid == grid
    for h in [0.5, 1.0]:
        with pytest.raises(ValueError, match="not both"):
            qi.approximate(samples, grid, h=h)


def test_load_rejects_corrupt_files(rng, tmp_path):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    path = tmp_path / "model.qis"
    spline.save(path)
    blob = path.read_bytes()
    (tmp_path / "truncated.qis").write_bytes(blob[:-100])
    with pytest.raises(ValueError, match="truncated: 26928 bytes, expected "
                       "27028"):
        qi.QISpline.load(tmp_path / "truncated.qis")
    (tmp_path / "overlong.qis").write_bytes(blob + b"\0\0")
    with pytest.raises(ValueError, match="has 2 trailing bytes: 27030 bytes, "
                       "expected 27028"):
        qi.QISpline.load(tmp_path / "overlong.qis")
    (tmp_path / "magic.qis").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        qi.QISpline.load(tmp_path / "magic.qis")
    (tmp_path / "header.qis").write_bytes(blob[:7])  # magic, partial header
    with pytest.raises(ValueError, match="truncated"):
        qi.QISpline.load(tmp_path / "header.qis")
    # a header claiming m = 100000 (7.11 PiB) is refused before allocating
    (tmp_path / "huge.qis").write_bytes(
        blob[:8] + struct.pack("<III", 100000, 100000, 100000) + blob[20:92])
    with pytest.raises(ValueError, match="truncated: 92 bytes"):
        qi.QISpline.load(tmp_path / "huge.qis")


@pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0])
def test_load_rejects_bad_cell_width(rng, tmp_path, h):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    path = tmp_path / "model.qis"
    spline.save(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 20, h)  # after magic, version, m1..m3
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="h must be a positive finite"):
        qi.QISpline.load(path)


def _patch_matrix_by_cube_index():
    """The window-to-patch map built slot by slot through the support-cube
    index, as an independent reference for `qi._patch_matrix`."""
    coeffs = boxspline.get_table().coeffs
    cubes = boxspline.support_cubes()
    matrix = np.empty((125, 24 * 35))
    for slot, (wx, wy, wz) in enumerate(product(range(5), repeat=3)):
        row = cubes.index((2 - wx, 2 - wy, 4 - wz))
        matrix[slot] = coeffs[row].reshape(-1)
    return matrix


def test_patch_matrix_rows_follow_the_support_cube_index():
    matrix = qi._patch_matrix()
    reference = _patch_matrix_by_cube_index()
    assert matrix.shape == reference.shape == (125, 24 * 35)
    assert matrix.flags.c_contiguous
    for slot in range(125):
        np.testing.assert_array_equal(matrix[slot], reference[slot])


# The window slots as three index arrays, and the fancy-index gather of
# (n, 125) windows that `compile` once ran in flat chunks of cubes: the
# oracles of the dense export and of the evaluation offsets.
_WINDOW_OFFSETS = (
    np.repeat(np.arange(5), 25),
    np.tile(np.repeat(np.arange(5), 5), 5),
    np.tile(np.arange(5), 25),
)


def _windows(coeffs, cube):
    """Gather the (n, 125) coefficient windows feeding each cube's patches."""
    return coeffs[cube[:, 0, None] + _WINDOW_OFFSETS[0],
                  cube[:, 1, None] + _WINDOW_OFFSETS[1],
                  cube[:, 2, None] + _WINDOW_OFFSETS[2]]


def _patches_by_gather(spline, matrix):
    """Dense patches as gathered windows times ``matrix``, in flat chunks
    of 4 << 20 // 840 cubes."""
    m = spline.grid.m
    grids = np.meshgrid(*(np.arange(x) for x in m), indexing="ij")
    cubes = np.stack([g.reshape(-1) for g in grids], axis=1)
    flat = np.empty((len(cubes), 24 * 35))
    rows = (4 << 20) // (24 * 35)
    for start in range(0, len(cubes), rows):
        flat[start:start + rows] = _windows(
            spline.coefficients, cubes[start:start + rows]) @ matrix
    return flat.reshape(*m, 24, 35)


def test_dense_compile_equals_window_products_at_m32(f2_m32):
    """Dense patches of f2 at m = 32 are bit for bit the gathered window
    products with the reference map."""
    patches = f2_m32.compile("dense").compiled.patches
    expected = _patches_by_gather(f2_m32, _patch_matrix_by_cube_index())
    np.testing.assert_array_equal(_bits(patches), _bits(expected))


def _bitwise_spline(which, f2_m32):
    """The splines of the bitwise compile and lattice checks."""
    if which == "m=11":
        return qi.approximate(
            np.random.default_rng(11).normal(size=(13, 13, 13)))
    if which == "m=(40,23,12)":
        return qi.QISpline(geometry.DomainGrid(40, 23, 12, 0.1),
                           np.random.default_rng(15).normal(size=(44, 27, 16)))
    return f2_m32


@pytest.mark.parametrize("which", ["m=11", "m=(40,23,12)", "f2 m=32"])
@pytest.mark.parametrize("split", [False, True])
def test_dense_compile_is_bitwise_the_gather_oracle(f2_m32, monkeypatch,
                                                    which, split):
    """Window slabs of a `sliding_window_view`, whole or split into 3-row
    slabs and a remainder, give the gathered patches bit for bit."""
    spline = _bitwise_spline(which, f2_m32)
    m1, m2, m3 = spline.grid.m
    if split:
        monkeypatch.setattr(qi, "_GATHER_CHUNK", 3 * m2 * m3 * 125 + 7)
        assert m1 % 3
    patches = spline.compile("dense").compiled.patches
    expected = _patches_by_gather(spline, qi._patch_matrix())
    np.testing.assert_array_equal(_bits(patches), _bits(expected))


def test_dense_compile_holds_one_window_slab(f2_m32):
    """Beyond the patches, `compile` holds one slab of windows (at m = 32,
    8 rows of 1 MiB), each freed before the next is copied."""
    m1, m2, m3 = f2_m32.grid.m
    rows = min(m1, max(1, qi._GATHER_CHUNK // (m2 * m3 * 125)))
    assert rows < m1
    slab = rows * m2 * m3 * 125 * 8
    qi._patch_matrix()  # the box-spline table, outside the trace
    tracemalloc.start()
    try:
        patches = f2_m32.compile("dense").compiled.patches
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= patches.nbytes + slab + (2 << 20)


def test_compile_budget_and_size_error(rng, monkeypatch):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    with monkeypatch.context() as patch:
        patch.setattr(qi, "DEFAULT_COMPILE_BUDGET", 1000)
        with pytest.raises(qi.SizeError) as info:
            spline.compile("dense")
        err = info.value
        assert err.required > err.budget == 1000
        assert "byte" in str(err)
        assert "mode='auto'" in str(err)
        # auto falls back to a streamed plan under the same budget
        streamed = spline.compile("auto")
        assert streamed.compiled.mode == "streamed"
        assert streamed.compiled.slab_rows >= 1
    # and a dense plan within a generous budget
    dense = spline.compile("auto")
    assert dense.compiled.mode == "dense"
    assert dense.compiled.nbytes == 11 * 11 * 11 * 24 * 35 * 8


def test_active_mask_matches_index_set(grid11):
    """`classify` accepts exactly the indices of `active_mask`, over the
    index box and one layer beyond it on every side."""
    mask = domain.active_mask(grid11)
    assert mask.shape == (15, 15, 15)
    assert int(mask.sum()) == 3211
    for m in [(11, 11, 11), (12, 13, 11), (40, 40, 12)]:
        grid = geometry.DomainGrid(*m, 1.0)
        active = np.pad(domain.active_mask(grid), 1)
        for alpha in product(*(range(-2, n + 4) for n in m)):
            try:
                domain.classify(alpha, grid)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == active[tuple(a + 2 for a in alpha)], alpha
    rng = np.random.default_rng(2)
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), grid11)
    assert (spline.coefficients[~mask] == 0).all()


def test_approximate_input_validation():
    with pytest.raises(ValueError):
        qi.approximate(np.zeros((12, 13, 13)), h=1.0)  # m1 = 10 < 11
    with pytest.raises(ValueError):
        qi.approximate(np.zeros((13, 13)), h=1.0)
    with pytest.raises(ValueError):
        grid = geometry.DomainGrid(11, 11, 11, 1.0)
        qi.approximate(np.zeros((14, 13, 13)), grid)  # shape/grid mismatch
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.zeros((13, 13, 13))
        samples[4, 12, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qi.approximate(samples, h=1.0)


def test_non_real_samples_and_points_rejected(rng):
    """Complex, bool and str samples or points fail with one ValueError
    instead of being cast (a complex array would lose its imaginary part)."""
    samples = rng.normal(size=(13, 13, 13))
    spline = qi.approximate(samples, h=1.0)
    point = np.array([[1.5, 2.5, 3.5]])
    for dtype in (complex, bool, str):
        with pytest.raises(ValueError, match="samples must be a real"):
            qi.approximate(samples.astype(dtype), h=1.0)
        for call in (spline.eval, spline.gradient):
            for bad in (point.astype(dtype), point[0].astype(dtype).tolist()):
                with pytest.raises(ValueError, match="points must be a real"):
                    call(bad)


def test_nonfinite_coefficients_rejected(rng, tmp_path):
    """Non-finite values, and anything but a real integer or floating
    ndarray, fail with one ValueError when the spline is made."""
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    grid = spline.grid
    for bad in ([[0]], spline.coefficients.tolist(),
                spline.coefficients.astype(complex),
                spline.coefficients.astype(object),
                np.zeros((15, 15, 15), dtype=bool)):
        with pytest.raises(ValueError, match="real integer or floating"):
            qi.QISpline(grid, bad)
    with pytest.raises(ValueError, match="does not match grid"):
        qi.QISpline(grid, np.zeros((15, 15)))
    for dtype in (np.int32, np.uint8, np.float32):
        cast = qi.QISpline(grid, spline.coefficients.astype(dtype))
        assert np.isfinite(cast.eval([[1.5, 2.5, 3.5]])).all()
    for bad in (np.nan, np.inf, -np.inf):
        coeffs = spline.coefficients.copy()
        coeffs[5, 6, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qi.QISpline(spline.grid, coeffs)
    path = tmp_path / "model.qis"
    spline.save(path)
    blob = bytearray(path.read_bytes())
    head = len(qi.QISpline.MAGIC) + struct.calcsize("<IIIId")
    blob[head + 8 * 100:head + 8 * 101] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="non-finite"):
        qi.QISpline.load(path)


# -- blocked evaluation against the translate sums ---------------------------

GAMMAS = [g for g in product(range(4), repeat=3) if sum(g) <= 3]


def _translate_sum(spline, pts, gamma):
    """D^gamma Qf as the sum of the 125 translates around each point.

    On an upper domain face the translate argument is moved one ulp inward,
    so the table takes the piece inside the domain, as the spline does
    (third derivatives jump across cube faces).
    """
    table = boxspline.get_table()
    m = np.array(spline.grid.m)
    u = pts / spline.grid.h
    cube = np.clip(np.ceil(u).astype(np.int64) - 1, 0, m - 1)
    upper = u >= m
    out = np.zeros(len(pts))
    for offset in product(range(-1, 4), repeat=3):
        alpha = cube + offset
        arg = u - alpha + boxspline.TRANSLATE_OFFSET
        arg = np.where(upper, np.nextafter(arg, -np.inf), arg)
        coeff = spline.coefficients[tuple((alpha + 1).T)]
        out += coeff * table.eval_derivative(arg, gamma)
    return out / spline.grid.h ** sum(gamma)


def _point_sets(rng, grid, n=150):
    """Random points, points on the diagonal planes x = y and x = -z inside
    cubes, and points on each of the six domain faces."""
    m = np.array(grid.m)
    cube = rng.integers(0, m, size=(n, 3))
    local = rng.uniform(size=(n, 3))
    on_xy = local.copy()
    on_xy[:, 1] = on_xy[:, 0]
    on_xz = local.copy()
    on_xz[:, 2] = 1.0 - on_xz[:, 0]
    sets = {"random": rng.uniform(size=(n, 3)) * m,
            "x=y": cube + on_xy, "x=-z": cube + on_xz}
    for axis in range(3):
        for side in (0, 1):
            face = rng.uniform(size=(n // 3, 3)) * m
            face[:, axis] = side * m[axis]
            sets[f"face {'-+'[side]}{'xyz'[axis]}"] = face
    return {name: pts * grid.h for name, pts in sets.items()}


@pytest.fixture(scope="module")
def spline_and_points():
    rng = np.random.default_rng(31)
    spline = qi.approximate(rng.normal(size=(13, 14, 15)), h=0.5)
    return spline, _point_sets(rng, spline.grid)


def test_blocked_eval_matches_direct(spline_and_points):
    spline, sets = spline_and_points
    for name, pts in sets.items():
        direct = spline.eval(pts, mode="direct")
        for mode in ("auto", "compiled"):
            np.testing.assert_allclose(spline.eval(pts, mode=mode), direct,
                                       rtol=0, atol=1e-11, err_msg=name)


@pytest.mark.parametrize("gamma", GAMMAS,
                         ids=lambda g: "".join(map(str, g)))
def test_blocked_derivatives_match_translate_sums(spline_and_points, gamma):
    spline, sets = spline_and_points
    for name, pts in sets.items():
        expected = _translate_sum(spline, pts, gamma)
        np.testing.assert_allclose(spline.eval_derivative(pts, gamma),
                                   expected, rtol=0, atol=1e-11,
                                   err_msg=name)


@pytest.mark.parametrize("gamma", GAMMAS,
                         ids=lambda g: "".join(map(str, g)))
def test_derivatives_on_the_tie_lattice_match_direct_sums(spline_and_points,
                                                          gamma):
    """On the lattice of spacing h / 4 every point lies on cube faces or
    diagonal planes, where tetrahedra meet; each derivative still equals
    the sum of translates (``mode="direct"`` for values), on 2000 of its
    points.  A third derivative jumps there, so it is taken on the
    tetrahedron `locate` picks: it is affine on each tetrahedron, hence
    2 D(p + d) - D(p + 2d) with d a quarter of the way to its centroid."""
    spline, _ = spline_and_points
    pts = _lattice_points(spline.grid, (4, 4, 4))
    pts = pts[np.random.default_rng(46).permutation(len(pts))[:2000]]
    if gamma == (0, 0, 0):
        got, expected = spline.eval(pts), spline.eval(pts, mode="direct")
    elif sum(gamma) < 3:
        got = spline.eval_derivative(pts, gamma)
        expected = _translate_sum(spline, pts, gamma)
    else:
        got = spline.eval_derivative(pts, gamma)
        cube, tet, _ = geometry.locate(pts, spline.grid)
        centroid = (cube + geometry.TET_VERTICES_UNIT[tet].mean(axis=1))
        step = (centroid * spline.grid.h - pts) / 4
        expected = (2 * _translate_sum(spline, pts + step, gamma)
                    - _translate_sum(spline, pts + 2 * step, gamma))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11)


def test_blocked_gradient_matches_translate_sums(spline_and_points):
    spline, sets = spline_and_points
    for name, pts in sets.items():
        grad = spline.gradient(pts)
        for axis, gamma in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            np.testing.assert_allclose(grad[:, axis],
                                       _translate_sum(spline, pts, gamma),
                                       rtol=0, atol=1e-11, err_msg=name)


def test_gradient_locates_each_block_once(rng, monkeypatch):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    pts = _probe_points(rng, spline.grid, 3 * qi._EVAL_BLOCK + 5)
    calls = []
    real = qi.locate

    def counting(points, grid):
        calls.append(len(points))
        return real(points, grid)

    monkeypatch.setattr(qi, "locate", counting)
    spline.gradient(pts)
    assert calls == [qi._EVAL_BLOCK] * 3 + [5]


def test_basis_is_built_per_run(rng, monkeypatch):
    """`_evaluate` asks for the Bernstein basis of one run of
    ``_SLAB // 53`` points at a time, never of a whole block."""
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    n = 2 * qi._EVAL_BLOCK + 5
    pts = _probe_points(rng, spline.grid, n)
    rows = []
    real = qi.bernstein_basis

    def counting(bary, degree):
        rows.append(len(bary))
        return real(bary, degree)

    monkeypatch.setattr(qi, "bernstein_basis", counting)
    for call in (spline.eval, spline.gradient,
                 lambda p: spline.eval_derivative(p, (2, 0, 1))):
        rows.clear()
        call(pts)
        assert max(rows) <= qi._SLAB // 53
        assert sum(rows) == n


def test_eval_memory_does_not_grow_with_n(rng):
    """A 10^6-point evaluation allocates its result plus a working set
    bounded by the block size, not by the call."""
    spline = qi.approximate(rng.normal(size=(34, 34, 34)), h=1 / 32)
    pts = _probe_points(rng, spline.grid, 1_000_000)
    spline.eval(pts[:10])  # build the cached blocks outside the trace
    tracemalloc.start()
    try:
        out = spline.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 16 << 20


# -- per-tetrahedron blocks, canonical tetrahedron and symmetries ------------

def _per_tet_blocks(gammas):
    """Every tetrahedron's own float maps, as evaluation built them before
    the canonical tetrahedron: ``rows[t]`` its 53 nonzero window slots,
    ascending, and ``blocks[t]`` (53, q*d) the D^gamma patches read from
    `qi._patch_matrix` and reduced in float64 along tetrahedron t's own
    axis directions."""
    matrix = qi._patch_matrix().reshape(125, 24, -1)
    rows = np.array([np.flatnonzero(matrix[:, t].any(axis=1))
                     for t in range(24)])
    value = matrix[rows, np.arange(24)[:, None]]  # (24, 53, 35)
    parts = []
    for gamma in gammas:
        coeffs, degree = value, 4
        for axis in range(3):
            for _ in range(gamma[axis]):
                coeffs = bernstein.derivative_reduce(
                    coeffs, geometry.AXIS_DIRECTIONS[:, None, axis], degree)
                degree -= 1
        parts.append(coeffs)
    return rows, np.concatenate(parts, axis=-1)


def _reduce_exact(coeffs, direction, degree):
    """D_a of integer BB coefficients (..., n_degree) of one degree, in
    int64: c'_nu = degree * sum_m a_m c_{nu + e_m}."""
    column = {nu: i for i, nu in enumerate(bernstein.multi_indices(degree))}
    lower = bernstein.multi_indices(degree - 1)
    out = np.zeros(coeffs.shape[:-1] + (len(lower),), dtype=np.int64)
    for j, nu in enumerate(lower):
        for m in range(4):
            up = tuple(n + (i == m) for i, n in enumerate(nu))
            out[..., j] += int(direction[m]) * coeffs[..., column[up]]
    return degree * out


def _exact_blocks(gammas):
    """Every tetrahedron's own maps in exact integers: ``rows[t]`` as in
    `_per_tet_blocks`, and ``blocks[t]`` (53, q*d) the D^gamma patches of
    the table's numerators, over the returned common denominator, reduced
    along t's own (integer) axis directions."""
    table = boxspline.get_table()
    numerators = table.numerators[::-1].reshape(125, 24, -1)
    rows = np.array([np.flatnonzero(numerators[:, t].any(axis=1))
                     for t in range(24)])
    blocks = []
    for t in range(24):
        parts = []
        for gamma in gammas:
            coeffs, degree = numerators[rows[t], t], 4
            for axis in range(3):
                for _ in range(gamma[axis]):
                    coeffs = _reduce_exact(
                        coeffs, geometry.AXIS_DIRECTIONS[t, axis], degree)
                    degree -= 1
            parts.append(coeffs)
        blocks.append(np.concatenate(parts, axis=-1))
    return rows, np.array(blocks), table.denominator


def _slot_image(t, slots):
    """g_t of flat window slots, about the window centre 2."""
    w = np.stack(np.unravel_index(slots, (5, 5, 5)), axis=-1) - 2
    image = np.empty_like(w)
    image[:, geometry.SYMMETRY_PERM[t]] = w * geometry.SYMMETRY_SIGN[t] + 2
    return np.ravel_multi_index(image.T, (5, 5, 5))


def _orbit(gammas):
    """The orbit of ``gammas`` under the symmetries, in the order of first
    appearance over tetrahedra 0..23."""
    seen = []
    for perm in geometry.SYMMETRY_PERM:
        for gamma in gammas:
            primed = tuple(gamma[i] for i in perm)
            if primed not in seen:
                seen.append(primed)
    return seen


def test_symmetries_map_tetrahedron_0_onto_every_tetrahedron():
    """g_t takes tetrahedron 0's doubled vertices onto t's, in order, and
    slot w of tetrahedron 0's patch map onto slot g_t(w) of t's, bit for
    bit in the float table and exactly in the rational one."""
    centred = geometry.TET_VERTICES_UNIT_2X - 1
    matrix = qi._patch_matrix().reshape(125, 24, -1)
    exact = boxspline.get_table().numerators[::-1].reshape(125, 24, -1)
    assert sorted(map(tuple, geometry.SYMMETRY_PERM.tolist())) == sorted(
        [p for p in permutations(range(3))] * 4)
    for t in range(24):
        perm, sign = geometry.SYMMETRY_PERM[t], geometry.SYMMETRY_SIGN[t]
        image = np.empty_like(centred[0])
        image[:, perm] = centred[0] * sign
        np.testing.assert_array_equal(image, centred[t])
        slots = _slot_image(t, np.arange(125))
        assert sorted(slots) == list(range(125))
        np.testing.assert_array_equal(_bits(matrix[slots, t]),
                                      _bits(matrix[:, 0]))
        np.testing.assert_array_equal(exact[slots, t], exact[:, 0])


@pytest.mark.parametrize("gammas", [
    ((0, 0, 0),), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, 0, 0),),
    ((1, 1, 0),), ((1, 1, 1),), ((2, 0, 1),), ((0, 0, 3),)],
    ids=lambda g: "-".join("".join(map(str, x)) for x in g))
def test_tet_blocks_hold_one_block_per_orbit(gammas):
    """One canonical block for the permutations of ``gammas``: tetrahedron
    0's exact derivative patches, each rounded once; each tetrahedron's
    slots, pick and sign give its own exact patches, integer for
    integer."""
    slots, block, pick, sign = qi._tet_blocks(gammas)
    orbit = _orbit(gammas)
    assert set(orbit) == {tuple(g[list(p)]) for g in np.array(gammas)
                          for p in permutations(range(3))}
    d = bernstein.DIMENSION[4 - sum(gammas[0])]
    rows, canonical, den = _exact_blocks(orbit)
    np.testing.assert_array_equal(slots[0], rows[0])
    np.testing.assert_array_equal(_bits(block), _bits(canonical[0] / den))
    canonical = canonical[0].reshape(53, -1, d)
    rows, blocks, _ = _exact_blocks(gammas)
    for t in range(24):
        np.testing.assert_array_equal(slots[t], _slot_image(t, rows[0]))
        place = np.searchsorted(rows[t], slots[t])
        assert np.array_equal(rows[t][place], slots[t])
        for k in range(len(gammas)):
            np.testing.assert_array_equal(
                blocks[t][place, k * d:(k + 1) * d],
                sign[t, k] * canonical[:, pick[t, k]], err_msg=f"{t} {k}")


def _window_index(spline, points):
    """Located tetrahedra, barycentrics and the flat index of each point's
    window slot 0."""
    _, m2, m3 = spline.coefficients.shape
    cube, tet, bary = geometry.locate(points, spline.grid)
    return tet, bary, (cube[:, 0] * m2 + cube[:, 1]) * m3 + cube[:, 2]


def _flat_window(spline):
    _, m2, m3 = spline.coefficients.shape
    return ((_WINDOW_OFFSETS[0] * m2 + _WINDOW_OFFSETS[1]) * m3
            + _WINDOW_OFFSETS[2])


def _per_tet_evaluate(spline, points, gammas):
    """D^gamma Qf through each tetrahedron's own float block
    (`_per_tet_blocks`) and the per-column basis."""
    rows, blocks = _per_tet_blocks(gammas)
    tet, bary, base = _window_index(spline, points)
    coeffs = np.ravel(spline.coefficients)[
        base[:, None] + _flat_window(spline)[rows[tet]]]
    out = np.empty((len(points), len(gammas)))
    order = sum(gammas[0])
    basis = oracle_basis(bary, 4 - order)
    for t in np.unique(tet):
        on = tet == t
        patch = (coeffs[on] @ blocks[t]).reshape(on.sum(), len(gammas), -1)
        out[on] = np.einsum("iqj,ij->iq", patch, basis[on])
    return out / spline.grid.h ** order


def _exact_evaluate(spline, points, gammas):
    """D^gamma Qf at `locate`'s barycentrics through each tetrahedron's
    exact integer block (`_exact_blocks`), the products and sums in
    extended precision: their rounding is 2^11 times finer than
    float64's, so its error is negligible beside a float64 evaluation's."""
    order = sum(gammas[0])
    rows, blocks, den = _exact_blocks(gammas)
    tet, bary, base = _window_index(spline, points)
    coeffs = np.ravel(spline.coefficients).astype(np.longdouble)[
        base[:, None] + _flat_window(spline)[rows[tet]]]
    lam = bary.astype(np.longdouble)
    basis = np.stack([bernstein.multinomial(nu)
                      * np.prod(lam ** np.array(nu), axis=1)
                      for nu in bernstein.multi_indices(4 - order)], axis=1)
    out = np.empty((len(points), len(gammas)), dtype=np.longdouble)
    for t in np.unique(tet):
        on = tet == t
        patch = (coeffs[on] @ blocks[t].astype(np.longdouble)).reshape(
            on.sum(), len(gammas), -1)
        out[on] = (patch * basis[on, None]).sum(axis=2)
    return out / (den * np.longdouble(spline.grid.h) ** order)


def _canonical_evaluate(spline, points, gammas):
    """`QISpline._evaluate` as a loop over each block's tetrahedra: the
    slots of tetrahedron t from `geometry`'s g_t, tetrahedron 0's exact
    block rounded once, one product and ``einsum`` per run of
    ``_SLAB // 53`` points with the per-column basis, and each
    tetrahedron's column and sign picked in turn."""
    order = sum(gammas[0])
    orbit = _orbit(gammas)
    rows, block, den = _exact_blocks(orbit)
    rows, block = rows[0], block[0] / den
    d = bernstein.DIMENSION[4 - order]
    window = _flat_window(spline)
    flat = np.ravel(spline.coefficients)
    run = qi._SLAB // 53
    out = np.empty((len(points), len(gammas)))
    for start in range(0, len(points), qi._EVAL_BLOCK):
        tet, bary, base = _window_index(
            spline, points[start:start + qi._EVAL_BLOCK])
        index = np.empty((len(tet), len(rows)), dtype=np.intp)
        for t in range(24):
            index[tet == t] = base[tet == t, None] + window[_slot_image(
                t, rows)]
        coeffs = flat[index]
        basis = oracle_basis(bary, 4 - order)
        values = np.empty((len(tet), len(orbit)))
        for lo in range(0, len(tet), run):
            patch = coeffs[lo:lo + run] @ block
            values[lo:lo + run] = np.einsum(
                "iqj,ij->iq", patch.reshape(len(patch), -1, d),
                basis[lo:lo + run])
        part = out[start:start + qi._EVAL_BLOCK]
        for t in range(24):
            perm = geometry.SYMMETRY_PERM[t]
            for k, gamma in enumerate(gammas):
                primed = tuple(gamma[i] for i in perm)
                sign = np.prod(geometry.SYMMETRY_SIGN[t] ** np.array(primed))
                part[tet == t, k] = (values[tet == t, orbit.index(primed)]
                                     * float(sign))
        if order:
            part /= spline.grid.h ** order
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


_CALLS = [((0, 0, 0),), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
          *[(gamma,) for gamma in [(2, 0, 0), (1, 1, 0), (0, 1, 1),
                                   (1, 1, 1), (0, 0, 3), (2, 0, 1)]]]


def _evaluation_cases(which, f2_m32):
    """The spline, its point sets (block edges, the tie lattice, diagonal
    planes and domain faces) and, per set, the result of each call in
    `_CALLS`."""
    rng = np.random.default_rng(45)
    if which == "f2 m=32":
        spline = f2_m32
    else:
        spline = qi.approximate(rng.normal(size=(13, 14, 15)), h=1 / 16)
    grid = spline.grid
    ties = _lattice_points(grid, (4, 4, 4))  # faces and diagonal planes
    sets = [_probe_points(rng, grid, n) for n in (1, 32, 4095, 4096, 4097)]
    sets += [ties[rng.permutation(len(ties))[:4097]],
             *_point_sets(rng, grid).values()]
    for pts in sets:
        got = [spline.eval(pts)[:, None], spline.gradient(pts)]
        got += [spline.eval_derivative(pts, gammas[0])[:, None]
                for gammas in _CALLS[2:]]
        yield spline, pts, got


@pytest.mark.parametrize("which", ["m=(11,12,13)", "f2 m=32"])
def test_evaluation_is_bitwise_the_per_segment_oracle(f2_m32, which):
    """Values, gradients and derivatives are bit for bit the
    canonical-tetrahedron loop, whose block comes from the exact table."""
    for spline, pts, got in _evaluation_cases(which, f2_m32):
        for gammas, values in zip(_CALLS, got):
            np.testing.assert_array_equal(
                _bits(values), _bits(_canonical_evaluate(spline, pts,
                                                         gammas)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("which", ["m=(11,12,13)", "f2 m=32"])
def test_evaluation_is_within_1e_14_of_exact_sums(f2_m32, which):
    """Over all point sets of a spline, every call is within 1e-14 of
    max |D^gamma| of the exact per-tetrahedron sums, except f2's third
    derivatives.  There the 53 terms of a patch coefficient cancel about
    1e3 to 5e3-fold, and the float64 sums reach 1.8e-13 (D^111), 2.4e-14
    (D^003) and 3.8e-14 (D^201) of max; they are held to be no farther
    from the exact sums than the per-tetrahedron float blocks evaluation
    used before (2.1e-12, 2.0e-12 and 3.4e-12)."""
    cases = list(_evaluation_cases(which, f2_m32))
    pts = np.concatenate([case[1] for case in cases])
    spline = cases[0][0]
    for k, gammas in enumerate(_CALLS):
        values = np.concatenate([case[2][k] for case in cases])
        exact = _exact_evaluate(spline, pts, gammas)
        bound = 1e-14 * float(np.abs(exact).max())
        if which == "f2 m=32" and sum(gammas[0]) == 3:
            before = _per_tet_evaluate(spline, pts, gammas)
            bound = max(bound, float(np.abs(before - exact).max()))
        assert float(np.abs(values - exact).max()) <= bound, gammas


# --------------------------------------------------------------------------
# aligned lattices by correlation (`qi._lattice_values`)
# --------------------------------------------------------------------------

def _lattice_points(grid, r):
    axes = [np.arange(f * m + 1) * (grid.h / f) for f, m in zip(r, grid.m)]
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("m, r", [((8, 8, 8), (1, 1, 1)),
                                  ((8, 8, 8), (2, 2, 2)),
                                  ((4, 6, 8), (6, 4, 3))])
def test_eval_lattice_matches_eval(rng, m, r):
    grid = geometry.DomainGrid(*m, h=0.3)
    spline = qi.QISpline(grid, rng.normal(size=tuple(n + 4 for n in m)))
    values = qi._lattice_values(spline, r)
    assert values.shape == tuple(f * n + 1 for f, n in zip(r, m))
    expected = spline.eval(_lattice_points(grid, r))
    scale = np.abs(spline.coefficients).max()
    assert np.abs(values.reshape(-1) - expected).max() <= 1e-14 * scale


def test_eval_lattice_reproduces_cubics():
    grid = geometry.DomainGrid(11, 12, 13, 1 / 12)

    def p(x, y, z):
        return ((x - 0.3) * (y + 0.1) * (z - 0.7)
                + 2.0 * x * x * z - y * y * y + 0.25)

    spline = qi.approximate(_samples_of(p, grid), grid)
    pts = _lattice_points(grid, (2, 3, 1))
    exact = p(pts[:, 0], pts[:, 1], pts[:, 2])
    values = qi._lattice_values(spline, (2, 3, 1)).reshape(-1)
    assert np.abs(values - exact).max() <= 1e-12


def _lattice_per_tap(spline, r):
    """The oracle: each offset's 53 taps added one at a time into a
    zeroed block of whole-axis slices, one temporary per tap.  The taps'
    weights are `qi._kernels`', in window order, checked against each
    tetrahedron's own block times the basis: the two 35-term products sum
    in different orders, so each weight is held to the dot-product bound
    2 * 35 eps sum |block * basis|, not to its bits."""
    rows, blocks = _per_tet_blocks(((0, 0, 0),))
    offsets = list(np.ndindex(*(x + 1 for x in r)))
    local = np.array(offsets) / np.array(r)
    tet, bary = geometry.locate_unit(local)
    basis = bernstein.bernstein_basis(bary)
    expected = np.einsum("nsj,nj->ns", blocks[tet], basis)
    bound = 70 * np.finfo(float).eps * np.einsum(
        "nsj,nj->ns", np.abs(blocks[tet]), np.abs(basis))
    got_tet, kernels = qi._kernels(local, ((0, 0, 0),), spline.grid.h)
    np.testing.assert_array_equal(got_tet, tet)
    slots = qi._tet_blocks(((0, 0, 0),))[0][tet]
    kernels = np.take_along_axis(kernels[:, 0], np.argsort(slots, axis=1),
                                 axis=1)
    assert (np.abs(kernels - expected) <= bound).all()
    taps = np.stack(_WINDOW_OFFSETS, axis=1)[rows[tet]]
    m = spline.grid.m
    out = np.empty(tuple(x * n + 1 for x, n in zip(r, m)))
    for k, kernel, tap in zip(offsets, kernels, taps):
        size = [n if ka else 1 for ka, n in zip(k, m)]
        acc = np.zeros(size)
        for weight, (a, b, c) in zip(kernel, tap):
            acc += weight * spline.coefficients[a:a + size[0],
                                                b:b + size[1],
                                                c:c + size[2]]
        out[tuple(slice(ka, None, x) if ka else slice(0, 1)
                  for ka, x in zip(k, r))] = acc
    return out


@pytest.mark.parametrize("which, r", [
    ("m=11", (1, 1, 1)), ("m=11", (3, 3, 3)), ("m=11", (2, 3, 1)),
    ("m=(40,23,12)", (3, 2, 5)), ("f2 m=32", (1, 1, 1)),
    ("f2 m=32", (2, 2, 2)), ("f2 m=32", (4, 4, 4))])
@pytest.mark.parametrize("split", [False, True])
def test_eval_lattice_is_bitwise_the_per_tap_oracle(f2_m32, monkeypatch,
                                                    which, r, split):
    """Each offset correlated into one block, whole or in 3-row slabs and
    a remainder, gives the per-tap sums bit for bit."""
    spline = _bitwise_spline(which, f2_m32)
    m1, m2, m3 = spline.grid.m
    if split:
        monkeypatch.setattr(qi, "_SLAB", 3 * m2 * m3 + 7)
        assert m1 % 3
    np.testing.assert_array_equal(_bits(qi._lattice_values(spline, r)),
                                  _bits(_lattice_per_tap(spline, r)))


def test_eval_lattice_of_the_scan_shape_is_bitwise_the_oracle():
    """At (254, 254, 97) a whole block is 24638-element planes, one per
    slab."""
    spline = qi.QISpline(geometry.DomainGrid(254, 254, 97, 1.0),
                         np.random.default_rng(3).normal(size=(258, 258, 101)))
    np.testing.assert_array_equal(_bits(qi._lattice_values(spline,
                                                           (1, 1, 1))),
                                  _bits(_lattice_per_tap(spline, (1, 1, 1))))


@pytest.mark.parametrize("m", [(128, 128, 48), (254, 254, 97)],
                         ids=["128x128x48", "254x254x97"])
def test_eval_lattice_holds_the_result_and_two_slabs(m):
    """Beyond the result, `_lattice_values` holds `_correlate`'s accumulator
    and product slabs: each offset is summed into its strided view of the
    result, through no block of its own."""
    m1, m2, m3 = m
    spline = qi.QISpline(geometry.DomainGrid(*m, 1.0),
                         np.random.default_rng(4).normal(
                             size=tuple(n + 4 for n in m)))
    slab = min(m1, max(1, qi._SLAB // (m2 * m3))) * m2 * m3 * 8
    qi._tet_blocks(((0, 0, 0),))  # the box-spline table, outside the trace
    tracemalloc.start()
    try:
        out = qi._lattice_values(spline, (1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * slab + (2 << 20)


def test_eval_lattice_correlates_only_nonzero_taps(monkeypatch):
    """Zero weights of a kernel are left out: at r = 1 every offset is a
    cube corner, where 32 of the 53 taps are nonzero."""
    weights = []
    correlate = qi._correlate

    def spy(src, taps, w, out):
        weights.append(np.array(w))
        correlate(src, taps, w, out)

    monkeypatch.setattr(qi, "_correlate", spy)
    spline = qi.QISpline(geometry.DomainGrid(11, 11, 11),
                         np.random.default_rng(6).normal(size=(15, 15, 15)))
    qi._lattice_values(spline, (1, 1, 1))
    assert len(weights) == 8
    assert all(len(w) == 32 and (w != 0).all() for w in weights)


@pytest.mark.parametrize("r", [0, True, 1.5, (1, 2), (1, 0, 1), "2"])
def test_eval_lattice_rejects_bad_factors(r, monkeypatch):
    """`_lattice_values` has no validator of its own: its one caller,
    `grid_values`, takes counts through `geometry.as_counts`, so a
    malformed value fails there with the one ValueError and never reaches
    the lattice."""
    monkeypatch.setattr(qi, "_lattice_values", None)
    spline = qi.QISpline(geometry.DomainGrid(4, 4, 4),
                         np.zeros((8, 8, 8)))
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_values(spline, r)


# ---------------------------------------------------------------------------
# uniform grids over the domain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def f2_m32():
    from boxqi import volume
    samples, grid, _ = volume.sample_test_function("f2", 32)
    return qi.approximate(samples, grid)


def _anisotropic_spline():
    """A random spline on m = (22, 22, 13): n = 25 puts 2 but not 13 into
    n - 1 = 24, and n = 44 puts none of them into 43."""
    rng = np.random.default_rng(44)
    spline = qi.approximate(rng.normal(size=(24, 24, 15)), h=1 / 16)
    assert spline.grid.m == (22, 22, 13)
    return spline


def _grid_splines(f2_m32):
    """Unaligned grids, and n = 1 (the one point 0, n - 1 = 0) and n = 2
    (the corners)."""
    spline = _anisotropic_spline()
    return [(f2_m32, 67), (spline, 25), (spline, 44), (spline, 1),
            (spline, 2)]


def _locate_rule(m, n):
    """Cube and local offset of every plane j m / (n - 1) of an axis by
    `locate`'s rule, cube = clamp(ceil(u) - 1), in exact rationals."""
    cubes, local = [], []
    for j in range(n):
        u = Fraction(j * m, max(n - 1, 1))
        cube = min(max(math.ceil(u) - 1, 0), m - 1)
        cubes.append(cube)
        local.append(u - cube)
    return cubes, local


@pytest.mark.parametrize("m, n", [(22, 25), (13, 25), (32, 101), (32, 139),
                                  (64, 139), (22, 44), (11, 12), (7, 2),
                                  (5, 1)])
def test_grid_axis_offsets_follow_the_locate_rule(m, n):
    cube, num, period, copies = qi._grid_axis(m, n)
    assert period == (n - 1) // math.gcd(n - 1, m) and len(cube) == period + 1
    cubes, local = _locate_rule(m, n)
    for j in range(n):
        k, t = divmod(j - 1, period) if j else (0, -1)
        t += 1
        assert cubes[j] == cube[t] + k * (m // copies), j
        assert local[j] == Fraction(int(num[t]), max(n - 1, 1)), j
    assert len(set(local)) == period + 1  # the tile's offsets are distinct


def test_grid_route_locates_each_exact_offset_triple_once(monkeypatch):
    """One `locate_unit` row and one Bernstein row per distinct offset
    triple, 13 * 13 * 25 at m = (22, 22, 13), n = 25; the located
    tetrahedra and barycentrics are `locate_unit`'s at the exact offsets."""
    spline, n = _anisotropic_spline(), 25
    located, rows = [], []
    locate_unit, basis = qi.locate_unit, qi.bernstein_basis

    def record_locate(local):
        tet, bary = locate_unit(local)
        located.append((np.array(local), tet, bary))
        return tet, bary

    def count(bary, *args):
        rows.append(len(bary))
        return basis(bary, *args)

    monkeypatch.setattr(qi, "locate_unit", record_locate)
    monkeypatch.setattr(qi, "bernstein_basis", count)
    monkeypatch.setattr(qi.QISpline, "eval", None)  # no point evaluation
    qi.grid_values(spline, n)
    assert sum(rows) == 13 * 13 * 25
    local = np.concatenate([a for a, _, _ in located])
    exact = {tuple(float(x) for x in triple) for triple in product(
        *(set(_locate_rule(m, n)[1]) for m in spline.grid.m))}
    assert len(local) == len(exact)
    assert {tuple(row) for row in local.tolist()} == exact
    tet, bary = locate_unit(local)
    np.testing.assert_array_equal(np.concatenate([t for _, t, _ in located]),
                                  tet)
    np.testing.assert_array_equal(np.concatenate([b for _, _, b in located]),
                                  bary)


def test_unaligned_grid_values_match_direct_sums_at_the_grid_points(f2_m32):
    """The route evaluates at the exact lattice, `grid_points` at linspace
    points an ulp or so away.  Its values stay within 1e-14 of max of point
    `eval` on the whole grid and of the direct sums on 4000 seeded points,
    and its gradients likewise of `gradient` and of the extended-precision
    oracle."""
    gradient = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rng = np.random.default_rng(12)
    for spline, n in _grid_splines(f2_m32):
        points = qi.grid_points(spline.grid, n, np.arange(n ** 3))
        values = qi.grid_values(spline, n).reshape(-1)
        grads = np.empty((n, n, n, 3))
        for j, k, block in spline.grid_blocks(n, gradient):
            grads[j:j + block.shape[0], k:k + block.shape[1]] = block
        grads = grads.reshape(-1, 3)
        some = rng.choice(n ** 3, size=min(n ** 3, 4000), replace=False)
        for got, want in [
                (values, spline.eval(points)),
                (values[some], spline.eval(points[some], mode="direct")),
                (grads, spline.gradient(points)),
                (grads[some], _exact_evaluate(spline, points[some],
                                              gradient))]:
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 1e-14 * scale


@pytest.mark.parametrize("gammas", [
    ((1, 0, 0),), ((2, 0, 1),), ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
    ids=["x", "xxz", "gradient"])
def test_grid_derivatives_match_point_derivatives(f2_m32, gammas):
    """Derivative kernels take, per tetrahedron, the block columns it
    picks; on unaligned grids `grid_blocks` stays within the documented
    7.1e-15 of max |D^gamma Qf| of point `eval_derivative` (`gradient` for
    the triple) at `grid_points`.  The f2 grid is left out at order 3:
    there the ulp between a `grid_points` point and its exact lattice
    point moves D^3 f2 by up to 1.5e-13 of its maximum, as in point
    evaluation alone."""
    cases = _grid_splines(f2_m32)[:3]
    for spline, n in cases[sum(gammas[0]) == 3:]:
        points = qi.grid_points(spline.grid, n, np.arange(n ** 3))
        got = np.empty((n, n, n, len(gammas)))
        for j, k, block in spline.grid_blocks(n, gammas):
            got[j:j + block.shape[0], k:k + block.shape[1]] = block
        got = got.reshape(-1, len(gammas))
        if len(gammas) == 3:
            want = spline.gradient(points)
        else:
            want = spline.eval_derivative(points, gammas[0])[:, None]
        scale = float(np.abs(want).max())
        assert scale > 0
        assert float(np.abs(got - want).max()) <= 7.1e-15 * scale


def test_grid_blocks_cover_every_point_once(f2_m32, monkeypatch):
    """Blocks of whole lines cover the grid once, whatever their order,
    with at most ``_EVAL_BLOCK`` kernels a batch: at m = (22, 22, 13),
    n = 44 a tile row holds 44 * 44 offset triples, 3 kernels each for the
    gradient, so a batch takes part of a row."""
    calls = []
    kernels = qi._kernels

    def count(local, *args):
        calls.append(len(local))
        return kernels(local, *args)

    monkeypatch.setattr(qi, "_kernels", count)
    for spline, n in _grid_splines(f2_m32):
        for gammas in [((0, 0, 0),), ((1, 0, 0), (0, 1, 0), (0, 0, 1))]:
            seen = np.zeros((n, n), dtype=int)
            for j, k, block in spline.grid_blocks(n, gammas):
                assert block.shape[2:] == (n, len(gammas))
                seen[j:j + block.shape[0], k:k + block.shape[1]] += 1
            assert (seen == 1).all()
            assert max(calls) * len(gammas) <= qi._EVAL_BLOCK
            calls.clear()


@pytest.mark.parametrize("n", [True, False, 2.0, 25.0, "25", None, 0, -3,
                               1.5, (1, 2), (1, 0, 1), "2", (5, True, 5),
                               (5, 5.0, 5), (5, 5, "5"), (5, 5, 5, 5),
                               [5, [5, 5]], {5}, np.True_, np.array(5),
                               (5, np.True_, 5), {5, 6, 7},
                               np.array([5.0, 5.0, 5.0])])
def test_grid_entry_points_reject_a_bad_size(f2_m32, n):
    """One count or three, each an integer (not bool) of at least 1: a
    count of the wrong length, a zero, a bool (numpy's too), a float, a
    string, None, a ragged list, a set or a 0-d array fails with the one
    ValueError through every uniform-grid reader."""
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_values(f2_m32, n)
    with pytest.raises(ValueError, match="n >= 1"):
        f2_m32.grid_blocks(n)
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_points(f2_m32.grid, n, [0])
    with pytest.raises(ValueError, match="n >= 1"):
        convergence.grid_summary(f2_m32, n)


def test_per_axis_grids_match_point_evaluation(f2_m32):
    """Each axis keeps its own count, on both routes ((65, 33, 33) is the
    lattice of factors (2, 1, 1), the others are not, one with a single
    plane): values within 1.6e-15 of max |Qf| of point ``eval`` at
    `grid_points`, gradients of `grid_blocks` within 7.1e-15 of max
    |grad Qf| of ``gradient``, the bounds the f2 grids are documented to."""
    gradient = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for n in [(65, 33, 33), (65, 45, 33), (1, 33, 30), (101, 45, 2)]:
        points = qi.grid_points(f2_m32.grid, n, np.arange(math.prod(n)))
        values = qi.grid_values(f2_m32, n)
        assert values.shape == n
        want = f2_m32.eval(points)
        assert (np.abs(values.reshape(-1) - want).max()
                <= 1.6e-15 * np.abs(want).max()), n
        grads = np.empty(n + (3,))
        for j, k, block in f2_m32.grid_blocks(n, gradient):
            grads[j:j + block.shape[0], k:k + block.shape[1]] = block
        want = f2_m32.gradient(points)
        assert (np.abs(grads.reshape(-1, 3) - want).max()
                <= 7.1e-15 * np.abs(want).max()), n


def test_a_count_per_axis_of_n_is_n(f2_m32):
    """(n, n, n) reads the bits n reads, on both routes: the values, the
    gradient blocks, the points and the summary; so do a numpy count and a
    1-d int array of three, read as the Python ints they hold."""
    spline = _anisotropic_spline()
    gradient = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for s, n in [(f2_m32, 33), (f2_m32, 37), (spline, 25), (spline, 1)]:
        for triple in [(n, n, n), np.array([n, n, n]), np.int64(n)]:
            np.testing.assert_array_equal(_bits(qi.grid_values(s, triple)),
                                          _bits(qi.grid_values(s, n)))
            for (j, k, a), (jj, kk, b) in zip(
                    s.grid_blocks(triple, gradient),
                    s.grid_blocks(n, gradient), strict=True):
                assert (j, k) == (jj, kk)
                np.testing.assert_array_equal(_bits(a), _bits(b))
            ids = np.arange(0, n ** 3, 7)
            np.testing.assert_array_equal(
                _bits(qi.grid_points(s.grid, triple, ids)),
                _bits(qi.grid_points(s.grid, n, ids)))
            summary = convergence.grid_summary(s, triple)
            assert summary == convergence.grid_summary(s, n)
            assert type(summary[0]) is int


def test_grid_blocks_rejects_mixed_orders(f2_m32):
    with pytest.raises(ValueError, match="one order"):
        f2_m32.grid_blocks(5, ((1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="gamma"):
        f2_m32.grid_blocks(5, ((0.5, 0, 0),))


def test_aligned_grid_values_come_from_the_lattice(f2_m32, monkeypatch):
    expected = qi._lattice_values(f2_m32, (2, 2, 2))
    monkeypatch.setattr(qi.QISpline, "eval", None)  # no point evaluation
    np.testing.assert_array_equal(qi.grid_values(f2_m32, 65), expected)


def test_the_scan_lattice_is_read_by_correlation(monkeypatch):
    """(255, 255, 98) points on m = (254, 254, 97) are the spline's own
    data lattice, factors (1, 1, 1), read by correlation, not by tiles."""
    factors = []
    monkeypatch.setattr(qi, "_lattice_values",
                        lambda spline, r: factors.append(list(r)))
    monkeypatch.setattr(qi.QISpline, "grid_blocks", None)
    spline = qi.QISpline(geometry.DomainGrid(254, 254, 97),
                         np.zeros((258, 258, 101)))
    qi.grid_values(spline, (255, 255, 98))
    assert factors == [[1, 1, 1]]


def test_streamed_grid_values_memory(f2_m32):
    """Sampling an unaligned R = 100 lattice holds the values plus one batch
    of kernels and one block, not the (R+1)^3 x 3 point array."""
    qi.grid_values(f2_m32, 3)  # build the cached blocks outside the trace
    tracemalloc.start()
    try:
        values = qi.grid_values(f2_m32, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (101, 101, 101)
    assert peak <= values.nbytes + (10 << 20)
