"""Quasi-interpolant construction, evaluation paths, derivatives, and
spline persistence."""

import struct
import tracemalloc
from itertools import product

import numpy as np
import pytest

from boxqi import bernstein, boxspline, domain, geometry, qi, stencils
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


def test_coefficients_match_per_class_stencils(rng):
    grid = geometry.DomainGrid(11, 11, 11, 1.0)
    data = rng.normal(size=(13, 13, 13))
    spline = qi.approximate(data, grid)
    for alpha in [(0, 0, -1), (6, 6, 6), (11, 0, 5), (-1, 3, 8),
                  (13, 5, 11), (2, 2, 2)]:
        slot = tuple(a + 1 for a in alpha)
        np.testing.assert_allclose(
            spline.coefficients[slot],
            stencils.coefficient(alpha, grid, data), rtol=1e-12)


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
    for alpha in domain.index_set(grid):
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
    index_set = domain.index_set(grid)

    def pairs(alpha):
        idx, w = stencils.functional(alpha, grid)
        return sorted(zip(map(tuple, (idx - alpha).tolist()), w.tolist()))

    for left, right in zip(runs, runs[1:]):
        assert any(
            pairs((left[0], b, c)) != pairs((right[0], b, c))
            for (b, _, _, _), (c, _, _, _) in product(runs, runs)
            if (left[0], b, c) in index_set and (right[0], b, c) in index_set
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
    colloc = bernstein.collocation_matrix(
        np.asarray(bernstein.domain_point_barycentrics(), float))
    for cube, tet in [((5, 6, 7), 3), ((0, 0, 0), 17), ((11, 4, 2), 21)]:
        verts = geometry.tetrahedra_of_cube(cube, grid)[tet]
        dp = geometry.domain_points(verts)
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


def test_load_rejects_corrupt_files(rng, tmp_path):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
    path = tmp_path / "model.qis"
    spline.save(path)
    blob = path.read_bytes()
    (tmp_path / "truncated.qis").write_bytes(blob[:-100])
    with pytest.raises(ValueError):
        qi.QISpline.load(tmp_path / "truncated.qis")
    (tmp_path / "magic.qis").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        qi.QISpline.load(tmp_path / "magic.qis")
    (tmp_path / "header.qis").write_bytes(blob[:7])  # magic, partial header
    with pytest.raises(ValueError, match="truncated"):
        qi.QISpline.load(tmp_path / "header.qis")


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
    matrix = np.empty((125, 24 * 35))
    for slot, (wx, wy, wz) in enumerate(product(range(5), repeat=3)):
        row = boxspline._CUBE_INDEX[(2 - wx, 2 - wy, 4 - wz)]
        matrix[slot] = coeffs[row].reshape(-1)
    return matrix


def test_patch_matrix_rows_follow_the_support_cube_index():
    matrix = qi._patch_matrix()
    reference = _patch_matrix_by_cube_index()
    assert matrix.shape == reference.shape == (125, 24 * 35)
    assert matrix.flags.c_contiguous
    for slot in range(125):
        np.testing.assert_array_equal(matrix[slot], reference[slot])


def test_dense_compile_equals_window_products_at_m32():
    """Dense patches of f2 at m = 32 are bit for bit the window products
    with the reference map, in the chunks `compile` uses."""
    from boxqi import volume
    samples, grid, _ = volume.sample_test_function("f2", 32)
    spline = qi.approximate(samples, grid)
    patches = spline.compile("dense").compiled.patches
    flat = patches.reshape(-1, 24 * 35)
    reference = _patch_matrix_by_cube_index()
    cubes = qi._all_cubes(grid.m)
    rows = qi._GATHER_CHUNK // (24 * 35)
    for start in range(0, len(cubes), rows):
        expected = qi._windows(spline.coefficients,
                               cubes[start:start + rows]) @ reference
        np.testing.assert_array_equal(flat[start:start + rows], expected)


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
    mask = qi.active_mask(grid11)
    assert mask.shape == (15, 15, 15)
    assert int(mask.sum()) == 3211
    np.testing.assert_array_equal(mask, domain.index_set(grid11).mask())
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


def test_nonfinite_coefficients_rejected(rng, tmp_path):
    spline = qi.approximate(rng.normal(size=(13, 13, 13)), h=1.0)
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


# -- bit for bit against the per-segment loop ---------------------------------

def _oracle_evaluate(spline, points, gammas):
    """`QISpline._evaluate` as a loop over each block's tetrahedron runs,
    with a product and an ``einsum`` per run and the per-column basis."""
    order = sum(gammas[0])
    rows, blocks = qi._tet_blocks(gammas)
    flat = np.ravel(spline.coefficients)
    _, m2, m3 = spline.coefficients.shape
    offsets = ((qi._WINDOW_OFFSETS[0] * m2 + qi._WINDOW_OFFSETS[1]) * m3
               + qi._WINDOW_OFFSETS[2])[rows]
    out = np.empty((len(points), len(gammas)))
    for start in range(0, len(points), qi._EVAL_BLOCK):
        cube, tet, bary = geometry.locate(
            points[start:start + qi._EVAL_BLOCK], spline.grid)
        perm = np.argsort(tet.astype(np.uint8), kind="stable")
        tet, cube = tet[perm], cube[perm]
        base = (cube[:, 0] * m2 + cube[:, 1]) * m3 + cube[:, 2]
        basis = oracle_basis(bary[perm], 4 - order)
        values = np.empty((len(perm), len(gammas)))
        edges = np.flatnonzero(np.diff(tet)) + 1
        for lo, hi in zip([0, *edges], [*edges, len(tet)]):
            t = tet[lo]
            patch = flat.take(base[lo:hi, None] + offsets[t]) @ blocks[t]
            values[lo:hi] = np.einsum(
                "iqj,ij->iq", patch.reshape(hi - lo, len(gammas), -1),
                basis[lo:hi])
        if order:
            values /= spline.grid.h ** order
        out[start:start + qi._EVAL_BLOCK][perm] = values
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("which", ["m=(11,12,13)", "f2 m=32"])
def test_evaluation_is_bitwise_the_per_segment_oracle(f2_m32, which):
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
    second = [(2, 0, 0), (1, 1, 0), (0, 1, 1)]
    third = [(1, 1, 1), (0, 0, 3), (2, 0, 1)]
    for pts in sets:
        np.testing.assert_array_equal(
            _bits(spline.eval(pts)),
            _bits(_oracle_evaluate(spline, pts, ((0, 0, 0),))[:, 0]))
        np.testing.assert_array_equal(
            _bits(spline.gradient(pts)),
            _bits(_oracle_evaluate(spline, pts,
                                   ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))
        for gamma in second + third:
            np.testing.assert_array_equal(
                _bits(spline.eval_derivative(pts, gamma)),
                _bits(_oracle_evaluate(spline, pts, (gamma,))[:, 0]))


# --------------------------------------------------------------------------
# aligned lattices by correlation
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
    values = spline.eval_lattice(r)
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
    values = spline.eval_lattice((2, 3, 1)).reshape(-1)
    assert np.abs(values - exact).max() <= 1e-12


@pytest.mark.parametrize("r", [0, True, 1.5, (1, 2), (1, 0, 1), "2"])
def test_eval_lattice_rejects_bad_factors(r):
    spline = qi.QISpline(geometry.DomainGrid(4, 4, 4),
                         np.zeros((8, 8, 8)))
    with pytest.raises(ValueError, match="lattice factors"):
        spline.eval_lattice(r)


# ---------------------------------------------------------------------------
# uniform grids over the domain
# ---------------------------------------------------------------------------

def _whole_array_values(spline, n):
    """The oracle: every grid point built at once by a meshgrid and
    evaluated in one call."""
    axes = [np.linspace(0.0, m * spline.grid.h, n) for m in spline.grid.m]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return spline.eval(points.reshape(-1, 3)).reshape(n, n, n)


@pytest.fixture(scope="module")
def f2_m32():
    from boxqi import volume
    samples, grid, _ = volume.sample_test_function("f2", 32)
    return qi.approximate(samples, grid)


def test_streamed_grid_values_equal_one_whole_array_evaluation(f2_m32):
    # n - 1 = 100 is no multiple of m = 32: 16 chunks of whole blocks
    np.testing.assert_array_equal(qi.grid_values(f2_m32, 101),
                                  _whole_array_values(f2_m32, 101))
    rng = np.random.default_rng(44)
    spline = qi.approximate(rng.normal(size=(13, 14, 15)), h=1 / 16)
    assert spline.grid.m == (11, 12, 13)  # 43 divides by none of them
    np.testing.assert_array_equal(qi.grid_values(spline, 44),
                                  _whole_array_values(spline, 44))


def test_aligned_grid_values_come_from_the_lattice(f2_m32, monkeypatch):
    expected = f2_m32.eval_lattice(2)
    monkeypatch.setattr(qi.QISpline, "eval", None)  # no point evaluation
    np.testing.assert_array_equal(qi.grid_values(f2_m32, 65), expected)


def test_streamed_grid_values_memory(f2_m32):
    """Sampling an unaligned R = 100 lattice holds the values plus a few
    evaluation chunks, not the (R+1)^3 x 3 point array."""
    qi.grid_values(f2_m32, 3)  # build the cached blocks outside the trace
    tracemalloc.start()
    try:
        values = qi.grid_values(f2_m32, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (101, 101, 101)
    assert peak <= values.nbytes + (10 << 20)
