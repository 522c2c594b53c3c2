"""Acceptance gate: ten numbered criteria, one reported line each.

Each test emits a single ``[criterion NN] ... PASS/FAIL`` line; the lines
are gathered into an "acceptance criteria" section printed after the run
(see conftest) so the per-criterion verdicts survive output capturing.
Criteria 7 and 8 are implemented exactly at their stated tolerances and
currently fail on a known, analyzed deviation; see README section
"Known deviations from the reference tables".
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from boxqi import (bernstein, boxspline, convergence, domain, geometry,
                   isosurface, nearbest, qi, stencils, volume)


F = Fraction

# --------------------------------------------------------------------------
# reporting helper
# --------------------------------------------------------------------------

_WIDTH = 64


def _report(num, name, ok, detail=""):
    label = f"[criterion {num}] {name} "
    pad = "." * max(1, _WIDTH - len(label))
    line = f"{label}{pad} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


# --------------------------------------------------------------------------
# criterion 1: partition of unity
# --------------------------------------------------------------------------

def test_criterion_01_partition_of_unity():
    t0 = time.perf_counter()
    table = boxspline.get_table()
    rng = np.random.default_rng(101)
    pts = rng.uniform(0.0, 5.0, size=(10_000, 3))
    base = np.floor(pts).astype(np.int64)
    # translates whose support can contain the point: 5 per axis
    xy = np.arange(-2, 3)
    zz = np.arange(-4, 1)
    offs = np.stack(np.meshgrid(xy, xy, zz, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    args = (pts[:, None, :] - (base[:, None, :] + offs)).reshape(-1, 3)
    sums = table.eval(args).reshape(len(pts), -1).sum(axis=1)
    dev = np.abs(sums - 1.0).max()
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-10 and elapsed < 10.0
    _report("01", "partition of unity", ok,
            f"max |sum-1| = {dev:.2e} over 10^4 points, {elapsed:.1f} s")
    assert dev <= 1e-10
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 2: one-sided smoothness across interior faces
# --------------------------------------------------------------------------

def _one_sided_gaps(spline, rng, n_faces, cube_lo, cube_hi):
    """Max relative C0/C1/C2 gaps across random interior patch faces.

    For each face the polynomial pieces on both sides are evaluated *at the
    same face points* from their Bernstein coefficients, together with first
    and second derivatives along the face normal.
    """
    grid = spline.grid
    patches = spline.compiled.patches
    h = grid.h
    delta = 1e-7 * h
    gaps = [0.0, 0.0, 0.0]
    scales = [0.0, 0.0, 0.0]  # magnitude of the derivative field itself
    done = 0
    while done < n_faces:
        cube = tuple(rng.integers(cube_lo, cube_hi + 1, size=3))
        tet = int(rng.integers(0, 24))
        verts = geometry.tetrahedra_of_cube(cube, grid)[tet]
        face = rng.permutation(4)
        opposite = verts[face[3]]
        tri = verts[face[:3]]
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        normal /= np.linalg.norm(normal)
        if normal @ (opposite - tri[0]) > 0:
            normal = -normal
        # sample points well inside the face
        w = rng.uniform(0.2, 0.8, size=(4, 3))
        w /= w.sum(axis=1, keepdims=True)
        face_pts = w @ tri
        probes = np.concatenate([face_pts - delta * normal,
                                 face_pts + delta * normal])
        cubes, tets, _ = geometry.locate(probes, grid)
        k = len(face_pts)
        if (cubes[:k] == cubes[k:]).all() and (tets[:k] == tets[k:]).all():
            continue  # probe pair fell into one tet (grazed an edge); redraw
        sides = []
        for sel in (slice(0, k), slice(k, 2 * k)):
            c, t = cubes[sel][0], int(tets[sel][0])
            coeffs = patches[tuple(c)][t]
            tverts = geometry.tetrahedra_of_cube(tuple(c), grid)[t]
            A = np.vstack([tverts.T, np.ones(4)])
            bary = np.linalg.solve(
                A, np.vstack([face_pts.T, np.ones(k)])).T
            bdir = sum(normal[a] * geometry.AXIS_DIRECTIONS[t, a]
                       for a in range(3)) / h
            d1 = bernstein.derivative_reduce(coeffs, bdir)
            d2 = bernstein.derivative_reduce(d1, bdir, degree=3)
            sides.append((bernstein.eval_bb(coeffs, bary),
                          bernstein.eval_bb(d1, bary, degree=3),
                          bernstein.eval_bb(d2, bary, degree=2)))
        for order in range(3):
            a, b = sides[0][order], sides[1][order]
            gaps[order] = max(gaps[order], np.abs(a - b).max())
            scales[order] = max(scales[order], np.abs(a).max(),
                                np.abs(b).max())
        done += 1
    return [g / max(s, 1e-30) for g, s in zip(gaps, scales)]


def test_criterion_02_smoothness_across_faces():
    rng = np.random.default_rng(202)
    # B itself: a single unit coefficient
    grid = geometry.DomainGrid(11, 11, 11, 1.0)
    coeffs = np.zeros((15, 15, 15))
    coeffs[6, 6, 6] = 1.0  # alpha = (5, 5, 5)
    b_spline = qi.QISpline(grid, coeffs).compile("dense")
    gaps_b = _one_sided_gaps(b_spline, rng, 100, cube_lo=3, cube_hi=5)
    # a random Qf
    qf = qi.approximate(rng.normal(size=(13, 13, 13)),
                        grid).compile("dense")
    gaps_q = _one_sided_gaps(qf, rng, 100, cube_lo=2, cube_hi=8)
    tol = (1e-9, 1e-8, 1e-8)
    ok = all(g <= t for g, t in zip(gaps_b, tol)) and \
        all(g <= t for g, t in zip(gaps_q, tol))
    _report("02", "C0/C1/C2 agreement across faces", ok,
            "rel gaps B = [{:.1e} {:.1e} {:.1e}], "
            "Qf = [{:.1e} {:.1e} {:.1e}]".format(*gaps_b, *gaps_q))
    for gaps in (gaps_b, gaps_q):
        assert gaps[0] <= 1e-9
        assert gaps[1] <= 1e-8
        assert gaps[2] <= 1e-8


# --------------------------------------------------------------------------
# criterion 3: cubic reproduction, quartic deviation
# --------------------------------------------------------------------------

_CUBIC_EXPONENTS = [(i, j, k)
                    for i in range(4) for j in range(4) for k in range(4)
                    if i + j + k <= 3]


def _poly(coeffs, pts):
    return sum(c * pts[:, 0] ** i * pts[:, 1] ** j * pts[:, 2] ** k
               for c, (i, j, k) in zip(coeffs, _CUBIC_EXPONENTS))


def test_criterion_03_cubic_reproduction_quartic_deviation():
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)
    data = domain.data_points(grid)
    flat = data.reshape(-1, 3)
    probes = qi.grid_points(grid, 21, np.arange(21 ** 3))
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    for _ in range(5):
        c = rng.normal(size=len(_CUBIC_EXPONENTS))
        samples = _poly(c, flat).reshape(data.shape[:3])
        spline = qi.approximate(samples, grid).compile()
        exact = _poly(c, probes)
        rel = np.abs(spline.eval(probes) - exact).max() / \
            np.abs(exact).max()
        worst_rel = max(worst_rel, rel)
    # P4 sanity: x^4 must NOT be reproduced
    quartic = (flat[:, 0] ** 4).reshape(data.shape[:3])
    spline4 = qi.approximate(quartic, grid).compile()
    dev4 = np.abs(spline4.eval(probes) - probes[:, 0] ** 4).max()
    ok = worst_rel <= 1e-9 and dev4 > 1e-4
    _report("03", "P3 reproduced, P4 not", ok,
            f"max rel cubic error = {worst_rel:.2e}, "
            f"x^4 deviation = {dev4:.2e}")
    assert worst_rel <= 1e-9
    assert dev4 > 1e-4


# --------------------------------------------------------------------------
# criterion 4: embedded stencil library validates exactly
# --------------------------------------------------------------------------

_REFERENCE_NORMS = {
    (0, 0, -1): (11, "8.774"), (1, 0, -1): (9, "9.099"),
    (2, 0, -1): (9, "9.099"), (1, 1, -1): (7, "9.386"),
    (2, 1, -1): (7, "9.386"), (2, 2, -1): (10, "5.561"),
    (0, 0, 0): (6, "7.740"), (1, 0, 0): (4, "7.649"),
    (2, 0, 0): (4, "7.649"), (3, 0, 0): (3, "9.945"),
    (1, 1, 0): (3, "5.508"), (2, 1, 0): (3, "5.108"),
    (3, 1, 0): (3, "5.048"), (2, 2, 0): (3, "4.129"),
    (3, 2, 0): (3, "4.028"), (4, 2, 0): (3, "3.994"),
    (3, 3, 0): (5, "2.617"), (1, 1, 1): (6, "1.730"),
    (2, 1, 1): (2, "3.75"), (3, 1, 1): (2, "3.542"),
    (2, 2, 1): (3, "2.370"), (2, 2, 2): (1, "3.5"),
    (3, 3, 3): (2, "1.625"),
}


def test_criterion_04_stencil_library_validates():
    lib = stencils.library()
    report = stencils.validate_library()
    boundary = [k for k in lib if k != (3, 3, 3)]
    mismatches = []
    for key, (n, printed) in _REFERENCE_NORMS.items():
        s = lib[key]
        if s.n != n or s.norm_4sf != printed or \
                stencils.rounded_up(s.norm) != F(printed):
            mismatches.append(key)
    bound = stencils.norm_bound()
    ok = (len(boundary) == 22 and all(r["exact"] for r in report)
          and not mismatches and abs(bound - 9.945) <= 1e-3)
    _report("04", "stencil library exactness and norms", ok,
            f"22 boundary classes + interior rule, "
            f"norm bound {bound:.4f} (<= 9.945)")
    assert len(boundary) == 22
    assert all(r["exact"] for r in report)
    assert mismatches == []
    assert abs(bound - 9.945) <= 1e-3


# --------------------------------------------------------------------------
# criterion 5: exact l1 minimization reproduces the reference norm table
# --------------------------------------------------------------------------

_TABLE_CELLS = [
    ((0, 0, -1), 4, "127.1"), ((0, 0, -1), 5, "55.27"),
    ((0, 0, -1), 6, "29.28"), ((0, 0, -1), 7, "20.13"),
    ((0, 0, -1), 8, "15.37"),
    ((1, 1, 1), 2, "4.5"), ((2, 2, 2), 1, "3.5"),
    ((3, 3, 3), 2, "1.625"), ((3, 0, 0), 3, "9.945"),
]


def _solve_cells(cells, grid):
    bad = []
    for key, n, printed in cells:
        sol = nearbest.minimize_l1(nearbest.constraint_system(key, n, grid))
        if sol.status != "optimal" or \
                stencils.rounded_up(sol.norm) != F(printed):
            got = (sol.status if sol.status != "optimal"
                   else f"{sol.norm_float:.6g}")
            bad.append(f"{key} n={n}: got {got}, want {printed}")
    return bad


def test_criterion_05_near_best_norm_reproduction(grid11):
    t0 = time.perf_counter()
    bad = _solve_cells(_TABLE_CELLS, grid11)
    for n in (1, 2, 3):
        sol = nearbest.minimize_l1(
            nearbest.constraint_system((0, 0, -1), n, grid11))
        if sol.status != "infeasible":
            bad.append(f"(0,0,-1) n={n}: expected infeasible")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    _report("05", "l1 optima match reference to 4 digits", ok,
            f"{len(_TABLE_CELLS)} cells + 3 infeasible, {elapsed:.1f} s")
    assert not bad, "; ".join(bad)
    assert elapsed < 300.0


# extended sweep over the reference norm table: more radii per class
_TABLE_CELLS_EXTENDED = [
    ((0, 0, -1), 9, "12.37"), ((0, 0, -1), 10, "10.25"),
    ((0, 0, -1), 11, "8.774"),
    ((1, 0, -1), 4, "68.69"), ((1, 0, -1), 9, "9.099"),
    ((2, 0, -1), 4, "68.69"),
    ((1, 1, -1), 4, "32.44"), ((1, 1, -1), 7, "9.386"),
    ((2, 1, -1), 4, "32.44"),
    ((2, 2, -1), 4, "32.44"), ((2, 2, -1), 5, "19.78"),
    ((0, 0, 0), 3, "30.09"), ((0, 0, 0), 9, "4.945"),
    ((1, 0, 0), 3, "11.04"), ((2, 0, 0), 3, "9.945"),
    ((1, 1, 0), 4, "3.787"), ((2, 1, 0), 4, "3.518"),
    ((3, 1, 0), 4, "3.469"), ((2, 2, 0), 4, "3.128"),
    ((3, 2, 0), 4, "3.102"), ((4, 2, 0), 4, "3.081"),
    ((3, 3, 0), 3, "3.806"),
    ((1, 1, 1), 2, "4.5"), ((1, 1, 1), 7, "1.498"),
    ((2, 1, 1), 3, "2.582"), ((3, 1, 1), 3, "2.536"),
    ((2, 2, 1), 2, "3.167"),
    ((2, 2, 2), 3, "1.732"), ((2, 2, 2), 7, "1.244"),
    ((3, 3, 3), 1, "3.5"), ((3, 3, 3), 7, "1.162"),
]


def test_criterion_05_norm_table_extended(grid11):
    t0 = time.perf_counter()
    bad = _solve_cells(_TABLE_CELLS_EXTENDED, grid11)
    elapsed = time.perf_counter() - t0
    ok = not bad
    _report("05", "norm table extended sweep", ok,
            f"{len(_TABLE_CELLS_EXTENDED)} cells, {elapsed:.0f} s"
            + ("" if ok else "; " + "; ".join(bad)))
    assert not bad, "; ".join(bad)


# --------------------------------------------------------------------------
# criterion 6: reference corner weights satisfy the system exactly
# --------------------------------------------------------------------------

# weight per data index for the corner class at radius 4, as printed in the
# reference derivation (x <-> y symmetric partners share a value)
_CORNER_SIGMA = {
    (0, 0, 0): "26956/945",
    (1, 0, 0): "-331/36", (0, 1, 0): "-331/36",
    (2, 0, 0): "-181/216", (0, 2, 0): "-181/216",
    (3, 0, 0): "0", (0, 3, 0): "0",
    (4, 0, 0): "11/504", (0, 4, 0): "11/504",
    (1, 1, 0): "0",
    (2, 1, 0): "25/18", (1, 2, 0): "25/18",
    (3, 1, 0): "0", (1, 3, 0): "0",
    (2, 2, 0): "-13/27",
    (0, 0, 1): "-827/24",
    (1, 0, 1): "35/3", (0, 1, 1): "35/3",
    (2, 0, 1): "-1/6", (0, 2, 1): "-1/6",
    (1, 1, 1): "-3",
    (0, 0, 2): "337/36",
    (1, 0, 2): "-31/18", (0, 1, 2): "-31/18",
    (0, 0, 3): "-151/120",
}


def test_criterion_06_reference_corner_weights(grid11):
    system = nearbest.constraint_system((0, 0, -1), 4, grid11)
    weights = {idx: F(v) for idx, v in _CORNER_SIGMA.items()}
    norm = nearbest.verify_weights(system, weights)  # raises if inexact
    optimum = nearbest.minimize_l1(system).norm
    ok = (norm == optimum and stencils.rounded_up(norm) == F("127.1"))
    _report("06", "printed corner weights are exact and optimal", ok,
            f"|sigma|_1 = {float(norm):.4f} == l1 optimum, rounds to 127.1")
    assert norm == optimum
    assert stencils.rounded_up(norm) == F("127.1")


# --------------------------------------------------------------------------
# criterion 7: benchmark error table (reference values, 139^3 grid)
# --------------------------------------------------------------------------

# per benchmark: m -> (reference max error, reference rf or None)
_REFERENCE_ERRORS = {
    "f1": {16: (2.0e-1, None), 32: (1.3e-1, 0.6), 64: (6.5e-2, 1.0),
           128: (2.1e-2, 1.7)},
    "f2": {16: (1.7e-2, None), 32: (8.0e-4, 4.4), 64: (5.2e-5, 3.9),
           128: (3.3e-6, 4.0)},
    "f3": {16: (6.2e-3, None), 32: (8.2e-4, 2.9), 64: (8.9e-5, 3.2),
           128: (7.9e-6, 3.5)},
}


def _check_rows(rows):
    violations = []
    for row in rows:
        ref_err, ref_rf = _REFERENCE_ERRORS[row.fn][row.m]
        rel = row.error / ref_err - 1.0
        if abs(rel) > 0.10:
            violations.append(
                f"{row.fn}@{row.m} error {row.error:.3e} vs {ref_err:.1e} "
                f"({rel:+.1%})")
        if ref_rf is not None and row.rf is not None \
                and abs(row.rf - ref_rf) > 0.3:
            violations.append(
                f"{row.fn}@{row.m} rf {row.rf:.2f} vs {ref_rf}")
    return violations


def test_criterion_07_convergence_table():
    rows = []
    for fn in ("f1", "f2", "f3"):
        rows += convergence.convergence_table(fn, [16, 32, 64])
    violations = _check_rows(rows)
    ok = not violations
    detail = ("all 9 cells within +-10% / rf +-0.3" if ok else
              "; ".join(violations) + "  [known deviation, see README]")
    _report("07", "error table m <= 64 (+-10%, rf +-0.3)", ok, detail)
    assert not violations, "\n".join(violations)


@pytest.mark.slow
def test_criterion_07_convergence_table_m128():
    rows = []
    for fn in ("f1", "f2", "f3"):
        rows += [r for r in convergence.convergence_table(fn, [64, 128])
                 if r.m == 128]
    violations = _check_rows(rows)
    ok = not violations
    detail = ("m=128 rows within +-10% / rf +-0.3" if ok else
              "; ".join(violations) + "  [known deviation, see README]")
    _report("07", "error table m = 128 (slow)", ok, detail)
    assert not violations, "\n".join(violations)


# --------------------------------------------------------------------------
# criterion 8: gradient convergence order
# --------------------------------------------------------------------------

def test_criterion_08_gradient_order():
    e16 = convergence.gradient_error("f2", 16)
    e32 = convergence.gradient_error("f2", 32)
    order = np.log2(e16 / e32)
    ok = 2.5 <= order <= 3.5
    detail = (f"observed order {order:.2f} "
              f"(errors {e16:.3e} -> {e32:.3e})")
    if not ok:
        detail += "  [known deviation, see README]"
    _report("08", "gradient order 3 +- 0.5 (f2, m 16->32)", ok, detail)
    assert 2.5 <= order <= 3.5, detail


# --------------------------------------------------------------------------
# criterion 9: isosurface extraction
# --------------------------------------------------------------------------

def test_criterion_09_isosurface():
    # (a) plane test: the spline of f(x,y,z) = z is exactly z
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)
    pts = domain.data_points(grid)
    plane = qi.approximate(pts[..., 2], grid).compile()
    mesh = isosurface.extract(plane, isosurface.IsoRequest(0.5,
                                                           resolution=64))
    zdev = np.abs(mesh.vertices[:, 2] - 0.5).max()
    # (b) residual halving on a curved surface
    samples, fgrid, _ = volume.sample_test_function("f2", 32)
    curved = qi.approximate(samples, fgrid).compile()
    residuals = [isosurface.extract(
        curved, isosurface.IsoRequest(0.3, resolution=r)).residual
        for r in (8, 16, 32)]
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    # (c) lossless OBJ round trip
    fine = isosurface.extract(curved, isosurface.IsoRequest(0.3,
                                                            resolution=32))
    back = isosurface.read_obj(isosurface.write_obj(fine))
    lossless = (np.array_equal(back.vertices, fine.vertices)
                and np.array_equal(back.triangles, fine.triangles))
    ok = zdev <= 1e-6 and all(r <= 0.5 for r in ratios) and lossless
    _report("09", "isosurface: plane, halving, OBJ round trip", ok,
            f"plane z-dev = {zdev:.1e}, residual ratios = "
            + "/".join(f"{r:.2f}" for r in ratios)
            + f", OBJ lossless = {lossless}")
    assert zdev <= 1e-6
    for r in ratios:
        assert r <= 0.5
    assert lossless


# --------------------------------------------------------------------------
# criterion 10: raw ingestion and the large-volume memory plan
# --------------------------------------------------------------------------

def test_criterion_10_ingestion_and_memory_budget():
    # (a) 13^3 volume round-trips bit-exactly
    rng = np.random.default_rng(1010)
    header = volume.VolumeHeader((13, 13, 13))
    blob = rng.integers(0, 256, size=13 ** 3, dtype=np.uint8).tobytes()
    samples, small_grid = volume.read_raw(header, blob)
    bit_exact = volume.write_raw(header, samples) == blob
    # (b) CT-scan-shaped synthetic volume
    big = volume.VolumeHeader((256, 256, 99), dtype="u16")
    x = np.arange(256)[:, None, None]
    y = np.arange(256)[None, :, None]
    z = np.arange(99)[None, None, :]
    field = np.rint(20000 + 15000 * np.sin(x / 40) * np.cos(y / 55)
                    + 80.0 * z)
    samples_big, grid = volume.read_raw(big, volume.write_raw(big, field))
    spline = qi.approximate(samples_big, grid)
    # dense compilation must refuse the default 1 GiB budget...
    with pytest.raises(qi.SizeError) as info:
        spline.compile("dense")
    required = info.value.required
    # ...and the automatic plan stays within it
    streamed = spline.compile("auto")
    per_slab = (grid.m[1] * grid.m[2] * streamed.compiled.slab_rows
                * 24 * 35 * 8)
    within = per_slab <= qi.DEFAULT_COMPILE_BUDGET
    probe = rng.uniform(0.0, 1.0, size=(1500, 3)) * np.array(grid.extent)
    direct = spline.eval(probe, mode="direct")
    via_stream = streamed.eval(probe, mode="compiled")
    agree = np.abs(direct - via_stream).max() <= 1e-7 * np.abs(field).max()
    ok = (bit_exact and small_grid.m == (11, 11, 11)
          and grid.m == (254, 254, 97) and within and agree)
    _report("10", "ingestion and memory budget", ok,
            f"13^3 bit-exact = {bit_exact}, m = {grid.m}, dense needs "
            f"{required / 2 ** 30:.1f} GiB > 1 GiB budget, streamed slab = "
            f"{streamed.compiled.slab_rows} rows "
            f"({per_slab / 2 ** 20:.0f} MiB)")
    assert bit_exact
    assert small_grid.m == (11, 11, 11)
    assert grid.m == (254, 254, 97)
    assert required > qi.DEFAULT_COMPILE_BUDGET
    assert within
    assert agree
