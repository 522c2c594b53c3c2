"""Tetrahedral isosurface extraction and OBJ/PLY serialization."""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from boxqi import domain, geometry, isosurface as iso, qi, volume


@pytest.fixture(scope="module")
def plane_spline():
    """Spline reproducing s(x, y, z) = z on [0, 1]^3 (cubic reproduction
    makes this exact)."""
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)
    pts = domain.data_points(grid)
    return qi.approximate(pts[..., 2], grid).compile()


@pytest.fixture(scope="module")
def tilted_plane_spline():
    """Spline reproducing s(x, y, z) = x + y - z on [0, 1]^3."""
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)
    pts = domain.data_points(grid)
    return qi.approximate(pts[..., 0] + pts[..., 1] - pts[..., 2],
                          grid).compile()


def _normals(mesh):
    v, t = mesh.vertices, mesh.triangles
    return np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])


@pytest.fixture(scope="module")
def bump_setup():
    samples, grid, fn = volume.sample_test_function("f2", 16)
    return qi.approximate(samples, grid).compile(), fn


def _cubic_body(ms, seed):
    """The spline of a seeded cubic field on m = ``ms`` cells of width 1:
    a bright elliptic body (36000 at its centre) with a random cubic
    distortion, like a CT scan's.  Its parameters come from Python's
    seeded ``random()``, whose stream is stable across versions."""
    rng = random.Random(seed)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    centre = [uniform(0.45, 0.55), uniform(0.45, 0.55), uniform(0.40, 0.60)]
    terms = [((i, j, 3 - i - j), uniform(-300.0, 300.0))
             for i in range(4) for j in range(4 - i)]
    x, y, z = np.ix_(*(domain.data_coordinate(np.arange(m + 2), m, 1.0) / m
                       for m in ms))
    samples = (36000.0 - 35000.0 * ((x - centre[0]) ** 2
                                    + (y - centre[1]) ** 2)
               - 10000.0 * (z - centre[2]) ** 2)
    for (i, j, k), b in terms:
        samples = samples + b * x ** i * y ** j * z ** k
    return qi.approximate(samples, geometry.DomainGrid(*ms, 1.0))


def test_a_point_where_the_surface_collapses_leaves_no_vertex():
    """s = |p - c|^2 (0.9 - x) at rho = 0 is the sheet x = 0.9 and the
    lattice point c, whose surrounding triangles collapse onto it and are
    dropped: the compaction then drops c too, so every vertex left lies
    on the sheet and is used by a triangle."""
    grid = geometry.DomainGrid(12, 12, 12, 1 / 12)
    pts = domain.data_points(grid)
    spline = qi.approximate(((pts - 0.5) ** 2).sum(axis=-1)
                            * (0.9 - pts[..., 0]), grid)
    mesh = iso.extract(spline, iso.IsoRequest(0.0, 12))
    assert len(mesh.triangles)
    # linear vertices on the sheet's crossed edges, within a cell of it
    assert (np.abs(mesh.vertices[:, 0] - 0.9) < 1 / 12).all()
    assert np.unique(mesh.triangles).tolist() == list(range(len(
        mesh.vertices)))


def test_request_validation():
    with pytest.raises(ValueError):
        iso.IsoRequest(0.5, resolution=1)
    req = iso.IsoRequest(0.5)
    assert req.resolution == 64 and not req.refine


def test_plane_isosurface_is_flat(plane_spline):
    # 17/32 sits mid-cell at resolution 16: no degenerate crossings
    rho = 17 / 32
    mesh = iso.extract(plane_spline, iso.IsoRequest(rho, resolution=16))
    assert len(mesh.triangles) > 0
    np.testing.assert_allclose(mesh.vertices[:, 2], rho, rtol=0, atol=1e-12)
    # winding: triangle normals face the above-isovalue side (+z here)
    normals = _normals(mesh)
    assert (normals[:, 2] > 0).all()
    # the flat mesh tiles the unit square: areas sum to 1
    np.testing.assert_allclose(
        0.5 * np.linalg.norm(normals, axis=1).sum(), 1.0, rtol=1e-10)


def test_plane_isovalue_on_lattice_stays_flat(plane_spline):
    """rho = 0.5 coincides with sampling planes at this resolution; the
    crossings degenerate onto lattice corners but the mesh must stay flat,
    keep its edge-use invariant and face the above side."""
    mesh = iso.extract(plane_spline, iso.IsoRequest(0.5, resolution=16))
    assert len(mesh.triangles) > 0
    np.testing.assert_allclose(mesh.vertices[:, 2], 0.5, rtol=0, atol=1e-12)
    assert iso.edge_use_counts(mesh).max() <= 2
    assert (_normals(mesh)[:, 2] > 0).all()


@pytest.mark.parametrize("spline, rho, res", [
    ("plane_spline", 0.5, 16), ("plane_spline", 0.25, 12),
    ("tilted_plane_spline", 0.25, 24)])
def test_on_lattice_isosurface_is_one_connected_sheet(request, spline, rho,
                                                      res):
    """Where the surface passes through lattice points, every edge ending
    at one shares its vertex: positions are distinct, and every edge off
    the domain boundary is used by exactly two triangles."""
    mesh = iso.extract(request.getfixturevalue(spline),
                       iso.IsoRequest(rho, resolution=res))
    v, t = mesh.vertices, mesh.triangles.astype(np.int64)
    assert len(np.unique(v, axis=0)) == len(v) > 0
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]],
                                    t[:, [2, 0]]]), axis=1)
    edges, uses = np.unique(pairs, axis=0, return_counts=True)
    ends = v[edges]  # (n, 2, 3): an edge on a domain face has both ends on it
    boundary = (((ends == 0.0) | (ends == 1.0)).all(axis=1)).any(axis=1)
    assert (uses[~boundary] == 2).all()
    assert (uses[boundary] == 1).all()


@pytest.mark.parametrize("rho", [0.0, 0.25])
@pytest.mark.parametrize("res", [12, 24])
def test_tilted_plane_on_lattice_faces_the_gradient(tilted_plane_spline,
                                                    rho, res):
    """x + y - z = rho passes through lattice points, so vertices sit at
    edge ends; every triangle must still face the gradient (1, 1, -1)."""
    mesh = iso.extract(tilted_plane_spline,
                       iso.IsoRequest(rho, resolution=res))
    assert len(mesh.triangles) > 0
    assert (_normals(mesh) @ np.array([1.0, 1.0, -1.0]) > 0).all()


def test_mesh_invariants(bump_setup):
    spline, _ = bump_setup
    mesh = iso.extract(spline, iso.IsoRequest(0.3, resolution=12))
    v, t = mesh.vertices, mesh.triangles
    assert len(v) > 0
    assert t.min() >= 0 and t.max() < len(v)
    # every vertex referenced, no degenerate triangles
    assert len(np.unique(t)) == len(v)
    areas = 0.5 * np.linalg.norm(
        np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]), axis=1)
    assert areas.min() > 0
    # manifold-ish: each undirected edge used by at most two triangles
    assert iso.edge_use_counts(mesh).max() <= 2
    # consistent orientation: no directed edge repeats
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = directed[:, 0].astype(np.int64) * len(v) + directed[:, 1]
    assert len(np.unique(keys)) == len(keys)


def test_vertices_interpolate_isovalue(bump_setup):
    spline, _ = bump_setup
    rho = 0.3
    mesh = iso.extract(spline, iso.IsoRequest(rho, resolution=12))
    assert mesh.residual == pytest.approx(
        np.abs(spline.eval(mesh.vertices) - rho).max())
    # halving the cell size cuts the residual roughly in half
    finer = iso.extract(spline, iso.IsoRequest(rho, resolution=24))
    assert finer.residual < 0.62 * mesh.residual


def test_refinement_pins_vertices_to_the_level_set(bump_setup):
    spline, _ = bump_setup
    mesh = iso.extract(spline, iso.IsoRequest(0.3, resolution=8,
                                              refine=True))
    assert mesh.residual <= 1e-7
    assert mesh.residual == pytest.approx(
        np.abs(spline.eval(mesh.vertices) - 0.3).max())


def test_refinement_evaluates_only_unfinished_vertices(bump_setup):
    spline, _ = bump_setup
    sizes = []

    class Recording:
        grid = spline.grid
        grid_blocks = spline.grid_blocks

        def eval(self, points):
            sizes.append(len(points))
            return spline.eval(points)

    mesh = iso.extract(Recording(), iso.IsoRequest(0.3, resolution=8,
                                                   refine=True))
    # calls: the refinement steps, whose values also give the residual; the
    # unaligned sample lattice comes from `grid_blocks`
    steps = sizes
    assert len(steps) >= 2
    assert all(b <= a for a, b in zip(steps, steps[1:]))
    assert steps[-1] < steps[0]
    assert mesh.residual <= 1e-7


def test_reference_scalars_channel(bump_setup):
    spline, fn = bump_setup
    req = iso.IsoRequest(0.3, resolution=10, reference=fn.on_omega)
    mesh = iso.extract(spline, req)
    assert mesh.scalars is not None and mesh.scalars.shape == (
        len(mesh.vertices),)
    expected = np.abs(fn.on_omega(mesh.vertices)
                      - spline.eval(mesh.vertices))
    np.testing.assert_allclose(mesh.scalars, expected, rtol=0, atol=1e-15)


def test_demo_error_channel_compares_on_omega(tmp_path, capsys):
    """The export demo's PLY scalar is |f(v) - s(v)| with f read on Omega,
    which f3 (native domain [-1/2, 1/2]^3) tells apart from f(v)."""
    path = Path(__file__).parents[1] / "demos" / "isosurface_export.py"
    spec = importlib.util.spec_from_file_location("isosurface_export", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = tmp_path / "f3.ply"
    demo.main(["--fn", "f3", "--m", "16", "--isovalue", "0",
               "--resolution", "24", "--out", str(out)])
    mesh = iso.read_ply(out.read_bytes())
    samples, grid, fn = volume.sample_test_function("f3", 16)
    spline = qi.approximate(samples, grid)
    expected = np.abs(fn.on_omega(mesh.vertices)
                      - spline.eval(mesh.vertices))
    assert len(mesh.vertices) > 0
    np.testing.assert_allclose(mesh.scalars, expected, rtol=0, atol=1e-15)


def test_empty_level_set(bump_setup):
    spline, _ = bump_setup
    mesh = iso.extract(spline, iso.IsoRequest(9.0, resolution=8))
    assert mesh.vertices.shape == (0, 3)
    assert mesh.triangles.shape == (0, 3)


def test_extraction_is_deterministic(bump_setup):
    spline, _ = bump_setup
    a = iso.extract(spline, iso.IsoRequest(0.3, resolution=10))
    b = iso.extract(spline, iso.IsoRequest(0.3, resolution=10))
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.triangles, b.triangles)


# ---------------------------------------------------------------------------
# oracle: the per-tetrahedron, per-case march over every cell
# ---------------------------------------------------------------------------

def _oracle_march(values, rho):
    """The oriented edge-key triples by scanning all cells once per Kuhn
    tetrahedron and case, with the case table as a dict of triangle lists.
    Each triangle is wound by the integer triple product of its doubled
    lattice edge midpoints with its doubled above corner."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    eye = np.eye(3, dtype=np.int64)
    tets = [np.stack([0 * eye[0], eye[p[0]], eye[p[0]] + eye[p[1]],
                      eye.sum(axis=0)]) for p in permutations(range(3))]
    cases = {}
    for case in range(1, 15):
        above = [c for c in range(4) if case >> c & 1]
        below = [c for c in range(4) if not case >> c & 1]
        if len(above) == 2:
            a0, a1 = above
            b0, b1 = below
            e = [edges.index(tuple(sorted(p)))
                 for p in ((a0, b0), (a0, b1), (a1, b1), (a1, b0))]
            cases[case] = ([(e[0], e[1], e[2]), (e[0], e[2], e[3])], a0)
        else:
            a = (above if len(above) == 1 else below)[0]
            e = [edges.index(tuple(sorted((a, o))))
                 for o in range(4) if o != a]
            cases[case] = ([tuple(e)], above[0])

    _, n1, n2 = values.shape
    npts = values.size
    strides = np.array([n1 * n2, n2, 1], dtype=np.int64)
    cells = np.indices(np.subtract(values.shape, 1)).reshape(3, -1)
    origin = strides @ cells
    flat = values.reshape(-1)

    def coords(ids):
        return np.stack(np.unravel_index(ids, values.shape), axis=-1)

    keys = [np.zeros((0, 3), np.int64)]
    for tet in tets:
        corner_ids = origin[:, None] + (tet @ strides)[None, :]
        case = ((flat[corner_ids] > rho) << np.arange(4)).sum(axis=1)
        for c in range(1, 15):
            tris, ref_corner = cases[c]
            ids = corner_ids[case == c]
            lo = ids[:, [e[0] for e in edges]]
            hi = ids[:, [e[1] for e in edges]]
            ek = np.minimum(lo, hi) * npts + np.maximum(lo, hi)
            for tri in tris:
                k = ek[:, list(tri)]
                m0, m1, m2 = (coords(a) + coords(b) for a, b in
                              (np.divmod(k[:, i], npts) for i in range(3)))
                volume = (np.cross(m1 - m0, m2 - m0)
                          * (2 * coords(ids[:, ref_corner]) - m0)).sum(axis=1)
                assert (volume != 0).all()
                k[volume < 0] = k[volume < 0][:, [0, 2, 1]]
                keys.append(k)
    return np.concatenate(keys)


def _rows(keys):
    """The oriented edge-key triples as a sorted array (a multiset)."""
    return keys[np.lexsort(keys.T[::-1])]


def _lattice(spline, res):
    return qi.grid_values(spline, np.add(res, 1))


@pytest.mark.parametrize("res", [7, 16, 32, (7, 16, 11)])
def test_march_matches_per_case_oracle(bump_setup, res):
    """m = 16: R = 7 point by point, 16 and 32 aligned, and an anisotropic
    lattice, whose cell ids differ from a cube's along every axis."""
    spline, _ = bump_setup
    values = _lattice(spline, res)
    on_sample = values.flat[np.abs(values - 0.3).argmin()]
    for rho in (0.3, on_sample):
        keys = iso._march(values, rho)
        assert keys.shape[1:] == (3,) and len(keys) > 0
        np.testing.assert_array_equal(_rows(keys),
                                      _rows(_oracle_march(values, rho)))


def test_march_matches_oracle_on_plane_and_above_maximum(plane_spline):
    values = _lattice(plane_spline, 16)
    for rho in (0.5, 17 / 32):  # on the sample planes, and between them
        np.testing.assert_array_equal(
            _rows(iso._march(values, rho)),
            _rows(_oracle_march(values, rho)))
    assert iso._march(values, values.max() + 1.0).shape == (0, 3)
    assert _oracle_march(values, values.max() + 1.0).shape == (0, 3)
    empty = iso.extract(plane_spline, iso.IsoRequest(2.0, resolution=16))
    assert empty.triangles.shape == (0, 3) and empty.residual == 0.0


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_march_and_extract_memory_is_a_few_lattices():
    """f2 at m = 32, rho = 0.3, R = 128, whose lattice is 16.4 MiB.  The
    march holds one corner byte per sample and arrays over the mixed cells
    only: 27.6 MiB (57.4 MiB with a case code per tetrahedron and cell).
    All of `extract` peaks at 83.6 MiB in the degenerate-triangle test
    (98.7 MiB with three corner copies held through `np.cross`)."""
    samples, grid, _ = volume.sample_test_function("f2", 32)
    f2 = qi.approximate(samples, grid)
    values = _lattice(f2, 128)
    assert _traced_peak(iso._march, values, 0.3) <= 2.5 * values.nbytes
    assert (_traced_peak(iso.extract, f2, iso.IsoRequest(0.3, 128))
            <= 5.5 * values.nbytes)


def test_obj_round_trip(bump_setup):
    spline, _ = bump_setup
    mesh = iso.extract(spline, iso.IsoRequest(0.3, resolution=10))
    back = iso.read_obj(iso.write_obj(mesh))
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    # tolerate the face-with-slashes OBJ flavor
    assert iso.read_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n"
                        ).triangles.tolist() == [[0, 1, 2]]
    empty = iso.read_obj(iso.write_obj(
        iso.TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int64))))
    assert len(empty.vertices) == 0


def test_ply_round_trip(bump_setup):
    spline, fn = bump_setup
    mesh = iso.extract(spline, iso.IsoRequest(0.3, resolution=10,
                                              reference=fn.on_omega))
    blob = iso.write_ply(mesh)
    assert blob.startswith(b"ply\n")
    back = iso.read_ply(blob)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    np.testing.assert_array_equal(back.scalars, mesh.scalars)
    # without a scalar channel
    plain = iso.TriangleMesh(mesh.vertices, mesh.triangles)
    again = iso.read_ply(iso.write_ply(plain))
    assert again.scalars is None
    with pytest.raises(ValueError):
        iso.read_ply(b"not a ply stream")


_QUAD = iso.TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                                   [1, 1, 0]]), np.array([[0, 1, 2],
                                                          [1, 3, 2]]))


@pytest.mark.parametrize("text, match", [
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n", "f record"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", "f record"),
    ("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", "v record"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", "out of range")],
    ids=["four-vertex-face", "two-vertex-face", "two-coordinate-vertex",
         "index-out-of-range"])
def test_read_obj_rejects_malformed_records(text, match):
    with pytest.raises(ValueError, match=match):
        iso.read_obj(text)


def _four_sided(blob):
    """The PLY bytes with the first face's vertex count byte set to 4."""
    body = blob.index(b"end_header\n") + len(b"end_header\n")
    at = body + 4 * 3 * 8
    return blob[:at] + b"\x04" + blob[at + 1:]


@pytest.mark.parametrize("corrupt, match", [
    (_four_sided, "not a triangle"),
    (lambda b: b + b"\x00", "trailing bytes"),
    (lambda b: b[:-1], "truncated"),
    (lambda b: b[:b.index(b"end_header") + 20], "truncated"),
    (lambda b: b.replace(b"1.0\n", b"1.0\n\n", 1), "header line ''"),
    (lambda b: b.replace(b"double z", b"float z", 1), "float z"),
    (lambda b: b.replace(b"face 2", b"face 3", 1), "truncated"),
    (lambda b: b.replace(b"face 2", b"face x", 1), "face x")],
    ids=["four-sided-face", "trailing-byte", "short-faces", "short-vertices",
         "blank-header-line", "float-property", "face-count-too-high",
         "non-numeric-count"])
def test_read_ply_rejects_corrupt_streams(corrupt, match):
    blob = iso.write_ply(_QUAD)
    assert iso.read_ply(blob).triangles.tolist() == [[0, 1, 2], [1, 3, 2]]
    with pytest.raises(ValueError, match=match):
        iso.read_ply(corrupt(blob))


def test_write_mesh_dispatch(bump_setup, tmp_path):
    spline, _ = bump_setup
    mesh = iso.extract(spline, iso.IsoRequest(0.3, resolution=8))
    obj_path = tmp_path / "m.obj"
    ply_path = tmp_path / "m.ply"
    iso.write_mesh(mesh, obj_path)
    iso.write_mesh(mesh, ply_path)
    assert obj_path.read_text().startswith("v ")
    assert ply_path.read_bytes().startswith(b"ply\n")
    forced = tmp_path / "m.dat"
    iso.write_mesh(mesh, forced, format="obj")
    assert forced.read_text() == obj_path.read_text()
    with pytest.raises(ValueError):
        iso.write_mesh(mesh, tmp_path / "m.stl")


@pytest.mark.parametrize("field, value", [
    ("resolution", 2.9), ("resolution", "64"), ("resolution", True),
    ("resolution", 16.0), ("isovalue", "0.3"), ("isovalue", 0.3j),
    ("isovalue", None), ("isovalue", True), ("refine", "no"),
    ("refine", 1), ("refine", None), ("reference", 5),
    ("reference", "f2"), ("resolution", (64, 1, 64)),
    ("resolution", (64, 64)), ("resolution", (64, 64.0, 64)),
    ("resolution", (64, True, 64)), ("resolution", (64, 64, 64, 64)),
    ("resolution", [64, [64, 64]]), ("resolution", {64}),
    ("resolution", np.True_), ("resolution", None),
    ("resolution", {64, 32, 16}), ("resolution", np.array(64)),
    ("resolution", (64, np.True_, 64))])
def test_request_rejects_bad_types_with_one_error(field, value):
    args = {"isovalue": 0.3, "resolution": 16, field: value}
    with pytest.raises(ValueError, match=field):
        iso.IsoRequest(**args)


def test_request_accepts_numpy_scalars():
    req = iso.IsoRequest(np.float64(0.3), resolution=np.int64(16))
    assert req.resolution == 16 and type(req.resolution) is int
    req = iso.IsoRequest(0.3, resolution=[np.int64(16), 12, 11])
    assert req.resolution == (16, 12, 11)
    assert all(type(r) is int for r in req.resolution)
    req = iso.IsoRequest(0.3, resolution=np.array([16, 12, 11]))
    assert req.resolution == (16, 12, 11)
    assert all(type(r) is int for r in req.resolution)


def test_request_accepts_a_numpy_bool_refine(bump_setup):
    spline, _ = bump_setup
    req = iso.IsoRequest(0.3, resolution=8, refine=np.bool_(True))
    assert iso.extract(spline, req).residual <= 1e-8


class _Recording:
    """Forwards to a spline, recording the points of every ``eval`` call,
    the factors of every `qi._lattice_values` call (which it patches) and
    the size of every ``grid_blocks`` call."""

    def __init__(self, spline, monkeypatch):
        self.spline = spline
        self.grid = spline.grid
        self.points = []
        self.factors = []
        self.grids = []
        lattice = qi._lattice_values

        def record(recording, r):
            self.factors.append(list(r))
            return lattice(recording.spline, r)

        monkeypatch.setattr(qi, "_lattice_values", record)

    @property
    def sizes(self):
        return [len(p) for p in self.points]

    def eval(self, points):
        self.points.append(points)
        return self.spline.eval(points)

    def grid_blocks(self, n, *args):
        self.grids.append(n)
        return self.spline.grid_blocks(n, *args)


def _point_by_point(spline, r):
    """`qi._lattice_values` by point ``eval`` at the lattice points."""
    axes = [np.linspace(0.0, m * spline.grid.h, f * m + 1)
            for f, m in zip(r, spline.grid.m)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return spline.eval(pts.reshape(-1, 3)).reshape([len(a) for a in axes])


def test_aligned_lattice_is_read_without_point_evaluation(bump_setup,
                                                          monkeypatch):
    """f2 at m = 16 with R = 32, and a cubic body at m = (16, 12, 11) with
    R = (32, 24, 11), read the lattice of factors (2, 2, 2) and (2, 2, 1)
    and never `grid_blocks`."""
    for spline, rho, res, factors in [
            (bump_setup[0], 0.3, 32, [2, 2, 2]),
            (_cubic_body((16, 12, 11), 5), 26000.0, (32, 24, 11),
             [2, 2, 1])]:
        with monkeypatch.context() as patch:
            recording = _Recording(spline, patch)
            mesh = iso.extract(recording, iso.IsoRequest(rho, res))
        assert recording.factors == [factors] and recording.grids == []
        # one point evaluation: the linear vertices, which give the residual
        assert len(recording.points) == 1 and len(mesh.vertices)
        assert {tuple(v) for v in mesh.vertices.tolist()} <= {
            tuple(p) for p in recording.points[0].tolist()}

        with monkeypatch.context() as patch:
            patch.setattr(qi, "_lattice_values", _point_by_point)
            patch.setattr(qi.QISpline, "grid_blocks", None)
            reference = iso.extract(spline, iso.IsoRequest(rho, res))
        np.testing.assert_array_equal(mesh.triangles, reference.triangles)
        np.testing.assert_allclose(mesh.vertices, reference.vertices,
                                   rtol=0, atol=1e-12 * max(
                                       m * spline.grid.h
                                       for m in spline.grid.m))


def test_refinement_starts_from_the_linear_vertices(bump_setup,
                                                    monkeypatch):
    spline, _ = bump_setup
    recording = _Recording(spline, monkeypatch)
    iso.extract(recording, iso.IsoRequest(0.3, resolution=8, refine=True))
    linear = iso.extract(spline, iso.IsoRequest(0.3, resolution=8))
    # the unaligned lattice comes from `grid_blocks`, not from `eval`
    assert recording.grids == [9] and recording.factors == []
    first = {tuple(p) for p in recording.points[0].tolist()}
    assert {tuple(v) for v in linear.vertices.tolist()} <= first


def test_refinement_needs_few_evaluations_per_vertex(bump_setup,
                                                     monkeypatch):
    spline, _ = bump_setup
    recording = _Recording(spline, monkeypatch)
    mesh = iso.extract(recording, iso.IsoRequest(0.3, resolution=8,
                                                  refine=True))
    # calls: the refinement steps; the sample lattice is `grid_blocks`'
    assert recording.grids == [9]
    assert sum(recording.sizes) <= 8 * len(mesh.vertices)
    assert mesh.residual <= 1e-8


def _obj_per_scalar(mesh):
    """The OBJ text formatted one NumPy scalar at a time (the oracle)."""
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}"
             for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    return "\n".join(lines) + ("\n" if lines else "")


_ODD_MESH = iso.TriangleMesh(
    np.array([[-0.0, 5e-324, 0.1], [1e300, -1e-300, 2.0 / 3.0],
              [0.0, 1.0, -2.5]]),
    np.array([[0, 1, 2], [2, 1, 0]]))


def test_obj_text_matches_per_scalar_formatting(bump_setup):
    spline, _ = bump_setup
    refined = iso.extract(spline, iso.IsoRequest(0.3, resolution=10,
                                                 refine=True))
    odd = _ODD_MESH
    empty = iso.TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int64))
    for mesh in (refined, odd, empty):
        assert iso.write_obj(mesh) == _obj_per_scalar(mesh)
    assert iso.write_obj(odd).splitlines()[0] == "v -0.0 5e-324 0.1"
    assert iso.write_obj(odd).splitlines()[1].startswith("v 1e+300 ")


@pytest.mark.parametrize("n", [0, 1, iso._MESH_CHUNK - 1, iso._MESH_CHUNK,
                               iso._MESH_CHUNK + 1])
def test_obj_chunk_boundaries_match_per_scalar_formatting(n, tmp_path):
    """n vertices and n faces cycled from the odd-value mesh: `write_obj`
    and the file `write_mesh` streams are the per-scalar oracle's text."""
    mesh = iso.TriangleMesh(np.resize(_ODD_MESH.vertices, (n, 3)),
                            np.resize(_ODD_MESH.triangles, (n, 3)) % max(n, 1))
    text = _obj_per_scalar(mesh)
    path = tmp_path / "m.obj"
    iso.write_mesh(mesh, path)
    # compared outside `assert`: pytest's diff of two 16k-line texts would
    # take minutes to report a failure
    same_text = iso.write_obj(mesh) == text
    same_file = path.read_bytes() == text.encode("ascii")
    assert same_text and same_file
    assert [p.name for p in tmp_path.iterdir()] == ["m.obj"]


def test_write_mesh_holds_one_obj_chunk(tmp_path):
    """Streaming OBJ export allocates about one chunk of text, not the
    whole 6 MB file (formatting the whole text peaked at 57 MiB)."""
    rng = np.random.default_rng(14)
    n = 100_000
    mesh = iso.TriangleMesh(rng.integers(0, 999, size=(n, 3)) / 8.0,
                            rng.integers(0, n, size=(2 * n, 3)))
    path = tmp_path / "big.obj"
    tracemalloc.start()
    try:
        iso.write_mesh(mesh, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


def _ply_whole(mesh):
    """The oracle: the PLY stream built in one piece, the scalar column
    stacked onto the whole vertex array and every face at once."""
    header = iso._ply_header(len(mesh.vertices), len(mesh.triangles),
                             mesh.scalars is not None)
    vdata = (mesh.vertices if mesh.scalars is None else
             np.column_stack([mesh.vertices, mesh.scalars]))
    faces = np.empty((len(mesh.triangles), 13), dtype=np.uint8)
    faces[:, 0] = 3
    faces[:, 1:] = mesh.triangles.astype("<i4").view(np.uint8).reshape(-1, 12)
    return (header.encode("ascii") + vdata.astype("<f8").tobytes()
            + faces.tobytes())


@pytest.mark.parametrize("n", [0, 1, iso._MESH_CHUNK - 1, iso._MESH_CHUNK,
                               iso._MESH_CHUNK + 1])
@pytest.mark.parametrize("scalars", [False, True])
def test_ply_chunk_boundaries_match_the_whole_stream(n, scalars, tmp_path):
    """n vertices and n faces cycled from the odd-value mesh: `write_ply`
    and the file `write_mesh` streams are the one-piece oracle's bytes."""
    mesh = iso.TriangleMesh(
        np.resize(_ODD_MESH.vertices, (n, 3)),
        np.resize(_ODD_MESH.triangles, (n, 3)) % max(n, 1),
        scalars=np.resize([-0.0, 5e-324, np.pi], n) if scalars else None)
    blob = _ply_whole(mesh)
    path = tmp_path / "m.ply"
    iso.write_mesh(mesh, path)
    same_bytes = iso.write_ply(mesh) == blob
    same_file = path.read_bytes() == blob
    assert same_bytes and same_file
    assert [p.name for p in tmp_path.iterdir()] == ["m.ply"]


def test_write_mesh_holds_one_ply_chunk(tmp_path):
    """Streaming PLY export allocates about one chunk of the body, not the
    whole 5.5 MB stream (building it in one piece peaked at 19.7 MiB)."""
    rng = np.random.default_rng(14)
    n = 100_000
    mesh = iso.TriangleMesh(rng.integers(0, 999, size=(n, 3)) / 8.0,
                            rng.integers(0, n, size=(2 * n, 3)),
                            scalars=rng.normal(size=n))
    path = tmp_path / "big.ply"
    tracemalloc.start()
    try:
        iso.write_mesh(mesh, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == len(_ply_whole(mesh))
    assert peak <= 4 << 20


def test_failed_write_leaves_the_previous_mesh(tmp_path, monkeypatch):
    path = tmp_path / "m.obj"
    iso.write_mesh(_ODD_MESH, path)
    before = path.read_bytes()

    def failing(mesh):
        yield "v 0.0 0.0 0.0\n"
        raise OSError("disk full")

    monkeypatch.setattr(iso, "_obj_chunks", failing)
    with pytest.raises(OSError, match="disk full"):
        iso.write_mesh(_ODD_MESH, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.obj"]


# SHA-256 of `write_obj` and `write_ply` of these int-resolution meshes:
# the grid routes, the march, the vertex merge and the compaction keep
# every byte.  Evaluation runs BLAS products, so another BLAS build may
# round differently.
_MESH_DIGESTS = {
    ("f2", 32, True): (
        "bbf37530be595597b37aa551641e05b89996f8c62ab89700e4b8b7c476e5c48f",
        "9f472707d72de1ae08f5c7bfad2bf2b9ff556101bf74c261ea9e57050b9b943b"),
    ("f2", 64, False): (
        "28ca630607ef4aab8f41debf91f4cdceee78ccb892586bb68170ad27ae5415a6",
        "ff547857393c259332bf9cb3054816f482d302e8920ed27c353f49db55caeb47"),
    ("f2", 100, False): (
        "b3ce35719ec21620e5064e984527791ae3bc1e7d2e668b8f0c1293b509b03f70",
        "95a693a200e4c96f1a3b5b9174906bf239b99a625d12584ddcf1d92b169794b9"),
    ("body", 25, False): (
        "92bd7b5e688d024a540d7d9b6250a4d4f9a2df7b5da2c08ff63df18eb9243bc9",
        "6ebbfd275fa1d58bd0e9241a5377f4f823bcae866aa5502e7e19839fdd2e3130"),
    ("plane", 24, True): (
        "a171539cd37b46ce5e958913f0dd7bec5e19e1b417224af36fd598b4874f893d",
        "b5b170b913b0d80f3f1bbb835b3dbd919fa71a6e56a4eef980caccbe803a4da6"),
    ("tilted", 36, True): (
        "7db92633a884d100cadc2b5beda7b823e66bab99383de393a68da81e589bc896",
        "5cd09a20eeb3bfbf371c0ec90fad855922299b2f6a61742633c116d52ab90a62"),
}


def test_mesh_bytes_are_pinned():
    """f2 at m = 32, rho = 0.3: R = 32 refined (the lattice of factor 1),
    R = 64 (factor 2) and R = 100 (the tile route); a cubic body at
    m = (14, 12, 11), rho = 26000, R = 25 (the tile route); and two
    surfaces through lattice points, refined, whose tied samples are set
    to rho: s = z at rho = 0.5, R = 24 (625 tied samples) and
    s = x + y - z at rho = 1/3, R = 36 (991)."""
    samples, grid, _ = volume.sample_test_function("f2", 32)
    grid12 = geometry.DomainGrid(12, 12, 12, 1 / 12)
    x, y, z = np.moveaxis(domain.data_points(grid12), -1, 0)
    splines = {
        "f2": (qi.approximate(samples, grid), 0.3),
        "body": (_cubic_body((14, 12, 11), 27), 26000.0),
        "plane": (qi.approximate(z, grid12), 0.5),
        "tilted": (qi.approximate(x + y - z, grid12), 1 / 3),
    }
    for (name, res, refine), digests in _MESH_DIGESTS.items():
        spline, rho = splines[name]
        mesh = iso.extract(spline, iso.IsoRequest(rho, res, refine=refine))
        got = (hashlib.sha256(iso.write_obj(mesh).encode()).hexdigest(),
               hashlib.sha256(iso.write_ply(mesh)).hexdigest())
        assert got == digests, (name, res)


@pytest.mark.slow
def test_scan_lattice_isosurface_stays_within_budget(tmp_path):
    """A cold ``isosurface --res 254,254,97`` on a (254, 254, 97) cubic
    body reads the spline's own data lattice (factors 1) within the 1 GiB
    budget; peak RSS is the child's, from ``wait4``."""
    path = tmp_path / "scan.qis"
    _cubic_body((254, 254, 97), 7).save(path)
    src = str(Path(iso.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "boxqi.cli", "isosurface", "--in", str(path),
         "--iso", "26000", "--res", "254,254,97",
         "--out", str(tmp_path / "scan.ply")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    out, err = child.communicate()
    assert child.returncode == 0, err
    vertices = len(iso.read_ply((tmp_path / "scan.ply").read_bytes())
                   .vertices)
    peak = usage.ru_maxrss * 1024  # KiB on Linux
    print(f"isosurface --res 254,254,97: {wall:.2f} s, "
          f"{peak / 2 ** 20:.0f} MiB peak RSS, {vertices} vertices")
    assert out.startswith(f"wrote {tmp_path / 'scan.ply'} ({vertices} ")
    assert peak < 1 << 30
