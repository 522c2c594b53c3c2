"""Isosurface extraction by marching tetrahedra, with OBJ/PLY export.

The spline is sampled on an (R+1)^3 point grid over Omega (R cells per
axis); each sampling cell is split into the six tetrahedra sharing its main
diagonal, and every tetrahedron contributes 0, 1 or 2 triangles whose
vertices sit on cell edges, placed by linear interpolation of the sampled
values.  Because all tetrahedra share the same diagonal direction, faces of
neighbouring cells are triangulated compatibly and shared surface edges are
used by at most two triangles.

When R is a multiple of every m_i, each cube holds the same R/m_i samples
per axis and the lattice is read by correlation (`QISpline.eval_lattice`);
otherwise the spline is evaluated point by point.

Vertices are merged by their undirected sample-edge key, so the mesh is
deterministic.  Triangle winding is normalized so that normals point toward
the above-isovalue side.  An optional refinement moves each vertex along
its edge by Illinois regula falsi, starting from the linear estimate and
reusing the sampled end values, until |s(v) - rho| <= 1e-8.

Export formats: ASCII OBJ (v/f records, 1-based indices, coordinates in
shortest round-trip ``repr`` form) and binary little-endian PLY (float64 coordinates, optional
per-vertex scalar channel, e.g. a reference-error colour).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import permutations
from numbers import Integral, Real
from pathlib import Path

import numpy as np

__all__ = [
    "TriangleMesh", "IsoRequest", "extract",
    "write_obj", "read_obj", "write_ply", "read_ply", "write_mesh",
    "edge_use_counts",
]

REFINE_TOLERANCE = 1e-8
_AREA_FACTOR = 1e-12  # zero-area cutoff: _AREA_FACTOR * (max cell extent)^2


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle mesh with an optional per-vertex scalar channel."""

    vertices: np.ndarray                 # (nv, 3) float64
    triangles: np.ndarray                # (nt, 3) int32, 0-based
    scalars: np.ndarray | None = None    # (nv,) float64
    residual: float | None = None        # max |s(v) - rho| over vertices

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int32).reshape(-1, 3)
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if self.scalars is not None:
            s = np.asarray(self.scalars, dtype=np.float64).reshape(-1)
            if len(s) != len(v):
                raise ValueError("scalar channel length does not match "
                                 "vertex count")
            object.__setattr__(self, "scalars", s)


@dataclass(frozen=True)
class IsoRequest:
    """Extraction parameters: isovalue, cells per axis, optional extras."""

    isovalue: float
    resolution: int = 64
    refine: bool = False
    reference: object = None   # optional callable points -> values

    def __post_init__(self):
        rho, res = self.isovalue, self.resolution
        if not (isinstance(rho, Real) and not isinstance(rho, bool)
                and np.isfinite(rho)):
            raise ValueError(f"isovalue must be a finite number, got {rho!r}")
        if not (isinstance(res, Integral) and not isinstance(res, bool)
                and res >= 2):
            raise ValueError(f"resolution must be an integer of at least 2 "
                             f"cells per axis, got {res!r}")
        object.__setattr__(self, "resolution", int(res))


# ---------------------------------------------------------------------------
# marching tetrahedra
# ---------------------------------------------------------------------------

# Six tetrahedra per cell sharing the (0,0,0)-(1,1,1) diagonal: corners
# (0,0,0), e_p1, e_p1+e_p2, (1,1,1) for each axis permutation (p1,p2,p3).
def _kuhn_tets():
    tets = []
    eye = np.eye(3, dtype=np.int64)
    for p in permutations(range(3)):
        c0 = np.zeros(3, dtype=np.int64)
        c1 = eye[p[0]]
        c2 = eye[p[0]] + eye[p[1]]
        c3 = np.ones(3, dtype=np.int64)
        tets.append(np.stack([c0, c1, c2, c3]))
    return np.stack(tets)  # (6, 4, 3)


_TETS = _kuhn_tets()

_TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# case -> (triangles as edge-index triples, reference above-corner)
def _case_table():
    table = {}
    for case in range(16):
        above = [c for c in range(4) if case >> c & 1]
        below = [c for c in range(4) if not case >> c & 1]
        if not above or not below:
            table[case] = ([], -1)
            continue
        single = above if len(above) == 1 else below
        if len(single) == 1:
            a = single[0]
            e = [_TET_EDGES.index(tuple(sorted((a, o))))
                 for o in range(4) if o != a]
            table[case] = ([tuple(e)], above[0])
        else:
            a0, a1 = above
            b0, b1 = below
            # quad on the four mixed edges, split into two triangles
            e = [_TET_EDGES.index(tuple(sorted(p)))
                 for p in ((a0, b0), (a0, b1), (a1, b1), (a1, b0))]
            table[case] = ([(e[0], e[1], e[2]), (e[0], e[2], e[3])], a0)
    return table


_CASES = _case_table()


def _sample_values(spline, axes, resolution):
    """Spline values on the sample lattice: by correlation when every axis
    holds a whole number of samples per cube, else point by point."""
    m = spline.grid.m
    if all(resolution % n == 0 for n in m):
        return spline.eval_lattice([resolution // n for n in m])
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return spline.eval(points.reshape(-1, 3)).reshape([resolution + 1] * 3)


def extract(spline, request: IsoRequest) -> TriangleMesh:
    """March the sampled spline and return the (possibly empty) mesh."""
    rho = float(request.isovalue)
    res = request.resolution
    grid = spline.grid
    axes = [np.linspace(0.0, m * grid.h, res + 1) for m in grid.m]
    values = _sample_values(spline, axes, res)
    cell = np.array([ax[1] - ax[0] for ax in axes])
    area_cut = _AREA_FACTOR * cell.max() ** 2

    npts = (res + 1) ** 3
    strides = np.array([(res + 1) ** 2, res + 1, 1], dtype=np.int64)
    base = np.arange(res, dtype=np.int64)
    origin = (base[:, None, None] * strides[0] + base[None, :, None]
              * strides[1] + base[None, None, :] * strides[2]).reshape(-1)
    flat = values.reshape(-1)

    edge_keys = []     # (nt, 3) int64 undirected sample-edge ids
    refs = []          # (nt,) above-corner sample ids
    for tet in _TETS:
        corner_ids = origin[:, None] + (tet @ strides)[None, :]  # (nc, 4)
        above = flat[corner_ids] > rho
        case = (above << np.arange(4)).sum(axis=1)
        for c in range(1, 15):
            tris, ref_corner = _CASES[c]
            rows = np.nonzero(case == c)[0]
            if not len(rows):
                continue
            ids = corner_ids[rows]
            lo = ids[:, [e[0] for e in _TET_EDGES]]
            hi = ids[:, [e[1] for e in _TET_EDGES]]
            ek = np.minimum(lo, hi) * npts + np.maximum(lo, hi)  # (n, 6)
            for tri in tris:
                edge_keys.append(ek[:, list(tri)])
                refs.append(ids[:, ref_corner])
    if not edge_keys:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), np.int32),
                            residual=0.0)
    edge_keys = np.concatenate(edge_keys)          # (nt, 3)
    refs = np.concatenate(refs)                    # (nt,)

    unique_keys, inverse = np.unique(edge_keys.reshape(-1),
                                     return_inverse=True)
    triangles = inverse.reshape(-1, 3).astype(np.int32)

    def point(ids):
        return np.stack([ax[i] for ax, i in
                         zip(axes, np.unravel_index(ids, values.shape))],
                        axis=-1)

    ia = unique_keys // npts
    ib = unique_keys % npts
    pa, pb = point(ia), point(ib)
    va, vb = flat[ia], flat[ib]
    t = np.where(vb == va, 0.5, (rho - va) / np.where(vb == va, 1.0, vb - va))
    t = np.clip(t, 0.0, 1.0)
    if request.refine:
        _refine_vertices(spline, t, pa, pb, va - rho, vb - rho, rho)
    verts = pa + t[:, None] * (pb - pa)

    # drop degenerate triangles, normalize winding toward the above side
    v0, v1, v2 = (verts[triangles[:, i]] for i in range(3))
    normal = np.cross(v1 - v0, v2 - v0)
    area2 = np.linalg.norm(normal, axis=1)
    keep = area2 > 2.0 * area_cut
    triangles, normal, v0, v1, v2 = (x[keep] for x in
                                     (triangles, normal, v0, v1, v2))
    outward = point(refs[keep]) - (v0 + v1 + v2) / 3.0
    flip = (normal * outward).sum(axis=1) < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    # compact to referenced vertices (keyed order kept, so deterministic)
    used = np.unique(triangles.reshape(-1))
    remap = np.full(len(verts), -1, dtype=np.int32)
    remap[used] = np.arange(len(used), dtype=np.int32)
    verts = verts[used]
    triangles = remap[triangles]

    svals = spline.eval(verts) if len(verts) else verts[:, 0]
    residual = float(np.abs(svals - rho).max()) if len(verts) else 0.0
    scalars = None
    if request.reference is not None and len(verts):
        scalars = np.abs(np.asarray(request.reference(verts), np.float64)
                         - svals)
    return TriangleMesh(verts, triangles, scalars=scalars, residual=residual)


def _refine_vertices(spline, t, pa, pb, fa, fb, rho):
    """Refine the edge parameters ``t`` in place until |s(v) - rho| <= 1e-8.

    Illinois regula falsi on the bracket [0, 1] of each edge, whose end
    values s - rho are ``fa`` and ``fb`` (opposite signs, or one zero): the
    first iterate is the linear ``t`` itself, each later one the secant
    root of the shrinking bracket, with the value at an end kept twice in
    a row halved.  Each step evaluates only the vertices not yet within
    tolerance; vertices that never reach it keep their linear t.
    """
    todo = np.arange(len(t))
    lo, hi = np.zeros(len(t)), np.ones(len(t))
    flo, fhi = fa, fb
    kept = np.zeros(len(t), dtype=int)  # +1: lo kept last, -1: hi kept
    x = t.copy()
    for _ in range(60):
        f = spline.eval(pa + x[:, None] * (pb - pa)) - rho
        done = np.abs(f) <= REFINE_TOLERANCE
        t[todo[done]] = x[done]
        go = ~done
        todo, pa, pb, x, f = todo[go], pa[go], pb[go], x[go], f[go]
        lo, hi, flo, fhi, kept = lo[go], hi[go], flo[go], fhi[go], kept[go]
        if not len(todo):
            break
        move_lo = (f < 0.0) == (flo < 0.0)
        lo, flo = np.where(move_lo, x, lo), np.where(move_lo, f, flo)
        hi, fhi = np.where(move_lo, hi, x), np.where(move_lo, fhi, f)
        # Illinois: an end kept on two steps running has its value halved
        fhi = np.where(move_lo & (kept == -1), 0.5 * fhi, fhi)
        flo = np.where(~move_lo & (kept == 1), 0.5 * flo, flo)
        kept = np.where(move_lo, -1, 1)
        x = np.clip((lo * fhi - hi * flo) / (fhi - flo), lo, hi)


def edge_use_counts(mesh: TriangleMesh) -> np.ndarray:
    """Use count of every undirected triangle edge (sanity: all <= 2)."""
    t = mesh.triangles.astype(np.int64)
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = pairs.min(axis=1) * len(mesh.vertices) + pairs.max(axis=1)
    return np.unique(keys, return_counts=True)[1]


# ---------------------------------------------------------------------------
# OBJ (ASCII)
# ---------------------------------------------------------------------------

def write_obj(mesh: TriangleMesh) -> str:
    """Serialize to OBJ text: v/f records, 1-based, round-trip precision."""
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a} {b} {c}" for a, b, c in
              (mesh.triangles.astype(np.int64) + 1).tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def read_obj(text: str) -> TriangleMesh:
    """Parse the v/f subset of OBJ written by :func:`write_obj`."""
    verts, tris = [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        if parts[0] == "v":
            verts.append([float(p) for p in parts[1:4]])
        else:
            tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return TriangleMesh(np.array(verts, np.float64).reshape(-1, 3),
                        np.array(tris, np.int32).reshape(-1, 3))


# ---------------------------------------------------------------------------
# PLY (binary little-endian)
# ---------------------------------------------------------------------------

def write_ply(mesh: TriangleMesh) -> bytes:
    """Serialize to binary little-endian PLY (scalar channel kept)."""
    props = ["property double x", "property double y", "property double z"]
    if mesh.scalars is not None:
        props.append("property double scalar")
    header = "\n".join([
        "ply", "format binary_little_endian 1.0",
        f"element vertex {len(mesh.vertices)}", *props,
        f"element face {len(mesh.triangles)}",
        "property list uchar int vertex_indices", "end_header", ""])
    vdata = (mesh.vertices if mesh.scalars is None else
             np.column_stack([mesh.vertices, mesh.scalars]))
    body = vdata.astype("<f8").tobytes()
    faces = np.empty((len(mesh.triangles), 13), dtype=np.uint8)
    faces[:, 0] = 3
    faces[:, 1:] = mesh.triangles.astype("<i4").view(np.uint8).reshape(-1, 12)
    return header.encode("ascii") + body + faces.tobytes()


def read_ply(data: bytes) -> TriangleMesh:
    """Parse the PLY subset written by :func:`write_ply`."""
    end = data.find(b"end_header\n")
    if end < 0:
        raise ValueError("not a PLY stream (missing end_header)")
    header = data[:end].decode("ascii").splitlines()
    if header[:2] != ["ply", "format binary_little_endian 1.0"]:
        raise ValueError("unsupported PLY header")
    nv = nf = 0
    vprops = []
    element = None
    for line in header[2:]:
        parts = line.split()
        if parts[0] == "element":
            element = parts[1]
            if element == "vertex":
                nv = int(parts[2])
            elif element == "face":
                nf = int(parts[2])
        elif parts[0] == "property" and element == "vertex":
            if parts[1] != "double":
                raise ValueError(f"unsupported vertex property {line!r}")
            vprops.append(parts[2])
    body = data[end + len(b"end_header\n"):]
    vbytes = nv * len(vprops) * 8
    vdata = np.frombuffer(body[:vbytes], "<f8").reshape(nv, len(vprops))
    fdata = np.frombuffer(body[vbytes:vbytes + nf * 13], np.uint8)
    tris = fdata.reshape(nf, 13)[:, 1:].copy().view("<i4").reshape(nf, 3)
    scalars = vdata[:, 3] if "scalar" in vprops else None
    return TriangleMesh(vdata[:, :3], tris.astype(np.int32), scalars=scalars)


def write_mesh(mesh: TriangleMesh, path, format: str | None = None) -> None:
    """Write OBJ or PLY by explicit format or file suffix."""
    path = Path(path)
    fmt = (format or path.suffix.lstrip(".")).lower()
    if fmt == "obj":
        path.write_text(write_obj(mesh))
    elif fmt == "ply":
        path.write_bytes(write_ply(mesh))
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (use obj or ply)")
