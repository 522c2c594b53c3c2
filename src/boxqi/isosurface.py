"""Isosurface extraction by marching tetrahedra, with OBJ/PLY export.

The spline is sampled on a grid over Omega of R_a cells along each axis a
(one R or three); each sampling cell is split into the six tetrahedra
sharing its main diagonal, and every tetrahedron contributes 0, 1 or 2
triangles whose vertices sit on cell edges, placed by linear interpolation
of the sampled values.  Because all tetrahedra share the same diagonal
direction, faces of neighbouring cells are triangulated compatibly and
shared surface edges are used by at most two triangles.  The march is one
table-driven pass: the 8 shifted views of the above-isovalue mask are ORed
into one corner byte per cell, kept at the cell's corner-0 sample id; only
the mixed cells' bytes are read, through a (tetrahedron, byte) case table,
and each crossed tetrahedron looks its triangles' edge offsets up in a
(tetrahedron, case) table, so triangles come in (tetrahedron, cell, slot)
order, each wound by the table to face the above-isovalue side; no pass
normalizes the winding afterwards.

The sample lattice comes from `qi.grid_values`: read by correlation
(`qi._lattice_values`) when every R_a is a multiple of m_a, otherwise from
`QISpline.grid_blocks` at the exact lattice, one kernel per distinct local
offset triple, with no point array and no point located.

Vertices are merged by their undirected sample-edge key in one sort, so
the mesh is deterministic.  A sample within ``_TIE_FACTOR`` max|sample| of
the isovalue is set to it, and a vertex at an edge end is keyed by that
sample instead, so every edge ending there shares it and a surface through
lattice points stays one connected sheet; the triangles it collapses are
dropped.  An optional refinement moves each vertex along its edge by
Illinois regula falsi, starting from the linear estimate and reusing the
sampled end values, until |s(v) - rho| <= 1e-8.  Each vertex is evaluated
once at its final point, for the residual and the scalars.

Export formats: ASCII OBJ (v/f records, 1-based indices, coordinates in
shortest round-trip ``repr`` form) and binary little-endian PLY (float64
coordinates, optional per-vertex scalar channel, e.g. a reference-error
colour).  ``write_mesh`` streams either format to the file in chunks of
``_MESH_CHUNK`` records.  The readers take back what the writers write:
`read_ply` only the writer's header and layout, `read_obj` only ``v`` and
``f`` records (the first index of ``f a/b/c``; other lines skipped).  A
malformed record or a non-finite coordinate or scalar is one ``ValueError``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import permutations
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import geometry, qi

__all__ = [
    "TriangleMesh", "IsoRequest", "extract",
    "write_obj", "read_obj", "write_ply", "read_ply", "write_mesh",
    "mesh_format", "edge_use_counts",
]

REFINE_TOLERANCE = 1e-8
_AREA_FACTOR = 1e-12  # zero-area cutoff: _AREA_FACTOR * (max cell extent)^2
# a sample within _TIE_FACTOR * max |sample| (about 4500 ulps) of the
# isovalue is taken to lie on the surface; on the planes s = z and
# s = x + y - z a lattice sample misses its exact value by at most 1 ulp
_TIE_FACTOR = 1e-12
_MESH_CHUNK = 1 << 14  # export records formatted, and held, at a time


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
    resolution: int | tuple = 64   # one count, or one per axis
    refine: bool = False
    reference: object = None   # optional callable points -> values

    def __post_init__(self):
        rho, res = self.isovalue, self.resolution
        if not (isinstance(rho, Real) and not isinstance(rho, bool)
                and np.isfinite(rho)):
            raise ValueError(f"isovalue must be a finite number, got {rho!r}")
        cells = geometry.as_counts(res, 2, "resolution must be one integer "
                                   "or three of at least 2 cells per axis")
        if not isinstance(self.refine, (bool, np.bool_)):
            raise ValueError(f"refine must be a bool, got {self.refine!r}")
        if not (self.reference is None or callable(self.reference)):
            raise ValueError(f"reference must be callable, got "
                             f"{self.reference!r}")
        object.__setattr__(self, "resolution",
                           cells[0] if isinstance(res, Integral) else cells)


# ---------------------------------------------------------------------------
# marching tetrahedra
# ---------------------------------------------------------------------------

# Six tetrahedra per cell sharing the (0,0,0)-(1,1,1) diagonal, as cell-corner
# numbers 4x + 2y + z: 0, e_p1, e_p1 + e_p2 and 7 for each axis permutation
# p.  Corners rise componentwise along a row, so their sample ids do too.
_TETS = np.array([[0, 4 >> p[0], (4 >> p[0]) | (4 >> p[1]), 7]
                  for p in permutations(range(3))])

_TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _case_table():
    """Per Kuhn tetrahedron and case (bit c set: corner c above the
    isovalue) the triangles as edge-index triples padded to two, and the
    (case, slot) mask of triangle slots in use.

    Each triangle is wound so its normal faces an above corner.  Its
    vertices lie on its edges, so its signed volume with that corner is a
    nonnegative multiple (a product of edge parameters) of the one through
    the edge midpoints; the integer triple product of the doubled midpoints
    and the doubled corner therefore decides the winding for every cell."""
    tris, used = np.zeros((16, 2, 3), np.int64), np.zeros((16, 2), bool)
    ref = np.zeros(16, np.int64)
    for case in range(1, 15):
        above = [c for c in range(4) if case >> c & 1]
        below = [c for c in range(4) if c not in above]
        if len(above) == 2:  # quad on the four mixed edges, split in two
            (a0, a1), (b0, b1) = above, below
            pairs = [(a0, b0), (a0, b1), (a1, b1), (a1, b0)]
        else:                # one triangle around the lone corner
            a = (above if len(above) == 1 else below)[0]
            pairs = [(a, o) for o in range(4) if o != a]
        e = [_TET_EDGES.index(tuple(sorted(p))) for p in pairs]
        tris[case] = [e[:3], [e[0], e[2], e[-1]]]
        used[case] = [True, len(e) == 4]
        ref[case] = above[0]
    corner = np.stack(np.unravel_index(_TETS, (2, 2, 2)), axis=-1)  # (6, 4, 3)
    mid = corner[:, _TET_EDGES].sum(axis=2)[:, tris]   # (6, 16, 2, 3, 3)
    m0, m1, m2 = (mid[..., i, :] for i in range(3))
    volume = (np.cross(m1 - m0, m2 - m0)
              * (2 * corner[:, ref, None] - m0)).sum(axis=-1)  # (6, 16, 2)
    return np.where(volume[..., None] < 0, tris[..., [0, 2, 1]], tris), used


_CASE_TRIS, _CASE_USED = _case_table()
# per tetrahedron the case of each cell corner byte (bit k: corner k above)
_TET_CASES = ((np.arange(256) >> _TETS[..., None] & 1)
              << np.arange(4)[:, None]).sum(axis=1)


def _march(values, rho):
    """The (nt, 3) sample-edge keys ``lo * npts + hi`` of the triangles of
    the lattice ``values`` at ``rho``, wound toward the above side, in
    (tetrahedron, cell, slot) order.  A cell's corner byte sits at its
    corner-0 sample id, so only the mixed cells are read."""
    above = (values > rho).view(np.uint8)
    code = np.zeros(values.shape, np.uint8)
    n0, n1, n2 = (n - 1 for n in values.shape)
    for k in range(8):  # corner k = 4x + 2y + z of every cell, as a view
        x, y, z = k >> 2, k >> 1 & 1, k & 1
        code[:n0, :n1, :n2] |= above[x:x + n0, y:y + n1, z:z + n2] << k
    cell = np.flatnonzero((code != 0) & (code != 255))
    cases = _TET_CASES[:, code.reshape(-1)[cell]]             # (6, n)
    del above, code  # lattice-sized: freed before the keys, which set the peak
    tet, j = np.nonzero((cases != 0) & (cases != 15))
    case = cases[tet, j]
    offsets = np.ravel_multi_index(np.unravel_index(_TETS, (2, 2, 2)),
                                   values.shape)              # (6, 4)
    edge = offsets[:, _TET_EDGES] @ [values.size, 1]          # (6, 6)
    keys = edge[np.arange(6)[:, None, None, None], _CASE_TRIS][tet, case]
    keys += cell[j, None, None] * (values.size + 1)           # (n, 2, 3)
    return keys[_CASE_USED[case]]


def extract(spline, request: IsoRequest) -> TriangleMesh:
    """March the sampled spline and return the (possibly empty) mesh."""
    rho = float(request.isovalue)
    grid = spline.grid
    values = qi.grid_values(spline, np.add(request.resolution, 1))
    area_cut = _AREA_FACTOR * max(m * grid.h / (n - 1)
                                  for m, n in zip(grid.m, values.shape)) ** 2
    # a sample within rounding of rho lies on the surface: it is set to rho,
    # so every edge ending there puts its vertex there (t = 0 or 1)
    tie = _TIE_FACTOR * max(values.max(), -values.min())
    for plane in values:
        plane[np.abs(plane - rho) <= tie] = rho

    keys = _march(values, rho).reshape(-1)         # (3 nt,)
    if not len(keys):
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), np.int32),
                            residual=0.0)
    flat, npts = values.reshape(-1), values.size

    # every edge joins a sample above rho to one at or below it, so its
    # vertex is at an end exactly where that end's sample was set to rho:
    # it is then keyed as the edge (s, s), at t = 0, so every edge ending
    # there shares it, and the triangles it collapses fall to the area cut
    for end in np.divmod(keys, npts):
        tied = flat[end] == rho
        keys[tied] = end[tied] * (npts + 1)
    keys, triangles = np.unique(keys, return_inverse=True)
    triangles = triangles.reshape(-1, 3).astype(np.int32)
    ia, ib = np.divmod(keys, npts)
    va, vb = flat[ia], flat[ib]
    # from here on only the lattice's shape is needed: release the lattice
    shape = values.shape
    del values, flat, keys, end, tied
    t = np.divide(rho - va, vb - va, out=np.zeros(len(va)), where=ia != ib)
    pa, pb = (qi.grid_points(grid, shape, i) for i in (ia, ib))
    svals = _refine_vertices(spline, t, pa, pb, va - rho, vb - rho, rho,
                             60 if request.refine else 1)
    verts = pa + t[:, None] * (pb - pa)
    del ia, ib, va, vb, t, pa, pb  # the triangle test needs only verts

    # drop degenerate triangles
    v0 = verts[triangles[:, 0]]
    area2 = np.linalg.norm(np.cross(verts[triangles[:, 1]] - v0,
                                    verts[triangles[:, 2]] - v0), axis=1)
    triangles = triangles[area2 > 2.0 * area_cut]

    # compact to referenced vertices (keyed order kept, so deterministic)
    keep = np.zeros(len(verts), dtype=bool)
    keep[triangles] = True
    remap = (np.cumsum(keep) - 1).astype(np.int32)
    verts, svals = verts[keep], svals[keep]
    triangles = remap[triangles]

    residual = float(np.abs(svals - rho).max()) if len(verts) else 0.0
    scalars = None
    if request.reference is not None and len(verts):
        scalars = np.abs(np.asarray(request.reference(verts), np.float64)
                         - svals)
    return TriangleMesh(verts, triangles, scalars=scalars, residual=residual)


def _refine_vertices(spline, t, pa, pb, fa, fb, rho, steps):
    """Refine the edge parameters ``t`` in place, over at most ``steps``
    evaluations, until |s(v) - rho| <= 1e-8; return s at the final points.

    Illinois regula falsi on the bracket [0, 1] of each edge, whose end
    values s - rho are ``fa`` and ``fb`` (opposite signs, or one zero): the
    first step evaluates the linear vertex ``t`` itself, each later one the
    secant root of the shrinking bracket, with the value at an end kept
    twice in a row halved.  Each step evaluates only the vertices not yet
    within tolerance; vertices that never reach it keep their linear t and
    its value.
    """
    todo = np.arange(len(t))
    lo, hi = np.zeros(len(t)), np.ones(len(t))
    flo, fhi = fa, fb
    kept = np.zeros(len(t), dtype=int)  # +1: lo kept last, -1: hi kept
    x = t.copy()
    for step in range(steps):
        if step:
            move_lo = (f < 0.0) == (flo < 0.0)
            lo, flo = np.where(move_lo, x, lo), np.where(move_lo, f, flo)
            hi, fhi = np.where(move_lo, hi, x), np.where(move_lo, fhi, f)
            # Illinois: an end kept on two steps running has its value halved
            fhi = np.where(move_lo & (kept == -1), 0.5 * fhi, fhi)
            flo = np.where(~move_lo & (kept == 1), 0.5 * flo, flo)
            kept = np.where(move_lo, -1, 1)
            x = np.clip((lo * fhi - hi * flo) / (fhi - flo), lo, hi)
        s = spline.eval(pa + x[:, None] * (pb - pa))
        if not step:
            values = s.copy()  # the linear vertices
        f = s - rho
        done = np.abs(f) <= REFINE_TOLERANCE
        t[todo[done]] = x[done]
        values[todo[done]] = s[done]
        go = ~done
        todo, pa, pb, x, f = todo[go], pa[go], pb[go], x[go], f[go]
        lo, hi, flo, fhi, kept = lo[go], hi[go], flo[go], fhi[go], kept[go]
        if not len(todo):
            break
    return values


def edge_use_counts(mesh: TriangleMesh) -> np.ndarray:
    """Use count of every undirected triangle edge (sanity: all <= 2)."""
    t = mesh.triangles.astype(np.int64)
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = pairs.min(axis=1) * len(mesh.vertices) + pairs.max(axis=1)
    return np.unique(keys, return_counts=True)[1]


# ---------------------------------------------------------------------------
# OBJ (ASCII)
# ---------------------------------------------------------------------------

def _chunks(a: np.ndarray):
    """``a`` in pieces of at most ``_MESH_CHUNK`` records: the one chunk
    loop of both export formats."""
    return (a[start:start + _MESH_CHUNK]
            for start in range(0, len(a), _MESH_CHUNK))


def _obj_chunks(mesh: TriangleMesh):
    """The OBJ text of :func:`write_obj` in pieces of ``_chunks``, each
    formatted by one ``%``."""
    for rows in _chunks(mesh.vertices):
        yield "v %r %r %r\n" * len(rows) % tuple(rows.reshape(-1).tolist())
    for rows in _chunks(mesh.triangles):
        rows = rows.astype(np.int64) + 1
        yield "f %d %d %d\n" * len(rows) % tuple(rows.reshape(-1).tolist())


def write_obj(mesh: TriangleMesh) -> str:
    """Serialize to OBJ text: v/f records, 1-based, round-trip precision."""
    return "".join(_obj_chunks(mesh))


def read_obj(text: str) -> TriangleMesh:
    """Parse the v/f subset of OBJ written by :func:`write_obj` (see the
    module notes); a malformed record or a non-finite coordinate raises
    one ``ValueError``."""
    verts, tris = [], []
    for line in text.splitlines():
        kind, *fields = line.split() or [""]
        if kind in ("v", "f") and len(fields) != 3:
            raise ValueError(f"OBJ {kind} record needs 3 fields: {line!r}")
        if kind == "v":
            verts.append([float(p) for p in fields])
        elif kind == "f":
            tris.append([int(p.split("/")[0]) - 1 for p in fields])
    vertices = np.array(verts, np.float64).reshape(-1, 3)
    if not np.isfinite(vertices).all():
        raise ValueError("OBJ vertex coordinate is not finite")
    return TriangleMesh(vertices, np.array(tris, np.int32).reshape(-1, 3))


# ---------------------------------------------------------------------------
# PLY (binary little-endian)
# ---------------------------------------------------------------------------

def _ply_header(nv: int, nf: int, scalar: bool) -> str:
    """The header of :func:`write_ply`, the only one :func:`read_ply` reads."""
    props = ["x", "y", "z", "scalar"][:4 if scalar else 3]
    return "\n".join([
        "ply", "format binary_little_endian 1.0", f"element vertex {nv}",
        *[f"property double {p}" for p in props], f"element face {nf}",
        "property list uchar int vertex_indices", "end_header", ""])


def _ply_chunks(mesh: TriangleMesh):
    """The bytes of :func:`write_ply`: the header, then the vertex block
    and the face block in pieces of ``_chunks``."""
    v, t = mesh.vertices, mesh.triangles
    scalar = mesh.scalars is not None
    columns = [v, mesh.scalars] if scalar else [v]
    yield _ply_header(len(v), len(t), scalar).encode("ascii")
    for rows in zip(*map(_chunks, columns)):
        yield np.column_stack(rows).astype("<f8").tobytes()
    for rows in _chunks(t):
        faces = np.empty((len(rows), 13), dtype=np.uint8)
        faces[:, 0] = 3
        faces[:, 1:] = rows.astype("<i4").view(np.uint8).reshape(-1, 12)
        yield faces.tobytes()


def write_ply(mesh: TriangleMesh) -> bytes:
    """Serialize to binary little-endian PLY (scalar channel kept)."""
    return b"".join(_ply_chunks(mesh))


def read_ply(data: bytes) -> TriangleMesh:
    """Parse the PLY layout written by :func:`write_ply`.  Any other
    header, a short or overlong body, non-triangle faces and non-finite
    coordinates or scalars raise one ``ValueError`` naming the problem."""
    head, sep, body = data.partition(b"end_header\n")
    if not sep:
        raise ValueError("not a PLY stream (missing end_header)")
    header = (head + sep).decode("ascii")
    counts = re.findall(r"^element \w+ (\d+)$", header, re.M) + ["0", "0"]
    nv, nf = int(counts[0]), int(counts[1])
    ncol = 4 if "\nproperty double scalar\n" in header else 3
    expected = _ply_header(nv, nf, ncol == 4)
    if header != expected:
        line = next(a for a, b in zip(header.split("\n"),
                                      expected.split("\n")) if a != b)
        raise ValueError(f"unsupported PLY header line {line!r}")
    vbytes = nv * ncol * 8
    size = vbytes + nf * 13
    if len(body) != size:
        problem = "is truncated" if len(body) < size else "has trailing bytes"
        raise ValueError(f"PLY body {problem}: {len(body)} bytes, the "
                         f"header declares {size}")
    vdata = np.frombuffer(body[:vbytes], "<f8").reshape(nv, ncol)
    if not np.isfinite(vdata).all():
        raise ValueError("PLY vertex coordinate or scalar is not finite")
    fdata = np.frombuffer(body[vbytes:], np.uint8).reshape(nf, 13)
    if (fdata[:, 0] != 3).any():
        raise ValueError("PLY face is not a triangle (vertex count != 3)")
    tris = fdata[:, 1:].copy().view("<i4").reshape(nf, 3)
    return TriangleMesh(vdata[:, :3], tris.astype(np.int32),
                        scalars=vdata[:, 3] if ncol == 4 else None)


def mesh_format(path, format: str | None = None) -> str:
    """``"obj"`` or ``"ply"``: ``format`` if given, else the suffix of
    ``path``; anything else raises one ``ValueError``."""
    fmt = (format or Path(path).suffix.lstrip(".")).lower()
    if fmt not in ("obj", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (use obj or ply)")
    return fmt


def write_mesh(mesh: TriangleMesh, path, format: str | None = None) -> None:
    """Write OBJ or PLY by explicit format or file suffix.

    Either format goes chunk by chunk, so only one chunk is held, to a
    sibling ``.part`` file that then replaces ``path``, so a failed write
    leaves no partial mesh there.
    """
    path = Path(path)
    chunks = (_obj_chunks if mesh_format(path, format) == "obj"
              else _ply_chunks)(mesh)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("ascii") if isinstance(chunk, str)
                         else chunk)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
