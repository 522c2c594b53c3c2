"""Command-line front end.

Subcommands
-----------
* ``info``        -- grid bookkeeping: index-set size, norm bound, memory
* ``derive``      -- run the exact l1 minimization for one (class, n) cell
* ``norm-table``  -- optimal-norm sweep over n for one boundary class (CSV)
* ``stencils``    -- dump the embedded coefficient-functional library
* ``sample``      -- sample a benchmark field onto the data lattice
* ``approximate`` -- build a spline from a benchmark or a raw volume
* ``eval``        -- evaluate a saved spline over a uniform grid
* ``convergence`` -- error/order table for a benchmark (CSV)
* ``isosurface``  -- marching-tetrahedra mesh export (OBJ/PLY)

All outputs are deterministic for fixed flags: CSV columns are fixed and
floats print in shortest round-trip form.
Errors exit nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import convergence, domain, isosurface, nearbest, qi, stencils, volume
from .geometry import DomainGrid

__all__ = ["main"]


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(value))


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    raise AssertionError


def _ints(parts, flag: str, text: str):
    """`parts` as ints; a part that is not an integer is one error naming
    `flag` and its whole value `text`."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{flag} takes integers, got {text!r}") from None


def _parse_triple(text: str, name: str):
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"{name} must be one value or three "
                         f"comma-separated values, got {text!r}")
    return tuple(_ints(parts, name, text))


def _parse_class(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--class takes three comma-separated integers, "
                         f"got {text!r}")
    return tuple(_ints(parts, "--class", text))


def _parse_n_values(text: str):
    if ".." in text:
        lo, hi = _ints(text.split("..", 1), "--n", text)
        values = list(range(lo, hi + 1))
        if not values:
            raise ValueError(f"--n range {text!r} is empty")
    else:
        values = _ints(text.split(","), "--n", text)
    if min(values) < 1:
        raise ValueError(f"--n values must be >= 1, got {text!r}")
    return values


def _parse_m_list(text: str):
    return _ints(text.split(","), "--m", text)


def _grid_from_flags(args, h=1.0) -> DomainGrid:
    return DomainGrid(*_parse_triple(args.m, "--m"), h=h)


def _csv(rows, header) -> str:
    return "\n".join([",".join(header)]
                     + [",".join(row) for row in rows]) + "\n"


def _write(text: str, out=None):
    """Write a command's output to the ``--out`` file, else to stdout."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _printed_norm(norm_fraction) -> str:
    return _fmt(stencils.rounded_up(norm_fraction))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    grid = _grid_from_flags(args, args.h)
    grid.require_quasi_interpolation()
    m1, m2, m3 = grid.m
    active = int(domain.active_mask(grid).sum())
    slots = (m1 + 4) * (m2 + 4) * (m3 + 4)
    lib = stencils.library()
    bound = max(s.norm for s in lib.values())
    coeff_bytes = slots * 8
    dense_bytes = m1 * m2 * m3 * qi._PATCH_BYTES_PER_CUBE
    print(f"grid: {m1} x {m2} x {m3} cells, h = {_fmt(grid.h)}")
    print(f"domain: [0, {_fmt(m1 * grid.h)}] x [0, {_fmt(m2 * grid.h)}] "
          f"x [0, {_fmt(m3 * grid.h)}]")
    print(f"data points: {m1 + 2} x {m2 + 2} x {m3 + 2} = "
          f"{(m1 + 2) * (m2 + 2) * (m3 + 2)}")
    print(f"coefficients: |A| = {active} active of {slots} slots")
    print(f"operator norm bound: {_printed_norm(bound)} ({bound})")
    print(f"memory: coefficients {_human_bytes(coeff_bytes)} "
          f"(read by evaluation), optional dense patch export "
          f"{_human_bytes(dense_bytes)}")
    return 0


def cmd_derive(args) -> int:
    key = _parse_class(getattr(args, "class"))
    solution = nearbest.minimize_l1(
        nearbest.constraint_system(key, args.n, _grid_from_flags(args)))
    if args.format == "json":
        doc = {"class": list(key), "n": args.n, "status": solution.status}
        if solution.status == "optimal":
            doc["norm"] = str(solution.norm)
            doc["norm_float"] = solution.norm_float
            doc["norm_4sf"] = _printed_norm(solution.norm)
            doc["weights"] = [
                {"index": [int(i) for i in point], "weight": str(w)}
                for point, w in zip(solution.system.points, solution.weights)
                if w != 0]
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        rows = []
        if solution.status == "optimal":
            rows = [(str(p[0]), str(p[1]), str(p[2]), str(w))
                    for p, w in zip(solution.system.points, solution.weights)
                    if w != 0]
        _write(_csv(rows, ("i", "j", "k", "weight")), args.out)
        if solution.status != "optimal":
            print(f"status: {solution.status}", file=sys.stderr)
    return 0


def cmd_norm_table(args) -> int:
    key = _parse_class(getattr(args, "class"))
    cells = nearbest.norm_table([key], _parse_n_values(args.n),
                                grid=_grid_from_flags(args))
    rows = []
    for cell in cells:
        optimal = cell["status"] == "optimal"
        label = '"' + ",".join(str(c) for c in cell["key"]) + '"'
        rows.append((label, str(cell["n"]), cell["status"],
                     _fmt(cell["norm"]) if optimal else "",
                     _printed_norm(cell["norm"]) if optimal else ""))
    _write(_csv(rows, ("class", "n", "status", "norm", "norm_4sf")),
           args.out)
    return 0


def cmd_stencils(args) -> int:
    lib = stencils.library()
    keys = sorted(lib)
    if getattr(args, "class") is not None:
        key = _parse_class(getattr(args, "class"))
        if key not in lib:
            raise ValueError(f"unknown stencil class {key}")
        keys = [key]
    if args.format == "json":
        doc = []
        for key in keys:
            s = lib[key]
            doc.append({
                "class": list(key), "n": s.n, "entries": len(s.weights),
                "l1": str(s.norm), "l1_4sf": s.norm_4sf,
                "weights": [{"index": list(map(int, i)), "weight": str(w)}
                            for i, w in zip(s.indices, s.weights)]})
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        rows = [('"' + ",".join(str(c) for c in key) + '"', str(lib[key].n),
                 str(len(lib[key].weights)), _fmt(lib[key].norm),
                 lib[key].norm_4sf) for key in keys]
        _write(_csv(rows, ("class", "n", "entries", "l1", "l1_4sf")),
               args.out)
    return 0


def cmd_sample(args) -> int:
    samples, grid, _ = volume.sample_test_function(args.fn, args.m)
    if args.out:
        np.save(args.out, samples)
    print(f"fn: {args.fn}")
    print(f"grid: {grid.m[0]} x {grid.m[1]} x {grid.m[2]} cells, "
          f"h = {_fmt(grid.h)}")
    print(f"samples: {samples.shape[0]} x {samples.shape[1]} x "
          f"{samples.shape[2]}, min = {_fmt(samples.min())}, "
          f"max = {_fmt(samples.max())}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_approximate(args) -> int:
    if (args.fn is None) == (getattr(args, "in") is None):
        raise ValueError("give exactly one input: --fn with --m, or --in")
    if args.fn is not None:
        if args.m is None:
            raise ValueError("--fn requires --m")
        samples, grid, _ = volume.sample_test_function(
            args.fn, _parse_triple(args.m, "--m"))
    else:
        path = Path(getattr(args, "in"))
        if path.suffix == ".npy":
            samples = np.load(path)
            if samples.ndim != 3:
                raise ValueError(f"{path}: expected a 3D array of samples, "
                                 f"got shape {samples.shape}")
            grid = DomainGrid(*(d - 2 for d in samples.shape), h=args.h)
        else:
            samples, grid, _ = volume.load_volume(path, args.header)
    spline = qi.approximate(samples, grid)
    spline.save(args.out)
    m1, m2, m3 = grid.m
    print(f"wrote {args.out} (m = {m1} x {m2} x {m3}, h = {_fmt(grid.h)})")
    return 0


def cmd_eval(args) -> int:
    spline = qi.QISpline.load(getattr(args, "in"))
    fn = None
    if args.fn is not None:
        fn = volume.TEST_FUNCTIONS.get(args.fn)
        if fn is None:
            raise ValueError(f"unknown test function {args.fn!r}")
    count, low, high, error = convergence.grid_summary(spline, args.grid, fn)
    header = ["points", "minimum", "maximum"]
    row = [str(count), _fmt(low), _fmt(high)]
    if fn is not None:
        header.append("max_error")
        row.append(_fmt(error))
    _write(_csv([row], header), args.out)
    return 0


def cmd_convergence(args) -> int:
    rows = convergence.convergence_table(args.fn, _parse_m_list(args.m),
                                         eval_points=args.grid)
    table = [(row.fn, str(row.m), _fmt(row.h), _fmt(row.error),
              "" if row.rf is None else _fmt(row.rf)) for row in rows]
    _write(_csv(table, ("fn", "m", "h", "max_error", "rf")), args.out)
    return 0


def cmd_isosurface(args) -> int:
    # resolved before the spline is read: a bad --out or --res fails at once
    fmt = isosurface.mesh_format(args.out, args.format)
    res = _parse_triple(args.res, "--res")
    if fmt == "obj" and args.fn is not None:
        raise ValueError("--fn needs PLY output: OBJ has no channel for "
                         "the reference error")
    spline = qi.QISpline.load(getattr(args, "in"))
    reference = None
    if args.fn is not None:
        fn = volume.TEST_FUNCTIONS.get(args.fn)
        if fn is None:
            raise ValueError(f"unknown test function {args.fn!r}")
        reference = fn.on_omega
    request = isosurface.IsoRequest(isovalue=args.iso, resolution=res,
                                    refine=args.refine, reference=reference)
    mesh = isosurface.extract(spline, request)
    isosurface.write_mesh(mesh, args.out, fmt)
    print(f"wrote {args.out} ({len(mesh.vertices)} vertices, "
          f"{len(mesh.triangles)} triangles, "
          f"residual {_fmt(mesh.residual)})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxqi",
        description="C2 quartic spline reconstruction of gridded volumes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        # no prefix matching: a dropped flag such as --h must not turn
        # into --help
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=fn)
        return p

    p = add("info", cmd_info, "grid and operator bookkeeping")
    p.add_argument("--m", required=True,
                   help="cells per axis: one int or i,j,k")
    p.add_argument("--h", type=float, default=1.0, help="cell width")

    p = add("derive", cmd_derive,
            "exact l1 minimization for one (class, n) cell")
    p.add_argument("--class", required=True, help="boundary class i,j,k")
    p.add_argument("--n", type=int, required=True, help="octahedron radius")
    p.add_argument("--m", default="11,11,11", help="grid cells per axis")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write here instead of stdout")

    p = add("norm-table", cmd_norm_table,
            "optimal-norm sweep over n for one class (CSV)")
    p.add_argument("--class", required=True, help="boundary class i,j,k")
    p.add_argument("--n", required=True, help="radii: lo..hi or list")
    p.add_argument("--m", default="11,11,11")
    p.add_argument("--out")

    p = add("stencils", cmd_stencils,
            "dump the embedded coefficient-functional library")
    p.add_argument("--class", help="restrict to one class i,j,k")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")

    p = add("sample", cmd_sample, "sample a benchmark onto the data lattice")
    p.add_argument("--fn", required=True, help="benchmark id: f1, f2 or f3")
    p.add_argument("--m", type=int, required=True, help="cells per axis")
    p.add_argument("--out", help="write float64 .npy here")

    p = add("approximate", cmd_approximate,
            "build and save a quasi-interpolant spline")
    p.add_argument("--fn", help="benchmark id (with --m)")
    p.add_argument("--m", help="cells per axis for --fn")
    p.add_argument("--in", help="raw volume (JSON sidecar) or .npy samples")
    p.add_argument("--header", help="sidecar path override for --in")
    p.add_argument("--h", type=float, default=1.0,
                   help="cell width for .npy input")
    p.add_argument("--out", required=True, help="spline file to write")

    p = add("eval", cmd_eval, "evaluate a saved spline over a uniform grid")
    p.add_argument("--in", required=True, help="spline file")
    p.add_argument("--grid", type=int, default=139,
                   help="points per axis, endpoints included")
    p.add_argument("--fn", help="benchmark id for max-error reporting")
    p.add_argument("--out")

    p = add("convergence", cmd_convergence,
            "max-error/order table for a benchmark (CSV)")
    p.add_argument("--fn", required=True)
    p.add_argument("--m", default="16,32,64", help="comma list of m values")
    p.add_argument("--grid", type=int, default=139)
    p.add_argument("--out")

    p = add("isosurface", cmd_isosurface,
            "extract an isosurface mesh from a saved spline")
    p.add_argument("--in", required=True, help="spline file")
    p.add_argument("--iso", type=float, required=True, help="isovalue")
    p.add_argument("--res", default="64", help="cells per axis: i or i,j,k")
    p.add_argument("--refine", action="store_true",
                   help="refine vertices to |s(v) - iso| <= 1e-8")
    p.add_argument("--fn",
                   help="benchmark id for the error channel (PLY only)")
    p.add_argument("--out", required=True, help="mesh file (.obj or .ply)")
    p.add_argument("--format", choices=("obj", "ply"),
                   help="override the suffix-derived format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
