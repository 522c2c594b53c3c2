"""Extract an isosurface from a reconstructed test field and export it.

Samples the chosen analytic field on an m^3 grid, builds the spline,
runs marching tetrahedra on the requested sampling resolution and writes
the mesh.  The PLY output carries a per-vertex scalar channel with the
pointwise deviation |f(v) - s(v)| between the analytic field and the
spline, so the reconstruction error can be color-mapped in a viewer.
"""

import argparse
from pathlib import Path

import numpy as np

from boxqi import isosurface, qi, volume


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fn", choices=sorted(volume.TEST_FUNCTIONS),
                    default="f2")
    ap.add_argument("--m", type=int, default=32,
                    help="reconstruction grid resolution (default: 32)")
    ap.add_argument("--isovalue", type=float, default=0.3)
    ap.add_argument("--resolution", type=int, default=64,
                    help="marching-tetrahedra sampling resolution")
    ap.add_argument("--refine", action="store_true",
                    help="project vertices onto the exact level set")
    ap.add_argument("--out", type=Path, default=Path("isosurface.ply"),
                    help=".ply or .obj output path")
    args = ap.parse_args(argv)

    samples, grid, fn = volume.sample_test_function(args.fn, args.m)
    spline = qi.approximate(samples, grid)
    request = isosurface.IsoRequest(args.isovalue, args.resolution,
                                    refine=args.refine,
                                    reference=fn.on_omega)
    mesh = isosurface.extract(spline, request)
    if len(mesh.vertices) == 0:
        print(f"level set {args.isovalue} is empty for {args.fn}")
        return

    isosurface.write_mesh(mesh, args.out)
    print(f"{args.fn} on m = {args.m}: isovalue {args.isovalue}, "
          f"resolution {args.resolution}"
          + (", refined" if args.refine else ""))
    print(f"  {len(mesh.vertices)} vertices, {len(mesh.triangles)} "
          f"triangles -> {args.out}")
    print(f"  residual max |s(v) - iso| = {mesh.residual:.3e}")
    print(f"  reconstruction error at vertices: max {mesh.scalars.max():.3e}"
          f", mean {np.mean(mesh.scalars):.3e}")


if __name__ == "__main__":
    main()
