"""End-to-end pipeline on a synthetic CT-scan-shaped raw volume.

Writes a 256 x 256 x 99 unsigned-16-bit raw volume plus its JSON header
sidecar to disk, reads it back, builds the quasi-interpolant, compares the
coefficient bytes that evaluation reads with the size of the optional dense
patch export, evaluates a mid-plane slice and extracts one isosurface.  This
mirrors what the CLI does with

    boxqi approximate --in scan.raw --out scan.qis
    boxqi isosurface --in scan.qis --iso 24000 --out scan.obj
"""

import argparse
from pathlib import Path

import numpy as np

from boxqi import isosurface, qi, volume


def synthesize(path: Path) -> Path:
    """Write a smooth synthetic volume and sidecar; returns the raw path."""
    header = volume.VolumeHeader((256, 256, 99), dtype="u16",
                                 spacing=(0.49, 0.49, 1.0))
    x = np.arange(256)[:, None, None]
    y = np.arange(256)[None, :, None]
    z = np.arange(99)[None, None, :]
    field = np.rint(20000 + 15000 * np.sin(x / 40) * np.cos(y / 55)
                    + 80.0 * z)
    raw = path / "scan.raw"
    raw.write_bytes(volume.write_raw(header, field))
    (path / "scan.raw.json").write_text(header.to_json())
    return raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", type=Path, default=Path("."),
                    help="directory for the generated files (default: .)")
    ap.add_argument("--isovalue", type=float, default=24000.0)
    args = ap.parse_args(argv)

    args.dir.mkdir(parents=True, exist_ok=True)
    raw = synthesize(args.dir)
    size = raw.stat().st_size
    print(f"wrote {raw} ({size / 2 ** 20:.1f} MiB) + JSON sidecar")

    samples, grid, _ = volume.load_volume(raw)
    print(f"volume grid: m = {grid.m}, h = {grid.h}")

    spline = qi.approximate(samples, grid)
    dense_bytes = grid.m[0] * grid.m[1] * grid.m[2] * 24 * 35 * 8
    print(f"evaluation reads the {spline.coefficients.nbytes / 2 ** 20:.1f}"
          f" MiB of coefficients; a dense patch export would need "
          f"{dense_bytes / 2 ** 30:.1f} GiB")

    # evaluate a mid-plane slice
    ext = grid.extent
    xs = np.linspace(0.0, ext[0], 65)
    ys = np.linspace(0.0, ext[1], 65)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    flat = np.concatenate(
        [pts.reshape(-1, 2), np.full((65 * 65, 1), ext[2] / 2)], axis=1)
    slab = spline.eval(flat)
    print(f"mid-plane slice: values in [{slab.min():.0f}, {slab.max():.0f}]")

    mesh = isosurface.extract(spline,
                              isosurface.IsoRequest(args.isovalue, 96))
    out = args.dir / "scan.obj"
    isosurface.write_mesh(mesh, out)
    print(f"isovalue {args.isovalue:g}: {len(mesh.vertices)} vertices, "
          f"{len(mesh.triangles)} triangles -> {out}")


if __name__ == "__main__":
    main()
