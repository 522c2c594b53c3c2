"""Volume ingestion and analytic test fields.

Raw volumes
-----------
Gridded scalar volumes arrive as headerless binary streams plus a JSON
sidecar ``{dims, dtype, endianness, spacing}``.  A volume of N1 x N2 x N3
voxels maps onto the sample lattice of a grid with m_a = N_a - 2 and h = 1
(index units): voxel (i, j, k), 0-based with i fastest in the stream, lands
on data index (i, j, k), so the two outermost voxel layers per axis sit on
the boundary faces of Omega and interior voxels at half-integer positions.
Physical voxel spacing, when present, is carried through as metadata only;
geometry stays cubic and callers rescale output coordinates.

Test fields
-----------
Three closed-form benchmarks, each on a cube domain that is translated onto
Omega = [0, m h]^3 with h = side/m before sampling:

* ``f1`` -- a highly oscillatory sinusoid-in-cosine field on [-1, 1]^3,
* ``f2`` -- a sum of four Gaussians (two cylindrical) on [0, 1]^3,
* ``f3`` -- a sharp tanh ramp across the plane z = x + y on [-1/2, 1/2]^3.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import data_points
from .geometry import DomainGrid, as_counts

__all__ = [
    "VolumeHeader", "read_raw", "write_raw", "load_volume", "save_volume",
    "TestFunction", "TEST_FUNCTIONS", "sample_test_function",
]

MIN_DIM = 13  # smallest voxel count per axis (m = N - 2 >= 11)

_DTYPES = {"u8": 1, "u16": 2}
_ENDIAN = {"little": "<", "big": ">"}


# ---------------------------------------------------------------------------
# raw volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeHeader:
    """Shape and encoding of a headerless raw volume stream."""

    dims: tuple[int, int, int]
    dtype: str = "u8"
    endianness: str = "little"
    spacing: tuple[float, float, float] | None = None

    def __post_init__(self):
        dims = _triple(self.dims, int)
        if dims is None or any(n < MIN_DIM for n in dims):
            raise ValueError(
                f"dims must be three integers >= {MIN_DIM}, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        if not isinstance(self.dtype, str) or self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, "
                             f"got {self.dtype!r}")
        if (not isinstance(self.endianness, str)
                or self.endianness not in _ENDIAN):
            raise ValueError(f"endianness must be one of {sorted(_ENDIAN)}, "
                             f"got {self.endianness!r}")
        if self.spacing is not None:
            spacing = _triple(self.spacing, float)
            if spacing is None or not all(0 < s < math.inf for s in spacing):
                raise ValueError(f"spacing must be three finite positive "
                                 f"reals, got {self.spacing}")
            object.__setattr__(self, "spacing", spacing)

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(_ENDIAN[self.endianness] + f"u{_DTYPES[self.dtype]}")

    @property
    def nbytes(self) -> int:
        n1, n2, n3 = self.dims
        return n1 * n2 * n3 * _DTYPES[self.dtype]

    def grid(self) -> DomainGrid:
        n1, n2, n3 = self.dims
        return DomainGrid(n1 - 2, n2 - 2, n3 - 2, h=1.0)

    @classmethod
    def from_json(cls, text: str) -> "VolumeHeader":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid header JSON: {exc}") from None
        if not isinstance(raw, dict) or "dims" not in raw:
            raise ValueError("header JSON must be an object with 'dims'")
        known = {"dims", "dtype", "endianness", "spacing"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown header fields: {sorted(extra)}")
        return cls(dims=raw["dims"], dtype=raw.get("dtype", "u8"),
                   endianness=raw.get("endianness", "little"),
                   spacing=raw.get("spacing"))

    def to_json(self) -> str:
        fields = {"dims": list(self.dims), "dtype": self.dtype,
                  "endianness": self.endianness}
        if self.spacing is not None:
            fields["spacing"] = list(self.spacing)
        return json.dumps(fields, indent=2) + "\n"


def _triple(values, kind):
    """Three numbers converted by `kind` (int or float), or None.

    For int only integers count; for float any real number does.  A bool is
    never a number here, and nothing is parsed from a string.
    """
    abstract = numbers.Integral if kind is int else numbers.Real
    try:
        out = tuple(values)
        if len(out) == 3 and all(isinstance(v, abstract)
                                 and not isinstance(v, bool) for v in out):
            return tuple(kind(v) for v in out)
    except (TypeError, OverflowError):
        pass
    return None


def read_raw(header: VolumeHeader, data: bytes):
    """Decode a raw stream into a sample field plus its grid.

    Returns ``(samples, grid)`` where ``samples`` is a C-ordered float64
    array of shape ``dims`` (voxel (i, j, k) at ``samples[i, j, k]``), the
    layout ``qi.approximate`` reads without a copy, and
    ``grid = DomainGrid(N1-2, N2-2, N3-2, h=1)``.
    """
    if len(data) != header.nbytes:
        raise ValueError(
            f"raw stream holds {len(data)} bytes but header "
            f"{header.dims} {header.dtype} requires {header.nbytes}")
    flat = np.frombuffer(data, dtype=header.numpy_dtype)
    samples = flat.reshape(header.dims, order="F").astype(np.float64,
                                                          order="C")
    samples.setflags(write=False)
    return samples, header.grid()


def write_raw(header: VolumeHeader, samples: np.ndarray) -> bytes:
    """Encode a sample field back into the raw stream (inverse of read_raw)."""
    samples = np.asarray(samples)
    if samples.shape != header.dims:
        raise ValueError(f"sample field shape {samples.shape} does not "
                         f"match header dims {header.dims}")
    rounded = np.rint(samples)
    limit = 2 ** (8 * _DTYPES[header.dtype]) - 1
    if (not np.array_equal(rounded, samples) or samples.min() < 0
            or samples.max() > limit):
        raise ValueError(f"sample values are not representable as "
                         f"{header.dtype} (need integers in [0, {limit}])")
    return np.asfortranarray(rounded.astype(header.numpy_dtype)).tobytes("F")


def load_volume(path, header_path=None):
    """Read ``path`` (raw stream) with its JSON sidecar ``path + '.json'``.

    Returns ``(samples, grid, header)``.
    """
    path = Path(path)
    header_path = (path.with_name(path.name + ".json")
                   if header_path is None else Path(header_path))
    if not header_path.exists():
        raise ValueError(f"missing volume header {header_path}")
    header = VolumeHeader.from_json(header_path.read_text())
    samples, grid = read_raw(header, path.read_bytes())
    return samples, grid, header


def save_volume(path, header: VolumeHeader, samples, header_path=None):
    """Write a raw stream plus JSON sidecar (inverse of load_volume)."""
    path = Path(path)
    header_path = (path.with_name(path.name + ".json")
                   if header_path is None else Path(header_path))
    path.write_bytes(write_raw(header, samples))
    header_path.write_text(header.to_json())


# ---------------------------------------------------------------------------
# analytic test fields
# ---------------------------------------------------------------------------

def _f1(x, y, z):
    beta1, beta2 = 0.25, 6.0
    rho = np.cos(2.0 * np.pi * beta2
                 * np.cos(0.5 * np.pi * np.sqrt(x * x + y * y)))
    return (1.0 - np.sin(0.5 * np.pi * z) + beta1 * (1.0 + rho)) \
        / (2.0 * (1.0 + beta1))


def _f2(x, y, z):
    return (0.50 * np.exp(-10.0 * ((x - 0.25) ** 2 + (y - 0.25) ** 2))
            + 0.75 * np.exp(-16.0 * ((x - 0.50) ** 2 + (y - 0.25) ** 2
                                     + (z - 0.25) ** 2))
            + 0.50 * np.exp(-10.0 * ((x - 0.75) ** 2 + (y - 0.125) ** 2
                                     + (z - 0.50) ** 2))
            - 0.25 * np.exp(-20.0 * ((x - 0.75) ** 2 + (y - 0.75) ** 2)))


def _f3(x, y, z):
    return np.tanh(9.0 * (z - x - y) + 1.0) / 9.0


@dataclass(frozen=True)
class TestFunction:
    """A closed-form benchmark field on the cube [lo, hi]^3."""

    id: str
    lo: float
    hi: float
    _fn: callable

    @property
    def side(self) -> float:
        return self.hi - self.lo

    def __call__(self, points) -> np.ndarray:
        """Evaluate at native-domain points, shape (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return self._fn(p[..., 0], p[..., 1], p[..., 2])

    def on_omega(self, points) -> np.ndarray:
        """Evaluate at Omega points (the domain translated to start at 0)."""
        return self(np.asarray(points, dtype=np.float64) + self.lo)


TEST_FUNCTIONS = {
    "f1": TestFunction("f1", -1.0, 1.0, _f1),
    "f2": TestFunction("f2", 0.0, 1.0, _f2),
    "f3": TestFunction("f3", -0.5, 0.5, _f3),
}


def sample_test_function(fn_id: str, m: int):
    """Sample a benchmark field at every data point of an m^3 grid, ``m``
    one cube count or three equal ones (`geometry.as_counts`).

    The field's cube domain is translated onto Omega = [0, m h]^3 with
    h = side/m.  Returns ``(samples, grid, fn)`` with ``samples`` of shape
    (m+2,)*3.
    """
    fn = TEST_FUNCTIONS.get(fn_id)
    if fn is None:
        raise ValueError(f"unknown test function {fn_id!r} "
                         f"(choose from {sorted(TEST_FUNCTIONS)})")
    ms = as_counts(m, 1, "m must be one or three positive integers")
    if len(set(ms)) != 1:
        raise ValueError(f"benchmark domains are cubes; m must be uniform, "
                         f"got {ms}")
    grid = DomainGrid(*ms, h=fn.side / ms[0])
    grid.require_quasi_interpolation()
    samples = fn.on_omega(data_points(grid))
    samples.setflags(write=False)
    return samples, grid, fn
