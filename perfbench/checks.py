"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls boxqi.  Every reference is either a closed-form field the
benchmark evaluates itself (the paper's f2, a seeded cubic, the polynomial
body of the synthetic scan) or a property the method must have: cubic
reproduction, the operator-norm bound 9.945, manifold meshes, exact P3
exactness of derived weights and agreement with an independent float LP.

A check returns ``None`` when the output is correct and a one-line
description of the fault otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: max l1 norm of the library's coefficient functionals (paper, Table 1):
#: |Qf| <= NORM_BOUND * max|f| on the whole domain
NORM_BOUND = 9.945

#: the paper's f2 error at m = 32 on the 139^3 lattice, and the band around
#: it that the lattice error must stay inside
F2_REFERENCE_ERROR_M32 = 8.0e-4
F2_ERROR_BAND = 1.1

#: bisection tolerance of refined isosurface vertices (documented contract)
REFINE_TOLERANCE = 1e-8

CUBIC_EXPONENTS = tuple((i, j, k) for i in range(4) for j in range(4)
                        for k in range(4) if i + j + k <= 3)


# ---------------------------------------------------------------------------
# grids and lattices, from their documented definitions
# ---------------------------------------------------------------------------

def data_coordinates(m: int, h: float) -> np.ndarray:
    """Data points along one axis: 0, (i - 1/2) h for 1 <= i <= m, m h."""
    x = (np.arange(m + 2) - 0.5) * h
    x[0], x[-1] = 0.0, m * h
    return x


def data_lattice(ms, h: float) -> np.ndarray:
    axes = [data_coordinates(m, h) for m in ms]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def uniform_lattice(extent, n: int) -> np.ndarray:
    """n points per axis over [0, extent_a], endpoints included, as (n^3, 3)."""
    axes = [np.linspace(0.0, e, n) for e in extent]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def tie_share(points: np.ndarray, h: float, ms) -> float:
    """Share of points on a face shared by two tetrahedra inside one cube.

    Inside a cube the type-6 split's inner faces lie on the planes
    |d_a| = |d_b| with d = 2 u - 1 in cube-local coordinates u.
    """
    u = np.asarray(points, dtype=np.float64) / h
    cube = np.clip(np.ceil(u) - 1, 0, np.asarray(ms) - 1)
    d = np.abs(2.0 * (u - cube) - 1.0)
    tie = ((np.abs(d[:, 0] - d[:, 1]) <= 1e-9)
           | (np.abs(d[:, 0] - d[:, 2]) <= 1e-9)
           | (np.abs(d[:, 1] - d[:, 2]) <= 1e-9))
    return float(tie.mean()) if len(u) else 0.0


# ---------------------------------------------------------------------------
# reference fields
# ---------------------------------------------------------------------------

_F2_TERMS = (  # amplitude, rate, centre (None: the term ignores z)
    (0.50, 10.0, (0.25, 0.25, None)),
    (0.75, 16.0, (0.50, 0.25, 0.25)),
    (0.50, 10.0, (0.75, 0.125, 0.50)),
    (-0.25, 20.0, (0.75, 0.75, None)),
)


class Reference:
    """A field with its gradient and the tolerances its spline must meet.

    ``value_tol`` and ``grad_tol`` bound |s - f| and each |d_a s - d_a f|;
    ``iso_tol`` bounds |f(v) - rho| at every mesh vertex v.
    """

    value_tol: float
    grad_tol: float
    iso_tol: float

    def value(self, p):  # pragma: no cover - interface
        raise NotImplementedError

    def grad(self, p):  # pragma: no cover - interface
        raise NotImplementedError

    def check_values(self, points, values) -> str | None:
        return _within("values", values - self.value(points), self.value_tol)

    def check_gradient(self, points, grads) -> str | None:
        return _within("gradient", grads - self.grad(points), self.grad_tol)


class F2(Reference):
    """The paper's f2 on [0, 1]^3: four Gaussians, two of them cylindrical.

    Values must lie within 1.1 x the paper's 8.0e-4 at m = 32.  Gradients
    converge at order 3 only, with the maximum on the domain faces; 0.1 is a
    plausibility bound (the exact gradient check is the cubic reproduction).
    """

    value_tol = F2_ERROR_BAND * F2_REFERENCE_ERROR_M32
    grad_tol = 0.1
    iso_tol = value_tol + REFINE_TOLERANCE

    def _terms(self, p):
        p = np.asarray(p, dtype=np.float64)
        for amp, rate, centre in _F2_TERMS:
            diff = [p[..., a] - c if c is not None else np.zeros(p.shape[:-1])
                    for a, c in enumerate(centre)]
            r2 = diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2
            yield amp * np.exp(-rate * r2), rate, diff

    def value(self, p):
        return sum(v for v, _, _ in self._terms(p))

    def grad(self, p):
        return sum(np.stack([-2.0 * rate * v * d for d in diff], axis=-1)
                   for v, rate, diff in self._terms(p))


class Cubic(Reference):
    """A seeded random cubic; the spline must reproduce it to rounding."""

    def __init__(self, rng, points):
        self.c = rng.normal(size=len(CUBIC_EXPONENTS))
        scale = np.abs(self.value(points)).max()
        gscale = np.abs(self.grad(points)).max()
        self.value_tol = 1e-9 * scale       # criterion 03's tolerance
        self.grad_tol = 1e-8 * gscale
        self.iso_tol = self.value_tol + REFINE_TOLERANCE

    def value(self, p):
        p = np.asarray(p, dtype=np.float64)
        return sum(c * p[..., 0] ** i * p[..., 1] ** j * p[..., 2] ** k
                   for c, (i, j, k) in zip(self.c, CUBIC_EXPONENTS))

    def grad(self, p):
        p = np.asarray(p, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        out = np.zeros(p.shape)
        for c, (i, j, k) in zip(self.c, CUBIC_EXPONENTS):
            if i:
                out[..., 0] += c * i * x ** (i - 1) * y ** j * z ** k
            if j:
                out[..., 1] += c * j * x ** i * y ** (j - 1) * z ** k
            if k:
                out[..., 2] += c * k * x ** i * y ** j * z ** (k - 1)
        return out


class ScanBody(Reference):
    """The unrounded field behind the synthetic u16 scan.

    g is a seeded cubic polynomial (a bright elliptic body with a random
    cubic distortion) over the scan's domain [0, m_a] in voxel units.  The
    spline reproduces g exactly, so the only error comes from rounding the
    samples to u16:
    |s - g| <= 9.945 * 1/2, and, since each axis is a box-spline direction
    (d_e B_Xi is a difference of two translates of B_{Xi minus e}, which
    form a partition of unity), |d_a s - d_a g| <= 9.945 * 1/2 * 2.
    """

    def __init__(self, rng, ms, resolution: int):
        self.extent = np.array(ms, dtype=np.float64)
        self.centre = np.array([rng.uniform(0.45, 0.55),
                                rng.uniform(0.45, 0.55),
                                rng.uniform(0.40, 0.60)])
        self.cubic = [(e, rng.uniform(-300.0, 300.0))
                      for e in CUBIC_EXPONENTS if sum(e) == 3]
        slack = 1e-9 * 65535.0
        self.value_tol = NORM_BOUND * 0.5 + slack
        self.grad_tol = NORM_BOUND + slack
        # a vertex v lies on a sample-lattice edge of length <= L whose end
        # values straddle rho up to value_tol, so |g(v) - rho| <= tol + G L
        cubic_sum = sum(abs(b) for _, b in self.cubic)
        slope = np.array([70000.0 * 0.55, 70000.0 * 0.55, 20000.0 * 0.6])
        gmax = np.linalg.norm((slope + 3.0 * cubic_sum) / self.extent)
        cell = self.extent / resolution
        self.iso_tol = self.value_tol + gmax * float(np.linalg.norm(cell))

    def value(self, p):
        p = np.asarray(p, dtype=np.float64)
        return self._field(p[..., 0], p[..., 1], p[..., 2])

    def _field(self, x, y, z):
        """g at broadcastable coordinate arrays."""
        u = (x / self.extent[0], y / self.extent[1], z / self.extent[2])
        d = [u[a] - self.centre[a] for a in range(3)]
        out = 36000.0 - 35000.0 * (d[0] ** 2 + d[1] ** 2) - 10000.0 * d[2] ** 2
        for (i, j, k), b in self.cubic:
            out = out + b * u[0] ** i * u[1] ** j * u[2] ** k
        return out

    def grad(self, p):
        p = np.asarray(p, dtype=np.float64)
        u = p / self.extent
        d = u - self.centre
        out = np.stack([-70000.0 * d[..., 0], -70000.0 * d[..., 1],
                        -20000.0 * d[..., 2]], axis=-1)
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        for (i, j, k), b in self.cubic:
            if i:
                out[..., 0] += b * i * x ** (i - 1) * y ** j * z ** k
            if j:
                out[..., 1] += b * j * x ** i * y ** (j - 1) * z ** k
            if k:
                out[..., 2] += b * k * x ** i * y ** j * z ** (k - 1)
        return out / self.extent

    def samples(self) -> np.ndarray:
        """Rounded samples at the data points, a slab of x at a time so the
        benchmark's own memory stays far below the program's.  The body is
        built to stay in [0, 65535]."""
        x, y, z = (data_coordinates(int(m), 1.0) for m in self.extent)
        out = np.empty((len(x), len(y), len(z)))
        for i in range(0, len(x), 16):
            out[i:i + 16] = np.rint(self._field(
                x[i:i + 16, None, None], y[None, :, None], z[None, None, :]))
        if out.min() < 0 or out.max() > 65535:
            raise ValueError("scan body left the u16 range")
        return out


def _within(what, diff, tol) -> str | None:
    worst = float(np.abs(diff).max()) if np.size(diff) else 0.0
    if not worst <= tol:  # also catches NaN
        return f"{what}: max deviation {worst:.3e} > {tol:.3e}"
    return None


# ---------------------------------------------------------------------------
# meshes and files
# ---------------------------------------------------------------------------

def edge_uses(triangles: np.ndarray) -> np.ndarray:
    """How many triangles use each undirected edge."""
    t = np.asarray(triangles, dtype=np.int64)
    a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = lo * (int(t.max()) + 1 if len(t) else 1) + hi
    return np.unique(keys, return_counts=True)[1]


def check_mesh(vertices, triangles, ref: Reference, rho: float,
               extent) -> str | None:
    if len(triangles) == 0:
        return "mesh: empty"
    uses = edge_uses(triangles)
    if uses.max() > 2:
        return f"mesh: an edge is used by {int(uses.max())} triangles"
    if (vertices < -1e-9).any() or (vertices > np.asarray(extent) + 1e-9).any():
        return "mesh: a vertex lies outside the domain"
    return _within("mesh vertices |f(v) - rho|", ref.value(vertices) - rho,
                   ref.iso_tol)


def check_obj(text: str, vertices, triangles) -> str | None:
    """The written OBJ holds the mesh, coordinates round-tripping exactly."""
    v, f = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            v.append([float(x) for x in line.split()[1:4]])
        elif line.startswith("f "):
            f.append([int(x) - 1 for x in line.split()[1:4]])
    if not np.array_equal(np.array(v).reshape(-1, 3), vertices):
        return "OBJ: vertices differ from the mesh"
    if not np.array_equal(np.array(f).reshape(-1, 3), triangles):
        return "OBJ: triangles differ from the mesh"
    return None


def raw_bytes(samples: np.ndarray) -> bytes:
    """u16 little-endian stream, x fastest: the documented raw layout."""
    return np.asarray(samples).astype("<u2").tobytes(order="F")


def qis_coefficient_bytes(blob: bytes, coefficients: np.ndarray) -> str | None:
    """The .qis file ends with the coefficients as little-endian f64."""
    expected = np.ascontiguousarray(coefficients, dtype="<f8").tobytes()
    if blob[:4] != b"BQIS" or not blob.endswith(expected) \
            or len(blob) != 4 + 4 * 4 + 8 + len(expected):
        return ".qis: file does not hold the coefficients bit for bit"
    return None


# ---------------------------------------------------------------------------
# near-best derivation
# ---------------------------------------------------------------------------

def rounded_up(value: Fraction, digits: int = 4) -> Fraction:
    """Ceiling of a positive rational at its ``digits``-th significant digit."""
    exp = math.floor(math.log10(value))
    if Fraction(10) ** exp > value:
        exp -= 1
    elif Fraction(10) ** (exp + 1) <= value:
        exp += 1
    scale = Fraction(10) ** (digits - 1 - exp)
    return Fraction(math.ceil(value * scale)) / scale


def _rhs(nu) -> Fraction:
    """lambda(p) = (p - 5/24 Lap p)(C_alpha) for centred, scaled monomials."""
    if nu == (0, 0, 0):
        return Fraction(1)
    if sorted(nu) == [0, 0, 2]:
        return Fraction(-5, 12)
    return Fraction(0)


def _centred(points, alpha, m):
    """Data points minus C_alpha = alpha - 1/2, exactly, at h = 1."""
    def coord(i, ma):
        if i <= 0:
            return Fraction(0)
        if i >= ma + 1:
            return Fraction(ma)
        return Fraction(2 * i - 1, 2)
    return [tuple(coord(int(p[a]), m[a]) - Fraction(2 * alpha[a] - 1, 2)
                  for a in range(3)) for p in points]


def check_derivation(alpha, m, printed, status, points, weights, norm
                     ) -> str | None:
    """Status, printed norm, exact P3 exactness and an independent float LP.

    ``printed`` is the paper's 4-digit norm, or None for an infeasible cell.
    """
    from scipy.optimize import linprog

    centred = _centred(points, alpha, m)
    monos = [nu for total in range(4) for nu in CUBIC_EXPONENTS
             if sum(nu) == total]
    a_eq = np.array([[float(x ** nu[0] * y ** nu[1] * z ** nu[2])
                      for x, y, z in centred] for nu in monos])
    b_eq = np.array([float(_rhs(nu)) for nu in monos])
    k = len(centred)
    lp = linprog(np.ones(2 * k), A_eq=np.hstack([a_eq, -a_eq]), b_eq=b_eq,
                 bounds=(0, None), method="highs")
    if printed is None:
        if status != "infeasible":
            return f"derive {alpha}: status {status}, expected infeasible"
        if lp.status != 2:
            return f"derive {alpha}: float LP is feasible, program says not"
        return None
    if status != "optimal":
        return f"derive {alpha}: status {status}, expected optimal"
    if rounded_up(norm) != Fraction(printed):
        return (f"derive {alpha}: norm {float(norm):.6g} does not round up "
                f"to the printed {printed}")
    for nu in monos:
        total = sum((w * x ** nu[0] * y ** nu[1] * z ** nu[2]
                     for (x, y, z), w in zip(centred, weights) if w),
                    Fraction(0))
        if total != _rhs(nu):
            return f"derive {alpha}: weights violate exactness for {nu}"
    if sum(abs(w) for w in weights) != norm:
        return f"derive {alpha}: |weights|_1 differs from the reported norm"
    if lp.status != 0 or abs(lp.fun - float(norm)) > 1e-9 * float(norm):
        return (f"derive {alpha}: float LP optimum {lp.fun!r} differs from "
                f"{float(norm)!r}")
    return None
