"""Bounded-domain bookkeeping for the quasi-interpolant.

Index set
---------
The translates B_alpha meeting Omega are indexed by alpha = (i, j, k) with
-1 <= i <= m1+2 (likewise j, k), minus the exclusion set A' of twelve edge
lines of that index box whose translates vanish identically on Omega:

* (i, -1, -1), (i, m2+2, -1), (i, -1, m3+2), (i, m2+2, m3+2)   full i range,
* (-1, j, -1), (m1+2, j, -1), (-1, j, m3+2), (m1+2, j, m3+2)   0 <= j <= m2+1,
* (-1, -1, k), (m1+2, -1, k), (-1, m2+2, k), (m1+2, m2+2, k)   0 <= k <= m3+1.

Equivalently: alpha is excluded iff at least two of its coordinates are
extreme (-1 or m_a+2).

Data points
-----------
Samples live at M_beta = (s_i, t_j, u_k), beta = (i, j, k) with
0 <= i <= m1+1, where s_0 = 0, s_i = (i - 1/2) h for 1 <= i <= m1, and
s_{m1+1} = m1 h (likewise t, u): the cube-center lattice of step h clamped
onto the boundary faces of Omega.

Classification
--------------
Every alpha in A reduces, by axis reflections and permutations, to one of
22 canonical boundary classes keyed by a sorted triple; see `classify`.
`class_runs` lists the index runs along one axis that share a stencil
layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "index_set", "IndexSetA", "centers", "center_exact",
    "data_points", "data_coordinate", "data_coordinate_exact",
    "project_index", "octahedron_offsets", "octahedron",
    "SymmetryTransform", "classify", "class_runs", "CLASS_KEYS",
]


# ---------------------------------------------------------------------------
# index set A
# ---------------------------------------------------------------------------

class IndexSetA:
    """The admissible index set A for a grid, with A' excluded."""

    def __init__(self, grid):
        self.grid = grid

    def _extreme_count(self, alpha):
        m = self.grid.m
        return sum(1 for a in range(3) if alpha[a] in (-1, m[a] + 2))

    def __contains__(self, alpha):
        m = self.grid.m
        if any(alpha[a] < -1 or alpha[a] > m[a] + 2 for a in range(3)):
            return False
        return self._extreme_count(alpha) < 2

    def __len__(self):
        m1, m2, m3 = self.grid.m
        full = (m1 + 4) * (m2 + 4) * (m3 + 4)
        excluded = 4 * (m1 + 4) + 4 * (m2 + 2) + 4 * (m3 + 2)
        return full - excluded

    def __iter__(self):
        m1, m2, m3 = self.grid.m
        for i in range(-1, m1 + 3):
            for j in range(-1, m2 + 3):
                for k in range(-1, m3 + 3):
                    alpha = (i, j, k)
                    if self._extreme_count(alpha) < 2:
                        yield alpha

    def mask(self):
        """Boolean array over the full index box, True where alpha in A.

        Shape (m1+4, m2+4, m3+4); slot [i+1, j+1, k+1] corresponds to
        alpha = (i, j, k).
        """
        m1, m2, m3 = self.grid.m
        ext = []
        for m, size in zip(self.grid.m, (m1 + 4, m2 + 4, m3 + 4)):
            e = np.zeros(size, dtype=np.int8)
            e[0] = e[m + 3] = 1
            ext.append(e)
        count = (ext[0][:, None, None] + ext[1][None, :, None]
                 + ext[2][None, None, :])
        return count < 2


def index_set(grid):
    """The index set A of translates contributing on Omega."""
    return IndexSetA(grid)


def centers(alpha, grid):
    """Support centers C_alpha = ((i-1/2)h, (j-1/2)h, (k-1/2)h).

    Accepts a single index triple or an (n, 3) array.
    """
    a = np.asarray(alpha, dtype=np.float64)
    return (a - 0.5) * grid.h


def center_exact(alpha):
    """C_alpha in grid units (h = 1) as exact rationals."""
    return tuple(Fraction(2 * a - 1, 2) for a in alpha)


# ---------------------------------------------------------------------------
# data points
# ---------------------------------------------------------------------------

def data_coordinate(indices, m, h):
    """Physical coordinate of data indices along one axis.

    0 -> 0, i -> (i - 1/2) h for 1 <= i <= m, m+1 -> m h.
    """
    idx = np.asarray(indices, dtype=np.float64)
    coord = (idx - 0.5) * h
    return np.clip(coord, 0.0, m * h)


def data_coordinate_exact(i, m):
    """Exact data coordinate along one axis at h = 1."""
    if i <= 0:
        if i < 0:
            raise ValueError("data index out of range")
        return Fraction(0)
    if i >= m + 1:
        if i > m + 1:
            raise ValueError("data index out of range")
        return Fraction(m)
    return Fraction(2 * i - 1, 2)


def data_points(grid):
    """All data points M_beta as an (m1+2, m2+2, m3+2, 3) array."""
    axes = [data_coordinate(np.arange(m + 2), m, grid.h) for m in grid.m]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def project_index(beta, grid):
    """Clamp a lattice index onto the data index box [0, m_a + 1].

    Componentwise clamp of the half-integer lattice point ((i-1/2)h, ...)
    into Omega lands exactly on a data point; in index space that is
    min(max(i, 0), m_a + 1).
    """
    b = np.asarray(beta, dtype=np.int64)
    return np.clip(b, 0, np.asarray(grid.m, dtype=np.int64) + 1)


# ---------------------------------------------------------------------------
# octahedral neighborhoods
# ---------------------------------------------------------------------------

_OFFSET_CACHE = {}


def octahedron_offsets(n):
    """Integer offsets d with |d1| + |d2| + |d3| <= n, lexicographic order.

    Count is the centered octahedral number (2n+1)(2n^2+2n+3)/3.
    """
    offs = _OFFSET_CACHE.get(n)
    if offs is None:
        r = np.arange(-n, n + 1)
        grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, 3)
        offs = grid[np.abs(grid).sum(axis=1) <= n].astype(np.int64)
        _OFFSET_CACHE[n] = offs
    return offs


@dataclass(frozen=True)
class OctahedronSet:
    """Projected, deduplicated octahedral data set around one alpha."""
    alpha: tuple
    n: int
    points: np.ndarray          # (k, 3) int64, sorted lexicographically
    pre_projection_count: int


def octahedron(alpha, n, grid):
    """Data indices of the octahedron Lambda^n_alpha, clamped into Omega.

    Lattice points C_alpha + h*d for |d|_1 <= n are projected onto the
    boundary (componentwise index clamp) and deduplicated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    offs = octahedron_offsets(n)
    beta = project_index(np.asarray(alpha, dtype=np.int64) + offs, grid)
    beta = np.unique(beta, axis=0)
    return OctahedronSet(tuple(int(a) for a in alpha), n, beta, len(offs))


# ---------------------------------------------------------------------------
# boundary classification
# ---------------------------------------------------------------------------

#: Canonical class keys (p, q, r), p >= q >= r, grouped by r = min.
CLASS_KEYS = (
    (0, 0, -1), (1, 0, -1), (1, 1, -1), (2, 0, -1), (2, 1, -1), (2, 2, -1),
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0),
    (3, 0, 0), (3, 1, 0), (3, 2, 0), (3, 3, 0), (4, 2, 0),
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1),
    (2, 2, 2),
    (3, 3, 3),
)


@dataclass(frozen=True)
class SymmetryTransform:
    """Box-symmetry element mapping the canonical frame onto alpha's frame.

    ``perm[p]`` is the actual axis receiving canonical slot p; ``flips[a]``
    reflects actual axis a (index map v -> m_a + 1 - v); ``shifts[p]`` is
    the translation applied to canonical slot p before reflection (the
    clamp excess of the per-axis class over the canonical key value).
    """
    perm: tuple
    flips: tuple
    shifts: tuple

    def apply_data_index(self, beta_canonical, grid):
        """Map canonical stencil data indices (triple or (k, 3) array) to
        alpha's frame."""
        beta = np.asarray(beta_canonical, dtype=np.int64)
        single = beta.ndim == 1
        rows = beta.reshape(1, 3) if single else beta
        out = np.empty_like(rows)
        for p in range(3):
            a = self.perm[p]
            v = rows[:, p] + self.shifts[p]
            out[:, a] = grid.m[a] + 1 - v if self.flips[a] else v
        return tuple(int(x) for x in out[0]) if single else out


def _clamp_key(c):
    """Clamp a sorted descending class triple onto the canonical key set."""
    p, q, r = c
    if r <= -1:
        q = min(q, 2)
        p = min(p, 2)
        r = -1
    elif r == 0:
        q = min(q, 3)
        p = min(p, 4 if q == 2 else 3)
    elif r == 1:
        q = min(q, 2)
        p = min(p, 3 if q == 1 else 2)
    elif r == 2:
        p = q = 2
    else:
        p = q = r = 3
    return (p, q, r)


def _axis_class(a, m):
    """Per-axis class of basis index a on an axis of m cells, and whether
    the axis is reflected: a itself up to ceil((m+1)/2), else m + 1 - a
    (equidistant middles stay unreflected)."""
    if a <= -(-(m + 1) // 2):
        return a, False
    return m + 1 - a, True


def class_runs(m):
    """Maximal runs of basis indices -1..m+2 on an axis of m cells that share
    one stencil layout.

    Returns (lo, hi, c, flip) per run: over lo..hi the per-axis class capped
    at 4, c, and the reflection flag stay constant.  `_clamp_key` treats
    every class >= 4 alike and those stencils are symmetric under
    reflection along the axis, so the capped run carries no flag and along
    any run the coefficient functional only translates with the index.
    c = -1 marks the two outermost indices, whose runs combine into the
    inactive corners of A.
    """
    runs = []
    for a in range(-1, m + 3):
        c, flip = _axis_class(a, m)
        label = (4, False) if c >= 4 else (c, flip)
        if runs and runs[-1][2:] == label:
            runs[-1] = (runs[-1][0], a, *label)
        else:
            runs.append((a, a, *label))
    return runs


def classify(alpha, grid):
    """Reduce alpha to a canonical class key plus the symmetry transform.

    Each axis gets its class and reflection flag from `_axis_class`.
    Classes are sorted descending (stable: lower axis first on ties), then
    clamped onto the canonical key set family by family.

    Returns
    -------
    (key, transform) : ((int, int, int), SymmetryTransform)
    """
    grid.require_quasi_interpolation()
    if alpha not in index_set(grid):
        raise ValueError(f"alpha {alpha} not in the index set A")
    cls, flips = zip(*(_axis_class(alpha[a], grid.m[a]) for a in range(3)))
    perm = tuple(sorted(range(3), key=lambda a: (-cls[a], a)))
    sorted_c = tuple(cls[a] for a in perm)
    key = _clamp_key(sorted_c)
    shifts = tuple(sorted_c[p] - key[p] for p in range(3))
    return key, SymmetryTransform(perm=perm, flips=flips, shifts=shifts)
