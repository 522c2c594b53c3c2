"""Bounded-domain bookkeeping for the quasi-interpolant.

One per-axis rule
-----------------
`_axis_class(a, m)` decides everything about a basis index a on an axis of
m cells: its class (a up to ceil((m+1)/2), else m + 1 - a) and whether the
axis is reflected.  Class -1 is exactly an extreme coordinate (-1 or m+2).
The other boundary facts follow from it:

* Index set.  The translates B_alpha meeting Omega are indexed by
  alpha = (i, j, k) with -1 <= i <= m1+2 (likewise j, k), minus the twelve
  edge lines of that index box whose translates vanish identically on
  Omega: alpha is excluded iff at least two of its axes have class -1.
  `active_mask` states this over the whole index box.
* Class and frame.  The three per-axis classes, sorted descending and
  clamped, give one of 23 canonical class keys, and the sort order and the
  reflection flags give the symmetry transform (`label_class`).
* Taps.  A class stencil's data indices minus its key, permuted and
  negated along reflected axes (`SymmetryTransform.offsets`), are the data
  offsets the coefficient at alpha reads; none of this needs the grid.

`classify` applies the rule to one index of a grid; `class_runs` lists the
index runs along one axis that share a stencil layout.

Data points
-----------
Samples live at M_beta = (s_i, t_j, u_k), beta = (i, j, k) with
0 <= i <= m1+1, where s_0 = 0, s_i = (i - 1/2) h for 1 <= i <= m1, and
s_{m1+1} = m1 h (likewise t, u): the cube-center lattice of step h clamped
onto the boundary faces of Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import as_count

__all__ = [
    "active_mask", "centers", "center_exact",
    "data_points", "data_coordinate", "data_coordinate_exact",
    "project_index", "octahedron_offsets", "octahedron",
    "SymmetryTransform", "axis_labels", "label_class", "classify",
    "class_runs",
    "CLASS_KEYS",
]


# ---------------------------------------------------------------------------
# index set A
# ---------------------------------------------------------------------------

def active_mask(grid):
    """Boolean (m1+4, m2+4, m3+4) mask of the index set A: slot
    [i+1, j+1, k+1] is alpha = (i, j, k), True unless two or more of its
    axes have class -1 (an extreme coordinate) under `_axis_class`."""
    e1, e2, e3 = (np.array([_axis_class(a, m)[0] == -1
                            for a in range(-1, m + 3)], dtype=np.int8)
                  for m in grid.m)
    return e1[:, None, None] + e2[None, :, None] + e3[None, None, :] < 2


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

@lru_cache(maxsize=None)
def octahedron_offsets(n):
    """Integer offsets d with |d1| + |d2| + |d3| <= n, lexicographic order,
    as a read-only (k, 3) int64 array shared by every caller.

    Count is the centered octahedral number (2n+1)(2n^2+2n+3)/3.
    """
    r = np.arange(-n, n + 1)
    grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3)
    offs = grid[np.abs(grid).sum(axis=1) <= n].astype(np.int64)
    offs.flags.writeable = False
    return offs


def octahedron(alpha, n, grid):
    """Data indices of the octahedron Lambda^n_alpha, clamped into Omega:
    a (k, 3) int64 array, deduplicated and sorted lexicographically.

    Lattice points C_alpha + h*d for |d|_1 <= n are projected onto the
    boundary (componentwise index clamp) and deduplicated.  Raises
    ValueError unless n is an integer >= 1 (numpy's too, not a bool).
    """
    n = as_count(n, 1, "octahedron radius n must be an integer >= 1")
    beta = project_index(np.asarray(alpha, dtype=np.int64)
                         + octahedron_offsets(n), grid)
    return np.unique(beta, axis=0)


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
    reflects actual axis a (index map v -> m_a + 1 - v).
    """
    perm: tuple
    flips: tuple

    def offsets(self, delta):
        """Data offsets from alpha of canonical offsets ``delta``: (k, 3)
        stencil data indices minus the class key.

        Column ``perm[p]`` gets ``delta[:, p]``, negated along a reflected
        axis.  Unreflected, alpha's class c is alpha itself and the index
        idx + c - key is alpha + (idx - key); reflected, c = m + 1 - alpha
        and m + 1 - (idx + c - key) is alpha - (idx - key).  So the grid
        size never enters, even where the class was clamped onto the key.
        """
        delta = np.asarray(delta, dtype=np.int64)
        out = np.empty_like(delta)
        for p, a in enumerate(self.perm):
            out[:, a] = -delta[:, p] if self.flips[a] else delta[:, p]
        return out


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
    (equidistant middles stay unreflected).  Class -1 is an extreme index,
    -1 or m + 2; a class below -1 lies outside the index box."""
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


def label_class(classes, flips):
    """Canonical class key and symmetry transform of per-axis labels.

    ``classes`` and ``flips`` hold each axis's class and reflection flag
    from `_axis_class`.  Classes are sorted descending (stable: lower axis
    first on ties), then clamped onto the canonical key set family by
    family.

    Returns
    -------
    (key, transform) : ((int, int, int), SymmetryTransform)
    """
    perm = tuple(sorted(range(3), key=lambda a: (-classes[a], a)))
    key = _clamp_key(tuple(classes[a] for a in perm))
    return key, SymmetryTransform(perm=perm, flips=tuple(flips))


def axis_labels(alpha, grid):
    """Per-axis `_axis_class` labels (classes, flips) of alpha.  Raises
    ValueError for an alpha outside A (the rule `active_mask` states): an
    index outside -1..m_a+2 or two extreme coordinates."""
    cls, flips = zip(*(_axis_class(alpha[a], grid.m[a]) for a in range(3)))
    if min(cls) < -1 or cls.count(-1) >= 2:
        alpha = tuple(int(a) for a in alpha)
        raise ValueError(f"alpha {alpha} not in the index set A of a "
                         f"{grid.m} grid")
    return cls, flips


def classify(alpha, grid):
    """Reduce alpha to a canonical class key plus the symmetry transform:
    `label_class` of its `axis_labels`."""
    grid.require_quasi_interpolation()
    return label_class(*axis_labels(alpha, grid))
