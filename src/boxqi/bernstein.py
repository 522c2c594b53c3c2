"""Quartic Bernstein-Bezier bookkeeping on tetrahedra.

A quartic polynomial on a tetrahedron T with vertices v0..v3 is stored as the
35 coefficients c_nu indexed by multi-indices nu = (nu0, nu1, nu2, nu3) with
|nu| = 4, attached to the Bernstein basis

    B_nu(lam) = 4!/(nu0! nu1! nu2! nu3!) * lam0^nu0 lam1^nu1 lam2^nu2 lam3^nu3,

where lam are barycentric coordinates with respect to T.  The canonical
multi-index ordering used everywhere in this package is descending
lexicographic: nu0 runs 4..0, then nu1 runs (4-nu0)..0, then nu2, with
nu3 determined.  Index 0 is (4,0,0,0) and index 34 is (0,0,0,4).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np


def multi_indices(degree):
    """Multi-indices (i,j,k,l) with i+j+k+l = degree, canonical order.

    Descending lexicographic on (i, j, k); returns a list of 4-tuples.
    """
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            for k in range(degree - i - j, -1, -1):
                out.append((i, j, k, degree - i - j - k))
    return out


#: The 35 quartic multi-indices in canonical order.
MULTI_INDICES_4 = tuple(multi_indices(4))

#: Number of BB coefficients per degree 0..4.
DIMENSION = {d: len(multi_indices(d)) for d in range(5)}

_INDEX_OF = {d: {nu: i for i, nu in enumerate(multi_indices(d))}
             for d in range(1, 5)}


def _raise_index_map(degree):
    """raise_map[m][i] = position of nu + e_m in degree, for nu_i of degree-1."""
    lower = multi_indices(degree - 1)
    pos = _INDEX_OF[degree]
    table = np.empty((4, len(lower)), dtype=np.intp)
    for m in range(4):
        for i, nu in enumerate(lower):
            up = list(nu)
            up[m] += 1
            table[m, i] = pos[tuple(up)]
    return table

#: _RAISE[d][m, i]: index in degree d of (degree d-1 multi-index i) + e_m.
_RAISE = {d: _raise_index_map(d) for d in range(1, 5)}


def multinomial(nu):
    """|nu|! / (nu0! nu1! nu2! nu3!) as an exact integer."""
    n = sum(nu)
    out = factorial(n)
    for v in nu:
        out //= factorial(v)
    return out


def bernstein_basis(bary, degree=4):
    """Evaluate all Bernstein basis polynomials at barycentric points.

    Parameters
    ----------
    bary : (..., 4) array_like
        Barycentric coordinates (rows need not be clipped; the formula is
        polynomial).
    degree : int
        Polynomial degree, 0..4.

    Returns
    -------
    (..., n_degree) ndarray with columns in canonical multi-index order.
    """
    bary = np.asarray(bary, dtype=np.float64)
    rows = bary.reshape(-1, 4)
    # powers[a][p] = rows[:, a] ** p for p = 0..degree
    powers = [np.stack([rows[:, a] ** p for p in range(degree + 1)], axis=-1)
              for a in range(4)]
    out = np.empty((len(rows), DIMENSION[degree]), dtype=np.float64)
    for col, nu in enumerate(multi_indices(degree)):
        out[:, col] = (multinomial(nu)
                       * powers[0][:, nu[0]]
                       * powers[1][:, nu[1]]
                       * powers[2][:, nu[2]]
                       * powers[3][:, nu[3]])
    return out.reshape(bary.shape[:-1] + (DIMENSION[degree],))


def bernstein_basis_exact(bary):
    """Quartic Bernstein basis row at one exact rational barycentric point."""
    return [Fraction(multinomial(nu))
            * bary[0] ** nu[0] * bary[1] ** nu[1]
            * bary[2] ** nu[2] * bary[3] ** nu[3]
            for nu in MULTI_INDICES_4]


def domain_point_barycentrics(degree=4):
    """Barycentric coordinates nu/degree of the domain points, (n, 4) floats."""
    idx = np.array(multi_indices(degree), dtype=np.float64)
    return idx / degree


def domain_points(vertices, degree=4):
    """The domain points of a tetrahedron.

    Parameters
    ----------
    vertices : (4, 3) array_like
        Tetrahedron vertices v0..v3.
    degree : int
        35 points for the quartic case.

    Returns
    -------
    (n, 3) ndarray, row order matching `multi_indices(degree)`.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.shape != (4, 3):
        raise ValueError("vertices must be a (4, 3) array")
    lam = domain_point_barycentrics(degree)
    pts = lam @ verts
    # Degeneracy guard: the 4 vertices must span a proper tetrahedron.
    vol = np.linalg.det(verts[1:] - verts[0])
    if abs(vol) < 1e-14:
        raise ValueError("degenerate tetrahedron")
    return pts


def eval_bb(coeffs, bary, degree=4):
    """Evaluate BB patches at barycentric points (one patch per point).

    `coeffs` has shape (..., n_degree) and `bary` shape (..., 4) with
    matching leading dimensions; returns the values with shape (...).
    """
    basis = bernstein_basis(bary, degree)
    return np.einsum('...j,...j->...', np.asarray(coeffs, dtype=np.float64),
                     basis)


def derivative_reduce(coeffs, direction, degree=4):
    """One directional-derivative step on BB coefficients.

    For a degree-d patch p and a direction u whose barycentric direction is
    a (the affine barycentric map applied to u as a vector, sum(a) = 0), the
    derivative D_u p is a degree d-1 patch with coefficients

        c'_nu = d * sum_m a_m c_{nu + e_m}.

    Parameters
    ----------
    coeffs : (..., n_degree) array
    direction : (..., 4) array
        Barycentric direction(s) a, broadcastable against coeffs rows.
    degree : int
        Degree of the input patch.

    Returns
    -------
    (..., n_{degree-1}) ndarray.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    rmap = _RAISE[degree]
    out = np.zeros(coeffs.shape[:-1] + (rmap.shape[1],), dtype=np.float64)
    for m in range(4):
        out += direction[..., m:m + 1] * coeffs[..., rmap[m]]
    return degree * out


def collocation_matrix(bary_points, degree=4):
    """Bernstein collocation matrix M[p, nu] = B_nu(bary_points[p])."""
    return bernstein_basis(np.asarray(bary_points, dtype=np.float64), degree)
