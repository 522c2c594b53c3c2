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

from math import factorial
from numbers import Integral

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


def _basis_terms(degree):
    """The multinomials (n_degree, 1) of the degree's multi-indices, and per
    axis a the rows ``a * (degree + 1) + nu_a`` of their factors in the
    power table of `bernstein_basis`, as (4, n_degree) intp."""
    nus = np.array(multi_indices(degree)).reshape(-1, 4)
    weights = np.array([[multinomial(nu)] for nu in nus], dtype=np.float64)
    return weights, (nus + (degree + 1) * np.arange(4)).T


_BASIS_TERMS = {d: _basis_terms(d) for d in range(5)}


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
    (..., n_degree) C-contiguous ndarray with columns in canonical
    multi-index order.

    One power table holds c_a ** p for the four barycentric columns c_a and
    p = 0..degree, row a * (degree + 1) + p, each row contiguous (power 0 is
    1 and power 1 the column itself, as ``c ** p`` gives them).  All basis
    rows are then formed at once: the multinomials times the gathered rows
    of c_0 ** nu_0, then in place times those of c_1 ** nu_1, c_2 ** nu_2
    and c_3 ** nu_3, about 20 NumPy calls in all.  That is the product
    order of the formula, so every value is rounded the same way whatever
    the layout.  The result's memory holds the gathered rows until one
    contiguous copy transposes the (n_degree, n) rows into it; an
    ``einsum`` over the transposed view would sum in another order and
    change the last digits.
    """
    if (not isinstance(degree, Integral) or isinstance(degree, bool)
            or degree not in _BASIS_TERMS):
        raise ValueError(f"Bernstein degree must be an integer in 0..4, "
                         f"got {degree!r}")
    bary = np.asarray(bary, dtype=np.float64)
    cols = bary.reshape(-1, 4).T
    powers = np.empty((4, degree + 1, cols.shape[1]))
    powers[:, 0] = 1.0
    if degree:
        powers[:, 1] = cols
    for p in range(2, degree + 1):
        powers[:, p] = powers[:, 1] ** p
    powers = powers.reshape(4 * (degree + 1), -1)
    weights, factors = _BASIS_TERMS[degree]
    rows = powers[factors[0]]
    rows *= weights
    out = np.empty((powers.shape[1], len(weights)))
    part = out.reshape(rows.shape)  # the result's memory, until the copy
    for axis in factors[1:]:
        rows *= np.take(powers, axis, axis=0, out=part, mode="clip")
    out[...] = rows.T
    return out.reshape(bary.shape[:-1] + (len(weights),))


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

