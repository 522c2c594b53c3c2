"""Exact two-phase simplex over the rationals, pivoted in integers.

Solves  min c.x  subject to  A x = b, x >= 0  exactly.  Inputs and results
are `fractions.Fraction`s; the tableau itself holds Python `int`s.  Bland's
smallest-index rule guarantees termination without perturbation;
infeasibility detection is exact (nonzero phase-one optimum).  Dense
tableau - intended for the small systems of the near-best derivation (tens
of rows, up to a few thousand columns).

Integer-preserving pivots (Edmonds 1967, Bareiss 1968)
------------------------------------------------------
Let L be the lcm of every denominator in A, b and c.  The starting tableau
has rows ``[L A_i | e_i | L b_i]`` and cost rows ``L c`` and the phase-one
row, all integers, with ``det = 1``.  A pivot on entry p = M[r][q] replaces
every other row by ``(p M[i] - M[i][q] M[r]) // det``, keeps row r as it is
and sets ``det = p``.  The division is exact by Sylvester's identity: every
entry is a minor of the starting tableau.  So no entry ever needs a gcd.

At every step ``M = det * S``, where S is the rational Gauss-Jordan tableau
of the same pivot sequence.  S differs from the tableau of the unscaled
problem only by positive factors: L on the structural and right-hand-side
columns, and a per-row factor.  Bland's rule reads signs of the cost row and
ratios ``rhs / a`` within one column, and positive factors change neither,
as long as det > 0.  A pivot is negative only when a leftover artificial is
driven out of the basis after phase one; then every row and det are negated.
Hence the pivot sequence is that of the rational tableau, and the optimum is
the same vertex, read as ``x_j = M[r][-1] / M[r][j]`` for basic j.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["LPResult", "solve_lp", "minimize_l1_exact"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPResult:
    """Outcome of an exact LP solve.

    Attributes
    ----------
    status : str
        "optimal", "infeasible", or "unbounded".
    x : list of Fraction or None
        Optimal point (length n) when status == "optimal".
    objective : Fraction or None
        Optimal objective value.
    """

    def __init__(self, status, x=None, objective=None):
        self.status = status
        self.x = x
        self.objective = objective

    def __repr__(self):
        return f"LPResult(status={self.status!r}, objective={self.objective!r})"


def _pivot(M, basis, det, row, col):
    """Integer-preserving pivot on M[row][col]; returns the new det > 0."""
    p = M[row][col]
    prow = M[row]
    for i, mi in enumerate(M):
        if i == row:
            continue
        f = mi[col]
        if f:
            M[i] = [(p * a - f * b) // det for a, b in zip(mi, prow)]
        elif p != det:
            M[i] = [p * a // det for a in mi]
    basis[row] = col
    if p < 0:
        for i, mi in enumerate(M):
            M[i] = [-a for a in mi]
        p = -p
    return p


def _bland(M, basis, det, cost_row, ncols):
    """Run simplex with Bland's rule; cost_row is the index of the z-row.

    Returns (status, det).
    """
    m = len(basis)
    while True:
        z = M[cost_row]
        col = next((j for j in range(ncols) if z[j] < 0), None)
        if col is None:
            return "optimal", det
        best = None
        for r in range(m):
            a = M[r][col]
            if a <= 0:
                continue
            rhs = M[r][-1]
            if best is not None:
                # rhs / a against rhs_best / a_best; ties go to the smaller
                # basis index
                diff = rhs * a_best - rhs_best * a
                if diff > 0 or (diff == 0 and basis[r] > basis[best]):
                    continue
            best, a_best, rhs_best = r, a, rhs
        if best is None:
            return "unbounded", det
        det = _pivot(M, basis, det, best, col)


def solve_lp(A, b, c):
    """Exact solution of  min c.x : A x = b, x >= 0.

    Parameters
    ----------
    A : list of list of Fraction, shape (m, n)
    b : list of Fraction, length m
    c : list of Fraction, length n

    Returns
    -------
    LPResult
    """
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    L = lcm(*(v.denominator for row in (*A, b, c) for v in row))

    def scaled(values):
        return [v.numerator * (L // v.denominator) for v in values]

    # tableau columns: n structural + m artificial + rhs;
    # rows: m constraints + phase-two z-row + phase-one z-row
    rhs = scaled(b)
    M = []
    for i in range(m):
        row = scaled(A[i]) + [0] * m + [rhs[i]]
        row[n + i] = 1
        M.append(row)
    zrow = scaled(c) + [0] * (m + 1)
    art = [-sum(row[j] for row in M) for j in range(n + m + 1)]
    art[n:n + m] = [0] * m
    M.append(zrow)
    M.append(art)
    basis = list(range(n, n + m))

    status, det = _bland(M, basis, 1, cost_row=m + 1, ncols=n + m)
    if status != "optimal":  # pragma: no cover - phase one cannot be unbounded
        return LPResult(status)
    if M[m + 1][-1] != 0:  # phase-one optimum is -z entry
        return LPResult("infeasible")

    # drive leftover artificial variables out of the basis
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if M[r][j] != 0), None)
            if col is not None:
                det = _pivot(M, basis, det, r, col)
    # drop redundant all-zero rows still pinned to artificials
    keep = [r for r in range(m) if basis[r] < n]
    M = [M[r] for r in keep] + [M[m]]
    basis = [basis[r] for r in keep]
    # forbid artificial columns in phase two by truncating them
    M = [row[:n] + [row[-1]] for row in M]

    status, det = _bland(M, basis, det, cost_row=len(basis), ncols=n)
    if status != "optimal":
        return LPResult(status)
    x = [_ZERO] * n
    for r, j in enumerate(basis):
        x[j] = Fraction(M[r][-1], M[r][j])
    objective = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    return LPResult("optimal", x=x, objective=objective)


def minimize_l1_exact(V, b, weights=None):
    """min sum_i w_i |s_i|  subject to  V s = b, exactly.

    Split s = u - v with u, v >= 0 and solve the equivalent LP.

    Parameters
    ----------
    V : list of list of Fraction, shape (m, k)
    b : list of Fraction
    weights : list of Fraction, optional
        Positive objective weights (default all 1).

    Returns
    -------
    (status, s, norm) : (str, list of Fraction or None, Fraction or None)
    """
    m = len(V)
    k = len(V[0]) if m else 0
    if weights is None:
        weights = [_ONE] * k
    A = [list(row) + [-v for v in row] for row in V]
    c = [Fraction(w) for w in weights] * 2
    res = solve_lp(A, b, c)
    if res.status != "optimal":
        return res.status, None, None
    s = [res.x[i] - res.x[k + i] for i in range(k)]
    norm = sum((w * abs(si) for w, si in zip(weights, s)), _ZERO)
    return "optimal", s, norm
