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

Mirrored columns are stored once
--------------------------------
The l1 split s = u - v gives ``A = [V | -V]``, so half of every constraint
row and of the phase-one row is the negation of the other half.  After the
row flips and the scaling, each structural column j is mapped to a stored
column s and a sign: a column that is exactly the negation of an earlier
stored column is virtual, with sign -1; every other column is stored, with
sign +1.  Without mirrored columns the map is the identity.  One identity
gives the entry of a virtual column j with source s in every row r::

    M[r][j] = det * (C_r[j] + C_r[s]) - M[r][s],

where C_r is ``L c`` in the phase-two cost row and 0 in every other row,
the phase-one row included.  It holds because every constraint and
phase-one row is a combination of starting rows, linear in the column,
while the cost row is ``det * L c`` plus such a combination (M = det * S
with det > 0, the negation on a negative pivot keeps that, and
B^-1 (-A_s) = -B^-1 A_s).  Pivots update only the stored columns, taking the
entering column's entries from the identity; Bland's scans, the ratio test,
the drive-out of leftover artificials and the read-out of x go through the
map.  Both phases still scan columns in their original numbering, so every
choice, and every `Fraction` of the result, is that of the full tableau.
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


def _pivot(M, cols, basis, det, row, col):
    """Integer-preserving pivot on column col of row; returns the new det > 0.

    col is an original column number; only stored columns are updated, and
    the entries of col itself are read through the column map.
    """
    s, sign, off = cols[col]
    zrow = len(basis)  # the phase-two cost row follows the constraint rows
    prow = M[row]
    p = sign * prow[s]
    for i, mi in enumerate(M):
        if i == row:
            continue
        f = sign * mi[s] + (det * off if i == zrow else 0)
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


def _bland(M, cols, basis, det, cost_row, ncols):
    """Run simplex with Bland's rule; cost_row is the index of the z-row.

    Columns are scanned in their original numbering, so the choice of every
    entering column, and of every leaving row, is that of the full tableau.
    Returns (status, det).
    """
    m = len(basis)
    while True:
        z = M[cost_row]
        # C is L c in the phase-two cost row (index m), 0 in the phase-one row
        d = det if cost_row == m else 0
        col = next((j for j, (s, sign, off) in enumerate(cols[:ncols])
                    if sign * z[s] + d * off < 0), None)
        if col is None:
            return "optimal", det
        s, sign, _ = cols[col]
        best = None
        for r in range(m):
            a = sign * M[r][s]
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
        det = _pivot(M, cols, basis, det, best, col)


def _column_map(rows, cost, m):
    """Store each structural column once up to sign.

    Returns (cols, stored): cols[j] = (s, sign, off) for every original
    column j, structural then the m artificials, where s indexes the stored
    columns; stored lists the original number of each stored structural
    column.  A column that is exactly the negation of an earlier stored one
    is virtual, (s, -1, cost[j] + cost[stored[s]]); every other column is
    stored as (s, 1, 0).
    """
    seen = {}
    stored = []
    cols = []
    for j in range(len(cost)):
        column = tuple(row[j] for row in rows)
        s = seen.get(tuple(-a for a in column))
        if s is None:
            seen.setdefault(column, len(stored))
            cols.append((len(stored), 1, 0))
            stored.append(j)
        else:
            cols.append((s, -1, cost[j] + cost[stored[s]]))
    k = len(stored)
    cols += [(k + i, 1, 0) for i in range(m)]
    return cols, stored


def _check_shape(A, b, n, a_name, n_name):
    """Raise ValueError unless A has len(b) rows of n entries each."""
    if len(b) != len(A) or any(len(row) != n for row in A):
        raise ValueError(
            f"{a_name} must have one row per entry of b and one entry per "
            f"entry of {n_name}: got row lengths {[len(row) for row in A]}, "
            f"{len(b)} entries of b and {n} of {n_name}")


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

    Raises
    ------
    ValueError
        If b does not have one entry per row of A, or a row of A does not
        have one entry per entry of c.
    """
    m = len(A)
    n = len(c)
    _check_shape(A, b, n, "A", "c")
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

    rows = [scaled(row) for row in A]
    cost = scaled(c)
    cols, stored = _column_map(rows, cost, m)
    k = len(stored)
    # tableau columns: k stored structural + m artificial + rhs;
    # rows: m constraints + phase-two z-row + phase-one z-row
    rhs = scaled(b)
    M = []
    for i in range(m):
        row = [rows[i][j] for j in stored] + [0] * m + [rhs[i]]
        row[k + i] = 1
        M.append(row)
    zrow = [cost[j] for j in stored] + [0] * (m + 1)
    art = [-sum(row[j] for row in M) for j in range(k + m + 1)]
    art[k:k + m] = [0] * m
    M.append(zrow)
    M.append(art)
    basis = list(range(n, n + m))

    status, det = _bland(M, cols, basis, 1, cost_row=m + 1, ncols=n + m)
    if status != "optimal":  # pragma: no cover - phase one cannot be unbounded
        return LPResult(status)
    if M[m + 1][-1] != 0:  # phase-one optimum is -z entry
        return LPResult("infeasible")

    # drive leftover artificial variables out of the basis
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if M[r][cols[j][0]] != 0), None)
            if col is not None:
                det = _pivot(M, cols, basis, det, r, col)
    # drop redundant all-zero rows still pinned to artificials
    keep = [r for r in range(m) if basis[r] < n]
    M = [M[r] for r in keep] + [M[m]]
    basis = [basis[r] for r in keep]
    # forbid artificial columns in phase two by truncating them
    M = [row[:k] + [row[-1]] for row in M]

    status, det = _bland(M, cols, basis, det, cost_row=len(basis), ncols=n)
    if status != "optimal":
        return LPResult(status)
    x = [_ZERO] * n
    for r, j in enumerate(basis):
        s, sign, _ = cols[j]
        x[j] = Fraction(M[r][-1], sign * M[r][s])
    objective = sum((ci * xi for ci, xi in zip(c, x)), _ZERO)
    return LPResult("optimal", x=x, objective=objective)


def minimize_l1_exact(V, b, weights=None):
    """min sum_i w_i |s_i|  subject to  V s = b, exactly.

    Split s = u - v with u, v >= 0 and solve the equivalent LP over
    ``[V | -V]`` by `solve_lp`, which stores only the u columns and reads
    each v column as the negation of its u column (see the module
    docstring).

    Parameters
    ----------
    V : list of list of Fraction, shape (m, k)
    b : list of Fraction
    weights : list of Fraction, optional
        Positive objective weights (default all 1).

    Returns
    -------
    (status, s, norm) : (str, list of Fraction or None, Fraction or None)

    Raises
    ------
    ValueError
        If b does not have one entry per row of V, or a row of V does not
        have one entry per weight (per entry of the first row by default).
    """
    k = len(V[0]) if V else 0
    if weights is None:
        weights = [_ONE] * k
    _check_shape(V, b, len(weights), "V", "weights")
    A = [list(row) + [-v for v in row] for row in V]
    c = [Fraction(w) for w in weights] * 2
    res = solve_lp(A, b, c)
    if res.status != "optimal":
        return res.status, None, None
    s = [res.x[i] - res.x[k + i] for i in range(k)]
    norm = sum((w * abs(si) for w, si in zip(weights, s)), _ZERO)
    return "optimal", s, norm
