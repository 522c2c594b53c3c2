"""Exact two-phase simplex over the rationals, pivoted in integers.

Solves  min c.x  subject to  A x = b, x >= 0  exactly.  Inputs are Python
`int`s or `fractions.Fraction`s (anything else is converted to a Fraction)
and results are Fractions; the tableau itself holds Python `int`s, and
`int` inputs pass into it as they are.  Bland's
smallest-index rule guarantees termination without perturbation;
infeasibility detection is exact (nonzero phase-one optimum).  Intended for
the small systems of the near-best derivation (tens of rows, up to a few
thousand columns).

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
the same vertex.  A basic column's entry in its row is det, so
``x_j = M[r][-1] / det`` for basic j.

Only the artificial block is pivoted
------------------------------------
Every row of M is an integer combination of the m starting constraint
rows, plus det times its own starting row in a cost row.  The weights are
the row's entries in the artificial columns, since the starting artificial
block is the identity and is zero in both cost rows.  With
``Y[r][i] = M[r][n + i]``, for every column j::

    M[r][j] = det * C_r[j] + sum_i Y[r][i] * start_i[j],

where start_i is starting constraint row i and C_r is 0 in a constraint
row, ``L c`` in the phase-two cost row and minus the column sums of the
constraint rows in the phase-one row.  A pivot updates every column by the
same rule and moves det to p, and the negation on a negative pivot negates
det too, so the identity holds throughout.  The tableau therefore stores
only Y and the rhs column, (m + 2) x (m + 1) integers whatever the number
of columns, and a pivot updates only those.  Any other entry is one
length-m dot product with its starting column, plus ``det * C_r[j]`` in a
cost row: Bland's scan of a cost row, the entering column (built once per
pivot, for the ratio test and the update) and the drive-out of leftover
artificials after phase one.  Phase two then drops the rows of redundant
constraints and carries the phase-one row along unread.  This is the
revised simplex of Dantzig and Orchard-Hays (1954) on the integer tableau:
every choice, and every `Fraction` of the result, is that of the full one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

__all__ = ["LPResult", "solve_lp", "minimize_l1_exact"]

_ZERO = Fraction(0)


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


def _column(Y, costs, det, start, j):
    """Column j of the tableau in every row of Y: the constraint rows, then
    the two cost rows, whose starting rows are costs.  start is its starting
    column; each dot product stops at its length m, before the row's rhs."""
    a = [sum(map(mul, y, start)) for y in Y]
    a[-2] += det * costs[0][j]
    a[-1] += det * costs[1][j]
    return a


def _pivot(Y, a, basis, det, row, col):
    """Integer-preserving pivot on column col of row; returns the new det > 0.

    a is column col in every row of Y; only Y and its rhs column change.
    """
    p = a[row]
    prow = Y[row]
    for i, yi in enumerate(Y):
        if i == row:
            continue
        f = a[i]
        if f:
            Y[i] = [(p * u - f * v) // det for u, v in zip(yi, prow)]
        elif p != det:
            Y[i] = [p * u // det for u in yi]
    basis[row] = col
    if p < 0:
        for i, yi in enumerate(Y):
            Y[i] = [-u for u in yi]
        p = -p
    return p


def _bland(Y, starts, costs, basis, det, cost_row, ncols):
    """Run simplex with Bland's rule on the cost row of index cost_row,
    over the columns below ncols.  Returns (status, det)."""
    m = len(basis)
    cost = costs[cost_row - m]
    while True:
        z = Y[cost_row]
        col = next((j for j in range(ncols)
                    if sum(map(mul, z, starts[j]), det * cost[j]) < 0), None)
        if col is None:
            return "optimal", det
        a = _column(Y, costs, det, starts[col], col)
        best = None
        for r in range(m):
            if a[r] <= 0:
                continue
            rhs = Y[r][-1]
            if best is not None:
                # rhs / a against rhs_best / a_best; ties go to the smaller
                # basis index
                diff = rhs * a[best] - rhs_best * a[r]
                if diff > 0 or (diff == 0 and basis[r] > basis[best]):
                    continue
            best, rhs_best = r, rhs
        if best is None:
            return "unbounded", det
        det = _pivot(Y, a, basis, det, best, col)


def _integers(rows):
    """(L, the rows of integers L v) for rows of rationals v, where L is the
    lcm of every denominator.  An int or a Fraction is read as it is,
    anything else through Fraction; so rows of ints give L = 1 and
    themselves."""
    rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v)
             for v in row] for row in rows]
    L = lcm(*(v.denominator for row in rows for v in row))
    return L, [[v.numerator * (L // v.denominator) for v in row]
               for row in rows]


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
    A : list of list of int or Fraction, shape (m, n)
    b : list of int or Fraction, length m
    c : list of int or Fraction, length n

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
    L, (*rows, rhs, cost) = _integers([*A, b, c])
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # starting columns: n structural, then the m artificial unit columns
    units = [[int(i == r) for i in range(m)] for r in range(m)]
    starts = [tuple(row[j] for row in rows) for j in range(n)]
    starts += map(tuple, units)
    # starting cost rows: phase two's L c, phase one's minus column sums
    costs = (cost + [0] * m, [-sum(col) for col in starts[:n]] + [0] * m)
    # rows of Y: m constraints, the phase-two and the phase-one cost row
    Y = [unit + [v] for unit, v in zip(units, rhs)]
    Y += [[0] * (m + 1), [0] * m + [-sum(rhs)]]
    basis = list(range(n, n + m))

    status, det = _bland(Y, starts, costs, basis, 1, cost_row=m + 1,
                         ncols=n + m)
    if status != "optimal":  # pragma: no cover - phase one cannot be unbounded
        return LPResult(status)
    if Y[m + 1][-1] != 0:  # phase-one optimum is -z entry
        return LPResult("infeasible")

    # drive leftover artificial variables out of the basis
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n)
                        if sum(map(mul, Y[r], starts[j]))), None)
            if col is not None:
                a = _column(Y, costs, det, starts[col], col)
                det = _pivot(Y, a, basis, det, r, col)
    # drop redundant all-zero rows still pinned to artificials; phase two
    # scans the structural columns only
    keep = [r for r in range(m) if basis[r] < n]
    Y = [Y[r] for r in keep] + Y[m:]
    basis = [basis[r] for r in keep]

    status, det = _bland(Y, starts, costs, basis, det, cost_row=len(basis),
                         ncols=n)
    if status != "optimal":
        return LPResult(status)
    x = [_ZERO] * n
    for y, j in zip(Y, basis):
        x[j] = Fraction(y[-1], det)
    objective = sum(map(mul, cost, x), _ZERO) / L
    return LPResult("optimal", x=x, objective=objective)


def minimize_l1_exact(V, b, weights=None):
    """min sum_i w_i |s_i|  subject to  V s = b, exactly.

    Split s = u - v with u, v >= 0 and solve the equivalent LP over
    ``[V | -V]`` by `solve_lp`.  V, b and the weights are scaled to
    integers first, by the lcm L of their denominators that `solve_lp`
    would compute for that LP, and the mirrored half negates those
    integers; `solve_lp` takes them as they are (its own lcm is then 1), so
    it pivots the same integer tableau as on the rational LP and returns
    the same x.

    Parameters
    ----------
    V : list of list of int or Fraction, shape (m, k)
    b : list of int or Fraction
    weights : list of int or Fraction, optional
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
        weights = [1] * k
    _check_shape(V, b, len(weights), "V", "weights")
    _, (*rows, rhs, cost) = _integers([*V, b, weights])
    A = [row + [-v for v in row] for row in rows]
    res = solve_lp(A, rhs, cost * 2)
    if res.status != "optimal":
        return res.status, None, None
    s = [res.x[i] - res.x[k + i] for i in range(k)]
    norm = sum((w * abs(si) for w, si in zip(weights, s)), _ZERO)
    return "optimal", s, norm
