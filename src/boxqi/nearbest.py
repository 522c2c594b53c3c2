"""Near-best derivation of boundary coefficient functionals.

For a translate index alpha the coefficient functional is a weighted sum of
samples over the projected octahedron Lambda^n_alpha.  Global exactness of
the quasi-interpolant on P_3 forces, for every cubic p,

    lambda_alpha(p) = (p - 5/24 h^2 Lap p + 3/128 h^4 Lap^2 p)(C_alpha),

the coefficient of the differential quasi-interpolant (the Laplacian-square
term vanishes on P_3).  Writing p in monomials centered at C_alpha and
scaled by h makes the resulting linear system  V sigma = b  independent of
h: V holds centered monomial values at the data points, and b is 1 for the
constant, -5/12 for each squared coordinate, 0 otherwise.  At h = 1 every
centered coordinate is a half-integer, so the system is built, and weights
are verified, on the doubled centered points, which are integers.

Among all solutions the near-best functional minimizes ||sigma||_1, solved
exactly by the rational simplex.  Stabilizer symmetries of the point set tie
weights into orbits, shrinking the LP without changing its optimum (any
optimum averages over the group into a symmetric one of equal norm).

The system is built in one symmetry pass over the doubled centered points,
in int64 arrays: the k points go through all 48 signed permutations at once
as a (48, k, 3) array, each image is looked up by one integer key in the
sorted keys of the points, the stabilizer is the permutations whose k
images are all points, and the orbits (ordered by their smallest member)
give the columns as integer orbit sums.  Rows are sign-normalised and
de-duplicated on integers too; `Fraction`s are built last, once per distinct
entry of the rows kept.  The simplex takes those rows back as integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from . import domain
from .simplex import minimize_l1_exact

__all__ = [
    "MONOMIALS", "constraint_rhs", "ConstraintSystem", "constraint_system",
    "L1Solution", "minimize_l1", "norm_table", "canonical_grid",
]


def _monomials():
    out = []
    for total in range(4):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                out.append((a, b, total - a - b))
    return tuple(out)


#: The 20 exponent triples of the monomial basis of P_3, by degree then lex.
MONOMIALS = _monomials()


def constraint_rhs(nu):
    """Exact right-hand side for the centered monomial with exponents nu."""
    if nu == (0, 0, 0):
        return Fraction(1)
    if sorted(nu) == [0, 0, 2]:
        return Fraction(-5, 12)
    return Fraction(0)


#: The 48 signed axis permutations (perm, signs).
_SIGNED_PERMS = tuple((perm, signs)
                      for perm in permutations(range(3))
                      for signs in product((1, -1), repeat=3))
_PERM_AXES = np.array([perm for perm, _ in _SIGNED_PERMS])
_PERM_SIGNS = np.array([signs for _, signs in _SIGNED_PERMS])

#: Per monomial, 8 / 2^|nu| (so 8 times a row's entries are integers) and
#: 24 times its right-hand side (1, -5/12 or 0): the integer keys on which
#: rows are compared.
_ROW_SCALE = np.array([8 >> sum(nu) for nu in MONOMIALS])
_RHS_24 = np.array([int(24 * constraint_rhs(nu)) for nu in MONOMIALS])


@dataclass
class ConstraintSystem:
    """The P_3 exactness system for one (alpha, n) pair.

    Attributes
    ----------
    alpha, n : the octahedron parameters.
    points : (k, 3) int64 array of data indices (deduplicated, sorted).
    rows : list of exponent triples actually kept (after symmetry dedup).
    V : list of rows, each a list of Fractions, one column per orbit.
    b : list of Fractions.
    orbits : list of list of point indices (into `points`).
    group : the stabilizer elements used for tying.
    """
    alpha: tuple
    n: int
    grid: object
    points: np.ndarray
    rows: list
    V: list
    b: list
    orbits: list
    group: tuple


def _doubled_centered(points, alpha, grid):
    """Twice the data points ``points`` minus C_alpha, a (k, 3) int64 array.

    At h = 1 the data coordinate of index i on an axis of m cells is 0,
    (2i - 1)/2 or m, and the center coordinate is (2a - 1)/2, so doubling
    makes each centered coordinate the integer
    clip(2i - 1, 0, 2m) - (2a - 1) and keeps the point set's symmetries.
    """
    return (np.clip(2 * points - 1, 0, 2 * np.asarray(grid.m, np.int64))
            - (2 * np.asarray(alpha, dtype=np.int64) - 1))


def _monomial_values(doubled):
    """(k, 20) int64 array of X^nu for each row X of ``doubled`` and each
    nu of MONOMIALS; entries stay within (2n + 3)^3 for radius n."""
    return np.prod(doubled[:, None, :] ** np.array(MONOMIALS), axis=2)


def _orbit_members(doubled, tie_symmetry):
    """(group, members, starts): the stabilizer of the doubled centered
    points, and their indices grouped by orbit, orbits ordered by their
    smallest member, each ascending; orbit o is members[starts[o]:
    starts[o + 1]].

    The points are mapped through all 48 signed permutations at once and
    each image is looked up by its key in the balanced base 2c + 1, c the
    largest |coordinate|.  That key orders points lexicographically, so
    the keys of the sorted points are sorted.  A permutation is in the
    stabilizer when all k images are points; a point's orbit is the set of
    its images under the stabilizer.  Without ``tie_symmetry`` the group is
    the identity alone and every point is its own orbit.
    """
    base = 2 * int(np.abs(doubled).max()) + 1
    weights = np.array([base * base, base, 1])
    keys = doubled @ weights
    images = (_PERM_SIGNS[:, None, :] * doubled[:, _PERM_AXES]
              .transpose(1, 0, 2)) @ weights
    at = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
    kept = np.zeros(len(_SIGNED_PERMS), dtype=bool)
    if tie_symmetry:
        kept = (keys[at] == images).all(axis=1)
    kept[0] = True  # the identity
    smallest = at[kept].min(axis=0)
    members = np.argsort(smallest, kind="stable")
    starts = np.flatnonzero(np.diff(smallest[members], prepend=-1))
    group = tuple(_SIGNED_PERMS[g] for g in np.flatnonzero(kept))
    return group, members, starts


def constraint_system(alpha, n, grid, tie_symmetry=True):
    """Build the exactness system for alpha with octahedron radius n.

    With ``tie_symmetry`` the stabilizer of the projected point set ties
    symmetric points to a common weight (columns become orbit sums) and
    redundant monomial rows collapse; for alpha = (0,0,-1) exactly 13 of
    the 20 conditions survive.  Rows are compared as integers, 8 times
    their entries with 24 times their rhs, and `Fraction`s are built only
    for the rows kept.  Raises ValueError for an alpha outside the index
    set A or a radius n that is not an integer >= 1.
    """
    domain.axis_labels(alpha, grid)
    points = domain.octahedron(alpha, n, grid)
    doubled = _doubled_centered(points, alpha, grid)
    group, members, starts = _orbit_members(doubled, tie_symmetry)
    sums = np.add.reduceat(_monomial_values(doubled)[members], starts).T
    # sign-normalise: every row with a nonzero entry leads with a positive
    # one; then 8 times each entry is an integer
    nonzero = sums != 0
    lead = sums[np.arange(len(MONOMIALS)), nonzero.argmax(axis=1)]
    sign = np.where(lead < 0, -1, 1)
    eighths = sums * (sign * _ROW_SCALE)[:, None]
    targets = (_RHS_24 * sign).tolist()

    kept = []
    seen = set()
    for r, row in enumerate(eighths.tolist()):
        if not nonzero[r].any():
            # degenerate geometry cannot match a nonzero target; keep the
            # row so the LP reports infeasibility honestly
            if targets[r]:
                kept.append(r)
            continue
        key = (*row, targets[r])
        if key not in seen:
            seen.add(key)
            kept.append(r)
    # one Fraction per distinct entry of the kept rows
    distinct, at = np.unique(eighths[kept], return_inverse=True)
    fractions = [Fraction(v, 8) for v in distinct.tolist()]
    V = [[fractions[i] for i in row] for row in at.reshape(len(kept), -1)
         .tolist()]
    rows = [MONOMIALS[r] for r in kept]
    b = [constraint_rhs(nu) * int(sign[r]) for r, nu in zip(kept, rows)]
    edges = [*starts.tolist(), len(members)]
    members = members.tolist()
    orbits = [members[lo:hi] for lo, hi in zip(edges, edges[1:])]
    return ConstraintSystem(alpha=tuple(int(a) for a in alpha), n=n,
                            grid=grid, points=points, rows=rows, V=V,
                            b=b, orbits=orbits, group=group)


@dataclass
class L1Solution:
    """Result of the near-best minimization for one system."""
    status: str
    system: ConstraintSystem
    weights: list      # per-point Fractions (aligned with system.points)
    norm: Fraction

    @property
    def norm_float(self):
        return float(self.norm) if self.norm is not None else None


def minimize_l1(system):
    """Exact l1-minimal weights for a constraint system.

    The LP objective counts every tied point: orbit variable w_O contributes
    |O| * |w_O|.
    """
    sizes = [len(o) for o in system.orbits]
    status, s, norm = minimize_l1_exact(system.V, system.b, weights=sizes)
    if status != "optimal":
        return L1Solution(status=status, system=system, weights=None,
                          norm=None)
    weights = [Fraction(0)] * len(system.points)
    for orbit, w in zip(system.orbits, s):
        for i in orbit:
            weights[i] = w
    return L1Solution(status="optimal", system=system, weights=weights,
                      norm=norm)


def verify_weights(system, weights):
    """Exact check V.sigma = b for per-point weights; returns the l1 norm.

    Raises AssertionError on any violated condition.  `weights` is a mapping
    from data-index triples to Fractions or a sequence aligned with
    system.points.  The check runs on the untied per-point system, on the
    doubled centered points X: sum_beta w_beta X^nu == rhs(nu) 2^|nu|.
    """
    if isinstance(weights, dict):
        aligned = [Fraction(weights.get(tuple(beta), 0))
                   for beta in system.points.tolist()]
    else:
        aligned = [Fraction(w) for w in weights]
    values = _monomial_values(_doubled_centered(
        system.points, system.alpha, system.grid))
    for nu, column in zip(MONOMIALS, values.T.tolist()):
        total = sum((w * x for w, x in zip(aligned, column) if w),
                    Fraction(0))
        if total != constraint_rhs(nu) * 2 ** sum(nu):
            raise AssertionError(f"condition violated for monomial {nu}")
    return sum(map(abs, aligned), Fraction(0))


def canonical_grid():
    """The m = (11, 11, 11), h = 1 grid used for canonical derivations."""
    from .geometry import DomainGrid
    return DomainGrid(11, 11, 11, 1.0)


def norm_table(classes, n_values, grid=None):
    """Optimal norms over a grid of (class, n) cells.

    Returns a list of dicts {"key", "n", "status", "norm"} in input order;
    `norm` is the exact optimal norm as a Fraction (None when infeasible).
    """
    grid = grid or canonical_grid()
    out = []
    for key in classes:
        for n in n_values:
            sol = minimize_l1(constraint_system(tuple(key), n, grid))
            out.append({"key": tuple(key), "n": n, "status": sol.status,
                        "norm": sol.norm})
    return out
