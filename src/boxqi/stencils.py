"""Embedded library of near-best coefficient functionals.

Each of the 23 boundary classes carries one precomputed weight stencil
``sigma``: an exact-rational rule combining nearby data samples ``f_beta``
into the spline coefficient for a basis function of that class.  The weights
solve the l1-minimization problem implemented in :mod:`boxqi.nearbest` (they
reproduce the differential quasi-interpolant on cubic polynomials while
minimizing ``||sigma||_1``), and every stencil can be re-derived and checked
with :func:`validate_library`.

Deep-interior basis functions fall in class (3,3,3), whose stencil is the
compact 7-point rule; the remaining 22 classes cover the boundary region,
where clamping the octahedron into the domain breaks translation invariance.

The ``n`` stored with each stencil is the octahedron radius the weights were
derived on; ``norm_4sf`` is the exact l1 norm rounded *up* at the fourth
significant digit, which keeps it a valid operator-norm bound.  The largest
norm over the library, 179/18 (printed 9.945), bounds the sup norm of the
whole quasi-interpolation operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from . import nearbest
from .domain import CLASS_KEYS, classify
from .geometry import DomainGrid

__all__ = [
    "Stencil",
    "library",
    "functional",
    "coefficient",
    "validate_library",
    "norm_bound",
    "rounded_up",
]

# ---------------------------------------------------------------------------
# the embedded weights
#
# Layout: class key -> (octahedron radius n, l1 norm rounded up to 4
# significant figures, terms).  Each term is (weight, data-index triples
# sharing that weight).  Indices are absolute data indices for the canonical
# class representative alpha = key on any grid with m >= 11.
# ---------------------------------------------------------------------------

_SPECS: dict[tuple[int, int, int],
             tuple[int, str, tuple[tuple[str, tuple], ...]]] = {
    (0, 0, -1): (11, "8.774", (
        ("5720029937968/1777075925625", ((0, 0, 0),)),
        ("-17625172171/30540510000", ((3, 0, 0), (0, 3, 0))),
        ("5091473/125966750", ((4, 4, 0),)),
        ("-49957799237/1496484990000", ((11, 0, 0), (0, 11, 0))),
        ("42683993/462735000", ((8, 1, 0), (1, 8, 0))),
        ("-51197831/3054051000", ((6, 5, 0), (5, 6, 0))),
        ("-323423/157500", ((0, 0, 3),)),
        ("371/1800", ((5, 0, 3), (0, 5, 3))),
        ("-3/175", ((3, 3, 4),)),
        ("-26/165", ((4, 0, 6), (0, 4, 6))),
        ("155/312", ((1, 0, 7), (0, 1, 7))),
        ("557/15000", ((0, 0, 8),)),
        ("-6553/26600", ((0, 0, 10),)),
    )),
    (1, 0, -1): (9, "9.099", (
        ("17446153/20540520", ((0, 0, 0),)),
        ("7677660701/3308104800", ((1, 0, 0),)),
        ("2896225/6918912", ((2, 0, 0),)),
        ("772241/5915669760", ((10, 0, 0),)),
        ("-4139/9072", ((0, 3, 0),)),
        ("-109793/453600", ((2, 3, 0),)),
        ("3743/39312", ((0, 7, 0),)),
        ("16889/157248", ((1, 7, 0),)),
        ("3041/157248", ((3, 7, 0),)),
        ("-473/5712", ((1, 9, 0),)),
        ("-815/432", ((0, 0, 2),)),
        ("-3997/4320", ((2, 0, 2),)),
        ("1/12", ((1, 3, 3),)),
        ("13/100", ((2, 3, 3),)),
        ("13/42", ((0, 2, 4),)),
        ("-53/270", ((1, 3, 5),)),
        ("18103/39600", ((0, 0, 6),)),
        ("805/3168", ((2, 0, 6),)),
        ("59/13200", ((3, 0, 6),)),
        ("-937/3600", ((1, 0, 8),)),
    )),
    (2, 0, -1): (9, "9.099", (
        ("722869/772200", ((1, 0, 0), (3, 0, 0))),
        ("78797/45900", ((2, 0, 0),)),
        ("-15083/43200", ((1, 3, 0), (3, 3, 0))),
        ("277/2496", ((1, 7, 0), (3, 7, 0))),
        ("-473/5712", ((2, 9, 0),)),
        ("-4049/2880", ((1, 0, 2), (3, 0, 2))),
        ("1859/43200", ((1, 3, 3), (3, 3, 3))),
        ("2749/21600", ((2, 3, 3),)),
        ("853/8640", ((1, 2, 4), (3, 2, 4))),
        ("3389/30240", ((2, 2, 4),)),
        ("-53/270", ((2, 3, 5),)),
        ("3779/10560", ((1, 0, 6), (3, 0, 6))),
        ("-937/3600", ((2, 0, 8),)),
    )),
    (1, 1, -1): (7, "9.386", (
        ("101/2430", ((1, 0, 0), (0, 1, 0))),
        ("12995/4158", ((1, 1, 0),)),
        ("101/34020", ((8, 1, 0), (1, 8, 0))),
        ("-538/675", ((0, 0, 2),)),
        ("-7/54", ((2, 0, 2), (0, 2, 2))),
        ("-293/2700", ((3, 0, 2), (0, 3, 2))),
        ("-239/144", ((1, 1, 2),)),
        ("-7/72", ((2, 1, 2), (1, 2, 2))),
        ("-199/5400", ((3, 3, 2),)),
        ("641/972", ((1, 0, 5), (0, 1, 5))),
        ("641/1944", ((2, 1, 5), (1, 2, 5))),
        ("-181/176", ((1, 1, 6),)),
    )),
    (2, 1, -1): (7, "9.386", (
        ("1/156", ((1, 0, 0), (3, 0, 0))),
        ("881/1296", ((1, 1, 0), (3, 1, 0))),
        ("81/44", ((2, 1, 0),)),
        ("1/1872", ((1, 7, 0), (3, 7, 0))),
        ("-43/72", ((1, 0, 2), (3, 0, 2))),
        ("-119/216", ((1, 1, 2), (3, 1, 2))),
        ("-13/48", ((2, 1, 2),)),
        ("-43/144", ((1, 2, 2), (3, 2, 2))),
        ("7/12", ((2, 0, 5),)),
        ("715/1296", ((1, 1, 5), (3, 1, 5))),
        ("7/24", ((2, 2, 5),)),
        ("-181/176", ((2, 1, 6),)),
    )),
    (2, 2, -1): (10, "5.561", (
        ("1492/663", ((2, 2, 0),)),
        ("-5/12", ((1, 2, 3), (2, 1, 3), (3, 2, 3), (2, 3, 3))),
        ("-19/96", ((2, 2, 3),)),
        ("5/24", ((1, 2, 7), (2, 1, 7), (3, 2, 7), (2, 3, 7))),
        ("245/1248", ((2, 2, 7),)),
        ("-113/272", ((2, 2, 9),)),
    )),
    (0, 0, 0): (6, "7.740", (
        ("174511/59400", ((0, 0, 0),)),
        ("-1243/1350", ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
        ("-43/990", ((6, 0, 0), (0, 6, 0), (0, 0, 6))),
        ("2987/28800", ((2, 3, 0), (3, 2, 0), (3, 0, 2),
                        (0, 3, 2), (2, 0, 3), (0, 2, 3))),
        ("-11/75", ((3, 3, 0), (3, 0, 3), (0, 3, 3))),
        ("259/1920", ((4, 1, 0), (1, 4, 0), (4, 0, 1),
                      (0, 4, 1), (1, 0, 4), (0, 1, 4))),
        ("-1/27", ((2, 2, 2),)),
    )),
    (1, 0, 0): (4, "7.649", (
        ("92/405", ((0, 0, 0),)),
        ("1301/432", ((1, 0, 0),)),
        ("13/108", ((2, 0, 0),)),
        ("5/1296", ((5, 0, 0),)),
        ("-155/216", ((0, 1, 0), (0, 0, 1))),
        ("-1/36", ((0, 2, 0), (0, 0, 2))),
        ("-25/54", ((1, 2, 0), (1, 0, 2))),
        ("-41/108", ((2, 1, 0), (2, 0, 1))),
        ("23/360", ((0, 3, 0), (0, 0, 3))),
        ("1/36", ((2, 3, 0), (2, 0, 3))),
        ("7/27", ((0, 2, 1), (0, 1, 2))),
        ("7/54", ((2, 2, 1), (2, 1, 2))),
        ("-4/27", ((1, 2, 2),)),
    )),
    (2, 0, 0): (4, "7.649", (
        ("106/495", ((0, 0, 0),)),
        ("1115/432", ((2, 0, 0),)),
        ("101/180", ((3, 0, 0),)),
        ("53/7920", ((6, 0, 0),)),
        ("-61/144", ((1, 1, 0), (1, 0, 1))),
        ("-97/144", ((3, 1, 0), (3, 0, 1))),
        ("-1/6", ((1, 2, 0), (1, 0, 2))),
        ("-35/108", ((2, 2, 0), (2, 0, 2))),
        ("17/240", ((1, 3, 0), (1, 0, 3))),
        ("1/48", ((3, 3, 0), (3, 0, 3))),
        ("7/36", ((1, 2, 1), (3, 2, 1), (1, 1, 2), (3, 1, 2))),
        ("-4/27", ((2, 2, 2),)),
    )),
    (3, 0, 0): (3, "9.945", (
        ("697/180", ((3, 0, 0),)),
        ("1/24", ((2, 0, 0), (4, 0, 0))),
        ("-11/24", ((2, 1, 0), (2, 0, 1), (4, 1, 0), (4, 0, 1))),
        ("-77/72", ((3, 1, 0), (3, 0, 1))),
        ("-7/36", ((3, 2, 0), (3, 0, 2))),
        ("11/120", ((3, 3, 0), (3, 0, 3))),
        ("2/3", ((2, 1, 1), (4, 1, 1))),
        ("-1/18", ((3, 2, 1), (3, 1, 2))),
    )),
    (1, 1, 0): (3, "5.508", (
        ("-16/33", ((0, 0, 0),)),
        ("-14/99", ((3, 0, 0), (0, 3, 0))),
        ("38/15", ((1, 1, 0),)),
        ("1/11", ((2, 1, 0), (1, 2, 0))),
        ("-4/99", ((3, 2, 0), (2, 3, 0), (2, 0, 1), (0, 2, 1))),
        ("-23/88", ((1, 1, 1),)),
        ("-17/44", ((2, 1, 1), (1, 2, 1))),
        ("59/264", ((3, 1, 1), (1, 3, 1))),
        ("-4/99", ((2, 2, 1),)),
        ("-1/4", ((1, 1, 2),)),
        ("11/120", ((1, 1, 3),)),
    )),
    (2, 1, 0): (3, "5.108", (
        ("-188/945", ((0, 0, 0),)),
        ("-8/63", ((4, 0, 0),)),
        ("37/405", ((0, 1, 0),)),
        ("1043/540", ((2, 1, 0),)),
        ("11/360", ((3, 1, 0),)),
        ("5/648", ((5, 1, 0),)),
        ("43/108", ((2, 2, 0),)),
        ("1/36", ((4, 2, 0),)),
        ("-5/36", ((1, 3, 0),)),
        ("-7/45", ((3, 3, 0),)),
        ("-46/135", ((2, 0, 1),)),
        ("5/63", ((0, 1, 1),)),
        ("5/84", ((4, 1, 1),)),
        ("-91/108", ((2, 2, 1),)),
        ("121/360", ((2, 3, 1),)),
        ("-1/4", ((2, 1, 2),)),
        ("11/120", ((2, 1, 3),)),
    )),
    (3, 1, 0): (3, "5.048", (
        ("-29/216", ((1, 0, 0), (5, 0, 0))),
        ("-41/1080", ((2, 0, 0), (4, 0, 0))),
        ("29/384", ((1, 1, 0), (5, 1, 0))),
        ("1867/960", ((3, 1, 0),)),
        ("29/72", ((3, 2, 0),)),
        ("-23/160", ((2, 3, 0), (4, 3, 0))),
        ("-29/90", ((3, 0, 1),)),
        ("5/96", ((1, 1, 1), (5, 1, 1))),
        ("-59/72", ((3, 2, 1),)),
        ("79/240", ((3, 3, 1),)),
        ("-1/4", ((3, 1, 2),)),
        ("11/120", ((3, 1, 3),)),
    )),
    (2, 2, 0): (3, "4.129", (
        ("358/165", ((2, 2, 0),)),
        ("-10/231", ((1, 0, 0), (3, 0, 0), (0, 1, 0), (0, 3, 0))),
        ("-5/154", ((4, 1, 0), (4, 3, 0), (1, 4, 0), (3, 4, 0))),
        ("-167/264", ((2, 2, 1),)),
        ("-5/66", ((3, 2, 1), (2, 3, 1))),
        ("5/132", ((4, 2, 1), (2, 4, 1))),
        ("-21/44", ((2, 2, 2),)),
        ("5/88", ((1, 2, 2), (2, 1, 2), (3, 2, 2), (2, 3, 2))),
        ("11/120", ((2, 2, 3),)),
    )),
    (3, 2, 0): (3, "4.028", (
        ("-460/12033", ((2, 0, 0),)),
        ("-860/12033", ((4, 0, 0),)),
        ("-25/1146", ((1, 1, 0), (5, 3, 0))),
        ("-135/2674", ((2, 4, 0),)),
        ("6098/2865", ((3, 2, 0),)),
        ("-175/18909", ((6, 2, 0),)),
        ("-320/18909", ((0, 2, 0),)),
        ("-85/2674", ((4, 4, 0),)),
        ("-1009/1528", ((3, 2, 1),)),
        ("-55/573", ((3, 3, 1),)),
        ("55/1146", ((3, 4, 1),)),
        ("-3409/6876", ((3, 2, 2),)),
        ("245/4584", ((3, 1, 2), (3, 3, 2))),
        ("5/72", ((2, 2, 2), (4, 2, 2))),
        ("11/120", ((3, 2, 3),)),
    )),
    (4, 2, 0): (3, "3.994", (
        ("-5/84", ((3, 0, 0), (5, 0, 0))),
        ("193/90", ((4, 2, 0),)),
        ("-5/144", ((1, 2, 0), (7, 2, 0))),
        ("-5/112", ((3, 4, 0), (5, 4, 0))),
        ("-73/96", ((4, 2, 1),)),
        ("5/96", ((2, 2, 1), (4, 4, 1), (6, 2, 1), (4, 1, 2), (4, 3, 2))),
        ("-5/48", ((4, 3, 1),)),
        ("-17/48", ((4, 2, 2),)),
        ("11/120", ((4, 2, 3),)),
    )),
    (3, 3, 0): (5, "2.617", (
        ("85/54", ((3, 3, 0),)),
        ("-55/1536", ((1, 1, 1), (5, 1, 1), (1, 5, 1), (5, 5, 1))),
        ("-85/144", ((3, 3, 2),)),
        ("5/768", ((3, 1, 3), (1, 3, 3), (5, 3, 3), (3, 5, 3))),
        ("5/96", ((3, 2, 4), (2, 3, 4), (4, 3, 4), (3, 4, 4))),
        ("-259/3456", ((3, 3, 5),)),
    )),
    (1, 1, 1): (6, "1.730", (
        ("41/96", ((1, 1, 1),)),
        ("5/18", ((2, 1, 1), (1, 2, 1), (1, 1, 2))),
        ("-35/288", ((5, 1, 1), (1, 5, 1), (1, 1, 5))),
        ("5/144", ((7, 1, 1), (1, 7, 1), (1, 1, 7))),
    )),
    (2, 1, 1): (2, "3.75", (
        ("-4/9", ((2, 0, 0),)),
        ("-2/9", ((2, 2, 0), (2, 0, 2))),
        ("-2/21", ((0, 1, 1),)),
        ("55/24", ((2, 1, 1),)),
        ("-5/168", ((4, 1, 1),)),
        ("-1/12", ((3, 1, 1), (2, 2, 1), (2, 1, 2))),
        ("1/24", ((2, 3, 1), (2, 1, 3))),
        ("-1/9", ((2, 2, 2),)),
    )),
    (3, 1, 1): (2, "3.542", (
        ("-4/9", ((3, 0, 0),)),
        ("-2/9", ((3, 2, 0), (3, 0, 2))),
        ("-5/96", ((1, 1, 1), (5, 1, 1))),
        ("35/16", ((3, 1, 1),)),
        ("-1/12", ((3, 2, 1), (3, 1, 2))),
        ("1/24", ((3, 3, 1), (3, 1, 3))),
        ("-1/9", ((3, 2, 2),)),
    )),
    (2, 2, 1): (3, "2.370", (
        ("-1/7", ((2, 2, 0),)),
        ("-1/12", ((1, 1, 0), (3, 1, 0), (1, 3, 0), (3, 3, 0))),
        ("13/8", ((2, 2, 1),)),
        ("-1/24", ((2, 1, 3), (1, 2, 3), (2, 2, 3), (3, 2, 3), (2, 3, 3))),
        ("5/84", ((2, 2, 4),)),
    )),
    (2, 2, 2): (1, "3.5", (
        ("9/4", ((2, 2, 2),)),
        ("-5/24", ((2, 1, 2), (2, 3, 2), (1, 2, 2),
                   (3, 2, 2), (2, 2, 1), (2, 2, 3))),
    )),
    (3, 3, 3): (2, "1.625", (
        ("21/16", ((3, 3, 3),)),
        ("-5/96", ((3, 1, 3), (3, 5, 3), (1, 3, 3),
                   (5, 3, 3), (3, 3, 1), (3, 3, 5))),
    )),
}

# classes whose two leading per-axis values are equal *and* reachable from a
# pair of interior band axes; the index runs of `boxqi.qi.approximate`, which
# apply one region's functional to every index in it, rely on these stencils
# being symmetric under swapping the first two axes.
_SWAP_SYMMETRIC_KEYS = (
    (2, 2, -1), (3, 3, 0), (2, 2, 1), (2, 2, 2), (3, 3, 3))


@dataclass(frozen=True)
class Stencil:
    """One near-best coefficient rule: data indices and rational weights."""

    key: tuple[int, int, int]
    n: int
    norm_4sf: str
    indices: tuple[tuple[int, int, int], ...]
    weights: tuple[Fraction, ...]

    @property
    def norm(self) -> Fraction:
        """Exact l1 norm of the weights."""
        return sum(map(abs, self.weights), Fraction(0))

    @property
    def weight_map(self) -> dict[tuple[int, int, int], Fraction]:
        return dict(zip(self.indices, self.weights))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices as a (k, 3) int array and weights as float64, built once
        and read-only."""
        idx = np.array(self.indices, dtype=np.int64)
        w = np.array([float(v) for v in self.weights])
        idx.setflags(write=False)
        w.setflags(write=False)
        return idx, w


def _parse(key, spec) -> Stencil:
    n, printed, terms = spec
    indices: list[tuple[int, int, int]] = []
    weights: list[Fraction] = []
    for wstr, betas in terms:
        w = Fraction(wstr)
        for beta in betas:
            indices.append(tuple(int(v) for v in beta))
            weights.append(w)
    if len(set(indices)) != len(indices):
        raise AssertionError(f"duplicate data index in stencil {key}")
    if sum(weights) != 1:
        raise AssertionError(f"stencil {key} does not reproduce constants")
    return Stencil(key=key, n=n, norm_4sf=printed,
                   indices=tuple(indices), weights=tuple(weights))


@lru_cache(maxsize=1)
def library() -> Mapping[tuple[int, int, int], Stencil]:
    """All 23 class stencils, parsed and cheaply checked (weights sum to 1)."""
    lib = {key: _parse(key, spec) for key, spec in _SPECS.items()}
    if set(lib) != set(CLASS_KEYS):
        raise AssertionError("stencil library does not cover the class list")
    return lib


# ---------------------------------------------------------------------------
# rounding helper: ceiling at the fourth significant digit
# ---------------------------------------------------------------------------

def rounded_up(value: Fraction, significant: int = 4) -> Fraction:
    """Round a positive rational up at the given significant digit.

    This is the convention used for all stored ``norm_4sf`` strings: the
    result is never below the exact value, so rounded norms remain valid
    operator-norm bounds.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError("rounded_up expects a positive value")
    exponent = 0
    while 10 ** exponent <= value:
        exponent += 1
    while 10 ** (exponent - 1) > value:
        exponent -= 1
    # first significant digit sits at 10**(exponent-1)
    shift = significant - exponent
    scaled = value * Fraction(10) ** shift
    return Fraction(math.ceil(scaled), 1) / Fraction(10) ** shift


# ---------------------------------------------------------------------------
# instantiation at arbitrary indices
# ---------------------------------------------------------------------------

def functional(alpha, grid: DomainGrid) -> tuple[np.ndarray, np.ndarray]:
    """Weights for the coefficient at ``alpha`` as (indices, weights) arrays.

    ``indices`` is (k, 3) int64 of data indices in [0, m_a + 1]; ``weights``
    is the class stencil's read-only float64 array.  The rule is the class
    stencil's offsets from its key, mapped by the symmetry transform
    returned by :func:`boxqi.domain.classify`, added to ``alpha``.
    """
    key, transform = classify(alpha, grid)
    idx, w = library()[key].arrays
    return np.asarray(alpha, dtype=np.int64) + transform.offsets(idx - key), w


def coefficient(alpha, grid: DomainGrid, data: np.ndarray) -> float:
    """Apply the class rule for ``alpha`` to a (m1+2, m2+2, m3+2) data grid."""
    idx, w = functional(alpha, grid)
    return float(np.dot(data[idx[:, 0], idx[:, 1], idx[:, 2]], w))


def norm_bound() -> float:
    """max_alpha ||sigma_alpha||_1 over the library; together with the
    interior rule's smaller norm this bounds the operator sup norm."""
    return float(max(s.norm for s in library().values()))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_library() -> list[dict]:
    """Exact-rational validation of every embedded stencil.

    For each class this checks, on the canonical 11^3 grid and all in
    rational arithmetic:

    * every data index lies inside the clamped octahedron of radius ``n``;
    * the weights satisfy the cubic-reproduction constraint system exactly;
    * the exact l1 norm rounds up (4 significant figures) to ``norm_4sf``;
    * stencils used for two interchangeable axes are swap-symmetric.

    Returns one report dict per class; raises AssertionError on any failure.
    """
    grid = nearbest.canonical_grid()
    lib = library()
    reports = []
    for key in CLASS_KEYS:
        stencil = lib[key]
        system = nearbest.constraint_system(key, stencil.n, grid,
                                            tie_symmetry=False)
        candidate = {tuple(int(v) for v in p) for p in system.points}
        stray = [i for i in stencil.indices if i not in candidate]
        if stray:
            raise AssertionError(
                f"stencil {key}: indices outside the radius-{stencil.n} "
                f"candidate set: {stray}")
        norm = nearbest.verify_weights(system, stencil.weight_map)
        if norm != stencil.norm:
            raise AssertionError(f"stencil {key}: norm bookkeeping mismatch")
        if rounded_up(norm) != Fraction(stencil.norm_4sf):
            raise AssertionError(
                f"stencil {key}: ||sigma||_1 = {norm} rounds to "
                f"{float(rounded_up(norm))}, stored {stencil.norm_4sf}")
        swap_ok = True
        if key in _SWAP_SYMMETRIC_KEYS:
            wmap = stencil.weight_map
            swapped = {(j, i, k): w for (i, j, k), w in wmap.items()}
            swap_ok = swapped == wmap
            if not swap_ok:
                raise AssertionError(f"stencil {key} is not swap-symmetric")
        reports.append({
            "class": key,
            "n": stencil.n,
            "entries": len(stencil.indices),
            "l1": float(norm),
            "l1_4sf": stencil.norm_4sf,
            "exact": True,
            "swap_symmetric": swap_ok,
        })
    return reports
