"""Exact rational simplex: standard-form LPs and the weighted l1
minimization wrapper, checked against a Fraction-tableau oracle."""

import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from boxqi import nearbest, simplex


F = Fraction


def test_solve_lp_known_optimum():
    # min x1 + x2 : x1 + 2 x2 = 4, x >= 0  ->  x = (0, 2), objective 2
    res = simplex.solve_lp([[F(1), F(2)]], [F(4)], [F(1), F(1)])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == [F(0), F(2)]
    assert all(isinstance(v, Fraction) for v in res.x)


def test_solve_lp_degenerate_vertex():
    # two constraints meeting at (1, 0, 0); exact pivoting must terminate
    A = [[F(1), F(1), F(0)], [F(1), F(0), F(1)]]
    res = simplex.solve_lp(A, [F(1), F(1)], [F(1), F(3), F(3)])
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == [F(1), F(0), F(0)]


def test_solve_lp_infeasible():
    # x1 + x2 = -1 with x >= 0 has no solution
    res = simplex.solve_lp([[F(1), F(1)]], [F(-1)], [F(1), F(1)])
    assert res.status == "infeasible"
    assert res.x is None


def test_solve_lp_unbounded():
    # min -x1 : x1 - x2 = 0 lets x1 grow without limit
    res = simplex.solve_lp([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert res.status == "unbounded"


def test_solve_lp_exact_fractions_survive():
    # optimum with awkward rationals: x1/3 + x2 = 1/7, minimize x1 + 5 x2
    res = simplex.solve_lp([[F(1, 3), F(1)]], [F(1, 7)], [F(1), F(5)])
    assert res.status == "optimal"
    assert res.objective == F(3, 7)
    assert res.x == [F(3, 7), F(0)]


def test_minimize_l1_signed_solution():
    # s1 - s2 = 1, s1 + s2 = -3  ->  s = (-1, -2), |s|_1 = 3
    V = [[F(1), F(-1)], [F(1), F(1)]]
    status, s, norm = simplex.minimize_l1_exact(V, [F(1), F(-3)])
    assert status == "optimal"
    assert s == [F(-1), F(-2)]
    assert norm == 3


def test_minimize_l1_prefers_sparse_combination():
    # one equation, three unknowns: s1 + 2 s2 + 4 s3 = 4
    # cheapest l1 solution puts everything on the largest coefficient
    V = [[F(1), F(2), F(4)]]
    status, s, norm = simplex.minimize_l1_exact(V, [F(4)])
    assert status == "optimal"
    assert norm == 1
    assert s == [F(0), F(0), F(1)]


def test_minimize_l1_objective_weights():
    # same system, but make the third variable expensive
    V = [[F(1), F(2), F(4)]]
    status, s, norm = simplex.minimize_l1_exact(
        V, [F(4)], weights=[F(1), F(1), F(100)])
    assert status == "optimal"
    assert norm == 2  # now 2 s2 = 4 wins
    assert s == [F(0), F(2), F(0)]


def test_minimize_l1_infeasible():
    status, s, norm = simplex.minimize_l1_exact([[F(0), F(0)]], [F(1)])
    assert status == "infeasible"
    assert s is None and norm is None


# --------------------------------------------------------------------------
# oracle: the same two-phase Bland simplex on a Fraction tableau
# --------------------------------------------------------------------------

def _ref_pivot(T, basis, row, col):
    piv = T[row][col]
    if piv != 1:
        inv = 1 / piv
        T[row] = [v * inv for v in T[row]]
    prow = T[row]
    for r, tr in enumerate(T):
        if r != row and tr[col] != 0:
            f = tr[col]
            T[r] = [a - f * b for a, b in zip(tr, prow)]
    basis[row] = col


def _ref_bland(T, basis, cost_row, ncols):
    m = len(basis)
    while True:
        z = T[cost_row]
        col = next((j for j in range(ncols) if z[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(m):
            a = T[r][col]
            if a > 0:
                ratio = T[r][-1] / a
                cand = (ratio, basis[r])
                if best is None or cand < best[0:2]:
                    best = (ratio, basis[r], r)
        if best is None:
            return "unbounded"
        _ref_pivot(T, basis, best[2], col)


def _ref_solve_lp(A, b, c):
    m = len(A)
    n = len(c)
    A = [[F(v) for v in row] for row in A]
    b = [F(v) for v in b]
    c = [F(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    width = n + m + 1
    T = []
    for i in range(m):
        row = A[i] + [F(0)] * m + [b[i]]
        row[n + i] = F(1)
        T.append(row)
    zrow = list(c) + [F(0)] * (m + 1)
    art = [F(0)] * width
    for i in range(m):
        art = [a - v for a, v in zip(art, T[i])]
    art = [(F(0) if n <= j < n + m else v) for j, v in enumerate(art)]
    T.append(zrow)
    T.append(art)
    basis = list(range(n, n + m))
    _ref_bland(T, basis, cost_row=m + 1, ncols=n + m)
    if T[m + 1][-1] != 0:
        return simplex.LPResult("infeasible")
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                _ref_pivot(T, basis, r, col)
    keep = [r for r in range(m) if basis[r] < n]
    T = [T[r] for r in keep] + [T[m]]
    basis = [basis[r] for r in keep]
    T = [row[:n] + [row[-1]] for row in T]
    status = _ref_bland(T, basis, cost_row=len(basis), ncols=n)
    if status != "optimal":
        return simplex.LPResult(status)
    x = [F(0)] * n
    for r, j in enumerate(basis):
        x[j] = T[r][-1]
    objective = sum((ci * xi for ci, xi in zip(c, x)), F(0))
    return simplex.LPResult("optimal", x=x, objective=objective)


def _record_pivots(monkeypatch, module, name, log, at=None):
    """Wrap module.<name> so every call appends its pivot entry and
    right-hand side to log, and its (row, column) to ``at`` if given.

    The integer tableau stores only its artificial block and rhs column,
    so its pivot entry is read from the entering column that
    ``simplex._pivot`` receives.
    """
    pivot = getattr(module, name)

    def counted(T, *rest):
        row, col = rest[-2:]
        entry = rest[0][row] if module is simplex else T[row][col]
        log.append((entry, T[row][-1]))
        if at is not None:
            at.append((row, col))
        return pivot(T, *rest)

    monkeypatch.setattr(module, name, counted)


def _random_lp(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 8)

    def entry():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    A = [[entry() if rng.random() < 0.7 else F(0) for _ in range(n)]
         for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        # a redundant row leaves an artificial in the basis after phase one
        k = rng.randrange(m - 1)
        A[-1] = [2 * u - v for u, v in zip(A[k], A[0])]
    if rng.random() < 0.2:
        b = [entry() for _ in range(m)]      # often infeasible
    else:
        # feasible by construction, with many zero coordinates: degenerate
        x = [F(rng.randint(0, 2)) if rng.random() < 0.5 else F(0)
             for _ in range(n)]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in A]
    return A, b, [entry() for _ in range(n)]


def test_solve_lp_matches_fraction_oracle(monkeypatch):
    ours, ref = [], []
    _record_pivots(monkeypatch, simplex, "_pivot", ours)
    _record_pivots(monkeypatch, sys.modules[__name__], "_ref_pivot", ref)
    rng = random.Random(2024)
    statuses = set()
    negative = degenerate = 0
    for _ in range(1500):
        A, b, c = _random_lp(rng)
        del ours[:], ref[:]
        got = simplex.solve_lp(A, b, c)
        want = _ref_solve_lp(A, b, c)
        assert (got.status, got.x, got.objective) == \
            (want.status, want.x, want.objective), (A, b, c)
        assert len(ours) == len(ref)
        # the integer tableau pivots on the same entries up to positive
        # scale, so signs agree and degenerate pivots stay degenerate
        for (p, rhs), (q, rhs_ref) in zip(ours, ref):
            assert (p > 0) == (q > 0) and (rhs == 0) == (rhs_ref == 0)
        statuses.add(got.status)
        negative += sum(p < 0 for p, _ in ours)
        degenerate += sum(rhs == 0 for _, rhs in ours)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert negative > 0 and degenerate > 0


@pytest.mark.parametrize("key, n", [
    ((0, 0, -1), 4), ((0, 0, -1), 5), ((0, 0, -1), 8), ((3, 0, 0), 3)],
    ids=["4", "5", "8", "token-300-n3"])
def test_minimize_l1_matches_fraction_oracle(monkeypatch, grid11, key, n):
    system = nearbest.constraint_system(key, n, grid11)
    got = nearbest.minimize_l1(system)
    monkeypatch.setattr(simplex, "solve_lp", _ref_solve_lp)
    want = nearbest.minimize_l1(system)
    assert got.status == want.status == "optimal"
    assert got.weights == want.weights
    assert got.norm == want.norm


def _mirrored_lp(rng):
    """A random LP in which some columns negate earlier ones."""
    A, b, c = _random_lp(rng)
    n = len(c)
    for j in range(1, n):
        if rng.random() < 0.4:
            s = rng.randrange(j)
            for row in A:
                row[j] = -row[s]
    if rng.random() < 0.7:
        # feasible again after the column change
        x = [F(rng.randint(0, 2)) if rng.random() < 0.5 else F(0)
             for _ in range(n)]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in A]
    return A, b, c


def _l1_instance(rng, denominators=None):
    """(V, b, w) of a random weighted l1 problem; b and w are integers, or
    take their denominators from ``denominators`` if given."""
    m, k = rng.randint(1, 5), rng.randint(1, 8)
    V = [[F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(k)]
         for _ in range(m)]

    def entry(lo):
        d = rng.choice(denominators) if denominators else 1
        return F(rng.randint(lo, 4), d)

    return V, [entry(-4) for _ in range(m)], [entry(1) for _ in range(k)]


def _l1_lp(rng):
    """The split LP [V | -V] that minimize_l1_exact builds."""
    V, b, w = _l1_instance(rng)
    return [row + [-v for v in row] for row in V], b, w * 2


def test_mirrored_columns_pivot_like_the_full_tableau(monkeypatch):
    ours, ref, ours_at, ref_at = [], [], [], []
    _record_pivots(monkeypatch, simplex, "_pivot", ours, ours_at)
    _record_pivots(monkeypatch, sys.modules[__name__], "_ref_pivot", ref,
                   ref_at)
    rng = random.Random(5151)
    statuses = set()
    negative = degenerate = mirrored = 0
    for i in range(2000):
        A, b, c = _mirrored_lp(rng) if i % 2 else _l1_lp(rng)
        del ours[:], ref[:], ours_at[:], ref_at[:]
        got = simplex.solve_lp(A, b, c)
        want = _ref_solve_lp(A, b, c)
        assert (got.status, got.x, got.objective) == \
            (want.status, want.x, want.objective), (A, b, c)
        assert ours_at == ref_at, (A, b, c)
        for (p, rhs), (q, rhs_ref) in zip(ours, ref):
            assert (p > 0) == (q > 0) and (rhs == 0) == (rhs_ref == 0)
        statuses.add(got.status)
        negative += sum(p < 0 for p, _ in ours)
        degenerate += sum(rhs == 0 for _, rhs in ours)
        mirrored += sum(col < len(c) and any(
            all(row[col] == -row[s] for row in A) for s in range(col))
            for _, col in ours_at)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert negative > 0 and degenerate > 0 and mirrored > 0


def test_minimize_l1_matches_the_unscaled_split_lp():
    """minimize_l1_exact scales V, b and w to integers before `solve_lp`;
    the Fraction oracle solves the unscaled split LP [V | -V] instead, so
    the scaling is checked on its own.  Infeasible instances included."""
    rng = random.Random(3301)
    statuses = set()
    for i in range(2000):
        V, b, w = _l1_instance(rng, (1, 2, 5) if i % 2 else None)
        k = len(w)
        ref = _ref_solve_lp([row + [-v for v in row] for row in V], b, w * 2)
        want = (ref.status, None, None)
        if ref.status == "optimal":
            s = [ref.x[j] - ref.x[k + j] for j in range(k)]
            want = ("optimal", s,
                    sum((wj * abs(sj) for wj, sj in zip(w, s)), F(0)))
        got = simplex.minimize_l1_exact(V, b, weights=w)
        assert got == want, (V, b, w)
        assert got[2] is None or type(got[2]) is F
        statuses.add(got[0])
    assert statuses == {"optimal", "infeasible"}


def test_solve_lp_takes_integers_as_they_are():
    """Integer inputs give the results of the same LP in Fractions."""
    rng = random.Random(77)
    for _ in range(200):
        A, b, c = _random_lp(rng)
        L = lcm(*(v.denominator for row in (*A, b, c) for v in row))
        ints = [[int(v * L) for v in row] for row in (*A, b, c)]
        got = simplex.solve_lp(ints[:len(A)], ints[-2], ints[-1])
        want = simplex.solve_lp(A, b, c)
        assert (got.status, got.x) == (want.status, want.x)
        if got.status == "optimal":
            assert got.objective == L * want.objective
            assert all(type(v) is F for v in got.x)


def test_each_pivot_updates_only_the_artificial_block(monkeypatch, grid11):
    """Every pivot of the split LP rewrites (m + 2) x (m + 1) integers: the
    artificial block and the rhs of m constraint rows and two cost rows,
    however many structural columns the LP has."""
    shapes = []
    pivot = simplex._pivot

    def record(Y, a, *rest):
        shapes.append(([len(y) for y in Y], len(a)))
        return pivot(Y, a, *rest)

    monkeypatch.setattr(simplex, "_pivot", record)
    widths = set()
    for n in (5, 8):
        system = nearbest.constraint_system((0, 0, -1), n, grid11)
        m = len(system.V)
        widths.add(2 * len(system.V[0]))
        del shapes[:]
        assert nearbest.minimize_l1(system).status == "optimal"
        assert len(shapes) > m
        assert all(shape == ([m + 1] * (m + 2), m + 2) for shape in shapes)
    assert len(widths) == 2


@pytest.mark.parametrize("call", [
    lambda: simplex.minimize_l1_exact([[1, 2]], [1, 3]),
    lambda: simplex.minimize_l1_exact([[1, 2], [3]], [1, 1]),
    lambda: simplex.minimize_l1_exact([[1, 2], [3, 4]], [1]),
    lambda: simplex.minimize_l1_exact([[1, 2]], [1], weights=[1]),
    lambda: simplex.solve_lp([[1, 2]], [1], [1]),
    lambda: simplex.solve_lp([[1, 2], [3]], [1, 1], [1, 1]),
    lambda: simplex.solve_lp([[1, 2]], [1, 2], [1, 1]),
], ids=["b-too-long", "ragged-V", "b-too-short", "weights-too-short",
        "c-too-short", "ragged-A", "b-too-long-lp"])
def test_malformed_lp_input_raises_value_error(call):
    with pytest.raises(ValueError, match="one row per entry of b"):
        call()
