"""Near-best functional derivation: constraint systems and exact l1
minimization against the reference norm table."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from boxqi import domain, geometry, nearbest, stencils


F = Fraction


def test_constraint_system_structure(grid11):
    sys_ = nearbest.constraint_system((0, 0, -1), 4, grid11)
    # x <-> y symmetry of the class leaves 13 of the 20 cubic monomials
    assert len(sys_.rows) == 13
    assert len(sys_.points) == 25
    assert len(sys_.orbits) == 16
    assert len(sys_.V) == 13
    assert all(len(row) == len(sys_.orbits) for row in sys_.V)
    assert all(isinstance(v, Fraction) for v in sys_.b)
    # points sorted lexicographically and unique
    as_tuples = [tuple(int(v) for v in p) for p in sys_.points]
    assert as_tuples == sorted(set(as_tuples))


@pytest.mark.parametrize("alpha", [
    (50, 0, 0), (-2, 0, 0), (0, 14, 0), (-1, -1, 3), (13, 5, -1)])
def test_constraint_system_rejects_alpha_outside_a(grid11, alpha):
    with pytest.raises(ValueError, match=rf"alpha \({alpha[0]}, "
                       r".* not in the index set A"):
        nearbest.constraint_system(alpha, 2, grid11)


def test_constraint_system_untied(grid11):
    sys_ = nearbest.constraint_system((0, 0, -1), 4, grid11,
                                      tie_symmetry=False)
    assert len(sys_.rows) == 20  # all monomials of P3 up to even symmetry
    assert len(sys_.orbits) == len(sys_.points)


def test_rhs_is_differential_target():
    # nu = (0,0,0): 1 ; nu = x^2: -5/12 h^2 factor from the expansion
    assert nearbest.constraint_rhs((0, 0, 0)) == 1
    assert nearbest.constraint_rhs((1, 0, 0)) == 0
    assert nearbest.constraint_rhs((2, 0, 0)) == F(-5, 12)
    assert nearbest.constraint_rhs((1, 1, 0)) == 0


def test_minimize_l1_small_classes(grid11):
    for key, n, expected in [((3, 3, 3), 2, F(13, 8)),
                             ((2, 2, 2), 1, F(7, 2)),
                             ((1, 1, 1), 2, F(9, 2))]:
        sol = nearbest.minimize_l1(nearbest.constraint_system(key, n, grid11))
        assert sol.status == "optimal"
        assert sol.norm == expected
        assert isinstance(sol.norm, Fraction)


def test_corner_infeasible_until_n4(grid11):
    for n in (1, 2, 3):
        sol = nearbest.minimize_l1(
            nearbest.constraint_system((0, 0, -1), n, grid11))
        assert sol.status == "infeasible"
    sol = nearbest.minimize_l1(
        nearbest.constraint_system((0, 0, -1), 4, grid11))
    assert sol.status == "optimal"
    assert stencils.rounded_up(sol.norm) == F("127.1")
    assert abs(sol.norm_float - 127.08148148148148) < 1e-10


def test_solution_weights_verify_exactly(grid11):
    sys_ = nearbest.constraint_system((1, 1, 1), 2, grid11)
    sol = nearbest.minimize_l1(sys_)
    norm = nearbest.verify_weights(sys_, sol.weights)
    assert norm == sol.norm


def test_verify_weights_rejects_a_perturbed_weight(grid11):
    sys_ = nearbest.constraint_system((1, 1, 1), 2, grid11)
    weights = nearbest.minimize_l1(sys_).weights
    i = next(i for i, w in enumerate(weights) if w)
    weights[i] += F(1, 1024)
    with pytest.raises(AssertionError,
                       match=r"condition violated for monomial \(0, 0, 0\)"):
        nearbest.verify_weights(sys_, weights)


def test_tie_symmetry_does_not_change_optimum(grid11):
    tied = nearbest.minimize_l1(
        nearbest.constraint_system((3, 3, 3), 2, grid11))
    untied = nearbest.minimize_l1(
        nearbest.constraint_system((3, 3, 3), 2, grid11,
                                   tie_symmetry=False))
    assert tied.norm == untied.norm == F(13, 8)


def test_norm_table_rows(grid11):
    rows = nearbest.norm_table([(3, 3, 3)], [1, 2], grid11)
    assert [r["n"] for r in rows] == [1, 2]
    assert [r["status"] for r in rows] == ["optimal", "optimal"]
    assert rows[0]["norm"] == F(7, 2)
    assert rows[1]["norm"] == F(13, 8)
    assert rows[0]["key"] == (3, 3, 3)


def test_norm_table_rows_hold_exact_norms(grid11):
    rows = nearbest.norm_table([(0, 0, -1), (2, 3, 3)], [3, 4], grid11)
    assert [r["status"] for r in rows] == ["infeasible"] + ["optimal"] * 3
    assert rows[0]["norm"] is None
    for row in rows[1:]:
        sol = nearbest.minimize_l1(
            nearbest.constraint_system(row["key"], row["n"], grid11))
        assert type(row["norm"]) is F and row["norm"] == sol.norm


def test_canonical_grid():
    g = nearbest.canonical_grid()
    assert g.m == (11, 11, 11)
    assert g.h == 1.0


@pytest.mark.parametrize("alpha, n, tie", [
    ((0, 0, -1), 4, True), ((0, 0, -1), 4, False), ((3, 0, 0), 3, True),
    ((1, 1, 1), 2, True), ((2, 1, 0), 4, True), ((3, 3, 3), 2, False),
])
def test_constraint_system_matches_fraction_sums(grid11, alpha, n, tie):
    _assert_matches_fraction_sums(grid11, alpha, n, tie)


@pytest.mark.parametrize("alpha, n, tie", [
    ((12, 0, 14), 3, True), ((12, 0, 14), 4, False), ((0, 14, 13), 4, True),
])
def test_constraint_system_matches_fraction_sums_on_a_non_cubic_grid(
        alpha, n, tie):
    # alpha on far faces of a non-cubic grid: each axis clips at its own m_a
    _assert_matches_fraction_sums(geometry.DomainGrid(11, 13, 12, 1.0),
                                  alpha, n, tie)


def _assert_matches_fraction_sums(grid, alpha, n, tie):
    # the system is built on doubled integer coordinates; recompute every
    # entry from the exact rational coordinates
    sys_ = nearbest.constraint_system(alpha, n, grid, tie_symmetry=tie)
    c = domain.center_exact(alpha)
    centered = [tuple(domain.data_coordinate_exact(int(beta[a]), grid.m[a])
                      - c[a] for a in range(3)) for beta in sys_.points]
    if tie:
        assert sys_.group == _stabilizer(centered)
    assert sys_.orbits == _point_orbits(centered, sys_.group)
    for nu, row, rhs in zip(sys_.rows, sys_.V, sys_.b):
        want = [sum((centered[i][0] ** nu[0] * centered[i][1] ** nu[1]
                     * centered[i][2] ** nu[2] for i in orbit), F(0))
                for orbit in sys_.orbits]
        sign = -1 if next((v for v in want if v != 0), 0) < 0 else 1
        assert row == [sign * v for v in want]
        assert all(isinstance(v, Fraction) for v in row)
        assert rhs == sign * nearbest.constraint_rhs(nu)


# --------------------------------------------------------------------------
# oracle: the system built point by point, one signed permutation at a time
# --------------------------------------------------------------------------

def _apply_signed_perm(g, point):
    perm, signs = g
    return tuple(signs[a] * point[perm[a]] for a in range(3))


def _stabilizer(centered):
    """Signed permutations mapping the centered point set onto itself."""
    pset = set(centered)
    return tuple(g for g in nearbest._SIGNED_PERMS
                 if all(_apply_signed_perm(g, p) in pset for p in pset))


def _point_orbits(centered, group):
    """Orbits of point indices, each sorted, in order of first point."""
    index_of = {p: i for i, p in enumerate(centered)}
    seen = [False] * len(centered)
    orbits = []
    for i, p in enumerate(centered):
        if seen[i]:
            continue
        orbit = sorted({index_of[_apply_signed_perm(g, p)] for g in group})
        for j in orbit:
            seen[j] = True
        orbits.append(orbit)
    return orbits


def _reference_system(alpha, n, grid, tie):
    """(points, group, orbits, rows, V, b): orbit sums as Fractions, rows
    sign-normalised and de-duplicated on their Fractions, in order."""
    points = domain.octahedron(alpha, n, grid)
    doubled = nearbest._doubled_centered(points, alpha, grid)
    centered = [tuple(p) for p in doubled.tolist()]
    group = _stabilizer(centered) if tie else (nearbest._SIGNED_PERMS[0],)
    orbits = _point_orbits(centered, group)
    values = nearbest._monomial_values(doubled)
    rows, V, b, seen = [], [], [], set()
    for nu in nearbest.MONOMIALS:
        row = [F(sum(int(values[i, nearbest.MONOMIALS.index(nu)])
                     for i in orbit), 2 ** sum(nu)) for orbit in orbits]
        rhs = nearbest.constraint_rhs(nu)
        lead = next((v for v in row if v != 0), None)
        if lead is None:
            if rhs != 0:
                rows.append(nu), V.append(row), b.append(rhs)
            continue
        if lead < 0:
            row, rhs = [-v for v in row], -rhs
        if (tuple(row), rhs) not in seen:
            seen.add((tuple(row), rhs))
            rows.append(nu), V.append(row), b.append(rhs)
    return points, group, orbits, rows, V, b


_ORACLE_CASES = [(key, n, tie, None) for key in domain.CLASS_KEYS
                 for n in range(1, 7) for tie in (True, False)] + [
    ((12, 0, 14), 3, True, (11, 13, 12)),
    ((12, 0, 14), 4, False, (11, 13, 12)),
    ((0, 14, 13), 4, True, (11, 13, 12))]


def test_constraint_system_matches_point_by_point_oracle(grid11):
    """Every class key at every radius 1..6, tied and untied, and three
    cases on a non-cubic grid: points, group, orbits, rows, V (all
    Fractions) and b equal the oracle's, over stabilizers of orders 1, 2,
    4, 6, 8 and 48."""
    orders = set()
    for alpha, n, tie, m in _ORACLE_CASES:
        grid = grid11 if m is None else geometry.DomainGrid(*m, 1.0)
        sys_ = nearbest.constraint_system(alpha, n, grid, tie_symmetry=tie)
        points, group, orbits, rows, V, b = _reference_system(
            alpha, n, grid, tie)
        case = (alpha, n, tie, m)
        assert np.array_equal(sys_.points, points), case
        assert sys_.group == group and sys_.orbits == orbits, case
        assert sys_.rows == rows and sys_.V == V and sys_.b == b, case
        assert all(type(v) is F for row in sys_.V for v in row), case
        assert all(type(v) is F for v in sys_.b), case
        assert all(type(i) is int for orbit in sys_.orbits for i in orbit)
        orders.add(len(group))
    assert orders == {1, 2, 4, 6, 8, 48}


@pytest.mark.parametrize("n", [2.5, True, "2", 0, np.float64(2)])
def test_constraint_system_rejects_a_radius_not_a_count(grid11, n):
    with pytest.raises(ValueError, match="radius n must be an integer >= 1"):
        nearbest.constraint_system((0, 0, -1), n, grid11)


def test_constraint_system_takes_a_numpy_radius(grid11):
    got = nearbest.constraint_system((0, 0, -1), np.int64(4), grid11)
    want = nearbest.constraint_system((0, 0, -1), 4, grid11)
    assert np.array_equal(got.points, want.points)
    assert (got.rows, got.V, got.b, got.orbits) == \
        (want.rows, want.V, want.b, want.orbits)


def test_derive_functional_demo_runs(capsys):
    """The demo derives the paper's cells of class (0, 0, -1): the radius-4
    optimum 17156/135, printed rounded up to 127.1, and by radius, no
    feasible stencil for n = 1..3 and 55.27 at n = 5."""
    path = Path(__file__).parents[1] / "demos" / "derive_functional.py"
    spec = importlib.util.spec_from_file_location("derive_functional", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main([])
    out = capsys.readouterr().out
    assert "l1 norm = 17156/135" in out and "rounds up to 127.1)" in out
    demo.main(["--sweep", "--n", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.strip() for line in lines[1:4]] == [
        f"n = {n}: infeasible" for n in (1, 2, 3)]
    assert lines[5].strip().startswith("n = 5:")
    assert lines[5].endswith("rounds up to 55.27)")
