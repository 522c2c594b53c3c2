"""Embedded coefficient-functional library: structure, norms, rounding
convention, and application to data fields."""

from fractions import Fraction

import numpy as np
import pytest

from boxqi import domain, geometry, stencils


F = Fraction

# (class key) -> (octahedron radius n, reference 4-significant-figure norm)
REFERENCE = {
    (0, 0, -1): (11, "8.774"),
    (1, 0, -1): (9, "9.099"),
    (2, 0, -1): (9, "9.099"),
    (1, 1, -1): (7, "9.386"),
    (2, 1, -1): (7, "9.386"),
    (2, 2, -1): (10, "5.561"),
    (0, 0, 0): (6, "7.740"),
    (1, 0, 0): (4, "7.649"),
    (2, 0, 0): (4, "7.649"),
    (3, 0, 0): (3, "9.945"),
    (1, 1, 0): (3, "5.508"),
    (2, 1, 0): (3, "5.108"),
    (3, 1, 0): (3, "5.048"),
    (2, 2, 0): (3, "4.129"),
    (3, 2, 0): (3, "4.028"),
    (4, 2, 0): (3, "3.994"),
    (3, 3, 0): (5, "2.617"),
    (1, 1, 1): (6, "1.730"),
    (2, 1, 1): (2, "3.75"),
    (3, 1, 1): (2, "3.542"),
    (2, 2, 1): (3, "2.370"),
    (2, 2, 2): (1, "3.5"),
    (3, 3, 3): (2, "1.625"),
}


def test_library_covers_all_classes(lib):
    assert set(lib) == set(domain.CLASS_KEYS)
    assert len(lib) == 23
    for key, stencil in lib.items():
        assert stencil.key == key
        assert len(stencil.indices) == len(stencil.weights) > 0
        assert sum(stencil.weights) == 1  # constant reproduction


def test_reference_norms_and_radii(lib):
    for key, (n, norm_4sf) in REFERENCE.items():
        stencil = lib[key]
        assert stencil.n == n, key
        assert stencil.norm_4sf == norm_4sf, key
        exact = sum(map(abs, stencil.weights), F(0))
        assert stencils.rounded_up(exact) == F(norm_4sf), key


def test_interior_seven_point_rule(lib):
    # canonical data indices: the center index plus +-2 along each axis
    interior = lib[(3, 3, 3)]
    by_index = interior.weight_map
    assert len(by_index) == 7
    assert by_index[(3, 3, 3)] == F(21, 16)
    for axis in range(3):
        for sign in (-2, 2):
            idx = [3, 3, 3]
            idx[axis] += sign
            assert by_index[tuple(idx)] == F(-5, 96)
    assert interior.norm == F(21, 16) + 6 * F(5, 96)  # 1.625


def test_rounded_up_convention():
    cases = [
        (F(179, 18), "9.945"),       # 9.9444... rounds *up*
        (F(13, 8), "1.625"),         # exact 4-digit value unchanged
        (F(7, 2), "3.5"),
        (F(1234449, 1000000), "1.235"),
        (F(1, 3), "0.3334"),
        (F(1000), "1000"),
        (F(99999, 10), "10000"),     # carries across a digit boundary
    ]
    for value, expected in cases:
        assert stencils.rounded_up(value) == F(expected), value
    with pytest.raises(ValueError):
        stencils.rounded_up(F(0))


def test_norm_bound(lib):
    bound = stencils.norm_bound()
    assert bound == float(F(179, 18))
    assert stencils.rounded_up(F(179, 18)) == F("9.945")
    assert max(s.norm for s in lib.values()) == F(179, 18)


def test_validate_library_all_ok(grid11):
    report = stencils.validate_library()
    assert len(report) == 23
    assert all(entry["exact"] for entry in report)
    assert all(entry["swap_symmetric"] for entry in report)


def test_functional_interior_and_boundary(grid11, lib):
    pts, wts = stencils.functional((6, 6, 6), grid11)
    assert len(pts) == 7
    np.testing.assert_allclose(wts.sum(), 21 / 16 - 6 * 5 / 96, rtol=1e-14)
    pts, wts = stencils.functional((0, 0, -1), grid11)
    assert len(pts) == len(lib[(0, 0, -1)].indices)
    assert (pts >= 0).all() and (pts <= 12).all()
    np.testing.assert_allclose(np.abs(wts).sum(), 8.7735, atol=5e-4)


def test_functional_shares_one_read_only_weight_array(grid11):
    # (6, 6, 6) and (5, 7, 6) both fall in the interior class (3, 3, 3)
    _, first = stencils.functional((6, 6, 6), grid11)
    _, again = stencils.functional((5, 7, 6), grid11)
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_coefficient_is_weight_dot_data(grid11, rng):
    data = rng.normal(size=(13, 13, 13))
    for alpha in [(6, 6, 6), (0, 0, -1), (11, 12, 3), (-1, 5, 5)]:
        pts, wts = stencils.functional(alpha, grid11)
        manual = wts @ data[pts[:, 0], pts[:, 1], pts[:, 2]]
        np.testing.assert_allclose(
            stencils.coefficient(alpha, grid11, data), manual, rtol=1e-13)


def _cubic_field(rng):
    """Random cubic and its exact differential-target functional value."""
    coeffs = rng.normal(size=(3, 3, 3))  # tensor degree capped at total 3
    idx = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
           if i + j + k <= 3]

    def p(x, y, z):
        return sum(coeffs[i, j, k] * x**i * y**j * z**k for i, j, k in idx)

    def laplacian(x, y, z):
        total = 0.0
        for i, j, k in idx:
            c = coeffs[i, j, k]
            if i >= 2:
                total += c * i * (i - 1) * x**(i - 2) * y**j * z**k
            if j >= 2:
                total += c * j * (j - 1) * x**i * y**(j - 2) * z**k
            if k >= 2:
                total += c * k * (k - 1) * x**i * y**j * z**(k - 2)
        return total

    return p, laplacian


def test_functionals_hit_differential_target_on_cubics(grid11, rng):
    """For cubic p the coefficient must equal p(C) - 5/24 h^2 (Delta p)(C);
    the bi-Laplacian term vanishes on P3."""
    p, lap = _cubic_field(rng)
    grid_pts = domain.data_points(grid11)
    data = p(grid_pts[..., 0], grid_pts[..., 1], grid_pts[..., 2])
    for alpha in [(6, 6, 6), (0, 0, -1), (0, 0, 0), (13, 5, 5),
                  (3, 0, 0), (-1, 5, 5), (5, 12, 0), (2, 2, 1)]:
        cx, cy, cz = (float(v) for v in domain.center_exact(alpha))
        target = p(cx, cy, cz) - 5 / 24 * lap(cx, cy, cz)
        got = stencils.coefficient(alpha, grid11, data)
        assert abs(got - target) <= 1e-9 * max(1.0, abs(target)), alpha
