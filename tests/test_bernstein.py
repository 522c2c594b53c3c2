"""Quartic Bernstein basis, BB evaluation as a basis dot product, derivative
reduction."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from boxqi import bernstein as bb


def _random_bary(rng, n):
    return rng.dirichlet(np.ones(4), n)


def oracle_basis(bary, degree=4):
    """The per-column basis: each column is its multinomial times the four
    powers rows[:, a] ** nu_a, left to right, on strided columns."""
    bary = np.asarray(bary, dtype=np.float64)
    rows = bary.reshape(-1, 4)
    powers = [np.stack([rows[:, a] ** p for p in range(degree + 1)], axis=-1)
              for a in range(4)]
    out = np.empty((len(rows), bb.DIMENSION[degree]), dtype=np.float64)
    for col, nu in enumerate(bb.multi_indices(degree)):
        out[:, col] = (bb.multinomial(nu)
                       * powers[0][:, nu[0]]
                       * powers[1][:, nu[1]]
                       * powers[2][:, nu[2]]
                       * powers[3][:, nu[3]])
    return out.reshape(bary.shape[:-1] + (bb.DIMENSION[degree],))


def _basis_exact(bary):
    """Quartic Bernstein basis row at one exact rational barycentric point."""
    return [Fraction(bb.multinomial(nu))
            * bary[0] ** nu[0] * bary[1] ** nu[1]
            * bary[2] ** nu[2] * bary[3] ** nu[3]
            for nu in bb.MULTI_INDICES_4]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_multi_indices_enumeration():
    for degree, count in bb.DIMENSION.items():
        mi = np.asarray(bb.multi_indices(degree))
        assert mi.shape == (count, 4)
        assert (mi.sum(axis=1) == degree).all()
        assert (mi >= 0).all()
        # lexicographic and duplicate-free
        as_tuples = [tuple(row) for row in mi]
        assert len(set(as_tuples)) == count
    assert bb.DIMENSION[4] == 35


def test_basis_partition_of_unity_and_positivity(rng):
    bary = _random_bary(rng, 200)
    basis = bb.bernstein_basis(bary)
    assert basis.shape == (200, 35)
    assert (basis >= 0).all()
    np.testing.assert_allclose(basis.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_basis_matches_multinomial_formula(rng):
    bary = _random_bary(rng, 20)
    basis = bb.bernstein_basis(bary)
    mi = np.asarray(bb.multi_indices(4))
    for col, xi in enumerate(mi):
        coeff = math.factorial(4) // math.prod(math.factorial(int(v))
                                               for v in xi)
        explicit = coeff * np.prod(bary ** xi, axis=1)
        np.testing.assert_allclose(basis[:, col], explicit, rtol=1e-13)


def test_basis_exact_agrees_with_float():
    bary = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 4), Fraction(1, 6))
    exact = _basis_exact(bary)
    assert all(isinstance(v, Fraction) for v in exact)
    assert sum(exact) == 1
    floats = bb.bernstein_basis(np.array([[float(v) for v in bary]]))[0]
    np.testing.assert_allclose([float(v) for v in exact], floats, rtol=1e-14)


@pytest.mark.parametrize("degree", range(5))
def test_basis_is_bitwise_the_per_column_oracle(rng, degree):
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -0.5,
               5e-324, 1e300]
    rows = np.concatenate([
        _random_bary(rng, 500),
        rng.normal(scale=3.0, size=(300, 4)),         # off the simplex
        np.array(list(product(special, repeat=4))),  # NaN, inf, +-0
    ])
    with np.errstate(all="ignore"):
        got, want = bb.bernstein_basis(rows, degree), oracle_basis(rows,
                                                                   degree)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(_bits(got), _bits(want))
    batch = rows[:24].reshape(2, 3, 4, 4)
    assert bb.bernstein_basis(batch, degree).shape == (
        2, 3, 4, bb.DIMENSION[degree])
    np.testing.assert_array_equal(
        _bits(bb.bernstein_basis(batch, degree)),
        _bits(oracle_basis(batch, degree)))
    np.testing.assert_array_equal(
        _bits(bb.bernstein_basis(rows[7], degree)),
        _bits(oracle_basis(rows[7], degree)))
    assert bb.bernstein_basis(rows[:0], degree).shape == (
        0, bb.DIMENSION[degree])


@pytest.mark.parametrize("degree", [-1, 5, 2.0, True, None])
def test_basis_rejects_a_degree_outside_0_to_4(degree):
    with pytest.raises(ValueError, match=f"got {degree!r}"):
        bb.bernstein_basis(np.full((3, 4), 0.25), degree)


def test_collocation_matrix_is_invertible_interpolation():
    dp = bb.domain_point_barycentrics()
    matrix = bb.collocation_matrix(np.asarray(dp, float))
    assert matrix.shape == (35, 35)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=35)
    values = matrix @ coeffs
    recovered = np.linalg.solve(matrix, values)
    np.testing.assert_allclose(recovered, coeffs, rtol=0, atol=1e-10)


def test_eval_bb_equals_basis_dot(rng):
    bary = _random_bary(rng, 50)
    coeffs = rng.normal(size=35)
    direct = bb.bernstein_basis(bary) @ coeffs
    np.testing.assert_allclose(bb.eval_bb(coeffs, bary), direct, rtol=1e-13)


def test_derivative_reduce_matches_difference_quotient(rng):
    coeffs = rng.normal(size=35)
    direction = np.array([1.0, -0.25, -0.5, -0.25])  # sums to zero
    reduced = bb.derivative_reduce(coeffs, direction)
    assert reduced.shape == (20,)
    bary = _random_bary(rng, 10)
    step = 1e-6
    forward = bb.eval_bb(coeffs, bary + step * direction)
    backward = bb.eval_bb(coeffs, bary - step * direction)
    fd = (forward - backward) / (2 * step)
    analytic = bb.eval_bb(reduced, bary, degree=3)
    np.testing.assert_allclose(analytic, fd, rtol=1e-7, atol=1e-7)


def test_derivative_reduce_exact_on_linear_field():
    # p(lambda) = lambda_0 in BB form: coeffs = xi_0 / 4
    mi = np.asarray(bb.multi_indices(4))
    coeffs = mi[:, 0] / 4.0
    direction = np.array([1.0, -1.0, 0.0, 0.0])
    reduced = bb.derivative_reduce(coeffs, direction)
    # derivative of lambda_0 along direction == 1 everywhere
    bary = np.random.default_rng(3).dirichlet(np.ones(4), 8)
    np.testing.assert_allclose(bb.eval_bb(reduced, bary, degree=3), 1.0,
                               rtol=0, atol=1e-12)


def test_second_reduce_reaches_degree_two(rng):
    coeffs = rng.normal(size=35)
    direction = np.array([0.5, 0.5, -0.5, -0.5])
    second = bb.derivative_reduce(
        bb.derivative_reduce(coeffs, direction), direction, degree=3)
    assert second.shape == (10,)
