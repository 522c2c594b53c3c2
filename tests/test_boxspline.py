"""Seven-direction box spline: exact Bernstein table vs. the de Boor
recurrence oracle, support, symmetry, and exact structural checks."""

import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from boxqi import boxspline as bs, geometry
from boxqi.bernstein import _RAISE, multi_indices


SUPPORT_LO = np.asarray(bs.SUPPORT_LO, float)
SUPPORT_HI = np.asarray(bs.SUPPORT_HI, float)
CENTER = np.asarray(bs.SUPPORT_CENTER, float)


def _jittered_points(rng, n):
    """Random support points pushed off the knot planes (the recurrence
    oracle is undefined exactly on them)."""
    pts = rng.uniform(SUPPORT_LO, SUPPORT_HI, size=(n, 3))
    return pts + 1e-4 * rng.normal(size=(n, 3))


def test_direction_set():
    d = np.asarray(bs.DIRECTIONS)
    assert d.shape == (7, 3)
    # e1, e2, e3 plus the four body diagonals with positive z component
    assert (np.abs(d) <= 1).all() and (d[:, 2] >= 0).all()
    assert np.linalg.matrix_rank(d) == 3
    np.testing.assert_array_equal(d.sum(axis=0), [1, 1, 5])


def test_table_matches_recurrence_oracle(rng):
    table = bs.get_table()
    pts = _jittered_points(rng, 40)
    np.testing.assert_allclose(table.eval(pts), bs.eval_oracle(pts),
                               rtol=0, atol=1e-13)


def test_table_shape_and_rationals(table):
    assert table.coeffs.shape == (125, 24, 35)
    assert table.numerators.shape == (125, 24, 35)
    assert table.numerators.dtype == np.int64
    assert table.denominator == 1536
    # 1536 is the least common denominator, not merely a common one
    assert np.gcd.reduce(table.numerators.ravel(), initial=1536) == 1
    assert table.min_coefficient >= 0  # B is nonnegative everywhere
    np.testing.assert_allclose(
        table.coeffs, table.numerators / table.denominator, rtol=0, atol=0)


def test_value_at_center(table):
    # B at the support center equals 11/64
    np.testing.assert_allclose(table.eval(CENTER[None]), 11 / 64, rtol=1e-14)


def test_zero_outside_support(table, rng):
    inside = _jittered_points(rng, 30)
    outside = np.concatenate([
        inside + np.array([6.0, 0.0, 0.0]),
        inside - np.array([0.0, 6.0, 0.0]),
        inside + np.array([0.0, 0.0, 6.0]),
    ])
    np.testing.assert_array_equal(table.eval(outside), 0.0)
    # and the support faces themselves evaluate to zero (C^2 closure)
    faces = inside.copy()
    faces[:, 2] = 0.0
    np.testing.assert_allclose(table.eval(faces), 0.0, atol=1e-14)


def test_symmetries(table, rng):
    pts = _jittered_points(rng, 50)
    ref = table.eval(pts)
    # x <-> y swap leaves the direction multiset invariant
    swapped = pts[:, [1, 0, 2]]
    np.testing.assert_allclose(table.eval(swapped), ref, atol=1e-13)
    # central symmetry about the support center
    mirrored = 2 * CENTER - pts
    np.testing.assert_allclose(table.eval(mirrored), ref, atol=1e-13)


def test_partition_of_unity_sample(table, rng):
    pts = rng.uniform(0.0, 1.0, size=(200, 3)) * 5.0
    base = np.floor(pts).astype(np.int64)
    total = np.zeros(len(pts))
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            for dz in range(-4, 1):
                alpha = base + [dx, dy, dz]
                total += table.eval(pts - alpha)
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


def test_eval_derivative_matches_fd(table, rng):
    pts = _jittered_points(rng, 15)
    step = 1e-5
    for axis, gamma in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        e = np.zeros(3)
        e[axis] = step
        fd = (table.eval(pts + e) - table.eval(pts - e)) / (2 * step)
        np.testing.assert_allclose(table.eval_derivative(pts, gamma), fd,
                                   rtol=0, atol=1e-8)


def test_eval_derivative_rejects_non_integer_orders(table):
    pts = np.array([[0.4, 0.5, 2.3]])
    table.eval_derivative(pts, np.array([1, 0, 2]))  # numpy ints are fine
    for gamma in [(0.5, 0, 0), (1.9, 0, 0), (1.0, 0, 0), (True, 0, 0),
                  ("1", 0, 0), (2, 1, 1), (-1, 0, 0), (1, 0)]:
        with pytest.raises(ValueError, match="gamma must be"):
            table.eval_derivative(pts, gamma)


def test_save_load_round_trip(table, tmp_path):
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = bs.BoxSplineTable.load(path)
    np.testing.assert_array_equal(loaded.coeffs, table.coeffs)
    np.testing.assert_array_equal(loaded.numerators, table.numerators)
    assert loaded.denominator == table.denominator


def test_load_rejects_corrupted_table(tmp_path):
    packaged = resources.files("boxqi").joinpath(bs.PACKAGED_TABLE)
    with packaged.open("rb") as fh, np.load(fh) as data:
        fields = {k: data[k] for k in data.files}
    fields["numerators"][60, 5, 12] += 1
    path = tmp_path / "corrupt.npz"
    np.savez_compressed(path, **fields)
    with pytest.raises(ValueError, match="corrupt"):
        bs.BoxSplineTable.load(path)


@pytest.mark.parametrize("field, value", [
    ("numerators", 2 ** 40), ("numerators", -2 ** 63),
    ("denominator", 2 ** 31), ("denominator", 0)])
def test_load_rejects_entries_out_of_int64_check_range(tmp_path, field,
                                                       value):
    packaged = resources.files("boxqi").joinpath(bs.PACKAGED_TABLE)
    with packaged.open("rb") as fh, np.load(fh) as data:
        fields = {k: data[k] for k in data.files}
    if field == "numerators":
        fields[field][60, 5, 12] = value
    else:
        fields[field] = np.int64(value)
    path = tmp_path / "oversized.npz"
    np.savez_compressed(path, **fields)
    with pytest.raises(ValueError, match="out of range"):
        bs.BoxSplineTable.load(path)


@pytest.mark.slow
def test_packaged_table_equals_oracle_build(table):
    built = bs.BoxSplineTable.build()
    np.testing.assert_array_equal(built.numerators, table.numerators)
    assert built.denominator == table.denominator
    np.testing.assert_array_equal(built.coeffs, table.coeffs)


def _rationalize_per_value(coeffs):
    """The oracle: each value snapped alone by `Fraction.limit_denominator`,
    then all over the lcm of the denominators."""
    fractions = [Fraction(float(v)).limit_denominator(10 ** 7)
                 for v in coeffs.ravel()]
    den = math.lcm(*(f.denominator for f in fractions))
    return np.array([f.numerator * (den // f.denominator)
                     for f in fractions]).reshape(coeffs.shape), den


def test_rationalize_matches_the_per_value_snap(table, rng):
    """The packaged table's values, perturbed by 1e-13, snap back to its
    numerators over 1536 as each value's own `limit_denominator` does."""
    some = table.coeffs.reshape(-1)[rng.choice(table.coeffs.size, 3000)]
    noisy = some + rng.uniform(-1e-13, 1e-13, size=some.shape)
    num, den, err = bs._rationalize(noisy)
    expected, expected_den = _rationalize_per_value(noisy)
    assert den == expected_den == 1536 and err <= 2e-13
    np.testing.assert_array_equal(num, expected)
    num, den, err = bs._rationalize(np.array([1 / 3, 2 / 3, 1 / 7, 0.5]))
    assert den == 42 and num.tolist() == [14, 28, 6, 21] and err < 1e-16


def test_rationalize_reports_values_without_a_common_denominator():
    """pi and e each snap within 1e-9, but over no denominator < 2**31."""
    num, _, err = bs._rationalize(np.array([0.25, np.pi, np.e]))
    assert num is None and err > bs._SNAP_TOL


def test_exact_partition_of_unity_and_linear_precision(table):
    # exact rational identities over all 125 support cubes; raises on failure
    table.verify_partition_of_unity_exact()
    table.verify_linear_precision_exact()


def test_exact_smoothness(table):
    # full C^2 matching across every interior face, in exact arithmetic
    table.verify_smoothness_exact()


@pytest.mark.parametrize("nu, order", [((4, 0, 0, 0), 0), ((1, 1, 1, 1), 1)])
def test_exact_smoothness_rejects_a_corrupted_numerator(table, nu, order):
    # a vertex coefficient enters only C^0 conditions; the one interior
    # coefficient of a quartic patch enters none, so C^1 must catch it
    numerators = table.numerators.copy()
    numerators[60, 5, bs.MULTI_INDICES_4.index(nu)] += 1
    corrupt = bs.BoxSplineTable(numerators, table.denominator)
    with pytest.raises(AssertionError, match=rf"C\^{order} condition"):
        corrupt.verify_smoothness_exact()


def test_exact_smoothness_rejects_a_c1_perturbation(table):
    """B + D_{e1} B is C^1 but not C^2, so only the C^2 conditions see it.

    D_{e1} B in BB form is 4 sum_m a_m c_{nu + e_m} with a the integer
    barycentric direction of e1; elevated to degree 4 it is
    sum_m nu_m c_{nu - e_m} / 4, so 4 N + that sum, over 4 times the
    denominator, is B + D_{e1} B exactly in integers.
    """
    a = geometry.AXIS_DIRECTIONS[:, 0].astype(np.int64)
    cubic = 4 * sum(a[:, m, None] * table.numerators[..., _RAISE[4][m]]
                    for m in range(4))
    lower = np.array(multi_indices(3))
    elevated = np.zeros_like(table.numerators)
    for m in range(4):
        elevated[..., _RAISE[4][m]] += (lower[:, m] + 1) * cubic
    np.testing.assert_array_equal(elevated.sum(axis=0), 0)
    perturbed = bs.BoxSplineTable(4 * table.numerators + elevated,
                                  4 * table.denominator)
    perturbed.verify_partition_of_unity_exact()
    pts = np.random.default_rng(3).uniform(SUPPORT_LO, SUPPORT_HI, (50, 3))
    np.testing.assert_allclose(
        perturbed.eval(pts),
        table.eval(pts) + table.eval_derivative(pts, (1, 0, 0)), atol=1e-13)
    with pytest.raises(AssertionError, match=r"C\^2 condition"):
        perturbed.verify_smoothness_exact()


def test_face_neighbours_pair_every_face_once():
    offset, tet, apex, slots, mu2 = bs._face_neighbours()
    verts = geometry.TET_VERTICES_UNIT_2X
    across = offset.any(axis=-1)
    assert across.sum() == 24 and (~across).sum() == 72
    # face 0 of t lies on cube face t // 4 in the order -x, +x, -y, ...
    face = np.arange(24) // 4
    expected = np.zeros((24, 3), dtype=np.int64)
    expected[np.arange(24), face // 2] = 2 * (face % 2) - 1
    np.testing.assert_array_equal(offset[:, 0], expected)
    assert not across[:, 1:].any()
    # an involution with negated offset
    assert (tet[tet, apex] == np.arange(24)[:, None]).all()
    assert (apex[tet, apex] == np.arange(4)).all()
    np.testing.assert_array_equal(offset[tet, apex], -offset)
    # the slot map pairs equal vertices, and 2 mu is the far apex in t
    for t in range(24):
        for i in range(4):
            moved = verts[tet[t, i]] + 2 * offset[t, i]
            on_face = np.arange(4) != apex[t, i]
            np.testing.assert_array_equal(verts[t][slots[t, i]][on_face],
                                          moved[on_face])
            assert slots[t, i, apex[t, i]] == i
            assert mu2[t, i].sum() == 2 and mu2[t, i, i] < 0
            np.testing.assert_array_equal(mu2[t, i] @ verts[t],
                                          2 * moved[apex[t, i]])


def test_knot_plane_proof_rejects_an_on_plane_shrink(monkeypatch):
    bs._assert_samples_off_knot_planes()  # the shipped 83/100 passes
    # an unshrunk sample set holds the tetrahedron vertices, lattice points
    monkeypatch.setattr(bs, "SHRINK_NUM", 1)
    monkeypatch.setattr(bs, "SHRINK_DEN", 1)
    with pytest.raises(AssertionError, match="on a knot plane"):
        bs._assert_samples_off_knot_planes()


def _eval_oracle_montecarlo(point, samples=2_000_000, seed=0):
    """Monte-Carlo cross-check of the oracle.

    B(.|X) is the 4-fold shadow of the unit cube along e4..e7:
    B(x) = P(x - t4 e4 - t5 e5 - t6 e6 - t7 e7 in [0,1)^3)
    for t_i independent uniform on [0,1).  Standard error ~ 0.5/sqrt(samples).
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(point, dtype=np.float64)
    t = rng.random((samples, 4))
    y = x - t @ bs.DIRECTIONS[3:].astype(np.float64)
    inside = np.all((y >= 0.0) & (y < 1.0), axis=1)
    return inside.mean()


def test_montecarlo_oracle_agrees_roughly(table):
    point = np.array([0.40741, 0.52063, 2.31417])
    mc = _eval_oracle_montecarlo(point, samples=400000, seed=4)
    assert abs(mc - table.eval(point[None])[0]) < 5e-3


def test_blocked_eval_is_independent_of_blocking(table, rng):
    """Values and derivatives do not depend on where block edges fall."""
    n = 2 * bs._EVAL_BLOCK + 37
    pts = rng.uniform(SUPPORT_LO - 0.5, SUPPORT_HI + 0.5, size=(n, 3))
    pts[::3, 1] = pts[::3, 0]          # diagonal tie planes
    pts[1::5] = np.round(pts[1::5])    # lattice points
    for gamma in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 3)]:
        whole = table.eval_derivative(pts, gamma)
        pieces = np.concatenate([table.eval_derivative(pts[a:a + 1000], gamma)
                                 for a in range(0, n, 1000)])
        np.testing.assert_array_equal(whole, pieces)
    np.testing.assert_array_equal(table.eval(pts),
                                  table.eval_derivative(pts, (0, 0, 0)))


def test_eval_memory_does_not_grow_with_n(table, rng):
    """One call on 10^6 points allocates the result plus a working set
    bounded by the block size."""
    import tracemalloc

    pts = rng.uniform(SUPPORT_LO, SUPPORT_HI, size=(1_000_000, 3))
    tracemalloc.start()
    try:
        out = table.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 16 << 20
