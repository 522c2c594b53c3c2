"""Benchmark error measurement: evaluation grids, error tables, observed
orders. Frozen values are regression anchors on reduced evaluation grids."""

import math
import tracemalloc

import numpy as np
import pytest

from boxqi import convergence, geometry, qi, volume


def _whole_grid(grid, n):
    """All n^3 points of the evaluation grid in one array."""
    return qi.grid_points(grid, n, np.arange(n ** 3))


def test_evaluation_grid_inclusive():
    g = geometry.DomainGrid(16, 16, 16, 1 / 16)
    pts = _whole_grid(g, 11)
    assert pts.shape == (11 ** 3, 3)
    assert pts.min() == 0.0
    np.testing.assert_allclose(pts.max(), 1.0)
    # first axis varies slowest, unique coordinates evenly spaced
    np.testing.assert_allclose(np.unique(pts[:, 0]), np.linspace(0, 1, 11))
    assert convergence.DEFAULT_EVAL_POINTS == 139


@pytest.mark.parametrize("n", [0, -3])
def test_evaluation_grid_rejects_empty_grid(n):
    g = geometry.DomainGrid(16, 16, 16, 1 / 16)
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_chunks(g, n)
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_values(qi.approximate(np.zeros((18, 18, 18)), g), n)


def test_table_row_regression():
    rows = convergence.convergence_table("f3", [16, 32], eval_points=61)
    assert [r.m for r in rows] == [16, 32]
    assert rows[0].fn == "f3"
    np.testing.assert_allclose(rows[0].h, 1 / 16)
    assert rows[0].rf is None  # no coarser run to compare against
    np.testing.assert_allclose(rows[0].error, 6.200451650453777e-3,
                               rtol=1e-10)
    np.testing.assert_allclose(rows[1].error, 8.26170574162316e-4,
                               rtol=1e-10)
    np.testing.assert_allclose(rows[1].rf, 2.90786172591490, rtol=1e-9)
    # rf is the base-2 log of the consecutive error ratio
    np.testing.assert_allclose(rows[1].rf,
                               math.log2(rows[0].error / rows[1].error),
                               rtol=1e-12)


def test_table_sorts_m_and_skips_gap_ratios():
    rows = convergence.convergence_table("f3", [32, 16], eval_points=21)
    assert [r.m for r in rows] == [16, 32]
    gap = convergence.convergence_table("f3", [16, 48], eval_points=21)
    assert gap[1].rf is None  # 48 is not 2 x 16


def test_gradient_error_regression():
    err = convergence.gradient_error("f3", 16, eval_points=41)
    np.testing.assert_allclose(err, 0.25206658157417833, rtol=1e-8)


def test_gradient_error_is_max_component():
    """The reported number bounds the per-component gradient deviation at
    every probe point (recompute a coarse probe directly)."""
    m = 16
    samples, grid, fn = volume.sample_test_function("f3", m)
    spline = qi.approximate(samples, grid)
    pts = _whole_grid(grid, 11)
    grad = spline.gradient(pts)
    step = 1e-5
    fd = np.empty_like(grad)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = step
        # central differences of the analytic field, which extends past
        # the domain boundary
        fd[:, axis] = (fn.on_omega(pts + e) - fn.on_omega(pts - e)) \
            / (2 * step)
    coarse = np.abs(grad - fd).max()
    full = convergence.gradient_error("f3", m, eval_points=11)
    np.testing.assert_allclose(full, coarse, rtol=1e-6)


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        convergence.convergence_table("f7", [16])


def test_evaluation_chunks_are_whole_blocks_of_the_grid():
    g = geometry.DomainGrid(11, 12, 13, 1 / 16)
    n = 43  # 79507 points: one full chunk and a partial one
    chunks = list(qi.grid_chunks(g, n))
    assert len(chunks) == 2
    assert all(len(c) % qi._EVAL_BLOCK == 0 for c in chunks[:-1])
    axes = [np.linspace(0.0, m * g.h, n) for m in g.m]
    whole = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    np.testing.assert_array_equal(np.concatenate(chunks),
                                  whole.reshape(-1, 3))


def test_grid_summary_equals_the_whole_grid_reduction():
    samples, grid, fn = volume.sample_test_function("f3", 16)
    spline = qi.approximate(samples, grid)
    pts = _whole_grid(grid, 43)
    values = spline.eval(pts)
    count, low, high, error = convergence.grid_summary(spline, 43, fn)
    assert (count, low, high) == (len(pts), values.min(), values.max())
    assert error == np.abs(values - fn.on_omega(pts)).max()
    assert convergence.grid_summary(spline, 43)[3] is None


def test_gradient_error_streams_its_points():
    """Memory of `gradient_error` does not grow with the n^3 points, and
    the streamed maximum is the one over the whole grid."""
    convergence.gradient_error("f2", 16, eval_points=3)  # cached tables
    tracemalloc.start()
    try:
        error = convergence.gradient_error("f2", 16, eval_points=101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(error, 0.823415653704552, rtol=1e-12)
    assert peak < 16 << 20
