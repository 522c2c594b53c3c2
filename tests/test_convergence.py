"""Benchmark error measurement: evaluation grids, error tables, observed
orders. Frozen values are regression anchors on reduced evaluation grids."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

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
    spline = qi.approximate(np.zeros((18, 18, 18)), g)
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_values(spline, n)
    with pytest.raises(ValueError, match="n >= 1"):
        convergence.grid_summary(spline, n)


@pytest.mark.parametrize("n", [True, 2.0, 5.5, np.float64(9.0), "9"])
def test_evaluation_grid_rejects_a_non_integer_size(n):
    """A bool or non-integral n fails with the one ValueError, not a
    TypeError deep inside, through every grid entry point."""
    g = geometry.DomainGrid(16, 16, 16, 1 / 16)
    spline = qi.approximate(np.zeros((18, 18, 18)), g)
    with pytest.raises(ValueError, match="n >= 1"):
        qi.grid_values(spline, n)
    with pytest.raises(ValueError, match="n >= 1"):
        convergence.grid_summary(spline, n)
    with pytest.raises(ValueError, match="n >= 1"):
        convergence.gradient_error("f3", 16, eval_points=n)
    with pytest.raises(ValueError, match="n >= 1"):
        convergence.convergence_table("f3", [16], eval_points=n)


@pytest.mark.parametrize("m", [16.9, True, "32", 32.0, None])
def test_convergence_table_rejects_a_non_integer_m(m, monkeypatch):
    """A bool or non-integral m fails with one ValueError before any
    sampling: 16.9 is not truncated to 16, True is not m = 1, and "32" does
    not reach the sort beside an int."""
    monkeypatch.setattr(volume, "sample_test_function", None)
    with pytest.raises(ValueError, match="m >= 1"):
        convergence.convergence_table("f3", [m, 16], eval_points=5)


@pytest.mark.parametrize("n", [1, 2])
def test_smallest_evaluation_grids(n):
    """n = 1 is the one point 0 (n - 1 = 0), n = 2 the eight corners."""
    samples, grid, fn = volume.sample_test_function("f3", 16)
    spline = qi.approximate(samples, grid)
    pts = _whole_grid(grid, n)
    values = spline.eval(pts)
    count, low, high, error = convergence.grid_summary(spline, n, fn)
    assert count == n ** 3
    assert low == pytest.approx(values.min(), rel=0, abs=1e-15)
    assert high == pytest.approx(values.max(), rel=0, abs=1e-15)
    assert error == pytest.approx(np.abs(values - fn.on_omega(pts)).max(),
                                  rel=0, abs=1e-15)
    assert convergence.gradient_error("f3", 16, eval_points=n) > 0.0


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


def test_grid_summary_equals_the_whole_grid_reduction():
    """The streamed reduction is the one over the whole grid: the spline's
    values from `grid_values` at the exact lattice, the function's at
    `grid_points`; those values stay within 1e-14 of max of point `eval`."""
    samples, grid, fn = volume.sample_test_function("f3", 16)
    spline = qi.approximate(samples, grid)
    pts = _whole_grid(grid, 43)
    values = qi.grid_values(spline, 43).reshape(-1)
    count, low, high, error = convergence.grid_summary(spline, 43, fn)
    assert (count, low, high) == (len(pts), values.min(), values.max())
    assert error == np.abs(values - fn.on_omega(pts)).max()
    assert convergence.grid_summary(spline, 43)[3] is None
    direct = spline.eval(pts)
    assert np.abs(values - direct).max() <= 1e-14 * np.abs(direct).max()


def test_grid_measures_never_evaluate_points(monkeypatch):
    """`grid_summary` and `gradient_error` read the grid route alone."""
    samples, grid, fn = volume.sample_test_function("f3", 16)
    spline = qi.approximate(samples, grid)
    expected = convergence.grid_summary(spline, 21, fn)
    monkeypatch.setattr(qi.QISpline, "eval", None)
    monkeypatch.setattr(qi.QISpline, "gradient", None)
    assert convergence.grid_summary(spline, 21, fn) == expected
    assert convergence.gradient_error("f3", 16, eval_points=21) > 0.0


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


def test_convergence_study_demo_runs(capsys, monkeypatch):
    """The demo's short run prints one row per field and m, through the
    grid route alone."""
    path = Path(__file__).parents[1] / "demos" / "convergence_study.py"
    spec = importlib.util.spec_from_file_location("convergence_study", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(qi.QISpline, "eval", None)
    demo.main(["--m", "12", "24", "--eval-points", "9"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[0] in ("f1", "f2", "f3")]
    assert [(r[0], int(r[1])) for r in rows] == [
        (fn, m) for fn in ("f1", "f2", "f3") for m in (12, 24)]
    expected = convergence.convergence_table("f2", [12, 24], eval_points=9)
    assert [float(r[3]) for r in rows[2:4]] == [
        float(f"{row.error:.3e}") for row in expected]
