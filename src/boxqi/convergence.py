"""Maximum-error and convergence-order measurement harness.

For each benchmark function and grid size m the harness samples the
function, builds the quasi-interpolant, evaluates both on a uniform grid
over Omega of N_a points along each axis a, endpoints included (one N or
three; N = 139 by default), and records E = max |f - Qf|.  Consecutive rows
at doubled m carry the observed order rf = log2(E(m) / E(2m)).  The spline
is read by `QISpline.grid_blocks` at the exact lattice j m_a h / (N_a - 1),
the reference function at the points of `qi.grid_points` (an ulp off it at
most), and each block is reduced as it comes, so memory does not grow with
N.  The spline values differ from point ``eval`` at those points by at most
1.53e-15 of max |Qf|, the gradients by 7.10e-15 (f2, m = 32 and 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, prod
from numbers import Integral

import numpy as np

from . import qi, volume

__all__ = ["ConvergenceRow", "grid_summary", "convergence_table",
           "gradient_error"]

DEFAULT_EVAL_POINTS = 139


@dataclass(frozen=True)
class ConvergenceRow:
    fn: str
    m: int
    h: float
    error: float
    rf: float | None   # None on the coarsest row


def grid_summary(spline, n=DEFAULT_EVAL_POINTS, fn=None
                 ) -> tuple[int, float, float, float | None]:
    """(points, min, max, max |fn - spline| or None) of the spline over the
    evaluation grid of ``n`` points per axis, one count or three, reduced
    block by block of `QISpline.grid_blocks`; ``fn`` is read at the points
    of `qi.grid_points`."""
    lows, highs, errors = [], [], []
    for j, k, block in spline.grid_blocks(n):
        values = block.reshape(-1)
        lows.append(values.min())
        highs.append(values.max())
        if fn is not None:
            errors.append(np.abs(values - fn.on_omega(
                _block_points(spline.grid, n, j, k, block))).max())
    return (prod(qi._grid_size(n)), float(np.min(lows)), float(np.max(highs)),
            float(np.max(errors)) if fn is not None else None)


def convergence_table(fn_id: str, m_values, eval_points=None
                      ) -> list[ConvergenceRow]:
    """Error rows for one benchmark over increasing m (sorted ascending)."""
    n = DEFAULT_EVAL_POINTS if eval_points is None else eval_points
    rows = []
    previous = {}
    for m in sorted(map(_cube_count, m_values)):
        samples, grid, fn = volume.sample_test_function(fn_id, m)
        error = grid_summary(qi.approximate(samples, grid), n, fn)[3]
        rf = (log2(previous[m // 2] / error)
              if m % 2 == 0 and m // 2 in previous else None)
        rows.append(ConvergenceRow(fn_id, m, grid.h, error, rf))
        previous[m] = error
    return rows


def _cube_count(m) -> int:
    """``m`` if it is a usable number of cubes per axis: an integer (not
    bool) of at least 1, the rule `qi._grid_size` applies to n; anything
    else raises one ``ValueError``, so 16.9 is not truncated to 16."""
    if isinstance(m, bool) or not isinstance(m, Integral) or m < 1:
        raise ValueError(f"convergence table needs integers m >= 1 cubes "
                         f"per axis, got {m!r}")
    return int(m)


def gradient_error(fn_id: str, m: int, eval_points=None) -> float:
    """max over the evaluation grid of max-component gradient error,
    reduced as in `grid_summary`; the reference is a central difference of
    ``fn`` at the points of `qi.grid_points`."""
    n = DEFAULT_EVAL_POINTS if eval_points is None else eval_points
    samples, grid, fn = volume.sample_test_function(fn_id, m)
    spline = qi.approximate(samples, grid)
    step = 1e-5
    errors = []
    for j, k, block in spline.grid_blocks(n, ((1, 0, 0), (0, 1, 0),
                                              (0, 0, 1))):
        points = _block_points(grid, n, j, k, block)
        reference = np.stack(
            [(fn.on_omega(points + step * np.eye(3)[a])
              - fn.on_omega(points - step * np.eye(3)[a])) / (2.0 * step)
             for a in range(3)], axis=-1)
        errors.append(np.abs(block.reshape(-1, 3) - reference).max())
    return float(np.max(errors))


def _block_points(grid, n, j: int, k: int, block) -> np.ndarray:
    """The points, in C order, of a `QISpline.grid_blocks` block: planes
    j .. j + a - 1 and rows k .. k + b - 1 of the evaluation grid."""
    a, b, n3 = block.shape[:3]
    ids = np.ravel_multi_index(np.ix_(range(j, j + a), range(k, k + b),
                                      range(n3)), qi._grid_size(n))
    return qi.grid_points(grid, n, ids.reshape(-1))
