"""Maximum-error and convergence-order measurement harness.

For each benchmark function and grid size m the harness samples the
function, builds the quasi-interpolant, evaluates both on a uniform
N x N x N point grid over Omega (endpoints included, N = 139 by default)
and records E = max |f - Qf|.  Consecutive rows at doubled m carry the
observed order rf = log2(E(m) / E(2m)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

from . import qi, volume

__all__ = ["ConvergenceRow", "evaluation_grid", "convergence_table",
           "gradient_error"]

DEFAULT_EVAL_POINTS = 139


@dataclass(frozen=True)
class ConvergenceRow:
    fn: str
    m: int
    h: float
    error: float
    rf: float | None   # None on the coarsest row


def evaluation_grid(grid, n: int = DEFAULT_EVAL_POINTS) -> np.ndarray:
    """The n^3 uniform evaluation points over Omega, endpoints included."""
    if n < 1:
        raise ValueError(f"evaluation grid needs n >= 1 points per axis, "
                         f"got {n}")
    axes = [np.linspace(0.0, m * grid.h, n) for m in grid.m]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def convergence_table(fn_id: str, m_values, eval_points: int | None = None
                      ) -> list[ConvergenceRow]:
    """Error rows for one benchmark over increasing m (sorted ascending)."""
    n = DEFAULT_EVAL_POINTS if eval_points is None else int(eval_points)
    rows = []
    previous = {}
    for m in sorted(int(m) for m in m_values):
        samples, grid, fn = volume.sample_test_function(fn_id, m)
        spline = qi.approximate(samples, grid)
        points = evaluation_grid(grid, n)
        error = float(np.abs(spline.eval(points)
                             - fn.on_omega(points)).max())
        rf = (log2(previous[m // 2] / error)
              if m % 2 == 0 and m // 2 in previous else None)
        rows.append(ConvergenceRow(fn_id, m, grid.h, error, rf))
        previous[m] = error
    return rows


def gradient_error(fn_id: str, m: int, eval_points: int | None = None
                   ) -> float:
    """max over the evaluation grid of max-component gradient error."""
    n = DEFAULT_EVAL_POINTS if eval_points is None else int(eval_points)
    samples, grid, fn = volume.sample_test_function(fn_id, m)
    spline = qi.approximate(samples, grid)
    points = evaluation_grid(grid, n)
    gradient = spline.gradient(points)
    step = 1e-5
    reference = np.stack(
        [(fn.on_omega(points + step * np.eye(3)[a])
          - fn.on_omega(points - step * np.eye(3)[a])) / (2.0 * step)
         for a in range(3)], axis=-1)
    return float(np.abs(gradient - reference).max())
