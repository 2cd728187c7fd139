"""Exhaustive oracles that tests compare rwkit's closed forms against."""

import numpy as np

from rwkit.errors import ParameterError, _real


def brute_force_defect(x, solution_bound, grid_step):
    """Exhaustive oracle: minimum L1 distance to the L1 ball over a grid.

    Refused for dimension > 3 (combinatorial blowup); intended as a test
    oracle only.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size > 3:
        raise ParameterError(f"brute force oracle limited to dim <= 3, got {x.size}")
    _real(grid_step, "grid_step", gt=0)
    T = float(_real(solution_bound, "solution_bound", ge=0))
    # Tiny slack so grid points on the ball boundary survive float rounding.
    slack = 1e-9 * max(1.0, T)
    axis = np.arange(-T, T + grid_step / 2, grid_step)
    if x.size == 1:
        candidates = axis[np.abs(axis) <= T + slack]
        return float(np.min(np.abs(x[0] - candidates)))
    if x.size == 2:
        a0, a1 = np.meshgrid(axis, axis, indexing="ij")
        feasible = np.abs(a0) + np.abs(a1) <= T + slack
        dist = np.abs(x[0] - a0) + np.abs(x[1] - a1)
        return float(np.min(dist[feasible]))
    best = np.inf
    for a0 in axis:
        rem = T - abs(a0) + slack
        if rem < 0:
            continue
        a1, a2 = np.meshgrid(axis, axis, indexing="ij")
        feasible = np.abs(a1) + np.abs(a2) <= rem
        if not feasible.any():
            continue
        dist = abs(x[0] - a0) + np.abs(x[1] - a1) + np.abs(x[2] - a2)
        best = min(best, float(np.min(dist[feasible])))
    return best
