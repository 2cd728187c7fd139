"""Sparsity defect: distance (in the sparsity norm) from a signal to the
L1 ball of radius T in coefficient space.

The defect of a coefficient vector w is min ||w - a||_1 over ||a||_1 <= T.
By the triangle inequality no point of the ball is closer than
||w||_1 - T, and shrinking every entry toward zero until the L1 norm is T
attains that distance, so the defect is max(0, ||w||_1 - T), with complex
entries taken as moduli.  ``brute_force_defect`` is an exhaustive grid
oracle for it, kept for tests.

The coefficients of a signal x are its back-projection through a sensing
operator, w = analyze(adjoint(x)).  With the unitary-dft frame ``analyze``
undoes the inverse FFT inside ``adjoint``, so the composition is diagonal
and w is the mask times x up to round-off; every frame still takes the
same path through the transforms.
"""

from dataclasses import dataclass

import numpy as np

from . import sensing
from .errors import ParameterError, _index, _real
from .frames import _analyze_batch, _stack_signals, as_signal
from .sensing import _adjoint_batch

__all__ = [
    "DefectParams",
    "DefectResult",
    "ExpectedDefect",
    "coefficient_defect",
    "sparsity_defect",
    "brute_force_defect",
    "expected_defect",
]


@dataclass(frozen=True)
class DefectParams:
    solution_bound: float

    def __post_init__(self):
        _real(self.solution_bound, "solution_bound", gt=0)


@dataclass(frozen=True)
class DefectResult:
    """``defect`` is the distance to the ball; ``final_l1`` is the L1 norm
    of the nearest point of the ball, min(||w||_1, T)."""

    defect: float
    final_l1: float


def _excess(l1, bound):
    # Distance from a point of L1 norm l1 to the L1 ball of radius bound.
    return np.maximum(l1 - bound, 0.0)


def _result(l1, bound):
    return DefectResult(defect=float(_excess(l1, bound)), final_l1=min(float(l1), bound))


def _l1_batch(mask, xs, frame):
    # Row i is ||analyze(adjoint(mask[i], xs[i]))||_1, in the batch
    # convention of sensing._adjoint_batch: axis 0 indexes signals, and
    # every row is computed independently of the rows beside it.
    w = _analyze_batch(frame, _adjoint_batch(mask, xs))
    return np.sum(np.abs(w.reshape(len(w), -1)), axis=1)


def coefficient_defect(w, params):
    """Defect of a raw coefficient vector w: min ||w - a||_1, ||a||_1 <= T."""
    w = np.asarray(w, dtype=np.complex128).ravel()
    return _result(np.sum(np.abs(w)), params.solution_bound)


def sparsity_defect(x, op, frame, params):
    """Sparsity defect of the back-projection of ``x`` through ``op``.

    The defect of w = analyze(adjoint(x)) with respect to the L1 ball of
    radius ``params.solution_bound``.
    """
    arr = as_signal(x)
    sensing._check_shape(op, arr.shape)
    l1 = _l1_batch(op.mask[None], arr[None], frame)[0]
    return _result(l1, params.solution_bound)


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


@dataclass(frozen=True)
class ExpectedDefect:
    """Monte-Carlo estimate of the expected worst-case defect."""

    estimate: float
    num_operators: int


def expected_defect(samples, frame, params, num_operators, master_seed, subsample_prob=1.0):
    """Average over seeded operators of the per-operator maximum defect.

    Each operator i is drawn from the stream ``derived_seed(master_seed,
    i)``, and all samples are back-projected through it in one batch.
    """
    _real(_index(num_operators, "num_operators"), "num_operators", ge=1)
    samples = list(samples)
    if not samples:
        raise ParameterError("at least one sample is required")
    xs = _stack_signals(samples)
    per_operator_max = []
    for i in range(num_operators):
        op = sensing.make_partial_fourier(
            xs.shape[1:], subsample_prob, sensing.derived_seed(master_seed, i)
        )
        l1 = _l1_batch(op.mask[None], xs, frame)
        per_operator_max.append(float(np.max(_excess(l1, params.solution_bound))))
    return ExpectedDefect(
        estimate=float(np.mean(per_operator_max)),
        num_operators=num_operators,
    )
