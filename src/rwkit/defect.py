"""Sparsity defect: distance (in the sparsity norm) from a signal to the
L1 ball of radius T in coefficient space.

The defect of a coefficient vector w is min ||w - a||_1 over ||a||_1 <= T.
By the triangle inequality no point of the ball is closer than
||w||_1 - T, and shrinking every entry toward zero until the L1 norm is T
attains that distance, so the defect is max(0, ||w||_1 - T), with complex
entries taken as moduli.

The coefficients of a signal x are its back-projection through a sensing
operator, w = analyze(adjoint(x)).  With the unitary-dft frame ``analyze``
undoes the inverse FFT inside ``adjoint``, so the composition is diagonal:
w is the mask times x, and ||w||_1 is the sum of |x_k| over the kept bins
k, computed so without an FFT.  The other frames run the transforms.
"""

import numpy as np

from . import sensing
from ._record import _Record
from .errors import NumericError, ParameterError, _array, _index, _real
from .frames import _solve_errstate, _stack_signals, _step_transforms, as_signal
from .sensing import _adjoint_batch

__all__ = [
    "DefectParams",
    "DefectResult",
    "ExpectedDefect",
    "coefficient_defect",
    "sparsity_defect",
    "expected_defect",
]


class DefectParams(_Record):
    solution_bound: float

    def __post_init__(self):
        _real(self.solution_bound, "solution_bound", gt=0)


class DefectResult(_Record):
    """``defect`` is the distance to the ball; ``final_l1`` is the L1 norm
    of the nearest point of the ball, min(||w||_1, T)."""

    defect: float
    final_l1: float


def _excess(l1, bound):
    # Distance from a point of L1 norm l1 to the L1 ball of radius bound.
    return np.maximum(l1 - bound, 0.0)


def _result(l1, bound):
    return DefectResult(defect=float(_excess(l1, bound)), final_l1=min(float(l1), bound))


@_solve_errstate
def _l1_batch(mask, xs, frame):
    # Row i is ||analyze(adjoint(mask[i], xs[i]))||_1, in the batch
    # convention of sensing._adjoint_batch (axis 0 indexes signals, rows are
    # independent).  In unitary-dft, analyze undoes adjoint's inverse FFT,
    # so the row is sum(mask[i] * |xs[i]|), taken without the FFT pair and
    # its round-off.  Elsewhere analyze may overwrite the fresh adjoint.
    if frame.kind == "unitary-dft":
        w = mask * np.abs(xs)
    else:
        w = np.abs(_step_transforms(frame, xs.shape[1:])[0](_adjoint_batch(mask, xs)))
    l1 = np.sum(w.reshape(len(xs), -1), axis=1)
    if not np.maximum.reduce(l1) < np.inf:
        raise NumericError("non-finite coefficient L1 norm")
    return l1


def coefficient_defect(w, params):
    """Defect of a raw coefficient vector w: min ||w - a||_1, ||a||_1 <= T.

    A w that is ragged or not numbers, or a non-finite entry of w, raises
    :class:`ShapeError`.
    """
    w = _array(w, "coefficient vector", dtype=np.complex128, finite=True).ravel()
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


class ExpectedDefect(_Record):
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
