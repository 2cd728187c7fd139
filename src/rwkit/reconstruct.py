"""Iterative soft-thresholding reconstruction and the purification pipeline.

The purifier senses the input through a freshly sampled partial Fourier
operator and reconstructs it by running a fixed number of proximal gradient
steps on the frame coefficients.  There is deliberately no early stopping:
the iteration count is part of the reproducibility contract.

There is one reconstruction loop.  It runs over a batch whose axis 0
indexes independent signals, each with its own mask; ``purify``,
``ista_reconstruct`` and ``defend`` are batches of one.

With the unitary-dft frame the operator the loop inverts, the sensing
operator composed with synthesis, is the 0/1 mask itself: diagonal and
idempotent.  The first step lands on the soft-thresholded masked
measurements and every later step maps that iterate to itself, so this
frame skips the loop and returns that first iterate directly.
"""

from dataclasses import dataclass

import numpy as np

from . import sensing
from .errors import NumericError, ParameterError, ShapeError
from .frames import Frame, _analyze_batch, _stack_signals, _synthesize_batch, as_signal, soft_threshold
from .sensing import _adjoint_batch, _apply_batch

__all__ = [
    "ReconstructionParams",
    "PurifiedSignal",
    "ista_reconstruct",
    "purify",
    "purify_many",
    "defend",
]


@dataclass(frozen=True)
class ReconstructionParams:
    iterations: int
    threshold: float
    subsample_prob: float
    frame: Frame

    def __post_init__(self):
        if not self.iterations >= 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if not self.threshold >= 0:
            raise ParameterError(f"threshold must be >= 0, got {self.threshold}")
        if not 0.0 <= self.subsample_prob <= 1.0:
            raise ParameterError(
                f"subsample_prob must lie in [0, 1], got {self.subsample_prob}"
            )


@dataclass(frozen=True)
class PurifiedSignal:
    """Purifier output plus diagnostics.

    ``imag_residual`` records the largest imaginary component discarded
    when a real input is reported back as a real signal; it is 0.0 for
    complex inputs, whose values are passed through unchanged.
    """

    value: np.ndarray
    operator_seed: int
    iterations_run: int
    final_coefficient_l1: float
    imag_residual: float = 0.0


def _ista_coefficients(y, mask, params):
    """Run the thresholded gradient iteration; returns final coefficients.

    Axis 0 of ``y`` and ``mask`` indexes independent rows.  Every step is
    row-local, so a row's result does not depend on the rows beside it.

    For the unitary-dft frame the result is S_lam(mask * y) in closed form:
    it is the iterate at every step t >= 1, so it is the iterate after
    ``params.iterations`` steps, which ``iterations_run`` reports.  ``y`` is
    masked first, as the adjoint inside the loop would mask it.
    """
    frame = params.frame
    lam = params.threshold
    if frame.kind == "unitary-dft":
        z = mask * y
        if not np.all(np.isfinite(z)):
            raise NumericError("non-finite iterate at iteration 1")
        return soft_threshold(z, lam)
    u = np.zeros(y.shape, dtype=np.complex128)
    for t in range(1, params.iterations + 1):
        residual = y - _apply_batch(mask, _synthesize_batch(frame, u))
        z = u + _analyze_batch(frame, _adjoint_batch(mask, residual))
        if not np.all(np.isfinite(z)):
            raise NumericError(f"non-finite iterate at iteration {t}")
        u = soft_threshold(z, lam)
    return u


def ista_reconstruct(y, op, params):
    """Reconstruct a signal from masked Fourier measurements.

    Runs exactly ``params.iterations`` soft-thresholded gradient steps from
    a zero initialization and returns the synthesized signal.
    """
    arr = as_signal(y)
    sensing._check_shape(op, arr.shape)
    u = _ista_coefficients(arr[None], op.mask[None], params)
    return _synthesize_batch(params.frame, u)[0]


def _operator(seed, shape, params):
    if not isinstance(seed, sensing.SensingOperator):
        return sensing.make_partial_fourier(shape, params.subsample_prob, seed)
    sensing._check_shape(seed, shape)
    if seed.subsample_prob != params.subsample_prob:
        raise ParameterError(
            f"operator was drawn with q={seed.subsample_prob}, "
            f"params ask for q={params.subsample_prob}"
        )
    return seed


def _purify_block(xs, mask, params):
    """Purified values and final coefficients of a stacked batch.

    Row i of the complex array ``xs`` is sensed through ``mask[i]`` and
    reconstructed; the rows are not validated.  Returns ``(values, u)``,
    both complex, with the batch on axis 0.
    """
    u = _ista_coefficients(_apply_batch(mask, xs), mask, params)
    return _synthesize_batch(params.frame, u), u


def purify_many(xs, params, seeds):
    """Purify a batch of same-shape signals in one reconstruction loop.

    Row i is sensed through the operator drawn from ``seeds[i]``; an entry
    may also be a :class:`~rwkit.sensing.SensingOperator` already drawn, so
    that rows can share one draw.  Returns one :class:`PurifiedSignal` per
    row, bit-identical to ``purify(xs[i], params, seeds[i])``.
    """
    if len(xs) != len(seeds):
        raise ShapeError(f"{len(xs)} signals but {len(seeds)} seeds")
    if len(xs) == 0:
        return []
    batch = _stack_signals(xs)
    ops = [_operator(seed, batch.shape[1:], params) for seed in seeds]
    values, u = _purify_block(batch, np.stack([op.mask for op in ops]), params)
    out = []
    for x, op, value, coeffs in zip(xs, ops, values, u):
        imag_residual = 0.0
        if np.isrealobj(x):
            imag_residual = float(np.max(np.abs(value.imag)))
            value = value.real
        out.append(
            PurifiedSignal(
                value=value,
                operator_seed=op.seed,
                iterations_run=params.iterations,
                final_coefficient_l1=float(np.sum(np.abs(coeffs))),
                imag_residual=imag_residual,
            )
        )
    return out


def purify(x, params, seed):
    """Sense ``x`` through a fresh operator and reconstruct it.

    Deterministic given (x, params, seed).  Real inputs are reported back
    as real signals; the discarded imaginary part is recorded in
    ``imag_residual``.
    """
    return purify_many([x], params, [seed])[0]


def defend(classifier, x, params, seed):
    """Label ``x`` through the purification pipeline."""
    return classifier(purify(x, params, seed).value)
