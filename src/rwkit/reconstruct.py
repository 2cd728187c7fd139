"""Iterative soft-thresholding reconstruction and the purification pipeline.

The purifier senses the input through a freshly sampled partial Fourier
operator and reconstructs it by running a fixed number of proximal gradient
steps on the frame coefficients.  There is deliberately no early stopping:
the iteration count is part of the reproducibility contract.

There is one reconstruction loop.  It runs over a batch whose axis 0
indexes independent signals, each with its own mask; ``purify``,
``ista_reconstruct`` and ``defend`` are batches of one.  It allocates its
five batch-shaped buffers once per solve and its steps work in place on
them, the FFTs included, so a step allocates nothing beyond what a wavelet
frame's transforms make.  The step-by-step ``ista_loop`` in the tests is
its bit-for-bit oracle.  The measurements are masked once, before the
loop: the mask M is 0/1, so the back-projected residual M(y - M r) is
M y - M r, and each step makes one mask product instead of two.

A solve runs with numpy's divide, invalid and overflow warnings off: the
shrink clamps a quotient that is -inf or NaN by design (see
``frames._shrink``).  A non-finite iterate is still caught, by the check
each step makes on the modulus, and raises :class:`NumericError`.

With the unitary-dft frame the operator the loop inverts, the sensing
operator composed with synthesis, is the 0/1 mask itself: diagonal and
idempotent.  The first step lands on the soft-thresholded masked
measurements and every later step maps that iterate to itself, so this
frame skips the loop and returns that first iterate directly.
"""

from dataclasses import dataclass

import numpy as np

from . import sensing
from .errors import NumericError, ShapeError, _index, _real
from .frames import (
    Frame,
    _fft,
    _ifft,
    _shrink,
    _solve_errstate,
    _stack_signals,
    _step_transforms,
    as_signal,
)
from .sensing import _apply_batch

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
        _real(_index(self.iterations, "iterations"), "iterations", ge=1)
        _real(self.threshold, "threshold", ge=0)
        _real(self.subsample_prob, "subsample_prob", ge=0, le=1)


@dataclass(frozen=True)
class PurifiedSignal:
    """Purifier output plus diagnostics.

    ``imag_residual`` records the largest imaginary component discarded
    when a real input is reported back as a real signal; it is 0.0 for
    complex inputs, whose values are passed through unchanged.
    """

    value: np.ndarray
    iterations_run: int
    final_coefficient_l1: float
    imag_residual: float = 0.0


@_solve_errstate
def _ista_coefficients(y, mask, params):
    """Run the thresholded gradient iteration; returns final coefficients.

    Axis 0 of ``y`` and ``mask`` indexes independent rows.  Every step is
    row-local, so a row's result does not depend on the rows beside it.

    Step t maps u to S_lam(u + analyze(adjoint(y - apply(synthesize(u))))).
    The frame's transforms are resolved once and ``y`` is masked once:
    since M is 0/1, the residual the adjoint masks, M(y - M r), equals
    M y - M r, so a step needs the mask only on the forward product.  In
    floating point the two can differ only in the sign of a zero entry.

    The loop allocates its buffers once per solve: the complex iterate
    ``u``, the next iterate ``z`` and the residual ``r``, and the real
    modulus ``mag`` and shrink factor ``f``.  The FFTs write into ``r`` and
    ``z``, every other step works in place, and ``u`` and ``z`` swap roles
    after each step.  One modulus of the new iterate serves the finiteness
    check and the shrink.  The whole solve runs under ``_solve_errstate``
    (numpy's divide, invalid and overflow warnings off): the shrink's
    quotient is -inf or NaN by design where it clamps to 0, and a
    non-finite iterate still raises :class:`NumericError`.  The
    step-by-step ``ista_loop`` in the tests, which masks twice, is its
    bit-for-bit oracle.

    For the unitary-dft frame the result is S_lam(mask * y) in closed form:
    it is the iterate at every step t >= 1, so it is the iterate after
    ``params.iterations`` steps, which ``iterations_run`` reports.  ``y`` is
    masked first, as the adjoint inside the loop would mask it.
    """
    lam = float(params.threshold)
    if params.frame.kind == "unitary-dft":
        z = mask * y
        mag = _finite_modulus(z, 1)
        return _shrink(z, mag, lam, np.empty_like(mag))
    analyze, synthesize = _step_transforms(params.frame, y.shape[1:])
    # The complex mask every product would cast to, cast once.
    mask = mask.astype(np.complex128)
    y = mask * y
    u = np.zeros(y.shape, dtype=np.complex128)
    z, r = np.empty_like(u), np.empty_like(u)
    mag, f = np.empty(y.shape), np.empty(y.shape)
    for t in range(1, params.iterations + 1):
        _fft(synthesize(u), out=r)
        r *= mask
        np.subtract(y, r, out=r)
        z = analyze(_ifft(r, out=z))
        z += u
        _shrink(z, _finite_modulus(z, t, out=mag), lam, f)
        u, z = z, u
    return u


def _finite_modulus(z, t, out=None):
    # |z|, into out if given, after checking that the iterate of step t is
    # finite.
    mag = np.abs(z, out=out)
    if not np.maximum.reduce(mag, axis=None) < np.inf:
        raise NumericError(f"non-finite iterate at iteration {t}")
    return mag


def ista_reconstruct(y, op, params):
    """Reconstruct a signal from masked Fourier measurements.

    Runs exactly ``params.iterations`` soft-thresholded gradient steps from
    a zero initialization and returns the synthesized signal.
    """
    arr = as_signal(y)
    sensing._check_shape(op, arr.shape)
    u = _ista_coefficients(arr[None], op.mask[None], params)
    return _step_transforms(params.frame, arr.shape)[1](u)[0]


def _purify_block(xs, mask, params):
    """Purified values and final coefficients of a stacked batch.

    Row i of the complex array ``xs`` is sensed through ``mask[i]`` and
    reconstructed; the rows are not validated.  Returns ``(values, u)``,
    both complex, with the batch on axis 0.  For the identity frame
    ``values`` is ``u`` itself; callers read both and write to neither.
    """
    u = _ista_coefficients(_apply_batch(mask, xs), mask, params)
    return _step_transforms(params.frame, xs.shape[1:])[1](u), u


def purify_many(xs, params, seeds):
    """Purify a batch of same-shape signals in one reconstruction loop.

    Row i is sensed through the mask drawn from ``seeds[i]`` under the seed
    rule of :mod:`rwkit.sensing`; rows that share a seed share a mask.
    Returns one :class:`PurifiedSignal` per row, bit-identical to
    ``purify(xs[i], params, seeds[i])``.
    """
    if len(xs) != len(seeds):
        raise ShapeError(f"{len(xs)} signals but {len(seeds)} seeds")
    if len(xs) == 0:
        return []
    batch = _stack_signals(xs)
    states = [sensing._state(seed) for seed in seeds]
    mask = sensing._masks(states, batch.shape[1:], params.subsample_prob)
    values, u = _purify_block(batch, mask, params)
    out = []
    for x, value, coeffs in zip(xs, values, u):
        imag_residual = 0.0
        if np.isrealobj(x):
            imag_residual = float(np.max(np.abs(value.imag)))
            value = value.real
        out.append(
            PurifiedSignal(
                value=value,
                iterations_run=params.iterations,
                final_coefficient_l1=float(np.sum(np.abs(coeffs))),
                imag_residual=imag_residual,
            )
        )
    return out


def purify(x, params, seed):
    """Sense ``x`` through a fresh operator and reconstruct it.

    Deterministic given (x, params, seed); ``seed`` follows the seed rule of
    :mod:`rwkit.sensing`.  Real inputs are reported back as real signals;
    the discarded imaginary part is recorded in ``imag_residual``.
    """
    return purify_many([x], params, [seed])[0]


def defend(classifier, x, params, seed):
    """Label ``x`` through the purification pipeline."""
    return classifier(purify(x, params, seed).value)
