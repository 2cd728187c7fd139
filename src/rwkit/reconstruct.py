"""Iterative soft-thresholding reconstruction and the purification pipeline.

The purifier senses the input through a freshly sampled partial Fourier
operator and reconstructs it by running proximal gradient steps on the frame
coefficients, at most ``iterations`` of them: a row whose step change has
fallen to round-off stops early (see ``_STOP_TOL``).

There is one reconstruction loop.  It runs over a batch whose axis 0
indexes independent signals, each with its own mask; ``purify``,
``ista_reconstruct`` and ``defend`` are batches of one.  It allocates its
five batch-shaped buffers once per solve and its steps work in place on
them, the FFTs included, so a step allocates nothing beyond what a wavelet
frame's transforms make.  The step-by-step ``ista_loop`` in the tests is
its bit-for-bit oracle.  Every mask is 0/1 (``SensingOperator`` checks
it), so the measurements are masked once, before the loop: M(y - M r) is
M y - M r, and each step makes one mask product instead of two.

The solve holds its own error state, numpy's divide, invalid and overflow
warnings off: the shrink clamps a quotient that is -inf or NaN by design
(see ``frames._shrink``).  No step can overflow: the solve is homogeneous,
and each row whose parts reach 2^_LOUD is solved at a power-of-two scale
2^-k (see ``_scaled``), at its threshold times 2^-k, and rescaled at the
end, the one place outside the solve that can overflow: a value that does
raises :class:`NumericError`.  A step resolves nothing: the frame's
transforms and the FFT pair, pocketfft's kernels with their factors bound,
are looked up once per solve.

With the unitary-dft frame the operator the loop inverts, the sensing
operator composed with synthesis, is the 0/1 mask itself: diagonal and
idempotent.  The first step lands on the soft-thresholded masked
measurements and every later step maps that iterate to itself, so this
frame skips the loop and returns that first iterate directly.

``defend`` with a :class:`LinearClassifier` asks the solve for a label, not
a value, and the solve stops a row as soon as that label is proven (see
``_LABEL_PATH``): the remaining steps cannot carry the iterate across the
decision boundary.  The rule, like the round-off stop, reads only the row,
and ``defend`` enters the solve through ``_purify_block`` as ``purify`` does.
"""

import numpy as np

from . import sensing
from ._record import _Record
from .classifier import LinearClassifier
from .errors import NumericError, ShapeError, _index, _real
from .frames import (
    Frame,
    _fft_pair,
    _shrink,
    _solve_errstate,
    _stack_signals,
    _step_transforms,
    as_signal,
)

__all__ = [
    "ReconstructionParams",
    "PurifiedSignal",
    "ista_reconstruct",
    "purify",
    "purify_many",
    "defend",
]


class ReconstructionParams(_Record):
    iterations: int
    threshold: float
    subsample_prob: float
    frame: Frame

    def __post_init__(self):
        _real(_index(self.iterations, "iterations"), "iterations", ge=1)
        _real(self.iterations, "iterations", le=_QUIET_CAP)
        _real(self.threshold, "threshold", ge=0)
        _real(self.subsample_prob, "subsample_prob", ge=0, le=1)


# The stop rule: every _STOP_EVERY steps, a row stops once its last step
# moved it by at most _STOP_TOL * ||M y||.  A converged row still moves by
# about 1e-16 ||M y|| per step from round-off (1.2e-15 at most, over 64
# eval-sized rows of each loop frame after 4000 steps), so 1e-14 stops rows
# that move by round-off only.  The step map is nonexpansive (||A|| <= 1,
# unit step), so a row stopped at step t is within (cap - t) * _STOP_TOL *
# ||M y|| of its capped output: 5e-12 relative at 500 steps, inside the 1e-8
# of the benchmark's reference pools.  A check costs 20 us against 120-490
# us for a step on 64 rows of n = 128 (2-vCPU Xeon); every 10th step keeps
# it near 1 % of the loop, and a row runs at most 9 steps past its stop.
_STOP_TOL = 1e-14
_STOP_EVERY = 10

# Why no step of a solve can overflow.  The mask M is 0/1
# (``SensingOperator`` checks it; ``sensing._masks`` draws it so), and with
# an orthonormal frame W, A = M F W^H gives A^H A = P, an orthogonal
# projection, and A^H(M y) lies in P's range, so a step's
# z_t = (I - P) u_{t-1} + A^H(M y) is a sum of orthogonal parts:
# ||z_t||^2 <= ||u_{t-1}||^2 + ||M y||^2.  The shrink never raises a modulus,
# so ||z_t||^2 <= t ||M y||^2 on every row.  A row of N entries then keeps
# every entry below sqrt(t) ||M y||, and every partial sum of an FFT
# (pocketfft scales after summing, and Bluestein's convolution sums fewer
# than 4 N terms) or of a frame transform below 4 N sqrt(N t) ||M y||.
# When N * cap * ||M y||^2 < _QUIET_BOUND that is under 4e140 N, far inside
# the float range for any N an array can hold.  The margin also covers
# round-off and the frames' orthonormality error: the db4 taps hold only to
# about 9e-13, but even a growth of 1 + 1e-11 per step would compound to
# under e^0.01 over _QUIET_CAP steps (the transforms' measured norms are
# within 1e-15 of 1).  Every row that reaches a solve has parts below
# 2^_LOUD (``_scaled`` scales it so), so a row x of N entries has
# ||M y||^2 <= ||x||^2 < 2 N 4^_LOUD, and N cap ||M y||^2 < 2 N^2 cap
# 4^_LOUD: under 2.7e278 for N < 2^47 and cap <= _QUIET_CAP, the most that
# ``ReconstructionParams`` allows.
_QUIET_BOUND = 1e280
_QUIET_CAP = 10**9
_LOUD = 400

# The label stop, which only ``defend`` asks for.  Its classifier labels a
# purified value v by sign<w, Re v>, and v = W^H u for the final
# coefficients u, with W real and orthonormal for the loop frames, so the
# label is sign<w^, Re u> with w^ = W w = analyze(w), taken once per solve
# (from the classifier's scaled weights, which give the same sign).  The
# step map is nonexpansive: ||A|| <= 1, and the complex shrink is firmly
# nonexpansive.  So the step lengths d_t = ||u_t - u_{t-1}|| never grow, and
# the iterate the full solve returns, at the cap or at its round-off stop,
# lies within (cap - t) d_t of u_t: the path bound.  Call that iterate
# u_cap; then |<w^, Re u_cap> - <w^, Re u_t>| <= ||w^|| (cap - t) d_t, and
# at a stop check t < cap a row stops once
#     |<w^, Re u_t>| > _LABEL_PATH ||w^|| (cap - t) d_t + slack,
#     slack = ||w^|| ||M y|| (cap^2 _STOP_TOL + (N + 64) sqrt(cap) _LABEL_GAP),
# for a row of N entries.  In exact arithmetic the path bound needs a
# factor of 1; _LABEL_PATH, 1 + 2^-8, covers two things.
# - The db4 taps' orthonormality error, about 9e-13: synthesis is the exact
#   transpose of analysis under the stored taps, so ||A|| <= 1 + 1e-12
#   still leaves I - A^H A nonexpansive.  Were it not, each step could be
#   1 + 1e-12 times longer than the one before it, and the remaining path
#   would grow by under e^0.001 - 1 < 2^-9 over _QUIET_CAP steps.
# - The rounding of d_t (the square root of a sum of 2N squares), of ||w^||
#   (of N squares) and of the three products that make the reach: together
#   they err relatively by at most 1.5 N eps + 3 eps, under 2^-10 for a row
#   of fewer than 2^42 entries, inside the other 2^-9.
# The slack covers the rest.
# - Round-off of the steps: a computed step errs by at most _STOP_TOL
#   ||M y|| / 2 (a converged row moves by at most 1.2e-15 ||M y|| per step,
#   see _STOP_TOL), so each computed step can be _STOP_TOL ||M y|| longer
#   than the one before it, and the remaining path gains at most
#   (cap - t)^2 _STOP_TOL ||M y||.
# - The gap between the computed <w^, Re u_t> and ``predict``'s scaled sum
#   over the synthesized value: the two dot products, w^ and the synthesis
#   together err by at most 4 (N + 64) eps ||w^|| ||u|| (a sum of N terms
#   errs by N eps, a transform by levels times taps, at most 8 log2 N <=
#   N + 64, units of eps), with ||u|| <= sqrt(cap) ||M y|| (see
#   _QUIET_BOUND).  _LABEL_GAP, 64 eps, is 16 times that.
# Each bound used here holds per row, so the rule is decided per row: a row
# takes it when its own ||M y||^2 > _LABEL_FLOOR (no sum it takes can lose
# digits to underflow), else its slack is inf; ``defend`` passes no weights
# that are not of the signal's shape.  At the ``radius``
# workload (cap 100, N 128) the slack is ~1e-10 ||w^|| ||M y||.
_LABEL_PATH = 1 + 2**-8
_LABEL_GAP = 2.0**-46
_LABEL_FLOOR = 1e-200


class PurifiedSignal(_Record):
    """Purifier output plus diagnostics.

    ``iterations_run`` is the number of steps the row ran: at most
    ``iterations``, fewer if it stopped at round-off; unitary-dft, solved in
    closed form, reports ``iterations``.
    ``imag_residual`` records the largest imaginary component discarded
    when a real input is reported back as a real signal; it is 0.0 for
    complex inputs, whose values are passed through unchanged.
    """

    value: np.ndarray
    iterations_run: int
    final_coefficient_l1: float
    imag_residual: float = 0.0


@_solve_errstate
def _ista_coefficients(y, mask, params, label=None, k=None):
    """Run the thresholded gradient iteration; returns ``(u, steps)``.

    Axis 0 of ``y`` and ``mask`` indexes independent rows.  Every step is
    row-local, so a row's result does not depend on the rows beside it.
    ``u`` holds each row's final coefficients and ``steps`` its step count.
    The threshold lam is ``params.threshold``, or with ``k``, the column of
    exponents of :func:`_scaled`, each row's threshold at its scale 2^-k.

    Step t maps u to S_lam(u + analyze(adjoint(y - apply(synthesize(u))))).
    The frame's transforms are resolved once and ``y`` is masked once:
    since M is 0/1 (drawn so, or checked by ``SensingOperator``), M(y - M r)
    equals M y - M r, so a step needs the mask only on the forward product.
    In floating point the two can differ only in the sign of a zero entry.

    ``params.iterations`` is a cap.  After each ``_STOP_EVERY``-th step
    t < cap, a row with ``||u_t - u_{t-1}||**2 <= _STOP_TOL**2 * ||M y||**2``
    stops with result u_t and count t.  Both sums are ufunc reductions over
    the row's float64 view, never BLAS, so the rule reads only the row.  A
    row that never stops gives the bits of the fixed-count loop, and a
    stopped row is within ``(cap - t) * _STOP_TOL * ||M y||`` of them, up to
    the round-off of the skipped steps.  Stopped rows leave ``u``, ``y``,
    ``mask``, ``lam`` and the scratch buffers; the loop ends when no row is
    left.

    ``label``, which only ``defend`` passes, is a real weight vector w of
    the signal's shape.  With it, a stop check also stops each row whose
    label sign<w, Re synthesize(u)> is proven final (see ``_LABEL_PATH``),
    with result u_t and count t: its label is the full solve's, its value
    need not be.  Each row is in the rule's range or not by its own sums
    alone, and a row outside it runs as above bit for bit.

    The loop allocates its buffers once per solve: the complex iterate
    ``u``, the next iterate ``z`` and the residual ``r``, and the real
    modulus ``mag`` and shrink factor ``f``.  The FFTs write into ``r`` and
    ``z``, every other step works in place, and ``u`` and ``z`` swap roles
    after each step; the stop check writes the step change into ``z``.
    The solve holds its own error state, ``_solve_errstate``, with numpy's
    divide, invalid and overflow warnings off: the shrink's quotient is
    -inf or NaN by design where it clamps to 0.  Every part of ``y`` lies
    below 2^_LOUD (``_scaled`` sees to it), so no step can overflow (see
    ``_QUIET_BOUND``).  The step-by-step ``ista_loop`` in the tests, which
    masks twice and runs each row alone, is its bit-for-bit oracle.

    For the unitary-dft frame the result is S_lam(mask * y) in closed form:
    it is the iterate at every step t >= 1, so it is the iterate after
    ``params.iterations`` steps, which ``steps`` reports for every row.
    ``y`` is masked first, as the adjoint inside the loop would mask it.
    """
    cap = params.iterations
    lam = float(params.threshold) if k is None else np.ldexp(float(params.threshold), -k)
    if params.frame.kind == "unitary-dft":
        z = mask * y
        mag = np.abs(z)
        return _shrink(z, mag, lam, np.empty_like(mag)), np.full(len(y), cap)
    analyze, synthesize = _step_transforms(params.frame, y.shape[1:])
    fft, ifft = _fft_pair(y.shape[1:])
    # The complex mask every product would cast to, cast once.
    mask = mask.astype(np.complex128)
    y = mask * y
    sumsq = _row_sumsq(y.copy())
    limit = np.square(_STOP_TOL) * sumsq
    if label is not None:
        n = y[0].size
        label = analyze(label.astype(np.complex128)[None]).real.ravel()
        norm = np.sqrt(np.add.reduce(np.square(label)))
        slack = norm * np.sqrt(sumsq) * (cap * cap * _STOP_TOL + (n + 64) * np.sqrt(cap) * _LABEL_GAP)
        slack[~(sumsq > _LABEL_FLOOR)] = np.inf
    result = np.empty_like(y)
    steps = np.full(len(y), cap)
    rows = np.arange(len(y))  # each running row's index in result
    u = np.zeros(y.shape, dtype=np.complex128)
    z, r = np.empty_like(u), np.empty_like(u)
    mag, f = np.empty(y.shape), np.empty(y.shape)
    for t in range(1, cap + 1):
        fft(synthesize(u), r)
        r *= mask
        np.subtract(y, r, out=r)
        z = analyze(ifft(r, z))
        z += u
        _shrink(z, np.abs(z, out=mag), lam, f)
        u, z = z, u
        if t % _STOP_EVERY or t == cap:
            continue
        moved = _row_sumsq(np.subtract(u, z, out=z))
        done = moved <= limit
        if label is not None:
            reach = _LABEL_PATH * (cap - t) * np.sqrt(moved) * norm + slack
            done |= np.abs(np.add.reduce(u.real.reshape(len(u), -1) * label, axis=1)) > reach
        if not done.any():
            continue
        result[rows[done]] = u[done]
        steps[rows[done]] = t
        running = ~done
        if not running.any():
            return result, steps
        rows, limit = rows[running], limit[running]
        if label is not None:
            slack = slack[running]
        lam = lam[running] if isinstance(lam, np.ndarray) else lam
        u, y, mask = u[running], y[running], mask[running]
        left = len(u)
        z, r, mag, f = z[:left], r[:left], mag[:left], f[:left]
    result[rows] = u
    return result, steps


def _row_sumsq(z):
    # The sum of squares of each row of the complex batch z, as one add
    # reduction over the row's float64 view; z is overwritten.
    d = z.view(np.float64).reshape(len(z), -1)
    return np.add.reduce(np.square(d, out=d), axis=1)


def _scaled(xs):
    # The rows and column of exponents k a solve of the real or complex
    # batch xs takes: a row with a part of at least 2^_LOUD is scaled by
    # 2^-k into [2^(_LOUD - 1), 2^_LOUD), in a new array, and every other
    # row keeps k = 0 and its bits.  With no such row, xs and k = None come
    # back.
    parts = np.ascontiguousarray(xs).view(np.float64).reshape(len(xs), -1)
    loud = 2.0**_LOUD
    if -loud < np.minimum.reduce(parts, axis=None) and np.maximum.reduce(parts, axis=None) < loud:
        return xs, None
    k = np.maximum(np.frexp(np.maximum.reduce(np.abs(parts), axis=1))[1] - _LOUD, 0)
    xs = np.ldexp(parts, -k[:, None]).view(xs.dtype).reshape(xs.shape)
    return xs, k.reshape((-1,) + (1,) * (xs.ndim - 1))


def ista_reconstruct(y, op, params):
    """Reconstruct a signal from masked Fourier measurements.

    Runs soft-thresholded gradient steps from a zero initialization, at
    most ``params.iterations`` of them (see :func:`_ista_coefficients` for
    the stop rule), and returns the synthesized signal.  ``op``'s mask is
    0/1, checked when the operator was built, so the solve tests no mask.
    """
    arr = as_signal(y)
    sensing._check_shape(op, arr.shape)
    y, k = _scaled(arr[None])
    u, _ = _ista_coefficients(y, op.mask[None], params, None, k)
    return _synthesized(params.frame, u, k)[0]


def _purify_block(xs, mask, params, label=None):
    """Purified values and final coefficients of a stacked batch.

    Row i of the real or complex array ``xs`` is sensed through ``mask[i]``
    and reconstructed, at the scale of :func:`_scaled`, whose exponents
    also set the solve's threshold; the rows are not validated.  Returns
    ``(values, u, steps)``: the complex values and final coefficients, with
    the batch on axis 0, and the number of steps each row ran.  For the
    identity frame ``values`` is ``u`` itself; callers read both and write
    to neither.  ``label`` is the solve's (see :func:`_ista_coefficients`);
    with it, a row solved at a scale keeps that scale in ``values`` and
    ``u``, which changes no label.
    """
    xs, k = _scaled(xs)
    u, steps = _ista_coefficients(sensing._apply_batch(mask, xs), mask, params, label, k)
    return _synthesized(params.frame, u, None if label is not None else k), u, steps


def _synthesized(frame, u, k):
    # The values of final coefficients u solved at the scales 2^-k of
    # _scaled, with u and the values rescaled on their float64 views (a
    # complex product turns a -0 part to +0): only there can one overflow.
    values = _step_transforms(frame, u.shape[1:])[1](u)
    if k is not None:
        with np.errstate(over="ignore"):
            for z in (u,) if values is u else (u, values):
                np.ldexp(z.view(np.float64), k, out=z.view(np.float64))
        if not np.isfinite(values).all():
            raise NumericError("non-finite synthesized value")
    return values


@_solve_errstate
def purify_many(xs, params, seeds):
    """Purify a batch of same-shape signals in one reconstruction loop.

    Row i is sensed through the mask drawn from ``seeds[i]`` under the seed
    rule of :mod:`rwkit.sensing`; rows that share a seed share a mask.
    Returns one :class:`PurifiedSignal` per row, bit-identical to
    ``purify(xs[i], params, seeds[i])``.  A coefficient L1 norm past the
    float maximum raises :class:`NumericError`.
    """
    if len(xs) != len(seeds):
        raise ShapeError(f"{len(xs)} signals but {len(seeds)} seeds")
    if len(xs) == 0:
        return []
    batch = _stack_signals(xs)
    mask = sensing._seed_masks(seeds, batch.shape[1:], params.subsample_prob)
    values, u, steps = _purify_block(batch, mask, params)
    out = []
    for x, value, coeffs, run in zip(xs, values, u, steps.tolist()):
        imag_residual = 0.0
        if np.isrealobj(x):
            imag_residual = float(np.max(np.abs(value.imag)))
            value = value.real
        l1 = float(np.sum(np.abs(coeffs)))
        if l1 == np.inf:
            raise NumericError("non-finite coefficient L1 norm")
        out.append(
            PurifiedSignal(
                value=value,
                iterations_run=run,
                final_coefficient_l1=l1,
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
    """Label ``x`` through the purification pipeline:
    ``classifier(purify(x, params, seed).value)``.

    With a :class:`LinearClassifier` whose weights w have the signal's
    shape, the solve, a batch of one entered through :func:`_purify_block`,
    stops as soon as the label of its iterate is proven final (see
    :func:`_ista_coefficients`), and ``defend`` labels that iterate at the
    scale it was solved at (see :func:`_scaled`), not rescaled: a power of
    two leaves sign<w, Re v> as it is.  The label, and every error raised,
    are the full solve's; where ``purify``'s value or coefficient L1 norm
    overflows, ``defend`` still labels.  Any other classifier labels the
    full solve's value.
    """
    batch = _stack_signals([x])
    mask = sensing._seed_masks([seed], batch.shape[1:], params.subsample_prob)
    label = None
    if type(classifier) is LinearClassifier and classifier._u.shape == batch.shape[1:]:
        label = classifier._u
    value = _purify_block(batch, mask, params, label)[0][0]
    return classifier(value.real if np.isrealobj(x) else value)
