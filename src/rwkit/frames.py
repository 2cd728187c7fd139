"""Sparsifying frames: analysis/synthesis operators, the sparsity norm and
the soft-thresholding primitive.

Supported frame kinds:

* ``identity`` -- coefficients are the signal itself.
* ``haar-dwt`` / ``db4-dwt`` -- periodized orthonormal discrete wavelet
  transforms (Haar, and the eight-tap Daubechies filter with four vanishing
  moments).  1D signals run the periodized filter step once per level.  A
  2D level is separable and orthogonal on the top-left block,
  ``blk <- D_h blk D_w^T``, so it runs as two dense real matmuls with the
  level matrix ``D_m`` of each axis length, built once from the filter step
  and cached.
* ``unitary-dft`` -- the unitary DFT (1/sqrt(n) normalization both ways);
  the 2D transform is the tensor product of 1D transforms.

Every FFT here, the frame's and the sensing operator's, calls pocketfft's
gufuncs (``numpy.fft._pocketfft_umath``) directly, with the ``1/sqrt(n)``
factor that ``norm="ortho"`` passes them, and runs a 2D transform as two 1D
passes, the last axis and then the row axis.  ``_fft_pair(shape)`` binds
the kernels to their factors once per signal shape; ``_fft``/``_ifft`` and
the purifier's loop all call through it.  These are the calls
``numpy.fft.fft`` and ``fft2`` make, so the results match them bit for bit,
without their argument handling.  At the purifier's sizes that handling
costs more than the transform: on one row of 128 entries ``numpy.fft.fft``
took a median 12.0 us against the gufunc's 5.3 us (2-vCPU Xeon, numpy 2.4),
and each purifier step runs two FFTs.

All transforms are square and invertible, so coefficient arrays have the
same shape as the signal they came from.

A frame kind becomes transforms in one place, ``_step_transforms``: the
batch (analyze, synthesize) pair for one signal shape.  analyze may
overwrite its argument, synthesize never does, and the identity's pair
return their argument.  The public functions run the pair on a copy.
"""

import functools

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from ._record import _Record
from .errors import ParameterError, ShapeError, _array, _index, _real, _signal_shape

__all__ = ["FRAME_KINDS", "Frame", "as_signal", "analyze", "synthesize", "sparsity_norm", "soft_threshold"]

FRAME_KINDS = ("identity", "haar-dwt", "db4-dwt", "unitary-dft")

_SQRT2 = np.sqrt(2.0)

# Orthonormal lowpass filters (periodic extension keeps these orthogonal on
# any even length); the db4 taps only to about 9e-13.
_HAAR_LOWPASS = np.array([1.0, 1.0]) / _SQRT2
_DB4_LOWPASS = np.array(
    [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)

_LOWPASS = {"haar-dwt": _HAAR_LOWPASS, "db4-dwt": _DB4_LOWPASS}


def _highpass(h):
    # Quadrature mirror: g[k] = (-1)^k h[L-1-k]
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def _filter_bank(h):
    # (lowpass, highpass, polyphase synthesis matrix).  Column r of the
    # matrix holds the taps that reach output 2p+r: h[r::2] then g[r::2].
    g = _highpass(h)
    synth = np.stack([np.concatenate([h[r::2], g[r::2]]) for r in (0, 1)], axis=1)
    return h, g, synth


_BANKS = {kind: _filter_bank(h) for kind, h in _LOWPASS.items()}


def _ortho(n):
    # The norm="ortho" factor of an n-point pass, as np.fft computes it.
    return np.reciprocal(np.sqrt(n, dtype=np.float64))


@functools.lru_cache(maxsize=None)
def _fft_pair(shape):
    # The unitary FFT and its inverse over a batch of signals of ``shape``
    # (axis 0 indexes signals): pocketfft's kernels with their ortho factors
    # bound.  A call f(x, out) runs the last axis from x into out, a complex
    # array of x's shape that does not overlap x, then, for a 2D signal, the
    # row axis in place on out, and returns out; x is never written.
    last = _ortho(shape[-1])

    def bind(kernel):
        if len(shape) == 1:
            return lambda x, out: kernel(x, last, out=out)
        rows = _ortho(shape[0])

        def two_passes(x, out):
            kernel(x, last, out=out)
            return kernel(out, rows, axes=[(1,), (), (1,)], out=out)

        return two_passes

    return bind(_pocketfft.fft), bind(_pocketfft.ifft)


def _fft(x):
    # Unitary FFT of a batch over its trailing signal axes, into a new array
    # laid out like x, as np.fft lays it out.
    return _fft_pair(x.shape[1:])[0](x, np.empty_like(x, dtype=np.complex128))


def _ifft(x):
    # Inverse of _fft.
    return _fft_pair(x.shape[1:])[1](x, np.empty_like(x, dtype=np.complex128))


def as_signal(x):
    """Validate and promote a signal to a complex array.

    Accepts a non-empty 1D or 2D array of finite numbers, else raises
    :class:`ShapeError`.  Any axis length is a signal; whether a frame can
    transform it is the frame's check (a wavelet with L levels needs every
    axis divisible by 2**L).
    """
    arr = _array(x, "signal", dtype=np.complex128, finite=True)
    _signal_shape(arr.shape, "signal")
    return arr


def _stack_signals(xs):
    # Validate a non-empty sequence of signals of one shape and stack them
    # on a new axis 0, the batch axis of the batch transforms.
    return _array([as_signal(x) for x in xs], "signal batch")


class Frame(_Record):
    """An invertible sparsifying transform.

    ``levels`` is the wavelet decomposition depth; it is ignored for the
    identity and DFT kinds.  ``levels=0`` on a wavelet kind degenerates to
    the identity.
    """

    kind: str
    levels: int = 0

    def __post_init__(self):
        if self.kind not in FRAME_KINDS:
            raise ParameterError(
                f"unknown frame kind {self.kind!r}; expected one of {FRAME_KINDS}"
            )
        _index(self.levels, "levels")


def _check_levels(frame, shape):
    if frame.kind not in _LOWPASS or frame.levels == 0:
        return
    for ax_len in shape:
        # 2**min(levels, bit length) divides ax_len exactly when 2**levels
        # does, and a huge levels never builds a huge integer.
        if ax_len % (1 << min(frame.levels, int(ax_len).bit_length())) != 0:
            raise ShapeError(
                f"axis length {ax_len} does not support {frame.levels} "
                "dyadic decomposition levels"
            )


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=None)
def _window_index(n, taps):
    # Row i of the periodized analysis windows reads x[2i .. 2i+taps-1] (mod n).
    return _read_only((2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n)


@functools.lru_cache(maxsize=None)
def _polyphase_index(n, taps):
    # Row p reads a[p-j] for j < taps/2, then d[p-j], from c = [a | d] (mod n/2).
    half = n // 2
    lag = (np.arange(half)[:, None] - np.arange(taps // 2)[None, :]) % half
    return _read_only(np.concatenate([lag, lag + half], axis=1))


def _dwt_step(x, bank):
    # One periodized analysis step along the last axis (length must be even).
    # take() keeps the windows C-contiguous at any batch size, so every row
    # goes through the same matmul kernel and batching cannot move its bits.
    h, g, _ = bank
    windows = x.take(_window_index(x.shape[-1], h.size), axis=-1)
    return windows @ h, windows @ g


def _idwt_step(c, bank):
    # Adjoint (= inverse, by orthonormality) of _dwt_step along the last
    # axis of c = [a | d]: output 2p+r sums h[2j+r] a[p-j] + g[2j+r] d[p-j].
    h, _, synth = bank
    windows = c.take(_polyphase_index(c.shape[-1], h.size), axis=-1)
    return (windows @ synth).reshape(c.shape)


# The four transforms below take (c, kind, levels), work in place on the
# batch c they are given and return it.
def _dwt_1d(c, kind, levels):
    m = c.shape[-1]
    for _ in range(levels):
        a, d = _dwt_step(c[..., :m], _BANKS[kind])
        c[..., : m // 2] = a
        c[..., m // 2 : m] = d
        m //= 2
    return c


def _idwt_1d(c, kind, levels):
    m = c.shape[-1] >> levels
    for _ in range(levels):
        c[..., : 2 * m] = _idwt_step(c[..., : 2 * m], _BANKS[kind])
        m *= 2
    return c


# A 2D level costs O(m^3) as two dense matmuls, against O(m^2 taps) as
# filter steps, but the matmuls drop the per-level gathers and transposes.
# Interleaved on an idle 2-vCPU Xeon, one complex m x m image, 3 levels,
# analysis and synthesis against the filter steps: db4 is 1.4-3.0x faster
# from m=32 to 128, 1.03-1.06x at 256, 0.84-0.93x at 512, 0.69-0.82x at 1024;
# haar is 1.1-2.5x faster at 32 and 64 and 0.67-1.09x from 128 to 512.
# A cached matrix holds m^2 floats, 8 MB at m=1024.
@functools.lru_cache(maxsize=None)
def _level_matrix(kind, m):
    # The orthogonal m x m matrix of one periodized analysis step, [a | d] =
    # D x, derived from _dwt_step on the unit impulses so the filter taps
    # stay its single source.
    a, d = _dwt_step(np.eye(m), _BANKS[kind])
    return _read_only(np.concatenate([a, d], axis=-1).T.copy())


def _dwt_2d(c, kind, levels):
    # Each level maps the top-left block to D_h blk D_w^T, one real matmul
    # pair per part; every batch row goes through the same matmul kernel.
    mh, mw = c.shape[-2:]
    for _ in range(levels):
        dh, dw = _level_matrix(kind, mh), _level_matrix(kind, mw)
        blk = c[..., :mh, :mw]
        blk.real, blk.imag = dh @ blk.real @ dw.T, dh @ blk.imag @ dw.T
        mh //= 2
        mw //= 2
    return c


def _idwt_2d(c, kind, levels):
    # Inverse of _dwt_2d: D is orthogonal, so each level maps the block to
    # D_h^T blk D_w, coarsest level first.
    mh = c.shape[-2] >> levels
    mw = c.shape[-1] >> levels
    for _ in range(levels):
        mh *= 2
        mw *= 2
        dh, dw = _level_matrix(kind, mh), _level_matrix(kind, mw)
        blk = c[..., :mh, :mw]
        blk.real, blk.imag = dh.T @ blk.real @ dw, dh.T @ blk.imag @ dw
    return c


def _same(x):
    return x


def _step_transforms(frame, shape):
    # The one place a frame kind becomes transforms: the batch (analyze,
    # synthesize) for signals of ``shape``, checked here once; axis 0 indexes
    # signals and every step is row-local.  analyze may overwrite its
    # argument, synthesize never does; the identity's pair return it.
    _check_levels(frame, shape)
    kind, levels = frame.kind, frame.levels
    if kind == "identity":
        return _same, _same
    if kind == "unitary-dft":
        return _fft, _ifft
    dwt, idwt = (_dwt_1d, _idwt_1d) if len(shape) == 1 else (_dwt_2d, _idwt_2d)
    return (lambda x: dwt(x, kind, levels)), (lambda c: idwt(c.copy(), kind, levels))


def analyze(frame, x):
    """Map a signal to its frame coefficients (same shape as the input)."""
    # as_signal may return the caller's own complex128 array, and the pair
    # may overwrite it or return it, so both functions hand the pair a copy.
    arr = as_signal(x)
    return _step_transforms(frame, arr.shape)[0](arr[None].copy())[0]


def synthesize(frame, coeffs):
    """Invert :func:`analyze`: exact to round-off, except that db4-dwt errs
    by about 1e-11 on unit-scale entries, the accuracy of its taps."""
    arr = as_signal(coeffs)
    return _step_transforms(frame, arr.shape)[1](arr[None].copy())[0]


def sparsity_norm(frame, x):
    """L1 norm of the analysis coefficients (complex moduli summed)."""
    return float(np.sum(np.abs(analyze(frame, x))))


# The error state of a solve: the shrink's quotient divides by zero, takes
# 0/0 and can overflow by design (see _shrink), and a solve that must stop
# on a non-finite iterate checks for one itself.  Used only as a decorator,
# which keeps the saved state per call.
_solve_errstate = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _shrink(u, mag, lam, f):
    # soft_threshold's arithmetic, u * (max(mag - lam, 0) / where(mag == 0,
    # 1, mag)), in place and under _solve_errstate: u (complex128) becomes
    # the result, mag = |u| is finite and only read, f is a real scratch
    # array of u's shape apart from mag, and lam is a float >= 0.  Returns u.
    # f is (mag - lam) / mag, then fmax(f, 0).  Where mag - lam > 0 that is
    # the formula's division.  Elsewhere the quotient is < 0, +0 (mag = lam),
    # -inf (mag = 0 < lam) or NaN (mag = lam = 0), never -0, and fmax maps
    # each to +0, the formula's 0 / 1 or max(., 0): no masked divide and no
    # boolean temporary.
    np.subtract(mag, lam, out=f)
    np.divide(f, mag, out=f)
    np.fmax(f, 0.0, out=f)
    u *= f
    return u


@_solve_errstate
def soft_threshold(u, lam):
    """Componentwise complex soft-thresholding.

    Entries with modulus below ``lam`` are zeroed; the rest are shrunk
    toward zero by ``lam`` while keeping their phase.  ``u`` is not changed.
    An entry with an infinite or NaN part comes out NaN.  A finite entry
    whose modulus overflows (above about 1.8e308) is shrunk through its
    halved modulus, ``(|u|/2 - lam/2) / (|u|/2)``, the same factor.
    """
    _real(lam, "threshold", ge=0)
    u = _array(u, "coefficients", dtype=np.complex128, copy=True)
    mag = np.abs(u)
    lam = float(lam)
    over = np.isinf(mag) & np.isfinite(u)
    big = u[over]
    half = np.abs(big * 0.5)
    _shrink(u, mag, lam, np.empty_like(mag))
    u[over] = _shrink(big, half, lam * 0.5, np.empty_like(half))
    return u
