"""Random partial Fourier sensing: a Bernoulli mask over unitary Fourier
coefficients, its adjoint, and seeded, reproducible mask sampling.

The seed rule, owned by :func:`derived_seed`: a seed is a
``numpy.random.SeedSequence``, or a Python or numpy integer >= 0 that is not
a ``bool``; anything else raises :class:`~rwkit.errors.ParameterError`.  The
integer s is the stream ``SeedSequence(s)`` and ``derived_seed(s, i, ...)``
its child ``SeedSequence(s, spawn_key=(i, ...))``; a ``SeedSequence`` is
itself, and its children extend its spawn key.  Every stream in rwkit comes
from :func:`derived_seed`.  The mask drawn under seed s is
``default_rng(derived_seed(s)).random(shape) < q``.
``rwkit eval`` draws sample i at epsilon index e from two streams: the mask
from ``derived_seed(seed, e, i, 0)`` and the probe from ``derived_seed(seed,
e, i, 1)``, the two children of ``derived_seed(seed, e, i).spawn(2)``.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .frames import _fft, _ifft, as_signal

__all__ = [
    "SensingOperator",
    "RwpParameters",
    "make_partial_fourier",
    "apply",
    "adjoint",
    "derived_seed",
]


def _index(value, what):
    # An integer >= 0 that is not a bool, as operator.index reads it.
    try:
        i = operator.index(value)
    except TypeError:
        i = -1
    if i < 0 or isinstance(value, bool):
        raise ParameterError(f"{what} must be an integer >= 0, got {value!r}")
    return i


def derived_seed(master_seed, *indices):
    """The stream ``indices`` under ``master_seed``, by the module's seed rule."""
    key = tuple([_index(i, "seed index") for i in indices])
    if not isinstance(master_seed, np.random.SeedSequence):
        return np.random.SeedSequence(_index(master_seed, "seed"), spawn_key=key)
    seq = master_seed
    if not key:
        return seq
    return np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + key, pool_size=seq.pool_size)


@dataclass(frozen=True)
class SensingOperator:
    """A masked unitary Fourier transform with its adjoint.

    ``mask`` is a 0/1 array over Fourier coefficients; the operator keeps
    masked coefficients and zeroes the rest, so apply(adjoint(y)) restores
    any y supported on the mask exactly.
    """

    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def shape(self):
        return self.mask.shape


@dataclass(frozen=True)
class RwpParameters:
    """Robust-width parameters of a sensing operator.

    ``rwp_prob`` is the probability with which the operator satisfies the
    (rho, alpha) robust-width condition; it is distinct from the Bernoulli
    subsampling probability of the mask.
    """

    rho: float
    alpha: float
    rwp_prob: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not self.rho > 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if not 0.0 <= self.rwp_prob <= 1.0:
            raise ParameterError(f"rwp_prob must lie in [0, 1], got {self.rwp_prob}")


def make_partial_fourier(shape, q, seed):
    """Sample a Bernoulli(q) mask over the given signal shape.

    ``shape`` may be an int (1D) or a tuple of axis lengths, each an
    integer >= 1 under the seed rule's integer check: 12.5, "8" or ``True``
    raise :class:`~rwkit.errors.ParameterError`, and 0 a ``ShapeError``.
    The mask is a deterministic function of (shape, q, seed).
    """
    dims = (shape,) if np.ndim(shape) == 0 else shape
    shape = tuple([_index(ax_len, "axis length") for ax_len in dims])
    for ax_len in shape:
        if not ax_len >= 1:
            raise ShapeError(f"axis length must be >= 1, got {ax_len}")
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"subsampling probability must lie in [0, 1], got {q}")
    return SensingOperator(mask=_masks([derived_seed(seed)], shape, q)[0])


def _masks(seqs, shape, q):
    # The mask rule: row k is Bernoulli(q) over ``shape``, thresholding the
    # uniforms of a generator seeded with seqs[k].  Unchecked: callers pass a
    # valid shape tuple and q.
    uniforms = np.empty((len(seqs),) + shape)
    for k, seq in enumerate(seqs):
        np.random.default_rng(seq).random(out=uniforms[k])
    return (uniforms < q).astype(np.float64)


def _check_shape(op, shape):
    # The one check that an operator fits a signal of the given shape.
    if shape != op.shape:
        raise ShapeError(f"operator shape {op.shape} does not match signal shape {shape}")


def _apply_batch(mask, x):
    # apply() over a batch: row i of x is sensed through mask[i].
    return mask * _fft(x)


def _adjoint_batch(mask, y):
    # adjoint() over a batch, with the same one-mask-per-row convention.
    return _ifft(mask * y)


def apply(op, x):
    """Masked unitary Fourier coefficients of x; off-mask entries are 0."""
    arr = as_signal(x)
    _check_shape(op, arr.shape)
    return _apply_batch(op.mask[None], arr[None])[0]


def adjoint(op, y):
    """Adjoint of :func:`apply`: inverse unitary FFT of the masked input."""
    arr = as_signal(y)
    _check_shape(op, arr.shape)
    return _adjoint_batch(op.mask[None], arr[None])[0]
