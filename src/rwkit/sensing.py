"""Random partial Fourier sensing: a Bernoulli mask over unitary Fourier
coefficients, its adjoint, and seeded, reproducible mask sampling.

Seed derivation rule: an operator drawn as the ``index``-th member of an
ensemble under ``master_seed`` uses ``numpy.random.SeedSequence(master_seed,
spawn_key=(index,))``, so ensembles are reproducible and order-independent.
``rwkit eval`` draws sample i at epsilon index e from two streams: the mask
from ``derived_seed(seed, e, i, 0)`` and the probe from ``derived_seed(seed,
e, i, 1)``.  A spawned child depends only on its entropy and spawn key, so
these are the two children of ``derived_seed(seed, e, i).spawn(2)``.
"""

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


def derived_seed(master_seed, *indices):
    """Deterministic per-stream seed sequence for ensembles and batches."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(i) for i in indices))


@dataclass(frozen=True)
class SensingOperator:
    """A masked unitary Fourier transform with its adjoint.

    ``mask`` is a 0/1 array over Fourier coefficients; the operator keeps
    masked coefficients and zeroes the rest, so apply(adjoint(y)) restores
    any y supported on the mask exactly.
    """

    mask: np.ndarray = field(repr=False)
    seed: int
    subsample_prob: float

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def shape(self):
        return self.mask.shape

    @property
    def n(self):
        return self.mask.size


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
        if not self.rho > 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.rwp_prob <= 1.0:
            raise ParameterError(f"rwp_prob must lie in [0, 1], got {self.rwp_prob}")


def make_partial_fourier(shape, q, seed):
    """Sample a Bernoulli(q) mask over the given signal shape.

    ``shape`` may be an int (1D) or a tuple of axis lengths, each >= 1.
    The mask is a deterministic function of (shape, q, seed).
    """
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    for ax_len in shape:
        if not ax_len >= 1:
            raise ShapeError(f"axis length must be >= 1, got {ax_len}")
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"subsampling probability must lie in [0, 1], got {q}")
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
        seed_repr = int(seq.entropy) if isinstance(seq.entropy, int) else -1
    else:
        seed_repr = int(seed)
        seq = np.random.SeedSequence(seed_repr)
    mask = _masks([seq], shape, q)[0]
    return SensingOperator(mask=mask, seed=seed_repr, subsample_prob=float(q))


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
