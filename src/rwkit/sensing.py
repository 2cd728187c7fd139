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

A generator reads from its ``SeedSequence`` only the four PCG64 seed words
``generate_state(4, np.uint64)``.  Eval computes the words of all its
streams in one pass, :func:`_states`, which is bit-identical to
``derived_seed``: it starts from numpy's own pool of ``derived_seed(seed)``,
which every stream shares, and runs numpy's ``SeedSequence`` hash over
arrays on the key words alone.  The mask and probe generators are built
from their words by :func:`_generator`.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

from ._record import _Record
from .errors import ParameterError, ShapeError, _array, _index, _real, _signal_shape
from .frames import _fft, _ifft, _read_only, as_signal

__all__ = [
    "SensingOperator",
    "RwpParameters",
    "make_partial_fourier",
    "apply",
    "adjoint",
    "derived_seed",
]


def derived_seed(master_seed, *indices):
    """The stream ``indices`` under ``master_seed``, by the module's seed rule."""
    key = tuple([_index(i, "seed index") for i in indices])
    if not isinstance(master_seed, np.random.SeedSequence):
        return np.random.SeedSequence(_index(master_seed, "seed"), spawn_key=key)
    seq = master_seed
    if not key:
        return seq
    return np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + key, pool_size=seq.pool_size)


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init, mult, first, count):
    # A hash constant starts at init and is multiplied by mult at each use;
    # its values before uses first, ..., first + count - 1, as uint32.
    uses = range(first, first + count)
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in uses], dtype=np.uint32)


def _hashmix(value, consts):
    # numpy's hashmix of ``value`` at each successive constant: row d uses
    # consts[d] and consts[d + 1], as the C code's running hash constant does.
    value = (value ^ consts[:-1, None]) * consts[1:, None]
    return value ^ (value >> 16)


def _states(seed, keys):
    """PCG64 seed words of the streams ``derived_seed(seed, *keys[k])``.

    Row k of the ``(rows, 4)`` uint64 result is
    ``derived_seed(seed, *keys[k]).generate_state(4, np.uint64)``, bit for
    bit, for a ``(rows, m)`` integer array ``keys`` with m >= 1 and entries
    in ``[0, 2**32)``.

    numpy hashes a stream's words into a pool one by one: its run entropy,
    zero-padded to the pool size if it has a spawn key, then that key.
    Every stream here is the words of ``seq = derived_seed(seed)`` followed
    by its key, so all share the pool ``seq`` ends with, ``seq.pool``; when
    ``seq`` has no key and fewer words than the pool, numpy hashes the empty
    slots as 0, which is what the padding supplies.  The pass starts from
    that pool and hashes the key words alone, over arrays with one column
    per row, whose uint32 products wrap silently as the C code's do.
    """
    seq = derived_seed(seed)
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu" or keys.ndim != 2 or keys.shape[1] < 1:
        raise ParameterError("spawn keys must be a (rows, m >= 1) integer array")
    if np.any((keys < 0) | (keys > _MASK32)):
        raise ParameterError("spawn key entries must lie in [0, 2**32)")
    size = seq.pool_size
    shared = max(len(_coerce_to_uint32_array(seq.entropy)), size)
    shared += len(_coerce_to_uint32_array(seq.spawn_key))
    # Filling the pool takes size**2 hash steps and each later word size more.
    consts = _hash_consts(_INIT_A, _MULT_A, size * shared, size * keys.shape[1] + 1)
    pool = np.repeat(seq.pool[:, None], len(keys), axis=1)
    for j, word in enumerate(keys.T.astype(np.uint32)):
        hashed = _hashmix(word, consts[j * size : (j + 1) * size + 1])
        mixed = pool * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool = mixed ^ (mixed >> 16)
    # The output stage: eight uint32 words, read cyclically from the pool.
    state = _hashmix(pool[np.arange(8) % size], _hash_consts(_INIT_B, _MULT_B, 0, 9))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    # A seed sequence that hands PCG64 precomputed seed words.
    def __init__(self, words):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words):
    """The generator of the stream whose PCG64 seed words are ``words``:
    draws equal ``default_rng(seq)``'s for the ``seq`` that gave them."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


class SensingOperator(_Record, norepr=("mask",)):
    """A masked unitary Fourier transform with its adjoint.

    ``mask`` is a 0/1 array over Fourier coefficients; the operator keeps
    masked coefficients and zeroes the rest, so apply(adjoint(y)) restores
    any y supported on the mask exactly.  Bool, integer or real entries,
    each exactly 0 or 1, are kept as a read-only float64 copy; any other
    (0.5, 3, NaN, inf, complex, non-numeric, ragged, or of no signal's
    shape) raises ``ParameterError``.
    """

    mask: np.ndarray

    def __post_init__(self):
        mask = _array(self.mask, "mask", ParameterError)
        if mask.dtype.kind not in "biuf" or not ((mask == 0) | (mask == 1)).all():
            raise ParameterError("mask entries must each be 0 or 1")
        _signal_shape(mask.shape, "mask", ParameterError)
        object.__setattr__(self, "mask", _read_only(mask.astype(np.float64)))

    @property
    def shape(self):
        return self.mask.shape


class RwpParameters(_Record):
    """Robust-width parameters of a sensing operator.

    ``rwp_prob`` is the probability with which the operator satisfies the
    (rho, alpha) robust-width condition; it is distinct from the Bernoulli
    subsampling probability of the mask.
    """

    rho: float
    alpha: float
    rwp_prob: float = 0.0

    def __post_init__(self):
        _real(self.alpha, "alpha", gt=0)
        _real(self.rho, "rho", gt=0)
        _real(self.rwp_prob, "rwp_prob", ge=0, le=1)


def make_partial_fourier(shape, q, seed):
    """Sample a Bernoulli(q) mask over the given signal shape.

    ``shape`` may be an int (1D) or a tuple of one or two axis lengths,
    each an integer >= 1 under the seed rule's integer check: 12.5, "8" or
    ``True`` raise :class:`~rwkit.errors.ParameterError`, and a shape no
    signal has (an axis of 0, no axes, more than two, or more entries than
    an array can hold) a ``ShapeError``.
    The mask is a deterministic function of (shape, q, seed).
    """
    dims = (shape,) if _array(shape, "shape", ParameterError).ndim == 0 else shape
    shape = tuple([_index(ax_len, "axis length") for ax_len in dims])
    _signal_shape(shape, "signal")
    _real(q, "subsampling probability", ge=0, le=1)
    return SensingOperator(mask=_seed_masks([seed], shape, q)[0])


def _seed_masks(seeds, shape, q):
    # Row k is the mask drawn under seeds[k] by the seed rule (see _masks).
    return _masks([derived_seed(s).generate_state(4, np.uint64) for s in seeds], shape, q)


def _masks(states, shape, q):
    # The mask rule: row k is Bernoulli(q) over ``shape``, thresholding the
    # uniforms of the generator with PCG64 seed words states[k].  Unchecked:
    # callers pass a valid shape tuple and q.
    uniforms = np.empty((len(states),) + shape)
    for k, words in enumerate(states):
        _generator(words).random(out=uniforms[k])
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
