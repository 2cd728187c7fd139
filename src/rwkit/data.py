"""Synthetic sparse dataset generation and its on-disk array layout.

A dataset is a random unit weight vector (defining labels via the sign of
the inner product) plus ``count`` exactly K-sparse real signals.  Samples
whose margin falls below ``margin_floor`` are resampled so every label is
well defined.

On disk a dataset is one :mod:`rwkit.io` array file (CSV, or binary for a
``.bin`` path) holding a ``(count + 1) x n`` array: row 0 is the weight
vector and row ``i + 1`` is signal ``i``.
"""

import numpy as np

from . import io
from ._record import _Record
from .classifier import LinearClassifier, _inner, predict
from .errors import ConfigError, ParameterError, ShapeError, _index, _real
from .sensing import derived_seed

__all__ = ["Dataset", "gen_data", "write_dataset", "read_dataset"]

_MAX_RESAMPLES = 10_000


class Dataset(_Record):
    weights: np.ndarray
    signals: list
    labels: list

    @property
    def classifier(self):
        return LinearClassifier(weights=self.weights)


# The longest complex128 row numpy can index; a longer n ends in numpy's
# ValueError, not in a ParameterError.
_MAX_N = np.iinfo(np.intp).max // 16


def _check_params(n, count, k, margin_floor):
    # The dataset's parameter rules; n, count and k are integers.
    _real(_index(n, "n"), "n", ge=1, le=_MAX_N)
    _real(_index(count, "count"), "count", ge=1)
    _real(_index(k, "sparsity k"), "sparsity k", ge=1, le=n)
    _real(margin_floor, "margin_floor", gt=0)


def gen_data(n, count, k, seed, margin_floor=1e-3, weights_seed=None):
    """Generate ``count`` exactly k-sparse signals with a labeling weight.

    The weights come from the stream ``derived_seed(weights_seed, 87)``,
    and the signals from ``derived_seed(seed, 88)``; ``weights_seed``
    defaults to ``seed``.
    """
    _check_params(n, count, k, margin_floor)
    wseed = seed if weights_seed is None else weights_seed
    wrng = np.random.default_rng(derived_seed(wseed, 87))
    w = wrng.standard_normal(n)
    w /= np.linalg.norm(w)
    clf = LinearClassifier(weights=w)
    # One norm per dataset and one inner product per draw, in the very
    # expressions of classifier.margin and classifier.predict.
    w_norm = float(np.linalg.norm(clf.weights))
    rng = np.random.default_rng(derived_seed(seed, 88))
    signals = []
    labels = []
    for _ in range(count):
        for _attempt in range(_MAX_RESAMPLES):
            support = rng.choice(n, size=k, replace=False)
            values = rng.uniform(-1.0, 1.0, size=k)
            if np.any(values == 0.0):
                continue
            x = np.zeros(n)
            x[support] = values
            inner = _inner(clf, x)
            if abs(inner) / w_norm >= margin_floor:
                break
        else:
            raise ParameterError(
                f"margin_floor {margin_floor} not reached in {_MAX_RESAMPLES} draws"
            )
        signals.append(x)
        labels.append(1 if inner >= 0 else -1)
    return Dataset(weights=w, signals=signals, labels=labels)


def write_dataset(path, dataset, comments=()):
    """Write ``dataset`` as one :mod:`rwkit.io` array file (.bin by suffix).

    The array is ``(count + 1) x n``: row 0 holds the weights and row
    ``i + 1`` holds signal ``i``.  ``comments`` become CSV header lines.
    """
    io.write_signal(path, np.vstack([dataset.weights, *dataset.signals]), comments=comments)


def read_dataset(path):
    """Read a dataset written by :func:`write_dataset`.

    Signal rows whose imaginary parts are all zero come back real, and the
    labels are recomputed from the weights.  On top of :func:`io.read_signal`'s
    errors, a table that is not 2D, has fewer than two rows, or has a weight
    row that is not real or that :class:`LinearClassifier` refuses (not
    finite, or all zero), or a signal row with a non-finite entry raises
    :class:`ConfigError`.
    """
    table = io.read_signal(path)
    if table.ndim != 2:
        raise ConfigError(f"{path}: a dataset is a 2D array, got shape {table.shape}")
    if table.shape[0] < 2:
        raise ConfigError(f"{path}: a dataset needs a weight row and at least one signal row")
    if np.any(table[0].imag != 0):
        raise ConfigError(f"{path}: the weight row is not real")
    w = table[0].real
    try:
        clf = LinearClassifier(weights=w)
    except ParameterError as exc:
        raise ConfigError(f"{path}: the weight row is refused: {exc}") from None
    signals = [x.real if np.all(x.imag == 0) else x for x in table[1:]]
    try:
        labels = [predict(clf, x) for x in signals]
    except ShapeError as exc:
        raise ConfigError(f"{path}: a signal row is refused: {exc}") from None
    return Dataset(weights=w, signals=signals, labels=labels)
