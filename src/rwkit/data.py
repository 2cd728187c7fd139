"""Synthetic sparse dataset generation and its on-disk array layout.

A dataset is a random unit weight vector (defining labels via the sign of
the inner product) plus ``count`` exactly K-sparse real signals.  Samples
whose margin falls below ``margin_floor`` are resampled so every label is
well defined.

On disk a dataset is one :mod:`rwkit.io` array file (CSV, or binary for a
``.bin`` path) holding a ``(count + 1) x n`` array: row 0 is the weight
vector and row ``i + 1`` is signal ``i``.
"""

from dataclasses import dataclass

import numpy as np

from . import io
from .classifier import LinearClassifier, margin, predict
from .errors import ConfigError, ParameterError

__all__ = ["Dataset", "gen_data", "write_dataset", "read_dataset"]

_MAX_RESAMPLES = 10_000


@dataclass(frozen=True)
class Dataset:
    weights: np.ndarray
    signals: list
    labels: list

    @property
    def classifier(self):
        return LinearClassifier(weights=self.weights)


def _check_params(n, count, k, margin_floor):
    # The dataset's parameter rules; every comparison fails on NaN.
    if not n >= 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not count >= 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if not 1 <= k <= n:
        raise ParameterError(f"sparsity k must lie in [1, n], got {k}")
    if not margin_floor > 0:
        raise ParameterError(f"margin_floor must be positive, got {margin_floor}")


def gen_data(n, count, k, seed, margin_floor=1e-3, weights_seed=None):
    """Generate ``count`` exactly k-sparse signals with a labeling weight.

    Deterministic given the seeds; ``weights_seed`` defaults to ``seed``.
    """
    _check_params(n, count, k, margin_floor)
    wseed = seed if weights_seed is None else weights_seed
    wrng = np.random.default_rng(np.random.SeedSequence(wseed, spawn_key=(87,)))
    w = wrng.standard_normal(n)
    w /= np.linalg.norm(w)
    clf = LinearClassifier(weights=w)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(88,)))
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
            if margin(clf, x) >= margin_floor:
                break
        else:
            raise ParameterError(
                f"could not reach margin floor {margin_floor} in "
                f"{_MAX_RESAMPLES} draws"
            )
        signals.append(x)
        labels.append(predict(clf, x))
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
    row with a non-zero imaginary part raises :class:`ConfigError`.
    """
    table = io.read_signal(path)
    if table.ndim != 2:
        raise ConfigError(f"{path}: a dataset is a 2D array, got shape {table.shape}")
    if table.shape[0] < 2:
        raise ConfigError(f"{path}: a dataset needs a weight row and at least one signal row")
    if np.any(table[0].imag != 0):
        raise ConfigError(f"{path}: the weight row is not real")
    w = table[0].real
    clf = LinearClassifier(weights=w)
    signals = [x.real if np.all(x.imag == 0) else x for x in table[1:]]
    return Dataset(weights=w, signals=signals, labels=[predict(clf, x) for x in signals])
