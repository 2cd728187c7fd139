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
from .classifier import LinearClassifier, _label_margin
from .errors import ConfigError, ParameterError, ShapeError, _index, _real
from .sensing import derived_seed

__all__ = ["Dataset", "gen_data", "write_dataset", "read_dataset"]

_MAX_RESAMPLES = 10_000
# The most entries, rows times n, that one round of gen_data's draws holds.
_ROUND_ENTRIES = 1 << 16


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
    defaults to ``seed``.  Each draw takes a support (``choice`` of k of the
    n indices, without replacement) and then its values (``uniform(-1, 1)``)
    from that stream.  Its label and margin are ``predict``'s and
    ``margin``'s under the weights, bit for bit, from the classifier's batch
    arithmetic.  A draw with a zero value, or whose margin is below
    ``margin_floor``, is rejected, and the next draw becomes the candidate
    for the same sample; ``ParameterError`` is raised after ``_MAX_RESAMPLES``
    rejections in a row.  Acceptance never changes which numbers a draw
    consumes, so the draws are taken in rounds, in stream order, and each
    round is decided at once.  A round draws as many rows as samples are
    still missing, twice the last round after a round that accepted none,
    and never more than ``_ROUND_ENTRIES`` entries (at least one row) or
    ``_MAX_RESAMPLES`` rows.
    """
    _check_params(n, count, k, margin_floor)
    wseed = seed if weights_seed is None else weights_seed
    wrng = np.random.default_rng(derived_seed(wseed, 87))
    w = wrng.standard_normal(n)
    w /= np.linalg.norm(w)
    clf = LinearClassifier(weights=w)
    # No margin reaches k + 1 (|x_j| <= 1 and ||w|| = 1), so this keeps every
    # decision and keeps an integer floor beyond the float range out of numpy.
    floor = min(margin_floor, k + 1)
    rng = np.random.default_rng(derived_seed(seed, 88))
    most = max(1, min(_ROUND_ENTRIES // n, _MAX_RESAMPLES))
    signals = []
    labels = []
    size = count
    run = 0  # rejections since the last accepted draw
    while len(signals) < count:
        needed = count - len(signals)
        m = min(size, most)
        support = np.empty((m, k), dtype=np.intp)
        values = np.empty((m, k))
        for i in range(m):
            support[i] = rng.choice(n, size=k, replace=False)
            values[i] = rng.uniform(-1.0, 1.0, size=k)
        x = np.zeros((m, n))
        x[np.arange(m)[:, None], support] = values
        label, margin = _label_margin(clf, x)
        accepted = (values != 0.0).all(axis=1) & (margin >= floor)
        hits = accepted.nonzero()[0][:needed]
        # A round holds at most _MAX_RESAMPLES draws, so only the run carried
        # into it, with the rejections before its first accepted draw, can
        # reach that many.
        if run + (hits[0] if hits.size else m) >= _MAX_RESAMPLES:
            raise ParameterError(
                f"margin_floor {margin_floor} not reached in {_MAX_RESAMPLES} draws"
            )
        run = m - 1 - hits[-1] if hits.size else run + m
        # A round whose draws are all accepted keeps its rows, uncopied.
        signals.extend(x if hits.size == m else x[hits])
        labels.extend(label[hits].tolist())
        size = needed - hits.size if hits.size else 2 * m
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
    row that :class:`LinearClassifier` refuses (not real, not finite, or all
    zero), or a signal row with a non-finite entry raises :class:`ConfigError`.
    """
    table = io.read_signal(path)
    if table.ndim != 2:
        raise ConfigError(f"{path}: a dataset is a 2D array, got shape {table.shape}")
    if table.shape[0] < 2:
        raise ConfigError(f"{path}: a dataset needs a weight row and at least one signal row")
    try:
        clf = LinearClassifier(weights=table[0])
    except ParameterError as exc:
        raise ConfigError(f"{path}: the weight row is refused: {exc}") from None
    try:
        labels = _label_margin(clf, table[1:])[0].tolist()
    except ShapeError as exc:
        raise ConfigError(f"{path}: a signal row is refused: {exc}") from None
    signals = [io._real_if_zero_imag(x) for x in table[1:]]
    return Dataset(weights=clf.weights, signals=signals, labels=labels)
