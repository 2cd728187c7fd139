"""Synthetic sparse dataset generation and its on-disk CSV format.

A dataset is a random unit weight vector (defining labels via the sign of
the inner product) plus ``count`` exactly K-sparse real signals.  Samples
whose margin falls below ``margin_floor`` are resampled so every label is
well defined.

Dataset CSV: ``#`` header comments, a ``record,sample,index,real,imag``
header row, one ``weight`` row per weight entry (sample = -1) followed by
``signal`` rows.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import LinearClassifier, margin, predict
from .config import _fmt
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


def gen_data(n, count, k, seed, margin_floor=1e-3, weights_seed=None):
    """Generate ``count`` exactly k-sparse signals with a labeling weight.

    Deterministic given the seeds; ``weights_seed`` defaults to ``seed``.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"sparsity k must lie in [1, n], got {k}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
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
    lines = [f"# {c}" for c in comments]
    lines.append("record,sample,index,real,imag")
    for i, v in enumerate(dataset.weights):
        lines.append(f"weight,-1,{i},{_fmt(v)},0")
    for s, x in enumerate(dataset.signals):
        for i, v in enumerate(np.asarray(x)):
            lines.append(f"signal,{s},{i},{_fmt(float(np.real(v)))},{_fmt(float(np.imag(v)))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path):
    """Read a dataset written by :func:`write_dataset`.

    A file that cannot be opened or decoded, a malformed row, and weight or
    signal indices that are not exactly ``0..n-1`` raise :class:`ConfigError`.
    """
    try:
        weights, signals = _read_rows(path)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text dataset file ({exc})") from exc
    if not weights:
        raise ConfigError(f"{path}: no weight rows")
    w = _dense(path, "weight", weights)
    clf = LinearClassifier(weights=w)
    sigs = []
    labels = []
    for s in sorted(signals):
        x = _dense(path, f"signal {s}", signals[s])
        x = x.real if np.all(x.imag == 0) else x
        sigs.append(x)
        labels.append(predict(clf, x))
    return Dataset(weights=w, signals=sigs, labels=labels)


def _read_rows(path):
    weights = {}
    signals = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("record,"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ConfigError(f"{path}: malformed dataset row {line!r}")
            record, sample, index, re_v, im_v = parts
            try:
                sample, index, re_v, im_v = int(sample), int(index), float(re_v), float(im_v)
            except ValueError:
                raise ConfigError(f"{path}: malformed dataset row {line!r}") from None
            if record == "weight":
                weights[index] = re_v
            elif record == "signal":
                signals.setdefault(sample, {})[index] = re_v + 1j * im_v
            else:
                raise ConfigError(f"{path}: unknown record kind {record!r}")
    return weights, signals


def _dense(path, what, entries):
    # entries maps index -> value; the indices must be exactly 0..len-1.
    n = len(entries)
    if set(entries) != set(range(n)):
        raise ConfigError(f"{path}: {what} indices are not 0..{n - 1}")
    return np.array([entries[i] for i in range(n)])
