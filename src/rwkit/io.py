"""Bit-exact signal file formats.

Signals, purified outputs and datasets (see :mod:`rwkit.data`) are all
stored as one 1D or 2D complex array in one of these two formats.

CSV format: optional ``#`` comment lines (the writer always emits a
``# shape=HxW`` or ``# shape=N`` line), a ``index,real,imag`` header row,
then one ``index,real,imag`` row per element in row-major order.  Floats
are written with ``%.17g`` so rereads are bit-exact.  The reader takes the
shape line from the comments before the first data row, parses the data
rows in one :func:`numpy.loadtxt` call, and rejects the file unless the
index column is exactly ``0..N-1``.

Binary format: 16-byte header (8-byte magic ``RWKSIG1\\0``, uint32 LE rows,
uint32 LE cols; rows == 0 marks a 1D signal of length cols), followed by
interleaved little-endian float64 (real, imag) pairs in row-major order.
"""

import struct

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError

MAGIC = b"RWKSIG1\x00"

__all__ = ["read_signal", "write_signal"]


def _check_comment(comment):
    # The reader would take this comment for a shape line or split it.
    text = str(comment)
    if "\r" in text or "\n" in text or text.strip().startswith("shape="):
        raise ParameterError(f"comment {text!r} cannot be written as one CSV comment line")


def _create(path, mode):
    # Open an output file; one that cannot be opened (a missing directory,
    # no permission) is a ConfigError, like an input that cannot be read.
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_signal(path, x, comments=()):
    """Write a complex signal to ``path`` (.bin for binary, else CSV).

    Before anything is written, a comment holding a line break, or whose
    stripped text starts with ``shape=``, raises :class:`ParameterError`,
    and an array that is not 1D or 2D, or is empty, :class:`ShapeError`.
    A path that cannot be opened for writing raises :class:`ConfigError`.
    """
    for comment in comments:
        _check_comment(comment)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (1, 2) or 0 in x.shape:
        raise ShapeError(f"a signal file holds a non-empty 1D or 2D array, got shape {x.shape}")
    path = str(path)
    if path.endswith(".bin"):
        rows, cols = (0, x.shape[0]) if x.ndim == 1 else x.shape
        with _create(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", rows, cols))
            interleaved = np.empty(2 * x.size, dtype="<f8")
            interleaved[0::2] = x.real.ravel()
            interleaved[1::2] = x.imag.ravel()
            fh.write(interleaved.tobytes())
        return
    shape = "x".join(str(s) for s in x.shape)
    lines = [f"# {c}" for c in comments]
    lines.append(f"# shape={shape}")
    lines.append("index,real,imag")
    flat = x.ravel()
    rows = zip(range(flat.size), flat.real.tolist(), flat.imag.tolist())
    lines.extend(map("%d,%.17g,%.17g".__mod__, rows))
    with _create(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_signal(path):
    """Read a signal written by :func:`write_signal`.

    A file that cannot be opened or decoded, or does not hold a signal in
    either format, raises :class:`ConfigError`; so does one that holds an
    array with an empty axis, which the writer refuses to make.
    """
    path = str(path)
    try:
        x = _read_signal(path)
    except OSError as exc:
        raise ConfigError(f"cannot read signal {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text signal file ({exc})") from exc
    if x.size == 0:
        raise ConfigError(f"{path}: a signal file holds a non-empty array, got shape {x.shape}")
    return x


def _read_signal(path):
    if path.endswith(".bin"):
        with open(path, "rb") as fh:
            header = fh.read(16)
            if len(header) != 16 or header[:8] != MAGIC:
                raise ConfigError(f"{path}: not an rwkit binary signal")
            rows, cols = struct.unpack("<II", header[8:])
            n = cols if rows == 0 else rows * cols
            payload = fh.read()
        if len(payload) != 16 * n:
            raise ConfigError(f"{path}: truncated binary signal")
        x = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
        return x if rows == 0 else x.reshape(rows, cols)
    with open(path) as fh:
        lines = fh.read().split("\n")
    # The header is every line before the first data row: comments, blank
    # lines and the column row.
    shape = None
    start = len(lines)
    for k, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("shape="):
                shape = _parse_shape(path, body[6:])
        elif line and not line.startswith("index,"):
            start = k
            break
    table = np.empty((0, 3))
    if start < len(lines):
        try:
            table = np.loadtxt(lines[start:], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed signal row ({exc})") from None
    if table.shape[1] != 3:
        raise ConfigError(f"{path}: malformed signal row ({table.shape[1]} columns, not 3)")
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ConfigError(f"{path}: the index column is not 0..{len(table) - 1}")
    x = np.empty(len(table), dtype=np.complex128)
    x.real = table[:, 1]
    x.imag = table[:, 2]
    if shape is None:
        return x
    if int(np.prod(shape)) != x.size:
        raise ConfigError(
            f"{path}: shape={'x'.join(map(str, shape))} does not match {x.size} rows"
        )
    return x.reshape(shape)


def _parse_shape(path, text):
    try:
        shape = tuple(int(s) for s in text.split("x"))
    except ValueError:
        raise ConfigError(f"{path}: malformed shape line {text!r}") from None
    if len(shape) not in (1, 2):
        raise ConfigError(f"{path}: shape must have 1 or 2 axes, got {text!r}")
    if min(shape) < 1:
        raise ConfigError(f"{path}: shape axes must be >= 1, got {text!r}")
    return shape
