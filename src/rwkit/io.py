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

Text files, read or written, are UTF-8; a reader accepts and drops a
leading byte-order mark.
"""

import struct

import numpy as np

from .errors import ConfigError, ParameterError, _array, _signal_shape

MAGIC = b"RWKSIG1\x00"

__all__ = ["read_signal", "write_signal"]


def _check_comment(comment):
    # The reader would take this comment for a shape line or split it.
    text = str(comment)
    if "\r" in text or "\n" in text or text.strip().startswith("shape="):
        raise ParameterError(f"comment {text!r} cannot be written as one CSV comment line")


def _create(path, mode):
    # Open an output file, text as UTF-8; one that cannot be opened (a
    # missing directory, no permission) is a ConfigError, like an input that
    # cannot be read.
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _read(path, what, binary=False):
    # The whole content of an input file, as bytes or as UTF-8 text with an
    # optional byte-order mark; a file that cannot be read or decoded is a
    # ConfigError that names it as a ``what`` file.
    mode, encoding = ("rb", None) if binary else ("r", "utf-8-sig")
    try:
        with open(path, mode, encoding=encoding) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text {what} file ({exc})") from exc


def write_signal(path, x, comments=()):
    """Write a complex signal to ``path`` (.bin for binary, else CSV).

    Before anything is written, a comment holding a line break, or whose
    stripped text starts with ``shape=``, raises :class:`ParameterError`,
    and an array that is ragged, not numbers, not 1D or 2D, or empty,
    :class:`ShapeError`.  A path that cannot be opened raises :class:`ConfigError`.
    """
    for comment in comments:
        _check_comment(comment)
    x = _array(x, "signal", dtype=np.complex128)
    _signal_shape(x.shape, "signal")
    path = str(path)
    if path.endswith(".bin"):
        rows, cols = (0, x.shape[0]) if x.ndim == 1 else x.shape
        with _create(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", rows, cols))
            fh.write(x.astype("<c16").tobytes())
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
    x = _read_signal(path)
    _signal_shape(x.shape, f"{path}: signal", ConfigError)
    return x


def _real_if_zero_imag(x):
    # A file stores signals as complex; one with no imaginary part is real.
    return x.real if np.all(x.imag == 0) else x


def _read_signal(path):
    if path.endswith(".bin"):
        content = _read(path, "signal", binary=True)
        if len(content) < 16 or content[:8] != MAGIC:
            raise ConfigError(f"{path}: not an rwkit binary signal")
        rows, cols = struct.unpack("<II", content[8:16])
        n = cols if rows == 0 else rows * cols
        if len(content) != 16 + 16 * n:
            raise ConfigError(f"{path}: truncated binary signal")
        x = np.frombuffer(content, dtype="<c16", offset=16).astype(np.complex128)
        return x if rows == 0 else x.reshape(rows, cols)
    lines = _read(path, "signal").split("\n")
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
    if min(shape) < 1:
        raise ConfigError(f"{path}: shape axes must be >= 1, got {text!r}")
    return shape
