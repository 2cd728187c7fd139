"""Bit-exact signal file formats.

CSV format: optional ``#`` comment lines (the writer always emits a
``# shape=HxW`` or ``# shape=N`` line), a ``index,real,imag`` header row,
then one row per element in row-major order.  Floats are written with
``%.17g`` so rereads are bit-exact.

Binary format: 16-byte header (8-byte magic ``RWKSIG1\\0``, uint32 LE rows,
uint32 LE cols; rows == 0 marks a 1D signal of length cols), followed by
interleaved little-endian float64 (real, imag) pairs in row-major order.
"""

import struct

import numpy as np

from .errors import ConfigError

MAGIC = b"RWKSIG1\x00"

__all__ = ["read_signal", "write_signal", "MAGIC"]


def write_signal(path, x, comments=()):
    """Write a complex signal to ``path`` (.bin for binary, else CSV)."""
    x = np.asarray(x, dtype=np.complex128)
    path = str(path)
    if path.endswith(".bin"):
        rows, cols = (0, x.shape[0]) if x.ndim == 1 else x.shape
        with open(path, "wb") as fh:
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
    lines.extend(
        f"{i},{re:.17g},{im:.17g}"
        for i, (re, im) in enumerate(zip(flat.real.tolist(), flat.imag.tolist()))
    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_signal(path):
    """Read a signal written by :func:`write_signal`.

    A file that cannot be opened or decoded, or does not hold a signal in
    either format, raises :class:`ConfigError`.
    """
    path = str(path)
    try:
        return _read_signal(path)
    except OSError as exc:
        raise ConfigError(f"cannot read signal {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text signal file ({exc})") from exc


def _read_signal(path):
    if path.endswith(".bin"):
        with open(path, "rb") as fh:
            header = fh.read(16)
            if len(header) != 16 or header[:8] != MAGIC:
                raise ConfigError(f"{path}: not an rwkit binary signal")
            rows, cols = struct.unpack("<II", header[8:])
            n = cols if rows == 0 else rows * cols
            raw = np.frombuffer(fh.read(), dtype="<f8")
        if raw.size != 2 * n:
            raise ConfigError(f"{path}: truncated binary signal")
        x = raw[0::2] + 1j * raw[1::2]
        return x if rows == 0 else x.reshape(rows, cols)
    shape = None
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("shape="):
                    shape = _parse_shape(path, body[6:])
                continue
            if line.startswith("index,"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}: malformed signal row {line!r}")
            try:
                values.append(complex(float(parts[1]), float(parts[2])))
            except ValueError:
                raise ConfigError(f"{path}: malformed signal row {line!r}") from None
    x = np.array(values, dtype=np.complex128)
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
