"""Complex soft-thresholding, with a numba fast path and a pure-numpy fallback.

Soft-thresholding is the one nonlinear step of the purifier.  With the
unitary-dft frame the sensing operator is diagonal in coefficient space, so
the whole reconstruction reduces to one call of it on the masked
measurements (see ``reconstruct``).

The backend is selected once at import time from the environment variable
``RWKIT_BACKEND``:

* ``numba`` (default): use the ``@njit``-compiled kernel, falling back to
  numpy if numba is not importable.
* ``numpy``: force the pure-numpy implementation.

Both implementations are exported (``soft_threshold_numpy`` and, when numba
is available, ``soft_threshold_numba``) so they can be cross-checked against
each other.
"""

import os

import numpy as np

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "soft_threshold_flat",
    "soft_threshold_numpy",
]


def soft_threshold_numpy(u, lam):
    """Complex soft-thresholding of a flat coefficient array."""
    mag = np.abs(u)
    scale = np.maximum(mag - lam, 0.0) / np.where(mag == 0.0, 1.0, mag)
    return u * scale


HAS_NUMBA = False
_requested = os.environ.get("RWKIT_BACKEND", "numba").strip().lower()
if _requested not in ("numba", "numpy"):
    raise ValueError(f"RWKIT_BACKEND must be 'numba' or 'numpy', got {_requested!r}")

if _requested == "numba":
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        pass

if HAS_NUMBA:

    @njit(cache=True)
    def soft_threshold_numba(u, lam):
        out = np.empty_like(u)
        for j in range(u.size):
            mag = abs(u[j])
            if mag <= lam:
                out[j] = 0.0
            else:
                out[j] = u[j] * ((mag - lam) / mag)
        return out

    BACKEND = "numba"
    soft_threshold_flat = soft_threshold_numba
else:
    BACKEND = "numpy"
    soft_threshold_flat = soft_threshold_numpy
