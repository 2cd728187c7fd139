"""Frozen reference for the image-db4 workload.

An independent dense-matrix rewrite of what ``rwkit purify`` computes for a
square 2D signal with the db4 frame: a Bernoulli(q) mask over the unitary
2D FFT drawn from ``SeedSequence(seed)``, then a fixed number of
soft-thresholded gradient steps on the db4 coefficients from zero, reported
as the real part of the synthesized signal.  It also synthesizes the
benchmark's test images, so the images do not depend on the program under
test.  It shares no code with rwkit.
"""

import numpy as np

# Orthonormal Daubechies lowpass filter with four vanishing moments.
DB4_LOWPASS = np.array(
    [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)


def _level_matrix(m):
    # One periodized analysis step on length m: lowpass rows, then highpass.
    h = DB4_LOWPASS
    g = h[::-1].copy()
    g[1::2] *= -1.0
    w = np.zeros((m, m))
    rows = np.arange(m // 2)
    for k in range(h.size):
        cols = (2 * rows + k) % m
        np.add.at(w, (rows, cols), h[k])
        np.add.at(w, (rows + m // 2, cols), g[k])
    return w


class Db4:
    """Separable multi-level 2D db4 transform of a square signal."""

    def __init__(self, size, levels):
        self.size = size
        self.levels = [_level_matrix(size >> level) for level in range(levels)]

    def analyze(self, x):
        c = np.array(x, dtype=np.complex128)
        for w in self.levels:
            m = w.shape[0]
            c[:m, :m] = w @ c[:m, :m] @ w.T
        return c

    def synthesize(self, c):
        x = np.array(c, dtype=np.complex128)
        for w in reversed(self.levels):
            m = w.shape[0]
            x[:m, :m] = w.T @ x[:m, :m] @ w
        return x


def sparse_image(rng, dwt, nonzeros):
    """A real image with ``nonzeros`` db4 coefficients drawn from U(-1, 1)."""
    coeffs = np.zeros((dwt.size, dwt.size))
    support = rng.choice(coeffs.size, size=nonzeros, replace=False)
    coeffs.flat[support] = rng.uniform(-1.0, 1.0, size=nonzeros)
    return dwt.synthesize(coeffs).real


def _soft_threshold(u, lam):
    mag = np.abs(u)
    return u * (np.maximum(mag - lam, 0.0) / np.where(mag == 0.0, 1.0, mag))


def purify(image, seed, subsample_prob, iterations, threshold, dwt):
    """Reference purified image for an integer operator seed."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    mask = (rng.random(image.shape) < subsample_prob).astype(np.float64)
    y = mask * np.fft.fftn(np.asarray(image, dtype=np.complex128), norm="ortho")
    u = np.zeros(image.shape, dtype=np.complex128)
    for _ in range(iterations):
        residual = y - mask * np.fft.fftn(dwt.synthesize(u), norm="ortho")
        z = u + dwt.analyze(np.fft.ifftn(mask * residual, norm="ortho"))
        u = _soft_threshold(z, threshold)
    return dwt.synthesize(u).real
