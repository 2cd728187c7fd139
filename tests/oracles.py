"""Exhaustive and one-at-a-time oracles that tests compare rwkit's closed
forms and batched paths against."""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from rwkit import data
from rwkit.classifier import LinearClassifier, margin, predict
from rwkit.errors import ParameterError, _real
from rwkit.frames import _step_transforms, synthesize
from rwkit.sensing import _adjoint_batch, derived_seed


def brute_force_defect(x, solution_bound, grid_step):
    """Exhaustive oracle: minimum L1 distance to the L1 ball over a grid.

    Refused for dimension > 3 (combinatorial blowup); intended as a test
    oracle only.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size > 3:
        raise ParameterError(f"brute force oracle limited to dim <= 3, got {x.size}")
    _real(grid_step, "grid_step", gt=0)
    T = float(_real(solution_bound, "solution_bound", ge=0))
    # Tiny slack so grid points on the ball boundary survive float rounding.
    slack = 1e-9 * max(1.0, T)
    axis = np.arange(-T, T + grid_step / 2, grid_step)
    if x.size == 1:
        candidates = axis[np.abs(axis) <= T + slack]
        return float(np.min(np.abs(x[0] - candidates)))
    if x.size == 2:
        a0, a1 = np.meshgrid(axis, axis, indexing="ij")
        feasible = np.abs(a0) + np.abs(a1) <= T + slack
        dist = np.abs(x[0] - a0) + np.abs(x[1] - a1)
        return float(np.min(dist[feasible]))
    best = np.inf
    for a0 in axis:
        rem = T - abs(a0) + slack
        if rem < 0:
            continue
        a1, a2 = np.meshgrid(axis, axis, indexing="ij")
        feasible = np.abs(a1) + np.abs(a2) <= rem
        if not feasible.any():
            continue
        dist = abs(x[0] - a0) + np.abs(x[1] - a1) + np.abs(x[2] - a2)
        best = min(best, float(np.min(dist[feasible])))
    return best


def transform_l1(mask, xs, frame):
    """Oracle: row i of ``defect._l1_batch``, ||analyze(adjoint(mask[i],
    xs[i]))||_1, through the frame's batch transforms.  The unitary-dft
    rows ran this path, an inverse FFT and the forward FFT that undoes it,
    before the closed form sum(mask * |x|) replaced it."""
    w = _step_transforms(frame, xs.shape[1:])[0](_adjoint_batch(mask, xs))
    return np.sum(np.abs(w.reshape(len(w), -1)), axis=1)


def exact_certificate(rwp_prob, alpha, rho, tau, epsilon, expected):
    """Oracle: the certificate's (probability, vacuous) from exact rationals,
    or None where certify_probabilistic must refuse its inputs."""
    values = (rwp_prob, alpha, rho, tau, epsilon, expected)
    if not all(math.isfinite(v) for v in values):
        return None
    p, a, r, t, e, d = map(Fraction, values)
    if not (0 <= p <= 1 and a > 0 and r > 0 and e >= 0 and d >= 0 and a * t > 2 * e):
        return None
    raw = p - 4 * a * r * d / (a * t - 2 * e)
    return float(min(max(raw, 0), 1)), raw < 0


def exact_linear_certificate(alpha, rho, margin, defect):
    """Oracle: linear_certificate's (radius, gain) at a finite alpha and rho
    from exact rationals, each rounded once (a radius beyond the float range
    is inf), or None where it must give no certificate.

    The radius is alpha * (m - 4 rho d) / 2 and the gain radius / m, alpha / 2
    at m = 0; a positive d with m <= 4 rho d gives None.  An infinite d gives
    None, and an infinite m, with a finite d, an infinite radius and gain
    alpha / 2, the limit of radius / m.
    """
    if defect == math.inf:
        return None
    if margin == math.inf:
        return math.inf, alpha / 2
    a, r, m, d = map(Fraction, (alpha, rho, margin, defect))
    radius = a * (m - 4 * r * d) / 2
    if d > 0 and radius <= 0:
        return None
    try:
        rounded = float(radius)
    except OverflowError:
        rounded = math.inf
    return rounded, float(radius / m) if m else alpha / 2


def looped_gen_data(n, count, k, seed, margin_floor=1e-3, weights_seed=None):
    """Oracle: ``data.gen_data`` as one draw at a time, each decided alone
    by the public ``margin`` and ``predict``.

    It reads ``data._MAX_RESAMPLES`` when called, so a test that patches it
    patches both.
    """
    data._check_params(n, count, k, margin_floor)
    wseed = seed if weights_seed is None else weights_seed
    wrng = np.random.default_rng(derived_seed(wseed, 87))
    w = wrng.standard_normal(n)
    w /= np.linalg.norm(w)
    clf = LinearClassifier(weights=w)
    rng = np.random.default_rng(derived_seed(seed, 88))
    signals = []
    labels = []
    for _ in range(count):
        for _attempt in range(data._MAX_RESAMPLES):
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
                f"margin_floor {margin_floor} not reached in {data._MAX_RESAMPLES} draws"
            )
        signals.append(x)
        labels.append(predict(clf, x))
    return data.Dataset(weights=w, signals=signals, labels=labels)


def basis_pursuit(x, mask, frame):
    """Oracle: the epsilon = 0 decoder, min ||c||_1 over real frame
    coefficients c of a real 1D signal x, subject to the kept bins of the
    unitary FFT of synthesize(frame, c) equalling those of x; returns
    synthesize(frame, c).

    The constraint is linear in c, so it is a linear program in c = p - q
    with p, q >= 0, one row for the real part and one for the imaginary
    part of each kept bin, solved by HiGHS.  Only real frames fit (identity
    and the wavelets): unitary-dft coefficients are complex.
    """
    n = len(x)
    basis = np.array([synthesize(frame, e).real for e in np.eye(n)]).T
    kept = np.fft.fft(np.eye(n), norm="ortho")[mask == 1]
    sense = kept @ basis
    y = kept @ x
    a = np.vstack([sense.real, sense.imag])
    b = np.concatenate([y.real, y.imag])
    fit = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=b, bounds=(0, None), method="highs")
    if fit.status != 0:
        raise RuntimeError(f"basis pursuit failed: {fit.message}")
    return synthesize(frame, fit.x[:n] - fit.x[n:]).real
