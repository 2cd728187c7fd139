"""Linear sign classifier: exact margins, minimal perturbations,
certificates, and empirical robust-radius measurement for arbitrary
label pipelines.
"""

import math

import numpy as np

from . import certify
from ._record import _Record
from .errors import ParameterError, ShapeError, _array, _entries, _index, _real, _real_array
from .sensing import derived_seed

__all__ = [
    "LinearClassifier",
    "RadiusMeasurement",
    "predict",
    "margin",
    "min_perturbation",
    "linear_certificate",
    "empirical_robust_radius",
]

DEFAULT_PROBES = 200
DEFAULT_RADIUS_CEILING = 1e6
_TINY = np.finfo(np.float64).tiny


class LinearClassifier(_Record, norepr=("weights",)):
    """f(x) = sign(<w, x>) with sign(0) := +1; w is finite, not all zero.

    ``weights`` is a read-only float64 copy of the real array given (a zero
    imaginary part is dropped).  The label, margin and minimal perturbation
    do not change when w is scaled: all three are computed from u = w *
    2**-e, e the ``np.frexp`` exponent of max|w|, kept with its norm and
    squared norm, and, where <u, x> is not normal, from x scaled by a power
    of two too (see ``_inner``).  Powers of two are exact, so a result keeps
    the bits of the plain expression wherever no intermediate leaves the
    normal range; a w entry below 2**(e - 1022) is subnormal in u and loses
    digits, one below 2**(e - 1074) is flushed.

    ``predict``, ``margin``, ``min_perturbation`` and the certificate raise
    :class:`ShapeError` for an x that is ragged, not numbers, not finite or
    not of w's shape; a complex x is labelled by its real part.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _real_array(self.weights, "weight vector", ParameterError)
        if not np.any(w != 0):
            raise ParameterError("weights must not be all zero")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        u = np.ldexp(w, -math.frexp(float(np.max(np.abs(w))))[1])
        vars(self).update(_u=u, _u_norm=float(np.linalg.norm(u)), _u_sq=float(np.sum(u * u)))

    def __call__(self, x):
        return predict(self, x)


class RadiusMeasurement(_Record):
    """Empirically measured robust radius.

    ``flip_found`` is False for the "no upper bracket" outcome: no probed
    perturbation up to the radius ceiling changed the label, so ``radius``
    is only a lower bound.
    """

    radius: float
    trials: int
    method: str
    flip_found: bool = True

    def __post_init__(self):
        _real(self.radius, "radius", ge=0)


def _inner(clf, xs):
    # (s, c) over the rows x of xs, with s * c = <u, Re x>: the plain sum and
    # 1.0 where it is normal, or subnormal with max|x| >= 1 (scaling x down
    # would flush it further) or x = 0; else c is the power of two with
    # max|x| / c in [1, 2), and the sum for x / c neither overflows nor
    # flushes its products.  Runs in its caller's error state, with overflow
    # and invalid off.
    if xs.shape[1:] != clf.weights.shape:
        raise ShapeError(f"expected shape {clf.weights.shape}, got {xs.shape[1:]}")
    if xs.dtype.kind not in "biuf":
        xs = _array(xs, "signal", finite=True).real
    xs = xs.reshape(len(xs), -1)
    u = clf._u.ravel()
    s = np.sum(u * xs, axis=1)
    c = np.ones(len(s))
    a = np.abs(s)
    if not (np.minimum.reduce(a, initial=math.inf) >= _TINY and np.maximum.reduce(a, initial=0.0) < math.inf):
        rows = np.flatnonzero(~((a >= _TINY) & (a < math.inf)))
        x = xs[rows]
        # A zero row keeps its sum, 0.  A non-finite entry of a real row makes
        # its sum non-finite, so only these rows can hold one.
        if np.count_nonzero(x):
            top = np.max(np.abs(x), axis=1)
            if not np.maximum.reduce(top) < math.inf:
                raise ShapeError("signal contains non-finite entries")
            redo = ((top > 0) & (top < 1)) | ~np.isfinite(s[rows])
            rows, big = rows[redo], np.ldexp(0.5, np.frexp(top[redo])[1])
            c[rows] = big
            s[rows] = np.sum(u * (x[redo] / big[:, None]), axis=1)
    return s, c


def _label_margin(clf, xs):
    # ``predict`` and ``margin`` of each row of xs, as arrays, bit for bit;
    # a margin beyond the float range is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        s, c = _inner(clf, xs)
        return np.where(s >= 0, 1, -1), np.abs(s) / clf._u_norm * c


def predict(clf, x):
    """Label in {-1, +1}; the boundary itself maps to +1."""
    return int(_label_margin(clf, _array(x, "signal")[None])[0][0])


def margin(clf, x):
    """Exact L2 distance |<w, x>| / ||w||_2 to the decision boundary,
    computed as |<u, x / c>| / ||u||_2 * c (see :class:`LinearClassifier`)."""
    return float(_label_margin(clf, _array(x, "signal")[None])[1][0])


def min_perturbation(clf, x):
    """Closed-form smallest label-flipping direction -<w,x> w / ||w||^2.

    Computed as -<u, x/c> u / ||u||^2 * c (see :class:`LinearClassifier`).
    Its norm equals the margin; any strictly longer step along it flips the
    label.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (s,), (c,) = _inner(clf, _array(x, "signal")[None])
    return -s * clf._u / clf._u_sq * c


def linear_certificate(clf, x, alpha, rho, defect):
    """Certified radius alpha * (m - 4*rho*defect) / 2 at x, m its margin.

    The radius and the gain radius / m (1/kappa(radius); alpha/2 at defect 0)
    are exact values of the float inputs, rounded once (inf beyond the float
    range).  None (no certificate) where a positive defect has m <=
    4*rho*defect, decided exactly, or is infinite; an infinite m gives radius
    inf and gain alpha/2.  Needs a finite alpha > 2 and a finite rho > 0.
    """
    _real(alpha, "certificate alpha", gt=2, lt=math.inf)
    _real(rho, "rho", gt=0, lt=math.inf)
    _real(defect, "defect", ge=0)
    m = margin(clf, x)
    if defect == math.inf or (defect and not m):
        return None
    radius, gain = (math.inf if m else 0.0), alpha / 2.0
    if 0 < m < math.inf:
        (sn, sd), (wn, wd), (dn, dd), (mn, md) = certify._slack(alpha, rho, m, 0.0, defect, m)
        # raw / den = (alpha*m - 4*alpha*rho*defect) / 2, the exact radius.
        raw, den = sn * wd * dd - wn * dn * sd, 2 * sd * wd * dd
        if raw <= 0:
            return None
        try:
            radius = raw / den
        except OverflowError:
            pass
        gain = raw * md / (den * mn)
    return certify.Certificate(
        radius=radius,
        probability=1.0,
        gain=gain,
        inputs={"alpha": alpha, "rho": rho, "defect": defect, "margin": m},
    )


def empirical_robust_radius(
    pipeline,
    x,
    probes=DEFAULT_PROBES,
    tol=1e-3,
    seed=0,
    extra_directions=(),
    radius_ceiling=DEFAULT_RADIUS_CEILING,
):
    """Measure the robust radius of a label pipeline at x by bisection.

    At each candidate radius the pipeline is probed along ``probes``
    random unit directions (fresh per level) plus any caller-supplied
    ``extra_directions`` (e.g. the closed-form minimal perturbation of a
    linear classifier, which makes the measurement exact to ``tol``).  The
    directions come from the stream ``derived_seed(seed)``.  An
    upper bracket is first established by doubling from ``tol``; if none
    is found below ``radius_ceiling`` the measurement is returned with
    ``flip_found=False``.  An ``x`` or extra direction that is ragged, not
    numbers, not finite or not real, or one whose shape is not ``x``'s, raises
    :class:`ShapeError`; a zero imaginary part or direction is dropped.
    ``probes`` directions of x's size that no array can hold raise
    :class:`ParameterError`, before anything is drawn.
    """
    _real(_index(probes, "probes"), "probes", ge=1)
    # A non-finite value would keep the bracket doubling forever.
    _real(tol, "tol", gt=0, lt=np.inf)
    _real(radius_ceiling, "radius_ceiling", gt=0, lt=np.inf)
    x = _real_array(x, "signal", ShapeError)
    _entries(probes * x.size, f"probes ({probes}) times the signal's size ({x.size})", ParameterError)
    rng = np.random.default_rng(derived_seed(seed))
    extra = []
    for u in extra_directions:
        u = _real_array(u, "extra direction", ShapeError)
        if u.shape != x.shape:
            raise ShapeError(
                f"extra direction of shape {u.shape} does not match signal shape {x.shape}"
            )
        # Scaled by its largest entry first, so that the norm of a finite
        # direction can neither overflow nor underflow to 0.
        scale = np.max(np.abs(u), initial=0.0)
        if scale > 0:
            u = u / scale
            extra.append(u / np.linalg.norm(u))
    method = "closed-form" if extra else "bisection+random-probe"

    label = pipeline(x)
    trials = 1

    def probe(radius):
        # Draw this level's directions and ask the pipeline along each of
        # them until the first label flip; every direction counts as a trial.
        nonlocal trials
        dirs = rng.standard_normal((probes,) + x.shape)
        norms = np.linalg.norm(dirs.reshape(probes, -1), axis=1)
        dirs /= norms.reshape((probes,) + (1,) * x.ndim)
        dirs = extra + list(dirs)
        trials += len(dirs)
        return any(pipeline(x + radius * u) != label for u in dirs)

    hi = tol
    while not probe(hi):
        hi *= 2.0
        if hi > radius_ceiling:
            return RadiusMeasurement(
                radius=radius_ceiling, trials=trials, method=method, flip_found=False
            )
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return RadiusMeasurement(radius=lo, trials=trials, method=method)
