"""Linear sign classifier: exact margins, minimal perturbations,
certificates, and empirical robust-radius measurement for arbitrary
label pipelines.
"""

import numpy as np

from . import certify
from ._record import _Record
from .errors import ParameterError, ShapeError, _index, _real
from .sensing import RwpParameters, derived_seed

__all__ = [
    "LinearClassifier",
    "RadiusMeasurement",
    "predict",
    "margin",
    "min_perturbation",
    "linear_certificate",
    "linear_certificate_approx",
    "empirical_robust_radius",
]

DEFAULT_PROBES = 200
DEFAULT_RADIUS_CEILING = 1e6


class LinearClassifier(_Record, norepr=("weights",)):
    """f(x) = sign(<w, x>) with sign(0) := +1; w is finite, not all zero.

    ``predict``, ``margin``, ``min_perturbation`` and the certificates raise
    :class:`ShapeError` for an input x whose shape is not w's or that has a
    non-finite entry.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite")
        if not np.any(w != 0):
            raise ParameterError("weights must not be all zero")
        object.__setattr__(self, "weights", w)

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


def _inner(clf, x):
    x = np.asarray(x)
    if x.shape != clf.weights.shape:
        raise ShapeError(
            f"expected shape {clf.weights.shape}, got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ShapeError("signal contains non-finite entries")
    return float(np.sum(clf.weights * np.real(x)))


def predict(clf, x):
    """Label in {-1, +1}; the boundary itself maps to +1."""
    return 1 if _inner(clf, x) >= 0 else -1


def margin(clf, x):
    """Exact L2 distance |<w, x>| / ||w||_2 to the decision boundary."""
    return abs(_inner(clf, x)) / float(np.linalg.norm(clf.weights))


def min_perturbation(clf, x):
    """Closed-form smallest label-flipping direction -<w,x> w / ||w||^2.

    Its norm equals the margin; any strictly longer step along it flips
    the label.
    """
    w = clf.weights
    return -_inner(clf, x) * w / float(np.sum(w * w))


def linear_certificate(clf, x, alpha):
    """Certified radius alpha * margin / 2 for exactly sparse inputs.

    Requires alpha > 2 (otherwise the guaranteed gain alpha/2 is not an
    improvement and no certificate is issued).
    """
    _real(alpha, "certificate alpha", gt=2)
    m = margin(clf, x)
    return certify.Certificate(
        radius=alpha * m / 2.0,
        probability=1.0,
        gain=alpha / 2.0,
        inputs={"alpha": alpha, "margin": m},
    )


def linear_certificate_approx(clf, x, alpha, rho, defect):
    """Certificate for approximately sparse inputs.

    Radius (alpha/2) * (margin - 4*rho*defect); returns None (no
    certificate) when the margin does not exceed 4*rho*defect.
    """
    _real(alpha, "certificate alpha", gt=2)
    RwpParameters(rho=rho, alpha=alpha)
    _real(defect, "defect", ge=0)
    m = margin(clf, x)
    if defect > 0 and m <= 4.0 * rho * defect:
        return None
    radius = (alpha / 2.0) * (m - 4.0 * rho * defect)
    gain = certify.robustness_gain(certify.kappa(radius, alpha, rho, defect)) if radius > 0 else alpha / 2.0
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
    ``flip_found=False``.  A non-finite ``x`` or extra direction, or one whose
    shape is not ``x``'s, raises :class:`ShapeError`; a zero one is dropped.
    """
    _real(_index(probes, "probes"), "probes", ge=1)
    # A non-finite value would keep the bracket doubling forever.
    _real(tol, "tol", gt=0, lt=np.inf)
    _real(radius_ceiling, "radius_ceiling", gt=0, lt=np.inf)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ShapeError("signal contains non-finite entries")
    rng = np.random.default_rng(derived_seed(seed))
    extra = []
    for u in extra_directions:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != x.shape:
            raise ShapeError(
                f"extra direction of shape {u.shape} does not match signal shape {x.shape}"
            )
        if not np.all(np.isfinite(u)):
            raise ShapeError("extra direction contains non-finite entries")
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
