"""Certification calculus for the purification defense.

The robust-width theorem bounds the denoiser's output error by

    C(eps) = 2*eps/alpha + 4*rho * max_defect,

and the performance factor kappa(eps) = C(eps)/eps, the admissible defect
budget, the probabilistic certificate and the robustness-gain lower bound
1/kappa all follow.  Every function that takes alpha and rho (and
rwp_prob) checks their ranges by building :class:`RwpParameters`.
"""

import math
import sys

from ._record import _Record
from .errors import InfeasibleError, _real
from .sensing import RwpParameters

__all__ = [
    "Certificate",
    "kappa",
    "performance_bound",
    "defect_budget",
    "certify_probabilistic",
    "partial_fourier_rwp",
    "rip_from_rwp",
    "rwp_probability_exponent",
    "robustness_gain",
]


class Certificate(_Record):
    """A certified L2 radius with a probability lower bound.

    ``probability`` is 1.0 for deterministic statements.  ``gain`` is a
    lower bound on the robustness gain (1/kappa); the tight improved
    robustness is never computed, only bounded.  ``vacuous`` is set when
    the probability bound was clamped at zero.
    """

    radius: float
    probability: float
    gain: float
    inputs: dict = {}
    vacuous: bool = False

    def __post_init__(self):
        _real(self.radius, "radius", ge=0)
        _real(self.probability, "probability", ge=0, le=1)
        _real(self.gain, "gain", ge=0)


def kappa(epsilon, alpha, rho, max_defect):
    """Performance factor C(eps)/eps = 2/alpha + (4*rho/epsilon) * max_defect;
    +inf at epsilon 0 with a positive defect, where C(0) = 4*rho*max_defect."""
    RwpParameters(rho=rho, alpha=alpha)
    _real(max_defect, "max_defect", ge=0)
    _real(epsilon, "epsilon", ge=0)
    if max_defect == 0:
        return 2.0 / alpha
    return 2.0 / alpha + (4.0 * rho / epsilon) * max_defect if epsilon else math.inf


def performance_bound(epsilon, alpha, rho, max_defect):
    """Guaranteed denoiser output error C(eps) = 2*eps/alpha + 4*rho*max_defect."""
    RwpParameters(rho=rho, alpha=alpha)
    _real(max_defect, "max_defect", ge=0)
    _real(epsilon, "epsilon", ge=0)
    return 2.0 * epsilon / alpha + 4.0 * rho * max_defect


def _slack(alpha, rho, tau, epsilon, *values):
    """The slack alpha*tau - 2*epsilon, the weight 4*alpha*rho, then ``values``,
    each exactly, as an int ratio (numerator, denominator > 0) of the float
    inputs; InfeasibleError unless the slack is finite and positive.
    """
    _real(rho, "rho", lt=math.inf)
    _real(tau, "tau")
    _real(epsilon, "epsilon")
    if math.isfinite(alpha) and math.isfinite(tau) and math.isfinite(epsilon):
        ratios = [float(v).as_integer_ratio() for v in (alpha, rho, tau, epsilon, *values)]
        (na, da), (nr, dr), (nt, dt), (ne, de), *exact = ratios
        slack = na * nt * de - 2 * ne * da * dt
        if slack > 0:
            return (slack, da * dt * de), (4 * na * nr, da * dr), *exact
    raise InfeasibleError(
        f"requires a finite, positive alpha * tau - 2 * epsilon (alpha={alpha}, tau={tau}, epsilon={epsilon})"
    )


def _toward_zero(num, den):
    """The exact ratio num / den of ints num >= 0 and den > 0, rounded
    toward zero: the largest float at most the ratio, which is the largest
    finite float for a ratio beyond the float range.  A bound rounded so
    never claims more than is proven."""
    try:
        ratio = num / den  # correctly rounded to nearest
    except OverflowError:
        return sys.float_info.max
    n, d = ratio.as_integer_ratio()
    return math.nextafter(ratio, 0.0) if n * den > num * d else ratio


def defect_budget(tau, epsilon, alpha, rho):
    """Largest max-defect keeping the performance bound below tau.

    (alpha*tau - 2*epsilon) / (4*alpha*rho), rounded toward zero from its
    exact value (to the largest float beyond the float range), so that the
    budget returned is never above the exact one; it needs a finite rho.
    """
    RwpParameters(rho=rho, alpha=alpha)
    (sn, sd), (wn, wd) = _slack(alpha, rho, tau, epsilon)
    return _toward_zero(sn * wd, sd * wn)


def certify_probabilistic(rwp_prob, alpha, rho, tau, epsilon, expected_defect):
    """Probabilistic certificate for the defended classifier.

    The label is preserved under perturbations of norm up to ``epsilon``
    with probability at least

        rwp_prob - 4*alpha*rho*expected_defect / (alpha*tau - 2*epsilon),

    computed exactly, clamped at zero and rounded once; ``vacuous`` is its
    exact sign.  It needs a finite rho and ``expected_defect``.  ``gain``
    is 1/kappa, which is 0 at epsilon 0 with a positive expected defect.
    """
    RwpParameters(rho=rho, alpha=alpha, rwp_prob=rwp_prob)
    _real(expected_defect, "expected_defect", ge=0, lt=math.inf)
    _real(epsilon, "epsilon", ge=0)
    (sn, sd), (wn, wd), (pn, pd), (dn, dd) = _slack(alpha, rho, tau, epsilon, rwp_prob, expected_defect)
    # p - (wn/wd)(dn/dd)/(sn/sd) = raw / (pd*wd*dd*sn), with a positive denominator.
    raw = pn * wd * dd * sn - pd * wn * dn * sd
    return Certificate(
        radius=epsilon,
        probability=max(raw, 0) / (pd * wd * dd * sn),
        gain=robustness_gain(kappa(epsilon, alpha, rho, expected_defect)),
        inputs={
            "alpha": alpha,
            "rho": rho,
            "tau": tau,
            "rwp_prob": rwp_prob,
            "expected_defect": expected_defect,
        },
        vacuous=raw < 0,
    )


def partial_fourier_rwp(sparsity_level, rip_delta):
    """Robust-width parameters implied by a (J, delta) restricted isometry.

    rho = 3/sqrt(J), alpha = 1/3 - delta, valid for delta < 1/3.  The
    returned ``rwp_prob`` is left at 0.0: the success probability of a
    random partial Fourier matrix is only known up to unstated asymptotic
    constants, so certificates require a user-supplied probability (see
    :func:`rwp_probability_exponent` for the comparative diagnostic).
    """
    _real(sparsity_level, "sparsity level", ge=1, lt=math.inf)
    _real(rip_delta, "RIP constant", ge=0, lt=1.0 / 3.0)
    return RwpParameters(
        rho=3.0 / math.sqrt(sparsity_level), alpha=1.0 / 3.0 - rip_delta
    )


def rip_from_rwp(rho, alpha):
    """Inverse of :func:`partial_fourier_rwp`: (J, delta) = (9/rho^2, 1/3 - alpha)."""
    RwpParameters(rho=rho, alpha=alpha)
    _real(alpha, "alpha of the partial Fourier mapping", lt=1.0 / 3.0)
    # 9/rho/rho, as rho**2 underflows to 0 for rho below 1.5e-154.
    return 9.0 / rho / rho, 1.0 / 3.0 - alpha


def rwp_probability_exponent(dimension, rho, alpha):
    """Unit-constant exponent log(N) * (log 9 - log(rho^2 (1/3 - alpha))).

    A comparative diagnostic only (larger means RWP failure probability
    decays faster); never a calibrated probability.
    """
    RwpParameters(rho=rho, alpha=alpha)
    _real(dimension, "dimension", ge=2, lt=math.inf)
    _real(alpha, "alpha of the exponent", lt=1.0 / 3.0)
    return math.log(dimension) * (math.log(9.0) - 2.0 * math.log(rho) - math.log(1.0 / 3.0 - alpha))


def robustness_gain(kappa_value):
    """Lower bound 1/kappa on the robustness gain."""
    _real(kappa_value, "kappa", gt=0)
    return 1.0 / kappa_value
