"""Certification calculus for the purification defense.

The central quantity is the denoiser performance factor

    kappa(eps) = 2/alpha + (4*rho/eps) * max_defect

from which the performance bound C(eps) = eps * kappa(eps), the admissible
defect budget, the probabilistic certificate and the robustness-gain lower
bound 1/kappa all follow.  Every function that takes alpha and rho (and
rwp_prob) checks their ranges by building :class:`RwpParameters`.
"""

import math

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
    """Performance factor 2/alpha + (4*rho/epsilon) * max_defect."""
    RwpParameters(rho=rho, alpha=alpha)
    _real(max_defect, "max_defect", ge=0)
    # A positive defect has no finite bound at epsilon 0.
    _real(epsilon, "epsilon", gt=0 if max_defect > 0 else None)
    if max_defect == 0:
        return 2.0 / alpha
    return 2.0 / alpha + (4.0 * rho / epsilon) * max_defect


def performance_bound(epsilon, alpha, rho, max_defect):
    """Guaranteed denoiser output error C(eps) = eps * kappa(eps)."""
    return epsilon * kappa(epsilon, alpha, rho, max_defect)


def defect_budget(tau, epsilon, alpha, rho):
    """Largest max-defect keeping the performance bound below tau.

    Requires tau * alpha / 2 > epsilon; the budget is
    (tau - 2*epsilon/alpha) / (4*rho).
    """
    RwpParameters(rho=rho, alpha=alpha)
    _real(tau, "tau")
    _real(epsilon, "epsilon")
    if not tau * alpha > 2.0 * epsilon:
        raise InfeasibleError(
            f"requires tau * alpha / 2 > epsilon "
            f"(tau={tau}, alpha={alpha}, epsilon={epsilon})"
        )
    return (tau - 2.0 * epsilon / alpha) / (4.0 * rho)


def certify_probabilistic(rwp_prob, alpha, rho, tau, epsilon, expected_defect):
    """Probabilistic certificate for the defended classifier.

    The label is preserved under perturbations of norm up to ``epsilon``
    with probability at least

        rwp_prob - 4*alpha*rho*expected_defect / (alpha*tau - 2*epsilon),

    clamped to [0, 1] with a vacuous flag when clamped at zero.  Where a
    product in the ratio overflows, the ratio is taken exactly.
    """
    RwpParameters(rho=rho, alpha=alpha, rwp_prob=rwp_prob)
    _real(tau, "tau")
    _real(expected_defect, "expected_defect", ge=0)
    _real(epsilon, "epsilon", ge=0)
    if not alpha * tau > 2.0 * epsilon:
        raise InfeasibleError(
            f"requires alpha * tau > 2 * epsilon "
            f"(alpha={alpha}, tau={tau}, epsilon={epsilon})"
        )
    numerator = 4.0 * alpha * rho * expected_defect
    denominator = alpha * tau - 2.0 * epsilon
    if math.isfinite(numerator) and math.isfinite(denominator):
        raw = rwp_prob - numerator / denominator
    else:
        # A product overflowed (alpha near the float maximum, say), which
        # gives a NaN or a wrong ratio: take the ratio exactly instead.  The
        # check above makes the exact denominator positive.  fractions is
        # imported only here, as it would add about 3 ms to importing rwkit.
        from fractions import Fraction

        p, a, r, t, e, d = (
            Fraction(float(v)) for v in (rwp_prob, alpha, rho, tau, epsilon, expected_defect)
        )
        raw = p - 4 * a * r * d / (a * t - 2 * e)
    probability = float(min(max(raw, 0.0), 1.0))
    gain = robustness_gain(kappa(epsilon, alpha, rho, expected_defect))
    return Certificate(
        radius=epsilon,
        probability=probability,
        gain=gain,
        inputs={
            "alpha": alpha,
            "rho": rho,
            "tau": tau,
            "rwp_prob": rwp_prob,
            "expected_defect": expected_defect,
        },
        vacuous=raw < 0.0,
    )


def partial_fourier_rwp(sparsity_level, rip_delta):
    """Robust-width parameters implied by a (J, delta) restricted isometry.

    rho = 3/sqrt(J), alpha = 1/3 - delta, valid for delta < 1/3.  The
    returned ``rwp_prob`` is left at 0.0: the success probability of a
    random partial Fourier matrix is only known up to unstated asymptotic
    constants, so certificates require a user-supplied probability (see
    :func:`rwp_probability_exponent` for the comparative diagnostic).
    """
    _real(sparsity_level, "sparsity level", ge=1)
    _real(rip_delta, "RIP constant", ge=0, lt=1.0 / 3.0)
    return RwpParameters(
        rho=3.0 / math.sqrt(sparsity_level), alpha=1.0 / 3.0 - rip_delta
    )


def rip_from_rwp(rho, alpha):
    """Inverse of :func:`partial_fourier_rwp`: (J, delta) = (9/rho^2, 1/3 - alpha)."""
    RwpParameters(rho=rho, alpha=alpha)
    _real(alpha, "alpha of the partial Fourier mapping", lt=1.0 / 3.0)
    return 9.0 / rho**2, 1.0 / 3.0 - alpha


def rwp_probability_exponent(dimension, rho, alpha):
    """Unit-constant exponent log(N) * (log 9 - log(rho^2 (1/3 - alpha))).

    A comparative diagnostic only (larger means RWP failure probability
    decays faster); never a calibrated probability.
    """
    RwpParameters(rho=rho, alpha=alpha)
    _real(dimension, "dimension", ge=2)
    _real(alpha, "alpha of the exponent", lt=1.0 / 3.0)
    return math.log(dimension) * (math.log(9.0) - math.log(rho**2 * (1.0 / 3.0 - alpha)))


def robustness_gain(kappa_value):
    """Lower bound 1/kappa on the robustness gain."""
    _real(kappa_value, "kappa", gt=0)
    return 1.0 / kappa_value
