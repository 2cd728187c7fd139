import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwkit import (
    Certificate,
    DefectParams,
    Frame,
    InfeasibleError,
    LinearClassifier,
    ParameterError,
    RadiusMeasurement,
    ReconstructionParams,
    RwpParameters,
    SensingOperator,
    ShapeError,
    analyze,
    as_signal,
    coefficient_defect,
    defend,
    empirical_robust_radius,
    expected_defect,
    gen_data,
    ista_reconstruct,
    linear_certificate,
    make_partial_fourier,
    margin,
    min_perturbation,
    predict,
    purify,
    soft_threshold,
    certify_probabilistic,
    defect_budget,
    kappa,
    partial_fourier_rwp,
    performance_bound,
    rip_from_rwp,
    robustness_gain,
    rwp_probability_exponent,
    write_signal,
)

from oracles import assert_toward_zero, brute_force_defect, exact_certificate, toward_zero


def exact_budget(tau, epsilon, alpha, rho):
    """Oracle: defect_budget from exact rationals, rounded toward zero, or
    None where it must refuse."""
    if not all(math.isfinite(v) for v in (tau, epsilon, alpha, rho)):
        return None
    t, e, a, r = map(Fraction, (tau, epsilon, alpha, rho))
    if not (a > 0 and r > 0 and a * t > 2 * e):
        return None
    return toward_zero((a * t - 2 * e) / (4 * a * r))


@st.composite
def feasible_inputs(draw):
    # Finite inputs that pass certify_probabilistic's checks, drawn directly:
    # epsilon below alpha*tau/2 exactly.
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    rwp_prob, alpha, rho, tau = draw(st.floats(0.0, 1.0)), draw(positive), draw(positive), draw(positive)
    half = Fraction(alpha) * Fraction(tau) / 2
    top = float(min(half, Fraction(sys.float_info.max)))
    if Fraction(top) >= half:
        top = math.nextafter(top, 0.0)
    epsilon = draw(st.floats(0.0, top))
    expected = draw(st.floats(0.0, allow_infinity=False))
    return rwp_prob, alpha, rho, tau, epsilon, expected


# Any float, with the valid ranges drawn more often than not.
ANY_FLOAT = st.one_of(st.floats(0.0, allow_infinity=False), st.floats())


class TestKappa:
    def test_zero_defect_reduces_to_two_over_alpha(self):
        assert kappa(0.1, 4.0, 0.05, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_two_gives_no_gain(self):
        assert kappa(0.1, 2.0, 0.05, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert kappa(0.1, 4.0, 0.05, 0.2) == pytest.approx(0.9, abs=1e-12)

    def test_zero_epsilon_with_defect_is_infinite(self):
        assert kappa(0.0, 4.0, 0.05, 0.2) == math.inf
        # C(eps) = eps * kappa(eps) stays finite there.
        assert performance_bound(0.0, 4.0, 0.05, 0.2) == pytest.approx(0.04, abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            kappa(0.1, 0.0, 0.05, 0.0)
        with pytest.raises(ParameterError):
            kappa(0.1, 4.0, -0.05, 0.0)
        with pytest.raises(ParameterError):
            kappa(0.1, 4.0, 0.05, -0.1)

    def test_monotonicity_grid(self):
        alphas = np.linspace(1.0, 8.0, 8)
        values = [kappa(0.1, a, 0.05, 0.2) for a in alphas]
        assert all(b < a for a, b in zip(values, values[1:]))
        rhos = np.linspace(0.01, 0.5, 8)
        values = [kappa(0.1, 4.0, r, 0.2) for r in rhos]
        assert all(b > a for a, b in zip(values, values[1:]))
        defects = np.linspace(0.01, 1.0, 8)
        values = [kappa(0.1, 4.0, 0.05, d) for d in defects]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPerformanceBound:
    def test_zero_defect(self):
        assert performance_bound(0.1, 4.0, 0.05, 0.0) == pytest.approx(0.05, abs=1e-12)

    def test_direct_evaluation(self):
        assert performance_bound(0.1, 4.0, 0.05, 0.2) == pytest.approx(0.09, abs=1e-12)

    def test_vanishes_with_large_alpha(self):
        values = [performance_bound(0.1, a, 0.05, 0.0) for a in (10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_ratio_identity_with_kappa(self):
        for eps in (0.01, 0.1, 0.7):
            lhs = performance_bound(eps, 4.0, 0.05, 0.3) / eps
            assert lhs == pytest.approx(kappa(eps, 4.0, 0.05, 0.3), abs=1e-12)


class TestDefectBudget:
    def test_worked_value(self):
        assert defect_budget(0.5, 0.2, 4.0, 0.05) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(InfeasibleError):
            defect_budget(0.1, 0.2, 4.0, 0.05)  # tau * alpha == 2 * epsilon

    def test_underflowing_slack_is_feasible(self):
        # alpha * tau underflows to 0 in floats; the exact slack is 1e-400.
        # The exact budget lies just below 5e-200, the nearest float.
        assert defect_budget(1e-200, 0.0, 1e-200, 0.05) == math.nextafter(5e-200, 0.0)

    def test_budget_saturates_performance_bound(self):
        tau, eps, alpha, rho = 0.5, 0.2, 4.0, 0.05
        budget = defect_budget(tau, eps, alpha, rho)
        assert abs(performance_bound(eps, alpha, rho, budget) - tau) <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    def test_budget_is_on_the_safe_side_within_an_ulp(self, tau, epsilon, alpha, rho):
        # Never above the exact budget, and less than an ulp below it; a
        # finite budget beyond the float range is the largest float.
        try:
            budget = defect_budget(tau, epsilon, alpha, rho)
        except (ParameterError, InfeasibleError):
            return
        t, e, a, r = map(Fraction, (tau, epsilon, alpha, rho))
        assert_toward_zero(budget, (a * t - 2 * e) / (4 * a * r))

    def test_budget_beyond_the_float_range_is_the_largest_float(self):
        assert defect_budget(1e308, 0.0, 4.0, 1e-10) == sys.float_info.max

    def test_monotone_in_tau_and_rho(self):
        budgets = [defect_budget(t, 0.1, 4.0, 0.05) for t in (0.3, 0.5, 0.8)]
        assert all(b > a for a, b in zip(budgets, budgets[1:]))
        budgets = [defect_budget(0.5, 0.1, 4.0, r) for r in (0.05, 0.1, 0.2)]
        assert all(b < a for a, b in zip(budgets, budgets[1:]))


class TestCertifyProbabilistic:
    def test_zero_expected_defect_passes_through_q(self):
        cert = certify_probabilistic(0.99, 4.0, 0.05, 0.5, 0.2, 0.0)
        assert cert.probability == pytest.approx(0.99, abs=1e-12)
        assert not cert.vacuous

    def test_worked_value(self):
        cert = certify_probabilistic(0.99, 4.0, 0.05, 0.5, 0.2, 0.1)
        assert cert.probability == pytest.approx(0.94, abs=1e-12)
        assert cert.radius == 0.2

    def test_zero_epsilon_with_defect_has_gain_zero(self):
        # kappa(0) is +inf, so the gain bound 1/kappa is 0; the probability
        # is 0.99 - 4*4*0.05*0.1 / (4*0.5).
        cert = certify_probabilistic(0.99, 4.0, 0.05, 0.5, 0.0, 0.1)
        assert cert.gain == 0.0
        assert cert.probability == exact_certificate(0.99, 4.0, 0.05, 0.5, 0.0, 0.1)[0]
        assert cert.probability == pytest.approx(0.95, abs=1e-15)

    def test_vacuous_when_clamped(self):
        cert = certify_probabilistic(0.5, 4.0, 0.05, 0.5, 0.2, 100.0)
        assert cert.probability == 0.0
        assert cert.vacuous

    def test_infeasible_tau(self):
        with pytest.raises(InfeasibleError):
            certify_probabilistic(0.99, 4.0, 0.05, 0.1, 0.2, 0.0)

    def test_rho_to_zero_removes_penalty(self):
        cert = certify_probabilistic(0.9, 4.0, 1e-12, 0.5, 0.2, 5.0)
        assert cert.probability == pytest.approx(0.9, abs=1e-9)

    def test_inputs_snapshot(self):
        cert = certify_probabilistic(0.9, 4.0, 0.05, 0.5, 0.2, 0.1)
        assert cert.inputs["alpha"] == 4.0
        assert cert.inputs["expected_defect"] == 0.1

    @pytest.mark.parametrize(
        "alpha, rho, tau, epsilon, expected",
        [
            # 4*alpha*rho*d and alpha*tau both overflow: the ratio was NaN.
            (1e308, 1.0, 10.0, 0.1, 1.0),
            # Only alpha*tau overflows: the ratio read 0, not about 0.043.
            (1e307, 0.1, 27.0, 8.9e307, 1.0),
            # 4*alpha*rho overflows and the defect is 0: inf * 0 was NaN.
            (1e308, 10.0, 10.0, 0.1, 0.0),
        ],
    )
    def test_overflowing_products_give_the_exact_ratio(self, alpha, rho, tau, epsilon, expected):
        cert = certify_probabilistic(0.99, alpha, rho, tau, epsilon, expected)
        # The same ratio with alpha divided out, which overflows nowhere here.
        ratio = 4.0 * rho * expected / (tau - 2.0 * epsilon / alpha)
        assert cert.probability == pytest.approx(0.99 - ratio, abs=1e-15)
        assert not cert.vacuous

    @pytest.mark.parametrize(
        "inputs, probability",
        [
            # 4*alpha*rho*d underflowed to 5e-324 and the ratio to 0: 0.99.
            ((0.99, 1e-300, 1e-12, 1e-20, 5e-324, 5e-13), 0.9897998021782678),
            # alpha * tau underflowed to 0 and was called infeasible.
            ((0.99, 1e-200, 0.05, 1e-200, 0.0, 0.0), 0.99),
        ],
    )
    def test_underflowing_products_give_the_exact_certificate(self, inputs, probability):
        cert = certify_probabilistic(*inputs)
        assert cert.probability == probability
        assert not cert.vacuous

    @pytest.mark.parametrize(
        "inputs, error, match",
        [
            ((0.9, 4.0, 0.05, math.inf, 0.1, 0.0), InfeasibleError, "tau=inf"),
            ((0.9, 4.0, 0.05, 1.0, math.inf, 0.0), InfeasibleError, "epsilon=inf"),
            ((0.9, math.inf, 0.05, 1.0, 0.1, 0.0), InfeasibleError, "alpha=inf"),
            ((0.9, 4.0, math.inf, 1.0, 0.1, 0.0), ParameterError, "rho must be finite"),
            ((0.9, 4.0, 0.05, 1.0, 0.1, math.inf), ParameterError, "expected_defect must be finite"),
        ],
    )
    def test_infinite_input_is_named(self, inputs, error, match):
        # All but the infinite epsilon ended in a bare OverflowError.
        with pytest.raises(error, match=match):
            certify_probabilistic(*inputs)
        rwp_prob, alpha, rho, tau, epsilon, expected = inputs
        if expected == 0:  # an input defect_budget takes too
            with pytest.raises(error, match=match):
                defect_budget(tau, epsilon, alpha, rho)

    @settings(max_examples=300, deadline=None)
    @given(feasible_inputs())
    def test_probability_lies_in_unit_interval(self, inputs):
        cert = certify_probabilistic(*inputs)
        assert 0.0 <= cert.probability <= 1.0
        assert cert.probability == 0.0 or not cert.vacuous
        assert (cert.probability, cert.vacuous) == exact_certificate(*inputs)

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(0.0, 1.0), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    def test_matches_the_exact_oracle(self, rwp_prob, alpha, rho, tau, epsilon, expected):
        # Subnormals, values near the float maximum, infinities and NaN: the
        # call gives the oracle's rounding of the exact value, or refuses
        # with one of rwkit's two errors exactly where the oracle does.
        want = exact_certificate(rwp_prob, alpha, rho, tau, epsilon, expected)
        try:
            cert = certify_probabilistic(rwp_prob, alpha, rho, tau, epsilon, expected)
            got = cert.probability, cert.vacuous
        except (ParameterError, InfeasibleError):
            got = None
        assert got == want
        want = exact_budget(tau, epsilon, alpha, rho)
        try:
            got = defect_budget(tau, epsilon, alpha, rho)
        except (ParameterError, InfeasibleError):
            got = None
        assert got == want


class TestRwpMapping:
    def test_worked_forward_values(self):
        p = partial_fourier_rwp(9, 0.1)
        assert p.rho == pytest.approx(1.0, abs=1e-12)
        assert p.alpha == pytest.approx(1.0 / 3.0 - 0.1, abs=1e-12)

    def test_delta_zero_limit(self):
        p = partial_fourier_rwp(900, 0.0)
        assert p.rho == pytest.approx(0.1, abs=1e-12)
        assert p.alpha == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_inverse_map(self):
        j, delta = rip_from_rwp(0.5, 0.1)
        assert j == pytest.approx(36.0, abs=1e-12)
        assert delta == pytest.approx(1.0 / 3.0 - 0.1, abs=1e-12)

    def test_round_trip(self):
        p = partial_fourier_rwp(25, 0.2)
        j, delta = rip_from_rwp(p.rho, p.alpha)
        assert j == pytest.approx(25.0, abs=1e-12)
        assert delta == pytest.approx(0.2, abs=1e-12)

    def test_delta_range_enforced(self):
        with pytest.raises(ParameterError):
            partial_fourier_rwp(9, 1.0 / 3.0)

    def test_never_fabricates_probability(self):
        assert partial_fourier_rwp(9, 0.1).rwp_prob == 0.0

    def test_extreme_rho(self):
        # rho**2 underflows to 0 or overflows: ZeroDivisionError, OverflowError,
        # or a log of 0, where J rounds to inf or 0 and the exponent is finite.
        assert rip_from_rwp(1e-200, 0.1) == (math.inf, pytest.approx(1.0 / 3.0 - 0.1))
        assert rip_from_rwp(1e200, 0.1)[0] == 0.0
        for rho in (1e-200, 1e200):
            want = rwp_probability_exponent(128, 1.0, 0.1) - 2 * math.log(128) * math.log(rho)
            assert rwp_probability_exponent(128, rho, 0.1) == pytest.approx(want, rel=1e-14)

    def test_infinite_sizes_rejected(self):
        with pytest.raises(ParameterError, match="sparsity level must be finite"):
            partial_fourier_rwp(math.inf, 0.1)
        with pytest.raises(ParameterError, match="dimension must be finite"):
            rwp_probability_exponent(math.inf, 0.5, 0.1)

    def test_probability_exponent_diagnostic(self):
        small = rwp_probability_exponent(128, 1.0, 0.2)
        large = rwp_probability_exponent(128, 0.1, 0.2)
        assert large > small > 0.0
        with pytest.raises(ParameterError):
            rwp_probability_exponent(128, 1.0, 0.5)


class TestRobustnessGain:
    def test_reciprocal(self):
        assert robustness_gain(0.5) == pytest.approx(2.0, abs=1e-12)

    def test_trivial_denoiser_baseline(self):
        assert robustness_gain(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_over_two_form(self):
        alpha = 5.0
        assert robustness_gain(kappa(0.1, alpha, 0.05, 0.0)) == pytest.approx(
            alpha / 2.0, abs=1e-12
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            robustness_gain(0.0)


class TestCertificate:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Certificate(radius=-0.1, probability=0.5, gain=1.0)
        with pytest.raises(ParameterError):
            Certificate(radius=0.1, probability=1.5, gain=1.0)
        with pytest.raises(ParameterError):
            Certificate(radius=0.1, probability=0.5, gain=-1.0)


NAN = float("nan")
CLF = LinearClassifier(weights=np.array([0.6, 0.8]))
X = np.array([1.0, 1.0])
IDENTITY = Frame("identity")

# (id, call, error, message): each call passes its argument to one scalar
# check, and raises ``error`` for NaN.
NAN_CASES = [
    ("ReconstructionParams-threshold", lambda v: ReconstructionParams(10, v, 0.5, IDENTITY),
     ParameterError, "threshold"),
    ("ReconstructionParams-iterations", lambda v: ReconstructionParams(v, 0.1, 0.5, IDENTITY),
     ParameterError, "iterations"),
    ("ReconstructionParams-subsample_prob", lambda v: ReconstructionParams(10, 0.1, v, IDENTITY),
     ParameterError, "subsample_prob"),
    ("make_partial_fourier-q", lambda v: make_partial_fourier(16, v, 0),
     ParameterError, "subsampling probability"),
    ("soft_threshold", lambda v: soft_threshold(np.ones(4), v), ParameterError, "threshold"),
    ("Frame-levels", lambda v: Frame("haar-dwt", levels=v), ParameterError, "levels"),
    ("DefectParams", lambda v: DefectParams(solution_bound=v), ParameterError, "solution_bound"),
    ("brute_force_defect", lambda v: brute_force_defect(np.ones(2), 1.0, v),
     ParameterError, "grid_step"),
    ("expected_defect", lambda v: expected_defect([np.ones(4)], IDENTITY, DefectParams(1.0), v, 0),
     ParameterError, "num_operators"),
    ("gen_data-margin_floor", lambda v: gen_data(8, 2, 2, 0, margin_floor=v),
     ParameterError, "margin_floor"),
    ("RwpParameters-rho", lambda v: RwpParameters(rho=v, alpha=0.5), ParameterError, "rho"),
    ("RwpParameters-alpha", lambda v: RwpParameters(rho=0.5, alpha=v), ParameterError, "alpha"),
    ("kappa-alpha", lambda v: kappa(0.1, v, v, 0), ParameterError, "alpha"),
    ("kappa-rho", lambda v: kappa(0.1, 4.0, v, 0), ParameterError, "rho"),
    ("kappa-max_defect", lambda v: kappa(0.1, 4.0, 0.05, v), ParameterError, "max_defect"),
    ("kappa-epsilon", lambda v: kappa(v, 4.0, 0.05, 0.2), ParameterError, "epsilon"),
    ("performance_bound-epsilon", lambda v: performance_bound(v, 4.0, 0.05, 0.0),
     ParameterError, "epsilon"),
    ("defect_budget", lambda v: defect_budget(v, 0.1, 4, 0.05), InfeasibleError, "tau"),
    ("defect_budget-epsilon", lambda v: defect_budget(0.5, v, 4, 0.05), InfeasibleError, "epsilon"),
    ("certify_probabilistic", lambda v: certify_probabilistic(0.9, 4.0, 0.05, 1.0, v, 0.0),
     ParameterError, "epsilon must be >= 0"),
    ("partial_fourier_rwp", lambda v: partial_fourier_rwp(v, 0.1), ParameterError, "sparsity level"),
    ("rwp_probability_exponent", lambda v: rwp_probability_exponent(v, 1.0, 0.1),
     ParameterError, "dimension"),
    ("robustness_gain", lambda v: robustness_gain(v), ParameterError, "kappa"),
    ("Certificate-radius", lambda v: Certificate(radius=v, probability=0.5, gain=1.0),
     ParameterError, "radius"),
    ("Certificate-gain", lambda v: Certificate(radius=0.1, probability=0.5, gain=v),
     ParameterError, "gain"),
    ("RadiusMeasurement", lambda v: RadiusMeasurement(radius=v, trials=1, method="m"),
     ParameterError, "radius"),
    ("linear_certificate-alpha", lambda v: linear_certificate(CLF, X, v, 0.05, 0.0),
     ParameterError, "alpha"),
    ("linear_certificate-defect", lambda v: linear_certificate(CLF, X, 4.0, 0.05, v),
     ParameterError, "defect"),
    ("linear_certificate-rho", lambda v: linear_certificate(CLF, X, 4.0, v, 0.0),
     ParameterError, "rho"),
    ("empirical_robust_radius-probes", lambda v: empirical_robust_radius(lambda z: 1, X, probes=v),
     ParameterError, "probes"),
    ("empirical_robust_radius-tol", lambda v: empirical_robust_radius(lambda z: 1, X, tol=v),
     ParameterError, "tol"),
]


@pytest.mark.parametrize(
    "value", [NAN, "0.1", True, None, 1j], ids=["nan", "str", "bool", "none", "complex"]
)
@pytest.mark.parametrize(
    "call, error, match", [c[1:] for c in NAN_CASES], ids=[c[0] for c in NAN_CASES]
)
def test_nan_fails_scalar_checks(call, error, match, value):
    # Checks written as `x < 0` once let NaN through to NaN results, and
    # checks without a type test raised a bare TypeError for a string and
    # took True as 1.  Only NaN may reach a check that relates parameters.
    with pytest.raises(error if isinstance(value, float) else ParameterError, match=match):
        call(value)


RAGGED = [[1.0, 0.0], [1.0]]

# Values that are not rectangular arrays of numbers: ragged, or holding
# entries that numpy reads as objects or strings.
NOT_NUMBERS = {"dict": [{}, 1.0], "strings": ["a", "b"], "none": [None, 1.0]}

PURIFY_PARAMS = ReconstructionParams(10, 0.1, 0.5, IDENTITY)

# (id, call, error[, message]): each call passes the value to one array
# input.  A call whose own rule judges entries that are not numbers names
# that rule's message; the others refuse them as not an array of numbers.
RAGGED_CASES = [
    ("SensingOperator", lambda v: SensingOperator(mask=v), ParameterError, "^mask entries must each be 0 or 1$"),
    ("LinearClassifier", lambda v: LinearClassifier(weights=v), ParameterError),
    ("make_partial_fourier", lambda v: make_partial_fourier(v, 0.5, 0), ParameterError, "axis length must be an integer"),
    ("as_signal", as_signal, ShapeError),
    ("analyze", lambda v: analyze(IDENTITY, v), ShapeError),
    ("purify", lambda v: purify(v, PURIFY_PARAMS, 0), ShapeError),
    ("defend", lambda v: defend(CLF, v, PURIFY_PARAMS, 0), ShapeError),
    ("ista_reconstruct", lambda v: ista_reconstruct(v, make_partial_fourier(2, 0.5, 0), PURIFY_PARAMS), ShapeError),
    ("soft_threshold", lambda v: soft_threshold(v, 0.1), ShapeError),
    ("coefficient_defect", lambda v: coefficient_defect(v, DefectParams(1.0)), ShapeError),
    ("predict", lambda v: predict(CLF, v), ShapeError),
    ("margin", lambda v: margin(CLF, v), ShapeError),
    ("min_perturbation", lambda v: min_perturbation(CLF, v), ShapeError),
    ("linear_certificate", lambda v: linear_certificate(CLF, v, 4.0, 0.05, 0.0), ShapeError),
    ("empirical_robust_radius", lambda v: empirical_robust_radius(lambda z: 1, v), ShapeError),
    ("extra_directions", lambda v: empirical_robust_radius(lambda z: 1, X, extra_directions=[v]), ShapeError),
    ("write_signal", lambda v: write_signal(os.devnull, v), ShapeError),
]

RECTANGULAR = "must be a rectangular array of numbers"

BAD_ARRAY_CASES = [
    pytest.param(call, RAGGED, error, RECTANGULAR, id=name) for name, call, error, *_ in RAGGED_CASES
] + [
    pytest.param(call, value, error, own[0] if own else RECTANGULAR, id=f"{name}-{kind}")
    for name, call, error, *own in RAGGED_CASES
    for kind, value in NOT_NUMBERS.items()
] + [
    pytest.param(
        lambda v: LinearClassifier(weights=v), np.array([1 + 1j, 2.0]), ParameterError,
        "^weight vector has a non-zero imaginary part$", id="LinearClassifier-complex",
    ),
] + [
    # Sizes that no array can have, for the operator's shape and for one
    # bisection level's directions, probes times the signal's size.
    pytest.param(call, value, error, "entries, more than the", id=name)
    for name, call, value, error in [
        ("make_partial_fourier-huge-1d", lambda v: make_partial_fourier(v, 0.5, 0), (2**70,), ShapeError),
        ("make_partial_fourier-huge-2d", lambda v: make_partial_fourier(v, 0.5, 0), (2**35, 2**35), ShapeError),
        ("empirical_robust_radius-huge-probes", lambda v: empirical_robust_radius(lambda z: 1, X, probes=v),
         2**70, ParameterError),
        # Within the limit alone, past it times X's two entries.
        ("empirical_robust_radius-huge-probes-times-size",
         lambda v: empirical_robust_radius(lambda z: 1, X, probes=v), 2**58, ParameterError),
    ]
]


@pytest.mark.parametrize("call, value, error, match", BAD_ARRAY_CASES)
def test_ragged_input_is_an_rwkit_error(call, value, error, match):
    # Each raised numpy's bare ValueError ("inhomogeneous shape") for the
    # ragged list.  For entries that are not numbers most raised a bare
    # TypeError or UFuncTypeError, and soft_threshold and write_signal read
    # None as NaN; complex weights gave a ComplexWarning.  A size beyond
    # numpy's reach raised its bare ValueError ("Maximum allowed dimension
    # exceeded", or "array is too big").  The suite turns warnings into
    # errors, so none may warn either.
    with pytest.raises(error, match=match):
        call(value)
