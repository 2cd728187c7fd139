import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwkit import classifier
from rwkit import (
    Frame,
    LinearClassifier,
    ParameterError,
    ReconstructionParams,
    ShapeError,
    defend,
    derived_seed,
    empirical_robust_radius,
    gen_data,
    linear_certificate,
    linear_certificate_approx,
    margin,
    min_perturbation,
    predict,
)


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    x = rng.standard_normal(n)
    return LinearClassifier(weights=w), x


class TestConstruction:
    def test_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            LinearClassifier(weights=np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ParameterError, match="weights must be finite"):
            LinearClassifier(weights=np.array([bad, 1.0]))


class TestPredict:
    def test_positive_side(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        assert predict(clf, np.array([2.0, 3.0])) == 1

    def test_negative_side(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        assert predict(clf, np.array([-2.0, 3.0])) == -1

    def test_boundary_maps_to_plus_one(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        assert predict(clf, np.array([0.0, 5.0])) == 1

    def test_scale_invariant_in_weights(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(16)
        a = LinearClassifier(weights=w)
        b = LinearClassifier(weights=3.7 * w)
        for seed in range(50):
            x = np.random.default_rng(seed).standard_normal(16)
            assert predict(a, x) == predict(b, x)

    def test_masked_prediction_matches(self):
        w = np.array([2.0, 0.0, -1.0, 0.0])
        mask = (w != 0).astype(float)
        clf = LinearClassifier(weights=w)
        for seed in range(1000):
            x = np.random.default_rng(seed).standard_normal(4)
            assert predict(clf, mask * x) == predict(clf, x)

    def test_dimension_mismatch(self):
        clf = LinearClassifier(weights=np.ones(4))
        with pytest.raises(ShapeError):
            predict(clf, np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize(
        "call",
        [predict, margin, min_perturbation, lambda clf, x: linear_certificate(clf, x, 3.0)],
        ids=["predict", "margin", "min_perturbation", "linear_certificate"],
    )
    def test_non_finite_input_rejected(self, call, bad):
        # predict labelled a NaN input -1, margin returned NaN,
        # min_perturbation gave -inf entries, and linear_certificate
        # refused "radius nan".
        clf = LinearClassifier(weights=np.ones(4))
        x = np.array([bad, 0, 0, 0])
        with pytest.raises(ShapeError, match="signal contains non-finite entries"):
            call(clf, x)


class TestMargin:
    def test_axis_aligned(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        assert margin(clf, np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_boundary(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        assert margin(clf, np.array([0.0, 7.0])) == 0.0

    def test_worked_value(self):
        clf = LinearClassifier(weights=np.array([3.0, 4.0]))
        assert margin(clf, np.array([1.0, 1.0])) == pytest.approx(1.4)


class TestMinPerturbation:
    def test_closed_form(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        delta = min_perturbation(clf, np.array([2.0, 3.0]))
        np.testing.assert_allclose(delta, [-2.0, 0.0], atol=1e-12)

    def test_boundary_gives_zero(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(
            min_perturbation(clf, np.array([0.0, 3.0])), np.zeros(2)
        )

    def test_norm_equals_margin(self):
        for seed in range(100):
            clf, x = random_pair(8, seed)
            assert abs(np.linalg.norm(min_perturbation(clf, x)) - margin(clf, x)) <= 1e-12

    def test_slightly_longer_step_flips(self):
        flipped = 0
        for seed in range(100):
            clf, x = random_pair(8, seed)
            delta = min_perturbation(clf, x)
            flipped += predict(clf, x + 1.001 * delta) != predict(clf, x)
        assert flipped == 100


class TestInnerOverflow:
    """A finite x whose plain inner product with w overflows: the product is
    recomputed from w / max|w| and x / max|x|; every finite sum is kept."""

    @pytest.mark.parametrize(
        "x, want_margin, want_label",
        [([1e308, 1e308, 0, 0], 1e308, 1), ([1e308, 1e308, -1e308, -1e308], 0.0, 1)],
        ids=["overflow", "cancelling"],
    )
    def test_overflowing_sum_under_warnings_as_errors(self, x, want_margin, want_label):
        # Both gave margin inf with "overflow encountered in reduce".
        clf = LinearClassifier(weights=np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert margin(clf, x) == want_margin
            assert predict(clf, x) == want_label
            assert predict(clf, -np.asarray(x)) == (-1 if want_margin else 1)
            delta = min_perturbation(clf, x)
        np.testing.assert_array_equal(delta, np.full(4, -want_margin / 2))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(st.one_of(st.floats(-5e307, 5e307), st.sampled_from([-5e307, 5e307])), min_size=n, max_size=n),
    )))
    def test_margin_and_label_keep_finite_sums_and_rescale_overflow(self, wx):
        w, x = (np.array(v) for v in wx)
        if np.max(np.abs(w)) < 1e-3:
            w[0] = 1.0
        clf = LinearClassifier(weights=w)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = float(np.sum(w * x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_margin, got_label = margin(clf, x), predict(clf, x)
        if math.isfinite(plain):
            # The expressions margin and predict had.
            assert got_margin == abs(plain) / float(np.linalg.norm(w))
            assert got_label == (1 if plain >= 0 else -1)
            return
        # Against the exact inner product, in units of max|x| so that every
        # float stays in range; the bound is the summation's round-off.
        c = Fraction(float(np.max(np.abs(x))))
        exact = sum(Fraction(a) * Fraction(b) for a, b in zip(w, x)) / c
        size = sum(abs(Fraction(a) * Fraction(b)) for a, b in zip(w, x)) / c
        norm = float(np.linalg.norm(w))
        slack = 4 * (len(w) + 4) * 2.0**-52 * float(size) / norm
        assert abs(got_margin / float(c) - abs(float(exact)) / norm) <= slack
        if abs(float(exact)) / norm > slack:
            assert got_label == (1 if exact > 0 else -1)


def exact_direction(w, x):
    # <w, x> and ||w||^2 as exact rationals.
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(w, x))
    return dot, sum(Fraction(a) ** 2 for a in w)


def decimal(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


class TestWeightNormRange:
    """Weights whose norm or squared norm leaves the float range, and a
    min_perturbation whose product -<w,x> w overflows: the division by the
    norm runs in two steps; every finite plain result keeps its bits."""

    @pytest.mark.parametrize(
        "w, x, want_margin, want_delta",
        [
            ([1e-200, 0.0], [1.0, 0.0], 1.0, [-1.0, 0.0]),
            ([1e200, 0.0], [1.0, 0.0], 1.0, [-1.0, 0.0]),
            ([0.0, 0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0, -5e307], 5e307, [0.0, 0.0, 0.0, 0.0, 5e307]),
        ],
        ids=["tiny-weights", "huge-weights", "overflowing-product"],
    )
    def test_under_warnings_as_errors(self, w, x, want_margin, want_delta):
        # The first raised ZeroDivisionError in margin and warned "invalid
        # value" in min_perturbation; the second warned of overflow in both
        # and gave margin 0; the third overflowed in min_perturbation.
        clf = LinearClassifier(weights=np.array(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert margin(clf, np.array(x)) == want_margin
            np.testing.assert_array_equal(min_perturbation(clf, np.array(x)), want_delta)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1, 1), min_size=n, max_size=n),
        st.integers(-310, 307),
        st.lists(st.floats(-1, 1), min_size=n, max_size=n),
        st.integers(-310, 307),
    )))
    def test_plain_bits_or_the_exact_value(self, case):
        w_mant, w_exp, x_mant, x_exp = case
        w = np.array(w_mant) * 10.0**w_exp
        if not np.any(w):
            w[0] = 10.0**w_exp
        x = np.array(x_mant) * 10.0**x_exp
        clf = LinearClassifier(weights=w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_margin, got_delta = margin(clf, x), min_perturbation(clf, x)
        s, v, c = classifier._inner(clf, x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            norm, sq = float(np.linalg.norm(v)), float(np.sum(v * v))
            plain_delta = -s * v / sq * c
        plain_margin = abs(s) / norm * c if 0 < norm < math.inf else math.inf
        # The exact values, and the round-off of the inner product: 4 (n + 4)
        # ulps of sum |w_i x_i| plus as many of the smallest subnormal, in
        # units of c when the sum was rescaled.
        dot, norm_sq = exact_direction(w, x)
        size = sum(abs(Fraction(a) * Fraction(b)) for a, b in zip(w, x))
        ulp, tiny = Decimal(2) ** -52, Decimal(2) ** -1074
        root = decimal(norm_sq).sqrt()
        exact = abs(decimal(dot)) / root
        slack = 4 * (len(w) + 4) * (ulp * decimal(size) + tiny * Decimal(c)) / root + 8 * ulp * exact
        if math.isfinite(plain_margin):
            assert got_margin == plain_margin
        else:
            assert abs(Decimal(got_margin) - exact) <= slack + tiny
        if 0 < sq < math.inf and np.all(np.isfinite(plain_delta)):
            assert got_delta.tobytes() == plain_delta.tobytes()
        else:
            # w / max|w| rounds each entry to a subnormal ulp, so an entry also
            # errs by that ulp of the largest entry, which is about the margin.
            for got, wi in zip(got_delta, w):
                want = -decimal(dot) * Decimal(wi) / decimal(norm_sq)
                assert abs(Decimal(got) - want) <= slack * abs(Decimal(wi)) / root + tiny * (1 + 2 * exact)


class TestLinearCertificate:
    def test_worked_value(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        cert = linear_certificate(clf, np.array([2.0, 0.0]), alpha=3.0)
        assert cert.radius == pytest.approx(3.0, abs=1e-12)
        assert cert.gain == pytest.approx(1.5, abs=1e-12)

    def test_boundary_point_trivial(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        cert = linear_certificate(clf, np.array([0.0, 3.0]), alpha=3.0)
        assert cert.radius == 0.0

    def test_alpha_at_most_two_rejected(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        with pytest.raises(ParameterError):
            linear_certificate(clf, np.array([2.0, 0.0]), alpha=2.0)

    def test_monotone_in_alpha_and_margin(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        radii = [
            linear_certificate(clf, np.array([2.0, 0.0]), alpha=a).radius
            for a in (2.5, 3.0, 4.0)
        ]
        assert all(b > a for a, b in zip(radii, radii[1:]))
        radii = [
            linear_certificate(clf, np.array([m, 0.0]), alpha=3.0).radius
            for m in (1.0, 2.0, 3.0)
        ]
        assert all(b > a for a, b in zip(radii, radii[1:]))


class TestLinearCertificateApprox:
    def test_zero_defect_matches_exact(self):
        clf, x = random_pair(8, 3)
        exact = linear_certificate(clf, x, alpha=4.0)
        approx = linear_certificate_approx(clf, x, alpha=4.0, rho=0.05, defect=0.0)
        assert approx.radius == pytest.approx(exact.radius, abs=1e-12)

    def test_worked_value(self):
        clf = LinearClassifier(weights=np.array([3.0, 4.0]))
        x = np.array([1.0, 1.0])  # margin 1.4
        cert = linear_certificate_approx(clf, x, alpha=4.0, rho=0.05, defect=1.0)
        assert cert.radius == pytest.approx(2.4, abs=1e-12)

    def test_hypothesis_violation_gives_no_certificate(self):
        clf = LinearClassifier(weights=np.array([3.0, 4.0]))
        x = np.array([1.0, 1.0])
        assert linear_certificate_approx(clf, x, alpha=4.0, rho=0.05, defect=100.0) is None

    def test_alpha_validated(self):
        clf, x = random_pair(4, 0)
        with pytest.raises(ParameterError):
            linear_certificate_approx(clf, x, alpha=2.0, rho=0.05, defect=0.0)


class TestEmpiricalRobustRadius:
    def test_matches_margin_with_closed_form_direction(self):
        for seed in range(10):
            clf, x = random_pair(8, seed)
            measured = empirical_robust_radius(
                lambda z: predict(clf, z),
                x,
                probes=20,
                tol=1e-3,
                seed=seed,
                extra_directions=(min_perturbation(clf, x),),
            )
            assert abs(measured.radius - margin(clf, x)) <= 1e-3
            assert measured.method == "closed-form"
            assert measured.flip_found

    def test_zero_margin_point(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        x = np.array([0.0, 1.0])
        measured = empirical_robust_radius(
            lambda z: predict(clf, z),
            x,
            probes=50,
            tol=1e-3,
            seed=0,
            extra_directions=(np.array([-1.0, 0.0]),),
        )
        assert measured.radius <= 1e-3

    @pytest.mark.parametrize("shape", [(1,), (2, 2), (5,)])
    def test_extra_direction_of_another_shape_rejected(self, shape):
        # A (1,) direction would broadcast one step onto every entry.
        with pytest.raises(ShapeError, match="does not match signal shape"):
            empirical_robust_radius(
                lambda z: 1, np.zeros(4), probes=5, seed=0, extra_directions=(np.ones(shape),)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_extra_direction_rejected(self, bad):
        # An infinite direction gave radius 0 with a RuntimeWarning, where the
        # true radius is 0.5; a NaN one was dropped without a word.
        clf = LinearClassifier(weights=np.ones(4))
        with pytest.raises(ShapeError, match="extra direction contains non-finite"):
            empirical_robust_radius(
                lambda z: predict(clf, z),
                np.array([1.0, 0.0, 0.0, 0.0]),
                extra_directions=([bad, 0.0, 0.0, 0.0],),
            )

    @pytest.mark.parametrize("scale", [1e308, 1e-200])
    def test_extra_direction_of_extreme_scale_is_kept(self, scale):
        # The norm of the first overflowed (radius 0.8165 with a
        # RuntimeWarning); the second's squared norm underflowed to 0 and
        # the direction was dropped (radius 1.8865 from random probes).
        clf = LinearClassifier(weights=np.ones(4))
        x = np.array([1.0, 0.0, 0.0, 0.0])

        def measure(u):
            return empirical_robust_radius(
                lambda z: predict(clf, z), x, probes=1, tol=1e-3, seed=3, extra_directions=(u,)
            )

        unit = measure(np.array([-1.0, -1.0, 0.0, 0.0]))
        assert unit.method == "closed-form" and abs(unit.radius - np.sqrt(0.5)) <= 1e-3
        assert measure(np.array([-scale, -scale, 0.0, 0.0])) == unit

    def test_zero_extra_direction_is_dropped(self):
        measured = empirical_robust_radius(
            lambda z: 1, np.zeros(4), probes=5, tol=0.1, seed=0, radius_ceiling=1.0,
            extra_directions=(np.zeros(4),),
        )
        assert measured.method == "bisection+random-probe"
        assert not measured.flip_found

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, bad):
        x = np.zeros(4)
        x[2] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            empirical_robust_radius(lambda z: 1, x, probes=5, seed=0)

    @pytest.mark.parametrize("probes", [2.5, True, "5", None])
    def test_non_integer_probes_rejected(self, probes):
        with pytest.raises(ParameterError, match="probes must be an integer"):
            empirical_robust_radius(lambda z: 1, np.zeros(4), probes=probes, seed=0)

    def test_constant_pipeline_reports_no_bracket(self):
        measured = empirical_robust_radius(
            lambda z: 1, np.zeros(4), probes=5, tol=0.1, seed=0, radius_ceiling=10.0
        )
        assert not measured.flip_found
        assert measured.radius == 10.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            empirical_robust_radius(lambda z: 1, np.zeros(4), probes=0)
        with pytest.raises(ParameterError):
            empirical_robust_radius(lambda z: 1, np.zeros(4), tol=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tol", np.nan),
            ("tol", np.inf),
            ("radius_ceiling", np.inf),
            ("radius_ceiling", np.nan),
            ("radius_ceiling", 0.0),
        ],
    )
    def test_non_finite_tol_or_ceiling_rejected_before_probing(self, name, value):
        # A non-finite tol or ceiling once kept the bracket doubling forever;
        # the pipeline gives up after a bounded number of calls so such a
        # loop fails the test instead of hanging it.
        clf = LinearClassifier(weights=np.array([1.0, 0.0, 0.0, 0.0]))
        calls = []

        def pipeline(z):
            calls.append(z)
            if len(calls) > 10_000:
                raise RuntimeError("bracket search did not stop")
            return predict(clf, z)

        x = np.array([-1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ParameterError, match=f"{name} must be finite and positive"):
            empirical_robust_radius(pipeline, x, probes=2, **{name: value})
        assert calls == []

    def test_defended_radius_dominates_undefended(self):
        # Desk-scale spot check (the full 50-sample version is in the
        # acceptance suite): purification does not shrink the robust radius.
        dataset = gen_data(128, 10, 4, 0, margin_floor=0.1)
        clf = dataset.classifier
        params = ReconstructionParams(
            iterations=100, threshold=0.02, subsample_prob=0.5, frame=Frame(kind="identity")
        )
        wins = 0
        for i, x in enumerate(dataset.signals):
            seed = derived_seed(0, 40, i)
            pipeline = lambda z: defend(clf, z, params, seed)
            measured = empirical_robust_radius(
                pipeline, x, probes=5, tol=0.02, seed=i, radius_ceiling=100.0
            )
            if not measured.flip_found or measured.radius >= margin(clf, x) - 1e-9:
                wins += 1
        assert wins >= 9
