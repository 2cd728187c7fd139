import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    margin,
    min_perturbation,
    predict,
)

from oracles import assert_toward_zero, exact_linear_certificate


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
        with pytest.raises(ParameterError, match="^weight vector contains non-finite entries$"):
            LinearClassifier(weights=np.array([bad, 1.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_numeric_array_likes_read_as_their_real_part(self, data):
        # Lists, tuples and bool, integer, real and zero-imaginary complex
        # arrays: the weights, and the x the radius reader hands its
        # pipeline, keep the bits of the complex128 read's real part (-0.0
        # and subnormals included), with no ComplexWarning.
        shape = data.draw(st.sampled_from([(3,), (2, 2)]))
        size = math.prod(shape)
        reals = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, -1e-310]))
        kind = data.draw(st.sampled_from(["list", "tuple", "bool", "int", "float", "complex"]))
        if kind == "bool":
            entries = st.booleans()
        elif kind == "int":
            entries = st.integers(-(2**63), 2**63 - 1)
        else:
            entries = reals
        arr = np.array(data.draw(st.lists(entries, min_size=size, max_size=size))).reshape(shape)
        if kind == "complex":
            arr = arr + data.draw(st.sampled_from([0.0, -0.0])) * 1j
        v = {"list": arr.tolist(), "tuple": tuple(map(tuple, arr)) if arr.ndim == 2 else tuple(arr)}.get(kind, arr)
        want = np.array(v, dtype=np.complex128).real
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empirical_robust_radius(lambda z: seen.append(z) or 1, v, probes=1, tol=1.0, radius_ceiling=1.0)
            if np.any(want):
                clf = LinearClassifier(weights=v)
                assert clf == LinearClassifier(weights=np.real(v))
                assert clf.weights.dtype == np.float64 and clf.weights.tobytes() == want.tobytes()
        assert seen[0].dtype == np.float64 and seen[0].tobytes() == want.tobytes()

    def test_weights_are_a_read_only_copy(self):
        # The direction kept beside them cannot drift from the weights: a
        # change to the caller's array leaves both alone.
        w = np.array([1.0, 2.0])
        clf = LinearClassifier(weights=w)
        w[0] = -10.0
        assert clf.weights.tolist() == [1.0, 2.0] and not clf.weights.flags.writeable
        assert predict(clf, np.array([1.0, 0.0])) == 1


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
        [predict, margin, min_perturbation, lambda clf, x: linear_certificate(clf, x, 3.0, 0.05, 0.0)],
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


def exact_direction(w, x):
    # <w, x> and ||w||^2 as exact rationals.
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(w, x))
    return dot, sum(Fraction(a) ** 2 for a in w)


def decimal(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


def normal_at(v, *shifts):
    # Whether the float v, times 2**k, lies in the normal range for every
    # k in shifts; 0 is not normal.
    exponent = math.frexp(v)[1]
    return v != 0 and math.isfinite(v) and all(-1021 <= exponent + k <= 1024 for k in shifts)


def plain_results(w, x):
    """The plain expressions of margin and min_perturbation, computed from
    w itself, and whether the classifier must give their bits.

    The classifier computes from u = w * 2**-e, where e is the frexp
    exponent of max|w|, and, where <u, x> is not normal, from x / c, with c
    the power of two that puts max|x| / c in [1, 2), if that scales x up or
    the sum overflows.  Scaling by 2**k commutes with rounding wherever every
    rounded intermediate is normal in both scales.  A sum needs no check: one
    below the normal range is exact, and none overflows, as the plain s must
    be finite and the classifier's sum is finite or, on the fork, at most
    2 n.  So the bits are due where every product, square and quotient of
    the plain expressions is normal at each scale the classifier takes, or
    exactly zero because an operand is zero.  Returns (margin, delta, clean,
    e, c).
    """
    e = math.frexp(float(np.max(np.abs(w))))[1]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        s, norm, sq = np.sum(w * x), np.linalg.norm(w), np.sum(w * w)
        m = float(abs(s) / norm)
        r = -s * w
        delta = r / sq
        s, norm, sq = float(s), float(norm), float(sq)
        s_u = float(np.sum(np.ldexp(w, -e) * x))
    big = math.frexp(float(np.max(np.abs(x))))[1] - 1
    fork = not normal_at(s_u) and (big < 0 or not math.isfinite(s_u))
    k = big if fork else 0
    clean = (
        math.isfinite(s)
        and normal_at(norm, 0, -e)
        and normal_at(sq, 0, -2 * e)
        and (s == 0 or normal_at(m, 0, -k))
        and all(
            (wi == 0 or xi == 0 or normal_at(wi * xi, 0, -e - k))
            and (wi == 0 or normal_at(wi * wi, 0, -2 * e))
            and (wi == 0 or s == 0 or (normal_at(ri, 0, -2 * e - k) and normal_at(di, 0, -k)))
            for wi, xi, ri, di in zip(w.tolist(), x.tolist(), r.tolist(), delta.tolist())
        )
    )
    return m, delta, clean, e, 2.0**k


def assert_plain_bits_or_the_exact_value(w, x):
    """margin, min_perturbation and predict of LinearClassifier(w) at x,
    under warnings as errors: the plain expressions' bits and the plain
    sign where plain_results says they are due, the exact values within the
    round-off of the scaled computation everywhere, and the exact sign as
    the label wherever the exact margin clears the inner product's share of
    that round-off."""
    clf = LinearClassifier(weights=w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_margin, got_delta, got_label = margin(clf, x), min_perturbation(clf, x), predict(clf, x)
    plain_margin, plain_delta, clean, e, c = plain_results(w, x)
    if clean:
        # The expressions margin, min_perturbation and predict had.
        assert got_margin == plain_margin
        assert got_delta.tobytes() == plain_delta.tobytes()
        assert got_label == (1 if np.sum(w * x) >= 0 else -1)
    # The exact values, and the round-off of the inner product: 4 (n + 4)
    # ulps of sum |w_i x_i|, which covers the subnormal products of a normal
    # sum; n smallest subnormals in the scale of u and x / c, at most
    # 2**(e - 1074) max|x| each in the scale of w and x, for those of a sum
    # that is not normal and for the entries of x / c; and, for each w_i below
    # 2**(e - 1022), the half subnormal by which u_i errs, times |x_i|.
    dot, norm_sq = exact_direction(w, x)
    size = sum(abs(Fraction(a) * Fraction(b)) for a, b in zip(w, x))
    ulp, tiny = Decimal(2) ** -52, Decimal(2) ** -1074
    root = decimal(norm_sq).sqrt()
    exact = abs(decimal(dot)) / root
    scale, x_max = Decimal(2) ** e, Decimal(float(np.max(np.abs(x))))
    rounded_u = sum(
        (abs(Decimal(xi)) for wi, xi in zip(w.tolist(), x.tolist()) if 0 < abs(wi) < math.ldexp(1, e - 1022)), Decimal(0)
    )
    spread = tiny * scale * (len(w) * x_max + rounded_u / 2)
    inner = (4 * (len(w) + 4) * ulp * decimal(size) + spread) / root
    assert abs(Decimal(got_margin) - exact) <= inner + 8 * ulp * exact + tiny
    if exact > inner:
        assert got_label == (1 if dot > 0 else -1)
    for got, wi in zip(got_delta.tolist(), w.tolist()):
        # Beyond the inner product's round-off, carried in proportion to
        # w_i, the rounding of u_i, of the subnormal results the direction
        # passes through before it is multiplied by c, and of the product.
        want = -decimal(dot) * Decimal(wi) / decimal(norm_sq)
        assert abs(Decimal(got) - want) <= inner * abs(Decimal(wi)) / root + 8 * ulp * abs(want) + tiny * (3 * Decimal(c) + 1 + 2 * exact)


def scaled_vectors(n):
    # n mantissas in [-1, 1] times one power of ten from 1e-310 to 1e307.
    return st.tuples(st.lists(st.floats(-1, 1), min_size=n, max_size=n), st.integers(-310, 307))


def scaled_pair(case):
    (w_mant, w_exp), (x_mant, x_exp) = case
    w = np.array(w_mant) * 10.0**w_exp
    if not np.any(w):
        w[0] = 10.0**w_exp
    return w, np.array(x_mant) * 10.0**x_exp


def lowest_bit(v):
    # The exponent of the lowest set bit of the nonzero float v.
    num, den = abs(v).as_integer_ratio()
    return (num & -num).bit_length() - den.bit_length()


class TestInnerOverflow:
    """A finite x whose inner product with the direction of w overflows: it
    is recomputed from x / c, c the power of two with max|x| / c in [1, 2),
    which is exact, so every finite sum keeps its bits wherever they are
    due."""

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

    def test_a_sum_that_cancels_below_the_normal_range_keeps_its_sign(self):
        # The big terms cancel exactly and leave -1e-310: x / c, with c near
        # 5e307, would flush that to 0 and give the label +1.
        clf = LinearClassifier(weights=np.ones(3))
        x = np.array([5e307, -5e307, -1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (predict(clf, x), predict(clf, -x)) == (-1, 1)
            got = margin(clf, x)
        assert abs(Decimal(got) - Decimal(1e-310) / Decimal(3).sqrt()) <= Decimal(2) ** -1074

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(st.one_of(st.floats(-5e307, 5e307), st.sampled_from([-5e307, 5e307])), min_size=n, max_size=n),
    )))
    # <w, x> is finite there and <u, x> = 4 <w, x> is not: the bits stay.
    @example(([0.225] * 4, [6e307] * 4))
    # <u, x> = -0.5 * 5e-324 rounds to -0: the label is the exact sign.
    @example(([-1.0, 0.0], [5e-324, 0.0]))
    # 1 * 0 + -1.4e-89 * 2.8e-246 rounds to +0, whose plain label +1 is wrong.
    @example(([0.0, -1.4081148114064099e-89], [0.0, 2.79199084554136e-246]))
    # A normal sum keeps its bits: x / c would make the one term subnormal.
    @example(([0.0, 0.0, 512.1428286789748], [0.0, -5e307, 1.0]))
    def test_margin_and_label_keep_finite_sums_and_rescale_overflow(self, wx):
        w, x = (np.array(v) for v in wx)
        if np.max(np.abs(w)) < 1e-3:
            w[0] = 1.0
        assert_plain_bits_or_the_exact_value(w, x)


class TestWeightNormRange:
    """Weights whose norm or squared norm leaves the float range, inner
    products that underflow, and a min_perturbation whose product -<w,x> w
    overflows: all three functions compute from the direction of w."""

    @pytest.mark.parametrize(
        "w, x, want_margin, want_delta, want_label",
        [
            ([1e-200, 0.0], [1.0, 0.0], 1.0, [-1.0, 0.0], 1),
            ([1e200, 0.0], [1.0, 0.0], 1.0, [-1.0, 0.0], 1),
            ([0.0, 0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0, -5e307], 5e307, [0.0, 0.0, 0.0, 0.0, 5e307], -1),
            ([-1e-200, 0.0], [1e-200, 0.0], 1e-200, [-1e-200, 0.0], -1),
            ([1e-200, 0.0], [1.2345678e-120, 0.0], 1.2345678e-120, [-1.2345678e-120, 0.0], 1),
            ([1e-160, 0.0], [1.2345678, 0.0], 1.2345678, [-1.2345678, 0.0], 1),
            ([-1.0, 0.0], [5e-324, 0.0], 5e-324, [-5e-324, 0.0], -1),
        ],
        ids=[
            "tiny-weights",
            "huge-weights",
            "overflowing-product",
            "underflowing-product",
            "subnormal-sum",
            "subnormal-squared-norm",
            "subnormal-input",
        ],
    )
    def test_under_warnings_as_errors(self, w, x, want_margin, want_delta, want_label):
        # The first raised ZeroDivisionError in margin and warned "invalid
        # value" in min_perturbation; the second warned of overflow in both
        # and gave margin 0; the third overflowed in min_perturbation.  The
        # fourth's product underflowed to 0: label +1, margin 0, direction 0.
        # The last two lost digits to a subnormal sum and squared norm:
        # margins 1.23467e-120 and 1.234575, and a direction of -1.234684.
        # The last gave label -1 and margin 5e-324 until u = w / 2 made its
        # product -0 (label +1, margin 0); x / c now keeps it.
        clf = LinearClassifier(weights=np.array(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict(clf, np.array(x)) == want_label
            assert margin(clf, np.array(x)) == want_margin
            np.testing.assert_array_equal(min_perturbation(clf, np.array(x)), want_delta)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(scaled_vectors(n), scaled_vectors(n))))
    def test_plain_bits_or_the_exact_value(self, case):
        assert_plain_bits_or_the_exact_value(*scaled_pair(case))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(scaled_vectors(n), scaled_vectors(n))), st.data())
    def test_a_power_of_two_scale_of_w_keeps_every_bit(self, case, data):
        # k runs over [-1000, 1000] where 2**k w is exact: its largest entry
        # stays below 2**1024 and its lowest bit at or above 2**-1074.
        w, x = scaled_pair(case)
        top = math.frexp(float(np.max(np.abs(w))))[1]
        low = min(lowest_bit(wi) for wi in w.tolist() if wi)
        k = data.draw(st.integers(max(-1000, -1074 - low), min(1000, 1024 - top)))
        a, b = LinearClassifier(weights=w), LinearClassifier(weights=np.ldexp(w, k))
        assert np.array_equal(np.ldexp(b.weights, -k), w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict(a, x) == predict(b, x)
            assert margin(a, x).hex() == margin(b, x).hex()
            assert min_perturbation(a, x).tobytes() == min_perturbation(b, x).tobytes()


def extreme_rows(n):
    # Rows of entries whose sums with unit-scale weights overflow, are
    # subnormal or cancel, mixed with normal ones.
    return st.lists(
        st.sampled_from([1.7e308, -1.7e308, 1e-310, -5e-324, 0.0, 1.0, -0.5]), min_size=n, max_size=n
    )


class TestBatchLabels:
    """The batch path that gen_data, read_dataset and run_eval label through
    gives each row the label and margin that predict and margin give it
    alone, including rows that take _inner's scaled fallback beside rows
    that do not."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                scaled_vectors(n),
                st.lists(
                    st.one_of(scaled_vectors(n).map(lambda v: np.array(v[0]) * 10.0 ** v[1]), extreme_rows(n)),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    @example((([1.0, 1.0], 0), [[1.7e308, 1.7e308], [1e-310, 0.0], [1.0, -0.5], [5e307, -5e307], [0.0, -0.0]]))
    def test_rows_match_predict_and_margin_bit_for_bit(self, case):
        (w_mant, w_exp), rows = case
        w = np.array(w_mant) * 10.0**w_exp
        if not np.any(w):
            w[0] = 10.0**w_exp
        clf = LinearClassifier(weights=w)
        xs = np.array(rows, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, margins = classifier._label_margin(clf, xs)
            alone = [(predict(clf, x), margin(clf, x)) for x in xs]
        assert labels.tolist() == [label for label, _ in alone]
        assert margins.tobytes() == np.array([m for _, m in alone]).tobytes()

    def test_complex_rows_label_their_real_parts(self):
        clf, x = random_pair(8, 5)
        xs = np.stack([x, -x]) + 3j
        labels, margins = classifier._label_margin(clf, xs)
        assert labels.tolist() == [predict(clf, x), predict(clf, -x)]
        assert margins.tolist() == [margin(clf, x)] * 2


class TestLinearCertificate:
    def test_worked_value(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        cert = linear_certificate(clf, np.array([2.0, 0.0]), alpha=3.0, rho=0.05, defect=0.0)
        assert cert.radius == pytest.approx(3.0, abs=1e-12)
        assert cert.gain == pytest.approx(1.5, abs=1e-12)

    def test_worked_value_with_defect(self):
        clf = LinearClassifier(weights=np.array([3.0, 4.0]))
        x = np.array([1.0, 1.0])  # margin 1.4
        cert = linear_certificate(clf, x, alpha=4.0, rho=0.05, defect=1.0)
        assert cert.radius == pytest.approx(2.4, abs=1e-12)
        assert cert.gain == pytest.approx(2.4 / 1.4, abs=1e-12)

    def test_boundary_point_trivial(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        cert = linear_certificate(clf, np.array([0.0, 3.0]), alpha=3.0, rho=0.05, defect=0.0)
        assert (cert.radius, cert.gain) == (0.0, 1.5)

    def test_zero_defect_is_alpha_margin_over_two(self):
        # The parent's two certificates agreed here to 1e-12; with one
        # function the zero-defect radius is alpha * m / 2 and the gain
        # alpha / 2, bit for bit.
        clf, x = random_pair(8, 3)
        cert = linear_certificate(clf, x, alpha=4.0, rho=0.05, defect=0.0)
        assert (cert.radius, cert.gain) == (2.0 * margin(clf, x), 2.0)

    def test_defect_at_or_above_the_margin_gives_no_certificate(self):
        clf = LinearClassifier(weights=np.array([3.0, 4.0]))
        x = np.array([1.0, 1.0])
        assert linear_certificate(clf, x, alpha=4.0, rho=0.05, defect=100.0) is None
        assert linear_certificate(clf, x, alpha=4.0, rho=0.25, defect=1.4) is None
        assert linear_certificate(clf, np.array([0.0, 0.0]), alpha=4.0, rho=0.05, defect=5e-324) is None

    @pytest.mark.parametrize("alpha", [2.0, 1.0, np.inf])
    def test_alpha_at_most_two_or_infinite_rejected(self, alpha):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        with pytest.raises(ParameterError, match="certificate alpha"):
            linear_certificate(clf, np.array([2.0, 0.0]), alpha=alpha, rho=0.05, defect=0.0)

    def test_infinite_rho_rejected(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        with pytest.raises(ParameterError, match="rho must be finite"):
            linear_certificate(clf, np.array([2.0, 0.0]), alpha=4.0, rho=np.inf, defect=0.0)

    def test_infinite_margin_and_infinite_defect(self):
        # The margin of [1.5e308, 1.5e308] under weights of ones is 2.1e308.
        clf = LinearClassifier(weights=np.ones(2))
        cert = linear_certificate(clf, np.array([1.5e308, 1.5e308]), alpha=4.0, rho=0.05, defect=1.0)
        assert (cert.radius, cert.gain, cert.inputs["margin"]) == (np.inf, 2.0, np.inf)
        assert linear_certificate(clf, np.array([1.0, 0.0]), alpha=4.0, rho=0.05, defect=np.inf) is None

    def test_radius_beyond_the_float_range_is_the_largest_float(self):
        # alpha * m / 2 is finite but above the largest float.
        clf = LinearClassifier(weights=np.array([1.0]))
        cert = linear_certificate(clf, np.array([1e308]), alpha=4.0, rho=0.05, defect=0.0)
        assert (cert.radius, cert.gain) == (sys.float_info.max, 2.0)

    def test_monotone_in_alpha_and_margin(self):
        clf = LinearClassifier(weights=np.array([1.0, 0.0]))
        radii = [
            linear_certificate(clf, np.array([2.0, 0.0]), alpha=a, rho=0.05, defect=0.0).radius
            for a in (2.5, 3.0, 4.0)
        ]
        assert all(b > a for a, b in zip(radii, radii[1:]))
        radii = [
            linear_certificate(clf, np.array([m, 0.0]), alpha=3.0, rho=0.05, defect=0.0).radius
            for m in (1.0, 2.0, 3.0)
        ]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.floats(2, 1e308, exclude_min=True),
            st.sampled_from([math.nextafter(2, 3), 2.5, 4.0, 1e308, sys.float_info.max]),
        ),
        st.one_of(st.floats(5e-324, 1e308), st.sampled_from([5e-324, 2.2e-308, 0.05, 1e308])),
        st.one_of(st.floats(0, 1e308), st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf])),
        st.one_of(
            st.integers(-3, 3).map(lambda k: ("tie", k)),
            st.floats(0, sys.float_info.max).map(lambda m: ("free", m)),
        ),
        st.booleans(),
    )
    # alpha/2 * (m - fl(4 rho d)) in floats gave 8.3e-17 here, 19 % above the
    # exact 7.0e-17.
    @example(4.0, 0.1, 0.3, ("tie", 3), False)
    @example(3.0, 0.05, 0.0, ("free", 0.0), False)
    @example(3.0, 0.05, 5e-324, ("free", 0.0), True)
    @example(1e308, 1e308, 1e308, ("tie", 1), False)
    def test_matches_the_exact_oracle(self, alpha, rho, defect, where, negative):
        # A margin k ulps from fl(4 rho d), or any finite margin; the
        # one-weight classifier at x = [+-m] has margin m exactly.
        kind, v = where
        m = v
        if kind == "tie":
            m = min(4.0 * rho * defect, sys.float_info.max) if defect else 0.0
            for _ in range(abs(v)):
                m = min(math.nextafter(m, math.inf if v > 0 else 0.0), sys.float_info.max)
        x = np.array([-m if negative else m])
        clf = LinearClassifier(weights=np.array([1.0]))
        assert margin(clf, x) == m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = linear_certificate(clf, x, alpha, rho, defect)
        want = exact_linear_certificate(alpha, rho, m, defect)
        if want is None:
            assert cert is None
        else:
            assert cert is not None
            assert (cert.radius, cert.gain) == want
            assert cert.probability == 1.0
            assert cert.inputs == {"alpha": alpha, "rho": rho, "defect": defect, "margin": m}


    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.floats(2, 1e308, exclude_min=True), st.sampled_from([2.5, 3.0, sys.float_info.max])),
        st.one_of(st.floats(5e-324, 1e308), st.sampled_from([0.05, 0.1, 1e-300])),
        st.one_of(st.floats(0, 1e308), st.sampled_from([0.0, 5e-324, 0.01, 0.3])),
        st.one_of(st.floats(0, sys.float_info.max), st.sampled_from([1.0, 1.4, 1e-300, sys.float_info.max])),
    )
    def test_each_value_is_on_the_safe_side_within_an_ulp(self, alpha, rho, defect, m):
        # The exact radius and gain, rounded toward zero: never above the
        # proven value, and less than an ulp below it.
        cert = linear_certificate(LinearClassifier(weights=np.array([1.0])), np.array([m]), alpha, rho, defect)
        a, r, d, mm = map(Fraction, (alpha, rho, defect, m))
        radius = a * (mm - 4 * r * d) / 2
        if cert is None:
            assert d > 0 and radius <= 0
            return
        assert_toward_zero(cert.radius, radius)
        assert_toward_zero(cert.gain, radius / mm if mm else a / 2)


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

    def test_complex_signal(self):
        # A complex x was read through a ComplexWarning as its real part.
        clf = LinearClassifier(weights=np.ones(4))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="signal has a non-zero imaginary part"):
                empirical_robust_radius(lambda z: predict(clf, z), x + 1e-300j, probes=2, seed=0)
            with pytest.raises(ShapeError, match="extra direction has a non-zero imaginary part"):
                empirical_robust_radius(lambda z: predict(clf, z), x, probes=2, seed=0, extra_directions=(x * 1j,))
            got = empirical_robust_radius(lambda z: predict(clf, z), x + 0j, probes=2, seed=0)
        assert got == empirical_robust_radius(lambda z: predict(clf, z), x, probes=2, seed=0)

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
