"""Second differences, the four-point stencil and order estimation."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    REF_FUNCTION,
    REF_POINT,
    REF_S,
    REF_S_DECADE,
    REF_STEP,
    cubic_text,
    random_orthogonal,
    reference_hessian,
)
from signflip.expr import evaluate, hessian, parse
from signflip.linalg import DimensionMismatchError, symmetric_eigen
from signflip.signgroup import SignPattern, conjugated_group
from signflip.stencil import (
    AllBelowNoiseFloorError,
    DEFAULT_SCALES,
    NEAR_EIGENVECTOR,
    ORDER_UNDERDETERMINED,
    PAIR_DEGENERATE,
    StencilInput,
    degeneracy_check,
    four_point_stencil,
    hessian_sign_group,
    order_estimate,
    second_difference,
)


@pytest.fixture(scope="module")
def reference_setup():
    f = parse(REF_FUNCTION, 3)
    group = hessian_sign_group(f, REF_POINT)
    g1 = group.element(SignPattern.from_string("+++"))
    g2 = group.element(SignPattern.from_string("-++"))
    return f, group, g1, g2


class TestSecondDifference:
    def test_quadratic_exact_at_dyadic_points(self):
        f = parse("x1^2", 1)
        # all quantities are dyadic, so the identity holds exactly in floats
        assert second_difference(f, [1.0], np.eye(1), [0.5]) == 2.0 * 0.25
        assert second_difference(f, [2.0], np.eye(1), [0.25]) == 2.0 * 0.0625

    def test_zero_step_is_exactly_zero(self):
        f = parse("exp(x1) + x1^3", 1)
        assert second_difference(f, [0.7], np.eye(1), [0.0]) == 0.0

    def test_matches_quadratic_form_to_fourth_order(self, reference_setup):
        f, group, g1, g2 = reference_setup
        hess = reference_hessian()
        h = REF_STEP / np.linalg.norm(REF_STEP) * 0.05
        for g in (g1, g2):
            def remainder(s):
                hs = s * h
                return second_difference(f, REF_POINT, g, hs) - float(hs @ hess @ hs)

            ratio = remainder(1.0) / remainder(0.5)
            assert 12.0 <= ratio <= 20.0

    def test_dimension_validation(self, reference_setup):
        f, group, g1, g2 = reference_setup
        with pytest.raises(DimensionMismatchError):
            second_difference(f, [1.0, 1.0], g1, [0.1, 0.1, 0.1])


class TestFourPointStencil:
    def test_reference_values(self, reference_setup):
        f, group, g1, g2 = reference_setup
        s = four_point_stencil(f, REF_POINT, g1, g2, REF_STEP)
        assert abs(s - REF_S) <= 0.01 * REF_S
        s_decade = four_point_stencil(f, REF_POINT, g1, g2, REF_STEP / 10.0)
        assert abs(s_decade - REF_S_DECADE) <= 0.01 * REF_S_DECADE

    def test_identical_elements_cancel_exactly(self, reference_setup):
        f, group, g1, g2 = reference_setup
        assert four_point_stencil(f, REF_POINT, g2, g2, REF_STEP) == 0.0

    def test_even_in_h(self, reference_setup):
        f, group, g1, g2 = reference_setup
        forward = four_point_stencil(f, REF_POINT, g1, g2, REF_STEP)
        backward = four_point_stencil(f, REF_POINT, g1, g2, -REF_STEP)
        assert forward == backward

    def test_antisymmetric_in_the_pair(self, reference_setup):
        f, group, g1, g2 = reference_setup
        forward = four_point_stencil(f, REF_POINT, g1, g2, REF_STEP)
        swapped = four_point_stencil(f, REF_POINT, g2, g1, REF_STEP)
        assert swapped == -forward

    def test_consecutive_halvings_shrink_sixteenfold(self, reference_setup):
        f, group, g1, g2 = reference_setup
        values = [
            four_point_stencil(f, REF_POINT, g1, g2, s * REF_STEP)
            for s in DEFAULT_SCALES
        ]
        for a, b in zip(values, values[1:]):
            assert 15.5 <= a / b <= 16.5


def homogeneous_quartic(rng, n):
    """Random homogeneous quartic: expression text plus brute-force evaluator."""
    exponents = [e for e in itertools.product(range(5), repeat=n) if sum(e) == 4]
    coeffs = rng.uniform(-2.0, 2.0, size=len(exponents))
    terms = []
    for c, e in zip(coeffs, exponents):
        factors = [repr(float(c))] + [f"x{i + 1}^{k}" for i, k in enumerate(e) if k > 0]
        terms.append("*".join(factors))
    text = " + ".join(terms)

    def brute(u):
        total = 0.0
        for c, e in zip(coeffs, exponents):
            term = float(c)
            for ui, k in zip(u, e):
                term *= float(ui) ** k
            total += term
        return total

    return text, brute


class TestQuarticExactness:
    def test_stencil_equals_twice_quartic_difference(self):
        # at x = 0 the Hessian of a homogeneous quartic vanishes, so any
        # orthogonal basis yields a valid group and S = 2(q(g1 h) - q(g2 h))
        rng = np.random.default_rng(55)
        for n in (2, 3):
            for _ in range(10):
                text, brute = homogeneous_quartic(rng, n)
                f = parse(text, n)
                group = conjugated_group(random_orthogonal(rng, n))
                signs1 = [1] * n
                signs2 = [1] * n
                signs2[int(rng.integers(n))] = -1
                g1 = group.element(SignPattern(tuple(signs1)))
                g2 = group.element(SignPattern(tuple(signs2)))
                h = rng.uniform(-0.7, 0.7, size=n)
                s = four_point_stencil(f, np.zeros(n), g1, g2, h)
                expected = 2.0 * (brute(g1.matrix @ h) - brute(g2.matrix @ h))
                assert abs(s - expected) <= 1e-12 * max(1.0, abs(expected))


class TestCubicAnnihilation:
    def test_cubics_produce_no_signal(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            f = parse(cubic_text(rng, n), n)
            x = rng.uniform(-1.0, 1.0, size=n)
            h = rng.uniform(0.1, 0.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            group = hessian_sign_group(f, x)
            p1 = SignPattern(tuple(rng.choice([1, -1], size=n).tolist()))
            p2 = SignPattern(tuple(rng.choice([1, -1], size=n).tolist()))
            g1 = group.element(p1)
            g2 = group.element(p2)
            s = four_point_stencil(f, x, g1, g2, h)
            evaluations = [
                abs(evaluate(f, x + g1.matrix @ h)),
                abs(evaluate(f, x - g1.matrix @ h)),
                abs(evaluate(f, x + g2.matrix @ h)),
                abs(evaluate(f, x - g2.matrix @ h)),
            ]
            assert abs(s) <= 1e-12 * sum(evaluations)


class TestDegeneracyCheck:
    def test_identical_identity_pair(self):
        warnings = degeneracy_check(np.eye(2), np.eye(2), [0.1, 0.2])
        assert [w.kind for w in warnings] == [PAIR_DEGENERATE]

    def test_opposite_pair(self, reference_setup):
        f, group, g1, g2 = reference_setup
        minus = group.element(SignPattern.from_string("+--"))
        flipped = group.element(SignPattern.from_string("-++"))
        # +-- = -(-++) up to the sign of every eigenvector row
        warnings = degeneracy_check(flipped, minus, REF_STEP)
        assert any(w.kind == PAIR_DEGENERATE for w in warnings)

    def test_eigenvector_step_flagged(self, reference_setup):
        f, group, g1, g2 = reference_setup
        warnings = degeneracy_check(g1, g2, group.basis[0])
        kinds = [(w.kind, w.element) for w in warnings]
        assert (NEAR_EIGENVECTOR, 2) in kinds

    def test_step_fixed_by_an_element_flagged(self, reference_setup):
        f, group, g1, g2 = reference_setup
        # "+-+" keeps the first basis row, so it fixes this step (not up to a sign)
        fixing = group.element(SignPattern.from_string("+-+"))
        warnings = degeneracy_check(fixing, g2, group.basis[0])
        kinds = [(w.kind, w.element) for w in warnings]
        assert (NEAR_EIGENVECTOR, 1) in kinds and (NEAR_EIGENVECTOR, 2) in kinds

    def test_identity_elements_exempt_from_eigenvector_check(self, reference_setup):
        f, group, g1, g2 = reference_setup
        # every vector is an eigenvector of the identity element, which is
        # exactly the useful base configuration, so no warning for element 1
        warnings = degeneracy_check(g1, g2, REF_STEP)
        assert warnings == ()

    def test_custom_tolerance(self, reference_setup):
        f, group, g1, g2 = reference_setup
        h = group.basis[0] + 0.05 * group.basis[1]
        loose = degeneracy_check(g1, g2, h, tol=0.1)
        tight = degeneracy_check(g1, g2, h, tol=1e-6)
        assert any(w.kind == NEAR_EIGENVECTOR for w in loose)
        assert not any(w.kind == NEAR_EIGENVECTOR for w in tight)


class TestStencilInputValidation:
    def test_zero_h_rejected(self):
        f = parse("x1^2", 1)
        with pytest.raises(ValueError):
            StencilInput(f, [0.0], [0.0], SignPattern((1,)), SignPattern((-1,)))

    def test_scales_must_decrease(self):
        f = parse("x1^2", 1)
        with pytest.raises(ValueError):
            StencilInput(
                f, [0.0], [0.1], SignPattern((1,)), SignPattern((-1,)), scales=(0.5, 1.0)
            )
        with pytest.raises(ValueError):
            StencilInput(
                f, [0.0], [0.1], SignPattern((1,)), SignPattern((-1,)), scales=(1.0, -0.5)
            )

    def test_vector_lengths_checked(self):
        f = parse("x1 + x2", 2)
        with pytest.raises(DimensionMismatchError):
            StencilInput(f, [0.0], [0.1, 0.1], SignPattern((1, 1)), SignPattern((-1, 1)))

    def test_pattern_lengths_checked(self):
        f = parse("x1 + x2", 2)
        with pytest.raises(DimensionMismatchError):
            StencilInput(f, [0.0, 0.0], [0.1, 0.1], SignPattern((1,)), SignPattern((-1, 1)))


class TestOrderEstimate:
    def test_reference_default_ladder(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
        )
        report = order_estimate(inp)
        assert 3.9 <= report.fitted_order <= 4.1
        assert report.warnings == ()
        assert len(report.rows) == len(DEFAULT_SCALES)
        assert report.rows[0].four_point == pytest.approx(REF_S, rel=0.01)

    def test_reference_decade_fit(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
            scales=(1.0, 0.1),
        )
        report = order_estimate(inp)
        assert 3.99 <= report.fitted_order <= 4.01

    def test_supplied_group_matches_derived(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
        )
        auto = order_estimate(inp)
        supplied = order_estimate(inp, group)
        assert auto.rows == supplied.rows
        assert auto.fitted_order == supplied.fitted_order

    def test_rows_equal_the_per_call_stencils(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(f, REF_POINT, REF_STEP, g1.pattern, g2.pattern)
        for r in order_estimate(inp, group).rows:
            hs = r.scale * REF_STEP
            assert r.four_point == four_point_stencil(f, REF_POINT, g1, g2, hs)
            assert r.second_diff_1 == second_difference(f, REF_POINT, g1, hs)
            assert r.second_diff_2 == second_difference(f, REF_POINT, g2, hs)

    @pytest.mark.parametrize("terms", [1200, 3000])
    def test_long_sum_runs_without_recursion(self, terms):
        coeffs = np.random.default_rng(terms).uniform(0.5e-3, 1e-3, size=terms).tolist()
        cubic = " + ".join(f"{c!r}*x1^2*x2" for c in coeffs)
        f = parse("x1^4 + 2*x2^4 + 3*x1^2 - x2^2 + x1*x2 + " + cubic, 2)
        inp = StencilInput(
            f, [0.7, 1.3], [0.2, 0.1], SignPattern.from_string("++"), SignPattern.from_string("-+")
        )
        report = order_estimate(inp)
        assert len(report.rows) == len(DEFAULT_SCALES)
        assert abs(report.fitted_order - 4.0) < 0.01

    def test_group_dimension_checked(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
        )
        with pytest.raises(DimensionMismatchError):
            order_estimate(inp, conjugated_group(np.eye(2)))

    def test_needs_two_scales(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
            scales=(1.0,),
        )
        with pytest.raises(ValueError):
            order_estimate(inp)

    def test_hquad_column_scales_quadratically(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
        )
        rows = order_estimate(inp).rows
        base = float(REF_STEP @ reference_hessian() @ REF_STEP)
        for r in rows:
            assert r.hquad == pytest.approx(base * r.scale**2, rel=1e-12)

    def test_cubic_all_below_floor(self):
        f = parse("x1^3 + x1*x2 - x2^3", 2)
        inp = StencilInput(
            f, [0.5, 0.25], [0.1, 0.05], SignPattern((1, 1)), SignPattern((-1, 1))
        )
        with pytest.raises(AllBelowNoiseFloorError):
            order_estimate(inp)

    def test_degenerate_pair_reports_warning_in_error(self):
        f = parse("x1^4", 1)
        inp = StencilInput(f, [0.0], [0.3], SignPattern((1,)), SignPattern((-1,)))
        with pytest.raises(AllBelowNoiseFloorError) as info:
            order_estimate(inp)
        assert any(w.kind == PAIR_DEGENERATE for w in info.value.warnings)

    def test_single_scale_above_floor_gives_nan(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
            scales=(1.0, 1e-5),
        )
        report = order_estimate(inp)
        assert math.isnan(report.fitted_order)
        assert any(w.kind == ORDER_UNDERDETERMINED for w in report.warnings)


class TestReportSerialization:
    @pytest.fixture()
    def report(self, reference_setup):
        f, group, g1, g2 = reference_setup
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
        )
        return order_estimate(inp)

    def test_csv_header_and_full_precision(self, report):
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "scale,S,second_diff_1,second_diff_2,hquad"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert float(first[0]) == report.rows[0].scale
        assert float(first[1]) == report.rows[0].four_point
        assert float(first[4]) == report.rows[0].hquad

    def test_table_contains_six_digit_values(self, report):
        table = report.table()
        assert table.splitlines()[0].split() == [
            "scale",
            "S",
            "second_diff_1",
            "second_diff_2",
            "hquad",
        ]
        assert f"{report.rows[0].four_point:.6g}" in table
