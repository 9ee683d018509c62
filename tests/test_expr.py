"""Expression parsing, the evaluation tape, hyper-dual AD and pretty-printing."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    AD_CORPUS,
    REF_FUNCTION,
    HyperDual,
    fd_gradient,
    fd_hessian,
    guarded_relative,
    oracle_root,
    pairwise_gradient,
    pairwise_hessian,
    reference_hessian,
    render,
    tree_eval,
)
from signflip.expr import (
    MAX_NESTING,
    Binary,
    Call,
    DomainError,
    Expression,
    Neg,
    Number,
    ParseError,
    UnknownIdentifierError,
    Var,
    VarIndexError,
    _lower,
    evaluate,
    evaluate_points,
    gradient,
    hessian,
    parse,
    to_string,
)
from signflip.linalg import DimensionMismatchError, is_symmetric


class TestParse:
    def test_reference_function_structure(self):
        e = parse(REF_FUNCTION, 3)
        # top level is a chain of +/- over five terms, left-associated
        assert isinstance(e.root, Binary) and e.root.op == "-"
        assert e.n_vars == 3

    def test_unary_minus_binds_looser_than_power(self):
        e = parse("-x1^2", 1)
        assert isinstance(e.root, Neg)
        assert isinstance(e.root.child, Binary) and e.root.child.op == "^"
        assert evaluate(e, [3.0]) == -9.0

    def test_power_right_associative(self):
        e = parse("x1^x2^2", 2)
        assert evaluate(e, [2.0, 3.0]) == 2.0**9

    def test_power_binds_tighter_than_product(self):
        assert evaluate(parse("2*x1^2", 1), [3.0]) == 18.0

    def test_negative_exponent_via_unary(self):
        assert evaluate(parse("2^-2", 1), [0.0]) == 0.25

    def test_number_forms(self):
        e = parse("1e-3 + .5 + 2.5E+1 + 7", 1)
        assert evaluate(e, [0.0]) == 1e-3 + 0.5 + 25.0 + 7.0

    def test_whitespace_insensitive(self):
        a = parse("x1 + 2 * x2", 2)
        b = parse("x1+2*x2", 2)
        assert a.root == b.root

    def test_parentheses_override(self):
        assert evaluate(parse("(x1 + x2)^2", 2), [1.0, 2.0]) == 9.0

    def test_function_calls_nest(self):
        e = parse("sin(cos(exp(x1)))", 1)
        assert evaluate(e, [0.0]) == math.sin(math.cos(1.0))

    def test_var_index_out_of_range(self):
        with pytest.raises(VarIndexError):
            parse("x4", 3)

    @pytest.mark.parametrize("text", ["y1 + 2", "x0", "x01", "tan(x1)", "nan"])
    def test_unknown_identifiers(self, text):
        with pytest.raises(UnknownIdentifierError):
            parse(text, 2)

    @pytest.mark.parametrize(
        "text", ["", "   ", "x1 +", "(x1", "x1)", "x1 x2", "sin x1", "1 + $", "*x1", "x1^"]
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse(text, 2)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("x1 + $", 1)
        assert info.value.position == 5

    def test_rejects_bad_n_vars(self):
        with pytest.raises(ValueError):
            parse("x1", 0)

    def test_any_whitespace_separates_tokens(self):
        assert parse("x1\n+\tx2\u00a0*\r2", 2).root == parse("x1 + x2*2", 2).root

    def test_error_position_after_whitespace(self):
        with pytest.raises(ParseError) as info:
            parse("x1 +\n  #", 1)
        assert info.value.position == 7


NESTED = {
    "parentheses": lambda d: "(" * d + "x1" + ")" * d,
    "calls": lambda d: "sin(" * d + "x1" + ")" * d,
    "minus": lambda d: "-" * d + "x1",
    "powers": lambda d: "x1" + "^x1" * d,
}


class TestNesting:
    @pytest.mark.parametrize("form", NESTED)
    def test_at_the_cap_parses_and_evaluates(self, form):
        e = parse(NESTED[form](MAX_NESTING), 1)
        assert math.isfinite(evaluate(e, [1.0]))
        assert parse(to_string(e), 1).root == e.root

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200, 3000])
    @pytest.mark.parametrize("form", NESTED)
    def test_past_the_cap_is_a_parse_error(self, form, depth):
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(NESTED[form](depth), 1)

    @pytest.mark.parametrize("suffix", ["", ")", " x1", " + $", " + x9"])
    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
    @pytest.mark.parametrize("form", NESTED)
    def test_as_the_two_pass_oracle(self, form, depth, suffix):
        # a lexical error after the point of a syntax error still wins
        text = NESTED[form](depth) + suffix
        assert parse_outcome(text, 1, one_pass) == parse_outcome(text, 1, two_pass)


PARSE_CORPUS = [
    "", "   ", "x1 +", "(x1", "x1)", "x1 x2", "sin x1", "1 + $", "*x1", "x1^", "y1 + 2", "x0",
    "x01", "tan(x1)", "nan", "x4", "x1 +\n  #", "x1\n+\tx2\u00a0*\r2", "-x1^2", "x1^x2^2", "2^-2",
    "1e-3 + .5 + 2.5E+1 + 7", "x1^(2)", "x1^((2))", "x1^(-2)", "x1 - -x2", "sin(", "sin()", "()",
    "x1^-x2^2*3", "2*-x1", "x1 $ (", "( x9", "x1 ) y", "sin(x1))", "x1e5", "1e", "1.e3", ".e3",
    "x1abc", "x10a", "x1_", "\u0663 + x1", "--x1", "x1--x1", "sin(x1) x4", "(x1 + ) $", "exp x9",
]


def hex_tape(tape) -> list:
    return [(op, arg.hex() if isinstance(arg, float) else arg) for op, arg in tape]


def parse_outcome(text: str, n: int, parser):
    """The tape of ``parser(text, n)``, constants as float.hex, or its error's class, message and position."""
    try:
        return hex_tape(parser(text, n))
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def one_pass(text, n):
    return parse(text, n).tape


def two_pass(text, n):
    return _lower(oracle_root(text, n))


@pytest.mark.parametrize("text", PARSE_CORPUS)
def test_corpus_parses_as_the_two_pass_oracle(text):
    for n in (1, 2, 3):
        assert parse_outcome(text, n, one_pass) == parse_outcome(text, n, two_pass)


class TestEvaluate:
    def test_reference_function_value(self):
        e = parse(REF_FUNCTION, 3)
        assert evaluate(e, [1.0, 1.0, 1.0]) == math.sin(1.0) - 2.0

    def test_simple_sum(self):
        assert evaluate(parse("x1+x2", 2), [2.0, 3.0]) == 5.0

    def test_point_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(parse("x1", 1), [1.0, 2.0])

    @pytest.mark.parametrize(
        ("text", "point"),
        [
            ("log(x1)", [0.0]),
            ("log(x1)", [-1.0]),
            ("sqrt(x1)", [-0.5]),
            ("x1/x2", [1.0, 0.0]),
            ("x1^-2", [0.0]),
            ("x1^0.5", [-2.0]),
            ("x1^x2", [-2.0, 0.5]),
        ],
    )
    def test_domain_errors(self, text, point):
        with pytest.raises(DomainError):
            evaluate(parse(text, 2 if "x2" in text else 1), point)

    def test_sqrt_at_zero_evaluates(self):
        assert evaluate(parse("sqrt(x1)", 1), [0.0]) == 0.0

    def test_zero_to_zero_is_one(self):
        assert evaluate(parse("x1^0", 1), [0.0]) == 1.0

    def test_integer_power_of_negative_base(self):
        assert evaluate(parse("x1^3", 1), [-2.0]) == -8.0

    def test_deterministic(self):
        e = parse(REF_FUNCTION, 3)
        p = [0.3, 0.7, 1.9]
        assert evaluate(e, p) == evaluate(e, p)


class TestNonFinite:
    def test_overflowing_value(self):
        with pytest.raises(DomainError):
            evaluate(parse("x1*1e308*10", 1), [1.0])

    def test_overflowing_point_among_many(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="index 1"):
                evaluate_points(parse("x1*1e308", 1), [[1.0], [100.0], [2.0]])

    @pytest.mark.parametrize("derivative", [gradient, hessian])
    def test_overflowing_derivatives(self, derivative):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                derivative(parse("x1/x2", 2), [1.0, 1e-320])

    def test_sine_of_infinity(self):
        with pytest.raises(DomainError):
            evaluate(parse("sin(x1*1e308*10)", 1), [1.0])

    def test_product_of_constants_carries_no_derivative(self):
        # 0 * inf is NaN, but as a plain float it has no derivatives to spoil
        e = parse("x1^2 + 0*2^1024", 1)
        assert gradient(e, [1.5]).tolist() == pairwise_gradient(e, [1.5]).tolist() == [3.0]
        assert hessian(e, [1.5]).tolist() == pairwise_hessian(e, [1.5]).tolist() == [[2.0]]


class TestTape:
    def test_lowered_once(self):
        e = parse(REF_FUNCTION, 3)
        assert e.tape is e.tape

    def test_power_by_a_number_is_one_instruction(self):
        # x1, ^2 as one instruction, 2, ^x1 as a constant and a power
        assert len(parse("x1^2 + 2^x1", 1).tape) == 6

    def test_equal_expressions_ignore_the_tape(self):
        a, b = parse("x1 + 1", 1), parse("x1 + 1", 1)
        a.tape
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("terms", [1200, 3000])
    def test_long_sums_run_without_recursion(self, terms):
        coeffs = np.random.default_rng(terms).uniform(0.5, 1.0, size=terms).tolist()
        e = parse(" + ".join(f"{c!r}*x1^2*x2" for c in coeffs), 2)
        x = [0.7, 1.3]
        c = math.fsum(coeffs)
        assert evaluate(e, x) == pytest.approx(c * 0.7**2 * 1.3, rel=1e-12)
        assert evaluate_points(e, [x, x]).tolist() == [evaluate(e, x)] * 2
        assert_allclose(gradient(e, x), [c * 2 * 0.7 * 1.3, c * 0.7**2], rtol=1e-12)
        assert_allclose(hessian(e, x), [[c * 2 * 1.3, c * 2 * 0.7], [c * 2 * 0.7, 0.0]], rtol=1e-12)
        text = str(e)
        assert text == to_string(e.root) == " + ".join(f"{c!r}*x1^2.0*x2" for c in coeffs)
        assert repr(e) == f"parse({text!r}, 2)"
        again = parse(text, 2)
        assert again == e and hash(again) == hash(e)


class TestEvaluatePoints:
    def test_rows_are_points(self):
        e = parse(REF_FUNCTION, 3)
        pts = np.array([[1.0, 1.0, 1.0], [0.3, -0.2, 2.0]])
        assert evaluate_points(e, pts).tolist() == [evaluate(e, p) for p in pts]

    def test_constant_broadcasts(self):
        assert evaluate_points(parse("2*3", 2), np.zeros((3, 2))).tolist() == [6.0] * 3

    def test_result_is_a_fresh_array(self):
        pts = np.array([[1.0], [2.0]])
        out = evaluate_points(parse("x1", 1), pts)
        out[0] = 9.0
        assert pts[0, 0] == 1.0

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2)])
    def test_shape_checked(self, shape):
        with pytest.raises(DimensionMismatchError):
            evaluate_points(parse("x1 + x2", 2), np.zeros(shape))


class TestHyperDual:
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=8, max_size=8
        )
    )
    def test_product_rule_identity(self, raw):
        a = HyperDual(*raw[:4])
        b = HyperDual(*raw[4:])
        p = a * b
        assert p.d12 == a.value * b.d12 + a.d1 * b.d2 + a.d2 * b.d1 + a.d12 * b.value

    def test_reciprocal_inverts(self):
        a = HyperDual(2.0, 0.5, -1.5, 0.25)
        one = a * a.reciprocal()
        assert one.value == pytest.approx(1.0, rel=1e-15)
        assert one.d1 == pytest.approx(0.0, abs=1e-15)
        assert one.d2 == pytest.approx(0.0, abs=1e-15)
        assert one.d12 == pytest.approx(0.0, abs=1e-15)

    def test_division_by_zero_value(self):
        with pytest.raises(DomainError):
            HyperDual(1.0, 1.0) / HyperDual(0.0, 1.0)

    def test_float_promotion(self):
        a = HyperDual(3.0, 1.0)
        assert (2.0 + a).value == 5.0
        assert (2.0 * a).d1 == 2.0
        assert (2.0 - a).d1 == -1.0
        assert (1.0 / HyperDual(2.0, 1.0)).d1 == -0.25


class TestGradient:
    def test_reference_first_component(self):
        e = parse(REF_FUNCTION, 3)
        g = gradient(e, [1.0, 1.0, 1.0])
        assert g[0] == pytest.approx(3.0 + math.cos(1.0), rel=1e-15)
        assert g[1] == pytest.approx(-7.0 + math.sin(1.0), rel=1e-15)
        assert g[2] == pytest.approx(0.0, abs=1e-15)

    def test_constant_gradient_zero(self):
        assert np.array_equal(gradient(parse("5", 2), [3.0, 4.0]), np.zeros(2))

    def test_product_rule(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            a, b = rng.normal(size=2)
            g = gradient(parse("x1*x2", 2), [a, b])
            assert g[0] == b and g[1] == a

    def test_non_integer_power(self):
        g = gradient(parse("x1^2.5", 1), [4.0])
        assert g[0] == pytest.approx(2.5 * 4.0**1.5, rel=1e-15)

    def test_sqrt_derivative_domain(self):
        with pytest.raises(DomainError):
            gradient(parse("sqrt(x1)", 1), [0.0])


class TestHessian:
    def test_reference_hessian(self):
        e = parse(REF_FUNCTION, 3)
        h = hessian(e, [1.0, 1.0, 1.0])
        assert float(np.max(np.abs(h - reference_hessian()))) <= 1e-12

    def test_exact_symmetry(self):
        e = parse("exp(x1*x2) + sin(x1 - x2^2)", 2)
        h = hessian(e, [0.4, -0.7])
        assert is_symmetric(h, 0.0)

    def test_quadratic_constant_hessian(self):
        e = parse("x1^2 + 4*x1*x2", 2)
        expected = np.array([[2.0, 4.0], [4.0, 0.0]])
        for point in ([0.0, 0.0], [3.0, -1.0], [100.0, 7.0]):
            assert_allclose(hessian(e, point), expected, atol=1e-12)

    def test_variable_exponent_mixed_partial(self):
        h = hessian(parse("x1^x2", 2), [2.0, 3.0])
        # d2/dx1 dx2 of x^y is x^(y-1) (1 + y log x)
        assert h[0, 1] == pytest.approx(2.0**2 * (1 + 3 * math.log(2.0)), rel=1e-14)
        assert h[1, 1] == pytest.approx(2.0**3 * math.log(2.0) ** 2, rel=1e-14)

    def test_against_finite_differences_spot(self):
        e = parse(REF_FUNCTION, 3)
        x = np.array([0.7, 1.3, 0.4])
        assert guarded_relative(fd_hessian(e, x), hessian(e, x)) <= 1e-5
        assert guarded_relative(fd_gradient(e, x), gradient(e, x)) <= 1e-7


def ast_strategy(n_vars: int):
    # non-negative literals only: the printer renders parser-produced trees,
    # and the parser never creates negative Number nodes
    leaves = st.one_of(
        st.builds(
            Number,
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(abs),
        ),
        st.builds(Var, st.integers(min_value=1, max_value=n_vars)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                Binary,
                st.sampled_from(["+", "-", "*", "/", "^"]),
                children,
                children,
            ),
            st.builds(
                Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), children
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


def outcome(fn):
    """The result, or the exception type of a failure to evaluate.

    ValueError comes only from the tree walks, whose ``math.sin`` rejects inf.
    """
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
point3 = st.tuples(coordinate, coordinate, coordinate)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(ast_strategy(3), st.lists(point3, min_size=1, max_size=6))
def test_points_pass_equals_scalar_evaluate(root, points):
    e = Expression(root, 3)
    scalar = [outcome(lambda p=p: evaluate(e, p)) for p in points]
    batch = outcome(lambda: evaluate_points(e, points))
    failures = [r for r in scalar if isinstance(r, type)]
    if isinstance(batch, type):
        assert batch in failures
    else:
        assert not failures
        assert all(map(same_bits, batch.tolist(), scalar))
    # scalar evaluate against the recursive walk: the same bits where the
    # walk is finite, a failure in both where either fails
    for p, value in zip(points, scalar):
        walk = outcome(lambda p=p: tree_eval(root, list(p)))
        if isinstance(walk, type) or not math.isfinite(walk):
            assert isinstance(value, type)
        else:
            assert not isinstance(value, type) and same_bits(value, walk)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_lanes_equal_pairwise_walks(n):
    # The contract is ==, so zeros of either sign match.  Where the tree
    # walks overflow the tape may not agree (their lifted zeros turn inf
    # into NaN), so only finite walks and domain errors count.
    @settings(max_examples=300, deadline=None)
    @given(ast_strategy(n), st.tuples(*[coordinate] * n))
    def check(root, point):
        e = Expression(root, n)
        for lanes, walks in ((hessian, pairwise_hessian), (gradient, pairwise_gradient)):
            expected = outcome(lambda: walks(e, point))
            got = outcome(lambda: lanes(e, point))
            if isinstance(expected, type):
                assert isinstance(got, type)
            elif np.all(np.isfinite(expected)):
                assert np.array_equal(got, expected)

    check()


def test_lanes_equal_pairwise_walks_on_corpus():
    rng = np.random.default_rng(71)
    for text, n, low, high in AD_CORPUS:
        e = parse(text, n)
        for _ in range(10):
            x = rng.uniform(low, high, size=n)
            assert np.array_equal(hessian(e, x), pairwise_hessian(e, x)), text
            assert np.array_equal(gradient(e, x), pairwise_gradient(e, x)), text


@settings(max_examples=300, deadline=None)
@given(ast_strategy(3))
def test_print_parse_round_trip(root):
    text = to_string(root)
    assert parse(text, 3).root == root


@settings(max_examples=300, deadline=None)
@given(ast_strategy(3))
def test_parsed_tree_is_the_oracle_tree_and_lowers_to_the_tape(root):
    text = render(root)
    e = parse(text, 3)
    assert e.tape == _lower(e.root)
    assert e.root == oracle_root(text, 3) == Expression(root, 3).root


# Pieces that make syntax errors in every position (stray operators,
# brackets, numbers and variables) and lexical ones (an unknown character
# or name, a variable past n).
FUZZ_PIECES = ["x1", "x2", "x3", "sin(", "exp", "(", ")", "(", ")", "+", "-", "*", "/", "^", " ",
               "2", "1.5", "1e", ".", "$", "x0"]


@st.composite
def mutated_text(draw):
    """Expression text with up to four pieces inserted between its words and symbols or deleted."""
    text = draw(st.sampled_from([t for t, *_ in AD_CORPUS]) | ast_strategy(3).map(render))
    parts = re.findall(r"\w+|\s+|.", text)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        k = draw(st.integers(min_value=0, max_value=len(parts)))
        if draw(st.integers(min_value=0, max_value=2)) or k == len(parts):
            parts.insert(k, draw(st.sampled_from(FUZZ_PIECES)))
        else:
            del parts[k]
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(mutated_text(), st.integers(min_value=1, max_value=3))
def test_mutated_text_parses_as_the_two_pass_oracle(text, n):
    assert parse_outcome(text, n, one_pass) == parse_outcome(text, n, two_pass)


@settings(max_examples=300, deadline=None)
@given(ast_strategy(3))
def test_printed_text_matches_the_recursive_printer(root):
    assert str(Expression(root, 3)) == to_string(root) == render(root)


@settings(max_examples=300, deadline=None)
@given(ast_strategy(3), ast_strategy(3), st.booleans())
def test_expressions_are_equal_exactly_when_trees_are(r1, r2, copy):
    if copy:
        r2 = parse(render(r1), 3).root  # an equal tree built afresh
    a, b = Expression(r1, 3), Expression(r2, 3)
    assert (a == b) == (r1 == r2)
    if a == b:
        assert hash(a) == hash(b)


def small_trees(depth: int) -> list:
    """Every tree up to ``depth`` levels over a small alphabet, each once.

    It has both kinds of ``^`` (by a number and by an expression), a minus
    at every position and two function names.
    """
    leaves = [Number(2.0), Var(1)]
    trees = leaves
    for _ in range(depth):
        trees = (
            leaves
            + [Neg(t) for t in trees]
            + [Call(name, t) for name in ("sin", "cos") for t in trees]
            + [Binary(op, a, b) for op in "+-*/^" for a in trees for b in trees]
        )
    return trees


def test_every_small_tree_prints_and_compares_by_its_tape():
    trees = small_trees(2)
    expressions = [Expression(t, 1) for t in trees]
    assert len(set(expressions)) == len(trees) == 4006
    for e, t in zip(expressions, trees):
        assert str(e) == render(t)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_sum_of_squares_identities(a, b):
    e = parse("x1^2 - x2^2", 2)
    forward = evaluate(e, [a, b])
    swapped = evaluate(e, [b, a])
    assert forward == -swapped or (forward == 0.0 and swapped == 0.0)


class TestToString:
    @pytest.mark.parametrize(
        "text",
        [
            REF_FUNCTION,
            "-x1^2",
            "x1^x2^2",
            "2^-2",
            "x1*(x2 + x3)",
            "-(x1*x2)",
            "sqrt(exp(x1))/log(x2 + 3)",
            "x1 - -x2",
            "(x1 + x2)^2",
            "x1^(x2 + 1)",
            "x1 - (x2 - x3)",
            "x1/(x2/x3)",
        ],
    )
    def test_named_round_trips(self, text):
        e = parse(text, 3)
        assert parse(to_string(e), 3).root == e.root

    def test_repr_is_the_parse_call(self):
        e = parse("x1*(x2 + 1)", 2)
        assert repr(e) == "parse('x1*(x2 + 1.0)', 2)"
        assert eval(repr(e)) == e

    def test_number_of_variables_is_compared(self):
        assert parse("x1", 1) != parse("x1", 2)

    def test_power_left_operand_parenthesized(self):
        e = parse("(-x1)^2", 1)
        assert to_string(e) == "(-x1)^2.0"
        assert parse(to_string(e), 1).root == e.root
