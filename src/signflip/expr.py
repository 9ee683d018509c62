"""Scalar functions of x1..xn: parsing, evaluation, gradients and Hessians.

The grammar (whitespace-insensitive):

    expr  := term (("+"|"-") term)* ;
    term  := unary (("*"|"/") unary)* ;
    unary := "-" unary | power ;
    power := atom ("^" unary)? ;
    atom  := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")" ;
    VAR   := "x" [1-9][0-9]* ;  FUNC := "sin"|"cos"|"exp"|"log"|"sqrt" ;

``^`` is right-associative and binds tighter than unary minus, so ``-x1^2``
means ``-(x1^2)``.  Parentheses, calls, minus signs and ``^`` may nest at
most ``MAX_NESTING`` deep.

Each Expression is lowered once, without recursion, into a postfix tape,
where ``^`` with a number as exponent is one power instruction; the tape is
what an Expression compares and hashes by.  A single operand-stack loop runs
the tape over four kinds of operand: one float per variable (``evaluate``),
one NumPy column of points per variable (``evaluate_points``), hyper-dual
lanes (``gradient`` and ``hessian``), or infix text (``to_string``).
A hyper-dual number carries a value, first partials d1 and d2 along two
seeded directions and the mixed partial d12; the Hessian runs its n(n+1)/2
index pairs as lanes of one pass, each exact to roundoff.  Transcendental
functions use ``math`` value by value, so every point agrees bitwise with a
one-point run and with a recursive walk of the tree.  Every lane equals
(``==``) a walk of the tree in that lane's hyper-dual numbers wherever the
walk is finite; the signs of zero derivatives may differ, and where the walk
overflows to NaN a lane can stay finite (see ``_Lanes``).  A result that is
not finite raises DomainError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import DimensionMismatchError

MAX_NESTING = 100


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """Identifier is neither a variable x1..xn nor a known function."""


class VarIndexError(ParseError):
    """Variable index exceeds the declared number of variables."""


class DomainError(ArithmeticError):
    """Evaluation left the mathematical domain (log, sqrt, /, ^) or the float range."""


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    child: object


@dataclass(frozen=True)
class Expression:
    """Parsed scalar function of ``n_vars`` variables.

    ``root`` is the parser's AST and ``tape`` its postfix program, lowered
    once here.  The tape decodes to one AST only, so equality and hashing
    use ``(n_vars, tape)``; ``str`` prints the tape and ``repr`` is the
    ``parse`` call that rebuilds the expression.
    """

    root: object = field(compare=False, repr=False)
    n_vars: int
    tape: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tape", _lower(self.root))

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"parse({str(self)!r}, {self.n_vars})"


_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<error>.)",
    re.DOTALL,
)
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")
FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt")


class _Token(NamedTuple):
    kind: str  # number | var | func | op | end
    text: str
    position: int
    value: float | int | None = None


def _tokenize(text: str, n_vars: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "space":
            continue
        if kind == "number":
            tokens.append(_Token("number", word, pos, float(word)))
        elif kind == "op":
            tokens.append(_Token("op", word, pos))
        elif kind == "error":
            raise ParseError(f"unexpected character {word!r}", pos)
        else:
            vm = _VAR_RE.match(word)
            if vm:
                index = int(vm.group(1))
                if index > n_vars:
                    raise VarIndexError(
                        f"variable {word} out of range for n = {n_vars}", pos
                    )
                tokens.append(_Token("var", word, pos, index))
            elif word in FUNCTION_NAMES:
                tokens.append(_Token("func", word, pos))
            else:
                raise UnknownIdentifierError(f"unknown identifier {word!r}", pos)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, got {tok.text or 'end of input'!r}", tok.position)

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def nested(self, rule, position: int):
        """Parse ``rule`` one level deeper, refusing to pass MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position)
        node = rule()
        self.depth -= 1
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+", "-"):
            op = self.next().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.next().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        if self.at_op("-"):
            return Neg(self.nested(self.unary, self.next().position))
        return self.power()

    def power(self):
        base = self.atom()
        if self.at_op("^"):
            return Binary("^", base, self.nested(self.unary, self.next().position))
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "number":
            return Number(tok.value)
        if tok.kind == "var":
            return Var(tok.value)
        if tok.kind == "func":
            self.expect_op("(")
            inner = self.nested(self.expr, tok.position)
            self.expect_op(")")
            return Call(tok.text, inner)
        if tok.kind == "op" and tok.text == "(":
            inner = self.nested(self.expr, tok.position)
            self.expect_op(")")
            return inner
        raise ParseError(
            f"expected a number, variable, function or '(', got {tok.text or 'end of input'!r}",
            tok.position,
        )


def parse(text: str, n_vars: int) -> Expression:
    """Parse ``text`` into an Expression over x1..x{n_vars}."""
    if not isinstance(n_vars, int) or n_vars < 1:
        raise ValueError(f"n_vars must be a positive integer, got {n_vars!r}")
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text, n_vars))
    root = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.position)
    del parser  # free the tokens first: holding them while lowering raises peak memory
    return Expression(root, n_vars)


# Opcodes.  Unary instructions (below _ADD) act on the top of the stack,
# binary ones pop their right operand first.  The argument is the constant
# (_CONST, _POWK), the variable index (_VAR) or the function name (_FUNC).
_VAR, _CONST, _NEG, _FUNC, _POWK, _ADD, _SUB, _MUL, _DIV, _POW = range(10)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV, "^": _POW}


def _lower(root) -> tuple:
    """Postfix tape of the AST, built with an explicit stack.

    A ``^`` whose exponent is a number becomes one _POWK instruction.
    """
    tape = []
    work = [(root, False)]
    while work:
        node, children_done = work.pop()
        if isinstance(node, Number):
            tape.append((_CONST, float(node.value)))
        elif isinstance(node, Var):
            tape.append((_VAR, node.index - 1))
        elif not children_done:
            work.append((node, True))
            if isinstance(node, Binary):
                work.append((node.right, False))
                work.append((node.left, False))
            else:
                work.append((node.child, False))
        elif isinstance(node, Neg):
            tape.append((_NEG, None))
        elif isinstance(node, Call):
            tape.append((_FUNC, node.name))
        elif node.op == "^" and isinstance(node.right, Number):
            tape[-1] = (_POWK, tape[-1][1])  # the exponent's own _CONST
        else:
            tape.append((_BINARY[node.op], None))
    return tuple(tape)


def _run(tape, leaves, algebra):
    """Run a tape on an operand stack; ``leaves[k]`` is variable k's operand."""
    stack = []
    push, pop = stack.append, stack.pop
    ops, const = algebra.ops, algebra.const
    for op, arg in tape:
        if op == _VAR:
            push(leaves[arg])
        elif op == _CONST:
            push(const(arg))
        elif op < _ADD:
            push(ops[op](pop(), arg))
        else:
            right = pop()
            push(ops[op](pop(), right, arg))
    return pop()


def _raise_if(bad, values, message: str) -> None:
    """DomainError naming the first offending value, if any flag is set."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        values = float(values[bad][0])
    elif not bad:
        return
    raise DomainError(message.format(values))


def _map(fn, v):
    """A scalar function applied value by value, so NumPy never rounds it."""
    if isinstance(v, np.ndarray):
        return np.array([fn(t) for t in v.tolist()])
    return fn(v)


def _powi(x, k: int, mul):
    """x**k for integer k >= 1 by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if not k:
            return result
        x = mul(x, x)


# value, first and second derivative of each function
_FUNCTION_TABLE = {
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (
        math.sqrt,
        lambda v: 0.5 / math.sqrt(v),
        lambda v: -0.25 / (v * math.sqrt(v)),
    ),
}


def _check_function_domain(name: str, v) -> None:
    if name == "log":
        _raise_if(v <= 0.0, v, "log of non-positive value {!r}")
    elif name == "sqrt":
        _raise_if(v < 0.0, v, "sqrt of negative value {!r}")
    elif name != "exp":
        _raise_if(np.isinf(v), v, name + " of infinite value {!r}")


def _check_positive_base(v, ev: float) -> None:
    _raise_if(v <= 0.0, v, f"non-integer exponent {ev!r} requires a positive base (base {{!r}})")


class _Values:
    """Plain IEEE arithmetic on floats or on NumPy arrays of points."""

    @staticmethod
    def const(c):
        return c

    @staticmethod
    def div(a, b, _arg):
        _raise_if(b == 0.0, b, "division by zero ({!r})")
        return a / b

    @staticmethod
    def powk(a, ev: float):
        if ev.is_integer():
            k = int(ev)
            if k == 0:
                return 1.0
            if k > 0:
                return _powi(a, k, operator.mul)
            _raise_if(a == 0.0, a, "zero raised to a negative power ({!r})")
            p = _powi(a, -k, operator.mul)
            _raise_if(p == 0.0, a, "negative power of {!r} overflows")
            return 1.0 / p
        _check_positive_base(a, ev)
        return _map(lambda t: t ** ev, a)

    @staticmethod
    def pow(a, b, _arg):
        if not isinstance(b, np.ndarray):
            return _Values.powk(a, b)
        bases, exponents = (t.tolist() for t in np.broadcast_arrays(a, b))
        return np.array([_Values.powk(x, e) for x, e in zip(bases, exponents)])

    @staticmethod
    def func(a, name: str):
        _check_function_domain(name, a)
        return _map(_FUNCTION_TABLE[name][0], a)

    ops = (None, None, lambda a, _: -a, func, powk, lambda a, b, _: a + b,
           lambda a, b, _: a - b, lambda a, b, _: a * b, div, pow)


class _Lanes:
    """Hyper-dual arithmetic on (value, d1, d2, d12, dual) across seeded lanes.

    Lane k seeds d1 along variable ``first[k]`` and d2 along ``second[k]``.
    A component is a float while it is equal in every lane and an array of
    lanes once it is not.  ``dual`` has bit k set where the operand depends
    on lane k's seeds, as a tree walk's hyper-dual number would; elsewhere
    the walk holds a plain float, so division, ``^0``, a variable exponent
    and sqrt at zero keep the float rule there.  Each formula is the per-lane
    hyper-dual rule in the same order, e.g. d12 of a product is
    ``a.v*b.d12 + a.d1*b.d2 + a.d2*b.d1 + a.d12*b.v``.

    The walk lifts a float to a hyper-dual number with +0.0 derivatives,
    while here a non-dual operand keeps the zeros its own operations left,
    e.g. -0.0 after a negation, and a product with a float in every lane
    skips the lifted zero terms.  So a lane can differ from the walk in the
    sign of a zero, and where the walk multiplies a lifted zero by inf
    (NaN), the lane can keep a finite value.
    """

    def __init__(self, first: np.ndarray, second: np.ndarray):
        self.first = first
        self.second = second
        self.full = (1 << len(first)) - 1
        self.ops = (None, None, self.neg, self.func, self.powk, self.add, self.sub,
                    self.mul, self.div, self.pow)

    def leaf(self, k: int, x: float):
        """Variable k at value x: seeded in d1, d2 or both per lane."""
        d1 = (self.first == k).astype(np.float64)
        d2 = (self.second == k).astype(np.float64)
        dual = sum(1 << lane for lane in np.flatnonzero(d1 + d2).tolist())
        return (x, d1, d2, 0.0, dual)

    @staticmethod
    def const(c):
        return (c, 0.0, 0.0, 0.0, 0)

    @staticmethod
    def neg(a, _arg):
        return (-a[0], -a[1], -a[2], -a[3], a[4])

    @staticmethod
    def add(a, b, _arg):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] | b[4])

    @staticmethod
    def sub(a, b, _arg):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3], a[4] | b[4])

    @staticmethod
    def mul(a, b, _arg=None):
        av, a1, a2, a12, adual = a
        bv, b1, b2, b12, bdual = b
        if not adual | bdual:  # two plain floats: 0 * inf must not reach d12
            return (av * bv, 0.0, 0.0, 0.0, 0)
        # A factor that is a plain float in every lane scales the other one,
        # without the full rule's zero terms (about 10% of a stencil-order op).
        if not bdual:
            return (av * bv, a1 * bv, a2 * bv, a12 * bv, adual)
        if not adual:
            return (av * bv, av * b1, av * b2, av * b12, bdual)
        return (
            av * bv,
            av * b1 + a1 * bv,
            av * b2 + a2 * bv,
            av * b12 + a1 * b2 + a2 * b1 + a12 * bv,
            adual | bdual,
        )

    @staticmethod
    def reciprocal(a):
        v, d1, d2, d12, dual = a
        _raise_if(v == 0.0, v, "division by zero ({!r})")
        iv = 1.0 / v
        i2 = iv * iv
        return (iv, -d1 * i2, -d2 * i2, (2.0 * d1 * d2 * iv - d12) * i2, dual)

    @staticmethod
    def chain(u, f0, f1, f2):
        """Compose an outer function (value f0, derivatives f1, f2) with u."""
        return (f0, f1 * u[1], f1 * u[2], f1 * u[3] + f2 * u[1] * u[2], u[4])

    def by_lane(self, method: str, entries, *args):
        """``method`` run lane by lane, for the rare mixed dual/float case."""
        results = []
        for k in range(len(self.first)):
            lane = _Lanes(self.first[k : k + 1], self.second[k : k + 1])
            split = [
                tuple(c[k].item() if isinstance(c, np.ndarray) else c for c in e[:4])
                + ((e[4] >> k) & 1,)
                for e in entries
            ]
            results.append(getattr(lane, method)(*split, *args))
        *columns, duals = zip(*results)
        dual = sum(d << k for k, d in enumerate(duals))
        return tuple(np.array(c, dtype=np.float64) for c in columns) + (dual,)

    def div(self, a, b, _arg):
        _raise_if(b[0] == 0.0, b[0], "division by zero ({!r})")
        dual = a[4] | b[4]
        if not dual:
            return (a[0] / b[0], 0.0, 0.0, 0.0, 0)
        q = self.mul(a, self.reciprocal(b))
        if dual != self.full:
            lanes = np.array([(dual >> k) & 1 for k in range(len(self.first))], dtype=bool)
            q = (np.where(lanes, q[0], a[0] / b[0]),) + q[1:]
        return q

    def powk(self, a, ev: float):
        if not a[4] or ev == 0.0:
            return (_Values.powk(a[0], ev), 0.0, 0.0, 0.0, 0)
        if ev.is_integer():
            k = int(ev)
            if k > 0:
                return _powi(a, k, self.mul)
            _raise_if(a[0] == 0.0, a[0], "zero raised to a negative power ({!r})")
            return self.reciprocal(_powi(a, -k, self.mul))
        v = a[0]
        _check_positive_base(v, ev)
        return self.chain(
            a,
            _map(lambda t: t ** ev, v),
            ev * _map(lambda t: t ** (ev - 1.0), v),
            ev * (ev - 1.0) * _map(lambda t: t ** (ev - 2.0), v),
        )

    def pow(self, a, b, _arg):
        if b[4] == self.full:  # exp(b log a), with a lifted to a hyper-dual
            _raise_if(a[0] <= 0.0, a[0],
                      "exponent depending on variables requires a positive base ({!r})")
            return self.func(self.mul(b, self.func(a[:4] + (self.full,), "log")), "exp")
        if not b[4] and not isinstance(b[0], np.ndarray):
            return self.powk(a, b[0])
        return self.by_lane("pow", (a, b), None)

    def func(self, a, name: str):
        v = a[0]
        if not a[4]:
            return (_Values.func(v, name), 0.0, 0.0, 0.0, 0)
        _check_function_domain(name, v)
        if name == "sqrt" and np.any(v == 0.0):
            if a[4] != self.full:
                return self.by_lane("func", (a,), name)
            raise DomainError("sqrt derivative undefined at zero")
        f, f1, f2 = _FUNCTION_TABLE[name]
        return self.chain(a, _map(f, v), _map(f1, v), _map(f2, v))


def _raise_unless_finite(values: np.ndarray, what: str) -> np.ndarray:
    finite = np.isfinite(values)
    if not finite.all():
        index = tuple(np.argwhere(~finite)[0].tolist())
        where = ", ".join(map(str, index))
        raise DomainError(f"{what} is not finite ({values[index].item()!r} at index {where})")
    return values


def _coerce_point(e: Expression, point) -> list[float]:
    xs = np.asarray(point, dtype=np.float64).reshape(-1).tolist()
    if len(xs) != e.n_vars:
        raise DimensionMismatchError(
            f"expression takes {e.n_vars} variables, point has {len(xs)}"
        )
    return xs


def evaluate(e: Expression, point) -> float:
    """Evaluate the expression at the point in IEEE double arithmetic."""
    value = float(_run(e.tape, _coerce_point(e, point), _Values))
    if not math.isfinite(value):
        raise DomainError(f"value {value!r} is not finite")
    return value


def evaluate_points(e: Expression, points) -> np.ndarray:
    """``evaluate`` at each row of ``points``, all rows in one pass."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != e.n_vars:
        raise DimensionMismatchError(
            f"expression takes {e.n_vars} variables, points have shape {pts.shape}"
        )
    with np.errstate(all="ignore"):
        values = _run(e.tape, list(np.array(pts.T)), _Values)
    values = np.array(np.broadcast_to(values, pts.shape[:1]))
    return _raise_unless_finite(values, "the value")


def _lane_pass(e: Expression, point, first: np.ndarray, second: np.ndarray):
    """The tape run once over the hyper-dual lanes seeded by (first, second)."""
    xs = _coerce_point(e, point)
    lanes = _Lanes(first, second)
    leaves = [lanes.leaf(k, x) for k, x in enumerate(xs)]
    with np.errstate(all="ignore"):
        try:
            result = _run(e.tape, leaves, lanes)
        except ZeroDivisionError as exc:
            raise DomainError(f"a derivative is not finite ({exc})") from exc
    return [np.broadcast_to(c, first.shape) for c in result[:4]]


def gradient(e: Expression, point) -> np.ndarray:
    """All first partials: d1 of the n diagonal lanes of one pass."""
    lanes = np.arange(e.n_vars)
    d1 = np.array(_lane_pass(e, point, lanes, lanes)[1])
    return _raise_unless_finite(d1, "the gradient")


def hessian(e: Expression, point) -> np.ndarray:
    """Symmetric matrix of second partials from one pass over n(n+1)/2 lanes.

    Lane (i, j) is seeded with d1 along i and d2 along j and read from
    d12; it is stored at (i, j) and (j, i), so the output passes a
    zero-tolerance symmetry test.
    """
    n = e.n_vars
    first, second = np.triu_indices(n)
    d12 = _lane_pass(e, point, first, second)[3]
    out = np.zeros((n, n))
    out[first, second] = d12
    out[second, first] = d12
    return _raise_unless_finite(out, "the Hessian")


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 9


def _bracket(operand, below: int) -> str:
    text, prec = operand
    return f"({text})" if prec < below else text


def _infix(symbol: str, prec: int, left_below: int, right_below: int):
    return lambda a, b, _: (_bracket(a, left_below) + symbol + _bracket(b, right_below), prec)


class _Text:
    """Infix text and its precedence, for printing a tape.

    ``^`` brackets a left operand of precedence up to its own and a right
    one below a negation; ``+ - * /`` bracket a left operand below their own
    precedence and a right one at or below it.
    """

    const = staticmethod(lambda c: (repr(c), _PREC_ATOM))
    ops = (None, None, lambda a, _: ("-" + _bracket(a, _PREC_NEG), _PREC_NEG),
           lambda a, name: (f"{name}({a[0]})", _PREC_ATOM),
           lambda a, c: (_bracket(a, _PREC_POW + 1) + "^" + repr(c), _PREC_POW),
           _infix(" + ", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1),
           _infix(" - ", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1),
           _infix("*", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1),
           _infix("/", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1),
           _infix("^", _PREC_POW, _PREC_POW + 1, _PREC_NEG))


def to_string(node) -> str:
    """Text of an Expression, or of a bare AST, that re-parses to it.

    One pass of the tape over text operands, so long sums print without
    recursion.  Round-trip holds for parser-produced trees; hand-built
    Number nodes with negative values print with a leading minus and
    re-parse as a negation node instead.
    """
    tape = node.tape if isinstance(node, Expression) else _lower(node)
    n_vars = 1 + max((arg for op, arg in tape if op == _VAR), default=-1)
    names = [(f"x{k + 1}", _PREC_ATOM) for k in range(n_vars)]
    return _run(tape, names, _Text)[0]
