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

``parse`` emits a postfix tape in one lazy scan of the text, with no token
list or tree; ``^`` by a number is one power instruction.  An Expression is
its tape and compares and hashes by it.  One operand-stack loop runs the
tape over five kinds of operand: a float or a NumPy column of points per
variable (``evaluate``, ``evaluate_points``), hyper-dual lanes (``gradient``,
``hessian``), infix text (``to_string``) or tree nodes (``root``).
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
from dataclasses import dataclass

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


@dataclass(frozen=True, init=False)
class Expression:
    """Scalar function of ``n_vars`` variables, held as its postfix tape.

    ``parse`` emits the tape directly; ``Expression(root, n_vars)`` lowers a
    hand-built AST into one.  The tape decodes to one AST only, so equality
    and hashing use ``(n_vars, tape)`` and ``root`` is that AST, decoded on
    demand.  ``str`` prints the tape and ``repr`` is the ``parse`` call that
    rebuilds the expression.
    """

    n_vars: int
    tape: tuple

    def __init__(self, root, n_vars: int):
        vars(self).update(n_vars=n_vars, tape=_lower(root))  # frozen: set the fields directly

    @property
    def root(self):
        return _run(self.tape, [Var(k + 1) for k in range(self.n_vars)], _Tree)

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"parse({str(self)!r}, {self.n_vars})"


_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x[1-9][0-9]*(?![A-Za-z0-9]))"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<error>.)"
    r"|(?P<end>\Z)",
    re.DOTALL,
)
FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt")


def parse(text: str, n_vars: int) -> Expression:
    """Parse ``text`` into an Expression over x1..x{n_vars}.

    One recursive-descent pass over a lazy scan emits the postfix tape.  A
    lexical error (an unknown character or identifier, a variable past
    x{n_vars}) raises where the scan meets it; a syntax error first scans
    on, so the first lexical error in the whole text always wins.
    """
    if not isinstance(n_vars, int) or n_vars < 1:
        raise ValueError(f"n_vars must be a positive integer, got {n_vars!r}")
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    scan = _TOKEN_RE.finditer(text)
    tape = []
    emit = tape.append
    kind = word = None  # the next token; an operator's kind is its character
    pos = depth = 0

    def advance():
        nonlocal kind, word, pos
        m = next(scan)
        if m.lastgroup == "space":  # greedy, so never two in a row
            m = next(scan)
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "op":
            kind = word
        elif kind == "var" and int(word[1:]) > n_vars:
            raise VarIndexError(f"variable {word} out of range for n = {n_vars}", pos)
        elif kind == "name" and word not in FUNCTION_NAMES:
            raise UnknownIdentifierError(f"unknown identifier {word!r}", pos)
        elif kind == "error":
            raise ParseError(f"unexpected character {word!r}", pos)

    def fail(message: str, position: int):
        while kind != "end":
            advance()  # raises the first lexical error after the current token
        raise ParseError(message, position)

    def expect(op: str):
        if kind != op:
            fail(f"expected {op!r}, got {word or 'end of input'!r}", pos)
        advance()

    def nested(rule, position: int):
        """``rule`` one level deeper, refusing to pass MAX_NESTING."""
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            fail(f"nesting deeper than {MAX_NESTING} levels", position)
        rule()
        depth -= 1

    def expr():
        term()
        while kind == "+" or kind == "-":
            op = _BINARY[kind]
            advance()
            term()
            emit((op, None))

    def term():
        unary()
        while kind == "*" or kind == "/":
            op = _BINARY[kind]
            advance()
            unary()
            emit((op, None))

    def unary():  # also power := atom ("^" unary)?
        if kind == "-":
            at = pos
            advance()
            nested(unary, at)
            emit((_NEG, None))
            return
        atom()
        if kind == "^":
            at, start = pos, len(tape)
            advance()
            nested(unary, at)
            if len(tape) == start + 1 and tape[start][0] == _CONST:
                tape[start] = (_POWK, tape[start][1])  # ^ by a number
            else:
                emit((_POW, None))

    def atom():
        if kind == "number":
            emit((_CONST, float(word)))
            advance()
        elif kind == "var":
            emit((_VAR, int(word[1:]) - 1))
            advance()
        elif kind == "name" or kind == "(":
            name, at = word, pos
            advance()
            if name != "(":
                expect("(")
            nested(expr, at)
            expect(")")
            if name != "(":
                emit((_FUNC, name))
        else:
            fail(f"expected a number, variable, function or '(', got {word or 'end of input'!r}", pos)

    try:
        advance()
        expr()
        if kind != "end":
            fail(f"unexpected trailing input {word!r}", pos)
    finally:
        del unary  # every cycle among the closures runs through it: free them and the list now
    e = object.__new__(Expression)
    vars(e).update(n_vars=n_vars, tape=tuple(tape))  # frozen, and no tree to lower
    return e


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


class _Tree:
    """AST nodes, for decoding a tape into the one tree it encodes."""

    const = Number
    ops = (None, None, lambda a, _: Neg(a), lambda a, name: Call(name, a),
           lambda a, c: Binary("^", a, Number(c)),
           *(lambda a, b, _, op=op: Binary(op, a, b) for op in _BINARY))


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
