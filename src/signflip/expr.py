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
variable (``evaluate``, ``evaluate_points``), sparse hyper-dual numbers
(``gradient``, ``hessian``), infix text (``to_string``) or tree nodes
(``root``).  A hyper-dual number carries its value and only the partials it
has: ``g[k]`` along each variable x_k it depends on and ``h[(i, j)]``,
i <= j, so a constant costs no derivative work and one pass gives the
gradient and the Hessian, exact to roundoff.  Transcendental functions use
``math`` value by value, so every point agrees bitwise with a one-point run
and with a recursive walk of the tree.  ``h[(i, j)]`` equals (``==``) d12 of
the walk in lane (i, j), whose hyper-dual numbers are seeded along x_i (d1)
and x_j (d2), wherever the walk is finite; the signs of zero derivatives may
differ, and where the walk multiplies a lifted zero by inf (NaN) an entry
can stay finite.  The walk divides as ``a*(1/b)`` and takes
``exp(b*log(a))`` only where it holds hyper-dual numbers, so where a ``/``
or ``^`` depends on some but not all variables its value differs between
lanes, and the tape runs once per lane instead.  A result that is not finite
raises DomainError.
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
    "sqrt": (math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / (v * math.sqrt(v))),
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


class _Mixed(Exception):
    """A ``/`` or a variable ``^`` whose value differs between lanes."""


def _accumulate(h: dict, terms) -> dict:
    """``h`` with each ``(key, t)`` of ``terms`` added in order; an absent entry becomes t."""
    for p, t in terms:
        h[p] = h[p] + t if p in h else t
    return h


class _HyperDuals:
    """Sparse hyper-dual numbers: a float, or ``(value, g, h)`` over the seeded variables.

    Each formula is the per-lane rule in the same order with absent terms
    skipped.  ``/`` and a variable ``^`` whose operands depend on some seeded
    variables but fewer than ``cover`` raise ``_Mixed``.
    """

    const = staticmethod(_Values.const)

    def __init__(self, cover: int):
        self.cover = cover
        self.ops = (None, None, lambda a, _: self.mul(-1.0, a), self.func, self.powk, self.add,
                    lambda a, b, _: self.add(a, self.mul(-1.0, b)),  # -x and a - b, exactly
                    self.mul, self.div, self.pow)

    @staticmethod
    def add(a, b, _arg=None):
        if type(a) is float:
            if type(b) is float:
                return a + b
            a, b = b, a  # IEEE addition commutes
        if type(b) is float:
            return (a[0] + b, a[1], a[2])
        return (a[0] + b[0], _accumulate(a[1].copy(), b[1].items()),
                _accumulate(a[2].copy(), b[2].items()))

    @staticmethod
    def mul(a, b, _arg=None):
        if type(a) is float:
            if type(b) is float:
                return a * b
            a, b = b, a  # IEEE multiplication commutes
        av, ag, ah = a
        if type(b) is float:
            return (av * b, {k: d * b for k, d in ag.items()}, {p: d * b for p, d in ah.items()})
        bv, bg, bh = b  # the hot path of a Hessian, so the sums are written out
        g = {k: av * d for k, d in bg.items()}
        for k, d in ag.items():
            g[k] = g[k] + d * bv if k in g else d * bv
        h = {p: av * d for p, d in bh.items()}
        for i, ai in ag.items():  # a.d1*b.d2 in lanes (i, j)
            for j, bj in bg.items():
                if i <= j:
                    h[i, j] = h[i, j] + ai * bj if (i, j) in h else ai * bj
        for i, ai in ag.items():  # then a.d2*b.d1 in lanes (j, i)
            for j, bj in bg.items():
                if j <= i:
                    h[j, i] = h[j, i] + ai * bj if (j, i) in h else ai * bj
        for p, d in ah.items():
            h[p] = h[p] + d * bv if p in h else d * bv
        return (av * bv, g, h)

    @staticmethod
    def reciprocal(a):
        v, g, h = a if type(a) is tuple else (a, {}, {})  # lifted, as the walk lifts it
        _raise_if(v == 0.0, v, "division by zero ({!r})")
        iv = 1.0 / v
        i2 = iv * iv
        # d12 = (2*d1*d2*iv - d12)*i2, and x - y is exactly -y + x
        rh = _accumulate({p: -d for p, d in h.items()},
                         [((i, j), 2.0 * gi * gj * iv) for i, gi in g.items() for j, gj in g.items() if i <= j])
        return (iv, {k: -d * i2 for k, d in g.items()}, {p: d * i2 for p, d in rh.items()})

    @staticmethod
    def chain(u, f0, f1, f2):
        """Compose an outer function (value f0, derivatives f1, f2) with u."""
        _, g, h = u
        ch = _accumulate({p: f1 * d for p, d in h.items()},
                         [((i, j), f2 * gi * gj) for i, gi in g.items() for j, gj in g.items() if i <= j])
        return (f0, {k: f1 * d for k, d in g.items()}, ch)

    def hyper_dual(self, *operands) -> bool:
        """Whether the walk holds hyper-dual operands here: in every lane, or in none."""
        seeds = set().union(*(x[1] for x in operands if type(x) is tuple))
        if 0 < len(seeds) < self.cover:
            raise _Mixed
        return bool(seeds)

    def div(self, a, b, _arg):
        if not self.hyper_dual(a, b):
            return _Values.div(a, b, None)
        return self.mul(a, self.reciprocal(b))  # a*(1/b), as the walk divides

    def powk(self, a, ev: float):
        if type(a) is float or ev == 0.0:
            return _Values.powk(a if type(a) is float else a[0], ev)
        if ev.is_integer():
            k = int(ev)
            if k > 0:
                return _powi(a, k, self.mul)
            _raise_if(a[0] == 0.0, a[0], "zero raised to a negative power ({!r})")
            return self.reciprocal(_powi(a, -k, self.mul))
        v = a[0]
        _check_positive_base(v, ev)
        return self.chain(a, v ** ev, ev * v ** (ev - 1.0), ev * (ev - 1.0) * v ** (ev - 2.0))

    def pow(self, a, b, _arg):
        if not self.hyper_dual(b):
            return self.powk(a, b)
        a = a if type(a) is tuple else (a, {}, {})  # lifted, so log's derivatives are formed too
        _raise_if(a[0] <= 0.0, a[0], "exponent depending on variables requires a positive base ({!r})")
        return self.func(self.mul(b, self.func(a, "log")), "exp")

    @staticmethod
    def func(a, name: str):
        if type(a) is float:
            return _Values.func(a, name)
        v = a[0]
        _check_function_domain(name, v)
        if name == "sqrt" and v == 0.0:
            raise DomainError("sqrt derivative undefined at zero")
        f, f1, f2 = _FUNCTION_TABLE[name]
        return _HyperDuals.chain(a, f(v), f1(v), f2(v))


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


def _partials(e: Expression, point, lanes) -> tuple[dict, dict]:
    """g and h at ``point``: one pass seeding every variable, else one per lane.

    Each lane (i, j) of ``lanes`` then runs alone, seeded along x_i and x_j.
    """
    xs = _coerce_point(e, point)

    def run(seeds, cover: int) -> tuple[dict, dict]:
        leaves = list(xs)
        for k in seeds:
            leaves[k] = (xs[k], {k: 1.0}, {})
        try:
            result = _run(e.tape, leaves, _HyperDuals(cover))
        except ZeroDivisionError as exc:
            raise DomainError(f"a derivative is not finite ({exc})") from exc
        return result[1:] if type(result) is tuple else ({}, {})

    try:
        return run(range(e.n_vars), e.n_vars)
    except _Mixed:
        g, h = {}, {}
        for i, j in lanes:
            lane_g, lane_h = run({i, j}, 1)
            g[i], h[i, j] = lane_g.get(i, 0.0), lane_h.get((i, j), 0.0)
        return g, h


def gradient(e: Expression, point) -> np.ndarray:
    """All first partials, read from g."""
    n = e.n_vars
    g = _partials(e, point, [(k, k) for k in range(n)])[0]
    return _raise_unless_finite(np.array([g.get(k, 0.0) for k in range(n)]), "the gradient")


def hessian(e: Expression, point) -> np.ndarray:
    """Symmetric matrix of second partials, h[(i, j)] stored at (i, j) and (j, i)."""
    n = e.n_vars
    h = _partials(e, point, [(i, j) for i in range(n) for j in range(i, n)])[1]
    out = np.zeros((n, n))
    for (i, j), d in h.items():
        out[i, j] = out[j, i] = d
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
