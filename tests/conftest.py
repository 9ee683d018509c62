"""Shared reference data, random-matrix builders, and the derivative, printer and parser oracles."""

import itertools
import math
import re
from typing import NamedTuple

import numpy as np

from signflip.expr import (
    FUNCTION_NAMES,
    MAX_NESTING,
    Binary,
    Call,
    DomainError,
    Neg,
    Number,
    ParseError,
    UnknownIdentifierError,
    Var,
    VarIndexError,
    evaluate,
)

# Worked configuration reproduced throughout the suite: a three-variable
# function whose Hessian at (1,1,1) has the closed form below, plus the
# externally printed 4-decimal reflection and stencil values it must hit.
REF_FUNCTION = "x1*x2*x3^2 + x1^2 - 3*x2^2 + x2*sin(x1) - x2^2*x3^2"
REF_N = 3
REF_POINT = np.array([1.0, 1.0, 1.0])
REF_STEP = np.array([0.2, 0.05, 0.1])

REF_REFLECTION_4DP = np.array(
    [
        [0.9225, 0.3723, 0.1015],
        [0.3723, -0.7896, -0.4877],
        [0.1015, -0.4877, 0.8671],
    ]
)
REF_S = 6.40e-5
REF_S_DECADE = 6.38e-9


def reference_hessian() -> np.ndarray:
    s1, c1 = math.sin(1.0), math.cos(1.0)
    return np.array(
        [
            [2.0 - s1, 1.0 + c1, 2.0],
            [1.0 + c1, -8.0, -2.0],
            [2.0, -2.0, 0.0],
        ]
    )


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


# Expression corpus for the AD-versus-finite-differences comparisons.  Each
# entry is (text, n_vars, low, high) where [low, high] is a per-coordinate
# sampling box keeping every evaluation (including the FD probes) in domain.
AD_CORPUS = [
    ("x1^2 + x2^2", 2, -2.0, 2.0),
    (REF_FUNCTION, 3, -1.5, 1.5),
    ("sin(x1)*cos(x2)", 2, -3.0, 3.0),
    ("exp(x1 - x2^2)", 2, -1.5, 1.5),
    ("log(x1^2 + x2^2 + 1)", 2, -2.0, 2.0),
    ("sqrt(x1^2 + 2)", 1, -2.0, 2.0),
    ("x1^3 - 3*x1*x2 + x2^3", 2, -2.0, 2.0),
    ("1/(x1^2 + 1)", 1, -2.0, 2.0),
    ("x1/x2", 2, 0.5, 2.0),
    ("x1^4 + x2^4 - 2*x1^2*x2^2", 2, -1.5, 1.5),
    ("sin(x1*x2)", 2, -1.5, 1.5),
    ("exp(sin(x1) + cos(x2))", 2, -3.0, 3.0),
    ("x1*exp(x2)", 2, -1.5, 1.5),
    ("log(exp(x1) + exp(x2))", 2, -2.0, 2.0),
    ("sqrt(x1^2 + 1)*sin(x2)", 2, -2.0, 2.0),
    ("x1^2*x2 + x2^2*x3 + x3^2*x1", 3, -1.5, 1.5),
    ("cos(x1)^2 + sin(x1)^2", 1, -3.0, 3.0),
    ("x1^5 - x2^5", 2, -1.5, 1.5),
    ("(x1 + x2)^3/(x1^2 + 1)", 2, -2.0, 2.0),
    ("exp(-x1^2 - x2^2)", 2, -1.5, 1.5),
    ("x1^2.5", 1, 0.5, 3.0),
    ("x2^x1", 2, 0.5, 2.0),
    ("sin(exp(x1) - 1)*x2", 2, -1.5, 1.5),
    ("sqrt(x1)*log(x2)", 2, 0.5, 3.0),
    # products of factors in both variables, whose mixed partial adds two
    # unequal cross terms in a fixed order
    ("sin(x1 + 2*x2)*exp(x2 - x1)", 2, -1.5, 1.5),
    ("exp(x1 - x2)*sin(x1*x2)*(2*x1 + x2)^2", 2, -1.5, 1.5),
    # a / or ^ over some but not all variables: one pass per lane (i, j),
    # where the products make entries depend on the lane's float value
    ("x1/x2 + x3^2", 3, 0.5, 2.0),
    ("x3^x1 + sin(x2)", 3, 0.5, 2.0),
    ("x1/x2*x3^2", 3, 0.5, 2.0),
    ("x3^x1*sin(x2)", 3, 0.5, 2.0),
    ("(x1 + x3)/x2", 3, 0.5, 2.0),
]


def fd_gradient(e, x, step: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        out[i] = (evaluate(e, xp) - evaluate(e, xm)) / (2.0 * step)
    return out


def fd_hessian(e, x, step: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    out = np.zeros((n, n))
    f0 = evaluate(e, x)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        out[i, i] = (evaluate(e, xp) - 2.0 * f0 + evaluate(e, xm)) / step**2
        for j in range(i + 1, n):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += step
            xmm[[i, j]] -= step
            xpm[i] += step
            xpm[j] -= step
            xmp[i] -= step
            xmp[j] += step
            mixed = (
                evaluate(e, xpp) - evaluate(e, xpm) - evaluate(e, xmp) + evaluate(e, xmm)
            ) / (4.0 * step**2)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def guarded_relative(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max elementwise deviation over max(1, largest exact magnitude)."""
    scale = max(1.0, float(np.max(np.abs(exact))) if np.size(exact) else 1.0)
    return float(np.max(np.abs(np.asarray(approx) - np.asarray(exact)))) / scale


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a criterion verdict for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cubic_text(rng, n: int) -> str:
    """Random polynomial of total degree at most three as expression text."""
    exponents = [
        e for e in itertools.product(range(4), repeat=n) if 0 < sum(e) <= 3
    ]
    coeffs = rng.uniform(-2.0, 2.0, size=len(exponents))
    terms = []
    for c, e in zip(coeffs, exponents):
        factors = [repr(float(c))] + [
            f"x{i + 1}^{k}" for i, k in enumerate(e) if k > 0
        ]
        terms.append("*".join(factors))
    return " + ".join(terms)


class HyperDual:
    """Truncated second-order Taylor number along two seed directions.

    Carries ``value``, first partials ``d1``/``d2`` along the two seeded
    directions, and the mixed second partial ``d12``.  Arithmetic follows
    the product/chain rules, e.g.
    ``(a*b).d12 = a.value*b.d12 + a.d1*b.d2 + a.d2*b.d1 + a.d12*b.value``.
    The oracle for the tape's hyper-dual lanes: ``pairwise_hessian`` walks
    the tree once per index pair with these numbers.
    """

    __slots__ = ("value", "d1", "d2", "d12")

    def __init__(self, value: float, d1: float = 0.0, d2: float = 0.0, d12: float = 0.0):
        self.value = float(value)
        self.d1 = float(d1)
        self.d2 = float(d2)
        self.d12 = float(d12)

    def __repr__(self) -> str:
        return f"HyperDual({self.value!r}, {self.d1!r}, {self.d2!r}, {self.d12!r})"

    @staticmethod
    def lift(x) -> "HyperDual":
        return x if isinstance(x, HyperDual) else HyperDual(float(x))

    def __neg__(self) -> "HyperDual":
        return HyperDual(-self.value, -self.d1, -self.d2, -self.d12)

    def __add__(self, other) -> "HyperDual":
        o = HyperDual.lift(other)
        return HyperDual(
            self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d12 + o.d12
        )

    __radd__ = __add__

    def __sub__(self, other) -> "HyperDual":
        return self + (-HyperDual.lift(other))

    def __rsub__(self, other) -> "HyperDual":
        return HyperDual.lift(other) + (-self)

    def __mul__(self, other) -> "HyperDual":
        o = HyperDual.lift(other)
        return HyperDual(
            self.value * o.value,
            self.value * o.d1 + self.d1 * o.value,
            self.value * o.d2 + self.d2 * o.value,
            self.value * o.d12 + self.d1 * o.d2 + self.d2 * o.d1 + self.d12 * o.value,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        if self.value == 0.0:
            raise DomainError("division by zero")
        iv = 1.0 / self.value
        i2 = iv * iv
        return HyperDual(
            iv,
            -self.d1 * i2,
            -self.d2 * i2,
            (2.0 * self.d1 * self.d2 * iv - self.d12) * i2,
        )

    def __truediv__(self, other) -> "HyperDual":
        return self * HyperDual.lift(other).reciprocal()

    def __rtruediv__(self, other) -> "HyperDual":
        return HyperDual.lift(other) * self.reciprocal()


def _chain(u, f0, f1, f2):
    return HyperDual(f0, f1 * u.d1, f1 * u.d2, f1 * u.d12 + f2 * u.d1 * u.d2)


_DERIVATIVES = {
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / (v * math.sqrt(v))),
}


def _tree_function(name, x):
    f, f1, f2 = _DERIVATIVES[name]
    v = x.value if isinstance(x, HyperDual) else x
    if name == "log" and v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r}")
    if name == "sqrt":
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}")
        if v == 0.0 and isinstance(x, HyperDual):
            raise DomainError("sqrt derivative undefined at zero")
    if isinstance(x, HyperDual):
        return _chain(x, f(v), f1(v), f2(v))
    return f(v)


def _tree_powi(x, k):
    if k < 0:
        v = x.value if isinstance(x, HyperDual) else x
        if v == 0.0:
            raise DomainError("zero raised to a negative power")
        return 1.0 / _tree_powi(x, -k)
    result = 1.0
    base = x
    while True:
        if k & 1:
            result = result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def _tree_pow(base, expo):
    bv = base.value if isinstance(base, HyperDual) else base
    if isinstance(expo, HyperDual):
        if bv <= 0.0:
            raise DomainError("exponent depending on variables requires a positive base")
        return _tree_function("exp", expo * _tree_function("log", HyperDual.lift(base)))
    ev = float(expo)
    if ev.is_integer():
        return _tree_powi(base, int(ev))
    if bv <= 0.0:
        raise DomainError(f"non-integer exponent {ev!r} requires a positive base")
    if isinstance(base, HyperDual):
        return _chain(base, bv**ev, ev * bv ** (ev - 1.0), ev * (ev - 1.0) * bv ** (ev - 2.0))
    return bv**ev


def tree_eval(node, xs):
    """Recursive walk of an AST over floats or HyperDual numbers."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Var):
        return xs[node.index - 1]
    if isinstance(node, Neg):
        return -tree_eval(node.child, xs)
    if isinstance(node, Call):
        return _tree_function(node.name, tree_eval(node.child, xs))
    left = tree_eval(node.left, xs)
    right = tree_eval(node.right, xs)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if (right.value if isinstance(right, HyperDual) else right) == 0.0:
            raise DomainError("division by zero")
        return left / right
    return _tree_pow(left, right)


# The recursive printer the package used before printing ran off the tape,
# kept as the oracle for the exact text of ``to_string``.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 9


def _prec(node) -> int:
    if isinstance(node, Binary):
        if node.op == "^":
            return _PREC_POW
        return _PREC_MUL if node.op in "*/" else _PREC_ADD
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(node, need: bool) -> str:
    text = render(node)
    return f"({text})" if need else text


def render(node) -> str:
    """Recursive infix text of an AST."""
    if isinstance(node, Number):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.name}({render(node.child)})"
    if isinstance(node, Neg):
        return "-" + _wrap(node.child, _prec(node.child) < _PREC_NEG)
    op = node.op
    if op == "^":
        # left must be an atom; right may be any unary (so bare Neg/^ are fine)
        left = _wrap(node.left, _prec(node.left) <= _PREC_POW)
        right = _wrap(node.right, _prec(node.right) < _PREC_NEG)
        return f"{left}^{right}"
    p = _prec(node)
    left = _wrap(node.left, _prec(node.left) < p)
    right = _wrap(node.right, _prec(node.right) <= p)
    if op in "+-":
        return f"{left} {op} {right}"
    return f"{left}{op}{right}"


# The two-pass parser the package used before ``parse`` emitted the tape
# directly: a token list of the whole text, then a recursive descent that
# builds the tree.  It is the oracle for ``parse``: the same errors, messages
# and positions, ``oracle_root`` equal to ``parse(...).root``, and
# ``_lower(oracle_root(...))`` equal to ``parse(...).tape``.
_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<error>.)",
    re.DOTALL,
)
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


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


def oracle_root(text: str, n_vars: int):
    """The tree of ``text``, by the two-pass parser; raises as ``parse`` does."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text, n_vars))
    root = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.position)
    return root


def pairwise_gradient(e, x) -> np.ndarray:
    """First partials, one tree walk per variable seeded in d1."""
    xs = [float(v) for v in x]
    out = np.zeros(e.n_vars)
    for i in range(e.n_vars):
        seeded = list(xs)
        seeded[i] = HyperDual(xs[i], d1=1.0)
        r = tree_eval(e.root, seeded)
        out[i] = r.d1 if isinstance(r, HyperDual) else 0.0
    return out


def pairwise_hessian(e, x) -> np.ndarray:
    """Second partials, one tree walk per index pair (i, j), read from d12."""
    xs = [float(v) for v in x]
    n = e.n_vars
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            seeded = list(xs)
            if i == j:
                seeded[i] = HyperDual(xs[i], d1=1.0, d2=1.0)
            else:
                seeded[i] = HyperDual(xs[i], d1=1.0)
                seeded[j] = HyperDual(xs[j], d2=1.0)
            r = tree_eval(e.root, seeded)
            out[i, j] = out[j, i] = r.d12 if isinstance(r, HyperDual) else 0.0
    return out


def round_robin(n: int) -> list[list[tuple[int, int]]]:
    """One Jacobi sweep's pivots ``(p, q)``, ``p < q``, in rounds of disjoint pairs.

    Brent & Luk's parallel ordering, built by the circle method of a
    round-robin tournament: ``n`` rounded up to an even count of seats, seat 0
    fixed and the others moved on one seat per round, giving ``n - 1`` rounds
    (``n`` for odd ``n``, where the pair holding the spare seat idles).
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(p, q), max(p, q)) for p, q in zip(ring[: m // 2], reversed(ring))]
        rounds.append([pq for pq in pairs if pq[1] < n])
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return rounds


def jacobi_eigen(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 50):
    """Ascending eigenvalues and unit eigenvector rows of a self-adjoint ``a``.

    The oracle for the LAPACK-backed solvers: cyclic Jacobi, one scalar
    rotation at a time, sweeping the pivots in ``round_robin`` order until the
    off-diagonal norm is below ``tol * ||a||_F``.  A complex pivot
    ``a_pq = r * phase`` has its unit phase removed before the real rotation
    that annihilates ``r``; real input is the case ``phase = 1``.
    """
    hermitian = np.iscomplexobj(a)
    n = a.shape[0]
    work = a.copy()
    acc = np.eye(n, dtype=a.dtype)
    norm = np.linalg.norm(a)
    for _ in range(max_sweeps):
        if np.linalg.norm(work - np.diag(np.diag(work))) <= tol * norm:
            order = np.argsort(np.diag(work).real)
            return np.diag(work).real[order], acc.conj().T[order]
        for p, q in itertools.chain.from_iterable(round_robin(n)):
            apq = work[p, q]
            r = abs(apq)
            if r == 0.0:
                continue
            if hermitian:
                phase = apq / r
            else:
                r, phase = apq, 1.0
            tau = (work[q, q].real - work[p, p].real) / (2.0 * r)
            t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            rot = np.array([[c, s], [-s / phase, c / phase]])
            work[:, [p, q]] = work[:, [p, q]] @ rot
            work[[p, q], :] = rot.conj().T @ work[[p, q], :]
            work[p, q] = work[q, p] = 0.0
            acc[:, [p, q]] = acc[:, [p, q]] @ rot
    raise AssertionError(f"Jacobi oracle did not converge in {max_sweeps} sweeps")
