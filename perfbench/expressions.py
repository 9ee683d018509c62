"""Seeded stencil expressions with an exact oracle that does not use signflip.

An expression is a sum of terms, each a coefficient times a template in two
variables ``u``, ``v`` (or in one).  Every template exists twice: as text the
signflip parser reads, and as a sympy expression.  The oracle differentiates
the sympy form, evaluates values and Hessians with mpmath at 40 digits, takes
the eigenbasis from ``numpy.linalg.eigh`` and computes the four-point value S
at every scale from those alone.

The generator redraws a case until the oracle guarantees a usable one: a
Hessian spectrum with gaps of at least ``MIN_GAP``, a non-degenerate pair of
sign patterns, and an exact S whose log-log slope over the scale ladder lies
within ``SLOPE_SLACK`` of 4 with every |S| far above the rounding bound.  On
such a case the fitted order of a correct implementation lies within 0.1 of 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import sympy as sp

from workloads import random_orthogonal

SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625)  # signflip.stencil.DEFAULT_SCALES
MIN_GAP = 0.5
SLOPE_SLACK = 0.02
EPS = np.finfo(float).eps
# Jacobi stops at an off-diagonal norm of 1e-12 * ||H||_F; ten times that,
# divided by the spectral gap, bounds the eigenbasis error.
BASIS_RESIDUAL = 1e-11
mp.mp.dps = 40

_U, _V = sp.symbols("u v")

# (text with {u}/{v} placeholders, sympy form); polynomial monomials are added below.
_TRANSCENDENTAL = [
    ("sin({u})*{v}", sp.sin(_U) * _V),
    ("cos({u}*{v})", sp.cos(_U * _V)),
    ("exp(0.5*{u}*{v})", sp.exp(_U * _V / 2)),
    ("sqrt(1 + {u}^2 + {v}^2)", sp.sqrt(1 + _U**2 + _V**2)),
    ("log(1 + {u}^2 + {v}^2)", sp.log(1 + _U**2 + _V**2)),
    ("sin({u} + {v})", sp.sin(_U + _V)),
]


def _monomial(a: int, b: int) -> tuple[str, sp.Expr]:
    parts = [f"{{{name}}}" + (f"^{p}" if p > 1 else "") for name, p in (("u", a), ("v", b)) if p]
    return "*".join(parts), _U**a * _V**b


_POLYNOMIAL = [_monomial(a, b) for a in range(5) for b in range(5) if 1 <= a + b <= 4]
TEMPLATES = _POLYNOMIAL + _TRANSCENDENTAL
QUADRATIC_UU = TEMPLATES.index(_monomial(2, 0))
QUADRATIC_UV = TEMPLATES.index(_monomial(1, 1))
QUARTIC_UU = TEMPLATES.index(_monomial(4, 0))


class _Compiled:
    """A template's value and second partials as mpmath callables."""

    def __init__(self, expr: sp.Expr):
        args = (_U, _V)
        self.value = sp.lambdify(args, expr, "mpmath")
        self.d2 = [
            sp.lambdify(args, sp.diff(expr, *wrt), "mpmath")
            for wrt in ((_U, _U), (_U, _V), (_V, _V))
        ]


_COMPILED: dict[int, _Compiled] = {}


def _compiled(t: int) -> _Compiled:
    if t not in _COMPILED:
        _COMPILED[t] = _Compiled(TEMPLATES[t][1])
    return _COMPILED[t]


@dataclass(frozen=True)
class Term:
    template: int
    i: int  # variable bound to u (0-based)
    j: int  # variable bound to v
    coeff: float


def render(terms: list[Term]) -> str:
    """Expression text in the signflip grammar; coefficients round-trip exactly."""
    out = []
    for k, t in enumerate(terms):
        body = TEMPLATES[t.template][0].format(u=f"x{t.i + 1}", v=f"x{t.j + 1}")
        sign = "-" if t.coeff < 0 else "+"
        lead = f" {sign} " if k else ("-" if t.coeff < 0 else "")
        out.append(f"{lead}{abs(t.coeff)!r}*{body}")
    return "".join(out)


class Evaluator:
    """Exact value, |term| sum and Hessian of one term list.

    Terms with the same template and variables are evaluated once, with
    their coefficients summed exactly.
    """

    def __init__(self, terms: list[Term]):
        merged: dict[tuple[int, int, int], list] = {}
        for t in terms:
            acc = merged.setdefault((t.template, t.i, t.j), [mp.mpf(0), mp.mpf(0)])
            acc[0] += mp.mpf(t.coeff)
            acc[1] += abs(mp.mpf(t.coeff))
        self.parts = [(c, a, _compiled(k[0]), k[1], k[2]) for k, (c, a) in merged.items()]

    def value(self, x) -> mp.mpf:
        xs = [mp.mpf(float(v)) for v in x]
        return mp.fsum(c * f.value(xs[i], xs[j]) for c, _, f, i, j in self.parts)

    def abs_sum(self, x) -> float:
        """Sum of |term| at x: the scale of floating-point rounding in f(x)."""
        xs = [mp.mpf(float(v)) for v in x]
        return float(mp.fsum(a * abs(f.value(xs[i], xs[j])) for _, a, f, i, j in self.parts))

    def hessian(self, x) -> np.ndarray:
        n = len(x)
        xs = [mp.mpf(float(v)) for v in x]
        acc = [[mp.mpf(0)] * n for _ in range(n)]
        for c, _, f, i, j in self.parts:
            uu, uv, vv = (c * d(xs[i], xs[j]) for d in f.d2)
            acc[i][i] += uu
            acc[j][j] += vv
            acc[i][j] += uv
            acc[j][i] += uv
        return np.array([[float(v) for v in row] for row in acc])


def reflection(basis_rows: np.ndarray, pattern: str) -> np.ndarray:
    rows = basis_rows[[k for k, s in enumerate(pattern) if s == "-"], :]
    return np.eye(basis_rows.shape[0]) - 2.0 * rows.T @ rows


@dataclass(frozen=True)
class StencilCase:
    """One stencil-order input and everything the oracle expects of it."""

    text: str
    n: int
    x: np.ndarray
    h: np.ndarray
    s1: str
    s2: str
    hess: np.ndarray
    s_exact: tuple[float, ...]
    s_tol: tuple[float, ...]
    hquad: tuple[float, ...]


def _pattern(rng, n) -> str:
    return "".join(rng.choice(["+", "-"], size=n))


def _complement(p: str) -> str:
    return p.translate(str.maketrans("+-", "-+"))


def _terms(rng, n: int, n_random: int) -> list[Term]:
    # Quadratic part x^T M x / 2 with a separated spectrum and a random
    # eigenbasis, so that sign flips mix the coordinates.
    q = random_orthogonal(rng, n)
    lam = rng.permutation([(3.0 * (k + 1) + rng.uniform(-0.5, 0.5)) * rng.choice([-1, 1]) for k in range(n)])
    m = q.T @ np.diag(lam) @ q
    terms = [Term(QUADRATIC_UU, i, i, float(m[i, i] / 2)) for i in range(n)]
    terms += [Term(QUADRATIC_UV, i, j, float(m[i, j])) for i in range(n) for j in range(i + 1, n)]
    # A quartic in every coordinate carries the fourth-order signal.
    terms += [Term(QUARTIC_UU, i, i, float(rng.uniform(0.5, 1.5) * rng.choice([-1, 1]))) for i in range(n)]
    scale = 0.3 / max(n_random, 1)
    for _ in range(n_random):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=n < 2))
        coeff = float(rng.uniform(0.5, 1.0) * scale * rng.choice([-1, 1]))
        terms.append(Term(int(rng.integers(len(TEMPLATES))), i, j, coeff))
    return terms


def _useful_patterns(rng, basis, h, n):
    """Two patterns, neither ±I-degenerate as a pair nor fixing h up to sign."""
    for _ in range(50):
        s1, s2 = _pattern(rng, n), _pattern(rng, n)
        if s2 in (s1, _complement(s1)):
            continue
        ok = True
        for s in (s1, s2):
            g = reflection(basis, s)
            if set(s) == {"+"} or set(s) == {"-"}:
                continue
            ratio = min(np.linalg.norm(g @ h - h), np.linalg.norm(g @ h + h)) / np.linalg.norm(h)
            ok = ok and ratio > 0.05
        if ok:
            return s1, s2
    return None


def make_case(rng, n: int, n_random: int) -> StencilCase:
    """Draw until the oracle guarantees a clean fourth-order signal."""
    while True:
        terms = _terms(rng, n, n_random)
        f = Evaluator(terms)
        x = rng.uniform(0.5, 1.5, size=n)
        h = rng.uniform(0.05, 0.2, size=n) * rng.choice([-1.0, 1.0], size=n)
        hess = f.hessian(x)
        lam, vecs = np.linalg.eigh(hess)
        gap = float(np.min(np.diff(lam))) if n > 1 else math.inf
        if gap < MIN_GAP:
            continue
        basis = vecs.T
        pats = _useful_patterns(rng, basis, h, n)
        if pats is None:
            continue
        s1, s2 = pats
        g1, g2 = reflection(basis, s1), reflection(basis, s2)
        hnorm = float(np.linalg.norm(hess))
        rounding = 16.0 * (len(terms) + n + 10) * EPS * 4.0 * f.abs_sum(x)
        s_exact, s_tol, hquad = [], [], []
        for s in SCALES:
            hs = s * h
            g1h, g2h = g1 @ hs, g2 @ hs
            pair1 = f.value(x + g1h) + f.value(x - g1h)
            pair2 = f.value(x + g2h) + f.value(x - g2h)
            s_exact.append(float(pair1 - pair2))
            basis_err = BASIS_RESIDUAL * hnorm / gap
            s_tol.append(rounding + 8.0 * basis_err * hnorm * float(hs @ hs))
            hquad.append(float(hs @ hess @ hs))
        if any(abs(v) < 20.0 * t for v, t in zip(s_exact, s_tol)):
            continue
        slope = float(np.polyfit(np.log(SCALES), np.log(np.abs(s_exact)), 1)[0])
        if abs(slope - 4.0) > SLOPE_SLACK:
            continue
        return StencilCase(render(terms), n, x, h, s1, s2, hess, tuple(s_exact), tuple(s_tol), tuple(hquad))


def long_sum(rng, n: int, n_terms: int) -> str:
    """A sum of ``n_terms`` small polynomial terms, for the recursion-depth probe."""
    terms = [Term(int(rng.integers(len(_POLYNOMIAL))), int(rng.integers(n)), int(rng.integers(n)),
                  float(rng.uniform(0.5, 1.0))) for _ in range(n_terms)]
    return render(terms)
