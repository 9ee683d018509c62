"""Parsing expressions and differentiating them with hyper-dual numbers.

The expression mini-language covers +, -, *, /, ^ and the functions sin,
cos, exp, log, sqrt over variables x1, x2, ...; hyper-dual evaluation gives
machine-precision first and second derivatives from one forward pass over
the expression's tape, each intermediate carrying only the partials it has.
"""

import numpy as np

from signflip import evaluate, gradient, hessian, parse, to_string

print("round-tripping a parse tree through the printer:")
expression = parse("-x1^2*sin(x2) + exp(x1/4) - sqrt(x2 + 3)", 2)
printed = to_string(expression)
print(" ", printed)
reparsed = parse(printed, 2)
x = np.array([0.8, 1.7])
print(f"  value at {x}: {evaluate(expression, x):.12f}")
assert evaluate(expression, x) == evaluate(reparsed, x)

print()
print("gradient and Hessian at the same point:")
g = gradient(expression, x)
H = hessian(expression, x)
print("  grad:", " ".join(f"{v: .9f}" for v in g))
for row in H:
    print("  " + " ".join(f"{v: .9f}" for v in row))
asymmetry = np.max(np.abs(H - H.T))
print(f"  Hessian asymmetry: {asymmetry:.1e} (exact zero by construction)")
assert asymmetry == 0.0

print()
print("hyper-dual derivatives vs. central finite differences:")
step = 1e-5


def fd_partial(e, point, i):
    forward = point.copy()
    backward = point.copy()
    forward[i] += step
    backward[i] -= step
    return (evaluate(e, forward) - evaluate(e, backward)) / (2.0 * step)


for i in range(2):
    approx = fd_partial(expression, x, i)
    print(f"  d/dx{i + 1}: hyper-dual {g[i]: .10f}   finite diff {approx: .10f}")
    assert abs(g[i] - approx) < 1e-8

print()
print("polynomials differentiate exactly, not just accurately:")
poly = parse("3*x1^4 - 2*x1^2*x2 + x2^3", 2)
point = np.array([2.0, 3.0])
exact_grad = np.array(
    [12.0 * 2.0**3 - 4.0 * 2.0 * 3.0, -2.0 * 2.0**2 + 3.0 * 3.0**2]
)
print("  grad:", gradient(poly, point), " closed form:", exact_grad)
assert np.array_equal(gradient(poly, point), exact_grad)

print()
print("square matrices of second derivatives feed straight into the")
print("sign-group construction; see fourth_order_remainder.py")
