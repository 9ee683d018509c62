"""Fourth-order remainder extraction from symmetric second differences.

For a smooth f with Hessian H at a point x, any symmetric involution g
that commutes with H satisfies

    f(x + gh) - 2 f(x) + f(x - gh) = h^T H h + (fourth-order term) + O(||h||^6),

because the quadratic term is invariant under h -> gh.  Subtracting the
second differences of two such involutions cancels everything through
third order, leaving the four-point combination

    S = f(x + g1 h) + f(x - g1 h) - f(x + g2 h) - f(x - g2 h) = O(||h||^4).

The involutions are drawn from the conjugated sign group of the Hessian's
eigenvector rows, so commutation holds by construction.  ``order_estimate``
measures the decay of S across a scale ladder and fits the convergence
order by least squares on the log-log points above a roundoff noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Expression, evaluate_points, hessian
from .linalg import DimensionMismatchError, as_real_matrix, frobenius, symmetric_eigen
from .signgroup import (
    ConjugatedSignGroup,
    SignGroupElement,
    SignPattern,
    conjugated_group,
)

DEFAULT_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625)
NOISE_FLOOR_COEFF = 1e-14
DEGENERACY_TOL = 1e-2

PAIR_DEGENERATE = "pair-degenerate"
NEAR_EIGENVECTOR = "near-eigenvector"
ORDER_UNDERDETERMINED = "order-underdetermined"


class AllBelowNoiseFloorError(ArithmeticError):
    """Every |S| fell under the noise floor: stencil degenerate or f too flat."""

    def __init__(self, message: str, warnings: tuple = ()):
        super().__init__(message)
        self.warnings = warnings


@dataclass(frozen=True)
class StencilWarning:
    """Advisory diagnostic; ``element`` is 1 or 2 for per-element warnings."""

    kind: str
    message: str
    element: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _as_vector(v, n: int | None, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatchError(f"{name} must have length {n}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True, eq=False)
class StencilInput:
    """Configuration for the four-point stencil across a scale ladder."""

    f: Expression
    x: np.ndarray
    h: np.ndarray
    pattern1: SignPattern
    pattern2: SignPattern
    scales: tuple[float, ...] = DEFAULT_SCALES

    def __post_init__(self):
        n = self.f.n_vars
        object.__setattr__(self, "x", _as_vector(self.x, n, "x"))
        object.__setattr__(self, "h", _as_vector(self.h, n, "h"))
        if not np.any(self.h):
            raise ValueError("displacement h must be non-zero")
        for name, pattern in (("pattern1", self.pattern1), ("pattern2", self.pattern2)):
            if len(pattern) != n:
                raise DimensionMismatchError(
                    f"{name} has length {len(pattern)}, expected {n}"
                )
        scales = tuple(float(s) for s in self.scales)
        if not scales:
            raise ValueError("at least one scale is required")
        if any(s <= 0 for s in scales):
            raise ValueError("scales must be positive")
        if any(b >= a for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must be strictly decreasing")
        object.__setattr__(self, "scales", scales)


@dataclass(frozen=True)
class ScaleRecord:
    """Stencil values at one scale; ``hquad`` is (s h)^T H (s h)."""

    scale: float
    four_point: float
    second_diff_1: float
    second_diff_2: float
    hquad: float


@dataclass(frozen=True, eq=False)
class StencilReport:
    """Per-scale records, fitted convergence order and advisory warnings."""

    rows: tuple[ScaleRecord, ...]
    fitted_order: float
    warnings: tuple[StencilWarning, ...] = field(default_factory=tuple)

    def table(self) -> str:
        header = f"{'scale':>12} {'S':>14} {'second_diff_1':>14} {'second_diff_2':>14} {'hquad':>14}"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.scale:>12.6g} {r.four_point:>14.6g} "
                f"{r.second_diff_1:>14.6g} {r.second_diff_2:>14.6g} {r.hquad:>14.6g}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["scale,S,second_diff_1,second_diff_2,hquad"]
        for r in self.rows:
            lines.append(
                f"{r.scale!r},{r.four_point!r},{r.second_diff_1!r},"
                f"{r.second_diff_2!r},{r.hquad!r}"
            )
        return "\n".join(lines) + "\n"


def _gamma_matrix(g) -> np.ndarray:
    if isinstance(g, SignGroupElement):
        return g.matrix
    return as_real_matrix(g, name="group element")


def _reflected_points(x: np.ndarray, m: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
    gh = m @ h
    return [x + gh, x - gh]


def _second(f_plus: float, f0: float, f_minus: float) -> float:
    return f_plus - 2.0 * f0 + f_minus


def _four_point(f_plus1: float, f_minus1: float, f_plus2: float, f_minus2: float) -> float:
    return (f_plus1 + f_minus1) - (f_plus2 + f_minus2)


def second_difference(f: Expression, x, g, h) -> float:
    """f(x + gh) - 2 f(x) + f(x - gh); matches h^T H h through third order."""
    m = _gamma_matrix(g)
    x = _as_vector(x, f.n_vars, "x")
    h = _as_vector(h, f.n_vars, "h")
    plus, minus = _reflected_points(x, m, h)
    return _second(*evaluate_points(f, [plus, x, minus]).tolist())


def four_point_stencil(f: Expression, x, g1, g2, h) -> float:
    """The O(||h||^4) combination: plus-pair of g1 minus plus-pair of g2.

    Grouped so that swapping g1 and g2 negates the result exactly and
    h -> -h leaves it bit-identical.
    """
    m1 = _gamma_matrix(g1)
    m2 = _gamma_matrix(g2)
    x = _as_vector(x, f.n_vars, "x")
    h = _as_vector(h, f.n_vars, "h")
    points = _reflected_points(x, m1, h) + _reflected_points(x, m2, h)
    return _four_point(*evaluate_points(f, points).tolist())


def degeneracy_check(g1, g2, h, tol: float = DEGENERACY_TOL) -> tuple[StencilWarning, ...]:
    """Advisory checks that the pair can produce a useful fourth-order signal.

    Warns when the two elements coincide up to sign (the stencil then
    cancels identically) and when h is close to an eigenvector of either
    element (the element then fixes h up to sign and contributes nothing
    new).  Elements within tol of plus or minus the identity are exempt
    from the eigenvector check: they fix every h, which is exactly the
    useful base case, and the pair check already covers their failure mode.
    """
    m1 = _gamma_matrix(g1)
    m2 = _gamma_matrix(g2)
    hv = np.asarray(h, dtype=np.float64).reshape(-1)
    warnings = []

    diff = frobenius(m1 - m2)
    summ = frobenius(m1 + m2)
    if min(diff, summ) <= tol:
        sign = "" if diff <= summ else "up to sign "
        warnings.append(
            StencilWarning(
                PAIR_DEGENERATE,
                f"the two group elements coincide {sign}(distance {min(diff, summ):.3g}); "
                "the stencil cancels identically",
            )
        )

    nh = float(np.linalg.norm(hv))
    if nh > 0.0:
        eye = np.eye(m1.shape[0])
        for j, m in ((1, m1), (2, m2)):
            if min(frobenius(m - eye), frobenius(m + eye)) <= tol:
                continue
            ratio = min(
                float(np.linalg.norm(m @ hv - hv)), float(np.linalg.norm(m @ hv + hv))
            ) / nh
            if ratio <= tol:
                warnings.append(
                    StencilWarning(
                        NEAR_EIGENVECTOR,
                        f"h is within {ratio:.3g} of an eigenvector of element {j}; "
                        "its second difference degenerates",
                        element=j,
                    )
                )
    return tuple(warnings)


def hessian_sign_group(f: Expression, x) -> ConjugatedSignGroup:
    """Conjugated sign group of the Hessian of f at x (commutes with it)."""
    return conjugated_group(symmetric_eigen(hessian(f, x)).vectors)


def order_estimate(
    inp: StencilInput, group: ConjugatedSignGroup | None = None
) -> StencilReport:
    """Evaluate S over the scale ladder and fit the convergence order.

    The group must be the conjugated sign group of the Hessian of f at x
    (the quadratic-term cancellation needs commutation with that Hessian);
    when omitted it is derived here.  The fitted order is the least-squares
    slope of log|S| against log scale over the scales whose |S| clears the
    noise floor ``1e-14 * max(1, |f(x)|)``; with fewer than two such scales
    the order is NaN (one scale) or AllBelowNoiseFloorError (none).
    """
    if len(inp.scales) < 2:
        raise ValueError("order estimation needs at least 2 scales")
    hess = hessian(inp.f, inp.x)
    if group is None:
        group = conjugated_group(symmetric_eigen(hess).vectors)
    elif group.n != inp.f.n_vars:
        raise DimensionMismatchError(
            f"group acts on dimension {group.n}, expression has {inp.f.n_vars} variables"
        )
    g1 = group.element(inp.pattern1)
    g2 = group.element(inp.pattern2)
    warnings = list(degeneracy_check(g1, g2, inp.h))

    # The 1 + 4 * len(scales) distinct points, evaluated in one pass:
    # x, then x +- g1 (s h) and x +- g2 (s h) for each scale s.
    points = [inp.x]
    for s in inp.scales:
        hs = s * inp.h
        points += _reflected_points(inp.x, g1.matrix, hs) + _reflected_points(inp.x, g2.matrix, hs)
    values = evaluate_points(inp.f, points).tolist()
    f0 = values[0]
    floor = NOISE_FLOOR_COEFF * max(1.0, abs(f0))

    rows = []
    for k, s in enumerate(inp.scales):
        hs = s * inp.h
        fp1, fm1, fp2, fm2 = values[1 + 4 * k : 5 + 4 * k]
        rows.append(
            ScaleRecord(
                scale=s,
                four_point=_four_point(fp1, fm1, fp2, fm2),
                second_diff_1=_second(fp1, f0, fm1),
                second_diff_2=_second(fp2, f0, fm2),
                hquad=float(hs @ hess @ hs),
            )
        )

    above = [r for r in rows if abs(r.four_point) > floor]
    if not above:
        raise AllBelowNoiseFloorError(
            f"all stencil values fall under the noise floor {floor:.3g}; "
            "the pair is degenerate or f has no fourth-order content",
            warnings=tuple(warnings),
        )
    if len(above) == 1:
        warnings.append(
            StencilWarning(
                ORDER_UNDERDETERMINED,
                "only one scale is above the noise floor; cannot fit an order",
            )
        )
        fitted = math.nan
    else:
        logs = np.log([r.scale for r in above])
        logvals = np.log([abs(r.four_point) for r in above])
        fitted = float(np.polyfit(logs, logvals, 1)[0])

    return StencilReport(tuple(rows), fitted, tuple(warnings))
