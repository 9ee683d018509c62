"""Command-line front end: eigendecomposition, symmetry checks, sign groups
and the four-point fourth-order stencil.

Exit codes: 0 success, 1 negative verdict, 2 input or parse error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .expr import DomainError, ParseError, hessian, parse
from .linalg import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NoConvergenceError,
    NotHermitianError,
    NotSymmetricError,
    hermitian_eigen,
    symmetric_eigen,
)
from .matio import MatrixFormatError, _format_entry, read_matrix
from .signgroup import (
    ENUMERATION_CAP,
    SignPattern,
    conjugated_group,
    enumerate_group,
    group_properties_check,
    symmetry_via_equivariance,
)
from .stencil import (
    DEFAULT_SCALES,
    AllBelowNoiseFloorError,
    StencilInput,
    four_point_stencil,
    order_estimate,
)

DEMO_FUNCTION = "x1*x2*x3^2 + x1^2 - 3*x2^2 + x2*sin(x1) - x2^2*x3^2"
DEMO_POINT = (1.0, 1.0, 1.0)
DEMO_STEP = (0.2, 0.05, 0.1)
DEMO_REFLECTION_4DP = (
    (0.9225, 0.3723, 0.1015),
    (0.3723, -0.7896, -0.4877),
    (0.1015, -0.4877, 0.8671),
)
DEMO_S_REF = 6.40e-5
DEMO_S_DECADE_REF = 6.38e-9


def _fmt(value) -> str:
    return _format_entry(value, ".6g")


def _print_matrix(m, indent: str = "  ") -> None:
    for row in np.atleast_2d(m):
        print(indent + " ".join(_fmt(v) for v in row))


def _vec_str(v) -> str:
    return " ".join(_fmt(x) for x in np.asarray(v).reshape(-1))


def _jsonable_matrix(m):
    if np.iscomplexobj(m):
        return [[_format_entry(v) for v in row] for row in m]
    return [[float(v) for v in row] for row in m]


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(
            f"cannot parse {name} value {text!r}: expected comma-separated decimals"
        ) from None
    return np.array(values, dtype=np.float64)


def _read_real_matrix(path: str) -> np.ndarray:
    m = read_matrix(path)
    if np.iscomplexobj(m):
        raise ValueError(f"{path}: expected a real matrix, got complex entries")
    return m


def run_eig(args) -> int:
    m = read_matrix(args.matrix)
    if np.iscomplexobj(m):
        dec = hermitian_eigen(m)
    else:
        dec = symmetric_eigen(m)
    if args.json:
        print(
            json.dumps(
                {
                    "values": [float(v) for v in dec.values],
                    "V": _jsonable_matrix(dec.vectors),
                    "residual": float(dec.residual),
                    "orthogonality": float(dec.orthogonality),
                }
            )
        )
        return 0
    print(f"n: {dec.n}")
    print("values:", " ".join(_fmt(v) for v in dec.values))
    print("vector rows:")
    _print_matrix(dec.vectors)
    print(f"residual: {_fmt(dec.residual)}")
    return 0


def run_check(args) -> int:
    m = _read_real_matrix(args.matrix)
    result = symmetry_via_equivariance(m, tol=args.tol)
    print(f"symmetric: {'yes' if result.verdict else 'no'}")
    print(f"max generator commutator: {_fmt(result.max_commutator)}")
    print(f"tolerance: {_fmt(result.tol)}")
    print(f"worst generator: {result.worst_generator}")
    print("witness basis rows:")
    _print_matrix(result.basis)
    return 0 if result.verdict else 1


def run_group(args) -> int:
    m = _read_real_matrix(args.matrix)
    n = m.shape[0]
    cap = min(args.max_n, ENUMERATION_CAP)
    if args.full and n > cap:
        print(f"error: refusing to enumerate 2**{n} elements (cap n <= {cap})", file=sys.stderr)
        return 3
    dec = symmetric_eigen(m)
    group = conjugated_group(dec.vectors)
    print(f"n: {n}")
    print(f"order: {group.order}")
    if args.full:
        print("elements:")
        for element in enumerate_group(group.basis, n_cap=cap):
            print(f"pattern {element.pattern}:")
            _print_matrix(element.matrix)
    else:
        print("generators:")
        for element in group.generators:
            print(f"pattern {element.pattern}:")
            _print_matrix(element.matrix)
    audit = group_properties_check(group)
    print(f"audit mode: {'full' if audit.exhaustive else 'generators'}")
    print(f"involution max error: {_fmt(audit.involution_max_err)}")
    print(f"commutation max error: {_fmt(audit.commutation_max_err)}")
    closure_state = "ok" if audit.closure_ok else "FAIL"
    print(f"closure max error: {_fmt(audit.closure_max_err)} ({closure_state})")
    print(f"gram residual: {_fmt(audit.gram_residual)}")
    return 0


def run_stencil(args) -> int:
    f = parse(args.f, args.n)
    x = _parse_vector(args.x, "--x")
    h = _parse_vector(args.h, "--h")
    p1 = SignPattern.from_string(args.s1)
    p2 = SignPattern.from_string(args.s2)
    scales = tuple(_parse_vector(args.scales, "--scales")) if args.scales else DEFAULT_SCALES
    inp = StencilInput(f, x, h, p1, p2, scales)
    report = order_estimate(inp)
    print(f"f: {args.f}")
    print(f"x: {_vec_str(x)}")
    print(f"h: {_vec_str(h)}")
    print(f"patterns: {p1} {p2}")
    print(report.table())
    print(f"fitted order: {_fmt(report.fitted_order)}")
    if report.warnings:
        for w in report.warnings:
            print(f"warning: {w}")
    else:
        print("warnings: none")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"csv written: {args.csv}")
    return 0


def run_demo(args) -> int:
    f = parse(DEMO_FUNCTION, 3)
    x = np.array(DEMO_POINT)
    h = np.array(DEMO_STEP)

    hess = hessian(f, x)
    sin1, cos1 = math.sin(1.0), math.cos(1.0)
    hess_ref = np.array(
        [
            [2.0 - sin1, 1.0 + cos1, 2.0],
            [1.0 + cos1, -8.0, -2.0],
            [2.0, -2.0, 0.0],
        ]
    )

    dec = symmetric_eigen(hess)
    group = conjugated_group(dec.vectors)
    p1 = SignPattern.from_string("+++")
    p2 = SignPattern.from_string("-++")
    g1 = group.element(p1)
    g2 = group.element(p2)
    gamma_ref = np.array(DEMO_REFLECTION_4DP)

    s_base = four_point_stencil(f, x, g1, g2, h)
    s_decade = four_point_stencil(f, x, g1, g2, h / 10.0)
    decade_order = math.log(abs(s_base / s_decade)) / math.log(10.0)
    report = order_estimate(
        StencilInput(f, x, h, p1, p2, scales=(1.0, 0.5, 0.25, 0.125)), group
    )

    print("four-point stencil demo")
    print(f"f: {DEMO_FUNCTION}")
    print(f"x: {_vec_str(x)}")
    print(f"h: {_vec_str(h)}")
    print("Hessian at x:")
    _print_matrix(hess)
    print("eigenvalues:", " ".join(_fmt(v) for v in dec.values))
    print("reflection for pattern -++ (4 decimals):")
    for row in g2.matrix:
        print("  " + " ".join(f"{v:.4f}" for v in row))
    print(f"S(h)    = {_fmt(s_base)}  (reference {_fmt(DEMO_S_REF)})")
    print(f"S(h/10) = {_fmt(s_decade)}  (reference {_fmt(DEMO_S_DECADE_REF)})")
    print(f"two-point decade order: {_fmt(decade_order)}")
    print(f"fitted order over scales 1, 1/2, 1/4, 1/8: {_fmt(report.fitted_order)}")

    checks = [
        (
            "Hessian matches the closed-form reference within 1e-12",
            float(np.max(np.abs(hess - hess_ref))) <= 1e-12,
        ),
        (
            "reflection -++ matches the 4-decimal reference within 5e-05",
            float(np.max(np.abs(g2.matrix - gamma_ref))) <= 5e-5,
        ),
        (
            "S(h) within 1% of 6.40e-05",
            abs(s_base - DEMO_S_REF) <= 0.01 * DEMO_S_REF,
        ),
        (
            "S(h/10) within 1% of 6.38e-09",
            abs(s_decade - DEMO_S_DECADE_REF) <= 0.01 * DEMO_S_DECADE_REF,
        ),
        (
            "two-point decade order in [3.99, 4.01]",
            3.99 <= decade_order <= 4.01,
        ),
        (
            "fitted order in [3.9, 4.1]",
            3.9 <= report.fitted_order <= 4.1,
        ),
    ]
    all_ok = True
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signflip",
        description=(
            "Sign-flip symmetry groups, equivariance-based symmetry checks "
            "and fourth-order difference stencils."
        ),
        epilog=(
            "Vectors are comma-separated decimals (e.g. --h 0.2,0.05,0.1); "
            "sign patterns are '+'/'-' strings. A pattern starting with '-' "
            "must be passed as --s2=-++ so it is not mistaken for a flag."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eig", help="eigendecomposition of a symmetric (or Hermitian) matrix file")
    p_eig.add_argument("matrix", help="path to a matrix text file")
    p_eig.add_argument("--json", action="store_true", help="emit {values, V, residual, orthogonality} as JSON")
    p_eig.set_defaults(func=run_eig)

    p_check = sub.add_parser("check", help="decide symmetry via sign-group equivariance")
    p_check.add_argument("matrix", help="path to a matrix text file")
    p_check.add_argument("--tol", type=float, default=None, help="commutator tolerance (default 1e-8*||A||_F)")
    p_check.set_defaults(func=run_check)

    p_group = sub.add_parser("group", help="print the conjugated sign group of a symmetric matrix")
    p_group.add_argument("matrix", help="path to a matrix text file")
    mode = p_group.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true", help="print all 2**n elements")
    mode.add_argument("--generators", action="store_true", help="print only the n generators (default)")
    p_group.add_argument(
        "--max-n", type=int, default=12,
        help=f"cap for full enumeration (at most {ENUMERATION_CAP})",
    )
    p_group.set_defaults(func=run_group)

    p_st = sub.add_parser("stencil", help="four-point fourth-order stencil across a scale ladder")
    p_st.add_argument("--f", required=True, help="expression in x1..xn")
    p_st.add_argument("--n", required=True, type=int, help="number of variables")
    p_st.add_argument("--x", required=True, help="expansion point, comma-separated")
    p_st.add_argument("--h", required=True, help="base displacement, comma-separated")
    p_st.add_argument("--s1", required=True, help="sign pattern of the first element")
    p_st.add_argument("--s2", required=True, help="sign pattern of the second element")
    p_st.add_argument("--scales", default=None, help="comma-separated scale ladder (default 1,0.5,0.25,0.125,0.0625)")
    p_st.add_argument("--csv", default=None, help="write per-scale records to this CSV path")
    p_st.set_defaults(func=run_stencil)

    p_demo = sub.add_parser("demo", help="run the built-in worked example and verify it")
    p_demo.set_defaults(func=run_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return int(code) if isinstance(code, int) else 2
    try:
        return args.func(args)
    except AllBelowNoiseFloorError as exc:
        for w in exc.warnings:
            print(f"warning: {w}")
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        NotSymmetricError,
        NotHermitianError,
        NoConvergenceError,
        DimensionTooLargeError,
        DomainError,
        OverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MatrixFormatError, ParseError, DimensionMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
