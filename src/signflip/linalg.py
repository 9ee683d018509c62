"""Dense real/complex matrix predicates and the self-adjoint eigensolvers.

Matrices are square float64 or complex128 arrays.  :func:`_unit_scale` scales
one exactly by a power of two, so its sums cannot overflow and ``2**k * A``
becomes bitwise the same matrix.  The LAPACK core :func:`_eigh` solves it;
:func:`symmetric_eigen` and :func:`hermitian_eigen` add the self-adjoint check,
``residual``, ``orthogonality`` and the values scaled back, which verdicts skip.

The eigensolvers follow one fixed convention throughout the package: the
returned ``vectors`` array stores unit eigenvectors in its *rows*, so that
``vectors @ A @ vectors.T`` (``.conj().T`` in the Hermitian case) is the
diagonal matrix of eigenvalues, sorted ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Group enumeration downstream is exponential in n, so the eigensolvers are
# deliberately guarded to small dense problems.
MAX_EIGEN_N = 64


class DimensionMismatchError(ValueError):
    """Operands do not have matching dimensions."""


class DimensionTooLargeError(ValueError):
    """Input dimension exceeds a library-level guard."""


class NotSymmetricError(ValueError):
    """Matrix is not symmetric to the required tolerance."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian to the required tolerance."""


class NoConvergenceError(RuntimeError):
    """The LAPACK eigensolver did not converge."""


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a square 2-D array with finite entries."""
    m = np.asarray(a)
    if m.dtype.kind in "ib":
        m = m.astype(np.float64)
    elif m.dtype.kind == "f":
        m = m.astype(np.float64, copy=False)
    elif m.dtype.kind == "c":
        m = m.astype(np.complex128, copy=False)
    else:
        raise TypeError(f"{name}: unsupported dtype {m.dtype}")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name}: expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatchError(f"{name}: dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: entries must be finite")
    return m


def as_real_matrix(a, *, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name=name)
    if m.dtype.kind == "c":
        raise TypeError(f"{name}: expected a real matrix, got complex entries")
    return m


def as_complex_matrix(a, *, name: str = "matrix") -> np.ndarray:
    return as_matrix(a, name=name).astype(np.complex128, copy=False)


def _exponent(m: np.ndarray) -> int:
    """Binary exponent ``e`` with every real and imaginary part of ``m`` below ``2**e``."""
    parts = (m.real, m.imag) if m.dtype.kind == "c" else (m,)
    return math.frexp(max(float(np.max(np.abs(p), initial=0.0)) for p in parts))[1]


def _times_power_of_two(m, e: int):
    """``m * 2**e``, exact wherever the result is a normal float.

    Two factors keep each power of two representable for every exponent a
    finite float can need.
    """
    half = e // 2
    return m * math.ldexp(1.0, half) * math.ldexp(1.0, e - half)


def _unit_scale(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(m * 2**-e, e)`` with the largest real or imaginary part of the result in ``[1/2, 1)``."""
    e = _exponent(m)
    return _times_power_of_two(m, -e), e


def frobenius(a) -> float:
    """Frobenius norm, free of overflow and underflow in the sum of squares."""
    m = np.asarray(a)
    if m.dtype.kind != "c":
        m = m.astype(np.float64, copy=False)
    # vdot sums the squares in BLAS, which raises no overflow warning; a
    # zero matrix, common among commutators, is exact without rescaling
    norm = math.sqrt(np.vdot(m, m).real)
    if 1e-150 <= norm < math.inf or not np.count_nonzero(m):
        return norm
    # The squares overflowed or lost digits to underflow: sum them again on
    # the matrix brought to unit scale, which is exact.
    unit, e = _unit_scale(m)
    return _times_power_of_two(math.sqrt(np.vdot(unit, unit).real), e)


def off_diagonal_norm(a) -> float:
    """Frobenius norm of the off-diagonal part."""
    m = np.asarray(a)
    return frobenius(m - np.diag(np.diag(m)))


def commutator_norm(a, b) -> float:
    """Frobenius norm of ``a @ b - b @ a``, formed at unit scale; OverflowError beyond the float range."""
    ma, ea = _unit_scale(as_matrix(a, name="a"))
    mb, eb = _unit_scale(as_matrix(b, name="b"))
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"commutator of {ma.shape} and {mb.shape}")
    norm = frobenius(ma @ mb - mb @ ma)
    try:
        return math.ldexp(norm, ea + eb)
    except OverflowError:
        raise OverflowError(f"the commutator norm ({norm:.6g} * 2**{ea + eb}) exceeds the float range") from None


def _check_tol(tol: float) -> None:
    """ValueError unless ``tol >= 0``, which a NaN fails too."""
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol!r}")


def is_diagonal(b, tol: float) -> bool:
    """True iff every off-diagonal entry of ``b`` has magnitude at most ``tol``."""
    m = as_matrix(b, name="b")
    _check_tol(tol)
    off = m - np.diag(np.diag(m))
    return bool(np.max(np.abs(off)) <= tol)


def is_symmetric(a, tol: float) -> bool:
    """True iff ``max |a_ij - a_ji| <= tol``, compared at unit scale so the difference cannot overflow."""
    unit, e = _unit_scale(as_matrix(a, name="a"))
    _check_tol(tol)
    return bool(np.max(np.abs(unit - unit.T)) <= _times_power_of_two(tol, -e))


def is_hermitian(a, tol: float) -> bool:
    """True iff ``||a - a*||_F <= tol``, compared at unit scale so the difference cannot overflow."""
    unit, e = _unit_scale(as_matrix(a, name="a"))
    _check_tol(tol)
    return frobenius(unit - unit.conj().T) <= _times_power_of_two(tol, -e)


def _is_isometry(m: np.ndarray, tol: float) -> bool:
    """``||m m* - I||_F <= tol``, formed at unit scale where ``m m*`` could leave the float range."""
    _check_tol(tol)
    identity = np.eye(m.shape[0])
    if np.vdot(m, m).real < 1e308:  # ||m||_F^2 bounds every partial sum of m m*
        return frobenius(m @ m.conj().T - identity) <= tol
    m, e = _unit_scale(m)
    return frobenius(m @ m.conj().T - _times_power_of_two(identity, -2 * e)) <= _times_power_of_two(tol, -2 * e)


def is_orthogonal(v, tol: float) -> bool:
    """True iff ``||v v^T - I||_F <= tol`` (real transpose)."""
    return _is_isometry(as_real_matrix(v, name="v"), tol)


def is_unitary(w, tol: float) -> bool:
    """True iff ``||w w* - I||_F <= tol``; reduces to orthogonality for real input."""
    return _is_isometry(as_matrix(w, name="w"), tol)


def is_normal(a, tol: float) -> bool:
    """True iff ``||a a* - a* a||_F <= tol``, compared at unit scale so the products cannot overflow."""
    unit, e = _unit_scale(as_complex_matrix(a, name="a"))
    _check_tol(tol)
    return frobenius(unit @ unit.conj().T - unit.conj().T @ unit) <= _times_power_of_two(_times_power_of_two(tol, -e), -e)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and row-eigenvector matrix of a self-adjoint matrix.

    ``vectors`` is orthogonal (unitary in the Hermitian case) with row ``i``
    the unit eigenvector of ``values[i]``, so ``vectors @ A @ vectors.T``
    reconstructs ``diag(values)``.  ``residual`` is the Frobenius norm of the
    off-diagonal part of that reconstruction and ``orthogonality`` the
    Frobenius norm of ``vectors @ vectors.T - I`` (``.conj().T`` in the
    Hermitian case).
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    orthogonality: float

    @property
    def n(self) -> int:
        return len(self.values)


def _prepare(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Check the size guard and bring ``a`` to unit scale with :func:`_unit_scale`."""
    if a.shape[0] > MAX_EIGEN_N:
        raise DimensionTooLargeError(
            f"eigensolver supports n <= {MAX_EIGEN_N}, got n = {a.shape[0]}"
        )
    return _unit_scale(a)


def _normalize_row_signs(vectors: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive (real) or real-positive
    # (complex); ties resolved by argmax taking the lowest index.
    k = np.argmax(np.abs(vectors), axis=1)
    pivot = np.take_along_axis(vectors, k[:, None], axis=1)
    if vectors.dtype.kind == "c":
        return vectors * (pivot.conj() / np.abs(pivot))
    return vectors * np.where(pivot < 0.0, -1.0, 1.0)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LAPACK core: ascending values and normalized eigenvector rows of the prepared ``a``."""
    try:
        diag, columns = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver: {exc}") from None
    return diag, _normalize_row_signs(columns.conj().T)


def _decompose(a: np.ndarray, e: int) -> EigenDecomposition:
    """:func:`_eigh` with its provenance, scaled back by ``2**e``; OverflowError, not ``inf``."""
    diag, vectors = _eigh(a)
    residual = off_diagonal_norm(vectors @ a @ vectors.conj().T)
    with np.errstate(over="ignore"):
        values = _times_power_of_two(diag, e)
        scaled_residual = _times_power_of_two(residual, e)
    if not (np.all(np.isfinite(values)) and math.isfinite(scaled_residual)):
        largest = max(float(np.max(np.abs(diag))), residual)
        raise OverflowError(
            f"an eigenvalue or the residual (about {largest:.6g} * 2**{e}) exceeds the float range"
        )
    return EigenDecomposition(
        values=values,
        vectors=vectors,
        residual=scaled_residual,
        orthogonality=frobenius(vectors @ vectors.conj().T - np.eye(len(diag))),
    )


def symmetric_eigen(a) -> EigenDecomposition:
    """Diagonalize a symmetric real matrix with LAPACK's ``eigh``.

    The matrix is first scaled exactly by a power of two, so ``2**k * a``
    gives the same vectors and ``2**k`` times the values.  The result is
    deterministic: eigenvalues ascending, each eigenvector row
    sign-normalized so its largest-magnitude component is positive.

    Raises:
        NotSymmetricError: if ``a`` is not symmetric to ``1e-12 * ||a||_F``.
        NoConvergenceError: if LAPACK does not converge.
        DimensionTooLargeError: if ``n`` exceeds ``MAX_EIGEN_N``.
        OverflowError: if an eigenvalue or the residual exceeds the float range.
    """
    a, e = _prepare(as_real_matrix(a, name="a"))
    if not is_symmetric(a, 1e-12 * frobenius(a)):
        raise NotSymmetricError("input matrix is not symmetric")
    return _decompose(a, e)


def hermitian_eigen(a) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK's ``eigh``.

    Takes the same power-of-two scaling as :func:`symmetric_eigen`.  Returns
    real ascending eigenvalues and a unitary row-eigenvector matrix ``w``
    with ``w @ a @ w.conj().T`` diagonal; each row is phase-normalized so its
    largest-magnitude component is real and positive.

    Raises:
        NotHermitianError: if ``a`` is not Hermitian to ``1e-12 * ||a||_F``.
        NoConvergenceError: if LAPACK does not converge.
        DimensionTooLargeError: if ``n`` exceeds ``MAX_EIGEN_N``.
        OverflowError: if an eigenvalue or the residual exceeds the float range.
    """
    a, e = _prepare(as_complex_matrix(a, name="a"))
    if not is_hermitian(a, 1e-12 * frobenius(a)):
        raise NotHermitianError("input matrix is not Hermitian")
    return _decompose(a, e)
