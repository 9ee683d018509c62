"""Dense real/complex matrix predicates and a cyclic Jacobi eigensolver.

Matrices are plain square numpy arrays (float64 or complex128).  One Jacobi
kernel serves both :func:`symmetric_eigen` and :func:`hermitian_eigen`: a
complex rotation removes the pivot's unit phase before the real rotation,
and real input is the case where that phase is 1.

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

# Rotations on pivots below this magnitude are skipped during a sweep.
PIVOT_SKIP = 1e-30


class DimensionMismatchError(ValueError):
    """Operands do not have matching dimensions."""


class DimensionTooLargeError(ValueError):
    """Input dimension exceeds a library-level guard."""


class NotSymmetricError(ValueError):
    """Matrix is not symmetric to the required tolerance."""


class NotHermitianError(ValueError):
    """Matrix is not Hermitian to the required tolerance."""


class NoConvergenceError(RuntimeError):
    """Jacobi sweeps did not reduce the off-diagonal norm below tolerance."""


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


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def off_diagonal_norm(a) -> float:
    """Frobenius norm of the off-diagonal part."""
    m = np.asarray(a)
    return frobenius(m - np.diag(np.diag(m)))


def commutator_norm(a, b) -> float:
    """Frobenius norm of ``a @ b - b @ a``; zero exactly when they commute."""
    ma = as_matrix(a, name="a")
    mb = as_matrix(b, name="b")
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"commutator of {ma.shape} and {mb.shape}")
    return frobenius(ma @ mb - mb @ ma)


def is_diagonal(b, tol: float) -> bool:
    """True iff every off-diagonal entry of ``b`` has magnitude at most ``tol``."""
    m = as_matrix(b, name="b")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    off = m - np.diag(np.diag(m))
    return bool(np.max(np.abs(off)) <= tol)


def is_symmetric(a, tol: float) -> bool:
    """True iff ``max |a_ij - a_ji| <= tol``."""
    m = as_matrix(a, name="a")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return bool(np.max(np.abs(m - m.T)) <= tol)


def is_hermitian(a, tol: float) -> bool:
    """True iff ``||a - a*||_F <= tol``."""
    m = as_matrix(a, name="a")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return frobenius(m - m.conj().T) <= tol


def is_orthogonal(v, tol: float) -> bool:
    """True iff ``||v v^T - I||_F <= tol`` (real transpose)."""
    m = as_real_matrix(v, name="v")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    n = m.shape[0]
    return frobenius(m @ m.T - np.eye(n)) <= tol


def is_unitary(w, tol: float) -> bool:
    """True iff ``||w w* - I||_F <= tol``; reduces to orthogonality for real input."""
    m = as_matrix(w, name="w")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    n = m.shape[0]
    return frobenius(m @ m.conj().T - np.eye(n)) <= tol


def is_normal(a, tol: float) -> bool:
    """True iff ``||a a* - a* a||_F <= tol``."""
    m = as_complex_matrix(a, name="a")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return frobenius(m @ m.conj().T - m.conj().T @ m) <= tol


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and row-eigenvector matrix of a self-adjoint matrix.

    ``vectors`` is orthogonal (unitary in the Hermitian case) with row ``i``
    the unit eigenvector of ``values[i]``, so ``vectors @ A @ vectors.T``
    reconstructs ``diag(values)``.  ``residual`` is the Frobenius norm of the
    off-diagonal part of that reconstruction.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return len(self.values)


def _check_eigen_input(a: np.ndarray, max_sweeps: int) -> float:
    if a.shape[0] > MAX_EIGEN_N:
        raise DimensionTooLargeError(
            f"eigensolver supports n <= {MAX_EIGEN_N}, got n = {a.shape[0]}"
        )
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    return frobenius(a)


def _normalize_row_signs(vectors: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive (real) or real-positive
    # (complex); ties resolved by argmax taking the lowest index.
    out = vectors.copy()
    for i in range(out.shape[0]):
        k = int(np.argmax(np.abs(out[i])))
        pivot = out[i, k]
        if out.dtype.kind == "c":
            mag = abs(pivot)
            if mag > 0.0:
                out[i] *= pivot.conjugate() / mag
        elif pivot < 0.0:
            out[i] = -out[i]
    return out


def _finalize(a: np.ndarray, diag: np.ndarray, rows: np.ndarray) -> EigenDecomposition:
    order = np.argsort(diag, kind="stable")
    values = diag[order]
    vectors = _normalize_row_signs(rows[order])
    recon = vectors @ a @ vectors.conj().T
    return EigenDecomposition(values=values, vectors=vectors, residual=off_diagonal_norm(recon))


def _jacobi(
    a: np.ndarray, norm_a: float, tol: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi sweeps on a validated self-adjoint matrix.

    Returns the unsorted eigenvalues and the eigenvector rows.  Each rotation
    on pivot ``(p, q)`` writes ``a_pq = r * phase`` with ``|phase| = 1`` and
    composes that phase with the real rotation annihilating ``r``; real input
    is the unit-phase case ``r = a_pq``, ``phase = 1``.
    """
    hermitian = a.dtype.kind == "c"
    n = a.shape[0]
    work = a.copy()
    acc = np.eye(n, dtype=a.dtype)

    sweeps = 0
    while off_diagonal_norm(work) > tol * norm_a:
        if sweeps >= max_sweeps:
            raise NoConvergenceError(
                f"off-diagonal norm {off_diagonal_norm(work):.3e} above "
                f"{tol:.1e} * ||a||_F after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                r = abs(apq)
                if r < PIVOT_SKIP:
                    continue
                if hermitian:
                    phase = apq / r
                else:
                    r, phase = apq, 1.0
                # a plain float keeps the scalar chain below out of NumPy
                tau = float((work[q, q].real - work[p, p].real) / (2.0 * r))
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                # U restricted to (p, q): [[c, s], [-s/phase, c/phase]]
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - (s / phase) * col_q
                work[:, q] = s * col_p + (c / phase) * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - (s * phase) * row_q
                work[q, :] = s * row_p + (c * phase) * row_q
                work[p, q] = 0.0
                work[q, p] = 0.0
                if hermitian:
                    work[p, p] = work[p, p].real
                    work[q, q] = work[q, q].real

                col_p = acc[:, p].copy()
                col_q = acc[:, q].copy()
                acc[:, p] = c * col_p - (s / phase) * col_q
                acc[:, q] = s * col_p + (c / phase) * col_q
        sweeps += 1

    return np.diag(work).real.copy(), acc.conj().T.copy()


def symmetric_eigen(a, tol: float = 1e-12, max_sweeps: int = 30) -> EigenDecomposition:
    """Diagonalize a symmetric real matrix by cyclic Jacobi rotations.

    Sweeps visit pivots ``(p, q)`` with ``p < q`` in row-major order and stop
    once the off-diagonal Frobenius norm drops below ``tol * ||a||_F``.  The
    result is deterministic: eigenvalues ascending, each eigenvector row
    sign-normalized so its largest-magnitude component is positive.

    Raises:
        NotSymmetricError: if ``a`` is not symmetric to ``1e-12 * ||a||_F``.
        NoConvergenceError: if ``max_sweeps`` sweeps do not converge.
        DimensionTooLargeError: if ``n`` exceeds ``MAX_EIGEN_N``.
    """
    a = as_real_matrix(a, name="a")
    norm_a = _check_eigen_input(a, max_sweeps)
    if not is_symmetric(a, 1e-12 * norm_a):
        raise NotSymmetricError("input matrix is not symmetric")
    return _finalize(a, *_jacobi(a, norm_a, tol, max_sweeps))


def hermitian_eigen(a, tol: float = 1e-12, max_sweeps: int = 30) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with complex Jacobi rotations.

    Each rotation composes a phase that makes the pivot real with the real
    rotation used by :func:`symmetric_eigen`.  Returns real ascending
    eigenvalues and a unitary row-eigenvector matrix ``w`` with
    ``w @ a @ w.conj().T`` diagonal; each row is phase-normalized so its
    largest-magnitude component is real and positive.

    Raises:
        NotHermitianError: if ``a`` is not Hermitian to ``1e-12 * ||a||_F``.
        NoConvergenceError: if ``max_sweeps`` sweeps do not converge.
        DimensionTooLargeError: if ``n`` exceeds ``MAX_EIGEN_N``.
    """
    a = as_complex_matrix(a, name="a")
    norm_a = _check_eigen_input(a, max_sweeps)
    if not is_hermitian(a, 1e-12 * norm_a):
        raise NotHermitianError("input matrix is not Hermitian")
    return _finalize(a, *_jacobi(a, norm_a, tol, max_sweeps))
