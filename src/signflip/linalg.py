"""Dense real/complex matrix predicates and a round-robin Jacobi eigensolver.

Matrices are plain square numpy arrays (float64 or complex128).  One Jacobi
kernel serves both :func:`symmetric_eigen` and :func:`hermitian_eigen`: a
complex rotation removes the pivot's unit phase before the real rotation,
and real input is the case where that phase is 1.  Each sweep visits the
pivots in the round-robin (tournament) order of Brent & Luk: rounds of
``n // 2`` pivots that share no row or column, each round applied as one
sparse rotation product.  Input is first scaled exactly by a power of two,
so its norm cannot overflow and ``PIVOT_SKIP`` is relative to its size.

The eigensolvers follow one fixed convention throughout the package: the
returned ``vectors`` array stores unit eigenvectors in its *rows*, so that
``vectors @ A @ vectors.T`` (``.conj().T`` in the Hermitian case) is the
diagonal matrix of eigenvalues, sorted ascending.
"""

from __future__ import annotations

import functools
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
    e = _exponent(m)
    unit = _times_power_of_two(m, -e)
    return _times_power_of_two(math.sqrt(np.vdot(unit, unit).real), e)


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
    off-diagonal part of that reconstruction.  ``sweeps`` counts the Jacobi
    sweeps run and ``rotations`` the pivots actually rotated.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    sweeps: int
    rotations: int

    @property
    def n(self) -> int:
        return len(self.values)


def _prepare(a: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, int, float]:
    """Check the guards and bring ``a`` to unit scale.

    Returns ``a * 2**-e`` with its largest part in ``[1/2, 1)``, the exponent
    ``e`` and the scaled matrix's norm.  Power-of-two scaling is exact, so the
    norm cannot overflow and ``2**k * a`` yields the same scaled matrix.
    """
    if a.shape[0] > MAX_EIGEN_N:
        raise DimensionTooLargeError(
            f"eigensolver supports n <= {MAX_EIGEN_N}, got n = {a.shape[0]}"
        )
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    e = _exponent(a)
    scaled = _times_power_of_two(a, -e)
    return scaled, e, frobenius(scaled)


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


def _finalize(
    a: np.ndarray, e: int, diag: np.ndarray, rows: np.ndarray, sweeps: int, rotations: int
) -> EigenDecomposition:
    """Sort and normalize the solution for the scaled ``a``, then undo the scale ``2**-e``.

    Raises ``OverflowError`` when a value or the residual is too large to
    scale back, rather than returning ``inf``.
    """
    order = np.argsort(diag, kind="stable")
    vectors = _normalize_row_signs(rows[order])
    residual = off_diagonal_norm(vectors @ a @ vectors.conj().T)
    with np.errstate(over="ignore"):
        values = _times_power_of_two(diag[order], e)
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
        sweeps=sweeps,
        rotations=rotations,
    )


@functools.lru_cache(maxsize=MAX_EIGEN_N)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The pivot rounds of one sweep, as ``(p, q)`` index arrays with ``p < q``.

    Every pair is met once per sweep and the pairs of a round are disjoint
    (Brent & Luk's parallel ordering).  It is the circle method of a
    round-robin tournament: ``n`` rounded up to an even count of seats, seat 0
    fixed and the others moved on one seat per round, giving ``n - 1`` rounds
    (``n`` for odd ``n``, where the pair holding the spare seat idles).
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(p, q), max(p, q)) for p, q in zip(ring[: m // 2], reversed(ring))]
        index = np.array([pq for pq in pairs if pq[1] < n], dtype=np.intp).reshape(-1, 2)
        index.flags.writeable = False
        rounds.append((index[:, 0], index[:, 1]))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def _jacobi(
    a: np.ndarray, norm_a: float, tol: float, max_sweeps: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Round-robin Jacobi sweeps on a validated self-adjoint matrix.

    Returns the unsorted eigenvalues, the eigenvector rows, the sweep count
    and the rotation count.  Each rotation on pivot ``(p, q)`` writes
    ``a_pq = r * phase`` with ``|phase| = 1`` and composes that phase with the
    real rotation annihilating ``r``; real input is the unit-phase case
    ``r = a_pq``, ``phase = 1``.  The pivots of a round share no row or
    column, so their rotations are all computed from the matrix before the
    round, equal those of applying them one by one, and are applied together
    as one rotation matrix ``J``: ``work = J* work J``.
    """
    hermitian = a.dtype.kind == "c"
    n = a.shape[0]
    work = a.copy()
    acc = np.eye(n, dtype=a.dtype)

    sweeps = rotations = 0
    while off_diagonal_norm(work) > tol * norm_a:
        if sweeps >= max_sweeps:
            raise NoConvergenceError(
                f"off-diagonal norm {off_diagonal_norm(work):.3e} above "
                f"{tol:.1e} * ||a||_F after {max_sweeps} sweeps"
            )
        for p, q in _round_robin(n):
            apq = work[p, q]
            r = np.abs(apq)
            live = r >= PIVOT_SKIP
            if not live.all():
                p, q, apq, r = p[live], q[live], apq[live], r[live]
                if not len(p):
                    continue
            if hermitian:
                phase = apq / r
            else:
                r, phase = apq, 1.0
            diag = work.diagonal().real
            tau = (diag[q] - diag[p]) / (2.0 * r)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c

            # J restricted to (p, q): [[c, s], [-s/phase, c/phase]]
            rot = np.eye(n, dtype=a.dtype)
            rot[p, p] = c
            rot[p, q] = s
            rot[q, p] = -s / phase
            rot[q, q] = c / phase
            work = rot.conj().T @ work @ rot
            work[p, q] = 0.0
            work[q, p] = 0.0
            if hermitian:
                pq = np.concatenate((p, q))
                work[pq, pq] = work[pq, pq].real
            acc = acc @ rot
            rotations += len(p)
        sweeps += 1

    return np.diag(work).real.copy(), acc.conj().T.copy(), sweeps, rotations


def symmetric_eigen(a, tol: float = 1e-12, max_sweeps: int = 30) -> EigenDecomposition:
    """Diagonalize a symmetric real matrix by round-robin Jacobi rotations.

    Each sweep visits every pivot ``(p, q)`` once, in rounds of ``n // 2``
    pivots that share no row or column, and sweeps stop once the
    off-diagonal Frobenius norm drops below ``tol * ||a||_F``.  The matrix
    is first scaled exactly by a power of two, so ``2**k * a`` gives the same
    vectors and ``2**k`` times the values.  The result is deterministic:
    eigenvalues ascending, each eigenvector row sign-normalized so its
    largest-magnitude component is positive.

    Raises:
        NotSymmetricError: if ``a`` is not symmetric to ``1e-12 * ||a||_F``.
        NoConvergenceError: if ``max_sweeps`` sweeps do not converge.
        DimensionTooLargeError: if ``n`` exceeds ``MAX_EIGEN_N``.
        OverflowError: if an eigenvalue or the residual exceeds the float range.
    """
    a, e, norm_a = _prepare(as_real_matrix(a, name="a"), max_sweeps)
    if not is_symmetric(a, 1e-12 * norm_a):
        raise NotSymmetricError("input matrix is not symmetric")
    return _finalize(a, e, *_jacobi(a, norm_a, tol, max_sweeps))


def hermitian_eigen(a, tol: float = 1e-12, max_sweeps: int = 30) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with complex Jacobi rotations.

    Each rotation composes a phase that makes the pivot real with the real
    rotation used by :func:`symmetric_eigen`, in the same round-robin order
    and after the same power-of-two scaling.  Returns real ascending
    eigenvalues and a unitary row-eigenvector matrix ``w`` with
    ``w @ a @ w.conj().T`` diagonal; each row is phase-normalized so its
    largest-magnitude component is real and positive.

    Raises:
        NotHermitianError: if ``a`` is not Hermitian to ``1e-12 * ||a||_F``.
        NoConvergenceError: if ``max_sweeps`` sweeps do not converge.
        DimensionTooLargeError: if ``n`` exceeds ``MAX_EIGEN_N``.
        OverflowError: if an eigenvalue or the residual exceeds the float range.
    """
    a, e, norm_a = _prepare(as_complex_matrix(a, name="a"), max_sweeps)
    if not is_hermitian(a, 1e-12 * norm_a):
        raise NotHermitianError("input matrix is not Hermitian")
    return _finalize(a, e, *_jacobi(a, norm_a, tol, max_sweeps))
