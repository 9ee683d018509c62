"""Conjugated sign-flip groups and equivariance-based symmetry tests.

A sign pattern of length ``n`` selects a diagonal matrix of ``+1``/``-1``
entries; the ``2**n`` such matrices form a group under multiplication.
Conjugating each by a fixed orthogonal matrix ``V`` (acting through its
rows) yields an isomorphic group of symmetric involutions, generated by the
single-flip reflections ``I - 2 v_i v_i^T``.  A real square matrix commutes
with the whole conjugated group built from the eigenvector rows of its
symmetric part exactly when the matrix is symmetric, which turns symmetry
into a commutator test; the same construction over a unitary basis
characterizes normality of complex matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotHermitianError,
    as_complex_matrix,
    as_matrix,
    as_real_matrix,
    commutator_norm,
    frobenius,
    hermitian_eigen,
    is_hermitian,
    is_orthogonal,
    is_unitary,
    symmetric_eigen,
)

ENUMERATION_CAP = 20
FULL_AUDIT_CAP = 12
BASIS_TOL = 1e-8
CLOSURE_TOL = 1e-8


class NotOrthogonalError(ValueError):
    """Raised when a basis matrix fails the orthogonality check."""


class NotUnitaryError(ValueError):
    """Raised when a basis matrix fails the unitarity check."""


def default_tolerance(a) -> float:
    """Commutator tolerance scaled to the matrix: ``1e-8 * max(1, ||A||_F)``."""
    return 1e-8 * max(1.0, frobenius(a))


@dataclass(frozen=True)
class SignPattern:
    """Immutable tuple of ``+1``/``-1`` entries, printable as ``"+-+"``."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs:
            raise ValueError("sign pattern must be non-empty")
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"sign pattern entries must be +1 or -1, got {self.signs!r}")
        object.__setattr__(self, "signs", signs)

    @classmethod
    def from_string(cls, text: str) -> "SignPattern":
        if not text or any(c not in "+-" for c in text):
            raise ValueError(f"sign pattern must be a non-empty string of '+'/'-', got {text!r}")
        return cls(tuple(1 if c == "+" else -1 for c in text))

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def __len__(self) -> int:
        return len(self.signs)

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def flipped(self) -> tuple[int, ...]:
        """Zero-based indices carrying a ``-1``."""
        return tuple(i for i, s in enumerate(self.signs) if s < 0)


@dataclass(frozen=True, eq=False)
class SignGroupElement:
    """Self-adjoint involution obtained by conjugating a sign matrix."""

    matrix: np.ndarray
    pattern: SignPattern

    @property
    def n(self) -> int:
        return len(self.pattern)


def _check_basis(v: np.ndarray) -> None:
    if not is_orthogonal(v, BASIS_TOL):
        raise NotOrthogonalError(
            f"basis rows are not orthonormal within {BASIS_TOL:g}"
        )


def _element_matrix(v: np.ndarray, pattern: SignPattern) -> np.ndarray:
    """``V* diag(signs) V`` as ``I - 2 * sum of flipped-row projectors``."""
    rows = v[list(pattern.flipped), :]
    return np.eye(v.shape[0], dtype=v.dtype) - 2.0 * rows.conj().T @ rows


@dataclass(frozen=True, eq=False)
class ConjugatedSignGroup:
    """The group ``{V^T s V}`` over all sign matrices ``s``, held by generators.

    ``basis`` is the orthogonal (for normality checks, unitary) matrix whose
    rows define the reflections; ``generators[i]`` flips sign ``i`` only.
    Arbitrary elements are built on demand from their pattern.
    """

    basis: np.ndarray
    generators: tuple[SignGroupElement, ...]

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def order(self) -> int:
        return 2 ** self.n

    def element(self, pattern: SignPattern) -> SignGroupElement:
        if len(pattern) != self.n:
            raise DimensionMismatchError(
                f"group acts on dimension {self.n} but pattern has length {len(pattern)}"
            )
        return SignGroupElement(_element_matrix(self.basis, pattern), pattern)


def conjugated_group(v) -> ConjugatedSignGroup:
    """Construct the conjugated sign group with the given orthogonal basis."""
    m = as_real_matrix(v, name="basis")
    _check_basis(m)
    return _group(m)


def _group(basis: np.ndarray) -> ConjugatedSignGroup:
    """The group on an already validated orthogonal or unitary basis."""
    return ConjugatedSignGroup(
        basis,
        tuple(
            SignGroupElement(_element_matrix(basis, p), p)
            for p in _single_flips(basis.shape[0])
        ),
    )


def _single_flips(n: int):
    """Yield the ``n`` generator patterns, the ``i``-th flipping sign ``i`` only."""
    for i in range(n):
        yield SignPattern(tuple(-1 if j == i else 1 for j in range(n)))


def _check_enumerable(n: int, n_cap: int) -> None:
    if n > n_cap:
        raise DimensionTooLargeError(
            f"refusing to enumerate 2**{n} elements (cap n <= {n_cap})"
        )


def all_patterns(n: int):
    """Yield all 2**n patterns in lexicographic order with ``+`` before ``-``."""
    for signs in itertools.product((1, -1), repeat=n):
        yield SignPattern(signs)


def enumerate_group(v, n_cap: int = ENUMERATION_CAP):
    """Yield all ``2**n`` elements of the conjugated group, ``+`` before ``-``.

    The element at position ``k`` is the one whose flipped signs form the
    bitmask ``k``, with bit 0 for the last sign.
    """
    m = as_real_matrix(v, name="basis")
    _check_enumerable(m.shape[0], n_cap)
    _check_basis(m)
    for pattern in all_patterns(m.shape[0]):
        yield SignGroupElement(_element_matrix(m, pattern), pattern)


def max_generator_commutator(a, group: ConjugatedSignGroup) -> float:
    """Largest ``||gA - Ag||_F`` over the group's generators."""
    m = as_matrix(a, name="a")
    if m.shape[0] != group.n:
        raise DimensionMismatchError(
            f"matrix is {m.shape[0]}x{m.shape[0]} but group acts on dimension {group.n}"
        )
    return max(commutator_norm(g.matrix, m) for g in group.generators)


def is_equivariant(a, v, tol: float | None = None, exhaustive: bool = False) -> bool:
    """True when ``A`` commutes with the conjugated sign group built on ``V``.

    Generator commutation implies commutation with the whole group, so only
    the ``n`` single-flip reflections are checked by default; ``exhaustive``
    checks all ``2**n`` elements (diagnostic, capped at n <= 12).
    """
    m = as_real_matrix(a, name="a")
    basis = as_real_matrix(v, name="basis")
    _check_basis(basis)
    n = basis.shape[0]
    if m.shape[0] != n:
        raise DimensionMismatchError(f"matrix is {m.shape[0]}x{m.shape[0]} but basis is {n}x{n}")
    if tol is None:
        tol = default_tolerance(m)
    if exhaustive:
        _check_enumerable(n, FULL_AUDIT_CAP)
        patterns = all_patterns(n)
    else:
        patterns = _single_flips(n)
    return all(commutator_norm(_element_matrix(basis, p), m) <= tol for p in patterns)


def commutes_with_sign_group(b, tol: float | None = None, exhaustive: bool = False) -> bool:
    """True when ``B`` commutes with every diagonal sign matrix.

    Equivalent to ``B`` being diagonal; the generators are the single-flip
    sign matrices, i.e. the conjugated group on the identity basis.
    """
    m = as_real_matrix(b, name="b")
    return is_equivariant(m, np.eye(m.shape[0]), tol, exhaustive)


@dataclass(frozen=True, eq=False)
class EquivarianceCheck:
    """Outcome of an equivariance-based symmetry or normality decision.

    ``basis`` holds the rows that define the group's generators and
    ``max_commutator`` the largest generator commutator norm, compared
    against ``tol`` for the ``verdict``.
    """

    verdict: bool
    basis: np.ndarray
    max_commutator: float
    tol: float


def symmetry_via_equivariance(a, tol: float | None = None) -> EquivarianceCheck:
    """Decide symmetry of ``A`` by commutation with a conjugated sign group.

    The basis is the eigenvector-row matrix of the symmetric part
    ``(A + A^T)/2``; ``A`` commutes with the resulting group exactly when
    ``A`` is symmetric.
    """
    m = as_real_matrix(a, name="a")
    if tol is None:
        tol = default_tolerance(m)
    sym_part = 0.5 * (m + m.T)
    eig = symmetric_eigen(sym_part)
    group = conjugated_group(eig.vectors)
    worst = max_generator_commutator(m, group)
    return EquivarianceCheck(bool(worst <= tol), eig.vectors, worst, tol)


def normality_via_equivariance(a, w=None, tol: float | None = None) -> EquivarianceCheck:
    """Decide normality of complex ``A`` by commutation with ``I - 2 w_i* w_i^T``.

    ``w`` must be unitary with rows forming the basis; when omitted, ``A``
    must be Hermitian and its own eigenvector rows are used.  ``A`` commutes
    with all ``n`` reflections exactly when ``A`` is normal with eigenvectors
    ``w_i``.
    """
    m = as_complex_matrix(a, name="a")
    if tol is None:
        tol = default_tolerance(m)
    if w is None:
        if not is_hermitian(m, tol):
            raise NotHermitianError(
                "no basis given and the matrix is not Hermitian; pass w explicitly"
            )
        basis = hermitian_eigen(m).vectors
    else:
        basis = as_complex_matrix(w, name="w")
        if basis.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"matrix is {m.shape[0]}x{m.shape[0]} but basis is {basis.shape[0]}x{basis.shape[0]}"
            )
        if not is_unitary(basis, BASIS_TOL):
            raise NotUnitaryError(f"basis rows are not unitary within {BASIS_TOL:g}")
    worst = max_generator_commutator(m, _group(basis))
    return EquivarianceCheck(bool(worst <= tol), basis, worst, tol)


@dataclass(frozen=True)
class GroupAudit:
    """Measured deviations from the defining group laws."""

    order: int
    involution_max_err: float
    commutation_max_err: float
    closure_max_err: float
    closure_ok: bool
    exhaustive: bool


def group_properties_check(
    group: ConjugatedSignGroup, exhaustive: bool | None = None
) -> GroupAudit:
    """Verify involution, commutativity, closure and order of the group.

    With ``exhaustive`` unset, all ``2**n`` elements are audited when
    ``n <= 12`` and only the generators otherwise.  Closure compares each
    product against the element whose pattern is the entrywise product of
    the factors' patterns: the element at the XOR of the two bitmask
    positions in exhaustive mode, and ``g_i + g_j - I`` (``I`` when
    ``i == j``) for two generators.
    """
    n = group.n
    if exhaustive is None:
        exhaustive = n <= FULL_AUDIT_CAP
    if exhaustive and n > FULL_AUDIT_CAP:
        raise DimensionTooLargeError(
            f"exhaustive audit refuses n > {FULL_AUDIT_CAP}, got n = {n}"
        )

    elements = enumerate_group(group.basis) if exhaustive else group.generators
    stack = np.stack([e.matrix for e in elements])
    positions = np.arange(len(stack))

    eye = np.eye(n)
    involution = max(frobenius(m @ m - eye) for m in stack)

    commutation = 0.0
    closure = 0.0
    for i, left in enumerate(stack):
        products = left @ stack
        commutation = max(commutation, _max_fro(products - stack @ left))
        if exhaustive:
            expect = stack[positions ^ i]
        else:
            expect = stack + (left - eye)
            expect[i] = eye
        closure = max(closure, _max_fro(products - expect))

    return GroupAudit(
        order=2 ** n,
        involution_max_err=involution,
        commutation_max_err=commutation,
        closure_max_err=closure,
        closure_ok=closure <= CLOSURE_TOL,
        exhaustive=exhaustive,
    )


def _max_fro(batch: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of matrices."""
    return float(np.sqrt(np.einsum("kij,kij->k", batch, batch).max()))
