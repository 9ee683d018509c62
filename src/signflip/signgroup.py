"""Conjugated sign-flip groups and equivariance-based symmetry tests.

A sign pattern of length ``n`` selects a diagonal matrix of ``+1``/``-1``
entries; the ``2**n`` such matrices form a group under multiplication.
Conjugating each by a fixed orthogonal matrix ``V`` (acting through its
rows) yields an isomorphic group of symmetric involutions, generated by the
single-flip reflections ``I - 2 v_i v_i^T``.  A real square matrix commutes
with the whole conjugated group built from the eigenvector rows of its
symmetric part exactly when the matrix is symmetric, which turns symmetry
into a commutator test; the same construction over a unitary basis, by
default that of the Hermitian part, characterizes normality.  Each verdict
validates its input, scales it by an exact power of two and forms its
tolerance once, and takes its basis from the LAPACK core of ``linalg``.

Two identities replace products of element matrices.  Write the element
of the 0/1 flip mask ``a`` as ``g_a = I - 2 V* D_a V`` with ``D_a = diag(a)``.

* Commutators come from one product ``B = V A V*``: for orthonormal ``V``,
  ``||[g_a, A]||_F = 2 sqrt(sum over i in a, k not in a of |B_ik|^2 +
  |B_ki|^2)``, so ``A`` commutes with the group exactly when ``B`` is
  diagonal.
* Every group-law error is a function of the Gram residual
  ``E = V V* - I``: ``g_p g_q - g_(p xor q) = 4 V* D_p E D_q V``, the
  involution error is the case ``p = q`` and the commutation error is
  ``4 V* (D_p E D_q - D_q E D_p) V``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotHermitianError,
    as_complex_matrix,
    as_matrix,
    as_real_matrix,
    frobenius,
    is_orthogonal,
    is_unitary,
    _check_tol,
    _eigh,
    _prepare,
    _times_power_of_two,
    _unit_scale,
)

ENUMERATION_CAP = 20
FULL_AUDIT_CAP = 12
BASIS_TOL = 1e-8
CLOSURE_TOL = 1e-8
# Bound on the entries of one row block of the group audit, counting its
# pair forms and its n x n matrices, which keeps the audit's memory small.
AUDIT_BLOCK = 2**16


class NotOrthogonalError(ValueError):
    """Raised when a basis matrix fails the orthogonality check."""


class NotUnitaryError(ValueError):
    """Raised when a basis matrix fails the unitarity check."""


def default_tolerance(a) -> float:
    """Commutator tolerance scaled to the matrix: ``1e-8 * ||A||_F``.

    It has no absolute floor, so ``A`` and ``2**k * A`` get the same verdict.
    It is formed on ``A`` at unit scale, so it is finite wherever
    ``||A||_F`` alone would exceed the float range.
    """
    _, e, unit_tol = _at_unit_scale(np.asarray(a), None)
    return _times_power_of_two(unit_tol, e)


def _at_unit_scale(m: np.ndarray, tol: float | None) -> tuple[np.ndarray, int, float]:
    """``(2**-e A, e)`` and the tolerance at that scale; ValueError for a negative or NaN ``tol``."""
    unit, e = _unit_scale(m)
    if tol is None:
        return unit, e, 1e-8 * frobenius(unit)
    _check_tol(tol)
    return unit, e, _times_power_of_two(float(tol), -e)


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
    def flipped(self) -> tuple[int, ...]:
        """Zero-based indices carrying a ``-1``."""
        return tuple(i for i, s in enumerate(self.signs) if s < 0)


@dataclass(frozen=True, eq=False)
class SignGroupElement:
    """Self-adjoint involution obtained by conjugating a sign matrix."""

    matrix: np.ndarray
    pattern: SignPattern


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
class _Reflections(Sequence):
    """The generators on ``basis`` as a read-only sequence; item ``i``, ``I - 2 v_i^T v_i``, is built when read."""

    basis: np.ndarray

    def __len__(self) -> int:
        return len(self.basis)

    def __getitem__(self, i: int) -> SignGroupElement:
        i = range(len(self))[i]
        pattern = SignPattern(tuple(-1 if j == i else 1 for j in range(len(self))))
        return SignGroupElement(_element_matrix(self.basis, pattern), pattern)


@dataclass(frozen=True, eq=False)
class ConjugatedSignGroup:
    """The group ``{V^T s V}`` over all sign matrices ``s``, held by its basis.

    ``basis`` is the orthogonal matrix whose rows define the reflections.
    ``generators`` is a read-only sequence; its item ``i``, ``I - 2 v_i^T v_i``,
    flips sign ``i`` only and is built when read, as is any element from its pattern.
    """

    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def order(self) -> int:
        return 2 ** self.n

    @property
    def generators(self) -> Sequence[SignGroupElement]:
        return _Reflections(self.basis)

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
    return ConjugatedSignGroup(m)


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


def _flip_masks(n: int) -> np.ndarray:
    """0/1 rows marking the flipped signs of all ``2**n`` elements, n <= ``FULL_AUDIT_CAP``.

    Row ``k`` flips the set bits of ``k`` (bit 0 for the last sign), as in :func:`enumerate_group`.
    """
    _check_enumerable(n, FULL_AUDIT_CAP)
    k = np.arange(2**n)[:, None]
    return ((k >> np.arange(n - 1, -1, -1)) & 1).astype(np.float64)


def _flip_commutators(unit: np.ndarray, basis: np.ndarray, masks: np.ndarray | None = None) -> np.ndarray:
    """``||g U - U g||_F`` for the element ``g`` of each flip mask, with ``U = 2**-e A`` at unit scale.

    For orthonormal rows ``V`` the commutator is ``-2 V* (D B - B D) V`` with
    ``B = V U V*`` and ``D`` the mask's diagonal, whose nonzero entries are
    the ``B_ik`` with exactly one of ``i, k`` flipped.  The sum of their
    squares has only non-negative terms, so it cannot cancel, and at unit
    scale the squares neither overflow nor underflow.  With no ``masks`` (the generators) the sums are
    the row sums off the diagonal.  The norms are those of ``U``; the caller scales back the ones it reports.
    """
    b = basis @ unit @ basis.conj().T
    w = np.abs(b) ** 2
    w += w.T
    if masks is None:
        np.fill_diagonal(w, 0.0)
        return 2.0 * np.sqrt(np.sum(w, axis=1))
    return 2.0 * np.sqrt(np.sum((masks @ w) * (1.0 - masks), axis=1))


def _scale_back(x: float, e: int, what: str) -> float:
    """``x * 2**e`` for a reported quantity; OverflowError, not ``inf``, beyond the float range."""
    y = _times_power_of_two(float(x), e)
    if not math.isfinite(y):
        raise OverflowError(f"{what} (about {x:.6g} * 2**{e}) exceeds the float range")
    return y


def max_generator_commutator(a, group: ConjugatedSignGroup) -> float:
    """Largest ``||gA - Ag||_F`` over the generators; OverflowError beyond the float range."""
    m = as_matrix(a, name="a")
    if m.shape[0] != group.n:
        raise DimensionMismatchError(
            f"matrix is {m.shape[0]}x{m.shape[0]} but group acts on dimension {group.n}"
        )
    return _generator_check(*_at_unit_scale(m, math.inf), group.basis, math.inf).max_commutator


def is_equivariant(a, v, tol: float | None = None, exhaustive: bool = False) -> bool:
    """True when ``A`` commutes with the conjugated sign group built on ``V``.

    Generator commutation implies commutation with the whole group, so only
    the ``n`` single-flip reflections are checked by default; ``exhaustive``
    checks all ``2**n`` elements (diagnostic, capped at n <= 12).  Every
    commutator comes from the one product ``V A V^T``.
    """
    m = as_real_matrix(a, name="a")
    basis = as_real_matrix(v, name="basis")
    _check_basis(basis)
    if len(m) != len(basis):
        raise DimensionMismatchError(f"matrix is {len(m)}x{len(m)} but basis is {len(basis)}x{len(basis)}")
    return _commutes(m, basis, tol, exhaustive)


def commutes_with_sign_group(b, tol: float | None = None, exhaustive: bool = False) -> bool:
    """True when ``B`` commutes with every diagonal sign matrix.

    Equivalent to ``B`` being diagonal; the generators are the single-flip
    sign matrices, i.e. the conjugated group on the identity basis.
    """
    m = as_real_matrix(b, name="b")
    return _commutes(m, np.eye(m.shape[0]), tol, exhaustive)


def _commutes(m: np.ndarray, basis: np.ndarray, tol: float | None, exhaustive: bool) -> bool:
    """Whether the validated ``m`` commutes with the generators, or every element, on ``basis``."""
    unit, _, unit_tol = _at_unit_scale(m, tol)
    return bool(np.all(_flip_commutators(unit, basis, _flip_masks(len(basis)) if exhaustive else None) <= unit_tol))


@dataclass(frozen=True, eq=False)
class EquivarianceCheck:
    """Outcome of an equivariance-based symmetry or normality decision.

    ``basis`` holds the rows that define the group's generators and
    ``max_commutator`` the largest generator commutator norm, compared
    against ``tol`` for the ``verdict``; ``worst_generator`` is the index of
    the sign whose generator attains it.
    """

    verdict: bool
    basis: np.ndarray
    max_commutator: float
    tol: float
    worst_generator: int


def _generator_check(unit, e: int, unit_tol: float, basis, tol: float | None) -> EquivarianceCheck:
    """Generator commutators of ``unit = 2**-e A`` against ``unit_tol``; OverflowError, not ``inf``."""
    norms = _flip_commutators(unit, basis)
    worst = int(np.argmax(norms))
    largest = _scale_back(norms[worst], e, "a commutator norm")
    if tol is None:
        tol = _scale_back(unit_tol, e, "the default tolerance")
    return EquivarianceCheck(bool(norms[worst] <= unit_tol), basis, largest, tol, worst)


def symmetry_via_equivariance(a, tol: float | None = None) -> EquivarianceCheck:
    """Decide symmetry of ``A`` by commutation with a conjugated sign group.

    The basis is the eigenvector-row matrix of the symmetric part
    ``(A + A^T)/2``; ``A`` commutes with the resulting group exactly when
    ``A`` is symmetric.  ``A`` is validated and brought to unit scale once.
    """
    unit, e, unit_tol = _at_unit_scale(as_real_matrix(a, name="a"), tol)
    _, basis = _eigh(_prepare(0.5 * (unit + unit.T))[0])
    return _generator_check(unit, e, unit_tol, basis, tol)


def normality_via_equivariance(a, w=None, tol: float | None = None) -> EquivarianceCheck:
    """Decide normality of complex ``A`` by commutation with ``I - 2 w_i* w_i^T``.

    ``w`` must be unitary with rows forming the basis; when omitted, ``A``
    must pass one Hermitian check, ``||A - A*||_F <= tol``, and the basis is
    the eigenvector rows of its Hermitian part ``(A + A*)/2``.  ``A`` commutes
    with all ``n`` reflections exactly when ``A`` is normal with eigenvectors
    ``w_i``.
    """
    unit, e, unit_tol = _at_unit_scale(as_complex_matrix(a, name="a"), tol)
    if w is None:
        if not frobenius(unit - unit.conj().T) <= unit_tol:
            raise NotHermitianError(
                "no basis given and the matrix is not Hermitian; pass w explicitly"
            )
        _, basis = _eigh(_prepare(0.5 * (unit + unit.conj().T))[0])
    else:
        basis = as_complex_matrix(w, name="w")
        if basis.shape[0] != unit.shape[0]:
            raise DimensionMismatchError(
                f"matrix is {unit.shape[0]}x{unit.shape[0]} but basis is {basis.shape[0]}x{basis.shape[0]}"
            )
        if not is_unitary(basis, BASIS_TOL):
            raise NotUnitaryError(f"basis rows are not unitary within {BASIS_TOL:g}")
    return _generator_check(unit, e, unit_tol, basis, tol)


@dataclass(frozen=True)
class GroupAudit:
    """Measured deviations from the defining group laws.

    ``gram_residual`` is ``||V V* - I||_F``, the basis defect every error
    is made of.
    """

    order: int
    involution_max_err: float
    commutation_max_err: float
    closure_max_err: float
    closure_ok: bool
    exhaustive: bool
    gram_residual: float


def group_properties_check(
    group: ConjugatedSignGroup, exhaustive: bool | None = None
) -> GroupAudit:
    """Verify involution, commutativity, closure and order of the group.

    With ``exhaustive`` unset, all ``2**n`` elements are audited when
    ``n <= 12`` and only the generators otherwise.  Closure compares
    ``g_p g_q`` with the element of the entrywise product of the two
    patterns, ``g_(p xor q)``.  Exhaustive mode covers all ``4**n`` pairs,
    generator mode the ``n**2`` generator pairs.

    No element is multiplied: with ``E = V V* - I`` and ``G = V V*``,
    ``g_p g_q - g_(p xor q) = 4 V* D_p E D_q V`` and
    ``g_p g_q - g_q g_p = 4 V* (D_p E D_q - D_q E D_p) V``.  For two
    generators both are rank one, so after the one product ``G`` the errors
    are closed form: closure ``4 |E_pq| sqrt(G_pp G_qq)`` and commutation
    ``4 |E_pq| sqrt(2 (G_pp G_qq - |E_pq|^2))`` for ``p != q``, and
    involution ``4 |E_pp| G_pp``, which is closure's ``p = q`` case.  In
    exhaustive mode, with ``N_p = E D_p G`` and ``o`` the entrywise product,
    their squared norms over 16 are the quadratic forms
    ``c = q^T [(N_p D_p E) o G^T] q`` and ``2 (c - Re q^T [N_p o N_p^T] q)``;
    the involution error is the case ``p = q``.  Each form is evaluated for
    many pairs at once as one matrix product of its entries against the
    stacked ``q_i q_k``, in row blocks of at most ``AUDIT_BLOCK`` entries.
    """
    n = group.n
    if exhaustive is None:
        exhaustive = n <= FULL_AUDIT_CAP

    v = group.basis
    gram = v @ v.conj().T
    resid = gram - np.eye(n)
    if not exhaustive:
        # the same squared norms over 16, of the generator pairs only
        err = np.abs(resid) ** 2
        forms = err * np.outer(gram.diagonal().real, gram.diagonal().real)
        involution, closure = float(forms.diagonal().max()), float(forms.max())
        forms -= err**2
        np.fill_diagonal(forms, 0.0)
        commutation = float(forms.max())
    else:
        masks = _flip_masks(n)
        # The forms are symmetric in (i, k), so each sums over i <= k with the
        # off-diagonal terms doubled; q_i q_i = q_i for a 0/1 mask.
        i, k = np.triu_indices(n)
        fold = np.where(i == k, 1.0, 2.0)
        pairs = (masks[:, i] * masks[:, k]).T

        closure = commutation = involution = 0.0
        rows = max(1, AUDIT_BLOCK // (len(masks) + n * n))
        for start in range(0, len(masks), rows):
            p = masks[start : start + rows]
            c = len(p)
            n_p = ((resid * p[:, None, :]).reshape(c * n, n) @ gram).reshape(c, n, n)
            m_p = ((n_p * p[:, None, :]).reshape(c * n, n) @ resid).reshape(c, n, n)
            closure_form = (m_p * gram.T)[:, i, k].real * fold
            cross_form = (n_p[:, i, k] * n_p[:, k, i]).real * fold
            # Both forms are symmetric in (p, q), so the pairs q >= p suffice.
            forms = np.concatenate((closure_form, closure_form - cross_form)) @ pairs[:, start:]
            diagonal = np.arange(c)
            involution = max(involution, float(forms[diagonal, diagonal].max()))
            closure = max(closure, float(forms[:c].max()))
            # g_p commutes with itself exactly; its form is only rounding noise
            forms[c + diagonal, diagonal] = 0.0
            commutation = max(commutation, float(forms[c:].max()))

    closure_max_err = 4.0 * math.sqrt(max(closure, 0.0))
    return GroupAudit(
        order=2**n,
        involution_max_err=4.0 * math.sqrt(max(involution, 0.0)),
        commutation_max_err=4.0 * math.sqrt(2.0 * max(commutation, 0.0)),
        closure_max_err=closure_max_err,
        closure_ok=closure_max_err <= CLOSURE_TOL,
        exhaustive=exhaustive,
        gram_residual=frobenius(resid),
    )
