"""Sign patterns, conjugated groups, equivariance and normality checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    REF_REFLECTION_4DP,
    random_hermitian,
    random_orthogonal,
    random_symmetric,
    reference_hessian,
)
from signflip import linalg
from signflip.linalg import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotHermitianError,
    commutator_norm,
    frobenius,
    is_diagonal,
    is_symmetric,
    off_diagonal_norm,
    symmetric_eigen,
    _unit_scale,
)
from signflip.signgroup import (
    FULL_AUDIT_CAP,
    NotOrthogonalError,
    NotUnitaryError,
    SignPattern,
    all_patterns,
    commutes_with_sign_group,
    conjugated_group,
    default_tolerance,
    enumerate_group,
    group_properties_check,
    is_equivariant,
    max_generator_commutator,
    normality_via_equivariance,
    symmetry_via_equivariance,
)
from signflip.signgroup import _flip_commutators, _flip_masks


class TestSignPattern:
    def test_from_string_and_back(self):
        p = SignPattern.from_string("-++")
        assert p.signs == (-1, 1, 1)
        assert str(p) == "-++"
        assert len(p) == 3
        assert p.flipped == (0,)

    @given(st.text(alphabet="+-", min_size=1, max_size=12))
    def test_string_round_trip(self, text):
        assert str(SignPattern.from_string(text)) == text

    @pytest.mark.parametrize("bad", ["", "+0-", "+ -", "pm"])
    def test_rejects_bad_strings(self, bad):
        with pytest.raises(ValueError):
            SignPattern.from_string(bad)

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            SignPattern(())
        with pytest.raises(ValueError):
            SignPattern((1, 0, -1))


class TestConjugatedElement:
    def test_all_plus_gives_identity(self):
        rng = np.random.default_rng(0)
        v = random_orthogonal(rng, 4)
        e = conjugated_group(v).element(SignPattern.from_string("++++"))
        assert_allclose(e.matrix, np.eye(4), atol=1e-14)

    def test_identity_basis_recovers_sign_matrix(self):
        p = SignPattern.from_string("-+")
        e = conjugated_group(np.eye(2)).element(p)
        assert np.array_equal(e.matrix, np.diag([-1.0, 1.0]))

    def test_projector_form_equals_direct_conjugation(self):
        # I - 2 * sum of flipped-row projectors must equal V^T diag(signs) V
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 5, 8):
            v = random_orthogonal(rng, n)
            for pattern in all_patterns(n):
                direct = v.T @ np.diag(pattern.signs) @ v
                built = conjugated_group(v).element(pattern).matrix
                assert_allclose(built, direct, atol=1e-13)

    def test_single_flip_is_householder_reflection(self):
        rng = np.random.default_rng(15)
        v = random_orthogonal(rng, 5)
        row = v[2]
        pattern = SignPattern((1, 1, -1, 1, 1))
        e = conjugated_group(v).element(pattern)
        assert_allclose(e.matrix, np.eye(5) - 2.0 * np.outer(row, row), atol=1e-14)

    def test_elements_are_symmetric_orthogonal_involutions(self):
        rng = np.random.default_rng(16)
        v = random_orthogonal(rng, 4)
        for e in enumerate_group(v):
            m = e.matrix
            assert is_symmetric(m, 1e-13)
            assert frobenius(m @ m - np.eye(4)) <= 1e-13

    def test_rejects_non_orthogonal_basis(self):
        with pytest.raises(NotOrthogonalError):
            conjugated_group(np.array([[1.0, 1.0], [0.0, 1.0]])).element(SignPattern((1, -1)))

    def test_rejects_pattern_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conjugated_group(np.eye(3)).element(SignPattern((1, -1)))

    def test_reference_reflection(self):
        dec = symmetric_eigen(reference_hessian())
        e = conjugated_group(dec.vectors).element(SignPattern.from_string("-++"))
        assert float(np.max(np.abs(e.matrix - REF_REFLECTION_4DP))) <= 5e-5

    def test_reference_reflection_flips_first_eigenvector(self):
        dec = symmetric_eigen(reference_hessian())
        e = conjugated_group(dec.vectors).element(SignPattern.from_string("-++"))
        v1 = dec.vectors[0]
        assert_allclose(e.matrix @ v1, -v1, atol=1e-12)
        assert_allclose(e.matrix @ dec.vectors[1], dec.vectors[1], atol=1e-12)


class TestEnumeration:
    def test_order_and_distinctness(self):
        rng = np.random.default_rng(17)
        v = random_orthogonal(rng, 3)
        elements = list(enumerate_group(v))
        assert len(elements) == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert frobenius(elements[i].matrix - elements[j].matrix) > 1e-6

    def test_lexicographic_plus_before_minus(self):
        patterns = [str(e.pattern) for e in enumerate_group(np.eye(2))]
        assert patterns == ["++", "+-", "-+", "--"]

    def test_n1_elements(self):
        elements = list(enumerate_group(np.eye(1)))
        assert [e.matrix[0, 0] for e in elements] == [1.0, -1.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_position_is_pattern_bitmask(self, n):
        # element k flips exactly the signs whose bits are set in k (bit 0 = last sign)
        rng = np.random.default_rng(30 + n)
        group = conjugated_group(random_orthogonal(rng, n))
        for k, e in enumerate(enumerate_group(group.basis)):
            assert sum(1 << (n - 1 - i) for i in e.pattern.flipped) == k
            assert np.array_equal(e.matrix, group.element(e.pattern).matrix)

    def test_cap_enforced(self):
        with pytest.raises(DimensionTooLargeError):
            list(enumerate_group(np.eye(21)))
        with pytest.raises(DimensionTooLargeError):
            list(enumerate_group(np.eye(3), n_cap=2))


class TestGroupAudit:
    def test_identity_basis_exact(self):
        audit = group_properties_check(conjugated_group(np.eye(2)))
        assert audit.exhaustive
        assert audit.order == 4
        assert audit.involution_max_err == 0.0
        assert audit.commutation_max_err == 0.0
        assert audit.closure_max_err == 0.0
        assert audit.closure_ok

    def test_reference_group(self):
        dec = symmetric_eigen(reference_hessian())
        audit = group_properties_check(conjugated_group(dec.vectors))
        assert audit.order == 8
        assert audit.involution_max_err <= 1e-10
        assert audit.commutation_max_err <= 1e-10
        assert audit.closure_ok

    def test_random_groups(self):
        rng = np.random.default_rng(18)
        for n in (1, 2, 4, 6):
            group = conjugated_group(random_orthogonal(rng, n))
            audit = group_properties_check(group)
            assert audit.order == 2**n
            assert audit.involution_max_err <= 1e-12
            assert audit.commutation_max_err <= 1e-12
            assert audit.closure_max_err <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_maxima_match_exact_arithmetic(self, n):
        # elements and their products in exact rationals from the stored
        # float basis, which is perturbed to a Gram residual of 1e-9..1e-8
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            v = _perturbed_basis(rng, n, rng.uniform(0.1, 0.9) * 1e-8)
            group = conjugated_group(v)
            for exhaustive in (True, False):
                exact = _exact_audit(v, exhaustive)
                audit = group_properties_check(group, exhaustive=exhaustive)
                got = (audit.involution_max_err, audit.commutation_max_err, audit.closure_max_err)
                for value, expected in zip(got, exact):
                    assert abs(value - expected) <= 1e-6 * expected

    def test_one_sign_commutes_exactly(self):
        # every pair of a one-dimensional group is (I, I), (I, g), (g, g)
        rng = np.random.default_rng(47)
        audit = group_properties_check(conjugated_group(_perturbed_basis(rng, 1, 5e-9)))
        assert audit.involution_max_err > 0.0
        assert audit.commutation_max_err == 0.0

    def test_gram_residual(self):
        assert group_properties_check(conjugated_group(np.eye(3))).gram_residual == 0.0
        rng = np.random.default_rng(43)
        v = _perturbed_basis(rng, 5, 3e-9)
        audit = group_properties_check(conjugated_group(v))
        assert audit.gram_residual == pytest.approx(
            np.linalg.norm(v @ v.T - np.eye(5)), rel=1e-6
        )

    def test_exhaustive_at_the_cap(self):
        audit = group_properties_check(conjugated_group(np.eye(FULL_AUDIT_CAP)))
        assert audit.exhaustive
        assert audit.order == 2**FULL_AUDIT_CAP
        assert audit.closure_ok

    def test_generator_mode_above_cap(self):
        group = conjugated_group(np.eye(13))
        audit = group_properties_check(group)
        assert not audit.exhaustive
        assert audit.order == 2**13
        assert audit.closure_ok

    def test_exhaustive_refused_above_cap(self):
        group = conjugated_group(np.eye(13))
        with pytest.raises(DimensionTooLargeError):
            group_properties_check(group, exhaustive=True)


def _perturbed_basis(rng, n, gram_residual):
    """A random orthogonal basis moved to about the given ``||V V^T - I||_F``."""
    v = random_orthogonal(rng, n)
    e = rng.normal(size=(n, n))
    return v + gram_residual / frobenius(e @ v.T + v @ e.T) * e


def _exact_audit(v, exhaustive):
    """Involution, commutation and closure maxima computed in exact rationals."""
    n = v.shape[0]
    rows = [[Fraction(float(x)) for x in row] for row in v]

    def element(flipped):
        return [
            [int(i == k) - 2 * sum(rows[j][i] * rows[j][k] for j in flipped) for k in range(n)]
            for i in range(n)
        ]

    def product(x, y):
        return [[sum(x[i][j] * y[j][k] for j in range(n)) for k in range(n)] for i in range(n)]

    def norm(x, y):
        return math.sqrt(float(sum((a - b) ** 2 for rx, ry in zip(x, y) for a, b in zip(rx, ry))))

    masks = range(2**n) if exhaustive else [1 << i for i in range(n)]
    elements = {m: element([i for i in range(n) if m >> i & 1]) for m in range(2**n)}
    involution = commutation = closure = 0.0
    for p in masks:
        involution = max(involution, norm(product(elements[p], elements[p]), elements[0]))
        for q in masks:
            pq = product(elements[p], elements[q])
            commutation = max(commutation, norm(pq, product(elements[q], elements[p])))
            closure = max(closure, norm(pq, elements[p ^ q]))
    return involution, commutation, closure


class TestEquivariance:
    def test_symmetric_matrix_is_equivariant_on_own_basis(self):
        rng = np.random.default_rng(19)
        a = random_symmetric(rng, 5)
        v = symmetric_eigen(a).vectors
        assert is_equivariant(a, v)
        assert is_equivariant(a, v, exhaustive=True)

    def test_shear_is_not_equivariant(self):
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = symmetric_eigen(0.5 * (shear + shear.T)).vectors
        assert not is_equivariant(shear, v, tol=1e-6)

    def test_identity_matrix_equivariant_for_any_basis(self):
        rng = np.random.default_rng(20)
        for n in (1, 3, 6):
            assert is_equivariant(np.eye(n), random_orthogonal(rng, n))

    def test_generator_bound_controls_full_enumeration(self):
        # commuting with the n generators forces commuting with all 2^n products
        rng = np.random.default_rng(22)
        a = random_symmetric(rng, 6)
        group = conjugated_group(symmetric_eigen(a).vectors)
        gen_worst = max_generator_commutator(a, group)
        full_worst = max(
            commutator_norm(e.matrix, a) for e in enumerate_group(group.basis)
        )
        assert full_worst <= 6 * gen_worst + 1e-12


class TestCommutesWithSignGroup:
    def test_diagonal_true(self):
        assert commutes_with_sign_group(np.diag([3.0, -1.0, 0.5]))

    def test_dense_false(self):
        assert not commutes_with_sign_group(np.ones((2, 2)), tol=0.5)

    def test_small_off_diagonal_sensitivity(self):
        b = np.diag([1.0, 2.0]) + np.array([[0.0, 1e-3], [1e-3, 0.0]])
        assert not commutes_with_sign_group(b, tol=1e-6)
        assert commutes_with_sign_group(b, tol=1e-2)

    def test_exhaustive_agrees_with_generators(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            b = rng.normal(size=(n, n))
            if rng.integers(2):
                b = np.diag(np.diag(b))
            tol = default_tolerance(b)
            assert commutes_with_sign_group(b, tol) == commutes_with_sign_group(
                b, tol, exhaustive=True
            )

    def test_exhaustive_cap(self):
        with pytest.raises(DimensionTooLargeError):
            commutes_with_sign_group(np.eye(13), exhaustive=True)

    def test_matches_is_diagonal(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            b = rng.normal(size=(n, n))
            if rng.integers(2):
                b = np.diag(np.diag(b))
            tol = default_tolerance(b)
            assert commutes_with_sign_group(b, tol) == is_diagonal(b, tol)


class TestSymmetryViaEquivariance:
    def test_reference_hessian_verdict(self):
        result = symmetry_via_equivariance(reference_hessian())
        assert result.verdict
        assert result.max_commutator <= result.tol

    def test_rotation_rejected(self):
        result = symmetry_via_equivariance(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not result.verdict
        # symmetric part is zero, so the basis is I and each generator's
        # commutator with the rotation is [[0, -2], [-2, 0]] up to sign
        assert result.max_commutator == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_agrees_with_direct_check(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            if rng.integers(2):
                a = 0.5 * (a + a.T)
            result = symmetry_via_equivariance(a)
            assert result.verdict == is_symmetric(a, default_tolerance(a))

    def test_witness_diagonalizes_symmetric_part(self):
        rng = np.random.default_rng(26)
        a = rng.normal(size=(4, 4))
        result = symmetry_via_equivariance(a)
        sym = 0.5 * (a + a.T)
        assert is_diagonal(result.basis @ sym @ result.basis.T, 1e-10)

    def test_scaled_tolerance_tracks_magnitude(self):
        big = 1e6 * reference_hessian()
        assert symmetry_via_equivariance(big).verdict


    def test_worst_generator_attains_the_maximum(self):
        rng = np.random.default_rng(44)
        for n in (2, 5, 9):
            a = rng.normal(size=(n, n))
            result = symmetry_via_equivariance(a)
            group = conjugated_group(result.basis)
            norms = [commutator_norm(g.matrix, a) for g in group.generators]
            assert result.worst_generator == int(np.argmax(norms))
            assert result.max_commutator == pytest.approx(max(norms), rel=1e-12)

    def test_tiny_asymmetric_matrix_rejected(self):
        # the default tolerance has no absolute floor
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not symmetry_via_equivariance(1e-10 * shear).verdict
        rng = np.random.default_rng(45)
        s = random_symmetric(rng, 4)
        perturbed = s + 1e-3 * rng.normal(size=(4, 4))
        assert not symmetry_via_equivariance(math.ldexp(1.0, -34) * perturbed).verdict

    @pytest.mark.parametrize("k", [-900, -600, -100, 100, 600, 900])
    def test_power_of_two_scaling_is_exact(self, k):
        rng = np.random.default_rng(46)
        for a in (rng.normal(size=(6, 6)), random_symmetric(rng, 6)):
            base = symmetry_via_equivariance(a)
            scaled = symmetry_via_equivariance(np.ldexp(a, k))
            assert np.array_equal(scaled.basis, base.basis)
            assert scaled.max_commutator == math.ldexp(base.max_commutator, k)
            assert scaled.tol == math.ldexp(base.tol, k)
            assert (scaled.verdict, scaled.worst_generator) == (base.verdict, base.worst_generator)


class TestBeyondTheFloatRange:
    """A commutator norm above the float range: decided, never reported as inf."""

    SHEAR = 1.7e308 * np.array([[0.0, 1.0], [0.0, 0.0]])

    def test_verdicts_without_warnings(self):
        basis = symmetric_eigen(0.5 * (self.SHEAR + self.SHEAR.T)).vectors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_equivariant(self.SHEAR, basis)
            assert not is_equivariant(self.SHEAR, np.eye(2), exhaustive=True)
            assert not commutes_with_sign_group(self.SHEAR)

    @pytest.mark.parametrize(
        "report",
        [
            symmetry_via_equivariance,
            lambda a: normality_via_equivariance(a, np.eye(2)),
            lambda a: max_generator_commutator(a, conjugated_group(np.eye(2))),
        ],
        ids=["symmetry", "normality", "max_generator_commutator"],
    )
    def test_reported_norm_raises(self, report):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float range"):
                report(self.SHEAR)


    # asymmetric, with ||A||_F beyond the float range
    EDGE = 1.7e308 * np.array([[0.0, 1.0], [1.0, 0.0]]) + 1e302 * np.array([[0.0, 1.0], [-1.0, 0.0]])

    def test_default_tolerance_is_finite(self):
        assert default_tolerance(self.EDGE) == pytest.approx(1e-8 * math.sqrt(2.0) * 1.7e308, rel=1e-12)

    def test_asymmetric_beyond_norm_range_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not commutes_with_sign_group(self.EDGE)
            assert not commutes_with_sign_group(self.EDGE, exhaustive=True)
            assert not is_equivariant(self.EDGE, np.eye(2))
            result = symmetry_via_equivariance(self.EDGE)
        assert not result.verdict
        assert result.max_commutator == pytest.approx(2.0 * math.sqrt(2.0) * 1e302, rel=1e-6)
        assert result.tol == default_tolerance(self.EDGE)

    def test_symmetric_near_float_range_accepted(self):
        exchange = 1.7e308 * np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = symmetry_via_equivariance(exchange)
        assert result.verdict
        assert np.array_equal(result.basis, symmetry_via_equivariance(exchange / 1.7e308).basis)


class TestNormalityViaEquivariance:
    def test_hermitian_default_basis(self):
        rng = np.random.default_rng(27)
        a = random_hermitian(rng, 4)
        result = normality_via_equivariance(a)
        assert result.verdict

    def test_rotation_with_analytic_basis(self):
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        rotation = np.array([[c, -s], [s, c]], dtype=complex)
        w = np.array([[1.0, -1j], [1.0, 1j]]) / math.sqrt(2.0)
        result = normality_via_equivariance(rotation, w)
        assert result.verdict
        assert result.max_commutator <= 1e-14

    def test_constructed_normal_matrix(self):
        rng = np.random.default_rng(28)
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = q @ np.diag(lam) @ q.conj().T
        result = normality_via_equivariance(a, w=q.conj().T)
        assert result.verdict

    def test_jordan_block_rejected(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        result = normality_via_equivariance(jordan, w=np.eye(2, dtype=complex))
        assert not result.verdict
        assert result.max_commutator == pytest.approx(2.0, rel=1e-12)

    def test_worst_generator(self):
        # generator 2 meets both off-diagonal entries
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        a[1, 2] = 1.0
        a[2, 3] = 0.5j
        result = normality_via_equivariance(a, w=np.eye(4, dtype=complex))
        assert result.worst_generator == 2
        assert result.max_commutator == pytest.approx(2.0 * math.sqrt(1.25), rel=1e-15)

    def test_non_hermitian_without_basis_rejected(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            normality_via_equivariance(jordan)

    def test_non_unitary_basis_rejected(self):
        with pytest.raises(NotUnitaryError):
            normality_via_equivariance(
                np.eye(2, dtype=complex), w=np.array([[1.0, 1.0], [0.0, 1.0]])
            )

    def test_hermitian_near_float_range_accepted(self):
        # its eigenvalue 2e308 exceeds the float range, but the verdict
        # needs only the eigenvectors
        a = 1e308 * np.array([[1.0, 1j], [-1j, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = normality_via_equivariance(a)
        assert result.verdict
        assert np.array_equal(result.basis, normality_via_equivariance(a / 1e308).basis)

    @pytest.mark.parametrize("relative", [1e-11, 1e-9])
    def test_nearly_hermitian_within_tolerance_accepted(self, relative):
        # one Hermitian check, at the verdict's tolerance 1e-8 ||A||_F
        rng = np.random.default_rng(29)
        h = random_hermitian(rng, 6)
        e = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = h + relative * frobenius(h) * e / frobenius(e)
        result = normality_via_equivariance(a)
        assert result.verdict
        assert result.max_commutator <= 0.5 * result.tol

    def test_antihermitian_near_float_range_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                normality_via_equivariance(1.7e308 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))


class TestToleranceValidated:
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    @pytest.mark.parametrize(
        "verdict",
        [
            symmetry_via_equivariance,
            normality_via_equivariance,
            lambda a, tol: normality_via_equivariance(a, np.eye(2), tol),
            lambda a, tol: is_equivariant(a, np.eye(2), tol),
            lambda a, tol: is_equivariant(a, np.eye(2), tol, exhaustive=True),
            commutes_with_sign_group,
            lambda a, tol: commutes_with_sign_group(a, tol, exhaustive=True),
        ],
        ids=["symmetry", "normality", "normality-w", "equivariant", "equivariant-all", "commutes", "commutes-all"],
    )
    def test_negative_or_nan_rejected(self, verdict, tol):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            verdict(np.eye(2), tol=tol)

    def test_zero_and_infinite_accepted(self):
        assert symmetry_via_equivariance(np.eye(2), tol=0.0).verdict
        assert commutes_with_sign_group(np.eye(2), tol=math.inf)


def test_symmetry_verdict_is_one_pass(monkeypatch):
    """One symmetry verdict validates its input once and takes the binary
    exponent only of A and of the symmetric part that reaches LAPACK."""
    calls = {"as_matrix": 0, "_exponent": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    a = np.random.default_rng(30).normal(size=(6, 6))
    for matrix in (a, 0.5 * (a + a.T)):
        calls.update(dict.fromkeys(calls, 0))
        symmetry_via_equivariance(matrix)
        assert calls["as_matrix"] == 1
        assert calls["_exponent"] <= 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_pattern_product_matches_matrix_product(n, seed):
    """Multiplying elements lands on the element of the entrywise sign product."""
    rng = np.random.default_rng(seed)
    v = random_orthogonal(rng, n)
    group = conjugated_group(v)
    p = SignPattern(tuple(rng.choice([1, -1], size=n).tolist()))
    q = SignPattern(tuple(rng.choice([1, -1], size=n).tolist()))
    merged = SignPattern(tuple(a * b for a, b in zip(p.signs, q.signs)))
    product = group.element(p).matrix @ group.element(q).matrix
    assert frobenius(product - group.element(merged).matrix) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_closed_form_commutators_match_element_products(n, seed):
    """Every commutator from B = V A V^T equals the one of the built element."""
    rng = np.random.default_rng(seed)
    v = random_orthogonal(rng, n)
    a = rng.normal(size=(n, n))
    if rng.integers(2):
        a = v.T @ np.diag(rng.normal(size=n)) @ v + 10.0 ** rng.uniform(-12, 0) * a
    unit, k = _unit_scale(a)
    closed = np.ldexp(_flip_commutators(unit, v, _flip_masks(n, True)), k)
    explicit = [commutator_norm(e.matrix, a) for e in enumerate_group(v)]
    assert np.max(np.abs(closed - explicit)) <= 1e-10 * frobenius(a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["symmetric", "asymmetric", "diagonal", "near-diagonal"]),
    st.integers(min_value=-900, max_value=900),
)
def test_verdicts_do_not_depend_on_scale(n, seed, kind, k):
    """Symmetry and diagonality verdicts are the same for A and 2^k A."""
    rng = np.random.default_rng(seed)
    if kind in ("symmetric", "asymmetric"):
        a = random_symmetric(rng, n)
        if kind == "asymmetric":
            a = a + 10.0 ** rng.uniform(-12, 0) * rng.normal(size=(n, n))
    else:
        a = np.diag(rng.normal(size=n))
        if kind == "near-diagonal":
            a = a + 10.0 ** rng.uniform(-12, 0) * rng.normal(size=(n, n))
    entries = np.abs(a[a != 0.0])
    assume(np.all(np.ldexp(entries, min(k, 0)) >= np.finfo(float).tiny))
    assume(np.all(np.isfinite(np.ldexp(entries, max(k, 0)))))
    scaled = np.ldexp(a, k)
    assert symmetry_via_equivariance(scaled).verdict == symmetry_via_equivariance(a).verdict
    for exhaustive in (False, True):
        assert commutes_with_sign_group(scaled, exhaustive=exhaustive) == commutes_with_sign_group(
            a, exhaustive=exhaustive
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.0, 1e-9, 1e-4, 1.0]),
    st.integers(min_value=-900, max_value=900),
)
def test_commutator_identity(n, seed, skew, k):
    """sum_i ||[g_i, A]||_F^2 = 2 ||A - A^T||_F^2 + 8 ||off(V S V^T)||_F^2 for
    the generators g_i on the eigenbasis V of S = (A + A^T) / 2; it needs no
    eigensolver to hold, so it checks the basis the solver returns."""
    rng = np.random.default_rng(seed)
    a = np.ldexp(random_symmetric(rng, n) + skew * rng.normal(size=(n, n)), k)
    unit, e = _unit_scale(a)
    s = 0.5 * (unit + unit.T)
    v = symmetric_eigen(s).vectors
    norms = _flip_commutators(unit, v, _flip_masks(n, False))
    lhs = float(np.sum(norms**2))
    rhs = 2.0 * frobenius(unit - unit.T) ** 2 + 8.0 * off_diagonal_norm(v @ s @ v.T) ** 2
    assert np.array_equal(np.ldexp(unit, e), a)
    assert abs(lhs - rhs) <= 1e-12 * frobenius(unit) * (math.sqrt(lhs) + math.sqrt(rhs))


@pytest.mark.parametrize("n", range(1, 9))
def test_element_sum_is_generator_sum_times_2_to_n_minus_2(n):
    """Over all 2^n elements the squared commutator norms sum to 2^(n-2)
    times their sum over the n generators."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    v = random_orthogonal(rng, n)
    every = _flip_commutators(a, v, _flip_masks(n, True))
    generators = _flip_commutators(a, v, _flip_masks(n, False))
    assert np.sum(every**2) == pytest.approx(2.0 ** (n - 2) * np.sum(generators**2), rel=1e-12)
