"""Predicates, matrix helpers and the two LAPACK-backed eigensolvers."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    REF_REFLECTION_4DP,
    jacobi_eigen,
    random_hermitian,
    random_orthogonal,
    random_symmetric,
    reference_hessian,
    round_robin,
)
from signflip.linalg import (
    DimensionMismatchError,
    DimensionTooLargeError,
    MAX_EIGEN_N,
    NoConvergenceError,
    NotHermitianError,
    NotSymmetricError,
    as_matrix,
    commutator_norm,
    frobenius,
    hermitian_eigen,
    is_diagonal,
    is_hermitian,
    is_normal,
    is_orthogonal,
    is_symmetric,
    is_unitary,
    off_diagonal_norm,
    symmetric_eigen,
    _times_power_of_two,
    _unit_scale,
)
from signflip.linalg import _normalize_row_signs


class TestNormsAndCommutator:
    def test_frobenius(self):
        assert frobenius(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0

    @pytest.mark.parametrize("k", [-1060, -600, 600, 1000])
    def test_frobenius_without_overflow_or_underflow(self, k):
        assert frobenius(np.ldexp([[3.0, 0.0], [0.0, 4.0]], k)) == math.ldexp(5.0, k)
        assert frobenius(np.ldexp([[3.0, 0.0], [0.0, 4.0]], k) * 1j) == math.ldexp(5.0, k)

    def test_off_diagonal_norm(self):
        m = np.array([[1.0, 3.0], [4.0, 2.0]])
        assert off_diagonal_norm(m) == 5.0

    def test_commutator_with_identity_is_zero(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        assert commutator_norm(a, np.eye(4)) == 0.0

    def test_commutator_hand_value(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.diag([1.0, -1.0])
        # ab - ba = [[0, -2], [2, 0]]
        assert commutator_norm(a, b) == pytest.approx(math.sqrt(8.0), rel=1e-15)

    def test_commutator_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("k", [-600, -40, 0, 40, 300])
    def test_commutator_scales_exactly(self, k):
        # the products are formed at unit scale, so 2^k a gives 2^k the norm
        rng = np.random.default_rng(61)
        a, b = rng.normal(size=(2, 5, 5))
        assert commutator_norm(np.ldexp(a, k), b) == math.ldexp(commutator_norm(a, b), k)

    def test_commutator_at_the_float_edge_without_warnings(self):
        # ab - ba = s^2 [[0, -1], [1, 0]], whose products overflow at the
        # input's scale for s = 1e200 and stay finite for s = 1e100
        ones = np.ones((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert commutator_norm(1e100 * ones, np.diag([1e100, 0.0])) == pytest.approx(
                math.sqrt(2.0) * 1e200, rel=1e-15
            )
            with pytest.raises(OverflowError, match="exceeds the float range"):
                commutator_norm(1e200 * ones, np.diag([1e200, 0.0]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_as_matrix_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatchError, match="square"):
            as_matrix(np.zeros(shape))


class TestPredicates:
    def test_is_diagonal(self):
        assert is_diagonal(np.diag([5.0, -3.0]), 0.0)
        near = np.array([[1.0, 1e-9], [0.0, 2.0]])
        assert is_diagonal(near, 1e-8)
        assert not is_diagonal(near, 1e-10)

    def test_is_symmetric(self):
        assert is_symmetric(reference_hessian(), 0.0)
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_symmetric(shear, 0.5)
        assert is_symmetric(shear + shear.T, 0.0)

    def test_is_hermitian(self):
        h = np.array([[2.0, 1j], [-1j, 0.5]])
        assert is_hermitian(h, 0.0)
        assert not is_hermitian(1j * np.eye(2), 1e-3)

    def test_is_orthogonal(self):
        assert is_orthogonal(np.eye(3), 0.0)
        assert not is_orthogonal(2.0 * np.eye(3), 0.1)
        # the printed 4-decimal reflection is orthogonal to rounding level
        assert is_orthogonal(REF_REFLECTION_4DP, 1e-3)
        assert not is_orthogonal(REF_REFLECTION_4DP, 1e-8)

    def test_is_unitary(self):
        w = np.array([[1.0, -1j], [1.0, 1j]]) / math.sqrt(2.0)
        assert is_unitary(w, 1e-15)
        assert not is_unitary(np.array([[1.0, 1j], [0.0, 1.0]]), 0.1)

    @pytest.mark.parametrize("predicate", [is_orthogonal, is_unitary])
    def test_isometry_verdict_flips_at_the_residual(self, predicate):
        # the verdict is ||m m* - I||_F <= tol, formed at the input's scale
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 8, 64):
            m = random_orthogonal(rng, n) + 1e-9 * rng.normal(size=(n, n))
            for a in (m, REF_REFLECTION_4DP) if predicate is is_orthogonal else (m, m * 1j):
                d = frobenius(a @ a.conj().T - np.eye(len(a)))
                assert predicate(a, d)
                assert not predicate(a, math.nextafter(d, 0.0))

    @pytest.mark.parametrize("predicate", [is_orthogonal, is_unitary])
    def test_isometry_at_the_float_edge_without_warnings(self, predicate):
        # m m* overflows to inf (and to NaN where inf - inf meets) at the
        # input's scale; the residual exceeds every finite tol
        big = 1e200 * np.eye(2)
        signs = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (big, signs):
                assert not predicate(m, 0.1)
                assert not predicate(m, 1.7e308)
                assert predicate(m, math.inf)
            assert not is_unitary(1j * big, 0.1)

    def test_is_normal(self):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        assert is_normal(rotation, 1e-15)
        assert is_normal(np.array([[2.0, 1j], [-1j, 0.5]]), 1e-15)
        assert not is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)

    @pytest.mark.parametrize(
        "predicate", [is_diagonal, is_symmetric, is_hermitian, is_orthogonal, is_unitary, is_normal]
    )
    def test_negative_tolerance_rejected(self, predicate):
        with pytest.raises(ValueError):
            predicate(np.eye(2), -1e-3)

    @pytest.mark.parametrize(
        "predicate", [is_diagonal, is_symmetric, is_hermitian, is_orthogonal, is_unitary, is_normal]
    )
    def test_nan_tolerance_rejected(self, predicate):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            predicate(np.eye(2), math.nan)

    @pytest.mark.parametrize("scale", [1.7e308, 5e-324])
    def test_is_normal_at_the_float_edges_without_warnings(self, scale):
        # both products overflow (or underflow to zero) unless they are formed
        # at unit scale, and the tolerance is scaled by 2^-2e in two steps
        rotation = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
        shear = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_normal(rotation, 0.0)
            assert not is_normal(shear, 0.0)

    @pytest.mark.parametrize("k", [-300, -40, 0, 40, 300])
    def test_is_normal_verdict_is_that_of_the_unscaled_products(self, k):
        # in the normal range the unit-scale products are exactly 2^-2e times
        # the unscaled ones, so the verdict flips at the same tolerance
        rng = np.random.default_rng(300 + k)
        for n in (1, 2, 3, 5, 8):
            m = math.ldexp(1.0, k) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            for a in (m, m.real, m + m.conj().T):
                c = a.astype(complex)
                d = frobenius(c @ c.conj().T - c.conj().T @ c)
                assert is_normal(a, d)
                assert d == 0.0 or not is_normal(a, math.nextafter(d, 0.0))

    @pytest.mark.parametrize("predicate", [is_symmetric, is_hermitian])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_difference_beyond_float_range_without_warnings(self, predicate, dtype):
        # the difference A - A^T of this matrix overflows unless it is taken at unit scale
        skew = 1.7e308 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not predicate(skew, 1e300)
            assert predicate(skew + skew.T, 0.0)


@pytest.mark.parametrize("k", [-1000, -30, 0, 30, 1000])
@pytest.mark.parametrize(
    "m",
    [
        np.array([[0.9 + 0.9j, 0.1j], [-0.3, 0.5 - 0.7j]]),  # |z| = 1.27 but no part reaches 1
        np.array([[0.2 - 0.6j, 0.0], [0.3j, -0.25 + 0.1j]]),  # the largest part is imaginary
        np.array([[-0.75 + 0.7j, 0.5], [0.1, 0.0]]),  # the largest part is real
    ],
)
def test_unit_scale_of_a_complex_matrix(m, k):
    """Every real and imaginary part lands in (-1, 1), the largest at 1/2 or more, exactly."""
    a = m * math.ldexp(1.0, k)
    unit, e = _unit_scale(a)
    parts = np.abs(np.concatenate([unit.real.ravel(), unit.imag.ravel()]))
    assert 0.5 <= parts.max() < 1.0
    assert np.array_equal(_times_power_of_two(unit, e), a)


def characteristic_roots_3x3(a):
    """Eigenvalues of a 3x3 matrix from its characteristic polynomial."""
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)


class TestSymmetricEigen:
    def test_diagonal_input_sorted_with_permutation(self):
        dec = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(dec.values, [1.0, 2.0, 3.0], atol=0.0)
        expected_rows = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        )
        assert_allclose(dec.vectors, expected_rows, atol=0.0)
        assert dec.residual == 0.0
        assert dec.orthogonality == 0.0

    def test_exchange_matrix(self):
        dec = symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(dec.values, [-1.0, 1.0], atol=1e-15)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert_allclose(
            dec.vectors,
            [[inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2]],
            atol=1e-15,
        )
        assert dec.orthogonality <= 1e-15

    def test_1x1(self):
        dec = symmetric_eigen(np.array([[7.0]]))
        assert dec.values[0] == 7.0
        assert dec.vectors[0, 0] == 1.0
        assert dec.residual == 0.0

    def test_reference_matrix_against_characteristic_polynomial(self):
        h = reference_hessian()
        dec = symmetric_eigen(h)
        assert_allclose(dec.values, characteristic_roots_3x3(h), atol=1e-10)
        # rows reconstruct the input
        recon = dec.vectors.T @ np.diag(dec.values) @ dec.vectors
        assert_allclose(recon, h, atol=1e-12)

    def test_values_match_lapack(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 5, 9, 12):
            a = random_symmetric(rng, n)
            dec = symmetric_eigen(a)
            assert_allclose(dec.values, np.linalg.eigvalsh(a), atol=1e-10 * max(1.0, frobenius(a)))

    def test_random_quality(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            a = random_symmetric(rng, n)
            dec = symmetric_eigen(a)
            assert dec.residual <= 1e-10 * frobenius(a)
            assert frobenius(dec.vectors @ dec.vectors.T - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(dec.values) >= 0.0)

    def test_eigenvector_rows_satisfy_eigen_equation(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 6)
        dec = symmetric_eigen(a)
        for value, row in zip(dec.values, dec.vectors):
            assert_allclose(a @ row, value * row, atol=1e-10 * frobenius(a))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 8)
        d1 = symmetric_eigen(a)
        d2 = symmetric_eigen(a)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)
        assert d1.residual == d2.residual

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_asymmetric_at_huge_scale(self):
        # the symmetry tolerance is 1e-12 * ||a||_F, and the plain sum of
        # squares behind that norm overflows here
        with pytest.raises(NotSymmetricError):
            symmetric_eigen(1e200 * np.array([[1.0, 5.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("k", [-900, -300, -100, 600, 900])
    @pytest.mark.parametrize("solver", [symmetric_eigen, hermitian_eigen])
    def test_power_of_two_scaling_is_exact(self, solver, k):
        rng = np.random.default_rng(17)
        a = random_symmetric(rng, 8) if solver is symmetric_eigen else random_hermitian(rng, 8)
        base = solver(a)
        scaled = solver(a * math.ldexp(1.0, k))
        assert np.array_equal(scaled.vectors, base.vectors)
        assert np.array_equal(scaled.values, np.ldexp(base.values, k))
        assert scaled.residual == math.ldexp(base.residual, k)
        assert scaled.orthogonality == base.orthogonality

    @pytest.mark.parametrize("solver", [symmetric_eigen, hermitian_eigen])
    def test_value_beyond_float_range_raises(self, solver):
        # the largest eigenvalue of 1e308 * ones(4, 4) is 4e308; it must not
        # come back as inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float range"):
                solver(1e308 * np.ones((4, 4)))
        assert solver(1e307 * np.ones((4, 4))).values[-1] == pytest.approx(4e307, rel=1e-14)

    def test_rejects_complex_input(self):
        with pytest.raises(TypeError):
            symmetric_eigen(np.eye(2, dtype=complex))

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            symmetric_eigen(np.eye(MAX_EIGEN_N + 1))

    def test_no_convergence_when_lapack_fails(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        for solver in (symmetric_eigen, hermitian_eigen):
            with pytest.raises(NoConvergenceError, match="did not converge"):
                solver(np.eye(3))


class TestHermitianEigen:
    def test_antisymmetric_imaginary_pair(self):
        pauli_like = np.array([[0.0, -1j], [1j, 0.0]])
        dec = hermitian_eigen(pauli_like)
        assert_allclose(dec.values, [-1.0, 1.0], atol=1e-15)
        recon = dec.vectors @ pauli_like @ dec.vectors.conj().T
        assert_allclose(recon, np.diag(dec.values), atol=1e-14)

    def test_real_symmetric_agreement(self):
        rng = np.random.default_rng(21)
        a = random_symmetric(rng, 5)
        real_dec = symmetric_eigen(a)
        herm_dec = hermitian_eigen(a.astype(complex))
        assert_allclose(herm_dec.values, real_dec.values, atol=1e-12)
        assert_allclose(np.abs(herm_dec.vectors), np.abs(real_dec.vectors), atol=1e-10)

    def test_random_quality(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            a = random_hermitian(rng, n)
            dec = hermitian_eigen(a)
            assert dec.residual <= 1e-10 * frobenius(a)
            assert frobenius(dec.vectors @ dec.vectors.conj().T - np.eye(n)) <= 1e-12 * n
            assert np.all(np.isreal(dec.values))
            assert_allclose(dec.values, np.linalg.eigvalsh(a), atol=1e-10 * max(1.0, frobenius(a)))

    def test_row_phase_normalization(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 6)
        dec = hermitian_eigen(a)
        for row in dec.vectors:
            k = int(np.argmax(np.abs(row)))
            assert row[k].imag == pytest.approx(0.0, abs=1e-14)
            assert row[k].real > 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 7)
        d1 = hermitian_eigen(a)
        d2 = hermitian_eigen(a)
        assert np.array_equal(d1.vectors, d2.vectors)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**31 - 1))
def test_real_input_parity(n, seed):
    """Both solvers run one kernel, so on real symmetric input with a spectral
    gap the Hermitian path reproduces the real one to rounding."""
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, n)
    spectrum = np.cumsum(rng.uniform(0.1, 2.0, size=n)) - rng.uniform(0.0, n)
    s = q.T @ np.diag(spectrum) @ q
    s = 0.5 * (s + s.T)
    real = symmetric_eigen(s)
    herm = hermitian_eigen(s)
    scale = frobenius(s)
    gap = np.min(np.diff(real.values), initial=np.inf)
    assert np.max(np.abs(herm.values - real.values)) <= 1e-13 * scale
    assert np.max(np.abs(herm.vectors - real.vectors)) <= 1e-12 * scale / gap


def normalize_row_by_row(vectors):
    """Reference for the vectorized normalization: one row at a time."""
    out = vectors.copy()
    for i in range(out.shape[0]):
        pivot = out[i, int(np.argmax(np.abs(out[i])))]
        if out.dtype.kind == "c":
            out[i] *= pivot.conjugate() / abs(pivot)
        elif pivot < 0.0:
            out[i] = -out[i]
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 32, MAX_EIGEN_N])
def test_row_normalization_matches_row_by_row(n):
    """Real rows are bitwise those of the row loop; complex rows agree to
    rounding, since the loop multiplies by a scalar."""
    rng = np.random.default_rng(n)
    real = random_orthogonal(rng, n)
    assert np.array_equal(_normalize_row_signs(real), normalize_row_by_row(real))
    unitary = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    gap = np.abs(_normalize_row_signs(unitary) - normalize_row_by_row(unitary))
    assert np.max(gap) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", range(1, MAX_EIGEN_N + 1))
def test_round_robin_schedule(n):
    """The Jacobi oracle's sweep meets every pair p < q once, in rounds of disjoint pairs."""
    rounds = round_robin(n)
    assert len(rounds) == (n if n % 2 else n - 1)
    met = []
    for pairs in rounds:
        p, q = np.array(pairs, dtype=int).reshape(-1, 2).T
        assert len(p) == n // 2
        assert np.all(p < q)
        assert len(set(p) | set(q)) == 2 * len(p)
        met += pairs
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def self_adjoint(rng, n, spectrum, real):
    """``Q* diag(values) Q`` with the values drawn to ``spectrum``, and the values."""
    if spectrum == "clustered":
        centers = rng.normal(size=max(1, n // 3))
        values = centers[np.arange(n) % len(centers)] * (1.0 + 1e-9 * rng.normal(size=n))
    elif spectrum == "repeated":
        values = rng.choice(rng.normal(size=3), size=n)
    elif spectrum == "gapped":
        values = np.cumsum(rng.uniform(0.1, 2.0, size=n)) - rng.uniform(0.0, n)
    else:
        values = rng.normal(size=n)
    if real:
        q = random_orthogonal(rng, n)
    else:
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    a = q.conj().T @ np.diag(values) @ q
    return 0.5 * (a + a.conj().T), np.sort(values)


def assert_matches(dec, values, rows, a, spectrum):
    """Values to 1e-13 ||A||_F; each vector row to 1e-12 ||A||_F over the spectral gap."""
    scale = frobenius(a)
    assert np.max(np.abs(dec.values - values)) <= 1e-13 * scale
    gap = np.min(np.diff(spectrum), initial=np.inf)
    if gap > 0.0:
        overlap = np.abs(dec.vectors @ rows.conj().T)
        assert np.max(np.abs(overlap - np.eye(len(values)))) <= 1e-12 * scale / gap


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["generic", "clustered", "repeated"]),
    st.sampled_from([symmetric_eigen, hermitian_eigen]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matches_mpmath(n, spectrum, solver, seed):
    """Values and vectors agree with mpmath's eigsy/eighe at 40 digits,
    including spectra clustered to 1e-9 and spectra with repeated values."""
    rng = np.random.default_rng(seed)
    a, designed = self_adjoint(rng, n, spectrum, solver is symmetric_eigen)
    with mpmath.workdps(40):
        if solver is symmetric_eigen:
            e, q = mpmath.eigsy(mpmath.matrix(a))
        else:
            e, q = mpmath.eighe(mpmath.matrix(a))
        values = np.array(e.tolist(), dtype=float).ravel()
        rows = np.array(q.T.conjugate().tolist(), dtype=a.dtype)
    order = np.argsort(values)
    assert_matches(solver(a), values[order], rows[order], a, designed)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.sampled_from(["gapped", "clustered", "repeated"]),
    st.sampled_from([symmetric_eigen, hermitian_eigen]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matches_cyclic_jacobi(n, spectrum, solver, seed):
    """Values and vectors agree with the scalar cyclic Jacobi oracle."""
    rng = np.random.default_rng(seed)
    a, designed = self_adjoint(rng, n, spectrum, solver is symmetric_eigen)
    values, rows = jacobi_eigen(a)
    assert_matches(solver(a), values, rows, a, designed)
