"""Tests for the normalized Pauli-string basis: multi-indices, basis
elements, coefficient transforms, quadratic product assembly, and local
operator embedding."""

import numpy as np
import pytest

from floquet_lindblad import (
    DimensionMismatchError,
    FrobeniusBasis,
    InvalidIndexError,
    MultiIndex,
    PAULI,
    embed_local,
    frobenius_inner,
    kron,
    matrix_from_pauli_coefficients,
    pauli_coefficients,
    pauli_string,
)
from floquet_lindblad.pauli import (
    code_two_counts,
    code_weights,
    quadratic_product_coefficients,
)


def random_complex(rng, dim):
    """Dense complex square matrix with standard normal entries."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
        (dim, dim)
    )


def test_multi_index_weight_counts_nonzero_entries():
    """The weight is the number of non-identity slots."""
    assert MultiIndex((0, 0, 0)).weight == 0
    assert MultiIndex((1, 0, 3)).weight == 2
    assert MultiIndex((2, 2, 2)).weight == 3


def test_multi_index_code_roundtrip():
    """from_code inverts the code property for every 2-site index."""
    for code in range(16):
        index = MultiIndex.from_code(code, 2)
        assert index.code == code


def test_multi_index_two_count():
    """two_count tallies entries equal to 2."""
    assert MultiIndex((2, 0, 2, 1)).two_count == 2


def test_multi_index_rejects_invalid_entry():
    """Entries outside 0..3 are rejected."""
    with pytest.raises(InvalidIndexError):
        MultiIndex((0, 4))


def test_pauli_string_single_site_z():
    """The single-site z string is diag(1, -1) / sqrt(2)."""
    np.testing.assert_allclose(
        pauli_string((3,)), np.diag([1.0, -1.0]) / np.sqrt(2.0)
    )


def test_pauli_string_identity_normalization():
    """The all-zero index gives I / sqrt(2^L)."""
    np.testing.assert_allclose(pauli_string((0, 0)), np.eye(4) / 2.0)


def test_pauli_string_two_site_product():
    """(1, 3) produces (sigma_x kron sigma_z) / 2 with unit norm."""
    expected = kron(PAULI[1], PAULI[3]) / 2.0
    result = pauli_string((1, 3))
    np.testing.assert_allclose(result, expected)
    assert np.linalg.norm(result) == pytest.approx(1.0)


def test_basis_orthonormality_exhaustive_small():
    """<F_j, F_k> equals the Kronecker delta for L up to 2."""
    for num_sites in (1, 2):
        basis = FrobeniusBasis(num_sites)
        for j in range(basis.size):
            for k in range(basis.size):
                value = frobenius_inner(basis.element(j), basis.element(k))
                assert value == pytest.approx(
                    1.0 if j == k else 0.0, abs=1e-12
                )


def test_basis_orthonormality_sampled_large():
    """Sampled pairs stay orthonormal for L of 3 and 4."""
    rng = np.random.default_rng(23)
    for num_sites in (3, 4):
        basis = FrobeniusBasis(num_sites)
        codes = rng.integers(0, basis.size, size=(40, 2))
        for j, k in codes:
            value = frobenius_inner(
                basis.element(int(j)), basis.element(int(k))
            )
            assert value == pytest.approx(
                1.0 if j == k else 0.0, abs=1e-12
            )


def test_basis_completeness_reconstructs_random_matrices():
    """Any matrix equals its Frobenius-coefficient expansion, L <= 3."""
    rng = np.random.default_rng(29)
    for num_sites in (1, 2, 3):
        dim = 2**num_sites
        matrix = random_complex(rng, dim)
        coefficients = pauli_coefficients(matrix, num_sites)
        rebuilt = matrix_from_pauli_coefficients(coefficients, num_sites)
        np.testing.assert_allclose(rebuilt, matrix, atol=1e-12)


def test_inverse_transform_carries_trailing_axes():
    """Coefficients stacked along trailing axes give the stacked matrices,
    each equal to its own inverse transform up to roundoff (the stacked
    products may sum in another order); other shapes are refused."""
    rng = np.random.default_rng(37)
    for num_sites in (1, 2, 3):
        size = 4**num_sites
        stack = rng.standard_normal((size, 2, 3)) + 1j * rng.standard_normal((size, 2, 3))
        rebuilt = matrix_from_pauli_coefficients(stack, num_sites)
        assert rebuilt.shape == (2**num_sites, 2**num_sites, 2, 3)
        for i in range(2):
            for j in range(3):
                single = matrix_from_pauli_coefficients(stack[:, i, j], num_sites)
                np.testing.assert_allclose(rebuilt[..., i, j], single, atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        matrix_from_pauli_coefficients(np.zeros((2, 16)), 2)


def test_pauli_coefficients_match_inner_products():
    """The fast transform agrees with explicit Frobenius projections."""
    rng = np.random.default_rng(31)
    num_sites = 2
    basis = FrobeniusBasis(num_sites)
    matrix = random_complex(rng, basis.dim)
    coefficients = pauli_coefficients(matrix, num_sites)
    for code in range(basis.size):
        expected = frobenius_inner(basis.element(code), matrix)
        assert coefficients[code] == pytest.approx(expected, abs=1e-12)


def test_traceless_for_nonzero_indices():
    """Every basis element except the identity index is traceless."""
    basis = FrobeniusBasis(2)
    for code in range(1, basis.size):
        assert abs(np.trace(basis.element(code))) < 1e-14


def test_basis_indices_filters_by_weight():
    """Weight filtering returns exactly the expected index counts."""
    basis = FrobeniusBasis(2)
    assert len(basis.indices()) == 16
    assert len(basis.indices(min_weight=1)) == 15
    assert len(basis.indices(min_weight=1, max_weight=1)) == 6
    assert len(basis.indices(min_weight=2, max_weight=2)) == 9


def test_code_weights_and_two_counts_tables():
    """Vectorized weight tables agree with per-index properties."""
    num_sites = 3
    weights = code_weights(num_sites)
    twos = code_two_counts(num_sites)
    for code in range(4**num_sites):
        index = MultiIndex.from_code(code, num_sites)
        assert weights[code] == index.weight
        assert twos[code] == index.two_count


def test_quadratic_product_coefficients_against_dense_oracle():
    """The table-driven product sum matches dense matrix assembly."""
    rng = np.random.default_rng(37)
    num_sites = 2
    basis = FrobeniusBasis(num_sites)
    codes = np.array([1, 4, 6, 9, 11], dtype=np.int64)
    entries = random_complex(rng, codes.size)
    dense = np.zeros((basis.dim, basis.dim), dtype=complex)
    for row, code_j in enumerate(codes):
        for col, code_k in enumerate(codes):
            dense += (
                entries[row, col]
                * basis.element(int(code_k))
                @ basis.element(int(code_j))
            )
    coefficients = quadratic_product_coefficients(codes, entries, num_sites)
    rebuilt = matrix_from_pauli_coefficients(coefficients, num_sites)
    np.testing.assert_allclose(rebuilt, dense, atol=1e-12)


def test_quadratic_product_coefficients_with_exact_zeros():
    """Exact-zero rows, columns and entries add nothing: the sum matches
    the dense oracle over every pair, and an all-zero matrix gives zero
    coefficients."""
    rng = np.random.default_rng(41)
    num_sites = 3
    basis = FrobeniusBasis(num_sites)
    codes = np.array([1, 5, 14, 27, 36, 50, 63], dtype=np.int64)
    entries = random_complex(rng, codes.size)
    entries[2, :] = 0.0
    entries[:, 5] = 0.0
    entries[rng.random(entries.shape) < 0.4] = 0.0
    dense = np.zeros((basis.dim, basis.dim), dtype=complex)
    for row, code_j in enumerate(codes):
        for col, code_k in enumerate(codes):
            dense += (
                entries[row, col]
                * basis.element(int(code_k))
                @ basis.element(int(code_j))
            )
    coefficients = quadratic_product_coefficients(codes, entries, num_sites)
    rebuilt = matrix_from_pauli_coefficients(coefficients, num_sites)
    np.testing.assert_allclose(rebuilt, dense, atol=1e-12)
    zeros = quadratic_product_coefficients(
        codes, np.zeros_like(entries), num_sites
    )
    np.testing.assert_array_equal(zeros, np.zeros(4**num_sites))


def test_embed_local_places_operator_on_named_sites():
    """Embedding a one-site operator matches an explicit Kronecker
    product on every site of a 3-site chain."""
    operator = PAULI[1]
    expected_by_site = [
        kron(PAULI[1], np.eye(2), np.eye(2)),
        kron(np.eye(2), PAULI[1], np.eye(2)),
        kron(np.eye(2), np.eye(2), PAULI[1]),
    ]
    for site, expected in enumerate(expected_by_site):
        np.testing.assert_allclose(
            embed_local(operator, (site,), 3), expected
        )


def test_embed_local_respects_site_ordering():
    """A two-site operator on swapped sites transposes its factors."""
    operator = kron(PAULI[1], PAULI[3])
    direct = embed_local(operator, (0, 1), 2)
    swapped = embed_local(operator, (1, 0), 2)
    np.testing.assert_allclose(direct, kron(PAULI[1], PAULI[3]))
    np.testing.assert_allclose(swapped, kron(PAULI[3], PAULI[1]))


def test_embed_local_rejects_bad_sites():
    """Duplicate or out-of-range sites are rejected."""
    with pytest.raises(InvalidIndexError):
        embed_local(np.eye(4), (0, 0), 3)
    with pytest.raises(InvalidIndexError):
        embed_local(np.eye(2), (5,), 3)
