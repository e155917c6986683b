"""Tests for the canonical decomposition pipeline: dissipator-matrix
extraction, Hamiltonian coefficient extraction, positive-semidefinite
certification, signed canonical channels, per-order structure checks,
and reconstruction round trips."""

import numpy as np
import pytest

from floquet_lindblad import (
    DimensionMismatchError,
    DissipatorMatrix,
    MultiIndex,
    NotLindbladCandidateError,
    PAULI,
    Superoperator,
    bch_orders,
    canonical_decomposition,
    extract_dissipator,
    extract_hamiltonian,
    is_hermiticity_preserving,
    is_trace_preserving,
    lindblad_form_superop,
    liouvillian_superop,
    per_order_checks,
    psd_report,
    roundtrip_residual,
)
from floquet_lindblad.models import ModelParams, build_model

import dense_reference


def random_liouvillian(rng, dim, num_jumps=2):
    """A GKLS generator with random Hermitian H and random jumps."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
        (dim, dim)
    )
    hamiltonian = raw + raw.conj().T
    jumps = []
    for _ in range(num_jumps):
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        jumps.append((float(rng.uniform(0.2, 1.0)), op))
    return dense_reference.liouvillian_superop(hamiltonian, jumps)


def model_a_expansion(tau=0.1, h=1.0, gamma1=1.0, max_order=2):
    drive = build_model(
        ModelParams(name="A", tau=tau, h=h, gamma1=gamma1)
    )
    return bch_orders(drive, max_order=max_order)


def test_extraction_matches_projection_oracle():
    """Extracted coefficients equal explicit doubled-space Frobenius
    projections <F_j kron conj(F_k), S>."""
    rng = np.random.default_rng(59)
    superop = random_liouvillian(rng, 2)
    dissipator = extract_dissipator(superop)
    from floquet_lindblad import frobenius_inner, kron, pauli_string

    for row, j_index in enumerate(dissipator.index_set):
        for col, k_index in enumerate(dissipator.index_set):
            doubled = kron(
                pauli_string(j_index), pauli_string(k_index).conj()
            )
            expected = frobenius_inner(doubled, superop.matrix)
            assert dissipator.entries[row, col] == pytest.approx(
                expected, abs=1e-11
            )


def test_extraction_is_hermitian_and_excludes_identity_index():
    """The coefficient matrix is Hermitian over weight >= 1 indices."""
    rng = np.random.default_rng(61)
    dissipator = extract_dissipator(random_liouvillian(rng, 4))
    assert all(index.weight >= 1 for index in dissipator.index_set)
    np.testing.assert_allclose(
        dissipator.entries,
        dissipator.entries.conj().T,
        atol=1e-10,
    )


def test_pure_hamiltonian_has_zero_dissipator():
    """A commutator superoperator extracts to the zero matrix."""
    superop = liouvillian_superop(0.7 * PAULI[3])
    dissipator = extract_dissipator(superop)
    assert dissipator.max_abs() <= 1e-12


def test_single_channel_dissipator_coefficient():
    """A rate-gamma sigma_x channel gives a_xx = 2 gamma and nothing
    else."""
    gamma = 0.4
    superop = liouvillian_superop(None, [(gamma, PAULI[1])], system_dim=2)
    dissipator = extract_dissipator(superop)
    x_index = MultiIndex((1,))
    for row, j_index in enumerate(dissipator.index_set):
        for col, k_index in enumerate(dissipator.index_set):
            expected = (
                2.0 * gamma if (j_index, k_index) == (x_index, x_index)
                else 0.0
            )
            assert abs(
                dissipator.entries[row, col] - expected
            ) <= 1e-12


def test_weight_limited_extraction_matches_full_on_retained_pairs():
    """Weight-limited extraction agrees with the full one wherever the
    pair weight is within the cap, and zeroes the rest."""
    drive = build_model(
        ModelParams(name="C", tau=0.1, jz=1.0, gamma=0.5, num_sites=3)
    )
    term = bch_orders(drive, max_order=2).cumulative()
    full = extract_dissipator(term)
    limited = extract_dissipator(term, weight_limit=4)
    for row, j_index in enumerate(limited.index_set):
        for col, k_index in enumerate(limited.index_set):
            full_value = full.entry(j_index, k_index)
            limited_value = limited.entries[row, col]
            if j_index.weight + k_index.weight <= 4:
                assert limited_value == pytest.approx(
                    full_value, abs=1e-12
                )
            else:
                assert limited_value == 0.0


def test_extraction_rejects_non_candidates():
    """A matrix that fails trace or hermiticity preservation raises."""
    rng = np.random.default_rng(67)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NotLindbladCandidateError):
        extract_dissipator(Superoperator(matrix, 2))


def test_extraction_without_validation_takes_a_non_trace_preserving_input():
    """``S = L - 0.3 * id`` loses trace, so both extractions reject it by
    default; with ``validate=False`` they return the coefficients of
    ``L``, since the shift only touches the identity-identity entry."""
    rng = np.random.default_rng(73)
    superop = random_liouvillian(rng, 4)
    shifted = Superoperator(superop.matrix - 0.3 * np.eye(16), 4)
    assert not is_trace_preserving(shifted)
    for extract in (extract_dissipator, extract_hamiltonian):
        with pytest.raises(NotLindbladCandidateError, match="trace"):
            extract(shifted)
    dissipator = extract_dissipator(shifted, validate=False)
    np.testing.assert_allclose(
        dissipator.entries, extract_dissipator(superop).entries, atol=1e-12
    )
    expected = extract_hamiltonian(superop).values
    for reused in (None, dissipator):
        hamiltonian = extract_hamiltonian(shifted, reused, validate=False)
        np.testing.assert_allclose(hamiltonian.values, expected, atol=1e-12)


def test_extraction_rejects_commutator_without_its_factor_i():
    """``kron(H, I) - kron(I, H^T)`` is trace preserving but maps
    Hermitian matrices to anti-Hermitian ones, so both the Hermiticity
    predicate and the extraction reject it."""
    rng = np.random.default_rng(71)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hamiltonian = raw + raw.conj().T
    identity = np.eye(4)
    superop = Superoperator(
        np.kron(hamiltonian, identity) - np.kron(identity, hamiltonian.T), 4
    )
    assert is_trace_preserving(superop)
    assert not is_hermiticity_preserving(superop)
    with pytest.raises(NotLindbladCandidateError, match="Hermiticity"):
        extract_dissipator(superop)


def test_hamiltonian_extraction_duty_cycle_average():
    """The order-0 coherent part of the field-plus-dephasing drive is
    (h / 2) sigma_z, so the z coefficient is h / sqrt(2)."""
    h = 1.3
    expansion = model_a_expansion(h=h)
    superop = expansion.term(0)
    dissipator = extract_dissipator(superop)
    hamiltonian = extract_hamiltonian(superop, dissipator)
    z_index = MultiIndex((3,))
    assert hamiltonian.coefficient(z_index) == pytest.approx(
        h / np.sqrt(2.0), abs=1e-12
    )
    np.testing.assert_allclose(
        hamiltonian.to_matrix(), (h / 2.0) * PAULI[3], atol=1e-12
    )


def test_hamiltonian_extraction_pure_dissipation_is_zero():
    """A pure jump generator has no coherent part."""
    superop = liouvillian_superop(None, [(1.0, PAULI[1])], system_dim=2)
    dissipator = extract_dissipator(superop)
    hamiltonian = extract_hamiltonian(superop, dissipator)
    assert np.max(np.abs(hamiltonian.values)) <= 1e-12


def test_roundtrip_on_random_liouvillians():
    """Extract-and-rebuild reproduces random generators."""
    rng = np.random.default_rng(71)
    for dim in (2, 4):
        superop = random_liouvillian(rng, dim)
        dissipator = extract_dissipator(superop)
        hamiltonian = extract_hamiltonian(superop, dissipator)
        assert roundtrip_residual(
            superop, hamiltonian, dissipator
        ) <= 1e-10


def test_roundtrip_of_zero_superoperator():
    """The zero generator round trips to residual zero."""
    superop = Superoperator(np.zeros((4, 4), dtype=complex), 2)
    dissipator = extract_dissipator(superop)
    hamiltonian = extract_hamiltonian(superop, dissipator)
    assert roundtrip_residual(superop, hamiltonian, dissipator) == 0.0


def test_roundtrip_rejects_a_superoperator_on_other_sites():
    """A one-site superoperator does not compare with a two-site
    decomposition."""
    rng = np.random.default_rng(73)
    superop = random_liouvillian(rng, 4)
    dissipator = extract_dissipator(superop)
    hamiltonian = extract_hamiltonian(superop, dissipator)
    with pytest.raises(DimensionMismatchError):
        roundtrip_residual(random_liouvillian(rng, 2), hamiltonian, dissipator)


def test_form_rejects_a_hamiltonian_on_other_sites():
    """One-site Hamiltonian coefficients, or their 2 x 2 matrix, enter
    neither the rebuild nor the residual of a two-site form."""
    rng = np.random.default_rng(79)
    superop = random_liouvillian(rng, 4)
    dissipator = extract_dissipator(superop)
    small = extract_hamiltonian(random_liouvillian(rng, 2))
    for hamiltonian in (small, small.to_matrix()):
        with pytest.raises(DimensionMismatchError):
            lindblad_form_superop(hamiltonian, dissipator)
        with pytest.raises(DimensionMismatchError):
            roundtrip_residual(superop, hamiltonian, dissipator)


def test_psd_report_flags_negative_spectrum():
    """The first-order coefficient matrix of the field-plus-dephasing
    drive has min eigenvalue (1 - sqrt(1 + 4 (h tau)^2)) gamma1 / 2."""
    tau, h, gamma1 = 0.1, 1.0, 1.0
    expansion = model_a_expansion(tau=tau, h=h, gamma1=gamma1)
    dissipator = extract_dissipator(expansion.cumulative(1))
    report = psd_report(dissipator)
    expected = 0.5 * gamma1 * (1.0 - np.sqrt(1.0 + 4.0 * (h * tau) ** 2))
    assert report.min_eigenvalue == pytest.approx(expected, abs=1e-12)
    assert not report.is_liouvillian
    assert report.breaking_degree == pytest.approx(-expected, abs=1e-12)
    assert report.eigenvalues[0] == report.min_eigenvalue


def test_psd_report_accepts_zeroth_order():
    """The order-0 matrix is positive semidefinite with zero breaking
    degree."""
    expansion = model_a_expansion()
    report = psd_report(extract_dissipator(expansion.term(0)))
    assert report.is_liouvillian
    assert report.breaking_degree == 0.0


def test_psd_verdict_monotone_in_tolerance():
    """Raising the tolerance never flips a true verdict to false."""
    expansion = model_a_expansion()
    dissipator = extract_dissipator(expansion.cumulative(1))
    verdicts = [
        psd_report(dissipator, tol_psd=tol).is_liouvillian
        for tol in (1e-12, 1e-6, 1e-2, 1.0)
    ]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert later >= earlier


def test_canonical_channels_signs_and_rank():
    """PSD input gives all-positive channels; the broken second order
    of the field-plus-dephasing drive has exactly one negative
    channel; channel count equals the matrix rank."""
    expansion = model_a_expansion()
    zeroth = canonical_decomposition(
        extract_dissipator(expansion.term(0))
    )
    assert all(channel.sign == 1 for channel in zeroth.channels)
    second = extract_dissipator(expansion.cumulative(2))
    form = canonical_decomposition(second)
    assert len(form.negative_channels) == 1
    eigenvalues = np.linalg.eigvalsh(second.entries)
    rank = int(np.sum(np.abs(eigenvalues) > 1e-12))
    assert len(form.channels) == rank


def test_canonical_form_reassembles_source():
    """The signed form rebuilds the original superoperator."""
    rng = np.random.default_rng(73)
    superop = random_liouvillian(rng, 2)
    dissipator = extract_dissipator(superop)
    hamiltonian = extract_hamiltonian(superop, dissipator)
    form = canonical_decomposition(dissipator, hamiltonian)
    rebuilt = form.to_superoperator()
    assert np.linalg.norm(
        rebuilt.matrix - superop.matrix
    ) <= 1e-10 * np.linalg.norm(superop.matrix)


def test_per_order_checks_trace_and_zeroth_psd():
    """Orders >= 1 have traceless coefficient matrices and order 0 is
    positive semidefinite."""
    checks = per_order_checks(model_a_expansion(max_order=3))
    assert checks[0].trace_ok is None
    assert checks[0].report.is_liouvillian
    for check in checks[1:]:
        assert check.trace_ok
        assert abs(check.trace) <= 1e-9


def test_per_order_checks_commuting_drive_all_zero():
    """For a commuting drive every order above zero extracts to zero."""
    from floquet_lindblad import JumpTerm, LindbladSegment
    from floquet_lindblad import PiecewiseLiouvillian

    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(0.3, (), (JumpTerm(0.5, PAULI[3], (0,)),)),
            LindbladSegment(0.3, (), (JumpTerm(1.5, PAULI[3], (0,)),)),
        ),
        num_sites=1,
    )
    checks = per_order_checks(bch_orders(drive, max_order=3))
    for check in checks[1:]:
        assert check.dissipator.max_abs() <= 1e-12


def test_direct_dissipator_matrix_helpers():
    """Position lookup, entries, and trace on a hand-built matrix."""
    indices = (MultiIndex((1,)), MultiIndex((2,)))
    entries = np.array([[1.0, 0.5j], [-0.5j, 2.0]], dtype=complex)
    dissipator = DissipatorMatrix(indices, entries, 1)
    assert dissipator.size == 2
    assert dissipator.position(MultiIndex((2,))) == 1
    assert dissipator.entry(
        MultiIndex((1,)), MultiIndex((2,))
    ) == pytest.approx(0.5j)
    assert dissipator.trace() == pytest.approx(3.0)
    assert dissipator.max_abs() == pytest.approx(2.0)
