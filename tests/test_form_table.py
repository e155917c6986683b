"""Property tests of the signed doubled-space Pauli table shared by
extraction, :func:`lindblad_form_superop` and
:func:`roundtrip_residual`, against dense Kronecker references."""

from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from floquet_lindblad import (
    DissipatorMatrix,
    FrobeniusBasis,
    HamiltonianCoefficients,
    Superoperator,
    canonical_decomposition,
    lindblad_form_superop,
    pauli_coefficients,
    roundtrip_residual,
)
from floquet_lindblad.liouvillianity import decompose

from dense_reference import signed_form_superop


def random_form(seed, num_sites, psd, weight_limit):
    """Random coefficients ``h_j``, a dense Hermitian ``H`` with nonzero
    trace and a Hermitian (or PSD) ``[a_jk]``, optionally restricted to
    a pair-weight cap."""
    rng = np.random.default_rng(seed)
    index_set = FrobeniusBasis(num_sites).indices(min_weight=1)
    size = len(index_set)
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
        (size, size)
    )
    entries = raw @ raw.conj().T / size if psd else 0.5 * (raw + raw.conj().T)
    dissipator = DissipatorMatrix(index_set, entries, num_sites).restricted(
        weight_limit
    )
    hamiltonian = HamiltonianCoefficients(
        index_set, rng.standard_normal(size), num_sites
    )
    dim = 2**num_sites
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    dense = raw + raw.conj().T + rng.uniform(0.5, 2.0) * np.eye(dim)
    return hamiltonian, dense, dissipator


def full_entries(dissipator):
    """``[a_jk]`` over every index of weight >= 1, zero off its index
    set."""
    size = 4**dissipator.num_sites
    entries = np.zeros((size, size), dtype=complex)
    codes = [index.code for index in dissipator.index_set]
    entries[np.ix_(codes, codes)] = dissipator.entries
    return entries[1:, 1:]


forms = st.builds(
    random_form,
    seed=st.integers(0, 2**32 - 1),
    num_sites=st.integers(1, 3),
    psd=st.booleans(),
    weight_limit=st.sampled_from([None, 2, 3]),
)


@given(form=forms)
def test_form_table_matches_dense_reference_and_round_trips(form):
    """The table rebuild equals the Kronecker sum of the canonical
    channels to 1e-10 relative, for coefficients and for a dense ``H``
    whose trace drops out, and extraction recovers ``(h, a)`` to 1e-10
    with a residual below 1e-10."""
    hamiltonian, dense, dissipator = form
    num_sites = dissipator.num_sites
    canonical = canonical_decomposition(dissipator, hamiltonian)
    references = (
        (hamiltonian, canonical, hamiltonian.values),
        (
            dense,
            replace(canonical, hamiltonian_matrix=dense),
            pauli_coefficients(dense, num_sites)[1:].real,
        ),
    )
    expected_a = full_entries(dissipator)
    for h_form, signed_form, expected_h in references:
        superop = lindblad_form_superop(h_form, dissipator)
        reference = signed_form_superop(signed_form).matrix
        scale = max(1.0, float(np.linalg.norm(reference)))
        assert np.linalg.norm(superop.matrix - reference) <= 1e-10 * scale

        decomposition = decompose(superop)
        h_scale = max(1.0, float(np.max(np.abs(expected_h))))
        np.testing.assert_allclose(
            decomposition.hamiltonian.values, expected_h, rtol=0.0,
            atol=1e-10 * h_scale,
        )
        a_scale = max(1.0, float(np.max(np.abs(expected_a))))
        np.testing.assert_allclose(
            decomposition.dissipator.entries, expected_a, rtol=0.0,
            atol=1e-10 * a_scale,
        )
        assert decomposition.residual() <= 1e-10
        assert roundtrip_residual(
            superop, decomposition.hamiltonian, decomposition.dissipator
        ) <= 1e-10


@given(form=forms, seed=st.integers(0, 2**32 - 1))
def test_table_residual_equals_dense_residual(form, seed):
    """For a superoperator that is not the form's, the residual taken
    between tables equals ``||S - R||_F / max(1, ||S||_F)`` taken between
    the dense matrices, to 1e-12 relative."""
    hamiltonian, dense, dissipator = form
    size = 4**dissipator.num_sites
    rng = np.random.default_rng(seed)
    superop = Superoperator(
        rng.standard_normal((size, size))
        + 1j * rng.standard_normal((size, size)),
        2**dissipator.num_sites,
    )
    for h_form in (hamiltonian, dense, None):
        rebuilt = lindblad_form_superop(h_form, dissipator).matrix
        expected = float(np.linalg.norm(superop.matrix - rebuilt)) / max(
            1.0, superop.norm()
        )
        residual = roundtrip_residual(superop, h_form, dissipator)
        assert abs(residual - expected) <= 1e-12 * expected
