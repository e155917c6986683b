"""Tests for superoperator construction: GKLS generators, the
coefficient-form assembler, piecewise drives, and the trace- and
hermiticity-preservation predicates."""

import numpy as np
import pytest

from floquet_lindblad import (
    DimensionMismatchError,
    DissipatorMatrix,
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    MultiIndex,
    PAULI,
    PiecewiseLiouvillian,
    Superoperator,
    devectorize,
    is_hermiticity_preserving,
    is_trace_preserving,
    kron,
    lindblad_form_superop,
    liouvillian_superop,
    matrix_exp,
    vectorize,
)

import dense_reference


def apply_superop(superop, state):
    """Act with a superoperator on a matrix."""
    return devectorize(superop.matrix @ vectorize(state))


def random_density(rng, dim):
    """Full-rank random density matrix."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
        (dim, dim)
    )
    state = raw @ raw.conj().T
    return state / np.trace(state).real


def test_pure_jump_generator_action_on_excited_population():
    """A sigma_x channel at rate gamma maps diag(1,0) to
    gamma (diag(0,1) - diag(1,0))."""
    gamma = 0.7
    superop = liouvillian_superop(None, [(gamma, PAULI[1])], system_dim=2)
    moved = apply_superop(superop, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(
        moved, gamma * (np.diag([0.0, 1.0]) - np.diag([1.0, 0.0])),
        atol=1e-14,
    )


def test_pure_hamiltonian_generator_is_commutator():
    """With H = h sigma_z the action on sigma_x is the commutator
    -i h [sigma_z, sigma_x] = 2 h sigma_y."""
    h = 1.3
    superop = liouvillian_superop(h * PAULI[3])
    np.testing.assert_allclose(
        apply_superop(superop, PAULI[1]), 2.0 * h * PAULI[2], atol=1e-14
    )
    expected = -1j * h * (
        kron(PAULI[3], np.eye(2)) - kron(np.eye(2), PAULI[3].T)
    )
    np.testing.assert_allclose(superop.matrix, expected, atol=1e-14)


def test_empty_generator_is_zero():
    """No Hamiltonian and no jumps gives the zero superoperator."""
    superop = liouvillian_superop(None, [], system_dim=2)
    np.testing.assert_allclose(superop.matrix, np.zeros((4, 4)))


def test_generator_action_is_linear():
    """The superoperator action is linear in the state."""
    rng = np.random.default_rng(41)
    superop = liouvillian_superop(
        PAULI[3], [(0.5, PAULI[1]), (0.25, PAULI[2])]
    )
    rho1 = random_density(rng, 2)
    rho2 = random_density(rng, 2)
    combined = apply_superop(superop, 0.3 * rho1 + 0.7j * rho2)
    separate = 0.3 * apply_superop(superop, rho1) + 0.7j * apply_superop(
        superop, rho2
    )
    np.testing.assert_allclose(combined, separate, atol=1e-13)


def test_generator_preserves_trace_and_hermiticity():
    """Constructed generators leave vectorize(I) in the left kernel and
    commute with the adjoint on random states."""
    rng = np.random.default_rng(43)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hamiltonian = raw + raw.conj().T
    jump = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    superop = liouvillian_superop(hamiltonian, [(0.8, jump)])
    assert is_trace_preserving(superop)
    assert is_hermiticity_preserving(superop)
    left = vectorize(np.eye(4)).conj() @ superop.matrix
    assert np.linalg.norm(left) <= 1e-10 * np.linalg.norm(superop.matrix)


def test_trace_predicate_rejects_non_generator():
    """A random dense matrix is not trace preserving."""
    rng = np.random.default_rng(47)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert not is_trace_preserving(Superoperator(matrix, 2))


def test_generator_exp_preserves_trace_and_positivity():
    """exp(S t) keeps unit trace and positive spectrum for a
    nonnegative-rate generator."""
    rng = np.random.default_rng(53)
    superop = liouvillian_superop(
        0.4 * PAULI[3], [(0.6, PAULI[1])]
    )
    state = random_density(rng, 2)
    for t in (0.1, 1.0, 5.0):
        channel = matrix_exp(superop.matrix * t)
        evolved = devectorize(channel @ vectorize(state))
        assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-9)
        eigenvalues = np.linalg.eigvalsh(
            0.5 * (evolved + evolved.conj().T)
        )
        assert eigenvalues.min() >= -1e-9


def test_negative_rate_builds_formal_signed_generator():
    """Negative rates are accepted and flip the dissipator sign."""
    plus = liouvillian_superop(None, [(0.5, PAULI[1])], system_dim=2)
    minus = liouvillian_superop(None, [(-0.5, PAULI[1])], system_dim=2)
    np.testing.assert_allclose(plus.matrix, -minus.matrix, atol=1e-14)


def test_form_superop_single_channel_normalization():
    """A single diagonal coefficient 2 gamma on the x index reproduces
    the rate-gamma sigma_x channel built directly."""
    gamma = 0.9
    index = MultiIndex((1,))
    dissipator = DissipatorMatrix(
        (index,), np.array([[2.0 * gamma]], dtype=complex), 1
    )
    assembled = lindblad_form_superop(None, dissipator)
    direct = dense_reference.liouvillian_superop(
        None, [(gamma, PAULI[1])], system_dim=2
    )
    np.testing.assert_allclose(assembled.matrix, direct.matrix, atol=1e-13)


def test_form_superop_zero_matrix_gives_commutator_only():
    """With a zero coefficient matrix only the Hamiltonian part acts."""
    h = 0.8
    index = MultiIndex((1,))
    dissipator = DissipatorMatrix(
        (index,), np.zeros((1, 1), dtype=complex), 1
    )
    assembled = lindblad_form_superop(h * PAULI[3], dissipator)
    direct = dense_reference.liouvillian_superop(h * PAULI[3])
    np.testing.assert_allclose(assembled.matrix, direct.matrix, atol=1e-14)


def test_superoperator_arithmetic_and_norm():
    """Sums, differences, scalar multiples, and the Frobenius norm."""
    a = Superoperator(np.eye(4, dtype=complex), 2)
    b = Superoperator(2.0 * np.eye(4, dtype=complex), 2)
    np.testing.assert_allclose((a + b).matrix, 3.0 * np.eye(4))
    np.testing.assert_allclose((b - a).matrix, np.eye(4))
    np.testing.assert_allclose((a * 2.5).matrix, 2.5 * np.eye(4))
    assert a.norm() == pytest.approx(2.0)


def test_segment_assembles_embedded_terms():
    """Terms with declared supports embed into the full chain."""
    segment = LindbladSegment(
        duration=0.5,
        hamiltonian_terms=(
            HamiltonianTerm(kron(PAULI[3], PAULI[3]), (0, 1)),
        ),
        jump_terms=(JumpTerm(0.3, PAULI[1], (2,)),),
    )
    hamiltonian = segment.hamiltonian(3)
    np.testing.assert_allclose(
        hamiltonian, kron(PAULI[3], PAULI[3], np.eye(2))
    )
    ((rate, operator),) = segment.jumps(3)
    assert rate == pytest.approx(0.3)
    np.testing.assert_allclose(operator, kron(np.eye(4), PAULI[1]))


def test_piecewise_drive_period_windows_and_dim():
    """Period, dimension, and segment windows follow the durations."""
    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(0.25, (HamiltonianTerm(PAULI[3], (0,)),), ()),
            LindbladSegment(0.75, (), (JumpTerm(1.0, PAULI[1], (0,)),)),
        ),
        num_sites=1,
    )
    assert drive.period == pytest.approx(1.0)
    assert drive.dim == 2
    assert drive.segment_windows == ((0.0, 0.25), (0.25, 1.0))
    assert len(drive.segment_superops) == 2


def test_rejected_inputs():
    """Invalid durations, rates, shapes, and empty drives raise."""
    with pytest.raises(DimensionMismatchError):
        LindbladSegment(0.0)
    with pytest.raises(DimensionMismatchError):
        JumpTerm(-1.0, PAULI[1], (0,))
    with pytest.raises(DimensionMismatchError):
        HamiltonianTerm(np.zeros((2, 4)), (0,))
    with pytest.raises(DimensionMismatchError):
        PiecewiseLiouvillian((), num_sites=1)
    with pytest.raises(DimensionMismatchError):
        liouvillian_superop(None, [], system_dim=None)
    with pytest.raises(DimensionMismatchError):
        liouvillian_superop(np.eye(2), [(1.0, np.eye(4))])


SIGMA_MINUS = 0.5 * (PAULI[1] - 1j * PAULI[2])


def oracle_cases():
    """``(hamiltonian, jumps, system_dim)`` inputs of the GKLS builder."""
    rng = np.random.default_rng(43)
    yield pytest.param(
        None, [(0.7, PAULI[1]), (0.3, SIGMA_MINUS)], 2, id="no-hamiltonian"
    )
    yield pytest.param(
        0.4 * PAULI[3], [(-0.5, PAULI[1]), (0.8, PAULI[2])], None, id="negative-rates"
    )
    for num_sites in (1, 2, 3):
        dim = 2**num_sites
        raw = [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(3)
        ]
        jumps = [(rng.uniform(-1.0, 1.0), op) for op in raw[1:]]
        yield pytest.param(raw[0] + raw[0].conj().T, jumps, None, id=f"dense-{num_sites}")
    yield pytest.param(None, [(1e-20, PAULI[1])], 2, id="rate-1e-20")


@pytest.mark.parametrize("hamiltonian, jumps, system_dim", oracle_cases())
def test_generator_matches_the_kronecker_reference(hamiltonian, jumps, system_dim):
    """The generator written through the signed table equals the dense
    Kronecker build to 1e-12 relative, including a rate of 1e-20 (the
    input cutoff is relative to each operator)."""
    superop = liouvillian_superop(hamiltonian, jumps, system_dim=system_dim)
    reference = dense_reference.liouvillian_superop(
        hamiltonian, jumps, system_dim=system_dim
    ).matrix
    assert superop.pauli_terms is not None
    scale = np.linalg.norm(reference)
    assert scale > 0.0
    assert np.linalg.norm(superop.matrix - reference) <= 1e-12 * scale


def test_dimensions_other_than_a_power_of_two_are_refused():
    """The Pauli basis needs ``2^L`` levels with ``L >= 1``."""
    for hamiltonian, system_dim in ((np.eye(3), None), (np.eye(1), None), (None, 6)):
        with pytest.raises(DimensionMismatchError):
            liouvillian_superop(hamiltonian, [], system_dim=system_dim)


def test_non_finite_inputs_are_refused():
    """A NaN or infinite entry or rate is refused where it enters, before
    the input cutoff could drop every coefficient of a NaN operator."""
    for bad in (np.nan, np.inf):
        matrix = np.array([[1.0, bad], [bad, -1.0]])
        for make in (
            lambda: HamiltonianTerm(matrix, (0,)),
            lambda: JumpTerm(0.5, matrix, (0,)),
            lambda: JumpTerm(bad, PAULI[1], (0,)),
            lambda: liouvillian_superop(matrix),
            lambda: liouvillian_superop(None, [(0.5, matrix)], system_dim=2),
            lambda: liouvillian_superop(None, [(bad, PAULI[1])], system_dim=2),
        ):
            with pytest.raises(DimensionMismatchError):
                make()
