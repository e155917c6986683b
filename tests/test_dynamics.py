"""Tests for stroboscopic accuracy, complete positivity, stationary
states and unraveling feasibility."""

from pathlib import Path

import numpy as np
import pytest

from floquet_lindblad import (
    MAX_NUM_SITES,
    DimensionMismatchError,
    LindbladSegment,
    JumpTerm,
    ModelParams,
    PAULI,
    PiecewiseLiouvillian,
    SignedChannel,
    SignedLindbladForm,
    Superoperator,
    bch_orders,
    build_model,
    canonical_decomposition,
    choi_matrix,
    choi_min_eig,
    choi_min_eig_series,
    cp_grid_times,
    extract_dissipator,
    extract_hamiltonian,
    liouvillian_superop,
    ness_report,
    random_density_matrix,
    stroboscopic_compare,
    trace_distance,
    trajectory_feasibility,
)
from floquet_lindblad import dynamics

SIGMA_MINUS = 0.5 * (PAULI[1] - 1j * PAULI[2])


def commuting_drive(tau=0.3):
    """Two segments driving the same channel at different rates."""
    first = LindbladSegment(tau, jump_terms=(JumpTerm(0.5, PAULI[3], (0,)),))
    second = LindbladSegment(tau, jump_terms=(JumpTerm(1.5, PAULI[3], (0,)),))
    return PiecewiseLiouvillian((first, second), 1)


def signed_form(drive, order):
    cumulative = bch_orders(drive, max_order=order).cumulative()
    dissipator = extract_dissipator(cumulative)
    hamiltonian = extract_hamiltonian(cumulative, dissipator)
    return canonical_decomposition(dissipator, hamiltonian)


def test_trace_distance_examples():
    """Identical states are at distance zero, orthogonal pure states at
    one, and a biased mixture sits a quarter away from the center."""
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(up, down) == pytest.approx(1.0)
    assert trace_distance(rho, np.eye(2) / 2.0) == pytest.approx(0.25)


@pytest.mark.parametrize(
    "rho, sigma",
    [
        (np.eye(4) / 4, np.full((1, 4), 0.25)),
        (np.eye(4) / 4, 0.25),
        (np.eye(4) / 4, np.eye(2) / 2),
        (np.full((2, 4), 0.25), np.full((2, 4), 0.25)),
        (np.eye(4)[None] / 4, np.eye(4)[None] / 4),
    ],
    ids=["row", "scalar", "other-dim", "non-square", "stacked"],
)
def test_trace_distance_rejects_mismatched_shapes(rho, sigma):
    """Inputs that are not two square matrices of one shape are rejected
    with the package's error, not broadcast against each other."""
    with pytest.raises(DimensionMismatchError):
        trace_distance(rho, sigma)


def test_random_density_matrix_is_a_state():
    """The sampler returns a reproducible full-rank density matrix."""
    state = random_density_matrix(4)
    assert np.trace(state) == pytest.approx(1.0)
    np.testing.assert_allclose(state, state.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(state).min() > 0.0
    np.testing.assert_allclose(state, random_density_matrix(4))
    other = random_density_matrix(4, rng=np.random.default_rng(5))
    assert np.max(np.abs(other - state)) > 1e-3


def drawn_density_matrix(dim, rng):
    """The Wishart construction drawn from ``rng``, as a reference."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    state = raw @ raw.conj().T
    return state / np.trace(state).real


def test_default_state_table_matches_the_seed_stream():
    """The default state reads its normals from a committed table of the
    seed-11 stream. NumPy's NEP 19 does not promise that ``Generator``
    streams stay the same across versions: if NumPy changes the stream, this
    test flags it, while the table keeps every default-state report
    unchanged. The table equals the first ``2 * 4**MAX_NUM_SITES`` normals
    bit for bit, the default state equals the drawn construction bit for bit
    at every dimension up to ``2**MAX_NUM_SITES``, and a caller's own
    ``rng`` or a larger dimension still draws."""
    table = np.load(Path(dynamics.__file__).with_name("_default_state_normals.npy"))
    drawn = np.random.default_rng(11).standard_normal(2 * 4**MAX_NUM_SITES)
    assert table.dtype == np.float64
    assert table.tobytes() == drawn.tobytes()
    for dim in range(1, 2**MAX_NUM_SITES + 1):
        reference = drawn_density_matrix(dim, np.random.default_rng(11))
        assert random_density_matrix(dim).tobytes() == reference.tobytes(), dim
    own = random_density_matrix(8, np.random.default_rng(5))
    assert own.tobytes() == drawn_density_matrix(8, np.random.default_rng(5)).tobytes()
    dim = 2**MAX_NUM_SITES + 1
    large = random_density_matrix(dim)
    assert large.tobytes() == drawn_density_matrix(dim, np.random.default_rng(11)).tobytes()


def test_stroboscopic_compare_exact_for_commuting_segments():
    """When the segments commute the leading average is already exact,
    so stroboscopic distances stay at roundoff; a state of another
    dimension is rejected."""
    drive = commuting_drive()
    effective = bch_orders(drive, max_order=0).cumulative()
    comparison = stroboscopic_compare(drive, effective, num_periods=20)
    assert len(comparison.distances) == 20
    assert comparison.max_distance <= 1e-10
    with pytest.raises(DimensionMismatchError):
        stroboscopic_compare(
            drive, effective, initial_state=random_density_matrix(2 * drive.dim)
        )


def test_stroboscopic_accuracy_improves_with_order():
    """Higher cumulative orders track the exact stroboscopic states
    more closely at small phase per segment."""
    drive = build_model(ModelParams(name="A", tau=0.05, h=1.0, gamma1=1.0))
    expansion = bch_orders(drive, max_order=2)
    maxima = [
        stroboscopic_compare(drive, expansion.cumulative(n)).max_distance
        for n in (0, 1, 2)
    ]
    assert maxima[2] < maxima[1] < maxima[0]
    comparison = stroboscopic_compare(drive, expansion.cumulative(2))
    assert comparison.max_distance == max(comparison.distances)
    assert len(comparison.distances) == 20


def test_choi_matrix_of_identity_map():
    """The identity superoperator reshuffles to the unnormalized
    maximally entangled projector."""
    superop = Superoperator(np.eye(4, dtype=complex), 2)
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0
    np.testing.assert_allclose(choi_matrix(superop), np.outer(omega, omega))
    assert choi_min_eig(superop) == pytest.approx(0.0, abs=1e-12)


def test_cp_grid_times_cover_five_periods():
    """The probe grid is uniform over (0, 5 T]."""
    times = cp_grid_times(0.6)
    assert times.shape == (200,)
    assert times[0] == pytest.approx(3.0 / 200.0)
    assert times[-1] == pytest.approx(3.0)
    assert np.all(times > 0.0)
    np.testing.assert_allclose(np.diff(times), times[0], rtol=1e-12)


def test_leading_order_generator_is_completely_positive():
    """The exponential of the leading average is a channel at every
    probe time."""
    drive = build_model(ModelParams(name="A", tau=0.3, h=1.0, gamma1=1.0))
    effective = bch_orders(drive, max_order=0).cumulative()
    series = choi_min_eig_series(effective, cp_grid_times(drive.period))
    assert series.min() >= -1e-9


def test_second_order_generator_loses_complete_positivity():
    """At phase 0.3 per segment the second-order cumulative generator
    produces maps with a clearly negative Choi eigenvalue somewhere on
    the probe grid."""
    drive = build_model(ModelParams(name="A", tau=0.3, h=1.0, gamma1=1.0))
    effective = bch_orders(drive, max_order=2).cumulative()
    series = choi_min_eig_series(effective, cp_grid_times(drive.period))
    assert series.min() < -1e-6


def test_stationary_state_of_field_plus_channel_average():
    """The leading average of the field-plus-channel drive relaxes to
    the maximally mixed state."""
    drive = build_model(ModelParams(name="A", tau=0.3, h=1.0, gamma1=1.0))
    effective = bch_orders(drive, max_order=0).cumulative()
    report = ness_report(effective)
    assert report.exists
    assert report.zero_mode_count == 1
    assert report.max_real_part <= 1e-10
    assert report.trace_preservation_residual <= 1e-10
    np.testing.assert_allclose(report.states[0], np.eye(2) / 2.0, atol=1e-10)


def test_stationary_space_of_pure_dephasing():
    """A single dephasing channel leaves a two-dimensional kernel."""
    generator = liouvillian_superop(None, [(0.7, PAULI[3])], system_dim=2)
    report = ness_report(generator)
    assert report.zero_mode_count == 2
    assert report.exists
    assert len(report.states) == 2
    for state in report.states:
        np.testing.assert_allclose(
            state, np.diag(np.diag(state)), atol=1e-10
        )


def test_stationary_state_of_decay_is_the_dark_state():
    """A lowering channel pumps everything into its dark state."""
    generator = liouvillian_superop(None, [(0.9, SIGMA_MINUS)], system_dim=2)
    report = ness_report(generator)
    assert report.exists
    assert len(report.states) == 1
    np.testing.assert_allclose(
        report.states[0], np.diag([0.0, 1.0]), atol=1e-10
    )


def test_negative_rate_generator_has_no_stationary_certificate():
    """A sign-flipped channel produces growing modes, so no stationary
    state is certified despite a nonempty kernel."""
    generator = liouvillian_superop(None, [(-0.5, PAULI[1])], system_dim=2)
    report = ness_report(generator)
    assert not report.exists
    assert report.max_real_part == pytest.approx(1.0)
    assert report.zero_mode_count >= 1


def test_trajectory_feasible_for_positive_form():
    """An all-positive canonical form supports a jump unraveling."""
    drive = build_model(ModelParams(name="A", tau=0.3, h=1.0, gamma1=1.0))
    feasibility = trajectory_feasibility(signed_form(drive, 0))
    assert feasibility.feasible
    assert feasibility.negative_channel_norms == ()
    assert feasibility.max_imag_drift_eigenvalue <= 1e-9


def test_trajectory_infeasible_for_negative_channel():
    """A negative-sign channel both trips the norm test and drives
    upward norm growth between jumps."""
    form = SignedLindbladForm(
        hamiltonian_matrix=np.zeros((2, 2), dtype=complex),
        channels=(
            SignedChannel(sign=-1, operator=SIGMA_MINUS, magnitude=1.0),
        ),
        num_sites=1,
    )
    feasibility = trajectory_feasibility(form)
    assert not feasibility.feasible
    assert feasibility.negative_channel_norms == (
        pytest.approx(1.0, rel=1e-12),
    )
    assert feasibility.max_imag_drift_eigenvalue == pytest.approx(0.5)


def test_trajectory_infeasible_beyond_positivity():
    """The second-order form of the field-plus-channel drive at phase
    0.3 carries a non-negligible negative channel."""
    drive = build_model(ModelParams(name="A", tau=0.3, h=1.0, gamma1=1.0))
    feasibility = trajectory_feasibility(signed_form(drive, 2))
    assert not feasibility.feasible
    assert len(feasibility.negative_channel_norms) == 1
    assert feasibility.negative_channel_norms[0] > 1e-2
