"""Tests for the built-in drives and their closed-form references."""

import numpy as np
import pytest

from floquet_lindblad import (
    DimensionMismatchError,
    ModelParams,
    MultiIndex,
    NoReferenceError,
    PAULI,
    analytic_reference,
    bch_orders,
    build_model,
    extract_dissipator,
    kron,
)

from dense_reference import liouvillian_superop

SIGMA_MINUS = 0.5 * (PAULI[1] - 1j * PAULI[2])


def cumulative_dissipator(params, order):
    drive = build_model(params)
    return extract_dissipator(bch_orders(drive, max_order=order).cumulative())


def assemble(dissipator, block):
    """Read the extracted entries over a reference block's index set."""
    size = len(block.index_set)
    out = np.zeros((size, size), dtype=complex)
    for row, j_index in enumerate(block.index_set):
        for col, k_index in enumerate(block.index_set):
            out[row, col] = dissipator.entry(j_index, k_index)
    return out


def test_params_reject_unknown_model():
    """Only the four named models are accepted."""
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="E", tau=0.1)


def test_params_reject_nonpositive_tau():
    """Segment durations must be positive."""
    for tau in (0.0, -0.2):
        with pytest.raises(DimensionMismatchError):
            ModelParams(name="A", tau=tau, h=1.0, gamma1=1.0)


def test_params_reject_couplings_of_other_models():
    """A coupling a model does not use must stay at zero."""
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="A", tau=0.1, h=1.0, gamma1=1.0, gamma=0.3)
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="C", tau=0.1, num_sites=3, jz=1.0, h=0.5)
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="D", tau=0.1, num_sites=3, jx=1.0, jz=0.5)


def test_params_reject_negative_rates():
    """Channel rates must be nonnegative."""
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="A", tau=0.1, h=1.0, gamma1=-0.5)
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="B", tau=0.1, gamma1=1.0, gamma2=-1.0)


def test_params_site_count_constraints():
    """Single-site models demand one site, ring models three to six."""
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="A", tau=0.1, h=1.0, gamma1=1.0, num_sites=2)
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="C", tau=0.1, jz=1.0, gamma=1.0, num_sites=2)
    with pytest.raises(DimensionMismatchError):
        ModelParams(name="C", tau=0.1, jz=1.0, gamma=1.0, num_sites=7)
    params = ModelParams(name="D", tau=0.1, jx=1.0, gamma=1.0, num_sites=6)
    assert params.num_sites == 6


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"name": "E", "tau": 0.1}, "unknown model 'E', expected A, B, C or D"),
        (
            {"name": "C", "tau": 0.1, "num_sites": 3, "h": 0.5, "gamma1": 0.2},
            "model C does not use h, got 0.5",
        ),
        (
            {"name": "B", "tau": 0.1, "gamma1": -1.0, "gamma2": -2.0},
            "gamma1 must be nonnegative",
        ),
        (
            {"name": "A", "tau": 0.1, "gamma1": 1.0, "num_sites": 2},
            "model A is single site, got num_sites=2",
        ),
        (
            {"name": "D", "tau": 0.1, "gamma": 1.0, "num_sites": 2},
            "model D needs a ring of 3..6 sites, got 2",
        ),
        (
            {"name": "C", "tau": 0.1, "gamma": 1.0, "num_sites": 7},
            "model C needs a ring of 3..6 sites, got 7",
        ),
    ],
)
def test_params_error_messages(kwargs, message):
    """The first failing check is reported, couplings and rates in field
    order, with its exact message."""
    with pytest.raises(DimensionMismatchError) as excinfo:
        ModelParams(**kwargs)
    assert str(excinfo.value) == message


def test_period_is_twice_tau():
    """Both segments share the duration tau."""
    params = ModelParams(name="A", tau=0.35, h=1.0, gamma1=1.0)
    assert params.period == pytest.approx(0.7)
    drive = build_model(params)
    assert drive.period == pytest.approx(0.7)


def test_single_site_models_match_hand_built_generators():
    """The segment generators equal directly assembled ones."""
    params = ModelParams(name="A", tau=0.2, h=0.7, gamma1=0.9)
    drive = build_model(params)
    first = liouvillian_superop(0.7 * PAULI[3], system_dim=2)
    second = liouvillian_superop(None, [(0.9, PAULI[1])], system_dim=2)
    np.testing.assert_allclose(
        drive.segment_superops[0].matrix, first.matrix, atol=1e-14
    )
    np.testing.assert_allclose(
        drive.segment_superops[1].matrix, second.matrix, atol=1e-14
    )

    params = ModelParams(name="B", tau=0.2, gamma1=0.9, gamma2=1.3)
    drive = build_model(params)
    tilted = (PAULI[1] + PAULI[3]) / np.sqrt(2.0)
    first = liouvillian_superop(None, [(1.3, tilted)], system_dim=2)
    second = liouvillian_superop(None, [(0.9, PAULI[1])], system_dim=2)
    np.testing.assert_allclose(
        drive.segment_superops[0].matrix, first.matrix, atol=1e-14
    )
    np.testing.assert_allclose(
        drive.segment_superops[1].matrix, second.matrix, atol=1e-14
    )


def test_ring_models_match_hand_built_generators():
    """Ring bonds and per-site channels agree with explicit products."""
    identity = np.eye(2)

    params = ModelParams(name="C", tau=0.1, num_sites=3, jz=0.6, gamma=0.4)
    drive = build_model(params)
    hamiltonian = 0.6 * (
        kron(PAULI[3], PAULI[3], identity)
        + kron(identity, PAULI[3], PAULI[3])
        + kron(PAULI[3], identity, PAULI[3])
    )
    jumps = [
        (0.4, kron(PAULI[1], identity, identity)),
        (0.4, kron(identity, PAULI[1], identity)),
        (0.4, kron(identity, identity, PAULI[1])),
    ]
    np.testing.assert_allclose(
        drive.segment_superops[0].matrix,
        liouvillian_superop(hamiltonian, system_dim=8).matrix,
        atol=1e-13,
    )
    np.testing.assert_allclose(
        drive.segment_superops[1].matrix,
        liouvillian_superop(None, jumps, system_dim=8).matrix,
        atol=1e-13,
    )

    params = ModelParams(name="D", tau=0.1, num_sites=3, jx=0.6, gamma=0.4)
    drive = build_model(params)
    hamiltonian = 0.6 * (
        kron(PAULI[1], PAULI[1], identity)
        + kron(identity, PAULI[1], PAULI[1])
        + kron(PAULI[1], identity, PAULI[1])
    )
    jumps = [
        (0.4, kron(SIGMA_MINUS, identity, identity)),
        (0.4, kron(identity, SIGMA_MINUS, identity)),
        (0.4, kron(identity, identity, SIGMA_MINUS)),
    ]
    np.testing.assert_allclose(
        drive.segment_superops[0].matrix,
        liouvillian_superop(hamiltonian, system_dim=8).matrix,
        atol=1e-13,
    )
    np.testing.assert_allclose(
        drive.segment_superops[1].matrix,
        liouvillian_superop(None, jumps, system_dim=8).matrix,
        atol=1e-13,
    )


def test_single_site_coherent_reference_matches_extraction():
    """Closed-form blocks and extremal eigenvalues agree with the
    extracted dissipator at orders 0..2 for the field-plus-channel
    drive."""
    params = ModelParams(name="A", tau=0.2, h=0.7, gamma1=0.9)
    for order in (0, 1, 2):
        dissipator = cumulative_dissipator(params, order)
        reference = analytic_reference(params, order)
        block = reference.blocks[0]
        np.testing.assert_allclose(
            assemble(dissipator, block), block.matrix, atol=1e-12
        )
        numeric_min = float(
            np.linalg.eigvalsh(dissipator.entries).min()
        )
        assert reference.min_eigenvalue == pytest.approx(
            numeric_min, abs=1e-10
        )


def test_two_channel_reference_matches_extraction():
    """The alternating-channel drive agrees with its closed form at
    orders 0..2, including the positivity-boundary period."""
    params = ModelParams(name="B", tau=0.3, gamma1=0.9, gamma2=1.3)
    for order in (0, 1, 2):
        dissipator = cumulative_dissipator(params, order)
        reference = analytic_reference(params, order)
        block = reference.blocks[0]
        np.testing.assert_allclose(
            assemble(dissipator, block), block.matrix, atol=1e-12
        )
        numeric_min = float(
            np.linalg.eigvalsh(dissipator.entries).min()
        )
        assert reference.min_eigenvalue == pytest.approx(
            numeric_min, abs=1e-10
        )


def test_positivity_boundary_period():
    """The closed-form boundary separates positive from indefinite
    second-order matrices, and vanishing rates have no boundary."""
    params = ModelParams(name="B", tau=0.3, gamma1=1.0, gamma2=1.0)
    reference = analytic_reference(params, 2)
    assert reference.tau_max == pytest.approx(
        np.sqrt(3.0 * (np.sqrt(2.0) - 1.0)), rel=1e-12
    )
    below = ModelParams(
        name="B", tau=0.99 * reference.tau_max, gamma1=1.0, gamma2=1.0
    )
    above = ModelParams(
        name="B", tau=1.01 * reference.tau_max, gamma1=1.0, gamma2=1.0
    )
    assert analytic_reference(below, 2).min_eigenvalue == 0.0
    assert analytic_reference(above, 2).min_eigenvalue < 0.0

    free = ModelParams(name="B", tau=0.3, gamma1=1.0, gamma2=0.0)
    assert analytic_reference(free, 2).tau_max is None


def test_interacting_ring_reference_matches_extraction():
    """Every per-site block of the interacting ring agrees with the
    closed form at orders 0..2, and the order-1 extremal eigenvalue
    follows its closed form."""
    for num_sites in (3, 4):
        params = ModelParams(
            name="C", tau=0.2, num_sites=num_sites, jz=0.7, gamma=0.4
        )
        for order in (0, 1, 2):
            dissipator = cumulative_dissipator(params, order)
            reference = analytic_reference(params, order)
            assert len(reference.blocks) == num_sites
            for block in reference.blocks:
                np.testing.assert_allclose(
                    assemble(dissipator, block), block.matrix, atol=1e-12
                )
            if order <= 1:
                numeric_min = float(
                    np.linalg.eigvalsh(dissipator.entries).min()
                )
                assert reference.min_eigenvalue == pytest.approx(
                    numeric_min, abs=1e-10
                )
        phase = params.jz * params.tau
        expected = (
            params.gamma
            * 2.0 ** (num_sites - 2)
            * (1.0 - np.sqrt(1.0 + 8.0 * phase**2))
        )
        assert analytic_reference(params, 1).min_eigenvalue == pytest.approx(
            expected, rel=1e-12
        )


def test_interacting_ring_fit_metadata():
    """Order 2 of the interacting ring carries the cubic-fit reference
    instead of a closed-form eigenvalue."""
    params = ModelParams(name="C", tau=0.2, num_sites=3, jz=0.7, gamma=0.4)
    reference = analytic_reference(params, 2)
    assert reference.min_eigenvalue is None
    assert reference.fit_coefficients[0] == pytest.approx(-0.667)
    assert reference.fit_domain == (0.0, 0.5)
    assert reference.fit_rmse == pytest.approx(3.25e-4)
    for order in (0, 1):
        assert analytic_reference(params, order).fit_coefficients is None


def test_interacting_ring_bond_couplings_beyond_blocks():
    """At order 2 the ring develops neighbor-string couplings outside
    the per-site blocks: the two-site x and y strings on a bond couple
    through a purely imaginary entry with zero diagonal."""
    num_sites = 3
    params = ModelParams(
        name="C", tau=0.2, num_sites=num_sites, jz=0.7, gamma=0.4
    )
    dissipator = cumulative_dissipator(params, 2)
    magnitude = (
        (2.0 / 3.0)
        * 2.0 ** (num_sites - 1)
        * params.gamma**2
        * params.jz
        * params.tau**2
    )
    xx = MultiIndex((1, 1, 0))
    yy = MultiIndex((2, 2, 0))
    assert dissipator.entry(xx, yy) == pytest.approx(
        -1j * magnitude, abs=1e-12
    )
    assert dissipator.entry(yy, xx) == pytest.approx(
        1j * magnitude, abs=1e-12
    )
    assert dissipator.entry(xx, xx) == pytest.approx(0.0, abs=1e-12)
    assert dissipator.entry(yy, yy) == pytest.approx(0.0, abs=1e-12)
    block_indices = set()
    for block in analytic_reference(params, 2).blocks:
        block_indices.update(block.index_set)
    assert xx not in block_indices and yy not in block_indices


def test_decay_ring_reference_matches_extraction():
    """The decay ring agrees with its corrected closed form at orders
    0 and 1."""
    params = ModelParams(name="D", tau=0.2, num_sites=3, jx=0.7, gamma=0.4)
    for order in (0, 1):
        dissipator = cumulative_dissipator(params, order)
        reference = analytic_reference(params, order)
        assert len(reference.blocks) == params.num_sites
        for block in reference.blocks:
            np.testing.assert_allclose(
                assemble(dissipator, block), block.matrix, atol=1e-12
            )
        numeric_min = float(np.linalg.eigvalsh(dissipator.entries).min())
        assert reference.min_eigenvalue == pytest.approx(
            numeric_min, abs=1e-10
        )


def test_decay_ring_tabulated_variant_relationship():
    """The tabulated variant doubles the single-site diagonal of the
    corrected block, so its first-order term acquires a nonzero trace
    while the corrected term stays traceless."""
    params = ModelParams(name="D", tau=0.2, num_sites=4, jx=0.7, gamma=0.4)
    reference = analytic_reference(params, 1)
    zeroth = analytic_reference(params, 0)
    scale = params.gamma * 2.0 ** (params.num_sites - 3)
    beta = params.jx * params.tau
    for corrected, tabulated in zip(
        reference.blocks, reference.tabulated_blocks
    ):
        assert corrected.index_set == tabulated.index_set
        np.testing.assert_allclose(
            tabulated.matrix[:2, :2], 2.0 * corrected.matrix[:2, :2]
        )
        np.testing.assert_allclose(
            tabulated.matrix[:2, 2:], corrected.matrix[:2, 2:]
        )
        np.testing.assert_allclose(
            tabulated.matrix[2:, 2:], corrected.matrix[2:, 2:]
        )
        term_trace = np.trace(corrected.matrix[:2, :2]) - np.trace(
            zeroth.blocks[0].matrix
        )
        assert term_trace == pytest.approx(0.0, abs=1e-14)
        tabulated_term_trace = np.trace(tabulated.matrix[:2, :2]) - np.trace(
            zeroth.blocks[0].matrix
        )
        assert abs(tabulated_term_trace) == pytest.approx(2.0 * scale)
    assert reference.min_eigenvalue == pytest.approx(
        scale * (1.0 - np.sqrt(1.0 + 4.0 * beta**2)), rel=1e-12
    )
    assert reference.tabulated_min_eigenvalue == pytest.approx(
        params.gamma
        * 2.0 ** (params.num_sites - 2)
        * (1.0 - np.sqrt(1.0 + beta**2)),
        rel=1e-12,
    )


def test_reference_coverage_bounds():
    """Requests outside the covered orders raise."""
    with pytest.raises(NoReferenceError):
        analytic_reference(
            ModelParams(name="D", tau=0.1, num_sites=3, jx=1.0, gamma=1.0),
            2,
        )
    with pytest.raises(NoReferenceError):
        analytic_reference(
            ModelParams(name="A", tau=0.1, h=1.0, gamma1=1.0), 3
        )
    with pytest.raises(NoReferenceError):
        analytic_reference(
            ModelParams(name="C", tau=0.1, num_sites=3, jz=1.0, gamma=1.0),
            -1,
        )


def test_second_order_correction_is_quadratic_in_the_phase():
    """Halving the per-segment phase shrinks the difference between the
    order-2 and order-1 closed forms by exactly four."""
    deviations = []
    for h in (0.8, 0.4):
        params = ModelParams(name="A", tau=0.25, h=h, gamma1=0.9)
        difference = (
            analytic_reference(params, 2).blocks[0].matrix
            - analytic_reference(params, 1).blocks[0].matrix
        )
        deviations.append(np.max(np.abs(difference)))
    assert deviations[0] / deviations[1] == pytest.approx(4.0, rel=1e-12)

    deviations = []
    for jz in (0.8, 0.4):
        params = ModelParams(
            name="C", tau=0.25, num_sites=3, jz=jz, gamma=0.9
        )
        difference = (
            analytic_reference(params, 2).blocks[0].matrix
            - analytic_reference(params, 1).blocks[0].matrix
        )
        deviations.append(np.max(np.abs(difference)))
    assert deviations[0] / deviations[1] == pytest.approx(4.0, rel=1e-12)
