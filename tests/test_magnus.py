"""Tests for the effective-generator expansions: closed-form
stroboscopic orders for binary drives, the general piecewise first
order, Fourier components, the kick-free expansion, the period
propagator, and the exact effective generator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from floquet_lindblad import (
    DimensionMismatchError,
    FLAVOR_STROBOSCOPIC,
    FLAVOR_VAN_VLECK,
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    PAULI,
    PiecewiseLiouvillian,
    UnsupportedOrderError,
    bch_orders,
    exact_effective,
    floquet_propagator,
    fm_general,
    fourier_component,
    is_hermiticity_preserving,
    is_trace_preserving,
    matrix_exp,
    van_vleck_orders,
    vectorize,
)
from floquet_lindblad import magnus
from floquet_lindblad.magnus import _segment_coefficients
from floquet_lindblad.models import ModelParams, build_model

from dense_reference import dense_generators


def commutator(a, b):
    return a @ b - b @ a


def binary_drive(tau=0.2, h=1.0, gamma=0.7):
    """Two-segment drive: a field segment then a dephasing segment."""
    return PiecewiseLiouvillian(
        (
            LindbladSegment(tau, (HamiltonianTerm(h * PAULI[3], (0,)),), ()),
            LindbladSegment(tau, (), (JumpTerm(gamma, PAULI[1], (0,)),)),
        ),
        num_sites=1,
    )


def commuting_drive(tau=0.3):
    """Two segments whose generators commute (same dephasing channel at
    different rates)."""
    return PiecewiseLiouvillian(
        (
            LindbladSegment(tau, (), (JumpTerm(0.5, PAULI[3], (0,)),)),
            LindbladSegment(tau, (), (JumpTerm(1.5, PAULI[3], (0,)),)),
        ),
        num_sites=1,
    )


def three_segment_drive(tau=0.2):
    """Three equal segments with mutually noncommuting generators."""
    return PiecewiseLiouvillian(
        (
            LindbladSegment(tau, (HamiltonianTerm(PAULI[3], (0,)),), ()),
            LindbladSegment(tau, (HamiltonianTerm(PAULI[1], (0,)),), ()),
            LindbladSegment(tau, (), (JumpTerm(0.8, PAULI[2], (0,)),)),
        ),
        num_sites=1,
    )


def test_closed_form_orders_match_commutator_formulas():
    """Orders 0..3 equal their nested-commutator closed forms."""
    tau = 0.2
    drive = binary_drive(tau=tau)
    first, second = dense_generators(drive)
    inner = commutator(second, first)
    expansion = bch_orders(drive, max_order=3)
    np.testing.assert_allclose(
        expansion.term(0).matrix, 0.5 * (first + second), atol=1e-13
    )
    np.testing.assert_allclose(
        expansion.term(1).matrix, (tau / 4.0) * inner, atol=1e-13
    )
    np.testing.assert_allclose(
        expansion.term(2).matrix,
        (tau**2 / 24.0) * commutator(second - first, inner),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        expansion.term(3).matrix,
        (tau**3 / 48.0)
        * commutator(first, commutator(second, commutator(first, second))),
        atol=1e-13,
    )


def test_closed_form_orders_match_exact_log_scaling():
    """Truncation residuals against the exact generator shrink by
    2^(n+1) when tau is halved, for every order n up to 3."""
    params = dict(jz=1.0, gamma=0.5, num_sites=3)
    residuals = {}
    for tau in (0.1, 0.05):
        drive = build_model(ModelParams(name="C", tau=tau, **params))
        exact = exact_effective(drive).matrix
        expansion = bch_orders(drive, max_order=3)
        for order in range(4):
            residuals[(tau, order)] = np.linalg.norm(
                exact - expansion.cumulative(order).matrix
            )
    for order in range(4):
        ratio = residuals[(0.1, order)] / residuals[(0.05, order)]
        assert ratio == pytest.approx(2.0 ** (order + 1), rel=0.2)


def test_commuting_segments_have_no_corrections():
    """All orders above zero vanish for commuting segments."""
    expansion = bch_orders(commuting_drive(), max_order=3)
    for order in (1, 2, 3):
        assert expansion.term(order).norm() <= 1e-14


def test_cumulative_sums_terms():
    """cumulative(n) equals the sum of terms 0..n."""
    expansion = bch_orders(binary_drive(), max_order=3)
    total = np.zeros_like(expansion.term(0).matrix)
    for order in range(4):
        total = total + expansion.term(order).matrix
        np.testing.assert_allclose(
            expansion.cumulative(order).matrix, total, atol=1e-12
        )
    assert expansion.max_order == 3
    assert expansion.flavor == FLAVOR_STROBOSCOPIC


def test_closed_form_requires_binary_equal_durations():
    """Non-binary or unequal-duration drives are rejected."""
    with pytest.raises(DimensionMismatchError):
        bch_orders(three_segment_drive())
    unequal = PiecewiseLiouvillian(
        (
            LindbladSegment(0.1, (HamiltonianTerm(PAULI[3], (0,)),), ()),
            LindbladSegment(0.2, (), (JumpTerm(1.0, PAULI[1], (0,)),)),
        ),
        num_sites=1,
    )
    with pytest.raises(DimensionMismatchError):
        bch_orders(unequal)
    with pytest.raises(UnsupportedOrderError):
        bch_orders(binary_drive(), max_order=4)


def test_general_first_order_single_segment_vanishes():
    """A constant drive has zero first-order correction."""
    drive = PiecewiseLiouvillian(
        (LindbladSegment(0.4, (), (JumpTerm(1.0, PAULI[1], (0,)),)),),
        num_sites=1,
    )
    expansion = fm_general(drive, max_order=1)
    assert expansion.term(1).norm() <= 1e-15


def test_general_first_order_matches_closed_form_on_binary():
    """The integral formula agrees with the closed form on binary
    drives at orders 0 and 1."""
    drive = binary_drive()
    closed = bch_orders(drive, max_order=1)
    general = fm_general(drive, max_order=1)
    for order in (0, 1):
        difference = np.linalg.norm(
            closed.term(order).matrix - general.term(order).matrix
        )
        assert difference <= 1e-12


def test_general_first_order_three_segments_closed_form():
    """Three equal segments give (tau^2 / 2T) times the ordered
    commutator sum."""
    tau = 0.2
    drive = three_segment_drive(tau=tau)
    l1, l2, l3 = dense_generators(drive)
    expected = (tau**2 / (2.0 * drive.period)) * (
        commutator(l2, l1) + commutator(l3, l1) + commutator(l3, l2)
    )
    expansion = fm_general(drive, max_order=1)
    np.testing.assert_allclose(
        expansion.term(1).matrix, expected, atol=1e-13
    )


def test_general_orders_cap():
    """Orders above one are not available from the integral formula."""
    with pytest.raises(UnsupportedOrderError):
        fm_general(binary_drive(), max_order=2)


def test_fourier_zero_mode_is_weighted_average():
    """The m = 0 component is the duration-weighted segment average."""
    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(0.1, (HamiltonianTerm(PAULI[3], (0,)),), ()),
            LindbladSegment(0.3, (), (JumpTerm(1.0, PAULI[1], (0,)),)),
        ),
        num_sites=1,
    )
    first, second = dense_generators(drive)
    np.testing.assert_allclose(
        fourier_component(drive, 0).matrix,
        (0.1 * first + 0.3 * second) / 0.4,
        atol=1e-14,
    )


def test_fourier_constant_drive_higher_modes_vanish():
    """A single-segment drive has no nonzero harmonics."""
    drive = PiecewiseLiouvillian(
        (LindbladSegment(0.4, (HamiltonianTerm(PAULI[1], (0,)),), ()),),
        num_sites=1,
    )
    for m in (1, -1, 2, 5):
        assert fourier_component(drive, m).norm() <= 1e-14


def test_fourier_binary_closed_forms():
    """Binary equal-duration drives have harmonics
    (L2 - L1) i / (pi m) for odd m and zero for even nonzero m."""
    drive = binary_drive()
    first, second = dense_generators(drive)
    for m in (1, -1, 3, -5):
        expected = (second - first) * (1j / (np.pi * m))
        np.testing.assert_allclose(
            fourier_component(drive, m).matrix, expected, atol=1e-13
        )
    for m in (2, -2, 4):
        assert fourier_component(drive, m).norm() <= 1e-14


def test_kick_free_first_order_vanishes_for_binary_drives():
    """Every harmonic of a binary drive is proportional to the same
    matrix, so the kick-free first order cancels identically."""
    expansion = van_vleck_orders(binary_drive(), max_order=1, m_max=60)
    assert expansion.flavor == FLAVOR_VAN_VLECK
    assert expansion.term(1).norm() <= 1e-14
    assert expansion.tail_estimate is not None
    assert expansion.tail_estimate >= 0.0


def test_kick_free_first_order_converges_in_cutoff():
    """Doubling the harmonic cutoff moves the first order by less than
    1e-4 in relative norm on a three-segment drive."""
    drive = three_segment_drive()
    coarse = van_vleck_orders(drive, max_order=1, m_max=50).term(1)
    fine = van_vleck_orders(drive, max_order=1, m_max=100).term(1)
    difference = np.linalg.norm(coarse.matrix - fine.matrix)
    assert difference <= 1e-4 * fine.norm()


def test_kick_free_first_order_matches_kick_transformation():
    """The kick-free first order equals the stroboscopic first order
    minus the commutator with the zero-time kick generator."""
    drive = three_segment_drive()
    omega = 2.0 * np.pi / drive.period
    m_max = 4000
    kick = np.zeros_like(fourier_component(drive, 0).matrix)
    for m in range(1, m_max + 1):
        kick += fourier_component(drive, m).matrix / (1j * m * omega)
        kick += fourier_component(drive, -m).matrix / (-1j * m * omega)
    stroboscopic = fm_general(drive, max_order=1)
    expected = stroboscopic.term(1).matrix - commutator(
        kick, stroboscopic.term(0).matrix
    )
    kick_free = van_vleck_orders(drive, max_order=1, m_max=m_max).term(1)
    scale = np.linalg.norm(kick_free.matrix)
    assert np.linalg.norm(kick_free.matrix - expected) <= 1e-2 * scale


def test_kick_free_first_order_matches_fourier_loop():
    """The segment-pair sum equals the explicit harmonic loop over dense
    Fourier components, term and tail estimate, on a drive with three
    unequal segments; the harmonic weights, formed for every harmonic in
    one broadcast, equal the one-harmonic ones bit for bit."""
    bond = HamiltonianTerm(np.kron(PAULI[3], PAULI[3]), (0, 1))
    field = HamiltonianTerm(0.7 * PAULI[1], (0,))
    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(0.1, (bond,), ()),
            LindbladSegment(0.15, (field,), ()),
            LindbladSegment(0.2, (), (JumpTerm(0.5, PAULI[2], (1,)),)),
        ),
        num_sites=2,
    )
    harmonics = np.setdiff1d(np.arange(-200, 201), [0])
    stacked = _segment_coefficients(drive, harmonics)
    single = [_segment_coefficients(drive, m) for m in harmonics.tolist()]
    assert stacked.shape == (400, 3)
    assert np.array_equal(stacked, single)
    omega = 2.0 * np.pi / drive.period
    for m_max in (1, 2, 37):
        expected = np.zeros_like(fourier_component(drive, 0).matrix)
        last_norms = [0.0, 0.0]
        for m in range(1, m_max + 1):
            term = commutator(
                fourier_component(drive, -m).matrix,
                fourier_component(drive, m).matrix,
            ) / (1j * m * omega)
            expected += term
            last_norms = [last_norms[1], np.linalg.norm(term)]
        expansion = van_vleck_orders(drive, max_order=1, m_max=m_max)
        difference = np.linalg.norm(expansion.term(1).matrix - expected)
        assert difference <= 1e-12 * np.linalg.norm(expected)
        assert expansion.tail_estimate == pytest.approx(
            2.0 * max(last_norms), rel=1e-12
        )


def test_kick_free_weights_are_summed_in_bounded_chunks(monkeypatch):
    """The harmonics' pair weights are summed a ``_GRID_BYTES`` chunk at a
    time: for model A the traced peak at ``m_max = 10^6`` is at most twice
    the peak at ``10^4`` (all harmonics stacked at once took 162 MB of RSS
    at ``10^6``), and chunks of one harmonic give the single chunk's first
    order to roundoff and its tail estimate exactly."""
    drive = build_model(ModelParams(name="A", tau=0.2, h=1.0, gamma1=0.7))
    peaks = []
    for m_max in (10**4, 10**6):
        van_vleck_orders(drive, max_order=1, m_max=m_max)
        tracemalloc.start()
        try:
            van_vleck_orders(drive, max_order=1, m_max=m_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks
    whole = van_vleck_orders(drive, max_order=1, m_max=37)
    monkeypatch.setattr(magnus, "_GRID_BYTES", 1)
    chunked = van_vleck_orders(drive, max_order=1, m_max=37)
    difference = np.linalg.norm(chunked.term(1).matrix - whole.term(1).matrix)
    assert difference <= 1e-14 * whole.term(1).norm()
    assert chunked.tail_estimate == whole.tail_estimate


def test_kick_free_input_validation():
    """Unsupported orders and cutoffs are rejected."""
    with pytest.raises(UnsupportedOrderError):
        van_vleck_orders(binary_drive(), max_order=2)
    with pytest.raises(UnsupportedOrderError):
        van_vleck_orders(binary_drive(), m_max=0)


def test_propagator_orders_segments_earliest_rightmost():
    """The binary propagator is exp(L2 tau) exp(L1 tau)."""
    tau = 0.2
    drive = binary_drive(tau=tau)
    first, second = dense_generators(drive)
    expected = matrix_exp(second * tau) @ matrix_exp(first * tau)
    np.testing.assert_allclose(
        floquet_propagator(drive).matrix, expected, atol=1e-12
    )


def test_propagator_single_segment():
    """One segment exponentiates directly."""
    drive = PiecewiseLiouvillian(
        (LindbladSegment(0.3, (), (JumpTerm(1.0, PAULI[1], (0,)),)),),
        num_sites=1,
    )
    expected = matrix_exp(dense_generators(drive)[0] * 0.3)
    np.testing.assert_allclose(
        floquet_propagator(drive).matrix, expected, atol=1e-13
    )


def test_propagator_fixes_vectorized_identity_from_left():
    """The propagator preserves trace: the vectorized identity is a
    left eigenvector with eigenvalue one."""
    drive = binary_drive()
    left = vectorize(np.eye(drive.dim)).conj()
    residual = np.linalg.norm(
        left @ floquet_propagator(drive).matrix - left
    )
    assert residual <= 1e-10


def test_exact_effective_constant_drive_recovers_generator():
    """For a constant drive the effective generator is the segment
    generator itself."""
    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(
                0.4,
                (HamiltonianTerm(0.5 * PAULI[3], (0,)),),
                (JumpTerm(0.8, PAULI[1], (0,)),),
            ),
        ),
        num_sites=1,
    )
    np.testing.assert_allclose(
        exact_effective(drive).matrix,
        dense_generators(drive)[0],
        atol=1e-10,
    )


def test_exact_effective_commuting_segments_average():
    """Commuting segments average exactly."""
    drive = commuting_drive()
    first, second = dense_generators(drive)
    np.testing.assert_allclose(
        exact_effective(drive).matrix, 0.5 * (first + second), atol=1e-10
    )


def test_exact_effective_close_to_second_order_truncation():
    """At weak driving the exact generator sits within 1e-3 relative of
    the second-order truncation."""
    drive = build_model(ModelParams(name="A", tau=0.05, h=1.0, gamma1=1.0))
    exact = exact_effective(drive)
    truncated = bch_orders(drive, max_order=2).cumulative()
    residual = np.linalg.norm(exact.matrix - truncated.matrix)
    assert residual <= 1e-3 * exact.norm()


def test_exact_effective_roundtrips_through_exp():
    """exp(L_eff T) rebuilds the propagator within 1e-8 relative."""
    for params in (
        ModelParams(name="A", tau=0.2, h=1.0, gamma1=1.0),
        ModelParams(name="B", tau=0.2, gamma1=1.0, gamma2=0.5),
        ModelParams(name="C", tau=0.1, jz=1.0, gamma=0.5, num_sites=3),
        ModelParams(name="D", tau=0.1, jx=1.0, gamma=0.5, num_sites=3),
    ):
        drive = build_model(params)
        propagator = floquet_propagator(drive).matrix
        rebuilt = matrix_exp(exact_effective(drive).matrix * drive.period)
        residual = np.linalg.norm(rebuilt - propagator)
        assert residual <= 1e-8 * np.linalg.norm(propagator)


def test_every_term_preserves_trace_and_hermiticity():
    """All stroboscopic and kick-free terms are trace and hermiticity
    preserving."""
    drive = three_segment_drive()
    binary = binary_drive()
    expansions = (
        bch_orders(binary, max_order=3),
        fm_general(drive, max_order=1),
        van_vleck_orders(drive, max_order=1, m_max=80),
    )
    for expansion in expansions:
        for order in range(expansion.max_order + 1):
            term = expansion.term(order)
            assert is_trace_preserving(term)
            assert is_hermiticity_preserving(term, tol=1e-10)


def test_orders_are_homogeneous_in_the_generators():
    """Scaling both segment generators by s scales order i by
    s^(i + 1) at fixed tau."""
    tau = 0.2
    scale = 1.7
    base = binary_drive(tau=tau, h=1.0, gamma=0.7)
    scaled = binary_drive(tau=tau, h=scale, gamma=scale * 0.7)
    base_terms = bch_orders(base, max_order=3)
    scaled_terms = bch_orders(scaled, max_order=3)
    for order in range(4):
        np.testing.assert_allclose(
            scaled_terms.term(order).matrix,
            scale ** (order + 1) * base_terms.term(order).matrix,
            atol=1e-12,
        )


HOMOGENEITY_MODELS = [
    ModelParams(name="A", tau=0.2, h=1.0, gamma1=0.7),
    ModelParams(name="B", tau=0.2, gamma1=1.0, gamma2=0.5),
    ModelParams(name="C", tau=0.2, num_sites=3, jz=1.0, gamma=0.5),
    ModelParams(name="C", tau=0.2, num_sites=4, jz=1.0, gamma=0.5),
    ModelParams(name="D", tau=0.2, num_sites=3, jx=1.0, gamma=0.5),
    ModelParams(name="D", tau=0.2, num_sites=4, jx=1.0, gamma=0.5),
]


@pytest.mark.parametrize(
    "params", HOMOGENEITY_MODELS, ids=lambda p: f"{p.name}{p.num_sites}"
)
def test_order_terms_are_homogeneous_in_the_period(params):
    """The segment generators do not depend on the period, so the order-k
    term at ``s tau`` is ``s^k`` times the term at ``tau``, for every
    expansion: the scaling the ``compare-exact`` grid rests on. Values
    agree to 1e-12 relative. The van Vleck first order of a binary drive
    vanishes identically and holds only roundoff, which does not scale;
    it is held to 1e-12 of the closed-form term of its order instead."""
    drive = build_model(params)
    reference = bch_orders(drive, 3)
    expansions = (
        reference,
        van_vleck_orders(drive, 1, m_max=20),
        fm_general(drive, 1),
    )
    for scale in (0.1, 0.37, 1.0, 2.5):
        scaled = build_model(replace(params, tau=scale * params.tau))
        for ours, theirs in zip(drive.segment_generators(), scaled.segment_generators()):
            for part, scaled_part in zip(ours.pauli_terms, theirs.pauli_terms):
                np.testing.assert_array_equal(scaled_part, part)
        scaled_expansions = (
            bch_orders(scaled, 3),
            van_vleck_orders(scaled, 1, m_max=20),
            fm_general(scaled, 1),
        )
        for expansion, scaled_expansion in zip(expansions, scaled_expansions):
            pairs = zip(expansion.order_terms, scaled_expansion.order_terms)
            for order, (term, scaled_term) in enumerate(pairs):
                codes, values = term.pauli_terms
                scaled_codes, scaled_values = scaled_term.pauli_terms
                np.testing.assert_array_equal(scaled_codes, codes)
                floor = 0.0
                if expansion.flavor == FLAVOR_VAN_VLECK and order == 1:
                    floor = 1e-12 * scale * reference.term(1).norm()
                np.testing.assert_allclose(
                    scaled_values, scale**order * values, rtol=1e-12, atol=floor
                )
