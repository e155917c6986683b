"""Tests for structural analysis of coefficient matrices: weight
bounds, sparsity, connected-component block partitions, the
weight-ordered triangular split with its negativity certificate,
extensiveness, and the per-order coefficient growth bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lindblad import (
    DissipatorMatrix,
    MultiIndex,
    StructureViolationError,
    SupportsUndeclaredError,
    bch_orders,
    block_partition,
    coefficient_bound_check,
    drive_locality,
    extensiveness,
    extract_dissipator,
    sparsity_check,
    triangular_split,
)
from floquet_lindblad.locality import (
    coefficient_bound,
    d_n_bound,
    max_weight_bound,
    triangular_threshold,
)
from floquet_lindblad.models import ModelParams, build_model


def model_c(tau=0.1, jz=1.0, gamma=0.5, num_sites=3):
    return build_model(
        ModelParams(
            name="C", tau=tau, jz=jz, gamma=gamma, num_sites=num_sites
        )
    )


def model_d(tau=0.1, jx=1.0, gamma=0.5, num_sites=3):
    return build_model(
        ModelParams(
            name="D", tau=tau, jx=jx, gamma=gamma, num_sites=num_sites
        )
    )


def cumulative_dissipator(drive, order, weight_limit=None):
    term = bch_orders(drive, max_order=order).cumulative()
    return extract_dissipator(term, weight_limit=weight_limit)


def test_max_weight_bound_values():
    """(n + 1) k - n for small orders at two-body locality."""
    assert max_weight_bound(0, 2) == 2
    assert max_weight_bound(1, 2) == 3
    assert max_weight_bound(2, 2) == 4
    assert max_weight_bound(3, 2) == 5


def test_triangular_threshold_is_half_the_weight_cap():
    """The split threshold is the rounded-up half of the weight cap."""
    assert triangular_threshold(0, 2) == 1
    assert triangular_threshold(1, 2) == 2
    assert triangular_threshold(2, 2) == 2
    assert triangular_threshold(3, 2) == 3


def test_sparsity_holds_for_ring_drive():
    """No coefficient couples index pairs beyond the weight cap for the
    interacting ring at orders 0..2."""
    drive = model_c()
    k = drive_locality(drive)
    assert k == 2
    for order in (0, 1, 2):
        dissipator = extract_dissipator(
            bch_orders(drive, max_order=order).cumulative()
        )
        report = sparsity_check(dissipator, order, k)
        assert report.ok
        assert report.violating_pairs == 0
        assert report.max_violation < 1e-12


def test_sparsity_flags_planted_violation():
    """An artificial entry beyond the cap is reported."""
    indices = (
        MultiIndex((1, 0, 0)),
        MultiIndex((1, 1, 1)),
    )
    entries = np.array([[1.0, 0.2], [0.2, 0.0]], dtype=complex)
    dissipator = DissipatorMatrix(indices, entries, 3)
    report = sparsity_check(dissipator, 0, 2)
    assert not report.ok
    assert report.violating_pairs >= 1
    assert report.max_violation == pytest.approx(0.2)


def dense_sparsity(dissipator, order, locality_k, tol):
    """The sparsity report by the dense formula over every index pair."""
    bound = max_weight_bound(order, locality_k)
    weights = np.array([index.weight for index in dissipator.index_set])
    beyond = weights[:, None] + weights[None, :] > bound
    magnitudes = np.abs(dissipator.entries)
    violating = beyond & (magnitudes > tol)
    return (
        not bool(np.any(violating)),
        bound,
        float(np.max(magnitudes[beyond])) if np.any(beyond) else 0.0,
        int(np.count_nonzero(violating)),
    )


@given(
    num_sites=st.integers(1, 3),
    kept=st.floats(0.0, 1.0),
    density=st.floats(0.0, 1.0),
    nan=st.booleans(),
    order=st.integers(0, 3),
    locality_k=st.integers(1, 3),
    tol=st.sampled_from([None, 0.0, 0.5, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_sparsity_check_matches_the_dense_formula(
    num_sites, kept, density, nan, order, locality_k, tol, seed
):
    """``sparsity_check`` read from the nonzeros equals the dense formula
    over every pair, on random index subsets (the empty one included),
    all-zero and sparse matrices, with a NaN entry and at a zero or
    negative tolerance, where exact zeros beyond the bound violate."""
    rng = np.random.default_rng(seed)
    codes = np.flatnonzero(rng.random(4**num_sites - 1) < kept) + 1
    index_set = tuple(MultiIndex.from_code(int(code), num_sites) for code in codes)
    size = codes.size
    entries = (rng.standard_normal((size, size)) + 1j) * (rng.random((size, size)) < density)
    if nan and size:
        entries[tuple(rng.integers(size, size=2))] = np.nan
    dissipator = DissipatorMatrix(index_set, entries, num_sites)
    report = sparsity_check(dissipator, order, locality_k, tol)
    expected = dense_sparsity(
        dissipator, order, locality_k, dissipator.structural_tol() if tol is None else tol
    )
    got = (report.ok, report.bound, report.max_violation, report.violating_pairs)
    np.testing.assert_equal(got, expected)


def test_sparsity_check_negative_tolerance_counts_exact_zeros():
    """With a negative ``tol`` every pair beyond the weight bound violates,
    exact zeros included: at order 0 and k = 2 on two sites, the 189 pairs
    with a weight-2 index and at least weight 3 in all, against the two
    planted nonzeros at ``tol = 0``."""
    index_set = tuple(MultiIndex.from_code(code, 2) for code in range(1, 16))
    entries = np.zeros((15, 15), dtype=complex)
    entries[3, 13] = entries[13, 3] = 0.5  # codes 4 and 14: weights 1 and 2
    dissipator = DissipatorMatrix(index_set, entries, 2)
    for tol, violating in ((-1.0, 189), (0.0, 2)):
        report = sparsity_check(dissipator, 0, 2, tol)
        assert report.violating_pairs == violating
        assert dense_sparsity(dissipator, 0, 2, tol) == (
            False, 2, 0.5, violating
        )


def test_single_site_drive_uses_single_site_indices():
    """A one-site drive only populates single-site indices."""
    drive = build_model(ModelParams(name="A", tau=0.1, h=1.0, gamma1=1.0))
    dissipator = cumulative_dissipator(drive, 2)
    for row, j_index in enumerate(dissipator.index_set):
        for col, k_index in enumerate(dissipator.index_set):
            if abs(dissipator.entries[row, col]) > 1e-12:
                assert j_index.weight == 1 and k_index.weight == 1


def test_block_partition_singleton_blocks_for_diagonal_matrix():
    """A diagonal coefficient matrix partitions into singletons."""
    indices = (MultiIndex((1,)), MultiIndex((2,)), MultiIndex((3,)))
    entries = np.diag([1.0, 2.0, 0.5]).astype(complex)
    structure = block_partition(DissipatorMatrix(indices, entries, 1))
    assert structure.d_n == 3
    assert sorted(block.size for block in structure.blocks) == [
        1,
        1,
        1,
    ]


def test_block_partition_connects_coupled_indices():
    """Indices coupled through off-diagonal entries share a block."""
    indices = (MultiIndex((1,)), MultiIndex((2,)), MultiIndex((3,)))
    entries = np.array(
        [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.0]],
        dtype=complex,
    )
    structure = block_partition(DissipatorMatrix(indices, entries, 1))
    assert structure.d_n == 2
    assert len(structure.blocks) == 1
    assert structure.blocks[0].size == 2


def test_block_partition_ring_second_order_shapes():
    """The interacting ring at order 2 splits into L four-index blocks
    plus L two-index bond blocks."""
    num_sites = 4
    drive = model_c(num_sites=num_sites)
    dissipator = cumulative_dissipator(drive, 2)
    structure = block_partition(dissipator)
    sizes = sorted(block.size for block in structure.blocks)
    assert sizes == [2] * num_sites + [4] * num_sites
    assert structure.d_n == 6 * num_sites


def test_block_partition_bond_blocks_content():
    """Each two-index bond block couples neighboring xx and yy strings
    with the expected purely imaginary coefficient."""
    num_sites = 3
    tau, jz, gamma = 0.1, 1.0, 0.5
    drive = model_c(tau=tau, jz=jz, gamma=gamma, num_sites=num_sites)
    structure = block_partition(cumulative_dissipator(drive, 2))
    bond_value = (2.0 / 3.0) * 2 ** (num_sites - 1) * gamma**2 * jz * tau**2
    bond_blocks = [
        block for block in structure.blocks if block.size == 2
    ]
    assert len(bond_blocks) == num_sites
    for block in bond_blocks:
        weights = sorted(index.weight for index in block.index_set)
        assert weights == [2, 2]
        off_diagonal = block.entries[0, 1]
        assert abs(abs(off_diagonal) - bond_value) <= 1e-12
        assert abs(off_diagonal.real) <= 1e-12
        np.testing.assert_allclose(
            np.diag(block.entries), np.zeros(2), atol=1e-12
        )


def test_ring_dissipator_is_translation_invariant():
    """Shifting both indices of any populated pair by one ring site
    leaves the coefficient unchanged, and same-size blocks are
    isospectral."""
    num_sites = 4

    def shifted(index):
        sites = index.sites
        rolled = tuple(
            sites[(j - 1) % num_sites] for j in range(num_sites)
        )
        return MultiIndex(rolled)

    for order in (1, 2):
        dissipator = cumulative_dissipator(
            model_c(num_sites=num_sites), order
        )
        for row, j_index in enumerate(dissipator.index_set):
            for col, k_index in enumerate(dissipator.index_set):
                value = dissipator.entries[row, col]
                if abs(value) <= 1e-12:
                    continue
                moved = dissipator.entry(shifted(j_index), shifted(k_index))
                assert moved == pytest.approx(value, abs=1e-12)
        structure = block_partition(dissipator)
        by_size = {}
        for block in structure.blocks:
            by_size.setdefault(block.size, []).append(block)
        for blocks in by_size.values():
            reference = np.linalg.eigvalsh(blocks[0].entries)
            for block in blocks[1:]:
                np.testing.assert_allclose(
                    np.linalg.eigvalsh(block.entries),
                    reference,
                    atol=1e-10,
                )


def test_d_n_within_combinatorial_bound():
    """The populated index count stays within the combinatorial
    envelope C(L, w) 4^w at w = (n + 1) k - n."""
    for drive, orders in ((model_c(num_sites=4), (0, 1, 2)),):
        k = drive_locality(drive)
        for order in orders:
            structure = block_partition(
                cumulative_dissipator(drive, order)
            )
            assert structure.d_n <= d_n_bound(4, order, k)


def test_d_n_grows_linearly_for_ring_drives():
    """d_n doubles ratios linearly in L for the nearest-neighbor ring:
    d_n(L) / L is constant across L in 3..5."""
    per_site = []
    for num_sites in (3, 4, 5):
        structure = block_partition(
            cumulative_dissipator(
                model_c(num_sites=num_sites), 2, weight_limit=4
            )
        )
        per_site.append(structure.d_n / num_sites)
    assert per_site[0] == per_site[1] == per_site[2]


def test_triangular_split_ring_first_order():
    """Splitting the first-order ring matrix below weight two couples
    each single-site z index to its two-site neighbor string, giving a
    rank-three coupling block and at least as many negative
    eigenvalues."""
    dissipator = cumulative_dissipator(model_c(), 1)
    split = triangular_split(dissipator, weight_threshold=1)
    assert split.e_n == len(split.low_indices)
    assert split.rank_b == 3
    assert split.negative_count >= 3
    assert split.certified


def test_triangular_split_ring_first_order_default_threshold():
    """At the default threshold for order one the coupling block is a
    structural zero, so the certificate is vacuous but still valid."""
    dissipator = cumulative_dissipator(model_c(), 1)
    split = triangular_split(dissipator, order=1, locality_k=2)
    assert split.rank_b == 0
    assert split.certified


def test_triangular_split_detects_structure_violation():
    """A nonzero high-weight diagonal block raises."""
    indices = (MultiIndex((1, 0, 0)), MultiIndex((1, 1, 0)))
    entries = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    dissipator = DissipatorMatrix(indices, entries, 3)
    with pytest.raises(StructureViolationError):
        triangular_split(dissipator, weight_threshold=1)


def test_triangular_split_zero_coupling_makes_no_claim():
    """With no off-diagonal coupling the certificate is vacuous."""
    indices = (MultiIndex((1, 0, 0)), MultiIndex((1, 1, 0)))
    entries = np.diag([1.0, 0.0]).astype(complex)
    dissipator = DissipatorMatrix(indices, entries, 3)
    split = triangular_split(dissipator, weight_threshold=1)
    assert split.rank_b == 0
    assert split.certified


def test_triangular_split_randomized_negativity_certificate():
    """Randomized matrices in the arrowhead form [[A, B], [B*, 0]] have
    at least rank(B) negative eigenvalues."""
    rng = np.random.default_rng(79)
    low = [MultiIndex((j, 0, 0)) for j in (1, 2, 3)] + [
        MultiIndex((0, j, 0)) for j in (1, 2, 3)
    ]
    high = [
        MultiIndex((1, 1, 0)),
        MultiIndex((2, 3, 0)),
        MultiIndex((0, 1, 2)),
        MultiIndex((3, 0, 3)),
    ]
    indices = tuple(low + high)
    e_n, f_n = len(low), len(high)
    for _ in range(20):
        raw = rng.standard_normal((e_n, e_n)) + 1j * rng.standard_normal(
            (e_n, e_n)
        )
        a_block = 0.5 * (raw + raw.conj().T)
        b_block = rng.standard_normal((e_n, f_n)) + 1j * (
            rng.standard_normal((e_n, f_n))
        )
        if rng.uniform() < 0.3:
            b_block[:, 1:] = 0.0
        entries = np.zeros((e_n + f_n, e_n + f_n), dtype=complex)
        entries[:e_n, :e_n] = a_block
        entries[:e_n, e_n:] = b_block
        entries[e_n:, :e_n] = b_block.conj().T
        dissipator = DissipatorMatrix(indices, entries, 3)
        split = triangular_split(dissipator, weight_threshold=1)
        oracle_rank = np.linalg.matrix_rank(b_block, tol=1e-10)
        oracle_negatives = int(
            np.sum(np.linalg.eigvalsh(entries) < -1e-10)
        )
        assert split.rank_b == oracle_rank
        assert split.negative_count == oracle_negatives
        assert split.negative_count >= split.rank_b


def test_extensiveness_of_ring_drive():
    """The per-site energy bound of the Ising-plus-dephasing ring is
    4 J_z + 2 gamma, and it scales linearly with the couplings."""
    jz, gamma = 1.0, 0.5
    assert extensiveness(model_c(jz=jz, gamma=gamma)) == pytest.approx(
        4.0 * jz + 2.0 * gamma, rel=1e-12
    )
    assert extensiveness(
        model_c(jz=2.0 * jz, gamma=2.0 * gamma)
    ) == pytest.approx(2.0 * (4.0 * jz + 2.0 * gamma), rel=1e-12)


def test_extensiveness_single_site_drive():
    """For a one-site drive the bound is the max segment generator
    norm contribution on that site."""
    drive = build_model(ModelParams(name="A", tau=0.1, h=1.0, gamma1=1.0))
    value = extensiveness(drive)
    assert value > 0.0
    doubled = build_model(
        ModelParams(name="A", tau=0.1, h=2.0, gamma1=2.0)
    )
    assert extensiveness(doubled) == pytest.approx(2.0 * value, rel=1e-12)


def test_extensiveness_requires_declared_supports():
    """Terms without declared supports cannot be scored."""
    from floquet_lindblad import (
        HamiltonianTerm,
        LindbladSegment,
        PiecewiseLiouvillian,
    )

    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(
                0.1, (HamiltonianTerm(np.eye(2, dtype=complex), None),), ()
            ),
        ),
        num_sites=1,
    )
    with pytest.raises(SupportsUndeclaredError):
        extensiveness(drive)


def test_coefficient_bound_formula_at_order_zero():
    """At order zero the bound reduces to J 2^L."""
    assert coefficient_bound(0, 2, 3.0, 1.0, 3) == pytest.approx(
        3.0 * 8.0
    )


def test_coefficient_bound_holds_for_ring_drives():
    """Extracted coefficients stay within the growth bound for both
    interacting rings at orders 0..2."""
    for drive in (model_c(num_sites=4), model_d(num_sites=4)):
        expansion = bch_orders(drive, max_order=2)
        checks = coefficient_bound_check(expansion)
        assert len(checks) == 3
        for check in checks:
            assert check.ok
            assert check.max_abs <= check.bound
